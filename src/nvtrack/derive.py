"""Generator twins of plain functions: how a simulated process runs.

Structures stay written once as plain functions.  :func:`twin` derives at run
time, by an ``ast`` pass over its source, a generator twin of each function a
``SimRuntime`` process reaches.  The twin yields one scheduling point before
each shared-cell access (a call of a method named in ``ACCESSES``), after the
access's own arguments are evaluated: ``m.cas(p, c, old, new)`` becomes
``m.cas(p, c, old, (new, (yield))[0])``, the gate wrapping the value of the
last argument, whether it is positional, a keyword, ``*x`` or ``**x`` (the
last keyword, if there is one).  So ``m.write(p, c, m.read(p, d))`` still
takes the read step first.  A call of a bare name that is not a parameter,
local, cell or free variable of the function, and that its globals (failing
that, builtins) bind at derive time to a class or builtin function, is left
as it is.  Every other call goes through :func:`twin`: a callee with a twin
is entered with ``yield from``, any other is called as it is.  Lambdas,
comprehensions and nested ``def``/``class`` bodies are not rewritten, and
standard-library functions, generator functions and functions left with no
rewritten call get no twin, so an access they make has no scheduling point
(``SimRuntime`` raises).  A function whose source cannot be read is an
error that names it.  Twins keep the original file and line numbers.
"""

from __future__ import annotations

import ast
import inspect
import sys
import types

ACCESSES = frozenset({"read", "write", "cas", "cas_fetch", "flush"})
_TWIN, _T, _F = "_nvtrack_twin", "_nvtrack_t", "_nvtrack_f"
_NOT_PLAIN = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR

#: function -> its twin, or None to call it as it is.  A generator function
#: is entered as its own twin once it is added here.
TWINS: dict = {}
_CODES: dict = {}                      # code object -> the twin's code, or None


def twin(fn):
    """The generator twin of callable ``fn``, or None to call ``fn`` as it is."""
    if type(fn) is types.MethodType:
        func = fn.__func__
        t = TWINS[func] if func in TWINS else twin(func)
        return None if t is None else types.MethodType(t, fn.__self__)
    if type(fn) is not types.FunctionType:
        return None                    # classes, builtins, other callables
    try:
        return TWINS[fn]
    except KeyError:
        code = fn.__code__
        if code not in _CODES:
            _CODES[code] = _derive(fn)
        t = TWINS[fn] = _CODES[code] and _bind(_CODES[code], fn)
        return t


def _bind(code, fn):
    """A function running ``code`` with ``fn``'s globals, defaults and cells."""
    cells = dict(zip(fn.__code__.co_freevars, fn.__closure__ or ()))
    cells[_TWIN] = _TWIN_CELL
    t = types.FunctionType(code, fn.__globals__, fn.__name__, fn.__defaults__,
                           tuple(cells[name] for name in code.co_freevars))
    t.__kwdefaults__ = fn.__kwdefaults__
    return t


_TWIN_CELL = types.CellType(twin)


# a call f(args) of any callee that is not an access becomes this, where t is
# the callee's twin and f the callee, each evaluated once
_CALL = f"(yield from {_T}()) if ({_T} := {_TWIN}({_F} := f)) is not None else {_F}()"


def _gated(value: ast.expr) -> ast.expr:
    """``(value, (yield))[0]``: ``value``, then a scheduling point."""
    return ast.Subscript(ast.Tuple([value, ast.Yield(None)], ast.Load()),
                         ast.Constant(0), ast.Load())


class _Rewrite(ast.NodeTransformer):
    def __init__(self, fn):
        code = fn.__code__
        self.calls = 0                 # calls rewritten
        self.local = {*code.co_varnames, *code.co_cellvars, *code.co_freevars}
        self.globals, self.builtins = fn.__globals__, fn.__builtins__

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.func, ast.Attribute) and node.func.attr in ACCESSES:
            self.calls += 1
            last = (node.keywords or node.args)[-1]
            if isinstance(last, (ast.keyword, ast.Starred)):
                last.value = _gated(last.value)
            else:
                node.args[-1] = _gated(last)
            return node
        if isinstance(node.func, ast.Name) and node.func.id not in self.local:
            name = node.func.id
            callee = self.globals.get(name, self.builtins.get(name))
            if isinstance(callee, (type, types.BuiltinFunctionType)):
                return node            # a class or builtin: it has no twin
        self.calls += 1
        new = ast.parse(_CALL, mode="eval").body
        for part in ast.walk(new):
            ast.copy_location(part, node)
        new.test.left.value.args[0].value = node.func
        for call in (new.body.value, new.orelse):
            call.args, call.keywords = node.args, node.keywords
        return new

    def _keep(self, node: ast.AST) -> ast.AST:
        return node

    visit_Lambda = visit_ListComp = visit_SetComp = visit_DictComp = _keep
    visit_GeneratorExp = visit_FunctionDef = visit_AsyncFunctionDef = _keep
    visit_ClassDef = _keep


def _derive(fn):
    """The code of ``fn``'s twin, or None if ``fn`` gets none."""
    code = fn.__code__
    module = (fn.__module__ or "").partition(".")[0]
    if (code.co_flags & _NOT_PLAIN or code.co_name == "<lambda>"
            or module in sys.stdlib_module_names):
        return None
    where = f"{fn.__qualname__} ({code.co_filename}, line {code.co_firstlineno})"
    try:
        lines, start = inspect.getsourcelines(code)
    except OSError as exc:
        raise RuntimeError(f"cannot derive a simulated process from {where}: "
                           f"{exc}") from None
    source = "".join(lines)
    indented = source[:1].isspace()   # a method or nested function
    tree = ast.parse("if 1:\n" + source if indented else source)
    node = tree.body[0].body[0] if indented else tree.body[0]
    if not isinstance(node, ast.FunctionDef) or node.name != code.co_name:
        raise RuntimeError(f"cannot derive a simulated process from {where}: "
                           "its source does not define it")
    ast.increment_lineno(node, start - 1 - indented)
    rewrite = _Rewrite(fn)
    node.body = [rewrite.visit(stmt) for stmt in node.body]
    if not rewrite.calls:
        return None                    # it can reach no access
    node.decorator_list = []
    # nested in a factory whose parameters become the twin's free variables
    outer = ast.parse(f"def _factory({', '.join((_TWIN,) + code.co_freevars)}): pass")
    outer.body[0].body = [node]
    module_code = compile(ast.fix_missing_locations(outer), code.co_filename, "exec")
    [factory] = [c for c in module_code.co_consts if isinstance(c, types.CodeType)]
    return next(c for c in factory.co_consts
                if isinstance(c, types.CodeType) and c.co_name == node.name)
