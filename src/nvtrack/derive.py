"""Variants of structure code derived from its source: how it runs on each
backend.

Structures stay written once, as plain functions over the memory API.  This
module derives two variants of them at run time, each by an ``ast`` pass
over the function's source, which :func:`_source` reads.

*Generator twins* (:func:`twin`): how a simulated process runs.  A
``SimRuntime`` process runs the twin of each function it reaches.  The twin
yields one scheduling point before each shared-cell access (a call of a
method named in ``ACCESSES``), after the access's own arguments are
evaluated: ``m.cas(p, c, old, new)`` becomes
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
(``SimRuntime`` raises).

*Native variants* (:func:`inlined`): how a structure runs on
``NativeRuntime``, whose ``read`` only returns ``cell.v``, so that the
interpreter's call overhead does not dominate every traversal.
``m.read(p, c)`` becomes ``c.v``; the statement ``m.write(p, c, x)`` becomes
``c.v = x`` and the statement ``m.flush(p, c)`` becomes ``c.p = c.v``:
exactly what ``NativeRuntime``'s methods do.  ``cas`` and ``cas_fetch`` stay
calls, since they take the runtime's lock, and so does a ``write`` or
``flush`` whose value is used.  Only plain arguments are dropped or
reordered: an access is rewritten only if its runtime is a name or a chain
of attributes on one and its pid a name or a constant, and a ``write`` or
``flush`` only if its cell is such a chain, which may also subscript by
names or constants, since the cell is then evaluated after the value, or
twice.  ``inlined(cls)`` is a subclass of structure class ``cls`` and of
the native variant of each of its structure bases, holding the native
variant of each method ``cls`` itself defines that has such an access, run
in its own module's globals.  So the native ``RecoverableList`` comes
before the native ``BaselineList`` in its MRO, and ``super().find(...)``
reaches the native base method, while an explicit
``BaselineList.find(self, ...)`` runs the plain one, which calls every
access.  ``runtime.Structure`` picks the native variant when a structure
is built on a runtime that keeps ``NativeRuntime``'s own ``read``,
``write`` and ``flush``, so the class and its bases are derived, under a
lock, in the thread that builds its first instance.

A function whose source cannot be read is an error that names it.  Derived
code keeps the original file and line numbers.
"""

from __future__ import annotations

import ast
import inspect
import linecache
import sys
import threading
import types

ACCESSES = frozenset({"read", "write", "cas", "cas_fetch", "flush"})
_INLINED_ACCESSES = frozenset({"read", "write", "flush"})   # see inlined()
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
        t = TWINS[fn] = _CODES[code] and _bind(_CODES[code], fn, {_TWIN: _TWIN_CELL})
        return t


def _bind(code, fn, cells: dict):
    """A function running ``code`` with ``fn``'s globals, defaults and cells,
    plus ``cells`` (free variable name -> cell)."""
    cells = {**dict(zip(fn.__code__.co_freevars, fn.__closure__ or ())), **cells}
    new = types.FunctionType(code, fn.__globals__, fn.__name__, fn.__defaults__,
                             tuple(cells[name] for name in code.co_freevars))
    new.__kwdefaults__ = fn.__kwdefaults__
    new.__qualname__, new.__doc__ = fn.__qualname__, fn.__doc__
    return new


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
    node = _source(fn, "a simulated process")
    rewrite = _Rewrite(fn)
    node.body = [rewrite.visit(stmt) for stmt in node.body]
    if not rewrite.calls:
        return None                    # it can reach no access
    return _compile(ast.fix_missing_locations(node), code, (_TWIN,))


def _source(fn, what: str) -> ast.FunctionDef:
    """The definition of function ``fn``, parsed from its file with the
    file's line numbers, its decorators dropped, to derive ``what`` from.

    The lines from the definition's first line up to the first line that
    is indented no deeper and is not blank or a comment are the definition,
    unless they do not parse (say, a closing bracket at the ``def``'s
    indentation): then ``inspect`` finds its end."""
    code = fn.__code__
    failure = (f"cannot derive {what} from {fn.__qualname__} "
               f"({code.co_filename}, line {code.co_firstlineno})")
    linecache.checkcache(code.co_filename)
    lines = linecache.getlines(code.co_filename, fn.__globals__)
    start = end = code.co_firstlineno - 1
    while end < len(lines) and lines[end].lstrip().startswith("@"):
        end += 1                         # decorators
    if end < len(lines):
        indent = len(lines[end]) - len(lines[end].lstrip())
        end += 1
        while end < len(lines):
            text = lines[end].lstrip()
            if text and text[0] != "#" and len(lines[end]) - len(text) <= indent:
                break
            end += 1
        try:
            return _parse(lines[start:end], start, failure, code.co_name)
        except SyntaxError:
            pass
    try:
        lines, first_line = inspect.getsourcelines(code)
    except OSError as exc:
        raise RuntimeError(f"{failure}: {exc}") from None
    return _parse(lines, first_line - 1, failure, code.co_name)


def _parse(lines: list, start: int, failure: str, name: str) -> ast.FunctionDef:
    """Parse the definition in ``lines``, the file's lines from index
    ``start``; blank lines pad it so its line numbers are the file's."""
    indented = lines[0][:1].isspace()   # a method or nested function
    head = "\n" * (start - 1) + "if 1:\n" if indented else "\n" * start
    tree = ast.parse(head + "".join(lines))
    node = tree.body[0].body[0] if indented else tree.body[0]
    if not isinstance(node, ast.FunctionDef) or node.name != name:
        raise RuntimeError(f"{failure}: its source does not define it")
    node.decorator_list = []
    return node


def _compile(node: ast.FunctionDef, code, params: tuple = ()):
    """The code of function ``node``, whose original code is ``code``,
    compiled nested in a factory whose parameters (``params``, then
    ``code``'s free variables) become its free variables."""
    outer = ast.parse(f"def _factory({', '.join(params + code.co_freevars)}): pass")
    outer.body[0].body = [node]
    module_code = compile(outer, code.co_filename, "exec")
    [factory] = [c for c in module_code.co_consts if isinstance(c, types.CodeType)]
    return next(c for c in factory.co_consts
                if isinstance(c, types.CodeType) and c.co_name == node.name)


# ---------------------------------------------------------------------------
# Native variants
# ---------------------------------------------------------------------------

def _plain(node: ast.expr) -> bool:
    """A name, or a chain of attributes and subscripts by names or constants
    on one: safe to evaluate twice, or after another expression."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Subscript) and not isinstance(
                node.slice, (ast.Name, ast.Constant)):
            return False
        node = node.value
    return isinstance(node, ast.Name)


def _access(node: ast.AST, name: str, nargs: int):
    """The cell argument of ``node`` if it is a call ``m.name(pid, cell,
    ...)`` of ``nargs`` positional arguments, whose runtime ``m`` is
    :func:`_plain` and whose pid is a name or a constant, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and len(node.args) == nargs
            and not node.keywords and _plain(node.func.value)
            and isinstance(node.args[0], (ast.Name, ast.Constant))
            and not any(isinstance(arg, ast.Starred) for arg in node.args)):
        return node.args[1]
    return None


def _native(node: ast.AST) -> ast.AST:
    """``node``, or what replaces it in a native variant: the cell's ``v``
    for a ``read``, an assignment for a ``write`` or ``flush`` statement."""
    if type(node) is ast.Call:
        cell = _access(node, "read", 2)
        if cell is not None:
            return ast.copy_location(ast.Attribute(cell, "v", ast.Load()), node)
    elif type(node) is ast.Expr:
        call = node.value
        cell = _access(call, "write", 3)
        if cell is not None and _plain(cell):
            target, value = "v", call.args[2]                       # c.v = x
        else:
            cell = _access(call, "flush", 2)
            if cell is None or not _plain(cell):
                return node
            target = "p"                                            # c.p = c.v
            value = ast.copy_location(ast.Attribute(cell, "v", ast.Load()), call)
        store = ast.copy_location(ast.Attribute(cell, target, ast.Store()), call)
        return ast.copy_location(ast.Assign([store], value), node)
    return node


class _Native(ast.NodeTransformer):
    """Replaces every node, top down, by :func:`_native`'s form of it;
    ``count`` is how many it replaced."""
    count = 0

    def visit(self, node: ast.AST) -> ast.AST:
        new = _native(node)
        self.count += new is not node
        return self.generic_visit(new)


_INLINED: dict = {}       # structure class -> its native variant (itself too)
_LOCK = threading.RLock()  # deriving in two threads at once broke ``ast``


def inlined(cls):
    """The native variant of structure class ``cls`` (see the module's
    docstring), derived at the first call and cached, so a method set on
    ``cls`` later is not seen if it replaces one with a native variant.  A
    native variant is its own."""
    try:
        return _INLINED[cls]
    except KeyError:
        pass
    from .runtime import Structure
    with _LOCK:
        if cls in _INLINED:
            return _INLINED[cls]
        bases = [inlined(base) for base in cls.__bases__
                 if issubclass(base, Structure) and base is not Structure]
        namespace = {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
                     "__doc__": cls.__doc__}
        for name, fn in vars(cls).items():
            if (type(fn) is types.FunctionType
                    and _names(fn.__code__) & _INLINED_ACCESSES):
                native = _Native()
                node = native.visit(_source(fn, "a native variant"))
                if native.count:
                    namespace[name] = _bind(_compile(node, fn.__code__), fn, {})
        sub = _INLINED[cls] = type(cls.__name__, (cls, *bases), namespace)
        _INLINED[sub] = sub
        return sub


def _names(code) -> set:
    """Every global or attribute name ``code``, or a code nested in it, uses."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names
