"""Shared-memory substrate with two persistence-aware backends.

Every structure in this library is written against one small memory API:
``read`` / ``write`` / ``cas`` / ``cas_fetch`` / ``flush`` over :class:`Cell`
objects, plus two durable cells per process: its checkpoint ``m.cp[pid]``
and its recovery-data reference ``m.rd[pid]`` (the paper's CP_p and RD_p).
Two backends implement the API:

* :class:`NativeRuntime` -- plain objects and real threads, no crash
  injection, every CAS under one lock; used by the benchmark CLI.  Its
  ``read``, ``write`` and ``flush`` only move a cell's values, so a
  structure built on it runs a native variant of its methods (see
  :class:`Structure` and ``derive.inlined``) that does the same to the cell
  without the call; ``cas`` and ``cas_fetch`` stay calls.  The methods
  remain for subclasses and direct callers: a subclass that overrides any
  of the three opts out, and its structures call every access.
* :class:`SimRuntime` -- a cooperative single-stepping backend where every
  shared-cell access is a scheduling point.  Each logical process is a
  generator (see ``derive``) run on the caller's thread; a deterministic
  driver (see ``harness``) interleaves them step by step and injects
  whole-system crashes.  A crash wipes every process's local state: each
  unfinished process restarts on a fresh generator, in its failed
  operation's recovery function if it had one in flight.  A recovery
  returns the response its tracking proves, or ``REINVOKE`` to have the
  runtime run the operation again from scratch.  Every operation and
  recovery runs, and records its history events, through one method, and
  every crash fires through another; both driving modes run a process's
  operations through one loop.  A run can be saved between steps, crashed
  and restored, so one crash-free run can serve as the common prefix of many
  crash runs.  The runtime records a run's history and nothing finer: a
  subclass that overrides the memory API sees every access (the tests'
  step log, ``tests/traces.py``, is one).

Volatile-cache simulation keeps two values per cell: ``v`` (the cached value)
and ``p`` (the persisted one).  One rule decides persistence: a write reaches
``p`` only when its cell is flushed, or at once if the cell is durable.  A
crash reverts each unflushed cell to its persisted value, unless the write
survives, which it does with the runtime's ``survival`` probability (0 by
default: every unflushed write is lost).  The one assumption kept is that
allocation is persistent: a cell's initial value, given to ``new_cell``, is
already its persisted value.

A cell holds one word.  A list link word, :class:`MarkedRef`, is a slotted
value class and not a tuple: a traversal reads its ``ref`` and ``marked`` at
every hop, and CPython reads a ``__slots__`` field faster than a namedtuple
field, and builds a slotted object faster too.  Words compare by content, so
a CAS's expected word may be freshly built, and are never mutated, since
every cell that holds a word shares the object.

History events (:class:`Invoke`, :class:`Response` and the rest) are slotted
dataclasses, not frozen ones: a frozen dataclass's ``__init__`` stores each
field through ``object.__setattr__``, which makes an event about three times
dearer to build, and every operation a run executes records at least two.
They keep field-wise equality, hashing and ``repr``.  They are values all the
same, and no code mutates one: :meth:`SimRuntime.save` and
:meth:`SimRuntime.restore` copy the history list but not its events, so the
histories of a crash-free run and of every run branched off it share them.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence

from . import derive


# ---------------------------------------------------------------------------
# Sentinels and composite words
# ---------------------------------------------------------------------------

class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: A field that has not been written yet (distinct from every payload).
UNSET = _Sentinel("UNSET")
#: What a recovery returns to have its operation run again from scratch.
REINVOKE = _Sentinel("REINVOKE")
#: The exchange value a pop passes through the elimination layer.
NULL = _Sentinel("NULL")
#: Response of a pop that observed an empty stack.
EMPTY = _Sentinel("EMPTY")
#: Response of a timed exchange that found no partner.
TIMEOUT = _Sentinel("TIMEOUT")


class MarkedRef:
    """A node reference and a logical-deletion bit, CAS-able as one unit.

    A slotted value, not a tuple (see the module docstring): words with the
    same ``ref`` and ``marked`` are equal and hash alike, and nothing writes
    a word's fields after ``__init__``.  ``settled`` is a class attribute,
    False for every plain word; a subclass may make it a field (the
    list-flush's ``PersistedRef``), so a traversal tests one field per hop.
    """

    __slots__ = ("ref", "marked")
    settled = False

    def __init__(self, ref: Any, marked: bool) -> None:
        self.ref = ref
        self.marked = marked

    def __eq__(self, other: object) -> Any:
        if not isinstance(other, MarkedRef):
            return NotImplemented
        return ((self.ref is other.ref or self.ref == other.ref)
                and self.marked == other.marked)

    def __hash__(self) -> int:
        return hash((self.ref, self.marked))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(ref={self.ref!r}, marked={self.marked!r})"


class UpdateWord(NamedTuple):
    """A 2-bit coordination state and an operation-record reference, one word.

    It stays a NamedTuple: the BST reads no word field per tree level, so a
    slotted class would buy its traversals nothing."""

    state: int
    info: Any


CLEAN, IFLAG, DFLAG, MARK = 0, 1, 2, 3


class Cell:
    """One word of shared memory with a cached and a persisted value."""

    __slots__ = ("v", "p", "durable")

    def __init__(self, value: Any, durable: bool) -> None:
        self.v = value
        self.p = value
        self.durable = durable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell(v={self.v!r}, p={self.p!r})"


class InfoRecord:
    """Base for per-operation recovery records reachable through ``rd``.

    Subclasses carry a ``result`` cell holding the operation's response once
    it is decided; recovery and the strict-recoverability checker rely on it.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Operation descriptors and history events
# ---------------------------------------------------------------------------

def reinvoke(obj: Any, pid: int, *args: Any) -> Any:
    """The recovery of an operation with no effect to track: run it again."""
    return REINVOKE


@dataclass(frozen=True)
class OpDef:
    """A named operation with its recovery function.

    A recovery returns the response its tracking proves, or ``REINVOKE``;
    the runtime then resets the checkpoint and runs ``call`` again from
    scratch, and that run's response is the recovery's."""

    name: str
    call: Callable[..., Any]          # (obj, pid, *args) -> response
    recover: Callable[..., Any] = reinvoke   # (obj, pid, *args) -> response
    is_update: bool = True


@dataclass(slots=True, unsafe_hash=True)
class Invoke:
    t: int
    pid: int
    op: str
    args: tuple


@dataclass(slots=True, unsafe_hash=True)
class Response:
    t: int
    pid: int
    op: str
    value: Any
    persisted: Any = UNSET


@dataclass(slots=True, unsafe_hash=True)
class CrashEvent:
    t: int


@dataclass(slots=True, unsafe_hash=True)
class RecoverBegin:
    t: int
    pid: int
    op: str


@dataclass(slots=True, unsafe_hash=True)
class RecoverResponse:
    t: int
    pid: int
    op: str
    value: Any
    persisted: Any = UNSET


@dataclass(slots=True, unsafe_hash=True)
class Abandoned:
    """Operation gave up after exhausting its step budget (inconclusive)."""

    t: int
    pid: int
    op: str


# ---------------------------------------------------------------------------
# Native backend
# ---------------------------------------------------------------------------

class NativeRuntime:
    """Real-thread backend: plain reads/writes, CAS under one lock, no crashes.

    Under the GIL more locks buy no parallelism, so every CAS takes the same
    one; ``cas`` and ``cas_fetch`` compare before they take it and swap
    under it.  ``flush`` emulates a cache-line writeback by copying the
    cached value to the persisted slot.
    """

    def __init__(self, nprocs: int, *, seed: int = 0) -> None:
        self.nprocs = nprocs
        self.cp = [Cell(0, True) for _ in range(nprocs)]
        self.rd = [Cell(UNSET, True) for _ in range(nprocs)]
        self._lock = threading.Lock()

    # -- memory API ---------------------------------------------------------

    def new_cell(self, value: Any) -> Cell:
        return Cell(value, True)

    def read(self, pid: int, cell: Cell) -> Any:
        return cell.v

    def write(self, pid: int, cell: Cell, value: Any) -> None:
        cell.v = value

    def cas(self, pid: int, cell: Cell, expected: Any, new: Any,
            note: Optional[str] = None) -> bool:
        # ``with``, not acquire()/release(): an eval-breaker check follows the
        # acquire() call, so a thread could be switched out holding the lock,
        # which collapsed 8-thread throughput in a trial.  The comparison runs
        # before the lock for the same reason: a ``MarkedRef``'s ``__eq__`` is
        # a Python call, where the interpreter may switch threads.  Values are
        # never mutated, so the swap needs only that the cell still holds the
        # object compared; a failed comparison takes effect at its read.  The
        # identity test spares the call when ``expected`` is the word read.
        while True:
            old = cell.v
            if old is not expected and old != expected:
                return False
            with self._lock:
                if cell.v is old:
                    cell.v = new
                    return True

    def cas_fetch(self, pid: int, cell: Cell, expected: Any, new: Any) -> Any:
        # as ``cas``: compare outside the lock, swap only the object compared
        while True:
            old = cell.v
            if old is not expected and old != expected:
                return old
            with self._lock:
                if cell.v is old:
                    cell.v = new
                    return old

    def flush(self, pid: int, cell: Cell) -> None:
        cell.p = cell.v

    def invoke_reset(self, pid: int) -> None:
        cp = self.cp[pid]
        cp.v = cp.p = 0

    def now(self) -> int:
        return time.monotonic_ns()

    default_exchange_wait = 30_000          # nanoseconds


class Structure:
    """The root of every structure class, which picks how its code runs.

    A structure built on a runtime whose class keeps ``NativeRuntime``'s own
    ``read``, ``write`` and ``flush`` is an instance of the class's native
    variant, ``derive.inlined(cls)``: its methods do what those three do to
    the cell in place of calling them.  On any other runtime (``SimRuntime``,
    or a subclass that overrides one of the three to observe it) it is an
    instance of the class itself, so every access reaches the runtime.
    """

    def __new__(cls, m, *args, **kwargs):
        rt = type(m)
        if (rt.read is NativeRuntime.read and rt.write is NativeRuntime.write
                and rt.flush is NativeRuntime.flush):
            cls = derive.inlined(cls)
        return object.__new__(cls)


# ---------------------------------------------------------------------------
# Simulated backend
# ---------------------------------------------------------------------------

class CrashUnwind(Exception):
    """Raised at a scheduling gate to abort the in-flight operation."""


class StepBudgetExceeded(Exception):
    """The current operation attempt used more steps than its budget."""


# Where a process stopped: derived code yields _GATE (None) at a scheduling
# point, and ``SimRuntime._park`` yields _START before an operation.
_GATE, _START, _DONE = None, "start", "done"


class SimRuntime:
    """Deterministic cooperative backend with crash injection.

    Every operation and recovery runs through :meth:`_run_op`, every
    process's operation sequence through :meth:`_run_ops`, and every crash
    through :meth:`crash`, in both driving modes:

    * *direct*: operations run synchronously on the calling thread
      (single-process workloads; optional planned crash steps).
    * *process*: one generator per process (the twin :mod:`derive` makes of
      :meth:`_run_ops`), advanced one shared-cell access at a time via
      :meth:`grant_step`, with :meth:`crash` available between steps; a
      crash restarts each unfinished process on a fresh generator, in
      recovery if it was inside an operation.  All of it runs on the
      calling thread.  An exception an operation raises ends its process
      and propagates out of the call that resumed it.  Between steps a run
      can also be saved (:meth:`save`), crashed, and restored.
    """

    def __init__(self, nprocs: int, *, cache: str = "durable",
                 survival: float = 0.0, seed: int = 0,
                 step_budget: int = 10_000) -> None:
        if cache not in ("durable", "volatile"):
            raise ValueError(f"unknown cache mode: {cache}")
        self.nprocs = nprocs
        self.survival = survival               # P(an unflushed write survives)
        self.step_budget = step_budget
        self.steps = 0
        self.obj: Any = None
        self.history: list = []
        self._record = True
        self.cp = [Cell(0, True) for _ in range(nprocs)]
        self.rd = [Cell(UNSET, True) for _ in range(nprocs)]
        self._cells = self.cp + self.rd        # every cell of its memory
        self._durable = cache == "durable"     # every new cell's mode
        self._seed = seed
        self._rng: Optional[random.Random] = None   # made at its first draw
        self._op_steps = [0] * nprocs
        self._crash_plan: list[int] = []
        self._workload: list = []      # each process's operations
        self._procs: list = []         # one generator per process
        self._at: list = []            # where each process stopped
        self._op_index: list = []      # the operation each process is at
        self.live: set = set()         # pids whose process has not finished
        self._granted: Optional[int] = None   # pid let through its gate

    # -- configuration ------------------------------------------------------

    def bind(self, obj: Any) -> Any:
        self.obj = obj
        return obj

    def now(self) -> int:
        return self.steps

    default_exchange_wait = 48              # logical steps

    # -- cells --------------------------------------------------------------

    # ``durable`` and ``owner`` are unused: nvbench's CountingSim forwards them.
    def new_cell(self, value: Any, *, durable: Optional[bool] = None,
                 owner: Optional[int] = None) -> Cell:
        cell = Cell(value, self._durable)
        self._cells.append(cell)
        return cell

    def _gate(self, pid: int) -> None:
        if self._procs:
            if self._granted != pid:
                raise RuntimeError(f"process {pid} made a shared-cell access "
                                   "with no scheduling point before it")
            self._granted = None
        elif self._crash_plan and self.steps == self._crash_plan[0]:
            self._crash_plan.pop(0)
            self.crash()
            raise CrashUnwind()
        self._op_steps[pid] += 1
        if self._op_steps[pid] > self.step_budget:
            raise StepBudgetExceeded()
        self.steps += 1

    def read(self, pid: int, cell: Cell) -> Any:
        self._gate(pid)
        return cell.v

    def write(self, pid: int, cell: Cell, value: Any) -> None:
        self._gate(pid)
        cell.v = value
        if cell.durable:
            cell.p = value

    def cas(self, pid: int, cell: Cell, expected: Any, new: Any,
            note: Optional[str] = None) -> bool:
        self._gate(pid)
        ok = cell.v == expected
        if ok:
            cell.v = new
            if cell.durable:
                cell.p = new
        return ok

    def cas_fetch(self, pid: int, cell: Cell, expected: Any, new: Any) -> Any:
        self._gate(pid)
        old = cell.v
        if old == expected:
            cell.v = new
            if cell.durable:
                cell.p = new
        return old

    def flush(self, pid: int, cell: Cell) -> None:
        self._gate(pid)
        cell.p = cell.v

    def invoke_reset(self, pid: int) -> None:
        # The runtime resets the checkpoint atomically with invocation; it is
        # not itself a crash point (a crash before the first real shared
        # access then re-invokes cleanly through CP == 0).
        cp = self.cp[pid]
        cp.v = cp.p = 0

    # -- crash semantics ----------------------------------------------------

    def crash(self, survival: Optional[float] = None) -> None:
        """Whole-system crash: every process loses its local state, and each
        unflushed write is lost unless it survives (``survival``, if given,
        replaces the runtime's probability for this crash only).

        In process mode every unfinished process restarts on a fresh process
        generator at the operation it was at, in pid order once the cells
        are reverted: one paused inside an operation goes straight into that
        operation's recovery and pauses at its first gate, and one parked
        before an operation parks there again.  The crash runs on copies of
        the process table and of the lists :meth:`save` keeps by reference,
        so a run saved before it can be restored.  Starting a recovery takes
        no step, and no recovery allocates a cell before its first
        shared-cell access, so no other order could change the history
        beyond the order of the ``RecoverBegin`` events, which all carry the
        crash's ``t``."""
        if survival is None:
            survival = self.survival
        crashed = ()
        if self._procs:
            run_ops = derive.twin(self._run_ops)
            self._op_index = self._op_index[:]
            self.live = set(self.live)
            self._procs = procs = self._procs[:]
            self._at = at = self._at[:]
            crashed = {pid for pid in self.live if at[pid] is _GATE}
            # Every generator is replaced before any recovery runs: a recovery
            # that raises ends the run, whose close must then reach only new
            # generators, not the paused ones a saved run still holds.
            for pid in self.live:
                procs[pid] = run_ops(pid, self._workload[pid], self._park,
                                     self._op_index[pid], pid in crashed)
        if self._record:
            self.history.append(CrashEvent(self.steps))
        if survival and self._rng is None:
            self._rng = random.Random(self._seed)
        if not self._durable:   # CP and RD are durable: only new cells revert
            for cell in self._cells:
                if cell.v is not cell.p and cell.v != cell.p:
                    if survival and self._rng.random() < survival:
                        cell.p = cell.v
                    else:
                        cell.v = cell.p
        for pid in sorted(self.live):
            if pid in crashed:
                self.dispatch_recovery(pid)
            else:
                self._advance(pid)

    # -- branching off a run ------------------------------------------------

    def save(self) -> tuple:
        """Everything a run can change from here on, for :meth:`restore`.

        A run's simulated state is its cells plus its processes' frames: no
        structure keeps state outside cells, and each process's locals live
        in its generator.  Between steps in process mode, or between
        operations in direct mode.  Values are copied: the list of cells and
        every cell's ``v``/``p``, the history, the per-operation step counts,
        the step count and the crash rng's state.  The process table and the
        other per-process lists are kept by reference, since :meth:`crash`
        leaves them untouched."""
        cells = self._cells[:]
        return (self.steps, None if self._rng is None else self._rng.getstate(),
                cells, [c.v for c in cells], [c.p for c in cells], self.history[:],
                self._op_steps[:], self._op_index, self._procs, self._at, self.live)

    def restore(self, saved: tuple) -> None:
        """Put the run back as :meth:`save` found it, so its paused
        processes can go on; processes started since must be closed first.
        The cells and history are restored by value, so saved direct-mode
        runs can be restored any number of times, in any order."""
        (self.steps, rng, cells, vs, ps, history, op_steps,
         self._op_index, self._procs, self._at, self.live) = saved
        if rng is None:
            self._rng = None
        else:                  # an earlier restore may have dropped the rng
            if self._rng is None:
                self._rng = random.Random()
            self._rng.setstate(rng)
        for cell, v, p in zip(cells, vs, ps):
            cell.v, cell.p = v, p
        self._cells = cells[:]
        self.history = history[:]
        self._op_steps = op_steps[:]
        self._granted = None

    # -- operations ---------------------------------------------------------

    def _run_op(self, pid: int, opdef: OpDef, args: tuple, recovering: bool) -> Any:
        """Run one call (or, if ``recovering``, one recovery) of ``opdef``
        and record its events.  A recovery that returns ``REINVOKE`` has the
        call run again from scratch, within the same step budget.
        CrashUnwind propagates unrecorded; StepBudgetExceeded is recorded as
        ``Abandoned`` and re-raised."""
        self._op_steps[pid] = 0
        if self._record:
            self.history.append(RecoverBegin(self.steps, pid, opdef.name) if recovering
                                else Invoke(self.steps, pid, opdef.name, args))
        if not recovering:
            self.invoke_reset(pid)
        try:
            resp = (opdef.recover if recovering else opdef.call)(self.obj, pid, *args)
            if resp is REINVOKE:
                self.invoke_reset(pid)
                resp = opdef.call(self.obj, pid, *args)
        except StepBudgetExceeded:
            if self._record:
                self.history.append(Abandoned(self.steps, pid, opdef.name))
            raise
        if self._record:       # the persisted result, as strict recoverability reads it
            rd = self.rd[pid].p
            snap = (rd.result.p if opdef.is_update and isinstance(rd, InfoRecord)
                    else UNSET)
            if recovering:
                self.history.append(
                    RecoverResponse(self.steps, pid, opdef.name, resp, snap))
            else:
                self.history.append(Response(self.steps, pid, opdef.name, resp, snap))
        return resp

    def _run_ops(self, pid: int, ops: Sequence[tuple[OpDef, tuple]],
                 wait: Optional[Callable[[int, int], None]] = None,
                 start: int = 0, recovering: bool = False) -> bool:
        """Run ``ops`` in order from index ``start`` (first recovering it, if
        ``recovering``), recovering a failed operation until it completes.
        ``wait``, if given, is called before each operation's first attempt
        with the pid and the operation's index.  Returns False once an
        operation exhausts its step budget."""
        for i in range(start, len(ops)):
            opdef, args = ops[i]
            if wait is not None and not recovering:
                wait(pid, i)
            while True:
                try:
                    self._run_op(pid, opdef, args, recovering)
                    break
                except CrashUnwind:
                    recovering = True
                except StepBudgetExceeded:
                    return False
            recovering = False
        return True

    # -- direct driving -----------------------------------------------------

    def invoke(self, pid: int, opdef: OpDef, args: tuple = ()) -> Any:
        """Run one operation synchronously (direct mode, no planned crash)."""
        if self._procs:
            raise RuntimeError("invoke() is only available before start_workers()")
        return self._run_op(pid, opdef, args, False)

    def run_ops_direct(self, pid: int, ops: Sequence[tuple[OpDef, tuple]],
                       crash_steps: Sequence[int] = (), *, start: int = 0,
                       wait: Optional[Callable[[int, int], None]] = None) -> bool:
        """Run a single-process workload with crashes planned at step indices.

        A crash planned at index ``c`` fires after ``c`` shared-cell accesses
        have executed; the failed operation is then recovered (repeatedly, if
        further crashes land inside recovery) before the workload continues.
        An index below the current step count has passed and never fires.
        The run starts at operation ``start``; ``wait`` is ``_run_ops``'s.
        Returns False if an operation exhausted its step budget.
        """
        if self._procs:
            raise RuntimeError("direct runs are unavailable after start_workers()")
        self._crash_plan = sorted(c for c in crash_steps if c >= self.steps)
        return self._run_ops(pid, ops, wait, start)

    def record(self, on: bool) -> None:
        self._record = on

    # -- process driving ----------------------------------------------------

    def start_workers(self, workload: dict[int, list[tuple[OpDef, tuple]]]) -> None:
        """Create one process per pid; each parks before its first operation."""
        if self._procs:
            raise RuntimeError("workers already started")
        run_ops = derive.twin(self._run_ops)
        self._workload = [workload.get(pid, ()) for pid in range(self.nprocs)]
        self._procs = [run_ops(pid, ops, self._park)
                       for pid, ops in enumerate(self._workload)]
        self._at = [_DONE] * self.nprocs
        self._op_index = [0] * self.nprocs
        self.live = set(range(self.nprocs))
        for pid in range(self.nprocs):
            self._advance(pid)

    def _park(self, pid: int, i: int):
        """A process's ``wait``: it parks before each operation."""
        self._op_index[pid] = i
        yield _START

    def _advance(self, pid: int) -> None:
        """Run ``pid`` to its next yield; a process that finishes leaves
        ``live``.  An exception its operation raises ends the process (it
        stays ``_DONE``) and propagates."""
        at = self._at
        at[pid] = _DONE
        try:
            at[pid] = next(self._procs[pid])
        except StopIteration:
            self.live.discard(pid)

    def grant_step(self, pid: int) -> bool:
        """Let ``pid`` perform its next shared-cell access. True if it did."""
        at = self._at
        if at[pid] is _START:                # start its next operation
            self._advance(pid)
        if at[pid] is not _GATE:
            return False
        self._granted = pid
        self._advance(pid)
        if self._granted is not None:
            raise RuntimeError(f"process {pid} passed a scheduling point "
                               "without a shared-cell access")
        return True

    def dispatch_recovery(self, pid: int) -> None:
        """Start a crashed process's recovery; it runs to its first gate."""
        self._advance(pid)

    def close(self) -> None:
        """Close every process (one paused mid-operation unwinds from its
        yield); the runtime is back in direct mode."""
        for proc in self._procs:
            proc.close()
        self._procs, self._at, self._granted = [], [], None
        self.live.clear()


derive.TWINS[SimRuntime._park] = SimRuntime._park   # already a generator
