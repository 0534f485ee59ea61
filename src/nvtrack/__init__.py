"""Recoverable lock-free data structures on a simulated persistent-memory
runtime, with a crash-injection harness and a benchmark CLI."""

from .runtime import (
    CLEAN,
    Cell,
    CrashPolicy,
    DFLAG,
    EMPTY,
    IFLAG,
    MARK,
    MarkedRef,
    NULL,
    NativeRuntime,
    OpDef,
    SimRuntime,
    TIMEOUT,
    UNSET,
    UpdateWord,
)
from .rlist import BaselineList, RecoverableList
from .rexchanger import Exchanger, TimedExchanger
from .rstack import BaselineStack, EliminationStack
from .rbst import BaselineBst, RecoverableBst

__all__ = [
    "BaselineBst",
    "BaselineList",
    "BaselineStack",
    "CLEAN",
    "Cell",
    "CrashPolicy",
    "DFLAG",
    "EMPTY",
    "EliminationStack",
    "Exchanger",
    "IFLAG",
    "MARK",
    "MarkedRef",
    "NULL",
    "NativeRuntime",
    "OpDef",
    "RecoverableBst",
    "RecoverableList",
    "SimRuntime",
    "TIMEOUT",
    "TimedExchanger",
    "UNSET",
    "UpdateWord",
]
