"""Shared fixtures."""

import sys
import threading
from collections import Counter

import pytest


@pytest.fixture
def run_threads():
    """``run(n, work)`` calls ``work(pid)`` on one real thread per pid in
    ``range(n)``, with the interpreter switching threads every microsecond
    (the old interval is restored), and re-raises the first exception a
    thread raised."""
    def run(n, work):
        errors = []

        def body(pid):
            try:
                work(pid)
            except Exception as exc:       # re-raised once every thread is joined
                errors.append(exc)

        # daemons: a thread that never finishes fails the test, not the run
        threads = [threading.Thread(target=body, args=(pid,), daemon=True)
                   for pid in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a thread did not finish"
        if errors:
            raise errors[0]
    return run


@pytest.fixture
def tracing(monkeypatch):
    """Make the harness run every structure on ``traces.TracingRuntime``,
    so each outcome's ``rt.trace`` holds the run's step trace; returns the
    class, for a test that builds a runtime itself."""
    from nvtrack import harness
    from traces import TracingRuntime

    monkeypatch.setattr(harness, "SimRuntime", TracingRuntime)
    return TracingRuntime


@pytest.fixture
def counting_runtime():
    """A fresh ``SimRuntime`` subclass whose instances all add to the
    class's ``counts``: ``grant_step`` calls ("calls") and the steps they
    granted ("granted"), reads, writes, CAS, flushes and cell allocations."""
    from nvtrack.runtime import SimRuntime

    class CountingRuntime(SimRuntime):
        counts = Counter()

        def grant_step(self, pid):
            ok = super().grant_step(pid)
            self.counts["calls"] += 1
            self.counts["granted"] += ok
            return ok

        def new_cell(self, value, **kw):
            self.counts["cells"] += 1
            return super().new_cell(value, **kw)

        def read(self, pid, cell):
            self.counts["read"] += 1
            return super().read(pid, cell)

        def write(self, pid, cell, value):
            self.counts["write"] += 1
            super().write(pid, cell, value)

        def cas(self, pid, cell, expected, new, note=None):
            self.counts["cas"] += 1
            return super().cas(pid, cell, expected, new, note)

        def flush(self, pid, cell):
            self.counts["flush"] += 1
            super().flush(pid, cell)

    return CountingRuntime
