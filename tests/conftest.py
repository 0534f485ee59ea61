"""Shared fixtures."""

import sys
import threading

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
