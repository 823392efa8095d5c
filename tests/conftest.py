"""The time budget of a hostile input, shared by the test modules."""

import signal
import time
from contextlib import contextmanager

import pytest

BUDGET_S = 2.0


@contextmanager
def within_budget():
    """Fail a block that runs BUDGET_S or longer, from inside it if need be.

    The alarm raises in the running call, so unbounded work fails the test
    at the budget instead of hanging the whole run; pytest.fail's exception
    is not one that cli.main catches.
    """

    def overdue(signum, frame):
        pytest.fail(f"still running after {BUDGET_S} s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < BUDGET_S
