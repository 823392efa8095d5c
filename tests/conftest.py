"""What the test modules share: the time budget of a hostile input, and long words."""

import signal
import time
from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

BUDGET_S = 2.0

# generator words of 0 to 2560 letters: the length is drawn first, since a
# list drawn letter by letter is hardly ever long, then the letters as one
# string of bytes, each byte b the letter b % 3 + 1
long_words = st.integers(0, 2560).flatmap(
    lambda n: st.binary(min_size=n, max_size=n).map(lambda data: [b % 3 + 1 for b in data])
)


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
