"""What the test modules share: the time budget of a hostile input, long words,
and the tables of the two input contracts README states once."""

import re
import signal
import sys
import time
import tracemalloc
from contextlib import contextmanager
from typing import Callable, NamedTuple
from unittest import mock

import pytest
from hypothesis import strategies as st

from tonnetz.lattice import BASE_TRIANGLE, Triangle
from tonnetz.pitch import ChordParseError, _parse_chord, parse_chord
from tonnetz.progressions import _hexagon_cycle, _plr_word, _step, analyze, hexagon_cycle, plr_path

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


# --- every entry point that takes a triangle refuses what is not one ----------

# values that are not ((int, int), bool), the old (triangle, "center") highlight among them;
# unchecked, a float root never ends a search, and up = 1, 2 or None is misread
NOT_TRIANGLES = [
    None, "C", 5, ("junk", 5, None), ((0, 0, 0), True), (BASE_TRIANGLE, "center"), ((0, 0),),
    Triangle((0.5, 0), True), Triangle((0, 0), 2), Triangle((0, 0), 1), Triangle((0, 0), None),
]


def refuses_by_name(call, value):
    """call(value) refuses value by name within the budget, also after call(BASE_TRIANGLE) answers."""
    message = f"{value!r} is not a lattice triangle: its root must be integers and up a bool"
    for _ in range(2):
        with within_budget(), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
        call(BASE_TRIANGLE)


# --- every memo keeps README's one policy --------------------------------------


class Memo(NamedTuple):
    """A functools.lru_cache and calls that reach it through its public function."""

    cache: Callable
    maxsize: int
    fill: Callable[[int], object]  # the call of the k-th of distinct keys
    refused: list  # (exception, call) pairs: calls the function refuses, and with what
    bounds: list  # (call, call) pairs: a key at the memo's bound, one just past it
    huge: Callable[[int], bool]  # the call of the k-th of 256 huge keys, true if it answers right
    typed: list = []  # calls whose keys are equal but of different types


HUGE = 10**100_000


def huge_level(k):
    return (HUGE + k) * (-1) ** k


def huge_triangle(k):
    return Triangle((HUGE + k, 0) if k % 2 else (0, -HUGE - k), k % 3 == 0)


def huge_chord(k):
    """Sharps past the symbol bound for odd k, else a level past the int bound."""
    if k % 2:
        return parse_chord("C" + "#" * (100_000 + k))[0].root.fifth_index == 7 * (100_000 + k)
    return parse_chord("C", huge_level(k))[0].root.comma == huge_level(k)


def huge_step(k):
    """Am then C at a huge level: C is one flip on, near the level."""
    step = analyze(["Am", "C"], huge_level(k)).steps[1]
    return step.distance == 1 and abs(step.triangle.root[1] - huge_level(k)) <= 4


MEMOS = {
    "parse_chord": Memo(
        cache=_parse_chord,
        maxsize=256,
        fill=lambda k: parse_chord("C", k),
        refused=[
            (ChordParseError, lambda: parse_chord("C#b")),
            (TypeError, lambda: parse_chord("C", 1.0)),
        ],
        bounds=[
            (lambda: parse_chord("C" + "#" * 63), lambda: parse_chord("C" + "#" * 64)),
            (lambda: parse_chord("C", 2**63 - 1), lambda: parse_chord("C", 2**63)),
            (lambda: parse_chord("C", 1 - 2**63), lambda: parse_chord("C", -(2**63))),
        ],
        huge=huge_chord,
        typed=[lambda: parse_chord("G", 1), lambda: parse_chord("G", True)],
    ),
    "hexagon_cycle": Memo(
        cache=_hexagon_cycle,
        maxsize=256,
        fill=lambda k: hexagon_cycle(Triangle((k, 0), True)),
        refused=[
            (ValueError, lambda: hexagon_cycle(Triangle((0, 0), 1))),
            (ValueError, lambda: hexagon_cycle(None)),
        ],
        bounds=[
            (lambda: hexagon_cycle(Triangle((2**63 - 1, 0), True)),
             lambda: hexagon_cycle(Triangle((2**63, 0), True))),
            (lambda: hexagon_cycle(Triangle((0, 1 - 2**63), False)),
             lambda: hexagon_cycle(Triangle((0, -(2**63)), False))),
        ],
        huge=lambda k: hexagon_cycle(huge_triangle(k)).triangles[0] == huge_triangle(k),
        typed=[
            lambda: hexagon_cycle(Triangle((0, True), True)),
            lambda: hexagon_cycle(Triangle((0, 1), True)),
        ],
    ),
    # F and C at level -2**61 have roots of p = 2**63 - 1 and 2**63, G and C at 2**61 their negatives
    "analyze": Memo(
        cache=_step,
        maxsize=1024,
        fill=lambda k: analyze([f"C[q={k}]", "G"]),
        refused=[
            (ChordParseError, lambda: analyze(["C", "H"])),
            (ChordParseError, lambda: analyze(["C", "Cm7"])),
            (TypeError, lambda: analyze(["C", 5])),
        ],
        bounds=[
            (lambda: analyze(["C", "C" + "#" * 63]), lambda: analyze(["C", "C" + "#" * 64])),
            (lambda: analyze(["F", "G"], -(2**61)), lambda: analyze(["C", "G"], -(2**61))),
            (lambda: analyze(["G", "C"], 2**61), lambda: analyze(["C", "G"], 2**61)),
        ],
        huge=huge_step,
        typed=[lambda: analyze(["Cm", "G"], 1), lambda: analyze(["Cm", "G"], True)],
    ),
    # paths of at most 64 flips: U(32,0) is 64 from the base, D(32,0) 65; U(n,0) is (RL)^n
    "plr_path": Memo(
        cache=_plr_word,
        maxsize=256,
        fill=lambda k: plr_path(BASE_TRIANGLE, Triangle((k // 23 - 11, k % 23 - 11), True)),
        refused=[(ValueError, lambda: plr_path(BASE_TRIANGLE, Triangle((0, 0), 1)))],
        bounds=[
            (lambda: plr_path(BASE_TRIANGLE, Triangle((32, 0), True)),
             lambda: plr_path(BASE_TRIANGLE, Triangle((32, 0), False))),
        ],
        huge=lambda k: plr_path(BASE_TRIANGLE, Triangle((2500 + k, 0), True)) == "RL" * (2500 + k),
    ),
}


def answers_are_the_bodys(memo):
    """Each call misses, then hits, typed keys too, and answers as the body patched in does."""
    calls = [lambda k=k: memo.fill(k) for k in range(3)] + list(memo.typed)
    memo.cache.cache_clear()
    answers = [repr(call()) for call in calls + calls]
    assert memo.cache.cache_info()[:2] == (len(calls), len(calls))
    module = sys.modules[memo.cache.__module__]
    with mock.patch.object(module, memo.cache.__name__, memo.cache.__wrapped__):
        assert [repr(call()) for call in calls + calls] == answers


def keeps_no_refusal(memo):
    memo.cache.cache_clear()
    for k in range(3):
        for refusal, call in memo.refused:
            with pytest.raises(refusal):
                call()
        memo.fill(k)
    assert memo.cache.cache_info().currsize == 3


def is_bounded(memo):
    memo.cache.cache_clear()
    for k in range(2 * memo.maxsize):
        memo.fill(k)
    assert memo.cache.cache_info().currsize == memo.maxsize


def keeps_no_key_past_its_bound(memo):
    for at, past in memo.bounds:
        memo.cache.cache_clear()
        at(), past()
        assert memo.cache.cache_info().currsize == 1
    memo.cache.cache_clear()
    tracemalloc.start()
    try:
        for k in range(256):
            assert memo.huge(k)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20 and memo.cache.cache_info().currsize == 0


MEMO_POLICY = [answers_are_the_bodys, keeps_no_refusal, is_bounded, keeps_no_key_past_its_bound]
