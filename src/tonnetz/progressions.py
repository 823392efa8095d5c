"""Chord progressions on the Tonnetz surface.

Ties the group machinery to chord symbols: parsimonious PLR moves and
shortest PLR words, the hexagon cycles around each kind of vertex, the
orbit cycles of rotations and translations, the three stripe systems,
and a progression analyzer that places a chord sequence on the lattice.

A PLR move flips a triangle across one of its edges, keeping two common
tones: P across the fifth edge, L across the minor-third edge, R across
the major-third edge.  Flip words act on triangles, not on the lattice;
unlike group elements they drift, so applying a fixed word to nearby
chords can tear them apart.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .core import _make_element as _make, from_word, greedy_walk, walk_table
from .lattice import (
    Edge,
    Triangle,
    Vertex,
    _check_lattice_triangle,
    class_vertex,
    flip,
    perm_of,
    translation_shift,
    triangle_of,
    vertex_class,
    wall_flip,
)
from .pitch import (
    _MEMO_INT_BOUND,
    _MEMO_SYMBOL_LENGTH,
    ChordName,
    NoteName,
    name_triangle,
    parse_chord,
    spell_vertex,
)

PLR_EDGES = {
    "P": Edge.FIFTH,
    "L": Edge.MINOR_THIRD,
    "R": Edge.MAJOR_THIRD,
}


def apply_move(t: Triangle, letter: str) -> Triangle:
    """One parsimonious move: P, L or R."""
    try:
        edge = PLR_EDGES[letter]
    except KeyError:
        raise ValueError(f"PLR move must be P, L or R, got {letter!r}") from None
    return flip(t, edge)


def apply_plr(t: Triangle, word: str) -> Triangle:
    """Apply a PLR word, rightmost letter first.

    >>> from .lattice import BASE_TRIANGLE, format_triangle
    >>> format_triangle(apply_plr(BASE_TRIANGLE, "RL"))
    'U(1,0)'
    """
    _check_lattice_triangle(t)
    for letter in reversed(word):
        t = apply_move(t, letter)
    return t


# plr_path's moves from each orientation, in the order tried: the letter, the
# strip offset past goal's that it moves, the sign that makes the move come
# closer (from up, P lowers q', L raises p + q, R lowers p), the next orientation
_PLR_MOVES = {
    True: (("P", 1, 1, False), ("L", 2, -1, False), ("R", 0, 1, False)),
    False: (("P", 1, -1, True), ("L", 2, 1, True), ("R", 0, -1, True)),
}
_PLR_WALK = walk_table(_PLR_MOVES)


def plr_path(start: Triangle, goal: Triangle) -> str:
    """A shortest PLR word taking start to goal, rightmost letter first.

    Walks from start, each step taking the first of P, L, R that brings
    the triangle closer to goal.  Of all shortest words this is the
    least when moves are compared in the order they are applied, with
    P < L < R.  Its length is the gallery distance.  This is greedy_walk
    on the strip offsets past goal's, with the orientation as its state.
    Paths of at most 64 flips with the same offsets share one word.

    >>> from .lattice import BASE_TRIANGLE
    >>> plr_path(BASE_TRIANGLE, Triangle((1, 0), up=True))
    'RL'
    """
    offsets = _strip_offsets(start, goal)
    _, up = start
    if abs(offsets[0]) + abs(offsets[1]) + abs(offsets[2]) > 64:
        return _plr_word.__wrapped__(offsets, up)
    return _plr_word(offsets, up)


# a progression repeats its chord pairs, so plr_path keeps 256 short words
@lru_cache(maxsize=256)
def _plr_word(offsets: tuple[int, int, int], up: bool) -> str:
    return "".join(greedy_walk(_PLR_WALK, offsets, up))[::-1]


def triangle_distance(t1: Triangle, t2: Triangle) -> int:
    """Gallery distance: the number of grid lines separating the triangles.

    The lines of each direction cut the plane into strips, and each flip
    crosses one line.  A triangle lies in strips p, q' and p + q, where
    q' = q for up and q - 1 for down triangles.

    >>> triangle_distance(Triangle((0, 0), up=True), Triangle((1, 0), up=True))
    2
    """
    dp, dq, ds = _strip_offsets(t1, t2)
    return abs(dp) + abs(dq) + abs(ds)


def _strip_offsets(t1: Triangle, t2: Triangle) -> tuple[int, int, int]:
    """t1's strips p, q' and p + q minus t2's (see triangle_distance), both checked first."""
    # each triangle is unpacked once and its parts tested here; the lattice
    # check runs only to refuse one, t1 first, in its own words
    try:
        (p1, q1), up1 = t1
        (p2, q2), up2 = t2
        on_lattice = (
            isinstance(p1, int) and isinstance(q1, int) and isinstance(up1, bool)
            and isinstance(p2, int) and isinstance(q2, int) and isinstance(up2, bool)
        )
    except (TypeError, ValueError):
        on_lattice = False
    if not on_lattice:
        _check_lattice_triangle(t1)
        _check_lattice_triangle(t2)
    return p1 - p2, (q1 - (not up1)) - (q2 - (not up2)), p1 + q1 - p2 - q2


# --- hexagon cycles ----------------------------------------------------------

# the walls through a class-c vertex, as generator indices in the order crossed:
# those opposite its class c + 1 and c + 2 vertices, s_i's being opposite 3 - i
_VERTEX_WALLS = ((2, 1), (1, 3), (3, 2))


class HexagonCycle(NamedTuple):
    """Six triangles around one vertex, all sharing that tone."""

    center: Vertex
    common_tone: NoteName
    triangles: tuple[Triangle, ...]
    chords: tuple[ChordName, ...]


def vertex_cycle(t: Triangle, v: Vertex) -> HexagonCycle:
    """The six triangles around a vertex of t, starting at t.

    These are the triangles of f, f*s_i, f*s_i*s_j, ... for the element f
    of t, where s_i and s_j are the two reflections in walls through v.
    The walk turns counterclockwise round v from an up triangle and
    clockwise from a down one.

    >>> from .lattice import BASE_TRIANGLE
    >>> from .pitch import format_chord
    >>> cyc = vertex_cycle(BASE_TRIANGLE, (0, 1))
    >>> [format_chord(c) for c in cyc.chords]
    ['C', 'Em', 'E', 'C#m', 'A', 'Am']
    """
    _check_lattice_triangle(t)
    x, y = v
    if not (isinstance(x, int) and isinstance(y, int)) or (x, y) not in Triangle.vertices(t):
        raise ValueError(f"{v} is not a vertex of {t}")
    i, j = _VERTEX_WALLS[vertex_class(v)]
    cycle = [t]
    for wall in (i, j, i, j, i):
        cycle.append(wall_flip(cycle[-1], wall))
    return HexagonCycle(
        center=v,
        common_tone=spell_vertex(v),
        triangles=tuple(cycle),
        chords=tuple(map(name_triangle, cycle)),
    )


def hexagon_cycle(t: Triangle) -> HexagonCycle:
    """The cycle around t's class-2 vertex, the center of its tiling hexagon.

    Repeated calls with a root below 2**63 in magnitude share one answer, an
    immutable named tuple.
    """
    # t is unpacked once and its parts tested here, as in _strip_offsets
    try:
        (p, q), up = t
        on_lattice = isinstance(p, int) and isinstance(q, int) and isinstance(up, bool)
    except (TypeError, ValueError):
        on_lattice = False
    if not on_lattice:
        _check_lattice_triangle(t)
    if -_MEMO_INT_BOUND < p < _MEMO_INT_BOUND and -_MEMO_INT_BOUND < q < _MEMO_INT_BOUND:
        return _hexagon_cycle(p, q, up)
    return _hexagon_cycle.__wrapped__(p, q, up)


# a progression repeats its chords, so hexagon_cycle keeps its last 256
# answers, each about 2.2 kB.  The answer depends on the types of p and q as
# well as their values (a root of (0, True) spells comma True), so typed=True.
# Only lattice triangles get here, and none whose root reaches 2**63 in
# magnitude, which the memo would keep alive.
@lru_cache(maxsize=256, typed=True)
def _hexagon_cycle(p: int, q: int, up: bool) -> HexagonCycle:
    t = Triangle((p, q), up)
    return vertex_cycle(t, class_vertex(t, 2))


# --- rotation and translation orbits -----------------------------------------

_ROTATION = from_word((3, 2))  # s3*s2, rotation_cycle's g


def rotation_cycle(t: Triangle) -> list[Triangle]:
    """Orbit of t under the order-3 rotation about the base hexagon center.

    The rotation is g = s3*s2, acting on the whole lattice by left
    multiplication: the orbit is the triangles of f, g*f and g*g*f for t's f.
    """
    f = perm_of(t)
    return [t, triangle_of(_ROTATION * f), triangle_of(_ROTATION * _ROTATION * f)]


def translation_cycle(t: Triangle) -> list[Triangle]:
    """Images of t under t1, then t2*t1, then t3*t2*t1 = identity.

    The three translation generators multiply to the identity, so the
    third chord is the seed again.
    """
    _check_lattice_triangle(t)
    (p, q), up = t
    cycle = []
    for e1, e2 in ((1, 0), (0, 1), (-1, -1)):
        dp, dq = translation_shift(e1, e2)
        p, q = p + dp, q + dq
        cycle.append(Triangle((p, q), up))
    return cycle


# --- stripes ------------------------------------------------------------------


class StripeKind(Enum):
    """The three parsimonious stripe systems."""

    FIFTHS = "fifths"
    HEXATONIC = "hexatonic"
    OCTATONIC = "octatonic"


# kind -> (root shift over two steps, root offset of the odd members from a
# down seed and from an up seed); odd members have the other orientation
_STRIPES = {
    StripeKind.FIFTHS: ((1, 0), ((1, -1), (0, 1))),
    StripeKind.HEXATONIC: ((0, 1), ((0, 0), (0, 1))),
    StripeKind.OCTATONIC: ((1, -1), ((1, -1), (0, 0))),
}


def stripe(seed: Triangle, kind: StripeKind | str, count: int = 3) -> list[Triangle]:
    """2*count + 1 consecutive triangles of the stripe through seed.

    Positions run from -count to count with the seed in the middle.
    The kind is a StripeKind or its value, such as "fifths"; anything
    else raises ValueError.
    Consecutive stripe members are flip neighbors: fifths stripes
    alternate R and L moves, hexatonic ones P and L, octatonic ones P
    and R.

    >>> from .lattice import BASE_TRIANGLE
    >>> from .pitch import format_chord, name_triangle
    >>> [format_chord(name_triangle(t)) for t in stripe(BASE_TRIANGLE, StripeKind.FIFTHS, 2)]
    ['F', 'Am', 'C', 'Em', 'G']
    """
    _check_lattice_triangle(seed)
    if count < 0:
        raise ValueError("count must be non-negative")
    (dp, dq), offsets = _STRIPES[StripeKind(kind)]
    (p, q), up = seed
    op, oq = offsets[up]
    chain = []
    for k in range(-count, count + 1):
        h, odd = divmod(k, 2)
        chain.append(_make(Triangle, ((p + h * dp + odd * op, q + h * dq + odd * oq), up != odd)))
    return chain


# --- progression analysis ------------------------------------------------------


class ProgressionStep(NamedTuple):
    """One chord of an analyzed progression."""

    symbol: str
    chord: ChordName
    triangle: Triangle
    distance: int
    common_tones: tuple[NoteName, ...]
    shares_hexagon: bool


class ProgressionReport(NamedTuple):
    steps: tuple[ProgressionStep, ...]
    total_distance: int


def _flips_at(u: int, fifths: int, delta: int) -> int:
    """Flips from the previous chord to the instance u comma levels above its root.

    The new root lies fifths steps up the line of fifths from the previous
    one, and delta is the previous orientation less the new one.  One comma
    level up moves a root by (-4, 1), so the instance's strips p, q' and
    p + q (see triangle_distance) lie |4u - fifths|, |u - delta| and
    |3u - fifths| strips from the previous chord's.
    """
    return abs(4 * u - fifths) + abs(u - delta) + abs(3 * u - fifths)


# the table of nearest levels holds |fifths| <= _TABLE_REACH, the steps a
# progression takes; _step ranks the band itself for a farther step
_TABLE_REACH = 16


def _nearest_offsets(fifths: int, delta: int) -> tuple[int, int, int]:
    """(lo, hi, flips): the run of offsets u in -4..4 nearest the previous chord.

    The flips are convex in u, so the offsets at the fewest make one run.
    """
    band = range(-4, 5)
    flips = [_flips_at(u, fifths, delta) for u in band]
    least = min(flips)
    nearest = [u for u, d in zip(band, flips) if d == least]
    return nearest[0], nearest[-1], least


# _nearest_offsets(fifths, delta) is _NEAREST[3 * (fifths + _TABLE_REACH) + 1 + delta]
_NEAREST = tuple(
    _nearest_offsets(fifths, delta)
    for fifths in range(-_TABLE_REACH, _TABLE_REACH + 1)
    for delta in (-1, 0, 1)
)


def _shared_at(up: bool, prev_up: bool, dp: int, dq: int) -> tuple[tuple, tuple[bool, ...]]:
    """What a triangle t of orientation up shares with prev, whose root lies (dp, dq) past t's.

    Returns the shared vertices' names less t's root's, in the order of the
    names, and for each class (p - q) % 3 of t's root (p, q) whether one of
    them is a class-2 vertex.  Spelling is linear and translation moves
    every name alike, so neither depends on where the pair lies.
    """
    around = Triangle((dp, dq), prev_up).vertices()
    shared = [v for v in Triangle((0, 0), up).vertices() if v in around]
    # t's root is the origin, which spells (0, 0), so each name is its offset
    offsets = tuple(sorted(tuple(spell_vertex(v)) for v in shared))
    # a root of class cls moves each vertex's class as the shift (cls, 0) does
    flags = tuple(any(vertex_class((p + cls, q)) == 2 for p, q in shared) for cls in range(3))
    return offsets, flags


# two triangles that share a vertex have roots at most this far apart in p and in q
_SHARE_REACH = 2

# (t.up, prev.up, dp, dq) -> _shared_at(...) for the relative positions that
# share a vertex, with (dp, dq) prev's root less t's; any other shares nothing
_SHARED = {
    (up, prev_up, dp, dq): entry
    for up in (True, False)
    for prev_up in (True, False)
    for dp in range(-_SHARE_REACH, _SHARE_REACH + 1)
    for dq in range(-_SHARE_REACH, _SHARE_REACH + 1)
    if (entry := _shared_at(up, prev_up, dp, dq))[0]
}
_NOTHING_SHARED = ((), (False, False, False))


# a progression repeats its (chord, previous chord) pairs, so analyze keeps
# its last 1024 later steps, each about 0.6 kB.  A step depends on its symbol
# and the previous triangle only: default_comma places the first chord alone,
# and parsing the first chord has already refused any default_comma that
# parse_chord refuses.  typed=True keeps a previous root of (0, True) apart
# from (0, 1), as in _hexagon_cycle; a refused symbol is not kept, and neither
# is a symbol of more than 64 characters or a root that reaches 2**63 in
# magnitude.
@lru_cache(maxsize=1024, typed=True)
def _step(symbol: str, prev_p: int, prev_q: int, prev_up: bool) -> ProgressionStep:
    """The step to the instance of symbol nearest the triangle ((prev_p, prev_q), prev_up).

    Explicit [q=n] annotations are honored; otherwise comma levels within
    four of the previous root's level compete, ranked by gallery distance,
    then by |q|, then by q.
    """
    chord, t = parse_chord(symbol)
    if "[q=" in symbol:
        distance = triangle_distance(_make(Triangle, ((prev_p, prev_q), prev_up)), t)
    else:
        # the nearest offsets from prev's level depend only on fifths and
        # delta (see _flips_at); of their levels, the one of least |q|, then
        # least q, is 0 clamped into the run
        fifth_index = chord.root.fifth_index
        fifths = fifth_index - prev_p - 4 * prev_q
        delta = prev_up - t.up
        if -_TABLE_REACH <= fifths <= _TABLE_REACH:
            lo, hi, distance = _NEAREST[3 * (fifths + _TABLE_REACH) + 1 + delta]
        else:
            lo, hi, distance = _nearest_offsets(fifths, delta)
        lo += prev_q
        hi += prev_q
        comma = lo if lo > 0 else hi if hi < 0 else 0
        chord = _make(ChordName, (_make(NoteName, (fifth_index, comma)), chord.minor))
        t = _make(Triangle, ((fifth_index - 4 * comma, comma), t.up))
    # what t shares with prev moves with the pair, so it is read off their
    # relative position and t's root class
    (p, q), up = t
    offsets, flags = _SHARED.get((up, prev_up, prev_p - p, prev_q - q), _NOTHING_SHARED)
    f = p + 4 * q
    common = tuple([_make(NoteName, (f + df, q + dc)) for df, dc in offsets])
    return _make(ProgressionStep, (symbol.strip(), chord, t, distance, common, flags[(p - q) % 3]))


def analyze(symbols: list[str], default_comma: int | None = None) -> ProgressionReport:
    """Place a chord sequence on the lattice, one instance per symbol.

    The first chord parses at its default position; each later chord
    takes the nearest instance in the contextual comma band.  Every step
    reports the flip distance from the previous chord, their common
    tones, and whether the two chords sit in the same tiling hexagon
    (share a class-2 vertex).  Repeated later steps of a symbol of at most
    64 characters from a root below 2**63 in magnitude share one
    immutable named tuple.
    """
    if not symbols:
        raise ValueError("progression needs at least one chord")
    steps = []
    total = 0
    prev_triangle = None
    for symbol in symbols:
        if prev_triangle is None:
            chord, t = parse_chord(symbol, default_comma)
            step = _make(ProgressionStep, (symbol.strip(), chord, t, 0, (), False))
        else:
            (p, q), up = prev_triangle
            # anything but a string goes round the memo to parse_chord's refusal
            if (
                isinstance(symbol, str)
                and len(symbol) <= _MEMO_SYMBOL_LENGTH
                and -_MEMO_INT_BOUND < p < _MEMO_INT_BOUND
                and -_MEMO_INT_BOUND < q < _MEMO_INT_BOUND
            ):
                step = _step(symbol, p, q, up)
            else:
                step = _step.__wrapped__(symbol, p, q, up)
        steps.append(step)
        total += step.distance
        prev_triangle = step.triangle
    return _make(ProgressionReport, (tuple(steps), total))
