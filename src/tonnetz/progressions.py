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
from typing import NamedTuple

from .core import from_word
from .lattice import (
    T1_VECTOR,
    T2_VECTOR,
    Edge,
    Triangle,
    Vertex,
    _check_lattice_triangle,
    class_vertex,
    flip,
    perm_to_iso,
    vertex_class,
    wall_flip,
)
from .pitch import ChordName, NoteName, chord_triangle, name_triangle, parse_chord, spell_vertex

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
    for letter in reversed(word):
        t = apply_move(t, letter)
    return t


def plr_path(start: Triangle, goal: Triangle) -> str:
    """A shortest PLR word taking start to goal, rightmost letter first.

    Walks from start, each step taking the first of P, L, R that brings
    the triangle closer to goal.  Of all shortest words this is the
    least when moves are compared in the order they are applied, with
    P < L < R.  Its length is the gallery distance.

    >>> from .lattice import BASE_TRIANGLE
    >>> plr_path(BASE_TRIANGLE, Triangle((1, 0), up=True))
    'RL'
    """
    # off the lattice no flip brings the walk closer, so it would never end
    _check_lattice_triangle(start)
    _check_lattice_triangle(goal)
    letters = []
    t, d = start, triangle_distance(start, goal)
    while d:
        for letter in "PLR":
            nb = apply_move(t, letter)
            nd = triangle_distance(nb, goal)
            if nd < d:
                break
        letters.append(letter)
        t, d = nb, nd
    return "".join(reversed(letters))


def triangle_distance(t1: Triangle, t2: Triangle) -> int:
    """Gallery distance: the number of grid lines separating the triangles.

    The lines of each direction cut the plane into strips, and each flip
    crosses one line.  A triangle lies in strips p, q' and p + q, where
    q' = q for up and q - 1 for down triangles.

    >>> triangle_distance(Triangle((0, 0), up=True), Triangle((1, 0), up=True))
    2
    """
    (p1, q1), (p2, q2) = t1.root, t2.root
    dq = (q1 - (not t1.up)) - (q2 - (not t2.up))
    return abs(p1 - p2) + abs(dq) + abs(p1 + q1 - p2 - q2)


# --- hexagon cycles ----------------------------------------------------------

# Walking a triangle's coset of the parabolic subgroup fixing its class-c
# vertex circles that vertex; the pair gives the alternating generators.
PAIR_OF_CLASS = {
    0: (2, 1),
    1: (1, 3),
    2: (3, 2),
}


class HexagonCycle(NamedTuple):
    """Six triangles around one vertex, all sharing that tone."""

    center: Vertex
    common_tone: NoteName
    triangles: tuple[Triangle, ...]
    chords: tuple[ChordName, ...]


def vertex_cycle(t: Triangle, v: Vertex) -> HexagonCycle:
    """The six triangles around a vertex of t, starting at t.

    Each step flips across a wall through v, alternating the generator
    pair of v's class; the triangles are those of f, f*s_i, f*s_i*s_j, ...
    for the element f of t.

    >>> from .lattice import BASE_TRIANGLE
    >>> from .pitch import format_chord
    >>> cyc = vertex_cycle(BASE_TRIANGLE, (0, 1))
    >>> [format_chord(c) for c in cyc.chords]
    ['C', 'Em', 'E', 'C#m', 'A', 'Am']
    """
    if v not in t.vertices():
        raise ValueError(f"{v} is not a vertex of {t}")
    pair = PAIR_OF_CLASS[vertex_class(v)]
    triangles = [t]
    for k in range(5):
        triangles.append(wall_flip(triangles[-1], pair[k % 2]))
    return HexagonCycle(
        center=v,
        common_tone=spell_vertex(v),
        triangles=tuple(triangles),
        chords=tuple(name_triangle(u) for u in triangles),
    )


def hexagon_cycle(t: Triangle) -> HexagonCycle:
    """The cycle around t's class-2 vertex, the center of its tiling hexagon."""
    return vertex_cycle(t, class_vertex(t, 2))


# --- rotation and translation orbits -----------------------------------------


def rotation_cycle(t: Triangle, sense: int = 1) -> list[Triangle]:
    """Orbit of t under the order-3 rotation about the base hexagon center.

    The rotation is s3*s2 (sense >= 0) or s2*s3 (sense < 0), acting on the
    whole lattice by left multiplication.
    """
    word = (3, 2) if sense >= 0 else (2, 3)
    iso = perm_to_iso(from_word(word))
    second = iso.apply_triangle(t)
    return [t, second, iso.apply_triangle(second)]


def translation_cycle(t: Triangle) -> list[Triangle]:
    """Images of t under t1, then t2*t1, then t3*t2*t1 = identity.

    The three translation generators multiply to the identity, so the
    third chord is the seed again.
    """
    (a1, b1), (a2, b2) = T1_VECTOR, T2_VECTOR
    first = _shift(t, a1, b1)
    second = _shift(first, a2, b2)
    third = _shift(second, -a1 - a2, -b1 - b2)
    return [first, second, third]


def _shift(t: Triangle, dp: int, dq: int) -> Triangle:
    return Triangle((t.root[0] + dp, t.root[1] + dq), t.up)


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
    if count < 0:
        raise ValueError("count must be non-negative")
    (dp, dq), offsets = _STRIPES[StripeKind(kind)]
    (p, q), up = seed
    op, oq = offsets[up]
    chain = []
    for k in range(-count, count + 1):
        h, odd = divmod(k, 2)
        chain.append(Triangle((p + h * dp + odd * op, q + h * dq + odd * oq), up != odd))
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


def _resolve(symbol: str, prev: Triangle, default_comma: int | None) -> tuple[ChordName, Triangle]:
    """Pick the instance of the chord nearest to the previous triangle.

    Explicit [q=n] annotations are honored; otherwise comma levels within
    four of the previous root's level compete, ranked by gallery distance,
    then by |q|, then by q.
    """
    chord, t = parse_chord(symbol, default_comma)
    if "[q=" in symbol:
        return chord, t
    # the instance at comma level c is rooted at (fifth - 4c, c), and the
    # previous root's comma level is its q coordinate; only the winner is named
    fifth, up = chord.root.fifth_index, t.up
    prev_comma = prev.root[1]
    _, _, comma = min(
        (triangle_distance(prev, Triangle((fifth - 4 * c, c), up)), abs(c), c)
        for c in range(prev_comma - 4, prev_comma + 5)
    )
    best = ChordName(NoteName(fifth, comma), chord.minor)
    return best, chord_triangle(best)


def analyze(symbols: list[str], default_comma: int | None = None) -> ProgressionReport:
    """Place a chord sequence on the lattice, one instance per symbol.

    The first chord parses at its default position; each later chord
    takes the nearest instance in the contextual comma band.  Every step
    reports the flip distance from the previous chord, their common
    tones, and whether the two chords sit in the same tiling hexagon
    (share a class-2 vertex).
    """
    if not symbols:
        raise ValueError("progression needs at least one chord")
    steps = []
    prev_triangle = None
    for symbol in symbols:
        if prev_triangle is None:
            chord, t = parse_chord(symbol, default_comma)
            distance = 0
            common: tuple[NoteName, ...] = ()
            shares = False
        else:
            chord, t = _resolve(symbol, prev_triangle, default_comma)
            distance = triangle_distance(prev_triangle, t)
            shared = set(prev_triangle.vertices()) & set(t.vertices())
            common = tuple(sorted(spell_vertex(v) for v in shared))
            shares = any(vertex_class(v) == 2 for v in shared)
        steps.append(
            ProgressionStep(
                symbol=symbol.strip(),
                chord=chord,
                triangle=t,
                distance=distance,
                common_tones=common,
                shares_hexagon=shares,
            )
        )
        prev_triangle = t
    return ProgressionReport(tuple(steps), sum(s.distance for s in steps))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
