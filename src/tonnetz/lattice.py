"""The Tonnetz as an integer lattice of vertices and unit triangles.

Vertices are pairs (p, q): p steps along the fifth axis and q along the
major-third axis, with the origin at C.  An upward triangle rooted at v
has vertices {v, v+fifth, v+third}; a downward one {v, v+fifth,
v+fifth-third}.  The base triangle is the upward triangle at the origin.

Group elements act on the lattice through integer affine isometries; the
map from windows to isometries is a group homomorphism, and the induced
action on triangles is simply transitive.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from typing import NamedTuple

from .core import (
    FINITE_WORDS,
    AffinePermutation,
    TriangleCoords,
    _center_coords,
    _not_a_sequence,
    _window_at,
    quote,
    translation_factor,
)

Vertex = tuple[int, int]

ORIGIN: Vertex = (0, 0)


class Edge(Enum):
    """Edge of a triangle, named by the musical interval it spans."""

    FIFTH = "fifth"
    MINOR_THIRD = "minor-third"
    MAJOR_THIRD = "major-third"


class Triangle(NamedTuple):
    """A unit triangle, in normal form (root, orientation).

    The root is the vertex from which the +fifth edge stays inside the
    triangle; up is True for upward-pointing triangles.  Being a named
    tuple, a triangle equals the plain tuple ((p, q), up) and sorts by
    root, then orientation.

    >>> Triangle((1, -2), up=False) == ((1, -2), False)
    True
    """

    root: Vertex
    up: bool

    def vertices(self) -> tuple[Vertex, Vertex, Vertex]:
        (p, q), up = self
        if up:
            return ((p, q), (p + 1, q), (p, q + 1))
        return ((p, q), (p + 1, q), (p + 1, q - 1))

    def edge_vertices(self, edge: Edge) -> tuple[Vertex, Vertex]:
        """The two vertices of an edge; kept as the tests' oracle for flip."""
        p, q = self.root
        if self.up:
            if edge is Edge.FIFTH:
                return ((p, q), (p + 1, q))
            if edge is Edge.MAJOR_THIRD:
                return ((p, q), (p, q + 1))
            return ((p + 1, q), (p, q + 1))
        if edge is Edge.FIFTH:
            return ((p, q), (p + 1, q))
        if edge is Edge.MAJOR_THIRD:
            return ((p + 1, q - 1), (p + 1, q))
        return ((p, q), (p + 1, q - 1))


BASE_TRIANGLE = Triangle(ORIGIN, up=True)

# builds named tuples without their Python-level __new__, as core's
# _make_element does
_make = tuple.__new__


def triangle_from_vertices(verts: frozenset[Vertex] | set[Vertex]) -> Triangle:
    """Normal form of a triangle given as a vertex set."""
    if len(verts) != 3:
        raise ValueError(f"need three vertices, got {sorted(verts)}")
    pmin = min(v[0] for v in verts)
    qmin = min(v[1] for v in verts)
    if (pmin, qmin) in verts:
        t = Triangle((pmin, qmin), up=True)
    else:
        t = Triangle((pmin, qmin + 1), up=False)
    if set(t.vertices()) != set(verts):
        raise ValueError(f"{sorted(verts)} is not a unit triangle")
    return t


# root offset of the triangle across each edge, in Edge order, by orientation
_FLIP_OFFSETS = {
    True: {Edge.FIFTH: (0, 0), Edge.MINOR_THIRD: (0, 1), Edge.MAJOR_THIRD: (-1, 1)},
    False: {Edge.FIFTH: (0, 0), Edge.MINOR_THIRD: (0, -1), Edge.MAJOR_THIRD: (1, -1)},
}


def flip(t: Triangle, edge: Edge) -> Triangle:
    """The other triangle sharing the given edge; an involution.

    >>> flip(BASE_TRIANGLE, Edge.MAJOR_THIRD)
    Triangle(root=(-1, 1), up=False)
    """
    (p, q), up = t
    dp, dq = _FLIP_OFFSETS[up][edge]
    return Triangle((p + dp, q + dq), not up)


def neighbors(t: Triangle) -> tuple[Triangle, Triangle, Triangle]:
    """The three flips of t, in Edge order."""
    return tuple(flip(t, e) for e in Edge)


# the wall of s_i, the edge it fixes on the base triangle, lies opposite the
# vertex of class 2, 1, 0 for i = 1, 2, 3; the group keeps vertex classes,
# so the same holds on every triangle
_WALL_CLASS = {1: 2, 2: 1, 3: 0}

# the edge opposite the vertex whose class is the root's plus 0, 1, 2
_OPPOSITE_EDGES = {
    True: (Edge.MINOR_THIRD, Edge.MAJOR_THIRD, Edge.FIFTH),
    False: (Edge.MAJOR_THIRD, Edge.MINOR_THIRD, Edge.FIFTH),
}


def wall_flip(t: Triangle, i: int) -> Triangle:
    """The triangle of perm_of(t) * s_i: the flip across t's wall of type i.

    >>> wall_flip(BASE_TRIANGLE, 1)
    Triangle(root=(0, 0), up=False)
    """
    try:
        k = _WALL_CLASS[i]
    except KeyError:
        raise ValueError(f"generator index must be 1, 2 or 3, got {i!r}") from None
    (p, q), up = t
    return flip(t, _OPPOSITE_EDGES[up][(k - p + q) % 3])


# --- isometries ------------------------------------------------------------


class Isometry(NamedTuple):
    """Affine map x -> m @ x + v with an integer 2x2 matrix m."""

    m: tuple[int, int, int, int]
    v: Vertex

    def apply(self, x: Vertex) -> Vertex:
        m00, m01, m10, m11 = self.m
        return (m00 * x[0] + m01 * x[1] + self.v[0], m10 * x[0] + m11 * x[1] + self.v[1])

    def __mul__(self, other: Isometry) -> Isometry:
        """Composition self(other(x))."""
        if not isinstance(other, Isometry):
            return NotImplemented
        a00, a01, a10, a11 = self.m
        b00, b01, b10, b11 = other.m
        m = (
            a00 * b00 + a01 * b10,
            a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10,
            a10 * b01 + a11 * b11,
        )
        return Isometry(m, self.apply(other.v))

    __add__ = __rmul__ = _not_a_sequence

    def det(self) -> int:
        m00, m01, m10, m11 = self.m
        return m00 * m11 - m01 * m10

    def apply_triangle(self, t: Triangle) -> Triangle:
        return triangle_from_vertices({self.apply(x) for x in t.vertices()})


IDENTITY_ISOMETRY = Isometry((1, 0, 0, 1), (0, 0))

_GENERATOR_ISOMETRIES = {
    # reflection fixing the fifth edge of the base triangle (the C-G line)
    1: Isometry((1, 1, 0, -1), (0, 0)),
    # reflection fixing the major-third edge (the C-E line)
    2: Isometry((-1, 0, 1, 1), (0, 0)),
    # reflection fixing the minor-third edge (the E-G line)
    3: Isometry((0, -1, -1, 0), (1, 1)),
}


def generator_isometry(i: int) -> Isometry:
    try:
        return _GENERATOR_ISOMETRIES[i]
    except KeyError:
        raise ValueError(f"generator index must be 1, 2 or 3, got {i!r}") from None


# lattice displacement vectors of the translations t1 and t2
T1_VECTOR = (-1, 2)
T2_VECTOR = (2, -1)


def translation_shift(e1: int, e2: int) -> Vertex:
    """The lattice shift of t1^e1 * t2^e2: e1 * T1_VECTOR + e2 * T2_VECTOR."""
    (a1, b1), (a2, b2) = T1_VECTOR, T2_VECTOR
    return (e1 * a1 + e2 * a2, e1 * b1 + e2 * b2)


# isometries of the six finite factors, keyed by their words
_FINITE_ISOMETRIES = {
    w: reduce(Isometry.__mul__, map(generator_isometry, w), IDENTITY_ISOMETRY)
    for w in FINITE_WORDS
}


def perm_to_iso(f: AffinePermutation) -> Isometry:
    """The lattice isometry realizing f; a group homomorphism.

    For f = t1^e1 * t2^e2 * sigma it is sigma's isometry, then t1^e1 * t2^e2's.

    >>> perm_to_iso(AffinePermutation(2, -3, 1))
    Isometry(m=(1, 0, 0, 1), v=(-1, 2))
    """
    e1, e2, word = translation_factor(f)
    m, (x, y) = _FINITE_ISOMETRIES[word]
    dx, dy = translation_shift(e1, e2)
    return Isometry(m, (x + dx, y + dy))


def triangle_of(f: AffinePermutation) -> Triangle:
    """Image of the base triangle under f's isometry, read off its center.

    >>> format_triangle(triangle_of(AffinePermutation(-3, 2, 1)))
    'D(-1,2)'
    """
    _, c2, c3 = _center_coords(*f)
    return _triangle_at(c2, c3)


# --- the coordinate route between triangles and windows --------------------


def geometric_coords(t: Triangle) -> TriangleCoords:
    """Axis coordinates of the triangle center, computed from the lattice.

    Independent of the window arithmetic in core; the two routes agreeing
    on every element is one of the verification suites.
    """
    (p, q), up = t
    return _make(TriangleCoords, _geometric_coords(p, q, up))


def _geometric_coords(p: int, q: int, up: bool) -> tuple[int, int, int]:
    """geometric_coords of the triangle (p, q), up, as a plain tuple."""
    d = not up
    return -(2 * p + q), p + 2 * q - d, p - q + d


def triangle_from_coords(coords: TriangleCoords | tuple[int, int, int]) -> Triangle:
    """Inverse of geometric_coords.

    c2 + 2 * c3 is 3p and c2 - c3 is 3q for an up triangle; a down
    triangle adds 1 to the first and -2 to the second.  So c2 - c3, which is
    c2 + 2 * c3 mod 3, is 2 mod 3 at no center; nor is any triple that does
    not sum to zero.
    """
    c1, c2, c3 = coords
    if c1 + c2 + c3 or (c2 - c3) % 3 == 2:
        raise ValueError(f"{coords} is not a triangle center")
    return _triangle_at(c2, c3)


def _triangle_at(c2: int, c3: int) -> Triangle:
    """The triangle centred at (-c2 - c3, c2, c3), a center."""
    dp = c2 + 2 * c3
    return _make(Triangle, ((dp // 3, (c2 - c3 + 2) // 3), dp % 3 == 0))


def perm_of(t: Triangle) -> AffinePermutation:
    """The unique group element whose triangle is t.

    Raises ValueError on a value that is not a lattice triangle: a root of
    two ints and a bool orientation.

    >>> perm_of(Triangle((-1, 2), up=False)).window
    (-3, 2, 1)
    """
    _check_lattice_triangle(t)
    (p, q), up = t
    return _make(AffinePermutation, _window_at(*_geometric_coords(p, q, up)))


def vertex_class(v: Vertex) -> int:
    """The orbit class of a vertex under the group action, in {0, 1, 2}.

    Class 2 vertices (like the major third above the origin) are the
    centers of the coset-hexagon tiling; classes 0 and 1 contain the
    origin and the fifth above it.
    """
    return (v[0] - v[1]) % 3


def class_vertex(t: Triangle, cls: int) -> Vertex:
    """The unique vertex of t in the given class.

    vertices() lists the root's class first, then the next two classes.
    """
    if cls not in (0, 1, 2):
        raise ValueError(f"triangle {t} has no class-{cls} vertex")
    (p, q), _ = t
    return Triangle.vertices(t)[(cls - p + q) % 3]


# --- BFS over the flip graph -------------------------------------------------


def _check_lattice_triangle(t: Triangle) -> None:
    # no flip reaches a triangle off the lattice, a non-integer root has no
    # bit in a search's frame, and a non-bool orientation has no flip table
    # and would be read by its truth where the orientation picks a formula
    try:
        (p, q), up = t
    except (TypeError, ValueError):
        p = q = up = None
    if not (isinstance(p, int) and isinstance(q, int) and isinstance(up, bool)):
        raise ValueError(
            f"{t!r} is not a lattice triangle: its root must be integers and up a bool"
        )


def gallery_distance_bfs(t1: Triangle, t2: Triangle) -> int:
    """Minimal number of edge flips from t1 to t2, by breadth-first search.

    This is the independent oracle for Coxeter length: for any element f,
    gallery_distance_bfs(base, triangle_of(f)) == f.length().  Two searches,
    one from each triangle, take turns and meet in the middle.

    Each side holds a ball: every triangle that a walk of k flips from its
    start reaches.  Every flip turns a triangle over, so the flip graph is
    bipartite, and a walk of k flips ends on layer k, k - 2, ... and on
    every triangle of those layers: a walk can always step out and back.
    All of a ball's triangles then point the same way, up exactly when the
    start points up and k is even, or it points down and k is odd, so a
    root names its triangle, and a ball is one int, a bitmask with bit
    (p - p0 + r) * w + (q - q0 + r) set for each root (p, q), on a frame of
    w = 2r + 1 rows and columns centred on the side's own root (p0, q0).
    A flip moves the root by one of three fixed offsets; the fifth keeps
    it, and the other two are one left and one right shift of the bitmask,
    so the next ball is b | b << left | b >> right, with nothing to subtract.

    Two balls of depths k1 and k2 share a triangle exactly when some walk of
    k1 + k2 flips joins t1 to t2.  All walks between two triangles have the
    parity of their distance d, and a shortest one can be lengthened two
    flips at a time, so that happens exactly when k1 + k2 >= d and
    k1 + k2 has d's parity, which is the parity of t1.up != t2.up.  The
    sides take turns, t1's first, and the balls are compared only after a
    turn that brings the depths to that parity: once every two layers, and
    the first meeting is at depth d.

    The distance is symmetric, so the search names the triangle with the
    smaller root t1.  Both frames have width w, so a root's bit in t1's
    frame is its bit in t2's plus c = dp * w + dq, where (dp, dq) is t2's
    root less t1's and c >= 0, as |dq| < w: the balls meet where b1 and
    b2 << c share a bit.  A root of t2's frame whose column plus dq falls
    outside 0 .. w - 1 lies outside t1's frame, but the shift carries it
    into the next or the previous row, onto a root it is not; a column
    mask, built once per call, drops those columns from the test.

    The frame is sized by the lattice's hexagonal metric, with
    h = max(|dp|, |dq|, |dp + dq|).  Two flips move a root one step along
    (1, 0), (0, 1) or (1, -1), or back, so 2h flips reach t2's root with
    t1's orientation, and the fifth flip, which keeps the root, turns the
    triangle over: the distance is at most 2h + 1, and each side stops by
    depth K = h + 1.  A side that would pass depth K raises instead: a
    wrong bound is an error, never a wrong distance.  k flips move a root
    at most ceil(k / 2) of those steps, so at most that far along each axis,
    and the margin r = ceil(K / 2) keeps every root a side reaches inside
    its frame, so no shift carries a bit across a row.

    A layer costs 4 big-int operations on (2r + 1)^2 bits, about h^2, and
    a meet test 3 more every two layers, so a search at distance D takes
    time about D^3 in every direction, where one over sets of roots takes
    about D^2; the bitmask is much the faster at the distances the tests
    and the benchmark ask for, up to a few hundred.

    >>> gallery_distance_bfs(BASE_TRIANGLE, Triangle((2, -1), up=False))
    5
    """
    _check_lattice_triangle(t1)
    _check_lattice_triangle(t2)
    if t1 == t2:
        return 0
    t1, t2 = sorted((t1, t2))
    ((p1, q1), up1), ((p2, q2), up2) = t1, t2
    dp, dq = p2 - p1, q2 - q1
    bound = max(abs(dp), abs(dq), abs(dp + dq)) + 1
    r = (bound + 1) // 2
    w = 2 * r + 1
    # the left and right shifts of the two flips that move the root, by
    # orientation; sorted, the fifth flip's zero shift falls between them
    shifts = {}
    for o, offsets in _FLIP_OFFSETS.items():
        right, _, left = sorted(a * w + b for a, b in offsets.values())
        shifts[o] = left, -right
    # out of even depths, then out of odd ones
    steps1 = shifts[up1], shifts[not up1]
    steps2 = shifts[up2], shifts[not up2]
    c = dp * w + dq
    # t1's columns that are t2's columns too, in every row
    rows = ((1 << w * w) - 1) // ((1 << w) - 1)
    mask = ((1 << min(w, w + dq)) - (1 << max(0, dq))) * rows
    odd = up1 != up2
    b1 = b2 = 1 << r * w + r
    for depth in range(bound):
        left, right = steps1[depth % 2]
        b1 |= b1 << left | b1 >> right
        if odd and b1 & b2 << c & mask:
            return 2 * depth + 1
        left, right = steps2[depth % 2]
        b2 |= b2 << left | b2 >> right
        if not odd and b1 & b2 << c & mask:
            return 2 * depth + 2
    raise RuntimeError(f"flip search from {t1} to {t2} passed its depth bound {bound}")


def triangle_ball(center: Triangle, radius: int) -> dict[Triangle, int]:
    """All triangles within the given flip distance, with their distances.

    Breadth-first search on the flip graph, layer by layer: the oracle
    that closed forms such as ball and length, and the ball render draws,
    are tested against.  Every flip turns a triangle over, so all triangles
    of layer d point the same way, up exactly when center.up differs from
    d being odd, and a layer holds bare roots.  The graph is bipartite, so
    each flip out of layer d lands in layer d - 1 or d + 1: the next layer
    is the roots reached that are not in the layer before, and the search
    keeps two layers, not the whole ball.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    _check_lattice_triangle(center)
    root, up = center
    ball: dict[Triangle, int] = {}
    back: dict[Vertex, None] = {}
    layer = {root: None}
    for d in range(radius + 1):
        if d:
            # out of layer d - 1, whose triangles point up exactly when up is
            steps = _FLIP_OFFSETS[up].values()
            back, layer = layer, {
                r: None
                for p, q in layer
                for dp, dq in steps
                if (r := (p + dp, q + dq)) not in back
            }
            up = not up
        for r in layer:
            ball[Triangle(r, up)] = d
    return ball


# --- triangle text format ---------------------------------------------------


def format_triangle(t: Triangle) -> str:
    (p, q), up = t
    return "%s(%d,%d)" % ("U" if up else "D", p, q)


def parse_triangle(text: str) -> Triangle:
    """Parse "U(p,q)" or "D(p,q)"; the tests read --json triangles with it."""
    s = text.strip().replace("−", "-")
    if len(s) < 6 or s[0] not in "UD" or s[1] != "(" or not s.endswith(")"):
        raise ValueError(f"triangle must look like U(p,q) or D(p,q), got {quote(text)}")
    parts = s[2:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"triangle needs two coordinates, got {quote(text)}")
    try:
        p, q = (int(x.strip()) for x in parts)
    except ValueError:
        raise ValueError(f"triangle coordinates must be integers, got {quote(text)}") from None
    return Triangle((p, q), up=s[0] == "U")
