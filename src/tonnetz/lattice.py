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
from itertools import islice
from typing import Iterator, NamedTuple

from .core import (
    FINITE_WORDS,
    AffinePermutation,
    TriangleCoords,
    _not_a_sequence,
    bfs_layers,
    translation_factor,
    triangle_to_perm,
)

Vertex = tuple[int, int]

FIFTH: Vertex = (1, 0)
THIRD: Vertex = (0, 1)
ORIGIN: Vertex = (0, 0)


class Edge(Enum):
    """Edge of a triangle, named by the musical interval it spans."""

    FIFTH = "fifth"
    MINOR_THIRD = "minor-third"
    MAJOR_THIRD = "major-third"

    # members are singletons compared by identity; Enum's own __hash__ is a
    # Python-level call on every flip-table lookup
    __hash__ = object.__hash__


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
        p, q = self.root
        if self.up:
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


# builds a Triangle from (root, up) without the named tuple's Python-level
# __new__, which flip, neighbors and triangle_ball would otherwise call for
# every triangle they build
_make_triangle = tuple.__new__


def flip(t: Triangle, edge: Edge) -> Triangle:
    """The other triangle sharing the given edge; an involution.

    >>> flip(BASE_TRIANGLE, Edge.MAJOR_THIRD)
    Triangle(root=(-1, 1), up=False)
    """
    (p, q), up = t
    dp, dq = _FLIP_OFFSETS[up][edge]
    return _make_triangle(Triangle, ((p + dp, q + dq), not up))


def neighbors(t: Triangle) -> tuple[Triangle, Triangle, Triangle]:
    """The three flips of t, in Edge order."""
    (p, q), up = t
    (p1, q1), (p2, q2), (p3, q3) = _FLIP_OFFSETS[up].values()
    down = not up
    return (
        _make_triangle(Triangle, ((p + p1, q + q1), down)),
        _make_triangle(Triangle, ((p + p2, q + q2), down)),
        _make_triangle(Triangle, ((p + p3, q + q3), down)),
    )


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

# isometries of the six finite factors, keyed by their words
_FINITE_ISOMETRIES = {
    w: reduce(Isometry.__mul__, map(generator_isometry, w), IDENTITY_ISOMETRY)
    for w in FINITE_WORDS
}


def perm_to_iso(f: AffinePermutation) -> Isometry:
    """The lattice isometry realizing f; a group homomorphism.

    For f = t1^e1 * t2^e2 * sigma it is sigma's isometry followed by the
    shift e1 * T1_VECTOR + e2 * T2_VECTOR.

    >>> perm_to_iso(AffinePermutation(2, -3, 1))
    Isometry(m=(1, 0, 0, 1), v=(-1, 2))
    """
    e1, e2, word = translation_factor(f)
    m, (x, y) = _FINITE_ISOMETRIES[word]
    (a1, b1), (a2, b2) = T1_VECTOR, T2_VECTOR
    return Isometry(m, (x + e1 * a1 + e2 * a2, y + e1 * b1 + e2 * b2))


def triangle_of(f: AffinePermutation) -> Triangle:
    """Image of the base triangle under f's isometry, read off its center.

    >>> format_triangle(triangle_of(AffinePermutation(-3, 2, 1)))
    'D(-1,2)'
    """
    return triangle_from_coords(f.center_coords())


# --- the coordinate route between triangles and windows --------------------


def geometric_coords(t: Triangle) -> TriangleCoords:
    """Axis coordinates of the triangle center, computed from the lattice.

    Independent of the window arithmetic in core; the two routes agreeing
    on every element is one of the verification suites.
    """
    (p, q), up = t
    d = not up
    return TriangleCoords(-(2 * p + q), p + 2 * q - d, p - q + d)


def triangle_from_coords(coords: TriangleCoords | tuple[int, int, int]) -> Triangle:
    """Inverse of geometric_coords.

    c2 + 2 * c3 is 3p and c2 - c3 is 3q for an up triangle; a down
    triangle adds 1 to the first and -2 to the second.  Any other triple,
    including one that does not sum to zero, is not a center.
    """
    c1, c2, c3 = coords
    dp = c2 + 2 * c3
    if c1 + c2 + c3 or dp % 3 == 2:
        raise ValueError(f"{coords} is not a triangle center")
    return Triangle((dp // 3, (c2 - c3 + 2) // 3), up=dp % 3 == 0)


def perm_of(t: Triangle) -> AffinePermutation:
    """The unique group element whose triangle is t."""
    return triangle_to_perm(geometric_coords(t))


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
    return t.vertices()[(cls - p + q) % 3]


# --- BFS over the flip graph -------------------------------------------------


def _check_lattice_triangle(t: Triangle) -> None:
    # no flip reaches a triangle off the lattice, a non-integer root has no
    # bit in a search's frame, and a non-bool orientation has no flip table
    (p, q), up = t
    if not (isinstance(p, int) and isinstance(q, int) and isinstance(up, bool)):
        raise ValueError(
            f"{t} is not a lattice triangle: its root must be integers and up a bool"
        )


def gallery_distance_bfs(t1: Triangle, t2: Triangle) -> int:
    """Minimal number of edge flips from t1 to t2, by breadth-first search.

    This is the independent oracle for Coxeter length: for any element f,
    gallery_distance_bfs(base, triangle_of(f)) == f.length().  Two searches
    meet in the middle: each round the side with the smaller frontier
    takes one more layer, and the first new layer that shares a triangle
    with the other side's frontier gives the distance.

    Every flip turns a triangle over, so the flip graph is bipartite and
    all triangles of layer k point the same way: up exactly when the start
    points up and k is even, or it points down and k is odd.  A root then
    names its triangle within a layer, and a layer is one int, a bitmask
    with bit (p - pmin) * width + (q - qmin) set for each root (p, q) in a
    frame around both roots.  A flip moves the root by one of three fixed
    offsets, so the next layer is the OR of three shifts of this one, less
    the previous layer, and two frontiers that point the same way meet
    where their bitmasks share a bit.

    The frame has margin m = |dp| + |dq| + 1 around the two roots, where
    (dp, dq) is the root of t2 less that of t1.  Two flips move a root one
    step along either axis, and one more turns the triangle over, so the
    distance is at most 2(|dp| + |dq|) + 1 = 2m - 1.  Layer k of every
    start holds 3k triangles (length_layers), so the smaller frontier is
    the shallower one, the two depths differ by at most one, and each
    side stops by depth m.  A flip moves a root at most one step along
    each axis, so no root within depth m of its start leaves the frame,
    and no shift carries a bit across a row.  A side that would pass
    depth m raises instead: a wrong bound is an error, never a wrong
    distance.  Each layer takes time linear in the frame's area, so a
    search at distance D takes time about D^3, where one over sets of
    roots takes about D^2; the bitmask is much the faster at the
    distances the tests and the benchmark ask for, up to a few hundred.

    >>> gallery_distance_bfs(BASE_TRIANGLE, Triangle((2, -1), up=False))
    5
    """
    _check_lattice_triangle(t1)
    _check_lattice_triangle(t2)
    if t1 == t2:
        return 0
    (p1, q1), (p2, q2) = t1.root, t2.root
    margin = abs(p2 - p1) + abs(q2 - q1) + 1
    pmin, qmin = min(p1, p2) - margin, min(q1, q2) - margin
    width = abs(q2 - q1) + 2 * margin + 1

    def side(t: Triangle) -> Iterator[int]:
        (p, q), up = t
        # the bit shifts of the flips out of even layers, then out of odd ones
        shifts = tuple(
            tuple(dp * width + dq for dp, dq in _FLIP_OFFSETS[o].values()) for o in (up, not up)
        )

        def expand(layer: int, back: int, depth: int) -> int:
            if depth == margin:
                raise RuntimeError(f"flip search from {t} passed its depth bound {margin}")
            nxt = 0
            for s in shifts[depth % 2]:
                # the fifth flip keeps the root, and a zero shift would copy
                nxt |= layer << s if s > 0 else layer >> -s if s else layer
            # nxt & ~back, without building the negative int ~back
            return (nxt | back) ^ back

        return bfs_layers(1 << ((p - pmin) * width + q - qmin), expand)

    sides = [side(t1), side(t2)]
    frontiers = [next(sides[0]), next(sides[1])]
    depths = [0, 0]
    # the two frontiers point the same way exactly when their depths sum
    # to the parity of t1.up != t2.up
    parity = int(t1.up != t2.up)
    while True:
        i = 0 if depths[0] <= depths[1] else 1
        frontiers[i] = next(sides[i])
        depths[i] += 1
        d = depths[0] + depths[1]
        if d % 2 == parity and frontiers[i] & frontiers[1 - i]:
            return d


def triangle_ball(center: Triangle, radius: int) -> dict[Triangle, int]:
    """All triangles within the given flip distance, with their distances.

    Layers hold roots, as in gallery_distance_bfs: the triangles of layer
    d point up exactly when center.up differs from d being odd.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    _check_lattice_triangle(center)
    root, up = center
    # the flip offsets out of even layers, then out of odd ones
    offsets = (tuple(_FLIP_OFFSETS[up].values()), tuple(_FLIP_OFFSETS[not up].values()))

    def expand(
        layer: dict[Vertex, None], back: dict[Vertex, None], depth: int
    ) -> dict[Vertex, None]:
        return {
            r: None
            for p, q in layer
            for dp, dq in offsets[depth % 2]
            if (r := (p + dp, q + dq)) not in back
        }

    layers = islice(bfs_layers({root: None}, expand), radius + 1)
    return {
        _make_triangle(Triangle, (r, up != (d % 2 == 1))): d
        for d, layer in enumerate(layers)
        for r in layer
    }


# --- triangle text format ---------------------------------------------------


def format_triangle(t: Triangle) -> str:
    return "%s(%d,%d)" % ("U" if t.up else "D", t.root[0], t.root[1])


def parse_triangle(text: str) -> Triangle:
    """Parse "U(p,q)" or "D(p,q)"; the tests read --json triangles with it."""
    s = text.strip().replace("−", "-")
    if len(s) < 6 or s[0] not in "UD" or s[1] != "(" or not s.endswith(")"):
        raise ValueError(f"triangle must look like U(p,q) or D(p,q), got {text!r}")
    parts = s[2:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"triangle needs two coordinates, got {text!r}")
    try:
        p, q = (int(x.strip()) for x in parts)
    except ValueError:
        raise ValueError(f"triangle coordinates must be integers, got {text!r}") from None
    return Triangle((p, q), up=s[0] == "U")
