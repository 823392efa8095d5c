"""Lattice geometry: triangles, flips, isometries, the window bijection."""

import itertools

import pytest
from conftest import NOT_TRIANGLES, long_words, refuses_by_name
from hypothesis import given

from tonnetz.core import AffinePermutation, TriangleCoords, ball, from_word, generator, parse_window
from tonnetz.lattice import (
    BASE_TRIANGLE,
    Edge,
    Triangle,
    class_vertex,
    flip,
    format_triangle,
    gallery_distance_bfs,
    generator_isometry,
    geometric_coords,
    neighbors,
    parse_triangle,
    perm_of,
    perm_to_iso,
    triangle_ball,
    triangle_from_coords,
    triangle_from_vertices,
    triangle_of,
    vertex_class,
)


def test_base_triangle_vertices():
    assert BASE_TRIANGLE.vertices() == ((0, 0), (1, 0), (0, 1))


def test_down_triangle_vertices():
    assert Triangle((0, 0), up=False).vertices() == ((0, 0), (1, 0), (1, -1))


def test_triangle_from_vertices_round_trip():
    for p in range(-2, 3):
        for q in range(-2, 3):
            for up in (True, False):
                t = Triangle((p, q), up)
                assert triangle_from_vertices(set(t.vertices())) == t


def test_triangle_from_vertices_rejects_non_triangles():
    with pytest.raises(ValueError):
        triangle_from_vertices({(0, 0), (1, 0), (2, 0)})
    with pytest.raises(ValueError):
        triangle_from_vertices({(0, 0), (1, 0)})


def test_flip_is_involution():
    for p in range(-2, 3):
        for q in range(-2, 3):
            for up in (True, False):
                t = Triangle((p, q), up)
                for e in Edge:
                    assert flip(flip(t, e), e) == t


def test_flip_shares_edge():
    t = BASE_TRIANGLE
    for e in Edge:
        other = flip(t, e)
        shared = set(t.vertices()) & set(other.vertices())
        assert shared == set(t.edge_vertices(e))


def test_flip_fixtures():
    assert flip(BASE_TRIANGLE, Edge.FIFTH) == Triangle((0, 0), up=False)
    assert flip(BASE_TRIANGLE, Edge.MINOR_THIRD) == Triangle((0, 1), up=False)
    assert flip(BASE_TRIANGLE, Edge.MAJOR_THIRD) == Triangle((-1, 1), up=False)


def test_neighbors_are_adjacent():
    t = Triangle((2, -1), up=False)
    assert len(set(neighbors(t))) == 3


def test_flip_table_is_parallelogram_completion():
    # the vertex lists alone, not the flip table, say where each flip lands
    for t in [*triangle_ball(BASE_TRIANGLE, 6), Triangle((7, -5), up=False)]:
        for e in Edge:
            other = flip(t, e)
            a, b = t.edge_vertices(e)
            (c,) = set(t.vertices()) - {a, b}
            completion = (a[0] + b[0] - c[0], a[1] + b[1] - c[1])
            assert flip(other, e) == t
            assert set(t.vertices()) & set(other.vertices()) == {a, b}
            assert set(other.vertices()) == {a, b, completion}
        assert neighbors(t) == tuple(flip(t, e) for e in Edge)


def test_generator_isometries_fix_their_edges():
    for i, e in ((1, Edge.FIFTH), (2, Edge.MAJOR_THIRD), (3, Edge.MINOR_THIRD)):
        iso = generator_isometry(i)
        for v in BASE_TRIANGLE.edge_vertices(e):
            assert iso.apply(v) == v
        assert iso.det() == -1


# frozen positions of the figure windows on the lattice
WINDOW_TRIANGLES = [
    ("[-1,0,1]", "U(0,0)"),
    ("[0,-1,1]", "D(0,0)"),
    ("[-1,1,0]", "D(-1,1)"),
    ("[-2,0,2]", "D(0,1)"),
    ("[1,-1,0]", "U(-1,0)"),
    ("[-3,1,2]", "U(-1,1)"),
    ("[0,1,-1]", "U(0,-1)"),
    ("[-2,2,0]", "U(0,1)"),
    ("[-2,-1,3]", "U(1,-1)"),
    ("[0,-2,2]", "U(1,0)"),
    ("[1,0,-1]", "D(-1,0)"),
    ("[-3,2,1]", "D(-1,2)"),
    ("[-1,-2,3]", "D(1,0)"),
]


def test_triangle_of_fixtures():
    for window, triangle in WINDOW_TRIANGLES:
        f = parse_window(window)
        assert format_triangle(triangle_of(f)) == triangle
        assert perm_of(parse_triangle(triangle)) == f


def check_triangle_maps(f):
    """triangle_of and perm_of of f, and the types they return."""
    t = triangle_of(f)
    assert type(t) is Triangle and type(t.root) is tuple and type(t.up) is bool
    # the isometry carries the base triangle by f's factors, not by the
    # center coordinates triangle_of reads
    assert perm_to_iso(f).apply_triangle(BASE_TRIANGLE) == t
    g = perm_of(t)
    assert type(g) is AffinePermutation and g == f
    c = geometric_coords(t)
    assert type(c) is TriangleCoords and c == f.center_coords()


def test_triangle_maps_on_the_ball():
    for f in ball(8):
        check_triangle_maps(f)


@given(long_words)
def test_triangle_maps_on_long_words(word):
    check_triangle_maps(from_word(word))


# perm_of and both searches, either side of gallery_distance_bfs
TRIANGLE_ENTRY_POINTS = {
    "perm-of": perm_of,
    "triangle-ball": lambda t: triangle_ball(t, 1),
    "bfs-from": lambda t: gallery_distance_bfs(t, BASE_TRIANGLE),
    "bfs-to": lambda t: gallery_distance_bfs(BASE_TRIANGLE, t),
}


@pytest.mark.parametrize("value", NOT_TRIANGLES, ids=repr)
@pytest.mark.parametrize("call", TRIANGLE_ENTRY_POINTS.values(), ids=TRIANGLE_ENTRY_POINTS)
def test_entry_points_refuse_what_is_not_a_triangle(call, value):
    refuses_by_name(call, value)


def test_right_multiplication_is_a_flip():
    # multiplying by a generator on the right flips across one own edge
    for f in ball(4):
        t = triangle_of(f)
        flips = set(neighbors(t))
        for i in (1, 2, 3):
            assert triangle_of(f * generator(i)) in flips


def test_vertex_classes():
    assert vertex_class((0, 0)) == 0
    assert vertex_class((1, 0)) == 1
    assert vertex_class((0, 1)) == 2


def test_class_vertex_is_the_vertex_of_that_class():
    for p in range(-3, 4):
        for q in range(-3, 4):
            for up in (True, False):
                t = Triangle((p, q), up)
                for cls in (0, 1, 2):
                    v = class_vertex(t, cls)
                    assert v in t.vertices() and vertex_class(v) == cls
    for cls in (-1, 3):
        with pytest.raises(ValueError, match=f"has no class-{cls} vertex"):
            class_vertex(BASE_TRIANGLE, cls)


def test_triangle_from_coords_inverts_geometric_coords_and_nothing_else():
    # every center with entries in -4..4 is the center of a triangle in this box
    centers = {
        geometric_coords(Triangle((p, q), up)): Triangle((p, q), up)
        for p in range(-6, 7)
        for q in range(-6, 7)
        for up in (True, False)
    }
    for c in itertools.product(range(-4, 5), repeat=3):
        if c in centers:
            assert triangle_from_coords(c) == centers[c]
        else:
            with pytest.raises(ValueError, match="is not a triangle center"):
                triangle_from_coords(c)


@pytest.mark.parametrize(
    "center", [BASE_TRIANGLE, Triangle((2, -1), up=False)], ids=format_triangle
)
def test_triangle_ball_against_the_pairwise_search(center):
    # the layer loop against the bitmask search from the center, triangle by
    # triangle, and the ball's size, 1 + 3r(r + 1) / 2
    for r in range(6):
        got = triangle_ball(center, r)
        assert len(got) == 1 + 3 * r * (r + 1) // 2
        assert all(gallery_distance_bfs(center, t) == d for t, d in got.items())


def test_translation_windows_move_the_base():
    t1 = from_word([2, 3, 2, 1])
    assert triangle_of(t1) == Triangle((-1, 2), up=True)
    t2 = from_word([3, 1, 3, 2])
    assert triangle_of(t2) == Triangle((2, -1), up=True)


def test_triangle_format_parse():
    assert parse_triangle("U(0,0)") == BASE_TRIANGLE
    assert parse_triangle("D(-1,2)") == Triangle((-1, 2), up=False)
    assert format_triangle(Triangle((3, -4), up=False)) == "D(3,-4)"
    with pytest.raises(ValueError):
        parse_triangle("X(0,0)")
    with pytest.raises(ValueError):
        parse_triangle("U(0)")
