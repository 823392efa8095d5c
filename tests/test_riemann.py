"""Schritt-Wechsel algebra, point reflections, commas and the quotient."""

import pytest

from tonnetz.lattice import BASE_TRIANGLE, Edge, Triangle, wall_flip
from tonnetz.riemann import (
    D12_REFLECTION,
    D12_ROTATION,
    NAMED_COMMAS,
    P_IDENTITY,
    QUINTSCHRITT,
    R_IDENTITY,
    SEITENWECHSEL,
    TERZSCHRITT,
    D12Coset,
    PElement,
    RElement,
    d12_compose,
    d12_inverse,
    d12_order,
    format_p,
    format_r,
    in_comma_subgroup,
    p_compose,
    p_generator,
    p_inverse,
    p_isometry,
    p_to_r,
    parse_p,
    parse_r,
    project_d12,
    r_compose,
    r_inverse,
    r_order,
)

BOX = [
    RElement(w, u, v)
    for w in (False, True)
    for u in range(-3, 4)
    for v in range(-3, 4)
]

P_BOX = [
    PElement(a, b, fl)
    for a in range(-3, 4)
    for b in range(-3, 4)
    for fl in (False, True)
]


def test_schritte_commute():
    assert r_compose(QUINTSCHRITT, TERZSCHRITT) == r_compose(TERZSCHRITT, QUINTSCHRITT)
    assert r_compose(QUINTSCHRITT, TERZSCHRITT) == RElement(False, 1, 1)


def test_wechsel_conjugates_schritt():
    # w t w = t^-1
    t = RElement(False, 2, -1)
    w = SEITENWECHSEL
    assert r_compose(r_compose(w, t), w) == r_inverse(t)


def test_wechsel_law():
    for u in range(-3, 4):
        for v in range(-3, 4):
            tw = RElement(True, u, v)
            t2w = RElement(True, u + 1, v - 2)
            assert r_compose(t2w, tw) == RElement(False, 1, -2)


def test_r_inverses():
    for x in BOX:
        assert r_compose(x, r_inverse(x)) == R_IDENTITY
        assert r_compose(r_inverse(x), x) == R_IDENTITY


def test_r_orders():
    assert r_order(R_IDENTITY) == 1
    assert r_order(SEITENWECHSEL) == 2
    assert r_order(RElement(True, 5, -3)) == 2
    assert r_order(QUINTSCHRITT) is None


def test_p_normal_form():
    pi1, pi2, pi3 = (p_generator(i) for i in (1, 2, 3))
    a_gen = p_compose(pi3, pi1)
    b_gen = p_compose(pi1, pi2)
    assert a_gen == PElement(1, 0, False)
    assert b_gen == PElement(0, 1, False)
    a_inv = p_inverse(a_gen)
    b_cubed = p_compose(p_compose(b_gen, b_gen), b_gen)
    x = p_compose(p_compose(p_compose(a_inv, a_inv), b_cubed), pi1)
    assert x == PElement(-2, 3, True)


def test_p_isometry_fixtures():
    assert p_isometry(PElement(0, 0, True)).v == (1, 0)
    assert p_isometry(PElement(0, 0, True)).m == (-1, 0, 0, -1)
    assert p_isometry(PElement(2, 3, False)).v == (3, -1)
    assert p_isometry(PElement(2, 3, False)).m == (1, 0, 0, 1)


def test_p_left_action_on_base():
    # pi1 exchanges the base triangle with its fifth-edge neighbor
    pi1 = p_isometry(p_generator(1))
    assert pi1.apply_triangle(BASE_TRIANGLE) == Triangle((0, 0), up=False)
    assert pi1.apply_triangle(Triangle((0, 0), up=False)) == BASE_TRIANGLE


# the edge of the base triangle that is the wall of s_i
BASE_EDGES = {1: Edge.FIFTH, 2: Edge.MAJOR_THIRD, 3: Edge.MINOR_THIRD}


def test_point_reflection_swaps_the_ends_of_its_edge():
    for i, edge in BASE_EDGES.items():
        iso = p_isometry(p_generator(i))
        u, v = BASE_TRIANGLE.edge_vertices(edge)
        assert (iso.apply(u), iso.apply(v)) == (v, u), i
        assert iso.m == (-1, 0, 0, -1), i
        assert iso.apply_triangle(BASE_TRIANGLE) == wall_flip(BASE_TRIANGLE, i), i


def test_p_to_r_reverses_products():
    for x in P_BOX:
        for y in P_BOX:
            assert p_to_r(p_compose(x, y)) == r_compose(p_to_r(y), p_to_r(x)), (x, y)


# the products and inverses as signed formulas, the reference for the
# unpacked ones in riemann
def signed_r_compose(x, y):
    sign = -1 if x.wechsel else 1
    return RElement(x.wechsel ^ y.wechsel, x.quint + sign * y.quint, x.terz + sign * y.terz)


def signed_r_inverse(x):
    return x if x.wechsel else RElement(False, -x.quint, -x.terz)


def signed_p_compose(x, y):
    sign = -1 if x.flip else 1
    return PElement(x.a + sign * y.a, x.b + sign * y.b, x.flip ^ y.flip)


def signed_p_inverse(x):
    return x if x.flip else PElement(-x.a, -x.b, False)


def test_r_products_and_inverses_match_the_signed_formulas():
    for x in BOX:
        inv = r_inverse(x)
        assert type(inv) is RElement and inv == signed_r_inverse(x), x
        for y in BOX:
            xy = r_compose(x, y)
            assert type(xy) is RElement and xy == signed_r_compose(x, y), (x, y)


def test_p_products_and_inverses_match_the_signed_formulas():
    for x in P_BOX:
        inv = p_inverse(x)
        assert type(inv) is PElement and inv == signed_p_inverse(x), x
        for y in P_BOX:
            xy = p_compose(x, y)
            assert type(xy) is PElement and xy == signed_p_compose(x, y), (x, y)


def test_p_to_r_fixtures():
    pi1, pi2, pi3 = (p_generator(i) for i in (1, 2, 3))
    assert p_to_r(pi1) == SEITENWECHSEL
    assert p_to_r(p_compose(pi3, pi2)) == QUINTSCHRITT
    assert p_to_r(p_compose(pi3, pi1)) == TERZSCHRITT


def test_p_to_r_is_a_bijection_on_the_box():
    images = {p_to_r(x) for x in P_BOX}
    assert len(images) == len(P_BOX)


def test_named_commas_in_subgroup():
    assert set(NAMED_COMMAS) == {"lesser-diesis", "greater-diesis", "syntonic", "pythagorean"}
    for comma in NAMED_COMMAS.values():
        assert in_comma_subgroup(comma)


def test_comma_subgroup_membership():
    assert in_comma_subgroup(PElement(3, 0, False))
    assert in_comma_subgroup(PElement(0, 4, False))
    assert not in_comma_subgroup(PElement(1, 0, False))
    assert not in_comma_subgroup(PElement(3, 2, False))
    assert not in_comma_subgroup(PElement(3, 4, True))


def test_projection_homomorphism():
    small = [PElement(a, b, fl) for a in (-2, 0, 1) for b in (-1, 0, 2) for fl in (False, True)]
    for x in small:
        for y in small:
            assert project_d12(p_compose(x, y)) == d12_compose(project_d12(x), project_d12(y))


def test_projection_kernel_is_k():
    for x in P_BOX:
        assert (project_d12(x) == D12Coset(0, 0, False)) == in_comma_subgroup(x)


def triad(t):
    """The consonant triad a triangle names: its root's pitch class 7p + 4q mod 12, and up."""
    (p, q), up = t
    return (7 * p + 4 * q) % 12, up


# each of the 24 triads three times over: roots p in -6..5, q in -1..1
TRIAD_TRIANGLES = [
    Triangle((p, q), up) for p in range(-6, 6) for q in range(-1, 2) for up in (False, True)
]


def test_p_acts_on_the_24_triads_through_its_quotient():
    # P/K is the T/I group (Crans, Fiore and Satyendra 2009): p_isometry's
    # action on triangles induces one on the 24 triads, trivial exactly on
    # the comma subgroup K, and alike for two elements exactly when they
    # project to one coset; so the 24 cosets act in 24 distinct ways
    identity = {triad(t): triad(t) for t in TRIAD_TRIANGLES}
    assert len(identity) == 24
    actions = {}
    for x in (PElement(a, b, fl) for a in range(-8, 9) for b in range(-8, 9) for fl in (False, True)):
        iso = p_isometry(x)
        action = {}
        for t in TRIAD_TRIANGLES:
            image = triad(iso.apply_triangle(t))
            assert action.setdefault(triad(t), image) == image, (x, t)
        assert (action == identity) == in_comma_subgroup(x), x
        actions.setdefault(project_d12(x), set()).add(tuple(sorted(action.items())))
    assert len(actions) == 24
    assert all(len(alike) == 1 for alike in actions.values())
    assert len(set().union(*actions.values())) == 24


def test_rotation_order_twelve():
    assert D12_ROTATION == PElement(1, -1, False)
    h = project_d12(D12_ROTATION)
    assert d12_order(h) == 12
    powers = set()
    g = D12Coset(0, 0, False)
    for _ in range(12):
        g = d12_compose(g, h)
        powers.add(g)
    assert len(powers) == 12


def test_dihedral_relation():
    h = project_d12(D12_ROTATION)
    rho = project_d12(D12_REFLECTION)
    assert d12_order(rho) == 2
    conj = d12_compose(d12_compose(rho, h), d12_inverse(rho))
    assert conj == d12_inverse(h)


def test_quotient_is_generated_by_h_and_rho():
    h = project_d12(D12_ROTATION)
    rho = project_d12(D12_REFLECTION)
    elems = set()
    g = D12Coset(0, 0, False)
    for _ in range(12):
        elems.add(g)
        elems.add(d12_compose(g, rho))
        g = d12_compose(g, h)
    assert len(elems) == 24


def test_r_format_parse():
    x = RElement(True, -2, 3)
    assert format_r(x) == "Q^-2 Z^3 W"
    assert parse_r("Q^-2 Z^3 W") == x
    assert parse_r("Q^1 Z^0") == QUINTSCHRITT
    with pytest.raises(ValueError):
        parse_r("Q^a Z^0")
    with pytest.raises(ValueError):
        parse_r("")


def test_p_format_parse():
    x = PElement(4, -1, True)
    assert format_p(x) == "(4,-1,1)"
    assert parse_p("(4,-1,1)") == x
    assert parse_p(" (0, 0, 0) ") == P_IDENTITY
    with pytest.raises(ValueError):
        parse_p("(1,2)")
    with pytest.raises(ValueError):
        parse_p("(1,2,3)")
