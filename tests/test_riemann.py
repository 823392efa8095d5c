"""Schritt-Wechsel algebra, point reflections, commas and the quotient.

Each law is checked against what it acts on, never against a copy of its
formula.  P's product and inverse are the composition of its lattice
isometries (Isometry.__mul__ multiplies matrices and shares no rule with
p_compose), and the point reflections swap the ends of their edges.  R's
are P's read backwards through the bijection p_to_r.  P/K is the T/I
group on the 24 triads (Crans, Fiore and Satyendra 2009): P acts on
them through it, trivially exactly on K, and d12_compose, d12_inverse
and d12_order are composition, inversion and order of one triad
permutation per coset.  P, L and R permute the triads as its dual
(Lewin), and S3~'s translations are the index-3 sublattice of P's.
These sweeps are still here, not in verify's riemann-p suite, though
moving them would now re-pin only that suite's row: the triad checks
take about 10 ms in process on a 2-CPU Xeon, against 4.5 ms for
riemann-p and 39 ms for every suite at radius 6.
"""

import pytest

from tonnetz.lattice import BASE_TRIANGLE, IDENTITY_ISOMETRY, Edge, Triangle, perm_to_iso, wall_flip
from tonnetz.progressions import apply_move
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
from tonnetz.subgroups import translation_perm

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


def test_p_acts_faithfully_by_lattice_isometries():
    isometries = {x: p_isometry(x) for x in P_BOX}
    assert len(set(isometries.values())) == len(P_BOX)
    for x in P_BOX:
        inv = p_inverse(x)
        assert type(inv) is PElement and p_isometry(inv) * isometries[x] == IDENTITY_ISOMETRY, x
        for y in P_BOX:
            xy = p_compose(x, y)
            assert type(xy) is PElement, (x, y)
            assert p_isometry(xy) == isometries[x] * isometries[y], (x, y)


def test_p_to_r_reverses_products():
    for x in P_BOX:
        for y in P_BOX:
            assert p_to_r(p_compose(x, y)) == r_compose(p_to_r(y), p_to_r(x)), (x, y)


def test_r_products_and_inverses_are_p_s_through_p_to_r():
    for x in P_BOX:
        inv = r_inverse(p_to_r(x))
        assert type(inv) is RElement and inv == p_to_r(p_inverse(x)), x
    assert all(type(r_compose(x, y)) is RElement for x in BOX for y in BOX)


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
TRIAD_INDEX = {s: i for i, s in enumerate(sorted({triad(t) for t in TRIAD_TRIANGLES}))}
IDENTITY_PERM = tuple(range(24))


def triad_perm(move):
    """The permutation of the 24 triads, as the tuple of their images, that
    move, a map of triangles, induces; all that name one triad go to one."""
    images = [None] * 24
    for t in TRIAD_TRIANGLES:
        i, image = TRIAD_INDEX[triad(t)], TRIAD_INDEX[triad(move(t))]
        assert images[i] in (None, image), t
        images[i] = image
    return tuple(images)


def after(s, t):
    """The permutation s after t."""
    return tuple(s[i] for i in t)


def inverse(s):
    return tuple(sorted(range(len(s)), key=s.__getitem__))


def order(s):
    g, k = s, 1
    while g != IDENTITY_PERM:
        g, k = after(g, s), k + 1
    return k


def generated(generators):
    """The group of permutations that generators generate."""
    group = {IDENTITY_PERM}
    while True:
        grown = group | {after(s, g) for s in generators for g in group}
        if grown == group:
            return group
        group = grown


@pytest.fixture(scope="module")
def coset_perms():
    """Each coset of P/K's triad permutation, read off its representative in P."""
    cosets = [D12Coset(a, b, fl) for a in range(3) for b in range(4) for fl in (False, True)]
    return {c: triad_perm(p_isometry(PElement(*c)).apply_triangle) for c in cosets}


def test_p_acts_on_the_24_triads_through_its_quotient():
    assert len(TRIAD_INDEX) == 24
    actions = {}
    for x in (PElement(a, b, fl) for a in range(-8, 9) for b in range(-8, 9) for fl in (False, True)):
        perm = triad_perm(p_isometry(x).apply_triangle)
        assert (perm == IDENTITY_PERM) == in_comma_subgroup(x), x
        actions.setdefault(project_d12(x), set()).add(perm)
    assert len(actions) == 24
    assert all(len(alike) == 1 for alike in actions.values())
    assert len(set().union(*actions.values())) == 24


def test_quotient_laws_are_the_triad_permutations(coset_perms):
    # the cosets act in 24 distinct ways, so each law is read off them
    assert len(set(coset_perms.values())) == 24
    for x, s in coset_perms.items():
        assert coset_perms[d12_inverse(x)] == inverse(s), x
        assert d12_order(x) == order(s), x
        for y, t in coset_perms.items():
            assert coset_perms[d12_compose(x, y)] == after(s, t), (x, y)


def test_projection_homomorphism(coset_perms):
    # the coset of a product acts on the triads as the product's factors do
    small = [PElement(a, b, fl) for a in (-2, 0, 1) for b in (-1, 0, 2) for fl in (False, True)]
    for x in small:
        for y in small:
            xy = project_d12(p_compose(x, y))
            assert xy == d12_compose(project_d12(x), project_d12(y)), (x, y)
            s, t = coset_perms[project_d12(x)], coset_perms[project_d12(y)]
            assert coset_perms[xy] == after(s, t), (x, y)


# the dihedral structure of the quotient, read on its triad permutations
def test_rotation_order_twelve(coset_perms):
    assert D12_ROTATION == PElement(1, -1, False)
    assert order(coset_perms[project_d12(D12_ROTATION)]) == 12


def test_dihedral_relation(coset_perms):
    h = coset_perms[project_d12(D12_ROTATION)]
    rho = coset_perms[project_d12(D12_REFLECTION)]
    assert order(rho) == 2
    assert after(after(rho, h), inverse(rho)) == inverse(h)


def test_quotient_is_generated_by_h_and_rho(coset_perms):
    h = coset_perms[project_d12(D12_ROTATION)]
    rho = coset_perms[project_d12(D12_REFLECTION)]
    assert generated([h, rho]) == set(coset_perms.values())


def test_plr_is_dual_to_the_quotient(coset_perms):
    plr = [triad_perm(lambda t, m=m: apply_move(t, m)) for m in "PLR"]
    group = generated(plr)
    # simply transitive: 24 elements, each taking the first triad elsewhere
    assert len(group) == 24
    assert sorted(g[0] for g in group) == list(IDENTITY_PERM)
    for s in plr:
        for c in coset_perms.values():
            assert after(s, c) == after(c, s)


def test_s3_translations_have_index_3_in_p():
    # P's translations shift the lattice by every vector, S3~'s by those
    # (x, y) with x = y mod 3: one class of three
    box = range(-6, 7)
    s3 = [perm_to_iso(translation_perm((e1, e2))) for e1 in box for e2 in box]
    p = [p_isometry(PElement(a, b, False)) for a in range(-12, 13) for b in range(-12, 13)]
    assert all(iso.m == IDENTITY_ISOMETRY.m for iso in s3 + p)
    s3_shifts = {iso.v for iso in s3}
    assert all((x - y) % 3 == 0 for x, y in s3_shifts)
    square = {(x, y) for x in box for y in box}
    assert s3_shifts & square == {(x, y) for x, y in square if (x - y) % 3 == 0}
    assert len(s3_shifts & square) == 57
    assert square <= {iso.v for iso in p}


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
