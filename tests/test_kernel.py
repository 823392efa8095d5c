"""Closed-form kernel against independent oracles.

Each O(1) formula is compared with the routine it replaced, kept here as
a reference: the isometry multiplied out along the reduced word, the
translation built by repeated multiplication, and the shortest PLR word
found by breadth-first search.  The layered BFS behind ball,
triangle_ball and gallery_distance_bfs is compared with the hand-written
loops it replaced, and reduced_word, whose descent walk jumps over each
periodic run by a few floor divisions, with stripping the smallest descent
one letter at a time, on seeded elements of length up to 2561 and up to
the 2,000,000-letter cap.  Wall flips and the hexagon cycles read
off the six-triangle ring are compared with right multiplication of
windows, the strip-offset walk of plr_path with the BFS word and with
the greedy rule over apply_move, and the progression analyzer's ranking
with the loop over nine chord names, near the origin and at roots up
to 10^12 or comma levels up to 10^6.
Order, parity and type, read off the finite factor sigma, are compared
with multiplying up to six times and counting residue inversions.
Stripes from their three-row table are compared with the branch ladder
they replaced; the D12 quotient's product and inverse, taken through
P's law, with their own mod arithmetic, and its closed-form order with
multiplying up; length_layers with counting the ball by length; and
class_vertex with scanning the triangle's vertices.  The one-pass
coordinate maps are compared with the scans and searches they replaced:
inverse and center_coords with placing window entries by residue,
triangle_to_perm with trying three entries per axis, and the lattice
route with three times the centroid.
Whole balls are checked exhaustively; hypothesis covers long random
words, distant triangle pairs and chord progressions.
"""

import importlib
import os
import pkgutil
import random
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tonnetz
from tonnetz.core import (
    FINITE_WORDS,
    GENERATOR_INDICES,
    IDENTITY,
    AffinePermutation,
    ElementType,
    TriangleCoords,
    ball,
    from_word,
    length_layers,
    right_mult_generator,
    translation_factor,
    triangle_to_perm,
)
from tonnetz.lattice import (
    BASE_TRIANGLE,
    IDENTITY_ISOMETRY,
    Isometry,
    Triangle,
    class_vertex,
    gallery_distance_bfs,
    generator_isometry,
    geometric_coords,
    neighbors,
    perm_of,
    perm_to_iso,
    triangle_ball,
    triangle_from_coords,
    triangle_from_vertices,
    triangle_of,
    vertex_class,
    wall_flip,
)
from tonnetz.pitch import (
    ChordName,
    NoteName,
    chord_triangle,
    name_triangle,
    parse_chord,
    spell_vertex,
)
from tonnetz.progressions import (
    StripeKind,
    analyze,
    apply_move,
    apply_plr,
    plr_path,
    stripe,
    triangle_distance,
    vertex_cycle,
)
from tonnetz.render import RenderSpec
from tonnetz.riemann import D12Coset, d12_compose, d12_inverse, d12_order
from tonnetz.subgroups import (
    FiniteS3Element,
    coset_mod_T,
    decompose,
    hexagon_of,
    is_translation,
    translation_coords,
    translation_generator,
    translation_perm,
)

BALL = ball(8)
TRIANGLES = sorted(triangle_ball(BASE_TRIANGLE, 5))
PAIRS = [(a, b) for a in TRIANGLES for b in TRIANGLES]

long_words = st.lists(st.sampled_from([1, 2, 3]), max_size=200)
exponents = st.integers(min_value=-40, max_value=40)


def seeded_element(length, sigma):
    """An element of the given length whose finite factor has the word sigma.

    A seeded ascent walk: each step right-multiplies by a generator that
    lengthens the element; walks are redrawn until one ends in sigma's coset.
    """
    rng = random.Random(length)
    while True:
        f = IDENTITY
        for _ in range(length):
            steps = [right_mult_generator(f, i) for i in GENERATOR_INDICES]
            f = rng.choice([g for g in steps if g.length() > f.length()])
        if translation_factor(f)[2] == sigma:
            return f


# the benchmark's rungs L = 160 and 2560, one letter longer for the odd
# cosets, since an element's length has the parity of its finite factor
LONG_ELEMENTS = [
    (length + len(sigma) % 2, sigma) for length in (160, 2560) for sigma in FINITE_WORDS
]


# --- reference routines -------------------------------------------------------


def ref_iso(f):
    """The isometry multiplied out along the reduced word."""
    iso = IDENTITY_ISOMETRY
    for i in f.reduced_word():
        iso = iso * generator_isometry(i)
    return iso


def ref_triangle(f):
    iso = ref_iso(f)
    return triangle_from_vertices({iso.apply(x) for x in BASE_TRIANGLE.vertices()})


def ref_translation_perm(vec):
    """t1^e1 * t2^e2 by repeated multiplication."""
    e1, e2 = vec
    g = IDENTITY
    t1, t2 = translation_generator(1), translation_generator(2)
    step1 = t1 if e1 >= 0 else t1.inverse()
    for _ in range(abs(e1)):
        g = g * step1
    step2 = t2 if e2 >= 0 else t2.inverse()
    for _ in range(abs(e2)):
        g = g * step2
    return g


def ref_plr_path(start, goal):
    """Breadth-first search trying P, L, R in that order."""
    if start == goal:
        return ""
    parent = {start: (start, "")}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for letter in "PLR":
            nb = apply_move(t, letter)
            if nb in parent:
                continue
            parent[nb] = (t, letter)
            if nb == goal:
                letters = []
                cur = nb
                while cur != start:
                    cur, letter = parent[cur]
                    letters.append(letter)
                return "".join(letters)
            queue.append(nb)
    raise AssertionError("flip graph is connected")


def ref_ball(radius):
    """Elements of length <= radius, layer by layer, generators in index order."""
    seen = {IDENTITY}
    frontier = [IDENTITY]
    out = [IDENTITY]
    for _ in range(radius):
        nxt = []
        for f in frontier:
            for i in GENERATOR_INDICES:
                g = right_mult_generator(f, i)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
                    out.append(g)
        frontier = nxt
    return out


def ref_triangle_ball(center, radius):
    """Triangles within the flip distance, layer by layer, with distances."""
    dist = {center: 0}
    frontier = [center]
    for d in range(1, radius + 1):
        nxt = []
        for t in frontier:
            for nb in neighbors(t):
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return dist


def ref_gallery_distance(t1, t2):
    """Flip distance by a queue-driven BFS that stops at the first hit."""
    if t1 == t2:
        return 0
    seen = {t1}
    queue = deque([(t1, 0)])
    while queue:
        t, d = queue.popleft()
        for nb in neighbors(t):
            if nb == t2:
                return d + 1
            if nb not in seen:
                seen.add(nb)
                queue.append((nb, d + 1))
    raise AssertionError("flip graph is connected")


def ref_reduced_word(f):
    """Strip the smallest right descent, found by length, until the identity."""
    letters = []
    g = f
    while g != IDENTITY:
        i = min(i for i in GENERATOR_INDICES if right_mult_generator(g, i).length() < g.length())
        letters.append(i)
        g = right_mult_generator(g, i)
    return tuple(reversed(letters))


def ref_vertex_cycle(t, v):
    """Right-multiply t's element by the pair of v's class; map each back.

    Walking a triangle's coset of the parabolic subgroup fixing its class-c
    vertex circles that vertex; the pair gives the alternating generators.
    """
    i, j = {0: (2, 1), 1: (1, 3), 2: (3, 2)}[vertex_class(v)]
    elems = [perm_of(t)]
    for k in range(5):
        elems.append(right_mult_generator(elems[-1], i if k % 2 == 0 else j))
    return tuple(triangle_of(g) for g in elems)


def ref_placements(symbols, default_comma):
    """Each chord's (name, triangle), ranking nine built chord names per chord."""
    out = []
    prev = None
    for symbol in symbols:
        chord, t = parse_chord(symbol, default_comma)
        if prev is not None and "[q=" not in symbol:
            prev_comma = spell_vertex(prev.root).comma
            best = None
            for q in range(prev_comma - 4, prev_comma + 5):
                cand = ChordName(NoteName(chord.root.fifth_index, q), chord.minor)
                cand_t = chord_triangle(cand)
                key = (triangle_distance(prev, cand_t), abs(q), q)
                if best is None or key < best[0]:
                    best = (key, cand, cand_t)
            _, chord, t = best
        out.append((chord, t))
        prev = t
    return out


def ref_order(f):
    """The least k <= 6 with f^k = e, multiplying up; None if there is none."""
    g = f
    for k in range(1, 7):
        if g == IDENTITY:
            return k
        g = g * f
    return None


def ref_is_even(f):
    """Parity of the permutation the window residues make of the identity's (2, 0, 1)."""
    slot_of = {2: 0, 0: 1, 1: 2}
    seq = [slot_of[v % 3] for v in f.window]
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if seq[i] > seq[j])
    return inversions % 2 == 0


def ref_classify(f):
    """The type from ref_order, and from ref_is_even for infinite order."""
    if f == IDENTITY:
        return ElementType.IDENTITY
    order = ref_order(f)
    if order == 2:
        return ElementType.REFLECTION
    if order == 3:
        return ElementType.ROTATION
    if ref_is_even(f):
        return ElementType.TRANSLATION
    return ElementType.GLIDE_REFLECTION


def ref_distance(t1, t2):
    """Length of the reduced word of the element relating the triangles."""
    return len((perm_of(t1).inverse() * perm_of(t2)).reduced_word())


def ref_stripe_member(seed, kind, k):
    """Member k of the stripe through seed, one branch per kind and orientation."""
    p, q = seed.root
    if kind is StripeKind.FIFTHS:
        if seed.up:
            if k % 2 == 0:
                return Triangle((p + k // 2, q), up=True)
            return Triangle((p + (k - 1) // 2, q + 1), up=False)
        if k % 2 == 0:
            return Triangle((p + k // 2, q), up=False)
        return Triangle((p + (k + 1) // 2, q - 1), up=True)
    if kind is StripeKind.HEXATONIC:
        if seed.up:
            if k % 2 == 0:
                return Triangle((p, q + k // 2), up=True)
            return Triangle((p, q + (k + 1) // 2), up=False)
        if k % 2 == 0:
            return Triangle((p, q + k // 2), up=False)
        return Triangle((p, q + (k - 1) // 2), up=True)
    if seed.up:
        if k % 2 == 0:
            return Triangle((p + k // 2, q - k // 2), up=True)
        return Triangle((p + (k - 1) // 2, q - (k - 1) // 2), up=False)
    if k % 2 == 0:
        return Triangle((p + k // 2, q - k // 2), up=False)
    return Triangle((p + (k + 1) // 2, q - (k + 1) // 2), up=True)


def ref_d12_compose(x, y):
    """The coset product with its own sign rule, reduced mod 3 and mod 4."""
    sign = -1 if x.flip else 1
    return D12Coset((x.a + sign * y.a) % 3, (x.b + sign * y.b) % 4, x.flip ^ y.flip)


def ref_d12_inverse(x):
    if x.flip:
        return x
    return D12Coset(-x.a % 3, -x.b % 4, False)


def ref_d12_order(x):
    """The least k <= 24 with x^k = e, multiplying up."""
    g = x
    for k in range(1, 25):
        if g == D12Coset(0, 0, False):
            return k
        g = ref_d12_compose(g, x)
    raise AssertionError("the quotient has 24 elements")


def ref_length_layers(radius):
    """Elements of ball(radius) counted by length."""
    counts = [0] * (radius + 1)
    for f in ball(radius):
        counts[f.length()] += 1
    return counts


def ref_class_vertex(t, cls):
    """The vertex of t whose class is cls, by testing each vertex."""
    for v in t.vertices():
        if vertex_class(v) == cls:
            return v
    raise ValueError(f"triangle {t} has no class-{cls} vertex")


def ref_inverse(f):
    """f(p) = v puts p + (n - v) at the position n in {-1, 0, 1} congruent to v."""
    out = [0, 0, 0]
    for p, v in zip((-1, 0, 1), f.window):
        r = v % 3
        target = r if r != 2 else -1
        out[target + 1] = p + (target - v)
    return AffinePermutation(*out)


def ref_center_coords(f):
    """Find the window entry of each residue class, adjusted by its slot."""
    a, b, c = f.window
    out = []
    for i in GENERATOR_INDICES:
        r = i % 3
        if a % 3 == r:
            out.append(a + 1)
        elif b % 3 == r:
            out.append(b)
        else:
            out.append(c - 1)
    return TriangleCoords(*out)


def ref_triangle_to_perm(coords):
    """Try entries c - 1, c, c + 1 on each axis; the offsets pick the slots."""
    c1, c2, c3 = coords
    slots = {}
    for i, ci in zip(GENERATOR_INDICES, (c1, c2, c3)):
        for entry in (ci - 1, ci, ci + 1):
            if entry % 3 == i % 3:
                offset = entry - ci
                if offset in slots:
                    raise ValueError(f"{(c1, c2, c3)} is not a triangle center")
                slots[offset] = entry
                break
    return AffinePermutation(slots[-1], slots[0], slots[1])


def ref_centroid3(t):
    """Three times the centroid, in lattice coordinates."""
    p, q = t.root
    if t.up:
        return (3 * p + 1, 3 * q + 1)
    return (3 * p + 2, 3 * q - 1)


def ref_geometric_coords(t):
    """Axis coordinates of the centroid, shifted so the base triangle is 0."""
    cp, cq = ref_centroid3(t)
    dp, dq = cp - 1, cq - 1
    return TriangleCoords(-(2 * dp + dq) // 3, (dp + 2 * dq) // 3, (dp - dq) // 3)


def ref_triangle_from_coords(coords):
    """Back to three times the centroid; its residue tells the orientation."""
    _, c2, c3 = coords
    dq = c2 - c3
    dp = c2 + 2 * c3
    cp, cq = dp + 1, dq + 1
    if cp % 3 == 1:
        return Triangle(((cp - 1) // 3, (cq - 1) // 3), up=True)
    return Triangle(((cp - 2) // 3, (cq + 1) // 3), up=False)


def outcome(fn, *args):
    """The repr of fn(*args), or the ValueError it raises."""
    try:
        return repr(fn(*args))
    except ValueError as e:
        return f"ValueError: {e}"


def check_sigma_reads(f):
    assert f.order() == ref_order(f)
    assert f.is_even() == ref_is_even(f)
    assert f.classify() is ref_classify(f)


def check_element(f):
    check_sigma_reads(f)
    assert f.reduced_word() == ref_reduced_word(f)
    assert f.length() == len(f.reduced_word())
    assert perm_to_iso(f) == ref_iso(f)
    assert triangle_of(f) == ref_triangle(f)
    vec, sigma = decompose(f)
    assert translation_perm(vec) * sigma.perm == f
    translation_cosets = [
        tau for tau in FiniteS3Element if ref_iso(f * tau.inverse().perm).m == (1, 0, 0, 1)
    ]
    assert translation_cosets == [sigma]
    assert coset_mod_T(f) is sigma
    assert hexagon_of(f).base == vec
    assert is_translation(f) == (ref_iso(f).m == (1, 0, 0, 1))
    if is_translation(f):
        assert translation_coords(f) == vec


def check_translation(vec):
    t = translation_perm(vec)
    assert t == ref_translation_perm(vec)
    assert is_translation(t)
    assert translation_coords(t) == tuple(vec)


# --- exhaustive over balls ----------------------------------------------------


def test_finite_words_are_the_finite_subgroup():
    assert {el.word for el in FiniteS3Element} == set(FINITE_WORDS)
    assert len({from_word(w).residues for w in FINITE_WORDS}) == 6


def test_ball_elements():
    for f in BALL:
        check_element(f)
        assert f.length() == gallery_distance_bfs(BASE_TRIANGLE, triangle_of(f))


def test_order_parity_classify_are_the_loops():
    elems = ball(12)
    for f in elems:
        check_sigma_reads(f)
    assert {f.classify() for f in elems} == set(ElementType)


def test_translation_box():
    for e1 in range(-6, 7):
        for e2 in range(-6, 7):
            check_translation((e1, e2))


def test_translation_factor_recombines():
    for f in BALL:
        e1, e2, word = translation_factor(f)
        assert translation_perm((e1, e2)) * from_word(word) == f


def test_length_layers_count_the_triangle_ball():
    dist = triangle_ball(BASE_TRIANGLE, 8)
    assert length_layers(8) == [sum(1 for d in dist.values() if d == k) for k in range(9)]


def test_length_layers_is_the_ball_count():
    for r in range(31):
        assert length_layers(r) == ref_length_layers(r)
    with pytest.raises(ValueError, match="^radius must be non-negative$"):
        length_layers(-1)


def test_stripe_is_the_branch_ladder():
    seeds = sorted(triangle_ball(BASE_TRIANGLE, 8)) + [Triangle((1000, -999), up=False)]
    for kind in StripeKind:
        for seed in seeds:
            for count in range(10):
                expected = [ref_stripe_member(seed, kind, k) for k in range(-count, count + 1)]
                members = stripe(seed, kind, count)
                assert members == expected
                assert [type(t.up) for t in members] == [bool] * len(members)


def test_d12_is_the_mod_arithmetic():
    cosets = [D12Coset(a, b, fl) for a in range(3) for b in range(4) for fl in (False, True)]
    assert len(cosets) == 24
    for x in cosets:
        assert d12_inverse(x) == ref_d12_inverse(x)
        assert d12_order(x) == ref_d12_order(x)
        for y in cosets:
            assert d12_compose(x, y) == ref_d12_compose(x, y)


def test_class_vertex_is_the_vertex_scan():
    for t in triangle_ball(BASE_TRIANGLE, 8):
        for cls in (0, 1, 2):
            assert class_vertex(t, cls) == ref_class_vertex(t, cls)
    for cls in (3, -1):
        with pytest.raises(ValueError, match=f"no class-{cls} vertex"):
            class_vertex(BASE_TRIANGLE, cls)


def test_window_maps_are_the_residue_scans():
    for f in ball(12):
        assert outcome(f.inverse) == outcome(ref_inverse, f)
        assert outcome(f.center_coords) == outcome(ref_center_coords, f)
        assert perm_to_iso(f) == ref_iso(f)


def test_lattice_coords_are_the_centroid_route():
    for t in triangle_ball(BASE_TRIANGLE, 12):
        assert outcome(geometric_coords, t) == outcome(ref_geometric_coords, t)


def test_coordinate_inverses_are_the_searches():
    box = range(-9, 10)
    seen = []
    for coords in ((c1, c2, c3) for c1 in box for c2 in box for c3 in box):
        expected = outcome(ref_triangle_to_perm, coords)
        assert outcome(triangle_to_perm, coords) == expected
        # the reference maps every triple; only a center may reach a triangle
        want = outcome(ref_triangle_from_coords, coords)
        if expected.startswith("ValueError"):
            want = f"ValueError: {coords} is not a triangle center"
        assert outcome(triangle_from_coords, coords) == want
        seen.append(expected)
    # the box holds centers, repeated slots and sums other than zero
    assert any(s.startswith("AffinePermutation(") for s in seen)
    assert any(s.endswith("is not a triangle center") for s in seen)
    assert any(s.endswith("does not sum to zero") for s in seen)


def test_ball_is_the_layer_loop():
    assert ball(8) == ref_ball(8)


@pytest.mark.parametrize("center", [BASE_TRIANGLE, Triangle((3, -2), up=False)])
def test_triangle_ball_is_the_layer_loop(center):
    assert list(triangle_ball(center, 6).items()) == list(ref_triangle_ball(center, 6).items())


def test_gallery_distance_bfs_is_the_queue_bfs():
    small = list(triangle_ball(BASE_TRIANGLE, 4))
    for a in small:
        for b in small:
            d = gallery_distance_bfs(a, b)
            assert d == ref_gallery_distance(a, b) == triangle_distance(a, b)


def test_gallery_distance_bfs_edge_cases():
    for t in TRIANGLES:
        assert gallery_distance_bfs(t, t) == 0
        for nb in neighbors(t):
            assert gallery_distance_bfs(t, nb) == gallery_distance_bfs(nb, t) == 1


def test_gallery_distance_bfs_holds_two_balls():
    # one bitmask ball per side, each on its own frame of about (h + 2)^2 bits
    far = triangle_of(translation_perm((40, 0)))
    tracemalloc.start()
    try:
        d = gallery_distance_bfs(BASE_TRIANGLE, far)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d == 160
    assert peak < 1_000_000


def test_triangle_value_semantics():
    t = Triangle((1, -2), up=False)
    assert repr(t) == "Triangle(root=(1, -2), up=False)"
    assert t == Triangle(root=(1, -2), up=False) and hash(t) == hash(Triangle((1, -2), False))
    assert sorted(TRIANGLES) == sorted(TRIANGLES, key=lambda s: (s.root, s.up))
    assert sorted([t, Triangle((1, -2), up=True), Triangle((0, 5), up=True)]) == [
        Triangle((0, 5), up=True),
        Triangle((1, -2), up=False),
        Triangle((1, -2), up=True),
    ]
    with pytest.raises(AttributeError):
        t.up = True


def test_note_and_chord_name_value_semantics():
    n = NoteName(-3, 1)
    c = ChordName(n, minor=True)
    assert repr(n) == "NoteName(fifth_index=-3, comma=1)"
    assert repr(c) == "ChordName(root=NoteName(fifth_index=-3, comma=1), minor=True)"
    assert n == NoteName(fifth_index=-3, comma=1) == (-3, 1)
    assert c == ChordName(root=NoteName(-3, 1), minor=True) == ((-3, 1), True)
    assert hash(n) == hash((-3, 1)) and hash(c) == hash(((-3, 1), True))
    assert sorted([NoteName(1, 0), NoteName(-3, 2), n]) == [n, NoteName(-3, 2), NoteName(1, 0)]
    chords = [ChordName(NoteName(0, 0), True), ChordName(NoteName(0, 0), False), c]
    assert sorted(chords) == [c, chords[1], chords[0]]
    with pytest.raises(AttributeError):
        n.comma = 0
    with pytest.raises(AttributeError):
        c.minor = False


def test_element_value_semantics():
    f = AffinePermutation(-3, 1, 2)
    assert repr(f) == "AffinePermutation(a=-3, b=1, c=2)"
    assert f == AffinePermutation(a=-3, b=1, c=2) == (-3, 1, 2)
    assert hash(f) == hash(f.window) and type(f.window) is tuple
    elems = ball(4)
    assert sorted(elems) == sorted(elems, key=lambda g: g.window)
    iso = perm_to_iso(f)
    assert repr(iso) == "Isometry(m=(0, 1, -1, -1), v=(-1, 2))"
    assert iso == Isometry(m=(0, 1, -1, -1), v=(-1, 2)) == ((0, 1, -1, -1), (-1, 2))
    assert hash(iso) == hash(((0, 1, -1, -1), (-1, 2)))
    with pytest.raises(AttributeError):
        f.a = 0
    with pytest.raises(AttributeError):
        iso.v = (0, 0)
    for product in (lambda: 3 * f, lambda: f + f, lambda: 3 * iso, lambda: iso + iso):
        with pytest.raises(TypeError):
            product()
    with pytest.raises(ValueError, match=r"^window \(1, 2, 3\) does not sum to zero$"):
        AffinePermutation(1, 2, 3)
    once = r"^window \(0, 0, 0\) must meet each residue class mod 3 once$"
    with pytest.raises(ValueError, match=once):
        AffinePermutation(0, 0, 0)
    with pytest.raises(ValueError, match="^radius must be non-negative$"):
        RenderSpec(BASE_TRIANGLE, -1)
    styles = r"\['accent', 'center', 'path', 'warm'\]"
    with pytest.raises(ValueError, match=rf"^unknown style 'neon'; choose from {styles}$"):
        RenderSpec(BASE_TRIANGLE, 1, highlights=((BASE_TRIANGLE, "neon"),))
    with pytest.raises(ValueError, match="^path letters must be P, L or R, got 'Q'$"):
        RenderSpec(BASE_TRIANGLE, 1, path="PLQ")
    assert RenderSpec(BASE_TRIANGLE, 1) == RenderSpec(center=BASE_TRIANGLE, radius=1, path="")
    for a, b in ((3, 0), (0, 4), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=rf"^coset exponents out of range: \({a}, {b}\)$"):
            D12Coset(a, b, False)


def test_library_import_loads_no_dataclasses():
    # the library's value types are named tuples and each CLI command
    # imports only the modules it runs; dataclasses, with the inspect
    # module it imports, would add to every interpreter's start-up
    code = (
        "import sys, tonnetz\n"
        "if sys.argv[1:]:\n"
        "    import tonnetz.cli\n"
        "    assert tonnetz.cli.main(sys.argv[1:]) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = str(Path(tonnetz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv in (
        [],
        ["classify", "[1,-3,2]"],
        ["chord", "C"],
        ["path", "C", "G"],
        ["riemann", "mult", "Q^1", "W"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert "dataclasses" not in loaded, argv
        assert "tonnetz.verify" not in loaded and "tonnetz.render" not in loaded, argv
        assert ("tonnetz.progressions" in loaded) == (argv[:1] == ["path"]), argv
        if not argv:
            assert {m for m in loaded if m.startswith("tonnetz")} == {"tonnetz"}


# the package's re-exports at the time the package stopped importing its
# submodules eagerly, by the submodule that defines each
PACKAGE_EXPORTS = {
    "core": """AffinePermutation ElementType IDENTITY TriangleCoords ball
        format_window format_word from_word generator identity length_layers
        parse_window parse_word triangle_to_perm""",
    "lattice": """BASE_TRIANGLE Edge Isometry Triangle Vertex flip format_triangle
        gallery_distance_bfs geometric_coords neighbors parse_triangle perm_of
        perm_to_iso triangle_ball triangle_from_coords triangle_from_vertices
        triangle_of vertex_class wall_flip""",
    "pitch": """ChordName ChordParseError NoteName chord_tones chord_triangle
        format_chord format_note name_triangle parse_chord pitch_class
        spell_vertex vertex_of""",
    "progressions": """HexagonCycle ProgressionReport ProgressionStep StripeKind
        analyze apply_plr hexagon_cycle plr_path rotation_cycle stripe
        translation_cycle triangle_distance vertex_cycle""",
    "render": "LabelMode RenderSpec render_svg",
    "riemann": """D12Coset PElement RElement in_comma_subgroup p_compose p_to_r
        project_d12 r_compose""",
    "subgroups": """FiniteS3Element HexagonId NotATranslationError
        TranslationVector decompose hexagon_of is_translation translation_coords
        translation_generator translation_perm""",
}
EXPORT_HOME = {n: m for m, names in PACKAGE_EXPORTS.items() for n in names.split()}


def test_lazy_package_surface(monkeypatch):
    assert len(EXPORT_HOME) == 79
    # forget every cached export, so each lookup below goes through __getattr__
    for name in EXPORT_HOME:
        monkeypatch.delitem(vars(tonnetz), name, raising=False)
    assert set(dir(tonnetz)) >= set(EXPORT_HOME) | set(PACKAGE_EXPORTS) | {"__version__"}
    modules = {m.name for m in pkgutil.iter_modules(tonnetz.__path__)}
    for name in tonnetz.__all__:
        value = getattr(tonnetz, name)
        if name in modules:
            assert value is importlib.import_module(f"tonnetz.{name}")
        else:
            assert value is getattr(importlib.import_module(f"tonnetz.{EXPORT_HOME[name]}"), name)
    assert set(tonnetz.__all__) == set(EXPORT_HOME) | modules
    assert set(EXPORT_HOME) <= set(vars(tonnetz))  # each lookup is cached
    assert getattr(tonnetz, "verify") is importlib.import_module("tonnetz.verify")
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tonnetz.no_such_name
    namespace = {}
    exec("from tonnetz import *", namespace)
    assert all(namespace[name] is getattr(tonnetz, name) for name in EXPORT_HOME)


def test_wall_flip_is_right_multiplication():
    for t in triangle_ball(BASE_TRIANGLE, 8):
        f = perm_of(t)
        for i in GENERATOR_INDICES:
            assert wall_flip(t, i) == triangle_of(right_mult_generator(f, i))
    with pytest.raises(ValueError):
        wall_flip(BASE_TRIANGLE, 4)


def test_vertex_cycle_is_the_window_walk():
    for t in triangle_ball(BASE_TRIANGLE, 8):
        for v in t.vertices():
            cyc = vertex_cycle(t, v)
            assert cyc.triangles == ref_vertex_cycle(t, v)
            assert cyc.chords == tuple(name_triangle(u) for u in cyc.triangles)
            assert cyc.center == v and cyc.common_tone == spell_vertex(v)


def test_triangle_distance_is_bfs_distance():
    for a, b in PAIRS:
        assert triangle_distance(a, b) == gallery_distance_bfs(a, b)


def test_plr_path_is_the_bfs_word():
    for a, b in PAIRS:
        assert plr_path(a, b) == ref_plr_path(a, b)


# --- hypothesis over long words -----------------------------------------------


@settings(max_examples=150, deadline=None)
@given(long_words)
# reduced words whose walk finds a run: no round follows it, exactly one
# round follows it, or it runs until the walk ends, with an even block
# (3121) and an odd one (312, jumped as 312312)
@example([1, 3, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1])
@example([1, 3, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1])
@example([3, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1])
@example([3, 1, 2] * 6)
def test_long_word_element(word):
    f = from_word(word)
    check_element(f)
    assert f.length() <= len(word)
    assert f.length() % 2 == len(word) % 2


@pytest.mark.parametrize(
    "length, sigma",
    LONG_ELEMENTS,
    ids=[f"L{length}-" + ("".join(map(str, sigma)) or "e") for length, sigma in LONG_ELEMENTS],
)
def test_long_reduced_word_is_the_descent_walk(length, sigma):
    f = seeded_element(length, sigma)
    assert f.length() == length and translation_factor(f)[2] == sigma
    assert f.reduced_word() == ref_reduced_word(f)


def test_reduced_word_at_the_letter_cap():
    # the longest word the CLI prints, the value of cli.LIMITS["word_letters"]
    f = AffinePermutation(1499999, -1500000, 1)
    word = f.reduced_word()
    assert len(word) == f.length() == 2_000_000
    assert from_word(word) == f


@settings(max_examples=150, deadline=None)
@given(exponents, exponents)
def test_long_translation(e1, e2):
    check_translation((e1, e2))


@settings(max_examples=100, deadline=None)
@given(long_words, long_words)
def test_long_range_distance_and_path(u, v):
    a, b = triangle_of(from_word(u)), triangle_of(from_word(v))
    d = triangle_distance(a, b)
    assert d == ref_distance(a, b)
    word = plr_path(a, b)
    assert len(word) == d
    assert apply_plr(a, word) == b


near_triangles = st.builds(
    Triangle, st.tuples(st.integers(-8, 8), st.integers(-8, 8)), st.booleans()
)


@settings(max_examples=100, deadline=None)
@given(near_triangles, near_triangles)
# an up and a down triangle can share a root, which is all a BFS layer keys
# on: U(0,1) is two flips from U(0,0), but D(0,1), one flip away, has its root
@example(Triangle((0, 0), up=True), Triangle((0, 1), up=True))
@example(Triangle((0, 0), up=True), Triangle((0, 0), up=False))
@example(Triangle((3, -2), up=False), Triangle((3, -2), up=True))
# 2h + 1 flips, where h = max(|dp|, |dq|, |dp + dq|), the most the search's
# depth bound allows, so one side ends exactly at depth h + 1: on the
# diagonal p = -q, where h = |dp| = |dq|, then where |dp + dq|, |dp| or |dq|
# alone is h
@example(Triangle((0, 0), up=True), Triangle((5, -5), up=False))
@example(Triangle((0, 0), up=False), Triangle((-5, 5), up=True))
@example(Triangle((0, 0), up=True), Triangle((80, -80), up=False))
@example(Triangle((0, 0), up=False), Triangle((1, 1), up=True))
@example(Triangle((0, 0), up=False), Triangle((3, 2), up=True))
@example(Triangle((0, 0), up=False), Triangle((40, 40), up=True))
@example(Triangle((0, 0), up=True), Triangle((5, -2), up=False))
@example(Triangle((0, 0), up=False), Triangle((-2, 5), up=True))
# the same orientation on the diagonal: 2h flips
@example(Triangle((0, 0), up=True), Triangle((9, -9), up=True))
# the frame is relative to the roots, so far roots cost nothing extra
@example(Triangle((10**12, -(10**12)), up=True), Triangle((10**12 + 1, 2 - 10**12), up=False))
# |dq| near h: shifted into the other side's frame, most of a ball's columns
# would wrap into the next or the previous row, and only the column mask keeps
# them from meeting early; b's root after a's (c >= 0), then before it (c < 0)
@example(Triangle((-1, -5), up=True), Triangle((0, 0), up=False))
@example(Triangle((0, 0), up=False), Triangle((1, -7), up=True))
@example(Triangle((0, 0), up=True), Triangle((-1, 6), up=False))
@example(Triangle((0, 0), up=True), Triangle((-1, 7), up=True))
def test_gallery_distance_bfs_meets_in_the_middle(a, b):
    d = gallery_distance_bfs(a, b)
    assert d == gallery_distance_bfs(b, a) == ref_gallery_distance(a, b) == triangle_distance(a, b)


def test_gallery_distance_bfs_on_a_box():
    # every root offset within 10 of both orientations, from both sides
    span = range(-10, 11)
    box = [Triangle((p, q), up) for p in span for q in span for up in (True, False)]
    for a in (Triangle((0, 0), up=True), Triangle((0, 0), up=False)):
        for b in box:
            d = triangle_distance(a, b)
            assert gallery_distance_bfs(a, b) == gallery_distance_bfs(b, a) == d


def test_far_triangles():
    a, b = Triangle((-50, 70), up=False), Triangle((90, -30), up=True)
    word = plr_path(a, b)
    assert len(word) == triangle_distance(a, b) == ref_distance(a, b)
    assert apply_plr(a, word) == b
    # the BFS oracle at long range: 279 flips
    assert gallery_distance_bfs(a, b) == gallery_distance_bfs(b, a) == triangle_distance(a, b)


# the closed forms at roots no ball reaches
far_triangles = st.builds(
    Triangle,
    st.tuples(st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12)),
    st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(far_triangles, st.integers(0, 2))
def test_far_vertex_cycle_is_the_window_walk(t, k):
    v = t.vertices()[k]
    assert vertex_cycle(t, v).triangles == ref_vertex_cycle(t, v)


@settings(max_examples=100, deadline=None)
@given(far_triangles, st.integers(-15, 15), st.integers(-15, 15), st.booleans())
def test_far_plr_path_takes_the_first_closer_move(a, dp, dq, up):
    (p, q), _ = a
    b = Triangle((p + dp, q + dq), up)
    word = plr_path(a, b)
    assert len(word) == triangle_distance(a, b)
    assert apply_plr(a, word) == b
    t = a
    for letter in reversed(word):
        d = triangle_distance(t, b)
        closer = [x for x in "PLR" if triangle_distance(apply_move(t, x), b) < d]
        assert letter == closer[0]
        t = apply_move(t, letter)


def _symbol(letter, accidentals, mode, comma):
    return letter + accidentals + mode + ("" if comma is None else f"[q={comma}]")


chord_symbols = st.builds(
    _symbol,
    st.sampled_from("ABCDEFG"),
    st.sampled_from(["", "#", "b", "x", "bb", "x#"]),
    st.sampled_from(["", "m", "min"]),
    st.one_of(st.none(), st.none(), st.integers(-6, 6)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(chord_symbols, min_size=1, max_size=12), st.one_of(st.none(), st.integers(-3, 3)))
def test_analyze_is_the_nine_candidate_loop(symbols, default_comma):
    report = analyze(symbols, default_comma)
    placed = [(s.chord, s.triangle) for s in report.steps]
    assert placed == ref_placements(symbols, default_comma)


@settings(max_examples=100, deadline=None)
@given(
    chord_symbols,
    st.integers(-(10**6), 10**6),
    st.lists(chord_symbols, max_size=8),
    st.one_of(st.none(), st.integers(-3, 3)),
)
@example("C", 10**6, ["G", "Am"], None)
@example("Ebm", -(10**6), ["Cb", "Gb", "Db"], 2)
def test_analyze_far_comma_is_the_nine_candidate_loop(first, comma, rest, default_comma):
    # later chords follow the first one's comma band wherever it lies
    symbols = [first.split("[")[0] + f"[q={comma}]", *rest]
    report = analyze(symbols, default_comma)
    placed = [(s.chord, s.triangle) for s in report.steps]
    assert placed == ref_placements(symbols, default_comma)
