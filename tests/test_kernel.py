"""Closed-form kernel against independent oracles.

Each closed form is checked against a route that shares none of its
rule, never against a kept copy of an earlier formula.  The oracles:
the isometry multiplied out along the reduced word, for perm_to_iso,
triangle_of and the translation cosets; the translation built by
repeated multiplication; order by multiplying up to six times, parity by
counting residue inversions, and the type read off both; reduced_word,
whose greedy walk jumps over each periodic run by a floor division,
against stripping the smallest descent one letter at a time, on seeded
elements of length up to 2561 and up to the 2,000,000-letter cap; the
layers of ball and of triangle_ball against 1, then 3k at length k; and
breadth-first search on the flip graph, which is triangle_ball itself:
the tests define no search of their own.  It checks ball, listed by
window differences, against the elements of the triangles within each
radius; gallery_distance_bfs and triangle_distance through the ball of
radius 2h + 1 around one triangle; and plr_path against the walk that
takes the first of P, L, R one flip closer to the goal.  Past the ball
the oracle is construction: an element built by D ascents puts the
triangles of g and g * f D flips apart, for D = 160 and 2560, and
reduced_word's walk offsets are the strip offsets of f's triangle, each
side computed on its own.  Wall flips are compared with right
multiplication of windows; the hexagon cycles with the six triangles
round their vertex, ordered by the cross product of centroids;
rotation_cycle with the isometry of s3*s2; class_vertex with the class
of each vertex, the strip-offset walk of plr_path also with the greedy
rule over apply_move, and the progression analyzer's ranking with the
loop over nine chord names, near the origin and at roots up to 10^12
or comma levels up to 10^6.  Its table of nearest comma levels is also
checked against the nine candidates ranked by breadth-first search, for
every step of up to 20 fifths.  The D12 quotient's product, inverse and
order are P's on lifts of each coset shifted by K, the order being the
least power of a lift in K.  Coxeter length is also counted as the map's
inversions, pair by pair, on ball(12) and on long words.
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
    ball,
    from_word,
    right_mult_generator,
    translation_factor,
)
from tonnetz.lattice import (
    BASE_TRIANGLE,
    IDENTITY_ISOMETRY,
    Isometry,
    Triangle,
    class_vertex,
    gallery_distance_bfs,
    generator_isometry,
    neighbors,
    perm_of,
    perm_to_iso,
    triangle_ball,
    triangle_from_vertices,
    triangle_of,
    vertex_class,
    wall_flip,
)
from tonnetz.pitch import (
    ChordName,
    NoteName,
    chord_triangle,
    format_note,
    name_triangle,
    parse_chord,
    spell_vertex,
)
from tonnetz.progressions import (
    analyze,
    apply_move,
    apply_plr,
    plr_path,
    rotation_cycle,
    triangle_distance,
    vertex_cycle,
)
from tonnetz.render import RenderSpec
from tonnetz.riemann import (
    D12Coset,
    PElement,
    d12_compose,
    d12_inverse,
    d12_order,
    in_comma_subgroup,
    p_compose,
    p_inverse,
    project_d12,
)
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


def ref_flip_ball(t1, t2):
    """The flip distances around t1 out to 2h + 1, which reach t2.

    h = max(|dp|, |dq|, |dp + dq|) over the roots: two flips move a root by
    one step of the hexagonal metric, and one more turns the triangle over,
    so a connected flip graph reaches t2 within 2h + 1 flips.
    """
    (p1, q1), _ = t1
    (p2, q2), _ = t2
    dp, dq = p2 - p1, q2 - q1
    dist = triangle_ball(t1, 2 * max(abs(dp), abs(dq), abs(dp + dq)) + 1)
    assert t2 in dist, f"{t2} is not within 2h + 1 flips of {t1}"
    return dist


def ref_gallery_distance(t1, t2):
    """Flip distance: t2's layer in the flip search around t1."""
    return ref_flip_ball(t1, t2)[t2]


def ref_reduced_word(f):
    """Strip the smallest right descent, found by length, until the identity."""
    letters = []
    g = f
    while g != IDENTITY:
        i = min(i for i in GENERATOR_INDICES if right_mult_generator(g, i).length() < g.length())
        letters.append(i)
        g = right_mult_generator(g, i)
    return tuple(reversed(letters))


def ref_inversions(f):
    """Coxeter length as the inversion count, not by Shi's closed form.

    The pairs i < j with i in the window and f(i) > f(j) (Björner and
    Brenti, Combinatorics of Coxeter Groups, section 8.3).  Past
    j = max - min + 1 over the window, f(j) >= min + j - 1 > f(i).
    """
    top = max(f) - min(f) + 1
    return sum(f(i) > f(j) for i in (-1, 0, 1) for j in range(i + 1, top + 1))


def ref_vertex_cycle(t, v):
    """The six triangles with vertex v, walked round v from t by the geometry.

    Counterclockwise from an up triangle, clockwise from a down one.  Each
    step goes to the unvisited triangle that shares an edge through v with
    the last, on the side picked by the integer cross product of the two
    centroids seen from v, in coordinates (2p + q, q): the plane's
    coordinates of a vertex, stretched by positive factors, so the sign of
    a turn is the plane's.
    """
    x, y = v
    around = [
        u
        for dp in range(-2, 3)
        for dq in range(-2, 3)
        for up in (True, False)
        if v in (u := Triangle((x + dp, y + dq), up)).vertices()
    ]
    assert len(around) == 6

    def centroid(u):  # three times u's centroid less v
        vertices = u.vertices()
        return sum(2 * (p - x) + q - y for p, q in vertices), sum(q - y for _, q in vertices)

    turn = 1 if t.up else -1
    walk = [t]
    while len(walk) < 6:
        (x0, y0), last = centroid(walk[-1]), set(walk[-1].vertices())
        (step,) = [
            u
            for u in around
            if u not in walk
            and len(last & set(u.vertices())) == 2
            and turn * (x0 * centroid(u)[1] - y0 * centroid(u)[0]) > 0
        ]
        walk.append(step)
    return tuple(walk)


ROTATION_ISOMETRY = perm_to_iso(from_word((3, 2)))


def ref_rotation_cycle(t):
    """t and its images under the isometry of s3*s2, applied once and twice."""
    second = ROTATION_ISOMETRY.apply_triangle(t)
    return [t, second, ROTATION_ISOMETRY.apply_triangle(second)]


def ref_steps(symbols, default_comma):
    """Each chord's (name, triangle, distance, common tones, shares hexagon).

    Ranks nine built chord names per chord; the tones shared with the
    previous chord are a set intersection, and two chords share a hexagon
    when their class-2 vertices are one.
    """
    out = []
    prev = None
    for symbol in symbols:
        chord, t = parse_chord(symbol, default_comma)
        if prev is None:
            out.append((chord, t, 0, (), False))
            prev = t
            continue
        if "[q=" not in symbol:
            prev_comma = spell_vertex(prev.root).comma
            best = None
            for q in range(prev_comma - 4, prev_comma + 5):
                cand = ChordName(NoteName(chord.root.fifth_index, q), chord.minor)
                cand_t = chord_triangle(cand)
                key = (triangle_distance(prev, cand_t), abs(q), q)
                if best is None or key < best[0]:
                    best = (key, cand, cand_t)
            _, chord, t = best
        shared = set(prev.vertices()) & set(t.vertices())
        common = tuple(sorted(spell_vertex(v) for v in shared))
        shares = class_vertex(prev, 2) == class_vertex(t, 2)
        out.append((chord, t, triangle_distance(prev, t), common, shares))
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


# the number of elements of each length 0, 1, 2, ...: 1, then 3k at length k
LAYERS = [1] + [3 * k for k in range(1, 31)]


def ref_length_layers(radius):
    """Elements of ball(radius) counted by length."""
    counts = [0] * (radius + 1)
    for f in ball(radius):
        counts[f.length()] += 1
    return counts


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


def test_length_is_the_inversion_count():
    for f in ball(12):
        assert f.length() == ref_inversions(f)


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


def test_triangle_ball_layers_are_1_then_3k():
    # one triangle at distance 0, then 3k at each distance k, around an up
    # and a down triangle
    for center in (BASE_TRIANGLE, Triangle((3, -2), up=False)):
        dist = triangle_ball(center, 8)
        assert [sum(1 for d in dist.values() if d == k) for k in range(9)] == LAYERS[:9]


def test_ball_layers_are_1_then_3k():
    for r in range(31):
        assert ref_length_layers(r) == LAYERS[: r + 1]


def test_d12_is_the_mod_arithmetic():
    # P/K is P read with a mod 3 and b mod 4: every lift of a coset, shifted
    # by K, has the coset's product, inverse and order, the order being the
    # least power of the lift that lies in K
    cosets = [D12Coset(a, b, fl) for a in range(3) for b in range(4) for fl in (False, True)]
    shifts = [(i, j) for i in (-1, 0, 2) for j in (-2, 0, 1)]
    lifts = {x: [PElement(x.a + 3 * i, x.b + 4 * j, x.flip) for i, j in shifts] for x in cosets}
    for x in cosets:
        for lift in lifts[x]:
            assert project_d12(lift) == x
            assert project_d12(p_inverse(lift)) == d12_inverse(x), lift
            power, k = lift, 1
            while not in_comma_subgroup(power):
                power, k = p_compose(power, lift), k + 1
            assert d12_order(x) == k, lift
        for y in cosets:
            for xl, yl in zip(lifts[x], reversed(lifts[y])):
                assert project_d12(p_compose(xl, yl)) == d12_compose(x, y), (xl, yl)


def test_perm_to_iso_is_the_generator_product():
    # over a larger ball than check_element's
    for f in ball(12):
        assert perm_to_iso(f) == ref_iso(f)


def test_ball_is_the_layer_loop():
    # the elements of length <= r are those whose triangles lie within r flips
    for r in range(13):
        elems = ball(r)
        assert len(set(elems)) == len(elems)
        assert set(elems) == {perm_of(t) for t in triangle_ball(BASE_TRIANGLE, r)}
    with pytest.raises(ValueError, match="^radius must be non-negative$"):
        ball(-1)


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
    with pytest.raises(ValueError, match="^path letters must be P, L or R, got 'Q'$"):
        RenderSpec(BASE_TRIANGLE, 1, path="PLQ")
    assert RenderSpec(BASE_TRIANGLE, 1) == RenderSpec(center=BASE_TRIANGLE, radius=1, path="")
    assert RenderSpec(BASE_TRIANGLE, 1, (BASE_TRIANGLE,)).highlights == (BASE_TRIANGLE,)
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


# the package's re-exports, by the submodule that defines each
PACKAGE_EXPORTS = {
    "core": """AffinePermutation ElementType IDENTITY TriangleCoords ball
        format_window format_word from_word generator parse_window parse_word
        triangle_to_perm""",
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
    assert len(EXPORT_HOME) == 77
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
        # a wall lies opposite the vertex of one class, and class_vertex finds it
        assert [class_vertex(t, vertex_class(v)) for v in t.vertices()] == list(t.vertices())
    with pytest.raises(ValueError):
        wall_flip(BASE_TRIANGLE, 4)
    for cls in (3, -1):
        with pytest.raises(ValueError, match=f"no class-{cls} vertex"):
            class_vertex(BASE_TRIANGLE, cls)


def test_vertex_cycle_is_the_window_walk():
    for t in triangle_ball(BASE_TRIANGLE, 8):
        for v in t.vertices():
            cyc = vertex_cycle(t, v)
            assert cyc.triangles == ref_vertex_cycle(t, v)
            assert cyc.chords == tuple(name_triangle(u) for u in cyc.triangles)
            assert cyc.center == v and cyc.common_tone == spell_vertex(v)


def test_rotation_cycle_is_the_isometry_orbit():
    for t in triangle_ball(BASE_TRIANGLE, 8):
        assert rotation_cycle(t) == ref_rotation_cycle(t)


def test_triangle_distance_is_bfs_distance():
    for a, b in PAIRS:
        assert triangle_distance(a, b) == gallery_distance_bfs(a, b)


def test_plr_path_is_the_bfs_word():
    # from each triangle, the first of P, L, R that lands one flip closer to
    # the goal in the flip search around it; the word is read right to left
    for a, b in PAIRS:
        dist = ref_flip_ball(b, a)
        t, moves = a, []
        while t != b:
            letter = next(x for x in "PLR" if dist.get(apply_move(t, x)) == dist[t] - 1)
            moves.append(letter)
            t = apply_move(t, letter)
        assert plr_path(a, b) == "".join(reversed(moves))


# --- hypothesis over long words -----------------------------------------------


@settings(max_examples=150, deadline=None)
@given(long_words)
# reduced words whose walk, stripping letters from the right, repeats a
# round of four letters (1213, read from the right) once, twice or three
# times before an offset reaches zero, then takes part of a round of six
# and a last letter; and one that repeats a round of six letters (213213)
# twice before the zero
@example([1, 3, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1])
@example([1, 3, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1])
@example([3, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1])
@example([3, 1, 2] * 6)
# one whole round of six letters, then an offset reaches zero on the
# first, the second or the last step of the next round
@example([2, 3, 1, 2, 3, 1, 2, 3])
@example([1, 2, 3] * 3)
@example([3, 1, 2] * 4 + [3])
def test_long_word_element(word):
    f = from_word(word)
    check_element(f)
    assert f.length() == ref_inversions(f) <= len(word)
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


def strips(t):
    """The strips p, q' and p + q that hold a triangle (see triangle_distance)."""
    (p, q), up = t
    return p, q - (not up), p + q


def test_reduced_word_walks_the_strip_offsets():
    # the walk's offsets, f^-1's quotients, are the strips q', p + q and p
    # of f's triangle past the base triangle's
    for f in ball(12):
        a, b, c = f.inverse()
        dp, dq, ds = (x - y for x, y in zip(strips(triangle_of(f)), strips(BASE_TRIANGLE)))
        assert ((b - a) // 3, (c - a) // 3, (c - b) // 3) == (dq, ds, dp)


@pytest.mark.parametrize(
    "length, sigma",
    LONG_ELEMENTS,
    ids=[f"D{length}-" + ("".join(map(str, sigma)) or "e") for length, sigma in LONG_ELEMENTS],
)
def test_far_pair_built_by_ascents(length, sigma):
    # f is built by `length` ascents, so the triangles of g and g * f lie
    # `length` flips apart for every g: the far range by construction
    f = seeded_element(length, sigma)
    for start in (Triangle((-50, 70), up=False), Triangle((90, -30), up=True)):
        goal = triangle_of(perm_of(start) * f)
        assert triangle_distance(start, goal) == triangle_distance(goal, start) == length
        for a, b in ((start, goal), (goal, start)):
            word = plr_path(a, b)
            assert len(word) == length
            assert apply_plr(a, word) == b


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
@given(far_triangles)
def test_far_rotation_cycle_is_the_isometry_orbit(t):
    assert rotation_cycle(t) == ref_rotation_cycle(t)


@settings(max_examples=100, deadline=None)
@given(far_triangles, st.integers(-15, 15), st.integers(-15, 15), st.booleans())
# walks that repeat their round of two letters once, then reach zero on
# the first or on the last step of the next round
@example(Triangle((10**12, -(10**12)), up=True), -2, 0, True)
@example(Triangle((10**12, -(10**12)), up=True), -3, 1, False)
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


def _as_ref_steps(report):
    assert report.total_distance == sum(s.distance for s in report.steps)
    return [
        (s.chord, s.triangle, s.distance, s.common_tones, s.shares_hexagon) for s in report.steps
    ]


default_commas = st.one_of(st.none(), st.integers(-3, 3), st.just(True))


@settings(max_examples=200, deadline=None)
@given(st.lists(chord_symbols, min_size=1, max_size=12), default_commas)
def test_analyze_is_the_nine_candidate_loop(symbols, default_comma):
    ref = repr(ref_steps(symbols, default_comma))
    # the second call reads each later step from analyze's memo
    for _ in range(2):
        assert repr(_as_ref_steps(analyze(symbols, default_comma))) == ref


@settings(max_examples=100, deadline=None)
@given(
    chord_symbols,
    st.integers(-(10**6), 10**6),
    st.lists(chord_symbols, max_size=8),
    default_commas,
)
@example("C", 10**6, ["G", "Am"], None)
@example("Ebm", -(10**6), ["Cb", "Gb", "Db"], 2)
def test_analyze_far_comma_is_the_nine_candidate_loop(first, comma, rest, default_comma):
    # later chords follow the first one's comma band wherever it lies
    symbols = [first.split("[")[0] + f"[q={comma}]", *rest]
    report = analyze(symbols, default_comma)
    assert repr(_as_ref_steps(report)) == repr(ref_steps(symbols, default_comma))


@pytest.mark.parametrize("prev_comma", [*range(-6, 7), True])
def test_analyze_places_each_step_by_the_search(prev_comma):
    # every step of -20..20 fifths from C, Cm, Db or Dbm at the given comma
    # level to a major or minor chord, so each sign of prev.up - t.up, against
    # the nine candidates ranked by flip search, then by |q|, then by q
    for root, f0 in (("C", 0), ("Db", -5)):
        for prev_minor, minor in ((False, False), (False, True), (True, False), (True, True)):
            for fifths in range(-20, 21):
                f = f0 + fifths
                symbols = [root + "m" * prev_minor, format_note(NoteName(f, 0)) + "m" * minor]
                first, step = analyze(symbols, prev_comma).steps
                prev, q0 = first.triangle, first.triangle.root[1]
                ranked = []
                for q in range(q0 - 4, q0 + 5):
                    cand = Triangle((f - 4 * q, q), not minor)
                    ranked.append((gallery_distance_bfs(prev, cand), abs(q), q, cand))
                distance, _, q, cand = min(ranked)
                assert repr(step.triangle) == repr(cand)
                assert repr(step.chord) == repr(ChordName(NoteName(f, q), minor))
                assert step.distance == distance


def test_analyze_refuses_a_float_comma_level():
    # a float default level would put a chord at a float root, whether it is
    # the first chord, one the table of nearest levels places or an annotated one
    refusal = r"^default_comma must be an int or None, got 1\.0$"
    for symbols in (["C"], ["C", "G"], ["C", "G###"], ["C[q=0]", "G"]):
        with pytest.raises(TypeError, match=refusal):
            analyze(symbols, 1.0)
