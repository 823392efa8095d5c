"""Parsimonious moves, hexagon and rotation cycles, stripes, analysis."""

import hashlib
import random
import re
import tracemalloc

import pytest
from conftest import within_budget

from tonnetz.lattice import BASE_TRIANGLE, Triangle, class_vertex, format_triangle, triangle_ball
from tonnetz.pitch import (
    ChordName,
    ChordParseError,
    NoteName,
    chord_tones,
    format_chord,
    format_note,
    name_triangle,
    spell_vertex,
)
from tonnetz.progressions import (
    _SHARED,
    StripeKind,
    _hexagon_cycle,
    _plr_word,
    _step,
    analyze,
    apply_move,
    apply_plr,
    hexagon_cycle,
    plr_path,
    rotation_cycle,
    stripe,
    translation_cycle,
    triangle_distance,
    vertex_cycle,
)


def chords(triangles) -> list[str]:
    return [format_chord(name_triangle(t)) for t in triangles]


def step_letter(a: Triangle, b: Triangle) -> str:
    for letter in "PLR":
        if apply_move(a, letter) == b:
            return letter
    raise AssertionError(f"{a} and {b} are not flip neighbors")


def test_single_moves_from_c():
    assert chords([apply_move(BASE_TRIANGLE, x) for x in "PLR"]) == ["Cm", "Em", "Am"]


def test_moves_are_involutions():
    for letter in "PLR":
        for t in (BASE_TRIANGLE, Triangle((2, -1), up=False)):
            assert apply_move(apply_move(t, letter), letter) == t


def test_apply_plr_rightmost_first():
    # RL means: apply L, then R
    assert apply_plr(BASE_TRIANGLE, "RL") == Triangle((1, 0), up=True)
    assert chords([apply_plr(BASE_TRIANGLE, "RL")]) == ["G"]
    assert apply_plr(BASE_TRIANGLE, "") == BASE_TRIANGLE


def test_plr_path_fixtures():
    g = Triangle((1, 0), up=True)
    assert plr_path(BASE_TRIANGLE, g) == "RL"
    assert plr_path(BASE_TRIANGLE, Triangle((0, 0), up=False)) == "P"
    assert plr_path(BASE_TRIANGLE, BASE_TRIANGLE) == ""


def test_plr_path_lands_and_is_shortest():
    targets = [
        Triangle((p, q), up)
        for p in range(-2, 3)
        for q in range(-2, 3)
        for up in (True, False)
    ]
    for goal in targets:
        word = plr_path(BASE_TRIANGLE, goal)
        assert apply_plr(BASE_TRIANGLE, word) == goal
        assert len(word) == triangle_distance(BASE_TRIANGLE, goal)


def test_voice_leading_drift():
    # RL of C and RLP of C differ by one letter but land far apart
    g = apply_plr(BASE_TRIANGLE, "RL")
    fm = apply_plr(BASE_TRIANGLE, "RLP")
    assert chords([g, fm]) == ["G", "Fm"]
    assert g == Triangle((1, 0), up=True)
    assert fm == Triangle((-1, 0), up=False)
    assert triangle_distance(g, fm) == 5
    assert len(plr_path(g, fm)) == 5


def test_hexagon_cycle_around_e():
    cyc = hexagon_cycle(BASE_TRIANGLE)
    assert cyc.center == (0, 1)
    assert format_note(cyc.common_tone) == "E"
    assert [format_chord(c) for c in cyc.chords] == ["C", "Em", "E", "C#m", "A", "Am"]
    assert len(set(cyc.triangles)) == 6


@pytest.mark.parametrize("roots", [((0, True), (0, 1)), ((0, 1), (0, True))])
def test_hexagon_cycle_memo_keeps_nested_types_apart(roots):
    triangles = [Triangle(root, True) for root in roots]
    # the two are equal and hash alike, but the bool root spells comma True
    assert len({repr(_hexagon_cycle.__wrapped__(*t.root, t.up)) for t in triangles}) == 2
    _hexagon_cycle.cache_clear()
    for t in triangles:
        assert repr(hexagon_cycle(t)) == repr(_hexagon_cycle.__wrapped__(*t.root, t.up))


def test_hexagon_cycle_memo_keeps_no_refusal():
    _hexagon_cycle.cache_clear()
    for t in (Triangle((0, 0), 1), Triangle((0.5, 0), True), None):
        for _ in range(2):
            with pytest.raises(ValueError, match="is not a lattice triangle"):
                hexagon_cycle(t)
    assert _hexagon_cycle.cache_info().currsize == 0


def test_hexagon_cycle_memo_is_bounded():
    _hexagon_cycle.cache_clear()
    for p in range(2 * 256):
        hexagon_cycle(Triangle((p, 0), True))
    assert _hexagon_cycle.cache_info().currsize == 256


def test_hexagon_cycle_memo_keeps_no_huge_root():
    # 256 distinct triangles with a coordinate of 100,000 digits, dropped once used
    huge = 10**100_000
    _hexagon_cycle.cache_clear()
    tracemalloc.start()
    try:
        for extra in range(256):
            n = (huge + extra) * (-1) ** extra
            t = Triangle((n, 0) if extra % 4 < 2 else (0, n), up=extra % 3 == 0)
            assert hexagon_cycle(t).triangles[0] == t
        del n, t
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20
    assert _hexagon_cycle.cache_info().currsize == 0
    # a root below 2**63 in magnitude is kept, one that reaches it is not
    for root in ((2**63 - 1, -(2**63 - 1)), (2**63, 0), (0, -(2**63))):
        hexagon_cycle(Triangle(root, True))
    assert _hexagon_cycle.cache_info().currsize == 1


def test_vertex_cycle_around_g():
    cyc = vertex_cycle(BASE_TRIANGLE, (1, 0))
    assert format_note(cyc.common_tone) == "G"
    assert [format_chord(c) for c in cyc.chords] == ["C", "Cm", "Eb", "Gm", "G", "Em"]


def test_vertex_cycle_around_c():
    cyc = vertex_cycle(BASE_TRIANGLE, (0, 0))
    assert format_note(cyc.common_tone) == "C"
    assert [format_chord(c) for c in cyc.chords] == ["C", "Am", "F", "Fm", "Ab", "Cm"]


def test_vertex_cycle_members_share_the_tone():
    for v in BASE_TRIANGLE.vertices():
        cyc = vertex_cycle(BASE_TRIANGLE, v)
        for t in cyc.triangles:
            assert v in t.vertices()
        # consecutive members are flip neighbors, and the cycle closes
        ring = list(cyc.triangles) + [cyc.triangles[0]]
        for a, b in zip(ring, ring[1:]):
            assert step_letter(a, b) in "PLR"


def test_vertex_cycle_rejects_far_vertex():
    for v in ((5, 5), (0.0, 1.0)):
        with pytest.raises(ValueError, match="is not a vertex of"):
            vertex_cycle(BASE_TRIANGLE, v)


def test_rotation_cycles():
    assert chords(rotation_cycle(BASE_TRIANGLE)) == ["C", "E", "A"]
    assert chords(rotation_cycle(Triangle((1, 0), up=True))) == ["G", "C#", "F"]
    assert chords(rotation_cycle(Triangle((0, 0), up=False))) == ["Cm", "G#m", "F#m"]
    assert chords(rotation_cycle(Triangle((-1, 2), up=False))) == ["C#m", "Am", "Em"]


def test_rotation_cycle_closes():
    for t in (BASE_TRIANGLE, Triangle((2, -1), up=False)):
        cyc = rotation_cycle(t)
        assert len(set(cyc)) == 3


def test_translation_cycles():
    assert chords(translation_cycle(BASE_TRIANGLE)) == ["C#", "B", "C"]
    am = Triangle((-1, 1), up=False)
    assert chords(translation_cycle(am)) == ["A#m", "G#m", "Am"]
    assert translation_cycle(BASE_TRIANGLE)[2] == BASE_TRIANGLE


def test_translation_cycle_preserves_orientation():
    for t in translation_cycle(Triangle((0, 0), up=False)):
        assert not t.up


def test_stripe_fifths():
    assert chords(stripe(BASE_TRIANGLE, StripeKind.FIFTHS, 2)) == [
        "F", "Am", "C", "Em", "G",
    ]
    am = Triangle((-1, 1), up=False)
    assert chords(stripe(am, StripeKind.FIFTHS, 2)) == ["Dm", "F", "Am", "C", "Em"]


def test_stripe_hexatonic():
    members = stripe(BASE_TRIANGLE, StripeKind.HEXATONIC, 2)
    assert chords(members) == ["Ab", "Cm", "C", "Em", "E"]


def test_stripe_octatonic():
    members = stripe(BASE_TRIANGLE, StripeKind.OCTATONIC, 2)
    assert chords(members) == ["A", "Am", "C", "Cm", "Eb"]


# each kind's two moves: the first steps forward from an up triangle and
# back from a down one, the second the other way round
STRIPE_MOVES = {StripeKind.FIFTHS: "LR", StripeKind.HEXATONIC: "LP", StripeKind.OCTATONIC: "PR"}


def test_stripe_move_alternation():
    # a stripe is the walk from its seed that alternates the kind's two moves
    seeds = sorted(triangle_ball(BASE_TRIANGLE, 8)) + [Triangle((1000, -999), up=False)]
    for kind, (first, second) in STRIPE_MOVES.items():
        for seed in seeds:
            walk = {0: seed}
            for k in range(1, 10):
                ahead, behind = walk[k - 1], walk[1 - k]
                walk[k] = apply_move(ahead, first if ahead.up else second)
                walk[-k] = apply_move(behind, second if behind.up else first)
            for count in range(10):
                members = stripe(seed, kind, count)
                assert members == [walk[k] for k in range(-count, count + 1)]
                assert [type(t.up) for t in members] == [bool] * len(members)


def test_stripe_midpoint_and_length():
    members = stripe(BASE_TRIANGLE, StripeKind.FIFTHS, 5)
    assert len(members) == 11
    assert members[5] == BASE_TRIANGLE
    assert stripe(BASE_TRIANGLE, StripeKind.FIFTHS, 0) == [BASE_TRIANGLE]
    with pytest.raises(ValueError):
        stripe(BASE_TRIANGLE, StripeKind.FIFTHS, -1)


def test_stripe_kind_by_member_or_value():
    for kind in StripeKind:
        assert stripe(BASE_TRIANGLE, kind.value, 3) == stripe(BASE_TRIANGLE, kind, 3)
    assert chords(stripe(BASE_TRIANGLE, "fifths", 1)) == ["Am", "C", "Em"]


@pytest.mark.parametrize("kind", ["chromatic", "FIFTHS", "", None, 0])
def test_stripe_rejects_unknown_kind(kind):
    with pytest.raises(ValueError):
        stripe(BASE_TRIANGLE, kind, 1)


def test_analyze_moonlight_opening():
    report = analyze(["C#m", "A", "D"])
    triangles = [s.triangle for s in report.steps]
    assert triangles == [
        Triangle((-1, 2), up=False),
        Triangle((-1, 1), up=True),
        Triangle((-2, 1), up=True),
    ]
    assert [s.distance for s in report.steps] == [0, 1, 2]
    assert [tuple(format_note(n) for n in s.common_tones) for s in report.steps] == [
        (),
        ("E", "C#"),
        ("A",),
    ]
    assert [s.shares_hexagon for s in report.steps] == [False, True, False]
    assert report.total_distance == 3


def test_analyze_explicit_comma_wins():
    report = analyze(["C", "E[q=0]"])
    assert report.steps[1].triangle == Triangle((4, 0), up=True)
    # without the annotation the nearby instance is chosen instead
    free = analyze(["C", "E"])
    assert free.steps[1].triangle == Triangle((0, 1), up=True)
    assert free.steps[1].distance == 2


def test_analyze_prefers_near_instances():
    # G after C lands one flip pair away, not at some remote comma level
    report = analyze(["C", "G"])
    assert report.steps[1].triangle == Triangle((1, 0), up=True)
    assert report.steps[1].distance == 2


def test_analyze_parsimonious_step():
    report = analyze(["C", "Am"])
    assert report.steps[1].distance == 1
    assert [tuple(format_note(n) for n in s.common_tones) for s in report.steps][1] == (
        "C", "E",
    )
    assert report.steps[1].shares_hexagon


def test_analyze_empty_rejected():
    with pytest.raises(ValueError):
        analyze([])


def test_analyze_first_chord_honors_default_comma():
    report = analyze(["E"], default_comma=0)
    assert report.steps[0].triangle == Triangle((4, 0), up=True)


def shared_tones(prev, t):
    """The names of the vertices t shares with prev, sorted; t's vertices spell them."""
    around = prev.vertices()
    return tuple(sorted(spell_vertex(v) for v in t.vertices() if v in around))


@pytest.mark.parametrize("comma", [0, 10**12, True], ids=["0", "1e12", "True"])
@pytest.mark.parametrize("minor", [False, True])
@pytest.mark.parametrize("cls", [0, 1, 2])
def test_analyze_common_tones_at_every_relative_position(comma, minor, cls):
    # prev of root class cls is placed at the default comma level, each t of
    # the radius-4 ball around it by [q=n]: every position of t relative to
    # prev that shares a vertex, from each root class (p - q) % 3 of t
    fifth_index = (cls + 5 * comma) % 3  # root (fifth_index - 4 * comma, comma)
    first = format_chord(ChordName(NoteName(fifth_index, 0), minor))
    # a [q=n] symbol, like every later step, puts t at a root of plain ints
    center = Triangle((fifth_index - 4 * comma, int(comma)), not minor)
    for t in sorted(triangle_ball(center, 4)):
        symbol = format_chord(name_triangle(t), with_comma=True)
        before, step = analyze([first, symbol], comma).steps
        prev = before.triangle
        assert (prev.root[0] - prev.root[1]) % 3 == cls and prev.up != minor
        assert type(prev.root[1]) is type(comma)
        assert step.triangle == t, symbol
        assert repr(step.common_tones) == repr(shared_tones(prev, t)), (prev, t)
        assert step.shares_hexagon == (class_vertex(prev, 2) == class_vertex(t, 2)), (prev, t)


def test_analyze_shares_nothing_off_the_table():
    # a relative position the table leaves out shares no vertex, as far out
    # as twice the table's reach
    reach = max(max(abs(dp), abs(dq)) for _, _, dp, dq in _SHARED)
    for up in (True, False):
        for prev_up in (True, False):
            for dp in range(-2 * reach, 2 * reach + 1):
                for dq in range(-2 * reach, 2 * reach + 1):
                    if (up, prev_up, dp, dq) not in _SHARED:
                        prev = Triangle((dp, dq), prev_up)
                        assert shared_tones(prev, Triangle((0, 0), up)) == (), prev


def wrapped_steps(symbols, default_comma=None):
    """analyze's steps with each later one computed afresh by the memo's body."""
    steps = list(analyze(symbols[:1], default_comma).steps)
    for symbol in symbols[1:]:
        (p, q), up = steps[-1].triangle
        steps.append(_step.__wrapped__(symbol, p, q, up))
    return steps


@pytest.mark.parametrize("levels", [(1, True), (True, 1)])
def test_analyze_memo_keeps_equal_keys_of_other_types_apart(levels):
    # C at level True has the root (-4, True), equal to (-4, 1) and hashing
    # alike, so G after it keeps an entry of its own; Am after G shares one
    _step.cache_clear()
    for kept, level in zip((2, 3), levels):
        symbols = ["C", "G", "Am"]
        report = analyze(symbols, level)
        assert type(report.steps[0].triangle.root[1]) is type(level)
        assert repr(list(report.steps)) == repr(wrapped_steps(symbols, level))
        assert _step.cache_info().currsize == kept


def test_analyze_memo_keeps_no_refusal():
    _step.cache_clear()
    analyze(["C", "G"])
    for symbol, error in (("H", ChordParseError), ("Cm7", ChordParseError), (5, TypeError)):
        # refused every time, also from the previous triangle G was answered from
        for _ in range(2):
            with pytest.raises(error):
                analyze(["C", symbol])
    assert _step.cache_info().currsize == 1


@pytest.mark.parametrize("symbol", [5, None, b"C", ["C"]], ids=repr)
@pytest.mark.parametrize("at", [0, 1])
def test_analyze_refuses_what_is_not_a_string(symbol, at):
    symbols = ["C", "G"]
    symbols[at] = symbol
    with pytest.raises(TypeError, match=rf"^chord symbol must be a str, got {re.escape(repr(symbol))}$"):
        analyze(symbols)


def test_analyze_memo_keeps_no_long_symbol_or_huge_root():
    _step.cache_clear()
    # a symbol of 65 characters; a previous root from a [q=n] chord and from a
    # default comma at 2**63 and past it, and from level 2**61, root -2**63
    analyze(["C", "C" + "#" * 64])
    analyze(["Cm[q=99999999999999999999999]", "G"])
    for level in (2**63, -(2**63), 2**61):
        analyze(["C", "G"], level)
    assert _step.cache_info().currsize == 0
    # a symbol of 64 characters and a root below 2**63 in magnitude are kept
    analyze(["C", "C" + "#" * 63])
    analyze(["C", "G"], 2**61 - 1)
    assert _step.cache_info().currsize == 2


def test_analyze_memo_keeps_no_huge_default_comma():
    # 256 first chords at levels of 100,000 digits, dropped once used
    huge = 10**100_000
    _step.cache_clear()
    tracemalloc.start()
    try:
        for extra in range(256):
            level = (huge + extra) * (-1) ** extra
            first, step = analyze(["Am", "C"], level).steps
            assert step.distance == 1 and abs(step.triangle.root[1] - level) <= 4
        del first, step, level
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20
    assert _step.cache_info().currsize == 0


def test_analyze_memo_is_bounded():
    _step.cache_clear()
    for q in range(2 * 1024):
        analyze([f"C[q={q}]", "G"])
    assert _step.cache_info().currsize == 1024


def test_plr_path_memo_keeps_words_of_at_most_64_flips():
    # a progression's short paths repeat and share a word; a longer path is
    # walked afresh and not kept
    _plr_word.cache_clear()
    for goal, kept in ((Triangle((32, 0), up=False), 0), (Triangle((32, 0), up=True), 1)):
        word = plr_path(BASE_TRIANGLE, goal)
        assert apply_plr(BASE_TRIANGLE, word) == goal
        assert _plr_word.cache_info().currsize == kept
    assert plr_path(BASE_TRIANGLE, goal) is word
    assert len(word) == 64 and _plr_word.cache_info().hits == 1


def test_plr_path_rejects_off_lattice_triangles():
    # off the lattice no flip brings the walk closer to the goal, so it
    # never ended; the alarm fails the test if it hangs
    off = Triangle((0.5, 0), True)
    for pair in ((BASE_TRIANGLE, off), (off, BASE_TRIANGLE)):
        with within_budget(), pytest.raises(ValueError, match="not a lattice triangle"):
            plr_path(*pair)


def test_plr_path_rejects_non_bool_orientation():
    # up=2 used to walk as an up triangle and return the wrong word RLRLRL
    odd = Triangle((3, 0), 2)
    for pair in ((BASE_TRIANGLE, odd), (odd, BASE_TRIANGLE)):
        with pytest.raises(ValueError, match="not a lattice triangle"):
            plr_path(*pair)


@pytest.mark.parametrize("value", [None, "C", ("junk", 5, None)], ids=repr)
def test_plr_path_refuses_a_value_of_another_shape(value):
    for pair in ((BASE_TRIANGLE, value), (value, BASE_TRIANGLE)):
        with pytest.raises(ValueError, match="is not a lattice triangle"):
            plr_path(*pair)


# every entry point refuses what plr_path refuses, with its ValueError, rather
# than answer with roots or orientations off the lattice or fail on an index
OFF_LATTICE = {
    "stripe-half-root": (stripe, Triangle((0.5, 0), True), "fifths", 1),
    "stripe-up-2": (stripe, Triangle((0, 0), 2), "fifths", 1),
    "apply-plr-up-2": (apply_plr, Triangle((0, 0), 2), "P"),
    "vertex-cycle-half-root": (vertex_cycle, Triangle((0.5, 0), True), (0, 0)),
    "hexagon-cycle-up-2": (hexagon_cycle, Triangle((0, 0), 2)),
    "hexagon-cycle-up-1": (hexagon_cycle, Triangle((0, 0), 1)),
    "hexagon-cycle-half-root": (hexagon_cycle, Triangle((0.5, 0), True)),
    "hexagon-cycle-none": (hexagon_cycle, None),
    "hexagon-cycle-name": (hexagon_cycle, "C"),
    "rotation-cycle-up-none": (rotation_cycle, Triangle((0, 0), None)),
    "translation-cycle-up-none": (translation_cycle, Triangle((0, 0), None)),
}


@pytest.mark.parametrize("case", OFF_LATTICE.values(), ids=OFF_LATTICE)
def test_entry_points_refuse_off_lattice_triangles(case):
    fn, t, *args = case
    _hexagon_cycle.cache_clear()
    refusal = rf"^{re.escape(repr(t))} is not a lattice triangle"
    with pytest.raises(ValueError, match=refusal):
        fn(t, *args)
    # and still after the base triangle, which Triangle((0, 0), 1) equals, is answered
    fn(BASE_TRIANGLE, *args)
    with pytest.raises(ValueError, match=refusal):
        fn(t, *args)


@pytest.mark.parametrize("t", [Triangle((0.5, 0), True), Triangle((0, 0), 2)], ids=repr)
def test_triangle_distance_refuses_off_lattice_triangles(t):
    for pair in ((t, BASE_TRIANGLE), (BASE_TRIANGLE, t)):
        with pytest.raises(ValueError, match="is not a lattice triangle"):
            triangle_distance(*pair)


@pytest.mark.parametrize(
    "pair",
    [
        (Triangle((0.5, 0), True), None),
        (None, Triangle((0, 0), 2)),
        (((0, 0),), "C"),
        (Triangle((0, 0), 1), Triangle((0.5, 0), 1)),
    ],
    ids=repr,
)
def test_two_triangle_entry_points_refuse_the_first_off_lattice(pair):
    refusal = rf"^{re.escape(repr(pair[0]))} is not a lattice triangle"
    for fn in (triangle_distance, plr_path):
        with pytest.raises(ValueError, match=refusal):
            fn(*pair)


# the progressions entry points, and the lattice and pitch functions they
# read triangles with, given a triangle as the plain tuple ((p, q), up) it equals
PLAIN_TUPLE_CALLS = {
    "apply-plr": lambda t: apply_plr(t, "RPL"),
    "plr-path-from": lambda t: plr_path(t, BASE_TRIANGLE),
    "plr-path-to": lambda t: plr_path(BASE_TRIANGLE, t),
    "triangle-distance": lambda t: triangle_distance(t, BASE_TRIANGLE),
    "vertex-cycle": lambda t: vertex_cycle(t, t[0]),
    "hexagon-cycle": hexagon_cycle,
    "rotation-cycle": rotation_cycle,
    "translation-cycle": translation_cycle,
    "stripe": lambda t: stripe(t, "octatonic", 2),
    "class-vertex": lambda t: class_vertex(t, 2),
    "name-triangle": name_triangle,
    "chord-tones": chord_tones,
    "format-triangle": format_triangle,
}


@pytest.mark.parametrize("call", PLAIN_TUPLE_CALLS.values(), ids=PLAIN_TUPLE_CALLS)
def test_plain_tuples_get_the_triangles_answer(call):
    _hexagon_cycle.cache_clear()
    for t in (Triangle((2, -3), False), Triangle((-1, 4), True)):
        assert call(tuple(t)) == call(t)


def test_progression_output_is_pinned():
    # every field the layer returns, over seeded inputs: PLR words between
    # random pairs, the cycle around every vertex of the radius-8 ball, and
    # progressions mixing accidentals, modes, [q=n] and a default comma
    rng = random.Random(2019)

    def triangle():
        return Triangle((rng.randint(-40, 40), rng.randint(-40, 40)), rng.random() < 0.5)

    def symbol():
        comma = f"[q={rng.randint(-6, 6)}]" if rng.random() < 0.15 else ""
        return (
            rng.choice("ABCDEFG")
            + rng.choice(["", "", "#", "b", "x", "bb", "x#"])
            + rng.choice(["", "m", "min"])
            + comma
        )

    paths = [plr_path(triangle(), triangle()) for _ in range(300)]
    cycles = [
        vertex_cycle(t, v) for t in sorted(triangle_ball(BASE_TRIANGLE, 8)) for v in t.vertices()
    ]
    reports = [
        analyze(
            [symbol() for _ in range(rng.randint(1, 12))],
            rng.choice([None, None, rng.randint(-3, 3)]),
        )
        for _ in range(150)
    ]
    digest = hashlib.sha256(repr((paths, cycles, reports)).encode()).hexdigest()
    assert digest == "b2dba9d4294135789804b1d88e3241870f57f239c0a204b9b711cd04e4cfb294"
