"""Parsimonious moves, hexagon and rotation cycles, stripes, analysis."""

import hashlib
import importlib
import pkgutil
import random
import re

import pytest
from conftest import MEMO_POLICY, MEMOS, NOT_TRIANGLES, refuses_by_name

import tonnetz
from tonnetz.core import from_word
from tonnetz.lattice import (
    BASE_TRIANGLE,
    Triangle,
    class_vertex,
    format_triangle,
    perm_of,
    triangle_ball,
    triangle_of,
)
from tonnetz.pitch import (
    ChordName,
    NoteName,
    chord_tones,
    format_chord,
    format_note,
    name_triangle,
    parse_chord,
    spell_vertex,
)
from tonnetz.progressions import (
    _SHARED,
    StripeKind,
    _hexagon_cycle,
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


def test_plr_drifts_where_the_group_rotates():
    # PLPLPL is the hexatonic cycle, back at C's pitch classes, but on the Tonnetz a
    # major triad ends three comma levels up and a minor three down, and no station
    # of the walk is where it began; s1s2 acting on the left returns in three steps
    def named(t):
        return format_chord(name_triangle(t), with_comma=True)

    def left_orbit(t):
        stations = [t]
        for _ in range(3):
            stations.append(triangle_of(from_word((1, 2)) * perm_of(stations[-1])))
        return stations

    am = parse_chord("Am")[1]
    assert [named(apply_plr(t, "PLPLPL")) for t in (BASE_TRIANGLE, am)] == ["B#[q=3]", "Bbbm[q=-2]"]
    assert chords(left_orbit(BASE_TRIANGLE)) == ["C", "Ab", "F", "C"]
    for t in triangle_ball(BASE_TRIANGLE, 4):
        (p, q), up = t
        assert apply_plr(t, "PLPLPL") == Triangle((p, q + 3 if up else q - 3), up)
        assert t not in [apply_plr(t, "PLPLPL"[k:]) for k in range(6)]
        stations = left_orbit(t)
        assert stations[3] == t
        assert t not in stations[1:3]


def test_hexagon_cycle_around_e():
    cyc = hexagon_cycle(BASE_TRIANGLE)
    assert cyc.center == (0, 1)
    assert format_note(cyc.common_tone) == "E"
    assert [format_chord(c) for c in cyc.chords] == ["C", "Em", "E", "C#m", "A", "Am"]
    assert len(set(cyc.triangles)) == 6


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


@pytest.mark.parametrize("symbol", [5, None, b"C", ["C"]], ids=repr)
@pytest.mark.parametrize("at", [0, 1])
def test_analyze_refuses_what_is_not_a_string(symbol, at):
    symbols = ["C", "G"]
    symbols[at] = symbol
    with pytest.raises(TypeError, match=rf"^chord symbol must be a str, got {re.escape(repr(symbol))}$"):
        analyze(symbols)


# plr_path and triangle_distance on either side, and before None, so the first
# value off the lattice is named; beside the base triangle the second is it too
TRIANGLE_ENTRY_POINTS = {
    "plr-path-from": lambda t: plr_path(t, BASE_TRIANGLE),
    "plr-path-to": lambda t: plr_path(BASE_TRIANGLE, t),
    "plr-path-first": lambda t: plr_path(t, t if t is BASE_TRIANGLE else None),
    "triangle-distance-from": lambda t: triangle_distance(t, BASE_TRIANGLE),
    "triangle-distance-to": lambda t: triangle_distance(BASE_TRIANGLE, t),
    "triangle-distance-first": lambda t: triangle_distance(t, t if t is BASE_TRIANGLE else None),
    "apply-plr": lambda t: apply_plr(t, "P"),
    "apply-plr-empty": lambda t: apply_plr(t, ""),
    "stripe": lambda t: stripe(t, "fifths", 1),
    "vertex-cycle": lambda t: vertex_cycle(t, (0, 0)),
    "hexagon-cycle": hexagon_cycle,
    "rotation-cycle": rotation_cycle,
    "translation-cycle": translation_cycle,
}


@pytest.mark.parametrize("value", NOT_TRIANGLES, ids=repr)
@pytest.mark.parametrize("call", TRIANGLE_ENTRY_POINTS.values(), ids=TRIANGLE_ENTRY_POINTS)
def test_entry_points_refuse_what_is_not_a_triangle(call, value):
    refuses_by_name(call, value)


@pytest.mark.parametrize("check", MEMO_POLICY, ids=lambda check: check.__name__)
@pytest.mark.parametrize("memo", ["hexagon_cycle", "analyze", "plr_path"])
def test_memos_keep_the_policy(memo, check):
    check(MEMOS[memo])


def test_the_memo_table_is_every_memo():
    # a memo is a function with lru_cache's cache_info, in a module of the package
    modules = [importlib.import_module(f"tonnetz.{m.name}") for m in pkgutil.iter_modules(tonnetz.__path__)]
    found = {value for module in modules for value in vars(module).values() if hasattr(value, "cache_info")}
    assert found == {memo.cache for memo in MEMOS.values()}


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
