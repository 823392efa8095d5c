"""Acceptance criteria for the package, one checked criterion per test.

Each test prints a single "AC<n> <name>: PASS" or "... FAIL" line, so a
plain pytest run of this file doubles as an acceptance report.  AC4
writes the center-distance comparison table to a temporary directory.
"""

import functools
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from tonnetz.cli import main
from tonnetz.core import (
    IDENTITY,
    AffinePermutation,
    ball,
    from_word,
    generator,
    triangle_to_perm,
)
from tonnetz.lattice import (
    BASE_TRIANGLE,
    Triangle,
    gallery_distance_bfs,
    perm_of,
    triangle_of,
)
from tonnetz.pitch import (
    chord_tones,
    format_chord,
    format_note,
    hexagon_common_tone,
    name_triangle,
    parse_chord,
)
from tonnetz.progressions import (
    apply_plr,
    hexagon_cycle,
    rotation_cycle,
    translation_cycle,
    triangle_distance,
)
from tonnetz.riemann import (
    D12_REFLECTION,
    D12_ROTATION,
    NAMED_COMMAS,
    PElement,
    RElement,
    d12_compose,
    d12_inverse,
    d12_order,
    in_comma_subgroup,
    p_compose,
    p_inverse,
    p_to_r,
    project_d12,
    r_compose,
    r_order,
)
from tonnetz.subgroups import (
    FiniteS3Element,
    coset_mod_T,
    decompose,
    is_translation,
    translation_generator,
    translation_perm,
)
from tonnetz.verify import center_distance_table

def criterion(n, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"AC{n} {name}: FAIL")
                raise
            print(f"AC{n} {name}: PASS")

        return wrapper

    return deco


@criterion(1, "Coxeter relations hold as window identities")
def test_ac1_relations():
    s = {i: generator(i) for i in (1, 2, 3)}
    for i in (1, 2, 3):
        assert s[i] * s[i] == IDENTITY
    for i, j in ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)):
        assert s[i] * s[j] * s[i] == s[j] * s[i] * s[j]


@criterion(2, "thirteen labeled windows sit at their centers")
def test_ac2_figure_windows():
    fixtures = {
        (0, 0, 0): (-1, 0, 1),
        (0, -1, 1): (0, -1, 1),
        (1, 0, -1): (-1, 1, 0),
        (-1, 1, 0): (-2, 0, 2),
        (2, -1, -1): (1, -1, 0),
        (1, 1, -2): (-3, 1, 2),
        (1, -2, 1): (0, 1, -1),
        (-1, 2, -1): (-2, 2, 0),
        (-1, -1, 2): (-2, -1, 3),
        (-2, 1, 1): (0, -2, 2),
        (2, -2, 0): (1, 0, -1),
        (0, 2, -2): (-3, 2, 1),
        (-2, 0, 2): (-1, -2, 3),
    }
    assert len(fixtures) == 13
    for coords, window in fixtures.items():
        f = from_word(AffinePermutation(*window).reduced_word())
        assert f.window == window
        assert tuple(f.center_coords()) == coords


@criterion(3, "windows are pairwise distinct and invert back from centers")
def test_ac3_bijectivity():
    elements = ball(5)
    assert len({f.window for f in elements}) == len(elements)
    for f in elements:
        assert triangle_to_perm(f.center_coords()) == f
    by_length = {}
    for f in elements:
        by_length.setdefault(f.length(), set()).add(triangle_of(f))
    sizes = [len(by_length[k]) for k in sorted(by_length)]
    assert sizes == [1, 3, 6, 9, 12, 15]
    for k, layer in by_length.items():
        for t in layer:
            assert gallery_distance_bfs(BASE_TRIANGLE, t) == k


@criterion(4, "length equals flip distance; closed form tabulated")
def test_ac4_length_oracle(tmp_path):
    elements = ball(6)
    for f in elements:
        assert f.length() == gallery_distance_bfs(BASE_TRIANGLE, triangle_of(f))
    table = center_distance_table(6)
    out = tmp_path / "center_distance_vs_flip_distance.tsv"
    out.write_text(table, encoding="utf-8")
    text = out.read_text(encoding="utf-8")
    rows = [line.split("\t") for line in text.strip().splitlines()[1:]]
    assert len(rows) == len(elements)
    disagreements = [r for r in rows if r[4] == "no"]
    assert disagreements, "expected at least one disagreement"
    # the reflection s2 s3 s2 is among them
    assert any(r[0] == "[-3,2,1]" for r in disagreements)
    for r in rows:
        assert int(r[2]) <= int(r[3])


@criterion(5, "translations: abelian, normal, index six, S3 quotient")
def test_ac5_translation_subgroup():
    t1, t2, t3 = (translation_generator(i) for i in (1, 2, 3))
    assert t1 * t2 == t2 * t1
    assert t1 * t2 * t3 == IDENTITY
    box = [
        translation_perm((a, b)) for a in range(-2, 3) for b in range(-2, 3)
    ]
    for t in box:
        for u in box:
            assert t * u == u * t
    for t in box:
        for i in (1, 2, 3):
            conj = generator(i) * t * generator(i)
            assert is_translation(conj)
    elements = ball(5)
    seen = set()
    for f in elements:
        vec, sigma = decompose(f)
        assert translation_perm(vec) * sigma.perm == f
        seen.add((vec, sigma))
    assert len(seen) == len(elements)
    assert {sigma for _, sigma in seen} == set(FiniteS3Element)
    for x in FiniteS3Element:
        for y in FiniteS3Element:
            assert coset_mod_T(x.perm * y.perm) == x * y


@criterion(6, "hexagon, rotation and translation chord cycles spell exactly")
def test_ac6_chord_fixtures():
    def chords(ts):
        return [format_chord(name_triangle(t)) for t in ts]

    cyc = hexagon_cycle(BASE_TRIANGLE)
    assert format_note(cyc.common_tone) == "E"
    assert [format_chord(c) for c in cyc.chords] == ["C", "Em", "E", "C#m", "A", "Am"]

    assert chords(rotation_cycle(BASE_TRIANGLE)) == ["C", "E", "A"]
    assert chords(rotation_cycle(Triangle((0, 0), up=False))) == ["Cm", "G#m", "F#m"]
    assert chords(rotation_cycle(Triangle((1, 0), up=True))) == ["G", "C#", "F"]
    assert chords(rotation_cycle(Triangle((-1, 2), up=False))) == ["C#m", "Am", "Em"]

    assert chords(translation_cycle(BASE_TRIANGLE)) == ["C#", "B", "C"]
    assert chords(translation_cycle(Triangle((-1, 1), up=False))) == ["A#m", "G#m", "Am"]

    _, t = parse_chord("C#")
    assert [format_note(n) for n in chord_tones(t)] == ["C#", "E#", "G#"]


@criterion(7, "thirteen hexagon common tones label exactly")
def test_ac7_hexagon_labels():
    fixtures = {
        (0, 0): "E",
        (1, 0): "E#",
        (-1, 0): "Eb",
        (-1, -1): "F",
        (0, -1): "F#",
        (0, 1): "D",
        (1, 1): "D#",
        (-1, -2): "G",
        (0, -2): "G#",
        (-2, -2): "Gb",
        (1, 2): "C#",
        (2, 2): "Cx",
        (0, 2): "C",
    }
    assert len(fixtures) == 13
    for (e1, e2), label in fixtures.items():
        assert format_note(hexagon_common_tone(e1, e2)) == label


@criterion(8, "Schritt-Wechsel and point-reflection group facts")
def test_ac8_group_facts():
    r_box = [
        RElement(w, u, v)
        for w in (False, True)
        for u in range(-3, 4)
        for v in range(-3, 4)
    ]
    for u in range(-3, 4):
        for v in range(-3, 4):
            left = r_compose(RElement(True, u + 2, v - 1), RElement(True, u, v))
            assert left == RElement(False, 2, -1)
    assert all(r_order(x) != 3 for x in r_box)
    assert from_word([2, 3]).order() == 3

    p_box = [
        PElement(a, b, fl)
        for a in range(-3, 4)
        for b in range(-3, 4)
        for fl in (False, True)
    ]
    small = p_box[:: 7]
    for x in small:
        for y in small:
            assert p_to_r(p_compose(x, y)) == r_compose(p_to_r(y), p_to_r(x))
    for x in p_box:
        for k in NAMED_COMMAS.values():
            assert in_comma_subgroup(p_compose(p_compose(x, k), p_inverse(x)))
    assert len({project_d12(x) for x in p_box}) == 24
    h = project_d12(D12_ROTATION)
    rho = project_d12(D12_REFLECTION)
    assert d12_order(h) == 12
    assert d12_compose(d12_compose(rho, h), d12_inverse(rho)) == d12_inverse(h)
    assert all(in_comma_subgroup(k) for k in NAMED_COMMAS.values())
    assert len(NAMED_COMMAS) == 4


@criterion(9, "one extra letter can move the result far away")
def test_ac9_drift():
    g = apply_plr(BASE_TRIANGLE, "RL")
    fm = apply_plr(BASE_TRIANGLE, "RLP")
    assert format_chord(name_triangle(g)) == "G"
    assert format_chord(name_triangle(fm)) == "Fm"
    assert triangle_distance(g, fm) == gallery_distance_bfs(g, fm)
    assert triangle_distance(g, fm) == 5
    assert triangle_distance(g, fm) > 1
    assert triangle_distance(fm, apply_plr(BASE_TRIANGLE, "RL")) > 1


@criterion(10, "byte-identical reruns and a green verification suite")
def test_ac10_determinism():
    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    for argv in (
        ["analyze", "C#m", "A", "D", "--json"],
        ["reduce", "[-3,2,1]"],
        ["hexagon", "C", "--json"],
    ):
        code1, out1 = capture(argv)
        code2, out2 = capture(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        if "--json" in argv:
            json.loads(out1)

    with tempfile.TemporaryDirectory() as tmp:
        a = Path(tmp) / "a.svg"
        b = Path(tmp) / "b.svg"
        for out in (a, b):
            code, _ = capture(
                ["render", "--center", "C", "--radius", "2", "--out", str(out)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    code, report = capture(["verify", "--suite", "all", "--radius", "4"])
    assert code == 0
    assert "FAIL" not in report
