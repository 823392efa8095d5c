"""End-to-end CLI checks: runs main() in process and reads stdout."""

import argparse
import hashlib
import importlib
import json
import pkgutil
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from conftest import BUDGET_S, within_budget
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

import tonnetz
from tonnetz import cli, lattice, verify
from tonnetz.cli import main
from tonnetz.core import AffinePermutation, format_window, generator, parse_window
from tonnetz.lattice import BASE_TRIANGLE, Triangle, parse_triangle, perm_of
from tonnetz.pitch import MAX_ACCIDENTALS, parse_chord
from tonnetz.progressions import StripeKind, apply_plr, triangle_distance
from tonnetz.render import MAX_PATH_LETTERS, LabelMode


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    return json.loads(out)


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "[-3,2,1]")
    assert code == 0
    assert "word: s2 s3 s2" in out
    assert "window: [-3,2,1]" in out
    assert "length: 3" in out


def test_reduce_json(capsys):
    payload = run_json(capsys, "reduce", "[-3,2,1]")
    assert payload == {"length": 3, "window": [-3, 2, 1], "word": [2, 3, 2]}


def test_reduce_accepts_words_and_identity(capsys):
    code, out, _ = run(capsys, "reduce", "s2 s3 s2")
    assert code == 0
    assert "window: [-3,2,1]" in out
    code, out, _ = run(capsys, "reduce", "e")
    assert code == 0
    assert "word: e" in out
    assert "length: 0" in out


def test_mult(capsys):
    payload = run_json(capsys, "mult", "s3", "s1")
    assert payload == {"length": 2, "window": [0, -2, 2], "word": [3, 1]}


def test_mult_inverse_pair(capsys):
    payload = run_json(capsys, "mult", "[-3,1,2]", "[-2,2,0]")
    assert payload["window"] == [-1, 0, 1]
    assert payload["length"] == 0


def test_classify_reflection(capsys):
    code, out, _ = run(capsys, "classify", "s2 s3 s2")
    assert code == 0
    assert "type: reflection" in out
    assert "order: 2" in out
    assert "center: (0,2,-2)" in out
    assert "center-distance: 2" in out
    assert "flip-distance: 3" in out


def test_classify_translation(capsys):
    code, out, _ = run(capsys, "classify", "s2 s3 s2 s1")
    assert code == 0
    assert "type: translation" in out
    assert "order: infinite" in out


def test_chord_of_window(capsys):
    code, out, _ = run(capsys, "chord", "[2,-3,1]")
    assert code == 0
    assert "chord: C#" in out
    assert "triangle: U(-1,2)" in out


def test_locate(capsys):
    code, out, _ = run(capsys, "locate", "C#m")
    assert code == 0
    assert "window: [-3,2,1]" in out
    assert "triangle: D(-1,2)" in out


def test_locate_chord_and_back(capsys):
    payload = run_json(capsys, "locate", "Ebm[q=-1]")
    code, out, _ = run(capsys, "chord", "[%d,%d,%d]" % tuple(payload["window"]))
    assert code == 0
    assert "chord: Ebm" in out


def test_path(capsys):
    code, out, _ = run(capsys, "path", "C", "G")
    assert code == 0
    assert "plr: RL" in out
    assert "word: s3 s1" in out
    assert "length: 2" in out


def test_path_trivial(capsys):
    code, out, _ = run(capsys, "path", "C", "C")
    assert code == 0
    assert "plr: (empty)" in out
    assert "length: 0" in out


def test_hexagon(capsys):
    code, out, _ = run(capsys, "hexagon", "C")
    assert code == 0
    assert "tone: E" in out
    assert "cycle: C Em E C#m A Am" in out
    assert "coset: t1^0 t2^0" in out


def test_stripe_kinds(capsys):
    code, out, _ = run(capsys, "stripe", "C", "--count", "2")
    assert code == 0
    assert "stripe: F Am C Em G" in out
    code, out, _ = run(capsys, "stripe", "C", "--kind", "hexatonic", "--count", "2")
    assert "stripe: Ab Cm C Em E" in out
    code, out, _ = run(capsys, "stripe", "C", "--kind", "octatonic", "--count", "2")
    assert "stripe: A Am C Cm Eb" in out


def test_analyze_human(capsys):
    code, out, _ = run(capsys, "analyze", "C#m", "A", "D")
    assert code == 0
    assert "C#m[q=2]" in out
    assert "distance=1 common=E,C# hexagon" in out
    assert "distance=2 common=A" in out
    assert "total distance: 3" in out


def test_analyze_json(capsys):
    payload = run_json(capsys, "analyze", "C#m", "A", "D")
    assert payload["total_distance"] == 3
    steps = payload["steps"]
    assert [s["triangle"] for s in steps] == ["D(-1,2)", "U(-1,1)", "U(-2,1)"]
    assert steps[1]["common_tones"] == ["E", "C#"]
    assert steps[1]["shares_hexagon"] is True
    assert steps[2]["shares_hexagon"] is False


def test_riemann_mult(capsys):
    code, out, _ = run(capsys, "riemann", "mult", "Q^1 Z^0", "Q^0 Z^1 W")
    assert code == 0
    assert "element: Q^1 Z^1 W" in out
    assert "order: 2" in out


def test_riemann_quotient(capsys):
    code, out, _ = run(capsys, "riemann", "quotient", "(1,-1,0)")
    assert code == 0
    assert "coset: (1,3,0)" in out
    assert "order: 12" in out


def test_riemann_comma(capsys):
    code, out, _ = run(capsys, "riemann", "comma", "(3,4,0)")
    assert code == 0
    assert "in-comma-subgroup: yes" in out
    code, out, _ = run(capsys, "riemann", "comma", "(1,0,0)")
    assert "in-comma-subgroup: no" in out


# (checks, cases, sha256) of each suite at radius 6: a sweep counts the cases it
# evaluated, a single assertion counts one, and the digest is of the suite's rows as
# --json prints them, so a new or changed check re-pins its own suite's row alone
SUITE_PINS = {
    "bijection": (6, 258, "301fdbbd4b423c6babf374b283311683d79552a34b6f4db903f49fd985c3f8fd"),
    "center-distance": (3, 66, "a0d3eaa5c2c3de679d178bc4d852ac04a90746df2565c9a1a3b090e0d7054128"),
    "hexagons": (2, 433, "3210b64268804b30cada9fbc06064e713d685a04f2a18772e49612d8179f22f7"),
    "isometries": (3, 1344, "afecd7f43381085a33b6a08bfad8a9e8a927e462336db98204ea8211f193adbd"),
    "length-oracle": (1, 64, "8d7087424a181fec9d4bf4e003d67074c6e6623a7d6b24ae010e58ab8ae82f7d"),
    "pitch": (3, 676, "6633d75edffa1963ab5275716d8d93606239e00c590df79e785f4bee58ef324c"),
    "progressions": (5, 265, "725bf814890d4ce0958e669ef3a53792af15466bfab1bc224ec90bd4dda27105"),
    "reduce": (2, 128, "d8e700b2a7580fbaedc377cb4acb789cf8640334795c00fa17d3e5e9df14ad3f"),
    "relations": (9, 9, "9f94ebbf73b83c7414dca829eca9218250eabe7d43fdbd7021c2c121ded97293"),
    "render": (3, 3, "c8b27cb6b605b0d9ea732238e7a17b9b30aadcb323480e398ab9f0bd0fb05a37"),
    "riemann-p": (10, 2672, "5a224b59e557fec26215e71624549b1ad84296050a0e2ecb039f07c6a61dd390"),
    "riemann-r": (5, 7861, "483e4bc621648e199cafb25cf45745357ff5a98e565dcb2938250cc8cd2f2fe9"),
    "translations": (6, 2698, "93df1c3bf38c40a9b85a8d823eb3ef6d8269ea2c040b6a173d3e9c341b77e0e6"),
    "vertex-classes": (2, 219, "79fbf3877c4133cd5f226caa0e77a77415407777db7a9819df6c220187b665e6"),
    "windows": (4, 1408, "97c06e536a55ff8837e915a67863f7603384d44c8d1488f4762a15eded9b0e39"),
}


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_suite(suite):
    # the suites are the one home of ball and box sweeps; this runs each once
    results = verify.run_suite(suite, 6)
    assert [r for r in results if not r.ok] == []
    rows = [{"suite": suite, "check": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert (len(results), sum(r.cases for r in results), digest) == SUITE_PINS[suite]


def test_verify_report_format(monkeypatch, capsys):
    # two real names, so that argparse takes --suite, for stub suites of fixed results
    monkeypatch.setattr(verify, "SUITES", {
        "relations": lambda radius: [verify.CheckResult("holds", True, "3 cases", 3),
                                     verify.CheckResult("bare", True)],
        "center-distance": lambda radius: [verify.CheckResult("breaks", False, "1 failures")],
    })
    assert run(capsys, "verify") == (1, (
        "FAIL center-distance  breaks  (1 failures)\n"
        "ok  relations        holds  (3 cases)\n"
        "ok  relations        bare\n"
        "2/3 checks passed\n"), "")
    assert run(capsys, "verify", "--suite", "relations") == (0, (
        "ok  relations  holds  (3 cases)\n"
        "ok  relations  bare\n"
        "2/2 checks passed\n"), "")
    assert run(capsys, "verify", "--json") == (1, (
        '{"checks": [{"check": "breaks", "detail": "1 failures", "ok": false, '
        '"suite": "center-distance"}, {"check": "holds", "detail": "3 cases", "ok": true, '
        '"suite": "relations"}, {"check": "bare", "detail": "", "ok": true, '
        '"suite": "relations"}], "failed": 1, "radius": 4}\n'), "")


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_suites_reject_negative_radius(suite):
    with pytest.raises(ValueError, match="^radius must be non-negative$"):
        verify.run_suite(suite, -1)


@pytest.mark.parametrize("suite", ["all", "pitch", "relations", "riemann-r", "riemann-p"])
def test_verify_cli_rejects_negative_radius(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--radius", "-2")
    assert code == 1
    assert out == ""
    assert err == "error: radius must be non-negative\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_negative_count_and_radius_exit_1(tmp_path, capsys, json_flag):
    # argparse takes any integer; the library refuses a negative one
    code, out, err = run(capsys, "stripe", "C", "--count", "-1", *json_flag)
    assert (code, out, err) == (1, "", "error: count must be non-negative\n")
    svg = tmp_path / "out.svg"
    code, out, err = run(
        capsys, "render", "--center", "C", "--radius", "-1", "--out", str(svg), *json_flag
    )
    assert (code, out, err) == (1, "", "error: radius must be non-negative\n")
    assert not svg.exists()


@pytest.mark.parametrize("center", ["C", "C#", "Cbbbbbbb", "C" + "x" * 200])
@pytest.mark.parametrize("size", [-1, -2, -(10**4000 - 1)], ids=["-1", "-2", "-4000-nines"])
def test_negative_count_and_radius_of_any_size_exit_1(tmp_path, capsys, center, size):
    # the library's refusal, whatever the accidentals: neither the spelled
    # cap's check nor its message (whose count would be squared, past the
    # 4300 digits Python formats) sees a negative count or radius
    code, out, err = run(capsys, "stripe", center, "--count", str(size))
    assert (code, out, err) == (1, "", "error: count must be non-negative\n")
    svg = tmp_path / "out.svg"
    code, out, err = run(capsys, "render", "--center", center, "--radius", str(size), "--out", str(svg))
    assert (code, out, err) == (1, "", "error: radius must be non-negative\n")
    assert not svg.exists()


def test_verify_checks_do_not_only_reread_their_subject(monkeypatch):
    # each fault below leaves the value a check used to compare with
    # unchanged, so only an independent oracle in the check can see it
    from tonnetz import riemann, subgroups

    def failed(suite):
        return {r.name for r in verify.run_suite(suite, 3) if not r.ok}

    def reversed_product(x, y):
        return subgroups.coset_mod_T(y.perm * x.perm)

    def unsigned_compose(x, y):
        return riemann.RElement(x.wechsel ^ y.wechsel, x.quint + y.quint, x.terz + y.terz)

    def compose_mod_3(x, y):
        sign = -1 if x.wechsel else 1
        quint, terz = (x.quint + sign * y.quint) % 3, (x.terz + sign * y.terz) % 3
        return riemann.RElement(x.wechsel ^ y.wechsel, quint, terz)

    coords = subgroups.translation_coords

    def swapped_coords(f):
        e1, e2 = coords(f)
        return subgroups.TranslationVector(e2, e1)

    assert failed("translations") == failed("riemann-r") == set()
    with monkeypatch.context() as m:
        m.setattr(subgroups.FiniteS3Element, "__mul__", reversed_product)
        assert failed("translations") == {"quotient table is the finite table"}
    with monkeypatch.context() as m:
        m.setattr(subgroups, "translation_coords", swapped_coords)
        # a failing sweep counts every case it evaluated and names only the first failure
        checks = {r.name: (r.ok, r.detail, r.cases) for r in verify.run_suite("translations", 3)}
        assert checks["translation coords round trip"] == (
            False,
            "42 failures, first: coords (-3, -2)",
            49,
        )
        assert checks["conjugation stays in the lattice"] == (
            False,
            "126 failures, first: conjugate s1 (-3, -3)",
            147,
        )
    with monkeypatch.context() as m:
        m.setattr(riemann, "r_compose", unsigned_compose)
        assert "every Wechsel is an involution" in failed("riemann-r")
    with monkeypatch.context() as m:
        m.setattr(riemann, "r_compose", compose_mod_3)
        assert "no order 3 in R, unlike the triangle group" in failed("riemann-r")

    # a sweep that reads each reused value once still sees a fault in it,
    # with the failure count and first label of a sweep that reads it per case
    def check(suite, name):
        return next((r.detail, r.cases) for r in verify.run_suite(suite, 3) if r.name == name)

    def subtracting_compose(x, y):
        return riemann.RElement(x.wechsel ^ y.wechsel, x.quint - y.quint, x.terz - y.terz)

    translation_perm = verify.translation_perm

    def s1_for_e1(v):
        return generator(1) if tuple(v) == (1, 0) else translation_perm(v)

    perm_to_iso = lattice.perm_to_iso

    def shifted_for_s1(f):
        iso = perm_to_iso(f)
        if f == generator(1):
            return lattice.Isometry(iso.m, (iso.v[0] + 1, iso.v[1]))
        return iso

    mul = AffinePermutation.__mul__

    with monkeypatch.context() as m:
        m.setattr(riemann, "r_compose", subtracting_compose)
        assert check("riemann-r", "associativity") == ("5184 failures, first: assoc", 5832)
    with monkeypatch.context() as m:
        m.setattr(verify, "translation_perm", s1_for_e1)
        # the translation part of s1 rather than a refusal, so the suite runs on
        m.setattr(subgroups, "translation_coords", lambda f: subgroups.decompose(f)[0])
        assert check("translations", "translations commute") == (
            "90 failures, first: commute (-3, -3) (1, 0)",
            2401,
        )
    with monkeypatch.context() as m:
        m.setattr(lattice, "perm_to_iso", shifted_for_s1)
        assert check("isometries", "isometry map preserves products") == (
            "47 failures, first: homomorphism (2, -2, 0) (0, -1, 1)",
            361,
        )
    with monkeypatch.context() as m:
        m.setattr(AffinePermutation, "__mul__", lambda f, g: mul(g, f))
        assert check("windows", "composition matches function composition") == (
            "294 failures, first: compose (2, -2, 0) (1, -3, 2)",
            361,
        )


def test_verify_reports_a_suite_that_raises(monkeypatch, capsys):
    # s1 handed over as the translation by (1, 0) makes translation_coords
    # raise inside the translations suite; the other suites still report
    translation_perm = verify.translation_perm

    def s1_for_e1(v):
        return generator(1) if tuple(v) == (1, 0) else translation_perm(v)

    monkeypatch.setattr(verify, "translation_perm", s1_for_e1)
    code, out, err = run(capsys, "verify", "--suite", "all", "--radius", "3")
    lines = out.splitlines()
    suites = [line.split()[1] for line in lines[:-1]]
    assert (code, err) == (1, "")
    # every suite reports each of its checks, the translations suite one in place of all
    checks = {name: pin[0] for name, pin in SUITE_PINS.items()}
    assert Counter(suites) == checks | {"translations": 1}
    assert lines[-1] == f"{len(suites) - 2}/{len(suites)} checks passed"
    width = max(map(len, SUITE_PINS))
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL {'hexagons':<{width}}  hexagon shares exactly its center tone"
        "  (1 failures, first: hexagon (1,0))",
        f"FAIL {'translations':<{width}}  suite runs to the end"
        "  (NotATranslationError: (0, -1, 1) is not a translation)",
    ]


def test_verify_does_not_report_running_out_of_memory(monkeypatch):
    def out_of_memory(radius):
        raise MemoryError

    monkeypatch.setitem(verify.SUITES, "relations", out_of_memory)
    with pytest.raises(MemoryError):
        verify.run_suite("relations", 3)


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "invalid choice" in err


def test_render_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    code, out, _ = run(capsys, "render", "--center", "C", "--out", str(out1))
    assert code == 0
    assert "wrote" in out
    code, _, _ = run(capsys, "render", "--center", "C", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"<svg" in out1.read_bytes()


def test_render_with_path_and_labels(tmp_path, capsys):
    out = tmp_path / "c.svg"
    code, _, _ = run(
        capsys,
        "render", "--center", "C", "--radius", "2",
        "--path", "RL", "--labels", "windows", "--out", str(out),
    )
    assert code == 0
    body = out.read_text()
    assert ">-3,1,2<" in body
    assert "marker" in body


def test_render_bad_directory_fails_cleanly(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    code, _, err = run(capsys, "render", "--center", "C", "--out", str(target))
    assert code == 1
    assert "error:" in err


def test_stdout_reruns_identical(capsys):
    _, first, _ = run(capsys, "analyze", "C", "Am", "F", "G")
    _, second, _ = run(capsys, "analyze", "C", "Am", "F", "G")
    assert first == second


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "locate", "H")
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "bogus")
    assert code == 2
    code, _, _ = run(capsys, "path", "C")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "tonnetz" in out


def test_default_comma_env(monkeypatch, capsys):
    monkeypatch.setenv("TONNETZ_DEFAULT_COMMA", "0")
    code, out, _ = run(capsys, "locate", "C#m")
    assert code == 0
    assert "window: [5,-14,9]" in out
    assert "triangle: D(7,0)" in out


def test_default_comma_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("TONNETZ_DEFAULT_COMMA", "sharp")
    code, _, err = run(capsys, "locate", "C")
    assert code == 1
    assert "TONNETZ_DEFAULT_COMMA" in err


def test_default_comma_env_past_the_digit_limit(monkeypatch, capsys):
    monkeypatch.setenv("TONNETZ_DEFAULT_COMMA", "9" * 5000)
    message = f"TONNETZ_DEFAULT_COMMA of 5000 characters is too long to read, got '{'9' * 40}'... (5000 characters)"
    assert run_refused(capsys, "locate", "C") == f"error: {message}\n"


# --- hostile inputs: huge windows and far chords finish quickly ----------------

HUGE_WINDOWS = ["[-3000001,3000000,1]", "[2999999,-999999,-2000000]"]


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_suite_at_the_radius_cap(suite):
    # each suite alone finishes within BUDGET_S at the cap; all at once do not
    with within_budget():
        results = verify.run_suite(suite, cli.LIMITS["verify_radius"][0])
    assert [r for r in results if not r.ok] == []


def timed_json(capsys, *argv):
    with within_budget():
        return run_json(capsys, *argv)


@pytest.mark.parametrize("window", HUGE_WINDOWS)
def test_huge_window_classify_chord_hexagon(capsys, window):
    f = parse_window(window)
    classified = timed_json(capsys, "classify", window)
    chord = timed_json(capsys, "chord", window)
    # two independent closed forms: Shi's length and the strip distance
    t = parse_triangle(chord["triangle"])
    assert classified["flip_distance"] == triangle_distance(BASE_TRIANGLE, t) > 10**6
    symbol = "%s[q=%d]" % (chord["chord"], chord["comma"])
    assert perm_of(parse_chord(symbol)[1]) == f
    hexagon = timed_json(capsys, "hexagon", symbol)
    assert hexagon["chords"][0] == chord["chord"]


def test_huge_window_reduce(capsys):
    window = "[999999,-1000000,1]"
    payload = timed_json(capsys, "reduce", window)
    assert len(payload["word"]) == payload["length"] == parse_window(window).length()


def test_far_comma_hexagon(capsys):
    far = timed_json(capsys, "hexagon", "C[q=100000]")
    # three comma levels up is a translation, so q = 100000 looks like q = 1
    near = run_json(capsys, "hexagon", "C[q=1]")
    assert (far["tone"], far["chords"]) == (near["tone"], near["chords"])
    assert far["coset"] != near["coset"]


def test_far_comma_locate(capsys):
    # the human lines never show the reduced word, so they must not build it
    with within_budget():
        code, out, _ = run(capsys, "locate", "C[q=1000000000]")
    assert code == 0
    assert out == (
        "window: [-5000000001,7000000000,-1999999999]\n"
        "triangle: U(-4000000000,1000000000)\n"
    )


def test_far_comma_path(capsys):
    payload = timed_json(capsys, "path", "C", "C[q=2000]")
    assert payload["length"] == len(payload["plr"]) == len(payload["word"]) == 16000
    _, start = parse_chord("C")
    _, goal = parse_chord("C[q=2000]")
    assert apply_plr(start, payload["plr"]) == goal


# the refused work may copy its arguments, never build the output: 13.4 kB
# at most (the render centre with 12225 flats), where the smallest refused
# output takes megabytes
REFUSED_PEAK_BYTES = 25_000


def run_refused(capsys, *argv):
    """Run a command that must exit 1 within budget, printing nothing on
    stdout and building almost nothing; return its stderr.

    The peak is traced around the subcommand's function alone, called
    again on argv parsed beforehand, so it does not count building the
    parser and argparse's copies of argv.
    """
    with within_budget():
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    args = cli.build_parser().parse_args(argv)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refusal:
            args.func(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err == f"error: {refusal.value}\n"
    assert peak < REFUSED_PEAK_BYTES
    return err


def _major(fifth_index):
    """The element of the major chord rooted at a fifth index, comma level 0."""
    return format_window(perm_of(Triangle((fifth_index, 0), up=True)))


WORD_REFUSED = (
    "error: the reduced word has 2000001 letters; "
    "reduce, mult and locate --json print at most 2000000\n"
)
VERIFY_REFUSED = "error: --radius 41 is too large; verify checks balls of radius at most 40\n"
# the largest magnitude of an integer the CLI reads
TOP = 2**63 - 1
INTEGER_REFUSED = "error: a comma level has 64 bits; the CLI reads integers of at most 63 bits\n"

# For each row of cli.LIMITS, a case per command or spelling it covers: the largest
# input it accepts (None where another case of the row runs it), a piece of that
# run's output, the smallest input it refuses and the refusal's stderr.  C[q=n] lies
# 8n flips from C, and Cm[q=-n] 8n + 1; each window has length 2000000 or 2000001.
LIMIT_CASES = {
    "path": ("path_flips", ("path", "C", "C[q=12500]", "--json"), '"length": 100000',
             ("path", "C", "Cm[q=-12500]"),
             "error: C and Cm[q=-12500] are 100001 flips apart; path prints at most 100000\n"),
    # reduce and locate run at and past this row in the word tests below
    "word-mult": ("word_letters", None, None, ("mult", "[1500000,-1500001,1]", "e", "--json"),
                  WORD_REFUSED),
    # hexatonic names grow fastest along the stripe
    "stripe-count": ("stripe_count",
                     ("stripe", "C", "--kind", "hexatonic", "--count", "5000", "--json"),
                     '"positions": [-5000, ',
                     ("stripe", "C", "--kind", "hexatonic", "--count", "5001"),
                     "error: --count 5001 is too large; "
                     "stripe prints at most 5000 chords on each side of the seed\n"),
    # 1600 flats on the seed times 2 * 1562 + 1 = 3125 chords is the cap
    "stripe-accidentals": ("spelled_accidentals", ("stripe", "C" + "b" * 1600, "--count", "1562"),
                           " C" + "b" * 1600 + " ", ("stripe", "C" + "b" * 1601, "--count", "1562"),
                           "error: the stripe's 3125 chords would carry 5003125 accidentals "
                           "(1601 on the seed); stripe prints at most 5000000\n"),
    # 12224 flats on the center times the 409 triangles of radius 16 is just under the cap
    "render-accidentals": ("spelled_accidentals",
                           ("render", "--center", "C" + "b" * 12224, "--radius", "16",
                            "--labels", "chords", "--out", "ok.svg"),
                           "wrote ok.svg (5107930 bytes)",
                           ("render", "--center", "C" + "b" * 12225, "--radius", "16",
                            "--out", "out.svg"),
                           "error: the render's 409 triangles would carry 5000025 accidentals "
                           "(12225 on the center); render prints at most 5000000\n"),
    # all suites at radius 40 take longer than BUDGET_S, one suite far less
    "verify-all": ("verify_radius", ("verify", "--suite", "reduce", "--radius", "40"),
                   "{0}/{0} checks passed".format(SUITE_PINS["reduce"][0]),
                   ("verify", "--suite", "all", "--radius", "41"),
                   VERIFY_REFUSED),
    "verify-reduce": ("verify_radius", None, None,
                      ("verify", "--suite", "reduce", "--radius", "41"), VERIFY_REFUSED),
    "render-radius": ("render_radius", ("render", "--center", "C", "--radius", "128",
                                        "--out", "ok.svg"),
                      "wrote ok.svg (5384861 bytes)",
                      ("render", "--center", "C", "--radius", "129", "--out", "out.svg"),
                      "error: --radius 129 is too large; "
                      "render draws balls of radius at most 128\n"),
    # a path along a stripe of PL, which draws the longest <line> elements
    "render-path": ("render_path_letters",
                    ("render", "--center", "C", "--path", "PL" * 20000, "--out", "ok.svg"),
                    "wrote ok.svg (5303477 bytes)",
                    ("render", "--center", "C", "--path", "PL" * 20000 + "P", "--out", "out.svg"),
                    "error: --path has 40001 letters; render draws paths of at most 40000\n"),
    "analyze-chords": ("analyze_chords", ("analyze", *["C", "G"] * 500), "total distance: 1998\n",
                       ("analyze", *["C", "G"] * 500, "C"),
                       "error: 1001 chords given; analyze places at most 1000\n"),
    # a comma level of 2**63 - 1 at the stripe and radius caps, and one past it; the work
    # grows with the level's digits, and 4000 of them would run for seconds to a minute
    "integer-stripe": ("integer_bits",
                       ("stripe", f"C[q={TOP}]", "--count", "5000", "--json"),
                       f'"U({-4 * TOP},{TOP})"',
                       ("stripe", f"C[q={TOP + 1}]", "--count", "5000"), INTEGER_REFUSED),
    "integer-render": ("integer_bits", ("render", "--center", f"C[q={TOP}]", "--radius", "128",
                                        "--out", "ok.svg"),
                       "wrote ok.svg (9022269 bytes)",
                       ("render", "--center", f"C[q={TOP + 1}]", "--radius", "128",
                        "--out", "out.svg"), INTEGER_REFUSED),
    "name-sharps": ("name_accidentals", ("chord", _major(7 * MAX_ACCIDENTALS + 5)),
                    "chord: B" + "x" * (MAX_ACCIDENTALS // 2) + "\n",
                    ("chord", _major(7 * MAX_ACCIDENTALS + 6), "--json"),
                    "error: note at fifth index 7000006 needs 1000001 sharps; "
                    "spelled names carry at most 1000000\n"),
    "name-flats": ("name_accidentals", ("chord", _major(-7 * MAX_ACCIDENTALS - 1)),
                   "chord: F" + "b" * MAX_ACCIDENTALS + "\n",
                   ("chord", _major(-7 * MAX_ACCIDENTALS - 2), "--json"),
                   "error: note at fifth index -7000002 needs 1000001 flats; "
                   "spelled names carry at most 1000000\n"),
}


@pytest.mark.parametrize(
    "row, accepted, shows, refused, message", LIMIT_CASES.values(), ids=LIMIT_CASES
)
def test_limit_at_and_past_its_value(
    tmp_path, monkeypatch, capsys, row, accepted, shows, refused, message
):
    monkeypatch.chdir(tmp_path)
    if accepted:
        with within_budget():
            code, out, _ = run(capsys, *accepted)
        assert code == 0 and shows in out
    assert str(cli.LIMITS[row][0]) in message
    assert run_refused(capsys, *refused) == message
    assert not (tmp_path / "out.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [("reduce", "[1499999,-1500000,1]"), ("locate", "C[q=250000]")],
    ids=["reduce", "locate"],
)
def test_words_up_to_the_letter_cap(capsys, argv):
    # both elements have length 2000000
    payload = timed_json(capsys, *argv)
    assert len(payload["word"]) == cli.LIMITS["word_letters"][0]


@pytest.mark.parametrize(
    "argv", [("reduce", "[1500000,-1500001,1]"), ("locate", "Cm[q=-250000]", "--json")],
    ids=["reduce", "locate"],
)
def test_words_stop_at_the_letter_cap(capsys, argv):
    # each element has length 2000001
    # the refused word alone would take about 16 MB as a list
    assert run_refused(capsys, *argv) == WORD_REFUSED


# each integer the CLI reads, beside the comma levels of LIMIT_CASES: the largest
# magnitude accepted, TOP, and the first refused, TOP + 1
BIT_CAP_CASES = {
    "default-comma": ({"TONNETZ_DEFAULT_COMMA": str(TOP)}, ("locate", "C"),
                      {"TONNETZ_DEFAULT_COMMA": str(TOP + 1)}, ("locate", "C[q=0]"),
                      "TONNETZ_DEFAULT_COMMA"),
    # each window sums to zero and meets each residue class once
    "window-entry": ({}, ("classify", f"[{TOP - 1},{-TOP},1]"),
                     {}, ("classify", f"[{TOP + 2},{-TOP - 1},-1]"), "a window entry"),
    "riemann-mult": ({}, ("riemann", "mult", f"Q^{TOP} Z^{-TOP}", f"Z^{TOP} W"),
                     {}, ("riemann", "mult", "Q^0", f"Z^{-TOP - 1}"), "an exponent"),
    "riemann-quotient": ({}, ("riemann", "quotient", f"({-TOP},{TOP},1)"),
                         {}, ("riemann", "comma", f"({TOP + 1},0,0)"), "an exponent"),
    "analyze-symbol": ({}, ("analyze", "C", f"G[q={-TOP}]", "D"),
                       {}, ("analyze", "C", f"G[q={-TOP - 1}]", "D"), "a comma level"),
}


@pytest.mark.parametrize(
    "accepted_env, accepted, refused_env, refused, what", BIT_CAP_CASES.values(),
    ids=BIT_CAP_CASES,
)
def test_integers_at_and_past_the_bit_cap(
    monkeypatch, capsys, accepted_env, accepted, refused_env, refused, what
):
    for name, value in accepted_env.items():
        monkeypatch.setenv(name, value)
    with within_budget():
        code, _, _ = run(capsys, *accepted)
    assert code == 0
    for name, value in refused_env.items():
        monkeypatch.setenv(name, value)
    message = f"error: {what} has 64 bits; the CLI reads integers of at most 63 bits\n"
    assert run_refused(capsys, *refused) == message


# a positive --count or --radius past the cap is refused by its bits before its own
# row, whose message would echo every digit: 4 kB at 4000 nines
@pytest.mark.parametrize("size, bits", [(2**63, 64), (10**4000 - 1, 13288)],
                         ids=["2**63", "4000-nines"])
@pytest.mark.parametrize("argv", [("stripe", "C", "--count"), ("verify", "--radius"),
                                  ("render", "--center", "C", "--out", "out.svg", "--radius")],
                         ids=["stripe", "verify", "render"])
def test_a_count_or_radius_past_the_bit_cap(tmp_path, monkeypatch, capsys, argv, size, bits):
    monkeypatch.chdir(tmp_path)
    message = f"error: {argv[-1]} has {bits} bits; the CLI reads integers of at most 63 bits\n"
    assert run_refused(capsys, *argv, str(size)) == message
    assert not (tmp_path / "out.svg").exists()


# a refusal quotes a long argument by its first 40 characters and its length;
# each of these used to echo it whole, 5 to 100 kB of stderr; the level raised
# int()'s own ValueError, and the other integers past int()'s digit limit were
# refused as not integers
NINES = "9" * 5000
LONG_ARGUMENTS = {
    "window-entries": (("reduce", f"[{NINES},-{NINES},0]"), "window entry of 5000 characters is too long "
                       f"to read, got '[{NINES[:39]}'... (10006 characters)"),
    # the residue check echoed the window before the bit check ran
    "window-residues": (("reduce", f"[{NINES[:4001]},-{NINES[:4001]},0]"),
                        f"window '({NINES[:39]}'... (8010 characters) must meet each residue class mod 3 once"),
    "riemann-quotient": (("riemann", "quotient", f"({NINES},0,0)"), "exponent of 5000 characters is too "
                         f"long to read in '({NINES[:39]}'... (5006 characters)"),
    "riemann-mult": (("riemann", "mult", f"Q^{NINES}", "W"), "exponent of 5000 characters is too long to "
                     f"read in token 'Q^{NINES[:38]}'... (5002 characters)"),
    "chord-letter": (("chord", "H" + "#" * 100_000),
                     f"unknown note letter 'H' in 'H{'#' * 39}'... (100001 characters) at position 0"),
    "chord-level": (("chord", f"C[q={NINES}]"), "comma level of 5000 characters is too long to read "
                    f"in 'C[q={NINES[:36]}'... (5005 characters) at position 4"),
    # a symbol of at most 40 characters stays bare, as in "C and Cm[q=-12500] are ..."
    "path-flips": (("path", "C" + "#" * 30_000, "C"), f"'C{'#' * 39}'... (30001 characters) and C "
                   "are 105000 flips apart; path prints at most 100000"),
}


@pytest.mark.parametrize("argv, message", LONG_ARGUMENTS.values(), ids=LONG_ARGUMENTS)
def test_a_refusal_quotes_a_long_argument_by_its_prefix(capsys, argv, message):
    err = run_refused(capsys, *argv)
    assert err == f"error: {message}\n"
    assert len(err.encode()) <= 300 and max(argv, key=len) not in err


def test_every_limit_has_cases_and_is_in_help(capsys):
    assert {case[0] for case in LIMIT_CASES.values()} == set(cli.LIMITS)
    _, out, _ = run(capsys, "--help")
    # each clause states its row's value; argparse rewraps the epilog
    help_text = " ".join(out.split())
    assert all(clause.format(cap=cap) in help_text for cap, _, clause in cli.LIMITS.values())


# --- generated hostile inputs ----------------------------------------------------


def _near(row):
    """A row's value, one past it, or a small value, as an argument string."""
    cap = cli.LIMITS[row][0]
    return st.sampled_from([cap, cap + 1, -1, 0, 1, 2]).map(str)


def _valid_window(x, y, order):
    """A window sums to zero and meets each residue class mod 3 once."""
    entries = (3 * x, 3 * y + 1, -3 * x - 3 * y - 1)
    return "[%d,%d,%d]" % tuple(entries[i] for i in order)


# magnitudes from 2**63, past the integer_bits cap, up to about 10**4000
_past_the_bit_cap = st.builds(
    lambda bits, low, sign: sign * (2**bits + low),
    st.integers(63, 13287), st.integers(0, 2**63), st.sampled_from([1, -1]),
)
_huge = st.integers(-(10**15), 10**15) | _past_the_bit_cap
_third = st.integers(-(10**15) // 3, 10**15 // 3) | _past_the_bit_cap
# few windows drawn at random are valid, so half of them are built to be
_windows = st.builds(_valid_window, _third, _third, st.permutations(range(3))) | st.builds(
    "[{},{},{}]".format, _huge, _huge, _huge
)
_words = st.lists(st.sampled_from(["s1", "s2", "s3"]), min_size=1, max_size=12).map(" ".join)
# the comma levels at which path and locate --json reach their caps, and far ones
_commas = (
    st.sampled_from([12500, -12500, 250000, -250000])
    | st.integers(-(10**12), 10**12)
    | _past_the_bit_cap
)
_chords = st.builds(
    "{}{}{}{}".format,
    st.sampled_from("ABCDEFG"),
    st.builds(str.__mul__, st.sampled_from("#xb"), st.integers(0, 60)),
    st.sampled_from(["", "m"]),
    st.just("") | _commas.map("[q={}]".format),
)
_elements = _windows | _words | _chords
HOSTILE_ARGV = st.one_of(
    st.tuples(st.sampled_from(["reduce", "classify", "chord"]), _elements),
    st.tuples(st.just("mult"), _elements, _elements),
    st.tuples(st.sampled_from(["locate", "hexagon"]), _chords),
    st.tuples(st.just("path"), _chords, _chords),
    st.tuples(st.just("stripe"), _chords, st.just("--kind"), st.sampled_from(cli.STRIPE_KINDS),
              st.just("--count"), _near("stripe_count")),
    st.lists(_chords, min_size=1, max_size=6).map(lambda chords: ("analyze", *chords)),
    st.tuples(st.just("riemann"), st.just("mult"),
              *[st.builds("Q^{} Z^{}{}".format, _huge, _huge, st.sampled_from(["", " W"]))] * 2),
    st.tuples(st.just("riemann"), st.sampled_from(["quotient", "comma"]),
              st.builds("({},{},{})".format, _huge, _huge, st.sampled_from([0, 1]))),
    # radii below the cap and one past it: test_verify_suite_at_the_radius_cap runs each
    # suite at the cap, which on a slow host can run past BUDGET_S here, where a replayed
    # example reruns it
    st.tuples(st.just("verify"), st.just("--suite"), st.sampled_from(cli.SUITE_NAMES),
              st.just("--radius"),
              st.sampled_from([-1, 0, 1, 2, 6, cli.LIMITS["verify_radius"][0] + 1]).map(str)),
    st.tuples(st.just("render"), st.just("--center"), _chords, st.just("--radius"),
              _near("render_radius"), st.just("--labels"), st.sampled_from(cli.LABEL_MODES),
              st.just("--path"), st.text("PLR", max_size=8), st.just("--out"), st.just("out.svg")),
)


# no shrinking: an example runs one command of up to BUDGET_S, so shrinking a failure
# would spend hypothesis's whole 300 s allowance, and the failing argv is reported as drawn
@settings(
    max_examples=40,
    deadline=None,
    database=None,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=HOSTILE_ARGV, as_json=st.booleans())
# a comma level of 4000 digits at the stripe and render caps, whose work grows with
# the digits, so the integer_bits row must refuse it at once
@example(argv=("stripe", f"C[q={'9' * 4000}]", "--count", "5000"), as_json=False)
@example(argv=("render", "--center", f"C[q={'9' * 4000}]", "--radius", "128", "--out", "out.svg"),
         as_json=False)
def test_generated_argv_exits_0_1_or_2_within_budget(tmp_path, monkeypatch, capsys, argv, as_json):
    # every value drawn is refused before work or finishes well within BUDGET_S;
    # an exception that main lets through, MemoryError included, fails the test
    monkeypatch.chdir(tmp_path)
    with within_budget():
        code = main([*argv, "--json"] if as_json else list(argv))
    capsys.readouterr()
    assert code in (0, 1, 2)


def test_json_builds_no_human_lines(capsys, monkeypatch):
    # the human lines format the whole reduced word; --json must not pay for it
    def no_format_word(word):
        raise AssertionError("format_word called under --json")

    monkeypatch.setattr("tonnetz.cli.format_word", no_format_word)
    for argv in (("reduce", "[-3,2,1]"), ("mult", "s1", "s2"), ("path", "C", "Em")):
        payload = run_json(capsys, *argv)
        assert payload["word"]
    with pytest.raises(AssertionError, match="under --json"):
        main(["reduce", "[-3,2,1]"])


class BrokenPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [("chord", "C"), ("reduce", "[-3,2,1]", "--json")], ids=" ".join)
def test_a_failed_write_exits_1(capsys, monkeypatch, argv):
    # writing the output is part of the command: its OSError is reported
    # like any other, and does not escape main
    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    code = main(list(argv))
    monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (1, "error: [Errno 32] Broken pipe\n")


def test_parser_choices_are_the_enums():
    # the parser reads literal tuples so that building it imports nothing
    assert cli.STRIPE_KINDS == tuple(k.value for k in StripeKind)
    assert cli.LABEL_MODES == tuple(m.value for m in LabelMode)
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES)) == tuple(SUITE_PINS)


def test_path_cap_is_the_library_cap():
    # a literal too, for the same reason; RenderSpec refuses a longer path itself
    assert cli.LIMITS["render_path_letters"][0] == MAX_PATH_LETTERS


# --- no request path runs a search ----------------------------------------------

# the breadth-first searches, kept as the oracles that verify and the tests run
SEARCHES = {
    "triangle_ball": lattice.triangle_ball,
    "gallery_distance_bfs": lattice.gallery_distance_bfs,
}

# one or more commands for every subcommand but verify, render in each label mode
REQUEST_ARGV = [
    ("reduce", "[-3,2,1]"),
    ("mult", "s3", "s1"),
    ("classify", "s2 s3 s2 s1"),
    ("chord", "[2,-3,1]"),
    ("locate", "C#m"),
    ("path", "C", "F#m"),
    ("hexagon", "C"),
    ("stripe", "C", "--kind", "octatonic", "--count", "4"),
    ("analyze", "C#m", "A", "D", "Ebm[q=-1]"),
    ("riemann", "mult", "Q^1 Z^0", "Q^0 Z^1 W"),
    ("riemann", "quotient", "(1,-1,0)"),
    ("riemann", "comma", "(3,4,0)"),
    *(
        ("render", "--center", "F#m", "--radius", "5", "--labels", mode, "--out", f"{mode}.svg")
        for mode in cli.LABEL_MODES
    ),
    ("render", "--center", "Bb", "--radius", "3", "--path", "PLRRL", "--out", "path.svg"),
]


def _subcommands(parser):
    """Each subcommand as its tuple of names, such as ("riemann", "mult")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {()}
    return {(name, *rest) for name, p in subs[0].choices.items() for rest in _subcommands(p)}


def test_no_request_path_runs_a_search(tmp_path, monkeypatch, capsys):
    names = _subcommands(cli.build_parser())
    covered = {path for path in names for argv in REQUEST_ARGV if argv[: len(path)] == path}
    assert covered == names - {("verify",)}
    # a lazily loaded module binds the searches when it is first imported,
    # so every module is loaded before any binding is replaced
    for m in pkgutil.iter_modules(tonnetz.__path__):
        if m.name != "verify":
            importlib.import_module(f"tonnetz.{m.name}")
    runs = [(*argv, *flag) for argv in REQUEST_ARGV for flag in ((), ("--json",))]

    def outputs(folder):
        # each pass writes its SVG files into a folder of its own
        (tmp_path / folder).mkdir()
        monkeypatch.chdir(tmp_path / folder)
        for argv in runs:
            code, out, err = run(capsys, *argv)
            files = {f.name: f.read_bytes() for f in Path.cwd().iterdir()}
            yield argv, code, out, err, files

    plain = list(outputs("plain"))
    assert all(code == 0 for _, code, *_ in plain)

    def search(*args, **kwargs):
        raise AssertionError("a request path ran a breadth-first search")

    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "tonnetz" or name.startswith("tonnetz."):
            for attr, fn in SEARCHES.items():
                if getattr(module, attr, None) is fn:
                    monkeypatch.setattr(module, attr, search)
                    patched += 1
    # lattice, which defines both, holds two bindings
    assert patched >= 2
    assert list(outputs("stubbed")) == plain
