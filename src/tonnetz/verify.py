"""Exhaustive invariant checks over bounded balls and exponent boxes.

Each suite re-verifies one cluster of algebraic facts by brute force:
relations by window identities, lengths against breadth-first search on
the flip graph, subgroup laws on exponent boxes, and so on.  SUITES is
the one home of ball and box sweeps and backs the `verify` subcommand;
the tests run each suite at radius 6 with its check and case counts
pinned, so a new sweep invariant goes into a suite, not a test.

The radius bounds the search: the ball of reduced words of that length,
exponents in [-radius, radius], or both, depending on the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import core, lattice, pitch, progressions, render, riemann, subgroups
from .core import IDENTITY, ball, from_word, generator
from .lattice import BASE_TRIANGLE, Triangle, gallery_distance_bfs, triangle_ball, triangle_of
from .riemann import PElement, RElement
from .subgroups import S3_ELEMENTS, translation_perm


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), detail)


def _count_failures(pairs: list[tuple[bool, str]]) -> tuple[bool, str]:
    bad = [d for ok, d in pairs if not ok]
    if bad:
        return False, f"{len(bad)} failures, first: {bad[0]}"
    return True, f"{len(pairs)} cases"


# --- suites -------------------------------------------------------------------


def suite_relations(radius: int) -> list[CheckResult]:
    """The defining Coxeter relations as exact window identities."""
    results = []
    for i in (1, 2, 3):
        s = generator(i)
        results.append(_check(f"s{i}^2 = e", s * s == IDENTITY))
    for i, j in ((1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)):
        lhs = from_word((i, j, i))
        rhs = from_word((j, i, j))
        results.append(_check(f"s{i}s{j}s{i} = s{j}s{i}s{j}", lhs == rhs))
    return results


def suite_windows(radius: int) -> list[CheckResult]:
    """Window arithmetic: composition, inverses, parity, order."""
    elems = ball(radius)
    small = ball(min(radius, 3))
    cases = []
    for f in elems:
        for g in small:
            h = f * g
            ok = all(h(n) == f(g(n)) for n in range(-4, 5))
            cases.append((ok, f"compose {f.window} {g.window}"))
    results = [_check("composition matches function composition", *_count_failures(cases))]
    cases = [(f * f.inverse() == IDENTITY, f"inverse {f.window}") for f in elems]
    results.append(_check("f * f^-1 = e", *_count_failures(cases)))
    cases = [
        (f.is_even() == (f.length() % 2 == 0), f"parity {f.window}")
        for f in elems
    ]
    results.append(_check("parity equals length mod 2", *_count_failures(cases)))
    cases = []
    for f in elems:
        # f, f^2, ..., f^13: a finite order is 1, 2 or 3, so an element of
        # infinite order must reach no identity here
        powers = [f]
        for _ in range(12):
            powers.append(powers[-1] * f)
        least = next((k for k, g in enumerate(powers, 1) if g == IDENTITY), None)
        cases.append((least == f.order(), f"order {f.window}"))
    results.append(_check("order is the least annihilating power", *_count_failures(cases)))
    return results


def suite_reduce(radius: int) -> list[CheckResult]:
    """Reduced words: round trip, minimality against the flip oracle."""
    elems = ball(radius)
    cases = [(from_word(f.reduced_word()) == f, f"round trip {f.window}") for f in elems]
    results = [_check("from_word(reduced_word(f)) = f", *_count_failures(cases))]
    cases = [
        (len(f.reduced_word()) == f.length(), f"length {f.window}") for f in elems
    ]
    results.append(_check("length is the reduced word length", *_count_failures(cases)))
    return results


def suite_length_oracle(radius: int) -> list[CheckResult]:
    """Coxeter length equals flip distance from the base triangle."""
    dist = triangle_ball(BASE_TRIANGLE, radius)
    cases = []
    for f in ball(radius):
        d = dist.get(triangle_of(f))
        cases.append((d == f.length(), f"{f.window}: bfs {d} vs length {f.length()}"))
    return [_check("length = flip distance", *_count_failures(cases))]


def suite_bijection(radius: int) -> list[CheckResult]:
    """Windows <-> triangles is a bijection, layer by layer."""
    elems = ball(radius)
    results = [
        _check("windows pairwise distinct", len(set(elems)) == len(elems), f"{len(elems)} elements")
    ]
    cases = [
        (core.triangle_to_perm(f.center_coords()) == f, f"coords {f.window}") for f in elems
    ]
    results.append(_check("triangle_to_perm inverts center_coords", *_count_failures(cases)))
    cases = [
        (lattice.perm_of(triangle_of(f)) == f, f"triangle {f.window}") for f in elems
    ]
    results.append(_check("perm_of inverts triangle_of", *_count_failures(cases)))
    bfs = triangle_ball(BASE_TRIANGLE, radius)
    cases = [
        (
            lattice.triangle_from_coords(lattice.geometric_coords(t)) == t,
            f"coords {lattice.format_triangle(t)}",
        )
        for t in bfs
    ]
    results.append(_check("triangle_from_coords inverts geometric_coords", *_count_failures(cases)))
    layer_counts = core.length_layers(radius)
    bfs_counts = [sum(1 for d in bfs.values() if d == k) for k in range(radius + 1)]
    results.append(
        _check(
            "ball layers match flip-graph layers",
            layer_counts == bfs_counts,
            f"{layer_counts}",
        )
    )
    cases = [
        (
            lattice.geometric_coords(triangle_of(f)) == f.center_coords(),
            f"routes {f.window}",
        )
        for f in elems
    ]
    results.append(_check("window route equals lattice route", *_count_failures(cases)))
    return results


def suite_center_distance(radius: int) -> list[CheckResult]:
    """The closed-form center distance against true flip distance.

    The closed form is a lower bound; where it agrees with the flip
    distance is tabulated (see center_distance_table), not assumed.
    """
    elems = ball(radius)
    cases = [
        (f.center_distance() <= f.length(), f"bound {f.window}") for f in elems
    ]
    results = [_check("center distance <= length", *_count_failures(cases))]
    results.append(
        _check("center distance of identity is 0", IDENTITY.center_distance() == 0)
    )
    agree = sum(1 for f in elems if f.center_distance() == f.length())
    results.append(
        _check(
            "agreement tabulated",
            True,
            f"{agree}/{len(elems)} agree within radius {radius}",
        )
    )
    return results


def _lattice_shift(vec: tuple[int, int]) -> tuple[int, int]:
    """e1 * T1_VECTOR + e2 * T2_VECTOR, the lattice shift of t1^e1 * t2^e2."""
    (a1, b1), (a2, b2) = lattice.T1_VECTOR, lattice.T2_VECTOR
    e1, e2 = vec
    return (e1 * a1 + e2 * a2, e1 * b1 + e2 * b2)


def suite_translations(radius: int) -> list[CheckResult]:
    """The translation subgroup: abelian, normal, index six."""
    rng = range(-min(radius, 3), min(radius, 3) + 1)
    vecs = [(e1, e2) for e1 in rng for e2 in rng]
    cases = []
    for v in vecs:
        for w in vecs:
            cases.append(
                (
                    translation_perm(v) * translation_perm(w)
                    == translation_perm(w) * translation_perm(v),
                    f"commute {v} {w}",
                )
            )
    results = [_check("translations commute", *_count_failures(cases))]
    cases = [
        (
            subgroups.translation_coords(translation_perm(v)) == v,
            f"coords {v}",
        )
        for v in vecs
    ]
    results.append(_check("translation coords round trip", *_count_failures(cases)))
    cases = []
    for i in (1, 2, 3):
        s = generator(i)
        # s_i moves a lattice shift u to m u, m being its isometry's linear part
        linear = lattice.Isometry(lattice.generator_isometry(i).m, (0, 0))
        for v in vecs:
            ok = subgroups.is_translation(s * translation_perm(v) * s)
            if ok:
                image = linear.apply(_lattice_shift(v))
                ok = _lattice_shift(subgroups.conjugate_translation(i, v)) == image
            cases.append((ok, f"conjugate s{i} {v}"))
    results.append(_check("conjugation stays in the lattice", *_count_failures(cases)))
    elems = ball(radius)
    cases = []
    for f in elems:
        vec, sigma = subgroups.decompose(f)
        ok = translation_perm(vec) * sigma.perm == f
        others = sum(
            1
            for tau in S3_ELEMENTS
            if subgroups.is_translation(f * tau.inverse().perm)
        )
        cases.append((ok and others == 1, f"decompose {f.window}"))
    results.append(_check("unique factorization over the finite subgroup", *_count_failures(cases)))
    classes = {subgroups.coset_mod_T(f) for f in elems}
    results.append(
        _check("index six", len(classes) == (6 if radius >= 3 else len(classes)), f"{len(classes)} cosets seen")
    )
    cases = []
    for x in S3_ELEMENTS:
        for y in S3_ELEMENTS:
            cases.append(
                (
                    subgroups.coset_mod_T((x * y).perm) == x * y
                    and (x * y).perm == from_word(x.word + y.word),
                    f"table {x.name} {y.name}",
                )
            )
    results.append(_check("quotient table is the finite table", *_count_failures(cases)))
    return results


def suite_isometries(radius: int) -> list[CheckResult]:
    """The window-to-isometry map is a faithful homomorphism."""
    elems = ball(radius)
    small = ball(min(radius, 3))
    cases = []
    for f in elems:
        for g in small:
            ok = lattice.perm_to_iso(f * g) == lattice.perm_to_iso(f) * lattice.perm_to_iso(g)
            cases.append((ok, f"homomorphism {f.window} {g.window}"))
    results = [_check("isometry map preserves products", *_count_failures(cases))]
    cases = [
        (lattice.perm_to_iso(f).det() == (1 if f.is_even() else -1), f"det {f.window}")
        for f in elems
    ]
    results.append(_check("determinant matches parity", *_count_failures(cases)))
    cases = [
        (
            subgroups.is_translation(f) == (f.classify() is core.ElementType.TRANSLATION or f == IDENTITY),
            f"translation {f.window}",
        )
        for f in elems
    ]
    results.append(_check("translation test matches classification", *_count_failures(cases)))
    return results


def suite_vertex_classes(radius: int) -> list[CheckResult]:
    """The three vertex orbits and their preservation by the group."""
    triangles = list(triangle_ball(BASE_TRIANGLE, radius))
    cases = [
        (
            sorted(lattice.vertex_class(v) for v in t.vertices()) == [0, 1, 2],
            f"classes {lattice.format_triangle(t)}",
        )
        for t in triangles
    ]
    results = [_check("one vertex of each class", *_count_failures(cases))]
    cases = []
    for f in ball(min(radius, 4)):
        iso = lattice.perm_to_iso(f)
        for v in [(0, 0), (1, 0), (0, 1), (2, -1), (-1, 2)]:
            cases.append(
                (
                    lattice.vertex_class(iso.apply(v)) == lattice.vertex_class(v),
                    f"action {f.window} on {v}",
                )
            )
    results.append(_check("action preserves vertex classes", *_count_failures(cases)))
    return results


def suite_hexagons(radius: int) -> list[CheckResult]:
    """Coset hexagons: six triangles around one class-2 vertex."""
    rng = range(-min(radius, 3), min(radius, 3) + 1)
    cases = []
    for e1 in rng:
        for e2 in rng:
            t = translation_perm((e1, e2))
            triangles = [triangle_of(t * sigma.perm) for sigma in S3_ELEMENTS]
            shared = set(triangles[0].vertices())
            for u in triangles[1:]:
                shared &= set(u.vertices())
            ok = len(shared) == 1
            if ok:
                v = next(iter(shared))
                ok = (
                    lattice.vertex_class(v) == 2
                    and pitch.spell_vertex(v) == pitch.hexagon_common_tone(e1, e2)
                )
            cases.append((ok, f"hexagon ({e1},{e2})"))
    results = [_check("hexagon shares exactly its center tone", *_count_failures(cases))]
    cases = []
    for f in ball(radius):
        hexagon = subgroups.hexagon_of(f)
        for sigma in S3_ELEMENTS:
            cases.append(
                (
                    subgroups.hexagon_of(f * sigma.perm) == hexagon,
                    f"coset {f.window} {sigma.name}",
                )
            )
    results.append(_check("hexagon id constant on cosets", *_count_failures(cases)))
    return results


def suite_riemann_r(radius: int) -> list[CheckResult]:
    """The Schritt-Wechsel group law on an exponent box."""
    rng = range(-radius, radius + 1)
    box = [
        RElement(w, u, v) for w in (False, True) for u in rng for v in rng
    ]
    cases = []
    for x in box:
        cases.append(
            (
                riemann.r_compose(x, riemann.r_inverse(x)) == riemann.R_IDENTITY,
                f"inverse {x}",
            )
        )
    results = [_check("inverses", *_count_failures(cases))]
    small = [RElement(w, u, v) for w in (False, True) for u in (-2, 0, 1) for v in (-1, 0, 2)]
    cases = []
    for x in small:
        for y in small:
            for z in small:
                cases.append(
                    (
                        riemann.r_compose(riemann.r_compose(x, y), z)
                        == riemann.r_compose(x, riemann.r_compose(y, z)),
                        "assoc",
                    )
                )
    results.append(_check("associativity", *_count_failures(cases)))
    cases = []
    for u in rng:
        for v in rng:
            for u2 in (-2, 0, 3):
                for v2 in (-1, 0, 2):
                    tw = RElement(True, u, v)
                    t2w = RElement(True, u2, v2)
                    product = riemann.r_compose(t2w, tw)
                    ok = product == RElement(False, u2 - u, v2 - v)
                    cases.append((ok, f"wechsel law {u} {v} {u2} {v2}"))
    results.append(_check("product of two Wechsel is a Schritt difference", *_count_failures(cases)))
    cases = []
    for u in rng:
        for v in rng:
            w = RElement(True, u, v)
            ok = riemann.r_order(w) == 2 and riemann.r_compose(w, w) == riemann.R_IDENTITY
            cases.append((ok, f"involution {u} {v}"))
    results.append(_check("every Wechsel is an involution", *_count_failures(cases)))
    orders = {riemann.r_order(x) for x in box}
    e = riemann.R_IDENTITY
    cube_roots = [x for x in box if riemann.r_compose(riemann.r_compose(x, x), x) == e]
    results.append(
        _check(
            "no order 3 in R, unlike the triangle group",
            3 not in orders and cube_roots == [e] and from_word((2, 3)).order() == 3,
            f"orders seen: {sorted(o for o in orders if o is not None)} and None",
        )
    )
    return results


def suite_riemann_p(radius: int) -> list[CheckResult]:
    """The point-reflection group, its comma subgroup and quotient."""
    rng = range(-radius, radius + 1)
    box = [PElement(a, b, fl) for a in rng for b in rng for fl in (False, True)]
    cases = [
        (
            riemann.p_compose(x, riemann.p_inverse(x)) == riemann.P_IDENTITY,
            f"inverse {x}",
        )
        for x in box
    ]
    results = [_check("inverses", *_count_failures(cases))]
    cases = []
    for i in (1, 2, 3):
        g = riemann.p_generator(i)
        cases.append((riemann.p_compose(g, g) == riemann.P_IDENTITY, f"pi{i} involution"))
    results.append(_check("point reflections are involutions", *_count_failures(cases)))
    small = [PElement(a, b, fl) for a in (-2, 0, 1) for b in (-1, 0, 2) for fl in (False, True)]
    cases = []
    for x in small:
        for y in small:
            lhs = riemann.p_to_r(riemann.p_compose(x, y))
            rhs = riemann.r_compose(riemann.p_to_r(y), riemann.p_to_r(x))
            cases.append((lhs == rhs, f"anti {x} {y}"))
    results.append(_check("p_to_r reverses products", *_count_failures(cases)))
    cases = []
    for x in small:
        for y in small:
            lhs = riemann.p_isometry(riemann.p_compose(x, y))
            rhs = riemann.p_isometry(x) * riemann.p_isometry(y)
            cases.append((lhs == rhs, f"iso {x} {y}"))
    results.append(_check("p_isometry preserves products", *_count_failures(cases)))
    commas = list(riemann.NAMED_COMMAS.items())
    cases = [(riemann.in_comma_subgroup(k), name) for name, k in commas]
    results.append(_check("named commas lie in K", *_count_failures(cases)))
    cases = []
    for x in box:
        for _, k in commas:
            conj = riemann.p_compose(riemann.p_compose(x, k), riemann.p_inverse(x))
            cases.append((riemann.in_comma_subgroup(conj), f"normal {x}"))
    results.append(_check("K is normal", *_count_failures(cases)))
    images = {riemann.project_d12(x) for x in box}
    ok = len(images) == 24 if radius >= 3 else len(images) <= 24
    results.append(_check("quotient has 24 elements", ok, f"{len(images)} cosets seen"))
    cases = []
    for x in small:
        for y in small:
            lhs = riemann.project_d12(riemann.p_compose(x, y))
            rhs = riemann.d12_compose(riemann.project_d12(x), riemann.project_d12(y))
            cases.append((lhs == rhs, f"projection {x} {y}"))
    results.append(_check("projection preserves products", *_count_failures(cases)))
    h = riemann.project_d12(riemann.D12_ROTATION)
    rho = riemann.project_d12(riemann.D12_REFLECTION)
    results.append(_check("rotation class has order 12", riemann.d12_order(h) == 12))
    conj = riemann.d12_compose(riemann.d12_compose(rho, h), riemann.d12_inverse(rho))
    results.append(_check("reflection inverts the rotation", conj == riemann.d12_inverse(h)))
    return results


def suite_pitch(radius: int) -> list[CheckResult]:
    """Spelling: vertex <-> note round trips and chord parsing."""
    rng = range(-radius, radius + 1)
    cases = []
    for p in rng:
        for q in rng:
            note = pitch.spell_vertex((p, q))
            cases.append((pitch.vertex_of(note) == (p, q), f"vertex ({p},{q})"))
    results = [_check("vertex round trip", *_count_failures(cases))]
    cases = []
    for p in rng:
        for q in rng:
            note = pitch.spell_vertex((p, q))
            fifth = pitch.spell_vertex((p + 1, q))
            third = pitch.spell_vertex((p, q + 1))
            ok = (
                pitch.pitch_class(fifth) == (pitch.pitch_class(note) + 7) % 12
                and pitch.pitch_class(third) == (pitch.pitch_class(note) + 4) % 12
            )
            cases.append((ok, f"intervals ({p},{q})"))
    results.append(_check("axes step by fifth and major third", *_count_failures(cases)))
    cases = []
    for p in rng:
        for q in rng:
            for up in (True, False):
                t = Triangle((p, q), up)
                text = pitch.format_chord(pitch.name_triangle(t), with_comma=True)
                _, back = pitch.parse_chord(text)
                cases.append((back == t, f"chord {text}"))
    results.append(_check("chord symbol round trip", *_count_failures(cases)))
    return results


def suite_progressions(radius: int) -> list[CheckResult]:
    """PLR paths, cycles and stripes."""
    triangles = sorted(triangle_ball(BASE_TRIANGLE, min(radius, 4)))
    cases = []
    for t in triangles:
        word = progressions.plr_path(BASE_TRIANGLE, t)
        ok = (
            progressions.apply_plr(BASE_TRIANGLE, word) == t
            and len(word) == gallery_distance_bfs(BASE_TRIANGLE, t)
            and len(word) == progressions.triangle_distance(BASE_TRIANGLE, t)
        )
        cases.append((ok, f"path to {lattice.format_triangle(t)}"))
    results = [_check("PLR paths are shortest and land", *_count_failures(cases))]
    # vertex cycles walk by wall flips; the windows are the oracle
    cases = [
        (
            lattice.wall_flip(t, i) == triangle_of(lattice.perm_of(t) * generator(i)),
            f"s{i} on {lattice.format_triangle(t)}",
        )
        for t in triangles
        for i in (1, 2, 3)
    ]
    results.append(_check("wall flips are right multiplications", *_count_failures(cases)))
    cases = []
    for t in triangles:
        for v in t.vertices():
            cyc = progressions.vertex_cycle(t, v)
            ok = (
                len(set(cyc.triangles)) == 6
                and all(v in u.vertices() for u in cyc.triangles)
                and cyc.triangles[0] == t
            )
            ok = ok and all(
                progressions.triangle_distance(a, b) == 1
                for a, b in zip(cyc.triangles, cyc.triangles[1:])
            )
            cases.append((ok, f"cycle {lattice.format_triangle(t)} around {v}"))
    results.append(_check("vertex cycles are hexagons", *_count_failures(cases)))
    pcs = {
        progressions.StripeKind.FIFTHS: None,
        progressions.StripeKind.HEXATONIC: {0, 4, 8},
        progressions.StripeKind.OCTATONIC: {0, 3, 6, 9},
    }
    cases = []
    for kind in progressions.StripeKind:
        for t in triangles[:12]:
            chain = progressions.stripe(t, kind, 3)
            ok = all(
                progressions.triangle_distance(a, b) == 1
                for a, b in zip(chain, chain[1:])
            )
            allowed = pcs[kind]
            if allowed is not None:
                base_pc = pitch.pitch_class(pitch.spell_vertex(t.root))
                shifted = {(pc + base_pc) % 12 for pc in allowed}
                ok = ok and all(
                    pitch.pitch_class(pitch.name_triangle(u).root) in shifted
                    for u in chain
                )
            cases.append((ok, f"stripe {kind.value} {lattice.format_triangle(t)}"))
    results.append(_check("stripes are parsimonious chains", *_count_failures(cases)))
    cases = []
    for t in triangles[:12]:
        rot = progressions.rotation_cycle(t)
        trans = progressions.translation_cycle(t)
        ok = len(set(rot)) == 3 and trans[2] == t
        iso = lattice.perm_to_iso(from_word((3, 2)))
        ok = ok and iso.apply_triangle(rot[2]) == rot[0]
        cases.append((ok, f"orbits {lattice.format_triangle(t)}"))
    results.append(_check("rotation and translation orbits close", *_count_failures(cases)))
    return results


def suite_render(radius: int) -> list[CheckResult]:
    """Rendering determinism and label coverage."""
    import xml.etree.ElementTree as ET

    spec = render.RenderSpec(
        center=BASE_TRIANGLE,
        radius=min(radius, 3),
        highlights=((BASE_TRIANGLE, "center"),),
        path="RL",
        label_mode=render.LabelMode.NOTES,
    )
    one = render.render_svg(spec)
    two = render.render_svg(spec)
    results = [_check("byte identical repeats", one == two, f"{len(one)} bytes")]
    try:
        ET.fromstring(one)
        ok = True
    except ET.ParseError:
        ok = False
    results.append(_check("well-formed XML", ok))
    spec2 = render.RenderSpec(
        center=BASE_TRIANGLE, radius=2, label_mode=render.LabelMode.WINDOWS
    )
    doc = render.render_svg(spec2)
    results.append(_check("window labels present", ">-3,1,2<" in doc))
    return results


SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "relations": suite_relations,
    "windows": suite_windows,
    "reduce": suite_reduce,
    "length-oracle": suite_length_oracle,
    "bijection": suite_bijection,
    "center-distance": suite_center_distance,
    "translations": suite_translations,
    "isometries": suite_isometries,
    "vertex-classes": suite_vertex_classes,
    "hexagons": suite_hexagons,
    "riemann-r": suite_riemann_r,
    "riemann-p": suite_riemann_p,
    "pitch": suite_pitch,
    "progressions": suite_progressions,
    "render": suite_render,
}


def run_suite(name: str, radius: int) -> list[CheckResult]:
    """Run one suite; a negative radius is refused before any suite runs."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return fn(radius)


def run_all(radius: int) -> list[tuple[str, CheckResult]]:
    out = []
    for name in sorted(SUITES):
        for result in run_suite(name, radius):
            out.append((name, result))
    return out


def center_distance_table(radius: int) -> str:
    """Tab-separated comparison of the closed form against true distance.

    One row per element of the ball: window, element type, closed-form
    center distance, flip distance, and whether they agree.  The closed
    form undercounts some elements (reflections like s2s3s2, but also
    translations like t1), so the table is a build artifact rather than
    an assertion.
    """
    lines = ["window\ttype\tcenter_distance\tflip_distance\tagree"]
    for f in sorted(ball(radius), key=lambda g: (g.length(), g.window)):
        cd = f.center_distance()
        fd = f.length()
        lines.append(
            "%s\t%s\t%d\t%d\t%s"
            % (
                core.format_window(f),
                f.classify().value,
                cd,
                fd,
                "yes" if cd == fd else "no",
            )
        )
    return "\n".join(lines) + "\n"
