"""Exhaustive invariant checks over bounded balls and exponent boxes.

Each suite re-verifies one cluster of algebraic facts by brute force:
relations by window identities, lengths against breadth-first search on
the flip graph, subgroup laws on exponent boxes, and so on.  SUITES is
the one home of ball and box sweeps and backs the `verify` subcommand;
the tests run each suite at radius 6 with its check count and its case
count, the sum of `CheckResult.cases`, pinned, so a new sweep invariant
goes into a suite, not a test.  The one exception is
tests/test_riemann.py's check of P, P/K and R by what they act on
(lattice isometries and the 24 triads), kept in tier-1 so the verify
output and its pinned digests stay as they are.  A sweep builds each
value it reuses, such as a translation, an isometry or a product, once,
and still evaluates and labels every one of its cases.

The radius bounds the search: the ball of reduced words of that length,
exponents in [-radius, radius], or both, depending on the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable

from . import core, lattice, pitch, progressions, render, riemann, subgroups
from .core import IDENTITY, ball, from_word, generator
from .lattice import BASE_TRIANGLE, Triangle, triangle_ball, triangle_of
from .riemann import PElement, RElement
from .subgroups import S3_ELEMENTS, translation_perm


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    # the cases a sweep evaluated; a single assertion is one case
    cases: int = 1


def _sweep(name: str, cases: Iterable[tuple], label: Callable[..., str]) -> CheckResult:
    """Count a sweep's cases (ok, *args) and the failures among them.

    Only the first failing case is named, by label(*args), so a sweep
    that passes formats no label at all; a template's bound str.format
    serves as a label.
    """
    count = failures = 0
    first = ""
    for case in cases:
        count += 1
        if not case[0]:
            failures += 1
            if failures == 1:
                first = label(*case[1:])
    if failures:
        return CheckResult(name, False, f"{failures} failures, first: {first}", count)
    return CheckResult(name, True, f"{count} cases", count)


# --- suites -------------------------------------------------------------------


def suite_relations(radius: int) -> list[CheckResult]:
    """The defining Coxeter relations as exact window identities."""
    results = []
    for i in (1, 2, 3):
        s = generator(i)
        results.append(CheckResult(f"s{i}^2 = e", s * s == IDENTITY))
    for i, j in ((1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)):
        lhs = from_word((i, j, i))
        rhs = from_word((j, i, j))
        results.append(CheckResult(f"s{i}s{j}s{i} = s{j}s{i}s{j}", lhs == rhs))
    return results


def suite_windows(radius: int) -> list[CheckResult]:
    """Window arithmetic: composition, inverses, parity, order."""
    elems = ball(radius)
    small = ball(min(radius, 3))
    points = range(-4, 5)
    # each g of the small ball read at the nine points once
    small_images = [(g, [g(n) for n in points]) for g in small]

    def composes(f, g, images):
        h = f * g
        return all(h(n) == f(m) for n, m in zip(points, images))

    def least_power_is_order(f):
        # f, f^2, ..., f^13: a finite order is 1, 2 or 3, so an element of
        # infinite order must reach no identity here
        powers = [f]
        for _ in range(12):
            powers.append(powers[-1] * f)
        least = next((k for k, g in enumerate(powers, 1) if g == IDENTITY), None)
        return least == f.order()

    cases = ((composes(f, g, images), f, g) for f in elems for g, images in small_images)
    results = [
        _sweep(
            "composition matches function composition",
            cases,
            "compose {0.window} {1.window}".format,
        )
    ]
    cases = ((f * f.inverse() == IDENTITY, f) for f in elems)
    results.append(_sweep("f * f^-1 = e", cases, "inverse {0.window}".format))
    cases = ((f.is_even() == (f.length() % 2 == 0), f) for f in elems)
    results.append(_sweep("parity equals length mod 2", cases, "parity {0.window}".format))
    cases = ((least_power_is_order(f), f) for f in elems)
    results.append(
        _sweep("order is the least annihilating power", cases, "order {0.window}".format)
    )
    return results


def suite_reduce(radius: int) -> list[CheckResult]:
    """Reduced words: round trip, minimality against the flip oracle."""
    elems = ball(radius)
    cases = ((from_word(f.reduced_word()) == f, f) for f in elems)
    results = [_sweep("from_word(reduced_word(f)) = f", cases, "round trip {0.window}".format)]
    cases = ((len(f.reduced_word()) == f.length(), f) for f in elems)
    results.append(_sweep("length is the reduced word length", cases, "length {0.window}".format))
    return results


def suite_length_oracle(radius: int) -> list[CheckResult]:
    """Coxeter length equals flip distance from the base triangle."""
    dist = triangle_ball(BASE_TRIANGLE, radius)

    def label(f):
        return f"{f.window}: bfs {dist.get(triangle_of(f))} vs length {f.length()}"

    cases = ((dist.get(triangle_of(f)) == f.length(), f) for f in ball(radius))
    return [_sweep("length = flip distance", cases, label)]


def suite_bijection(radius: int) -> list[CheckResult]:
    """Windows <-> triangles is a bijection, layer by layer."""
    elems = ball(radius)
    results = [
        CheckResult(
            "windows pairwise distinct", len(set(elems)) == len(elems), f"{len(elems)} elements"
        )
    ]
    cases = ((core.triangle_to_perm(f.center_coords()) == f, f) for f in elems)
    results.append(
        _sweep("triangle_to_perm inverts center_coords", cases, "coords {0.window}".format)
    )
    cases = ((lattice.perm_of(triangle_of(f)) == f, f) for f in elems)
    results.append(_sweep("perm_of inverts triangle_of", cases, "triangle {0.window}".format))
    bfs = triangle_ball(BASE_TRIANGLE, radius)
    cases = ((lattice.triangle_from_coords(lattice.geometric_coords(t)) == t, t) for t in bfs)
    results.append(
        _sweep(
            "triangle_from_coords inverts geometric_coords",
            cases,
            lambda t: f"coords {lattice.format_triangle(t)}",
        )
    )
    lengths = [f.length() for f in elems]
    layer_counts = [lengths.count(k) for k in range(radius + 1)]
    bfs_counts = [sum(1 for d in bfs.values() if d == k) for k in range(radius + 1)]
    results.append(
        CheckResult(
            "ball layers match flip-graph layers",
            layer_counts == bfs_counts,
            f"{layer_counts}",
        )
    )
    cases = ((lattice.geometric_coords(triangle_of(f)) == f.center_coords(), f) for f in elems)
    results.append(_sweep("window route equals lattice route", cases, "routes {0.window}".format))
    return results


def suite_center_distance(radius: int) -> list[CheckResult]:
    """The closed-form center distance against true flip distance.

    The closed form is a lower bound; where it agrees with the flip
    distance is tabulated (see center_distance_table), not assumed.
    """
    elems = ball(radius)
    cases = ((f.center_distance() <= f.length(), f) for f in elems)
    results = [_sweep("center distance <= length", cases, "bound {0.window}".format)]
    results.append(
        CheckResult("center distance of identity is 0", IDENTITY.center_distance() == 0)
    )
    agree = sum(1 for f in elems if f.center_distance() == f.length())
    results.append(
        CheckResult(
            "agreement tabulated",
            True,
            f"{agree}/{len(elems)} agree within radius {radius}",
        )
    )
    return results


def suite_translations(radius: int) -> list[CheckResult]:
    """The translation subgroup: abelian, normal, index six."""
    rng = range(-min(radius, 3), min(radius, 3) + 1)
    vecs = [(e1, e2) for e1 in rng for e2 in rng]
    perms = [(v, translation_perm(v)) for v in vecs]

    def conjugate_in_lattice(i, v):
        s = generator(i)
        if not subgroups.is_translation(s * translation_perm(v) * s):
            return False
        # s_i moves a lattice shift u to m u, m being its isometry's linear part
        linear = lattice.Isometry(lattice.generator_isometry(i).m, (0, 0))
        image = linear.apply(lattice.translation_shift(*v))
        return lattice.translation_shift(*subgroups.conjugate_translation(i, v)) == image

    def factors_once(f):
        vec, sigma = subgroups.decompose(f)
        ok = translation_perm(vec) * sigma.perm == f
        others = sum(
            1
            for tau in S3_ELEMENTS
            if subgroups.is_translation(f * tau.inverse().perm)
        )
        return ok and others == 1

    def in_table(x, y):
        return (
            subgroups.coset_mod_T((x * y).perm) == x * y
            and (x * y).perm == from_word(x.word + y.word)
        )

    cases = ((t * u == u * t, v, w) for v, t in perms for w, u in perms)
    results = [_sweep("translations commute", cases, "commute {0} {1}".format)]
    cases = ((subgroups.translation_coords(t) == v, v) for v, t in perms)
    results.append(_sweep("translation coords round trip", cases, "coords {0}".format))
    cases = ((conjugate_in_lattice(i, v), i, v) for i in (1, 2, 3) for v in vecs)
    results.append(_sweep("conjugation stays in the lattice", cases, "conjugate s{0} {1}".format))
    elems = ball(radius)
    cases = ((factors_once(f), f) for f in elems)
    results.append(
        _sweep(
            "unique factorization over the finite subgroup", cases, "decompose {0.window}".format
        )
    )
    classes = {subgroups.coset_mod_T(f) for f in elems}
    results.append(
        CheckResult(
            "index six",
            len(classes) == (6 if radius >= 3 else len(classes)),
            f"{len(classes)} cosets seen",
        )
    )
    cases = ((in_table(x, y), x, y) for x in S3_ELEMENTS for y in S3_ELEMENTS)
    results.append(
        _sweep("quotient table is the finite table", cases, "table {0.name} {1.name}".format)
    )
    return results


def suite_isometries(radius: int) -> list[CheckResult]:
    """The window-to-isometry map is a faithful homomorphism."""
    elems = ball(radius)
    small = ball(min(radius, 3))
    iso = lattice.perm_to_iso
    # each element's isometry read once; the small ball lies in the ball
    isos = [(f, iso(f)) for f in elems]
    iso_of = dict(isos)
    small_isos = [(g, iso_of[g]) for g in small]
    cases = ((iso(f * g) == iso_f * iso_g, f, g) for f, iso_f in isos for g, iso_g in small_isos)
    results = [
        _sweep(
            "isometry map preserves products", cases, "homomorphism {0.window} {1.window}".format
        )
    ]
    cases = ((iso_f.det() == (1 if f.is_even() else -1), f) for f, iso_f in isos)
    results.append(_sweep("determinant matches parity", cases, "det {0.window}".format))
    cases = (
        (
            subgroups.is_translation(f)
            == (f.classify() is core.ElementType.TRANSLATION or f == IDENTITY),
            f,
        )
        for f in elems
    )
    results.append(
        _sweep("translation test matches classification", cases, "translation {0.window}".format)
    )
    return results


def suite_vertex_classes(radius: int) -> list[CheckResult]:
    """The three vertex orbits and their preservation by the group."""
    vertex_class = lattice.vertex_class
    triangles = list(triangle_ball(BASE_TRIANGLE, radius))
    cases = ((sorted(vertex_class(v) for v in t.vertices()) == [0, 1, 2], t) for t in triangles)
    results = [
        _sweep("one vertex of each class", cases, lambda t: f"classes {lattice.format_triangle(t)}")
    ]
    isos = [(f, lattice.perm_to_iso(f)) for f in ball(min(radius, 4))]
    cases = (
        (vertex_class(iso.apply(v)) == vertex_class(v), f, v)
        for f, iso in isos
        for v in [(0, 0), (1, 0), (0, 1), (2, -1), (-1, 2)]
    )
    results.append(
        _sweep("action preserves vertex classes", cases, "action {0.window} on {1}".format)
    )
    return results


def suite_hexagons(radius: int) -> list[CheckResult]:
    """Coset hexagons: six triangles around one class-2 vertex."""
    rng = range(-min(radius, 3), min(radius, 3) + 1)

    def shares_center_tone(e1, e2):
        t = translation_perm((e1, e2))
        triangles = [triangle_of(t * sigma.perm) for sigma in S3_ELEMENTS]
        shared = set(triangles[0].vertices())
        for u in triangles[1:]:
            shared &= set(u.vertices())
        if len(shared) != 1:
            return False
        v = next(iter(shared))
        return (
            lattice.vertex_class(v) == 2
            and pitch.spell_vertex(v) == pitch.hexagon_common_tone(e1, e2)
        )

    cases = ((shares_center_tone(e1, e2), e1, e2) for e1 in rng for e2 in rng)
    results = [_sweep("hexagon shares exactly its center tone", cases, "hexagon ({0},{1})".format)]
    hexagons = [(f, subgroups.hexagon_of(f)) for f in ball(radius)]
    cases = (
        (subgroups.hexagon_of(f * sigma.perm) == hexagon, f, sigma)
        for f, hexagon in hexagons
        for sigma in S3_ELEMENTS
    )
    results.append(
        _sweep("hexagon id constant on cosets", cases, "coset {0.window} {1.name}".format)
    )
    return results


def suite_riemann_r(radius: int) -> list[CheckResult]:
    """The Schritt-Wechsel group law on an exponent box."""
    rng = range(-radius, radius + 1)
    box = [
        RElement(w, u, v) for w in (False, True) for u in rng for v in rng
    ]
    compose, e = riemann.r_compose, riemann.R_IDENTITY

    def wechsel_law(u, v, u2, v2):
        tw = RElement(True, u, v)
        t2w = RElement(True, u2, v2)
        return compose(t2w, tw) == RElement(False, u2 - u, v2 - v)

    def involution(u, v):
        w = RElement(True, u, v)
        return riemann.r_order(w) == 2 and compose(w, w) == e

    cases = ((compose(x, riemann.r_inverse(x)) == e, x) for x in box)
    results = [_sweep("inverses", cases, "inverse {0}".format)]
    small = [RElement(w, u, v) for w in (False, True) for u in (-2, 0, 1) for v in (-1, 0, 2)]
    xy = {(x, y): compose(x, y) for x in small for y in small}
    cases = (
        (compose(xy[x, y], z) == compose(x, xy[y, z]),)
        for x, y, z in product(small, small, small)
    )
    results.append(_sweep("associativity", cases, lambda: "assoc"))
    cases = (
        (wechsel_law(u, v, u2, v2), u, v, u2, v2)
        for u, v, u2, v2 in product(rng, rng, (-2, 0, 3), (-1, 0, 2))
    )
    results.append(
        _sweep(
            "product of two Wechsel is a Schritt difference",
            cases,
            "wechsel law {0} {1} {2} {3}".format,
        )
    )
    cases = ((involution(u, v), u, v) for u in rng for v in rng)
    results.append(_sweep("every Wechsel is an involution", cases, "involution {0} {1}".format))
    orders = {riemann.r_order(x) for x in box}
    cube_roots = [x for x in box if compose(compose(x, x), x) == e]
    results.append(
        CheckResult(
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
    compose, e = riemann.p_compose, riemann.P_IDENTITY

    def reverses(x, y):
        lhs = riemann.p_to_r(compose(x, y))
        return lhs == riemann.r_compose(riemann.p_to_r(y), riemann.p_to_r(x))

    def preserves(x, y):
        return riemann.p_isometry(compose(x, y)) == riemann.p_isometry(x) * riemann.p_isometry(y)

    def normal(x, k):
        return riemann.in_comma_subgroup(compose(compose(x, k), riemann.p_inverse(x)))

    def projects(x, y):
        lhs = riemann.project_d12(compose(x, y))
        return lhs == riemann.d12_compose(riemann.project_d12(x), riemann.project_d12(y))

    cases = ((compose(x, riemann.p_inverse(x)) == e, x) for x in box)
    results = [_sweep("inverses", cases, "inverse {0}".format)]
    generators = [(i, riemann.p_generator(i)) for i in (1, 2, 3)]
    cases = ((compose(g, g) == e, i) for i, g in generators)
    results.append(_sweep("point reflections are involutions", cases, "pi{0} involution".format))
    small = [PElement(a, b, fl) for a in (-2, 0, 1) for b in (-1, 0, 2) for fl in (False, True)]
    cases = ((reverses(x, y), x, y) for x in small for y in small)
    results.append(_sweep("p_to_r reverses products", cases, "anti {0} {1}".format))
    cases = ((preserves(x, y), x, y) for x in small for y in small)
    results.append(_sweep("p_isometry preserves products", cases, "iso {0} {1}".format))
    commas = list(riemann.NAMED_COMMAS.items())
    cases = ((riemann.in_comma_subgroup(k), name) for name, k in commas)
    results.append(_sweep("named commas lie in K", cases, str))
    cases = ((normal(x, k), x) for x in box for _, k in commas)
    results.append(_sweep("K is normal", cases, "normal {0}".format))
    images = {riemann.project_d12(x) for x in box}
    ok = len(images) == 24 if radius >= 3 else len(images) <= 24
    results.append(CheckResult("quotient has 24 elements", ok, f"{len(images)} cosets seen"))
    cases = ((projects(x, y), x, y) for x in small for y in small)
    results.append(_sweep("projection preserves products", cases, "projection {0} {1}".format))
    h = riemann.project_d12(riemann.D12_ROTATION)
    rho = riemann.project_d12(riemann.D12_REFLECTION)
    results.append(CheckResult("rotation class has order 12", riemann.d12_order(h) == 12))
    conj = riemann.d12_compose(riemann.d12_compose(rho, h), riemann.d12_inverse(rho))
    results.append(CheckResult("reflection inverts the rotation", conj == riemann.d12_inverse(h)))
    return results


def suite_pitch(radius: int) -> list[CheckResult]:
    """Spelling: vertex <-> note round trips and chord parsing."""
    rng = range(-radius, radius + 1)

    def steps_by_fifth_and_third(p, q):
        note = pitch.spell_vertex((p, q))
        fifth = pitch.spell_vertex((p + 1, q))
        third = pitch.spell_vertex((p, q + 1))
        return (
            pitch.pitch_class(fifth) == (pitch.pitch_class(note) + 7) % 12
            and pitch.pitch_class(third) == (pitch.pitch_class(note) + 4) % 12
        )

    cases = (
        (pitch.vertex_of(pitch.spell_vertex((p, q))) == (p, q), p, q) for p in rng for q in rng
    )
    results = [_sweep("vertex round trip", cases, "vertex ({0},{1})".format)]
    cases = ((steps_by_fifth_and_third(p, q), p, q) for p in rng for q in rng)
    results.append(
        _sweep("axes step by fifth and major third", cases, "intervals ({0},{1})".format)
    )
    triangles = (Triangle((p, q), up) for p in rng for q in rng for up in (True, False))
    named = ((t, pitch.format_chord(pitch.name_triangle(t), with_comma=True)) for t in triangles)
    cases = ((pitch.parse_chord(text)[1] == t, text) for t, text in named)
    results.append(_sweep("chord symbol round trip", cases, "chord {0}".format))
    return results


def suite_progressions(radius: int) -> list[CheckResult]:
    """PLR paths, cycles and stripes."""
    dist = triangle_ball(BASE_TRIANGLE, min(radius, 4))
    triangles = sorted(dist)
    pcs = {
        progressions.StripeKind.FIFTHS: None,
        progressions.StripeKind.HEXATONIC: {0, 4, 8},
        progressions.StripeKind.OCTATONIC: {0, 3, 6, 9},
    }

    def path_lands(t):
        word = progressions.plr_path(BASE_TRIANGLE, t)
        return (
            progressions.apply_plr(BASE_TRIANGLE, word) == t
            and len(word) == dist[t]
            and len(word) == progressions.triangle_distance(BASE_TRIANGLE, t)
        )

    def adjacent(chain):
        return all(progressions.triangle_distance(a, b) == 1 for a, b in zip(chain, chain[1:]))

    def hexagon_cycle(t, v):
        cyc = progressions.vertex_cycle(t, v)
        return (
            len(set(cyc.triangles)) == 6
            and all(v in u.vertices() for u in cyc.triangles)
            and cyc.triangles[0] == t
            and adjacent(cyc.triangles)
        )

    def parsimonious(kind, t):
        chain = progressions.stripe(t, kind, 3)
        ok = adjacent(chain)
        allowed = pcs[kind]
        if allowed is not None:
            base_pc = pitch.pitch_class(pitch.spell_vertex(t.root))
            shifted = {(pc + base_pc) % 12 for pc in allowed}
            ok = ok and all(
                pitch.pitch_class(pitch.name_triangle(u).root) in shifted
                for u in chain
            )
        return ok

    def orbits_close(t):
        rot = progressions.rotation_cycle(t)
        trans = progressions.translation_cycle(t)
        ok = len(set(rot)) == 3 and trans[2] == t
        iso = lattice.perm_to_iso(from_word((3, 2)))
        return ok and iso.apply_triangle(rot[2]) == rot[0]

    fmt = lattice.format_triangle
    cases = ((path_lands(t), t) for t in triangles)
    results = [_sweep("PLR paths are shortest and land", cases, lambda t: f"path to {fmt(t)}")]
    # a wall flip is right multiplication by its generator; the windows are
    # the oracle
    cases = (
        (lattice.wall_flip(t, i) == triangle_of(lattice.perm_of(t) * generator(i)), t, i)
        for t in triangles
        for i in (1, 2, 3)
    )
    results.append(
        _sweep("wall flips are right multiplications", cases, lambda t, i: f"s{i} on {fmt(t)}")
    )
    cases = ((hexagon_cycle(t, v), t, v) for t in triangles for v in t.vertices())
    results.append(
        _sweep("vertex cycles are hexagons", cases, lambda t, v: f"cycle {fmt(t)} around {v}")
    )
    cases = (
        (parsimonious(kind, t), kind, t) for kind in progressions.StripeKind for t in triangles[:12]
    )
    results.append(
        _sweep(
            "stripes are parsimonious chains",
            cases,
            lambda kind, t: f"stripe {kind.value} {fmt(t)}",
        )
    )
    cases = ((orbits_close(t), t) for t in triangles[:12])
    results.append(
        _sweep("rotation and translation orbits close", cases, lambda t: f"orbits {fmt(t)}")
    )
    return results


def suite_render(radius: int) -> list[CheckResult]:
    """Rendering determinism and label coverage."""
    import xml.etree.ElementTree as ET

    spec = render.RenderSpec(
        center=BASE_TRIANGLE,
        radius=min(radius, 3),
        highlights=(BASE_TRIANGLE,),
        path="RL",
        label_mode=render.LabelMode.NOTES,
    )
    one = render.render_svg(spec)
    two = render.render_svg(spec)
    results = [CheckResult("byte identical repeats", one == two, f"{len(one)} bytes")]
    try:
        ET.fromstring(one)
        ok = True
    except ET.ParseError:
        ok = False
    results.append(CheckResult("well-formed XML", ok))
    spec2 = render.RenderSpec(
        center=BASE_TRIANGLE, radius=2, label_mode=render.LabelMode.WINDOWS
    )
    doc = render.render_svg(spec2)
    results.append(CheckResult("window labels present", ">-3,1,2<" in doc))
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
    """Run one suite; a negative radius is refused before any suite runs.

    A ValueError from inside the suite, such as a library function
    refusing what a broken invariant handed it, becomes one failed check
    that names the exception, so a report over many suites still shows
    the others.  Running out of memory or stack is not a check failing,
    and still raises.
    """
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    if radius < 0:
        raise ValueError("radius must be non-negative")
    try:
        return fn(radius)
    except ValueError as exc:
        return [CheckResult("suite runs to the end", False, f"{type(exc).__name__}: {exc}")]


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
