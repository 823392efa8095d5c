"""The three workloads: seeded requests, the calls each makes, and their checks.

A workload yields its requests in blocks.  Every block has the same mix
of request kinds, so runs on different seeds do the same kind of work;
the seed only changes the inputs.  `execute` is the timed part and goes
through the public tonnetz API only; `check` compares its output with
the reference arithmetic in oracle.py, outside the timed region.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import cliload
import hostspeed
import oracle as O

# --- progressions -------------------------------------------------------------

# (fifth-index offset from the major tonic, minor): I IV V ii vi iii
DIATONIC = [(0, False), (-1, False), (1, False), (2, True), (3, True), (4, True)]
# V/vi, bVI, bIII, iv
CHROMATIC = [(4, False), (-4, False), (-3, False), (-1, True)]
# absolute spellings E#, Cx, Ebm, Fb, Gbm
EXOTIC = [(11, False), (14, False), (-3, True), (-8, False), (-6, True)]
MALFORMED_SYMBOLS = ["H", "Cm7", "C#z", "", "Cmaj", "C[q=]", "Xb", "c"]
STRIPE_KINDS = ("fifths", "hexatonic", "octatonic")


@dataclass
class Progression:
    symbols: list[str]
    chords: list[tuple[int, bool, int | None]]  # fifth index, minor, pinned comma level
    stripe_kind: str
    malformed: bool


class Progressions:
    """Chord progressions of 4-12 symbols in keys of up to two accidentals.

    Chords repeat heavily across requests.  About 10 % of symbols carry
    [q=n] and about 2 % of progressions hold one malformed symbol, which
    must raise ChordParseError.
    """

    block_size = 50
    traced_blocks = 6

    def __init__(self, tonnetz, seed):
        self.T = tonnetz
        self.rng = random.Random(f"progressions:{seed}")

    def _chord(self, tonic: int) -> tuple[str, tuple[int, bool, int | None]]:
        rng = self.rng
        roll = rng.random()
        if roll < 0.8:
            offset, minor = rng.choice(DIATONIC)
            fifth = tonic + offset
        elif roll < 0.95:
            offset, minor = rng.choice(CHROMATIC)
            fifth = tonic + offset
        else:
            fifth, minor = rng.choice(EXOTIC)
        symbol = O.spell(fifth) + ("m" if minor else "")
        comma = None
        if rng.random() < 0.1:
            comma = fifth // 4 + rng.choice((-1, 0, 1))
            symbol += f"[q={comma}]"
        return symbol, (fifth, minor, comma)

    def _progression(self) -> Progression:
        rng = self.rng
        tonic = rng.randint(-2, 2)
        pairs = [self._chord(tonic) for _ in range(rng.randint(4, 12))]
        symbols = [s for s, _ in pairs]
        malformed = rng.random() < 0.02
        if malformed:
            symbols[rng.randrange(len(symbols))] = rng.choice(MALFORMED_SYMBOLS)
        return Progression(symbols, [c for _, c in pairs], rng.choice(STRIPE_KINDS), malformed)

    def blocks(self):
        while True:
            yield [self._progression() for _ in range(self.block_size)]

    def warmup(self) -> None:
        self.execute(Progression(["C", "Am", "F", "G"], [], "fifths", False))

    def execute(self, req: Progression):
        T = self.T
        try:
            report = T.analyze(req.symbols)
        except T.ChordParseError as exc:
            if req.malformed:
                return exc
            raise
        tris = [s.triangle for s in report.steps]
        paths = [T.plr_path(a, b) for a, b in zip(tris, tris[1:])]
        dists = [T.triangle_distance(a, b) for a, b in zip(tris, tris[1:])]
        cycles = [T.hexagon_cycle(t) for t in tris]
        chain = T.stripe(tris[0], T.StripeKind(req.stripe_kind), 3)
        return report, paths, dists, cycles, chain

    def check(self, req: Progression, out) -> str | None:
        if req.malformed:
            return None if isinstance(out, self.T.ChordParseError) else "malformed progression accepted"
        report, paths, dists, cycles, chain = out
        steps = report.steps
        if len(steps) != len(req.symbols):
            return "analyze dropped chords"
        verts = [_vertices(s.triangle) for s in steps]
        for (fifth, minor, comma), s in zip(req.chords, steps):
            root, up = s.triangle.root, s.triangle.up
            if O.fifth_index_of(root) != fifth or up == minor:
                return f"{s.symbol} placed on a triangle of another chord"
            if comma is not None and root[1] != comma:
                return f"{s.symbol} ignored its comma level"
        gaps = [O.strip_distance(a, b) for a, b in zip(verts, verts[1:])]
        if [s.distance for s in steps] != [0] + gaps or report.total_distance != sum(gaps):
            return "analyze distances differ from the strip-index distance"
        if dists != gaps:
            return "triangle_distance differs from the strip-index distance"
        for word, a, b, gap in zip(paths, verts, verts[1:], gaps):
            if len(word) != gap or not O.same_triangle(O.apply_plr(a, word), b):
                return f"plr_path {word!r} is not a shortest path"
        for cyc, v in zip(cycles, verts):
            err = _check_hexagon(cyc, v)
            if err:
                return err
        ring = [_vertices(t) for t in chain]
        if len(ring) != 7 or not O.same_triangle(ring[3], verts[0]) or not _is_chain(ring):
            return "stripe is not a parsimonious chain through its seed"
        return None


def _vertices(t) -> tuple:
    return O.vertices_of(t.root, t.up)


def _is_chain(tris: list) -> bool:
    distinct = len({frozenset(t) for t in tris}) == len(tris)
    return distinct and all(O.edge_neighbors(a, b) for a, b in zip(tris, tris[1:]))


def _check_hexagon(cyc, v) -> str | None:
    center = O.by_class(v)[2]
    tris = [_vertices(t) for t in cyc.triangles]
    if len(tris) != 6 or not O.same_triangle(tris[0], v) or tuple(cyc.center) != center:
        return "hexagon_cycle does not start at its chord"
    if not _is_chain(tris) or not O.edge_neighbors(tris[-1], tris[0]):
        return "hexagon_cycle is not a closed ring of flips"
    if any(center not in t for t in tris):
        return "hexagon_cycle leaves its center vertex"
    tone = cyc.common_tone
    if (tone.fifth_index, tone.comma) != (O.fifth_index_of(center), center[1]):
        return "hexagon_cycle names the wrong common tone"
    return None


# --- long-range ---------------------------------------------------------------

# Element requests on the L rungs set the median.  The two D = 160 pairs
# in 25 (8 %) are the slowest requests, so the 95th percentile falls
# among them.
# Each rung holds two elements of each coset of the translation subgroup
# that its length can reach, since the cost of decompose depends on the
# coset: with the coset mix fixed, the median falls among the L = 160
# requests of the middle coset whatever the seed, instead of moving
# between cosets.
LONG_RANGE_BLOCK = (
    [("L", 10)] * 6
    + [("D", 10)] * 3
    + [("L", 160)] * 6
    + [("D", 40)] * 2
    + [("L", 2560)] * 6
    + [("D", 160)] * 2
)


@dataclass
class Element:
    length: int
    window: tuple
    triangle: tuple  # class-indexed vertices
    other: tuple  # window of a second element on the same rung
    f: object = field(repr=False)
    g: object = field(repr=False)


@dataclass
class Pair:
    distance: int
    start: tuple
    goal: tuple
    s: object = field(repr=False)
    t: object = field(repr=False)


def make_element(T, length: int, rng: random.Random, coset: int | None = None) -> Element:
    window, _, tri = O.element_of_length(length, rng, coset)
    other = O.element_of_length(length, rng)[0]
    return Element(length, window, tri, other, T.AffinePermutation(*window), T.AffinePermutation(*other))


def make_pair(T, distance: int, rng: random.Random) -> Pair:
    root = (rng.randint(-50, 50), rng.randint(-50, 50))
    up = rng.random() < 0.5
    start = O.by_class(O.vertices_of(root, up))
    _, goal = O.ascent_walk(start, distance, rng)
    goal_root, goal_up = O.root_of(goal)
    return Pair(distance, start, goal, T.Triangle(root, up), T.Triangle(goal_root, goal_up))


def run_element(T, e: Element):
    f = e.f
    tri = T.triangle_of(f)
    inv = f.inverse()
    return (
        f.reduced_word(),
        f.length(),
        f.classify(),
        f.order(),
        f.center_coords(),
        T.decompose(f),
        T.hexagon_of(f),
        T.perm_of(tri),
        tri,
        f * e.g,
        inv,
        f * inv,
    )


def check_element(e: Element, out) -> str | None:
    word, length, kind, order, center, (vec, sigma), hexagon, back, tri, prod, inv, unit = out
    L = e.length
    if len(word) != L or O.from_word(word) != e.window:
        return f"reduced_word of a length-{L} element is wrong"
    if length != L:
        return f"length {length}, expected {L}"
    if kind.value != O.classify(e.window, L) or order != O.finite_order(e.window):
        return f"classify/order wrong for {e.window}"
    if tuple(center) != O.center_coords(e.triangle):
        return f"center_coords wrong for {e.window}"
    if O.compose(O.translation_window(*vec), O.from_word(sigma.word)) != e.window:
        return f"decompose does not recombine to {e.window}"
    if tuple(hexagon.base) != tuple(vec):
        return "hexagon_of disagrees with decompose"
    if back.window != e.window or not O.same_triangle(_vertices(tri), e.triangle):
        return f"triangle_of/perm_of round trip wrong for {e.window}"
    if prod.window != O.compose(e.window, e.other):
        return "product wrong"
    if inv.window != O.inverse(e.window) or unit.window != O.IDENTITY_WINDOW:
        return "inverse wrong"
    return None


def run_pair(T, p: Pair):
    return (
        T.plr_path(p.s, p.t),
        T.gallery_distance_bfs(p.s, p.t),
        T.triangle_distance(p.s, p.t),
    )


def check_pair(p: Pair, out) -> str | None:
    word, bfs, dist = out
    D = p.distance
    if len(word) != D or not O.same_triangle(O.apply_plr(p.start, word), p.goal):
        return f"plr_path is not a shortest path at distance {D}"
    if bfs != D or dist != D:
        return f"distances {bfs}, {dist}, expected {D}"
    return None


class LongRange:
    """Unique elements of exact length L and triangle pairs at exact distance D."""

    traced_blocks = 2

    def __init__(self, tonnetz, seed):
        self.T = tonnetz
        self.rng = random.Random(f"long-range:{seed}")

    def blocks(self):
        kinds = list(LONG_RANGE_BLOCK)
        while True:
            self.rng.shuffle(kinds)
            block = []
            for k, n in kinds:
                if k == "L":
                    # only the three cosets of the length's parity hold elements
                    cosets = [c for c, w in enumerate(O.FINITE_WORDS) if len(w) % 2 == n % 2]
                    done = sum(1 for r in block if isinstance(r, Element) and r.length == n)
                    block.append(make_element(self.T, n, self.rng, cosets[done % 3]))
                else:
                    block.append(make_pair(self.T, n, self.rng))
            yield block

    def warmup(self) -> None:
        rng = random.Random("warmup")
        self.execute(make_element(self.T, 10, rng))
        self.execute(make_pair(self.T, 10, rng))

    def execute(self, req):
        if isinstance(req, Element):
            return run_element(self.T, req)
        return run_pair(self.T, req)

    def check(self, req, out) -> str | None:
        if isinstance(req, Element):
            return check_element(req, out)
        return check_pair(req, out)


# --- cli ----------------------------------------------------------------------


@dataclass
class Command:
    name: str
    argv: list[str]
    exit: int


class Cli:
    """One `python3 -m tonnetz.cli` process per request, over the whole command pool."""

    traced_blocks = 1

    def __init__(self, runner: cliload.CliRunner, seed, trace_dir: Path):
        self.runner = runner
        self.rng = random.Random(f"cli:{seed}")
        self.trace_dir = trace_dir
        self.tracing = False
        self.trace_files: list[Path] = []

    def blocks(self):
        pool = [Command(*row) for row in cliload.POOL]
        while True:
            self.rng.shuffle(pool)
            yield list(pool)

    def warmup(self) -> None:
        pass

    def execute(self, req: Command):
        trace_out = None
        if self.tracing:
            trace_out = self.trace_dir / f"child-{len(self.trace_files)}.json"
            self.trace_files.append(trace_out)
        _, proc, svg = self.runner.run(req.argv, trace_out)
        return proc, svg

    def check(self, req: Command, out) -> str | None:
        return self.runner.check(req.argv, req.exit, *out)


# --- ladder probe -------------------------------------------------------------

L_RUNGS = ((10, 41), (160, 15), (2560, 5))  # (length, calls)
D_RUNGS = ((10, 21), (40, 9), (160, 3))  # (distance, calls)


def ladder(T, seed, tally) -> dict[str, float]:
    """Median scaled microseconds per call of each scaling function on each rung.

    Every answer is checked and added to `tally`.
    """
    rng = random.Random(f"ladder:{seed}")
    metrics: dict[str, float] = {}

    def timed(name: str, rung: str, fn, inputs, ok):
        times = []
        for x in inputs:
            out, seconds = hostspeed.measure(fn, x)
            times.append(seconds)
            tally.add(None if ok(x, out) else f"{name} wrong on rung {rung}")
        metrics[f"{name}.{rung}.p50_us"] = median(times) * 1e6

    for L, calls in L_RUNGS:
        elems = [make_element(T, L, rng) for _ in range(calls)]
        rung = f"L{L}"
        timed("core.length", rung, lambda e: e.f.length(), elems, lambda e, n: n == e.length)
        timed(
            "core.reduced_word", rung, lambda e: e.f.reduced_word(), elems,
            lambda e, w: len(w) == e.length and O.from_word(w) == e.window,
        )
        timed(
            "lattice.triangle_of", rung, lambda e: T.triangle_of(e.f), elems,
            lambda e, t: O.same_triangle(_vertices(t), e.triangle),
        )
        timed(
            "subgroups.decompose", rung, lambda e: T.decompose(e.f), elems,
            lambda e, d: O.compose(O.translation_window(*d[0]), O.from_word(d[1].word)) == e.window,
        )
    for D, calls in D_RUNGS:
        pairs = [make_pair(T, D, rng) for _ in range(calls)]
        rung = f"D{D}"
        timed(
            "progressions.plr_path", rung, lambda p: T.plr_path(p.s, p.t), pairs,
            lambda p, w: len(w) == p.distance and O.same_triangle(O.apply_plr(p.start, w), p.goal),
        )
        timed(
            "lattice.gallery_distance_bfs", rung, lambda p: T.gallery_distance_bfs(p.s, p.t), pairs,
            lambda p, d: d == p.distance,
        )
        timed(
            "progressions.triangle_distance", rung, lambda p: T.triangle_distance(p.s, p.t), pairs,
            lambda p, d: d == p.distance,
        )
    for name, (lower, upper, ratio) in LADDER_SLOPES.items():
        rise = metrics[f"{name}.{upper}.p50_us"] / metrics[f"{name}.{lower}.p50_us"]
        metrics[f"{name}.slope"] = math.log(rise) / math.log(ratio)
    return metrics


# log-log slope between the top two rungs: (lower rung, upper rung, size ratio)
LADDER_SLOPES = {
    "core.length": ("L160", "L2560", 16),
    "core.reduced_word": ("L160", "L2560", 16),
    "lattice.triangle_of": ("L160", "L2560", 16),
    "subgroups.decompose": ("L160", "L2560", 16),
    "progressions.plr_path": ("D40", "D160", 4),
    "lattice.gallery_distance_bfs": ("D40", "D160", 4),
    "progressions.triangle_distance": ("D40", "D160", 4),
}
