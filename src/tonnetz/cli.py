"""Command-line interface.

Every subcommand accepts --json for a single machine-readable object on
stdout; human output is stable "key: value" lines.  Exit codes: 0 on
success, 1 on a domain error (bad element, unknown chord, failed
verification, a negative --radius or --count, which argparse accepts as
an integer and the library refuses, a chord whose name would carry more
than pitch.MAX_ACCIDENTALS sharps or flats, a path longer than
MAX_PATH_FLIPS flips, a reduced word longer than MAX_WORD_LETTERS letters,
a stripe --count above MAX_STRIPE_COUNT, a stripe whose names would carry
more than MAX_STRIPE_ACCIDENTALS accidentals in all, or a verify --radius
above MAX_VERIFY_RADIUS), 2 on a usage error.

Element arguments are disambiguated by their first character: '[' opens
a window, 's' or 'e' starts a generator word, anything else parses as a
chord symbol; TONNETZ_DEFAULT_COMMA sets the comma band of unannotated ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from .core import (
    AffinePermutation,
    format_window,
    format_word,
    from_word,
    parse_window,
    parse_word,
)
from .lattice import format_triangle, perm_of, triangle_of
from .pitch import MAX_ACCIDENTALS, format_chord, format_note, name_triangle, parse_chord

# the longest path `path` prints: its two words grow linearly with the
# distance, which is checked from the closed form before either is built
MAX_PATH_FLIPS = 100_000

# the longest reduced word reduce, mult and locate --json print, about 6 MB
# of output; the length is read off Shi's closed form before the word is built
MAX_WORD_LETTERS = 2_000_000

# the largest stripe --count: each of the 2 * count + 1 names is longer the
# farther it lies from the seed, so the output grows as count squared, to
# 5.6 MB for a hexatonic stripe through C at this cap (86 MB at 20000)
MAX_STRIPE_COUNT = 5_000

# the most accidentals a stripe's names carry in all, counted as the seed's
# sharps or flats times the 2 * count + 1 names, each of which repeats about
# as many: without it a seed with 200000 sharps prints about 1 GB at the count
# cap; at this cap the seed's accidentals add at most about 5 MB
MAX_STRIPE_ACCIDENTALS = 5_000_000

# the largest verify --radius: the suites' cost grows as the radius squared,
# and the checks at radius 40 (325,719 cases) finish within a few seconds
MAX_VERIFY_RADIUS = 40

# Each cmd_* imports the modules beyond these three that it runs, so a
# command loads only what it needs.  The parser takes its choices from
# these literals; tests hold them equal to StripeKind, LabelMode and
# verify.SUITES.
STRIPE_KINDS = ("fifths", "hexatonic", "octatonic")
LABEL_MODES = ("notes", "windows", "chords")
SUITE_NAMES = (
    "bijection",
    "center-distance",
    "hexagons",
    "isometries",
    "length-oracle",
    "pitch",
    "progressions",
    "reduce",
    "relations",
    "render",
    "riemann-p",
    "riemann-r",
    "translations",
    "vertex-classes",
    "windows",
)


def _default_comma() -> int | None:
    raw = os.environ.get("TONNETZ_DEFAULT_COMMA")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TONNETZ_DEFAULT_COMMA must be an integer, got {raw!r}") from None


def parse_element(text: str) -> AffinePermutation:
    """Window, generator word, or chord symbol, by leading character."""
    s = text.strip()
    if not s:
        raise ValueError("empty element")
    if s[0] == "[":
        return parse_window(s)
    if s[0] in "se":
        return from_word(parse_word(s))
    return perm_of(parse_chord(s, _default_comma())[1])


def _emit(args: argparse.Namespace, payload: dict, human: Callable[[], list[str]]) -> None:
    """Print the payload as JSON, or else the lines human() builds.

    The human lines are built only when printed: some of them format a
    reduced word that can run to millions of letters.
    """
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human():
            print(line)


def _reduced_word(f: AffinePermutation) -> list[int]:
    length = f.length()
    if length > MAX_WORD_LETTERS:
        raise ValueError(
            f"the reduced word has {length} letters; "
            f"reduce, mult and locate --json print at most {MAX_WORD_LETTERS}"
        )
    return list(f.reduced_word())


def _window_payload(f: AffinePermutation) -> dict:
    return {
        "window": list(f.window),
        "word": _reduced_word(f),
        "length": f.length(),
    }


def cmd_reduce(args: argparse.Namespace) -> int:
    f = parse_element(args.element)
    payload = _window_payload(f)
    _emit(
        args,
        payload,
        lambda: [
            f"word: {format_word(payload['word'])}",
            f"window: {format_window(f)}",
            f"length: {f.length()}",
        ],
    )
    return 0


def cmd_mult(args: argparse.Namespace) -> int:
    f = parse_element(args.left) * parse_element(args.right)
    payload = _window_payload(f)
    _emit(
        args,
        payload,
        lambda: [f"window: {format_window(f)}", f"word: {format_word(payload['word'])}"],
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    f = parse_element(args.element)
    order = f.order()
    coords = f.center_coords()
    payload = {
        "type": f.classify().value,
        "order": order,
        "center": list(coords),
        "center_distance": f.center_distance(),
        "flip_distance": f.length(),
        "window": list(f.window),
    }
    _emit(
        args,
        payload,
        lambda: [
            f"type: {payload['type']}",
            f"order: {order if order is not None else 'infinite'}",
            f"center: ({coords[0]},{coords[1]},{coords[2]})",
            f"center-distance: {payload['center_distance']}",
            f"flip-distance: {payload['flip_distance']}",
        ],
    )
    return 0


def cmd_chord(args: argparse.Namespace) -> int:
    f = parse_element(args.element)
    t = triangle_of(f)
    chord = name_triangle(t)
    payload = {
        "chord": format_chord(chord),
        "comma": chord.root.comma,
        "triangle": format_triangle(t),
    }
    _emit(
        args,
        payload,
        lambda: [f"chord: {payload['chord']}", f"triangle: {payload['triangle']}"],
    )
    return 0


def cmd_locate(args: argparse.Namespace) -> int:
    _, t = parse_chord(args.chord, _default_comma())
    f = perm_of(t)
    payload = {"window": list(f.window), "triangle": format_triangle(t)}
    if args.json:
        # only the JSON carries the reduced word, which a far comma makes huge
        payload["word"] = _reduced_word(f)
    _emit(
        args,
        payload,
        lambda: [f"window: {format_window(f)}", f"triangle: {payload['triangle']}"],
    )
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    from .progressions import plr_path, triangle_distance

    comma = _default_comma()
    _, start = parse_chord(args.start, comma)
    _, goal = parse_chord(args.goal, comma)
    distance = triangle_distance(start, goal)
    if distance > MAX_PATH_FLIPS:
        raise ValueError(
            f"{args.start} and {args.goal} are {distance} flips apart; "
            f"path prints at most {MAX_PATH_FLIPS}"
        )
    word = plr_path(start, goal)
    g = perm_of(start).inverse() * perm_of(goal)
    payload = {
        "plr": word,
        "word": list(g.reduced_word()),
        "length": len(word),
    }
    _emit(
        args,
        payload,
        lambda: [
            f"plr: {word if word else '(empty)'}",
            f"word: {format_word(payload['word'])}",
            f"length: {len(word)}",
        ],
    )
    return 0


def cmd_hexagon(args: argparse.Namespace) -> int:
    from .progressions import hexagon_cycle
    from .subgroups import format_translation_vector, hexagon_of

    _, t = parse_chord(args.chord, _default_comma())
    cyc = hexagon_cycle(t)
    coset = hexagon_of(perm_of(t))
    chords = [format_chord(c) for c in cyc.chords]
    payload = {
        "tone": format_note(cyc.common_tone),
        "chords": chords,
        "coset": format_translation_vector(coset.base),
    }
    _emit(
        args,
        payload,
        lambda: [
            f"tone: {payload['tone']}",
            f"cycle: {' '.join(chords)}",
            f"coset: {payload['coset']}",
        ],
    )
    return 0


def cmd_stripe(args: argparse.Namespace) -> int:
    from .progressions import StripeKind, stripe

    if args.count > MAX_STRIPE_COUNT:
        raise ValueError(
            f"--count {args.count} is too large; stripe prints at most "
            f"{MAX_STRIPE_COUNT} chords on each side of the seed"
        )
    seed, t = parse_chord(args.chord, _default_comma())
    names = 2 * args.count + 1
    seed_accidentals = abs(seed.root.accidentals)
    if seed_accidentals * names > MAX_STRIPE_ACCIDENTALS:
        raise ValueError(
            f"the stripe's {names} chords would carry {seed_accidentals * names} "
            f"accidentals ({seed_accidentals} on the seed); "
            f"stripe prints at most {MAX_STRIPE_ACCIDENTALS}"
        )
    kind = StripeKind(args.kind)
    chain = stripe(t, kind, args.count)
    chords = [format_chord(name_triangle(u)) for u in chain]
    payload = {
        "kind": kind.value,
        "positions": list(range(-args.count, args.count + 1)),
        "chords": chords,
        "triangles": [format_triangle(u) for u in chain],
    }
    _emit(args, payload, lambda: [f"stripe: {' '.join(chords)}"])
    return 0


def cmd_riemann(args: argparse.Namespace) -> int:
    from .riemann import (
        d12_order,
        format_p,
        format_r,
        in_comma_subgroup,
        parse_p,
        parse_r,
        project_d12,
        r_compose,
        r_order,
    )

    if args.riemann_cmd == "mult":
        x = r_compose(parse_r(args.left), parse_r(args.right))
        order = r_order(x)
        payload = {
            "element": format_r(x),
            "wechsel": x.wechsel,
            "quint": x.quint,
            "terz": x.terz,
            "order": order,
        }
        _emit(
            args,
            payload,
            lambda: [
                f"element: {payload['element']}",
                f"order: {order if order is not None else 'infinite'}",
            ],
        )
        return 0
    if args.riemann_cmd == "quotient":
        x = parse_p(args.element)
        coset = project_d12(x)
        payload = {
            "coset": format_p(coset),
            "order": d12_order(coset),
        }
        _emit(
            args,
            payload,
            lambda: [f"coset: {payload['coset']}", f"order: {payload['order']}"],
        )
        return 0
    x = parse_p(args.element)
    member = in_comma_subgroup(x)
    payload = {"element": format_p(x), "in_comma_subgroup": member}
    _emit(args, payload, lambda: [f"in-comma-subgroup: {'yes' if member else 'no'}"])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.radius > MAX_VERIFY_RADIUS:
        raise ValueError(
            f"--radius {args.radius} is too large; verify checks balls of radius "
            f"at most {MAX_VERIFY_RADIUS}"
        )
    from .verify import run_all, run_suite

    if args.suite == "all":
        rows = run_all(args.radius)
    else:
        rows = [(args.suite, r) for r in run_suite(args.suite, args.radius)]
    checks = [
        {"suite": name, "check": r.name, "ok": r.ok, "detail": r.detail} for name, r in rows
    ]
    failed = sum(1 for c in checks if not c["ok"])
    payload = {"radius": args.radius, "checks": checks, "failed": failed}

    def human() -> list[str]:
        width = max(len(c["suite"]) for c in checks)
        lines = []
        for c in checks:
            mark = "ok " if c["ok"] else "FAIL"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            lines.append(f"{mark} {c['suite']:<{width}}  {c['check']}{detail}")
        return lines + [f"{len(checks) - failed}/{len(checks)} checks passed"]

    _emit(args, payload, human)
    return 1 if failed else 0


def cmd_render(args: argparse.Namespace) -> int:
    from .render import LabelMode, RenderSpec, render_svg

    comma = _default_comma()
    _, center = parse_chord(args.center, comma)
    highlights = [(center, "center")]
    spec = RenderSpec(
        center=center,
        radius=args.radius,
        highlights=tuple(highlights),
        path=args.path,
        label_mode=LabelMode(args.labels),
    )
    doc = render_svg(spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    payload = {"out": args.out, "bytes": len(doc.encode("utf-8"))}
    _emit(args, payload, lambda: [f"wrote {args.out} ({payload['bytes']} bytes)"])
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .progressions import analyze

    report = analyze(args.chords, _default_comma())
    steps = [
        {
            "symbol": s.symbol,
            "chord": format_chord(s.chord, with_comma=True),
            "triangle": format_triangle(s.triangle),
            "distance": s.distance,
            "common_tones": [format_note(n) for n in s.common_tones],
            "shares_hexagon": s.shares_hexagon,
        }
        for s in report.steps
    ]
    payload = {"total_distance": report.total_distance, "steps": steps}

    def human() -> list[str]:
        lines = []
        for k, s in enumerate(steps):
            line = f"{s['chord']:<12} {s['triangle']:<9}"
            if k > 0:
                tones = ",".join(s["common_tones"]) or "-"
                hexagon = " hexagon" if s["shares_hexagon"] else ""
                line += f" distance={s['distance']} common={tones}{hexagon}"
            lines.append(line)
        return lines + [f"total distance: {payload['total_distance']}"]

    _emit(args, payload, human)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tonnetz",
        description="Exact arithmetic on the infinite triadic Tonnetz.",
        epilog=f"Spelled note and chord names carry at most {MAX_ACCIDENTALS} sharps "
        f"or flats, path prints paths of at most {MAX_PATH_FLIPS} flips, reduce, mult "
        f"and locate --json print reduced words of at most {MAX_WORD_LETTERS} letters, "
        f"stripe takes --count up to {MAX_STRIPE_COUNT} and spells at most "
        f"{MAX_STRIPE_ACCIDENTALS} accidentals (the seed's times the 2 * count + 1 chords), "
        f"and verify takes --radius up to {MAX_VERIFY_RADIUS}; a chord, path, word, "
        "stripe or radius beyond that is a domain error (exit 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.set_defaults(func=fn)
        return p

    p = add("reduce", cmd_reduce, "canonical reduced word, window and length")
    p.add_argument("element")

    p = add("mult", cmd_mult, "product of two elements")
    p.add_argument("left")
    p.add_argument("right")

    p = add("classify", cmd_classify, "element type, order and distances")
    p.add_argument("element")

    p = add("chord", cmd_chord, "chord name of an element's triangle")
    p.add_argument("element")

    p = add("locate", cmd_locate, "window and triangle of a chord")
    p.add_argument("chord")

    p = add("path", cmd_path, "shortest PLR word between two chords")
    p.add_argument("start")
    p.add_argument("goal")

    p = add("hexagon", cmd_hexagon, "six-chord cycle around the common tone")
    p.add_argument("chord")

    p = add("stripe", cmd_stripe, "stripe of chords through a seed")
    p.add_argument("chord")
    p.add_argument("--kind", choices=STRIPE_KINDS, default="fifths")
    p.add_argument("--count", type=int, default=3)

    p = add("analyze", cmd_analyze, "place a chord progression on the lattice")
    p.add_argument("chords", nargs="+")

    riemann_p = sub.add_parser("riemann", help="Schritt-Wechsel and point-reflection groups")
    riemann_sub = riemann_p.add_subparsers(dest="riemann_cmd", required=True)
    for name, help_text, operands in (
        ("mult", "product of two Schritt-Wechsel elements", ("left", "right")),
        ("quotient", "image in the 24-element quotient", ("element",)),
        ("comma", "membership in the comma subgroup", ("element",)),
    ):
        p = riemann_sub.add_parser(name, help=help_text)
        for operand in operands:
            p.add_argument(operand)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_riemann)

    p = add("verify", cmd_verify, "run invariant suites")
    p.add_argument("--suite", default="all", choices=("all", *SUITE_NAMES))
    p.add_argument("--radius", type=int, default=4)

    p = add("render", cmd_render, "write a deterministic SVG diagram")
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--path", default="")
    p.add_argument("--labels", choices=LABEL_MODES, default="notes")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
