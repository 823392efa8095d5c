"""Command-line interface.

Every subcommand accepts --json for a single machine-readable object on
stdout; human output is stable "key: value" lines.  Each cmd_* only
computes: it returns its JSON payload and the function that builds its
human lines, and main alone prints one or the other and picks the exit
code.  Exit codes: 0 on success, 1 on a domain error (bad element,
unknown chord, failed verification, a negative --radius or --count,
which argparse accepts as an integer and the library refuses, an input
beyond a row of LIMITS, or an I/O error while writing the output), 2 on
a usage error.

Element arguments are disambiguated by their first character: '[' opens
a window, 's' or 'e' starts a generator word, anything else parses as a
chord symbol; TONNETZ_DEFAULT_COMMA sets the comma band of unannotated ones.
Every chord symbol is read by _chord.  The library takes integers of any
size, but the CLI refuses a comma level (also TONNETZ_DEFAULT_COMMA's), a
window entry or a riemann exponent of 2**63 or more in magnitude, and a
--count or --radius of 2**63 or more, the integer_bits row of LIMITS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    AffinePermutation,
    format_window,
    format_word,
    from_word,
    parse_window,
    parse_word,
    quote,
    too_long_to_read,
)
from .lattice import Triangle, format_triangle, perm_of, triangle_of
from .pitch import MAX_ACCIDENTALS, ChordName, format_chord, format_note, name_triangle, parse_chord

# The cap on every input whose output or work grows with its size, checked from an
# O(1) quantity before any of the work.  A row holds the value, the refusal message
# as a str.format template (n is the refused quantity, cap the value) and the
# clause of the --help epilog that states it.
LIMITS = {
    # a name grows with its vertex's distance from the origin; pitch.format_note
    # refuses a longer one itself, so this row only states pitch's cap
    "name_accidentals": (MAX_ACCIDENTALS, None,
        "spelled note and chord names carry at most {cap} sharps or flats"),
    # path's two words grow linearly with the distance, read off the closed form
    "path_flips": (100_000,
        "{start} and {goal} are {n} flips apart; path prints at most {cap}",
        "path prints paths of at most {cap} flips"),
    # about 6 MB of output; the length is read off Shi's closed form
    "word_letters": (2_000_000,
        "the reduced word has {n} letters; reduce, mult and locate --json print at most {cap}",
        "reduce, mult and locate --json print reduced words of at most {cap} letters"),
    # each of the 2 * count + 1 names is longer the farther it lies from the seed, so the
    # output grows as count squared: 5.6 MB for a hexatonic stripe through C at this cap
    "stripe_count": (5_000,
        "--count {n} is too large; stripe prints at most {cap} chords on each side of the seed",
        "stripe takes --count up to {cap}"),
    # every name repeats about as many accidentals as the seed or center: without this
    # a seed with 200000 sharps prints about 1 GB at the count cap; at it about 5 MB
    "spelled_accidentals": (5_000_000,
        "the {command}'s {count} {names} would carry {n} accidentals ({each} on the {origin}); "
        "{command} prints at most {cap}",
        "stripe and render spell at most {cap} accidentals in all (the seed's or center's "
        "times the 2 * count + 1 chords or the 1 + 3r(r+1)/2 triangles)"),
    # the suites' cost grows as the radius squared: 325,719 cases at 40 take a few seconds
    "verify_radius": (40,
        "--radius {n} is too large; verify checks balls of radius at most {cap}",
        "verify takes --radius up to {cap}"),
    # the SVG grows as the radius squared, to 5.4-6.2 MB at this cap, about a capped word
    "render_radius": (128,
        "--radius {n} is too large; render draws balls of radius at most {cap}",
        "render takes --radius up to {cap}"),
    # each letter draws one <line> of about 135 bytes: up to 5.3 MB at this cap, about
    # the radius cap's output
    "render_path_letters": (40_000,
        "--path has {n} letters; render draws paths of at most {cap}",
        "render draws --path of at most {cap} letters"),
    # each chord takes about 10 us in process and prints about 120 bytes of JSON; argparse itself
    # holds about 80 bytes per argument, so a refused list stays under 200 kB
    "analyze_chords": (1_000,
        "{n} chords given; analyze places at most {cap}",
        "analyze places at most {cap} chords"),
    # the bits of a comma level, window entry or riemann exponent, the bound of pitch's
    # memo keys: the work and output grow with the digits, so a comma level of 4000
    # digits made render at the radius cap run for a minute and write 800 MB; and of a
    # positive --count or --radius, whose own row's refusal would echo every digit
    "integer_bits": (63,
        "{what} has {n} bits; the CLI reads integers of at most {cap} bits",
        "comma levels (also TONNETZ_DEFAULT_COMMA), window entries, riemann exponents, "
        "--count and --radius have at most {cap} bits, magnitude below 2**{cap}"),
}

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


def _chord(text: str) -> tuple[ChordName, Triangle]:
    """The chord symbol text, unannotated at TONNETZ_DEFAULT_COMMA's level.

    The one place the CLI parses a chord symbol and reads the variable.
    """
    raw = os.environ.get("TONNETZ_DEFAULT_COMMA")
    comma = None
    if raw is not None:
        try:
            comma = int(raw)
        except ValueError:
            why = too_long_to_read([raw], "TONNETZ_DEFAULT_COMMA") or "TONNETZ_DEFAULT_COMMA must be an integer"
            raise ValueError(f"{why}, got {quote(raw)}") from None
        _within_bits("TONNETZ_DEFAULT_COMMA", comma)
    chord, t = parse_chord(text, comma)
    _within_bits("a comma level", chord.root.comma)
    return chord, t


def parse_element(text: str) -> AffinePermutation:
    """Window, generator word, or chord symbol, by leading character."""
    s = text.strip()
    if not s:
        raise ValueError("empty element")
    if s[0] == "[":
        f = parse_window(s)
        _within_bits("a window entry", *f.window)
        return f
    if s[0] in "se":
        return from_word(parse_word(s))
    return perm_of(_chord(s)[1])


def _within(name: str, n: int, **fields: object) -> None:
    """Refuse n beyond the LIMITS row called name, with the row's message."""
    cap, message, _ = LIMITS[name]
    if n > cap:
        raise ValueError(message.format(n=n, cap=cap, **fields))


def _within_bits(what: str, *values: int) -> None:
    """Refuse an integer read from the input beyond the integer_bits row."""
    for v in values:
        _within("integer_bits", abs(v).bit_length(), what=what)


def _within_size(name: str, flag: str, n: int) -> None:
    """Refuse a --count or --radius beyond the LIMITS row called name.

    One of 2**63 or more is refused by its bits, so no message echoes its
    digits; a negative one of any size is the library's to refuse.
    """
    if n > 0:
        _within_bits(flag, n)
    _within(name, n)


def _within_spelled(command: str, chord: ChordName, count: int, names: str, origin: str) -> None:
    """Refuse count names that would each repeat about as many accidentals as chord.

    The message is formatted only on a refusal, whose count is below a count cap.
    """
    each = abs(chord.root.accidentals)
    fields = dict(command=command, count=count, names=names, each=each, origin=origin)
    _within("spelled_accidentals", each * count, **fields)


def _reduced_word(f: AffinePermutation) -> list[int]:
    _within("word_letters", f.length())
    return list(f.reduced_word())


def _window_payload(f: AffinePermutation) -> dict:
    return {
        "window": list(f.window),
        "word": _reduced_word(f),
        "length": f.length(),
    }


def cmd_reduce(args: argparse.Namespace) -> tuple:
    f = parse_element(args.element)
    payload = _window_payload(f)
    return payload, lambda: [
        f"word: {format_word(payload['word'])}",
        f"window: {format_window(f)}",
        f"length: {f.length()}",
    ]


def cmd_mult(args: argparse.Namespace) -> tuple:
    f = parse_element(args.left) * parse_element(args.right)
    payload = _window_payload(f)
    return payload, lambda: [f"window: {format_window(f)}", f"word: {format_word(payload['word'])}"]


def cmd_classify(args: argparse.Namespace) -> tuple:
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
    return payload, lambda: [
        f"type: {payload['type']}",
        f"order: {order if order is not None else 'infinite'}",
        f"center: ({coords[0]},{coords[1]},{coords[2]})",
        f"center-distance: {payload['center_distance']}",
        f"flip-distance: {payload['flip_distance']}",
    ]


def cmd_chord(args: argparse.Namespace) -> tuple:
    f = parse_element(args.element)
    t = triangle_of(f)
    chord = name_triangle(t)
    payload = {
        "chord": format_chord(chord),
        "comma": chord.root.comma,
        "triangle": format_triangle(t),
    }
    return payload, lambda: [f"chord: {payload['chord']}", f"triangle: {payload['triangle']}"]


def cmd_locate(args: argparse.Namespace) -> tuple:
    _, t = _chord(args.chord)
    f = perm_of(t)
    payload = {"window": list(f.window), "triangle": format_triangle(t)}
    if args.json:
        # only the JSON carries the reduced word, which a far comma makes huge
        payload["word"] = _reduced_word(f)
    return payload, lambda: [f"window: {format_window(f)}", f"triangle: {payload['triangle']}"]


def cmd_path(args: argparse.Namespace) -> tuple:
    from .progressions import plr_path, triangle_distance

    _, start = _chord(args.start)
    _, goal = _chord(args.goal)
    _within("path_flips", triangle_distance(start, goal), start=args.start, goal=args.goal)
    word = plr_path(start, goal)
    g = perm_of(start).inverse() * perm_of(goal)
    payload = {
        "plr": word,
        "word": list(g.reduced_word()),
        "length": len(word),
    }
    return payload, lambda: [
        f"plr: {word if word else '(empty)'}",
        f"word: {format_word(payload['word'])}",
        f"length: {len(word)}",
    ]


def cmd_hexagon(args: argparse.Namespace) -> tuple:
    from .progressions import hexagon_cycle
    from .subgroups import format_translation_vector, hexagon_of

    _, t = _chord(args.chord)
    cyc = hexagon_cycle(t)
    coset = hexagon_of(perm_of(t))
    chords = [format_chord(c) for c in cyc.chords]
    payload = {
        "tone": format_note(cyc.common_tone),
        "chords": chords,
        "coset": format_translation_vector(coset.base),
    }
    return payload, lambda: [
        f"tone: {payload['tone']}",
        f"cycle: {' '.join(chords)}",
        f"coset: {payload['coset']}",
    ]


def cmd_stripe(args: argparse.Namespace) -> tuple:
    from .progressions import StripeKind, stripe

    _within_size("stripe_count", "--count", args.count)
    seed, t = _chord(args.chord)
    _within_spelled("stripe", seed, 2 * args.count + 1, "chords", "seed")
    kind = StripeKind(args.kind)
    chain = stripe(t, kind, args.count)
    chords = [format_chord(name_triangle(u)) for u in chain]
    payload = {
        "kind": kind.value,
        "positions": list(range(-args.count, args.count + 1)),
        "chords": chords,
        "triangles": [format_triangle(u) for u in chain],
    }
    return payload, lambda: [f"stripe: {' '.join(chords)}"]


def cmd_riemann(args: argparse.Namespace) -> tuple:
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
        left, right = parse_r(args.left), parse_r(args.right)
        _within_bits("an exponent", left.quint, left.terz, right.quint, right.terz)
        x = r_compose(left, right)
        order = r_order(x)
        payload = {
            "element": format_r(x),
            "wechsel": x.wechsel,
            "quint": x.quint,
            "terz": x.terz,
            "order": order,
        }
        return payload, lambda: [
            f"element: {payload['element']}",
            f"order: {order if order is not None else 'infinite'}",
        ]
    x = parse_p(args.element)
    _within_bits("an exponent", x.a, x.b)
    if args.riemann_cmd == "quotient":
        coset = project_d12(x)
        payload = {
            "coset": format_p(coset),
            "order": d12_order(coset),
        }
        return payload, lambda: [f"coset: {payload['coset']}", f"order: {payload['order']}"]
    member = in_comma_subgroup(x)
    payload = {"element": format_p(x), "in_comma_subgroup": member}
    return payload, lambda: [f"in-comma-subgroup: {'yes' if member else 'no'}"]


def cmd_verify(args: argparse.Namespace) -> tuple:
    _within_size("verify_radius", "--radius", args.radius)
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

    return payload, human


def cmd_render(args: argparse.Namespace) -> tuple:
    from .render import LabelMode, RenderSpec, render_svg

    _within_size("render_radius", "--radius", args.radius)
    _within("render_path_letters", len(args.path))
    chord, center = _chord(args.center)
    # a negative radius has no ball; RenderSpec refuses it below, whatever the center
    if args.radius >= 0:
        triangles = 1 + 3 * args.radius * (args.radius + 1) // 2  # in the ball of that radius
        _within_spelled("render", chord, triangles, "triangles", "center")
    spec = RenderSpec(
        center=center,
        radius=args.radius,
        highlights=(center,),
        path=args.path,
        label_mode=LabelMode(args.labels),
    )
    doc = render_svg(spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    payload = {"out": args.out, "bytes": len(doc.encode("utf-8"))}
    return payload, lambda: [f"wrote {args.out} ({payload['bytes']} bytes)"]


def cmd_analyze(args: argparse.Namespace) -> tuple:
    _within("analyze_chords", len(args.chords))
    from .progressions import analyze

    # analyze places the first chord at the default level and each later one near the
    # chord before, so the first chord's level as _chord reads it is that default
    levels = [_chord(symbol)[0].root.comma for symbol in args.chords]
    report = analyze(args.chords, levels[0])
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

    return payload, human


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tonnetz",
        description="Exact arithmetic on the infinite triadic Tonnetz.",
        epilog="Limits: "
        + "; ".join(clause.format(cap=cap) for cap, _, clause in LIMITS.values())
        + ". An input beyond a limit is a domain error (exit 1).",
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
        payload, human = args.func(args)
        # printing stays inside the try, so a failed write is an error too
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            # built only here: some lines format a reduced word of millions of letters
            for line in human():
                print(line)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if payload.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
