"""Deterministic SVG diagrams of the Tonnetz.

The drawing plane uses integer centi-units throughout: an edge is 100
units = 10000 centi-units long and a lattice row is 8660 centi-units
high, so every coordinate is an exact integer and identical requests
produce byte-identical documents.  No floating point enters any layout
decision; numbers are only formatted with two decimals at emit time.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .core import AffinePermutation, ball, format_window
from .lattice import Triangle, Vertex, _check_lattice_triangle, perm_of, triangle_of
from .pitch import format_chord, format_note, name_triangle, spell_vertex
from .progressions import apply_move

EDGE_CENTI = 10000
HALF_EDGE_CENTI = 5000
ROW_CENTI = 8660

# The most letters a path overlay may have, the CLI's cap on --path: each
# letter draws one <line> of about 135 bytes, so a path at the cap adds
# about 5.3 MB to the document.
MAX_PATH_LETTERS = 40_000

# highlighted triangles are drawn over the grid in this one fill
_HIGHLIGHT_FILL = "#f4b860"
_UP_FILL = "#f7f5f0"
_DOWN_FILL = "#eceae3"
_EDGE_COLOR = "#9a9488"
_LABEL_COLOR = "#3a3631"
_PATH_COLOR = "#a4403a"


class LabelMode(Enum):
    NOTES = "notes"
    WINDOWS = "windows"
    CHORDS = "chords"


class _RenderFields(NamedTuple):
    center: Triangle
    radius: int
    highlights: tuple[Triangle, ...] = ()
    path: str = ""
    label_mode: LabelMode = LabelMode.NOTES


class RenderSpec(_RenderFields):
    """A diagram request: a ball of triangles with labels and overlays."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> RenderSpec:
        self = super().__new__(cls, *args, **kwargs)
        _check_lattice_triangle(self.center)
        for t in self.highlights:
            _check_lattice_triangle(t)
        if not isinstance(self.label_mode, LabelMode):
            raise ValueError(f"label_mode must be a LabelMode, got {self.label_mode!r}")
        if not isinstance(self.radius, int):
            raise ValueError(f"radius must be an int, got {self.radius!r}")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        n = len(self.path)
        if n > MAX_PATH_LETTERS:
            raise ValueError(f"path has {n} letters; render draws paths of at most {MAX_PATH_LETTERS}")
        for letter in self.path:
            if letter not in "PLR":
                raise ValueError(f"path letters must be P, L or R, got {letter!r}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> RenderSpec:
        # _replace builds its copy with _make, which would skip the checks
        return cls(*iterable)


def _vertex_centi(v: Vertex) -> tuple[int, int]:
    p, q = v
    return (EDGE_CENTI * p + HALF_EDGE_CENTI * q, -ROW_CENTI * q)


def _centroid_centi(t: Triangle) -> tuple[int, int]:
    xs = ys = 0
    for v in t.vertices():
        x, y = _vertex_centi(v)
        xs += x
        ys += y
    return (xs // 3, ys // 3)


def _fmt(c: int) -> str:
    """Centi-units to a fixed two-decimal string."""
    sign = "-" if c < 0 else ""
    a = abs(c)
    return f"{sign}{a // 100}.{a % 100:02d}"


def _points(t: Triangle, centi: dict[Vertex, tuple[int, int]]) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (centi[v] for v in t.vertices()))


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x: int, y: int, content: str, size: int, color: str = _LABEL_COLOR) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="middle" fill="{color}">'
        f"{_escape(content)}</text>"
    )


def _triangle_label(t: Triangle, f: AffinePermutation, mode: LabelMode) -> str:
    if mode is LabelMode.WINDOWS:
        return format_window(f).strip("[]")
    return format_chord(name_triangle(t))


def render_svg(spec: RenderSpec) -> str:
    """Render the spec to a complete SVG 1.1 document."""
    # left multiplication keeps flip distance: the center's ball is g * ball(radius)
    g = perm_of(spec.center)
    elements = {triangle_of(h): h for h in (g * f for f in ball(spec.radius))}
    triangles = sorted(elements)
    centi = {v: _vertex_centi(v) for v in sorted({v for t in triangles for v in t.vertices()})}
    highlights = set(spec.highlights)

    xs = [x for x, _ in centi.values()]
    ys = [y for _, y in centi.values()]
    margin = 3000
    min_x, max_x = min(xs) - margin, max(xs) + margin
    min_y, max_y = min(ys) - margin, max(ys) + margin

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(min_x)} {_fmt(min_y)} {_fmt(max_x - min_x)} {_fmt(max_y - min_y)}">',
        "<defs>",
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        f'<path d="M 0 0 L 10 5 L 0 10 z" fill="{_PATH_COLOR}"/></marker>',
        "</defs>",
    ]

    for t in triangles:
        fill = _UP_FILL if t.up else _DOWN_FILL
        parts.append(
            f'<polygon points="{_points(t, centi)}" fill="{fill}" '
            f'stroke="{_EDGE_COLOR}" stroke-width="1.00"/>'
        )
    for t in triangles:
        if t in highlights:
            parts.append(
                f'<polygon points="{_points(t, centi)}" fill="{_HIGHLIGHT_FILL}" '
                f'fill-opacity="0.85" stroke="{_EDGE_COLOR}" stroke-width="1.00"/>'
            )

    if spec.path:
        stops = [spec.center]
        for letter in reversed(spec.path):
            stops.append(apply_move(stops[-1], letter))
        centers = [_centroid_centi(t) for t in stops]
        x0, y0 = centers[0]
        parts.append(f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="3.00" fill="{_PATH_COLOR}"/>')
        for (xa, ya), (xb, yb) in zip(centers, centers[1:]):
            parts.append(
                f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" '
                f'stroke="{_PATH_COLOR}" stroke-width="2.50" marker-end="url(#arrow)"/>'
            )

    if spec.label_mode is LabelMode.NOTES:
        for v, (x, y) in centi.items():
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4.00" fill="{_LABEL_COLOR}"/>')
            parts.append(_text(x, y - 1000, format_note(spell_vertex(v)), 22))
    else:
        size = 14 if spec.label_mode is LabelMode.WINDOWS else 20
        for t in triangles:
            x, y = _centroid_centi(t)
            parts.append(_text(x, y + 500, _triangle_label(t, elements[t], spec.label_mode), size))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
