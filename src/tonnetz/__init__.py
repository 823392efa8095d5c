"""Exact arithmetic on the infinite triadic Tonnetz.

Triangles of the Tonnetz correspond one-to-one with affine permutations
in window notation; flips across triangle edges are the Coxeter
generators.  The package exposes the group arithmetic, the lattice
geometry, the translation and Schritt-Wechsel subgroup structure, chord
naming, PLR progressions, stripe systems, verification suites and a
deterministic SVG renderer.

Submodules load on first use (PEP 562): ``import tonnetz`` imports
none of them, and ``tonnetz.X`` or ``from tonnetz import X`` imports
the one that defines ``X``.
"""

from importlib import import_module as _import_module

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "core": (
        "AffinePermutation",
        "ElementType",
        "IDENTITY",
        "TriangleCoords",
        "ball",
        "format_window",
        "format_word",
        "from_word",
        "generator",
        "parse_window",
        "parse_word",
        "triangle_to_perm",
    ),
    "lattice": (
        "BASE_TRIANGLE",
        "Edge",
        "Isometry",
        "Triangle",
        "Vertex",
        "flip",
        "format_triangle",
        "gallery_distance_bfs",
        "geometric_coords",
        "neighbors",
        "parse_triangle",
        "perm_of",
        "perm_to_iso",
        "triangle_ball",
        "triangle_from_coords",
        "triangle_from_vertices",
        "triangle_of",
        "vertex_class",
        "wall_flip",
    ),
    "pitch": (
        "ChordName",
        "ChordParseError",
        "NoteName",
        "chord_tones",
        "chord_triangle",
        "format_chord",
        "format_note",
        "name_triangle",
        "parse_chord",
        "pitch_class",
        "spell_vertex",
        "vertex_of",
    ),
    "progressions": (
        "HexagonCycle",
        "ProgressionReport",
        "ProgressionStep",
        "StripeKind",
        "analyze",
        "apply_plr",
        "hexagon_cycle",
        "plr_path",
        "rotation_cycle",
        "stripe",
        "translation_cycle",
        "triangle_distance",
        "vertex_cycle",
    ),
    "render": ("LabelMode", "RenderSpec", "render_svg"),
    "riemann": (
        "D12Coset",
        "PElement",
        "RElement",
        "in_comma_subgroup",
        "p_compose",
        "p_to_r",
        "project_d12",
        "r_compose",
    ),
    "subgroups": (
        "FiniteS3Element",
        "HexagonId",
        "NotATranslationError",
        "TranslationVector",
        "decompose",
        "hexagon_of",
        "is_translation",
        "translation_coords",
        "translation_generator",
        "translation_perm",
    ),
    "verify": (),
    "cli": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind ``name`` and cache the value here."""
    module = _HOME.get(name)
    if module is not None:
        value = getattr(_import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
