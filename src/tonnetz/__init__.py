"""Exact arithmetic on the infinite triadic Tonnetz.

Triangles of the Tonnetz correspond one-to-one with affine permutations
in window notation; flips across triangle edges are the Coxeter
generators.  The package exposes the group arithmetic, the lattice
geometry, the translation and Schritt-Wechsel subgroup structure, chord
naming, PLR progressions, stripe systems, verification suites and a
deterministic SVG renderer.
"""

from .core import (
    AffinePermutation,
    ElementType,
    IDENTITY,
    TriangleCoords,
    ball,
    format_window,
    format_word,
    from_word,
    generator,
    identity,
    length_layers,
    parse_window,
    parse_word,
    triangle_to_perm,
)
from .lattice import (
    BASE_TRIANGLE,
    Edge,
    Isometry,
    Triangle,
    Vertex,
    flip,
    format_triangle,
    gallery_distance_bfs,
    geometric_coords,
    neighbors,
    parse_triangle,
    perm_of,
    perm_to_iso,
    triangle_ball,
    triangle_from_coords,
    triangle_from_vertices,
    triangle_of,
    vertex_class,
    wall_flip,
)
from .pitch import (
    ChordName,
    ChordParseError,
    NoteName,
    chord_tones,
    chord_triangle,
    format_chord,
    format_note,
    name_triangle,
    parse_chord,
    pitch_class,
    spell_vertex,
    vertex_of,
)
from .progressions import (
    HexagonCycle,
    ProgressionReport,
    ProgressionStep,
    StripeKind,
    analyze,
    apply_plr,
    hexagon_cycle,
    plr_path,
    rotation_cycle,
    stripe,
    translation_cycle,
    triangle_distance,
    vertex_cycle,
)
from .render import LabelMode, RenderSpec, render_svg
from .riemann import (
    D12Coset,
    PElement,
    RElement,
    in_comma_subgroup,
    p_compose,
    p_to_r,
    project_d12,
    r_compose,
)
from .subgroups import (
    FiniteS3Element,
    HexagonId,
    NotATranslationError,
    TranslationVector,
    decompose,
    hexagon_of,
    is_translation,
    translation_coords,
    translation_generator,
    translation_perm,
)

__version__ = "0.1.0"
