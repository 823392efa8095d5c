"""Spelled note names and chord symbols for lattice points and triangles.

Spelling is exact: a vertex (p, q) has fifth index p + 4q on the line of
fifths and comma level q.  Names never collapse enharmonically (E# and F
are different vertices), and the comma level distinguishes same-named
vertices in different third-rows, written as a [q=n] suffix when needed.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .core import quote
from .lattice import Triangle, Vertex, translation_shift

LETTERS = "FCGDAEB"

# The most sharps or flats a spelled name may carry.  A name grows with the
# distance of its vertex from the origin, so without a cap a far element
# spells a string of gigabytes; a name at the cap is at most 1 MB.
MAX_ACCIDENTALS = 1_000_000


class NoteName(NamedTuple):
    """A spelled pitch: position on the line of fifths plus comma level.

    Being a named tuple, a note equals the plain tuple (fifth_index,
    comma) and sorts by fifth index, then comma level.

    >>> NoteName(4, 1) == (4, 1)
    True
    """

    fifth_index: int
    comma: int

    @property
    def letter(self) -> str:
        return LETTERS[(self.fifth_index + 1) % 7]

    @property
    def accidentals(self) -> int:
        """Number of sharps (negative for flats)."""
        return (self.fifth_index + 1) // 7


class ChordName(NamedTuple):
    """A chord symbol: its spelled root and whether it is minor."""

    root: NoteName
    minor: bool


class ChordParseError(ValueError):
    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} in {quote(text)} at position {position}")
        self.text = text
        self.position = position


def spell_vertex(v: Vertex) -> NoteName:
    p, q = v
    return NoteName(p + 4 * q, q)


def vertex_of(note: NoteName) -> Vertex:
    return (note.fifth_index - 4 * note.comma, note.comma)


def pitch_class(note: NoteName) -> int:
    """Equal-tempered pitch class, C = 0."""
    return (7 * note.fifth_index) % 12


def accidental_string(count: int) -> str:
    if count >= 0:
        return "x" * (count // 2) + "#" * (count % 2)
    return "b" * (-count)


def format_note(note: NoteName) -> str:
    """The spelled name, such as "F#" or "Ebb"; every name is built here.

    Raises ValueError for a note with more than MAX_ACCIDENTALS sharps or
    flats, before building any string.
    """
    count = note.accidentals
    if abs(count) > MAX_ACCIDENTALS:
        kind = "sharps" if count > 0 else "flats"
        raise ValueError(
            f"note at fifth index {note.fifth_index} needs {abs(count)} {kind}; "
            f"spelled names carry at most {MAX_ACCIDENTALS}"
        )
    return note.letter + accidental_string(count)


def format_chord(chord: ChordName, with_comma: bool = False) -> str:
    s = format_note(chord.root)
    if chord.minor:
        s += "m"
    if with_comma:
        s += f"[q={chord.root.comma}]"
    return s


def name_triangle(t: Triangle) -> ChordName:
    """Upward triangles are major triads, downward ones minor, root at the root vertex."""
    root, up = t
    return ChordName(spell_vertex(root), minor=not up)


def chord_triangle(chord: ChordName) -> Triangle:
    return Triangle(vertex_of(chord.root), up=not chord.minor)


def chord_tones(t: Triangle) -> tuple[NoteName, NoteName, NoteName]:
    """The three spelled tones, root first, then by interval above the root; README API."""
    root, fifth, third = Triangle.vertices(t)
    return (spell_vertex(root), spell_vertex(third), spell_vertex(fifth))


def default_comma_level(fifth_index: int) -> int:
    """Comma level used when a chord symbol carries no [q=n] annotation.

    Chooses q so the vertex lands as close to the central column of the
    lattice as possible (|fifth_index - 4q| minimal, ties to the smaller
    q).  This reproduces the home positions of the familiar names: C, G,
    D at q=0, A, E, B at q=1, Eb, Ab at q=-1, C#, G# at q=2.
    """
    q, r = divmod(fifth_index, 4)
    return q if r <= 2 else q + 1


_CHORD_RE = re.compile(
    r"""
    (?P<letter>[A-G])
    (?P<accidentals>b+|[#x]*)
    (?P<mode>min|m)?
    (?:\[q=(?P<comma>-?\d+)\])?
    """,
    re.VERBOSE,
)


# The longest symbol parse_chord's memo keeps, and the magnitude an int in a
# memo key stays below.  A key holds its symbol and default_comma alive, and
# neither has a cap, so larger ones parse without the memo, which then holds
# at most 256 symbols of 64 characters and levels of 63 bits.
_MEMO_SYMBOL_LENGTH = 64
_MEMO_INT_BOUND = 2**63


def parse_chord(
    text: str, default_comma: int | None = None
) -> tuple[ChordName, Triangle]:
    """Parse a chord symbol like "C", "F#m", "Ebm[q=-1]" or "Amin".

    Returns the chord name and its triangle.  Unannotated symbols get the
    comma level from default_comma if given, else from default_comma_level.
    A symbol that is not a str, or a default_comma that is neither an int
    nor None, raises TypeError.  Repeated calls with a symbol of at most 64
    characters and a level below 2**63 in magnitude share one answer, whose
    parts are immutable named tuples.
    """
    if not isinstance(text, str):
        raise TypeError(f"chord symbol must be a str, got {text!r}")
    # a level but an int goes to the memo, whose key or body refuses it
    if len(text) > _MEMO_SYMBOL_LENGTH or (
        isinstance(default_comma, int) and not -_MEMO_INT_BOUND < default_comma < _MEMO_INT_BOUND
    ):
        return _parse_chord.__wrapped__(text, default_comma)
    return _parse_chord(text, default_comma)


# a progression repeats its chords, so parse_chord keeps its last 256
# answers, each about 0.47 kB plus its symbol.  typed=True keeps keys that are
# equal but of different types apart, such as a default_comma of 1 and True,
# since each gives its own answer; a refused symbol is not kept.
@lru_cache(maxsize=256, typed=True)
def _parse_chord(text: str, default_comma: int | None) -> tuple[ChordName, Triangle]:
    # a level of any other type would put the chord at a root that is not
    # a lattice vertex, such as a float one; bool is an int
    if default_comma is not None and not isinstance(default_comma, int):
        raise TypeError(f"default_comma must be an int or None, got {default_comma!r}")
    s = text.strip()
    if not s:
        raise ChordParseError("empty chord symbol", text, 0)
    if not ("A" <= s[0] <= "G"):
        raise ChordParseError(f"unknown note letter {s[0]!r}", text, 0)
    m = _CHORD_RE.match(s)
    assert m is not None  # first character already checked
    if m.end() != len(s):
        raise ChordParseError(f"unexpected {quote(s[m.end():])}", text, m.end())
    # the pattern admits only all flats or sharps mixed with double sharps
    acc = m.group("accidentals")
    sharps = len(acc) + acc.count("x") if acc[:1] != "b" else -len(acc)
    fifth_index = LETTERS.index(m.group("letter")) - 1 + 7 * sharps
    digits = m.group("comma")
    if digits is not None:
        # int() refuses a level of more digits than sys.get_int_max_str_digits()
        try:
            comma = int(digits)
        except ValueError:
            message = f"comma level of {len(digits)} characters is too long to read"
            raise ChordParseError(message, text, m.start("comma")) from None
    elif default_comma is not None:
        comma = default_comma
    else:
        comma = default_comma_level(fifth_index)
    chord = ChordName(NoteName(fifth_index, comma), minor=m.group("mode") is not None)
    return chord, chord_triangle(chord)


def hexagon_common_tone(e1: int, e2: int) -> NoteName:
    """The note shared by all six chords of the coset hexagon t1^e1 t2^e2.

    The base hexagon's common tone is the major third above the origin;
    translating by (e1, e2) moves it by the translation's lattice shift.
    """
    x, y = translation_shift(e1, e2)
    return spell_vertex((x, 1 + y))
