"""Note spelling on the lattice, chord symbols, hexagon common tones."""

import re

import pytest
from conftest import MEMO_POLICY, MEMOS, within_budget
from hypothesis import given
from hypothesis import strategies as st

from tonnetz.lattice import Triangle
from tonnetz.pitch import (
    MAX_ACCIDENTALS,
    ChordName,
    ChordParseError,
    NoteName,
    accidental_string,
    chord_tones,
    chord_triangle,
    default_comma_level,
    format_chord,
    format_note,
    hexagon_common_tone,
    name_triangle,
    parse_chord,
    pitch_class,
    spell_vertex,
    vertex_of,
)

# the twelve vertex labels of the radius-two neighborhood around C
VERTEX_LABELS = {
    (0, 0): "C",
    (1, 0): "G",
    (-1, 0): "F",
    (2, 0): "D",
    (0, 1): "E",
    (-1, 1): "A",
    (1, 1): "B",
    (0, -1): "Ab",
    (1, -1): "Eb",
    (2, -1): "Bb",
    (-1, 2): "C#",
    (0, 2): "G#",
}

# common tones of the thirteen hexagons nearest the origin, by coset exponents
HEXAGON_LABELS = {
    (0, 0): "E",
    (1, 1): "D#",
    (1, 0): "E#",
    (0, -1): "F#",
    (-1, -1): "F",
    (-1, 0): "Eb",
    (0, 1): "D",
    (2, 2): "Cx",
    (1, 2): "C#",
    (0, 2): "C",
    (0, -2): "G#",
    (-1, -2): "G",
    (-2, -2): "Gb",
}


def test_letters_walk_the_line_of_fifths():
    names = [NoteName(k, 0).letter for k in range(-1, 6)]
    assert names == ["F", "C", "G", "D", "A", "E", "B"]


def test_accidentals_every_seven_steps():
    assert NoteName(6, 0).letter == "F"
    assert NoteName(6, 0).accidentals == 1
    assert NoteName(-2, 0).letter == "B"
    assert NoteName(-2, 0).accidentals == -1
    assert NoteName(13, 0).accidentals == 2


def test_accidental_string():
    assert accidental_string(0) == ""
    assert accidental_string(1) == "#"
    assert accidental_string(2) == "x"
    assert accidental_string(3) == "x#"
    assert accidental_string(-1) == "b"
    assert accidental_string(-2) == "bb"


def test_names_stop_at_the_accidental_cap():
    # the last fifth index within the cap and the first past it, each way
    sharp, flat = 7 * MAX_ACCIDENTALS + 5, -7 * MAX_ACCIDENTALS - 1
    assert format_note(NoteName(sharp, 0)) == "B" + "x" * (MAX_ACCIDENTALS // 2)
    assert format_chord(ChordName(NoteName(flat, 0), True)) == "F" + "b" * MAX_ACCIDENTALS + "m"
    for past in (sharp + 1, flat - 1):
        with pytest.raises(ValueError, match=f"needs {MAX_ACCIDENTALS + 1} .* at most"):
            format_chord(ChordName(NoteName(past, 0), False), with_comma=True)


def test_format_note():
    assert format_note(NoteName(7, 2)) == "C#"
    assert format_chord(ChordName(NoteName(7, 2), False), with_comma=True) == "C#[q=2]"
    assert format_note(NoteName(14, 3)) == "Cx"
    assert format_note(NoteName(-6, -1)) == "Gb"
    assert format_note(NoteName(-15, 0)) == "Fbb"


def test_vertex_labels():
    for v, label in VERTEX_LABELS.items():
        assert format_note(spell_vertex(v)) == label


def test_spell_vertex_round_trip_fixtures():
    for v in VERTEX_LABELS:
        assert vertex_of(spell_vertex(v)) == v


@given(st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
def test_spell_vertex_round_trip(v):
    assert vertex_of(spell_vertex(v)) == v


def test_pitch_classes():
    assert pitch_class(NoteName(0, 0)) == 0  # C
    assert pitch_class(NoteName(1, 0)) == 7  # G
    assert pitch_class(NoteName(2, 0)) == 2  # D
    assert pitch_class(NoteName(4, 1)) == 4  # E
    assert pitch_class(NoteName(-4, -1)) == 8  # Ab
    # comma level never changes the pitch class
    assert pitch_class(NoteName(3, 5)) == pitch_class(NoteName(3, 0))


def test_default_comma_levels():
    home = {"C": 0, "G": 0, "D": 0, "A": 1, "E": 1, "B": 1}
    for k in range(-1, 6):
        note = NoteName(k, 0)
        if note.letter in home:
            assert default_comma_level(k) == home[note.letter]
    assert default_comma_level(-1) == 0  # F
    assert default_comma_level(-3) == -1  # Eb
    assert default_comma_level(-4) == -1  # Ab
    assert default_comma_level(7) == 2  # C#
    assert default_comma_level(8) == 2  # G#


def test_parse_chord_defaults():
    chord, t = parse_chord("C")
    assert chord == ChordName(NoteName(0, 0), minor=False)
    assert t == Triangle((0, 0), up=True)
    chord, t = parse_chord("C#m")
    assert chord == ChordName(NoteName(7, 2), minor=True)
    assert t == Triangle((-1, 2), up=False)


def test_parse_chord_spellings():
    assert parse_chord("Amin")[0] == ChordName(NoteName(3, 1), minor=True)
    assert parse_chord("Am")[0] == ChordName(NoteName(3, 1), minor=True)
    assert parse_chord("Ebm[q=-1]")[0] == ChordName(NoteName(-3, -1), minor=True)
    assert parse_chord("Cx")[0] == ChordName(NoteName(14, 3), minor=False)
    assert parse_chord("Bb")[0] == ChordName(NoteName(-2, -1), minor=False)
    # one kind of sign per symbol, repeated or, for sharps, mixed with x
    for symbol, fifth_index in (("C#", 7), ("Cb", -7), ("Cbb", -14), ("Cx#", 21), ("C##", 14)):
        assert parse_chord(symbol)[0].root.fifth_index == fifth_index


def test_parse_chord_explicit_default_comma():
    chord, _ = parse_chord("E", default_comma=0)
    assert chord.root == NoteName(4, 0)
    # an annotation still wins
    chord, _ = parse_chord("E[q=3]", default_comma=0)
    assert chord.root == NoteName(4, 3)


def test_parse_chord_errors():
    with pytest.raises(ChordParseError):
        parse_chord("")
    with pytest.raises(ChordParseError):
        parse_chord("H")
    with pytest.raises(ChordParseError) as exc:
        parse_chord("C$")
    assert exc.value.position == 1
    with pytest.raises(ChordParseError):
        parse_chord("C[q=two]")
    # sharps and flats do not mix: C#b used to parse as C
    for symbol in ("C#b", "Cb#", "Cxb", "Cbx", "C#bm"):
        with pytest.raises(ChordParseError) as exc:
            parse_chord(symbol)
        assert exc.value.position == 2


def test_parse_chord_refuses_a_level_int_cannot_read():
    # int() reads at most 4300 digits; past them it raised its own ValueError,
    # which echoed no symbol and no position
    symbol = f"C[q={'9' * 5000}]"
    with pytest.raises(ChordParseError) as exc:
        parse_chord(symbol)
    assert str(exc.value) == (
        f"comma level of 5000 characters is too long to read in 'C[q={'9' * 36}'... "
        "(5005 characters) at position 4"
    )
    assert (exc.value.text, exc.value.position) == (symbol, 4)


def test_chord_symbol_round_trip():
    for symbol in ("C", "C#m", "Ebm", "Fx", "Gbb", "Am"):
        chord, _ = parse_chord(symbol)
        assert format_chord(chord) == symbol
        again, _ = parse_chord(format_chord(chord, with_comma=True))
        assert again == chord


def test_name_triangle_round_trip():
    for v in VERTEX_LABELS:
        for up in (True, False):
            t = Triangle(v, up)
            assert chord_triangle(name_triangle(t)) == t


def test_chord_tones_major():
    _, t = parse_chord("C")
    tones = [format_note(n) for n in chord_tones(t)]
    assert tones == ["C", "E", "G"]


def test_chord_tones_minor():
    _, t = parse_chord("Am")
    tones = [format_note(n) for n in chord_tones(t)]
    assert tones == ["A", "C", "E"]


def test_chord_tones_distant_spelling():
    # every tone of C# major carries sharps; no enharmonic shortcuts
    _, t = parse_chord("C#")
    tones = [format_note(n) for n in chord_tones(t)]
    assert tones == ["C#", "E#", "G#"]


def test_chord_tones_comma_levels():
    _, t = parse_chord("C")
    root, third, fifth = chord_tones(t)
    assert (root.comma, third.comma, fifth.comma) == (0, 1, 0)


def test_hexagon_labels():
    for (e1, e2), label in HEXAGON_LABELS.items():
        assert format_note(hexagon_common_tone(e1, e2)) == label


def test_hexagon_tone_translates():
    # shifting the coset exponents translates the common tone accordingly
    base = vertex_of(hexagon_common_tone(0, 0))
    for e1 in range(-2, 3):
        for e2 in range(-2, 3):
            v = vertex_of(hexagon_common_tone(e1, e2))
            assert v[0] == base[0] - e1 + 2 * e2
            assert v[1] == base[1] + 2 * e1 - e2


# --- parse_chord's sign count and memo -------------------------------------------

def test_parse_chord_counts_accidentals_in_closed_form():
    # five million signs, each kind of spelling the pattern admits
    n = 5_000_000
    for symbol, fifth_index in (
        ("C" + "#" * n, 7 * n),
        ("C" + "b" * n, -7 * n),
        ("C" + "x#" * (n // 2), 7 * 3 * (n // 2)),
    ):
        with within_budget():
            chord, _ = parse_chord(symbol)
        assert chord.root.fifth_index == fifth_index


@pytest.mark.parametrize("check", MEMO_POLICY, ids=lambda check: check.__name__)
def test_parse_chord_memo_keeps_the_policy(check):
    check(MEMOS["parse_chord"])


# hashable or not, long or short, each is refused before the memo, by name;
# None and the tuple used to fail on .strip, and bytes on comparing a letter
@pytest.mark.parametrize("text", [None, ("C",) * 100, ["C"], ["C"] * 100, 5, b"C"])
def test_parse_chord_refuses_what_is_not_a_string(text):
    refusal = rf"^chord symbol must be a str, got {re.escape(repr(text))}$"
    for default_comma in (None, 1.0):
        with pytest.raises(TypeError, match=refusal):
            parse_chord(text, default_comma)
