"""Affine permutations of the triangular tiling, in window notation.

The group studied here consists of the bijections f of the integers that
satisfy f(n + 3) = f(n) + 3 and f(-1) + f(0) + f(1) = 0.  Such a map is
determined by its window [f(-1), f(0), f(1)], a triple of integers that
sums to zero and meets every residue class mod 3 exactly once.  The three
generators s1, s2, s3 are involutions, and the group acts simply
transitively on the triangles of the infinite Tonnetz; the lattice side of
that correspondence lives in :mod:`tonnetz.lattice`.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import product
from typing import Hashable, Iterable, Iterator, NamedTuple

GENERATOR_INDICES = (1, 2, 3)


class ElementType(Enum):
    IDENTITY = "identity"
    REFLECTION = "reflection"
    ROTATION = "rotation"
    TRANSLATION = "translation"
    GLIDE_REFLECTION = "glide-reflection"


class TriangleCoords(NamedTuple):
    """Center coordinates of a triangle along the three generator axes.

    Axis 1 points left, axis 2 to the upper right, axis 3 to the lower
    right; the three coordinates always sum to zero.
    """

    c1: int
    c2: int
    c3: int


def _not_a_sequence(self: object, other: object) -> object:
    # __add__ and __rmul__ of tuple-backed group elements and isometries:
    # without it, tuple concatenation and repetition answer f + g and 3 * f
    return NotImplemented


class _Window(NamedTuple):
    a: int
    b: int
    c: int


class AffinePermutation(_Window):
    """An element of the affine triangle group, stored by its window.

    Being a named tuple, an element equals the plain tuple (a, b, c),
    hashes like it and sorts by window.  Tuple repetition and
    concatenation are switched off, so 3 * f and f + g raise TypeError.

    >>> AffinePermutation(-3, 1, 2).window
    (-3, 1, 2)
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> AffinePermutation:
        if a + b + c != 0:
            raise ValueError(f"window {quote((a, b, c))} does not sum to zero")
        if {a % 3, b % 3, c % 3} != {0, 1, 2}:
            raise ValueError(f"window {quote((a, b, c))} must meet each residue class mod 3 once")
        return tuple.__new__(cls, (a, b, c))

    @property
    def window(self) -> tuple[int, int, int]:
        return tuple(self)

    def __call__(self, n: int) -> int:
        """Evaluate the underlying map at any integer.

        >>> AffinePermutation(-3, 1, 2)(2)
        0
        >>> AffinePermutation(0, -1, 1)(-4)
        -3
        """
        r = (n + 1) % 3
        return self[r] + n + 1 - r

    def __mul__(self, other: AffinePermutation) -> AffinePermutation:
        """Composition f * g, with g applied first: f read at g's window entries."""
        if not isinstance(other, AffinePermutation):
            return NotImplemented
        a, b, c = other
        i, j, k = (a + 1) % 3, (b + 1) % 3, (c + 1) % 3
        return _make_element(
            AffinePermutation, (self[i] + a + 1 - i, self[j] + b + 1 - j, self[k] + c + 1 - k)
        )

    __add__ = __rmul__ = _not_a_sequence

    def inverse(self) -> AffinePermutation:
        """The inverse bijection.

        >>> AffinePermutation(-3, 1, 2).inverse().window
        (-2, 2, 0)
        """
        # f(p) = v gives f^-1(n) = p + n - v at the window position n = slot - 1,
        # slot = (v + 1) % 3, for the entries v = a, b, c at p = -1, 0, 1
        a, b, c = self
        i, j, k = (a + 1) % 3, (b + 1) % 3, (c + 1) % 3
        out = [0, 0, 0]
        out[i] = i - 2 - a
        out[j] = j - 1 - b
        out[k] = k - c
        return _make_element(AffinePermutation, out)

    def reduced_word(self) -> tuple[int, ...]:
        """The canonical reduced word, stripping the smallest descent first.

        greedy_walk with _descent_moves as its moves and the window's
        residues as its state.  Its offsets are the quotients of f^-1 that
        length() sums, which right multiplication never permutes: the strip
        offsets q', p + q and p of f's triangle past the base triangle's.

        >>> AffinePermutation(-3, 2, 1).reduced_word()
        (2, 3, 2)
        >>> AffinePermutation(1, -1, 0).reduced_word()
        (2, 1)
        """
        a, b, c = self.inverse()
        offsets = ((b - a) // 3, (c - a) // 3, (c - b) // 3)
        return tuple(b"".join(greedy_walk(_DESCENTS, offsets, self.residues))[::-1])

    @property
    def residues(self) -> tuple[int, int, int]:
        """The window entries mod 3; they name the coset of the translations.

        >>> AffinePermutation(-3, 2, 1).residues
        (0, 2, 1)
        """
        return (self.a % 3, self.b % 3, self.c % 3)

    def length(self) -> int:
        """Coxeter length; equals the flip distance from the base triangle.

        Shi's inversion formula: the sum over window pairs i < j of
        |floor((w(j) - w(i)) / 3)|.

        >>> AffinePermutation(-3, 2, 1).length()
        3
        """
        a, b, c = self
        return abs((b - a) // 3) + abs((c - a) // 3) + abs((c - b) // 3)

    def is_even(self) -> bool:
        """Whether the element is a product of an even number of generators.

        The parity of the finite factor sigma's word: translations are
        even, and each generator changes the parity of sigma.
        """
        return len(_FINITE_BY_RESIDUES[self.residues][0]) % 2 == 0

    def order(self) -> int | None:
        """Order of the element, or None when no power returns to identity.

        Read off the finite factor sigma: a 3-cycle makes a rotation of
        order 3; a transposition makes a reflection of order 2 when
        f * f = e and a glide reflection otherwise; sigma = e makes a
        translation, of infinite order unless it is the identity.
        """
        sigma_length = len(_FINITE_BY_RESIDUES[self.residues][0])
        if sigma_length == 2:
            return 3
        if sigma_length:
            return 2 if self * self == IDENTITY else None
        return 1 if self == IDENTITY else None

    def classify(self) -> ElementType:
        """Sort the element into the four isometry types (plus identity)."""
        order = self.order()
        if order == 1:
            return ElementType.IDENTITY
        if order == 2:
            return ElementType.REFLECTION
        if order == 3:
            return ElementType.ROTATION
        if self.is_even():
            return ElementType.TRANSLATION
        return ElementType.GLIDE_REFLECTION

    def center_coords(self) -> TriangleCoords:
        """Axis coordinates of the center of this element's triangle.

        The window entry congruent to i mod 3 contributes the i-th
        coordinate: +1 if it sits in the first slot, unchanged in the
        middle slot, -1 in the last slot.

        >>> AffinePermutation(-3, 2, 1).center_coords()
        TriangleCoords(c1=0, c2=2, c3=-2)
        """
        return _make_element(TriangleCoords, _center_coords(*self))

    def center_distance(self) -> int:
        """Half the coordinate l1-norm, i.e. the sum of positive coordinates.

        This is the hexagonal distance of the triangle center from the
        origin in axis units.  It is NOT always the flip distance: the two
        agree on many short elements but differ already at length 3 (for
        example the window [-3, 2, 1]).  Use length() or the BFS oracle in
        :mod:`tonnetz.lattice` for the true gallery distance; the verify
        suite tabulates the comparison.
        """
        return sum(c for c in self.center_coords() if c > 0)


# builds an element from a window without the validating __new__, for the
# group operations, whose results are windows of the group by construction;
# as tuple.__new__ it builds any named tuple without its Python-level __new__
_make_element = tuple.__new__


def _center_coords(a: int, b: int, c: int) -> list[int]:
    """center_coords of the window [a, b, c], as a list."""
    out = [0, 0, 0]
    out[(a - 1) % 3] = a + 1
    out[(b - 1) % 3] = b
    out[(c - 1) % 3] = c - 1
    return out


IDENTITY = AffinePermutation(-1, 0, 1)

_GENERATORS = {
    1: AffinePermutation(0, -1, 1),
    2: AffinePermutation(-1, 1, 0),
    3: AffinePermutation(-2, 0, 2),
}


def generator(i: int) -> AffinePermutation:
    """The i-th generating reflection, i in {1, 2, 3}.

    >>> generator(3).window
    (-2, 0, 2)
    """
    try:
        return _GENERATORS[i]
    except KeyError:
        raise ValueError(f"generator index must be 1, 2 or 3, got {i!r}") from None


def right_mult_generator(f: AffinePermutation, i: int) -> AffinePermutation:
    """f * s_i, whose triangle is f's flipped across its wall of type i.

    >>> right_mult_generator(AffinePermutation(-1, 1, 0), 3).window
    (-3, 1, 2)
    """
    return f * generator(i)


def from_word(word: Iterable[int]) -> AffinePermutation:
    """Product of generators, applied left to right from the identity.

    >>> from_word([2, 3, 2]).window
    (-3, 2, 1)
    >>> from_word([]) == IDENTITY
    True
    """
    # f * s_i rewrites f's window [a, b, c]: s1 swaps a and b, s2 swaps b
    # and c, and s3 gives [c - 3, b, a + 3]
    a, b, c = IDENTITY
    for i in word:
        if i == 1:
            a, b = b, a
        elif i == 2:
            b, c = c, b
        elif i == 3:
            a, c = c - 3, a + 3
        else:
            raise ValueError(f"generator index must be 1, 2 or 3, got {i!r}")
    return _make_element(AffinePermutation, (a, b, c))


# --- the greedy walk ------------------------------------------------------


def walk_table(moves: dict) -> dict:
    """The table of a greedy walk on three offsets, from its moves.

    moves[state] lists the steps from each state in the order tried, each as
    (letter, i, sign, next state): the letter moves offset i one step toward
    zero, and the walk takes the first step whose offset has the sign.
    While the signs hold, the states follow a path until one repeats.  Entry
    (state, *signs) holds its letters, their number, the index of the last
    step to take (inf for a round, back at its first state), each offset's
    moves, the indices of those steps, and the state and moves after each.
    """
    steps = {}
    for state, signs in product(moves, product((-1, 0, 1), repeat=3)):
        if step := next(((x, i, to) for x, i, sign, to in moves[state] if signs[i] == sign), None):
            steps[state, signs] = step
    table = {}
    for first, signs in steps:
        word, state, count, hits, after, seen = None, first, [0, 0, 0], ([], [], []), [], {first}
        while step := steps.get((state, signs)):
            letter, i, state = step
            word = letter if word is None else word + letter
            count[i] += 1
            hits[i].append(len(after))
            after.append((state, *count))
            if state in seen:
                break
            seen.add(state)
        last = float("inf") if state == first else len(after) - 1
        table[(first, *signs)] = (word, len(word), last, *count, *hits, after)
    return table


def greedy_walk(table: dict, offsets: tuple[int, int, int], state: Hashable) -> list:
    """The letters of walk_table's walk, as pieces to join in walking order.

    A step moves one offset toward zero and never changes its sign, so the
    signs change at most three times: at most three phases, each perhaps
    after a lead-in.  A phase takes whole rounds of its path and part of one,
    to the step that zeroes an offset: offset i, moved m_i times a round,
    reaches zero in round (|o_i| - 1) // m_i.
    """
    d0, d1, d2 = offsets
    s0, s1, s2 = (d0 > 0) - (d0 < 0), (d1 > 0) - (d1 < 0), (d2 > 0) - (d2 < 0)
    d0, d1, d2 = abs(d0), abs(d1), abs(d2)
    pieces = []
    while d0 or d1 or d2:
        word, period, last, m0, m1, m2, h0, h1, h2, after = table[state, s0, s1, s2]
        if m0 and (t := (d0 - 1) // m0 * period + h0[(d0 - 1) % m0]) < last:
            last = t
        if m1 and (t := (d1 - 1) // m1 * period + h1[(d1 - 1) % m1]) < last:
            last = t
        if m2 and (t := (d2 - 1) // m2 * period + h2[(d2 - 1) % m2]) < last:
            last = t
        k, n = divmod(last, period)
        pieces.append(word * k + word[: n + 1])
        state, c0, c1, c2 = after[n]
        d0, d1, d2 = d0 - k * m0 - c0, d1 - k * m1 - c1, d2 - k * m2 - c2
        s0, s1, s2 = s0 if d0 else 0, s1 if d1 else 0, s2 if d2 else 0
    return pieces


# reduced_word's walls in the order tried: the letter, the window positions
# whose quotient shows the descent, its sign then (f = [a, b, c] has s1 when
# b < a, s2 when c < b, s3 when c > a + 3), and where the residues go
_WALLS = ((b"\1", 0, 1, -1, (1, 0, 2)), (b"\2", 1, 2, -1, (0, 2, 1)), (b"\3", 0, 2, 1, (2, 1, 0)))


def _descent_moves(residues: tuple[int, int, int]) -> Iterator[tuple]:
    """reduced_word's moves from f, which strip the descents s1, s2, s3.

    The offsets are f^-1's quotients at slots (0, 1), (0, 2) and (1, 2).  f's
    entry congruent to r is in slot (r + 1) % 3 of f^-1, and two of f's entries
    have their slots' quotient, negated when both windows order them alike.
    """
    for letter, i, j, sign, moved in _WALLS:
        k, m = (residues[i] + 1) % 3, (residues[j] + 1) % 3
        yield letter, k + m - 1, (-sign if k < m else sign), tuple(residues[x] for x in moved)


# The six elements of the finite subgroup generated by s2 and s3.  A
# translation fixes every residue class mod 3, so f = t * sigma and its
# finite factor sigma share window residues, and the residues pick sigma.
FINITE_WORDS = ((), (2,), (3,), (2, 3), (3, 2), (2, 3, 2))


def _factor_row(word: tuple[int, ...]) -> tuple:
    """sigma's row of _FINITE_BY_RESIDUES: its word, and the slot and offset
    of each of translation_factor's two read-offs."""
    m1, _, m3 = from_word(word).inverse()
    x, y = (m1 + 1) % 3, (m3 + 1) % 3
    return word, x, m1 + 2 - x, y, y - m3


_FINITE_BY_RESIDUES = {from_word(w).residues: _factor_row(w) for w in FINITE_WORDS}


# reduced_word's walk, over the six residue patterns of a window
_DESCENTS = walk_table({r: tuple(_descent_moves(r)) for r in _FINITE_BY_RESIDUES})


def translation_factor(f: AffinePermutation) -> tuple[int, int, tuple[int, ...]]:
    """(e1, e2, word of sigma) with f = t1^e1 * t2^e2 * sigma, sigma in <s2, s3>.

    The translation t = f * sigma^-1 has the window [3e1 - 1, 3(e2 - e1), 1 - 3e2],
    and it reads f at sigma^-1's first and last entries m1 and m3: its first
    entry is f(m1) = f[x] + m1 + 1 - x for x = (m1 + 1) % 3, and its last is
    f(m3) = f[y] + m3 + 1 - y for y = (m3 + 1) % 3.  So sigma's row of the
    residue table holds x, u = m1 + 2 - x, y and v = y - m3, and no product
    is formed: e1 = (f[x] + u) // 3 and e2 = (v - f[y]) // 3.

    >>> translation_factor(AffinePermutation(-3, 2, 1))
    (0, 0, (2, 3, 2))
    >>> translation_factor(AffinePermutation(2, -3, 1))
    (1, 0, ())
    """
    word, x, u, y, v = _FINITE_BY_RESIDUES[f.residues]
    return (f[x] + u) // 3, (v - f[y]) // 3, word


def triangle_to_perm(coords: TriangleCoords | tuple[int, int, int]) -> AffinePermutation:
    """Invert center_coords: recover the window from axis coordinates.

    Coordinate c_i is its entry plus d = (c_i - i + 1) % 3 - 1, the offset
    in {-1, 0, +1} that puts the entry c_i - d in the residue class i mod 3;
    d is +1, 0, -1 in the first, middle, last slot, so the three must differ.

    >>> triangle_to_perm((0, -1, 1)).window
    (0, -1, 1)
    """
    c1, c2, c3 = coords
    out = _window_at(c1, c2, c3)
    if None in out:
        raise ValueError(f"{(c1, c2, c3)} is not a triangle center")
    return AffinePermutation(*out)


def _window_at(c1: int, c2: int, c3: int) -> list[int | None]:
    """triangle_to_perm's window, None in each slot no coordinate fills."""
    out: list[int | None] = [None, None, None]
    d = c1 % 3 - 1
    out[1 - d] = c1 - d
    d = (c2 - 1) % 3 - 1
    out[1 - d] = c2 - d
    d = (c3 - 2) % 3 - 1
    out[1 - d] = c3 - d
    return out


def ball(radius: int) -> list[AffinePermutation]:
    """All elements of length <= radius, by the differences of their windows.

    [a, a + u, a + u + v] is an element exactly when u = 3m + rho and
    v = 3n + rho with rho = 1 or 2, and 3a = -(2u + v).  By Shi's formula its
    length is |m| + |n| + |n + c| with c = m + (rho == 2): at most radius for
    n in -((s + c) // 2) .. (s - c) // 2, s = radius - |m|, if s >= |c|, that
    is if |(2u - 1) // 3| <= radius.  The elements come in order of u, then v.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return [
        _make_element(AffinePermutation, (a := -(2 * u + v) // 3, a + u, a + u + v))
        for u in range(-((3 * radius - 1) // 2), (3 * radius + 3) // 2 + 1)
        if u % 3
        for c, s in [(u // 3 + (u % 3 == 2), radius - abs(u // 3))]
        for v in range(u % 3 - 3 * ((s + c) // 2), u % 3 + 3 * ((s - c) // 2) + 1, 3)
    ]


# --- text formats ---------------------------------------------------------


# A refusal quotes its input whole up to this many characters, and a longer
# one by its first QUOTE_CHARS and its length, so the message stays one short
# line however long the input is.
QUOTE_CHARS = 40


def quote(value: str | tuple) -> str:
    """repr(value), or for a long one the repr of its first QUOTE_CHARS characters, "..." and its length.

    Every refusal that quotes a text it parses, or a window read from one,
    quotes it here.  A str is cut before its repr is built, so a long one
    is never copied whole, and a window's repr after; a short value costs
    one length test.
    """
    shown = value if isinstance(value, str) else repr(value)
    if len(shown) <= QUOTE_CHARS:
        return repr(value)
    return f"{shown[:QUOTE_CHARS]!r}... ({len(shown)} characters)"


# the text of an integer as int() reads it: a sign, then digits grouped by
# single underscores, with spaces round them
_INTEGER_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def too_long_to_read(texts: Iterable[str], what: str) -> str | None:
    """Why int() refused the first of texts it cannot read, if that text is an integer.

    int() raises one ValueError both for a text that is no integer and for
    one of more digits than sys.get_int_max_str_digits(); a refusal that
    said "must be integers" of the latter would be wrong.  So this names
    what and its length, or returns None for the caller's own refusal.
    """
    for text in texts:
        try:
            int(text)
        except ValueError:
            if _INTEGER_TEXT.fullmatch(text):
                return f"{what} of {len(text.strip())} characters is too long to read"
            return None
    return None


def parse_window(text: str) -> AffinePermutation:
    """Parse "[a,b,c]" (spaces allowed, unicode minus accepted)."""
    s = text.strip().replace("−", "-")
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"window must look like [a,b,c], got {quote(text)}")
    if s.count(",") != 2:
        raise ValueError(f"window needs exactly three entries, got {quote(text)}")
    # int() skips the spaces round each entry; the entries' text is dropped
    # before the window is built, so a refusal of a long one holds it once
    try:
        a, b, c = map(int, s[1:-1].split(","))
    except ValueError:
        why = too_long_to_read(s[1:-1].split(","), "window entry") or "window entries must be integers"
        raise ValueError(f"{why}, got {quote(text)}") from None
    return AffinePermutation(a, b, c)


def format_window(f: AffinePermutation) -> str:
    return "[%d,%d,%d]" % f.window


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a generator word like "s2 s3 s2" or "s2.s3.s2".

    The empty string and "e" both denote the identity.
    """
    s = text.strip()
    if s in ("", "e"):
        return ()
    tokens = [t for t in s.replace(".", " ").replace("·", " ").split() if t]
    word = []
    for t in tokens:
        if len(t) == 2 and t[0] == "s" and t[1] in "123":
            word.append(int(t[1]))
        else:
            raise ValueError(f"bad generator token {quote(t)} in word {quote(text)}")
    return tuple(word)


def format_word(word: Iterable[int]) -> str:
    letters = list(word)
    if not letters:
        return "e"
    return " ".join(f"s{i}" for i in letters)

