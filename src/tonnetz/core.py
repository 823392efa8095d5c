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

from enum import Enum
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

WINDOW_POSITIONS = (-1, 0, 1)

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
            raise ValueError(f"window {(a, b, c)} does not sum to zero")
        if {a % 3, b % 3, c % 3} != {0, 1, 2}:
            raise ValueError(f"window {(a, b, c)} must meet each residue class mod 3 once")
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
        # f(p) = v gives f^-1(n) = p + n - v at the window position n = slot - 1
        out = [0, 0, 0]
        for p, v in zip(WINDOW_POSITIONS, self):
            slot = (v + 1) % 3
            out[slot] = p + slot - 1 - v
        return _make_element(AffinePermutation, out)

    def reduced_word(self) -> tuple[int, ...]:
        """The canonical reduced word, stripping the smallest descent first.

        The walk applies the window rewriting rules of right_mult_generator to
        bare integers; only the identity [-1, 0, 1] has no right descent.  Its
        letters fall into blocks: letters 1 and 2 that sort the window by one of
        the words 1, 2, 12, 21 or 121, or by none, then a letter 3.  A long word
        runs straight and repeats one block B.  Once two successive blocks are
        equal, B B is a reduced factor, so B is neither a rotation nor a
        reflection (their squares are shorter): an even B is a translation, and
        an odd B a glide reflection whose square is one.  A round, B or B B, is
        then a translation, which shifts the window at each of its steps by a
        fixed vector.  Which letters 1 and 2 fire depends only on the window's
        order, so the walk repeats the round while, at each of its letters 3,
        the window [x, y, z] is still sorted and is not the identity, the one
        sorted window with z <= x + 3.  The letters left bound the rounds before
        the identity.  The gaps y - x and z - y were positive at round j = -1,
        the round just stripped, and are linear in j, so the rounds j >= 0 that
        keep them all positive are an interval 0..k-1, and k is the least of a
        few floor divisions.  The walk appends the k rounds at once and goes on:
        each run costs one Python step plus an O(L) copy, and the word is the
        letter-by-letter one.

        >>> AffinePermutation(-3, 2, 1).reduced_word()
        (2, 3, 2)
        >>> AffinePermutation(1, -1, 0).reduced_word()
        (2, 1)
        """
        letters = []
        a, b, c = self
        # the last two blocks, letters[p:q] and letters[q:n], each begin at
        # the start of the walk or after a letter 3, and end in a letter 3
        p = q = 0
        while True:
            if a > b:
                letters.append(1)
                a, b = b, a
            elif b > c:
                letters.append(2)
                b, c = c, b
            elif c > a + 3:
                letters.append(3)
                a, c = c - 3, a + 3
                n = len(letters)
                # a block's length and first letter name its sorting word
                if n - q == q - p and letters[p] == letters[q]:
                    size = n - p if (n - q) % 2 else n - q
                    # no more rounds than the letters left to strip
                    k = (abs((b - a) // 3) + abs((c - a) // 3) + abs((c - b) // 3)) // size
                    if k:
                        round_ = letters[n - size :]
                        # the translation: the round's rules on the zero window
                        da = db = dc = 0
                        for letter in round_:
                            if letter == 1:
                                da, db = db, da
                            elif letter == 2:
                                db, dc = dc, db
                            else:
                                da, dc = dc - 3, da + 3
                        # the window and its change per round, along the round;
                        # a gap t with change dt < 0 stays positive for -(t // dt)
                        x, y, z, ea, eb, ec = a, b, c, da, db, dc
                        for letter in round_:
                            if letter == 1:
                                x, y, ea, eb = y, x, eb, ea
                            elif letter == 2:
                                y, z, eb, ec = z, y, ec, eb
                            else:
                                if eb < ea:
                                    k = min(k, -((y - x) // (eb - ea)))
                                if ec < eb:
                                    k = min(k, -((z - y) // (ec - eb)))
                                x, z, ea, ec = z - 3, x + 3, ec, ea
                        letters += round_ * k
                        a, b, c = a + k * da, b + k * db, c + k * dc
                    n = q = len(letters)
                p, q = q, n
            else:
                break
        letters.reverse()
        return tuple(letters)

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
        out = [0, 0, 0]
        for s, e in enumerate(self):
            out[(e - 1) % 3] = e + 1 - s
        return TriangleCoords(*out)

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
# group operations, whose results are windows of the group by construction
_make_element = tuple.__new__


IDENTITY = AffinePermutation(-1, 0, 1)

_GENERATORS = {
    1: AffinePermutation(0, -1, 1),
    2: AffinePermutation(-1, 1, 0),
    3: AffinePermutation(-2, 0, 2),
}


def identity() -> AffinePermutation:
    return IDENTITY


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
    """f * s_i by the window rewriting rule, without composing maps.

    >>> right_mult_generator(AffinePermutation(-1, 1, 0), 3).window
    (-3, 1, 2)
    """
    a, b, c = f
    if i == 1:
        return _make_element(AffinePermutation, (b, a, c))
    if i == 2:
        return _make_element(AffinePermutation, (a, c, b))
    if i == 3:
        return _make_element(AffinePermutation, (c - 3, b, a + 3))
    raise ValueError(f"generator index must be 1, 2 or 3, got {i!r}")


def from_word(word: Iterable[int]) -> AffinePermutation:
    """Product of generators, applied left to right from the identity.

    >>> from_word([2, 3, 2]).window
    (-3, 2, 1)
    >>> from_word([]) == identity()
    True
    """
    # right_mult_generator's rules, on the window's three entries
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


# The six elements of the finite subgroup generated by s2 and s3.  A
# translation fixes every residue class mod 3, so f = t * sigma and its
# finite factor sigma share window residues, and the residues pick sigma.
FINITE_WORDS = ((), (2,), (3,), (2, 3), (3, 2), (2, 3, 2))

_FINITE_BY_RESIDUES = {
    from_word(w).residues: (w, from_word(w).inverse()) for w in FINITE_WORDS
}


def translation_factor(f: AffinePermutation) -> tuple[int, int, tuple[int, ...]]:
    """(e1, e2, word of sigma) with f = t1^e1 * t2^e2 * sigma, sigma in <s2, s3>.

    The translation t1^e1 * t2^e2 has the window [3e1 - 1, 3(e2 - e1), 1 - 3e2].

    >>> translation_factor(AffinePermutation(-3, 2, 1))
    (0, 0, (2, 3, 2))
    >>> translation_factor(AffinePermutation(2, -3, 1))
    (1, 0, ())
    """
    word, sigma_inverse = _FINITE_BY_RESIDUES[f.residues]
    t = f * sigma_inverse
    return (t.a + 1) // 3, (1 - t.c) // 3, word


def triangle_to_perm(coords: TriangleCoords | tuple[int, int, int]) -> AffinePermutation:
    """Invert center_coords: recover the window from axis coordinates.

    Coordinate c_i is its entry plus d = (c_i - i + 1) % 3 - 1, the offset
    in {-1, 0, +1} that puts the entry c_i - d in the residue class i mod 3;
    d is +1, 0, -1 in the first, middle, last slot, so the three must differ.

    >>> triangle_to_perm((0, -1, 1)).window
    (0, -1, 1)
    """
    c1, c2, c3 = coords
    out: list[int | None] = [None, None, None]
    for i, c in zip(GENERATOR_INDICES, (c1, c2, c3)):
        d = (c - i + 1) % 3 - 1
        if out[1 - d] is not None:
            raise ValueError(f"{(c1, c2, c3)} is not a triangle center")
        out[1 - d] = c - d
    return AffinePermutation(*out)


# a set of nodes: an ordered dict keyed by the nodes
Layer = TypeVar("Layer", bound=dict)


def bfs_layers(start: Layer, expand: Callable[[Layer, Layer, int], Layer]) -> Iterator[Layer]:
    """Breadth-first layers of a bipartite undirected graph.

    Yields start, the layer at depth 0, then each next layer, until one is
    empty.  expand(layer, back, depth) returns layer depth + 1: every
    neighbour of layer (at depth) that is not in back (layer depth - 1,
    empty at depth 0).  A layer is an ordered dict keyed by its nodes.  The
    graph must be symmetric (m is a neighbour of n exactly when n is one of
    m) and bipartite (no odd cycle): then every neighbour of layer k lies
    in layer k - 1 or k + 1, never in layer k itself, so only two layers
    are remembered, not the whole ball.  On an infinite graph the caller
    decides where to stop; a layer is computed only when it is asked for.

    The 4-cycle is bipartite:

    >>> step = lambda layer, back, depth: {
    ...     m: None for n in layer for m in ((n + 1) % 4, (n - 1) % 4) if m not in back
    ... }
    >>> [list(layer) for layer in islice(bfs_layers({0: None}, step), 5)]
    [[0], [1, 3], [2]]
    """
    back, layer, depth = {}, start, 0
    while layer:
        yield layer
        back, layer, depth = layer, expand(layer, back, depth), depth + 1


def ball(radius: int) -> list[AffinePermutation]:
    """All elements of length <= radius, in breadth-first order.

    Each generator changes the length by one, so the Cayley graph is
    bipartite, as bfs_layers requires.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")

    def expand(
        layer: dict[AffinePermutation, None], back: dict[AffinePermutation, None], depth: int
    ) -> dict[AffinePermutation, None]:
        return {
            g: None
            for f in layer
            for i in GENERATOR_INDICES
            if (g := right_mult_generator(f, i)) not in back
        }

    return [f for layer in islice(bfs_layers({IDENTITY: None}, expand), radius + 1) for f in layer]


def length_layers(radius: int) -> list[int]:
    """Number of elements of each length 0..radius: 1, then 3k at length k.

    >>> length_layers(3)
    [1, 3, 6, 9]
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return [1] + [3 * k for k in range(1, radius + 1)]


# --- text formats ---------------------------------------------------------


def parse_window(text: str) -> AffinePermutation:
    """Parse "[a,b,c]" (spaces allowed, unicode minus accepted)."""
    s = text.strip().replace("−", "-")
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"window must look like [a,b,c], got {text!r}")
    parts = s[1:-1].split(",")
    if len(parts) != 3:
        raise ValueError(f"window needs exactly three entries, got {text!r}")
    try:
        vals = [int(p.strip()) for p in parts]
    except ValueError:
        raise ValueError(f"window entries must be integers, got {text!r}") from None
    return AffinePermutation(*vals)


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
            raise ValueError(f"bad generator token {t!r} in word {text!r}")
    return tuple(word)


def format_word(word: Iterable[int]) -> str:
    letters = list(word)
    if not letters:
        return "e"
    return " ".join(f"s{i}" for i in letters)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
