"""Translation subgroup, finite quotient, and the hexagon coset tiling.

The translations form a free abelian normal subgroup of rank 2, generated
by t1 = s2 s3 s2 s1 (up), t2 = s3 s1 s3 s2 (lower right) and
t3 = s1 s2 s1 s3 (lower left); t1 t2 t3 is the identity.  Every element
factors uniquely as a translation times one of the six elements of the
finite subgroup generated by s2 and s3, and the left cosets of that
finite subgroup tile the Tonnetz by hexagons.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import (
    IDENTITY,
    AffinePermutation,
    _make_element as _make,
    from_word,
    generator,
    quote,
    translation_factor,
)


class NotATranslationError(ValueError):
    pass


class TranslationVector(NamedTuple):
    """Exponents (e1, e2) of a translation t1^e1 * t2^e2."""

    e1: int
    e2: int


class HexagonId(NamedTuple):
    """A hexagon of the coset tiling, keyed by its base translation."""

    base: TranslationVector


class FiniteS3Element(Enum):
    """The six elements of the finite subgroup generated by s2 and s3."""

    E = ()
    S2 = (2,)
    S3 = (3,)
    S2S3 = (2, 3)
    S3S2 = (3, 2)
    S2S3S2 = (2, 3, 2)

    @property
    def word(self) -> tuple[int, ...]:
        return self.value

    @property
    def perm(self) -> AffinePermutation:
        return _S3_PERMS[self]

    def inverse(self) -> "FiniteS3Element":
        return coset_mod_T(self.perm.inverse())

    def __mul__(self, other: "FiniteS3Element") -> "FiniteS3Element":
        return coset_mod_T(self.perm * other.perm)


_S3_PERMS = {el: from_word(el.value) for el in FiniteS3Element}

# the members by word: FiniteS3Element(word) is an Enum call by value
_S3_BY_WORD = {el.value: el for el in FiniteS3Element}

S3_ELEMENTS = tuple(FiniteS3Element)

_IDENTITY_RESIDUES = IDENTITY.residues

_TRANSLATION_WORDS = {
    1: (2, 3, 2, 1),
    2: (3, 1, 3, 2),
    3: (1, 2, 1, 3),
}


def translation_generator(i: int) -> AffinePermutation:
    """t1, t2 or t3 as a window.

    >>> translation_generator(1).window
    (2, -3, 1)
    """
    try:
        return from_word(_TRANSLATION_WORDS[i])
    except KeyError:
        raise ValueError(f"translation index must be 1, 2 or 3, got {i!r}") from None


def is_translation(f: AffinePermutation) -> bool:
    """True iff f fixes every residue class mod 3, like the identity does.

    >>> is_translation(translation_generator(2)), is_translation(generator(1))
    (True, False)
    """
    return f.residues == _IDENTITY_RESIDUES


def translation_coords(f: AffinePermutation) -> TranslationVector:
    """Exponents (e1, e2) with f = t1^e1 * t2^e2, read off the window.

    >>> translation_coords(translation_generator(3).inverse())
    TranslationVector(e1=1, e2=1)
    """
    e1, e2, word = translation_factor(f)
    if word:
        raise NotATranslationError(f"{f.window} is not a translation")
    return _make(TranslationVector, (e1, e2))


def translation_perm(vec: TranslationVector | tuple[int, int]) -> AffinePermutation:
    """The translation t1^e1 * t2^e2 as a window.

    >>> translation_perm((1, 2)).window
    (2, 3, -5)
    """
    e1, e2 = vec
    if not (isinstance(e1, int) and isinstance(e2, int)):
        raise ValueError(f"translation exponents {quote(vec)} must be integers")
    return AffinePermutation(3 * e1 - 1, 3 * (e2 - e1), 1 - 3 * e2)


def decompose(f: AffinePermutation) -> tuple[TranslationVector, FiniteS3Element]:
    """Unique factorization f = t * sigma with t a translation.

    >>> decompose(from_word([2, 3, 2, 1]))[0]
    TranslationVector(e1=1, e2=0)
    """
    e1, e2, word = translation_factor(f)
    return _make(TranslationVector, (e1, e2)), _S3_BY_WORD[word]


def coset_mod_T(f: AffinePermutation) -> FiniteS3Element:
    """Image of f in the quotient by the translation subgroup."""
    return decompose(f)[1]


def hexagon_of(f: AffinePermutation) -> HexagonId:
    """The coset hexagon containing f's triangle."""
    e1, e2, _ = translation_factor(f)
    return _make(HexagonId, (_make(TranslationVector, (e1, e2)),))


def format_translation_vector(vec: TranslationVector | tuple[int, int]) -> str:
    return "t1^%d t2^%d" % tuple(vec)


def conjugate_translation(i: int, vec: TranslationVector | tuple[int, int]) -> TranslationVector:
    """Coordinates of s_i * t * s_i for the translation t with the given coordinates.

    >>> conjugate_translation(1, (1, 0))
    TranslationVector(e1=-1, e2=0)
    >>> conjugate_translation(2, (1, 0))
    TranslationVector(e1=1, e2=1)
    """
    s = generator(i)
    g = s * translation_perm(vec) * s
    return translation_coords(g)

