"""The translation lattice, the finite quotient, and coset hexagons."""

import pytest
from conftest import long_words
from hypothesis import given

from tonnetz.core import IDENTITY, ball, from_word, generator
from tonnetz.subgroups import (
    S3_ELEMENTS,
    FiniteS3Element,
    HexagonId,
    NotATranslationError,
    TranslationVector,
    conjugate_translation,
    decompose,
    format_translation_vector,
    hexagon_of,
    is_translation,
    translation_coords,
    translation_generator,
    translation_perm,
)


def test_translation_generator_windows():
    assert translation_generator(1).window == (2, -3, 1)
    assert translation_generator(2).window == (-1, 3, -2)
    assert translation_generator(3).window == (-4, 0, 4)


def test_generators_multiply_to_identity():
    t1, t2, t3 = (translation_generator(i) for i in (1, 2, 3))
    assert t1 * t2 * t3 == IDENTITY
    assert t1 * t2 == t3.inverse()
    assert (t1 * t2).window == (2, 0, -2)


def test_translations_commute():
    t1, t2 = translation_generator(1), translation_generator(2)
    assert t1 * t2 == t2 * t1


def test_is_translation():
    assert is_translation(IDENTITY)
    assert is_translation(translation_generator(1))
    assert is_translation(translation_generator(1).inverse())
    assert not is_translation(generator(1))
    assert not is_translation(from_word([2, 3]))
    assert not is_translation(from_word([2, 3, 2]))


def test_translation_coords():
    assert translation_coords(translation_generator(1)) == (1, 0)
    assert translation_coords(translation_generator(2)) == (0, 1)
    assert translation_coords(translation_generator(3)) == (-1, -1)
    assert translation_coords(IDENTITY) == (0, 0)


def test_translation_coords_rejects_non_translations():
    with pytest.raises(NotATranslationError):
        translation_coords(generator(2))


def test_finite_elements():
    assert FiniteS3Element.S2S3.perm.window == (-3, 1, 2)
    assert FiniteS3Element.S3S2.perm.window == (-2, 2, 0)
    assert FiniteS3Element.S2S3S2.perm.window == (-3, 2, 1)
    orders = [el.perm.order() or 1 for el in S3_ELEMENTS]
    assert sorted(orders) == [1, 2, 2, 2, 3, 3]


def test_finite_table_matches_window_products():
    for x in S3_ELEMENTS:
        for y in S3_ELEMENTS:
            assert (x * y).perm == x.perm * y.perm
        assert (x * x.inverse()) is FiniteS3Element.E


def test_decompose_fixtures():
    vec, sigma = decompose(translation_generator(1))
    assert (vec, sigma) == ((1, 0), FiniteS3Element.E)
    vec, sigma = decompose(from_word([2, 3]))
    assert vec == (0, 0)
    assert sigma is FiniteS3Element.S2S3


def test_decompose_of_s1():
    # s1 is not in the finite subgroup generated by s2 and s3
    vec, sigma = decompose(generator(1))
    assert translation_perm(vec) * sigma.perm == generator(1)
    assert vec != (0, 0)


def check_factorization(f):
    """decompose and hexagon_of of f: f = t * sigma, and the types they return."""
    vec, sigma = decompose(f)
    assert type(vec) is TranslationVector
    assert type(vec.e1) is int and type(vec.e2) is int
    assert any(sigma is member for member in FiniteS3Element)
    assert translation_perm(vec) * sigma.perm == f
    hexagon = hexagon_of(f)
    assert type(hexagon) is HexagonId and type(hexagon.base) is TranslationVector
    assert hexagon.base == vec


def test_factorization_on_the_ball():
    for f in ball(8):
        check_factorization(f)


@given(long_words)
def test_factorization_on_long_words(word):
    check_factorization(from_word(word))


def test_conjugation_fixtures():
    assert conjugate_translation(1, (1, 0)) == (-1, 0)
    assert conjugate_translation(2, (1, 0)) == (1, 1)
    assert conjugate_translation(3, (1, 0)) == (0, -1)


def test_hexagon_of_constant_on_cosets():
    f = from_word([1, 2, 1, 3])  # t3
    base = hexagon_of(f)
    for sigma in S3_ELEMENTS:
        assert hexagon_of(f * sigma.perm) == base
    assert hexagon_of(IDENTITY) != base


def test_vector_format_parse():
    vec = TranslationVector(-2, 3)
    assert format_translation_vector(vec) == "t1^-2 t2^3"
