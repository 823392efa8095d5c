"""Window arithmetic: composition, reduction, length, classification."""

import pytest
from hypothesis import given, strategies as st

from tonnetz.core import (
    IDENTITY,
    AffinePermutation,
    ElementType,
    ball,
    format_window,
    format_word,
    from_word,
    generator,
    identity,
    length_layers,
    parse_window,
    parse_word,
    right_mult_generator,
    triangle_to_perm,
)

words = st.lists(st.sampled_from([1, 2, 3]), max_size=8)


def test_identity_window():
    assert identity().window == (-1, 0, 1)
    assert identity() == IDENTITY


def test_generator_windows():
    assert generator(1).window == (0, -1, 1)
    assert generator(2).window == (-1, 1, 0)
    assert generator(3).window == (-2, 0, 2)


def test_window_validation():
    with pytest.raises(ValueError):
        AffinePermutation(1, 0, 1)  # sum nonzero
    with pytest.raises(ValueError):
        AffinePermutation(-3, 0, 3)  # residues collide
    with pytest.raises(ValueError):
        generator(4)


def test_eval_matches_window():
    f = from_word([2, 3, 2])
    assert (f(-1), f(0), f(1)) == f.window


@given(words)
def test_eval_periodicity(word):
    f = from_word(word)
    for n in range(-5, 6):
        assert f(n + 3) == f(n) + 3


@given(words, words)
def test_composition_is_function_composition(w1, w2):
    f, g = from_word(w1), from_word(w2)
    h = f * g
    for n in range(-4, 5):
        assert h(n) == f(g(n))


@given(words)
def test_inverse(word):
    f = from_word(word)
    assert f * f.inverse() == IDENTITY
    assert f.inverse() * f == IDENTITY


def test_inverse_fixture():
    assert from_word([2, 3]).window == (-3, 1, 2)
    assert from_word([2, 3]).inverse().window == (-2, 2, 0)


def test_right_mult_matches_composition():
    for word in ([], [1], [2, 3], [3, 2, 1], [1, 2, 1, 3]):
        f = from_word(word)
        for i in (1, 2, 3):
            assert right_mult_generator(f, i) == f * generator(i)


@given(st.lists(st.sampled_from([1, 2, 3]), max_size=60))
def test_from_word_is_the_product_of_generators(word):
    f = IDENTITY
    for i in word:
        f = f * generator(i)
    assert from_word(word) == f


@pytest.mark.parametrize("bad", [0, 4, "1", None])
def test_from_word_refuses_a_bad_letter_where_it_stands(bad):
    letters = iter([2, 3, bad, 1])
    with pytest.raises(ValueError) as exc:
        from_word(letters)
    assert str(exc.value) == f"generator index must be 1, 2 or 3, got {bad!r}"
    # the letters after the bad one are never read
    assert list(letters) == [1]


def test_involutions():
    for i in (1, 2, 3):
        s = generator(i)
        assert s * s == IDENTITY
        assert s.order() == 2


def test_braid_relations():
    for i, j in ((1, 2), (2, 3), (3, 1)):
        assert from_word([i, j, i]) == from_word([j, i, j])


def test_order_three_rotation():
    assert from_word([2, 3]).order() == 3
    assert from_word([3, 2]).order() == 3


def test_translation_has_infinite_order():
    t1 = from_word([2, 3, 2, 1])
    assert t1.order() is None


def test_reduced_word_fixtures():
    assert parse_window("[-3,2,1]").reduced_word() == (2, 3, 2)
    assert parse_window("[1,-1,0]").reduced_word() == (2, 1)
    assert IDENTITY.reduced_word() == ()


@given(words)
def test_reduced_word_round_trip(word):
    f = from_word(word)
    assert from_word(f.reduced_word()) == f
    assert f.length() == len(f.reduced_word())
    assert f.length() <= len(word)


@given(words)
def test_length_changes_by_one_per_generator(word):
    f = from_word(word)
    for i in (1, 2, 3):
        assert abs((f * generator(i)).length() - f.length()) == 1


@given(words)
def test_parity(word):
    f = from_word(word)
    assert f.is_even() == (f.length() % 2 == 0)


def test_classify():
    assert IDENTITY.classify() is ElementType.IDENTITY
    assert generator(1).classify() is ElementType.REFLECTION
    assert from_word([2, 3, 2]).classify() is ElementType.REFLECTION
    assert from_word([2, 3]).classify() is ElementType.ROTATION
    assert from_word([2, 3, 2, 1]).classify() is ElementType.TRANSLATION
    assert from_word([1, 2, 1, 3, 2]).classify() in (
        ElementType.REFLECTION,
        ElementType.GLIDE_REFLECTION,
    )


def test_glide_reflection_exists():
    # t1 * s2 is odd with infinite order
    g = from_word([2, 3, 2, 1]) * generator(2)
    assert g.classify() is ElementType.GLIDE_REFLECTION


def test_translation_times_own_mirror_is_a_reflection():
    # t1 * s1 collapses to the reflection with word s2 s3 s2
    g = from_word([2, 3, 2, 1]) * generator(1)
    assert g.window == (-3, 2, 1)
    assert g.classify() is ElementType.REFLECTION


# the thirteen windows drawn around the identity, keyed by center coords
FIGURE_WINDOWS = {
    (0, 0, 0): (-1, 0, 1),
    (0, -1, 1): (0, -1, 1),
    (1, 0, -1): (-1, 1, 0),
    (-1, 1, 0): (-2, 0, 2),
    (2, -1, -1): (1, -1, 0),
    (1, 1, -2): (-3, 1, 2),
    (1, -2, 1): (0, 1, -1),
    (-1, 2, -1): (-2, 2, 0),
    (-1, -1, 2): (-2, -1, 3),
    (-2, 1, 1): (0, -2, 2),
    (2, -2, 0): (1, 0, -1),
    (0, 2, -2): (-3, 2, 1),
    (-2, 0, 2): (-1, -2, 3),
}


def test_center_coords_fixtures():
    for coords, window in FIGURE_WINDOWS.items():
        f = AffinePermutation(*window)
        assert tuple(f.center_coords()) == coords


def test_center_coords_sum_zero():
    for f in ball(5):
        c = f.center_coords()
        assert c.c1 + c.c2 + c.c3 == 0


def test_triangle_to_perm_rejects_non_centers():
    with pytest.raises(ValueError):
        triangle_to_perm((1, -1, 0))  # offsets collide at 0
    with pytest.raises(ValueError):
        triangle_to_perm((1, 0, 0))  # does not sum to zero


def test_center_distance_fixtures():
    assert IDENTITY.center_distance() == 0
    assert generator(1).center_distance() == 1
    # the closed form undercounts this reflection: true distance is 3
    f = from_word([2, 3, 2])
    assert f.center_distance() == 2
    assert f.length() == 3
    # and this translation: true distance is 4
    t1 = from_word([2, 3, 2, 1])
    assert t1.center_distance() == 3
    assert t1.length() == 4


def test_ball_layer_counts():
    assert length_layers(5) == [1, 3, 6, 9, 12, 15]
    assert len(ball(6)) == 64


def test_window_parse_format():
    f = parse_window("[-3, 2, 1]")
    assert f.window == (-3, 2, 1)
    assert format_window(f) == "[-3,2,1]"
    assert parse_window("[−3,2,1]") == f  # unicode minus accepted
    with pytest.raises(ValueError):
        parse_window("-3,2,1")
    with pytest.raises(ValueError):
        parse_window("[1,2]")


def test_word_parse_format():
    assert parse_word("s2 s3 s2") == (2, 3, 2)
    assert parse_word("s2.s3.s2") == (2, 3, 2)
    assert parse_word("s2·s3") == (2, 3)
    assert parse_word("e") == ()
    assert format_word((2, 3, 2)) == "s2 s3 s2"
    assert format_word(()) == "e"
    with pytest.raises(ValueError):
        parse_word("s4")
    with pytest.raises(ValueError):
        parse_word("x2")
