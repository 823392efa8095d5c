"""Window arithmetic: composition, reduction, length, classification."""

import itertools
import re
from fractions import Fraction

import pytest
from conftest import long_words
from hypothesis import example, given, strategies as st

from tonnetz.core import (
    FINITE_WORDS,
    IDENTITY,
    AffinePermutation,
    ElementType,
    TriangleCoords,
    ball,
    format_window,
    format_word,
    from_word,
    generator,
    parse_window,
    parse_word,
    quote,
    right_mult_generator,
    too_long_to_read,
    translation_factor,
    triangle_to_perm,
)
from tonnetz.lattice import (
    BASE_TRIANGLE,
    geometric_coords,
    triangle_ball,
    triangle_from_coords,
    triangle_of,
)
from tonnetz.subgroups import translation_perm

words = st.lists(st.sampled_from([1, 2, 3]), max_size=8)


def test_identity_window():
    assert IDENTITY.window == (-1, 0, 1)
    assert from_word([]) == IDENTITY


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
# far translations, whose walk takes whole rounds of one path; short words never do
@example([2, 3, 2, 1] * 50)
@example([3, 1, 3, 2] * 50)
@example([2, 3, 2, 1, 3, 1, 3, 2] * 50)
@example([2, 3, 2, 1, 2, 3, 1, 3] * 50)
def test_reduced_word_round_trip(word):
    f = from_word(word)
    assert from_word(f.reduced_word()) == f
    assert f.length() == len(f.reduced_word())
    assert f.length() <= len(word)


def test_reduced_word_strips_the_smallest_descent_first():
    # the canonical word, against a strip that tries s1, s2, s3 by length()
    for f in ball(6):
        letters = []
        g = f
        while g.length():
            i = next(i for i in (1, 2, 3) if (g * generator(i)).length() < g.length())
            letters.append(i)
            g = g * generator(i)
        assert f.reduced_word() == tuple(reversed(letters))


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


def check_window_maps(f):
    """translation_factor, inverse, center_coords and reduced_word of f
    against oracles that form products or evaluate f pointwise."""
    # the explicit read-off: f * sigma^-1 is the translation t1^e1 * t2^e2
    e1, e2, word = translation_factor(f)
    assert word in FINITE_WORDS
    t = f * from_word(word).inverse()
    assert t.window == (3 * e1 - 1, 3 * (e2 - e1), 1 - 3 * e2)
    g = f.inverse()
    assert type(g) is AffinePermutation
    assert all(f(g(n)) == n == g(f(n)) for n in range(-7, 8))
    c = f.center_coords()
    assert type(c) is TriangleCoords
    assert triangle_to_perm(c) == f
    # greedy_walk's word, multiplied out, is f at Shi's length
    word = f.reduced_word()
    assert len(word) == f.length() and from_word(word) == f


def test_window_maps_on_the_ball():
    for f in ball(8):
        check_window_maps(f)


@given(long_words)
def test_window_maps_on_long_words(word):
    check_window_maps(from_word(word))


def refusal(fn, arg):
    """The text of the ValueError that fn(arg) raises."""
    with pytest.raises(ValueError) as exc:
        fn(arg)
    return str(exc.value)


def rotate(window, k):
    """The window moved k slots left: tau^k, the extended affine rotation."""
    for _ in range(k):
        a, b, c = window
        window = (b, c, a + 3)
    for _ in range(-k):
        a, b, c = window
        window = (c - 3, a, b)
    return window


def test_triangle_to_perm_rejects_non_centers():
    assert refusal(triangle_to_perm, (1, -1, 0)) == "(1, -1, 0) is not a triangle center"
    assert refusal(triangle_to_perm, (1, 0, 0)) == "(1, 0, 0) is not a triangle center"
    assert refusal(triangle_to_perm, (1, 1, 1)) == "window (0, 1, 2) does not sum to zero"
    # the centers are the coordinates of the triangles a flip search reaches
    # (those with entries up to n lie within 2n + 1 flips); each inverse takes
    # a center to its triangle, which fixes the window triangle_to_perm gives
    box = range(-9, 10)
    reached = {tuple(geometric_coords(t)): t for t in triangle_ball(BASE_TRIANGLE, 37)}
    windows = {}
    for c, t in reached.items():
        if max(map(abs, c)) <= 18:
            f = triangle_to_perm(c)
            assert triangle_of(f) == t
            windows[c] = f.window
    assert sum(max(map(abs, c)) <= 9 for c in windows) == 181
    for coords in itertools.product(box, repeat=3):
        if coords in windows:
            assert triangle_from_coords(coords) == reached[coords]
            continue
        message = f"{coords} is not a triangle center"
        assert refusal(triangle_from_coords, coords) == message
        # adding (k, k, k) to a center's coordinates rotates its window k
        # slots, so a triple summing to 3k != 0 is refused for its window
        # exactly when the triple less (k, k, k) is a center; every other
        # triple is not a center
        k, rest = divmod(sum(coords), 3)
        base = tuple(x - k for x in coords)
        if not rest and base in windows:
            message = f"window {rotate(windows[base], k)} does not sum to zero"
        assert refusal(triangle_to_perm, coords) == message


# triples equal to (0, -1, 1), a window and a triangle center, each with a value that is
# not an int among its first two, which translation_perm reads as exponents; unchecked,
# a float window passed for an element and a float center gave a triangle off the lattice
NOT_INTEGERS = [(0.0, -1.0, 1.0), (Fraction(0), -1, 1), (0, -1.0, 1)]

# each entry point taking a window, a center or exponents, with its refusal of one
INTEGER_ENTRY_POINTS = {
    "window": (lambda v: AffinePermutation(*v), lambda v: f"window {quote(v)} must be integers"),
    "triangle-to-perm": (triangle_to_perm, lambda v: f"{quote(v)} is not a triangle center"),
    "triangle-from-coords": (triangle_from_coords, lambda v: f"{quote(v)} is not a triangle center"),
    "translation-perm": (lambda v: translation_perm(v[:2]),
                         lambda v: f"translation exponents {quote(v[:2])} must be integers"),
}


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_non_integers_are_refused(entry, value):
    call, message = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message(value))}$"):
        call(value)
    # the ints it equals are answered, and bools too, being ints
    assert call(tuple(map(int, value))) == call((False, -1, True))


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
    # one element of length 0, then 3k of each length k
    assert [sum(1 for f in ball(5) if f.length() == k) for k in range(6)] == [1, 3, 6, 9, 12, 15]
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


def test_quote_shows_a_long_value_by_its_prefix_and_length():
    # a value of 40 characters is its repr, as every refusal of a short input was
    assert quote("C" * 40) == repr("C" * 40) and quote((1, -1, 0)) == "(1, -1, 0)"
    assert quote("C" * 41) == f"'{'C' * 40}'... (41 characters)"
    assert quote((10**40, 0, 0)) == f"'(1{'0' * 38}'... (49 characters)"


def test_an_integer_past_the_digit_limit_is_refused_by_its_length():
    # int() gives one ValueError for "x" and for 5000 digits; the first text it refuses decides
    nines = "9" * 5000
    assert too_long_to_read(["1", f" -{nines} "], "entry") == "entry of 5001 characters is too long to read"
    assert too_long_to_read([f"{nines[:2500]}_{nines[:2500]}"], "entry") is not None
    assert too_long_to_read(["x", nines], "entry") is None
    assert too_long_to_read([nines + "x", "1__0"], "entry") is None


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
