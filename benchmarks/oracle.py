"""Reference arithmetic the benchmark checks answers against.

Nothing here imports tonnetz.  Windows are composed by evaluating the
affine maps they denote, triangles are vertex triples flipped by
parallelogram completion, and the flip distance between triangles is the
strip-index closed form: the number of lattice lines of each of the
three directions that separate them.
"""

from __future__ import annotations

import random

IDENTITY_WINDOW = (-1, 0, 1)
GENERATOR_WINDOWS = {1: (0, -1, 1), 2: (-1, 1, 0), 3: (-2, 0, 2)}

# Right multiplication by s_i flips a triangle across the edge opposite
# its vertex of class CLASS_OF_GENERATOR[i]; the group preserves vertex
# classes, so this holds for every triangle, not just the base one.
CLASS_OF_GENERATOR = {1: 2, 2: 1, 3: 0}

# the base triangle's vertices indexed by class (p - q) mod 3
BASE_VERTICES = ((0, 0), (1, 0), (0, 1))


# --- windows ------------------------------------------------------------------


def evaluate(window, n: int) -> int:
    r = (n + 1) % 3 - 1
    return window[r + 1] + n - r


def compose(f, g) -> tuple[int, int, int]:
    """The window of f * g, with g applied first."""
    return tuple(evaluate(f, evaluate(g, p)) for p in (-1, 0, 1))


def inverse(f) -> tuple[int, int, int]:
    out = [0, 0, 0]
    for p, v in zip((-1, 0, 1), f):
        r = (v + 1) % 3 - 1
        out[r + 1] = p + r - v
    return tuple(out)


def from_word(word) -> tuple[int, int, int]:
    f = IDENTITY_WINDOW
    for i in word:
        f = compose(f, GENERATOR_WINDOWS[i])
    return f


def finite_order(f) -> int | None:
    """Order of f when it is 1, 2 or 3; None otherwise."""
    g = f
    for k in (1, 2, 3):
        if g == IDENTITY_WINDOW:
            return k
        g = compose(g, f)
    return None


def classify(f, length: int) -> str:
    """Isometry type, from the finite order and the parity of the length."""
    order = finite_order(f)
    if order == 1:
        return "identity"
    if order == 2:
        return "reflection"
    if order == 3:
        return "rotation"
    return "translation" if length % 2 == 0 else "glide-reflection"


T1_WINDOW = from_word((2, 3, 2, 1))
T2_WINDOW = from_word((3, 1, 3, 2))


def translation_window(e1: int, e2: int) -> tuple[int, int, int]:
    """t1^e1 * t2^e2: translations fix residues, so their shifts add."""
    return tuple(
        i + e1 * (a - i) + e2 * (b - i)
        for i, a, b in zip(IDENTITY_WINDOW, T1_WINDOW, T2_WINDOW)
    )


# --- triangles ----------------------------------------------------------------


def vertex_class(v) -> int:
    return (v[0] - v[1]) % 3


def by_class(vertices) -> tuple:
    out = [None, None, None]
    for v in vertices:
        out[vertex_class(v)] = v
    return tuple(out)


def flip_class(tri, c: int) -> tuple:
    """Flip a class-indexed triangle across the edge opposite its class-c vertex."""
    a, b = (tri[k] for k in range(3) if k != c)
    v = tri[c]
    out = list(tri)
    out[c] = (a[0] + b[0] - v[0], a[1] + b[1] - v[1])
    return tuple(out)


def vertices_of(root, up: bool) -> tuple:
    p, q = root
    if up:
        return ((p, q), (p + 1, q), (p, q + 1))
    return ((p, q), (p + 1, q), (p + 1, q - 1))


def root_of(vertices) -> tuple[tuple[int, int], bool]:
    """(root, up) of a unit triangle given by its vertices."""
    pmin = min(v[0] for v in vertices)
    qmin = min(v[1] for v in vertices)
    if (pmin, qmin) in vertices:
        return (pmin, qmin), True
    return (pmin, qmin + 1), False


def strip_index(vertices) -> tuple[int, int, int]:
    return (
        min(v[0] for v in vertices),
        min(v[1] for v in vertices),
        min(v[0] + v[1] for v in vertices),
    )


def strip_distance(u, v) -> int:
    """Flip distance between two triangles given by their vertices."""
    return sum(abs(x - y) for x, y in zip(strip_index(u), strip_index(v)))


def center_coords(vertices) -> tuple[int, int, int]:
    """Axis coordinates of a triangle's center, from its vertex sum."""
    dp = sum(v[0] for v in vertices) - 1
    dq = sum(v[1] for v in vertices) - 1
    return (-(2 * dp + dq) // 3, (dp + 2 * dq) // 3, (dp - dq) // 3)


# each PLR move flips across the edge along one of these lattice directions
_PLR_DIRECTIONS = {"P": (1, 0), "L": (1, -1), "R": (0, 1)}


def plr_move(vertices, letter: str) -> tuple:
    dx, dy = _PLR_DIRECTIONS[letter]
    for k in range(3):
        a, b = (vertices[j] for j in range(3) if j != k)
        if (b[0] - a[0], b[1] - a[1]) in ((dx, dy), (-dx, -dy)):
            v = vertices[k]
            out = list(vertices)
            out[k] = (a[0] + b[0] - v[0], a[1] + b[1] - v[1])
            return tuple(out)
    raise ValueError(f"{vertices} is not a unit triangle")


def apply_plr(vertices, word: str) -> tuple:
    """Apply a PLR word, rightmost letter first."""
    for letter in reversed(word):
        vertices = plr_move(vertices, letter)
    return vertices


def same_triangle(u, v) -> bool:
    return set(u) == set(v)


def edge_neighbors(u, v) -> bool:
    return len(set(u) & set(v)) == 2


# --- seeded generators --------------------------------------------------------


def ascent_walk(start, length: int, rng: random.Random):
    """A random reduced word of exactly `length` letters from a triangle.

    Each step takes a flip that moves the triangle one strip further from
    `start`; that is, a generator outside the current right descent set.
    Returns (word, class-indexed end triangle).
    """
    tri = start
    word = []
    for d in range(length):
        ups = []
        for i in (1, 2, 3):
            nxt = flip_class(tri, CLASS_OF_GENERATOR[i])
            if strip_distance(start, nxt) == d + 1:
                ups.append((i, nxt))
        i, tri = rng.choice(ups)
        word.append(i)
    return word, tri


def right_descents(f) -> list[int]:
    """Generators s_i with length(f * s_i) < length(f), by the window descent rule."""
    a, b, c = f
    return [i for i, down in ((1, a > b), (2, b > c), (3, c > a + 3)) if down]


def _ascend(f, steps: int, rng: random.Random, word: list[int]):
    for _ in range(steps):
        down = right_descents(f)
        i = rng.choice([i for i in (1, 2, 3) if i not in down])
        f = compose(f, GENERATOR_WINDOWS[i])
        word.append(i)
    return f


# The six cosets of the translation subgroup, by their finite factor.
# Translations fix every residue mod 3, so a window's residues name its coset.
FINITE_WORDS = ((), (2,), (3,), (2, 3), (3, 2), (2, 3, 2))
COSET_RESIDUES = tuple(tuple(v % 3 for v in from_word(w)) for w in FINITE_WORDS)


def element_of_length(length: int, rng: random.Random, coset: int | None = None):
    """(window, word, class-indexed triangle) of a random element of exact length.

    An ascent walk on windows: each step appends a generator outside the
    right descent set, so the word stays reduced.  With `coset` (an index
    into FINITE_WORDS), the last few steps are redrawn until the element
    lies in that coset.
    """
    head: list[int] = []
    f0 = _ascend(IDENTITY_WINDOW, max(0, length - 6), rng, head)
    for _ in range(10000):
        word = list(head)
        f = _ascend(f0, length - len(head), rng, word)
        if coset is None or tuple(v % 3 for v in f) == COSET_RESIDUES[coset]:
            break
    else:
        raise RuntimeError(f"no element of length {length} found in coset {coset}")
    tri = BASE_VERTICES
    for i in word:
        tri = flip_class(tri, CLASS_OF_GENERATOR[i])
    return f, word, tri


# --- chord spelling -----------------------------------------------------------

LETTERS = "FCGDAEB"


def spell(fifth_index: int) -> str:
    """Letter and accidentals of a position on the line of fifths."""
    acc = (fifth_index + 1) // 7
    marks = "x" * (acc // 2) + "#" * (acc % 2) if acc >= 0 else "b" * -acc
    return LETTERS[(fifth_index + 1) % 7] + marks


def fifth_index_of(vertex) -> int:
    return vertex[0] + 4 * vertex[1]
