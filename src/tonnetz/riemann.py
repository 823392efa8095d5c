"""Schritt-Wechsel group and the point-reflection group with its quotients.

The Schritt-Wechsel group R is a semidirect product of the rank-2 Schritt
lattice (generated by the Quintschritt Q and the Terzschritt Z) with the
order-2 group generated by the Seitenwechsel W; a Wechsel conjugates every
Schritt to its inverse, so the product of two Wechsel (t'w)(tw) is the
Schritt t' - t.  Every Wechsel is an involution, so R has no element of
order 3; this distinguishes R from the triangle group.

The point-reflection group P is generated by the three half-turns pi1,
pi2, pi3 about the edge midpoints of the base triangle.  Its normal form
is (pi3 pi1)^a (pi1 pi2)^b pi1^flip.  Mapping pi3 pi2 -> Q, pi3 pi1 -> Z,
pi1 -> W reverses products: P and R are anti-isomorphic.  The comma
subgroup K is generated by (pi3 pi1)^3 and (pi1 pi2)^4; the quotient P/K
has 24 elements and is dihedral of order 24.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .core import _make_element as _make, quote, too_long_to_read
from .lattice import Isometry


class RElement(NamedTuple):
    """A Schritt (wechsel False) or Wechsel, with Q and Z exponents."""

    wechsel: bool
    quint: int
    terz: int


class PElement(NamedTuple):
    """Normal form (pi3 pi1)^a (pi1 pi2)^b pi1^flip."""

    a: int
    b: int
    flip: bool


class _D12Fields(NamedTuple):
    a: int
    b: int
    flip: bool


class D12Coset(_D12Fields):
    """An element of the quotient P/K: (a mod 3, b mod 4, flip)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, flip: bool) -> D12Coset:
        if not (0 <= a < 3 and 0 <= b < 4):
            raise ValueError(f"coset exponents out of range: {(a, b)}")
        return tuple.__new__(cls, (a, b, flip))


R_IDENTITY = RElement(False, 0, 0)
QUINTSCHRITT = RElement(False, 1, 0)
TERZSCHRITT = RElement(False, 0, 1)
SEITENWECHSEL = RElement(True, 0, 0)

P_IDENTITY = PElement(0, 0, False)


def r_compose(x: RElement, y: RElement) -> RElement:
    """Product xy; a leading Wechsel inverts the following Schritt part."""
    wechsel, quint, terz = x
    y_wechsel, y_quint, y_terz = y
    if wechsel:
        return _make(RElement, (wechsel ^ y_wechsel, quint - y_quint, terz - y_terz))
    return _make(RElement, (wechsel ^ y_wechsel, quint + y_quint, terz + y_terz))


def r_inverse(x: RElement) -> RElement:
    wechsel, quint, terz = x
    if wechsel:
        return x
    return _make(RElement, (False, -quint, -terz))


def r_order(x: RElement) -> int | None:
    if x == R_IDENTITY:
        return 1
    if x.wechsel:
        return 2
    return None


_P_GENERATORS = {
    1: PElement(0, 0, True),
    2: PElement(0, -1, True),
    3: PElement(1, 0, True),
}


def p_generator(i: int) -> PElement:
    """The half-turn about the midpoint of edge i of the base triangle."""
    try:
        return _P_GENERATORS[i]
    except KeyError:
        raise ValueError(f"point reflection index must be 1, 2 or 3, got {i!r}") from None


def p_compose(x: PElement, y: PElement) -> PElement:
    """Product xy in normal form; a flip inverts the translation part."""
    a, b, flip = x
    y_a, y_b, y_flip = y
    if flip:
        return _make(PElement, (a - y_a, b - y_b, flip ^ y_flip))
    return _make(PElement, (a + y_a, b + y_b, flip ^ y_flip))


def p_inverse(x: PElement) -> PElement:
    a, b, flip = x
    if flip:
        return x
    return _make(PElement, (-a, -b, False))


def p_isometry(x: PElement) -> Isometry:
    """The lattice isometry of x: a translation, or a point reflection."""
    if x.flip:
        return Isometry((-1, 0, 0, -1), (1 + x.b, x.a - x.b))
    return Isometry((1, 0, 0, 1), (x.b, x.a - x.b))


def p_to_r(x: PElement) -> RElement:
    """The anti-isomorphism P -> R: pi3 pi2 -> Q, pi3 pi1 -> Z, pi1 -> W.

    Reverses products: p_to_r(xy) = p_to_r(y) p_to_r(x).
    """
    if x.flip:
        return RElement(True, -x.b, x.b - x.a)
    return RElement(False, x.b, x.a - x.b)


def in_comma_subgroup(x: PElement) -> bool:
    """Membership in K, the group generated by (pi3 pi1)^3 and (pi1 pi2)^4."""
    return not x.flip and x.a % 3 == 0 and x.b % 4 == 0


def project_d12(x: PElement) -> D12Coset:
    """Image of x in the 24-element quotient P/K."""
    return D12Coset(x.a % 3, x.b % 4, x.flip)


def d12_compose(x: D12Coset, y: D12Coset) -> D12Coset:
    """Product of cosets: P's product of their representatives, projected."""
    return project_d12(p_compose(x, y))


def d12_inverse(x: D12Coset) -> D12Coset:
    return project_d12(p_inverse(x))


def d12_order(x: D12Coset) -> int:
    """2 for a flip; otherwise the lcm of the orders of a mod 3 and b mod 4.

    >>> d12_order(D12Coset(1, 2, False)), d12_order(D12Coset(2, 0, True))
    (6, 2)
    """
    if x.flip:
        return 2
    return lcm(3 // gcd(x.a, 3), 4 // gcd(x.b, 4))


# the rotation of order 12 and the reflection generating the dihedral quotient
D12_ROTATION = p_compose(p_inverse(PElement(0, 1, False)), PElement(1, 0, False))
D12_REFLECTION = p_generator(1)

NAMED_COMMAS = {
    # three major thirds against the octave
    "lesser-diesis": PElement(3, 0, False),
    # four minor thirds against the octave
    "greater-diesis": PElement(0, 4, False),
    # four fifths against a major third and two octaves
    "syntonic": PElement(3, 4, False),
    # twelve fifths against seven octaves
    "pythagorean": PElement(12, 12, False),
}


def format_r(x: RElement) -> str:
    s = f"Q^{x.quint} Z^{x.terz}"
    if x.wechsel:
        s += " W"
    return s


def parse_r(text: str) -> RElement:
    """Parse "Q^u Z^v" with an optional trailing "W"."""
    tokens = text.replace("−", "-").split()
    if not tokens:
        raise ValueError("empty Schritt-Wechsel element")
    wechsel = False
    if tokens[-1] == "W":
        wechsel = True
        tokens = tokens[:-1]
    quint = terz = 0
    seen = set()
    for tok in tokens:
        if len(tok) < 3 or tok[0] not in "QZ" or tok[1] != "^":
            raise ValueError(f"bad Schritt token {quote(tok)} in {quote(text)}")
        try:
            value = int(tok[2:])
        except ValueError:
            why = too_long_to_read([tok[2:]], "exponent") or "bad exponent"
            raise ValueError(f"{why} in token {quote(tok)}") from None
        if tok[0] in seen:
            raise ValueError(f"duplicate {tok[0]} token in {quote(text)}")
        seen.add(tok[0])
        if tok[0] == "Q":
            quint = value
        else:
            terz = value
    return RElement(wechsel, quint, terz)


def format_p(x: PElement) -> str:
    return "(%d,%d,%d)" % (x.a, x.b, 1 if x.flip else 0)


def parse_p(text: str) -> PElement:
    """Parse "(a,b,flip)" with flip given as 0 or 1."""
    s = text.strip().replace("−", "-")
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"point-reflection element must look like (a,b,flip), got {quote(text)}")
    parts = [p.strip() for p in s[1:-1].split(",")]
    if len(parts) != 3:
        raise ValueError(f"need (a,b,flip), got {quote(text)}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        why = too_long_to_read(parts[:2], "exponent") or "exponents must be integers"
        raise ValueError(f"{why} in {quote(text)}") from None
    if parts[2] not in ("0", "1"):
        raise ValueError(f"flip must be 0 or 1 in {quote(text)}")
    return PElement(a, b, parts[2] == "1")
