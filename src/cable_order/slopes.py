"""Exact rational slope arithmetic.

Surgery slopes are reduced fractions m/n with n >= 1.  All comparisons use
integer cross-multiplication; determinants for interpolating the sign of a
peripheral product between two known slopes are computed exactly.  No
floating point is used anywhere, since the signs of these determinants feed
directly into certificate soundness.

Part of the trusted core that replay runs.  The genus and the L-space
window check, which only ``verify-identities`` reads, live in
:mod:`normal_form`, outside it.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from math import gcd


# the texts __str__ prints: m/n, integers with no leading zero or plus, no -0, n >= 1
_PRINTED = re.compile(r"(?:0|-?[1-9][0-9]*)/[1-9][0-9]*")


def over_digit_limit(*texts: str) -> str | None:
    """Why ``int`` refused one of `texts` when it is a decimal integer over Python's digit limit, else None."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0, no limit, before Python 3.10.7
    for text in map(str.strip, texts):
        if 0 < limit < len(text) and (text[1:] if text[:1] in ("+", "-") else text).isdecimal():
            return f"an integer longer than Python's {limit:,}-digit limit"
    return None


@dataclass(frozen=True, slots=True, order=False)
class Slope:
    """A reduced surgery slope m/n with n >= 1."""

    m: int
    n: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"slope denominator must be >= 1, got {self.n!s:.40}")
        if gcd(self.m, self.n) != 1:
            raise ValueError(f"slope {self.m!s:.40}/{self.n!s:.40} is not reduced")

    @staticmethod
    def parse(text: str) -> "Slope":
        if not isinstance(text, str):
            raise ValueError(f"slope text must be a string, got {type(text).__name__}")
        parts = text.strip().split("/")
        try:
            numbers = [int(part) for part in parts]
        except ValueError:
            numbers = []
        if not 1 <= len(numbers) <= 2:
            why = over_digit_limit(*parts) or "expected M or M/N with integers M and N"
            raise ValueError(f"bad slope {text!r:.40}: {why}")
        return Slope(*numbers)

    @staticmethod
    def parse_printed(text: str, what: str = "slope") -> "Slope":
        """The slope `text` is, which must be written as that slope prints: one text per slope.

        A reduced m/n in the printed grammar, within Python's digit limit, is
        built at once; any other text is read by :meth:`parse` and printed
        back, and a text that is not the printed one is a ValueError naming
        `what`.
        """
        if type(text) is str and _PRINTED.fullmatch(text):
            m, _, n = text.partition("/")
            try:
                return Slope(int(m), int(n))
            except ValueError:  # not reduced, or over the digit limit
                pass
        slope = Slope.parse(text)
        if str(slope) != text:
            raise ValueError(f"{what} {text!r:.40} is not written as {str(slope)!r:.40}")
        return slope

    def __str__(self) -> str:
        return f"{self.m}/{self.n}"

    # exact cross-multiplied comparisons (denominators are positive); Python
    # answers a > b with b < a, and any other operand type is a TypeError
    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Slope):
            return NotImplemented
        return self.m * other.n < other.m * self.n

    def __le__(self, other: object) -> bool:
        if not isinstance(other, Slope):
            return NotImplemented
        return self.m * other.n <= other.m * self.n


class CramerTriple(namedtuple("CramerTriple", "d0 d1 d s0 s1 s")):
    """Determinant data tying a slope s to two bracketing slopes s0, s1 (a tuple).

    The defining exact identities are
        n0*d0 + n1*d1 == n*d   and   m0*d0 + m1*d1 == m*d,
    so that in any group where M and L commute,
        (M^m0 L^n0)^d0 (M^m1 L^n1)^d1 == (M^m L^n)^d.
    All three determinants are positive exactly when s0 < s < s1.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"d0": self.d0, "d1": self.d1, "d": self.d,
                "slopes": {"s0": str(self.s0), "s1": str(self.s1), "s": str(self.s)}}


def cramer(s0: Slope, s1: Slope, s: Slope) -> CramerTriple:
    """2x2 determinants expressing s as a positive combination of s0, s1."""
    if s0 == s1:
        raise ValueError("bracketing slopes must be distinct")
    m0, n0 = s0.m, s0.n
    m1, n1 = s1.m, s1.n
    m, n = s.m, s.n
    d0 = n * m1 - n1 * m
    d1 = n0 * m - m0 * n
    d = n0 * m1 - m0 * n1
    assert n0 * d0 + n1 * d1 == n * d
    assert m0 * d0 + m1 * d1 == m * d
    return CramerTriple(d0, d1, d, s0, s1, s)


def beta_slope(p: int, q: int, beta: int) -> Slope:
    """The slope (p*q*beta - 1)/beta, whose value is pq - 1/beta."""
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta!s:.40}")
    # gcd(pq*beta - 1, beta) divides 1, so the fraction is already reduced
    return Slope(p * q * beta - 1, beta)
