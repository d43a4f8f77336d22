"""Exact rational slope arithmetic.

Surgery slopes are reduced fractions m/n with n >= 1.  All comparisons use
integer cross-multiplication; determinants for interpolating the sign of a
peripheral product between two known slopes are computed exactly.  No
floating point is used anywhere, since the signs of these determinants feed
directly into certificate soundness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


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
        if len(parts) == 1:
            return Slope(int(parts[0]), 1)
        if len(parts) == 2:
            return Slope(int(parts[0]), int(parts[1]))
        raise ValueError(f"bad slope {text!r:.40}")

    def __str__(self) -> str:
        return f"{self.m}/{self.n}"

    # exact cross-multiplied comparisons (denominators are positive)
    def __lt__(self, other: "Slope") -> bool:
        return self.m * other.n < other.m * self.n

    def __le__(self, other: "Slope") -> bool:
        return self.m * other.n <= other.m * self.n

    def __gt__(self, other: "Slope") -> bool:
        return other < self

    def __ge__(self, other: "Slope") -> bool:
        return other <= self


@dataclass(frozen=True, slots=True)
class CramerTriple:
    """Determinant data tying a slope s to two bracketing slopes s0, s1.

    The defining exact identities are
        n0*d0 + n1*d1 == n*d   and   m0*d0 + m1*d1 == m*d,
    so that in any group where M and L commute,
        (M^m0 L^n0)^d0 (M^m1 L^n1)^d1 == (M^m L^n)^d.
    All three determinants are positive exactly when s0 < s < s1.
    """

    d0: int
    d1: int
    d: int
    s0: Slope
    s1: Slope
    s: Slope

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
        raise ValueError(f"beta must be >= 1, got {beta}")
    # gcd(pq*beta - 1, beta) divides 1, so the fraction is already reduced
    return Slope(p * q * beta - 1, beta)


def genus(x: int, y: int, p: int, q: int) -> Fraction:
    """Genus of the (p,q)-cable of the (x,y)-torus knot, as an exact rational."""
    return Fraction((p - 1) * (q - 1) + p * (x - 1) * (y - 1), 2)


@dataclass(frozen=True, slots=True)
class WindowReport:
    x: int
    y: int
    p: int
    q: int
    two_g_minus_1: int
    window_low_gap: int  # p*(x+y) - 2, the distance from pq-1 down to 2g-1
    ok: bool


def lspace_window_check(x: int, y: int, p: int) -> WindowReport:
    """Check that [pq-1, pq] sits above the 2g-1 threshold when q = p*x*y - 1.

    Verifies the exact identity 2g - 1 == (pq - 1) - [p(x+y) - 2] together
    with p(x+y) - 2 > 0.
    """
    q = p * x * y - 1
    g2 = 2 * genus(x, y, p, q)
    gap = p * (x + y) - 2
    ok = g2.denominator == 1 and int(g2) - 1 == (p * q - 1) - gap and gap > 0
    return WindowReport(x, y, p, q, int(g2) - 1, gap, ok)
