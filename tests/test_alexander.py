"""An exact check of the knot group: its Alexander polynomial, by Fox calculus, against the cabling formula.

The cable C of T(x, y) has Δ_C(T) = Δ_{T(x,y)}(T^p) · Δ_{T(p,q)}(T), the
satellite formula (Lickorish, "An Introduction to Knot Theory", GTM 175),
and deg Δ_C = 2g, since cables of torus knots are fibred.  Here Δ is read
from the presentation itself: the Fox derivatives of its two relators
(R. H. Fox, "Free differential calculus I", Ann. Math. 57, 1953), sent
into Z[T, T^-1] by the abelianization a ↦ T^(py), b ↦ T^(px), t ↦ T^q,
form a 2×3 matrix.  The minor without t's column is Δ_C · (T^q − 1)/(T − 1)
up to ±T^k, so it times (T − 1) must divide exactly by T^q − 1, and the
quotient must be the formula's Δ.

The presentation is read only through ``cable_order``'s public API: its
`relators` and `named` words, written out over a, b and t by `expand`.
Standard library only.  The guard is a cable relator written with
mu^(q+2p), which no point accepts.
"""

from collections import Counter

import pytest

from cable_order.normal_form import genus
from cable_order.presentations import LAM, LAMC, MU, MUC, cable_presentation
from cable_order.words import Word

POINTS = [(2, 3, 2), (2, 3, 3), (2, 5, 2), (3, 4, 2), (3, 5, 3), (2, 7, 5), (4, 5, 2)]


def abelianization(x: int, y: int, p: int) -> dict[str, int]:
    """The exponent of T that each generator maps to."""
    return {"a": p * y, "b": p * x, "t": p * x * y - 1}


def fox_column(word: Word, gen: str, phi: dict[str, int]) -> Counter:
    """∂word/∂gen, abelianized: exponent of T -> coefficient."""
    out: Counter = Counter()
    prefix = 0  # the image of the letters before the syllable
    for g, e in word.syllables:
        if g == gen:
            # ∂(g^e)/∂g is 1 + g + ... + g^(e-1), or −(g^-1 + ... + g^e) for e < 0
            for k in range(e) if e > 0 else range(e, 0):
                out[prefix + k * phi[g]] += 1 if e > 0 else -1
        prefix += e * phi[g]
    return out


def multiply(f: Counter, g: Counter) -> Counter:
    out: Counter = Counter()
    for i, c in f.items():
        for j, d in g.items():
            out[i + j] += c * d
    return out


def normalized(f: Counter) -> tuple[int, ...]:
    """The coefficients of f from its lowest term up, with a positive lowest one: f up to ±T^k."""
    terms = {e: c for e, c in f.items() if c}
    low, high = min(terms), max(terms)
    sign = 1 if terms[low] > 0 else -1
    return tuple(sign * terms.get(e, 0) for e in range(low, high + 1))


def divide_by_power_minus_one(coeffs: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """coeffs / (T^n − 1) as coefficients, or None when the division leaves a remainder."""
    rest = list(coeffs)
    quotient = [0] * max(len(rest) - n, 0)
    for k in range(len(rest) - 1, n - 1, -1):  # T^k = T^(k-n) (T^n − 1) + T^(k-n)
        quotient[k - n] = rest[k]
        rest[k - n] += rest[k]
        rest[k] = 0
    return None if any(rest) else tuple(quotient)


def torus_alexander(x: int, y: int) -> tuple[int, ...]:
    """Δ_{T(x,y)}(T) = (T^xy − 1)(T − 1) / ((T^x − 1)(T^y − 1))."""
    top = normalized(multiply(Counter({x * y: 1, 0: -1}), Counter({1: 1, 0: -1})))
    once = divide_by_power_minus_one(top, x)
    assert once is not None
    out = divide_by_power_minus_one(once, y)
    assert out is not None
    return out


def substituted(coeffs: tuple[int, ...], p: int) -> Counter:
    """f(T^p)."""
    return Counter({k * p: c for k, c in enumerate(coeffs)})


def cabling_formula(x: int, y: int, p: int) -> tuple[int, ...]:
    """Δ_{T(x,y)}(T^p) · Δ_{T(p,q)}(T), with q = pxy − 1."""
    q = p * x * y - 1
    return normalized(multiply(substituted(torus_alexander(x, y), p), substituted(torus_alexander(p, q), 1)))


def alexander_from_relators(relators: list[Word], x: int, y: int, p: int) -> tuple[int, ...] | None:
    """Δ read from two relators over a, b and t, or None when (T^q − 1) does not divide the minor exactly."""
    phi = abelianization(x, y, p)
    (r1a, r1b), (r2a, r2b) = ([fox_column(r, g, phi) for g in ("a", "b")] for r in relators)
    minor = multiply(r1a, r2b)
    minor.subtract(multiply(r1b, r2a))
    if not any(minor.values()):
        return None
    quotient = divide_by_power_minus_one(normalized(multiply(minor, Counter({1: 1, 0: -1}))), phi["t"])
    return None if quotient is None else normalized(Counter(dict(enumerate(quotient))))


@pytest.mark.parametrize("x,y,p", POINTS, ids=lambda v: str(v))
def test_the_abelianization_sends_the_cable_meridian_to_the_generator(x, y, p):
    pres = cable_presentation(x, y, p)
    phi = abelianization(x, y, p)
    images = {name: sum(e * phi[g] for g, e in pres.expand(Word.single(name)).syllables) for name in pres.named}
    assert images == {MU: p, LAM: 0, MUC: 1, LAMC: 0}
    for relator in pres.relators.values():
        assert sum(e * phi[g] for g, e in pres.expand(relator).syllables) == 0


@pytest.mark.parametrize("x,y,p", POINTS, ids=lambda v: str(v))
def test_the_presentation_has_the_cable_alexander_polynomial(x, y, p):
    pres = cable_presentation(x, y, p)
    delta = alexander_from_relators([pres.expand(r) for r in pres.relators.values()], x, y, p)
    assert delta == cabling_formula(x, y, p)
    assert len(delta) - 1 == 2 * genus(x, y, p, pres.q)


@pytest.mark.parametrize("x,y,p", POINTS, ids=lambda v: str(v))
def test_a_cable_relator_with_a_wrong_meridian_power_fails(x, y, p):
    pres = cable_presentation(x, y, p)
    wrong = pres.expand(Word(((MU, pres.q + 2 * p), (LAM, p), ("t", -p))))
    relators = [pres.expand(pres.relators["central"]), wrong]
    assert alexander_from_relators(relators, x, y, p) is None  # T^q − 1 does not divide the minor
