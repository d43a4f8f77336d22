import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from cable_order.normal_form import genus, lspace_window_check
from cable_order.slopes import Slope, beta_slope, cramer
from cable_order.words import Word, concat, power
from helpers import abelianize


def random_slope(rng, max_num=100, max_den=9) -> Slope:
    while True:
        m = rng.randint(-max_num, max_num)
        n = rng.randint(1, max_den)
        if gcd(m, n) == 1:
            return Slope(m, n)


class TestSlope:
    def test_parse_and_print(self):
        assert Slope.parse("43/2") == Slope(43, 2)
        assert Slope.parse("21") == Slope(21, 1)
        assert str(Slope(43, 2)) == "43/2"

    def test_invariants(self):
        with pytest.raises(ValueError):
            Slope(2, 0)
        with pytest.raises(ValueError):
            Slope(2, -1)
        with pytest.raises(ValueError):
            Slope(4, 2)

    def test_exact_comparison(self):
        assert Slope(21, 1) < Slope(43, 2) < Slope(22, 1)
        assert Slope(2166666663, 10**8) < Slope(65, 3) < Slope(2166666667, 10**8)

    @given(st.integers(-50, 50), st.integers(1, 9), st.integers(-50, 50), st.integers(1, 9))
    def test_every_order_operator_agrees_with_fractions(self, m1, n1, m2, n2):
        f, g = Fraction(m1, n1), Fraction(m2, n2)
        s, t = Slope(f.numerator, f.denominator), Slope(g.numerator, g.denominator)
        assert (s < t, s <= t, s > t, s >= t) == (f < g, f <= g, f > g, f >= g)

    @pytest.mark.parametrize("other", [5, 5.0, Fraction(5), "5", None], ids=repr)
    @pytest.mark.parametrize(
        "compare", [operator.lt, operator.le, operator.gt, operator.ge], ids=lambda f: f.__name__
    )
    def test_ordering_against_a_non_slope_is_a_type_error(self, compare, other):
        for left, right in ((Slope(1), other), (other, Slope(1))):  # both directions
            with pytest.raises(TypeError):
                compare(left, right)


class TestCramer:
    def test_interior_example(self):
        t = cramer(Slope(21, 1), Slope(22, 1), Slope(43, 2))
        assert (t.d0, t.d1, t.d) == (1, 1, 1)
        assert 1 * 1 + 1 * 1 == 2 * 1
        assert 21 * 1 + 22 * 1 == 43 * 1

    def test_boundary_determinant_vanishes(self):
        t = cramer(Slope(21, 1), Slope(22, 1), Slope(21, 1))
        assert t.d1 == 0

    def test_rejects_equal_brackets(self):
        with pytest.raises(ValueError):
            cramer(Slope(21, 1), Slope(21, 1), Slope(22, 1))

    def test_peripheral_product_exponents_match(self):
        # (M^m0 L^n0)^d0 (M^m1 L^n1)^d1 and (M^m L^n)^d have equal exponent
        # vectors; checked on words over commuting formal letters M, L
        rng = random.Random(7)
        checked = 0
        while checked < 1000:
            s0, s1, s = random_slope(rng), random_slope(rng), random_slope(rng)
            if s0 == s1:
                continue
            t = cramer(s0, s1, s)
            lhs = concat(
                power(Word.from_pairs([("M", s0.m), ("L", s0.n)]), t.d0),
                power(Word.from_pairs([("M", s1.m), ("L", s1.n)]), t.d1),
            )
            rhs = power(Word.from_pairs([("M", s.m), ("L", s.n)]), t.d)
            assert abelianize(lhs) == abelianize(rhs)
            checked += 1

    def test_positivity_iff_strictly_between(self):
        rng = random.Random(11)
        seen_inside = seen_low = seen_high = 0
        while min(seen_inside, seen_low, seen_high) < 200:
            s0, s1, s = sorted(random_slope(rng) for _ in range(3)), None, None
            s0, mid, s1 = s0
            if s0 == mid or mid == s1:
                continue
            t = cramer(s0, s1, mid)
            assert t.d0 > 0 and t.d1 > 0 and t.d > 0
            seen_inside += 1
            # s below the bracket: d1 goes nonpositive
            low = cramer(mid, s1, s0)
            assert low.d1 <= 0
            seen_low += 1
            # s above the bracket: d0 goes nonpositive
            high = cramer(s0, mid, s1)
            assert high.d0 <= 0
            seen_high += 1


class TestBetaSlope:
    def test_examples(self):
        assert beta_slope(2, 11, 1) == Slope(21, 1)
        assert beta_slope(2, 11, 3) == Slope(65, 3)
        s = beta_slope(2, 11, 3)
        assert Fraction(s.m, s.n) == 22 - Fraction(1, 3)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            beta_slope(2, 11, 0)

    def test_always_reduced(self):
        rng = random.Random(3)
        for _ in range(10_000):
            p, q, beta = rng.randint(2, 50), rng.randint(3, 400), rng.randint(1, 60)
            assert gcd(p * q * beta - 1, beta) == 1

    def test_monotone_in_window(self):
        p, q = 3, 17
        window_low, window_high = Slope(p * q - 1, 1), Slope(p * q, 1)
        prev = None
        for beta in range(1, 30):
            s = beta_slope(p, q, beta)
            assert window_low <= s < window_high
            if prev is not None:
                assert prev < s
            prev = s


class TestGenusAndWindow:
    def test_genus_examples(self):
        assert genus(2, 3, 2, 11) == 7
        assert genus(2, 3, 3, 17) == 19
        assert 2 * genus(2, 3, 2, 11) - 1 == 13

    def test_genus_needs_coprime_pairs(self):
        # 2g = (p - 1)(q - 1) + p(x - 1)(y - 1) is odd at (2, 3, 2, 10): no knot has that genus
        with pytest.raises(ValueError, match=r"coprime pairs, got \(x, y\) = \(2, 3\) and \(p, q\) = \(2, 10\)"):
            genus(2, 3, 2, 10)
        with pytest.raises(ValueError, match="coprime pairs"):
            genus(2, 4, 3, 23)

    def test_window_examples(self):
        rep = lspace_window_check(2, 3, 2)
        assert rep.ok and rep.two_g_minus_1 == 13 and rep.window_low_gap == 8
        rep = lspace_window_check(3, 5, 2)
        assert rep.ok and rep.two_g_minus_1 == 43

    def test_window_grid(self):
        for x in range(2, 10):
            for y in range(x + 1, 10):
                if gcd(x, y) != 1:
                    continue
                for p in range(2, 7):
                    rep = lspace_window_check(x, y, p)
                    assert rep.ok, (x, y, p)
                    assert 2 * genus(x, y, p, rep.q) == rep.two_g_minus_1 + 1

    @given(st.integers(2, 9), st.integers(2, 9), st.integers(2, 8))
    def test_genus_integral(self, x, y, p):
        if gcd(x, y) != 1:
            return
        q = p * x * y - 1
        assert type(genus(x, y, p, q)) is int
