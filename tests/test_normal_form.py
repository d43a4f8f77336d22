import random
from math import gcd

import pytest

from cable_order.normal_form import (
    NonEliminable,
    TorusNormalForm,
    eliminate_t,
    equal_in_torus_group,
    normal_form,
)
from cable_order.presentations import LAM, MU, bezout_torus, cable_presentation
from cable_order.words import Word
from helpers import abelianize, random_licensed_move, random_word


class TestNormalForm:
    def test_relator_is_identity(self):
        assert normal_form(Word.parse("a^2 b^-3"), 2, 3) == TorusNormalForm(0, ())

    def test_central_extraction(self):
        assert normal_form(Word.parse("a^3"), 2, 3) == TorusNormalForm(1, (("a", 1),))

    def test_negative_exponent_floor_normalization(self):
        assert normal_form(Word.parse("a^-1"), 2, 3) == TorusNormalForm(-1, (("a", 1),))
        assert normal_form(Word.parse("b^-4"), 2, 3) == TorusNormalForm(-2, (("b", 2),))

    def test_peripheral_power_expansion(self):
        pres = cable_presentation(2, 3, 2)
        w = pres.expand(Word.from_pairs([(MU, 11), (LAM, 2)]))
        assert normal_form(w, 2, 3) == TorusNormalForm(1, (("a", 1), ("b", 1)))

    def test_rejects_t(self):
        with pytest.raises(ValueError):
            normal_form(Word.parse("a t"), 2, 3)

    def test_syllables_stay_in_range(self):
        rng = random.Random(5)
        for _ in range(300):
            x, y = 3, 5
            nf = normal_form(random_word(rng, max_syllables=12, max_exp=9), x, y)
            for idx, (g, e) in enumerate(nf.syllables):
                assert 1 <= e < (x if g == "a" else y)
                if idx:
                    assert nf.syllables[idx - 1][0] != g


class TestEquality:
    def test_relation_itself(self):
        assert equal_in_torus_group(Word.parse("a^2"), Word.parse("b^3"), 2, 3)

    def test_distinct_generators(self):
        assert not equal_in_torus_group(Word.parse("a"), Word.parse("b"), 2, 3)

    def test_identity_equals_relator(self):
        assert equal_in_torus_group(Word.identity(), Word.parse("a^2 b^-3"), 2, 3)


class TestEliminateT:
    def test_t_power_becomes_peripheral_power(self):
        pres = cable_presentation(2, 3, 2)
        expected = pres.expand(Word.from_pairs([(MU, 11), (LAM, 2)]))
        assert eliminate_t(Word.parse("t^2"), pres) == expected

    def test_identity(self):
        pres = cable_presentation(2, 3, 2)
        assert eliminate_t(Word.identity(), pres) == Word.identity()

    def test_noneliminable(self):
        pres = cable_presentation(2, 3, 2)
        with pytest.raises(NonEliminable):
            eliminate_t(Word.parse("t"), pres)

    def test_same_sign_identity_small_grid(self):
        for x, y in [(2, 3), (2, 5), (3, 4), (3, 5)]:
            for p in (2, 3):
                pres = cable_presentation(x, y, p)
                i, j = bezout_torus(x, y)
                lhs = eliminate_t(Word.single("t", p), pres)
                rhs = Word.from_pairs([("a", x * p - i), ("b", -j)])
                assert equal_in_torus_group(lhs, rhs, x, y), (x, y, p)


class TestSoundnessUnderMoves:
    def test_invariant_under_licensed_moves(self):
        rng = random.Random(99)
        for _ in range(300):
            x, y = rng.choice([(2, 3), (3, 5), (4, 7)])
            w = random_word(rng, max_syllables=8, max_exp=6)
            reference = normal_form(w, x, y)
            for _ in range(30):
                w = random_licensed_move(w, x, y, rng)
                assert normal_form(w, x, y) == reference

    def test_abelianization_compatibility(self):
        # words made equal by relation moves differ in exponent sums by an
        # integer multiple of (x, -y)
        rng = random.Random(4)
        for _ in range(300):
            x, y = rng.choice([(2, 3), (3, 4), (5, 6)])
            w1 = random_word(rng)
            w2 = w1
            for _ in range(10):
                w2 = random_licensed_move(w2, x, y, rng)
            assert equal_in_torus_group(w1, w2, x, y)
            a1, a2 = abelianize(w1), abelianize(w2)
            da = a1.get("a", 0) - a2.get("a", 0)
            db = a1.get("b", 0) - a2.get("b", 0)
            assert da % x == 0 and db % y == 0 and da // x == -(db // y)

    def test_unequal_words_stay_unequal(self):
        # sanity against a trivially-complete "oracle"
        assert not equal_in_torus_group(Word.parse("a"), Word.parse("a^3"), 2, 3)
        assert not equal_in_torus_group(Word.parse("a b"), Word.parse("b a"), 2, 3)
        assert not equal_in_torus_group(Word.parse("a b"), Word.parse("b a"), 3, 5)


def test_gcd_guard_on_grids():
    # the torus parameters used throughout the tests are coprime
    for x, y in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 7), (5, 6)]:
        assert gcd(x, y) == 1
