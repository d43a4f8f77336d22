import json
import pickle
from math import gcd

import pytest

from cable_order.presentations import (
    LAM,
    LAMC,
    MU,
    MUC,
    ParameterError,
    bezout_cable,
    bezout_torus,
    cable_presentation,
    peripheral_invariance_check,
    surgery_relator,
    torus_presentation,
)
from cable_order.slopes import Slope
from cable_order.words import Word, abelianize, concat, invert, power


class TestBezoutTorus:
    def test_examples(self):
        assert bezout_torus(2, 3) == (1, -1)
        assert bezout_torus(3, 5) == (2, -3)
        i, j = bezout_torus(2, 3)
        assert 2 * j + 3 * i == 1

    def test_matches_exhaustive_search(self):
        for x in range(2, 51):
            for y in range(x + 1, 51):
                if gcd(x, y) != 1:
                    continue
                i, j = bezout_torus(x, y)
                brute = [c for c in range(1, x) if (y * c) % x == 1]
                assert brute == [i]
                assert x * j + y * i == 1 and j < 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            bezout_torus(2, 4)
        with pytest.raises(ParameterError):
            bezout_torus(1, 3)


class TestBezoutCable:
    def test_hint_branch(self):
        assert bezout_cable(2, 11, xy_hint=6) == (6, 1)
        assert 2 * 6 - 11 * 1 == 1
        assert bezout_cable(3, 17, xy_hint=6) == (6, 1)

    def test_general_branch(self):
        assert bezout_cable(2, 3) == (2, 1)
        for p in range(2, 12):
            for q in range(2, 40):
                if gcd(p, q) != 1:
                    continue
                u, v = bezout_cable(p, q)
                assert p * u - q * v == 1 and 0 < v <= p

    def test_rejects_noncoprime(self):
        with pytest.raises(ParameterError):
            bezout_cable(4, 6)


class TestTorusPresentation:
    def test_meridian_and_longitude(self):
        pres = torus_presentation(2, 3)
        assert pres.named[MU].expansion == Word.parse("b^-1 a")
        assert pres.named[LAM].expansion == power(Word.parse("a^-1 b"), 6) * Word.parse("a^2")
        assert abelianize(pres.named[LAM].expansion) == {"a": -4, "b": 6}

    def test_longitude_abelianization_identity(self):
        for x, y in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 7), (5, 6)]:
            pres = torus_presentation(x, y)
            ab_mu = abelianize(pres.named[MU].expansion)
            ab_lam = abelianize(pres.named[LAM].expansion)
            for g in ("a", "b"):
                expected = -x * y * ab_mu.get(g, 0) + (x if g == "a" else 0)
                assert ab_lam.get(g, 0) == expected

    def test_whitelist(self):
        pres = torus_presentation(2, 3)
        assert pres.commutes(("a", 4), ("b", -1))
        assert pres.commutes(("a", 1), ("b", 3))
        assert pres.commutes((MU, 5), (LAM, -2))
        assert not pres.commutes(("a", 1), ("b", 1))
        assert not pres.commutes(("a", 3), ("b", 2))


class TestCablePresentation:
    def test_defaults_and_expansions(self):
        pres = cable_presentation(2, 3, 2)
        assert pres.q == 11
        assert pres.cable_bezout == (6, 1)
        # muC = mu^6 lam t^-1 reduces to a^2 t^-1
        assert pres.named[MUC].expansion == Word.parse("a^2 t^-1")
        mu_w, lam_w = pres.named[MU].expansion, pres.named[LAM].expansion
        assert pres.named[MUC].expansion == concat(
            power(mu_w, 6), lam_w, Word.single("t", -1)
        )
        assert pres.named[LAMC].expansion == concat(
            power(invert(Word.parse("a^2 t^-1")), 22), Word.single("t", 2)
        )

    def test_relator_abelianization(self):
        pres = cable_presentation(2, 3, 2)
        rel = pres.relator("cable")
        ab = abelianize(rel.word)
        ab_mu = abelianize(pres.named[MU].expansion)
        ab_lam = abelianize(pres.named[LAM].expansion)
        for g in ("a", "b", "t"):
            expected = 11 * ab_mu.get(g, 0) + 2 * ab_lam.get(g, 0) - (2 if g == "t" else 0)
            assert ab.get(g, 0) == expected

    def test_theorem_mode_rejects_wrong_q(self):
        with pytest.raises(ParameterError):
            cable_presentation(2, 3, 2, 10)

    def test_general_mode(self):
        pres = cable_presentation(2, 3, 2, 9, theorem_mode=False)
        assert pres.q == 9 and not pres.theorem_mode
        u, v = pres.cable_bezout
        assert 2 * u - 9 * v == 1 and 0 < v <= 2

    def test_rejects_p_one(self):
        with pytest.raises(ParameterError):
            cable_presentation(2, 3, 1)

    def test_whitelist_power_rule(self):
        pres = cable_presentation(2, 3, 2)
        assert pres.commutes((MU, 3), ("t", 4))
        assert not pres.commutes((MU, 3), ("t", 3))  # only multiples of p
        assert pres.commutes((LAM, -1), ("t", -2))
        assert pres.commutes((MUC, 21), (LAMC, 1))
        assert pres.commutes((LAMC, 2), ("t", 2))


    def test_licence_index_matches_a_whitelist_scan(self):
        def scanned(pres, s1, s2):
            def matches(syl, base):
                if len(base.syllables) != 1:
                    return False
                g, k = base.syllables[0]
                return syl[0] == g and syl[1] % k == 0

            return any(
                (matches(s1, u) and matches(s2, w)) or (matches(s1, w) and matches(s2, u))
                for u, w in pres.whitelist
            )

        presentations = (torus_presentation(2, 3), cable_presentation(2, 3, 2), cable_presentation(3, 5, 3))
        for pres in presentations:
            letters = pres.alphabet + tuple(pres.named)
            for g1 in letters:
                for g2 in letters:
                    for e1 in range(-16, 17):
                        for e2 in (-9, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 9):
                            s1, s2 = (g1, e1), (g2, e2)
                            assert pres.commutes(s1, s2) == scanned(pres, s1, s2), (pres.p, s1, s2)


class TestPresentationCache:
    def test_default_q_shares_one_cache_entry(self):
        cable_presentation.cache_clear()
        assert cable_presentation.cache_info().currsize == 0
        assert cable_presentation(2, 3, 2) is cable_presentation(2, 3, 2, 11)
        info = cable_presentation.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_named_elements_are_read_only(self):
        pres = cable_presentation(2, 3, 2)
        with pytest.raises(TypeError):
            pres.named[MU] = pres.named[LAM]
        with pytest.raises(TypeError):
            del pres.named[LAMC]
        assert pres.named[MU].expansion == Word.parse("b^-1 a")
        assert cable_presentation(2, 3, 2).named[LAMC].definition == Word.parse("muC^-22 t^2")

    def test_pickle_round_trip(self):
        pres = cable_presentation(2, 3, 2)
        again = pickle.loads(pickle.dumps(pres))
        assert again == pres and again.to_json_dict() == pres.to_json_dict()
        assert again.commutes((MUC, 21), (LAMC, 1)) and not again.commutes((MU, 3), ("t", 3))
        with pytest.raises(TypeError):
            again.named[MU] = again.named[LAM]


class TestSurgeryRelator:
    def test_full_power_slope_collapses_to_t_power(self):
        pres = cable_presentation(2, 3, 2)
        assert surgery_relator(pres, Slope(22, 1)) == Word.parse("t^2")

    def test_zero_slope_gives_longitude(self):
        pres = cable_presentation(2, 3, 2)
        assert surgery_relator(pres, Slope(0, 1)) == pres.named[LAMC].expansion

    def test_abelianization_oracle(self):
        pres = cable_presentation(2, 3, 2)
        w = surgery_relator(pres, Slope(21, 1))
        ab = abelianize(w)
        ab_muc = abelianize(pres.named[MUC].expansion)
        ab_lamc = abelianize(pres.named[LAMC].expansion)
        for g in ("a", "b", "t"):
            assert ab.get(g, 0) == 21 * ab_muc.get(g, 0) + ab_lamc.get(g, 0)

    def test_torus_presentation_rejected(self):
        with pytest.raises(ParameterError):
            surgery_relator(torus_presentation(2, 3), Slope(1, 1))


class TestPeripheralInvariance:
    def test_grid(self):
        for x, y in [(2, 3), (3, 5)]:
            for p in (2, 3):
                for k in range(-3, 4):
                    assert peripheral_invariance_check(x, y, p, None, k), (x, y, p, k)

    def test_trivial_shift(self):
        assert peripheral_invariance_check(2, 3, 2, 11, 0)

    def test_corrupted_variant_detected(self):
        from cable_order.normal_form import equal_in_torus_group

        mu = torus_presentation(2, 3).named[MU].expansion
        good = Word.parse("b^-4 a^3")
        bad = Word.parse("b^-4 a^2")
        assert equal_in_torus_group(mu, good, 2, 3)
        assert not equal_in_torus_group(mu, bad, 2, 3)


class TestSerialization:
    def test_document_shape(self):
        doc = cable_presentation(2, 3, 2).to_json_dict()
        assert doc["version"] == "v1"
        assert doc["alphabet"] == ["a", "b", "t"]
        assert [r["name"] for r in doc["relators"]] == ["central", "cable"]
        assert doc["named"]["mu"]["expansion"] == "b^-1 a"
        assert doc["named"]["muC"]["definition"] == "mu^6 lam t^-1"
        assert ["a^2", "b"] in doc["whitelist"]
        assert len(doc["whitelist"]) == 8

    def test_byte_stable(self):
        d1 = json.dumps(cable_presentation(3, 5, 2).to_json_dict(), indent=2)
        d2 = json.dumps(cable_presentation(3, 5, 2).to_json_dict(), indent=2)
        assert d1 == d2
