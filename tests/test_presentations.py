import json
import pickle
from dataclasses import replace
from math import gcd

import pytest

from cable_order import cli, derivations, presentations, proofs
from cable_order.normal_form import equal_in_torus_group, peripheral_invariance_check
from cable_order.presentations import (
    LAM,
    LAMC,
    MU,
    MUC,
    ParameterError,
    bezout_torus,
    cable_presentation,
    surgery_named_form,
    torus_presentation,
)
from cable_order.slopes import Slope
from cable_order.words import Word, concat, invert, power
from helpers import abelianize, reference_spellings


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


class TestTorusPresentation:
    def test_meridian_and_longitude(self):
        pres = torus_presentation(2, 3)
        assert pres.expand(Word.single(MU)) == Word.parse("b^-1 a")
        assert pres.expand(Word.single(LAM)) == concat(power(Word.parse("a^-1 b"), 6), Word.parse("a^2"))
        assert abelianize(pres.expand(Word.single(LAM))) == {"a": -4, "b": 6}

    def test_longitude_abelianization_identity(self):
        for x, y in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 7), (5, 6)]:
            pres = torus_presentation(x, y)
            ab_mu = abelianize(pres.expand(Word.single(MU)))
            ab_lam = abelianize(pres.expand(Word.single(LAM)))
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
        assert pres.expand(Word.single(MUC)) == Word.parse("a^2 t^-1")
        mu_w, lam_w = pres.expand(Word.single(MU)), pres.expand(Word.single(LAM))
        assert pres.expand(Word.single(MUC)) == concat(
            power(mu_w, 6), lam_w, Word.single("t", -1)
        )
        assert pres.expand(Word.single(LAMC)) == concat(
            power(invert(Word.parse("a^2 t^-1")), 22), Word.single("t", 2)
        )

    def test_relator_abelianization(self):
        pres = cable_presentation(2, 3, 2)
        ab = abelianize(pres.expand(pres.relators["cable"]))
        ab_mu = abelianize(pres.expand(Word.single(MU)))
        ab_lam = abelianize(pres.expand(Word.single(LAM)))
        for g in ("a", "b", "t"):
            expected = 11 * ab_mu.get(g, 0) + 2 * ab_lam.get(g, 0) - (2 if g == "t" else 0)
            assert ab.get(g, 0) == expected

    def test_theorem_mode_rejects_wrong_q(self):
        with pytest.raises(ParameterError):
            cable_presentation(2, 3, 2, 10)

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


# the acceptance grid of tests/test_acceptance.py
ACCEPTANCE_TRIPLES = [
    (x, y, p) for x in range(2, 7) for y in range(x + 1, 8) if gcd(x, y) == 1 for p in (2, 3, 4, 5)
]


@pytest.mark.parametrize(
    "xyp", ACCEPTANCE_TRIPLES + [(11, 13, 9), (2, 3, 50)], ids=lambda xyp: "x{}_y{}_p{}".format(*xyp)
)
def test_spellings_match_the_concat_power_reference(xyp):
    # a spelling is the expansion of the definition; the reference builds it
    # from the concrete spellings instead, and both must be one reduced word
    for pres in (torus_presentation(*xyp[:2]), cable_presentation(*xyp)):
        reference = reference_spellings(pres)
        spelled = {n: pres.expand(definition) for n, definition in pres.named.items()}
        spelled.update((name, pres.expand(form)) for name, form in pres.relators.items())
        assert spelled == reference
        for word in spelled.values():
            assert word.generators() <= set(pres.alphabet)


@pytest.mark.parametrize(
    "xyp", ACCEPTANCE_TRIPLES + [(11, 13, 9), (2, 3, 50), (1000, 1001, 2)], ids=lambda xyp: "x{}_y{}_p{}".format(*xyp)
)
def test_every_word_a_build_writes_is_reduced(xyp):
    # the builds and the surgery relator write their words from syllables and never call the reducer
    pres = cable_presentation(*xyp)
    pq = pres.p * pres.q
    built = [*pres.relators.values(), *pres.named.values(), *(w for pair in pres.whitelist for w in pair)]
    built += [surgery_named_form(pres, s) for s in (Slope(0, 1), Slope(pq - 1), Slope(2 * pq - 1, 2), Slope(-3, 7))]
    torus = torus_presentation(*xyp[:2])
    built += [*torus.relators.values(), *torus.named.values(), *(w for pair in torus.whitelist for w in pair)]
    for word in built:
        assert Word.from_pairs(word.syllables) == word, word


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
        with pytest.raises(TypeError):
            pres.relators["cable"] = pres.relators["central"]
        with pytest.raises(TypeError):
            del pres.relators["central"]
        assert pres.expand(Word.single(MU)) == Word.parse("b^-1 a")
        assert cable_presentation(2, 3, 2).named[LAMC] == Word.parse("muC^-22 t^2")
        assert cable_presentation(2, 3, 2).relators["cable"] == Word.parse("mu^11 lam^2 t^-2")

    def test_cold_build_spells_nothing(self, monkeypatch):
        # a work count, not a timing: a build keeps definitions only, so it
        # takes no power of a word; the first expand of the cable relator
        # takes powers of mu's and lam's expansions, one of them 4,575 syllables long
        built = []
        real_power = presentations.power

        def counting(w, n):
            out = real_power(w, n)
            built.append(len(out))
            return out

        monkeypatch.setattr(presentations, "power", counting)
        torus_presentation.cache_clear()
        cable_presentation.cache_clear()
        try:
            pres = cable_presentation(11, 13, 9)
            assert built == []
            pres.expand(pres.relators["cable"])
            assert max(built) >= 1_000
        finally:
            torus_presentation.cache_clear()
            cable_presentation.cache_clear()

    def test_cable_relator_is_spelled_and_checked_on_first_read(self):
        cable_presentation.cache_clear()
        try:
            pres = cable_presentation(11, 13, 9)
            mu_w, lam_w = pres.expand(Word.single(MU)), pres.expand(Word.single(LAM))
            word = pres.expand(pres.relators["cable"])
            assert word == concat(power(mu_w, 1286), power(lam_w, 9), Word.single("t", -9))
            assert len(word) == 4575
            again = pres.expand(pres.relators["cable"])
            assert again == word and again is not word  # built anew: the presentation keeps no word
        finally:
            cable_presentation.cache_clear()

    def test_letters_are_built_with_the_presentation(self):
        pres = cable_presentation(2, 3, 2)
        assert pres.letters() is pres.letters()
        assert pres.letters() == {"a", "b", "t", MU, LAM, MUC, LAMC}
        assert torus_presentation(2, 3).letters() == {"a", "b", MU, LAM}
        assert replace(pres, alphabet=("a", "b")).letters() == {"a", "b", MU, LAM, MUC, LAMC}
        assert pickle.loads(pickle.dumps(pres)).letters() == pres.letters()

    def test_pickle_round_trip(self):
        pres = cable_presentation(2, 3, 2)
        again = pickle.loads(pickle.dumps(pres))
        assert again == pres and cli.presentation_to_json_dict(again) == cli.presentation_to_json_dict(pres)
        # a name maps to its definition and a relator to its named form, and nothing built from either
        assert again.named[LAMC] == Word.parse("muC^-22 t^2") == pres.named[LAMC]
        assert again.relators["cable"] == Word.parse("mu^11 lam^2 t^-2") == pres.relators["cable"]
        assert again.commutes((MUC, 21), (LAMC, 1)) and not again.commutes((MU, 3), ("t", 3))
        with pytest.raises(TypeError):
            again.named[MU] = again.named[LAM]
        with pytest.raises(TypeError):
            again.relators["cable"] = again.relators["central"]


class TestSurgeryRelator:
    def test_full_power_slope_collapses_to_t_power(self):
        pres = cable_presentation(2, 3, 2)
        assert pres.expand(surgery_named_form(pres, Slope(22, 1))) == Word.parse("t^2")

    def test_zero_slope_gives_longitude(self):
        pres = cable_presentation(2, 3, 2)
        assert pres.expand(surgery_named_form(pres, Slope(0, 1))) == pres.expand(Word.single(LAMC))

    def test_abelianization_oracle(self):
        pres = cable_presentation(2, 3, 2)
        w = pres.expand(surgery_named_form(pres, Slope(21, 1)))
        ab = abelianize(w)
        ab_muc = abelianize(pres.expand(Word.single(MUC)))
        ab_lamc = abelianize(pres.expand(Word.single(LAMC)))
        for g in ("a", "b", "t"):
            assert ab.get(g, 0) == 21 * ab_muc.get(g, 0) + ab_lamc.get(g, 0)

    def test_torus_presentation_rejected(self):
        with pytest.raises(ParameterError):
            surgery_named_form(torus_presentation(2, 3), Slope(1, 1))


class TestPeripheralInvariance:
    def test_grid(self):
        for x, y in [(2, 3), (3, 5)]:
            for p in (2, 3):
                for k in range(-3, 4):
                    assert peripheral_invariance_check(x, y, p, k), (x, y, p, k)

    def test_trivial_shift(self):
        assert peripheral_invariance_check(2, 3, 2, 0)

    def test_long_shifts(self):
        # the shift proofs take 3 or 6 steps per unit of k, whatever its size
        for k in (-8, 9):
            assert peripheral_invariance_check(2, 3, 2, k), k

    def test_derivation_must_prove_the_shifted_meridian(self, monkeypatch):
        # the k = 0 proof replays, but it proves muC = mu^6 lam t^-1, not the k = 1 shift
        real = proofs.meridian_shift_script
        monkeypatch.setattr(proofs, "meridian_shift_script", lambda pres, k: real(pres, 0))
        assert peripheral_invariance_check(2, 3, 2, 0)
        assert not peripheral_invariance_check(2, 3, 2, 1)

    def test_corrupted_variant_detected(self):
        from cable_order.normal_form import equal_in_torus_group

        mu = torus_presentation(2, 3).expand(Word.single(MU))
        good = Word.parse("b^-4 a^3")
        bad = Word.parse("b^-4 a^2")
        assert equal_in_torus_group(mu, good, 2, 3)
        assert not equal_in_torus_group(mu, bad, 2, 3)


class TestSerialization:
    def test_document_shape(self):
        doc = cli.presentation_to_json_dict(cable_presentation(2, 3, 2))
        assert doc["version"] == "v1"
        assert doc["alphabet"] == ["a", "b", "t"]
        assert [r["name"] for r in doc["relators"]] == ["central", "cable"]
        assert doc["named"]["mu"]["expansion"] == "b^-1 a"
        assert doc["named"]["muC"]["definition"] == "mu^6 lam t^-1"
        assert ["a^2", "b"] in doc["whitelist"]
        assert len(doc["whitelist"]) == 9

    def test_byte_stable(self):
        d1 = json.dumps(cli.presentation_to_json_dict(cable_presentation(3, 5, 2)), indent=2)
        d2 = json.dumps(cli.presentation_to_json_dict(cable_presentation(3, 5, 2)), indent=2)
        assert d1 == d2

    @pytest.mark.parametrize("xyp", [(2, 3, 2), (11, 13, 9)], ids=["x2_y3_p2", "x11_y13_p9"])
    def test_a_document_writes_each_name_out_once(self, monkeypatch, xyp):
        # a work count: each relator's named form and each definition is
        # written out by its own expand call, which takes one power for each
        # place a name appears in it or, by recursion, in the names' definitions
        pres = cable_presentation(*xyp)

        def places(w):
            return sum(1 + places(pres.named[g]) for g, _ in w.syllables if g in pres.named)

        powers = []
        real_power = presentations.power

        def counting(w, n):
            powers.append(n)
            return real_power(w, n)

        monkeypatch.setattr(presentations, "power", counting)
        doc = cli.presentation_to_json_dict(pres)
        assert len(powers) == sum(map(places, [*pres.relators.values(), *pres.named.values()]))
        reference = reference_spellings(pres)
        assert {n: entry["expansion"] for n, entry in doc["named"].items()} == {n: str(reference[n]) for n in pres.named}
        assert {r["name"]: r["word"] for r in doc["relators"]} == {n: str(reference[n]) for n in pres.relators}
        count = len(powers)
        powers.clear()
        assert cli.presentation_to_json_dict(pres) == doc and len(powers) == count  # nothing kept between documents

    def test_a_document_takes_as_many_powers_at_any_p(self, monkeypatch):
        # expand writes each name out once for each place it appears in a
        # definition, so the number of powers a document takes is fixed by
        # the definitions' shape and does not grow with p, q or the length
        # of a word
        powers = []
        real_power = presentations.power

        def counting(w, n):
            powers.append(n)
            return real_power(w, n)

        monkeypatch.setattr(presentations, "power", counting)
        counts = []
        for xyp in [(2, 3, 2), (11, 13, 9)]:
            cli.presentation_to_json_dict(cable_presentation(*xyp))
            counts.append(len(powers))
            powers.clear()
        assert counts[0] == counts[1] and 0 < counts[0] < 40


class TestLicences:
    def test_whitelist_pairs_commute_in_the_torus_group(self):
        # the normal form decides each licence: u w and w u are one element
        for x in range(2, 11):
            for y in range(x + 1, 12):
                if gcd(x, y) != 1:
                    continue
                pres = torus_presentation(x, y)
                for u, w in pres.whitelist:
                    uw, wu = pres.expand(concat(u, w)), pres.expand(concat(w, u))
                    assert equal_in_torus_group(uw, wu, x, y), (x, y, str(u), str(w))

    def test_t_power_proof_needs_the_meridian_licence(self):
        pres = cable_presentation(2, 3, 2)
        licence = (Word.single(MU), Word.single("a", 2))
        assert licence in pres.whitelist
        weakened = replace(pres, whitelist=tuple(pair for pair in pres.whitelist if pair != licence))
        assert len(weakened.whitelist) == len(pres.whitelist) - 1
        script = proofs.cable_t_power_script(pres).script
        assert derivations.check_script(script, pres, {}).lhs == Word.parse("t^2")
        with pytest.raises(derivations.StepError, match="not licensed") as err:
            derivations.check_script(script, weakened, {})
        assert err.value.index == 3 and script.steps[3].kind == "commute"

    def test_cable_meridian_power_is_not_collected(self):
        # muC = mu^6 lam t^-1, and t^-1 is no multiple of t^p
        pres = cable_presentation(2, 3, 2)
        step = derivations.Step(kind="commute", side="lhs", position=0, name=MUC)
        with pytest.raises(derivations.StepError, match="not licensed"):
            derivations.apply_step(([(MUC, 3)], []), step, pres, None, {})
