import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from cable_order.derivations import (
    Context,
    Equation,
    cable_t_power_script,
    central_relation_script,
    check_script,
)
from cable_order.obstruction import (
    NEG,
    POS,
    UNKNOWN,
    ZERO,
    Inconclusive,
    ObstructionCertificate,
    SignAssignment,
    UnsupportedParameters,
    all_sign_assignments,
    certificate_from_json_dict,
    certify_beta,
    certify_slope,
    evaluate_sign,
    refute_all,
    replay,
)
from cable_order.presentations import cable_presentation
from cable_order.slopes import Slope, beta_slope
from cable_order.words import Word
from helpers import word_strategy

ALL_POS = SignAssignment(POS, POS, POS)
SIGN_INT = {POS: 1, NEG: -1, ZERO: 0}


def knot_group_equations(x=2, y=3, p=2):
    pres = cable_presentation(x, y, p)
    env = {}
    eqs = []
    for factory in (central_relation_script, cable_t_power_script):
        s = factory(pres)
        eq = check_script(s, pres, env)
        env[s.script_id] = eq
        eqs.append(eq)
    return pres, eqs


class TestEvaluateSign:
    def test_all_positive_letters(self):
        assert evaluate_sign(Word.parse("a^3 b"), SignAssignment(POS, POS, NEG)) == POS

    def test_inverse_of_positive(self):
        assert evaluate_sign(Word.parse("t^-1"), ALL_POS) == NEG

    def test_mixed_is_unknown(self):
        assert evaluate_sign(Word.parse("a b^-1"), ALL_POS) == UNKNOWN

    def test_zero_letters_are_deleted(self):
        sigma = SignAssignment(ZERO, POS, ZERO)
        assert evaluate_sign(Word.parse("a^5 b^2 t^-1"), sigma) == POS
        assert evaluate_sign(Word.parse("a^5 t^-1"), sigma) == ZERO

    def test_identity_is_zero(self):
        assert evaluate_sign(Word.identity(), ALL_POS) == ZERO

    def test_rejects_named_letters(self):
        with pytest.raises(ValueError):
            evaluate_sign(Word.parse("mu"), ALL_POS)

    @given(
        word_strategy(max_syllables=10),
        st.tuples(*(st.sampled_from((POS, NEG, ZERO)) for _ in range(3))),
    )
    def test_soundness(self, w, signs):
        sigma = SignAssignment(*signs)
        verdict = evaluate_sign(w, sigma)
        total = sum(e * SIGN_INT[sigma.get(g)] for g, e in w)
        surviving = [
            (1 if e > 0 else -1) * SIGN_INT[sigma.get(g)]
            for g, e in w
            if sigma.get(g) != ZERO
        ]
        if verdict == POS:
            assert total > 0 and all(s == 1 for s in surviving)
        elif verdict == NEG:
            assert total < 0 and all(s == -1 for s in surviving)
        elif verdict == ZERO:
            assert not surviving


class TestRefuteAll:
    def test_full_refutation_at_beta_one(self):
        cert = certify_beta(2, 3, 2, 1)
        assert isinstance(cert, ObstructionCertificate)
        assert len(cert.refutations) == 27
        by_assignment = {row.assignment: row for row in cert.refutations}
        row = by_assignment[ALL_POS]
        assert row.equation_id == "surgery_t_inverse_power"
        assert (row.lhs_sign, row.rhs_sign) == (NEG, POS)
        zero_row = by_assignment[SignAssignment(ZERO, ZERO, ZERO)]
        assert zero_row.equation_id is None

    def test_knot_exterior_is_inconclusive(self):
        pres, eqs = knot_group_equations()
        result = refute_all(eqs, pres, None)
        assert isinstance(result, Inconclusive)
        assert ALL_POS in result.survivors

    def test_mixed_ab_assignment_refuted_by_central_relation(self):
        pres, eqs = knot_group_equations()
        result = refute_all(eqs[:1], pres, None)
        assert isinstance(result, Inconclusive)  # one equation cannot kill everything
        cert = certify_beta(2, 3, 2, 1)
        by_assignment = {row.assignment: row for row in cert.refutations}
        row = by_assignment[SignAssignment(POS, NEG, POS)]
        assert row.equation_id == "central_relation"
        assert (row.lhs_sign, row.rhs_sign) == (POS, NEG)

    def test_requires_matching_slope(self):
        pres, _ = knot_group_equations()
        foreign = Equation(
            Word.parse("t^2"), Word.identity(), Context("H", Slope(22, 1)), "foreign"
        )
        with pytest.raises(ValueError, match="slope"):
            refute_all([foreign], pres, Slope(21, 1))

    def test_requires_provenance(self):
        pres, _ = knot_group_equations()
        anon = Equation(Word.parse("a"), Word.parse("a"), Context("G"))
        with pytest.raises(ValueError, match="provenance"):
            refute_all([anon], pres, None)

    @settings(max_examples=60)
    @given(st.lists(word_strategy(max_syllables=5), min_size=1, max_size=4))
    def test_never_refutes_a_set_the_all_positive_assignment_satisfies(self, words):
        # structural: when all-pos evaluates compatibly on every equation,
        # the result must be Inconclusive, never a certificate
        pres = cable_presentation(2, 3, 2)
        eqs = [
            Equation(w, w, Context("G"), provenance=f"eq{i}") for i, w in enumerate(words)
        ]
        result = refute_all(eqs, pres, None)
        compatible = all(
            not (
                (ls := evaluate_sign(e.lhs, ALL_POS)) != UNKNOWN
                and (rs := evaluate_sign(e.rhs, ALL_POS)) != UNKNOWN
                and ls != rs
            )
            for e in eqs
        )
        assert compatible  # lhs == rhs here, so always compatible
        assert isinstance(result, Inconclusive)


class TestCertifyBeta:
    def test_basic_certificate(self):
        cert = certify_beta(2, 3, 2, 1)
        assert isinstance(cert, ObstructionCertificate)
        assert [e.entry_id for e in cert.entries] == [
            "central_relation",
            "cable_t_power",
            "surgery_peripheral_power",
            "surgery_central_power",
            "surgery_t_inverse_power",
        ]
        assert cert.params.slope == Slope(21, 1)
        assert cert.cramer_data is None
        assert replay(cert)

    def test_rejects_p_one(self):
        with pytest.raises(UnsupportedParameters):
            certify_beta(2, 3, 1, 1)

    def test_rejects_bad_beta(self):
        with pytest.raises(UnsupportedParameters):
            certify_beta(2, 3, 2, 0)

    def test_large_beta_exponent(self):
        cert = certify_beta(2, 3, 2, 25)
        entry = {e.entry_id: e for e in cert.entries}["surgery_central_power"]
        assert entry.equation.lhs == Word.parse("t^51")
        assert replay(cert)

    def test_certificate_pickles(self):
        cert = certify_beta(2, 3, 2, 3)
        again = pickle.loads(pickle.dumps(cert))
        assert again == cert and again.to_json_dict() == cert.to_json_dict()
        assert replay(again)


class TestCertifySlope:
    def test_low_endpoint(self):
        cert = certify_slope(2, 3, 2, Slope(21, 1))
        assert isinstance(cert, ObstructionCertificate)
        assert [e.entry_id for e in cert.entries] == [
            "central_relation",
            "cable_t_power",
            "cable_endpoint_product",
            "surgery_endpoint_identity",
        ]
        assert cert.cramer_data is None
        assert replay(cert)

    def test_high_endpoint_cascade(self):
        cert = certify_slope(2, 3, 2, Slope(22, 1))
        ids = [e.entry_id for e in cert.entries]
        assert ids == ["central_relation", "cable_t_power", "surgery_t_power_identity"]
        by_assignment = {row.assignment: row for row in cert.refutations}
        # t^p = 1 forces a nonzero t-sign into a clash with zero
        row = by_assignment[ALL_POS]
        assert row.equation_id == "surgery_t_power_identity"
        assert (row.lhs_sign, row.rhs_sign) == (POS, ZERO)
        assert replay(cert)

    def test_interior_slope_with_cramer_data(self):
        cert = certify_slope(2, 3, 2, Slope(43, 2))
        assert cert.cramer_data is not None
        c = cert.cramer_data
        assert (c.d0, c.d1, c.d) == (1, 1, 1)
        assert 1 * c.d0 + 1 * c.d1 == 2 * c.d
        assert 21 * c.d0 + 22 * c.d1 == 43 * c.d
        assert replay(cert)

    def test_beta_slopes_via_interior_machinery(self):
        for beta in (2, 3, 5):
            slope = beta_slope(2, 11, beta)
            cert = certify_slope(2, 3, 2, slope)
            assert isinstance(cert, ObstructionCertificate)
            assert cert.cramer_data.d0 > 0 and cert.cramer_data.d1 > 0
            assert replay(cert)

    def test_outside_window_rejected(self):
        with pytest.raises(UnsupportedParameters):
            certify_slope(2, 3, 2, Slope(1, 1))
        with pytest.raises(UnsupportedParameters):
            certify_slope(2, 3, 2, Slope(23, 1))

    def test_experimental_band_is_inconclusive(self):
        result = certify_slope(2, 3, 2, Slope(19, 1), experimental=True)
        assert isinstance(result, Inconclusive)
        assert ALL_POS in result.survivors
        # below the open band stays rejected even with the flag
        with pytest.raises(UnsupportedParameters):
            certify_slope(2, 3, 2, Slope(5, 1), experimental=True)


class TestReplay:
    def test_round_trip_from_json_only(self):
        cert = certify_beta(2, 3, 2, 1)
        text = json.dumps(cert.to_json_dict())
        again = certificate_from_json_dict(json.loads(text))
        assert replay(again)
        assert again.to_json_dict() == cert.to_json_dict()

    def test_flipped_sign_detected(self):
        cert = certify_beta(2, 3, 2, 1)
        doc = cert.to_json_dict()
        row = doc["refutations"][0]["reason"]
        row["lhs_sign"] = POS if row["lhs_sign"] != POS else NEG
        report = replay(certificate_from_json_dict(doc))
        assert not report and report.problems

    def test_forged_step_detected(self):
        cert = certify_beta(2, 3, 2, 1)
        doc = cert.to_json_dict()
        step = doc["equations"][1]["script"]["steps"][0]
        step["word"] = "lam^-2 mu^-10"
        report = replay(certificate_from_json_dict(doc))
        assert not report

    def test_wrong_version_detected(self):
        cert = certify_beta(2, 3, 2, 1)
        doc = cert.to_json_dict()
        doc["version"] = "v2"
        assert not replay(certificate_from_json_dict(doc))

    def test_missing_assignment_detected(self):
        cert = certify_beta(2, 3, 2, 1)
        doc = cert.to_json_dict()
        doc["refutations"] = doc["refutations"][:-1]
        report = replay(certificate_from_json_dict(doc))
        assert not report and any("not refuted" in p for p in report.problems)

    def test_unexpected_cramer_detected(self):
        cert = certify_slope(2, 3, 2, Slope(21, 1))
        doc = cert.to_json_dict()
        doc["cramer"] = {
            "d0": 1,
            "d1": 1,
            "d": 1,
            "slopes": {"s0": "21/1", "s1": "22/1", "s": "43/2"},
        }
        assert not replay(certificate_from_json_dict(doc))


class TestAssignments:
    def test_enumeration(self):
        assignments = all_sign_assignments()
        assert len(assignments) == len(set(assignments)) == 27
        assert assignments[0] == ALL_POS
        assert assignments[-1] == SignAssignment(ZERO, ZERO, ZERO)

    def test_validation(self):
        with pytest.raises(ValueError):
            SignAssignment("up", POS, NEG)
