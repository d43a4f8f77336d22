import functools
import gc
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
import weakref
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cable_order import obstruction, proofs
from cable_order.cli import main
from cable_order.derivations import (
    Axiom, CertEntry, Equation, Step, check_script, script_from_json_dict, script_to_json_dict,
)
from cable_order.obstruction import (
    NEG,
    POS,
    UNKNOWN,
    ZERO,
    Inconclusive,
    ObstructionCertificate,
    SignAssignment,
    all_sign_assignments,
    certificate_from_json_dict,
    evaluate_sign,
    refute_all,
    replay,
    signed_letters,
)
from cable_order.presentations import (
    LAMC,
    MUC,
    GroupPresentation,
    ParameterError,
    cable_presentation,
    torus_presentation,
)
from cable_order.proofs import (
    REDUCE,
    cable_t_power_script,
    central_relation_script,
    certificate_text,
    certify_beta,
    certify_slope,
    prove,
)
from cable_order.slopes import Slope, beta_slope, cramer
from cable_order.words import Word, invert
from helpers import swap_expand_t_power_script, word_strategy

ALL_POS = SignAssignment(POS, POS, POS)
DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = sorted(DATA.glob("v*/*.json"))
SIGN_INT = {POS: 1, NEG: -1, ZERO: 0}


def knot_group_equations(x=2, y=3, p=2):
    pres = cable_presentation(x, y, p)
    env = {}
    eqs = []
    for factory in (central_relation_script, cable_t_power_script):
        s = factory(pres).script
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


    @given(word_strategy(max_syllables=12))
    def test_signed_letters_give_the_same_verdict(self, w):
        letters = signed_letters(w)
        assert len(letters) <= 6
        for sigma in all_sign_assignments():
            assert evaluate_sign(letters, sigma) == evaluate_sign(w, sigma)


class TestRefuteAll:
    def test_full_refutation_at_beta_one(self):
        cert = certify_beta(2, 3, 2, 1)
        assert isinstance(cert, ObstructionCertificate)
        assert len(cert.refutations) == 27
        by_assignment = {row.assignment: row for row in cert.refutations}
        row = by_assignment[ALL_POS]
        assert row.equation_id == "surgery_endpoint_identity"
        assert (row.lhs_sign, row.rhs_sign) == (POS, ZERO)
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
            Word.parse("t^2"), Word.identity(), Slope(22, 1), "foreign"
        )
        with pytest.raises(ValueError, match="slope"):
            refute_all([foreign], pres, Slope(21, 1))

    def test_requires_provenance(self):
        pres, _ = knot_group_equations()
        anon = Equation(Word.parse("a"), Word.parse("a"), None)
        with pytest.raises(ValueError, match="provenance"):
            refute_all([anon], pres, None)

    @settings(max_examples=60)
    @given(st.lists(word_strategy(max_syllables=5), min_size=1, max_size=4))
    def test_never_refutes_a_set_the_all_positive_assignment_satisfies(self, words):
        # structural: when all-pos evaluates compatibly on every equation,
        # the result must be Inconclusive, never a certificate
        pres = cable_presentation(2, 3, 2)
        eqs = [
            Equation(w, w, None, provenance=f"eq{i}") for i, w in enumerate(words)
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
            "cable_endpoint_product",
            "surgery_endpoint_identity",
        ]
        assert cert.params.slope == Slope(21, 1)
        assert (cert.params.mode, cert.params.beta) == ("beta", 1)
        assert cert.cramer_data is None
        assert replay(cert)

    def test_rejects_p_one(self):
        with pytest.raises(ParameterError):
            certify_beta(2, 3, 1, 1)

    def test_rejects_bad_beta(self):
        with pytest.raises(ParameterError):
            certify_beta(2, 3, 2, 0)

    def test_large_beta_exponent(self):
        cert = certify_beta(2, 3, 2, 25)
        entry = {e.entry_id: e for e in cert.entries}["surgery_interior_combination"]
        assert entry.equation.lhs == Word.parse("t a b t^48")
        assert replay(cert)

    def test_beta_is_a_label_over_the_slope_pipeline(self):
        # over the acceptance grid: the same proofs, determinants and refutation table
        pairs = [(x, y) for x in range(2, 7) for y in range(x + 1, 8) if gcd(x, y) == 1]
        for x, y in pairs:
            for p in (2, 3, 4, 5):
                for beta in range(1, 26):
                    cert = certify_beta(x, y, p, beta)
                    same = certify_slope(x, y, p, beta_slope(p, p * x * y - 1, beta))
                    assert cert.params == same.params._replace(beta=beta) and cert.params.mode == "beta"
                    assert (cert.entries, cert.cramer_data, cert.refutations) == (
                        same.entries, same.cramer_data, same.refutations
                    ), (x, y, p, beta)

    def test_step_count_does_not_grow_with_beta(self):
        # a work count: the beta proof is the interior proof, eight steps at every beta
        counts = {
            beta: sum(len(e.script.steps) for e in certify_beta(2, 3, 2, beta).entries)
            for beta in (2, 1000, 10**6)
        }
        assert len(set(counts.values())) == 1, counts
        started = time.perf_counter()
        cert = certify_beta(2, 3, 2, 10**6)
        assert replay(certificate_from_json_dict(json.loads(json.dumps(cert.to_json_dict()))))
        assert time.perf_counter() - started < 0.05

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
        with pytest.raises(ParameterError):
            certify_slope(2, 3, 2, Slope(1, 1))
        with pytest.raises(ParameterError):
            certify_slope(2, 3, 2, Slope(23, 1))
        with pytest.raises(ParameterError, match="outside the certified window"):
            certify_slope(2, 3, 2, Slope(19, 1))  # below pq - 1, where the sign atoms do not reach

    @pytest.mark.parametrize("x,y,p", [(6, 7, 5), (11, 13, 9), (2, 3, 50)])
    def test_large_pq_certificates_fit_the_caps(self, x, y, p):
        # replay holds every step to the script's derivations.side_cap
        pq = p * (p * x * y - 1)
        slopes = [Slope(pq - 1), Slope(pq), Slope((pq - 1) * 50 + 1, 50), Slope((pq - 1) * 50 + 49, 50)]
        for slope in slopes:
            assert replay(certify_slope(x, y, p, slope)), (x, y, p, str(slope))
        assert replay(certify_beta(x, y, p, 5))

    @pytest.mark.usefixtures("cold_presentations")  # so each refutation table is searched, not reused
    def test_endpoint_product_is_never_expanded(self, monkeypatch):
        # the certify-side twin of TestReplay.test_only_cited_equations_are_expanded:
        # no row cites the endpoint product, so refute_all never sees it
        expanded = []
        real = GroupPresentation.expand
        monkeypatch.setattr(
            GroupPresentation, "expand", lambda pres, w: expanded.append(w) or real(pres, w)
        )
        for slope in (Slope(21, 1), Slope(43, 2)):
            cert = certify_slope(2, 3, 2, slope)
            endpoint = next(e for e in cert.entries if e.entry_id == "cable_endpoint_product")
            assert endpoint.equation.lhs.syllables == ((MUC, 21), (LAMC, 1))
            assert endpoint.equation.lhs not in expanded and expanded
            assert "cable_endpoint_product" not in {row.equation_id for row in cert.refutations}
            expanded.clear()


class TestEntriesUsed:
    # a certificate carries only the equations its refutation table reaches,
    # directly or through the citations of the scripts it reaches
    @pytest.mark.parametrize("x,y,p", [(2, 3, 2), (2, 5, 3), (3, 4, 2)])
    def test_every_entry_is_reached_from_a_refutation_row(self, x, y, p):
        pq = p * (p * x * y - 1)
        certs = [certify_beta(x, y, p, beta) for beta in (1, 4)] + [
            certify_slope(x, y, p, slope)
            for slope in (Slope(pq - 1, 1), Slope(pq, 1), Slope(2 * pq - 1, 2))
        ]
        for cert in certs:
            cites = {e.entry_id: e.script.cites for e in cert.entries}
            todo = [r.equation_id for r in cert.refutations if r.equation_id is not None]
            reached = set()
            while todo:
                eq_id = todo.pop()
                if eq_id not in reached:
                    reached.add(eq_id)
                    todo.extend(cites[eq_id])
            assert reached == set(cites), (cert.params.slope, set(cites) - reached)


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
        doc["version"] = "v3"
        assert not replay(certificate_from_json_dict(doc))

    def test_v1_document_with_a_v2_step_is_a_load_error(self):
        doc = certify_beta(2, 3, 2, 7).to_json_dict()
        assert doc["version"] == "v2"
        doc["version"] = "v1"
        with pytest.raises(ValueError, match="a v1 certificate uses a step form of v2"):
            certificate_from_json_dict(doc)
        # the endpoint certificate collects lam^p in cable_t_power, a v2 form
        doc = certify_slope(2, 3, 2, Slope(21, 1)).to_json_dict()
        doc["version"] = "v1"
        with pytest.raises(ValueError, match="a v1 certificate uses a step form of v2"):
            certificate_from_json_dict(doc)
        # with the v1 swap/expand chain in its place it is a v1 certificate, and
        # an exponent on a v1 relation step is a v2 form too
        t_power = next(e for e in doc["equations"] if e["id"] == "cable_t_power")
        t_power["script"] = script_to_json_dict(swap_expand_t_power_script(cable_presentation(2, 3, 2)))
        assert replay(certificate_from_json_dict(doc))
        entry = next(e for e in doc["equations"] if e["id"] == "surgery_endpoint_identity")
        entry["script"]["steps"][0]["n"] = 1
        with pytest.raises(ValueError, match="a v1 certificate uses a step form of v2"):
            certificate_from_json_dict(doc)

    def test_beta_certificate_needs_determinant_data(self):
        doc = certify_beta(2, 3, 2, 7).to_json_dict()
        assert doc["cramer"]["d0"] == 1 and doc["cramer"]["d1"] == 6
        assert certificate_from_json_dict(doc).cramer_data == cramer(Slope(21, 1), Slope(22, 1), Slope(153, 7))
        doc["cramer"] = None
        with pytest.raises(ValueError, match="the determinant data is not the one"):
            certificate_from_json_dict(doc)

    @pytest.mark.parametrize(
        "step_index, field, change",
        [
            (2, "n", 1),  # the relation exponent
            (2, "n", -1),
            (3, "n", 1),  # the run count
            (3, "n", -1),
            (3, "word", "lamC^-1 muC^-20"),  # a collected exponent of the block
            (3, "word", "lamC^-2 muC^-21"),
            (0, "position", 1),
            (4, "name", "muC"),
        ],
    )
    def test_tampered_exponent_step_is_detected(self, step_index, field, change):
        # d0 = 2 at 152/7, so every exponent step does real work
        doc = certify_slope(2, 3, 2, Slope(152, 7)).to_json_dict()
        entry = next(e for e in doc["equations"] if e["id"] == "surgery_interior_combination")
        step = entry["script"]["steps"][step_index]
        assert step["kind"] in ("relation", "commute")
        step[field] = step[field] + change if type(change) is int else change
        report = replay(certificate_from_json_dict(json.loads(json.dumps(doc))))
        assert any(p.startswith("script 'surgery_interior_combination' fails: ") for p in report.problems)

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
        with pytest.raises(ValueError, match="the determinant data is not the one"):
            certificate_from_json_dict(doc)

    @pytest.mark.parametrize(
        "step, load_error",
        [
            ({"kind": "power", "n": 10**7}, "unknown step kind 'power'"),
            ({"kind": "collect", "side": "lhs", "position": 0}, "unknown step kind 'collect'"),
            (
                {"kind": "definition", "name": "mu", "side": "lhs", "position": 0, "direction": "fold"},
                "unknown step direction 'fold'",
            ),
            ({"kind": "reduce", "side": "lhs"}, None),
            ({"kind": "reduce", "side": "both", "n": 2}, "a reduce step takes no n"),
            (
                {"kind": "swap", "side": "lhs", "position": 0, "left": ["a", 1], "right": ["b", 1], "n": 2},
                "a swap step takes no n",
            ),
        ],
        ids=["power", "collect", "fold", "reduce", "n_on_reduce", "n_on_swap"],
    )
    def test_step_outside_the_step_language_fails_at_its_index(self, step, load_error):
        # a kind or direction outside its values fails at load; a known kind
        # with fields the checker rejects fails replay at the step's index
        doc = certify_beta(2, 3, 2, 3).to_json_dict()
        steps = doc["equations"][0]["script"]["steps"]
        steps.append(step)
        if load_error is not None:
            with pytest.raises(ValueError, match=load_error):
                certificate_from_json_dict(json.loads(json.dumps(doc)))
            return
        cert = certificate_from_json_dict(json.loads(json.dumps(doc)))
        started = time.perf_counter()
        report = replay(cert)
        elapsed = time.perf_counter() - started
        assert not report
        assert any(f"step {len(steps) - 1}: " in problem for problem in report.problems)
        assert elapsed < 0.1

    def test_claimed_result_mismatch_text_is_bounded(self):
        doc = certify_beta(2, 3, 2, 1).to_json_dict()
        # both copies of the side, so that the loader accepts it and the checker sees it
        entry = doc["equations"][1]
        entry["rhs"] = entry["script"]["claimed"]["rhs"] = " ".join(["a b"] * 5000)
        report = replay(certificate_from_json_dict(doc))
        (problem,) = [p for p in report.problems if "claimed result mismatch" in p]
        assert "(10000 syllables)" in problem
        assert len(problem.encode()) < 1024

    def test_failing_script_is_reported_once(self):
        doc = certify_beta(2, 3, 2, 7).to_json_dict()
        entry = next(e for e in doc["equations"] if e["id"] == "surgery_interior_combination")
        entry["script"]["steps"][3]["position"] += 1
        report = replay(certificate_from_json_dict(doc))
        assert not report
        first, *rest = report.problems
        assert first.startswith("script 'surgery_interior_combination' fails: step 3: ")
        (folded,) = [p for p in rest if "surgery_interior_combination" in p]
        assert folded == "2 refutation row(s) cite equation 'surgery_interior_combination', which did not verify"

    def test_a_verified_equation_that_does_not_expand_is_not_called_unverified(self):
        # the script checks (one multiply step), but its sides are not over a, b and t
        doc = certify_beta(2, 3, 2, 1).to_json_dict()
        entry = doc["equations"][0]
        assert entry["id"] == "central_relation"
        entry["script"]["steps"].append({"kind": "multiply", "on": "right", "word": f"muC^{10**30}"})
        for sides in (entry, entry["script"]["claimed"]):
            sides["lhs"] += f" muC^{10**30}"
            sides["rhs"] += f" muC^{10**30}"
        cert = certificate_from_json_dict(doc)
        rows = sum(row.equation_id == "central_relation" for row in cert.refutations)
        report = replay(cert)
        assert not report
        first, second = report.problems
        assert first == "equation 'central_relation' is not over a, b and t: the letter 'muC' is not a, b or t"
        assert second == f"{rows} refutation row(s) cite equation 'central_relation', which is not over a, b and t"

    def test_rows_citing_an_unknown_id_make_one_problem(self):
        doc = certify_beta(2, 3, 2, 7).to_json_dict()
        for row in doc["refutations"]:
            if row["reason"]["kind"] == "clash":
                row["reason"]["equation"] = "no_such_equation"
        report = replay(certificate_from_json_dict(doc))
        assert report.problems == ["26 refutation row(s) cite unknown equation 'no_such_equation'"]

    def test_only_cited_equations_are_expanded(self, monkeypatch):
        # a work count: an honest certificate never cites the endpoint product,
        # and an uncited entry carrying muC^N must cost replay nothing per N
        pres = cable_presentation(2, 3, 2)
        cert = certify_beta(2, 3, 2, 1)
        padded = prove("padded", pres, None, Axiom("relator", "central"), [
            Step("multiply", word=Word.single("b", 3), on="right"),
            REDUCE,
            Step("multiply", word=Word.single(MUC, 10_000), on="left"),
        ])
        cert = cert._replace(entries=cert.entries + (padded,))
        endpoint = next(e for e in cert.entries if e.entry_id == "cable_endpoint_product")
        assert endpoint.equation.lhs.syllables == ((MUC, 21), (LAMC, 1))

        expanded = []
        real = GroupPresentation.expand
        monkeypatch.setattr(
            GroupPresentation, "expand", lambda pres, w: expanded.append(w) or real(pres, w)
        )
        assert replay(cert)
        cited = {row.equation_id for row in cert.refutations} - {None}
        assert "cable_endpoint_product" not in cited and "padded" not in cited
        assert endpoint.equation.lhs not in expanded
        assert all(MUC not in w.generators() for w in expanded)
        assert expanded == []


    def test_sign_evaluation_reads_letters_not_powers(self, monkeypatch):
        # a work count: a cited side with muC^N is refused by its letters, not
        # spelled out, and every row then reads at most 6
        pres = cable_presentation(2, 3, 2)
        cert = certify_beta(2, 3, 2, 1)
        grown = prove("central_relation", pres, None, Axiom("relator", "central"), [
            Step("multiply", word=Word.single("b", 3), on="right"),
            REDUCE,
            Step("multiply", word=Word.single(MUC, 10**5), on="left"),
        ])
        cert = cert._replace(entries=(grown,) + cert.entries[1:])

        read = []
        real = obstruction.evaluate_sign
        monkeypatch.setattr(
            obstruction, "evaluate_sign", lambda w, sigma: read.append(len(w)) or real(w, sigma)
        )
        obstruction._verdicts.cache_clear()
        report = replay(cert)
        assert not report
        problem = "equation 'central_relation' is not over a, b and t: the letter 'muC' is not a, b or t"
        assert problem in report.problems
        # each distinct letter set is evaluated once per assignment, into the sign table
        assert max(read) <= 6
        assert len(read) % 27 == 0 and len(read) <= 27 * 6
        assert sum(read) < 1_000


@pytest.fixture
def cold_presentations():
    """Start and end with empty presentation caches, so no lemma memo leaks between tests."""
    cable_presentation.cache_clear()
    torus_presentation.cache_clear()
    yield
    cable_presentation.cache_clear()
    torus_presentation.cache_clear()


LEMMA_FACTORIES = ("central_relation_script", "cable_t_power_script", "cable_endpoint_product_script")


def count_lemma_builds(monkeypatch) -> dict[str, int]:
    """Count the calls of each lemma factory, as certify_slope looks them up."""
    builds = dict.fromkeys(LEMMA_FACTORIES, 0)
    for name in LEMMA_FACTORIES:
        real = getattr(proofs, name)

        def counted(*args, real=real, name=name):
            builds[name] += 1
            return real(*args)

        monkeypatch.setattr(proofs, name, functools.wraps(real)(counted))
    return builds


def cert_bytes(cert) -> str:
    return json.dumps(cert.to_json_dict())


@pytest.mark.usefixtures("cold_presentations")
class TestLemmaMemo:
    # pq - 1, pq, an interior slope and a beta at (2, 3, 2), where pq = 22
    SLOPES = (Slope(21, 1), Slope(22, 1), Slope(65, 3), beta_slope(2, 11, 4))

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 2, 0, 3), (3, 0, 1, 2)])
    def test_each_lemma_is_built_once_per_presentation(self, monkeypatch, order):
        builds = count_lemma_builds(monkeypatch)
        made = {}
        for k in order:
            made[k] = cert_bytes(certify_slope(2, 3, 2, self.SLOPES[k]))
        made[4] = cert_bytes(certify_beta(2, 3, 2, 4))
        assert builds == dict.fromkeys(LEMMA_FACTORIES, 1)
        for k, text in made.items():
            cable_presentation.cache_clear()
            torus_presentation.cache_clear()
            fresh = certify_beta(2, 3, 2, 4) if k == 4 else certify_slope(2, 3, 2, self.SLOPES[k])
            assert cert_bytes(fresh) == text, k

    def test_a_cold_certify_builds_only_the_lemmas_its_slope_cites(self, monkeypatch):
        builds = count_lemma_builds(monkeypatch)
        certify_slope(2, 3, 2, Slope(22, 1))
        assert builds == {"central_relation_script": 1, "cable_t_power_script": 1,
                          "cable_endpoint_product_script": 0}
        certify_slope(2, 3, 2, Slope(43, 2))
        assert builds == dict.fromkeys(LEMMA_FACTORIES, 1)

    def test_clearing_the_caches_drops_the_lemmas(self, monkeypatch):
        builds = count_lemma_builds(monkeypatch)
        certify_beta(2, 3, 2, 1)
        certify_beta(2, 3, 2, 1)
        assert builds == dict.fromkeys(LEMMA_FACTORIES, 1)
        cable_presentation.cache_clear()
        torus_presentation.cache_clear()
        certify_beta(2, 3, 2, 1)
        assert builds == dict.fromkeys(LEMMA_FACTORIES, 2)

    @pytest.mark.parametrize("slope", [Slope(24, 1), Slope(20, 1), Slope(1, 1)])
    def test_a_refused_slope_builds_no_lemma(self, monkeypatch, slope):
        # the window is checked before any lemma is proved or encoded
        builds = count_lemma_builds(monkeypatch)
        with pytest.raises(ParameterError, match=r"outside the certified window \[21, 22\]"):
            certify_slope(2, 3, 2, slope)
        assert builds == dict.fromkeys(LEMMA_FACTORIES, 0)
        assert proofs._memo(cable_presentation(2, 3, 2)) == {}

    def test_a_sweep_builds_the_lemmas_once_per_triple(self, monkeypatch, tmp_path):
        builds = count_lemma_builds(monkeypatch)
        assert main(["sweep", "--grid", "x=2;y=3;p=2;beta=1..5", "--out", str(tmp_path)]) == 0
        assert builds == dict.fromkeys(LEMMA_FACTORIES, 1)

    def test_a_presentation_with_lemmas_makes_no_reference_cycle(self):
        pres = cable_presentation(2, 3, 2)
        cert = certify_beta(2, 3, 2, 3)
        assert len(proofs._memo(pres)) == 4  # three lemmas and one refutation table
        gone, key = weakref.ref(pres), id(pres)
        gc.disable()
        try:
            cable_presentation.cache_clear()
            torus_presentation.cache_clear()
            del pres
            assert gone() is None  # freed by reference counting, without the collector
            assert key not in proofs._MEMOS  # and its memo with it
        finally:
            gc.enable()
        # the certificate outlives its presentation and still replays
        assert replay(cert)

    def test_a_presentation_holds_no_container_after_certify(self):
        # certify's memo is kept in proofs: a cached presentation holds only its definitions
        pres = cable_presentation(2, 3, 2)
        for cert in (certify_beta(2, 3, 2, 3), certify_slope(2, 3, 2, Slope(22, 1))):
            certificate_text(cert)
        assert pres is cable_presentation(2, 3, 2)
        held = {name: type(value) for name, value in vars(pres).items() if isinstance(value, (dict, list, set))}
        assert held == {}
        assert len(proofs._memo(pres)) == 5  # three lemmas and two refutation tables


def table_key(pres, cert):
    """The key under which the presentation's memo keeps `cert`'s refutation table."""
    return next(key for key, (part, _) in proofs._memo(pres).items() if part is cert.refutations)


def count_searches(monkeypatch) -> list:
    """The slopes of the refute_all calls certify makes, looked up on the module as certify does."""
    calls = []
    real = obstruction.refute_all

    def counted(equations, pres, slope=None):
        calls.append(slope)
        return real(equations, pres, slope)

    monkeypatch.setattr(obstruction, "refute_all", counted)
    return calls


@pytest.mark.usefixtures("cold_presentations")
class TestTableMemo:
    # the refutation table is kept beside the lemmas, keyed by the surgery
    # equation's id and the signed letters of its sides, and each distinct
    # table is encoded once per process

    @staticmethod
    def certificates(x, y, p):
        """One certificate of each slope kind: pq - 1, pq, an interior slope and a beta >= 2."""
        pq = p * (p * x * y - 1)
        return [
            certify_slope(x, y, p, Slope(pq - 1)), certify_slope(x, y, p, Slope(pq)),
            certify_slope(x, y, p, Slope(3 * pq - 1, 3)), certify_beta(x, y, p, 4),
        ]

    @pytest.mark.parametrize("x,y,p", [(2, 3, 2), (3, 5, 4), (6, 7, 5), (2, 3, 50)])
    def test_kept_rows_match_a_fresh_search(self, x, y, p):
        self.certificates(x, y, p)  # fill the memo
        pres = cable_presentation(x, y, p)
        for cert in self.certificates(x, y, p):
            surgery = cert.entries[-1].equation
            cited = [cert.entries[0].equation, cert.entries[1].equation, surgery]
            assert cert.refutations is proofs._memo(pres)[table_key(pres, cert)][0]
            assert cert.refutations == refute_all(cited, pres, cert.params.slope), surgery.provenance

    def test_each_table_is_searched_once_per_presentation(self, monkeypatch):
        calls = count_searches(monkeypatch)
        for beta in range(1, 7):
            certify_beta(2, 3, 2, beta)
        assert calls == [Slope(21), beta_slope(2, 11, 2)]  # the endpoint table, then the interior one
        self.certificates(2, 3, 2)
        assert calls[2:] == [Slope(22)]  # only the integer slope's table is new
        self.certificates(2, 3, 2)
        for beta in range(1, 7):
            certify_beta(2, 3, 2, beta)
        assert len(calls) == 3
        encoded = proofs._table.cache_info().misses
        other = certify_beta(2, 5, 3, 2)  # another presentation searches its own table
        assert len(calls) == 4
        # but takes the rows and the text of the equal table, encoded once per process
        assert other.refutations is certify_beta(2, 3, 2, 2).refutations
        cable_presentation.cache_clear()
        torus_presentation.cache_clear()
        assert certify_beta(2, 3, 2, 2).refutations is other.refutations and len(calls) == 5
        assert proofs._table.cache_info().misses == encoded

    def test_another_id_or_other_letters_get_another_table(self, monkeypatch):
        calls = count_searches(monkeypatch)
        real = proofs.surgery_t_power_identity_script
        kept = certify_slope(2, 3, 2, Slope(22))  # t^2 = 1
        variants = (
            lambda script: script._replace(script_id="renamed"),
            lambda script: script._replace(claimed_lhs=invert(script.claimed_lhs)),  # t^-2 = 1
        )
        tables = [kept.refutations]
        for change in variants:
            def changed(pres, change=change):
                return CertEntry(change(real(pres).script))

            monkeypatch.setattr(proofs, "surgery_t_power_identity_script", changed)
            tables.append(certify_slope(2, 3, 2, Slope(22)).refutations)
        assert len(calls) == 3
        assert len(set(tables)) == 3
        assert {row.equation_id for row in tables[1]} >= {"renamed"}
        assert [row.lhs_sign for row in tables[2] if row.equation_id == "surgery_t_power_identity"] == [
            {POS: NEG, NEG: POS}[row.lhs_sign] for row in tables[0] if row.equation_id == "surgery_t_power_identity"
        ]

    def test_a_table_text_is_used_only_for_its_own_rows(self):
        cert = certify_beta(2, 3, 2, 2)
        copy_ = cert._replace(refutations=tuple(list(cert.refutations)))  # equal rows, not the memo's tuple
        assert copy_.refutations is not cert.refutations
        reference = TestCertificateText.reference(cert)
        assert certificate_text(copy_) == certificate_text(cert) == reference
        # a marked memo text shows which of the two took it
        pres = cable_presentation(2, 3, 2)
        key = table_key(pres, cert)
        proofs._memo(pres)[key] = (cert.refutations, '"marked"')
        assert certificate_text(cert).endswith(',"refutations":["marked"]}')
        assert certificate_text(copy_) == reference


def assert_cited_sides_over_a_b_t(cert):
    # replay reads the equations that rows cite as written, and refuses one
    # with a defined name: a certificate that cited one would not replay
    cited = {row.equation_id for row in cert.refutations} - {None}
    for entry in cert.entries:
        if entry.entry_id in cited:
            eq = entry.equation
            assert eq.lhs.generators() | eq.rhs.generators() <= {"a", "b", "t"}, (cert.params, eq)
            cited.remove(entry.entry_id)
    assert not cited  # every cited id is an entry


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: f"{path.parent.name}_{path.stem}")
def test_every_fixture_cites_equations_over_a_b_and_t(path):
    assert_cited_sides_over_a_b_t(certificate_from_json_dict(json.loads(path.read_text())))


def muc_power_tamper(n: int) -> ObstructionCertificate:
    """The (2, 3, 2) beta-1 certificate with muC^n multiplied onto both sides of its cited central relation."""
    pres = cable_presentation(2, 3, 2)
    grown = prove("central_relation", pres, None, Axiom("relator", "central"), [
        Step("multiply", word=Word.single("b", 3), on="right"),
        REDUCE,
        Step("multiply", word=Word.single(MUC, n), on="left"),
    ])
    cert = certify_beta(2, 3, 2, 1)
    return cert._replace(entries=(grown,) + cert.entries[1:])


def endpoint_product_tamper() -> dict:
    """A (2, 3, 2) slope-43/2 certificate whose first row cites muC^21 lamC = t a b, as JSON."""
    doc = json.loads(certificate_text(certify_slope(2, 3, 2, Slope(43, 2))))
    assert next(e["lhs"] for e in doc["equations"] if e["id"] == "cable_endpoint_product") == "muC^21 lamC"
    doc["refutations"][0]["reason"]["equation"] = "cable_endpoint_product"
    return doc


class TestCitedSidesAsWritten:
    """A row may cite only an equation over a, b and t, and replay reads its sides as written."""

    def test_the_first_other_letter_is_named(self):
        word = Word.parse("a t lamC^3 muC b")
        with pytest.raises(ValueError, match="^the letter 'lamC' is not a, b or t$"):
            signed_letters(word)
        assert signed_letters(Word.parse("a^3 t^-1 a")) == {("a", 1), ("t", -1)}

    def test_replay_problem_text_does_not_depend_on_the_hash_seed(self, tmp_path):
        # the endpoint product's side has two names, muC and lamC; a set of
        # letters would name either, by the process's string hash
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(endpoint_product_tamper()))
        errs = set()
        for seed in range(4):
            done = subprocess.run([sys.executable, "-m", "cable_order.cli", "replay", str(path)],
                                  capture_output=True, text=True, timeout=60,
                                  env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)})
            assert done.returncode == 2
            errs.add(done.stderr)
        (err,) = errs
        assert err == (
            "replay problem: equation 'cable_endpoint_product' is not over a, b and t: "
            "the letter 'muC' is not a, b or t\n"
            "replay problem: 1 refutation row(s) cite equation 'cable_endpoint_product', "
            "which is not over a, b and t\n"
        )

    def test_replay_memory_does_not_grow_with_a_cited_power(self):
        # a cited muC^N is refused by its letters: nothing of length N is built
        peaks, reports = {}, {}
        for n in (10**4, 10**4, 10**6):  # the first run fills the caches
            cert = muc_power_tamper(n)
            tracemalloc.start()
            try:
                reports[n] = replay(cert)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10**6] - peaks[10**4] < 2**20
        for report in reports.values():
            assert report.problems[0].startswith("equation 'central_relation' is not over a, b and t: ")

    @pytest.mark.usefixtures("cold_presentations")
    def test_load_and_replay_spell_nothing(self, monkeypatch):
        tampered = [json.loads(certificate_text(muc_power_tamper(10**4))), endpoint_product_tamper()]
        docs = [json.loads(path.read_text()) for path in FIXTURES] + tampered
        cable_presentation.cache_clear()  # so replay builds its presentations under the spy below
        torus_presentation.cache_clear()
        calls = []
        expand = GroupPresentation.expand  # the only place a name is written out over a, b and t
        monkeypatch.setattr(GroupPresentation, "expand", lambda pres, w: calls.append(w) or expand(pres, w))
        reports = [replay(certificate_from_json_dict(doc)) for doc in docs]
        assert calls == []
        assert [report.ok for report in reports] == [True] * len(FIXTURES) + [False, False]

    @pytest.mark.usefixtures("cold_presentations")
    @pytest.mark.parametrize("xyp", [(2, 3, 2), (3, 5, 3)], ids=lambda xyp: "x{}_y{}_p{}".format(*xyp))
    def test_certify_expands_only_words_over_a_b_t(self, monkeypatch, xyp):
        # at the four slope kinds: pq - 1, pq and two interior slopes; a named
        # word would make expand write out a name's definition, and the
        # wrapper of expand in bench/spans.py reads `pres.named[g].expansion`,
        # which a name does not have
        calls = []
        expand = GroupPresentation.expand
        monkeypatch.setattr(GroupPresentation, "expand", lambda pres, w: calls.append(w) or expand(pres, w))
        pq = xyp[2] * (xyp[2] * xyp[0] * xyp[1] - 1)
        slopes = (Slope(pq - 1, 1), Slope(pq, 1), Slope(2 * pq - 1, 2), Slope(3 * pq - 2, 3))
        certs = [certify_slope(*xyp, slope) for slope in slopes] + [certify_beta(*xyp, 5)]
        assert all(isinstance(cert, ObstructionCertificate) for cert in certs)
        assert calls and all(w.generators() <= {"a", "b", "t"} for w in calls)


class TestCertificateText:
    """`certificate_text` writes exactly the compact dump of `to_json_dict`, from parts encoded once."""

    @staticmethod
    def reference(cert) -> str:
        return json.dumps(cert.to_json_dict(), separators=(",", ":"))

    def test_grid_certificate_bytes_are_pinned(self):
        # the acceptance grid of test_cli.py::TestFormat, written by the writer itself
        triples = [
            (x, y, p) for x in range(2, 8) for y in range(x + 1, 8) if gcd(x, y) == 1 for p in range(2, 6)
        ]
        texts = []

        def write(cert):
            assert_cited_sides_over_a_b_t(cert)
            texts.append(certificate_text(cert) + "\n")

        for x, y, p in triples:
            for beta in range(1, 26):
                write(certify_beta(x, y, p, beta))
        for x, y, p in triples:
            pq = p * (p * x * y - 1)
            for slope in (Slope(pq - 1, 1), Slope(pq, 1), Slope(2 * pq - 1, 2), Slope(3 * pq - 2, 3)):
                write(certify_slope(x, y, p, slope))
        assert len(texts) == 1276
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == "ab242a0c0679ab1ec367a1644fa9ae3ec293ac5e019f9fb8dbb7cc3d03d91184"

    def test_grid_certificate_bytes_are_pinned_when_every_certify_is_cold(self):
        # the grid above, with both presentation caches cleared before each
        # certificate, as in one fresh `certify` process per certificate: the
        # lemmas, the table and their texts are all built again every time
        triples = [
            (x, y, p) for x in range(2, 8) for y in range(x + 1, 8) if gcd(x, y) == 1 for p in range(2, 6)
        ]
        calls = [(certify_beta, (x, y, p, beta)) for x, y, p in triples for beta in range(1, 26)]
        for x, y, p in triples:
            pq = p * (p * x * y - 1)
            for slope in (Slope(pq - 1, 1), Slope(pq, 1), Slope(2 * pq - 1, 2), Slope(3 * pq - 2, 3)):
                calls.append((certify_slope, (x, y, p, slope)))
        texts = []
        for certify, args in calls:
            cable_presentation.cache_clear()
            torus_presentation.cache_clear()
            texts.append(certificate_text(certify(*args)) + "\n")
        assert len(texts) == 1276
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == "ab242a0c0679ab1ec367a1644fa9ae3ec293ac5e019f9fb8dbb7cc3d03d91184"

    def test_the_compact_encoder_is_json_dumps_with_or_without_the_c_encoder(self, monkeypatch):
        doc = {**certify_beta(2, 3, 2, 3).to_json_dict(), "text": "\u00e9\"\\", "none": [None, True, -1]}
        text = proofs._compact(doc)
        assert text == json.dumps(doc, separators=(",", ":"))
        monkeypatch.setattr(proofs, "_C_ENCODE", None)  # an interpreter without CPython's C encoder
        assert proofs._compact(doc) == text

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda path: f"{path.parent.name}_{path.stem}")
    def test_a_loaded_certificate_is_written_as_its_dict(self, path):
        cert = certificate_from_json_dict(json.loads(path.read_text()))
        assert certificate_text(cert) == self.reference(cert)

    @pytest.mark.usefixtures("cold_presentations")
    def test_no_stale_lemma_text_after_the_caches_are_cleared(self):
        kept = [certify_beta(2, 3, 2, 4), certify_slope(2, 3, 2, Slope(22, 1))]
        for cert in kept:
            assert certificate_text(cert) == self.reference(cert)
        cable_presentation.cache_clear()
        torus_presentation.cache_clear()
        # the new presentation's memo holds other entries, which the kept certificates do not list
        fresh = certify_beta(2, 3, 2, 5)
        for cert in [*kept, fresh]:
            assert certificate_text(cert) == self.reference(cert)

    @pytest.mark.usefixtures("cold_presentations")
    def test_a_lemma_text_is_used_only_for_its_own_entry(self):
        cert = certify_beta(2, 3, 2, 2)
        entries = tuple(CertEntry(script_from_json_dict(script_to_json_dict(e.script))) for e in cert.entries)
        copy_ = cert._replace(entries=entries)  # equal entries, none of them the memo's object
        assert certificate_text(copy_) == certificate_text(cert) == self.reference(cert)
        # a marked memo text shows which of the two took it
        memo = proofs._memo(cable_presentation(2, 3, 2))
        entry, _ = memo["central_relation_script"]
        memo["central_relation_script"] = (entry, '"marked"')
        assert '"equations":["marked",' in certificate_text(cert)
        assert certificate_text(copy_) == self.reference(cert)

    def test_renamed_rows_are_written_as_their_dicts(self):
        cert = certify_beta(2, 3, 2, 2)
        rows = list(cert.refutations)
        for k in range(40):  # over a thousand distinct rows, none of them a memo's
            renamed = tuple(row if row.equation_id is None else row._replace(equation_id=f"e{k}") for row in rows)
            copy_ = cert._replace(refutations=renamed)
            assert certificate_text(copy_) == self.reference(copy_)


class TestAssignments:
    def test_enumeration(self):
        assignments = all_sign_assignments()
        assert assignments is all_sign_assignments()  # built once
        assert len(assignments) == len(set(assignments)) == 27
        assert assignments[0] == ALL_POS
        assert assignments[-1] == SignAssignment(ZERO, ZERO, ZERO)

    def test_validation(self):
        with pytest.raises(ValueError):
            SignAssignment("up", POS, NEG)


SIGNED_LETTERS = [(g, e) for g in "abt" for e in (1, -1)]


class TestSignTable:
    def test_table_matches_evaluate_sign_on_every_letter_set(self):
        assignments = all_sign_assignments()
        for bits in range(64):
            letters = frozenset(s for i, s in enumerate(SIGNED_LETTERS) if bits >> i & 1)
            verdicts = obstruction._verdicts(letters)
            assert len(verdicts) == 27
            for k, sigma in enumerate(assignments):
                assert verdicts[k] == evaluate_sign(letters, sigma), (sorted(letters), sigma)

    def test_a_letter_off_the_generators_raises_and_is_not_stored(self):
        before = obstruction._verdicts.cache_info().currsize
        with pytest.raises(ValueError, match="concrete word"):
            obstruction._verdicts(frozenset({("a", 1), ("mu", 1)}))
        assert obstruction._verdicts.cache_info().currsize == before

    def test_the_table_stays_within_64_letter_sets(self):
        for x, y, p in ((2, 3, 2), (2, 5, 3), (3, 4, 2), (3, 7, 3)):
            for beta in (1, 2, 9):
                cert = certify_beta(x, y, p, beta)
                assert replay(certificate_from_json_dict(cert.to_json_dict()))
        assert obstruction._verdicts.cache_info().currsize <= 64


class TestRowLoader:
    def beta_doc(self):
        return json.loads(json.dumps(certify_beta(2, 3, 2, 7).to_json_dict()))

    def test_loaded_assignments_are_the_prebuilt_ones(self):
        cert = certificate_from_json_dict(self.beta_doc())
        assert [row.assignment for row in cert.refutations] == list(all_sign_assignments())
        for row in cert.refutations:
            assert any(row.assignment is sigma for sigma in all_sign_assignments())

    @pytest.mark.parametrize("bad", ["up", [], {}, "x" * 10_000], ids=["string", "list", "object", "long"])
    def test_a_value_that_is_not_a_sign_is_a_load_error(self, bad):
        doc = self.beta_doc()
        doc["refutations"][3]["assignment"]["b"] = bad
        with pytest.raises(ValueError) as err:
            certificate_from_json_dict(doc)
        assert str(err.value) == f"bad sign {bad!r:.40}"

    def test_a_missing_sign_is_a_load_error(self):
        doc = self.beta_doc()
        del doc["refutations"][3]["assignment"]["t"]
        with pytest.raises(ValueError, match="keys a, b and t"):
            certificate_from_json_dict(doc)

    def test_rows_are_records_with_the_same_json(self):
        cert = certify_beta(2, 3, 2, 7)
        loaded = certificate_from_json_dict(cert.to_json_dict())
        assert loaded.refutations == cert.refutations
        row = loaded.refutations[0]
        assert row._fields == ("assignment", "equation_id", "lhs_sign", "rhs_sign")
        assert [r.to_json_dict() for r in loaded.refutations] == cert.to_json_dict()["refutations"]

    def test_entry_sides_reuse_the_claimed_words_only_when_the_texts_match(self):
        # an entry's sides are its script's claimed words; a side text that
        # differs from the script's is a load error, not a second word
        doc = self.beta_doc()
        cert = certificate_from_json_dict(doc)
        for entry in cert.entries:
            assert entry.equation.lhs is entry.script.claimed_lhs
            assert entry.equation.rhs is entry.script.claimed_rhs
        doc["equations"][1]["lhs"] = "a b"
        with pytest.raises(ValueError, match="the lhs of equation 'cable_t_power' differs from its script's"):
            certificate_from_json_dict(doc)
