import hashlib
import json
import random
from math import gcd

import pytest

from cable_order import derivations, obstruction, proofs
from cable_order.derivations import (
    Axiom,
    DerivationScript,
    Equation,
    Step,
    StepError,
    apply_step,
    check_script,
    iter_states,
    side_cap,
    script_from_json_dict,
    script_to_json_dict,
)
from cable_order.normal_form import eliminate_t, equal_in_torus_group
from cable_order.presentations import (
    LAMC,
    MUC,
    cable_presentation,
    surgery_named_form,
)
from cable_order.proofs import (
    cable_endpoint_product_script,
    cable_t_power_script,
    central_relation_script,
    meridian_shift_script,
    prove,
    surgery_interior_combination_script,
    surgery_t_power_identity_script,
    surgery_endpoint_identity_script,
)
from cable_order.slopes import Slope
from cable_order.words import Word, concat
from helpers import ab_vector, in_integer_span, swap_expand_interior_script, swap_expand_t_power_script


def state_of(lhs: str, rhs: str):
    return list(Word.parse(lhs).syllables), list(Word.parse(rhs).syllables)


def prove_chain(pres, *factories):
    env = {}
    for factory in factories:
        script = (factory(pres) if factory.__code__.co_argcount == 1 else factory(pres, env)).script
        eq = check_script(script, pres, env)
        env[script.script_id] = eq
    return env


class TestBuiltinChains:
    def test_t_power_instance(self):
        pres = cable_presentation(2, 3, 2)
        eq = check_script(cable_t_power_script(pres).script, pres, {})
        assert (eq.lhs, eq.rhs) == (Word.parse("t^2"), Word.parse("a^3 b"))
        assert eq.slope is None
        assert eq.provenance == "cable_t_power"

    def test_interior_combination_instances(self):
        # the beta slopes 43/2 and 549/25 and a slope with d0 = 2; eight steps each
        pres = cable_presentation(2, 3, 2)
        env = prove_chain(pres, central_relation_script, cable_t_power_script, cable_endpoint_product_script)
        for slope, lhs in [
            (Slope(43, 2), "t a b t^2"),
            (Slope(549, 25), "t a b t^48"),
            (Slope(152, 7), "t a b t a b t^10"),
        ]:
            script = surgery_interior_combination_script(pres, slope, env).script
            eq = check_script(script, pres, env)
            assert (eq.lhs, eq.rhs) == (Word.parse(lhs), Word.identity())
            assert len(script.steps) == 8

    def test_endpoint_product_instance(self):
        pres = cable_presentation(2, 3, 2)
        env = prove_chain(pres, central_relation_script, cable_t_power_script)
        eq = check_script(cable_endpoint_product_script(pres, env).script, pres, env)
        assert (eq.lhs, eq.rhs) == (Word.parse("muC^21 lamC"), Word.parse("t a b"))

    def test_central_relation(self):
        pres = cable_presentation(3, 5, 2)
        eq = check_script(central_relation_script(pres).script, pres, {})
        assert (eq.lhs, eq.rhs) == (Word.parse("a^3"), Word.parse("b^5"))

    def test_surgery_axiom_scripts_collapse(self):
        pres = cable_presentation(2, 3, 2)
        eq = check_script(surgery_t_power_identity_script(pres).script, pres, {})
        assert (eq.lhs, eq.rhs) == (Word.parse("t^2"), Word.identity())
        env = prove_chain(pres, central_relation_script, cable_t_power_script)
        env["cable_endpoint_product"] = check_script(
            cable_endpoint_product_script(pres, env).script, pres, env
        )
        eq = check_script(surgery_endpoint_identity_script(pres, env).script, pres, env)
        assert (eq.lhs, eq.rhs) == (Word.parse("t a b"), Word.identity())
        eq = check_script(
            surgery_interior_combination_script(pres, Slope(43, 2), env).script, pres, env
        )
        assert (eq.lhs, eq.rhs) == (Word.parse("t a b t^2"), Word.identity())

    def test_replay_determinism(self):
        pres = cable_presentation(3, 4, 3)
        env = prove_chain(pres, central_relation_script, cable_t_power_script, cable_endpoint_product_script)
        s = surgery_interior_combination_script(pres, Slope(4 * 3 * 35 - 1, 4), env).script
        assert check_script(s, pres, env) == check_script(s, pres, env)


class TestStepValidation:
    # apply_step takes the script's context and its cited, proven equations
    def test_unlicensed_commutation(self):
        pres = cable_presentation(2, 3, 2)
        step = Step(kind="swap", side="lhs", position=0, left=("a", 1), right=("b", 1))
        with pytest.raises(StepError, match="not licensed"):
            apply_step(state_of("a b", "a b"), step, pres, None, {})

    def test_builder_step_error_names_its_index_and_script(self):
        pres = cable_presentation(2, 3, 2)
        steps = [Step("multiply", word=Word.parse("a b"), on="left"),
                 Step("swap", "lhs", 0, left=("a", 1), right=("b", 1))]
        with pytest.raises(StepError, match="not licensed") as err:
            prove("x", pres, None, Axiom("relator", "central"), steps)
        assert err.value.index == 1
        assert str(err.value).startswith("step 1: ") and "'x'" in str(err.value)

    def test_licensed_commutation(self):
        pres = cable_presentation(2, 3, 2)
        step = Step(kind="swap", side="lhs", position=0, left=("b", -1), right=("a", 4))
        lhs, _ = apply_step(state_of("b^-1 a^4", "b^-1 a^4"), step, pres, None, {})
        assert lhs == [("a", 4), ("b", -1)]

    def test_swap_carves_syllables(self):
        pres = cable_presentation(2, 3, 2)
        step = Step(kind="swap", side="lhs", position=0, left=("mu", 6), right=("lam", 1))
        lhs, _ = apply_step(state_of("mu^11 lam^2", "t^2"), step, pres, None, {})
        assert lhs == [("mu", 5), ("lam", 1), ("mu", 6), ("lam", 1)]

    def test_relator_insertion_inside_t_run(self):
        # t^4 becomes t^4 * (cable relator), a valid rewriting of the same element
        pres = cable_presentation(2, 3, 2)
        step = Step(
            kind="relation",
            ref=("relator", "cable"),
            side="lhs",
            position=1,
            direction="backward",
            anchor="after",
        )
        lhs, _ = apply_step(state_of("t^4", "t^4"), step, pres, None, {})
        assert lhs == [("t", 4), ("mu", 11), ("lam", 2), ("t", -2)]

    def test_relator_mismatch(self):
        pres = cable_presentation(2, 3, 2)
        step = Step(
            kind="relation",
            ref=("relator", "nope"),
            side="lhs",
            position=0,
            direction="forward",
            anchor="before",
        )
        with pytest.raises(StepError, match="relator mismatch"):
            apply_step(state_of("a", "a"), step, pres, None, {})

    def test_position_out_of_range(self):
        pres = cable_presentation(2, 3, 2)
        step = Step(kind="definition", name="mu", side="lhs", position=5, direction="expand")
        with pytest.raises(StepError, match="out of range"):
            apply_step(state_of("a", "a"), step, pres, None, {})

    def test_cited_equation_insertion(self):
        pres = cable_presentation(2, 3, 2)
        cited = prove_chain(pres, central_relation_script)  # a^2 = b^3
        step = Step(kind="relation", ref=("equation", "central_relation"), side="rhs",
                    position=0, direction="forward", anchor="before")
        _, rhs = apply_step(state_of("b", "b"), step, pres, None, cited)
        assert rhs == [("a", -2), ("b", 3), ("b", 1)]
        with pytest.raises(StepError, match="not cited"):
            apply_step(state_of("b", "b"), step, pres, None, {})

    def test_forged_claim_rejected(self):
        pres = cable_presentation(2, 3, 2)
        script = cable_t_power_script(pres).script
        forged = script._replace(claimed_rhs=Word.parse("a^3 b^2"))
        with pytest.raises(StepError, match="claimed result mismatch") as err:
            check_script(forged, pres, {})
        assert err.value.index == len(script.steps)

    def test_citation_requires_matching_quotient(self):
        pres = cable_presentation(2, 3, 2)
        foreign = Equation(
            Word.parse("t^2"), Word.identity(), Slope(22, 1), "foreign"
        )
        script = DerivationScript(
            script_id="bad_cite",
            slope=Slope(21, 1),
            axiom=Axiom("surgery"),
            steps=(
                Step(
                    kind="relation",
                    ref=("equation", "foreign"),
                    side="lhs",
                    position=0,
                    direction="forward",
                    anchor="before",
                ),
            ),
            claimed_lhs=Word.parse("muC^21 lamC"),
            claimed_rhs=Word.identity(),
            cites=("foreign",),
        )
        with pytest.raises(StepError, match="different quotient"):
            check_script(script, pres, {"foreign": foreign})

    def test_uncited_equation_rejected(self):
        pres = cable_presentation(2, 3, 2)
        env = prove_chain(pres, central_relation_script)
        script = DerivationScript(
            script_id="no_cite",
            slope=None,
            axiom=Axiom("relator", "central"),
            steps=(
                Step(
                    kind="relation",
                    ref=("equation", "central_relation"),
                    side="lhs",
                    position=0,
                    direction="forward",
                    anchor="before",
                ),
            ),
            claimed_lhs=Word.parse("a^2"),
            claimed_rhs=Word.identity(),
            cites=(),
        )
        with pytest.raises(StepError, match="not cited"):
            check_script(script, pres, env)

    @pytest.mark.parametrize(
        "step",
        [
            Step(kind="swap", side="lhs", position=1, left=("mu", 6), right=("lam", 1)),
            Step(kind="swap", side="lhs", position=0, left=("mu", 6), right=("t", 1)),
            Step(kind="swap", side="lhs", position=0, left=(["mu"], 6), right=("lam", 1)),
            Step(kind="collect", side="lhs", position=0),
            Step(kind="collect", side="rhs", position=1),
            Step(kind="definition", name="lam", side="lhs", position=0, direction="expand"),
            Step(kind="definition", name="mu", side="rhs", position=0, direction="fold"),
            Step(kind="definition", name="mu", side="rhs", position=1, direction="fold"),
            Step(kind="relation", ref=("relator", "cable"), side="lhs", position=4,
                 direction="forward", anchor="before"),
            Step(kind="relation", ref=("relator", "cable"), side="rhs", position=0,
                 direction="forward", anchor="middle"),
            Step(kind="relation", ref=("equation", "central_relation"), side="lhs", position=0,
                 direction="forward", anchor="before"),
            # kinds and forms outside the step language
            Step(kind="power"),
            Step(kind="reduce", side="lhs"),
            Step(kind="reduce"),
            Step(kind="multiply", on="left"),
            Step(kind="multiply", on="middle", word=Word.parse("a")),
            Step(kind="relation", side="lhs", position=0, direction="forward", anchor="before"),
            # the exponent forms, and steps past the cap of 20 syllables per side
            Step(kind="relation", ref=("relator", "cable"), side="lhs", position=0,
                 direction="forward", anchor="before", n=8),
            Step(kind="relation", ref=("relator", "cable"), side="lhs", position=0,
                 direction="forward", anchor="before", n=0),
            Step(kind="multiply", on="left", word=Word.parse(" ".join(["a b"] * 11))),
            Step(kind="definition", name="mu", side="lhs", position=0, direction="expand"),
            Step(kind="commute", side="lhs", position=0, name="mu"),
            Step(kind="commute", side="lhs", position=1, name="muC"),
            Step(kind="commute", side="lhs", position=0, name="lamC"),
            Step(kind="commute", side="lhs", position=0),
            Step(kind="commute", side="lhs", position=0, name="lamC", word=Word.parse("mu^11"), n=1),
            Step(kind="commute", side="lhs", position=0, word=Word.parse("mu^11 lam^2"), n=2),
            Step(kind="commute", side="lhs", position=0, word=Word.parse("mu^11 lam"), n=1),
            Step(kind="commute", side="lhs", position=0, word=Word.parse("mu^11"), n=0),
            Step(kind="commute", side="lhs", position=1, word=Word.parse("lam^2 t^-2 lam"), n=1),
        ],
        ids=lambda step: step.kind,
    )
    def test_rejected_step_leaves_state_unchanged(self, step):
        # collect and definition1-2 (fold) are no longer step forms: rejected too
        pres = cable_presentation(2, 3, 2)
        lhs, rhs = [("mu", 11), ("lam", 2), ("t", -2)], [("b", -1), ("a", 2)]
        state = (lhs, rhs)
        with pytest.raises(StepError):
            apply_step(state, step, pres, None, {}, cap=20)
        assert state[0] is lhs and state[1] is rhs
        assert state == ([("mu", 11), ("lam", 2), ("t", -2)], [("b", -1), ("a", 2)])


class TestCheckOnce:
    def test_built_scripts_are_not_checked_again(self, monkeypatch):
        calls = []
        check = derivations.check_script

        def counted(script, *args):
            calls.append(script)
            return check(script, *args)

        monkeypatch.setattr(derivations, "check_script", counted)
        monkeypatch.setattr(obstruction, "check_script", counted)
        first = proofs.certify_slope(2, 5, 3, Slope(2 * 87 - 1, 2))  # p*q = 87
        cert = proofs.certify_beta(2, 5, 3, 4)  # over the lemmas `first` built
        assert calls == []
        # each entry's equation is the one its script proves
        pres = cable_presentation(2, 5, 3)
        for c in (first, cert):
            env = {}
            for entry in c.entries:
                assert check(entry.script, pres, env) == entry.equation
                env[entry.entry_id] = entry.equation
        assert obstruction.replay(cert)
        assert calls == [entry.script for entry in cert.entries]


class TestConservativity:
    # the derivation checker and the torus normal form must never disagree
    def test_t_power_chain_vs_normal_form(self):
        for x, y in [(2, 3), (2, 5), (3, 4), (3, 5)]:
            for p in (2, 3):
                pres = cable_presentation(x, y, p)
                eq = check_script(cable_t_power_script(pres).script, pres, {})
                lhs_ab = eliminate_t(eq.lhs, pres)
                assert equal_in_torus_group(lhs_ab, eq.rhs, x, y), (x, y, p)

    def test_endpoint_product_tail_vs_normal_form(self):
        for x, y in [(2, 3), (3, 5)]:
            for p in (2, 3):
                pres = cable_presentation(x, y, p)
                env = prove_chain(pres, central_relation_script, cable_t_power_script)
                eq = check_script(cable_endpoint_product_script(pres, env).script, pres, env)
                assert eq.rhs.syllables[0] == ("t", 1)
                tail = Word(eq.rhs.syllables[1:])
                lhs_ab = concat(
                    Word.single("a", -x), eliminate_t(Word.single("t", p), pres)
                )
                assert equal_in_torus_group(lhs_ab, tail, x, y), (x, y, p)


class TestAbelianizationInvariance:
    def _lattice(self, pres, slope):
        cols = [
            ab_vector(pres.expand(pres.relators["central"])),
            ab_vector(pres.expand(pres.relators["cable"])),
        ]
        if slope is not None:
            cols.append(ab_vector(pres.expand(surgery_named_form(pres, slope))))
        return cols

    def _check_states(self, pres, script, env):
        cols = self._lattice(pres, script.slope)
        for state in iter_states(script, pres, env):
            lhs = ab_vector(pres.expand(Word.from_pairs(state[0])))
            rhs = ab_vector(pres.expand(Word.from_pairs(state[1])))
            diff = tuple(l - r for l, r in zip(lhs, rhs))
            assert in_integer_span(cols, diff), (script.script_id, state)
        env[script.script_id] = check_script(script, pres, env)

    @pytest.mark.parametrize("x,y,p,beta", [(2, 3, 2, 2), (3, 5, 3, 1), (2, 5, 2, 3)])
    def test_every_state_stays_in_lattice(self, x, y, p, beta):
        pres = cable_presentation(x, y, p)
        env = {}
        for entry in proofs.certify_beta(x, y, p, beta).entries:
            self._check_states(pres, entry.script, env)
        self._check_states(pres, cable_endpoint_product_script(pres, env).script, env)


class TestExponentForms:
    # the commute and relation-exponent steps against the chains of single steps they replace
    def test_collected_lamc_power_matches_expand_and_swaps(self):
        pres = cable_presentation(2, 3, 2)
        slope = Slope(43, 2)
        for e in range(-6, 7):
            if e == 0:
                continue  # lamC^0 is no syllable
            collected = apply_step(
                ([(LAMC, e)], []), Step(kind="commute", side="lhs", position=0, name=LAMC), pres, slope, {}
            )
            state = apply_step(
                ([(LAMC, e)], []),
                Step(kind="definition", name=LAMC, side="lhs", position=0, direction="expand"),
                pres, slope, {},
            )
            lhs = state[0]
            moved = True
            while moved:  # carry each t^(+-2) right past the muC-syllables: (muC, t^p) is licensed
                moved = False
                for i in range(len(lhs) - 1):
                    if lhs[i][0] == "t" and lhs[i + 1][0] == MUC:
                        step = Step(kind="swap", side="lhs", position=i, left=lhs[i], right=lhs[i + 1])
                        apply_step(state, step, pres, slope, {})
                        moved = True
            apply_step(state, Step(kind="reduce", side="both"), pres, slope, {})
            assert collected == state == ([(MUC, -22 * e), ("t", 2 * e)], []), e

    def test_new_proof_matches_the_swap_expand_chain(self):
        rng = random.Random(1610)
        pairs = [(x, y) for x in range(2, 7) for y in range(x + 1, 8) if gcd(x, y) == 1]
        for _ in range(40):
            x, y = rng.choice(pairs)
            p = rng.randint(2, 5)
            n = rng.randint(2, 12)
            k = rng.choice([k for k in range(1, n) if gcd(k, n) == 1])
            pq = p * (p * x * y - 1)
            slope = Slope((pq - 1) * n + k, n)
            pres = cable_presentation(x, y, p)
            env = prove_chain(pres, central_relation_script, cable_t_power_script, cable_endpoint_product_script)
            new = surgery_interior_combination_script(pres, slope, env).script
            old = swap_expand_interior_script(pres, slope, env)
            assert check_script(new, pres, env) == check_script(old, pres, env), (x, y, p, str(slope))
            assert len(new.steps) == 8 and len(old.steps) == 2 * n

    def test_collected_t_power_matches_the_swap_expand_chain(self):
        pairs = [(x, y) for x in range(2, 11) for y in range(x + 1, 12) if gcd(x, y) == 1]
        for x, y in pairs:
            for p in (*range(2, 12), 50, 97):
                pres = cable_presentation(x, y, p)
                new, old = cable_t_power_script(pres).script, swap_expand_t_power_script(pres)
                assert check_script(new, pres, {}) == check_script(old, pres, {}), (x, y, p)
                assert len(new.steps) == 8 and len(old.steps) == 2 * p + 6

    def test_step_count_does_not_grow_with_p(self):
        for x, y, p in ((2, 3, 2), (11, 13, 9), (2, 3, 50), (2, 3, 97)):
            pq = p * (p * x * y - 1)
            counts = [
                sum(len(entry.script.steps) for entry in cert.entries)
                for cert in (
                    proofs.certify_beta(x, y, p, 7),
                    proofs.certify_slope(x, y, p, Slope(pq, 1)),
                    proofs.certify_slope(x, y, p, Slope(pq - 1, 1)),
                )
            ]
            assert counts == [25, 12, 19], (x, y, p)

    def test_run_collapse_needs_the_licence_of_every_pair(self):
        pres = cable_presentation(2, 3, 2)
        slope = None
        run = Step(kind="commute", side="lhs", position=0, word=Word.parse("muC^2 lamC^-1"), n=2)
        lhs, _ = apply_step(state_of("muC^2 lamC^-1 muC^2 lamC^-1 a", "a"), run, pres, slope, {})
        assert lhs == [(MUC, 4), (LAMC, -2), ("a", 1)]
        unlicensed = Step(kind="commute", side="lhs", position=0, word=Word.parse("a b"), n=2)
        with pytest.raises(StepError, match="not licensed"):
            apply_step(state_of("a b a b", "1"), unlicensed, pres, slope, {})

    def test_relation_exponent_inserts_powers(self):
        pres = cable_presentation(2, 3, 2)
        cited = prove_chain(pres, central_relation_script)  # a^2 = b^3
        step = Step(kind="relation", ref=("equation", "central_relation"), side="lhs", position=1,
                    direction="forward", anchor="after", n=3)
        slope = Slope(64, 3)
        lhs, _ = apply_step(([("t", 1), ("t", -1)], []), step, pres, slope, cited)
        assert lhs == [("t", 1), ("b", 9), ("a", -6), ("t", -1)]
        with pytest.raises(StepError, match="a side of 7 syllables; the cap is 6"):
            apply_step(([("t", 1)], []), step, pres, slope, cited, cap=6)

    def test_side_cap_follows_the_size_of_the_script(self):
        pres = cable_presentation(2, 3, 2)
        script = cable_t_power_script(pres).script  # 8 steps, 2 syllables of words, 3 claimed
        assert side_cap(script) == 4 * (8 + 2 + 3) + 16
        padded = script._replace(steps=script.steps + (Step(kind="invert"),) * 5)
        assert side_cap(padded) == side_cap(script) + 20

    def test_side_cap_does_not_follow_the_claimed_slope(self):
        # a certificate names its own slope: at d0 = 1, beta 7 and beta 10^9 have the same caps
        caps = [
            [side_cap(entry.script) for entry in proofs.certify_beta(2, 3, 2, beta).entries]
            for beta in (7, 10**9)
        ]
        assert caps[0] == caps[1] and max(caps[0]) < 100

    def test_checked_script_is_held_to_its_cap(self):
        pres = cable_presentation(2, 3, 2)
        script = cable_t_power_script(pres).script
        spelled = Step(kind="multiply", on="left", word=Word.parse("lam^50"))
        expand = Step(kind="definition", name="lam", side="lhs", position=0, direction="expand")
        probe = script._replace(steps=script.steps + (spelled, expand))
        with pytest.raises(StepError, match="a side of 101 syllables; the cap is 80") as err:
            check_script(probe, pres, {})
        assert err.value.index == 9

    def test_builder_is_not_capped(self):
        # factory scripts are trusted code; the shift proofs grow with |k| and
        # are never written into a certificate
        pres = cable_presentation(2, 3, 2)
        script = meridian_shift_script(pres, -8).script  # 6 steps per shift
        assert len(script.steps) == 48
        assert check_script(script, pres, {}).rhs == Word.parse("mu^-82 lam^-15 t^15")


class TestMeridianShift:
    def test_shift_scripts(self):
        pres = cable_presentation(2, 3, 2)
        for k in (-3, -1, 0, 1, 3):
            eq = check_script(meridian_shift_script(pres, k).script, pres, {})
            assert eq.lhs == Word.parse("muC")
            u, v = 6 + 11 * k, 1 + 2 * k
            assert eq.rhs == Word.from_pairs([("mu", u), ("lam", v), ("t", -v)])

    def test_shift_script_steps_are_pinned(self):
        # no certificate carries a shift script, so no certificate pin covers these steps
        text = "".join(
            json.dumps(script_to_json_dict(meridian_shift_script(cable_presentation(*xyp), k).script),
                       separators=(",", ":"))
            for xyp in ((2, 3, 2), (3, 5, 3))
            for k in range(-3, 4)
        )
        digest = "87ff0ec4f30da14ea9b49d591ab1d289a1f350d5804570e84fedc6c3e6663f49"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSerialization:
    def test_round_trip(self):
        pres = cable_presentation(2, 3, 2)
        env = prove_chain(pres, central_relation_script, cable_t_power_script)
        scripts = [e.script for e in proofs.certify_beta(2, 3, 2, 2).entries]
        for script in scripts + [cable_endpoint_product_script(pres, env).script]:
            doc = script_to_json_dict(script)
            again = script_from_json_dict(json.loads(json.dumps(doc)))
            assert again == script

    def test_byte_stable(self):
        pres = cable_presentation(2, 3, 2)
        s = cable_t_power_script(pres).script
        d1 = json.dumps(script_to_json_dict(s), indent=2)
        d2 = json.dumps(script_to_json_dict(cable_t_power_script(pres).script), indent=2)
        assert d1 == d2

    def test_steps_are_immutable(self):
        step = cable_t_power_script(cable_presentation(2, 3, 2)).script.steps[3]
        for field in Step._fields:
            with pytest.raises(AttributeError):
                setattr(step, field, None)

    def test_the_factories_build_the_steps_their_keywords_name(self):
        # proofs builds each step as its tuple of twelve fields, skipping Step's keyword arguments
        word, ref = Word.parse("lam^-2 mu^-11"), ("equation", "cable_t_power")
        assert proofs._multiply(word, "left") == Step("multiply", word=word, on="left")
        assert proofs._swap("rhs", 1, ("b", 1), ("a", 4)) == Step("swap", "rhs", 1, left=("b", 1), right=("a", 4))
        assert proofs._expand("lhs", 0, "mu") == Step("definition", "lhs", 0, name="mu", direction="expand")
        assert proofs._relation("rhs", 3, ref, "forward", "after", 2) == Step(
            "relation", "rhs", 3, ref=ref, direction="forward", anchor="after", n=2)
        assert proofs._commute("lhs", 1, "lamC") == Step("commute", "lhs", 1, name="lamC")
        assert proofs._commute("lhs", 4, None, word, 3) == Step("commute", "lhs", 4, word=word, n=3)
        assert proofs.INVERT == Step("invert")
        assert all(type(step) is Step for step in (proofs._swap("lhs", 0, ("a", 1), ("b", 1)), proofs.INVERT))

    def test_steps_carry_only_what_the_checker_reads(self):
        assert len(Step._fields) == 12 and "why" not in Step._fields
        doc = proofs.certify_slope(2, 3, 2, Slope(43, 2)).to_json_dict()
        assert not any("why" in step for entry in doc["equations"] for step in entry["script"]["steps"])

    def test_step_load_checks_hold(self):
        good = {"kind": "swap", "side": "lhs", "position": 0, "left": ["a", 3], "right": ["b", 1]}
        assert Step.from_json_dict(good) == Step("swap", "lhs", 0, left=("a", 3), right=("b", 1))
        for key, value in [("position", "0"), ("name", 5), ("left", ["a", "3"]), ("right", ["b"]),
                           ("word", 5), ("ref", {"type": "relator", "name": None})]:
            with pytest.raises(ValueError):
                Step.from_json_dict({**good, key: value})


class TestRebuiltScripts:
    # a script rebuilt from JSON comes without its equation: check_script derives it
    def test_corrupted_json_fails_with_step_index(self):
        pres = cable_presentation(2, 3, 2)
        doc = script_to_json_dict(cable_t_power_script(pres).script)
        step = doc["steps"][6]
        assert step["kind"] == "swap"
        step["position"] += 1
        script = script_from_json_dict(json.loads(json.dumps(doc)))
        with pytest.raises(StepError, match=r"step 6: ") as err:
            check_script(script, pres, {})
        assert err.value.index == 6

    def test_faithful_json_round_trip_is_checked_in_full(self):
        pres = cable_presentation(2, 3, 2)
        built = cable_t_power_script(pres)
        rebuilt = script_from_json_dict(json.loads(json.dumps(script_to_json_dict(built.script))))
        assert rebuilt == built.script
        assert check_script(rebuilt, pres, {}) == built.equation
