import dataclasses
import json

import pytest

from cable_order import derivations, obstruction
from cable_order.derivations import (
    Axiom,
    Context,
    DerivationScript,
    Equation,
    Step,
    StepError,
    admit,
    apply_step,
    cable_endpoint_product_script,
    cable_t_power_script,
    central_relation_script,
    check_script,
    iter_states,
    meridian_shift_script,
    script_from_json_dict,
    script_to_json_dict,
    surgery_central_power_script,
    surgery_interior_combination_script,
    surgery_t_inverse_power_script,
    surgery_t_power_identity_script,
    surgery_endpoint_identity_script,
)
from cable_order.normal_form import eliminate_t, equal_in_torus_group
from cable_order.presentations import (
    cable_presentation,
    surgery_relator,
)
from cable_order.slopes import Slope, beta_slope
from cable_order.words import Word, concat
from helpers import ab_vector, in_integer_span


def state_of(lhs: str, rhs: str):
    return list(Word.parse(lhs).syllables), list(Word.parse(rhs).syllables)


def prove_chain(pres, *factories):
    env = {}
    for factory in factories:
        script = factory(pres) if factory.__code__.co_argcount == 1 else factory(pres, env)
        eq = check_script(script, pres, env)
        env[script.script_id] = eq
    return env


class TestBuiltinChains:
    def test_t_power_instance(self):
        pres = cable_presentation(2, 3, 2)
        eq = check_script(cable_t_power_script(pres), pres, {})
        assert (eq.lhs, eq.rhs) == (Word.parse("t^2"), Word.parse("a^3 b"))
        assert eq.context == Context("G")
        assert eq.provenance == "cable_t_power"

    def test_t_inverse_power_instance(self):
        pres = cable_presentation(2, 3, 2)
        env = {}
        for factory in (central_relation_script, cable_t_power_script):
            s = factory(pres)
            env[s.script_id] = check_script(s, pres, env)
        s = surgery_central_power_script(pres, 1)
        env[s.script_id] = check_script(s, pres, env)
        s = surgery_t_inverse_power_script(pres, 1, env)
        eq = check_script(s, pres, env)
        assert (eq.lhs, eq.rhs) == (Word.parse("t^-1"), Word.parse("a b"))

    def test_central_power_instances(self):
        pres = cable_presentation(2, 3, 2)
        eq = check_script(surgery_central_power_script(pres, 2), pres, {})
        assert (eq.lhs, eq.rhs) == (Word.parse("t^5"), Word.parse("a^2"))
        eq = check_script(surgery_central_power_script(pres, 25), pres, {})
        assert eq.lhs == Word.parse("t^51")

    def test_endpoint_product_instance(self):
        pres = cable_presentation(2, 3, 2)
        env = prove_chain(pres, central_relation_script, cable_t_power_script)
        eq = check_script(cable_endpoint_product_script(pres, env), pres, env)
        assert (eq.lhs, eq.rhs) == (Word.parse("muC^21 lamC"), Word.parse("t a b"))

    def test_central_relation(self):
        pres = cable_presentation(3, 5, 2)
        eq = check_script(central_relation_script(pres), pres, {})
        assert (eq.lhs, eq.rhs) == (Word.parse("a^3"), Word.parse("b^5"))

    def test_surgery_axiom_scripts_collapse(self):
        pres = cable_presentation(2, 3, 2)
        eq = check_script(surgery_t_power_identity_script(pres), pres, {})
        assert (eq.lhs, eq.rhs) == (Word.parse("t^2"), Word.identity())
        env = prove_chain(pres, central_relation_script, cable_t_power_script)
        env["cable_endpoint_product"] = check_script(
            cable_endpoint_product_script(pres, env), pres, env
        )
        eq = check_script(surgery_endpoint_identity_script(pres, env), pres, env)
        assert (eq.lhs, eq.rhs) == (Word.parse("t a b"), Word.identity())
        eq = check_script(
            surgery_interior_combination_script(pres, Slope(43, 2), env), pres, env
        )
        assert (eq.lhs, eq.rhs) == (Word.parse("t a b t^2"), Word.identity())

    def test_replay_determinism(self):
        pres = cable_presentation(3, 4, 3)
        s = surgery_central_power_script(pres, 4)
        assert check_script(s, pres, {}) == check_script(s, pres, {})


class TestStepValidation:
    # apply_step takes the script's context and its cited, proven equations
    def test_unlicensed_commutation(self):
        pres = cable_presentation(2, 3, 2)
        step = Step(kind="swap", side="lhs", position=0, left=("a", 1), right=("b", 1))
        with pytest.raises(StepError, match="not licensed"):
            apply_step(state_of("a b", "a b"), step, pres, Context("G"), {})

    def test_licensed_commutation(self):
        pres = cable_presentation(2, 3, 2)
        step = Step(kind="swap", side="lhs", position=0, left=("b", -1), right=("a", 4))
        lhs, _ = apply_step(state_of("b^-1 a^4", "b^-1 a^4"), step, pres, Context("G"), {})
        assert lhs == [("a", 4), ("b", -1)]

    def test_swap_carves_syllables(self):
        pres = cable_presentation(2, 3, 2)
        step = Step(kind="swap", side="lhs", position=0, left=("mu", 6), right=("lam", 1))
        lhs, _ = apply_step(state_of("mu^11 lam^2", "t^2"), step, pres, Context("G"), {})
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
        lhs, _ = apply_step(state_of("t^4", "t^4"), step, pres, Context("G"), {})
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
            apply_step(state_of("a", "a"), step, pres, Context("G"), {})

    def test_position_out_of_range(self):
        pres = cable_presentation(2, 3, 2)
        step = Step(kind="definition", name="mu", side="lhs", position=5, direction="expand")
        with pytest.raises(StepError, match="out of range"):
            apply_step(state_of("a", "a"), step, pres, Context("G"), {})

    def test_cited_equation_insertion(self):
        pres = cable_presentation(2, 3, 2)
        cited = prove_chain(pres, central_relation_script)  # a^2 = b^3
        step = Step(kind="relation", ref=("equation", "central_relation"), side="rhs",
                    position=0, direction="forward", anchor="before")
        _, rhs = apply_step(state_of("b", "b"), step, pres, Context("G"), cited)
        assert rhs == [("a", -2), ("b", 3), ("b", 1)]
        with pytest.raises(StepError, match="not cited"):
            apply_step(state_of("b", "b"), step, pres, Context("G"), {})

    def test_forged_claim_rejected(self):
        pres = cable_presentation(2, 3, 2)
        script = cable_t_power_script(pres)
        forged = dataclasses.replace(script, claimed_rhs=Word.parse("a^3 b^2"))
        with pytest.raises(StepError, match="claimed result mismatch") as err:
            check_script(forged, pres, {})
        assert err.value.index == len(script.steps)

    def test_citation_requires_matching_quotient(self):
        pres = cable_presentation(2, 3, 2)
        foreign = Equation(
            Word.parse("t^2"), Word.identity(), Context("H", Slope(22, 1)), "foreign"
        )
        script = DerivationScript(
            script_id="bad_cite",
            context=Context("H", Slope(21, 1)),
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
            context=Context("G"),
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
        ],
        ids=lambda step: step.kind,
    )
    def test_rejected_step_leaves_state_unchanged(self, step):
        # collect and definition1-2 (fold) are no longer step forms: rejected too
        pres = cable_presentation(2, 3, 2)
        lhs, rhs = [("mu", 11), ("lam", 2), ("t", -2)], [("b", -1), ("a", 2)]
        state = (lhs, rhs)
        with pytest.raises(StepError):
            apply_step(state, step, pres, Context("G"), {})
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
        obstruction.certify_slope(2, 5, 3, Slope(2 * 87 - 1, 2))  # p*q = 87
        cert = obstruction.certify_beta(2, 5, 3, 4)
        assert calls == []
        monkeypatch.setattr(obstruction, "check_script", counted)
        assert obstruction.replay(cert)
        assert calls == [entry.script for entry in cert.entries]

    def test_replaced_built_script_is_checked_in_full(self, monkeypatch):
        real = obstruction.surgery_central_power_script

        def forged(pres, beta):
            return dataclasses.replace(real(pres, beta), claimed_rhs=Word.parse("a^5"))

        monkeypatch.setattr(obstruction, "surgery_central_power_script", forged)
        with pytest.raises(StepError, match="claimed result mismatch"):
            obstruction.certify_beta(2, 3, 2, 3)

    def test_built_script_is_checked_when_its_citations_differ(self):
        pres = cable_presentation(2, 3, 2)
        env = {}
        admit(central_relation_script(pres), pres, env)
        admit(cable_t_power_script(pres), pres, env)
        forged = dataclasses.replace(env["cable_t_power"], rhs=Word.parse("a^4 b"))
        forged_env = dict(env, cable_t_power=forged)
        script = cable_endpoint_product_script(pres, forged_env)
        assert script.claimed_rhs == Word.parse("t a^2 b")
        with pytest.raises(StepError, match="claimed result mismatch"):
            admit(script, pres, env)

    def test_built_script_is_checked_against_another_presentation(self):
        script = surgery_central_power_script(cable_presentation(2, 3, 2), 2)
        other = cable_presentation(2, 3, 2, 9, theorem_mode=False)
        with pytest.raises(StepError):
            admit(script, other, {})


class TestConservativity:
    # the derivation checker and the torus normal form must never disagree
    def test_t_power_chain_vs_normal_form(self):
        for x, y in [(2, 3), (2, 5), (3, 4), (3, 5)]:
            for p in (2, 3):
                pres = cable_presentation(x, y, p)
                eq = check_script(cable_t_power_script(pres), pres, {})
                lhs_ab = eliminate_t(eq.lhs, pres)
                assert equal_in_torus_group(lhs_ab, eq.rhs, x, y), (x, y, p)

    def test_endpoint_product_tail_vs_normal_form(self):
        for x, y in [(2, 3), (3, 5)]:
            for p in (2, 3):
                pres = cable_presentation(x, y, p)
                env = prove_chain(pres, central_relation_script, cable_t_power_script)
                eq = check_script(cable_endpoint_product_script(pres, env), pres, env)
                assert eq.rhs.syllables[0] == ("t", 1)
                tail = Word(eq.rhs.syllables[1:])
                lhs_ab = concat(
                    Word.single("a", -x), eliminate_t(Word.single("t", p), pres)
                )
                assert equal_in_torus_group(lhs_ab, tail, x, y), (x, y, p)


class TestAbelianizationInvariance:
    def _lattice(self, pres, slope):
        cols = [
            ab_vector(pres.relator("central").word),
            ab_vector(pres.relator("cable").word),
        ]
        if slope is not None:
            cols.append(ab_vector(surgery_relator(pres, slope)))
        return cols

    def _check_states(self, pres, script, env):
        cols = self._lattice(pres, script.context.slope)
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
        for entry in obstruction.certify_beta(x, y, p, beta).entries:
            self._check_states(pres, entry.script, env)
        self._check_states(pres, cable_endpoint_product_script(pres, env), env)


class TestMeridianShift:
    def test_shift_scripts(self):
        pres = cable_presentation(2, 3, 2)
        for k in (-3, -1, 0, 1, 3):
            eq = check_script(meridian_shift_script(pres, k), pres, {})
            assert eq.lhs == Word.parse("muC")
            u, v = 6 + 11 * k, 1 + 2 * k
            assert eq.rhs == Word.from_pairs([("mu", u), ("lam", v), ("t", -v)])


class TestSerialization:
    def test_round_trip(self):
        pres = cable_presentation(2, 3, 2)
        env = prove_chain(pres, central_relation_script, cable_t_power_script)
        scripts = [e.script for e in obstruction.certify_beta(2, 3, 2, 2).entries]
        for script in scripts + [cable_endpoint_product_script(pres, env)]:
            doc = script_to_json_dict(script)
            again = script_from_json_dict(json.loads(json.dumps(doc)))
            assert again == script

    def test_byte_stable(self):
        pres = cable_presentation(2, 3, 2)
        s = cable_t_power_script(pres)
        d1 = json.dumps(script_to_json_dict(s), indent=2)
        d2 = json.dumps(script_to_json_dict(cable_t_power_script(pres)), indent=2)
        assert d1 == d2

    def test_steps_are_immutable(self):
        step = cable_t_power_script(cable_presentation(2, 3, 2)).steps[3]
        for field in Step._fields:
            with pytest.raises(AttributeError):
                setattr(step, field, None)

    def test_step_load_checks_hold(self):
        good = {"kind": "swap", "side": "lhs", "position": 0, "left": ["a", 3], "right": ["b", 1]}
        assert Step.from_json_dict(good) == Step("swap", "lhs", 0, left=("a", 3), right=("b", 1))
        for key, value in [("position", "0"), ("name", 5), ("left", ["a", "3"]), ("right", ["b"]),
                           ("word", 5), ("ref", {"type": "relator", "name": None})]:
            with pytest.raises(ValueError):
                Step.from_json_dict({**good, key: value})


class TestRebuiltScripts:
    # a script rebuilt from JSON carries no derived equation, so admit checks it in full
    def test_corrupted_json_fails_with_step_index(self):
        pres = cable_presentation(2, 3, 2)
        doc = script_to_json_dict(cable_t_power_script(pres))
        step = doc["steps"][3]
        assert step["kind"] == "swap"
        step["position"] += 1
        script = script_from_json_dict(json.loads(json.dumps(doc)))
        with pytest.raises(StepError, match=r"step 3: ") as err:
            admit(script, pres, {})
        assert err.value.index == 3

    def test_faithful_json_round_trip_is_checked_in_full(self, monkeypatch):
        pres = cable_presentation(2, 3, 2)
        built = cable_t_power_script(pres)
        rebuilt = script_from_json_dict(json.loads(json.dumps(script_to_json_dict(built))))
        calls = []
        check = derivations.check_script

        def counted(script, *args):
            calls.append(script)
            return check(script, *args)

        monkeypatch.setattr(derivations, "check_script", counted)
        env = {}
        eq = admit(rebuilt, pres, env)
        assert calls == [rebuilt]
        assert eq == admit(built, pres, {}) and env == {"cable_t_power": eq}
        assert calls == [rebuilt]
