"""A miniature proof checker for word-rewriting derivations.

A derivation script starts from an axiom (a presentation relator set to the
identity, a defining equation, or the surgery relator in a quotient group)
and applies a sequence of elementary steps, each of which preserves truth of
the equation in the context group:

* inserting a relator, or a previously proven equation combined into an
  identity-valued word, at a syllable boundary;
* expanding or folding a defined element (mu, lam, muC, lamC);
* swapping two adjacent syllable runs, only when the presentation's
  commutation whitelist licenses the pair;
* free reduction and power collection;
* multiplying both sides by one word, raising both sides to a power, or
  inverting both sides.

The checker is a dumb verifier: scripts are generated per parameter instance
with concrete exponents spliced in, and replaying the steps must reproduce
the claimed equation exactly.  Mid-derivation words may be temporarily
unreduced (adjacent syllables on the same generator are allowed); explicit
reduction steps normalize them.  Steps edit the state in place, so checking
a script costs time linear in its number of steps, not steps times length.

Every proof is checked exactly once.  :class:`ScriptBuilder` runs each step
through :func:`apply_step` as it emits it, and the script that
:meth:`ScriptBuilder.finish` returns carries the equation so derived; that
equation is admitted without a second pass.  Any other script, whether read
from a file, rebuilt from JSON or made by ``dataclasses.replace``, carries
no derived equation and is checked in full by :func:`check_script`, as is
every script in a certificate under replay.

Equations proven in the knot group G hold in every surgery quotient H and may
be cited there; equations proven in some H may only be cited at the same
surgery slope.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .presentations import (
    LAM,
    LAMC,
    MU,
    MUC,
    GroupPresentation,
    ParameterError,
    cable_presentation,
    surgery_named_form,
)
from .slopes import Slope, beta_slope, cramer
from .words import Syllable, Word, _reduce, invert

SCRIPT_DIR_ENV = "CABLE_ORDER_SCRIPT_DIR"

LHS, RHS = "lhs", "rhs"


class StepError(Exception):
    """A derivation step failed to apply or the final claim did not match."""

    def __init__(self, reason: str, index: int | None = None):
        self.reason = reason
        self.index = index
        super().__init__(reason if index is None else f"step {index}: {reason}")


@dataclass(frozen=True, slots=True)
class Context:
    kind: str  # "G" (knot group) or "H" (surgery quotient)
    slope: Slope | None = None

    def __post_init__(self) -> None:
        if self.kind == "G" and self.slope is not None:
            raise ValueError("knot-group context carries no slope")
        if self.kind == "H" and self.slope is None:
            raise ValueError("surgery context requires a slope")
        if self.kind not in ("G", "H"):
            raise ValueError(f"unknown context {self.kind!r}")


@dataclass(frozen=True, slots=True)
class Equation:
    lhs: Word
    rhs: Word
    context: Context
    provenance: str = ""


@dataclass(frozen=True, slots=True)
class Step:
    kind: str
    side: str | None = None
    position: int | None = None
    word: Word | None = None
    name: str | None = None
    ref: tuple[str, str] | None = None  # ("relator" | "equation", name)
    direction: str | None = None
    anchor: str | None = None
    left: Syllable | None = None
    right: Syllable | None = None
    on: str | None = None  # multiply: attach side, "left" | "right"
    n: int | None = None
    why: str = ""

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for key in ("side", "position", "name", "direction", "anchor", "on", "n"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.word is not None:
            out["word"] = str(self.word)
        if self.ref is not None:
            out["ref"] = {"type": self.ref[0], "name": self.ref[1]}
        if self.left is not None:
            out["left"] = [self.left[0], self.left[1]]
        if self.right is not None:
            out["right"] = [self.right[0], self.right[1]]
        if self.why:
            out["why"] = self.why
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "Step":
        return Step(
            kind=d["kind"],
            side=d.get("side"),
            position=d.get("position"),
            word=Word.parse(d["word"]) if "word" in d else None,
            name=d.get("name"),
            ref=(d["ref"]["type"], d["ref"]["name"]) if "ref" in d else None,
            direction=d.get("direction"),
            anchor=d.get("anchor"),
            left=tuple(d["left"]) if "left" in d else None,
            right=tuple(d["right"]) if "right" in d else None,
            on=d.get("on"),
            n=d.get("n"),
            why=d.get("why", ""),
        )


@dataclass(frozen=True, slots=True)
class Axiom:
    kind: str  # "relator" | "definition" | "surgery"
    name: str | None = None


@dataclass(frozen=True)
class _Derivation:
    """What :class:`ScriptBuilder` saw while it checked a script step by step."""

    pres: GroupPresentation
    cited: tuple[tuple[str, Equation], ...]  # the cited equations it had in hand
    equation: Equation


@dataclass(frozen=True)
class DerivationScript:
    script_id: str
    context: Context
    axiom: Axiom
    steps: tuple[Step, ...]
    claimed_lhs: Word
    claimed_rhs: Word
    cites: tuple[str, ...] = ()
    # set only by ScriptBuilder.finish(); init=False keeps every other way of
    # making a script, dataclasses.replace included, from carrying one
    _derivation: _Derivation | None = field(default=None, init=False, repr=False, compare=False)


# ---------------------------------------------------------------------------
# step application

State = tuple[list[Syllable], list[Syllable]]


def _invert_raw(syls: Sequence[Syllable]) -> list[Syllable]:
    return [(g, -e) for g, e in reversed(syls)]


def _resolve_ref(
    step: Step,
    pres: GroupPresentation,
    script: DerivationScript,
    env: dict[str, Equation],
) -> tuple[Word, Word]:
    assert step.ref is not None
    kind, name = step.ref
    if kind == "relator":
        try:
            rel = pres.relator(name)
        except KeyError:
            raise StepError(f"relator mismatch: no relator {name!r}") from None
        return rel.named_form, Word.identity()
    if kind == "equation":
        if name not in script.cites:
            raise StepError(f"equation {name!r} is not cited by the script")
        if name not in env:
            raise StepError(f"cited equation {name!r} has not been proven")
        eq = env[name]
        if eq.context.kind == "H" and eq.context != script.context:
            raise StepError(f"equation {name!r} was proven in a different quotient")
        return eq.lhs, eq.rhs
    raise StepError(f"unknown reference kind {kind!r}")


def _side_index(step: Step) -> int:
    if step.side == LHS:
        return 0
    if step.side == RHS:
        return 1
    raise StepError(f"bad side {step.side!r}")


def apply_step(
    state: State,
    step: Step,
    pres: GroupPresentation,
    script: DerivationScript,
    env: dict[str, Equation],
) -> State:
    """Apply one step to `state` in place and return it; raises StepError on any violation.

    Every check runs before the first edit, so a rejected step leaves the
    state unchanged.  The two sides must be distinct lists.
    """
    lhs, rhs = state

    if step.kind == "invert":
        lhs[:] = _invert_raw(lhs)
        rhs[:] = _invert_raw(rhs)
        return state

    if step.kind == "multiply":
        assert step.word is not None
        unknown = step.word.generators() - pres.letters()
        if unknown:
            raise StepError(f"unknown generators {sorted(unknown)} in multiplier")
        ws = step.word.syllables
        if step.on == "left":
            lhs[:0] = ws
            rhs[:0] = ws
        elif step.on == "right":
            lhs.extend(ws)
            rhs.extend(ws)
        else:
            raise StepError(f"bad multiplication side {step.on!r}")
        return state

    if step.kind == "power":
        if not step.n:
            raise StepError("power step requires a nonzero exponent")
        if step.n > 0:
            lhs[:] = lhs * step.n
            rhs[:] = rhs * step.n
        else:
            lhs[:] = _invert_raw(lhs) * -step.n
            rhs[:] = _invert_raw(rhs) * -step.n
        return state

    if step.kind == "reduce":
        targets = state if step.side in (None, "both") else (state[_side_index(step)],)
        for syls in targets:
            syls[:] = _reduce(syls)
        return state

    # remaining kinds replace one slice of a single named side
    syls = state[_side_index(step)]
    pos = step.position
    if pos is None:
        raise StepError("step requires a position")

    if step.kind == "collect":
        if not (0 <= pos < len(syls) - 1):
            raise StepError("position out of range")
        (g1, e1), (g2, e2) = syls[pos], syls[pos + 1]
        if g1 != g2:
            raise StepError("collect requires adjacent syllables on one generator")
        syls[pos : pos + 2] = [] if e1 + e2 == 0 else [(g1, e1 + e2)]

    elif step.kind == "swap":
        if step.left is None or step.right is None:
            raise StepError("swap requires both operands")
        (g1, e1), (g2, e2) = step.left, step.right
        if not (isinstance(g1, str) and isinstance(g2, str)):
            raise StepError("swap operands must name generators")
        if e1 == 0 or e2 == 0 or g1 == g2:
            raise StepError("swap operands must be distinct generators with nonzero exponents")
        if not pres.commutes((g1, e1), (g2, e2)):
            raise StepError(f"commutation of {g1}^{e1} and {g2}^{e2} is not licensed")
        if not (0 <= pos < len(syls) - 1):
            raise StepError("position out of range")
        ga, ea = syls[pos]
        gb, eb = syls[pos + 1]
        if ga != g1 or gb != g2:
            raise StepError("swap operands do not match the word")
        # the left operand is carved off the right edge of its syllable, the
        # right operand off the left edge of the next
        left_rem = [] if ea == e1 else [(g1, ea - e1)]
        right_rem = [] if eb == e2 else [(g2, eb - e2)]
        syls[pos : pos + 2] = left_rem + [(g2, e2), (g1, e1)] + right_rem

    elif step.kind == "definition":
        if step.name not in pres.named:
            raise StepError(f"unknown defined element {step.name!r}")
        definition = pres.named[step.name].definition.syllables
        if step.direction == "expand":
            if not (0 <= pos < len(syls)):
                raise StepError("position out of range")
            g, e = syls[pos]
            if g != step.name:
                raise StepError(f"syllable at position {pos} is not {step.name}")
            base = definition if e > 0 else _invert_raw(definition)
            syls[pos : pos + 1] = base * abs(e)
        elif step.direction == "fold":
            n = len(definition)
            if not (0 <= pos and pos + n <= len(syls)):
                raise StepError("position out of range")
            window = syls[pos : pos + n]
            if window == list(definition):
                exp = 1
            elif window == _invert_raw(definition):
                exp = -1
            else:
                raise StepError(f"definition of {step.name} does not match at position {pos}")
            syls[pos : pos + n] = [(step.name, exp)]
        else:
            raise StepError(f"bad definition direction {step.direction!r}")

    elif step.kind == "relation":
        L, R = _resolve_ref(step, pres, script, env)
        if step.direction == "forward":
            x_word, y_word = L, R
        elif step.direction == "backward":
            x_word, y_word = R, L
        else:
            raise StepError(f"bad relation direction {step.direction!r}")
        if step.anchor == "before":
            ins = invert(x_word).syllables + y_word.syllables
        elif step.anchor == "after":
            ins = y_word.syllables + invert(x_word).syllables
        else:
            raise StepError(f"bad relation anchor {step.anchor!r}")
        if not (0 <= pos <= len(syls)):
            raise StepError("position out of range")
        syls[pos:pos] = ins

    else:
        raise StepError(f"unknown step kind {step.kind!r}")

    return state


def axiom_state(script: DerivationScript, pres: GroupPresentation) -> State:
    ax = script.axiom
    if ax.kind == "relator":
        assert ax.name is not None
        try:
            rel = pres.relator(ax.name)
        except KeyError:
            raise StepError(f"relator mismatch: no relator {ax.name!r}") from None
        return list(rel.named_form.syllables), []
    if ax.kind == "definition":
        if ax.name not in pres.named:
            raise StepError(f"no defined element {ax.name!r}")
        return [(ax.name, 1)], list(pres.named[ax.name].definition.syllables)
    if ax.kind == "surgery":
        if script.context.kind != "H":
            raise StepError("the surgery relator is only an axiom in a surgery quotient")
        assert script.context.slope is not None
        return list(surgery_named_form(pres, script.context.slope).syllables), []
    raise StepError(f"unknown axiom kind {ax.kind!r}")


def check_step(
    eq: Equation,
    step: Step,
    pres: GroupPresentation,
    env: dict[str, Equation] | None = None,
) -> State:
    """Apply a single step to a reduced equation; returns the raw new state."""
    carrier = DerivationScript(
        script_id="<adhoc>",
        context=eq.context,
        axiom=Axiom("relator", "central"),
        steps=(step,),
        claimed_lhs=eq.lhs,
        claimed_rhs=eq.rhs,
        cites=tuple(env) if env else (),
    )
    state = (list(eq.lhs.syllables), list(eq.rhs.syllables))
    return apply_step(state, step, pres, carrier, env or {})


def iter_states(
    script: DerivationScript, pres: GroupPresentation, env: dict[str, Equation] | None = None
):
    """Yield the derivation state after the axiom and after every step.

    The state yielded is live: the next step edits the same two lists in
    place.  Copy it to keep it past the next iteration.
    """
    env = env or {}
    state = axiom_state(script, pres)
    yield state
    for idx, step in enumerate(script.steps):
        try:
            state = apply_step(state, step, pres, script, env)
        except StepError as err:
            raise StepError(err.reason, index=idx) from None
        yield state


def check_script(
    script: DerivationScript, pres: GroupPresentation, env: dict[str, Equation] | None = None
) -> Equation:
    """Replay a script; on success return its proven equation.

    Fails atomically with the index of the first bad step.  The final state
    must match the claimed equation syllable for syllable.  Scripts that
    :class:`ScriptBuilder` did not derive, such as overrides and the entries
    of a certificate under replay, are checked here in full.
    """
    state = None
    for state in iter_states(script, pres, env):
        pass
    assert state is not None
    if tuple(state[0]) != script.claimed_lhs.syllables or tuple(state[1]) != script.claimed_rhs.syllables:
        raise StepError(
            f"claimed result mismatch: derived {Word(tuple(state[0]))} = {Word(tuple(state[1]))}, "
            f"claimed {script.claimed_lhs} = {script.claimed_rhs}",
            index=len(script.steps),
        )
    return Equation(script.claimed_lhs, script.claimed_rhs, script.context, provenance=script.script_id)


# ---------------------------------------------------------------------------
# script construction

class ScriptBuilder:
    """Emit steps while checking them, so positions are always concrete.

    Every emitted step goes through :func:`apply_step`, which is the checker
    itself; :meth:`finish` hands the derived equation on with the script, so
    :func:`admit` need not replay it.
    """

    def __init__(
        self,
        script_id: str,
        pres: GroupPresentation,
        context: Context,
        axiom: Axiom,
        cites: tuple[str, ...] = (),
        env: dict[str, Equation] | None = None,
    ):
        self.script_id = script_id
        self.pres = pres
        self.context = context
        self.axiom = axiom
        self.cites = cites
        self.env = env or {}
        self._steps: list[Step] = []
        self._carrier = DerivationScript(script_id, context, axiom, (), Word(), Word(), cites)
        self._state = axiom_state(self._carrier, pres)

    def _emit(self, step: Step) -> None:
        apply_step(self._state, step, self.pres, self._carrier, self.env)
        self._steps.append(step)

    def multiply(self, on: str, word: Word, why: str = "") -> None:
        self._emit(Step(kind="multiply", on=on, word=word, why=why))

    def invert_sides(self, why: str = "") -> None:
        self._emit(Step(kind="invert", why=why))

    def power_sides(self, n: int, why: str = "") -> None:
        self._emit(Step(kind="power", n=n, why=why))

    def reduce(self, side: str = "both") -> None:
        self._emit(Step(kind="reduce", side=side))

    def collect(self, side: str, position: int, why: str = "") -> None:
        self._emit(Step(kind="collect", side=side, position=position, why=why))

    def swap(self, side: str, position: int, left: Syllable, right: Syllable, why: str = "") -> None:
        self._emit(Step(kind="swap", side=side, position=position, left=left, right=right, why=why))

    def expand(self, name: str, side: str, position: int, why: str = "") -> None:
        self._emit(Step(kind="definition", name=name, side=side, position=position, direction="expand", why=why))

    def insert_relator(self, name: str, side: str, position: int, inverse: bool = False, why: str = "") -> None:
        self._emit(
            Step(
                kind="relation",
                ref=("relator", name),
                side=side,
                position=position,
                direction="forward" if inverse else "backward",
                anchor="before",
                why=why,
            )
        )

    def insert_equation(
        self, eq_id: str, side: str, position: int, direction: str, anchor: str, why: str = ""
    ) -> None:
        self._emit(
            Step(
                kind="relation",
                ref=("equation", eq_id),
                side=side,
                position=position,
                direction=direction,
                anchor=anchor,
                why=why,
            )
        )

    def finish(self) -> DerivationScript:
        lhs, rhs = (tuple(side) for side in self._state)
        if _reduce(lhs) != lhs or _reduce(rhs) != rhs:
            raise AssertionError("script must end on a reduced state")
        script = DerivationScript(
            self.script_id,
            self.context,
            self.axiom,
            tuple(self._steps),
            Word(lhs),
            Word(rhs),
            self.cites,
        )
        derived = _Derivation(
            self.pres,
            tuple((c, self.env[c]) for c in self.cites if c in self.env),
            Equation(Word(lhs), Word(rhs), self.context, provenance=self.script_id),
        )
        object.__setattr__(script, "_derivation", derived)
        return script


def central_relation_script(pres: GroupPresentation) -> DerivationScript:
    """a^x = b^y, read off the central relator."""
    b = ScriptBuilder("central_relation", pres, Context("G"), Axiom("relator", "central"))
    b.multiply("right", Word.single("b", pres.y), why="move the b-power to the other side")
    b.reduce()
    return b.finish()


def _emit_t_power_chain(b: ScriptBuilder) -> None:
    """From the cable relator, rewrite t^p into a word over a and b."""
    pres = b.pres
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    x, y = pres.x, pres.y
    xy = x * y
    i, j = pres.torus_bezout
    b.multiply(
        "left",
        Word.from_pairs([(LAM, -p), (MU, -q)]),
        why="isolate the t-power",
    )
    b.reduce()
    b.invert_sides(why="orient the equation with the t-power on the left")
    for k in range(1, p):
        b.swap(
            RHS,
            2 * (k - 1),
            left=(MU, (p - k) * xy),
            right=(LAM, 1),
            why="meridian and longitude commute",
        )
    for pos in range(2 * p - 1, 0, -2):
        b.expand(LAM, RHS, pos, why="longitude definition")
    b.reduce()
    b.expand(MU, RHS, 0, why="meridian definition")
    b.swap(RHS, 1, left=("b", -j), right=("a", x * p), why="powers of a^x pass every b-power")
    b.reduce()


def cable_t_power_script(pres: GroupPresentation) -> DerivationScript:
    """t^p = a^(xp-i) b^(-j) in the cable group."""
    if not pres.theorem_mode:
        raise ParameterError("this derivation needs q = p*x*y - 1")
    b = ScriptBuilder("cable_t_power", pres, Context("G"), Axiom("relator", "cable"))
    _emit_t_power_chain(b)
    return b.finish()


def _surgery_context(pres: GroupPresentation, beta: int) -> Context:
    assert pres.p is not None and pres.q is not None
    return Context("H", beta_slope(pres.p, pres.q, beta))


def _emit_surgery_collapse(b: ScriptBuilder, beta: int) -> None:
    """From muC^(pq*beta-1) lamC^beta = 1 down to t^(p*beta+v) = mu^u lam^v."""
    pres = b.pres
    p, q = pres.p, pres.q
    assert p is not None and q is not None and pres.cable_bezout is not None
    u, v = pres.cable_bezout
    b.multiply("left", Word.single(MUC), why="complete the meridian power")
    b.reduce()
    for k in range(1, beta):
        b.swap(
            LHS,
            2 * (k - 1),
            left=(MUC, (beta - k) * p * q),
            right=(LAMC, 1),
            why="cable peripherals commute",
        )
    for g in range(beta - 1, -1, -1):
        b.expand(LAMC, LHS, 2 * g + 1, why="cable longitude definition")
    b.reduce()
    b.expand(MUC, RHS, 0, why="cable meridian definition")
    b.multiply("right", Word.single("t", v), why="cancel the trailing t-power")
    b.reduce()


def surgery_peripheral_power_script(pres: GroupPresentation, beta: int) -> DerivationScript:
    """t^(p*beta+v) = mu^u lam^v in the surgery quotient at slope pq - 1/beta."""
    b = ScriptBuilder(
        "surgery_peripheral_power", pres, _surgery_context(pres, beta), Axiom("surgery")
    )
    _emit_surgery_collapse(b, beta)
    return b.finish()


def surgery_central_power_script(pres: GroupPresentation, beta: int) -> DerivationScript:
    """t^(p*beta+1) = a^x in the surgery quotient (theorem-mode parameters)."""
    if not pres.theorem_mode:
        raise ParameterError("this derivation needs the normalization u = x*y, v = 1")
    b = ScriptBuilder(
        "surgery_central_power", pres, _surgery_context(pres, beta), Axiom("surgery")
    )
    _emit_surgery_collapse(b, beta)
    b.expand(LAM, RHS, 1, why="longitude definition")
    b.reduce()
    return b.finish()


def surgery_t_inverse_power_script(
    pres: GroupPresentation, beta: int, env: dict[str, Equation]
) -> DerivationScript:
    """t^-(p(beta-1)+1) = a^((p-1)x-i) b^(-j): a negative t-power equal to a positive word."""
    p = pres.p
    assert p is not None
    b = ScriptBuilder(
        "surgery_t_inverse_power",
        pres,
        _surgery_context(pres, beta),
        Axiom("relator", "cable"),
        cites=("surgery_central_power",),
        env=env,
    )
    _emit_t_power_chain(b)
    b.multiply("left", Word.single("t", -(p * beta + 1)), why="divide by the central power identity")
    b.reduce()
    b.insert_equation(
        "surgery_central_power",
        RHS,
        1,
        direction="backward",
        anchor="after",
        why="replace the inverse t-power by the inverse central power",
    )
    b.reduce()
    return b.finish()


def cable_endpoint_product_script(
    pres: GroupPresentation, env: dict[str, Equation]
) -> DerivationScript:
    """muC^(pq-1) lamC = t a^(x(p-1)-i) b^(-j) in the cable group."""
    if not pres.theorem_mode:
        raise ParameterError("this derivation needs the normalization u = x*y, v = 1")
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    b = ScriptBuilder(
        "cable_endpoint_product",
        pres,
        Context("G"),
        Axiom("definition", LAMC),
        cites=("cable_t_power",),
        env=env,
    )
    b.multiply("left", Word.single(MUC, p * q - 1), why="form the product below the full power")
    b.reduce()
    b.expand(MUC, RHS, 0, why="cable meridian definition")
    b.expand(LAM, RHS, 1, why="longitude definition")
    b.reduce()
    b.insert_equation(
        "cable_t_power",
        RHS,
        3,
        direction="forward",
        anchor="before",
        why="rewrite the t-power over a and b",
    )
    b.reduce()
    return b.finish()


def surgery_t_power_identity_script(pres: GroupPresentation) -> DerivationScript:
    """t^p = 1 in the quotient at the integer slope pq."""
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    ctx = Context("H", Slope(p * q, 1))
    b = ScriptBuilder("surgery_t_power_identity", pres, ctx, Axiom("surgery"))
    b.expand(LAMC, LHS, 1, why="cable longitude definition")
    b.reduce()
    return b.finish()


def surgery_endpoint_identity_script(
    pres: GroupPresentation, env: dict[str, Equation]
) -> DerivationScript:
    """t a^(x(p-1)-i) b^(-j) = 1 in the quotient at the integer slope pq - 1."""
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    ctx = Context("H", Slope(p * q - 1, 1))
    b = ScriptBuilder(
        "surgery_endpoint_identity",
        pres,
        ctx,
        Axiom("surgery"),
        cites=("cable_endpoint_product",),
        env=env,
    )
    b.insert_equation(
        "cable_endpoint_product",
        LHS,
        2,
        direction="forward",
        anchor="before",
        why="the surgered product equals its rewritten form",
    )
    b.reduce()
    return b.finish()


def surgery_interior_combination_script(
    pres: GroupPresentation, slope: Slope, env: dict[str, Equation]
) -> DerivationScript:
    """(t a^.. b^..)^d0 (t^p)^d1 = 1 at an interior slope strictly between pq-1 and pq."""
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    pq = p * q
    triple = cramer(Slope(pq - 1, 1), Slope(pq, 1), slope)
    if not (triple.d0 > 0 and triple.d1 > 0):
        raise ParameterError(f"slope {slope} is not strictly between {pq - 1} and {pq}")
    assert triple.d == 1  # integer endpoints one apart
    group_exps = [pq - 1] * triple.d0 + [pq] * triple.d1
    n = slope.n
    assert n == triple.d0 + triple.d1 and slope.m == sum(group_exps)
    b = ScriptBuilder(
        "surgery_interior_combination",
        pres,
        Context("H", slope),
        Axiom("surgery"),
        cites=("cable_endpoint_product",),
        env=env,
    )
    consumed = 0
    for k in range(1, n):
        consumed += group_exps[k - 1]
        b.swap(
            LHS,
            2 * (k - 1),
            left=(MUC, slope.m - consumed),
            right=(LAMC, 1),
            why="cable peripherals commute",
        )
    for k in range(n - 1, -1, -1):
        if group_exps[k] == pq:
            b.expand(LAMC, LHS, 2 * k + 1, why="cable longitude definition")
        else:
            b.insert_equation(
                "cable_endpoint_product",
                LHS,
                2 * k + 2,
                direction="forward",
                anchor="before",
                why="rewrite one product factor over the letters",
            )
    b.reduce()
    return b.finish()


def meridian_shift_script(pres: GroupPresentation, k: int) -> DerivationScript:
    """muC = mu^(u+kq) lam^(v+kp) t^-(v+kp): the normalization shift is invisible."""
    p, q = pres.p, pres.q
    assert p is not None and q is not None and pres.cable_bezout is not None
    u, v = pres.cable_bezout
    b = ScriptBuilder(f"cable_meridian_shift_{k}", pres, Context("G"), Axiom("definition", MUC))
    for c in range(abs(k)):
        if k > 0:
            b.insert_relator("cable", RHS, 2, inverse=False, why="insert the cable relation")
            cur_v = v + c * p
            b.swap(RHS, 1, left=(LAM, cur_v), right=(MU, q), why="meridian and longitude commute")
            b.reduce()
        else:
            b.insert_relator("cable", RHS, 2, inverse=True, why="insert the inverse cable relation")
            cur_v = v - c * p
            b.swap(RHS, 2, left=("t", p), right=(LAM, -p), why="t^p passes the longitude")
            b.swap(RHS, 3, left=("t", p), right=(MU, -q), why="t^p passes the meridian")
            b.swap(RHS, 2, left=(LAM, -p), right=(MU, -q), why="meridian and longitude commute")
            b.swap(RHS, 1, left=(LAM, cur_v), right=(MU, -q), why="meridian and longitude commute")
            b.reduce()
    return b.finish()


# ---------------------------------------------------------------------------
# named script sets and overrides

def script_to_json_dict(script: DerivationScript) -> dict:
    return {
        "id": script.script_id,
        "context": script.context.kind,
        "slope": str(script.context.slope) if script.context.slope else None,
        "axiom": {"kind": script.axiom.kind, "name": script.axiom.name},
        "cites": list(script.cites),
        "steps": [s.to_json_dict() for s in script.steps],
        "claimed": {"lhs": str(script.claimed_lhs), "rhs": str(script.claimed_rhs)},
    }


def script_from_json_dict(d: dict) -> DerivationScript:
    slope = Slope.parse(d["slope"]) if d.get("slope") else None
    return DerivationScript(
        script_id=d["id"],
        context=Context(d["context"], slope),
        axiom=Axiom(d["axiom"]["kind"], d["axiom"].get("name")),
        steps=tuple(Step.from_json_dict(s) for s in d["steps"]),
        claimed_lhs=Word.parse(d["claimed"]["lhs"]),
        claimed_rhs=Word.parse(d["claimed"]["rhs"]),
        cites=tuple(d.get("cites", ())),
    )


def resolve_script_override(
    script: DerivationScript, pres: GroupPresentation, script_dir: str | Path | None = None
) -> DerivationScript:
    """Swap in an externally supplied script with the same id, if present."""
    directory = script_dir if script_dir is not None else os.environ.get(SCRIPT_DIR_ENV)
    if not directory:
        return script
    path = Path(directory) / f"{script.script_id}.json"
    if not path.exists():
        return script
    doc = json.loads(path.read_text())
    if doc.get("version") != "v1":
        raise StepError(f"unsupported script file version in {path}")
    params = doc.get("params", {})
    expected = {"x": pres.x, "y": pres.y, "p": pres.p, "q": pres.q}
    if {k: params.get(k) for k in expected} != expected:
        raise StepError(f"script file {path} was generated for different parameters")
    return script_from_json_dict(doc["script"])


def script_file_json_dict(script: DerivationScript, pres: GroupPresentation) -> dict:
    """Standalone on-disk form of a script, with its parameter record."""
    return {
        "version": "v1",
        "params": {"x": pres.x, "y": pres.y, "p": pres.p, "q": pres.q},
        "script": script_to_json_dict(script),
    }


def admit(
    script: DerivationScript,
    pres: GroupPresentation,
    env: dict[str, Equation],
    script_dir: str | Path | None = None,
) -> tuple[DerivationScript, Equation]:
    """Prove `script`'s equation into `env`; returns the script used and the equation.

    A file ``<id>.json`` in `script_dir` (or in ``$CABLE_ORDER_SCRIPT_DIR``)
    replaces the script first.  Each proof is checked exactly once: a script
    from :meth:`ScriptBuilder.finish` was checked as it was emitted, and its
    equation is taken as derived when the builder worked over this
    presentation from the cited equations that `env` holds now.  Every other
    script is checked in full with :func:`check_script`.
    """
    script = resolve_script_override(script, pres, script_dir)
    derived = script._derivation
    if (
        derived is not None
        and derived.pres == pres
        and all(env.get(c) == eq for c, eq in derived.cited)
    ):
        eq = derived.equation
    else:
        eq = check_script(script, pres, env)
    env[script.script_id] = eq
    return script, eq


def builtin_scripts(
    x: int,
    y: int,
    p: int,
    beta: int = 1,
    script_dir: str | Path | None = None,
) -> dict[str, DerivationScript]:
    """The named derivation chains, generated for one parameter instance.

    Scripts come out in dependency order, each admitted by :func:`admit`:
    generated scripts were checked once, as they were emitted.  Files named
    ``<id>.json`` in `script_dir` (or in ``$CABLE_ORDER_SCRIPT_DIR``) replace
    the generated script with that id and are checked in full.
    """
    if p < 2:
        raise ParameterError(f"these derivations require p >= 2, got p = {p}")
    if beta < 1:
        raise ParameterError(f"beta must be >= 1, got {beta}")
    pres = cable_presentation(x, y, p)
    env: dict[str, Equation] = {}
    out: dict[str, DerivationScript] = {}

    def add(script: DerivationScript) -> None:
        script, _ = admit(script, pres, env, script_dir)
        out[script.script_id] = script

    add(central_relation_script(pres))
    add(cable_t_power_script(pres))
    add(surgery_peripheral_power_script(pres, beta))
    add(surgery_central_power_script(pres, beta))
    add(surgery_t_inverse_power_script(pres, beta, env))
    add(cable_endpoint_product_script(pres, env))
    return out
