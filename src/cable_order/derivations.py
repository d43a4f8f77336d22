"""A miniature proof checker for word-rewriting derivations.

A derivation script starts from an axiom (a presentation relator set to the
identity, a defining equation, or the surgery relator in a quotient group)
and applies a sequence of elementary steps, each of which preserves truth of
the equation in the context group:

* inserting a relator, or a previously proven equation combined into an
  identity-valued word, at a syllable boundary;
* expanding a defined element (mu, lam, muC, lamC) into its definition;
* swapping two adjacent syllable runs, only when the presentation's
  commutation whitelist licenses the pair;
* freely reducing both sides;
* multiplying both sides by one word, or inverting both sides.

These are the steps the script factories below emit, and the checker
accepts no others (see :func:`apply_step`).  It is a dumb verifier: scripts
are generated per parameter instance with concrete exponents spliced in, and
replaying the steps must reproduce the claimed equation exactly.
Mid-derivation words may be temporarily unreduced (adjacent syllables on the
same generator are allowed); explicit reduction steps normalize them.  Steps
edit the state in place, so checking a script costs time linear in its
number of steps, not steps times length.

Every proof is checked exactly once.  :class:`ScriptBuilder` runs each step
through :func:`apply_step` as it emits it, and the script that
:meth:`ScriptBuilder.finish` returns carries the equation so derived; that
equation is admitted without a second pass.  Any other script, whether
rebuilt from JSON or made by ``dataclasses.replace``, carries no derived
equation and is checked in full by :func:`check_script`, as is every script
in a certificate under replay.

Equations proven in the knot group G hold in every surgery quotient H and may
be cited there; equations proven in some H may only be cited at the same
surgery slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

from .presentations import (
    LAM,
    LAMC,
    MU,
    MUC,
    GroupPresentation,
    ParameterError,
    surgery_named_form,
)
from .slopes import Slope, beta_slope, cramer
from .words import Syllable, Word, _reduce, invert

LHS, RHS = "lhs", "rhs"


class StepError(Exception):
    """A derivation step failed to apply or the final claim did not match.

    Messages cut quoted values to 40 characters and words to a short window.
    """

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
            raise ValueError(f"unknown context {self.kind!r:.40}")


@dataclass(frozen=True, slots=True)
class Equation:
    lhs: Word
    rhs: Word
    context: Context
    provenance: str = ""


def _json_typed(value: object, typ: type, what: str, optional: bool = False) -> Any:
    """`value` if its type is exactly `typ` (a bool is no int), else ValueError; None passes when `optional`."""
    if type(value) is typ or (optional and value is None):
        return value
    raise ValueError(f"{what} must be {typ.__name__}, got {type(value).__name__}")


def _json_enum(value: object, allowed: frozenset, what: str) -> Any:
    """`value` if it is one of `allowed`, else ValueError naming `what`."""
    try:
        if value in allowed:
            return value
    except TypeError:  # a list or an object: unhashable, and never allowed
        pass
    shown = f"{value!r:.40}" if type(value) is str else type(value).__name__
    raise ValueError(f"unknown {what} {shown}")


def _json_syllable(pair: list, what: str) -> Syllable:
    gen, exp = pair  # raises unless there are exactly two
    if type(gen) is not str or type(exp) is not int:
        raise ValueError(f"{what} must be a [generator, integer exponent] pair")
    return (gen, exp)


# the values each enumerated step field may take; None where the field may be absent
_STEP_KINDS = frozenset({"invert", "multiply", "reduce", "swap", "definition", "relation"})
_STEP_SIDES = frozenset({None, LHS, RHS, "both"})
_STEP_DIRECTIONS = frozenset({None, "expand", "forward", "backward"})
_STEP_ANCHORS = frozenset({None, "before", "after"})
_STEP_ONS = frozenset({None, "left", "right"})
_AXIOM_KINDS = frozenset({"relator", "definition", "surgery"})
_tuple_new = tuple.__new__


class Step(NamedTuple):
    """One step of a script: an immutable record, cheap to build (a tuple)."""

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
    why: str = ""

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for key in ("side", "position", "name", "direction", "anchor", "on"):
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
        # inline checks: this runs once per step of every certificate loaded
        kind, position, name = d["kind"], d.get("position"), d.get("name")
        side, direction, anchor, on = d.get("side"), d.get("direction"), d.get("anchor"), d.get("on")
        if not (position is None or type(position) is int) or not (name is None or type(name) is str):
            raise ValueError("a step position must be an integer and a step name a string")
        try:
            known = (
                kind in _STEP_KINDS
                and side in _STEP_SIDES
                and direction in _STEP_DIRECTIONS
                and anchor in _STEP_ANCHORS
                and on in _STEP_ONS
            )
        except TypeError:  # an unhashable list or object
            known = False
        if not known:  # name the first bad field
            _json_enum(kind, _STEP_KINDS, "step kind")
            _json_enum(side, _STEP_SIDES, "step side")
            _json_enum(direction, _STEP_DIRECTIONS, "step direction")
            _json_enum(anchor, _STEP_ANCHORS, "step anchor")
            _json_enum(on, _STEP_ONS, "step on")
        # all twelve fields in order, so tuple.__new__ can skip Step.__new__'s Python frame
        return _tuple_new(Step, (
            kind,
            side,
            position,
            Word.parse(d["word"]) if "word" in d else None,
            name,
            tuple(_json_typed(d["ref"][k], str, f"step ref {k}") for k in ("type", "name"))
            if "ref" in d else None,
            direction,
            anchor,
            _json_syllable(d["left"], "swap operand left") if "left" in d else None,
            _json_syllable(d["right"], "swap operand right") if "right" in d else None,
            on,
            d.get("why", ""),
        ))


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
    ref: tuple[str, str] | None, pres: GroupPresentation, context: Context, cited: dict[str, Equation]
) -> tuple[Word, Word]:
    if ref is None:
        raise StepError("relation requires a reference")
    kind, name = ref
    if kind == "relator":
        try:
            rel = pres.relator(name)
        except KeyError:
            raise StepError(f"relator mismatch: no relator {name!r:.40}") from None
        return rel.named_form, Word.identity()
    if kind == "equation":
        if name not in cited:
            raise StepError(f"equation {name!r:.40} is not cited by the script, or not proven")
        eq = cited[name]
        if eq.context.kind == "H" and eq.context != context:
            raise StepError(f"equation {name!r:.40} was proven in a different quotient")
        return eq.lhs, eq.rhs
    raise StepError(f"unknown reference kind {kind!r:.40}")


def _side_index(side: str | None) -> int:
    if side == LHS:
        return 0
    if side == RHS:
        return 1
    raise StepError(f"bad side {side!r:.40}")


def apply_step(
    state: State, step: Step, pres: GroupPresentation, context: Context, cited: dict[str, Equation]
) -> State:
    """Apply one step to `state` in place and return it; raises StepError on any violation.

    `context` is the script's context and `cited` maps each equation the
    script cites and that has been proven to that equation.  The steps
    accepted are exactly these (`side` is ``lhs`` or ``rhs`` unless said
    otherwise, and `position` a syllable index on that side):

    * ``invert``: invert both sides;
    * ``multiply`` with `on` ``left`` or ``right`` and a `word` over the
      presentation's letters: multiply both sides by the word on that side;
    * ``reduce`` with `side` ``both``: freely reduce both sides;
    * ``swap`` with `side`, `position` and operands `left`, `right` whose
      commutation the presentation licenses: carve the operands off the
      syllables at `position` and `position` + 1 and exchange them;
    * ``definition`` with `direction` ``expand``, a defined element `name`,
      `side` and `position`: replace the power of `name` there by its
      definition;
    * ``relation`` with `ref` (``relator`` or ``equation``, name), `direction`
      ``forward`` or ``backward``, `anchor` ``before`` or ``after``, `side`
      and `position`: insert the identity-valued word x^-1 y (``before``) or
      y x^-1 (``after``) at that boundary, where x = y is the relator set
      to 1 or the cited equation, read in `direction`.

    Anything else raises StepError.  Every check runs before the first edit,
    so a rejected step leaves the state unchanged.  The two sides must be
    distinct lists.
    """
    lhs, rhs = state
    # one unpacking of the record: cheaper than reading each field by name
    kind, side, pos, word, name, ref, direction, anchor, left, right, on, _why = step

    if kind == "invert":
        lhs[:] = _invert_raw(lhs)
        rhs[:] = _invert_raw(rhs)
        return state

    if kind == "multiply":
        if word is None:
            raise StepError("multiply requires a word")
        unknown = word.generators() - pres.letters()
        if unknown:
            raise StepError(f"unknown generators {sorted(unknown)!r:.40} in multiplier")
        ws = word.syllables
        if on == "left":
            lhs[:0] = ws
            rhs[:0] = ws
        elif on == "right":
            lhs.extend(ws)
            rhs.extend(ws)
        else:
            raise StepError(f"bad multiplication side {on!r:.40}")
        return state

    if kind == "reduce":
        if side != "both":
            raise StepError(f"reduce requires side 'both', got {side!r:.40}")
        lhs[:] = _reduce(lhs)
        rhs[:] = _reduce(rhs)
        return state

    if kind not in ("swap", "definition", "relation"):
        raise StepError(f"unknown step kind {kind!r:.40}")
    # the remaining kinds replace one slice of a single named side
    syls = state[_side_index(side)]
    if pos is None:
        raise StepError("step requires a position")

    if kind == "swap":
        if left is None or right is None:
            raise StepError("swap requires both operands")
        (g1, e1), (g2, e2) = left, right
        if not (isinstance(g1, str) and isinstance(g2, str)):
            raise StepError("swap operands must name generators")
        if e1 == 0 or e2 == 0 or g1 == g2:
            raise StepError("swap operands must be distinct generators with nonzero exponents")
        if not pres.commutes((g1, e1), (g2, e2)):
            raise StepError(f"commutation of {g1:.40}^{e1} and {g2:.40}^{e2} is not licensed")
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

    elif kind == "definition":
        if name not in pres.named:
            raise StepError(f"unknown defined element {name!r:.40}")
        if direction != "expand":
            raise StepError(f"bad definition direction {direction!r:.40}")
        if not (0 <= pos < len(syls)):
            raise StepError("position out of range")
        g, e = syls[pos]
        if g != name:
            raise StepError(f"syllable at position {pos} is not {name}")
        definition = pres.named[name].definition.syllables
        base = definition if e > 0 else _invert_raw(definition)
        syls[pos : pos + 1] = base * abs(e)

    else:  # relation
        L, R = _resolve_ref(ref, pres, context, cited)
        if direction == "forward":
            x_word, y_word = L, R
        elif direction == "backward":
            x_word, y_word = R, L
        else:
            raise StepError(f"bad relation direction {direction!r:.40}")
        if anchor == "before":
            ins = invert(x_word).syllables + y_word.syllables
        elif anchor == "after":
            ins = y_word.syllables + invert(x_word).syllables
        else:
            raise StepError(f"bad relation anchor {anchor!r:.40}")
        if not (0 <= pos <= len(syls)):
            raise StepError("position out of range")
        syls[pos:pos] = ins

    return state


def axiom_state(axiom: Axiom, context: Context, pres: GroupPresentation) -> State:
    """The equation a script with this axiom, in this context, starts from."""
    if axiom.kind == "relator":
        try:
            rel = pres.relator(axiom.name)  # type: ignore[arg-type]
        except KeyError:
            raise StepError(f"relator mismatch: no relator {axiom.name!r:.40}") from None
        return list(rel.named_form.syllables), []
    if axiom.kind == "definition":
        if axiom.name not in pres.named:
            raise StepError(f"no defined element {axiom.name!r:.40}")
        return [(axiom.name, 1)], list(pres.named[axiom.name].definition.syllables)
    if axiom.kind == "surgery":
        if context.kind != "H":
            raise StepError("the surgery relator is only an axiom in a surgery quotient")
        assert context.slope is not None
        return list(surgery_named_form(pres, context.slope).syllables), []
    raise StepError(f"unknown axiom kind {axiom.kind!r:.40}")


def iter_states(
    script: DerivationScript, pres: GroupPresentation, env: dict[str, Equation] | None = None
):
    """Yield the derivation state after the axiom and after every step.

    The state yielded is live: the next step edits the same two lists in
    place.  Copy it to keep it past the next iteration.
    """
    env = env or {}
    cited = {c: env[c] for c in script.cites if c in env}  # what relation steps may insert
    state = axiom_state(script.axiom, script.context, pres)
    yield state
    for idx, step in enumerate(script.steps):
        try:
            state = apply_step(state, step, pres, script.context, cited)
        except StepError as err:
            raise StepError(err.reason, index=idx) from None
        yield state


def _brief(syls: Sequence[Syllable]) -> str:
    """A word for an error message: its first syllables, cut short, and its length."""
    text = str(Word(tuple(syls[:6])))
    if len(syls) > 6 or len(text) > 120:
        text = f"{text[:120]} ... ({len(syls)} syllables)"
    return text


def check_script(
    script: DerivationScript, pres: GroupPresentation, env: dict[str, Equation] | None = None
) -> Equation:
    """Replay a script; on success return its proven equation.

    Fails atomically with the index of the first bad step.  The final state
    must match the claimed equation syllable for syllable.  Scripts that
    :class:`ScriptBuilder` did not derive, such as scripts rebuilt from JSON
    and the entries of a certificate under replay, are checked here in full.
    """
    state = None
    for state in iter_states(script, pres, env):
        pass
    assert state is not None
    lhs, rhs = script.claimed_lhs.syllables, script.claimed_rhs.syllables
    if tuple(state[0]) != lhs or tuple(state[1]) != rhs:
        raise StepError(
            f"claimed result mismatch: derived {_brief(state[0])} = {_brief(state[1])}, "
            f"claimed {_brief(lhs)} = {_brief(rhs)}",
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
        env = env or {}
        self._cited = {c: env[c] for c in cites if c in env}
        self._steps: list[Step] = []
        self._state = axiom_state(axiom, context, pres)

    def _emit(self, step: Step) -> None:
        apply_step(self._state, step, self.pres, self.context, self._cited)
        self._steps.append(step)

    def multiply(self, on: str, word: Word, why: str = "") -> None:
        self._emit(Step(kind="multiply", on=on, word=word, why=why))

    def invert_sides(self, why: str = "") -> None:
        self._emit(Step(kind="invert", why=why))

    def reduce(self) -> None:
        self._emit(Step(kind="reduce", side="both"))

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
            tuple(self._cited.items()),
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


def surgery_central_power_script(pres: GroupPresentation, beta: int) -> DerivationScript:
    """t^(p*beta+1) = a^x in the surgery quotient (theorem-mode parameters)."""
    if not pres.theorem_mode:
        raise ParameterError("this derivation needs the normalization u = x*y, v = 1")
    p, q = pres.p, pres.q
    assert p is not None and q is not None and pres.cable_bezout is not None
    u, v = pres.cable_bezout
    b = ScriptBuilder(
        "surgery_central_power", pres, _surgery_context(pres, beta), Axiom("surgery")
    )
    # from muC^(pq*beta-1) lamC^beta = 1 down to t^(p*beta+v) = mu^u lam^v
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
    # then mu^u lam = mu^(u-xy) a^x = a^x, since u = x*y
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
# the JSON form of a script and admission

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
    if type(d) is not dict:
        raise ValueError(f"a script must be a JSON object, got {type(d).__name__}")
    slope = Slope.parse(d["slope"]) if d.get("slope") else None
    return DerivationScript(
        script_id=_json_typed(d["id"], str, "script id"),
        context=Context(d["context"], slope),
        axiom=Axiom(
            _json_enum(d["axiom"]["kind"], _AXIOM_KINDS, "axiom kind"),
            _json_typed(d["axiom"].get("name"), str, "axiom name", optional=True),
        ),
        steps=tuple(Step.from_json_dict(s) for s in d["steps"]),
        claimed_lhs=Word.parse(d["claimed"]["lhs"]),
        claimed_rhs=Word.parse(d["claimed"]["rhs"]),
        cites=tuple(_json_typed(c, str, "cited equation id") for c in d.get("cites", ())),
    )


def admit(script: DerivationScript, pres: GroupPresentation, env: dict[str, Equation]) -> Equation:
    """Prove `script`'s equation into `env` and return it.

    Each proof is checked exactly once: a script from
    :meth:`ScriptBuilder.finish` was checked as it was emitted, and its
    equation is taken as derived when the builder worked over this
    presentation from the cited equations that `env` holds now.  Every other
    script, such as one rebuilt from JSON, is checked in full with
    :func:`check_script`.
    """
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
    return eq

