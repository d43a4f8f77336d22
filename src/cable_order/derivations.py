"""A miniature proof checker for word-rewriting derivations.

A derivation script starts from an axiom (a presentation relator set to the
identity, a defining equation, or the surgery relator in a quotient group)
and applies a sequence of elementary steps, each of which preserves truth of
the equation in the context group:

* inserting a relator, or the n-th power of a previously proven equation
  combined into an identity-valued word, at a syllable boundary;
* expanding a defined element (mu, lam, muC, lamC) into its definition;
* swapping two adjacent syllable runs, only when the presentation's
  commutation whitelist licenses the pair;
* collecting a power of a product whose factors the whitelist licenses to
  commute pairwise: a defined name's power, such as lam^e =
  mu^(-xy e) a^(x e) or lamC^e = muC^(-pq e) t^(p e), or
  a written-out run of n copies of a block f1^k1 ... fm^km, which becomes
  f1^(k1 n) ... fm^(km n);
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

A script read as input is untrusted, so the syllables on either side of any
of its states are capped by a linear function of the script's own size
(:func:`side_cap`), not of anything it claims, such as its slope.  A step
that would break the cap is rejected before it edits or allocates anything,
so checking a script takes memory linear in its size and time at most
quadratic.  The exponent forms keep every proof at a fixed number of
steps, whatever the slope and p.

Every proof is checked exactly once.  :class:`ScriptBuilder` runs each step
through :func:`apply_step` as it emits it, and :meth:`ScriptBuilder.finish`
returns a :class:`CertEntry` holding only the script, whose claimed sides are
its checked final state.  The entry's id and equation are read from the
script, so the equation is used as it stands, never derived again, and an
entry cannot disagree with its script.  The slope-free lemmas are built
once per presentation, which keeps their entries for every later
certificate over it.  Any script the program did not build, such as one
rebuilt from JSON or each script of a certificate under replay, is checked
in full by :func:`check_script`.

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
from .slopes import Slope, cramer
from .words import Syllable, Word, _reduce, invert, power

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
_STEP_KINDS = frozenset({"invert", "multiply", "reduce", "swap", "definition", "relation", "commute"})
_STEP_SIDES = frozenset({None, LHS, RHS, "both"})
_STEP_DIRECTIONS = frozenset({None, "expand", "forward", "backward"})
_STEP_ANCHORS = frozenset({None, "before", "after"})
_STEP_ONS = frozenset({None, "left", "right"})
_AXIOM_KINDS = frozenset({"relator", "definition", "surgery"})
_tuple_new = tuple.__new__


class Step(NamedTuple):
    """One step of a script: an immutable record, cheap to build (a tuple).

    Every field is one the checker reads.  A step of a v1 or v2 document may
    also carry ``why``, free text: :meth:`from_json_dict` accepts it when it
    is a string or null, rejects any other type, and discards it.
    """

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
    n: int | None = None  # relation: exponent (1 when absent); commute: copies in the run

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
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "Step":
        # inline checks: this runs once per step of every certificate loaded
        kind, position, name, n = d["kind"], d.get("position"), d.get("name"), d.get("n")
        side, direction, anchor, on = d.get("side"), d.get("direction"), d.get("anchor"), d.get("on")
        why = d.get("why")  # v1 and v2 commentary: typed, then discarded
        if not ((position is None or type(position) is int) and (n is None or type(n) is int)
                and (name is None or type(name) is str) and (why is None or type(why) is str)):
            raise ValueError("a step position and n must be integers and a step name and why strings")
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
        if n is not None and kind not in ("relation", "commute"):
            raise ValueError(f"a {kind} step takes no n")
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
            n,
        ))

    def v2_only(self) -> bool:
        """True for the forms certificate format v2 added: ``commute`` and a relation exponent."""
        return self.kind == "commute" or self.n is not None


@dataclass(frozen=True, slots=True)
class Axiom:
    kind: str  # "relator" | "definition" | "surgery"
    name: str | None = None


@dataclass(frozen=True)
class DerivationScript:
    script_id: str
    context: Context
    axiom: Axiom
    steps: tuple[Step, ...]
    claimed_lhs: Word
    claimed_rhs: Word
    cites: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class CertEntry:
    """A script, as a certificate lists it; its id and equation (built once, here) are read from the script."""

    script: DerivationScript
    equation: Equation = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = self.script
        object.__setattr__(self, "equation", Equation(s.claimed_lhs, s.claimed_rhs, s.context, s.script_id))

    @property
    def entry_id(self) -> str:
        return self.script.script_id

    def to_json_dict(self) -> dict:
        doc = script_to_json_dict(self.script)
        c = doc["claimed"]
        return {"id": doc["id"], "context": doc["context"], "slope": doc["slope"],
                "lhs": c["lhs"], "rhs": c["rhs"], "script": doc}


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


def side_cap(script: DerivationScript) -> int:
    """The most syllables either side of any state of `script` may hold.

    4 (s + w + c) + 16, with s the script's steps, w the syllables of its
    step words and c the syllables of its claimed equation: every proof the
    factories emit, and every proof of format v1, peaks below 1.6 (s + w + c).
    The cap reads nothing the script only claims, such as the slope of its
    context, so a short script cannot buy a large cap.
    """
    words = sum(len(step.word) for step in script.steps if step.word is not None)
    return 4 * (len(script.steps) + words + len(script.claimed_lhs) + len(script.claimed_rhs)) + 16


def _check_side(new_length: int, cap: int | None) -> None:
    if cap is not None and new_length > cap:
        raise StepError(f"the step would make a side of {new_length!s:.40} syllables; the cap is {cap}")


def _check_commuting(pres: GroupPresentation, factors: Sequence[Syllable]) -> None:
    # pairwise licensed factors are on distinct generators, so a repeat ends the
    # check before the quadratic loop can grow
    if len({g for g, _ in factors}) != len(factors):
        raise StepError("commuting factors must be on distinct generators")
    for i, f1 in enumerate(factors):
        for f2 in factors[i + 1 :]:
            if not pres.commutes(f1, f2):
                raise StepError(
                    f"commutation of {f1[0]:.40}^{f1[1]!s:.40} and {f2[0]:.40}^{f2[1]!s:.40} is not licensed"
                )


def apply_step(
    state: State,
    step: Step,
    pres: GroupPresentation,
    context: Context,
    cited: dict[str, Equation],
    cap: int | None = None,
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
      ``forward`` or ``backward``, `anchor` ``before`` or ``after``, `side`,
      `position` and an exponent `n` >= 1 (1 when absent): insert the
      identity-valued word x^-n y^n (``before``) or y^n x^-n (``after``) at
      that boundary, where x = y is the relator set to 1 or the cited
      equation, read in `direction`;
    * ``commute`` with `side`, `position` and a defined element `name`:
      rewrite the power name^e there as f1^(k1 e) ... fm^(km e), where
      f1^k1 ... fm^km is the definition of `name`;
    * ``commute`` with `side`, `position`, a block `word` f1^k1 ... fm^km and
      a count `n` >= 1: rewrite the n copies of the block that start at
      `position` as f1^(k1 n) ... fm^(km n).

    Both ``commute`` forms require the factors f1^k1, ..., fm^km to commute
    pairwise under the whitelist, which makes the power of their product the
    product of their powers.

    When `cap` is given (:func:`iter_states` passes the script's
    :func:`side_cap`), no step may grow a side past `cap` syllables.
    Anything else raises StepError.  Every check runs before the first edit,
    so a rejected step leaves the state unchanged and allocates nothing in
    proportion to an exponent.  The two sides must be distinct lists.
    """
    lhs, rhs = state
    # one unpacking of the record: cheaper than reading each field by name
    kind, side, pos, word, name, ref, direction, anchor, left, right, on, n = step

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
        if on not in ("left", "right"):
            raise StepError(f"bad multiplication side {on!r:.40}")
        ws = word.syllables
        _check_side(max(len(lhs), len(rhs)) + len(ws), cap)
        if on == "left":
            lhs[:0] = ws
            rhs[:0] = ws
        else:
            lhs.extend(ws)
            rhs.extend(ws)
        return state

    if kind == "reduce":
        if side != "both":
            raise StepError(f"reduce requires side 'both', got {side!r:.40}")
        lhs[:] = _reduce(lhs)
        rhs[:] = _reduce(rhs)
        return state

    if kind not in ("swap", "definition", "relation", "commute"):
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
        if left_rem or right_rem:
            _check_side(len(syls) + len(left_rem) + len(right_rem), cap)
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
        _check_side(len(syls) - 1 + len(definition) * abs(e), cap)
        base = definition if e > 0 else _invert_raw(definition)
        syls[pos : pos + 1] = base * abs(e)

    elif kind == "relation":
        L, R = _resolve_ref(ref, pres, context, cited)
        if direction == "forward":
            x_word, y_word = L, R
        elif direction == "backward":
            x_word, y_word = R, L
        else:
            raise StepError(f"bad relation direction {direction!r:.40}")
        if anchor not in ("before", "after"):
            raise StepError(f"bad relation anchor {anchor!r:.40}")
        k = 1 if n is None else n
        if k < 1:
            raise StepError(f"relation exponent {k!s:.40} is below 1")
        if not (0 <= pos <= len(syls)):
            raise StepError("position out of range")
        _check_side(len(syls) + k * (len(x_word) + len(y_word)), cap)
        x_inv, y_pow = power(x_word, -k).syllables, power(y_word, k).syllables
        syls[pos:pos] = x_inv + y_pow if anchor == "before" else y_pow + x_inv

    else:  # commute
        if name is not None and word is None and n is None:  # a defined name's power
            if name not in pres.named:
                raise StepError(f"unknown defined element {name!r:.40}")
            if not (0 <= pos < len(syls)):
                raise StepError("position out of range")
            g, e = syls[pos]
            if g != name:
                raise StepError(f"syllable at position {pos} is not {name}")
            factors, end = pres.named[name].definition.syllables, pos + 1
        elif name is None and word and n is not None and n >= 1:  # n copies of a block
            factors, e = word.syllables, n
            end = pos + len(factors) * n
            if not (0 <= pos and end <= len(syls)):
                raise StepError("position out of range")
            if any(syls[i] != factors[(i - pos) % len(factors)] for i in range(pos, end)):
                raise StepError(f"the syllables at position {pos} are not {n!s:.40} copies of the block")
        else:
            raise StepError("commute takes a name, or a nonempty word and a count of at least 1")
        _check_commuting(pres, factors)
        _check_side(len(syls) - (end - pos) + len(factors), cap)
        syls[pos:end] = [(f, c * e) for f, c in factors]

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
    place.  Copy it to keep it past the next iteration.  Every step is held
    to the script's :func:`side_cap`.
    """
    cap = side_cap(script)
    env = env or {}
    cited = {c: env[c] for c in script.cites if c in env}  # what relation steps may insert
    state = axiom_state(script.axiom, script.context, pres)
    yield state
    for idx, step in enumerate(script.steps):
        try:
            state = apply_step(state, step, pres, script.context, cited, cap)
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
    must match the claimed equation syllable for syllable.  Every script the
    program did not build itself, such as one rebuilt from JSON or each
    entry of a certificate under replay, is checked here.
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
    itself, so :meth:`finish` returns the entry of a script that claims its
    final state, and nothing checks it again.  The factories are trusted
    code, so their steps are not held to a :func:`side_cap`; a script read
    back as input, as every script of a certificate is under replay, is.
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
        try:
            apply_step(self._state, step, self.pres, self.context, self._cited)
        except StepError as err:  # say where, as check_script would
            raise StepError(f"{err.reason}, in script {self.script_id!r:.40}", index=len(self._steps)) from None
        self._steps.append(step)

    def multiply(self, on: str, word: Word) -> None:
        self._emit(Step(kind="multiply", on=on, word=word))

    def invert_sides(self) -> None:
        self._emit(Step(kind="invert"))

    def reduce(self) -> None:
        self._emit(Step(kind="reduce", side="both"))

    def swap(self, side: str, position: int, left: Syllable, right: Syllable) -> None:
        self._emit(Step(kind="swap", side=side, position=position, left=left, right=right))

    def expand(self, name: str, side: str, position: int) -> None:
        self._emit(Step(kind="definition", name=name, side=side, position=position, direction="expand"))

    def insert_relator(self, name: str, side: str, position: int, inverse: bool = False) -> None:
        direction = "forward" if inverse else "backward"
        self._emit(Step(kind="relation", ref=("relator", name), side=side, position=position,
                        direction=direction, anchor="before"))

    def insert_equation(
        self, eq_id: str, side: str, position: int, direction: str, anchor: str, n: int | None = None
    ) -> None:
        self._emit(Step(kind="relation", ref=("equation", eq_id), side=side, position=position,
                        direction=direction, anchor=anchor, n=n))

    def collect(self, name: str, side: str, position: int) -> None:
        self._emit(Step(kind="commute", name=name, side=side, position=position))

    def collapse(self, side: str, position: int, block: Word, n: int) -> None:
        self._emit(Step(kind="commute", side=side, position=position, word=block, n=n))

    def finish(self) -> CertEntry:
        """The entry of the script emitted so far, which claims its final state."""
        lhs, rhs = (tuple(side) for side in self._state)
        if _reduce(lhs) != lhs or _reduce(rhs) != rhs:
            raise AssertionError("script must end on a reduced state")
        return CertEntry(DerivationScript(
            self.script_id, self.context, self.axiom, tuple(self._steps), Word(lhs), Word(rhs), self.cites
        ))


def central_relation_script(pres: GroupPresentation) -> CertEntry:
    """a^x = b^y, read off the central relator."""
    b = ScriptBuilder("central_relation", pres, Context("G"), Axiom("relator", "central"))
    b.multiply("right", Word.single("b", pres.y))
    b.reduce()
    return b.finish()


def cable_t_power_script(pres: GroupPresentation) -> CertEntry:
    """t^p = a^(xp-i) b^(-j) in the cable group, rewritten from the cable relator.

    The relator gives t^p = mu^q lam^p.  Collecting lam^p, whose factors mu
    and a^x commute, makes it mu^(-pxy) a^(px), which leaves mu^-1 a^(px)
    since q = pxy - 1; spelling mu and passing a^(px) over b^-j ends it.
    Eight steps, whatever p.
    """
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    x = pres.x
    j = pres.torus_bezout.j
    b = ScriptBuilder("cable_t_power", pres, Context("G"), Axiom("relator", "cable"))
    b.multiply("left", Word.from_pairs([(LAM, -p), (MU, -q)]))
    b.reduce()
    b.invert_sides()
    b.collect(LAM, RHS, 1)
    b.reduce()  # mu^-1 a^(px)
    b.expand(MU, RHS, 0)
    b.swap(RHS, 1, left=("b", -j), right=("a", x * p))
    b.reduce()
    return b.finish()


def cable_endpoint_product_script(
    pres: GroupPresentation, env: dict[str, Equation]
) -> CertEntry:
    """muC^(pq-1) lamC = t a^(x(p-1)-i) b^(-j) in the cable group."""
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
    b.multiply("left", Word.single(MUC, p * q - 1))  # muC^(pq-1) lamC = muC^-1 t^p
    b.reduce()
    b.expand(MUC, RHS, 0)
    b.expand(LAM, RHS, 1)
    b.reduce()
    b.insert_equation("cable_t_power", RHS, 3, direction="forward", anchor="before")  # t^p over a and b
    b.reduce()
    return b.finish()


def surgery_t_power_identity_script(pres: GroupPresentation) -> CertEntry:
    """t^p = 1 in the quotient at the integer slope pq."""
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    ctx = Context("H", Slope(p * q, 1))
    b = ScriptBuilder("surgery_t_power_identity", pres, ctx, Axiom("surgery"))
    b.expand(LAMC, LHS, 1)
    b.reduce()
    return b.finish()


def surgery_endpoint_identity_script(
    pres: GroupPresentation, env: dict[str, Equation]
) -> CertEntry:
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
    # the surgered product muC^(pq-1) lamC equals its rewritten form
    b.insert_equation("cable_endpoint_product", LHS, 2, direction="forward", anchor="before")
    b.reduce()
    return b.finish()


def surgery_interior_combination_script(
    pres: GroupPresentation, slope: Slope, env: dict[str, Equation]
) -> CertEntry:
    """(t a^.. b^..)^d0 (t^p)^d1 = 1 at an interior slope strictly between pq-1 and pq.

    m/n = (d0 (pq-1) + d1 pq)/n with n = d0 + d1, so the surgery relator
    muC^m lamC^n is muC^-d0 t^(pn) once lamC^n is collected, and inserting
    E^d0 E^-d0 for the endpoint product E = muC^(pq-1) lamC leaves only
    commuting powers to gather.  Eight steps, whatever the slope.
    """
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    pq = p * q
    triple = cramer(Slope(pq - 1, 1), Slope(pq, 1), slope)
    if not (triple.d0 > 0 and triple.d1 > 0):
        raise ParameterError(f"slope {slope} is not strictly between {pq - 1} and {pq}")
    assert triple.d == 1  # integer endpoints one apart
    d0 = triple.d0
    endpoint = env["cable_endpoint_product"]
    b = ScriptBuilder(
        "surgery_interior_combination",
        pres,
        Context("H", slope),
        Axiom("surgery"),
        cites=("cable_endpoint_product",),
        env=env,
    )
    b.collect(LAMC, LHS, 1)
    b.reduce()  # muC^-d0 t^(pn)
    b.insert_equation("cable_endpoint_product", LHS, 0, direction="forward", anchor="after", n=d0)
    run = len(power(endpoint.rhs, d0))  # (muC^(pq-1) lamC)^-d0 starts here
    b.collapse(LHS, run, invert(endpoint.lhs), d0)
    b.collect(LAMC, LHS, run)
    b.swap(LHS, run + 1, left=("t", -p * d0), right=(MUC, (1 - pq) * d0))
    b.swap(LHS, run + 2, left=("t", -p * d0), right=(MUC, -d0))
    b.reduce()
    return b.finish()


def meridian_shift_script(pres: GroupPresentation, k: int) -> CertEntry:
    """muC = mu^(u+kq) lam^(v+kp) t^-(v+kp): the normalization shift is invisible."""
    p, q = pres.p, pres.q
    assert p is not None and q is not None and pres.cable_bezout is not None
    u, v = pres.cable_bezout
    b = ScriptBuilder(f"cable_meridian_shift_{k}", pres, Context("G"), Axiom("definition", MUC))
    for c in range(abs(k)):
        if k > 0:
            b.insert_relator("cable", RHS, 2, inverse=False)
            cur_v = v + c * p
            b.swap(RHS, 1, left=(LAM, cur_v), right=(MU, q))
            b.reduce()
        else:
            b.insert_relator("cable", RHS, 2, inverse=True)
            cur_v = v - c * p
            # t^p passes lam and mu, then mu passes lam
            b.swap(RHS, 2, left=("t", p), right=(LAM, -p))
            b.swap(RHS, 3, left=("t", p), right=(MU, -q))
            b.swap(RHS, 2, left=(LAM, -p), right=(MU, -q))
            b.swap(RHS, 1, left=(LAM, cur_v), right=(MU, -q))
            b.reduce()
    return b.finish()


# ---------------------------------------------------------------------------
# the JSON form of a script

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
    slope = None if d.get("slope") is None else Slope.parse(d["slope"])  # only null or absent is no slope
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
