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

These are the steps the script factories of :mod:`proofs` emit, and the
checker accepts no others (see :func:`apply_step`).  It is a dumb verifier:
scripts are generated per parameter instance with concrete exponents spliced
in, and replaying the steps must reproduce the claimed equation exactly.
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

This module is the checker, part of the trusted core that replay runs; the
proof factories and `prove` live in :mod:`proofs`, outside it.  Any
script the program did not build, such as one rebuilt from JSON or each
script of a certificate under replay, is checked in full by
:func:`check_script`.

A script and its equation carry where they hold as a slope: None for the
knot group G, and the surgery slope for the quotient H there.  Equations
proven in G hold in every H and may be cited there; equations proven in
some H may only be cited at the same slope.  The JSON form of a script
spells this as ``"context": "G"`` or ``"H"`` beside ``"slope"``, and the
loader checks that the two agree.

Every record here is a named tuple that stores each fact once: a
certificate entry is ``(script,)``, and its id and equation are read from
the script when asked for.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .presentations import GroupPresentation, surgery_named_form
from .slopes import Slope
from .words import Syllable, Word, _reduce, power

LHS, RHS = "lhs", "rhs"


class StepError(ValueError):
    """A derivation step failed to apply or the final claim did not match (a ValueError).

    Messages cut quoted values to 40 characters and words to a short window.
    """

    def __init__(self, reason: str, index: int | None = None):
        self.reason = reason
        self.index = index
        super().__init__(reason if index is None else f"step {index}: {reason}")


class Equation(namedtuple("Equation", "lhs rhs slope provenance", defaults=("",))):
    """lhs = rhs at `slope`, None in the knot group; `provenance` is the id of the script that proves it (a tuple)."""

    __slots__ = ()


def _json_typed(value: object, typ: type, what: str, optional: bool = False) -> object:
    """`value` if its type is exactly `typ` (a bool is no int), else ValueError; None passes when `optional`."""
    if type(value) is typ or (optional and value is None):
        return value
    raise ValueError(f"{what} must be {typ.__name__}, got {type(value).__name__}")


def _json_enum(value: object, allowed: frozenset, what: str) -> object:
    """`value` if it is one of `allowed`, else ValueError naming `what`."""
    try:
        if value in allowed:
            return value
    except TypeError:  # a list or an object: unhashable, and never allowed
        pass
    shown = f"{value!r:.40}" if type(value) is str else type(value).__name__
    raise ValueError(f"unknown {what} {shown}")


def _json_ref(ref: dict) -> tuple[str, str]:
    """A step's (type, name) reference; each must be a string."""
    kind = ref["type"]
    if type(kind) is not str:
        _json_typed(kind, str, "step ref type")
    name = ref["name"]
    if type(name) is not str:
        _json_typed(name, str, "step ref name")
    return (kind, name)


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


class Step(namedtuple("Step", "kind side position word name ref direction anchor left right on n",
                      defaults=(None,) * 11)):
    """One step of a script: an immutable record, cheap to build (a tuple).

    Every field is one the checker reads, and every field but `kind` is
    None when absent.  `ref` is ("relator" | "equation", name); `on` is the
    side a multiply attaches to, "left" or "right"; `n` is a relation's
    exponent (1 when absent) or the number of copies in a commute's run.
    A step of a v1 or v2 document may also carry ``why``, free text:
    :meth:`from_json_dict` accepts it when it is a string or null, rejects
    any other type, and discards it.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        # one unpacking of the record, as in apply_step; the keys keep the order certificates are written in
        kind, side, position, word, name, ref, direction, anchor, left, right, on, n = self
        out: dict = {"kind": kind}
        if side is not None:
            out["side"] = side
        if position is not None:
            out["position"] = position
        if name is not None:
            out["name"] = name
        if direction is not None:
            out["direction"] = direction
        if anchor is not None:
            out["anchor"] = anchor
        if on is not None:
            out["on"] = on
        if n is not None:
            out["n"] = n
        if word is not None:
            out["word"] = str(word)
        if ref is not None:
            out["ref"] = {"type": ref[0], "name": ref[1]}
        if left is not None:
            out["left"] = [left[0], left[1]]
        if right is not None:
            out["right"] = [right[0], right[1]]
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "Step":
        # inline checks: this runs once per step of every certificate loaded
        kind, position, name, n = d["kind"], d.get("position"), d.get("name"), d.get("n")
        side, direction, anchor, on = d.get("side"), d.get("direction"), d.get("anchor"), d.get("on")
        why = d.get("why")  # v1 and v2 commentary: typed, then discarded
        # an `n` given must be an integer: null is not a second spelling of an absent n
        if not ((position is None or type(position) is int) and (type(n) is int or "n" not in d)
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
            Word.parse_printed(d["word"], "step word") if "word" in d else None,
            name,
            _json_ref(d["ref"]) if "ref" in d else None,
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


class Axiom(namedtuple("Axiom", "kind name", defaults=(None,))):
    """A script's starting equation: `kind` "relator", "definition" or "surgery", and a `name` (a tuple)."""

    __slots__ = ()


class DerivationScript(namedtuple("DerivationScript", "script_id slope axiom steps claimed_lhs claimed_rhs cites",
                                  defaults=((),))):
    """A derivation (a tuple): an axiom, then steps, ending at the claimed equation; `cites` names earlier ones.

    `slope` is None in the knot group G, and the surgery slope in a quotient H.
    """

    __slots__ = ()


class CertEntry(namedtuple("CertEntry", "script")):
    """A script, as a certificate lists it (a tuple); its id and equation are read from the script."""

    __slots__ = ()

    @property
    def entry_id(self) -> str:
        return self.script.script_id

    @property
    def equation(self) -> Equation:
        s = self.script
        return _tuple_new(Equation, (s.claimed_lhs, s.claimed_rhs, s.slope, s.script_id))

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
    ref: tuple[str, str] | None, pres: GroupPresentation, slope: Slope | None, cited: dict[str, Equation]
) -> tuple[Word, Word]:
    if ref is None:
        raise StepError("relation requires a reference")
    kind, name = ref
    if kind == "relator":
        if name not in pres.relators:
            raise StepError(f"relator mismatch: no relator {name!r:.40}")
        return pres.relators[name], Word.identity()
    if kind == "equation":
        if name not in cited:
            raise StepError(f"equation {name!r:.40} is not cited by the script, or not proven")
        eq = cited[name]
        if eq.slope is not None and eq.slope != slope:
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
    The cap reads nothing the script only claims, such as its slope, so a
    short script cannot buy a large cap.
    """
    words = sum([len(step.word.syllables) for step in script.steps if step.word is not None])
    return 4 * (len(script.steps) + words + len(script.claimed_lhs.syllables) + len(script.claimed_rhs.syllables)) + 16


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
    slope: Slope | None,
    cited: dict[str, Equation],
    cap: int | None = None,
) -> State:
    """Apply one step to `state` in place and return it; raises StepError on any violation.

    `slope` is the script's slope, None in the knot group, and `cited` maps
    each equation the script cites and that has been proven to that
    equation.  The steps accepted are exactly these (`side` is ``lhs`` or
    ``rhs`` unless said otherwise, and `position` a syllable index on that
    side):

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
        definition = pres.named[name].syllables
        _check_side(len(syls) - 1 + len(definition) * abs(e), cap)
        base = definition if e > 0 else _invert_raw(definition)
        syls[pos : pos + 1] = base * abs(e)

    elif kind == "relation":
        L, R = _resolve_ref(ref, pres, slope, cited)
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
            factors, end = pres.named[name].syllables, pos + 1
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


def axiom_state(axiom: Axiom, slope: Slope | None, pres: GroupPresentation) -> State:
    """The equation a script with this axiom, at this slope (None in the knot group), starts from."""
    if axiom.kind == "relator":
        if axiom.name not in pres.relators:
            raise StepError(f"relator mismatch: no relator {axiom.name!r:.40}")
        return list(pres.relators[axiom.name].syllables), []
    if axiom.kind == "definition":
        if axiom.name not in pres.named:
            raise StepError(f"no defined element {axiom.name!r:.40}")
        return [(axiom.name, 1)], list(pres.named[axiom.name].syllables)
    if axiom.kind == "surgery":
        if slope is None:
            raise StepError("the surgery relator is only an axiom in a surgery quotient")
        return list(surgery_named_form(pres, slope).syllables), []
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
    state = axiom_state(script.axiom, script.slope, pres)
    yield state
    for idx, step in enumerate(script.steps):
        try:
            state = apply_step(state, step, pres, script.slope, cited, cap)
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
    return _tuple_new(Equation, (script.claimed_lhs, script.claimed_rhs, script.slope, script.script_id))


# ---------------------------------------------------------------------------
# the JSON form of a script

def script_to_json_dict(script: DerivationScript) -> dict:
    return {
        "id": script.script_id,
        "context": "G" if script.slope is None else "H",
        "slope": None if script.slope is None else str(script.slope),
        "axiom": {"kind": script.axiom.kind, "name": script.axiom.name},
        "cites": list(script.cites),
        "steps": [s.to_json_dict() for s in script.steps],
        "claimed": {"lhs": str(script.claimed_lhs), "rhs": str(script.claimed_rhs)},
    }


def script_from_json_dict(d: dict) -> DerivationScript:
    # inline checks, in the order of the faults they name: this runs once per entry
    # of every certificate loaded, and the helpers are called only to name a fault
    if type(d) is not dict:
        raise ValueError(f"a script must be a JSON object, got {type(d).__name__}")
    slope = d["slope"]  # present, as are the axiom's name and cites: null is the one spelling of none
    if slope is not None:
        slope = Slope.parse_printed(slope, "script slope")
    axiom = d["axiom"]
    kind = axiom["kind"]
    if type(kind) is not str or kind not in _AXIOM_KINDS:
        _json_enum(kind, _AXIOM_KINDS, "axiom kind")
    name = axiom["name"]
    if name is not None and type(name) is not str:
        _json_typed(name, str, "axiom name")
    if kind == "surgery" and name is not None:  # the checker reads no name there
        raise ValueError("a surgery axiom's name must be null")
    cites = d["cites"]
    if type(cites) is not list:  # a string is no list of ids
        _json_typed(cites, list, "cites")
    script_id = d["id"]
    if type(script_id) is not str:
        _json_typed(script_id, str, "script id")
    context = d["context"]
    if context == "G" and slope is not None:
        raise ValueError("knot-group context carries no slope")
    if context == "H" and slope is None:
        raise ValueError("surgery context requires a slope")
    if context not in ("G", "H"):
        raise ValueError(f"unknown context {context!r:.40}")
    steps = tuple([Step.from_json_dict(s) for s in d["steps"]])
    lhs = Word.parse_printed(d["claimed"]["lhs"], "claimed lhs")
    rhs = Word.parse_printed(d["claimed"]["rhs"], "claimed rhs")
    for c in cites:
        if type(c) is not str:
            _json_typed(c, str, "cited equation id")
    # tuple.__new__ skips the Python frames of the records' __new__, as in Step.from_json_dict
    return _tuple_new(DerivationScript, (
        script_id, slope, _tuple_new(Axiom, (kind, name)), steps, lhs, rhs, tuple(cites),
    ))
