"""Sign-calculus engine and non-left-orderability certificates.

In a left-orderable group every element is positive, negative, or the
identity, positives are closed under products, and g and g^n always share a
sign.  Assigning one of {pos, neg, zero} to each generator a, b, t therefore
lets proven equations be tested for consistency: a word all of whose
surviving letters carry one sign must carry that sign, so an equation whose
two sides evaluate to determinate different values refutes the assignment.

A certificate records, for each of the 27 assignments, one proven equation
that refutes it; the all-zero assignment is instead refuted by the axiom
that the trivial group is not left-orderable.  Certificates embed their
derivation scripts verbatim and are replayable from the JSON alone.  The
engine never fabricates: if any assignment survives every equation, the
result is an :class:`Inconclusive` value listing the survivors.

A certificate holds each fact once: an entry is its script, and q, the mode
and :func:`determinant_data` follow from (x, y, p, slope, beta).  The loader
checks each copy that the JSON form repeats; :func:`replay` checks only the
proofs and the rows.  The records are named tuples; a
:class:`SignAssignment` equals and hashes as its (a, b, t) signs, so one
table gives the position of either, for the loader and for :func:`replay`.

A verdict reads only which of the 6 signed letters of a, b, t a word has, so
:func:`refute_all` and :func:`replay` look verdicts up in a table of at most
64 letter sets, each evaluated under all 27 assignments once per process.

Certificates are written in format v2, whose scripts may use the exponent
steps ``commute`` and ``relation`` with `n`; :func:`replay` also accepts
format v1, whose beta certificates carried longer, beta-only proofs and no
determinant data, and rejects a v1 document that uses a v2 step form when it
is loaded.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cache

from .derivations import (
    CertEntry, Equation, _json_enum, _json_typed, _tuple_new, check_script, script_from_json_dict,
)
from .presentations import GroupPresentation, cable_presentation
from .slopes import CramerTriple, Slope, beta_slope, cramer
from .words import Syllable, Word

POS, NEG, ZERO = "pos", "neg", "zero"
UNKNOWN = "unknown"
SIGNS = (POS, NEG, ZERO)
VERSION = "v2"  # the format certify writes
_VERSIONS = frozenset({"v1", VERSION})  # the formats replay reads


class SignAssignment(namedtuple("SignAssignment", "a b t")):
    """A sign, "pos", "neg" or "zero", for each generator a, b and t (a tuple, equal to its signs)."""

    __slots__ = ()

    def __new__(cls, a: str, b: str, t: str) -> "SignAssignment":
        for s in (a, b, t):
            if s not in SIGNS:
                raise ValueError(f"bad sign {s!r:.40}")
        return _tuple_new(cls, (a, b, t))

    @classmethod
    def _make(cls, iterable: Iterable[str]) -> "SignAssignment":  # _replace builds through here: check it too
        return cls(*iterable)

    def get(self, gen: str) -> str:
        return getattr(self, gen)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "t": self.t}


_ASSIGNMENTS = tuple(SignAssignment(sa, sb, st) for sa in SIGNS for sb in SIGNS for st in SIGNS)
# assignment -> position; an assignment hashes and compares as its (a, b, t) tuple, so either is a key
_POSITIONS = {s: k for k, s in enumerate(_ASSIGNMENTS)}
_ALL_ZERO = _POSITIONS[ZERO, ZERO, ZERO]
_SIGNED_LETTERS = frozenset((g, e) for g in ("a", "b", "t") for e in (1, -1))  # the 6 signed letters


def all_sign_assignments() -> tuple[SignAssignment, ...]:
    """All 27 assignments, all-positive first and all-zero last (built once, at import)."""
    return _ASSIGNMENTS


def evaluate_sign(w: Iterable[Syllable], assignment: SignAssignment) -> str:
    """Sound sign of a concrete word under a generator sign assignment.

    Letters on zero generators are deleted; if every surviving letter
    (exponent sign included) carries one sign, that is the word's sign, and
    a word with nothing left is zero.  Mixed signs give ``unknown``.  The
    verdict reads only which signed letters occur, so it is the same on a
    word and on its :func:`signed_letters`.
    """
    seen: str | None = None
    for g, e in w:
        if g not in ("a", "b", "t"):
            raise ValueError(f"sign evaluation needs a concrete word, got letter {g!r}")
        s = assignment.get(g)
        if s == ZERO:
            continue
        if e < 0:
            s = NEG if s == POS else POS
        if seen is None:
            seen = s
        elif seen != s:
            return UNKNOWN
    return ZERO if seen is None else seen


def signed_letters(w: Word) -> frozenset[Syllable]:
    """The distinct (generator, sign of exponent) pairs of `w`, a word over a, b and t: at most 6.

    A repeated block repeats its syllables, so they are deduplicated before
    anything is read one by one.  Any other letter is a ValueError that
    names the first one in `w`.
    """
    letters = frozenset((g, 1 if e > 0 else -1) for g, e in set(w.syllables))
    if letters <= _SIGNED_LETTERS:
        return letters
    g = next(g for g, _ in w.syllables if g not in ("a", "b", "t"))
    raise ValueError(f"the letter {g!r:.40} is not a, b or t")


@cache
def _verdicts(letters: frozenset[Syllable]) -> tuple[str, ...]:
    """:func:`evaluate_sign` of `letters` under each of :func:`all_sign_assignments`, in order.

    The memo holds at most 64 keys, the subsets of {a, b, t} x {+1, -1}: a
    set with any other letter raises, since the all-zero assignment reads
    every letter, and is never stored.
    """
    return tuple(evaluate_sign(letters, s) for s in _ASSIGNMENTS)


class RefutationRow(namedtuple("RefutationRow", "assignment equation_id lhs_sign rhs_sign")):
    """One refuted assignment: a clashing equation, or the nontriviality axiom (a tuple).

    `equation_id` names the equation whose sides' signs `lhs_sign` and
    `rhs_sign` clash; all three are None for the nontriviality axiom.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        if self.equation_id is None:
            reason: dict = {"kind": "nontriviality_axiom"}
        else:
            reason = {
                "kind": "clash",
                "equation": self.equation_id,
                "lhs_sign": self.lhs_sign,
                "rhs_sign": self.rhs_sign,
            }
        return {"assignment": self.assignment.to_json_dict(), "reason": reason}


class Inconclusive(namedtuple("Inconclusive", "survivors")):
    """The sign atoms could not refute the assignments in `survivors`; never a certificate (a tuple)."""

    __slots__ = ()


class CertParams(namedtuple("CertParams", "x y p slope beta", defaults=(None,))):
    """(x, y, p), the slope and its beta label, if any; q and the mode are derived (a tuple)."""

    __slots__ = ()

    @property
    def q(self) -> int:
        return self.p * self.x * self.y - 1

    @property
    def mode(self) -> str:
        return "slope" if self.beta is None else "beta"

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "p": self.p,
            "q": self.q,
            "mode": self.mode,
            "beta": self.beta,
            "slope": str(self.slope),
        }


def determinant_data(params: CertParams, version: str) -> CramerTriple | None:
    """The determinants tying an interior slope to pq - 1 and pq.

    None at or outside the endpoints, and in a v1 beta certificate, which carried none.
    """
    pq = params.p * params.q
    low, high = Slope(pq - 1, 1), Slope(pq, 1)
    if low < params.slope < high and (version != "v1" or params.beta is None):
        return cramer(low, high, params.slope)
    return None


class ObstructionCertificate(namedtuple("ObstructionCertificate", "params entries refutations version",
                                        defaults=(VERSION,))):
    """The entries, each a checked script, and the row that refutes each of the 27 assignments (a tuple)."""

    __slots__ = ()

    @property
    def cramer_data(self) -> CramerTriple | None:
        return determinant_data(self.params, self.version)

    def to_json_dict(self) -> dict:
        c = self.cramer_data
        return {
            "version": self.version,
            "params": self.params.to_json_dict(),
            "equations": [e.to_json_dict() for e in self.entries],
            "cramer": None if c is None else c.to_json_dict(),
            "refutations": [r.to_json_dict() for r in self.refutations],
        }


_ASSIGNMENT_KEYS = {"a", "b", "t"}
_MODES = frozenset({"beta", "slope"})
_RECORDED_SIGNS = frozenset({POS, NEG, ZERO, UNKNOWN})  # what evaluate_sign returns


def certificate_from_json_dict(doc: dict) -> ObstructionCertificate:
    """Rebuild a certificate from its JSON form, and check every copy that the form repeats.

    An entry's id, context, slope and sides must be its script's texts, and
    `params.q`, `params.mode`, a beta's slope and `cramer` the values that
    (x, y, p, slope, beta) give.  A copy that differs, a wrongly typed
    version, integer, word, slope, id, name, `why` or equation reference, a
    word or slope not written as it prints (one text per value), a script
    that is not an object, an enumerated field (step `kind`, `side`,
    `direction`, `anchor` and `on`, the axiom `kind`, `params.mode`, the
    recorded signs) outside its values, or a v1 document with a step of a
    form that v2 added raises ValueError here, so that `replay` checks only
    proofs and rows, of the right JSON types.  An entry's and a script's
    slope, an axiom's name, a script's cites, the version and `cramer` must
    be present, with null as the one spelling of none; an absent key raises
    KeyError, whose text is the key.  Load errors cut quoted values to 40
    characters.
    """
    par = doc["params"]
    params = CertParams(
        x=_json_typed(par["x"], int, "params.x"),
        y=_json_typed(par["y"], int, "params.y"),
        p=_json_typed(par["p"], int, "params.p"),
        slope=Slope.parse_printed(par["slope"], "params.slope"),
        beta=_json_typed(par["beta"], int, "params.beta", optional=True),
    )
    if _json_typed(par["q"], int, "params.q") != params.q:
        raise ValueError("params.q is not p*x*y - 1")
    if _json_enum(par["mode"], _MODES, "params.mode") != params.mode:
        raise ValueError("params.mode must be beta exactly when params.beta is set")
    beta = params.beta
    if beta is not None and (beta < 1 or params.slope != beta_slope(params.p, params.q, beta)):
        raise ValueError("params.slope is not pq - 1/beta for a beta of at least 1")
    entries = []
    for e in doc["equations"]:
        s = e["script"]  # first: raises unless the entry is an object
        script = script_from_json_dict(s)
        claimed = s["claimed"]
        repeated = {"id": s["id"], "context": s["context"], "slope": s["slope"],
                    "lhs": claimed["lhs"], "rhs": claimed["rhs"]}
        for key, value in repeated.items():  # each the script's text, checked by the parse above
            if e[key] != value:
                raise ValueError(f"the {key} of equation {script.script_id!r:.40} differs from its script's")
        entries.append(CertEntry(script))
    version = _json_typed(doc["version"], str, "version")
    if version == "v1" and any(step.v2_only() for e in entries for step in e.script.steps):
        raise ValueError("a v1 certificate uses a step form of v2 (commute, or a relation exponent)")
    c, derived = doc["cramer"], determinant_data(params, version)
    if c is not None:  # typed first: true and 1.0 compare equal to 1
        for key in ("d0", "d1", "d"):
            _json_typed(c[key], int, f"cramer.{key}")
    if c != (None if derived is None else derived.to_json_dict()):
        raise ValueError("the determinant data is not the one the parameters and version give")
    # inline checks, in the order of the faults they name; the helpers only name one
    rows = []
    for r in doc["refutations"]:
        signs = r["assignment"]
        if type(signs) is not dict or signs.keys() != _ASSIGNMENT_KEYS:
            raise ValueError("a refutation assignment must be an object with the keys a, b and t")
        try:
            assignment = _ASSIGNMENTS[_POSITIONS[signs["a"], signs["b"], signs["t"]]]
        except (KeyError, TypeError):  # not a sign, or unhashable: name the first bad one
            assignment = SignAssignment(signs["a"], signs["b"], signs["t"])
        reason = r["reason"]
        kind = reason["kind"]
        if kind == "clash":
            eq_id = reason["equation"]
            if type(eq_id) is not str:
                _json_typed(eq_id, str, "refutation equation")
            lhs_sign = reason["lhs_sign"]
            if type(lhs_sign) is not str or lhs_sign not in _RECORDED_SIGNS:
                _json_enum(lhs_sign, _RECORDED_SIGNS, "recorded lhs_sign")
            rhs_sign = reason["rhs_sign"]
            if type(rhs_sign) is not str or rhs_sign not in _RECORDED_SIGNS:
                _json_enum(rhs_sign, _RECORDED_SIGNS, "recorded rhs_sign")
            rows.append(_tuple_new(RefutationRow, (assignment, eq_id, lhs_sign, rhs_sign)))
        elif kind == "nontriviality_axiom":
            rows.append(_tuple_new(RefutationRow, (assignment, None, None, None)))
        else:
            raise ValueError(f"bad refutation reason {reason!r:.40}")
    return ObstructionCertificate(params, tuple(entries), tuple(rows), version)


# ---------------------------------------------------------------------------
# refutation search

def refute_all(
    equations: Sequence[Equation],
    pres: GroupPresentation,
    slope: Slope | None = None,
) -> tuple[RefutationRow, ...] | Inconclusive:
    """Try to refute every sign assignment using the given proven equations.

    `slope` names the quotient under attack: equations must be proven either
    in the knot group or in that same quotient.  Returns the full refutation
    table, or Inconclusive with the surviving assignments.  Each side is
    expanded over a, b and t, and its 27 verdicts are read from the sign
    table (at most 64 letter sets).  :func:`replay` reads the sides as
    written, so a row may cite only an equation over a, b and t.  The
    all-zero assignment is told by its position, and every row is built as
    its tuple, as the loader builds them.
    """
    concrete = []
    for eq in equations:
        if not eq.provenance:
            raise ValueError("equations must carry provenance ids")
        if eq.slope is not None and eq.slope != slope:
            raise ValueError(f"equation {eq.provenance} was proven at slope {eq.slope}, not {slope}")
        lhs, rhs = pres.expand(eq.lhs), pres.expand(eq.rhs)
        concrete.append((eq.provenance, _verdicts(signed_letters(lhs)), _verdicts(signed_letters(rhs))))

    rows: list[RefutationRow] = []
    survivors: list[SignAssignment] = []
    for k, assignment in enumerate(_ASSIGNMENTS):
        if k == _ALL_ZERO:
            # all generators trivial would make the whole group trivial, and
            # left-orderability is a property of nontrivial groups
            rows.append(_tuple_new(RefutationRow, (assignment, None, None, None)))
            continue
        for eq_id, lv, rv in concrete:
            ls, rs = lv[k], rv[k]
            if ls != UNKNOWN and rs != UNKNOWN and ls != rs:
                rows.append(_tuple_new(RefutationRow, (assignment, eq_id, ls, rs)))
                break
        else:
            survivors.append(assignment)
    if survivors:
        return Inconclusive(tuple(survivors))
    return tuple(rows)


# ---------------------------------------------------------------------------
# independent replay

class ReplayReport(namedtuple("ReplayReport", "ok problems")):
    """What :func:`replay` found (a tuple): true exactly when `ok`, and `problems` is the list of reasons."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def replay(cert: ObstructionCertificate) -> ReplayReport:
    """Re-check every embedded script and every refutation row from scratch.

    It checks the version, the rebuild of the presentation, unique ids, the
    slope of each surgery-quotient script, each script and each row, and
    compares no copies of a fact: the loader checks those.  Problems quote
    certificate values cut to 40 characters.  A row may cite only an
    equation over a, b and t, whose sides are read as written, once, into
    the sign table (at most 64 letter sets).  The rows that cite an equation
    with no verified proof, or with another letter, make one problem per id
    that says which, so a failing script or a bad letter is reported once,
    by its own problem, and counted once.
    """
    problems: list[str] = []

    if cert.version not in _VERSIONS:
        return ReplayReport(False, [f"unsupported certificate version {cert.version!r:.40}"])

    p_ = cert.params
    try:
        pres = cable_presentation(p_.x, p_.y, p_.p)
    except ValueError as err:
        return ReplayReport(False, [f"parameters do not rebuild: {err}"])

    # scripts, in order, with citations drawn only from earlier entries
    env: dict[str, Equation] = {}
    for entry in cert.entries:
        script = entry.script
        if script.script_id in env:
            problems.append(f"duplicate equation id {script.script_id!r:.40}")
            continue
        if script.slope is not None and script.slope != p_.slope:
            problems.append(f"equation {script.script_id!r:.40} proven at a different slope")
            continue
        try:
            env[script.script_id] = check_script(script, pres, env)
        except ValueError as err:
            problems.append(f"script {script.script_id!r:.40} fails: {err}")

    # refutation table: all 27 assignments, each row recomputed
    seen: set[int] = set()  # positions in all_sign_assignments()
    # each cited equation is read on its first row and kept as the sign
    # verdicts of its sides; None when it is not over a, b and t
    concrete: dict[str, tuple[tuple[str, ...], tuple[str, ...]] | None] = {}
    uncited: dict[str, int] = {}  # rows per cited id with no verified equation over a, b and t
    for assignment, eq_id, lhs_sign, rhs_sign in cert.refutations:
        k = _POSITIONS[assignment]
        if k in seen:
            problems.append(f"duplicate assignment {assignment.to_json_dict()}")
            continue
        seen.add(k)
        if eq_id is None:
            if k != _ALL_ZERO:
                problems.append("nontriviality axiom used on a nonzero assignment")
            continue
        if k == _ALL_ZERO:
            problems.append("the all-zero assignment must cite the nontriviality axiom")
            continue
        if eq_id not in concrete:
            eq = env.get(eq_id)
            if eq is not None:
                try:
                    concrete[eq_id] = (_verdicts(signed_letters(eq.lhs)), _verdicts(signed_letters(eq.rhs)))
                except ValueError as err:
                    problems.append(f"equation {eq_id!r:.40} is not over a, b and t: {err}")
                    concrete[eq_id] = None
        verdicts = concrete.get(eq_id)
        if verdicts is None:
            uncited[eq_id] = uncited.get(eq_id, 0) + 1
            continue
        ls, rs = verdicts[0][k], verdicts[1][k]
        if ls != lhs_sign or rs != rhs_sign:
            problems.append(
                f"recorded signs {lhs_sign!s:.40}/{rhs_sign!s:.40} for {eq_id!r:.40} recompute as {ls}/{rs}"
            )
            continue
        if ls == UNKNOWN or rs == UNKNOWN or ls == rs:
            problems.append(f"row for {eq_id!r:.40} is not a clash")
    # one problem per id: a failed script or a bad letter has already said why
    entry_ids = {entry.entry_id for entry in cert.entries}
    for eq_id, rows in uncited.items():
        if eq_id in env:
            problems.append(f"{rows} refutation row(s) cite equation {eq_id!r:.40}, which is not over a, b and t")
        elif eq_id in entry_ids:
            problems.append(f"{rows} refutation row(s) cite equation {eq_id!r:.40}, which did not verify")
        else:
            problems.append(f"{rows} refutation row(s) cite unknown equation {eq_id!r:.40}")
    missing = len(all_sign_assignments()) - len(seen)  # every valid assignment is one of them
    if missing:
        problems.append(f"{missing} assignments are not refuted")

    return ReplayReport(not problems, problems)
