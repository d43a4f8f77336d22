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
proofs and the rows.

A verdict reads only which of the 6 signed letters of a, b, t a word has, so
:func:`refute_all` and :func:`replay` look verdicts up in a table of at most
64 letter sets, each evaluated under all 27 assignments once per process.

One pipeline, :func:`certify_slope`, covers every slope in [pq-1, pq]; its
surgery proof takes the same number of steps at every slope.
:func:`certify_beta` is that pipeline at the slope pq - 1/beta, labelled with
beta.  Certificates are written in format v2, whose scripts may use the
exponent steps ``commute`` and ``relation`` with `n`; :func:`replay` also
accepts format v1, whose beta certificates carried longer, beta-only proofs
and no determinant data, and rejects a v1 document that uses a v2 step form
when it is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .derivations import (
    CertEntry,
    Equation,
    StepError,
    _json_enum,
    _json_typed,
    cable_endpoint_product_script,
    cable_t_power_script,
    central_relation_script,
    check_script,
    script_from_json_dict,
    surgery_endpoint_identity_script,
    surgery_interior_combination_script,
    surgery_t_power_identity_script,
)
from .presentations import GroupPresentation, ParameterError, cable_presentation
from .slopes import CramerTriple, Slope, beta_slope, cramer
from .words import Syllable, Word

POS, NEG, ZERO = "pos", "neg", "zero"
UNKNOWN = "unknown"
SIGNS = (POS, NEG, ZERO)
VERSION = "v2"  # the format certify writes
_VERSIONS = frozenset({"v1", VERSION})  # the formats replay reads


class UnsupportedParameters(ParameterError):
    """Parameters outside the range the certified theorems cover."""


@dataclass(frozen=True, slots=True)
class SignAssignment:
    a: str
    b: str
    t: str

    def __post_init__(self) -> None:
        for s in (self.a, self.b, self.t):
            if s not in SIGNS:
                raise ValueError(f"bad sign {s!r:.40}")

    def get(self, gen: str) -> str:
        return getattr(self, gen)

    def is_all_zero(self) -> bool:
        return self.a == ZERO and self.b == ZERO and self.t == ZERO

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "t": self.t}


_ASSIGNMENTS = tuple(SignAssignment(sa, sb, st) for sa in SIGNS for sb in SIGNS for st in SIGNS)
_POSITIONS = {s: k for k, s in enumerate(_ASSIGNMENTS)}
_BY_SIGNS = {(s.a, s.b, s.t): s for s in _ASSIGNMENTS}


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
    """The distinct (generator, sign of exponent) pairs of `w`: at most 6 on a, b, t.

    A spelled-out power repeats its syllables, so they are deduplicated
    before anything is read one by one.
    """
    return frozenset((g, 1 if e > 0 else -1) for g, e in set(w.syllables))


@cache
def _verdicts(letters: frozenset[Syllable]) -> tuple[str, ...]:
    """:func:`evaluate_sign` of `letters` under each of :func:`all_sign_assignments`, in order.

    The memo holds at most 64 keys, the subsets of {a, b, t} x {+1, -1}: a
    set with any other letter raises, since the all-zero assignment reads
    every letter, and is never stored.
    """
    return tuple(evaluate_sign(letters, s) for s in _ASSIGNMENTS)


class RefutationRow(NamedTuple):
    """One refuted assignment: a clashing equation, or the nontriviality axiom (a tuple)."""

    assignment: SignAssignment
    equation_id: str | None  # None marks the nontriviality axiom
    lhs_sign: str | None
    rhs_sign: str | None

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


@dataclass(frozen=True, slots=True)
class Inconclusive:
    """The sign atoms could not refute every assignment; never a certificate."""

    survivors: tuple[SignAssignment, ...]


@dataclass(frozen=True, slots=True)
class CertParams:
    """(x, y, p), the slope and its beta label, if any; q and the mode are derived."""

    x: int
    y: int
    p: int
    slope: Slope
    beta: int | None = None

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


@dataclass(frozen=True, slots=True)
class ObstructionCertificate:
    params: CertParams
    entries: tuple[CertEntry, ...]
    refutations: tuple[RefutationRow, ...]
    version: str = VERSION

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
    script that is not an object, an enumerated field (step `kind`, `side`,
    `direction`, `anchor` and `on`, the axiom `kind`, `params.mode`, the
    recorded signs) outside its values, or a v1 document with a step of a
    form that v2 added raises ValueError here, so that `replay` checks only
    proofs and rows, of the right JSON types.  Load errors cut the values
    they quote to 40 characters.
    """
    par = doc["params"]
    params = CertParams(
        x=_json_typed(par["x"], int, "params.x"),
        y=_json_typed(par["y"], int, "params.y"),
        p=_json_typed(par["p"], int, "params.p"),
        slope=Slope.parse(par["slope"]),
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
        repeated = {"id": s["id"], "context": s["context"], "slope": s.get("slope"),
                    "lhs": claimed["lhs"], "rhs": claimed["rhs"]}
        for key, value in repeated.items():  # each the script's text, checked by the parse above
            if e.get(key) != value:
                raise ValueError(f"the {key} of equation {script.script_id!r:.40} differs from its script's")
        entries.append(CertEntry(script))
    version = _json_typed(doc.get("version", ""), str, "version")
    if version == "v1" and any(step.v2_only() for e in entries for step in e.script.steps):
        raise ValueError("a v1 certificate uses a step form of v2 (commute, or a relation exponent)")
    c, derived = doc.get("cramer"), determinant_data(params, version)
    if c is not None:  # typed first: true and 1.0 compare equal to 1
        for key in ("d0", "d1", "d"):
            _json_typed(c[key], int, f"cramer.{key}")
    if c != (None if derived is None else derived.to_json_dict()):
        raise ValueError("the determinant data is not the one the parameters and version give")
    rows = []
    for r in doc["refutations"]:
        signs = r["assignment"]
        if type(signs) is not dict or signs.keys() != _ASSIGNMENT_KEYS:
            raise ValueError("a refutation assignment must be an object with the keys a, b and t")
        try:
            assignment = _BY_SIGNS[signs["a"], signs["b"], signs["t"]]
        except (KeyError, TypeError):  # not a sign, or unhashable: name the first bad one
            assignment = SignAssignment(signs["a"], signs["b"], signs["t"])
        reason = r["reason"]
        if reason["kind"] == "nontriviality_axiom":
            rows.append(RefutationRow(assignment, None, None, None))
        elif reason["kind"] == "clash":
            eq_id = _json_typed(reason["equation"], str, "refutation equation")
            lhs_sign = _json_enum(reason["lhs_sign"], _RECORDED_SIGNS, "recorded lhs_sign")
            rhs_sign = _json_enum(reason["rhs_sign"], _RECORDED_SIGNS, "recorded rhs_sign")
            rows.append(RefutationRow(assignment, eq_id, lhs_sign, rhs_sign))
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
    table, or Inconclusive with the surviving assignments.  Each side's 27
    verdicts are read from the sign table (at most 64 letter sets).
    """
    concrete = []
    for eq in equations:
        if not eq.provenance:
            raise ValueError("equations must carry provenance ids")
        ctx = eq.context
        if ctx.kind == "H" and ctx.slope != slope:
            raise ValueError(f"equation {eq.provenance} was proven at slope {ctx.slope}, not {slope}")
        lhs, rhs = pres.expand(eq.lhs), pres.expand(eq.rhs)
        concrete.append((eq.provenance, _verdicts(signed_letters(lhs)), _verdicts(signed_letters(rhs))))

    rows: list[RefutationRow] = []
    survivors: list[SignAssignment] = []
    for k, assignment in enumerate(_ASSIGNMENTS):
        if assignment.is_all_zero():
            # all generators trivial would make the whole group trivial, and
            # left-orderability is a property of nontrivial groups
            rows.append(RefutationRow(assignment, None, None, None))
            continue
        for eq_id, lv, rv in concrete:
            ls, rs = lv[k], rv[k]
            if ls != UNKNOWN and rs != UNKNOWN and ls != rs:
                rows.append(RefutationRow(assignment, eq_id, ls, rs))
                break
        else:
            survivors.append(assignment)
    if survivors:
        return Inconclusive(tuple(survivors))
    return tuple(rows)


# ---------------------------------------------------------------------------
# certification pipelines

def _theorem_pres(x: int, y: int, p: int) -> GroupPresentation:
    try:
        return cable_presentation(x, y, p)
    except ParameterError as err:
        raise UnsupportedParameters(str(err)) from None


def _lemma(pres: GroupPresentation, factory: Callable[..., CertEntry], *args: object) -> CertEntry:
    """The slope-free lemma ``factory(pres, *args)``, built once per presentation.

    The presentation keeps the entry, so a later certificate over it lists
    the same script and equation without building anything again.
    """
    entry = pres._lemmas.get(factory.__name__)
    if entry is None:
        entry = pres._lemmas[factory.__name__] = factory(pres, *args)
    return entry


def certify_beta(
    x: int, y: int, p: int, beta: int
) -> ObstructionCertificate | Inconclusive:
    """Certificate for the surgery at slope pq - 1/beta, q = p*x*y - 1.

    This is :func:`certify_slope` at ``beta_slope(p, q, beta)`` with the
    parameters labelled with beta: beta = 1 is the endpoint pq - 1,
    and every larger beta an interior slope.
    """
    if beta < 1:
        raise UnsupportedParameters(f"beta must be >= 1, got {beta}")
    cert = certify_slope(x, y, p, beta_slope(p, p * x * y - 1, beta))
    if isinstance(cert, Inconclusive):
        return cert
    return replace(cert, params=replace(cert.params, beta=beta))


def certify_slope(x: int, y: int, p: int, slope: Slope) -> ObstructionCertificate | Inconclusive:
    """Certificate for the surgery at a slope in [pq-1, pq], q = p*x*y - 1.

    Every entry comes from a script factory, whose builder checked each step
    as it emitted it, so nothing here checks a script again.  The slope-free
    lemmas (``central_relation``, ``cable_t_power`` and, below pq,
    ``cable_endpoint_product``) are built on the first certificate that needs
    them over the cached presentation, which keeps them; later certificates
    over it reuse them and build only the surgery script.  Entries and bytes
    are the same either way, and :func:`replay` re-checks every script a
    certificate carries.
    """
    pres = _theorem_pres(x, y, p)
    assert pres.q is not None
    q = pres.q
    pq = p * q
    low, high = Slope(pq - 1, 1), Slope(pq, 1)
    entries = [_lemma(pres, central_relation_script), _lemma(pres, cable_t_power_script)]
    env = {entry.entry_id: entry.equation for entry in entries}
    if slope == high:
        surgery = surgery_t_power_identity_script(pres)
    elif low <= slope < high:
        endpoint = _lemma(pres, cable_endpoint_product_script, env)
        entries.append(endpoint)
        env[endpoint.entry_id] = endpoint.equation
        if slope == low:
            surgery = surgery_endpoint_identity_script(pres, env)
        else:
            surgery = surgery_interior_combination_script(pres, slope, env)
    else:
        raise UnsupportedParameters(
            f"slope {slope} is outside the certified window [{pq - 1}, {pq}]"
        )
    entries.append(surgery)

    # the endpoint product is a lemma of the surgery equation's proof and no
    # row cites it, so it is left out of `cited`: refute_all never expands
    # or sign-evaluates it
    cited = [entries[0].equation, entries[1].equation, surgery.equation]
    rows = refute_all(cited, pres, slope)
    if isinstance(rows, Inconclusive):
        return rows
    return ObstructionCertificate(CertParams(x, y, p, slope), tuple(entries), rows)


# ---------------------------------------------------------------------------
# independent replay

@dataclass
class ReplayReport:
    ok: bool
    problems: list[str]

    def __bool__(self) -> bool:
        return self.ok


def replay(cert: ObstructionCertificate) -> ReplayReport:
    """Re-check every embedded script and every refutation row from scratch.

    It checks the version, the rebuild of the presentation, unique ids, the
    slope of each surgery-quotient script, each script and each row, and
    compares no copies of a fact: the loader checks those.  Problems quote
    certificate values cut to 40 characters.  The rows that cite an equation
    with no verified proof make one problem per id, so a failing script is
    reported once, by its own problem, and counted once.  Only the equations
    that rows cite are expanded, each once, and their signs are read from
    the sign table (at most 64 letter sets).
    """
    problems: list[str] = []

    if cert.version not in _VERSIONS:
        return ReplayReport(False, [f"unsupported certificate version {cert.version!r:.40}"])

    p_ = cert.params
    try:
        pres = cable_presentation(p_.x, p_.y, p_.p)
    except (ParameterError, ValueError) as err:
        return ReplayReport(False, [f"parameters do not rebuild: {err}"])

    # scripts, in order, with citations drawn only from earlier entries
    env: dict[str, Equation] = {}
    for entry in cert.entries:
        script = entry.script
        if script.script_id in env:
            problems.append(f"duplicate equation id {script.script_id!r:.40}")
            continue
        if script.context.kind == "H" and script.context.slope != p_.slope:
            problems.append(f"equation {script.script_id!r:.40} proven at a different slope")
            continue
        try:
            env[script.script_id] = check_script(script, pres, env)
        except (StepError, ValueError) as err:
            problems.append(f"script {script.script_id!r:.40} fails: {err}")

    # refutation table: all 27 assignments, each row recomputed
    seen: set[int] = set()  # positions in all_sign_assignments()
    # each cited equation is expanded on its first row and kept as the sign
    # verdicts of its sides; None when it does not expand
    concrete: dict[str, tuple[tuple[str, ...], tuple[str, ...]] | None] = {}
    uncited: dict[str, int] = {}  # rows per cited id without a verified equation
    for row in cert.refutations:
        k = _POSITIONS[row.assignment]
        if k in seen:
            problems.append(f"duplicate assignment {row.assignment.to_json_dict()}")
            continue
        seen.add(k)
        if row.equation_id is None:
            if not row.assignment.is_all_zero():
                problems.append("nontriviality axiom used on a nonzero assignment")
            continue
        if row.assignment.is_all_zero():
            problems.append("the all-zero assignment must cite the nontriviality axiom")
            continue
        eq = env.get(row.equation_id)
        if eq is not None and row.equation_id not in concrete:
            try:
                lhs, rhs = pres.expand(eq.lhs), pres.expand(eq.rhs)
                concrete[row.equation_id] = (_verdicts(signed_letters(lhs)), _verdicts(signed_letters(rhs)))
            except ValueError as err:
                problems.append(f"equation {row.equation_id!r:.40} does not expand: {err}")
                concrete[row.equation_id] = None
        if concrete.get(row.equation_id) is None:
            uncited[row.equation_id] = uncited.get(row.equation_id, 0) + 1
            continue
        lv, rv = concrete[row.equation_id]
        ls, rs = lv[k], rv[k]
        if (ls, rs) != (row.lhs_sign, row.rhs_sign):
            problems.append(
                f"recorded signs {row.lhs_sign!s:.40}/{row.rhs_sign!s:.40} for {row.equation_id!r:.40} "
                f"recompute as {ls}/{rs}"
            )
            continue
        if ls == UNKNOWN or rs == UNKNOWN or ls == rs:
            problems.append(f"row for {row.equation_id!r:.40} is not a clash")
    # one problem per id: a failed script has already said why it failed
    entry_ids = {entry.entry_id for entry in cert.entries}
    for eq_id, rows in uncited.items():
        if eq_id in entry_ids:
            problems.append(f"{rows} refutation row(s) cite equation {eq_id!r:.40}, which did not verify")
        else:
            problems.append(f"{rows} refutation row(s) cite unknown equation {eq_id!r:.40}")
    missing = len(all_sign_assignments()) - len(seen)  # every valid assignment is one of them
    if missing:
        problems.append(f"{missing} assignments are not refuted")

    return ReplayReport(not problems, problems)
