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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .derivations import (
    Context,
    DerivationScript,
    Equation,
    StepError,
    admit,
    cable_endpoint_product_script,
    cable_t_power_script,
    central_relation_script,
    check_script,
    script_from_json_dict,
    script_to_json_dict,
    surgery_central_power_script,
    surgery_endpoint_identity_script,
    surgery_interior_combination_script,
    surgery_peripheral_power_script,
    surgery_t_inverse_power_script,
    surgery_t_power_identity_script,
)
from .presentations import GroupPresentation, ParameterError, cable_presentation
from .slopes import CramerTriple, Slope, beta_slope, cramer
from .words import Word

POS, NEG, ZERO = "pos", "neg", "zero"
UNKNOWN = "unknown"
SIGNS = (POS, NEG, ZERO)


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
                raise ValueError(f"bad sign {s!r}")

    def get(self, gen: str) -> str:
        return getattr(self, gen)

    def is_all_zero(self) -> bool:
        return self.a == ZERO and self.b == ZERO and self.t == ZERO

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "t": self.t}


def all_sign_assignments() -> tuple[SignAssignment, ...]:
    """All 27 assignments, all-positive first and all-zero last."""
    return tuple(
        SignAssignment(sa, sb, st) for sa in SIGNS for sb in SIGNS for st in SIGNS
    )


def evaluate_sign(w: Word, assignment: SignAssignment) -> str:
    """Sound sign of a concrete word under a generator sign assignment.

    Letters on zero generators are deleted; if every surviving letter
    (exponent sign included) carries one sign, that is the word's sign, and
    a word with nothing left is zero.  Mixed signs give ``unknown``.
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


@dataclass(frozen=True, slots=True)
class RefutationRow:
    """One refuted assignment: a clashing equation, or the nontriviality axiom."""

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
    x: int
    y: int
    p: int
    q: int
    mode: str  # "beta" | "slope"
    beta: int | None
    slope: Slope

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


@dataclass(frozen=True, slots=True)
class CertEntry:
    entry_id: str
    equation: Equation
    script: DerivationScript

    def to_json_dict(self) -> dict:
        ctx = self.equation.context
        return {
            "id": self.entry_id,
            "context": ctx.kind,
            "slope": str(ctx.slope) if ctx.slope else None,
            "lhs": str(self.equation.lhs),
            "rhs": str(self.equation.rhs),
            "script": script_to_json_dict(self.script),
        }


@dataclass(frozen=True, slots=True)
class ObstructionCertificate:
    params: CertParams
    entries: tuple[CertEntry, ...]
    cramer_data: CramerTriple | None
    refutations: tuple[RefutationRow, ...]
    version: str = "v1"

    def to_json_dict(self) -> dict:
        if self.cramer_data is None:
            cramer_doc = None
        else:
            c = self.cramer_data
            cramer_doc = {
                "d0": c.d0,
                "d1": c.d1,
                "d": c.d,
                "slopes": {"s0": str(c.s0), "s1": str(c.s1), "s": str(c.s)},
            }
        return {
            "version": self.version,
            "params": self.params.to_json_dict(),
            "equations": [e.to_json_dict() for e in self.entries],
            "cramer": cramer_doc,
            "refutations": [r.to_json_dict() for r in self.refutations],
        }


def certificate_from_json_dict(doc: dict) -> ObstructionCertificate:
    params = CertParams(
        x=doc["params"]["x"],
        y=doc["params"]["y"],
        p=doc["params"]["p"],
        q=doc["params"]["q"],
        mode=doc["params"]["mode"],
        beta=doc["params"]["beta"],
        slope=Slope.parse(doc["params"]["slope"]),
    )
    entries = []
    for e in doc["equations"]:
        ctx = Context(e["context"], Slope.parse(e["slope"]) if e.get("slope") else None)
        eq = Equation(Word.parse(e["lhs"]), Word.parse(e["rhs"]), ctx, provenance=e["id"])
        entries.append(CertEntry(e["id"], eq, script_from_json_dict(e["script"])))
    if doc.get("cramer") is None:
        cramer_data = None
    else:
        c = doc["cramer"]
        cramer_data = CramerTriple(
            c["d0"],
            c["d1"],
            c["d"],
            Slope.parse(c["slopes"]["s0"]),
            Slope.parse(c["slopes"]["s1"]),
            Slope.parse(c["slopes"]["s"]),
        )
    rows = []
    for r in doc["refutations"]:
        assignment = SignAssignment(**r["assignment"])
        reason = r["reason"]
        if reason["kind"] == "nontriviality_axiom":
            rows.append(RefutationRow(assignment, None, None, None))
        elif reason["kind"] == "clash":
            rows.append(
                RefutationRow(assignment, reason["equation"], reason["lhs_sign"], reason["rhs_sign"])
            )
        else:
            raise ValueError(f"bad refutation reason {reason!r}")
    return ObstructionCertificate(
        params=params,
        entries=tuple(entries),
        cramer_data=cramer_data,
        refutations=tuple(rows),
        version=doc.get("version", ""),
    )


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
    table, or Inconclusive with the surviving assignments.
    """
    concrete = []
    for eq in equations:
        if not eq.provenance:
            raise ValueError("equations must carry provenance ids")
        ctx = eq.context
        if ctx.kind == "H" and ctx.slope != slope:
            raise ValueError(f"equation {eq.provenance} was proven at slope {ctx.slope}, not {slope}")
        concrete.append((eq.provenance, pres.expand(eq.lhs), pres.expand(eq.rhs)))

    rows: list[RefutationRow] = []
    survivors: list[SignAssignment] = []
    for assignment in all_sign_assignments():
        if assignment.is_all_zero():
            # all generators trivial would make the whole group trivial, and
            # left-orderability is a property of nontrivial groups
            rows.append(RefutationRow(assignment, None, None, None))
            continue
        for eq_id, lw, rw in concrete:
            ls, rs = evaluate_sign(lw, assignment), evaluate_sign(rw, assignment)
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


def _admit(
    pres: GroupPresentation,
    env: dict[str, Equation],
    entries: list[CertEntry],
    script: DerivationScript,
) -> None:
    script, eq = admit(script, pres, env)
    entries.append(CertEntry(script.script_id, eq, script))


def certify_beta(
    x: int, y: int, p: int, beta: int
) -> ObstructionCertificate | Inconclusive:
    """Certificate for the surgery at slope pq - 1/beta, q = p*x*y - 1."""
    if beta < 1:
        raise UnsupportedParameters(f"beta must be >= 1, got {beta}")
    pres = _theorem_pres(x, y, p)
    assert pres.p is not None and pres.q is not None
    slope = beta_slope(pres.p, pres.q, beta)
    env: dict[str, Equation] = {}
    entries: list[CertEntry] = []
    _admit(pres, env, entries, central_relation_script(pres))
    _admit(pres, env, entries, cable_t_power_script(pres))
    _admit(pres, env, entries, surgery_peripheral_power_script(pres, beta))
    _admit(pres, env, entries, surgery_central_power_script(pres, beta))
    _admit(pres, env, entries, surgery_t_inverse_power_script(pres, beta, env))
    rows = refute_all([e.equation for e in entries], pres, slope)
    if isinstance(rows, Inconclusive):
        return rows
    params = CertParams(x, y, p, pres.q, "beta", beta, slope)
    return ObstructionCertificate(params, tuple(entries), None, rows)


def certify_slope(
    x: int, y: int, p: int, slope: Slope, experimental: bool = False
) -> ObstructionCertificate | Inconclusive:
    """Certificate for the surgery at a slope in [pq-1, pq], q = p*x*y - 1.

    With `experimental=True`, slopes strictly between pq-p-q and pq-1 are
    accepted as well; there the sign atoms are known to be insufficient and
    the result is an honest Inconclusive rather than an error.
    """
    pres = _theorem_pres(x, y, p)
    assert pres.q is not None
    q = pres.q
    pq = p * q
    low, high = Slope(pq - 1, 1), Slope(pq, 1)
    env: dict[str, Equation] = {}
    entries: list[CertEntry] = []
    cramer_data: CramerTriple | None = None

    _admit(pres, env, entries, central_relation_script(pres))
    _admit(pres, env, entries, cable_t_power_script(pres))
    if slope == low:
        _admit(pres, env, entries, cable_endpoint_product_script(pres, env))
        _admit(pres, env, entries, surgery_endpoint_identity_script(pres, env))
    elif slope == high:
        _admit(pres, env, entries, surgery_t_power_identity_script(pres))
    elif low < slope < high:
        cramer_data = cramer(low, high, slope)
        _admit(pres, env, entries, cable_endpoint_product_script(pres, env))
        _admit(pres, env, entries, surgery_interior_combination_script(pres, slope, env))
    elif experimental and Slope(pq - p - q, 1) < slope < low:
        pass  # open territory: only the knot-group equations are available
    else:
        raise UnsupportedParameters(
            f"slope {slope} is outside the certified window [{pq - 1}, {pq}]"
        )

    rows = refute_all([e.equation for e in entries], pres, slope)
    if isinstance(rows, Inconclusive):
        return rows
    params = CertParams(x, y, p, q, "slope", None, slope)
    return ObstructionCertificate(params, tuple(entries), cramer_data, rows)


# ---------------------------------------------------------------------------
# independent replay

@dataclass
class ReplayReport:
    ok: bool
    problems: list[str]

    def __bool__(self) -> bool:
        return self.ok


def replay(cert: ObstructionCertificate) -> ReplayReport:
    """Re-check every embedded script and every refutation row from scratch."""
    problems: list[str] = []

    if cert.version != "v1":
        return ReplayReport(False, [f"unsupported certificate version {cert.version!r}"])

    p_ = cert.params
    try:
        pres = cable_presentation(p_.x, p_.y, p_.p, p_.q)
    except (ParameterError, ValueError) as err:
        return ReplayReport(False, [f"parameters do not rebuild: {err}"])

    if p_.mode == "beta":
        if p_.beta is None or p_.beta < 1:
            problems.append("beta mode without a valid beta")
        elif p_.slope != beta_slope(p_.p, p_.q, p_.beta):
            problems.append("slope does not match beta")
    elif p_.mode == "slope":
        if p_.beta is not None:
            problems.append("slope mode must not carry beta")
    else:
        problems.append(f"unknown mode {p_.mode!r}")

    # scripts, in order, with citations drawn only from earlier entries
    env: dict[str, Equation] = {}
    verified: dict[str, Equation] = {}
    for entry in cert.entries:
        if entry.entry_id in env:
            problems.append(f"duplicate equation id {entry.entry_id!r}")
            continue
        script = entry.script
        if script.script_id != entry.entry_id:
            problems.append(f"entry {entry.entry_id!r} embeds script {script.script_id!r}")
            continue
        ctx = entry.equation.context
        if ctx.kind == "H" and ctx.slope != p_.slope:
            problems.append(f"equation {entry.entry_id!r} proven at a different slope")
            continue
        if script.context != ctx:
            problems.append(f"equation {entry.entry_id!r} context differs from its script")
            continue
        try:
            eq = check_script(script, pres, env)
        except (StepError, ValueError) as err:
            problems.append(f"script {entry.entry_id!r} fails: {err}")
            continue
        if eq.lhs != entry.equation.lhs or eq.rhs != entry.equation.rhs:
            problems.append(f"equation {entry.entry_id!r} does not match its script")
            continue
        env[entry.entry_id] = eq
        verified[entry.entry_id] = eq

    # refutation table: all 27 assignments, each row recomputed
    seen: set[SignAssignment] = set()
    concrete: dict[str, tuple[Word, Word]] = {}
    for eq_id, eq in verified.items():
        try:
            concrete[eq_id] = (pres.expand(eq.lhs), pres.expand(eq.rhs))
        except ValueError as err:
            problems.append(f"equation {eq_id!r} does not expand: {err}")
    for row in cert.refutations:
        if row.assignment in seen:
            problems.append(f"duplicate assignment {row.assignment.to_json_dict()}")
            continue
        seen.add(row.assignment)
        if row.equation_id is None:
            if not row.assignment.is_all_zero():
                problems.append("nontriviality axiom used on a nonzero assignment")
            continue
        if row.assignment.is_all_zero():
            problems.append("the all-zero assignment must cite the nontriviality axiom")
            continue
        if row.equation_id not in concrete:
            problems.append(f"refutation cites unknown equation {row.equation_id!r}")
            continue
        lw, rw = concrete[row.equation_id]
        ls, rs = evaluate_sign(lw, row.assignment), evaluate_sign(rw, row.assignment)
        if (ls, rs) != (row.lhs_sign, row.rhs_sign):
            problems.append(
                f"recorded signs {row.lhs_sign}/{row.rhs_sign} for {row.equation_id!r} "
                f"recompute as {ls}/{rs}"
            )
            continue
        if ls == UNKNOWN or rs == UNKNOWN or ls == rs:
            problems.append(f"row for {row.equation_id!r} is not a clash")
    missing = set(all_sign_assignments()) - seen
    if missing:
        problems.append(f"{len(missing)} assignments are not refuted")

    # determinant data must match an exact recomputation
    pq = p_.p * p_.q
    low, high = Slope(pq - 1, 1), Slope(pq, 1)
    if p_.mode == "slope" and low < p_.slope < high:
        if cert.cramer_data is None:
            problems.append("interior slope certificate lacks determinant data")
        else:
            expected = cramer(low, high, p_.slope)
            if cert.cramer_data != expected:
                problems.append("determinant data does not recompute")
            elif not (expected.d0 > 0 and expected.d1 > 0 and expected.d > 0):
                problems.append("interior determinants are not all positive")
    elif cert.cramer_data is not None:
        problems.append("unexpected determinant data")

    return ReplayReport(not problems, problems)
