"""Everything that generates a certificate: the proofs, written as checker steps, and certify.

This module is untrusted: :func:`obstruction.replay` checks every script
and every row of a certificate again, with the checker of
:mod:`derivations`, and takes nothing from here on trust.  No module of the
trusted core (`words`, `slopes`, `presentations`, `derivations` and
`obstruction`) imports this one.

Each proof factory is a list of :class:`Step` records in the vocabulary of
:func:`derivations.apply_step`, which documents every kind.  Every proof is
checked exactly once: :func:`prove` runs each step through the checker and
returns a :class:`CertEntry` holding only the script, whose claimed sides
are its checked final state.  The entry's id and equation are read from the
script, so the equation is used as it stands, never derived again, and an
entry cannot disagree with its script.  The slope-free lemmas are built
once per presentation, and kept for every later certificate over it.

One pipeline covers every slope in [pq-1, pq]; its surgery proof takes the
same number of steps at every slope.  :func:`certify_slope` runs it at a
slope and :func:`certify_beta` at the slope pq - 1/beta, labelled with beta.

A refutation table depends only on each cited equation's id and the
signed letters of its two sides.  Over one presentation the cited lemmas
are fixed, so the surgery equation's id and letter sets pick the table:
:func:`_certify` searches for each one once per presentation, and encodes
each distinct table once per process.

:func:`certificate_text` writes a certificate from parts each encoded
once: a lemma's text is kept beside its entry, and a table's beside its
rows.  This module keeps them in its memo per presentation (:func:`_memo`),
which lives until the presentation is freed, as a cache clear frees it.
No core module imports this one, so `replay` cannot read the memo.
"""

from __future__ import annotations

import json
import weakref
from collections.abc import Callable, Sequence
from functools import cache, partial

from . import obstruction
from .derivations import (
    LHS, RHS, Axiom, CertEntry, DerivationScript, Equation, Step, StepError, _tuple_new, apply_step, axiom_state,
)
from .obstruction import CertParams, Inconclusive, ObstructionCertificate, RefutationRow, signed_letters
from .presentations import LAM, LAMC, MU, MUC, GroupPresentation, ParameterError, cable_presentation
from .slopes import Slope, beta_slope, cramer
from .words import Syllable, Word, _reduce, invert, power


# ---------------------------------------------------------------------------
# proofs

REDUCE = Step("reduce", "both")
INVERT = Step("invert")

# The other step forms the factories emit, each built as its tuple of the
# twelve fields: Step's keyword arguments cost twice as much.


def _multiply(word: Word, on: str) -> Step:
    return _tuple_new(Step, ("multiply", None, None, word, None, None, None, None, None, None, on, None))


def _swap(side: str, position: int, left: Syllable, right: Syllable) -> Step:
    return _tuple_new(Step, ("swap", side, position, None, None, None, None, None, left, right, None, None))


def _expand(side: str, position: int, name: str) -> Step:
    return _tuple_new(Step, ("definition", side, position, None, name, None, "expand", None, None, None, None, None))


def _relation(
    side: str, position: int, ref: tuple[str, str], direction: str, anchor: str, n: int | None = None
) -> Step:
    return _tuple_new(Step, ("relation", side, position, None, None, ref, direction, anchor, None, None, None, n))


def _commute(side: str, position: int, name: str | None, word: Word | None = None, n: int | None = None) -> Step:
    return _tuple_new(Step, ("commute", side, position, word, name, None, None, None, None, None, None, n))


def prove(
    script_id: str,
    pres: GroupPresentation,
    slope: Slope | None,
    axiom: Axiom,
    steps: Sequence[Step],
    cites: tuple[str, ...] = (),
    env: dict[str, Equation] | None = None,
) -> CertEntry:
    """The entry of the script `steps`, which claims the final state the checker reaches.

    `slope` is where the script holds: None in the knot group, else the
    surgery slope of its quotient.  Each step goes through
    :func:`apply_step`, which is the checker itself, so nothing checks the
    script again before it is written.  A rejected step raises StepError
    with its index and the script id, as
    :func:`derivations.check_script` would.  The steps are not held to a
    :func:`derivations.side_cap`; a script read back as input, as every
    script of a certificate is under replay, is.  A script that ends on
    :data:`REDUCE` ends reduced; any other final state is reduced again to
    check that it is.
    """
    env = env or {}
    cited = {c: env[c] for c in cites if c in env}
    state = axiom_state(axiom, slope, pres)
    for index, step in enumerate(steps):
        try:
            apply_step(state, step, pres, slope, cited)
        except StepError as err:
            raise StepError(f"{err.reason}, in script {script_id!r:.40}", index=index) from None
    lhs, rhs = tuple(state[0]), tuple(state[1])
    if not (steps and steps[-1] is REDUCE) and (_reduce(lhs) != lhs or _reduce(rhs) != rhs):
        raise AssertionError("script must end on a reduced state")
    script = _tuple_new(DerivationScript, (script_id, slope, axiom, tuple(steps), Word(lhs), Word(rhs), cites))
    return _tuple_new(CertEntry, (script,))


def central_relation_script(pres: GroupPresentation) -> CertEntry:
    """a^x = b^y, read off the central relator."""
    return prove("central_relation", pres, None, Axiom("relator", "central"), [
        _multiply(Word.single("b", pres.y), "right"),
        REDUCE,
    ])


def cable_t_power_script(pres: GroupPresentation) -> CertEntry:
    """t^p = a^(xp-i) b^(-j) in the cable group, rewritten from the cable relator.

    The relator gives t^p = mu^q lam^p.  Commuting lam^p into the powers of
    its factors mu and a^x makes it mu^(-pxy) a^(px), which leaves
    mu^-1 a^(px) since q = pxy - 1; expanding mu and passing a^(px) over
    b^-j ends it.  Eight steps, whatever p.
    """
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    x = pres.x
    j = pres.torus_bezout.j
    return prove("cable_t_power", pres, None, Axiom("relator", "cable"), [
        _multiply(Word(((LAM, -p), (MU, -q))), "left"),
        REDUCE,
        INVERT,
        _commute(RHS, 1, LAM),
        REDUCE,  # mu^-1 a^(px)
        _expand(RHS, 0, MU),
        _swap(RHS, 1, ("b", -j), ("a", x * p)),
        REDUCE,
    ])


def cable_endpoint_product_script(
    pres: GroupPresentation, env: dict[str, Equation]
) -> CertEntry:
    """muC^(pq-1) lamC = t a^(x(p-1)-i) b^(-j) in the cable group."""
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    cites = ("cable_t_power",)
    return prove("cable_endpoint_product", pres, None, Axiom("definition", LAMC), [
        _multiply(Word.single(MUC, p * q - 1), "left"),  # muC^(pq-1) lamC = muC^-1 t^p
        REDUCE,
        _expand(RHS, 0, MUC),
        _expand(RHS, 1, LAM),
        REDUCE,
        # t^p over a and b
        _relation(RHS, 3, ("equation", "cable_t_power"), "forward", "before"),
        REDUCE,
    ], cites, env)


def surgery_t_power_identity_script(pres: GroupPresentation) -> CertEntry:
    """t^p = 1 in the quotient at the integer slope pq."""
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    return prove("surgery_t_power_identity", pres, Slope(p * q, 1), Axiom("surgery"), [
        _expand(LHS, 1, LAMC),
        REDUCE,
    ])


def surgery_endpoint_identity_script(
    pres: GroupPresentation, env: dict[str, Equation]
) -> CertEntry:
    """t a^(x(p-1)-i) b^(-j) = 1 in the quotient at the integer slope pq - 1."""
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    cites = ("cable_endpoint_product",)
    return prove("surgery_endpoint_identity", pres, Slope(p * q - 1, 1), Axiom("surgery"), [
        # the surgered product muC^(pq-1) lamC equals its rewritten form
        _relation(LHS, 2, ("equation", "cable_endpoint_product"), "forward", "before"),
        REDUCE,
    ], cites, env)


def surgery_interior_combination_script(
    pres: GroupPresentation, slope: Slope, env: dict[str, Equation]
) -> CertEntry:
    """(t a^.. b^..)^d0 (t^p)^d1 = 1 at an interior slope strictly between pq-1 and pq.

    m/n = (d0 (pq-1) + d1 pq)/n with n = d0 + d1, so the surgery relator
    muC^m lamC^n is muC^-d0 t^(pn) once lamC^n is commuted, and inserting
    E^d0 E^-d0 for the endpoint product E = muC^(pq-1) lamC leaves only
    commuting powers to gather.  Eight steps, whatever the slope.
    """
    p, q = pres.p, pres.q
    assert p is not None and q is not None
    pq = p * q
    triple = cramer(Slope(pq - 1, 1), Slope(pq, 1), slope)
    if not (triple.d0 > 0 and triple.d1 > 0):
        raise ParameterError(f"slope {slope!s:.40} is not strictly between {pq - 1!s:.40} and {pq!s:.40}")
    assert triple.d == 1  # integer endpoints one apart
    d0 = triple.d0
    endpoint = env["cable_endpoint_product"]
    run = len(power(endpoint.rhs, d0))  # (muC^(pq-1) lamC)^-d0 starts here
    cites = ("cable_endpoint_product",)
    return prove("surgery_interior_combination", pres, slope, Axiom("surgery"), [
        _commute(LHS, 1, LAMC),
        REDUCE,  # muC^-d0 t^(pn)
        _relation(LHS, 0, ("equation", "cable_endpoint_product"), "forward", "after", d0),
        _commute(LHS, run, None, invert(endpoint.lhs), d0),
        _commute(LHS, run, LAMC),
        _swap(LHS, run + 1, ("t", -p * d0), (MUC, (1 - pq) * d0)),
        _swap(LHS, run + 2, ("t", -p * d0), (MUC, -d0)),
        REDUCE,
    ], cites, env)


def meridian_shift_script(pres: GroupPresentation, k: int) -> CertEntry:
    """muC = mu^(u+kq) lam^(v+kp) t^-(v+kp): the normalization shift is invisible."""
    p, q = pres.p, pres.q
    assert p is not None and q is not None and pres.cable_bezout is not None
    u, v = pres.cable_bezout
    cable = ("relator", "cable")
    steps = []
    for c in range(abs(k)):
        if k > 0:
            steps += [
                _relation(RHS, 2, cable, "backward", "before"),
                _swap(RHS, 1, (LAM, v + c * p), (MU, q)),
                REDUCE,
            ]
        else:
            # t^p passes lam and mu, then mu passes lam
            steps += [
                _relation(RHS, 2, cable, "forward", "before"),
                _swap(RHS, 2, ("t", p), (LAM, -p)),
                _swap(RHS, 3, ("t", p), (MU, -q)),
                _swap(RHS, 2, (LAM, -p), (MU, -q)),
                _swap(RHS, 1, (LAM, v - c * p), (MU, -q)),
                REDUCE,
            ]
    return prove(f"cable_meridian_shift_{k}", pres, None, Axiom("definition", MUC), steps)


# ---------------------------------------------------------------------------
# certification pipelines

_MEMOS: dict[int, tuple[weakref.ref, dict]] = {}  # id(pres) -> (a weak reference to pres, its memo)


def _memo(pres: GroupPresentation) -> dict[object, tuple[object, str]]:
    """Certify's memo for `pres`, dropped as `pres` is freed, before its id can be reused.

    A lemma factory's name keys its entry, and a surgery equation's (id, lhs letters, rhs
    letters) its rows, each beside its compact JSON text; none refers back to a presentation.
    """
    held = _MEMOS.get(id(pres))
    if held is None:  # the callback is passed the reference: it runs _MEMOS.pop(id(pres), ref)
        held = _MEMOS[id(pres)] = (weakref.ref(pres, partial(_MEMOS.pop, id(pres))), {})
    return held[1]


def _lemma(pres: GroupPresentation, factory: Callable[..., CertEntry], *args: object) -> CertEntry:
    """The slope-free lemma ``factory(pres, *args)``, built once per presentation.

    The presentation's memo keeps the entry and its compact JSON text, so a
    later certificate over it lists the same script and equation, and
    :func:`certificate_text` writes the same bytes, without building or
    encoding anything again.
    """
    memo = _memo(pres)
    lemma = memo.get(factory.__name__)
    if lemma is None:
        entry = factory(pres, *args)
        lemma = memo[factory.__name__] = (entry, _compact(entry.to_json_dict()))
    return lemma[0]


def certify_beta(
    x: int, y: int, p: int, beta: int
) -> ObstructionCertificate | Inconclusive:
    """Certificate for the surgery at slope pq - 1/beta, q = p*x*y - 1.

    This is :func:`certify_slope` at ``beta_slope(p, q, beta)`` with the
    parameters labelled with beta: beta = 1 is the endpoint pq - 1,
    and every larger beta an interior slope.
    """
    if beta < 1:
        raise ParameterError(f"beta must be >= 1, got {beta!s:.40}")
    return _certify(x, y, p, beta_slope(p, p * x * y - 1, beta), beta)


def certify_slope(x: int, y: int, p: int, slope: Slope) -> ObstructionCertificate | Inconclusive:
    """Certificate for the surgery at a slope in [pq-1, pq], q = p*x*y - 1."""
    return _certify(x, y, p, slope, None)


def _certify(x: int, y: int, p: int, slope: Slope, beta: int | None) -> ObstructionCertificate | Inconclusive:
    """The certificate at `slope`, whose parameters carry the label `beta`.

    A slope outside [pq-1, pq] is refused before any lemma is built.
    Every entry comes from a proof factory, whose steps :func:`prove`
    checked as it applied them, so nothing here checks a script again.  The
    slope-free lemmas (``central_relation``, ``cable_t_power`` and, below
    pq, ``cable_endpoint_product``) are built on the first certificate that
    needs them over the cached presentation, whose memo keeps them; later
    certificates over it reuse them and build only the surgery script.
    The refutation table is kept in the same memo, keyed by the surgery
    equation's id and the signed letters of its sides, which with the
    presentation's lemmas are all ``obstruction.refute_all`` reads of the
    cited equations; so a surgery equation over the same letters as an
    earlier one reuses its rows and their text, which :func:`_table` shares
    between presentations.  Entries and bytes are the same either way, and
    :func:`replay` re-checks every script and every row a certificate
    carries.
    """
    pres = cable_presentation(x, y, p)
    assert pres.q is not None
    pq = p * pres.q
    low, high = Slope(pq - 1, 1), Slope(pq, 1)
    if not low <= slope <= high:
        raise ParameterError(f"slope {slope!s:.40} is outside the certified window [{pq - 1!s:.40}, {pq!s:.40}]")
    entries = [_lemma(pres, central_relation_script), _lemma(pres, cable_t_power_script)]
    env = {entry.entry_id: entry.equation for entry in entries}
    if slope == high:
        surgery = surgery_t_power_identity_script(pres)
    else:
        endpoint = _lemma(pres, cable_endpoint_product_script, env)
        entries.append(endpoint)
        env[endpoint.entry_id] = endpoint.equation
        if slope == low:
            surgery = surgery_endpoint_identity_script(pres, env)
        else:
            surgery = surgery_interior_combination_script(pres, slope, env)
    entries.append(surgery)

    # the key is what refute_all reads of `cited` that can change over one
    # presentation (the surgery equation is proven at `slope`, as its check
    # requires); the endpoint product is a lemma that no row cites, so nothing
    # here spells or sign-evaluates its sides, which hold muC and lamC
    eq = surgery.equation
    key = (surgery.entry_id, signed_letters(eq.lhs), signed_letters(eq.rhs))
    memo = _memo(pres)
    table = memo.get(key)
    if table is None:
        cited = [entries[0].equation, entries[1].equation, eq]
        rows = obstruction.refute_all(cited, pres, slope)  # looked up on the module, where a caller may wrap it
        if isinstance(rows, Inconclusive):
            return rows
        table = memo[key] = _table(rows)
    return ObstructionCertificate(CertParams(x, y, p, slope, beta), tuple(entries), table[0])


# ---------------------------------------------------------------------------
# certificate text

# json.dumps(doc, separators=(",", ":"), check_circular=False), from one encoder made at import: CPython's C
# encoder is called as it is, which skips the set-up JSONEncoder.encode repeats per call
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_C_ENCODE = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    # markers, default, encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None, ":", ",", False, False, True
)


def _compact(doc: object) -> str:
    return "".join(_C_ENCODE(doc, 0)) if _C_ENCODE else _ENCODER.encode(doc)


@cache
def _table(rows: tuple[RefutationRow, ...]) -> tuple[tuple[RefutationRow, ...], str]:
    """The first table equal to `rows` met in this process, beside its compact JSON text.

    Bounded by construction: the theorem's ranges fix the letter signs of
    every equation certify cites, so there is one table per surgery factory.
    """
    return rows, ",".join(_compact(row.to_json_dict()) for row in rows)


def certificate_text(cert: ObstructionCertificate) -> str:
    """``json.dumps(cert.to_json_dict(), separators=(",", ":"))``, joined from parts encoded once.

    A lemma entry takes the text its presentation's memo keeps beside it
    (see :func:`_lemma`), but only when the memo's entry *is* the
    certificate's: the test is identity on two live objects, so no freed
    object's reused address can stand in.  Any other entry, such as the
    surgery script, an entry of a loaded certificate or a lemma built again
    after the caches were cleared, is encoded here.  The refutation table
    follows the same rule: it takes the text the memo keeps beside a table
    only when that table *is* the certificate's, and otherwise its rows are
    encoded here.  The parameters and the determinant data are encoded per
    certificate.  The parameters must build a presentation, as every
    certified one's do.
    """
    par = cert.params
    # the memo's texts by the id of their part: the parts and the certificate's are all live, so an
    # equal id is the same object
    texts = {id(part): text for part, text in _memo(cable_presentation(par.x, par.y, par.p)).values()}
    equations = [texts.get(id(entry)) or _compact(entry.to_json_dict()) for entry in cert.entries]
    rows = texts.get(id(cert.refutations)) or ",".join(_compact(row.to_json_dict()) for row in cert.refutations)
    c = cert.cramer_data
    head = _compact({"version": cert.version, "params": par.to_json_dict()})
    return "".join((
        head[:-1], ',"equations":[', ",".join(equations), '],"cramer":',
        _compact(None if c is None else c.to_json_dict()), ',"refutations":[', rows, "]}",
    ))
