"""Presentations of torus-knot groups, their cables, and surgery relators.

The torus knot group on parameters (x, y) is <a, b | a^x = b^y> with
meridian mu = b^j a^i and longitude lam = mu^(-xy) a^x, where x*j + y*i = 1
with the normalization 0 < i < x (hence j < 0).  The (p, q)-cable group adds
a generator t and the relation mu^q lam^p = t^p; its peripheral elements are
muC = mu^u lam^v t^-v and lamC = muC^(-pq) t^p with p*u - q*v = 1.

In "theorem mode" the cable parameters are constrained to q = p*x*y - 1 with
p >= 2, and the normalization (u, v) = (x*y, 1) is used.  General-mode
presentations take 0 < v <= p instead.

Each presentation carries a commutation whitelist: the only pairs that the
derivation checker may swap.  Pairs are stored as base words; a query for
two syllables succeeds when each is a power of its base (so t-syllables
match the t^p base only when p divides the exponent).

Presentations are deeply immutable, because the caches below hand the same
object to every caller and the checker reads its definitions and licences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from math import gcd
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .slopes import Slope
from .words import Syllable, Word, concat, invert, power

CONCRETE_LETTERS = ("a", "b", "t")

MU, LAM, MUC, LAMC = "mu", "lam", "muC", "lamC"


class ParameterError(ValueError):
    """Raised for parameters outside the supported ranges."""


@dataclass(frozen=True, slots=True)
class TorusParams:
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x < 2 or self.y < 2:
            raise ParameterError(f"torus parameters must be >= 2, got ({self.x}, {self.y})")
        if gcd(self.x, self.y) != 1:
            raise ParameterError(f"torus parameters must be coprime, got ({self.x}, {self.y})")


@dataclass(frozen=True, slots=True)
class CableParams:
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ParameterError(f"cable winding p must be >= 2, got {self.p}")
        if gcd(self.p, self.q) != 1:
            raise ParameterError(f"cable parameters must be coprime, got ({self.p}, {self.q})")


class TorusBezout(NamedTuple):
    i: int
    j: int


class CableBezout(NamedTuple):
    u: int
    v: int


def bezout_torus(x: int, y: int) -> TorusBezout:
    """The unique (i, j) with x*j + y*i == 1, 0 < i < x and j < 0."""
    TorusParams(x, y)
    i = pow(y, -1, x)
    j = (1 - y * i) // x
    assert x * j + y * i == 1 and 0 < i < x and j < 0
    return TorusBezout(i, j)


def bezout_cable(p: int, q: int, xy_hint: int | None = None) -> CableBezout:
    """Solve p*u - q*v == 1.

    When q == p*xy_hint - 1 the canonical choice (u, v) = (xy_hint, 1) is
    returned; otherwise v is normalized into (0, p].
    """
    if gcd(p, q) != 1:
        raise ParameterError(f"cable parameters must be coprime, got ({p}, {q})")
    if xy_hint is not None and q == p * xy_hint - 1:
        return CableBezout(xy_hint, 1)
    v = (-pow(q, -1, p)) % p
    if v == 0:
        v = p
    u = (1 + q * v) // p
    assert p * u - q * v == 1 and 0 < v <= p
    return CableBezout(u, v)


@dataclass(frozen=True, slots=True)
class Relator:
    """A presentation relator: `word` == identity in the group.

    `named_form` is a compact spelling over defined element names whose full
    expansion equals `word`; derivation axioms quote it verbatim.
    """

    name: str
    word: Word
    named_form: Word


@dataclass(frozen=True, slots=True)
class NamedElement:
    """A defined element: `definition` over earlier names, `expansion` concrete."""

    name: str
    definition: Word
    expansion: Word


@dataclass(frozen=True)
class GroupPresentation:
    kind: str  # "torus" | "cable"
    x: int
    y: int
    p: int | None
    q: int | None
    alphabet: tuple[str, ...]
    relators: tuple[Relator, ...]
    named: Mapping[str, NamedElement]  # stored as a read-only copy
    whitelist: tuple[tuple[Word, Word], ...]
    torus_bezout: TorusBezout
    cable_bezout: CableBezout | None
    theorem_mode: bool
    # (generator, generator) -> ((k1, k2), ...): the whitelist pairs whose bases
    # are single syllables g1^k1 and g2^k2, indexed in both orders
    _licences: Mapping[tuple[str, str], tuple[tuple[int, int], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "named", MappingProxyType(dict(self.named)))
        licences: dict[tuple[str, str], tuple[tuple[int, int], ...]] = {}
        for u, w in self.whitelist:
            if len(u.syllables) == 1 and len(w.syllables) == 1:
                (g1, k1), (g2, k2) = u.syllables[0], w.syllables[0]
                licences[g1, g2] = licences.get((g1, g2), ()) + ((k1, k2),)
                licences[g2, g1] = licences.get((g2, g1), ()) + ((k2, k1),)
        object.__setattr__(self, "_licences", MappingProxyType(licences))

    def __reduce__(self):
        # a mappingproxy does not pickle: rebuild through __init__, which wraps `named` again
        args = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        args["named"] = dict(self.named)
        return (GroupPresentation, tuple(args.values()))

    def relator(self, name: str) -> Relator:
        for rel in self.relators:
            if rel.name == name:
                return rel
        raise KeyError(f"no relator named {name!r}")

    def letters(self) -> frozenset[str]:
        return frozenset(self.alphabet) | frozenset(self.named)

    def is_concrete(self, w: Word) -> bool:
        return set(map(itemgetter(0), w.syllables)).issubset(self.alphabet)

    def expand(self, w: Word) -> Word:
        """Replace defined-name letters by their concrete expansions.

        Each piece is reduced, so :func:`concat` cancels only where pieces meet.
        """
        pieces: list[Word] = []
        for g, e in w:
            if g in self.named:
                pieces.append(power(self.named[g].expansion, e))
            elif g in self.alphabet:
                pieces.append(Word(((g, e),)))
            else:
                raise ValueError(f"unknown generator {g!r:.40}")
        return concat(*pieces)

    def commutes(self, s1: Syllable, s2: Syllable) -> bool:
        """True when the whitelist licenses swapping the two syllables."""
        (g1, e1), (g2, e2) = s1, s2
        return any(e1 % k1 == 0 and e2 % k2 == 0 for k1, k2 in self._licences.get((g1, g2), ()))

    def to_json_dict(self) -> dict:
        params: dict = {"x": self.x, "y": self.y}
        if self.kind == "cable":
            params.update(p=self.p, q=self.q, theorem_mode=self.theorem_mode)
        params["bezout"] = {"i": self.torus_bezout.i, "j": self.torus_bezout.j}
        if self.cable_bezout is not None:
            params["bezout"].update(u=self.cable_bezout.u, v=self.cable_bezout.v)
        return {
            "version": "v1",
            "kind": self.kind,
            "params": params,
            "alphabet": list(self.alphabet),
            "relators": [
                {"name": r.name, "word": str(r.word), "named_form": str(r.named_form)}
                for r in self.relators
            ],
            "named": {
                n: {"definition": str(el.definition), "expansion": str(el.expansion)}
                for n, el in self.named.items()
            },
            "whitelist": [[str(u), str(w)] for u, w in self.whitelist],
        }


def _check_expansions(pres: GroupPresentation) -> None:
    # definitions may reference earlier names; expanding them must reproduce
    # the stored concrete expansion, and relator named forms the relator word
    for el in pres.named.values():
        if pres.expand(el.definition) != el.expansion:
            raise AssertionError(f"expansion mismatch for {el.name}")
        if not pres.is_concrete(el.expansion):
            raise AssertionError(f"expansion of {el.name} is not concrete")
    for rel in pres.relators:
        if pres.expand(rel.named_form) != rel.word:
            raise AssertionError(f"named form mismatch for relator {rel.name}")


@lru_cache(maxsize=None)
def torus_presentation(x: int, y: int) -> GroupPresentation:
    """<a, b | a^x = b^y> with named meridian and longitude."""
    TorusParams(x, y)
    i, j = bezout_torus(x, y)
    mu_word = Word.from_pairs([("b", j), ("a", i)])
    lam_def = Word.from_pairs([(MU, -x * y), ("a", x)])
    lam_word = concat(power(mu_word, -x * y), Word.single("a", x))
    central = Word.from_pairs([("a", x), ("b", -y)])
    named = {
        MU: NamedElement(MU, mu_word, mu_word),
        LAM: NamedElement(LAM, lam_def, lam_word),
    }
    whitelist = (
        (Word.single("a", x), Word.single("b")),
        (Word.single("a"), Word.single("b", y)),
        (Word.single(MU), Word.single(LAM)),
    )
    pres = GroupPresentation(
        kind="torus",
        x=x,
        y=y,
        p=None,
        q=None,
        alphabet=("a", "b"),
        relators=(Relator("central", central, central),),
        named=named,
        whitelist=whitelist,
        torus_bezout=TorusBezout(i, j),
        cable_bezout=None,
        theorem_mode=False,
    )
    _check_expansions(pres)
    return pres


def cable_presentation(
    x: int, y: int, p: int, q: int | None = None, theorem_mode: bool = True
) -> GroupPresentation:
    """The (p, q)-cable of the (x, y)-torus knot, over letters a, b, t.

    q defaults to p*x*y - 1, and is filled in before the cache lookup, so
    that ``(x, y, p)`` and ``(x, y, p, p*x*y - 1)`` share one cached object.
    """
    return _cable_presentation(x, y, p, p * x * y - 1 if q is None else q, theorem_mode)


@lru_cache(maxsize=None)
def _cable_presentation(x: int, y: int, p: int, q: int, theorem_mode: bool) -> GroupPresentation:
    base = torus_presentation(x, y)
    if theorem_mode and q != p * x * y - 1:
        raise ParameterError(f"theorem mode requires q = p*x*y - 1 = {p * x * y - 1}, got {q}")
    CableParams(p, q)
    u, v = bezout_cable(p, q, xy_hint=x * y if theorem_mode else None)

    mu_word = base.named[MU].expansion
    lam_word = base.named[LAM].expansion
    cable_named_form = Word.from_pairs([(MU, q), (LAM, p), ("t", -p)])
    cable_word = concat(power(mu_word, q), power(lam_word, p), Word.single("t", -p))

    muc_def = Word.from_pairs([(MU, u), (LAM, v), ("t", -v)])
    muc_word = concat(power(mu_word, u), power(lam_word, v), Word.single("t", -v))
    lamc_def = Word.from_pairs([(MUC, -p * q), ("t", p)])
    lamc_word = concat(power(muc_word, -p * q), Word.single("t", p))

    named = dict(base.named)
    named[MUC] = NamedElement(MUC, muc_def, muc_word)
    named[LAMC] = NamedElement(LAMC, lamc_def, lamc_word)

    tp = Word.single("t", p)
    whitelist = base.whitelist + (
        (Word.single(MU), tp),
        (Word.single(LAM), tp),
        (Word.single(MUC), Word.single(LAMC)),
        (Word.single(MUC), tp),
        (Word.single(LAMC), tp),
    )
    pres = GroupPresentation(
        kind="cable",
        x=x,
        y=y,
        p=p,
        q=q,
        alphabet=("a", "b", "t"),
        relators=(
            base.relators[0],
            Relator("cable", cable_word, cable_named_form),
        ),
        named=named,
        whitelist=whitelist,
        torus_bezout=base.torus_bezout,
        cable_bezout=CableBezout(u, v),
        theorem_mode=theorem_mode,
    )
    _check_expansions(pres)
    return pres


cable_presentation.cache_clear = _cable_presentation.cache_clear  # type: ignore[attr-defined]
cable_presentation.cache_info = _cable_presentation.cache_info  # type: ignore[attr-defined]


def surgery_named_form(pres: GroupPresentation, slope: Slope) -> Word:
    """The surgery relator muC^m lamC^n spelled over the peripheral names."""
    if pres.kind != "cable":
        raise ParameterError("surgery relators require a cable presentation")
    return Word.from_pairs([(MUC, slope.m), (LAMC, slope.n)])


def surgery_relator(pres: GroupPresentation, slope: Slope) -> Word:
    """Reduced expansion of muC^m lamC^n over the letters a, b, t."""
    return pres.expand(surgery_named_form(pres, slope))


def peripheral_invariance_check(x: int, y: int, p: int, q: int | None, k: int) -> bool:
    """Check that shifting the normalization by k defines the same peripherals.

    The meridian variant b^(j-ky) a^(i+kx) must equal b^j a^i in the torus
    group (decided by the normal form), and the k-shift derivation, which
    inserts the cable relation k times, must prove exactly
    muC = mu^(u+kq) lam^(v+kp) t^-(v+kp).
    """
    from . import derivations  # deferred: derivations imports this module
    from .normal_form import equal_in_torus_group

    pres = cable_presentation(x, y, p, q)
    i, j = pres.torus_bezout
    mu_variant = Word.from_pairs([("b", j - k * y), ("a", i + k * x)])
    if not equal_in_torus_group(pres.named[MU].expansion, mu_variant, x, y):
        return False
    assert pres.p is not None and pres.q is not None and pres.cable_bezout is not None
    u, v = pres.cable_bezout
    v_k = v + k * pres.p
    shifted = Word.from_pairs([(MU, u + k * pres.q), (LAM, v_k), ("t", -v_k)])
    try:
        eq = derivations.admit(derivations.meridian_shift_script(pres, k), pres, {})
    except derivations.StepError:
        return False
    return eq.lhs == Word.single(MUC) and eq.rhs == shifted
