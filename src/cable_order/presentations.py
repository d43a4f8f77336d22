"""Presentations of torus-knot groups, their cables, and surgery relators.

The torus knot group on parameters (x, y) is <a, b | a^x = b^y> with
meridian mu = b^j a^i and longitude lam = mu^(-xy) a^x, where x*j + y*i = 1
with the normalization 0 < i < x (hence j < 0).  The (p, q)-cable group adds
a generator t and the relation mu^q lam^p = t^p; its peripheral elements are
muC = mu^u lam^v t^-v and lamC = muC^(-pq) t^p with p*u - q*v = 1.

The paper's cables have q = p*x*y - 1 with p >= 2, and use the
normalization (u, v) = (x*y, 1); they are the only cables built here, so q,
u and v follow from (x, y, p).

Each defined name means its definition over earlier names, and nothing
else.  :meth:`GroupPresentation.expand` substitutes the names latest-first
through their definitions and reduces after each name, so powers cancel
among the names before anything is spelled out: muC^(pq-1) lamC becomes
muC^-1 t^p, then t a^-x t^p.  A name's spelling (its `expansion`) and a
relator's `word` are the expansion of its definition or named form, built
on first read; no certify or replay step reads one.

Each presentation carries a commutation whitelist: the only pairs that the
derivation checker may swap.  Pairs are stored as base words; a query for
two syllables succeeds when each is a power of its base (so t-syllables
match the t^p base only when p divides the exponent).  Besides the pairs
the relation a^x = b^y gives directly, mu commutes with lam and with a^x:
a^x = b^y is central in the torus-knot group.

Presentations are deeply immutable, because the caches below hand the same
object to every caller and the checker reads its definitions and licences.
The only things set after construction are the spellings and relator words,
each once, on first read, and the memo of slope-free lemmas that
``obstruction.certify_slope`` builds once per presentation (`_lemmas`);
every read sees the same value.  The memo lives and dies with its object:
``dataclasses.replace``, copying and unpickling start it empty, and
clearing the caches below drops it.  It holds only certificate entries,
each a script and the equation read from it: words and names with no
reference back to a presentation, so a presentation is freed by reference
counting alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache, partial
from math import gcd
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .slopes import Slope
from .words import Syllable, Word, _join, power

MU, LAM, MUC, LAMC = "mu", "lam", "muC", "lamC"


class ParameterError(ValueError):
    """Raised for parameters outside the supported ranges."""


class TorusBezout(NamedTuple):
    i: int
    j: int


class CableBezout(NamedTuple):
    u: int
    v: int


def bezout_torus(x: int, y: int) -> TorusBezout:
    """The unique (i, j) with x*j + y*i == 1, 0 < i < x and j < 0; x, y >= 2 must be coprime."""
    if x < 2 or y < 2:
        raise ParameterError(f"torus parameters must be >= 2, got ({x}, {y})")
    if gcd(x, y) != 1:
        raise ParameterError(f"torus parameters must be coprime, got ({x}, {y})")
    i = pow(y, -1, x)
    j = (1 - y * i) // x
    assert x * j + y * i == 1 and 0 < i < x and j < 0
    return TorusBezout(i, j)


@dataclass(frozen=True)
class Relator:
    """A presentation relator: `word` == identity in the group.

    `named_form` is a compact spelling over defined element names, which
    derivation axioms quote verbatim.  `word` is its expansion, built on the
    first read as :class:`NamedElement` builds its, and equality sees the
    name and the named form.
    """

    name: str
    named_form: Word
    spell: Callable[[], Word] = field(compare=False, repr=False)

    @cached_property
    def word(self) -> Word:
        return self.spell()


@dataclass(frozen=True)
class NamedElement:
    """A defined element: `definition` over earlier names, `expansion` concrete.

    The definition is what the name means; the expansion is its expansion,
    built by ``spell()`` on the first read and kept, and a failed read keeps
    nothing.  Equality and hashing see the name and the definition, so
    comparing never spells.  ``spell`` must pickle, as the element does.
    """

    name: str
    definition: Word
    spell: Callable[[], Word] = field(compare=False, repr=False)

    @cached_property
    def expansion(self) -> Word:
        return self.spell()

    def __repr__(self) -> str:
        built = vars(self).get("expansion")  # where cached_property keeps it
        spelled = "<built on first read>" if built is None else repr(built)
        return f"NamedElement(name={self.name!r}, definition={self.definition!r}, expansion={spelled})"


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
    # (generator, generator) -> ((k1, k2), ...): the whitelist pairs whose bases
    # are single syllables g1^k1 and g2^k2, indexed in both orders
    _licences: Mapping[tuple[str, str], tuple[tuple[int, int], ...]] = field(
        init=False, repr=False, compare=False
    )
    # (name, its definition, letters of the definition), latest name first: see expand
    _substitutions: tuple[tuple[str, Word, frozenset[str]], ...] = field(
        init=False, repr=False, compare=False
    )
    # factory name -> the lemma's CertEntry (its script, and the equation read from
    # the script once), built over this presentation: see the docstring
    _lemmas: dict[str, object] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "named", MappingProxyType(dict(self.named)))
        substitutions = []
        for el in reversed(self.named.values()):
            substitutions.append((el.name, el.definition, frozenset(el.definition.generators())))
        object.__setattr__(self, "_substitutions", tuple(substitutions))
        licences: dict[tuple[str, str], tuple[tuple[int, int], ...]] = {}
        for u, w in self.whitelist:
            if len(u.syllables) == 1 and len(w.syllables) == 1:
                (g1, k1), (g2, k2) = u.syllables[0], w.syllables[0]
                licences[g1, g2] = licences.get((g1, g2), ()) + ((k1, k2),)
                licences[g2, g1] = licences.get((g2, g1), ()) + ((k2, k1),)
        object.__setattr__(self, "_licences", MappingProxyType(licences))
        object.__setattr__(self, "_lemmas", {})

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

    def expand(self, w: Word) -> Word:
        """The reduced concrete word that `w` stands for.

        Defined names are substituted latest first (lamC, muC, lam, mu), each
        by its definition, with cancelling at the junctions after each name:
        muC^(pq-1) lamC becomes muC^-1 t^p before muC is substituted, and
        mu^xy lam becomes a^x before mu is.  A power name^e, |e| > 1, becomes
        the e-th power of the definition's expansion: its copies cancel alike,
        so they are expanded once.  Reduced words are unique, so the result is
        the full reduction of the spelled-out word.
        """
        syllables = w.syllables
        present = {g for g, _ in syllables}
        if not all(g in self.named or g in self.alphabet for g in present):
            g = next(g for g, _ in syllables if g not in self.named and g not in self.alphabet)
            raise ValueError(f"unknown generator {g!r:.40}")
        for name, body, body_letters in self._substitutions:
            if name not in present:
                continue
            present.discard(name)
            out: list[Syllable] = []
            expanded = None  # the definition's expansion, built for the first power
            start = 0  # the syllables from here up to the next name^e are copied as they are
            for k, (g, e) in enumerate(syllables):
                if g != name:
                    continue
                _join(out, syllables[start:k])
                start = k + 1
                if abs(e) == 1:  # its names may still cancel against the neighbours
                    _join(out, power(body, e).syllables)
                    present |= body_letters
                    continue
                expanded = self.expand(body) if expanded is None else expanded
                _join(out, power(expanded, e).syllables)
            _join(out, syllables[start:])
            syllables = out
        return w if syllables is w.syllables else Word(tuple(syllables))

    def commutes(self, s1: Syllable, s2: Syllable) -> bool:
        """True when the whitelist licenses swapping the two syllables."""
        (g1, e1), (g2, e2) = s1, s2
        return any(e1 % k1 == 0 and e2 % k2 == 0 for k1, k2 in self._licences.get((g1, g2), ()))

    def to_json_dict(self) -> dict:
        params: dict = {"x": self.x, "y": self.y}
        if self.kind == "cable":
            # every cable built is the paper's; the key keeps the document's bytes
            params.update(p=self.p, q=self.q, theorem_mode=True)
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


def _spell(x: int, y: int, p: int | None, name: str) -> Word:
    """``spell`` of every name and relator: the expansion of its definition or named form.

    p is None for the torus.  The presentation comes from the cache (an equal
    one is built if it was cleared): holding it would make a reference cycle
    through `named`, and each cold build would wait for the cycle collector.
    """
    pres = torus_presentation(x, y) if p is None else _cable_presentation(x, y, p)
    return pres.expand(pres.named[name].definition if name in pres.named else pres.relator(name).named_form)


@lru_cache(maxsize=None)
def torus_presentation(x: int, y: int) -> GroupPresentation:
    """<a, b | a^x = b^y> with named meridian and longitude."""
    i, j = bezout_torus(x, y)
    central = Word.from_pairs([("a", x), ("b", -y)])
    named = {
        MU: NamedElement(MU, Word.from_pairs([("b", j), ("a", i)]), partial(_spell, x, y, None, MU)),
        LAM: NamedElement(LAM, Word.from_pairs([(MU, -x * y), ("a", x)]), partial(_spell, x, y, None, LAM)),
    }
    whitelist = (
        (Word.single("a", x), Word.single("b")),
        (Word.single("a"), Word.single("b", y)),
        (Word.single(MU), Word.single(LAM)),
        (Word.single(MU), Word.single("a", x)),  # a^x = b^y is central
    )
    return GroupPresentation(
        kind="torus",
        x=x,
        y=y,
        p=None,
        q=None,
        alphabet=("a", "b"),
        relators=(Relator("central", central, partial(_spell, x, y, None, "central")),),
        named=named,
        whitelist=whitelist,
        torus_bezout=TorusBezout(i, j),
        cable_bezout=None,
    )


def cable_presentation(x: int, y: int, p: int, q: int | None = None) -> GroupPresentation:
    """The (p, q)-cable of the (x, y)-torus knot, over letters a, b, t.

    q is p*x*y - 1, and any other `q` is a ParameterError; (u, v) is
    (x*y, 1).  The cache is keyed on (x, y, p), so passing q or not returns
    one cached object.  `q` stays for four-argument callers such as
    ``bench/harness.py``; ``replay`` no longer passes it, since a
    certificate's q is derived from (x, y, p).
    """
    if q is not None and q != p * x * y - 1:
        raise ParameterError(f"q must be p*x*y - 1 = {p * x * y - 1}, got {q}")
    return _cable_presentation(x, y, p)


@lru_cache(maxsize=None)
def _cable_presentation(x: int, y: int, p: int) -> GroupPresentation:
    base = torus_presentation(x, y)
    if p < 2:
        raise ParameterError(f"cable winding p must be >= 2, got {p}")
    q, u, v = p * x * y - 1, x * y, 1  # p*u - q*v = 1

    muc_def = Word.from_pairs([(MU, u), (LAM, v), ("t", -v)])
    lamc_def = Word.from_pairs([(MUC, -p * q), ("t", p)])
    cable_named_form = Word.from_pairs([(MU, q), (LAM, p), ("t", -p)])
    named = dict(base.named)
    named[MUC] = NamedElement(MUC, muc_def, partial(_spell, x, y, p, MUC))
    named[LAMC] = NamedElement(LAMC, lamc_def, partial(_spell, x, y, p, LAMC))

    tp = Word.single("t", p)
    whitelist = base.whitelist + (
        (Word.single(MU), tp),
        (Word.single(LAM), tp),
        (Word.single(MUC), Word.single(LAMC)),
        (Word.single(MUC), tp),
        (Word.single(LAMC), tp),
    )
    return GroupPresentation(
        kind="cable",
        x=x,
        y=y,
        p=p,
        q=q,
        alphabet=("a", "b", "t"),
        relators=(
            base.relators[0],
            Relator("cable", cable_named_form, partial(_spell, x, y, p, "cable")),
        ),
        named=named,
        whitelist=whitelist,
        torus_bezout=base.torus_bezout,
        cable_bezout=CableBezout(u, v),
    )


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
