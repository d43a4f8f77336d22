"""Presentations of torus-knot groups and their cables, and the surgery relator's named form.

The torus knot group on parameters (x, y) is <a, b | a^x = b^y> with
meridian mu = b^j a^i and longitude lam = mu^(-xy) a^x, where x*j + y*i = 1
with the normalization 0 < i < x (hence j < 0).  The (p, q)-cable group adds
a generator t and the relation mu^q lam^p = t^p; its peripheral elements are
muC = mu^u lam^v t^-v and lamC = muC^(-pq) t^p with p*u - q*v = 1.

The paper's cables have q = p*x*y - 1 with p >= 2, and use the
normalization (u, v) = (x*y, 1); they are the only cables built here, so q,
u and v follow from (x, y, p).  A cable is built over its cached torus
base: it takes the base's relator, names, whitelist and (i, j), and adds
its own.  Every word a build writes is reduced as written (x, y, p >= 2 give
nonzero exponents on distinct adjacent letters), so it is made from its
syllables and the build runs no reducer.

A torus-knot presentation is the one whose `p` is None.  `named` maps
each defined name to its definition and `relators` each relator's name to
its named form, the word over defined names that equals the identity; both
are read-only, and a name is stored nowhere else.  Each defined name means
its definition over earlier names, and nothing else: a presentation keeps
no word over the alphabet for a name or a relator.
:meth:`GroupPresentation.expand` writes one out anew on every call, by
recursion through the definitions (at most four deep); no certify or replay
step asks it to, and the ``present --json`` document in :mod:`cli` calls it
once for each relator and each name.

Each presentation carries a commutation whitelist: the only pairs that the
derivation checker may swap.  Pairs are stored as base words; a query for
two syllables succeeds when each is a power of its base (so t-syllables
match the t^p base only when p divides the exponent).  Besides the pairs
the relation a^x = b^y gives directly, mu commutes with lam and with a^x:
a^x = b^y is central in the torus-knot group.

Presentations are deeply immutable, because the caches below hand the same
object to every caller and the checker reads its definitions and licences.
Nothing is set after construction.  Certify's memo of lemmas and tables
over a presentation lives in ``proofs``, keyed by the presentation's id
and dropped when it is freed; no core module imports ``proofs``, so
`replay` cannot read that memo.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .slopes import Slope
from .words import Syllable, Word, concat, power

MU, LAM, MUC, LAMC = "mu", "lam", "muC", "lamC"


class ParameterError(ValueError):
    """Raised for parameters outside the supported ranges."""


class TorusBezout(namedtuple("TorusBezout", "i j")):
    """(i, j) with x*j + y*i == 1, 0 < i < x and j < 0 (a tuple)."""

    __slots__ = ()


class CableBezout(namedtuple("CableBezout", "u v")):
    """(u, v) with p*u - q*v == 1 (a tuple)."""

    __slots__ = ()


def bezout_torus(x: int, y: int) -> TorusBezout:
    """The unique (i, j) with x*j + y*i == 1, 0 < i < x and j < 0; x, y >= 2 must be coprime."""
    if x < 2 or y < 2:
        raise ParameterError(f"torus parameters must be >= 2, got ({x!s:.40}, {y!s:.40})")
    if gcd(x, y) != 1:
        raise ParameterError(f"torus parameters must be coprime, got ({x!s:.40}, {y!s:.40})")
    i = pow(y, -1, x)
    j = (1 - y * i) // x
    assert x * j + y * i == 1 and 0 < i < x and j < 0
    return TorusBezout(i, j)


@dataclass(frozen=True)
class GroupPresentation:
    """A torus-knot group (`p` None) or a cable group: generators, relators, defined names and the whitelist."""

    x: int
    y: int
    p: int | None
    q: int | None
    alphabet: tuple[str, ...]
    relators: Mapping[str, Word]  # name -> named form, the identity; stored as a read-only copy
    named: Mapping[str, Word]  # name -> definition over earlier names; stored as a read-only copy
    whitelist: tuple[tuple[Word, Word], ...]
    torus_bezout: TorusBezout
    cable_bezout: CableBezout | None
    # (generator, generator) -> ((k1, k2), ...): the whitelist pairs whose bases
    # are single syllables g1^k1 and g2^k2, indexed in both orders
    _licences: Mapping[tuple[str, str], tuple[tuple[int, int], ...]] = field(
        init=False, repr=False, compare=False
    )
    _letters: frozenset[str] = field(init=False, repr=False, compare=False)  # see letters()

    def __post_init__(self) -> None:
        object.__setattr__(self, "relators", MappingProxyType(dict(self.relators)))
        object.__setattr__(self, "named", MappingProxyType(dict(self.named)))
        licences: dict[tuple[str, str], tuple[tuple[int, int], ...]] = {}
        for u, w in self.whitelist:
            if len(u.syllables) == len(w.syllables) == 1:
                ((g1, k1),), ((g2, k2),) = u.syllables, w.syllables
                licences[g1, g2] = licences.get((g1, g2), ()) + ((k1, k2),)
                licences[g2, g1] = licences.get((g2, g1), ()) + ((k2, k1),)
        object.__setattr__(self, "_licences", MappingProxyType(licences))
        object.__setattr__(self, "_letters", frozenset((*self.alphabet, *self.named)))

    def __reduce__(self):
        # a mappingproxy does not pickle: rebuild through __init__, which wraps both mappings again
        args = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        args["relators"], args["named"] = dict(self.relators), dict(self.named)
        return (GroupPresentation, tuple(args.values()))

    def letters(self) -> frozenset[str]:
        """The generators and the defined names (built with the presentation)."""
        return self._letters

    def expand(self, w: Word) -> Word:
        """The reduced word over the alphabet that `w` stands for: `w` itself if it is over the alphabet.

        Otherwise it is the :func:`concat` of its syllables, where name^e is
        the e-th power of the name's definition written out by recursion: a
        name is written out once per place in a definition, never per copy,
        and every call builds anew.  A letter that is neither a generator nor
        a name is a ValueError, raised before anything is built.
        """
        letters = w.generators()
        if letters.issubset(self.alphabet):
            return w
        if not letters.issubset(self._letters):
            g = next(g for g, _ in w.syllables if g not in self.named and g not in self.alphabet)
            raise ValueError(f"unknown generator {g!r:.40}")
        return concat(*[power(self.expand(self.named[g]), e) if g in self.named else Word(((g, e),))
                        for g, e in w.syllables])

    def commutes(self, s1: Syllable, s2: Syllable) -> bool:
        """True when the whitelist licenses swapping the two syllables."""
        (g1, e1), (g2, e2) = s1, s2
        for k1, k2 in self._licences.get((g1, g2), ()):  # a loop: any() over a generator costs twice as much
            if e1 % k1 == 0 and e2 % k2 == 0:
                return True
        return False


@lru_cache(maxsize=None)
def torus_presentation(x: int, y: int) -> GroupPresentation:
    """<a, b | a^x = b^y> with named meridian and longitude."""
    bezout = bezout_torus(x, y)
    a_x, mu = Word.single("a", x), Word.single(MU)
    return GroupPresentation(
        x=x,
        y=y,
        p=None,
        q=None,
        alphabet=("a", "b"),
        relators={"central": Word((("a", x), ("b", -y)))},
        named={MU: Word((("b", bezout.j), ("a", bezout.i))), LAM: Word(((MU, -x * y), ("a", x)))},
        whitelist=(
            (a_x, Word.single("b")),
            (Word.single("a"), Word.single("b", y)),
            (mu, Word.single(LAM)),
            (mu, a_x),  # a^x = b^y is central
        ),
        torus_bezout=bezout,
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
        raise ParameterError(f"q must be p*x*y - 1 = {p * x * y - 1!s:.40}, got {q!s:.40}")
    return _cable_presentation(x, y, p)


@lru_cache(maxsize=None)
def _cable_presentation(x: int, y: int, p: int) -> GroupPresentation:
    base = torus_presentation(x, y)
    if p < 2:
        raise ParameterError(f"cable winding p must be >= 2, got {p!s:.40}")
    q, u, v = p * x * y - 1, x * y, 1  # p*u - q*v = 1
    tp, muc, lamc = Word.single("t", p), Word.single(MUC), Word.single(LAMC)
    return GroupPresentation(
        x=x,
        y=y,
        p=p,
        q=q,
        alphabet=("a", "b", "t"),
        relators={**base.relators, "cable": Word(((MU, q), (LAM, p), ("t", -p)))},
        named={**base.named, MUC: Word(((MU, u), (LAM, v), ("t", -v))), LAMC: Word(((MUC, -p * q), ("t", p)))},
        whitelist=base.whitelist + ((Word.single(MU), tp), (Word.single(LAM), tp), (muc, lamc), (muc, tp), (lamc, tp)),
        torus_bezout=base.torus_bezout,
        cable_bezout=CableBezout(u, v),
    )


cable_presentation.cache_clear = _cable_presentation.cache_clear  # type: ignore[attr-defined]
cable_presentation.cache_info = _cable_presentation.cache_info  # type: ignore[attr-defined]


def surgery_named_form(pres: GroupPresentation, slope: Slope) -> Word:
    """The surgery relator muC^m lamC^n over the peripheral names."""
    if pres.p is None:
        raise ParameterError("surgery relators require a cable presentation")
    return Word(((MUC, slope.m), (LAMC, slope.n)) if slope.m else ((LAMC, slope.n),))  # n >= 1: reduced as written
