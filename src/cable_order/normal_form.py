"""Exact word problem for <a, b | a^x = b^y> via its central extension.

The element c = a^x = b^y is central and the quotient by it is the free
product of cyclic groups Z/x * Z/y.  Every element therefore has a unique
spelling c^k * s where s alternates a-syllables with exponents in [1, x-1]
and b-syllables with exponents in [1, y-1].  Two words are equal in the
group iff these spellings coincide, which gives an O(length) equality check.

Negative exponents normalize by floor division, so a^-1 becomes c^-1 a^(x-1).

Normal forms print as ``c^k · a^e1 b^e2 ...`` and the printed form
round-trips through :meth:`TorusNormalForm.parse`.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .presentations import MU, LAM, GroupPresentation
from .words import Syllable, Word, power

_NF_SYL = re.compile(r"([ab])(?:\^(-?\d+))?\Z")


class NonEliminable(ValueError):
    """A t-exponent is not a multiple of p, so the substitution is invalid."""


class TorusNormalForm(namedtuple("TorusNormalForm", "central_exponent syllables")):
    """c^central_exponent times the alternating a/b `syllables`, the canonical spelling (a tuple)."""

    __slots__ = ()

    def __str__(self) -> str:
        head = f"c^{self.central_exponent}"
        if not self.syllables:
            return head
        return f"{head} · {Word(self.syllables)}"

    @staticmethod
    def parse(text: str) -> "TorusNormalForm":
        head, _, tail = text.partition("·")
        head = head.strip()
        if not head.startswith("c^"):
            raise ValueError(f"bad normal form {text!r}")
        central = int(head[2:])
        syls = []
        for tok in tail.split():
            m = _NF_SYL.match(tok)
            if m is None:
                raise ValueError(f"bad normal form syllable {tok!r}")
            syls.append((m.group(1), int(m.group(2)) if m.group(2) else 1))
        return TorusNormalForm(central, tuple(syls))


def normal_form(w: Word, x: int, y: int) -> TorusNormalForm:
    """Canonical form of a word over {a, b} in <a, b | a^x = b^y>.

    Single left-to-right pass: each syllable merges into the stack, then its
    exponent is split by floor division into a central power (accumulated up
    front, since c commutes with everything) and a residue in range.  Merges
    that cancel a syllable completely expose the next merge, so the stack
    always alternates generators with in-range exponents.
    """
    central = 0
    stack: list[Syllable] = []
    for g, e in w.syllables:
        if g == "a":
            mod = x
        elif g == "b":
            mod = y
        else:
            raise ValueError(f"normal form is only defined over a, b; got {g!r}")
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
        k, r = divmod(e, mod)
        central += k
        if r:
            stack.append((g, r))
    return TorusNormalForm(central, tuple(stack))


def equal_in_torus_group(w1: Word, w2: Word, x: int, y: int) -> bool:
    return normal_form(w1, x, y) == normal_form(w2, x, y)


def eliminate_t(w: Word, pres: GroupPresentation) -> Word:
    """Replace each t^(kp) by the expansion of (mu^q lam^p)^k.

    Valid because mu^q lam^p = t^p in the cable group.  Raises
    :class:`NonEliminable` when some t-run has exponent not divisible by p,
    which signals the word may lie outside the subgroup where the
    substitution applies.
    """
    if pres.kind != "cable":
        raise ValueError("eliminate_t requires a cable presentation")
    p = pres.p
    assert p is not None and pres.q is not None
    peripheral = pres.expand(Word.from_pairs([(MU, pres.q), (LAM, p)]))
    pairs: list[Syllable] = []
    for g, e in w.syllables:
        if g == "t":
            k, r = divmod(e, p)
            if r:
                raise NonEliminable(f"t-exponent {e} is not a multiple of {p}")
            pairs.extend(power(peripheral, k).syllables)
        else:
            pairs.append((g, e))
    return Word.from_pairs(pairs)
