"""Freely reduced words over a named generator alphabet.

A word is a sequence of syllables (generator, exponent) with nonzero
arbitrary-precision integer exponents and no two adjacent syllables on the
same generator.  Words are immutable values: every operation returns a fresh
reduced word, so they can be shared freely across concurrent sweeps.

``Word(...)`` trusts its syllables to be reduced already; unreduced input
(text, raw pairs) goes through :meth:`Word.from_pairs`, the one full reducer.
:func:`concat`, the one join, cancels and merges only where two words meet,
so it takes linear time; ``GroupPresentation.expand`` joins powers with it.

Text syntax: syllables are whitespace-separated, ``a^3 b^-1 t^2``; an
exponent of 1 is left implicit (``a``); ``1`` or the empty string denotes the
identity.  The parser and printer round-trip bit-exactly on canonical forms.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

Syllable = tuple[str, int]

_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")
# the texts __str__ prints, all ASCII: 1, or syllables g or g^e joined by
# single spaces, e an integer other than 0 and 1 with no leading zero or plus
_PRINTED_SYLLABLE = r"[A-Za-z][A-Za-z0-9_]*(?:\^(?:-?[1-9][0-9]+|-?[2-9]|-1))?"
_PRINTED = re.compile(rf"1|{_PRINTED_SYLLABLE}(?: {_PRINTED_SYLLABLE})*")


class WordSyntaxError(ValueError):
    """Raised when word text cannot be parsed."""


def _reduce(pairs: Iterable[Syllable]) -> tuple[Syllable, ...]:
    """Freely reduce a syllable sequence (merge runs, drop zero exponents)."""
    stack: list[Syllable] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged:
                stack.append((gen, merged))
        else:
            stack.append((gen, exp))
    return tuple(stack)


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word.  Construct via :meth:`from_pairs` or :meth:`parse`.

    The constructor does not reduce: ``Word(syllables)`` is only for syllables
    that are already reduced, because :func:`concat` cancels only at the
    junctions between words.
    """

    syllables: tuple[Syllable, ...] = ()

    @staticmethod
    def identity() -> "Word":
        return Word()

    @staticmethod
    def from_pairs(pairs: Iterable[Syllable]) -> "Word":
        return Word(_reduce(pairs))

    @staticmethod
    def single(gen: str, exp: int = 1) -> "Word":
        return Word(((gen, exp),) if exp else ())  # one syllable is reduced

    @staticmethod
    def parse(text: str) -> "Word":
        if not isinstance(text, str):
            raise WordSyntaxError(f"word text must be a string, got {type(text).__name__}")
        tokens = text.split()
        if not tokens or tokens == ["1"]:
            return Word()
        pairs = []
        for tok in tokens:
            m = _TOKEN.match(tok)
            if m is None:
                raise WordSyntaxError(f"bad syllable {tok!r:.40}")
            exp = int(m.group(2)) if m.group(2) is not None else 1
            if exp == 0:
                raise WordSyntaxError(f"zero exponent in {tok!r:.40}")
            pairs.append((m.group(1), exp))
        return Word.from_pairs(pairs)

    @staticmethod
    def parse_printed(text: str, what: str = "word") -> "Word":
        """The word `text` is, which must be written as that word prints: one text per word.

        A text the printed grammar matches, with no two adjacent syllables on
        one generator and no exponent over Python's digit limit, is built in
        one pass; any other is read by :meth:`parse` and printed back, and a
        text that is not the printed one is a ValueError naming `what`.
        """
        if type(text) is str and _PRINTED.fullmatch(text):
            if text == "1":
                return Word()
            syllables: list[Syllable] = []
            for token in text.split(" "):
                g, _, e = token.partition("^")
                if syllables and syllables[-1][0] == g:
                    break  # two syllables on one generator: not reduced
                try:
                    syllables.append((g, int(e) if e else 1))
                except ValueError:  # an exponent over the digit limit
                    break
            else:
                return Word(tuple(syllables))
        word = Word.parse(text)
        if str(word) != text:
            raise ValueError(f"{what} {text!r:.40} is not written as {str(word)!r:.40}")
        return word

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join([g if e == 1 else f"{g}^{e}" for g, e in self.syllables])  # a list joins faster

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self.syllables)

    def __len__(self) -> int:
        return len(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def generators(self) -> set[str]:
        return {g for g, _ in self.syllables}


def concat(*ws: Word) -> Word:
    """The reduced product of reduced words: a junction cancels until the first merge or mismatch."""
    out: list[Syllable] = []
    for w in ws:
        syllables, k = w.syllables, 0  # k: the syllables that cancel at this junction
        if out and syllables and out[-1][0] == syllables[0][0]:  # else nothing cancels or merges
            for (g0, e0), (g1, e1) in zip(reversed(out), syllables):
                if g0 != g1 or e0 + e1:
                    break
                k += 1
            del out[len(out) - k:]
            if out and k < len(syllables) and out[-1][0] == syllables[k][0]:
                out[-1] = (out[-1][0], out[-1][1] + syllables[k][1])
                k += 1
        out.extend(syllables[k:])
    return Word(tuple(out))


def invert(w: Word) -> Word:
    return Word(tuple((g, -e) for g, e in reversed(w.syllables)))


def power(w: Word, n: int) -> Word:
    """w^n, built from the split w = A c A^-1 as A c^n A^-1.

    c is what is left after peeling mutually inverse end syllables off w, so
    copies of c meet without cancelling: they only merge when c begins and
    ends on the same generator, and then the two end syllables are glued
    into one syllable between copies.  A power whose spelling could not fit
    in memory on any machine (more than ``sys.maxsize`` syllables) is a
    ValueError, raised before anything is allocated.
    """
    if n == 0 or not w.syllables:
        return Word()
    if n in (1, -1):  # nothing to peel: w or its inverse
        return w if n == 1 else invert(w)
    syls = w.syllables if n > 0 else invert(w).syllables
    n = abs(n)
    last = len(syls) - 1
    k = 0
    while k < last - k and syls[last - k] == (syls[k][0], -syls[k][1]):
        k += 1
    head, core, tail = syls[:k], syls[k : last - k + 1], syls[last - k + 1 :]
    (g0, e0), (g1, e1) = core[0], core[-1]
    if len(core) > 1 and n > sys.maxsize // len(core):
        raise ValueError(f"a power with |exponent| {n!s:.40} is too long to spell out")
    if len(core) == 1:
        core_n = ((g0, e0 * n),)
    elif g0 != g1:
        core_n = core * n
    else:
        # core = (g, e0) mid (g, e1) with e0 + e1 != 0, else it would have been peeled
        mid = core[1:-1]
        core_n = core[:1] + (mid + ((g0, e1 + e0),)) * (n - 1) + mid + core[-1:]
    return Word(head + core_n + tail)
