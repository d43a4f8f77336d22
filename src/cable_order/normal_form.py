"""The ``verify-identities`` checks: independent oracles set against the derivation checker.

This module is untrusted, like :mod:`proofs`: no module of the trusted core
imports it, and neither certify nor replay runs it.

The main oracle is the exact word problem for <a, b | a^x = b^y> via its
central extension.  The element c = a^x = b^y is central and the quotient by
it is the free product of cyclic groups Z/x * Z/y.  Every element therefore
has a unique spelling c^k * s where s alternates a-syllables with exponents
in [1, x-1] and b-syllables with exponents in [1, y-1].  Two words are equal
in the group iff these spellings coincide, which gives an O(length)
equality check.  Negative exponents normalize by floor division, so a^-1
becomes c^-1 a^(x-1).

:func:`identity_report` runs every check ``verify-identities`` prints: the
t-power and the proofs of ``cable_t_power`` and ``cable_endpoint_product``
confirmed by the normal form, the peripheral elements' independence of the
normalization (:func:`peripheral_invariance_check`), and the surgery
window's place above 2g - 1 (:func:`lspace_window_check`).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import proofs
from .derivations import Equation, StepError
from .presentations import LAM, MU, MUC, GroupPresentation, cable_presentation
from .words import Syllable, Word, concat, power


class NonEliminable(ValueError):
    """A t-exponent is not a multiple of p, so the substitution is invalid."""


class TorusNormalForm(namedtuple("TorusNormalForm", "central_exponent syllables")):
    """c^central_exponent times the alternating a/b `syllables`, the canonical spelling (a tuple)."""

    __slots__ = ()


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
    if pres.p is None:
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


# ---------------------------------------------------------------------------
# the genus and the surgery window

def genus(x: int, y: int, p: int, q: int) -> int:
    """Genus of the (p, q)-cable of the (x, y)-torus knot.

    2g = (p - 1)(q - 1) + p(x - 1)(y - 1), in integers.  It is even when x, y
    and p, q are coprime pairs; a pair that is not names no knot, and is a
    ValueError.
    """
    if gcd(x, y) != 1 or gcd(p, q) != 1:
        raise ValueError(
            f"the genus needs coprime pairs, got (x, y) = ({x!s:.40}, {y!s:.40}) and (p, q) = ({p!s:.40}, {q!s:.40})"
        )
    return ((p - 1) * (q - 1) + p * (x - 1) * (y - 1)) // 2


class WindowReport(namedtuple("WindowReport", "x y p q two_g_minus_1 window_low_gap ok")):
    """The window check at (x, y, p) with q = pxy - 1 (a tuple).

    `window_low_gap` is p(x + y) - 2, the distance from pq - 1 down to
    2g - 1, and `ok` says that the identity and the gap's sign hold.
    """

    __slots__ = ()


def lspace_window_check(x: int, y: int, p: int) -> WindowReport:
    """Check that [pq-1, pq] sits above the 2g-1 threshold when q = p*x*y - 1.

    Verifies the exact identity 2g - 1 == (pq - 1) - [p(x+y) - 2] together
    with p(x+y) - 2 > 0.
    """
    q = p * x * y - 1
    two_g = 2 * genus(x, y, p, q)
    gap = p * (x + y) - 2
    return WindowReport(x, y, p, q, two_g - 1, gap, two_g - 1 == (p * q - 1) - gap and gap > 0)


# ---------------------------------------------------------------------------
# the checks verify-identities prints

def peripheral_invariance_check(x: int, y: int, p: int, k: int) -> bool:
    """Check that shifting the normalization by k defines the same peripherals.

    The meridian variant b^(j-ky) a^(i+kx) must equal b^j a^i in the torus
    group (decided by the normal form), and the k-shift derivation, which
    inserts the cable relation k times, must prove exactly
    muC = mu^(u+kq) lam^(v+kp) t^-(v+kp).
    """
    pres = cable_presentation(x, y, p)
    i, j = pres.torus_bezout
    mu_variant = Word.from_pairs([("b", j - k * y), ("a", i + k * x)])
    if not equal_in_torus_group(pres.expand(pres.named[MU]), mu_variant, x, y):
        return False
    assert pres.p is not None and pres.q is not None and pres.cable_bezout is not None
    u, v = pres.cable_bezout
    v_k = v + k * pres.p
    shifted = Word.from_pairs([(MU, u + k * pres.q), (LAM, v_k), ("t", -v_k)])
    try:
        eq = proofs.meridian_shift_script(pres, k).equation  # looked up on the module, where a test may replace it
    except StepError:
        return False
    return eq.lhs == Word.single(MUC) and eq.rhs == shifted


def identity_report(x: int, y: int, p: int) -> list[tuple[str, bool, str]]:
    """Cross-checks between the derivation checker and the independent oracles."""
    checks: list[tuple[str, bool, str]] = []
    pres = cable_presentation(x, y, p)
    assert pres.p is not None and pres.q is not None
    i, j = pres.torus_bezout

    def add(name: str, fn) -> None:
        try:
            ok, detail = fn()
        except ValueError as err:
            ok, detail = False, str(err)
        checks.append((name, ok, detail))

    def t_power_vs_normal_form():
        target = Word.from_pairs([("a", x * p - i), ("b", -j)])
        got = eliminate_t(Word.single("t", pres.p), pres)
        return equal_in_torus_group(got, target, x, y), f"t^{p} reduces to {target}"

    # each proof is built once; the checks run in the order they are added,
    # so the endpoint check finds cable_t_power already in env
    env: dict[str, Equation] = {}

    def derivation_vs_normal_form():
        eq = env["cable_t_power"] = proofs.cable_t_power_script(pres).equation
        lhs_ab = eliminate_t(pres.expand(eq.lhs), pres)
        ok = equal_in_torus_group(lhs_ab, pres.expand(eq.rhs), x, y)
        return ok, f"checked {eq.lhs} = {eq.rhs}"

    def endpoint_tail_vs_normal_form():
        eq = proofs.cable_endpoint_product_script(pres, env).equation
        tail = Word(eq.rhs.syllables[1:])  # strip the leading t
        lhs_ab = concat(Word.single("a", -x), eliminate_t(Word.single("t", pres.p), pres))
        return equal_in_torus_group(lhs_ab, tail, x, y), f"tail {tail}"

    def peripheral_invariance():
        for k in range(-3, 4):
            if not peripheral_invariance_check(x, y, p, k):
                return False, f"failed at shift k={k}"
        return True, "shifts -3..3 define the same peripherals"

    def window_identity():
        report = lspace_window_check(x, y, p)
        detail = f"2g-1 = {report.two_g_minus_1} = (pq-1) - {report.window_low_gap}"
        return report.ok, detail

    add("t-power elimination matches the normal form", t_power_vs_normal_form)
    add("t-power derivation confirmed by the normal form", derivation_vs_normal_form)
    add("endpoint product tail confirmed by the normal form", endpoint_tail_vs_normal_form)
    add("peripheral elements independent of normalization shifts", peripheral_invariance)
    add("surgery window sits above the 2g-1 threshold", window_identity)
    return checks
