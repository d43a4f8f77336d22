"""Shared test machinery: strategies, licensed relation moves, exact solvers."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from cable_order.derivations import LHS, RHS, Axiom, DerivationScript, Equation, Step
from cable_order.presentations import LAM, LAMC, MU, MUC, GroupPresentation
from cable_order.proofs import REDUCE, prove
from cable_order.slopes import Slope, cramer
from cable_order.words import Word, concat, power


def word_strategy(alphabet=("a", "b", "t"), max_syllables=8, max_exp=6):
    syl = st.tuples(
        st.sampled_from(alphabet),
        st.integers(min_value=-max_exp, max_value=max_exp).filter(bool),
    )
    return st.lists(syl, max_size=max_syllables).map(Word.from_pairs)


def random_word(rng: random.Random, alphabet=("a", "b"), max_syllables=8, max_exp=6) -> Word:
    pairs = []
    for _ in range(rng.randint(0, max_syllables)):
        exp = 0
        while exp == 0:
            exp = rng.randint(-max_exp, max_exp)
        pairs.append((rng.choice(alphabet), exp))
    return Word.from_pairs(pairs)


# -- relation moves on words over {a, b}; both preserve the group element ----

def insert_relator_move(word: Word, x: int, y: int, rng: random.Random) -> Word:
    """Insert a^x b^-y or its inverse at a random position, splitting syllables."""
    syls = list(word.syllables)
    rel = [("a", x), ("b", -y)] if rng.random() < 0.5 else [("b", y), ("a", -x)]
    k = rng.randint(0, len(syls))
    if k < len(syls) and abs(syls[k][1]) > 1 and rng.random() < 0.5:
        g, e = syls[k]
        cut = rng.randint(1, abs(e) - 1) * (1 if e > 0 else -1)
        new = syls[:k] + [(g, cut)] + rel + [(g, e - cut)] + syls[k + 1 :]
    else:
        new = syls[:k] + rel + syls[k:]
    return Word.from_pairs(new)


def licensed_swap_move(word: Word, x: int, y: int, rng: random.Random) -> Word | None:
    """Swap one whitelisted adjacent pair (a^kx with b^m, or a^k with b^my)."""
    syls = list(word.syllables)
    candidates = []
    for idx in range(len(syls) - 1):
        (g1, e1), (g2, e2) = syls[idx], syls[idx + 1]
        if {g1, g2} == {"a", "b"}:
            ea = e1 if g1 == "a" else e2
            eb = e1 if g1 == "b" else e2
            if ea % x == 0 or eb % y == 0:
                candidates.append(idx)
    if not candidates:
        return None
    idx = rng.choice(candidates)
    syls[idx], syls[idx + 1] = syls[idx + 1], syls[idx]
    return Word.from_pairs(syls)


def random_licensed_move(word: Word, x: int, y: int, rng: random.Random) -> Word:
    if rng.random() < 0.4:
        swapped = licensed_swap_move(word, x, y, rng)
        if swapped is not None:
            return swapped
    return insert_relator_move(word, x, y, rng)


# -- reference spellings, built with concat and power ------------------------

def reference_spellings(pres: GroupPresentation) -> dict[str, Word]:
    """Every name's spelling and every relator's word, by concat and power.

    mu = b^j a^i, lam = mu^-xy a^x, muC = mu^u lam^v t^-v,
    lamC = muC^-pq t^p and the cable relator mu^q lam^p t^-p, each built
    from the concrete spellings before it, as the builders once did.
    """
    x, y = pres.x, pres.y
    i, j = pres.torus_bezout
    mu = Word.from_pairs([("b", j), ("a", i)])
    lam = concat(power(mu, -x * y), Word.single("a", x))
    out = {MU: mu, LAM: lam, "central": Word.from_pairs([("a", x), ("b", -y)])}
    if pres.p is not None:
        p, q = pres.p, pres.q
        u, v = pres.cable_bezout
        muc = concat(power(mu, u), power(lam, v), Word.single("t", -v))
        out[MUC] = muc
        out[LAMC] = concat(power(muc, -p * q), Word.single("t", p))
        out["cable"] = concat(power(mu, q), power(lam, p), Word.single("t", -p))
    return out


# -- exact integer solvers for abelianization lattice membership -------------

def abelianize(w: Word) -> dict[str, int]:
    """Exponent sum per generator; generators with sum zero are dropped."""
    sums: dict[str, int] = {}
    for g, e in w.syllables:
        sums[g] = sums.get(g, 0) + e
    return {g: e for g, e in sums.items() if e}


def ab_vector(word_or_dict) -> tuple[int, int, int]:
    d = word_or_dict if isinstance(word_or_dict, dict) else abelianize(word_or_dict)
    return (d.get("a", 0), d.get("b", 0), d.get("t", 0))


def _det3(c0, c1, c2) -> int:
    return (
        c0[0] * (c1[1] * c2[2] - c1[2] * c2[1])
        - c1[0] * (c0[1] * c2[2] - c0[2] * c2[1])
        + c2[0] * (c0[1] * c1[2] - c0[2] * c1[1])
    )


def in_integer_span(columns: list[tuple[int, int, int]], target: tuple[int, int, int]) -> bool:
    """Membership of target in the Z-span of 2 or 3 independent columns."""
    if len(columns) == 2:
        v1, v2 = columns
        for r1 in range(3):
            for r2 in range(r1 + 1, 3):
                det = v1[r1] * v2[r2] - v1[r2] * v2[r1]
                if det == 0:
                    continue
                z1n = target[r1] * v2[r2] - target[r2] * v2[r1]
                z2n = v1[r1] * target[r2] - v1[r2] * target[r1]
                if z1n % det or z2n % det:
                    return False
                z1, z2 = z1n // det, z2n // det
                return all(z1 * v1[r] + z2 * v2[r] == target[r] for r in range(3))
        raise ValueError("columns are not independent")
    if len(columns) == 3:
        det = _det3(*columns)
        if det == 0:
            raise ValueError("columns are not independent")
        zs = []
        for idx in range(3):
            cols = list(columns)
            cols[idx] = target
            num = _det3(*cols)
            if num % det:
                return False
            zs.append(num // det)
        return all(
            sum(z * col[r] for z, col in zip(zs, columns)) == target[r] for r in range(3)
        )
    raise ValueError("need 2 or 3 columns")


# -- certificate tampering ----------------------------------------------------

SIGN_VALUES = ("pos", "neg", "zero")


def enumerate_mutation_sites(doc) -> list[tuple[list, str]]:
    """Paths of semantically meaningful scalar fields in a certificate doc."""
    sites: list[tuple[list, str]] = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, val in node.items():
                walk(val, path + [key])
        elif isinstance(node, list):
            for idx, val in enumerate(node):
                walk(val, path + [idx])
        elif isinstance(node, bool):
            pass
        elif isinstance(node, int):
            sites.append((path, "int"))
        elif isinstance(node, str):
            key = path[-1] if path else None
            if node in SIGN_VALUES and key in ("a", "b", "t", "lhs_sign", "rhs_sign"):
                sites.append((path, "sign"))
            elif key in ("lhs", "rhs", "word") and node:
                sites.append((path, "word"))
            elif key in ("equation", "id"):
                sites.append((path, "ref"))

    walk(doc, [])
    return sites


def apply_mutation(doc, site, rng: random.Random):
    """Return a deep copy of doc with one field changed to a different value."""
    import copy

    doc = copy.deepcopy(doc)
    path, kind = site
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if kind == "int":
        parent[path[-1]] = old + rng.choice((1, -1))
    elif kind == "sign":
        choices = [s for s in SIGN_VALUES if s != old]
        parent[path[-1]] = rng.choice(choices)
    elif kind == "word":
        word = Word.parse(old)
        syls = list(word.syllables)
        if not syls:
            syls = [("a", 1)]
        else:
            idx = rng.randrange(len(syls))
            g, e = syls[idx]
            e2 = e + 1 if e + 1 != 0 else e + 2
            syls[idx] = (g, e2)
        parent[path[-1]] = str(Word(tuple(syls)))
    elif kind == "ref":
        parent[path[-1]] = old + "_x"
    else:
        raise ValueError(kind)
    assert parent[path[-1]] != old
    return doc


# -- the proofs of format v1, kept as references for the exponent steps ------

def swap_expand_t_power_script(pres: GroupPresentation) -> DerivationScript:
    """t^p = a^(xp-i) b^(-j) by p - 1 swaps and p expansions of lam: 2p + 6 steps.

    The chain every certificate carried before cable_t_power collected lam^p:
    pass each lam left over the meridian power, expand every lam, then
    rewrite what is left like the collected proof does.  It uses only v1
    step forms.
    """
    p, q, x = pres.p, pres.q, pres.x
    xy = x * pres.y
    j = pres.torus_bezout.j
    steps = [
        Step("multiply", word=Word.from_pairs([(LAM, -p), (MU, -q)]), on="left"),
        REDUCE,
        Step("invert"),
    ]
    steps += [Step("swap", RHS, 2 * (k - 1), left=(MU, (p - k) * xy), right=(LAM, 1)) for k in range(1, p)]
    steps += [Step("definition", RHS, pos, name=LAM, direction="expand") for pos in range(2 * p - 1, 0, -2)]
    steps += [
        REDUCE,
        Step("definition", RHS, 0, name=MU, direction="expand"),
        Step("swap", RHS, 1, left=("b", -j), right=("a", x * p)),
        REDUCE,
    ]
    return prove("cable_t_power", pres, None, Axiom("relator", "cable"), steps).script


def swap_expand_interior_script(
    pres: GroupPresentation, slope: Slope, env: dict[str, Equation]
) -> DerivationScript:
    """(t a^.. b^..)^d0 (t^p)^d1 = 1 by n - 1 swaps and n expansions or insertions.

    The chain certificates of format v1 carry for an interior slope m/n: split
    muC^m lamC^n into n products muC^(pq-1) lamC or muC^pq lamC, then rewrite
    each product on its own.
    """
    pq = pres.p * pres.q
    triple = cramer(Slope(pq - 1, 1), Slope(pq, 1), slope)
    assert triple.d0 > 0 and triple.d1 > 0 and triple.d == 1
    group_exps = [pq - 1] * triple.d0 + [pq] * triple.d1
    steps = []
    consumed = 0
    for k in range(1, slope.n):
        consumed += group_exps[k - 1]
        steps.append(Step("swap", LHS, 2 * (k - 1), left=(MUC, slope.m - consumed), right=(LAMC, 1)))
    for k in range(slope.n - 1, -1, -1):
        if group_exps[k] == pq:
            steps.append(Step("definition", LHS, 2 * k + 1, name=LAMC, direction="expand"))
        else:
            steps.append(Step("relation", LHS, 2 * k + 2, ref=("equation", "cable_endpoint_product"),
                              direction="forward", anchor="before"))
    steps.append(REDUCE)
    return prove("surgery_interior_combination", pres, slope, Axiom("surgery"), steps,
                 ("cable_endpoint_product",), env).script
