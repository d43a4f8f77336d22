"""Gordon's cabling formula as an oracle for the cable presentation and its surgery relator.

If |m − n·pq| = 1, surgery at slope m/n on the (p, q)-cable C of a knot K
is surgery at m/(n p²) on K (C. McA. Gordon, "Dehn surgery and satellite
knots", Trans. AMS 275, 1983).  Both surgered manifolds then have one
fundamental group, so the group H(C, m/n) that certificates are about has
exactly as many homomorphisms into S_5 as the torus-knot surgery group
<a, b | a^x = b^y, mu^m′ lam^n′> at m′/n′ = m/(n p²), reduced since m is
prime to n and to p.  Every beta slope pq − 1/β and the slope pq + 1
qualify.

H is read only through ``cable_order``'s public API: the presentation's
`relators` and `named` definitions and ``surgery_named_form``.  The count is
exhaustive: a runs over one representative of each conjugacy class of S_5,
weighted by the class size, and each later generator over all of S_5, with
every relator checked as soon as the generators it uses are set.  The
guards build two wrong presentations here, lamC framed as muC^(1−pq) t^p
and a cable relator written with mu^(q+2p), and each must change the count
at one point at least.  Standard library only.
"""

from dataclasses import replace
from itertools import permutations

import pytest

from cable_order.presentations import LAM, LAMC, MU, MUC, cable_presentation, surgery_named_form, torus_presentation
from cable_order.slopes import Slope
from cable_order.words import Word

ELEMENTS = list(permutations(range(5)))
INDEX = {g: k for k, g in enumerate(ELEMENTS)}
IDENTITY = INDEX[tuple(range(5))]
MUL = [[INDEX[tuple(g[h[i]] for i in range(5))] for h in ELEMENTS] for g in ELEMENTS]
INVERSE = [INDEX[tuple(sorted(range(5), key=g.__getitem__))] for g in ELEMENTS]
ORDERS = 60  # every order in S_5 divides 60, so g^e is g^(e mod 60)
POW = []  # POW[g][e] is g^e for 0 <= e < 60
for g in range(len(ELEMENTS)):
    POW.append([IDENTITY])
    for _ in range(ORDERS - 1):
        POW[g].append(MUL[POW[g][-1]][g])
CLASS_SIZE = {}  # a representative of each conjugacy class -> the class's size
for g in range(len(ELEMENTS)):
    conjugates = {MUL[MUL[c][g]][INVERSE[c]] for c in range(len(ELEMENTS))}
    if conjugates.isdisjoint(CLASS_SIZE):
        CLASS_SIZE[g] = len(conjugates)

POINTS = [(2, 3, 2), (2, 5, 2), (3, 4, 2), (2, 3, 3)]


def slopes(x: int, y: int, p: int) -> list[Slope]:
    """pq − 1 (β = 1), pq − 1/2 (β = 2) and pq + 1: each m/n has |m − n·pq| = 1."""
    pq = p * (p * x * y - 1)
    return [Slope(pq - 1), Slope(2 * pq - 1, 2), Slope(pq + 1)]


def evaluate(word: Word, images: dict) -> int:
    g = IDENTITY
    for letter, e in word.syllables:
        g = MUL[g][POW[images[letter]][e % ORDERS]]
    return g


def count_homomorphisms(alphabet, named, relators) -> int:
    """The number of homomorphisms into S_5 of <alphabet | relators>, the names read through `named`."""
    level = {g: k for k, g in enumerate(alphabet)}  # the last generator a letter's image depends on
    for name, definition in named.items():  # each defined over earlier names
        level[name] = max(level[g] for g, _ in definition.syllables)
    names_at = [[n for n in named if level[n] == k] for k in range(len(alphabet))]
    relators_at = [[r for r in relators if max(level[g] for g, _ in r.syllables) == k] for k in range(len(alphabet))]

    def extend(k: int, images: dict) -> int:
        if k == len(alphabet):
            return 1
        total = 0
        for g in CLASS_SIZE if k == 0 else range(len(ELEMENTS)):
            images[alphabet[k]] = g
            for name in names_at[k]:
                images[name] = evaluate(named[name], images)
            if all(evaluate(r, images) == IDENTITY for r in relators_at[k]):
                total += (CLASS_SIZE[g] if k == 0 else 1) * extend(k + 1, images)
        return total

    return extend(0, {})


def cable_count(pres, slope: Slope) -> int:
    return count_homomorphisms(pres.alphabet, pres.named, [*pres.relators.values(), surgery_named_form(pres, slope)])


def torus_count(x: int, y: int, p: int, slope: Slope) -> int:
    """The homomorphisms of surgery on T(x, y) at m/(n p²)."""
    base = torus_presentation(x, y)
    relator = Word(((MU, slope.m), (LAM, slope.n * p * p)))
    return count_homomorphisms(base.alphabet, base.named, [*base.relators.values(), relator])


def test_the_tables_are_s5():
    assert len(ELEMENTS) == 120 and sorted(CLASS_SIZE.values()) == [1, 10, 15, 20, 20, 24, 30]
    assert all(MUL[g][INVERSE[g]] == IDENTITY and MUL[POW[g][59]][g] == IDENTITY for g in range(120))


@pytest.mark.parametrize("xyp", POINTS, ids=lambda xyp: "x{}_y{}_p{}".format(*xyp))
def test_surgery_on_the_cable_has_the_homomorphisms_gordon_gives(xyp):
    pres = cable_presentation(*xyp)
    for slope in slopes(*xyp):
        assert abs(slope.m - slope.n * pres.p * pres.q) == 1
        assert cable_count(pres, slope) == torus_count(*xyp, slope), slope


def guard_points():
    for xyp in POINTS:
        for slope in slopes(*xyp):
            yield cable_presentation(*xyp), slope, torus_count(*xyp, slope)


def test_a_lamc_framed_off_by_one_is_caught():
    def wrong(pres):
        p, q = pres.p, pres.q
        return replace(pres, named={**pres.named, LAMC: Word(((MUC, 1 - p * q), ("t", p)))})

    assert any(cable_count(wrong(pres), slope) != expected for pres, slope, expected in guard_points())


def test_a_cable_relator_with_the_wrong_meridian_power_is_caught():
    def wrong(pres):
        p, q = pres.p, pres.q
        return replace(pres, relators={**pres.relators, "cable": Word(((MU, q + 2 * p), (LAM, p), ("t", -p)))})

    assert any(cable_count(wrong(pres), slope) != expected for pres, slope, expected in guard_points())
