"""Seeded inputs for the certify/replay benchmark.

Each workload is a list of operations.  One operation is one certificate
round trip: ``certify ... --json PATH`` followed by ``replay PATH``, both run
in-process through ``cable_order.cli.main``.  The seed fixes the order and
every drawn parameter; the program under test only ever sees the argv lists.

Continuous draws use a Weyl sequence (``frac(offset + k * phi)``) with a
seeded offset, so every prefix of the list covers the range evenly.  A run
measures a time-bounded prefix, and this keeps its percentiles and means from
depending much on how far it got.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

PHI = (5 ** 0.5 - 1) / 2

# grid: the acceptance beta grid, 2 <= x < y <= 7 coprime, p in 2..5, beta in 1..25
GRID_PAIRS = [(x, y) for x in range(2, 8) for y in range(x + 1, 8) if gcd(x, y) == 1]
GRID_P = range(2, 6)
GRID_BETA = range(1, 26)

LONG_BETA_TRIPLES = [(2, 3, 2), (2, 5, 3), (3, 4, 2)]
LONG_BETA_RANGE = (100, 1000)
LONG_BETA_LEN = 300

LARGE_PQ_TRIPLES = [(6, 7, 5), (11, 13, 9), (2, 3, 50)]
LARGE_PQ_KINDS = ("low", "high", "interior", "beta")
LARGE_PQ_BLOCKS = 20
INTERIOR_N = (2, 50)
LARGE_PQ_BETA = (1, 5)


@dataclass(frozen=True)
class Op:
    """One certificate round trip; `index` is the certificate id."""

    index: int
    x: int
    y: int
    p: int
    mode: str  # "beta" | "slope"
    value: str

    def certify_argv(self, path: str) -> list[str]:
        return [
            "certify", "--x", str(self.x), "--y", str(self.y), "--p", str(self.p),
            f"--{self.mode}", self.value, "--json", path,
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    cold: bool  # clear both presentation caches before every command
    traced_ops: int  # length of the fixed prefix a traced pass runs


def _weyl(rng: random.Random):
    offset = rng.random()
    k = 0
    while True:
        yield (offset + k * PHI) % 1.0
        k += 1


def _grid(seed: int) -> Workload:
    points = [(x, y, p, b) for x, y in GRID_PAIRS for p in GRID_P for b in GRID_BETA]
    random.Random(seed).shuffle(points)
    ops = tuple(Op(i, x, y, p, "beta", str(b)) for i, (x, y, p, b) in enumerate(points))
    return Workload("grid", ops, cold=False, traced_ops=len(ops))


def _long_beta(seed: int) -> Workload:
    rng = random.Random(seed)
    lo, hi = LONG_BETA_RANGE
    u = _weyl(rng)
    ops: list[Op] = []
    while len(ops) < LONG_BETA_LEN:
        block = list(LONG_BETA_TRIPLES)
        rng.shuffle(block)
        for x, y, p in block:
            beta = round(lo * (hi / lo) ** next(u))
            ops.append(Op(len(ops), x, y, p, "beta", str(beta)))
    return Workload("long_beta", tuple(ops), cold=True, traced_ops=12)


def _large_pq(seed: int) -> Workload:
    rng = random.Random(seed)
    u = _weyl(rng)
    n_lo, n_hi = INTERIOR_N
    b_lo, b_hi = LARGE_PQ_BETA
    beta_offset = rng.randrange(b_hi - b_lo + 1)
    betas_drawn = 0
    ops: list[Op] = []
    for _ in range(LARGE_PQ_BLOCKS):
        block = [(t, kind) for t in LARGE_PQ_TRIPLES for kind in LARGE_PQ_KINDS]
        rng.shuffle(block)
        for (x, y, p), kind in block:
            pq = p * (p * x * y - 1)
            if kind == "low":
                mode, value = "slope", str(pq - 1)
            elif kind == "high":
                mode, value = "slope", str(pq)
            elif kind == "interior":
                # m/n strictly between pq-1 and pq: m = (pq-1)*n + k, 0 < k < n, gcd(k, n) = 1
                n = n_lo + int(next(u) * (n_hi - n_lo + 1))
                k = rng.choice([k for k in range(1, n) if gcd(k, n) == 1])
                mode, value = "slope", f"{(pq - 1) * n + k}/{n}"
            else:
                beta = b_lo + (beta_offset + betas_drawn) % (b_hi - b_lo + 1)
                betas_drawn += 1
                mode, value = "beta", str(beta)
            ops.append(Op(len(ops), x, y, p, mode, value))
    return Workload("large_pq", tuple(ops), cold=True, traced_ops=24)


WORKLOADS = {"grid": _grid, "long_beta": _long_beta, "large_pq": _large_pq}


def make(name: str, seed: int) -> Workload:
    """The workload's operations for this seed."""
    return WORKLOADS[name](seed)
