"""Tests of the benchmark itself: exact work counts, clean unwrapping, the gate.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, wrapped_names  # noqa: E402

SMALL = {"grid": 8, "long_beta": 2, "large_pq": 12}


def _counts(name: str, seed: int, work: Path) -> dict:
    wl = workloads.make(name, seed)
    ops = wl.ops[:SMALL[name]]
    idx = [op.index for op in ops]
    tracer = Tracer()
    plain, traced, misses = harness.paired_pass(wl, ops, work, tracer)
    assert plain.failed == traced.failed == 0
    assert harness.compare_bytes(work / "plain", work / "traced", idx) == 0
    return {
        **harness.work_counts(work / "traced", idx),
        **tracer.counts,
        "cache_misses": misses,
        "spans": len(tracer.spans),
        "digest": harness.digest(work / "traced", idx),
    }


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make(name, 7) == workloads.make(name, 7)
        assert workloads.make(name, 7) != workloads.make(name, 8)


def test_work_counts_repeat_exactly(tmp_path):
    for name in workloads.WORKLOADS:
        first = _counts(name, 3, tmp_path / f"{name}-a")
        second = _counts(name, 3, tmp_path / f"{name}-b")
        assert first == second
        assert first["steps"] > 0 and first["entries"] > 0 and first["expanded_syllables"] > 0


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = wrapped_names()
    wl = workloads.make("large_pq", 1)
    harness.traced_pass(wl, wl.ops[:4], tmp_path, Tracer())
    after = wrapped_names()
    assert [(owner, attr) for owner, attr, _ in before] == [(owner, attr) for owner, attr, _ in after]
    for (owner, attr, original), (_, _, current) in zip(before, after):
        assert current is original, f"{owner}.{attr} was not restored"


def test_negative_controls_are_rejected(tmp_path):
    wl = workloads.make("grid", 5)
    ops = wl.ops[:3]
    harness.traced_pass(wl, ops, tmp_path / "certs", Tracer())
    accepted, notes = harness.negative_controls(
        tmp_path / "certs", [op.index for op in ops], tmp_path, random.Random(5))
    assert accepted == 0, notes


def test_workloads_stay_in_the_certified_ranges():
    grid = workloads.make("grid", 0)
    assert len({(op.x, op.y, op.p, op.value) for op in grid.ops}) == len(grid.ops) == 1100
    for op in workloads.make("long_beta", 0).ops:
        assert 100 <= int(op.value) <= 1000
    for op in workloads.make("large_pq", 0).ops:
        pq = op.p * (op.p * op.x * op.y - 1)
        if op.mode == "beta":
            assert 1 <= int(op.value) <= 5
        else:
            m, _, n = op.value.partition("/")
            n = int(n or 1)
            assert pq - 1 <= int(m) / n <= pq and n <= 50


def test_speed_factor_follows_the_local_reference_time():
    speed = harness.Speed()
    speed.at = [0.0, 0.1, 0.2, 0.3, 5.0, 5.1, 5.2]
    speed.took = [2e-3, 2e-3, 2e-3, 2e-3, 1e-3, 1e-3, 1e-3]
    assert speed.factor(0.15) == 0.5  # the loop took 2 ms here: half speed
    assert speed.factor(5.1) == 1.0
