"""Certify/replay benchmark for cable_order.

Run from the repository root:

    python3 bench/run.py --workload grid --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, with times
scaled to reference speed (see ``harness.Speed``); ``--trace 1``
alternates untraced and traced passes over a fixed prefix of the workload and
reports per-layer metrics.  Both check every output (see README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 12  # spread over the timed pass
PROBE_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import cable_order.cli, workloads; "
    "workloads.make(sys.argv[3], int(sys.argv[4]))"
)


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds the inputs.

    ``-S -E`` leave out site-packages and PYTHON* variables: cable_order
    needs neither, and they belong to the machine, not to the program.  There
    is no timeout: with one, ``wait()`` polls with growing sleeps, and the
    measured time snaps to the polling schedule.
    """
    argv = [sys.executable, "-S", "-E", "-c", PROBE_CODE, str(SRC), str(BENCH), workload, str(seed)]
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def report(metrics: dict[str, tuple[float, str]], notes: list[str], attempted: int, failed: int) -> None:
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(f"{'fail_frac':36s} {failed / attempted:14.6f} ratio  ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def untraced_run(wl, seed: int, seconds: float, work: Path) -> tuple[dict, list[str], int, int]:
    import harness
    from spans import Tracer

    # set-up is probed between round trips throughout the pass, so that its
    # median spans the machine's drifts in speed as the latencies do
    probes: list[tuple[float, float]] = []
    plain = harness.timed_pass(
        wl, work / "plain", seconds,
        pause=lambda: probes.append((time.perf_counter(), setup_seconds(wl.name, seed))),
        pauses=SETUP_PROBES)
    rss = harness.peak_rss_mib()

    gate_ops = wl.ops[:harness.GATE_OPS]
    gate_idx = [op.index for op in gate_ops]
    traced = harness.traced_pass(wl, gate_ops, work / "traced", Tracer())
    differ = harness.compare_bytes(work / "plain", work / "traced", gate_idx)
    accepted, notes = harness.negative_controls(work / "traced", gate_idx, work, random.Random(seed))

    # every time is reported at reference speed (see harness.Speed)
    speed = plain.speed
    factors = [speed.factor(t) for t in plain.starts]
    certify_ms = [s * 1e3 * k for s, k in zip(plain.certify_s, factors)]
    replay_ms = [s * 1e3 * k for s, k in zip(plain.replay_s, factors)]
    setup = [d * speed.factor(t) for t, d in probes]
    sizes = {i: (work / "plain" / f"{i}.json").stat().st_size for i in set(plain.indices)}
    c90, r90 = harness.quantile(certify_ms, 90), harness.quantile(replay_ms, 90)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "certify_ms.p50": (statistics.median(certify_ms), "ms"),
        "certify_ms.p90": (c90, "ms"),
        "replay_ms.p50": (statistics.median(replay_ms), "ms"),
        "replay_ms.p90": (r90, "ms"),
        "roundtrips_per_s": (plain.roundtrips / sum(w * k for w, k in zip(plain.walls_s, factors)), "1/s"),
        "cert_kib.mean": (statistics.fmean(sizes[i] for i in plain.indices) / 1024, "KiB"),
        "peak_rss_mib": (rss, "MiB"),
    }
    raw_certify = [s * 1e3 for s in plain.certify_s]
    raw_replay = [s * 1e3 for s in plain.replay_s]
    notes = [
        f"workload {wl.name} seed {seed}: {plain.roundtrips} round trips in {plain.wall_s:.2f} s "
        f"({'cold' if wl.cold else 'warm'} caches)",
        f"samples beyond p90: certify {harness.beyond(certify_ms, c90)}, "
        f"replay {harness.beyond(replay_ms, r90)}",
        f"reference loop: median {statistics.median(speed.took) * 1e3:.4f} ms over "
        f"{len(speed.took)} samples (1 ms is reference speed)",
        f"as measured, before scaling to reference speed: setup_s "
        f"{statistics.median(d for _, d in probes):.6f}, certify_ms p50/p90 "
        f"{statistics.median(raw_certify):.4f}/{harness.quantile(raw_certify, 90):.4f}, replay_ms p50/p90 "
        f"{statistics.median(raw_replay):.4f}/{harness.quantile(raw_replay, 90):.4f}, roundtrips_per_s "
        f"{plain.roundtrips / plain.wall_s:.4f}",
        f"gate: {len(gate_ops)} traced round trips, {differ} byte mismatches, "
        f"{harness.NEGATIVE_CONTROLS - accepted} of {harness.NEGATIVE_CONTROLS} mutants rejected",
        *notes,
    ]
    attempted = plain.roundtrips + traced.roundtrips + harness.NEGATIVE_CONTROLS
    failed = plain.failed + traced.failed + differ + accepted
    return metrics, notes, attempted, failed


def traced_run(wl, seed: int, seconds: float, work: Path) -> tuple[dict, list[str], int, int]:
    import harness
    from spans import Tracer

    prefix = wl.ops[:wl.traced_ops]
    idx = [op.index for op in prefix]
    deadline = time.perf_counter() + seconds
    # a short pass first, so that the measured pairs do not pay for the
    # interpreter's first large allocations
    harness.paired_pass(wl, wl.ops[:harness.GATE_OPS], work / "warmup", Tracer())
    tracer = Tracer()
    plain, traced = harness.PassResult(), harness.PassResult()
    passes = differ = 0
    while True:
        started = time.perf_counter()
        p, t, misses = harness.paired_pass(wl, prefix, work, tracer)
        plain.extend(p)
        traced.extend(t)
        differ += harness.compare_bytes(work / "plain", work / "traced", idx)
        if passes == 0:
            cache_misses = misses
            counts = harness.work_counts(work / "traced", idx)
            cert_digest = harness.digest(work / "traced", idx)
        passes += 1
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    accepted, notes = harness.negative_controls(work / "traced", idx, work, random.Random(seed))

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_path)
    metrics = harness.layer_metrics(tracer, plain, traced, passes, cache_misses, counts)
    notes = [
        f"workload {wl.name} seed {seed}: {passes} paired passes of {len(prefix)} round trips, "
        f"each round trip once untraced and once traced ({'cold' if wl.cold else 'warm'} caches)",
        f"work counts over one pass: {dict(sorted(counts.items()))}, cache misses {cache_misses}, "
        f"check calls {tracer.counts['check_calls'] // passes}",
        f"certificate digest sha256:{cert_digest}",
        "inclusive ms per round trip: " + ", ".join(
            f"{name} {ns / 1e6 / traced.roundtrips:.4f}" for name, ns in sorted(tracer.total_ns().items())),
        f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
        f"gate: {differ} byte mismatches, "
        f"{harness.NEGATIVE_CONTROLS - accepted} of {harness.NEGATIVE_CONTROLS} mutants rejected",
        *notes,
    ]
    attempted = plain.roundtrips + traced.roundtrips + harness.NEGATIVE_CONTROLS
    failed = plain.failed + traced.failed + differ + accepted
    return metrics, notes, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "long_beta", "large_pq"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cable_order" / "cli.py").is_file():
        print(f"error: no cable_order sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.make(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else untraced_run
        metrics, notes, attempted, failed = run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(metrics, notes, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
