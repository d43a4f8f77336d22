"""Passes over a workload, the correctness gate, work counts and metrics.

One client in one process runs a closed loop: an operation starts only after
the previous one has finished.  Every command goes through
``cable_order.cli.main`` with stdout and stderr sent to a sink, so what is
timed is the command itself, including the certificate write (certify) and
the read and parse (replay).
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from cable_order import cli, presentations
from cable_order.derivations import iter_states
from cable_order.obstruction import certificate_from_json_dict

from spans import ROOT, Tracer, instrumented
from workloads import Op, Workload

NEGATIVE_CONTROLS = 4
GATE_OPS = 4  # traced round trips per untraced run, compared byte for byte
MIN_SAMPLES = 110  # so that at least ten samples lie beyond p90
MAX_TIMED_S = 150.0
REFERENCE_ITERS = 18_000  # about 1 ms on an idle 2-vCPU x86_64 machine of the baseline's type
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 0.5

LAYER_METRICS = {
    "presentations.build": "presentations.build_ms",
    "presentations.expand": "presentations.expand_ms",
    "derivations.generate": "derivations.generate_ms",
    "derivations.check": "derivations.check_ms",
    "obstruction.certify": "obstruction.certify_self_ms",
    "obstruction.refute": "obstruction.refute_ms",
    "obstruction.replay": "obstruction.replay_self_ms",
    "obstruction.to_json": "obstruction.to_json_ms",
    "obstruction.from_json": "obstruction.from_json_ms",
    "cli.dumps": "cli.dumps_ms",
    "cli.loads": "cli.loads_ms",
    "cli.write": "cli.write_ms",
    "cli.read": "cli.read_ms",
    "cli.build_parser": "cli.build_parser_ms",
    ROOT: "cli.command_self_ms",
}


class _Sink(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


class Caches:
    """Cache-miss bookkeeping across ``cache_clear()`` calls, which reset the stats."""

    FUNCS = (presentations.cable_presentation, presentations.torus_presentation)

    def __init__(self) -> None:
        for f in self.FUNCS:
            f.cache_clear()
        self.misses = 0

    def _current(self) -> int:
        return sum(f.cache_info().misses for f in self.FUNCS)

    def clear(self) -> None:
        self.misses += self._current()
        for f in self.FUNCS:
            f.cache_clear()

    def total(self) -> int:
        return self.misses + self._current()


def _reference() -> None:
    total = 0
    for i in range(REFERENCE_ITERS):
        total += i * i


class Speed:
    """The machine's speed over time, from a fixed pure-Python reference loop.

    The loop runs between round trips every REFERENCE_EVERY_S.  `factor(t)`
    is 1 ms over the median loop time within REFERENCE_WINDOW_S of `t`; a
    wall time times that factor is the time at reference speed, the speed at
    which the loop takes exactly 1 ms.  This takes out most of the drift that
    other tenants cause on a shared machine, and no change to the program can
    move the loop's time.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        _reference()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def factor(self, t: float) -> float:
        lo = bisect.bisect_left(self.at, t - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.at, t + REFERENCE_WINDOW_S)
        if hi - lo < 3:  # sparse (long round trips): take the nearest samples
            i = bisect.bisect_left(self.at, t)
            lo, hi = max(0, i - 2), min(len(self.at), i + 2)
        return 1e-3 / statistics.median(self.took[lo:hi])


def _command(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as err:  # argparse rejects the arguments
        return err.code if isinstance(err.code, int) else 1


@dataclass
class PassResult:
    certify_s: list[float] = field(default_factory=list)
    replay_s: list[float] = field(default_factory=list)
    indices: list[int] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0
    starts: list[float] = field(default_factory=list)  # timed_pass only
    walls_s: list[float] = field(default_factory=list)  # timed_pass only
    speed: Speed = field(default_factory=Speed)  # timed_pass only

    @property
    def roundtrips(self) -> int:
        return len(self.indices)

    def extend(self, other: "PassResult") -> None:
        self.certify_s += other.certify_s
        self.replay_s += other.replay_s
        self.indices += other.indices
        self.failed += other.failed
        self.wall_s += other.wall_s

    def add(self, op: Op, certify_s: float, replay_s: float, ok: bool) -> None:
        self.certify_s.append(certify_s)
        self.replay_s.append(replay_s)
        self.indices.append(op.index)
        self.failed += not ok


def _run(tracer: Tracer | None, argv: list[str]) -> int:
    if tracer is None:
        return _command(argv)
    return tracer.call(ROOT, _command, argv)


def roundtrip(op: Op, out_dir: Path, cold: bool, caches: Caches,
              tracer: Tracer | None = None) -> tuple[float, float, bool]:
    """Certify `op` into ``out_dir/<index>.json``, then replay that file.

    Returns the certify time, the replay time and whether both succeeded.
    Cold workloads clear both presentation caches before each command,
    outside the timed region.
    """
    path = str(out_dir / f"{op.index}.json")
    if tracer is not None:
        tracer.cert = op.index
    if cold:
        caches.clear()
    t0 = time.perf_counter()
    rc_certify = _run(tracer, op.certify_argv(path))
    t1 = time.perf_counter()
    if rc_certify != 0:
        return t1 - t0, 0.0, False
    if cold:
        caches.clear()
    t2 = time.perf_counter()
    rc_replay = _run(tracer, ["replay", path])
    t3 = time.perf_counter()
    return t1 - t0, t3 - t2, rc_replay == 0


def timed_pass(wl: Workload, out_dir: Path, seconds: float,
               pause: Callable[[], None] | None = None, pauses: int = 0) -> PassResult:
    """Untraced round trips, cycling through the workload, for `seconds`.

    It goes on past `seconds` until MIN_SAMPLES round trips are done, but
    never past MAX_TIMED_S.  The caches start empty.  Between round trips it
    samples the machine's speed (see :class:`Speed`) and calls `pause`
    `pauses` times, evenly spread over the pass.  Neither counts in the
    pass's wall time.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    res = PassResult()
    caches = Caches()
    sink = _Sink()
    started = time.perf_counter()
    paused = 0.0
    pauses_done = 0
    last_sample = -REFERENCE_EVERY_S
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        while True:
            now = time.perf_counter()
            elapsed = now - started - paused
            if now - last_sample >= REFERENCE_EVERY_S:
                res.speed.sample()
                last_sample = time.perf_counter()
                paused += last_sample - now
                continue
            if pauses_done < pauses and elapsed >= seconds * pauses_done / pauses:
                pause()
                paused += time.perf_counter() - now
                pauses_done += 1
                continue
            if (elapsed >= seconds and res.roundtrips >= MIN_SAMPLES) or elapsed >= MAX_TIMED_S:
                break
            op = wl.ops[res.roundtrips % len(wl.ops)]
            res.add(op, *roundtrip(op, out_dir, wl.cold, caches))
            res.starts.append(now)
            res.walls_s.append(time.perf_counter() - now)
    res.speed.sample()
    res.wall_s = time.perf_counter() - started - paused
    return res


def paired_pass(wl: Workload, ops, work: Path, tracer: Tracer) -> tuple[PassResult, PassResult, int]:
    """Each op once untraced (into work/plain) and once traced (into work/traced).

    The two round trips of an op run back to back, in alternating order, so
    that slow drifts in machine speed hit both sides alike.  Each side's
    wall time is the sum of its round trips.  The caches start empty and are
    shared by both sides; the third result is their misses over the pass.
    """
    plain_dir, traced_dir = work / "plain", work / "traced"
    plain_dir.mkdir(parents=True, exist_ok=True)
    traced_dir.mkdir(parents=True, exist_ok=True)
    plain, traced = PassResult(), PassResult()
    caches = Caches()
    sink = _Sink()
    sides = ((plain, plain_dir, None), (traced, traced_dir, tracer))
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for k, op in enumerate(ops):
            for res, out_dir, tr in (sides if k % 2 == 0 else sides[::-1]):
                with instrumented(tr) if tr else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    res.add(op, *roundtrip(op, out_dir, wl.cold, caches, tr))
                    res.wall_s += time.perf_counter() - t0
    return plain, traced, caches.total()


def traced_pass(wl: Workload, ops, out_dir: Path, tracer: Tracer) -> PassResult:
    """Each op once, traced, with the caches starting empty."""
    out_dir.mkdir(parents=True, exist_ok=True)
    res = PassResult()
    caches = Caches()
    sink = _Sink()
    with instrumented(tracer), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op in ops:
            res.add(op, *roundtrip(op, out_dir, wl.cold, caches, tracer))
    return res


# ---------------------------------------------------------------------------
# correctness gate

def compare_bytes(plain_dir: Path, traced_dir: Path, indices) -> int:
    """Number of certificates whose bytes differ between the two passes."""
    differ = 0
    for i in sorted(set(indices)):
        a, b = plain_dir / f"{i}.json", traced_dir / f"{i}.json"
        if not (a.exists() and b.exists()) or a.read_bytes() != b.read_bytes():
            differ += 1
    return differ


def mutate(doc: dict, kind: str, rng: random.Random) -> str:
    """Apply one value mutation in place; returns a description of it."""
    if kind == "sign":
        rows = [r for r in doc["refutations"] if r["reason"]["kind"] == "clash"]
        reason = rng.choice(rows)["reason"]
        # a clash never has two zero sides, so one side is pos or neg
        side = "lhs_sign" if reason["lhs_sign"] != "zero" else "rhs_sign"
        reason[side] = "neg" if reason[side] == "pos" else "pos"
        return f"flipped {side} of the row citing {reason['equation']}"
    swaps = [
        (e["id"], i, s)
        for e in doc["equations"]
        for i, s in enumerate(e["script"]["steps"])
        if s["kind"] == "swap"
    ]
    eq_id, i, step = rng.choice(swaps)
    operand = rng.choice(("left", "right"))
    step[operand][1] += 1 if step[operand][1] > 0 else -1
    return f"changed the {operand} exponent of swap step {i} in {eq_id}"


def negative_controls(cert_dir: Path, indices, work: Path, rng: random.Random) -> tuple[int, list[str]]:
    """Mutated certificates that replay accepted; every one must be rejected."""
    accepted = 0
    notes = []
    sink = _Sink()
    for j in range(NEGATIVE_CONTROLS):
        i = rng.choice(sorted(set(indices)))
        doc = json.loads((cert_dir / f"{i}.json").read_text())
        what = mutate(doc, "sign" if j % 2 == 0 else "exponent", rng)
        path = work / f"negative_{j}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = _command(["replay", str(path)])
        if rc == 0:
            accepted += 1
            notes.append(f"ACCEPTED mutant of certificate {i}: {what}")
    return accepted, notes


# ---------------------------------------------------------------------------
# work counts (exact; computed outside any timed span)

def work_counts(cert_dir: Path, indices) -> Counter[str]:
    """Steps, peak syllables, entries, unused entries and bytes over `indices`."""
    out: Counter[str] = Counter()
    for i in indices:
        raw = (cert_dir / f"{i}.json").read_bytes()
        cert = certificate_from_json_dict(json.loads(raw))
        p_ = cert.params
        pres = presentations.cable_presentation(p_.x, p_.y, p_.p, p_.q)
        env = {}
        peak = 0
        for entry in cert.entries:
            out["steps"] += len(entry.script.steps)
            for lhs, rhs in iter_states(entry.script, pres, env):
                peak = max(peak, len(lhs), len(rhs))
            env[entry.entry_id] = entry.equation
        cited = {e.entry_id: e.script.cites for e in cert.entries}
        reached = set()
        todo = [r.equation_id for r in cert.refutations if r.equation_id is not None]
        while todo:
            eq_id = todo.pop()
            if eq_id not in reached:
                reached.add(eq_id)
                todo.extend(cited.get(eq_id, ()))
        out["peak_syllables"] += peak
        out["entries"] += len(cert.entries)
        out["unused_entries"] += len(cert.entries) - len(reached & set(cited))
        out["cert_bytes"] += len(raw)
    return out


def digest(cert_dir: Path, indices) -> str:
    h = hashlib.sha256()
    for i in sorted(set(indices)):
        h.update((cert_dir / f"{i}.json").read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# metrics

def peak_rss_mib() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, Python's inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def beyond(values: list[float], cut: float) -> int:
    return sum(v > cut for v in values)


def layer_metrics(tracer: Tracer, plain: PassResult, traced: PassResult, passes: int,
                  cache_misses: int, counts: Counter[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per certificate round trip.

    `plain` and `traced` hold every round trip of `passes` paired passes over
    the same ops; `cache_misses` and `counts` are for one paired pass.
    """
    rts = traced.roundtrips
    per_pass = rts // passes
    self_ns = tracer.self_ns()
    out: dict[str, tuple[float, str]] = {}
    for span, metric in LAYER_METRICS.items():
        out[metric] = (self_ns[span] / 1e6 / rts, "ms")
    out["presentations.cache_misses"] = (cache_misses / (2 * per_pass), "count")
    out["presentations.expanded_syllables"] = (tracer.counts["expanded_syllables"] / rts, "count")
    out["derivations.checks_per_script"] = (
        tracer.counts["check_calls"] / passes / counts["entries"], "ratio")
    out["derivations.steps"] = (counts["steps"] / per_pass, "count")
    out["derivations.peak_syllables"] = (counts["peak_syllables"] / per_pass, "count")
    out["derivations.check_us_per_step"] = (
        self_ns["derivations.check"] / 1e3 / tracer.counts["checked_steps"], "us")
    out["obstruction.entries"] = (counts["entries"] / per_pass, "count")
    out["obstruction.unused_entries"] = (counts["unused_entries"] / per_pass, "count")
    out["cli.cert_bytes"] = (counts["cert_bytes"] / per_pass, "count")
    out["trace.overhead_frac"] = (traced.wall_s / plain.wall_s - 1.0, "ratio")
    named_ns = sum(ns for span, ns in self_ns.items() if span != ROOT)
    out["trace.unattributed_frac"] = (1.0 - named_ns / 1e9 / traced.wall_s, "ratio")
    return out
