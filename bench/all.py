"""Rerun the whole benchmark: every workload, untraced and traced.

    python3 bench/all.py [--seed N] [--seconds S] [--out FILE]

Each run is a separate ``bench/run.py`` process, one after the other.  The
table lists every metric with its unit; ``--out`` also writes the parsed
results as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("grid", "long_beta", "large_pq")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    results: dict = {
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "machine": f"{platform.platform()}, {os.cpu_count()} CPUs",
        "runs": {},
    }
    ok = True
    for trace in (0, 1):
        for name in WORKLOADS:
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            doc = json.loads(lines[-1])
            doc["notes"] = [line for line in lines[:-1]
                            if line.split(" ", 1)[0] not in (*doc["metrics"], "fail_frac")]
            results["runs"][f"{name}/trace{trace}"] = doc
            ok = ok and doc["correct"]

    for trace in (0, 1):
        metrics = list(results["runs"][f"grid/trace{trace}"]["metrics"])
        print(f"\n{'metric':36s}" + "".join(f"{w:>14s}" for w in WORKLOADS) + "  unit")
        for m in metrics:
            row = [results["runs"][f"{w}/trace{trace}"]["metrics"][m] for w in WORKLOADS]
            print(f"{m:36s}" + "".join(f"{r['value']:14.4f}" for r in row) + f"  {row[0]['unit']}")
        row = [results["runs"][f"{w}/trace{trace}"] for w in WORKLOADS]
        print(f"{'fail_frac':36s}" + "".join(f"{r['failed'] / r['attempted']:14.4f}" for r in row) + "  ratio")
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
