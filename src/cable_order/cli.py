"""Command-line front end.

Exit codes: 0 success/certified, 2 inconclusive or failed replay, 1 invalid
input or any other error, such as a certificate that does not load because its
JSON is malformed or wrongly typed or two copies of one fact disagree.  A
usage error (a missing, unknown or malformed argument) is invalid input too,
so it exits 1, not argparse's 2; ``--help`` exits 0.  Certificates are
byte-stable across runs: the JSON carries no timestamps.  ``certify`` writes
its timing to a sidecar ``PATH.log`` when ``--json PATH`` is a regular file,
and to stderr otherwise, so a device or FIFO such as ``/dev/null`` gets no
file beside it.
Every JSON document the CLI writes (certificates, ``present --json`` and a
sweep's ``summary.json``) is compact: one line with no spaces after ``,`` or
``:``, keys in the order the program builds them, and a final newline.
Readers parse any JSON layout, so a certificate indented by another tool
replays the same.

Output files are rewritten in place: an existing file is opened without
``O_TRUNC``, overwritten, and cut only when it is a regular file that held
more bytes than were written.  ext4 starts writeback when a file truncated
to zero is closed (its ``auto_da_alloc`` rule), so a truncating rewrite
took 40-150 us against 8-25 us in place (medians of 400-1,000 rewrites,
11 KB or 23 bytes, 2-vCPU VM), and every certify writes twice: the
certificate and its ``.log``.  A write to a new path costs the same either
way.  A file written when the process or the machine stopped may hold any
mix of old and new blocks; it may even parse as a certificate that matches
neither write.  Only ``replay``, which checks every step and sign again,
vouches for such a file.

The argument parser is built once per process and reused by every
:func:`main` call; ``concurrent.futures`` is imported only when a sweep runs
more than one worker.  ``sweep --jobs N`` runs at most N workers, and never
more than there are grid points or processors.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from functools import cache
from math import gcd
from pathlib import Path
from typing import NoReturn

from .derivations import (
    Equation,
    StepError,
    cable_endpoint_product_script,
    cable_t_power_script,
    meridian_shift_script,
)
from .normal_form import eliminate_t, equal_in_torus_group
from .obstruction import (
    Inconclusive,
    ObstructionCertificate,
    UnsupportedParameters,
    certificate_from_json_dict,
    certify_beta,
    certify_slope,
    replay,
)
from .presentations import (
    LAM,
    MU,
    MUC,
    ParameterError,
    cable_presentation,
    torus_presentation,
)
from .slopes import Slope, lspace_window_check
from .words import Word, concat

CERTIFIED, ERROR, INCONCLUSIVE = 0, 1, 2


def _dump(doc: dict, path: str | Path | None) -> int:
    """Write `doc` as one compact line of JSON and a newline, to `path` or stdout; return the exit code.

    The separators ``,`` and ``:`` carry no spaces and the keys keep the
    order in which `doc` was built, so the bytes are stable across runs;
    leaving out ``indent`` also keeps the encoding in CPython's C encoder.
    """
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    if path:
        return _write(path, text)
    sys.stdout.write(text)
    return CERTIFIED


def _write(path: str | Path, text: str) -> int:
    """Write `text` to `path` in place: CERTIFIED, or ERROR with a message when the write fails.

    The file is opened without ``O_TRUNC``, whose cost the module docstring
    gives, and cut afterwards only when it is a regular file that held more
    bytes than `text`: ``ftruncate`` fails on ``/dev/null`` and on FIFOs.
    After a crash the file may hold any mix of old and new blocks, and only
    ``replay`` vouches for it.
    """
    data = text.encode()
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            fh.flush()
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
                fh.truncate()
    except OSError as err:
        print(f"error: cannot write {path}: {err.strerror or err}", file=sys.stderr)
        return ERROR
    return CERTIFIED


def _print_table(cert: ObstructionCertificate) -> None:
    print(f"parameters: x={cert.params.x} y={cert.params.y} p={cert.params.p} "
          f"q={cert.params.q} slope={cert.params.slope}")
    for entry in cert.entries:
        print(f"equation {entry.entry_id}: {entry.equation.lhs} = {entry.equation.rhs}")
    if cert.cramer_data:
        c = cert.cramer_data
        print(f"determinants: d0={c.d0} d1={c.d1} d={c.d}")
    print(f"{'a':>5} {'b':>5} {'t':>5}  refuted by")
    for row in cert.refutations:
        s = row.assignment
        why = "nontriviality axiom" if row.equation_id is None else (
            f"{row.equation_id} ({row.lhs_sign} vs {row.rhs_sign})"
        )
        print(f"{s.a:>5} {s.b:>5} {s.t:>5}  {why}")


def cmd_present(args: argparse.Namespace) -> int:
    try:
        if args.p is not None:
            pres = cable_presentation(args.x, args.y, args.p)
        else:
            pres = torus_presentation(args.x, args.y)
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return ERROR
    return _dump(pres.to_json_dict(), args.json)


def cmd_certify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        if args.beta is not None:
            result = certify_beta(args.x, args.y, args.p, args.beta)
        else:
            result = certify_slope(args.x, args.y, args.p, Slope.parse(args.slope))
    except (UnsupportedParameters, ParameterError, ValueError, StepError) as err:
        print(f"error: {err}", file=sys.stderr)
        return ERROR
    elapsed = time.perf_counter() - started
    if isinstance(result, Inconclusive):
        print("inconclusive: surviving sign assignments:", file=sys.stderr)
        for s in result.survivors:
            print(f"  a={s.a} b={s.b} t={s.t}", file=sys.stderr)
        return INCONCLUSIVE
    if args.table:
        _print_table(result)
    if (args.json or not args.table) and _dump(result.to_json_dict(), args.json) != CERTIFIED:
        return ERROR
    if args.json and os.path.isfile(args.json):
        return _write(args.json + ".log", f"certify elapsed={elapsed:.3f}s\n")
    print(f"certified in {elapsed:.3f}s", file=sys.stderr)
    return CERTIFIED


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.path).read_text())
        cert = certificate_from_json_dict(doc)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as err:
        # RecursionError: json.loads on arrays or objects nested too deeply
        print(f"error: cannot load certificate: {err}", file=sys.stderr)
        return ERROR
    report = replay(cert)
    if report:
        print("replay ok")
        return CERTIFIED
    for problem in report.problems:
        print(f"replay problem: {problem}", file=sys.stderr)
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# identity checks

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
    if not equal_in_torus_group(pres.named[MU].expansion, mu_variant, x, y):
        return False
    assert pres.p is not None and pres.q is not None and pres.cable_bezout is not None
    u, v = pres.cable_bezout
    v_k = v + k * pres.p
    shifted = Word.from_pairs([(MU, u + k * pres.q), (LAM, v_k), ("t", -v_k)])
    try:
        eq = meridian_shift_script(pres, k).equation
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
        except (StepError, ParameterError, ValueError) as err:
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
        eq = env["cable_t_power"] = cable_t_power_script(pres).equation
        lhs_ab = eliminate_t(pres.expand(eq.lhs), pres)
        ok = equal_in_torus_group(lhs_ab, pres.expand(eq.rhs), x, y)
        return ok, f"checked {eq.lhs} = {eq.rhs}"

    def endpoint_tail_vs_normal_form():
        eq = cable_endpoint_product_script(pres, env).equation
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


def cmd_verify_identities(args: argparse.Namespace) -> int:
    try:
        checks = identity_report(args.x, args.y, args.p)
    except (ParameterError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return ERROR
    failed = False
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return ERROR if failed else CERTIFIED


# ---------------------------------------------------------------------------
# sweeps

def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def parse_grid(spec: str) -> dict:
    dims: dict = {}
    for part in spec.split(";"):
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep or key not in ("x", "y", "p", "beta", "slope"):
            raise ValueError(f"bad grid dimension {part!r}")
        if key == "slope":
            dims[key] = [s.strip() for s in val.split("|")]
        else:
            dims[key] = _parse_range(val.strip())
    for required in ("x", "y", "p"):
        if required not in dims:
            raise ValueError(f"grid is missing {required!r}")
    if ("beta" in dims) == ("slope" in dims):
        raise ValueError("grid needs exactly one of beta=... or slope=...")
    return dims


def grid_points(dims: dict) -> list[tuple[int, int, int, str, str]]:
    mode = "beta" if "beta" in dims else "slope"
    values = [str(v) for v in dims[mode]]
    points = []
    for x in dims["x"]:
        for y in dims["y"]:
            if not (x < y and gcd(x, y) == 1):
                continue
            for p in dims["p"]:
                for val in values:
                    points.append((x, y, p, mode, val))
    return points


def _sweep_point(task: tuple[int, int, int, str, str, str]) -> dict:
    x, y, p, mode, val, out_dir = task
    record: dict = {"x": x, "y": y, "p": p, mode: val}
    started = time.perf_counter()
    try:
        if mode == "beta":
            result = certify_beta(x, y, p, int(val))
            stem = f"cert_x{x}_y{y}_p{p}_beta{val}"
        else:
            slope = Slope.parse(val)
            result = certify_slope(x, y, p, slope)
            stem = f"cert_x{x}_y{y}_p{p}_slope{slope.m}_{slope.n}"
    except (UnsupportedParameters, ParameterError, ValueError, StepError) as err:
        record.update(status="unsupported", detail=str(err))
        return record
    if isinstance(result, Inconclusive):
        record.update(status="inconclusive", survivors=len(result.survivors))
        return record
    report = replay(result)
    if not report:
        record.update(status="replay_failed", detail="; ".join(report.problems))
        return record
    path = Path(out_dir) / f"{stem}.json"
    if _dump(result.to_json_dict(), path) != CERTIFIED:
        record.update(status="unwritable", file=path.name)
        return record
    record.update(status="certified", file=path.name, elapsed=round(time.perf_counter() - started, 4))
    return record


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        dims = parse_grid(args.grid)
        points = grid_points(dims)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return ERROR
    if not points:
        print("error: empty grid", file=sys.stderr)
        return ERROR
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: cannot write {out_dir}: {err.strerror or err}", file=sys.stderr)
        return ERROR
    tasks = [(x, y, p, mode, val, str(out_dir)) for x, y, p, mode, val in points]
    # the pool forks all its workers at once, so never more than there are
    # tasks or processors
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads about 50 modules that no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_point, tasks))
    else:
        records = [_sweep_point(t) for t in tasks]
    mode = "beta" if "beta" in dims else "slope"
    for rec in records:
        print(f"x={rec['x']} y={rec['y']} p={rec['p']} {mode}={rec[mode]}: {rec['status']}")
    certified = sum(r["status"] == "certified" for r in records)
    print(f"{certified}/{len(records)} certified")
    summary = {"grid": args.grid, "results": records}
    wrote = _dump(summary, out_dir / "summary.json")
    return CERTIFIED if wrote == CERTIFIED and certified == len(records) else ERROR


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits with ERROR (1) instead of 2.

    An option must be spelled in full: with abbreviations, adding an option
    could change what a command line means.  Subparsers are of this class too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(ERROR, f"{self.prog}: error: {message}\n")


def _jobs(text: str) -> int:
    """The value of ``sweep --jobs``: an integer of at least 1, or a usage error."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r:.40}")
    return int(text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Sharing it is safe: ``parse_args`` returns a new namespace per call and
    leaves the parser unchanged.
    """
    parser = _Parser(
        prog="cable-order",
        description="Build cable-knot group presentations and certify "
        "non-left-orderability of surgery quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp: argparse.ArgumentParser, with_p_required: bool) -> None:
        sp.add_argument("--x", type=int, required=True)
        sp.add_argument("--y", type=int, required=True)
        sp.add_argument("--p", type=int, required=with_p_required, default=None)

    sp = sub.add_parser("present", help="print a presentation document")
    add_params(sp, with_p_required=False)
    sp.add_argument("--json", metavar="PATH", default=None)
    sp.set_defaults(fn=cmd_present)

    sp = sub.add_parser("certify", help="emit a non-left-orderability certificate")
    add_params(sp, with_p_required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=int, default=None)
    group.add_argument("--slope", type=str, default=None)
    sp.add_argument("--json", metavar="PATH", default=None)
    sp.add_argument("--table", action="store_true", help="print the 27-row table instead of JSON")
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("sweep", help="certify a parameter grid")
    sp.add_argument("--grid", required=True,
                    help='e.g. "x=2..5;y=2..5;p=2..3;beta=1..5" or ...;slope=21/1|43/2')
    sp.add_argument("--out", default="certs")
    sp.add_argument("--jobs", type=_jobs, default=1)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("verify-identities", help="cross-check oracles against derivations")
    add_params(sp, with_p_required=True)
    sp.set_defaults(fn=cmd_verify_identities)

    sp = sub.add_parser("replay", help="independently re-check a certificate file")
    sp.add_argument("path")
    sp.set_defaults(fn=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
