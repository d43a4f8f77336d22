"""Command-line front end.

Exit codes: 0 success/certified, 2 inconclusive or failed replay, 1 invalid
input or any other error, such as a certificate that does not load because its
JSON is malformed or wrongly typed or two copies of one fact disagree.  A
usage error (a missing, unknown or malformed argument) is invalid input too,
so it exits 1, not argparse's 2; ``--help`` exits 0, or 1 when stdout is
closed, as every command does.  Certificates are
byte-stable across runs: the JSON carries no timestamps.  ``certify`` writes
its timing to a sidecar ``PATH.log`` when ``--json PATH`` is a regular file,
and to stderr otherwise, so a device or FIFO such as ``/dev/null`` gets no
file beside it.
Every JSON document the CLI writes (certificates, ``present --json`` and a
sweep's ``summary.json``) is compact: one line with no spaces after ``,`` or
``:``, keys in the order the program builds them, and a final newline.
Readers parse any JSON layout, so a certificate indented by another tool
replays the same.  ``certify`` and ``sweep`` write a certificate with
``proofs.certificate_text``, which gives the bytes of the compact dump of
its ``to_json_dict`` but reuses the text that certify keeps beside each
lemma and each refutation table of the presentation.  ``sweep`` loads that
text back and replays it, and writes the file only when the replay is ok:
what it checks is what it writes.

Output files are rewritten in place: an existing file is opened without
``O_TRUNC``, overwritten, and cut only when it is a regular file that held
more bytes than were written, since ext4 starts writeback when a file
truncated to zero is closed (its ``auto_da_alloc`` rule).  A file written
when the process or the machine stopped may hold any mix of old and new
blocks; it may even parse as a certificate that matches neither write.
Only ``replay``, which checks every step and sign again, vouches for such a
file.

The argument parser is built once per process and reused by every
:func:`main` call.  What a single command needs is imported when it runs:
``concurrent.futures`` when a sweep runs more than one worker.  ``sweep
--jobs N`` runs at most N workers, and never more than there are grid
points or processors.  ``verify-identities`` runs the checks of
:mod:`normal_form`.
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

from .normal_form import identity_report
from .obstruction import Inconclusive, ObstructionCertificate, certificate_from_json_dict, replay
from .presentations import GroupPresentation, cable_presentation, torus_presentation
from .proofs import certify_beta, certify_slope, certificate_text
from .slopes import Slope, over_digit_limit

CERTIFIED, ERROR, INCONCLUSIVE = 0, 1, 2


def _dump(doc: dict, path: str | Path | None) -> int:
    """Write `doc` as one compact line of JSON and a newline, to `path` or stdout; return the exit code.

    The separators ``,`` and ``:`` carry no spaces and the keys keep the
    order in which `doc` was built, so the bytes are stable across runs;
    leaving out ``indent`` also keeps the encoding in CPython's C encoder.
    Every document is a fresh tree built by a ``to_json_dict`` or a command,
    so it holds no cycles, and the encoder does not look for any.
    """
    return _write(path, json.dumps(doc, separators=(",", ":"), check_circular=False) + "\n")


def _write(path: str | Path | None, text: str) -> int:
    """Write `text` to `path` in place, or to stdout without a path: CERTIFIED, or ERROR with a message.

    The file is opened without ``O_TRUNC``, for the reason the module
    docstring gives, and cut afterwards only when it is a regular file that held more
    bytes than `text`: ``ftruncate`` fails on ``/dev/null`` and on FIFOs.
    After a crash the file may hold any mix of old and new blocks, and only
    ``replay`` vouches for it.
    """
    if not path:
        sys.stdout.write(text)
        return CERTIFIED
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


def presentation_to_json_dict(pres: GroupPresentation) -> dict:
    """The ``present --json`` document: each relator and name both as defined and written out over the alphabet.

    Each relator's named form and each name's definition is written out by
    its own :meth:`GroupPresentation.expand` call, and nothing is kept.
    """
    params: dict = {"x": pres.x, "y": pres.y}
    if pres.p is not None:
        # every cable built is the paper's; the key keeps the document's bytes
        params.update(p=pres.p, q=pres.q, theorem_mode=True)
    params["bezout"] = {"i": pres.torus_bezout.i, "j": pres.torus_bezout.j}
    if pres.cable_bezout is not None:
        params["bezout"].update(u=pres.cable_bezout.u, v=pres.cable_bezout.v)
    return {
        "version": "v1",
        "kind": "torus" if pres.p is None else "cable",
        "params": params,
        "alphabet": list(pres.alphabet),
        "relators": [
            {"name": name, "word": str(pres.expand(form)), "named_form": str(form)}
            for name, form in pres.relators.items()
        ],
        "named": {
            n: {"definition": str(definition), "expansion": str(pres.expand(definition))}
            for n, definition in pres.named.items()
        },
        "whitelist": [[str(u), str(w)] for u, w in pres.whitelist],
    }


def cmd_present(args: argparse.Namespace) -> int:
    try:
        if args.p is not None:
            pres = cable_presentation(args.x, args.y, args.p)
        else:
            pres = torus_presentation(args.x, args.y)
        doc = presentation_to_json_dict(pres)
    except ValueError as err:  # a ParameterError, or a name too long to spell out
        print(f"error: {err}", file=sys.stderr)
        return ERROR
    return _dump(doc, args.json)


def cmd_certify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        if args.beta is not None:
            result = certify_beta(args.x, args.y, args.p, args.beta)
        else:
            result = certify_slope(args.x, args.y, args.p, Slope.parse(args.slope))
    except ValueError as err:
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
    if (args.json or not args.table) and _write(args.json, certificate_text(result) + "\n") != CERTIFIED:
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


def cmd_verify_identities(args: argparse.Namespace) -> int:
    try:
        checks = identity_report(args.x, args.y, args.p)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return ERROR
    failed = False
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return ERROR if failed else CERTIFIED


# ---------------------------------------------------------------------------
# sweeps

def _parse_range(key: str, text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        return list(range(int(lo), int(hi) + 1)) if sep else [int(text)]
    except ValueError:
        why = over_digit_limit(lo, hi) or "expected N or A..B with integers N, A and B"
        raise ValueError(f"bad grid {key} {text!r:.40}: {why}") from None


def parse_grid(spec: str) -> dict:
    dims: dict = {}
    for part in spec.split(";"):
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep or key not in ("x", "y", "p", "beta", "slope"):
            raise ValueError(f"bad grid dimension {part!r:.40}")
        if key in dims:
            raise ValueError(f"repeated grid dimension {key!r}")
        if key == "slope":
            dims[key] = [s.strip() for s in val.split("|")]
            seen: set = set()  # each slope once, in any spelling
            for text in dims[key]:
                try:
                    value = Slope.parse(text)
                except ValueError:  # a bad slope stays its own point's error
                    value = text
                if value in seen:
                    raise ValueError(f"repeated grid slope {str(value)!r:.40}")
                seen.add(value)
        else:
            dims[key] = _parse_range(key, val.strip())
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
    except ValueError as err:
        record.update(status="unsupported", detail=str(err))
        return record
    if isinstance(result, Inconclusive):
        record.update(status="inconclusive", survivors=len(result.survivors))
        return record
    # the bytes to be written are what is checked: loaded back, then replayed
    text = certificate_text(result)
    try:
        report = replay(certificate_from_json_dict(json.loads(text)))
    except (ValueError, KeyError, TypeError) as err:
        record.update(status="replay_failed", detail=f"the certificate text does not load: {err}")
        return record
    if not report:
        record.update(status="replay_failed", detail="; ".join(report.problems))
        return record
    if len(stem) > 200:  # a long beta or slope: a file name may hold at most 255 bytes
        import hashlib  # here, so that starting the CLI does not load it

        stem = "cert_" + hashlib.sha256(stem.encode()).hexdigest()[:32]
    path = Path(out_dir) / f"{stem}.json"
    if _write(path, text + "\n") != CERTIFIED:
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

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(ERROR, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None) -> None:
        # argparse's own writer swallows OSError, so --help into a closed stdout would exit 0
        (file or sys.stdout).write(self.format_help())


def _jobs(text: str) -> int:
    """The value of ``sweep --jobs``: an integer of at least 1, or a usage error."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r:.40}")
    return int(text)


def _integer(text: str) -> int:
    """``--x``, ``--y``, ``--p`` and ``--beta``: an integer, or a usage error quoting at most 40 characters."""
    try:
        return int(text)
    except ValueError:
        why = over_digit_limit(text) or "must be an integer"
        raise argparse.ArgumentTypeError(f"{why}, got {text!r:.40}") from None


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
        sp.add_argument("--x", type=_integer, required=True)
        sp.add_argument("--y", type=_integer, required=True)
        sp.add_argument("--p", type=_integer, required=with_p_required, default=None)

    sp = sub.add_parser("present", help="print a presentation document")
    add_params(sp, with_p_required=False)
    sp.add_argument("--json", metavar="PATH", default=None)
    sp.set_defaults(fn=cmd_present)

    sp = sub.add_parser("certify", help="emit a non-left-orderability certificate")
    add_params(sp, with_p_required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=_integer, default=None)
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
    parser.commands = sub.choices  # each command's subparser, for main
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command `argv` names (``sys.argv[1:]`` by default) and return its exit code.

    A command's own arguments are parsed by its subparser alone, which is
    what the top-level parser would hand them to, and so give the same
    namespace, output and exit code; with no command, an unknown one or
    ``-h``, the top-level parser reports it.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:  # the top-level parser names what no parser took
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args.fn(args)


def console_main() -> None:
    """Run :func:`main` and exit with its code; a reader that closed stdout early makes it ERROR, quietly."""
    try:
        try:
            code = main()
        except SystemExit as done:  # argparse exits by itself after --help or a usage error
            code = done.code
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at /dev/null so that the exit's own flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = ERROR
    sys.exit(code)


if __name__ == "__main__":
    console_main()
