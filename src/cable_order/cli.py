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

A command line is read without argparse when it is well formed: a command
of :data:`COMMANDS`, then, for ``replay``, one path that does not start with
``-``, or else each of the command's options spelled exactly as declared, at
most once, each with a value that does not start with ``-`` and that the
option's converter takes, with every required option and exactly one of
``--beta`` and ``--slope`` given.  Every other line goes to argparse as it
is: help, usage errors, ``--x=2``, ``--p -3``, a repeated option and ``--``.
Its parser is built from the same declaration on first use and shared by
every later :func:`main` call, and ``argparse`` is imported only then, so
each line keeps argparse's namespace, messages and exit codes.  What a
single command needs is imported when it runs: ``concurrent.futures`` when a
sweep runs more than one worker.  ``sweep --jobs N`` runs at most N workers,
and never more than there are grid points or processors.
``verify-identities`` runs the checks of :mod:`normal_form`.
"""

from __future__ import annotations

import json
import os
import stat
import sys
import time
from collections import namedtuple
from functools import cache
from math import gcd
from pathlib import Path
from types import SimpleNamespace

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
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            rest = memoryview(data)
            while rest:  # a write may take fewer bytes than it is given
                rest = rest[os.write(fd, rest):]
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
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


def cmd_present(args: SimpleNamespace) -> int:
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


def cmd_certify(args: SimpleNamespace) -> int:
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


def cmd_replay(args: SimpleNamespace) -> int:
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


def cmd_verify_identities(args: SimpleNamespace) -> int:
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


def cmd_sweep(args: SimpleNamespace) -> int:
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
# the command line

def _jobs(text: str) -> int:
    """The value of ``sweep --jobs``: an integer of at least 1, or a usage error."""
    if not text.isdecimal() or int(text) < 1:
        import argparse  # only for the error: a well-formed command line never loads it

        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r:.40}")
    return int(text)


def _integer(text: str) -> int:
    """``--x``, ``--y``, ``--p`` and ``--beta``: an integer, or a usage error quoting at most 40 characters."""
    try:
        return int(text)
    except ValueError:
        import argparse  # only for the error: a well-formed command line never loads it

        why = over_digit_limit(text) or "must be an integer"
        raise argparse.ArgumentTypeError(f"{why}, got {text!r:.40}") from None


# An option: its spelling, the converter of its value (None for a flag, which
# takes no value and reads False when absent), whether it must be given, its
# default, and argparse's help text and metavar.
_Option = namedtuple("_Option", "flag convert required default help metavar",
                     defaults=(str, False, None, None, None))
# A command: the function it runs, argparse's help line, its options by
# spelling in the order of its usage line, the one pair of them of which
# exactly one must be given, and the name of its one positional argument.
_Command = namedtuple("_Command", "run help options pair positional", defaults=((), None))


def _options(*options: _Option) -> dict[str, _Option]:
    return {option.flag: option for option in options}


_X, _Y, _P = (_Option(flag, _integer, required=True) for flag in ("--x", "--y", "--p"))
_JSON = _Option("--json", metavar="PATH")

# Each command, declared once: main reads a well-formed command line from it,
# build_parser builds argparse from it, and both run the command it names.
COMMANDS = {
    "present": _Command(cmd_present, "print a presentation document",
                        _options(_X, _Y, _Option("--p", _integer), _JSON)),
    "certify": _Command(cmd_certify, "emit a non-left-orderability certificate", _options(
        _X, _Y, _P, _Option("--beta", _integer), _Option("--slope"), _JSON,
        _Option("--table", None, default=False, help="print the 27-row table instead of JSON"),
    ), pair=("--beta", "--slope")),
    "sweep": _Command(cmd_sweep, "certify a parameter grid", _options(
        _Option("--grid", required=True,
                help='e.g. "x=2..5;y=2..5;p=2..3;beta=1..5" or ...;slope=21/1|43/2'),
        _Option("--out", default="certs"),
        _Option("--jobs", _jobs, default=1),
    )),
    "verify-identities": _Command(cmd_verify_identities, "cross-check oracles against derivations",
                                  _options(_X, _Y, _P)),
    "replay": _Command(cmd_replay, "independently re-check a certificate file", {}, positional="path"),
}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a well-formed command line (see the module docstring), or None for argparse to read it.

    argparse gives such a line the same namespace: it takes each value,
    which does not start with ``-``, as the option's argument and passes it
    through the same converter.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    if command.positional:
        if len(argv) != 2 or argv[1][:1] == "-":
            return None
        return SimpleNamespace(command=argv[0], **{command.positional: argv[1]})
    options, given = command.options, {}
    i, n = 1, len(argv)
    while i < n:
        option = options.get(argv[i])
        if option is None or option.flag in given:
            return None
        if option.convert is None:
            given[option.flag] = True
            i += 1
            continue
        if i + 1 == n or argv[i + 1][:1] == "-":
            return None
        try:
            given[option.flag] = option.convert(argv[i + 1])
        except Exception:  # whatever it is, argparse reads the line again and reports or raises it
            return None
        i += 2
    if command.pair and (command.pair[0] in given) == (command.pair[1] in given):
        return None
    values = {"command": argv[0]}
    for flag, option in options.items():  # each under its name, "--x" under "x"
        if flag in given:
            values[flag[2:]] = given[flag]
        elif option.required:
            return None
        else:
            values[flag[2:]] = option.default
    return SimpleNamespace(**values)


@cache
def build_parser():
    """The CLI's argparse parser, built from :data:`COMMANDS` on the first call and shared by every later one.

    Sharing it is safe: ``parse_args`` returns a new namespace per call and
    leaves the parser unchanged.  A usage error exits with ERROR (1), not
    argparse's 2, and an option must be spelled in full: with abbreviations,
    adding an option could change what a command line means.
    """
    import argparse  # here, so that a well-formed command line never loads it

    class Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, allow_abbrev=False, **kwargs)

        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(ERROR, f"{self.prog}: error: {message}\n")

        def print_help(self, file=None) -> None:
            # argparse's own writer swallows OSError, so --help into a closed stdout would exit 0
            (file or sys.stdout).write(self.format_help())

    parser = Parser(
        prog="cable-order",
        description="Build cable-knot group presentations and certify "
        "non-left-orderability of surgery quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        group = sp.add_mutually_exclusive_group(required=True) if command.pair else None
        for flag, option in command.options.items():
            into = group if flag in command.pair else sp
            if option.convert is None:
                into.add_argument(flag, action="store_true", help=option.help)
            else:
                into.add_argument(flag, type=option.convert, required=option.required,
                                  default=option.default, help=option.help, metavar=option.metavar)
        if command.positional:
            sp.add_argument(command.positional)
    parser.commands = sub.choices  # each command's subparser, for _parse
    return parser


def _parse(argv: list[str]) -> SimpleNamespace:
    """argparse's namespace for `argv`; on help or a usage error, argparse prints and exits.

    A command's own arguments are parsed by its subparser alone, which is
    what the top-level parser would hand them to, and so give the same
    namespace, output and exit code; with no command, an unknown one or
    ``-h``, the top-level parser reports it.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv, SimpleNamespace())
    args, extra = command.parse_known_args(argv[1:], SimpleNamespace(command=argv[0]))
    if extra:  # the top-level parser names what no parser took
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run the command `argv` names (``sys.argv[1:]`` by default) and return its exit code.

    A well-formed command line is read from :data:`COMMANDS` without
    argparse; any other goes to :func:`_parse`.  Either way the command
    runs from :data:`COMMANDS`.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or _parse(argv)
    return COMMANDS[args.command].run(args)


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
