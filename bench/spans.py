"""In-memory span recorder and the wrappers that feed it from outside.

Nothing under ``src/`` knows about tracing.  :func:`instrumented` replaces
public names at the place the calling module looks them up (module globals
of ``cable_order.obstruction`` and ``cable_order.cli``, and two class
attributes), and puts every original object back when the block ends.

Span names are ``<layer>.<what>``; the layer is the module that does the
work.  A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import pathlib
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from cable_order import cli, obstruction
from cable_order.obstruction import ObstructionCertificate
from cable_order.presentations import GroupPresentation

ROOT = "cli.command"
BUILD = "presentations.build"
EXPAND = "presentations.expand"
CHECK = "derivations.check"


class Tracer:
    """Spans as ``[id, parent_id, name, cert_id, start_ns, end_ns]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.cert: int | None = None
        self._stack: list[list] = []

    def call(self, name: str, fn, /, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, name, self.cert, 0, 0]
        self.spans.append(span)
        self._stack.append(span)
        span[4] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = perf_counter_ns()
            self._stack.pop()

    def innermost(self) -> str | None:
        return self._stack[-1][2] if self._stack else None

    def self_ns(self) -> Counter[str]:
        """Total self time per span name, in nanoseconds."""
        child_ns: Counter[int] = Counter()
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        out: Counter[str] = Counter()
        for sid, _, name, _, t0, t1 in self.spans:
            out[name] += t1 - t0 - child_ns[sid]
        return out

    def total_ns(self) -> Counter[str]:
        """Total inclusive time per span name, in nanoseconds."""
        out: Counter[str] = Counter()
        for _, _, name, _, t0, t1 in self.spans:
            out[name] += t1 - t0
        return out

    def root_ns(self) -> int:
        return sum(t1 - t0 for _, parent, _, _, t0, t1 in self.spans if parent is None)

    def write_jsonl(self, path: pathlib.Path) -> None:
        keys = ("id", "parent", "name", "cert", "start_ns", "end_ns")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every name a traced run wraps."""
    check = obstruction.check_script

    def counted_check(script, *args, **kwargs):
        tracer.counts["check_calls"] += 1
        tracer.counts["checked_steps"] += len(script.steps)
        return tracer.call(CHECK, check, script, *args, **kwargs)

    expand = GroupPresentation.expand

    def traced_expand(pres, word):
        # expansions made while building a presentation stay in the build's self time
        if tracer.innermost() == BUILD:
            return expand(pres, word)
        out = tracer.call(EXPAND, expand, pres, word)
        # syllables concatenated before the final reduction: the work done
        tracer.counts["expanded_syllables"] += sum(
            len(pres.named[g].expansion.syllables) * abs(e) if g in pres.named else 1
            for g, e in word
        )
        return out

    codec = types.SimpleNamespace(**vars(cli.json))
    codec.dumps = _wrap(tracer, "cli.dumps", cli.json.dumps)
    codec.loads = _wrap(tracer, "cli.loads", cli.json.loads)

    class TracedPath(type(pathlib.Path())):
        def write_text(self, *args, **kwargs):
            return tracer.call("cli.write", super().write_text, *args, **kwargs)

        def read_text(self, *args, **kwargs):
            return tracer.call("cli.read", super().read_text, *args, **kwargs)

    patches: list[tuple[object, str, object]] = [
        (obstruction, "cable_presentation", _wrap(tracer, BUILD, obstruction.cable_presentation)),
        (obstruction, "check_script", functools.wraps(check)(counted_check)),
        (obstruction, "refute_all", _wrap(tracer, "obstruction.refute", obstruction.refute_all)),
        (GroupPresentation, "expand", functools.wraps(expand)(traced_expand)),
        (ObstructionCertificate, "to_json_dict",
         _wrap(tracer, "obstruction.to_json", ObstructionCertificate.to_json_dict)),
        (cli, "certify_beta", _wrap(tracer, "obstruction.certify", cli.certify_beta)),
        (cli, "certify_slope", _wrap(tracer, "obstruction.certify", cli.certify_slope)),
        (cli, "replay", _wrap(tracer, "obstruction.replay", cli.replay)),
        (cli, "certificate_from_json_dict",
         _wrap(tracer, "obstruction.from_json", cli.certificate_from_json_dict)),
        (cli, "build_parser", _wrap(tracer, "cli.build_parser", cli.build_parser)),
        (cli, "json", codec),
        (cli, "Path", TracedPath),
    ]
    # the *_script factories, as certify_beta and certify_slope look them up
    for attr, fn in vars(obstruction).items():
        if attr.endswith("_script") and attr != "check_script" and callable(fn):
            patches.append((obstruction, attr, _wrap(tracer, "derivations.generate", fn)))
    return patches


@contextmanager
def instrumented(tracer: Tracer):
    """Route the certify/replay path through `tracer` for the block's duration."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, replacement in _patches(tracer):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapped_names() -> list[tuple[object, str, object]]:
    """(owner, attribute, current object) for every name :func:`instrumented` replaces."""
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in _patches(Tracer())]
