"""The trusted core is what replay runs: every function it defines is entered by load and replay.

A certificate is only as trustworthy as the code `replay` runs, so the five
core modules should hold that code and little else.  This test traces
``json.loads``, ``certificate_from_json_dict`` and ``replay`` (and the
report's truth, which ``cmd_replay`` reads) over the v1/v2 fixtures, a
generated sample, and the ``CORE_REJECTIONS`` documents of ``test_cli``,
so that error paths count.  Certify runs before the trace,
and the presentation and sign caches are emptied, so the trace sees what a
fresh process that only replays would run.

Every function and method that a core module defines must be entered, or be
named in :data:`NOT_RUN_BY_REPLAY` with the reason it stays in the core; an
allow-listed name must exist, and must not be entered.  So a core function
that replay never runs, and a replay that starts calling the refutation
search or a writer, both fail here.
"""

import ast
import copy
import json
import sys
from pathlib import Path

import pytest

from cable_order import derivations, obstruction, presentations, slopes, words
from cable_order.obstruction import certificate_from_json_dict, replay
from cable_order.proofs import certificate_text, certify_beta, certify_slope
from cable_order.slopes import Slope
from test_cli import CORE_REJECTIONS

CORE = (words, slopes, presentations, derivations, obstruction)
FIXTURES = sorted((Path(__file__).resolve().parent / "data").glob("v*/*.json"))
SAMPLE = ((2, 3, 2), (2, 5, 3), (3, 4, 2), (3, 5, 3))

_BENCH_WRITER = "a writer: bench/spans.py patches ObstructionCertificate.to_json_dict, and the byte pins test it"
NOT_RUN_BY_REPLAY = {
    "obstruction.refute_all": "the refutation search certify runs: replay recomputes each row instead, "
                              "and bench/spans.py and proofs._certify look it up on the module",
    "obstruction.SignAssignment._make": "checks the signs of a copy made with _replace; the loader makes none",
    "obstruction.ObstructionCertificate.to_json_dict": _BENCH_WRITER,
    "obstruction.ObstructionCertificate.cramer_data": _BENCH_WRITER,
    "obstruction.CertParams.to_json_dict": _BENCH_WRITER,
    "obstruction.RefutationRow.to_json_dict": _BENCH_WRITER,
    "derivations.CertEntry.to_json_dict": _BENCH_WRITER,
    "derivations.CertEntry.equation": "certify and bench/harness.py read it; "
                                      "replay takes each equation from check_script",
    "derivations.script_to_json_dict": _BENCH_WRITER,
    "derivations.Step.to_json_dict": _BENCH_WRITER,
    "presentations.GroupPresentation.expand": "spells names out for certify, present --json and verify-identities; "
                                              "replay reads sides as written, and bench/spans.py patches it",
    "words.concat": "the product expand writes names out with, and the verify-identities checks build words with",
    "words.Word.__iter__": "the tests iterate words, as when they take the sign of one",
    "presentations.GroupPresentation.__reduce__": "pickling, which test_presentations pins",
    "slopes.Slope.__le__": "certify's window test reads it, and test_slopes pins the order",
}


def _defined(node: ast.AST, prefix: str, path: str, found: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            found[path, first] = prefix + child.name
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _defined(child, f"{prefix}{child.name}.", path, found)


def core_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every function and method a core module defines, at any depth.

    The first line is the one a code object reports: a decorated function's
    starts at its first decorator.
    """
    found: dict[tuple[str, int], str] = {}
    for module in CORE:
        _defined(ast.parse(Path(module.__file__).read_text()), module.__name__.rsplit(".", 1)[1] + ".",
                 module.__file__, found)
    return found


def rejected_texts() -> list[str]:
    """The ``CORE_REJECTIONS`` tampers, each applied to the certificate its test tampers."""
    base = json.loads(certificate_text(certify_beta(2, 3, 2, 3)))
    texts = []
    for tamper, _, _ in CORE_REJECTIONS.values():
        doc = copy.deepcopy(base)
        tamper(doc)
        texts.append(json.dumps(doc))
    return texts


def sample_texts() -> list[str]:
    texts = []
    for x, y, p in SAMPLE:
        pq = p * (p * x * y - 1)
        texts += [certificate_text(certify_beta(x, y, p, beta)) for beta in (1, 2, 7)]
        window = (Slope(pq - 1), Slope(pq), Slope(2 * pq - 1, 2))
        texts += [certificate_text(certify_slope(x, y, p, slope)) for slope in window]
    return texts


def load_and_replay(text: str):
    """What ``cmd_replay`` runs after reading the file: the load error, or whether the replay is ok."""
    try:
        cert = certificate_from_json_dict(json.loads(text))
    except (ValueError, KeyError, TypeError, RecursionError) as err:
        return err
    return bool(replay(cert))


@pytest.fixture(scope="module")
def entered():
    """The (file, first line) of every Python function entered while the inputs load and replay."""
    texts = [path.read_text() for path in FIXTURES] + sample_texts()
    texts += rejected_texts()
    # built again inside the trace, as a process that only replays builds them
    presentations.cable_presentation.cache_clear()
    presentations.torus_presentation.cache_clear()
    obstruction._verdicts.cache_clear()
    seen = set()

    def trace(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))  # called on 'call' events only

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        outcomes = [load_and_replay(text) for text in texts]
    finally:
        sys.settrace(previous)
    valid = len(texts) - len(CORE_REJECTIONS)
    assert outcomes[:valid] == [True] * valid and True not in outcomes[valid:]
    return seen


def test_the_inputs_are_all_there():
    assert len(FIXTURES) == 8 and len(CORE_REJECTIONS) > 30
    assert len(core_functions()) > 60


def test_every_core_function_is_run_by_replay_or_allow_listed(entered):
    not_entered = {name for key, name in core_functions().items() if key not in entered}
    assert sorted(not_entered - set(NOT_RUN_BY_REPLAY)) == []


def test_every_allow_listed_function_exists_and_is_not_run_by_replay(entered):
    defined = core_functions()
    assert sorted(set(NOT_RUN_BY_REPLAY) - set(defined.values())) == []
    assert sorted(name for key, name in defined.items() if key in entered and name in NOT_RUN_BY_REPLAY) == []
