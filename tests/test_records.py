"""The records are immutable values, and the only dataclasses are the three that must not be tuples.

Every certificate-side record is a named tuple, which costs far less to
define at import than a dataclass does.  They must still behave as the
frozen dataclasses they replaced: no field can be assigned, they pickle,
and equal records are equal and hash alike.  `Word`, `Slope` and
`GroupPresentation` stay dataclasses: a tuple's `len` would be wrong for a
word, its lexicographic order unsound for a slope, and a presentation
builds fields of its own after construction.
"""

import dataclasses
import inspect
import pickle

import pytest

from cable_order import derivations, normal_form, obstruction, presentations, proofs, slopes, words
from cable_order.derivations import Axiom, CertEntry, DerivationScript, Equation
from cable_order.normal_form import TorusNormalForm, lspace_window_check
from cable_order.obstruction import (
    CertParams, Inconclusive, ObstructionCertificate, ReplayReport, SignAssignment, all_sign_assignments,
)
from cable_order.slopes import Slope, cramer
from cable_order.words import Word


def records():
    return {
        "Equation": Equation(Word.parse("a^2"), Word.parse("b^3"), None, "torus_relation"),
        "Axiom": Axiom("relator", "torus_relation"),
        "CramerTriple": cramer(Slope(21), Slope(22), Slope(43, 2)),
        "WindowReport": lspace_window_check(2, 3, 2),
        "TorusNormalForm": TorusNormalForm(-1, (("a", 1), ("b", 2))),
        "Inconclusive": Inconclusive(all_sign_assignments()[:2]),
        "ReplayReport": ReplayReport(False, ["a problem"]),
        "SignAssignment": SignAssignment("pos", "neg", "zero"),
        "CertParams": CertParams(2, 3, 2, Slope(43, 2)),
        "DerivationScript": script(),
        "CertEntry": CertEntry(script()),
        "ObstructionCertificate": ObstructionCertificate(CertParams(2, 3, 2, Slope(21), 1), (CertEntry(script()),), ()),
    }


def script():
    return DerivationScript("central_relation", None, Axiom("relator", "central"), (),
                            Word.parse("a^2 b^-3"), Word.identity())


@pytest.fixture(params=sorted(records()))
def record(request):
    return records()[request.param]


def test_no_field_can_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no __dict__ either


def test_a_record_pickles(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == repr(record)


def test_equal_records_are_equal_and_hash_alike(record):
    twin = records()[type(record).__name__]
    assert twin == record and twin is not record
    if type(record) is not ReplayReport:  # its problems are a list, as they were
        assert hash(twin) == hash(record)
    other = "neg" if type(record) is SignAssignment else "other"  # a sign must be one of the three
    assert record._replace(**{record._fields[0]: other}) != record


def test_a_replay_report_is_true_exactly_when_ok():
    assert not ReplayReport(False, [])
    assert ReplayReport(True, [])
    assert not ReplayReport(False, ["a problem"])


def test_the_validated_records_still_copy_with_replace():
    cert = proofs.certify_beta(2, 3, 2, 1)
    relabelled = cert._replace(params=cert.params._replace(beta=None))
    assert relabelled.params.mode == "slope" and relabelled.entries == cert.entries
    script = cert.entries[0].script
    assert script._replace(cites=("x",)).cites == ("x",)
    assignment = cert.refutations[0].assignment
    assert assignment._replace(t="neg") == ("pos", "pos", "neg")
    with pytest.raises(ValueError, match="bad sign 'up'"):
        assignment._replace(a="up")


MODULES = (words, slopes, presentations, derivations, obstruction, normal_form, proofs)


def test_every_dataclass_writes_its_own_docstring():
    # without one, @dataclass calls inspect.signature to write a docstring at import
    classes = [c for m in MODULES for c in vars(m).values()
               if inspect.isclass(c) and dataclasses.is_dataclass(c) and c.__module__ == m.__name__]
    assert {c.__name__ for c in classes} == {"Word", "Slope", "GroupPresentation"}
    for cls in classes:
        assert not cls.__doc__.startswith(cls.__name__ + "("), cls.__name__
