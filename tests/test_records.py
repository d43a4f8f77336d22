"""The plain records are immutable values, and every dataclass writes its own docstring.

Nine records with no validation and no derived field are named tuples,
which cost far less to define at import than a dataclass does.  They must
still behave as the frozen dataclasses they replaced: no field can be
assigned, they pickle, and equal records are equal and hash alike.
"""

import dataclasses
import inspect
import pickle

import pytest

from cable_order import derivations, normal_form, obstruction, presentations, proofs, slopes, words
from cable_order.derivations import Axiom, Equation
from cable_order.normal_form import TorusNormalForm, lspace_window_check
from cable_order.obstruction import Inconclusive, ReplayReport, all_sign_assignments
from cable_order.presentations import NamedElement, Relator
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
        "NamedElement": NamedElement("muC", Word.parse("mu^6 lam t^-1")),
        "Relator": Relator("cable", Word.parse("mu^11 lam^2 t^-2")),
    }


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
    assert record._replace(**{record._fields[0]: "other"}) != record


def test_a_replay_report_is_true_exactly_when_ok():
    assert not ReplayReport(False, [])
    assert ReplayReport(True, [])
    assert not ReplayReport(False, ["a problem"])


def test_the_validated_records_still_copy_with_replace():
    cert = proofs.certify_beta(2, 3, 2, 1)
    relabelled = dataclasses.replace(cert, params=dataclasses.replace(cert.params, beta=None))
    assert relabelled.params.mode == "slope" and relabelled.entries == cert.entries
    script = cert.entries[0].script
    assert dataclasses.replace(script, cites=("x",)).cites == ("x",)


MODULES = (words, slopes, presentations, derivations, obstruction, normal_form, proofs)


def test_every_dataclass_writes_its_own_docstring():
    # without one, @dataclass calls inspect.signature to write a docstring at import
    classes = [c for m in MODULES for c in vars(m).values()
               if inspect.isclass(c) and dataclasses.is_dataclass(c) and c.__module__ == m.__name__]
    assert len(classes) >= 8
    for cls in classes:
        assert not cls.__doc__.startswith(cls.__name__ + "("), cls.__name__
