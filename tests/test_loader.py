"""The certificate loader reads words and slopes by their printed grammar, and checks fields inline.

``Word.parse_printed`` and ``Slope.parse_printed`` read a text in the
printed grammar at once.  That is a fast path only: it must accept exactly
the texts that parsing and printing back accept, with equal values, and
any other text must get the message that path gives.  The inline checks must fault a
document with two faults on the same one, and with the same text, as the
helpers they replaced.  Loading a certificate and writing it again gives
back its text.
"""

import copy
import json
import random
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from cable_order.obstruction import certificate_from_json_dict
from cable_order.proofs import certificate_text, certify_beta, certify_slope
from cable_order.slopes import Slope
from cable_order.words import Word

OVER_LIMIT = "9" * 4301  # one digit past Python's default limit for int(str)
AT_LIMIT = "9" * 4300

GENERATORS = ["a", "b", "t", "mu", "lamC", "x_1", "Z9", "_a", "2a", "1", "é", "ａ", ""]
EXPONENTS = [
    "", "", "^2", "^-2", "^-1", "^10", "^-10", "^1", "^-0", "^0", "^01", "^-01", "^+2", "^",
    "^-", "^٣", "^²", "^1_0", "^ 2", "^" + AT_LIMIT, "^-" + AT_LIMIT, "^" + OVER_LIMIT,
    "^-" + OVER_LIMIT,
]
SEPARATORS = [" ", " ", " ", " ", "  ", "\t", " ", ""]
EDGES = ["", "", "", "", " ", "\n"]
NOT_TEXT = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                     st.lists(st.just("a"), max_size=2), st.dictionaries(st.just("a"), st.just(1)))


@st.composite
def word_texts(draw):
    """A word's text, often printed as `str` prints it, and often not."""
    syllables = draw(st.lists(st.tuples(st.sampled_from(GENERATORS), st.sampled_from(EXPONENTS)), max_size=4))
    text = "".join((draw(st.sampled_from(SEPARATORS)) if i else "") + g + e for i, (g, e) in enumerate(syllables))
    return draw(st.sampled_from(EDGES)) + text + draw(st.sampled_from(EDGES))


NUMBERS = ["0", "-0", "1", "-1", "2", "-2", "3", "6", "65", "-65", "01", "+2", "6_5", "٦٥",
           " 3", "3 ", "", "-", AT_LIMIT, "-" + AT_LIMIT, OVER_LIMIT, "-" + OVER_LIMIT]


@st.composite
def slope_texts(draw):
    """A slope's text, often m/n as `str` prints it, and often not."""
    parts = draw(st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=3))
    return draw(st.sampled_from(EDGES)) + "/".join(parts) + draw(st.sampled_from(EDGES))


def printed_back(parse, text, what):
    """``parse(text)``, which must print as `text`: the reading the grammar must agree with."""
    value = parse(text)
    if str(value) != text:
        raise ValueError(f"{what} {text!r:.40} is not written as {str(value)!r:.40}")
    return value


def outcome(read, *args):
    """What reading gives: ("ok", value), or ("error", exception type, message)."""
    try:
        return ("ok", read(*args))
    except ValueError as err:
        return ("error", type(err), str(err))


@given(st.one_of(word_texts(), st.text(max_size=12), NOT_TEXT))
@example("")
@example("1")
@example(" 1")
@example("a a")
@example("a^2 a^-2")
@example("a^1")
@example("a^-0")
@example("a^٣")
@example("a  b")
@example(" a")
@example("a ")
@example("b a^" + OVER_LIMIT)
@example("a a^" + OVER_LIMIT)
def test_the_word_grammar_accepts_what_printing_back_accepts(text):
    assert outcome(Word.parse_printed, text, "step word") == outcome(printed_back, Word.parse, text, "step word")


@given(st.one_of(slope_texts(), st.text(max_size=12), NOT_TEXT))
@example("0/1")
@example("-0/1")
@example("0/2")
@example("2/4")
@example("65/3")
@example("65")
@example("65/03")
@example("+65/3")
@example("65/0")
@example(OVER_LIMIT + "/1")
@example("1/" + OVER_LIMIT)
def test_the_slope_grammar_accepts_what_printing_back_accepts(text):
    assert outcome(Slope.parse_printed, text, "params.slope") == outcome(
        printed_back, Slope.parse, text, "params.slope"
    )


WORDS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "t", "mu", "lamC", "x_1"]),
              st.integers(-(10**50), 10**50).filter(bool) | st.sampled_from([1, -1, 2, -2])),
    max_size=5,
).map(Word.from_pairs)


@given(WORDS)
def test_a_printed_word_never_leaves_the_grammar(word):
    with mock.patch.object(Word, "parse", side_effect=AssertionError("left the grammar")):
        assert Word.parse_printed(str(word)) == word


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_a_printed_slope_never_leaves_the_grammar(m, n):
    slope = Slope(m // gcd(m, n), n // gcd(m, n))
    with mock.patch.object(Slope, "parse", side_effect=AssertionError("left the grammar")):
        assert Slope.parse_printed(str(slope)) == slope


# ---------------------------------------------------------------------------
# the order of the inline checks


@pytest.fixture(scope="module")
def base_doc():
    return json.loads(certificate_text(certify_beta(2, 3, 2, 3)))


def _script(doc, entry_id):
    return next(e for e in doc["equations"] if e["id"] == entry_id)["script"]


def _clash_rows(doc):
    return [r for r in doc["refutations"] if r["reason"]["kind"] == "clash"]


# two faults each: the error text the loader gives, which names the fault it checks first
TWO_FAULTS = {
    "bad_axiom_kind_and_a_non_string_cite": (
        lambda d: _script(d, "cable_endpoint_product").update(axiom={"kind": "lemma"}, cites=[5]),
        "unknown axiom kind 'lemma'"),
    "non_string_axiom_name_and_a_string_cites": (
        lambda d: _script(d, "central_relation").update(axiom={"kind": "relator", "name": 5}, cites="xyz"),
        "axiom name must be str, got int"),
    "a_named_surgery_axiom_and_a_string_cites": (
        lambda d: _script(d, "surgery_interior_combination").update(
            axiom={"kind": "surgery", "name": "s"}, cites="xyz"),
        "a surgery axiom's name must be null"),
    "string_cites_and_a_non_string_id": (
        lambda d: _script(d, "central_relation").update(cites="xyz", id=5),
        "cites must be list, got str"),
    "non_string_id_and_an_unknown_context": (
        lambda d: _script(d, "central_relation").update(id=5, context="K"),
        "script id must be str, got int"),
    "unpadded_script_slope_and_a_bad_axiom_kind": (
        lambda d: _script(d, "surgery_interior_combination").update(slope=" 65/3", axiom={"kind": "lemma"}),
        "script slope ' 65/3' is not written as '65/3'"),
    "bad_step_kind_and_a_claimed_word_not_as_printed": (
        lambda d: (_script(d, "cable_t_power")["steps"][0].update(kind="hop"),
                   _script(d, "cable_t_power")["claimed"].update(lhs="t^02")),
        "unknown step kind 'hop'"),
    "claimed_lhs_and_rhs_not_as_printed": (
        lambda d: _script(d, "cable_t_power")["claimed"].update(lhs="t^02", rhs="a a"),
        "claimed lhs 't^02' is not written as 't^2'"),
    "claimed_rhs_not_as_printed_and_a_non_string_cite": (
        lambda d: _script(d, "cable_endpoint_product").update(
            claimed={"lhs": "muC^21 lamC", "rhs": "t  a b"}, cites=[5]),
        "claimed rhs 't  a b' is not written as 't a b'"),
    "step_word_not_as_printed_and_a_non_string_ref_name": (
        lambda d: (_script(d, "cable_endpoint_product")["steps"][0].update(word="muC^021"),
                   _script(d, "cable_endpoint_product")["steps"][5]["ref"].update(name=5)),
        "step word 'muC^021' is not written as 'muC^21'"),
    "non_string_ref_type_and_name": (
        lambda d: _script(d, "cable_endpoint_product")["steps"][5]["ref"].update(type=1, name=2),
        "step ref type must be str, got int"),
    "copy_that_differs_and_a_later_bad_script": (
        lambda d: (d["equations"][0].update(lhs="a^3"), _script(d, "cable_t_power").update(id=5)),
        "the lhs of equation 'central_relation' differs from its script's"),
    "two_copies_that_differ": (
        lambda d: d["equations"][1].update(context="H", rhs="a"),
        "the context of equation 'cable_t_power' differs from its script's"),
    "unknown_reason_kind_and_a_bad_sign_in_a_later_row": (
        lambda d: (d["refutations"][0].update(reason={"kind": "axiom"}),
                   d["refutations"][1]["assignment"].update(a="up")),
        "bad refutation reason {'kind': 'axiom'}"),
    "bad_sign_and_an_unknown_reason_kind_in_one_row": (
        lambda d: (d["refutations"][0]["assignment"].update(b="up"), d["refutations"][0].update(reason={})),
        "bad sign 'up'"),
    "extra_assignment_key_and_a_bad_sign": (
        lambda d: d["refutations"][0]["assignment"].update(a="up", z="pos"),
        "a refutation assignment must be an object with the keys a, b and t"),
    "non_string_equation_and_a_bad_recorded_sign": (
        lambda d: _clash_rows(d)[0]["reason"].update(equation=5, lhs_sign="up"),
        "refutation equation must be str, got int"),
    "bad_lhs_and_rhs_signs": (
        lambda d: _clash_rows(d)[0]["reason"].update(lhs_sign=["pos"], rhs_sign="up"),
        "unknown recorded lhs_sign list"),
    "bad_rhs_sign_and_a_bad_sign_in_a_later_row": (
        lambda d: (_clash_rows(d)[0]["reason"].update(rhs_sign="up"),
                   d["refutations"][-1]["assignment"].update(t="up")),
        "unknown recorded rhs_sign 'up'"),
    "missing_lhs_sign_and_a_non_string_equation": (
        lambda d: (_clash_rows(d)[0]["reason"].pop("lhs_sign"), _clash_rows(d)[1]["reason"].update(equation=5)),
        "'lhs_sign'"),
    "missing_claimed_rhs_and_a_non_string_cite": (
        lambda d: _script(d, "cable_endpoint_product").update(claimed={"lhs": "muC^21 lamC"}, cites=[5]),
        "'rhs'"),
}


@pytest.mark.parametrize("case", TWO_FAULTS)
def test_a_document_with_two_faults_names_the_first_checked(base_doc, case):
    tamper, message = TWO_FAULTS[case]
    doc = copy.deepcopy(base_doc)
    tamper(doc)
    with pytest.raises((ValueError, KeyError)) as err:  # a KeyError's text is the missing key, quoted
        certificate_from_json_dict(doc)
    assert str(err.value) == message


FIXTURES = sorted((Path(__file__).resolve().parent / "data").glob("v*/*.json"))


def grid_sample(count: int, seed: int) -> list:
    """`count` certificates made now, at points drawn from the acceptance grid: beta and slope kinds."""
    rng = random.Random(seed)
    triples = [(x, y, p) for x in range(2, 8) for y in range(x + 1, 8) if gcd(x, y) == 1 for p in range(2, 6)]
    certs = []
    for _ in range(count):
        x, y, p = rng.choice(triples)
        if rng.randrange(2):
            certs.append(certify_beta(x, y, p, rng.randint(1, 10**6)))
        else:  # (pq n - k)/n: pq at k = 0, pq - 1 at k = n, and strictly between them otherwise
            pq, n = p * (p * x * y - 1), rng.randint(1, 40)
            m = pq * n - rng.randint(0, n)
            certs.append(certify_slope(x, y, p, Slope(m // gcd(m, n), n // gcd(m, n))))
    return certs


def test_loading_then_writing_gives_the_same_text_on_a_grid_sample():
    for cert in grid_sample(60, seed=0):
        text = certificate_text(cert)
        assert certificate_text(certificate_from_json_dict(json.loads(text))) == text, cert.params


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: f"{path.parent.name}_{path.stem}")
def test_loading_then_writing_a_fixture_gives_its_text_without_the_step_reasons(path):
    # `why` is a step's comment for the reader: the loader keeps no copy of it, and the writer writes none
    doc = json.loads(path.read_text())
    for entry in doc["equations"]:
        for step in entry["script"]["steps"]:
            step.pop("why", None)
    text = json.dumps(doc, separators=(",", ":"))
    assert certificate_text(certificate_from_json_dict(doc)) == text
