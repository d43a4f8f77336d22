import functools
import random

import pytest
from hypothesis import example, given, strategies as st

from cable_order import derivations, presentations, words
from cable_order.obstruction import Inconclusive, replay
from cable_order.presentations import (
    LAM,
    LAMC,
    MU,
    MUC,
    cable_presentation,
    torus_presentation,
)
from cable_order.proofs import certify_slope
from cable_order.slopes import Slope
from cable_order.words import Word, WordSyntaxError, concat, invert, power
from helpers import abelianize, reference_spellings, word_strategy


def W(text: str) -> Word:
    return Word.parse(text)


class TestConcat:
    def test_inverse_cancellation(self):
        assert concat(W("a^2"), W("a^-2")) == Word.identity()

    def test_single_syllable_cancellation(self):
        assert concat(W("a^2 b"), W("b^-1")) == W("a^2")

    def test_no_cancellation(self):
        assert concat(W("b^-1 a"), W("b^-1 a")) == W("b^-1 a b^-1 a")


class TestInvert:
    def test_identity(self):
        assert invert(Word.identity()) == Word.identity()

    def test_reverse_and_negate(self):
        assert invert(W("a^2 b^-1")) == W("b a^-2")
        assert invert(W("b^-1 a")) == W("a^-1 b")


class TestPower:
    def test_simple(self):
        assert power(W("a"), 3) == W("a^3")

    def test_two_syllables(self):
        assert power(W("b^-1 a"), 2) == W("b^-1 a b^-1 a")

    def test_telescoping_conjugate(self):
        assert power(W("a b a^-1"), 5) == W("a b^5 a^-1")

    def test_zero_and_negative(self):
        w = W("a^2 b^-1")
        assert power(w, 0) == Word.identity()
        assert power(w, -3) == invert(power(w, 3))

    def test_the_first_power_is_the_word_and_the_minus_first_its_inverse(self):
        # no peeling: every beta certificate has two relation steps with n = 1
        for w in (W("a b a^-1"), W("a^2 b^-1"), W("t")):
            assert power(w, 1) is w
            assert power(w, -1) == invert(w)
        assert power(Word.identity(), -1) == Word.identity()

    def test_a_power_too_long_to_spell_is_a_value_error(self):
        # more syllables than any list can hold; one syllable's power is only an exponent
        with pytest.raises(ValueError, match="too long to spell out"):
            power(W("a b"), 10**30)
        with pytest.raises(ValueError, match="too long to spell out"):
            power(W("a b a"), -(10**30))  # the core a^2 b repeats
        assert power(W("b a b^-1"), 10**30) == Word.from_pairs([("b", 1), ("a", 10**30), ("b", -1)])


class TestAbelianize:
    def test_identity_is_all_zeros(self):
        assert abelianize(Word.identity()) == {}

    def test_simple(self):
        assert abelianize(W("b^-1 a")) == {"a": 1, "b": -1}

    def test_cable_peripheral_power(self):
        # expansion of mu^11 lam^2 at (x,y,p,q) = (2,3,2,11): exponent sums are
        # 11*ab(mu) + 2*ab(lam) = 11*(1,-1) + 2*(-4,6) = (3,1), which must agree
        # with ab(a^3 b) = (3,1) modulo integer multiples of (x,-y) = (2,-3)
        pres = cable_presentation(2, 3, 2)
        w = pres.expand(Word.from_pairs([(MU, 11), (LAM, 2)]))
        sums = abelianize(w)
        assert sums == {"a": 3, "b": 1}
        diff_a = sums.get("a", 0) - 3
        diff_b = sums.get("b", 0) - 1
        assert diff_a * (-3) == diff_b * 2  # proportional to (2, -3)


class TestProperties:
    @given(word_strategy())
    def test_reduction_idempotent(self, w):
        assert Word.from_pairs(w.syllables) == w

    @given(word_strategy(), word_strategy(), word_strategy())
    def test_concat_associative(self, u, v, w):
        assert concat(concat(u, v), w) == concat(u, concat(v, w))

    @given(word_strategy(), word_strategy())
    def test_abelianize_homomorphism(self, u, v):
        combined = abelianize(concat(u, v))
        au, av = abelianize(u), abelianize(v)
        for g in set(au) | set(av):
            assert combined.get(g, 0) == au.get(g, 0) + av.get(g, 0)

    def test_word_times_inverse_bulk(self):
        rng = random.Random(20240811)
        for _ in range(10_000):
            pairs = [
                (rng.choice("abt"), rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
                for _ in range(rng.randint(0, 10))
            ]
            w = Word.from_pairs(pairs)
            assert concat(w, invert(w)) == Word.identity()

    @given(word_strategy())
    def test_invert_involution(self, w):
        assert invert(invert(w)) == w


class TestTextSyntax:
    @given(word_strategy())
    def test_parse_print_round_trip(self, w):
        assert Word.parse(str(w)) == w
        assert str(Word.parse(str(w))) == str(w)

    def test_identity_forms(self):
        assert Word.parse("1") == Word.identity()
        assert Word.parse("") == Word.identity()
        assert str(Word.identity()) == "1"

    def test_exponent_one_is_implicit(self):
        assert str(W("a^1")) == "a"
        assert W("a") == W("a^1")

    def test_named_letters(self):
        w = W("mu^6 lam t^-1")
        assert w.syllables == (("mu", 6), ("lam", 1), ("t", -1))
        assert str(w) == "mu^6 lam t^-1"

    @pytest.mark.parametrize("bad", ["a^0", "a^", "2a", "a^x", "a b^"])
    def test_rejects_bad_syllables(self, bad):
        with pytest.raises(WordSyntaxError):
            Word.parse(bad)


# -- junction-only arithmetic against the full reducer ------------------------

EXPONENTS = st.integers(min_value=-6, max_value=6).filter(bool)


def is_reduced(w: Word) -> bool:
    syls = w.syllables
    return all(e != 0 for _, e in syls) and all(a[0] != b[0] for a, b in zip(syls, syls[1:]))


def reference_power(w: Word, n: int) -> Word:
    base = w.syllables if n >= 0 else invert(w).syllables
    return Word.from_pairs(base * abs(n))


def reference_concat(*ws: Word) -> Word:
    return Word.from_pairs([s for w in ws for s in w.syllables])


@functools.cache
def cached_spellings(x: int, y: int, p: int) -> dict[str, Word]:
    return reference_spellings(cable_presentation(x, y, p))


def reference_expand(pres, w: Word) -> Word:
    spellings = cached_spellings(pres.x, pres.y, pres.p)
    pairs = []
    for g, e in w.syllables:
        if g in pres.named:
            pairs.extend(reference_power(spellings[g], e).syllables)
        else:
            pairs.append((g, e))
    return Word.from_pairs(pairs)


@st.composite
def named_words(draw):
    """A cable presentation and a word over its letters and names.

    At pq = 22, 11,574 and 14,950, muC's exponents are small or within 2
    of +-pq, where lamC = muC^-pq t^p cancels them; lamC's stay small, so
    that the spelled-out oracle stays cheap.
    """
    x, y, p = xyp = draw(st.sampled_from(((2, 3, 2), (11, 13, 9), (2, 3, 50))))
    pq = p * (p * x * y - 1)
    near_pq = st.tuples(st.sampled_from((1, -1)), st.integers(-2, 2)).map(lambda sd: sd[0] * pq + sd[1])
    lamc_exponents = EXPONENTS if pq < 100 else st.integers(-2, 2).filter(bool)
    syllable = st.one_of(
        st.tuples(st.sampled_from(("a", "b", "t", MU, LAM)), EXPONENTS),
        st.tuples(st.just(MUC), st.one_of(EXPONENTS, near_pq)),
        st.tuples(st.just(LAMC), lamc_exponents),
    )
    return xyp, Word.from_pairs(draw(st.lists(syllable, max_size=6)))


@st.composite
def conjugates(draw):
    """A c A^-1 with a core c of one of three shapes."""
    outer = draw(word_strategy())
    shape = draw(st.sampled_from(("any", "shared_ends", "one_syllable")))
    if shape == "any":
        core = draw(word_strategy())
    elif shape == "one_syllable":
        core = Word.single(draw(st.sampled_from("abt")), draw(EXPONENTS))
    else:
        # (g, e0) mid (g, e1): the two end syllables share a generator
        g = draw(st.sampled_from("abt"))
        mid = draw(word_strategy(alphabet=tuple(set("abt") - {g})).filter(bool))
        core = Word(((g, draw(EXPONENTS)),) + mid.syllables + ((g, draw(EXPONENTS)),))
    return concat(outer, core, invert(outer))


class TestJunctionArithmetic:
    @given(st.one_of(word_strategy(), conjugates()), st.integers(min_value=-5, max_value=5))
    def test_power_matches_full_reduction(self, w, n):
        got = power(w, n)
        assert got == reference_power(w, n)
        assert is_reduced(got)

    @given(st.lists(st.one_of(word_strategy(), conjugates()), max_size=5))
    def test_concat_matches_full_reduction(self, ws):
        got = concat(*ws)
        assert got == reference_concat(*ws)
        assert is_reduced(got)

    @given(st.lists(word_strategy(), min_size=1, max_size=5))
    def test_chains_that_cancel_entirely(self, ws):
        inverses = [invert(w) for w in reversed(ws)]
        assert concat(*ws, *inverses) == Word.identity()
        # the cancellation crosses every junction, one word at a time
        assert concat(concat(*ws), *inverses) == Word.identity()

    def test_shared_end_core_glues_between_copies(self):
        w = W("a^2 b a^-1")
        assert power(w, 3) == W("a^2 b a b a b a^-1")
        assert power(w, -2) == W("a b^-1 a^-1 b^-1 a^-2")

    def test_conjugated_shared_end_core(self):
        w = W("t a^2 b a^-1 t^-1")
        assert power(w, 2) == W("t a^2 b a b a^-1 t^-1")

    def test_one_syllable_core_multiplies_its_exponent(self):
        assert power(W("a b^2 t a^-3 t^-1 b^-2 a^-1"), -4) == W("a b^2 t a^12 t^-1 b^-2 a^-1")

    @given(named_words())
    @example(((2, 3, 50), Word.from_pairs([(MUC, 14949), (LAMC, 1)])))
    @example(((11, 13, 9), Word.from_pairs([(LAMC, -2), (MUC, -23148), ("t", 3), (MUC, 11573)])))
    def test_expand_matches_full_reduction(self, drawn):
        xyp, w = drawn
        pres = cable_presentation(*xyp)
        got = pres.expand(w)
        assert got == reference_expand(pres, w)
        assert is_reduced(got)

    @pytest.mark.parametrize("xyp", [(2, 3, 2), (11, 13, 9)])
    def test_expand_cancels_across_junctions(self, xyp):
        # muC^(pq-1) lamC = muC^-1 t^p: the pq-1 copies of muC cancel against lamC
        pres = cable_presentation(*xyp)
        pq = pres.p * pres.q
        w = Word.from_pairs([(MUC, pq - 1), (LAMC, 1)])
        got = pres.expand(w)
        assert got == reference_expand(pres, w)
        assert got == concat(invert(pres.expand(Word.single(MUC))), Word.single("t", pres.p))
        assert is_reduced(got)

    @pytest.mark.parametrize("exponent", [10_000, -10_000])
    def test_a_power_of_a_name_expands_its_definition_once(self, monkeypatch, exponent):
        # a work count: muC^N becomes (a^2 t^-1)^N from one expansion of
        # muC's definition, not from N copies of mu^6 lam t^-1 whose lam is
        # substituted copy by copy, so it takes as many powers and joins as muC
        calls = []
        real_power, real_concat = presentations.power, presentations.concat
        monkeypatch.setattr(presentations, "power", lambda w, n: calls.append("power") or real_power(w, n))
        monkeypatch.setattr(presentations, "concat", lambda *ws: calls.append("concat") or real_concat(*ws))
        pres = cable_presentation(2, 3, 2)
        pres.expand(Word.from_pairs([(MUC, 1), ("t", 3)]))
        once = len(calls)
        calls.clear()
        w = Word.from_pairs([(MUC, exponent), ("t", 3)])
        assert pres.expand(w) == reference_expand(pres, w)
        assert len(calls) == once < 20

    def test_cold_build_feeds_the_full_reducer_little(self, monkeypatch):
        # a work count, not a timing: building (11, 13, 9) with full reduction
        # of every power and concatenation feeds _reduce 117,252 syllables;
        # the build writes each word from its syllables, which are reduced,
        # so it calls _reduce not at all
        seen = []
        reduce = words._reduce

        def counting(pairs):
            pairs = list(pairs)
            seen.append(len(pairs))
            return reduce(pairs)

        monkeypatch.setattr(words, "_reduce", counting)
        torus_presentation.cache_clear()
        cable_presentation.cache_clear()
        cable_presentation(11, 13, 9)
        assert seen == []
        assert sum(seen) < 1_000

    @pytest.mark.parametrize("xyp", [(2, 3, 50), (1000, 1001, 2)], ids=["x2_y3_p50", "x1000_y1001_p2"])
    def test_certify_and_replay_never_spell_lamc(self, monkeypatch, xyp):
        # a work count, not a timing: lamC's spelling is muC^-pq t^p, 29,901
        # syllables at (2, 3, 50), and lam's is mu^-xy a^x, 2,002,001 at
        # (1000, 1001, 2); a cold build that spelled either, or an expand
        # that went through one, would make a power at least pq or xy long
        built = []
        real_power = presentations.power

        def counting(w, n):
            out = real_power(w, n)
            built.append(len(out))
            return out

        monkeypatch.setattr(presentations, "power", counting)
        monkeypatch.setattr(derivations, "power", counting)
        torus_presentation.cache_clear()
        cable_presentation.cache_clear()
        pres = cable_presentation(*xyp)
        pq = pres.p * pres.q
        cert = certify_slope(*xyp, Slope(2 * pq - 1, 2))
        assert not isinstance(cert, Inconclusive) and replay(cert)
        assert cert.entries[2].equation.lhs.syllables == ((MUC, pq - 1), (LAMC, 1))
        assert max(built) < 1_000 and sum(built) < 5_000

    @pytest.mark.parametrize("xyp", [(2, 3, 50), (1000, 1001, 2)], ids=["x2_y3_p50", "x1000_y1001_p2"])
    def test_replay_spells_no_name_when_a_row_cites_the_endpoint_product(self, monkeypatch, xyp):
        # a work count, not a timing: replay reads the side muC^(pq-1) lamC
        # of a row retargeted to it as written and refuses it for its names;
        # spelling the names would build lamC's and lam's spellings, powers
        # at least pq or xy long
        built = []
        real_power = presentations.power

        def counting(w, n):
            out = real_power(w, n)
            built.append(len(out))
            return out

        monkeypatch.setattr(presentations, "power", counting)
        monkeypatch.setattr(derivations, "power", counting)
        torus_presentation.cache_clear()
        cable_presentation.cache_clear()
        pres = cable_presentation(*xyp)
        pq = pres.p * pres.q
        cert = certify_slope(*xyp, Slope(2 * pq - 1, 2))
        assert not isinstance(cert, Inconclusive)
        endpoint = cert.entries[2].equation
        assert endpoint.provenance == "cable_endpoint_product"
        assert endpoint.lhs.syllables == ((MUC, pq - 1), (LAMC, 1))
        rows = list(cert.refutations)
        k = next(k for k, row in enumerate(rows) if row.equation_id is not None)
        rows[k] = rows[k]._replace(equation_id="cable_endpoint_product")
        report = replay(cert._replace(refutations=tuple(rows)))
        assert max(built) < 1_000 and sum(built) < 5_000
        assert report.problems == [
            "equation 'cable_endpoint_product' is not over a, b and t: the letter 'muC' is not a, b or t",
            "1 refutation row(s) cite equation 'cable_endpoint_product', which is not over a, b and t",
        ]
