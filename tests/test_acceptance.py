"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The two theorem grids cover all coprime pairs
2 <= x < y <= 7 with p in {2,3,4,5}.
"""

import json
import random
import time
from contextlib import contextmanager
from math import gcd

from cable_order.cli import main
from cable_order.derivations import check_script
from cable_order.normal_form import eliminate_t, equal_in_torus_group, genus, lspace_window_check, normal_form
from cable_order.obstruction import (
    Inconclusive,
    ObstructionCertificate,
    SignAssignment,
    certificate_from_json_dict,
    refute_all,
    replay,
)
from cable_order.presentations import bezout_torus, cable_presentation
from cable_order.proofs import cable_t_power_script, central_relation_script, certify_slope
from cable_order.slopes import Slope, beta_slope, cramer
from cable_order.words import Word
from helpers import (
    apply_mutation,
    enumerate_mutation_sites,
    random_licensed_move,
    random_word,
)

GRID_PAIRS = [(x, y) for x in range(2, 7) for y in range(x + 1, 8) if gcd(x, y) == 1]
GRID_P = (2, 3, 4, 5)
BETA_MAX = 25


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_discrete_slope_grid(tmp_path):
    desc = f"certify --beta and replay succeed on the full grid, beta 1..{BETA_MAX}"
    with criterion(1, desc):
        total_started = time.perf_counter()
        slowest = 0.0
        count = 0
        cert_path = tmp_path / "cert.json"
        for x, y in GRID_PAIRS:
            for p in GRID_P:
                for beta in range(1, BETA_MAX + 1):
                    args = [
                        "certify", "--x", str(x), "--y", str(y), "--p", str(p),
                        "--beta", str(beta), "--json", str(cert_path),
                    ]
                    started = time.perf_counter()
                    assert main(args) == 0, (x, y, p, beta)
                    elapsed = time.perf_counter() - started
                    slowest = max(slowest, elapsed)
                    assert elapsed < 1.0, f"certification took {elapsed:.2f}s at {(x, y, p, beta)}"
                    assert main(["replay", str(cert_path)]) == 0, (x, y, p, beta)
                    count += 1
        total = time.perf_counter() - total_started
        assert total < 300.0, f"grid took {total:.0f}s"
        print(f"  {count} certificates, slowest {slowest * 1000:.0f}ms, total {total:.0f}s")


def test_criterion_2_slope_window_grid():
    desc = "endpoints and interior slopes all certify with valid determinant data"
    with criterion(2, desc):
        count = 0
        for x, y in GRID_PAIRS:
            for p in GRID_P:
                q = p * x * y - 1
                pq = p * q
                low, high = Slope(pq - 1, 1), Slope(pq, 1)
                slopes = {low, high, Slope(2 * pq - 1, 2), Slope(3 * pq - 2, 3)}
                slopes.update(beta_slope(p, q, beta) for beta in range(1, BETA_MAX + 1))
                for slope in slopes:
                    cert = certify_slope(x, y, p, slope)
                    assert isinstance(cert, ObstructionCertificate), (x, y, p, str(slope))
                    assert replay(cert), (x, y, p, str(slope))
                    if slope in (low, high):
                        assert cert.cramer_data is None
                    else:
                        c = cert.cramer_data
                        assert c is not None and c.d0 > 0 and c.d1 > 0 and c.d > 0
                        assert 1 * c.d0 + 1 * c.d1 == slope.n * c.d
                        assert (pq - 1) * c.d0 + pq * c.d1 == slope.m * c.d
                    count += 1
        print(f"  {count} slope certificates verified")


def test_criterion_3_t_power_oracle_equivalence():
    desc = "t^p elimination equals a^(xp-i) b^(-j) under the normal form, exactly"
    with criterion(3, desc):
        for x, y in GRID_PAIRS:
            for p in GRID_P:
                pres = cable_presentation(x, y, p)
                i, j = bezout_torus(x, y)
                lhs = eliminate_t(Word.single("t", p), pres)
                rhs = Word.from_pairs([("a", x * p - i), ("b", -j)])
                assert equal_in_torus_group(lhs, rhs, x, y), (x, y, p)


def test_criterion_4_normal_form_soundness_fuzz():
    desc = "10^4 random words x 50 licensed relation moves leave normal forms unchanged"
    with criterion(4, desc):
        rng = random.Random(0xC0FFEE)
        pairs = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 7), (5, 6)]
        failures = 0
        for trial in range(10_000):
            x, y = pairs[trial % len(pairs)]
            w = random_word(rng, max_syllables=8, max_exp=6)
            reference = normal_form(w, x, y)
            check_each_move = trial < 500
            for _ in range(50):
                w = random_licensed_move(w, x, y, rng)
                if check_each_move and normal_form(w, x, y) != reference:
                    failures += 1
            if normal_form(w, x, y) != reference:
                failures += 1
        assert failures == 0


def test_criterion_5_cramer_identity_suite():
    desc = "1000 bracketed slope triples: exact identities and determinant positivity"
    with criterion(5, desc):
        rng = random.Random(515)

        def rand_slope():
            while True:
                m, n = rng.randint(-200, 200), rng.randint(1, 12)
                if gcd(m, n) == 1:
                    return Slope(m, n)

        inside = 0
        while inside < 1000:
            trio = sorted({rand_slope(), rand_slope(), rand_slope()})
            if len(trio) < 3:
                continue
            s0, s, s1 = trio
            t = cramer(s0, s1, s)
            assert s0.n * t.d0 + s1.n * t.d1 == s.n * t.d
            assert s0.m * t.d0 + s1.m * t.d1 == s.m * t.d
            assert t.d0 > 0 and t.d1 > 0 and t.d > 0
            # s below the bracket: the d1 determinant loses positivity
            below = cramer(s, s1, s0)
            assert below.d1 <= 0
            # s above the bracket: the d0 determinant loses positivity
            above = cramer(s0, s, s1)
            assert above.d0 <= 0
            inside += 1


def test_criterion_6_window_identity():
    desc = "2*genus - 1 == (pq-1) - [p(x+y)-2] exactly on the 2<=x<y<=9, p<=6 grid"
    with criterion(6, desc):
        rep = lspace_window_check(2, 3, 2)
        assert rep.two_g_minus_1 == 13 and rep.window_low_gap == 8  # 13 = 21 - 8
        for x in range(2, 10):
            for y in range(x + 1, 10):
                if gcd(x, y) != 1:
                    continue
                for p in range(2, 7):
                    rep = lspace_window_check(x, y, p)
                    assert rep.ok, (x, y, p)
                    g = genus(x, y, p, p * x * y - 1)
                    assert 2 * g - 1 == (p * rep.q - 1) - (p * (x + y) - 2)


def test_criterion_7_soundness_negative_control():
    desc = "without the surgery relator the engine stays inconclusive (all-pos survives)"
    with criterion(7, desc):
        for x, y, p in [(2, 3, 2), (3, 5, 2), (2, 5, 4)]:
            pres = cable_presentation(x, y, p)
            env = {}
            eqs = []
            for factory in (central_relation_script, cable_t_power_script):
                s = factory(pres).script
                eq = check_script(s, pres, env)
                env[s.script_id] = eq
                eqs.append(eq)
            result = refute_all(eqs, pres, None)
            assert isinstance(result, Inconclusive), (x, y, p)
            assert SignAssignment("pos", "pos", "pos") in result.survivors


def test_criterion_8_tamper_resistance():
    desc = "every single-field certificate mutation is detected on replay (>=100 trials)"
    with criterion(8, desc):
        from cable_order.proofs import certify_beta

        rng = random.Random(8)
        docs = [
            certify_beta(2, 3, 2, 1).to_json_dict(),
            certify_slope(2, 3, 2, Slope(43, 2)).to_json_dict(),
            certify_beta(3, 4, 2, 2).to_json_dict(),
        ]
        kinds_seen = set()
        trials = 0
        for doc in docs:
            sites = enumerate_mutation_sites(doc)
            assert len(sites) >= 40
            picked = rng.sample(sites, 40)
            for site in picked:
                mutated = apply_mutation(doc, site, rng)
                kinds_seen.add(site[1])
                try:
                    cert = certificate_from_json_dict(mutated)
                except (ValueError, KeyError, TypeError):
                    trials += 1  # malformed after tampering: detected at load
                    continue
                report = replay(cert)
                assert not report, f"mutation survived replay: {site}"
                trials += 1
        assert trials >= 120
        assert {"int", "sign", "word"} <= kinds_seen
        print(f"  {trials} mutations, kinds {sorted(kinds_seen)}")
