"""Acceptance gate: eight criteria, one pass/fail line each.

Each criterion is a single test. Criteria 1 and 3-7 run their rows of the
`verify` reference table by id through run_check, over the session's shared
p < 6500 and p < 16000 builds; each build's time counts against the
criterion whose budget covers that sieve (3 and 4). Criteria 2 and 8 compute
their own facts. Budgets are asserted with generous wall-clock bounds; the
numpy sieve kernel fits inside every one of them.
"""

import math
import random
import time

import pytest

from bernpairs.arith import primes_below, rational_mod
from bernpairs.bernoulli import (
    bernoulli_exact,
    divided_bernoulli_mod_pk,
    numerator_pair,
)
from bernpairs.composite import (
    crt_solve,
    is_strong_friendly,
    joint_index,
    lambda_composite,
    lambda_prime,
)
from bernpairs.conjecture import verify_ratio
from bernpairs.pairs import build_database, lift
from bernpairs.verify import CHECKS, run_check

_ROWS = {c.id: c for c in CHECKS}


def _run_rows(ctx, *ids):
    failed = {i: run_check(_ROWS[i], ctx) for i in ids}
    assert {i: why for i, why in failed.items() if why is not None} == {}


def test_criterion_1_sequence_reproduction(verify_ctx):
    t0 = time.monotonic()
    _run_rows(verify_ctx, "sequence/a092291")
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    print(
        f"CRITERION 1 PASS: A(p)/2 sequence for first seven irregular primes "
        f"({elapsed:.2f}s)"
    )


def test_criterion_2_exact_ground_truth():
    t0 = time.monotonic()
    assert math.gcd(numerator_pair(1148)[0], 1147) == 37
    assert math.gcd(numerator_pair(2538)[0], 2537) == 59
    assert verify_ratio(1148) == 37
    for m in range(32, 1148, 36):
        assert verify_ratio(m) != 37, f"ratio hit 37 early at m={m}"
    assert verify_ratio(2538) == 59
    for m in range(44, 2538, 58):
        assert verify_ratio(m) != 59, f"ratio hit 59 early at m={m}"
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(
        f"CRITERION 2 PASS: A(37)=1148 and A(59)=2538 from exact rationals "
        f"and residues, progressions clean below ({elapsed:.2f}s)"
    )


def test_criterion_3_first_counterexample(verify_ctx, db6500_build_seconds):
    t0 = time.monotonic()
    assert 4883 * 6449 % 256 == 163
    _run_rows(verify_ctx, "exceptions/first")
    elapsed = time.monotonic() - t0 + db6500_build_seconds
    assert elapsed < 900
    print(
        f"CRITERION 3 PASS: sole exception below 6500 is (6449,4884) with "
        f"witness (257,164) ({elapsed:.2f}s including the sieve)"
    )


@pytest.mark.extended
def test_criterion_4_five_row_table(verify_ctx16000, db16000_build_seconds):
    t0 = time.monotonic()
    _run_rows(verify_ctx16000, "exceptions/five-rows")
    elapsed = time.monotonic() - t0 + db16000_build_seconds
    assert elapsed < 7200
    print(
        f"CRITERION 4 PASS: all five exceptions below 16000 match "
        f"({elapsed:.2f}s including the sieve)"
    )


def test_criterion_5_composite_minimum(verify_ctx):
    t0 = time.monotonic()
    _run_rows(verify_ctx, "minimum/2-seeded")
    elapsed = time.monotonic() - t0
    assert elapsed < 1800
    print(
        f"CRITERION 5 PASS: M_2=107430 at c=103*149 with 272876 in the "
        f"search log ({elapsed:.2f}s)"
    )


def test_criterion_6_order3_candidates(verify_ctx):
    t0 = time.monotonic()
    _run_rows(verify_ctx, "joint-index/37-59-101", "joint-index/157-401-1217")
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(
        f"CRITERION 6 PASS: both three-prime joint indices match "
        f"({elapsed:.2f}s)"
    )


def test_criterion_7_order2_lifts(verify_ctx):
    t0 = time.monotonic()
    _run_rows(verify_ctx, "lift/353-186", "lift/647-554", "scan/order2-1000")
    elapsed = time.monotonic() - t0
    assert elapsed < 1200
    print(
        f"CRITERION 7 PASS: no special order-2 pair below 1000, "
        f"min |s1-s2| = 4 ({elapsed:.2f}s)"
    )


def _exact_divided(n, p, k):
    return rational_mod(bernoulli_exact(n) / n, p**k).value


def _divided(n, p, k):
    return divided_bernoulli_mod_pk(n, p, k).value


def _suite_kummer_congruences():
    rng = random.Random(37)
    ps = [p for p in primes_below(51) if p >= 5]
    for _ in range(100):
        p = rng.choice(ps)
        n = rng.randrange(4, 1000, 2)
        if n % (p - 1) == 0:
            continue
        t = rng.randint(1, (1180 - n) // (p - 1))
        n2 = n + t * (p - 1)
        # cross-route: Faulhaber at n, exact rationals at the shifted index
        assert _divided(n, p, 1) == _exact_divided(n2, p, 1)
    for _ in range(20):
        p = rng.choice([5, 7, 11, 13])
        phi = p * (p - 1)
        n = rng.randrange(4, 900, 2)
        if n % (p - 1) == 0:
            continue
        n2 = n + phi
        pk = p * p
        w = _divided(n, p, 2)
        w2 = _exact_divided(n2, p, 2)
        e = (1 - pow(p, n - 1, pk)) % pk
        e2 = (1 - pow(p, n2 - 1, pk)) % pk
        assert w * e % pk == w2 * e2 % pk


def _suite_progression_divisibility():
    # computed at the shifted index itself (no class reduction), so each k
    # is an independent divisibility fact
    db = build_database(200, jobs=1)
    for q in db.all_pairs():
        for k in range(4):
            assert _divided(q.l + k * (q.p - 1), q.p, 1) == 0
    db400 = build_database(400, jobs=1)
    for q in db400.all_pairs():
        l2 = lift(q, 2).index
        phi2 = q.p * (q.p - 1)
        for k in (0, 1):
            assert _divided(l2 + k * phi2, q.p, 2) == 0


def _suite_von_staudt_clausen():
    for n in range(2, 202, 2):
        expect = 1
        for q in primes_below(n + 2):
            if n % (q - 1) == 0:
                expect *= q
        assert bernoulli_exact(n).denominator == expect


def _suite_crt_brute_force():
    rng = random.Random(2279052)
    for _ in range(500):
        rows = [
            (rng.randrange(m), m)
            for m in (rng.randint(2, 24) for _ in range(rng.randint(2, 3)))
        ]
        lcm = math.lcm(*(m for _, m in rows))
        sol = crt_solve(rows)
        hits = [x for x in range(lcm) if all(x % m == a for a, m in rows)]
        if sol is None:
            assert hits == []
        else:
            assert hits == [sol.residue] and sol.modulus == lcm


def _suite_m_s_range():
    import itertools

    db = build_database(160, jobs=1)
    pairs = list(db.all_pairs())
    seen = 0
    for a, b in itertools.combinations(pairs, 2):
        if a.p == b.p or not is_strong_friendly([a, b]):
            continue
        m = joint_index([a, b])
        assert a.p * b.p <= m - 1 <= math.lcm(a.p * (a.p - 1), b.p * (b.p - 1))
        seen += 1
    assert seen >= 10


def _suite_lambda_lower_bound():
    db = build_database(160, jobs=1)
    for c in (37 * 59, 103 * 149, 37 * 101, 59 * 131):
        res = lambda_composite(c, db)
        if res.value == math.inf:
            continue
        for p in {q.p for q in res.pairs}:
            assert res.value >= lambda_prime(p, db)


def _suite_ratio_gcd_identity():
    # residue route against exact rationals
    for m in range(2, 1402, 2):
        n1, _ = numerator_pair(m)
        assert verify_ratio(m) == math.gcd(n1, m - 1)


def _suite_database_roundtrip(tmp_dir):
    one = build_database(400, jobs=1)
    two = build_database(400, jobs=2)
    assert one == two
    f1 = tmp_dir / "one.txt"
    f2 = tmp_dir / "two.txt"
    one.save(str(f1))
    two.save(str(f2))
    assert f1.read_bytes() == f2.read_bytes()
    assert one.load(str(f1)) == one


def test_criterion_8_property_suites(tmp_path):
    suites = [
        ("kummer-congruences", _suite_kummer_congruences),
        ("progression-divisibility", _suite_progression_divisibility),
        ("von-staudt-clausen", _suite_von_staudt_clausen),
        ("crt-brute-force", _suite_crt_brute_force),
        ("m_s-range-bound", _suite_m_s_range),
        ("lambda-lower-bound", _suite_lambda_lower_bound),
        ("ratio-gcd-identity", _suite_ratio_gcd_identity),
        ("database-roundtrip", lambda: _suite_database_roundtrip(tmp_path)),
    ]
    timings = []
    for name, fn in suites:
        t0 = time.monotonic()
        fn()
        elapsed = time.monotonic() - t0
        assert elapsed < 120, f"suite {name} took {elapsed:.1f}s"
        timings.append(f"{name} {elapsed:.1f}s")
    print("CRITERION 8 PASS: " + ", ".join(timings))
