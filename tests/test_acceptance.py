"""Acceptance gate: eight criteria, one pass/fail line each.

Criteria 1 and 3-7 are rows of GATE, run by one parametrized test
(`test_criterion[n]`): each names its rows of the `verify` reference table,
which run by id through run_check over the session's one p < 16000 build,
its budget, and its PASS text. That build's time counts in full against the
two criteria whose budgets cover a sieve (3 and 4). An id missing from the
table fails collection. Criterion 2 adds the exact-rational gcds and the
clean progressions below its two indices, and criterion 8 runs the property
suites, which no module test repeats. Budgets are generous wall-clock
bounds; the numpy sieve kernel fits inside every one of them.
"""

import itertools
import math
import random
import time

import pytest

from bernpairs.arith import primes_below
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
from bernpairs.pairs import build_database, lift, load_database, save_database
from bernpairs.verify import CHECKS, run_check

from test_bernoulli import exact_divided

_ROWS = {c.id: c for c in CHECKS}
assert len(_ROWS) == len(CHECKS), "duplicate CHECKS ids"

# criterion: its CHECKS row ids, budget in seconds, whether the budget is
# charged the db16000 build, and its PASS text
GATE = {
    1: (("sequence/a092291",), 5, False,
        "A(p)/2 sequence for first seven irregular primes"),
    3: (("exceptions/first",), 900, True,
        "sole exception below 6500 is (6449,4884) with witness (257,164)"),
    4: (("exceptions/five-rows",), 7200, True, "all five exceptions below 16000 match"),
    5: (("minimum/2-seeded",), 1800, False,
        "M_2=107430 at c=103*149 with 272876 in the search log"),
    6: (("joint-index/37-59-101", "joint-index/157-401-1217"), 60, False,
        "both three-prime joint indices match"),
    7: (("lift/353-186", "lift/647-554", "scan/order2-1000"), 1200, False,
        "no special order-2 pair below 1000, min |s1-s2| = 4"),
}
_unknown = {i for ids, *_ in GATE.values() for i in ids} - _ROWS.keys()
assert not _unknown, f"GATE names unknown CHECKS ids {sorted(_unknown)}"


@pytest.mark.parametrize("n", sorted(GATE))
def test_criterion(n, verify_ctx, db16000_build_seconds):
    ids, budget, charged, text = GATE[n]
    t0 = time.monotonic()
    failed = {i: run_check(_ROWS[i], verify_ctx) for i in ids}
    assert {i: why for i, why in failed.items() if why is not None} == {}
    elapsed = time.monotonic() - t0 + (db16000_build_seconds if charged else 0)
    assert elapsed < budget
    sieve = " including the sieve" if charged else ""
    print(f"CRITERION {n} PASS: {text} ({elapsed:.2f}s{sieve})")


def test_criterion_2_exact_ground_truth(verify_ctx):
    t0 = time.monotonic()
    assert math.gcd(numerator_pair(1148)[0], 1147) == 37
    assert math.gcd(numerator_pair(2538)[0], 2537) == 59
    assert run_check(_ROWS["ratio/1148"], verify_ctx) is None
    assert run_check(_ROWS["ratio/2538"], verify_ctx) is None
    for m in range(32, 1148, 36):
        assert verify_ratio(m) != 37, f"ratio hit 37 early at m={m}"
    for m in range(44, 2538, 58):
        assert verify_ratio(m) != 59, f"ratio hit 59 early at m={m}"
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(
        f"CRITERION 2 PASS: A(37)=1148 and A(59)=2538 from exact rationals "
        f"and residues, progressions clean below ({elapsed:.2f}s)"
    )


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
        assert divided_bernoulli_mod_pk(n, p, 1) == exact_divided(n2, p, 1)
    for _ in range(20):
        p = rng.choice([5, 7, 11, 13])
        phi = p * (p - 1)
        n = rng.randrange(4, 900, 2)
        if n % (p - 1) == 0:
            continue
        n2 = n + phi
        pk = p * p
        w = divided_bernoulli_mod_pk(n, p, 2)
        w2 = exact_divided(n2, p, 2)
        e = (1 - pow(p, n - 1, pk)) % pk
        e2 = (1 - pow(p, n2 - 1, pk)) % pk
        assert w * e % pk == w2 * e2 % pk


def _suite_progression_divisibility(db200, db400):
    # computed at the shifted index itself (no class reduction), so each k
    # is an independent divisibility fact
    for q in db200.all_pairs():
        for k in range(4):
            assert divided_bernoulli_mod_pk(q.l + k * (q.p - 1), q.p, 1) == 0
    for q in db400.all_pairs():
        l2 = lift(q, 2).index
        phi2 = q.p * (q.p - 1)
        for k in (0, 1):
            assert divided_bernoulli_mod_pk(l2 + k * phi2, q.p, 2) == 0


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


def _suite_m_s_range(db160):
    seen = 0
    for a, b in itertools.combinations(db160.all_pairs(), 2):
        if a.p == b.p or not is_strong_friendly([a, b]):
            continue
        m = joint_index([a, b])
        assert a.p * b.p <= m - 1 <= math.lcm(a.p * (a.p - 1), b.p * (b.p - 1))
        seen += 1
    assert seen >= 10


def _suite_lambda_lower_bound(db160):
    # a joint index for c is a candidate for every prime dividing c
    for c in (37 * 59, 103 * 149, 37 * 101, 59 * 131, 37 * 59 * 101):
        res = lambda_composite(c, db160)
        if res.value == math.inf:
            continue
        for p in {q.p for q in res.pairs}:
            assert res.value >= lambda_prime(p, db160)


def _suite_ratio_gcd_identity():
    # residue route against gcd(num(B_m/m), m-1) from exact rationals
    # (dividing by m-1 strips only factors shared with m-1)
    for m in range(2, 1402, 2):
        n1, _ = numerator_pair(m)
        assert verify_ratio(m) == math.gcd(n1, m - 1)


def _suite_database_roundtrip(tmp_dir):
    one = build_database(400, jobs=1)
    two = build_database(400, jobs=2)
    assert one == two
    f1 = tmp_dir / "one.txt"
    f2 = tmp_dir / "two.txt"
    save_database(one, str(f1))
    save_database(two, str(f2))
    assert f1.read_bytes() == f2.read_bytes()
    assert load_database(str(f1)) == one


def test_criterion_8_property_suites(tmp_path, db160, db200, db400):
    suites = [
        ("kummer-congruences", _suite_kummer_congruences),
        ("progression-divisibility", lambda: _suite_progression_divisibility(db200, db400)),
        ("von-staudt-clausen", _suite_von_staudt_clausen),
        ("crt-brute-force", _suite_crt_brute_force),
        ("m_s-range-bound", lambda: _suite_m_s_range(db160)),
        ("lambda-lower-bound", lambda: _suite_lambda_lower_bound(db160)),
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
