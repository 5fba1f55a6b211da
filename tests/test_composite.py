"""Joint indices over pair sets: CRT with non-coprime moduli, friendliness,
lambda values for composite moduli, and the minimal joint-index search."""

import math
import random

import pytest

from bernpairs.arith import factorize
from bernpairs.bernoulli import divided_bernoulli_mod_pk
from bernpairs.composite import (
    CrtSolution,
    LambdaResult,
    MnResult,
    crt_solve,
    is_friendly,
    is_strong_friendly,
    joint_index,
    lambda_composite,
    lambda_prime,
    lambda_prime_power,
    minimal_composite,
)
from bernpairs.errors import NotIrregular, NotStrongFriendly
from bernpairs.pairs import IrregularPair, PairDatabase
from bernpairs.verify import MN2_SEARCH


def P(p, l):
    return IrregularPair(p, l)


# ---------------------------------------------------------------- crt_solve


def test_crt_examples():
    sol = crt_solve([(2, 4), (4, 6)])
    assert sol == CrtSolution(10, 12)
    assert crt_solve([(0, 3), (1, 6)]) is None
    assert crt_solve([(5, 7)]) == CrtSolution(5, 7)


def test_crt_textbook_construction_when_coprime():
    # classic coefficients b_i = (W/w_i)^(-1) mod w_i reproduce the answer
    rng = random.Random(20260816)
    primes = [3, 5, 7, 11, 13, 17]
    for _ in range(200):
        mods = rng.sample(primes, rng.randint(2, 4))
        rows = [(rng.randrange(m), m) for m in mods]
        W = math.prod(mods)
        x = (
            sum(a * (W // m) * pow(W // m, -1, m) for a, m in rows)
            % W
        )
        assert crt_solve(rows) == CrtSolution(x, W)


def test_crt_validation():
    with pytest.raises(ValueError):
        crt_solve([(1, 0)])


# ------------------------------------------------------- friendliness tests


def test_strong_friendly_known_sets():
    assert is_strong_friendly([P(37, 32), P(59, 44)])
    assert is_strong_friendly([P(103, 24), P(149, 130)])
    assert not is_strong_friendly([P(37, 32), P(67, 58)])
    assert not is_friendly([P(37, 32), P(67, 58)])


def test_friendly_but_not_strong(db6500):
    # p_i ≡ 1 (mod p_j) with l_i not ≡ 1: friendly, yet no joint solution
    l607 = db6500.pairs_for(607)[0].l
    assert 263 % 131 == 1 and 607 % 101 == 1
    for pair_set in ([P(101, 68), P(607, l607)], [P(131, 22), P(263, 100)]):
        with pytest.raises(NotStrongFriendly):
            joint_index(pair_set)


def test_second_disjunct_synthetic():
    # shape-valid pairs chosen purely for their congruences
    assert is_strong_friendly([P(11, 6), P(5, 2)])  # 11 ≡ 1, 6 ≡ 1 (mod 5)
    assert is_friendly([P(11, 8), P(5, 2)])
    assert not is_strong_friendly([P(11, 8), P(5, 2)])  # 8 not ≡ 1 (mod 5)


def test_set_validation():
    with pytest.raises(ValueError):
        is_friendly([])
    with pytest.raises(ValueError):
        is_strong_friendly([P(157, 62), P(157, 110)])  # same prime twice


# ------------------------------------------------------------- joint_index


def test_joint_index_congruences(db1000):
    # m-1 divisible by every p, m in the right class mod every p-1, minimal
    pairs = [P(37, 32), P(59, 44)]
    m = joint_index(pairs)
    lcm = math.lcm(*(q.p * (q.p - 1) for q in pairs))
    for q in pairs:
        assert (m - 1) % q.p == 0
        assert (m - q.l) % (q.p - 1) == 0
    assert 1 <= m <= lcm


def test_joint_index_minimality_brute():
    pairs = [P(11, 6), P(5, 2)]
    m = joint_index(pairs)
    hits = [
        x
        for x in range(1, math.lcm(110, 20) + 1)
        if all((x - 1) % q.p == 0 and (x - q.l) % (q.p - 1) == 0 for q in pairs)
    ]
    assert hits[0] == m


# ------------------------------------------------------------ lambda values


def test_lambda_prime(db160):
    with pytest.raises(NotIrregular):
        lambda_prime(41, db160)


def test_lambda_prime_power_infinite(db160):
    for p in (37, 59, 67, 101):
        res = lambda_prime_power(p, 2, db160)
        assert isinstance(res, LambdaResult)
        assert res.c == p * p
        assert res.value == math.inf
        assert res.pairs is None
        assert not res.finite
        assert res.exact


def test_lambda_prime_power_r1_matches_prime(db160):
    res = lambda_prime_power(37, 1, db160)
    assert res.value == lambda_prime(37, db160)
    assert res.pairs == (P(37, 32),)
    assert res.finite and res.exact


def test_lambda_composite_squarefree(db1000):
    # the value, Infinity, is row lambda/131x263
    res = lambda_composite(131 * 263, db1000)
    assert res.pairs is None
    assert res.exact


def test_lambda_composite_prime_power_passthrough(db160):
    assert lambda_composite(37**2, db160) == lambda_prime_power(37, 2, db160)
    assert lambda_composite(37, db160).value == 1148


def test_lambda_composite_mixed_exponents(db1000):
    res = lambda_composite(37**2 * 59, db1000)
    assert res.value == math.inf
    assert res.exact  # inf is exact: one impossible factor blocks the rest
    assert res.note != ""


def test_lambda_composite_validation(db160):
    with pytest.raises(ValueError):
        lambda_composite(1, db160)
    with pytest.raises(NotIrregular):
        lambda_composite(41 * 37, db160)


def test_joint_index_semantic_soundness():
    # the minimal index really exhibits divisibility for both primes
    m = 272876
    assert (m - 1) % 2183 == 0
    assert divided_bernoulli_mod_pk(m, 37, 1) == 0
    assert divided_bernoulli_mod_pk(m, 59, 1) == 0


# -------------------------------------------------------- minimal_composite


def _pair_set(pairs):
    return set((q.p, q.l) for q in pairs)


def test_minimal_composite_seeded(mn2_result):
    r = mn2_result
    assert isinstance(r, MnResult)
    assert r.n == 2
    assert [e.bound_after for e in r.log] == [e.value for e in r.log]
    # prefix primes are sieved only to the final root + 1; the largest prime
    # is never sieved
    assert r.sieved_to == 328
    # one progression per prefix pair with p <= 327: 9 below 160, 8 above
    assert r.sets_checked == 17


def test_minimal_composite_unbounded_agrees(mn2_result, db160):
    # u0=None is row minimum/2-unbounded; an infinite bound is the same search
    r = minimal_composite(2, math.inf, db160, jobs=1)
    assert (r.value, r.c, r.pairs) == (mn2_result.value, mn2_result.c, mn2_result.pairs)


def test_minimal_composite_shuffled_input(mn2_result, db160):
    # entry insertion order must not affect anything
    rng = random.Random(99)
    ps = db160.irregular_primes()
    rng.shuffle(ps)
    entries = {
        p: [(q.l, None) for q in reversed(db160.pairs_for(p))] for p in ps
    }
    shuffled = PairDatabase(160, entries)
    assert shuffled == db160
    r = minimal_composite(2, MN2_SEARCH["u0"], shuffled, jobs=1)
    assert (r.value, r.c, r.pairs, r.sieved_to, r.sets_checked) == (
        mn2_result.value,
        mn2_result.c,
        mn2_result.pairs,
        mn2_result.sieved_to,
        mn2_result.sets_checked,
    )


def test_minimal_composite_extends_one_prime_at_a_time():
    # no seed pairs and no bound: primes are sieved singly up to 37, whose
    # walk sets U, and the gap below U^(1/2) is then sieved at once
    r = minimal_composite(2, None, PairDatabase(10), jobs=1)
    assert (r.value, _pair_set(r.pairs)) == (
        MN2_SEARCH["value"],
        set(MN2_SEARCH["pairs"]),
    )
    assert [e.value for e in r.log] == [v for v, _root, _ps in MN2_SEARCH["log"]]


def test_minimal_composite_agrees_with_index_scan(db6500):
    # an independent route to the reference M_2: scan every even m and count
    # the primes q | m-1 whose pair (q, m mod (q-1)) a sieve row produced
    # (Kummer). A 2-set below 107431 has q_1 >= 37, so q_2 < 107431/37 < 6500
    # and db6500 covers both.
    bound = 107431
    assert bound // 37 < db6500.max_p
    pairs = set((q.p, q.l) for q in db6500.all_pairs())
    first = None
    for m in range(2, bound, 2):
        hits = [q for q, _e in factorize(m - 1) if (q, m % (q - 1)) in pairs]
        if len(hits) >= 2:
            first = (m, hits)
            break
    assert first == (MN2_SEARCH["value"], [p for p, _l in MN2_SEARCH["pairs"]])


def test_minimal_composite_bound_too_tight(db160):
    with pytest.raises(ValueError):
        minimal_composite(2, 1000, db160, jobs=1)


def test_minimal_composite_validation(db160):
    with pytest.raises(ValueError):
        minimal_composite(1, None, db160)
    with pytest.raises(ValueError):
        minimal_composite(2, 2, db160)
    with pytest.raises(ValueError):
        minimal_composite(2, 107430.5, db160)
