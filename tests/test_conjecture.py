"""Minimal ratio indices: candidates, witnesses, exceptions, prime powers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernpairs.composite import lambda_prime
from bernpairs.conjecture import a_value, a_value_prime_power, find_exceptions, verify_ratio
from bernpairs.pairs import IrregularPair, OrderedPair
from bernpairs.verify import EXCEPTION_ROWS


def test_ratio_frozen_values():
    assert verify_ratio(2) == 1
    assert verify_ratio(2370) == 103


def test_ratio_validation():
    for m in (7, 0):
        with pytest.raises(ValueError):
            verify_ratio(m)


def test_minimal_ratio_index_by_brute_force(db400):
    # p | ratio forces p | m-1, so scan even m ≡ 1 (mod p) upwards for the
    # first ratio divisible by p; no candidate formula or witness test is used
    for p in db400.irregular_primes():
        m = p + 1
        while verify_ratio(m) % p:
            m += 2 * p
        assert m == lambda_prime(p, db400)


def test_a_value_examples(db160):
    res = a_value(IrregularPair(157, 62), db160)
    assert res.m == 61 * 157 + 1 == 9578
    assert res.valid


def test_a_value_candidate_congruences(db1000):
    # m = (l-1)p + 1 always satisfies p | m-1 and m ≡ l (mod p-1)
    for pair in db1000.all_pairs():
        res = a_value(pair, db1000)
        assert res.m == (pair.l - 1) * pair.p + 1
        assert (res.m - 1) % pair.p == 0
        assert res.m % (pair.p - 1) == pair.l % (pair.p - 1)


def test_a_value_exception_row(db6500):
    res = a_value(IrregularPair(6449, 4884), db6500)
    assert res.m == 31490468
    assert not res.valid
    assert res.witnesses == ((257, 164),)


def test_exception_congruences():
    # each witness (q, l') must satisfy q | l-1 and (l-1)p ≡ l'-1 (mod q-1)
    for (p, l), m, factors, witnesses in EXCEPTION_ROWS:
        assert m == (l - 1) * p + 1
        prod = 1
        for q, e in factors:
            prod *= q**e
        assert prod == l - 1
        for q, lq in witnesses:
            assert (l - 1) % q == 0
            assert (l - 1) * p % (q - 1) == (lq - 1) % (q - 1)


def test_find_exceptions_none_below_first(db6500):
    assert find_exceptions(db6500.restrict(6449)) == []


def test_prime_power_consistency_with_r1(db160):
    base = a_value(IrregularPair(37, 32), db160)
    pow1 = a_value_prime_power(IrregularPair(37, 32), 1, db160)
    assert pow1 == base


def test_prime_power_validation(db160):
    with pytest.raises(ValueError):
        a_value_prime_power(IrregularPair(37, 32), 0, db160)


@given(st.sampled_from([7, 11, 37, 101]), st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_candidate_solves_both_congruences(p, r, data):
    # arithmetic behind the solvable case: if all digits equal l-1, the
    # candidate m = (l-1)p^r + 1 satisfies m ≡ 1 (mod p^r) and
    # m ≡ l_r (mod phi(p^r)) for the order-r index l_r
    l = data.draw(st.integers(1, (p - 3) // 2)) * 2
    l_r = OrderedPair(p, (l,) + (l - 1,) * (r - 1)).index
    m = (l - 1) * p**r + 1
    assert m % p**r == 1
    assert (m - l_r) % (p ** (r - 1) * (p - 1)) == 0
