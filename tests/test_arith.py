"""Integer and rational arithmetic helpers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernpairs.arith import (
    crt_pair,
    factorize,
    integer_nth_root,
    is_prime,
    primes_below,
    rational_mod,
)


def test_rational_mod_examples():
    # brute-force checked: 12 * 34 == 408 == 11 * 37 + 1, and 2 * 2 ≡ -1 (mod 5)
    assert rational_mod(Fraction(1, 12), 37) == 34
    assert rational_mod(Fraction(-1, 2), 5) == 2
    assert rational_mod(Fraction(5), 3) == 2
    with pytest.raises(ValueError):
        rational_mod(Fraction(1, 6), 9)


@given(st.integers(-(10**9), 10**9), st.integers(1, 10**9), st.integers(2, 10**9))
@settings(max_examples=200, deadline=None)
def test_rational_mod_property(n, d, m):
    q = Fraction(n, d)
    if math.gcd(q.denominator, m) != 1:
        with pytest.raises(ValueError):
            rational_mod(q, m)
    else:
        r = rational_mod(q, m)
        assert 0 <= r < m
        assert (r * q.denominator - q.numerator) % m == 0


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(2**10) == [(2, 10)]


@given(st.integers(1, 10**6))
@settings(max_examples=300, deadline=None)
def test_factorize_roundtrip(n):
    fac = factorize(n)
    prod = 1
    for q, e in fac:
        assert is_prime(q)
        assert e >= 1
        prod *= q**e
    assert prod == n
    # strictly ascending prime bases
    assert list(q for q, _ in fac) == sorted(set(q for q, _ in fac))


def test_is_prime_matches_sieve():
    sieve = set(primes_below(10000))
    for n in range(10000):
        assert is_prime(n) == (n in sieve)


def test_primes_below_small():
    assert primes_below(2) == []
    assert primes_below(3) == [2]
    assert primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@given(st.integers(0, 10**18), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_integer_nth_root(x, n):
    r = integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n


def test_integer_nth_root_beyond_float_range():
    for n in (3, 5, 7):
        r = integer_nth_root(10**400, n)
        assert r**n <= 10**400 < (r + 1) ** n
    for k in (10**20 + 39, 3**200, 2**521 - 1):
        for n in (2, 3, 4, 9):
            assert integer_nth_root(k**n - 1, n) == k - 1
            assert integer_nth_root(k**n, n) == k
            assert integer_nth_root(k**n + 1, n) == k


def test_crt_pair_examples():
    r, m = crt_pair(2, 4, 4, 6)
    assert m == 12
    assert r % 4 == 2 and r % 6 == 4
    assert crt_pair(0, 3, 1, 6) is None


@given(
    st.integers(2, 60),
    st.integers(2, 60),
    st.integers(0, 59),
    st.integers(0, 59),
)
@settings(max_examples=300, deadline=None)
def test_crt_pair_brute_force(m1, m2, a1, a2):
    a1 %= m1
    a2 %= m2
    got = crt_pair(a1, m1, a2, m2)
    lcm = m1 * m2 // math.gcd(m1, m2)
    hits = [x for x in range(lcm) if x % m1 == a1 and x % m2 == a2]
    if got is None:
        assert hits == []
    else:
        r, m = got
        assert m == lcm
        assert hits == [r]
