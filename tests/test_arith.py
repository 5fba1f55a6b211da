"""Integer and rational arithmetic helpers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernpairs.arith import (
    Rational,
    Residue,
    crt_pair,
    factorize,
    gcd_lcm,
    integer_nth_root,
    is_prime,
    mod_inverse,
    phi_prime_power,
    primes_below,
)
from bernpairs.errors import MixedModulus, NotInvertible


def test_mod_inverse_examples():
    assert mod_inverse(1, 7).value == 1
    assert mod_inverse(2, 5).value == 3
    # brute-force checked: 12 * 34 == 408 == 11 * 37 + 1
    assert mod_inverse(12, 37).value == 34


@given(st.integers(2, 10**9), st.integers(1, 10**9))
@settings(max_examples=200, deadline=None)
def test_mod_inverse_property(m, a):
    if math.gcd(a, m) != 1:
        with pytest.raises(NotInvertible):
            mod_inverse(a, m)
    else:
        inv = mod_inverse(a, m).value
        assert 0 <= inv < m
        assert a * inv % m == 1


def test_gcd_lcm_examples():
    assert gcd_lcm(1332, 3422) == (2, 2279052)
    assert gcd_lcm(36, 58) == (2, 1044)
    assert gcd_lcm(7, 7) == (7, 7)


@given(st.integers(1, 10**12), st.integers(1, 10**12))
@settings(max_examples=200, deadline=None)
def test_gcd_lcm_product(a, b):
    g, l = gcd_lcm(a, b)
    assert g * l == a * b
    assert a % g == 0 and b % g == 0
    assert l % a == 0 and l % b == 0


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


def test_phi_prime_power():
    assert phi_prime_power(37, 1) == 36
    assert phi_prime_power(37, 2) == 37 * 36
    assert phi_prime_power(5, 3) == 100


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


def _naive_add(a, b):
    # unreduced pair arithmetic as an oracle
    return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _naive_mul(a, b):
    return (a[0] * b[0], a[1] * b[1])


def test_rational_agrees_with_naive_pairs():
    rng = random.Random(20260816)
    for _ in range(1000):
        n1, n2 = rng.randint(-999, 999), rng.randint(-999, 999)
        d1, d2 = rng.randint(1, 999), rng.randint(1, 999)
        x, y = Rational(n1, d1), Rational(n2, d2)
        s = x + y
        p = x * y
        ns, ds = _naive_add((n1, d1), (n2, d2))
        np_, dp = _naive_mul((n1, d1), (n2, d2))
        assert s.numerator * ds == ns * s.denominator
        assert p.numerator * dp == np_ * p.denominator


def test_rational_is_exact_fraction():
    assert Rational(1, 3) + Rational(1, 6) == Fraction(1, 2)
    assert Rational(-691, 2730).denominator == 2730


def test_residue_arithmetic():
    a = Residue(5, 13)
    b = Residue(11, 13)
    assert (a + b).value == 3
    assert (a * b).value == 55 % 13
    assert (a - b).value == (5 - 11) % 13
    assert (a**3).value == 125 % 13
    assert (a + 1).value == 6
    assert (3 * a).value == 2


def test_residue_mixed_modulus():
    a = Residue(5, 13)
    c = Residue(5, 17)
    with pytest.raises(MixedModulus):
        a + c
    with pytest.raises(MixedModulus):
        a * c


def test_residue_inverse():
    a = Residue(12, 37)
    assert a.inverse().value == 34
    with pytest.raises(NotInvertible):
        Residue(6, 9).inverse()
