"""Exact and modular Bernoulli machinery.

The oracle here is the classic binomial recurrence over exact Fractions,
implemented inline with no shared code with the package (which computes
through tangent numbers). Modular routes are then checked against the exact
rationals on every point where both are defined and affordable. The other
test modules import these two oracles rather than restating them.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernpairs.arith import primes_below, rational_mod
from bernpairs.bernoulli import (
    _power_sum,
    bernoulli_exact,
    bernoulli_mod_p_all,
    divided_bernoulli_mod_pk,
    numerator_pair,
)
from bernpairs.config import LIMITS
from bernpairs.errors import PoleAtIndex, ResourceLimit


def exact_divided(n, p, k):
    """B_n/n mod p^k straight from the exact rational."""
    return rational_mod(bernoulli_exact(n) / n, p**k).value


def naive_bernoulli(count):
    """B_0 .. B_{count-1} via sum_{j<=n} C(n+1,j) B_j = 0, B_1 = -1/2."""
    out = [Fraction(1)]
    for n in range(1, count):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * out[j]
        out.append(-acc / (n + 1))
    return out


def test_known_small_values():
    assert bernoulli_exact(0) == 1
    assert bernoulli_exact(1) == Fraction(-1, 2)
    assert bernoulli_exact(2) == Fraction(1, 6)
    assert bernoulli_exact(4) == Fraction(-1, 30)
    assert bernoulli_exact(6) == Fraction(1, 42)
    assert bernoulli_exact(10) == Fraction(5, 66)
    assert bernoulli_exact(12) == Fraction(-691, 2730)
    for n in range(3, 30, 2):
        assert bernoulli_exact(n) == 0


def test_matches_naive_recurrence():
    oracle = naive_bernoulli(151)
    for n in range(151):
        assert bernoulli_exact(n) == oracle[n], f"mismatch at B_{n}"


def test_exact_resource_limit():
    with pytest.raises(ResourceLimit):
        bernoulli_exact(LIMITS.max_exact_n + 2)


def test_numerator_pair():
    n1, n2 = numerator_pair(2)
    assert (n1, n2) == (1, 1)
    n1, n2 = numerator_pair(1148)
    assert n1 > 0 and n2 > 0
    assert n1 % 37 == 0
    assert n1 == abs((bernoulli_exact(1148) / 1148).numerator)


def test_mod_p_table_against_exact():
    for p in [5, 7, 11, 13, 37, 59]:
        table = bernoulli_mod_p_all(p)
        assert sorted(table) == list(range(2, p - 2, 2))
        for k, res in table.items():
            assert res.modulus == p
            assert res.value == rational_mod(bernoulli_exact(k), p).value


def test_mod_p_table_irregular_zeros():
    zeros = [k for k, r in bernoulli_mod_p_all(37).items() if r.is_zero()]
    assert zeros == [32]
    assert all(not r.is_zero() for r in bernoulli_mod_p_all(31).values())


def test_faulhaber_equals_exact_on_overlap():
    # every even n <= 400, prime 5 <= p <= 100, k <= 3 off the poles; a few
    # n > 400 at small p; then a few n <= 1000 at primes whose power sums
    # reuse composites with large prime factors (up to 113 at p = 15991)
    cases = [(n, p) for p in primes_below(101) if p >= 5 for n in range(2, 401, 2)]
    cases += [(424, 37), (928, 37), (406, 13), (874, 13)]
    cases += [(n, p) for p in (1009, 6449, 15991) for n in (2, 164, 574, 1000)]
    checked = 0
    for n, p in cases:
        if n % (p - 1) == 0:
            continue
        for k in (1, 2, 3):
            got = divided_bernoulli_mod_pk(n, p, k).value
            assert got == exact_divided(n, p, k), (
                f"Faulhaber route disagrees at n={n}, p={p}, k={k}"
            )
            checked += 1
    assert checked > 10000


def test_faulhaber_multiword_modulus():
    # 5^26 > 2^60 and 5^28 > 2^64: precision past one machine word, n = 2 too
    for k in (26, 28):
        for n in (2, 6, 398):
            got = divided_bernoulli_mod_pk(n, 5, k)
            assert got.modulus == 5**k >= 1 << 60
            assert got.value == exact_divided(n, 5, k), (n, k)


@st.composite
def _power_sum_inputs(draw):
    p = draw(st.sampled_from([3, 5]) | st.sampled_from(primes_below(3000)[1:]))
    j = draw(
        st.integers(1, 4).map(lambda t: t * (p - 1))  # Fermat's -1 case
        | st.integers(1, 2 * p).map(lambda t: 2 * t)
    )
    return p, j, draw(st.integers(1, 4))


@given(_power_sum_inputs())
@settings(max_examples=150, deadline=None)
def test_power_sum_property(args):
    p, j, L = args
    M = p**L
    assert _power_sum(j, p, M) == sum(pow(a, j, M) for a in range(1, p)) % M


@given(st.sampled_from([5, 7, 11, 13]), st.integers(2, 490))
@settings(max_examples=60, deadline=None)
def test_kummer_congruence_from_exact_rationals(p, half):
    # (1 - p^(n-1)) B_n/n is constant mod p^2 on classes mod phi(p^2),
    # verified on exact values with no modular reduction involved
    n = 2 * half
    phi = p * (p - 1)
    if n % (p - 1) == 0:
        n += 2
    if n % (p - 1) == 0 or n + phi > 1150:
        return
    pk = p * p
    w = exact_divided(n, p, 2)
    w2 = exact_divided(n + phi, p, 2)
    e = (1 - pow(p, n - 1, pk)) % pk
    e2 = (1 - pow(p, n + phi - 1, pk)) % pk
    assert w * e % pk == w2 * e2 % pk


def test_pole_at_index():
    with pytest.raises(PoleAtIndex):
        divided_bernoulli_mod_pk(36, 37, 1)
    with pytest.raises(PoleAtIndex):
        divided_bernoulli_mod_pk(4, 5, 1)
    with pytest.raises(PoleAtIndex):
        divided_bernoulli_mod_pk(2, 3, 1)


def test_divided_validation():
    with pytest.raises(ValueError):
        divided_bernoulli_mod_pk(3, 37, 1)
    with pytest.raises(ValueError):
        divided_bernoulli_mod_pk(0, 37, 1)
    with pytest.raises(ValueError):
        divided_bernoulli_mod_pk(32, 37, 0)
    with pytest.raises(ValueError):
        divided_bernoulli_mod_pk(32, 35, 1)
    with pytest.raises(ValueError):
        divided_bernoulli_mod_pk(32, 2, 1)
