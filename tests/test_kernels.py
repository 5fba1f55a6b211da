"""The mod-p sieve kernel against independent routes to B_k mod p."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernpairs import _kernels
from bernpairs.arith import is_prime, primes_below, rational_mod
from bernpairs.bernoulli import bernoulli_exact, divided_bernoulli_mod_pk
from bernpairs.errors import ResourceLimit


def test_pure_sieve_against_exact_rationals():
    # rows of up to four blocks; (p-1)/2 = 63, 65, 128, 131 at p = 127, 131,
    # 257, 263 sit just below, just above and on the block edges
    exact = {k: bernoulli_exact(k) for k in range(2, 398, 2)}
    for p in primes_below(400):
        if p < 5:
            continue
        row = _kernels.bern_even_residues(p)
        assert len(row) == p
        for k in range(2, p - 2, 2):
            assert row[k] == rational_mod(exact[k], p).value, (p, k)


_PRIMES_BELOW_4000 = [p for p in primes_below(4000) if p >= 5]


@given(st.sampled_from(_PRIMES_BELOW_4000), st.data())
@settings(max_examples=200, deadline=None)
def test_sieve_row_property_against_faulhaber(p, data):
    # B_k = k * (B_k/k) mod p; the Faulhaber route shares no code with the sieve
    k = 2 * data.draw(st.integers(1, (p - 3) // 2))
    row = _kernels.bern_even_residues(p)
    assert row[k] == k * divided_bernoulli_mod_pk(k, p, 1).value % p


def test_sieve_matches_faulhaber_route():
    # B_k = k * (B_k/k) mod p; the Faulhaber route shares no code with the sieve
    for p in [257, 1009, 2003]:
        row = _kernels.bern_even_residues(p)
        for k in range(2, p - 2, 2):
            assert row[k] == k * divided_bernoulli_mod_pk(k, p, 1).value % p, (p, k)
    # the largest prime below the paper's bound 16000, on a seeded sample of k
    p = 15991
    row = _kernels.bern_even_residues(p)
    for k in random.Random(15991).sample(range(2, p - 2, 2), 64):
        assert row[k] == k * divided_bernoulli_mod_pk(k, p, 1).value % p, (p, k)


def test_pure_sieve_validation():
    with pytest.raises(ValueError):
        _kernels.bern_even_residues(4)
    with pytest.raises(ValueError):
        _kernels.bern_even_residues(3)


def test_pure_sieve_refuses_overflow():
    # first prime with p^3 >= 2^62; refused before any O(p) allocation
    p = 1664543
    assert is_prime(p) and (p - 42) ** 3 < 1 << 62 <= p**3  # p - 42 is prime
    t0 = time.monotonic()
    with pytest.raises(ResourceLimit):
        _kernels.bern_even_residues(p)
    assert time.monotonic() - t0 < 1
