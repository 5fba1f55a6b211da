"""The mod-p sieve kernel against independent routes to B_k mod p."""

import time

import pytest

from bernpairs import _kernels
from bernpairs.arith import is_prime, primes_below, rational_mod
from bernpairs.bernoulli import bernoulli_exact, divided_bernoulli_mod_pk
from bernpairs.errors import ResourceLimit


def test_pure_sieve_against_exact_rationals():
    for p in primes_below(100):
        if p < 5:
            continue
        row = _kernels.bern_even_residues(p)
        assert len(row) == p
        for k in range(2, p - 2, 2):
            assert row[k] == rational_mod(bernoulli_exact(k), p).value


def test_sieve_matches_faulhaber_route():
    # B_k = k * (B_k/k) mod p; the Faulhaber route shares no code with the sieve
    for p in [257, 1009, 2003]:
        row = _kernels.bern_even_residues(p)
        for k in range(2, p - 2, 2):
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
