"""The mod-p sieve kernel against independent routes to B_k mod p."""

import random
import time

import pytest

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
            assert row[k] == rational_mod(exact[k], p), (p, k)


def test_sieve_matches_faulhaber_route():
    # B_k = k * (B_k/k) mod p; the Faulhaber route shares no code with the
    # sieve. 200 seeded draws over 5 <= p < 4000, then 64 k at 15991, the
    # largest prime below the paper's bound 16000
    rng = random.Random(4000)
    ps = rng.choices([p for p in primes_below(4000) if p >= 5], k=200)
    draws = [(p, 2 * rng.randint(1, (p - 3) // 2)) for p in ps]
    draws += [(15991, k) for k in random.Random(15991).sample(range(2, 15989, 2), 64)]
    rows = {}
    for p, k in draws:
        if p not in rows:
            rows[p] = _kernels.bern_even_residues(p)
        assert rows[p][k] == k * divided_bernoulli_mod_pk(k, p, 1) % p, (p, k)


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
