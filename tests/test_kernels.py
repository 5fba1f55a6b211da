"""Backend agreement: the compiled kernels and the pure fallback must match."""

import os
import subprocess
import sys
import time

import pytest

from bernpairs import _kernels
from bernpairs._kernels import pure
from bernpairs.arith import is_prime, primes_below, rational_mod
from bernpairs.bernoulli import bernoulli_exact
from bernpairs.errors import ResourceLimit

native = _kernels._native
needs_native = pytest.mark.skipif(
    native is None, reason="compiled extension not built"
)


def test_backend_name_reflects_selection():
    if os.environ.get("BERNPAIRS_PURE_PYTHON") == "1":
        assert _kernels.backend_name() == "pure"
    else:
        assert _kernels.backend_name() == ("native" if native else "pure")


def test_pure_python_env_forces_fallback():
    env = dict(os.environ, BERNPAIRS_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", "import bernpairs; print(bernpairs.backend_name())"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "pure"


def test_pure_sieve_against_exact_rationals():
    for p in primes_below(100):
        if p < 5:
            continue
        row = pure.bern_even_residues(p)
        assert len(row) == p
        for k in range(2, p - 2, 2):
            assert row[k] == rational_mod(bernoulli_exact(k), p).value


@needs_native
def test_native_sieve_matches_pure():
    for p in [5, 7, 37, 101, 257, 1009]:
        assert native.bern_even_residues(p) == pure.bern_even_residues(p)


def test_pure_sieve_validation():
    with pytest.raises(ValueError):
        pure.bern_even_residues(4)
    with pytest.raises(ValueError):
        pure.bern_even_residues(3)


def test_pure_sieve_refuses_overflow():
    # first prime with p^3 >= 2^62; refused before any O(p) allocation
    p = 1664543
    assert is_prime(p) and (p - 42) ** 3 < 1 << 62 <= p**3  # p - 42 is prime
    t0 = time.monotonic()
    with pytest.raises(ResourceLimit):
        pure.bern_even_residues(p)
    assert time.monotonic() - t0 < 1
