"""Bernoulli numbers: exact rationals and residues mod prime powers.

Conventions: B_n from z/(e^z - 1), so B_1 = -1/2 and B_n = 0 for odd n >= 3.
num(q) means the absolute numerator of q in lowest terms.

Two routes, checked against each other in tests:

* exact: B_2k = (-1)^(k-1) * 2k * T_k / (2^2k * (2^2k - 1)) with tangent
  numbers T_k from an in-place integer recurrence; a global T cache grows
  geometrically, so one big request amortizes everything below it.
* Faulhaber, one index mod p^k: with S_j(p) = sum_{a<p} a^j,

      p B_j = S_j(p) - sum_{i>=1} C(j,2i) (p B_(j-2i)) p^(2i)/(2i+1)
              + p^j/2 - p^(j+1)/(j+1),

  where p B_j is a p-adic integer for every even j (von Staudt-Clausen).
  Working mod p^L, term i needs p B_(j-2i) only mod p^(L - 2i + v_p(2i+1)),
  so the recursion is short. Since a -> a^j is completely multiplicative,
  S_j(p) mod p^L costs one modular power per prime below p (pi(p) of them)
  and one multiplication per composite; mod p it is Fermat's closed form,
  with no power at all. B_n/n mod p^k then comes from L = k + v_p(n) + 1
  by dividing out p and n.

The table of B_k mod p for one prime and all k comes from the sieve kernel
in _kernels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

from . import _kernels
from .arith import Residue, is_prime
from .config import LIMITS
from .errors import PoleAtIndex, ResourceLimit

_tangent: List[int] = []  # _tangent[i-1] = T_i, tan x = sum T_k x^(2k-1) / (2k-1)!


def _ensure_tangent(count: int) -> None:
    """Grow the tangent cache to at least T_1..T_count (full rebuild, geometric)."""
    global _tangent
    if count <= len(_tangent):
        return
    count = max(count, 2 * len(_tangent), 64)
    T = [0] * (count + 1)
    T[1] = 1
    for k in range(2, count + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    _tangent = T[1:]


def bernoulli_exact(n: int) -> Fraction:
    """B_n as an exact Fraction; indices above the configured cap are refused."""
    if n < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    if n > LIMITS.max_exact_n:
        raise ResourceLimit(
            f"exact Bernoulli index {n} exceeds the cap {LIMITS.max_exact_n} "
            "(raise LIMITS.max_exact_n to allow it)",
            needed=n,
            limit=LIMITS.max_exact_n,
        )
    k = n // 2
    _ensure_tangent(k)
    sign = 1 if k % 2 == 1 else -1
    return Fraction(sign * n * _tangent[k - 1], (1 << n) * ((1 << n) - 1))


def numerator_pair(m: int) -> Tuple[int, int]:
    """(num(B_m/m), num(B_m/(m(m-1)))) for even m >= 2."""
    if m < 2 or m % 2 == 1:
        raise ValueError(f"need an even m >= 2, got {m}")
    b = bernoulli_exact(m)
    return abs((b / m).numerator), abs((b / (m * (m - 1))).numerator)


def bernoulli_mod_p_all(p: int) -> Dict[int, Residue]:
    """{even k in [2, p-3]: B_k mod p} for an odd prime p >= 5."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    row = _kernels.bern_even_residues(p)
    return {k: Residue(row[k], p) for k in range(2, p - 2, 2)}


def _vp(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _unit_over(e: int, q: int, p: int, M: int) -> int:
    """p^e / q mod M, a power of p, for q with v_p(q) <= e."""
    v = _vp(q, p)
    return pow(p, e - v, M) * pow(q // p**v, -1, M) % M


def _power_sum(j: int, p: int, M: int) -> int:
    """S_j(p) = sum_{a<p} a^j mod M, for j >= 1 and M = p^L with L >= 1.

    Mod p this is Fermat's closed form: -1 when (p-1) | j, else 0. Otherwise
    f(a) = a^j mod M is one pow() for each prime a and f(q) * f(a/q) for each
    composite a, where div[a] is a prime factor q of a with q^2 <= a. Every
    cofactor a/q lies below (p+1)/2, so f is kept only there. Transient
    memory is O(p) words: div holds p entries and f (p+1)/2 residues mod M.
    """
    if M == p:
        return p - 1 if j % (p - 1) == 0 else 0
    div = [0] * p
    for q in range(2, math.isqrt(p - 1) + 1):
        if not div[q]:
            div[q * q :: q] = [q] * len(range(q * q, p, q))
    h = (p + 1) // 2
    f = [0] * h
    for a in range(1, h):
        q = div[a]
        f[a] = f[q] * f[a // q] % M if q else pow(a, j, M)
    acc = sum(f)
    for a in range(h, p):
        q = div[a]
        acc += f[q] * f[a // q] % M if q else pow(a, j, M)
    return acc % M


def _p_bernoulli(j: int, p: int, L: int, memo: Dict[Tuple[int, int], int]) -> int:
    """p*B_j mod p^L for even j >= 2 (p-integral for every j, poles included)."""
    key = (j, L)
    if key in memo:
        return memo[key]
    M = p**L
    acc = _power_sum(j, p, M) + pow(p, j, M) * pow(2, -1, M)
    acc -= _unit_over(j + 1, j + 1, p, M)
    # term i has valuation >= 2i - v_p(2i+1) > 2i - bit_length(2i+1)
    i = 1
    while 2 * i <= j - 2 and 2 * i - (2 * i + 1).bit_length() < L:
        q = 2 * i + 1
        L_i = L - 2 * i + _vp(q, p)
        if L_i > 0:
            x = _p_bernoulli(j - 2 * i, p, L_i, memo)
            acc -= math.comb(j, 2 * i) % M * x * _unit_over(2 * i, q, p, M)
        i += 1
    memo[key] = acc % M
    return memo[key]


def divided_bernoulli_mod_pk(n: int, p: int, k: int) -> Residue:
    """B_n/n mod p^k for even n >= 2, odd prime p, k >= 1.

    Raises PoleAtIndex when (p-1) | n (the value is not p-integral there).
    Computed from p*B_n mod p^(k + v_p(n) + 1) by Faulhaber's identity.
    """
    if n < 2 or n % 2 == 1:
        raise ValueError(f"need an even index n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if n % (p - 1) == 0:
        raise PoleAtIndex(n, p)
    v = _vp(n, p)
    x = _p_bernoulli(n, p, k + v + 1, {})
    if x % p ** (v + 1):
        raise AssertionError(
            f"p*B_{n} mod {p}^{k + v + 1} lost p-integrality of B_{n}/{n}"
        )
    pk = p**k
    return Residue(x // p ** (v + 1) * pow(n // p**v, -1, pk) % pk, pk)
