"""Core integer and modular arithmetic.

Exact rationals are stdlib Fractions (re-exported as Rational); Residue is a
small checked value type for modular work, so a residue mod p^2 never silently
mixes with one mod p. Primality is deterministic Miller-Rabin with the fixed
witness set {2,...,37}, correct for all n < 3.3e24, far beyond every input this
package handles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Tuple

from .errors import MixedModulus, NotInvertible

Rational = Fraction

# Deterministic Miller-Rabin witnesses for n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for every size used here (valid below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int) -> List[int]:
    """All primes p < bound by a plain sieve of Eratosthenes."""
    if bound <= 2:
        return []
    flags = bytearray([1]) * bound
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, bound, i)))
    return [i for i in range(bound) if flags[i]]


class _PrimeCache:
    """Growing list of small primes for trial division."""

    def __init__(self) -> None:
        self._bound = 64
        self._primes = primes_below(self._bound)

    def upto(self, bound: int) -> List[int]:
        if bound > self._bound:
            self._bound = max(bound, 2 * self._bound)
            self._primes = primes_below(self._bound)
        return self._primes


_small_primes = _PrimeCache()


def factorize(n: int) -> List[Tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs.

    Trial division by cached primes up to isqrt(n); any cofactor surviving that
    is prime. Exact for all n, sized for this package's inputs (n up to ~1e12).
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: List[Tuple[int, int]] = []
    for p in _small_primes.upto(math.isqrt(n) + 1):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def gcd_lcm(a: int, b: int) -> Tuple[int, int]:
    return math.gcd(a, b), math.lcm(a, b)


def integer_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0, n >= 1, exactly."""
    if x < 0 or n < 1:
        raise ValueError("integer_nth_root needs x >= 0 and n >= 1")
    if x < 2 or n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    # integer Newton from above: 2^ceil(bits/n) > x^(1/n), and each step
    # stays >= the floor root (AM-GM) while it strictly falls above it
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def phi_prime_power(p: int, j: int) -> int:
    """Euler phi of p^j for prime p, j >= 1."""
    return p ** (j - 1) * (p - 1)


def ilog(base: int, x: int) -> int:
    """floor(log_base(x)) for x >= 1, base >= 2."""
    if x < 1 or base < 2:
        raise ValueError("ilog needs x >= 1 and base >= 2")
    e = 0
    v = base
    while v <= x:
        v *= base
        e += 1
    return e


@dataclass(frozen=True)
class Residue:
    """An integer mod a fixed modulus, normalized into [0, modulus).

    Arithmetic between residues requires equal moduli (MixedModulus otherwise);
    plain ints are accepted and reduced. Use .value for the canonical integer.
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _coerce(self, other: "Residue | int") -> int:
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise MixedModulus(self.modulus, other.modulus)
            return other.value
        return other % self.modulus

    def __add__(self, other: "Residue | int") -> "Residue":
        return Residue(self.value + self._coerce(other), self.modulus)

    __radd__ = __add__

    def __sub__(self, other: "Residue | int") -> "Residue":
        return Residue(self.value - self._coerce(other), self.modulus)

    def __rsub__(self, other: "Residue | int") -> "Residue":
        return Residue(self._coerce(other) - self.value, self.modulus)

    def __mul__(self, other: "Residue | int") -> "Residue":
        return Residue(self.value * self._coerce(other), self.modulus)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Residue":
        return Residue(pow(self.value, exponent, self.modulus), self.modulus)

    def inverse(self) -> "Residue":
        return mod_inverse(self.value, self.modulus)

    def __int__(self) -> int:
        return self.value

    def is_zero(self) -> bool:
        return self.value == 0


def mod_inverse(a: int, m: int) -> Residue:
    """Inverse of a mod m; raises NotInvertible with the gcd when none exists."""
    try:
        return Residue(pow(a, -1, m), m)
    except ValueError:
        raise NotInvertible(a % m, m, math.gcd(a, m)) from None


def rational_mod(q: Fraction, m: int) -> Residue:
    """A p-integral rational reduced mod m (denominator must be coprime to m)."""
    den = mod_inverse(q.denominator, m)
    return Residue(q.numerator * den.value, m)


def crt_pair(a1: int, m1: int, a2: int, m2: int) -> Tuple[int, int] | None:
    """Merge x ≡ a1 (mod m1), x ≡ a2 (mod m2) with arbitrary (non-coprime) moduli.

    Returns (a, lcm(m1, m2)) or None when a1 ≢ a2 mod gcd(m1, m2).
    """
    g = math.gcd(m1, m2)
    if (a2 - a1) % g != 0:
        return None
    l = m1 // g * m2
    t = ((a2 - a1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    return (a1 + m1 * t) % l, l


def divisors(n: int) -> Iterator[int]:
    """All positive divisors of n >= 1, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return iter(sorted(ds))
