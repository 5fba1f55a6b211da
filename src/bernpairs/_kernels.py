"""The sieve kernel: B_k mod p for one prime and every even k, on numpy.

The row comes from one triangular Toeplitz system mod p, solved 64 unknowns
per step with two int64 convolutions; see bern_even_residues.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .errors import ResourceLimit

BLOCK = 64  # unknowns solved per step of the blocked recurrence


def check_row_size(p: int) -> None:
    """Raise ResourceLimit unless p^3 < 2^62, which the row's int64 sums need
    (see bern_even_residues). Costs nothing, so callers check before work."""
    if p**3 >= 1 << 62:
        raise ResourceLimit(
            f"sieve row for p={p} needs p^3 < 2^62 for its int64 convolutions",
            needed=p**3,
            limit=1 << 62,
        )


def bern_even_residues(p: int) -> List[int]:
    """B_k mod p for all even k with 2 <= k <= p-3, for odd prime p >= 5.

    Returns a list of length p whose entry k holds B_k mod p for even k in
    range; entries outside that range are filler (B_1 never appears here, it
    is folded into the recurrence as a closed term).

    Method: b_n = B_n/n! satisfies (e^x - 1)/x * sum b_n x^n = 1. With
    b_t = B_2t/(2t)! and o_i = 1/(2i+1)!, its even part reads

        sum_{i<=t} b_i o_{t-i} = r_t  (mod p),  r_0 = 1, r_t = ((p+1)/2)/(2t)!,

    a triangular Toeplitz system: B(y) O(y) = R(y) as power series. It is
    solved in blocks [t0, t0+64). The history of earlier blocks comes off the
    right side in one convolution, rhs = r[t0:e] - (o * b[:t0])[t0:e], and the
    block is then rhs times w = 1/O(y) mod y^64, computed once per row by
    Newton's iteration. Finally B_2t = (2t)! b_t. The inverse factorials come
    from Wilson's reflection, 1/j! = (-1)^(j+1) (p-1-j)! (mod p), so no modular
    inverse is taken.

    Every product in these convolutions is below p^2 (one factor is reduced
    below p, the other is at most p), so a history sum is below t0 p^2 and a
    block sum below 64 p^2, where t0 < p/2 and 64 terms occur only when
    p > 128; both are below p^3/2. That needs p^3 < 2^62 for exact int64
    sums, enforced here before allocating.
    """
    if p < 5 or p % 2 == 0:
        raise ValueError(f"need an odd prime >= 5, got {p}")
    check_row_size(p)
    fact = [1] * (p - 1)  # fact[j] = j!, j <= p-2
    for j in range(1, p - 1):
        fact[j] = fact[j - 1] * j % p
    n = (p - 1) // 2  # unknowns b_0 .. b_(n-1)
    odd = np.array(fact[::-2], dtype=np.int64)  # odd[i] = (p-2-2i)! = 1/(2i+1)!
    # r_t = ((p+1)/2)/(2t)! = ((p-1)/2) (p-1-2t)!
    r = np.array([1] + fact[p - 3 : 1 : -2], dtype=np.int64)
    r[1:] = n * r[1:] % p

    m = min(BLOCK, n)
    w = np.ones(1, dtype=np.int64)  # 1/O(y) mod y^m, doubling its length
    while len(w) < m:
        k = min(2 * len(w), m)
        c = p - np.convolve(odd[:k], w)[:k] % p  # -O w, entries in [1, p]
        c[0] = 1  # c = 2 - O w, as (O w)_0 = o_0 w_0 = 1
        w = np.convolve(w, c)[:k] % p

    b = np.empty(n, dtype=np.int64)  # b[t] = B_2t/(2t)!
    for t0 in range(0, n, BLOCK):
        e = min(t0 + BLOCK, n)
        rhs = r[t0:e]
        if t0:
            rhs = (rhs - np.convolve(odd[1:e], b[:t0], "valid")) % p
        b[t0:e] = np.convolve(w[: e - t0], rhs)[: e - t0] % p
    B = [0] * p
    B[0 : p - 1 : 2] = (np.array(fact[::2], dtype=np.int64) * b % p).tolist()
    return B
