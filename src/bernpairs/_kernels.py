"""The sieve kernel: B_k mod p for one prime and every even k, on numpy."""

from __future__ import annotations

from typing import List

import numpy as np

from .errors import ResourceLimit


def bern_even_residues(p: int) -> List[int]:
    """B_k mod p for all even k with 2 <= k <= p-3, for odd prime p >= 5.

    Returns a list of length p whose entry k holds B_k mod p for even k in
    range; entries outside that range are filler (B_1 never appears here, it
    is folded into the recurrence as a closed term).

    Method: b_n = B_n/n! satisfies (e^x - 1)/x * sum b_n x^n = 1, so for n = 2t

        b_2t = -( sum_{i<t} b_2i/(2t-2i+1)! - 1/(2 (2t)!) )  (mod p)

    and B_2t = (2t)! b_2t. Each t costs one int64 dot product of b_0..b_2(t-1)
    against the odd inverse factorials; every entry is reduced below p, so
    the sum is below t p^2 < p^3/2. That needs p^3 < 2^62, enforced here
    before allocating.
    """
    if p < 5 or p % 2 == 0:
        raise ValueError(f"need an odd prime >= 5, got {p}")
    if p**3 >= 1 << 62:
        raise ResourceLimit(
            f"sieve row for p={p} needs p^3 < 2^62 for its int64 dot products",
            needed=p**3,
            limit=1 << 62,
        )
    fact = [1] * p
    for j in range(1, p):
        fact[j] = fact[j - 1] * j % p
    inv_fact = [1] * p
    inv_fact[p - 1] = pow(fact[p - 1], -1, p)
    for j in range(p - 1, 1, -1):
        inv_fact[j - 1] = inv_fact[j] * j % p
    odd = np.array(inv_fact[1::2], dtype=np.int64)  # odd[i] = 1/(2i+1)!
    half = (p + 1) // 2

    b = np.zeros(len(odd), dtype=np.int64)  # b[t] = b_2t
    b[0] = 1
    B = [0] * p
    B[0] = 1
    for t in range(1, len(odd)):
        s = int(np.dot(b[:t], odd[t:0:-1])) - half * inv_fact[2 * t]
        b[t] = -s % p
        B[2 * t] = int(b[t]) * fact[2 * t] % p
    return B
