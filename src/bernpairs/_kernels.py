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

    Method: the defining recurrence sum_{k=0}^{n-1} C(n+1,k) B_k = 0, walking a
    Pascal row in place (two row advances per even n) and taking one dot
    product per n. Row entries are left unreduced for up to `grow` rows so the
    mod pass runs rarely; `grow` is sized so the int64 dot product cannot
    overflow: entries < 2^grow * p and the dot has at most p terms of size
    entry * p, so 2^grow * p^3 must stay under 2^63. With grow clamped to 1
    that needs p^3 < 2^62, enforced here before allocating.
    """
    if p < 5 or p % 2 == 0:
        raise ValueError(f"need an odd prime >= 5, got {p}")
    if p**3 >= 1 << 62:
        raise ResourceLimit(
            f"sieve row for p={p} needs p^3 < 2^62 for its int64 dot products",
            needed=p**3,
            limit=1 << 62,
        )
    inv = np.zeros(p, dtype=np.int64)
    inv[1] = 1
    for i in range(2, p):
        inv[i] = (p - p // i) * inv[p % i] % p
    inv2 = int(inv[2])

    B = np.zeros(p, dtype=np.int64)
    B[0] = 1
    C = np.zeros(p + 2, dtype=np.int64)
    C[0] = 1
    C[1] = 1  # row m = 1
    grow = max(1, 62 - int(p**3).bit_length())
    unreduced = 0

    for n in range(2, p - 2, 2):
        m = n + 1
        for r in (m - 1, m):
            # In-place Pascal step: new C[k] = old C[k] + old C[k-1]. numpy
            # buffers the overlapping operands, so old values are used.
            C[1:r] += C[0 : r - 1]
            C[r] = 1
        unreduced += 2
        if unreduced + 2 > grow:
            C[: m + 1] %= p
            unreduced = 0
        acc = int(np.dot(C[:n], B[:n])) % p
        acc = (acc + m * (p - inv2)) % p
        B[n] = (p - acc * int(inv[m]) % p) % p
    return B.tolist()

