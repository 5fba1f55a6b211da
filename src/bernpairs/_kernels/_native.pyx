# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Native kernel: the mod-p Bernoulli sieve.

The contract matches _kernels.pure exactly; see the docstring there. The sieve
keeps row entries reduced below p (u32, conditional subtract) and accumulates
the dot product in u64, safe while p^3/2 < 2^63, i.e. p < 2.6e6.
"""

from libc.stdlib cimport free, malloc

ctypedef unsigned long long u64
ctypedef unsigned int u32


def bern_even_residues(int p):
    """B_k mod p for even k in [2, p-3]; list of length p, zeros elsewhere."""
    if p < 5 or p % 2 == 0:
        raise ValueError(f"need an odd prime >= 5, got {p}")
    if <u64> p * p * p > (<u64> 1) << 62:
        raise ValueError(f"p={p} too large for the u64 accumulation bound")
    cdef u32* C = <u32*> malloc((p + 2) * sizeof(u32))
    cdef u32* B = <u32*> malloc(p * sizeof(u32))
    cdef u32* inv = <u32*> malloc(p * sizeof(u32))
    if C == NULL or B == NULL or inv == NULL:
        free(C); free(B); free(inv)
        raise MemoryError()
    cdef int n, m, r, k
    cdef u64 acc
    cdef u32 up = <u32> p, inv2
    with nogil:
        inv[1] = 1
        for k in range(2, p):
            inv[k] = <u32> ((<u64> (p - p // k) * inv[p % k]) % up)
        inv2 = inv[2]
        for k in range(p):
            B[k] = 0
        B[0] = 1
        C[0] = 1
        C[1] = 1  # row m = 1
        for n in range(2, p - 2, 2):
            m = n + 1
            for r in range(m - 1, m + 1):
                for k in range(r - 1, 0, -1):
                    C[k] = C[k] + C[k - 1]
                    if C[k] >= up:
                        C[k] -= up
                C[r] = 1
            acc = 0
            for k in range(0, n, 2):
                acc += <u64> C[k] * B[k]
            acc = acc % up
            acc = (acc + <u64> m * (up - inv2)) % up
            B[n] = <u32> ((up - (acc * inv[m]) % up) % up)
    out = [B[k] for k in range(p)]
    free(C); free(B); free(inv)
    return out

