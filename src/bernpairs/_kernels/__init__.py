"""Kernel backend selection.

The compiled extension is used when present; BERNPAIRS_PURE_PYTHON=1 forces the
numpy fallback.
"""

from __future__ import annotations

import os
from typing import List

from . import pure

if os.environ.get("BERNPAIRS_PURE_PYTHON") == "1":
    _native = None
else:
    try:
        from . import _native
    except ImportError:
        _native = None

# Largest p the native sieve's u64 dot-product bound allows (p^3 < 2^62).
_NATIVE_SIEVE_MAX_P = 1 << 20


def backend_name() -> str:
    return "native" if _native is not None else "pure"


def bern_even_residues(p: int) -> List[int]:
    if _native is not None and p < _NATIVE_SIEVE_MAX_P:
        return _native.bern_even_residues(p)
    return pure.bern_even_residues(p)

