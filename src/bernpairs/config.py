"""Tunable limits.

Module-level singleton so library calls stay simple; tests monkeypatch fields.
Environment overrides are read once at import:

  BERNPAIRS_MAX_EXACT_N   largest index served by the exact Bernoulli path
  BERNPAIRS_PURE_PYTHON   "1" forces the pure-Python kernels (see _kernels)
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass
class Limits:
    # Exact rational Bernoulli numbers: indices above this raise ResourceLimit.
    max_exact_n: int = 20000
    # Digit lifting: nothing beyond this many digits.
    lift_max_order: int = 3
    # minimal_composite may sieve primes on demand up to this cap.
    sieve_cap: int = 20000


def _from_env() -> Limits:
    lim = Limits()
    raw = os.environ.get("BERNPAIRS_MAX_EXACT_N")
    if raw is not None:
        try:
            lim.max_exact_n = int(raw)
        except ValueError:
            raise ValueError(f"BERNPAIRS_MAX_EXACT_N must be an integer, got {raw!r}")
    return lim


LIMITS = _from_env()
