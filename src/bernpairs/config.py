"""Tunable limits.

Module-level singleton so library calls stay simple; tests monkeypatch fields.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Limits:
    # Exact rational Bernoulli numbers: indices above this raise ResourceLimit.
    max_exact_n: int = 20000
    # Digit lifting: nothing beyond this many digits.
    lift_max_order: int = 3


LIMITS = Limits()
