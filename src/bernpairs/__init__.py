"""Irregular pairs of Bernoulli numbers and the minimal indices they divide.

The package sieves irregular pairs (p, l), lifts them p-adically through
their delta invariants, evaluates the candidate minimal indices (l-1)p^r + 1
together with the witness test that can spoil them, and searches for the
least index divisible by a composite via simultaneous congruences.
"""

from .arith import (
    crt_pair,
    factorize,
    integer_nth_root,
    is_prime,
    primes_below,
)
from .bernoulli import (
    bernoulli_exact,
    bernoulli_mod_p_all,
    divided_bernoulli_mod_pk,
    numerator_pair,
)
from .composite import (
    CrtSolution,
    LambdaResult,
    MnResult,
    SearchLogEntry,
    crt_solve,
    is_friendly,
    is_strong_friendly,
    joint_index,
    lambda_composite,
    lambda_prime,
    lambda_prime_power,
    minimal_composite,
)
from .config import LIMITS, Limits
from .conjecture import (
    AValueResult,
    ExceptionRecord,
    NoSolution,
    a_value_prime_power,
    find_exceptions,
    verify_ratio,
)
from .errors import (
    BernpairsError,
    DatabaseTooSmall,
    DeltaZero,
    FormatError,
    NotIrregular,
    NotStrongFriendly,
    PoleAtIndex,
    ResourceLimit,
)
from .pairs import (
    DeltaValue,
    IrregularPair,
    OrderedPair,
    PairDatabase,
    ScanReport,
    build_database,
    delta,
    lift,
    lift_digits,
    load_database,
    save_database,
    scan_special_order2,
    sieve_prime,
)

__version__ = "0.1.0"

__all__ = [
    "AValueResult",
    "BernpairsError",
    "CrtSolution",
    "DatabaseTooSmall",
    "DeltaValue",
    "DeltaZero",
    "ExceptionRecord",
    "FormatError",
    "IrregularPair",
    "LIMITS",
    "LambdaResult",
    "Limits",
    "MnResult",
    "NoSolution",
    "NotIrregular",
    "NotStrongFriendly",
    "OrderedPair",
    "PairDatabase",
    "PoleAtIndex",
    "ResourceLimit",
    "ScanReport",
    "SearchLogEntry",
    "a_value_prime_power",
    "bernoulli_exact",
    "bernoulli_mod_p_all",
    "build_database",
    "crt_pair",
    "crt_solve",
    "delta",
    "divided_bernoulli_mod_pk",
    "factorize",
    "find_exceptions",
    "integer_nth_root",
    "is_friendly",
    "is_prime",
    "is_strong_friendly",
    "joint_index",
    "lambda_composite",
    "lambda_prime",
    "lambda_prime_power",
    "lift",
    "lift_digits",
    "load_database",
    "minimal_composite",
    "numerator_pair",
    "primes_below",
    "save_database",
    "scan_special_order2",
    "sieve_prime",
    "verify_ratio",
]
