"""Minimal ratio indices for composite moduli, via simultaneous congruences.

A set of irregular pairs S = {(p_1, l_1), ..., (p_n, l_n)} with distinct
primes jointly divides the numerator ratio at m exactly when every pair's two
conditions hold at once:

    p_i | m - 1   and   m ≡ l_i (mod p_i - 1),

i.e. m - 1 ≡ p_i (l_i - 1) (mod p_i (p_i - 1)) for each i. The system is
solvable iff S is "strong friendly": pairwise l_i ≡ l_j (mod gcd(p_i-1, p_j-1))
(friendly), and whenever p_i ≡ 1 (mod p_j) also l_i ≡ 1 (mod p_j). The least
solution in [1, lcm_i p_i(p_i-1)] is the joint index of S.

lambda_* minimize the joint index over all pair choices for fixed primes.

minimal_composite enumerates the n-1 smallest pairs of each set in ascending
order under a shrinking bound U (level primes stay below
(U/prefix)^(1/remaining)) and walks each prefix's progression
m ≡ joint_index(prefix) (mod lcm p_i(p_i - 1)) for m < U. A prime q dividing
the ratio at m divides m - 1 and is irregular at m mod (q - 1) (Kummer), so
the largest prime is read off (m-1)/prod p_i and tested by one residue, never
sieved. Complete, since prod p_i <= m - 1 < U; for n = 2 only primes below
U^(1/2) are sieved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import arith
from .arith import factorize, integer_nth_root
from .bernoulli import divided_bernoulli_mod_pk
from .errors import NotIrregular, NotStrongFriendly
from .pairs import IrregularPair, PairDatabase, _sieve_many


class CrtSolution(NamedTuple):
    residue: int
    modulus: int


CongruenceSystem = Sequence[Tuple[int, int]]  # (residue, modulus) rows


def crt_solve(system: CongruenceSystem) -> Optional[CrtSolution]:
    """Solve x ≡ a_i (mod w_i) with arbitrary moduli by pairwise merging.

    Returns the class (x mod lcm) or None when two rows conflict mod the gcd
    of their moduli. No-solution is a value here, not an error: unsolvable
    systems are an expected outcome for unfriendly pair sets.
    """
    x, w = 0, 1
    for a, m in system:
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        merged = arith.crt_pair(x, w, a % m, m)
        if merged is None:
            return None
        x, w = merged
    return CrtSolution(x, w)


def _compatible(a: IrregularPair, b: IrregularPair) -> bool:
    """The pairwise strong-friendly test (both directions)."""
    if (a.l - b.l) % math.gcd(a.p - 1, b.p - 1):
        return False
    if a.p % b.p == 1 and a.l % b.p != 1:
        return False
    if b.p % a.p == 1 and b.l % a.p != 1:
        return False
    return True


def _validate_set(pairs: Iterable[IrregularPair]) -> Tuple[IrregularPair, ...]:
    ps = tuple(pairs)
    if not ps:
        raise ValueError("pair set must not be empty")
    if len({q.p for q in ps}) != len(ps):
        raise ValueError(f"pair set primes must be distinct: {ps}")
    return ps


def is_friendly(pairs: Iterable[IrregularPair]) -> bool:
    """Pairwise l_i ≡ l_j (mod gcd(p_i - 1, p_j - 1))."""
    ps = _validate_set(pairs)
    return all(
        (a.l - b.l) % math.gcd(a.p - 1, b.p - 1) == 0
        for a, b in itertools.combinations(ps, 2)
    )


def is_strong_friendly(pairs: Iterable[IrregularPair]) -> bool:
    """Friendly, plus l_i ≡ 1 (mod p_j) whenever p_i ≡ 1 (mod p_j)."""
    ps = _validate_set(pairs)
    return all(_compatible(a, b) for a, b in itertools.combinations(ps, 2))


def joint_index(pairs: Iterable[IrregularPair]) -> int:
    """The least m >= 1 with p | m-1 and m ≡ l (mod p-1) for every pair.

    Defined exactly for strong friendly sets (NotStrongFriendly otherwise);
    the solution lies in [1, lcm p(p-1)] and m-1 is divisible by every p.
    """
    ps = _validate_set(pairs)
    if not is_strong_friendly(ps):
        raise NotStrongFriendly(ps)
    sol = crt_solve([(q.p * (q.l - 1), q.p * (q.p - 1)) for q in ps])
    if sol is None:
        raise AssertionError("strong friendly systems always solve; crt bug")
    return sol.residue + 1


@dataclass(frozen=True)
class LambdaResult:
    """Minimal joint index for the prime powers dividing c.

    value is inf when no pair choice admits a solution. exact is False only
    on the mixed-exponent lower-bound path (see lambda_composite), where
    note carries the marker and pairs is None.
    """

    c: int
    value: Union[int, float]
    pairs: Optional[Tuple[IrregularPair, ...]]
    exact: bool = True
    note: str = ""

    @property
    def finite(self) -> bool:
        return self.value != math.inf


def lambda_prime(p: int, db: PairDatabase) -> int:
    """Minimal ratio index for one irregular prime: min over pairs of (l-1)p + 1."""
    rows = db.pairs_for(p)
    if not rows:
        raise NotIrregular(p)
    return (min(q.l for q in rows) - 1) * p + 1


def lambda_prime_power(p: int, r: int, db: PairDatabase) -> LambdaResult:
    """Minimal index for p^r; finite only when some pair's order-r digits all
    equal l-1 (equivalently p^(r-1) | l_r - 1), and then (l-1) p^r + 1."""
    from .conjecture import AValueResult, a_value_prime_power

    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    rows = db.pairs_for(p)
    if not rows:
        raise NotIrregular(p)
    best: Union[int, float] = math.inf
    best_pair = None
    for pair in rows:
        res = a_value_prime_power(pair, r, db)
        if isinstance(res, AValueResult) and res.m < best:
            best = res.m
            best_pair = (pair,)
    return LambdaResult(p**r, best, best_pair)


_MIXED_NOTE = "unsupported: mixed exponents"


def lambda_composite(c: int, db: PairDatabase) -> LambdaResult:
    """Minimal joint index over all pair choices for the primes dividing c.

    Exact for squarefree c (every factor irregular and covered by db; inf
    when no choice of pairs is strong friendly) and for prime powers. A c
    mixing a square factor with other primes is out of scope: the result is
    then only a lower bound, max over the prime-power factors, flagged with
    exact=False and a note, except that inf stays exact (one impossible
    factor blocks every multiple).
    """
    if c < 2:
        raise ValueError(f"need c >= 2, got {c}")
    fac = factorize(c)
    if len(fac) == 1:
        return lambda_prime_power(fac[0][0], fac[0][1], db)
    if any(e > 1 for _p, e in fac):
        bound = 0
        for p, e in fac:
            part: Union[int, float]
            part = lambda_prime(p, db) if e == 1 else lambda_prime_power(p, e, db).value
            if part == math.inf:
                return LambdaResult(c, math.inf, None, note=_MIXED_NOTE)
            bound = max(bound, int(part))
        return LambdaResult(c, bound, None, exact=False, note=_MIXED_NOTE)
    choices = []
    for p, _ in fac:
        rows = db.pairs_for(p)
        if not rows:
            raise NotIrregular(p)
        choices.append(rows)
    best: Union[int, float] = math.inf
    best_set = None
    for combo in itertools.product(*choices):
        if not is_strong_friendly(combo):
            continue
        m = joint_index(combo)
        if m < best:
            best = m
            best_set = tuple(combo)
    return LambdaResult(c, best, best_set)


@dataclass(frozen=True)
class SearchLogEntry:
    """One improving candidate: its set, joint index, and the bounds after."""

    pairs: Tuple[IrregularPair, ...]
    value: int
    bound_after: int
    root_after: int  # floor(bound ** (1/n))


@dataclass
class MnResult:
    n: int
    value: int
    c: int
    pairs: Tuple[IrregularPair, ...]
    log: List[SearchLogEntry] = field(default_factory=list)
    sieved_to: int = 0  # every prime below this was sieved
    sets_checked: int = 0  # (n-1)-prefix progressions walked


def minimal_composite(
    n: int,
    u0: Union[int, float, None] = None,
    db: Optional[PairDatabase] = None,
    jobs: Optional[int] = None,
) -> MnResult:
    """Least joint index over strong friendly sets of n distinct-prime pairs.

    Walks each (n-1)-prefix's progression below the bound U (module
    docstring), sieving prefix primes past db.max_p on demand. u0 seeds U and
    must itself be a known upper bound; None or inf means unbounded, and the
    first hit seeds U. Results are deterministic regardless of jobs.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if u0 is not None and u0 != math.inf and (u0 != int(u0) or u0 < 3):
        raise ValueError(f"u0 must be an integer >= 3 or inf, got {u0}")
    if u0 == math.inf:
        u0 = None
    if db is None:
        db = _default_seed_db(jobs)
    zeros = {p: [q.l for q in db.pairs_for(p)] for p in db.irregular_primes()}
    primes = sorted(zeros)  # irregular primes below `covered`, ascending
    covered = db.max_p
    best: Union[int, float] = math.inf if u0 is None else int(u0)
    best_set: Optional[Tuple[IrregularPair, ...]] = None
    log: List[SearchLogEntry] = []
    walked = 0

    def extend(bound: int) -> None:
        """Sieve the primes in [covered, bound)."""
        nonlocal covered
        fresh = [p for p in arith.primes_below(bound) if p >= max(5, covered)]
        for p, ls in sorted(_sieve_many(fresh, jobs).items()):
            if ls:
                zeros[p] = ls
                primes.append(p)
        covered = bound

    def recurse(prefix: Tuple[IrregularPair, ...], prod: int, i: int) -> None:
        nonlocal best, best_set, walked
        remaining = n - len(prefix)
        if remaining == 1:  # the first hit in the progression is its minimum
            walked += 1
            step = math.lcm(*(q.p * (q.p - 1) for q in prefix))
            m = joint_index(prefix)
            while m < best:
                for q, _e in factorize((m - 1) // prod):
                    k = m % (q - 1)
                    if q > prefix[-1].p and k and divided_bernoulli_mod_pk(k, q, 1) == 0:
                        best = m
                        best_set = prefix + (IrregularPair(q, k),)
                        log.append(SearchLogEntry(best_set, m, m, integer_nth_root(m, n)))
                        return
                m += step
            return
        while True:
            if best == math.inf:
                limit: Union[int, float] = math.inf
            else:
                limit = integer_nth_root((int(best) - 1) // prod, remaining)
            if i == len(primes):
                if covered > limit:
                    return
                # the gap to the root at once; unbounded, step by step until
                # a walk sets U
                extend(covered + 1 if limit == math.inf else int(limit) + 1)
                continue
            q = primes[i]
            if q > limit:
                return
            i += 1
            for l in zeros[q]:
                pair = IrregularPair(q, l)
                if all(_compatible(pair, held) for held in prefix):
                    recurse(prefix + (pair,), prod * q, i)

    recurse((), 1, 0)
    if best_set is None:  # only reachable with a finite u0
        raise ValueError(f"no strong friendly {n}-set has joint index below {u0}")
    return MnResult(
        n=n,
        value=int(best),
        c=math.prod(q.p for q in best_set),
        pairs=best_set,
        log=log,
        sieved_to=covered,
        sets_checked=walked,
    )


def _default_seed_db(jobs: Optional[int]) -> PairDatabase:
    from .pairs import build_database

    return build_database(160, jobs=jobs)
