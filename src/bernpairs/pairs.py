"""Irregular pairs: sieving, storage, and p-adic digit lifting.

An irregular pair (p, l) has p prime >= 5, l even, 2 <= l <= p-3, and
p | num(B_l). Its delta invariant is the slope

    delta = (B_(l + p - 1)/(l + p - 1) - B_l/l) / p  (mod p),

nonzero for every pair checked here (and conjecturally always). When delta is
nonzero each pair lifts to a unique chain of digits s_2, s_3, ... with

    l_j = l + s_2 phi(p) + s_3 phi(p^2) + ... ,  ord_p(B_(l_j)/l_j) >= j,

found digit by digit: if B_(l_j)/l_j ≡ c p^j (mod p^(j+1)) then the next digit
is s = -c / delta (mod p). Every solved digit is re-checked against the
defining congruence before it is trusted.
"""

from __future__ import annotations

import multiprocessing
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import _kernels
from .arith import is_prime
from .bernoulli import divided_bernoulli_mod_pk
from .config import LIMITS
from .errors import (
    BernpairsError,
    DatabaseTooSmall,
    DeltaZero,
    FormatError,
    NotIrregular,
    ResourceLimit,
)

# CPython's builtin SHA-256: importing hashlib maps OpenSSL, about 3.5 MB
# resident, which every run that loads this module would pay
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


@dataclass(frozen=True, order=True)
class IrregularPair:
    """A pair (p, l): p odd prime >= 5, l even, 2 <= l <= p-3."""

    p: int
    l: int

    def __post_init__(self) -> None:
        if self.p < 5 or not is_prime(self.p):
            raise ValueError(f"p must be a prime >= 5, got {self.p}")
        if self.l % 2 or not 2 <= self.l <= self.p - 3:
            raise ValueError(
                f"l must be even with 2 <= l <= p-3, got l={self.l} for p={self.p}"
            )

    def __str__(self) -> str:
        return f"({self.p},{self.l})"


@dataclass(frozen=True)
class DeltaValue:
    pair: IrregularPair
    delta: int  # in [0, p)


@dataclass(frozen=True)
class OrderedPair:
    """A pair with its lifting digits (s_1, ..., s_n); s_1 is the base index l."""

    p: int
    digits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("need at least one digit")
        IrregularPair(self.p, self.digits[0])
        for s in self.digits[1:]:
            if not 0 <= s < self.p:
                raise ValueError(f"digit {s} out of range for p={self.p}")

    @property
    def order(self) -> int:
        return len(self.digits)

    @property
    def pair(self) -> IrregularPair:
        return IrregularPair(self.p, self.digits[0])

    @property
    def index(self) -> int:
        """The order-n index l_n = sum_v s_v phi(p^(v-1)), phi(1) = 1."""
        p = self.p
        return self.digits[0] + sum(
            s * p ** (v - 1) * (p - 1) for v, s in enumerate(self.digits[1:], 1)
        )

    def __str__(self) -> str:
        return f"({self.p};" + ",".join(str(s) for s in self.digits) + ")"


def sieve_prime(p: int) -> List[IrregularPair]:
    """All irregular pairs for one prime p >= 5, by the mod-p kernel sieve."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    return [IrregularPair(p, k) for k in _sieve_worker(p)[1]]


def _sieve_worker(p: int) -> Tuple[int, List[int]]:
    row = _kernels.bern_even_residues(p)
    return p, [k for k in range(2, p - 2, 2) if row[k] == 0]


_HEADER = re.compile(
    r"# bernpairs-db v2 max_p=(?P<max_p>\d+) rows=(?P<rows>\d+)"
    r" sha256=(?P<sha256>[0-9a-f]{64})"
)


def _body_digest(lines: Sequence[str]) -> str:
    """SHA-256 of the body lines, each ended by a newline, as save_database writes them."""
    return sha256("".join(f"{x}\n" for x in lines).encode("ascii")).hexdigest()


class PairDatabase:
    """Irregular pairs for every prime p < max_p, with optional stored deltas.

    entries maps p to an ascending list of (l, delta-or-None); only primes with
    at least one pair appear. Content is canonical: equal databases compare
    equal regardless of how they were built (jobs count, load order).
    """

    def __init__(
        self,
        max_p: int,
        entries: Optional[Dict[int, Sequence[Tuple[int, Optional[int]]]]] = None,
    ):
        if max_p < 2:
            raise ValueError(f"max_p must be >= 2, got {max_p}")
        self.max_p = max_p
        self._entries: Dict[int, List[Tuple[int, Optional[int]]]] = {}
        for p in sorted(entries or {}):
            if p >= max_p:
                raise ValueError(f"entry prime {p} not below max_p={max_p}")
            rows = sorted(entries[p])
            for l, d in rows:
                IrregularPair(p, l)  # validates p and l
                if d is not None and not 0 <= d < p:
                    raise ValueError(f"stored delta {d} out of range for p={p}")
            if len({l for l, _ in rows}) != len(rows):
                raise ValueError(f"duplicate pair index for p={p}")
            if rows:  # a prime without pairs is regular, so it gets no key
                self._entries[p] = rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairDatabase):
            return NotImplemented
        return self.max_p == other.max_p and self._entries == other._entries

    def __len__(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def _check_covered(self, p: int) -> None:
        if p >= self.max_p:
            raise DatabaseTooSmall(needed=p + 1, have=self.max_p)

    def irregular_primes(self) -> List[int]:
        return sorted(self._entries)

    def is_irregular(self, p: int) -> bool:
        self._check_covered(p)
        return p in self._entries

    def pairs_for(self, p: int) -> List[IrregularPair]:
        self._check_covered(p)
        return [IrregularPair(p, l) for l, _ in self._entries.get(p, [])]

    def index_of_irregularity(self, p: int) -> int:
        self._check_covered(p)
        return len(self._entries.get(p, []))

    def all_pairs(self) -> Iterator[IrregularPair]:
        for p in sorted(self._entries):
            for l, _ in self._entries[p]:
                yield IrregularPair(p, l)

    def delta_for(self, pair: IrregularPair) -> Optional[int]:
        self._check_covered(pair.p)
        for l, d in self._entries.get(pair.p, []):
            if l == pair.l:
                return d
        raise NotIrregular(pair.p, f"pair {pair} not in database")

    def set_delta(self, pair: IrregularPair, value: int) -> None:
        if not 0 <= value < pair.p:
            raise ValueError(f"delta {value} out of range for p={pair.p}")
        rows = self._entries.get(pair.p, [])
        for i, (l, _) in enumerate(rows):
            if l == pair.l:
                rows[i] = (l, value)
                return
        raise NotIrregular(pair.p, f"pair {pair} not in database")

    def restrict(self, new_max_p: int) -> "PairDatabase":
        """The sub-database of primes below new_max_p (must not exceed max_p)."""
        if new_max_p > self.max_p:
            raise DatabaseTooSmall(needed=new_max_p, have=self.max_p)
        return PairDatabase(
            new_max_p,
            {p: rows for p, rows in self._entries.items() if p < new_max_p},
        )


def save_database(db: PairDatabase, path: str) -> None:
    """Write db as a v2 header (bound, row count, body digest) and one p,l,delta line per pair."""
    # third field always present, empty when the delta was never computed
    rows = [
        f"{p},{l}," if d is None else f"{p},{l},{d}"
        for p in sorted(db._entries)
        for l, d in db._entries[p]
    ]
    head = (
        f"# bernpairs-db v2 max_p={db.max_p} rows={len(rows)} "
        f"sha256={_body_digest(rows)}"
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join([head] + rows) + "\n")


def load_database(path: str) -> PairDatabase:
    """Read a save_database file; FormatError names the first bad line, 1 for the header."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise FormatError(1, "empty file, expected a bernpairs-db header")
    head = _HEADER.fullmatch(raw[0].strip())
    if not head:  # v1 included: it has no row count or digest to check
        raise FormatError(
            1, f"expected a v2 header, got {raw[0]!r}; rewrite the file with `bernpairs sieve`"
        )
    max_p = int(head["max_p"])
    entries: Dict[int, List[Tuple[int, Optional[int]]]] = {}
    seen = set()
    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) == 3 and parts[2] == "":
            parts = parts[:2]  # empty delta field
        if len(parts) not in (2, 3) or not all(q.isdigit() for q in parts):
            raise FormatError(lineno, f"expected 'p,l[,delta]', got {line!r}")
        p, l = int(parts[0]), int(parts[1])
        d = int(parts[2]) if len(parts) == 3 else None
        try:
            IrregularPair(p, l)
        except ValueError as exc:
            raise FormatError(lineno, str(exc)) from None
        if p >= max_p:
            raise FormatError(lineno, f"prime {p} not below max_p={max_p}")
        if d is not None and not 0 <= d < p:
            raise FormatError(lineno, f"delta {d} out of range for p={p}")
        if (p, l) in seen:
            raise FormatError(lineno, f"duplicate pair ({p},{l})")
        seen.add((p, l))
        entries.setdefault(p, []).append((l, d))
    if len(seen) != int(head["rows"]):
        raise FormatError(
            1, f"header promises {head['rows']} rows, the body holds {len(seen)}"
        )
    if _body_digest(raw[1:]) != head["sha256"]:
        raise FormatError(1, "body does not match the header's sha256")
    return PairDatabase(max_p, entries)


# A batch whose estimated inline seconds stay below this runs inline (see
# _pool_map)
POOL_MIN_SECONDS = 0.25


def _row_seconds(p: int) -> float:
    """Estimated inline seconds of one sieve row. Fitted to the rows below
    10000 timed largest-first in fresh processes (2 vCPUs): the sums below
    2000, 4000 and 10000 are 0.101, 0.436 and 3.60 s, against 0.098, 0.415
    and 3.69 s measured."""
    return 3e-7 * p + 5e-11 * p * p


def _lift_seconds(p: int) -> float:
    """Estimated inline seconds of one order-2 lift or delta, fitted like
    _row_seconds to the 421 lifts below 6500: 2.42 s against 2.35 s."""
    return 1.9e-6 * p


def _pool_map(
    fn: Callable, work: Sequence, jobs: Optional[int], seconds: Callable[[Any], float]
) -> List:
    """[fn(w) for w in work], in input order, inline or in a process pool.

    seconds(w) estimates w's inline time. The batch pools only when the sum
    reaches POOL_MIN_SECONDS and min(jobs, cores, len(work)) > 1 (jobs=None:
    all cores). Fresh processes on 2 vCPUs, inline against 2 workers, with
    the estimate in brackets: build_database(2000) [0.10 s] took 101-172 ms
    against 74-155 ms, 3000 [0.24 s] 225-280 against 144-318 ms, 4000
    [0.44 s] 428-701 against 252-441 ms, 6500 [1.30 s] 1.41-1.75 against
    0.71-0.96 s; the order-2 scan below 1000 [0.08 s] 42-67 against 52-68 ms.
    So a pool starts to win wall time near 0.1 s. The threshold sits above
    that: below it a pool saves under 0.1 s but forks workers, grows the
    parent's resident set and, at 3000, spent 30-60% more CPU in all.

    pool.map sends work in order, in chunks of ceil(len/(4 workers)) items,
    so callers hand it largest-first. Each chunk's result message wakes the
    parent's result thread: build_database(6500) cost the parent 77-122 ms
    of CPU in chunks of 1 item and 16-23 ms in pool.map's 8 chunks of 105.
    """
    cores = os.cpu_count() or 1
    workers = min(cores if jobs is None else jobs, cores, len(work))
    if workers <= 1 or sum(map(seconds, work)) < POOL_MIN_SECONDS:
        return [fn(w) for w in work]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(fn, work)


def _sieve_many(ps: Sequence[int], jobs: Optional[int]) -> Dict[int, List[int]]:
    """Zero indices for each prime in ps; dispatched largest-first because the
    per-prime cost grows like p^2. Content is order-independent. Callers go
    through _extend, which checks the largest row's size first."""
    return dict(_pool_map(_sieve_worker, sorted(ps, reverse=True), jobs, _row_seconds))


def _extend(db: PairDatabase, max_p: int, jobs: Optional[int]) -> PairDatabase:
    """db with every prime 5 <= p in [db.max_p, max_p) sieved in.

    The largest new prime's row size is checked before the primes below
    max_p are listed, which takes max_p bytes, and before any row is sieved:
    pool.map reports a worker's error only once every chunk is done.
    """
    from .arith import primes_below

    lo = max(5, db.max_p)
    top = max_p - 1
    while top >= lo and not is_prime(top):
        top -= 1
    if top >= lo:
        _kernels.check_row_size(top)
    zeros = _sieve_many([p for p in primes_below(max_p) if p >= lo], jobs)
    entries = dict(db._entries)
    entries.update((p, [(l, None) for l in ls]) for p, ls in zeros.items())
    return PairDatabase(max_p, entries)


def build_database(max_p: int, jobs: Optional[int] = None) -> PairDatabase:
    """Sieve every prime 5 <= p < max_p. jobs=None uses all cores, 1 is inline.

    Content is deterministic and independent of jobs.
    """
    return _extend(PairDatabase(2), max_p, jobs)


def _residue_and_delta(pair: IrregularPair) -> Tuple[int, int]:
    """(B_l/l mod p^2, delta), so that a lift reuses the residue delta needs."""
    p, l = pair.p, pair.l
    w0 = divided_bernoulli_mod_pk(l, p, 2)
    if w0 % p:
        raise NotIrregular(p, f"B_{l}/{l} is nonzero mod {p}")
    w1 = divided_bernoulli_mod_pk(l + (p - 1), p, 2)
    diff = (w1 - w0) % (p * p)
    if diff % p:
        raise AssertionError("Kummer congruence violated; kernel bug")
    return w0, diff // p


def delta(pair: IrregularPair) -> DeltaValue:
    """The lifting slope of an irregular pair, as a residue digit in [0, p).

    Raises NotIrregular when B_l/l is not divisible by p (so the input was not
    an irregular pair after all).
    """
    return DeltaValue(pair, _residue_and_delta(pair)[1])


def lift_digits(pair: IrregularPair) -> Iterator[int]:
    """Yield s_1 = l, then each further lifting digit on demand.

    The order limit is checked lazily, so consuming few digits never pays for
    (or errors on) deeper orders. Raises DeltaZero when the slope
    vanishes; raises NotIrregular for a non-pair.
    """
    p, l = pair.p, pair.l
    w, d = _residue_and_delta(pair)
    if d == 0:
        raise DeltaZero(p, l)
    dinv = pow(d, -1, p)
    yield l
    l_j = l
    j = 1
    while True:
        if j + 1 > LIMITS.lift_max_order:
            raise ResourceLimit(
                f"lifting to order {j + 1} is beyond the configured maximum "
                f"{LIMITS.lift_max_order}",
                needed=j + 1,
                limit=LIMITS.lift_max_order,
            )
        pj = p**j
        if j > 1:  # at j = 1, w is B_l/l mod p^2 from the slope already
            w = divided_bernoulli_mod_pk(l_j, p, j + 1)
        if w % pj:
            raise AssertionError(f"order-{j} index {l_j} lost divisibility")
        s = -(w // pj) * dinv % p
        l_next = l_j + s * p ** (j - 1) * (p - 1)
        if divided_bernoulli_mod_pk(l_next, p, j + 1) != 0:
            raise AssertionError(
                f"solved digit {s} fails the order-{j + 1} congruence for {pair}"
            )
        yield s
        l_j = l_next
        j += 1


def lift(pair: IrregularPair, order: int) -> OrderedPair:
    """The unique order-n lift of a pair (order >= 1 digits, first is l)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    gen = lift_digits(pair)
    digits = tuple(next(gen) for _ in range(order))
    return OrderedPair(pair.p, digits)


@dataclass
class ScanReport:
    """Order-2 scan results over a database.

    special holds every pair whose digits satisfy s_2 = s_1 - 1; min_abs_diff
    is the smallest |s_1 - s_2| seen (None when nothing was liftable), with
    the pairs attaining it in min_pairs. Pairs that could not be processed
    land in failures as (pair, reason) without aborting the scan.
    """

    max_p: int
    special: List[OrderedPair] = field(default_factory=list)
    min_abs_diff: Optional[int] = None
    min_pairs: List[OrderedPair] = field(default_factory=list)
    failures: List[Tuple[IrregularPair, str]] = field(default_factory=list)
    checked: int = 0


def _scan_worker(args: Tuple[int, int]) -> Tuple[int, int, Optional[int], str]:
    p, l = args
    try:
        gen = lift_digits(IrregularPair(p, l))
        next(gen)
        return p, l, next(gen), ""
    except BernpairsError as exc:
        return p, l, None, f"{type(exc).__name__}: {exc}"


def scan_special_order2(db: PairDatabase, jobs: Optional[int] = None) -> ScanReport:
    """Lift every pair in db to order 2 and report the s_2 = s_1 - 1 hits."""
    # largest-first, like the sieve: a lift's cost grows with p
    work = sorted(((q.p, q.l) for q in db.all_pairs()), reverse=True)
    rows = _pool_map(_scan_worker, work, jobs, lambda w: _lift_seconds(w[0]))
    report = ScanReport(max_p=db.max_p)
    for p, l, s2, err in sorted(rows):
        pair = IrregularPair(p, l)
        if s2 is None:
            report.failures.append((pair, err))
            continue
        report.checked += 1
        lifted = OrderedPair(p, (l, s2))
        if s2 == l - 1:
            report.special.append(lifted)
        diff = abs(l - s2)
        if report.min_abs_diff is None or diff < report.min_abs_diff:
            report.min_abs_diff = diff
            report.min_pairs = [lifted]
        elif diff == report.min_abs_diff:
            report.min_pairs.append(lifted)
    return report
