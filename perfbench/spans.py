"""In-memory spans around calls into the bernpairs layers, and the per-layer
metrics derived from them.

Each wrapped function is replaced at the name its caller looks it up under
(for example ``bernpairs.pairs.divided_bernoulli_mod_pk``, which is how
``pairs.delta`` reaches the Bernoulli layer). A span records its name, start,
end, parent and, for the kernels, the work its arguments imply. Spans stay in
memory until the iteration ends; nothing is written while the workload runs.

A target that no longer exists (a later refactor may delete
``_kernels.power_sum``) is listed in ``Tracer.absent`` and its metrics read 0;
tracing never fails because a name moved.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    work: int = 0  # computed operation count, for kernel spans


def _sieve_ops(args: tuple, kwargs: dict) -> int:
    # dot-product terms of one sieve row: sum of n over even 2 <= n <= p-3
    k = (args[0] - 3) // 2
    return k * (k + 1)


def _power_sum_terms(args: tuple, kwargs: dict) -> int:
    _n, p, m, _K = args
    return p**m


def _db_pairs(args: tuple, kwargs: dict) -> int:
    return len(args[0])


# (module, attribute path, span name, work counter); the attribute path may
# name a class attribute as "Class.method".
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("bernpairs._kernels", "bern_even_residues", "kernels.sieve_row", _sieve_ops),
    ("bernpairs._kernels", "power_sum", "kernels.power_sum", _power_sum_terms),
    ("bernpairs.pairs", "divided_bernoulli_mod_pk", "bernoulli.divided", None),
    ("bernpairs.bernoulli", "bernoulli_exact", "bernoulli.exact", None),
    ("bernpairs.conjecture", "numerator_pair", "bernoulli.numerator_pair", None),
    ("bernpairs.pairs", "_sieve_many", "pairs.sieve_many", None),
    ("bernpairs.composite", "_sieve_many", "pairs.sieve_many", None),
    ("bernpairs.pairs", "delta", "pairs.delta", None),
    ("bernpairs.pairs", "save_database", "pairs.db_save", None),
    ("bernpairs.pairs", "load_database", "pairs.db_load", None),
    ("bernpairs.conjecture", "find_exceptions", "conjecture.find_exceptions", _db_pairs),
    ("bernpairs.conjecture", "verify_ratio", "conjecture.verify_ratio", None),
    ("bernpairs.composite", "minimal_composite", "composite.minimal_composite", None),
    ("bernpairs.composite", "_GrowingTable._extend", "composite.extend", None),
    ("bernpairs.composite", "joint_index", "composite.joint_index", None),
    ("bernpairs.arith", "primes_below", "arith.primes_below", None),
    ("bernpairs.conjecture", "factorize", "arith.factorize", None),
)

# lift_digits is a generator: every resumption after the first (which only
# computes delta and yields l) solves one lifting digit.
LIFT_TARGET = ("bernpairs.pairs", "lift_digits", "pairs.lift_digit")


class Tracer:
    """Records spans for wrapped calls; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _open(self, name: str, work: int) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, work))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    def _wrap(self, fn: Callable, name: str, work: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, work(args, kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            yield next(gen)
            while True:
                idx = self._open(name, 0)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield value

        return wrapper

    def _resolve(self, module: str, path: str) -> Optional[Tuple[object, str]]:
        try:
            owner: object = importlib.import_module(module)
        except ImportError:
            return None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        return (owner, attr) if hasattr(owner, attr) else None

    def install(self) -> "Tracer":
        wanted = [(m, a, n, w, False) for m, a, n, w in TARGETS]
        wanted.append((*LIFT_TARGET, None, True))
        for module, path, name, work, is_gen in wanted:
            found = self._resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr = found
            fn = getattr(owner, attr)
            patched = self._wrap_generator(fn, name) if is_gen else self._wrap(fn, name, work)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, patched)
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start, cur_end = None, None
        for a, b in sorted(children.get(i, [])):
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.end - s.start - covered)
    return out


def _tail(durations: List[float]) -> float:
    """The highest percentile with ten samples beyond it (the maximum when
    there are ten samples or fewer)."""
    xs = sorted(durations)
    return xs[-11] if len(xs) > 10 else xs[-1]


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer counts and times of one traced iteration (0 where no span ran)."""
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def total(name: str) -> float:
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, []))

    def self_total(name: str) -> float:
        return sum(selfs[i] for i in by_name.get(name, []))

    def work(name: str) -> int:
        return sum(spans[i].work for i in by_name.get(name, []))

    def per_s(count: int, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    # a divided call "descends into a power sum" when any descendant is one
    descends = set()
    for i in by_name.get("kernels.power_sum", []):
        j = spans[i].parent
        while j is not None:
            descends.add(j)
            j = spans[j].parent
    divided = by_name.get("bernoulli.divided", [])

    row_ms = [(spans[i].end - spans[i].start) * 1e3 for i in by_name.get("kernels.sieve_row", [])]
    return {
        "kernels.sieve_row.calls": calls("kernels.sieve_row"),
        "kernels.sieve_row.s": total("kernels.sieve_row"),
        "kernels.sieve_row.p50_ms": statistics.median(row_ms) if row_ms else 0.0,
        "kernels.sieve_row.tail_ms": _tail(row_ms) if row_ms else 0.0,
        "kernels.sieve_row.ops": work("kernels.sieve_row"),
        "kernels.sieve_row.ops_per_s": per_s(work("kernels.sieve_row"), total("kernels.sieve_row")),
        "kernels.power_sum.calls": calls("kernels.power_sum"),
        "kernels.power_sum.s": total("kernels.power_sum"),
        "kernels.power_sum.terms": work("kernels.power_sum"),
        "kernels.power_sum.terms_per_s": per_s(work("kernels.power_sum"), total("kernels.power_sum")),
        "bernoulli.divided.calls": len(divided),
        "bernoulli.divided.self_s": self_total("bernoulli.divided"),
        "bernoulli.divided.power_sum_frac": (
            sum(1 for i in divided if i in descends) / len(divided) if divided else 0.0
        ),
        "bernoulli.exact.calls": calls("bernoulli.exact"),
        "bernoulli.exact.s": total("bernoulli.exact"),
        "pairs.sieve_many.calls": calls("pairs.sieve_many"),
        "pairs.sieve_many.s": total("pairs.sieve_many"),
        "pairs.delta.calls": calls("pairs.delta"),
        "pairs.delta.s": total("pairs.delta"),
        "pairs.lift_digit.calls": calls("pairs.lift_digit"),
        "pairs.lift_digit.s": total("pairs.lift_digit"),
        "pairs.db_save.s": total("pairs.db_save"),
        "pairs.db_load.s": total("pairs.db_load"),
        "conjecture.find_exceptions.s": total("conjecture.find_exceptions"),
        "conjecture.find_exceptions.pairs": work("conjecture.find_exceptions"),
        "conjecture.verify_ratio.calls": calls("conjecture.verify_ratio"),
        "conjecture.verify_ratio.self_s": self_total("conjecture.verify_ratio"),
        "composite.minimal_composite.s": total("composite.minimal_composite"),
        "composite.extend.calls": calls("composite.extend"),
        "composite.extend.s": total("composite.extend"),
        "composite.search.self_s": self_total("composite.minimal_composite"),
        "composite.joint_index.calls": calls("composite.joint_index"),
        "composite.joint_index.s": total("composite.joint_index"),
        "arith.primes_below.calls": calls("arith.primes_below"),
        "arith.primes_below.s": total("arith.primes_below"),
        "arith.factorize.calls": calls("arith.factorize"),
        "arith.factorize.s": total("arith.factorize"),
    }
