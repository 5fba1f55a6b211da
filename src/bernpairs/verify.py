"""Self-check suite: recompute bundled reference values from scratch.

CHECKS is the one table of reference values: each row names a computation
and the value it must equal exactly; there are no tolerances anywhere. The
tests run the same rows by id through run_check and assert no row's value a
second time. CLI_EXAMPLES gives each subcommand but `sieve` and `verify` a
row cli/<id> that pins its exit code and exact stdout; row cli/pairs-157
lists a file that `sieve` wrote. The 52 quick rows take about 1 s
together, the M_2 search included; the 58 of the full tier add the database
build to p = 16000, the two-route ratio check at its 954 candidate indices
(about 4 s) and the order-2 scan below 1000, about 24 s with one job and
14-15 s with two (2 vCPUs, numpy sieve). Each PASS/FAIL line ends in the
row's wall seconds.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .arith import factorize
from .bernoulli import bernoulli_exact, divided_bernoulli_mod_pk, numerator_pair
from .composite import (
    LambdaResult, crt_solve, is_friendly, is_strong_friendly, joint_index, lambda_composite,
    lambda_prime, minimal_composite,
)
from .conjecture import (
    AValueResult, NoSolution, a_value_prime_power, find_exceptions, verify_ratio,
)
from .pairs import IrregularPair as P
from .pairs import (
    PairDatabase, build_database, delta, lift, save_database, scan_special_order2, sieve_prime,
)


class _Ctx:
    """One lazily built database: a larger bound rebuilds it, a smaller one
    restricts it.

    db seeds a database built elsewhere, so a caller that already holds one
    never sieves its primes again.
    """

    def __init__(self, jobs: Optional[int] = None, db: Optional[PairDatabase] = None):
        self.jobs = jobs
        self._db = db

    def db(self, max_p: int) -> PairDatabase:
        if self._db is None or max_p > self._db.max_p:
            self._db = build_database(max_p, jobs=self.jobs)
        return self._db.restrict(max_p)


# one tuple per reference exception row: pair, index, factors of l-1, witnesses
EXCEPTION_ROWS = (
    ((6449, 4884), 31490468, ((19, 1), (257, 1)), ((257, 164),)),
    ((8677, 2658), 23054790, ((2657, 1),), ((2657, 710),)),
    ((11351, 1044), 11839094, ((7, 1), (149, 1)), ((149, 130),)),
    ((12527, 2122), 26569768, ((3, 1), (7, 1), (101, 1)), ((101, 68),)),
    ((15823, 482), 7610864, ((13, 1), (37, 1)), ((37, 32),)),
)

DB160_PAIRS = (
    (37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22), (149, 130), (157, 62), (157, 110)
)

# the M_2 search on the p < 160 database below u0: its minimum, and each
# improving log row as (value, which is also the new bound; root; pair set)
MN2_SEARCH = {
    "u0": 7610864,
    "value": 107430,
    "c": 103 * 149,
    "pairs": ((103, 24), (149, 130)),
    "log": ((272876, 522, ((37, 32), (59, 44))), (107430, 327, ((103, 24), (149, 130)))),
}

# A(p)/2 for the first seven irregular primes, A(p) the least m with p
# dividing num(B_m/m) / num(B_m/(m(m-1))): the sequence the paper is named for
A092291 = {37: 574, 59: 1269, 67: 1910, 101: 3384, 103: 1185, 131: 1376, 149: 9611}


def _run_cli(argv: List[str]) -> Tuple[int, str]:
    from . import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _pairs(pairs: Iterable[P]) -> Tuple[Tuple[int, int], ...]:
    return tuple((q.p, q.l) for q in pairs)


def _friendliness(*pairs: P) -> Tuple[bool, bool]:
    return is_friendly(pairs), is_strong_friendly(pairs)


def _a092291(ctx: _Ctx) -> Dict[int, Fraction]:
    # halves as fractions, so an odd A(p) cannot round to a match
    db = ctx.db(160)
    return {p: Fraction(lambda_prime(p, db), 2) for p in db.irregular_primes()[:7]}


def _cli_sieve_then_pairs(ctx: _Ctx) -> Tuple[int, Tuple[int, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.txt")
        code, _out = _run_cli(["sieve", "--max-p", "160", "--out", path, "--jobs", "1"])
        return code, _run_cli(["pairs", "--p", "157", "--db", path])


def _cli_example(args: str, bound: Optional[int], ctx: _Ctx) -> Tuple[int, str]:
    """The command's exit code and stdout, given ctx.db(bound) as --db unless
    bound is None."""
    argv = args.split()
    if bound is None:
        return _run_cli(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.txt")
        save_database(ctx.db(bound), path)
        return _run_cli([*argv, "--db", path])


def _exception_rows(db: PairDatabase) -> Tuple[tuple, ...]:
    return tuple(((r.pair.p, r.pair.l), r.m, r.factors, r.witnesses) for r in find_exceptions(db))


def _ratio_candidates(ctx: _Ctx) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """verify_ratio against Kummer at every candidate index below 16000.

    At m = (l-1)p + 1, a prime q exactly dividing m-1 divides the ratio iff
    k = m mod (q-1) is nonzero and (q, k) is a pair of the database, which
    holds every such q <= p. Returns the mismatch count and the pairs whose
    ratio is not p.
    """
    db = ctx.db(16000)
    mismatches, off = 0, []
    for pair in db.all_pairs():
        m = (pair.l - 1) * pair.p + 1
        predicted = 1
        for q, e in factorize(m - 1):
            k = m % (q - 1)
            if k and any(x.l == k for x in db.pairs_for(q)):
                if e > 1:  # v_q(B_m/m) could exceed 1; the sieve cannot tell
                    raise ValueError(f"{q}^{e} divides m-1 at m={m} with ({q},{k}) irregular")
                predicted *= q
        got = verify_ratio(m)
        mismatches += got != predicted
        if got != pair.p:
            off.append((pair.p, pair.l))
    return mismatches, tuple(off)


def _mn2_search(ctx: _Ctx, u0: Optional[int]) -> tuple:
    res = minimal_composite(2, u0, ctx.db(160), jobs=ctx.jobs)
    log = tuple((e.value, e.root_after, _pairs(e.pairs)) for e in res.log)
    return res.value, res.c, _pairs(res.pairs), log


def _scan_order2(ctx: _Ctx, max_p: int) -> tuple:
    r = scan_special_order2(ctx.db(max_p), jobs=ctx.jobs)
    return r.failures, [str(q) for q in r.special], r.min_abs_diff, [str(q) for q in r.min_pairs]


def _set_str(pairs: Tuple[Tuple[int, int], ...]) -> str:
    return "{" + ",".join(f"({p},{l})" for p, l in pairs) + "}"


_MN2_WANT = tuple(MN2_SEARCH[k] for k in ("value", "c", "pairs", "log"))
_MN2_CLI = (
    f"M_2={MN2_SEARCH['value']} c={'*'.join(str(p) for p, _ in MN2_SEARCH['pairs'])} "
    f"S={_set_str(MN2_SEARCH['pairs'])}\nn S U u\n"
    + "".join(f"2 {_set_str(ps)} {v} {root}\n" for v, root, ps in MN2_SEARCH["log"])
)

# one subcommand run per row cli/<id>: its arguments, the bound of the
# database passed as --db (None: no database), and its exact stdout
CLI_EXAMPLES: Tuple[Tuple[str, str, Optional[int], str], ...] = (
    ("pairs-41", "pairs --p 41", 160, ""),
    ("delta-37-32", "delta --p 37 --l 32", None, "37,32,21\n"),
    ("lift-353-186", "lift --p 353 --l 186", None, "(353;186,190)\n"),
    ("lift-37-32-order3", "lift --p 37 --l 32 --order 3", None, "(37;32,7,28)\n"),
    ("a-value-37-32", "a-value --p 37 --l 32", 160, "m=1148 VALID\n"),
    (
        "a-value-37-32-r2", "a-value --p 37 --l 32 --r 2", 160,
        "no solution: s_2 deviates from s_1 - 1\n",
    ),
    (
        "a-value-6449", "a-value --p 6449 --l 4884", 6500,
        "m=31490468 INVALID witness=(257,164)\n",
    ),
    (
        "exceptions-6500", "exceptions", 6500,
        "(6449,4884) m=31490468 factors=19*257 witness=(257,164)\n",
    ),
    ("lambda-2183", "lambda --c 2183", 160, "L(2183)=272876 S={(37,32),(59,44)}\n"),
    # 131*263, a friendly set that is not strong friendly
    ("lambda-34453", "lambda --c 34453", 300, "L(34453)=Infinity\n"),
    # 37^2*59
    ("lambda-80771", "lambda --c 80771", 160, "L(80771)=Infinity [unsupported: mixed exponents]\n"),
    ("mn-2", f"mn --n 2 --u0 {MN2_SEARCH['u0']} --log --jobs=1", None, _MN2_CLI),
    ("ratio-12", "ratio --m 12", None, "ratio(12)=1\n"),
    ("ratio-1148", "ratio --m 1148", None, "ratio(1148)=37\n"),
    # the first exception row, far above the exact-rational cap
    ("ratio-31490468", "ratio --m 31490468", None, "ratio(31490468)=1657393\n"),
)


@dataclass(frozen=True)
class Check:
    """One reference value: the row passes when compute(ctx) == want."""

    id: str
    quick: bool
    compute: Callable[[_Ctx], object]
    want: object


CHECKS: Tuple[Check, ...] = (
    Check("factorize/4883", True, lambda c: factorize(4883), [(19, 1), (257, 1)]),
    Check("factorize/2121", True, lambda c: factorize(2121), [(3, 1), (7, 1), (101, 1)]),
    Check("bernoulli/odd-index-zero", True, lambda c: bernoulli_exact(3), 0),
    # num(B_m/m) / num(B_m/(m(m-1))) from exact rationals, remainder 0
    Check("numerators/1148", True, lambda c: divmod(*numerator_pair(1148)), (37, 0)),
    Check("divided/37-32", True, lambda c: divided_bernoulli_mod_pk(32, 37, 1), 0),
    Check("sieve/37", True, lambda c: _pairs(sieve_prime(37)), ((37, 32),)),
    Check("sieve/157", True, lambda c: _pairs(sieve_prime(157)), ((157, 62), (157, 110))),
    Check("database/40", True, lambda c: _pairs(c.db(40).all_pairs()), ((37, 32),)),
    Check("database/160", True, lambda c: _pairs(c.db(160).all_pairs()), DB160_PAIRS),
    Check("delta/37-32", True, lambda c: delta(P(37, 32)).delta in range(1, 37), True),
    Check("delta/59-44", True, lambda c: delta(P(59, 44)).delta != 0, True),
    Check("delta/103-24", True, lambda c: delta(P(103, 24)).delta != 0, True),
    Check("lift/353-186", True, lambda c: lift(P(353, 186), 2).digits, (186, 190)),
    Check("lift/647-554", True, lambda c: lift(P(647, 554), 2).digits, (554, 558)),
    Check(
        "a-value/37-32", True, lambda c: a_value_prime_power(P(37, 32), 1, c.db(160)),
        AValueResult(P(37, 32), 1, 1148, True, ()),
    ),
    Check(
        "a-value/149-130", True, lambda c: a_value_prime_power(P(149, 130), 1, c.db(160)),
        AValueResult(P(149, 130), 1, 19222, True, ()),
    ),
    Check(
        "a-value-power/37-r2", True, lambda c: a_value_prime_power(P(37, 32), 2, c.db(160)),
        NoSolution(P(37, 32), 2, 2),
    ),
    # deviates at digit 2; the digits themselves (|s_1 - s_2| = 4) are row lift/353-186
    Check(
        "a-value-power/353-r2", True, lambda c: a_value_prime_power(P(353, 186), 2, c.db(400)),
        NoSolution(P(353, 186), 2, 2),
    ),
    # settled at order 2, order 3 never computed
    Check(
        "a-value-power/647-r3", True, lambda c: a_value_prime_power(P(647, 554), 3, c.db(700)),
        NoSolution(P(647, 554), 3, 2),
    ),
    Check("ratio/1148", True, lambda c: verify_ratio(1148), 37),
    Check("ratio/12", True, lambda c: verify_ratio(12), 1),
    Check("ratio/2538", True, lambda c: verify_ratio(2538), 59),
    # the witness prime joins p in the ratio at each candidate index
    Check(
        "ratio/exception-rows", True, lambda c: [verify_ratio(r[1]) for r in EXCEPTION_ROWS],
        [p * math.prod(q for q, _ in wits) for (p, _l), _m, _f, wits in EXCEPTION_ROWS],
    ),
    Check(
        "crt/composite-instance", True, lambda c: crt_solve([(1147, 1332), (2537, 3422)]),
        (272875, 2279052),
    ),
    Check(
        "strong-friendly/37-59-101", True,
        lambda c: _friendliness(P(37, 32), P(59, 44), P(101, 68)), (True, True),
    ),
    Check(
        "friendly-not-strong/101-607", True,
        lambda c: _friendliness(P(101, 68), P(607, 592)), (True, False),
    ),
    Check(
        "friendly-not-strong/131-263", True,
        lambda c: _friendliness(P(131, 22), P(263, 100)), (True, False),
    ),
    Check("joint-index/37-59", True, lambda c: joint_index([P(37, 32), P(59, 44)]), 272876),
    Check("joint-index/103-149", True, lambda c: joint_index([P(103, 24), P(149, 130)]), 107430),
    Check(
        "joint-index/37-59-101", True,
        lambda c: joint_index([P(37, 32), P(59, 44), P(101, 68)]), 3979497668,
    ),
    # the triple's pairs as the sieve finds them, then its joint index
    Check(
        "joint-index/157-401-1217", True,
        lambda c: (
            _pairs(sieve_prime(401)),
            _pairs(sieve_prime(1217)),
            joint_index([P(157, 62), P(401, 382), P(1217, 1118)]),
        ),
        (((401, 382),), ((1217, 784), (1217, 866), (1217, 1118)), 3754314782),
    ),
    Check("sequence/a092291", True, _a092291, A092291),
    # 157 has two pairs; Lambda is the minimum over both
    Check("lambda/157", True, lambda c: lambda_prime(157, c.db(160)), 9578),
    Check(
        "lambda/37x59", True, lambda c: lambda_composite(37 * 59, c.db(160)),
        LambdaResult(37 * 59, 272876, (P(37, 32), P(59, 44))),
    ),
    Check(
        "lambda/103x149", True, lambda c: lambda_composite(103 * 149, c.db(160)),
        LambdaResult(103 * 149, 107430, (P(103, 24), P(149, 130))),
    ),
    Check("lambda/131x263", True, lambda c: lambda_composite(131 * 263, c.db(300)).value, math.inf),
    Check("cli/pairs-157", True, _cli_sieve_then_pairs, (0, (0, "157,62\n157,110\n"))),
    Check("minimum/2-seeded", True, lambda c: _mn2_search(c, MN2_SEARCH["u0"]), _MN2_WANT),
    Check("minimum/2-unbounded", True, lambda c: _mn2_search(c, None), _MN2_WANT),
    # slow tier: large database builds and full scans
    Check("exceptions/five-rows", False, lambda c: _exception_rows(c.db(16000)), EXCEPTION_ROWS),
    Check(
        "ratio/candidates-16000", False, _ratio_candidates,
        (0, tuple(r[0] for r in EXCEPTION_ROWS)),
    ),
    Check("exceptions/first", False, lambda c: _exception_rows(c.db(6500)), EXCEPTION_ROWS[:1]),
    # no special pair below 1000; the closest digits are 4 apart, at two pairs
    Check(
        "scan/order2-1000", False, lambda c: _scan_order2(c, 1000),
        ([], [], 4, ["(353;186,190)", "(647;554,558)"]),
    ),
) + tuple(
    # the p < 6500 database is a full-tier build
    Check(
        f"cli/{name}", bound is None or bound < 6500, partial(_cli_example, args, bound), (0, out)
    )
    for name, args, bound, out in CLI_EXAMPLES
)


def run_check(check: Check, ctx: _Ctx) -> Optional[str]:
    """None when the row passes, else why it failed; a crash is a failure."""
    try:
        got = check.compute(ctx)
    except Exception as exc:  # a crashing check is a failure, not an abort
        return f"{type(exc).__name__}: {exc}"
    return None if got == check.want else f"expected {check.want!r}, got {got!r}"


def run_suite(quick: bool = False, jobs: Optional[int] = None) -> int:
    """Run every row (only the quick ones when quick), print PASS/FAIL lines
    with each row's wall seconds, count failures."""
    ctx = _Ctx(jobs=jobs)
    ran = failures = 0
    for check in CHECKS:
        if quick and not check.quick:
            continue
        ran += 1
        t0 = time.perf_counter()
        detail = run_check(check, ctx)
        took = f"({time.perf_counter() - t0:.3f} s)"
        if detail is None:
            print(f"PASS {check.id} {took}")
        else:
            print(f"FAIL {check.id} {took}: {detail}")
            failures += 1
    print(f"{ran - failures}/{ran} checks passed")
    return failures
