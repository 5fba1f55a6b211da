"""Self-check suite: recompute bundled reference values from scratch.

Every check recomputes one published quantity (sequence entries, table rows,
lifting digits, minimality results) and compares exactly; there are no
tolerances anywhere. Quick checks run in seconds, the M_2 search included;
the full tier adds the database builds to p = 16000 and the order-2 scans, a
few minutes on the numpy sieve.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .arith import factorize
from .bernoulli import (
    bernoulli_exact,
    bernoulli_mod_p_all,
    divided_bernoulli_mod_pk,
    numerator_pair,
)
from .composite import (
    crt_solve,
    is_friendly,
    is_strong_friendly,
    joint_index,
    lambda_composite,
    lambda_prime,
    minimal_composite,
)
from .conjecture import NoSolution, a_value, a_value_prime_power, find_exceptions, verify_ratio
from .pairs import (
    IrregularPair,
    PairDatabase,
    build_database,
    delta,
    lift,
    save_database,
    scan_special_order2,
    sieve_prime,
)


class _Ctx:
    """Shared lazily-built databases; smaller bounds restrict from larger ones."""

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = jobs
        self._dbs: Dict[int, PairDatabase] = {}

    def db(self, max_p: int) -> PairDatabase:
        if max_p not in self._dbs:
            covering = [b for b in self._dbs if b >= max_p]
            if covering:
                self._dbs[max_p] = self._dbs[min(covering)].restrict(max_p)
            else:
                self._dbs[max_p] = build_database(max_p, jobs=self.jobs)
        return self._dbs[max_p]


def _eq(got: object, want: object) -> Optional[str]:
    return None if got == want else f"expected {want!r}, got {got!r}"


def _run_cli(argv: List[str]) -> Tuple[int, str]:
    from . import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _pairs_of(db: PairDatabase) -> List[Tuple[int, int]]:
    return [(q.p, q.l) for q in db.all_pairs()]


# one tuple per reference exception row: pair, index, factors of l-1, witnesses
EXCEPTION_ROWS = (
    ((6449, 4884), 31490468, ((19, 1), (257, 1)), ((257, 164),)),
    ((8677, 2658), 23054790, ((2657, 1),), ((2657, 710),)),
    ((11351, 1044), 11839094, ((7, 1), (149, 1)), ((149, 130),)),
    ((12527, 2122), 26569768, ((3, 1), (7, 1), (101, 1)), ((101, 68),)),
    ((15823, 482), 7610864, ((13, 1), (37, 1)), ((37, 32),)),
)

DB160_PAIRS = (
    (37, 32),
    (59, 44),
    (67, 58),
    (101, 68),
    (103, 24),
    (131, 22),
    (149, 130),
    (157, 62),
    (157, 110),
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


def _check_factorize_4883(ctx: _Ctx) -> Optional[str]:
    return _eq(factorize(4883), [(19, 1), (257, 1)])


def _check_factorize_2121(ctx: _Ctx) -> Optional[str]:
    return _eq(factorize(2121), [(3, 1), (7, 1), (101, 1)])


def _check_odd_bernoulli(ctx: _Ctx) -> Optional[str]:
    return _eq(bernoulli_exact(3), 0)


def _check_numerator_pair_1148(ctx: _Ctx) -> Optional[str]:
    n1, n2 = numerator_pair(1148)
    if n1 % 37:
        return f"37 does not divide num(B_1148/1148) = {n1}"
    return _eq(n1 // n2, 37)


def _check_modp_37(ctx: _Ctx) -> Optional[str]:
    table = bernoulli_mod_p_all(37)
    zeros = sorted(k for k, r in table.items() if r.value == 0)
    return _eq(zeros, [32])


def _check_modp_157(ctx: _Ctx) -> Optional[str]:
    table = bernoulli_mod_p_all(157)
    zeros = sorted(k for k, r in table.items() if r.value == 0)
    return _eq(zeros, [62, 110])


def _check_divided_37(ctx: _Ctx) -> Optional[str]:
    return _eq(divided_bernoulli_mod_pk(32, 37, 1).value, 0)


def _check_sieve_37(ctx: _Ctx) -> Optional[str]:
    return _eq([(q.p, q.l) for q in sieve_prime(37)], [(37, 32)])


def _check_sieve_157(ctx: _Ctx) -> Optional[str]:
    return _eq([(q.p, q.l) for q in sieve_prime(157)], [(157, 62), (157, 110)])


def _check_db_40(ctx: _Ctx) -> Optional[str]:
    return _eq(_pairs_of(ctx.db(40)), [(37, 32)])


def _check_db_160(ctx: _Ctx) -> Optional[str]:
    return _eq(_pairs_of(ctx.db(160)), list(DB160_PAIRS))


def _check_delta_37(ctx: _Ctx) -> Optional[str]:
    d = delta(IrregularPair(37, 32)).delta
    return None if 1 <= d <= 36 else f"delta 37,32 out of [1,36]: {d}"


def _check_delta_59(ctx: _Ctx) -> Optional[str]:
    d = delta(IrregularPair(59, 44)).delta
    return None if d != 0 else "delta 59,44 vanished"


def _check_delta_103(ctx: _Ctx) -> Optional[str]:
    d = delta(IrregularPair(103, 24)).delta
    return None if d != 0 else "delta 103,24 vanished"


def _check_lift_353(ctx: _Ctx) -> Optional[str]:
    return _eq(lift(IrregularPair(353, 186), 2).digits, (186, 190))


def _check_lift_647(ctx: _Ctx) -> Optional[str]:
    return _eq(lift(IrregularPair(647, 554), 2).digits, (554, 558))


def _check_a_value_37(ctx: _Ctx) -> Optional[str]:
    res = a_value(IrregularPair(37, 32), ctx.db(160))
    return _eq((res.m, res.valid, res.witnesses), (1148, True, ()))


def _check_a_value_149(ctx: _Ctx) -> Optional[str]:
    res = a_value(IrregularPair(149, 130), ctx.db(160))
    return _eq((res.m, res.valid), (19222, True))


def _check_power_37_r2(ctx: _Ctx) -> Optional[str]:
    res = a_value_prime_power(IrregularPair(37, 32), 2, ctx.db(160))
    return _eq(isinstance(res, NoSolution), True)


def _check_power_353_r2(ctx: _Ctx) -> Optional[str]:
    res = a_value_prime_power(IrregularPair(353, 186), 2, ctx.db(400))
    if not isinstance(res, NoSolution):
        return f"expected NoSolution, got {res!r}"
    s1, s2 = lift(IrregularPair(353, 186), 2).digits
    return _eq((res.deviated_at, abs(s1 - s2)), (2, 4))


def _check_power_647_r3(ctx: _Ctx) -> Optional[str]:
    res = a_value_prime_power(IrregularPair(647, 554), 3, ctx.db(700))
    if not isinstance(res, NoSolution):
        return f"expected NoSolution, got {res!r}"
    return _eq(res.deviated_at, 2)  # settled at order 2, order 3 never computed


def _check_ratio_1148(ctx: _Ctx) -> Optional[str]:
    return _eq(verify_ratio(1148), 37)


def _check_ratio_12(ctx: _Ctx) -> Optional[str]:
    return _eq(verify_ratio(12), 1)


def _check_ratio_2538(ctx: _Ctx) -> Optional[str]:
    return _eq(verify_ratio(2538), 59)


def _check_ratio_exception_rows(ctx: _Ctx) -> Optional[str]:
    # the witness prime joins p in the ratio at each candidate index
    got = [verify_ratio(m) for _pair, m, _f, _w in EXCEPTION_ROWS]
    want = [
        p * math.prod(q for q, _ in wits) for (p, _l), _m, _f, wits in EXCEPTION_ROWS
    ]
    return _eq(got, want)


def _check_crt_instance(ctx: _Ctx) -> Optional[str]:
    sol = crt_solve([(1147, 1332), (2537, 3422)])
    return _eq(sol, (272875, 2279052))


def _check_strong_friendly_triple(ctx: _Ctx) -> Optional[str]:
    s = [IrregularPair(37, 32), IrregularPair(59, 44), IrregularPair(101, 68)]
    return _eq(is_strong_friendly(s), True)


def _check_friendly_not_strong_607(ctx: _Ctx) -> Optional[str]:
    s = [IrregularPair(101, 68), IrregularPair(607, 592)]
    return _eq((is_friendly(s), is_strong_friendly(s)), (True, False))


def _check_friendly_not_strong_263(ctx: _Ctx) -> Optional[str]:
    s = [IrregularPair(131, 22), IrregularPair(263, 100)]
    return _eq((is_friendly(s), is_strong_friendly(s)), (True, False))


def _check_joint_37_59(ctx: _Ctx) -> Optional[str]:
    return _eq(joint_index([IrregularPair(37, 32), IrregularPair(59, 44)]), 272876)


def _check_joint_103_149(ctx: _Ctx) -> Optional[str]:
    return _eq(joint_index([IrregularPair(103, 24), IrregularPair(149, 130)]), 107430)


def _check_joint_triple(ctx: _Ctx) -> Optional[str]:
    s = [IrregularPair(37, 32), IrregularPair(59, 44), IrregularPair(101, 68)]
    return _eq(joint_index(s), 3979497668)


def _check_lambda_37(ctx: _Ctx) -> Optional[str]:
    return _eq(lambda_prime(37, ctx.db(160)), 1148)


def _check_lambda_157(ctx: _Ctx) -> Optional[str]:
    return _eq(lambda_prime(157, ctx.db(160)), 9578)


def _check_lambda_37x59(ctx: _Ctx) -> Optional[str]:
    return _eq(lambda_composite(37 * 59, ctx.db(160)).value, 272876)


def _check_lambda_103x149(ctx: _Ctx) -> Optional[str]:
    return _eq(lambda_composite(103 * 149, ctx.db(160)).value, 107430)


def _check_lambda_131x263(ctx: _Ctx) -> Optional[str]:
    res = lambda_composite(131 * 263, ctx.db(300))
    return _eq(res.value, math.inf)


def _check_cli_pairs_157(ctx: _Ctx) -> Optional[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.csv")
        code, _out = _run_cli(["sieve", "--max-p", "160", "--out", path, "--jobs", "1"])
        if code != 0:
            return f"sieve exited {code}"
        code, out = _run_cli(["pairs", "--p", "157", "--db", path])
        if code != 0:
            return f"pairs exited {code}"
        return _eq(out, "157,62\n157,110\n")


def _check_mn3_candidates(ctx: _Ctx) -> Optional[str]:
    if (401, 382) not in [(q.p, q.l) for q in sieve_prime(401)]:
        return "(401,382) did not sieve as an irregular pair"
    if (1217, 1118) not in [(q.p, q.l) for q in sieve_prime(1217)]:
        return "(1217,1118) did not sieve as an irregular pair"
    s = [IrregularPair(157, 62), IrregularPair(401, 382), IrregularPair(1217, 1118)]
    return _eq(joint_index(s), 3754314782)


def _check_exceptions_first(ctx: _Ctx) -> Optional[str]:
    records = find_exceptions(ctx.db(6500))
    got = [
        ((r.pair.p, r.pair.l), r.m, r.factors, r.witnesses) for r in records
    ]
    return _eq(got, [EXCEPTION_ROWS[0]])


def _check_exceptions_five(ctx: _Ctx) -> Optional[str]:
    records = find_exceptions(ctx.db(16000))
    got = [
        ((r.pair.p, r.pair.l), r.m, r.factors, r.witnesses) for r in records
    ]
    return _eq(got, list(EXCEPTION_ROWS))


def _check_cli_a_value_6449(ctx: _Ctx) -> Optional[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.csv")
        save_database(ctx.db(6500), path)
        code, out = _run_cli(["a-value", "--p", "6449", "--l", "4884", "--db", path])
        if code != 0:
            return f"a-value exited {code}"
        return _eq(out, "m=31490468 INVALID witness=(257,164)\n")


def _check_scan_1000(ctx: _Ctx) -> Optional[str]:
    report = scan_special_order2(ctx.db(1000), jobs=ctx.jobs)
    if report.failures:
        return f"{len(report.failures)} pairs failed to lift: {report.failures[:3]}"
    return _eq([str(q) for q in report.special], [])


def _check_scan_700_min_diff(ctx: _Ctx) -> Optional[str]:
    report = scan_special_order2(ctx.db(700), jobs=ctx.jobs)
    if report.failures:
        return f"{len(report.failures)} pairs failed to lift: {report.failures[:3]}"
    return _eq(report.min_abs_diff, 4)


def _pair_tuple(pairs: Tuple[IrregularPair, ...]) -> Tuple[Tuple[int, int], ...]:
    return tuple((q.p, q.l) for q in pairs)


def _mn2_search(ctx: _Ctx, u0: Optional[int]) -> Optional[str]:
    res = minimal_composite(2, u0, ctx.db(160), jobs=ctx.jobs)
    log = tuple((e.value, e.root_after, _pair_tuple(e.pairs)) for e in res.log)
    got = (res.value, res.c, _pair_tuple(res.pairs), log)
    return _eq(got, tuple(MN2_SEARCH[k] for k in ("value", "c", "pairs", "log")))


def _check_mn_2_seeded(ctx: _Ctx) -> Optional[str]:
    return _mn2_search(ctx, MN2_SEARCH["u0"])


def _check_mn_2_unbounded(ctx: _Ctx) -> Optional[str]:
    return _mn2_search(ctx, None)


def _set_str(pairs: Tuple[Tuple[int, int], ...]) -> str:
    return "{" + ",".join(f"({p},{l})" for p, l in pairs) + "}"


def _check_cli_mn(ctx: _Ctx) -> Optional[str]:
    u0 = str(MN2_SEARCH["u0"])
    code, out = _run_cli(["mn", "--n", "2", "--u0", u0, "--log", "--jobs", "1"])
    if code != 0:
        return f"mn exited {code}"
    c = "*".join(str(p) for p, _l in MN2_SEARCH["pairs"])
    want = [f"M_2={MN2_SEARCH['value']} c={c} S={_set_str(MN2_SEARCH['pairs'])}", "n S U u"]
    want += [f"2 {_set_str(ps)} {v} {root}" for v, root, ps in MN2_SEARCH["log"]]
    return _eq(out.splitlines(), want)


@dataclass(frozen=True)
class Check:
    id: str
    quick: bool
    run: Callable[[_Ctx], Optional[str]]


CHECKS: Tuple[Check, ...] = (
    Check("factorize/4883", True, _check_factorize_4883),
    Check("factorize/2121", True, _check_factorize_2121),
    Check("bernoulli/odd-index-zero", True, _check_odd_bernoulli),
    Check("numerators/1148", True, _check_numerator_pair_1148),
    Check("mod-p-table/37", True, _check_modp_37),
    Check("mod-p-table/157", True, _check_modp_157),
    Check("divided/37-32", True, _check_divided_37),
    Check("sieve/37", True, _check_sieve_37),
    Check("sieve/157", True, _check_sieve_157),
    Check("database/40", True, _check_db_40),
    Check("database/160", True, _check_db_160),
    Check("delta/37-32", True, _check_delta_37),
    Check("delta/59-44", True, _check_delta_59),
    Check("delta/103-24", True, _check_delta_103),
    Check("lift/353-186", True, _check_lift_353),
    Check("lift/647-554", True, _check_lift_647),
    Check("a-value/37-32", True, _check_a_value_37),
    Check("a-value/149-130", True, _check_a_value_149),
    Check("a-value-power/37-r2", True, _check_power_37_r2),
    Check("a-value-power/353-r2", True, _check_power_353_r2),
    Check("a-value-power/647-r3", True, _check_power_647_r3),
    Check("ratio/1148", True, _check_ratio_1148),
    Check("ratio/12", True, _check_ratio_12),
    Check("ratio/2538", True, _check_ratio_2538),
    Check("ratio/exception-rows", True, _check_ratio_exception_rows),
    Check("crt/composite-instance", True, _check_crt_instance),
    Check("strong-friendly/37-59-101", True, _check_strong_friendly_triple),
    Check("friendly-not-strong/101-607", True, _check_friendly_not_strong_607),
    Check("friendly-not-strong/131-263", True, _check_friendly_not_strong_263),
    Check("joint-index/37-59", True, _check_joint_37_59),
    Check("joint-index/103-149", True, _check_joint_103_149),
    Check("joint-index/37-59-101", True, _check_joint_triple),
    Check("lambda/37", True, _check_lambda_37),
    Check("lambda/157", True, _check_lambda_157),
    Check("lambda/37x59", True, _check_lambda_37x59),
    Check("lambda/103x149", True, _check_lambda_103x149),
    Check("lambda/131x263", True, _check_lambda_131x263),
    Check("cli/pairs-157", True, _check_cli_pairs_157),
    Check("joint-index/157-401-1217", True, _check_mn3_candidates),
    Check("minimum/2-seeded", True, _check_mn_2_seeded),
    Check("minimum/2-unbounded", True, _check_mn_2_unbounded),
    Check("cli/mn-2", True, _check_cli_mn),
    # slow tier: large database builds and full scans
    Check("exceptions/five-rows", False, _check_exceptions_five),
    Check("exceptions/first", False, _check_exceptions_first),
    Check("cli/a-value-6449", False, _check_cli_a_value_6449),
    Check("scan/1000-no-special", False, _check_scan_1000),
    Check("scan/700-min-diff", False, _check_scan_700_min_diff),
)


def run_suite(
    suite: str = "paper-tables",
    quick: bool = False,
    jobs: Optional[int] = None,
    out: Callable[[str], None] = print,
) -> int:
    """Run the named suite, print one PASS/FAIL line per check, count failures."""
    if suite != "paper-tables":
        raise ValueError(f"unknown suite {suite!r}")
    ctx = _Ctx(jobs=jobs)
    ran = failures = 0
    for check in CHECKS:
        if quick and not check.quick:
            continue
        ran += 1
        try:
            detail = check.run(ctx)
        except Exception as exc:  # a crashing check is a failure, not an abort
            detail = f"{type(exc).__name__}: {exc}"
        if detail is None:
            out(f"PASS {check.id}")
        else:
            out(f"FAIL {check.id}: {detail}")
            failures += 1
    out(f"{ran - failures}/{ran} checks passed")
    return failures
