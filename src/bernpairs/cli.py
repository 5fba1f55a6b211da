"""Command line front end.

Subcommands: sieve, pairs, delta, lift, a-value, exceptions, lambda, mn,
ratio, verify. Every command that reads pairs takes the file `sieve` wrote
as --db FILE (optional only for mn, which builds a small seed itself);
--jobs exists only on the commands that sieve: sieve, mn and verify.
Human-readable results go to stdout, machine-readable rows behind --csv
PATH. Exit codes: 0 success, 1 domain or file error (one stderr line, the
error's type name and message), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Iterable, Optional, Sequence, Tuple

from .arith import is_prime
from .composite import lambda_composite, minimal_composite
from .conjecture import NoSolution, a_value_prime_power, find_exceptions, verify_ratio
from .errors import BernpairsError
from .pairs import (
    POOL_MIN_SECONDS,
    IrregularPair,
    build_database,
    delta,
    lift,
    load_database,
    save_database,
)
from .verify import run_suite


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return n


def _fac_str(factors: Iterable[Tuple[int, int]]) -> str:
    return "*".join(str(q) if e == 1 else f"{q}^{e}" for q, e in factors)


def _set_str(pairs: Iterable[IrregularPair]) -> str:
    return "{" + ",".join(str(q) for q in pairs) + "}"


def _witness_str(witnesses: Iterable[Tuple[int, int]]) -> str:
    return "".join(f" witness=({q},{l})" for q, l in witnesses)


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_sieve(args: argparse.Namespace) -> int:
    db = build_database(args.max_p, jobs=args.jobs)
    save_database(db, args.out)
    print(f"{len(db)} pairs over primes below {args.max_p} -> {args.out}")
    return 0


def _cmd_pairs(args: argparse.Namespace) -> int:
    if args.p < 5 or not is_prime(args.p):
        raise ValueError(f"p must be a prime >= 5, got {args.p}")
    rows = load_database(args.db).pairs_for(args.p)
    for q in rows:
        print(f"{q.p},{q.l}")
    if args.csv:
        _write_csv(args.csv, ("p", "l"), [(q.p, q.l) for q in rows])
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    d = delta(IrregularPair(args.p, args.l))
    print(f"{args.p},{args.l},{d.delta}")
    return 0


def _cmd_lift(args: argparse.Namespace) -> int:
    print(lift(IrregularPair(args.p, args.l), args.order))
    return 0


def _cmd_a_value(args: argparse.Namespace) -> int:
    pair = IrregularPair(args.p, args.l)
    db = load_database(args.db)
    res = a_value_prime_power(pair, args.r, db)
    if isinstance(res, NoSolution):
        print(f"no solution: s_{res.deviated_at} deviates from s_1 - 1")
    else:
        verdict = "VALID" if res.valid else "INVALID"
        print(f"m={res.m} {verdict}{_witness_str(res.witnesses)}")
    return 0


def _cmd_exceptions(args: argparse.Namespace) -> int:
    records = find_exceptions(load_database(args.db))
    for rec in records:
        print(
            f"({rec.pair.p},{rec.pair.l}) m={rec.m} "
            f"factors={_fac_str(rec.factors)}{_witness_str(rec.witnesses)}"
        )
    if args.csv:
        _write_csv(
            args.csv,
            ("p", "l", "m", "factors", "witnesses"),
            [
                (
                    rec.pair.p,
                    rec.pair.l,
                    rec.m,
                    _fac_str(rec.factors),
                    ";".join(f"({q},{l})" for q, l in rec.witnesses),
                )
                for rec in records
            ],
        )
    return 0


def _cmd_lambda(args: argparse.Namespace) -> int:
    res = lambda_composite(args.c, load_database(args.db))
    line = f"L({args.c})=" + ("Infinity" if res.value == math.inf else str(res.value))
    if res.pairs:
        line += f" S={_set_str(res.pairs)}"
    if res.note:
        line += f" [{res.note}" + ("]" if res.exact else "; lower bound]")
    print(line)
    return 0


def _cmd_mn(args: argparse.Namespace) -> int:
    db = load_database(args.db) if args.db else None
    res = minimal_composite(args.n, args.u0, db, jobs=args.jobs)
    c_str = "*".join(str(q.p) for q in res.pairs)
    print(f"M_{res.n}={res.value} c={c_str} S={_set_str(res.pairs)}")
    log_rows = [
        (res.n, _set_str(entry.pairs), entry.bound_after, entry.root_after)
        for entry in res.log
    ]
    if args.log:
        print("n S U u")
        for row in log_rows:
            print(" ".join(str(x) for x in row))
    if args.csv:
        _write_csv(args.csv, ("n", "S", "U", "u"), log_rows)
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    print(f"ratio({args.m})={verify_ratio(args.m)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = run_suite(quick=args.quick, jobs=args.jobs)
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernpairs",
        description="Irregular Bernoulli pairs, p-adic lifts, and minimal ratio indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str, jobs: bool = False) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        if jobs:
            sp.add_argument(
                "--jobs",
                type=_positive,
                default=None,
                help=(
                    "worker processes, at most one per core (default: all cores); a batch"
                    f" estimated under {POOL_MIN_SECONDS} s runs inline whatever this says"
                ),
            )
        return sp

    sp = add("sieve", _cmd_sieve, "sieve irregular pairs and save a database", jobs=True)
    sp.add_argument("--max-p", type=_positive, required=True, help="sieve primes p < MAX_P")
    sp.add_argument("--out", required=True, help="database file to write")

    sp = add("pairs", _cmd_pairs, "list the irregular pairs of one prime")
    sp.add_argument("--p", type=_positive, required=True)
    sp.add_argument("--db", required=True, help="database file")
    sp.add_argument("--csv", help="also write rows to this CSV file")

    sp = add("delta", _cmd_delta, "delta invariant of a pair, as a database line")
    sp.add_argument("--p", type=_positive, required=True)
    sp.add_argument("--l", type=_positive, required=True)

    sp = add("lift", _cmd_lift, "p-adic digit lift of a pair")
    sp.add_argument("--p", type=_positive, required=True)
    sp.add_argument("--l", type=_positive, required=True)
    sp.add_argument("--order", type=_positive, default=2, help="number of digits (default 2)")

    sp = add("a-value", _cmd_a_value, "candidate minimal index of a pair and its validity")
    sp.add_argument("--p", type=_positive, required=True)
    sp.add_argument("--l", type=_positive, required=True)
    sp.add_argument("--r", type=_positive, default=1, help="prime-power exponent (default 1)")
    sp.add_argument("--db", required=True, help="database file")

    sp = add("exceptions", _cmd_exceptions, "pairs whose candidate index fails the witness test")
    sp.add_argument("--db", required=True, help="database file")
    sp.add_argument("--csv", help="also write rows to this CSV file")

    sp = add("lambda", _cmd_lambda, "least index divisible by c, over all pair choices")
    sp.add_argument("--c", type=_positive, required=True)
    sp.add_argument("--db", required=True, help="database file")

    sp = add("mn", _cmd_mn, "minimum over n-prime composites of the least divisible index", jobs=True)
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument(
        "--u0",
        type=_positive,
        default=None,
        help="exclusive starting bound: only m < U0 is searched, so confirming "
        "a known M_n takes U0 = M_n + 1 (exit 1 when nothing lies below U0)",
    )
    sp.add_argument("--db", default=None, help="seed database file (default: built)")
    sp.add_argument("--log", action="store_true", help="print the improving-candidates table")
    sp.add_argument("--csv", help="write the candidates table to this CSV file")

    sp = add("ratio", _cmd_ratio, "exact numerator ratio num(B_m/m)/num(B_m/(m(m-1)))")
    sp.add_argument("--m", type=_positive, required=True)

    sp = add("verify", _cmd_verify, "recompute the bundled reference values", jobs=True)
    sp.add_argument("--quick", action="store_true", help="skip the slow database builds")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BernpairsError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
