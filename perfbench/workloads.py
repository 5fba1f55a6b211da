"""The benchmark's workloads, and one cold iteration of a workload.

Run as a script, this module is one iteration: a fresh interpreter imports
bernpairs from the checkout's ``src``, builds the workload's inputs, times the
workload (optionally traced), checks every result against ``reference.json``
and prints one JSON line for ``run.py`` to collect:

    python3 perfbench/workloads.py --workload tables --size bench --seed 1 \
        --jobs 2 --trace 0 --workdir perfbench/_work

Each workload is three functions: ``setup`` builds the inputs (counted in
``setup_s``), ``run`` does the timed work and fills ``out`` as results arrive
(so a raise still leaves the earlier results to check), and ``check`` returns
one (label, error-or-None) per result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Sizes per workload: "bench" is what run.py measures by default, "tiny"
# keeps the tests fast.
SIZES: Dict[str, Dict[str, dict]] = {
    "tables": {
        "tiny": {"max_p": 200, "u0": 107431},
        "bench": {"max_p": 2000, "u0": 107431},
    },
    "lift": {
        "tiny": {"from": 5, "below": 60, "extra": [], "band": [100, 160], "draw": 1},
        "bench": {"from": 200, "below": 300, "extra": [[353, 186]], "band": [370, 400], "draw": 2},
    },
    "ratio": {
        "tiny": {"below": 1200},
        "bench": {"below": 2400},
    },
}

Checks = List[Tuple[str, Optional[str]]]


def _eq(label: str, got: object, want: object) -> Tuple[str, Optional[str]]:
    return label, None if got == want else f"expected {want!r}, got {got!r}"


# --- tables: the sieve, both bulk (one pool) and on demand (small batches) ---


def tables_setup(params: dict, seed: int, jobs: int, workdir: str, ref: dict) -> dict:
    return {"params": params, "jobs": jobs, "path": os.path.join(workdir, "db.txt")}


def tables_run(inp: dict, out: dict) -> None:
    from bernpairs import composite, conjecture, pairs

    params, jobs = inp["params"], inp["jobs"]
    db = pairs.build_database(params["max_p"], jobs=jobs)
    out["pairs"] = [[q.p, q.l] for q in db.all_pairs()]
    pairs.save_database(db, inp["path"])
    out["db_bytes"] = os.path.getsize(inp["path"])
    loaded = pairs.load_database(inp["path"])
    out["roundtrip"] = loaded == db
    out["exceptions"] = [
        [[r.pair.p, r.pair.l], r.m, [list(f) for f in r.factors], [list(w) for w in r.witnesses]]
        for r in conjecture.find_exceptions(loaded)
    ]
    # as `bernpairs mn --n 2 --u0 U`: the p < 160 seed the CLI builds, then
    # on-demand sieving
    seed = pairs.build_database(160, jobs=jobs)
    out["seed_pairs"] = [[q.p, q.l] for q in seed.all_pairs()]
    res = composite.minimal_composite(2, params["u0"], db=seed, jobs=jobs)
    out["mn"] = {"value": res.value, "c": res.c, "pairs": [[q.p, q.l] for q in res.pairs]}
    # search counters, reported as per-layer metrics rather than checked
    out["sets_checked"] = getattr(res, "sets_checked", 0)
    out["sieved_to"] = getattr(res, "sieved_to", 0)


def tables_check(out: dict, inp: dict, ref: dict) -> Checks:
    max_p = inp["params"]["max_p"]
    mn = out.get("mn", {})
    return [
        _eq(f"pairs below {max_p}", out.get("pairs"), [r for r in ref["pairs"] if r[0] < max_p]),
        _eq("database save/load round trip", out.get("roundtrip"), True),
        _eq("exception rows", out.get("exceptions"), [r for r in ref["exceptions"] if r[0][0] < max_p]),
        _eq("seed database below 160", out.get("seed_pairs"), ref["db160_pairs"]),
        _eq("M_2", mn.get("value"), ref["mn2"]["value"]),
        _eq("M_2 modulus c", mn.get("c"), ref["mn2"]["c"]),
        _eq("M_2 pair set", mn.get("pairs"), ref["mn2"]["pairs"]),
    ]


# --- lift: delta and order-2 digits, i.e. B_n/n mod p^2 and power sums ------


def lift_setup(params: dict, seed: int, jobs: int, workdir: str, ref: dict) -> dict:
    from bernpairs import pairs

    lo, hi = params["band"]
    db = pairs.build_database(max(hi, params["below"]), jobs=1)
    fixed = [[q.p, q.l] for q in db.all_pairs() if params["from"] <= q.p < params["below"]]
    fixed += [r for r in params["extra"] if r not in fixed]
    band = [[q.p, q.l] for q in db.all_pairs() if lo <= q.p < hi and [q.p, q.l] not in fixed]
    drawn = random.Random(seed).sample(band, params["draw"])
    return {"work": sorted(fixed + drawn), "jobs": jobs}


def lift_run(inp: dict, out: dict) -> None:
    from bernpairs import pairs

    work = inp["work"]
    out["deltas"] = deltas = []
    entries: Dict[int, list] = {}
    for p, l in work:
        deltas.append([p, l, pairs.delta(pairs.IrregularPair(p, l)).delta])
        entries.setdefault(p, []).append((l, None))
    db = pairs.PairDatabase(work[-1][0] + 1, entries)
    report = pairs.scan_special_order2(db, jobs=inp["jobs"])
    out["scan"] = {
        "checked": report.checked,
        "failures": [[q.p, q.l, why] for q, why in report.failures],
        "special": [[q.p, *q.digits] for q in report.special],
        "min_abs_diff": report.min_abs_diff,
        "min_pairs": [[q.p, *q.digits] for q in report.min_pairs],
    }
    out["order3"] = list(pairs.lift(pairs.IrregularPair(37, 32), 3).digits)


def lift_check(out: dict, inp: dict, ref: dict) -> Checks:
    want = {(r[0], r[1]): r for r in ref["order2"]}
    got = {(r[0], r[1]): r for r in out.get("deltas", [])}
    checks = [_eq(f"({p},{l}) delta", got.get((p, l)), want[(p, l)][:3]) for p, l in inp["work"]]
    rows = [want[(p, l)] for p, l in inp["work"]]  # [p, l, delta, s_2]
    least = min(abs(l - s2) for _, l, _, s2 in rows)
    scan = out.get("scan", {})
    checks += [
        _eq("order-2 scan: pairs lifted", scan.get("checked"), len(rows)),
        _eq("order-2 scan: failures", scan.get("failures"), []),
        _eq("order-2 scan: pairs with s_2 = s_1 - 1", scan.get("special"),
            [[p, l, s2] for p, l, _, s2 in rows if s2 == l - 1]),
        _eq("order-2 scan: min |s_1 - s_2|", scan.get("min_abs_diff"), least),
        _eq("order-2 scan: pairs at the minimum", scan.get("min_pairs"),
            [[p, l, s2] for p, l, _, s2 in rows if abs(l - s2) == least]),
        _eq("(37,32) to order 3", out.get("order3"), ref["order3"]["37,32"]),
    ]  # fmt: skip
    return checks


# --- ratio: one large exact rational per index (the tangent cache) ---------


def ratio_setup(params: dict, seed: int, jobs: int, workdir: str, ref: dict) -> dict:
    # every valid candidate index (l-1)p + 1 below the bound, ascending
    return {"ms": sorted(int(m) for m in ref["ratios"] if int(m) < params["below"])}


def ratio_run(inp: dict, out: dict) -> None:
    from bernpairs import conjecture

    out["ratios"] = rows = []
    for m in inp["ms"]:
        rows.append([m, conjecture.verify_ratio(m)])


def ratio_check(out: dict, inp: dict, ref: dict) -> Checks:
    got = dict(out.get("ratios", []))
    return [_eq(f"ratio at m={m}", got.get(m), ref["ratios"][str(m)]) for m in inp["ms"]]


WORKLOADS = {
    "tables": (tables_setup, tables_run, tables_check),
    "lift": (lift_setup, lift_run, lift_check),
    "ratio": (ratio_setup, ratio_run, ratio_check),
}


def load_reference(path: str = os.path.join(HERE, "reference.json")) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)  # reaped pool workers
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def _rss_mb() -> float:
    """The resident set of this process now (not its peak)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _environment(seed: int, jobs: int) -> dict:
    import numpy

    import bernpairs
    from bernpairs.config import LIMITS

    return {
        "backend": getattr(bernpairs, "backend_name", lambda: "unknown")(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "seed": seed,
        "limits": dataclasses.asdict(LIMITS),
    }


def iterate(workload: str, size: str, seed: int, jobs: int, trace: bool, workdir: str) -> dict:
    """One iteration in this (fresh) process; returns the record run.py reads."""
    import bernpairs

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(bernpairs.__file__).startswith(src + os.sep):
        raise ImportError(f"bernpairs imported from {bernpairs.__file__}, not from {src}")
    from bernpairs import bernoulli

    setup, run, check = WORKLOADS[workload]
    ref = load_reference()
    inp = setup(SIZES[workload][size], seed, jobs, workdir, ref)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer().install()
    out: dict = {}
    error = None
    rss0 = _rss_mb()
    cpu0 = _cpu()
    t0 = time.monotonic()
    try:
        run(inp, out)
    except Exception as exc:  # a raising call is a failed result, not a crash
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.monotonic()
    cpu1 = _cpu()
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    record = {
        "timed_start": t0,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak,
        "rss_growth_mb": peak - rss0,
        "error": error,
        "checks": check(out, inp, ref),
        "env": _environment(seed, jobs),
    }
    if tracer is not None:
        from spans import layer_metrics

        layers = layer_metrics(tracer.spans)
        layers["bernoulli.tangent.entries"] = len(getattr(bernoulli, "_tangent", []))
        layers["pairs.db_bytes"] = out.get("db_bytes", 0)
        layers["composite.sets_checked"] = out.get("sets_checked", 0)
        layers["composite.sieved_to"] = out.get("sieved_to", 0)
        record["layers"] = layers
        record["absent"] = tracer.absent
    return record


def main() -> None:
    ap = argparse.ArgumentParser(description="one cold iteration of a workload")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--size", choices=("tiny", "bench"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    a = ap.parse_args()
    rec = iterate(a.workload, a.size, a.seed, a.jobs, bool(a.trace), a.workdir)
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
