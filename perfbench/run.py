"""The bernpairs benchmark: one command, three workloads, checked results.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Each iteration is a fresh interpreter (``workloads.py``) with cold module
caches, as a CLI user meets them; the run repeats iterations until
``--seconds`` is spent and reports medians. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of traced iterations
(one worker, so no span is lost in a pool) and the tracing overhead against
untraced one-worker iterations of the same run.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 when every checked result matched the
reference, 1 when any result raised or differed, and 2 (with no result
printed) when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ITERATION_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "rss_growth_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "kernels.sieve_row.calls": "count",
    "kernels.sieve_row.s": "s",
    "kernels.sieve_row.p50_ms": "ms",
    "kernels.sieve_row.tail_ms": "ms",
    "kernels.sieve_row.ops": "count",
    "kernels.sieve_row.ops_per_s": "1/s",
    "kernels.power_sum.calls": "count",
    "kernels.power_sum.s": "s",
    "kernels.power_sum.terms": "count",
    "kernels.power_sum.terms_per_s": "1/s",
    "bernoulli.divided.calls": "count",
    "bernoulli.divided.self_s": "s",
    "bernoulli.divided.power_sum_frac": "ratio",
    "bernoulli.exact.calls": "count",
    "bernoulli.exact.s": "s",
    "bernoulli.tangent.entries": "count",
    "pairs.sieve_many.calls": "count",
    "pairs.sieve_many.s": "s",
    "pairs.delta.calls": "count",
    "pairs.delta.s": "s",
    "pairs.lift_digit.calls": "count",
    "pairs.lift_digit.s": "s",
    "pairs.db_save.s": "s",
    "pairs.db_load.s": "s",
    "pairs.db_bytes": "B",
    "conjecture.find_exceptions.s": "s",
    "conjecture.find_exceptions.pairs": "count",
    "conjecture.verify_ratio.calls": "count",
    "conjecture.verify_ratio.self_s": "s",
    "composite.minimal_composite.s": "s",
    "composite.extend.calls": "count",
    "composite.extend.s": "s",
    "composite.search.self_s": "s",
    "composite.sets_checked": "count",
    "composite.sieved_to": "bound",
    "composite.joint_index.calls": "count",
    "composite.joint_index.s": "s",
    "arith.primes_below.calls": "count",
    "arith.primes_below.s": "s",
    "arith.factorize.calls": "count",
    "arith.factorize.s": "s",
    "trace.overhead_s": "s",
    "host.probe_before_ms": "ms",
    "host.probe_after_ms": "ms",
}

# counts derived from arguments rather than measured
COMPUTED = ("kernels.sieve_row.ops", "kernels.power_sum.terms")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong result)."""


def host_probe_ms() -> float:
    """A fixed pure-Python plus numpy loop; median of three timings in ms."""
    times = []
    a = np.arange(4096, dtype=np.int64)
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        for _ in range(300):
            acc += int(np.dot(a, a) % 97)
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def git_sha(root: str) -> str:
    """The commit of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_iteration(workload: str, size: str, seed: int, jobs: int, trace: bool, workdir: str) -> dict:
    """One cold iteration in a fresh interpreter; adds setup_s to its record."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--size", size, "--seed", str(seed),
        "--jobs", str(jobs), "--trace", str(int(trace)), "--workdir", workdir,
    ]  # fmt: skip
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )  # fmt: skip
    try:
        out, err = proc.communicate(timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} iteration exceeded {ITERATION_TIMEOUT_S}s")
    finally:
        try:  # pool workers left behind by a crash share the session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} iteration exited {proc.returncode}: {err.strip()[-2000:]}")
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["timed_start"] - t_spawn  # CLOCK_MONOTONIC is system-wide
    return rec


def measure(workload: str, size: str, seed: int, seconds: int, trace: bool) -> dict:
    """Iterate until the time is spent; with trace, alternate traced and plain
    one-worker iterations so the overhead compares like with like."""
    jobs = min(2, os.cpu_count() or 1)
    plain: List[dict] = []
    traced: List[dict] = []
    probe_before = host_probe_ms()
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="_work", dir=HERE) as workdir:
        while True:
            t = time.monotonic()
            if trace:
                order = (False, True) if len(traced) % 2 == 0 else (True, False)
                for tr in order:
                    (traced if tr else plain).append(run_iteration(workload, size, seed, 1, tr, workdir))
            else:
                plain.append(run_iteration(workload, size, seed, jobs, False, workdir))
            now = time.monotonic()
            if now - start + (now - t) > seconds:
                break
    return {
        "plain": plain,
        "traced": traced,
        "probe_before_ms": probe_before,
        "probe_after_ms": host_probe_ms(),
        "elapsed_s": time.monotonic() - start,
    }


def _quartiles(xs: List[float]) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"n={len(xs)} q1={q1:.4f} q3={q3:.4f}"


def report(workload: str, size: str, trace: bool, res: dict) -> int:
    """Print the human-readable lines and the final JSON line; return the exit code."""
    records = res["plain"] + res["traced"]
    checks = [c for r in records for c in r["checks"]]
    bad = [(label, err) for label, err in checks if err is not None]
    env = dict(records[0]["env"], git_sha=git_sha(ROOT), workload=workload, size=size,
               iterations=len(records), elapsed_s=round(res["elapsed_s"], 3),
               probe_before_ms=res["probe_before_ms"], probe_after_ms=res["probe_after_ms"])  # fmt: skip
    print("env " + json.dumps(env, sort_keys=True))
    for r in records:
        if r["error"]:
            print(f"raised: {r['error']}")
    for label, err in bad[:20]:
        print(f"WRONG {label}: {err}")
    print(f"fail_frac = {len(bad)}/{len(checks)} = {len(bad) / len(checks):.4f} ratio "
          "(results that raised or differed / results checked)")  # fmt: skip

    metrics: Dict[str, dict] = {}
    if not trace:
        for name, unit in END_TO_END.items():
            xs = [r[name] for r in res["plain"]]
            metrics[name] = {"value": statistics.median(xs), "unit": unit}
            print(f"{name} = {metrics[name]['value']:.4f} {unit} (median, {_quartiles(xs)})")
    else:
        layers = {
            name: statistics.median(r["layers"][name] for r in res["traced"])
            for name in res["traced"][0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in res["traced"]) - statistics.median(
            r["wall_s"] for r in res["plain"]
        )
        layers["host.probe_before_ms"] = res["probe_before_ms"]
        layers["host.probe_after_ms"] = res["probe_after_ms"]
        absent = sorted({a for r in res["traced"] for a in r["absent"]})
        if absent:
            print("absent (metrics read 0): " + ", ".join(absent))
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": layers[name], "unit": unit}
            note = " (computed from arguments)" if name in COMPUTED else ""
            print(f"{name} = {layers[name]} {unit}{note}")
    print(json.dumps({"correct": not bad, "attempted": len(checks), "failed": len(bad), "metrics": metrics}))
    return 0 if not bad else 1


def main() -> int:
    from workloads import SIZES

    ap = argparse.ArgumentParser(description="bernpairs benchmark")
    ap.add_argument("--workload", choices=sorted(SIZES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("tiny", "bench"), default="bench")
    a = ap.parse_args()
    try:
        res = measure(a.workload, a.size, a.seed, a.seconds, bool(a.trace))
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    return report(a.workload, a.size, bool(a.trace), res)


if __name__ == "__main__":
    sys.exit(main())
