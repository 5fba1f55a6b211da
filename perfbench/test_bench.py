"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

They run the tiny size of each workload end to end, corrupt a reference value
to see the failure path, and exercise the span bookkeeping in process.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from run import END_TO_END, PER_LAYER  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402

BENCH_FILES = ("run.py", "workloads.py", "spans.py", "reference.json")


def _bench(root, workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def _copy_bench(tmp_path, with_src):
    os.mkdir(tmp_path / "perfbench")
    for name in BENCH_FILES:
        shutil.copy(os.path.join(HERE, name), tmp_path / "perfbench" / name)
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return str(tmp_path)


@pytest.mark.parametrize("workload", ["tables", "lift", "ratio"])
def test_tiny_workload_emits_every_metric(workload):
    code, result = _bench(ROOT, workload, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    # the tiny tasks may add nothing to the resident set, so its growth can read 0
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "rss_growth_mb")

    code, result = _bench(ROOT, workload, trace=1)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER


def test_corrupted_reference_fails_the_run(tmp_path):
    root = _copy_bench(tmp_path, with_src=True)
    path = os.path.join(root, "perfbench", "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    ref["ratios"]["1148"] += 1
    with open(path, "w") as fh:
        json.dump(ref, fh)
    code, result = _bench(root, "ratio", trace=0)
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_without_the_program_no_result_is_printed(tmp_path):
    root = _copy_bench(tmp_path, with_src=False)
    code, result = _bench(root, "ratio", trace=0)
    assert code != 0 and result is None


def test_missing_target_is_reported_absent(monkeypatch):
    import bernpairs._kernels

    monkeypatch.delattr(bernpairs._kernels, "power_sum")
    tracer = Tracer().install()
    try:
        assert tracer.absent == ["bernpairs._kernels.power_sum"]
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    assert metrics["kernels.power_sum.calls"] == 0 and metrics["kernels.power_sum.terms"] == 0


def test_self_time_and_power_sum_share():
    spans = [
        Span("bernoulli.divided", 0.0, 10.0, None),
        Span("kernels.power_sum", 1.0, 4.0, 0, work=49),
        Span("bernoulli.exact", 3.0, 6.0, 0),  # overlaps the first child
        Span("bernoulli.divided", 10.0, 12.0, None),
    ]
    assert self_times(spans) == [5.0, 3.0, 3.0, 2.0]
    m = layer_metrics(spans)
    assert m["bernoulli.divided.calls"] == 2
    assert m["bernoulli.divided.self_s"] == 7.0
    assert m["bernoulli.divided.power_sum_frac"] == 0.5
    assert m["kernels.power_sum.terms_per_s"] == 49 / 3.0
