"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest benchmark``; the repository's own test suite
does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rep
import run
from tracing import COUNT_METRICS, Probes
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "benchmark/run.py", "--seconds", "1", "--seed",
           "5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def bd():
    return rep.import_program()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--trace", str(trace),
                  "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    detail, result = map(json.loads, proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {name: unit for name, unit, _ in table}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert detail["samples"]["all"] >= run.MIN_REPS
    assert detail["end_to_end"]["calib_s"]["min"] > 0
    assert detail["machine"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(detail["machine"]["blas_threads"].values()) == {1}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat(bd, workload, tmp_path):
    counts = []
    for k in range(2):
        record = rep.run_rep(bd, workload, 5, True, "tiny", tmp_path / str(k))
        counts.append({name: record["layers"][name] for name in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["solver.unknowns"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_wrapped_attributes_restored(bd, trace, tmp_path):
    probes = Probes(bd, trace=True)
    originals = {}
    probes.install()
    for owner, attr, original in probes._saved:
        # An attribute wrapped twice is saved twice; the first is the original.
        originals.setdefault((owner, attr), original)
    probes.restore()
    rep.run_rep(bd, "disk_validate", 5, trace, "tiny", tmp_path)
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, attr


def test_digits_must_agree_between_repetitions():
    record = {"traced": False, "failures": [], "setup_s": 1.0, "wall_s": 2.0,
              "cpu_s": 2.0, "setup_raw_s": 1.0, "wall_raw_s": 2.0,
              "calib_s": 0.3,
              "solve_s": 1.0, "eval_s": 0.5, "peak_rss_mb": 90.0,
              "u_digits": 8.0, "psi_digits": 6.0}
    correct, _, metrics = run.aggregate([record, dict(record)], trace=False)
    assert correct and metrics["u_digits"]["value"] == 8.0
    correct, detail, _ = run.aggregate(
        [record, dict(record, u_digits=8.0000001)], trace=False)
    assert not correct
    assert "u_digits differs between repetitions" in detail["problems"]


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmark/run.py"]
    assert spec["paths"] == ["benchmark"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "disk_validate", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
