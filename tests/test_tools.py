"""The scripts under ``tools/``: the benchmark record tool ``ladder.py``,
run as a script, and the writer of the generalized Gaussian tables."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from test_cli import fresh_env

from bdies2d import potentials
from bdies2d.gauss_log_rules import GAUSS_LOG_RULES
from bdies2d.geometry import DomainSpec, build_curve, build_domain_grid

TOOLS = Path(__file__).resolve().parents[1] / "tools"
LADDER = TOOLS / "ladder.py"


def test_ladder_counts_the_rules_of_the_grid_and_curve_sets():
    disk = {"kind": "disk", "center": [0.0, 0.0], "radius": 0.4}
    job = {"domain": disk, "resolution": [32, 8, 4], "family": "x"}
    out = subprocess.run(
        [sys.executable, str(LADDER), "--one", json.dumps(job)],
        env=fresh_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
        text=True, check=True)
    row = json.loads(out.stdout)
    # the solve's two volume target sets: the grid nodes and curve nodes
    spec = DomainSpec(**disk)
    curve, grid = build_curve(spec, 32), build_domain_grid(spec, 8, 4)
    sets = [potentials._target_set(grid, tg)
            for tg in (grid.points, curve.points)]
    n_orbits = sum(len(s["orbits"][0]) for s in sets)
    assert n_orbits > grid.n_s
    assert row["rules"] == n_orbits
    assert row["rule_nodes"] == sum(s["rules"].counts.sum() for s in sets)
    # the rules, cardinals and contractions are built while the system is
    # assembled
    assert 0.0 < row["rules_s"] < row["assemble_s"]
    assert 0.0 < row["cardinals_s"] + row["contract_s"] < row["assemble_s"]
    assert row["err_u_max"] < 1e-2


def _load(name):
    spec = importlib.util.spec_from_file_location(f"{name}_tool",
                                                  TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_ladder_rows_hold_each_timing_minimum_beside_its_median():
    # the star 256/64x24 rules_s repeats of one recorded job
    ladder = _load("ladder")
    rules_s = [0.114, 0.139, 0.112]
    samples = [{**{k: 10.0 * i for k in ladder.VARYING}, "rules_s": r,
                "rules": 7} for i, r in enumerate(rules_s)]
    row = ladder.merge(samples)
    timing = [k for k in ladder.VARYING if k.endswith("_s")]
    assert "rules_s" in timing and "peak_rss_mb" not in timing
    for k in timing:
        keys = list(row)
        assert keys[keys.index(k) + 1] == k + "_min"
    assert (row["rules_s"], row["rules_s_min"]) == (0.114, 0.112)
    assert (row["build_s"], row["build_s_min"]) == (10.0, 0.0)
    assert row["peak_rss_mb"] == 10.0 and "peak_rss_mb_min" not in row
    assert row["rules"] == 7
    assert row["samples"]["rules_s"] == rules_s
    assert set(row["samples"]) == set(ladder.VARYING)


def test_table_writer_rebuilds_the_stored_rule():
    tool = _load("gauss_log_rules")
    x, w, err = tool.build(4)
    assert err <= tool.TOL
    np.testing.assert_allclose(x, GAUSS_LOG_RULES[4][0], rtol=1e-14)
    np.testing.assert_allclose(w, GAUSS_LOG_RULES[4][1], rtol=1e-14)
