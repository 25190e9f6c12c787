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
    # the rules are built while the system is assembled
    assert 0.0 < row["rules_s"] < row["assemble_s"]
    assert row["err_u_max"] < 1e-2


def test_table_writer_rebuilds_the_stored_rule():
    spec = importlib.util.spec_from_file_location(
        "gauss_log_rules_tool", TOOLS / "gauss_log_rules.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    x, w, err = tool.build(4)
    assert err <= tool.TOL
    np.testing.assert_allclose(x, GAUSS_LOG_RULES[4][0], rtol=1e-14)
    np.testing.assert_allclose(w, GAUSS_LOG_RULES[4][1], rtol=1e-14)
