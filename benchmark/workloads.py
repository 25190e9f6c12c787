"""The two benchmark workloads and the per-operation correctness gate.

Each workload drives the program through public entry points only:
``bdies2d.cli.main``, ``solve_bvp``, ``BdieSystem.cond`` and
``DirichletSolution.evaluate``.  The seed generates the evaluation points;
nothing else the program receives depends on it.

The gate reuses tolerances the repository already asserts and adds none:
the checks of the CLI ``solve`` command for every solve, and every check a
CLI command writes to its ``results.json``.  A miss or an exception fails
that one operation; the workload goes on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Checks of ``bdies2d solve`` (cli._run_solve).
SOLVE_TOL = {"residual": 1e-12, "field": 1e-3, "flux": 1e-2, "trace": 1e-5}
#: An error below this counts as this value, so that digits stay finite.
ERROR_FLOOR = 1e-17

DISK = {"kind": "disk", "radius": 0.4}
STAR = {"kind": "star", "cos_coeffs": [0.3, 0.0, 0.03]}

# Full sizes fit several fresh-process repetitions into one measured run;
# tiny sizes exist for the benchmark's own tests.
SIZES = {
    "star_families": {"full": {"res": (64, 16, 8), "points": 64},
                      "tiny": {"res": (32, 8, 4), "points": 8}},
    "disk_validate": {"full": {"validate": None, "solve": (96, 24, 10)},
                      "tiny": {"validate": (32, 8, 4), "solve": (32, 8, 4)}},
}


@dataclass
class Outcome:
    """Correctness of one repetition: operations, failures, accuracy."""

    ops: int = 0
    failures: list = field(default_factory=list)
    u_err: float = 0.0
    psi_err: float = 0.0
    measured: int = 0

    def fail(self, op: str, why: str):
        self.failures.append(f"{op}: {why}")

    def over(self, op: str, name: str, value: float, tol: float):
        """Record a failure when a checked value misses its tolerance."""
        if not value <= tol:
            self.fail(op, f"{name} {value:.3e} > {tol:.0e}")

    def accuracy(self, u_err: float, psi_err: float):
        self.measured += 1
        self.u_err = max(self.u_err, u_err)
        self.psi_err = max(self.psi_err, psi_err)

    def failed_ops(self) -> int:
        return len({f.split(": ")[0] for f in self.failures})

    def digits(self) -> tuple:
        """-log10 of the worst errors; 0 if an operation measured none."""
        def digits(err):
            return -math.log10(max(err, ERROR_FLOOR)) if self.measured else 0.0
        return digits(self.u_err), digits(self.psi_err)


def attempt(results: dict, name: str, fn):
    """Run one operation; an exception is its result, not the run's end."""
    try:
        results[name] = fn()
    except Exception as exc:  # counted as a failed operation by check()
        results[name] = exc
    return results[name]


def _failed(outcome: Outcome, op: str, result) -> bool:
    outcome.ops += 1
    if isinstance(result, Exception):
        outcome.fail(op, f"raised {type(result).__name__}: {result}")
        return True
    return False


class Workload:
    name = ""

    def __init__(self, bd, scale: str, seed: int, work_dir: Path):
        self.bd = bd
        self.size = SIZES[self.name][scale]
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.results = {}

    def prepare(self):
        """Generate inputs; untimed set-up."""

    def run(self, lap):
        """The timed operations; results land in ``self.results``.

        ``lap()`` is called after each operation; the benchmark measures
        the host's speed there, outside the timed part.
        """
        raise NotImplementedError

    def check(self) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The workload that calls the library
# ---------------------------------------------------------------------------

def _check_solve(out: Outcome, op: str, case, sol, curve, grid):
    """The CLI solve checks, computed as ``verification.solve_case`` does."""
    u_ex = case.u(grid.points)
    err_u = float(np.abs(sol.u.values - u_ex).max()
                  / max(float(np.abs(u_ex).max()), 1e-30))
    err_psi = float(np.abs(sol.psi.values - case.psi_on(curve)).max())
    trace = float(np.abs(sol.u.at(curve.points) - case.u(curve.points)).max())
    out.over(op, "residual", sol.residual, SOLVE_TOL["residual"])
    out.over(op, "err_u_max_rel", err_u, SOLVE_TOL["field"])
    out.over(op, "err_psi_max", err_psi, SOLVE_TOL["flux"])
    out.over(op, "trace_defect", trace, SOLVE_TOL["trace"])
    out.accuracy(err_u, err_psi)


def _check_eval(out: Outcome, op: str, case, values, points):
    exact = case.u(points)
    err = float(np.abs(values - exact).max()
                / max(float(np.abs(exact).max()), 1e-30))
    out.over(op, "err_eval_rel", err, SOLVE_TOL["field"])


class StarFamilies(Workload):
    """Both kernel families on one star curve and grid, then evaluation."""

    name = "star_families"

    def prepare(self):
        geometry, potentials = self.bd.geometry, self.bd.potentials
        nb, _, _ = self.size["res"]
        spec = geometry.DomainSpec("star", center=(0.0, 0.0),
                                   cos_coeffs=STAR["cos_coeffs"])
        curve = geometry.build_curve(spec, nb)
        d_min = potentials.delta_near(curve)
        n = self.size["points"]
        # Stratified in angle and in area so the per-point cost mix, which
        # grows near the boundary, is the same for every seed.
        theta = 2 * np.pi * (np.arange(n) + self.rng.random(n)) / n
        area = (self.rng.permutation(n) + self.rng.random(n)) / n
        rho = spec.rho(theta)
        s_max = 1.0 - 1.5 * d_min / rho.min()
        s = s_max * np.sqrt(area)
        pts = spec.center + (s * rho)[:, None] * np.stack(
            [np.cos(theta), np.sin(theta)], axis=1)
        if (curve.distance_to(pts) < d_min).any():
            raise RuntimeError("evaluation point nearer than delta_near")
        self.points = pts

    def run(self, lap):
        bd, (nb, nt, ns) = self.bd, self.size["res"]
        self.case = bd.verification.manufactured_case("exp_saddle")
        spec = bd.geometry.DomainSpec("star", center=(0.0, 0.0),
                                      cos_coeffs=STAR["cos_coeffs"])
        self.curve = bd.geometry.build_curve(spec, nb)
        self.grid = bd.geometry.build_domain_grid(spec, nt, ns)
        f = self.case.f_field_on(self.grid)
        phi0 = self.case.phi0_on(self.curve)
        for fam in ("x", "y"):
            sol = attempt(self.results, f"solve_{fam}",
                          lambda: bd.solver.solve_bvp(
                              self.curve, self.grid, self.case.coeff, fam,
                              f, phi0))
            lap()
            if isinstance(sol, Exception):
                self.results[f"eval_{fam}"] = RuntimeError("no solution")
                continue
            attempt(self.results, f"eval_{fam}",
                    lambda: sol.evaluate(self.points))
            lap()

    def check(self) -> Outcome:
        out = Outcome()
        for fam in ("x", "y"):
            sol = self.results[f"solve_{fam}"]
            if not _failed(out, f"solve_{fam}", sol):
                _check_solve(out, f"solve_{fam}", self.case, sol,
                             self.curve, self.grid)
            vals = self.results[f"eval_{fam}"]
            if not _failed(out, f"eval_{fam}", vals):
                _check_eval(out, f"eval_{fam}", self.case, vals, self.points)
        return out


# ---------------------------------------------------------------------------
# The workload that calls the command line
# ---------------------------------------------------------------------------

def _resolution(res):
    nb, nt, ns = res
    return {"n_boundary": nb, "n_t": nt, "n_s": ns}


class DiskValidate(Workload):
    """``bdies2d validate`` for the coefficient, then ``bdies2d solve``.

    Both run through ``bdies2d.cli.main`` on configs written during set-up.
    """

    name = "disk_validate"

    def _config(self, cfg: dict):
        (self.work_dir / f"{cfg['command']}.json").write_text(json.dumps(cfg))

    def _main(self, command: str):
        argv = [command, "--config", str(self.work_dir / f"{command}.json"),
                "--out", str(self.work_dir / command)]
        attempt(self.results, command, lambda: self.bd.cli.main(argv))

    def _results(self, out: Outcome, command: str):
        """Parsed results.json of a command, or None if it wrote none."""
        status = self.results[command]
        if _failed(out, command, status):
            return None
        if status != 0:
            out.fail(command, f"exit status {status}")
        path = self.work_dir / command / "results.json"
        if not path.is_file():
            out.fail(command, "no results.json")
            return None
        payload = json.loads(path.read_text())
        for c in payload["checks"]:
            if not c["pass"]:
                out.fail(command, f"check {c['name']} {c['value']:.3e} "
                                f"(tolerance {c['tolerance']:.0e})")
        return payload

    def prepare(self):
        validate = {"command": "validate", "domain": DISK,
                    "coefficient": {"preset": "exponential"}, "family": "x"}
        if self.size["validate"] is not None:
            validate["resolutions"] = [_resolution(self.size["validate"])]
        self._config(validate)
        self._config({
            "command": "solve", "domain": DISK, "case": "exp_saddle",
            "family": "x", "resolutions": [_resolution(self.size["solve"])]})

    def run(self, lap):
        self._main("validate")
        lap()
        self._main("solve")
        lap()

    def check(self) -> Outcome:
        out = Outcome()
        self._results(out, "validate")
        payload = self._results(out, "solve")
        if payload is not None:
            value = {c["name"]: c["value"] for c in payload["checks"]}
            out.accuracy(value["err_u_max_rel"], value["err_psi_max"])
        return out


WORKLOADS = {w.name: w for w in (StarFamilies, DiskValidate)}
