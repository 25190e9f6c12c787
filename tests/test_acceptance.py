"""Acceptance suite: every certification criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to stream
them).  The heavy ladder solves are shared through module-scoped fixtures;
the whole module runs in a few minutes.
"""

import numpy as np
import pytest

from bdies2d import laplace, potentials, solver
from bdies2d import verification as V
from bdies2d.cli import ConfigError
from bdies2d.coefficient import make_preset
from bdies2d.geometry import DomainSpec, build_curve, build_domain_grid
from bdies2d.potentials import BoundaryDensity, DomainField
from bdies2d.solver import DiameterError, assemble_system, solve_bvp, solve_dirichlet

DISK = DomainSpec("disk", center=(0.0, 0.0), radius=0.4)
LADDER = [(64, 16, 8), (128, 32, 12), (256, 64, 24)]
A_EXP = make_preset("exponential", direction=(1.0, 1.0))


def report(num, desc, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num}: {tag} - {desc}" + (f" [{detail}]" if detail else ""))
    assert passed, f"criterion {num}: {desc} {detail}"


@pytest.fixture(scope="module")
def exp_compare():
    case = V.manufactured_case("exp_saddle")
    return V.convergence_study(case, DISK, ("x", "y"), LADDER)


@pytest.fixture(scope="module")
def quad_study():
    case = V.manufactured_case("quad_coeff")
    return V.convergence_study(case, DISK, ("x",), LADDER)["x"]


@pytest.fixture(scope="module")
def suite():
    curve = build_curve(DISK, 128)
    grid = build_domain_grid(DISK, 32, 12)
    return V.identity_suite(curve, grid, A_EXP, "x")


def test_criterion_1_gauss_identities():
    curve = build_curve(DISK, 128)
    ones = np.ones(128)
    direct = np.abs(laplace.double_layer_matrix(curve) @ ones + 0.5).max()
    interior = abs(laplace.layer_eval(curve, "d", ones, [[0.1, 0.05]])[0] + 1.0)
    exterior = abs(laplace.layer_eval(curve, "d", ones, [[0.9, 0.3]])[0])
    worst = max(direct, interior, exterior)
    report(1, "Gauss identity triple (-1/2, -1, 0) at n=128", worst < 1e-10,
           f"max defect {worst:.2e}")


def test_criterion_2_relation_suite(suite):
    rel = [c for c in suite.checks if c.name.startswith("relation_")]
    assert len(rel) >= 14
    bad = [(c.name, c.value) for c in rel if not c.passed]
    worst = max(c.value / c.tolerance for c in rel)
    report(2, "operator relations vs direct kernel quadrature", not bad,
           f"worst value/tol {worst:.2e}" + (f" failures {bad}" if bad else ""))


def test_criterion_3_third_green_identity():
    curve = build_curve(DISK, 256)
    grid = build_domain_grid(DISK, 64, 24)
    case = V.manufactured_case("exp_saddle")
    rng = np.random.default_rng(17)
    ang = rng.uniform(0, 2 * np.pi, 20)
    rad = np.sqrt(rng.uniform(0, 1, 20)) * 0.35    # keeps 0.05 off the wall
    targets = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    res = solver.third_green_residual(
        case.u_field_on(grid), BoundaryDensity(curve, case.psi_on(curve)),
        case.f_field_on(grid), case.phi0_on(curve), curve, grid, case.coeff,
        "x", targets=targets)
    worst = np.abs(res).max()
    report(3, "third Green identity residual, exact data at 256/64x24",
           worst < 1e-5, f"max residual {worst:.2e}")


def test_criterion_4_subtraction_identity():
    curve = build_curve(DISK, 128)
    grid = build_domain_grid(DISK, 64, 24)
    rng = np.random.default_rng(23)
    ang = rng.uniform(0, 2 * np.pi, 20)
    rad = np.sqrt(rng.uniform(0, 1, 20)) * 0.37
    targets = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    ones_f = DomainField(grid, np.ones(grid.n_nodes))
    ones_b = BoundaryDensity(curve, np.ones(curve.n))
    worst = 0.0
    for coeff in (A_EXP, make_preset("quadratic")):
        r1 = potentials.remainder_potential(grid, coeff, "x", ones_f, targets)
        w1 = potentials.layer_rows(curve, coeff, "x", "W", targets) @ ones_b.values
        worst = max(worst, float(np.abs(1.0 + r1 + w1).max()))
    report(4, "subtraction identity at 20 interior targets, two coefficients",
           worst < 1e-6, f"max defect {worst:.2e}")


def test_criterion_5_full_solve_equivalence(exp_compare, quad_study):
    ok = True
    details = []
    for name, row in (("exp_saddle", exp_compare["x"].rows[-1]),
                      ("quad_coeff", quad_study.rows[-1])):
        ok &= row.err_u_max < 1e-4 and row.err_psi_max < 1e-3 \
            and row.trace_defect < 1e-6
        details.append(f"{name}: u {row.err_u_max:.1e} psi "
                       f"{row.err_psi_max:.1e} trace {row.trace_defect:.1e}")

    curve = build_curve(DISK, 256)
    grid = build_domain_grid(DISK, 64, 24)
    sol = solve_bvp(curve, grid, A_EXP, "x",
                    DomainField(grid, np.zeros(grid.n_nodes)),
                    BoundaryDensity(curve, np.ones(curve.n)))
    smoke_u = np.abs(sol.u.values - 1.0).max()
    smoke_psi = np.abs(sol.psi.values).max()
    ok &= smoke_u < 1e-8 and smoke_psi < 1e-6
    details.append(f"u=1 smoke: u {smoke_u:.1e} psi {smoke_psi:.1e}")
    report(5, "manufactured solves at 256/64x24 within tolerances", bool(ok),
           "; ".join(details))


def test_criterion_6_convergence_order(exp_compare, quad_study):
    ok = True
    details = []
    for name, rep in (("exp_saddle", exp_compare["x"]),
                      ("quad_coeff", quad_study)):
        ok &= rep.monotone and rep.final_order >= 2.0
        details.append(f"{name}: errors "
                       + ">".join(f"{r.err_u_max:.1e}" for r in rep.rows)
                       + f", final order {rep.final_order:.1f}")
    report(6, "monotone ladder with final observed order >= 2", bool(ok),
           "; ".join(details))


def test_criterion_7_invertibility():
    curve = build_curve(DISK, 128)
    grid = build_domain_grid(DISK, 32, 12)
    sys = assemble_system(curve, grid, A_EXP, "x")
    sigma_ok = sys.sigma_min > 1e-8
    inv = V.invertibility_report(curve, A_EXP, "x")
    sl_ok = inv["sigma_min_single_layer"] > 1e-8

    zero = solve_dirichlet(sys.with_data(
        DomainField(grid, np.zeros(grid.n_nodes)),
        BoundaryDensity(curve, np.zeros(curve.n))))
    zero_ok = np.all(zero.u.values == 0.0) and np.all(zero.psi.values == 0.0)

    big = DomainSpec("disk", center=(0, 0), radius=0.6)
    try:
        assemble_system(build_curve(big, 32), build_domain_grid(big, 16, 8),
                        A_EXP, "x")
        reject_ok = False
    except DiameterError:
        reject_ok = True
    try:
        from bdies2d.cli import RunConfig, _check_diameter
        _check_diameter(RunConfig(
            command="solve",
            domain={"kind": "disk", "center": [0, 0], "radius": 0.6}))
        cfg_ok = False
    except ConfigError:
        cfg_ok = True

    ok = sigma_ok and sl_ok and zero_ok and reject_ok and cfg_ok
    report(7, "invertibility: sigma_min floors, zero data, diameter guard",
           bool(ok), f"system sigma_min {sys.sigma_min:.2e}, "
           f"single layer {inv['sigma_min_single_layer']:.2e}")


def test_criterion_8_jump_relations(suite):
    jumps = [c for c in suite.checks if c.name.startswith("jump_")]
    assert len(jumps) == 3
    worst = max(c.value for c in jumps)
    report(8, "jump relations via Richardson extrapolation",
           all(c.passed for c in jumps), f"worst defect {worst:.2e} (tol 1e-3)")


def test_criterion_9_fd_oracle_cross_check():
    worst = 0.0
    curve, grid = build_curve(DISK, 128), build_domain_grid(DISK, 32, 12)
    for name in V.MANUFACTURED_NAMES:
        case = V.manufactured_case(name)
        sol, _ = V.solve_case(case, curve, grid, "x")
        fd = V.fd_oracle(case, DISK, 128, 128)
        worst = max(worst, V.oracle_discrepancy(sol, fd))
    report(9, "solver vs finite-difference oracle on all manufactured cases",
           worst < 1e-3, f"max discrepancy {worst:.2e}")


def test_criterion_10_family_comparison(exp_compare):
    rep_x, rep_y = exp_compare["x"], exp_compare["y"]
    emitted = (len(rep_x.rows) == len(LADDER) == len(rep_y.rows)
               and all(np.isfinite(r.cond) for r in rep_x.rows + rep_y.rows))
    x_ok = (rep_x.monotone and rep_x.final_order >= 2.0
            and rep_x.rows[-1].err_u_max < 1e-4
            and rep_x.rows[-1].err_psi_max < 1e-3)
    report(10, "family comparison: both reports emitted, x-family certified",
           bool(emitted and x_ok),
           f"y-family final err {rep_y.rows[-1].err_u_max:.1e} (reported only)")
