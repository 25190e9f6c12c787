"""System assembly, the dense solve, and the representation formula."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_verification import convex_domains

from bdies2d import potentials, solver
from bdies2d.coefficient import make_preset
from bdies2d.geometry import DomainSpec, GeometryError, build_curve, build_domain_grid
from bdies2d.potentials import BoundaryDensity, DomainField, delta_near
from bdies2d.solver import (DiameterError, assemble_rhs, assemble_system,
                            solve_bvp, solve_dirichlet, third_green_residual)

DISK = DomainSpec("disk", center=(0.0, 0.0), radius=0.4)
A_ONE = make_preset("constant", value=1.0)
A_EXP = make_preset("exponential", direction=(1.0, 1.0))


@pytest.fixture(scope="module")
def geo():
    return build_curve(DISK, 64), build_domain_grid(DISK, 16, 8)


@pytest.fixture(scope="module")
def geo_fine():
    return build_curve(DISK, 128), build_domain_grid(DISK, 32, 12)


def _zero_data(curve, grid):
    return (DomainField(grid, np.zeros(grid.n_nodes)),
            BoundaryDensity(curve, np.zeros(curve.n)))


class TestAssembly:
    def test_constant_coefficient_block_structure(self, geo):
        curve, grid = geo
        sys = assemble_system(curve, grid, A_ONE, "x")
        n_h = grid.n_nodes
        np.testing.assert_allclose(sys.matrix[:n_h, :n_h], np.eye(n_h),
                                   atol=1e-12)
        assert np.abs(sys.matrix[n_h:, :n_h]).max() < 1e-12

    def test_diameter_precondition(self):
        big = DomainSpec("disk", center=(0.0, 0.0), radius=0.6)
        curve = build_curve(big, 32)
        grid = build_domain_grid(big, 16, 8)
        with pytest.raises(DiameterError, match="diameter"):
            assemble_system(curve, grid, A_ONE, "x")

    def test_large_domain_optout_solves(self):
        big = DomainSpec("disk", center=(0.0, 0.0), radius=0.6)
        curve = build_curve(big, 64)
        grid = build_domain_grid(big, 16, 8)
        case_u = lambda p: np.atleast_2d(p)[:, 0]
        f = DomainField(grid, np.zeros(grid.n_nodes))
        phi0 = BoundaryDensity(curve, case_u(curve.points))
        sol = solve_bvp(curve, grid, A_ONE, "x", f, phi0,
                        allow_large_domain=True)
        assert np.abs(sol.u.values - case_u(grid.points)).max() < 1e-6
        assert abs(curve.weights @ sol.psi.values) < 1e-10

    def test_condition_diagnostics(self, geo):
        curve, grid = geo
        sys = assemble_system(curve, grid, A_EXP, "x")
        assert np.isfinite(sys.cond)
        assert sys.sigma_min > 1e-8


class TestRhs:
    def test_gauss_identity_rhs(self, geo_fine):
        # f = 0, g = 1, a = 1: F0 = -W1 = +1 inside and on the trace
        curve, grid = geo_fine
        f = DomainField(grid, np.zeros(grid.n_nodes))
        phi0 = BoundaryDensity(curve, np.ones(curve.n))
        rhs_grid, rhs_trace = assemble_rhs(curve, grid, A_ONE, "x", f, phi0)
        np.testing.assert_allclose(rhs_grid, 1.0, atol=1e-10)
        np.testing.assert_allclose(rhs_trace, 1.0, atol=1e-10)

    def test_zero_data_zero_rhs(self, geo):
        curve, grid = geo
        f, phi0 = _zero_data(curve, grid)
        rhs_grid, rhs_trace = assemble_rhs(curve, grid, A_EXP, "x", f, phi0)
        assert np.all(rhs_grid == 0.0) and np.all(rhs_trace == 0.0)


class TestSolve:
    def test_unit_solution_smoke(self, geo_fine):
        curve, grid = geo_fine
        f = DomainField(grid, np.zeros(grid.n_nodes))
        phi0 = BoundaryDensity(curve, np.ones(curve.n))
        sol = solve_bvp(curve, grid, A_EXP, "x", f, phi0)
        assert np.abs(sol.u.values - 1.0).max() < 1e-8
        assert np.abs(sol.psi.values).max() < 1e-6
        assert sol.residual < 1e-12

    def test_zero_data_gives_exact_zero(self, geo):
        curve, grid = geo
        f, phi0 = _zero_data(curve, grid)
        sol = solve_bvp(curve, grid, A_EXP, "x", f, phi0)
        assert np.all(sol.u.values == 0.0)
        assert np.all(sol.psi.values == 0.0)

    def test_solve_requires_rhs(self, geo):
        curve, grid = geo
        sys = assemble_system(curve, grid, A_ONE, "x")
        with pytest.raises(ValueError, match="right-hand side"):
            solve_dirichlet(sys)

    def test_singular_matrix_raises_named_error(self, geo):
        # an exactly singular matrix must name itself, not surface as a
        # LAPACK warning or as non-finite values
        curve, grid = geo
        f, phi0 = _zero_data(curve, grid)
        sys = assemble_system(curve, grid, A_EXP, "x").with_data(f, phi0)
        sys.matrix = sys.matrix.copy()
        sys.matrix[:, 3] = 0.0
        with pytest.raises(RuntimeError, match="singular"):
            solve_dirichlet(sys)

    def test_uniqueness_surrogate(self, geo):
        curve, grid = geo
        f, phi0 = _zero_data(curve, grid)
        sys = assemble_system(curve, grid, A_EXP, "x").with_data(f, phi0)
        eps = 1e-8
        base = sys.rhs.copy()
        sols = []
        for sign in (+1.0, -1.0):
            sys.rhs = base + sign * eps
            sols.append(solve_dirichlet(sys))
        gap = np.abs(sols[0].u.values - sols[1].u.values).max()
        assert gap <= 2 * eps * sys.cond


@pytest.fixture(scope="module")
def unit_sol(geo_fine):
    curve, grid = geo_fine
    f = DomainField(grid, np.zeros(grid.n_nodes))
    phi0 = BoundaryDensity(curve, np.ones(curve.n))
    return solve_bvp(curve, grid, A_EXP, "x", f, phi0)


class TestSharedGeometry:
    def test_second_family_builds_no_rules(self, monkeypatch):
        # one rule per dihedral orbit: the star maps onto itself under a
        # half turn and the mirror, so the 8 grid angles fall into the
        # orbits {0, 4}, {1, 3, 5, 7}, {2, 6} at each radius, and the 32
        # curve nodes into {0, 16}, {8, 24} and 7 quadruples; the rules
        # and log rows of family x serve family y on the same grid
        from bdies2d.verification import manufactured_case
        spec = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(0.3, 0.0, 0.03))
        curve, grid = build_curve(spec, 32), build_domain_grid(spec, 8, 4)
        case = manufactured_case("exp_saddle")
        f, phi0 = case.f_field_on(grid), case.phi0_on(curve)
        calls = []
        build = potentials.polar_rules

        def counted(spec, targets, *args, **kwargs):
            calls.extend(targets)
            return build(spec, targets, *args, **kwargs)

        monkeypatch.setattr(potentials, "polar_rules", counted)
        solve_bvp(curve, grid, case.coeff, "x", f, phi0)
        assert len(calls) == 3 * grid.n_s + 9
        solve_bvp(curve, grid, case.coeff, "y", f, phi0)
        assert len(calls) == 3 * grid.n_s + 9

    def test_second_family_builds_no_laplace_blocks(self, monkeypatch):
        # the Laplace blocks of family x serve family y on the same curve
        from bdies2d import laplace
        from bdies2d.verification import manufactured_case
        curve, grid = build_curve(DISK, 32), build_domain_grid(DISK, 8, 4)
        case = manufactured_case("exp_saddle")
        f, phi0 = case.f_field_on(grid), case.phi0_on(curve)
        calls = []
        for name in ("single_layer_matrix", "layer_matrix_at_targets"):
            def counted(*args, _build=getattr(laplace, name), _name=name,
                        **kwargs):
                calls.append(_name)
                return _build(*args, **kwargs)
            monkeypatch.setattr(laplace, name, counted)
        solve_bvp(curve, grid, case.coeff, "x", f, phi0)
        assert sorted(calls) == ["layer_matrix_at_targets"] * 2 + [
            "single_layer_matrix"]
        solve_bvp(curve, grid, case.coeff, "y", f, phi0)
        assert len(calls) == 3


class TestEvaluator:
    def test_unit_case_interior_value(self, unit_sol):
        assert abs(unit_sol.evaluate([[0.1, 0.05]])[0] - 1.0) < 1e-6

    def test_reproduces_nodal_values(self, unit_sol):
        grid = unit_sol.system.grid
        vals = unit_sol.evaluate(grid.points, allow_near=True)
        assert np.abs(vals - unit_sol.u.values).max() < 1e-9

    def test_near_boundary_target_rejected(self, unit_sol):
        curve = unit_sol.system.curve
        y = [0.4 - 0.1 * delta_near(curve), 0.0]
        with pytest.raises(GeometryError, match="distance"):
            unit_sol.evaluate([y])[0]

    def test_boundary_nodes_rejected_even_when_near_allowed(self, unit_sol):
        # curve nodes whose level rounds just below 1 would read NaN
        curve = unit_sol.system.curve
        on_curve = curve.points[DISK.level(curve.points) < 1.0]
        assert len(on_curve)
        with pytest.raises(GeometryError, match="outside"):
            unit_sol.evaluate(on_curve, allow_near=True)

    def test_exterior_target_rejected(self, unit_sol):
        with pytest.raises(GeometryError, match="outside"):
            unit_sol.evaluate([[0.5, 0.0]])[0]

    @pytest.mark.parametrize("points, message", [
        ([[np.nan, 0.0]], "finite"),
        ([[0.1, np.inf]], "finite"),
        ([[0.1, 0.1, 0.1]], r"shape \(m, 2\)"),
        ([[[0.1, 0.05]]], r"shape \(m, 2\)"),
    ], ids=["nan", "inf", "three-columns", "three-dims"])
    def test_bad_points_raise_named_errors(self, unit_sol, points, message):
        with pytest.raises(GeometryError, match=message):
            unit_sol.evaluate(points)

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), []],
                             ids=["zero-rows", "empty-list"])
    def test_empty_point_set_gives_empty_values(self, unit_sol, points):
        assert unit_sol.evaluate(points).shape == (0,)


@pytest.fixture(scope="module")
def exp_sol(geo_fine):
    from bdies2d.verification import manufactured_case
    curve, grid = geo_fine
    case = manufactured_case("exp_saddle")
    sol = solve_bvp(curve, grid, case.coeff, "x",
                    case.f_field_on(grid), case.phi0_on(curve))
    return case, sol


class TestManufacturedEvaluation:
    def test_nodal_error(self, exp_sol):
        case, sol = exp_sol
        err = np.abs(sol.u.values - case.u(sol.system.grid.points)).max()
        assert err < 1e-4 * 0.16

    def test_center_value_by_symmetry(self, exp_sol):
        _, sol = exp_sol
        assert abs(sol.evaluate([[0.0, 0.0]])[0]) < 1e-5

    def test_interior_point_closed_form(self, exp_sol):
        # u(0.2, 0.1) = 0.04 - 0.01 = 0.03
        _, sol = exp_sol
        assert abs(sol.evaluate([[0.2, 0.1]])[0] - 0.03) < 1e-4


class TestThirdGreenIdentity:
    def test_unit_case_interior_and_boundary(self, geo_fine):
        curve, grid = geo_fine
        u = DomainField(grid, np.ones(grid.n_nodes))
        psi = BoundaryDensity(curve, np.zeros(curve.n))
        f = DomainField(grid, np.zeros(grid.n_nodes))
        phi0 = BoundaryDensity(curve, np.ones(curve.n))
        r_in = third_green_residual(u, psi, f, phi0, curve, grid, A_ONE, "x",
                                    targets=[[0.1, 0.0], [0.0, 0.2]])
        assert np.abs(r_in).max() < 1e-10
        r_bd = third_green_residual(u, psi, f, phi0, curve, grid, A_ONE, "x",
                                    on_boundary=True)
        assert np.abs(r_bd).max() < 1e-10

    def test_manufactured_exact_data(self, geo_fine):
        from bdies2d.verification import manufactured_case
        curve, grid = geo_fine
        case = manufactured_case("exp_saddle")
        u = case.u_field_on(grid)
        psi = BoundaryDensity(curve, case.psi_on(curve))
        f = case.f_field_on(grid)
        phi0 = case.phi0_on(curve)
        rng = np.random.default_rng(11)
        ang = rng.uniform(0, 2 * np.pi, 12)
        rad = rng.uniform(0.0, 0.32, 12)
        targets = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        r = third_green_residual(u, psi, f, phi0, curve, grid, case.coeff,
                                 "x", targets=targets)
        assert np.abs(r).max() < 1e-5


BENCH_STAR = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(0.3, 0.0, 0.03))
ROT_RES = (32, 8, 4)


class TestSystemIsTheIdentity:
    @pytest.mark.parametrize("family", potentials.FAMILIES)
    @pytest.mark.parametrize("spec", [DISK, BENCH_STAR], ids=["disk", "star"])
    def test_system_rows_are_the_identity_defect(self, spec, family):
        # for any (u, psi, f, g), A z - rhs with z = [u; psi] is the
        # defect of the identity at the grid nodes and of its trace at
        # the curve nodes: the system is the identity, collocated
        nb, nt, ns = ROT_RES
        curve, grid = build_curve(spec, nb), build_domain_grid(spec, nt, ns)
        rng = np.random.default_rng(7)
        u = DomainField(grid, rng.standard_normal(grid.n_nodes))
        psi = BoundaryDensity(curve, rng.standard_normal(curve.n))
        f = DomainField(grid, rng.standard_normal(grid.n_nodes))
        phi0 = BoundaryDensity(curve, rng.standard_normal(curve.n))
        sys = assemble_system(curve, grid, A_EXP, family).with_data(f, phi0)
        z = np.concatenate([u.values, psi.values])
        defect = sys.matrix @ z - sys.rhs
        tol = 1e-13 * (np.abs(sys.rhs).max()
                       + np.abs(sys.matrix).max() * np.abs(z).max())
        args = (u, psi, f, phi0, curve, grid, A_EXP, family)
        boundary = third_green_residual(*args, on_boundary=True)
        interior = third_green_residual(*args, targets=grid.points)
        assert np.abs(boundary - defect[grid.n_nodes:]).max() <= tol
        assert np.abs(interior - defect[:grid.n_nodes]).max() <= tol

# (domain, grid angular steps): a disk maps onto itself under every step,
# the benchmark star (cosine modes 0 and 2) under a half turn
ROTATIONS = st.one_of(
    st.tuples(st.just(DISK), st.integers(1, ROT_RES[1] - 1)),
    st.tuples(st.just(BENCH_STAR), st.just(ROT_RES[1] // 2)))


@functools.lru_cache(maxsize=None)
def _rot_geometry(spec):
    nb, nt, ns = ROT_RES
    return build_curve(spec, nb), build_domain_grid(spec, nt, ns)


class TestRotationInvariance:
    @settings(max_examples=16, deadline=None)
    @given(rotation=ROTATIONS, family=st.sampled_from(potentials.FAMILIES),
           alpha=st.floats(0.0, 2 * np.pi))
    def test_rotating_coefficient_and_data_rolls_the_solution(
            self, rotation, family, alpha):
        # exp_saddle's f and g, under a = exp(d . x) with d at angle alpha;
        # then d, f and g rotated about the origin by `shift` grid steps
        from bdies2d.verification import manufactured_case
        spec, shift = rotation
        curve, grid = _rot_geometry(spec)
        case = manufactured_case("exp_saddle")
        beta = 2 * np.pi * shift / grid.n_t
        c, s = np.cos(beta), np.sin(beta)
        back = np.array([[c, -s], [s, c]])       # p @ back: p turned by -beta

        def solve(angle, frame):
            coeff = make_preset("exponential",
                                direction=(np.cos(angle), np.sin(angle)))
            f = DomainField(grid, case.f(grid.points @ frame))
            phi0 = BoundaryDensity(curve, case.u(curve.points @ frame))
            sol = solve_bvp(curve, grid, coeff, family, f, phi0)
            return sol.u.values.reshape(grid.n_t, grid.n_s), sol.psi.values

        u0, psi0 = solve(alpha, np.eye(2))
        u1, psi1 = solve(alpha + beta, back)
        du = np.abs(np.roll(u0, shift, axis=0) - u1).max()
        dpsi = np.abs(np.roll(psi0, shift * curve.n // grid.n_t) - psi1).max()
        assert du <= 1e-12 * np.abs(u0).max()
        assert dpsi <= 1e-12 * np.abs(psi0).max()


# an odd cosine mode: the mirror maps this star onto itself, no rotation
# does; every disk and cosine-series star centered at the origin is its
# own image under the mirror about the horizontal axis
MIRROR_STAR = DomainSpec("star", center=(0.0, 0.0),
                         cos_coeffs=(0.3, 0.02, 0.03))


class TestMirrorInvariance:
    @settings(max_examples=12, deadline=None)
    @given(spec=st.sampled_from([DISK, BENCH_STAR, MIRROR_STAR]),
           family=st.sampled_from(potentials.FAMILIES),
           alpha=st.floats(0.0, 2 * np.pi))
    def test_mirroring_coefficient_and_data_reflects_the_solution(
            self, spec, family, alpha):
        # exp_saddle's f and g, under a = exp(d . x) with d at angle alpha;
        # then d, f and g mirrored about the horizontal axis: grid angle j
        # and curve node i map to -j and -i
        from bdies2d.verification import manufactured_case
        curve, grid = _rot_geometry(spec)
        case = manufactured_case("exp_saddle")
        mirror = np.diag([1.0, -1.0])

        def solve(angle, frame):
            coeff = make_preset("exponential",
                                direction=(np.cos(angle), np.sin(angle)))
            f = DomainField(grid, case.f(grid.points @ frame))
            phi0 = BoundaryDensity(curve, case.u(curve.points @ frame))
            sol = solve_bvp(curve, grid, coeff, family, f, phi0)
            return sol.u.values.reshape(grid.n_t, grid.n_s), sol.psi.values

        u0, psi0 = solve(alpha, np.eye(2))
        u1, psi1 = solve(-alpha, mirror)
        j, i = -np.arange(grid.n_t) % grid.n_t, -np.arange(curve.n) % curve.n
        du = np.abs(u0[j] - u1).max()
        dpsi = np.abs(psi0[i] - psi1).max()
        assert du <= 1e-12 * np.abs(u0).max()
        assert dpsi <= 1e-12 * np.abs(psi0).max()


class TestZeroData:
    @settings(max_examples=10, deadline=None)
    @given(spec=convex_domains(), family=st.sampled_from(potentials.FAMILIES))
    def test_zero_data_gives_zero_solution(self, spec, family):
        # the system is linear with no data-free term: f = 0 and g = 0
        # must give u = 0 and psi = 0 exactly, on disks and convex stars
        curve, grid = build_curve(spec, 32), build_domain_grid(spec, 8, 4)
        sol = solve_bvp(curve, grid, A_EXP, family,
                        DomainField(grid, np.zeros(grid.n_nodes)),
                        BoundaryDensity(curve, np.zeros(curve.n)))
        np.testing.assert_array_equal(sol.u.values, 0.0)
        np.testing.assert_array_equal(sol.psi.values, 0.0)


class TestVolumeQuadratureAccuracy:
    @pytest.mark.parametrize("spec, family, u_tol", [
        (DISK, "x", np.inf), (BENCH_STAR, "y", 1e-9)], ids=["disk-x", "star-y"])
    def test_log_singular_rule_reaches_the_grid_error(self, spec, family,
                                                      u_tol):
        # exp_saddle at 128/32x12: a radial rule that leaves r log r to ~1e-7
        # shows in psi (2.3e-7 on the disk, 1.7e-7 on the star) and in
        # family y's u (1.8e-9)
        from bdies2d.verification import manufactured_case
        case = manufactured_case("exp_saddle")
        curve, grid = build_curve(spec, 128), build_domain_grid(spec, 32, 12)
        sol = solve_bvp(curve, grid, case.coeff, family, case.f_field_on(grid),
                        case.phi0_on(curve))
        u_ex = case.u(grid.points)
        assert np.abs(sol.u.values - u_ex).max() <= u_tol * np.abs(u_ex).max()
        assert np.abs(sol.psi.values - case.psi_on(curve)).max() <= 5e-8
