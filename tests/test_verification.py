"""Manufactured cases, oracles and certification machinery."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import fresh_env

from bdies2d import laplace, potentials
from bdies2d import verification as V
from bdies2d.coefficient import make_preset
from bdies2d.geometry import DomainSpec, build_curve, build_domain_grid
from bdies2d.laplace import QuadratureError
from bdies2d.potentials import FAMILIES, DomainField
from bdies2d.solver import assemble_system

DISK = DomainSpec("disk", center=(0.0, 0.0), radius=0.4)
A_EXP = make_preset("exponential", direction=(1.0, 1.0))
RNG = np.random.default_rng(9)
SAMPLES = 0.35 * (RNG.random((60, 2)) - 0.5)


def divergence_a_grad_fd(case, pts, h=1e-5):
    """Finite-difference div(a grad u) from the case's closed forms."""
    def flux(q):
        return case.coeff.a(q)[:, None] * case.grad_u(q)

    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    return ((flux(pts + ex)[:, 0] - flux(pts - ex)[:, 0])
            + (flux(pts + ey)[:, 1] - flux(pts - ey)[:, 1])) / (2 * h)


class TestManufacturedCases:
    @pytest.mark.parametrize("name", V.MANUFACTURED_NAMES)
    def test_source_matches_divergence_form(self, name):
        case = V.manufactured_case(name)
        fd = divergence_a_grad_fd(case, SAMPLES)
        assert np.abs(fd - case.f(SAMPLES)).max() < 1e-6

    def test_exp_saddle_closed_form(self):
        case = V.manufactured_case("exp_saddle")
        p = np.array([[0.2, -0.1]])
        assert abs(case.f(p)[0] - 2 * np.exp(0.1) * 0.3) < 1e-15

    def test_quad_coeff_closed_form(self):
        case = V.manufactured_case("quad_coeff")
        p = np.array([[0.3, 0.2]])
        assert abs(case.f(p)[0] - 2 * 0.3 * 0.2) < 1e-15
        np.testing.assert_allclose(case.grad_u(p)[0], [0.2, 1.3], atol=1e-15)

    def test_const_one_flux_zero(self):
        case = V.manufactured_case("const_one")
        curve = build_curve(DISK, 32)
        assert np.all(case.psi_on(curve) == 0.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            V.manufactured_case("mystery")


class TestFdOracle:
    def test_const_one_exact(self):
        case = V.manufactured_case("const_one")
        fd = V.fd_oracle(case, DISK, 32, 32)
        assert np.abs(fd.values - 1.0).max() < 1e-12

    def test_exp_saddle_second_order(self):
        case = V.manufactured_case("exp_saddle")
        errs = []
        for m in (32, 64, 128):
            fd = V.fd_oracle(case, DISK, m, m)
            errs.append(np.abs(fd.values - case.u(fd.points)).max())
        rate = np.log2(errs[0] / errs[2]) / 2
        assert errs[2] < 1e-4
        assert rate > 1.7

    def test_non_disk_rejected(self):
        with pytest.raises(ValueError, match="disk"):
            V.fd_oracle(V.manufactured_case("const_one"), BENCH_STAR, 16, 16)

    @pytest.mark.parametrize("coeffs", [(0.4,), (0.4, 0.0, 0.0)],
                             ids=["one-term", "zero-modes"])
    def test_one_mode_star_is_the_disk(self, coeffs):
        # a one-mode profile is a disk of radius cos_coeffs[0], whatever
        # its kind says
        case = V.manufactured_case("exp_saddle")
        star = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=coeffs)
        ref, got = V.fd_oracle(case, DISK, 16, 16), V.fd_oracle(case, star,
                                                                 16, 16)
        assert np.array_equal(got.points, ref.points)
        assert np.array_equal(got.values, ref.values)

    @pytest.mark.parametrize("n_r, n_theta, message", [
        (0, 8, "n_r must be at least 2"), (1, 8, "n_r must be at least 2"),
        (8, 1, "n_theta must be at least 3"),
        (8, 2, "n_theta must be at least 3"),
        (8.0, 8, "n_r must be an integer")],
        ids=["n_r-0", "n_r-1", "n_theta-1", "n_theta-2", "n_r-float"])
    def test_too_few_or_fractional_counts_rejected(self, n_r, n_theta,
                                                    message):
        with pytest.raises(ValueError, match=message):
            V.fd_oracle(V.manufactured_case("const_one"), DISK, n_r, n_theta)

    def test_smallest_grid_solves(self):
        fd = V.fd_oracle(V.manufactured_case("const_one"), DISK, 2, 3)
        assert np.abs(fd.values - 1.0).max() < 1e-12

    def test_runs_without_scipy(self):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any SciPy import raises\n"
            "import numpy as np\n"
            "import bdies2d as b\n"
            "case = b.manufactured_case('exp_saddle')\n"
            "disk = b.DomainSpec('disk', center=(0.0, 0.0), radius=0.4)\n"
            "fd = b.fd_oracle(case, disk, 32, 32)\n"
            "print(np.abs(fd.values - case.u(fd.points)).max())\n")
        out = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                             check=True, capture_output=True, text=True)
        # the 128x128 bound of the second-order test, scaled to 32x32
        assert float(out.stdout) < 1e-4 * (128 / 32) ** 2


@st.composite
def convex_domains(draw):
    """Disks and convex stars of diameter below 1."""
    center = (draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2)))
    r0 = draw(st.floats(0.2, 0.35))
    if draw(st.booleans()):
        return DomainSpec("disk", center=center, radius=r0)
    # rho = r0 (1 + eps cos k t) with |eps| (1 + k^2) < 1 keeps
    # rho - rho'' > 0, so the star is convex; max rho < 0.49
    k = draw(st.integers(1, 5))
    coeffs = np.zeros(k + 1)
    coeffs[0] = r0
    coeffs[k] = r0 * draw(st.floats(-0.8, 0.8)) / (1 + k * k)
    return DomainSpec("star", center=center, cos_coeffs=coeffs)


def _smooth_field(grid):
    return DomainField(grid, np.cos(grid.points[:, 0] + 0.3)
                       * (1.0 + grid.points[:, 1]))


class TestVolumeOracles:
    @settings(max_examples=20, deadline=None)
    @given(spec=convex_domains(), family=st.sampled_from(FAMILIES),
           polar=st.lists(st.tuples(st.floats(0.0, 0.8),
                                    st.floats(0.0, 2 * np.pi)),
                          min_size=1, max_size=2))
    def test_orbit_pass_matches_oracles(self, spec, family, polar):
        # targets at level s <= 0.8, then their mirror images about the
        # horizontal line through the center (on a star, each one's mirror
        # orbit partner); the tolerance is identity_suite's
        assert spec.diameter() < 1.0
        s, th = np.array(polar).T
        v = (s * spec.rho(th))[:, None] * np.stack([np.cos(th), np.sin(th)],
                                                    axis=1)
        tg = spec.center + np.concatenate([v, v * [1.0, -1.0]])
        grid = build_domain_grid(spec, 32, 12)
        f = _smooth_field(grid)
        oracle = V._volume_oracles(grid, A_EXP, f, tg)
        pv = potentials.volume_potential(grid, A_EXP, family, f, tg)
        assert np.abs(pv - oracle["P", family]).max() <= 1e-6
        rv = potentials.remainder_potential(grid, A_EXP, family, f, tg)
        assert np.abs(rv - oracle["R", family]).max() <= 1e-6

    def test_log_integrals_hold_at_boundary_targets(self):
        # (1/2pi) int log|x - y| dx over a disk of radius R is (R^2 / 2)
        # log R for y on its circle.  Of the first four curve nodes, three
        # have window-edge chords whose first nodes lie about 1e-18 from
        # the target, where y + r d - y rounds to 0
        R = 0.4
        disk = DomainSpec("disk", center=(0.0, 0.0), radius=R)
        grid = build_domain_grid(disk, 64, 24)
        tg = build_curve(disk, 64).points[:4]
        got = V._log_integrals(grid, tg, [(np.ones(grid.n_nodes), None)])
        np.testing.assert_allclose(got[:, 0], R * R / 2 * np.log(R),
                                   rtol=0.0, atol=1e-12)

    def test_oracles_share_nothing_with_the_production_path(self,
                                                            monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle entered the production path")

        monkeypatch.setattr(potentials, "_volume_pass", refuse)
        monkeypatch.setattr(potentials, "_target_set", refuse)
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.0, 0.03))
        grid = build_domain_grid(spec, 16, 8)
        f = _smooth_field(grid)
        tg = np.array([[0.05, 0.1], [-0.1, 0.0]])
        oracle = V._volume_oracles(grid, A_EXP, f, tg)
        for fam in FAMILIES:
            assert np.isfinite(oracle["P", fam]).all()
            assert np.isfinite(oracle["R", fam]).all()
        assert grid._cache == {}


BENCH_STAR = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(0.3, 0.0, 0.03))
NONCONVEX_STAR = DomainSpec("star", center=(0.0, 0.0),
                            cos_coeffs=(0.3, 0.05, 0.0, 0.0, 0.0, 0.08))
#: A strongly non-convex star, its cosine tail at 0.88 of its mean radius.
STRETCHED_STAR = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(
    0.2483, -0.0716, -0.0193, -0.0708, -0.0569))
DIRECT_OPS = {"V": potentials.single_layer_direct_matrix,
              "W": potentials.double_layer_direct_matrix,
              "Wp": potentials.wprime_direct_matrix}


def _oracle_defects(spec, n, coeff, family):
    """|production - oracle| for V, W, Wp at nodes 0 and n/4, and V, W at
    ``identity_suite``'s two off-boundary probes; also the oracle values."""
    curve = build_curve(spec, n)
    dens_fn = V._random_trig(np.random.default_rng(5), degree=5)
    dens = dens_fn(curve.t)
    nodes = [0, n // 4]
    probe = spec.center + np.array([[0.21, -0.08],
                                    [-0.05, 0.17]]) * spec.diameter()
    defects, refs = [], []
    for kind, op in DIRECT_OPS.items():
        off = () if kind == "Wp" else probe
        ref = V.direct_boundary_values(curve, coeff, family, kind, dens_fn,
                                       nodes, off)
        got = (op(curve, coeff, family) @ dens)[nodes]
        if kind != "Wp":
            got = np.concatenate([got, potentials.layer_rows(
                curve, coeff, family, kind, probe) @ dens])
        defects.append(np.abs(got - ref))
        refs.append(ref)
    return np.concatenate(defects), np.concatenate(refs)


class TestBoundaryOracle:
    @pytest.mark.parametrize("spec", [DISK, BENCH_STAR, NONCONVEX_STAR],
                             ids=["disk", "star", "nonconvex"])
    def test_matches_resolved_kress_rows(self, spec):
        # n = 1024 Kress rows are converged to rounding on all three
        for family in FAMILIES:
            defects, _ = _oracle_defects(spec, 1024, A_EXP, family)
            assert defects.max() <= 1e-12, (family, defects)

    @settings(max_examples=20, deadline=None)
    @given(spec=convex_domains(),
           preset=st.sampled_from(("exponential", "quadratic")),
           family=st.sampled_from(FAMILIES))
    def test_matches_production_on_convex_domains(self, spec, preset, family):
        defects, refs = _oracle_defects(spec, 64, make_preset(preset), family)
        assert defects.max() <= 1e-9 * np.abs(refs).max()

    def test_non_convergence_raises(self, monkeypatch):
        # two levels cannot reach the stop on a log-singular integrand
        monkeypatch.setattr(V, "TANH_SINH_LEVELS", 1)
        curve = build_curve(DISK, 32)
        with pytest.raises(QuadratureError, match="did not converge"):
            V.direct_boundary_values(curve, A_EXP, "x", "V", np.cos, [0])

    def test_shares_nothing_with_the_production_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle entered the production path")

        monkeypatch.setattr(potentials, "_laplace_blocks", refuse)
        monkeypatch.setattr(laplace, "kress_log_weights", refuse)
        curve = build_curve(BENCH_STAR, 32)
        for family in FAMILIES:
            for kind in DIRECT_OPS:
                off = () if kind == "Wp" else [[0.05, 0.1]]
                vals = V.direct_boundary_values(curve, A_EXP, family, kind,
                                                np.cos, [0, 8], off)
                assert np.isfinite(vals).all()
        assert curve._cache == {}

    def test_wp_has_no_offboundary_form(self):
        curve = build_curve(DISK, 32)
        with pytest.raises(ValueError, match="normal"):
            V.direct_boundary_values(curve, A_EXP, "x", "Wp", np.cos, [0],
                                     [[0.0, 0.1]])


@pytest.fixture(scope="module")
def report():
    curve = build_curve(DISK, 128)
    grid = build_domain_grid(DISK, 32, 12)
    coeff = make_preset("exponential", direction=(1.0, 1.0))
    return V.identity_suite(curve, grid, coeff, "x")


class TestIdentitySuite:
    def test_all_checks_pass(self, report):
        assert report.passed, [(c.name, c.value) for c in report.failures()]

    def test_gauss_triple_present(self, report):
        names = {c.name for c in report.checks}
        assert {"gauss_direct_value", "gauss_interior",
                "gauss_exterior"} <= names

    def test_relation_sweep_covers_both_families(self, report):
        names = {c.name for c in report.checks}
        for fam in ("x", "y"):
            for op in ("V", "W", "Wp", "P", "R"):
                assert any(n.startswith(f"relation_{op}_")
                           and n.endswith(f"_{fam}") for n in names), (op, fam)

    def test_geometry_built_once_per_curve_and_spec(self, monkeypatch):
        # the Gauss check reads the curve's stored double layer, and the
        # star's sampled diameter is kept with its spec
        calls = []

        def counting(owner, name):
            build = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return build(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        counting(laplace, "double_layer_matrix")
        counting(DomainSpec, "_sampled_diameter")
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.0, 0.03))
        curve = build_curve(spec, 32)
        grid = build_domain_grid(spec, 8, 4)
        coeff = make_preset("quadratic")
        assemble_system(curve, grid, coeff, "x")
        V.identity_suite(curve, grid, coeff, "x")
        assert sorted(calls) == ["_sampled_diameter", "double_layer_matrix"]

    def test_constant_coefficient_reduction(self):
        curve = build_curve(DISK, 64)
        grid = build_domain_grid(DISK, 16, 8)
        rep = V.identity_suite(curve, grid, make_preset("constant", value=1.0),
                               "x")
        assert rep.passed, [(c.name, c.value) for c in rep.failures()]


class TestStudies:
    def test_convergence_study_structure(self):
        case = V.manufactured_case("quad_coeff")
        rep = V.convergence_study(case, DISK, ("x",),
                                  [(32, 12, 6), (64, 16, 8)])["x"]
        assert len(rep.rows) == 2
        assert rep.rows[0].err_u_max > rep.rows[1].err_u_max
        assert np.isfinite(rep.rows[1].order)

    def test_const_one_floor(self):
        rep = V.convergence_study(V.manufactured_case("const_one"), DISK,
                                  ("x",), [(32, 12, 6), (64, 16, 8)])["x"]
        assert all(r.err_u_max < 1e-10 for r in rep.rows)

    def test_compare_families_constant_identical_systems(self):
        curve = build_curve(DISK, 32)
        grid = build_domain_grid(DISK, 12, 6)
        coeff = make_preset("constant", value=1.0)
        sx = assemble_system(curve, grid, coeff, "x")
        sy = assemble_system(curve, grid, coeff, "y")
        np.testing.assert_allclose(sx.matrix, sy.matrix, atol=1e-15)

    def test_compare_families_emits_both(self):
        case = V.manufactured_case("quad_coeff")
        reports = V.convergence_study(case, DISK, ("x", "y"),
                                      [(32, 12, 6), (64, 16, 8)])
        assert set(reports) == {"x", "y"}
        for rep in reports.values():
            assert len(rep.rows) == 2
            assert all(np.isfinite(r.cond) for r in rep.rows)

    def test_families_share_each_rung(self, monkeypatch):
        # one curve and grid per rung; family y builds no Laplace block and
        # no polar rule of its own, and its rows are a y-only study's rows
        case = V.manufactured_case("exp_saddle")
        ladder = [(32, 12, 6), (48, 12, 6)]
        calls, family = [], [None]

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((family[0], name))
                return fn(*args, **kwargs)
            return wrapper

        solve_case = V.solve_case

        def solve(case, curve, grid, fam, *args):
            family[0] = fam
            try:
                return solve_case(case, curve, grid, fam, *args)
            finally:
                family[0] = None

        monkeypatch.setattr(V, "solve_case", solve)
        for owner, name in ((V, "build_curve"), (V, "build_domain_grid"),
                            (laplace, "single_layer_matrix"),
                            (potentials, "polar_rules")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        both = V.convergence_study(case, DISK, ("x", "y"), ladder)
        monkeypatch.undo()

        outside = [name for fam, name in calls if fam is None]
        assert outside == ["build_curve", "build_domain_grid"] * 2
        x_calls = {name for fam, name in calls if fam == "x"}
        assert x_calls == {"single_layer_matrix", "polar_rules"}
        assert [name for fam, name in calls if fam == "y"] == []
        alone = V.convergence_study(case, DISK, ("y",), ladder)["y"]
        for shared, own in zip(both["y"].rows, alone.rows, strict=True):
            for key in ("err_u_max", "err_u_l2", "err_psi_max", "cond",
                        "trace_defect"):
                assert getattr(shared, key) == getattr(own, key), key


class TestDiagnostics:
    def test_zero_mean_basis(self):
        curve = build_curve(DISK, 32)
        Z = V.zero_mean_basis(curve)
        assert Z.shape == (32, 31)
        assert np.abs(curve.weights @ Z).max() < 1e-12
        np.testing.assert_allclose(Z.T @ Z, np.eye(31), atol=1e-12)

    def test_invertibility_report(self):
        curve = build_curve(DISK, 64)
        rep = V.invertibility_report(curve,
                                     make_preset("exponential",
                                                 direction=(1, 1)), "x")
        assert rep["sigma_min_single_layer"] > 1e-8
        assert rep["sigma_min_single_layer_zero_mean"] > 0
        assert rep["sigma_min_interior_map_zero_mean"] > 0

    @pytest.mark.parametrize("spec", [DISK, BENCH_STAR, NONCONVEX_STAR,
                                      STRETCHED_STAR],
                             ids=["disk", "star", "nonconvex", "stretched"])
    def test_invertibility_probes_lie_inside(self, spec, monkeypatch):
        # the interior map's probes: on the stretched star, a circle of
        # 0.225 diameters about the center reaches level 4.9
        seen = []
        rows = potentials.single_layer_matrix_at_targets

        def capture(curve, coeff, family, targets):
            seen.append(np.array(targets))
            return rows(curve, coeff, family, targets)

        monkeypatch.setattr(potentials, "single_layer_matrix_at_targets",
                            capture)
        V.invertibility_report(build_curve(spec, 64), A_EXP, "x")
        (targets,) = seen
        assert len(targets) == 24
        assert spec.level(targets).max() < 1.0

    def test_remainder_spectrum_decays(self):
        # qualitative only: the spectrum is reported, nonincreasing, and
        # strictly below the leading value (no threshold by design)
        grid = build_domain_grid(DISK, 16, 8)
        decay = V.remainder_spectrum_decay(
            grid, make_preset("exponential", direction=(1, 1)), "x")
        assert 0.0 < decay["decay_ratio"] < 1.0
        s = decay["sigma"]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(s, s[1:]))

    def test_remainder_spectrum_constant_coefficient(self):
        grid = build_domain_grid(DISK, 16, 8)
        decay = V.remainder_spectrum_decay(
            grid, make_preset("constant", value=2.0), "x")
        assert decay["decay_ratio"] == 0.0

    def test_fredholm_diagnostic_constant_coefficient(self):
        # the remainder blocks are zero: the norm is exactly 0, with no
        # warning from a zero division inside the Lanczos loop
        curve = build_curve(DISK, 32)
        grid = build_domain_grid(DISK, 8, 4)
        case = V.manufactured_case("const_one")
        sol = V.solve_case(case, curve, grid, "x")[0]
        diag = V.fredholm_diagnostic(sol)
        assert diag["remainder_block_norm"] == 0.0
        assert diag["bound"] == 0.0

    def test_fredholm_diagnostic_bound(self):
        from bdies2d.potentials import BoundaryDensity, DomainField
        from bdies2d.solver import solve_dirichlet
        curve = build_curve(DISK, 64)
        grid = build_domain_grid(DISK, 16, 8)
        case = V.manufactured_case("exp_saddle")
        sys = assemble_system(curve, grid, case.coeff, "x").with_data(
            case.f_field_on(grid), case.phi0_on(curve))
        sol = solve_dirichlet(sys)
        diag = V.fredholm_diagnostic(sol)
        # reported, not asserted against the bound: just sanity of the report
        assert np.isfinite(diag["solution_delta"])
        assert diag["remainder_block_norm"] > 0
        assert diag["bound"] > 0
