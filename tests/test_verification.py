"""Manufactured cases, oracles and certification machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdies2d import laplace, potentials
from bdies2d import verification as V
from bdies2d.coefficient import make_preset
from bdies2d.geometry import DomainSpec, build_curve, build_domain_grid
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
        star = DomainSpec("star", center=(0, 0), cos_coeffs=(0.3,))
        with pytest.raises(ValueError, match="disk"):
            V.fd_oracle(V.manufactured_case("const_one"), star, 16, 16)


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
        # targets at level s <= 0.8; the tolerance is identity_suite's
        assert spec.diameter() < 1.0
        s, th = np.array(polar).T
        tg = spec.center + (s * spec.rho(th))[:, None] * np.stack(
            [np.cos(th), np.sin(th)], axis=1)
        grid = build_domain_grid(spec, 32, 12)
        f = _smooth_field(grid)
        pv = potentials.volume_potential(grid, A_EXP, family, f, tg)
        pd = V.volume_potential_direct(grid, A_EXP, family, f, tg)
        assert np.abs(pv - pd).max() <= 1e-6
        rv = potentials.remainder_potential(grid, A_EXP, family, f, tg)
        rr = V.remainder_via_relation(grid, A_EXP, family, f, tg)
        assert np.abs(rv - rr).max() <= 1e-6

    def test_oracles_share_nothing_with_the_production_path(self,
                                                            monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle entered the production path")

        monkeypatch.setattr(potentials, "_volume_pass", refuse)
        monkeypatch.setattr(potentials, "_rule", refuse)
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.0, 0.03))
        grid = build_domain_grid(spec, 16, 8)
        f = _smooth_field(grid)
        tg = np.array([[0.05, 0.1], [-0.1, 0.0]])
        for fam in FAMILIES:
            assert np.isfinite(
                V.volume_potential_direct(grid, A_EXP, fam, f, tg)).all()
            assert np.isfinite(
                V.remainder_via_relation(grid, A_EXP, fam, f, tg)).all()
        assert grid._cache == {}


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
        rep = V.convergence_study(case, DISK, "x",
                                  [(32, 12, 6), (64, 16, 8)], with_cond=False)
        assert len(rep.rows) == 2
        assert rep.rows[0].err_u_max > rep.rows[1].err_u_max
        assert np.isfinite(rep.rows[1].order)

    def test_const_one_floor(self):
        rep = V.convergence_study(V.manufactured_case("const_one"), DISK, "x",
                                  [(32, 12, 6), (64, 16, 8)], with_cond=False)
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
        reports = V.compare_families(case, DISK, [(32, 12, 6), (64, 16, 8)])
        assert set(reports) == {"x", "y"}
        for rep in reports.values():
            assert len(rep.rows) == 2
            assert all(np.isfinite(r.cond) for r in rep.rows)


class TestDiagnostics:
    def test_zero_mean_basis(self):
        curve = build_curve(DISK, 32)
        Z = V.zero_mean_basis(curve)
        assert Z.shape == (32, 31)
        assert np.abs(curve.weights @ Z).max() < 1e-12
        np.testing.assert_allclose(Z.T @ Z, np.eye(31), atol=1e-12)

    def test_invertibility_report(self):
        curve = build_curve(DISK, 64)
        grid = build_domain_grid(DISK, 16, 8)
        rep = V.invertibility_report(curve, grid,
                                     make_preset("exponential",
                                                 direction=(1, 1)), "x")
        assert rep["sigma_min_single_layer"] > 1e-8
        assert rep["sigma_min_single_layer_zero_mean"] > 0
        assert rep["sigma_min_interior_map_zero_mean"] > 0

    def test_remainder_spectrum_decays(self):
        # qualitative only: the spectrum is reported, nonincreasing, and
        # strictly below the leading value (no threshold by design)
        grid = build_domain_grid(DISK, 16, 8)
        decay = V.remainder_spectrum_decay(
            grid, make_preset("exponential", direction=(1, 1)), "x", k=24)
        assert 0.0 < decay["decay_ratio"] < 1.0
        s = decay["sigma"]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(s, s[1:]))

    def test_remainder_spectrum_constant_coefficient(self):
        grid = build_domain_grid(DISK, 16, 8)
        decay = V.remainder_spectrum_decay(
            grid, make_preset("constant", value=2.0), "x")
        assert decay["decay_ratio"] == 0.0

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
