"""Constant-coefficient layer operators against circle Fourier oracles.

On a circle of radius r the single-layer kernel diagonalizes: the unit
density maps to -r log r and the cos(kt) mode to (r/(2k)) cos(kt); the
double-layer and its adjoint have constant kernel 1/(2r), so every
nonconstant mode is annihilated and the unit density gives -1/2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from test_verification import convex_domains

from bdies2d import laplace
from bdies2d.geometry import DomainSpec, build_curve

DISK = DomainSpec("disk", center=(0.0, 0.0), radius=0.4)
STAR = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(0.3, 0.0, 0.03))


@pytest.fixture(scope="module")
def circle64():
    return build_curve(DISK, 64)


@pytest.fixture(scope="module")
def fine_disk():
    return build_curve(DISK, 1 << 16)


def plain_reference(fine_curve, kind, density, targets):
    """Plain trapezoid rule on a 2^16-node curve: an independent reference
    that is converged at every target these tests use."""
    return laplace.layer_eval(fine_curve, kind, density(fine_curve.t),
                              targets, near=False)


class TestDirectValues:
    def test_single_layer_unit_density(self, circle64):
        S = laplace.single_layer_matrix(circle64)
        np.testing.assert_allclose(S @ np.ones(64), -0.4 * np.log(0.4),
                                   atol=1e-13)

    def test_single_layer_cos_mode(self, circle64):
        S = laplace.single_layer_matrix(circle64)
        t = circle64.t
        np.testing.assert_allclose(S @ np.cos(t), 0.2 * np.cos(t), atol=1e-13)
        np.testing.assert_allclose(S @ np.sin(3 * t), (0.4 / 6) * np.sin(3 * t),
                                   atol=1e-13)

    def test_double_layer_unit_density(self, circle64):
        D = laplace.double_layer_matrix(circle64)
        np.testing.assert_allclose(D @ np.ones(64), -0.5, atol=1e-12)

    def test_double_layer_cos_mode_annihilated(self, circle64):
        D = laplace.double_layer_matrix(circle64)
        assert np.abs(D @ np.cos(circle64.t)).max() < 1e-10

    def test_adjoint_unit_density(self, circle64):
        Wp = laplace.adjoint_double_layer_matrix(circle64)
        np.testing.assert_allclose(Wp @ np.ones(64), -0.5, atol=1e-12)

    def test_adjoint_cos_mode_annihilated(self, circle64):
        Wp = laplace.adjoint_double_layer_matrix(circle64)
        assert np.abs(Wp @ np.cos(circle64.t)).max() < 1e-10

    def test_gauss_identity_on_star(self):
        curve = build_curve(STAR, 64)
        D = laplace.double_layer_matrix(curve)
        np.testing.assert_allclose(D @ np.ones(64), -0.5, atol=1e-10)

    def test_broken_sign_convention_detected(self, circle64, monkeypatch):
        orig = laplace._dipole_matrix
        monkeypatch.setattr(laplace, "_dipole_matrix",
                            lambda c, normals_at: -orig(c, normals_at))
        with pytest.raises(laplace.QuadratureError):
            laplace.double_layer_matrix(circle64)


class TestGaussIdentityTriple:
    def test_triple_at_128(self):
        curve = build_curve(DISK, 128)
        ones = np.ones(128)
        D = laplace.double_layer_matrix(curve)
        assert np.abs(D @ ones + 0.5).max() < 1e-10
        inside = laplace.layer_eval(curve, "d", ones, [[0.1, 0.05]])
        outside = laplace.layer_eval(curve, "d", ones, [[0.9, 0.1]])
        assert abs(inside[0] + 1.0) < 1e-10
        assert abs(outside[0]) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(spec=convex_domains())
    def test_triple_on_random_convex_domains(self, spec):
        # identity_suite's probes and tolerance
        curve = build_curve(spec, 64)
        c, diam = spec.center, spec.diameter()
        probe_in = c + np.array([[0.1, 0.05], [-0.12, 0.03],
                                 [0.0, -0.15]]) * diam
        probe_out = c + np.array([[1.5, 0.2], [-1.1, -1.2]]) * diam
        D = laplace.double_layer_matrix(curve)
        assert np.abs(D.sum(1) + 0.5).max() <= 1e-10
        inside = laplace.layer_matrix_at_targets(curve, "d", probe_in)
        outside = laplace.layer_matrix_at_targets(curve, "d", probe_out)
        assert np.abs(inside.sum(1) + 1.0).max() <= 1e-10
        assert np.abs(outside.sum(1)).max() <= 1e-10


class TestOffBoundary:
    def test_single_layer_at_center(self, circle64):
        v = laplace.layer_eval(circle64, "s", np.ones(64), [[0.0, 0.0]])
        assert abs(v[0] - (-0.4 * np.log(0.4))) < 1e-13

    def test_interior_single_layer_cos_is_harmonic_extension(self, circle64):
        # V_Delta(cos t)(y) = y_1 / 2 inside the circle
        y = np.array([[0.1, 0.07], [-0.2, 0.05]])
        v = laplace.layer_eval(circle64, "s", np.cos(circle64.t), y)
        np.testing.assert_allclose(v, y[:, 0] / 2, atol=1e-13)

    def test_gradient_kind(self, circle64):
        # grad of V_Delta(cos) = (1/2, 0) inside
        g = laplace.layer_eval(circle64, "gs", np.cos(circle64.t),
                               [[0.05, -0.1]])
        np.testing.assert_allclose(g[0], [0.5, 0.0], atol=1e-12)


class TestNearEvaluation:
    def test_near_target_matches_fine_reference(self):
        curve = build_curve(DISK, 128)
        rho = np.exp(np.cos(curve.t))
        flat = []
        for d in (1e-2, 1e-3, 2e-4):
            y = np.array([[0.4 - d, 0.0]])
            got = laplace.layer_eval(curve, "s", rho, y)
            ref_curve = build_curve(DISK, 1 << 16)
            ref = laplace.layer_eval(ref_curve, "s",
                                     np.exp(np.cos(ref_curve.t)), y,
                                     near=False)
            flat.append(abs(got[0] - ref[0]))
        assert max(flat) < 1e-12

    def test_plain_rule_fails_near(self):
        curve = build_curve(DISK, 128)
        rho = np.exp(np.cos(curve.t))
        y = np.array([[0.4 - 1e-3, 0.0]])
        plain = laplace.layer_eval(curve, "s", rho, y, near=False)
        good = laplace.layer_eval(curve, "s", rho, y, near=True)
        assert abs(plain[0] - good[0]) > 1e-6

    def test_matrix_rows_match_eval(self, fine_disk):
        curve = build_curve(DISK, 64)
        rho = lambda t: np.sin(2 * t) + 0.3
        targets = np.array([[0.0, 0.1], [0.39, 0.0], [0.399, 0.0]])
        M = laplace.layer_matrix_at_targets(curve, "s", targets)
        ref = plain_reference(fine_disk, "s", rho, targets)
        np.testing.assert_allclose(M @ rho(curve.t), ref, atol=1e-13)

    def test_matrix_rows_double_layer(self, fine_disk):
        curve = build_curve(DISK, 64)
        tau = lambda t: np.cos(3 * t) - 1.0
        targets = np.array([[0.2, 0.0], [0.395, 0.01]])
        M = laplace.layer_matrix_at_targets(curve, "d", targets)
        ref = plain_reference(fine_disk, "d", tau, targets)
        np.testing.assert_allclose(M @ tau(curve.t), ref, atol=1e-13)

    @pytest.mark.parametrize("spec", [DISK, STAR], ids=["disk", "star"])
    def test_gradient_near_boundary(self, spec):
        curve = build_curve(spec, 64)
        fine = build_curve(spec, 1 << 16)
        rho = lambda t: np.exp(np.sin(t)) + np.cos(2 * t)
        idx = [0, 20, 41]
        targets = (curve.points[idx]
                   - np.array([1e-2, 1e-3, 5e-4])[:, None] * curve.normals[idx])
        got = laplace.layer_eval(curve, "gs", rho(curve.t), targets)
        ref = plain_reference(fine, "gs", rho, targets)
        assert got.shape == (3, 2)
        np.testing.assert_allclose(got, ref, atol=1e-12)
        plain = laplace.layer_eval(curve, "gs", rho(curve.t), targets,
                                   near=False)
        assert np.abs(plain - ref).max() > 1e-3


class TestResample:
    """The near rule applies its fine row to the trigonometric interpolant
    of the nodal density, so band-limited densities are integrated
    exactly, including the split cos(n t / 2) Nyquist mode."""

    def test_band_limited_exact_including_nyquist(self, fine_disk):
        curve = build_curve(DISK, 16)
        g = lambda t: (1 + np.cos(3 * t) - 2 * np.sin(5 * t)
                       + 0.5 * np.cos(8 * t))
        targets = np.array([[0.0, 0.1], [0.3, 0.1], [0.399, 0.0],
                            [0.0, -0.3995], [0.2, 0.3]])
        for kind in ("s", "d", "gs"):
            got = laplace.layer_eval(curve, kind, g(curve.t), targets)
            ref = plain_reference(fine_disk, kind, g, targets)
            np.testing.assert_allclose(got, ref, atol=1e-13)


def test_kress_weights_match_cubic_form():
    def cubic(n):
        i = np.arange(n)
        d = (2 * np.pi / n) * (i[:, None] - i[None, :])
        m = np.arange(1, n // 2)
        R = -(4 * np.pi / n) * (np.cos(d[..., None] * m) / m).sum(axis=-1)
        return R - (4 * np.pi / (n * n)) * np.cos((n // 2) * d)

    for n in (8, 64, 96):
        np.testing.assert_allclose(laplace.kress_log_weights(n), cubic(n),
                                   rtol=0, atol=1e-14)
