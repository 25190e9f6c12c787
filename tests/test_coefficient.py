import numpy as np
import pytest

from bdies2d.coefficient import (Coefficient, CoefficientError, make_preset,
                                 validate_derivatives)

RNG = np.random.default_rng(42)
SAMPLES = 0.35 * (RNG.random((100, 2)) - 0.5)


class TestPresets:
    def test_constant_derivatives_vanish(self):
        c = make_preset("constant", value=1.0)
        assert np.all(c.grad_ln_a(SAMPLES) == 0.0)
        assert np.all(c.laplacian_ln_a(SAMPLES) == 0.0)
        assert np.all(c.a(SAMPLES) == 1.0)

    def test_exponential_log_derivatives(self):
        c = make_preset("exponential", direction=(1.0, 1.0))
        np.testing.assert_allclose(c.grad_ln_a(SAMPLES), 1.0, atol=1e-15)
        assert np.all(c.laplacian_ln_a(SAMPLES) == 0.0)
        np.testing.assert_allclose(c.a([[0.2, 0.1]]), np.exp(0.3), rtol=1e-15)

    def test_quadratic_frozen_point_values(self):
        c = make_preset("quadratic")
        p = np.array([[0.2, 0.0]])
        assert abs(c.a(p)[0] - 1.04) < 1e-15
        # d/dx1 ln(1+x1^2) = 2*0.2/1.04 = 5/13
        np.testing.assert_allclose(c.grad_ln_a(p)[0], [5.0 / 13.0, 0.0],
                                   rtol=1e-14)
        # dd/dx1^2 ln(1+x1^2) = (2 - 2 x1^2)/(1+x1^2)^2
        assert abs(c.laplacian_ln_a(p)[0] - 1.7751479289940828) < 1e-13

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(CoefficientError):
            make_preset("constant", value=0.0)
        with pytest.raises(CoefficientError):
            make_preset("constant", value=-2.0)

    def test_unknown_preset_rejected(self):
        with pytest.raises(CoefficientError):
            make_preset("cubic")

    @pytest.mark.parametrize("name,kwargs", [
        ("exponential", {"value": 2.0}),
        ("quadratic", {"value": 7.0}),
        ("quadratic", {"direction": (3, 0)}),
        ("quadratic", {"value": 7.0, "direction": (3, 0)}),
        ("constant", {"direction": (3, 0)}),
    ], ids=["exponential-value", "quadratic-value", "quadratic-direction",
            "quadratic-both", "constant-direction"])
    def test_parameter_the_preset_does_not_take_rejected(self, name, kwargs):
        param = "value" if "value" in kwargs else "direction"
        with pytest.raises(CoefficientError,
                           match=f"{name} preset takes no '{param}'"):
            make_preset(name, **kwargs)

    def test_defaults(self):
        assert np.all(make_preset("constant").a(SAMPLES) == 1.0)
        np.testing.assert_array_equal(make_preset("exponential").a(SAMPLES),
                                      np.exp(SAMPLES.sum(1)))
        assert make_preset("exponential").name == "exponential(1.0,1.0)"


class TestValidation:
    def test_constant_zero_deviation(self):
        rep = validate_derivatives(make_preset("constant", value=2.0), SAMPLES)
        assert rep.max_rel_grad_dev == 0.0
        assert rep.passed

    @pytest.mark.parametrize("name,kwargs,tol", [
        ("exponential", {"direction": (1.0, 1.0)}, 1e-8),
        ("quadratic", {}, 1e-6),
    ])
    def test_presets_pass_fd_check(self, name, kwargs, tol):
        rep = validate_derivatives(make_preset(name, **kwargs), SAMPLES)
        assert rep.max_rel_grad_dev < tol
        assert rep.max_rel_lap_dev < 1e-5
        assert rep.max_grad_ln_mismatch < 1e-12
        assert rep.passed

    def test_positivity_violation_raises(self):
        bad = Coefficient(
            name="bad",
            a=lambda p: np.atleast_2d(p)[:, 0],
            grad_a=lambda p: np.stack(
                [np.ones(len(np.atleast_2d(p))),
                 np.zeros(len(np.atleast_2d(p)))], axis=1),
            grad_ln_a=lambda p: np.zeros_like(np.atleast_2d(np.asarray(p, float))),
            laplacian_ln_a=lambda p: np.zeros(len(np.atleast_2d(p))),
        )
        with pytest.raises(CoefficientError):
            validate_derivatives(bad, SAMPLES)

    def test_inconsistent_bundle_fails_report(self):
        c = make_preset("quadratic")
        lying = Coefficient(name="lying", a=c.a, grad_a=c.grad_a,
                            grad_ln_a=c.grad_ln_a,
                            laplacian_ln_a=lambda p: np.zeros(
                                len(np.atleast_2d(p))))
        rep = validate_derivatives(lying, SAMPLES)
        assert not rep.passed


class TestClosedFormIdentity:
    @pytest.mark.parametrize("name,kwargs,lap_a", [
        ("constant", {"value": 3.0}, lambda p: np.zeros(len(p))),
        ("exponential", {"direction": (1.0, 1.0)},
         lambda p: 2.0 * np.exp(p.sum(1))),
        ("quadratic", {}, lambda p: np.full(len(p), 2.0)),
    ])
    def test_laplacian_ln_matches_quotient_rule(self, name, kwargs, lap_a):
        # laplacian ln a = (a * lap a - |grad a|^2) / a^2
        c = make_preset(name, **kwargs)
        a = c.a(SAMPLES)
        ga = c.grad_a(SAMPLES)
        expect = (a * lap_a(SAMPLES) - (ga * ga).sum(1)) / a**2
        np.testing.assert_allclose(c.laplacian_ln_a(SAMPLES), expect,
                                   atol=1e-10)

    def test_positivity_on_dense_sweep(self):
        for name, kwargs in (("constant", {"value": 0.5}),
                             ("exponential", {"direction": (1, 1)}),
                             ("quadratic", {})):
            c = make_preset(name, **kwargs)
            assert c.a(SAMPLES).min() > 0
