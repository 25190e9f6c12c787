"""Variable diffusion coefficients as closed-form evaluator bundles.

Every kernel downstream needs a(x), grad a, grad ln a and laplacian ln a at
arbitrary quadrature nodes, so coefficients are supplied as vectorized
callables over (N, 2) point arrays rather than sampled fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import as_points


class CoefficientError(ValueError):
    """Invalid coefficient parameters or a violated positivity contract."""


@dataclass(frozen=True)
class Coefficient:
    name: str
    a: Callable[[np.ndarray], np.ndarray]
    grad_a: Callable[[np.ndarray], np.ndarray]
    grad_ln_a: Callable[[np.ndarray], np.ndarray]
    laplacian_ln_a: Callable[[np.ndarray], np.ndarray]
    #: a is constant, so the remainder operator vanishes and is skipped
    constant: bool = False


#: The parameters each preset takes.
_PRESET_PARAMS = {"constant": ("value",), "exponential": ("direction",),
                  "quadratic": ()}


def make_preset(name: str, *, value: float | None = None,
                direction=None) -> Coefficient:
    """Built-in coefficient presets.

    constant    a = value (value > 0, 1 by default)
    exponential a = exp(d . x) for direction d ((1, 1) by default)
    quadratic   a = 1 + x1^2

    A parameter given to a preset that does not take it raises
    ``CoefficientError``.
    """
    if name not in _PRESET_PARAMS:
        raise CoefficientError(f"unknown coefficient preset {name!r}")
    for param, given in (("value", value), ("direction", direction)):
        if given is not None and param not in _PRESET_PARAMS[name]:
            raise CoefficientError(f"the {name} preset takes no {param!r}")
    c = 1.0 if value is None else float(value)
    d = np.asarray((1.0, 1.0) if direction is None else direction, dtype=float)
    if not (np.isfinite(c) and np.isfinite(d).all()):
        raise CoefficientError("coefficient value and direction must be finite")
    if name == "constant":
        if c <= 0:
            raise CoefficientError("constant coefficient must be positive")
        return Coefficient(
            name=f"constant({c})",
            a=lambda p: np.full(np.atleast_2d(p).shape[0], c),
            grad_a=lambda p: np.zeros_like(np.atleast_2d(np.asarray(p, float))),
            grad_ln_a=lambda p: np.zeros_like(np.atleast_2d(np.asarray(p, float))),
            laplacian_ln_a=lambda p: np.zeros(np.atleast_2d(p).shape[0]),
            constant=True,
        )
    if name == "exponential":
        if d.shape != (2,):
            raise CoefficientError("exponential direction must be a 2-vector")

        def a(p):
            return np.exp(np.atleast_2d(np.asarray(p, float)) @ d)

        return Coefficient(
            name=f"exponential({d[0]},{d[1]})",
            a=a,
            grad_a=lambda p: a(p)[:, None] * d[None, :],
            grad_ln_a=lambda p: np.broadcast_to(
                d, np.atleast_2d(np.asarray(p, float)).shape).copy(),
            laplacian_ln_a=lambda p: np.zeros(np.atleast_2d(p).shape[0]),
        )

    def a(p):
        p = np.atleast_2d(np.asarray(p, float))
        return 1.0 + p[:, 0] ** 2

    def grad_a(p):
        p = np.atleast_2d(np.asarray(p, float))
        g = np.zeros_like(p)
        g[:, 0] = 2.0 * p[:, 0]
        return g

    def grad_ln_a(p):
        p = np.atleast_2d(np.asarray(p, float))
        g = np.zeros_like(p)
        g[:, 0] = 2.0 * p[:, 0] / (1.0 + p[:, 0] ** 2)
        return g

    def laplacian_ln_a(p):
        p = np.atleast_2d(np.asarray(p, float))
        x2 = p[:, 0] ** 2
        return (2.0 - 2.0 * x2) / (1.0 + x2) ** 2

    return Coefficient(name="quadratic", a=a, grad_a=grad_a,
                       grad_ln_a=grad_ln_a, laplacian_ln_a=laplacian_ln_a)


#: Largest relative deviation from finite differences that
#: ``validate_derivatives`` passes.
DERIVATIVE_TOL = 1e-6


@dataclass(frozen=True)
class DerivativeReport:
    max_rel_grad_dev: float
    max_rel_lap_dev: float
    max_grad_ln_mismatch: float
    min_a: float
    passed: bool


def validate_derivatives(coeff: Coefficient, samples) -> DerivativeReport:
    """Check the evaluator bundle against central finite differences.

    Compares grad a against differences of a, laplacian ln a against second
    differences of ln a (step 1e-5), and grad ln a against grad a / a.
    Raises on any positivity violation at the samples.
    """
    pts = as_points(samples)
    if not len(pts):
        raise CoefficientError("no sample points to check the derivatives at")
    a0 = coeff.a(pts)
    if a0.min() <= 0:
        raise CoefficientError("coefficient is not positive at a sample point")

    h = 1e-5
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    ga = coeff.grad_a(pts)
    g_fd = np.stack([
        (coeff.a(pts + ex) - coeff.a(pts - ex)) / (2 * h),
        (coeff.a(pts + ey) - coeff.a(pts - ey)) / (2 * h),
    ], axis=1)
    scale_g = np.maximum(np.abs(ga), 1.0)
    grad_dev = float((np.abs(ga - g_fd) / scale_g).max())

    # second difference of ln a built from its analytic gradient; the raw
    # five-point stencil at this step sits on a ~4e-6 roundoff floor
    lap_fd = ((coeff.grad_ln_a(pts + ex)[:, 0] - coeff.grad_ln_a(pts - ex)[:, 0])
              + (coeff.grad_ln_a(pts + ey)[:, 1]
                 - coeff.grad_ln_a(pts - ey)[:, 1])) / (2 * h)
    la = coeff.laplacian_ln_a(pts)
    lap_dev = float((np.abs(la - lap_fd) / np.maximum(np.abs(la), 1.0)).max())

    gl = coeff.grad_ln_a(pts)
    mismatch = float(np.abs(gl - ga / a0[:, None]).max())

    passed = (grad_dev <= DERIVATIVE_TOL and lap_dev <= DERIVATIVE_TOL
              and mismatch <= 1e-12)
    return DerivativeReport(max_rel_grad_dev=grad_dev, max_rel_lap_dev=lap_dev,
                            max_grad_ln_mismatch=mismatch,
                            min_a=float(a0.min()), passed=passed)
