"""Parametrix-based surface and volume operators for div(a grad u).

Two kernel families are supported, distinguished by where the coefficient
is evaluated: family "x" divides the Laplace fundamental solution by a at
the integration point, family "y" by a at the target point.

The surface operators V, W and W' are Laplace blocks (``laplace``) with
the coefficient attached at the source or at the target; ``_family_rows``
holds that rule for every boundary operator, on the curve and off it.
The volume operators integrate against the grid interpolant with each
target's polar rule.  The Laplace blocks, the polar rules and the
log-kernel rows depend only on the geometry, so ``geometry.cached`` keeps
each with its curve or grid, built once and read-only.
``volume_potential_direct`` and ``remainder_via_relation`` are independent
paths for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import laplace
from .coefficient import Coefficient
from .geometry import (BoundaryCurve, DomainGrid, adaptive_theta_count,
                       cached, polar_rule_for_target)

FAMILIES = ("x", "y")
TWO_PI = 2.0 * np.pi


def _check_family(family: str):
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def delta_near(curve: BoundaryCurve) -> float:
    """Distance from the boundary within which evaluation counts as near."""
    return 2.0 * curve.spacing()


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundaryDensity:
    """Nodal values on a boundary curve."""

    curve: BoundaryCurve
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.curve.n,):
            raise ValueError(
                f"density has {v.shape} values for a curve with {self.curve.n} nodes")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class DomainField:
    """Nodal values on a domain grid together with its interpolant."""

    grid: DomainGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"field has {v.shape} values for a grid with {self.grid.n_nodes} nodes")
        object.__setattr__(self, "values", v)

    def at(self, points) -> np.ndarray:
        return self.grid.interpolate(self.values, points)


# ---------------------------------------------------------------------------
# Boundary operators: Laplace blocks scaled per kernel family
# ---------------------------------------------------------------------------

def _family_rows(curve: BoundaryCurve, coeff: Coefficient, family: str,
                 kind: str, targets, normals, lap) -> np.ndarray:
    """Rows mapping nodal densities to "V", "W" or "Wp" values at targets.

    ``lap(k)`` gives the Laplace block "s" (S), "d" (D) or "dp" (D', the
    single layer's derivative along ``normals``) at the same targets.
    Family "x" attaches the coefficient at the source, "y" at the target:

        V_x  = S / a(x)                  V_y  = S / a(y)
        W_x  = D - S dln a/dn(x)         W_y  = D a(x) / a(y)
        Wp_x = a(y) D' / a(x)            Wp_y = D' - dln a/dn(y) S
    """
    _check_family(family)
    src = curve.points
    if kind == "V":
        if family == "x":
            return lap("s") / coeff.a(src)[None, :]
        return lap("s") / coeff.a(targets)[:, None]
    if kind == "W":
        if family == "x":
            dlnadn = (coeff.grad_ln_a(src) * curve.normals).sum(1)
            return lap("d") - lap("s") * dlnadn[None, :]
        return lap("d") * coeff.a(src)[None, :] / coeff.a(targets)[:, None]
    if kind == "Wp":
        if family == "x":
            return coeff.a(targets)[:, None] * lap("dp") / coeff.a(src)[None, :]
        dlnadn = (coeff.grad_ln_a(targets) * normals).sum(1)
        return lap("dp") - dlnadn[:, None] * lap("s")
    raise ValueError(f"operator kind must be 'V', 'W' or 'Wp', got {kind!r}")


def _laplace_blocks(curve: BoundaryCurve, targets=None, normals=None):
    """The ``lap`` of ``_family_rows``; each block is built once per curve.

    Without targets the blocks are the direct-value matrices on the curve;
    at targets they are ``layer_matrix_at_targets`` rows, and "dp" is the
    "gs" rows dotted with ``normals``.
    """
    def lap(kind):
        if targets is None:
            build = {"s": laplace.single_layer_matrix,
                     "d": laplace.double_layer_matrix,
                     "dp": laplace.adjoint_double_layer_matrix}[kind]
            return cached(curve, kind, lambda: build(curve))
        if kind == "dp":
            return (lap("gs") * normals[:, None, :]).sum(-1)
        return cached(
            curve, (kind, targets.tobytes()),
            lambda: laplace.layer_matrix_at_targets(curve, kind, targets))
    return lap


def single_layer_direct_matrix(curve: BoundaryCurve, coeff: Coefficient,
                               family: str) -> np.ndarray:
    """Direct values of the single-layer operator V at the curve nodes."""
    return _family_rows(curve, coeff, family, "V", curve.points,
                        curve.normals, _laplace_blocks(curve))


def double_layer_direct_matrix(curve: BoundaryCurve, coeff: Coefficient,
                               family: str) -> np.ndarray:
    """Direct values of the double-layer operator W at the curve nodes."""
    return _family_rows(curve, coeff, family, "W", curve.points,
                        curve.normals, _laplace_blocks(curve))


def wprime_direct_matrix(curve: BoundaryCurve, coeff: Coefficient,
                         family: str) -> np.ndarray:
    """Direct values of the conormal derivative of the single layer."""
    return _family_rows(curve, coeff, family, "Wp", curve.points,
                        curve.normals, _laplace_blocks(curve))


def layer_eval_near(curve: BoundaryCurve, coeff: Coefficient, family: str,
                    kind: str, density: BoundaryDensity, targets) -> np.ndarray:
    """Single ("V") or double ("W") layer potential at off-boundary targets.

    Targets near the curve get upsampled rows (``layer_matrix_at_targets``).
    """
    if kind not in ("V", "W"):
        raise ValueError(f"layer kind must be 'V' or 'W', got {kind!r}")
    tg = np.atleast_2d(np.asarray(targets, dtype=float))
    return _family_rows(curve, coeff, family, kind, tg, None,
                        _laplace_blocks(curve, tg)) @ density.values


def single_layer_matrix_at_targets(curve: BoundaryCurve, coeff: Coefficient,
                                   family: str, targets) -> np.ndarray:
    """Matrix sending nodal density values to single-layer values at targets."""
    tg = np.atleast_2d(np.asarray(targets, dtype=float))
    return _family_rows(curve, coeff, family, "V", tg, None,
                        _laplace_blocks(curve, tg))


def conormal_gradient_eval(curve: BoundaryCurve, coeff: Coefficient,
                           family: str, density: BoundaryDensity,
                           targets, normals) -> np.ndarray:
    """Conormal derivative a(y) grad V rho . n at off-boundary targets.

    The normal is held fixed per target (the boundary normal of the point
    the targets approach); used by the jump-relation diagnostics.
    """
    tg = np.atleast_2d(np.asarray(targets, dtype=float))
    nrm = np.atleast_2d(np.asarray(normals, dtype=float))
    return _family_rows(curve, coeff, family, "Wp", tg, nrm,
                        _laplace_blocks(curve, tg, nrm)) @ density.values


# ---------------------------------------------------------------------------
# Volume potentials via target-centered polar rules
# ---------------------------------------------------------------------------

def _rule_params(grid: DomainGrid):
    """Polar-rule orders tied to the grid resolution.

    The volume rules are the volume discretization: their angular count
    follows the grid's angular count and the radial Gauss order follows
    the radial node count, so refining the grid refines every quadrature
    in the pipeline at matching rates.
    """
    base = max(12, 2 * round(0.375 * grid.n_t))
    if grid.spec.kind == "star":
        base *= 3           # star extent functions carry richer angular content
    p = min(10, max(4, grid.n_s // 2))
    return base, p


def _rule(grid: DomainGrid, y):
    """Target y's polar rule, built once per grid."""
    def build():
        base, p = _rule_params(grid)
        nth = adaptive_theta_count(grid.spec, y, base=base)
        return polar_rule_for_target(grid.spec, y, n_theta=nth, n_r=p)
    return cached(grid, ("rule", np.asarray(y, dtype=float).tobytes()), build)


def _log_kernel(pts, y):
    r2 = ((pts - y) ** 2).sum(1)
    return 0.5 * np.log(np.maximum(r2, 1e-300)) / TWO_PI


def _remainder_kernel(pts, y, coeff: Coefficient, family: str):
    d = pts - y
    r2 = np.maximum((d * d).sum(1), 1e-300)
    if family == "x":
        lap = coeff.laplacian_ln_a(pts)
        gl = coeff.grad_ln_a(pts)
        return (-lap * 0.5 * np.log(r2) / TWO_PI
                - (gl * d).sum(1) / (TWO_PI * r2))
    ga = coeff.grad_a(pts)
    ay = float(coeff.a(np.asarray(y, float)[None, :])[0])
    return (ga * d).sum(1) / (TWO_PI * r2) / ay


def volume_potential(grid: DomainGrid, coeff: Coefficient, family: str,
                     field: DomainField, targets) -> np.ndarray:
    """Newtonian-type volume potential of a gridded density at targets.

    Family "x" applies the log kernel to the density divided by the
    coefficient at the grid nodes; family "y" divides the plain log
    potential by the coefficient at the target.
    """
    _check_family(family)
    tg = np.atleast_2d(np.asarray(targets, dtype=float))
    if not np.any(field.values != 0.0):
        return np.zeros(len(tg))
    if family == "x":
        return _log_potential(grid, field.values / coeff.a(grid.points), tg)
    return _log_potential(grid, field.values, tg) / coeff.a(tg)


def volume_potential_direct(grid: DomainGrid, coeff: Coefficient, family: str,
                            field: DomainField, targets) -> np.ndarray:
    """Cross-check path: integrate the full parametrix kernel directly.

    The coefficient factor is evaluated analytically at the quadrature
    nodes instead of being folded into the gridded density.
    """
    _check_family(family)
    tg = np.atleast_2d(np.asarray(targets, dtype=float))
    out = np.empty(len(tg))
    for i, y in enumerate(tg):
        pts, w = _rule(grid, y).nodes()
        ker = _log_kernel(pts, y)
        if family == "x":
            ker = ker / coeff.a(pts)
        else:
            ker = ker / float(coeff.a(y[None, :])[0])
        out[i] = w @ (ker * field.at(pts))
    return out


def remainder_rows(grid: DomainGrid, coeff: Coefficient, family: str,
                   targets) -> np.ndarray:
    """Remainder-operator matrix rows at the given targets.

    Each row integrates the explicit remainder kernel against the grid
    interpolant; boundary targets are allowed (trace of the operator).
    The same pass stores each target's log-kernel row on the grid.
    """
    _check_family(family)
    tg = np.atleast_2d(np.asarray(targets, dtype=float))
    rows = np.empty((len(tg), grid.n_nodes))
    for i, y in enumerate(tg):
        pts, w = _rule(grid, y).nodes()
        A, S = grid.cardinal_matrices(pts)
        kv = w * _remainder_kernel(pts, y, coeff, family)
        rows[i] = grid.interpolation_row(kv, A, S)
        _log_row(grid, y, (pts, w, A, S))
    return rows


def remainder_potential(grid: DomainGrid, coeff: Coefficient, family: str,
                        field: DomainField, targets) -> np.ndarray:
    """Remainder volume potential of a gridded density at targets."""
    if coeff.constant:
        return np.zeros(len(np.atleast_2d(np.asarray(targets, float))))
    return remainder_rows(grid, coeff, family, targets) @ field.values


def remainder_via_relation(grid: DomainGrid, coeff: Coefficient, family: str,
                           field: DomainField, targets,
                           step: float = 1e-4) -> np.ndarray:
    """Cross-check path: divergence form of the remainder potential.

    Differentiates computed log potentials of coefficient-weighted
    densities by central differences at the target; kept independent of
    the explicit-kernel path.
    """
    _check_family(family)
    tg = np.atleast_2d(np.asarray(targets, dtype=float))
    if family == "x":
        gl = coeff.grad_ln_a(grid.points)
        comp = [field.values * gl[:, 0], field.values * gl[:, 1]]
        lap_term = _log_potential(grid, field.values
                                  * coeff.laplacian_ln_a(grid.points), tg)
    else:
        ga = coeff.grad_a(grid.points)
        comp = [field.values * ga[:, 0], field.values * ga[:, 1]]
        lap_term = 0.0

    div = np.zeros(len(tg))
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = step
        plus = _log_potential(grid, comp[axis], tg + e)
        minus = _log_potential(grid, comp[axis], tg - e)
        div += (plus - minus) / (2 * step)
    if family == "x":
        return div - lap_term
    return -div / coeff.a(tg)


def _log_row(grid: DomainGrid, y, quad=None) -> np.ndarray:
    """Row r with r . v = (1/2pi) int log|x - y| v(x) dx, v's interpolant.

    Built once per grid and target.  ``quad`` is the rule's nodes, weights
    and cardinal matrices (pts, w, A, S) when the caller already has them.
    """
    def build():
        if quad is None:
            pts, w = _rule(grid, y).nodes()
            A, S = grid.cardinal_matrices(pts)
        else:
            pts, w, A, S = quad
        return grid.interpolation_row(w * _log_kernel(pts, y), A, S)
    return cached(grid, ("log_row", np.asarray(y, dtype=float).tobytes()),
                  build)


def _log_potential(grid: DomainGrid, dens_values, targets) -> np.ndarray:
    v = np.asarray(dens_values, dtype=float)
    return np.array([_log_row(grid, y) @ v for y in targets], dtype=float)
