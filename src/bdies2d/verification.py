"""Manufactured solutions, independent oracles and certification suites.

Everything here exists to check the solver against quantities computed by
an unrelated route: closed-form manufactured data, tanh-sinh reference
quadrature of raw boundary kernels, polar-rule quadrature of the volume
kernels on rules of its own, a polar finite-difference solve on disks, and
extrapolated boundary limits for the jump relations.  These oracles live
only here; the production path in ``potentials`` does not call them, and
they read none of its cached rules or rows.

The boundary-kernel oracle (``direct_boundary_values``) integrates each
target in the offset from its own parameter, so the log singularity sits
at an endpoint of a tanh-sinh rule.  Its abscissae come within about
1e-300 of that endpoint, so x(t) - x(t_y) is formed from product-to-sum
identities, free of cancellation, and its length from ``hypot``.  It
matches n=1024 Kress rows to about 1.5e-14.  One vectorised
``scipy.integrate.tanhsinh`` call serves every target of an operator, so
``identity_suite`` on a disk r=0.4 at 128/32x12 takes about 0.2 s on a
2-vCPU VM.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import potentials, solver
from .coefficient import Coefficient, make_preset
from .geometry import (BoundaryCurve, DomainGrid, DomainSpec, build_curve,
                       build_domain_grid, polar_rule_for_target)
from .laplace import QuadratureError
from .potentials import BoundaryDensity, DomainField

TWO_PI = 2.0 * np.pi
#: Seed of the identity suite's random densities.
SUITE_SEED = 7
#: Central-difference step of ``remainder_via_relation``.
RELATION_STEP = 1e-4
#: Leading singular values reported by ``remainder_spectrum_decay``.
SPECTRUM_HEAD = 24


# ---------------------------------------------------------------------------
# Manufactured cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ManufacturedCase:
    """Coefficient, exact solution and matching source in closed form."""

    name: str
    coeff: Coefficient
    u: Callable[[np.ndarray], np.ndarray]
    grad_u: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]

    def phi0_on(self, curve: BoundaryCurve) -> BoundaryDensity:
        return BoundaryDensity(curve, self.u(curve.points))

    def psi_on(self, curve: BoundaryCurve) -> np.ndarray:
        """Exact conormal derivative a du/dn at the curve nodes."""
        g = self.grad_u(curve.points)
        return self.coeff.a(curve.points) * (g * curve.normals).sum(1)

    def u_field_on(self, grid: DomainGrid) -> DomainField:
        return DomainField(grid, self.u(grid.points))

    def f_field_on(self, grid: DomainGrid) -> DomainField:
        return DomainField(grid, self.f(grid.points))


def _pts(p):
    return np.atleast_2d(np.asarray(p, dtype=float))


def manufactured_case(name: str) -> ManufacturedCase:
    """Built-in exact solutions of div(a grad u) = f.

    const_one        a = 1,          u = 1
    harmonic_linear  a = 1,          u = x1
    exp_saddle       a = e^(x1+x2),  u = x1^2 - x2^2
    quad_coeff       a = 1 + x1^2,   u = x2 + x1 x2
    """
    if name == "const_one":
        return ManufacturedCase(
            name=name, coeff=make_preset("constant", value=1.0),
            u=lambda p: np.ones(len(_pts(p))),
            grad_u=lambda p: np.zeros_like(_pts(p)),
            f=lambda p: np.zeros(len(_pts(p))))
    if name == "harmonic_linear":
        return ManufacturedCase(
            name=name, coeff=make_preset("constant", value=1.0),
            u=lambda p: _pts(p)[:, 0],
            grad_u=lambda p: np.stack(
                [np.ones(len(_pts(p))), np.zeros(len(_pts(p)))], axis=1),
            f=lambda p: np.zeros(len(_pts(p))))
    if name == "exp_saddle":
        return ManufacturedCase(
            name=name, coeff=make_preset("exponential", direction=(1.0, 1.0)),
            u=lambda p: _pts(p)[:, 0] ** 2 - _pts(p)[:, 1] ** 2,
            grad_u=lambda p: np.stack(
                [2 * _pts(p)[:, 0], -2 * _pts(p)[:, 1]], axis=1),
            f=lambda p: 2.0 * np.exp(_pts(p).sum(1))
            * (_pts(p)[:, 0] - _pts(p)[:, 1]))
    if name == "quad_coeff":
        return ManufacturedCase(
            name=name, coeff=make_preset("quadratic"),
            u=lambda p: _pts(p)[:, 1] * (1.0 + _pts(p)[:, 0]),
            grad_u=lambda p: np.stack(
                [_pts(p)[:, 1], 1.0 + _pts(p)[:, 0]], axis=1),
            f=lambda p: 2.0 * _pts(p)[:, 0] * _pts(p)[:, 1])
    raise ValueError(f"unknown manufactured case {name!r}")


MANUFACTURED_NAMES = ("const_one", "harmonic_linear", "exp_saddle", "quad_coeff")


# ---------------------------------------------------------------------------
# Polar finite-difference oracle on disks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FdSolution:
    """Second-order conservative finite-difference solution on a polar grid."""

    spec: DomainSpec
    n_r: int
    n_theta: int
    points: np.ndarray
    values: np.ndarray


def fd_oracle(case: ManufacturedCase, spec: DomainSpec, n_r: int = 128,
              n_theta: int = 128) -> FdSolution:
    """Solve the Dirichlet problem on a disk with a polar flux scheme.

    Completely independent of the integral-equation pipeline; used only to
    cross-check solved fields.  Disks only.
    """
    if spec.kind != "disk":
        raise ValueError("the finite-difference oracle supports disks only")
    R, c = spec.radius, spec.center
    M, N = n_r, n_theta
    h = R / M
    ht = TWO_PI / N
    rr = h * np.arange(M + 1)
    th = ht * np.arange(N)
    ct, st = np.cos(th), np.sin(th)

    def node(i, j):
        return c + rr[i] * np.stack([ct[j], st[j]], axis=-1)

    a = case.coeff.a
    nun = (M - 1) * N + 1
    center_idx = (M - 1) * N

    def idx(i, j):
        return (i - 1) * N + np.asarray(j) % N

    rows, cols, vals = [], [], []
    rhs = np.zeros(nun)
    jj = np.arange(N)

    for i in range(1, M):
        pts_mid_out = c + (rr[i] + h / 2) * np.stack([ct, st], axis=1)
        pts_mid_in = c + (rr[i] - h / 2) * np.stack([ct, st], axis=1)
        a_out = a(pts_mid_out) * (rr[i] + h / 2)
        a_in = a(pts_mid_in) * (rr[i] - h / 2)
        th_half = th + ht / 2
        pts_ang = c + rr[i] * np.stack([np.cos(th_half), np.sin(th_half)], axis=1)
        a_ang = a(pts_ang)                       # a at (i, j+1/2)
        cr = 1.0 / (rr[i] * h * h)
        ca = 1.0 / (rr[i] ** 2 * ht * ht)

        diag = -cr * (a_out + a_in) - ca * (a_ang + np.roll(a_ang, 1))
        rows += [idx(i, jj)] * 1
        cols += [idx(i, jj)]
        vals += [diag]
        rows += [idx(i, jj), idx(i, jj)]
        cols += [idx(i, (jj + 1) % N), idx(i, (jj - 1) % N)]
        vals += [ca * a_ang, ca * np.roll(a_ang, 1)]
        if i + 1 <= M - 1:
            rows += [idx(i, jj)]
            cols += [idx(i + 1, jj)]
            vals += [cr * a_out]
        else:
            rhs[idx(i, jj)] -= cr * a_out * case.u(node(M, jj))
        if i - 1 >= 1:
            rows += [idx(i, jj)]
            cols += [idx(i - 1, jj)]
            vals += [cr * a_in]
        else:
            rows += [idx(i, jj)]
            cols += [np.full(N, center_idx)]
            vals += [cr * a_in]
        rhs[idx(i, jj)] += case.f(node(i, jj))

    # center cell: flux balance over the disk of radius h/2
    pts_half = c + (h / 2) * np.stack([ct, st], axis=1)
    a_half = a(pts_half)
    coef = (h / 2) * a_half / h * ht
    rows += [np.full(N, center_idx), np.full(N, center_idx)]
    cols += [idx(1, jj), np.full(N, center_idx)]
    vals += [coef, -coef]
    rhs[center_idx] = case.f(c[None, :])[0] * np.pi * (h / 2) ** 2

    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(nun, nun)).tocsr()
    u = scipy.sparse.linalg.spsolve(A, rhs)

    pts = np.concatenate([
        np.concatenate([node(i, jj) for i in range(1, M)]), c[None, :]])
    return FdSolution(spec=spec, n_r=M, n_theta=N, points=pts, values=u)


def oracle_discrepancy(sol: solver.DirichletSolution, fd: FdSolution) -> float:
    """Max difference between the solved field's interpolant and the oracle."""
    return float(np.abs(sol.u.at(fd.points) - fd.values).max())


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)


@dataclass
class SuiteReport:
    checks: list = field(default_factory=list)

    def add(self, name: str, value: float, tolerance: float):
        self.checks.append(Check(name, float(value), float(tolerance)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _random_trig(rng, degree: int = 6):
    """Random band-limited periodic density as a callable of the parameter."""
    ak = rng.standard_normal(degree + 1)
    bk = rng.standard_normal(degree + 1)
    bk[0] = 0.0

    def fn(t):
        t = np.asarray(t, dtype=float)
        k = np.arange(degree + 1)
        return (np.cos(np.multiply.outer(t, k)) @ ak
                + np.sin(np.multiply.outer(t, k)) @ bk)
    return fn


def _at(fn, pts):
    """A coefficient callable of (N, 2) points applied to (..., 2) points."""
    out = fn(pts.reshape(-1, 2))
    return out.reshape(pts.shape[:-1] + out.shape[1:])


def direct_boundary_values(curve: BoundaryCurve, coeff: Coefficient,
                           family: str, kind: str, density_fn, nodes=(),
                           points=()) -> np.ndarray:
    """Tanh-sinh reference values of a boundary operator at all its targets.

    Returns the "V", "W" or "Wp" operator of ``family`` applied to the
    periodic ``density_fn`` at the curve ``nodes``, then the "V" or "W"
    layer potential at the off-boundary ``points``.  Each integral runs in
    h = t - t_y over [-pi, 0] and [0, pi], t_y being the node's parameter
    or the point's polar angle.  Raises ``QuadratureError`` if any of them
    does not converge.
    """
    potentials._check_family(family)
    if kind not in ("V", "W", "Wp"):
        raise ValueError(f"operator kind must be 'V', 'W' or 'Wp', got {kind!r}")
    spec = curve.spec
    nodes = np.asarray(nodes, dtype=int)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if kind == "Wp" and len(pts):
        raise ValueError("Wp needs a target normal; it has no off-boundary form")
    rel = pts - spec.center
    t_y = np.concatenate([curve.t[nodes], np.arctan2(rel[:, 1], rel[:, 0])])
    y = np.concatenate([curve.points[nodes], pts])
    n_y = np.concatenate([curve.normals[nodes], np.zeros_like(pts)])
    # y - x(t_y): zero at the nodes, kept apart so d stays exact near h = 0
    gap = np.concatenate([np.zeros((len(nodes), 2)),
                          pts - spec.boundary_point(t_y[len(nodes):])])
    a_y = coeff.a(y)
    gl_y = (coeff.grad_ln_a(y) * n_y).sum(1)
    k = np.arange(spec.cos_coeffs.size)

    def integrand(h, j):
        j = j.astype(int)
        ty = t_y[j]
        t = ty + h
        m = ty + 0.5 * h
        # x(t) - x(t_y) = rho(t) (e(t) - e(t_y)) + (rho(t) - rho(t_y)) e(t_y),
        # e(t) - e(t_y) = 2 sin(h/2) (-sin m, cos m) and
        # rho(t) - rho(t_y) = -2 sum_k c_k sin(k m) sin(k h/2)
        drho = -2.0 * (np.sin(m[..., None] * k)
                       * np.sin(0.5 * h[..., None] * k)) @ spec.cos_coeffs
        d = ((2.0 * spec.rho(t) * np.sin(0.5 * h))[..., None]
             * np.stack([-np.sin(m), np.cos(m)], axis=-1)
             + drho[..., None] * np.stack([np.cos(ty), np.sin(ty)], axis=-1)
             - gap[j])
        r = np.hypot(d[..., 0], d[..., 1])
        x = y[j] + d
        with np.errstate(divide="ignore", invalid="ignore"):
            # h = 0 exactly is an endpoint; tanh-sinh ignores its value
            G = np.log(r) / TWO_PI
            u = d / r[..., None]
            if kind == "V":
                kern = G / (_at(coeff.a, x) if family == "x" else a_y[j])
            elif kind == "W":
                nx = spec.boundary_normal(t)
                dGdnx = (u * nx).sum(-1) / (TWO_PI * r)
                if family == "x":
                    # T_x [G / a(x)] = dG/dn(x) - dln a/dn(x) * G
                    kern = dGdnx - (_at(coeff.grad_ln_a, x) * nx).sum(-1) * G
                else:
                    kern = _at(coeff.a, x) * dGdnx / a_y[j]
            else:
                dGdny = -(u * n_y[j]).sum(-1) / (TWO_PI * r)
                if family == "x":
                    kern = a_y[j] * dGdny / _at(coeff.a, x)
                else:
                    kern = dGdny - gl_y[j] * G
            return -kern * spec.boundary_speed(t) * density_fn(t)

    n = len(t_y)
    # the default stop (relative error eps**0.75) trusts an error estimate
    # that lets 1e-9 through on the non-convex star; this one reaches 1e-14
    res = scipy.integrate.tanhsinh(
        integrand, np.tile([-np.pi, 0.0], (n, 1)),
        np.tile([0.0, np.pi], (n, 1)),
        args=(np.repeat(np.arange(n, dtype=float)[:, None], 2, axis=1),),
        atol=1e-15, rtol=1e-14)
    if np.any(res.status != 0):
        raise QuadratureError(
            f"tanh-sinh reference for {kind}_{family} did not converge "
            f"(status {np.unique(res.status).tolist()})")
    return res.integral.sum(1)


def _log_integrals(grid: DomainGrid, targets, density) -> np.ndarray:
    """(1/2pi) int log|x - y| density(x) dx at each target y.

    Each target gets a polar rule of its own, with 1.25 times the angular
    count of the volume pipeline's rules, so the result shares no rule,
    cardinal matrix or row with the production path.
    """
    base, n_r = potentials._rule_params(grid)
    out = np.empty(len(targets))
    for i, y in enumerate(targets):
        pts, w = polar_rule_for_target(grid.spec, y, base=5 * base // 4,
                                       n_r=n_r).nodes()
        g = 0.5 * np.log(((pts - y) ** 2).sum(1)) / TWO_PI
        out[i] = w @ (g * density(pts))
    return out


def volume_potential_direct(grid: DomainGrid, coeff: Coefficient, family: str,
                            field: DomainField, targets) -> np.ndarray:
    """Oracle for ``potentials.volume_potential``.

    The coefficient factor is evaluated analytically at the quadrature
    nodes instead of being folded into the gridded density.
    """
    potentials._check_family(family)
    tg = _pts(targets)
    if family == "x":
        return _log_integrals(grid, tg, lambda p: field.at(p) / coeff.a(p))
    return _log_integrals(grid, tg, field.at) / coeff.a(tg)


def remainder_via_relation(grid: DomainGrid, coeff: Coefficient, family: str,
                           field: DomainField, targets) -> np.ndarray:
    """Oracle for ``potentials.remainder_potential``: its divergence form.

    Differentiates log potentials of coefficient-weighted densities by
    central differences at the target, instead of integrating the explicit
    remainder kernel.
    """
    potentials._check_family(family)
    tg = _pts(targets)

    def log_potential(values, at):
        return _log_integrals(grid, at,
                              lambda p: grid.interpolate(values, p))

    grad = coeff.grad_ln_a if family == "x" else coeff.grad_a
    comp = field.values[:, None] * grad(grid.points)
    div = np.zeros(len(tg))
    for axis, e in enumerate(np.eye(2) * RELATION_STEP):
        div += (log_potential(comp[:, axis], tg + e)
                - log_potential(comp[:, axis], tg - e)) / (2 * RELATION_STEP)
    if family == "x":
        return div - log_potential(
            field.values * coeff.laplacian_ln_a(grid.points), tg)
    return -div / coeff.a(tg)


def identity_suite(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
                   family: str) -> SuiteReport:
    """Run the potential-theory identity checks and report defects.

    Covers the Gauss identity triple, jump relations by Richardson
    extrapolation, the unit-density subtraction identity, both Green
    identities under the variable coefficient, and the relation-vs-direct
    consistency sweep for all operators of both families.  The volume
    checks carry fixed tolerances, so they run on an internally refined
    grid whenever the supplied grid is below certification resolution.
    """
    rng = np.random.default_rng(SUITE_SEED)
    rep = SuiteReport()
    spec = curve.spec
    c, diam = spec.center, spec.diameter()
    if grid.n_t < 48 or grid.n_s < 20:
        vol_grid = build_domain_grid(spec, max(grid.n_t, 48), max(grid.n_s, 20))
    else:
        vol_grid = grid

    # (i) Gauss identity triple for the constant-coefficient double layer
    Wd = potentials._laplace_blocks(curve)("d")
    rep.add("gauss_direct_value", np.abs(Wd.sum(1) + 0.5).max(), 1e-10)
    probe_in = c + np.array([[0.1, 0.05], [-0.12, 0.03], [0.0, -0.15]]) * diam
    probe_out = c + np.array([[1.5, 0.2], [-1.1, -1.2]]) * diam
    w_in = potentials._laplace_blocks(curve, probe_in)("d").sum(1)
    w_out = potentials._laplace_blocks(curve, probe_out)("d").sum(1)
    rep.add("gauss_interior", np.abs(w_in + 1.0).max(), 1e-10)
    rep.add("gauss_exterior", np.abs(w_out).max(), 1e-10)

    # (ii) jump relations via Richardson extrapolation along the normal
    rho = BoundaryDensity(curve, _random_trig(rng)(curve.t))
    tau = BoundaryDensity(curve, _random_trig(rng)(curve.t))
    nodes = [0, curve.n // 3, (2 * curve.n) // 3]
    h0 = 0.02 * diam
    for name, kind in (("jump_V", "V"), ("jump_W", "W"), ("jump_TV", "TV")):
        if kind == "V":
            lim = potentials.single_layer_direct_matrix(
                curve, coeff, family) @ rho.values
        elif kind == "W":
            lim = -0.5 * tau.values + potentials.double_layer_direct_matrix(
                curve, coeff, family) @ tau.values
        else:
            lim = 0.5 * rho.values + potentials.wprime_direct_matrix(
                curve, coeff, family) @ rho.values
        defect = 0.0
        for i in nodes:
            x0, nrm = curve.points[i], curve.normals[i]
            targets = x0 - np.outer([h0, h0 / 2, h0 / 4], nrm)
            if kind == "V":
                vals = potentials.layer_eval_near(curve, coeff, family, "V",
                                                  rho, targets)
            elif kind == "W":
                vals = potentials.layer_eval_near(curve, coeff, family, "W",
                                                  tau, targets)
            else:
                vals = potentials.conormal_gradient_eval(
                    curve, coeff, family, rho, targets,
                    np.broadcast_to(nrm, (3, 2)))
            extrap = (8 * vals[2] - 6 * vals[1] + vals[0]) / 3.0
            defect = max(defect, abs(extrap - lim[i]))
        rep.add(name, defect, 1e-3)

    # (iii) subtraction identity: 1 + R1(y) + W1(y) = 0 inside
    ones_field = DomainField(vol_grid, np.ones(vol_grid.n_nodes))
    ones_bdry = BoundaryDensity(curve, np.ones(curve.n))
    r1 = potentials.remainder_potential(vol_grid, coeff, family, ones_field,
                                        probe_in)
    w1 = potentials.layer_eval_near(curve, coeff, family, "W", ones_bdry, probe_in)
    rep.add("subtraction_identity", np.abs(1.0 + r1 + w1).max(), 1e-6)

    # (iv) Green identities for u = x1^2 - x2^2, v = x1*x2 (both harmonic)
    up = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
    vp = lambda p: p[:, 0] * p[:, 1]
    gu = lambda p: np.stack([2 * p[:, 0], -2 * p[:, 1]], axis=1)
    gv = lambda p: np.stack([p[:, 1], p[:, 0]], axis=1)
    ga = coeff.grad_a(grid.points)
    au = (ga * gu(grid.points)).sum(1)          # A u = grad a . grad u
    av = (ga * gv(grid.points)).sum(1)
    lhs2 = grid.weights @ (up(grid.points) * av - vp(grid.points) * au)
    ab = coeff.a(curve.points)
    tu = ab * (gu(curve.points) * curve.normals).sum(1)
    tv = ab * (gv(curve.points) * curve.normals).sum(1)
    rhs2 = curve.weights @ (up(curve.points) * tv - vp(curve.points) * tu)
    rep.add("green_second", abs(lhs2 - rhs2), 1e-8)
    energy = grid.weights @ (coeff.a(grid.points)
                             * (gu(grid.points) * gv(grid.points)).sum(1))
    lhs1 = curve.weights @ (tu * vp(curve.points))
    rep.add("green_first", abs(lhs1 - (grid.weights @ (vp(grid.points) * au)
                                       + energy)), 1e-8)

    # (v) relation vs direct-kernel consistency sweep, both families
    dens_fn = _random_trig(rng, degree=5)
    dens = BoundaryDensity(curve, dens_fn(curve.t))
    check_nodes = [1, curve.n // 4]
    probe = c + np.array([[0.21, -0.08], [-0.05, 0.17]]) * diam
    for fam in potentials.FAMILIES:
        off_ref = {}
        for kind, op in (("V", potentials.single_layer_direct_matrix),
                         ("W", potentials.double_layer_direct_matrix),
                         ("Wp", potentials.wprime_direct_matrix)):
            ref = direct_boundary_values(curve, coeff, fam, kind, dens_fn,
                                         check_nodes,
                                         () if kind == "Wp" else probe)
            got = (op(curve, coeff, fam) @ dens.values)[check_nodes]
            rep.add(f"relation_{kind}_direct_{fam}",
                    np.abs(got - ref[:len(check_nodes)]).max(), 1e-8)
            off_ref[kind] = ref[len(check_nodes):]
        for kind in ("V", "W"):
            got = potentials.layer_eval_near(curve, coeff, fam, kind, dens, probe)
            rep.add(f"relation_{kind}_offboundary_{fam}",
                    np.abs(got - off_ref[kind]).max(), 1e-8)

        fld = DomainField(vol_grid, np.cos(vol_grid.points[:, 0] + 0.3)
                          * (1.0 + vol_grid.points[:, 1]))
        # the remainder pass also stores the log rows the volume term reads
        rv = potentials.remainder_potential(vol_grid, coeff, fam, fld, probe)
        pv = potentials.volume_potential(vol_grid, coeff, fam, fld, probe)
        pd = volume_potential_direct(vol_grid, coeff, fam, fld, probe)
        rep.add(f"relation_P_{fam}", np.abs(pv - pd).max(), 1e-6)
        rr = remainder_via_relation(vol_grid, coeff, fam, fld, probe)
        rep.add(f"relation_R_{fam}", np.abs(rv - rr).max(), 1e-6)

    return rep


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

@dataclass
class StudyRow:
    n_boundary: int
    n_t: int
    n_s: int
    err_u_max: float
    err_u_l2: float
    err_psi_max: float
    order: float
    cond: float
    seconds: float
    trace_defect: float = float("nan")   # not part of the CSV schema


@dataclass
class StudyReport:
    case: str
    family: str
    rows: list = field(default_factory=list)

    @property
    def final_pair_monotone(self) -> bool:
        if len(self.rows) < 2:
            return True
        return self.rows[-1].err_u_max < self.rows[-2].err_u_max

    @property
    def monotone(self) -> bool:
        e = [r.err_u_max for r in self.rows]
        return all(b < a for a, b in zip(e, e[1:]))

    @property
    def final_order(self) -> float:
        return self.rows[-1].order if self.rows else float("nan")


def solve_case(case: ManufacturedCase, curve: BoundaryCurve, grid: DomainGrid,
               family: str, allow_large_domain: bool = False):
    """Solve one manufactured problem on a built curve and grid; return
    (solution, StudyRow).  The row's ``seconds`` is the solve alone."""
    t0 = time.perf_counter()
    f = case.f_field_on(grid)
    phi0 = case.phi0_on(curve)
    sol = solver.solve_bvp(curve, grid, case.coeff, family, f, phi0,
                           allow_large_domain)
    seconds = time.perf_counter() - t0

    u_ex = case.u(grid.points)
    scale = max(float(np.abs(u_ex).max()), 1e-30)
    du = sol.u.values - u_ex
    err_max = float(np.abs(du).max() / scale)
    l2_scale = max(float(np.sqrt(grid.weights @ u_ex**2)), 1e-30)
    err_l2 = float(np.sqrt(grid.weights @ du**2) / l2_scale)
    err_psi = float(np.abs(sol.psi.values - case.psi_on(curve)).max())
    trace = float(np.abs(sol.u.at(curve.points) - phi0.values).max())
    row = StudyRow(n_boundary=curve.n, n_t=grid.n_t, n_s=grid.n_s,
                   err_u_max=err_max, err_u_l2=err_l2, err_psi_max=err_psi,
                   order=float("nan"), cond=sol.system.cond, seconds=seconds,
                   trace_defect=trace)
    return sol, row


def convergence_study(case: ManufacturedCase, spec: DomainSpec,
                      families: Sequence[str], resolutions: Sequence[tuple],
                      allow_large_domain: bool = False) -> dict:
    """Errors against the exact solution across a resolution ladder.

    Each rung's curve and grid are built once and every family is solved
    on them, so the families share every geometry-only operator.  Returns
    one StudyReport per family, keyed by family.
    """
    if len(resolutions) < 1:
        raise ValueError("at least one resolution is required")
    reports = {fam: StudyReport(case=case.name, family=fam)
               for fam in families}
    for nb, nt, ns in resolutions:
        curve = build_curve(spec, nb)
        grid = build_domain_grid(spec, nt, ns)
        for fam, report in reports.items():
            _, row = solve_case(case, curve, grid, fam, allow_large_domain)
            report.rows.append(row)
    for report in reports.values():
        for r0, r1 in zip(report.rows, report.rows[1:]):
            ratio = r1.n_boundary / r0.n_boundary
            floor = 1e-13
            if r1.err_u_max > 0 and r0.err_u_max > floor and ratio > 1:
                r1.order = float(np.log(r0.err_u_max / r1.err_u_max)
                                 / np.log(ratio))
    return reports


# ---------------------------------------------------------------------------
# Invertibility and structure diagnostics
# ---------------------------------------------------------------------------

def zero_mean_basis(curve: BoundaryCurve) -> np.ndarray:
    """Orthonormal basis of nodal densities with zero weighted mean."""
    return scipy.linalg.null_space(curve.weights[None, :])


def invertibility_report(curve: BoundaryCurve, grid: DomainGrid,
                         coeff: Coefficient, family: str) -> dict:
    """Smallest singular values backing the unique-solvability claims.

    Reports sigma_min of the direct single-layer matrix, of its
    restriction to the zero-mean subspace, and of the interior
    single-layer map (zero-mean densities to interior values).
    """
    V = potentials.single_layer_direct_matrix(curve, coeff, family)
    Z = zero_mean_basis(curve)
    sv = scipy.linalg.svdvals(V)
    svz = scipy.linalg.svdvals(V @ Z)
    spec = curve.spec
    rr = 0.45 * spec.diameter() / 2
    th = TWO_PI * np.arange(24) / 24
    targets = spec.center + rr * np.stack([np.cos(th), np.sin(th)], axis=1)
    G = potentials.single_layer_matrix_at_targets(curve, coeff, family, targets)
    sgz = scipy.linalg.svdvals(G @ Z)
    return {
        "sigma_min_single_layer": float(sv[-1]),
        "sigma_min_single_layer_zero_mean": float(svz[-1]),
        "sigma_min_interior_map_zero_mean": float(sgz[-1]),
    }


def remainder_spectrum_decay(grid: DomainGrid, coeff: Coefficient,
                             family: str) -> dict:
    """Leading singular values of the discrete remainder block.

    A rapidly decaying spectrum is the finite-dimensional face of the
    operator's compactness; reported qualitatively, no threshold.
    """
    if coeff.constant:
        return {"sigma": [0.0], "decay_ratio": 0.0}
    R = potentials.remainder_rows(grid, coeff, family, grid.points)
    s = scipy.linalg.svdvals(R)
    k = min(SPECTRUM_HEAD, len(s))
    return {"sigma": s[:k].tolist(),
            "decay_ratio": float(s[k - 1] / s[0]) if s[0] > 0 else 0.0}


def fredholm_diagnostic(sol: solver.DirichletSolution) -> dict:
    """Effect of dropping the compact-like blocks on the solved field.

    Re-solves with the remainder blocks zeroed and reports the change
    together with the block norm; reported, not asserted.
    """
    sys = sol.system
    n_h = sys.n_h
    A0 = sys.matrix.copy()
    stop = n_h + sys.n_b
    R_norm = float(np.linalg.norm(
        sys.matrix[:stop, :n_h] - np.eye(stop, n_h), 2))
    A0[:n_h, :n_h] = np.eye(n_h)
    A0[n_h:stop, :n_h] = 0.0
    z = scipy.linalg.solve(A0, sys.rhs)
    delta = float(np.abs(z[:n_h] - sol.u.values).max())
    return {"remainder_block_norm": R_norm, "solution_delta": delta,
            "bound": R_norm * sys.cond * max(1.0, float(np.abs(sol.u.values).max()))}
