"""Manufactured solutions, independent oracles and certification suites.

Everything here exists to check the solver against quantities computed by
an unrelated route: closed-form manufactured data, adaptive reference
quadrature of raw kernels, polar-rule quadrature of the volume kernels on
rules of its own, a polar finite-difference solve on disks, and
extrapolated boundary limits for the jump relations.  These oracles live
only here; the production path in ``potentials`` does not call them, and
they read none of its cached rules or rows.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import potentials, solver
from .coefficient import Coefficient, make_preset
from .geometry import (BoundaryCurve, DomainGrid, DomainSpec,
                       adaptive_theta_count, build_curve, build_domain_grid,
                       polar_rule_for_target)
from .potentials import BoundaryDensity, DomainField

TWO_PI = 2.0 * np.pi


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


def _parametrix_boundary_kernel(curve, coeff, family, kind, t_src, y, n_y, t_y):
    """Raw kernel of a boundary operator, assembled from first principles."""
    x = curve.spec.boundary_point(t_src)
    sp = curve.spec.boundary_speed(t_src)
    d = x - y
    r2 = (d * d).sum(-1)
    G = 0.5 * np.log(r2) / TWO_PI
    if kind == "V":
        P = G / coeff.a(x) if family == "x" else G / coeff.a(y[None, :])[0]
        return -P * sp
    if kind == "W":
        nx = curve.spec.boundary_normal(t_src)
        dGdnx = (d * nx).sum(-1) / (TWO_PI * r2)
        ax = coeff.a(x)
        if family == "x":
            # T_x [G / a(x)] = dG/dn(x) - dln a/dn(x) * G
            gl = (coeff.grad_ln_a(x) * nx).sum(-1)
            return -(dGdnx - gl * G) * sp
        return -(ax * dGdnx / coeff.a(y[None, :])[0]) * sp
    if kind == "Wp":
        dGdny = -(d * n_y).sum(-1) / (TWO_PI * r2)
        ay = coeff.a(y[None, :])[0]
        if family == "x":
            return -(ay * dGdny / coeff.a(x)) * sp
        gl_y = (coeff.grad_ln_a(y[None, :])[0] * n_y).sum()
        return -(dGdny - gl_y * G) * sp
    raise ValueError(kind)


def direct_boundary_value(curve: BoundaryCurve, coeff: Coefficient,
                          family: str, kind: str, density_fn, node: int,
                          offboundary_target=None) -> float:
    """Adaptive-quadrature reference value of a boundary/layer operator.

    Integrates the raw parametrix kernel against a smooth density with
    scipy's adaptive rule, splitting at the (integrable) singularity for
    on-boundary targets.  Slow; for oracle use only.
    """
    if offboundary_target is not None:
        y = np.asarray(offboundary_target, dtype=float)
        t_y, n_y = 0.0, np.zeros(2)
        pts = []
    else:
        t_y = curve.t[node]
        y = curve.points[node]
        n_y = curve.normals[node]
        pts = [t_y]

    def integrand(tau):
        k = _parametrix_boundary_kernel(curve, coeff, family, kind,
                                        np.atleast_1d(tau), y, n_y, t_y)
        return float(k[0] * density_fn(np.atleast_1d(tau))[0])

    a_lim, b_lim = t_y - np.pi, t_y + np.pi
    with warnings.catch_warnings():
        # roundoff-level extrapolation noise at the log singularity is fine
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, _ = scipy.integrate.quad(integrand, a_lim, b_lim,
                                      points=pts or None, limit=400,
                                      epsabs=1e-12, epsrel=1e-12)
    return val


def _log_integrals(grid: DomainGrid, targets, density) -> np.ndarray:
    """(1/2pi) int log|x - y| density(x) dx at each target y.

    Each target gets a polar rule of its own, with 1.25 times the angular
    count of the volume pipeline's rules, so the result shares no rule,
    cardinal matrix or row with the production path.
    """
    base, n_r = potentials._rule_params(grid)
    out = np.empty(len(targets))
    for i, y in enumerate(targets):
        n_theta = adaptive_theta_count(grid.spec, y, base=5 * base // 4)
        pts, w = polar_rule_for_target(grid.spec, y, n_theta=n_theta,
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
                           field: DomainField, targets,
                           step: float = 1e-4) -> np.ndarray:
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
    for axis, e in enumerate(np.eye(2) * step):
        div += (log_potential(comp[:, axis], tg + e)
                - log_potential(comp[:, axis], tg - e)) / (2 * step)
    if family == "x":
        return div - log_potential(
            field.values * coeff.laplacian_ln_a(grid.points), tg)
    return -div / coeff.a(tg)


def identity_suite(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
                   family: str, seed: int = 7) -> SuiteReport:
    """Run the potential-theory identity checks and report defects.

    Covers the Gauss identity triple, jump relations by Richardson
    extrapolation, the unit-density subtraction identity, both Green
    identities under the variable coefficient, and the relation-vs-direct
    consistency sweep for all operators of both families.  The volume
    checks carry fixed tolerances, so they run on an internally refined
    grid whenever the supplied grid is below certification resolution.
    """
    rng = np.random.default_rng(seed)
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
        for kind, op in (("V", potentials.single_layer_direct_matrix),
                         ("W", potentials.double_layer_direct_matrix),
                         ("Wp", potentials.wprime_direct_matrix)):
            got = op(curve, coeff, fam) @ dens.values
            defect = max(abs(got[i] - direct_boundary_value(
                curve, coeff, fam, kind, dens_fn, i)) for i in check_nodes)
            rep.add(f"relation_{kind}_direct_{fam}", defect, 1e-8)
        for kind in ("V", "W"):
            got = potentials.layer_eval_near(curve, coeff, fam, kind, dens, probe)
            defect = max(abs(got[k] - direct_boundary_value(
                curve, coeff, fam, kind, dens_fn, -1, offboundary_target=probe[k]))
                for k in range(len(probe)))
            rep.add(f"relation_{kind}_offboundary_{fam}", defect, 1e-8)

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
# Convergence and family-comparison studies
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


def solve_case(case: ManufacturedCase, spec: DomainSpec, family: str,
               n_boundary: int, n_t: int, n_s: int,
               with_cond: bool = True, allow_large_domain: bool = False):
    """Solve one manufactured problem; return (solution, StudyRow)."""
    t0 = time.perf_counter()
    curve = build_curve(spec, n_boundary)
    grid = build_domain_grid(spec, n_t, n_s)
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
    cond = sol.system.cond if with_cond else float("nan")
    row = StudyRow(n_boundary=n_boundary, n_t=n_t, n_s=n_s,
                   err_u_max=err_max, err_u_l2=err_l2, err_psi_max=err_psi,
                   order=float("nan"), cond=cond, seconds=seconds,
                   trace_defect=trace)
    return sol, row


def convergence_study(case: ManufacturedCase, spec: DomainSpec, family: str,
                      resolutions: Sequence[tuple], with_cond: bool = True,
                      allow_large_domain: bool = False) -> StudyReport:
    """Errors against the exact solution across a resolution ladder."""
    if len(resolutions) < 1:
        raise ValueError("at least one resolution is required")
    report = StudyReport(case=case.name, family=family)
    for nb, nt, ns in resolutions:
        _, row = solve_case(case, spec, family, nb, nt, ns, with_cond,
                            allow_large_domain)
        report.rows.append(row)
    for k in range(1, len(report.rows)):
        r0, r1 = report.rows[k - 1], report.rows[k]
        ratio = r1.n_boundary / r0.n_boundary
        floor = 1e-13
        if r1.err_u_max > 0 and r0.err_u_max > floor and ratio > 1:
            r1.order = float(np.log(r0.err_u_max / r1.err_u_max) / np.log(ratio))
    return report


def compare_families(case: ManufacturedCase, spec: DomainSpec,
                     resolutions: Sequence[tuple],
                     allow_large_domain: bool = False) -> dict:
    """Side-by-side studies for both parametrix families.

    The family-"y" system mirrors the solved one with the other kernel
    family; its report is emitted for comparison without acceptance
    thresholds.
    """
    return {fam: convergence_study(case, spec, fam, resolutions,
                                   allow_large_domain=allow_large_domain)
            for fam in potentials.FAMILIES}


# ---------------------------------------------------------------------------
# Invertibility and structure diagnostics
# ---------------------------------------------------------------------------

def zero_mean_basis(curve: BoundaryCurve) -> np.ndarray:
    """Orthonormal basis of nodal densities with zero weighted mean."""
    w = curve.weights
    proj = np.eye(curve.n) - np.outer(w, w) / (w @ w)
    u, s, _ = np.linalg.svd(proj)
    return u[:, : curve.n - 1]


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
                             family: str, k: int = 24) -> dict:
    """Leading singular values of the discrete remainder block.

    A rapidly decaying spectrum is the finite-dimensional face of the
    operator's compactness; reported qualitatively, no threshold.
    """
    if coeff.constant:
        return {"sigma": [0.0], "decay_ratio": 0.0}
    R = potentials.remainder_rows(grid, coeff, family, grid.points)
    s = scipy.linalg.svdvals(R)
    k = min(k, len(s))
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
