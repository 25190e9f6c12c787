"""Manufactured solutions, independent oracles and certification suites.

Everything here exists to check the solver against quantities computed by
an unrelated route: closed-form manufactured data, tanh-sinh reference
quadrature of raw boundary kernels, polar-rule quadrature of the volume
kernels on rules of its own, a polar finite-difference solve on disks, and
extrapolated boundary limits for the jump relations.  These oracles live
only here; the production path in ``potentials`` does not call them, and
they read none of its cached rules or rows.  The volume oracles build a
target set's rules in one ``geometry.polar_rules`` call, as the pipeline
does, but with more angles and radial points, and keep none of them.

The boundary-kernel oracle (``direct_boundary_values``) integrates each
target in the offset from its own parameter, so the log singularity sits
at an endpoint of a tanh-sinh rule.  Its abscissae come within about
1e-300 of that endpoint, so x(t) - x(t_y) is formed from product-to-sum
identities, free of cancellation, and its length from ``hypot``.  It
matches n=1024 Kress rows to about 1.5e-14.  The tanh-sinh rule is a short
numpy one (``_tanh_sinh``), vectorised over every target of an operator;
the six calls of ``identity_suite`` on a disk r=0.4 at 128/32x12 take
about 12 ms on a 2-vCPU VM.  Everything here runs on numpy alone, the
SVDs, the dense solves and ``fd_oracle``'s blocks on ``numpy.linalg``;
the remainder spectrum and block norm use ``solver.top_singular_values``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import numpy.random  # numpy 2 loads it lazily, at first use

from . import potentials, solver
from .coefficient import Coefficient, make_preset
from .geometry import (BoundaryCurve, DomainGrid, DomainSpec, _count,
                       _graded_unit_rule, as_points, build_curve,
                       build_domain_grid, gauss_01, polar_rules, rule_nodes)
from .laplace import QuadratureError
from .potentials import BoundaryDensity, DomainField

TWO_PI = 2.0 * np.pi
#: Seed of the identity suite's random densities.
SUITE_SEED = 7
#: Central-difference step of the remainder oracle (``_volume_oracles``).
RELATION_STEP = 1e-4
#: Leading singular values reported by ``remainder_spectrum_decay``.
SPECTRUM_HEAD = 24
#: Level cap of the tanh-sinh oracle: level k steps TANH_SINH_STEP / 2**k.
TANH_SINH_LEVELS = 10
#: Its level-0 step: 1/8 of the parameter past which 1 - tanh(pi/2 sinh u)
#: underflows (four times the smallest normal float).
TANH_SINH_STEP = math.asinh(
    math.log(0.5 / np.finfo(float).smallest_normal - 1.0) / math.pi) / 8
#: Its stop on the change between two levels: atol, then rtol.
TANH_SINH_TOL = (1e-15, 1e-14)


# ---------------------------------------------------------------------------
# Manufactured cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ManufacturedCase:
    """Coefficient, exact solution and matching source in closed form;
    ``u``, ``grad_u`` and ``f`` take caller points through ``as_points``."""

    name: str
    coeff: Coefficient
    u: Callable[[np.ndarray], np.ndarray]
    grad_u: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        for name in ("u", "grad_u", "f"):
            fn = getattr(self, name)
            object.__setattr__(self, name, lambda p, fn=fn: fn(as_points(p)))

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
            u=lambda p: np.ones(len(p)),
            grad_u=np.zeros_like,
            f=lambda p: np.zeros(len(p)))
    if name == "harmonic_linear":
        return ManufacturedCase(
            name=name, coeff=make_preset("constant", value=1.0),
            u=lambda p: p[:, 0],
            grad_u=lambda p: np.stack(
                [np.ones(len(p)), np.zeros(len(p))], axis=1),
            f=lambda p: np.zeros(len(p)))
    if name == "exp_saddle":
        return ManufacturedCase(
            name=name, coeff=make_preset("exponential", direction=(1.0, 1.0)),
            u=lambda p: p[:, 0] ** 2 - p[:, 1] ** 2,
            grad_u=lambda p: np.stack([2 * p[:, 0], -2 * p[:, 1]], axis=1),
            f=lambda p: 2.0 * np.exp(p.sum(1)) * (p[:, 0] - p[:, 1]))
    if name == "quad_coeff":
        return ManufacturedCase(
            name=name, coeff=make_preset("quadratic"),
            u=lambda p: p[:, 1] * (1.0 + p[:, 0]),
            grad_u=lambda p: np.stack([p[:, 1], 1.0 + p[:, 0]], axis=1),
            f=lambda p: 2.0 * p[:, 0] * p[:, 1])
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
    cross-check solved fields.  Disks only (any one-mode profile, whose
    radius is its one cosine coefficient), n_r >= 2 rings, n_theta >= 3
    angles.  Each interior ring is one periodic tridiagonal block, coupled
    to its neighbours by diagonal matrices and to the center by a column,
    so block elimination solves the system: an inward sweep of
    ``numpy.linalg.solve`` calls, the center equation, and
    back-substitution outward.  The stored n_theta x n_theta blocks take
    O(n_r n_theta^2) memory, about 17 MB at 128x128.
    """
    if spec.cos_coeffs[1:].any():
        raise ValueError("the finite-difference oracle supports disks only")
    c = spec.center
    M, N = _count(n_r, "n_r"), _count(n_theta, "n_theta")
    h, ht = spec.cos_coeffs[0] / M, TWO_PI / N
    r = h * np.arange(1, M)[:, None]                 # ring radii, (M - 1, 1)
    th = ht * np.arange(N)

    def nodes(rad, ang=th):                         # (rings, N, 2)
        return c + np.reshape(rad, (-1, 1, 1)) * np.stack(
            [np.cos(ang), np.sin(ang)], axis=-1)

    def a(rad, ang=th):
        return case.coeff.a(nodes(rad, ang).reshape(-1, 2)).reshape(-1, N)

    # (M - 1, N): a r at the half radii, a at the half angles j +/- 1/2
    a_out, a_in = a(r + h / 2) * (r + h / 2), a(r - h / 2) * (r - h / 2)
    a_up = a(r, th + ht / 2)
    a_dn = np.roll(a_up, 1, axis=1)
    cr, ca = 1.0 / (r * h * h), 1.0 / (r ** 2 * ht * ht)
    out, inn, up, dn = cr * a_out, cr * a_in, ca * a_up, ca * a_dn
    diag = -cr * (a_out + a_in) - ca * (a_up + a_dn)
    pts = nodes(r)
    b = case.f(pts.reshape(-1, 2)).reshape(M - 1, N)
    b[-1] -= out[-1] * case.u(nodes(h * M)[0])

    # inward sweep: ring k is x[k] + Y[k] @ (ring k - 1, or the center
    # value on every node for k = 0); the zero ring M - 1 closes the sweep
    x, Y = np.zeros((M, N)), np.zeros((M, N, N))
    jj = np.arange(N)
    for k in range(M - 2, -1, -1):
        T = out[k][:, None] * Y[k + 1]
        T[jj, jj] += diag[k]
        T[jj, (jj + 1) % N] += up[k]
        T[jj, (jj - 1) % N] += dn[k]
        sol = np.linalg.solve(
            T, np.column_stack([b[k] - out[k] * x[k + 1], np.diag(-inn[k])]))
        x[k], Y[k] = sol[:, 0], sol[:, 1:]

    # center cell: flux balance over the disk of radius h/2
    coef = (h / 2) * a(h / 2)[0] / h * ht
    uc = ((case.f(c[None, :])[0] * np.pi * (h / 2) ** 2 - coef @ x[0])
          / (coef @ Y[0].sum(axis=1) - coef.sum()))
    u, prev = np.empty((M - 1, N)), np.full(N, uc)
    for k in range(M - 1):
        prev = u[k] = x[k] + Y[k] @ prev
    return FdSolution(spec=spec, n_r=M, n_theta=N,
                      points=np.concatenate([pts.reshape(-1, 2), c[None, :]]),
                      values=np.append(u, uc))


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
    pts = as_points(points)
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

    return _tanh_sinh(integrand, len(t_y), f"{kind}_{family}")


@lru_cache(maxsize=32)
def _tanh_sinh_level(k: int):
    """Offsets in (0, pi) and weights that level k adds to the tanh-sinh
    rule of [0, pi]; shared and read-only.

    An offset near 0 is formed directly as pi/2 (1 - tanh v) =
    pi/2 / (e^v cosh v), v = pi/2 sinh u, never as a difference, so the
    offsets reach about 1e-307 and resolve the singular end; its mirror
    pi - x serves the other end, where offsets that round onto pi are
    dropped.
    """
    n = 8 << k
    j = np.arange(n + 1) if k == 0 else np.arange(1, n + 1, 2)
    u = j * (TANH_SINH_STEP / (1 << k))
    u2 = 0.5 * np.pi * np.sinh(u)
    w = 0.5 * np.pi * np.cosh(u) / np.cosh(u2) ** 2
    x = 0.5 * np.pi / (np.exp(u2) * np.cosh(u2))
    if k == 0:
        w[0] *= 0.5                 # u = 0 is counted once from each end
    x, w = np.concatenate([x, np.pi - x]), 0.5 * np.pi * np.concatenate([w, w])
    keep = (x > 0.0) & (x < np.pi)
    x, w = x[keep], w[keep]
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _tanh_sinh(integrand, n: int, name: str) -> np.ndarray:
    """Integrals of integrand(h, j) over h in [-pi, 0] and [0, pi], summed,
    for each target j < n (Takahasi & Mori, 1974; Bailey, Jeyabalan & Li,
    2005).

    The step halves from TANH_SINH_STEP until each half-interval's sum
    changes by at most TANH_SINH_TOL from one level to the next; only the
    half-intervals still moving are evaluated.  Raises ``QuadratureError``,
    naming the operator ``name``, if any is still moving at level
    TANH_SINH_LEVELS.
    """
    atol, rtol = TANH_SINH_TOL
    side = np.tile([-1.0, 1.0], n)[:, None]
    target = np.repeat(np.arange(n), 2)[:, None]
    total = np.zeros(2 * n)
    live = np.arange(2 * n)
    for k in range(TANH_SINH_LEVELS + 1):
        x, w = _tanh_sinh_level(k)
        prev = total[live]
        new = 0.5 * prev + TANH_SINH_STEP / (1 << k) * (
            integrand(side[live] * x, target[live]) @ w)
        total[live] = new
        if k:
            live = live[np.abs(new - prev) > np.maximum(atol,
                                                        rtol * np.abs(new))]
            if not len(live):
                return total.reshape(n, 2).sum(1)
    raise QuadratureError(
        f"tanh-sinh reference for {name} did not converge by level "
        f"{TANH_SINH_LEVELS} ({len(live)} of {2 * n} half-intervals)")


def _log_integrals(grid: DomainGrid, targets, columns) -> np.ndarray:
    """(1/2pi) int log|x - y| v(x) / d(x) dx at each target y, for each
    (values, divisor) of ``columns``: v is the grid interpolant of the
    nodal values, d the divisor callable of points, or 1 where it is None.
    Returns one column per entry, one row per target.

    The targets' polar rules are built in one ``polar_rules`` call, with
    1.25 times the angular count of the volume pipeline's rules, and
    expanded with radial unit rules of their own: two more than its radial
    order, with the r = x^4 graded rule on every segment at or near the
    target where the pipeline uses the generalized Gaussian one at it.  So
    the result shares no node, cardinal matrix or row with the production
    path.  The table is expanded once; per
    target, every column is interpolated on its slice of the nodes by one
    ``grid.interpolate`` call: one cardinal evaluation and one GEMM.
    Targets are taken one at a time, so a target's value does not depend
    on the rest of the set: on all nodes at once, the interpolation GEMM
    rounds differently.
    """
    base, n_r = potentials._rule_params(grid)
    rules = polar_rules(grid.spec, targets, base=5 * base // 4, n_r=n_r)
    graded = _graded_unit_rule(n_r + 2)
    nodes, weights, counts = rule_nodes(
        rules, units=(graded, graded, gauss_01(n_r + 2)))
    values = np.column_stack([v for v, _ in columns])
    out = np.empty((len(counts), len(columns)))
    stops = np.cumsum(counts)
    for i, (y, a, b) in enumerate(zip(rules.targets, stops - counts, stops)):
        pts, w = nodes[a:b], weights[a:b]
        g = 0.5 * np.log(((pts - y) ** 2).sum(1)) / TWO_PI
        vals = grid.interpolate(values, pts)
        for c, (_, div) in enumerate(columns):
            v = vals[:, c] if div is None else vals[:, c] / div(pts)
            out[i, c] = w @ (g * v)
    return out


def _volume_oracles(grid: DomainGrid, coeff: Coefficient, field: DomainField,
                    targets) -> dict:
    """Oracle values, keyed (kind, family), of the volume potential ("P")
    and the remainder potential ("R") of ``field`` at the targets, for
    both families: the oracles of ``potentials.volume_potential`` and
    ``potentials.remainder_potential``.

    P divides by the coefficient analytically, at the quadrature nodes
    (family "x") or at the target ("y"), instead of folding it into the
    gridded density.  R is the remainder's divergence form: log potentials
    of coefficient-weighted densities, differentiated by central
    differences of step RELATION_STEP at the target, instead of the
    explicit remainder kernel.  Every log potential at one target set (the
    targets, and for R the targets moved by +-RELATION_STEP along each
    axis) comes from one ``_log_integrals`` call.
    """
    tg = as_points(targets)
    h = np.eye(2) * RELATION_STEP
    sets = {"": tg, "+x": tg + h[0], "-x": tg - h[0], "+y": tg + h[1],
            "-y": tg - h[1]}
    columns = {name: {} for name in sets}       # label: (values, divisor)
    for fam in potentials.FAMILIES:
        columns[""]["P" + fam] = (field.values,
                                  coeff.a if fam == "x" else None)
        grad = coeff.grad_ln_a if fam == "x" else coeff.grad_a
        comp = field.values[:, None] * grad(grid.points)
        for name in list(sets)[1:]:
            columns[name]["R" + fam] = (comp[:, "xy".index(name[1])], None)
        if fam == "x":
            columns[""]["L"] = (
                field.values * coeff.laplacian_ln_a(grid.points), None)
    log = {}
    for name, cols in columns.items():
        vals = _log_integrals(grid, sets[name], list(cols.values()))
        log.update(((name, label), vals[:, i])
                   for i, label in enumerate(cols))
    out = {}
    for fam in potentials.FAMILIES:
        p = log["", "P" + fam]
        out["P", fam] = p if fam == "x" else p / coeff.a(tg)
        div = np.zeros(len(tg))
        for axis in "xy":
            div += (log["+" + axis, "R" + fam] - log["-" + axis, "R" + fam]
                    ) / (2 * RELATION_STEP)
        out["R", fam] = (div - log["", "L"] if fam == "x"
                         else -div / coeff.a(tg))
    return out


def identity_suite(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
                   family: str) -> SuiteReport:
    """Run the potential-theory identity checks and report defects.

    Covers the Gauss identity triple, jump relations by Richardson
    extrapolation, the unit-density subtraction identity, both Green
    identities under the variable coefficient, and the relation-vs-direct
    consistency sweep for all operators of both families.  The volume
    checks carry fixed tolerances, so they run on an internally refined
    grid whenever the supplied grid is below certification resolution.
    Their oracles for both families come from one ``_volume_oracles``
    call: one rule build and cardinal evaluation per target set, five
    sets in all.
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
    rho = _random_trig(rng)(curve.t)
    tau = _random_trig(rng)(curve.t)
    nodes = [0, curve.n // 3, (2 * curve.n) // 3]
    h0 = 0.02 * diam
    # the interior limit of each potential is jump * density + direct value
    for name, kind, dens, jump in (("jump_V", "V", rho, 0.0),
                                   ("jump_W", "W", tau, -0.5),
                                   ("jump_TV", "Wp", rho, 0.5)):
        lim = jump * dens + potentials.layer_rows(
            curve, coeff, family, kind) @ dens
        defect = 0.0
        for i in nodes:
            x0, nrm = curve.points[i], curve.normals[i]
            targets = x0 - np.outer([h0, h0 / 2, h0 / 4], nrm)
            vals = potentials.layer_rows(
                curve, coeff, family, kind, targets,
                np.broadcast_to(nrm, (3, 2))) @ dens
            extrap = (8 * vals[2] - 6 * vals[1] + vals[0]) / 3.0
            defect = max(defect, abs(extrap - lim[i]))
        rep.add(name, defect, 1e-3)

    # (iii) subtraction identity: 1 + R1(y) + W1(y) = 0 inside
    ones_field = DomainField(vol_grid, np.ones(vol_grid.n_nodes))
    r1 = potentials.remainder_potential(vol_grid, coeff, family, ones_field,
                                        probe_in)
    w1 = potentials.layer_rows(curve, coeff, family, "W",
                               probe_in) @ np.ones(curve.n)
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
    dens = dens_fn(curve.t)
    check_nodes = [1, curve.n // 4]
    probe = c + np.array([[0.21, -0.08], [-0.05, 0.17]]) * diam
    fld = DomainField(vol_grid, np.cos(vol_grid.points[:, 0] + 0.3)
                      * (1.0 + vol_grid.points[:, 1]))
    oracle = _volume_oracles(vol_grid, coeff, fld, probe)
    for fam in potentials.FAMILIES:
        off_ref = {}
        for kind, off in (("V", probe), ("W", probe), ("Wp", ())):
            ref = direct_boundary_values(curve, coeff, fam, kind, dens_fn,
                                         check_nodes, off)
            got = (potentials.layer_rows(curve, coeff, fam, kind)
                   @ dens)[check_nodes]
            rep.add(f"relation_{kind}_direct_{fam}",
                    np.abs(got - ref[:len(check_nodes)]).max(), 1e-8)
            off_ref[kind] = ref[len(check_nodes):]
        for kind in ("V", "W"):
            got = potentials.layer_rows(curve, coeff, fam, kind,
                                        probe) @ dens
            rep.add(f"relation_{kind}_offboundary_{fam}",
                    np.abs(got - off_ref[kind]).max(), 1e-8)

        # remainder first: its pass also builds the log rows the volume
        # term reads, from the same cardinal evaluation
        rv = potentials.remainder_potential(vol_grid, coeff, fam, fld, probe)
        pv = potentials.volume_potential(vol_grid, coeff, fam, fld, probe)
        rep.add(f"relation_P_{fam}", np.abs(pv - oracle["P", fam]).max(),
                1e-6)
        rep.add(f"relation_R_{fam}", np.abs(rv - oracle["R", fam]).max(),
                1e-6)

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
    return np.linalg.svd(curve.weights[None, :])[2][1:].T


def invertibility_report(curve: BoundaryCurve, coeff: Coefficient,
                         family: str) -> dict:
    """Smallest singular values backing the unique-solvability claims.

    Reports sigma_min of the direct single-layer matrix, of its
    restriction to the zero-mean subspace, and of the interior
    single-layer map (zero-mean densities to interior values) at 24
    probes on the level-0.45 curve, c + 0.45 rho(theta) e(theta), inside
    every star.
    """
    V = potentials.single_layer_direct_matrix(curve, coeff, family)
    Z = zero_mean_basis(curve)
    sv = np.linalg.svd(V, compute_uv=False)
    svz = np.linalg.svd(V @ Z, compute_uv=False)
    spec = curve.spec
    th = TWO_PI * np.arange(24) / 24
    targets = spec.center + (0.45 * spec.rho(th))[:, None] * np.stack(
        [np.cos(th), np.sin(th)], axis=1)
    G = potentials.single_layer_matrix_at_targets(curve, coeff, family, targets)
    sgz = np.linalg.svd(G @ Z, compute_uv=False)
    return {
        "sigma_min_single_layer": float(sv[-1]),
        "sigma_min_single_layer_zero_mean": float(svz[-1]),
        "sigma_min_interior_map_zero_mean": float(sgz[-1]),
    }


def remainder_spectrum_decay(grid: DomainGrid, coeff: Coefficient,
                             family: str) -> dict:
    """Leading singular values of the discrete remainder block.

    A rapidly decaying spectrum is the finite-dimensional face of the
    operator's compactness; reported qualitatively, no threshold.  The
    SPECTRUM_HEAD largest values come from Golub-Kahan-Lanczos
    (``solver.top_singular_values``), not from a dense SVD.
    """
    if coeff.constant:
        return {"sigma": [0.0], "decay_ratio": 0.0}
    R = potentials.remainder_rows(grid, coeff, family, grid.points)
    s = solver.top_singular_values(R, SPECTRUM_HEAD)
    return {"sigma": s.tolist(),
            "decay_ratio": float(s[-1] / s[0]) if s[0] > 0 else 0.0}


def fredholm_diagnostic(sol: solver.DirichletSolution) -> dict:
    """Effect of dropping the compact-like blocks on the solved field.

    Re-solves with the remainder blocks zeroed and reports the change
    together with the blocks' 2-norm, from Golub-Kahan-Lanczos
    (``solver.top_singular_values``); 0 for a constant coefficient, whose
    remainder blocks are zero.  Reported, not asserted.  With them zeroed
    the matrix is [[I, X], [0, Y]], so the re-solve is a solve with Y, the
    boundary block (bordered on the projected system), and one product.
    """
    sys = sol.system
    n_h = sys.n_h
    A, b = sys.matrix, sys.rhs
    stop = n_h + sys.n_b
    R_norm = float(solver.top_singular_values(
        A[:stop, :n_h] - np.eye(stop, n_h), 1)[0])
    rest = np.linalg.solve(A[n_h:, n_h:], b[n_h:])
    delta = float(np.abs(b[:n_h] - A[:n_h, n_h:] @ rest
                         - sol.u.values).max())
    return {"remainder_block_norm": R_norm, "solution_delta": delta,
            "bound": R_norm * sys.cond * max(1.0, float(np.abs(sol.u.values).max()))}
