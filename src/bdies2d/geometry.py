"""Domains, boundary curves, interior grids and polar quadrature rules.

The domains handled here are star-shaped with respect to a center point:
disks, and regions bounded by a smooth positive radial profile given as a
cosine series.  Everything downstream (layer operators, volume potentials)
consumes the objects built in this module and treats them as immutable.

Domains, curves and grids each keep a private ``_cache`` of values that
depend only on their geometry; ``cached`` is the one way to fill it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist


class GeometryError(ValueError):
    """Invalid geometric input or a violated geometric precondition."""


def cached(owner, key, build):
    """Value ``build()`` kept in ``owner._cache`` under ``key``.

    The owner (a domain, curve or grid) is immutable, so a value that
    depends only on its geometry is built on first use and shared by every
    coefficient, family and right-hand side after that.  Stored arrays are
    read-only.
    """
    store = owner._cache
    if key not in store:
        value = build()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        store[key] = value
    return store[key]


def _as_point(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (2,):
        raise GeometryError(f"expected a 2d point, got shape {p.shape}")
    return p


# ---------------------------------------------------------------------------
# Domain specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DomainSpec:
    """A disk or a star-shaped region with radial profile rho(theta).

    The profile is the cosine series
    ``rho(theta) = cos_coeffs[0] + sum_k cos_coeffs[k] * cos(k*theta)``,
    which must stay strictly positive; a disk's is ``[radius]``.
    """

    kind: str
    center: np.ndarray
    radius: float = 0.0
    cos_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("disk", "star"):
            raise GeometryError(f"unknown domain kind {self.kind!r}")
        object.__setattr__(self, "center", _as_point(self.center))
        if not np.isfinite(self.center).all():
            raise GeometryError("domain center must be finite")
        if self.kind == "disk":
            if not (np.isfinite(self.radius) and self.radius > 0):
                raise GeometryError("disk radius must be positive and finite")
            object.__setattr__(self, "cos_coeffs",
                               np.array([float(self.radius)]))
        else:
            c = np.asarray(self.cos_coeffs, dtype=float)
            if c.ndim != 1 or c.size == 0 or not np.isfinite(c).all():
                raise GeometryError(
                    "star domain needs a finite 1d cos_coeffs array")
            object.__setattr__(self, "cos_coeffs", c)
            th = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
            if self.rho(th).min() <= 0:
                raise GeometryError("radial profile must be strictly positive")

    # -- radial profile and derivatives ------------------------------------

    def rho(self, theta):
        theta = np.asarray(theta, dtype=float)
        k = np.arange(self.cos_coeffs.size)
        return np.cos(theta[..., None] * k) @ self.cos_coeffs

    def drho(self, theta):
        theta = np.asarray(theta, dtype=float)
        k = np.arange(self.cos_coeffs.size)
        return -np.sin(theta[..., None] * k) @ (k * self.cos_coeffs)

    def ddrho(self, theta):
        theta = np.asarray(theta, dtype=float)
        k = np.arange(self.cos_coeffs.size)
        return -np.cos(theta[..., None] * k) @ (k * k * self.cos_coeffs)

    # -- queries -------------------------------------------------------------

    def level(self, points) -> np.ndarray:
        """Star level function: <1 inside, 1 on the boundary, >1 outside."""
        p = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        r = np.hypot(p[:, 0], p[:, 1])
        theta = np.arctan2(p[:, 1], p[:, 0])
        return r / self.rho(theta)

    def contains(self, point) -> bool:
        return bool(self.level(np.asarray(point, dtype=float)[None, :])[0] < 1.0)

    def diameter(self) -> float:
        if self.kind == "disk":
            return 2.0 * self.radius
        return cached(self, "diameter", self._sampled_diameter)

    def _sampled_diameter(self) -> float:
        th = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
        pts = self.center + self.rho(th)[:, None] * np.stack(
            [np.cos(th), np.sin(th)], axis=1
        )
        # pairwise distances in row blocks keep the temporary at 128 x 2048
        d2max = 0.0
        for i in range(0, len(pts), 128):
            d2 = cdist(pts[i:i + 128], pts, "sqeuclidean")
            d2max = max(d2max, float(d2.max()))
        return float(np.sqrt(d2max))

    def max_rho(self) -> float:
        """Largest radial profile value, sampled at 2048 angles."""
        return cached(self, "max_rho", lambda: float(self.rho(
            np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)).max()))

    def area(self) -> float:
        # exact for a cosine series: pi*(c0^2 + sum_{k>=1} ck^2 / 2)
        c = self.cos_coeffs
        return float(np.pi * (c[0] ** 2 + 0.5 * (c[1:] ** 2).sum()))

    # -- boundary parameterization x(t) = center + rho(t) e(t) ---------------

    def boundary_point(self, t):
        t = np.asarray(t, dtype=float)
        e = np.stack([np.cos(t), np.sin(t)], axis=-1)
        return self.center + self.rho(t)[..., None] * e

    def boundary_velocity(self, t):
        t = np.asarray(t, dtype=float)
        e = np.stack([np.cos(t), np.sin(t)], axis=-1)
        eperp = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        return self.drho(t)[..., None] * e + self.rho(t)[..., None] * eperp

    def boundary_speed(self, t):
        t = np.asarray(t, dtype=float)
        return np.hypot(self.rho(t), self.drho(t))

    def boundary_normal(self, t):
        """Outward unit normal (tangent rotated by -90 degrees)."""
        v = self.boundary_velocity(t)
        n = np.stack([v[..., 1], -v[..., 0]], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    def boundary_curvature(self, t):
        t = np.asarray(t, dtype=float)
        r, dr, ddr = self.rho(t), self.drho(t), self.ddrho(t)
        return (r * r + 2 * dr * dr - r * ddr) / (r * r + dr * dr) ** 1.5


# ---------------------------------------------------------------------------
# Boundary curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """Closed smooth boundary sampled at n equispaced parameter values."""

    spec: DomainSpec
    n: int
    t: np.ndarray
    points: np.ndarray
    speeds: np.ndarray
    normals: np.ndarray
    curvatures: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid arc-length weights |x'(t_j)| * 2pi/n."""
        return self.speeds * (2 * np.pi / self.n)

    def length(self) -> float:
        return float(self.weights.sum())

    def spacing(self) -> float:
        return self.length() / self.n

    def max_speed(self) -> float:
        t = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
        return float(self.spec.boundary_speed(t).max())

    def distance_to(self, points) -> np.ndarray:
        """Distance from points to the boundary (sampled minimum, refined)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.spec.kind == "disk":
            r = np.linalg.norm(pts - self.spec.center, axis=1)
            return np.abs(self.spec.radius - r)
        m = max(8 * self.n, 512)
        tt = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
        bp = self.spec.boundary_point(tt)
        d2 = ((pts[:, None, :] - bp[None, :, :]) ** 2).sum(-1)
        j = d2.argmin(axis=1)
        # parabolic refinement in the parameter around the sampled minimum
        jm, jp = (j - 1) % m, (j + 1) % m
        f0, fm, fp = d2[np.arange(len(pts)), j], d2[np.arange(len(pts)), jm], d2[np.arange(len(pts)), jp]
        denom = fm - 2 * f0 + fp
        shift = np.where(np.abs(denom) > 1e-300, 0.5 * (fm - fp) / np.where(denom == 0, 1, denom), 0.0)
        tref = tt[j] + shift * (2 * np.pi / m)
        bref = self.spec.boundary_point(tref)
        return np.minimum(np.sqrt(f0), np.linalg.norm(pts - bref, axis=1))


def build_curve(spec: DomainSpec, n_boundary: int) -> BoundaryCurve:
    """Sample the boundary at n equispaced parameters and validate it.

    Checks periodic closure of the supplied map, positive speeds, unit
    outward normals (ray test against the domain interior).
    """
    if n_boundary < 8 or n_boundary % 2 != 0:
        raise GeometryError("n_boundary must be even and at least 8")
    t = 2 * np.pi * np.arange(n_boundary) / n_boundary
    pts = spec.boundary_point(t)
    speeds = spec.boundary_speed(t)
    normals = spec.boundary_normal(t)
    curvatures = spec.boundary_curvature(t)

    if not np.allclose(spec.boundary_point(0.0), spec.boundary_point(2 * np.pi),
                       rtol=0, atol=1e-12):
        raise GeometryError("boundary map is not 2pi-periodic")
    h = 1e-6
    v0 = (spec.boundary_point(h) - spec.boundary_point(-h)) / (2 * h)
    v1 = (spec.boundary_point(2 * np.pi + h) - spec.boundary_point(2 * np.pi - h)) / (2 * h)
    if not np.allclose(v0, v1, rtol=0, atol=1e-6):
        raise GeometryError("boundary derivative is not periodic")
    if speeds.min() <= 0:
        raise GeometryError("boundary speed must be positive everywhere")
    if not np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12):
        raise GeometryError("normals are not unit vectors")
    eps = 1e-7 * max(spec.diameter(), 1.0)
    outside = spec.level(pts + eps * normals) > 1.0
    inside = spec.level(pts - eps * normals) < 1.0
    if not (outside.all() and inside.all()):
        raise GeometryError("normal ray test failed: normals do not point outward")

    return BoundaryCurve(spec=spec, n=n_boundary, t=t, points=pts,
                         speeds=speeds, normals=normals, curvatures=curvatures)


# ---------------------------------------------------------------------------
# Interior grid with tensor interpolation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def gauss_01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1], shared and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    d = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(d, 1.0)
    w = 1.0 / np.prod(d, axis=1)
    return w / np.abs(w).max()


#: Angular distance from a node below which a point counts as on the node.
ON_NODE_TOL = 1e-14


def trig_cardinal_rows(theta, n: int) -> np.ndarray:
    """Cardinal matrix A[m, j] = cardinal_j(theta_m) for n equispaced nodes.

    The cardinal of node t_j is sin(n d/2) cot(d/2) / n with d = theta - t_j
    (n even).  This uses its barycentric cotangent form: A is the
    row-normalized array of (-1)^j cot((theta_m - t_j)/2).  The
    cotangent difference is expanded through the addition formula so the
    only transcendental work is one tangent per evaluation point.  A point
    within ON_NODE_TOL of a node gets that node's unit row; only such
    points can overflow or divide by zero below.
    """
    th = np.asarray(theta, dtype=float)
    k = np.rint(th * (n / (2 * np.pi)))
    on_node = np.abs(th - (2 * np.pi / n) * k) <= ON_NODE_TOL
    half = 0.5 * th
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cu = 1.0 / np.tan(half)                      # cot(theta_m / 2)
        cv = 1.0 / np.tan(np.pi * np.arange(n) / n)  # cot(t_j / 2); j=0 -> inf
        # cot(u - v) = (cu*cv + 1) / (cv - cu); the j = 0 column is cot(u)
        num = cu[:, None] * cv[None, :] + 1.0
        den = cv[None, :] - cu[:, None]
        num[:, 0] = cu
        den[:, 0] = 1.0
        c = num / den
        c *= 1.0 - 2.0 * (np.arange(n) % 2)[None, :]
        A = c / c.sum(axis=1, keepdims=True)
    A[on_node] = 0.0
    A[on_node, k[on_node].astype(int) % n] = 1.0
    return A


@dataclass(frozen=True, eq=False)
class DomainGrid:
    """Tensor collocation grid z(t_j, s_k) = c + s_k rho(t_j) e(t_j).

    Radial nodes are Gauss-Legendre on (0, 1); the map's singular center is
    never a node.  Carries quadrature weights for integrals over the domain
    and a trigonometric-by-polynomial interpolation structure.
    """

    spec: DomainSpec
    n_t: int
    n_s: int
    theta: np.ndarray
    s_nodes: np.ndarray
    points: np.ndarray           # (n_t*n_s, 2), index = j_t*n_s + k_s
    weights: np.ndarray
    _bary_w: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.n_t * self.n_s

    def cardinal_matrices(self, points):
        """Angular and radial cardinal matrices (A, S) at arbitrary points.

        The interpolated value at point m of nodal data U (shape n_t x n_s)
        is ``((A @ U) * S).sum(1)[m]``.  A rotation of the points by whole
        grid angular steps that maps the domain onto itself rolls the
        columns of A, the mirror theta -> -theta about the center sends
        column j to -j (the cardinal is even), and neither changes S.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.spec.center
        th = np.arctan2(pts[:, 1], pts[:, 0])
        s = np.hypot(pts[:, 0], pts[:, 1]) / self.spec.rho(th)
        A = trig_cardinal_rows(th, self.n_t)
        S = self._radial_cardinal(np.clip(s, 0.0, 1.0))
        return A, S

    def _radial_cardinal(self, s):
        diff = s[:, None] - self.s_nodes[None, :]
        exact = np.abs(diff) < 1e-15
        diff = np.where(exact, 1.0, diff)
        C = self._bary_w[None, :] / diff
        S = C / C.sum(axis=1, keepdims=True)
        hit = exact.any(axis=1)
        if hit.any():
            S[hit] = 0.0
            S[hit, np.argmax(exact[hit], axis=1)] = 1.0
        return S

    def interpolate(self, values, points) -> np.ndarray:
        """Evaluate the grid interpolant of nodal values at points."""
        A, S = self.cardinal_matrices(points)
        U = np.asarray(values, dtype=float).reshape(self.n_t, self.n_s)
        return ((A @ U) * S).sum(1)

    def interpolation_row(self, weighted_values, A, S) -> np.ndarray:
        """Contract quadrature data against cardinal matrices.

        Returns the length-n_nodes row r with r . u = sum_m weighted_values_m
        * interp(u)(point_m), for the points behind (A, S).  Weighted values
        of shape (k, m) give k rows, contracted in one GEMM
        ``A.T @ (w * S)`` whose temporary has k * n_s columns.
        """
        kv = np.atleast_2d(weighted_values)
        k, n_s = len(kv), S.shape[1]
        B = (kv.T[:, :, None] * S[:, None, :]).reshape(len(S), k * n_s)
        rows = (A.T @ B).reshape(self.n_t, k, n_s).transpose(1, 0, 2)
        rows = rows.reshape(k, self.n_nodes)
        return rows[0] if np.ndim(weighted_values) == 1 else rows


def build_domain_grid(spec: DomainSpec, n_t: int, n_s: int) -> DomainGrid:
    """Build the interior collocation/quadrature grid."""
    if n_t < 8 or n_t % 2 != 0:
        raise GeometryError("n_t must be even and at least 8")
    if n_s < 4:
        raise GeometryError("n_s must be at least 4")
    theta = 2 * np.pi * np.arange(n_t) / n_t
    s_nodes, s_w = gauss_01(n_s)
    e = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    rho = spec.rho(theta)
    pts = (spec.center[None, None, :]
           + s_nodes[None, :, None] * rho[:, None, None] * e[:, None, :])
    # |J| = s * rho(t)^2 for the star map
    w = (2 * np.pi / n_t) * s_w[None, :] * s_nodes[None, :] * rho[:, None] ** 2
    pts = pts.reshape(-1, 2)
    w = w.ravel()
    if spec.level(pts).max() >= 1.0:
        raise GeometryError("grid produced a node outside the domain")
    return DomainGrid(spec=spec, n_t=n_t, n_s=n_s, theta=theta,
                      s_nodes=s_nodes, points=pts, weights=w,
                      _bary_w=_barycentric_weights(s_nodes))


# ---------------------------------------------------------------------------
# Target-centered polar quadrature
# ---------------------------------------------------------------------------

#: Geometric grading of the radial panels toward the target point. The
#: grading absorbs log(r) radial factors to ~1e-11 with 5 x 10 Gauss points.
RADIAL_PANELS = 5
RADIAL_RATIO = 0.15
BOUNDARY_LEVEL_TOL = 1e-9
#: An interior target at level l gets THETA_COUNT_COEFF / sqrt(1 - l)
#: angular nodes, at most THETA_COUNT_CAP.
THETA_COUNT_COEFF = 14.0
THETA_COUNT_CAP = 768


@lru_cache(maxsize=32)
def _graded_unit_rule(p: int):
    """Nodes/weights on [0, 1]: RADIAL_PANELS Gauss panels of p points,
    graded toward 0 by RADIAL_RATIO; shared and read-only."""
    xg, wg = gauss_01(p)
    edges = np.empty(RADIAL_PANELS + 1)
    edges[RADIAL_PANELS] = 1.0
    for k in range(RADIAL_PANELS - 1, 0, -1):
        edges[k] = edges[k + 1] * RADIAL_RATIO
    edges[0] = 0.0
    widths = np.diff(edges)
    r = (edges[:-1, None] + widths[:, None] * xg[None, :]).ravel()
    w = (widths[:, None] * wg[None, :]).ravel()
    r.flags.writeable = w.flags.writeable = False
    return r, w


def _scan_ladder(rmax: float) -> np.ndarray:
    """Radial sample ladder: log-spaced near 0 to catch short segments."""
    return np.concatenate([
        np.geomspace(1e-9 * rmax, rmax / 112, 48, endpoint=False),
        np.linspace(rmax / 112, rmax, 112),
    ])


def inside_segments(spec: DomainSpec, y, dirs: np.ndarray, rmax: float):
    """The r-intervals where y + r*dir lies inside, for every direction.

    Returns arrays (ray, start, end): segment k covers [start[k], end[k]]
    along direction ray[k], with 0 <= start < end, sorted by ray and then
    by radius.  A scan of the level function over ``_scan_ladder``
    brackets every boundary crossing; segments shorter than the scan
    resolution near rmax can be missed, but the ladder is logarithmic near
    0 where short entering segments matter.  Inside a bracket the crossing
    is a simple root of g(r) = |p| - rho(theta(p)), p = y - center + r*dir,
    found by safeguarded Newton iteration from the scan's secant guess:
    every iterate shrinks the bracket, and a step that leaves it is
    replaced by the bracket's midpoint.
    """
    y = _as_point(y)
    rr = _scan_ladder(rmax)
    m = len(dirs)
    lev = spec.level((y[None, None, :] + rr[None, :, None] * dirs[:, None, :])
                     .reshape(-1, 2)).reshape(m, len(rr))
    inside = lev < 1.0
    if inside[:, -1].any():
        raise GeometryError("radial segment scan failed: ray never leaves domain")

    flips = inside[:, :-1] != inside[:, 1:]
    di, ki = np.nonzero(flips)
    lo, hi = rr[ki].copy(), rr[ki + 1].copy()
    entering = ~inside[di, ki]          # outside -> inside across the flip
    l0, l1 = lev[di, ki], lev[di, ki + 1]
    cross = lo + (hi - lo) * (1.0 - l0) / (l1 - l0)
    p0, d = y - spec.center, dirs[di]
    tol = 1e-15 * rmax
    todo = np.arange(len(cross))
    for _ in range(60):                 # a backstop: a few steps suffice
        if not todo.size:
            break
        r, dk = cross[todo], d[todo]
        p = p0 + r[:, None] * dk
        R = np.hypot(p[:, 0], p[:, 1])
        th = np.arctan2(p[:, 1], p[:, 0])
        g = R - spec.rho(th)            # < 0 where the level is < 1
        with np.errstate(divide="ignore", invalid="ignore"):
            dg = ((p * dk).sum(1) / R - spec.drho(th)
                  * (p[:, 0] * dk[:, 1] - p[:, 1] * dk[:, 0]) / R**2)
            step = g / dg
        past = (g < 0.0) == entering[todo]
        lo[todo] = a = np.where(past, lo[todo], r)
        hi[todo] = b = np.where(past, r, hi[todo])
        new = r - step
        new = np.where((a < new) & (new < b), new, 0.5 * (a + b))
        done = ((np.abs(g) <= 4 * np.finfo(float).eps * R)
                | (np.abs(step) <= tol) | (b - a <= tol))
        cross[todo] = np.where(done, r, new)
        todo = todo[~done]

    # crossings alternate along a ray, and every ray ends outside, so each
    # exit closes the segment opened by the previous crossing on its ray,
    # or by the target itself when the ray starts inside
    exits = np.nonzero(~entering)[0]
    opened = (exits > 0) & (di[exits - 1] == di[exits])
    return di[exits], np.where(opened, cross[exits - 1], 0.0), cross[exits]


def _disk_extents(spec: DomainSpec, y: np.ndarray,
                  dirs: np.ndarray) -> np.ndarray:
    """First boundary crossing along each unit direction from y (disk)."""
    d = y - spec.center
    de = dirs @ d
    disc = spec.radius**2 - d @ d + de**2
    if (disc < -1e-14).any():
        raise GeometryError("target outside the disk")
    return np.maximum(-de + np.sqrt(np.maximum(disc, 0.0)), 0.0)


def _smoothstep(v):
    """Quintic smoothstep; derivative vanishes quadratically at 0 and 1."""
    return v**3 * (10.0 - 15.0 * v + 6.0 * v * v), 30.0 * v * v * (1.0 - v) ** 2


@dataclass(frozen=True, eq=False)
class PolarRule:
    """Quadrature for integrals over the domain, centered at a target point.

    Held as a segment table: per angular node a direction and an angular
    weight, and per inside segment its ray index and its start and end
    radius, sorted by ray and then by radius.  ``nodes()`` expands a
    segment that starts at the target (start 0) with the radial panels
    graded toward it, and every other segment with Gauss-Legendre.  The
    weights include the polar Jacobian r, which cancels 1/r kernel
    singularities at the target; log(r) factors are handled by the graded
    radial panels.
    """

    target: np.ndarray
    theta: np.ndarray
    wtheta: np.ndarray
    dirs: np.ndarray
    seg_ray: np.ndarray          # (m,) ray index of each segment
    seg_ends: np.ndarray         # (m, 2) its start and end radius
    n_r: int

    def nodes(self):
        """Quadrature points (N, 2) and weights (N,): segments that start
        at the target first, then the others, each in table order.

        A segment [a, a + h] along ray k with unit rule (x, wx) has nodes
        r = a + h x and weights h wx r wtheta_k, formed as
        h^2 wtheta_k (wx x) + h a wtheta_k wx.
        """
        at_target = self.seg_ends[:, 0] == 0.0
        pts, wts = [], []
        for sel, (x, wx) in ((at_target, _graded_unit_rule(self.n_r)),
                             (~at_target, gauss_01(self.n_r))):
            k = self.seg_ray[sel]
            a, b = self.seg_ends[sel, :1], self.seg_ends[sel, 1:]
            h, wt = b - a, self.wtheta[k][:, None]
            r = a + h * x
            pts.append((self.target + r[:, :, None]
                        * self.dirs[k][:, None, :]).reshape(-1, 2))
            wts.append(((h**2 * wt) * (wx * x) + (h * a * wt) * wx).ravel())
        return np.concatenate(pts), np.concatenate(wts)

    @property
    def points(self) -> np.ndarray:
        return self.nodes()[0]

    @property
    def weights(self) -> np.ndarray:
        return self.nodes()[1]

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        pts, wts = self.nodes()
        return float(wts @ f(pts))


def _window_angles(alpha: float, n_theta: int):
    """Width-pi angular window about direction alpha, with a smoothstep
    substitution whose derivative vanishes quadratically at the edges."""
    xg, wg = gauss_01(n_theta)
    sstep, dstep = _smoothstep(xg)
    theta = alpha - np.pi / 2 + np.pi * sstep
    return theta, np.pi * dstep * wg


def polar_rule_for_target(spec: DomainSpec, y, base: int = 48,
                          n_r: int = 10) -> PolarRule:
    """Polar quadrature rule centered at y (interior or on the boundary).

    ``n_r`` is the Gauss count per radial panel (RADIAL_PANELS panels
    graded toward the target).  Interior targets get equispaced angles
    anchored at y's polar angle about the center.  The analyticity width
    of their radial extent shrinks like sqrt(1 - level) toward the
    boundary, so their angular count is THETA_COUNT_COEFF / sqrt(1 - level),
    at least ``base``, at most THETA_COUNT_CAP, rounded up to even.
    Boundary targets get width-pi angular windows of ``base`` nodes about
    the interior normal, with a smoothstep substitution clustered at the
    tangential directions; their extent function is smooth again.  Either
    way, a rotation about the center that maps the domain onto itself maps
    y's rule onto its image's rule.  On star profiles every ray is
    integrated over all of its inside segments, so regions not visible
    from the target along a first crossing are still covered.
    """
    y = _as_point(y)
    lev = float(spec.level(y[None, :])[0])
    if lev > 1.0 + BOUNDARY_LEVEL_TOL:
        raise GeometryError("polar rule target lies outside the domain")
    on_boundary = lev >= 1.0 - BOUNDARY_LEVEL_TOL

    d = y - spec.center
    phi = float(np.arctan2(d[1], d[0]))
    if on_boundary:
        nin = -spec.boundary_normal(phi)
        alpha = float(np.arctan2(nin[1], nin[0]))
        theta, wtheta = _window_angles(alpha, base)
        if spec.kind == "star":
            th2, wt2 = _window_angles(alpha + np.pi, base)
            theta = np.concatenate([theta, th2])
            wtheta = np.concatenate([wtheta, wt2])
    else:
        n = max(base, int(np.ceil(THETA_COUNT_COEFF / np.sqrt(1.0 - lev))))
        n = min(THETA_COUNT_CAP, n)
        n += n % 2
        theta = phi + 2 * np.pi * np.arange(n) / n
        wtheta = np.full(n, 2 * np.pi / n)

    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)

    if spec.kind == "disk":
        L = _disk_extents(spec, y, dirs)
        ray = np.flatnonzero(L > 0.0)
        a, b = np.zeros(len(ray)), L[ray]
    else:
        rmax = 2.1 * spec.max_rho() + float(np.linalg.norm(y - spec.center))
        ray, a, b = inside_segments(spec, y, dirs, rmax)
        a = np.where(a <= 1e-11 * rmax, 0.0, a)   # starts at the target
        # segments ending this close to the target are rounding noise of
        # the level function on a boundary target's window-edge rays
        keep = b > 1e-7 * rmax
        ray, a, b = ray[keep], a[keep], b[keep]
    if not len(ray):
        raise GeometryError("polar rule is empty: no ray enters the domain")
    return PolarRule(target=y, theta=theta, wtheta=wtheta, dirs=dirs,
                     seg_ray=ray, seg_ends=np.stack([a, b], axis=1), n_r=n_r)
