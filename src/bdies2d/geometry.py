"""Domains, boundary curves, interior grids and polar quadrature rules.

The domains handled here are star-shaped with respect to a center point:
disks, and regions bounded by a smooth positive radial profile given as a
cosine series.  Everything downstream (layer operators, volume potentials)
consumes the objects built in this module and treats them as immutable.

Domains, curves and grids each keep a private ``_cache`` of values that
depend only on their geometry; ``cached`` is the one way to fill it.

``as_points`` is the one gate for caller points: every function taking
them, here and downstream, converts them once with it, so bad points
raise ``GeometryError`` at the call and an empty set gives an empty result.

Polar rules are built per target set (``polar_rules``): one level check,
then per block of consecutive targets one angle table and, on a star, one
segment scan and one Newton loop over all of the block's rays.
``rule_nodes`` expands the segment tables of several rules in one pass.
``BLOCK_ENTRIES`` caps each block's largest temporary; every operation is
elementwise per ray or per segment, so a rule does not depend on the
block it was built in, bitwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
import numpy.polynomial.legendre  # numpy 2 loads it lazily, at first use


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


def as_points(points) -> np.ndarray:
    """Finite points as an (m, 2) array: one point may be a pair, and an
    empty input gives m = 0.  A float (m, 2) array passes through as is."""
    p = np.asarray(points, dtype=float)
    p = p.reshape(0, 2) if p.size == 0 else np.atleast_2d(p)
    if p.ndim != 2 or p.shape[1] != 2:
        raise GeometryError(
            f"points must have shape (m, 2), got shape {np.shape(points)}")
    if not np.isfinite(p).all():
        raise GeometryError("points must be finite, got NaN or infinity")
    return p


def _as_point(p) -> np.ndarray:
    if np.shape(p) != (2,):
        raise GeometryError(f"expected a 2d point, got shape {np.shape(p)}")
    return as_points(p)[0]


def _count(n, name: str, low: int, even: bool = False) -> int:
    """A node count as an int of at least ``low``, even if ``even``."""
    try:
        n = operator.index(n)
    except TypeError:
        raise GeometryError(f"{name} must be an integer, got {n!r}") from None
    if n < low or (even and n % 2):
        raise GeometryError(f"{name} must be {'even and ' * even}at least {low}")
    return n


def _polar(px, py):
    """|p| and cos, sin of the polar angle of offsets (px, py); 0 at p = 0."""
    r = np.sqrt(px * px + py * py)
    safe = np.where(r > 0.0, r, 1.0)
    return r, px / safe, py / safe


def _clenshaw(a, x):
    """b_1, b_2 of Clenshaw's b_k = a_k + 2x b_{k+1} - b_{k+2} (MTAC 9, 1955):
    sum_k a_k T_k(x) = a_0 + (x b_1 - b_2), with a_0 added last to round a
    dominant mean once, and sum_{k>=1} a_k U_{k-1}(x) = b_1."""
    b1, b2 = (a[-1], 0.0) if len(a) > 1 else (0.0, 0.0)
    for ak in a[-2:0:-1]:
        b1, b2 = ak + 2.0 * x * b1 - b2, b1
    return b1, b2


# ---------------------------------------------------------------------------
# Domain specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DomainSpec:
    """A disk or a star-shaped region with radial profile rho(theta).

    The profile is the cosine series
    ``rho(theta) = cos_coeffs[0] + sum_k cos_coeffs[k] * cos(k*theta)``,
    which must stay strictly positive; a disk's is ``[radius]``.  It is a
    Clenshaw sum in cos(theta), which at a point is p_x / |p| (``profile``).
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

    def profile(self, cos, sin=None):
        """rho at the angle with cosine ``cos``, or (rho, drho) given its
        sine: cos k theta = T_k(cos theta), sin k theta = sin theta
        U_{k-1}(cos theta).  A disk's sums to its radius exactly."""
        c = self.cos_coeffs
        b1, b2 = _clenshaw(c, cos)
        rho = c[0] + (cos * b1 - b2)
        if sin is None:
            return rho
        return rho, sin * _clenshaw(-np.arange(c.size) * c, cos)[0]

    def rho(self, theta):
        return self.profile(np.cos(theta))

    def drho(self, theta):
        return self.profile(np.cos(theta), np.sin(theta))[1]

    def ddrho(self, theta):
        x, k = np.cos(theta), np.arange(self.cos_coeffs.size)
        b1, b2 = _clenshaw(k * k * self.cos_coeffs, x)
        return b2 - x * b1

    # -- queries -------------------------------------------------------------

    def level(self, points) -> np.ndarray:
        """Star level function: <1 inside, 1 on the boundary, >1 outside."""
        p = as_points(points) - self.center
        r, cos, _ = _polar(p[:, 0], p[:, 1])
        return r / self.profile(cos)

    def contains(self, point) -> bool:
        return bool(self.level(_as_point(point))[0] < 1.0)

    def diameter(self) -> float:
        if self.kind == "disk":
            return 2.0 * self.radius
        return cached(self, "diameter", self._sampled_diameter)

    def _sampled_diameter(self) -> float:
        """Largest distance between 2048 boundary samples, found exactly
        without visiting most pairs.

        The longest antipodal pair, tightened by two farthest-point steps,
        is a lower bound; a pair whose triangle-inequality upper bound (via
        the center, then via a block's mean) falls below it cannot be the
        longest, so it is skipped.  The bound keeps a 1e-12 relative
        margin against rounding, so the result equals the brute-force
        maximum bitwise.
        """
        pts = self.boundary_point(
            np.linspace(0.0, 2 * np.pi, 2048, endpoint=False))
        x, y = pts[:, 0], pts[:, 1]
        half = len(x) // 2
        d2 = _squared_distances(x[:half], y[:half], x[half:], y[half:])
        a = int(d2.argmax())
        d2max = d2[a]
        for _ in range(2):
            d2 = _squared_distances(x[a], y[a], x, y)
            a = int(d2.argmax())
            d2max = max(d2max, d2[a])
        bound = np.sqrt(d2max) * (1.0 - 1e-12)
        r = np.sqrt(_squared_distances(x, y, *self.center))
        keep = r + r.max() >= bound
        x, y = x[keep], y[keep]
        # row blocks of 64 against the later points within reach of them
        for i in range(0, len(x), 64):
            bx, by = x[i:i + 64, None], y[i:i + 64, None]
            mx, my = bx.mean(), by.mean()
            reach = np.sqrt(_squared_distances(bx, by, mx, my).max())
            near = np.sqrt(_squared_distances(x[i:], y[i:], mx, my)) >= (
                bound - reach)
            if near.any():
                d2max = max(d2max, _squared_distances(
                    bx, by, x[i:][near], y[i:][near]).max())
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
        cos, sin = np.cos(t), np.sin(t)
        return (self.center
                + self.profile(cos)[..., None] * np.stack([cos, sin], -1))

    def boundary_velocity(self, t):
        cos, sin = np.cos(t), np.sin(t)
        r, dr = self.profile(cos, sin)
        return np.stack([dr * cos - r * sin, dr * sin + r * cos], axis=-1)

    def boundary_speed(self, t):
        return np.hypot(*self.profile(np.cos(t), np.sin(t)))

    def boundary_normal(self, t):
        """Outward unit normal (tangent rotated by -90 degrees)."""
        v = self.boundary_velocity(t)
        n = np.stack([v[..., 1], -v[..., 0]], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    def boundary_curvature(self, t):
        r, dr = self.profile(np.cos(t), np.sin(t))
        ddr = self.ddrho(t)
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
        pts = as_points(points)
        if self.spec.kind == "disk":
            r = np.linalg.norm(pts - self.spec.center, axis=1)
            return np.abs(self.spec.radius - r)
        m = max(8 * self.n, 512)
        tt = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
        bp = self.spec.boundary_point(tt)
        j = np.empty(len(pts), dtype=int)
        f = np.empty((len(pts), 3))     # squared distances at j - 1, j, j + 1
        # row blocks keep the temporary at 64 x m x 2
        for i in range(0, len(pts), 64):
            d2 = ((pts[i:i + 64, None, :] - bp[None, :, :]) ** 2).sum(-1)
            j[i:i + 64] = d2.argmin(axis=1)
            f[i:i + 64] = np.take_along_axis(
                d2, (j[i:i + 64, None] + np.arange(-1, 2)) % m, axis=1)
        fm, f0, fp = f.T
        # parabolic refinement in the parameter around the sampled minimum
        denom = fm - 2 * f0 + fp
        shift = np.where(np.abs(denom) > 1e-300, 0.5 * (fm - fp) / np.where(denom == 0, 1, denom), 0.0)
        tref = tt[j] + shift * (2 * np.pi / m)
        bref = self.spec.boundary_point(tref)
        return np.minimum(np.sqrt(f0), np.linalg.norm(pts - bref, axis=1))


def build_curve(spec: DomainSpec, n_boundary: int) -> BoundaryCurve:
    """Sample the boundary at n equispaced parameters and validate it.

    ``n_boundary`` must be an even integer of at least 8.  Checks positive
    speeds and unit outward normals (ray test against the level function);
    closure and periodic derivatives need none, a cosine series has both.
    """
    n_boundary = _count(n_boundary, "n_boundary", 8, even=True)
    t = 2 * np.pi * np.arange(n_boundary) / n_boundary
    pts = spec.boundary_point(t)
    speeds = spec.boundary_speed(t)
    normals = spec.boundary_normal(t)
    curvatures = spec.boundary_curvature(t)

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


def _squared_distances(ax, ay, bx, by):
    """(ax - bx)^2 + (ay - by)^2, broadcast."""
    dx, dy = ax - bx, ay - by
    return dx * dx + dy * dy


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
        v = as_points(points) - self.spec.center
        th = np.arctan2(v[:, 1], v[:, 0])
        s = self.spec.level(points)
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
    n_t = _count(n_t, "n_t", 8, even=True)
    n_s = _count(n_s, "n_s", 4)
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

BOUNDARY_LEVEL_TOL = 1e-9
#: An interior target at level l gets THETA_COUNT_COEFF / sqrt(1 - l)
#: angular nodes, at most THETA_COUNT_CAP.
THETA_COUNT_COEFF = 14.0
THETA_COUNT_CAP = 768
#: Cap, in float64 entries, on the largest temporary of a block of polar
#: rules: the segment scan's samples (rays times ladder radii) of a block
#: of targets in ``polar_rules``, and the angular cardinals (nodes times
#: n_t) of a block of rules in ``potentials``.  At 2^15 (256 KiB) the
#: benchmark star's volume passes at 64/16x8 run as fast as at 2^16 with a
#: sixth of the extra memory.
BLOCK_ENTRIES = 2**15


@lru_cache(maxsize=32)
def _graded_unit_rule(p: int):
    """Nodes/weights on [0, 1]: 2p Gauss-Legendre points in x under the
    substitution r = x^4, which turns r log r dr into a smooth integrand
    (Sidi, 1993; Kress, 1990); shared and read-only."""
    x, w = gauss_01(2 * p)
    r, w = x**4, 4 * x**3 * w
    r.flags.writeable = w.flags.writeable = False
    return r, w


@lru_cache(maxsize=1)
def _unit_ladder() -> np.ndarray:
    """Radial sample ladder on (0, 1], scaled by rmax: log-spaced near 0 to
    catch short segments; shared and read-only."""
    rr = np.concatenate([np.geomspace(1e-9, 1 / 112, 48, endpoint=False),
                         np.linspace(1 / 112, 1.0, 112)])
    rr.flags.writeable = False
    return rr


def block_bounds(widths, lengths):
    """(start, stop) of consecutive blocks of items whose temporary, the
    sum of their widths times the largest of their lengths, stays within
    ``BLOCK_ENTRIES`` float64 entries; an item over it is a block alone."""
    bounds, lo, width, length = [], 0, 0, 0
    for i, (w, n) in enumerate(zip(widths, lengths)):
        width, length = width + w, max(length, n)
        if i > lo and width * length > BLOCK_ENTRIES:
            bounds.append((lo, i))
            lo, width, length = i, w, n
    if len(widths):
        bounds.append((lo, len(widths)))
    return bounds


def _scan_lengths(spec: DomainSpec, p0: np.ndarray,
                  rmax: np.ndarray) -> np.ndarray:
    """Ladder samples each origin's scan needs: every radius rmax * ladder
    up to the first one past its reach |p0| + sum |cos_coeffs| (no
    boundary point is farther from the origin), that one included; p0 are
    offsets from the center."""
    ladder = _unit_ladder()
    reach = np.hypot(p0[:, 0], p0[:, 1]) + np.abs(spec.cos_coeffs).sum()
    below = (rmax[:, None] * ladder < reach[:, None]).sum(1)
    return np.minimum(below + 1, len(ladder))


def _ray_segments(spec: DomainSpec, p0: np.ndarray, dirs: np.ndarray,
                  rmax: np.ndarray, n_samples: np.ndarray):
    """Inside segments of rays c + p0 + r dirs, each with its own offset
    p0 from the center c, radius scale rmax and ladder sample count
    (``_scan_lengths``); see ``inside_segments``.

    All rays are scanned together, up to the largest sample count: a
    ray's samples past its own count lie past its reach, outside, so they
    add no crossing.  Every crossing then takes the same safeguarded
    Newton steps, with its own ray's origin and tolerance, so each ray's
    segments are those of its own scan bitwise.
    """
    k = int(n_samples.max(initial=1))
    rr = rmax[:, None] * _unit_ladder()[:k]
    R, cos, _ = _polar(p0[:, :1] + dirs[:, :1] * rr,
                       p0[:, 1:] + dirs[:, 1:] * rr)
    lev = R / spec.profile(cos)
    inside = (lev < 1.0) & (np.arange(k) < n_samples[:, None])
    if inside[np.arange(len(rr)), n_samples - 1].any():
        raise GeometryError("radial segment scan failed: ray never leaves domain")

    flips = inside[:, :-1] != inside[:, 1:]
    di, ki = np.nonzero(flips)
    lo, hi = rr[di, ki], rr[di, ki + 1]
    entering = ~inside[di, ki]          # outside -> inside across the flip
    l0, l1 = lev[di, ki], lev[di, ki + 1]
    cross = lo + (hi - lo) * (1.0 - l0) / (l1 - l0)
    d, (px, py), tol = dirs[di], p0[di].T, 1e-15 * rmax[di]
    todo = np.arange(len(cross))
    for _ in range(60):                 # a backstop: a few steps suffice
        if not todo.size:
            break
        r, dk = cross[todo], d[todo]
        R, cos, sin = _polar(px[todo] + r * dk[:, 0], py[todo] + r * dk[:, 1])
        rho, drho = spec.profile(cos, sin)
        g = R - rho                     # < 0 where the level is < 1
        with np.errstate(divide="ignore", invalid="ignore"):
            # g' = e . d - rho'(theta) theta', theta' = (e x d) / R
            dg = (cos * dk[:, 0] + sin * dk[:, 1]
                  - drho * (cos * dk[:, 1] - sin * dk[:, 0]) / R)
            step = g / dg
        past = (g < 0.0) == entering[todo]
        lo[todo] = a = np.where(past, lo[todo], r)
        hi[todo] = b = np.where(past, r, hi[todo])
        new = r - step
        new = np.where((a < new) & (new < b), new, 0.5 * (a + b))
        done = ((np.abs(g) <= 4 * np.finfo(float).eps * R)
                | (np.abs(step) <= tol[todo]) | (b - a <= tol[todo]))
        cross[todo] = np.where(done, r, new)
        todo = todo[~done]

    # crossings alternate along a ray, and every ray ends outside, so each
    # exit closes the segment opened by the previous crossing on its ray,
    # or by the ray's origin itself when the ray starts inside
    exits = np.nonzero(~entering)[0]
    opened = (exits > 0) & (di[exits - 1] == di[exits])
    return di[exits], np.where(opened, cross[exits - 1], 0.0), cross[exits]


def inside_segments(spec: DomainSpec, y, dirs: np.ndarray, rmax: float):
    """The r-intervals where y + r*dir lies inside, for every direction.

    Returns arrays (ray, start, end): segment k covers [start[k], end[k]]
    along direction ray[k], with 0 <= start < end, sorted by ray and then
    by radius.  A scan of the level function over ``_unit_ladder``
    times rmax, up to its first radius past |y - center| + sum |cos_coeffs|
    (no boundary point is farther from y), brackets every boundary
    crossing; segments shorter than the scan resolution near rmax can be
    missed, but the ladder is logarithmic near 0 where short entering
    segments matter.  Inside a bracket the crossing is a simple root of
    g(r) = |p| - rho(theta(p)), p = y - center + r*dir, found by
    safeguarded Newton iteration from the scan's secant guess: every
    iterate shrinks the bracket, and a step that leaves it is replaced by
    the bracket's midpoint.  This is the one-origin case of the per-ray
    scan that ``polar_rules`` runs over a block of targets.
    """
    p0 = (_as_point(y) - spec.center)[None, :]
    rmax = np.array([float(rmax)])
    n = len(dirs)
    return _ray_segments(
        spec, np.broadcast_to(p0, (n, 2)), dirs,
        np.broadcast_to(rmax, n),
        np.broadcast_to(_scan_lengths(spec, p0, rmax), n))


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
    segment that starts nearer the target than its own length (start 0
    included) with ``_graded_unit_rule(n_r)``, 2 n_r Gauss points under
    r = x^4 clustered at its start, and every other segment with n_r
    Gauss-Legendre points.  The weights include the polar Jacobian r,
    which cancels 1/r kernel singularities at the target; the
    substitution absorbs log(r) factors, also on a segment that re-enters
    the domain just past the target.
    """

    target: np.ndarray
    theta: np.ndarray
    wtheta: np.ndarray
    dirs: np.ndarray
    seg_ray: np.ndarray          # (m,) ray index of each segment
    seg_ends: np.ndarray         # (m, 2) its start and end radius
    n_r: int

    @property
    def n_nodes(self) -> int:
        """Number of quadrature points, without expanding them."""
        a, b = self.seg_ends.T
        return self.n_r * (len(a) + int((a < b - a).sum()))

    def nodes(self):
        """Quadrature points (N, 2) and weights (N,); see ``rule_nodes``."""
        return rule_nodes([self])[:2]

    @property
    def points(self) -> np.ndarray:
        return self.nodes()[0]

    @property
    def weights(self) -> np.ndarray:
        return self.nodes()[1]

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        pts, wts = self.nodes()
        return float(wts @ f(pts))


def rule_nodes(rules):
    """Quadrature points (N, 2), weights (N,) and per-rule node counts of
    rules of one radial order n_r, expanded in one pass, rule after rule.

    Each rule's nodes are its graded segments (start a < length b - a)
    first, then the others, each in table order.  A segment [a, a + h]
    along ray k with unit rule (x, wx) has nodes r = a + h x and weights
    h wx r wtheta_k, formed as h^2 wtheta_k (wx x) + h a wtheta_k wx.
    """
    n_r = rules[0].n_r
    owner = np.repeat(np.arange(len(rules)), [len(r.seg_ray) for r in rules])
    ends = np.concatenate([r.seg_ends for r in rules])
    dirs = np.concatenate([r.dirs[r.seg_ray] for r in rules])
    wtheta = np.concatenate([r.wtheta[r.seg_ray] for r in rules])
    a, b = ends.T
    graded = a < b - a
    size = np.where(graded, 2 * n_r, n_r)
    counts = np.bincount(owner, size, len(rules)).astype(int)
    # node offset of each segment, with a rule's graded segments first
    order = np.argsort(2 * owner + ~graded, kind="stable")
    first = np.empty_like(size)
    first[order] = np.cumsum(size[order]) - size[order]
    pts = np.repeat(np.stack([r.target for r in rules]), counts, axis=0)
    wts = np.empty(len(pts))
    for sel, (x, wx) in ((graded, _graded_unit_rule(n_r)),
                         (~graded, gauss_01(n_r))):
        if not sel.any():
            continue
        a, b = ends[sel, :1], ends[sel, 1:]
        h, wt = b - a, wtheta[sel][:, None]
        r = a + h * x
        at = (first[sel][:, None] + np.arange(len(x))).ravel()
        pts[at] += (r[:, :, None] * dirs[sel][:, None, :]).reshape(-1, 2)
        wts[at] = ((h**2 * wt) * (wx * x) + (h * a * wt) * wx).ravel()
    return pts, wts, counts


def _window_angles(alpha, n_theta: int):
    """Width-pi angular window about direction alpha, with a smoothstep
    substitution whose derivative vanishes quadratically at the edges;
    alpha of shape (m, 1) gives m windows."""
    xg, wg = gauss_01(n_theta)
    sstep, dstep = _smoothstep(xg)
    theta = alpha - np.pi / 2 + np.pi * sstep
    return theta, np.pi * dstep * wg


def polar_rules(spec: DomainSpec, targets, base: int = 48,
                n_r: int = 10) -> list:
    """Polar quadrature rules centered at targets (interior or on the
    boundary), one per target, in order; no targets give [].

    ``n_r`` is the radial Gauss order: n_r points on a segment away from
    the target, 2 n_r substituted ones on a segment at or near it (see
    ``PolarRule``).  Interior targets get equispaced angles
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

    The set is built together: one level check, then per block of
    consecutive targets (``block_bounds``) one table of their angles and,
    on a star, one segment scan (``_ray_segments``).  A block's scan
    samples, its rays times its longest ladder, fit in ``BLOCK_ENTRIES``;
    on a disk its rays do.  Every array operation is elementwise per ray,
    so each rule equals the one its target gets alone, bitwise.
    """
    y = as_points(targets)
    lev = spec.level(y)
    if (lev > 1.0 + BOUNDARY_LEVEL_TOL).any():
        raise GeometryError("polar rule target lies outside the domain")
    inner = lev < 1.0 - BOUNDARY_LEVEL_TOL
    d = y - spec.center
    phi = np.arctan2(d[:, 1], d[:, 0])
    star = spec.kind == "star"
    n = np.full(len(y), base * (2 if star else 1))      # rays per target
    n[inner] = np.minimum(THETA_COUNT_CAP, np.maximum(base, np.ceil(
        THETA_COUNT_COEFF / np.sqrt(1.0 - lev[inner]))))
    n[inner] += n[inner] % 2
    alpha = np.zeros(len(y))    # a boundary target's interior normal angle
    if not inner.all():
        nin = -spec.boundary_normal(phi[~inner])
        alpha[~inner] = np.arctan2(nin[:, 1], nin[:, 0])
    if star:
        rmax = 2.1 * spec.max_rho() + np.array(
            [np.linalg.norm(v) for v in d], dtype=float)
        lengths = _scan_lengths(spec, d, rmax)
    else:
        lengths = np.ones(len(y), dtype=int)

    rules = []
    for lo, hi in block_bounds(n.tolist(), lengths.tolist()):
        # the block's angle table: each target's rays after the previous
        # target's, target lo + j on rays edges[j]:edges[j + 1]
        edges = np.concatenate([[0], np.cumsum(n[lo:hi])])
        owner = np.repeat(np.arange(lo, hi), n[lo:hi])
        ray_in = inner[owner]
        own = owner[ray_in]
        theta, wtheta = np.empty(edges[-1]), np.empty(edges[-1])
        k = np.flatnonzero(ray_in) - edges[own - lo]
        theta[ray_in] = phi[own] + 2 * np.pi * k / n[own]
        wtheta[ray_in] = 2 * np.pi / n[own]
        if not ray_in.all():
            edge = alpha[lo:hi][~inner[lo:hi], None]
            th, wt = _window_angles(edge, base)
            if star:
                th = np.concatenate(
                    [th, _window_angles(edge + np.pi, base)[0]], axis=1)
                wt = np.concatenate([wt, wt])
            theta[~ray_in] = th.ravel()
            wtheta[~ray_in] = np.tile(wt, len(th))
        dirs = np.empty((len(theta), 2))
        dirs[:, 0], dirs[:, 1] = np.cos(theta), np.sin(theta)

        if star:
            ray, a, b = _ray_segments(spec, d[owner], dirs, rmax[owner],
                                      lengths[owner])
            rm = rmax[owner[ray]]
            a = np.where(a <= 1e-11 * rm, 0.0, a)   # starts at the target
            # segments ending this close to the target are rounding noise
            # of the level function on a boundary target's window-edge rays
            keep = b > 1e-7 * rm
            ray, a, b = ray[keep], a[keep], b[keep]
            cuts = np.searchsorted(ray, edges)
            segments = [(ray[s:e] - first, a[s:e], b[s:e]) for first, s, e
                        in zip(edges, cuts[:-1], cuts[1:])]
        else:
            segments = []
            for i, first, last in zip(range(lo, hi), edges, edges[1:]):
                L = _disk_extents(spec, y[i], dirs[first:last])
                ray = np.flatnonzero(L > 0.0)
                segments.append((ray, np.zeros(len(ray)), L[ray]))
        for i, first, last, (ray, a, b) in zip(range(lo, hi), edges,
                                               edges[1:], segments):
            if not len(ray):
                raise GeometryError(
                    "polar rule is empty: no ray enters the domain")
            rules.append(PolarRule(
                target=y[i], theta=theta[first:last],
                wtheta=wtheta[first:last], dirs=dirs[first:last],
                seg_ray=ray, seg_ends=np.stack([a, b], axis=1), n_r=n_r))
    return rules


def polar_rule_for_target(spec: DomainSpec, y, base: int = 48,
                          n_r: int = 10) -> PolarRule:
    """Polar quadrature rule centered at y: ``polar_rules`` of one target."""
    return polar_rules(spec, _as_point(y)[None, :], base, n_r)[0]
