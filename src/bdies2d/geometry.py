"""Domains, boundary curves, interior grids and polar quadrature rules.

The domains handled here are star-shaped with respect to a center point:
regions bounded by a smooth positive radial profile given as a cosine
series.  A disk is the one-mode star, its series ``[radius]``: its
diameter, boundary distance and polar rules take the same path as any
star's.  Everything downstream (layer operators, volume potentials)
consumes the objects built in this module and treats them as immutable.

Domains, curves and grids each keep a private ``_cache`` of values that
depend only on their geometry; ``cached`` is the one way to fill it, apart
from a curve's ``fine_nodes``, one entry that grows to the largest count
asked for.

``as_points`` is the one gate for caller points: every function taking
them, here and downstream, converts them once with it, so bad points
raise ``GeometryError`` at the call and an empty set gives an empty result.

Polar rules are built per target set (``polar_rules``), as one segment
table (``PolarRules``): per inside segment of a ray, its direction,
angular weight and ends, target after target.  A ray from a target y
meets the boundary wherever y's sight line x(t) - y points along it, so
each target samples the angle of its sight lines over the boundary
parameter t (``_sight_angles``): coarsely, on one table of x(t) and its
first two derivatives shared by the set, and more densely only where a
certificate cannot rule out a fold between two samples.  So consecutive
samples bracket every crossing, and a safeguarded Newton loop refines it
(``_block_segments``).  A block of targets holds its rays' angles in one
table, and one exact search of it (``_rays_at_or_below``) finds the rays
between two samples, for interior and boundary targets alike.  The
volume pipeline and the verification oracles both build their rules
this way;
``polar_rule_for_target`` is the one-target table.  ``rule_nodes``
expands any run of a table's targets in one pass, each segment by one of
three radial rules: n_r generalized Gaussian points (``gauss_log_01``,
exact for r^k and r^(k+1) log r) on a segment that starts at its target,
2 n_r points graded by r = x^4 on one that starts near it, and n_r
Gauss-Legendre points on any other.  ``BLOCK_ENTRIES`` caps
each block's largest temporary; every operation is elementwise per
target, per ray or per crossing, so a target's rule does not depend on
the block it was built in, bitwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import numpy.polynomial.legendre  # numpy 2 loads it lazily, at first use

from .gauss_log_rules import GAUSS_LOG_RULES


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


#: Node counts by name: the least value, and whether it must be even.
_COUNT_LIMITS = {"n_boundary": (8, True), "n_t": (8, True), "n_s": (4, False),
                 "n_r": (2, False), "n_theta": (3, False)}


def _count(n, name: str) -> int:
    """Node count ``name`` as an int within its ``_COUNT_LIMITS``."""
    low, even = _COUNT_LIMITS[name]
    try:
        n = operator.index(n)
    except TypeError:
        raise GeometryError(f"{name} must be an integer, got {n!r}") from None
    if n < low or (even and n % 2):
        raise GeometryError(f"{name} must be {'even and ' * even}at least {low}")
    return n


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
        r = np.sqrt(p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1])
        return r / self.profile(p[:, 0] / np.where(r > 0.0, r, 1.0))

    def contains(self, point) -> bool:
        return bool(self.level(_as_point(point))[0] < 1.0)

    def diameter(self) -> float:
        # squared distances overflow past about 1e154: then it is infinite
        with np.errstate(over="ignore", invalid="ignore"):
            return cached(self, "diameter", self._sampled_diameter)

    def _sampled_diameter(self) -> float:
        """Largest distance between 2048 boundary samples, found exactly
        without visiting most pairs.

        The longest antipodal pair, tightened by two farthest-point steps,
        is a lower bound.  The samples fall into blocks of 16 consecutive
        ones, each with its largest radius R about the center and the arc
        of its directions.  Two samples at radii r <= R and r' <= R' whose
        directions differ by at most delta <= pi are at most
        max(R, R', sqrt(R^2 + R'^2 - 2 R R' cos delta)) apart (the law of
        cosines, largest at a corner of the radii's box), so a pair of
        blocks whose bound falls below the lower bound holds no longer
        pair and is skipped; only blocks with nearly antipodal arcs and
        large radii remain.  The bound keeps a 1e-12 relative margin
        against rounding, so the result equals the brute-force maximum
        bitwise.
        """
        m = 16
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
        # the blocks whose largest radius reaches the bound with the
        # farthest one; per block the half-width of its arc of directions
        # about the direction of its middle parameter
        nb = len(x) // m
        v = (pts - self.center).reshape(nb, m, 2)
        r = np.hypot(v[..., 0], v[..., 1]).max(1)
        k = np.flatnonzero(r + r.max() >= bound)
        r, v = r[k], v[k]
        mid = (2 * np.pi / nb) * (k + (m - 1) / (2 * m))
        phi = np.arctan2(v[..., 1], v[..., 0]) - mid[:, None]
        arc = np.abs((phi + np.pi) % (2 * np.pi) - np.pi).max(1)
        # the largest angle between two of their directions
        gap = np.abs(k[:, None] - k)
        delta = np.minimum(np.pi, (2 * np.pi / nb) * np.minimum(gap, nb - gap)
                           + arc[:, None] + arc)
        R, Rc = r[:, None], r[None, :]
        reach2 = np.maximum(np.maximum(R, Rc) ** 2,
                            R * R + Rc * Rc - 2 * R * Rc * np.cos(delta))
        rows, cols = np.nonzero(np.triu(reach2 >= bound * bound))
        # the surviving block pairs, a few hundred at a time
        xb, yb = x.reshape(nb, m), y.reshape(nb, m)
        for i in range(0, len(rows), 256):
            b, c = k[rows[i:i + 256]], k[cols[i:i + 256]]
            d2max = max(d2max, _squared_distances(
                xb[b, :, None], yb[b, :, None], xb[c, None, :],
                yb[c, None, :]).max())
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

    def boundary_acceleration(self, t):
        cos, sin = np.cos(t), np.sin(t)
        r, dr = self.profile(cos, sin)
        a = self.ddrho(t) - r
        return np.stack([a * cos - 2 * dr * sin, a * sin + 2 * dr * cos],
                        axis=-1)

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

    def fine_nodes(self, N: int):
        """Points (N, 2), outward normals (N, 2) and speeds (N,) at the N =
        n 2^k equispaced parameters 2pi j / N, read-only.

        The curve keeps one entry, at the largest N asked for so far, and
        a smaller N reads it with a stride, since the lattices nest.  The
        stride is a power of two, so 2pi (2^k j) / (2^k N) rounds as 2pi j
        / N and a strided view equals the direct evaluation bitwise.
        """
        top = self._cache.get("fine_nodes")
        if top is None or len(top[2]) < N:
            t = 2 * np.pi * np.arange(N) / N
            top = (self.spec.boundary_point(t), self.spec.boundary_normal(t),
                   self.spec.boundary_speed(t))
            for a in top:
                a.flags.writeable = False
            self._cache["fine_nodes"] = top
        k = len(top[2]) // N
        return tuple(a[::k] for a in top)

    def distance_to(self, points) -> np.ndarray:
        """Distance from points to the boundary (sampled minimum, refined),
        computed once per point set and kept, read-only, with the curve."""
        pts = as_points(points)
        return cached(self, ("distance", pts.tobytes()),
                      lambda: self._distance(pts))

    def _distance(self, pts: np.ndarray) -> np.ndarray:
        m = max(8 * self.n, 512)
        tt = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
        bx, by = self.spec.boundary_point(tt).T
        px, py = pts.T
        j = np.empty(len(pts), dtype=int)
        f = np.empty((len(pts), 3))     # squared distances at j - 1, j, j + 1
        # row blocks keep the temporaries at 32 x m
        for i in range(0, len(pts), 32):
            d2 = _squared_distances(px[i:i + 32, None], py[i:i + 32, None],
                                    bx, by)
            j[i:i + 32] = d2.argmin(axis=1)
            f[i:i + 32] = np.take_along_axis(
                d2, (j[i:i + 32, None] + np.arange(-1, 2)) % m, axis=1)
        fm, f0, fp = f.T
        # parabolic refinement in the parameter around the sampled minimum
        denom = fm - 2 * f0 + fp
        shift = np.where(np.abs(denom) > 1e-300, 0.5 * (fm - fp) / np.where(denom == 0, 1, denom), 0.0)
        tref = tt[j] + shift * (2 * np.pi / m)
        # the parabola misses by up to 0.016 h^3 at spacing h; a Newton
        # step on (x(t) - p) . x'(t) = 0 squares that, unless the derivative
        # is not positive: then no minimum is near, and t stays
        cos, sin = np.cos(tref), np.sin(tref)
        rho, drho = self.spec.profile(cos, sin)
        e, n = np.stack([cos, sin]), np.stack([-sin, cos])
        off, v = rho * e + (self.spec.center - pts).T, drho * e + rho * n
        acc = (self.spec.ddrho(tref) - rho) * e + 2 * drho * n
        f, df = (off * v).sum(0), (v * v + off * acc).sum(0)
        tref = tref - np.where(df > 0, f / np.where(df > 0, df, 1.0), 0.0)
        bref = self.spec.boundary_point(tref)
        return np.minimum(np.sqrt(f0), np.linalg.norm(pts - bref, axis=1))


def build_curve(spec: DomainSpec, n_boundary: int) -> BoundaryCurve:
    """Sample the boundary at n equispaced parameters and validate it.

    ``n_boundary`` must be an even integer of at least 8.  Checks positive
    speeds and unit outward normals (ray test against the level function);
    closure and periodic derivatives need none, a cosine series has both.
    """
    n_boundary = _count(n_boundary, "n_boundary")
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
    only transcendental work is one tangent per evaluation point, and the
    sign rides in the numerator's cot(t_j/2) row: negation is exact, so
    this equals the signed quotient bitwise.  A point within ON_NODE_TOL
    of a node gets that node's unit row; only such points can overflow or
    divide by zero below.
    """
    th = np.asarray(theta, dtype=float)
    k = np.rint(th * (n / (2 * np.pi)))
    on_node = np.abs(th - (2 * np.pi / n) * k) <= ON_NODE_TOL
    half = 0.5 * th
    sign = 1.0 - 2.0 * (np.arange(n) % 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cu = 1.0 / np.tan(half)                      # cot(theta_m / 2)
        cv = 1.0 / np.tan(np.pi * np.arange(n) / n)  # cot(t_j / 2); j=0 -> inf
        # (-1)^j cot(u - v) = (-1)^j (cu*cv + 1) / (cv - cu); the j = 0
        # column is cot(u)
        A = np.multiply.outer(cu, sign * cv)
        A += sign
        A[:, 0] = cu
        den = cv - cu[:, None]
        den[:, 0] = 1.0
        A /= den
        A /= A.sum(axis=1, keepdims=True)
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
        """Evaluate the grid interpolant of nodal values at points.

        Values of shape (n_nodes, k) give k columns from one cardinal
        evaluation and one GEMM; a column can differ from the same vector
        interpolated alone in the last bits, since the GEMM's rounding
        depends on its width."""
        A, S = self.cardinal_matrices(points)
        v = np.asarray(values, dtype=float)
        U = v.reshape(self.n_t, self.n_s, -1)
        n_s, k = self.n_s, U.shape[2]
        M = A @ U.transpose(0, 2, 1).reshape(self.n_t, k * n_s)
        out = np.stack([(M[:, c * n_s:(c + 1) * n_s] * S).sum(1)
                        for c in range(k)], axis=-1)
        return out.reshape((len(S),) + v.shape[1:])

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
    n_t = _count(n_t, "n_t")
    n_s = _count(n_s, "n_s")
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
#: rules: a block of targets' sight-line samples and crossings in
#: ``polar_rules``, and the angular cardinals (nodes times n_t) of a block
#: of rules in ``potentials``.  At 2^15 (256 KiB) the benchmark star's
#: volume passes at 64/16x8 run as fast as at 2^16 with a sixth of the
#: extra memory.
BLOCK_ENTRIES = 2**15
#: Uniform boundary-parameter samples of a target's sight lines per cosine
#: mode k >= 1 of the profile (a disk's one mode, k = 0, counts as one).
#: Their angle folds where they are tangent to the boundary, at most 4K
#: times for K modes; ``_sight_angles`` adds samples wherever a fold could
#: hide between two of them, so this count sets the cost, not what is
#: found: 16 to 256 per mode give the same segments on the benchmark's
#: target sets and the ladder's top rungs, and 24 to 48 build them fastest.
SIGHT_SAMPLES_PER_MODE = 32
#: Radians by which a sight line may turn past both ends of an interval
#: that ``_sight_angles`` could not certify: its quartering stops there.
FOLD_TOL = 1e-13


@lru_cache(maxsize=32)
def _graded_unit_rule(p: int):
    """Nodes/weights on [0, 1]: 2p Gauss-Legendre points in x under the
    substitution r = x^4, which turns r log r dr into a smooth integrand
    (Sidi, 1993; Kress, 1990); shared and read-only."""
    x, w = gauss_01(2 * p)
    r, w = x**4, 4 * x**3 * w
    r.flags.writeable = w.flags.writeable = False
    return r, w


@lru_cache(maxsize=None)
def gauss_log_01(q: int):
    """The q-point generalized Gaussian rule on [0, 1]: nodes and positive
    weights exact for x^k and x^(k+1) log x, k < q (Ma, Rokhlin &
    Wandzura, 1996), from the tables of ``gauss_log_rules``; shared and
    read-only."""
    if q not in GAUSS_LOG_RULES:
        raise GeometryError(
            f"radial order n_r must be one of {min(GAUSS_LOG_RULES)}.."
            f"{max(GAUSS_LOG_RULES)}, the orders of the generalized "
            f"Gaussian radial rules, got {q!r}")
    x, w = (np.array(a) for a in GAUSS_LOG_RULES[q])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _radial_units(n_r: int):
    """Unit rules on [0, 1] of a segment that starts at its target, of one
    that starts nearer it than its own length, and of any other (see
    ``PolarRules``)."""
    return gauss_log_01(n_r), _graded_unit_rule(n_r), gauss_01(n_r)


def _segment_sizes(a, b, units):
    """Each segment [a, b]'s index into ``units`` (at, near, away; see
    ``_radial_units``) and its node count."""
    kind = np.where(a == 0, 0, np.where(a < b - a, 1, 2))
    return kind, np.array([len(x) for x, _ in units])[kind]


def block_bounds(widths, cap=None):
    """(start, stop) of consecutive blocks of items whose widths sum to at
    most ``cap`` float64 entries (``BLOCK_ENTRIES`` unless given); an item
    over it is a block alone."""
    cap = BLOCK_ENTRIES if cap is None else cap
    bounds, lo, width = [], 0, 0
    for i, w in enumerate(widths):
        width += w
        if i > lo and width > cap:
            bounds.append((lo, i))
            lo, width = i, w
    if len(widths):
        bounds.append((lo, len(widths)))
    return bounds


def _sight(spec: DomainSpec, s, rho_s, dip, u):
    """The sight line v = (x(s + u) - y) / (2 sin(u/2)) for 0 < u < 2pi
    from the target y = x(s) - dip, given rho_s = rho(s), and its
    u-derivative (x'(s + u) - cos(u/2) v) / (2 sin(u/2)).

    It is formed free of cancellation: with m = s + u/2, e(s + u) - e(s)
    is 2 sin(u/2) (-sin m, cos m), and rho(s + u) - rho(s) is
    -2 sum_k c_k sin(k m) sin(k u/2), where sin(k u/2) / sin(u/2) =
    U_{k-1}(cos(u/2)).  On the boundary (dip = 0) v is the chord, with
    limits x'(s) at u = 0 and -x'(s) at 2pi; from an interior target, with
    dip along e(s), it turns from e(s) at u = 0 once around to e(s) at 2pi.
    """
    ch, sh = np.cos(0.5 * u), np.sin(0.5 * u)
    cm, sm = np.cos(s + 0.5 * u), np.sin(s + 0.5 * u)
    # drho = (rho(s + u) - rho(s)) / (2 sin(u/2)), from sin(k m) and
    # U_{k-1}(cos(u/2)) by their three-term recurrences
    drho, skm, skm1, uk, uk1 = 0.0, sm, 0.0, 1.0, 0.0
    for ck in spec.cos_coeffs[1:]:
        drho = drho - ck * skm * uk
        skm, skm1 = 2.0 * cm * skm - skm1, skm
        uk, uk1 = 2.0 * ch * uk - uk1, uk
    ct, st = cm * ch - sm * sh, sm * ch + cm * sh       # at s + u
    rho, dr = spec.profile(ct, st)
    vx = drho * ct - rho_s * sm + dip[..., 0] / (2 * sh)
    vy = drho * st + rho_s * cm + dip[..., 1] / (2 * sh)
    return (vx, vy), ((dr * ct - rho * st - ch * vx) / (2 * sh),
                      (dr * st + rho * ct - ch * vy) / (2 * sh))


def _sight_bounds(spec: DomainSpec):
    """Bounds (F1, F2, F3) on the first three u-derivatives of the f of
    ``_sight_angles``, x(s + u) - y from an interior target, then of the
    chord (x(s + u) - x(s)) / (2 sin(u/2)) of a boundary target.

    As a complex number x(t) - c is sum_m a_m e^(imt): c_0 gives a_1, and
    c_k, k >= 1, gives half of itself to m = k + 1 and half to m = 1 - k.
    So |x^(p)| <= sum |a_m| |m|^p.  The chord is sum_m i a_m e^(ims) times
    sum_{l < |m|} e^(+-i(l + 1/2)u), signed as m, so its p-th derivative is
    at most sum |a_m| sum_{l < |m|} (l + 1/2)^p: |m|^2 / 2, |m| (4 m^2 -
    1) / 12 and m^2 (2 m^2 - 1) / 8 times |a_m| for p = 1, 2, 3.
    """
    c = np.abs(spec.cos_coeffs)
    k = np.arange(1.0, len(c))
    m = np.concatenate([[1.0], k + 1.0, np.abs(1.0 - k)])
    a = np.concatenate([c[:1], 0.5 * c[1:], 0.5 * c[1:]])
    m2 = m * m
    return ((a * m).sum(), (a * m2).sum(), (a * m2 * m).sum()), (
        (a * m2).sum() / 2, (a * m * (4 * m2 - 1)).sum() / 12,
        (a * m2 * (2 * m2 - 1)).sum() / 8)


def _turning(D, D1, D2):
    """dw/du and d^2w/du^2 of the angle w of a plane curve D(u), from D
    and its first two u-derivatives, each an (x, y) pair: w' = D x D' /
    |D|^2 and w'' = D x D'' / |D|^2 - 2 w' (D . D') / |D|^2."""
    (x, y), (x1, y1), (x2, y2) = D, D1, D2
    r2 = x * x + y * y
    w1 = (x * y1 - y * x1) / r2
    return w1, ((x * y2 - y * x2) - 2 * w1 * (x * x1 + y * y1)) / r2


def _hermite_guess(angle, lo, hi, wlo, whi, dlo, dhi):
    """Where in each bracket [lo, hi] of u the sight line's angle w, lo to
    whi with u-derivatives dlo and dhi at the ends, passes ``angle``: the
    inverse cubic Hermite interpolant, u as the cubic in w through both
    ends with slopes 1 / dlo and 1 / dhi, off by the fourth power of the
    bracket's width where w is monotone (``_sight_angles``).  Where that
    cubic leaves the bracket the guess is the secant's, and the midpoint
    where that does too."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h, dw = hi - lo, whi - wlo
        t = (angle - wlo) / dw
        m0, m1 = dw / (h * dlo), dw / (h * dhi)
        p = t * (1.0 - t) * ((1.0 - t) * m0 - t * m1) + t * t * (3 - 2 * t)
    return lo + h * np.where((0.0 < p) & (p < 1.0), p,
                             np.where((0.0 < t) & (t < 1.0), t, 0.5))


def _radii(spec: DomainSpec, geo, d, u, lo, hi, rising):
    """Radii 2 sin(u/2) v . d along unit directions d of the roots of
    v x d, v the sight line ``_sight(spec, *geo, u)``, one in each bracket
    (lo, hi) of u, from first guesses u inside (``_hermite_guess``); v x d
    goes from negative to positive across the root where ``rising``.

    Safeguarded Newton iteration: every iterate shrinks its bracket.  A
    step that does not land inside it goes to the end it passes if that end
    has not been evaluated (a crossing can lie on a sample, the end of its
    bracket), else to the Illinois secant of the bracket's ends, else to
    the midpoint; so near a fold, where v x d is flat, and in the two-cycle
    between the ends that rounding in v x d can set up, the bracket still
    shrinks fast.  A root is done once |v x d| is at most 4 eps |v|_1, its
    step or its bracket at most tol = 4 eps u, or, after Newton steps of
    sizes p and s, the next one's size s^3 / p^2 at most tol / 64; its
    radius at its Newton iterate is then read off that last evaluation to
    first order, with no further ``_sight`` call.  Every operation is
    elementwise per root.
    """
    eps = 4 * np.finfo(float).eps
    tol, todo, r = eps * u, np.arange(len(u)), np.empty(len(u))
    # v x d at each bracket's ends once evaluated there; the end the last
    # iterate replaced (1 lo, 2 hi); the size of the last Newton step taken
    glo, ghi = np.full(len(u), np.nan), np.full(len(u), np.nan)
    last, prev = np.zeros(len(u), dtype=np.int8), np.zeros(len(u))
    for it in range(60):                # a backstop: a few steps suffice
        if not todo.size:
            break
        # views, not copies, while every root is open
        sel = todo if len(todo) < len(u) else slice(None)
        x, dk, tk = u[todo], d[sel], tol[sel]
        with np.errstate(divide="ignore", invalid="ignore"):
            (vx, vy), (dx, dy) = _sight(spec, *(a[sel] for a in geo), x)
            g = vx * dk[:, 1] - vy * dk[:, 0]
            step = g / (dx * dk[:, 1] - dy * dk[:, 0])
        left = (g < 0.0) == rising[sel]         # x lies left of the root
        lo[todo] = a = np.where(left, x, lo[sel])
        hi[todo] = b = np.where(left, hi[sel], x)
        # Illinois: the value at an end kept twice in a row is halved
        side = np.where(left, 1, 2).astype(np.int8)
        half = np.where(last[sel] == side, 0.5, 1.0)
        glo[todo] = ga = np.where(left, g, glo[sel] * half)
        ghi[todo] = gb = np.where(left, ghi[sel] * half, g)
        last[todo] = side
        # Newton's iterate inside the bracket; else an end past which it
        # lies and which has not been evaluated; else the secant of the
        # ends, or the midpoint
        un = x - step
        inside = (a < un) & (un < b)
        out = np.flatnonzero(~inside)
        ao, bo, gao, gbo, uo = (c[out] for c in (a, b, ga, gb, un))
        with np.errstate(divide="ignore", invalid="ignore"):
            sec = ao + (bo - ao) * (gao / (gao - gbo))
        un[out] = np.where((uo <= ao) & np.isnan(gao), ao, np.where(
            (uo >= bo) & np.isnan(gbo), bo, np.where(
                (ao < sec) & (sec < bo), sec, 0.5 * (ao + bo))))
        u[todo] = un
        # the next Newton step would be about s^3 / p^2 after steps of sizes
        # p and s (quadratic convergence)
        s = np.abs(step)
        with np.errstate(over="ignore", invalid="ignore"):
            fast = inside & (64 * s**3 <= tk * prev[sel]**2)
        done = np.flatnonzero((np.abs(g) <= eps * (np.abs(vx) + np.abs(vy)))
                              | (s <= tk) | (b - a <= tk) | fast | (it == 59))
        prev[todo] = np.where(inside, s, 0.0)
        # a finished root's radius at its Newton iterate, to first order
        # from x: the u-derivative of 2 sin(u/2) v is x'(s + u) = cos(u/2)
        # v + 2 sin(u/2) v'
        x, dk, vx, vy, dx, dy = (c[done] for c in (x, dk, vx, vy, dx, dy))
        sh, vd = 2 * np.sin(0.5 * x), vx * dk[:, 0] + vy * dk[:, 1]
        r[todo[done]] = sh * vd - np.where(inside[done], step[done], 0.0) * (
            np.cos(0.5 * x) * vd + sh * (dx * dk[:, 0] + dy * dk[:, 1]))
        todo = np.delete(todo, done)
    return r


def _sight_angles(spec: DomainSpec, table, block, bounds):
    """Samples of a block of B targets' sight lines x(s + u) - y, y = c +
    q, flat and ordered by target and then by u: each sample's target b,
    its u, the unwrapped angle w of the sight line from w0, and dw/du.

    The base samples are u = 0; the uniform parameters 2pi (j + 1/2) / N
    of ``table`` (x - c, x' and x'' at them, N of each) past s, which lie
    1/2 to 3/2 spacings apart from it at both ends; and 2pi.  The half
    spacing keeps them off the grid's and the curve's angles, where a
    symmetric target's ray can cross the boundary exactly at a sample, the
    end of two brackets.  An interior target sees the boundary wind once
    around it, from w = 0 along its radial ray to 2pi; a boundary target
    sees its chord turn from the tangent x'(s) at w = 0 to -x'(s) at pi.
    Both ends are pinned exactly, with w' from ``block``.

    A certificate then clears each interval [a, a + h] between two
    consecutive samples of any fold, a zero of w' where the angle turns
    back.  Let f be the sight line, x(s + u) - y inside and the chord on
    the boundary, and F1, F2, F3 the profile's bounds on its first three
    u-derivatives (``_sight_bounds``).  On the interval |f| >= L = (|f(a)|
    + |f(a + h)| - F1 h) / 2, so |w''| <= |f''| / |f| + |f'|^2 / |f|^2 <=
    F2 / L + (F1 / L)^2; and the third derivative of w is at most M3 = F3
    / L + 3 F1 F2 / L^2 + 2 (F1 / L)^3, so also |w''| <= (|w''(a)| +
    |w''(a + h)| + M3 h) / 2, far the tighter bound on a short interval.
    M is the smaller bound (the first alone next to a pinned end, where
    w'' is not formed).  Where L > 0, w' has one sign at both ends and
    |w'(a)| + |w'(a + h)| > M h, w' has no zero inside: w is monotone
    there, its samples bracket every crossing in the interval exactly, and
    it turns by less than a radian, so unwrapping by whole turns holds.
    Where M h^2 / 8 is at most FOLD_TOL, a fold inside turns w past its
    ends by at most that.  Every other interval is quartered with
    ``_sight``, all of a block's at once, until each piece is cleared: near
    a fold pair until it is split, near a fold until it is that short, and
    near the target's own parameter until the spacing matches its distance
    from the boundary.  Every operation is elementwise per target or per
    interval, and each interval's pieces keep its place.
    """
    s, q, rho_s, dip, inner, w0, d0, f0 = block
    E, V, A = table
    N, turn, B = len(E), 2 * np.pi, len(s)
    j = np.ceil(s * (N / turn)).astype(int)[:, None] + np.arange(N - 1)
    u = np.pad((turn / N) * (j + 0.5) - s[:, None], ((0, 0), (1, 1)),
               constant_values=(0.0, turn))
    j %= N
    D = E[j, 0] - q[:, :1], E[j, 1] - q[:, 1:]
    psi = np.empty(u.shape)
    psi[:, 0] = psi[:, -1] = w0
    psi[:, 1:-1] = np.arctan2(D[1], D[0])
    # per sample: w', w'' and |f|; at the ends w'' is left unknown
    rates = np.empty((3,) + u.shape)
    rates[:2, :, 1:-1] = _turning(D, (V[j, 0], V[j, 1]), (A[j, 0], A[j, 1]))
    rates[2, :, 1:-1] = np.hypot(*D)
    rates[2, ~inner, 1:-1] /= 2 * np.sin(0.5 * u[~inner, 1:-1])
    rates[:, :, 0] = rates[:, :, -1] = np.stack([d0, np.full(B, np.inf),
                                                 f0])
    F = np.where(inner, *np.array(bounds)[:, :, None])   # (F1, F2, F3) x B
    # the intervals still open: each one's base interval g = b N + i, its
    # ends, and the rates there
    g = np.arange(B * N)
    ua, ub = u[:, :-1].ravel(), u[:, 1:].ravel()
    ra, rb = rates[:, :, :-1].reshape(3, -1), rates[:, :, 1:].reshape(3, -1)
    added = []
    for _ in range(64):                 # a backstop: 4^-64 of a spacing
        (F1, F2, F3), h = F[:, g // N], ub - ua
        (da, dda, fa), (db, ddb, fb) = ra, rb
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            iL = np.where(fa + fb > F1 * h, 2.0 / (fa + fb - F1 * h), np.inf)
            M3 = iL * (F3 + iL * F1 * (3.0 * F2 + 2.0 * iL * F1 * F1))
            M = np.minimum(iL * (F2 + iL * F1 * F1),
                           0.5 * (np.abs(dda) + np.abs(ddb) + M3 * h))
            open_ = ~(((da * db > 0.0) & (np.abs(da) + np.abs(db) > M * h))
                      | (M * h * h <= 8 * FOLD_TOL))
        g, ua, ub, ra, rb = g[open_], ua[open_], ub[open_], ra[:, open_], rb[
            :, open_]
        if not g.size:
            break
        # quartered: half the rounds of bisection, which cost more than
        # the extra samples
        um = (ua + (ub - ua) * np.array([[0.25], [0.5], [0.75]])).ravel()
        k = np.tile(g // N, 3)
        (vx, vy), (dx, dy) = _sight(spec, s[k], rho_s[k], dip[k], um)
        ch, sh = np.cos(0.5 * um), 2 * np.sin(0.5 * um)
        acc = spec.boundary_acceleration(s[k] + um)
        rm = np.stack([*_turning((sh * vx, sh * vy), (
            ch * vx + sh * dx, ch * vy + sh * dy), (acc[:, 0], acc[:, 1])),
                       np.hypot(vx, vy) * np.where(inner[k], sh, 1.0)])
        added.append((np.tile(g, 3), um, np.arctan2(vy, vx), rm[0]))
        g = np.tile(g, 4)
        ua, ub = np.concatenate([ua, um]), np.concatenate([um, ub])
        ra, rb = np.concatenate([ra, rm], 1), np.concatenate([rm, rb], 1)
    dpsi = rates[0]
    b = np.repeat(np.arange(B), N + 1)
    u, psi, dpsi = u.ravel(), psi.ravel(), dpsi.ravel()
    if added:
        # each added sample goes after its base interval's first sample,
        # b (N + 1) + i, in order of u
        g, um, pm, dm = (np.concatenate(c) for c in zip(*added))
        order = np.lexsort((um, g))
        g = g[order]
        at = g + g // N + 1
        b, u = np.insert(b, at, g // N), np.insert(u, at, um[order])
        psi, dpsi = np.insert(psi, at, pm[order]), np.insert(dpsi, at,
                                                             dm[order])
    # unwrap by whole turns within each target; the far end is pinned
    first = np.r_[True, b[1:] != b[:-1]]
    w = psi - w0[b]
    wraps = np.rint(np.diff(w) / turn)
    wraps[first[1:]] = 0.0
    wraps = np.r_[0.0, np.cumsum(wraps)]
    w -= turn * (wraps - wraps[np.flatnonzero(first)][b])
    last = np.r_[first[1:], True]
    w[last] = np.where(inner, turn, np.pi)
    return b, u, w, dpsi


def _rays_at_or_below(ang, edges, b, x):
    """Per query i, how many of target b[i]'s ray angles, ang[edges[b[i]]:
    edges[b[i] + 1]] in increasing order, are at most x[i], compared
    exactly.  NumPy orders complex numbers by real and then imaginary part,
    so the keys owner + i ang, formed without rounding, sort target by
    target and one search places every query b + i x among them.  (Offsets
    ang + 2pi owner would round, and could move a query past an angle it
    lies within an ulp of.)"""
    keys = np.repeat(np.arange(len(edges) - 1), np.diff(edges)) + 1j * ang
    return np.searchsorted(keys, b + 1j * x, side="right") - edges[b]


def _block_segments(spec: DomainSpec, table, block, ang, dirs, edges, start,
                    bounds):
    """Inside segments (ray, start, end) of a block of targets' rays, ray
    indexing the block's angle table (target b on rays edges[b] to
    edges[b + 1], at angles ``ang`` from its origin, increasing, and
    directions ``dirs``; rays ``start`` start inside), sorted by ray and
    then by radius.

    ``block`` holds each target's parameter s, offset q from the center,
    rho(s), offset dip = x(s) - y, interior flag, angle w0 of its rays'
    origin, and its sight line's angular speed and size at both ends
    (``polar_rules``).  A ray at angle w0 + ang meets the boundary wherever
    the sight-line angle w (``_sight_angles``) passes ang plus whole turns;
    one search of the table (``_rays_at_or_below``) counts the rays below
    each sample, for every target alike.  Consecutive samples bracket each
    crossing, and ``_radii`` refines it from an inverse Hermite guess
    (``_hermite_guess``).  Pinning w's ends makes the count of each ray's
    crossings odd where the ray starts inside (an interior target's, or on
    a boundary target's window about its interior normal) and even where
    it starts outside.  So with a crossing at radius 0 added where a ray
    starts inside, each ray's crossings, sorted by radius, pair into its
    segments.
    """
    s, q, rho_s, dip, inner = block[:5]
    n = np.diff(edges)
    b, u, w, dw = _sight_angles(spec, table, block, bounds)
    # below[i]: the rays at most w[i], counted across turns, each turn's
    # in order; a nondecreasing function of w along each target's samples
    turns = np.floor(w / (2 * np.pi))
    below = (turns * n[b]).astype(int) + _rays_at_or_below(
        ang, edges, b, w - 2 * np.pi * turns)
    # the intervals between consecutive samples of one target, and each
    # crossing's interval
    i = np.flatnonzero(b[1:] == b[:-1])
    count = np.abs(below[i + 1] - below[i])
    k = np.repeat(np.arange(len(i)), count)
    at = i[k]
    level = (np.minimum(below[i], below[i + 1])[k] + np.arange(len(k))
             - np.repeat(np.cumsum(count) - count, count))
    bk = b[at]
    turn, ray = np.divmod(level, n[bk])
    ray += edges[bk]
    angle = 2 * np.pi * turn + ang[ray]
    lo, hi, wa, wb = u[at], u[at + 1], w[at], w[at + 1]
    guess = _hermite_guess(angle, lo, hi, wa, wb, dw[at], dw[at + 1])
    rising = wb < wa
    # the radial ray's crossing at the pinned end is x(s) itself, at u = 2pi
    pinned = inner[bk] & (level == n[bk]) & np.r_[b[1:] != b[:-1], True][
        at + 1]
    # free the sample tables before the Newton loop's temporaries
    del b, u, w, dw, turns, below, i, count, k, at, level, turn, angle, wa, wb
    lo[pinned] = guess[pinned] = 2 * np.pi
    r = _radii(spec, (s[bk], rho_s[bk], dip[bk]), dirs[ray], guess, lo, hi,
               rising)
    ray, r = np.concatenate([ray, start]), np.concatenate([r, 0.0 * start])
    order = np.lexsort((r, ray))
    ray, lo, hi = ray[order[0::2]], r[order[0::2]], r[order[1::2]]
    return ray[hi > lo], lo[hi > lo], hi[hi > lo]


def _smoothstep(v):
    """Quintic smoothstep; derivative vanishes quadratically at 0 and 1."""
    return v**3 * (10.0 - 15.0 * v + 6.0 * v * v), 30.0 * v * v * (1.0 - v) ** 2


@dataclass(frozen=True, eq=False)
class PolarRules:
    """Quadrature for integrals over the domain centered at each of a set
    of targets, held as one segment table.

    Target i owns segments ``cuts[i]:cuts[i + 1]``, sorted by ray and then
    by radius; per segment the table holds its ray's unit direction (dx,
    dy), the ray's angular weight and the segment's start and end radius,
    each column a 1-d array: ``polar_rules`` joins its blocks' pieces one
    column at a time, so the join holds a fifth of the table twice, not
    all of it.
    ``rule_nodes`` expands each segment by one of three unit rules
    (``_radial_units``), chosen by where it starts:

    - at the target (start 0; the one segment of each ray of an interior
      target, and every ray of a boundary window): the n_r-point
      generalized Gaussian rule ``gauss_log_01(n_r)``, exact for r^k and
      r^(k+1) log r, k < n_r, which with the polar Jacobian hold the
      log kernel, its scale and the gradient kernel times smooth data;
    - nearer the target than its own length, but not at it (a ray that
      re-enters the domain just past the target): ``_graded_unit_rule``,
      2 n_r Gauss points under r = x^4 clustered at its start, whose
      substitution absorbs a log singularity just before the segment;
    - any other: n_r Gauss-Legendre points.

    The weights include the polar Jacobian r, which cancels 1/r kernel
    singularities at the target.
    """

    targets: np.ndarray          # (m, 2)
    cuts: np.ndarray             # (m + 1,) each target's first segment
    dx: np.ndarray               # (S,) per segment: its ray's direction,
    dy: np.ndarray
    wtheta: np.ndarray           # that ray's angular weight,
    start: np.ndarray            # and its start and end radius
    end: np.ndarray
    n_r: int

    @property
    def counts(self) -> np.ndarray:
        """Quadrature points per target, without expanding them."""
        size = _segment_sizes(self.start, self.end,
                              _radial_units(self.n_r))[1]
        return np.diff(np.concatenate([[0], np.cumsum(size)])[self.cuts])


def rule_nodes(rules: PolarRules, lo: int = 0, hi: int | None = None,
               units=None):
    """Quadrature points (N, 2), weights (N,) and per-target node counts of
    targets lo:hi (all by default) of a rule table, expanded in one pass,
    target after target.

    ``units`` replaces the three unit rules, at, near and away from the
    target, that ``rules.n_r`` selects (``PolarRules``); the verification
    oracles pass their own.  Each target's nodes are its segments at or
    near it (start a < length b - a) first, then the others, each in
    table order.  A segment [a, a + h] along a ray of weight wtheta with
    unit rule (x, wx) has nodes r = a + h x and weights h wx r wtheta,
    formed as h^2 wtheta (wx x) + h a wtheta wx.  Every operation is
    elementwise per segment, so a target's nodes do not depend on the
    others expanded with it, bitwise.
    """
    units = _radial_units(rules.n_r) if units is None else units
    cuts = rules.cuts
    hi = len(rules.targets) if hi is None else hi
    seg = slice(cuts[lo], cuts[hi])
    a, b, wtheta = rules.start[seg], rules.end[seg], rules.wtheta[seg]
    dx, dy = rules.dx[seg], rules.dy[seg]
    owner = np.repeat(np.arange(hi - lo), np.diff(cuts[lo:hi + 1]))
    kind, size = _segment_sizes(a, b, units)
    counts = np.bincount(owner, size, hi - lo).astype(int)
    # node offset of each segment, with a target's segments at or near it
    # first
    order = np.argsort(2 * owner + (kind == 2), kind="stable")
    first = np.empty_like(size)
    first[order] = np.cumsum(size[order]) - size[order]
    pts = np.repeat(rules.targets[lo:hi], counts, axis=0)
    wts = np.empty(len(pts))
    for k, (x, wx) in enumerate(units):
        sel = kind == k
        if not sel.any():
            continue
        a0, h = a[sel, None], (b - a)[sel, None]
        wt = wtheta[sel, None]
        r = a0 + h * x
        at = (first[sel][:, None] + np.arange(len(x))).ravel()
        pts[at, 0] += (r * dx[sel, None]).ravel()
        pts[at, 1] += (r * dy[sel, None]).ravel()
        wts[at] = ((h**2 * wt) * (wx * x) + (h * a0 * wt) * wx).ravel()
    return pts, wts, counts


def polar_rules(spec: DomainSpec, targets, base: int = 48,
                n_r: int = 10) -> PolarRules:
    """Polar quadrature rules centered at targets (interior or on the
    boundary), one table for the set, targets in order.

    ``n_r`` is the radial order: n_r generalized Gaussian points on a
    segment at the target, 2 n_r substituted ones on a segment near it and
    n_r Gauss points on any other (see ``PolarRules``); an order without a
    generalized Gaussian table raises ``GeometryError``.  Interior targets
    get equispaced angles anchored at y's polar angle about the center.
    The analyticity width of their radial extent shrinks like
    sqrt(1 - level) toward the boundary, so their angular count is
    THETA_COUNT_COEFF / sqrt(1 - level),
    at least ``base``, at most THETA_COUNT_CAP, rounded up to even.
    Boundary targets (level within BOUNDARY_LEVEL_TOL of 1) get two
    width-pi angular windows of ``base`` nodes, about the interior normal
    and about the exterior one, with a quintic smoothstep substitution
    clustered at the tangential directions; their extent function is
    smooth again.  Their rays start from the boundary point on the radial
    line through them.  Either way, a rotation about the center that maps
    the domain onto itself maps y's rule onto its image's rule.  Every ray
    is integrated over all of its inside segments, so regions not visible
    from the target along a first crossing are still covered; a ray with
    none has no entry in the table.

    The set is built together: one level check and one table of x(t),
    x'(t) and x''(t) at the uniform parameters of the sight lines
    (SIGHT_SAMPLES_PER_MODE per cosine mode k >= 1, or for a disk), then
    per block of consecutive targets (``block_bounds``), whose sight-line
    samples and crossings fit in BLOCK_ENTRIES, one angle table (each
    target's ray angles from its origin, increasing, after the previous
    target's; all that ``_block_segments`` reads of the rays) and one
    ``_block_segments`` call, whose segments are appended to the set's
    table.  The samples are certified to miss no fold of a sight line
    (``_sight_angles``), so a ray's segments do not depend on the sample
    count, and each crossing's Newton refinement starts from an inverse
    Hermite guess (``_hermite_guess``, ``_radii``).  Every array operation
    is elementwise per target, per ray or per crossing, so each target's
    segments equal the ones it gets alone, bitwise.
    """
    gauss_log_01(n_r)           # refuses an order without a table
    y = as_points(targets)
    lev = spec.level(y)
    if (lev > 1.0 + BOUNDARY_LEVEL_TOL).any():
        raise GeometryError("polar rule target lies outside the domain")
    inner = lev < 1.0 - BOUNDARY_LEVEL_TOL
    q = y - spec.center
    s = np.arctan2(q[:, 1], q[:, 0])
    n = np.full(len(y), 2 * base)       # rays per target: two windows
    n[inner] = np.minimum(THETA_COUNT_CAP, np.maximum(base, np.ceil(
        THETA_COUNT_COEFF / np.sqrt(1.0 - lev[inner]))))
    n[inner] += n[inner] % 2
    # w0: the angle of each target's first ray, its radial one inside, the
    # tangent x'(s) on the boundary, where q becomes x(s) - c
    cos, sin = np.cos(s), np.sin(s)
    rho, drho = spec.profile(cos, sin)
    w0 = np.where(inner, s, np.arctan2(drho * sin + rho * cos,
                                       drho * cos - rho * sin))
    e = np.stack([cos, sin], axis=1)
    depth = np.where(inner, rho - np.hypot(q[:, 0], q[:, 1]), 0.0)
    dip = depth[:, None] * e
    q[~inner] = (rho[:, None] * e)[~inner]
    # the sight line's angular speed and size at both ends: dip x x'(s) /
    # |dip|^2 = rho / |dip| and |dip| inside; on the boundary the chord's
    # limit x'(s), turning at (x' x x'') / (2 |x'|^2)
    speed2 = rho * rho + drho * drho
    d0 = np.where(inner, rho / np.where(inner, depth, 1.0),
                  (speed2 + drho * drho - rho * spec.ddrho(s)) / (2 * speed2))
    f0 = np.where(inner, depth, np.sqrt(speed2))
    # the windows' angles from w0 and weights, interior window first; a
    # set without boundary targets reads only the tables' length
    levels = wlevels = np.zeros(2 * base)
    if not inner.all():
        sstep, dstep = _smoothstep(gauss_01(base)[0])
        levels = np.pi * np.concatenate([sstep, 1.0 + sstep])
        wlevels = np.pi * np.tile(dstep * gauss_01(base)[1], 2)
    N = SIGHT_SAMPLES_PER_MODE * max(1, len(spec.cos_coeffs) - 1)
    t = (2 * np.pi / N) * (np.arange(N) + 0.5)
    sights = (spec.boundary_point(t) - spec.center,
              spec.boundary_velocity(t), spec.boundary_acceleration(t))
    bounds = _sight_bounds(spec)

    # the table's columns, one piece per block
    table = {key: [np.empty(0)] for key in ("dx", "dy", "wtheta", "start",
                                            "end")}
    table["cuts"] = [np.zeros(1, dtype=int)]
    # per target: its sight-line samples, and its rays, about one crossing
    # each on a convex domain, whose Newton loop holds about four times a
    # sample's temporaries (at one weight per ray, the 1,536 grid targets
    # of the benchmark star at 64x24 peak 9 MB above their table, at four
    # 3 MB, as with the dense sampling)
    width = N + 1 + 4 * n
    for lo, hi in block_bounds(width.tolist()):
        # the block's angle table: each target's rays after the previous
        # target's, target lo + j on rays edges[j]:edges[j + 1]
        edges = np.concatenate([[0], np.cumsum(n[lo:hi])])
        owner = np.repeat(np.arange(lo, hi), n[lo:hi])
        k = np.arange(edges[-1]) - edges[owner - lo]
        ang, wtheta = 2 * np.pi * k / n[owner], 2 * np.pi / n[owner]
        win = ~inner[owner]
        ang[win], wtheta[win] = levels[k[win]], wlevels[k[win]]
        theta = w0[owner] + ang
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        block = [a[lo:hi] for a in (s, q, rho, dip, inner, w0, d0, f0)]
        start = np.flatnonzero(~win | (2 * k < len(levels)))
        ray, a, b = _block_segments(spec, sights, block, ang, dirs, edges,
                                    start, bounds)
        # per segment its ray's direction and weight and its ends; per
        # target its last segment, past the previous blocks'
        pieces = (dirs[ray, 0], dirs[ray, 1], wtheta[ray], a, b,
                  np.searchsorted(ray, edges[1:]) + table["cuts"][-1][-1])
        for column, piece in zip(table.values(), pieces):
            column.append(piece)
    # one column at a time: only its pieces and their copy coexist
    for key in table:
        table[key] = np.concatenate(table[key])
    return PolarRules(targets=y, n_r=n_r, **table)


def polar_rule_for_target(spec: DomainSpec, y, base: int = 48,
                          n_r: int = 10) -> PolarRules:
    """Polar quadrature rule centered at y: ``polar_rules`` of one target."""
    return polar_rules(spec, _as_point(y)[None, :], base, n_r)
