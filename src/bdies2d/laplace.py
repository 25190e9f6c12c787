"""Constant-coefficient (Laplace) layer operators on a closed smooth curve.

Sign conventions used throughout: with the fundamental solution
G(x, y) = log|x - y| / 2pi, the layer potentials carry a leading minus,

    single layer  S rho(y) = -int_S G(x, y) rho(x) dS(x)
    double layer  D tau(y) = -int_S dG/dn(x) (x, y) tau(x) dS(x)

so the unit double-layer density integrates to -1 inside, -1/2 on and 0
outside the boundary.  Direct values on the curve use the spectrally
accurate product quadrature for the periodic log singularity; the smooth
double-layer diagonal is curvature/2.

Off the curve, every layer value is a row of ``layer_matrix_at_targets``
applied to the nodal density.  Near the curve that row is the trapezoid
rule on enough upsampled nodes, folded back onto the curve nodes.
"""

from __future__ import annotations

import numpy as np
import numpy.fft  # numpy 2 loads it lazily, at first use

from .geometry import BoundaryCurve

TWO_PI = 2.0 * np.pi

#: Safety coefficient in the upsampled near evaluation: the trapezoid error
#: for a target at distance d decays like exp(-N d / max|x'|).
NEAR_DECAY_MARGIN = 28.0
NEAR_UPSAMPLE_CAP = 1 << 19


class QuadratureError(RuntimeError):
    """A quadrature rule was used outside its validity region."""


# ---------------------------------------------------------------------------
# Direct values on the curve
# ---------------------------------------------------------------------------

def kress_log_weights(n: int) -> np.ndarray:
    """Product-rule weights R[i, j] for the periodic log kernel.

    Integrates f(tau) * log(4 sin^2((t_i - tau)/2)) over [0, 2pi) exactly
    for trigonometric polynomials of degree < n/2.  The weights depend
    only on i - j, so they are built from one row.
    """
    i = np.arange(n)
    d = (TWO_PI / n) * i
    m = np.arange(1, n // 2)
    r = -(4 * np.pi / n) * (np.cos(np.outer(d, m)) / m).sum(axis=1)
    r -= (4 * np.pi / (n * n)) * np.cos((n // 2) * d)
    return r[(i[:, None] - i[None, :]) % n]


def single_layer_matrix(curve: BoundaryCurve) -> np.ndarray:
    """Direct-value single-layer matrix (nodal density -> nodal values)."""
    n = curve.n
    x = curve.points
    dx = x[:, None, :] - x[None, :, :]
    r2 = (dx * dx).sum(-1)
    dt = curve.t[:, None] - curve.t[None, :]
    s2 = 4.0 * np.sin(dt / 2) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        smooth = 0.5 * np.log(r2 / s2)
    np.fill_diagonal(smooth, np.log(curve.speeds))
    R = kress_log_weights(n)
    M = -(0.5 * R + (TWO_PI / n) * smooth) / TWO_PI
    return M * curve.speeds[None, :]


def double_layer_matrix(curve: BoundaryCurve) -> np.ndarray:
    """Direct-value double-layer matrix; diagonal is curvature/2.

    The sign convention is pinned by the Gauss identity: row sums must be
    -1/2 to quadrature accuracy.  A gross defect (sign or diagonal-constant
    error) raises.
    """
    M = _dipole_matrix(curve, normals_at="source")
    defect = float(np.abs(M.sum(axis=1) + 0.5).max())
    if defect > 0.05:
        raise QuadratureError(
            f"double-layer Gauss identity defect {defect:.3g}; "
            "sign or diagonal convention is broken")
    return M


def adjoint_double_layer_matrix(curve: BoundaryCurve) -> np.ndarray:
    """Direct values of the normal derivative of the single layer."""
    return _dipole_matrix(curve, normals_at="target")


def _dipole_matrix(curve: BoundaryCurve, normals_at: str) -> np.ndarray:
    n = curve.n
    x = curve.points
    dx = x[None, :, :] - x[:, None, :]        # x_j - x_i
    r2 = (dx * dx).sum(-1)
    np.fill_diagonal(r2, 1.0)
    if normals_at == "source":
        D = (dx * curve.normals[None, :, :]).sum(-1) / r2
    else:
        D = -(dx * curve.normals[:, None, :]).sum(-1) / r2
    np.fill_diagonal(D, curve.curvatures / 2)
    return -(1.0 / TWO_PI) * D * curve.weights[None, :]


# ---------------------------------------------------------------------------
# Off-boundary evaluation (upsampled near rules)
# ---------------------------------------------------------------------------

def _upsample_counts(curve: BoundaryCurve, dists: np.ndarray) -> np.ndarray:
    """Node counts making the trapezoid rule converged at each distance.

    Counts are n * 2^k so the coarse nodes embed in the fine lattice.
    """
    need = NEAR_DECAY_MARGIN * curve.max_speed() / np.maximum(dists, 1e-300)
    ratio = np.maximum(need / curve.n, 1.0)
    k = np.ceil(np.log2(ratio)).astype(int)
    k = np.minimum(k, max(int(np.log2(max(NEAR_UPSAMPLE_CAP // curve.n, 1))), 0))
    return curve.n * (1 << k)


def layer_kernel_values(kind, y, x, normals):
    """Weighted kernel factor for a layer of the given kind at target y.

    kind "s": -G(x, y); "d": -dG/dn(x); "gs": -grad_y G (two components).
    """
    d = x - y[None, :]
    r2 = (d * d).sum(-1)
    if kind == "s":
        return -0.25 * np.log(r2) / np.pi
    if kind == "d":
        return -((d * normals).sum(-1) / r2) / TWO_PI
    if kind == "gs":
        return (d / r2[:, None]) / TWO_PI   # -grad_y G = +(x-y)/(2pi r^2)
    raise ValueError(f"unknown layer kind {kind!r}")


def layer_eval(curve: BoundaryCurve, kind: str, density: np.ndarray,
               targets):
    """Layer potential of a nodal density at off-boundary targets: the
    rows of ``layer_matrix_at_targets`` applied to the density.  Gradient
    kind "gs" returns an (m, 2) array.
    """
    rows = layer_matrix_at_targets(curve, kind, targets)
    return np.moveaxis(rows, 1, -1) @ np.asarray(density, dtype=float)


def layer_matrix_at_targets(curve: BoundaryCurve, kind: str,
                            targets) -> np.ndarray:
    """Matrix mapping nodal density values to layer values at targets.

    Each target gets its kernel row on N = n * 2^k nodes, enough for the
    trapezoid rule to converge at its distance from the curve (N = n far
    from it).  Applying that row to the trigonometric interpolant of the
    density equals applying its fold onto the n nodes: the fine row's
    modes |k| <= n/2, the Nyquist mode split.  Gradient kind "gs" returns
    an (m, n, 2) array.
    """
    tg = np.atleast_2d(np.asarray(targets, dtype=float))
    n = curve.n
    counts = _upsample_counts(curve, curve.distance_to(tg))
    out = np.empty((len(tg), n, 2) if kind == "gs" else (len(tg), n))
    # not np.unique, whose masked-array check would import numpy.ma here
    for N in sorted(set(counts.tolist())):
        T = TWO_PI * np.arange(N) / N
        x, normals = curve.spec.boundary_point(T), curve.spec.boundary_normal(T)
        w = curve.spec.boundary_speed(T) * (TWO_PI / N)
        if kind == "gs":
            w = w[:, None]
        for i in np.nonzero(counts == N)[0]:
            g = layer_kernel_values(kind, tg[i], x, normals) * w
            if N > n:
                g = np.fft.irfft(np.fft.rfft(g, axis=0)[:n // 2 + 1], n, axis=0)
            out[i] = g
    return out
