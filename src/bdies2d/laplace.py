"""Constant-coefficient (Laplace) layer operators on a closed smooth curve.

Sign conventions used throughout: with the fundamental solution
G(x, y) = log|x - y| / 2pi, the layer potentials carry a leading minus,

    single layer  S rho(y) = -int_S G(x, y) rho(x) dS(x)
    double layer  D tau(y) = -int_S dG/dn(x) (x, y) tau(x) dS(x)

so the unit double-layer density integrates to -1 inside, -1/2 on and 0
outside the boundary.

``layer_kernel_values`` is the one place G and its derivatives are
written; every block here and every volume kernel reads it.  On the curve,
S adds the Kress product rule for the periodic log singularity to the
table; the double-layer diagonal is curvature/2.  Off it, every layer
value is a row of ``layer_matrix_at_targets``: near the curve, the
trapezoid rule on upsampled nodes, folded back onto the curve nodes.
"""

from __future__ import annotations

import numpy as np
import numpy.fft  # numpy 2 loads it lazily, at first use
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import BoundaryCurve, as_points, cached

TWO_PI = 2.0 * np.pi

#: Safety coefficient in the upsampled near evaluation: the trapezoid error
#: for a target at distance d decays like exp(-N d / max|x'|).
NEAR_DECAY_MARGIN = 28.0
NEAR_UPSAMPLE_CAP = 1 << 19


class QuadratureError(RuntimeError):
    """A quadrature rule was used outside its validity region."""


def layer_kernel_values(kind, dx, dy, normals=None):
    """Laplace kernel at offsets x - y (source x, target y), given as the
    components ``dx`` and ``dy``; r^2 is floored at 1e-300.

    kind "s": -G(x, y); "d": -dG/dn(x) along ``normals`` = (nx, ny) at the
    sources; "gs": -grad_y G as a pair (gx, gy); "gs+s": the triple
    (gx, gy, -G) from one r^2.
    """
    r2 = dx * dx                            # in place: few n x n arrays
    r2 += dy * dy
    np.maximum(r2, 1e-300, out=r2)
    if kind == "d":
        num = dx * normals[0]
        num += dy * normals[1]
        return np.divide(num, r2, out=num) / -TWO_PI
    if kind not in ("s", "gs", "gs+s"):
        raise ValueError(f"unknown layer kind {kind!r}")
    # "gs" = +(x - y) / (2pi r^2), before -G takes r2's place
    g = () if kind == "s" else ((dx / r2) / TWO_PI, (dy / r2) / TWO_PI)
    if kind == "gs":
        return g
    np.multiply(np.log(r2, out=r2), -0.25, out=r2)
    s = np.divide(r2, np.pi, out=r2)
    return (*g, s) if g else s


def kress_log_weights(n: int) -> np.ndarray:
    """Row r (even) of the Kress weights R[i, j] = r[(i - j) mod n], which
    integrate f(tau) log(4 sin^2((t_i - tau)/2)) over [0, 2pi) exactly for
    trigonometric polynomials of degree < n/2."""
    d = (TWO_PI / n) * np.arange(n)
    m = np.arange(1, n // 2)
    r = -(4 * np.pi / n) * (np.cos(np.outer(d, m)) / m).sum(axis=1)
    r -= (4 * np.pi / (n * n)) * np.cos((n // 2) * d)
    return r


def single_layer_matrix(curve: BoundaryCurve) -> np.ndarray:
    """Direct-value single-layer matrix (nodal density -> nodal values).

    log|x_i - x_j| is log(4 sin^2((t_i - t_j)/2)) / 2, which the Kress
    weights R integrate, plus a smooth rest with limit log|x'(t_i)| at
    j = i.  So S is the table at the node offsets x_j - x_i, with the table
    at offset |x'(t_i)| on its diagonal, times the weights, plus the
    circulant of c(k) = -R_k/4pi + log(4 sin^2(pi k/n))/2n (c(0) =
    -R_0/4pi), a strided view of c, times the speeds.
    """
    n, (x, y) = curve.n, curve.points.T
    M = layer_kernel_values("s", x - x[:, None], y - y[:, None])
    np.fill_diagonal(M, layer_kernel_values("s", curve.speeds, 0.0))
    c = kress_log_weights(n) / (-2 * TWO_PI)
    c[1:] += np.log(4 * np.sin(np.pi * np.arange(1, n) / n) ** 2) / (2 * n)
    M *= TWO_PI / n
    M += sliding_window_view(np.concatenate([c, c]), n)[n:0:-1]
    M *= curve.speeds
    return M


def double_layer_matrix(curve: BoundaryCurve) -> np.ndarray:
    """Direct-value double-layer matrix; diagonal is curvature/2.

    The sign convention is pinned by the Gauss identity: row sums must be
    -1/2 to quadrature accuracy.  A gross defect (sign or diagonal-constant
    error) raises.
    """
    x, y = curve.points.T
    M = layer_kernel_values("d", x - x[:, None], y - y[:, None],
                            curve.normals.T)
    np.fill_diagonal(M, -curve.curvatures / (2 * TWO_PI))
    M *= curve.weights
    defect = float(np.abs(M.sum(axis=1) + 0.5).max())
    if defect > 0.05:
        raise QuadratureError(
            f"double-layer Gauss identity defect {defect:.3g}; "
            "sign or diagonal convention is broken")
    return M


def adjoint_double_layer_matrix(curve: BoundaryCurve) -> np.ndarray:
    """Direct values of the normal derivative of the single layer: the
    weighted transpose D'[i, j] = D[j, i] w_j / w_i of the curve's stored
    block "d" (the one ``potentials`` reads)."""
    w = curve.weights
    M = cached(curve, "d", lambda: double_layer_matrix(curve)).T * w
    M /= w[:, None]
    return M


def _upsample_counts(curve: BoundaryCurve, dists: np.ndarray) -> np.ndarray:
    """Node counts n * 2^k (so the coarse nodes embed in the fine lattice)
    making the trapezoid rule converged at each distance, at most
    max(n, NEAR_UPSAMPLE_CAP); a distance that needs more raises."""
    n, speed = curve.n, curve.max_speed()
    top = n << (max(NEAR_UPSAMPLE_CAP // n, 1).bit_length() - 1)
    need = NEAR_DECAY_MARGIN * speed / np.maximum(dists, 1e-300)
    if (need > top).any():
        raise QuadratureError(
            f"target at distance {dists.min():.3g} from the curve needs more "
            f"than {top} upsampled nodes, which resolve distances down to "
            f"{NEAR_DECAY_MARGIN * speed / top:.3g}")
    return n << np.ceil(np.log2(np.maximum(need / n, 1.0))).astype(int)


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
    modes |k| <= n/2, the Nyquist mode split.  Targets sharing N are
    tabled and folded together, min(n^2, ``NEAR_UPSAMPLE_CAP``) entries at
    most (one direct block) at a time.  The fine nodes are the curve's
    ``fine_nodes``: one entry per curve, at the largest N used so far, of
    at most max(n, ``NEAR_UPSAMPLE_CAP``) nodes.  Gradient "gs" gives
    (m, n, 2).
    """
    tg = as_points(targets)
    n = curve.n
    counts = _upsample_counts(curve, curve.distance_to(tg))
    out = np.empty((len(tg), n, 2 if kind == "gs" else 1))
    # not np.unique, whose masked-array check would import numpy.ma here
    for N in sorted(set(counts.tolist())):
        points, normals, speeds = curve.fine_nodes(N)
        px, py = points.T
        normals, w = normals.T, speeds * (TWO_PI / N)
        idx = np.flatnonzero(counts == N)
        step = max(min(n * n, NEAR_UPSAMPLE_CAP) // N, 1)
        for rows in np.split(idx, range(step, len(idx), step)):
            g = layer_kernel_values(kind, px - tg[rows, :1],
                                    py - tg[rows, 1:], normals)
            for c, part in enumerate(g if kind == "gs" else (g,)):
                part *= w
                if N > n:
                    part = np.fft.irfft(np.fft.rfft(part)[:, :n // 2 + 1], n)
                out[rows, :, c] = part
    return out if kind == "gs" else out[..., 0]
