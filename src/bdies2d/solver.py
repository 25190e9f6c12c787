"""Assembly and solution of the coupled domain/boundary collocation system.

Unknowns are the nodal values of u on the grid and of its conormal flux
psi on the curve, treated as independent.  Everything here is one
identity, the parametrix-based third Green identity u = P f - R u + V psi
- W g at interior points, and its trace on the boundary, where W g jumps
by -g/2: ``_rows`` builds R and V, ``_data`` the term P f - W g.  The
system collocates it at the grid nodes and its trace, with u = g, at the
curve nodes:

    u + R u - V psi          = P f - W g              (grid nodes)
    trace(R u) - V_dir psi   = trace(P f - W g) - g   (boundary nodes)

``evaluate`` applies the identity to the solved (u, psi) inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import potentials
from .coefficient import Coefficient
from .geometry import (BOUNDARY_LEVEL_TOL, BoundaryCurve, DomainGrid,
                       DomainSpec, GeometryError, as_points)
from .potentials import BoundaryDensity, DomainField


class DiameterError(GeometryError):
    """Domain diameter precondition for unique solvability violated."""


class LanczosBreakdown(RuntimeError):
    """Golub-Kahan-Lanczos bidiagonalisation stopped before its leading
    singular values settled."""


#: Seed of the fixed start vector of ``top_singular_values``.
LANCZOS_SEED = 0
#: Its stop: the leading values move by at most this times the largest
#: between two checks of the Ritz values, which are LANCZOS_CHECK steps
#: apart (the SVD of a j x j bidiagonal per check costs O(j^3)).
LANCZOS_TOL = 1e-13
LANCZOS_CHECK = 4
#: Order below which ``_triangular_inverse`` calls ``np.linalg.inv``.
TRIANGULAR_LEAF = 64


def _orthonormalise(x: np.ndarray, Q: np.ndarray):
    """(norm, x / norm) for x with the span of Q's orthonormal rows
    projected out by classical Gram-Schmidt, a second time when the first
    pass cancelled more than 1 - 1/sqrt(2) of x's norm (Daniel, Gragg,
    Kaufman & Stewart, 1976: twice is enough)."""
    before = np.linalg.norm(x)
    x = x - Q.T @ (Q @ x)
    norm = float(np.linalg.norm(x))
    if norm < math.sqrt(0.5) * before:
        x = x - Q.T @ (Q @ x)
        norm = float(np.linalg.norm(x))
    if not norm > 0.0:
        raise LanczosBreakdown(
            f"Golub-Kahan-Lanczos broke down after {len(Q)} vectors: its "
            "Krylov space is invariant before the leading singular values "
            "settled")
    return norm, x / norm


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular R by halves: the inverse of
    [[P, W], [0, S]] is [[inv(P), -inv(P) W inv(S)], [0, inv(S)]], so
    everything but the inverses of diagonal blocks of order below
    TRIANGULAR_LEAF is GEMM work.  A zero on the diagonal raises numpy's
    ``LinAlgError``."""
    n = len(R)
    if n < TRIANGULAR_LEAF:
        return np.linalg.inv(R)
    h = n // 2
    P, S = _triangular_inverse(R[:h, :h]), _triangular_inverse(R[h:, h:])
    X = np.zeros_like(R)
    X[:h, :h], X[h:, h:] = P, S
    X[:h, h:] = -(P @ R[:h, h:]) @ S
    return X


def top_singular_values(A: np.ndarray, k: int) -> np.ndarray:
    """The k largest singular values of A, in decreasing order, by
    Golub-Kahan-Lanczos bidiagonalisation (Golub & Kahan, 1965).

    From a fixed start vector, step j adds one column to V and U, with
    A V = U B for upper-bidiagonal B, using one product with A and one
    with A.T; both bases are kept orthonormal in full (``_orthonormalise``).
    Every LANCZOS_CHECK steps the k largest singular values of B are
    taken; the loop returns them once they moved by at most LANCZOS_TOL
    times the largest since the last check, or once B has min(m, n)
    columns, when they are A's own.  A zero matrix returns zeros.  Raises
    ``LanczosBreakdown`` if a new column has norm 0 before that.
    """
    m, n = A.shape
    k = min(k, m, n)
    if not A.any():
        return np.zeros(k)
    steps = min(m, n)
    U, V = np.empty((steps, m)), np.empty((steps, n))
    alpha, beta = np.empty(steps), np.empty(steps)
    v = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    V[0] = v / np.linalg.norm(v)
    prev = None
    for j in range(steps):
        u = A @ V[j]
        if j:
            u -= beta[j - 1] * U[j - 1]
        alpha[j], U[j] = _orthonormalise(u, U[:j])
        last = j + 1 == steps
        if j + 1 >= k and ((j + 1 - k) % LANCZOS_CHECK == 0 or last):
            B = np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1)
            theta = np.linalg.svd(B, compute_uv=False)[:k]
            if last or (prev is not None and np.abs(theta - prev).max()
                        <= LANCZOS_TOL * theta[0]):
                return theta
            prev = theta
        beta[j], V[j + 1] = _orthonormalise(A.T @ U[j] - alpha[j] * V[j],
                                            V[:j + 1])


@dataclass
class BdieSystem:
    """Assembled block system, optionally with attached right-hand side."""

    curve: BoundaryCurve
    grid: DomainGrid
    coeff: Coefficient
    family: str
    matrix: np.ndarray
    projected: bool
    rhs: Optional[np.ndarray] = None
    f: Optional[DomainField] = None
    phi0: Optional[BoundaryDensity] = None
    _svals: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_h(self) -> int:
        return self.grid.n_nodes

    @property
    def n_b(self) -> int:
        return self.curve.n

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def _singular_values(self) -> np.ndarray:
        """(sigma_max, sigma_min) of the matrix, computed once.

        sigma_max is the top singular value of A and sigma_min = 1 /
        sigma_max(inv(R)), both by ``top_singular_values``, for R of the QR
        factorisation A = QR: Q is orthogonal, so inv(R) = inv(A) Q has the
        singular values of inv(A).  numpy keeps no LU factors to apply
        inv(A) by, and its explicit inverse spends most of its time in
        triangular solves against n right-hand sides; the QR and
        ``_triangular_inverse`` cost less.  An exact zero on R's diagonal,
        as from a zero column of A, gives sigma_min = 0."""
        if self._svals is None:
            A = self.matrix
            try:
                inv_norm = top_singular_values(
                    _triangular_inverse(np.linalg.qr(A, mode="r")), 1)[0]
            except np.linalg.LinAlgError:
                inv_norm = np.inf
            self._svals = np.array([top_singular_values(A, 1)[0],
                                    1.0 / inv_norm])
        return self._svals

    @property
    def cond(self) -> float:
        s = self._singular_values()
        return float(s[0] / s[-1]) if s[-1] > 0 else float("inf")

    @property
    def sigma_min(self) -> float:
        return float(self._singular_values()[-1])

    def with_data(self, f: DomainField, phi0: BoundaryDensity) -> "BdieSystem":
        """Attach Dirichlet data and source, building the right-hand side."""
        rhs_grid, rhs_trace = assemble_rhs(self.curve, self.grid, self.coeff,
                                           self.family, f, phi0)
        rhs = np.concatenate([rhs_grid, rhs_trace - phi0.values])
        if self.projected:
            rhs = np.concatenate([rhs, [0.0]])
        return replace(self, rhs=rhs, f=f, phi0=phi0)


def _rows(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
          family: str, tg=None):
    """(R, V): the remainder and single-layer rows at targets ``tg``, or
    their traces at the curve nodes when ``tg`` is None.

    Calling it before ``_data`` at the same targets costs least: the
    remainder pass then builds the log rows that the volume potential
    reads from the same cardinal evaluation, where the reverse order
    evaluates the cardinals twice."""
    V = potentials.layer_rows(curve, coeff, family, "V", tg)
    R = potentials.remainder_rows(grid, coeff, family,
                                  curve.points if tg is None else tg)
    return R, V


def _data(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
          family: str, f: DomainField, phi0: BoundaryDensity, tg=None):
    """P f - W g at targets ``tg``, or its trace at the curve nodes when
    ``tg`` is None, where the interior jump trace(W g) = W_dir g - g/2
    adds g/2.  Cheapest after ``_rows`` (see there)."""
    pf = potentials.volume_potential(grid, coeff, family, f,
                                     curve.points if tg is None else tg)
    if tg is None:
        pf = pf + 0.5 * phi0.values
    W = potentials.layer_rows(curve, coeff, family, "W", tg)
    return pf - W @ phi0.values


def check_diameter(spec: DomainSpec, allow_large_domain: bool = False):
    """Raise ``DiameterError`` for a domain of diameter >= 1, where the
    single-layer operator may be singular, unless ``allow_large_domain``."""
    diam = spec.diameter()
    if diam >= 1.0 and not allow_large_domain:
        raise DiameterError(
            f"domain diameter {diam:.6g} >= 1: the single-layer operator is "
            "only guaranteed invertible for diameter < 1; rescale the domain "
            "or set allow_large_domain to use the zero-mean projected system")


def assemble_system(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
                    family: str, allow_large_domain: bool = False) -> BdieSystem:
    """Assemble the dense block matrix of the collocation system.

    Requires diam < 1, where the discrete single-layer operator (and with
    it the whole system) is provably invertible.  With
    ``allow_large_domain`` the boundary unknown is instead constrained to
    the discrete zero-mean subspace through a bordered system (diagnostic
    path; the boundary equation gains a free additive constant).
    """
    potentials._check_family(family)
    check_diameter(curve.spec, allow_large_domain)

    n_h, n_b = grid.n_nodes, curve.n
    projected = bool(allow_large_domain)
    # traces first, so the curve's direct Laplace blocks precede every
    # remainder pass: the other way round, the peak RSS of a CLI solve
    # reads 1 MB higher (disk r=0.4, 96/24x10)
    R_bh, V_bb = _rows(curve, grid, coeff, family)
    R_hh, V_hb = _rows(curve, grid, coeff, family, grid.points)
    n, b = n_h + n_b + projected, slice(n_h, n_h + n_b)
    A = np.zeros((n, n))
    A[:n_h, :n_h] = R_hh
    A[:n_h, b] = -V_hb
    A[b, :n_h] = R_bh
    A[b, b] = -V_bb
    A[range(n_h), range(n_h)] += 1.0
    if projected:
        A[n_h:-1, -1] = 1.0                  # free constant in the boundary eq
        A[-1, n_h:-1] = curve.weights        # <psi, 1> = 0

    if not np.all(np.isfinite(A)):
        raise RuntimeError("system assembly produced non-finite entries")
    return BdieSystem(curve=curve, grid=grid, coeff=coeff, family=family,
                      matrix=A, projected=projected)


def assemble_rhs(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
                 family: str, f: DomainField, phi0: BoundaryDensity):
    """Right-hand side fields: F0 at the grid nodes, its trace at the curve.

    F0 = P f - W g, the volume potential of the source minus the double
    layer of the Dirichlet data.  The trace is composed from direct-value
    operators and the jump constant, never from near-boundary potential
    evaluation.
    """
    return (_data(curve, grid, coeff, family, f, phi0, grid.points),
            _data(curve, grid, coeff, family, f, phi0))


@dataclass(frozen=True, eq=False)
class DirichletSolution:
    """Solved nodal field and flux, with a representation-formula evaluator."""

    system: BdieSystem
    u: DomainField
    psi: BoundaryDensity
    residual: float

    def evaluate(self, points, allow_near: bool = False) -> np.ndarray:
        """Reconstruct u at interior points from the solved densities.

        ``allow_near`` admits points within ``delta_near`` of the boundary,
        never points on it (level within ``BOUNDARY_LEVEL_TOL`` of 1).
        Points must be finite, of shape (m, 2) or one pair."""
        sys = self.system
        tg = as_points(points)
        if (sys.grid.spec.level(tg) >= 1.0 - BOUNDARY_LEVEL_TOL).any():
            raise GeometryError(
                "evaluation point on the boundary or outside the domain")
        if not allow_near:
            d = sys.curve.distance_to(tg)
            dn = potentials.delta_near(sys.curve)
            if (d < dn).any():
                raise GeometryError(
                    f"evaluation point at distance {d.min():.3e} from the "
                    f"boundary (nearer than {dn:.3e}); interpolate the nodal "
                    "field or evaluate farther inside")
        R, V = _rows(sys.curve, sys.grid, sys.coeff, sys.family, tg)
        return (_data(sys.curve, sys.grid, sys.coeff, sys.family, sys.f,
                      sys.phi0, tg)
                - R @ self.u.values + V @ self.psi.values)


def solve_dirichlet(system: BdieSystem) -> DirichletSolution:
    """Dense direct solve of the assembled system with attached data."""
    if system.rhs is None:
        raise ValueError("system has no right-hand side; call with_data first")
    A, b = system.matrix, system.rhs
    # gesv raises exactly when its LU factorisation meets a zero pivot
    try:
        z = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise RuntimeError(
            "singular system matrix; check the domain diameter and grid "
            "preconditions") from None
    if not np.all(np.isfinite(z)):
        raise RuntimeError("linear solve produced non-finite values")
    denom = float(np.abs(b).max())
    residual = float(np.abs(A @ z - b).max() / denom) if denom > 0 else 0.0
    n_h = system.n_h
    u = DomainField(system.grid, z[:n_h])
    psi = BoundaryDensity(system.curve, z[n_h:n_h + system.n_b])
    return DirichletSolution(system=system, u=u, psi=psi, residual=residual)


def solve_bvp(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
              family: str, f: DomainField, phi0: BoundaryDensity,
              allow_large_domain: bool = False) -> DirichletSolution:
    """Assemble and solve in one step."""
    system = assemble_system(curve, grid, coeff, family, allow_large_domain)
    return solve_dirichlet(system.with_data(f, phi0))


def third_green_residual(u: DomainField, psi: BoundaryDensity, f: DomainField,
                         phi0: BoundaryDensity, curve: BoundaryCurve,
                         grid: DomainGrid, coeff: Coefficient, family: str,
                         targets=None) -> np.ndarray:
    """Defect u + R u - V psi - (P f - W g) of the identity at the
    targets, or, when ``targets`` is None, of its trace, with u = g, at
    the curve nodes."""
    tg = None if targets is None else as_points(targets)
    lhs = phi0.values if tg is None else u.at(tg)
    R, V = _rows(curve, grid, coeff, family, tg)
    return (lhs + R @ u.values - V @ psi.values
            - _data(curve, grid, coeff, family, f, phi0, tg))
