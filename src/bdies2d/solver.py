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
        if self._svals is None:
            self._svals = np.linalg.svd(self.matrix, compute_uv=False)
        return self._svals

    @property
    def cond(self) -> float:
        s = self._singular_values()
        return float(s[0] / s[-1])

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

    Call it before ``_data`` at the same targets: the remainder pass also
    stores the log rows that the volume potential reads, which the reverse
    order would build twice."""
    V = potentials.layer_rows(curve, coeff, family, "V", tg)
    R = potentials.remainder_rows(grid, coeff, family,
                                  curve.points if tg is None else tg)
    return R, V


def _data(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
          family: str, f: DomainField, phi0: BoundaryDensity, tg=None):
    """P f - W g at targets ``tg``, or its trace at the curve nodes when
    ``tg`` is None, where the interior jump trace(W g) = W_dir g - g/2
    adds g/2.  Call ``_rows`` first (see there)."""
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
