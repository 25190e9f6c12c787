"""Assembly and solution of the coupled domain/boundary collocation system.

Unknowns are the solution values at the interior grid nodes and the
conormal derivative (flux) at the boundary nodes, treated as independent.
The interior equation is collocated at the grid nodes, the boundary
equation at the curve nodes:

    u + R u - V psi          = F0           (grid nodes)
    trace(R u) - V_dir psi   = trace(F0) - g (boundary nodes)

with F0 built from the volume potential of the source and the double layer
of the Dirichlet data g.  Solving the square dense system and inserting
(u, psi) into the representation formula reconstructs u anywhere inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from . import potentials
from .coefficient import Coefficient
from .geometry import (BOUNDARY_LEVEL_TOL, BoundaryCurve, DomainGrid,
                       GeometryError)
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
            self._svals = scipy.linalg.svdvals(self.matrix)
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
        new = BdieSystem(curve=self.curve, grid=self.grid, coeff=self.coeff,
                         family=self.family, matrix=self.matrix,
                         projected=self.projected, rhs=rhs, f=f, phi0=phi0)
        new._svals = self._svals
        return new


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
    diam = curve.spec.diameter()
    if diam >= 1.0 and not allow_large_domain:
        raise DiameterError(
            f"domain diameter {diam:.6g} >= 1: the single-layer operator is "
            "only guaranteed invertible for diameter < 1; rescale the domain "
            "or opt into the zero-mean projected system")

    n_h, n_b = grid.n_nodes, curve.n
    V_bb = potentials.single_layer_direct_matrix(curve, coeff, family)
    V_hb = potentials.single_layer_matrix_at_targets(curve, coeff, family,
                                                     grid.points)
    R_hh = potentials.remainder_rows(grid, coeff, family, grid.points)
    R_bh = potentials.remainder_rows(grid, coeff, family, curve.points)

    A = np.zeros((n_h + n_b, n_h + n_b))
    A[:n_h, :n_h] = np.eye(n_h) + R_hh
    A[:n_h, n_h:] = -V_hb
    A[n_h:, :n_h] = R_bh
    A[n_h:, n_h:] = -V_bb

    projected = bool(allow_large_domain)
    if projected:
        B = np.zeros((n_h + n_b + 1, n_h + n_b + 1))
        B[:-1, :-1] = A
        B[n_h:-1, -1] = 1.0                  # free constant in the boundary eq
        B[-1, n_h:-1] = curve.weights        # <psi, 1> = 0
        A = B

    if not np.all(np.isfinite(A)):
        raise RuntimeError("system assembly produced non-finite entries")
    return BdieSystem(curve=curve, grid=grid, coeff=coeff, family=family,
                      matrix=A, projected=projected)


def assemble_rhs(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
                 family: str, f: DomainField, phi0: BoundaryDensity):
    """Right-hand side fields: F0 at the grid nodes, its trace at the curve.

    F0 is the volume potential of the source minus the double layer of the
    Dirichlet data.  The trace is composed from direct-value operators and
    the jump constant, never from near-boundary potential evaluation.
    """
    tg = grid.points
    pf_grid = potentials.volume_potential(grid, coeff, family, f, tg)
    pf_trace = potentials.volume_potential(grid, coeff, family, f,
                                           curve.points)
    w_grid = potentials.layer_rows(curve, coeff, family, "W", tg) @ phi0.values
    W_dir = potentials.double_layer_direct_matrix(curve, coeff, family)
    # trace(W tau) = -tau/2 + W_dir tau from the interior jump relation
    rhs_grid = pf_grid - w_grid
    rhs_trace = pf_trace + 0.5 * phi0.values - W_dir @ phi0.values
    return rhs_grid, rhs_trace


@dataclass(frozen=True, eq=False)
class DirichletSolution:
    """Solved nodal field and flux, with a representation-formula evaluator."""

    system: BdieSystem
    u: DomainField
    psi: BoundaryDensity
    residual: float
    multiplier: float = 0.0

    def evaluate(self, points, allow_near: bool = False) -> np.ndarray:
        """Reconstruct u at interior points from the solved densities.

        ``allow_near`` admits points within ``delta_near`` of the boundary,
        never points on it (level within ``BOUNDARY_LEVEL_TOL`` of 1)."""
        sys = self.system
        tg = np.atleast_2d(np.asarray(points, dtype=float))
        lev = sys.grid.spec.level(tg)
        if (lev >= 1.0 - BOUNDARY_LEVEL_TOL).any():
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
        return _representation(sys.curve, sys.grid, sys.coeff, sys.family,
                               self.u, self.psi, sys.f, sys.phi0, tg)


def _representation(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
                    family: str, u: DomainField, psi: BoundaryDensity,
                    f: DomainField, phi0: BoundaryDensity, tg) -> np.ndarray:
    """P f - R u + V psi - W g at interior targets: the representation
    formula for u there, given the solved or exact (u, psi) and data."""
    # the remainder pass also stores the log rows the volume term reads
    ru = potentials.remainder_potential(grid, coeff, family, u, tg)
    pf = potentials.volume_potential(grid, coeff, family, f, tg)
    v = potentials.layer_rows(curve, coeff, family, "V", tg) @ psi.values
    w = potentials.layer_rows(curve, coeff, family, "W", tg) @ phi0.values
    return pf - ru + v - w


def solve_dirichlet(system: BdieSystem) -> DirichletSolution:
    """Dense direct solve of the assembled system with attached data."""
    if system.rhs is None:
        raise ValueError("system has no right-hand side; call with_data first")
    A, b = system.matrix, system.rhs
    try:
        lu, piv = scipy.linalg.lu_factor(A)
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(
            "singular system matrix; check the domain diameter and grid "
            "preconditions") from exc
    z = scipy.linalg.lu_solve((lu, piv), b)
    if not np.all(np.isfinite(z)):
        raise RuntimeError("linear solve produced non-finite values")
    denom = float(np.abs(b).max())
    residual = float(np.abs(A @ z - b).max() / denom) if denom > 0 else 0.0
    n_h = system.n_h
    u = DomainField(system.grid, z[:n_h])
    psi = BoundaryDensity(system.curve, z[n_h:n_h + system.n_b])
    lam = float(z[-1]) if system.projected else 0.0
    return DirichletSolution(system=system, u=u, psi=psi,
                             residual=residual, multiplier=lam)


def solve_bvp(curve: BoundaryCurve, grid: DomainGrid, coeff: Coefficient,
              family: str, f: DomainField, phi0: BoundaryDensity,
              allow_large_domain: bool = False) -> DirichletSolution:
    """Assemble and solve in one step."""
    system = assemble_system(curve, grid, coeff, family, allow_large_domain)
    return solve_dirichlet(system.with_data(f, phi0))


def third_green_residual(u: DomainField, psi: BoundaryDensity, f: DomainField,
                         phi0: BoundaryDensity, curve: BoundaryCurve,
                         grid: DomainGrid, coeff: Coefficient, family: str,
                         targets=None, on_boundary: bool = False) -> np.ndarray:
    """Defect of the representation identity for given (u, psi) data.

    Interior form:  u + R u - V psi + W g - P f  at the targets.
    Boundary form:  g/2 + trace(R u) - V_dir psi + W_dir g - trace(P f)
    at the curve nodes (g is the Dirichlet trace).
    """
    if on_boundary:
        tg = curve.points
        ru = potentials.remainder_potential(grid, coeff, family, u, tg)
        pf = potentials.volume_potential(grid, coeff, family, f, tg)
        V_dir = potentials.single_layer_direct_matrix(curve, coeff, family)
        W_dir = potentials.double_layer_direct_matrix(curve, coeff, family)
        return (0.5 * phi0.values + ru - V_dir @ psi.values
                + W_dir @ phi0.values - pf)

    tg = np.atleast_2d(np.asarray(targets, dtype=float))
    return u.at(tg) - _representation(curve, grid, coeff, family, u, psi, f,
                                      phi0, tg)
