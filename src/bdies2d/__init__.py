"""Boundary-domain integral equation solver for the 2D Dirichlet problem
with a variable diffusion coefficient, plus its verification harness."""

from .coefficient import Coefficient, CoefficientError, make_preset, validate_derivatives
from .geometry import (BoundaryCurve, DomainGrid, DomainSpec, GeometryError,
                       PolarRules, build_curve, build_domain_grid,
                       polar_rule_for_target, rule_nodes)
from .laplace import QuadratureError
from .potentials import (BoundaryDensity, DomainField, delta_near,
                         remainder_potential, volume_potential)
from .solver import (BdieSystem, DiameterError, DirichletSolution,
                     assemble_rhs, assemble_system, solve_bvp,
                     solve_dirichlet, third_green_residual)
from .verification import (ManufacturedCase, StudyReport, convergence_study,
                           fd_oracle, identity_suite, manufactured_case)

__all__ = [
    "BdieSystem", "BoundaryCurve", "BoundaryDensity", "Coefficient",
    "CoefficientError", "DiameterError", "DirichletSolution", "DomainField",
    "DomainGrid", "DomainSpec", "GeometryError", "ManufacturedCase",
    "PolarRules", "QuadratureError", "StudyReport", "assemble_rhs",
    "assemble_system", "build_curve", "build_domain_grid",
    "convergence_study", "delta_near", "fd_oracle",
    "identity_suite", "make_preset", "manufactured_case",
    "polar_rule_for_target", "remainder_potential", "rule_nodes",
    "solve_bvp", "solve_dirichlet", "third_green_residual",
    "validate_derivatives", "volume_potential",
]

__version__ = "0.1.0"
