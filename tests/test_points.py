"""Caller point sets: every function that takes points converts them with
``geometry.as_points`` once, so non-finite or misshapen points raise
``GeometryError`` at the entry and an empty set gives an empty result."""

import subprocess
import sys

import numpy as np
import pytest
from test_cli import fresh_env

from bdies2d import laplace, potentials, solver
from bdies2d import verification as V
from bdies2d.coefficient import CoefficientError, validate_derivatives
from bdies2d.geometry import (DomainSpec, GeometryError, build_curve,
                              build_domain_grid, polar_rule_for_target)
from bdies2d.potentials import BoundaryDensity

STAR = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(0.3, 0.0, 0.03))
CURVE = build_curve(STAR, 32)
GRID = build_domain_grid(STAR, 16, 8)
CASE = V.manufactured_case("exp_saddle")
A = CASE.coeff
F = CASE.f_field_on(GRID)                   # nonzero, so P is computed
U = CASE.u_field_on(GRID)
PSI = BoundaryDensity(CURVE, CASE.psi_on(CURVE))
PHI0 = CASE.phi0_on(CURVE)


def _normals_for(p):
    """``layer_rows`` "Wp" with ``p`` as the normals of len(p) targets."""
    tg = np.broadcast_to([0.05, 0.02], (len(p), 2))
    return potentials.layer_rows(CURVE, A, "y", "Wp", tg, p)


# entry, called on points, and the shape of its result on no points
ENTRIES = {
    "layer_rows-targets": (
        lambda p: potentials.layer_rows(CURVE, A, "x", "V", p), (0, 32)),
    "layer_rows-normals": (_normals_for, (0, 32)),
    "volume_potential": (
        lambda p: potentials.volume_potential(GRID, A, "x", F, p), (0,)),
    "remainder_rows": (
        lambda p: potentials.remainder_rows(GRID, A, "y", p), (0, 128)),
    "remainder_potential": (
        lambda p: potentials.remainder_potential(GRID, A, "x", F, p), (0,)),
    "layer_matrix_at_targets": (
        lambda p: laplace.layer_matrix_at_targets(CURVE, "gs", p), (0, 32, 2)),
    "third_green_residual": (
        lambda p: solver.third_green_residual(U, PSI, F, PHI0, CURVE, GRID,
                                              A, "x", p), (0,)),
    "level": (STAR.level, (0,)),
    "distance_to": (CURVE.distance_to, (0,)),
    "cardinal_matrices": (
        lambda p: np.hstack(GRID.cardinal_matrices(p)), (0, 16 + 8)),
    "direct_boundary_values": (
        lambda p: V.direct_boundary_values(CURVE, A, "x", "V", np.cos,
                                           points=p), (0,)),
    "volume_potential_direct": (
        lambda p: V._volume_oracles(GRID, A, F, p)["P", "y"], (0,)),
    "remainder_via_relation": (
        lambda p: V._volume_oracles(GRID, A, F, p)["R", "x"], (0,)),
    "case-u": (CASE.u, (0,)),
    "case-grad_u": (CASE.grad_u, (0, 2)),
    "case-f": (CASE.f, (0,)),
}
BAD_POINTS = {
    "nan": ([[np.nan, 0.0]], "finite"),
    "inf": ([[0.1, np.inf]], "finite"),
    "three-columns": ([[0.1, 0.05, 0.0]], r"shape \(m, 2\)"),
    "three-dims": ([[[0.1, 0.05]]], r"shape \(m, 2\)"),
}
# one point: a center, a polar rule's target
SINGLE = {
    "center": lambda y: DomainSpec("disk", center=y, radius=0.4),
    "polar_rule_for_target": lambda y: polar_rule_for_target(STAR, y),
    "contains": STAR.contains,
}
BAD_POINT = {
    "nan": ([np.nan, 0.0], "finite"),
    "inf": ([0.1, np.inf], "finite"),
    "three-coordinates": ([0.1, 0.05, 0.0], "shape"),
    "two-dims": ([[0.1, 0.05]], "shape"),
}


@pytest.mark.parametrize("bad", BAD_POINTS)
@pytest.mark.parametrize("entry", [*ENTRIES, "validate_derivatives"])
def test_bad_points_raise_at_every_entry(entry, bad):
    fn = (ENTRIES[entry][0] if entry in ENTRIES
          else lambda p: validate_derivatives(A, p))
    points, message = BAD_POINTS[bad]
    with pytest.raises(GeometryError, match=message):
        fn(np.array(points))


@pytest.mark.parametrize("entry", ENTRIES)
def test_empty_point_set_gives_empty_result(entry):
    fn, shape = ENTRIES[entry]
    assert fn(np.zeros((0, 2))).shape == shape
    assert fn([]).shape == shape


def test_no_samples_refused_by_validate_derivatives():
    with pytest.raises(CoefficientError, match="no sample points"):
        validate_derivatives(A, np.zeros((0, 2)))


@pytest.mark.parametrize("bad", BAD_POINT)
@pytest.mark.parametrize("entry", SINGLE)
def test_bad_single_point_raises(entry, bad):
    point, message = BAD_POINT[bad]
    with pytest.raises(GeometryError, match=message):
        SINGLE[entry](point)


@pytest.mark.parametrize("normals", [None, [[1.0, 0.0]], [[1.0, 0.0]] * 2,
                                     [[1.0, 0.0]] * 4],
                         ids=["none", "one", "two", "four"])
def test_wp_needs_one_normal_per_target(normals):
    # one normal used to serve all three targets, and two ended in a
    # numpy broadcast error
    tg = [[0.05, 0.02], [0.0, 0.1], [-0.1, 0.0]]
    with pytest.raises(GeometryError, match="one normal per target"):
        potentials.layer_rows(CURVE, A, "x", "Wp", tg, normals)
    rows = potentials.layer_rows(CURVE, A, "x", "Wp", tg, [[1.0, 0.0]] * 3)
    assert rows.shape == (3, CURVE.n)


def test_points_pass_through_unchanged():
    pts = GRID.points[:5]
    rows = potentials.remainder_rows(GRID, A, "x", pts)
    assert np.array_equal(rows, potentials.remainder_rows(GRID, A, "x",
                                                          pts.tolist()))
    assert np.array_equal(CASE.u(pts), pts[:, 0] ** 2 - pts[:, 1] ** 2)


def test_nan_target_cannot_hang_the_volume_pass():
    # with RuntimeWarnings ignored, a NaN target used to spin forever in
    # the orbit regrouping: NaN never matches itself
    script = (
        "import numpy as np\n"
        "import bdies2d as b\n"
        "spec = b.DomainSpec('star', center=(0.0, 0.0),"
        " cos_coeffs=(0.3, 0.0, 0.03))\n"
        "grid = b.build_domain_grid(spec, 16, 8)\n"
        "field = b.DomainField(grid, np.ones(grid.n_nodes))\n"
        "try:\n"
        "    b.potentials.volume_potential(grid, b.make_preset('quadratic'),"
        " 'x', field, [[np.nan, 0.0]])\n"
        "except b.GeometryError as exc:\n"
        "    print('GeometryError:', exc)\n")
    out = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning", "-c", script],
        env=fresh_env(), check=True, capture_output=True, text=True,
        timeout=60)
    assert out.stdout.startswith("GeometryError: points must be finite")
