"""Parametrix-based surface and volume operators for div(a grad u).

Two kernel families are supported, distinguished by where the coefficient
is evaluated: family "x" divides the Laplace fundamental solution by a at
the integration point, family "y" by a at the target point.

The surface operators V, W and W' are Laplace blocks (``laplace``) with
the coefficient attached at the source or at the target; ``layer_rows``
builds every boundary operator, on the curve and off it.
The volume operators integrate against the grid interpolant with polar
rules.  Targets are grouped into dihedral (rotation and mirror) orbits:
every disk and star maps onto itself under rotations by whole grid steps
and under the mirror about the horizontal line through its center.  One
polar rule and one cardinal pair serve a whole orbit, and every other
member's row is the representative's contraction re-indexed along the
grid's angular axis: j -> j - shift for a rotation, j -> shift - j with
the mirror.  On the benchmark star (0.3, 0, 0.03) at 64/16x8 that is 40
rules for the 128 grid targets and 17 for the 64 curve targets (64 and
32 with the rotations alone).  A target set's representative rules are
one segment table (``geometry.PolarRules``) from one
``geometry.polar_rules`` call, and their nodes and cardinals are built
per block of representatives (``geometry.BLOCK_ENTRIES``).  The
cardinals are mode-major, one column per node, so a representative's
(A, S) are column slices of its block's.  A block's orbit members then
form one member table, evaluated and contracted in chunks whose node
pairs times n_s fit in the block's own (A, S) entry count
(``_volume_pass``).  The Laplace blocks, the polar rules and the
log-kernel rows depend only on the geometry, so ``geometry.cached`` keeps
each with its curve or grid, built once and read-only.  On the grid, a
volume target set has one entry (``_target_set``), keyed by its
coordinates: its orbits, its representatives' rule table and, after its
first pass, its log-kernel rows (unless that pass is a remainder-only
one, ``remainder_rows(..., logs=False)``); dropping the set is one
delete.
The independent oracles for the volume operators live only in
``verification``; nothing here serves them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import laplace
from .coefficient import Coefficient
# polar_rule_for_target is re-exported: benchmark/tracing.py wraps this name
from .geometry import (BOUNDARY_LEVEL_TOL, BoundaryCurve, DomainGrid,
                       GeometryError, as_points, block_bounds, cached,
                       polar_rule_for_target, polar_rules, rule_nodes)

FAMILIES = ("x", "y")


def _check_family(family: str):
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def delta_near(curve: BoundaryCurve) -> float:
    """Distance from the boundary within which evaluation counts as near."""
    return 2.0 * curve.spacing()


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundaryDensity:
    """Nodal values on a boundary curve."""

    curve: BoundaryCurve
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.curve.n,):
            raise ValueError(
                f"density has {v.shape} values for a curve with {self.curve.n} nodes")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class DomainField:
    """Nodal values on a domain grid together with its interpolant."""

    grid: DomainGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"field has {v.shape} values for a grid with {self.grid.n_nodes} nodes")
        object.__setattr__(self, "values", v)

    def at(self, points) -> np.ndarray:
        """The interpolant at finite points of the closed domain (level at
        most 1 + ``BOUNDARY_LEVEL_TOL``); outside it, it is undefined."""
        tg = as_points(points)
        if (self.grid.spec.level(tg) > 1.0 + BOUNDARY_LEVEL_TOL).any():
            raise GeometryError("interpolation point outside the domain")
        return self.grid.interpolate(self.values, tg)


# ---------------------------------------------------------------------------
# Boundary operators: Laplace blocks scaled per kernel family
# ---------------------------------------------------------------------------

def _laplace_blocks(curve: BoundaryCurve, targets=None, normals=None):
    """Laplace blocks "s" (S), "d" (D), "dp" (D'), each built once per curve.

    Without targets the blocks are the direct-value matrices on the curve;
    at targets they are ``layer_matrix_at_targets`` rows, and "dp" is the
    "gs" rows dotted with ``normals``.
    """
    def lap(kind):
        if targets is None:
            build = {"s": laplace.single_layer_matrix,
                     "d": laplace.double_layer_matrix,
                     "dp": laplace.adjoint_double_layer_matrix}[kind]
            return cached(curve, kind, lambda: build(curve))
        if kind == "dp":
            return (lap("gs") * normals[:, None, :]).sum(-1)
        return cached(
            curve, (kind, targets.tobytes()),
            lambda: laplace.layer_matrix_at_targets(curve, kind, targets))
    return lap


def layer_rows(curve: BoundaryCurve, coeff: Coefficient, family: str,
               kind: str, targets=None, normals=None) -> np.ndarray:
    """Rows mapping nodal densities to "V", "W" or "Wp" values: the direct
    values at the curve nodes, or off-curve rows at ``targets``, where "Wp"
    is the conormal derivative along ``normals`` (exactly one per target,
    else ``GeometryError``).  Family
    "x" attaches the coefficient at the source, "y" at the target, to the
    Laplace blocks S, D and D' (the single layer's normal derivative):

        V_x  = S / a(x)                  V_y  = S / a(y)
        W_x  = D - S dln a/dn(x)         W_y  = D a(x) / a(y)
        Wp_x = a(y) D' / a(x)            Wp_y = D' - dln a/dn(y) S
    """
    _check_family(family)
    if kind not in ("V", "W", "Wp"):
        raise ValueError(f"operator kind must be 'V', 'W' or 'Wp', got {kind!r}")
    if targets is None:
        tg, nrm, lap = curve.points, curve.normals, _laplace_blocks(curve)
    else:
        tg = as_points(targets)
        nrm = None if normals is None else as_points(normals)
        if kind == "Wp" and (nrm is None or len(nrm) != len(tg)):
            raise GeometryError(
                f"'Wp' at targets needs one normal per target, got "
                f"{0 if nrm is None else len(nrm)} for {len(tg)} targets")
        lap = _laplace_blocks(curve, tg, nrm)
    src = curve.points
    if kind == "V":
        if family == "x":
            return lap("s") / coeff.a(src)[None, :]
        return lap("s") / coeff.a(tg)[:, None]
    if kind == "W":
        if family == "x":
            dlnadn = (coeff.grad_ln_a(src) * curve.normals).sum(1)
            return lap("d") - lap("s") * dlnadn[None, :]
        return lap("d") * coeff.a(src)[None, :] / coeff.a(tg)[:, None]
    if family == "x":
        return coeff.a(tg)[:, None] * lap("dp") / coeff.a(src)[None, :]
    dlnadn = (coeff.grad_ln_a(tg) * nrm).sum(1)
    return lap("dp") - dlnadn[:, None] * lap("s")


def single_layer_direct_matrix(curve: BoundaryCurve, coeff: Coefficient,
                               family: str) -> np.ndarray:
    """Direct values of the single-layer operator V at the curve nodes."""
    return layer_rows(curve, coeff, family, "V")


def double_layer_direct_matrix(curve: BoundaryCurve, coeff: Coefficient,
                               family: str) -> np.ndarray:
    """Direct values of the double-layer operator W at the curve nodes."""
    return layer_rows(curve, coeff, family, "W")


def wprime_direct_matrix(curve: BoundaryCurve, coeff: Coefficient,
                         family: str) -> np.ndarray:
    """Direct values of the conormal derivative of the single layer."""
    return layer_rows(curve, coeff, family, "Wp")


def single_layer_matrix_at_targets(curve: BoundaryCurve, coeff: Coefficient,
                                   family: str, targets) -> np.ndarray:
    """Matrix sending nodal density values to single-layer values at targets."""
    return layer_rows(curve, coeff, family, "V", targets)


# ---------------------------------------------------------------------------
# Volume potentials via target-centered polar rules
# ---------------------------------------------------------------------------

def _rule_params(grid: DomainGrid):
    """Polar-rule orders tied to the grid resolution.

    The volume rules are the volume discretization: their angular count
    follows the grid's angular count and the radial Gauss order p follows
    the radial node count, so refining the grid refines every quadrature
    in the pipeline at matching rates.  A segment that starts at its
    target gets p generalized Gaussian points, one that starts near it 2p
    graded ones and any other p Gauss points (``geometry.PolarRules``); p
    stays within 4..10, the orders of ``geometry.gauss_log_01``.
    """
    base = max(12, 2 * round(0.375 * grid.n_t))
    if grid.spec.cos_coeffs[1:].any():
        # a nonzero mode k >= 1 gives the ray extents richer angular
        # content than a disk's, whose profile is its one mode k = 0
        base *= 3
    p = min(10, max(4, grid.n_s // 2))
    return base, p


#: Distance, relative to the domain's largest radius, within which a target
#: counts as the image of its orbit's representative.
ORBIT_TOL = 1e-13
#: The mirror M about the horizontal line through the center, on offsets.
_MIRROR = np.array([1.0, -1.0])


def _rotation_step(grid: DomainGrid) -> int:
    """Grid angular steps in the smallest rotation mapping the domain onto
    itself: one on a disk, n_t / gcd(n_t, g) on a star whose nonzero
    cosine modes k > 0 have greatest common divisor g."""
    modes = np.flatnonzero(grid.spec.cos_coeffs[1:]) + 1
    return grid.n_t // math.gcd(grid.n_t, int(np.gcd.reduce(modes)))


def _rotate(v, shift, n_t):
    """Points v (..., 2) about the origin, by ``shift`` grid angular steps
    (broadcast against v's leading axes)."""
    ang = (2 * np.pi / n_t) * np.asarray(shift)
    c, s = np.cos(ang), np.sin(ang)
    return np.stack([c * v[..., 0] - s * v[..., 1],
                     s * v[..., 0] + c * v[..., 1]], axis=-1)


def _orbits(grid: DomainGrid, tg: np.ndarray):
    """Dihedral (rotation and mirror) orbits of the targets about the
    domain's center.

    The group is the domain's rotations by multiples of ``_rotation_step``,
    each with or without the mirror M about the horizontal line through
    the center, which every disk and cosine-series star has.  Each offset
    v is folded onto one canonical form: rotated by -s steps into the
    sector |angle| <= pi / order, then mirrored (f) if it lies more than
    tol / 2 below the horizontal axis there, tol = ORBIT_TOL times the
    largest radius.  So of an offset and its mirror image, at heights h
    and -h there, one folds onto the other, or they lie 2 |h| <= tol
    apart, exact images without the mirror.  Targets whose folded offsets
    agree to 1e3 * ORBIT_TOL share an orbit, and the first of them
    represents it.
    Returns flat arrays (reps, members, shifts, flips, sizes): orbit o is
    represented by target ``reps[o]`` and has ``sizes[o]`` members, the
    next run of ``members``, orbit after orbit.  Target ``members[i]`` is
    its representative mirrored where ``flips[i]``, then rotated by
    ``shifts[i]`` grid angular steps, to ORBIT_TOL; from the two foldings,
    flip = f xor f_rep and shift = s - (-1)^flip s_rep.  Targets that are
    no exact image of their representative are grouped again among
    themselves, until each has an orbit (a representative is its own
    exact image, so every round settles at least one target).
    """
    n, n_t = len(tg), grid.n_t
    v = tg - grid.spec.center
    tol = ORBIT_TOL * grid.spec.max_rho()
    step = _rotation_step(grid)
    order = n_t // step
    phi = np.arctan2(v[:, 1], v[:, 0])
    s = (np.rint(phi * (order / (2 * np.pi))).astype(int) % order) * step
    u = _rotate(v, -s, n_t)
    f = u[:, 1] < -0.5 * tol
    u[f] *= _MIRROR
    key = np.round(u / (1e3 * tol))
    rep, rel = np.empty(n, dtype=int), np.empty(n, dtype=int)
    flip = np.empty(n, dtype=bool)
    todo = np.arange(n)
    while todo.size:
        _, first, bucket = np.unique(key[todo], axis=0, return_index=True,
                                     return_inverse=True)
        r = todo[first[bucket.ravel()]]
        fl = f[todo] != f[r]
        k = (s[todo] - np.where(fl, -1, 1) * s[r]) % n_t
        image = _rotate(np.where(fl[:, None], v[r] * _MIRROR, v[r]), k, n_t)
        exact = (np.abs(image - v[todo]) <= tol).all(1)
        done = todo[exact]
        rep[done], rel[done], flip[done] = r[exact], k[exact], fl[exact]
        todo = todo[~exact]
    members = np.argsort(rep, kind="stable")
    reps, sizes = np.unique(rep, return_counts=True)
    return reps, members, rel[members], flip[members], sizes


def _reindex(grid: DomainGrid, rows, shifts, flips, src=None):
    """Rows (k, n_nodes) re-indexed along the angular axis: row i of the
    result is row src[i] (row i without ``src``) with column j reading
    column j - shifts[i], or shifts[i] - j where flips[i]."""
    rows = rows.reshape(len(rows), grid.n_t, grid.n_s)
    j, k = np.arange(grid.n_t)[None, :], np.asarray(shifts)[:, None]
    j = np.where(np.asarray(flips)[:, None], k - j, j - k) % grid.n_t
    src = np.arange(len(j)) if src is None else src
    return rows[src[:, None], j].reshape(len(j), -1)


def _target_set(grid: DomainGrid, tg: np.ndarray) -> dict:
    """The volume geometry of target set tg, one grid entry keyed by the
    set's bytes: its dihedral orbits ("orbits", ``_orbits``), its
    representatives' rule table ("rules", one ``polar_rules`` call) and,
    once a pass has built them, its read-only log-kernel rows ("logs")."""
    def build():
        orbits = _orbits(grid, tg)
        base, p = _rule_params(grid)
        return {"orbits": orbits, "logs": None, "rules": polar_rules(
            grid.spec, tg[orbits[0]], base=base, n_r=p)}
    return cached(grid, tg.tobytes(), build)


def _volume_pass(grid: DomainGrid, tg: np.ndarray, kernel=None,
                 build_logs: bool = True):
    """One pass over the dihedral orbits of the targets, read with their
    rules from the set's grid entry (``_target_set``).

    Per orbit, the representative's polar rule and cardinals (A, S) are
    built once; a member's rule is the representative's mirrored (when
    flipped) and rotated.  A rotation of the points rolls the rows of A,
    and a mirror sends row j to -j since the trigonometric cardinal is
    even; S is unchanged by both.  The table's nodes are expanded
    (``rule_nodes``) and their cardinals evaluated per block of
    consecutive representatives whose A, nodes times n_t, fits in
    ``geometry.BLOCK_ENTRIES`` (``block_bounds`` on the table's per-target
    node counts), one block at a time.  The block's (A, S) are mode-major,
    one column per node, so a representative's nodes are one column slice
    of each.  Returns the set's log-kernel rows, built by the first pass
    over the set and stored in its entry, unless ``build_logs`` is False:
    per block, the representatives' contractions, re-indexed for every
    member at once, since the log kernel is invariant under both maps.
    Without a kernel there is no pass once the rows are stored, nor with
    ``build_logs`` False.

    Given ``kernel(y, d, owner)`` (targets (k, 2), node offsets (P, 2) of
    target ``owner``), it also returns the matrix of the kernel's rows at
    the targets (else None).  A block's orbit members form one member
    table, taken in chunks whose node pairs times n_s (the GEMM
    temporaries) fit in the block's own (A, S) entry count.  Per chunk,
    each pair's offset is mirrored and rotated with its member's cos and
    sin, the kernel is evaluated once at every member's own target and
    mapped nodes, each representative's members are contracted against
    its (A, S) in one GEMM, and the chunk's rows are re-indexed at once.
    Every step is elementwise per pair, so no row depends on its chunk.
    """
    entry = _target_set(grid, tg)
    build_logs = build_logs and entry["logs"] is None
    if kernel is None and not build_logs:
        return entry["logs"], None
    logs = np.empty((len(tg), grid.n_nodes)) if build_logs else None
    rows = None if kernel is None else np.empty((len(tg), grid.n_nodes))
    reps, *table, sizes = entry["orbits"]
    rules = entry["rules"]
    first = np.concatenate([[0], np.cumsum(sizes)])  # each orbit's members
    for lo, hi in block_bounds((rules.counts * grid.n_t).tolist()):
        pts_b, w_b, counts = rule_nodes(rules, lo, hi)
        A_b, S_b = grid.cardinal_matrices(pts_b)
        # offsets from the representatives, one row per coordinate
        d_b = np.empty((2, len(pts_b)))
        np.subtract(pts_b.T, np.repeat(tg[reps[lo:hi]], counts, axis=0).T,
                    out=d_b)
        at = [slice(a - c, a) for a, c in zip(np.cumsum(counts), counts)]
        # the block's member table: target, rotation and mirror of each
        # member, the members of each representative consecutive
        members, shifts, flips = (col[first[lo]:first[hi]] for col in table)
        rep = np.repeat(np.arange(hi - lo), sizes[lo:hi])
        if logs is not None:
            wg = -w_b * laplace.layer_kernel_values("s", *d_b)
            row0 = np.stack([grid.interpolation_row(wg[r], A_b[:, r],
                                                    S_b[:, r]) for r in at])
            logs[members] = _reindex(grid, row0, shifts, flips, rep)
        if kernel is None:
            continue
        pairs = counts[rep]                  # node pairs of each member
        # each member's rotation, with its mirror's sign folded into the
        # terms it multiplies (exact: a sign flip rounds nothing)
        ang = (2 * np.pi / grid.n_t) * shifts[:, None]
        sign = np.where(flips, -1.0, 1.0)[:, None]
        c, s = np.cos(ang), np.sin(ang)
        cf, sf = c * sign, s * sign
        cap = len(pts_b) * (grid.n_t + grid.n_s)
        bounds = (first[lo:hi + 1] - first[lo]).tolist()
        for b, e in block_bounds(pairs * grid.n_s, cap):
            # the chunk's members i:j (in the table) of representative r
            runs = [(r, max(b, bounds[r]), min(e, bounds[r + 1]))
                    for r in range(rep[b], rep[e - 1] + 1)]
            edges = np.cumsum([0] + [(j - i) * counts[r]
                                     for r, i, j in runs]).tolist()
            d = np.empty((2, edges[-1]))     # one row per coordinate
            for (r, i, j), p, q in zip(runs, edges, edges[1:]):
                x, y = d_b[:, at[r]]
                dx, dy = d[:, p:q].reshape(2, j - i, -1)
                dx[...] = c[i:j] * x - sf[i:j] * y
                dy[...] = s[i:j] * x + cf[i:j] * y
            ker = kernel(tg[members[b:e]], d.T,
                         np.repeat(np.arange(e - b), pairs[b:e]))
            out = np.empty((e - b, grid.n_nodes))
            # one GEMM per representative
            for (r, i, j), p, q in zip(runs, edges, edges[1:]):
                out[i - b:j - b] = grid.interpolation_row(
                    w_b[at[r]] * ker[p:q].reshape(j - i, -1), A_b[:, at[r]],
                    S_b[:, at[r]])
            rows[members[b:e]] = _reindex(grid, out, shifts[b:e],
                                          flips[b:e])
    if logs is not None:
        logs.flags.writeable = False
        entry["logs"] = logs
    return entry["logs"], rows


def _remainder_kernel(y, d, owner, coeff: Coefficient, family: str):
    """Remainder kernel at nodes y[owner] + d (offsets d of shape (P, 2),
    ``owner`` the index of each offset's target in y), from the Laplace
    kernel table ("s" = -G, "gs" = -grad_y G)."""
    # take: 2-d fancy indexing is slow; the nodes are laid out row by row
    # whatever d's layout, so the coefficient sees the same arrays
    pts = np.add(y.take(owner, axis=0), d, order="C")
    dx, dy = d[:, 0], d[:, 1]
    if family == "x":
        gx, gy, s = laplace.layer_kernel_values("gs+s", dx, dy)
        gl = coeff.grad_ln_a(pts)
        return (coeff.laplacian_ln_a(pts) * s
                - (gl[:, 0] * gx + gl[:, 1] * gy))
    gx, gy = laplace.layer_kernel_values("gs", dx, dy)
    ga = coeff.grad_a(pts)
    return (ga[:, 0] * gx + ga[:, 1] * gy) / coeff.a(y).take(owner)


def volume_potential(grid: DomainGrid, coeff: Coefficient, family: str,
                     field: DomainField, targets) -> np.ndarray:
    """Newtonian-type volume potential of a gridded density at targets.

    The log-kernel rows of the targets (r . v = (1/2pi) int log|x - y|
    v(x) dx for v the interpolant of nodal values) are one block per
    target set.  Family "x" applies them to the density divided by the
    coefficient at the grid nodes; family "y" divides the plain log
    potential by the coefficient at the target.
    """
    _check_family(family)
    tg = as_points(targets)
    if not np.any(field.values != 0.0):
        return np.zeros(len(tg))
    logs = _volume_pass(grid, tg)[0]
    if family == "x":
        return logs @ (field.values / coeff.a(grid.points))
    return logs @ field.values / coeff.a(tg)


def remainder_rows(grid: DomainGrid, coeff: Coefficient, family: str,
                   targets, logs: bool = True) -> np.ndarray:
    """Remainder-operator matrix rows at the given targets.

    Each row integrates the explicit remainder kernel against the grid
    interpolant; boundary targets are allowed (trace of the operator).  A
    constant coefficient has no remainder: its rows are zero.  The first
    pass over a target set also builds and stores its log-kernel rows from
    the same cardinal evaluation, unless ``logs`` is False: a caller that
    will not read the volume potential at these targets skips them.
    """
    _check_family(family)
    tg = as_points(targets)
    if coeff.constant:
        return np.zeros((len(tg), grid.n_nodes))
    return _volume_pass(grid, tg, lambda y, d, owner: _remainder_kernel(
        y, d, owner, coeff, family), logs)[1]


def remainder_potential(grid: DomainGrid, coeff: Coefficient, family: str,
                        field: DomainField, targets) -> np.ndarray:
    """Remainder volume potential of a gridded density at targets."""
    return remainder_rows(grid, coeff, family, targets) @ field.values
