"""Parametrix-level operators: relation algebra, volume rules, remainders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from bdies2d import geometry, laplace, potentials, verification
from bdies2d.coefficient import Coefficient, make_preset
from bdies2d.geometry import (BOUNDARY_LEVEL_TOL, DomainSpec, GeometryError,
                              build_curve, build_domain_grid,
                              polar_rule_for_target)
from bdies2d.potentials import (FAMILIES, BoundaryDensity, DomainField,
                                double_layer_direct_matrix, layer_rows,
                                remainder_potential,
                                single_layer_direct_matrix, volume_potential,
                                wprime_direct_matrix)

DISK = DomainSpec("disk", center=(0.0, 0.0), radius=0.4)
STAR = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(0.3, 0.0, 0.0, 0.06))
A_ONE = make_preset("constant", value=1.0)
A_EXP = make_preset("exponential", direction=(1.0, 1.0))
A_QUAD = make_preset("quadratic")


@pytest.fixture(scope="module")
def curve():
    return build_curve(DISK, 64)


@pytest.fixture(scope="module")
def grid():
    return build_domain_grid(DISK, 32, 12)


class TestDensities:
    def test_node_count_mismatch(self, curve):
        with pytest.raises(ValueError):
            BoundaryDensity(curve, np.ones(17))

    def test_domain_field_exact_at_nodes(self, grid):
        rng = np.random.default_rng(5)
        f = DomainField(grid, rng.standard_normal(grid.n_nodes))
        np.testing.assert_allclose(f.at(grid.points), f.values, atol=1e-12)

    @pytest.mark.parametrize("point, message", [
        ([0.0, 0.8], "outside"),
        ([5.0, 5.0], "outside"),
        ([0.4 * (1 + 2 * BOUNDARY_LEVEL_TOL), 0.0], "outside"),
        ([np.nan, 0.0], "finite"),
    ], ids=["outside", "far", "past-tolerance", "nan"])
    def test_domain_field_refuses_points_off_the_closed_domain(
            self, grid, point, message):
        f = DomainField(grid, np.ones(grid.n_nodes))
        with pytest.raises(GeometryError, match=message):
            f.at([point])

    def test_domain_field_reads_the_closed_domain(self, grid, curve):
        # curve nodes (level 1 to rounding) and polar-rule nodes up to
        # level 1 + 1e-10 are in the closed domain
        f = DomainField(grid, np.ones(grid.n_nodes))
        pts = np.vstack([curve.points, [[0.4 * (1 + 1e-10), 0.0]]])
        np.testing.assert_allclose(f.at(pts), 1.0, atol=1e-12)
        assert f.at(np.zeros((0, 2))).shape == (0,)


class TestSingleLayer:
    def test_unit_density_circle(self, curve):
        rho = BoundaryDensity(curve, np.ones(64))
        got = single_layer_direct_matrix(curve, A_ONE, "x") @ rho.values
        np.testing.assert_allclose(got, -0.4 * np.log(0.4), atol=1e-13)

    def test_constant_coefficient_scales(self, curve):
        rho = BoundaryDensity(curve, np.ones(64))
        a2 = make_preset("constant", value=2.0)
        got = single_layer_direct_matrix(curve, a2, "x") @ rho.values
        np.testing.assert_allclose(got, -0.2 * np.log(0.4), atol=1e-13)

    def test_cos_eigenrelation(self, curve):
        rho = BoundaryDensity(curve, np.cos(curve.t))
        got = single_layer_direct_matrix(curve, A_ONE, "x") @ rho.values
        np.testing.assert_allclose(got, 0.2 * np.cos(curve.t),
                                   atol=1e-13)

    def test_families_coincide_for_constant(self, curve):
        rho = BoundaryDensity(curve, np.sin(2 * curve.t) + 0.5)
        a3 = make_preset("constant", value=3.0)
        gx = single_layer_direct_matrix(curve, a3, "x") @ rho.values
        gy = single_layer_direct_matrix(curve, a3, "y") @ rho.values
        np.testing.assert_allclose(gx, gy, atol=1e-15)


class TestDoubleLayer:
    def test_unit_density_direct_value(self, curve):
        tau = BoundaryDensity(curve, np.ones(64))
        got = double_layer_direct_matrix(curve, A_ONE, "x") @ tau.values
        np.testing.assert_allclose(got, -0.5, atol=1e-12)

    def test_cos_mode_circle(self, curve):
        tau = BoundaryDensity(curve, np.cos(curve.t))
        got = double_layer_direct_matrix(curve, A_ONE, "x") @ tau.values
        assert np.abs(got).max() < 1e-10

    def test_variable_coefficient_relation(self, curve):
        # W tau = W_Delta tau - V_Delta(tau dln a/dn), checked cross-operator
        tau = BoundaryDensity(curve, np.ones(64))
        got = double_layer_direct_matrix(curve, A_EXP, "x") @ tau.values
        dlnadn = (A_EXP.grad_ln_a(curve.points) * curve.normals).sum(1)
        wd = laplace.double_layer_matrix(curve) @ tau.values
        vd = laplace.single_layer_matrix(curve) @ dlnadn
        np.testing.assert_allclose(got, wd - vd, atol=1e-10)


class TestWPrime:
    def test_unit_density_circle(self, curve):
        rho = BoundaryDensity(curve, np.ones(64))
        got = wprime_direct_matrix(curve, A_ONE, "x") @ rho.values
        np.testing.assert_allclose(got, -0.5, atol=1e-12)

    def test_constant_coefficient_cancels(self, curve):
        rho = BoundaryDensity(curve, np.cos(2 * curve.t) + 0.1)
        a3 = make_preset("constant", value=3.0)
        got = wprime_direct_matrix(curve, a3, "x") @ rho.values
        ref = laplace.adjoint_double_layer_matrix(curve) @ rho.values
        np.testing.assert_allclose(got, ref, atol=1e-14)

    def test_cos_mode_circle(self, curve):
        rho = BoundaryDensity(curve, np.cos(curve.t))
        got = wprime_direct_matrix(curve, A_ONE, "x") @ rho.values
        assert np.abs(got).max() < 1e-10


class TestLayerRows:
    def test_interior_values(self, curve):
        ones = np.ones(64)
        v = layer_rows(curve, A_ONE, "x", "V", [[0.0, 0.0]]) @ ones
        assert abs(v[0] - (-0.4 * np.log(0.4))) < 1e-13
        w = layer_rows(curve, A_ONE, "x", "W", [[0.1, 0.0]]) @ ones
        assert abs(w[0] + 1.0) < 1e-12
        w_out = layer_rows(curve, A_ONE, "x", "W", [[1.0, 0.3]]) @ ones
        assert abs(w_out[0]) < 1e-12

    def test_unknown_kind_rejected(self, curve):
        for targets in (None, [[0.1, 0.0]]):
            with pytest.raises(ValueError, match="kind"):
                layer_rows(curve, A_EXP, "x", "X", targets)

    def test_wprime_at_targets_needs_normals(self, curve):
        with pytest.raises(ValueError, match="normal"):
            layer_rows(curve, A_EXP, "y", "Wp", [[0.1, 0.0]])
        rows = layer_rows(curve, A_EXP, "y", "Wp", [[0.1, 0.0]], [[1.0, 0.0]])
        assert rows.shape == (1, curve.n) and np.isfinite(rows).all()


class TestLaplaceBlocks:
    def test_blocks_built_once_and_read_only(self):
        curve = build_curve(DISK, 32)
        tg = np.array([[0.1, 0.0], [0.0, 0.39]])
        for lap, kinds in ((potentials._laplace_blocks(curve), "s d dp"),
                           (potentials._laplace_blocks(curve, tg), "s d gs")):
            for kind in kinds.split():
                block = lap(kind)
                assert lap(kind) is block
                with pytest.raises(ValueError):
                    block[0, 0] = 1.0


class TestVolumePotential:
    def test_unit_density_at_center(self, grid):
        # (1/2pi) * integral log|x| = pi r^2 (log r - 1/2) / (2 pi)
        f = DomainField(grid, np.ones(grid.n_nodes))
        got = volume_potential(grid, A_ONE, "x", f, [[0.0, 0.0]])
        exact = 0.16 * (np.log(0.4) - 0.5) / 2.0
        assert abs(got[0] - exact) < 1e-6 * abs(exact)
        fine = build_domain_grid(DISK, 64, 24)
        got_fine = volume_potential(fine, A_ONE, "x",
                                    DomainField(fine, np.ones(fine.n_nodes)),
                                    [[0.0, 0.0]])
        assert abs(got_fine[0] - exact) < 1e-8 * abs(exact)

    def test_families_coincide_for_constant(self, grid):
        f = DomainField(grid, grid.points[:, 0] + 0.3)
        a2 = make_preset("constant", value=2.0)
        tg = [[0.1, 0.0], [0.0, -0.2]]
        np.testing.assert_allclose(volume_potential(grid, a2, "x", f, tg),
                                   volume_potential(grid, a2, "y", f, tg),
                                   atol=1e-14)

    def test_laplacian_of_potential_recovers_density(self, grid):
        # rho = lap(|x|^4) = 16|x|^2; the potential of rho differs from
        # |x|^4 by a harmonic function, so its FD laplacian returns rho
        f = DomainField(grid, 16.0 * (grid.points**2).sum(1))
        y = np.array([0.05, -0.08])
        h = 1e-3
        stencil = np.array([y, y + [h, 0], y - [h, 0], y + [0, h], y - [0, h]])
        vals = volume_potential(grid, A_ONE, "x", f, stencil)
        lap = (vals[1:].sum() - 4 * vals[0]) / h**2
        assert abs(lap - 16.0 * (y**2).sum()) < 1e-4


class TestTargetCache:
    @pytest.mark.parametrize("spec,y", [
        (DISK, (0.1, -0.05)), (DISK, tuple(DISK.boundary_point(1.0))),
        (STAR, (0.05, 0.12)), (STAR, tuple(STAR.boundary_point(2.0)))],
        ids=["disk-interior", "disk-boundary", "star-interior",
             "star-boundary"])
    def test_cached_rule_equals_fresh_rule(self, spec, y):
        grid = build_domain_grid(spec, 16, 8)
        y = np.array(y)
        cached = potentials._rule(grid, y)
        assert potentials._rule(grid, y) is cached
        base, n_r = potentials._rule_params(grid)
        fresh = polar_rule_for_target(spec, y, base=base, n_r=n_r)
        assert np.array_equal(cached.points, fresh.points)
        assert np.array_equal(cached.weights, fresh.weights)


def _einsum_log_potential(grid, values, targets):
    """Reference: contract each rule's cardinals with the nodal data."""
    U = np.asarray(values, dtype=float).reshape(grid.n_t, grid.n_s)
    out = []
    for y in targets:
        pts, w = potentials._rule(grid, y).nodes()
        r2 = ((pts - y) ** 2).sum(1)
        kv = w * 0.5 * np.log(r2) / (2 * np.pi)
        A, S = grid.cardinal_matrices(pts)
        out.append(np.einsum("mj,jk,mk->", A * kv[:, None], U, S))
    return np.array(out)


class TestVolumeRows:
    @pytest.mark.parametrize("spec", [DISK, STAR], ids=["disk", "star"])
    @pytest.mark.parametrize("family", ["x", "y"])
    def test_rows_match_einsum_reference(self, spec, family):
        grid = build_domain_grid(spec, 16, 8)
        curve = build_curve(spec, 32)
        f = DomainField(grid, np.cos(grid.points[:, 0] + 0.3)
                        * (1.0 + grid.points[:, 1]))
        tg = np.concatenate([grid.points[::7], curve.points[::5],
                             [[0.02, -0.1]]])
        got = volume_potential(grid, A_QUAD, family, f, tg)
        if family == "x":
            ref = _einsum_log_potential(grid, f.values / A_QUAD.a(grid.points),
                                        tg)
        else:
            ref = _einsum_log_potential(grid, f.values, tg) / A_QUAD.a(tg)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("spec", [DISK, STAR], ids=["disk", "star"])
    def test_rows_do_not_depend_on_the_block_size(self, spec, monkeypatch):
        # every representative in one cardinal block, or each in its own
        tg = np.concatenate([build_domain_grid(spec, 16, 8).points[::3],
                             build_curve(spec, 32).points])
        calls, passes = [], {}
        cardinals = geometry.DomainGrid.cardinal_matrices

        def counted(grid, points):
            calls.append(len(points))
            return cardinals(grid, points)

        monkeypatch.setattr(geometry.DomainGrid, "cardinal_matrices", counted)
        for cap in (1, 2**22):
            monkeypatch.setattr(geometry, "BLOCK_ENTRIES", cap)
            grid = build_domain_grid(spec, 16, 8)
            passes[cap] = potentials._volume_pass(
                grid, tg, lambda y, d: potentials._remainder_kernel(
                    y, d, A_QUAD, "x"))
            calls.append(None)
        n_orbits = len(list(potentials._orbits(grid, tg)))
        assert calls.index(None) == n_orbits and len(calls) == n_orbits + 3
        for small, large in zip(passes[1], passes[2**22]):
            np.testing.assert_array_equal(small, large)

    def test_remainder_pass_stores_log_rows(self, monkeypatch):
        grid = build_domain_grid(DISK, 16, 8)
        tg = grid.points[:5]
        potentials.remainder_rows(grid, A_QUAD, "x", tg)
        key = ("log", tg.tobytes())
        assert set(grid._cache) == {("rule", y.tobytes()) for y in tg} | {key}
        block = grid._cache[key]
        assert block.shape == (len(tg), grid.n_nodes)
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
        # the same rows as a log-only pass on a fresh grid
        fresh = build_domain_grid(DISK, 16, 8)
        assert np.array_equal(potentials._volume_pass(fresh, tg)[0], block)

        def refuse(*args, **kwargs):
            raise AssertionError("log rows rebuilt")

        # the other family keeps the stored block and builds no log rows
        # (its remainder kernel reads only the table's "gs"), and the
        # volume term reads it without another pass
        table = laplace.layer_kernel_values
        monkeypatch.setattr(laplace, "layer_kernel_values",
                            lambda kind, *args: refuse() if kind == "s"
                            else table(kind, *args))
        potentials.remainder_rows(grid, A_QUAD, "y", tg)
        assert grid._cache[key] is block
        monkeypatch.setattr(potentials, "_volume_pass", refuse)
        f = DomainField(grid, np.cos(grid.points[:, 0]))
        np.testing.assert_array_equal(
            volume_potential(grid, A_ONE, "x", f, tg), block @ f.values)


def _anchored_reference(grid, coeff, targets):
    """Per-target R rows of each family and log rows: each target's own
    anchored rule and cardinals, contracted by ``interpolation_row``."""
    base, n_r = potentials._rule_params(grid)
    rows, logs = {family: [] for family in FAMILIES}, []
    for y in targets:
        pts, w = polar_rule_for_target(grid.spec, y, base=base,
                                       n_r=n_r).nodes()
        A, S = grid.cardinal_matrices(pts)
        for family in FAMILIES:
            ker = potentials._remainder_kernel(y[None], (pts - y)[None],
                                               coeff, family)[0]
            rows[family].append(grid.interpolation_row(w * ker, A, S))
        g = laplace.layer_kernel_values("s", *(pts - y).T)
        logs.append(grid.interpolation_row(-w * g, A, S))
    return {family: np.array(r) for family, r in rows.items()}, np.array(logs)


ORBIT_SPECS = {
    "disk": DomainSpec("disk", center=(0.1, -0.2), radius=0.4),
    "star-2fold": DomainSpec("star", center=(0.0, 0.0),
                             cos_coeffs=(0.3, 0.0, 0.03)),
    "star-asymmetric": DomainSpec("star", center=(0.05, 0.0),
                                  cos_coeffs=(0.3, 0.02, 0.03)),
    "star-nonconvex": DomainSpec("star", center=(0.0, 0.0),
                                 cos_coeffs=(0.3, 0.05, 0.0, 0.0, 0.0, 0.08)),
}


def _image(v, k, n_t, flip):
    """Offsets v (..., 2) mirrored about the horizontal axis if ``flip``,
    then rotated by k grid angular steps."""
    a = 2 * np.pi * k / n_t
    rot = np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])
    return (v * ([1.0, -1.0] if flip else 1.0)) @ rot


def _brute_force_orbit_count(grid, tg):
    """Targets that are no group image of an earlier target.  The group:
    every grid rotation that maps the domain onto itself, found by
    sampling the profile, each with and without the mirror."""
    spec, n_t = grid.spec, grid.n_t
    th = np.linspace(0.0, 2 * np.pi, 97, endpoint=False)
    steps = [k for k in range(n_t) if np.allclose(
        spec.rho(th + 2 * np.pi * k / n_t), spec.rho(th), rtol=0,
        atol=1e-15)]
    v = tg - spec.center
    images = np.array([_image(v, k, n_t, f) for k in steps
                       for f in (False, True)])
    dist = np.abs(images[:, :, None, :] - v[None, None, :, :]).max(-1)
    hit = (dist <= 1e-12).any(0)           # hit[j, i]: i is an image of j
    return sum(not hit[:i, i].any() for i in range(len(tg)))


@st.composite
def orbit_cases(draw):
    """A disk or a star with a random set of cosine modes (so random
    rotation steps), a random even n_t, random interior targets, some on
    half grid steps (the sector edges and mirror axes of a disk), and the
    image of each under a random group element (k steps, flip)."""
    center = (draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2)))
    if draw(st.booleans()):
        spec = DomainSpec("disk", center=center,
                          radius=draw(st.floats(0.2, 0.45)))
    else:
        modes = draw(st.sets(st.integers(1, 6), min_size=1, max_size=3))
        coeffs = np.zeros(7)
        coeffs[0] = 0.3
        for k in modes:
            coeffs[k] = draw(st.floats(0.01, 0.1)) * draw(st.sampled_from(
                [-1.0, 1.0])) / len(modes)
        spec = DomainSpec("star", center=center, cos_coeffs=coeffs)
    n_t = 2 * draw(st.integers(4, 16))
    angle = st.one_of(st.floats(0.0, 2 * np.pi),
                      st.integers(0, 2 * n_t - 1).map(lambda j: j * np.pi / n_t))
    th = np.array(draw(st.lists(angle, min_size=1, max_size=6)))
    s = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=len(th),
                               max_size=len(th))))
    v = (s * spec.rho(th))[:, None] * np.stack([np.cos(th), np.sin(th)], 1)
    ks = draw(st.lists(st.integers(0, n_t - 1), min_size=len(th),
                       max_size=len(th)))
    flips = draw(st.lists(st.booleans(), min_size=len(th),
                          max_size=len(th)))
    return spec, n_t, v, ks, flips


class TestOrbits:
    @settings(max_examples=60, deadline=None)
    @given(case=orbit_cases())
    def test_images_share_their_preimage_orbit(self, case):
        spec, n_t, v, ks, flips = case
        grid = build_domain_grid(spec, n_t, 4)
        step = potentials._rotation_step(grid)
        images = np.array([_image(vi, step * k, n_t, f)
                           for vi, k, f in zip(v, ks, flips)])
        tg = spec.center + np.concatenate([v, images])
        orbit = np.empty(len(tg), dtype=int)
        tol = potentials.ORBIT_TOL * spec.max_rho()
        for rep, members, shifts, fl in potentials._orbits(grid, tg):
            orbit[members] = rep
            for i, k, f in zip(members, shifts, fl):
                mapped = spec.center + _image(tg[rep] - spec.center, k,
                                              n_t, f)
                assert np.abs(mapped - tg[i]).max() <= tol
        np.testing.assert_array_equal(orbit[len(v):], orbit[:len(v)])

    @pytest.mark.parametrize("name", list(ORBIT_SPECS))
    def test_orbit_rows_match_per_target_reference(self, name):
        spec = ORBIT_SPECS[name]
        grid, curve = build_domain_grid(spec, 16, 8), build_curve(spec, 32)
        tg = np.concatenate([grid.points, curve.points])
        orbits = list(potentials._orbits(grid, tg))
        n_orbits = _brute_force_orbit_count(grid, tg)
        assert len(orbits) == n_orbits
        if spec.kind == "star":
            # stars mirror both interior and curve targets
            flipped = np.concatenate([m[f] for _, m, _, f in orbits])
            assert flipped.min() < grid.n_nodes <= flipped.max()
        refs, ref_log = _anchored_reference(grid, A_QUAD, tg)
        for family, ref in refs.items():
            got = potentials.remainder_rows(grid, A_QUAD, family, tg)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        logs = grid._cache[("log", tg.tobytes())]
        assert np.abs(logs - ref_log).max() <= 1e-12 * np.abs(ref_log).max()
        kinds = sorted(k[0] for k in grid._cache)
        assert kinds == ["log"] + ["rule"] * n_orbits

    @pytest.mark.parametrize("name", list(ORBIT_SPECS))
    def test_member_rule_is_rotated_representative_rule(self, name):
        # interior targets only: a boundary target's own rule depends, at
        # rounding level, on how far off the curve its coordinates lie
        spec = ORBIT_SPECS[name]
        grid = build_domain_grid(spec, 16, 8)
        step = potentials._rotation_step(grid)
        turns = np.arange(0, grid.n_t, step)
        y = potentials._rotate(np.array([0.13, 0.05]), turns, grid.n_t)
        tg = np.concatenate([grid.points[5::8], spec.center + y])
        orbits = list(potentials._orbits(grid, tg))
        assert len(orbits) == _brute_force_orbit_count(grid, tg)
        assert len(orbits) < len(tg)
        base, n_r = potentials._rule_params(grid)
        for rep, members, shifts, flips in orbits:
            p0, w0 = potentials._rule(grid, tg[rep]).nodes()
            for i, k, f in zip(members, shifts, flips):
                own, w = polar_rule_for_target(spec, tg[i], base=base,
                                               n_r=n_r).nodes()
                mapped = spec.center + _image(p0 - spec.center, k,
                                              grid.n_t, f)
                if not f:
                    assert np.abs(own - mapped).max() <= 1e-14
                # as node sets: a one-to-one match, with equal weights
                dist, near = cKDTree(mapped).query(own, p=np.inf)
                assert len(own) == len(mapped) == len(set(near))
                assert dist.max() <= 1e-14
                assert np.abs(w - w0[near]).max() <= 1e-13 * w0.max()

    def test_repeated_near_image_shares_one_orbit(self):
        # the second target folds onto the first's key but is no exact
        # image of it; its repeat must still join it, not stand alone
        spec = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(0.3, -0.0625))
        grid = build_domain_grid(spec, 8, 4)
        y = np.array([[0.11875, 0.0], [0.11875, 1.1875e-12]])
        tg = spec.center + np.concatenate([y, y])
        orbits = {rep: list(m) for rep, m, _, _ in
                  potentials._orbits(grid, tg)}
        assert orbits == {0: [0, 2], 1: [1, 3]}

    def test_no_targets_give_no_rows(self):
        grid = build_domain_grid(DISK, 8, 4)
        none = np.zeros((0, 2))
        assert potentials.remainder_rows(grid, A_QUAD, "x", none).shape == (
            0, grid.n_nodes)
        assert volume_potential(grid, A_ONE, "x", DomainField(
            grid, np.ones(grid.n_nodes)), none).shape == (0,)

    def test_log_potential_fills_rows_through_orbits(self, monkeypatch):
        grid = build_domain_grid(DISK, 16, 8)
        calls = []
        build = potentials.polar_rules

        def counted(spec, targets, *args, **kwargs):
            calls.extend(targets)
            return build(spec, targets, *args, **kwargs)

        monkeypatch.setattr(potentials, "polar_rules", counted)
        f = DomainField(grid, np.cos(grid.points[:, 0]))
        got = volume_potential(grid, A_ONE, "x", f, grid.points)
        assert len(calls) == grid.n_s
        ref = _einsum_log_potential(grid, f.values, grid.points)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestRemainder:
    def test_constant_coefficient_vanishes(self, grid):
        f = DomainField(grid, np.cos(grid.points[:, 0]))
        got = remainder_potential(grid, make_preset("constant", value=2.0),
                                  "x", f, [[0.1, 0.0], [0.0, 0.0]])
        assert np.abs(got).max() < 1e-12

    def test_constant_name_does_not_drop_remainder(self, grid):
        lie = Coefficient(name="constant-lie", a=A_QUAD.a,
                          grad_a=A_QUAD.grad_a, grad_ln_a=A_QUAD.grad_ln_a,
                          laplacian_ln_a=A_QUAD.laplacian_ln_a)
        assert not lie.constant
        tg = [[0.1, 0.0], [0.0, 0.2]]
        assert np.abs(potentials.remainder_rows(grid, lie, "x", tg)).max() > 0
        f = DomainField(grid, np.ones(grid.n_nodes))
        assert np.abs(remainder_potential(grid, lie, "x", f, tg)).max() > 1e-3

    @pytest.mark.parametrize("coeff", [A_EXP, A_QUAD],
                             ids=["exponential", "quadratic"])
    def test_subtraction_identity(self, curve, grid, coeff):
        # 1 + R1(y) + W1(y) = 0 inside, both sides independent
        targets = np.array([[0.0, 0.0], [0.2, 0.1], [-0.25, 0.05],
                            [0.05, -0.3]])
        ones_f = DomainField(grid, np.ones(grid.n_nodes))
        ones_b = BoundaryDensity(curve, np.ones(curve.n))
        r1 = remainder_potential(grid, coeff, "x", ones_f, targets)
        w1 = layer_rows(curve, coeff, "x", "W", targets) @ ones_b.values
        assert np.abs(1.0 + r1 + w1).max() < 1e-6

    def test_exponential_center_symmetry(self, grid):
        # kernel reduces to -(1,1) . grad G; odd about the center
        f = DomainField(grid, np.ones(grid.n_nodes))
        got = remainder_potential(grid, A_EXP, "x", f, [[0.0, 0.0]])
        assert abs(got[0]) < 1e-12

    def test_relation_path_cross_check(self, grid):
        f = DomainField(grid, 1.0 + grid.points[:, 1])
        tg = np.array([[0.1, 0.05], [-0.12, 0.2]])
        for fam in ("x", "y"):
            a = remainder_potential(grid, A_QUAD, fam, f, tg)
            b = verification.remainder_via_relation(grid, A_QUAD, fam, f, tg)
            assert np.abs(a - b).max() < 1e-6


class TestFamilyValidation:
    def test_unknown_family_rejected(self, curve):
        rho = BoundaryDensity(curve, np.ones(64))
        with pytest.raises(ValueError):
            single_layer_direct_matrix(curve, A_ONE, "z") @ rho.values
