import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_verification import BENCH_STAR, NONCONVEX_STAR, convex_domains

from bdies2d import geometry, potentials
from bdies2d.coefficient import make_preset
from bdies2d.gauss_log_rules import GAUSS_LOG_RULES
from bdies2d.geometry import (DomainSpec, GeometryError, PolarRules,
                              build_curve, build_domain_grid, gauss_01,
                              polar_rule_for_target, polar_rules, rule_nodes,
                              trig_cardinal_rows)
from bdies2d.solver import DiameterError, assemble_system, check_diameter

DISK = DomainSpec("disk", center=(0.0, 0.0), radius=0.4)
STAR = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(0.3, 0.0, 0.0, 0.06))
#: A two-mode star with a grazing gap (test_segments_match_dense_level_
#: sampling).
GRAZING_STAR = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(
    0.25, -0.02115967129084601, -0.14457573756088488))


@st.composite
def star_profiles(draw):
    """Stars with 2 to 7 cosine modes, convex or not: sum_{k>=1} |c_k| <
    c_0 keeps the profile positive."""
    center = (draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2)))
    c0 = draw(st.floats(0.2, 0.35))
    tail = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1,
                                  max_size=6)))
    share = draw(st.floats(0.0, 0.9))
    tail *= share * c0 / max(np.abs(tail).sum(), 1.0)
    return DomainSpec("star", center=center,
                      cos_coeffs=np.concatenate([[c0], tail]))


def winding_number_inside(poly, pts):
    """Point-in-polygon oracle by summing signed angles around each point."""
    pts = np.atleast_2d(pts)
    out = []
    for p in pts:
        d = poly - p
        ang = np.arctan2(d[:, 1], d[:, 0])
        dang = np.diff(np.append(ang, ang[0]))
        dang = (dang + np.pi) % (2 * np.pi) - np.pi
        out.append(abs(dang.sum()) > np.pi)
    return np.array(out)


def _disk_extents(disk, y, dirs):
    """Distance from y, inside the disk, to its boundary along each unit
    direction: the positive root of |y - c + r d|^2 = R^2."""
    d = y - disk.center
    de = dirs @ d
    return -de + np.sqrt(disk.radius**2 - d @ d + de**2)


def _reach(spec, y):
    """|y - c| + sum |c_k|: no boundary point is farther from y."""
    return np.linalg.norm(y - spec.center) + np.abs(spec.cos_coeffs).sum()


def _segments(rules, i=0):
    """Target i's segments in a rule table: the index of each one's ray
    among the target's rays that hold segments, those rays' directions,
    and each segment's start and end radius.  Segments on one ray are
    consecutive and carry its direction bitwise."""
    seg = slice(rules.cuts[i], rules.cuts[i + 1])
    d = np.stack([rules.dx[seg], rules.dy[seg]], axis=1)
    new = np.r_[True, (d[1:] != d[:-1]).any(1)]
    return np.cumsum(new) - 1, d[new], (rules.start[seg], rules.end[seg])


def _equispaced_fan(dirs):
    """Whether unit directions are one full turn of equispaced rays, in
    order: every step turns by 2pi / len(dirs)."""
    nxt = np.roll(dirs, -1, axis=0)
    turn = np.arctan2(dirs[:, 0] * nxt[:, 1] - dirs[:, 1] * nxt[:, 0],
                      (dirs * nxt).sum(1))
    return np.abs(turn - 2 * np.pi / len(dirs)).max() <= 1e-12


def _level_mismatches(spec, rules, i, samples=4096, margin=1e-6):
    """(sample, ray) pairs where the level at ``samples`` equispaced radii
    up to target i's reach, farther than ``margin`` from every segment end
    on the ray, disagrees with its segments: inside a segment but not
    below 1, or outside every segment but below 1.  The rays are those
    holding segments and, for a boundary target, the opposite of each:
    its exterior window, whose rays may hold none, is its interior window
    turned by pi."""
    y = rules.targets[i]
    ray, dirs, (a, b) = _segments(rules, i)
    if spec.level(y)[0] >= 1.0 - geometry.BOUNDARY_LEVEL_TOL:
        opp = -dirs
        held = np.abs(opp[:, None] - dirs[None]).max(2).min(1) <= 1e-12
        dirs = np.concatenate([dirs, opp[~held]])
    reach = _reach(spec, y)
    r = reach * np.arange(1, samples + 1) / samples
    inside = spec.level((y + r[:, None, None] * dirs).reshape(-1, 2)).reshape(
        samples, len(dirs)) < 1.0
    # rays laid end to end, 2 reach apart: one sorted key for all of them
    key = np.arange(len(dirs)) * 2 * reach + r[:, None]
    a, b = ray * 2 * reach + a, ray * 2 * reach + b
    covered = np.searchsorted(a, key) > np.searchsorted(b, key)
    ends = np.sort(np.concatenate([a, b]))
    at = np.searchsorted(ends, key)
    near = np.minimum(np.abs(key - ends[np.maximum(at - 1, 0)]),
                      np.abs(ends[np.minimum(at, len(ends) - 1)] - key))
    return np.argwhere((inside != covered) & (near > margin))


def _stacked_distance(curve, pts):
    """Reference for ``BoundaryCurve._distance``: each block's squared
    distances summed over the last axis of a (64, m, 2) offset array."""
    m = max(8 * curve.n, 512)
    tt = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    bp = curve.spec.boundary_point(tt)
    j = np.empty(len(pts), dtype=int)
    f = np.empty((len(pts), 3))
    for i in range(0, len(pts), 64):
        d2 = ((pts[i:i + 64, None, :] - bp[None, :, :]) ** 2).sum(-1)
        j[i:i + 64] = d2.argmin(axis=1)
        f[i:i + 64] = np.take_along_axis(
            d2, (j[i:i + 64, None] + np.arange(-1, 2)) % m, axis=1)
    fm, f0, fp = f.T
    denom = fm - 2 * f0 + fp
    shift = np.where(np.abs(denom) > 1e-300, 0.5 * (fm - fp) / np.where(
        denom == 0, 1, denom), 0.0)
    t = tt[j] + shift * (2 * np.pi / m)
    spec = curve.spec
    # a Newton step on (x(t) - p) . x'(t) = 0
    rho, drho = spec.rho(t), spec.drho(t)
    e = np.stack([np.cos(t), np.sin(t)], 1)
    n = e[:, ::-1] * [-1.0, 1.0]
    off = rho[:, None] * e + (spec.center - pts)
    v = drho[:, None] * e + rho[:, None] * n
    acc = (spec.ddrho(t) - rho)[:, None] * e + 2 * drho[:, None] * n
    f, df = (off * v).sum(1), (v * v + off * acc).sum(1)
    t = t - np.where(df > 0, f / np.where(df > 0, df, 1.0), 0.0)
    bref = spec.boundary_point(t)
    return np.minimum(np.sqrt(f0), np.linalg.norm(pts - bref, axis=1))


class TestBoundaryCurve:
    def test_disk_nodes_equispaced_on_circle(self):
        curve = build_curve(DISK, 16)
        t = 2 * np.pi * np.arange(16) / 16
        expected = 0.4 * np.stack([np.cos(t), np.sin(t)], axis=1)
        np.testing.assert_allclose(curve.points, expected, atol=1e-15)
        np.testing.assert_allclose(curve.normals,
                                   expected / np.linalg.norm(expected, axis=1,
                                                             keepdims=True),
                                   atol=1e-14)

    def test_disk_curvature_constant(self):
        curve = build_curve(DISK, 16)
        np.testing.assert_allclose(curve.curvatures, 2.5, atol=1e-12)

    def test_star_normals_outward_by_winding_oracle(self):
        curve = build_curve(STAR, 64)
        tt = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        poly = STAR.boundary_point(tt)
        eps = 1e-4
        assert not winding_number_inside(poly, curve.points
                                         + eps * curve.normals).any()
        assert winding_number_inside(poly, curve.points
                                     - eps * curve.normals).all()

    def test_disk_length_exact_at_any_n(self):
        for n in (8, 16, 50):
            curve = build_curve(DISK, n)
            assert abs(curve.length() - 2 * np.pi * 0.4) < 1e-12

    def test_outward_normal_against_center(self):
        curve = build_curve(STAR, 32)
        assert ((curve.points - STAR.center) * curve.normals).sum(1).min() > 0

    @pytest.mark.parametrize("n", [7, 9, 4])
    def test_bad_node_counts_rejected(self, n):
        with pytest.raises(GeometryError):
            build_curve(DISK, n)

    @pytest.mark.parametrize("n", [32.0, "32", None])
    def test_counts_that_are_not_integers_rejected(self, n):
        with pytest.raises(GeometryError, match="n_boundary must be an integer"):
            build_curve(DISK, n)

    def test_numpy_integer_count_builds(self):
        curve = build_curve(DISK, np.int64(32))
        assert type(curve.n) is int and curve.n == 32

    @pytest.mark.parametrize("spec", [
        DomainSpec("disk", center=(0.0, 0.0), radius=1e4),
        DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(3e3, 0.0, 3e2))],
        ids=["disk-1e4", "star-3e3"])
    def test_large_domains_build(self, spec):
        # a cosine series is periodic; absolute tolerances on its closure
        # and derivative refused a disk of radius 1e4
        curve = build_curve(spec, 64)
        assert abs(curve.length() / (2 * np.pi * spec.cos_coeffs[0]) - 1) < 0.05
        grid = build_domain_grid(spec, 16, 8)
        with pytest.raises(DiameterError, match="diameter"):
            assemble_system(curve, grid, make_preset("constant"), "x")

    def test_nonpositive_radial_profile_rejected(self):
        with pytest.raises(GeometryError):
            DomainSpec("star", center=(0, 0), cos_coeffs=(0.1, 0.0, 0.2))

    @settings(max_examples=30, deadline=None)
    @given(center=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
           radius=st.floats(0.2, 0.35), n=st.sampled_from([8, 32, 64, 128]),
           polar=st.lists(st.tuples(st.floats(0.0, 2.0),
                                    st.floats(0.0, 2 * np.pi)),
                          min_size=1, max_size=80))
    @example(center=(0.0, 0.0), radius=0.4, n=32,
             polar=[(0.75, 0.0), (0.0, 0.0), (1.25, 0.0)])
    @example(center=(0.0, 0.0), radius=0.25, n=8, polar=[(1.0, 1.0)])
    def test_distance_to_boundary_disk(self, center, radius, n, polar):
        # the sampled path, inside, outside and on the circle: |R - |y - c||
        # to 1e-12; the parabolic step alone missed by up to R h^3 / 60 at
        # sample spacing h on the circle, the Newton step closes that
        disk = DomainSpec("disk", center=center, radius=radius)
        s, phi = np.array(polar).T
        pts = disk.center + radius * s[:, None] * np.stack(
            [np.cos(phi), np.sin(phi)], axis=1)
        exact = np.abs(radius - np.hypot(*(pts - disk.center).T))
        err = build_curve(disk, n).distance_to(pts) - exact
        assert np.abs(err).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(spec=convex_domains(), n=st.sampled_from([16, 64, 96, 128]))
    @example(spec=NONCONVEX_STAR, n=128)
    def test_distance_matches_stacked_offsets(self, spec, n):
        # grid, curve and outside points, over several row blocks
        curve = build_curve(spec, n)
        pts = np.concatenate([build_domain_grid(spec, 16, 8).points,
                              curve.points,
                              spec.center + 1.5 * (curve.points - spec.center)])
        np.testing.assert_array_equal(curve.distance_to(pts),
                                      _stacked_distance(curve, pts))

    @pytest.mark.parametrize("spec", [DISK, STAR], ids=["disk", "star"])
    def test_distance_is_computed_once_per_point_set(self, spec,
                                                     monkeypatch):
        curve = build_curve(spec, 32)
        calls = []
        compute = geometry.BoundaryCurve._distance

        def counted(self, pts):
            calls.append(len(pts))
            return compute(self, pts)

        monkeypatch.setattr(geometry.BoundaryCurve, "_distance", counted)
        pts = np.array([[0.1, 0.0], [0.0, -0.05], [0.02, 0.03]])
        d = curve.distance_to(pts)
        assert curve.distance_to(pts.copy()) is d
        with pytest.raises(ValueError):
            d[0] = 1.0
        np.testing.assert_array_equal(curve.distance_to(pts[:2]), d[:2])
        assert calls == [3, 2]

    @pytest.mark.parametrize("spec", [DISK, STAR], ids=["disk", "star"])
    def test_max_speed_is_sampled_once_per_curve(self, spec, monkeypatch):
        # every near-row build reads it; it is kept with the curve, bitwise
        # the maximum over its 1,024 samples
        curve = build_curve(spec, 32)
        t = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
        want = float(spec.boundary_speed(t).max())
        calls = []
        speed = DomainSpec.boundary_speed

        def counted(self, t):
            calls.append(len(t))
            return speed(self, t)

        monkeypatch.setattr(DomainSpec, "boundary_speed", counted)
        assert curve.max_speed() == want
        assert curve.max_speed() == want
        assert calls == [1024]

    @pytest.mark.parametrize("spec", [DISK, STAR], ids=["disk", "star"])
    def test_fine_nodes_are_strided_views_of_one_entry(self, spec):
        # each count n 2^k reads the one entry at the largest count asked
        # for so far, bitwise the direct evaluation at its parameters
        curve = build_curve(spec, 16)
        top = 0
        for N in (64, 256, 32, 1024, 16, 128):
            t = 2 * np.pi * np.arange(N) / N
            want = (spec.boundary_point(t), spec.boundary_normal(t),
                    spec.boundary_speed(t))
            for got, exact in zip(curve.fine_nodes(N), want):
                np.testing.assert_array_equal(got, exact)
                assert not got.flags.writeable
            top = max(top, N)
            assert len(curve._cache["fine_nodes"][2]) == top
        assert [k for k in curve._cache if "fine" in str(k)] == ["fine_nodes"]

    def test_star_distance_memory_is_bounded(self):
        # one (targets x samples x 2) temporary would be ~72 MB here
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.0, 0.03))
        curve, grid = build_curve(spec, 256), build_domain_grid(spec, 64, 24)
        tracemalloc.start()
        try:
            d = curve.distance_to(grid.points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        # targets on either side of a block edge get their one-target values
        np.testing.assert_array_equal(
            d[60:70], [curve.distance_to(p)[0] for p in grid.points[60:70]])


class TestDomainGrid:
    def test_disk_weights_sum_to_area(self):
        grid = build_domain_grid(DISK, 32, 16)
        assert abs(grid.weights.sum() - np.pi * 0.16) < 1e-10 * np.pi * 0.16

    def test_interpolation_of_linear_function(self):
        grid = build_domain_grid(DISK, 32, 16)
        vals = grid.points[:, 0]
        pts = np.array([[0.11, 0.07], [0.0, 0.2], [-0.33, -0.1]])
        got = grid.interpolate(vals, pts)
        assert np.abs(got - pts[:, 0]).max() < 1e-10

    def test_interpolation_reproduces_nodal_values(self):
        grid = build_domain_grid(DISK, 16, 8)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(grid.n_nodes)
        got = grid.interpolate(vals, grid.points)
        np.testing.assert_allclose(got, vals, atol=1e-12)

    def test_interpolate_matches_three_operand_einsum(self):
        grid = build_domain_grid(STAR, 16, 8)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(grid.n_nodes)
        pts = np.concatenate([grid.points[::5],
                              0.1 * rng.standard_normal((9, 2))])
        A, S = grid.cardinal_matrices(pts)
        ref = np.einsum("jm,jk,km->m", A, vals.reshape(16, 8), S)
        got = grid.interpolate(vals, pts)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_interpolate_columns_match_one_vector_at_a_time(self):
        grid = build_domain_grid(STAR, 24, 10)
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((grid.n_nodes, 3))
        pts = 0.1 * rng.standard_normal((40, 2))
        got = grid.interpolate(vals, pts)
        assert got.shape == (40, 3)
        for c in range(3):
            ref = grid.interpolate(vals[:, c], pts)
            assert np.abs(got[:, c] - ref).max() <= 1e-14 * np.abs(ref).max()
        assert grid.interpolate(vals, np.zeros((0, 2))).shape == (0, 3)

    @pytest.mark.parametrize("m", [0, 1, 150])
    @pytest.mark.parametrize("spec", [DISK, BENCH_STAR, NONCONVEX_STAR],
                             ids=["disk", "star", "nonconvex"])
    def test_cardinals_of_a_point_do_not_depend_on_its_set(self, spec, m):
        # every step is elementwise per point and each column is summed as
        # a lone column is, so a point's (A, S) are the same bitwise alone
        # and within any set; grid nodes take the unit-column path
        grid = build_domain_grid(spec, 32, 12)
        rng = np.random.default_rng(m)
        th = rng.uniform(0.0, 2 * np.pi, m)
        s = np.sqrt(rng.uniform(0.0, 1.0, m)) * spec.rho(th)
        pts = spec.center + s[:, None] * np.stack([np.cos(th), np.sin(th)],
                                                  axis=1)
        pts[::10] = grid.points[rng.integers(0, grid.n_nodes, len(pts[::10]))]
        A, S = grid.cardinal_matrices(pts)
        assert A.shape == (grid.n_t, m) and S.shape == (grid.n_s, m)
        for i in range(m):
            a, s_i = grid.cardinal_matrices(pts[i:i + 1])
            np.testing.assert_array_equal(a, A[:, i:i + 1])
            np.testing.assert_array_equal(s_i, S[:, i:i + 1])

    @settings(max_examples=40, deadline=None)
    @given(spec=st.one_of(convex_domains(), star_profiles()),
           n_t=st.sampled_from([8, 12, 16, 24, 32]), n_s=st.integers(4, 12),
           k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_interpolate_reproduces_band_limited_tensor_data(self, spec, n_t,
                                                             n_s, k, seed):
        # per column, a trigonometric polynomial in theta of degree below
        # n_t / 2 times a polynomial in s of degree below n_s: the tensor
        # interpolant reproduces it
        rng = np.random.default_rng(seed)
        grid = build_domain_grid(spec, n_t, n_s)
        modes = np.arange(n_t // 2)
        a, b = rng.standard_normal((2, len(modes), k))
        c = rng.standard_normal((n_s, k))

        def trig(theta):
            ang = np.multiply.outer(theta, modes)
            return np.cos(ang) @ a + np.sin(ang) @ b

        def poly(s):
            return np.vander(s, n_s, increasing=True) @ c

        values = (trig(grid.theta)[:, None, :]
                  * poly(grid.s_nodes)[None, :, :]).reshape(grid.n_nodes, k)
        th = rng.uniform(0.0, 2 * np.pi, 50)
        s = rng.uniform(0.0, 1.0, 50) * spec.rho(th)
        pts = spec.center + s[:, None] * np.stack([np.cos(th), np.sin(th)],
                                                  axis=1)
        # the exact values at the angles and levels the grid reads off
        v = pts - spec.center
        want = (trig(np.arctan2(v[:, 1], v[:, 0]))
                * poly(np.clip(spec.level(pts), 0.0, 1.0)))
        got = grid.interpolate(values, pts)
        assert got.shape == (50, k)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(values).max()

    def test_star_grid_nodes_inside_by_winding_oracle(self):
        grid = build_domain_grid(STAR, 32, 12)
        tt = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        poly = STAR.boundary_point(tt)
        assert winding_number_inside(poly, grid.points).all()

    def test_star_weights_sum_to_area(self):
        grid = build_domain_grid(STAR, 32, 12)
        assert abs(grid.weights.sum() - STAR.area()) < 1e-12

    def test_bad_counts_rejected(self):
        with pytest.raises(GeometryError):
            build_domain_grid(DISK, 7, 8)
        with pytest.raises(GeometryError):
            build_domain_grid(DISK, 16, 3)

    @pytest.mark.parametrize("counts, name", [((8.0, 4), "n_t"),
                                              ((8, 4.0), "n_s")],
                             ids=["n_t-float", "n_s-float"])
    def test_counts_that_are_not_integers_rejected(self, counts, name):
        with pytest.raises(GeometryError, match=f"{name} must be an integer"):
            build_domain_grid(DISK, *counts)


def _integrate(rules, f):
    """Integral of f, a callable of (N, 2) points, by a one-target table."""
    pts, wts, _ = rule_nodes(rules)
    return float(wts @ f(pts))


def _one_segment(a, b, n_r):
    """A one-target table: the segment [a, b] along the x axis from the
    origin, of angular weight 1."""
    return PolarRules(targets=np.zeros((1, 2)), cuts=np.array([0, 1]),
                      dx=np.ones(1), dy=np.zeros(1), wtheta=np.ones(1),
                      start=np.array([a]), end=np.array([b]), n_r=n_r)


class TestPolarRule:
    def test_center_extents_and_log_integral(self):
        rule = polar_rule_for_target(DISK, [0.0, 0.0], 48, 10)
        ray, dirs, (a, b) = _segments(rule)
        # one segment on each of 48 rays, from the target to the boundary
        th = 2 * np.pi * np.arange(48) / 48
        np.testing.assert_array_equal(ray, np.arange(48))
        np.testing.assert_array_equal(dirs, np.stack([np.cos(th),
                                                      np.sin(th)], axis=1))
        np.testing.assert_array_equal(a, 0.0)
        np.testing.assert_allclose(b, 0.4, atol=1e-13)
        # closed form: integral of log|x| over the disk = pi r^2 (log r - 1/2)
        exact = np.pi * 0.16 * (np.log(0.4) - 0.5)
        got = _integrate(rule, lambda p: np.log(np.linalg.norm(p, axis=1)))
        assert abs(got - exact) < 1e-8 * abs(exact)

    def test_constant_integrates_to_area(self):
        for y in ([0.0, 0.0], [0.2, 0.1], [0.38, 0.0]):
            rule = polar_rule_for_target(DISK, y, 64, 10)
            weights = rule_nodes(rule)[1]
            assert abs(weights.sum() - np.pi * 0.16) < 1e-8 * np.pi * 0.16

    def test_boundary_target_covers_area(self):
        points, weights, _ = rule_nodes(
            polar_rule_for_target(DISK, [0.4, 0.0], 48, 10))
        area = np.pi * 0.16
        assert abs(weights.sum() - area) < 1e-6 * area
        # interior-normal window: all points strictly inside
        assert DISK.level(points).max() <= 1.0 + 1e-12

    def test_all_points_inside_closure(self):
        for spec, y in ((DISK, [0.3, 0.1]), (STAR, [0.05, -0.02])):
            points = rule_nodes(polar_rule_for_target(spec, y, 64, 10))[0]
            assert spec.level(points).max() <= 1.0 + 1e-10

    def test_star_boundary_target_covers_area(self):
        # multi-segment coverage keeps the valley lobes visible
        y = STAR.boundary_point(np.pi / 3)
        weights = rule_nodes(polar_rule_for_target(STAR, y, 192, 10))[1]
        assert abs(weights.sum() - STAR.area()) < 1e-3 * STAR.area()

    def test_exterior_target_rejected(self):
        with pytest.raises(GeometryError):
            polar_rule_for_target(DISK, [0.5, 0.0], 32, 8)

    def test_inside_segments_on_nonconvex_star(self):
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.05, 0.0, 0.0, 0.0, 0.08))
        targets = np.concatenate([
            build_domain_grid(spec, 8, 4).points,
            spec.boundary_point(2 * np.pi * np.arange(8) / 8)])
        rays_with_gaps = 0
        for y in targets:
            ray, dirs, (a, b) = _segments(polar_rule_for_target(spec, y, 96,
                                                                10))
            assert np.all((0.0 <= a) & (a < b))

            def level(r, k):
                return spec.level(y + r[:, None] * dirs[k])

            # a window-edge chord of a boundary target can be far shorter
            # (test_star_boundary_rules_keep_window_edge_chords), too short
            # for the level at its midpoint to read below 1
            long = b - a > 1e-6
            assert np.all(level(0.5 * (a + b)[long], ray[long]) < 1.0)
            gap = ray[1:] == ray[:-1]
            assert np.all(level(0.5 * (b[:-1] + a[1:])[gap],
                                ray[1:][gap]) > 1.0)
            ends = np.concatenate([a[a > 0], b])
            on = np.concatenate([ray[a > 0], ray])
            assert np.all(np.abs(level(ends, on) - 1.0) <= 1e-12)
            rays_with_gaps += gap.sum()
        assert rays_with_gaps > 0

    def test_circle_star_segments_match_disk_extents(self):
        # a disk is the one-mode star: its crossings have a closed form
        disk = DomainSpec("disk", center=(0.1, -0.2), radius=0.4)
        offsets = [[0.0, 0.0], [0.15, -0.1],
                   0.4 * (1 - 1e-6) * np.array([np.cos(2.0), np.sin(2.0)]),
                   0.4 * np.array([np.cos(0.7), np.sin(0.7)]),
                   0.4 * np.array([np.cos(-2.5), np.sin(-2.5)])]
        for off in offsets:
            y = disk.center + off
            ray, dirs, (a, b) = _segments(polar_rule_for_target(disk, y, 64,
                                                                10))
            end = _disk_extents(disk, y, dirs)
            # one segment per ray, from the target
            np.testing.assert_array_equal(ray, np.arange(len(dirs)))
            np.testing.assert_array_equal(a, 0.0)
            if disk.level(y)[0] < 1.0 - geometry.BOUNDARY_LEVEL_TOL:
                # on every ray of a full turn
                assert _equispaced_fan(dirs)
            else:
                # a chord on each ray of the interior window, none on the
                # exterior window's
                assert len(dirs) == 64
                assert np.all(dirs @ off < 0.0)
            err = np.abs(b - end)
            exit_offset = off + end[:, None] * dirs
            incidence = (exit_offset * dirs).sum(1) / disk.radius
            steep = incidence >= 0.1
            assert np.all(err[steep] <= 1e-14)
            # a crossing at grazing incidence moves by a rounding error
            # over the incidence cosine, so there compare offsets along
            # the normal: the 768 rays of the third target graze to 1e-3,
            # a boundary target's window-edge rays far more
            assert np.all(err[~steep] * incidence[~steep] <= 1e-14)

    @settings(max_examples=25, deadline=None)
    @given(spec=convex_domains(), s=st.floats(0.0, 0.95),
           phi=st.floats(0.0, 2 * np.pi), t=st.floats(0.0, 2 * np.pi))
    def test_segment_ends_lie_on_random_convex_boundaries(self, spec, s,
                                                          phi, t):
        # boundary targets get the rule's two width-pi windows
        star = DomainSpec("star", center=spec.center,
                          cos_coeffs=spec.cos_coeffs)
        interior = star.center + s * star.rho(phi) * np.array(
            [np.cos(phi), np.sin(phi)])
        for y, is_interior in ((interior, True),
                               (star.boundary_point(t), False)):
            ray, dirs, (a, b) = _segments(polar_rule_for_target(star, y, 48,
                                                                10))
            ends = np.concatenate([a[a > 0], b])
            on = np.concatenate([ray[a > 0], ray])
            lev = star.level(y + ends[:, None] * dirs[on])
            assert np.all(np.abs(lev - 1.0) <= 1e-13)
            if is_interior:
                # one segment, from the target, on every ray of a full turn
                np.testing.assert_array_equal(ray, np.arange(len(dirs)))
                assert _equispaced_fan(dirs)
                np.testing.assert_array_equal(a, 0.0)

    def test_star_rule_profile_evaluations_stay_few(self, monkeypatch):
        # the sight lines and a few Newton steps per rule; a bisection needs
        # about 54 level evaluations per rule
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.0, 0.03))
        spec.max_rho()
        profile = DomainSpec.profile
        calls = []

        def counted(self, cos, sin=None):
            calls.append(1)
            return profile(self, cos, sin)

        monkeypatch.setattr(DomainSpec, "profile", counted)
        for y in (np.array([0.21, 0.08]), spec.boundary_point(0.7)):
            calls.clear()
            polar_rule_for_target(spec, y, 48, 10)
            assert 3 <= len(calls) <= 12

    @settings(max_examples=25, deadline=None)
    @given(spec=star_profiles(), s=st.floats(0.0, 1.0),
           phi=st.floats(0.0, 2 * np.pi), alpha=st.floats(0.0, 2 * np.pi),
           stretch=st.floats(1e-12, 2.0))
    def test_level_exceeds_one_past_the_reach(self, spec, s, phi, alpha,
                                              stretch):
        # no boundary point is farther from y than its reach |y - c| +
        # sum |c_k| (at that radius itself the level can be 1, on a ray
        # through the center): every segment of y's rule ends within it,
        # and _level_mismatches samples rays up to it
        y = spec.center + s * spec.rho(phi) * np.array(
            [np.cos(phi), np.sin(phi)])
        reach = _reach(spec, y)
        th = alpha + 2 * np.pi * np.arange(16) / 16
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        r = reach * (1.0 + stretch * np.linspace(0.125, 1.0, 8))
        lev = spec.level((y + r[:, None, None] * dirs).reshape(-1, 2))
        assert lev.min() > 1.0
        rule = polar_rule_for_target(spec, y, 24, 4)
        assert rule.end.max() <= reach * (1.0 + 4 * np.finfo(float).eps)

    @pytest.mark.parametrize("n_t, n_s", [(16, 8), (32, 12)])
    def test_star_boundary_rules_keep_window_edge_chords(self, n_t, n_s):
        # a ray at angle eps off the tangent cuts a chord of about 2 eps /
        # kappa from the boundary target: real segments, down to 3e-10 at
        # the smoothstep's edge nodes here.  On the 2-fold benchmark star, curve
        # node i + 32 is node i's half-turn image, so the two rules must
        # have equal node counts
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.0, 0.03))
        base, n_r = potentials._rule_params(build_domain_grid(spec, n_t, n_s))
        curve = build_curve(spec, 64)
        rules = polar_rules(spec, curve.points, base, n_r)
        for i, (y, t, kappa) in enumerate(zip(curve.points, curve.t,
                                              curve.curvatures)):
            ray, dirs, (a, b) = _segments(rules, i)
            short = b < 1e-6
            assert 2 <= short.sum() and np.all(a[short] == 0.0)
            tangent = spec.boundary_velocity(t)
            d = dirs[ray[short]]
            eps = np.arcsin(np.abs(d[:, 0] * tangent[1] - d[:, 1] * tangent[0])
                            / np.linalg.norm(tangent))
            # the Newton residual leaves each chord's angle uncertain by a
            # few 1e-16 radians
            np.testing.assert_allclose(b[short], 2 * np.sin(eps) / kappa,
                                       rtol=1e-6, atol=1e-15)
            lev = spec.level(y + b[short, None] * d)
            assert np.all(np.abs(lev - 1.0) <= 1e-15)
        counts = rules.counts.tolist()
        assert counts[:32] == counts[32:]

    def test_star_boundary_rules_cover_area(self):
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.0, 0.03))
        base, n_r = potentials._rule_params(build_domain_grid(spec, 64, 24))
        for y in build_curve(spec, 64).points:
            weights = rule_nodes(polar_rule_for_target(spec, y, base, n_r))[1]
            assert abs(weights.sum() - spec.area()) <= 1e-14

    @pytest.mark.parametrize("a", [0.0, 1e-9, 1e-6, 1e-3])
    def test_segment_near_the_target_is_graded(self, a):
        # a ray that re-enters the domain at a < b - a from the target: the
        # log kernel is singular just before the segment starts, and plain
        # Gauss-Legendre would miss r log r by 3e-6..2e-5 here; a segment
        # at the target gets the n_r-point generalized Gaussian rule, one
        # near it 2 n_r graded points
        b = 0.1

        def antiderivative(r):        # of r log r
            return 0.5 * r * r * np.log(r) - 0.25 * r * r if r else 0.0

        exact = antiderivative(b) - antiderivative(a)
        for n_r, tol in ((4, 1e-7), (6, 1e-9), (10, 1e-12)):
            rule = _one_segment(a, b, n_r)
            assert rule.counts.tolist() == [len(rule_nodes(rule)[1])] == [
                n_r if a == 0 else 2 * n_r]
            got = _integrate(rule, lambda p: np.log(np.abs(p[:, 0])))
            assert abs(got - exact) <= tol * abs(exact), n_r

    @pytest.mark.parametrize("length", [0.05, 0.3])
    def test_segment_at_the_target_is_generalized_gauss(self, length):
        # int_0^R r log r e^(cr) dr and int_0^R r e^(cr) dr from the series
        # of e^(cr): int_0^R r^(n+1) log r dr = R^(n+2) (log R / (n+2)
        # - 1 / (n+2)^2)
        c, n = 1.3, np.arange(40)
        term = (c * length) ** n / np.cumprod(np.maximum(n, 1)) * length**2
        log_exact = (term * (np.log(length) / (n + 2)
                             - 1.0 / (n + 2) ** 2)).sum()
        exact = (term / (n + 2)).sum()
        rule = _one_segment(0.0, length, 10)
        assert rule.counts.tolist() == [10]
        got = _integrate(rule, lambda p: np.log(p[:, 0]) * np.exp(c * p[:, 0]))
        assert abs(got - log_exact) <= 1e-13 * abs(log_exact)
        got = _integrate(rule, lambda p: np.exp(c * p[:, 0]))
        assert abs(got - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("n_r", [3, 11])
    def test_radial_order_without_a_table_rejected(self, n_r):
        with pytest.raises(GeometryError, match=r"one of 4\.\.10"):
            polar_rules(DISK, [[0.1, 0.0]], 16, n_r)
        with pytest.raises(GeometryError, match=r"one of 4\.\.10"):
            polar_rule_for_target(DISK, [0.1, 0.0], 16, n_r)

    def test_segment_far_from_the_target_is_plain_gauss(self):
        rule = _one_segment(0.05, 0.1, 4)
        np.testing.assert_array_equal(rule_nodes(rule)[0][:, 0],
                                      0.05 + 0.05 * gauss_01(4)[0])

    def test_agrees_with_grid_rule_on_cubics(self):
        grid = build_domain_grid(DISK, 32, 12)
        rule = polar_rule_for_target(DISK, [0.1, 0.05], 64, 10)
        for f in (lambda p: p[:, 0] ** 3,
                  lambda p: p[:, 0] * p[:, 1] ** 2,
                  lambda p: 1.0 + p[:, 1] ** 3):
            a = grid.weights @ f(grid.points)
            b = _integrate(rule, f)
            assert abs(a - b) < 1e-8


@pytest.mark.parametrize("q", sorted(GAUSS_LOG_RULES))
def test_generalized_gauss_tables(q):
    x, w = geometry.gauss_log_01(q)
    assert len(x) == len(w) == q
    k = np.arange(q)[:, None]
    # exact moments: int_0^1 x^k = 1/(k+1), int_0^1 x^(k+1) log x =
    # -1/(k+2)^2
    np.testing.assert_allclose((x**k) @ w, 1.0 / (k[:, 0] + 1),
                               rtol=0, atol=5e-14)
    np.testing.assert_allclose((x ** (k + 1) * np.log(x)) @ w,
                               -1.0 / (k[:, 0] + 2) ** 2, rtol=0, atol=5e-14)
    assert (w > 0).all()
    assert 0 < x[0] and (np.diff(x) > 0).all() and x[-1] < 1


def _assert_tables_equal(got, want, lo=0, hi=None):
    """Table ``got`` equals targets lo:hi of table ``want``, bitwise."""
    hi = len(want.targets) if hi is None else hi
    seg = slice(want.cuts[lo], want.cuts[hi])
    np.testing.assert_array_equal(got.targets, want.targets[lo:hi])
    np.testing.assert_array_equal(got.cuts, want.cuts[lo:hi + 1]
                                  - want.cuts[lo])
    for name in ("dx", "dy", "wtheta", "start", "end"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name)[seg])
    assert got.n_r == want.n_r


class TestBlockBounds:
    @settings(max_examples=100, deadline=None)
    @given(widths=st.lists(st.integers(0, 50), max_size=30),
           cap=st.integers(0, 120))
    @example(widths=[], cap=10)
    def test_blocks_tile_in_order_and_fill_up(self, widths, cap):
        bounds = geometry.block_bounds(widths, cap)
        edges = [0] + [hi for _, hi in bounds]
        assert [lo for lo, _ in bounds] == edges[:-1]
        assert edges[-1] == len(widths)
        for k, (lo, hi) in enumerate(bounds):
            total = sum(widths[lo:hi])
            assert hi > lo
            # over the cap only as a single item
            assert total <= cap or hi - lo == 1
            # every block but the last is full: the next item overflows it
            if k + 1 < len(bounds):
                assert total + widths[hi] > cap

    def test_default_cap_is_block_entries(self):
        cap = geometry.BLOCK_ENTRIES
        assert geometry.block_bounds([cap - 1, 1, 1]) == [(0, 2), (2, 3)]


@st.composite
def ray_searches(draw):
    """A block's ray-angle table as ``polar_rules`` lays it out, targets'
    equispaced interior angles 2pi k / n and two-window smoothstep
    boundary angles mixed, and queries (target, angle): at a table angle,
    an ulp either side of one, 0, just below 2pi, or anywhere between."""
    tables = []
    for inner in draw(st.lists(st.booleans(), min_size=1, max_size=8)):
        if inner:
            n = 2 * draw(st.integers(2, 40))
            tables.append(2 * np.pi * np.arange(n) / n)
        else:
            base = draw(st.integers(2, 24))
            sstep = geometry._smoothstep(gauss_01(base)[0])[0]
            tables.append(np.pi * np.concatenate([sstep, 1.0 + sstep]))
    queries = []
    for _ in range(draw(st.integers(1, 30))):
        b = draw(st.integers(0, len(tables) - 1))
        a = draw(st.sampled_from(tables[b]))
        x = draw(st.one_of(
            st.sampled_from([a, np.nextafter(a, -np.inf),
                             np.nextafter(a, np.inf), 0.0,
                             np.nextafter(2 * np.pi, 0.0)]),
            st.floats(0.0, 2 * np.pi, exclude_max=True)))
        queries.append((b, x))
    return tables, queries


class TestRaySearch:
    @settings(max_examples=100, deadline=None)
    @given(case=ray_searches())
    def test_counts_equal_per_target_searches(self, case):
        tables, queries = case
        edges = np.cumsum([0] + [len(a) for a in tables])
        b, x = (np.array(c) for c in zip(*queries))
        got = geometry._rays_at_or_below(np.concatenate(tables), edges, b, x)
        want = [np.searchsorted(tables[i], xi, side="right")
                for i, xi in queries]
        np.testing.assert_array_equal(got, want)

    def test_exact_where_turn_offsets_round(self):
        # target 63's angles offset by 2pi 63 lie on a grid of 5.7e-14, so
        # an angle an ulp below one of its rays would count that ray
        n, target = 48, 63
        ang = np.tile(2 * np.pi * np.arange(n) / n, target + 1)
        edges = n * np.arange(target + 2)
        x = np.nextafter(ang[:n], -np.inf)[1:]
        b = np.full(len(x), target)
        got = geometry._rays_at_or_below(ang, edges, b, x)
        np.testing.assert_array_equal(got, np.arange(1, n))
        owner = np.repeat(np.arange(target + 1), n)
        offset = np.searchsorted(ang + 2 * np.pi * owner,
                                 x + 2 * np.pi * b, side="right") - edges[b]
        assert (offset != got).any()


class TestPolarRules:
    def test_interior_sets_build_no_window_tables(self, monkeypatch):
        grid = build_domain_grid(BENCH_STAR, 8, 4)
        targets = np.concatenate([grid.points, BENCH_STAR.boundary_point(
            np.array([0.7]))])
        want = polar_rules(BENCH_STAR, targets, 24, 6)

        def refuse(*args):
            raise AssertionError("window tables built")

        monkeypatch.setattr(geometry, "_smoothstep", refuse)
        got = polar_rules(BENCH_STAR, grid.points, 24, 6)
        _assert_tables_equal(got, want, 0, grid.n_nodes)

    @settings(max_examples=20, deadline=None)
    @given(spec=st.one_of(convex_domains(), st.just(NONCONVEX_STAR)),
           s=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=6),
           phi=st.floats(0.0, 2 * np.pi), per_block=st.integers(2, 8))
    @example(spec=BENCH_STAR, s=[0.5], phi=0.3, per_block=7)
    def test_set_equals_one_target_rules(self, spec, s, phi, per_block):
        # interior grid targets, curve targets and evaluation targets in
        # one set, sampled in blocks that split it mid-way
        s = np.array(s)
        th = phi + 2 * np.pi * np.arange(len(s)) / len(s)
        evals = spec.center + (s * spec.rho(th))[:, None] * np.stack(
            [np.cos(th), np.sin(th)], axis=1)
        targets = np.concatenate([build_domain_grid(spec, 8, 4).points,
                                  build_curve(spec, 16).points, evals])
        alone = [polar_rule_for_target(spec, y, 24, 6) for y in targets]
        # a block's entries: each target's width as polar_rules sizes it
        # for block_bounds
        widths, block_bounds = [], geometry.block_bounds
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "block_bounds", lambda w, cap=None: (
                widths.extend(w), block_bounds(w, cap))[1])
            polar_rules(spec, targets, 24, 6)
        assert len(widths) == len(targets)
        blocks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "BLOCK_ENTRIES", per_block * max(widths))
            segments = geometry._block_segments

            def counted(spec, E, block, *args):
                blocks.append(len(block[0]))
                return segments(spec, E, block, *args)

            mp.setattr(geometry, "_block_segments", counted)
            rules = polar_rules(spec, targets, 24, 6)
        assert 1 < len(blocks) < len(targets) and max(blocks) > 1
        assert len(rules.targets) == len(targets)
        pts, wts, counts = rule_nodes(rules)
        np.testing.assert_array_equal(counts, rules.counts)
        at = np.cumsum(counts)
        for i, (own, stop, count) in enumerate(zip(alone, at, counts)):
            _assert_tables_equal(own, rules, i, i + 1)
            p, w, _ = rule_nodes(own)
            assert count == len(w)
            np.testing.assert_array_equal(pts[stop - count:stop], p)
            np.testing.assert_array_equal(wts[stop - count:stop], w)

    @settings(max_examples=20, deadline=None)
    @given(spec=st.one_of(convex_domains(), st.just(NONCONVEX_STAR),
                          star_profiles()),
           c=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
           s=st.lists(st.floats(0.1, 0.95), min_size=1, max_size=4),
           phi=st.floats(0.0, 2 * np.pi))
    def test_rules_are_translation_invariant(self, spec, c, s, phi):
        # grid, curve and evaluation targets, moved with the center by c.
        # A target's rays start at its polar angle about the center, which
        # the move perturbs by about eps |c| / |y - center|, so evaluation
        # targets keep a tenth of the radius from the center
        s = np.array(s)
        th = phi + 2 * np.pi * np.arange(len(s)) / len(s)
        targets = np.concatenate([
            build_domain_grid(spec, 8, 4).points, build_curve(spec, 16).points,
            spec.center + (s * spec.rho(th))[:, None] * np.stack(
                [np.cos(th), np.sin(th)], axis=1)])
        moved = dataclasses.replace(spec, center=spec.center + c)
        want = polar_rules(spec, targets, 24, 6)
        got = polar_rules(moved, targets + c, 24, 6)
        np.testing.assert_array_equal(got.cuts, want.cuts)
        for name in ("dx", "dy", "wtheta", "start", "end"):
            np.testing.assert_allclose(getattr(got, name),
                                       getattr(want, name), rtol=0,
                                       atol=1e-14, err_msg=name)

    @settings(max_examples=20, deadline=None)
    @given(spec=st.sampled_from([BENCH_STAR, NONCONVEX_STAR]),
           s=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=5),
           phi=st.floats(0.0, 2 * np.pi), t=st.floats(0.0, 2 * np.pi),
           cut=st.tuples(st.integers(0, 12), st.integers(0, 12)))
    def test_node_runs_equal_the_set_and_one_target_tables(self, spec, s,
                                                           phi, t, cut):
        # interior and boundary targets, with the volume pipeline's rule
        # parameters at 64/16x8: targets lo:hi expanded alone are that run
        # of the whole table's nodes, and each target's nodes are those of
        # its one-target table
        s = np.array(s)
        th = phi + 2 * np.pi * np.arange(len(s)) / len(s)
        targets = np.concatenate([
            spec.center + (s * spec.rho(th))[:, None] * np.stack(
                [np.cos(th), np.sin(th)], axis=1),
            spec.boundary_point(t + np.array([0.0, 2.0, 4.0])),
            build_domain_grid(spec, 16, 8).points[::37]])
        base, n_r = potentials._rule_params(build_domain_grid(spec, 16, 8))
        rules = polar_rules(spec, targets, base, n_r)
        lo, hi = sorted(min(c, len(targets)) for c in cut)
        pts, wts, counts = rule_nodes(rules)
        at = np.concatenate([[0], np.cumsum(counts)])
        run = rule_nodes(rules, lo, hi)
        np.testing.assert_array_equal(run[0], pts[at[lo]:at[hi]])
        np.testing.assert_array_equal(run[1], wts[at[lo]:at[hi]])
        np.testing.assert_array_equal(run[2], counts[lo:hi])
        for i in range(lo, hi):
            own = rule_nodes(polar_rule_for_target(spec, targets[i], base,
                                                   n_r))
            np.testing.assert_array_equal(own[0], pts[at[i]:at[i + 1]])
            np.testing.assert_array_equal(own[1], wts[at[i]:at[i + 1]])

    @settings(max_examples=15, deadline=None)
    @given(spec=st.one_of(convex_domains(), st.just(NONCONVEX_STAR),
                          star_profiles()),
           res=st.sampled_from([(64, 16, 8), (128, 32, 12)]),
           pick=st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
           s=st.floats(0.0, 1.0 - 1e-8), phi=st.floats(0.0, 2 * np.pi))
    @example(spec=NONCONVEX_STAR, res=(64, 16, 8), pick=[47, 0, 0], s=0.5,
             phi=0.0)
    @example(spec=NONCONVEX_STAR, res=(128, 32, 12), pick=[0, 19, 0],
             s=1.0 - 1e-8, phi=1.0)
    @example(spec=GRAZING_STAR, res=(128, 32, 12), pick=[0, 36, 0], s=0.5,
             phi=0.0)
    @example(spec=GRAZING_STAR, res=(128, 32, 12), pick=[0, 92, 0], s=0.5,
             phi=0.0)
    def test_segments_match_dense_level_sampling(self, spec, res, pick, s,
                                                 phi):
        # a grid target, a curve target and an interior target at level s
        # up to 1 - 1e-8, with the volume pipeline's rule parameters: the
        # level along every ray, sampled 4096 times up to the reach, agrees
        # with the segments away from their ends.  The examples are real
        # gaps that a radial ladder scan missed on the non-convex star: on
        # ray 76 of grid target 47 at 16x8, [0.01275, 0.01518], and on ray
        # 55 of curve target 19 at 128/32x12, [0.05519, 0.06531]; and the
        # grazing gap [0.38837, 0.38900] on the ray (-0.13195, -+0.99126)
        # from curve targets 36 and 92 of 128 on GRAZING_STAR, a fold pair
        # that 256 uniform sight-line samples per mode stepped over
        n_b, n_t, n_s = res
        grid = build_domain_grid(spec, n_t, n_s)
        curve = build_curve(spec, n_b)
        y = spec.center + s * spec.rho(phi) * np.array(
            [np.cos(phi), np.sin(phi)])
        targets = np.stack([grid.points[pick[0] % grid.n_nodes],
                            curve.points[pick[1] % curve.n], y])
        rules = polar_rules(spec, targets, *potentials._rule_params(grid))
        for i in range(len(targets)):
            assert len(_level_mismatches(spec, rules, i)) == 0

    @settings(max_examples=20, deadline=None)
    @given(spec=st.one_of(convex_domains(), star_profiles()),
           res=st.sampled_from([(64, 16, 8), (128, 32, 12)]),
           s=st.floats(0.0, 1.0 - 1e-8), phi=st.floats(0.0, 2 * np.pi))
    @example(spec=GRAZING_STAR, res=(128, 32, 12), s=0.5, phi=0.0)
    def test_rules_equal_those_from_eight_times_the_samples(self, spec, res,
                                                            s, phi):
        # every 7th grid target, every 4th curve target and an interior
        # one, with the volume pipeline's rule parameters: the certified
        # sampler finds the same segments from SIGHT_SAMPLES_PER_MODE as
        # from 8 times as many, and their ends differ by the Newton
        # residual alone, a few 1e-16 along the boundary normal (a grazing
        # crossing moves far more along its ray).  The example holds the
        # curve targets 36 and 92 of test_segments_match_dense_level_
        # sampling
        n_b, n_t, n_s = res
        grid = build_domain_grid(spec, n_t, n_s)
        y = spec.center + s * spec.rho(phi) * np.array(
            [np.cos(phi), np.sin(phi)])
        targets = np.concatenate([grid.points[::7],
                                  build_curve(spec, n_b).points[::4], [y]])
        base, n_r = potentials._rule_params(grid)
        rules = polar_rules(spec, targets, base, n_r)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "SIGHT_SAMPLES_PER_MODE",
                       8 * geometry.SIGHT_SAMPLES_PER_MODE)
            dense = polar_rules(spec, targets, base, n_r)
        np.testing.assert_array_equal(rules.cuts, dense.cuts)
        for key in ("dx", "dy", "wtheta"):
            np.testing.assert_array_equal(getattr(rules, key),
                                          getattr(dense, key))
        d = np.stack([rules.dx, rules.dy], axis=1)
        y = np.repeat(targets, np.diff(rules.cuts), axis=0)
        for key in ("start", "end"):
            r = getattr(rules, key)
            p = y + r[:, None] * d - spec.center
            normal = spec.boundary_normal(np.arctan2(p[:, 1], p[:, 0]))
            incidence = np.abs((normal * d).sum(1))
            assert np.all(np.abs(r - getattr(dense, key)) * incidence
                          <= 4e-15)

    @pytest.mark.parametrize("spec", [DISK, STAR], ids=["disk", "star"])
    def test_no_targets_give_no_rules(self, spec):
        for targets in (np.zeros((0, 2)), []):
            rules = polar_rules(spec, targets)
            assert rules.targets.shape == (0, 2)
            assert rules.cuts.tolist() == [0] and len(rules.end) == 0
            pts, wts, counts = rule_nodes(rules)
            assert pts.shape == (0, 2) and len(wts) == len(counts) == 0

    @pytest.mark.parametrize("spec", [DISK, STAR], ids=["disk", "star"])
    def test_one_outside_target_fails_the_set(self, spec):
        targets = np.array([[0.0, 0.0], [0.1, 0.05], [0.5, 0.3], [0.2, 0.0]])
        with pytest.raises(GeometryError, match="outside the domain"):
            polar_rules(spec, targets)

    def test_large_set_memory_is_bounded(self):
        # every grid target of the benchmark star at 64x24: the rule table
        # holds about 9 MB, and joining its blocks' pieces one 1-d column at
        # a time adds 1.8 MB; one unblocked block of sight lines would peak
        # about 94 MB above that
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.0, 0.03))
        grid = build_domain_grid(spec, 64, 24)
        base, n_r = potentials._rule_params(grid)
        spec.max_rho()
        tracemalloc.start()
        try:
            rules = polar_rules(spec, grid.points, base, n_r)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rules.targets) == grid.n_nodes
        assert held < 18e6 and peak - held < 4e6


class TestProfile:
    @settings(max_examples=40, deadline=None)
    @given(spec=st.one_of(convex_domains(), star_profiles()),
           th=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20),
           r=st.floats(1e-3, 1.0))
    def test_clenshaw_sums_match_direct_cosine_sums(self, spec, th, r):
        th = np.array(th)
        c = spec.cos_coeffs
        k = np.arange(c.size)
        cos, sin = np.cos(th[:, None] * k), np.sin(th[:, None] * k)
        for got, ref, scale in (
                (spec.rho(th), cos @ c, np.abs(c).sum()),
                (spec.drho(th), -sin @ (k * c), (k * np.abs(c)).sum()),
                (spec.ddrho(th), -cos @ (k * k * c),
                 (k * k * np.abs(c)).sum())):
            assert np.abs(got - ref).max() <= 1e-14 * max(scale, 1e-300)
        p = spec.center + r * np.stack([np.cos(th), np.sin(th)], axis=1)
        d = p - spec.center
        ref = np.hypot(d[:, 0], d[:, 1]) / (np.cos(
            np.arctan2(d[:, 1], d[:, 0])[:, None] * k) @ c)
        assert np.abs(spec.level(p) - ref).max() <= 1e-14 * ref.max()
        if spec.kind == "disk":
            # a disk's profile sums to its radius exactly
            np.testing.assert_array_equal(spec.level(p), np.sqrt(
                d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) / spec.radius)


class TestQueries:
    def test_disk_queries(self):
        assert abs(DISK.diameter() - 0.8) < 1e-15
        assert abs(DISK.area() - np.pi * 0.16) < 1e-15
        assert DISK.contains((0.39, 0.0))
        assert not DISK.contains((0.41, 0.0))

    @pytest.mark.parametrize("radius", [6.7e153, 1e300])
    def test_huge_domain_refused_without_overflow_warnings(self, radius):
        # squared distances between boundary samples overflow here (the
        # diameter is then infinite); the diameter check still refuses the
        # domain, and no warning escapes
        spec = DomainSpec("disk", center=(0.0, 0.0), radius=radius)
        with pytest.raises(DiameterError):
            check_diameter(spec)

    @settings(max_examples=20, deadline=None)
    @given(spec=convex_domains())
    @example(spec=BENCH_STAR)
    @example(spec=NONCONVEX_STAR)
    @example(spec=DISK)
    def test_star_diameter_below_bound(self, spec):
        # the pruned pair search returns the brute-force maximum over the
        # same 2048 samples, bitwise
        pts = spec.boundary_point(
            np.linspace(0.0, 2 * np.pi, 2048, endpoint=False))
        d2max = max(((pts[i:i + 256, None, :] - pts[None, :, :]) ** 2)
                    .sum(-1).max() for i in range(0, len(pts), 256))
        assert spec.diameter() == float(np.sqrt(d2max))
        assert STAR.diameter() < 0.72

    @pytest.mark.parametrize("coeffs", [(0.3, 0.0, 0.03),
                                        (0.3, 0.0, 0.0, 0.06),
                                        (0.25, 0.04, 0.02, 0.0, 0.03)])
    def test_blocked_star_diameter_matches_brute_force(self, coeffs):
        spec = DomainSpec("star", center=(0.1, -0.2), cos_coeffs=coeffs)
        th = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
        pts = spec.center + spec.rho(th)[:, None] * np.stack(
            [np.cos(th), np.sin(th)], axis=1)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        assert spec.diameter() == float(np.sqrt(d2.max()))
        assert spec.diameter() == spec.diameter()


def _signed_quotient_rows(theta, n):
    """``trig_cardinal_rows`` as it was written before the sign moved into
    the numerator: the quotient of the cotangent addition formula, then
    the sign, then the column normalization (mode-major, (n, m))."""
    th = np.asarray(theta, dtype=float)
    k = np.rint(th * (n / (2 * np.pi)))
    on_node = np.abs(th - (2 * np.pi / n) * k) <= geometry.ON_NODE_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cu = 1.0 / np.tan(0.5 * th)
        cv = 1.0 / np.tan(np.pi * np.arange(n) / n)
        num = cv[:, None] * cu[None, :] + 1.0
        den = cv[:, None] - cu[None, :]
        num[0] = cu
        den[0] = 1.0
        c = num / den
        c *= 1.0 - 2.0 * (np.arange(n) % 2)[:, None]
        A = c / geometry._column_sums(c)
    A[:, on_node] = 0.0
    A[k[on_node].astype(int) % n, on_node] = 1.0
    return A


class TestCardinals:
    def test_trig_cardinal_rows_reproduce_band_limited(self):
        n = 16
        t = 2 * np.pi * np.arange(n) / n
        g = 1 + np.cos(3 * t) - 2 * np.sin(5 * t) + 0.5 * np.cos(8 * t)
        rng = np.random.default_rng(1)
        T = rng.uniform(0, 2 * np.pi, 200)
        A = trig_cardinal_rows(T, n)
        assert A.shape == (n, len(T))
        exact = 1 + np.cos(3 * T) - 2 * np.sin(5 * T) + 0.5 * np.cos(8 * T)
        assert np.abs(g @ A - exact).max() < 1e-12

    def test_trig_cardinal_rows_node_hits(self):
        n = 12
        t = 2 * np.pi * np.arange(n) / n
        A = trig_cardinal_rows(t, n)
        np.testing.assert_allclose(A, np.eye(n), atol=1e-12)

    def test_trig_cardinal_rows_on_node_mask(self):
        # anchored rules put points on grid angles up to rounding: those
        # get unit columns, also at subnormal angles where cot(theta/2)
        # overflows; every other column is the closed-form cardinal
        n = 32
        t = 2 * np.pi * np.arange(n) / n
        on = np.concatenate([t, t + 4e-16, t - 4e-16,
                             [0.0, 2 * np.pi - 1e-16, 2.2250738585072014e-308,
                              1e-310]])
        A = trig_cardinal_rows(on, n)
        want = np.concatenate([np.arange(n)] * 3 + [[0, 0, 0, 0]])
        np.testing.assert_array_equal(A, np.eye(n)[:, want])
        rng = np.random.default_rng(7)
        j = rng.integers(0, n, 40)
        off = np.concatenate([
            rng.uniform(-np.pi, 3 * np.pi, 200),
            t[j] + rng.choice([-1, 1], 40) * 10.0 ** rng.uniform(-13, -1, 40),
            2 * np.pi * np.arange(24) / 24 + 1e-9])
        A = trig_cardinal_rows(off, n)
        d = (off[None, :] - t[:, None] + np.pi) % (2 * np.pi) - np.pi
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.sin(n * d / 2) / np.tan(d / 2) / n
        ref[d == 0] = 1.0
        np.testing.assert_allclose(A.sum(0), 1.0, rtol=0, atol=1e-13)
        assert np.abs(A - ref).max() <= 1e-13

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_trig_cardinal_rows_equal_the_signed_quotient(self, n):
        # the sign folded into the numerator gives the former formula's
        # rows bitwise, on node angles and next to them too
        t = 2 * np.pi * np.arange(n) / n
        rng = np.random.default_rng(n)
        theta = np.concatenate([
            rng.uniform(-np.pi, 3 * np.pi, 300), t, t + 4e-16, t - 1e-14,
            t + 1e-9, [0.0, 2 * np.pi - 1e-16, 1e-310]])
        np.testing.assert_array_equal(trig_cardinal_rows(theta, n),
                                      _signed_quotient_rows(theta, n))

    def test_gauss01_integrates_polynomials(self):
        x, w = gauss_01(6)
        for k in range(11):
            assert abs(w @ x**k - 1.0 / (k + 1)) < 1e-14
