import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_verification import BENCH_STAR, NONCONVEX_STAR, convex_domains

from bdies2d import geometry, potentials
from bdies2d.coefficient import make_preset
from bdies2d.geometry import (DomainSpec, GeometryError,
                              PolarRule, _disk_extents, _window_angles,
                              build_curve, build_domain_grid, gauss_01,
                              inside_segments, polar_rule_for_target,
                              polar_rules, rule_nodes, trig_cardinal_rows)
from bdies2d.solver import DiameterError, assemble_system

DISK = DomainSpec("disk", center=(0.0, 0.0), radius=0.4)
STAR = DomainSpec("star", center=(0.0, 0.0), cos_coeffs=(0.3, 0.0, 0.0, 0.06))


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

    def test_distance_to_boundary_disk(self):
        curve = build_curve(DISK, 32)
        d = curve.distance_to([[0.3, 0.0], [0.0, 0.0], [0.5, 0.0]])
        np.testing.assert_allclose(d, [0.1, 0.4, 0.1], atol=1e-12)

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
        ref = np.einsum("mj,jk,mk->m", A, vals.reshape(16, 8), S)
        got = grid.interpolate(vals, pts)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

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


class TestPolarRule:
    def test_center_extents_and_log_integral(self):
        rule = polar_rule_for_target(DISK, [0.0, 0.0], 48, 10)
        np.testing.assert_array_equal(rule.seg_ray, np.arange(48))
        np.testing.assert_array_equal(rule.seg_ends[:, 0], 0.0)
        np.testing.assert_allclose(rule.seg_ends[:, 1], 0.4, atol=1e-13)
        # closed form: integral of log|x| over the disk = pi r^2 (log r - 1/2)
        exact = np.pi * 0.16 * (np.log(0.4) - 0.5)
        got = rule.integrate(lambda p: np.log(np.linalg.norm(p, axis=1)))
        assert abs(got - exact) < 1e-8 * abs(exact)

    def test_constant_integrates_to_area(self):
        for y in ([0.0, 0.0], [0.2, 0.1], [0.38, 0.0]):
            rule = polar_rule_for_target(DISK, y, 64, 10)
            assert abs(rule.weights.sum() - np.pi * 0.16) < 1e-8 * np.pi * 0.16

    def test_boundary_target_covers_area(self):
        rule = polar_rule_for_target(DISK, [0.4, 0.0], 48, 10)
        area = np.pi * 0.16
        assert abs(rule.weights.sum() - area) < 1e-6 * area
        # interior-normal window: all points strictly inside
        assert DISK.level(rule.points).max() <= 1.0 + 1e-12

    def test_all_points_inside_closure(self):
        for spec, y in ((DISK, [0.3, 0.1]), (STAR, [0.05, -0.02])):
            rule = polar_rule_for_target(spec, y, 64, 10)
            assert spec.level(rule.points).max() <= 1.0 + 1e-10

    def test_star_boundary_target_covers_area(self):
        # multi-segment coverage keeps the valley lobes visible
        y = STAR.boundary_point(np.pi / 3)
        rule = polar_rule_for_target(STAR, y, 192, 10)
        assert abs(rule.weights.sum() - STAR.area()) < 1e-3 * STAR.area()

    def test_exterior_target_rejected(self):
        with pytest.raises(GeometryError):
            polar_rule_for_target(DISK, [0.5, 0.0], 32, 8)

    def test_inside_segments_on_nonconvex_star(self):
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.05, 0.0, 0.0, 0.0, 0.08))
        th = 2 * np.pi * np.arange(96) / 96
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        targets = np.concatenate([build_domain_grid(spec, 8, 4).points,
                                  spec.boundary_point(th[::12])])
        rays_with_gaps = 0
        for y in targets:
            rmax = 2.1 * spec.max_rho() + np.linalg.norm(y)
            ray, a, b = inside_segments(spec, y, dirs, rmax)
            assert np.all((0.0 <= a) & (a < b))

            def level(r, k):
                return spec.level(y + r[:, None] * dirs[k])

            assert np.all(level(0.5 * (a + b), ray) < 1.0)
            gap = ray[1:] == ray[:-1]
            assert np.all(level(0.5 * (b[:-1] + a[1:])[gap],
                                ray[1:][gap]) > 1.0)
            ends = np.concatenate([a[a > 0], b])
            on = np.concatenate([ray[a > 0], ray])
            assert np.all(np.abs(level(ends, on) - 1.0) <= 1e-12)
            rays_with_gaps += gap.sum()
        assert rays_with_gaps > 0

    def test_circle_star_segments_match_disk_extents(self):
        # a circle written as a star: its crossings have a closed form
        star = DomainSpec("star", center=(0.1, -0.2), cos_coeffs=[0.4])
        disk = DomainSpec("disk", center=(0.1, -0.2), radius=0.4)
        th = 2 * np.pi * np.arange(64) / 64 + 0.1
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        for off in ([0.0, 0.0], [0.15, -0.1], 0.4 * (1 - 1e-6)
                    * np.array([np.cos(2.0), np.sin(2.0)])):
            y = star.center + off
            rmax = 2.1 * star.max_rho() + np.linalg.norm(off)
            ray, a, b = inside_segments(star, y, dirs, rmax)
            np.testing.assert_array_equal(ray, np.arange(64))
            np.testing.assert_array_equal(a, 0.0)
            np.testing.assert_allclose(b, _disk_extents(disk, y, dirs),
                                       rtol=0, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(spec=convex_domains(), s=st.floats(0.0, 0.95),
           phi=st.floats(0.0, 2 * np.pi), t=st.floats(0.0, 2 * np.pi))
    def test_segment_ends_lie_on_random_convex_boundaries(self, spec, s,
                                                          phi, t):
        star = DomainSpec("star", center=spec.center,
                          cos_coeffs=spec.cos_coeffs)
        th = 2 * np.pi * np.arange(48) / 48 + phi
        interior = star.center + s * star.rho(phi) * np.array(
            [np.cos(phi), np.sin(phi)])
        # boundary targets use the rule's two width-pi windows
        nin = -star.boundary_normal(t)
        alpha = np.arctan2(nin[1], nin[0])
        window = np.concatenate([_window_angles(alpha, 24)[0],
                                 _window_angles(alpha + np.pi, 24)[0]])
        for y, angles, is_interior in (
                (interior, th, True),
                (star.boundary_point(t), window, False)):
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            rmax = 2.1 * star.max_rho() + np.linalg.norm(y - star.center)
            ray, a, b = inside_segments(star, y, dirs, rmax)
            ends = np.concatenate([a[a > 0], b])
            on = np.concatenate([ray[a > 0], ray])
            lev = star.level(y + ends[:, None] * dirs[on])
            assert np.all(np.abs(lev - 1.0) <= 1e-13)
            if is_interior:
                np.testing.assert_array_equal(ray, np.arange(len(angles)))
                np.testing.assert_array_equal(a, 0.0)

    def test_star_rule_profile_evaluations_stay_few(self, monkeypatch):
        # the scan and a few Newton steps per rule; a bisection needs
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
        # no boundary point is farther from y than |y - c| + sum |c_k|,
        # the radius at which the scan stops (at that radius itself the
        # level can be 1, on a ray through the center)
        y = spec.center + s * spec.rho(phi) * np.array(
            [np.cos(phi), np.sin(phi)])
        reach = np.linalg.norm(y - spec.center) + np.abs(
            spec.cos_coeffs).sum()
        th = alpha + 2 * np.pi * np.arange(16) / 16
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        r = reach * (1.0 + stretch * np.linspace(0.125, 1.0, 8))
        lev = spec.level((y + r[:, None, None] * dirs).reshape(-1, 2))
        assert lev.min() > 1.0

    @pytest.mark.parametrize("n_t, n_s", [(16, 8), (32, 12)])
    def test_star_boundary_rules_drop_noise_segments(self, n_t, n_s):
        # on the 2-fold benchmark star, curve node i + 32 is node i's
        # half-turn image, so the two rules must have equal node counts
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.0, 0.03))
        base, n_r = potentials._rule_params(build_domain_grid(spec, n_t, n_s))
        targets = build_curve(spec, 64).points
        rules = [polar_rule_for_target(spec, y, base, n_r) for y in targets]
        for y, rule in zip(targets, rules):
            rmax = 2.1 * spec.max_rho() + np.linalg.norm(y - spec.center)
            assert rule.seg_ends[:, 1].min() > 1e-7 * rmax
        counts = [len(rule.points) for rule in rules]
        assert counts[:32] == counts[32:]

    def test_star_boundary_rules_cover_area(self):
        spec = DomainSpec("star", center=(0.0, 0.0),
                          cos_coeffs=(0.3, 0.0, 0.03))
        base, n_r = potentials._rule_params(build_domain_grid(spec, 64, 24))
        for y in build_curve(spec, 64).points:
            rule = polar_rule_for_target(spec, y, base, n_r)
            assert abs(rule.weights.sum() - spec.area()) <= 1e-14

    @pytest.mark.parametrize("a", [0.0, 1e-9, 1e-6, 1e-3])
    def test_segment_near_the_target_is_graded(self, a):
        # a ray that re-enters the domain at a < b - a from the target: the
        # log kernel is singular just before the segment starts, and plain
        # Gauss-Legendre would miss r log r by 3e-6..2e-5 here
        b = 0.1

        def antiderivative(r):        # of r log r
            return 0.5 * r * r * np.log(r) - 0.25 * r * r if r else 0.0

        exact = antiderivative(b) - antiderivative(a)
        for n_r, tol in ((4, 1e-7), (6, 1e-9), (10, 1e-12)):
            rule = PolarRule(target=np.zeros(2), theta=np.zeros(1),
                             wtheta=np.ones(1), dirs=np.array([[1.0, 0.0]]),
                             seg_ray=np.zeros(1, dtype=int),
                             seg_ends=np.array([[a, b]]), n_r=n_r)
            assert len(rule.points) == 2 * n_r
            got = rule.integrate(lambda p: np.log(np.abs(p[:, 0])))
            assert abs(got - exact) <= tol * abs(exact), n_r

    def test_segment_far_from_the_target_is_plain_gauss(self):
        rule = PolarRule(target=np.zeros(2), theta=np.zeros(1),
                         wtheta=np.ones(1), dirs=np.array([[1.0, 0.0]]),
                         seg_ray=np.zeros(1, dtype=int),
                         seg_ends=np.array([[0.05, 0.1]]), n_r=4)
        np.testing.assert_array_equal(rule.points[:, 0],
                                      0.05 + 0.05 * gauss_01(4)[0])

    def test_agrees_with_grid_rule_on_cubics(self):
        grid = build_domain_grid(DISK, 32, 12)
        rule = polar_rule_for_target(DISK, [0.1, 0.05], 64, 10)
        for f in (lambda p: p[:, 0] ** 3,
                  lambda p: p[:, 0] * p[:, 1] ** 2,
                  lambda p: 1.0 + p[:, 1] ** 3):
            a = grid.weights @ f(grid.points)
            b = rule.integrate(f)
            assert abs(a - b) < 1e-8


def _rule_fields(rule):
    return (rule.target, rule.theta, rule.wtheta, rule.dirs, rule.seg_ray,
            rule.seg_ends)


class TestPolarRules:
    @settings(max_examples=20, deadline=None)
    @given(spec=st.one_of(convex_domains(), st.just(NONCONVEX_STAR)),
           s=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=6),
           phi=st.floats(0.0, 2 * np.pi), cap=st.integers(8000, 30000))
    @example(spec=BENCH_STAR, s=[0.5], phi=0.3, cap=8000)
    def test_set_equals_one_target_rules(self, spec, s, phi, cap):
        # interior grid targets, curve targets and evaluation targets in
        # one set, scanned in blocks that split it mid-way
        s = np.array(s)
        th = phi + 2 * np.pi * np.arange(len(s)) / len(s)
        evals = spec.center + (s * spec.rho(th))[:, None] * np.stack(
            [np.cos(th), np.sin(th)], axis=1)
        targets = np.concatenate([build_domain_grid(spec, 8, 4).points,
                                  build_curve(spec, 16).points, evals])
        scans = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "BLOCK_ENTRIES", cap)
            scan = geometry._ray_segments

            def counted(spec, p0, *args):
                scans.append(len(np.unique(p0, axis=0)))
                return scan(spec, p0, *args)

            mp.setattr(geometry, "_ray_segments", counted)
            rules = polar_rules(spec, targets, 24, 6)
        if spec.kind == "star":
            assert 1 < len(scans) < len(targets) and max(scans) > 1
        assert len(rules) == len(targets)
        pts, wts, counts = rule_nodes(rules)
        at = np.cumsum(counts)
        for y, rule, stop, count in zip(targets, rules, at, counts):
            alone = polar_rule_for_target(spec, y, 24, 6)
            for got, want in zip(_rule_fields(rule), _rule_fields(alone)):
                np.testing.assert_array_equal(got, want)
            p, w = alone.nodes()
            assert count == len(w) == rule.n_nodes
            np.testing.assert_array_equal(pts[stop - count:stop], p)
            np.testing.assert_array_equal(wts[stop - count:stop], w)

    @pytest.mark.parametrize("spec", [DISK, STAR], ids=["disk", "star"])
    def test_no_targets_give_no_rules(self, spec):
        assert polar_rules(spec, np.zeros((0, 2))) == []
        assert polar_rules(spec, []) == []

    @pytest.mark.parametrize("spec", [DISK, STAR], ids=["disk", "star"])
    def test_one_outside_target_fails_the_set(self, spec):
        targets = np.array([[0.0, 0.0], [0.1, 0.05], [0.5, 0.3], [0.2, 0.0]])
        with pytest.raises(GeometryError, match="outside the domain"):
            polar_rules(spec, targets)

    def test_large_set_memory_is_bounded(self):
        # every grid target of the benchmark star at 64x24: the rules hold
        # about 15 MB; one unblocked scan would peak near 1.6 GB
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
        assert len(rules) == grid.n_nodes
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

    @settings(max_examples=20, deadline=None)
    @given(spec=convex_domains().filter(lambda s: s.kind == "star"))
    @example(spec=BENCH_STAR)
    @example(spec=NONCONVEX_STAR)
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


class TestCardinals:
    def test_trig_cardinal_rows_reproduce_band_limited(self):
        n = 16
        t = 2 * np.pi * np.arange(n) / n
        g = 1 + np.cos(3 * t) - 2 * np.sin(5 * t) + 0.5 * np.cos(8 * t)
        rng = np.random.default_rng(1)
        T = rng.uniform(0, 2 * np.pi, 200)
        A = trig_cardinal_rows(T, n)
        exact = 1 + np.cos(3 * T) - 2 * np.sin(5 * T) + 0.5 * np.cos(8 * T)
        assert np.abs(A @ g - exact).max() < 1e-12

    def test_trig_cardinal_rows_node_hits(self):
        n = 12
        t = 2 * np.pi * np.arange(n) / n
        A = trig_cardinal_rows(t, n)
        np.testing.assert_allclose(A, np.eye(n), atol=1e-12)

    def test_trig_cardinal_rows_on_node_mask(self):
        # anchored rules put points on grid angles up to rounding: those
        # get unit rows, also at subnormal angles where cot(theta/2)
        # overflows; every other row is the closed-form cardinal
        n = 32
        t = 2 * np.pi * np.arange(n) / n
        on = np.concatenate([t, t + 4e-16, t - 4e-16,
                             [0.0, 2 * np.pi - 1e-16, 2.2250738585072014e-308,
                              1e-310]])
        A = trig_cardinal_rows(on, n)
        want = np.concatenate([np.arange(n)] * 3 + [[0, 0, 0, 0]])
        np.testing.assert_array_equal(A, np.eye(n)[want])
        rng = np.random.default_rng(7)
        j = rng.integers(0, n, 40)
        off = np.concatenate([
            rng.uniform(-np.pi, 3 * np.pi, 200),
            t[j] + rng.choice([-1, 1], 40) * 10.0 ** rng.uniform(-13, -1, 40),
            2 * np.pi * np.arange(24) / 24 + 1e-9])
        A = trig_cardinal_rows(off, n)
        d = (off[:, None] - t[None, :] + np.pi) % (2 * np.pi) - np.pi
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.sin(n * d / 2) / np.tan(d / 2) / n
        ref[d == 0] = 1.0
        np.testing.assert_allclose(A.sum(1), 1.0, rtol=0, atol=1e-13)
        assert np.abs(A - ref).max() <= 1e-13

    def test_gauss01_integrates_polynomials(self):
        x, w = gauss_01(6)
        for k in range(11):
            assert abs(w @ x**k - 1.0 / (k + 1)) < 1e-14
