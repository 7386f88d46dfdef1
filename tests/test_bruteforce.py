import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import build_instance, interior_point, slope_change_across
from reference import (
    RegionBoundaryTooClose,
    affine_piece,
    fd_gradient,
    line_scan,
    local_min_check,
    ratio_test,
    region_signature,
)
from vertexwalk.bruteforce import arrangement_walk_2d, check_walk_2d
from vertexwalk.network import Architecture, LayerParams, TrainingSet
from vertexwalk.oracle import make_oracle, value
from vertexwalk.prng import SplitMix64
from vertexwalk.solver import SolverLimits, descend_to_vertex, minimize, vertex_step


def line_fit_toy(xs, ys, w2=1.0, b2=0.0):
    arch = Architecture((1, 1, 1))
    fixed = [LayerParams(np.array([[w2]]), np.array([b2]))]
    data = TrainingSet(np.array([[x] for x in xs]), np.array([[y] for y in ys]))
    return make_oracle(arch, fixed, data)


class TestLineScan:
    def test_single_kink_absolute_value(self):
        o = line_fit_toy(xs=(1.0,), ys=(1.0,))
        # Along p(t) = (0.2 + t, 0) the loss is |1 - (0.2 + t)| = |0.8 - t|.
        res = line_scan(o, np.array([0.2, 0.0]), np.array([1.0, 0.0]), t_max=1.6)
        assert res.kinks.shape == (1,)
        assert res.kinks[0] == pytest.approx(0.8, abs=1e-8)
        assert_allclose(res.slopes, [-1.0, 1.0], atol=1e-9)

    def test_slopes_match_affine_pieces(self):
        o, _ = build_instance(51, (2, 2, 1), 5)
        rng = SplitMix64(151)
        p = interior_point(o, rng, min_clear=1e-3)
        d = rng.unit_vector(o.dim)
        res = line_scan(o, p, d, t_max=2.0)
        bounds = np.concatenate([[0.0], res.kinks, [2.0]])
        for k, slope in enumerate(res.slopes):
            mid = 0.5 * (bounds[k] + bounds[k + 1])
            piece = affine_piece(o, region_signature(o, p + mid * d))
            expect = float(piece.gradient @ d)
            assert slope == pytest.approx(expect, rel=1e-6, abs=1e-9)

    def test_first_kink_matches_ratio_test(self):
        o, _ = build_instance(52, (2, 3, 1), 6)
        rng = SplitMix64(152)
        hits = 0
        for _ in range(10):
            p = interior_point(o, rng, min_clear=1e-3)
            d = rng.unit_vector(o.dim)
            sig = region_signature(o, p)
            try:
                t_star, _ = ratio_test(o, p, d, sig, [])
            except Exception:
                continue
            if t_star > 3.0:
                continue
            # Only loss-visible crossings show up in a value scan.
            change = slope_change_across(o, p, d, t_star)
            if change is None or abs(change) < 1e-4:
                continue
            res = line_scan(o, p, d, t_max=min(3.0, 2.0 * t_star))
            assert res.kinks.size >= 1
            assert abs(res.kinks[0] - t_star) <= 1e-6 * (1 + t_star)
            hits += 1
        assert hits >= 2

    def test_slopes_constant_within_intervals(self):
        o, _ = build_instance(53, (1, 1, 1), 4)
        rng = SplitMix64(153)
        p = rng.uniform_block(2, -3, 3)
        d = rng.unit_vector(2)
        res = line_scan(o, p, d, t_max=4.0)
        bounds = np.concatenate([[0.0], res.kinks, [4.0]])
        for k in range(len(res.slopes)):
            lo, hi = bounds[k], bounds[k + 1]
            ts = lo + (hi - lo) * np.array([0.1, 0.35, 0.62, 0.9])
            vs = [value(o, p + t * d) for t in ts]
            for i in range(3):
                slope = (vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i])
                assert slope == pytest.approx(
                    res.slopes[k], rel=1e-9, abs=1e-9
                )

    def test_resolution_check(self):
        o, p = build_instance(54, (1, 1, 1), 2)
        with pytest.raises(ValueError):
            line_scan(o, p, np.array([1.0, 0.0]), 1.0, resolution=10)


class TestFdGradient:
    def test_exact_on_affine_region(self):
        o, _ = build_instance(55, (2, 2, 1), 5)
        rng = SplitMix64(155)
        p = interior_point(o, rng, min_clear=1e-2)
        g = affine_piece(o, region_signature(o, p)).gradient
        fd = fd_gradient(o, p, h=1e-4)
        assert np.linalg.norm(fd - g) <= 1e-10 * (1 + np.linalg.norm(g))

    def test_boundary_point_rejected(self):
        o = line_fit_toy(xs=(1.0,), ys=(2.0,))
        # z = w + b vanishes on the diagonal; sit almost exactly on it.
        p = np.array([1.0, -1.0 + 0.5 * o.tol.act])
        with pytest.raises(RegionBoundaryTooClose):
            fd_gradient(o, p, h=1e-6)


class TestLocalMinCheck:
    def test_true_at_known_minimum(self):
        # L1 line fit through three points; optimum interpolates samples
        # 0 and 2 (see test_solver.convex_regression_toy).
        o = line_fit_toy(xs=(0.0, 1.0, 2.0), ys=(1.0, 2.0, 3.5))
        ok, worst = local_min_check(o, np.array([1.25, 1.0]), radius=1e-4)
        assert ok
        assert worst >= -1e-8

    def test_false_on_descending_edge_midpoint(self):
        o, p0 = build_instance(56, (2, 3, 1), 8)
        lim = SolverLimits(validate=True)
        vertex, _ = descend_to_vertex(o, p0, lim)
        outcome = vertex_step(o, vertex, lim)
        assert outcome is not None
        new_vertex, rec = outcome
        midpoint = 0.5 * (vertex.point + new_vertex.point)
        radius = min(1e-4, 0.1 * rec.step)
        ok, worst = local_min_check(o, midpoint, radius=radius, directions=400)
        assert not ok
        assert worst < -1e-8

    def test_true_at_solver_minimum(self):
        o, p0 = build_instance(57, (2, 2, 1), 12)
        theta, _ = minimize(o, p0, SolverLimits(validate=True))
        ok, _ = local_min_check(
            o, theta, radius=1e-4 * (1 + np.linalg.norm(theta)), directions=200
        )
        assert ok

    def test_requires_enough_directions(self):
        o, p0 = build_instance(58, (1, 1, 1), 2)
        with pytest.raises(ValueError):
            local_min_check(o, p0, radius=1e-3, directions=10)


class TestArrangementWalk2D:
    def test_hand_placed_intersections(self):
        # Samples x = (1, -1), y = (2, 1) through the identity output layer.
        # Surfaces: w + b = 0, -w + b = 0, w + b = 2 (residual 0 active
        # side), -w + b = 1 (residual 1). Pairwise intersections, excluding
        # the parallel same-sample pairs, are exactly four points.
        o = line_fit_toy(xs=(1.0, -1.0), ys=(2.0, 1.0))
        start = np.array([0.3, 0.4])
        box = (np.array([-2.0, -2.0]), np.array([2.5, 2.5]))
        walk = arrangement_walk_2d(o, start, box=box, grid=80)
        expected = np.array(
            [[0.0, 0.0], [-0.5, 0.5], [1.0, 1.0], [0.5, 1.5]]
        )
        assert walk.vertices.shape == (4, 2)
        for row in expected:
            gaps = np.linalg.norm(walk.vertices - row[None, :], axis=1)
            assert gaps.min() <= 1e-6

    def test_exact_fit_is_a_zero_loss_vertex(self):
        o = line_fit_toy(xs=(1.0, -1.0), ys=(2.0, 1.0))
        box = (np.array([-2.0, -2.0]), np.array([2.5, 2.5]))
        walk = arrangement_walk_2d(o, np.array([0.3, 0.4]), box=box, grid=80)
        k = int(np.argmin(walk.values))
        assert_allclose(walk.vertices[k], [0.5, 1.5], atol=1e-8)
        assert walk.values[k] == pytest.approx(0.0, abs=1e-10)

    def test_solver_minimum_matches_brute_force(self):
        o, p0 = build_instance(59, (1, 1, 1), 5)
        theta, traj = minimize(o, p0, SolverLimits(validate=True))
        assert np.array_equal(traj.points[-1], theta)
        _, failure = check_walk_2d(o, p0, traj.points[traj.phase1_len :])
        assert failure is None

    def test_single_sample_has_no_vertices(self):
        o = line_fit_toy(xs=(1.0,), ys=(2.0,))
        box = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
        walk = arrangement_walk_2d(o, np.zeros(2), box=box, grid=64)
        assert walk.vertices.shape[0] == 0

    def test_origin_coincidence_flagged(self):
        # All first-layer surfaces pass through the origin; with three or
        # more samples that is a degenerate arrangement point.
        o = line_fit_toy(xs=(1.0, -1.0, 2.0), ys=(2.0, 1.0, -1.0))
        box = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
        walk = arrangement_walk_2d(o, np.zeros(2), box=box, grid=64)
        assert walk.degenerate_indices
        flagged = walk.vertices[list(walk.degenerate_indices)]
        assert np.linalg.norm(flagged, axis=1).min() <= 1e-6

    def test_requires_two_parameters(self):
        o, p0 = build_instance(60, (2, 2, 1), 3)
        from vertexwalk.errors import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            arrangement_walk_2d(o, p0)


class TestCheckWalk2D:
    """check_walk_2d, the one cross-check of a walk against the arrangement."""

    def test_walk_ending_at_the_exact_fit_passes(self):
        o = line_fit_toy(xs=(1.0, -1.0), ys=(2.0, 1.0))
        walk, failure = check_walk_2d(o, np.array([0.3, 0.4]), [[1.0, 1.0], [0.5, 1.5]])
        assert failure is None
        assert len(walk.vertices) == 4

    def test_final_vertex_with_a_lower_neighbour_fails(self):
        # (1, 1) has loss 1; its neighbour (0.5, 1.5) along w + b = 2 has 0.
        o = line_fit_toy(xs=(1.0, -1.0), ys=(2.0, 1.0))
        walk, failure = check_walk_2d(o, np.array([0.3, 0.4]), [[1.0, 1.0]])
        assert failure == "final not a brute local minimum"
        final = int(np.argmin(np.linalg.norm(walk.vertices - [1.0, 1.0], axis=1)))
        assert walk.values[final] == pytest.approx(1.0)

    def test_point_off_the_arrangement_fails(self):
        o = line_fit_toy(xs=(1.0, -1.0), ys=(2.0, 1.0))
        _, failure = check_walk_2d(o, np.array([0.3, 0.4]), [[0.3, 0.4], [0.5, 1.5]])
        assert failure == "vertex mismatch"

    def test_no_vertex_in_the_box_fails(self):
        o = line_fit_toy(xs=(1.0,), ys=(2.0,))
        _, failure = check_walk_2d(o, np.zeros(2), [[0.0, 0.0]])
        assert failure == "no brute vertices"
