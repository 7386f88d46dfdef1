import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from vertexwalk.analysis import (
    distance_to_final,
    estimate_loss_floor,
    running_mean,
    segment_phases,
    step_distances,
    vertex_density_proxy,
)
from vertexwalk.errors import IllConditioned, NoExponentialPhase, TooShort
from vertexwalk.prng import SplitMix64
from vertexwalk.solver import Trajectory


def make_traj(points=None, losses=None, phase1_len=0):
    if points is None:
        points = np.zeros((len(losses), 1))
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if losses is None:
        losses = np.zeros(len(points))
    losses = np.asarray(losses, dtype=float)
    steps = np.zeros(len(points))
    if len(points) > 1:
        steps[1:] = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return Trajectory(
        points=points,
        losses=losses,
        active_counts=np.zeros(len(points), dtype=int),
        step_lengths=steps,
        phase1_len=phase1_len,
        reason="synthetic",
    )


class TestStepDistances:
    def test_constant_trajectory_is_zero(self):
        traj = make_traj(points=np.ones((5, 3)))
        assert_allclose(step_distances(traj).raw, np.zeros(4))

    def test_two_points(self):
        traj = make_traj(points=np.array([[0.0, 0.0], [0.0, 3.0]]))
        assert_allclose(step_distances(traj).raw, [3.0])

    def test_matches_recomputation(self):
        rng = SplitMix64(201)
        pts = rng.uniform_block(8 * 4, -2, 2).reshape(8, 4)
        traj = make_traj(points=pts)
        expect = [float(np.linalg.norm(pts[i + 1] - pts[i])) for i in range(7)]
        assert_allclose(step_distances(traj).raw, expect)

    def test_too_short(self):
        with pytest.raises(TooShort):
            step_distances(make_traj(points=np.zeros((1, 2))))


class TestRunningMean:
    def test_constant_series(self):
        out = running_mean(np.full(100, 2.5), 40)
        assert_allclose(out, np.full(100, 2.5))

    def test_first_entry_is_first_input(self):
        s = np.array([7.0, 1.0, 3.0])
        assert running_mean(s, 40)[0] == 7.0

    def test_matches_naive_double_loop(self):
        rng = SplitMix64(202)
        s = rng.uniform_block(137, -3, 5)
        out = running_mean(s, 40)
        naive = np.array(
            [np.mean(s[max(0, t - 39) : t + 1]) for t in range(len(s))]
        )
        assert_allclose(out, naive, rtol=1e-13)

    def test_window_one_is_identity(self):
        rng = SplitMix64(203)
        s = rng.uniform_block(20)
        assert_allclose(running_mean(s, 1), s)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        shift=st.floats(-100, 100),
        window=st.integers(1, 60),
    )
    def test_translation_equivariance(self, seed, shift, window):
        rng = SplitMix64(seed)
        s = rng.uniform_block(80, -1, 1)
        assert_allclose(
            running_mean(s + shift, window),
            running_mean(s, window) + shift,
            atol=1e-10,
        )


class TestDistanceToFinal:
    def test_last_entry_zero(self):
        rng = SplitMix64(204)
        traj = make_traj(points=rng.uniform_block(6 * 2, -1, 1).reshape(6, 2))
        d = distance_to_final(traj).raw
        assert d[-1] == 0.0

    def test_single_point(self):
        traj = make_traj(points=np.array([[1.0, 2.0]]))
        assert_allclose(distance_to_final(traj).raw, [0.0])

    def test_matches_recomputation(self):
        rng = SplitMix64(205)
        pts = rng.uniform_block(9 * 3, -2, 2).reshape(9, 3)
        traj = make_traj(points=pts)
        expect = [float(np.linalg.norm(p - pts[-1])) for p in pts]
        assert_allclose(distance_to_final(traj).raw, expect)


class TestEstimateLossFloor:
    def test_exact_on_geometric_plus_constant(self):
        t = np.arange(60)
        x = 5.0 + 3.0 * 0.8**t
        est = estimate_loss_floor(x, window=40)
        assert est.floor == pytest.approx(5.0, rel=1e-10)
        assert est.ratio == pytest.approx(0.8, rel=1e-6)
        assert est.r2 == pytest.approx(1.0, abs=1e-9)

    def test_constant_series_is_its_own_floor(self):
        est = estimate_loss_floor(np.full(20, 4.25), window=10)
        assert est.floor == 4.25

    def test_noisy_series_within_one_percent(self):
        t = np.arange(30)
        clean = 2.0 + 0.9**t
        for seed in range(10):
            rng = SplitMix64(206 + seed)
            noise = 1.0 + rng.uniform_block(30, -1e-4, 1e-4)
            est = estimate_loss_floor(clean * noise, window=30)
            assert abs(est.floor - 2.0) <= 0.01

    def test_floor_never_exceeds_last_entry(self):
        rng = SplitMix64(207)
        x = np.sort(rng.uniform_block(30, 1, 5))[::-1]
        est = estimate_loss_floor(x, window=20)
        assert est.floor <= x[-1]

    def test_linear_series_is_ill_conditioned(self):
        x = 10.0 - 0.1 * np.arange(30)
        with pytest.raises(IllConditioned):
            estimate_loss_floor(x, window=20)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(0.1, 50),
        b=st.floats(0.1, 20),
        ratio=st.floats(0.3, 0.95),
    )
    def test_exactness_property(self, a, b, ratio):
        t = np.arange(30)
        x = a + b * ratio**t
        if b * ratio**29 < 1e-11 * (a + b):
            return  # tail below extrapolation resolution
        est = estimate_loss_floor(x, window=30)
        assert est.floor == pytest.approx(a, rel=1e-8, abs=1e-10)


class TestSegmentPhases:
    def test_decay_then_flat(self):
        t = np.arange(500, dtype=float)
        losses = np.where(t < 300, 1000.0 * 0.95**t + 1.0, 1.0)
        traj = make_traj(losses=np.minimum.accumulate(losses))
        seg = segment_phases(traj, fit_window=50, r2_threshold=0.9)
        assert seg.exp_start <= 50
        assert abs(seg.exp_end - 300) <= 50
        assert seg.fine_end == 499
        assert seg.floor == pytest.approx(1.0, rel=1e-9)

    def test_pure_geometric_spans_series(self):
        t = np.arange(200, dtype=float)
        traj = make_traj(losses=7.0 + 50.0 * 0.9**t)
        seg = segment_phases(traj, fit_window=50, r2_threshold=0.9)
        assert seg.exp_start == 0
        assert seg.exp_end >= 190

    def test_phase_indices_offset_by_prefix(self):
        t = np.arange(200, dtype=float)
        losses = np.concatenate([np.full(25, 1000.0), 7.0 + 50.0 * 0.9**t])
        traj = make_traj(losses=losses, phase1_len=25)
        seg = segment_phases(traj, fit_window=50, r2_threshold=0.9)
        assert seg.exp_start == 25
        assert seg.fine_end == 224

    def test_too_short(self):
        traj = make_traj(losses=np.linspace(5, 1, 30))
        with pytest.raises(TooShort):
            segment_phases(traj, fit_window=50)

    def test_no_exponential_phase_on_constant(self):
        traj = make_traj(losses=np.full(120, 3.0))
        with pytest.raises(NoExponentialPhase):
            segment_phases(traj, fit_window=50)


class TestVertexDensityProxy:
    def test_constant_steps(self):
        pts = np.cumsum(np.full(50, 0.25))[:, None]
        traj = make_traj(points=pts)
        proxy = vertex_density_proxy(traj, window=10)
        assert_allclose(proxy.raw, np.full(49, 4.0))

    def test_geometric_steps_grow_geometrically(self):
        steps = 0.5**np.arange(30)
        pts = np.concatenate([[0.0], np.cumsum(steps)])[:, None]
        traj = make_traj(points=pts)
        proxy = vertex_density_proxy(traj, window=1)
        assert_allclose(proxy.raw, 2.0**np.arange(30))

    def test_zero_steps_marked_infinite(self):
        traj = make_traj(points=np.zeros((5, 2)))
        proxy = vertex_density_proxy(traj, window=3)
        assert np.all(np.isinf(proxy.raw))

    def test_consistent_with_step_distances(self):
        rng = SplitMix64(208)
        pts = np.cumsum(rng.uniform_block(40, 0.1, 1.0))[:, None]
        traj = make_traj(points=pts, phase1_len=5)
        proxy = vertex_density_proxy(traj, window=7)
        steps = np.linalg.norm(np.diff(pts[5:], axis=0), axis=1)
        assert_allclose(proxy.raw, 1.0 / running_mean(steps, 7))


class TestLoadedTrajectory:
    """A trajectory loaded without points.csv has zero placeholder points;
    the step series come from its stored step lengths all the same."""

    def test_steps_without_points(self, tmp_path):
        from vertexwalk.experiment import ExperimentConfig, load_trajectory_csv, run

        cfg = ExperimentConfig(seed=2, widths=(2, 3, 2, 1), samples=20)
        art = run(cfg, tmp_path)
        assert art.status == "converged"
        bare = load_trajectory_csv(tmp_path / "trajectory.csv")
        with_points = load_trajectory_csv(tmp_path / "trajectory.csv", tmp_path / "points.csv")
        assert not bare.points.any()
        steps = step_distances(bare).raw
        assert np.array_equal(steps, art.trajectory.step_lengths[1:]) and steps.all()
        # With points present, the stored lengths are the recomputed ones.
        recomputed = np.linalg.norm(np.diff(with_points.points, axis=0), axis=1)
        assert np.array_equal(step_distances(with_points).raw, recomputed)
        proxy = vertex_density_proxy(bare, window=5).raw
        assert np.array_equal(proxy, vertex_density_proxy(art.trajectory, window=5).raw)
        assert np.isfinite(proxy).all()
