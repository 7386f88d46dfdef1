"""Acceptance gate: every criterion runs at the reference configuration
(widths (4,5,4,3,2,1), 500 samples, stated parameter/data/start ranges)
or on the 2-parameter toys, at the stated tolerances, and prints one
PASS/FAIL line."""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import vertexwalk
from reference import (
    NoCrossing,
    affine_piece,
    fd_gradient,
    line_scan,
    local_min_check,
    ratio_test,
    region_signature,
)
from vertexwalk.analysis import (
    _linear_fit,
    distance_to_final,
    estimate_loss_floor,
    running_mean,
    segment_phases,
    step_distances,
)
from vertexwalk.bruteforce import check_walk_2d
from vertexwalk.errors import NoExponentialPhase, TooShort
from vertexwalk.experiment import ExperimentConfig, generate_instance, run, summarize
from vertexwalk.prng import SplitMix64
from vertexwalk.solver import minimize

PAPER_SEEDS = list(range(20))
TOY_SEEDS = list(range(5))

# (iterations, final loss) of every reference seed, as the walk produced
# them when this table was recorded. Pivot choices are exact, so any change
# to the walk's path shows up here.
REFERENCE_RUNS = {
    0: (3649, 787.4244716191871),
    1: (4531, 713.8483304129338),
    2: (2947, 717.1642158762967),
    3: (2703, 726.4664951620409),
    4: (2196, 718.3550493631884),
    5: (4915, 778.5996674994713),
    6: (862, 735.92785121052),
    7: (11633, 753.7868566745806),
    8: (2235, 769.0124879974875),
    9: (5077, 835.8652432570574),
    10: (921, 730.8164445159541),
    11: (6599, 752.8632210758208),
    12: (4235, 757.0602532030716),
    13: (2117, 713.3285945081),
    14: (5905, 829.0276595101475),
    15: (1128, 808.2354006817961),
    16: (4189, 755.9378566310861),
    17: (2164, 839.4699021565283),
    18: (8830, 719.9825751050981),
    19: (27, 753.11819454644),
}


# Capped walks of the three benchmark shapes, run with one BLAS thread:
# reference scale, N = 8000 and D = 100, and one whose first layer has
# fan-in 16, where the O(N H) passes keep the transposed view of the point
# as their right operand (oracle._product_plan): a first layer that always
# takes the contiguous copy keeps its pivots but changes its bits. Each
# entry holds the walk's fields, then two pins:
# - SHA-256 of every pivot's (leaving, entering) as int64, the final loss
#   and the sum of all losses. Pivots are exact integers and the losses are
#   checked at 1e-9 relative, so this pin holds on any machine.
# - SHA-256 of the points and then the losses (float64 bytes). This pin
#   shows a change to the last bit of any point or loss, but those bits
#   depend on the BLAS kernel the CPU selects (OpenBLAS picks Haswell,
#   SkylakeX, Zen, ... kernels), so it holds only on hardware that selects
#   the kernels it was recorded with: a 2-CPU x86-64 VM, scipy-openblas
#   0.3.31. When only this pin fails, the walk took the same path and
#   differs in rounding; on the recording hardware that is still a change.
CAPPED_WALKS = {
    "ref seed 6, 120 iterations": (
        {"seed": 6, "max_iterations": 120},
        (
            "ed08f4e0a6ef8fdb460ef17de03dd497c2e3fb6c901b02943b9821c1dabc4116",
            740.6538509868964,
            89811.12729949404,
        ),
        "7aac8f9210e0fcc805cbb5074496a8c4977cf6e249edf02d7e29da748f9e4562",
    ),
    "N = 8000 seed 0, 40 iterations": (
        {"seed": 0, "samples": 8000, "max_iterations": 40},
        (
            "1ec2e8fa8c4c5970f1752f1bde69a833f54e8280513eff42e80479ef47c164d0",
            12833.354895763918,
            526182.814519161,
        ),
        "b892217eb97997966c447fb83d66edeff2c9e4ec97e936cb063348c7491d606f",
    ),
    "D = 100 seed 0, 120 iterations": (
        {"seed": 0, "widths": [4, 20, 4, 3, 2, 1], "max_iterations": 120},
        (
            "7d008b0c23ba1603cd891093c62490f2cf8b87f31fc19a3ddf398bdd7e1bdd10",
            2515.0953597422276,
            314748.05830903345,
        ),
        "14dfc291ff8461322b408efd3703709c429d281020ac3cfff98d460f55baaa45",
    ),
    "first-layer fan-in 16 seed 0, 150 iterations": (
        {"seed": 0, "widths": [15, 4, 3, 1], "max_iterations": 150},
        (
            "216ae7bc74ab448996a78085942f8915a5dfc02c00cf42ced8745775d77b3069",
            4372.778992178846,
            851600.8006952724,
        ),
        "69ed3d50353032668578fb2b71f7aba86ce96ddfa77fcc93ee320d1d1a0b04aa",
    ),
}

_CAPPED_WALK_SCRIPT = """
import hashlib, json, sys
import numpy as np
from vertexwalk import solver
from vertexwalk.experiment import ExperimentConfig, generate_instance

pivots = []
step = solver.vertex_step

def recording_step(*args, **kwargs):
    out = step(*args, **kwargs)
    if out is not None:
        pivots.append((out[1].leaving, out[1].entering))
    return out

solver.vertex_step = recording_step
walks = {}
for label, fields in json.loads(sys.argv[1]).items():
    pivots.clear()
    cfg = ExperimentConfig(**fields)
    oracle, p0, rng = generate_instance(cfg)
    _, traj = solver.minimize(oracle, p0, cfg.solver_limits(), rng)
    assert len(traj) - 1 == cfg.max_iterations, label
    walks[label] = {
        "pivots": hashlib.sha256(np.array(pivots, dtype=np.int64).tobytes()).hexdigest(),
        "final loss": float(traj.losses[-1]),
        "loss sum": float(traj.losses.sum()),
        "bits": hashlib.sha256(traj.points.tobytes() + traj.losses.tobytes()).hexdigest(),
    }
print(json.dumps(walks))
"""


def _solve_paper_seed(seed: int):
    cfg = ExperimentConfig(seed=seed)
    oracle, p0, solver_rng = generate_instance(cfg)
    theta, traj = minimize(oracle, p0, cfg.solver_limits(), solver_rng)
    return seed, traj


@pytest.fixture(scope="session")
def paper_runs():
    """Trajectories of 20 independent seeds at the reference scale.

    Workers run one BLAS thread each: a worker per CPU with threaded BLAS
    oversubscribes the cores. They are spawned, not forked, because a
    forked child keeps the BLAS its parent has already loaded; a spawned
    one starts from the environment set here. That environment also makes
    a RuntimeWarning an error in the workers, as pytest does in-process.
    """
    workers = min(len(PAPER_SEEDS), os.cpu_count() or 1)
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            mp.setenv(var, "1")
        mp.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            results = dict(pool.map(_solve_paper_seed, PAPER_SEEDS))
    return results


def _report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")


class TestCriterion1Monotonicity:
    def test_loss_non_increasing_on_every_seed(self, paper_runs):
        bad = []
        for seed, traj in paper_runs.items():
            l = traj.losses
            if not np.all(np.diff(l) <= 1e-10 * (1.0 + l[:-1])):
                bad.append(seed)
        _report(1, not bad, f"loss non-increasing on {len(paper_runs)} seeds")
        assert not bad, f"non-monotone seeds: {bad}"

    def test_every_run_terminates_converged(self, paper_runs):
        # Finite termination well before the iteration cap on generic
        # instances backs the other criteria (they inspect final points).
        reasons = {seed: t.reason for seed, t in paper_runs.items()}
        assert all(r == "converged" for r in reasons.values()), reasons


class TestCriterion2Phase1Structure:
    def test_vertex_after_exactly_25_additions(self, paper_runs):
        bad = []
        for seed, traj in paper_runs.items():
            counts = traj.active_counts
            prefix_ok = traj.phase1_len == 25 and np.array_equal(
                counts[:26], np.arange(26)
            )
            phase2_ok = np.all(counts[25:] == 25)
            if not (prefix_ok and phase2_ok):
                bad.append(seed)
        _report(2, not bad, "25 constraint additions, then 25 active at every vertex")
        assert not bad, f"bad phase-1 structure: {bad}"


class TestCriterion3LocalMinimality:
    def test_every_converged_point_is_a_sampled_local_min(self, paper_runs):
        bad = []
        for seed, traj in paper_runs.items():
            cfg = ExperimentConfig(seed=seed)
            oracle, _, _ = generate_instance(cfg)
            theta = traj.final
            radius = 1e-4 * (1.0 + float(np.linalg.norm(theta)))
            ok, worst = local_min_check(
                oracle, theta, radius=radius, directions=200, seed=0xACC3 + seed
            )
            if not ok:
                bad.append((seed, worst))
        _report(3, not bad, "200-direction local-minimality at every final point")
        assert not bad, f"descent direction found at minima: {bad}"


class TestCriterion4OracleEquivalence:
    def test_toy_walks_match_brute_force(self):
        bad = []
        for seed in TOY_SEEDS:
            for n in (3, 5):
                cfg = ExperimentConfig(
                    seed=seed, widths=(1, 1, 1), samples=n, max_iterations=2000
                )
                oracle, p0, solver_rng = generate_instance(cfg)
                theta, traj = minimize(oracle, p0, cfg.solver_limits(), solver_rng)
                assert np.array_equal(traj.points[-1], theta)
                _, failure = check_walk_2d(oracle, p0, traj.points[traj.phase1_len :])
                if failure is not None:
                    bad.append((seed, n, failure))
        _report(4, not bad, "10 toy instances match the brute-force arrangement")
        assert not bad, f"brute-force mismatches: {bad}"


class TestCriterion5GradientCorrectness:
    def test_affine_gradients_and_first_crossings(self):
        from conftest import build_instance, interior_point, slope_change_across

        bad = []
        for seed, widths, n in [
            (71, (2, 3, 2, 1), 12),
            (72, (3, 4, 2), 10),
            (73, (2, 2, 2, 2, 1), 8),
        ]:
            o, _ = build_instance(seed, widths, n)
            rng = SplitMix64(1000 + seed)
            for _ in range(50):
                p = interior_point(o, rng, min_clear=1e-2)
                g = affine_piece(o, region_signature(o, p)).gradient
                fd = fd_gradient(o, p, h=1e-5 * (1.0 + float(np.linalg.norm(p))))
                if np.linalg.norm(fd - g) > 1e-6 * np.linalg.norm(g):
                    bad.append((seed, "gradient"))
                    break
            checked = 0
            attempts = 0
            while checked < 5 and attempts < 80:
                attempts += 1
                p = interior_point(o, rng, min_clear=1e-3)
                d = rng.unit_vector(o.dim)
                sig = region_signature(o, p)
                try:
                    t_star, _ = ratio_test(o, p, d, sig, [])
                except NoCrossing:
                    continue
                if t_star > 5.0:
                    continue
                # The scan sees a crossing only when the loss slope
                # changes there; crossings of surfaces with a dead
                # downstream path leave the loss unkinked and carry no
                # comparison content.
                change = slope_change_across(o, p, d, t_star)
                if change is None or abs(change) < 1e-4:
                    continue
                res = line_scan(o, p, d, t_max=1.5 * t_star)
                if res.kinks.size == 0 or abs(res.kinks[0] - t_star) > 1e-6 * (
                    1.0 + t_star
                ):
                    bad.append((seed, "first crossing"))
                    break
                checked += 1
            if checked < 5:
                bad.append((seed, "too few crossing checks"))
        _report(5, not bad, "analytic gradients and crossings match brute force")
        assert not bad, f"gradient/crossing failures: {bad}"


class TestCriterion6FloorEstimator:
    def test_exact_and_noisy_series(self):
        t = np.arange(60)
        exact_ok = True
        for a, b, rho in [(5.0, 3.0, 0.8), (0.5, 10.0, 0.95), (40.0, 0.7, 0.5)]:
            est = estimate_loss_floor(a + b * rho**t, window=40)
            if abs(est.floor - a) > 1e-10 * a:
                exact_ok = False
        noisy_ok = True
        tt = np.arange(30)
        clean = 2.0 + 0.9**tt
        for seed in range(10):
            rng = SplitMix64(600 + seed)
            series = clean * (1.0 + rng.uniform_block(30, -1e-4, 1e-4))
            est = estimate_loss_floor(series, window=30)
            if abs(est.floor - 2.0) > 0.01:
                noisy_ok = False
        ok = exact_ok and noisy_ok
        _report(6, ok, "floor extrapolation exact on clean, <=1% on noisy series")
        assert exact_ok, "floor estimator inexact on noiseless geometric series"
        assert noisy_ok, "floor estimator error above 1% on noisy series"


class TestCriterion7TwoPhaseReproduction:
    def test_majority_of_seeds_show_the_two_phase_shape(self, paper_runs):
        passes = 0
        lines = []
        for seed in PAPER_SEEDS[:10]:
            traj = paper_runs[seed]
            try:
                seg = segment_phases(traj, fit_window=50, r2_threshold=0.9)
            except (NoExponentialPhase, TooShort):
                lines.append(f"  seed {seed}: no exponential phase")
                continue
            s, e = seg.exp_start, seg.exp_end
            length = e - s + 1
            excess = traj.losses[s : e + 1] - seg.floor
            usable = excess > 0
            slope, _, r2 = _linear_fit(
                np.arange(s, e + 1, dtype=float)[usable], np.log(excess[usable])
            )
            sd = step_distances(traj).raw
            rm = running_mean(sd, 40)[s:e]
            rm_slope, _, _ = _linear_fit(
                np.arange(rm.size, dtype=float), np.log(np.maximum(rm, 1e-300))
            )
            dist = distance_to_final(traj).raw[s : e + 1]
            pos = dist > 0
            d_slope, _, _ = _linear_fit(
                np.arange(dist.size, dtype=float)[pos], np.log(dist[pos])
            )
            mid = (s + e) // 2
            window = min(mid + 1 - traj.phase1_len, 200)
            est = estimate_loss_floor(traj.losses[: mid + 1], window=window)
            err = abs(est.floor - traj.losses[-1]) / traj.losses[-1]
            good = length >= 30 and r2 >= 0.85 and slope < 0 and rm_slope < 0 and d_slope < 0
            passes += good
            lines.append(
                f"  seed {seed}: phase [{s},{e}] r2={r2:.3f} "
                f"step-trend={rm_slope:+.1e} dist-trend={d_slope:+.1e} "
                f"floor-err@mid={err:.3f} {'ok' if good else 'not counted'}"
            )
        ok = passes >= 6
        _report(7, ok, f"two-phase shape on {passes}/10 seeds (need >= 6)")
        for line in lines:
            print(line)
        assert ok, f"two-phase reproduction on only {passes}/10 seeds"

    def test_floor_method_names_the_estimate(self, paper_runs):
        # Seed 6 has an exponential phase, so its floor is estimated at the
        # phase's midpoint; seed 19 has none and takes the tail fallback.
        cfg = ExperimentConfig()
        methods = {
            seed: summarize(
                paper_runs[seed], "converged", cfg.fit_window, cfg.r2_threshold
            )["floor_method"]
            for seed in (6, 19)
        }
        assert methods == {6: "midpoint", 19: "tail"}


class TestReferenceTrajectories:
    def test_iterations_and_final_loss_pinned(self, paper_runs):
        bad = []
        for seed, (iterations, final_loss) in REFERENCE_RUNS.items():
            traj = paper_runs[seed]
            got = float(traj.losses[-1])
            if len(traj) - 1 != iterations or abs(got - final_loss) > 1e-9 * final_loss:
                bad.append((seed, len(traj) - 1, got))
        assert not bad, f"walks differ from the recorded reference: {bad}"


    @pytest.fixture(scope="class")
    def capped_walks(self):
        # A fresh interpreter with one BLAS thread, as paper_runs has.
        src = str(Path(vertexwalk.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            PYTHONPATH=path,
            PYTHONWARNINGS="error::RuntimeWarning",
        )
        fields = {label: f for label, (f, _, _) in CAPPED_WALKS.items()}
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_WALK_SCRIPT, json.dumps(fields)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_capped_walks_take_the_recorded_pivots(self, capped_walks):
        bad = []
        for label, (_, (pivots, final, total), _) in CAPPED_WALKS.items():
            got = capped_walks[label]
            if (
                got["pivots"] != pivots
                or not np.isclose(got["final loss"], final, rtol=1e-9, atol=0.0)
                or not np.isclose(got["loss sum"], total, rtol=1e-9, atol=0.0)
            ):
                bad.append((label, got))
        assert not bad, f"walks differ from the recorded pivots and losses: {bad}"

    def test_capped_walks_bit_identical(self, capped_walks):
        # Tied to the recording hardware; see CAPPED_WALKS.
        got = {label: walk["bits"] for label, walk in capped_walks.items()}
        assert got == {label: bits for label, (_, _, bits) in CAPPED_WALKS.items()}


class TestCriterion8Reproducibility:
    def test_byte_identical_artifacts(self, tmp_path):
        cfg = ExperimentConfig(seed=2, widths=(1, 1, 1), samples=5)
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        files_a = sorted(f.name for f in (tmp_path / "a").iterdir())
        files_b = sorted(f.name for f in (tmp_path / "b").iterdir())
        same = files_a == files_b and all(
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in files_a
        )
        _report(8, same, "identical (seed, config) gives byte-identical artifacts")
        assert same
