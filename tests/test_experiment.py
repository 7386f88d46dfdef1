import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vertexwalk.analysis import FIT_WINDOW, MEAN_WINDOW, R2_THRESHOLD, estimate_loss_floor
from vertexwalk.cli import main
from vertexwalk.errors import InvalidConfig
from vertexwalk.experiment import (
    ExperimentConfig,
    _write_csv,
    analyze_files,
    check_seeds,
    generate_instance,
    load_trajectory_csv,
    run,
    summarize,
    sweep,
)
from vertexwalk.network import relu
from vertexwalk.prng import SplitMix64
from vertexwalk.solver import Trajectory

TOY = dict(widths=(1, 1, 1), samples=5, max_iterations=500)
WINDOWS = dict(mean_window=MEAN_WINDOW, fit_window=FIT_WINDOW, r2_threshold=R2_THRESHOLD)
TRAJ_HEADER = "iteration,loss,step_length,active_count,phase\n"
TRAJ_ROWS = "0,3.5,0.0,0,1\n1,3.0,0.5,1,1\n2,2.0,0.5,2,2\n"

SUMMARY_KEYS = {
    "final_loss",
    "iterations",
    "phase1_len",
    "exp_phase_start",
    "exp_phase_end",
    "floor_estimate",
    "floor_estimate_error",
    "floor_method",
    "decay_ratio",
    "r2",
    "status",
}


class TestGenerateInstance:
    def test_same_seed_identical(self):
        a, pa, _ = generate_instance(ExperimentConfig(seed=7, **TOY))
        b, pb, _ = generate_instance(ExperimentConfig(seed=7, **TOY))
        assert np.array_equal(pa, pb)
        assert np.array_equal(a.data.inputs, b.data.inputs)
        assert np.array_equal(a.data.targets, b.data.targets)
        for la, lb in zip(a.fixed, b.fixed):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_different_seeds_differ(self):
        a, pa, _ = generate_instance(ExperimentConfig(seed=1, **TOY))
        b, pb, _ = generate_instance(ExperimentConfig(seed=2, **TOY))
        assert not np.array_equal(pa, pb)

    def test_reference_defaults(self):
        o, p0, _ = generate_instance(ExperimentConfig(seed=0))
        assert o.dim == 25
        assert o.n_constraints == 7500
        assert o.arch.widths == (4, 5, 4, 3, 2, 1)
        assert o.data.inputs.shape == (500, 4)
        assert p0.shape == (25,)
        assert np.all(np.abs(p0) <= 20.0)

    def test_sampling_order_reproduced_independently(self):
        # Re-derive the documented draw order with raw generator calls.
        cfg = ExperimentConfig(seed=11, widths=(2, 3, 2), samples=4)
        o, p0, _ = generate_instance(cfg)
        rng = SplitMix64(11)

        def block(n, lo, hi):
            return rng.uniform_block(n, lo, hi)

        w2 = block(2 * 3, -1, 1).reshape(2, 3)
        b2 = block(2, -1, 1)
        data = block(4 * (2 + 2), -3, 3).reshape(4, 4)
        p0_expect = block(3 * 3, -20, 20)
        assert np.array_equal(o.fixed[0].weight, w2)
        assert np.array_equal(o.fixed[0].bias, b2)
        assert np.array_equal(o.data.inputs, data[:, :2])
        assert np.array_equal(o.data.targets, data[:, 2:])
        assert np.array_equal(p0, p0_expect)

    def test_layer_two_training_folds_lower_layer(self):
        cfg = ExperimentConfig(seed=13, widths=(2, 3, 2, 1), samples=6, layer=2)
        o, p0, _ = generate_instance(cfg)
        assert o.arch.widths == (3, 2, 1)
        assert o.dim == 2 * (3 + 1)
        assert p0.shape == (8,)
        # Layer 1 is drawn first and folded into the predictors.
        rng = SplitMix64(13)
        w1 = rng.uniform_block(3 * 2, -1, 1).reshape(3, 2)
        b1 = rng.uniform_block(3, -1, 1)
        w3 = rng.uniform_block(1 * 2, -1, 1).reshape(1, 2)
        b3 = rng.uniform_block(1, -1, 1)
        data = rng.uniform_block(6 * 3, -3, 3).reshape(6, 3)
        pushed = relu(data[:, :2] @ w1.T + b1)
        assert_allclose(o.data.inputs, pushed)
        assert np.array_equal(o.fixed[0].weight, w3)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(widths=(3,))
        with pytest.raises(InvalidConfig):
            ExperimentConfig(samples=0)
        with pytest.raises(InvalidConfig):
            ExperimentConfig(init_range=(2.0, 2.0))
        with pytest.raises(InvalidConfig):
            ExperimentConfig(layer=5)


class TestRun:
    def test_toy_run_artifacts(self, tmp_path):
        art = run(ExperimentConfig(seed=3, **TOY), tmp_path)
        assert art.status == "converged"
        for name in (
            "trajectory.csv",
            "points.csv",
            "loss.csv",
            "step_length.csv",
            "step_length_mean40.csv",
            "dist_to_final.csv",
            "summary.json",
            "config.json",
        ):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert SUMMARY_KEYS <= set(summary)
        losses = _column(tmp_path / "loss.csv", 1)
        assert np.all(np.diff(losses) <= 1e-10 * (1 + losses[:-1]))
        dist = _column(tmp_path / "dist_to_final.csv", 1)
        assert dist[-1] == 0.0

    def test_headers_exact(self, tmp_path):
        _check_headers(tmp_path, ExperimentConfig(seed=3, **TOY))

    def test_mean_header_follows_the_window(self, tmp_path):
        _check_headers(tmp_path, ExperimentConfig(seed=3, mean_window=7, **TOY))

    def test_iteration_cap_still_writes(self, tmp_path):
        cfg = ExperimentConfig(seed=3, widths=(1, 1, 1), samples=5, max_iterations=1)
        art = run(cfg, tmp_path)
        assert art.status == "max_iterations"
        assert (tmp_path / "trajectory.csv").exists()
        assert json.loads((tmp_path / "summary.json").read_text())["status"] == (
            "max_iterations"
        )

    def test_failed_run_names_its_config(self, tmp_path, monkeypatch, capsys):
        # A failed run's directory holds its config and a summary with the
        # config's fingerprint, as a converged run's does; so does each
        # failed seed of a sweep. The failure is forced: what matters is
        # what a failed run writes, not which configs fail.
        from vertexwalk import experiment as exp
        from vertexwalk.errors import DegenerateVertex

        def failing(oracle, p0, limits, rng=None):
            raise DegenerateVertex("synthetic failure")

        monkeypatch.setattr(exp, "minimize", failing)
        fields = {"seed": 1, "widths": [3, 4, 3, 1], "samples": 30, "data_range": [-1000.0, 1000.0]}
        (tmp_path / "c.json").write_text(json.dumps(fields))
        cfg = ExperimentConfig(**fields)
        assert main(["run", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "D")]) == 1
        assert main(["sweep", "--config", str(tmp_path / "c.json"), "--seeds", "1",
                     "--out", str(tmp_path / "S")]) == 1
        capsys.readouterr()
        for out in (tmp_path / "D", tmp_path / "S" / "seed_1"):
            assert sorted(f.name for f in out.iterdir()) == ["config.json", "summary.json"]
            assert (out / "config.json").read_text() == cfg.to_json() + "\n"
            assert ExperimentConfig.from_file(out / "config.json") == cfg
            assert json.loads((out / "summary.json").read_text()) == {
                "fingerprint": cfg.fingerprint(),
                "status": "degenerate: synthetic failure",
            }

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig(seed=9, **TOY)
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_a_reused_directory_holds_one_run(self, tmp_path, monkeypatch):
        # Each run into D leaves in it exactly what a run into a fresh
        # directory writes, byte for byte, and every file that is not a
        # run's. The failure is forced, as in test_failed_run_names_its_config.
        from vertexwalk import experiment as exp
        from vertexwalk.errors import DegenerateVertex

        real_minimize = exp.minimize

        def failing(oracle, p0, limits, rng=None):
            raise DegenerateVertex("synthetic failure")

        reused, own = tmp_path / "D", ("notes.txt", "step_length_mean40.txt", "points.csv.bak")
        reused.mkdir()
        for name in own:
            (reused / name).write_text("kept\n")
        runs = [
            (ExperimentConfig(seed=3, mean_window=7, **TOY), real_minimize),
            (ExperimentConfig(seed=3, **TOY), real_minimize),
            (ExperimentConfig(seed=4, **TOY), failing),
            (ExperimentConfig(seed=5, **TOY), real_minimize),
        ]
        for n, (cfg, minimize) in enumerate(runs):
            monkeypatch.setattr(exp, "minimize", minimize)
            run(cfg, reused)
            run(cfg, tmp_path / f"fresh{n}")
            fresh = {f.name: f.read_bytes() for f in (tmp_path / f"fresh{n}").iterdir()}
            assert {f.name: f.read_bytes() for f in reused.iterdir() if f.name not in own} == fresh
            assert all((reused / name).read_text() == "kept\n" for name in own)
        assert len(fresh) == 8

    def test_phase_column_matches_prefix(self, tmp_path):
        art = run(ExperimentConfig(seed=4, **TOY), tmp_path)
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        phases = np.array([int(float(r.split(",")[4])) for r in rows])
        assert np.all(phases[: art.summary["phase1_len"]] == 1)
        assert np.all(phases[art.summary["phase1_len"] :] == 2)

    def test_toy_run_is_fast(self, tmp_path):
        import time

        cfg = ExperimentConfig(seed=5, **TOY)
        start = time.perf_counter()
        art = run(cfg, tmp_path)
        assert time.perf_counter() - start < 1.0
        assert art.status == "converged"

    def test_second_layer_run_end_to_end(self, tmp_path):
        cfg = ExperimentConfig(
            seed=22, widths=(2, 3, 2, 1), samples=15, layer=2, max_iterations=2000
        )
        art = run(cfg, tmp_path)
        assert art.status == "converged"
        assert art.summary["phase1_len"] == 2 * (3 + 1)
        losses = _column(tmp_path / "loss.csv", 1)
        assert np.all(np.diff(losses) <= 1e-10 * (1 + losses[:-1]))

    def test_rank_deficient_transformed_instance_fails_cleanly(self, tmp_path):
        # Seed 21 folds a layer-1 unit that is dead on every sample, so one
        # predictor coordinate vanishes identically and the landscape has
        # no vertices; the run must report that instead of crashing.
        cfg = ExperimentConfig(
            seed=21, widths=(2, 3, 2, 1), samples=15, layer=2, max_iterations=2000
        )
        art = run(cfg, tmp_path)
        assert art.status == "failed"
        assert "rank-deficient" in art.summary["status"]
        assert (tmp_path / "summary.json").exists()

    def test_badly_scaled_instance_is_not_called_only_rank_deficient(self, tmp_path):
        # Data at +-1e100 is in range, but the absolute tolerances stall
        # phase 1 on it; the instance itself has full rank.
        art = run(ExperimentConfig(seed=0, data_range=(-1e100, 1e100)), tmp_path)
        assert art.status == "failed"
        assert "rank-deficient or badly scaled" in art.summary["status"]


class TestSummarize:
    @pytest.mark.parametrize("fit_window", [3, 4])
    def test_short_midpoint_window_takes_the_tail_estimate(self, tmp_path, fit_window):
        # The exponential phase starts at the first post-vertex window and
        # is short, so only 2 phase-2 losses lie up to its midpoint; the
        # floor comes from the tail estimate instead.
        cfg = ExperimentConfig(seed=3, widths=(2, 3, 2, 1), samples=20, fit_window=fit_window)
        art = run(cfg, tmp_path)
        summary = art.summary
        assert art.status == "converged"
        mid = (summary["exp_phase_start"] + summary["exp_phase_end"]) // 2
        assert mid + 1 - summary["phase1_len"] < 3
        phase2 = len(art.trajectory.phase2_losses)
        tail = estimate_loss_floor(art.trajectory.losses, window=min(phase2, 2 * fit_window))
        assert summary["floor_estimate"] == tail.floor
        assert summary["decay_ratio"] == tail.ratio
        # The tail estimate includes the converged loss, and says so.
        assert summary["floor_method"] == "tail"

    @pytest.mark.parametrize("tail", [[100.0, 99.0, 98.0], [100.0, 99.0, 98.0, 97.0]])
    def test_short_linear_tail_leaves_floor_unset(self, tail):
        # No delta-squared triple of an exactly linear tail is acceptable,
        # so the estimator raises IllConditioned; the summary must still be
        # written, without a floor estimate.
        losses = np.array([120.0, 110.0] + tail)
        traj = Trajectory(
            points=np.zeros((losses.size, 2)),
            losses=losses,
            active_counts=np.array([0, 1] + [2] * len(tail)),
            step_lengths=np.ones(losses.size),
            phase1_len=2,
            reason="converged",
        )
        summary = summarize(traj, "converged", fit_window=50, r2_threshold=0.9)
        assert summary["final_loss"] == tail[-1]
        assert summary["iterations"] == losses.size - 1
        for key in ("floor_estimate", "floor_estimate_error", "floor_method", "decay_ratio", "r2"):
            assert summary[key] is None


class TestSweep:
    def test_two_seeds(self, tmp_path):
        agg = sweep(ExperimentConfig(**TOY), [1, 2], tmp_path)
        assert agg["seeds"] == [1, 2]
        assert len(agg["runs"]) == 2
        assert (tmp_path / "seed_1" / "summary.json").exists()
        assert (tmp_path / "sweep.json").exists()
        assert 0.0 <= agg["converged_rate"] <= 1.0

    def test_empty_seed_list_rejected(self):
        with pytest.raises(InvalidConfig):
            sweep(ExperimentConfig(**TOY), [])

    def test_repeated_seed_rejected_before_any_run(self, tmp_path):
        # Seed 1 twice would run twice into one seed_1 directory and count
        # twice in every rate.
        with pytest.raises(InvalidConfig, match=r"repeats \[1\]"):
            sweep(ExperimentConfig(**TOY), [1, 2, 1], tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("seeds", [[1.5, 2.9], [True], ["3"]])
    def test_seed_list_follows_the_config_seed_rule(self, tmp_path, seeds):
        # Each of these seeds makes ExperimentConfig raise, so the list is
        # rejected before any run, not truncated to [1, 2], [1] or [3].
        with pytest.raises(InvalidConfig, match="seed"):
            check_seeds(seeds)
        with pytest.raises(InvalidConfig, match="seed"):
            ExperimentConfig(seed=seeds[-1])
        with pytest.raises(InvalidConfig, match="seed"):
            sweep(ExperimentConfig(**TOY), seeds, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_floor_errors_reported_per_method(self, tmp_path, monkeypatch):
        from vertexwalk import experiment as exp

        floors = {
            1: (0.1, "midpoint"),
            2: (0.3, "midpoint"),
            3: (0.0, "tail"),
            4: (None, None),
            5: (0.5, "midpoint"),
        }

        def fake_run(cfg, out_dir=None):
            error, method = floors[cfg.seed]
            summary = {"floor_estimate_error": error, "floor_method": method, "status": "converged"}
            return SimpleNamespace(summary=summary)

        monkeypatch.setattr(exp, "run", fake_run)
        agg = sweep(ExperimentConfig(**TOY), list(floors), tmp_path)
        by_method = agg["floor_error_by_method"]
        assert by_method["tail"] == {"count": 1, "median": 0.0, "p90": 0.0}
        midpoint = by_method["midpoint"]
        assert midpoint["count"] == 3 and midpoint["median"] == 0.3
        assert midpoint["p90"] == pytest.approx(0.46)
        # The two mixed keys stay: every run with an estimate, both methods.
        assert agg["floor_error_median"] == pytest.approx(0.2)
        assert agg["floor_error_p90"] == pytest.approx(0.44)
        on_disk = json.loads((tmp_path / "sweep.json").read_text())
        assert on_disk["floor_error_by_method"] == by_method

    def test_continues_past_a_failing_seed(self, tmp_path, monkeypatch):
        from vertexwalk import experiment as exp
        from vertexwalk.errors import DegenerateVertex

        real_minimize = exp.minimize

        def flaky(oracle, p0, limits, rng=None):
            if flaky.fail_next:
                flaky.fail_next = False
                raise DegenerateVertex("synthetic failure")
            return real_minimize(oracle, p0, limits, rng)

        flaky.fail_next = True
        monkeypatch.setattr(exp, "minimize", flaky)
        agg = sweep(ExperimentConfig(**TOY), [2, 3], tmp_path)
        assert agg["runs"][0]["seed"] == 2
        assert agg["runs"][0]["status"].startswith("degenerate")
        assert agg["runs"][1]["status"] == "converged"
        assert agg["converged_rate"] == 0.5
        assert agg["monotone_rate"] == 0.5

    def test_isolates_an_unexpected_exception(self, tmp_path, monkeypatch):
        from vertexwalk import experiment as exp

        real_minimize = exp.minimize
        _, p0_seed2, _ = exp.generate_instance(ExperimentConfig(seed=2, **TOY))

        def crash_on_seed2(oracle, p0, limits, rng=None):
            if np.array_equal(p0, p0_seed2):
                raise RuntimeError("synthetic crash")
            return real_minimize(oracle, p0, limits, rng)

        monkeypatch.setattr(exp, "minimize", crash_on_seed2)
        agg = sweep(ExperimentConfig(**TOY), [1, 2, 3], tmp_path / "api")
        assert [r["seed"] for r in agg["runs"]] == [1, 2, 3]
        assert agg["runs"][0]["status"] == "converged"
        assert agg["runs"][2]["status"] == "converged"
        assert agg["runs"][0]["final_loss"] > 0.0
        assert agg["runs"][1] == {
            "seed": 2,
            "status": "error: RuntimeError: synthetic crash",
        }
        assert agg["converged_rate"] == pytest.approx(2 / 3)
        trace = (tmp_path / "api" / "seed_2" / "traceback.txt").read_text()
        assert "RuntimeError: synthetic crash" in trace
        assert (tmp_path / "api" / "sweep.json").exists()

        code = main(
            ["sweep", "--seeds", "1,2,3", "--widths", "1,1,1", "--samples", "5",
             "--max-iter", "500", "--out", str(tmp_path / "cli")]
        )
        assert code == 1
        cli_runs = json.loads((tmp_path / "cli" / "sweep.json").read_text())["runs"]
        assert [r["status"] for r in cli_runs] == [
            "converged", "error: RuntimeError: synthetic crash", "converged"
        ]

    def test_a_rerun_seed_holds_only_its_outcome(self, tmp_path, monkeypatch):
        # A seed that raised leaves its traceback beside no file of an
        # earlier run; a seed that ran leaves no traceback of an earlier
        # sweep. Files that are neither stay.
        from vertexwalk import experiment as exp

        real_minimize = exp.minimize

        def crashing(oracle, p0, limits, rng=None):
            raise RuntimeError("synthetic crash")

        seed_dir = tmp_path / "S" / "seed_2"
        for n, minimize in enumerate((real_minimize, crashing, real_minimize)):
            monkeypatch.setattr(exp, "minimize", minimize)
            sweep(ExperimentConfig(**TOY), [2], tmp_path / "S")
            (seed_dir / "notes.txt").write_text("kept\n")
            names = sorted(f.name for f in seed_dir.iterdir())
            if minimize is crashing:
                assert names == ["notes.txt", "traceback.txt"]
            else:
                run(ExperimentConfig(seed=2, **TOY), tmp_path / f"fresh{n}")
                fresh = sorted(f.name for f in (tmp_path / f"fresh{n}").iterdir())
                assert names == sorted(fresh + ["notes.txt"])

    def test_single_seed_matches_run(self, tmp_path):
        cfg = ExperimentConfig(**TOY)
        agg = sweep(cfg, [5], tmp_path / "sweep")
        solo = run(ExperimentConfig(seed=5, **TOY), tmp_path / "solo")
        row = dict(agg["runs"][0])
        row.pop("seed")
        assert row == solo.summary


class TestAnalyze:
    def test_round_trip(self, tmp_path):
        run(ExperimentConfig(seed=6, **TOY), tmp_path / "orig")
        summary = analyze_files(tmp_path / "orig" / "trajectory.csv", tmp_path / "re", **WINDOWS)
        assert summary["status"] == "analyzed"
        names = sorted(p.name for p in (tmp_path / "orig").glob("*.csv"))
        assert names == [
            "dist_to_final.csv",
            "loss.csv",
            "points.csv",
            "step_length.csv",
            "step_length_mean40.csv",
            "trajectory.csv",
        ]
        assert sorted(p.name for p in (tmp_path / "re").glob("*.csv")) == names
        for name in names:
            a = (tmp_path / "orig" / name).read_bytes()
            b = (tmp_path / "re" / name).read_bytes()
            assert a == b, name

        def derived(path):
            data = json.loads(path.read_text())
            return {k: v for k, v in data.items() if k not in ("status", "fingerprint")}

        assert derived(tmp_path / "re" / "summary.json") == derived(
            tmp_path / "orig" / "summary.json"
        )

    def test_mean_window_names_its_file(self, tmp_path):
        run(ExperimentConfig(seed=6, **TOY), tmp_path / "orig")
        run(ExperimentConfig(seed=6, mean_window=7, **TOY), tmp_path / "seven")
        windows = {**WINDOWS, "mean_window": 7}
        analyze_files(tmp_path / "orig" / "trajectory.csv", tmp_path / "re", **windows)
        assert not (tmp_path / "re" / "step_length_mean40.csv").exists()
        a = (tmp_path / "seven" / "step_length_mean7.csv").read_bytes()
        assert (tmp_path / "re" / "step_length_mean7.csv").read_bytes() == a

    def test_wellformed_rows_load(self, tmp_path):
        # The malformed cases below each change one field of these rows.
        path = tmp_path / "trajectory.csv"
        path.write_text(TRAJ_HEADER + TRAJ_ROWS)
        traj = load_trajectory_csv(path)
        assert traj.phase1_len == 2
        assert traj.active_counts.tolist() == [0, 1, 2]

    @pytest.mark.parametrize(
        "text",
        [
            TRAJ_HEADER,
            TRAJ_HEADER + "0,3.5,0.0,0,1\n1,2.0,0.5\n",
            TRAJ_HEADER + "0,3.5,0.0,0,x\n",
            TRAJ_HEADER + TRAJ_ROWS.replace("2,2.0,", "2,nan,"),
            TRAJ_HEADER + TRAJ_ROWS.replace("2,2.0,", "2,inf,"),
            TRAJ_HEADER + TRAJ_ROWS + "3,1.5,0.5,2,1\n",
            TRAJ_HEADER + TRAJ_ROWS.replace(",2,2\n", ",2,3\n"),
            TRAJ_HEADER + TRAJ_ROWS.replace(",2,2\n", ",2.5,2\n"),
            TRAJ_HEADER + TRAJ_ROWS.replace("2,2.0,0.5,", "2,2.0,-1,"),
            TRAJ_HEADER + "".join("0" + row[1:] + "\n" for row in TRAJ_ROWS.splitlines()),
        ],
        ids=[
            "header_only",
            "short_row",
            "non_numeric",
            "nan_loss",
            "inf_loss",
            "phase_1_after_2",
            "phase_3",
            "fractional_count",
            "negative_step",
            "zero_iterations",
        ],
    )
    def test_malformed_trajectory_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "trajectory.csv"
        path.write_text(text)
        with pytest.raises(InvalidConfig):
            load_trajectory_csv(path)
        code = main(["analyze", "--traj", str(path), "--out", str(tmp_path / "re")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_finite_points_rejected(self, tmp_path):
        run(ExperimentConfig(seed=6, **TOY), tmp_path / "orig")
        points = tmp_path / "orig" / "points.csv"
        lines = points.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1] + ["nan"])
        points.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidConfig, match="non-finite"):
            analyze_files(tmp_path / "orig" / "trajectory.csv", tmp_path / "re", **WINDOWS)

    @pytest.mark.parametrize("fault", ["header", "swapped_rows", "no_coordinates"])
    def test_malformed_points_rejected(self, tmp_path, capsys, fault):
        # points.csv is read like trajectory.csv: its header must name the
        # iteration and p0..p{k-1}, and its iterations run 0..n-1.
        run(ExperimentConfig(seed=3, **TOY), tmp_path / "A")
        traj, points = tmp_path / "A" / "trajectory.csv", tmp_path / "A" / "points.csv"
        lines = points.read_text().splitlines()
        if fault == "header":
            lines[0] = "foo,bar,baz"
        elif fault == "swapped_rows":
            lines[1], lines[2] = lines[2], lines[1]
        else:
            lines = [line.split(",")[0] for line in lines]
        points.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidConfig):
            load_trajectory_csv(traj, points)
        code = main(["analyze", "--traj", str(traj), "--out", str(tmp_path / "B")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "B" / "dist_to_final.csv").exists()

    def test_points_row_count_must_match(self, tmp_path):
        run(ExperimentConfig(seed=6, **TOY), tmp_path / "orig")
        points = tmp_path / "orig" / "points.csv"
        points.write_text("\n".join(points.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(InvalidConfig):
            analyze_files(tmp_path / "orig" / "trajectory.csv", tmp_path / "re", **WINDOWS)

    def test_a_reused_directory_holds_one_analysis(self, tmp_path):
        # Seed 3's trajectory, its points removed, analyzed into seed 4's run
        # directory leaves there what an analysis into a fresh directory
        # writes, byte for byte: none of seed 4's points, distances or
        # config.
        a, b, fresh = tmp_path / "A", tmp_path / "B", tmp_path / "fresh"
        run(ExperimentConfig(seed=3, **TOY), a)
        (a / "points.csv").unlink()
        run(ExperimentConfig(seed=4, **TOY), b)
        analyze_files(a / "trajectory.csv", b, **WINDOWS)
        analyze_files(a / "trajectory.csv", fresh, **WINDOWS)
        assert {f.name: f.read_bytes() for f in b.iterdir()} == {
            f.name: f.read_bytes() for f in fresh.iterdir()
        }
        assert not (b / "config.json").exists() and not (b / "points.csv").exists()

    def test_reanalyzing_in_place_keeps_the_run_config(self, tmp_path):
        # In the trajectory's own directory the run's config.json and its
        # points stay; the running mean of another window goes.
        a = tmp_path / "A"
        run(ExperimentConfig(seed=3, mean_window=7, **TOY), a)
        before = {f.name: f.read_bytes() for f in a.iterdir()}
        analyze_files(tmp_path / "." / "A" / "trajectory.csv", a, **WINDOWS)
        after = {f.name: f.read_bytes() for f in a.iterdir()}
        assert set(after) == set(before) - {"step_length_mean7.csv"} | {"step_length_mean40.csv"}
        for name in ("config.json", "points.csv", "trajectory.csv", "loss.csv"):
            assert after[name] == before[name], name

    def test_csv_columns_of_numpy_scalars_write_plain_numbers(self, tmp_path):
        # repr(np.float64(x)) reads "np.float64(x)" under numpy 2; the
        # writer turns every column into Python scalars first.
        path = tmp_path / "series.csv"
        ints = [np.int64(0), np.int64(7)]
        floats = [np.float64(0.1), np.float64(1e-20)]
        _write_csv(path, "i,x,y", ints, floats, np.array([2.5, -0.0]))
        assert path.read_text() == "i,x,y\n0,0.1,2.5\n7,1e-20,-0.0\n"

    def test_without_points_skips_distances(self, tmp_path):
        run(ExperimentConfig(seed=6, **TOY), tmp_path / "orig")
        (tmp_path / "orig" / "points.csv").unlink()
        analyze_files(tmp_path / "orig" / "trajectory.csv", tmp_path / "re", **WINDOWS)
        assert not (tmp_path / "re" / "dist_to_final.csv").exists()
        assert (tmp_path / "re" / "loss.csv").exists()


class TestConfigSerialization:
    def test_json_round_trip(self):
        cfg = ExperimentConfig(seed=12, widths=(2, 2, 1), samples=9)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.fingerprint() == cfg.fingerprint()

    def test_fingerprint_depends_on_seed(self):
        a = ExperimentConfig(seed=1, **TOY)
        b = ExperimentConfig(seed=2, **TOY)
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprints_pinned(self):
        # Lists and int range ends normalize as before validation existed.
        assert ExperimentConfig().fingerprint() == "afa7d39b328a3829"
        cfg = ExperimentConfig(seed=12, widths=[2, 2, 1], samples=9, data_range=(-2, 2))
        assert cfg.fingerprint() == "57e9afc8173ab352"
        cfg = ExperimentConfig(seed=3, act_tol=1e-7, desc_tol=1e-10)
        assert cfg.fingerprint() == "68db17f5906b6110"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": 1.5},
            {"seed": -1},
            {"seed": True},
            {"max_iterations": 2.5},
            {"widths": [4, 5.9, 1]},
            {"widths": "451"},
            {"samples": 2.7},
            {"layer": None},
            {"init_range": (-float("inf"), 1.0)},
            {"data_range": (0.0, float("nan"))},
            {"theta_range": (-1.0, 0.0, 1.0)},
            {"act_tol": -1},
            {"act_tol": 0.0},
            {"desc_tol": float("nan")},
            {"desc_tol": float("inf")},
            {"r2_threshold": "0.9"},
        ],
    )
    def test_bad_field_rejected(self, bad):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(**bad)
        with pytest.raises(InvalidConfig):
            ExperimentConfig.from_json(json.dumps(bad))

    @pytest.mark.parametrize("text", ['{"sead": 3}', "[1, 2]", "7", "{seed: 1}"])
    def test_bad_json_rejected(self, text):
        with pytest.raises(InvalidConfig):
            ExperimentConfig.from_json(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--widths", "4,5.9,1"],
            ["run", "--config", "CFG"],
            ["run", "--config", "missing.json"],
            ["sweep", "--seeds", "1,x"],
            ["analyze", "--traj", "missing.csv", "--out", "re"],
            ["sweep", "--seeds", ""],
            ["sweep", "--seeds", "1,1", "--widths", "1,1,1", "--samples", "5"],
            ["verify", "--seeds", ""],
            ["verify", "--seeds", "2,0,2"],
            ["run", "--widths", "4,,5,1"],
            ["sweep", "--seeds", "1,,2"],
            ["sweep", "--seeds", "19,-1", "--out", "D"],
            ["verify", "--seeds", "0,18446744073709551616"],
        ],
    )
    def test_cli_reports_one_line_and_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "CFG").write_text('{"seed": 1, "sead": 2}')
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1
        # Rejected before any run: no seed ran, wrote or printed anything.
        assert out == ""
        assert not list(tmp_path.rglob("seed_*"))


class TestOverflowBound:
    """A config whose forward pass could overflow float64, squared, is
    refused before any instance is drawn."""

    def test_a_huge_data_range_is_refused_by_name(self):
        with pytest.raises(InvalidConfig, match="overflow"):
            ExperimentConfig(data_range=(-1e200, 1e200))
        with pytest.raises(InvalidConfig, match="overflow"):
            ExperimentConfig(theta_range=(-1e60, 1e60), widths=(4, 5, 4, 3, 2, 1), layer=3)

    def test_run_exits_2_and_writes_no_run(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text('{"data_range": [-1e200, 1e200]}')
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 2
        _, err = capsys.readouterr()
        assert "overflow" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "widths, samples",
        [(w, n) for w in ((2, 3, 2, 1), (2, 2, 1), (3, 4, 3, 1), (2, 4, 1), (3, 3, 2, 1),
                          (3, 4, 2), (1, 2, 1), (2, 3, 3, 2)) for n in (12, 30)]
        + [((2, 3, 2, 1), 30), ((3, 4, 3, 1), 30), ((4, 5, 4, 3, 2, 1), 30)],
    )
    def test_corpus_configs_are_accepted(self, widths, samples):
        # tests/corpus_walks.py's instances: its 8 quantized width sets at
        # N = 12 and 30 and its 3 default-config width sets at N = 30.
        ExperimentConfig(seed=0, widths=widths, samples=samples)

    def test_defaults_and_a_wide_data_range_are_accepted(self):
        ExperimentConfig()
        ExperimentConfig(data_range=(-1e6, 1e6))
        ExperimentConfig(samples=8000, widths=(4, 20, 4, 3, 2, 1), data_range=(-1e6, 1e6))


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--seed",
                "3",
                "--widths",
                "1,1,1",
                "--samples",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "converged"
        assert (tmp_path / "summary.json").exists()

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(ExperimentConfig(seed=1, **TOY).to_json())
        code = main(["run", "--config", str(cfg_path), "--seed", "8"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["fingerprint"] == (
            ExperimentConfig(seed=8, **TOY).fingerprint()
        )

    def test_sweep_subcommand(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--seeds",
                "1,2",
                "--widths",
                "1,1,1",
                "--samples",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "sweep.json").exists()

    def test_analyze_subcommand(self, tmp_path, capsys):
        main(
            ["run", "--seed", "4", "--widths", "1,1,1", "--samples", "5",
             "--out", str(tmp_path / "a")]
        )
        capsys.readouterr()
        code = main(
            ["analyze", "--traj", str(tmp_path / "a" / "trajectory.csv"),
             "--out", str(tmp_path / "b")]
        )
        assert code == 0
        assert (tmp_path / "b" / "summary.json").exists()

    @pytest.mark.parametrize(
        "flags", [["--mean-window", "0"], ["--mean-window", "-5"], ["--fit-window", "1"]]
    )
    def test_analyze_checks_windows_like_run(self, tmp_path, capsys, flags):
        run(ExperimentConfig(seed=4, **TOY), tmp_path / "a")
        argv = ["analyze", "--traj", str(tmp_path / "a" / "trajectory.csv"), "--out", str(tmp_path / "b")]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "b").exists()
        assert main(["run", *flags, "--widths", "1,1,1"]) == 2

    def test_analyze_defaults_are_the_configs(self, tmp_path, monkeypatch):
        import vertexwalk.cli as cli

        seen = {}

        def recorded(traj, out, **windows):
            seen.update(windows)
            return {}

        monkeypatch.setattr(cli, "analyze_files", recorded)
        assert main(["analyze", "--traj", "t.csv", "--out", str(tmp_path)]) == 0
        cfg = ExperimentConfig()
        assert seen == {"mean_window": cfg.mean_window, "fit_window": cfg.fit_window,
                        "r2_threshold": cfg.r2_threshold}
        assert main(["analyze", "--traj", "t.csv", "--out", str(tmp_path), "--fit-window", "7"]) == 0
        assert seen["fit_window"] == 7 and seen["mean_window"] == cfg.mean_window

    def test_verify_subcommand(self, capsys):
        code = main(["verify", "--seeds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out


def _check_headers(out: Path, cfg: ExperimentConfig) -> None:
    """Run cfg into out and check every series header; the running-mean
    file and its column are named for the window."""
    run(cfg, out)
    mean = f"step_length_mean{cfg.mean_window}"
    expect = {
        "loss.csv": "iteration,loss",
        "step_length.csv": "iteration,step_length",
        f"{mean}.csv": f"iteration,{mean}",
        "dist_to_final.csv": "iteration,dist_to_final",
        "trajectory.csv": "iteration,loss,step_length,active_count,phase",
    }
    for name, header in expect.items():
        first = (out / name).read_text().splitlines()[0]
        assert first == header
    assert [p.name for p in out.glob("step_length_mean*")] == [f"{mean}.csv"]


def _column(path: Path, idx: int) -> np.ndarray:
    rows = path.read_text().strip().splitlines()[1:]
    return np.array([float(r.split(",")[idx]) for r in rows])
