"""Seeded experiment driver: instance generation, solver runs, analysis,
and deterministic serialization of series files and summaries.

Instance generation draws every number from one SplitMix64 stream (see
prng.py for the update rule) in a fixed order, so identical (seed, config)
pairs reproduce identical instances bit for bit:

  1. parameters of every frozen layer, in layer order; per layer the
     weight matrix row-major, then the bias vector,
  2. the training samples, per sample the input entries then the targets,
  3. the initial point, row-major (each row of the trained weight matrix
     followed by its bias entry).

When a layer other than the first is trained, the layers below it are
sampled as part of step 1 and folded into the data: the training inputs
are pushed through them, and the instance becomes first-layer training of
the tail network. Solver restart perturbations draw from a child stream
spawned after step 3.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import re
import sys
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import analysis
from .errors import (
    Degenerate,
    IllConditioned,
    InvalidConfig,
    MonotonicityViolation,
    NoExponentialPhase,
    NumericalStall,
    TooShort,
    UnboundedEdge,
)
from .network import Architecture, LayerParams, TrainingSet, relu
from .oracle import OracleInstance, Tolerances, make_oracle
from .prng import SplitMix64
from .solver import MONOTONE_SLACK, SolverLimits, Trajectory, minimize

PAPER_WIDTHS = (4, 5, 4, 3, 2, 1)
_RUN_FILE = re.compile(
    r"(config|summary)\.json|(loss|step_length(_mean[0-9]+)?|dist_to_final|trajectory|points)\.csv"
)
_INT_FIELDS = ("samples", "layer", "max_iterations", "mean_window", "fit_window")
_RANGE_FIELDS = ("theta_range", "data_range", "init_range")
# The walk squares values of the forward pass's size (np.linalg.norm of
# gradients and directions), so a value above this can overflow float64.
_SQUARABLE = math.sqrt(sys.float_info.max)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _check_seed(seed) -> int:
    """The seed as an int, if it is an integer, not a bool, in [0, 2**64);
    otherwise InvalidConfig. Configs and seed lists share this rule."""
    if not _is_int(seed):
        raise InvalidConfig(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise InvalidConfig(f"seed {seed} outside [0, 2**64)")
    return int(seed)


def _forward_bound(widths, layer, samples, theta_range, data_range, init_range) -> float:
    """An interval bound on every forward value and the loss of an instance
    generate_instance could draw, at any point of the start box: inputs and
    targets within |data_range|, frozen parameters within |theta_range|,
    the trained layer's within |init_range|, through the folded layers
    below the trained one, the trained layer and the layers above. Python
    floats overflow to inf, which exceeds any bound."""
    theta, data, init = (max(map(abs, r)) for r in (theta_range, data_range, init_range))
    x = data
    for fan_in in widths[: layer - 1]:
        x = fan_in * theta * x + theta
    z = (widths[layer - 1] * x + 1.0) * init
    largest = z
    for fan_in in widths[layer:-1]:
        z = fan_in * theta * z + theta
        largest = max(largest, z)
    residual = data + z
    return max(largest, residual, samples * widths[-1] * residual)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one reproducible run; defaults follow the
    reference protocol (widths (4,5,4,3,2,1), 500 samples, parameters on
    [-1,1], data on [-3,3], start on [-20,20])."""

    seed: int = 0
    widths: tuple[int, ...] = PAPER_WIDTHS
    samples: int = 500
    theta_range: tuple[float, float] = (-1.0, 1.0)
    data_range: tuple[float, float] = (-3.0, 3.0)
    init_range: tuple[float, float] = (-20.0, 20.0)
    layer: int = 1
    max_iterations: int = SolverLimits.max_iterations
    act_tol: float = Tolerances.act
    desc_tol: float = SolverLimits.desc_tol
    mean_window: int = analysis.MEAN_WINDOW
    fit_window: int = analysis.FIT_WINDOW
    r2_threshold: float = analysis.R2_THRESHOLD

    def __post_init__(self):
        # Checked before the conversions below, which would cut 5.9 to 5.
        self.validate()
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        for name in _RANGE_FIELDS:
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))

    def validate(self) -> None:
        _check_seed(self.seed)
        for name in _INT_FIELDS:
            v = getattr(self, name)
            if not _is_int(v):
                raise InvalidConfig(f"{name} must be an integer, got {v!r}")
        w = self.widths
        if not (isinstance(w, (tuple, list)) and len(w) >= 3
                and all(_is_int(v) and v >= 1 for v in w)):
            raise InvalidConfig(f"widths must be at least 3 positive integers, got {w!r}")
        if not (1 <= self.layer <= len(w) - 2):
            raise InvalidConfig(f"layer {self.layer} not a hidden-layer index")
        if self.samples < 1:
            raise InvalidConfig("need at least one sample")
        for name in _RANGE_FIELDS:
            r = getattr(self, name)
            if not (isinstance(r, (tuple, list)) and len(r) == 2
                    and all(map(_is_finite, r)) and r[0] < r[1]):
                raise InvalidConfig(f"{name} must be finite (a, b) with a < b, got {r!r}")
        bound = _forward_bound(w, self.layer, self.samples, self.theta_range,
                               self.data_range, self.init_range)
        if not bound <= _SQUARABLE:
            raise InvalidConfig(
                f"theta_range, data_range and init_range let the forward pass reach "
                f"{bound:.3g}, and its squares would overflow float64 above {_SQUARABLE:.3g}"
            )
        if self.max_iterations < 1 or self.mean_window < 1 or self.fit_window < 3:
            raise InvalidConfig("bad iteration or window settings")
        for name in ("act_tol", "desc_tol"):
            v = getattr(self, name)
            if not (_is_finite(v) and v > 0):
                raise InvalidConfig(f"{name} must be finite and positive, got {v!r}")
        if not (_is_finite(self.r2_threshold) and 0.0 < self.r2_threshold <= 1.0):
            raise InvalidConfig("r2_threshold must lie in (0, 1]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise InvalidConfig(f"config is not valid JSON: {e}") from None
        if not isinstance(obj, dict):
            raise InvalidConfig(f"config must be a JSON object, got {type(obj).__name__}")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidConfig(f"unknown config keys {unknown}")
        return cls(**obj)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise InvalidConfig(f"cannot read config file: {e}") from None
        return cls.from_json(text)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def solver_limits(self) -> SolverLimits:
        return SolverLimits(
            max_iterations=self.max_iterations,
            desc_tol=self.desc_tol,
        )


@dataclass
class RunArtifacts:
    """Where one run wrote its files and what it concluded."""

    fingerprint: str
    out_dir: Path | None
    summary: dict
    status: str
    trajectory: Trajectory | None = field(default=None, repr=False)


def _sample_layer(rng: SplitMix64, n_out: int, n_in: int, rng_range) -> LayerParams:
    w = rng.uniform_block(n_out * n_in, *rng_range).reshape(n_out, n_in)
    b = rng.uniform_block(n_out, *rng_range)
    return LayerParams(w, b)


def generate_instance(
    config: ExperimentConfig,
) -> tuple[OracleInstance, np.ndarray, SplitMix64]:
    """Deterministic (oracle, initial point, solver rng) for a config."""
    config.validate()
    rng = SplitMix64(config.seed)
    widths = config.widths
    depth = len(widths) - 2

    layers: dict[int, LayerParams] = {}
    for l in range(1, depth + 2):
        if l == config.layer:
            continue
        layers[l] = _sample_layer(rng, widths[l], widths[l - 1], config.theta_range)

    n = config.samples
    flat = rng.uniform_block(n * (widths[0] + widths[-1]), *config.data_range)
    per = flat.reshape(n, widths[0] + widths[-1])
    inputs = per[:, : widths[0]].copy()
    targets = per[:, widths[0] :].copy()

    k = config.layer
    dim = widths[k] * (widths[k - 1] + 1)
    p0 = rng.uniform_block(dim, *config.init_range)

    # Fold frozen layers below the trained one into the predictors.
    x = inputs
    for l in range(1, k):
        layer = layers[l]
        x = relu(x @ layer.weight.T + layer.bias)
    arch = Architecture(widths[k - 1 :])
    fixed = tuple(layers[l] for l in range(k + 1, depth + 2))
    oracle = make_oracle(
        arch, fixed, TrainingSet(x, targets), Tolerances(act=config.act_tol)
    )
    return oracle, p0, rng.spawn()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


# Rows a series file converts and writes at a time, which bounds the memory
# a long series takes to write.
_CSV_ROWS = 256


def _write_csv(path: Path, header: str, *columns) -> None:
    """The columns (1-D arrays or sequences of one length) side by side,
    one row per entry. Each column becomes Python scalars (.tolist()), so
    a float is written as the repr of a Python float, its shortest
    round-trip form, and an integer as an integer, numpy scalars included."""
    columns = [np.asarray(c) for c in columns]
    with path.open("w") as f:
        f.write(header + "\n")
        for start in range(0, len(columns[0]), _CSV_ROWS):
            rows = zip(*(c[start : start + _CSV_ROWS].tolist() for c in columns))
            f.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _run_dir(out: Path, keep=()) -> None:
    """Make the directory out, or remove from it the files an earlier run
    wrote there (_RUN_FILE, with step_length_mean<W>.csv for any window W)
    other than the names in keep, and no other file, so that it never mixes
    two runs."""
    out.mkdir(parents=True, exist_ok=True)
    for path in out.iterdir():
        if _RUN_FILE.fullmatch(path.name) and path.name not in keep:
            path.unlink()


def _write_series(
    out: Path, traj: Trajectory, mean_window: int, with_points: bool = True
) -> None:
    t = np.arange(len(traj))
    _write_csv(out / "loss.csv", "iteration,loss", t, traj.losses)
    steps = traj.step_lengths[1:]
    _write_csv(out / "step_length.csv", "iteration,step_length", t[1:], steps)
    mean = analysis.running_mean(steps, mean_window)
    name = f"step_length_mean{mean_window}"
    _write_csv(out / f"{name}.csv", f"iteration,{name}", t[1:], mean)
    if with_points:
        dist = analysis.distance_to_final(traj).raw
        _write_csv(out / "dist_to_final.csv", "iteration,dist_to_final", t, dist)
    phase = np.where(t < traj.phase1_len, 1, 2)
    _write_csv(
        out / "trajectory.csv",
        "iteration,loss,step_length,active_count,phase",
        t, traj.losses, traj.step_lengths, traj.active_counts, phase,
    )
    if with_points:
        dcols = ",".join(f"p{j}" for j in range(traj.points.shape[1]))
        _write_csv(out / "points.csv", "iteration," + dcols, t, *traj.points.T)


def summarize(
    traj: Trajectory, status: str, fit_window: int, r2_threshold: float
) -> dict:
    """Summary of one trajectory: final loss, phase boundaries, and the
    pre-convergence floor estimate made at the exponential-phase midpoint.
    floor_method says which estimate the floor fields hold: "midpoint",
    "tail" (the fallback over the phase-2 tail, converged loss included)
    or None when there is none."""
    losses = traj.losses
    summary = {
        "final_loss": float(losses[-1]),
        "iterations": len(traj) - 1,
        "phase1_len": traj.phase1_len,
        "monotone": bool(np.all(np.diff(losses) <= MONOTONE_SLACK * (1.0 + losses[:-1]))),
        "exp_phase_start": None,
        "exp_phase_end": None,
        "floor_estimate": None,
        "floor_estimate_error": None,
        "floor_method": None,
        "decay_ratio": None,
        "r2": None,
        "status": status,
    }
    est = None
    method = "midpoint"
    try:
        try:
            seg = analysis.segment_phases(traj, fit_window, r2_threshold)
            summary["exp_phase_start"] = seg.exp_start
            summary["exp_phase_end"] = seg.exp_end
            mid = (seg.exp_start + seg.exp_end) // 2
            window = min(mid + 1 - traj.phase1_len, 4 * fit_window)
            if window < 3:
                raise TooShort("under 3 phase-2 losses up to the exponential midpoint")
            est = analysis.estimate_loss_floor(traj.losses[: mid + 1], window=window)
        except (NoExponentialPhase, TooShort):
            method = "tail"
            if len(traj.phase2_losses) >= 3:
                window = min(len(traj.phase2_losses), 2 * fit_window)
                est = analysis.estimate_loss_floor(traj.losses, window=window)
    except IllConditioned:
        # An exactly linear tail leaves no acceptable extrapolation triple;
        # the floor fields stay None instead of failing the run.
        est = None
    if est is not None:
        final = float(traj.losses[-1])
        summary["floor_estimate"] = est.floor
        summary["floor_estimate_error"] = abs(est.floor - final) / max(final, 1e-300)
        summary["floor_method"] = method
        summary["decay_ratio"] = est.ratio
        summary["r2"] = est.r2
    return summary


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> RunArtifacts:
    """Generate the instance, minimize, analyze, and serialize everything:
    config.json, summary.json (with the config's fingerprint) and, unless
    the solver failed (status "degenerate" or "failed"), the series files,
    in place of any an earlier run wrote into out_dir."""
    oracle, p0, solver_rng = generate_instance(config)
    traj = None
    try:
        _, traj = minimize(oracle, p0, config.solver_limits(), solver_rng)
    except (Degenerate, MonotonicityViolation, NumericalStall, UnboundedEdge) as e:
        status = "degenerate" if isinstance(e, Degenerate) else "failed"
        summary = {"status": f"{status}: {e}"}
    else:
        status = traj.reason
        summary = summarize(traj, status, config.fit_window, config.r2_threshold)
    summary["fingerprint"] = config.fingerprint()
    out = Path(out_dir) if out_dir else None
    if out:
        _run_dir(out)
        (out / "config.json").write_text(config.to_json() + "\n")
        if traj is not None:
            _write_series(out, traj, config.mean_window)
        _write_json(out / "summary.json", summary)
    return RunArtifacts(
        fingerprint=config.fingerprint(),
        out_dir=out,
        summary=summary,
        status=status,
        trajectory=traj,
    )


def check_seeds(seeds) -> list[int]:
    """The seed list as ints. An empty list, which would check nothing, one
    that names a seed twice, which would run it twice into one seed_<n>
    directory and count it twice in every rate, or one with a seed that
    breaks ExperimentConfig's seed rule (_check_seed), which would fail
    only at its turn, after the seeds before it ran, raises InvalidConfig."""
    seeds = [_check_seed(s) for s in seeds]
    if not seeds:
        raise InvalidConfig("the seed list is empty")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise InvalidConfig(f"the seed list repeats {repeated}")
    return seeds


def sweep(
    config: ExperimentConfig, seeds, out_dir: str | Path | None = None
) -> dict:
    """Run every seed independently and aggregate the summaries.

    The seed list must pass check_seeds. An exception in one seed is
    recorded in its row as status "error: <Type>: <message>" (with
    out_dir, its traceback replaces the run's files in seed_<n>/, where an
    old traceback.txt never stays) and the sweep goes on.
    """
    seeds = check_seeds(seeds)
    rows = []
    for seed in seeds:
        cfg = replace(config, seed=seed)
        sub = Path(out_dir) / f"seed_{seed}" if out_dir else None
        if sub:
            (sub / "traceback.txt").unlink(missing_ok=True)
        try:
            row = dict(run(cfg, sub).summary)
        except Exception as e:
            # One seed's fault must not take down the others.
            row = {"status": f"error: {type(e).__name__}: {e}"}
            if sub:
                _run_dir(sub)
                (sub / "traceback.txt").write_text(traceback.format_exc())
        row["seed"] = seed
        rows.append(row)

    def rate(flag) -> float:
        return sum(1 for r in rows if flag(r)) / len(rows)

    def quantile(values: list[float], q: float):
        if not values:
            return None
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)

    def floor_errors(method=None) -> dict:
        """Count, median and p90 of the floor errors of every run, or of
        the runs whose floor estimate `method` gave."""
        errors = sorted(
            r["floor_estimate_error"]
            for r in rows
            if r.get("floor_estimate_error") is not None
            and (method is None or r.get("floor_method") == method)
        )
        return {"count": len(errors), "median": quantile(errors, 0.5), "p90": quantile(errors, 0.9)}

    mixed = floor_errors()
    aggregate = {
        "seeds": seeds,
        "runs": rows,
        "monotone_rate": rate(lambda r: bool(r.get("monotone"))),
        "converged_rate": rate(lambda r: r.get("status") == "converged"),
        "exp_phase_rate": rate(lambda r: r.get("exp_phase_start") is not None),
        "floor_error_median": mixed["median"],
        "floor_error_p90": mixed["p90"],
        "floor_error_by_method": {m: floor_errors(m) for m in ("midpoint", "tail")},
    }
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "sweep.json", aggregate)
    return aggregate


def _read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Header and numeric rows of a CSV series file with at least one row,
    every value finite."""
    try:
        lines = Path(path).read_text().strip().splitlines()
    except OSError as e:
        raise InvalidConfig(f"cannot read series file: {e}") from None
    if len(lines) < 2:
        raise InvalidConfig(f"{path}: no data rows")
    header = lines[0].split(",")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise InvalidConfig(f"{path} line {n}: {len(cells)} fields, expected {len(header)}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError:
            raise InvalidConfig(f"{path} line {n}: non-numeric field") from None
        if not np.all(np.isfinite(rows[-1])):
            raise InvalidConfig(f"{path} line {n}: non-finite field")
    return header, np.array(rows)


def _check_iterations(path: str | Path, iterations: np.ndarray) -> None:
    """Raise InvalidConfig unless a series file's iterations run 0..n-1."""
    if not np.array_equal(iterations, np.arange(len(iterations))):
        raise InvalidConfig(f"{path}: iterations are not 0..{len(iterations) - 1}")


def load_trajectory_csv(
    traj_path: str | Path, points_path: str | Path | None = None
) -> Trajectory:
    """Rebuild a Trajectory from trajectory.csv (plus points.csv when
    available; without it the iterate coordinates are zero placeholders and
    distance-to-final cannot be recomputed). A malformed file raises
    InvalidConfig: in both files the iterations must run 0..n-1; the
    trajectory's step lengths and active counts must be non-negative, the
    counts integers, and the phases 1s followed by 2s; the points' header
    must read iteration,p0,...,p{k-1}, with one row per trajectory row."""
    header, data = _read_table(traj_path)
    expect = ["iteration", "loss", "step_length", "active_count", "phase"]
    if header != expect:
        raise InvalidConfig(f"unexpected trajectory header {header}")
    iterations, losses, steps, counts, phase = data.T
    _check_iterations(traj_path, iterations)
    if np.any(steps < 0):
        raise InvalidConfig(f"{traj_path}: negative step length")
    if np.any(counts < 0) or np.any(counts != np.floor(counts)):
        raise InvalidConfig(f"{traj_path}: active counts must be non-negative integers")
    if not (np.all((phase == 1) | (phase == 2)) and np.all(np.diff(phase) >= 0)):
        raise InvalidConfig(f"{traj_path}: phases must be 1s followed by 2s")
    counts = counts.astype(int)
    phase1_len = int(np.sum(phase == 1))
    points = np.zeros((len(losses), 1))
    if points_path and Path(points_path).exists():
        header, table = _read_table(points_path)
        expect = ["iteration"] + [f"p{j}" for j in range(len(header) - 1)]
        if len(header) < 2 or header != expect:
            raise InvalidConfig(f"unexpected points header {header}")
        _check_iterations(points_path, table[:, 0])
        points = table[:, 1:]
        if len(points) != len(losses):
            raise InvalidConfig(f"{points_path}: {len(points)} rows, trajectory has {len(losses)}")
    return Trajectory(
        points=points,
        losses=losses,
        active_counts=counts,
        step_lengths=steps,
        phase1_len=phase1_len,
        reason="loaded",
    )


def analyze_files(
    traj_path: str | Path,
    out_dir: str | Path,
    mean_window: int,
    fit_window: int,
    r2_threshold: float,
) -> dict:
    """Re-analyze a stored trajectory file and rewrite the series files.

    Before writing, every run file (_RUN_FILE) in out_dir that this analysis
    does not write again is removed, so the directory never mixes two runs;
    config.json stays only when out_dir is the trajectory's own directory.
    """
    traj_path = Path(traj_path)
    points_path = traj_path.with_name("points.csv")
    traj = load_trajectory_csv(traj_path, points_path)
    have_points = points_path.exists()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    keep = {"summary.json", "loss.csv", "step_length.csv", "trajectory.csv"}
    keep.add(f"step_length_mean{mean_window}.csv")
    if have_points:
        keep.update(("dist_to_final.csv", "points.csv"))
    if out.samefile(traj_path.parent):
        keep.add("config.json")
    _run_dir(out, keep)
    _write_series(out, traj, mean_window, with_points=have_points)
    summary = summarize(traj, "analyzed", fit_window, r2_threshold)
    _write_json(out / "summary.json", summary)
    return summary
