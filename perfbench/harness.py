"""Workloads, correctness checks and metrics of the vertex-walk benchmark.

A workload runs a fixed list of instances, a "pass", again and again until
the run's seconds are spent, and reports medians over passes. Only calls
into the package's public entry points are timed: ``experiment.run``, and
``experiment.generate_instance`` in set-up. Every instance is checked
against the references recorded in references.json; a failed check or an
exception counts as a failed instance and never stops the run.

Set-up (``generate_instance`` for every instance of the pass and one capped
warm-up instance) runs SETUP_REPS times before timing starts; ``setup_s``
is the import time plus the median set-up repetition.

Every reported time is scaled to a fixed machine speed by
``calibrate.SpeedSampler``; the raw medians are returned under ``raw``.

With tracing on, passes alternate between untraced and traced, and the
per-layer numbers are averaged over the traced passes.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from vertexwalk import experiment
from vertexwalk.experiment import ExperimentConfig

from calibrate import SpeedSampler
from tracing import Tracer

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
REFERENCES = HERE / "references.json"

LOSS_RTOL = 1e-9
SETUP_REPS = 5
# Seed of the warm-up instance, capped at the workload's ``warmup_cap``; no
# pass runs it.
WARMUP_SEED = 100


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: ``experiment.run`` on every seed in
    ``seeds``, to convergence when ``cap`` is None and up to ``cap``
    iterations otherwise, writing artifacts when ``artifacts`` is set."""

    name: str
    widths: tuple[int, ...] = experiment.PAPER_WIDTHS
    samples: int = 500
    seeds: tuple[int, ...] = ()
    cap: int | None = None
    artifacts: bool = False
    warmup_cap: int = 60

    @property
    def dim(self) -> int:
        return self.widths[1] * (self.widths[0] + 1)

    def config(self, seed: int, cap: int | None) -> ExperimentConfig:
        kw = {"seed": seed, "widths": self.widths, "samples": self.samples}
        if cap is not None:
            kw["max_iterations"] = cap
        return ExperimentConfig(**kw)


# Why each workload exists is in BENCHMARK.json and NOTES.md. A pass takes
# 3 to 10 s on the reference machine, so a 30 s run measures several.
WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance seeds 6, 10 and 19 converge in 862, 921 and 27 iterations;
        # the other seventeen take 5 to 64 s each, a run or more.
        Workload("ref-walk", seeds=(6, 10, 19), artifacts=True),
        Workload("tall-n", samples=8000, seeds=(0, 1), cap=150, warmup_cap=40),
        Workload("wide-d", widths=(4, 20, 4, 3, 2, 1), seeds=(0, 1), cap=200, warmup_cap=120),
    )
}


def instance_label(seed: int, cap: int | None) -> str:
    return str(seed) if cap is None else f"{seed}@{cap}"


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def check_run(art, expect_status: str, dim: int, ref: dict | None) -> list[str]:
    """Problems with one ``experiment.run`` result; empty when correct."""
    s = art.summary
    problems = []
    if art.status != expect_status:
        problems.append(f"status {art.status!r}, expected {expect_status!r}")
    if s.get("monotone") is not True:
        problems.append("loss not monotone")
    if s.get("phase1_len") != dim:
        problems.append(f"phase1_len {s.get('phase1_len')}, expected {dim}")
    if ref is None:
        problems.append("no reference recorded")
        return problems
    if s.get("iterations") != ref["iterations"]:
        problems.append(f"iterations {s.get('iterations')}, expected {ref['iterations']}")
    loss = s.get("final_loss")
    want = ref["final_loss"]
    if loss is None or not abs(loss - want) <= LOSS_RTOL * abs(want):
        problems.append(f"final loss {loss!r}, expected {want!r}")
    return problems


class Tally:
    """Instances attempted and failed, with the first few failure messages."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 20:
                self.log(f"FAIL {label}: {'; '.join(problems)}")


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _attempt(fn, *args):
    """(result, None), or (None, exception) when the call raised."""
    try:
        return fn(*args), None
    except Exception as e:  # one bad instance must not stop the benchmark
        return None, e


def record_instance(w: Workload, seed: int, cap, outcome, refs: dict, tally: Tally) -> int:
    """Check one ``experiment.run`` outcome, (artifacts, exception), and
    record it in ``tally``; returns the iterations it completed."""
    art, err = outcome
    label = instance_label(seed, cap)
    if err is not None:
        tally.record(f"{w.name} {label}", [f"raised {err!r}"])
        return 0
    expect = "converged" if cap is None else "max_iterations"
    tally.record(f"{w.name} {label}", check_run(art, expect, w.dim, refs.get(label)))
    return int(art.summary.get("iterations") or 0)


def setup(w: Workload, order: list[int], refs: dict, tally: Tally, work: Path) -> None:
    """Generate every instance of the pass, then run the checked warm-up."""
    for seed in order:
        experiment.generate_instance(w.config(seed, w.cap))
    out = _fresh(work / "warmup") if w.artifacts else None
    outcome = _attempt(experiment.run, w.config(WARMUP_SEED, w.warmup_cap), out)
    record_instance(w, WARMUP_SEED, w.warmup_cap, outcome, refs, tally)


def one_pass(
    w: Workload, order: list[int], refs: dict, tally: Tally, out: Path, clock: SpeedSampler
) -> tuple[float, float, int]:
    """Run and check every instance once; returns (raw s, scaled s, iterations)."""
    raw = scaled = 0.0
    iters = 0
    for seed in order:
        sub = out / f"seed_{seed}" if w.artifacts else None
        outcome, r, sc = clock.time(_attempt, experiment.run, w.config(seed, w.cap), sub)
        raw, scaled = raw + r, scaled + sc
        iters += record_instance(w, seed, w.cap, outcome, refs, tally)
    return raw, scaled, iters


# --- metrics -------------------------------------------------------------------


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    k = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[k]


def layer_metrics(
    tracer: Tracer, passes: int, speed: float, bytes_per_pass: float, overhead: float
) -> dict:
    """Per-layer metrics, per traced pass, as name -> (value, unit). Times
    are scaled by ``speed``, the traced passes' machine speed."""
    st = tracer.stats

    def per(x: float) -> float:
        return x / passes

    def per_s(x: float) -> float:
        return x * speed / passes

    vs, cand = st["solver.vertex_step"], st["solver.candidate"]
    samples = sorted(1000.0 * speed * s for s in vs.samples)
    m = {
        "solver.vertex_step.calls": (per(vs.calls), "count"),
        "solver.vertex_step.ms_p50": (_percentile(samples, 0.50), "ms"),
        "solver.vertex_step.ms_p99": (_percentile(samples, 0.99), "ms"),
        "solver.candidate.calls": (per(cand.calls), "count"),
        "solver.candidate.self_s": (per_s(cand.self_seconds), "s"),
        "solver.candidate.probe_frac": (cand.probes / cand.calls if cand.calls else 0.0, "fraction"),
        "solver.candidates_per_pivot": (cand.calls / vs.calls if vs.calls else 0.0, "count"),
        "solver.descend_to_vertex.s": (per_s(st["solver.descend_to_vertex"].seconds), "s"),
        "solver.polish.s": (per_s(st["solver.polish"].seconds), "s"),
        "solver.escape.calls": (per(st["solver.escape"].calls), "count"),
        "solver.escape.s": (per_s(st["solver.escape"].seconds), "s"),
        "solver.restarts": (
            per(st["solver.minimize_once"].calls - st["solver.minimize"].calls),
            "count",
        ),
    }
    for group in (
        "oracle.forward_values",
        "oracle.constraint_jvp_flat",
        "oracle.ratio",
        "oracle.resolve_signature",
        "oracle.gradient",
        "oracle.constraint_normal",
        "linalg.factorize",
        "linalg.solve",
        "analysis.estimate_loss_floor",
    ):
        m[f"{group}.calls"] = (per(st[group].calls), "count")
        m[f"{group}.s"] = (per_s(st[group].seconds), "s")
    for group in (
        "oracle.constraint_values_flat",
        "linalg.qr",
        "analysis.segment_phases",
        "experiment.write_series",
        "experiment.summarize",
        "experiment.generate_instance",
    ):
        m[f"{group}.s"] = (per_s(st[group].seconds), "s")
    m["oracle.tag_index.calls"] = (per(st["oracle.tag_index"].calls), "count")
    m["experiment.bytes_written"] = (bytes_per_pass, "B")
    m["trace.overhead_frac"] = (overhead, "fraction")
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    w: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
    refs: dict | None = None,
    log=print,
) -> dict:
    """Set up, measure and check one workload; returns the result object
    whose metrics map name -> {"value", "unit"}."""
    refs = load_references()[w.name] if refs is None else refs
    tally = Tally(log)
    work = _fresh(WORK / f"run-{os.getpid()}")
    try:
        order = list(w.seeds)
        random.Random(seed).shuffle(order)

        tracer = Tracer() if trace else None
        walls, traced_walls, written = [], [], []
        with SpeedSampler() as clock:
            setups = []
            start = time.perf_counter()
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                setup(w, order, refs, tally, work)
                setups.append(time.perf_counter() - t0)
            # One speed for the whole set-up phase: a single set-up is too
            # short for a steady sample. Import ran just before it.
            setup_speed = clock.speed(start, time.perf_counter())
            start = time.perf_counter()
            while True:
                traced = trace and len(walls) > len(traced_walls)
                out = _fresh(work / "pass")
                if traced:
                    with tracer:
                        traced_walls.append(one_pass(w, order, refs, tally, out, clock))
                    written.append(dir_bytes(out))
                else:
                    walls.append(one_pass(w, order, refs, tally, out, clock))
                # Stop when one more pass would overrun by more than half a pass.
                elapsed = time.perf_counter() - start
                last_raw = (traced_walls if traced else walls)[-1][0]
                if elapsed + last_raw / 2 >= seconds and (not trace or traced_walls):
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median(passes, i):
        return statistics.median(p[i] for p in passes)

    raw_setup = import_s + statistics.median(setups)
    raw_wall = median(walls, 0)
    iterations = max(walls[-1][2], 1)
    speeds = [p[1] / p[0] for p in walls + traced_walls] + [setup_speed]
    log(
        f"{w.name}: {len(walls) + len(traced_walls)} passes; machine speed "
        f"{min(speeds):.3f}..{max(speeds):.3f} of nominal"
    )
    if trace:
        overhead = median(traced_walls, 1) / median(walls, 1) - 1.0
        speed = sum(p[1] for p in traced_walls) / sum(p[0] for p in traced_walls)
        metrics = layer_metrics(
            tracer, len(traced_walls), speed, statistics.median(written), overhead
        )
    else:
        wall = median(walls, 1)
        metrics = {
            "setup_s": (raw_setup * setup_speed, "s"),
            "wall_s": (wall, "s"),
            "ms_per_pivot": (1000.0 * wall / iterations, "ms"),
            "ok_frac": (1.0 - tally.failed / tally.attempted, "fraction"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        # Unscaled medians of the untraced passes, to check scaled figures against.
        "raw": {
            "setup_s": (raw_setup, "s"),
            "wall_s": (raw_wall, "s"),
            "ms_per_pivot": (1000.0 * raw_wall / iterations, "ms"),
        },
    }
