"""Run the walk corpus and print one JSON line per walk.

The corpus is, first, the quantized degenerate corpus: 8 width sets x N
in {12, 30} x seeds 0-24 (400 walks) of conftest.quantized_instance, each
capped at 400 iterations. Then come 120 walks of the experiment's own
instances, ExperimentConfig(seed, widths, samples=30) for widths
(2,3,2,1), (3,4,3,1) and (4,5,4,3,2,1) and seeds 0-39, under the
config's own iteration cap; their lines carry "instance": "default". Every
walk runs with one BLAS thread and validate=True, so every vertex's
carried arrays (the constraint values, the region masks with the residual
signs, the normal matrix, the per-sample gradient rows and the pricing)
are checked against a recomputation from scratch. Each line holds the
instance (widths, N, seed) and either the walk's status, iteration count,
final loss and the sha256 of its points and losses, or the type of the
error it raised. A failed check raises ValidationFailure, from which
minimize does not restart, so the line of a walk with one holds "error":
"ValidationFailure". Two versions of the solver walk the same paths
exactly when their outputs are identical:

    PYTHONPATH=src python tests/corpus_walks.py > walks.jsonl

The file is not collected by pytest.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from conftest import quantized_instance  # noqa: E402
from vertexwalk.experiment import ExperimentConfig, generate_instance  # noqa: E402
from vertexwalk.solver import SolverLimits, minimize  # noqa: E402

WIDTHS = (
    (2, 3, 2, 1),
    (2, 2, 1),
    (3, 4, 3, 1),
    (2, 4, 1),
    (3, 3, 2, 1),
    (3, 4, 2),
    (1, 2, 1),
    (2, 3, 3, 2),
)
SAMPLES = (12, 30)
SEEDS = range(25)
CAP = 400
DEFAULT_WIDTHS = ((2, 3, 2, 1), (3, 4, 3, 1), (4, 5, 4, 3, 2, 1))
DEFAULT_SAMPLES = 30
DEFAULT_SEEDS = range(40)


def quantized_walk(widths, n_samples, seed) -> dict:
    o, p0, rng = quantized_instance(widths, seed, n_samples)
    line = {"widths": list(widths), "n": n_samples, "seed": seed}
    return walk(o, p0, rng, SolverLimits(max_iterations=CAP, validate=True), line)


def default_walk(widths, seed) -> dict:
    cfg = ExperimentConfig(seed=seed, widths=widths, samples=DEFAULT_SAMPLES)
    o, p0, rng = generate_instance(cfg)
    line = {"instance": "default", "widths": list(widths), "n": DEFAULT_SAMPLES, "seed": seed}
    return walk(o, p0, rng, replace(cfg.solver_limits(), validate=True), line)


def walk(o, p0, rng, limits, line) -> dict:
    """`line` with the outcome of one walk added."""
    try:
        _, traj = minimize(o, p0, limits, rng)
    except Exception as e:  # the record names the error; the corpus goes on
        line["error"] = type(e).__name__
        return line
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(traj.points).tobytes())
    digest.update(np.ascontiguousarray(traj.losses).tobytes())
    line.update(
        status=traj.reason,
        iterations=len(traj) - 1,
        loss=float(traj.losses[-1]),
        sha256=digest.hexdigest(),
    )
    return line


def main() -> None:
    for widths in WIDTHS:
        for n_samples in SAMPLES:
            for seed in SEEDS:
                print(json.dumps(quantized_walk(widths, n_samples, seed), sort_keys=True), flush=True)
    for widths in DEFAULT_WIDTHS:
        for seed in DEFAULT_SEEDS:
            print(json.dumps(default_walk(widths, seed), sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
