"""A ratchet on the Python-level calls of a pivot.

At the reference sizes (widths (4,5,4,3,2,1), N = 500) a pivot's cost is
set more by call dispatch than by arithmetic, and a call count is exact
where a time is noisy. This counts cProfile's total_calls per iteration of
minimize on reference seed 6, capped at CAP iterations (phase 1's steps
included), in a fresh interpreter with one BLAS thread. The profiled walk
runs on a fresh instance after a first walk of the same config, which
fills the process-wide caches (oracle._product_plan) as a long run
finds them filled.

The tests check that the count does not depend on PYTHONHASHSEED, so no
set or dict order leaks into the work, and that it stays at or below
CEILING. The count includes numpy's Python-level wrappers, so CEILING is
tied to the environment it was recorded in (Python 3.11.7, numpy 2.4.6,
scipy 1.17.1), as the bit pin of test_capped_walks_bit_identical is tied
to its recording hardware. A change that lowers the count lowers CEILING
with it and records both counts in CHANGES.md.

Run as a script, it prints the count and the functions that take the most
calls per iteration:

    PYTHONPATH=src python tests/test_call_budget.py [top]
"""

import cProfile
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

CAP = 200
# total_calls per iteration at the last recording (51,301 calls in 200
# iterations); the code before that change counted 260.1 by these rules,
# and 288.57 before the change before it.
CEILING = 256.505
TOP = 25


def profile_walk(cap: int = CAP) -> tuple[pstats.Stats, int]:
    """cProfile statistics of a capped reference walk of seed 6, and its
    iterations."""
    from vertexwalk.experiment import ExperimentConfig, generate_instance
    from vertexwalk.solver import minimize

    cfg = ExperimentConfig(seed=6, max_iterations=cap)
    minimize(*generate_instance(cfg)[:2], cfg.solver_limits())
    o, p0, rng = generate_instance(cfg)
    profile = cProfile.Profile()
    profile.enable()
    _, traj = minimize(o, p0, cfg.solver_limits(), rng)
    profile.disable()
    return pstats.Stats(profile), len(traj) - 1


def _count_in_subprocess(hash_seed: str) -> float:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=path,
    )
    proc = subprocess.run(
        [sys.executable, __file__, "--json"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["calls_per_iteration"]


@pytest.fixture(scope="module")
def counts():
    return {seed: _count_in_subprocess(seed) for seed in ("0", "1")}


def test_call_count_does_not_depend_on_the_hash_seed(counts):
    assert counts["0"] == counts["1"], counts


def test_calls_per_iteration_within_the_ceiling(counts):
    # Tied to the recording environment; see the module docstring.
    assert counts["0"] <= CEILING, f"{counts['0']} calls per iteration, ceiling {CEILING}"


def main(argv: list[str]) -> None:
    stats, iterations = profile_walk()
    per_iteration = stats.total_calls / iterations
    if "--json" in argv:
        print(json.dumps({"calls_per_iteration": per_iteration}))
        return
    top = int(argv[0]) if argv else TOP
    print(f"{per_iteration:.3f} calls per iteration over {iterations} iterations "
          f"(ceiling {CEILING})")
    print(f"{'calls/it':>9} {'own us/it':>10}  function")
    rows = sorted(stats.stats.items(), key=lambda item: -item[1][1])[:top]
    for (path, line, name), (_, calls, own, _, _) in rows:
        where = f"{Path(path).name}:{line} " if line else ""
        print(f"{calls / iterations:9.2f} {own / iterations * 1e6:10.2f}  {where}{name}")


if __name__ == "__main__":
    main(sys.argv[1:])
