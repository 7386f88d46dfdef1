"""Vertex-walk benchmark: runs one workload in this process and prints its
metrics, one per line with its unit, then one JSON object as the last line.

    python3 perfbench/run.py --workload ref-walk --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer split (see NOTES.md).
BLAS is pinned to BLAS_THREADS threads so that every run compares alike.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload in BENCHMARK.json")
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--seconds", type=float, required=True, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    sys.path[:0] = [str(src), str(here)]
    try:
        import vertexwalk
    except ImportError as e:
        print(f"cannot import vertexwalk from {src}: {e}", file=sys.stderr)
        return 2
    if Path(vertexwalk.__file__).resolve().parent.parent != src.resolve():
        print(f"vertexwalk imported from {vertexwalk.__file__}, not {src}", file=sys.stderr)
        return 2
    import environment
    import harness

    import_s = time.perf_counter() - _T0

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    if args.workload not in harness.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    print("env " + json.dumps(environment.record(), sort_keys=True))
    result = harness.run_workload(
        harness.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        import_s=import_s,
        log=log,
    )
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    # The last line's keys are fixed, so the unscaled figures come before it.
    for name, (value, unit) in result.pop("raw").items():
        print(f"{args.workload} raw.{name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
