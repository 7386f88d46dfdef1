"""Command-line driver: run / sweep / analyze / verify."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import bruteforce
from .analysis import FIT_WINDOW, MEAN_WINDOW
from .errors import Degenerate, InvalidConfig
from .experiment import (
    ExperimentConfig,
    analyze_files,
    check_seeds,
    generate_instance,
    run,
    sweep,
)
from .solver import minimize

_OK_STATUSES = ("converged", "max_iterations")


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidConfig(f"expected comma-separated integers, got {text!r}") from None


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, help="JSON file with config fields")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--widths", type=str, help="comma-separated layer widths")
    p.add_argument("--samples", type=int, help="number of training samples")
    p.add_argument("--max-iter", type=int, dest="max_iterations", help="iteration cap")
    p.add_argument("--layer", type=int, help="1-based index of the trained layer")
    _add_window_flags(p)


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mean-window", type=int, dest="mean_window", default=None,
                   help=f"running-mean window (default {MEAN_WINDOW})")
    p.add_argument("--fit-window", type=int, dest="fit_window", default=None,
                   help=f"phase-fit window (default {FIT_WINDOW})")


# Config fields set by the flag whose dest has the same name.
_FLAG_FIELDS = ("seed", "samples", "max_iterations", "layer", "mean_window", "fit_window")


def _build_config(args) -> ExperimentConfig:
    """The --config file's config (or the defaults) with the flags given
    applied; a subcommand without some of the flags leaves their fields."""
    path = getattr(args, "config", None)
    cfg = ExperimentConfig.from_file(path) if path else ExperimentConfig()
    updates = {k: getattr(args, k) for k in _FLAG_FIELDS if getattr(args, k, None) is not None}
    if getattr(args, "widths", None) is not None:
        updates["widths"] = tuple(_int_list(args.widths))
    return replace(cfg, **updates) if updates else cfg


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    art = run(cfg, args.out)
    print(json.dumps(art.summary, sort_keys=True, indent=1))
    return 0 if art.status in _OK_STATUSES else 1


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    agg = sweep(cfg, _int_list(args.seeds), args.out)
    view = {k: v for k, v in agg.items() if k != "runs"}
    print(json.dumps(view, sort_keys=True, indent=1))
    ok = all(r["status"] in _OK_STATUSES for r in agg["runs"])
    return 0 if ok else 1


def _cmd_analyze(args) -> int:
    # The windows are checked, and default, as in a run's config.
    cfg = _build_config(args)
    summary = analyze_files(
        args.traj,
        args.out,
        mean_window=cfg.mean_window,
        fit_window=cfg.fit_window,
        r2_threshold=cfg.r2_threshold,
    )
    print(json.dumps(summary, sort_keys=True, indent=1))
    return 0


def _cmd_verify(args) -> int:
    """Cross-check solver runs against the brute-force arrangement on
    2-parameter toys (bruteforce.check_walk_2d); prints one line per run."""
    seeds = check_seeds(_int_list(args.seeds))
    failures = 0
    for seed in seeds:
        for n in (3, 5):
            cfg = ExperimentConfig(
                seed=seed, widths=(1, 1, 1), samples=n, max_iterations=2000
            )
            label = f"seed={seed} N={n}"
            try:
                oracle, p0, solver_rng = generate_instance(cfg)
                _, traj = minimize(oracle, p0, cfg.solver_limits(), solver_rng)
            except Degenerate as e:
                print(f"SKIP  {label}: degenerate run ({e})")
                continue
            phase2 = traj.points[traj.phase1_len :]
            walk, failure = bruteforce.check_walk_2d(oracle, p0, phase2)
            failures += failure is not None
            state = "PASS" if failure is None else "FAIL"
            print(
                f"{state}  {label}: {len(phase2)} walk vertices vs "
                f"{len(walk.vertices)} brute-force vertices"
                + (f" ({failure})" if failure else "")
            )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vertexwalk",
        description="Vertex-walking minimization of the first-layer L1 loss "
        "of a ReLU network, with trajectory analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single seeded run")
    _add_config_flags(p_run)
    p_run.add_argument("--out", type=str, default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="independent runs over a seed list")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--seeds", type=str, required=True, help="e.g. 0,1,2")
    p_sweep.add_argument("--out", type=str, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_an = sub.add_parser("analyze", help="re-analyze a stored trajectory CSV")
    p_an.add_argument("--traj", type=str, required=True, help="trajectory.csv path")
    p_an.add_argument("--out", type=str, required=True)
    _add_window_flags(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_ver = sub.add_parser(
        "verify", help="brute-force cross-checks on 2-parameter toy instances"
    )
    p_ver.add_argument("--seeds", type=str, default="0,1,2")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
