"""The benchmark's tracer (perfbench/tracing.py) looks up the package
functions it wraps by name, so a move or rename in the package breaks
`perfbench/run.py --trace 1`. This test catches that in tier 1."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves_in_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = []
    for group, targets in tracing.GROUPS.items():
        for home, attr in targets:
            obj = importlib.import_module(f"{tracing.PACKAGE}.{home}")
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{group}: {home}.{attr}")
    assert not missing, missing



# Groups a reference run need not reach: nothing in the package calls
# oracle.tag_index, and only the probe's fallback calls resolve_signature.
UNREACHED = {"oracle.tag_index", "oracle.resolve_signature"}


def test_every_traced_group_records_calls_on_a_reference_run(monkeypatch, tmp_path):
    # A name can resolve and still be called by nothing the walk runs, when
    # a refactor routes the work around it; its metrics then read 0.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    from vertexwalk.experiment import ExperimentConfig, run

    with tracing.Tracer() as tracer:
        run(ExperimentConfig(seed=19), tmp_path)
    silent = {group for group, stats in tracer.stats.items() if not stats.calls}
    assert silent <= UNREACHED, sorted(silent - UNREACHED)
