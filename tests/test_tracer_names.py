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

