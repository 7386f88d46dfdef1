"""The benchmark's own checks, on instances small enough to run in seconds.

    python -m pytest perfbench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import run
import tracing
from vertexwalk import experiment, solver

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

TINY = harness.Workload(
    "tiny",
    widths=(2, 3, 2, 1),
    samples=30,
    seeds=(0, 1),
    artifacts=True,
    warmup_cap=12,
)
TINY_CAPPED = replace(TINY, seeds=(3,), cap=15, artifacts=False)


def references(w: harness.Workload) -> dict:
    runs = [(s, w.cap) for s in w.seeds] + [(harness.WARMUP_SEED, w.warmup_cap)]
    refs = {}
    for seed, cap in runs:
        summary = experiment.run(w.config(seed, cap)).summary
        refs[harness.instance_label(seed, cap)] = {
            "iterations": summary["iterations"],
            "final_loss": summary["final_loss"],
        }
    return refs


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK", tmp_path / "work")


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("w", [TINY, TINY_CAPPED], ids=["converged", "capped"])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(w, trace, section, monkeypatch, capsys):
    refs = references(w)
    monkeypatch.setitem(harness.WORKLOADS, "ref-walk", w)
    monkeypatch.setattr(harness, "load_references", lambda: {w.name: refs})
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    argv = ["--workload", "ref-walk", "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0

    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == units(section)
    for name, unit in printed.items():
        assert any(l.startswith(f"ref-walk {name} = ") and l.endswith(f" {unit}") for l in lines)
    assert any(l.startswith("ref-walk raw.wall_s = ") and l.endswith(" s") for l in lines)
    if trace == 0:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("w", [TINY, TINY_CAPPED], ids=["converged", "capped"])
def test_wrong_reference_loss_fails_instances(w):
    refs = references(w)
    for label in refs:
        refs[label]["final_loss"] *= 1.0 + 1e-7
    result = harness.run_workload(w, 0, 0.0, False, refs=refs, log=lambda msg: None)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_loss_within_tolerance_passes():
    refs = references(TINY_CAPPED)
    for label in refs:
        refs[label]["final_loss"] *= 1.0 + 1e-10
    result = harness.run_workload(TINY_CAPPED, 0, 0.0, False, refs=refs, log=lambda msg: None)
    assert result["correct"]


def attribute_snapshot() -> dict:
    """Every attribute of the traced modules and of the classes they define."""
    snap = {}
    for mname, mod in tracing.package_modules().items():
        for name, obj in vars(mod).items():
            snap[(mname, name)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for cname, cobj in vars(obj).items():
                    snap[(mname, f"{name}.{cname}")] = cobj
    return snap


def test_traced_run_restores_every_wrapped_attribute():
    before = attribute_snapshot()
    tracer = tracing.Tracer()
    with tracer:
        assert getattr(solver.factorize, "__wrapped__", None) is before[("linalg", "factorize")]
        assert getattr(solver.orc.forward_values, "__wrapped__", None) is not None
        experiment.run(TINY.config(0, None))
    after = attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed
    assert tracer.stats["solver.vertex_step"].calls > 0
    assert tracer.stats["oracle.forward_values"].calls > 0


def test_tracer_restores_after_an_exception():
    before = attribute_snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    after = attribute_snapshot()
    assert all(after[k] is before[k] for k in before)


def test_traced_workload_counts_layers():
    refs = references(TINY)
    result = harness.run_workload(TINY, 0, 0.0, True, refs=refs, log=lambda msg: None)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["solver.vertex_step.calls"] > 0
    assert m["solver.candidates_per_pivot"] >= 2 * TINY.dim - 1e-9
    assert 0.0 < m["solver.candidate.probe_frac"] < 1.0
    assert m["experiment.bytes_written"] > 0
    assert m["experiment.generate_instance.s"] > 0
