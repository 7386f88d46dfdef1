"""Per-layer tracing by wrapping the package's module-level functions.

Each traced group names one or more functions by their home module and
attribute. While a Tracer is installed, every module of the package that
holds one of those function objects under any name gets a wrapper in its
place, so calls made through a module namespace (``orc.forward_values``) and
calls through a name imported into another module (``solver.factorize``)
are both seen. Methods are wrapped on their class. ``uninstall`` puts every
original object back.

A group's time counts only its outermost span: a group call made inside
another call of the same group (``_ratio_from_arrays`` calling
``crossing_candidates``) adds neither a call nor time. Self time is a
span's duration minus the spans of wrapped calls inside it.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

PACKAGE = "vertexwalk"
MODULES = ("solver", "oracle", "linalg", "analysis", "experiment")

# group -> (home module, attribute); "Class.method" wraps a method.
GROUPS: dict[str, tuple[tuple[str, str], ...]] = {
    "solver.vertex_step": (("solver", "vertex_step"),),
    "solver.candidate": (("solver", "_VertexWork.candidate"),),
    "solver.descend_to_vertex": (("solver", "descend_to_vertex"),),
    "solver.polish": (("solver", "_polish"),),
    "solver.escape": (("solver", "_escape_if_degenerate"),),
    "solver.minimize_once": (("solver", "_minimize_once"),),
    "solver.minimize": (("solver", "minimize"),),
    "oracle.forward_values": (("oracle", "forward_values"),),
    "oracle.constraint_jvp_flat": (("oracle", "constraint_jvp_flat"),),
    "oracle.constraint_values_flat": (("oracle", "constraint_values_flat"),),
    "oracle.ratio": (("oracle", "_ratio_from_arrays"), ("oracle", "crossing_candidates")),
    "oracle.resolve_signature": (("oracle", "resolve_signature"),),
    "oracle.gradient": (("oracle", "region_gradient"), ("oracle", "sample_gradient_rows")),
    "oracle.constraint_normal": (("oracle", "constraint_normal"),),
    "oracle.tag_index": (("oracle", "tag_index"),),
    "linalg.factorize": (("linalg", "factorize"),),
    "linalg.solve": (("linalg", "solve"),),
    "linalg.qr": (
        ("linalg", "project_nullspace"),
        ("linalg", "nullspace_basis"),
        ("linalg", "rank_extends"),
    ),
    "analysis.segment_phases": (("analysis", "segment_phases"),),
    "analysis.estimate_loss_floor": (("analysis", "estimate_loss_floor"),),
    "experiment.write_series": (("experiment", "_write_series"),),
    "experiment.summarize": (("experiment", "summarize"),),
    "experiment.generate_instance": (("experiment", "generate_instance"),),
}

# Groups whose every call duration is kept for percentiles.
SAMPLED = ("solver.vertex_step",)


def package_modules() -> dict[str, object]:
    return {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}


@dataclass
class GroupStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    probes: int = 0
    samples: list[float] = field(default_factory=list)


class _Frame:
    __slots__ = ("start", "child")

    def __init__(self, start: float):
        self.start = start
        self.child = 0.0


class Tracer:
    """Use as a context manager; ``stats`` accumulate over every installation."""

    def __init__(self):
        self.stats = {g: GroupStats() for g in GROUPS}
        self._stack: list[_Frame] = []
        self._depth = {g: 0 for g in GROUPS}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn):
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        probe_arg = group == "solver.candidate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = depth[group] == 0
            depth[group] += 1
            frame = _Frame(clock())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                dur = end - frame.start
                if stack:
                    stack[-1].child += dur
                st = self.stats[group]
                st.self_seconds += dur - frame.child
                if outer:
                    st.calls += 1
                    st.seconds += dur
                    if group in SAMPLED:
                        st.samples.append(dur)
                    if probe_arg and kwargs.get("probe", args[3] if len(args) > 3 else False):
                        st.probes += 1

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        try:
            for group, targets in GROUPS.items():
                for home, attr in targets:
                    self._install_one(mods, group, home, attr)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, mods, group: str, home: str, attr: str) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[home], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(group, original))
            return
        original = getattr(mods[home], attr)
        wrapper = self._wrap(group, original)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    self._patched.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

