"""Spans around the public functions of the ``sectint`` layers.

The package imports names by value (``from .weights import
delta_e_generic``), so a wrapper must replace the function in every
``sectint`` module namespace that binds it; ``uninstall`` puts every
original back.  Spans stay in memory until the run ends.  The
``mc_run`` wrapper also wraps the ``sample_fn`` it receives, so each
Monte Carlo chunk gets a span, including chunks run on worker threads.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass

# (module, function, (argument holding the work count, metric name) or None)
TRACED = (
    ("matrices", "qr", None),
    ("matrices", "abs_det_between", None),
    ("groups", "haar_sample_batch", ("count", "draws")),
    ("groups", "haar_sample", None),
    ("actions", "reduce_to_section", None),
    ("actions", "killing_field", None),
    ("weights", "delta_e_generic", None),
    ("weights", "orbit_map_differential", None),
    ("integrate", "section_weight_batch", ("z", "points")),
    ("integrate", "section_coordinate_det", ("pts", "points")),
    ("integrate", "integrate_direct", None),
    ("integrate", "integrate_reduced", None),
    ("integrate", "calibrate_vol_gn", None),
    ("mc", "mc_run", None),
    ("volumes", "group_volume", ("n_samples", "samples")),
    ("volumes", "w_group_volume", None),
    ("ensembles", "sample_ensemble", ("n", "samples")),
    ("ensembles", "compare_densities", None),
    ("checks", "run_action_checks", None),
)
# spans of these functions record which family / action kind they served
DETAIL = {
    "groups.haar_sample_batch": lambda args: args["group"].family.value,
    "integrate.integrate_reduced": lambda args: type(args["action"]).__name__,
}
OP_SPAN = "cli"
CHUNK_SPAN = "mc.chunk"


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    detail: str  # group family, action kind or worker count, where a metric splits on it
    t0: float
    t1: float
    op: int
    count: int


def _count_of(value) -> int:
    return int(value.shape[0]) if hasattr(value, "shape") else int(value)


class Tracer:
    """Installs span wrappers; records spans of the op set in ``op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def span(self, name: str, fn, args, kwargs, detail="", count=0, parent=None, sid=None):
        """Run fn(*args, **kwargs) inside a span; parent defaults to the
        innermost open span of the calling thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = self.new_id() if sid is None else sid
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, detail, t0, t1, self.op, count))

    def _wrap(self, name: str, original, counted):
        sig = inspect.signature(original)
        detail_of = DETAIL.get(name)
        reads_args = counted is not None or detail_of is not None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not reads_args:
                return self.span(name, original, args, kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            detail = detail_of(bound.arguments) if detail_of else ""
            count = _count_of(bound.arguments[counted[0]]) if counted else 0
            return self.span(name, original, args, kwargs, detail, count)

        return wrapper

    def _wrap_mc_run(self, original):
        sig = inspect.signature(original)
        from sectint.mc import default_workers

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            workers = bound.arguments["workers"] or default_workers()
            sample_fn = bound.arguments["sample_fn"]
            sid = self.new_id()  # chunk spans name it as parent, from any thread

            def traced_sample(rng, size):
                return self.span(CHUNK_SPAN, sample_fn, (rng, size), {}, count=size, parent=sid)

            bound.arguments["sample_fn"] = traced_sample
            return self.span("mc.mc_run", original, bound.args, bound.kwargs, f"w{workers}", sid=sid)

        return wrapper

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items()) if key == "sectint" or key.startswith("sectint.")]
        for module_name, func_name, counted in TRACED:
            original = getattr(importlib.import_module(f"sectint.{module_name}"), func_name)
            name = f"{module_name}.{func_name}"
            if name == "mc.mc_run":
                wrapper = self._wrap_mc_run(original)
            else:
                wrapper = self._wrap(name, original, counted)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def run_op(self, op_index: int, fn, *args):
        """Run one CLI op as the root span of op ``op_index``."""
        self.op = op_index
        try:
            return self.span(OP_SPAN, fn, args, {})
        finally:
            self.op = -1

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(Span.__dataclass_fields__)
            for s in self.spans:
                out.writerow((s.sid, "" if s.parent is None else s.parent, s.name, s.detail,
                              repr(s.t0), repr(s.t1), s.op, s.count))


# --- span arithmetic -----------------------------------------------------------

def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover.

    Children can overlap each other (chunks on two worker threads), so
    the covered part is the union of the child intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - union_length(children.get(s.sid, ()), s.t0, s.t1) for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Counts and times per traced layer; layers not reached report 0."""
    selft = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def pick(name, detail=None):
        return [s for s in by_name.get(name, ()) if detail is None or s.detail == detail]

    def total(ss):
        return sum(s.t1 - s.t0 for s in ss)

    out: dict[str, float] = {}
    for module_name, func_name, counted in TRACED:
        name = f"{module_name}.{func_name}"
        ss = pick(name)
        out[f"{name}.calls"] = len(ss)
        out[f"{name}.s"] = total(ss)
        out[f"{name}.self_s"] = sum(selft[s.sid] for s in ss)
        if counted:
            out[f"{name}.{counted[1]}"] = sum(s.count for s in ss)
    for family in ("SO", "SU", "Sp"):
        ss = pick("groups.haar_sample_batch", family)
        out[f"groups.haar_sample_batch.{family}.draws"] = sum(s.count for s in ss)
        out[f"groups.haar_sample_batch.{family}.self_s"] = sum(selft[s.sid] for s in ss)
    out["integrate.integrate_reduced.torus_s"] = total(pick("integrate.integrate_reduced", "ConjugationAction"))
    chunks = pick(CHUNK_SPAN)
    out["mc.chunk.calls"] = len(chunks)
    out["mc.chunk.p50_s"] = statistics.median(s.t1 - s.t0 for s in chunks) if chunks else 0.0
    runs_w2 = {s.sid for s in pick("mc.mc_run", "w2")}
    busy = sum(s.t1 - s.t0 for s in chunks if s.parent in runs_w2)
    wall_w2 = total(pick("mc.mc_run", "w2"))
    out["mc.busy_share.w2"] = busy / (2.0 * wall_w2) if wall_w2 > 0 else 0.0
    out["cli.self_s"] = sum(selft[s.sid] for s in pick(OP_SPAN))
    return out
