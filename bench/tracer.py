"""In-memory span tracer for the benchmark's traced runs.

``Tracer`` replaces every public function of the traced ``mixedvit`` modules
with a timing wrapper, under each name a caller looks it up by (for example
``mixedvit.model.matmul`` and ``mixedvit.metrics.train``), so the package
itself stays untouched. Each call records a span ``(id, name, start, end,
parent)``; the parent is the span open on the same thread when the call
started. ``tensor.backward`` also wraps each recorded tape node's
``backward_fn`` before the reverse sweep, so the backward time of each op is
a span named ``tensor.<op>.backward``. Cyclic-GC pauses are spans named
``python.gc``. A tracer may be entered and left many times; spans stay in
memory until ``per_layer``, ``profile`` and ``span_records`` are asked for
at the end of a run.
"""

from __future__ import annotations

import functools
import gc
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from bisect import bisect_right
from collections import Counter, defaultdict

TRACED_MODULES = ("tensor", "model", "train", "data", "metrics", "cli")

# The ops whose forward and backward time per train step is reported.
PROFILED_OPS = ("matmul", "bmm", "softmax", "dropout", "mul", "layer_norm",
                "gelu")

# Spans whose median duration per call is reported as ``<name>_ms``.
PER_CALL = ("model.tubelet_embed", "model.forward_batch.train",
            "model.forward_batch.eval", "model.mlp_branch_forward",
            "model.fuse_classify", "train.batch_loss", "train.adam_update",
            "train.evaluate", "train.predict", "data.generate_subject",
            "data.save_volume", "data.load_volume", "data.select_instance",
            "data.scale_volume", "data.crop_roi", "data.build_samples",
            "data.build_batches", "metrics.evaluate_fold",
            "cli.write_run_manifest")

# Byte counters, each reported per workload operation.
BYTE_COUNTERS = ("data.bytes_written", "data.bytes_read", "cli.bytes_hashed")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [("tensor.backward_ms", "ms"), ("tensor.tape_nodes", "count")]
    + [(f"tensor.op.{op}.{kind}", unit) for op in PROFILED_OPS
       for kind, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"),
                          ("nodes", "count"))]
    + [("python.gc_collections", "1/s"), ("python.gc_ms", "ms/s"),
       ("model.attention_block_ms", "ms"),
       ("train.step_ms.p50", "ms"), ("train.step_ms.p90", "ms"),
       ("metrics.fold_ms", "ms")]
    + [(f"{name}_ms", "ms") for name in PER_CALL]
    + [(name, "B/op") for name in BYTE_COUNTERS]
    + [("bench.trace_overhead_pct", "%")]
)


# Functions whose path argument (index 1 or 0) is a file written or read.
_WRITES = ("data.save_volume", "data.save_manifest", "data.save_instances")
_READS = ("data.load_volume", "data.load_manifest", "data.load_instances")


def _forward_variant(args, kwargs) -> str:
    """``train`` or ``eval`` from forward_batch's ``training`` (5th arg)."""
    training = kwargs["training"] if "training" in kwargs else (
        len(args) > 4 and args[4])
    return "train" if training else "eval"


class Tracer:
    """Context manager that traces calls into ``mixedvit`` while active."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self.counters: Counter = Counter()
        self.step_nodes: list[Counter] = []  # tape node count per op, per step
        self._ids = itertools.count()  # next() is atomic: safe inside GC
        self._local = threading.local()
        self._patched: list[tuple] = []  # (module, attribute, original)
        self._gc_open = None
        self.active_s = 0.0  # time spent inside ``with tracer:`` blocks
        self._entered = 0.0

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, end, parent) -> None:
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent))

    def _timed(self, name, fn, variant=None, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if variant is None else f"{name}.{variant(args, kwargs)}"
            if before is not None:
                before(args, kwargs)
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, label, start, time.perf_counter(), parent)
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            stack = self._stack()
            self._gc_open = (time.perf_counter(), stack[-1] if stack else None)
        elif self._gc_open is not None:
            start, parent = self._gc_open
            self._gc_open = None
            self.spans.append((next(self._ids), "python.gc", start,
                               time.perf_counter(), parent))

    # -- layer-specific hooks --------------------------------------------

    def _before_backward(self, args, kwargs) -> None:
        """Wrap each tape node's backward_fn and count the nodes per op."""
        root = args[0] if args else kwargs["root"]
        self.step_nodes.append(Counter(node.op for node in root.tape.nodes))
        for node in root.tape.nodes:
            if node.op != "leaf":
                node.backward_fn = self._timed(f"tensor.{node.op}.backward",
                                               node.backward_fn)

    def _count_bytes(self, counter, arg_index, arg_name, measure):
        def after(args, kwargs):
            value = args[arg_index] if len(args) > arg_index else kwargs[arg_name]
            self.counters[counter] += measure(value)
        return after

    def _hooks(self, name) -> dict:
        if name == "tensor.backward":
            return {"before": self._before_backward}
        if name == "model.forward_batch":
            return {"variant": _forward_variant}
        if name in _WRITES:
            return {"after": self._count_bytes("data.bytes_written", 1, "path",
                                               os.path.getsize)}
        if name in _READS:
            return {"after": self._count_bytes("data.bytes_read", 0, "path",
                                               os.path.getsize)}
        if name == "cli.write_run_manifest":
            return {"after": self._count_bytes(
                "cli.bytes_hashed", 5, "outputs",
                lambda paths: sum(os.path.getsize(p) for p in paths))}
        return {}

    # -- install / remove ------------------------------------------------

    def __enter__(self) -> "Tracer":
        prefix = self.package.__name__ + "."
        modules = [m for key, m in sorted(sys.modules.items())
                   if key.startswith(prefix) and m is not None]
        wrappers = {}  # id(original) -> wrapper
        for short in TRACED_MODULES:
            mod = sys.modules[prefix + short]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._timed(name, obj,
                                                    **self._hooks(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)
        self._entered = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.active_s += time.perf_counter() - self._entered
        gc.callbacks.remove(self._on_gc)
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- reports ---------------------------------------------------------

    def _self_times(self) -> dict:
        child_time: dict = defaultdict(float)
        for _sid, _name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return child_time

    def profile(self) -> list[dict]:
        """Calls, total and self milliseconds per span name, by self time."""
        child_time = self._self_times()
        rows: dict = {}
        for sid, name, start, end, _parent in self.spans:
            row = rows.setdefault(name, {"name": name, "calls": 0,
                                         "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_time[sid]) * 1e3
        return sorted(rows.values(), key=lambda r: -r["self_ms"])

    def _steps(self) -> list[tuple]:
        """(start, end) of each train step: training forward to Adam update."""
        forwards = sorted(s[2] for s in self.spans
                          if s[1] == "model.forward_batch.train")
        updates = sorted(s[3] for s in self.spans
                         if s[1] == "train.adam_update")
        steps = []
        for start in forwards:
            i = bisect_right(updates, start)
            if i < len(updates):
                steps.append((start, updates[i]))
        return steps

    def per_layer(self, ops: int, overhead_pct: float) -> dict:
        """Every per-layer metric as name -> value (0 where a layer is idle)."""
        values = {name: 0.0 for name, _unit in PER_LAYER}
        child_time = self._self_times()
        durations: dict = defaultdict(list)
        self_ms: dict = defaultdict(list)
        for sid, name, start, end, _parent in self.spans:
            durations[name].append((end - start) * 1e3)
            self_ms[name].append((end - start - child_time[sid]) * 1e3)

        def median(xs):
            return statistics.median(xs) if xs else 0.0

        steps = self._steps()
        starts = [s for s, _e in steps]
        per_step = [Counter() for _ in steps]
        for _sid, name, start, end, _parent in self.spans:
            i = bisect_right(starts, start) - 1
            if i >= 0 and start < steps[i][1]:
                per_step[i][name] += (end - start) * 1e3
        step_ms = [(e - s) * 1e3 for s, e in steps]
        values["train.step_ms.p50"] = median(step_ms)
        values["train.step_ms.p90"] = (statistics.quantiles(step_ms, n=10)[-1]
                                       if len(step_ms) > 1 else median(step_ms))
        for op in PROFILED_OPS:
            values[f"tensor.op.{op}.fwd_ms"] = median(
                [c[f"tensor.{op}"] for c in per_step])
            values[f"tensor.op.{op}.bwd_ms"] = median(
                [c[f"tensor.{op}.backward"] for c in per_step])
            values[f"tensor.op.{op}.nodes"] = median(
                [c[op] for c in self.step_nodes])
        values["tensor.tape_nodes"] = median(
            [sum(c.values()) for c in self.step_nodes])
        values["tensor.backward_ms"] = median(durations["tensor.backward"])

        # Collections inside calls into the package; the harness's own
        # collection between cycles has no parent span.
        gc_ms = [(end - start) * 1e3 for _sid, name, start, end, parent
                 in self.spans if name == "python.gc" and parent is not None]
        values["python.gc_collections"] = len(gc_ms) / self.active_s
        values["python.gc_ms"] = sum(gc_ms) / self.active_s
        values["model.attention_block_ms"] = median(
            self_ms["model.attention_block"])
        for name in PER_CALL:
            values[f"{name}_ms"] = median(durations[name])
        for name in BYTE_COUNTERS:
            values[name] = self.counters[name] / max(ops, 1)

        folds = sorted(s[2] for s in self.spans
                       if s[1] == "metrics.evaluate_fold")
        fold_ms = []
        for _sid, name, start, end, _parent in self.spans:
            if name == "metrics.cv_run":
                n = bisect_right(folds, end) - bisect_right(folds, start)
                if n:
                    fold_ms.append((end - start) * 1e3 / n)
        values["metrics.fold_ms"] = median(fold_ms)
        values["bench.trace_overhead_pct"] = overhead_pct
        return values

    def span_records(self) -> list:
        """Spans as [id, name, start_s, end_s, parent] lists, in id order."""
        return [list(s) for s in sorted(self.spans)]
