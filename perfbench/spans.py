"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the library: each target function is
replaced on every `tstransfer` module attribute bound to it, which is the
name its callers look up (for example `similarity.dtw_distance` and
`dtw.dtw_distance` both, and `dba.dtw_path`). The library source is not
touched. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one traced workload repetition, sharing `trace_id`.

    Calls are assumed to nest on one thread (the library's defaults run
    serially), so the open spans form a stack.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name, fn, args, kwargs, attrs_fn=None, signature=None):
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if attrs_fn is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.attrs.update(attrs_fn(bound.arguments, result))
        return result

    def write_jsonl(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "trace_id": self.trace_id, "id": s.id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


# ---------------------------------------------------------------------------
# Targets: (defining module, attribute, span name, attrs from (args, result))
# ---------------------------------------------------------------------------


def _dtw_cells(a, _):
    return {"cells": len(a["a"]) * len(a["b"])}


def _conv_fwd(a, _):
    batch, in_ch, length = a["x"].shape
    out_ch, _, kernel = a["w"].shape
    # im2col matmul: (B*T, Cin*K) @ (Cin*K, Cout).
    return {"k": kernel, "flop": 2 * batch * length * in_ch * kernel * out_ch}


def _conv_bwd(a, _):
    batch, in_ch, length = a["x_shape"]
    out_ch, _, kernel = a["w"].shape
    # Weight gradient and column gradient: two matmuls of the forward's size.
    return {"k": kernel, "flop": 4 * batch * length * in_ch * kernel * out_ch}


def _train_seed(a, _):
    return {"seed": a["config"].seed}


def _pair(a, _):
    return {"pair": [a["source"].name, a["target"].name]}


def _matrix_cells(_, result):
    return {"cells": len(result.cells) + len(result.failures)}


def _file_bytes(key):
    return lambda a, _: {"bytes": os.path.getsize(a[key])}


def _load_bytes(a, _):
    return {"bytes": os.path.getsize(a["train_path"]) + os.path.getsize(a["test_path"])}


TARGETS = [
    ("core", "load_ucr_dataset", "core.load_ucr_dataset", _load_bytes),
    ("dtw", "dtw_distance", "dtw.dtw_distance", _dtw_cells),
    ("dtw", "dtw_path", "dtw.dtw_path", _dtw_cells),
    ("dtw", "medoid", "dtw.medoid", None),
    ("dba", "dba_iteration", "dba.dba_iteration", None),
    ("dba", "dba_average", "dba.dba_average", None),
    ("similarity", "reduce_dataset", "similarity.reduce_dataset", None),
    ("similarity", "dataset_distance", "similarity.dataset_distance", None),
    ("similarity", "similarity_matrix", "similarity.similarity_matrix", None),
    ("fcn", "conv1d_forward", "fcn.conv1d_forward", _conv_fwd),
    ("fcn", "conv1d_backward", "fcn.conv1d_backward", _conv_bwd),
    ("fcn", "batchnorm_forward_train", "fcn.batchnorm", None),
    ("fcn", "batchnorm_forward_eval", "fcn.batchnorm", None),
    ("fcn", "batchnorm_backward", "fcn.batchnorm", None),
    ("fcn", "adam_step", "fcn.adam_step", None),
    ("fcn", "clone_model", "fcn.clone_model", None),
    ("fcn", "build_model", "fcn.build_model", None),
    ("fcn", "train", "fcn.train", _train_seed),
    ("fcn", "evaluate", "fcn.evaluate", None),
    ("transfer", "swap_head", "transfer.swap_head", None),
    ("transfer", "fine_tune", "transfer.fine_tune", None),
    ("transfer", "save_model", "transfer.save_model", _file_bytes("path")),
    ("transfer", "load_model", "transfer.load_model", None),
    ("harness", "run_pair", "harness.run_pair", _pair),
    ("harness", "run_matrix", "harness.run_matrix", _matrix_cells),
    ("harness", "write_report", "harness.write_report", None),
    ("textfmt", "dump_json_17g", "textfmt.dump_json_17g", _file_bytes("path")),
]


def library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tstransfer" or name.startswith("tstransfer."))]


class Installation:
    """Wrappers in place; `absent` lists targets missing from the library."""

    def __init__(self, recorder: Recorder, targets=TARGETS):
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        modules = library_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, attr, span_name, attrs_fn in targets:
            original = getattr(by_name.get(mod_name), attr, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = _make_wrapper(recorder, span_name, original, attrs_fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _make_wrapper(recorder, name, fn, attrs_fn):
    signature = inspect.signature(fn) if attrs_fn is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, attrs_fn, signature)

    return wrapper


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of the span's interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out


def _ancestors(span: Span, by_id: dict[int, Span]) -> list[Span]:
    out = []
    while span.parent is not None:
        span = by_id[span.parent]
        out.append(span)
    return out


LAYERS = ("core", "dtw", "dba", "similarity", "fcn", "transfer", "harness", "textfmt")
ROOT_SPAN = "bench.rep"
SETUP_SPAN = "bench.setup"


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Layer self times cover the repetition (root span `bench.rep`) only, so
    that they sum to its duration; `core` counts also cover a traced set-up
    (root span `bench.setup`).
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def ancestors(span):
        return _ancestors(span, by_id)
    in_rep = {s.id for s in spans
              if s.name == ROOT_SPAN or any(a.name == ROOT_SPAN for a in ancestors(s))}

    def named(name, k=None):
        return [s for s in spans if s.name == name and (k is None or s.attrs.get("k") == k)]

    def total(name, k=None):
        return sum(s.duration for s in named(name, k))

    def self_of(name):
        return sum(selfs[s.id] for s in named(name))

    def calls(name):
        return len(named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    root = sum(s.duration for s in spans if s.name == ROOT_SPAN)
    m: dict[str, float] = {}
    m["core.load_ucr_dataset.s"] = total("core.load_ucr_dataset")
    m["core.bytes_parsed"] = attr_sum("core.load_ucr_dataset", "bytes")

    for fn in ("dtw_path", "dtw_distance"):
        m[f"dtw.{fn}.s"] = total(f"dtw.{fn}")
        m[f"dtw.{fn}.calls"] = calls(f"dtw.{fn}")
    m["dtw.cells"] = attr_sum("dtw.dtw_path", "cells") + attr_sum("dtw.dtw_distance", "cells")
    dtw_s = m["dtw.dtw_path.s"] + m["dtw.dtw_distance.s"]
    m["dtw.cells_per_s"] = m["dtw.cells"] / dtw_s if dtw_s > 0 else 0.0
    m["dtw.medoid.s"] = total("dtw.medoid")

    # Averaging work of DBA: everything under dba_average that is not DTW.
    m["dba.dba_average.self_s"] = sum(
        selfs[s.id] for s in spans
        if s.name.startswith("dba.")
    )
    m["dba.dba_iteration.calls"] = calls("dba.dba_iteration")

    m["similarity.dataset_distance.s"] = total("similarity.dataset_distance")
    m["similarity.dataset_distance.calls"] = calls("similarity.dataset_distance")
    m["similarity.dataset_distance.share"] = (
        m["similarity.dataset_distance.s"] / root if root > 0 else 0.0)
    m["similarity.reduce_dataset.s"] = total("similarity.reduce_dataset")

    conv_s = 0.0
    for direction in ("forward", "backward"):
        for k in (8, 5, 3):
            value = total(f"fcn.conv1d_{direction}", k)
            m[f"fcn.conv1d_{direction}.k{k}.s"] = value
            conv_s += value
    m["fcn.conv.gflop"] = (attr_sum("fcn.conv1d_forward", "flop")
                           + attr_sum("fcn.conv1d_backward", "flop")) / 1e9
    m["fcn.conv.gflop_per_s"] = m["fcn.conv.gflop"] / conv_s if conv_s > 0 else 0.0
    m["fcn.batchnorm.s"] = total("fcn.batchnorm")
    m["fcn.adam_step.s"] = total("fcn.adam_step")
    m["fcn.adam_step.calls"] = calls("fcn.adam_step")
    m["fcn.steps"] = calls("fcn.adam_step")
    # Head, ReLU, pooling, batch stacking and the loop itself: the part of
    # `train` outside conv, batch-norm, Adam and clone_model.
    m["fcn.step.self_s"] = self_of("fcn.train")
    m["fcn.clone_model.s"] = total("fcn.clone_model")
    m["fcn.evaluate.s"] = total("fcn.evaluate")

    m["transfer.swap_head.s"] = total("transfer.swap_head")
    m["transfer.fine_tune.self_s"] = self_of("transfer.fine_tune")
    m["transfer.save_model.s"] = total("transfer.save_model")
    m["transfer.save_model.bytes"] = attr_sum("transfer.save_model", "bytes")
    m["transfer.load_model.s"] = total("transfer.load_model")

    m["harness.run_pair.calls"] = calls("harness.run_pair")
    computed = reused = 0
    for run in named("harness.run_matrix"):
        pairs = {tuple(s.attrs["pair"]) for s in named("harness.run_pair")
                 if any(a.id == run.id for a in ancestors(s))}
        computed += len(pairs)
        reused += run.attrs.get("cells", 0) - len(pairs)
    m["harness.cells_computed"] = computed
    m["harness.cells_reused"] = reused
    scratch = [s for s in named("fcn.train")
               if any(a.name == "harness.run_matrix" for a in ancestors(s))
               and not any(a.name == "transfer.fine_tune" for a in ancestors(s))]
    m["harness.scratch_trainings"] = len(scratch)
    m["harness.scratch_unique_ratio"] = (
        len({s.attrs.get("seed") for s in scratch}) / len(scratch) if scratch else 0.0)
    m["harness.write_report.s"] = total("harness.write_report")

    m["textfmt.dump_json_17g.calls"] = calls("textfmt.dump_json_17g")
    m["textfmt.dump_json_17g.s"] = total("textfmt.dump_json_17g")
    m["textfmt.dump_json_17g.bytes"] = attr_sum("textfmt.dump_json_17g", "bytes")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer in layer_self and s.id in in_rep:
            layer_self[layer] += selfs[s.id]
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    m["trace.layer_self_s"] = sum(layer_self.values())
    m["trace.unattributed_s"] = sum(selfs[s.id] for s in spans if s.name == ROOT_SPAN)
    m["trace.total_s"] = root
    return m
