import json
import os

import numpy as np
import pytest

import catalog
import spans
from spans import Installation, Recorder, Span, layer_metrics, self_times
from tstransfer import dtw, fcn, similarity
from workloads import WORKLOADS

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_subtracts_child_coverage():
    tree = [
        Span(0, None, "bench.rep", 0.0, 10.0),
        Span(1, 0, "fcn.train", 1.0, 4.0),
        Span(2, 1, "fcn.adam_step", 2.0, 3.0),
        Span(3, 0, "dtw.dtw_path", 5.0, 7.0),
        Span(4, None, "other", 0.0, 6.0),
        Span(5, 4, "a", 1.0, 4.0),
        Span(6, 4, "b", 3.0, 5.0),  # overlaps a: covered once
    ]
    assert self_times(tree) == pytest.approx(
        {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.0, 5: 3.0, 6: 2.0})


def test_layer_self_times_sum_to_the_repetition():
    tree = [
        Span(0, None, "bench.setup", 0.0, 1.0),
        Span(1, 0, "core.load_ucr_dataset", 0.2, 0.8, {"bytes": 100}),
        Span(2, None, "bench.rep", 1.0, 11.0),
        Span(3, 2, "dtw.dtw_distance", 2.0, 4.0, {"cells": 15}),
        Span(4, 2, "fcn.train", 5.0, 10.0, {"seed": 1}),
        Span(5, 4, "fcn.conv1d_forward", 6.0, 8.0, {"k": 8, "flop": 10**9}),
    ]
    m = layer_metrics(tree)
    assert m["trace.total_s"] == 10.0
    assert m["dtw.self_s"] == 2.0 and m["fcn.self_s"] == 5.0
    assert m["core.self_s"] == 0.0  # set-up is outside the repetition
    assert m["core.load_ucr_dataset.s"] == pytest.approx(0.6)
    assert m["core.bytes_parsed"] == 100
    assert m["trace.layer_self_s"] == 7.0 and m["trace.unattributed_s"] == 3.0
    assert m["fcn.step.self_s"] == 3.0
    assert m["fcn.conv.gflop_per_s"] == 0.5


def test_counts_computed_from_shapes():
    recorder = Recorder("t")
    original = dtw.dtw_distance
    with Installation(recorder) as installed:
        assert not installed.absent
        dtw.pairwise_dtw_matrix([np.zeros(3), np.ones(3)])  # looks up dtw.dtw_distance
        similarity.dtw_distance(np.zeros(3), np.ones(5))  # bound separately
        x = np.ones((2, 1, 10))
        w = np.ones((4, 1, 8))
        out, cols = fcn.conv1d_forward(x, w, np.zeros(4))
        fcn.conv1d_backward(out, cols, w, x.shape)
    assert dtw.dtw_distance is original and similarity.dtw_distance is original
    m = layer_metrics(recorder.spans)
    assert m["dtw.dtw_distance.calls"] == 2
    assert m["dtw.cells"] == 3 * 3 + 3 * 5
    flop = 2 * 2 * 10 * 1 * 8 * 4
    assert m["fcn.conv.gflop"] == pytest.approx(3 * flop / 1e9)
    assert m["fcn.conv1d_forward.k8.s"] > 0 and m["fcn.conv1d_backward.k5.s"] == 0


def test_missing_function_is_reported_absent():
    recorder = Recorder("t")
    targets = [("dtw", "renamed_away", "dtw.renamed_away", None),
               ("nomodule", "f", "nomodule.f", None),
               ("dtw", "dtw_path", "dtw.dtw_path", spans._dtw_cells)]
    with Installation(recorder, targets) as installed:
        assert installed.absent == ["dtw.renamed_away", "nomodule.f"]
        dtw.dtw_path(np.zeros(2), np.zeros(2))
    assert [s.name for s in recorder.spans] == ["dtw.dtw_path"]


def test_catalog_matches_benchmark_json_and_metrics():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] \
        == [row[:4] for row in catalog.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [row[:3] for row in catalog.PER_LAYER]
    measured = set(layer_metrics([])) | {"trace.untraced_total_s", "trace.overhead_ratio"}
    assert measured == {row[0] for row in catalog.PER_LAYER}
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in bench["workloads"])
