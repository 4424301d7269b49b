import numpy as np
import pytest

import inputs
import spans
from checks import Checks, reference_dtw
from inputs import DatasetSpec, WorkloadSpec
from tstransfer import dtw, load_ucr_dataset
from workloads import Pipeline, Select, Train

TINY = {
    "select": Select(WorkloadSpec(tuple(
        DatasetSpec(f"s{k}", length, 2, 6, 0) for k, length in enumerate((12, 16, 20))))),
    "train": Train(WorkloadSpec((DatasetSpec("t", 16, 3, 12, 8),), epochs=2)),
    "pipeline": Pipeline(WorkloadSpec((
        DatasetSpec("pa", 12, 2, 4, 4),
        DatasetSpec("pb", 16, 3, 6, 6),
        DatasetSpec("pc", 20, 2, 4, 4)), epochs=1)),
}


def same(name, a, b):
    if name == "select":
        return np.array_equal(a[0].values, b[0].values)
    if name == "train":
        return a == b
    return (np.array_equal(a["sim"].values, b["sim"].values)
            and a["fresh"].cells == b["fresh"].cells and a["report"] == b["report"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_outputs_equal_untraced(name, tmp_path):
    workload = TINY[name]
    prepared = workload.prepare(7, str(tmp_path))
    data = workload.load(prepared)
    (tmp_path / "u").mkdir()
    (tmp_path / "t").mkdir()
    untraced = workload.rep(data, str(tmp_path / "u"))
    recorder = spans.Recorder("t")
    with spans.Installation(recorder):
        root = recorder.open(spans.ROOT_SPAN)
        traced = workload.rep(data, str(tmp_path / "t"))
        recorder.close(root)
    assert same(name, untraced.output, traced.output)
    checks = Checks()
    workload.check(data, prepared, [untraced.output, traced.output], checks, 7)
    if name == "train":  # two epochs on twelve series need not lower the loss
        checks.failures = [f for f in checks.failures if "loss_decreases" not in f]
    assert checks.failures == [] and checks.passed > 0
    m = spans.layer_metrics(recorder.spans)
    if name == "train":
        assert m["dtw.cells"] == 0 and m["fcn.steps"] > 0
    if name == "select":
        assert m["fcn.conv.gflop"] == 0 and m["dtw.cells"] > 0
    if name == "pipeline":
        assert m["harness.cells_computed"] == m["harness.cells_reused"] == 6
        assert m["harness.scratch_unique_ratio"] == 1.0


def test_inputs_depend_only_on_seed(tmp_path):
    spec = inputs.PIPELINE.datasets[0]
    a, b = inputs.generate_arrays(spec, 3), inputs.generate_arrays(spec, 3)
    c = inputs.generate_arrays(spec, 4)
    assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(a[0] + a[1], b[0] + b[1]))
    assert not np.array_equal(a[0][0][0], c[0][0][0])
    train, test = inputs.write_ucr_pair(spec, a, str(tmp_path))
    loaded = load_ucr_dataset(train, test, spec.name)
    assert [(s.label, s.series.tolist()) for s in loaded.train] == \
        [(label, values.tolist()) for values, label in a[0]]


def test_reference_dtw_matches_library_bit_for_bit():
    rng = np.random.default_rng(0)
    for n, m in [(1, 1), (1, 6), (6, 1), (9, 13), (30, 21)]:
        a, b = rng.standard_normal(n), rng.standard_normal(m)
        assert reference_dtw(a, b) == dtw.dtw_distance(a, b)


def test_failed_check_is_counted_not_raised():
    checks = Checks()
    checks.expect("ok", True)
    checks.expect("bad", False, "detail")
    checks.run("broken", lambda: 1 / 0)
    assert checks.attempted == 3 and len(checks.failures) == 2
