"""The three benchmark workloads: select, train and pipeline.

Each workload is driven only through public calls into `core`,
`similarity`, `fcn` and `harness`, looked up on the module at call time so
that the traced run's wrappers see them. A repetition returns its phase
timings, its outputs and how many library operations it attempted and
failed; checks run afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from tstransfer import core, fcn, harness, similarity

import inputs
from checks import Checks, reference_dtw


@dataclass
class Outcome:
    phases: dict[str, float]
    output: object
    ops: int
    failed_ops: int = 0


@contextlib.contextmanager
def captured_returns(module, attr):
    """Collect the return values of module.attr while the block runs.

    Used to keep the class prototypes `similarity_matrix` computes for the
    DTW reference check; the wrapper adds one Python call per dataset.
    """
    original = getattr(module, attr)
    returns = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        returns.append(result)
        return result

    setattr(module, attr, wrapper)
    try:
        yield returns
    finally:
        setattr(module, attr, original)


def check_similarity(checks: Checks, sim, datasets, prototypes, pairs) -> None:
    """SimilarityMatrix invariants plus a plain-DTW reference on `pairs`."""
    names = tuple(d.name for d in datasets)
    v = np.asarray(sim.values)
    n = len(names)
    checks.expect("similarity.names", sim.names == names, f"{sim.names} != {names}")
    checks.expect("similarity.shape", v.shape == (n, n), str(v.shape))
    checks.expect("similarity.finite_nonnegative",
                  bool(np.isfinite(v).all() and (v >= 0).all()))
    checks.expect("similarity.zero_diagonal", bool((np.diag(v) == 0).all()))
    checks.expect("similarity.symmetric", bool(np.array_equal(v, v.T)))
    off = v[~np.eye(n, dtype=bool)]
    checks.expect("similarity.positive_off_diagonal", bool((off > 0).all()))
    by_name = {p.dataset_name: p for p in prototypes}
    for i, j in pairs:
        a, b = by_name[names[i]].prototypes, by_name[names[j]].prototypes
        expected = min(reference_dtw(pa, pb) for pa in a.values() for pb in b.values())
        checks.expect(f"similarity.reference_dtw[{names[i]},{names[j]}]",
                      expected == v[i, j], f"{v[i, j]!r} != reference {expected!r}")


def check_accuracy(checks: Checks, name: str, value) -> None:
    checks.expect(name, 0.0 <= value <= 1.0, f"{value!r} outside [0, 1]")


def check_repeatable(checks: Checks, outputs, same) -> None:
    """Every repetition on the same inputs gives the same output."""
    checks.expect("deterministic_across_reps",
                  all(same(outputs[0], o) for o in outputs[1:]))


class Select:
    """Runnable by hand but not listed in BENCHMARK.json: on a shared 2-vCPU
    host its all-Python repetitions ran in two speed states about 25% apart
    for tens of seconds at a time, so its total_s spread between 10-run sets
    reached the largest bound allowed. `pipeline` measures the same DTW and
    DBA layers."""

    name = "select"
    why = ("similarity_matrix over 6 short datasets with 12 members per class: "
           "DTW and DBA do nearly all the work, the FCN none")
    phases = ("similarity_s",)
    reference_pairs = 4

    def __init__(self, spec=inputs.SELECT):
        self.spec = spec

    def prepare(self, seed, workdir):
        return [(d, inputs.generate_arrays(d, seed)) for d in self.spec.datasets]

    def load(self, prepared):
        return [inputs.to_dataset(d, arrays) for d, arrays in prepared]

    def rep(self, datasets, rep_dir):
        with captured_returns(similarity, "reduce_dataset") as prototypes:
            tic = time.perf_counter()
            sim = similarity.similarity_matrix(datasets)
            seconds = time.perf_counter() - tic
        return Outcome({"similarity_s": seconds}, (sim, list(prototypes)), ops=1)

    def check(self, datasets, prepared, outputs, checks, seed):
        sim, prototypes = outputs[-1]
        pairs = list(itertools.combinations(range(len(datasets)), 2))
        rng = np.random.default_rng(seed)
        sample = sorted(rng.choice(len(pairs), min(self.reference_pairs, len(pairs)),
                                   replace=False))
        check_similarity(checks, sim, datasets, prototypes, [pairs[k] for k in sample])
        check_repeatable(checks, outputs,
                         lambda a, b: np.array_equal(a[0].values, b[0].values))


class Train:
    name = "train"
    why = ("FCN training from scratch at T=128, batch 16, then evaluation of "
           "512 series: many small steps, no DTW")
    phases = ("train_samples_per_s", "eval_samples_per_s")

    def __init__(self, spec=inputs.TRAIN):
        self.spec = spec

    def prepare(self, seed, workdir):
        (d,) = self.spec.datasets
        return d, inputs.generate_arrays(d, seed)

    def load(self, prepared):
        d, arrays = prepared
        return inputs.to_dataset(d, arrays)

    def rep(self, dataset, rep_dir):
        # Model seeds stay fixed; the workload seed varies the data.
        model = fcn.build_model(dataset.class_count, seed=0)
        config = fcn.TrainConfig(epochs=self.spec.epochs, seed=0)
        tic = time.perf_counter()
        trained, history = fcn.train(model, dataset.train, config)
        mid = time.perf_counter()
        accuracy = fcn.evaluate(trained, dataset.test)
        end = time.perf_counter()
        phases = {
            "train_samples_per_s": config.epochs * len(dataset.train) / (mid - tic),
            "eval_samples_per_s": len(dataset.test) / (end - mid),
        }
        output = (list(history.losses), list(history.accuracies),
                  history.best_epoch, accuracy)
        return Outcome(phases, output, ops=2)

    def check(self, dataset, prepared, outputs, checks, seed):
        losses, accuracies, best_epoch, accuracy = outputs[-1]
        checks.expect("train.epochs_recorded", len(losses) == self.spec.epochs,
                      f"{len(losses)} losses")
        checks.expect("train.loss_finite", all(math.isfinite(x) for x in losses),
                      str(losses))
        checks.expect("train.loss_decreases", losses[-1] < losses[0], str(losses))
        checks.expect("train.best_epoch", 1 <= best_epoch <= len(losses), str(best_epoch))
        for k, acc in enumerate(accuracies):
            check_accuracy(checks, f"train.train_accuracy[{k}]", acc)
        check_accuracy(checks, "train.test_accuracy", accuracy)
        check_repeatable(checks, outputs, lambda a, b: a == b)


class Pipeline:
    name = "pipeline"
    why = ("the paper's experiment from UCR files: 3 long-series datasets, "
           "similarity, a fresh and a resumed run_matrix, and the report")
    phases = ("similarity_s", "matrix_s")

    def __init__(self, spec=inputs.PIPELINE):
        self.spec = spec

    def prepare(self, seed, workdir):
        data_dir = os.path.join(workdir, "data")
        os.makedirs(data_dir, exist_ok=True)
        out = []
        for d in self.spec.datasets:
            arrays = inputs.generate_arrays(d, seed)
            out.append((d, arrays, inputs.write_ucr_pair(d, arrays, data_dir)))
        return out

    def load(self, prepared):
        return [core.load_ucr_dataset(train_path, test_path, d.name)
                for d, _, (train_path, test_path) in prepared]

    def rep(self, datasets, rep_dir):
        config = fcn.TrainConfig(epochs=self.spec.epochs)
        cells_dir = os.path.join(rep_dir, "cells")
        with captured_returns(similarity, "reduce_dataset") as prototypes:
            t0 = time.perf_counter()
            sim = similarity.similarity_matrix(datasets)
        t1 = time.perf_counter()
        fresh = harness.run_matrix(datasets, config, out_dir=rep_dir)
        t2 = time.perf_counter()
        resume_start_ns = time.time_ns()
        resumed = harness.run_matrix(datasets, config, out_dir=rep_dir)
        report = harness.write_report(resumed, sim, os.path.join(rep_dir, "report.json"),
                                      os.path.join(rep_dir, "aggregate.csv"))
        rewritten = [f for f in os.listdir(cells_dir)
                     if os.stat(os.path.join(cells_dir, f)).st_mtime_ns > resume_start_ns]
        output = {
            "sim": sim, "prototypes": list(prototypes), "fresh": fresh,
            "resumed": resumed, "report": report, "rewritten": rewritten,
        }
        cells = len(fresh.cells) + len(fresh.failures)
        return Outcome({"similarity_s": t1 - t0, "matrix_s": t2 - t1}, output,
                       ops=1 + cells + 2, failed_ops=len(fresh.failures))

    def check(self, datasets, prepared, outputs, checks, seed):
        for ds, (d, (train, test), _) in zip(datasets, prepared):
            got = [(item.series, item.label) for item in ds.train + ds.test]
            expected = train + test
            checks.expect(f"core.round_trip[{d.name}]", len(got) == len(expected) and all(
                np.array_equal(a, b) and la == lb
                for (a, la), (b, lb) in zip(got, expected)))
        out = outputs[-1]
        n = len(datasets)
        check_similarity(checks, out["sim"], datasets, out["prototypes"],
                         list(itertools.combinations(range(n), 2)))
        fresh, resumed = out["fresh"], out["resumed"]
        checks.expect("matrix.all_cells", len(fresh.cells) == n * (n - 1),
                      f"{len(fresh.cells)} cells")
        checks.expect("matrix.no_failures", not fresh.failures, str(fresh.failures))
        for (s, t), cell in sorted(fresh.cells.items()):
            check_accuracy(checks, f"matrix.baseline_accuracy[{s},{t}]",
                           cell["baseline_accuracy"])
            check_accuracy(checks, f"matrix.transfer_accuracy[{s},{t}]",
                           cell["transfer_accuracy"])
        checks.expect("resume.reuses_every_cell", not out["rewritten"],
                      f"rewritten: {out['rewritten']}")
        checks.expect("resume.bit_equal_records", resumed.cells == fresh.cells)
        checks.expect("resume.no_failures", not resumed.failures)
        totals = out["report"]["totals"]
        checks.expect("report.totals_cover_targets",
                      totals["wins"] + totals["ties"] + totals["losses"] == n, str(totals))
        checks.expect("report.no_failures", out["report"]["failures"] == [])
        check_repeatable(checks, outputs, lambda a, b: (
            np.array_equal(a["sim"].values, b["sim"].values)
            and a["fresh"].cells == b["fresh"].cells))


WORKLOADS = {w.name: w for w in (Select, Train, Pipeline)}
