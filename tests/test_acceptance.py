"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The end-to-end transfer pipeline (criterion 7) runs once in a module-scoped
fixture; the determinism and serialization criteria (8, 9) reuse and re-run
slices of it with the same frozen seeds.
"""

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    dtw_brute_force,
    finite_difference_gradients,
    gradient_relative_errors,
    make_random_dataset,
    make_sine_dataset,
)
from tstransfer import (
    DbaConfig,
    Dataset,
    TrainConfig,
    build_model,
    clone_model,
    dataset_distance,
    dba_iteration,
    dtw_distance,
    evaluate,
    forward,
    load_matrix_results,
    load_model,
    loss_and_gradients,
    medoid,
    rank_sources,
    read_matrix_csv,
    reduce_dataset,
    run_matrix,
    run_pair,
    save_model,
    similarity_matrix,
    swap_head,
    train,
    write_matrix_csv,
    write_report,
    write_variation_csv,
)
from tstransfer.fcn import TRAINABLE
from tstransfer.harness import accuracy_variation
from tstransfer.transfer import fine_tune

TINY_FILTERS = (4, 6, 3)
ACCURACY_THRESHOLD = 0.95
E2E_EPOCHS = 100
E2E_SEEDS = (1, 2, 3, 4, 5)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] {description}: FAIL")
        raise
    print(f"\n[criterion {number}] {description}: PASS")


def model_bytes(model):
    return b"".join(t.tobytes() for _, t in model.items())


def grads_bytes(grads):
    return b"".join(grads[name].tobytes() for name in sorted(grads))


# ---------------------------------------------------------------------------
# Criterion 1: DTW equals exhaustive path enumeration
# ---------------------------------------------------------------------------


def test_criterion_1_dtw_oracle_equivalence():
    with criterion(1, "DTW matches exhaustive path enumeration on 500 pairs"):
        rng = np.random.default_rng(20240001)
        tic = time.perf_counter()
        for _ in range(500):
            a = rng.uniform(-2.0, 2.0, rng.integers(1, 9))
            b = rng.uniform(-2.0, 2.0, rng.integers(1, 9))
            assert dtw_distance(a, b) == dtw_brute_force(a, b)
        elapsed = time.perf_counter() - tic
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 2: gradients match central finite differences
# ---------------------------------------------------------------------------


def _tiny_gradient_case(case: int):
    rng = np.random.default_rng(30000 + case)
    class_count = 2 + case % 2
    model = build_model(class_count, seed=40000 + case, filters=TINY_FILTERS)
    batch = [
        (rng.standard_normal(16), int(rng.integers(0, class_count)))
        for _ in range(4)
    ]
    return model, batch


def test_criterion_2_gradient_check():
    with criterion(2, "gradients match finite differences on 20 tiny models"):
        tic = time.perf_counter()
        worst = 0.0
        total_params = 0
        total_skipped = 0
        for case in range(20):
            model, batch = _tiny_gradient_case(case)
            _, grads = loss_and_gradients(clone_model(model), batch)
            fd, usable, skipped = finite_difference_gradients(
                model, batch, step=1e-4
            )
            errors = gradient_relative_errors(grads, fd, usable)
            worst = max(worst, max(float(e.max()) for e in errors.values()))
            total_params += sum(model[name].size for name in TRAINABLE)
            total_skipped += skipped
        elapsed = time.perf_counter() - tic
        assert worst < 1e-4, f"max relative error {worst:.3e}"
        # probes that straddle a rectifier kink at every step size cannot
        # measure a derivative; they must stay a negligible fraction
        assert total_skipped <= 0.005 * total_params, (
            total_skipped,
            total_params,
        )
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 3: DBA cost is monotone and beats the medoid
# ---------------------------------------------------------------------------


def _random_dba_set(rng):
    return [
        rng.standard_normal(rng.integers(1, 17))
        for _ in range(rng.integers(1, 9))
    ]


def _dba_cost_trace(members, iterations=10):
    proto = np.array(members[medoid(members)])
    costs = [sum(dtw_distance(proto, m) for m in members)]
    for _ in range(iterations):
        proto = dba_iteration(proto, members)
        costs.append(sum(dtw_distance(proto, m) for m in members))
    return proto, costs


def test_criterion_3_dba_monotonicity():
    with criterion(3, "DBA within-set cost non-increasing over 100 random sets"):
        rng = np.random.default_rng(20240003)
        for _ in range(100):
            members = _random_dba_set(rng)
            _, costs = _dba_cost_trace(members)
            for before, after in zip(costs, costs[1:]):
                assert after <= before + 1e-9
            assert costs[-1] <= costs[0] + 1e-9  # final vs medoid


# ---------------------------------------------------------------------------
# Criterion 4: similarity-matrix structure
# ---------------------------------------------------------------------------


def test_criterion_4_similarity_matrix_structure():
    with criterion(4, "similarity matrix symmetric, zero-diagonal, train-only"):
        rng = np.random.default_rng(20240004)
        config = DbaConfig(iterations=3)
        datasets = [
            make_random_dataset(name, rng, n_train=6, n_test=4, length=9)
            for name in ("a", "b", "c", "d")
        ]
        matrix = similarity_matrix(datasets, config)
        assert np.array_equal(matrix.values, matrix.values.T)
        assert np.array_equal(np.diag(matrix.values), np.zeros(4))
        assert np.isfinite(matrix.values).all() and (matrix.values >= 0).all()

        stripped = [
            Dataset(name=d.name, train=d.train, test=(), class_count=d.class_count)
            for d in datasets
        ]
        assert np.array_equal(
            similarity_matrix(stripped, config).values, matrix.values
        )

        reduced = [reduce_dataset(d, config) for d in datasets]
        for i in range(4):
            for j in range(4):
                expected = (
                    0.0 if i == j else dataset_distance(reduced[i], reduced[j])
                )
                assert matrix.values[i, j] == expected


# ---------------------------------------------------------------------------
# Criterion 5: head swap preserves the body bitwise
# ---------------------------------------------------------------------------


def test_criterion_5_head_swap_preservation():
    with criterion(5, "head swap keeps all 18 body tensors bitwise"):
        rng = np.random.default_rng(20240005)
        model = build_model(3, seed=50001)
        for k in (1, 2, 3):  # non-trivial running statistics
            mean, var = f"bn{k}.running_mean", f"bn{k}.running_var"
            model[mean] = rng.standard_normal(model[mean].shape)
            model[var] = rng.uniform(0.5, 2.0, model[var].shape)
        for target_classes in (2, 5, 7):
            swapped = swap_head(model, target_classes, seed=50002)
            before = dict(model.items())
            after = dict(swapped.items())
            body = [n for n in before if not n.startswith("head.")]
            assert len(body) == 18
            for name in body:
                assert after[name].tobytes() == before[name].tobytes()
            assert swapped["head.weight"].shape == (128, target_classes)
            bound = np.sqrt(6.0 / (128 + target_classes))
            assert np.abs(swapped["head.weight"]).max() <= bound
            assert np.array_equal(swapped["head.bias"], np.zeros(target_classes))


# ---------------------------------------------------------------------------
# Criterion 6: accuracy-variation worked examples
# ---------------------------------------------------------------------------


def test_criterion_6_accuracy_variation_reproduction():
    with criterion(6, "accuracy variation reproduces the worked examples"):
        improvement = accuracy_variation(0.746, 0.865)
        assert improvement == 100.0 * (0.865 - 0.746) / 0.746
        assert abs(improvement - 15.951742627345844) < 1e-12
        assert round(improvement) == 16

        degradation = accuracy_variation(0.933, 0.167)
        assert degradation == 100.0 * (0.167 - 0.933) / 0.933
        assert abs(degradation - -82.10075026795284) < 1e-12
        assert round(degradation, 1) == -82.1


# ---------------------------------------------------------------------------
# Criterion 7: end-to-end transfer on synthetic datasets
# ---------------------------------------------------------------------------


def _e2e_datasets():
    return [
        make_sine_dataset("A", (3.0, 7.0), noise=0.6, seed=1001),
        make_sine_dataset("B", (3.2, 7.3), noise=0.6, seed=1002),
        make_sine_dataset("C", (11.0, 16.0), noise=0.6, seed=1003),
    ]


def _e2e_config(seed):
    return TrainConfig(epochs=E2E_EPOCHS, batch_size=16, seed=seed)


def _scratch_and_transfer(target, pretrained, seed):
    """One paired run: scratch on the target vs fine-tune from the source."""
    scratch, scratch_hist = train(
        build_model(target.class_count, seed=seed * 100),
        target.train,
        _e2e_config(seed * 100 + 1),
    )
    tuned, tuned_hist = fine_tune(
        pretrained, target, _e2e_config(seed * 100 + 2), seed=seed * 100 + 3
    )
    return scratch, scratch_hist, tuned, tuned_hist


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    tic = time.perf_counter()
    datasets = _e2e_datasets()
    by_name = {d.name: d for d in datasets}

    sim = similarity_matrix(datasets, DbaConfig(iterations=10))
    target = by_name["A"]
    ranking = rank_sources(sim, target.name)
    source = by_name[ranking.source_at(1)]

    pretrained, _ = train(
        build_model(source.class_count, seed=999), source.train, _e2e_config(998)
    )

    runs = {}
    for seed in E2E_SEEDS:
        scratch, scratch_hist, tuned, tuned_hist = _scratch_and_transfer(
            target, pretrained, seed
        )
        runs[seed] = {
            "scratch": scratch,
            "scratch_hist": scratch_hist,
            "tuned": tuned,
            "tuned_hist": tuned_hist,
        }

    scratch_path = root / "scratch_seed1.fcn"
    tuned_path = root / "tuned_seed1.fcn"
    save_model(runs[1]["scratch"], scratch_path)
    save_model(runs[1]["tuned"], tuned_path)

    results_dir = root / "results"
    matrix = run_matrix(datasets, _e2e_config(0), seeds=[0], out_dir=results_dir)
    variation_csv = results_dir / "variation_matrix.csv"
    write_variation_csv(matrix, variation_csv)
    similarity_csv = root / "similarity.csv"
    write_matrix_csv(sim, similarity_csv)
    report_json = root / "report.json"
    aggregate_csv = root / "aggregate.csv"
    write_report(
        matrix, sim, report_json, aggregate_path=aggregate_csv, iterations=1000,
        seed=0,
    )
    elapsed = time.perf_counter() - tic
    return {
        "root": root,
        "datasets": datasets,
        "target": target,
        "source": source,
        "similarity": sim,
        "ranking": ranking,
        "pretrained": pretrained,
        "runs": runs,
        "matrix": matrix,
        "results_dir": results_dir,
        "paths": {
            "scratch": scratch_path,
            "tuned": tuned_path,
            "variation_csv": variation_csv,
            "similarity_csv": similarity_csv,
            "report": report_json,
            "aggregate": aggregate_csv,
        },
        "elapsed": elapsed,
    }


def test_criterion_7_end_to_end_transfer(e2e):
    with criterion(7, "end-to-end transfer on three synthetic datasets"):
        # (a) scratch training reaches the train-accuracy threshold
        scratch_epochs = []
        for seed in E2E_SEEDS:
            hist = e2e["runs"][seed]["scratch_hist"]
            reached = hist.epochs_to_accuracy(ACCURACY_THRESHOLD)
            assert reached is not None, f"scratch seed {seed} never reached 0.95"
            scratch_epochs.append(reached)

        # (b) fine-tuning from the most similar source is no slower (median)
        transfer_epochs = []
        for seed in E2E_SEEDS:
            hist = e2e["runs"][seed]["tuned_hist"]
            reached = hist.epochs_to_accuracy(ACCURACY_THRESHOLD)
            assert reached is not None, f"transfer seed {seed} never reached 0.95"
            transfer_epochs.append(reached)
        assert statistics.median(transfer_epochs) <= statistics.median(
            scratch_epochs
        ), (scratch_epochs, transfer_epochs)

        # (c) the experiment matrix and reports complete and are valid
        matrix = e2e["matrix"]
        assert len(matrix.cells) == 6 and not matrix.failures
        loaded = load_matrix_results(e2e["results_dir"])
        assert loaded.cells == matrix.cells

        import csv as csv_mod

        rows = list(
            csv_mod.reader(
                e2e["paths"]["variation_csv"].read_text().splitlines()
            )
        )
        assert rows[0] == ["", "A", "B", "C"]
        assert len(rows) == 4
        for k in range(1, 4):
            assert rows[k][k] == ""  # empty diagonal

        sim_back = read_matrix_csv(e2e["paths"]["similarity_csv"])
        assert np.array_equal(sim_back.values, e2e["similarity"].values)

        report = json.loads(e2e["paths"]["report"].read_text())
        assert set(report["targets"]) == {"A", "B", "C"}
        assert sum(report["totals"].values()) == 3
        for entry in report["targets"].values():
            assert entry["smart"]["rank1"] is not None
            assert 0.0 <= entry["random_mean_sampled"] <= 1.0

        agg_rows = list(
            csv_mod.reader(e2e["paths"]["aggregate"].read_text().splitlines())
        )
        assert agg_rows[0] == ["target", "min", "median", "max"]
        assert len(agg_rows) == 4

        assert e2e["elapsed"] < 900.0, f"pipeline took {e2e['elapsed']:.0f}s"


# ---------------------------------------------------------------------------
# Criterion 8: determinism of criteria 2, 3, and 7 under fixed seeds
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(e2e):
    with criterion(8, "reruns with the same seeds are bitwise identical"):
        # criterion 2 artifacts: analytic gradients
        for case in (0, 7, 19):
            model_a, batch_a = _tiny_gradient_case(case)
            model_b, batch_b = _tiny_gradient_case(case)
            _, grads_a = loss_and_gradients(model_a, batch_a)
            _, grads_b = loss_and_gradients(model_b, batch_b)
            assert grads_bytes(grads_a) == grads_bytes(grads_b)

        # criterion 3 artifacts: barycenter prototypes
        rng_a = np.random.default_rng(20240003)
        rng_b = np.random.default_rng(20240003)
        for _ in range(10):
            proto_a, costs_a = _dba_cost_trace(_random_dba_set(rng_a))
            proto_b, costs_b = _dba_cost_trace(_random_dba_set(rng_b))
            assert proto_a.tobytes() == proto_b.tobytes()
            assert costs_a == costs_b

        # criterion 7 artifacts: weight files and reports
        target, source = e2e["target"], e2e["source"]
        scratch, _, tuned, _ = _scratch_and_transfer(target, e2e["pretrained"], 1)
        rerun_scratch = e2e["root"] / "rerun_scratch.fcn"
        rerun_tuned = e2e["root"] / "rerun_tuned.fcn"
        save_model(scratch, rerun_scratch)
        save_model(tuned, rerun_tuned)
        assert rerun_scratch.read_bytes() == e2e["paths"]["scratch"].read_bytes()
        assert rerun_tuned.read_bytes() == e2e["paths"]["tuned"].read_bytes()

        pair_a = run_pair(source, target, _e2e_config(0), seed=0)
        pair_b = run_pair(source, target, _e2e_config(0), seed=0)
        assert pair_a == pair_b

        # resumed matrix run: bitwise-stable cells, no retraining
        cells_dir = e2e["results_dir"] / "cells"
        before = {p.name: p.read_bytes() for p in sorted(cells_dir.glob("*.json"))}
        resumed = run_matrix(
            e2e["datasets"], _e2e_config(0), seeds=[0], out_dir=e2e["results_dir"]
        )
        after = {p.name: p.read_bytes() for p in sorted(cells_dir.glob("*.json"))}
        assert before == after
        assert resumed.cells == e2e["matrix"].cells

        # report regeneration is byte-identical
        rerun_report = e2e["root"] / "rerun_report.json"
        rerun_aggregate = e2e["root"] / "rerun_aggregate.csv"
        write_report(
            resumed,
            e2e["similarity"],
            rerun_report,
            aggregate_path=rerun_aggregate,
            iterations=1000,
            seed=0,
        )
        assert rerun_report.read_bytes() == e2e["paths"]["report"].read_bytes()
        assert (
            rerun_aggregate.read_bytes() == e2e["paths"]["aggregate"].read_bytes()
        )


# ---------------------------------------------------------------------------
# Criterion 9: serialization round-trip fidelity
# ---------------------------------------------------------------------------


def test_criterion_9_serialization_round_trip(e2e):
    with criterion(9, "save/load keeps weights within one float32 ULP and argmax"):
        target = e2e["target"]
        for key in ("scratch", "tuned"):
            original = e2e["runs"][1][key if key == "scratch" else "tuned"]
            loaded = load_model(e2e["paths"][key])
            for (name, a), (name_b, b) in zip(
                original.items(), loaded.items()
            ):
                assert name == name_b
                # round-to-nearest float32, re-read exactly
                assert np.array_equal(
                    b, a.astype(np.float32).astype(np.float64)
                ), name
            series = [item.series for item in target.test]
            labels = np.array([item.label for item in target.test])
            p_orig = forward(original, series)
            p_load = forward(loaded, series)
            assert np.array_equal(p_orig.argmax(axis=1), p_load.argmax(axis=1))
            assert evaluate(loaded, target.test) == evaluate(original, target.test)
            assert ((p_orig.argmax(axis=1) == labels).mean() ==
                    evaluate(original, target.test))
