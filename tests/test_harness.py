import contextlib
import csv
import json
import re
import urllib.parse
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tstransfer.harness as harness
from helpers import make_sine_dataset, record_calls
from tstransfer import (
    DataValidationError,
    Dataset,
    LabeledSeries,
    SimilarityMatrix,
    SourceRanking,
    TrainConfig,
    VariationMatrix,
    accuracy_variation,
    aggregate,
    build_model,
    compare_selection,
    derive_seed,
    evaluate,
    load_matrix_results,
    run_matrix,
    run_pair,
    swap_head,
    write_report,
    write_variation_csv,
)

FAST = TrainConfig(epochs=2, batch_size=8, seed=0)


def tiny_datasets(n=2, seed=50):
    freq_sets = [(2.0, 5.0), (2.2, 5.5), (8.0, 12.0), (3.0, 9.0)]
    return [
        make_sine_dataset(
            name, freq_sets[k], n_train=8, n_test=6, length=16, seed=seed + k
        )
        for k, name in enumerate("ABCD"[:n])
    ]


def without_transfer_accuracy(text):
    record = json.loads(text)
    del record["transfer_accuracy"]
    return json.dumps(record)


def cells_of(calls):
    """The (source, target) names of logged run_pair calls."""
    return [(a["source"].name, a["target"].name) for _, a in calls]


class TestAccuracyVariation:
    def test_improvement_example(self):
        value = accuracy_variation(0.746, 0.865)
        assert value == 100.0 * (0.865 - 0.746) / 0.746
        assert round(value) == 16

    def test_degradation_example(self):
        value = accuracy_variation(0.933, 0.167)
        assert value == 100.0 * (0.167 - 0.933) / 0.933
        assert abs(value - -82.1) < 0.05

    def test_equal_accuracies_give_zero(self):
        for x in (0.25, 0.5, 1.0):
            assert accuracy_variation(x, x) == 0.0

    def test_zero_baseline_gives_none(self):
        assert accuracy_variation(0.0, 0.5) is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            accuracy_variation(1.5, 0.5)

    def test_sign_tracks_direction(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            b = rng.uniform(0.05, 1.0)
            t = rng.uniform(0.0, 1.0)
            v = accuracy_variation(b, t)
            assert (v > 0) == (t > b)
            assert (v == 0) == (t == b)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert 0 <= derive_seed("x") < 2**63


class TestRunPair:
    def test_rejects_same_dataset(self):
        a, _ = tiny_datasets()
        with pytest.raises(ValueError):
            run_pair(a, a, FAST, seed=0)

    def test_completes_and_records(self):
        a, b = tiny_datasets()
        result = run_pair(a, b, FAST, seed=1)
        assert result.source == "A" and result.target == "B"
        assert 0.0 <= result.baseline_accuracy <= 1.0
        assert 0.0 <= result.transfer_accuracy <= 1.0
        if result.baseline_accuracy > 0:
            assert result.variation_percent == accuracy_variation(
                result.baseline_accuracy, result.transfer_accuracy
            )
        assert set(result.derived_seeds) == {
            "baseline_init",
            "baseline_train",
            "source_init",
            "source_train",
            "head",
            "finetune_train",
        }

    def test_zero_epochs_transfer_is_headswapped_pretrained(self):
        a, b = tiny_datasets()
        cfg = TrainConfig(epochs=0, batch_size=8, seed=0)
        result = run_pair(a, b, cfg, seed=2)
        # with no training at all, both sides are untrained models
        pre = build_model(a.class_count, seed=result.derived_seeds["source_init"])
        swapped = swap_head(pre, b.class_count, result.derived_seeds["head"])
        assert result.transfer_accuracy == evaluate(swapped, b.test)

    def test_deterministic(self):
        a, b = tiny_datasets()
        r1 = run_pair(a, b, FAST, seed=3)
        r2 = run_pair(a, b, FAST, seed=3)
        assert r1 == r2

    def test_baseline_depends_only_on_target(self):
        a, b, c = tiny_datasets(3)
        r1 = run_pair(a, c, FAST, seed=4)
        r2 = run_pair(b, c, FAST, seed=4)
        assert r1.baseline_accuracy == r2.baseline_accuracy


class TestRunMatrix:
    def test_baseline_evaluated_once_per_target_and_seed(self, tmp_path, monkeypatch):
        datasets = tiny_datasets(3)
        calls = []

        def counting(model, split):
            calls.append(model)
            return evaluate(model, split)

        monkeypatch.setattr(harness, "evaluate", counting)
        matrix = run_matrix(datasets, FAST, seeds=[0, 1], out_dir=tmp_path)
        # 6 cells x 2 seeds transfer evaluations plus 3 targets x 2 seeds baselines
        assert len(calls) == 12 + 6
        monkeypatch.setattr(harness, "evaluate", evaluate)
        for (s, t), cell in matrix.cells.items():
            source, target = datasets["ABC".index(s)], datasets["ABC".index(t)]
            fresh = [asdict(run_pair(source, target, FAST, seed)) for seed in (0, 1)]
            assert cell["results"] == fresh

    @pytest.mark.parametrize("seeds, message", [
        ([True], "seeds must be integers, got True"),
        ([0, 1.0], "seeds must be integers, got 1.0"),
        (["3"], "seeds must be integers, got '3'"),
        ([0, 0], "repeated seeds [0]"),
        ([2, -1, 2, 5, -1], "repeated seeds [-1, 2]"),
    ], ids=["bool", "float", "str", "repeated", "repeated-twice"])
    def test_refuses_seeds_that_are_not_distinct_integers(self, tmp_path, seeds,
                                                          message):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^run_matrix: {re.escape(message)}$"):
            run_matrix(tiny_datasets(2), FAST, seeds=seeds, out_dir=out)
        assert not out.exists()

    def test_a_negative_seed_is_a_label(self, tmp_path):
        config = TrainConfig(epochs=0, batch_size=8)
        matrix = run_matrix(tiny_datasets(2), config, seeds=[-1], out_dir=tmp_path)
        assert not matrix.failures
        record = json.loads((tmp_path / "cells" / "A__B.json").read_text())
        assert record["seeds"] == [-1]

    def test_cell_counts(self, tmp_path):
        datasets = tiny_datasets(2)
        matrix = run_matrix(datasets, FAST, seeds=[0], out_dir=tmp_path / "r2")
        assert len(matrix.cells) == 2
        datasets = tiny_datasets(4)
        matrix = run_matrix(datasets, FAST, seeds=[0], out_dir=tmp_path / "r4")
        assert len(matrix.cells) == 12
        assert not matrix.failures

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        datasets = tiny_datasets(2)
        out = tmp_path / "res"
        first = run_matrix(datasets, FAST, seeds=[0], out_dir=out)
        cell_files = sorted((out / "cells").glob("*.json"))
        before = {p.name: p.read_bytes() for p in cell_files}

        def boom(*args, **kwargs):
            raise AssertionError("run_pair called during resume")

        monkeypatch.setattr(harness, "run_pair", boom)
        second = run_matrix(datasets, FAST, seeds=[0], out_dir=out)
        after = {p.name: p.read_bytes() for p in sorted((out / "cells").glob("*.json"))}
        assert before == after
        assert second.cells == first.cells

    def test_failure_isolation(self, tmp_path, monkeypatch):
        datasets = tiny_datasets(2)
        real = harness.run_pair
        record_calls(monkeypatch, harness, "run_pair",
                     fail=lambda a: a["source"].name == "A")
        out = tmp_path / "fail"
        matrix = run_matrix(datasets, FAST, seeds=[0], out_dir=out)
        assert ("B", "A") in matrix.cells
        assert ("A", "B") in matrix.failures
        assert "injected failure" in matrix.failures[("A", "B")]
        # the error is the cell's record on disk, retried on the next run
        path = out / "cells" / "A__B.json"
        assert json.loads(path.read_text())["error"] == matrix.failures[("A", "B")]
        monkeypatch.setattr(harness, "run_pair", real)
        retried = run_matrix(datasets, FAST, seeds=[0], out_dir=out)
        assert not retried.failures
        assert "error" not in json.loads(path.read_text())

    def test_run_trains_each_scratch_model_once(self, tmp_path, monkeypatch):
        datasets = tiny_datasets(3)
        uncounted = run_matrix(datasets, FAST, seeds=[0], out_dir=tmp_path / "a")
        trainings, evaluations = [], []
        real_train = harness.train

        def counting_train(model, split, config):
            trainings.append(config.seed)
            return real_train(model, split, config)

        def counting_evaluate(model, split):
            evaluations.append(model)
            return evaluate(model, split)

        monkeypatch.setattr(harness, "train", counting_train)
        monkeypatch.setattr(harness, "evaluate", counting_evaluate)
        counted = run_matrix(datasets, FAST, seeds=[0], out_dir=tmp_path / "b")
        # one scratch model per dataset; 6 transfer plus 3 baseline evaluations
        assert len(trainings) == 3
        assert len(evaluations) == 6 + 3
        assert counted.cells == uncounted.cells

    def test_every_scratch_training_precedes_the_first_fine_tune(self, tmp_path,
                                                                  monkeypatch):
        log = []
        record_calls(monkeypatch, harness, "train", log)
        record_calls(monkeypatch, harness, "fine_tune", log)
        run_matrix(tiny_datasets(3), FAST, seeds=[0, 1], out_dir=tmp_path)
        # phase 1: 3 datasets x 2 seeds; phase 2: 6 cells x 2 seeds
        assert [name for name, _ in log] == ["train"] * 6 + ["fine_tune"] * 12

    def test_resume_of_one_stale_cell_trains_only_its_datasets(
        self, tmp_path, monkeypatch
    ):
        datasets = tiny_datasets(3)
        out = tmp_path / "res"
        fresh = run_matrix(datasets, FAST, seeds=[0, 1], out_dir=out)
        (out / "cells" / "A__B.json").write_text("[]")
        log = []
        record_calls(monkeypatch, harness, "train", log)
        record_calls(monkeypatch, harness, "evaluate", log)
        resumed = run_matrix(datasets, FAST, seeds=[0, 1], out_dir=out)
        assert resumed.cells == fresh.cells
        trained = sorted(a["config"].seed for name, a in log if name == "train")
        assert trained == sorted(
            derive_seed(seed, name, "train") for seed in (0, 1) for name in "AB"
        )
        # B's baseline, then the transfer to B, once per seed
        evaluated = [a["split"] for name, a in log if name == "evaluate"]
        assert len(evaluated) == 2 + 2
        assert all(split is datasets[1].test for split in evaluated)

    def test_a_failed_recompute_removes_the_stale_cell(self, tmp_path, monkeypatch):
        datasets = tiny_datasets(2)
        out = tmp_path / "res"
        run_matrix(datasets, TrainConfig(epochs=1, batch_size=8), out_dir=out)
        record_calls(monkeypatch, harness, "fine_tune", fail=lambda a: True)
        rerun = run_matrix(datasets, TrainConfig(epochs=2, batch_size=8), out_dir=out)
        assert set(rerun.failures) == {("A", "B"), ("B", "A")}
        files = sorted(p.name for p in (out / "cells").iterdir())
        assert files == ["A__B.json", "B__A.json"]
        for name in files:
            record = json.loads((out / "cells" / name).read_text())
            assert record["error"] == "RuntimeError: injected failure"
            assert record["config"]["epochs"] == 2
        loaded = load_matrix_results(out)
        assert loaded.cells == {} and loaded.failures == rerun.failures

    def test_a_dataset_whose_every_cell_failed_keeps_its_row_and_column(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "res"
        record_calls(monkeypatch, harness, "run_pair",
                     fail=lambda a: "C" in (a["source"].name, a["target"].name))
        run_matrix(tiny_datasets(3), FAST, seeds=[0], out_dir=out)
        loaded = load_matrix_results(out)
        assert loaded.names == ("A", "B", "C")
        assert set(loaded.cells) == {("A", "B"), ("B", "A")}
        assert len(loaded.failures) == 4
        write_variation_csv(loaded, out / "variation.csv")
        rows = list(csv.reader((out / "variation.csv").read_text().splitlines()))
        assert rows[0] == ["", "A", "B", "C"]
        assert [row[3] for row in rows[1:]] == ["", "", ""]
        assert rows[3] == ["C", "", "", ""]

    def test_load_refuses_two_files_that_hold_one_cell(self, tmp_path):
        out = tmp_path / "both"
        run_matrix(tiny_datasets(2), FAST, out_dir=out)
        cells = out / "cells"
        (cells / "copy.json").write_bytes((cells / "A__B.json").read_bytes())
        held = r"\('A', 'B'\) is held by both A__B\.json and copy\.json"
        with pytest.raises(DataValidationError, match=held):
            load_matrix_results(out)

    def test_load_refuses_failures_of_another_run(self, tmp_path, monkeypatch):
        out = tmp_path / "mixed"
        record_calls(monkeypatch, harness, "run_pair",
                     fail=lambda a: "C" in (a["source"].name, a["target"].name))
        run_matrix(tiny_datasets(3), TrainConfig(epochs=1, batch_size=8), out_dir=out)
        monkeypatch.undo()
        run_matrix(tiny_datasets(2), TrainConfig(epochs=3, batch_size=8), seeds=[7],
                   out_dir=out)
        mixed = r"cells \('A', 'B'\) and \('A', 'C'\) disagree on seeds"
        with pytest.raises(DataValidationError, match=mixed):
            load_matrix_results(out)

    def test_resume_recomputes_cells_of_another_run(self, tmp_path):
        datasets = tiny_datasets(2)
        out = tmp_path / "res"
        first = TrainConfig(epochs=1, batch_size=8, seed=0)
        run_matrix(datasets, first, seeds=[0], out_dir=out)
        second = TrainConfig(epochs=3, batch_size=8, seed=0)
        rerun = run_matrix(datasets, second, seeds=[5], out_dir=out)
        fresh = run_matrix(datasets, second, seeds=[5], out_dir=tmp_path / "fresh")
        assert rerun.cells == fresh.cells
        for cell in rerun.cells.values():
            assert cell["seeds"] == [5]
            assert cell["config"] == {k: v for k, v in asdict(second).items()
                                      if k != "seed"}
        assert load_matrix_results(out).cells == fresh.cells

        # same names and config, different contents
        changed = tiny_datasets(2, seed=70)
        rerun = run_matrix(changed, second, seeds=[5], out_dir=out)
        assert rerun.cells == run_matrix(changed, second, seeds=[5],
                                         out_dir=tmp_path / "changed").cells
        assert rerun.cells != fresh.cells

    def test_load_matrix_results_round_trip(self, tmp_path):
        datasets = tiny_datasets(2)
        out = tmp_path / "rt"
        matrix = run_matrix(datasets, FAST, seeds=[0], out_dir=out)
        loaded = load_matrix_results(out)
        assert loaded.cells == matrix.cells

    @pytest.mark.parametrize("content", [
        "[]", '{"source": "A", "tar',
        pytest.param(without_transfer_accuracy, id="no_transfer_accuracy"),
    ])
    def test_resume_recomputes_a_malformed_cell_file(
        self, tmp_path, monkeypatch, content
    ):
        datasets = tiny_datasets(2)
        out = tmp_path / "res"
        fresh = run_matrix(datasets, FAST, seeds=[0], out_dir=out)
        path = out / "cells" / "A__B.json"
        written = path.read_bytes()
        path.write_text(content if isinstance(content, str)
                        else content(written.decode()))
        pairs = record_calls(monkeypatch, harness, "run_pair")
        resumed = run_matrix(datasets, FAST, seeds=[0], out_dir=out)
        assert cells_of(pairs) == [("A", "B")]
        assert resumed.cells == fresh.cells
        assert path.read_bytes() == written

    @pytest.mark.parametrize("content", ["[]", '{"source": "A", "tar'])
    def test_load_rejects_a_malformed_cell_file(self, tmp_path, content):
        out = tmp_path / "bad"
        run_matrix(tiny_datasets(2), FAST, seeds=[0], out_dir=out)
        (out / "cells" / "A__B.json").write_text(content)
        with pytest.raises(DataValidationError, match="A__B.json"):
            load_matrix_results(out)

    @pytest.mark.parametrize(
        "fname, key",
        [("A__B.json", "source"), ("A__B.json", "target"),
         ("A__B.json", "baseline_accuracy"),
         ("A__B.json", "transfer_accuracy"), ("A__B.json", "variation_percent")],
    )
    def test_load_names_a_cell_file_without_a_key(self, tmp_path, fname, key):
        out = tmp_path / "keys"
        run_matrix(tiny_datasets(2), FAST, seeds=[0], out_dir=out)
        path = out / "cells" / fname
        record = json.loads(path.read_text())
        del record[key]
        path.write_text(json.dumps(record))
        with pytest.raises(DataValidationError, match=rf"{fname}: .*'{key}'"):
            load_matrix_results(out)

    def test_load_names_a_failure_record_whose_error_is_not_a_string(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "keys"
        record_calls(monkeypatch, harness, "fine_tune", fail=lambda a: True)
        run_matrix(tiny_datasets(2), FAST, seeds=[0], out_dir=out)
        path = out / "cells" / "A__B.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "error": 1}))
        with pytest.raises(DataValidationError, match=r"A__B\.json: .*'error'"):
            load_matrix_results(out)

    @pytest.mark.parametrize("value", ["0.5", 1.5, True, float("nan")])
    def test_a_cell_file_with_a_bad_accuracy_is_named_and_recomputed(
        self, tmp_path, monkeypatch, value
    ):
        datasets = tiny_datasets(2)
        out = tmp_path / "bad"
        fresh = run_matrix(datasets, FAST, seeds=[0], out_dir=out)
        path = out / "cells" / "A__B.json"
        record = json.loads(path.read_text())
        path.write_text(json.dumps({**record, "transfer_accuracy": value}))
        with pytest.raises(DataValidationError,
                           match=r"A__B\.json: .*transfer_accuracy"):
            load_matrix_results(out)
        pairs = record_calls(monkeypatch, harness, "run_pair")
        assert run_matrix(datasets, FAST, seeds=[0], out_dir=out).cells == fresh.cells
        assert cells_of(pairs) == [("A", "B")]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_a_cell_file_with_a_non_finite_variation_is_named_and_recomputed(
        self, tmp_path, monkeypatch, token
    ):
        datasets = tiny_datasets(2)
        out = tmp_path / "bad"
        fresh = run_matrix(datasets, FAST, seeds=[0], out_dir=out)
        path = out / "cells" / "A__B.json"
        record = json.loads(path.read_text())
        # json.dumps writes a non-finite float as the bare token json.load reads.
        path.write_text(json.dumps({**record, "variation_percent": float(token)}))
        assert token in path.read_text()
        with pytest.raises(DataValidationError,
                           match=r"A__B\.json: .*variation_percent"):
            load_matrix_results(out)
        pairs = record_calls(monkeypatch, harness, "run_pair")
        assert run_matrix(datasets, FAST, seeds=[0], out_dir=out).cells == fresh.cells
        assert cells_of(pairs) == [("A", "B")]

    def test_load_refuses_cells_of_different_runs(self, tmp_path):
        out = tmp_path / "mixed"
        run_matrix(tiny_datasets(3), TrainConfig(epochs=1, batch_size=8), out_dir=out)
        run_matrix(tiny_datasets(2), TrainConfig(epochs=2, batch_size=8), seeds=[3],
                   out_dir=out)
        with pytest.raises(DataValidationError, match=r"cells \('A', 'B'\) and"):
            load_matrix_results(out)

        # same seeds and config, changed data under the same names
        out = tmp_path / "changed"
        config = TrainConfig(epochs=1, batch_size=8)
        run_matrix(tiny_datasets(3), config, out_dir=out)
        run_matrix(tiny_datasets(2, seed=70), config, out_dir=out)
        with pytest.raises(DataValidationError, match="contents of 'A'"):
            load_matrix_results(out)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cell_whose_training_overflows_records_the_cause(self, tmp_path):
        def overflow(n):
            return tuple(
                LabeledSeries(np.full(16, 3e38 * (-1) ** k), k % 2) for k in range(n)
            )

        huge = Dataset(name="H", train=overflow(8), test=overflow(4), class_count=2)
        matrix = run_matrix([tiny_datasets(1)[0], huge], FAST, out_dir=tmp_path)
        assert not matrix.cells
        for pair in (("A", "H"), ("H", "A")):
            assert matrix.failures[pair].startswith("ValueError: train: no epoch")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failed_scratch_training_runs_once(self, tmp_path, monkeypatch):
        def overflow(n):
            return tuple(
                LabeledSeries(np.full(16, 3e38 * (-1) ** k), k % 2) for k in range(n)
            )

        huge = Dataset(name="H", train=overflow(8), test=overflow(4), class_count=2)
        trainings = []
        real_train = harness.train

        def counting_train(model, split, config):
            trainings.append(config.seed)
            return real_train(model, split, config)

        monkeypatch.setattr(harness, "train", counting_train)
        out = tmp_path / "res"
        matrix = run_matrix([*tiny_datasets(2), huge],
                            TrainConfig(epochs=2, batch_size=4), out_dir=out)
        # one training per (dataset, seed), though H is in 4 cells
        assert len(trainings) == 3
        assert set(matrix.cells) == {("A", "B"), ("B", "A")}
        assert set(matrix.failures) == {("A", "H"), ("B", "H"), ("H", "A"), ("H", "B")}
        for (s, t), error in matrix.failures.items():
            assert error.startswith("ValueError: train: no epoch")
            record = json.loads((out / "cells" / f"{s}__{t}.json").read_text())
            assert record["error"] == error
        assert len(set(matrix.failures.values())) == 1

    def test_a_target_without_test_series_costs_no_fine_tune(self, tmp_path,
                                                              monkeypatch):
        a, b = tiny_datasets(2)
        b = Dataset(name="B", train=b.train, test=(), class_count=b.class_count)
        tuned = record_calls(monkeypatch, harness, "fine_tune")
        matrix = run_matrix([a, b], FAST, out_dir=tmp_path)
        # B's baseline fails in phase 1, so the cell into B fine-tunes nothing
        assert [args["target"].name for _, args in tuned] == ["A"]
        assert matrix.failures == {("A", "B"): "ValueError: evaluate: empty split"}
        assert set(matrix.cells) == {("B", "A")}

    def test_a_failed_training_at_a_later_seed_costs_no_fine_tune(self, tmp_path,
                                                                   monkeypatch):
        failing = derive_seed(1, "B", "train")
        record_calls(monkeypatch, harness, "train",
                     fail=lambda a: a["config"].seed == failing)
        tuned = record_calls(monkeypatch, harness, "fine_tune")
        matrix = run_matrix(tiny_datasets(2), FAST, seeds=[0, 1], out_dir=tmp_path)
        # both cells need B at seed 1, so neither fine-tunes at seed 0
        assert tuned == []
        assert not matrix.cells
        assert matrix.failures == {
            cell: "RuntimeError: injected failure" for cell in (("A", "B"), ("B", "A"))
        }

    def test_cell_with_samples_beyond_float32_records_the_cause(self, tmp_path):
        def beyond(n):
            return tuple(LabeledSeries(np.full(16, 1e39 * (-1) ** k), k % 2)
                         for k in range(n))

        huge = Dataset(name="H", train=beyond(8), test=beyond(4), class_count=2)
        matrix = run_matrix([tiny_datasets(1)[0], huge], FAST, out_dir=tmp_path)
        assert not matrix.cells
        for pair in (("A", "H"), ("H", "A")):
            assert matrix.failures[pair].startswith("ValueError: ")
            assert "beyond the float32 range" in matrix.failures[pair]

    def test_dtype_is_part_of_the_provenance(self, tmp_path, monkeypatch):
        out = tmp_path / "res"
        datasets = tiny_datasets(3)
        matrix = run_matrix(datasets, FAST, out_dir=out)
        assert {cell["train_dtype"] for cell in matrix.cells.values()} == {"float32"}
        computed = record_calls(monkeypatch, harness, "run_pair")
        path = out / "cells" / "A__B.json"

        def rewrite(edit):
            record = json.loads(path.read_text())
            edit(record)
            path.write_text(json.dumps(record))

        # a cell trained in another dtype or by other numerics, or written
        # before either field existed, is recomputed once
        for edit in (lambda r: r.update(train_dtype="float64"),
                     lambda r: r.pop("train_dtype"),
                     lambda r: r.update(numerics_version=1),
                     lambda r: r.update(numerics_version=2),
                     lambda r: r.pop("numerics_version")):
            rewrite(edit)
            computed.clear()
            assert run_matrix(datasets, FAST, out_dir=out).cells == matrix.cells
            assert cells_of(computed) == [("A", "B")]
        computed.clear()
        run_matrix(datasets, FAST, out_dir=out)
        assert cells_of(computed) == []
        assert load_matrix_results(out).cells == matrix.cells

        rewrite(lambda r: r.update(train_dtype="float64"))
        with pytest.raises(DataValidationError, match="disagree on train_dtype"):
            load_matrix_results(out)
        for version in (1, 2):
            rewrite(lambda r: r.update(train_dtype="float32", numerics_version=version))
            with pytest.raises(DataValidationError, match="disagree on numerics_version"):
                load_matrix_results(out)
        rewrite(lambda r: r.pop("numerics_version"))
        with pytest.raises(DataValidationError, match="disagree on numerics_version"):
            load_matrix_results(out)

    def test_a_cell_recording_adam_decay_rates_is_recomputed(
        self, tmp_path, monkeypatch
    ):
        # Cells written while TrainConfig carried beta1 and beta2 record them.
        out = tmp_path / "res"
        datasets = tiny_datasets(2)
        matrix = run_matrix(datasets, FAST, out_dir=out)
        path = out / "cells" / "A__B.json"
        record = json.loads(path.read_text())
        assert record["config"] == {"epochs": 2, "batch_size": 8, "learning_rate": 0.001}
        record["config"].update(beta1=0.9, beta2=0.999)
        path.write_text(json.dumps(record))
        with pytest.raises(DataValidationError, match="disagree on config"):
            load_matrix_results(out)
        computed = record_calls(monkeypatch, harness, "run_pair")
        assert run_matrix(datasets, FAST, out_dir=out).cells == matrix.cells
        assert cells_of(computed) == [("A", "B")]
        assert load_matrix_results(out).cells == matrix.cells

    def test_a_zero_baseline_records_a_null_variation(self, tmp_path, monkeypatch):
        calls = []

        def fake_evaluate(model, split):
            # run_matrix evaluates both baselines before any fine-tune
            calls.append(model)
            return 0.0 if len(calls) <= 2 else 0.5

        monkeypatch.setattr(harness, "evaluate", fake_evaluate)
        out = tmp_path / "res"
        matrix = run_matrix(tiny_datasets(2), FAST, out_dir=out)
        assert len(calls) == 4 and not matrix.failures
        for name in ("A__B.json", "B__A.json"):
            record = json.loads((out / "cells" / name).read_text())
            assert (record["baseline_accuracy"], record["transfer_accuracy"]) == (0, 0.5)
            assert record["variation_percent"] is None
            assert [r["variation_percent"] for r in record["results"]] == [None]
        assert load_matrix_results(out).cells == matrix.cells

    def test_rerun_with_another_config_seed_reuses_every_cell(
        self, tmp_path, monkeypatch
    ):
        # Every training derives its seeds from `seeds`, not config.seed.
        datasets = tiny_datasets(2)
        out = tmp_path / "res"
        matrix = run_matrix(datasets, FAST, seeds=[3], out_dir=out)
        assert all("seed" not in cell["config"] for cell in matrix.cells.values())
        computed = record_calls(monkeypatch, harness, "run_pair")
        again = run_matrix(datasets, replace(FAST, seed=5), seeds=[3], out_dir=out)
        assert cells_of(computed) == []
        assert again.cells == matrix.cells

    def test_multi_seed_cells_average(self, tmp_path):
        datasets = tiny_datasets(2)
        matrix = run_matrix(datasets, FAST, seeds=[0, 1], out_dir=tmp_path)
        cell = matrix.cells[("A", "B")]
        assert cell["seeds"] == [0, 1]
        assert len(cell["results"]) == 2
        mean = sum(r["transfer_accuracy"] for r in cell["results"]) / 2
        assert cell["transfer_accuracy"] == mean

    def test_dataset_order_permutes_consistently(self, tmp_path):
        datasets = tiny_datasets(3)
        m1 = run_matrix(datasets, FAST, seeds=[0], out_dir=tmp_path / "m1")
        m2 = run_matrix(list(reversed(datasets)), FAST, seeds=[0],
                        out_dir=tmp_path / "m2")
        assert m2.names == tuple(reversed(m1.names))
        assert m1.cells == m2.cells


def fail_calls(monkeypatch, name, indices):
    """Make the k-th call of `harness.<name>` raise, for each k in indices."""
    log = []
    record_calls(monkeypatch, harness, name, log, fail=lambda a: len(log) - 1 in indices)


def interrupt_after_write(monkeypatch, k):
    """Raise KeyboardInterrupt right after run_matrix's k-th file write."""
    real, writes = harness.dump_json_17g, []

    def dump(obj, path):
        real(obj, path)
        writes.append(path)
        if len(writes) == k:
            raise KeyboardInterrupt

    monkeypatch.setattr(harness, "dump_json_17g", dump)


def named(datasets, names):
    return [Dataset(name=name, train=d.train, test=d.test, class_count=d.class_count)
            for d, name in zip(datasets, names)]


class TestResultsDirectory:
    @settings(max_examples=40, deadline=None)
    @given(failing=st.sets(st.integers(0, 5)), rerun_failing=st.sets(st.integers(0, 5)),
           rerun_seed=st.sampled_from([0, 1]), k=st.integers(1, 6))
    def test_a_clean_run_after_an_interrupted_rerun_loads_as_itself(
        self, tmp_path_factory, failing, rerun_failing, rerun_seed, k
    ):
        datasets, config = tiny_datasets(3), TrainConfig(epochs=0, batch_size=8)
        out = tmp_path_factory.mktemp("res")
        with pytest.MonkeyPatch.context() as mp:
            fail_calls(mp, "fine_tune", failing)
            run_matrix(datasets, config, out_dir=out)
        with pytest.MonkeyPatch.context() as mp, contextlib.suppress(KeyboardInterrupt):
            fail_calls(mp, "fine_tune", rerun_failing)
            interrupt_after_write(mp, k)
            run_matrix(datasets, config, seeds=[rerun_seed], out_dir=out)
        clean = run_matrix(datasets, config, seeds=[rerun_seed], out_dir=out)
        assert len(clean.cells) == 6 and not clean.failures
        assert load_matrix_results(out) == clean
        assert all(p.suffix == ".json" for p in (out / "cells").iterdir())

    def test_names_that_escaped_alike_get_their_own_files(self, tmp_path, monkeypatch):
        # '\u2541' was escaped as %2541, the escape of '%' followed by "41"
        datasets = named(tiny_datasets(3), ["\u2541", "%41", "X"])
        out = tmp_path / "res"
        matrix = run_matrix(datasets, FAST, out_dir=out)
        assert len(matrix.cells) == 6
        assert len({p.name for p in (out / "cells").iterdir()}) == 6
        computed = record_calls(monkeypatch, harness, "run_pair")
        assert run_matrix(datasets, FAST, out_dir=out).cells == matrix.cells
        assert cells_of(computed) == []
        assert load_matrix_results(out).cells == matrix.cells

    def test_a_file_of_the_older_escape_is_a_second_holder(self, tmp_path):
        # Older versions escaped a character by its code point alone.
        out = tmp_path / "res"
        run_matrix(named(tiny_datasets(2), ["\u00e9", "B"]), FAST, out_dir=out)
        cells = out / "cells"
        (cells / "%E9__B.json").write_bytes((cells / "%C3%A9__B.json").read_bytes())
        with pytest.raises(DataValidationError, match=r"both %C3%A9__B\.json and %E9__B"):
            load_matrix_results(out)

    # Lone surrogates included: Python decodes undecodable argv bytes to them.
    @settings(max_examples=300, deadline=None)
    @given(st.text(st.characters(exclude_categories=()), min_size=1))
    def test_slug_decodes_back_to_the_name(self, name):
        slug = harness._slug(name)
        assert re.fullmatch(r"[A-Za-z0-9.%-]+", slug)
        assert urllib.parse.unquote(slug, errors="surrogatepass") == name


class TestAggregate:
    def test_single_source_column(self):
        out = aggregate({"t": {"s": 0.7}})
        assert out["t"] == (0.7, 0.7, 0.7)

    def test_odd_column(self):
        out = aggregate({"t": {"a": 0.2, "b": 0.4, "c": 0.9}})
        assert out["t"] == (0.2, 0.4, 0.9)

    def test_even_column_median_is_middle_mean(self):
        out = aggregate({"t": {"a": 0.1, "b": 0.3, "c": 0.5, "d": 0.7}})
        assert out["t"] == (0.1, 0.4, 0.7)

    def test_empty_column_absent(self):
        assert aggregate({"t": {}}) == {}


def ranking(target, *ordered):
    return SourceRanking(
        target=target, ranked=tuple((name, float(k)) for k, name in enumerate(ordered))
    )


def outcome_of(column, rank1):
    rankings = {"t": ranking("t", rank1, *sorted(set(column) - {rank1}))}
    return compare_selection({"t": column}, rankings)["targets"]["t"]


class TestCompareSelection:
    @pytest.mark.parametrize("column, rank1, outcome, mean", [
        ({"a": 0.9, "b": 0.5, "c": 0.1}, "a", "win", 0.5),
        ({"a": 0.9, "b": 0.5, "c": 0.1}, "c", "loss", 0.5),
        ({"a": 0.6, "b": 0.6, "c": 0.6}, "b", "tie", 0.6),
        # rank-1 equals the mean exactly
        ({"a": 0.5, "b": 0.25, "c": 0.75}, "a", "tie", 0.5),
        # (0.2 + 0.1 + 0.3) / 3 is 0.20000000000000004 in floats, but the
        # exact mean of the three doubles lies below the double 0.2
        ({"a": 0.2, "b": 0.1, "c": 0.3}, "a", "win", 0.2),
    ], ids=["win", "loss", "all-equal-tie", "tie-at-the-mean", "win-below-0.2"])
    def test_rank1_against_the_exact_mean(self, column, rank1, outcome, mean):
        entry = outcome_of(column, rank1)
        assert (entry["outcome"], entry["random_mean_exact"]) == (outcome, mean)

    def test_strictly_best_rank1_wins(self):
        columns = {"t": {"a": 0.9, "b": 0.5, "c": 0.1}}
        rankings = {"t": ranking("t", "a", "b", "c")}
        report = compare_selection(columns, rankings)
        assert report["targets"]["t"]["outcome"] == "win"
        assert report["totals"] == {"wins": 1, "ties": 0, "losses": 0}
        smart = report["targets"]["t"]["smart"]
        assert smart["rank1"] == {"source": "a", "accuracy": 0.9}
        assert smart["rank2"] == {"source": "b", "accuracy": 0.5}
        assert smart["rank3"] == {"source": "c", "accuracy": 0.1}

    def test_missing_ranks_are_none(self):
        columns = {"t": {"a": 0.4}}
        rankings = {"t": ranking("t", "a")}
        report = compare_selection(columns, rankings)
        smart = report["targets"]["t"]["smart"]
        assert smart["rank2"] is None and smart["rank3"] is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_outcome_agrees_with_the_printed_mean(self, data):
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
        sources = [f"s{k}" for k in range(len(values))]
        column = dict(zip(sources, values))
        rank1 = data.draw(st.sampled_from(sources))
        entry = outcome_of(column, rank1)
        accuracy, mean = column[rank1], entry["random_mean_exact"]
        assert {"win": accuracy >= mean, "loss": accuracy <= mean,
                "tie": accuracy == mean}[entry["outcome"]]
        shuffled = dict(data.draw(st.permutations(list(column.items()))))
        assert outcome_of(shuffled, rank1) == entry


class TestOutputs:
    def test_variation_csv_layout(self, tmp_path):
        matrix = VariationMatrix(names=("A", "B"))
        matrix.cells[("A", "B")] = {
            "source": "A", "target": "B", "seeds": [0],
            "baseline_accuracy": 0.5, "transfer_accuracy": 0.75,
            "variation_percent": 50.0, "results": [],
        }
        path = tmp_path / "vm.csv"
        write_variation_csv(matrix, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["", "A", "B"]
        assert rows[1][0] == "A" and rows[1][1] == ""  # diagonal empty
        assert float(rows[1][2]) == 50.0
        assert rows[2][2] == ""  # diagonal
        assert rows[2][1] == ""  # missing cell

    def test_a_failed_variation_csv_leaves_the_old_file(self, tmp_path):
        matrix = VariationMatrix(names=("A", "B"))
        matrix.cells[("A", "B")] = {"variation_percent": 50.0}
        path = tmp_path / "vm.csv"
        write_variation_csv(matrix, path)
        written = path.read_bytes()
        matrix.cells[("A", "B")] = {"variation_percent": object()}
        with pytest.raises(TypeError):
            write_variation_csv(matrix, path)
        assert path.read_bytes() == written
        assert [p.name for p in tmp_path.iterdir()] == ["vm.csv"]

    def test_write_report_outputs(self, tmp_path):
        datasets = tiny_datasets(3)
        matrix = run_matrix(datasets, FAST, seeds=[0], out_dir=tmp_path / "res")
        sim = SimilarityMatrix(
            ("A", "B", "C"),
            np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]),
        )
        out = tmp_path / "report.json"
        agg = tmp_path / "aggregate.csv"
        report = write_report(matrix, sim, out, aggregate_path=agg)
        data = json.loads(out.read_text())
        assert data["totals"] == report["totals"]
        assert set(data["targets"]) == {"A", "B", "C"}
        rows = list(csv.reader(agg.read_text().splitlines()))
        assert rows[0] == ["target", "min", "median", "max"]
        assert len(rows) == 4

    def test_report_ranks_a_target_among_its_completed_cells(
        self, tmp_path, monkeypatch
    ):
        record_calls(monkeypatch, harness, "run_pair",
                     fail=lambda a: (a["source"].name, a["target"].name) == ("B", "A"))
        matrix = run_matrix(tiny_datasets(3), FAST, seeds=[0], out_dir=tmp_path / "res")
        assert list(matrix.failures) == [("B", "A")]
        # B is A's nearest dataset, but its cell failed
        sim = SimilarityMatrix(
            ("A", "B", "C"),
            np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]),
        )
        report = write_report(matrix, sim, tmp_path / "report.json",
                              tmp_path / "aggregate.csv")
        smart = report["targets"]["A"]["smart"]
        assert smart["rank1"]["source"] == "C" and smart["rank2"] is None
        assert [(f["source"], f["target"]) for f in report["failures"]] == [("B", "A")]
        # a ranked source with neither a result nor a failure is an error
        del matrix.cells[("A", "B")]
        with pytest.raises(KeyError, match="ranked source 'A' has no transfer"):
            write_report(matrix, sim, tmp_path / "report.json",
                         tmp_path / "aggregate.csv")

    def test_report_skips_similarity_datasets_outside_the_run(self, tmp_path):
        matrix = run_matrix(tiny_datasets(3), FAST, seeds=[0], out_dir=tmp_path / "res")
        # D is the nearest dataset to every target, but not part of the run
        sim = SimilarityMatrix(
            ("A", "B", "C", "D"),
            np.array([[0.0, 1.0, 2.0, 0.5], [1.0, 0.0, 3.0, 0.5],
                      [2.0, 3.0, 0.0, 0.5], [0.5, 0.5, 0.5, 0.0]]),
        )
        report = write_report(matrix, sim, tmp_path / "report.json",
                              tmp_path / "aggregate.csv")
        assert set(report["targets"]) == {"A", "B", "C"}
        ranked = {t: [r and r["source"] for r in entry["smart"].values()]
                  for t, entry in report["targets"].items()}
        assert ranked == {
            "A": ["B", "C", None], "B": ["A", "C", None], "C": ["A", "B", None],
        }

    def test_floats_printed_with_17_digits(self, tmp_path):
        from tstransfer.textfmt import fmt17

        assert fmt17(0.1) == "0.10000000000000001"
        assert float(fmt17(1 / 3)) == 1 / 3
        matrix = VariationMatrix(names=("A", "B"))
        matrix.cells[("A", "B")] = {
            "source": "A", "target": "B", "seeds": [0],
            "baseline_accuracy": 1 / 3, "transfer_accuracy": 2 / 3,
            "variation_percent": 100.0, "results": [],
        }
        path = tmp_path / "vm.csv"
        write_variation_csv(matrix, path)
        assert "100" in path.read_text()
