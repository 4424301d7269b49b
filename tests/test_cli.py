import csv
import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

import tstransfer.cli as cli
import tstransfer.harness as harness
from helpers import make_sine_dataset, record_calls
from tstransfer import (
    TrainConfig,
    evaluate,
    load_model,
    load_ucr_dataset,
    run_matrix,
    save_model,
    save_ucr_dataset,
)
from tstransfer.cli import _train_config, build_parser, main


@pytest.fixture()
def data_dir(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    freq_sets = {"A": (2.0, 5.0), "B": (2.2, 5.5), "C": (8.0, 12.0)}
    for k, (name, freqs) in enumerate(freq_sets.items()):
        ds = make_sine_dataset(
            name, freqs, n_train=8, n_test=6, length=16, seed=60 + k
        )
        save_ucr_dataset(ds, root / f"{name}_TRAIN.tsv", root / f"{name}_TEST.tsv",
                         delimiter="\t")
    return root


def run(args):
    return main([str(a) for a in args])


class TestTrainAndTransfer:
    def test_train_then_transfer(self, tmp_path, data_dir, capsys):
        model_path = tmp_path / "a.fcn"
        rc = run(["train", "A", "--data", data_dir, "--epochs", "2",
                  "--batch", "8", "--seed", "1", "--out", model_path])
        assert rc == 0
        assert model_path.exists()
        out = capsys.readouterr().out
        assert "trained A" in out and "test accuracy" in out

        tuned_path = tmp_path / "ab.fcn"
        rc = run(["transfer", "--source", model_path, "--target", "B",
                  "--data", data_dir, "--epochs", "2", "--batch", "8",
                  "--seed", "2", "--out", tuned_path])
        assert rc == 0
        assert tuned_path.exists()
        out = capsys.readouterr().out
        assert "fine-tuned on B" in out
        lines = out.splitlines()
        assert any(line.startswith("best epoch ") for line in lines)
        assert any(line.startswith("test accuracy ") for line in lines)
        assert f"saved model to {tuned_path}" in lines

    def test_train_writes_the_model_the_matrix_pretrains(
        self, tmp_path, data_dir, capsys, monkeypatch
    ):
        model_path = tmp_path / "a.fcn"
        assert run(["train", "A", "--data", data_dir, "--epochs", "2",
                    "--batch", "8", "--seed", "4", "--out", model_path]) == 0
        printed = capsys.readouterr().out.splitlines()

        datasets = [load_ucr_dataset(data_dir / f"{name}_TRAIN.tsv",
                                     data_dir / f"{name}_TEST.tsv", name)
                    for name in "AB"]
        tunes = record_calls(monkeypatch, harness, "fine_tune")
        matrix = run_matrix(datasets, TrainConfig(epochs=2, batch_size=8), seeds=[4],
                            out_dir=tmp_path / "res")
        (pretrained,) = [a["pretrained"] for _, a in tunes if a["target"].name == "B"]
        matrix_path = tmp_path / "matrix_a.fcn"
        save_model(pretrained, matrix_path)
        assert model_path.read_bytes() == matrix_path.read_bytes()
        baseline = matrix.cells[("B", "A")]["baseline_accuracy"]
        assert f"test accuracy {baseline:.4f}" in printed

    def test_train_then_transfer_writes_the_matrix_cell(
        self, tmp_path, data_dir, monkeypatch
    ):
        source, tuned = tmp_path / "a.fcn", tmp_path / "ab.fcn"
        opts = ["--data", data_dir, "--epochs", "2", "--batch", "8", "--seed", "4"]
        assert run(["train", "A", *opts, "--out", source]) == 0
        assert run(["transfer", "--source", source, "--target", "B", *opts,
                    "--out", tuned]) == 0

        fine_tuned = {}
        real = harness.fine_tune

        def keep(pretrained, target, config, seed):
            fine_tuned[target.name], history = real(pretrained, target, config, seed)
            return fine_tuned[target.name], history

        monkeypatch.setattr(harness, "fine_tune", keep)
        out = tmp_path / "res"
        assert run(["matrix", "--datasets", "A,B", "--out-dir", out, "--seeds", "1",
                    *opts]) == 0
        expected = tmp_path / "expected.fcn"
        save_model(fine_tuned["B"], expected)
        assert tuned.read_bytes() == expected.read_bytes()
        cell = json.loads((out / "cells" / "A__B.json").read_text())
        target = load_ucr_dataset(data_dir / "B_TRAIN.tsv", data_dir / "B_TEST.tsv", "B")
        accuracy = evaluate(load_model(tuned), target.test)
        assert accuracy == cell["results"][0]["transfer_accuracy"]

    def test_unknown_dataset_is_reported(self, data_dir, capsys):
        rc = run(["train", "Nope", "--data", data_dir, "--epochs", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    def test_training_defaults_are_the_train_config_defaults(self):
        for argv in (["train", "NAME", "--data", "D"],
                     ["transfer", "--source", "m.fcn", "--target", "T", "--data", "D"],
                     ["matrix", "--data", "D", "--datasets", "A,B", "--out-dir", "O"]):
            assert _train_config(build_parser().parse_args(argv)) == TrainConfig()

    def test_train_config_is_the_schedule_and_seed(self):
        assert [f.name for f in fields(TrainConfig)] == [
            "epochs", "batch_size", "learning_rate", "seed"]
        argv = ["train", "NAME", "--data", "D", "--epochs", "7", "--batch", "3",
                "--lr", "0.25"]
        assert _train_config(build_parser().parse_args(argv)) == TrainConfig(
            epochs=7, batch_size=3, learning_rate=0.25)

    @pytest.mark.parametrize("command, lr", [
        ("train", "nan"), ("transfer", "nan"), ("matrix", "inf"), ("matrix", "-1"),
    ])
    def test_a_bad_learning_rate_fails_before_loading_data(
        self, tmp_path, data_dir, capsys, monkeypatch, command, lr
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("loaded data before checking the learning rate")

        monkeypatch.setattr(cli, "_load_dataset", refuse)
        monkeypatch.setattr(cli, "load_model", refuse)
        argv = {
            "train": ["train", "A", "--data", data_dir],
            "transfer": ["transfer", "--source", tmp_path / "a.fcn", "--target", "B",
                         "--data", data_dir],
            "matrix": ["matrix", "--data", data_dir, "--datasets", "A,B",
                       "--out-dir", tmp_path / "out"],
        }[command]
        assert run([*argv, "--epochs", "1", "--lr", lr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: learning_rate must be finite and positive")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, message", [
        (["--seeds", "0"], "seeds must be >= 1, got 0"),
    ], ids=["seeds"])
    def test_a_bad_count_fails_before_loading_data(
        self, tmp_path, data_dir, capsys, monkeypatch, option, message
    ):
        # "Missing" has no files: the count is reported, not the missing file.
        def refuse(*args, **kwargs):
            raise AssertionError("loaded data before checking the count")

        monkeypatch.setattr(cli, "_load_dataset", refuse)
        assert run(["matrix", "--data", data_dir, "--datasets", "A,Missing",
                    "--out-dir", tmp_path / "out", "--epochs", "1", *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_bad_model_file_is_reported(self, tmp_path, data_dir, capsys):
        bad = tmp_path / "bad.fcn"
        bad.write_bytes(b"not a model file at all")
        rc = run(["transfer", "--source", bad, "--target", "B", "--data", data_dir,
                  "--epochs", "1"])
        assert rc == 2
        assert "bad magic" in capsys.readouterr().err

    def test_directory_as_model_file_is_reported(self, tmp_path, data_dir, capsys):
        rc = run(["transfer", "--source", tmp_path, "--target", "B", "--data",
                  data_dir, "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_train_out_without_directory_fails_before_training(
        self, tmp_path, data_dir, capsys
    ):
        out = tmp_path / "nodir" / "m.fcn"
        rc = run(["train", "A", "--data", data_dir, "--epochs", "1", "--out", out])
        assert rc == 2
        captured = capsys.readouterr()
        assert "trained" not in captured.out
        assert captured.err.startswith("error: ") and "nodir" in captured.err
        assert not out.parent.exists()

    def test_transfer_out_without_directory_fails_before_training(
        self, tmp_path, data_dir, capsys
    ):
        source = tmp_path / "a.fcn"
        assert run(["train", "A", "--data", data_dir, "--epochs", "1",
                    "--out", source]) == 0
        capsys.readouterr()
        rc = run(["transfer", "--source", source, "--target", "B", "--data",
                  data_dir, "--epochs", "1", "--out", tmp_path / "nodir" / "b.fcn"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "fine-tuned" not in captured.out
        assert captured.err.startswith("error: ") and "nodir" in captured.err

    @pytest.mark.parametrize("command", ["similarity", "rank", "report", "aggregate"])
    def test_out_without_directory_fails_before_computing(
        self, tmp_path, data_dir, capsys, monkeypatch, command
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before checking the output directory")

        for name in ("similarity_matrix", "read_matrix_csv", "load_matrix_results"):
            monkeypatch.setattr(cli, name, refuse)
        nodir = tmp_path / "nodir"
        report = ["report", "--results", tmp_path, "--matrix", tmp_path / "m.csv"]
        argv = {
            "similarity": ["similarity", "--data", data_dir, "--datasets", "A,B",
                           "--out", nodir / "m.csv"],
            "rank": ["rank", "--matrix", tmp_path / "m.csv", "--target", "A",
                     "--out", nodir / "r.json"],
            "report": [*report, "--out", nodir / "report.json"],
            "aggregate": [*report, "--out", tmp_path / "report.json",
                          "--aggregate-out", nodir / "agg.csv"],
        }[command]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nodir" in err
        assert not list(tmp_path.glob("report*"))

    def test_module_runs_as_a_script(self):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "tstransfer", "--help"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: tstransfer")


class TestSimilarityRankPipeline:
    def test_similarity_then_rank(self, tmp_path, data_dir):
        matrix_path = tmp_path / "matrix.csv"
        rc = run(["similarity", "--data", data_dir, "--datasets", "A,B,C",
                  "--out", matrix_path])
        assert rc == 0
        rows = list(csv.reader(matrix_path.read_text().splitlines()))
        assert rows[0] == ["", "A", "B", "C"]

        ranking_path = tmp_path / "ranking.json"
        rc = run(["rank", "--matrix", matrix_path, "--target", "A",
                  "--out", ranking_path])
        assert rc == 0
        data = json.loads(ranking_path.read_text())
        assert data["target"] == "A"
        assert [e["rank"] for e in data["ranking"]] == [1, 2]
        assert {e["source"] for e in data["ranking"]} == {"B", "C"}
        dists = [e["distance"] for e in data["ranking"]]
        assert dists == sorted(dists)

    def test_unknown_target_is_reported_without_quotes(self, tmp_path, data_dir, capsys):
        matrix_path = tmp_path / "matrix.csv"
        assert run(["similarity", "--data", data_dir, "--datasets", "A,B",
                    "--out", matrix_path]) == 0
        capsys.readouterr()
        assert run(["rank", "--matrix", matrix_path, "--target", "Z",
                    "--out", tmp_path / "r.json"]) == 2
        assert capsys.readouterr().err == "error: unknown target dataset 'Z'\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("content", [
        b",a,b\na,0,1\nb,1,\xff0\n", b",a,b\na,0," + b"1" * 131073 + b"\nb,1,0\n",
    ], ids=["0xff-byte", "cell-beyond-the-csv-limit"])
    def test_a_matrix_csv_the_reader_refuses_is_named(self, tmp_path, capsys, content):
        matrix_path = tmp_path / "matrix.csv"
        matrix_path.write_bytes(content)
        assert run(["rank", "--matrix", matrix_path, "--target", "a",
                    "--out", tmp_path / "r.json"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {matrix_path}")
        assert not (tmp_path / "r.json").exists()

    def test_dba_iters_is_an_unknown_option(self, tmp_path, data_dir, capsys):
        matrix_path = tmp_path / "matrix.csv"
        with pytest.raises(SystemExit) as exc:
            run(["similarity", "--data", data_dir, "--datasets", "A,B",
                 "--out", matrix_path, "--dba-iters", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dba-iters 3" in capsys.readouterr().err
        assert not matrix_path.exists()


class TestMatrixReportPipeline:
    def test_full_pipeline(self, tmp_path, data_dir):
        matrix_path = tmp_path / "matrix.csv"
        assert run(["similarity", "--data", data_dir, "--datasets", "A,B,C",
                    "--out", matrix_path]) == 0

        results = tmp_path / "results"
        rc = run(["matrix", "--data", data_dir, "--datasets", "A,B,C",
                  "--out-dir", results, "--epochs", "2", "--batch", "8",
                  "--seed", "3"])
        assert rc == 0
        cells = list((results / "cells").glob("*.json"))
        assert len(cells) == 6
        vm = list(csv.reader((results / "variation_matrix.csv").read_text()
                             .splitlines()))
        assert vm[0] == ["", "A", "B", "C"]
        assert len(vm) == 4

        report_path = tmp_path / "report.json"
        rc = run(["report", "--results", results, "--matrix", matrix_path,
                  "--out", report_path])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert set(report["targets"]) == {"A", "B", "C"}
        assert sum(report["totals"].values()) == 3
        agg_path = tmp_path / "report.aggregate.csv"
        assert agg_path.exists()

    def test_report_names_a_dataset_whose_every_cell_failed(
        self, tmp_path, data_dir, monkeypatch, capsys
    ):
        matrix_path = tmp_path / "matrix.csv"
        assert run(["similarity", "--data", data_dir, "--datasets", "A,B,C",
                    "--out", matrix_path]) == 0
        record_calls(monkeypatch, harness, "run_pair",
                     fail=lambda a: "C" in (a["source"].name, a["target"].name))
        results = tmp_path / "results"
        assert run(["matrix", "--data", data_dir, "--datasets", "A,B,C",
                    "--out-dir", results, "--epochs", "1", "--batch", "8"]) == 1
        capsys.readouterr()

        report_path = tmp_path / "report.json"
        assert run(["report", "--results", results, "--matrix", matrix_path,
                    "--out", report_path]) == 0
        assert "over 2 targets; no completed cell for C" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert set(report["targets"]) == {"A", "B"}
        assert len(report["failures"]) == 4

    def test_report_over_a_similarity_matrix_wider_than_the_run(
        self, tmp_path, data_dir
    ):
        extra = make_sine_dataset("D", (2.1, 5.2), n_train=8, n_test=6, length=16,
                                  seed=63)
        save_ucr_dataset(extra, data_dir / "D_TRAIN.tsv", data_dir / "D_TEST.tsv",
                         delimiter="\t")
        matrix_path = tmp_path / "matrix.csv"
        assert run(["similarity", "--data", data_dir, "--datasets", "A,B,C,D",
                    "--out", matrix_path]) == 0
        results = tmp_path / "results"
        assert run(["matrix", "--data", data_dir, "--datasets", "A,B,C",
                    "--out-dir", results, "--epochs", "1", "--batch", "8"]) == 0

        report_path = tmp_path / "report.json"
        assert run(["report", "--results", results, "--matrix", matrix_path,
                    "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert set(report["targets"]) == {"A", "B", "C"}
        for target, entry in report["targets"].items():
            ranked = {entry["smart"][f"rank{k}"]["source"] for k in (1, 2)}
            assert ranked == {"A", "B", "C"} - {target}
            assert entry["smart"]["rank3"] is None
