import csv
import json

import pytest

from helpers import make_sine_dataset
from tstransfer import TrainConfig, save_ucr_dataset
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

    def test_unknown_dataset_is_reported(self, data_dir, capsys):
        rc = run(["train", "Nope", "--data", data_dir, "--epochs", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    def test_training_defaults_are_the_train_config_defaults(self):
        for argv in (["train", "NAME", "--data", "D"],
                     ["transfer", "--source", "m.fcn", "--target", "T", "--data", "D"],
                     ["matrix", "--data", "D", "--datasets", "A,B", "--out-dir", "O"]):
            assert _train_config(build_parser().parse_args(argv)) == TrainConfig()


class TestSimilarityRankPipeline:
    def test_similarity_then_rank(self, tmp_path, data_dir):
        matrix_path = tmp_path / "matrix.csv"
        rc = run(["similarity", "--data", data_dir, "--datasets", "A,B,C",
                  "--out", matrix_path, "--dba-iters", "3"])
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


class TestMatrixReportPipeline:
    def test_full_pipeline(self, tmp_path, data_dir):
        matrix_path = tmp_path / "matrix.csv"
        assert run(["similarity", "--data", data_dir, "--datasets", "A,B,C",
                    "--out", matrix_path, "--dba-iters", "2"]) == 0

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
                  "--out", report_path, "--random-iters", "50"])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert set(report["targets"]) == {"A", "B", "C"}
        assert sum(report["totals"].values()) == 3
        agg_path = tmp_path / "report.aggregate.csv"
        assert agg_path.exists()
