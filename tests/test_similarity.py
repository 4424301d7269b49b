import json

import numpy as np
import pytest

from helpers import make_random_dataset
from tstransfer import (
    ClassPrototypes,
    DataValidationError,
    Dataset,
    DbaConfig,
    LabeledSeries,
    SimilarityMatrix,
    dataset_distance,
    dba_average,
    dtw_distance,
    group_by_class,
    rank_sources,
    read_matrix_csv,
    reduce_dataset,
    similarity_matrix,
    write_matrix_csv,
    write_ranking_json,
)

FAST_DBA = DbaConfig(iterations=2)


class TestReduceDataset:
    def test_one_series_per_class_is_verbatim(self):
        train = (LabeledSeries([0.0, 1.0], 0), LabeledSeries([2.0, 3.0], 1))
        ds = Dataset(name="d", train=train, test=(), class_count=2)
        out = reduce_dataset(ds, FAST_DBA)
        assert np.array_equal(out.prototypes[0], [0.0, 1.0])
        assert np.array_equal(out.prototypes[1], [2.0, 3.0])

    def test_identical_series_class_collapses_to_it(self):
        s = np.array([0.5, -0.5, 0.25])
        train = tuple(LabeledSeries(s, 0) for _ in range(4)) + (
            LabeledSeries([1.0, 1.0, 1.0], 1),
        )
        ds = Dataset(name="d", train=train, test=(), class_count=2)
        out = reduce_dataset(ds, DbaConfig(iterations=10))
        assert np.array_equal(out.prototypes[0], s)

    def test_matches_direct_dba_of_class_groups(self):
        rng = np.random.default_rng(4)
        ds = make_random_dataset("d", rng, n_train=8, length=6, classes=2)
        out = reduce_dataset(ds, FAST_DBA)
        groups = group_by_class(ds.train)
        for c in (0, 1):
            assert np.array_equal(out.prototypes[c], dba_average(groups[c], FAST_DBA))

    def test_uses_train_only(self):
        rng = np.random.default_rng(5)
        ds = make_random_dataset("d", rng, n_train=6, n_test=4, length=6)
        stripped = Dataset(name="d", train=ds.train, test=(), class_count=2)
        a = reduce_dataset(ds, FAST_DBA)
        b = reduce_dataset(stripped, FAST_DBA)
        for c in (0, 1):
            assert np.array_equal(a.prototypes[c], b.prototypes[c])


class TestDatasetDistance:
    def test_identical_prototype_sets_give_zero(self):
        mapping = {0: np.array([0.0, 1.0]), 1: np.array([2.0, 0.5])}
        a = ClassPrototypes("a", mapping)
        b = ClassPrototypes("b", {c: v.copy() for c, v in mapping.items()})
        assert dataset_distance(a, b) == 0.0

    def test_exact_match_pair_gives_zero(self):
        a = ClassPrototypes("a", {0: np.array([0.0, 0.0])})
        b = ClassPrototypes("b", {0: np.array([1.0, 1.0]), 1: np.array([0.0, 0.0])})
        assert dataset_distance(a, b) == 0.0

    def test_single_pair_value(self):
        a = ClassPrototypes("a", {0: np.array([0.0, 0.0])})
        b = ClassPrototypes("b", {0: np.array([1.0, 1.0])})
        assert dataset_distance(a, b) == 2.0

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        a = ClassPrototypes("a", {c: rng.standard_normal(5) for c in range(3)})
        b = ClassPrototypes("b", {c: rng.standard_normal(7) for c in range(2)})
        assert dataset_distance(a, b) == dataset_distance(b, a)

    def test_is_min_over_pairs(self):
        rng = np.random.default_rng(7)
        a = ClassPrototypes("a", {c: rng.standard_normal(4) for c in range(2)})
        b = ClassPrototypes("b", {c: rng.standard_normal(6) for c in range(3)})
        expected = min(
            dtw_distance(pa, pb)
            for pa in a.prototypes.values()
            for pb in b.prototypes.values()
        )
        assert dataset_distance(a, b) == expected


class TestSimilarityMatrix:
    def test_needs_two_datasets(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            similarity_matrix([make_random_dataset("a", rng)], FAST_DBA)

    def test_duplicate_names_rejected(self):
        rng = np.random.default_rng(9)
        ds = [make_random_dataset("same", rng), make_random_dataset("same", rng)]
        with pytest.raises(DataValidationError):
            similarity_matrix(ds, FAST_DBA)

    def test_identical_datasets_have_zero_distance(self):
        rng = np.random.default_rng(10)
        a = make_random_dataset("a", rng, n_train=6, length=8)
        b = Dataset(name="b", train=a.train, test=a.test, class_count=a.class_count)
        m = similarity_matrix([a, b], FAST_DBA)
        assert m.distance("a", "b") == 0.0

    def test_structure_and_reference_equality(self):
        rng = np.random.default_rng(11)
        datasets = [
            make_random_dataset(n, rng, n_train=6, length=7) for n in ("a", "b", "c")
        ]
        m = similarity_matrix(datasets, FAST_DBA)
        assert np.array_equal(m.values, m.values.T)
        assert np.array_equal(np.diag(m.values), np.zeros(3))
        # naive double loop over the same prototypes
        reduced = [reduce_dataset(d, FAST_DBA) for d in datasets]
        for i in range(3):
            for j in range(3):
                expected = 0.0 if i == j else dataset_distance(reduced[i], reduced[j])
                assert m.values[i, j] == expected

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        datasets = [
            make_random_dataset(n, rng, n_train=5, length=6) for n in ("a", "b", "c")
        ]
        m = similarity_matrix(datasets, FAST_DBA)
        perm = similarity_matrix([datasets[2], datasets[0], datasets[1]], FAST_DBA)
        for x in "abc":
            for y in "abc":
                assert m.distance(x, y) == perm.distance(x, y)

    def test_each_dataset_reduced_exactly_once(self, monkeypatch):
        import tstransfer.similarity as sim

        rng = np.random.default_rng(16)
        datasets = [
            make_random_dataset(n, rng, n_train=5, length=6) for n in ("a", "b", "c")
        ]
        calls = []
        real = sim.reduce_dataset

        def counting(dataset, config):
            calls.append(dataset.name)
            return real(dataset, config)

        monkeypatch.setattr(sim, "reduce_dataset", counting)
        sim.similarity_matrix(datasets, FAST_DBA)
        assert sorted(calls) == ["a", "b", "c"]

    def test_test_split_deletion_invariance(self):
        rng = np.random.default_rng(13)
        datasets = [
            make_random_dataset(n, rng, n_train=5, n_test=3, length=6)
            for n in ("a", "b")
        ]
        stripped = [
            Dataset(name=d.name, train=d.train, test=(), class_count=d.class_count)
            for d in datasets
        ]
        m1 = similarity_matrix(datasets, FAST_DBA)
        m2 = similarity_matrix(stripped, FAST_DBA)
        assert np.array_equal(m1.values, m2.values)

    def test_matrix_validation(self):
        with pytest.raises(DataValidationError, match="symmetric"):
            SimilarityMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(DataValidationError, match="diagonal"):
            SimilarityMatrix(("a", "b"), np.array([[1.0, 2.0], [2.0, 0.0]]))


class TestRankSources:
    def _matrix(self, names, values):
        return SimilarityMatrix(tuple(names), np.asarray(values, float))

    def test_two_datasets(self):
        m = self._matrix("ab", [[0, 3], [3, 0]])
        r = rank_sources(m, "a")
        assert r.ranked == (("b", 3.0),)

    def test_sorted_ascending(self):
        m = self._matrix("abc", [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        r = rank_sources(m, "a")
        assert [name for name, _ in r.ranked] == ["b", "c"]
        assert r.source_at(1) == "b"

    def test_ties_break_lexicographically(self):
        m = self._matrix("abc", [[0, 2, 2], [2, 0, 1], [2, 1, 0]])
        r = rank_sources(m, "a")
        assert [name for name, _ in r.ranked] == ["b", "c"]

    def test_excludes_target_and_has_full_length(self):
        rng = np.random.default_rng(14)
        datasets = [
            make_random_dataset(n, rng, n_train=5, length=6)
            for n in ("a", "b", "c", "d")
        ]
        m = similarity_matrix(datasets, FAST_DBA)
        for t in "abcd":
            r = rank_sources(m, t)
            assert len(r.ranked) == 3
            assert t not in [name for name, _ in r.ranked]
            dists = [d for _, d in r.ranked]
            assert dists == sorted(dists)

    def test_unknown_target(self):
        m = self._matrix("ab", [[0, 1], [1, 0]])
        with pytest.raises(KeyError):
            rank_sources(m, "zzz")


class TestExports:
    def test_matrix_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        datasets = [
            make_random_dataset(n, rng, n_train=5, length=6) for n in ("a", "b", "c")
        ]
        m = similarity_matrix(datasets, FAST_DBA)
        path = tmp_path / "matrix.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert back.names == m.names
        assert np.array_equal(back.values, m.values)

    @pytest.mark.parametrize(
        "row, message",
        [("b,1.5,0", r"matrix\.csv:3: expected 4 cells, got 3"),
         ("b,1.5,0,x", r"matrix\.csv:3: could not convert string to float: 'x'")],
        ids=["too-few-cells", "not-a-number"],
    )
    def test_matrix_csv_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "matrix.csv"
        path.write_text(f",a,b,c\na,0,1.5,0.5\n{row}\nc,0.5,2,0\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=message):
            read_matrix_csv(path)

    def test_ranking_json_schema(self, tmp_path):
        m = SimilarityMatrix(
            ("a", "b", "c"), np.array([[0, 1.5, 0.5], [1.5, 0, 2], [0.5, 2, 0]])
        )
        path = tmp_path / "ranking.json"
        write_ranking_json(rank_sources(m, "a"), path)
        data = json.loads(path.read_text())
        assert data["target"] == "a"
        assert data["ranking"][0] == {"source": "c", "distance": 0.5, "rank": 1}
        assert data["ranking"][1]["rank"] == 2
