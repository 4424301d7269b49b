import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_random_dataset
from tstransfer import (
    ClassPrototypes,
    DataValidationError,
    Dataset,
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


class TestReduceDataset:
    def test_one_series_per_class_is_verbatim(self):
        train = (LabeledSeries([0.0, 1.0], 0), LabeledSeries([2.0, 3.0], 1))
        ds = Dataset(name="d", train=train, test=(), class_count=2)
        out = reduce_dataset(ds)
        assert np.array_equal(out.prototypes[0], [0.0, 1.0])
        assert np.array_equal(out.prototypes[1], [2.0, 3.0])

    def test_identical_series_class_collapses_to_it(self):
        s = np.array([0.5, -0.5, 0.25])
        train = tuple(LabeledSeries(s, 0) for _ in range(4)) + (
            LabeledSeries([1.0, 1.0, 1.0], 1),
        )
        ds = Dataset(name="d", train=train, test=(), class_count=2)
        out = reduce_dataset(ds)
        assert np.array_equal(out.prototypes[0], s)

    def test_matches_direct_dba_of_class_groups(self):
        rng = np.random.default_rng(4)
        ds = make_random_dataset("d", rng, n_train=8, length=6, classes=2)
        out = reduce_dataset(ds)
        groups = group_by_class(ds.train)
        for c in (0, 1):
            assert np.array_equal(out.prototypes[c], dba_average(groups[c]))

    def test_uses_train_only(self):
        rng = np.random.default_rng(5)
        ds = make_random_dataset("d", rng, n_train=6, n_test=4, length=6)
        stripped = Dataset(name="d", train=ds.train, test=(), class_count=2)
        a = reduce_dataset(ds)
        b = reduce_dataset(stripped)
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
            similarity_matrix([make_random_dataset("a", rng)])

    def test_duplicate_names_rejected(self):
        rng = np.random.default_rng(9)
        ds = [make_random_dataset("same", rng), make_random_dataset("same", rng)]
        with pytest.raises(DataValidationError):
            similarity_matrix(ds)

    def test_identical_datasets_have_zero_distance(self):
        rng = np.random.default_rng(10)
        a = make_random_dataset("a", rng, n_train=6, length=8)
        b = Dataset(name="b", train=a.train, test=a.test, class_count=a.class_count)
        m = similarity_matrix([a, b])
        assert m.distance("a", "b") == 0.0

    def test_structure_and_reference_equality(self):
        rng = np.random.default_rng(11)
        datasets = [
            make_random_dataset(n, rng, n_train=6, length=7) for n in ("a", "b", "c")
        ]
        m = similarity_matrix(datasets)
        assert np.array_equal(m.values, m.values.T)
        assert np.array_equal(np.diag(m.values), np.zeros(3))
        # naive double loop over the same prototypes
        reduced = [reduce_dataset(d) for d in datasets]
        for i in range(3):
            for j in range(3):
                expected = 0.0 if i == j else dataset_distance(reduced[i], reduced[j])
                assert m.values[i, j] == expected

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        datasets = [
            make_random_dataset(n, rng, n_train=5, length=6) for n in ("a", "b", "c")
        ]
        m = similarity_matrix(datasets)
        perm = similarity_matrix([datasets[2], datasets[0], datasets[1]])
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

        def counting(dataset):
            calls.append(dataset.name)
            return real(dataset)

        monkeypatch.setattr(sim, "reduce_dataset", counting)
        sim.similarity_matrix(datasets)
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
        m1 = similarity_matrix(datasets)
        m2 = similarity_matrix(stripped)
        assert np.array_equal(m1.values, m2.values)

    def test_matrix_validation(self):
        with pytest.raises(DataValidationError, match="symmetric"):
            SimilarityMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(DataValidationError, match="diagonal"):
            SimilarityMatrix(("a", "b"), np.array([[1.0, 2.0], [2.0, 0.0]]))


def _digest(values) -> str:
    data = np.ascontiguousarray(values, "<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _random_walk_archive():
    """Four datasets of lengths 9, 13, 16 and 11, three members per class.

    Random walks, unlike sines, need no libm call, so the digests below
    rest on IEEE add, multiply, divide and min alone and hold on any CPU
    and thread count.
    """
    rng = np.random.default_rng(20)
    datasets = []
    shapes = (("A", 9, 2), ("B", 13, 3), ("C", 16, 2), ("D", 11, 2))
    for name, length, classes in shapes:
        train = tuple(
            LabeledSeries(np.cumsum(rng.standard_normal(length)), k % classes)
            for k in range(3 * classes)
        )
        datasets.append(Dataset(name=name, train=train, test=(), class_count=classes))
    return datasets


class TestPinnedBits:
    """SHA-256 prefixes of DTW and DBA outputs, pinned across commits."""

    def test_similarity_matrix(self):
        values = similarity_matrix(_random_walk_archive()).values
        assert _digest(values) == "26647ebefbd45483"

    def test_prototypes(self):
        expected = {
            "A": ["5e8a7291e338b725", "b94c8ec070858fca"],
            "B": ["499b39979f8ec949", "99fdfe745a95d082", "508c638582e0dfbc"],
            "C": ["50d31b54a4e562b6", "20a9ad2d9165e065"],
            "D": ["4e2aed92b7121dc4", "2ff8fd782d8af270"],
        }
        for ds in _random_walk_archive():
            prototypes = reduce_dataset(ds).prototypes
            digests = [_digest(prototypes[c]) for c in sorted(prototypes)]
            assert digests == expected[ds.name]


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
        m = similarity_matrix(datasets)
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
        m = similarity_matrix(datasets)
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

    @pytest.mark.parametrize("cell", ["1_5", "\u0661.5", "1.5\u00a0"])
    def test_matrix_csv_number_spelt_only_for_python_is_rejected(self, tmp_path, cell):
        # float() reads "1_5" as 15.0 and "\u0661.5" (Arabic-Indic one) as 1.5
        path = tmp_path / "matrix.csv"
        path.write_text(f",a,b\na,0,{cell}\nb,{cell},0\n", encoding="utf-8")
        with pytest.raises(DataValidationError,
                           match=r"matrix\.csv:2: values must be ASCII decimals"):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [(",a,b\na,0,1\nb,2,0\n", "matrix must be exactly symmetric"),
         (",a,a\na,0,1\na,1,0\n", "duplicate dataset names in matrix")],
        ids=["asymmetric", "duplicate-name"],
    )
    def test_matrix_csv_bad_matrix_names_file(self, tmp_path, text, message):
        path = tmp_path / "matrix.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataValidationError, match=rf"matrix\.csv: {message}$"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("content, message", [
        (b",a,b\na,0,1\nb,1,\xff0\n", "matrix.csv: not UTF-8 text: "),
        (b",a,b\na,0," + b"1" * 131073 + b"\nb,1,0\n",
         "matrix.csv:2: field larger than field limit (131072)"),
    ], ids=["0xff-byte", "cell-beyond-the-csv-limit"])
    def test_matrix_csv_the_reader_refuses_names_the_file(self, tmp_path, content,
                                                          message):
        path = tmp_path / "matrix.csv"
        path.write_bytes(content)
        with pytest.raises(DataValidationError) as info:
            read_matrix_csv(path)
        assert str(info.value).startswith(f"{tmp_path / message}")

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


@st.composite
def matrix_csv_bytes(draw):
    """A matrix CSV as written, with random bytes spliced in somewhere."""
    n = draw(st.integers(1, 3))
    upper = draw(st.lists(st.floats(0, 10), min_size=n * n, max_size=n * n))
    values = np.triu(np.reshape(upper, (n, n)), 1)
    values = values + values.T
    names = [f"d{k}" for k in range(n)]
    text = "".join(",".join(row) + "\n" for row in [["", *names]] + [
        [name, *map(repr, row.tolist())] for name, row in zip(names, values)
    ]).encode("utf-8")
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.binary(max_size=4)) + text[at:]


class TestMatrixCsvFuzz:
    @pytest.fixture(scope="class")
    def fuzz_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("csv") / "matrix.csv"

    @settings(max_examples=300, deadline=None)
    @given(blob=st.binary(max_size=32) | matrix_csv_bytes())
    def test_input_parses_or_raises_a_data_error(self, fuzz_path, blob):
        fuzz_path.write_bytes(blob)
        try:
            matrix = read_matrix_csv(fuzz_path)
        except DataValidationError as exc:
            assert str(exc).startswith(str(fuzz_path))
            return
        assert isinstance(matrix, SimilarityMatrix)
