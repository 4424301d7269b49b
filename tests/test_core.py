import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_random_dataset
from tstransfer import (
    DataValidationError,
    Dataset,
    LabeledSeries,
    TrainConfig,
    UcrParseError,
    adam_step,
    as_series,
    build_model,
    dba_average,
    dba_iteration,
    dtw_distance,
    dtw_path,
    evaluate,
    find_ucr_pair,
    forward,
    group_by_class,
    init_adam_state,
    load_ucr_dataset,
    loss_and_gradients,
    medoid,
    pairwise_dtw_matrix,
    run_matrix,
    save_ucr_dataset,
    similarity_matrix,
    swap_head,
    train,
    z_normalize,
)
from tstransfer.core import _parse_ucr_file


class TestZNormalize:
    def test_constant_series_maps_to_zeros(self):
        assert np.array_equal(z_normalize([0, 0, 0, 0]), np.zeros(4))
        assert np.array_equal(z_normalize([5.5, 5.5]), np.zeros(2))

    def test_two_point_closed_form(self):
        # mean 2, population std 1
        assert np.array_equal(z_normalize([1, 3]), np.array([-1.0, 1.0]))

    def test_mean_zero_std_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.standard_normal(rng.integers(2, 50)) * rng.uniform(0.5, 10)
            out = z_normalize(s)
            assert abs(out.mean()) < 1e-12
            assert abs(out.std() - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = z_normalize(rng.standard_normal(rng.integers(2, 40)))
            again = z_normalize(out)
            assert np.abs(again - out).max() < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(DataValidationError):
            z_normalize([1.0, np.nan])
        with pytest.raises(DataValidationError):
            z_normalize([np.inf, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(DataValidationError):
            z_normalize([])


def _model():
    return build_model(2, seed=5, filters=(4, 6, 3))


# Every public entry point that takes series, called with one series s; each
# returns a value that a scalar s and its one-sample array give alike.
ENTRY_POINTS = {
    "dtw_distance": lambda s: dtw_distance(s, [0.0, 1.0]),
    "dtw_path": lambda s: dtw_path([0.0, 1.0], s),
    "pairwise_dtw_matrix": lambda s: pairwise_dtw_matrix([[1.0, 2.0], s]),
    "medoid_of_one": lambda s: medoid([s]),
    "medoid_of_two": lambda s: medoid([[1.0, 2.0], s]),
    "dba_iteration": lambda s: dba_iteration([0.0, 1.0], [[1.0, 2.0], s]),
    "dba_average": lambda s: dba_average([[1.0, 2.0], s]),
    "forward": lambda s: forward(_model(), [np.zeros(8), s]),
    "evaluate": lambda s: evaluate(_model(), [(np.zeros(8), 0), (s, 1)]),
    "loss_and_gradients": lambda s: loss_and_gradients(_model(), [(s, 0), (s, 1)])[0],
    "train": lambda s: train(_model(), [(s, k % 2) for k in range(4)],
                             TrainConfig(epochs=1, batch_size=4))[1].losses,
    "LabeledSeries": lambda s: LabeledSeries(s, 0).series,
}


class TestOneSeriesRule:
    """`as_series` decides for every entry point what a valid series is."""

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("bad, match", [
        (np.zeros((8, 2)), r"one-dimensional, got shape \(8, 2\)"),
        (np.zeros(0), "at least one sample"),
        (np.array([0.5, np.nan, -1.0]), "non-finite"),
        (np.array([0.5, np.inf, -1.0]), "non-finite"),
    ], ids=["2-D", "empty", "nan", "inf"])
    def test_rejects(self, name, bad, match):
        with pytest.raises(DataValidationError, match=match):
            ENTRY_POINTS[name](bad)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_scalar_is_a_one_sample_series(self, name):
        scalar, array = ENTRY_POINTS[name](3.0), ENTRY_POINTS[name](np.array([3.0]))
        if isinstance(array, np.ndarray):
            assert np.array_equal(scalar, array)
        else:
            assert scalar == array


def _dataset(class_count):
    split = (LabeledSeries([1.0], 0), LabeledSeries([2.0], 1))
    return Dataset(name="d", train=split, test=(), class_count=class_count)


def _adam_step(t):
    m = _model()
    zero_grads = init_adam_state(m).m
    return adam_step(m, zero_grads, init_adam_state(m), t, TrainConfig())


_S, _S2 = np.zeros(8), np.ones(8)

# Every entry point that takes a count, a label or a seed, called with a bad
# one, and the name its DataValidationError gives the argument.
BAD_INTEGERS = {
    "LabeledSeries-float": (lambda: LabeledSeries(_S, 0.9), "label"),
    "LabeledSeries-str": (lambda: LabeledSeries(_S, "1"), "label"),
    "LabeledSeries-bool": (lambda: LabeledSeries(_S, True), "label"),
    "loss_and_gradients": (
        lambda: loss_and_gradients(_model(), [(_S, 1.7), (_S, 0)]), "label"),
    "train": (lambda: train(_model(), [(_S, 0.5), (_S2, 1.9)],
                            TrainConfig(epochs=1)), "label"),
    "evaluate": (lambda: evaluate(_model(), [(_S, True), (_S, 0)]), "label"),
    "build_model-class_count": (lambda: build_model(2.5, 0), "class_count"),
    "build_model-filters": (
        lambda: build_model(2, 0, filters=(1.5, 2, 3)), "filters[0]"),
    "build_model-seed": (lambda: build_model(2, True), "seed"),
    "swap_head-class_count": (lambda: swap_head(_model(), 2.5, 0), "new_class_count"),
    "swap_head-seed": (lambda: swap_head(_model(), 2, 1.0), "seed"),
    "Dataset-float": (lambda: _dataset(2.0), "class_count"),
    "Dataset-bool": (lambda: _dataset(True), "class_count"),
    "adam_step": (lambda: _adam_step(True), "t"),
}


class TestOneIntegerRule:
    """`check_count` decides for every entry point what a valid integer is."""

    @pytest.mark.parametrize("name", BAD_INTEGERS)
    def test_rejects(self, name):
        call, argument = BAD_INTEGERS[name]
        message = rf"(^|: ){re.escape(argument)} must be an integer, got"
        with pytest.raises(DataValidationError, match=message):
            call()

    def test_numpy_integers_are_accepted(self):
        assert type(LabeledSeries(_S, np.int64(1)).label) is int
        assert type(_dataset(np.int64(2)).class_count) is int
        filters = tuple(map(np.int32, (4, 6, 3)))
        m = build_model(np.int64(2), np.int64(5), filters=filters)
        assert all(np.array_equal(m[k], _model()[k]) for k in m)
        swapped = swap_head(m, np.int64(3), np.uint8(7))
        assert np.array_equal(swapped["head.weight"], swap_head(m, 3, 7)["head.weight"])
        _adam_step(np.int64(1))


# Labels that are not integers >= 0, and integers that are.
_NOT_A_LABEL = st.one_of(
    st.floats(), st.floats().map(np.float64), st.booleans(), st.text(max_size=3),
    st.none(), st.integers(max_value=-1),
)
_A_LABEL = st.one_of(
    st.integers(0, 10**30), st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
)


class TestLabelProperty:
    @settings(max_examples=60, deadline=None)
    @given(label=_NOT_A_LABEL)
    def test_a_label_that_is_not_a_count_is_refused_everywhere(self, label):
        with pytest.raises(DataValidationError, match="label"):
            LabeledSeries(_S, label)
        pairs = [(_S, 0), (_S2, label)]
        # not an integer: check_count; a negative one: the range check
        for call in (lambda: evaluate(_model(), pairs),
                     lambda: loss_and_gradients(_model(), pairs),
                     lambda: train(_model(), pairs, TrainConfig(epochs=1))):
            with pytest.raises(ValueError, match="label"):
                call()

    @settings(max_examples=60, deadline=None)
    @given(label=_A_LABEL)
    def test_an_integer_label_is_stored_as_an_int(self, label):
        item = LabeledSeries(_S, label)
        assert type(item.label) is int and item.label == int(label)

    @settings(max_examples=10, deadline=None)
    @given(labels=st.lists(
        st.sampled_from([0, 1, np.int64(1), np.uint8(0), np.int32(1)]),
        min_size=2, max_size=4))
    def test_integer_pair_labels_act_as_python_ints(self, labels):
        pairs = [(np.full(8, k), lab) for k, lab in enumerate(labels)]
        plain = [(s, int(lab)) for s, lab in pairs]
        m = _model()
        assert evaluate(m, pairs) == evaluate(m, plain)
        assert loss_and_gradients(m, pairs)[0] == loss_and_gradients(m, plain)[0]
        config = TrainConfig(epochs=1, batch_size=4)
        assert train(m, pairs, config)[1].losses == train(m, plain, config)[1].losses


class TestOneDatasetListRule:
    """`check_datasets` decides what a valid list of datasets is."""

    @pytest.mark.parametrize("caller, run", [
        ("similarity_matrix", similarity_matrix),
        ("run_matrix",
         lambda ds: run_matrix(ds, TrainConfig(epochs=0), out_dir="unused")),
    ], ids=["similarity_matrix", "run_matrix"])
    @pytest.mark.parametrize("names, message", [
        (["a"], "need at least 2 datasets"),
        (["b", "a", "b"], "duplicate dataset names ['a', 'b', 'b']"),
    ], ids=["one", "repeated"])
    def test_rejects(self, tmp_path, monkeypatch, caller, run, names, message):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(3)
        datasets = [make_random_dataset(n, rng) for n in names]
        with pytest.raises(DataValidationError,
                           match=f"^{caller}: {re.escape(message)}$"):
            run(datasets)
        assert list(tmp_path.iterdir()) == []


class TestSeriesAndDataset:
    def test_as_series_is_read_only(self):
        s = as_series([1.0, 2.0])
        with pytest.raises(ValueError):
            s[0] = 3.0

    def test_labeled_series_rejects_negative_label(self):
        with pytest.raises(DataValidationError):
            LabeledSeries([1.0], -1)

    def test_dataset_requires_every_class_in_train(self):
        with pytest.raises(DataValidationError, match="missing from train"):
            Dataset(
                name="d",
                train=(LabeledSeries([1.0, 2.0], 0),),
                test=(),
                class_count=2,
            )

    def test_dataset_rejects_out_of_range_label(self):
        with pytest.raises(DataValidationError, match="outside"):
            Dataset(
                name="d",
                train=(LabeledSeries([1.0], 0), LabeledSeries([2.0], 3)),
                test=(),
                class_count=2,
            )

    def test_dataset_rejects_mixed_lengths(self):
        with pytest.raises(DataValidationError, match="lengths"):
            Dataset(
                name="d",
                train=(LabeledSeries([1.0, 2.0], 0), LabeledSeries([1.0], 1)),
                test=(),
                class_count=2,
            )

    def test_empty_test_split_is_fine(self):
        Dataset(
            name="d",
            train=(LabeledSeries([1.0, 2.0], 0), LabeledSeries([0.0, 1.0], 1)),
            test=(),
            class_count=2,
        )


class TestGroupByClass:
    def test_basic_grouping_preserves_order(self):
        s1, s2, s3 = as_series([1.0]), as_series([2.0]), as_series([3.0])
        split = [LabeledSeries(s1, 0), LabeledSeries(s2, 1), LabeledSeries(s3, 0)]
        groups = group_by_class(split)
        assert list(groups) == [0, 1]
        assert [g[0] for g in groups[0]] == [1.0, 3.0]
        assert [g[0] for g in groups[1]] == [2.0]

    def test_empty_input(self):
        assert group_by_class([]) == {}

    def test_single_class(self):
        split = [LabeledSeries([float(k)], 0) for k in range(3)]
        assert list(group_by_class(split)) == [0]

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(0, 30))
            split = [
                LabeledSeries(rng.standard_normal(4), int(rng.integers(0, 4)))
                for _ in range(n)
            ]
            groups = group_by_class(split)
            assert sum(len(g) for g in groups.values()) == n


class TestUcrLoading:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_basic_load_and_canonical_labels(self, tmp_path):
        self._write(tmp_path / "D_TRAIN", ["1,0.5,0.3", "2,0.1,0.2"])
        self._write(tmp_path / "D_TEST", ["2,0.0,0.0"])
        ds = load_ucr_dataset(tmp_path / "D_TRAIN", tmp_path / "D_TEST", "D")
        assert ds.class_count == 2
        assert [item.label for item in ds.train] == [0, 1]
        assert ds.test[0].label == 1

    def test_tab_delimiter_gives_identical_result(self, tmp_path):
        self._write(tmp_path / "C_TRAIN", ["1,0.5,0.3", "2,0.1,0.2"])
        self._write(tmp_path / "C_TEST", ["1,0.5,0.3"])
        self._write(tmp_path / "T_TRAIN", ["1\t0.5\t0.3", "2\t0.1\t0.2"])
        self._write(tmp_path / "T_TEST", ["1\t0.5\t0.3"])
        a = load_ucr_dataset(tmp_path / "C_TRAIN", tmp_path / "C_TEST", "X")
        b = load_ucr_dataset(tmp_path / "T_TRAIN", tmp_path / "T_TEST", "X")
        for x, y in zip(a.train + a.test, b.train + b.test):
            assert x.label == y.label
            assert np.array_equal(x.series, y.series)

    def test_negative_raw_labels_sort_ascending(self, tmp_path):
        self._write(tmp_path / "D_TRAIN", ["1,0.5,0.3", "-1,0.1,0.2"])
        self._write(tmp_path / "D_TEST", ["-1,0.0,0.1"])
        ds = load_ucr_dataset(tmp_path / "D_TRAIN", tmp_path / "D_TEST", "D")
        # raw -1 -> 0, raw 1 -> 1
        assert [item.label for item in ds.train] == [1, 0]
        assert ds.test[0].label == 0

    def test_ragged_record_names_line(self, tmp_path):
        self._write(tmp_path / "D_TRAIN", ["1,0.5,0.3", "2,0.1"])
        self._write(tmp_path / "D_TEST", [])
        with pytest.raises(UcrParseError, match="TRAIN:2"):
            load_ucr_dataset(tmp_path / "D_TRAIN", tmp_path / "D_TEST", "D")

    def test_unparseable_value_names_line(self, tmp_path):
        self._write(tmp_path / "D_TRAIN", ["1,0.5,oops"])
        self._write(tmp_path / "D_TEST", [])
        with pytest.raises(UcrParseError, match=":1"):
            load_ucr_dataset(tmp_path / "D_TRAIN", tmp_path / "D_TEST", "D")

    @pytest.mark.parametrize("line", ["1,1_000,2", "1_0,0.5,2", "1,\u0661,2"])
    def test_python_only_number_syntax_rejected(self, tmp_path, line):
        # float() reads "1_000" as 1000 and "\u0661" (Arabic-Indic one) as 1
        self._write(tmp_path / "D_TRAIN", ["1,0.5,0.3", line])
        self._write(tmp_path / "D_TEST", [])
        with pytest.raises(UcrParseError, match="TRAIN:2"):
            load_ucr_dataset(tmp_path / "D_TRAIN", tmp_path / "D_TEST", "D")

    def test_test_only_label_rejected(self, tmp_path):
        self._write(tmp_path / "D_TRAIN", ["1,0.5,0.3", "2,0.1,0.2"])
        self._write(tmp_path / "D_TEST", ["3,0.0,0.0"])
        with pytest.raises(DataValidationError, match="test but not in train"):
            load_ucr_dataset(tmp_path / "D_TRAIN", tmp_path / "D_TEST", "D")

    def test_empty_train_rejected(self, tmp_path):
        self._write(tmp_path / "D_TRAIN", [""])
        self._write(tmp_path / "D_TEST", ["1,0.1"])
        with pytest.raises(DataValidationError, match="no records"):
            load_ucr_dataset(tmp_path / "D_TRAIN", tmp_path / "D_TEST", "D")

    def test_non_finite_sample_rejected(self, tmp_path):
        self._write(tmp_path / "D_TRAIN", ["1,0.5,nan"])
        self._write(tmp_path / "D_TEST", [])
        with pytest.raises(DataValidationError, match="non-finite"):
            load_ucr_dataset(tmp_path / "D_TRAIN", tmp_path / "D_TEST", "D")

    def test_non_utf8_file_names_its_path(self, tmp_path):
        (tmp_path / "D_TRAIN").write_bytes(b"1,0.5,0.3\n2,0.1,\xff0.2\n")
        self._write(tmp_path / "D_TEST", [])
        with pytest.raises(UcrParseError, match="D_TRAIN"):
            load_ucr_dataset(tmp_path / "D_TRAIN", tmp_path / "D_TEST", "D")

    def test_cross_split_length_mismatch_rejected(self, tmp_path):
        self._write(tmp_path / "D_TRAIN", ["1,0.5,0.3", "2,0.1,0.2"])
        self._write(tmp_path / "D_TEST", ["1,0.5,0.3,0.9"])
        with pytest.raises(DataValidationError, match="lengths"):
            load_ucr_dataset(tmp_path / "D_TRAIN", tmp_path / "D_TEST", "D")

    def test_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        train = tuple(
            LabeledSeries(rng.standard_normal(7) * rng.uniform(0.1, 100), k % 3)
            for k in range(9)
        )
        test = tuple(
            LabeledSeries(rng.standard_normal(7), k % 3) for k in range(4)
        )
        ds = Dataset(name="RT", train=train, test=test, class_count=3)
        save_ucr_dataset(ds, tmp_path / "RT_TRAIN", tmp_path / "RT_TEST")
        back = load_ucr_dataset(tmp_path / "RT_TRAIN", tmp_path / "RT_TEST", "RT")
        assert back.class_count == ds.class_count
        for orig, got in zip(ds.train + ds.test, back.train + back.test):
            assert got.label == orig.label
            assert np.array_equal(got.series, orig.series)

    def test_round_trip_tab_delimited(self, tmp_path):
        ds = Dataset(
            name="RT",
            train=(LabeledSeries([0.1, -0.2], 0), LabeledSeries([1e-17, 3.0], 1)),
            test=(),
            class_count=2,
        )
        save_ucr_dataset(ds, tmp_path / "RT_TRAIN", tmp_path / "RT_TEST", delimiter="\t")
        back = load_ucr_dataset(tmp_path / "RT_TRAIN", tmp_path / "RT_TEST", "RT")
        for orig, got in zip(ds.train, back.train):
            assert np.array_equal(got.series, orig.series)

    def test_find_ucr_pair_extensions(self, tmp_path):
        self._write(tmp_path / "D_TRAIN.tsv", ["1\t0.5", "2\t0.1"])
        self._write(tmp_path / "D_TEST.tsv", ["1\t0.5"])
        train, test = find_ucr_pair(tmp_path, "D")
        assert train.endswith("D_TRAIN.tsv") and test.endswith("D_TEST.tsv")

    def test_find_ucr_pair_subdirectory(self, tmp_path):
        sub = tmp_path / "D"
        sub.mkdir()
        self._write(sub / "D_TRAIN.txt", ["1,0.5", "2,0.1"])
        self._write(sub / "D_TEST.txt", ["1,0.5"])
        train, _ = find_ucr_pair(tmp_path, "D")
        assert train.endswith("D_TRAIN.txt")

    def test_find_ucr_pair_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            find_ucr_pair(tmp_path, "Nope")


_TOKEN = st.one_of(
    st.floats().map(repr),  # includes nan, inf and -inf
    st.integers(-3, 3).map(str),
    st.sampled_from(["", " ", "1e999", "x", "0x1p3", "1_0", "--1"]),
    st.text(max_size=3),
)
_LINE = st.builds(
    lambda tokens, delim: delim.join(tokens),
    st.lists(_TOKEN, max_size=6),
    st.sampled_from([",", "\t", ";", " "]),
)


# A plain decimal as UCR files write it; float() accepts more than this.
_DECIMAL = re.compile(r"\s*[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\s*")


@st.composite
def ucr_bytes(draw):
    """Ragged, blank, non-finite and mixed-delimiter lines, then random bytes."""
    lines = draw(st.lists(_LINE | st.just(""), max_size=8))
    return "\n".join(lines).encode("utf-8") + draw(st.binary(max_size=8))


# Tokens float() reads, some of them outside the plain decimal syntax.
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from([" 2", "1.", ".5", "+1e3", "1_0", "\u0661", "\u00a01"]),
)


@st.composite
def ucr_records(draw):
    """Rectangular records of number-like tokens under one delimiter."""
    width = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(_NUMBER, min_size=width, max_size=width),
                         min_size=1, max_size=4))
    delim = draw(st.sampled_from([",", "\t"]))
    return "\n".join(delim.join(row) for row in rows).encode("utf-8")


class TestUcrParserFuzz:
    @pytest.fixture(scope="class")
    def fuzz_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("ucr") / "F_TRAIN"

    @settings(max_examples=300, deadline=None)
    @given(blob=ucr_bytes() | ucr_records())
    def test_input_parses_or_raises_a_data_error(self, fuzz_path, blob):
        fuzz_path.write_bytes(blob)
        try:
            labels, series = _parse_ucr_file(fuzz_path)
        except (UcrParseError, DataValidationError):
            return
        assert len(labels) == len(series)
        assert len({len(s) for s in series}) <= 1
        assert all(np.isfinite(s).all() for s in series)
        assert np.isfinite(labels).all()
        # Accepted records are lines of plain decimals, read value for value.
        records = [r.strip() for r in fuzz_path.read_text("utf-8").splitlines()]
        records = [r for r in records if r]
        delim = "\t" if records and "\t" in records[0] else ","
        rows = [r.split(delim) for r in records]
        assert all(_DECIMAL.fullmatch(token) for row in rows for token in row)
        assert labels == [float(row[0]) for row in rows]
        assert [s.tolist() for s in series] == [
            [float(token) for token in row[1:]] for row in rows
        ]
