import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_sine_dataset
from tstransfer import (
    ModelFileError,
    TrainConfig,
    build_model,
    clone_model,
    evaluate,
    fine_tune,
    forward,
    load_model,
    save_model,
    swap_head,
    train,
)
from tstransfer.transfer import MODEL_MAGIC

TINY = (4, 6, 3)


def model_bytes(model):
    return b"".join(t.tobytes() for _, t in model.items())


def nudge_stats(model, seed):
    """Give running statistics non-trivial values so round-trips are honest."""
    rng = np.random.default_rng(seed)
    for k in (1, 2, 3):
        mean, var = f"bn{k}.running_mean", f"bn{k}.running_var"
        model[mean] = rng.standard_normal(model[mean].shape)
        model[var] = rng.uniform(0.5, 2.0, model[var].shape)
    return model


def rewrite_header(path, edit):
    """Apply edit to the JSON header of a model file in place.

    edit changes the header in place or returns a replacement for it.
    """
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + header_len])
    replacement = edit(header)
    if replacement is not None:
        header = replacement
    new_header = json.dumps(header).encode()
    path.write_bytes(
        blob[:8] + len(new_header).to_bytes(8, "little") + new_header
        + blob[16 + header_len :]
    )


class TestSaveLoad:
    def test_round_trip_is_float32_quantization(self, tmp_path):
        m = nudge_stats(build_model(3, seed=1), 2)
        path = tmp_path / "m.fcn"
        save_model(m, path)
        back = load_model(path)
        assert back.class_count == 3
        for (name, orig), (name2, got) in zip(m.items(), back.items()):
            assert name == name2
            assert np.array_equal(got, orig.astype(np.float32).astype(np.float64))

    def test_directory_has_twenty_tensors_and_metadata(self, tmp_path):
        m = build_model(5, seed=3)
        path = tmp_path / "m.fcn"
        save_model(m, path)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16 : 16 + header_len])
        assert blob[:8] == MODEL_MAGIC
        assert header["format_version"] == 1
        assert header["class_count"] == 5
        assert header["filters"] == [128, 256, 128]
        assert len(header["tensors"]) == 20

    def test_tiny_architecture_round_trips(self, tmp_path):
        m = nudge_stats(build_model(2, seed=4, filters=TINY), 5)
        path = tmp_path / "t.fcn"
        save_model(m, path)
        back = load_model(path)
        assert back.filters == TINY

    def test_truncated_payload(self, tmp_path):
        m = build_model(2, seed=6, filters=TINY)
        path = tmp_path / "m.fcn"
        save_model(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ModelFileError, match="payload truncated"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.fcn"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 32)
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        m = build_model(2, seed=7, filters=TINY)
        path = tmp_path / "m.fcn"
        save_model(m, path)
        rewrite_header(path, lambda header: header.update(format_version=99))
        with pytest.raises(ModelFileError, match=r"in \['format_version'\]") as info:
            load_model(path)
        assert isinstance(info.value, ValueError)
        assert str(path) in str(info.value)

    def test_file_shorter_than_the_length_field(self, tmp_path):
        # The magic and 4 of the 8 header-length bytes: the length read
        # from them points past the end of the file.
        path = tmp_path / "m.fcn"
        save_model(build_model(2, seed=7, filters=TINY), path)
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(ModelFileError, match="header truncated") as info:
            load_model(path)
        assert isinstance(info.value, ValueError)
        assert str(path) in str(info.value)

    def test_a_failed_write_raises_the_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            save_model(build_model(2, seed=7, filters=TINY), tmp_path / "no" / "m.fcn")

    @pytest.mark.parametrize("name, value, message", [
        ("head.bias", 1e300, "tensor head.bias contains non-finite values"),
        ("bn1.running_var", 0.0, "bn1 running variance must be positive"),
        ("bn2.running_var", 1e-50, "bn2 running variance must be positive"),
    ], ids=["overflows-float32", "zero-variance", "variance-rounds-to-zero"])
    def test_a_model_that_would_not_load_is_not_saved(self, tmp_path, name, value,
                                                      message):
        path = tmp_path / "m.fcn"
        save_model(build_model(2, seed=7, filters=TINY), path)
        before = path.read_bytes()
        model = build_model(2, seed=8, filters=TINY)
        model[name] = np.full(model[name].shape, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelFileError) as info:
                save_model(model, path)
        assert str(info.value) == f"{path}: {message}"
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.fcn"]

    def test_shape_mismatch(self, tmp_path):
        m = build_model(2, seed=8, filters=TINY)
        path = tmp_path / "m.fcn"
        save_model(m, path)
        def kernel_7_instead_of_8(header):
            header["tensors"][0]["shape"] = [4, 1, 7]

        rewrite_header(path, kernel_7_instead_of_8)
        with pytest.raises(ModelFileError, match="header differs"):
            load_model(path)

    @pytest.mark.parametrize("dtype", ["<f8", "bogus"])
    def test_declared_dtype_must_be_float32(self, tmp_path, dtype):
        m = build_model(2, seed=9, filters=TINY)
        path = tmp_path / "m.fcn"
        save_model(m, path)
        rewrite_header(path, lambda header: header.update(dtype=dtype))
        with pytest.raises(ModelFileError, match=r"in \['dtype'\]") as info:
            load_model(path)
        assert isinstance(info.value, ValueError)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("edit", [
        lambda header: [header],
        lambda header: header["tensors"].__setitem__(0, 7),
        lambda header: header.update(filters=4),
        lambda header: header.update(kernels=None),
        lambda header: header["tensors"][0].update(shape=4),
    ], ids=["header_list", "tensor_entry_int", "filters_int", "kernels_null",
            "shape_int"])
    def test_wrong_header_structure(self, tmp_path, edit):
        path = tmp_path / "m.fcn"
        save_model(build_model(2, seed=10, filters=TINY), path)
        rewrite_header(path, edit)
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_saved_bytes_are_pinned(self, tmp_path):
        # the version-1 format, byte for byte: header keys and their order,
        # directory entries, offsets and the <f4 payload
        path = tmp_path / "m.fcn"
        save_model(nudge_stats(build_model(3, seed=42, filters=TINY), 43), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "7e2c47e3bf11f83085a5c5e81ffe01a22fc714b7b06f4bf35bb5e22235056cc0"
        )

    @pytest.mark.parametrize("edit", [
        lambda header: header.update(comment="x"),
        lambda header: header["tensors"][3].update(stride=1),
        lambda header: header["tensors"][5].update(
            offset=header["tensors"][5]["offset"] + 4),
    ], ids=["unknown_key", "unknown_entry_key", "moved_offset"])
    def test_header_other_than_the_written_one(self, tmp_path, edit):
        path = tmp_path / "m.fcn"
        save_model(build_model(2, seed=11, filters=TINY), path)
        rewrite_header(path, edit)
        with pytest.raises(ModelFileError, match="header differs"):
            load_model(path)

    def test_a_filter_written_as_a_bool_is_rejected(self, tmp_path):
        # JSON true equals 1, so it once passed the filter check and made
        # reshape raise TypeError
        path = tmp_path / "m.fcn"
        save_model(build_model(2, seed=12, filters=(1, 6, 3)), path)

        def first_filter_true(header):
            header["filters"][0] = True
            header["tensors"][0]["shape"][0] = True

        rewrite_header(path, first_filter_true)
        with pytest.raises(ModelFileError, match="filter"):
            load_model(path)

    @settings(max_examples=25, deadline=None)
    @given(filters=st.tuples(*[st.integers(1, 8)] * 3),
           class_count=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_float32_models_round_trip_bit_exact(self, tmp_path_factory, filters,
                                                 class_count, seed):
        model = clone_model(nudge_stats(
            build_model(class_count, seed=seed, filters=filters), seed), np.float32)
        path = tmp_path_factory.mktemp("rt") / "m.fcn"
        save_model(model, path)
        back = load_model(path)
        assert list(back) == list(model)
        assert model_bytes(back) == model_bytes(model)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.fcn")

    def test_float32_model_round_trips_bit_exact(self, tmp_path):
        ds = make_sine_dataset("t", (2.0, 6.0), n_train=12, n_test=12, length=24,
                               seed=37)
        trained, _ = train(build_model(2, seed=38, filters=TINY), ds.train,
                           TrainConfig(epochs=3, batch_size=4, seed=39))
        assert trained.dtype == np.float32
        path = tmp_path / "m.fcn"
        save_model(trained, path)
        back = load_model(path)
        assert back.dtype == np.float32
        assert model_bytes(back) == model_bytes(trained)
        series = [item.series for item in ds.test]
        assert (forward(back, series).tobytes()
                == forward(trained, series).tobytes())
        assert evaluate(back, ds.test) == evaluate(trained, ds.test)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.fcn"
    save_model(nudge_stats(build_model(2, seed=40, filters=TINY), 41), path)
    return path


@st.composite
def damaged(draw, blob):
    """blob with a few bytes replaced, then possibly cut short."""
    data = bytearray(blob)
    edits = draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                    st.integers(0, 255)), max_size=6))
    for position, value in edits:
        data[position] = value
    cut = draw(st.none() | st.integers(0, len(blob)))
    return bytes(data if cut is None else data[:cut])


class TestLoadFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_file_raises_only_model_file_errors(self, model_file, data):
        path = model_file.with_name("damaged.fcn")
        path.write_bytes(data.draw(damaged(model_file.read_bytes())))
        try:
            model = load_model(path)
        except ModelFileError:
            return
        assert model.dtype == np.float32
        assert forward(model, [np.zeros(8)]).shape == (1, model.class_count)

    def test_shape_written_as_floats_loads_the_same_model(self, model_file, tmp_path):
        # JSON 8.0 equals 8, so the declared shape matches; it once reached
        # reshape and raised TypeError
        path = tmp_path / "m.fcn"
        path.write_bytes(model_file.read_bytes())
        rewrite_header(path, lambda header: header["tensors"][0].update(
            shape=[float(n) for n in header["tensors"][0]["shape"]]))
        assert model_bytes(load_model(path)) == model_bytes(load_model(model_file))


class TestSwapHead:
    def test_body_preserved_bitwise(self):
        m = nudge_stats(build_model(3, seed=9), 10)
        swapped = swap_head(m, 5, seed=11)
        body = dict(m.items())
        new_body = dict(swapped.items())
        for name in body:
            if name.startswith("head."):
                continue
            assert np.array_equal(new_body[name], body[name])
            assert new_body[name].tobytes() == body[name].tobytes()

    def test_head_shape_and_bound(self):
        m = build_model(3, seed=12)
        swapped = swap_head(m, 5, seed=13)
        assert swapped["head.weight"].shape == (128, 5)
        assert swapped.class_count == 5
        bound = np.sqrt(6.0 / (128 + 5))
        assert abs(bound - 0.21240) < 1e-5
        assert np.abs(swapped["head.weight"]).max() <= bound
        assert np.array_equal(swapped["head.bias"], np.zeros(5))

    def test_same_class_count_still_rerandomizes(self):
        m = build_model(3, seed=14)
        swapped = swap_head(m, 3, seed=15)
        assert not np.array_equal(swapped["head.weight"], m["head.weight"])

    def test_deterministic(self):
        m = build_model(3, seed=16)
        a = swap_head(m, 4, seed=17)
        b = swap_head(m, 4, seed=17)
        assert np.array_equal(a["head.weight"], b["head.weight"])

    def test_head_follows_the_body_dtype(self):
        m = nudge_stats(build_model(3, seed=16, filters=TINY), 17)
        wide = swap_head(m, 4, seed=18)
        narrow = swap_head(clone_model(m, np.float32), 4, seed=18)
        assert all(t.dtype == np.float32 for _, t in narrow.items())
        assert np.array_equal(
            narrow["head.weight"], wide["head.weight"].astype(np.float32)
        )

    def test_rejects_small_class_count(self):
        with pytest.raises(ValueError):
            swap_head(build_model(3, seed=18, filters=TINY), 1, seed=19)


class TestFineTune:
    def test_zero_epochs_equals_head_swap(self):
        ds = make_sine_dataset("t", (2.0, 5.0), n_train=8, n_test=0, length=16,
                               seed=20)
        pre = build_model(2, seed=21, filters=TINY)
        tuned, history = fine_tune(pre, ds, TrainConfig(epochs=0, seed=22), seed=23)
        expected = swap_head(pre, 2, seed=23)
        assert model_bytes(tuned) == model_bytes(expected)
        assert history.losses == []

    def test_shapes_unchanged_by_fine_tuning(self):
        ds = make_sine_dataset("t", (2.0, 5.0), n_train=8, n_test=0, length=16,
                               seed=24)
        pre = build_model(3, seed=25, filters=TINY)
        tuned, _ = fine_tune(
            pre, ds, TrainConfig(epochs=2, batch_size=4, seed=26), seed=27
        )
        assert tuned.filters == pre.filters
        assert tuned["head.weight"].shape == (TINY[-1], 2)

    def test_variable_length_transfer_runs(self):
        source = make_sine_dataset("s", (2.0, 5.0), n_train=8, n_test=0, length=32,
                                   seed=28)
        target = make_sine_dataset("t", (3.0, 6.0), n_train=8, n_test=4, length=64,
                                   seed=29)
        pre, _ = train(
            build_model(2, seed=30, filters=TINY),
            source.train,
            TrainConfig(epochs=2, batch_size=4, seed=31),
        )
        tuned, history = fine_tune(
            pre, target, TrainConfig(epochs=2, batch_size=4, seed=32), seed=33
        )
        assert len(history.losses) == 2
        assert 0.0 <= evaluate(tuned, target.test) <= 1.0

    def test_round_trip_preserves_evaluation(self, tmp_path):
        ds = make_sine_dataset("t", (2.0, 6.0), n_train=12, n_test=12, length=24,
                               seed=34)
        trained, _ = train(
            build_model(2, seed=35, filters=TINY),
            ds.train,
            TrainConfig(epochs=3, batch_size=4, seed=36),
        )
        path = tmp_path / "m.fcn"
        save_model(trained, path)
        back = load_model(path)
        series = [item.series for item in ds.test]
        p1 = forward(trained, series)
        p2 = forward(back, series)
        same_argmax = np.array_equal(p1.argmax(axis=1), p2.argmax(axis=1))
        assert same_argmax or np.abs(p1 - p2).max() < 1e-5
        if same_argmax:
            assert evaluate(back, ds.test) == evaluate(trained, ds.test)
