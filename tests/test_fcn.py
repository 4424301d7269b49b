import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    finite_difference_gradients,
    gradient_relative_errors,
    k_fold_copy_correlate,
    make_constant_dataset,
    record_calls,
    traced_peak,
)
from tstransfer import (
    DataValidationError,
    TrainConfig,
    adam_step,
    build_model,
    clone_model,
    evaluate,
    fcn,
    forward,
    init_adam_state,
    loss_and_gradients,
    swap_head,
    train,
)
from tstransfer.fcn import (
    _EVAL_STEPS,
    BN_EPSILON,
    KERNEL_SIZES,
    TRAIN_DTYPE,
    TRAINABLE,
    _correlate,
    _correlate_layout,
    _epoch_batches,
    _eval_chunks,
    _fold_batchnorm,
    _folded_blocks,
    _eval_logits,
    _Buffers,
    _loss_and_gradients_impl,
    _stack_batch,
    _train_forward,
    batchnorm_forward_eval,
    batchnorm_forward_train,
    conv1d_backward,
    conv1d_forward,
    glorot_uniform_bound,
    layer_spec,
)

TINY = (4, 6, 3)


def model_bytes(model):
    return b"".join(t.tobytes() for _, t in model.items())


class TestTrainConfig:
    def test_defaults_are_the_standard_recipe(self):
        cfg = TrainConfig()
        assert cfg.epochs == 2000
        assert cfg.batch_size == 16
        assert cfg.learning_rate == 0.001
        assert (fcn.ADAM_BETA1, fcn.ADAM_BETA2, fcn.ADAM_EPSILON) == (0.9, 0.999, 1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.001])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("epochs", 2.0), ("epochs", True), ("epochs", "3"),
        ("batch_size", 8.0), ("batch_size", False), ("batch_size", None),
        ("seed", None), ("seed", True), ("seed", 1.5), ("seed", "3"),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got"):
            TrainConfig(**{field: value})

    def test_seed_must_not_be_negative(self):
        # numpy's default_rng refuses a negative seed.
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("lr", ["0.001", None, True])
    def test_learning_rate_must_be_a_real_number(self, lr):
        with pytest.raises(ValueError, match="^learning_rate must be a real number, got"):
            TrainConfig(learning_rate=lr)

    def test_numpy_scalars_are_accepted(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(4),
                          learning_rate=np.float32(0.01), seed=np.uint8(5))
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (3, 4, 5)


class TestBuildModel:
    def test_shapes(self):
        m = build_model(3, seed=0)
        assert m["conv1.weight"].shape == (128, 1, 8)
        assert m["conv1.weight"].size == 1024
        assert m["conv2.weight"].shape == (256, 128, 5)
        assert m["conv3.weight"].shape == (128, 256, 3)
        assert m["head.weight"].shape == (128, 3)
        assert m["head.bias"].shape == (3,)
        assert len(m) == 20
        assert len(TRAINABLE) == 14

    def test_tensors_follow_layer_spec(self):
        m = build_model(5, seed=4, filters=TINY)
        spec = layer_spec(TINY, 5)
        assert list(m) == list(spec)
        assert {name: a.shape for name, a in m.items()} == spec
        assert m.filters == TINY and m.class_count == 5

    def test_head_bound_closed_form(self):
        m = build_model(2, seed=1)
        bound = np.sqrt(6.0 / (128 + 2))
        assert abs(bound - 0.21483) < 1e-5
        assert np.abs(m["head.weight"]).max() <= bound
        # the draw actually spans the interval
        assert np.abs(m["head.weight"]).max() > 0.9 * bound

    def test_conv_bound_uses_kernel_fans(self):
        m = build_model(2, seed=2)
        bound1 = glorot_uniform_bound(1 * 8, 128 * 8)
        assert np.abs(m["conv1.weight"]).max() <= bound1
        bound2 = glorot_uniform_bound(128 * 5, 256 * 5)
        assert np.abs(m["conv2.weight"]).max() <= bound2

    def test_initial_statistics(self):
        m = build_model(4, seed=3)
        for k in (1, 2, 3):
            bias, gamma, beta = m[f"conv{k}.bias"], m[f"bn{k}.gamma"], m[f"bn{k}.beta"]
            mean, var = m[f"bn{k}.running_mean"], m[f"bn{k}.running_var"]
            assert np.array_equal(bias, np.zeros_like(bias))
            assert np.array_equal(gamma, np.ones_like(gamma))
            assert np.array_equal(beta, np.zeros_like(beta))
            assert np.array_equal(mean, np.zeros_like(mean))
            assert np.array_equal(var, np.ones_like(var))
        assert np.array_equal(m["head.bias"], np.zeros(4))

    def test_same_seed_bitwise_identical(self):
        assert model_bytes(build_model(3, seed=42)) == model_bytes(
            build_model(3, seed=42)
        )
        assert model_bytes(build_model(3, seed=42)) != model_bytes(
            build_model(3, seed=43)
        )

    def test_rejects_small_class_count(self):
        with pytest.raises(ValueError):
            build_model(1, seed=0)


class TestForward:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        m = build_model(3, seed=1, filters=TINY)
        batch = [rng.standard_normal(20) for _ in range(5)]
        probs = forward(m, batch)
        assert probs.shape == (5, 3)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6

    def test_zero_head_gives_uniform_rows(self):
        rng = np.random.default_rng(1)
        m = build_model(4, seed=2, filters=TINY)
        m["head.weight"][:] = 0.0
        probs = forward(m, [rng.standard_normal(10) for _ in range(3)])
        assert np.array_equal(probs, np.full((3, 4), 0.25))

    def test_variable_length_shape_invariance(self):
        rng = np.random.default_rng(2)
        m = build_model(2, seed=3, filters=TINY)
        for length in (1, 5, 64, 130):
            probs = forward(m, [rng.standard_normal(length) for _ in range(2)])
            assert probs.shape == (2, 2)

    def test_mixed_lengths_give_the_rows_of_their_groups(self):
        rng = np.random.default_rng(4)
        m = build_model(3, seed=4, filters=TINY)
        lengths = [5, 6, 5, 9, 6, 5]
        series = [rng.standard_normal(length) for length in lengths]
        probs = forward(m, series)
        assert probs.shape == (6, 3)
        for length in set(lengths):
            rows = [i for i, n in enumerate(lengths) if n == length]
            group = forward(m, [series[i] for i in rows])
            assert np.array_equal(probs[rows], group)

    def test_forward_leaves_the_model_unchanged(self):
        rng = np.random.default_rng(5)
        m = build_model(2, seed=6, filters=TINY)
        before = model_bytes(m)
        forward(m, [rng.standard_normal(12) for _ in range(4)])
        assert model_bytes(m) == before

    def test_loss_and_gradients_updates_running_stats(self):
        rng = np.random.default_rng(5)
        m = build_model(2, seed=6, filters=TINY)
        batch = [(rng.standard_normal(12), k % 2) for k in range(4)]
        means = ("bn1.running_mean", "bn2.running_mean", "bn3.running_mean")
        before = [m[name].copy() for name in means]
        loss_and_gradients(m, batch)
        assert not all(np.array_equal(a, m[name]) for a, name in zip(before, means))


class TestLayerPrimitives:
    def test_zero_padding_edge_attenuation_by_hand(self):
        # constant-1 input, averaging kernel of length 3, T = 4:
        # padded input 0,1,1,1,1,0 -> output 2/3, 1, 1, 2/3
        x = np.ones((1, 4, 1))
        w = np.full((1, 1, 3), 1.0 / 3.0)
        out, _ = conv1d_forward(x, w, np.zeros(1))
        third = 1.0 / 3.0
        assert np.array_equal(out[0, :, 0], np.array([2 * third, 1.0, 1.0, 2 * third]))

    def test_even_kernel_pads_left_heavy(self):
        # kernel 8 on T=8 ones: window at t covers x[t-4 .. t+3]
        x = np.ones((1, 8, 1))
        w = np.ones((1, 1, 8))
        out, _ = conv1d_forward(x, w, np.zeros(1))
        assert np.array_equal(out[0, :, 0], np.array([4, 5, 6, 7, 8, 7, 6, 5], float))

    def test_gap_is_time_mean(self):
        # pooling a channel holding [1, 2, 3, 4] must yield exactly 2.5
        x = np.array([[[1.0], [2.0], [3.0], [4.0]]])
        assert x.mean(axis=1)[0, 0] == 2.5
        # the network pools its last block's activations over time
        rng = np.random.default_rng(6)
        m = build_model(2, seed=6, filters=TINY)
        x = _stack_batch([rng.standard_normal(7) for _ in range(2)], m.dtype)
        _, (caches, gap) = _train_forward(m, x)
        _, xhat, _ = caches[2]
        act = np.maximum(xhat * m["bn3.gamma"] + m["bn3.beta"], 0.0)
        assert np.allclose(gap, act.sum(axis=1) / 7, rtol=1e-14, atol=0)

    def test_batchnorm_train_statistics(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 16, 6)) * 3 + 1.5
        y, xhat, inv_std, mu, var = batchnorm_forward_train(
            x, np.ones(6), np.zeros(6)
        )
        assert np.abs(xhat.mean(axis=(0, 1))).max() < 1e-5
        # normalized variance is damped by var/(var+eps), not exactly 1
        expected = var / (var + BN_EPSILON)
        assert np.abs(xhat.var(axis=(0, 1)) - expected).max() < 1e-10
        assert np.abs(xhat.var(axis=(0, 1)) - 1.0).max() < 1e-3
        assert np.allclose(mu, x.mean(axis=(0, 1)), rtol=1e-14, atol=0)
        assert np.allclose(var, x.var(axis=(0, 1)), rtol=1e-12, atol=0)

    def test_eval_batchnorm_identity_at_unit_stats(self):
        rng = np.random.default_rng(8)
        m = build_model(2, seed=9, filters=TINY)
        x = rng.standard_normal((2, 10, 4))
        y = batchnorm_forward_eval(x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
        # identity up to the 1/sqrt(1 + eps) factor
        assert np.abs(y - x).max() <= BN_EPSILON * np.abs(x).max()
        assert np.array_equal(y, x * (1.0 / np.sqrt(1.0 + BN_EPSILON)))
        # a fresh model has unit statistics, so folding only applies that factor
        factor = 1.0 / np.sqrt(1.0 + BN_EPSILON)
        for i in range(3):
            w, b = _fold_batchnorm(m, i)
            conv = m[f"conv{i + 1}.weight"]
            assert np.array_equal(w, conv * factor)
            bound = BN_EPSILON * np.abs(conv).max()
            assert np.abs(w - conv).max() <= bound
            assert np.array_equal(b, np.zeros_like(b))


def reference_windows(x, kernel):
    """(B, T, Cin, K) explicit windows of the length-preserving padded input."""
    left, right = kernel // 2, (kernel - 1) // 2
    padded = np.pad(x, ((0, 0), (left, right), (0, 0)))
    return np.stack([padded[:, k : k + x.shape[1]] for k in range(kernel)], axis=-1)


def reference_conv(x, w, b):
    return np.einsum("btik,oik->bto", reference_windows(x, w.shape[2]), w) + b


def reference_conv_grads(x, w, g):
    """Gradients of sum(conv(x) * g) w.r.t. x, w and b, window by window."""
    kernel = w.shape[2]
    left = kernel // 2
    length = x.shape[1]
    dw = np.einsum("btik,bto->oik", reference_windows(x, kernel), g)
    dpadded = np.zeros((x.shape[0], length + kernel - 1, x.shape[2]))
    for k in range(kernel):
        dpadded[:, k : k + length] += np.einsum("bto,oi->bti", g, w[:, :, k])
    return dpadded[:, left : left + length], dw, g.sum(axis=(0, 1))


def max_rel(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


class TestConvAgainstReference:
    # Per kernel size, Cin < Cout, Cin > Cout and Cin == Cout, so both
    # branches of the correlation kernel are checked in forward and in dx.
    SHAPES = [  # (kernel, batch, length, in_ch, out_ch)
        (8, 3, 20, 1, 5),
        (8, 4, 3, 2, 3),
        (8, 3, 11, 6, 2),
        (8, 3, 7, 4, 4),
        (5, 3, 17, 4, 6),
        (5, 5, 1, 3, 2),
        (5, 4, 6, 5, 5),
        (3, 3, 9, 6, 4),
        (3, 4, 2, 5, 7),
        (3, 3, 5, 3, 3),
    ]

    @pytest.mark.parametrize("kernel,batch,length,in_ch,out_ch", SHAPES)
    def test_forward_and_gradients_match_einsum(self, kernel, batch, length, in_ch,
                                                out_ch):
        rng = np.random.default_rng(kernel * 100 + length)
        x = rng.standard_normal((batch, length, in_ch))
        w = rng.standard_normal((out_ch, in_ch, kernel))
        b = rng.standard_normal(out_ch)
        g = rng.standard_normal((batch, length, out_ch))
        out, padded = conv1d_forward(x, w, b)
        assert out.shape == (batch, length, out_ch)
        assert max_rel(out, reference_conv(x, w, b)) <= 1e-12
        dx, dw, db = conv1d_backward(g, padded, w, x.shape)
        dx_ref, dw_ref, db_ref = reference_conv_grads(x, w, g)
        assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
        assert max_rel(dx, dx_ref) <= 1e-12
        assert max_rel(dw, dw_ref) <= 1e-12
        assert max_rel(db, db_ref) <= 1e-12
        no_dx, dw2, db2 = conv1d_backward(g, padded, w, x.shape, input_grad=False)
        assert no_dx is None
        assert np.array_equal(dw2, dw) and np.array_equal(db2, db)

    @pytest.mark.parametrize("kernel", KERNEL_SIZES)
    def test_no_series_leaks_into_its_neighbour(self, kernel):
        rng = np.random.default_rng(kernel)
        batch, length, in_ch, out_ch = 4, 6, 3, 5
        x = rng.standard_normal((batch, length, in_ch))
        w = rng.standard_normal((out_ch, in_ch, kernel))
        b = rng.standard_normal(out_ch)
        g = rng.standard_normal((batch, length, out_ch))
        out, padded = conv1d_forward(x, w, b)
        dx, _, _ = conv1d_backward(g, padded, w, x.shape)
        for changed in range(batch):
            x2, g2 = x.copy(), g.copy()
            x2[changed] += 100.0
            g2[changed] -= 100.0
            out2, padded2 = conv1d_forward(x2, w, b)
            dx2, _, _ = conv1d_backward(g2, padded2, w, x.shape)
            for kept in range(batch):
                if kept == changed:
                    continue
                assert np.array_equal(out2[kept], out[kept])
                assert np.array_equal(dx2[kept], dx[kept])


def reference_correlate(padded, wk):
    """sum_k padded[q+k] @ wk[k] for every row q with K rows ahead, tap by tap."""
    kernel = wk.shape[0]
    rows = padded.shape[0] - kernel + 1
    padded, wk = padded.astype(np.float64), wk.astype(np.float64)
    return sum(padded[k : k + rows] @ wk[k] for k in range(kernel))


class TestCorrelateBlocks:
    # 203 padded rows give 199 output rows, a prime. The kernel runs on
    # blocks of them, each with its K-1 padded rows ahead, as a chunk of
    # series would; a block of one row has fewer rows than taps.
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("in_ch, out_ch", [(3, 7), (7, 3)])  # widening, narrowing
    @pytest.mark.parametrize("rows_per_block", [1, 16, 40, 10**6])
    def test_blocks_match_the_per_tap_reference(self, dtype, tol, in_ch, out_ch,
                                                rows_per_block):
        kernel = 5
        rng = np.random.default_rng(rows_per_block + in_ch)
        padded = rng.standard_normal((203, in_ch)).astype(dtype)
        wk = rng.standard_normal((kernel, in_ch, out_ch)).astype(dtype)
        expected = reference_correlate(padded, wk)
        for r0 in range(0, 199, rows_per_block):
            r1 = min(r0 + rows_per_block, 199)
            out = _correlate(padded[r0 : r1 + kernel - 1], wk)
            assert out.shape == (r1 - r0 + kernel - 1, out_ch) and out.dtype == dtype
            assert max_rel(out[: r1 - r0], expected[r0:r1]) <= tol

    # The correlations of a training step at the default filters, batch 16:
    # each block's forward pass and the input gradients of blocks 2 and 3.
    # The earlier kernel copied blocks 2 and 3 in several row blocks here.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [128, 320])
    @pytest.mark.parametrize("kernel, in_ch, out_ch", [
        (8, 1, 128), (5, 128, 256), (3, 256, 128), (5, 256, 128), (3, 128, 256),
    ])
    def test_bits_equal_the_k_fold_copy_kernel(self, dtype, length, kernel, in_ch,
                                               out_ch):
        rng = np.random.default_rng(kernel * in_ch + length)
        padded = rng.standard_normal((16 * (length + kernel - 1), in_ch)).astype(dtype)
        wk = rng.standard_normal((kernel, in_ch, out_ch)).astype(dtype)
        expected = k_fold_copy_correlate(padded, wk)
        assert np.array_equal(_correlate(padded, wk)[: len(expected)], expected)

    @pytest.mark.parametrize("in_ch, out_ch", [(128, 256), (256, 128)])
    def test_allocates_nothing_given_out(self, in_ch, out_ch):
        # Block 2's input and its gradient at B=16, T=2709, where a K-fold
        # copy of the whole batch would take 111 MB in float32.
        rng = np.random.default_rng(in_ch)
        padded = rng.standard_normal((16 * 2713, in_ch), dtype=np.float32)
        wk = rng.standard_normal((5, in_ch, out_ch), dtype=np.float32)
        out = np.empty((padded.shape[0], out_ch), np.float32)
        assert traced_peak(_correlate, padded, wk, out) < 64 * 2**10
        assert max_rel(out[:64], reference_correlate(padded[:68], wk)) <= 1e-5

    def test_rejects_arrays_that_are_not_c_contiguous(self):
        padded, wk = np.zeros((20, 6)), np.zeros((3, 3, 4))
        with pytest.raises(ValueError, match="C-contiguous"):
            _correlate(padded[:, :3], wk)
        with pytest.raises(ValueError, match="C-contiguous"):
            _correlate(padded[:, :3].copy(), wk, np.zeros((20, 8))[:, :4])

    def test_threads_give_the_serial_rows(self):
        rng = np.random.default_rng(59)
        cases = [
            (rng.standard_normal((4000, cin)), rng.standard_normal((5, cin, cout)))
            for cin, cout in [(8, 16), (16, 8)] * 2
        ]
        serial = [_correlate(p, w) for p, w in cases]
        results = [None] * len(cases)

        def run(k):
            for _ in range(20):
                results[k] = _correlate(*cases[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for got, want in zip(results, serial):
            assert np.array_equal(got[:3996], want[:3996])


def random_running_stats(m, rng):
    """m with random batch-norm statistics, so that no block is the identity."""
    for k in (1, 2, 3):
        c = m[f"bn{k}.running_mean"].shape[0]
        m[f"bn{k}.running_mean"] = rng.standard_normal(c).astype(m.dtype)
        m[f"bn{k}.running_var"] = rng.uniform(0.2, 3.0, c).astype(m.dtype)
    return m


def reference_eval_logits(m, x):
    """Unfolded eval forward: conv, running-stat batch-norm, ReLU, pooling."""
    out = x
    for k in (1, 2, 3):
        y = reference_conv(out, m[f"conv{k}.weight"], m[f"conv{k}.bias"])
        mean, var = m[f"bn{k}.running_mean"], m[f"bn{k}.running_var"]
        y = (y - mean) / np.sqrt(var + BN_EPSILON)
        out = np.maximum(y * m[f"bn{k}.gamma"] + m[f"bn{k}.beta"], 0.0)
    return out.mean(axis=1) @ m["head.weight"] + m["head.bias"]


class TestEvalPath:
    def test_folded_forward_matches_unfolded(self):
        rng = np.random.default_rng(50)
        m = build_model(3, seed=51, filters=TINY)
        for k in (1, 2, 3):
            c = m[f"bn{k}.running_mean"].shape[0]
            m[f"bn{k}.running_mean"] = rng.standard_normal(c)
            m[f"bn{k}.running_var"] = rng.uniform(0.2, 3.0, c)
            m[f"bn{k}.gamma"] = rng.uniform(0.5, 1.5, c)
            m[f"bn{k}.beta"] = 0.3 * rng.standard_normal(c)
            m[f"conv{k}.bias"] = 0.1 * rng.standard_normal(c)
        x = _stack_batch([rng.standard_normal(15) for _ in range(5)], m.dtype)
        before = model_bytes(m)
        logits = _eval_logits(m, x, _folded_blocks(m))
        assert model_bytes(m) == before
        assert max_rel(logits, reference_eval_logits(m, x)) <= 1e-12

    @pytest.mark.parametrize("in_ch, out_ch", [(1, 4), (6, 6), (6, 3)])
    def test_correlate_layout_is_the_same_convolution(self, in_ch, out_ch):
        rng = np.random.default_rng(58)
        x = rng.standard_normal((3, 10, in_ch))
        w = rng.standard_normal((out_ch, in_ch, 5))
        b = rng.standard_normal(out_ch)
        laid = _correlate_layout(w)
        assert laid.shape == w.shape and np.array_equal(laid, w)
        assert np.array_equal(conv1d_forward(x, laid, b)[0], conv1d_forward(x, w, b)[0])

    def test_chunked_evaluate_matches_single_series(self):
        rng = np.random.default_rng(52)
        m = build_model(3, seed=53, filters=TINY)
        series = [rng.standard_normal(11) for _ in range(2 * (_EVAL_STEPS // 11) + 1)]
        alone = [int(forward(m, [s]).argmax()) for s in series]
        assert len(set(alone)) > 1
        assert evaluate(m, list(zip(series, alone))) == 1.0
        shifted = [(p + 1) % 3 for p in alone]
        assert evaluate(m, list(zip(series, shifted))) == 0.0

    def test_mixed_lengths_evaluate_as_their_groups(self):
        rng = np.random.default_rng(54)
        m = build_model(3, seed=55, filters=TINY)
        # 2 x 2500 and 9 x 300 each span two chunks
        counts = {7: 5, 11: 40, 300: 9, 2500: 2}
        split = [
            (rng.standard_normal(length), int(rng.integers(0, 3)))
            for length, n in counts.items() for _ in range(n)
        ]
        split = [split[i] for i in rng.permutation(len(split))]
        correct = 0
        for length, n in counts.items():
            group = [pair for pair in split if len(pair[0]) == length]
            correct += round(evaluate(m, group) * n)
        assert 0 < correct < len(split)
        assert evaluate(m, split) == correct / len(split)

    def test_evaluate_scores_the_argmax_of_forward(self):
        rng = np.random.default_rng(59)
        m = build_model(3, seed=60, filters=TINY)
        # 300 x 11 spans two chunks and 3 x 1500 three
        counts = {11: 300, 7: 4, 1500: 3}
        split = [
            (rng.standard_normal(length), int(rng.integers(0, 3)))
            for length, n in counts.items() for _ in range(n)
        ]
        split = [split[i] for i in rng.permutation(len(split))]
        assert len(_eval_chunks([len(s) for s, _ in split])) == 6
        series, labels = zip(*split)
        hits = forward(m, list(series)).argmax(axis=1) == np.array(labels)
        assert 0 < hits.sum() < len(split)
        assert evaluate(m, split) == hits.sum() / len(split)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 17, 33, 512])
    @pytest.mark.parametrize("length", [1, 11, 128, 320, 600, 1000, 2047, 2709])
    def test_chunks_split_evenly_within_the_budget(self, n, length):
        chunks = _eval_chunks([length] * n)
        sizes = [len(c) for c in chunks]
        assert np.array_equal(np.concatenate(chunks), np.arange(n))
        assert len(chunks) == min(n, -(-n * length // _EVAL_STEPS))
        assert max(sizes) - min(sizes) <= 1
        # a chunk exceeds the budget by less than one series
        assert (max(sizes) - 1) * length < _EVAL_STEPS

    def test_chunks_group_lengths(self):
        sizes = [len(c) for c in _eval_chunks([320] * 16 + [128] * 512)]
        assert sizes == [16] * 32 + [6, 5, 5]
        chunks = _eval_chunks([5, 9, 5, 0, 9, 5])
        assert [c.tolist() for c in chunks] == [[3], [0, 2, 5], [1, 4]]

    @settings(max_examples=20, deadline=None)
    @given(
        counts=st.dictionaries(st.sampled_from([64, 130, 300, 700]),
                               st.integers(1, 12), max_size=3),
        parts=st.integers(2, 5),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_any_split_gives_the_rows_of_the_whole(self, counts, parts, dtype, seed):
        # 5 series at T=700 split 3, 2: one buffer set serves chunks that
        # shrink, and the blocks' inputs take turns in one buffer.
        counts = {700: 5, **counts}
        rng = np.random.default_rng(seed)
        m = random_running_stats(clone_model(build_model(3, seed=61), dtype), rng)
        series = [rng.standard_normal(length)
                  for length, n in counts.items() for _ in range(n)]
        series = [series[i] for i in rng.permutation(len(series))]
        whole = forward(m, series)
        part = rng.integers(0, parts, size=len(series))
        for k in range(parts):
            idx = np.flatnonzero(part == k)
            if len(idx):
                rows = forward(m, [series[i] for i in idx])
                assert rows.tobytes() == whole[idx].tobytes()

    def test_forward_calls_the_wrapped_convolution(self, monkeypatch):
        rng = np.random.default_rng(62)
        m = build_model(3, seed=63, filters=TINY)
        series = [rng.standard_normal(length) for length in [700] * 5 + [9] * 2]
        log = record_calls(monkeypatch, fcn, "conv1d_forward")
        forward(m, series)
        assert len(log) == 3 * len(_eval_chunks([len(s) for s in series])) == 9

    def test_float32_forward_memory_peak(self):
        # The chunks' three inputs take turns in one buffer.
        rng = np.random.default_rng(44)
        m = clone_model(build_model(3, seed=45), TRAIN_DTYPE)
        series = [rng.standard_normal(128) for _ in range(512)]
        assert traced_peak(forward, m, series) < 5.5 * 2**20

    def test_memory_does_not_grow_with_length(self):
        rng = np.random.default_rng(56)
        m = clone_model(build_model(3, seed=57), TRAIN_DTYPE)
        evaluate(m, [(rng.standard_normal(16), 0)] * 2)  # first-call allocations

        def peak(length):
            split = [(rng.standard_normal(length), k % 3) for k in range(32)]
            return traced_peak(evaluate, m, split)

        assert peak(1024) <= 1.25 * peak(128)


class TestLossAndGradients:
    def test_uniform_model_loss_is_log_c(self):
        rng = np.random.default_rng(10)
        m = build_model(2, seed=11, filters=TINY)
        m["head.weight"][:] = 0.0
        batch = [(rng.standard_normal(8), k % 2) for k in range(4)]
        loss, _ = loss_and_gradients(m, batch)
        # probability 1/2 on the true class
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_confident_correct_prediction_has_zero_loss(self):
        rng = np.random.default_rng(40)
        m = build_model(2, seed=41, filters=TINY)
        # a huge bias gap drives the true-class probability to exactly 1
        m["head.weight"][:] = 0.0
        m["head.bias"][:] = np.array([1000.0, 0.0])
        batch = [(rng.standard_normal(8), 0) for _ in range(3)]
        loss, _ = loss_and_gradients(m, batch)
        assert loss == 0.0

    def test_labels_validated(self):
        m = build_model(2, seed=12, filters=TINY)
        with pytest.raises(ValueError, match="labels"):
            loss_and_gradients(m, [(np.zeros(8), 2)])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        for trial in range(3):
            c = 2 + trial % 2
            m = build_model(c, seed=100 + trial, filters=TINY)
            batch = [
                (rng.standard_normal(16), int(rng.integers(0, c))) for _ in range(4)
            ]
            _, grads = loss_and_gradients(clone_model(m), batch)
            fd, usable, skipped = finite_difference_gradients(m, batch)
            errors = gradient_relative_errors(grads, fd, usable)
            worst = max(err.max() for err in errors.values())
            assert worst < 1e-4, {k: float(v.max()) for k, v in errors.items()}
            assert skipped <= 2

    @pytest.mark.parametrize("length", [1, 9])
    def test_gradients_where_backward_taps_are_allocated(self, length):
        # With filters that widen in every block, every input gradient is a
        # correlation that narrows the channels, and at T=1 its segments
        # hold fewer rows than taps.
        rng = np.random.default_rng(15 + length)
        m = build_model(3, seed=16, filters=(4, 5, 6))
        batch = [(rng.standard_normal(length), k % 3) for k in range(8)]
        _, grads = loss_and_gradients(clone_model(m), batch)
        fd, usable, skipped = finite_difference_gradients(m, batch)
        errors = gradient_relative_errors(grads, fd, usable)
        worst = max(err.max() for err in errors.values())
        assert worst < 1e-4, {k: float(v.max()) for k, v in errors.items()}
        assert skipped <= 2

    # Allocation sizes depend only on the shapes, so the peaks are exact; a
    # first call keeps nothing for later ones, so each peak is a first call's.

    def test_default_step_memory_peak(self):
        rng = np.random.default_rng(40)
        m = build_model(3, seed=41)
        batch = [(rng.standard_normal(128), k % 3) for k in range(16)]
        assert traced_peak(loss_and_gradients, m, batch) < 22.0 * 2**20

    def test_long_float32_step_memory_peak(self):
        # No correlation makes a K-fold copy, which for block 2 at T=1024
        # would be 42 MB.
        rng = np.random.default_rng(42)
        m = clone_model(build_model(3, seed=43), TRAIN_DTYPE)
        batch = [(rng.standard_normal(1024), k % 3) for k in range(16)]
        assert traced_peak(loss_and_gradients, m, batch) < 74.5 * 2**20

    def test_gradient_shapes_match_parameters(self):
        m = build_model(3, seed=14, filters=TINY)
        _, grads = loss_and_gradients(m, [(np.linspace(-1, 1, 9), 0)] * 2)
        for name in TRAINABLE:
            assert grads[name].shape == m[name].shape


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        m = build_model(2, seed=15, filters=TINY)
        before = model_bytes(m)
        state = init_adam_state(m)
        zeros = {name: np.zeros_like(m[name]) for name in TRAINABLE}
        for t in range(1, 6):
            adam_step(m, zeros, state, t, TrainConfig())
        assert model_bytes(m) == before

    def test_first_step_magnitude(self):
        m = build_model(2, seed=16, filters=TINY)
        state = init_adam_state(m)
        grads = {name: np.ones_like(m[name]) for name in TRAINABLE}
        before = m["head.bias"].copy()
        adam_step(m, grads, state, 1, TrainConfig())
        delta = before - m["head.bias"]
        assert np.abs(delta - 0.001 / (1.0 + 1e-8)).max() < 1e-12

    def test_identical_gradients_identical_updates(self):
        m = build_model(2, seed=17, filters=TINY)
        state = init_adam_state(m)
        grads = {name: np.full_like(m[name], 0.37) for name in TRAINABLE}
        b_before, g_before = m["head.bias"].copy(), m["bn1.beta"].copy()
        adam_step(m, grads, state, 1, TrainConfig())
        assert np.array_equal(
            (b_before - m["head.bias"])[0], (g_before - m["bn1.beta"])[0]
        )

    def test_rejects_bad_step_index(self):
        m = build_model(2, seed=18, filters=TINY)
        with pytest.raises(ValueError):
            adam_step(m, {}, init_adam_state(m), 0, TrainConfig())


class TestTrain:
    def test_zero_epochs_is_identity(self):
        ds = make_constant_dataset("c", n_per_class=3, length=8)
        m = build_model(2, seed=19, filters=TINY)
        out, history = train(m, ds.train, TrainConfig(epochs=0, seed=0))
        assert out is m
        assert history.losses == [] and history.best_epoch == 0

    def test_separable_task_reaches_full_accuracy(self):
        ds = make_constant_dataset("c", n_per_class=10, length=32, seed=20)
        m = build_model(2, seed=21, filters=TINY)
        trained, history = train(
            m, ds.train, TrainConfig(epochs=50, batch_size=16, seed=22)
        )
        assert history.epochs_to_accuracy(1.0) is not None
        assert history.epochs_to_accuracy(1.0) <= 50
        assert evaluate(trained, ds.train) == 1.0

    def test_deterministic_given_seed(self):
        ds = make_constant_dataset("c", n_per_class=4, length=10, seed=23)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=24)
        out1, h1 = train(build_model(2, seed=25, filters=TINY), ds.train, cfg)
        out2, h2 = train(build_model(2, seed=25, filters=TINY), ds.train, cfg)
        assert model_bytes(out1) == model_bytes(out2)
        assert h1.losses == h2.losses
        assert h1.accuracies == h2.accuracies

    def test_input_model_not_mutated(self):
        ds = make_constant_dataset("c", n_per_class=4, length=10, seed=26)
        m = build_model(2, seed=27, filters=TINY)
        before = model_bytes(m)
        train(m, ds.train, TrainConfig(epochs=2, batch_size=4, seed=28))
        assert model_bytes(m) == before

    def test_history_lengths_and_best_epoch(self):
        ds = make_constant_dataset("c", n_per_class=4, length=10, seed=29)
        m = build_model(2, seed=30, filters=TINY)
        _, history = train(m, ds.train, TrainConfig(epochs=5, batch_size=4, seed=31))
        assert len(history.losses) == 5
        assert len(history.accuracies) == 5
        assert len(history.epoch_seconds) == 5
        assert history.best_epoch == int(np.argmin(history.losses)) + 1

    def test_checkpoint_is_best_epoch_not_last(self):
        # force a deterministic check: the returned model's loss equals the min
        ds = make_constant_dataset("c", n_per_class=6, length=12, seed=32)
        m = build_model(2, seed=33, filters=TINY)
        best, history = train(m, ds.train, TrainConfig(epochs=8, batch_size=4, seed=34))
        assert min(history.losses) == history.losses[history.best_epoch - 1]

    def test_trailing_singleton_batch_merged(self):
        batches = _epoch_batches(np.arange(17), 16)
        assert [len(b) for b in batches] == [17]
        batches = _epoch_batches(np.arange(33), 16)
        assert [len(b) for b in batches] == [16, 17]
        batches = _epoch_batches(np.arange(20), 16)
        assert [len(b) for b in batches] == [16, 4]
        batches = _epoch_batches(np.arange(1), 16)
        assert [len(b) for b in batches] == [1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, batch_size", [(14, 4), (21, 4)])
    def test_train_equals_fresh_steps_by_hand(self, monkeypatch, dtype, n, batch_size):
        # 14 ends each epoch on a batch of 2 and 21 on a folded one of 5,
        # so every epoch reuses the buffers for a smaller and a larger batch.
        monkeypatch.setattr(fcn, "TRAIN_DTYPE", np.dtype(dtype))
        rng = np.random.default_rng(64)
        split = [(rng.standard_normal(24), k % 3) for k in range(n)]
        config = TrainConfig(epochs=3, batch_size=batch_size, seed=65)
        model = build_model(3, seed=66, filters=TINY)
        trained, history = train(model, split, config)

        work = clone_model(model, dtype)
        state = init_adam_state(work)
        order = np.random.default_rng(config.seed)
        losses, accuracies, snapshots, step = [], [], [], 0
        for _ in range(config.epochs):
            loss_sum = correct = 0
            for idx in _epoch_batches(order.permutation(n), batch_size):
                x = _stack_batch([split[i][0] for i in idx], dtype)
                labels = np.array([split[i][1] for i in idx])
                loss, grads, hits = _loss_and_gradients_impl(
                    work, x, labels, _Buffers(work, train=True)
                )
                step += 1
                adam_step(work, grads, state, step, config)
                loss_sum += loss * len(idx)
                correct += hits
            losses.append(loss_sum / n)
            accuracies.append(correct / n)
            snapshots.append(model_bytes(work))
        assert history.losses == losses and history.accuracies == accuracies
        assert model_bytes(trained) == snapshots[history.best_epoch - 1]
        assert trained.dtype == dtype

    def test_a_step_calls_each_wrapped_layer_function_per_block(self, monkeypatch):
        log = []
        for name in ("conv1d_forward", "batchnorm_forward_train",
                     "batchnorm_backward", "conv1d_backward"):
            record_calls(monkeypatch, fcn, name, log)
        split = [(np.linspace(-1, 1, 10) * k, k % 2) for k in range(4)]
        train(build_model(2, seed=67, filters=TINY), split,
              TrainConfig(epochs=1, batch_size=4))
        assert [name for name, _ in log] == (
            ["conv1d_forward", "batchnorm_forward_train"] * 3
            + ["batchnorm_backward", "conv1d_backward"] * 3
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_finite_loss_raises(self):
        # finite in float32, but the convolution sums overflow it
        split = [(np.full(8, 3e38 * (-1) ** k), k % 2) for k in range(8)]
        m = build_model(2, seed=35, filters=TINY)
        with pytest.raises(ValueError, match="no epoch reached a finite loss"):
            train(m, split, TrainConfig(epochs=2))

    def test_sample_beyond_float32_raises(self):
        # finite in float64, inf once cast to float32
        split = [(np.full(8, 1e39 * (-1) ** k), k % 2) for k in range(8)]
        m = build_model(2, seed=35, filters=TINY)
        with pytest.raises(ValueError, match="beyond the float32 range"):
            train(m, split, TrainConfig(epochs=2))

    def test_empty_split_rejected(self):
        m = build_model(2, seed=35, filters=TINY)
        with pytest.raises(ValueError):
            train(m, [], TrainConfig(epochs=1))

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_lengths_raise_before_any_step(self, monkeypatch, seed):
        # Two series of length 8 and four of 12 in batches of 2: every batch
        # holds one length at seeds 0 and 2, and the first one does at seed
        # 3, so a check per batch would train or step first.
        rng = np.random.default_rng(68)
        split = [(rng.standard_normal(8 if k < 2 else 12), k % 2) for k in range(6)]
        steps = record_calls(monkeypatch, fcn, "adam_step")
        m = build_model(2, seed=69, filters=TINY)
        with pytest.raises(ValueError,
                           match=r"^train split mixes series lengths \[8, 12\]$"):
            train(m, split, TrainConfig(epochs=1, batch_size=2, seed=seed))
        assert steps == []


class TestEvaluate:
    def test_uniform_model_ties_break_to_class_zero(self):
        m = build_model(2, seed=36, filters=TINY)
        m["head.weight"][:] = 0.0
        rng = np.random.default_rng(37)
        split = [(rng.standard_normal(8), k % 2) for k in range(10)]
        # every prediction is class 0, so accuracy = fraction labeled 0
        assert evaluate(m, split) == 0.5

    def test_empty_split_rejected(self):
        m = build_model(2, seed=38, filters=TINY)
        with pytest.raises(ValueError):
            evaluate(m, [])

    @pytest.mark.parametrize("label", [2, 5, -1])
    def test_out_of_range_label_rejected(self, label):
        m = build_model(2, seed=39, filters=TINY)
        split = [(np.zeros(8), 0), (np.ones(8), label)]
        with pytest.raises(ValueError, match=r"labels must lie in 0\.\.1"):
            evaluate(m, split)
        with pytest.raises(ValueError, match=r"labels must lie in 0\.\.1"):
            loss_and_gradients(m, split)

    def test_sample_beyond_float32_raises(self):
        split = [(np.full(8, 1e39), 0), (np.zeros(8), 1)]
        m = clone_model(build_model(2, seed=38, filters=TINY), np.float32)
        with pytest.raises(ValueError, match="beyond the float32 range"):
            evaluate(m, split)
        assert 0.0 <= evaluate(clone_model(m, np.float64), split) <= 1.0

    @pytest.mark.parametrize("series, match", [
        ([np.zeros(0)], "at least one sample"),
        ([np.zeros(0)] * 3, "at least one sample"),
        ([np.array([0.5, np.nan, -1.0, 2.0])], "non-finite"),
        ([np.array([0.5, np.inf, -1.0, 2.0])], "non-finite"),
    ])
    def test_empty_or_non_finite_series_raise(self, series, match):
        m = build_model(2, seed=38, filters=TINY)
        before = clone_model(m)
        split = [(s, 1) for s in series]
        with pytest.raises(DataValidationError, match=match):
            forward(m, series)
        with pytest.raises(DataValidationError, match=match):
            evaluate(m, split)
        with pytest.raises(DataValidationError, match=match):
            loss_and_gradients(m, split)
        with pytest.raises(DataValidationError, match=match):
            train(m, split, TrainConfig(epochs=1))
        assert all(np.array_equal(m[name], before[name]) for name in m)


class TestDtype:
    def test_build_model_is_float64(self):
        m = build_model(2, seed=70, filters=TINY)
        assert all(t.dtype == np.float64 for _, t in m.items())

    def test_train_returns_a_train_dtype_model(self):
        rng = np.random.default_rng(71)
        split = [(rng.standard_normal(12), k % 2) for k in range(6)]
        config = TrainConfig(epochs=2, batch_size=4, seed=72)
        trained, _ = train(build_model(2, seed=73, filters=TINY), split, config)
        assert TRAIN_DTYPE == np.float32
        assert all(t.dtype == TRAIN_DTYPE for _, t in trained.items())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_array_follows_the_model(self, dtype):
        rng = np.random.default_rng(71)
        split = [(rng.standard_normal(12), k % 2) for k in range(6)]
        work = clone_model(build_model(2, seed=73, filters=TINY), dtype)
        _, grads = loss_and_gradients(work, split[:4])
        assert all(g.dtype == dtype for g in grads.values())
        state = init_adam_state(work)
        adam_step(work, grads, state, 1, TrainConfig())
        for moments in (state.m, state.v):
            assert all(a.dtype == dtype for a in moments.values())
        assert all(t.dtype == dtype for _, t in work.items())

        series = [s for s, _ in split]
        assert forward(work, series).dtype == dtype
        swapped = swap_head(work, 3, seed=74)
        assert all(t.dtype == dtype for _, t in swapped.items())

    def test_clone_model_casts_a_copy(self):
        m = build_model(2, seed=75, filters=TINY)
        cast = clone_model(m, np.float32)
        assert cast.dtype == np.float32
        assert np.array_equal(
            cast["conv1.weight"], m["conv1.weight"].astype(np.float32)
        )
        same = clone_model(m)
        assert same.dtype == np.float64 and model_bytes(same) == model_bytes(m)
        same["conv1.weight"][...] = 0.0
        assert not np.array_equal(m["conv1.weight"], same["conv1.weight"])
