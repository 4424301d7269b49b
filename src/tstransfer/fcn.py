"""A 1-D fully convolutional classifier built from first principles.

Three convolution blocks (conv, stride 1, length-preserving zero padding,
then batch normalization, then ReLU), global average pooling over time, and
an affine softmax head. Forward pass, exact backpropagation, Adam, and the
training loop are all implemented directly on float64 numpy arrays; no
learning framework is involved. Global average pooling makes the classifier
independent of the input length, so one model can consume series of any
length.

Activations are channels-last, (B, T, C), from the stacked batch to the
pooling. Each convolution lays its input out as B zero-padded segments of
T+K-1 rows stacked in one buffer, and one kernel, `_correlate`, computes
sum_k padded[q+k] @ wk[k] for every row q of the whole batch; the K-1 output
rows between two segments straddle two series and are dropped. The kernel
makes its K-fold copy on the narrower side: an im2col matrix of the input
(K*Cin columns) when Cin <= Cout, otherwise one GEMM into K*Cout columns
whose K column blocks are added with a shift of k rows. The backward pass
keeps only the padded input: the weight gradient is K GEMMs over its
shifted views, and the input gradient is a transposed convolution, the same
kernel applied to the padded output gradient and the flipped weights.
Evaluation folds each block's running-stat batch-norm into the
convolution's weights and bias. Weights keep the (Cout, Cin, K) layout in
memory and on disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import LabeledSeries

__all__ = [
    "FcnModel",
    "TrainConfig",
    "TrainHistory",
    "AdamState",
    "KERNEL_SIZES",
    "DEFAULT_FILTERS",
    "build_model",
    "clone_model",
    "forward",
    "loss_and_gradients",
    "init_adam_state",
    "adam_step",
    "train",
    "evaluate",
]

KERNEL_SIZES = (8, 5, 3)
DEFAULT_FILTERS = (128, 256, 128)
BN_EPSILON = 1e-3
BN_MOMENTUM = 0.99  # new_running = momentum * old + (1 - momentum) * batch
ADAM_EPSILON = 1e-8
_EVAL_CHUNK = 16  # largest conv buffer of one chunk: about 11 MB at T=128


@dataclass
class FcnModel:
    """All weights and batch-norm statistics of the three-block network.

    conv_w[i] has shape (filters[i], in_channels, kernel), biases and the
    four batch-norm vectors are per-channel, head_w is (filters[-1], C).
    Arrays are float64 and mutated in place during training; a model under
    training must stay confined to one thread.
    """

    conv_w: list[np.ndarray]
    conv_b: list[np.ndarray]
    bn_gamma: list[np.ndarray]
    bn_beta: list[np.ndarray]
    bn_mean: list[np.ndarray]
    bn_var: list[np.ndarray]
    head_w: np.ndarray
    head_b: np.ndarray
    class_count: int

    @property
    def filters(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.conv_w)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """All 20 named tensors in serialization order."""
        out = []
        for i in range(3):
            k = i + 1
            out.append((f"conv{k}.weight", self.conv_w[i]))
            out.append((f"conv{k}.bias", self.conv_b[i]))
            out.append((f"bn{k}.gamma", self.bn_gamma[i]))
            out.append((f"bn{k}.beta", self.bn_beta[i]))
            out.append((f"bn{k}.running_mean", self.bn_mean[i]))
            out.append((f"bn{k}.running_var", self.bn_var[i]))
        out.append(("head.weight", self.head_w))
        out.append(("head.bias", self.head_b))
        return out

    def trainable(self) -> list[tuple[str, np.ndarray]]:
        """The 14 tensors updated by the optimizer (running stats excluded)."""
        out = []
        for i in range(3):
            k = i + 1
            out.append((f"conv{k}.weight", self.conv_w[i]))
            out.append((f"conv{k}.bias", self.conv_b[i]))
            out.append((f"bn{k}.gamma", self.bn_gamma[i]))
            out.append((f"bn{k}.beta", self.bn_beta[i]))
        out.append(("head.weight", self.head_w))
        out.append(("head.bias", self.head_b))
        return out


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults are the standard recipe.

    epochs = 0 is allowed as an explicit no-op boundary.
    """

    epochs: int = 2000
    batch_size: int = 16
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("moment decay rates must lie in [0, 1)")


@dataclass
class TrainHistory:
    """Per-epoch train loss, train accuracy, and wall-clock seconds.

    Both metrics are accumulated from the training-mode forward passes of
    the epoch's batches (predictions taken before each weight update), so
    they describe the data exactly as the optimizer saw it.
    """

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based epoch of the checkpointed model; 0 if none

    def epochs_to_accuracy(self, threshold: float) -> int | None:
        """First 1-based epoch whose train accuracy reaches the threshold."""
        for epoch, acc in enumerate(self.accuracies, start=1):
            if acc >= threshold:
                return epoch
        return None


def glorot_uniform_bound(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def build_model(
    class_count: int, seed: int, filters: tuple[int, int, int] = DEFAULT_FILTERS
) -> FcnModel:
    """Fresh model with Glorot-uniform weights and identity batch norm.

    Convolution fans count in_channels * kernel and out_channels * kernel;
    the head uses fan_in = filters[-1] and fan_out = class_count. Biases are
    zero; batch-norm starts as scale 1, shift 0, running mean 0, running
    variance 1. Deterministic for a given seed.
    """
    if class_count < 2:
        raise ValueError(f"class_count must be >= 2, got {class_count}")
    if len(filters) != 3 or any(f < 1 for f in filters):
        raise ValueError(f"filters must be three positive counts, got {filters}")
    rng = np.random.default_rng(seed)
    conv_w, conv_b, gammas, betas, means, variances = [], [], [], [], [], []
    in_ch = 1
    for out_ch, kernel in zip(filters, KERNEL_SIZES):
        bound = glorot_uniform_bound(in_ch * kernel, out_ch * kernel)
        conv_w.append(rng.uniform(-bound, bound, size=(out_ch, in_ch, kernel)))
        conv_b.append(np.zeros(out_ch))
        gammas.append(np.ones(out_ch))
        betas.append(np.zeros(out_ch))
        means.append(np.zeros(out_ch))
        variances.append(np.ones(out_ch))
        in_ch = out_ch
    bound = glorot_uniform_bound(filters[-1], class_count)
    head_w = rng.uniform(-bound, bound, size=(filters[-1], class_count))
    head_b = np.zeros(class_count)
    return FcnModel(
        conv_w=conv_w,
        conv_b=conv_b,
        bn_gamma=gammas,
        bn_beta=betas,
        bn_mean=means,
        bn_var=variances,
        head_w=head_w,
        head_b=head_b,
        class_count=class_count,
    )


def clone_model(model: FcnModel) -> FcnModel:
    return FcnModel(
        conv_w=[w.copy() for w in model.conv_w],
        conv_b=[b.copy() for b in model.conv_b],
        bn_gamma=[g.copy() for g in model.bn_gamma],
        bn_beta=[b.copy() for b in model.bn_beta],
        bn_mean=[m.copy() for m in model.bn_mean],
        bn_var=[v.copy() for v in model.bn_var],
        head_w=model.head_w.copy(),
        head_b=model.head_b.copy(),
        class_count=model.class_count,
    )


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------


def _pad_amounts(kernel: int) -> tuple[int, int]:
    # Length-preserving zero padding; even kernels pad one more on the left.
    return kernel // 2, (kernel - 1) // 2


def _segments(x: np.ndarray, left: int, right: int) -> np.ndarray:
    """(B, T, C) as one (B*(left+T+right), C) array of zero-padded segments."""
    batch, length, channels = x.shape
    padded = np.zeros((batch, left + length + right, channels))
    padded[:, left : left + length] = x
    return padded.reshape(-1, channels)


def _im2col(flat: np.ndarray, kernel: int) -> np.ndarray:
    """Contiguous (R-K+1, K*C) matrix whose row q is flat[q : q+K] end to end.

    flat is a C-contiguous (R, C) array, so the rows are overlapping runs
    of one buffer: a strided view, then a single copy.
    """
    channels = flat.shape[1]
    return sliding_window_view(flat.reshape(-1), kernel * channels)[::channels].copy()


def _correlate(padded: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """(R, Co) array whose row q < R-K+1 is sum_k padded[q+k] @ wk[k].

    padded is a C-contiguous (R, Ci) array and wk is (K, Ci, Co); the last
    K-1 rows are left unset. The K-fold copy is made on the narrower side.
    When Ci <= Co, one GEMM multiplies the (R-K+1, K*Ci) im2col matrix.
    When Ci > Co, one GEMM fills K*Co columns, then the K column blocks are
    added, block k shifted up by k rows.
    """
    kernel, in_ch, out_ch = wk.shape
    rows = padded.shape[0] - kernel + 1
    out = np.empty((padded.shape[0], out_ch))
    if in_ch <= out_ch:
        wmat = wk.reshape(kernel * in_ch, out_ch)
        np.matmul(_im2col(padded, kernel), wmat, out=out[:rows])
        return out
    y = padded @ wk.transpose(1, 0, 2).reshape(in_ch, kernel * out_ch)
    out[:rows] = y[:rows, :out_ch]
    for k in range(1, kernel):
        out[:rows] += y[k : k + rows, k * out_ch : (k + 1) * out_ch]
    return out


def _unsegment(rows: np.ndarray, batch: int, length: int, kernel: int) -> np.ndarray:
    """(B, T, C) view of per-segment rows, dropping the K-1 straddling rows."""
    return rows.reshape(batch, length + kernel - 1, -1)[:, :length]


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Stride-1 zero-padded convolution, output length equals input length.

    x: (B, T, Cin) channels-last, w: (Cout, Cin, K). A single-channel
    batch may also come as (B, 1, T), which has the same memory layout. The
    input is laid out as B zero-padded segments of T+K-1 rows each, stacked
    into one buffer, so output row q is sum_k padded[q+k] @ w[:, :, k].T
    and the whole batch goes through `_correlate` at once. The K-1 rows
    after each segment's T outputs straddle two series; they are computed
    and dropped. Returns (out (B, T, Cout), padded) where padded is the
    (B*(T+K-1), Cin) segment buffer, reused by the backward pass.
    """
    out_ch, in_ch, kernel = w.shape
    batch = x.shape[0]
    x = x.reshape(batch, -1, in_ch)
    length = x.shape[1]
    padded = _segments(x, *_pad_amounts(kernel))
    out = _unsegment(_correlate(padded, w.transpose(2, 1, 0)), batch, length, kernel)
    out += b
    return out, padded


def conv1d_backward(
    dout: np.ndarray,
    padded: np.ndarray,
    w: np.ndarray,
    x_shape,
    *,
    input_grad: bool = True,
):
    """Gradients of the padded convolution w.r.t. input, weights, and bias.

    dout is (B, T, Cout), padded the segment buffer returned by the forward
    pass and x_shape the shape of the forward's input. dout is zero-padded
    into segments that mirror the forward's (`right` zeros before, `left`
    after). Read from row `right` on, that one buffer holds dout in each
    segment's first T rows and zeros in the straddling rows, so
    dW[:, :, k] is one GEMM of the shifted, contiguous view padded[k:] with
    it, K GEMMs in all. dx is the transposed convolution: the correlation of
    the padded dout with the kernel-flipped, transposed weights, returned in
    x_shape. With input_grad=False, dx is not computed and None is returned
    in its place.
    """
    batch, length, _ = dout.shape
    out_ch, in_ch, kernel = w.shape
    left, right = _pad_amounts(kernel)
    flat = _segments(dout, right, left)
    rows = padded.shape[0] - kernel + 1
    db = dout.sum(axis=(0, 1))
    grad_rows = flat[right : right + rows]
    dw = np.empty((kernel, in_ch, out_ch))
    for k in range(kernel):
        np.matmul(padded[k : k + rows].T, grad_rows, out=dw[k])
    dw = np.ascontiguousarray(dw.transpose(2, 1, 0))
    if not input_grad:
        return None, dw, db
    dx = _correlate(flat, w[:, :, ::-1].transpose(2, 0, 1))
    return _unsegment(dx, batch, length, kernel).reshape(x_shape), dw, db


def batchnorm_forward_train(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Normalize per channel with batch statistics over (batch, time).

    x is (B, T, C). Returns (y, xhat, inv_std, batch_mean, batch_var);
    batch_var is the population variance.
    """
    mu = x.mean(axis=(0, 1))
    xhat = x - mu
    var = np.einsum("btc,btc->c", xhat, xhat) / (x.shape[0] * x.shape[1])
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat *= inv_std
    y = xhat * gamma
    y += beta
    return y, xhat, inv_std, mu, var


def batchnorm_forward_eval(x, gamma, beta, running_mean, running_var):
    """Normalize channels-last x (..., C) with the running statistics."""
    scale = gamma / np.sqrt(running_var + BN_EPSILON)
    return (x - running_mean) * scale + beta


def _fold_batchnorm(model: FcnModel, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Block i's conv weights and bias with running-stat batch-norm folded in.

    BN(W x + b) = (scale W) x + BN(b) per output channel, with
    scale = gamma / sqrt(running_var + eps).
    """
    gamma, beta = model.bn_gamma[i], model.bn_beta[i]
    mean, var = model.bn_mean[i], model.bn_var[i]
    w = model.conv_w[i] * (gamma / np.sqrt(var + BN_EPSILON))[:, None, None]
    b = batchnorm_forward_eval(model.conv_b[i], gamma, beta, mean, var)
    return w, b


def batchnorm_backward(dy, xhat, inv_std, gamma):
    """Backprop through the batch-statistics normalization path (B, T, C)."""
    n = dy.shape[0] * dy.shape[1]
    dgamma = np.einsum("btc,btc->c", dy, xhat)
    dbeta = dy.sum(axis=(0, 1))
    dx = xhat * (dgamma / n)
    np.subtract(dy, dx, out=dx)
    dx -= dbeta / n
    dx *= gamma * inv_std
    return dx, dgamma, dbeta


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _stack_batch(batch) -> np.ndarray:
    series = []
    for item in batch:
        series.append(item.series if isinstance(item, LabeledSeries) else item)
    if not series:
        raise ValueError("empty batch")
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ValueError(f"batch mixes series lengths {sorted(lengths)}")
    return np.asarray(series, dtype=np.float64)[:, :, None]


def _split_pairs(split) -> tuple[list, list[int]]:
    """Accept LabeledSeries or (series, label) pairs uniformly."""
    series, labels = [], []
    for item in split:
        if isinstance(item, LabeledSeries):
            series.append(item.series)
            labels.append(item.label)
        else:
            s, lab = item
            series.append(s)
            labels.append(int(lab))
    return series, labels


def _forward_impl(model: FcnModel, x: np.ndarray, training: bool):
    """Run the body and head; in training mode also update running stats.

    x is (B, T, 1). Returns (logits, caches); caches hold what backprop
    needs and is None in eval mode. Eval mode folds each block's running-stat
    batch-norm into its convolution, so a block is one conv and one ReLU.
    """
    caches = [] if training else None
    out = x
    for i in range(3):
        if not training:
            out, _ = conv1d_forward(out, *_fold_batchnorm(model, i))
            np.maximum(out, 0.0, out=out)
            continue
        conv_in_shape = out.shape
        out, padded = conv1d_forward(out, model.conv_w[i], model.conv_b[i])
        out, xhat, inv_std, mu, var = batchnorm_forward_train(
            out, model.bn_gamma[i], model.bn_beta[i]
        )
        model.bn_mean[i] = BN_MOMENTUM * model.bn_mean[i] + (1 - BN_MOMENTUM) * mu
        model.bn_var[i] = BN_MOMENTUM * model.bn_var[i] + (1 - BN_MOMENTUM) * var
        mask = out > 0
        out *= mask
        caches.append((conv_in_shape, padded, xhat, inv_std, mask))
    gap = out.mean(axis=1)  # (B, F3)
    logits = gap @ model.head_w + model.head_b
    if training:
        return logits, (caches, gap, out.shape[1])
    return logits, None


def forward(model: FcnModel, batch, mode: str = "eval") -> np.ndarray:
    """Class-probability matrix (batch x C) for a batch of same-length series.

    mode "train" normalizes with batch statistics and updates the running
    statistics; mode "eval" uses the stored running statistics.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = _stack_batch(batch)
    logits, _ = _forward_impl(model, x, training=(mode == "train"))
    return np.exp(_log_softmax(logits))


def loss_and_gradients(model: FcnModel, batch):
    """Mean cross-entropy over the batch and its exact parameter gradients.

    The batch is a sequence of (series, label) pairs or LabeledSeries. Runs
    in training mode, so batch statistics are used and running statistics
    are updated. Gradients are returned as a dict keyed like
    FcnModel.trainable(). Softmax plus cross-entropy is evaluated through
    log-sum-exp, so probabilities never underflow the log.
    """
    loss, grads, _ = _loss_and_gradients_impl(model, batch)
    return loss, grads


def _loss_and_gradients_impl(model: FcnModel, batch):
    """loss_and_gradients plus the batch's correct-prediction count."""
    series, labels = _split_pairs(batch)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.size and (labels.min() < 0 or labels.max() >= model.class_count):
        raise ValueError(
            f"labels must lie in 0..{model.class_count - 1}, got {labels.tolist()}"
        )
    x = _stack_batch(series)
    batch_size = x.shape[0]

    logits, (caches, gap, length) = _forward_impl(model, x, training=True)
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(batch_size), labels].mean())
    correct = int((logits.argmax(axis=1) == labels).sum())

    probs = np.exp(logp)
    dlogits = probs
    dlogits[np.arange(batch_size), labels] -= 1.0
    dlogits /= batch_size

    grads: dict[str, np.ndarray] = {}
    grads["head.weight"] = gap.T @ dlogits
    grads["head.bias"] = dlogits.sum(axis=0)
    dgap = dlogits @ model.head_w.T

    dout = (dgap / length)[:, None, :]
    for i in (2, 1, 0):
        conv_in_shape, padded, xhat, inv_std, mask = caches[i]
        dout = dout * mask
        dout, dgamma, dbeta = batchnorm_backward(dout, xhat, inv_std, model.bn_gamma[i])
        # The network input needs no gradient.
        dout, dw, db = conv1d_backward(
            dout, padded, model.conv_w[i], conv_in_shape, input_grad=i > 0
        )
        grads[f"bn{i + 1}.gamma"] = dgamma
        grads[f"bn{i + 1}.beta"] = dbeta
        grads[f"conv{i + 1}.weight"] = dw
        grads[f"conv{i + 1}.bias"] = db
    return loss, grads, correct


# ---------------------------------------------------------------------------
# Optimizer and training loop
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First and second moment accumulators keyed by trainable tensor name."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam_state(model: FcnModel) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(p) for name, p in model.trainable()},
        v={name: np.zeros_like(p) for name, p in model.trainable()},
    )


def adam_step(
    model: FcnModel, grads: dict, state: AdamState, t: int, config: TrainConfig
):
    """One Adam update with bias correction, applied in place.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    theta <- theta - lr * mhat / (sqrt(vhat) + eps).
    """
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, param in model.trainable():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        param -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    return model, state


def _epoch_batches(perm: np.ndarray, batch_size: int) -> list[np.ndarray]:
    chunks = [perm[i : i + batch_size] for i in range(0, len(perm), batch_size)]
    # Batch statistics need >= 2 samples; fold a trailing singleton into the
    # previous batch when one exists.
    if len(chunks) >= 2 and len(chunks[-1]) == 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def train(model: FcnModel, train_split, config: TrainConfig):
    """Mini-batch Adam training; returns the lowest-train-loss checkpoint.

    Each epoch shuffles the split with the seeded generator, walks batches
    of config.batch_size (the trailing batch may be smaller), and applies
    one Adam step per batch. The epoch loss and accuracy are the per-sample
    means over the epoch's batches as trained. The input model is not
    mutated; the returned model is the snapshot from the epoch with the
    strictly lowest train loss (earliest epoch on ties), and the history
    covers every epoch. Raises ValueError when no epoch reaches a finite
    loss, since there is then no checkpoint to return. Fully deterministic
    for a given seed.
    """
    items = list(train_split)
    if not items:
        raise ValueError("train: empty train split")
    if config.epochs == 0:
        return model, TrainHistory()

    work = clone_model(model)
    rng = np.random.default_rng(config.seed)
    state = init_adam_state(work)
    history = TrainHistory()
    best_loss = np.inf
    best_model = None
    step = 0
    n = len(items)
    for epoch in range(1, config.epochs + 1):
        tic = time.perf_counter()
        perm = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for idx in _epoch_batches(perm, config.batch_size):
            batch = [items[i] for i in idx]
            loss, grads, batch_correct = _loss_and_gradients_impl(work, batch)
            step += 1
            adam_step(work, grads, state, step, config)
            loss_sum += loss * len(idx)
            correct += batch_correct
        epoch_loss = loss_sum / n
        accuracy = correct / n
        history.losses.append(epoch_loss)
        history.accuracies.append(accuracy)
        history.epoch_seconds.append(time.perf_counter() - tic)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_model = clone_model(work)
            history.best_epoch = epoch
    if best_model is None:
        raise ValueError(
            f"train: no epoch reached a finite loss in {config.epochs} epochs "
            f"(last loss {history.losses[-1]}); the data or the learning rate "
            "overflows float64"
        )
    return best_model, history


def evaluate(model: FcnModel, split) -> float:
    """Fraction of samples whose argmax class matches the label (eval mode).

    Argmax ties resolve to the lowest class index. Series go through the
    network _EVAL_CHUNK at a time, which bounds the convolution buffers.
    """
    series, labels = _split_pairs(split)
    if not series:
        raise ValueError("evaluate: empty split")
    correct = 0
    for start in range(0, len(series), _EVAL_CHUNK):
        chunk_labels = np.asarray(labels[start : start + _EVAL_CHUNK])
        probs = forward(model, series[start : start + _EVAL_CHUNK], mode="eval")
        correct += int((probs.argmax(axis=1) == chunk_labels).sum())
    return correct / len(series)
