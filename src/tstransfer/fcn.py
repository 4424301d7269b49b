"""A 1-D fully convolutional classifier built from first principles.

Three convolution blocks (conv, stride 1, length-preserving zero padding,
then batch normalization, then ReLU), global average pooling over time, and
an affine softmax head. Forward pass, exact backpropagation, Adam, and the
training loop are all implemented directly on numpy arrays; no learning
framework is involved. Global average pooling makes the classifier
independent of the input length, so one model can consume series of any
length.

The dtype of a model is that of its arrays, and every buffer of the forward
and backward passes follows it. `build_model` returns float64 weights;
`train` computes in TRAIN_DTYPE, float32 as in the reference Keras models,
and returns a model of that dtype.

Activations are channels-last, (B, T, C), from the stacked batch to the
pooling. Each convolution lays its input out as B zero-padded segments of
T+K-1 rows stacked in one buffer, and one kernel, `_correlate`, computes
sum_k padded[q+k] @ wk[k] for every row q of the whole batch; the K-1 output
rows between two segments straddle two series and are dropped. The kernel
copies nothing: the output rows of each phase r (rows r, r+K, r+2K, ...)
read the padded rows from r on end to end, so a plain slice of the
C-contiguous buffer is their im2col matrix, and one GEMM per phase writes
them, whatever the channel counts. The backward pass keeps only the padded
input: the weight gradient is K GEMMs over its shifted views, and the input
gradient is a transposed convolution, the same kernel applied to the padded
output gradient and the flipped weights. Inference, `forward` and so
`evaluate`, folds each block's running-stat batch-norm into the
convolution's weights and bias once per call, copied into the layout
`_correlate` multiplies, and runs the series in chunks of about _EVAL_STEPS
time steps of one length, so its buffers do not grow with the series length.
Model weights keep the (Cout, Cin, K) layout in memory and on disk.

Each `train`, `loss_and_gradients` or `forward` call allocates one buffer
set, `_Buffers`, sized for its largest batch (for `forward`, one set per
series length, sized for its largest chunk), and every step or chunk works
in it in place, so its pages are mapped once per call. Training keeps each
block's padded input and C-contiguous `xhat`; inference needs neither, so
its blocks' inputs take turns in one buffer. Batch-norm and ReLU of one
block write straight into the next block's padded input; batch-norm backward
works in its block's `xhat` and writes the padded output gradient; the input
gradient lands in the block's padded input, which is spent by then. Pad rows
are therefore zeroed again for every batch before the forward pass writes an
input. The ReLU mask is formed again in the backward pass from `xhat`.
Every reduction sees the layout it saw with fresh arrays (batch-norm's sums
a C-contiguous `xhat` and dy, `mu` the correlation rows), so results are
byte-equal to fresh buffers.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .core import DataValidationError, LabeledSeries, as_series_list, check_count

__all__ = [
    "FcnModel",
    "TrainConfig",
    "TrainHistory",
    "AdamState",
    "KERNEL_SIZES",
    "DEFAULT_FILTERS",
    "TRAINABLE",
    "layer_spec",
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
ADAM_BETA1 = 0.9  # Adam's moment decay rates and epsilon: the fixed recipe
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
TRAIN_DTYPE = np.dtype(np.float32)  # the precision `train` computes in
# Goes up whenever a change moves the bits a matrix cell records; run
# provenance records it, so a resumed matrix never mixes two policies.
NUMERICS_VERSION = 3
_EVAL_STEPS = 2048  # time steps per evaluation chunk: 16 series at T=128


class FcnModel(dict):
    """All weights and batch-norm statistics of the three-block network.

    An ordered mapping from tensor name to array, with the names and shapes
    of `layer_spec(model.filters, model.class_count)` in the same order.
    All arrays share one floating dtype, float32 or float64, which every
    computation on the model follows. Arrays are mutated in place during
    training; a model under training must stay confined to one thread.
    """

    @property
    def filters(self) -> tuple[int, ...]:
        return tuple(self[f"conv{k}.weight"].shape[0] for k in (1, 2, 3))

    @property
    def class_count(self) -> int:
        return self["head.bias"].shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self["conv1.weight"].dtype


def layer_spec(filters, class_count: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of all 20 tensors, in serialization order.

    conv{k}.weight is (filters[k-1], in_channels, kernel); biases and the
    four batch-norm vectors are per-channel; head.weight is
    (filters[-1], class_count). The one check of a network's shape: three
    filter counts >= 1 and a class count >= 2 (`check_count`).
    """
    if not isinstance(filters, (tuple, list)) or len(filters) != 3:
        raise DataValidationError(f"filters must be three counts, got {filters!r}")
    filters = [check_count(f"filters[{k}]", f, 1) for k, f in enumerate(filters)]
    class_count = check_count("class_count", class_count, 2)
    spec: dict[str, tuple[int, ...]] = {}
    in_ch = 1
    for k, (out_ch, kernel) in enumerate(zip(filters, KERNEL_SIZES), start=1):
        spec[f"conv{k}.weight"] = (out_ch, in_ch, kernel)
        spec[f"conv{k}.bias"] = (out_ch,)
        spec[f"bn{k}.gamma"] = (out_ch,)
        spec[f"bn{k}.beta"] = (out_ch,)
        spec[f"bn{k}.running_mean"] = (out_ch,)
        spec[f"bn{k}.running_var"] = (out_ch,)
        in_ch = out_ch
    spec["head.weight"] = (filters[-1], class_count)
    spec["head.bias"] = (class_count,)
    return spec


# The tensors the optimizer updates: all but the running statistics. Names
# do not depend on the sizes passed to layer_spec.
TRAINABLE = tuple(
    name for name in layer_spec(DEFAULT_FILTERS, 2)
    if not name.endswith(("running_mean", "running_var"))
)


@dataclass(frozen=True)
class TrainConfig:
    """The training schedule and seed; defaults are the standard recipe.

    Adam's other settings are the fixed ADAM_BETA1, ADAM_BETA2 and
    ADAM_EPSILON. epochs, batch_size and seed are integers, not bools;
    epochs = 0 is allowed as an explicit no-op boundary, and seed is >= 0,
    as numpy's `default_rng` needs. The learning rate must be a finite
    positive real number.
    """

    epochs: int = 2000
    batch_size: int = 16
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        check_count("epochs", self.epochs, 0)
        check_count("batch_size", self.batch_size, 1)
        check_count("seed", self.seed, 0)
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real):
            raise ValueError(f"learning_rate must be a real number, got {lr!r}")
        if not 0 < lr < np.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {lr}")


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
    variance 1. Deterministic for a given seed, an integer >= 0; the shape
    is checked by `layer_spec`.
    """
    spec = layer_spec(filters, class_count)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    model = FcnModel()
    # Spec order draws the conv1, conv2, conv3 and head weights in turn.
    for name, shape in spec.items():
        if name == "head.weight":
            bound = glorot_uniform_bound(*shape)
            model[name] = rng.uniform(-bound, bound, size=shape)
        elif name.endswith(".weight"):
            out_ch, in_ch, kernel = shape
            bound = glorot_uniform_bound(in_ch * kernel, out_ch * kernel)
            model[name] = rng.uniform(-bound, bound, size=shape)
        elif name.endswith(("gamma", "running_var")):
            model[name] = np.ones(shape)
        else:
            model[name] = np.zeros(shape)
    return model


def clone_model(model: FcnModel, dtype=None) -> FcnModel:
    """Independent copy of a model, cast to dtype when one is given."""
    dtype = model.dtype if dtype is None else dtype
    return FcnModel({name: a.astype(dtype) for name, a in model.items()})


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------


def _pad_amounts(kernel: int) -> tuple[int, int]:
    # Length-preserving zero padding; even kernels pad one more on the left.
    return kernel // 2, (kernel - 1) // 2


def _view(buf: np.ndarray, shape) -> np.ndarray:
    """Array of this shape over the leading elements of buf."""
    return buf[: math.prod(shape)].reshape(shape)


def _rows(seg: np.ndarray) -> np.ndarray:
    """(B, S, C) segments as one stacked (B*S, C) array."""
    return seg.reshape(-1, seg.shape[2])


def _zero_pads(seg: np.ndarray, lead: int, length: int) -> np.ndarray:
    """Zero each segment's rows outside lead..lead+T-1; return those rows."""
    seg[:, :lead] = 0
    seg[:, lead + length :] = 0
    return seg[:, lead : lead + length]


def _correlate(padded: np.ndarray, wk: np.ndarray, out=None) -> np.ndarray:
    """(R, Co) array whose row q < R-K+1 is sum_k padded[q+k] @ wk[k].

    padded is a C-contiguous (R, Ci) array and wk is (K, Ci, Co); the rows
    are written to out, a C-contiguous (R, Co) array, or to a new one, and
    the last K-1 rows are left unset. Nothing is copied: the output rows
    q = r, r+K, r+2K, ... of phase r read the padded rows from r on, K at a
    time and end to end, so one plain slice of padded is their (n, K*Ci)
    im2col matrix, and one GEMM per phase writes them.
    """
    kernel, in_ch, out_ch = wk.shape
    rows = padded.shape[0] - kernel + 1
    if out is None:
        out = np.empty((padded.shape[0], out_ch), dtype=np.result_type(padded, wk))
    if not (padded.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("_correlate needs C-contiguous padded and out arrays")
    flat = padded.reshape(-1)
    wmat = np.ascontiguousarray(wk).reshape(kernel * in_ch, out_ch)
    for r in range(min(kernel, rows)):
        n = -(-(rows - r) // kernel)
        cols = flat[r * in_ch : (r + n * kernel) * in_ch].reshape(n, -1)
        np.matmul(cols, wmat, out=out[r:rows:kernel])
    return out


def _correlate_layout(w: np.ndarray) -> np.ndarray:
    """w (Cout, Cin, K) as a view of a copy laid out as `_correlate` reads it.

    `conv1d_forward` passes w.transpose(2, 1, 0) to `_correlate`, which
    multiplies it as a C-contiguous (K, Cin, Cout) array. On the model's own
    (Cout, Cin, K) arrays that is a copy made on every call; on this view it
    is the array itself.
    """
    return np.ascontiguousarray(w.transpose(2, 1, 0)).transpose(2, 1, 0)


def _unsegment(rows: np.ndarray, batch: int, length: int, kernel: int) -> np.ndarray:
    """(B, T, C) view of per-segment rows, dropping the K-1 straddling rows."""
    return rows.reshape(batch, length + kernel - 1, -1)[:, :length]


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, *, padded=None,
                   out=None):
    """Stride-1 zero-padded convolution, output length equals input length.

    x: (B, T, Cin) channels-last, w: (Cout, Cin, K). A single-channel
    batch may also come as (B, 1, T), which has the same memory layout. The
    input is laid out as B zero-padded segments of T+K-1 rows each, stacked
    into one (B*(T+K-1), Cin) buffer, so output row q is
    sum_k padded[q+k] @ w[:, :, k].T and the whole batch goes through
    `_correlate` at once, into `out` when given. The K-1 rows after each
    segment's T outputs straddle two series; they are computed and dropped.
    A caller that passes `padded` has zeroed its pad rows and written x into
    the rest, x being that view of it; otherwise x is copied into a new one.
    Returns (out (B, T, Cout), padded); backward reuses padded.
    """
    out_ch, in_ch, kernel = w.shape
    batch = x.shape[0]
    x = x.reshape(batch, -1, in_ch)
    length = x.shape[1]
    if padded is None:
        seg = np.empty((batch, length + kernel - 1, in_ch), x.dtype)
        _zero_pads(seg, kernel // 2, length)[...] = x
        padded = _rows(seg)
    rows = _correlate(padded, w.transpose(2, 1, 0), out)
    y = _unsegment(rows, batch, length, kernel)
    y += b
    return y, padded


def conv1d_backward(
    dout: np.ndarray,
    padded: np.ndarray,
    w: np.ndarray,
    x_shape,
    *,
    input_grad: bool = True,
    grad=None,
):
    """Gradients of the padded convolution w.r.t. input, weights, and bias.

    dout is (B, T, Cout), padded the segment buffer of the forward pass and
    x_shape the shape of the forward's input. The gradient buffer holds
    dout in segments that mirror the forward's (`right` zeros before, `left`
    after). Read from row `right` on, that one buffer holds dout in each
    segment's first T rows and zeros in the straddling rows, so
    dW[:, :, k] is one GEMM of the shifted, contiguous view padded[k:] with
    it, K GEMMs in all. dx is the transposed convolution: the correlation of
    the padded dout with the kernel-flipped, transposed weights, returned in
    x_shape. A caller that passes `grad`, that padded gradient with dout as
    its view, has spent padded, and dx is written over it, pad rows too;
    otherwise dout is copied into a new buffer and dx is a new array. With
    input_grad=False, dx is not computed and None is returned in its place.
    """
    batch, length, _ = dout.shape
    out_ch, in_ch, kernel = w.shape
    right = _pad_amounts(kernel)[1]
    dx_rows = None if grad is None else padded
    if grad is None:
        seg = np.empty((batch, length + kernel - 1, out_ch), dout.dtype)
        _zero_pads(seg, right, length)[...] = dout
        grad = _rows(seg)
    rows = padded.shape[0] - kernel + 1
    db = dout.sum(axis=(0, 1))
    grad_rows = grad[right : right + rows]
    dw = np.empty((kernel, in_ch, out_ch), dtype=np.result_type(padded, grad_rows))
    for k in range(kernel):
        np.matmul(padded[k : k + rows].T, grad_rows, out=dw[k])
    dw = np.ascontiguousarray(dw.transpose(2, 1, 0))
    if not input_grad:
        return None, dw, db
    dx = _correlate(grad, w[:, :, ::-1].transpose(2, 0, 1), dx_rows)
    return _unsegment(dx, batch, length, kernel).reshape(x_shape), dw, db


def batchnorm_forward_train(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, *,
                            xhat=None, out=None):
    """Normalize per channel with batch statistics over (batch, time).

    x is (B, T, C). Returns (y, xhat, inv_std, batch_mean, batch_var);
    batch_var is the population variance. xhat and y are written to the
    given C-contiguous (B, T, C) arrays, else to new ones; out may overlap
    x, which is spent once xhat is formed.
    """
    mu = x.mean(axis=(0, 1))
    xhat = np.subtract(x, mu, out=xhat)
    var = np.einsum("btc,btc->c", xhat, xhat) / (x.shape[0] * x.shape[1])
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat *= inv_std
    y = np.multiply(xhat, gamma, out=out)
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
    k = i + 1
    gamma, beta = model[f"bn{k}.gamma"], model[f"bn{k}.beta"]
    mean, var = model[f"bn{k}.running_mean"], model[f"bn{k}.running_var"]
    w = model[f"conv{k}.weight"] * (gamma / np.sqrt(var + BN_EPSILON))[:, None, None]
    b = batchnorm_forward_eval(model[f"conv{k}.bias"], gamma, beta, mean, var)
    return w, b


def batchnorm_backward(dy, xhat, inv_std, gamma, *, out=None):
    """Backprop through the batch-statistics normalization path (B, T, C).

    Works in place in xhat, which it spends. dx is written to out, which may
    overlap dy, or to a new array.
    """
    n = dy.shape[0] * dy.shape[1]
    dgamma = np.einsum("btc,btc->c", dy, xhat)
    dbeta = dy.sum(axis=(0, 1))
    xhat *= dgamma / n
    np.subtract(dy, xhat, out=xhat)
    xhat -= dbeta / n
    dx = np.multiply(xhat, gamma * inv_std, out=out)
    return dx, dgamma, dbeta


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _stack_batch(series, dtype, name: str, label="batch") -> np.ndarray:
    """(B, T, 1) array in dtype of the series, which `core.as_series_list`
    checks as `name`. ValueError, labelled `label`, for a batch that mixes
    lengths, and naming the dtype for a finite sample the cast makes inf."""
    series = as_series_list(series, name)
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ValueError(f"{label} mixes series lengths {sorted(lengths)}")
    with np.errstate(over="ignore"):
        x = np.asarray(series, dtype=dtype)
    if not np.isfinite(x).all():
        raise ValueError(f"{label} has samples beyond the {x.dtype} range")
    return x[:, :, None]


def _split_pairs(split, class_count: int) -> tuple[list, np.ndarray]:
    """The series of LabeledSeries or (series, label) pairs, and their labels
    as an index array. A pair's label must be an integer (`check_count`),
    and ValueError unless every label lies in 0..class_count-1."""
    series, labels = [], []
    for item in split:
        if isinstance(item, LabeledSeries):
            series.append(item.series)
            labels.append(item.label)
        else:
            s, lab = item
            series.append(s)
            labels.append(check_count("label", lab, -math.inf))
    if labels and (min(labels) < 0 or max(labels) >= class_count):
        raise ValueError(f"labels must lie in 0..{class_count - 1}, got {labels}")
    return series, np.asarray(labels, dtype=np.intp)


class _Buffers:
    """The buffer set of one call (see the module docstring).

    `fit(B, T)` sizes it for batches of up to B series of length T and
    keeps it while later batches fit; a new length frees it first. A
    batch takes views of its arrays' leading elements. The transient holds
    one block's correlation rows (block 3's activations are written over
    them), then dy and the padded output gradient.
    """

    def __init__(self, model: FcnModel, train: bool):
        self.dtype, self.widths, self.train = model.dtype, (1, *model.filters), train
        self.batch, self.length = 0, None

    def fit(self, batch: int, length: int) -> None:
        if length == self.length and batch <= self.batch:
            return
        self.inputs = self.xhat = self.transient = None  # freed first
        self.batch, self.length = batch, length
        segs = [self.batch * (length + k - 1) for k in KERNEL_SIZES]
        inputs = [s * c for s, c in zip(segs, self.widths)]
        outputs = [s * c for s, c in zip(segs, self.widths[1:])]
        if self.train:
            self.inputs = [np.empty(n, self.dtype) for n in inputs]
            self.xhat = [np.empty(self.batch * length * c, self.dtype)
                         for c in self.widths[1:]]
        else:
            self.inputs = [np.empty(max(inputs), self.dtype)] * 3
        self.transient = np.empty(max(outputs), self.dtype)

    def block_input(self, i: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """Block i's padded input, its pad rows zeroed, and its x view."""
        shape = (batch, self.length + KERNEL_SIZES[i] - 1, self.widths[i])
        seg = _view(self.inputs[i], shape)
        return _rows(seg), _zero_pads(seg, KERNEL_SIZES[i] // 2, self.length)

    def output(self, i: int, batch: int) -> np.ndarray:
        """Block i's (B, T+K-1, Cout) output segments in the transient."""
        shape = (batch, self.length + KERNEL_SIZES[i] - 1, self.widths[i + 1])
        return _view(self.transient, shape)

    def act(self, i: int, batch: int) -> np.ndarray:
        """A (B, T, Cout) array of block i in the transient."""
        shape = (batch, self.length, self.widths[i + 1])
        return _view(self.transient, shape)


def _train_forward(model: FcnModel, x: np.ndarray, bufs: _Buffers | None = None):
    """Logits of x (B, T, 1) with batch-statistics batch-norm, for training.

    Updates the running statistics in place. Each block's batch-norm and
    ReLU write straight into the next block's padded input. The padded
    inputs and normalized outputs stay in bufs (new ones when None) for the
    backward pass. Returns (logits, (caches, gap)); caches holds (padded,
    xhat, inv_std) per block.
    """
    batch, length, _ = x.shape
    bufs = bufs or _Buffers(model, train=True)
    bufs.fit(batch, length)
    padded, inp = bufs.block_input(0, batch)
    inp[...] = x
    caches = []
    for i in range(3):
        k = i + 1
        out, conv_padded = conv1d_forward(
            inp, model[f"conv{k}.weight"], model[f"conv{k}.bias"], padded=padded,
            out=_rows(bufs.output(i, batch)),
        )
        if k < 3:
            padded, inp = bufs.block_input(k, batch)
        else:  # block 3's activations go to the transient, whose rows are spent
            inp = bufs.act(i, batch)
        xhat = bufs.xhat[i][: inp.size].reshape(inp.shape)
        y, xhat, inv_std, mu, var = batchnorm_forward_train(
            out, model[f"bn{k}.gamma"], model[f"bn{k}.beta"], xhat=xhat, out=inp
        )
        for stat, batch_stat in (("running_mean", mu), ("running_var", var)):
            name = f"bn{k}.{stat}"
            model[name] = BN_MOMENTUM * model[name] + (1 - BN_MOMENTUM) * batch_stat
        np.maximum(y, 0.0, out=y)
        caches.append((conv_padded, xhat, inv_std))
    gap = y.mean(axis=1)  # (B, F3)
    logits = gap @ model["head.weight"] + model["head.bias"]
    return logits, (caches, gap)


def _folded_blocks(model: FcnModel) -> list[tuple[np.ndarray, np.ndarray]]:
    folded = [_fold_batchnorm(model, i) for i in range(3)]
    return [(_correlate_layout(w), b) for w, b in folded]


def _eval_logits(model: FcnModel, x: np.ndarray, folded, bufs=None) -> np.ndarray:
    """Eval-mode logits of x (B, T, 1) from `_folded_blocks(model)`.

    Each block's ReLU writes straight into the next block's padded input,
    in bufs (new ones when None).
    """
    batch, length, _ = x.shape
    bufs = bufs or _Buffers(model, train=False)
    bufs.fit(batch, length)
    padded, inp = bufs.block_input(0, batch)
    inp[...] = x
    for i, (w, b) in enumerate(folded):
        out, _ = conv1d_forward(
            inp, w, b, padded=padded, out=_rows(bufs.output(i, batch))
        )
        if i < 2:
            padded, inp = bufs.block_input(i + 1, batch)
            np.maximum(out, 0.0, out=inp)
    np.maximum(out, 0.0, out=out)
    # A fixed-order sum over the features, not a GEMM, whose blocking (and
    # so a row's last bits) would follow the chunk's row count.
    gap = out.mean(axis=1)
    return (gap[:, :, None] * model["head.weight"]).sum(axis=1) + model["head.bias"]


def forward(model: FcnModel, batch) -> np.ndarray:
    """Eval-mode class probabilities (N x C), one row per series, in order.

    The batch holds arrays or LabeledSeries of one or of mixed lengths. It
    runs in the chunks of `_eval_chunks`, with the running-stat batch-norm
    folded into the convolutions, and the chunks of one length reuse one
    buffer set; the model is not changed. Each chunk checks its series with
    `core.as_series_list` as it comes up, naming each by its batch index.
    """
    series = [s.series if isinstance(s, LabeledSeries) else s for s in batch]
    return _forward(model, series, "forward: batch")


def _forward(model: FcnModel, series: list, name: str) -> np.ndarray:
    """`forward` of a list of series, which `as_series_list` calls `name`,
    and refuses as one empty chunk when there are none."""
    folded = _folded_blocks(model)
    probs = np.empty((len(series), model.class_count), dtype=model.dtype)
    bufs = _Buffers(model, train=False)
    for idx in _eval_chunks([np.size(s) for s in series]) or [[]]:
        x = _stack_batch({i: series[i] for i in idx}, model.dtype, name)
        probs[idx] = np.exp(_log_softmax(_eval_logits(model, x, folded, bufs)))
    return probs


def loss_and_gradients(model: FcnModel, batch):
    """Mean cross-entropy over the batch and its exact parameter gradients.

    The batch is a sequence of (series, label) pairs or LabeledSeries. Runs
    in training mode, so batch statistics are used and running statistics
    are updated. Gradients are returned as a dict keyed by the TRAINABLE
    tensor names. Labels that are not integers in 0..class_count-1, series
    that `core.as_series_list` rejects and mixed lengths raise ValueError.
    Softmax plus cross-entropy is evaluated through log-sum-exp, so
    probabilities never underflow the log.
    """
    series, labels = _split_pairs(batch, model.class_count)
    x = _stack_batch(series, model.dtype, "loss_and_gradients: batch")
    bufs = _Buffers(model, train=True)
    loss, grads, _ = _loss_and_gradients_impl(model, x, labels, bufs)
    return loss, grads


def _loss_and_gradients_impl(model: FcnModel, x: np.ndarray, labels: np.ndarray,
                             bufs: _Buffers):
    """loss_and_gradients of a stacked batch, plus its correct-prediction count.

    x is the (B, T, 1) batch and labels its checked index array; runs in bufs.
    """
    batch_size, length, _ = x.shape

    logits, (caches, gap) = _train_forward(model, x, bufs)
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
    dgap = dlogits @ model["head.weight"].T

    dout = (dgap / length)[:, None, :]
    for i in (2, 1, 0):
        k = i + 1
        padded, xhat, inv_std = caches.pop()
        gamma = model[f"bn{k}.gamma"]
        # The ReLU mask as 1 or 0, from the activations formed again exactly
        # as the forward pass formed them.
        dy = bufs.act(i, batch_size)
        np.multiply(xhat, gamma, out=dy)
        dy += model[f"bn{k}.beta"]
        np.greater(dy, 0, out=dy)
        np.multiply(dout, dy, out=dy)
        # The padded gradient shares the transient with dy, so its pad rows
        # are zeroed once batch-norm backward has spent dy.
        seg = bufs.output(i, batch_size)
        right = _pad_amounts(KERNEL_SIZES[i])[1]
        dbn = seg[:, right : right + length]
        _, dgamma, dbeta = batchnorm_backward(dy, xhat, inv_std, gamma, out=dbn)
        _zero_pads(seg, right, length)
        # dx lands in the spent padded input; the network input needs none.
        dout, dw, db = conv1d_backward(
            dbn, padded, model[f"conv{k}.weight"], (batch_size, length, bufs.widths[i]),
            input_grad=k > 1, grad=_rows(seg),
        )
        grads[f"bn{k}.gamma"] = dgamma
        grads[f"bn{k}.beta"] = dbeta
        grads[f"conv{k}.weight"] = dw
        grads[f"conv{k}.bias"] = db
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
        m={name: np.zeros_like(model[name]) for name in TRAINABLE},
        v={name: np.zeros_like(model[name]) for name in TRAINABLE},
    )


def adam_step(
    model: FcnModel, grads: dict, state: AdamState, t: int, config: TrainConfig
):
    """One Adam update with bias correction, applied in place.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    theta <- theta - lr * mhat / (sqrt(vhat) + eps), with lr from config and
    b1, b2, eps the fixed ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON; t >= 1.
    """
    check_count("t", t, 1)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name in TRAINABLE:
        param = model[name]
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

    Training works on a copy of the model cast to TRAIN_DTYPE, so the
    returned model has that dtype. Each epoch shuffles the split with the
    seeded generator, walks batches of config.batch_size (the trailing
    batch may be smaller), and applies one Adam step per batch. The epoch
    loss and accuracy are the per-sample means over the epoch's batches as
    trained. The input model is not mutated; the returned model is the
    snapshot from the epoch with the strictly lowest train loss (earliest
    epoch on ties), and the history covers every epoch. Raises ValueError
    before any step if a series, a label or the split's lengths are
    invalid, and after the last epoch if none reached a finite loss (there
    is then no checkpoint). Fully deterministic for a given seed. With
    epochs = 0 the input model is returned as it is.
    """
    series, labels = _split_pairs(train_split, model.class_count)
    x = _stack_batch(series, TRAIN_DTYPE, "train: train_split", "train split")
    if config.epochs == 0:
        return model, TrainHistory()

    work = clone_model(model, TRAIN_DTYPE)
    n = len(series)
    # One buffer set serves every step; a folded batch holds batch_size + 1.
    bufs = _Buffers(work, train=True)
    bufs.fit(max(map(len, _epoch_batches(np.arange(n), config.batch_size))), x.shape[1])
    rng = np.random.default_rng(config.seed)
    state = init_adam_state(work)
    history = TrainHistory()
    best_loss = np.inf
    best_model = None
    step = 0
    for epoch in range(1, config.epochs + 1):
        tic = time.perf_counter()
        perm = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for idx in _epoch_batches(perm, config.batch_size):
            loss, grads, batch_correct = _loss_and_gradients_impl(
                work, x[idx], labels[idx], bufs
            )
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
            f"overflows {work.dtype}"
        )
    return best_model, history


def evaluate(model: FcnModel, split) -> float:
    """Fraction of samples whose argmax class matches the label (eval mode).

    The argmax is taken on the probabilities `forward` returns for the
    split's series, and ties resolve to the lowest class index. Labels are
    checked as in `loss_and_gradients`.
    The split may mix series lengths.
    """
    series, labels = _split_pairs(split, model.class_count)
    probs = _forward(model, series, "evaluate: split")
    return int((probs.argmax(axis=1) == labels).sum()) / len(series)


def _eval_chunks(lengths) -> list[np.ndarray]:
    """Index arrays of the evaluation chunks of series of these lengths.

    Series are grouped by length, in increasing order. A group of n series
    of length T is split into ceil(n*T / _EVAL_STEPS) chunks, at least one
    and at most n, whose sizes differ by at most one.
    """
    groups: dict[int, list[int]] = {}
    for i, length in enumerate(lengths):
        groups.setdefault(length, []).append(i)
    chunks = []
    for length, idx in sorted(groups.items()):
        count = -(-len(idx) * length // _EVAL_STEPS)
        chunks.extend(np.array_split(idx, min(max(count, 1), len(idx))))
    return chunks
