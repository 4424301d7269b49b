"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: the
warping-distance oracle enumerates every monotone alignment, the path and
barycenter oracles are plain scalar loops over the full table, and
gradients are checked against central finite differences of the loss.
"""

from __future__ import annotations

import inspect
import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import strategies as st

from tstransfer import Dataset, LabeledSeries, z_normalize
from tstransfer.fcn import TRAINABLE, clone_model


def dtw_brute_force(a, b) -> float:
    """Minimum over all monotone warping paths of the path-ordered cost sum.

    Exhaustive depth-first enumeration; costs are accumulated from the start
    of each path so the float result is comparable bit-for-bit with a
    dynamic program that adds the local cost after the predecessor minimum.
    Only usable for short series.
    """
    x = [float(v) for v in np.asarray(a, dtype=np.float64).ravel()]
    y = [float(v) for v in np.asarray(b, dtype=np.float64).ravel()]
    n, m = len(x), len(y)
    d = x[0] - y[0]
    stack = [(0, 0, d * d)]
    best = None
    while stack:
        i, j, acc = stack.pop()
        if i == n - 1 and j == m - 1:
            if best is None or acc < best:
                best = acc
            continue
        if i + 1 < n and j + 1 < m:
            d = x[i + 1] - y[j + 1]
            stack.append((i + 1, j + 1, acc + d * d))
        if i + 1 < n:
            d = x[i + 1] - y[j]
            stack.append((i + 1, j, acc + d * d))
        if j + 1 < m:
            d = x[i] - y[j + 1]
            stack.append((i, j + 1, acc + d * d))
    return best


def dtw_path_reference(a, b) -> tuple[float, list[tuple[int, int]]]:
    """Scalar full-table dynamic program plus backtrack, one cell at a time.

    The plain loop the library's wavefront kernel must reproduce bit for
    bit: cost first, then the path with ties broken diagonal, then the step
    decreasing i, then the step decreasing j; forced moves on row 0 and
    column 0.
    """
    x = [float(v) for v in np.asarray(a, dtype=np.float64).ravel()]
    y = [float(v) for v in np.asarray(b, dtype=np.float64).ravel()]
    n, m = len(x), len(y)

    table = [[0.0] * m for _ in range(n)]
    r0 = table[0]
    d = x[0] - y[0]
    r0[0] = d * d
    for j in range(1, m):
        d = x[0] - y[j]
        r0[j] = r0[j - 1] + d * d
    for i in range(1, n):
        ri = table[i]
        rp = table[i - 1]
        d = x[i] - y[0]
        ri[0] = rp[0] + d * d
        for j in range(1, m):
            best = rp[j - 1]
            if rp[j] < best:
                best = rp[j]
            if ri[j - 1] < best:
                best = ri[j - 1]
            d = x[i] - y[j]
            ri[j] = d * d + best

    i, j = n - 1, m - 1
    path = [(n, m)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag = table[i - 1][j - 1]
            up = table[i - 1][j]
            left = table[i][j - 1]
            best = min(diag, up, left)
            if diag == best:
                i -= 1
                j -= 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        path.append((i + 1, j + 1))
    path.reverse()
    return table[n - 1][m - 1], path


def dba_iteration_reference(prototype, members) -> np.ndarray:
    """One DBA step as a sequential loop over members, then path cells.

    Each coordinate's mean is accumulated relative to the first sample
    aligned to it; paths come from `dtw_path_reference`.
    """
    proto = np.asarray(prototype, dtype=np.float64)
    length = len(proto)
    pivots = np.zeros(length)
    delta_sums = np.zeros(length)
    counts = np.zeros(length, dtype=np.int64)
    for member in members:
        mem = np.asarray(member, dtype=np.float64)
        _, path = dtw_path_reference(proto, mem)
        for i, j in path:
            ii = i - 1
            v = mem[j - 1]
            if counts[ii] == 0:
                pivots[ii] = v
            delta_sums[ii] += v - pivots[ii]
            counts[ii] += 1
    return pivots + delta_sums / counts


# Float samples, and small integers whose sums tie often and so exercise the
# backtrack's tie-break.
SAMPLES = (
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.integers(-2, 2).map(float),
)


def series_pairs(max_len: int):
    """Two series of 1..max_len samples of one kind."""
    return st.sampled_from(SAMPLES).flatmap(
        lambda el: st.tuples(
            st.lists(el, min_size=1, max_size=max_len),
            st.lists(el, min_size=1, max_size=max_len),
        )
    )


def series_lists(max_len: int):
    """1-6 series of 1..max_len samples of one kind; integer kinds tie often."""
    return st.sampled_from(SAMPLES).flatmap(
        lambda el: st.lists(st.lists(el, min_size=1, max_size=max_len),
                            min_size=1, max_size=6)
    )


@st.composite
def reference_and_members(draw, max_len: int = 40):
    """A reference plus 1-6 members drawn from two lengths, so batches form."""
    el = draw(st.sampled_from(SAMPLES))
    reference = draw(st.lists(el, min_size=1, max_size=max_len))
    lengths = draw(st.lists(st.integers(1, max_len), min_size=2, max_size=2))
    picks = draw(st.lists(st.sampled_from(lengths), min_size=1, max_size=6))
    return reference, [draw(st.lists(el, min_size=k, max_size=k)) for k in picks]


@st.composite
def pairs_of_mixed_shapes(draw, max_len: int = 30):
    """1-8 pairs, each of its own kind, whose lengths repeat so batches form."""
    lengths = draw(st.lists(st.integers(1, max_len), min_size=3, max_size=3))
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        el = draw(st.sampled_from(SAMPLES))
        n, m = draw(st.sampled_from(lengths)), draw(st.sampled_from(lengths))
        pairs.append((draw(st.lists(el, min_size=n, max_size=n)),
                      draw(st.lists(el, min_size=m, max_size=m))))
    return pairs


def is_valid_warping_path(path, len_a: int, len_b: int) -> bool:
    """Starts at (1,1), ends at the corner, steps +1 in i, j, or both."""
    if path[0] != (1, 1) or path[-1] != (len_a, len_b):
        return False
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        di, dj = i1 - i0, j1 - j0
        if (di, dj) not in ((1, 0), (0, 1), (1, 1)):
            return False
    return True


def finite_difference_gradients(model, batch, step: float = 1e-4,
                                fallback_steps=(1e-5, 1e-6)):
    """Central-difference gradients of the training-mode loss, per parameter.

    A central difference is a valid derivative estimate only when the loss
    is smooth across the probe bracket; rectifier units make it piecewise
    smooth, so a probe whose two endpoints land in different activation
    patterns straddles a kink and measures a blend of two slopes. Such
    coordinates are re-probed with smaller steps; if every step keeps
    crossing the kink the coordinate is reported as unusable instead of
    producing a bogus estimate.

    Returns (fd, usable, skipped_count): per-tensor derivative arrays, a
    matching boolean validity mask, and the number of skipped coordinates.
    Running statistics do not influence the training-mode loss, so their
    drift during probing is harmless.
    """
    from tstransfer.fcn import (
        _log_softmax,
        _split_pairs,
        _stack_batch,
        _train_forward,
    )

    work = clone_model(model)
    series, labels = _split_pairs(batch, work.class_count)
    x = _stack_batch(series, work.dtype)
    rows = np.arange(len(labels))

    def probe():
        logits, (caches, _) = _train_forward(work, x)
        logp = _log_softmax(logits)
        loss = float(-logp[rows, labels].mean())
        pattern = b"".join(
            (xhat * work[f"bn{k}.gamma"] + work[f"bn{k}.beta"] > 0).tobytes()
            for k, (_, xhat, _) in enumerate(caches, start=1)
        )
        return loss, pattern

    fd: dict[str, np.ndarray] = {}
    usable: dict[str, np.ndarray] = {}
    skipped = 0
    for name in TRAINABLE:
        param = work[name]
        flat = param.reshape(-1)
        out = np.zeros(flat.size)
        ok = np.zeros(flat.size, dtype=bool)
        for k in range(flat.size):
            orig = float(flat[k])
            for h in (step, *fallback_steps):
                flat[k] = orig + h
                plus, pattern_plus = probe()
                flat[k] = orig - h
                minus, pattern_minus = probe()
                flat[k] = orig
                if pattern_plus == pattern_minus:
                    out[k] = (plus - minus) / (2.0 * h)
                    ok[k] = True
                    break
            else:
                skipped += 1
        fd[name] = out.reshape(param.shape)
        usable[name] = ok.reshape(param.shape)
    return fd, usable, skipped


def k_fold_copy_correlate(padded, wk, block_bytes: int = 2 * 2**20):
    """`fcn._correlate` as a K-fold copy, whose bits the kernel keeps.

    It makes the (R-K+1, K*Ci) im2col matrix in balanced row blocks whose
    copy fits in block_bytes and multiplies each by one GEMM. Returns the
    R-K+1 output rows.
    """
    kernel, in_ch, out_ch = wk.shape
    rows = padded.shape[0] - kernel + 1
    out = np.empty((rows, out_ch), np.result_type(padded, wk))
    width = kernel * in_ch
    count = max(min(-(-rows * width * out.itemsize // block_bytes), rows), 1)
    bounds = [j * rows // count for j in range(count + 1)]
    wmat = wk.reshape(width, out_ch)
    windows = sliding_window_view(padded.reshape(-1), width)[::in_ch]
    for r0, r1 in zip(bounds, bounds[1:]):
        np.matmul(np.ascontiguousarray(windows[r0:r1]), wmat, out=out[r0:r1])
    return out


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc counts while fn(*args, **kwargs) runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_calls(monkeypatch, module, name: str, log=None, fail=None) -> list:
    """Replace `module.<name>` by a wrapper that logs each call; return the log.

    Each call appends `(name, arguments)` to `log` (a new list unless one is
    given, so several functions can share one log), with the arguments bound
    to the wrapped function's parameter names. Tests read them by name, so a
    new keyword on the wrapped function breaks none of them. A call whose
    arguments satisfy `fail` raises RuntimeError("injected failure").
    """
    real = getattr(module, name)
    signature = inspect.signature(real)
    log = [] if log is None else log

    def wrapper(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        log.append((name, arguments))
        if fail is not None and fail(arguments):
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return log


def gradient_relative_errors(analytic, numeric, usable=None, floor: float = 1e-4):
    """Elementwise |a-n| / max(|a|, |n|, floor) per tensor name.

    The floor makes the criterion an absolute one for components smaller
    than `floor`, where finite differences carry only round-off information.
    Coordinates marked unusable (kink-straddling probes) score zero.
    """
    out = {}
    for name in numeric:
        err = np.abs(analytic[name] - numeric[name]) / np.maximum.reduce(
            [np.abs(analytic[name]), np.abs(numeric[name]),
             np.full_like(numeric[name], floor)]
        )
        if usable is not None:
            err = np.where(usable[name], err, 0.0)
        out[name] = err
    return out


def make_sine_dataset(
    name: str,
    freqs,
    n_train: int = 20,
    n_test: int = 20,
    length: int = 64,
    noise: float = 0.6,
    seed: int = 0,
    phase_jitter: float = 1.0,
) -> Dataset:
    """Synthetic dataset whose classes are sinusoids of distinct frequencies.

    Each series is a phase-jittered sine plus Gaussian noise, z-normalized.
    Counts that do not divide evenly give the extra series to the lowest
    classes so the split size is exact.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(length)

    def split(n):
        per, extra = divmod(n, len(freqs))
        items = []
        for label, freq in enumerate(freqs):
            for _ in range(per + (1 if label < extra else 0)):
                phase = rng.uniform(-phase_jitter, phase_jitter)
                sig = np.sin(2 * np.pi * freq * t / length + phase)
                sig = sig + noise * rng.standard_normal(length)
                items.append(LabeledSeries(z_normalize(sig), label))
        return tuple(items)

    return Dataset(
        name=name, train=split(n_train), test=split(n_test), class_count=len(freqs)
    )


def make_constant_dataset(
    name: str, n_per_class: int = 10, length: int = 32, seed: int = 0
) -> Dataset:
    """Linearly separable two-class set: +1 series vs -1 series plus noise."""
    rng = np.random.default_rng(seed)
    items = []
    for label, level in enumerate((1.0, -1.0)):
        for _ in range(n_per_class):
            sig = np.full(length, level) + 0.05 * rng.standard_normal(length)
            items.append(LabeledSeries(sig, label))
    return Dataset(name=name, train=tuple(items), test=(), class_count=2)


def random_labeled_split(rng, n: int, length: int, classes: int = 2):
    return tuple(
        LabeledSeries(rng.standard_normal(length), label=int(k % classes))
        for k in range(n)
    )


def make_random_dataset(
    name: str, rng, n_train: int = 6, n_test: int = 4, length: int = 10,
    classes: int = 2,
) -> Dataset:
    return Dataset(
        name=name,
        train=random_labeled_split(rng, n_train, length, classes),
        test=random_labeled_split(rng, n_test, length, classes),
        class_count=classes,
    )
