"""Model persistence, head replacement, and fine-tuning.

Models are written to `.fcn` files: an 8-byte magic, a little-endian uint64
header length, a UTF-8 JSON manifest (format version, filter/kernel
configuration, class count, and a named tensor directory with shapes and
payload byte offsets), then the tensor payload as contiguous little-endian
float32 data in directory order. A file loads only if its header equals
the one `save_model` writes for the filters and class count it declares.
Saving rounds each tensor to the nearest float32, which loses nothing for
a float32 model; loading returns a float32 model.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import Dataset, check_count
from .fcn import (
    KERNEL_SIZES,
    FcnModel,
    TrainConfig,
    clone_model,
    glorot_uniform_bound,
    layer_spec,
    train,
)
from .textfmt import atomic_write_bytes

__all__ = [
    "MODEL_MAGIC",
    "MODEL_FORMAT_VERSION",
    "ModelFileError",
    "save_model",
    "load_model",
    "swap_head",
    "fine_tune",
]

MODEL_MAGIC = b"FCNMODEL"
MODEL_FORMAT_VERSION = 1
_PAYLOAD_DTYPE = "<f4"


class ModelFileError(ValueError):
    """A model file is malformed, or a model cannot be saved as one that
    loads; the message names the file's path."""


def _header(filters, class_count: int) -> dict:
    """The one header `save_model` writes and `load_model` accepts."""
    directory, offset = [], 0
    for name, shape in layer_spec(filters, class_count).items():
        directory.append({"name": name, "shape": list(shape), "offset": offset})
        offset += math.prod(shape) * np.dtype(_PAYLOAD_DTYPE).itemsize
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "class_count": class_count,
        "filters": list(filters),
        "kernels": list(KERNEL_SIZES),
        "dtype": _PAYLOAD_DTYPE,
        "tensors": directory,
    }


def _check_tensors(arrays: dict, path) -> None:
    """ModelFileError unless every value of the float32 tensors is finite
    and every running variance positive, as a loaded model needs."""
    for i in (1, 2, 3):
        if (arrays[f"bn{i}.running_var"] <= 0).any():
            raise ModelFileError(f"{path}: bn{i} running variance must be positive")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ModelFileError(f"{path}: tensor {name} contains non-finite values")


def save_model(model: FcnModel, path) -> None:
    """Serialize all 20 tensors (parameters plus running statistics).

    A model that would not load back, because a tensor rounds to a
    non-finite float32 or a running variance to one <= 0, raises
    ModelFileError and nothing is written. The write is atomic: a temp
    file in the same directory is renamed over the destination.
    """
    header = _header(model.filters, model.class_count)
    with np.errstate(over="ignore"):
        arrays = {entry["name"]: model[entry["name"]].astype(_PAYLOAD_DTYPE)
                  for entry in header["tensors"]}
    _check_tensors(arrays, path)
    header_bytes = json.dumps(header).encode("utf-8")
    blob = (
        MODEL_MAGIC
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + b"".join(arr.tobytes() for arr in arrays.values())
    )
    atomic_write_bytes(path, blob)


def load_model(path) -> FcnModel:
    """Read a model file back as a float32 model.

    The header must equal `_header` of the filters and class count it
    declares, which fixes the format version, the payload dtype and every
    offset, and the payload must be exactly the size its directory gives.
    A malformed file raises ModelFileError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFileError(f"{path}: bad magic, not a model file")
    header_len = int.from_bytes(blob[len(MODEL_MAGIC) : len(MODEL_MAGIC) + 8], "little")
    header_start = len(MODEL_MAGIC) + 8
    if len(blob) < header_start + header_len:
        raise ModelFileError(f"{path}: header truncated")
    try:
        header = json.loads(blob[header_start : header_start + header_len])
    except ValueError as exc:
        raise ModelFileError(f"{path}: header is not valid JSON: {exc}") from None

    if not isinstance(header, dict):
        raise ModelFileError(f"{path}: header is not a JSON object")
    filters, class_count = header.get("filters"), header.get("class_count")
    try:
        expected = _header(filters, class_count)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    if header != expected:
        absent = object()
        keys = sorted(k for k in header.keys() | expected.keys()
                      if header.get(k, absent) != expected.get(k, absent))
        raise ModelFileError(f"{path}: header differs from the one written for "
                             f"filters {filters}, {class_count} classes in {keys}")
    payload = blob[header_start + header_len :]
    sizes = [math.prod(entry["shape"]) for entry in expected["tensors"]]
    size = sum(sizes) * np.dtype(_PAYLOAD_DTYPE).itemsize
    if len(payload) < size:
        raise ModelFileError(
            f"{path}: payload truncated at {len(payload)} of {size} bytes"
        )
    if len(payload) > size:
        raise ModelFileError(f"{path}: {len(payload) - size} bytes after the payload")
    parts = np.split(np.frombuffer(payload, _PAYLOAD_DTYPE), np.cumsum(sizes)[:-1])
    arrays = {
        entry["name"]: part.astype(np.float32).reshape(entry["shape"])
        for entry, part in zip(expected["tensors"], parts)
    }
    _check_tensors(arrays, path)
    return FcnModel(arrays)


def swap_head(model: FcnModel, new_class_count: int, seed: int) -> FcnModel:
    """Copy the body bitwise and attach a fresh Glorot-uniform softmax head.

    The convolution and batch-norm tensors, including running statistics,
    are copied unchanged; the head becomes (filters[-1], new_class_count)
    with zero bias, in the body's dtype. Deterministic for a given seed;
    new_class_count >= 2 and seed >= 0 are integers (`check_count`).
    """
    check_count("new_class_count", new_class_count, 2)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    feature_dim = model.filters[-1]
    bound = glorot_uniform_bound(feature_dim, new_class_count)
    head_w = rng.uniform(-bound, bound, size=(feature_dim, new_class_count))
    swapped = clone_model(model)
    swapped["head.weight"] = head_w.astype(model.dtype)
    swapped["head.bias"] = np.zeros(new_class_count, dtype=model.dtype)
    return swapped


def fine_tune(pretrained: FcnModel, target: Dataset, config: TrainConfig, seed: int):
    """Adapt a pretrained model to a target dataset and retrain everything.

    Replaces the head to match the target's class count (seeded), then
    trains the whole network on the target train split; nothing is frozen
    and the optimizer state starts fresh. Returns (model, history).
    """
    swapped = swap_head(pretrained, target.class_count, seed)
    return train(swapped, target.train, config)
