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

from .core import Dataset
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
    "UnknownModelVersionError",
    "ModelShapeError",
    "TruncatedModelFileError",
    "save_model",
    "load_model",
    "swap_head",
    "fine_tune",
]

MODEL_MAGIC = b"FCNMODEL"
MODEL_FORMAT_VERSION = 1
_PAYLOAD_DTYPE = "<f4"


class ModelFileError(Exception):
    """A model file is malformed or cannot be written."""


class UnknownModelVersionError(ModelFileError):
    """The file declares a format version this reader does not know."""


class ModelShapeError(ModelFileError):
    """The header is not the one written for the architecture it declares."""


class TruncatedModelFileError(ModelFileError):
    """The file ends before the declared payload does."""


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


def save_model(model: FcnModel, path) -> None:
    """Serialize all 20 tensors (parameters plus running statistics).

    The write is atomic: a temp file in the same directory is renamed over
    the destination. I/O errors carry the path.
    """
    header = _header(model.filters, model.class_count)
    header_bytes = json.dumps(header).encode("utf-8")
    blob = (
        MODEL_MAGIC
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + b"".join(model[entry["name"]].astype(_PAYLOAD_DTYPE).tobytes()
                   for entry in header["tensors"])
    )
    try:
        atomic_write_bytes(path, blob)
    except OSError as exc:
        raise ModelFileError(f"cannot write model file {path!r}: {exc}") from exc


def load_model(path) -> FcnModel:
    """Read a model file back as a float32 model.

    The header must equal `_header` of the filters and class count it
    declares (ModelShapeError otherwise, for an unknown key or a moved
    offset too), and the payload must be exactly the size its directory
    gives. A malformed file raises a ModelFileError subclass.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) + 8:
        raise TruncatedModelFileError(f"{path}: file shorter than the fixed prefix")
    if blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFileError(f"{path}: bad magic, not a model file")
    header_len = int.from_bytes(blob[len(MODEL_MAGIC) : len(MODEL_MAGIC) + 8], "little")
    header_start = len(MODEL_MAGIC) + 8
    if len(blob) < header_start + header_len:
        raise TruncatedModelFileError(f"{path}: header truncated")
    try:
        header = json.loads(blob[header_start : header_start + header_len])
    except ValueError as exc:
        raise ModelFileError(f"{path}: header is not valid JSON: {exc}") from None

    if not isinstance(header, dict):
        raise ModelFileError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise UnknownModelVersionError(f"{path}: unknown format version {version!r}")
    dtype = header.get("dtype")
    if dtype != _PAYLOAD_DTYPE:
        raise ModelFileError(
            f"{path}: payload dtype {dtype!r} is not {_PAYLOAD_DTYPE!r}"
        )
    filters, class_count = header.get("filters"), header.get("class_count")
    if (not isinstance(filters, list) or len(filters) != 3
            or any(type(f) is not int or f < 1 for f in filters)):
        raise ModelShapeError(f"{path}: bad filter configuration {filters!r}")
    if type(class_count) is not int or class_count < 2:
        raise ModelFileError(f"{path}: bad class_count {class_count!r}")
    expected = _header(filters, class_count)
    if header != expected:
        absent = object()
        keys = sorted(k for k in header.keys() | expected.keys()
                      if header.get(k, absent) != expected.get(k, absent))
        raise ModelShapeError(f"{path}: header differs from the one written for "
                              f"filters {filters}, {class_count} classes in {keys}")
    payload = blob[header_start + header_len :]
    sizes = [math.prod(entry["shape"]) for entry in expected["tensors"]]
    size = sum(sizes) * np.dtype(_PAYLOAD_DTYPE).itemsize
    if len(payload) < size:
        raise TruncatedModelFileError(
            f"{path}: payload truncated at {len(payload)} of {size} bytes"
        )
    if len(payload) > size:
        raise ModelFileError(f"{path}: {len(payload) - size} bytes after the payload")
    parts = np.split(np.frombuffer(payload, _PAYLOAD_DTYPE), np.cumsum(sizes)[:-1])
    arrays = {
        entry["name"]: part.astype(np.float32).reshape(entry["shape"])
        for entry, part in zip(expected["tensors"], parts)
    }
    for i in (1, 2, 3):
        if (arrays[f"bn{i}.running_var"] <= 0).any():
            raise ModelFileError(f"{path}: bn{i} running variance must be positive")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ModelFileError(f"{path}: tensor {name} contains non-finite values")

    return FcnModel(arrays)


def swap_head(model: FcnModel, new_class_count: int, seed: int) -> FcnModel:
    """Copy the body bitwise and attach a fresh Glorot-uniform softmax head.

    The convolution and batch-norm tensors, including running statistics,
    are copied unchanged; the head becomes (filters[-1], new_class_count)
    with zero bias, in the body's dtype. Deterministic for a given seed.
    """
    if new_class_count < 2:
        raise ValueError(f"new_class_count must be >= 2, got {new_class_count}")
    rng = np.random.default_rng(seed)
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
