"""Core time-series containers, z-normalization, and UCR-format file ingestion.

A time series is a read-only 1-D float64 numpy array; `as_series`, the one
check that every entry point applies, returns it. Labeled collections are
small frozen dataclasses so they can be shared freely across threads.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from .textfmt import atomic_write_bytes, fmt17

__all__ = [
    "DataValidationError",
    "UcrParseError",
    "LabeledSeries",
    "Dataset",
    "as_series",
    "z_normalize",
    "group_by_class",
    "load_ucr_dataset",
    "save_ucr_dataset",
    "find_ucr_pair",
]

# Population standard deviation below this is treated as a constant series.
ZERO_STD_THRESHOLD = 1e-8

UCR_EXTENSIONS = ("", ".tsv", ".csv", ".txt")


class DataValidationError(ValueError):
    """Input violates a rule: a series, count, label, dataset or dataset list."""


class UcrParseError(ValueError):
    """A UCR-format record file is malformed."""


def as_series(values, name: str = "time series") -> np.ndarray:
    """Validate a univariate time series and return it as a frozen float64 array.

    A scalar is a one-sample series. More than one dimension, no samples or
    a non-finite sample raise DataValidationError naming the series `name`.
    """
    arr = np.array(values, dtype=np.float64, ndmin=1)
    if arr.ndim != 1:
        raise DataValidationError(
            f"{name} must be one-dimensional, got shape {arr.shape}"
        )
    if arr.size < 1:
        raise DataValidationError(f"{name} must contain at least one sample")
    if not np.isfinite(arr).all():
        raise DataValidationError(f"{name} contains non-finite samples")
    arr.flags.writeable = False
    return arr


def check_count(name: str, value, minimum) -> int:
    """The one check of every count, label and seed: value as a Python int.

    DataValidationError naming `name` unless value is a Python or numpy
    integer, not a bool, >= minimum (-math.inf admits any sign).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DataValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_datasets(caller: str, datasets) -> list:
    """The datasets as a list; DataValidationError prefixed with `caller`
    unless there are at least two, with distinct names."""
    datasets = list(datasets)
    if len(datasets) < 2:
        raise DataValidationError(f"{caller}: need at least 2 datasets")
    names = [d.name for d in datasets]
    if len(set(names)) != len(names):
        raise DataValidationError(f"{caller}: duplicate dataset names {sorted(names)}")
    return datasets


def parse_decimals(tokens: list[str]) -> list[float]:
    """The floats of plain ASCII decimal tokens, ValueError for any other.

    Python's `float` also reads digit-group underscores ("1_000") and
    non-ASCII digits ("\u0661"); no file this package reads spells a number
    so, and a token with either is rejected.
    """
    text = "".join(tokens)
    if "_" in text or not text.isascii():
        bad = next(t for t in tokens if "_" in t or not t.isascii())
        raise ValueError(f"values must be ASCII decimals without '_', got {bad!r}")
    return [float(t) for t in tokens]


def z_normalize(series) -> np.ndarray:
    """Shift and scale a series to mean 0 and population standard deviation 1.

    A (near-)constant series maps to all zeros instead of dividing by a tiny
    standard deviation. Idempotent within floating-point round-off.
    """
    s = as_series(series)
    std = float(s.std())
    if std < ZERO_STD_THRESHOLD:
        out = np.zeros_like(s)
    else:
        out = (s - s.mean()) / std
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LabeledSeries:
    """One time series and its class label 0..C-1, a `check_count` int."""

    series: np.ndarray
    label: int

    def __post_init__(self):
        object.__setattr__(self, "series", as_series(self.series))
        object.__setattr__(self, "label", check_count("label", self.label, 0))


@dataclass(frozen=True)
class Dataset:
    """A named train/test collection of labeled series.

    Invariants enforced at construction: class_count is an int >= 1
    (`check_count`), the train split is non-empty, every class in
    0..class_count-1 occurs in it, and all series across both splits share
    one length. The test split may be empty.
    """

    name: str
    train: tuple[LabeledSeries, ...]
    test: tuple[LabeledSeries, ...]
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "test", tuple(self.test))
        if not self.name:
            raise DataValidationError("dataset name must be non-empty")
        if not self.train:
            raise DataValidationError(f"dataset {self.name!r}: train split is empty")
        object.__setattr__(self, "class_count", check_count(
            f"dataset {self.name!r}: class_count", self.class_count, 1))
        for item in self.train + self.test:
            if not 0 <= item.label < self.class_count:
                raise DataValidationError(
                    f"dataset {self.name!r}: label {item.label} outside "
                    f"0..{self.class_count - 1}"
                )
        train_labels = {item.label for item in self.train}
        missing = set(range(self.class_count)) - train_labels
        if missing:
            raise DataValidationError(
                f"dataset {self.name!r}: classes {sorted(missing)} missing from train"
            )
        lengths = {len(item.series) for item in self.train + self.test}
        if len(lengths) != 1:
            raise DataValidationError(
                f"dataset {self.name!r}: mixed series lengths {sorted(lengths)}"
            )


def group_by_class(split) -> dict[int, list[np.ndarray]]:
    """Group the series of a split by class label, preserving input order."""
    groups: dict[int, list[np.ndarray]] = {}
    for item in split:
        groups.setdefault(item.label, []).append(item.series)
    return groups


def _detect_delimiter(first_line: str) -> str:
    return "\t" if "\t" in first_line else ","


def _parse_ucr_file(path) -> tuple[list[float], list[np.ndarray]]:
    """Parse one UCR record file into raw labels and series.

    Each non-blank line is `label<delim>v1<delim>...<delim>vT`; the delimiter
    (tab or comma) is detected from the first non-blank line and all records
    must share one length. Numbers are plain ASCII decimals
    (`parse_decimals`); a file that is not UTF-8, or a line with a number
    spelt otherwise, raises UcrParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise UcrParseError(f"{path}: not UTF-8 text: {exc}") from None

    labels: list[float] = []
    series: list[np.ndarray] = []
    delim = None
    expected_len = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if delim is None:
            delim = _detect_delimiter(line)
        tokens = line.split(delim)
        if len(tokens) < 2 or any(t == "" for t in tokens):
            raise UcrParseError(
                f"{path}:{lineno}: expected 'label{delim!r}v1...', got {raw!r}"
            )
        try:
            label, *values = parse_decimals(tokens)
        except ValueError as exc:
            raise UcrParseError(f"{path}:{lineno}: {exc}") from None
        if expected_len is None:
            expected_len = len(values)
        elif len(values) != expected_len:
            raise UcrParseError(
                f"{path}:{lineno}: record has {len(values)} values, "
                f"expected {expected_len}"
            )
        if not np.isfinite(label):
            raise DataValidationError(f"{path}:{lineno}: non-finite label")
        labels.append(label)
        series.append(as_series(values, f"{path}:{lineno}: series"))
    return labels, series


def load_ucr_dataset(train_path, test_path, name: str) -> Dataset:
    """Load a UCR-format train/test file pair into a Dataset.

    Raw labels are canonicalized to 0..C-1 by sorting the distinct train
    labels ascending. Series are stored exactly as read; no re-normalization
    is applied (archive files are expected to be pre-normalized).
    """
    train_labels, train_series = _parse_ucr_file(train_path)
    if not train_series:
        raise DataValidationError(f"{train_path}: train file contains no records")
    test_labels, test_series = _parse_ucr_file(test_path)

    distinct = sorted(set(train_labels))
    mapping = {raw: idx for idx, raw in enumerate(distinct)}
    unknown = sorted(set(test_labels) - set(distinct))
    if unknown:
        raise DataValidationError(
            f"{test_path}: labels {unknown} appear in test but not in train"
        )

    train = tuple(
        LabeledSeries(s, mapping[lab]) for s, lab in zip(train_series, train_labels)
    )
    test = tuple(
        LabeledSeries(s, mapping[lab]) for s, lab in zip(test_series, test_labels)
    )
    return Dataset(name=name, train=train, test=test, class_count=len(distinct))


def save_ucr_dataset(dataset: Dataset, train_path, test_path, delimiter: str = ",") -> None:
    """Write a Dataset back to UCR record files.

    Values are printed with 17 significant digits so a reload reproduces the
    samples bit-for-bit. Labels are written in canonical form. Each file is
    written atomically.
    """
    if delimiter not in (",", "\t"):
        raise ValueError(f"unsupported delimiter {delimiter!r}")

    for split, path in ((dataset.train, train_path), (dataset.test, test_path)):
        atomic_write_bytes(path, "".join(
            delimiter.join([str(item.label), *map(fmt17, item.series)]) + "\n"
            for item in split
        ).encode("utf-8"))


def find_ucr_pair(data_dir, name: str) -> tuple[str, str]:
    """Locate `<name>_TRAIN` / `<name>_TEST` files under a directory.

    Tries no extension, then .tsv, .csv, and .txt. Also checks a `<name>/`
    subdirectory, the layout the archive ships with.
    """
    roots = [data_dir, os.path.join(data_dir, name)]
    tried = []
    for root in roots:
        for ext in UCR_EXTENSIONS:
            train = os.path.join(root, f"{name}_TRAIN{ext}")
            test = os.path.join(root, f"{name}_TEST{ext}")
            if os.path.isfile(train) and os.path.isfile(test):
                return train, test
            tried.append(train)
    raise FileNotFoundError(
        f"no UCR file pair for dataset {name!r} under {data_dir!r} "
        f"(tried {len(tried)} candidates like {tried[0]!r})"
    )
