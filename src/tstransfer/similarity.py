"""Inter-dataset similarity: per-class prototypes, distance matrix, ranking.

Each dataset's train split is reduced to one barycenter prototype per class;
the distance between two datasets is the minimum DTW distance over all pairs
of their class prototypes. Rankings over the resulting matrix drive the
choice of a source dataset for transfer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DataValidationError, Dataset, as_series_list, check_datasets, group_by_class,
    parse_decimals,
)
from .dba import dba_averages
from .dtw import dtw_distance
from .textfmt import dump_csv_17g, dump_json_17g

__all__ = [
    "ClassPrototypes",
    "SimilarityMatrix",
    "SourceRanking",
    "reduce_dataset",
    "dataset_distance",
    "similarity_matrix",
    "rank_sources",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_ranking_json",
]


@dataclass(frozen=True)
class ClassPrototypes:
    """One barycenter series per train-split class of a dataset."""

    dataset_name: str
    prototypes: dict[int, np.ndarray]

    def __post_init__(self):
        series = as_series_list(self.prototypes, "ClassPrototypes: prototypes")
        object.__setattr__(self, "prototypes", dict(zip(self.prototypes, series)))


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric zero-diagonal matrix of dataset distances.

    Row/column order follows `names`.
    """

    names: tuple[str, ...]
    values: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.names)
        values = np.asarray(self.values, dtype=np.float64)
        n = len(names)
        if len(set(names)) != n:
            raise DataValidationError("duplicate dataset names in matrix")
        if values.shape != (n, n):
            raise DataValidationError(
                f"matrix shape {values.shape} does not match {n} names"
            )
        if not np.isfinite(values).all() or (values < 0).any():
            raise DataValidationError("matrix entries must be finite and >= 0")
        if (np.diag(values) != 0).any():
            raise DataValidationError("matrix diagonal must be exactly zero")
        if not np.array_equal(values, values.T):
            raise DataValidationError("matrix must be exactly symmetric")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})

    def distance(self, a: str, b: str) -> float:
        return float(self.values[self._index[a], self._index[b]])

    def __contains__(self, name: str) -> bool:
        return name in self._index


@dataclass(frozen=True)
class SourceRanking:
    """All candidate sources for one target, ascending by distance."""

    target: str
    ranked: tuple[tuple[str, float], ...]

    def source_at(self, rank: int) -> str:
        """Name of the rank-th nearest source (1-based)."""
        return self.ranked[rank - 1][0]


def reduce_dataset(dataset: Dataset) -> ClassPrototypes:
    """Collapse a dataset's train split to one prototype per class.

    Only train data participates; the test split is never touched.
    """
    groups = group_by_class(dataset.train)
    classes = range(dataset.class_count)
    prototypes = dict(zip(classes, dba_averages([groups[c] for c in classes])))
    return ClassPrototypes(dataset_name=dataset.name, prototypes=prototypes)


def dataset_distance(a: ClassPrototypes, b: ClassPrototypes) -> float:
    """Minimum DTW distance over all pairs of class prototypes."""
    return min(dtw_distance(a.prototypes[ca], b.prototypes[cb])
               for ca in sorted(a.prototypes) for cb in sorted(b.prototypes))


def similarity_matrix(datasets) -> SimilarityMatrix:
    """Distance matrix over a `check_datasets` list, each reduced once."""
    datasets = check_datasets("similarity_matrix", datasets)
    names = [d.name for d in datasets]
    reduced = [reduce_dataset(d) for d in datasets]
    n = len(datasets)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = dataset_distance(reduced[i], reduced[j])
            values[i, j] = d
            values[j, i] = d
    return SimilarityMatrix(names=tuple(names), values=values)


def rank_sources(matrix: SimilarityMatrix, target: str) -> SourceRanking:
    """All non-target datasets sorted by distance to the target.

    Distance ties are broken lexicographically by name. Raises KeyError for
    an unknown target.
    """
    if target not in matrix:
        raise KeyError(f"unknown target dataset {target!r}")
    entries = [
        (name, matrix.distance(target, name))
        for name in matrix.names
        if name != target
    ]
    entries.sort(key=lambda e: (e[1], e[0]))
    return SourceRanking(target=target, ranked=tuple(entries))


def write_matrix_csv(matrix: SimilarityMatrix, path) -> None:
    """CSV with a header row/column of names; 17 significant digits."""
    dump_csv_17g([["", *matrix.names]] + [
        [name, *row] for name, row in zip(matrix.names, matrix.values)
    ], path)


def read_matrix_csv(path) -> SimilarityMatrix:
    """A `write_matrix_csv` file; DataValidationError naming the file, and
    the line where known, for any malformed content."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataValidationError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows or rows[0][1][:1] != [""]:
        raise DataValidationError(f"{path}: not a similarity-matrix CSV")
    names = tuple(rows[0][1][1:])
    values = np.zeros((len(names), len(names)))
    if len(rows) != len(names) + 1:
        raise DataValidationError(f"{path}: expected {len(names)} data rows")
    for i, (line, row) in enumerate(rows[1:]):
        if len(row) != len(names) + 1:
            raise DataValidationError(
                f"{path}:{line}: expected {len(names) + 1} cells, got {len(row)}"
            )
        if row[0] != names[i]:
            raise DataValidationError(
                f"{path}:{line}: row label {row[0]!r} does not match column {names[i]!r}"
            )
        try:
            values[i] = parse_decimals(row[1:])
        except ValueError as exc:
            raise DataValidationError(f"{path}:{line}: {exc}") from None
    try:
        return SimilarityMatrix(names=names, values=values)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


def write_ranking_json(ranking: SourceRanking, path) -> None:
    """JSON list of {source, distance, rank}, rank 1 being the most similar."""
    payload = [
        {"source": name, "distance": dist, "rank": k}
        for k, (name, dist) in enumerate(ranking.ranked, start=1)
    ]
    dump_json_17g({"target": ranking.target, "ranking": payload}, path)
