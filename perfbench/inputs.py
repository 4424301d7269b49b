"""Seeded synthetic inputs for the benchmark workloads.

Shapes (lengths, class counts, split sizes, epochs) are fixed per workload so
that every seed does the same amount of work; the seed only changes sample
values. Class c of a dataset is a noisy sinusoid whose frequency grows with c,
so classes are learnable and training loss falls within a few epochs.

The UCR writer here is the benchmark's own, so the files the `pipeline`
workload parses do not depend on the library's `save_ucr_dataset`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from tstransfer.core import Dataset, LabeledSeries


@dataclass(frozen=True)
class DatasetSpec:
    """Shape of one generated dataset; labels are assigned round-robin."""

    name: str
    length: int
    classes: int
    train_size: int
    test_size: int


@dataclass(frozen=True)
class WorkloadSpec:
    datasets: tuple[DatasetSpec, ...]
    epochs: int = 0  # 0 for workloads that do not train

    def properties(self) -> dict:
        """Input properties recorded with every result."""
        return {
            "dataset_count": len(self.datasets),
            "lengths": [d.length for d in self.datasets],
            "classes": [d.classes for d in self.datasets],
            "train_members_per_class": [d.train_size / d.classes for d in self.datasets],
            "test_sizes": [d.test_size for d in self.datasets],
            "epochs": self.epochs,
        }


def _spec(name, length, classes, train_per_class, test_size=0):
    return DatasetSpec(name, length, classes, classes * train_per_class, test_size)


# Short series, many members per class: DTW and DBA dominate. Sized so that
# one similarity_matrix call takes about 4 s on one core and a 30 s run holds
# several repetitions.
SELECT = WorkloadSpec(
    datasets=tuple(
        _spec(f"sel{k}", length, classes, 12)
        for k, (length, classes) in enumerate(
            [(64, 4), (72, 3), (80, 2), (96, 2), (112, 2), (128, 2)]
        )
    )
)

# One FCN training run at T=128, batch 16 (library default), then a large
# evaluation split (two evaluation chunks).
TRAIN = WorkloadSpec(
    datasets=(DatasetSpec("train0", 128, 3, 64, 512),),
    epochs=3,
)

# Long series, few members, mixed class counts: few long DTW pairs and one
# training step per epoch.
PIPELINE = WorkloadSpec(
    datasets=(
        _spec("pipeA", 192, 2, 3, 16),
        _spec("pipeB", 256, 3, 3, 24),
        _spec("pipeC", 320, 2, 3, 16),
    ),
    epochs=1,
)


def _series(rng, length: int, label: int, base_freq: float) -> np.ndarray:
    t = np.arange(length) / length
    freq = base_freq * (1.0 + label)
    phase = rng.uniform(0.0, 1.0)
    raw = np.sin(2.0 * np.pi * (freq * t + phase)) + 0.3 * rng.standard_normal(length)
    return (raw - raw.mean()) / raw.std()


def generate_arrays(spec: DatasetSpec, seed: int):
    """(train, test) lists of (values, label) pairs for one dataset.

    The base frequency depends on the dataset's shape only; the seed draws
    phases and noise. Pure-Python DTW runs a data-dependent number of
    branches, so keeping every seed's series statistically alike keeps the
    work per seed alike.
    """
    shape = [spec.length, spec.classes, spec.train_size, spec.test_size]
    base_freq = np.random.default_rng(shape).uniform(1.0, 2.0)
    rng = np.random.default_rng([seed, *shape])

    def split(size):
        return [(_series(rng, spec.length, i % spec.classes, base_freq),
                 i % spec.classes) for i in range(size)]

    return split(spec.train_size), split(spec.test_size)


def to_dataset(spec: DatasetSpec, arrays) -> Dataset:
    train, test = arrays
    return Dataset(
        name=spec.name,
        train=tuple(LabeledSeries(s, c) for s, c in train),
        test=tuple(LabeledSeries(s, c) for s, c in test),
        class_count=spec.classes,
    )


def write_ucr(pairs, path) -> None:
    """UCR record file: 1-based label, then 17-significant-digit samples."""
    with open(path, "w", encoding="utf-8") as fh:
        for values, label in pairs:
            cells = [str(label + 1)] + [format(float(v), ".17g") for v in values]
            fh.write(",".join(cells) + "\n")


def write_ucr_pair(spec: DatasetSpec, arrays, directory) -> tuple[str, str]:
    train_path = os.path.join(directory, f"{spec.name}_TRAIN.csv")
    test_path = os.path.join(directory, f"{spec.name}_TEST.csv")
    write_ucr(arrays[0], train_path)
    write_ucr(arrays[1], test_path)
    return train_path, test_path
