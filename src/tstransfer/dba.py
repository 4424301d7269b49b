"""Barycenter averaging of a set of series under dynamic time warping.

The prototype is refined iteratively: every member is aligned to the current
prototype with an optimal warping path, each prototype coordinate collects
the member samples aligned to it, and the coordinate is replaced by their
arithmetic mean. The prototype keeps the medoid's length throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dtw import dtw_paths, medoid

__all__ = ["DbaConfig", "dba_iteration", "dba_average"]


@dataclass(frozen=True)
class DbaConfig:
    """Number of refinement iterations applied after medoid initialization.

    The result is always that of exactly this many steps; `dba_average`
    skips the steps after a fixed point, which return the same bits.
    """

    iterations: int = 10

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


def dba_iteration(prototype, members) -> np.ndarray:
    """One refinement step: align every member, then average per coordinate.

    Path continuity guarantees every prototype coordinate receives at least
    one sample. The mean is accumulated relative to the first sample aligned
    to each coordinate, so averaging identical samples reproduces them
    exactly and the step is deterministic (fixed tie-breaking in dtw_paths,
    samples summed in member order, then path order).
    """
    proto = np.asarray(prototype, dtype=np.float64)
    members = [np.atleast_1d(np.asarray(m, dtype=np.float64)) for m in members]
    if not members:
        raise ValueError("dba_iteration: empty member set")
    coords, samples = [], []
    for member, (_, path) in zip(members, dtw_paths(proto, members)):
        ij = np.array(path) - 1
        coords.append(ij[:, 0])
        samples.append(member[ij[:, 1]])
    coords = np.concatenate(coords)
    samples = np.concatenate(samples)
    # Every coordinate occurs, so the unique coordinates are 0..len(proto)-1.
    pivots = samples[np.unique(coords, return_index=True)[1]]
    # bincount adds its weights in input order, like the sequential sum.
    delta_sums = np.bincount(coords, samples - pivots[coords])
    counts = np.bincount(coords)
    return pivots + delta_sums / counts


def dba_average(members, config: DbaConfig = DbaConfig()) -> np.ndarray:
    """Average a non-empty set of series in the warping-induced space.

    Initializes the prototype to the set's medoid and returns the result of
    exactly config.iterations refinement steps; steps after a fixed point
    are skipped. A step reads the prototype only through the warping paths,
    so once a step returns a prototype equal to its input, every later step
    returns those same bits.
    """
    members = list(members)
    if not members:
        raise ValueError("dba_average: empty member set")
    proto = np.array(members[medoid(members)], dtype=np.float64)
    for _ in range(config.iterations):
        previous, proto = proto, dba_iteration(proto, members)
        if np.array_equal(proto, previous):
            break
    proto.flags.writeable = False
    return proto
