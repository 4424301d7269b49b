"""Barycenter averaging of a set of series under dynamic time warping.

The prototype starts at the set's medoid and is refined for
`DBA_ITERATIONS` steps: every member is aligned to the current prototype
with an optimal warping path, each prototype coordinate collects the member
samples aligned to it, and the coordinate is replaced by their arithmetic
mean. The prototype keeps the medoid's length throughout.

`dba_averages` refines the prototypes of several groups, such as the
classes of a dataset, together: each step aligns every member of every
group that has not reached its fixed point in one batched call of
`dtw._paths`, then averages each group on its own, so every prototype has
the bits of `dba_average` on its group alone; the batch's path tables are
as many times wider as there are groups, up to `dtw._PATH_TABLE_BYTES`.
"""

from __future__ import annotations

import numpy as np

from .core import as_series, as_series_list
from .dtw import _paths, medoid

__all__ = ["DBA_ITERATIONS", "dba_iteration", "dba_average", "dba_averages"]

# Refinement steps after medoid initialization, as in the method.
DBA_ITERATIONS = 10


def _step(groups) -> list[np.ndarray]:
    """One refinement step of each (prototype, members) group of checked series.

    Every member of every group is aligned in one `_paths` call. Path
    continuity guarantees every prototype coordinate receives at least one
    sample. The mean is accumulated relative to the first sample aligned to
    each coordinate, so averaging identical samples reproduces them exactly
    and the step is deterministic (fixed tie-breaking in the backtrack,
    samples summed in member order, then path order).
    """
    xs = [proto for proto, members in groups for _ in members]
    aligned = iter(_paths(xs, [m for _, members in groups for m in members]))
    out = []
    for _, members in groups:
        coords, samples = [], []
        for member, (_, rows, cols) in zip(members, aligned):
            coords += rows
            samples.append(member[cols])
        coords = np.array(coords)
        samples = np.concatenate(samples)
        # Every coordinate occurs, so the unique coordinates are 0..len(proto)-1.
        pivots = samples[np.unique(coords, return_index=True)[1]]
        # bincount adds its weights in input order, like the sequential sum.
        delta_sums = np.bincount(coords, samples - pivots[coords])
        counts = np.bincount(coords)
        out.append(pivots + delta_sums / counts)
    return out


def dba_iteration(prototype, members) -> np.ndarray:
    """One refinement step: align every member, then average per coordinate."""
    proto = as_series(prototype, "dba: prototype")
    return _step([(proto, as_series_list(members, "dba_iteration: members"))])[0]


def _refine(groups: list[list[np.ndarray]], iterations: int) -> list[np.ndarray]:
    """The prototypes of non-empty groups of checked members, stepped together.

    Each group starts from its medoid and steps until it reaches its own
    fixed point or `iterations` steps; a step reads a prototype only through
    the warping paths, so once a step returns a prototype equal to its
    input, every later step returns those same bits.
    """
    protos = [members[medoid(members)] for members in groups]
    active = list(range(len(groups)))
    for _ in range(iterations):
        if not active:
            break
        stepped = _step([(protos[g], groups[g]) for g in active])
        moved = []
        for g, proto in zip(active, stepped):
            if not np.array_equal(proto, protos[g]):
                moved.append(g)
            protos[g] = proto
        active = moved
    for proto in protos:
        proto.flags.writeable = False
    return protos


def dba_averages(groups) -> list[np.ndarray]:
    """`[dba_average(members) for members in groups]`, stepped together.

    Each group is checked as `groups[g]`, and every step aligns the members
    of all groups that have not reached their fixed point in one batch.
    """
    groups = [as_series_list(members, f"dba_averages: groups[{g}]")
              for g, members in enumerate(groups)]
    return _refine(groups, DBA_ITERATIONS)


def dba_average(members) -> np.ndarray:
    """Average a non-empty set of series in the warping-induced space.

    Initializes the prototype to the set's medoid and returns the result of
    exactly `DBA_ITERATIONS` refinement steps; the steps after a fixed point,
    which return the same bits, are skipped (see `_refine`).
    """
    return _refine([as_series_list(members, "dba_average: members")], DBA_ITERATIONS)[0]
