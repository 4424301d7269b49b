"""Exact dynamic time warping: distance, optimal paths, and medoid selection.

The local cost between two samples is the squared difference and the
alignment may insert, delete, or match with no global window, so the
distance is the minimum cumulative squared cost over all monotone,
continuous warping paths. The dynamic program adds each cell's local cost
after taking the minimum over predecessors, which makes the cumulative value
bit-identical to summing costs along the optimal path from its start.

Every alignment runs through one kernel, `_wavefront`, which fills the
table an anti-diagonal at a time. Cell (i, j) of the table D lies on
diagonal s = i + j, and its three predecessors lie on diagonals s-1 and
s-2, so a whole diagonal depends only on earlier ones. The table is stored
skewed, in diagonal-major order: `S[s, i+1, p] = D_p[i, s-i]`, and column 0
stands for i = -1 and holds inf. The last axis holds a batch of P pairs
that share both lengths, so one call aligns a reference against many
members.

The kernel works on blocks of diagonals. With the second series reversed
in time and padded with n-1 infs on both sides, the samples b[s-i] of
diagonal s, i = 0..n-1, are one window of the padded series, so the squared
differences of a whole block are one subtract and one multiply over a
sliding-window view, written straight into the block's rows of the table.
Cells outside the band 0 <= s-i <= m-1 meet an inf sample and get an inf
cost, so they stay inf, and every diagonal is then two minimums and one add
over full rows, with no band limits.

Each cell does the same float operations as the textbook scalar loop: the
local cost d*d of d = a[i] - b[j], plus the exact minimum of its three
predecessors. A minimum is exact in any order, and adding an inf-padded
neighbour changes nothing on row 0 and column 0: those cells become
d*d + left and d*d + up, which equal the loop's left + d*d and up + d*d
under IEEE commutativity. Every cell, and so every cost and backtracked
path, is therefore bit-identical to the loop. Samples must be finite: a NaN
would propagate through np.minimum where the loop's `<` skips it.

Memory: the distance fills a table of `_DISTANCE_ROWS` diagonals block by
block, carrying the last two diagonals into the next block, so it needs
O(n + m). It puts the shorter series on the rows, so its n+m-1 diagonals
of min(n, m) cells each keep the time O(n * m). A path needs the whole
table as one block, (n+m-1) * (n+1) float64 slots, about 16 bytes per
cell of D when the lengths are equal. `dtw_paths` splits its batch so
that one table stays under `_PATH_TABLE_BYTES`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "dtw_distance",
    "dtw_path",
    "dtw_paths",
    "medoid",
    "pairwise_dtw_matrix",
]

# `dtw_paths` splits a batch so that its skewed table stays under this many
# bytes; a table that holds a single pair may exceed it.
_PATH_TABLE_BYTES = 64 * 2**20

# Rows of the table `dtw_distance` fills block by block.
_DISTANCE_ROWS = 64


def _as_series(series, arg_name: str) -> np.ndarray:
    values = np.asarray(series, dtype=np.float64)
    if values.ndim > 1:
        raise ValueError(
            f"dtw: series {arg_name!r} must be one-dimensional, got shape {values.shape}"
        )
    values = values.reshape(-1)
    if values.size == 0:
        raise ValueError(f"dtw: series {arg_name!r} is empty")
    if not np.isfinite(values).all():
        raise ValueError(f"dtw: series {arg_name!r} has a non-finite sample")
    return values


def _wavefront(x: np.ndarray, y_rev: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Fill the skewed cost table of x against y_rev, both (length, P).

    Column p of `x` and of `y_rev` is pair p, with its second series
    reversed in time. The table is filled in blocks of diagonals: the first
    block takes diagonals 0 .. depth-1 into rows 0 .. depth-1, and each
    later block first copies the last two diagonals into rows 0 and 1, then
    takes the next depth-2 diagonals into rows 2 .. depth-1. A table of
    depth n+m-1 is one block that keeps every diagonal in row s. The table
    may start uninitialised. Returns the row that holds the last diagonal.
    """
    n, m = x.shape[0], y_rev.shape[0]
    depth, width = table.shape[0], table.shape[2]
    diagonals = n + m - 1
    # windows[s, i] = b[s - i], with inf where s - i is outside 0 .. m-1.
    pad = np.full((n - 1, width), np.inf)
    windows = sliding_window_view(np.concatenate([pad, y_rev, pad]), n, axis=0)
    windows = windows.transpose(0, 2, 1)[::-1]
    table[:, 0] = np.inf
    up, left = list(table[:, :-1]), list(table[:, 1:])
    best = np.empty((n, width))
    s, row = 0, 0  # the block's first diagonal and the row it goes to
    while True:
        stop = min(diagonals, s + depth - row)
        end = row + stop - s
        # Squared differences of the whole block, inf outside the band.
        block = table[row:end, 1:]
        np.subtract(x, windows[s:stop], out=block)
        np.multiply(block, block, out=block)
        if row == 0 and end > 1:  # diagonal 1 has no diagonal predecessor
            np.minimum(up[0], left[0], out=best)
            np.add(left[1], best, out=left[1])
        for r in range(2, end):
            np.minimum(up[r - 1], left[r - 1], out=best)
            np.minimum(best, up[r - 2], out=best)
            np.add(left[r], best, out=left[r])
        if stop == diagonals:
            return table[end - 1]
        table[:2] = table[end - 2 : end]
        s, row = stop, 2


def _backtrack(table: np.ndarray, n: int, m: int, p: int) -> list[tuple[int, int]]:
    item = table.item  # one cell at a time: cheaper than converting the table
    i, j = n - 1, m - 1
    path = [(n, m)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            s = i + j
            diag = item(s - 2, i, p)
            up = item(s - 1, i, p)
            left = item(s - 1, i + 1, p)
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
    return path


def _paths(x: np.ndarray, ys: list[np.ndarray]) -> list:
    """Cost and path of x against each of ys, batched by member length."""
    n = len(x)
    out: list = [None] * len(ys)
    by_length: dict[int, list[int]] = {}
    for k, y in enumerate(ys):
        by_length.setdefault(len(y), []).append(k)
    for m, members in by_length.items():
        pair_bytes = (n + m - 1) * (n + 1) * 8
        chunk = max(1, _PATH_TABLE_BYTES // pair_bytes)
        for start in range(0, len(members), chunk):
            part = members[start : start + chunk]
            y_rev = np.stack([ys[k][::-1] for k in part], axis=1)
            table = np.empty((n + m - 1, n + 1, len(part)))
            _wavefront(np.repeat(x[:, None], len(part), axis=1), y_rev, table)
            for p, k in enumerate(part):
                out[k] = (table.item(n + m - 2, n, p), _backtrack(table, n, m, p))
    return out


def dtw_distance(a, b) -> float:
    """Minimum cumulative squared-difference cost over all warping paths.

    Symmetric, non-negative, and zero for identical inputs. Raises
    ValueError on an empty or multi-dimensional series or a non-finite
    sample. O(len(a) * len(b)) time and O(len(a) + len(b)) memory.
    """
    x = _as_series(a, "a")
    y = _as_series(b, "b")
    # Every diagonal spans len(x) cells, so x is the shorter series; the
    # cost is bit-symmetric, since (-d)*(-d) == d*d and min is exact.
    if len(x) > len(y):
        x, y = y, x
    n = len(x)
    table = np.empty((_DISTANCE_ROWS, n + 1, 1))
    return _wavefront(x[:, None], y[::-1, None], table).item(n, 0)


def dtw_path(a, b) -> tuple[float, list[tuple[int, int]]]:
    """Distance plus one optimal warping path as 1-based index pairs.

    The path starts at (1, 1), ends at (len(a), len(b)), and each step
    increments i, j, or both by one. Backtracking ties are broken by
    preferring the diagonal step, then the step decreasing i, then the step
    decreasing j, so the returned path is deterministic. The returned cost
    is bit-identical to dtw_distance on the same pair.
    """
    return _paths(_as_series(a, "a"), [_as_series(b, "b")])[0]


def dtw_paths(reference, members) -> list[tuple[float, list[tuple[int, int]]]]:
    """`[dtw_path(reference, m) for m in members]`, aligned in batches.

    Members of one length share one table; the result is in input order
    and identical to the per-pair calls.
    """
    x = _as_series(reference, "reference")
    ys = [_as_series(m, f"members[{k}]") for k, m in enumerate(members)]
    return _paths(x, ys)


def pairwise_dtw_matrix(series) -> np.ndarray:
    """Symmetric matrix of DTW distances between all members of a collection."""
    items = list(series)
    n = len(items)
    if n == 0:
        raise ValueError("pairwise_dtw_matrix: empty collection")
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = dtw_distance(items[i], items[j])
    return out


def medoid(series) -> int:
    """Index of the member minimizing the sum of DTW distances to the others.

    Ties are broken by the lowest index.
    """
    items = list(series)
    if not items:
        raise ValueError("medoid: empty collection")
    if len(items) == 1:
        return 0
    sums = pairwise_dtw_matrix(items).sum(axis=1)
    return int(np.argmin(sums))
