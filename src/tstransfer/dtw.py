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
that share both lengths, each with its own first series, so one call
aligns the members of several DBA groups against their own prototypes
(`dba._step`).

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
path, is therefore bit-identical to the loop. `core.as_series` keeps samples
finite: a NaN would propagate through np.minimum where the loop's `<` skips it.

Memory: the distance fills a table of `_DISTANCE_ROWS` diagonals block by
block, carrying the last two diagonals into the next block, so it needs
O(n + m). It puts the shorter series on the rows, so its n+m-1 diagonals
of min(n, m) cells each keep the time O(n * m). A path needs the whole
table as one block, (n+m-1) * (n+1) float64 slots, about 16 bytes per
cell of D when the lengths are equal. `_paths` splits a batch into the
fewest tables of near-equal width that stay under `_PATH_TABLE_BYTES`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import as_series, as_series_list

__all__ = [
    "dtw_distance",
    "dtw_path",
    "medoid",
    "pairwise_dtw_matrix",
]

# `_paths` splits a batch so that its skewed table stays under this many
# bytes; a table that holds a single pair may exceed it. Wider tables were
# no faster per pair: at T=128 and T=256, the time per pair was lowest with
# tables of 6-16 MB and up to half as much again at 32-64 MB.
_PATH_TABLE_BYTES = 16 * 2**20

# Rows of the table `dtw_distance` fills block by block.
_DISTANCE_ROWS = 64


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


def _backtrack(table: np.ndarray, n: int, m: int, p: int) -> tuple[list[int], list[int]]:
    """Rows and columns (0-based) of pair p's optimal path, start to end."""
    # k is the flat index of table entry (s-2, i, p), the diagonal
    # predecessor of cell (i, j) with s = i + j; its up predecessor is one
    # diagonal later, its left one diagonal and one column later.
    cells = memoryview(table.reshape(-1))
    width = table.shape[2]
    diagonal, column = (n + 1) * width, width
    i, j = n - 1, m - 1
    k = (i + j - 2) * diagonal + i * column + p
    rows, cols = [i], [j]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
            k -= diagonal
        elif j == 0:
            i -= 1
            k -= diagonal + column
        else:
            diag, up, left = cells[k], cells[k + diagonal], cells[k + diagonal + column]
            # Ties go to the diagonal, then to up; no cell is NaN.
            if diag <= up and diag <= left:
                i -= 1
                j -= 1
                k -= 2 * diagonal + column
            elif up <= left:
                i -= 1
                k -= diagonal + column
            else:
                j -= 1
                k -= diagonal
        rows.append(i)
        cols.append(j)
    rows.reverse()
    cols.reverse()
    return rows, cols


def _paths(xs: list[np.ndarray], ys: list[np.ndarray]) -> list:
    """(cost, rows, cols) of each pair xs[k], ys[k], batched by both lengths.

    Pairs of one (len(x), len(y)) share a table, split into tables of
    near-equal width that stay under `_PATH_TABLE_BYTES`. Rows and columns
    are the 0-based path.
    """
    out: list = [None] * len(ys)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k, (x, y) in enumerate(zip(xs, ys, strict=True)):
        by_shape.setdefault((len(x), len(y)), []).append(k)
    for (n, m), pairs in by_shape.items():
        pair_bytes = (n + m - 1) * (n + 1) * 8
        fit = max(1, _PATH_TABLE_BYTES // pair_bytes)
        tables = -(-len(pairs) // fit)
        width = -(-len(pairs) // tables)  # the fewest tables, as even as can be
        for start in range(0, len(pairs), width):
            part = pairs[start : start + width]
            x = np.stack([xs[k] for k in part], axis=1)
            y_rev = np.stack([ys[k][::-1] for k in part], axis=1)
            table = np.empty((n + m - 1, n + 1, len(part)))
            _wavefront(x, y_rev, table)
            for p, k in enumerate(part):
                out[k] = (table.item(n + m - 2, n, p), *_backtrack(table, n, m, p))
            del table  # one table at a time
    return out


def dtw_distance(a, b) -> float:
    """Minimum cumulative squared-difference cost over all warping paths.

    Symmetric, non-negative, and zero for identical inputs. Series are
    checked by `core.as_series`. O(len(a) * len(b)) time and
    O(len(a) + len(b)) memory.
    """
    x = as_series(a, "dtw: series 'a'")
    y = as_series(b, "dtw: series 'b'")
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
    x = as_series(a, "dtw: series 'a'")
    [(cost, rows, cols)] = _paths([x], [as_series(b, "dtw: series 'b'")])
    return cost, [(i + 1, j + 1) for i, j in zip(rows, cols)]


def pairwise_dtw_matrix(series) -> np.ndarray:
    """Symmetric matrix of DTW distances between all members of a collection."""
    items = as_series_list(series, "pairwise_dtw_matrix: series")
    n = len(items)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = dtw_distance(items[i], items[j])
    return out


def medoid(series) -> int:
    """Index of the member minimizing the sum of DTW distances to the others.

    Ties are broken by the lowest index.
    """
    items = as_series_list(series, "medoid: series")
    return int(np.argmin(pairwise_dtw_matrix(items).sum(axis=1)))
