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
skewed, in diagonal-major order: `S[s, i+1, p] = D_p[i, s-i]`. Column 0
stands for i = -1 and holds inf, as does every slot outside the band
max(0, s-m+1) <= i <= min(n-1, s). With the second series stored reversed
in time, the samples of one diagonal are contiguous slices of both series,
and the diagonal is a handful of ufunc calls over contiguous slices. The
last axis holds a batch of P pairs that share both lengths, so one call
aligns a reference against many members.

Each cell does the same float operations as the textbook scalar loop: the
local cost d*d of d = a[i] - b[j], plus the exact minimum of its three
predecessors. A minimum is exact in any order, and adding an inf-padded
neighbour changes nothing on row 0 and column 0: those cells become
d*d + left and d*d + up, which equal the loop's left + d*d and up + d*d
under IEEE commutativity. Every cell, and so every cost and backtracked
path, is therefore bit-identical to the loop. Samples must be finite: a NaN
would propagate through np.minimum where the loop's `<` skips it.

Memory: the distance keeps a ring of three diagonals, O(n + m). A path
needs the whole table, (n+m-1) * (n+1) float64 slots, about 16 bytes per
cell of D when the lengths are equal (a table of Python floats in lists
took about 32). `dtw_paths` splits its batch so that one table stays under
`_PATH_TABLE_BYTES`.
"""

from __future__ import annotations

import numpy as np

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


def _as_series(series, arg_name: str) -> np.ndarray:
    values = np.asarray(series, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError(f"dtw: series {arg_name!r} is empty")
    if not np.isfinite(values).all():
        raise ValueError(f"dtw: series {arg_name!r} has a non-finite sample")
    return values


def _wavefront(x: np.ndarray, y_rev: np.ndarray, table: np.ndarray) -> None:
    """Fill the skewed cost table of x against y_rev, both (length, P).

    Column p of `x` and of `y_rev` is pair p, with its second series
    reversed in time; both are C-contiguous, so every slice below is one
    contiguous run. Diagonal s is written to `table[s % depth]`, so a table
    of depth n+m-1 keeps every diagonal and a ring of depth 3 keeps the
    last three. The table must start filled with inf; slots outside the
    band are never written.
    """
    n, m = x.shape[0], y_rev.shape[0]
    depth, width = table.shape[0], table.shape[2]
    rows = list(table)
    cost = np.empty((min(n, m), width))
    best = np.empty_like(cost)
    for s in range(n + m - 1):
        lo, hi = max(0, s - m + 1), min(n - 1, s) + 1
        d = cost[: hi - lo]
        # b[s - i] for i = lo..hi-1 is a contiguous run of the reversed series.
        np.subtract(x[lo:hi], y_rev[m - 1 - s + lo : m - 1 - s + hi], out=d)
        np.multiply(d, d, out=d)
        out = rows[s % depth][lo + 1 : hi + 1]
        if s == 0:
            out[...] = d
            continue
        prev = rows[(s - 1) % depth]
        b = best[: hi - lo]
        np.minimum(prev[lo:hi], prev[lo + 1 : hi + 1], out=b)  # up, left
        if s >= 2:
            np.minimum(b, rows[(s - 2) % depth][lo:hi], out=b)  # diagonal
        np.add(d, b, out=out)


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
            table = np.full((n + m - 1, n + 1, len(part)), np.inf)
            _wavefront(np.repeat(x[:, None], len(part), axis=1), y_rev, table)
            for p, k in enumerate(part):
                out[k] = (table.item(n + m - 2, n, p), _backtrack(table, n, m, p))
    return out


def dtw_distance(a, b) -> float:
    """Minimum cumulative squared-difference cost over all warping paths.

    Symmetric, non-negative, and zero for identical inputs. Raises
    ValueError on an empty series or a non-finite sample. O(len(a) *
    len(b)) time and O(len(a) + len(b)) memory.
    """
    x = _as_series(a, "a")
    y = _as_series(b, "b")
    n, m = len(x), len(y)
    ring = np.full((3, n + 1, 1), np.inf)
    _wavefront(x[:, None], y[::-1, None].copy(), ring)
    return ring.item((n + m - 2) % 3, n, 0)


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
