import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tstransfer.dtw as dtw
from helpers import (
    dtw_brute_force,
    dtw_path_reference,
    is_valid_warping_path,
    pairs_of_mixed_shapes,
    reference_and_members,
    series_lists,
    series_pairs,
)
from tstransfer import dtw_distance, dtw_path, medoid, pairwise_dtw_matrix

PROPERTY = settings(max_examples=150, deadline=None)


@pytest.fixture()
def tables(monkeypatch):
    """(n, m, width) of every table `_wavefront` fills, in call order."""
    shapes = []
    kernel = dtw._wavefront

    def counting(x, y_rev, table):
        shapes.append((x.shape[0], y_rev.shape[0], table.shape[2]))
        return kernel(x, y_rev, table)

    monkeypatch.setattr(dtw, "_wavefront", counting)
    return shapes


def paths_against(reference, members):
    """`_paths` of one reference against every member, as 1-based paths."""
    x = np.asarray(reference, dtype=np.float64)
    ys = [np.asarray(m, dtype=np.float64) for m in members]
    return [(cost, [(i + 1, j + 1) for i, j in zip(rows, cols)])
            for cost, rows, cols in dtw._paths([x] * len(ys), ys)]


class TestDtwDistance:
    def test_identity_is_zero(self):
        assert dtw_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_known_small_values(self):
        # values confirmed by exhaustive path enumeration
        assert dtw_distance([0, 1, 2], [0, 2]) == 1.0
        assert dtw_distance([0, 0], [1, 1]) == 2.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dtw_distance([], [1.0])
        with pytest.raises(ValueError):
            dtw_distance([1.0], [])

    def test_symmetric_nonnegative_self_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.uniform(-2, 2, rng.integers(1, 12))
            b = rng.uniform(-2, 2, rng.integers(1, 12))
            d_ab = dtw_distance(a, b)
            assert d_ab >= 0.0
            assert d_ab == dtw_distance(b, a)
            assert dtw_distance(a, a) == 0.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            a = rng.uniform(-2, 2, rng.integers(1, 9))
            b = rng.uniform(-2, 2, rng.integers(1, 9))
            assert dtw_distance(a, b) == dtw_brute_force(a, b)

    def test_blocks_of_diagonals_match_reference(self):
        # n+m-1 diagonals on both sides of each block boundary of the table.
        rows = dtw._DISTANCE_ROWS
        rng = np.random.default_rng(43)
        for diagonals in (rows - 1, rows, rows + 1, 2 * rows - 2, 2 * rows - 1,
                          3 * rows - 4, 5 * rows + 3):
            for n in (1, diagonals // 2, diagonals // 3, diagonals):
                m = diagonals + 1 - n
                a = rng.integers(-2, 3, n).astype(float)
                b = rng.standard_normal(m)
                assert dtw_distance(a, b) == dtw_path_reference(a, b)[0]
                assert dtw_distance(b, a) == dtw_path_reference(b, a)[0]

    def test_diagonals_span_the_shorter_series(self, tables):
        # A diagonal of the kernel spans every sample of its first series,
        # so a long first series would cost O(n * n) instead of O(n * m).
        long, short = np.linspace(-1, 1, 300), np.array([0.5, -0.5, 2.0])
        assert dtw_distance(long, short) == dtw_path_reference(long, short)[0]
        assert dtw_distance(short, long) == dtw_distance(long, short)
        assert [n for n, _, _ in tables] == [3, 3, 3]

    def test_diagonal_path_upper_bound_for_equal_lengths(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 16))
            a = rng.uniform(-2, 2, n)
            b = rng.uniform(-2, 2, n)
            assert dtw_distance(a, b) <= ((a - b) ** 2).sum() + 1e-12


class TestDtwPath:
    def test_singletons(self):
        assert dtw_path([5], [5]) == (0.0, [(1, 1)])

    def test_tie_breaking_prefers_diagonal(self):
        cost, path = dtw_path([0, 0], [1, 1])
        assert cost == 2.0
        assert path == [(1, 1), (2, 2)]

    def test_backtrack_follows_tie_rule_on_uneven_pair(self):
        cost, path = dtw_path([0, 1, 2], [0, 2])
        assert cost == 1.0
        # diagonal preferred over the j-decreasing step at the tie
        assert path == [(1, 1), (2, 1), (3, 2)]

    def test_cost_equals_distance_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            a = rng.uniform(-2, 2, rng.integers(1, 14))
            b = rng.uniform(-2, 2, rng.integers(1, 14))
            cost, path = dtw_path(a, b)
            assert cost == dtw_distance(a, b)
            assert is_valid_warping_path(path, len(a), len(b))

    def test_path_cost_sums_to_reported_cost(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a = rng.uniform(-2, 2, rng.integers(1, 10))
            b = rng.uniform(-2, 2, rng.integers(1, 10))
            cost, path = dtw_path(a, b)
            acc = 0.0
            for i, j in path:
                d = a[i - 1] - b[j - 1]
                acc += d * d
            assert acc == cost


class TestMedoid:
    def test_singleton(self):
        assert medoid([np.array([1.0, 2.0])]) == 0

    def test_three_member_example(self):
        members = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([10.0, 10.0])]
        # pairwise DTW sums are 202, 164, 362
        assert medoid(members) == 1

    def test_identical_members_lowest_index(self):
        s = np.array([0.3, -0.7, 0.1])
        assert medoid([s, s.copy(), s.copy()]) == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="medoid: empty collection"):
            medoid([])

    def test_names_a_bad_member_by_its_index(self):
        with pytest.raises(ValueError, match=r"dtw: members\[2\] contains non-finite"):
            medoid([[0.0, 1.0], [2.0], [1.0, -np.inf]])
        with pytest.raises(ValueError, match=r"dtw: members\[0\] contains non-finite"):
            pairwise_dtw_matrix([[np.inf]])

    @PROPERTY
    @given(series_lists(12))
    def test_lowest_index_argmin_of_reference_row_sums(self, members):
        n = len(members)
        costs = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                costs[i, j] = costs[j, i] = dtw_path_reference(members[i], members[j])[0]
        sums = costs.sum(axis=1)
        assert medoid(members) == min(k for k in range(n) if sums[k] == sums.min())

    def test_pairwise_matrix_equals_per_pair_distances(self):
        rng = np.random.default_rng(17)
        members = [rng.uniform(-2, 2, rng.integers(2, 10)) for _ in range(7)]
        mat = pairwise_dtw_matrix(members)
        for i, a in enumerate(members):
            for j, b in enumerate(members):
                assert mat[i, j] == (0.0 if i == j else dtw_distance(a, b))

    def test_pairwise_matrix_structure(self):
        rng = np.random.default_rng(19)
        members = [rng.uniform(-1, 1, 5) for _ in range(5)]
        mat = pairwise_dtw_matrix(members)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(np.diag(mat), np.zeros(5))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize(
        "align",
        [dtw_distance, dtw_path, lambda a, b: pairwise_dtw_matrix([a, b])],
        ids=["dtw_distance", "dtw_path", "pairwise_dtw_matrix"],
    )
    def test_rejected(self, align, position, bad):
        args = [np.array([0.5, 1.0, -0.5]), np.array([0.0, 2.0])]
        args[position] = args[position].copy()
        args[position][1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            align(*args)


class TestShapes:
    @pytest.mark.parametrize(
        "align",
        [dtw_distance, dtw_path, lambda a, b: pairwise_dtw_matrix([a, b])],
        ids=["dtw_distance", "dtw_path", "pairwise_dtw_matrix"],
    )
    def test_rejects_multi_dimensional_series(self, align):
        grid = np.arange(6.0).reshape(2, 3)
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 3\)"):
            align(grid, np.arange(6.0))
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(6, 1\)"):
            align(np.arange(6.0), np.arange(6.0)[:, None])

    def test_scalar_is_a_one_sample_series(self):
        assert dtw_distance(3.0, [4.0, 4.0]) == 2.0


class TestAgainstScalarReference:
    @PROPERTY
    @given(series_pairs(40))
    def test_path_and_cost_bit_equal(self, pair):
        a, b = pair
        assert dtw_path(a, b) == dtw_path_reference(a, b)

    @PROPERTY
    @given(series_pairs(40))
    def test_distance_bit_equal(self, pair):
        a, b = pair
        assert dtw_distance(a, b) == dtw_path_reference(a, b)[0]

    @PROPERTY
    @given(series_pairs(6))
    def test_distance_equals_brute_force(self, pair):
        a, b = pair
        assert dtw_distance(a, b) == dtw_brute_force(a, b)

    @PROPERTY
    @given(reference_and_members())
    def test_batched_paths_equal_per_pair_reference(self, case):
        reference, members = case
        expected = [dtw_path_reference(reference, m) for m in members]
        assert paths_against(reference, members) == expected


class TestDtwPaths:
    """`_paths` with one reference for every pair, batched by member length."""

    def test_empty_member_list(self, tables):
        assert paths_against([1.0, 2.0], []) == []
        assert tables == []

    def test_chunked_batches_give_same_result(self, monkeypatch, tables):
        rng = np.random.default_rng(37)
        reference = rng.integers(-2, 3, 10).astype(float)
        members = [
            rng.integers(-2, 3, length).astype(float)
            for length in (8, 12, 8, 8, 12, 8, 8)
        ]
        expected = [dtw_path_reference(reference, m) for m in members]
        assert paths_against(reference, members) == expected
        assert sorted(w for _, _, w in tables) == [2, 5]  # one table per length

        tables.clear()
        # Room for two length-8 tables, and one length-12 table.
        monkeypatch.setattr(dtw, "_PATH_TABLE_BYTES", 2 * (10 + 8 - 1) * 11 * 8)
        assert paths_against(reference, members) == expected
        assert sorted(w for _, _, w in tables) == [1, 1, 1, 2, 2]

    def test_split_tables_are_as_even_as_can_be(self, monkeypatch, tables):
        rng = np.random.default_rng(38)
        reference = rng.standard_normal(6)
        members = [rng.standard_normal(5) for _ in range(5)]
        # Room for four pairs: five take two tables of 3 and 2, not 4 and 1.
        monkeypatch.setattr(dtw, "_PATH_TABLE_BYTES", 4 * (6 + 5 - 1) * 7 * 8)
        assert paths_against(reference, members) == [
            dtw_path_reference(reference, m) for m in members]
        assert [w for _, _, w in tables] == [3, 2]


class TestPairsOfMixedShapes:
    """`_paths` with one reference per pair, the kernel DBA aligns through."""

    @PROPERTY
    @given(pairs_of_mixed_shapes(), st.integers(1, 3000))
    def test_each_pair_equals_the_reference(self, pairs, table_bytes):
        # A budget of a few KB splits most batches into several tables, and
        # below one pair's table every pair gets a table of its own.
        xs = [np.asarray(x, dtype=np.float64) for x, _ in pairs]
        ys = [np.asarray(y, dtype=np.float64) for _, y in pairs]
        saved, dtw._PATH_TABLE_BYTES = dtw._PATH_TABLE_BYTES, table_bytes
        try:
            got = dtw._paths(xs, ys)
        finally:
            dtw._PATH_TABLE_BYTES = saved
        for (cost, rows, cols), (x, y) in zip(got, pairs, strict=True):
            expected_cost, expected_path = dtw_path_reference(x, y)
            assert cost == expected_cost
            assert [(i + 1, j + 1) for i, j in zip(rows, cols)] == expected_path

    def test_pairs_of_one_shape_share_a_table_across_references(self, tables):
        rng = np.random.default_rng(41)
        shapes = [(6, 4), (5, 4), (6, 4), (6, 7), (6, 4), (5, 4)]
        xs = [rng.standard_normal(n) for n, _ in shapes]
        ys = [rng.standard_normal(m) for _, m in shapes]
        got = dtw._paths(xs, ys)
        assert sorted(tables) == [(5, 4, 2), (6, 4, 3), (6, 7, 1)]
        assert [cost for cost, _, _ in got] == [
            dtw_path_reference(x, y)[0] for x, y in zip(xs, ys)]
