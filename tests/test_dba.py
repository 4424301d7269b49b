import numpy as np
import pytest
from hypothesis import given, settings

from helpers import dba_iteration_reference, reference_and_members
from tstransfer import DbaConfig, dba_average, dba_iteration, dtw_distance, medoid


def within_set_cost(prototype, members):
    return sum(dtw_distance(prototype, m) for m in members)


class TestDbaConfig:
    def test_default_iterations(self):
        assert DbaConfig().iterations == 10

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            DbaConfig(iterations=0)


class TestDbaIteration:
    def test_self_alignment_leaves_prototype_unchanged(self):
        p = np.array([0.4, -1.2, 0.9, 0.9])
        assert np.array_equal(dba_iteration(p, [p]), p)

    def test_single_point_mean(self):
        out = dba_iteration(np.array([0.0]), [np.array([0.0]), np.array([2.0])])
        assert np.array_equal(out, np.array([1.0]))

    def test_identical_copies_exact(self):
        s = np.array([0.1, 0.7, -0.3])
        out = dba_iteration(s, [s, s.copy(), s.copy()])
        assert np.array_equal(out, s)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            dba_iteration(np.array([1.0]), [])

    @settings(max_examples=150, deadline=None)
    @given(reference_and_members())
    def test_bit_equal_to_sequential_reference(self, case):
        prototype, members = case
        out = dba_iteration(prototype, members)
        assert out.tobytes() == dba_iteration_reference(prototype, members).tobytes()

    def test_length_preserved(self):
        rng = np.random.default_rng(2)
        proto = rng.standard_normal(9)
        members = [rng.standard_normal(rng.integers(3, 14)) for _ in range(5)]
        assert len(dba_iteration(proto, members)) == 9


class TestDbaAverage:
    def test_singleton_returns_series_exactly(self):
        s = np.array([0.25, -0.75, 2.0])
        assert np.array_equal(dba_average([s]), s)

    def test_identical_members_fixed_point(self):
        s = np.array([0.1, 0.2, 0.4])
        out = dba_average([s, s.copy(), s.copy(), s.copy()], DbaConfig(iterations=7))
        assert np.array_equal(out, s)

    def test_beats_medoid_on_three_member_example(self):
        members = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([10.0, 10.0])]
        proto = dba_average(members, DbaConfig(iterations=10))
        assert len(proto) == 2
        assert within_set_cost(proto, members) <= 164.0

    def test_monotone_cost_and_final_not_worse_than_medoid(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            members = [
                rng.standard_normal(rng.integers(1, 17))
                for _ in range(rng.integers(1, 9))
            ]
            proto = np.array(members[medoid(members)])
            prev = within_set_cost(proto, members)
            medoid_cost = prev
            for _ in range(10):
                proto = dba_iteration(proto, members)
                cost = within_set_cost(proto, members)
                assert cost <= prev + 1e-9
                prev = cost
            assert prev <= medoid_cost + 1e-9

    def test_average_equals_manual_iteration(self):
        rng = np.random.default_rng(29)
        members = [rng.standard_normal(8) for _ in range(5)]
        proto = np.array(members[medoid(members)])
        for _ in range(4):
            proto = dba_iteration(proto, members)
        assert np.array_equal(dba_average(members, DbaConfig(iterations=4)), proto)

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        members = [rng.standard_normal(rng.integers(2, 12)) for _ in range(6)]
        a = dba_average(members, DbaConfig(iterations=5))
        b = dba_average(members, DbaConfig(iterations=5))
        assert np.array_equal(a, b)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dba_average([])
