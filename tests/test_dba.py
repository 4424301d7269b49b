import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tstransfer.dba as dba
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

    def test_rejects_multi_dimensional_member(self):
        with pytest.raises(ValueError, match=r"members\[0\].*\(2, 3\)"):
            dba_iteration(np.zeros(6), [np.arange(6.0).reshape(2, 3)])

    def test_scalar_member_is_a_one_sample_series(self):
        assert np.array_equal(dba_iteration(np.zeros(1), [3.0, 5.0]), [4.0])

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

    @settings(max_examples=100, deadline=None)
    @given(reference_and_members(max_len=24), st.integers(1, 12))
    def test_equals_explicit_steps_from_medoid(self, case, k):
        # Integer members tie often and reach a fixed point within a few
        # steps; float members mostly run all k.
        reference, members = case
        members = [reference] + members
        proto = np.array(members[medoid(members)], dtype=np.float64)
        for _ in range(k):
            proto = dba_iteration(proto, members)
        assert dba_average(members, DbaConfig(k)).tobytes() == proto.tobytes()

    def test_near_fixed_point_keeps_stepping(self):
        # The first step moves the last coordinate by 2.5e-8 only, and the
        # second step then changes the warping paths.
        members = [np.array([0.0, 1.0, 2.0000001]), np.array([1.0, 0.0, 1.0]),
                   np.array([0.0, 3.0, 0.0])]
        one = dba_iteration(members[1], members)
        assert np.allclose(one, members[1], rtol=1e-7) and not np.array_equal(one, members[1])
        two = dba_iteration(one, members)
        assert np.array_equal(dba_average(members, DbaConfig(1)), one)
        assert dba_average(members, DbaConfig(2)).tobytes() == two.tobytes()

    def test_identical_members_run_one_step(self, monkeypatch):
        calls = []
        step = dba.dba_iteration

        def counting(prototype, members):
            calls.append(1)
            return step(prototype, members)

        monkeypatch.setattr(dba, "dba_iteration", counting)
        s = np.array([0.3, -1.1, 0.8, 0.8])
        out = dba_average([s, s.copy(), s.copy()], DbaConfig(iterations=10))
        assert np.array_equal(out, s)
        assert len(calls) == 1

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        members = [rng.standard_normal(rng.integers(2, 12)) for _ in range(6)]
        a = dba_average(members, DbaConfig(iterations=5))
        b = dba_average(members, DbaConfig(iterations=5))
        assert np.array_equal(a, b)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dba_average([])
