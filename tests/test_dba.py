import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tstransfer.dba as dba
from helpers import dba_iteration_reference, reference_and_members
from tstransfer import (
    as_series,
    dba_average,
    dba_averages,
    dba_iteration,
    dtw_distance,
    medoid,
)


def within_set_cost(prototype, members):
    return sum(dtw_distance(prototype, m) for m in members)


def refine(groups, k):
    """The prototypes after `k` steps from each group's medoid, via `dba._refine`."""
    return dba._refine([[as_series(m) for m in members] for members in groups], k)


def reference_steps(members, k):
    """`k` steps of `dba_iteration_reference` from the members' medoid."""
    proto = np.array(members[medoid(members)], dtype=np.float64)
    for _ in range(k):
        proto = dba_iteration_reference(proto, members)
    return proto


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
        out = dba_average([s, s.copy(), s.copy(), s.copy()])
        assert np.array_equal(out, s)

    def test_beats_medoid_on_three_member_example(self):
        members = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([10.0, 10.0])]
        proto = dba_average(members)
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
        assert np.array_equal(refine([members], 4)[0], proto)

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
        assert refine([members], k)[0].tobytes() == proto.tobytes()

    def test_near_fixed_point_keeps_stepping(self):
        # The first step moves the last coordinate by 2.5e-8 only, and the
        # second step then changes the warping paths.
        members = [np.array([0.0, 1.0, 2.0000001]), np.array([1.0, 0.0, 1.0]),
                   np.array([0.0, 3.0, 0.0])]
        one = dba_iteration(members[1], members)
        assert np.allclose(one, members[1], rtol=1e-7) and not np.array_equal(one, members[1])
        two = dba_iteration(one, members)
        assert np.array_equal(refine([members], 1)[0], one)
        assert refine([members], 2)[0].tobytes() == two.tobytes()

    def test_identical_members_run_one_step(self, monkeypatch):
        calls = []
        step = dba._step

        def counting(groups):
            calls.append(len(groups))
            return step(groups)

        monkeypatch.setattr(dba, "_step", counting)
        s = np.array([0.3, -1.1, 0.8, 0.8])
        out = dba_average([s, s.copy(), s.copy()])
        assert np.array_equal(out, s)
        assert len(calls) == 1

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        members = [rng.standard_normal(rng.integers(2, 12)) for _ in range(6)]
        a = dba_average(members)
        b = dba_average(members)
        assert np.array_equal(a, b)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="dba_average: empty member set"):
            dba_average([])

    def test_rejects_a_bad_member_naming_it(self):
        with pytest.raises(ValueError, match=r"dba: members\[1\] contains non-finite"):
            dba_average([np.zeros(2), np.array([np.nan])])


class TestSchedule:
    def test_is_the_methods_ten_steps(self):
        assert dba.DBA_ITERATIONS == 10

    @settings(max_examples=60, deadline=None)
    @given(st.lists(reference_and_members(max_len=16), min_size=1, max_size=3))
    def test_public_entry_points_run_dba_iterations_reference_steps(self, cases):
        # Integer groups often reach their fixed points early; float groups
        # mostly run every step.
        groups = [[reference] + members for reference, members in cases]
        expected = [reference_steps(members, dba.DBA_ITERATIONS).tobytes()
                    for members in groups]
        assert [dba_average(members).tobytes() for members in groups] == expected
        assert [proto.tobytes() for proto in dba_averages(groups)] == expected


class TestDbaAverages:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(reference_and_members(max_len=16), min_size=1, max_size=4),
           st.integers(1, 8))
    def test_equals_reference_steps_from_each_medoid(self, cases, k):
        # Each group draws its own sample kind: integer groups often reach
        # their fixed points within a few steps, float groups rarely do.
        groups = [[reference] + members for reference, members in cases]
        out = refine(groups, k)
        assert len(out) == len(groups)
        for members, got in zip(groups, out):
            assert got.tobytes() == reference_steps(members, k).tobytes()

    def test_groups_leave_the_batch_at_their_own_fixed_points(self, monkeypatch):
        rng = np.random.default_rng(43)
        s = np.array([0.3, -1.1, 0.8])
        groups = [[rng.standard_normal(9) for _ in range(4)],
                  [s, s.copy()],
                  [rng.standard_normal(rng.integers(5, 12)) for _ in range(3)]]
        widths = []
        step = dba._step

        def counting(batch):
            widths.append([len(members) for _, members in batch])
            return step(batch)

        monkeypatch.setattr(dba, "_step", counting)
        out = refine(groups, 4)
        # The identical pair stops after its first step and the three short
        # series after their third; the four long ones run all 4.
        assert widths == [[4, 2, 3], [4, 3], [4, 3], [4]]
        monkeypatch.undo()
        for members, got in zip(groups, out):
            assert got.tobytes() == refine([members], 4)[0].tobytes()
            assert not got.flags.writeable

    def test_no_groups(self):
        assert dba_averages([]) == []

    def test_rejects_an_empty_group(self):
        with pytest.raises(ValueError, match="group 1 has no members"):
            dba_averages([[np.zeros(2)], []])

    def test_rejects_a_bad_member_naming_its_group(self):
        with pytest.raises(ValueError, match=r"groups\[1\]\[0\] contains non-finite"):
            dba_averages([[np.zeros(2)], [np.array([np.nan])]])
