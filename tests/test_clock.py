"""Group identity and clock bookkeeping."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsim import (
    CollectiveClock,
    GroupKey,
    ProtocolViolationError,
    TargetTable,
    compute_ggid,
    reached_all_targets,
)


class TestGroupKey:
    def test_same_member_set_same_key(self):
        assert GroupKey((3, 4, 5)) == GroupKey((3, 4, 5))

    def test_order_independent(self):
        assert GroupKey((2, 3)) == GroupKey((3, 2))
        assert hash(GroupKey((2, 3))) == hash(GroupKey((3, 2)))

    def test_distinct_sets_unequal(self):
        assert GroupKey((1, 2)) != GroupKey((2, 3))

    def test_label_roundtrip(self):
        g = GroupKey((6, 1, 3))
        assert g.label() == "1,3,6"
        assert GroupKey.from_label(g.label()) == g

    def test_compute_ggid_uses_members_only(self):
        class FakeComm:
            members = (5, 3, 4)

        assert compute_ggid(FakeComm()) == GroupKey((3, 4, 5))

    @given(st.lists(st.sets(st.integers(0, 63), min_size=1), min_size=2, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equality_matches_set_equality_never_hash(self, member_sets):
        keys = [GroupKey(tuple(s)) for s in member_sets]
        for a, sa in zip(keys, member_sets):
            for b, sb in zip(keys, member_sets):
                assert (a == b) == (sa == sb)

    @given(st.sets(st.integers(0, 63), min_size=1), st.sets(st.integers(0, 63), min_size=1))
    @settings(max_examples=500, deadline=None)
    def test_display_hash_cannot_alias(self, sa, sb):
        a, b = GroupKey(tuple(sa)), GroupKey(tuple(sb))
        if sa != sb:
            assert a != b
        else:
            assert a == b


class TestCollectiveClock:
    def test_fresh_increment_is_one(self):
        clock = CollectiveClock()
        assert clock.increment(GroupKey((0, 1))) == 1

    def test_increment_from_two_is_three(self):
        g = GroupKey((3, 4, 5))
        clock = CollectiveClock({g: 2})
        assert clock.increment(g) == 3
        assert clock.get(g) == 3

    def test_key_isolation(self):
        g, other = GroupKey((0, 1)), GroupKey((1, 2))
        clock = CollectiveClock({other: 7})
        clock.increment(g)
        assert clock.get(other) == 7

    def test_absent_is_zero(self):
        assert CollectiveClock().get(GroupKey((9,))) == 0

    def test_json_roundtrip(self):
        clock = CollectiveClock({GroupKey((2, 1)): 4, GroupKey((0,)): 1})
        blob = json.dumps(clock.to_json())
        assert CollectiveClock.from_json(json.loads(blob)) == clock

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_counters_never_decrease_and_step_by_one(self, pairs):
        clock = CollectiveClock()
        for a, b in pairs:
            g = GroupKey((a, b))
            before = clock.get(g)
            assert clock.increment(g) == before + 1


class TestTargetTable:
    def test_monotone_raise(self):
        g = GroupKey((0, 1))
        table = TargetTable()
        assert table.raise_to(g, 3) is True
        assert table.raise_to(g, 2) is False
        assert table.get(g) == 3

    def test_install_and_clear(self):
        g = GroupKey((0, 1))
        table = TargetTable()
        table.install({g: 5})
        assert table.get(g) == 5
        table.clear()
        assert table.get(g) == 0

    def test_json_roundtrip(self):
        table = TargetTable({GroupKey((1, 2)): 5, GroupKey((2, 3)): 7})
        assert TargetTable.from_json(table.to_json()).to_json() == table.to_json()


class TestReachedAllTargets:
    def test_fig2a_rank3_not_reached(self):
        g345, g23 = GroupKey((3, 4, 5)), GroupKey((2, 3))
        clock = CollectiveClock({g345: 2, g23: 6})
        targets = TargetTable({g345: 2, g23: 7})
        assert not reached_all_targets(clock, targets, 3)

    def test_all_equal_reached(self):
        g = GroupKey((0, 1))
        assert reached_all_targets(CollectiveClock({g: 4}), TargetTable({g: 4}), 0)

    def test_foreign_group_ignored(self):
        mine, foreign = GroupKey((0, 1)), GroupKey((2, 3))
        clock = CollectiveClock({mine: 1})
        targets = TargetTable({mine: 1, foreign: 9})
        assert reached_all_targets(clock, targets, 0)

    def test_seq_above_target_is_violation(self):
        g = GroupKey((0, 1))
        clock = CollectiveClock({g: 3})
        targets = TargetTable({g: 2})
        with pytest.raises(ProtocolViolationError):
            reached_all_targets(clock, targets, 0)
