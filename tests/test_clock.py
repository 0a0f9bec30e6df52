"""Group identity and clock bookkeeping."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccsim import (
    CcState,
    GroupKey,
    ProtocolViolationError,
    ScenarioProgram,
    by_label,
    checksum_fold,
    reached_all_targets,
)
from ccsim.clock import fnv1a64


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

    def test_ordinal_label_roundtrip(self):
        # the second and later communicators over one member set carry "#ordinal"
        g = GroupKey((1, 0), 2)
        assert g.label() == "0,1#2"
        assert GroupKey.from_label("0,1#2") == g
        assert g != GroupKey((0, 1)) and GroupKey((0, 1), 0).label() == "0,1"

    @given(st.sets(st.integers(0, 63), min_size=1), st.integers(0, 3), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_equal_keys_hash_alike_and_share_a_counter_entry(self, members, ordinal, rnd):
        order = list(members)
        rnd.shuffle(order)
        a = GroupKey(tuple(sorted(members)), ordinal)
        b = GroupKey(tuple(order + order[:1]), ordinal)
        c = GroupKey.from_label(b.label())
        assert hash(a) == hash(b) == hash(c)
        clock = Counter()
        for key in (a, b, c):
            clock[key] += 1
        assert list(clock.items()) == [(a, 3)] and clock[c] == 3

    def test_group_keys_number_repeated_member_sets(self):
        sc = ScenarioProgram(world_size=2, comms={"b": (1, 0), "a": (0, 1), "s": (1,)})
        assert {cid: k.label() for cid, k in sc.group_keys().items()} == {
            "world": "0,1", "a": "0,1#1", "b": "0,1#2", "s": "1"}

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


class TestClockTables:
    def test_absent_is_zero(self):
        # read clock[g]: Counter.get answers None for an absent group
        clock = CcState().clock
        assert clock[GroupKey((9,))] == 0
        assert not clock  # a read inserts nothing, so explorer state keys stay canonical

    def test_by_label_in_member_order(self):
        # (2, 9) sorts before (2, 10), while "2,10" sorts before "2,9"
        table = Counter({GroupKey((10, 2)): 4, GroupKey((9, 2)): 1})
        assert list(by_label(table).items()) == [("2,9", 1), ("2,10", 4)]


class TestReachedAllTargets:
    def test_fig2a_rank3_not_reached(self):
        g345, g23 = GroupKey((3, 4, 5)), GroupKey((2, 3))
        clock = Counter({g345: 2, g23: 6})
        targets = Counter({g345: 2, g23: 7})
        assert not reached_all_targets(clock, targets, 3)

    def test_all_equal_reached(self):
        g = GroupKey((0, 1))
        assert reached_all_targets(Counter({g: 4}), Counter({g: 4}), 0)

    def test_foreign_group_ignored(self):
        mine, foreign = GroupKey((0, 1)), GroupKey((2, 3))
        clock = Counter({mine: 1})
        targets = Counter({mine: 1, foreign: 9})
        assert reached_all_targets(clock, targets, 0)

    def test_seq_above_target_is_violation(self):
        g = GroupKey((0, 1))
        clock = Counter({g: 3})
        targets = Counter({g: 2})
        with pytest.raises(ProtocolViolationError):
            reached_all_targets(clock, targets, 0)


def _fnv1a64_bytewise(parts):
    h = 0xCBF29CE484222325
    for value in parts:
        for byte in int(value).to_bytes(8, "little", signed=True):
            h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


@given(st.lists(st.one_of(st.integers(-300, 300), st.integers(-2**63, 2**63 - 1)), max_size=20))
@settings(max_examples=300, deadline=None)
def test_fnv1a64_matches_bytewise_definition(parts):
    assert fnv1a64(parts) == _fnv1a64_bytewise(parts)


def _low64_signed(value):
    """value's low 64 bits, ``value & (2**64 - 1)``, read as a signed 64-bit
    int, so that the bytewise reference's signed ``to_bytes(8)`` takes it."""
    low = value & ((1 << 64) - 1)
    return low - (1 << 64) if low >> 63 else low


FOLD_BOUNDARIES = [0, 255, 256, 2**56 - 1, 2**56, -1, -2**63, 2**63 - 1]


@pytest.mark.parametrize("value", FOLD_BOUNDARIES)
def test_fnv1a64_folds_the_low_64_bits_at_byte_boundaries(value):
    assert fnv1a64([value]) == _fnv1a64_bytewise([value])
    assert fnv1a64([7, value, 300]) == _fnv1a64_bytewise([7, value, 300])
    # only the low 64 bits count: outside int64 a value folds like its wrap
    assert fnv1a64([value + 2**64]) == fnv1a64([value - 2**64]) == fnv1a64([value])


@given(st.lists(st.one_of(st.integers(), st.integers(-2**70, 2**70),
                          st.integers(2**63, 2**200), st.booleans()), max_size=20))
@settings(max_examples=300, deadline=None)
def test_fnv1a64_of_any_int_is_the_bytewise_fold_of_its_low_64_bits(parts):
    assert fnv1a64(parts) == _fnv1a64_bytewise([_low64_signed(v) for v in parts])


ANY_INT = st.one_of(st.integers(-300, 300), st.integers(-2**70, 2**70), st.integers(2**63, 2**200))


@given(st.integers(0, 2**64 - 1), st.integers(0, 10_000), st.lists(ANY_INT, max_size=20))
@example(acc=2**64 - 1, op_index=0, values=[])
@example(acc=5, op_index=3, values=[-1, -2**63, 2**64 + 7, 2**200])
@settings(derandomize=True, max_examples=300, deadline=None)
def test_checksum_fold_is_the_fnv1a64_of_the_joined_delivery(acc, op_index, values):
    # the fold hashes the (op index, length) header, then the payload, from
    # that state; it equals one hash of the joined list, as the checksum
    # definition reads
    joined = (acc + fnv1a64([op_index, len(values), *values])) & ((1 << 64) - 1)
    assert checksum_fold(acc, op_index, values) == joined
    assert checksum_fold(acc, op_index, tuple(values)) == joined


@given(st.lists(ANY_INT, max_size=12), st.lists(ANY_INT, max_size=12))
@example(a=[], b=[])
@settings(derandomize=True, max_examples=150, deadline=None)
def test_fnv1a64_continues_from_a_given_state(a, b):
    assert fnv1a64(a + b) == fnv1a64(b, fnv1a64(a))
