"""Exhaustive small-instance exploration."""

import math

import pytest

from ccsim import (
    CheckpointCoordinator,
    InvalidConfigurationError,
    SimulationError,
    Simulator,
    explore_small,
    make_protocol,
)
from ccsim.explore import CKPT_ACTION
from ccsim.scenario import Op

from conftest import op_coll, op_icoll, scenario


def tiny_two_group():
    sc = scenario(3, comms={"a": (0, 1), "b": (1, 2)})
    sc.programs[0] += [op_coll(0, comm="a"), op_coll(0, comm="a")]
    sc.programs[1] += [op_coll(1, comm="a"), op_coll(1, comm="b"), op_coll(1, comm="a")]
    sc.programs[2] += [op_coll(2, comm="b")]
    return sc


class TestBounds:
    def test_rank_bound_enforced(self):
        sc = scenario(5)
        with pytest.raises(InvalidConfigurationError):
            explore_small(sc)

    def test_event_bound_enforced(self):
        sc = scenario(2)
        sc.programs[0] += [op_coll(0)] * 13
        sc.programs[1] += [op_coll(1)] * 13
        with pytest.raises(InvalidConfigurationError):
            explore_small(sc)


class TestExhaustiveCc:
    def test_every_branch_declares_and_stays_acyclic(self):
        result = explore_small(tiny_two_group(), algorithm="cc")
        assert result.passed, result.failures[:2]
        assert result.paths > 0
        assert result.rounds_declared == result.paths

    def test_nonblocking_branches_covered(self):
        sc = scenario(2, comms={"g": (0, 1)})
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "q0", comm="g"), op_coll(r),
                               Op(rank=r, op="wait", request_id="q0")]
        result = explore_small(sc, algorithm="cc")
        assert result.passed, result.failures[:2]
        assert result.rounds_declared == result.paths

    def test_p2p_branches_covered(self):
        sc = scenario(3)
        sc.programs[0] += [op_coll(0), Op(rank=0, op="send", peer=1, data=[4]),
                           op_coll(0)]
        sc.programs[1] += [op_coll(1), Op(rank=1, op="recv", peer=0), op_coll(1)]
        sc.programs[2] += [op_coll(2), op_coll(2)]
        result = explore_small(sc, algorithm="cc")
        assert result.passed, result.failures[:2]

    def test_cascade_bound_holds_everywhere(self):
        result = explore_small(tiny_two_group(), algorithm="cc")
        assert result.passed
        assert result.update_bound_worst <= 1.0


class TestExhaustiveTpc:
    def test_every_branch_declares(self):
        result = explore_small(tiny_two_group(), algorithm="2pc")
        assert result.passed, result.failures[:2]
        assert result.rounds_declared == result.paths


class TestNoCheckpoint:
    def test_protocol_without_checkpoints_explores_interleavings_only(self):
        result = explore_small(tiny_two_group(), algorithm="none")
        assert result.passed, result.failures[:2]
        assert result.paths > 0
        assert result.rounds_declared == 0


def unequal_group_counts():
    # rank 0 runs one more collective on the shared group than rank 1
    sc = scenario(2, comms={"g": (0, 1)})
    sc.programs[0] += [op_coll(0, comm="g"), op_coll(0, comm="g")]
    sc.programs[1] += [op_coll(1, comm="g")]
    return sc


class TestFindsRealViolations:
    def test_unequal_group_counts_reported(self):
        # some interleavings deadlock, others trip the finished-below-target
        # check, and exploration must surface them rather than hang
        result = explore_small(unequal_group_counts(), algorithm="cc")
        assert not result.passed
        assert result.failures

    def test_failures_replay_from_their_path(self):
        sc = unequal_group_counts()
        result = explore_small(sc, algorithm="cc")
        assert result.failures
        for failure in result.failures:
            sim = Simulator(sc, make_protocol("cc"))
            sim.coordinator = CheckpointCoordinator(placement=("at_step", math.inf))
            with pytest.raises(SimulationError) as raised:
                for action in failure["path"]:
                    sim.runnable()
                    if action == CKPT_ACTION:
                        sim.coordinator.request_checkpoint(sim)
                    else:
                        sim.step_actor(action)
                sim.runnable()
            assert str(raised.value) == failure["error"]
