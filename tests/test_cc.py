"""Collective-clock protocol behavior."""

import pytest

from ccsim import (
    GroupKey,
    ProtocolViolationError,
    TargetUpdateMsg,
    by_label,
    run,
)
from ccsim.runtime import COMPLETE, CONSUMED, FINISHED, PARKED, PENDING, START
from ccsim.scenario import Op

from conftest import build, drive, drive_held, op_coll, op_icoll, scenario


def world_key(n):
    return GroupKey(tuple(range(n)))


class TestZeroOverhead:
    def test_no_checkpoint_no_protocol_messages(self):
        sc = scenario(4, comms={"g": (0, 2)})
        for r in range(4):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        sc.programs[0].append(op_coll(0, comm="g"))
        sc.programs[2].append(op_coll(2, comm="g"))
        none_run = run(sc, algorithm="none", seed=5)
        cc_run = run(sc, algorithm="cc", seed=5)
        assert cc_run.sim.counters.protocol_messages == 0
        assert cc_run.sim.counters.target_updates_sent == 0
        assert cc_run.sim.counters.app_messages == none_run.sim.counters.app_messages

    def test_results_identical_to_unwrapped(self):
        sc = scenario(4)
        for r in range(4):
            sc.programs[r].append(op_coll(r, kind="allreduce", reduce_op="sum",
                                          data=[r + 1]))
            sc.programs[r].append(op_coll(r, kind="alltoall",
                                          data=[r, r + 1, r + 2, r + 3]))
        assert run(sc, "cc", seed=2).checksums == run(sc, "none", seed=2).checksums

    def test_nonblocking_no_checkpoint_identical_messages(self):
        sc = scenario(3)
        for r in range(3):
            sc.programs[r] += [op_icoll(r, "qa"), op_icoll(r, "qb"),
                               Op(rank=r, op="waitall", request_ids=["qa", "qb"])]
        none_run = run(sc, "none", seed=1)
        cc_run = run(sc, "cc", seed=1)
        assert cc_run.sim.counters.app_messages == none_run.sim.counters.app_messages
        assert cc_run.sim.counters.protocol_messages == 0


class TestCommitSequencing:
    def test_seq_increment_per_wrapped_call(self):
        # world is {0,1,2} so the subgroup key is distinct from world's
        sc = scenario(3, comms={"g": (0, 1)})
        for r in range(2):
            sc.programs[r] += [op_coll(r, comm="g"), op_coll(r, comm="g")]
        for r in range(3):
            sc.programs[r].append(op_coll(r))
        result = run(sc, "cc", seed=0)
        g = GroupKey((0, 1))
        states = result.sim.protocol.states
        assert states[0].clock[g] == 2
        assert states[1].clock[g] == 2
        assert states[2].clock[g] == 0
        # world: one comm_create (always counted) + one barrier
        assert all(states[r].clock[world_key(3)] == 2 for r in range(3))

    def test_same_member_set_counts_per_communicator(self):
        # a duplicate of world keeps its own counter, labelled by its ordinal
        sc = scenario(2, comms={"dup": (0, 1)})
        for r in range(2):
            sc.programs[r] += [op_coll(r, comm="dup"), op_coll(r)]
        result = run(sc, "cc", seed=0)
        dup = GroupKey((0, 1), 1)
        assert dup.label() == "0,1#1" and GroupKey.from_label("0,1#1") == dup
        # create + world-barrier on world's group, the dup-barrier on dup's
        assert by_label(result.sim.protocol.states[0].clock) == {
            world_key(2).label(): 2, dup.label(): 1}

    def test_nonblocking_increments_at_initiation(self):
        # rank 0 initiates three broadcasts back to back; its counter moves by
        # three before rank 1 initiates anything, so none are complete yet
        sc = scenario(3, comms={"g": (0, 1)})
        reqs = ["qa", "qb", "qc"]
        for rid in reqs:
            sc.programs[0].append(op_icoll(0, rid, comm="g", kind="bcast", root=0,
                                           data=[1]))
        sc.programs[0].append(Op(rank=0, op="waitall", request_ids=reqs))
        for rid in reqs:
            sc.programs[1].append(op_icoll(1, rid, comm="g", kind="bcast", root=0))
        sc.programs[1].append(Op(rank=1, op="waitall", request_ids=reqs))
        sim, _ = build(sc, "cc")
        g = GroupKey((0, 1))
        drive_held(sim, {1: 1, 2: 1})  # rank 1 stops after the comm_create
        assert sim.protocol.states[0].clock[g] == 3
        assert all(sim.ranks[0].requests[rid].state == PENDING for rid in reqs)
        drive(sim)
        assert all(r.state == CONSUMED for r in sim.ranks[0].requests.values())


class TestTargetUpdates:
    def test_catch_up_exact_sends_nothing(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        sim, coordinator = build(sc, "cc")
        # rank 0 enters its second barrier alone, then the request arrives:
        # rank 1's catch-up increments land exactly on the target
        drive_held(sim, {1: 1})
        assert sim.protocol.states[0].clock[world_key(2)] == 2
        coordinator.request_checkpoint(sim)
        assert coordinator.initial_targets == {"0,1": 2}
        drive(sim, coordinator)
        assert coordinator.declared
        assert sim.counters.target_updates_sent == 0
        assert sim.all_finished()

    def test_fig2_cascade_notifies_group_minus_one(self):
        result = run("fig2", algorithm="cc", seed=11, ckpt=("trigger", "fig2-instant"))
        sent = [ev for ev in result.sim.trace if ev["event"] == "update_sent"]
        by_group = {}
        for ev in sent:
            by_group.setdefault(ev["detail"]["group"], []).append(
                (ev["rank"], ev["detail"]["to"], ev["detail"]["value"]))
        assert by_group["3,4,5"] == [(3, 4, 3), (3, 5, 3)]
        assert by_group["5,6"] == [(5, 6, 4)]


class TestParking:
    def test_update_unparks_rank_and_round_completes(self):
        # the fig2 cascade in miniature: rank 2 lags the w2 target, so it
        # runs through a fresh h collective, raises h's target from nothing,
        # and the update un-parks rank 1
        sc = scenario(3, comms={"g": (0, 1), "h": (1, 2), "w2": (0, 2)})
        sc.programs[0] += [op_coll(0, comm="g"), op_coll(0, comm="w2"),
                           op_coll(0, comm="g")]
        sc.programs[1] += [op_coll(1, comm="g"), op_coll(1, comm="h"),
                           op_coll(1, comm="g")]
        sc.programs[2] += [op_coll(2, comm="h"), op_coll(2, comm="w2")]
        sim, coordinator = build(sc, "cc")
        # preamble is 3 creates; stop with rank 0 inside w2#1, rank 1 before
        # h#1, rank 2 before h#1
        drive_held(sim, {0: 5, 1: 4, 2: 3})
        g, h, w2 = GroupKey((0, 1)), GroupKey((1, 2)), GroupKey((0, 2))
        assert sim.protocol.states[0].clock[w2] == 1
        assert sim.protocol.states[2].clock[w2] == 0
        coordinator.request_checkpoint(sim)
        assert coordinator.initial_targets == {"0,1": 1, "0,1,2": 3, "0,2": 1}
        drive_held(sim, {2: 3})  # rank 1 parks; rank 0 stays inside w2#1
        assert sim.ranks[1].stage == PARKED
        drive(sim, coordinator)
        assert coordinator.declared
        assert coordinator.final_targets == {"0,1": 1, "0,1,2": 3, "0,2": 1, "1,2": 1}
        assert sim.counters.target_updates_sent == 1
        assert sim.counters.target_updates_applied == 1
        assert any(ev["event"] == "resume" for ev in sim.trace)
        assert sim.all_finished()
        assert sim.protocol.states[1].clock[g] == 2
        assert sim.protocol.states[1].clock[h] == 1

    def test_begin_park_precedes_fresh_group_increment(self):
        # a reached rank parks at commit_begin before bumping the counter, so
        # an untouched group stays untouched and the snapshot can sit with
        # whole collectives unexecuted
        sc = scenario(3, comms={"g": (0, 1), "h": (1, 2)})
        sc.programs[0] += [op_coll(0, comm="g"), op_coll(0, comm="g")]
        sc.programs[1] += [op_coll(1, comm="g"), op_coll(1, comm="h"),
                           op_coll(1, comm="g")]
        sc.programs[2] += [op_coll(2, comm="h")]
        sim, coordinator = build(sc, "cc")
        drive_held(sim, {0: 3, 1: 3, 2: 2})
        coordinator.request_checkpoint(sim)
        drive(sim, coordinator)
        assert coordinator.declared
        assert sim.counters.target_updates_sent == 0
        assert "1,2" not in coordinator.final_targets
        snap = {row["rank"]: row["pc"] for row in coordinator.snapshot.per_rank}
        assert snap == {0: 3, 1: 3, 2: 2}  # h never started
        drive(sim, coordinator)
        assert sim.all_finished()
        assert sim.protocol.states[2].clock[GroupKey((1, 2))] == 1

    def test_parked_until_release_when_no_update_comes(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_coll(r), op_coll(r), op_coll(r)]
        sim, coordinator = build(sc, "cc")
        drive_held(sim, {0: 2, 1: 2})  # both complete two barriers, one ahead
        coordinator.request_checkpoint(sim)
        drive(sim, coordinator)
        assert coordinator.declared
        parks = [ev for ev in sim.trace if ev["event"] == "park"]
        releases = [ev for ev in sim.trace if ev["event"] == "release"]
        assert parks and releases
        assert max(p["step"] for p in parks) <= releases[0]["step"]
        assert sim.all_finished()
        assert sim.protocol.states[0].clock[world_key(2)] == 3


class TestProbeInput:
    """``take_input``: what a queued update does to a parked or finished rank."""

    def _parked_rank_0(self):
        # both ranks at pc 2 of three world barriers when the round starts
        # (world target 2), then rank 0 parks at its next wrapper entry
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_coll(r), op_coll(r), op_coll(r)]
        sim, coordinator = build(sc, "cc")
        drive_held(sim, {0: 2, 1: 2})
        coordinator.request_checkpoint(sim)
        sim.step_actor(0)
        assert sim.ranks[0].stage == PARKED
        return sim

    def _deliver(self, sim, rank_id, value):
        sim.protocol.states[rank_id].update_queue.append(
            TargetUpdateMsg(world_key(2), value, 1 - rank_id))
        sim.wake((rank_id,))
        assert rank_id in sim.enabled_actors()
        sim.step_actor(rank_id)

    def test_stale_update_keeps_rank_parked(self):
        sim = self._parked_rank_0()
        self._deliver(sim, 0, 2)
        assert sim.ranks[0].stage == PARKED
        assert sim.counters.target_updates_stale == 1
        assert not any(ev["event"] == "resume" for ev in sim.trace)
        assert 0 not in sim.enabled_actors()

    def test_raising_update_unparks_rank(self):
        sim = self._parked_rank_0()
        self._deliver(sim, 0, 3)
        assert sim.ranks[0].stage == START
        assert sim.counters.target_updates_applied == 1
        assert [ev["rank"] for ev in sim.trace if ev["event"] == "resume"] == [0]

    def test_raising_update_to_finished_rank_is_violation(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r].append(op_coll(r))
        sim, coordinator = build(sc, "cc")
        drive(sim, coordinator)
        assert sim.ranks[0].stage == FINISHED
        with pytest.raises(ProtocolViolationError, match="members do not run equal counts"):
            self._deliver(sim, 0, 2)


def live_requests(rank):
    return {rid for rid, _ in rank.live_requests()}


class TestRequestBookkeeping:
    def test_consume_shrinks_incomplete_list(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "q0"), op_icoll(r, "q1"),
                               Op(rank=r, op="wait", request_id="q0")]
        sim, _ = build(sc, "cc")
        drive(sim)
        for rank in sim.ranks:
            assert live_requests(rank) == {"q1"}

    def test_test_false_keeps_list(self):
        sc = scenario(3, comms={"g": (0, 1)})
        sc.programs[0] += [op_icoll(0, "q0", comm="g"),
                           Op(rank=0, op="test", request_id="q0"),
                           Op(rank=0, op="wait", request_id="q0")]
        sc.programs[1] += [op_icoll(1, "q0", comm="g"),
                           Op(rank=1, op="wait", request_id="q0")]
        sim, _ = build(sc, "cc")
        drive_held(sim, {1: 1, 2: 1})  # rank 1 stops after its comm_create
        assert live_requests(sim.ranks[0]) == {"q0"}
        flags = [ev["detail"]["flag"] for ev in sim.trace if ev["event"] == "test"]
        assert flags == [False]
        drive(sim)
        assert not live_requests(sim.ranks[0])
        assert sim.ranks[0].requests["q0"].state == CONSUMED

    def test_waitany_removes_exactly_one(self):
        for seed in range(6):
            sc = scenario(2)
            reqs = ["qa", "qb", "qc"]
            for r in range(2):
                for rid in reqs:
                    sc.programs[r].append(op_icoll(r, rid))
                sc.programs[r].append(Op(rank=r, op="waitany", request_ids=reqs))
            result = run(sc, "cc", seed=seed, checks=False)
            for rank in result.sim.ranks:
                assert len(live_requests(rank)) == 2


class TestDrain:
    def test_empty_drain_is_noop(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r].append(op_coll(r))
        result = run(sc, "cc", seed=0, ckpt=("at_step", 0))
        assert result.coordinator.declared
        assert [ev for ev in result.sim.trace if ev["event"] == "drain_request"] == []

    def test_pending_ibarriers_drained_complete(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "qa"), op_icoll(r, "qb"),
                               op_coll(r),
                               Op(rank=r, op="waitall", request_ids=["qa", "qb"])]
        result = run(sc, "cc", seed=4, ckpt=("at_step", 6))
        assert result.coordinator.declared
        drained = [ev for ev in result.sim.trace if ev["event"] == "drain_request"]
        assert {(ev["rank"], ev["detail"]["request"]) for ev in drained} == {
            (0, "qa"), (0, "qb"), (1, "qa"), (1, "qb")}
        for row in result.snapshot.per_rank:
            recs = row["protocol"]["incomplete_requests"]
            assert recs and all(rec["state"] == COMPLETE for rec in recs.values())

    def test_never_initiated_plus_checkpoint_is_reported_not_hung(self):
        sc = scenario(2, comms={"g": (0, 1)})
        sc.programs[0].append(op_icoll(0, "q0", comm="g"))
        with pytest.raises(ProtocolViolationError):
            run(sc, "cc", seed=0, ckpt=("at_step", 50))


class TestCommCreateDuringDrain:
    def test_new_communicator_target_raised_and_shared(self):
        # the round starts before the communicator exists; rank 1's progress
        # through the creation raises the world target, which pulls ranks 0
        # and 2 through the create and their first collective on it
        sc = scenario(3, preamble=False, comms={"x": (0, 2)})
        for r in range(3):
            sc.programs[r].append(op_coll(r))
            sc.programs[r].append(Op(rank=r, op="comm_create", new_comm="x"))
        sc.programs[0].append(op_coll(0, comm="x"))
        sc.programs[2].append(op_coll(2, comm="x"))
        for r in range(3):
            sc.programs[r].append(op_coll(r))
        sim, coordinator = build(sc, "cc")
        # the creation completes, then rank 1 runs ahead into the final world
        # collective while ranks 0 and 2 are held before their x collective
        drive_held(sim, {0: 2, 2: 2})
        assert sim.protocol.states[1].clock[world_key(3)] == 3
        assert by_label(sim.protocol.states[0].clock) == {"0,1,2": 2}
        coordinator.request_checkpoint(sim)
        assert coordinator.initial_targets == {"0,1,2": 3}
        drive(sim, coordinator)
        assert coordinator.declared
        assert coordinator.final_targets == {"0,1,2": 3, "0,2": 1}
        # both members push the fresh group's target independently; each
        # receives the other's now-stale notice
        assert sim.counters.target_updates_sent == 2
        assert sim.counters.target_updates_stale == 2
        updates = {(ev["detail"]["group"], ev["detail"]["value"])
                   for ev in sim.trace if ev["event"] == "update_sent"}
        assert updates == {("0,2", 1)}
        assert sim.all_finished()


class TestStaleUpdates:
    def test_two_members_raising_same_target_is_benign(self):
        # both members of g lag on their private groups when the round starts,
        # so both overtake g's absent target independently and each receives
        # the other's (now stale) update
        sc = scenario(4, comms={"g": (0, 1), "h": (0, 2), "k": (1, 3)})
        sc.programs[0] += [op_coll(0, comm="h"), op_coll(0, comm="g"),
                           op_coll(0, comm="h")]
        sc.programs[1] += [op_coll(1, comm="k"), op_coll(1, comm="g"),
                           op_coll(1, comm="k")]
        sc.programs[2] += [op_coll(2, comm="h"), op_coll(2, comm="h")]
        sc.programs[3] += [op_coll(3, comm="k"), op_coll(3, comm="k")]
        sim, coordinator = build(sc, "cc")
        # hold ranks 0 and 1 just before their shared g collective (pc 4:
        # three creates then the first private-group op), while ranks 2 and 3
        # rush into their second private collectives
        drive_held(sim, {0: 4, 1: 4})
        h, k = GroupKey((0, 2)), GroupKey((1, 3))
        assert sim.protocol.states[2].clock[h] == 2
        assert sim.protocol.states[3].clock[k] == 2
        coordinator.request_checkpoint(sim)
        assert "0,1" not in coordinator.initial_targets
        drive(sim, coordinator)
        assert coordinator.declared
        assert sim.counters.target_updates_sent == 2
        assert sim.counters.target_updates_stale == 2
        assert sim.counters.target_updates_applied == 0
        assert coordinator.final_targets["0,1"] == 1
        assert sim.all_finished()
