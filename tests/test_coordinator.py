"""Checkpoint rounds, targets, snapshots, restart."""

import pytest

from ccsim import (
    CollectiveClock,
    GroupKey,
    KeyValueStore,
    MissingReportError,
    ProtocolViolationError,
    SnapshotImage,
    SnapshotLoadError,
    compute_targets,
    restart,
    run,
    run_restart,
)
from ccsim.runtime import FINISHED, PARKED, STOPPED
from ccsim.scenario import Op

from conftest import build, drive_held, op_coll, op_icoll, scenario


class TestKeyValueStore:
    def test_one_report_per_rank(self):
        store = KeyValueStore()
        store.add_report(0, CollectiveClock({GroupKey((0, 1)): 3}))
        with pytest.raises(ProtocolViolationError):
            store.add_report(0, CollectiveClock())

    def test_compute_targets_takes_maxima(self):
        g = GroupKey((0, 1, 2))
        store = KeyValueStore()
        store.add_report(0, CollectiveClock({g: 3}))
        store.add_report(1, CollectiveClock({g: 5}))
        store.add_report(2, CollectiveClock({g: 4}))
        assert compute_targets(store, 3) == {g: 5}

    def test_nonparticipant_contributes_zero(self):
        g = GroupKey((0, 1))
        store = KeyValueStore()
        store.add_report(0, CollectiveClock({g: 2}))
        store.add_report(1, CollectiveClock())
        store.add_report(2, CollectiveClock())
        assert compute_targets(store, 3) == {g: 2}

    def test_missing_report_stalls_with_diagnostic(self):
        store = KeyValueStore()
        store.add_report(0, CollectiveClock())
        with pytest.raises(MissingReportError, match=r"\[1, 2\]"):
            compute_targets(store, 3)

    def test_fig2a_targets(self):
        store = KeyValueStore()
        g12, g23, g345, g56 = (GroupKey((1, 2)), GroupKey((2, 3)),
                               GroupKey((3, 4, 5)), GroupKey((5, 6)))
        store.add_report(0, CollectiveClock())
        store.add_report(1, CollectiveClock({g12: 5}))
        store.add_report(2, CollectiveClock({g12: 5, g23: 7}))
        store.add_report(3, CollectiveClock({g23: 6, g345: 2}))
        store.add_report(4, CollectiveClock({g345: 2}))
        store.add_report(5, CollectiveClock({g345: 2, g56: 3}))
        store.add_report(6, CollectiveClock({g56: 3}))
        assert compute_targets(store, 7) == {g12: 5, g23: 7, g345: 2, g56: 3}


def _cc_round(steps, programs=((op_coll(0),), (op_coll(1),))):
    """A two-rank cc runtime driven through ``steps``: a rank id steps that
    rank, "ckpt" requests the round. A rank that first steps inside a round
    requested at step 0 parks at once on its empty target table."""
    sc = scenario(2)
    for r, program in enumerate(programs):
        sc.programs[r] += program
    sim, coordinator = build(sc, "cc")
    for actor in steps:
        if actor == "ckpt":
            coordinator.request_checkpoint(sim)
        else:
            sim.step_actor(actor)
    return sim


class TestQuiescence:
    """``protocol.quiescent``: the one safe-state gate of a round."""

    def test_quiescent_when_reached_and_balanced(self):
        sim = _cc_round(["ckpt", 0, 1])
        states = sim.protocol.states
        states[0].update_sent_count, states[0].update_recv_count = 2, 1
        states[1].update_sent_count, states[1].update_recv_count = 0, 1
        assert [r.stage for r in sim.ranks] == [PARKED, PARKED]
        assert sim.protocol.quiescent(sim)

    def test_running_rank_blocks(self):
        sim = _cc_round(["ckpt", 0])
        assert not sim.protocol.quiescent(sim)

    def test_unbalanced_counters_block(self):
        sim = _cc_round(["ckpt", 0, 1])
        states = sim.protocol.states
        states[0].update_sent_count, states[0].update_recv_count = 3, 0
        states[1].update_sent_count, states[1].update_recv_count = 0, 2
        assert not sim.protocol.quiescent(sim)

    def test_more_received_than_sent_is_violation(self):
        sim = _cc_round(["ckpt", 0, 1])
        sim.protocol.states[0].update_recv_count = 1
        with pytest.raises(ProtocolViolationError):
            sim.protocol.quiescent(sim)

    def test_finished_below_target_is_violation(self):
        # rank 1 runs one more world collective than rank 0, which finished
        # at clock 1 while the round's world target is 2
        sim = _cc_round([0, 1, 0, 1, 1, "ckpt"],
                        programs=((op_coll(0),), (op_coll(1), op_coll(1))))
        assert sim.ranks[0].stage == FINISHED
        with pytest.raises(ProtocolViolationError, match="below a target"):
            sim.protocol.quiescent(sim)

    def test_2pc_stopped_or_finished_ranks_are_quiescent(self):
        sc = scenario(3, comms={"g": (1, 2)})
        for r in (1, 2):
            sc.programs[r].append(op_coll(r, comm="g"))
        sim, coordinator = build(sc, "2pc")
        drive_held(sim, {1: 1, 2: 1})
        coordinator.request_checkpoint(sim)
        assert not sim.protocol.quiescent(sim)
        sim.step_actor(1)
        sim.step_actor(2)
        assert [r.stage for r in sim.ranks] == [FINISHED, STOPPED, STOPPED]
        assert sim.protocol.quiescent(sim)


class TestRounds:
    def test_request_at_step_zero_reports_all_zero(self):
        sc = scenario(3)
        for r in range(3):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        result = run(sc, "cc", seed=2, ckpt=("at_step", 0))
        assert result.coordinator.declared
        assert result.coordinator.initial_targets == {}
        assert all(seq == 0 for (_, _), seq in result.coordinator.store.reports.items())
        assert result.sim.all_finished()

    def test_request_after_program_end_is_immediately_safe(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r].append(op_coll(r))
        result = run(sc, "cc", seed=0, ckpt=("at_step", 10_000))
        assert result.coordinator.declared
        assert result.coordinator.declared_step == result.coordinator.requested_step

    def test_overlapping_rounds_rejected(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r].append(op_coll(r))
        sim, coordinator = build(sc, "cc")
        coordinator.request_checkpoint(sim)
        with pytest.raises(ProtocolViolationError):
            coordinator.request_checkpoint(sim)

    def test_checkpoint_under_none_protocol_rejected(self):
        from ccsim import CheckpointCoordinator, Simulator, UnsupportedOperationError

        sc = scenario(2)
        for r in range(2):
            sc.programs[r].append(op_coll(r))
        sim = Simulator(sc)
        with pytest.raises(UnsupportedOperationError):
            CheckpointCoordinator(("at_step", 0)).request_checkpoint(sim)

    def test_fig2_round(self):
        result = run("fig2", algorithm="cc", seed=11, ckpt=("trigger", "fig2-instant"))
        c = result.coordinator
        assert {k: v for k, v in c.initial_targets.items() if "," in k and len(k) < 8} == {
            "1,2": 5, "2,3": 7, "3,4,5": 2, "5,6": 3}
        assert c.final_targets["3,4,5"] == 3
        assert c.final_targets["5,6"] == 4

    def test_bcast_in_flight_defers_the_snapshot(self):
        # the request lands after the root entered the broadcast but before
        # rank 2 did; the snapshot must wait until every receiver completed it
        from ccsim.scenario import BCAST_INV2_SEED

        result = run("bcast-invariant2", algorithm="cc", seed=BCAST_INV2_SEED,
                     ckpt=("trigger", "bcast-started"))
        c = result.coordinator
        assert c.declared
        trace = result.sim.trace
        marker = next(i for i, ev in enumerate(trace) if ev["event"] == "safe_state")
        request = next(i for i, ev in enumerate(trace) if ev["event"] == "ckpt_request")
        bcast_returns = [i for i, ev in enumerate(trace)
                         if ev["event"] == "coll_return"
                         and ev["detail"] == {"comm": "world", "instance": 0}]
        assert len(bcast_returns) == 3
        assert any(i > request for i in bcast_returns)  # it really was in flight
        assert all(i < marker for i in bcast_returns)   # deferred until complete
        for verdict in result.verdicts:
            assert verdict.passed, (verdict.check, verdict.detail)

    def test_halt_at_snapshot_stops_run(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        result = run(sc, "cc", seed=1, ckpt=("at_step", 2), halt_at_snapshot=True)
        assert result.sim.halted
        assert result.snapshot is not None
        assert not result.sim.all_finished() or True  # halted runs may stop mid-program


class TestSnapshotImage:
    def _snapshot(self):
        sc = scenario(3, comms={"g": (0, 2)})
        for r in range(3):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        sc.programs[0].append(op_coll(0, comm="g"))
        sc.programs[2].append(op_coll(2, comm="g"))
        return run(sc, "cc", seed=5, ckpt=("at_step", 12))

    def test_serialization_roundtrip(self):
        image = self._snapshot().snapshot
        blob = image.dumps()
        again = SnapshotImage.loads(blob)
        assert again.dumps() == blob

    def test_corrupt_image_rejected(self):
        with pytest.raises(SnapshotLoadError):
            SnapshotImage.loads("not json at all {")
        with pytest.raises(SnapshotLoadError):
            SnapshotImage.loads('{"version": 99}')
        with pytest.raises(SnapshotLoadError):
            SnapshotImage.loads('{"version": 1, "algorithm": "cc"}')

    @pytest.mark.parametrize("corrupt", [
        lambda rows: rows[0].update(rank=99),
        lambda rows: rows[0].update(pc=-5),
        lambda rows: rows.__delitem__(slice(3, None)),
    ], ids=["rank-99", "pc-negative", "3-of-7-ranks"])
    def test_restart_rejects_malformed_per_rank(self, corrupt):
        image = run("fig2", algorithm="cc", seed=11, ckpt=("trigger", "fig2-instant")).snapshot
        corrupt(image.per_rank)
        with pytest.raises(SnapshotLoadError):
            restart(image)

    def test_restart_rebuilds_identical_group_keys(self):
        result = self._snapshot()
        sim = restart(result.snapshot)
        for cid, record in result.sim.comm_records.items():
            if cid == "__internal__":
                continue
            assert sim.comm_records[cid].key == record.key

    def test_restart_resumes_and_matches(self):
        sc = scenario(3, comms={"g": (0, 2)})
        for r in range(3):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        sc.programs[0].append(op_coll(0, comm="g"))
        sc.programs[2].append(op_coll(2, comm="g"))
        base = run(sc, "none", seed=5)
        ck = run(sc, "cc", seed=5, ckpt=("at_step", 12))
        restarted = run_restart(ck.snapshot)
        assert restarted.checksums == base.checksums

    def test_restart_with_pending_wait_on_drained_request(self):
        # the checkpoint drains an initiated ibarrier while rank 0 has not
        # waited on it yet; after restart the wait returns immediately
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "q0"), op_coll(r),
                               Op(rank=r, op="wait", request_id="q0")]
        base = run(sc, "none", seed=3)
        ck = None
        for step in range(2, 10):
            attempt = run(sc, "cc", seed=3, ckpt=("at_step", step))
            waits_pending = any(
                row["pc"] <= 2 and "q0" in row["protocol"]["incomplete_requests"]
                for row in attempt.snapshot.per_rank)
            if waits_pending:
                ck = attempt
                break
        assert ck is not None, "no placement left the wait pending at the snapshot"
        restarted = run_restart(ck.snapshot)
        assert restarted.checksums == base.checksums
        assert restarted.sim.all_finished()

    def test_restored_clocks_match_snapshot(self):
        result = self._snapshot()
        sim = restart(result.snapshot)
        for row in result.snapshot.per_rank:
            assert sim.protocol.states[row["rank"]].clock.to_json() == \
                row["protocol"]["clock"]

    def test_second_round_on_restarted_runtime(self):
        # requests restored from the image have no live instance records but
        # must still drain cleanly in a later round
        from ccsim import CheckpointCoordinator

        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "q0"), op_coll(r), op_coll(r),
                               Op(rank=r, op="wait", request_id="q0")]
        base = run(sc, "none", seed=1)
        first = run(sc, "cc", seed=1, ckpt=("at_step", 4))
        assert any(row["protocol"]["incomplete_requests"]
                   for row in first.snapshot.per_rank)
        sim = restart(first.snapshot)
        sim.coordinator = CheckpointCoordinator(("at_step", sim.step + 3))
        sim.run()
        assert sim.coordinator.declared
        assert sim.checksums() == base.checksums
