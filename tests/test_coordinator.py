"""Checkpoint rounds, targets, snapshots, restart."""

import json
import re
from collections import Counter

import pytest

from ccsim import (
    GroupKey,
    ProtocolViolationError,
    SimulationError,
    SnapshotImage,
    SnapshotLoadError,
    UnsupportedOperationError,
    by_label,
    generate_workload,
    restart,
    run,
    run_restart,
)
from ccsim.runtime import FINISHED, PARKED
from ccsim.scenario import Op

from conftest import (
    build, drained_request_scenario, drive_held, none_labelled_snapshot, op_coll, op_icoll,
    scenario,
)


def _round_start(world_size, clocks):
    """cc's round start on a world whose rank r holds SEQ table ``clocks[r]``;
    returns the initial targets by label, and the protocol."""
    sim, _ = build(scenario(world_size), "cc")
    for r, clock in clocks.items():
        sim.protocol.states[r].clock = Counter(clock)
    return sim.protocol.on_round_start(sim), sim


class TestRoundTargets:
    def test_targets_take_maxima(self):
        g = GroupKey((0, 1, 2))
        initial, sim = _round_start(3, {0: {g: 3}, 1: {g: 5}, 2: {g: 4}})
        assert initial == {"0,1,2": 5}
        assert all(st.targets == Counter({g: 5}) for st in sim.protocol.states)
        sim.protocol.on_round_end(sim)
        assert all(not st.targets for st in sim.protocol.states)

    def test_nonparticipant_contributes_zero(self):
        initial, _ = _round_start(3, {0: {GroupKey((0, 1)): 2}})
        assert initial == {"0,1": 2}

    def test_fig2a_targets(self):
        g12, g23, g345, g56 = (GroupKey((1, 2)), GroupKey((2, 3)),
                               GroupKey((3, 4, 5)), GroupKey((5, 6)))
        initial, _ = _round_start(7, {
            1: {g12: 5}, 2: {g12: 5, g23: 7}, 3: {g23: 6, g345: 2},
            4: {g345: 2}, 5: {g345: 2, g56: 3}, 6: {g56: 3}})
        assert initial == {"1,2": 5, "2,3": 7, "3,4,5": 2, "5,6": 3}


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
        counters = sim.counters
        counters.target_updates_sent = 2
        counters.target_updates_applied, counters.target_updates_stale = 1, 1
        assert [r.stage for r in sim.ranks] == [PARKED, PARKED]
        assert sim.protocol.quiescent(sim)

    def test_running_rank_blocks(self):
        sim = _cc_round(["ckpt", 0])
        assert not sim.protocol.quiescent(sim)

    def test_unbalanced_counters_block(self):
        sim = _cc_round(["ckpt", 0, 1])
        counters = sim.counters
        counters.target_updates_sent = 3
        counters.target_updates_applied, counters.target_updates_stale = 1, 1
        assert not sim.protocol.quiescent(sim)

    def test_more_received_than_sent_is_violation(self):
        sim = _cc_round(["ckpt", 0, 1])
        sim.counters.target_updates_stale = 1
        with pytest.raises(ProtocolViolationError, match="applied 1 updates but only 0"):
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
        assert [r.stage for r in sim.ranks] == [FINISHED, PARKED, PARKED]
        assert sim.protocol.quiescent(sim)


class TestRounds:
    def test_request_at_step_zero_reports_all_zero(self):
        sc = scenario(3)
        for r in range(3):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        result = run(sc, "cc", seed=2, ckpt=("at_step", 0))
        assert result.coordinator.declared
        assert result.coordinator.initial_targets == {}
        assert result.sim.all_finished()

    def test_pending_request_fails_the_instance_rule_before_any_drain(self):
        # Declared by hand with q0 initiated by rank 0 alone: the coordinator's
        # instance rule rejects it before cc traces a drained request.
        program = [(op_icoll(r, "q0"), Op(rank=r, op="wait", request_id="q0")) for r in (0, 1)]
        sim = _cc_round([0], programs=program)
        with pytest.raises(ProtocolViolationError, match="started but incomplete"):
            sim.coordinator.declare_safe_state(sim)
        assert not any(ev["event"] == "drain_request" for ev in sim.trace)

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

    @pytest.mark.parametrize("placement", [
        ("trigger", "nope"), ("at_step", "x"), ("later", 3), ("at_step", 1, 2),
        ("random", None), ("random", 1.5), ("random", True), ("random",),
    ], ids=["unknown-trigger", "step-not-an-int", "unknown-kind", "three-items",
            "random-seed-none", "random-seed-float", "random-seed-bool", "random-no-seed"])
    def test_bad_placement_rejected_before_the_first_step(self, placement, monkeypatch):
        from ccsim import Simulator

        monkeypatch.setattr(Simulator, "run", lambda sim: pytest.fail("the run started"))
        message = rf"^invalid checkpoint placement {re.escape(repr(placement))}$"
        with pytest.raises(SimulationError, match=message):
            run("fig2", "cc", ckpt=placement)

    def test_trigger_needs_the_collective_clock(self):
        with pytest.raises(UnsupportedOperationError,
                           match=r"^this trigger requires the collective-clock protocol$"):
            run("fig2", "2pc", seed=11, ckpt=("trigger", "fig2-instant"))

    def test_trigger_that_never_fires_is_an_error(self):
        # on seed 3, rank 2 starts its first world collective before rank 0 does
        with pytest.raises(SimulationError,
                           match=r"^checkpoint trigger 'bcast-started' never fired$"):
            run("fig2", "cc", seed=3, ckpt=("trigger", "bcast-started"))

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

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_load_rejects_a_version_that_only_equals_1(self, version):
        obj = json.loads(self._snapshot().snapshot.dumps())
        obj["version"] = version
        with pytest.raises(SnapshotLoadError, match=f"^unsupported snapshot version {version}$"):
            SnapshotImage.loads(json.dumps(obj))

    def test_load_rejects_json_that_is_not_an_object(self):
        with pytest.raises(SnapshotLoadError, match=r"^snapshot must be a JSON object$"):
            SnapshotImage.loads("[1, 2]")

    def test_load_rejects_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\u00e9"}\n'.encode("latin-1"))
        with pytest.raises(SnapshotLoadError, match=r"^snapshot file is not UTF-8 text: "):
            SnapshotImage.load(path)

    def test_corrupt_image_rejected(self):
        with pytest.raises(SnapshotLoadError):
            SnapshotImage.loads("not json at all {")
        with pytest.raises(SnapshotLoadError):
            SnapshotImage.loads('{"version": 99}')
        with pytest.raises(SnapshotLoadError):
            SnapshotImage.loads('{"version": 1, "algorithm": "cc"}')

    @pytest.mark.parametrize("corrupt", [
        lambda im: im.per_rank[0].update(rank=99),
        lambda im: im.per_rank[0].update(pc=-5),
        lambda im: im.per_rank.__delitem__(slice(3, None)),
        lambda im: im.comms_created.update(g12=(1, 99)),
        lambda im: im.comms_created.update(g12=(1, 3)),
        lambda im: im.comms_created.update(zz=(0, 1)),
        lambda im: im.comms_created.pop("g12"),
        lambda im: im.per_rank[1]["protocol"]["clock"].update({"a,b": 1}),
        lambda im: im.per_rank[1]["protocol"]["clock"].update({"1,99": 1}),
        lambda im: im.policy.update(count_comm_create=False),
        lambda im: im.per_rank[0].update(protocol=[]),
        lambda im: im.per_rank[1].update(checksum="x"),
        lambda im: im.per_rank[1].update(checksum=-1),
        lambda im: im.per_rank[1]["protocol"]["clock"].update({"1,2": 99}),
    ], ids=["rank-99", "pc-negative", "3-of-7-ranks", "comm-member-99", "comm-wrong-members",
            "comm-undeclared", "comm-dropped", "clock-label-not-ranks",
            "clock-label-outside-world", "policy-uncounted-comm-create",
            "protocol-not-an-object", "checksum-str", "checksum-negative",
            "clock-count-raised"])
    def test_restart_rejects_malformed_per_rank(self, corrupt):
        image = run("fig2", algorithm="cc", seed=11, ckpt=("trigger", "fig2-instant")).snapshot
        corrupt(image)
        with pytest.raises(SnapshotLoadError):
            restart(image)

    @pytest.mark.parametrize("field, value", [
        ("comms_created", []), ("seed", []), ("step", "3"), ("round_id", None),
        ("world_size", 8), ("scenario_jsonl", 7), ("scenario_jsonl", "{}"),
    ], ids=["comms-list", "seed-list", "step-str", "round-null", "world-size-mismatch",
            "scenario-int", "scenario-no-header"])
    def test_load_rejects_malformed_header(self, field, value):
        image = run("fig2", algorithm="cc", seed=11, ckpt=("trigger", "fig2-instant")).snapshot
        obj = json.loads(image.dumps())
        obj[field] = value
        with pytest.raises(SnapshotLoadError):
            SnapshotImage.loads(json.dumps(obj))

    def test_load_names_the_embedded_scenario_line(self):
        image = run("fig2", algorithm="cc", seed=11, ckpt=("trigger", "fig2-instant")).snapshot
        obj = json.loads(image.dumps())
        lines = obj["scenario_jsonl"].splitlines()
        lines[4] = lines[4].replace('"rank":', '"x":1,"rank":')
        lines[4:4] = [""]
        obj["scenario_jsonl"] = "\n".join(lines)
        with pytest.raises(SnapshotLoadError,
                           match=r"^embedded scenario unreadable: line 6: unknown op fields: \['x'\]$"):
            SnapshotImage.loads(json.dumps(obj))

    def test_embedded_scenario_loads_back_equal(self):
        ck = self._snapshot()
        sc, blob = ck.snapshot.scenario, ck.snapshot.dumps()
        image = SnapshotImage.loads(blob)
        assert image.scenario == sc and image.scenario.frozen and image.dumps() == blob
        assert run_restart(image).checksums == run(sc, "none", seed=5).checksums

    @pytest.mark.parametrize("old, new, message", [
        ('"world_size":3', '"world_size":2', "line 9: op rank 2 outside world of 2"),
        ('"barrier"', '"barriex"', "line 3: unknown collective kind 'barriex'"),
        ('"rank":1', '"rank":7', "line 6: op rank 7 outside world of 3"),
        ('"version":1', '"version":2', "unsupported scenario version 2"),
        ('}\n{"comm"', '\n{"comm"', "line 4: scenario line is not valid JSON: "
                                      "Expecting ',' delimiter: line 1 column 39 (char 38)"),
    ], ids=["world-size", "kind", "rank", "version", "brace"])
    def test_embedded_scenario_one_byte_off_is_parsed(self, old, new, message):
        ck = self._snapshot()
        obj = json.loads(ck.snapshot.dumps())
        assert SnapshotImage.loads(json.dumps(obj)).scenario == ck.snapshot.scenario
        obj["scenario_jsonl"] = obj["scenario_jsonl"].replace(old, new, 1)
        with pytest.raises(SnapshotLoadError) as exc:
            SnapshotImage.loads(json.dumps(obj))
        assert str(exc.value) == f"embedded scenario unreadable: {message}"

    @pytest.mark.parametrize("wrap", [lambda text: [text], lambda text: {"a": text},
                                      lambda text: 7], ids=["list", "dict", "int"])
    def test_embedded_scenario_not_text_is_rejected(self, wrap):
        ck = self._snapshot()
        obj = json.loads(ck.snapshot.dumps())
        value = wrap(obj["scenario_jsonl"])
        obj["scenario_jsonl"] = value
        with pytest.raises(SnapshotLoadError) as exc:
            SnapshotImage.loads(json.dumps(obj))
        assert str(exc.value) == ("corrupt snapshot image: AttributeError(\"'"
                                  f"{type(value).__name__}' object has no attribute "
                                  "'splitlines'\")")

    @pytest.mark.parametrize("step, corrupt", [
        (2, lambda reqs: reqs[0]["q0"].update(payload=[])),
        (2, lambda reqs: reqs[0]["q0"].update(payload="x")),
        (2, lambda reqs: reqs[0]["q0"].update(state="consumed")),
        (2, lambda reqs: reqs[0]["q0"].update(state="pending")),
        (2, lambda reqs: reqs[0]["q0"].update(op_index=1)),
        (2, lambda reqs: reqs[0]["q0"].update(op_index=2)),
        (2, lambda reqs: reqs[0]["q0"].update(op_index="0")),
        (2, lambda reqs: reqs[0].update(q9=reqs[0].pop("q0"))),
        # rank 1 is at pc 3, past its wait on q0
        (5, lambda reqs: reqs[1].update(q0=reqs[0]["q0"])),
    ], ids=["payload-on-barrier", "payload-str", "state-consumed", "state-pending",
            "op-index-not-icoll", "op-index-at-pc", "op-index-str", "other-request-id",
            "waited-before-pc"])
    def test_restart_rejects_malformed_request(self, step, corrupt):
        image = _drained_request_image(step)
        corrupt([row["protocol"]["incomplete_requests"] for row in image.per_rank])
        with pytest.raises(SnapshotLoadError):
            restart(image)

    def test_restart_rejects_request_consumed_by_waitany(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "q0"), op_icoll(r, "q1"), op_coll(r),
                               Op(rank=r, op="waitany", request_ids=["q0", "q1"])]
        image = run(sc, "cc", seed=0, ckpt=("at_step", 7)).snapshot
        reqs = [row["protocol"]["incomplete_requests"] for row in image.per_rank]
        assert [row["pc"] for row in image.per_rank] == [3, 4]
        assert sorted(reqs[0]) == ["q0", "q1"] and sorted(reqs[1]) == ["q1"]
        restart(image)
        reqs[1]["q0"] = reqs[0]["q0"]
        with pytest.raises(SnapshotLoadError):
            restart(image)

    @pytest.mark.parametrize("log", [
        "abc",
        [1, 2],
        [{"pc": "x"}],
        [{"pc": 10**9, "comm": "nope", "instance": -1}],
        [{"pc": 2, "comm": "nope", "instance": 2}],
        [{"pc": 3, "comm": "world", "instance": 2}],
        [{"pc": 2, "comm": "world", "instance": -1}],
        [{"pc": 2, "comm": "world", "instance": True}],
        [{"pc": 2, "comm": "world", "instance": 2, "x": 0}],
        [{"pc": 2, "comm": "world", "instance": 1}],
        [{"pc": 2, "comm": "world", "instance": 3}],
    ], ids=["str", "ints", "pc-only", "all-wrong", "comm-other", "pc-past-pc",
            "instance-negative", "instance-bool", "extra-key", "instance-earlier",
            "instance-later"])
    def test_restart_rejects_malformed_aborted_barrier_log(self, log):
        image = run("fig2", algorithm="2pc", seed=11, ckpt=("at_step", 40)).snapshot
        row = image.per_rank[1]
        assert row["pc"] == 2
        assert row["protocol"]["aborted_barrier_log"] == [{"pc": 2, "comm": "world", "instance": 2}]
        restart(image)
        row["protocol"]["aborted_barrier_log"] = log
        with pytest.raises(SnapshotLoadError):
            restart(image)

    def test_restart_rejects_unknown_algorithm(self):
        image = run("fig2", algorithm="2pc", seed=11, ckpt=("at_step", 40)).snapshot
        image.algorithm = "3pc"
        with pytest.raises(SnapshotLoadError, match="unknown algorithm '3pc'"):
            restart(image)

    def test_restart_refuses_an_algorithm_that_takes_no_checkpoints(self):
        image = none_labelled_snapshot()
        message = "^algorithm 'none' takes no checkpoints, so no run writes its snapshot$"
        with pytest.raises(SnapshotLoadError, match=message):
            restart(image)

    def test_restart_rebuilds_identical_group_keys(self):
        result = self._snapshot()
        sim = restart(result.snapshot)
        for cid, record in result.sim.comm_records.items():
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

    @pytest.mark.parametrize("algorithm", ["cc", "2pc"])
    def test_restart_numbers_instances_as_the_uninterrupted_run(self, algorithm):
        # Each op's pc fixes its instance and coll_enter num, so a restarted
        # rank enters what the uninterrupted run entered from that pc on.
        def enters(sim):
            per_rank = {r: [] for r in range(sim.world_size)}
            for ev in sim.trace:
                if ev["event"] == "coll_enter":
                    d = ev["detail"]
                    per_rank[ev["rank"]].append((d["comm"], d["instance"], d["num"]))
            return per_rank

        renumbered = 0
        for seed in range(20):
            sc = generate_workload(seed, ranks=4, groups=2, ops=30, p2p_ratio=0.2,
                                   nonblocking_ratio=0.25 if algorithm == "cc" else 0.0)
            base = run(sc, algorithm, seed=seed, checks=False)
            ck = run(sc, algorithm, seed=seed, ckpt=("at_step", base.sim.step // 2),
                     checks=False)
            whole, after = enters(base.sim), enters(run_restart(ck.snapshot).sim)
            for r, tail in after.items():
                assert whole[r][len(whole[r]) - len(tail):] == tail, (seed, r)
                renumbered += any(instance for _, instance, _ in tail)
        assert renumbered

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

    def test_restart_keeps_requests_consumed_before_the_pc(self):
        # q0 is waited on before the world barrier and tested after it: a
        # restart past the wait must bring q0 back as the null request
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "q0"), Op(rank=r, op="wait", request_id="q0"),
                               op_coll(r), Op(rank=r, op="test", request_id="q0")]
        base = run(sc, "cc", seed=0)
        for step in range(12):
            ck = run(sc, "cc", seed=0, ckpt=("at_step", step))
            restarted = run_restart(ck.snapshot)
            assert restarted.sim.all_finished(), step
            assert restarted.checksums == base.checksums, step

    def test_restored_clocks_match_snapshot(self):
        result = self._snapshot()
        sim = restart(result.snapshot)
        for row in result.snapshot.per_rank:
            assert by_label(sim.protocol.states[row["rank"]].clock) == \
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


def _drained_request_image(step=2):
    image = run(drained_request_scenario(), "cc", seed=3, ckpt=("at_step", step)).snapshot
    assert image.per_rank[0]["pc"] == 2
    assert image.per_rank[0]["protocol"]["incomplete_requests"]["q0"] == {
        "state": "globally_complete", "payload": None, "op_index": 0}
    return image


def _late_creation_scenario():
    """Three ranks: two world collectives, then comm_create g, a world
    barrier, comm_create h, and one collective on each of g and h."""
    sc = scenario(3, comms={"g": (0, 1), "h": (1, 2)}, preamble=False, name="late-create")
    for r in range(3):
        sc.programs[r] += [op_coll(r), op_coll(r, kind="allreduce", reduce_op="sum", data=[r]),
                           Op(rank=r, op="comm_create", new_comm="g"), op_coll(r),
                           Op(rank=r, op="comm_create", new_comm="h")]
    for r in (0, 1):
        sc.programs[r].append(op_coll(r, comm="g"))
    for r in (1, 2):
        sc.programs[r].append(op_coll(r, comm="h"))
    return sc


def _golden_configurations():
    """The three criterion-8 configurations: (scenario, algorithm, seed, placement)."""
    return [
        ("fig2", "cc", 11, ("trigger", "fig2-instant")),
        (generate_workload(77, ranks=9, groups=3, ops=120, nonblocking_ratio=0.3,
                           p2p_ratio=0.2), "cc", 5, ("at_step", 100)),
        (generate_workload(78, ranks=8, groups=2, ops=100, p2p_ratio=0.2), "2pc", 6,
         ("at_step", 80)),
    ]


def _every_step_placement():
    sc = _late_creation_scenario()
    for algorithm in ("cc", "2pc"):
        steps = run(sc, algorithm, seed=0, checks=False).sim.step
        for at in range(steps + 1):
            yield sc, algorithm, 0, ("at_step", at)


def _campaign_placements():
    for seed in range(20):
        algorithm = ("cc", "2pc")[seed % 2]
        sc = generate_workload(seed + 500, ranks=3 + seed % 5, groups=1 + seed % 3,
                               ops=40 + 7 * seed, p2p_ratio=0.2,
                               nonblocking_ratio=0.3 if algorithm == "cc" else 0.0)
        yield sc, algorithm, seed, ("random", seed)


class TestCreatedComms:
    """A snapshot's ``comms_created`` is derived from the ranks' pcs; it must
    name exactly the communicators created before the safe state."""

    @staticmethod
    def _check(sc, algorithm, seed, placement):
        result = run(sc, algorithm, seed=seed, ckpt=placement)
        created = {}
        for event in result.sim.trace:
            if event["event"] == "safe_state":
                break
            if event["event"] == "comm_created":
                created[event["detail"]["comm"]] = tuple(event["detail"]["members"])
        else:
            raise AssertionError(f"no safe_state marker under {placement}")
        assert result.snapshot.comms_created == created, (algorithm, placement)
        resumed = restart(result.snapshot).run()
        assert resumed.all_finished()
        assert resumed.checksums() == run(sc, algorithm, seed=seed, checks=False).checksums
        return created

    def test_golden_configurations(self):
        for config in _golden_configurations():
            self._check(*config)

    def test_every_step_of_a_late_creation(self):
        seen = {algorithm: set() for algorithm in ("cc", "2pc")}
        for config in _every_step_placement():
            seen[config[1]].add(tuple(sorted(self._check(*config))))
        # each of none, g only, and g and h is a safe state of both protocols
        assert all(states == {(), ("g",), ("g", "h")} for states in seen.values()), seen

    def test_campaign_placements(self):
        for config in _campaign_placements():
            self._check(*config)
