"""Deterministic runtime semantics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsim import (
    CollectiveMismatchError,
    DeadlockError,
    ProtocolViolationError,
    ScenarioError,
    ScenarioProgram,
    SimulationError,
    Simulator,
    SnapshotImage,
    StuckP2pError,
    barrier_cost,
    checksum_fold,
    collective_cost,
    explore_small,
    generate_workload,
    make_protocol,
    run,
    run_restart,
)
from ccsim import runtime
from ccsim.runtime import CONSUMED, PARKED, PENDING, Instance
from ccsim.scenario import Op

from conftest import (
    build,
    drive,
    drive_held,
    op_coll,
    op_icoll,
    same_member_set_scenario,
    scenario,
    wide_payload_scenario,
)


def finished_sim(sc, seed=0):
    sim = Simulator(sc, seed=seed)
    sim.run()
    return sim


class TestWorldCreation:
    def test_singleton_world(self):
        sim = Simulator(ScenarioProgram(world_size=1, name="w1"))
        assert sim.comm_records["world"].members == (0,)

    def test_seven_rank_world(self):
        sim = Simulator(ScenarioProgram(world_size=7, name="w7"))
        assert sim.comm_records["world"].members == tuple(range(7))

    def test_zero_world_rejected(self):
        with pytest.raises(ScenarioError, match="'world_size' cannot be 0"):
            Simulator(ScenarioProgram(world_size=0, name="w0"))

    def test_same_seed_identical_logs(self):
        sc = scenario(4)
        for r in range(4):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        a, b = finished_sim(sc, seed=9), finished_sim(sc, seed=9)
        assert a.trace_lines() == b.trace_lines()


class TestCommCreate:
    def test_full_subset_duplicates_world(self):
        sc = scenario(4, comms={"dup": (0, 1, 2, 3)})
        sim = finished_sim(sc)
        dup = sim.comm_records["dup"]
        assert dup.members == (0, 1, 2, 3)
        world = sim.comm_records["world"].key
        # same member set, its own clock identity: the second communicator over it
        assert dup.key.members == world.members
        assert (world.ordinal, dup.key.ordinal) == (0, 1)

    def test_subset_translation(self):
        sc = scenario(7, comms={"mid": (3, 4, 5)})
        sim = finished_sim(sc)
        assert sim.comm_records["mid"].members == (3, 4, 5)

    def test_singleton_subcommunicator(self):
        sc = scenario(2, comms={"solo": (1,)})
        sim = finished_sim(sc)
        assert sim.comm_records["solo"].members == (1,)

    def test_mismatched_subsets_abort(self):
        # two comm ids declared; rank programs pair them up differently so the
        # first create instance sees two different signatures
        sc = ScenarioProgram(world_size=2, comms={"a": (0, 1), "b": (0, 1)}, name="mm")
        sc.programs[0].append(Op(rank=0, op="comm_create", new_comm="a"))
        sc.programs[0].append(Op(rank=0, op="comm_create", new_comm="b"))
        sc.programs[1].append(Op(rank=1, op="comm_create", new_comm="b"))
        sc.programs[1].append(Op(rank=1, op="comm_create", new_comm="a"))
        with pytest.raises(CollectiveMismatchError):
            finished_sim(sc)


class TestBlockingCollectives:
    def test_allreduce_sum(self):
        sc = scenario(4)
        for r in range(4):
            sc.programs[r].append(op_coll(r, kind="allreduce", reduce_op="sum",
                                          data=[r + 1]))
        sim = finished_sim(sc)
        inst = sim.instances[("world", 0)]
        assert all(inst.outputs[m] == [10] for m in range(4))

    def test_bcast_copies_root(self):
        sc = scenario(2)
        sc.programs[0].append(op_coll(0, kind="bcast", root=0, data=[42]))
        sc.programs[1].append(op_coll(1, kind="bcast", root=0))
        sim = finished_sim(sc)
        assert sim.instances[("world", 0)].outputs[1] == [42]

    def test_reduce_max_at_root(self):
        sc = scenario(3)
        for r in range(3):
            sc.programs[r].append(op_coll(r, kind="reduce", root=1, reduce_op="max",
                                          data=[r * 5, 9 - r]))
        sim = finished_sim(sc)
        inst = sim.instances[("world", 0)]
        assert inst.outputs[1] == [10, 9]
        assert 0 not in inst.outputs

    def test_gather_concatenates_in_member_order(self):
        sc = scenario(3)
        for r in range(3):
            sc.programs[r].append(op_coll(r, kind="gather", root=2, data=[r, r]))
        sim = finished_sim(sc)
        assert sim.instances[("world", 0)].outputs[2] == [0, 0, 1, 1, 2, 2]

    def test_alltoall_permutes_blocks(self):
        sc = scenario(3)
        inputs = {r: [10 * r, 10 * r + 1, 10 * r + 2] for r in range(3)}
        for r in range(3):
            sc.programs[r].append(op_coll(r, kind="alltoall", data=inputs[r]))
        sim = finished_sim(sc)
        inst = sim.instances[("world", 0)]
        # oracle: out[i][j] = in[j][i], enumerated directly
        for i in range(3):
            assert inst.outputs[i] == [inputs[j][i] for j in range(3)]

    def test_synchronizing_enter_before_any_return(self):
        sc = scenario(4)
        for r in range(4):
            sc.programs[r] += [op_coll(r) for _ in range(3)]
        sim = finished_sim(sc, seed=5)
        enters, returns = {}, {}
        for ev in sim.trace:
            key = (ev["detail"].get("comm"), ev["detail"].get("instance"))
            if ev["event"] == "coll_enter":
                enters.setdefault(key, []).append(ev["step"])
            elif ev["event"] == "coll_return":
                returns.setdefault(key, []).append(ev["step"])
        for key, ins in enters.items():
            assert max(ins) < min(returns[key])

    def test_kind_mismatch_detected(self):
        sc = scenario(2)
        sc.programs[0].append(op_coll(0, kind="barrier"))
        sc.programs[1].append(op_coll(1, kind="allreduce", reduce_op="sum", data=[1]))
        with pytest.raises(CollectiveMismatchError):
            finished_sim(sc)

    def test_interleaved_mismatched_comm_orders_deadlock(self):
        # the classic erroneous two-communicator pattern: each rank blocks in
        # a different instance and neither can complete
        sc = scenario(2, comms={"c0": (0, 1), "c1": (0, 1)})
        sc.programs[0] += [op_coll(0, comm="c0", kind="bcast", root=0, data=[1]),
                           op_coll(0, comm="c1", kind="bcast", root=1)]
        sc.programs[1] += [op_coll(1, comm="c1", kind="bcast", root=1, data=[2]),
                           op_coll(1, comm="c0", kind="bcast", root=0)]
        with pytest.raises(DeadlockError):
            finished_sim(sc)


class TestNonBlocking:
    def test_ibarrier_completes_when_all_initiate(self):
        sc = scenario(2)
        sc.programs[0] += [op_icoll(0, "q0"), Op(rank=0, op="wait", request_id="q0")]
        sc.programs[1] += [op_icoll(1, "q0"), Op(rank=1, op="wait", request_id="q0")]
        sim = finished_sim(sc)
        assert all(r.requests["q0"].state == CONSUMED for r in sim.ranks)

    def test_completion_at_last_initiation_step(self):
        sc = scenario(2)
        sc.programs[0] += [op_icoll(0, "q0"), Op(rank=0, op="wait", request_id="q0")]
        sc.programs[1] += [Op(rank=1, op="compute", ticks=3), op_icoll(1, "q0"),
                           Op(rank=1, op="wait", request_id="q0")]
        sim = finished_sim(sc, seed=3)
        init_steps = [ev["step"] for ev in sim.trace if ev["event"] == "icoll_init"]
        complete_steps = [ev["step"] for ev in sim.trace if ev["event"] == "icoll_complete"]
        assert complete_steps == [max(init_steps)]

    def test_independent_progress_two_outstanding(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [
                op_icoll(r, "qa", kind="bcast", root=0, data=[7] if r == 0 else None),
                op_icoll(r, "qb"),
                Op(rank=r, op="waitall", request_ids=["qa", "qb"]),
            ]
        sim = finished_sim(sc)
        assert all(r.requests["qa"].state == CONSUMED and
                   r.requests["qb"].state == CONSUMED for r in sim.ranks)

    def test_never_initiated_request_stays_pending(self):
        sc = scenario(2, comms={"g": (0, 1)})
        sc.programs[0].append(op_icoll(0, "q0", comm="g"))
        sim = finished_sim(sc)
        assert sim.ranks[0].requests["q0"].state == PENDING

    def test_waitall_under_random_interleavings(self):
        for seed in range(12):
            sc = scenario(3)
            for r in range(3):
                reqs = [f"q{i}" for i in range(3)]
                for i, rid in enumerate(reqs):
                    sc.programs[r].append(op_icoll(r, rid))
                    if i == 1:
                        sc.programs[r].append(Op(rank=r, op="compute", ticks=(r + seed) % 3 + 1))
                sc.programs[r].append(Op(rank=r, op="waitall", request_ids=reqs))
            sim = finished_sim(sc, seed=seed)
            assert sim.all_finished()


class TestRequestCalls:
    def test_null_request_tests_true(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [
                op_icoll(r, "q0"),
                Op(rank=r, op="wait", request_id="q0"),
                Op(rank=r, op="test", request_id="q0"),   # consumed = null
                Op(rank=r, op="wait", request_id="q0"),   # returns immediately
            ]
        sim = finished_sim(sc)
        flags = [ev["detail"]["flag"] for ev in sim.trace if ev["event"] == "test"]
        assert flags == [True, True]

    def test_test_false_then_wait(self):
        sc = scenario(2, comms={"g": (0, 1)})
        sc.programs[0] += [op_icoll(0, "q0", comm="g"),
                           Op(rank=0, op="test", request_id="q0"),
                           Op(rank=0, op="wait", request_id="q0")]
        sc.programs[1] += [Op(rank=1, op="compute", ticks=8),
                           op_icoll(1, "q0", comm="g"),
                           Op(rank=1, op="wait", request_id="q0")]
        sim, _ = build(sc)
        # force rank 0 to test before rank 1 initiates
        drive(sim, pick=min)
        flags = [ev["detail"]["flag"] for ev in sim.trace if ev["event"] == "test"]
        assert flags[0] is False
        assert sim.ranks[0].requests["q0"].state == CONSUMED

    def test_waitany_consumes_exactly_one(self):
        for seed in range(8):
            sc = scenario(2)
            for r in range(2):
                for rid in ("qa", "qb", "qc"):
                    sc.programs[r].append(op_icoll(r, rid))
                sc.programs[r].append(Op(rank=r, op="waitany",
                                         request_ids=["qa", "qb", "qc"]))
                sc.programs[r].append(Op(rank=r, op="waitall",
                                         request_ids=["qa", "qb", "qc"]))
            sim = finished_sim(sc, seed=seed)
            for rank in sim.ranks:
                assert sorted(rq.state for rq in rank.requests.values()) == [CONSUMED] * 3

    @pytest.mark.parametrize("algorithm", ["none", "cc"])
    def test_waitany_on_consumed_requests_returns_at_once(self, algorithm):
        # MPI_Waitany returns MPI_UNDEFINED when every request is null
        def program(waitany):
            sc = scenario(2)
            for r in range(2):
                sc.programs[r] += [op_icoll(r, "q0"), Op(rank=r, op="wait", request_id="q0")]
                if waitany:
                    sc.programs[r].append(Op(rank=r, op="waitany", request_ids=["q0"]))
            return sc

        result = run(program(waitany=True), algorithm, seed=0)
        assert result.passed and result.sim.all_finished()
        events = [ev["event"] for ev in result.sim.trace]
        assert "waitany_done" not in events and events.count("req_consume") == 2
        assert result.checksums == run(program(waitany=False), algorithm, seed=0).checksums


class TestPointToPoint:
    def test_send_recv_delivers(self):
        sc = scenario(2)
        sc.programs[0].append(Op(rank=0, op="send", peer=1, tag=3, data=[5]))
        sc.programs[1].append(Op(rank=1, op="recv", peer=0, tag=3))
        sim = finished_sim(sc)
        assert sim.counters.p2p_messages == 1

    def test_fifo_same_key(self):
        sc = scenario(2)
        sc.programs[0] += [Op(rank=0, op="send", peer=1, data=[1]),
                           Op(rank=0, op="send", peer=1, data=[2])]
        sc.programs[1] += [Op(rank=1, op="recv", peer=0),
                           Op(rank=1, op="recv", peer=0)]
        a = finished_sim(sc, seed=1)
        # order of delivery is visible through the receiver checksum; compare
        # with an explicitly-ordered oracle run where sends cannot reorder
        sc2 = scenario(2)
        sc2.programs[0] += [Op(rank=0, op="send", peer=1, data=[1]),
                            Op(rank=0, op="compute", ticks=5),
                            Op(rank=0, op="send", peer=1, data=[2])]
        sc2.programs[1] += [Op(rank=1, op="recv", peer=0),
                            Op(rank=1, op="recv", peer=0)]
        b = finished_sim(sc2, seed=1)
        assert a.ranks[1].checksum == b.ranks[1].checksum

    def test_distinct_keys_match_independently(self):
        # matching is per (sender, receiver, tag): the receiver can take the
        # tag-2 message from rank 2 before the tag-1 message from rank 0
        sc = scenario(3)
        sc.programs[0].append(Op(rank=0, op="send", peer=1, tag=1, data=[10]))
        sc.programs[2].append(Op(rank=2, op="send", peer=1, tag=2, data=[20]))
        sc.programs[1] += [Op(rank=1, op="recv", peer=2, tag=2),
                           Op(rank=1, op="recv", peer=0, tag=1)]
        sim = finished_sim(sc)
        assert sim.all_finished()
        assert sim.counters.p2p_messages == 2

    def test_inverted_tag_order_rendezvous_deadlocks(self):
        # standard-mode sends block until matched, so inverting the tag order
        # on one sender-receiver pair must deadlock, not reorder
        sc = scenario(2)
        sc.programs[0] += [Op(rank=0, op="send", peer=1, tag=1, data=[10]),
                           Op(rank=0, op="send", peer=1, tag=2, data=[20])]
        sc.programs[1] += [Op(rank=1, op="recv", peer=0, tag=2),
                           Op(rank=1, op="recv", peer=0, tag=1)]
        with pytest.raises(StuckP2pError):
            finished_sim(sc)

    def test_unmatched_p2p_is_stuck_error(self):
        sc = scenario(2)
        sc.programs[0].append(Op(rank=0, op="send", peer=1, data=[5]))
        with pytest.raises(StuckP2pError):
            finished_sim(sc)


    def test_communicator_must_match(self):
        # same peer and tag, but the send is on g and the recv on world
        sc = scenario(2, comms={"g": (0, 1)})
        sc.programs[0].append(Op(rank=0, op="send", peer=1, tag=4, comm="g", data=[5]))
        sc.programs[1].append(Op(rank=1, op="recv", peer=0, tag=4))
        with pytest.raises(StuckP2pError) as err:
            finished_sim(sc)
        assert err.value.blocked == [(0, "blocked_send", "send to 1 tag 4"),
                                     (1, "blocked_recv", "recv from 0 tag 4")]


def _item2_scenario():
    """Rank 0 receives from rank 1, which first joins a barrier on g with rank 2."""
    sc = scenario(3, comms={"g": (1, 2)})
    sc.programs[0].append(Op(rank=0, op="recv", peer=1))
    sc.programs[1] += [op_coll(1, comm="g"), Op(rank=1, op="send", peer=0, data=[7])]
    sc.programs[2].append(op_coll(2, comm="g"))
    return sc


class TestBlockReasons:
    """A deadlock report names each unfinished rank's stage and what it waits for."""

    def _blocked(self, sc, algorithm="none", ckpt=None, error=DeadlockError):
        with pytest.raises(error) as err:
            run(sc, algorithm, seed=0, ckpt=ckpt)
        return err.value.blocked

    def test_blocked_coll(self):
        sc = scenario(2)
        sc.programs[0].append(op_coll(0))
        assert self._blocked(sc) == [(0, "blocked_coll", "in world#0:barrier")]

    def test_blocked_req(self):
        sc = scenario(2)
        sc.programs[0] += [op_icoll(0, "q0"), op_icoll(0, "q1"),
                           Op(rank=0, op="waitall", request_ids=["q0", "q1"])]
        assert self._blocked(sc) == [(0, "blocked_req", "waitall on ['q0', 'q1']")]

    def test_blocked_send_next_to_a_collective(self):
        sc = scenario(2)
        sc.programs[0].append(Op(rank=0, op="send", peer=1, tag=3, data=[1]))
        sc.programs[1].append(op_coll(1))
        assert self._blocked(sc) == [(0, "blocked_send", "send to 1 tag 3"),
                                     (1, "blocked_coll", "in world#0:barrier")]

    def test_blocked_recv(self):
        sc = scenario(2)
        sc.programs[0].append(Op(rank=0, op="recv", peer=1, tag=2))
        assert self._blocked(sc, error=StuckP2pError) == [
            (0, "blocked_recv", "recv from 1 tag 2")]

    def test_tb_blocked(self):
        sc = scenario(2, comms={"g": (0, 1)})
        sc.programs[0].append(op_coll(0, comm="g"))
        assert self._blocked(sc, "2pc") == [(0, "tb_blocked", "trivial barrier g")]

    def test_parked(self):
        assert self._blocked(_item2_scenario(), "cc", ckpt=("at_step", 1)) == [
            (0, "blocked_recv", "recv from 1 tag 0"),
            (1, "parked", "round release, at pc 1 coll barrier on g"),
            (2, "parked", "round release, at pc 1 coll barrier on g")]

    def test_parked_before_an_op_with_no_communicator(self):
        # Rank 2 parks as its first barrier on g returns, before a compute;
        # rank 1 parks on entering its second barrier.
        sc = scenario(3, comms={"g": (1, 2)})
        sc.programs[0].append(Op(rank=0, op="recv", peer=1))
        for r in (1, 2):
            sc.programs[r] += [op_coll(r, comm="g"), Op(rank=r, op="compute", ticks=1),
                               op_coll(r, comm="g")]
        sc.programs[1].append(Op(rank=1, op="send", peer=0, data=[7]))
        assert self._blocked(sc, "cc", ckpt=("at_step", 9)) == [
            (0, "blocked_recv", "recv from 1 tag 0"),
            (1, "parked", "round release, at pc 3 coll barrier on g"),
            (2, "parked", "round release, at pc 2 compute")]

    def test_stopped(self):
        # A 2pc rank stopped at its next wrapper is parked, as a cc rank is.
        assert self._blocked(_item2_scenario(), "2pc", ckpt=("at_step", 3)) == [
            (0, "blocked_recv", "recv from 1 tag 0"),
            (1, "parked", "round release, at pc 1 coll barrier on g"),
            (2, "parked", "round release, at pc 1 coll barrier on g")]


class TestCostModel:
    def test_barrier_cost_values(self):
        assert barrier_cost(1) == 0
        assert barrier_cost(2) == 2
        assert barrier_cost(4) == 8
        assert barrier_cost(5) == 15

    def test_collective_cost_table(self):
        assert collective_cost("bcast", 4) == 3
        assert collective_cost("allreduce", 4) == 6
        assert collective_cost("alltoall", 4) == 12
        assert collective_cost("comm_create", 4) == barrier_cost(4)

    def test_unknown_kind_has_no_cost(self):
        with pytest.raises(SimulationError, match=r"^no cost model for kind 'scan'$"):
            collective_cost("scan", 4)


class TestDefensiveChecks:
    def test_a_hook_for_a_stage_the_protocol_never_enters_raises(self):
        sim = Simulator(scenario(2), make_protocol("cc"))
        with pytest.raises(ProtocolViolationError, match=r"^protocol 'cc' never inserts barriers$"):
            sim.protocol.barrier_step(sim, sim.ranks[0])
        sim = Simulator(scenario(2))
        with pytest.raises(ProtocolViolationError,
                           match=r"^protocol 'none' never takes checkpoints$"):
            sim.protocol.quiescent(sim)

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(runtime, "MAX_STEPS", 3)
        sc = scenario(1)
        sc.programs[0].append(Op(rank=0, op="compute", ticks=4))
        with pytest.raises(SimulationError, match=r"^step budget 3 exceeded$"):
            Simulator(sc).run()
        sc = scenario(1)
        sc.programs[0].append(Op(rank=0, op="compute", ticks=3))
        assert Simulator(sc).run().step == 3


class TestDeterminism:
    def test_fixed_trace_replay(self):
        sc = scenario(3)
        for r in range(3):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        rng = random.Random(4)
        picked = []

        def record(enabled):
            picked.append(rng.choice(enabled))
            return picked[-1]

        def replay(enabled):
            actor = next(script)
            assert actor in enabled
            return actor

        first = drive(build(sc)[0], pick=record)
        script = iter(picked)
        again = drive(build(sc)[0], pick=replay)
        assert next(script, None) is None
        assert again.trace_lines() == first.trace_lines()

    @pytest.mark.parametrize("ranks", [8, 16, 32, 64])
    def test_run_draws_like_random_choice(self, ranks):
        """Simulator.run picks among n > 1 enabled ranks what
        random.Random(seed).choice picks, and takes no draw for one."""
        for algorithm in ("none", "cc", "2pc"):
            seed = ranks + len(algorithm)
            sc = generate_workload(seed, ranks=ranks, groups=2, ops=120, p2p_ratio=0.2,
                                   nonblocking_ratio=0.0 if algorithm == "2pc" else 0.3)
            rng, uneven = random.Random(seed), 0

            def pick(enabled):
                nonlocal uneven
                if len(enabled) == 1:
                    return enabled[0]
                uneven += len(enabled) & (len(enabled) - 1) != 0  # a draw may be redrawn
                return rng.choice(enabled)

            driven = drive(Simulator(sc, make_protocol(algorithm), seed=seed), pick=pick)
            ran = Simulator(sc, make_protocol(algorithm), seed=seed).run()
            assert ran.trace_lines() == driven.trace_lines(), algorithm
            assert ran.step == driven.step and ran.checksums() == driven.checksums()
            assert uneven > 10


class _HaltAt:
    """A coordinator stand-in that stops run() once step n is reached: with
    no round, the runtime reads it only through before_step, handle_idle,
    its round flags and fork."""

    requested = declared = False

    def __init__(self, n):
        self.n = n

    def before_step(self, sim):
        if sim.step == self.n:
            sim.halted = True

    def handle_idle(self, sim):
        return False

    def fork(self):
        return _HaltAt(self.n)


class TestForkAfterDraw:
    """Simulator.fork of a runtime whose run() has drawn copies the rng state;
    the explorer never runs a runtime, so only this test reaches that copy."""

    def test_both_continue_like_an_uninterrupted_run(self):
        sc = generate_workload(8, ranks=8, groups=2, ops=120, p2p_ratio=0.2,
                               nonblocking_ratio=0.3)
        whole = Simulator(sc, make_protocol("cc"), seed=8).run()
        stopped = Simulator(sc, make_protocol("cc"), seed=8)
        stopped.coordinator = _HaltAt(whole.step // 2)
        stopped.run()
        assert stopped.halted and 0 < stopped.step < whole.step
        assert stopped.rng.getstate() != random.Random(8).getstate()  # run() has drawn
        twin = stopped.fork()
        assert twin.rng is not stopped.rng and twin.rng.getstate() == stopped.rng.getstate()
        for sim in (stopped, twin):
            sim.halted, sim.coordinator = False, None
            sim.run()
            assert sim.trace_lines() == whole.trace_lines()
            assert sim.step == whole.step and sim.checksums() == whole.checksums()


class TestWidePayloads:
    """A result outside int64 folds its low 64 bits into the checksum."""

    @pytest.mark.parametrize("kind, low", [("allreduce", -2**63), ("bcast", 0)])
    @pytest.mark.parametrize("algorithm", ["none", "cc", "2pc"])
    def test_runs_to_completion(self, kind, low, algorithm):
        result = run(wide_payload_scenario(kind), algorithm)
        assert result.checksums == {0: checksum_fold(0, 0, [low]), 1: checksum_fold(0, 0, [low])}
        assert all(v.passed for v in result.verdicts)

    def test_checkpoint_and_restart_keep_the_checksums(self):
        sc = wide_payload_scenario("allreduce")
        base = run(sc, "cc")
        for step in range(base.sim.step + 1):
            ck = run(sc, "cc", ckpt=("at_step", step))
            assert all(v.passed for v in ck.verdicts), step
            restarted = run_restart(SnapshotImage.loads(ck.snapshot.dumps()))
            assert restarted.checksums == base.checksums, step


def _reference_outputs(inst):
    """``Simulator._compute_outputs`` as it was before it built its outputs at
    C level: per-member copies of the inputs and Python-level combines."""
    kind = inst.signature[0]
    members = inst.members
    if kind in ("barrier", "comm_create"):
        return
    inputs = inst.inputs
    if kind == "bcast":
        root = inst.signature[1]
        data = inputs.get(root)
        if data is None:
            raise CollectiveMismatchError(f"bcast root {root} provided no data in {inst.describe()}")
        for m in members:
            inst.outputs[m] = list(data)
        return
    vectors = []
    for m in members:
        data = inputs.get(m)
        if data is None:
            raise CollectiveMismatchError(f"rank {m} provided no data in {inst.describe()}")
        vectors.append(list(data))
    lengths = {len(v) for v in vectors}
    if len(lengths) != 1:
        raise CollectiveMismatchError(f"ragged inputs in {inst.describe()}: {sorted(lengths)}")
    if kind in ("reduce", "allreduce"):
        combine = (lambda a, b: a + b) if inst.signature[2] == "sum" else max
        fold = list(vectors[0])
        for vec in vectors[1:]:
            fold = [combine(a, b) for a, b in zip(fold, vec)]
        if kind == "reduce":
            inst.outputs[inst.signature[1]] = fold
        else:
            for m in members:
                inst.outputs[m] = list(fold)
    elif kind == "gather":
        flat = [x for vec in vectors for x in vec]
        inst.outputs[inst.signature[1]] = flat
    elif kind == "alltoall":
        if len(vectors[0]) != len(members):
            raise CollectiveMismatchError(
                f"alltoall in {inst.describe()} needs one block per member"
            )
        for i, m in enumerate(members):
            inst.outputs[m] = [inputs[peer][i] for peer in members]
    else:
        raise CollectiveMismatchError(f"unknown collective kind {kind!r}")


@st.composite
def _instance_inputs(draw):
    """(members, signature, inputs) of one completed instance: 1-8 members,
    any kind (an unknown one too), a root that may be no member, and payloads
    that may be ragged, missing or an alltoall with the wrong block count."""
    members = tuple(draw(st.lists(st.integers(0, 11), min_size=1, max_size=8, unique=True)))
    kind = draw(st.sampled_from(["barrier", "comm_create", "bcast", "reduce", "allreduce",
                                 "gather", "alltoall", "scan"]))
    root = draw(st.one_of(st.sampled_from(members), st.integers(0, 11)))
    reduce_op = draw(st.sampled_from(["sum", "max", "min", None]))
    width = len(members) if kind == "alltoall" and draw(st.booleans()) else draw(st.integers(0, 6))
    ints = st.one_of(st.integers(-5, 5), st.integers(-2**70, 2**70))
    inputs = {}
    for m in members:
        data = draw(st.lists(ints, min_size=width, max_size=width))
        inputs[m] = tuple(data) if draw(st.booleans()) else data
    defect = draw(st.sampled_from(["none"] * 5 + ["ragged", "missing", "null"]))
    odd = draw(st.sampled_from(members))
    if defect == "ragged":
        inputs[odd] = draw(st.lists(ints, max_size=6))
    elif defect == "missing":
        del inputs[odd]
    elif defect == "null":
        inputs[odd] = None
    return members, (kind, root, reduce_op, True), inputs


class TestComputeOutputs:
    """Outputs built at C level equal the per-member Python version."""

    @staticmethod
    def _outcome(compute, members, signature, inputs):
        inst = Instance("g", 3, members, signature, True)
        inst.inputs = dict(inputs)
        try:
            compute(inst)
        except CollectiveMismatchError as exc:
            return inst.outputs, (type(exc), str(exc))
        return inst.outputs, None

    @given(_instance_inputs())
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_matches_the_reference(self, case):
        members, signature, inputs = case
        sim = Simulator(scenario(1))
        got, error = self._outcome(sim._compute_outputs, members, signature, inputs)
        want, want_error = self._outcome(_reference_outputs, members, signature, inputs)
        assert error == want_error
        if error is None:
            assert list(got.items()) == list(want.items())
        # every output is a fresh list: no op's payload, no other member's output
        assert all(type(out) is list for out in got.values())
        assert not any(out is data for out in got.values() for data in inputs.values())
        assert len({id(out) for out in got.values()}) == len(got)

    def test_named_error_cases_fail_alike(self):
        # a bcast root without data, ragged inputs, the wrong alltoall block count
        members = (0, 1, 2)
        cases = [
            (("bcast", 0, None, True), {1: [1]}, "bcast root 0 provided no data"),
            (("gather", 0, None, True), {0: [1], 1: [1, 2], 2: [3]}, "ragged inputs"),
            (("alltoall", None, None, True), {m: [m, m] for m in members},
             "needs one block per member"),
        ]
        sim = Simulator(scenario(1))
        for signature, inputs, message in cases:
            got = self._outcome(sim._compute_outputs, members, signature, inputs)
            assert got == self._outcome(_reference_outputs, members, signature, inputs)
            assert message in got[1][1]


def _generated(seed, algorithm):
    """An 8-16 rank generated scenario with p2p ops, and non-blocking
    collectives unless the algorithm is 2pc."""
    return generate_workload(seed, ranks=8 + seed % 9, groups=1 + seed % 3, ops=90,
                             nonblocking_ratio=0.0 if algorithm == "2pc" else 0.4,
                             p2p_ratio=0.24)


class TestReadySet:
    """The incremental ready set equals a full scan at every scheduler step."""

    @pytest.fixture(autouse=True)
    def full_scan_oracle(self, monkeypatch):
        incremental = Simulator.enabled_actors

        def checked(sim):
            ready = incremental(sim)
            assert ready == [r.id for r in sim.ranks if sim._enabled(r)], sim.step
            return ready

        step_actor = Simulator.step_actor

        def stepped(sim, rank_id):
            # run() and the step loops here draw from the ready list only
            # once no rank is left woken: run() reads it itself when none was
            assert not sim._dirty, sim.step
            assert sim._ready == [r.id for r in sim.ranks if sim._enabled(r)], sim.step
            step_actor(sim, rank_id)

        monkeypatch.setattr(Simulator, "enabled_actors", checked)
        monkeypatch.setattr(Simulator, "step_actor", stepped)

    def test_generated_runs_rounds_and_restarts(self):
        updates = aborts = 0
        for seed in range(18):
            for algorithm in ("cc", "2pc"):
                sc = _generated(seed, algorithm)
                base = run(sc, algorithm, seed=seed, record=False, checks=False)
                ck = run(sc, algorithm, seed=seed, ckpt=("at_step", base.sim.step // 2),
                         checks=False)
                updates += ck.sim.counters.target_updates_sent
                aborts += sum(ev["event"] == "tb_abort" for ev in ck.sim.trace)
                restarted = run_restart(ck.snapshot, record=False, checks=False)
                assert ck.checksums == restarted.checksums == base.checksums
        # the rounds exercised the cc cascade and aborted 2pc barriers
        assert updates > 0 and aborts > 0

    @pytest.mark.parametrize("pick", [min, max], ids=["min", "max"])
    def test_direct_step_actor_drivers(self, pick):
        # conftest.drive calls step_actor itself, outside run(), and requests
        # the round mid-run; drive_held then stops half the ranks at a pc.
        rounds = 0
        for seed in range(8):
            for algorithm in ("cc", "2pc"):
                sc = _generated(seed, algorithm)
                half = run(sc, algorithm, seed=seed, record=False, checks=False).sim.step // 2
                sim, coordinator = build(sc, algorithm, seed=seed)
                drive(sim, coordinator, pick=pick, request_when=lambda s: s.step >= half)
                rounds += coordinator.declared
                sim, coordinator = build(sc, algorithm, seed=seed)
                drive_held(sim, {r: len(sc.programs[r]) // 2
                                 for r in range(sc.world_size) if r % 2 == seed % 2})
                coordinator.request_checkpoint(sim)
                drive(sim, coordinator, pick=pick)
                rounds += coordinator.declared
                assert sim.all_finished()
        assert rounds == 32

    def test_a_woken_rank_that_is_no_longer_enabled_leaves_the_list(self):
        # No wake disables a ready rank today; the list must drop one if a wake does.
        sc = scenario(2)
        for r in range(2):
            sc.programs[r].append(op_coll(r))
        sim = Simulator(sc)
        assert sim.enabled_actors() == [0, 1]
        sim.ranks[1].stage = PARKED
        sim.wake([1])
        assert sim.enabled_actors() == [0]

    def test_explored_reproductions(self):
        # unfenced point-to-point: some checkpoint placements deadlock
        unfenced = scenario(3, comms={"g": (1, 2)})
        u = unfenced.programs
        u[0].append(Op(rank=0, op="recv", peer=1))
        u[1] += [op_coll(1, comm="g"), Op(rank=1, op="send", peer=0, data=[1])]
        u[2].append(op_coll(2, comm="g"))
        assert explore_small(same_member_set_scenario(), "cc").passed
        for algorithm in ("cc", "2pc"):
            assert not explore_small(unfenced, algorithm).passed


class TestTracedAndUntracedAgree:
    """record=False builds no trace events; it must change no exact output."""

    def test_an_untraced_run_has_no_trace_lines(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r].append(op_coll(r))
        assert Simulator(sc, record=False).run().trace_lines() == []

    @staticmethod
    def _outputs(result):
        sim = result.sim
        return sim.step, sim.counters.to_dict(), sim.checksums()

    @pytest.mark.parametrize("algorithm", ["none", "cc", "2pc"])
    def test_runs_rounds_snapshots_and_restarts(self, algorithm):
        for seed in range(6):
            sc = _generated(seed, algorithm)
            base = {record: run(sc, algorithm, seed=seed, record=record, checks=False)
                    for record in (False, True)}
            assert self._outputs(base[False]) == self._outputs(base[True])
            if algorithm == "none":
                continue
            at = ("at_step", base[False].sim.step // 2)
            ck = {record: run(sc, algorithm, seed=seed, ckpt=at, record=record, checks=False)
                  for record in (False, True)}
            assert self._outputs(ck[False]) == self._outputs(ck[True])
            assert ck[False].snapshot.dumps() == ck[True].snapshot.dumps()
            restarted = [self._outputs(run_restart(ck[record].snapshot, record=record,
                                                   checks=False))
                         for record in (False, True)]
            assert restarted[0] == restarted[1]
            assert restarted[0][2] == base[False].sim.checksums()
