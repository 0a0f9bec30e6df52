"""Two-phase-commit baseline behavior."""

import pytest

from ccsim import (
    UnsupportedOperationError,
    barrier_cost,
    generate_workload,
    run,
)
from ccsim.runtime import TB_BLOCKED
from ccsim.scenario import Op

from conftest import build, drive, drive_held, op_coll, op_icoll, scenario


def trace_barrier_oracle(none_result):
    """Independent overhead oracle: one barrier per executed blocking
    collective, sized by that collective's communicator."""
    sc = none_result.sim.scenario
    total = 0
    for ev in none_result.sim.trace:
        if ev["event"] == "coll_complete":
            total += barrier_cost(len(sc.comm_members(ev["detail"]["comm"])))
    return total


class TestOverheadAccounting:
    def test_every_collective_costs_one_barrier(self):
        for seed in (0, 1, 2):
            sc = generate_workload(seed + 40, ranks=6, groups=3, ops=50,
                                   nonblocking_ratio=0.0, p2p_ratio=0.2)
            base = run(sc, "none", seed=seed)
            two = run(sc, "2pc", seed=seed)
            oracle = trace_barrier_oracle(base)
            assert two.sim.counters.tpc_barrier_messages == oracle
            assert two.sim.counters.protocol_messages == oracle
            assert two.sim.counters.app_messages == base.sim.counters.app_messages
            assert two.checksums == base.checksums

    def test_nonblocking_scenario_rejected(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "q0"), Op(rank=r, op="wait", request_id="q0")]
        with pytest.raises(UnsupportedOperationError):
            run(sc, "2pc", seed=0)

    def test_random_placement_probe_rejects_nonblocking(self):
        # The probe run that draws the step is rejected when its adapter binds.
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "q0"), Op(rank=r, op="wait", request_id="q0")]
        with pytest.raises(UnsupportedOperationError):
            run(sc, "2pc", seed=0, ckpt=("random", 3))

    def test_adapter_rejects_nonblocking_at_runtime(self):
        from ccsim import Simulator, TwoPhaseCommitProtocol

        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "q0"), Op(rank=r, op="wait", request_id="q0")]
        with pytest.raises(UnsupportedOperationError):
            Simulator(sc, TwoPhaseCommitProtocol(), seed=0).run()

    def test_halted_run_before_the_first_icoll_takes_no_snapshot(self):
        # The snapshot at step 0 would precede the icoll, and its restart
        # would then fail at it: the run is rejected before any step instead.
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_coll(r), op_icoll(r, "q0"),
                               Op(rank=r, op="wait", request_id="q0")]
        with pytest.raises(UnsupportedOperationError, match="non-blocking collectives"):
            run(sc, "2pc", seed=0, ckpt=("at_step", 0), halt_at_snapshot=True)


class TestCheckpointPaths:
    def test_all_in_barrier_completes_collective_first(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_coll(r, kind="allreduce", reduce_op="sum", data=[r + 1]),
                               op_coll(r)]
        sim, coordinator = build(sc, "2pc")
        sim.step_actor(0)  # rank 0 enters the trivial barrier
        sim.step_actor(1)  # rank 1 enters; barrier commits instantly
        assert sim.ranks[0].stage == TB_BLOCKED
        coordinator.request_checkpoint(sim)
        drive(sim, coordinator)
        assert coordinator.declared
        inst = sim.instances[("world", 0)]
        assert inst.complete and inst.returned == {0, 1}
        assert inst.outputs[0] == [3]
        snap = {row["rank"]: row["pc"] for row in coordinator.snapshot.per_rank}
        assert snap == {0: 1, 1: 1}  # the committed collective is behind them
        assert not any(row["protocol"]["aborted_barrier_log"]
                       for row in coordinator.snapshot.per_rank)
        assert sim.all_finished()

    def test_partial_barrier_aborts_and_reenters(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r].append(op_coll(r, kind="allreduce", reduce_op="sum",
                                          data=[r + 5]))
        sim, coordinator = build(sc, "2pc")
        sim.step_actor(0)  # only rank 0 is inside the trivial barrier
        coordinator.request_checkpoint(sim)
        drive(sim, coordinator)
        assert coordinator.declared
        logs = {row["rank"]: row["protocol"]["aborted_barrier_log"]
                for row in coordinator.snapshot.per_rank}
        assert len(logs[0]) == 1 and logs[0][0]["comm"] == "world"
        assert logs[1] == []  # never entered, nothing to re-enter
        snap = {row["rank"]: row["pc"] for row in coordinator.snapshot.per_rank}
        assert snap == {0: 0, 1: 0}  # collective still ahead of both
        # release re-enters the barrier and the collective completes
        assert sim.all_finished()
        assert sim.instances[("world", 0)].outputs[1] == [11]
        # aborted attempt costs nothing; the re-entered barrier costs one
        assert sim.counters.tpc_barrier_messages == barrier_cost(2)

    def test_mixed_instances_decided_independently(self):
        sc = scenario(4, comms={"c1": (0, 1), "c2": (2, 3)})
        sc.programs[0].append(op_coll(0, comm="c1"))
        sc.programs[1].append(op_coll(1, comm="c1"))
        sc.programs[2].append(op_coll(2, comm="c2"))
        sc.programs[3].append(op_coll(3, comm="c2"))
        sim, coordinator = build(sc, "2pc")
        # run the communicator creations to completion first
        drive_held(sim, {0: 2, 1: 2, 2: 2, 3: 2})
        sim.step_actor(0)
        sim.step_actor(1)  # c1's trivial barrier commits
        sim.step_actor(2)  # c2's trivial barrier has one member only
        coordinator.request_checkpoint(sim)
        decisions = [ev for ev in sim.trace if ev["event"] == "tb_decision"]
        assert [d["detail"]["comm"] for d in decisions] == ["c2"]
        drive(sim, coordinator)
        assert coordinator.declared
        assert sim.instances[("c1", 0)].complete
        # the aborted c2 collective only starts after the release
        marker = next(i for i, ev in enumerate(sim.trace) if ev["event"] == "safe_state")
        pre = sim.trace[:marker]
        assert any(ev["event"] == "coll_enter" and ev["detail"]["comm"] == "c1"
                   for ev in pre)
        assert not any(ev["event"] == "coll_enter" and ev["detail"]["comm"] == "c2"
                       for ev in pre)
        assert any(ev["event"] == "tb_abort" and ev["detail"]["comm"] == "c2"
                   for ev in pre)
        assert sim.all_finished()
        assert sim.instances[("c2", 0)].complete  # re-entered after release

    def test_stop_at_wrapper_entry_when_round_pending(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        result = run(sc, "2pc", seed=1, ckpt=("at_step", 0))
        assert result.coordinator.declared
        stops = [ev for ev in result.sim.trace if ev["event"] == "stop"]
        assert stops and all(ev["detail"]["pc"] == 0 for ev in stops)
        assert result.sim.all_finished()


class TestSafeStateSweep:
    def test_rounds_terminate_and_snapshots_verify(self):
        for seed in range(40):
            sc = generate_workload(seed + 300, ranks=3 + seed % 8,
                                   groups=seed % 3, ops=25 + seed,
                                   nonblocking_ratio=0.0,
                                   p2p_ratio=(seed % 3) * 0.15)
            probe = run(sc, "2pc", seed=seed, record=False, checks=False)
            for at in (probe.sim.step // 3, (2 * probe.sim.step) // 3):
                result = run(sc, "2pc", seed=seed, ckpt=("at_step", at))
                assert result.coordinator.declared, (sc.name, at)
                for verdict in result.verdicts:
                    assert verdict.passed, (sc.name, at, verdict.check, verdict.detail)
                assert result.sim.all_finished()


class TestRestartEquivalence:
    def test_checkpoint_restart_matches_uninterrupted(self):
        from ccsim import run_restart

        for seed in (3, 4):
            sc = generate_workload(seed + 70, ranks=5, groups=2, ops=40,
                                   nonblocking_ratio=0.0, p2p_ratio=0.25)
            base = run(sc, "none", seed=seed)
            ck = run(sc, "2pc", seed=seed, ckpt=("at_step", 25))
            assert ck.snapshot is not None
            assert ck.checksums == base.checksums  # resumed original
            restarted = run_restart(ck.snapshot)
            assert restarted.checksums == base.checksums
