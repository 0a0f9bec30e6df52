"""Two-phase-commit baseline: a trivial barrier before every blocking collective.

Each wrapped call first runs a dissemination barrier on the same communicator
and only then the real operation, so every executed collective costs exactly
one extra barrier of protocol messages. When a checkpoint request arrives,
an in-progress trivial barrier is committed if every member already entered
it (the collective then completes before the checkpoint) and aborted
otherwise; aborted barriers are re-entered after restart or release.

Non-blocking collectives are rejected: this baseline predates them.
"""

from __future__ import annotations

from .errors import SnapshotLoadError, UnsupportedOperationError
from .runtime import (
    BARRIER,
    COORD,
    FINISHED,
    PARKED,
    Instance,
    PROCEED,
    STOP,
    ProtocolAdapter,
    barrier_cost,
)

ABORT_AND_CHECKPOINT = "abort_and_checkpoint"  # the tb_decision event's decision


class TwoPhaseCommitProtocol(ProtocolAdapter):
    """Adapter for the barrier-insertion baseline."""

    name = "2pc"
    supports_checkpoint = True

    def __init__(self):
        self.aborted_barrier_logs = []  # per rank: {"pc", "comm", "instance"} records
        self.tb_instances = {}  # (comm_id, index) -> Instance

    def bind(self, sim):
        # Rejected before any step, so no run takes a snapshot it cannot resume.
        if any(op.op == "icoll" for op in sim.scenario.ops()):
            raise UnsupportedOperationError(
                "the two-phase-commit baseline does not support non-blocking collectives"
            )
        self.aborted_barrier_logs = [[] for _ in range(sim.world_size)]

    def fork(self, memo):
        # An aborted or completed trivial barrier has left tb_instances but may
        # still be a rank's blocked_ref: the memo keeps it one object.
        twin = super().fork(memo)
        twin.aborted_barrier_logs = [list(log) for log in self.aborted_barrier_logs]
        twin.tb_instances = {key: tb.fork(memo) for key, tb in self.tb_instances.items()}
        return twin

    # ------------------------------------------------------------ wrappers

    def begin_collective(self, sim, rank):
        op = rank.program[rank.pc]
        if sim.round_pending:
            return STOP
        key = (op.comm, op.instance)
        tb = self.tb_instances.get(key)
        if tb is None:
            tb = Instance(op.comm, op.instance, sim.comm_records[op.comm].members,
                          ("trivial_barrier",), True)
            self.tb_instances[key] = tb
        tb.entered.add(rank.id)
        rank.blocked_ref = tb
        sim.counters.wrapper_invocations += 1
        if sim.trace is not None:
            sim.emit(rank.id, "tb_enter", comm=op.comm, instance=op.instance)
        if len(tb.entered) == len(tb.members):
            tb.complete = True
            sim.wake(tb.members)
            cost = barrier_cost(len(tb.members))
            sim.counters.tpc_barrier_messages += cost
            if sim.trace is not None:
                sim.emit(rank.id, "tb_complete", comm=op.comm, instance=op.instance, cost=cost)
            del self.tb_instances[key]
        return BARRIER

    def barrier_step(self, sim, rank):
        tb = rank.blocked_ref
        if tb.aborted:
            self.aborted_barrier_logs[rank.id].append(
                {"pc": rank.pc, "comm": tb.comm_id, "instance": tb.index})
            return STOP
        return PROCEED

    def finish_collective(self, sim, rank):
        # Committed collectives complete before the checkpoint, but the rank
        # halts only at its next wrapper entry: intervening point-to-point
        # ops must drain so a matched peer is never stranded.
        if sim.round_pending:
            sim.counters.drain_collectives += 1
        return PROCEED

    # --------------------------------------------------------- round hooks

    def on_round_start(self, sim):
        # Abort every in-progress trivial barrier. A barrier leaves the table
        # when its last member enters (committed), so each one still here
        # misses a member.
        for key in sorted(self.tb_instances):
            tb = self.tb_instances[key]
            tb.aborted = True
            sim.emit(COORD, "tb_decision", comm=tb.comm_id, instance=tb.index,
                     decision=ABORT_AND_CHECKPOINT, entered=sorted(tb.entered))
        self.tb_instances.clear()
        return {}

    def quiescent(self, sim) -> bool:
        return all(r.stage in (PARKED, FINISHED) for r in sim.ranks)

    # ----------------------------------------------------------- snapshot

    def snapshot_rank(self, sim, rank_id: int) -> dict:
        # The coordinator has checked that every rank is parked or finished.
        return {"aborted_barrier_log": list(self.aborted_barrier_logs[rank_id])}

    def restore_rank(self, sim, rank, saved: dict):
        # Each record names the wrapped collective, at or before the pc, whose
        # trivial barrier the rank aborted: its comm and its instance are the op's.
        log = saved.get("aborted_barrier_log", [])
        if type(log) is not list:
            raise SnapshotLoadError(f"rank {rank.id} aborted-barrier log {log!r} is not a list")
        for rec in log:
            pc = rec["pc"] if type(rec) is dict and rec.keys() == {"pc", "comm", "instance"} else None
            op = (rank.program[pc] if type(pc) is int and 0 <= pc <= rank.pc
                  and pc < len(rank.program) else None)
            if (op is None or op.op not in ("coll", "comm_create") or rec["comm"] != op.comm
                    or type(rec["instance"]) is not int or rec["instance"] != op.instance):
                raise SnapshotLoadError(
                    f"rank {rank.id} aborted-barrier record {rec!r} names no collective "
                    f"at or before pc {rank.pc}")
        self.aborted_barrier_logs[rank.id] = list(log)

    def state_key(self):
        # Live barriers follow from pcs and stages, aborted ones do not; a record's pc fixes it.
        return tuple(tuple(rec["pc"] for rec in log) for log in self.aborted_barrier_logs)

