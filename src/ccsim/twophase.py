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

from .errors import ProtocolViolationError, UnsupportedOperationError
from .runtime import (
    ABORT,
    BARRIER,
    COORD,
    FINISHED,
    Instance,
    PROCEED,
    STOP,
    STOPPED,
    ProtocolAdapter,
    barrier_cost,
)

COMPLETE_THEN_CHECKPOINT = "complete_then_checkpoint"
ABORT_AND_CHECKPOINT = "abort_and_checkpoint"


def tpc_safe_state_decision(entered_flags) -> str:
    """Per-instance decision at checkpoint time.

    ``entered_flags`` holds one boolean per member of the communicator:
    whether that member is inside the trivial barrier. Everyone in means the
    wrapped collective is committed and must complete before the checkpoint.
    """
    flags = list(entered_flags)
    return COMPLETE_THEN_CHECKPOINT if flags and all(flags) else ABORT_AND_CHECKPOINT


class TpcState:
    __slots__ = ("in_trivial_barrier", "aborted_barrier_log")

    def __init__(self):
        self.in_trivial_barrier = False
        self.aborted_barrier_log = []


class TwoPhaseCommitProtocol(ProtocolAdapter):
    """Adapter for the barrier-insertion baseline."""

    name = "2pc"
    supports_checkpoint = True

    def __init__(self):
        self.sim = None
        self.states = []
        self.pending = False
        self.tb_instances = {}  # (comm_id, index) -> Instance

    def bind(self, sim):
        super().bind(sim)
        self.states = [TpcState() for _ in range(sim.world_size)]

    # ------------------------------------------------------------ wrappers

    def begin_collective(self, rank):
        if self.pending:
            return STOP
        op = rank.current_op()
        view = rank.comms[op.comm]
        index = rank.comm_calls.get(op.comm, 0)  # peek; join increments later
        key = (op.comm, index)
        tb = self.tb_instances.get(key)
        if tb is None:
            tb = Instance(op.comm, index, view.record.members, ("trivial_barrier",), True)
            self.tb_instances[key] = tb
        tb.entered.add(rank.id)
        self.states[rank.id].in_trivial_barrier = True
        rank.blocked_ref = tb
        self.sim.counters.wrapper_invocations += 1
        self.sim.emit(rank.id, "tb_enter", comm=op.comm, instance=index)
        if len(tb.entered) == len(tb.members):
            tb.complete = True
            self.sim.counters.tpc_barrier_messages += barrier_cost(len(tb.members))
            self.sim.emit(rank.id, "tb_complete", comm=op.comm, instance=index,
                          cost=barrier_cost(len(tb.members)))
            del self.tb_instances[key]
        return BARRIER

    def barrier_step(self, rank):
        tb = rank.blocked_ref
        self.states[rank.id].in_trivial_barrier = False
        if tb.aborted:
            self.states[rank.id].aborted_barrier_log.append(
                {"pc": rank.pc, "comm": tb.comm_id, "instance": tb.index})
            return ABORT
        return PROCEED

    def finish_collective(self, rank):
        # Committed collectives complete before the checkpoint, but the rank
        # halts only at its next wrapper entry: intervening point-to-point
        # ops must drain so a matched peer is never stranded.
        if self.pending:
            self.sim.counters.drain_collectives += 1
        return PROCEED

    def begin_nonblocking(self, rank):
        raise UnsupportedOperationError(
            "the two-phase-commit baseline does not support non-blocking collectives"
        )

    def stopped_enabled(self, rank):
        return not self.pending

    # --------------------------------------------------------- round hooks

    def on_round_start(self, sim, store):
        self.pending = True
        # Decide every in-progress trivial barrier. Complete ones were
        # already committed when their last member entered; the rest abort.
        for key in sorted(self.tb_instances):
            tb = self.tb_instances[key]
            decision = tpc_safe_state_decision(m in tb.entered for m in tb.members)
            if decision == ABORT_AND_CHECKPOINT:
                tb.aborted = True
                sim.emit(COORD, "tb_decision", comm=tb.comm_id, instance=tb.index,
                         decision=decision, entered=sorted(tb.entered))
        for key, tb in list(self.tb_instances.items()):
            if tb.aborted:
                del self.tb_instances[key]
        return {}

    def quiescent(self, sim) -> bool:
        return all(r.stage in (STOPPED, FINISHED) for r in sim.ranks)

    def on_round_end(self, sim):
        self.pending = False

    # ----------------------------------------------------------- snapshot

    def snapshot_rank(self, rank_id: int) -> dict:
        st = self.states[rank_id]
        if st.in_trivial_barrier:
            raise ProtocolViolationError(
                f"rank {rank_id} is inside a trivial barrier at snapshot time"
            )
        return {"aborted_barrier_log": list(st.aborted_barrier_log)}

    def restore_rank(self, rank, saved: dict):
        self.states[rank.id].aborted_barrier_log = list(saved.get("aborted_barrier_log", []))

    def state_key(self):
        rows = tuple(
            (st.in_trivial_barrier, tuple(sorted(map(str, st.aborted_barrier_log))))
            for st in self.states)
        tbs = tuple(sorted(
            (key, tuple(sorted(inst.entered)), inst.complete, inst.aborted)
            for key, inst in self.tb_instances.items()))
        return (self.pending, rows, tbs)
