"""The collective-clock checkpoint protocol.

Every wrapped collective call commits a sequence-number increment for its
group before entering the operation and re-checks targets after returning.
With no checkpoint pending this is pure local bookkeeping: the wrapped run
sends exactly the same inter-rank messages as the unwrapped one.

While a checkpoint is pending, a rank whose counter overtakes the known
target for a group raises the target and notifies the other members over an
internal communicator (a duplicate of world, reserved tag). A rank that has
reached every target parks in a probe loop and resumes only when an incoming
update un-reaches one of its groups or the coordinator releases the round.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clock import CollectiveClock, GroupKey, TargetTable, compute_targets, reached_all_targets
from .errors import ProtocolViolationError
from .runtime import (
    COMPLETE,
    COORD,
    CONSUMED,
    FINISHED,
    PARK,
    PARKED,
    PENDING,
    PROCEED,
    CommRecord,
    ProtocolAdapter,
    RequestObject,
)

# Reserved tag for target updates on the internal communicator.
UPDATE_TAG = 0x75706474
INTERNAL_COMM_ID = "__internal__"


@dataclass
class TargetUpdateMsg:
    """Rank-to-rank notice that a group's target rose."""

    ggid: GroupKey
    new_target: int
    origin: int

    def to_json(self):
        return {"ggid": self.ggid.label(), "new_target": self.new_target,
                "origin": self.origin, "tag": UPDATE_TAG}


class CcState:
    """Per-rank protocol state."""

    __slots__ = ("clock", "targets", "ckpt_pending", "incomplete_requests",
                 "update_queue", "update_sent_count", "update_recv_count")

    def __init__(self):
        self.clock = CollectiveClock()
        self.targets = TargetTable()
        self.ckpt_pending = False
        self.incomplete_requests = {}
        self.update_queue = []
        self.update_sent_count = 0
        self.update_recv_count = 0


class CollectiveClockProtocol(ProtocolAdapter):
    """Adapter wiring the collective clock into the runtime's wrapper seam."""

    name = "cc"
    supports_checkpoint = True

    def __init__(self, count_comm_create: bool = True):
        # Policy switch: whether communicator creation (itself a collective
        # over the parent) bumps the parent group's sequence number.
        self.count_comm_create = count_comm_create
        self.sim = None
        self.states = []
        self.internal_comm = None

    def bind(self, sim):
        super().bind(sim)
        self.states = [CcState() for _ in range(sim.world_size)]
        self.internal_comm = CommRecord(INTERNAL_COMM_ID, range(sim.world_size))

    # ------------------------------------------------------------ wrappers

    def _group_of(self, rank) -> GroupKey:
        op = rank.current_op()
        view = rank.comms[op.comm]
        return view.record.key

    def begin_collective(self, rank):
        """commit_begin: probe-park first, then bump the counter and targets."""
        st = self.states[rank.id]
        if st.ckpt_pending and reached_all_targets(st.clock, st.targets, rank.id):
            return PARK
        op = rank.current_op()
        if op.op == "comm_create" and not self.count_comm_create:
            return PROCEED
        self._commit(rank, st, self._group_of(rank))
        return PROCEED

    def begin_nonblocking(self, rank):
        """Initiation commits the counter exactly like a blocking call."""
        st = self.states[rank.id]
        if st.ckpt_pending and reached_all_targets(st.clock, st.targets, rank.id):
            return PARK
        self._commit(rank, st, self._group_of(rank))
        return PROCEED

    def _commit(self, rank, st: CcState, g: GroupKey):
        seq = st.clock.increment(g)
        self.sim.emit(rank.id, "seq_inc", group=g.label(), value=seq)
        if st.ckpt_pending:
            self.sim.counters.drain_collectives += 1
            if seq > st.targets.get(g):
                st.targets.raise_to(g, seq)
                self.sim.emit(rank.id, "target_raise", group=g.label(), value=seq)
                self._send_updates(rank.id, st, g, seq)

    def finish_collective(self, rank):
        """commit_finish: park when the round is pending and targets are met.

        Exception: point-to-point obligations posted before the rank's next
        wrapped collective must drain first, otherwise a peer that posted its
        half of a rendezvous just before the request would wait forever on a
        parked rank. The park then happens at the next wrapper entry.
        """
        st = self.states[rank.id]
        if st.ckpt_pending and reached_all_targets(st.clock, st.targets, rank.id):
            if self._p2p_before_next_wrapper(rank):
                return PROCEED
            return PARK
        return PROCEED

    @staticmethod
    def _p2p_before_next_wrapper(rank) -> bool:
        # Called from inside the finishing wrapper: pc still points at it.
        for op in rank.program[rank.pc + 1:]:
            if op.op in ("coll", "icoll", "comm_create"):
                return False
            if op.op in ("send", "recv"):
                return True
        return False

    def _send_updates(self, origin: int, st: CcState, g: GroupKey, value: int):
        for member in g.members:
            if member == origin:
                continue
            self.states[member].update_queue.append(TargetUpdateMsg(g, value, origin))
            st.update_sent_count += 1
            self.sim.counters.target_updates_sent += 1
            self.sim.emit(origin, "update_sent", group=g.label(), value=value, to=member)

    # ------------------------------------------------------------ requests

    def on_request_created(self, rank, req):
        self.states[rank.id].incomplete_requests[req.req_id] = req

    def on_request_consumed(self, rank, req):
        self.states[rank.id].incomplete_requests.pop(req.req_id, None)

    # ------------------------------------------------------ probe channel

    def _apply_queue(self, rank_id: int, finished: bool = False) -> bool:
        """Drain every queued update before deciding anything; returns True
        if some target rose (the receiving rank is no longer at its targets).
        """
        st = self.states[rank_id]
        raised = False
        while st.update_queue:
            msg = st.update_queue.pop(0)
            st.update_recv_count += 1
            applied = st.targets.raise_to(msg.ggid, msg.new_target)
            if applied:
                self.sim.counters.target_updates_applied += 1
                raised = True
            else:
                self.sim.counters.target_updates_stale += 1
            self.sim.emit(rank_id, "update_recv", group=msg.ggid.label(),
                          value=msg.new_target, origin=msg.origin, applied=applied)
            if applied and finished:
                raise ProtocolViolationError(
                    f"finished rank {rank_id} received a raising target update for "
                    f"group {{{msg.ggid.label()}}}; members do not run equal counts"
                )
        return raised

    def parked_enabled(self, rank):
        st = self.states[rank.id]
        return bool(st.update_queue) or not st.ckpt_pending

    def parked_step(self, rank) -> bool:
        st = self.states[rank.id]
        if not st.ckpt_pending:
            return True
        self._apply_queue(rank.id)
        return not reached_all_targets(st.clock, st.targets, rank.id)

    def blocked_has_input(self, rank):
        st = self.states[rank.id]
        if not st.update_queue or not st.ckpt_pending:
            return False
        return reached_all_targets(st.clock, st.targets, rank.id)

    def blocked_poll(self, rank):
        st = self.states[rank.id]
        if st.ckpt_pending and st.update_queue and \
                reached_all_targets(st.clock, st.targets, rank.id):
            self._apply_queue(rank.id)

    def finished_has_input(self, rank):
        return bool(self.states[rank.id].update_queue)

    def finished_step(self, rank):
        self._apply_queue(rank.id, finished=True)

    # --------------------------------------------------------- round hooks

    def on_round_start(self, sim, store):
        """Deliver the pending flag, gather every clock, install the maxima."""
        for rank in sim.ranks:
            st = self.states[rank.id]
            st.ckpt_pending = True
            store.add_report(rank.id, st.clock.copy())
        targets = compute_targets(store, sim.world_size)
        for st in self.states:
            st.targets.install(targets)
        initial = _by_label(targets)
        sim.emit(COORD, "targets_computed", targets=initial)
        return initial

    def quiescent(self, sim) -> bool:
        """All ranks parked or finished at their targets, no update in flight."""
        for rank in sim.ranks:
            st = self.states[rank.id]
            if rank.stage == FINISHED:
                if st.ckpt_pending and not reached_all_targets(st.clock, st.targets, rank.id):
                    raise ProtocolViolationError(
                        f"rank {rank.id} finished its program below a target; "
                        "some member runs more collectives on a shared group"
                    )
                continue
            if rank.stage != PARKED:
                return False
        sent = sum(st.update_sent_count for st in self.states)
        recv = sum(st.update_recv_count for st in self.states)
        if recv > sent:
            raise ProtocolViolationError(f"applied {recv} updates but only {sent} were sent")
        return sent == recv

    def drain(self, sim):
        """Test every registered incomplete request; all must be complete.

        At a declared safe state every member of each initiated non-blocking
        collective has initiated it, so global completion already happened;
        requests stay unconsumed for the application.
        """
        for rank in sim.ranks:
            st = self.states[rank.id]
            for rid in sorted(st.incomplete_requests):
                req = st.incomplete_requests[rid]
                if req.state == PENDING:
                    inst = sim.instances.get(req.instance_id)
                    missing = sorted(set(inst.members) - inst.entered) if inst else "?"
                    raise ProtocolViolationError(
                        f"request {rid} on rank {rank.id} cannot complete at the safe "
                        f"state; members {missing} never initiated {req.instance_id}"
                    )
                inst = sim.instances.get(req.instance_id)
                if inst is not None and len(inst.entered) != len(inst.members):
                    # requests restored from a snapshot carry no live instance
                    raise ProtocolViolationError(
                        f"complete request {rid} with missing initiators in {req.instance_id}"
                    )
                sim.emit(rank.id, "drain_request", request=rid, state=req.state)

    def assert_safe(self, sim):
        for rank in sim.ranks:
            st = self.states[rank.id]
            if not reached_all_targets(st.clock, st.targets, rank.id):
                raise ProtocolViolationError(
                    f"rank {rank.id} below target at declared safe state"
                )
            for rid, req in st.incomplete_requests.items():
                if req.state not in (COMPLETE, CONSUMED):
                    raise ProtocolViolationError(
                        f"request {rid} not globally complete at safe state"
                    )

    def final_targets(self) -> dict:
        merged = {}
        for st in self.states:
            for g, v in st.targets.items():
                if v > merged.get(g, 0):
                    merged[g] = v
        return _by_label(merged)

    def on_round_end(self, sim):
        for st in self.states:
            st.ckpt_pending = False
            st.targets.clear()

    def policy(self) -> dict:
        return {"count_comm_create": self.count_comm_create}

    # ----------------------------------------------------------- snapshot

    def snapshot_rank(self, rank_id: int) -> dict:
        st = self.states[rank_id]
        return {
            "clock": st.clock.to_json(),
            "incomplete_requests": {
                rid: {"state": req.state, "payload": req.payload,
                      "op_index": req.op_index}
                for rid, req in sorted(st.incomplete_requests.items())
            },
        }

    def restore_rank(self, rank, saved: dict):
        st = self.states[rank.id]
        st.clock = CollectiveClock.from_json(saved.get("clock", {}))
        for rid, rec in saved.get("incomplete_requests", {}).items():
            req = RequestObject(rid, rank.id, None, rec["op_index"])
            req.state = rec["state"]
            req.payload = rec["payload"]
            if req.state == PENDING:
                raise ProtocolViolationError(f"snapshot holds a pending request {rid}")
            rank.requests[rid] = req
            st.incomplete_requests[rid] = req

    def state_key(self):
        return tuple(
            (
                tuple(sorted(st.clock.to_json().items())),
                tuple(sorted(st.targets.to_json().items())),
                st.ckpt_pending,
                tuple(sorted(st.incomplete_requests)),
                tuple((m.ggid.label(), m.new_target, m.origin) for m in st.update_queue),
                st.update_sent_count, st.update_recv_count,
            )
            for st in self.states
        )


def _by_label(targets: dict) -> dict:
    """Targets keyed by group label, in member order."""
    return {g.label(): v for g, v in sorted(targets.items(), key=lambda kv: kv[0].members)}
