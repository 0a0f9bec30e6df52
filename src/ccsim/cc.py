"""The collective-clock checkpoint protocol.

Every wrapped collective call commits a sequence-number increment for its
group before entering the operation and re-checks targets after returning.
With no checkpoint pending this is pure local bookkeeping: the wrapped run
sends exactly the same inter-rank messages as the unwrapped one.

SEQ and TARGET are ``Counter`` tables (see clock.py). At the round's start
every rank's TARGET becomes the per-group maximum of all SEQ tables. While a
checkpoint is pending, a rank whose counter overtakes the known target for a
group raises the target and notifies the other members over an internal
communicator (a duplicate of world, reserved tag), modelled by each rank's
``CcState.update_queue``. A rank that has reached every target parks in a
probe loop and resumes only when an incoming update un-reaches one of its
groups or the coordinator releases the round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .clock import GroupKey, by_label, reached_all_targets
from .errors import ProtocolViolationError, SnapshotLoadError
from .runtime import (
    COMPLETE,
    COORD,
    CONSUMED,
    FINISHED,
    PARK,
    PARKED,
    PROCEED,
    ProtocolAdapter,
    RequestObject,
)

@dataclass(frozen=True)
class TargetUpdateMsg:
    """Rank-to-rank notice that a group's target rose; forks share it."""

    ggid: GroupKey
    new_target: int
    origin: int


class CcState:
    """Per-rank protocol state."""

    __slots__ = ("clock", "targets", "update_queue")

    def __init__(self):
        self.clock = Counter()
        self.targets = Counter()
        self.update_queue = []

    def fork(self):
        twin = CcState.__new__(CcState)
        twin.clock, twin.targets = _copy_counter(self.clock), _copy_counter(self.targets)
        twin.update_queue = list(self.update_queue)
        return twin


def _copy_counter(counts: Counter) -> Counter:
    """``counts.copy()`` at dict level, without ``Counter.__init__``."""
    twin = dict.__new__(Counter)
    dict.update(twin, counts)
    return twin


class CollectiveClockProtocol(ProtocolAdapter):
    """Adapter wiring the collective clock into the runtime's wrapper seam."""

    name = "cc"
    supports_checkpoint = True
    # Communicator creation, itself a collective over the parent, always
    # bumps the parent group's sequence number.
    policy = {"count_comm_create": True}

    def __init__(self):
        self.states = []

    def bind(self, sim):
        self.states = [CcState() for _ in range(sim.world_size)]

    def fork(self, memo):
        twin = super().fork(memo)
        twin.states = [st.fork() for st in self.states]
        return twin

    # ------------------------------------------------------------ wrappers

    def begin_collective(self, sim, rank):
        """commit_begin: probe-park first, then bump the counter and targets.

        A non-blocking initiation commits exactly like a blocking call.
        """
        st = self.states[rank.id]
        if sim.round_pending and reached_all_targets(st.clock, st.targets, rank.id):
            return PARK
        self._commit(sim, rank, st, sim.comm_records[rank.program[rank.pc].comm].key)
        return PROCEED

    def _commit(self, sim, rank, st: CcState, g: GroupKey):
        seq = st.clock[g] + 1
        st.clock[g] = seq
        if sim.trace is not None:
            sim.emit(rank.id, "seq_inc", group=g.label(), value=seq)
        if sim.round_pending:
            sim.counters.drain_collectives += 1
            if seq > st.targets[g]:
                st.targets[g] = seq
                sim.emit(rank.id, "target_raise", group=g.label(), value=seq)
                self._send_updates(sim, rank.id, st, g, seq)

    def finish_collective(self, sim, rank):
        """commit_finish: park when the round is pending and targets are met.

        Exception: point-to-point obligations posted before the rank's next
        wrapped collective must drain first, otherwise a peer that posted its
        half of a rendezvous just before the request would wait forever on a
        parked rank. The park then happens at the next wrapper entry.
        """
        st = self.states[rank.id]
        if sim.round_pending and reached_all_targets(st.clock, st.targets, rank.id):
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

    def _send_updates(self, sim, origin: int, st: CcState, g: GroupKey, value: int):
        for member in g.members:
            if member == origin:
                continue
            self.states[member].update_queue.append(TargetUpdateMsg(g, value, origin))
            sim.counters.target_updates_sent += 1
            sim.emit(origin, "update_sent", group=g.label(), value=value, to=member)
        sim.wake(g.members)

    # ------------------------------------------------------ probe channel

    def _apply_queue(self, sim, rank_id: int, finished: bool) -> bool:
        """Drain every queued update before deciding anything; returns True
        if some target rose (the receiving rank is no longer at its targets).
        """
        st = self.states[rank_id]
        raised = False
        while st.update_queue:
            msg = st.update_queue.pop(0)
            applied = msg.new_target > st.targets[msg.ggid]
            if applied:
                st.targets[msg.ggid] = msg.new_target
                sim.counters.target_updates_applied += 1
                raised = True
            else:
                sim.counters.target_updates_stale += 1
            sim.emit(rank_id, "update_recv", group=msg.ggid.label(),
                     value=msg.new_target, origin=msg.origin, applied=applied)
            if applied and finished:
                raise ProtocolViolationError(
                    f"finished rank {rank_id} received a raising target update for "
                    f"group {{{msg.ggid.label()}}}; members do not run equal counts"
                )
        return raised

    def has_input(self, sim, rank) -> bool:
        """A parked or finished rank takes any queued update. A rank at a wait
        or a test probes only while a round is pending and it has reached its
        targets, as a parked rank would."""
        st = self.states[rank.id]
        if not st.update_queue:
            return False
        if rank.stage in (PARKED, FINISHED):
            return True
        return sim.round_pending and reached_all_targets(st.clock, st.targets, rank.id)

    def take_input(self, sim, rank) -> bool:
        """Apply the queue if there is input; True if a target rose. A parked
        rank sits at its targets, so a risen target is what un-parks it."""
        return self.has_input(sim, rank) and \
            self._apply_queue(sim, rank.id, finished=rank.stage == FINISHED)

    # --------------------------------------------------------- round hooks

    def on_round_start(self, sim):
        """Install the per-group maxima of every clock as every rank's targets."""
        targets = reduce(or_, (st.clock for st in self.states), Counter())
        for st in self.states:
            st.targets = targets.copy()
        initial = by_label(targets)
        sim.emit(COORD, "targets_computed", targets=initial)
        return initial

    def quiescent(self, sim) -> bool:
        """All ranks parked or finished at their targets, no update in flight.
        The one check of the target rule: a rank parks only at its targets,
        and any applied update raises one and resumes it."""
        for rank in sim.ranks:
            st = self.states[rank.id]
            if rank.stage == FINISHED:
                if not reached_all_targets(st.clock, st.targets, rank.id):
                    raise ProtocolViolationError(
                        f"rank {rank.id} finished its program below a target; "
                        "some member runs more collectives on a shared group"
                    )
                continue
            if rank.stage != PARKED:
                return False
        counters = sim.counters
        sent = counters.target_updates_sent
        recv = counters.target_updates_applied + counters.target_updates_stale
        if recv > sent:
            raise ProtocolViolationError(f"applied {recv} updates but only {sent} were sent")
        return sent == recv

    def final_targets(self) -> dict:
        return by_label(reduce(or_, (st.targets for st in self.states), Counter()))

    def on_round_end(self, sim):
        for st in self.states:
            st.targets.clear()

    # ----------------------------------------------------------- snapshot

    def snapshot_rank(self, sim, rank_id: int) -> dict:
        return {
            "clock": by_label(self.states[rank_id].clock),
            "incomplete_requests": {
                rid: {"state": req.state, "payload": req.payload,
                      "op_index": req.op_index}
                for rid, req in sim.ranks[rank_id].live_requests()
            },
        }

    def restore_rank(self, sim, rank, saved: dict):
        # At a safe state the clock counts the wrapped calls before the pc.
        comms = sim.comm_records
        clock = Counter(comms[op.comm].key for op in rank.program[:rank.pc]
                        if op.op in ("coll", "icoll", "comm_create"))
        if saved.get("clock", {}) != by_label(clock):
            raise SnapshotLoadError(
                f"rank {rank.id} clock {saved.get('clock')!r} disagrees with its pc {rank.pc}")
        self.states[rank.id].clock = clock
        records = saved.get("incomplete_requests", {})
        for rid, rec in records.items():
            at, payload = rec["op_index"], rec["payload"]
            op = rank.program[at] if type(at) is int and 0 <= at < rank.pc else None
            if rec["state"] != COMPLETE or op is None or (op.op, op.request_id) != ("icoll", rid):
                raise SnapshotLoadError(
                    f"rank {rank.id} request {rid!r} is not a drained icoll before pc {rank.pc}")
            # A wait or waitall before the pc consumed the request; a waitany, one of its ids.
            for w in rank.program[at + 1:rank.pc]:
                if (w.op == "wait" and w.request_id == rid
                        or w.op == "waitall" and rid in w.request_ids
                        or w.op == "waitany" and rid in w.request_ids
                        and records.keys() >= set(w.request_ids)):
                    raise SnapshotLoadError(
                        f"rank {rank.id} request {rid!r} was consumed before pc {rank.pc}")
            silent = op.kind == "barrier" or (op.kind in ("reduce", "gather") and op.root != rank.id)
            if not (payload is None if silent else
                    type(payload) is list and all(type(x) is int for x in payload)):
                raise SnapshotLoadError(
                    f"rank {rank.id} request {rid!r} payload {payload!r} does not fit {op.kind}")
            req = rank.requests[rid] = RequestObject(at)
            req.state, req.payload = COMPLETE, payload
        # Every other request started before the pc was consumed: it is the null request.
        for at, op in enumerate(rank.program[:rank.pc]):
            if op.op == "icoll" and op.request_id not in records:
                req = rank.requests[op.request_id] = RequestObject(at)
                req.state = CONSUMED

    def state_key(self):
        # The clocks count wrapped calls, which the ranks' pcs and stages fix.
        return tuple(
            (frozenset(st.targets.items()), tuple(st.update_queue))
            for st in self.states
        )
