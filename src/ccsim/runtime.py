"""Deterministic message-passing runtime.

Logically concurrent ranks execute their operation streams under a
single-threaded event-loop scheduler; every cross-rank effect passes through
the scheduler, so identical (scenario, seed, mode) always produce identical
event logs and metrics.

Semantics implemented here:

* blocking collectives are synchronizing: no member returns before every
  member has entered;
* a non-blocking collective becomes globally complete at exactly the step
  where its last member initiates, independent of any other operation;
* point-to-point uses rendezvous sends matched FIFO per
  (sender, receiver, tag, communicator);
* a consumed request behaves like the null request and tests true forever.

Checkpoint protocols plug in through a small adapter interface; the runtime
itself knows nothing about clocks or inserted barriers beyond the hook points.
"""

from __future__ import annotations

import math
import random
from collections import deque

from .clock import GroupKey, fnv1a64
from .errors import (
    CollectiveMismatchError,
    DeadlockError,
    InvalidConfigurationError,
    ProtocolViolationError,
    ScenarioError,
    SimulationError,
    StuckP2pError,
)
from .scenario import WORLD, Op, ScenarioProgram

_MASK64 = (1 << 64) - 1
COORD = -1  # event-log rank id for the coordinator

# Rank execution stages.
START = "start"
BLOCKED_COLL = "blocked_coll"
TB_BLOCKED = "tb_blocked"
BLOCKED_REQ = "blocked_req"
BLOCKED_SEND = "blocked_send"
BLOCKED_RECV = "blocked_recv"
PARKED = "parked"
STOPPED = "stopped"
FINISHED = "finished"

# Request states.
PENDING = "pending"
COMPLETE = "globally_complete"
CONSUMED = "consumed"

# Adapter hook outcomes.
PROCEED = "proceed"
PARK = "park"
STOP = "stop"
BARRIER = "barrier"
ABORT = "abort"


def barrier_cost(n: int) -> int:
    """Messages of one simulated dissemination barrier over n ranks.

    ceil(log2 n) rounds, n messages per round; zero for a singleton. This is
    the documented cost model used both for the application cost of barriers
    and for the two-phase baseline's inserted barriers.
    """
    if n <= 1:
        return 0
    return n * math.ceil(math.log2(n))


def collective_cost(kind: str, n: int) -> int:
    """Fixed, algorithm-independent message cost of one collective."""
    if kind in ("barrier", "comm_create"):
        return barrier_cost(n)
    if kind in ("bcast", "reduce", "gather"):
        return max(0, n - 1)
    if kind == "allreduce":
        return 2 * max(0, n - 1)
    if kind == "alltoall":
        return n * (n - 1)
    raise SimulationError(f"no cost model for kind {kind!r}")


def checksum_fold(acc: int, op_index: int, values) -> int:
    """Order-independent 64-bit fold of one delivered result.

    Addition modulo 2^64 over per-delivery digests, so two runs that deliver
    the same multiset of (op index, payload) pairs agree exactly regardless
    of scheduling.
    """
    return (acc + fnv1a64([op_index, len(values), *values])) & _MASK64


class RequestObject:
    """Handle for one initiated non-blocking collective on one rank."""

    __slots__ = ("req_id", "owner", "state", "payload", "instance_id", "op_index")

    def __init__(self, req_id, owner, instance_id, op_index):
        self.req_id = req_id
        self.owner = owner
        self.state = PENDING
        self.payload = None
        self.instance_id = instance_id
        self.op_index = op_index

    @property
    def is_null(self):
        return self.state == CONSUMED

    def testable(self):
        """True iff a test would set the completion flag."""
        return self.state in (COMPLETE, CONSUMED)

    def __repr__(self):
        return f"RequestObject({self.req_id}@r{self.owner}:{self.state})"


class CommRecord:
    """Shared representation of a communicator: one per member set + id."""

    __slots__ = ("comm_id", "members", "key")

    def __init__(self, comm_id: str, members):
        self.comm_id = comm_id
        self.members = tuple(members)
        self.key = GroupKey(self.members)

    @property
    def size(self):
        return len(self.members)

    def __repr__(self):
        return f"CommRecord({self.comm_id}:{self.members})"


class CommView:
    """Per-rank opaque handle onto a shared communicator record."""

    __slots__ = ("handle", "record", "local_rank")

    def __init__(self, record: CommRecord, rank: int):
        self.handle = f"{record.comm_id}@r{rank}"
        self.record = record
        self.local_rank = record.members.index(rank)

    @property
    def members(self):
        return self.record.members

    @property
    def comm_id(self):
        return self.record.comm_id


def translate_ranks(comm) -> list:
    """World ranks of a communicator's members; purely local, sends nothing."""
    return list(comm.members)


class Instance:
    """One collective instance: the k-th collective call on a communicator."""

    __slots__ = (
        "comm_id", "index", "members", "signature", "blocking",
        "entered", "returned", "complete", "complete_step", "inputs",
        "outputs", "new_comm", "request_ids", "group_num", "aborted",
    )

    def __init__(self, comm_id, index, members, signature, blocking):
        self.comm_id = comm_id
        self.index = index
        self.members = members
        self.signature = signature
        self.blocking = blocking
        self.entered = set()
        self.returned = set()
        self.complete = False
        self.complete_step = None
        self.inputs = {}
        self.outputs = {}
        self.new_comm = None
        self.request_ids = {}
        self.group_num = {}
        self.aborted = False  # only used for trivial barriers

    def describe(self):
        return f"{self.comm_id}#{self.index}:{self.signature[0]}"


class RankState:
    """Execution state of one simulated process."""

    __slots__ = (
        "id", "program", "pc", "stage", "blocked_ref", "blocked_req",
        "compute_left", "comms", "comm_calls", "requests", "checksum",
        "group_calls", "block_info",
    )

    def __init__(self, rank_id: int, program):
        self.id = rank_id
        self.program = program
        self.pc = 0
        self.stage = START if program else FINISHED
        self.blocked_ref = None
        self.blocked_req = None
        self.compute_left = None
        self.comms = {}
        self.comm_calls = {}
        self.requests = {}
        self.checksum = 0
        self.group_calls = {}
        self.block_info = ""

    def current_op(self) -> Op:
        return self.program[self.pc]

    @property
    def finished(self):
        return self.stage == FINISHED

    def fold(self, op_index, values):
        self.checksum = checksum_fold(self.checksum, op_index, values)


class Scheduler:
    """Deterministic actor picker.

    random: seeded uniform choice among enabled ranks. fixed-trace: replay an
    explicit actor list. exhaustive-small: choices are forced externally by
    the exploration driver, never through pick().
    """

    MODES = ("random", "fixed-trace", "exhaustive-small")

    def __init__(self, seed: int = 0, mode: str = "random", script=None):
        if mode not in self.MODES:
            raise InvalidConfigurationError(f"unknown scheduler mode {mode!r}")
        self.seed = seed
        self.mode = mode
        self.rng = random.Random(seed)
        self.script = list(script) if script else None
        self.script_pos = 0
        self.choices = []

    def pick(self, enabled):
        if self.mode == "exhaustive-small":
            raise SimulationError("exhaustive mode is driven externally")
        if self.mode == "fixed-trace":
            if self.script is None or self.script_pos >= len(self.script):
                raise SimulationError("fixed-trace script exhausted")
            choice = self.script[self.script_pos]
            self.script_pos += 1
            if choice not in enabled:
                raise SimulationError(f"fixed-trace actor {choice} not enabled")
        elif len(enabled) == 1:
            choice = enabled[0]
        else:
            choice = self.rng.choice(enabled)
        self.choices.append(choice)
        return choice


class Counters:
    """Exact message and wrapper accounting for one run."""

    FIELDS = (
        "app_messages", "p2p_messages", "collectives_completed",
        "wrapper_invocations", "target_updates_sent", "target_updates_applied",
        "target_updates_stale", "tpc_barrier_messages", "drain_collectives",
    )

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    @property
    def protocol_messages(self):
        return self.target_updates_sent + self.tpc_barrier_messages

    def to_dict(self):
        d = {name: getattr(self, name) for name in self.FIELDS}
        d["protocol_messages"] = self.protocol_messages
        return d


class ProtocolAdapter:
    """The seam between the runtime and a checkpoint protocol: every hook the
    runtime, coordinator and explorer call, with inert defaults. A hook for a
    stage the adapter never enters raises ProtocolViolationError.
    """

    name = "none"
    supports_checkpoint = False

    def bind(self, sim):
        self.sim = sim

    def _never(self, what):
        raise ProtocolViolationError(f"protocol {self.name!r} never {what}")

    # -------------------------------------------------- runtime wrappers

    def begin_collective(self, rank):
        return PROCEED

    def finish_collective(self, rank):
        return PROCEED

    def begin_nonblocking(self, rank):
        return PROCEED

    def on_request_created(self, rank, req):
        pass

    def on_request_consumed(self, rank, req):
        pass

    def blocked_poll(self, rank):
        pass

    def blocked_has_input(self, rank):
        return False

    def finished_has_input(self, rank):
        return False

    def parked_enabled(self, rank):
        self._never("parks ranks")

    def parked_step(self, rank):
        self._never("parks ranks")

    def stopped_enabled(self, rank):
        self._never("stops ranks")

    def barrier_step(self, rank):
        self._never("inserts barriers")

    def finished_step(self, rank):
        self._never("delivers to finished ranks")

    # ------------------------------------------------ coordinator rounds

    def on_round_start(self, sim, store) -> dict:
        """Start a round; returns the initial targets, by group label."""
        return {}

    def quiescent(self, sim) -> bool:
        """The one safe-state gate, asked whenever no rank can step."""
        self._never("takes checkpoints")

    def drain(self, sim):
        """Check and trace the requests the safe state leaves pending."""

    def assert_safe(self, sim):
        """Protocol-specific checks at a declared safe state."""

    def final_targets(self) -> dict:
        return {}

    def on_round_end(self, sim):
        """Clear round state; the coordinator then releases every rank."""

    def policy(self) -> dict:
        return {}

    def snapshot_rank(self, rank_id: int) -> dict:
        return {}

    def restore_rank(self, rank, saved: dict):
        pass

    def state_key(self):
        """Hashable protocol state for the explorer's deduplication."""
        return ()


class NullProtocol(ProtocolAdapter):
    """Algorithm 'none': collectives run unwrapped, no checkpoint support."""


class Simulator:
    """Event-loop scheduler over rank state machines plus a protocol adapter."""

    def __init__(self, scenario: ScenarioProgram, protocol=None, seed: int = 0,
                 mode: str = "random", script=None, record: bool = True,
                 max_steps: int = 5_000_000):
        if scenario.world_size < 1:
            raise InvalidConfigurationError("world size must be >= 1")
        scenario.validate()
        self.scenario = scenario
        self.world_size = scenario.world_size
        self.protocol = protocol or NullProtocol()
        self.scheduler = Scheduler(seed, mode, script)
        self.max_steps = max_steps
        self.step = 0
        self.halted = False
        self.trace = [] if record else None
        self.counters = Counters()
        self.coordinator = None

        self.comm_records = {WORLD: CommRecord(WORLD, range(self.world_size))}
        self.ranks = [RankState(r, list(scenario.programs[r])) for r in range(self.world_size)]
        for rank in self.ranks:
            rank.comms[WORLD] = CommView(self.comm_records[WORLD], rank.id)

        self.instances = {}        # (comm_id, index) -> Instance
        self.pending_sends = {}    # (src, dst, tag, comm_id) -> deque[(data, op_index)]
        self.pending_recvs = {}    # (src, dst, tag, comm_id) -> deque[op_index]
        self.hb = [[] for _ in range(self.world_size)]  # per rank: (group label, k)

        self.protocol.bind(self)

    # ------------------------------------------------------------- events

    def emit(self, rank_id, event, **detail):
        if self.trace is not None:
            self.trace.append({"step": self.step, "rank": rank_id, "event": event,
                               "detail": detail})

    # --------------------------------------------------------- main loop

    def enabled_actors(self):
        return [r.id for r in self.ranks if self._enabled(r)]

    def run(self):
        while not self.halted:
            if self.coordinator is not None:
                self.coordinator.before_step(self)
            enabled = self.enabled_actors()
            if not enabled:
                if self.coordinator is not None and self.coordinator.handle_idle(self):
                    continue
                if all(r.finished for r in self.ranks):
                    break
                self._raise_deadlock()
            actor = self.scheduler.pick(enabled)
            self.step_actor(actor)
        return self

    def step_actor(self, rank_id: int):
        self._step_rank(self.ranks[rank_id])
        self.step += 1
        if self.step > self.max_steps:
            raise SimulationError(f"step budget {self.max_steps} exceeded")

    def all_finished(self):
        return all(r.finished for r in self.ranks)

    def _raise_deadlock(self):
        blocked = [(r.id, r.stage, r.block_info) for r in self.ranks if not r.finished]
        names = ", ".join(f"rank {rid} ({stage}: {info})" for rid, stage, info in blocked)
        if blocked and all(stage in (BLOCKED_SEND, BLOCKED_RECV) for _, stage, _ in blocked):
            raise StuckP2pError(f"unmatched point-to-point at end of run: {names}", blocked)
        raise DeadlockError(f"no rank can make progress: {names}", blocked)

    # ------------------------------------------------------- enabledness

    def _enabled(self, rank: RankState) -> bool:
        stage = rank.stage
        if stage == START:
            return True
        if stage == BLOCKED_COLL:
            return rank.blocked_ref.complete
        if stage == TB_BLOCKED:
            return rank.blocked_ref.complete or rank.blocked_ref.aborted
        if stage == BLOCKED_REQ:
            return self._requests_satisfied(rank) or self.protocol.blocked_has_input(rank)
        if stage in (BLOCKED_SEND, BLOCKED_RECV):
            return False  # the matching peer completes the rendezvous
        if stage == PARKED:
            return self.protocol.parked_enabled(rank)
        if stage == STOPPED:
            return self.protocol.stopped_enabled(rank)
        # FINISHED: schedulable only to absorb late protocol messages
        return self.protocol.finished_has_input(rank)

    def _requests_satisfied(self, rank: RankState) -> bool:
        mode, rids = rank.blocked_req
        reqs = [rank.requests[rid] for rid in rids]
        if mode == "wait":
            return reqs[0].testable()
        if mode == "waitall":
            return all(rq.testable() for rq in reqs)
        # waitany: satisfied by a completable request, or trivially when all null
        return any(rq.state == COMPLETE for rq in reqs) or all(rq.is_null for rq in reqs)

    # ---------------------------------------------------------- stepping

    def _step_rank(self, rank: RankState):
        stage = rank.stage
        if stage == START:
            self._step_start(rank)
        elif stage == BLOCKED_COLL:
            self._step_collective_return(rank)
        elif stage == TB_BLOCKED:
            self._step_trivial_barrier(rank)
        elif stage == BLOCKED_REQ:
            self.protocol.blocked_poll(rank)
            if self._requests_satisfied(rank):
                self._finish_request_wait(rank)
        elif stage == PARKED:
            # Parked ranks always sit at an op boundary with work remaining.
            if self.protocol.parked_step(rank):
                self.emit(rank.id, "resume")
                rank.stage = START
        elif stage == STOPPED:
            self.emit(rank.id, "resume")
            rank.stage = START
        elif stage == FINISHED:
            self.protocol.finished_step(rank)
        else:
            raise SimulationError(f"rank {rank.id} stepped in stage {stage}")

    def _step_start(self, rank: RankState):
        op = rank.current_op()
        kind = op.op
        if kind in ("coll", "comm_create"):
            outcome = self.protocol.begin_collective(rank)
            if outcome == PARK:
                rank.stage = PARKED
                self.emit(rank.id, "park", at="begin", pc=rank.pc)
            elif outcome == STOP:
                rank.stage = STOPPED
                self.emit(rank.id, "stop", pc=rank.pc)
            elif outcome == BARRIER:
                rank.stage = TB_BLOCKED
                rank.block_info = f"trivial barrier {op.comm}"
            else:
                self._join_collective(rank, op)
        elif kind == "icoll":
            outcome = self.protocol.begin_nonblocking(rank)
            if outcome == PARK:
                rank.stage = PARKED
                self.emit(rank.id, "park", at="begin", pc=rank.pc)
            else:
                self._initiate_nonblocking(rank, op)
        elif kind == "send":
            self._post_send(rank, op)
        elif kind == "recv":
            self._post_recv(rank, op)
        elif kind in ("wait", "test", "waitall", "waitany"):
            self._step_request_op(rank, op)
        elif kind == "compute":
            if rank.compute_left is None:
                rank.compute_left = op.ticks
            rank.compute_left -= 1
            if rank.compute_left <= 0:
                rank.compute_left = None
                self._advance(rank)
        else:
            raise ScenarioError(f"unknown op {kind!r}")

    # ------------------------------------------------------- collectives

    def _signature(self, op: Op):
        if op.op == "comm_create":
            return ("comm_create", op.new_comm, tuple(self.scenario.comms[op.new_comm]))
        return (op.kind, op.root, op.reduce_op, op.op == "coll")

    def _comm_view(self, rank: RankState, op: Op) -> CommView:
        view = rank.comms.get(op.comm)
        if view is None:
            raise ScenarioError(
                f"rank {rank.id} has no handle for communicator {op.comm!r} at pc {rank.pc}"
            )
        return view

    def get_instance(self, comm: CommRecord, index: int, op: Op, blocking: bool) -> Instance:
        key = (comm.comm_id, index)
        inst = self.instances.get(key)
        signature = self._signature(op)
        if inst is None:
            inst = Instance(comm.comm_id, index, comm.members, signature, blocking)
            if op.op == "comm_create":
                inst.new_comm = op.new_comm
            self.instances[key] = inst
        elif inst.signature != signature or inst.blocking != blocking:
            raise CollectiveMismatchError(
                f"collective mismatch on {comm.comm_id}#{index}: rank {op.rank} called "
                f"{signature}, instance is {inst.signature} "
                f"(blocking={inst.blocking}, members={inst.members})"
            )
        return inst

    def _join_collective(self, rank: RankState, op: Op):
        view = self._comm_view(rank, op)
        comm = view.record
        index = rank.comm_calls.get(comm.comm_id, 0)
        rank.comm_calls[comm.comm_id] = index + 1
        inst = self.get_instance(comm, index, op, blocking=True)
        inst.entered.add(rank.id)
        inst.inputs[rank.id] = op.data
        label = comm.key.label()
        k = rank.group_calls.get(label, 0) + 1
        rank.group_calls[label] = k
        inst.group_num[rank.id] = k
        self.hb[rank.id].append((label, k))
        self.counters.wrapper_invocations += 1
        self.emit(rank.id, "coll_enter", comm=comm.comm_id, instance=index,
                  kind=inst.signature[0], group=label, num=k)
        rank.stage = BLOCKED_COLL
        rank.blocked_ref = inst
        rank.block_info = f"in {inst.describe()}"
        if len(inst.entered) == len(inst.members):
            self._complete_instance(inst, rank.id)

    def _complete_instance(self, inst: Instance, completer: int):
        inst.complete = True
        inst.complete_step = self.step
        if inst.blocking:
            nums = set(inst.group_num.values())
            if len(nums) != 1:
                raise CollectiveMismatchError(
                    f"members disagree on instance numbering for {inst.describe()}: {inst.group_num}"
                )
        self._compute_outputs(inst)
        cost_kind = "comm_create" if inst.signature[0] == "comm_create" else inst.signature[0]
        self.counters.app_messages += collective_cost(cost_kind, len(inst.members))
        self.counters.collectives_completed += 1
        self.emit(completer, "coll_complete" if inst.blocking else "icoll_complete",
                  comm=inst.comm_id, instance=inst.index, kind=inst.signature[0])
        if inst.new_comm is not None:
            self._create_comm(inst)
        if not inst.blocking:
            for rank_id, rid in sorted(inst.request_ids.items()):
                req = self.ranks[rank_id].requests[rid]
                req.state = COMPLETE
                req.payload = inst.outputs.get(rank_id)

    def _compute_outputs(self, inst: Instance):
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

    def _create_comm(self, inst: Instance):
        members = inst.signature[2]
        record = self.comm_records.get(inst.new_comm)
        if record is None:
            record = CommRecord(inst.new_comm, members)
            self.comm_records[inst.new_comm] = record
        for m in members:
            self.ranks[m].comms[inst.new_comm] = CommView(record, m)
        self.emit(min(inst.entered), "comm_created", comm=inst.new_comm, members=list(members))

    def _step_collective_return(self, rank: RankState):
        inst = rank.blocked_ref
        inst.returned.add(rank.id)
        output = inst.outputs.get(rank.id)
        if output is not None:
            rank.fold(rank.pc, output)
        elif inst.new_comm is not None and rank.id in inst.signature[2]:
            rank.fold(rank.pc, list(inst.signature[2]))
        self.emit(rank.id, "coll_return", comm=inst.comm_id, instance=inst.index)
        rank.blocked_ref = None
        rank.block_info = ""
        outcome = self.protocol.finish_collective(rank)
        self._advance(rank)
        if outcome == PARK and not rank.finished:
            rank.stage = PARKED
            self.emit(rank.id, "park", at="finish", pc=rank.pc)
        elif outcome == STOP and not rank.finished:
            rank.stage = STOPPED
            self.emit(rank.id, "stop", pc=rank.pc)

    def _step_trivial_barrier(self, rank: RankState):
        tb = rank.blocked_ref
        outcome = self.protocol.barrier_step(rank)
        if outcome == ABORT:
            rank.blocked_ref = None
            rank.block_info = ""
            rank.stage = STOPPED
            self.emit(rank.id, "tb_abort", comm=tb.comm_id, instance=tb.index, pc=rank.pc)
        else:
            rank.blocked_ref = None
            self._join_collective(rank, rank.current_op())

    # ------------------------------------------------------ non-blocking

    def _initiate_nonblocking(self, rank: RankState, op: Op):
        view = self._comm_view(rank, op)
        comm = view.record
        index = rank.comm_calls.get(comm.comm_id, 0)
        rank.comm_calls[comm.comm_id] = index + 1
        inst = self.get_instance(comm, index, op, blocking=False)
        inst.entered.add(rank.id)
        inst.inputs[rank.id] = op.data
        req = RequestObject(op.request_id, rank.id, (comm.comm_id, index), rank.pc)
        rank.requests[op.request_id] = req
        inst.request_ids[rank.id] = op.request_id
        self.protocol.on_request_created(rank, req)
        self.counters.wrapper_invocations += 1
        self.emit(rank.id, "icoll_init", comm=comm.comm_id, instance=index,
                  kind=inst.signature[0], request=op.request_id)
        if len(inst.entered) == len(inst.members):
            self._complete_instance(inst, rank.id)
        self._advance(rank)

    def _step_request_op(self, rank: RankState, op: Op):
        self.protocol.blocked_poll(rank)
        if op.op == "test":
            req = rank.requests.get(op.request_id)
            if req is None:
                raise ScenarioError(f"test on unknown request {op.request_id!r}")
            if req.testable():
                if req.state == COMPLETE:
                    self._consume(rank, req)
                self.emit(rank.id, "test", request=op.request_id, flag=True)
            else:
                self.emit(rank.id, "test", request=op.request_id, flag=False)
            self._advance(rank)
            return
        mode = op.op
        rids = [op.request_id] if mode == "wait" else list(op.request_ids)
        for rid in rids:
            if rid not in rank.requests:
                raise ScenarioError(f"{mode} on unknown request {rid!r}")
        rank.blocked_req = (mode, rids)
        if self._requests_satisfied(rank):
            self._finish_request_wait(rank)
        else:
            rank.stage = BLOCKED_REQ
            rank.block_info = f"{mode} on {rids}"

    def _finish_request_wait(self, rank: RankState):
        mode, rids = rank.blocked_req
        if mode == "waitany":
            for rid in rids:
                req = rank.requests[rid]
                if req.state == COMPLETE:
                    self._consume(rank, req)
                    self.emit(rank.id, "waitany_done", request=rid)
                    break
        else:
            for rid in rids:
                req = rank.requests[rid]
                if req.state == COMPLETE:
                    self._consume(rank, req)
        rank.blocked_req = None
        rank.block_info = ""
        self._advance(rank)

    def _consume(self, rank: RankState, req: RequestObject):
        req.state = CONSUMED
        if req.payload is not None:
            rank.fold(req.op_index, req.payload)
        self.emit(rank.id, "req_consume", request=req.req_id)
        self.protocol.on_request_consumed(rank, req)

    # ---------------------------------------------------- point-to-point

    def _post_send(self, rank: RankState, op: Op):
        key = (rank.id, op.peer, op.tag, op.comm)
        view = self._comm_view(rank, op)
        if op.peer not in view.members:
            raise ScenarioError(f"send peer {op.peer} not in {op.comm}")
        recvq = self.pending_recvs.get(key)
        self.emit(rank.id, "send_post", peer=op.peer, tag=op.tag, comm=op.comm)
        if recvq:
            recv_pc = recvq.popleft()
            self._complete_match(key, rank, self.ranks[op.peer], op.data, recv_pc)
        else:
            self.pending_sends.setdefault(key, deque()).append((list(op.data), rank.pc))
            rank.stage = BLOCKED_SEND
            rank.block_info = f"send to {op.peer} tag {op.tag}"

    def _post_recv(self, rank: RankState, op: Op):
        key = (op.peer, rank.id, op.tag, op.comm)
        view = self._comm_view(rank, op)
        if op.peer not in view.members:
            raise ScenarioError(f"recv peer {op.peer} not in {op.comm}")
        sendq = self.pending_sends.get(key)
        self.emit(rank.id, "recv_post", peer=op.peer, tag=op.tag, comm=op.comm)
        if sendq:
            data, send_pc = sendq.popleft()
            sender = self.ranks[op.peer]
            self._complete_match(key, sender, rank, data, rank.pc)
        else:
            self.pending_recvs.setdefault(key, deque()).append(rank.pc)
            rank.stage = BLOCKED_RECV
            rank.block_info = f"recv from {op.peer} tag {op.tag}"

    def _complete_match(self, key, sender: RankState, receiver: RankState, data, recv_pc):
        src, dst, tag, comm_id = key
        receiver.fold(recv_pc, data)
        self.counters.app_messages += 1
        self.counters.p2p_messages += 1
        self.emit(receiver.id, "p2p_match", src=src, dst=dst, tag=tag, comm=comm_id)
        for peer in (sender, receiver):
            peer.block_info = ""
            self._advance(peer)

    # ----------------------------------------------------------- control

    def _advance(self, rank: RankState):
        rank.pc += 1
        if rank.pc >= len(rank.program):
            self._finish_rank(rank)
        else:
            rank.stage = START

    def _finish_rank(self, rank: RankState):
        rank.stage = FINISHED
        rank.block_info = ""
        self.emit(rank.id, "rank_finished")

    def release_rank(self, rank: RankState):
        """Coordinator hook: wake a parked or stopped rank after a round."""
        if rank.stage in (PARKED, STOPPED):
            rank.stage = START if rank.pc < len(rank.program) else FINISHED
            self.emit(rank.id, "resume")

    # --------------------------------------------------------- trace io

    def trace_lines(self):
        import json

        if self.trace is None:
            return []
        return [json.dumps(entry, sort_keys=True, separators=(",", ":")) for entry in self.trace]

    def checksums(self):
        return {r.id: r.checksum for r in self.ranks}
