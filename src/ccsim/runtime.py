"""Deterministic message-passing runtime.

Logically concurrent ranks execute their operation streams under a
single-threaded event-loop scheduler; every cross-rank effect passes through
the scheduler, so identical (scenario, seed) always produce identical
event logs and metrics.

Semantics implemented here:

* blocking collectives are synchronizing: no member returns before every
  member has entered;
* a non-blocking collective becomes globally complete at exactly the step
  where its last member initiates, independent of any other operation;
* point-to-point is rendezvous: a send or recv blocks until the peer posts
  the matching half, so a pair has at most one open post and its order is
  the program order;
* a consumed request behaves like the null request and tests true forever.

Checkpoint protocols plug in through a small adapter interface; the runtime
itself knows nothing about clocks or inserted barriers beyond the hook points.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import chain
from operator import add

from .clock import GroupKey, fnv1a64
from .errors import (
    CollectiveMismatchError,
    DeadlockError,
    ProtocolViolationError,
    SimulationError,
    StuckP2pError,
)
from .scenario import Op, ScenarioProgram, encode

_MASK64 = (1 << 64) - 1
COORD = -1  # event-log rank id for the coordinator
MAX_STEPS = 5_000_000  # step budget of one run

# Rank execution stages.
START = "start"
BLOCKED_COLL = "blocked_coll"
TB_BLOCKED = "tb_blocked"
BLOCKED_REQ = "blocked_req"
BLOCKED_SEND = "blocked_send"
BLOCKED_RECV = "blocked_recv"
PARKED = "parked"
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
    of scheduling. A delivery's digest is ``fnv1a64([op_index, len(values),
    *values])``, hashed as the header and then the payload, with no joined list.
    """
    return (acc + fnv1a64(values, fnv1a64((op_index, len(values))))) & _MASK64


class RequestObject:
    """Handle for one initiated non-blocking collective on one rank. The
    icoll op at ``op_index`` names the request and its instance."""

    __slots__ = ("state", "payload", "op_index")

    def __init__(self, op_index):
        self.state = PENDING
        self.payload = None
        self.op_index = op_index

    def testable(self):
        """True iff a test would set the completion flag."""
        return self.state in (COMPLETE, CONSUMED)

    def fork(self):
        """A copy for a forked runtime; a consumed request is final, so
        ``RankState.fork`` shares it instead."""
        twin = RequestObject(self.op_index)
        twin.state, twin.payload = self.state, self.payload
        return twin


class CommRecord:
    """A communicator's one record: built by ``Simulator.__init__`` for each
    communicator of the scenario, and shared by forks, as no step changes it."""

    __slots__ = ("comm_id", "members", "key")

    def __init__(self, comm_id: str, members, key: GroupKey):
        self.comm_id = comm_id
        self.members = tuple(members)
        self.key = key


def wait_ids(op: Op) -> list:
    """The request ids a wait, waitall or waitany op names, in its order."""
    return [op.request_id] if op.op == "wait" else op.request_ids


class Instance:
    """One collective instance: the k-th collective call on a communicator.
    A comm_create's signature is ("comm_create", new comm id, its members)."""

    __slots__ = (
        "comm_id", "index", "members", "signature", "blocking",
        "entered", "returned", "complete", "inputs",
        "outputs", "request_ids", "aborted",
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
        self.inputs = {}
        self.outputs = {}
        self.request_ids = {}
        self.aborted = False  # only used for trivial barriers

    def describe(self):
        return f"{self.comm_id}#{self.index}:{self.signature[0]}"

    def settled(self) -> bool:
        """Complete, and either returned by every member or non-blocking: no
        step writes to it again, as every member has entered and a
        non-blocking instance's results already sit on its requests. No
        rank's ``blocked_ref`` and no 2pc live trivial barrier is settled."""
        return self.complete and (not self.blocking or len(self.returned) == len(self.members))

    def fork(self, memo):
        """This instance's copy in a forked runtime. memo maps the id() of an
        original to its copy, so every holder of one instance (the instance
        table, ranks' blocked_ref, an adapter's table) gets the same copy.
        ``Simulator.fork`` shares a settled instance instead."""
        twin = memo.get(id(self))
        if twin is None:
            twin = memo[id(self)] = Instance(
                self.comm_id, self.index, self.members, self.signature, self.blocking)
            twin.entered, twin.returned = set(self.entered), set(self.returned)
            twin.complete, twin.aborted = self.complete, self.aborted
            twin.inputs, twin.outputs = dict(self.inputs), dict(self.outputs)
            twin.request_ids = dict(self.request_ids)
        return twin


class RankState:
    """Execution state of one simulated process. It counts no calls (see ``Op``)."""

    __slots__ = (
        "id", "program", "pc", "stage", "blocked_ref", "compute_left",
        "requests", "checksum",
    )

    def __init__(self, rank_id: int, program):
        self.id = rank_id
        self.program = program
        self.pc = 0
        self.stage = START if program else FINISHED
        self.blocked_ref = None
        self.compute_left = None
        self.requests = {}
        self.checksum = 0

    def current_op(self) -> Op:
        return self.program[self.pc]

    def live_requests(self) -> list:
        """The unconsumed requests, as (id, request) pairs sorted by id."""
        return sorted((rid, req) for rid, req in self.requests.items() if req.state != CONSUMED)

    @property
    def finished(self):
        return self.stage == FINISHED

    def block_reason(self) -> str:
        """What a blocked rank waits for, as a deadlock report names it."""
        stage = self.stage
        if stage == BLOCKED_COLL:
            return f"in {self.blocked_ref.describe()}"
        if stage == BLOCKED_REQ:
            op = self.current_op()
            return f"{op.op} on {list(wait_ids(op))}"
        if stage == TB_BLOCKED:
            return f"trivial barrier {self.current_op().comm}"
        if stage == BLOCKED_SEND:
            return f"send to {self.current_op().peer} tag {self.current_op().tag}"
        if stage == BLOCKED_RECV:
            return f"recv from {self.current_op().peer} tag {self.current_op().tag}"
        # PARKED: the other stage a rank that cannot step has
        op = self.current_op()
        what = op.op if op.kind is None else f"{op.op} {op.kind}"
        if op.op in ("coll", "icoll", "send", "recv"):  # the ops whose comm is used
            what += f" on {op.comm}"
        return f"round release, at pc {self.pc} {what}"

    def fork(self, memo):
        """A copy for a forked runtime; the program is shared: it is a tuple
        of the frozen scenario's ops."""
        twin = RankState.__new__(RankState)
        twin.id, twin.program, twin.pc, twin.stage = self.id, self.program, self.pc, self.stage
        twin.blocked_ref = None if self.blocked_ref is None else self.blocked_ref.fork(memo)
        twin.compute_left, twin.checksum = self.compute_left, self.checksum
        twin.requests = {rid: req if req.state == CONSUMED else req.fork()
                         for rid, req in self.requests.items()} if self.requests else {}
        return twin


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

    def fork(self):
        twin = Counters.__new__(Counters)
        twin.__dict__.update(self.__dict__)
        return twin


class ProtocolAdapter:
    """The seam between the runtime and a checkpoint protocol: every hook the
    runtime, coordinator and explorer call, with inert defaults. A hook for a
    stage the adapter never enters raises ProtocolViolationError.

    Every hook that needs the runtime gets it as its first argument; no
    adapter keeps a reference to it, so the runtime's object graph has no
    cycle and a dropped runtime is freed by reference counting.
    """

    name = "none"
    supports_checkpoint = False
    policy = {}  # the snapshot's "policy" field, fixed per protocol

    def bind(self, sim):
        """Set up per-rank state for sim's world, or reject a scenario the
        protocol cannot run; adapters with neither inherit this."""

    def fork(self, memo):
        """An independent adapter in this one's state, for Simulator.fork; memo
        is the runtime's Instance memo (see Instance.fork). Adapters with
        per-rank state copy it in an override."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    def _never(self, what):
        raise ProtocolViolationError(f"protocol {self.name!r} never {what}")

    # -------------------------------------------------- runtime wrappers

    def begin_collective(self, sim, rank):
        return PROCEED

    def finish_collective(self, sim, rank):
        return PROCEED

    def barrier_step(self, sim, rank):
        self._never("inserts barriers")

    def has_input(self, sim, rank) -> bool:
        """Whether a parked or finished rank, or one at a wait or a test, has
        protocol input to take."""
        return False

    def take_input(self, sim, rank) -> bool:
        """Take the rank's protocol input; True resumes a parked rank."""
        return False

    # ------------------------------------------------ coordinator rounds

    def on_round_start(self, sim) -> dict:
        """Start a round; returns the initial targets, by group label in
        ``clock.by_label``'s order, which the explorer's state key keeps."""
        return {}

    def quiescent(self, sim) -> bool:
        """The one safe-state gate, asked whenever no rank can step."""
        self._never("takes checkpoints")

    def final_targets(self) -> dict:
        return {}

    def on_round_end(self, sim):
        """Clear round state; the coordinator then releases every rank."""

    def snapshot_rank(self, sim, rank_id: int) -> dict:
        return {}

    def restore_rank(self, sim, rank, saved: dict):
        pass

    def state_key(self):
        """Hashable protocol state for the explorer's deduplication."""
        return ()


class NullProtocol(ProtocolAdapter):
    """Algorithm 'none': collectives run unwrapped, no checkpoint support."""


class Simulator:
    """Event-loop scheduler over rank state machines plus a protocol adapter."""

    def __init__(self, scenario: ScenarioProgram, protocol=None, seed: int = 0,
                 record: bool = True):
        if not scenario.frozen:  # a frozen scenario was validated once and never changes
            scenario.validate()
        self.scenario = scenario
        self.world_size = scenario.world_size
        self.protocol = protocol or NullProtocol()
        self.seed = seed
        self.rng = None  # made by the first run(); a runtime that never runs draws nothing
        self.step = 0
        self.halted = False
        self.trace = [] if record else None
        self.counters = Counters()
        self.coordinator = None

        self.comm_records = {cid: CommRecord(cid, scenario.comm_members(cid), key)
                             for cid, key in scenario.group_keys().items()}
        self.ranks = [RankState(r, scenario.programs[r]) for r in range(self.world_size)]

        self.instances = {}        # (comm_id, index) -> Instance
        self._ready = []           # rank-sorted ids found enabled at their last check
        self._dirty = set(range(self.world_size))  # ranks to check again

        self.protocol.bind(self)

    def fork(self):
        """An independent runtime in this one's state: stepping either leaves
        the other unchanged. Each part copies its own mutable state; what no
        step changes stays shared: the scenario and its programs (frozen by
        validation, so a write raises), their ops, the static
        ``comm_records`` (one per communicator with its group key, built by
        ``__init__``), the trace's events (the trace list itself is
        copied), settled instances (``Instance.settled``) and consumed
        requests. The rng state is copied only once run() has made the rng:
        the explorer never runs, so its forks copy none."""
        twin = Simulator.__new__(Simulator)
        twin.scenario, twin.world_size, twin.seed = self.scenario, self.world_size, self.seed
        twin.rng = None
        if self.rng is not None:
            twin.rng = random.Random.__new__(random.Random)  # no re-seed from the OS
            twin.rng.setstate(self.rng.getstate())
        twin.step, twin.halted = self.step, self.halted
        twin.trace = None if self.trace is None else list(self.trace)
        twin.counters = self.counters.fork()
        twin.coordinator = None if self.coordinator is None else self.coordinator.fork()
        twin.comm_records = self.comm_records
        memo = {}
        twin.ranks = [rank.fork(memo) for rank in self.ranks]
        twin.instances = instances = dict(self.instances)
        for key, inst in instances.items():
            if not inst.settled():
                instances[key] = inst.fork(memo)
        twin._ready, twin._dirty = list(self._ready), set(self._dirty)
        twin.protocol = self.protocol.fork(memo)
        return twin

    @property
    def round_pending(self) -> bool:
        """True from a checkpoint request until its safe state is declared."""
        coordinator = self.coordinator
        return coordinator is not None and coordinator.requested and not coordinator.declared

    # ------------------------------------------------------------- events

    def emit(self, rank_id, event, **detail):
        if self.trace is not None:
            self.trace.append({"step": self.step, "rank": rank_id, "event": event,
                               "detail": detail})

    # --------------------------------------------------------- main loop

    def enabled_actors(self):
        """The enabled ranks, in rank order. Only ranks marked by ``wake``
        since the last call are checked again. The list returned is the
        scheduler's own: read it, do not change it, and do not keep it past
        the next step."""
        ready, ranks = self._ready, self.ranks
        for rid in self._dirty:
            rank = ranks[rid]
            at = bisect_left(ready, rid)
            if rank.stage == START or self._enabled(rank):  # START: the common case, no call
                if at == len(ready) or ready[at] != rid:
                    ready.insert(at, rid)
            elif at < len(ready) and ready[at] == rid:
                del ready[at]
        self._dirty.clear()
        return ready

    def wake(self, rank_ids):
        """Mark ranks whose enabledness may have changed.

        ``step_actor`` checks the stepped rank again itself. Any other change
        to a rank's enabledness must wake it: a completed instance, a matched
        rendezvous, a protocol message, a round start or a release.
        """
        self._dirty.update(rank_ids)

    def run(self):
        """Step a uniformly drawn enabled rank until none can step.

        With one enabled rank nothing is drawn. With n > 1 the draw is
        ``getrandbits(n.bit_length())``, drawn again while it is >= n: the
        same draws as ``random.Random.choice`` makes. The first call seeds
        the rng; a later call continues the same stream. ``coordinator`` is
        read once per call, and ``enabled_actors`` runs only when some rank
        was woken since the last step: otherwise the ready list is current.
        """
        if self.rng is None:
            self.rng = random.Random(self.seed)
        getrandbits = self.rng.getrandbits
        step_actor, coordinator = self.step_actor, self.coordinator
        ready, dirty = self._ready, self._dirty
        while not self.halted:
            if coordinator is not None:
                coordinator.before_step(self)
            enabled = self.enabled_actors() if dirty else ready
            if not enabled:
                enabled = self.runnable()
            n = len(enabled)
            if n == 1:
                step_actor(enabled[0])
            elif n:
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                step_actor(enabled[r])
            else:
                break
        return self

    def runnable(self):
        """The ranks that can step, letting the coordinator act while none can.

        Returns [] once every rank has finished or the run has halted; raises
        the deadlock error when no rank can ever step again. Otherwise the
        list is ``enabled_actors()``'s, the scheduler's own.
        """
        enabled = self.enabled_actors()
        while not enabled:
            if self.coordinator is None or not self.coordinator.handle_idle(self):
                if self.all_finished():
                    return []
                self._raise_deadlock()
            if self.halted:
                return []
            enabled = self.enabled_actors()
        return enabled

    def step_actor(self, rank_id: int):
        """Step a rank that ``enabled_actors`` returned or ``wake`` marked, then
        check it again in place: at START it stays ready with no call, in any
        other stage it leaves the ready list unless it is still enabled."""
        rank = self.ranks[rank_id]
        stage = rank.stage
        if stage == START:
            self._step_start(rank)
        elif stage == BLOCKED_COLL:
            self._step_collective_return(rank)
        elif stage == TB_BLOCKED:
            self._step_trivial_barrier(rank)
        elif stage == BLOCKED_REQ:
            self.protocol.take_input(self, rank)
            if self._requests_satisfied(rank):
                self._finish_request_wait(rank)
        elif stage in (PARKED, FINISHED):
            # Parked ranks always sit at an op boundary with work remaining;
            # a finished rank's input never resumes it.
            if self.protocol.take_input(self, rank):
                self.emit(rank_id, "resume")
                rank.stage = START
        else:
            raise SimulationError(f"rank {rank_id} stepped in stage {stage}")
        if rank.stage != START and not self._enabled(rank):
            ready = self._ready
            at = bisect_left(ready, rank_id)
            if at < len(ready) and ready[at] == rank_id:
                del ready[at]
        self.step += 1
        if self.step > MAX_STEPS:
            raise SimulationError(f"step budget {MAX_STEPS} exceeded")

    def all_finished(self):
        return all(r.finished for r in self.ranks)

    def _raise_deadlock(self):
        blocked = [(r.id, r.stage, r.block_reason()) for r in self.ranks if not r.finished]
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
            return self._requests_satisfied(rank) or self.protocol.has_input(self, rank)
        if stage in (BLOCKED_SEND, BLOCKED_RECV):  # the matching peer completes a rendezvous
            return False
        # PARKED, or FINISHED: schedulable only to absorb late protocol messages;
        # a held rank that no input can resume waits for the coordinator's release
        return self.protocol.has_input(self, rank)

    def _requests_satisfied(self, rank: RankState) -> bool:
        op = rank.program[rank.pc]
        mode = op.op
        reqs = [rank.requests[rid] for rid in wait_ids(op)]
        if mode == "wait":
            return reqs[0].testable()
        if mode == "waitall":
            return all(rq.testable() for rq in reqs)
        # waitany: satisfied by a completable request, or trivially when all null
        return any(rq.state == COMPLETE for rq in reqs) or all(rq.state == CONSUMED for rq in reqs)

    # ---------------------------------------------------------- stepping

    def _step_start(self, rank: RankState):
        op = rank.program[rank.pc]
        kind = op.op
        if kind in ("coll", "comm_create", "icoll"):
            outcome = self.protocol.begin_collective(self, rank)
            if outcome == PARK:
                rank.stage = PARKED
                self.emit(rank.id, "park", at="begin", pc=rank.pc)
            elif outcome == STOP:
                rank.stage = PARKED
                self.emit(rank.id, "stop", pc=rank.pc)
            elif outcome == BARRIER:
                rank.stage = TB_BLOCKED
            elif kind == "icoll":
                self._initiate_nonblocking(rank, op)
            else:
                self._join_collective(rank, op)
        elif kind in ("send", "recv"):
            self._post(rank, op)
        elif kind in ("wait", "test", "waitall", "waitany"):
            self._step_request_op(rank, op)
        else:  # compute, the one op kind left after validation
            if rank.compute_left is None:
                rank.compute_left = op.ticks
            rank.compute_left -= 1
            if rank.compute_left <= 0:
                rank.compute_left = None
                self._advance(rank)

    # ------------------------------------------------------- collectives

    def get_instance(self, comm: CommRecord, op: Op, blocking: bool) -> Instance:
        """The instance ``op.instance`` on ``comm`` that an op joins, made by
        its first member. A coll or icoll signature ends in ``blocking``, so a
        signature match is a blocking match too."""
        key = (comm.comm_id, op.instance)
        inst = self.instances.get(key)
        if op.op == "comm_create":
            signature = ("comm_create", op.new_comm, tuple(self.scenario.comms[op.new_comm]))
        else:
            signature = (op.kind, op.root, op.reduce_op, blocking)
        if inst is None:
            inst = self.instances[key] = Instance(
                comm.comm_id, op.instance, comm.members, signature, blocking)
        elif inst.signature != signature:
            raise CollectiveMismatchError(
                f"collective mismatch on {comm.comm_id}#{op.instance}: rank {op.rank} called "
                f"{signature}, instance is {inst.signature} "
                f"(blocking={inst.blocking}, members={inst.members})"
            )
        return inst

    def _join_collective(self, rank: RankState, op: Op):
        comm = self.comm_records[op.comm]
        inst = self.get_instance(comm, op, blocking=True)
        inst.entered.add(rank.id)
        inst.inputs[rank.id] = op.data
        self.counters.wrapper_invocations += 1
        if self.trace is not None:
            self.emit(rank.id, "coll_enter", comm=comm.comm_id, instance=op.instance,
                      kind=inst.signature[0], group=comm.key.label(), num=op.num)
        rank.stage = BLOCKED_COLL
        rank.blocked_ref = inst
        if len(inst.entered) == len(inst.members):
            self._complete_instance(inst, rank.id)

    def _complete_instance(self, inst: Instance, completer: int):
        inst.complete = True
        self.wake(inst.members)
        self._compute_outputs(inst)
        self.counters.app_messages += collective_cost(inst.signature[0], len(inst.members))
        self.counters.collectives_completed += 1
        if self.trace is not None:
            self.emit(completer, "coll_complete" if inst.blocking else "icoll_complete",
                      comm=inst.comm_id, instance=inst.index, kind=inst.signature[0])
        if inst.signature[0] == "comm_create":
            self._create_comm(inst)
        if not inst.blocking:
            for rank_id, rid in sorted(inst.request_ids.items()):
                req = self.ranks[rank_id].requests[rid]
                req.state = COMPLETE
                req.payload = inst.outputs.get(rank_id)

    def _compute_outputs(self, inst: Instance):
        """Each member's result, built at C level from the inputs, which are
        the ops' own payloads: every output is a fresh list, never one of them."""
        kind = inst.signature[0]
        if kind in ("barrier", "comm_create"):
            return
        members, inputs, outputs = inst.members, inst.inputs, inst.outputs
        if kind == "bcast":
            root = inst.signature[1]
            data = inputs.get(root)
            if data is None:
                raise CollectiveMismatchError(f"bcast root {root} provided no data in {inst.describe()}")
            for m in members:
                outputs[m] = list(data)
            return
        vectors = [inputs.get(m) for m in members]
        if None in vectors:
            raise CollectiveMismatchError(
                f"rank {members[vectors.index(None)]} provided no data in {inst.describe()}")
        lengths = set(map(len, vectors))
        if len(lengths) != 1:
            raise CollectiveMismatchError(f"ragged inputs in {inst.describe()}: {sorted(lengths)}")
        if kind in ("reduce", "allreduce"):
            combine = add if inst.signature[2] == "sum" else max
            fold = vectors[0]
            for vec in vectors[1:]:
                fold = map(combine, fold, vec)
            fold = list(fold)
            if kind == "reduce":
                outputs[inst.signature[1]] = fold
            else:
                for m in members:
                    outputs[m] = list(fold)
        elif kind == "gather":
            outputs[inst.signature[1]] = list(chain.from_iterable(vectors))
        elif kind == "alltoall":
            if len(vectors[0]) != len(members):
                raise CollectiveMismatchError(
                    f"alltoall in {inst.describe()} needs one block per member"
                )
            for m, column in zip(members, zip(*vectors)):
                outputs[m] = list(column)
        else:
            raise CollectiveMismatchError(f"unknown collective kind {kind!r}")

    def _create_comm(self, inst: Instance):
        self.emit(min(inst.entered), "comm_created", comm=inst.signature[1],
                  members=list(inst.signature[2]))

    def _step_collective_return(self, rank: RankState):
        inst = rank.blocked_ref
        inst.returned.add(rank.id)
        output = inst.outputs.get(rank.id)
        if output is not None:
            rank.checksum = checksum_fold(rank.checksum, rank.pc, output)
        elif inst.signature[0] == "comm_create" and rank.id in inst.signature[2]:
            rank.checksum = checksum_fold(rank.checksum, rank.pc, inst.signature[2])
        if self.trace is not None:
            self.emit(rank.id, "coll_return", comm=inst.comm_id, instance=inst.index)
        rank.blocked_ref = None
        outcome = self.protocol.finish_collective(self, rank)
        self._advance(rank)
        if outcome == PARK and not rank.finished:
            rank.stage = PARKED
            self.emit(rank.id, "park", at="finish", pc=rank.pc)

    def _step_trivial_barrier(self, rank: RankState):
        tb = rank.blocked_ref
        outcome = self.protocol.barrier_step(self, rank)
        rank.blocked_ref = None
        if outcome == STOP:
            rank.stage = PARKED
            self.emit(rank.id, "tb_abort", comm=tb.comm_id, instance=tb.index, pc=rank.pc)
        else:
            self._join_collective(rank, rank.program[rank.pc])

    # ------------------------------------------------------ non-blocking

    def _initiate_nonblocking(self, rank: RankState, op: Op):
        inst = self.get_instance(self.comm_records[op.comm], op, blocking=False)
        inst.entered.add(rank.id)
        inst.inputs[rank.id] = op.data
        rank.requests[op.request_id] = RequestObject(rank.pc)
        inst.request_ids[rank.id] = op.request_id
        self.counters.wrapper_invocations += 1
        if self.trace is not None:
            self.emit(rank.id, "icoll_init", comm=op.comm, instance=op.instance,
                      kind=inst.signature[0], request=op.request_id)
        if len(inst.entered) == len(inst.members):
            self._complete_instance(inst, rank.id)
        self._advance(rank)

    def _step_request_op(self, rank: RankState, op: Op):
        # Every id names a request: validate puts each wait after its icoll,
        # and cc's restore_rank rebuilds each icoll before the restart pc.
        self.protocol.take_input(self, rank)
        if op.op == "test":
            req = rank.requests[op.request_id]
            flag = req.testable()
            if flag and req.state == COMPLETE:
                self._consume(rank, req)
            if self.trace is not None:
                self.emit(rank.id, "test", request=op.request_id, flag=flag)
            self._advance(rank)
            return
        if self._requests_satisfied(rank):
            self._finish_request_wait(rank)
        else:
            rank.stage = BLOCKED_REQ

    def _finish_request_wait(self, rank: RankState):
        op = rank.program[rank.pc]
        for rid in wait_ids(op):
            req = rank.requests[rid]
            if req.state == COMPLETE:
                self._consume(rank, req)
                if op.op == "waitany":
                    self.emit(rank.id, "waitany_done", request=rid)
                    break
        self._advance(rank)

    def _consume(self, rank: RankState, req: RequestObject):
        req.state = CONSUMED
        if req.payload is not None:
            rank.checksum = checksum_fold(rank.checksum, req.op_index, req.payload)
        if self.trace is not None:
            self.emit(rank.id, "req_consume", request=rank.program[req.op_index].request_id)

    # ---------------------------------------------------- point-to-point

    def _post(self, rank: RankState, op: Op):
        """Post a send or recv. It matches the peer when the peer is blocked
        in the other half naming this rank, tag and communicator; otherwise
        this rank blocks until the peer posts."""
        if self.trace is not None:
            self.emit(rank.id, f"{op.op}_post", peer=op.peer, tag=op.tag, comm=op.comm)
        sending = op.op == "send"
        peer = self.ranks[op.peer]
        if peer.stage == (BLOCKED_RECV if sending else BLOCKED_SEND):
            half = peer.current_op()
            if half.peer == rank.id and half.tag == op.tag and half.comm == op.comm:
                self._complete_match(*((rank, peer) if sending else (peer, rank)))
                return
        rank.stage = BLOCKED_SEND if sending else BLOCKED_RECV

    def _complete_match(self, sender: RankState, receiver: RankState):
        op = receiver.current_op()
        receiver.checksum = checksum_fold(receiver.checksum, receiver.pc,
                                          sender.current_op().data)
        self.counters.app_messages += 1
        self.counters.p2p_messages += 1
        if self.trace is not None:
            self.emit(receiver.id, "p2p_match", src=sender.id, dst=receiver.id, tag=op.tag,
                      comm=op.comm)
        self.wake((sender.id, receiver.id))
        self._advance(sender)
        self._advance(receiver)

    # ----------------------------------------------------------- control

    def _advance(self, rank: RankState):
        rank.pc += 1
        if rank.pc >= len(rank.program):
            self._finish_rank(rank)
        else:
            rank.stage = START

    def _finish_rank(self, rank: RankState):
        rank.stage = FINISHED
        if self.trace is not None:
            self.emit(rank.id, "rank_finished")

    def release_rank(self, rank: RankState):
        """Coordinator hook: wake a parked rank after a round."""
        self.wake((rank.id,))
        if rank.stage == PARKED:
            rank.stage = START if rank.pc < len(rank.program) else FINISHED
            self.emit(rank.id, "resume")

    # --------------------------------------------------------- trace io

    def trace_lines(self):
        if self.trace is None:
            return []
        return [encode(entry) for entry in self.trace]

    def checksums(self):
        return {r.id: r.checksum for r in self.ranks}
