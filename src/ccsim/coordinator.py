"""Checkpoint orchestration.

The coordinator is a distinguished actor in the same deterministic event
loop: it starts a round (the protocol's round-start hook, for cc, gathers
counter reports and installs targets, all in one scheduler event, like a
checkpoint thread would). Its ``requested`` and ``declared`` flags are the
one record that a round is pending (``Simulator.round_pending``). Whenever no
rank can step, it asks the protocol's ``quiescent`` check, the one safe-state
gate; once that holds it checks that every started instance is complete,
traces the drained requests, takes the snapshot, and either releases the ranks
or halts the run. It knows protocol state only through the adapter hooks
declared on ``runtime.ProtocolAdapter``. All coordinator traffic is
control-plane: it never appears in simulated message counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .cc import CollectiveClockProtocol
from .clock import GroupKey
from .errors import (
    ProtocolViolationError,
    ScenarioError,
    SimulationError,
    SnapshotLoadError,
    UnsupportedOperationError,
)
from .runtime import (
    COORD,
    FINISHED,
    START,
    NullProtocol,
    Simulator,
)
from .scenario import ScenarioProgram, encode
from .twophase import TwoPhaseCommitProtocol

SNAPSHOT_VERSION = 1


@dataclass
class SnapshotImage:
    """Whole-run restartable image, serialized as versioned JSON. An image
    shares its scenario with the run that took it: a ``Simulator`` runs only
    validated scenarios, and a validated ``ScenarioProgram`` is frozen, so
    no write can reach it and its text is encoded once."""

    version: int
    algorithm: str
    seed: int
    step: int
    round_id: int
    scenario: ScenarioProgram
    comms_created: dict
    per_rank: list
    initial_targets: dict
    final_targets: dict
    policy: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "step": self.step,
            "round_id": self.round_id,
            "world_size": self.scenario.world_size,
            "scenario_jsonl": self.scenario.dumps(),
            "comms_created": {k: list(v) for k, v in sorted(self.comms_created.items())},
            "per_rank": self.per_rank,
            "initial_targets": self.initial_targets,
            "final_targets": self.final_targets,
            "policy": self.policy,
        }

    def dumps(self) -> str:
        return encode(self.to_json()) + "\n"

    def dump(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_json(cls, obj: dict) -> "SnapshotImage":
        try:
            if obj["version"] != SNAPSHOT_VERSION or type(obj["version"]) is not int:
                raise SnapshotLoadError(f"unsupported snapshot version {obj['version']}")
            if any(type(obj[k]) is not int for k in ("seed", "step", "round_id", "world_size")):
                raise SnapshotLoadError("snapshot seed, step, round_id and world_size must be ints")
            scenario = ScenarioProgram.loads(obj["scenario_jsonl"])  # AttributeError if not text
            if obj["world_size"] != scenario.world_size:
                raise SnapshotLoadError("world size disagrees with embedded scenario")
            return cls(
                version=obj["version"],
                algorithm=obj["algorithm"],
                seed=obj["seed"],
                step=obj["step"],
                round_id=obj["round_id"],
                scenario=scenario,
                comms_created={k: tuple(v) for k, v in obj["comms_created"].items()},
                per_rank=obj["per_rank"],
                initial_targets=obj["initial_targets"],
                final_targets=obj["final_targets"],
                policy=obj.get("policy", {}),
            )
        except ScenarioError as exc:
            raise SnapshotLoadError(f"embedded scenario unreadable: {exc}") from exc
        except (AttributeError, KeyError, TypeError) as exc:
            raise SnapshotLoadError(f"corrupt snapshot image: {exc!r}") from exc

    @classmethod
    def loads(cls, text: str) -> "SnapshotImage":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SnapshotLoadError(f"snapshot is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise SnapshotLoadError("snapshot must be a JSON object")
        return cls.from_json(obj)

    @classmethod
    def load(cls, path) -> "SnapshotImage":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.loads(fh.read())
            except UnicodeDecodeError as exc:
                raise SnapshotLoadError(f"snapshot file is not UTF-8 text: {exc}") from exc


# --------------------------------------------------------------------------
# Named checkpoint triggers for the built-in scenarios
# --------------------------------------------------------------------------


def _cc_states(sim):
    if not isinstance(sim.protocol, CollectiveClockProtocol):
        raise UnsupportedOperationError("this trigger requires the collective-clock protocol")
    return sim.protocol.states


def _fig2_instant(sim) -> bool:
    st = _cc_states(sim)
    g12, g23, g345, g56 = (GroupKey((1, 2)), GroupKey((2, 3)),
                           GroupKey((3, 4, 5)), GroupKey((5, 6)))
    return (
        st[1].clock[g12] == 5
        and st[2].clock[g12] == 5 and st[2].clock[g23] == 7
        and st[3].clock[g23] == 6 and st[3].clock[g345] == 2
        and st[4].clock[g345] == 2
        and st[5].clock[g345] == 2 and st[5].clock[g56] == 3
        and st[6].clock[g56] == 3
    )


def _bcast_started(sim) -> bool:
    st = _cc_states(sim)
    world = GroupKey(tuple(range(sim.world_size)))
    return st[0].clock[world] == 1 and st[2].clock[world] == 0


TRIGGERS = {
    "fig2-instant": _fig2_instant,
    "bcast-started": _bcast_started,
}


def valid_placement(placement) -> bool:
    """Whether ``placement`` is a pair: ("at_step", n), n an int or
    ``math.inf``; ("trigger", name) of a known trigger; or ("random", seed),
    seed an int, which ``driver.resolve_placement`` turns into a step."""
    if type(placement) is not tuple or len(placement) != 2:
        return False
    kind, arg = placement
    return (kind == "at_step" and (type(arg) is int or arg == math.inf)
            or kind == "trigger" and type(arg) is str and arg in TRIGGERS
            or kind == "random" and type(arg) is int)


# --------------------------------------------------------------------------
# The coordinator proper
# --------------------------------------------------------------------------


class CheckpointCoordinator:
    """Runs at most one checkpoint round per simulation.

    placement: ("at_step", n) or ("trigger", name) or None, checked here
    once by ``valid_placement``, the rule the driver's random placements
    share. A step is an int, or ``math.inf`` for the explorer's request at
    the end of the run. A step placement past the end of the run fires once
    every rank has finished; a named trigger that never fires is an error.
    """

    def __init__(self, placement=None, halt_at_snapshot: bool = False):
        if placement is not None and not (valid_placement(placement)
                                          and placement[0] != "random"):
            raise SimulationError(f"invalid checkpoint placement {placement!r}")
        self.placement = placement
        self.halt_at_snapshot = halt_at_snapshot
        self.requested = False
        self.declared = False
        self.round_id = 0
        self.requested_step = None
        self.declared_step = None
        self.initial_targets = {}
        self.final_targets = {}
        self.snapshot = None

    def fork(self):
        """A copy for a forked runtime. Every round field is a scalar or a
        value that is replaced whole, never changed in place, so a shallow
        copy is independent."""
        twin = object.__new__(CheckpointCoordinator)
        twin.__dict__.update(self.__dict__)
        return twin

    # ------------------------------------------------------------- hooks

    def before_step(self, sim):
        if self.requested or self.placement is None:
            return
        kind, arg = self.placement
        if kind == "at_step":
            if sim.step >= arg:
                self.request_checkpoint(sim)
        elif TRIGGERS[arg](sim):
            self.request_checkpoint(sim)

    def request_checkpoint(self, sim) -> int:
        if self.requested:
            raise ProtocolViolationError("overlapping checkpoint rounds are rejected")
        if not sim.protocol.supports_checkpoint:
            raise UnsupportedOperationError(
                f"algorithm {sim.protocol.name!r} cannot take checkpoints"
            )
        self.requested = True
        self.round_id += 1
        self.requested_step = sim.step
        sim.emit(COORD, "ckpt_request", round=self.round_id, step=sim.step)
        self.initial_targets = sim.protocol.on_round_start(sim)
        # The pending round and aborted barriers change what every rank may do.
        sim.wake(range(sim.world_size))
        return self.round_id

    def handle_idle(self, sim) -> bool:
        if self.requested and not self.declared:
            # Not quiescent and nothing enabled: the deadlock detector
            # reports, unless the protocol's check raises first.
            if sim.protocol.quiescent(sim):
                self.declare_safe_state(sim)
                return True
            return False
        if (not self.requested and self.placement is not None
                and sim.all_finished()):
            kind, arg = self.placement
            if kind == "at_step":
                self.request_checkpoint(sim)
                return True
            raise SimulationError(f"checkpoint trigger {arg!r} never fired")
        return False

    # ----------------------------------------------------------- declare

    def declare_safe_state(self, sim):
        self.declared = True
        self.declared_step = sim.step
        self._assert_safe(sim)
        for rank in sim.ranks:  # a drained request stays unconsumed for the application
            for rid, req in rank.live_requests():
                sim.emit(rank.id, "drain_request", request=rid, state=req.state)
        self.final_targets = sim.protocol.final_targets()
        sim.emit(COORD, "safe_state", round=self.round_id, step=sim.step,
                 targets=self.final_targets)
        self.snapshot = build_snapshot(sim, self)
        sim.emit(COORD, "snapshot", round=self.round_id, step=sim.step)
        if self.halt_at_snapshot:
            sim.halted = True
        else:
            sim.protocol.on_round_end(sim)
            for rank in sim.ranks:
                sim.release_rank(rank)
            sim.emit(COORD, "release", round=self.round_id)

    def _assert_safe(self, sim):
        """The instance rule only: ``handle_idle`` has just passed the
        protocol's ``quiescent`` check, which owns the rules on the ranks'
        stages and targets. It holds only while no rank is enabled, so every
        member has returned from each complete blocking instance; the member
        that makes an instance enters it in the same step."""
        for inst in sim.instances.values():
            if not inst.complete:
                raise ProtocolViolationError(
                    f"instance {inst.describe()} started but incomplete at safe state"
                )


def build_snapshot(sim, coordinator: CheckpointCoordinator) -> SnapshotImage:
    per_rank = []
    for rank in sim.ranks:
        per_rank.append({
            "rank": rank.id,
            "pc": rank.pc,
            "checksum": rank.checksum,
            "protocol": sim.protocol.snapshot_rank(sim, rank.id),
        })
    return SnapshotImage(
        version=SNAPSHOT_VERSION,
        algorithm=sim.protocol.name,
        seed=sim.seed,
        step=sim.step,
        round_id=coordinator.round_id,
        scenario=sim.scenario,
        comms_created=created_comms(sim),
        per_rank=per_rank,
        initial_targets=dict(coordinator.initial_targets),
        final_targets=dict(coordinator.final_targets),
        policy=dict(sim.protocol.policy),
    )


def created_comms(sim) -> dict:
    """The communicators that exist at a safe state, by id, with their members.

    At a safe state every entered blocking instance has returned on all its
    members, so a ``comm_create`` is complete iff the ranks' pcs are past it.
    """
    created = {op.new_comm for rank in sim.ranks for op in rank.program[:rank.pc]
               if op.op == "comm_create"}
    return {cid: sim.comm_records[cid].members for cid in sorted(created)}


def make_protocol(algorithm: str):
    if algorithm == "none":
        return NullProtocol()
    if algorithm == "cc":
        return CollectiveClockProtocol()
    if algorithm == "2pc":
        return TwoPhaseCommitProtocol()
    raise SimulationError(f"unknown algorithm {algorithm!r}")


def restart(image: SnapshotImage, seed: int | None = None, record: bool = True) -> Simulator:
    """Rebuild a running runtime from a snapshot image, which only a protocol
    that takes checkpoints writes.

    Each rank resumes at its saved program counter, drained requests come
    back globally complete so a later application-side wait returns at once,
    and the image's ``comms_created`` must equal ``created_comms`` there.
    """
    try:
        protocol = make_protocol(image.algorithm)
    except SimulationError as exc:
        raise SnapshotLoadError(f"snapshot names an {exc}") from exc
    if not protocol.supports_checkpoint:
        raise SnapshotLoadError(f"algorithm {protocol.name!r} takes no checkpoints, "
                                "so no run writes its snapshot")
    if image.policy != protocol.policy:
        raise SnapshotLoadError(
            f"snapshot policy {image.policy!r} is not {protocol.name!r}'s {protocol.policy!r}")
    sim = Simulator(image.scenario, protocol, seed=image.seed if seed is None else seed,
                    record=record)
    try:
        if sorted(saved["rank"] for saved in image.per_rank) != list(range(sim.world_size)):
            raise SnapshotLoadError(f"snapshot must hold ranks 0..{sim.world_size - 1} once each")
        for saved in image.per_rank:
            rank = sim.ranks[saved["rank"]]
            rank.pc = saved["pc"]
            if type(rank.pc) is not int or not 0 <= rank.pc <= len(rank.program):
                raise SnapshotLoadError(f"rank {rank.id} pc {rank.pc!r} is outside its program")
            rank.checksum = saved["checksum"]
            if type(rank.checksum) is not int or not 0 <= rank.checksum < 2**64:
                raise SnapshotLoadError(f"rank {rank.id} checksum {rank.checksum!r} is not 64-bit")
            rank.stage = FINISHED if rank.pc >= len(rank.program) else START
            protocol.restore_rank(sim, rank, saved.get("protocol", {}))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotLoadError(f"corrupt per-rank record: {exc!r}") from exc
    created = created_comms(sim)
    if image.comms_created != created:
        raise SnapshotLoadError(
            f"created communicators {sorted(image.comms_created)} disagree with the "
            f"embedded scenario at the saved program counters ({sorted(created)})")
    sim.emit(COORD, "restart", round=image.round_id, from_step=image.step)
    return sim
