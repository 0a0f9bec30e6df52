"""Checkpoint orchestration.

The coordinator is a distinguished actor in the same deterministic event
loop: it starts a round (the protocol's round-start hook delivers the pending
flag and, for cc, gathers counter reports and installs targets, all in one
scheduler event, like a checkpoint thread would). Whenever no rank can step,
it asks the protocol's ``quiescent`` check, the one safe-state gate; once
that holds it drains incomplete requests, takes the snapshot, and either
releases the ranks or halts the run. It knows protocol state only through
the adapter hooks declared on ``runtime.ProtocolAdapter``. All coordinator
traffic is control-plane: it never appears in simulated message counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cc import CollectiveClockProtocol
from .clock import GroupKey, KeyValueStore
from .errors import (
    ProtocolViolationError,
    SimulationError,
    SnapshotLoadError,
    UnsupportedOperationError,
)
from .runtime import (
    COORD,
    FINISHED,
    PARKED,
    START,
    STOPPED,
    CommRecord,
    CommView,
    NullProtocol,
    Simulator,
)
from .scenario import WORLD, ScenarioProgram
from .twophase import TwoPhaseCommitProtocol

SNAPSHOT_VERSION = 1


@dataclass
class SnapshotImage:
    """Whole-run restartable image, serialized as versioned JSON."""

    version: int
    algorithm: str
    seed: int
    step: int
    round_id: int
    world_size: int
    scenario_jsonl: str
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
            "world_size": self.world_size,
            "scenario_jsonl": self.scenario_jsonl,
            "comms_created": {k: list(v) for k, v in sorted(self.comms_created.items())},
            "per_rank": self.per_rank,
            "initial_targets": self.initial_targets,
            "final_targets": self.final_targets,
            "policy": self.policy,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")) + "\n"

    def dump(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_json(cls, obj: dict) -> "SnapshotImage":
        try:
            if obj["version"] != SNAPSHOT_VERSION:
                raise SnapshotLoadError(f"unsupported snapshot version {obj['version']}")
            return cls(
                version=obj["version"],
                algorithm=obj["algorithm"],
                seed=obj["seed"],
                step=obj["step"],
                round_id=obj["round_id"],
                world_size=obj["world_size"],
                scenario_jsonl=obj["scenario_jsonl"],
                comms_created={k: tuple(v) for k, v in obj["comms_created"].items()},
                per_rank=obj["per_rank"],
                initial_targets=obj["initial_targets"],
                final_targets=obj["final_targets"],
                policy=obj.get("policy", {}),
            )
        except (KeyError, TypeError) as exc:
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
            return cls.loads(fh.read())


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
        st[1].clock.get(g12) == 5
        and st[2].clock.get(g12) == 5 and st[2].clock.get(g23) == 7
        and st[3].clock.get(g23) == 6 and st[3].clock.get(g345) == 2
        and st[4].clock.get(g345) == 2
        and st[5].clock.get(g345) == 2 and st[5].clock.get(g56) == 3
        and st[6].clock.get(g56) == 3
    )


def _bcast_started(sim) -> bool:
    st = _cc_states(sim)
    world = GroupKey(tuple(range(sim.world_size)))
    return st[0].clock.get(world) == 1 and st[2].clock.get(world) == 0


TRIGGERS = {
    "fig2-instant": _fig2_instant,
    "bcast-started": _bcast_started,
}


# --------------------------------------------------------------------------
# The coordinator proper
# --------------------------------------------------------------------------


class CheckpointCoordinator:
    """Runs at most one checkpoint round per simulation.

    placement: ("at_step", n) or ("trigger", name) or None. A step placement
    past the end of the run fires once every rank has finished; a named
    trigger that never fires is an error.
    """

    def __init__(self, placement=None, halt_at_snapshot: bool = False):
        self.placement = placement
        self.halt_at_snapshot = halt_at_snapshot
        self.requested = False
        self.declared = False
        self.round_id = 0
        self.requested_step = None
        self.declared_step = None
        self.store = None
        self.initial_targets = {}
        self.final_targets = {}
        self.snapshot = None
        self.updates_before_round = 0
        self.drain_collectives = 0
        self.updates_in_round = 0

    # ------------------------------------------------------------- hooks

    def before_step(self, sim):
        if self.requested or self.placement is None:
            return
        kind, arg = self.placement
        if kind == "at_step":
            if sim.step >= arg:
                self.request_checkpoint(sim)
        elif kind == "trigger":
            if TRIGGERS[arg](sim):
                self.request_checkpoint(sim)
        else:
            raise SimulationError(f"unknown placement kind {kind!r}")

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
        self.updates_before_round = sim.counters.target_updates_sent
        sim.emit(COORD, "ckpt_request", round=self.round_id, step=sim.step)
        self.store = KeyValueStore()
        self.initial_targets = sim.protocol.on_round_start(sim, self.store)
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
        self.updates_in_round = sim.counters.target_updates_sent - self.updates_before_round
        self.drain_collectives = sim.counters.drain_collectives
        sim.protocol.drain(sim)
        self._assert_safe(sim)
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
        for rank in sim.ranks:
            if rank.stage not in (PARKED, STOPPED, FINISHED):
                raise ProtocolViolationError(
                    f"safe state declared with rank {rank.id} in stage {rank.stage}"
                )
        for queue in list(sim.pending_sends.values()) + list(sim.pending_recvs.values()):
            if queue:
                raise ProtocolViolationError("point-to-point traffic in flight at safe state")
        for inst in sim.instances.values():
            if not inst.entered:
                continue
            if not inst.complete:
                raise ProtocolViolationError(
                    f"instance {inst.describe()} started but incomplete at safe state"
                )
            if inst.blocking and inst.returned != set(inst.members):
                raise ProtocolViolationError(
                    f"instance {inst.describe()} not returned by all members at safe state"
                )
        sim.protocol.assert_safe(sim)


def build_snapshot(sim, coordinator: CheckpointCoordinator) -> SnapshotImage:
    per_rank = []
    for rank in sim.ranks:
        per_rank.append({
            "rank": rank.id,
            "pc": rank.pc,
            "checksum": rank.checksum,
            "protocol": sim.protocol.snapshot_rank(rank.id),
        })
    created = {
        cid: rec.members
        for cid, rec in sim.comm_records.items()
        if cid != WORLD
    }
    return SnapshotImage(
        version=SNAPSHOT_VERSION,
        algorithm=sim.protocol.name,
        seed=sim.scheduler.seed,
        step=sim.step,
        round_id=coordinator.round_id,
        world_size=sim.world_size,
        scenario_jsonl=sim.scenario.dumps(),
        comms_created=created,
        per_rank=per_rank,
        initial_targets=dict(coordinator.initial_targets),
        final_targets=dict(coordinator.final_targets),
        policy=sim.protocol.policy(),
    )


def make_protocol(algorithm: str, policy: dict | None = None):
    policy = policy or {}
    if algorithm == "none":
        return NullProtocol()
    if algorithm == "cc":
        return CollectiveClockProtocol(
            count_comm_create=policy.get("count_comm_create", True))
    if algorithm == "2pc":
        return TwoPhaseCommitProtocol()
    raise SimulationError(f"unknown algorithm {algorithm!r}")


def restart(image: SnapshotImage, seed: int | None = None, record: bool = True,
            max_steps: int = 5_000_000) -> Simulator:
    """Rebuild a running runtime from a snapshot image.

    Communicators are re-created from the image, each rank resumes at its
    saved program counter, and drained requests come back globally complete
    so a later application-side wait returns immediately.
    """
    try:
        scenario = ScenarioProgram.loads(image.scenario_jsonl)
    except Exception as exc:
        raise SnapshotLoadError(f"embedded scenario unreadable: {exc}") from exc
    if image.world_size != scenario.world_size:
        raise SnapshotLoadError("world size disagrees with embedded scenario")
    protocol = make_protocol(image.algorithm, image.policy)
    sim = Simulator(scenario, protocol, seed=image.seed if seed is None else seed,
                    record=record, max_steps=max_steps)
    for cid, members in sorted(image.comms_created.items()):
        if cid not in sim.comm_records:
            sim.comm_records[cid] = CommRecord(cid, members)
        shared = sim.comm_records[cid]
        for m in members:
            sim.ranks[m].comms[cid] = CommView(shared, m)
    try:
        if sorted(saved["rank"] for saved in image.per_rank) != list(range(sim.world_size)):
            raise SnapshotLoadError(f"snapshot must hold ranks 0..{sim.world_size - 1} once each")
        for saved in image.per_rank:
            rank = sim.ranks[saved["rank"]]
            rank.pc = saved["pc"]
            if type(rank.pc) is not int or not 0 <= rank.pc <= len(rank.program):
                raise SnapshotLoadError(f"rank {rank.id} pc {rank.pc!r} is outside its program")
            rank.checksum = saved["checksum"]
            rank.stage = FINISHED if rank.pc >= len(rank.program) else START
            protocol.restore_rank(rank, saved.get("protocol", {}))
    except (KeyError, TypeError) as exc:
        raise SnapshotLoadError(f"corrupt per-rank record: {exc!r}") from exc
    sim.emit(COORD, "restart", round=image.round_id, from_step=image.step)
    return sim
