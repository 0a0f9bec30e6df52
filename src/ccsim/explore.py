"""Exhaustive small-instance exploration.

Depth-first search over every scheduler choice at every step, with the
checkpoint request injected as one extra choice at each decision point, so a
single sweep covers all interleavings crossed with all checkpoint
placements. Paths that finish without the request get it fired at
termination, covering the after-end placement too.

Interleavings that converge to the same logical state share one subtree: the
search fingerprints the complete protocol-visible state (step counters and
other path-length artifacts excluded) and expands each distinct state once.
Every reachable state is still visited, so a violation on any interleaving
is a violation on some explored path.

Bounded to at most 4 ranks and 12 events per rank; use generated campaigns
for anything larger.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .coordinator import CheckpointCoordinator, make_protocol
from .errors import InvalidConfigurationError, SimulationError
from .runtime import Simulator
from .scenario import ScenarioProgram
from .verify import check_hb_acyclic

MAX_RANKS = 4
MAX_EVENTS_PER_RANK = 12
CKPT_ACTION = "ckpt"


@dataclass
class ExplorationResult:
    paths: int = 0
    states: int = 0
    rounds_declared: int = 0
    max_depth: int = 0
    failures: list = field(default_factory=list)
    update_bound_worst: float = 0.0

    @property
    def passed(self):
        return not self.failures


class _Bundle:
    """One node of the search: a runtime plus its coordinator and path."""

    __slots__ = ("sim", "coordinator", "path")

    def __init__(self, sim, coordinator, path):
        self.sim = sim
        self.coordinator = coordinator
        self.path = path

    def fork(self):
        sim, coordinator = copy.deepcopy((self.sim, self.coordinator))
        return _Bundle(sim, coordinator, list(self.path))


def _rank_key(rank):
    blocked = rank.blocked_ref
    return (
        rank.pc, rank.stage, rank.compute_left, rank.checksum,
        tuple(sorted(rank.comm_calls.items())),
        (rank.blocked_req[0], tuple(rank.blocked_req[1])) if rank.blocked_req else None,
        (blocked.comm_id, blocked.index, blocked.signature[0]) if blocked is not None else None,
        tuple(sorted((rid, rq.state) for rid, rq in rank.requests.items())),
    )


def _instance_key(inst):
    return (
        inst.comm_id, inst.index, inst.signature[0], inst.complete, inst.aborted,
        tuple(sorted(inst.entered)), tuple(sorted(inst.returned)),
    )


def _state_key(bundle: _Bundle):
    sim = bundle.sim
    coordinator = bundle.coordinator
    p2p = []
    for key, queue in sorted(sim.pending_sends.items()):
        if queue:
            p2p.append((key, tuple((tuple(d), pc) for d, pc in queue)))
    for key, queue in sorted(sim.pending_recvs.items()):
        if queue:
            p2p.append((key, tuple(queue)))
    coord = None
    if coordinator is not None:
        coord = (coordinator.requested, coordinator.declared,
                 tuple(sorted(coordinator.initial_targets.items())))
    return (
        tuple(_rank_key(r) for r in sim.ranks),
        tuple(sorted((key, _instance_key(inst)) for key, inst in sim.instances.items())),
        tuple(p2p),
        tuple(sorted(sim.comm_records)),
        tuple(getattr(sim.counters, name) for name in sim.counters.FIELDS),
        sim.protocol.state_key(),
        coord,
    )


def explore_small(scenario: ScenarioProgram, algorithm: str = "cc",
                  include_checkpoint: bool = True, max_states: int = 3_000_000,
                  per_path_check=None, policy=None) -> ExplorationResult:
    if scenario.world_size > MAX_RANKS:
        raise InvalidConfigurationError(
            f"exhaustive mode supports at most {MAX_RANKS} ranks")
    if any(len(p) > MAX_EVENTS_PER_RANK for p in scenario.programs):
        raise InvalidConfigurationError(
            f"exhaustive mode supports at most {MAX_EVENTS_PER_RANK} events per rank")

    result = ExplorationResult()
    visited = set()

    def make_root():
        protocol = make_protocol(algorithm, policy)
        sim = Simulator(scenario, protocol, seed=0, mode="exhaustive-small",
                        record=False)
        coordinator = CheckpointCoordinator(placement=None) if include_checkpoint else None
        if coordinator is not None:
            sim.coordinator = coordinator
        return _Bundle(sim, coordinator, [])

    def apply(bundle: _Bundle, action):
        bundle.path.append(action)
        if action == CKPT_ACTION:
            bundle.coordinator.request_checkpoint(bundle.sim)
        else:
            bundle.sim.step_actor(action)

    def choices_of(bundle: _Bundle):
        """None when the path terminated; otherwise the actions to branch on."""
        sim, coordinator = bundle.sim, bundle.coordinator
        while True:
            enabled = sim.enabled_actors()
            if enabled:
                actions = list(enabled)
                if (include_checkpoint and coordinator is not None
                        and not coordinator.requested):
                    actions.append(CKPT_ACTION)
                return actions
            if coordinator is not None and not coordinator.requested:
                # placement "after the end": the one spot DFS branching missed
                coordinator.request_checkpoint(sim)
                continue
            if coordinator is not None and coordinator.handle_idle(sim):
                continue
            if sim.all_finished():
                return None
            sim._raise_deadlock()

    def finish_path(bundle: _Bundle):
        result.paths += 1
        result.max_depth = max(result.max_depth, len(bundle.path))
        coordinator = bundle.coordinator
        if coordinator is not None:
            if not coordinator.declared:
                raise SimulationError("checkpoint round never declared a safe state")
            result.rounds_declared += 1
            max_group = max(
                (len(rec.members) for rec in bundle.sim.comm_records.values()),
                default=1)
            allowed = coordinator.drain_collectives * max(max_group - 1, 0)
            if coordinator.updates_in_round > allowed:
                raise SimulationError(
                    f"update cascade {coordinator.updates_in_round} exceeds bound {allowed}")
            if allowed:
                result.update_bound_worst = max(
                    result.update_bound_worst,
                    coordinator.updates_in_round / allowed)
        verdict = check_hb_acyclic(bundle.sim.hb)
        if not verdict.passed:
            raise SimulationError(f"happens-before cycle: {verdict.detail}")
        if per_path_check is not None:
            per_path_check(bundle.sim, coordinator)

    stack = [make_root()]
    while stack:
        bundle = stack.pop()
        try:
            while True:
                actions = choices_of(bundle)
                if actions is None:
                    finish_path(bundle)
                    break
                if len(actions) > 1:
                    key = _state_key(bundle)
                    if key in visited:
                        break
                    visited.add(key)
                    result.states += 1
                    if result.states > max_states:
                        raise SimulationError(
                            f"exploration exceeded {max_states} distinct states")
                    for action in actions[1:]:
                        fork = bundle.fork()
                        apply(fork, action)
                        stack.append(fork)
                apply(bundle, actions[0])
        except SimulationError as exc:
            result.failures.append({"path": list(bundle.path), "error": str(exc)})
            if len(result.failures) > 25:
                return result
    return result
