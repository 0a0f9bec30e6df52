"""Exhaustive small-instance exploration.

Depth-first search over every scheduler choice at every step, with the
checkpoint request injected as one extra choice at each decision point, so a
single sweep covers all interleavings crossed with all checkpoint
placements. Paths that finish without the request get it fired at
termination by the coordinator's after-the-end placement.

Interleavings that converge to the same logical state share one subtree: the
search fingerprints each branching node and expands each distinct state once.
The fingerprint holds only what the ranks' pcs and stages do not fix: per
rank the ticks left of a compute and the states of its requests, the
counters, the adapter's ``state_key`` and the coordinator's round flags and
initial targets. That is exact because every path starts at one root and a
search never restarts: a rank has executed exactly its program before its
pc, so its folded results and communicators, the cc clocks, the
instance table, 2pc's live trivial barriers and what a blocked rank waits
for all follow from the pcs and stages. Step counters and other path-length
artifacts are left out. A test compares the whole state of the nodes merged
at every dedup hit. Every reachable state is still visited, so a violation
on any interleaving is a violation on some explored path.

The search is stateful: the depth-first stack holds, for each branching node
on the current path, a frozen copy of that node and the actions not yet taken
from it. Each sibling but the last continues a fork of the frozen copy
(``Simulator.fork``); the last continues the frozen copy itself. A fork
copies every container a step can change (ranks, live instances, pending and
complete requests, counters, the scheduler's ready set, the adapter's
per-rank state and the coordinator's round fields) and shares the rest: the
scenario, its ops and programs, the static communicator records with their
group keys, the already-emitted trace events, settled instances (complete,
and returned by every member or non-blocking) and consumed requests. No step
writes to those, and the scenario and its programs are frozen by validation,
so a write would raise; a branch never sees its sibling's steps. The
scheduler's rng is made by the first ``Simulator.run``, which the search
never calls, so a fork copies no rng. No adapter keeps a reference to its
runtime, so a node dropped from the stack is freed at once by reference
counting. A failure is reported under the full path of the branch that
raised it.

A path end checks that the round declared a safe state, the cc update
cascade bound and happens-before acyclicity, then calls ``per_path_check``.
The happens-before verdict depends only on the per-rank (group, num) lists
of the trace (``hb_lists_from_trace``), so one search computes it once per
distinct order and gives every path with that order the same verdict.

Bounded to at most 4 ranks and 12 events per rank; use generated campaigns
for anything larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

from .coordinator import CheckpointCoordinator, make_protocol
from .errors import InvalidConfigurationError, SimulationError
from .runtime import Counters, Simulator
from .scenario import ScenarioProgram
from .verify import check_hb_acyclic, hb_lists_from_trace

MAX_RANKS = 4
MAX_EVENTS_PER_RANK = 12
MAX_STATES = 3_000_000
CKPT_ACTION = "ckpt"


@dataclass
class ExplorationResult:
    paths: int = 0
    states: int = 0
    rounds_declared: int = 0
    max_depth: int = 0
    failures: list = field(default_factory=list)
    update_bound_worst: float = 0.0
    forks: int = 0        # node copies made
    dedup_hits: int = 0   # branching nodes cut because their state was seen

    @property
    def passed(self):
        return not self.failures


class _Bundle:
    """One node of the search: a runtime, with its coordinator, and the path
    of actions it took from the root."""

    __slots__ = ("sim", "path")

    def __init__(self, sim, path):
        self.sim = sim
        self.path = path

    @classmethod
    def root(cls, scenario, algorithm):
        sim = Simulator(scenario, make_protocol(algorithm))
        if sim.protocol.supports_checkpoint:
            # Requests on paths that never branched to CKPT_ACTION fire once
            # every rank finished.
            sim.coordinator = CheckpointCoordinator(placement=("at_step", math.inf))
        return cls(sim, [])

    def fork(self):
        """An independent copy of this node."""
        return _Bundle(self.sim.fork(), list(self.path))

    def apply(self, action):
        self.path.append(action)
        if action == CKPT_ACTION:
            self.sim.coordinator.request_checkpoint(self.sim)
        else:
            self.sim.step_actor(action)

    def choices(self):
        """The actions to branch on; [] when the path terminated."""
        actions = self.sim.runnable()
        coordinator = self.sim.coordinator
        if actions and coordinator is not None and not coordinator.requested:
            return [*actions, CKPT_ACTION]  # runnable() returns the scheduler's own list
        return actions


_COUNTS = attrgetter(*Counters.FIELDS)
_STATE = attrgetter("state")


def _state_key(bundle: _Bundle):
    """The part of a node's state that the ranks' pcs and stages do not fix
    (see the module docstring), built with no sort: a rank's requests are in
    the order its program initiated them, which its pc fixes, and the initial
    targets are in ``by_label``'s member order."""
    sim = bundle.sim
    coordinator = sim.coordinator
    coord = None
    if coordinator is not None:
        coord = (coordinator.requested, coordinator.declared,
                 tuple(coordinator.initial_targets.items()))
    return (
        tuple([(r.pc, r.stage, r.compute_left,
                tuple(zip(r.requests, map(_STATE, r.requests.values()))) if r.requests else ())
               for r in sim.ranks]),
        _COUNTS(sim.counters),
        sim.protocol.state_key(),
        coord,
    )


def _finish_path(result: ExplorationResult, bundle: _Bundle, per_path_check, hb_details):
    """Count a terminated path and check it; raises SimulationError.
    ``hb_details`` maps each per-rank (group, num) order seen to its
    happens-before verdict's detail, or to None when it passed."""
    result.paths += 1
    result.max_depth = max(result.max_depth, len(bundle.path))
    coordinator = bundle.sim.coordinator
    if coordinator is not None:
        if not coordinator.declared:
            raise SimulationError("checkpoint round never declared a safe state")
        result.rounds_declared += 1
        counters = bundle.sim.counters
        # world, over every rank, is the largest communicator
        allowed = counters.drain_collectives * (bundle.sim.world_size - 1)
        if counters.target_updates_sent > allowed:
            raise SimulationError(
                f"update cascade {counters.target_updates_sent} exceeds bound {allowed}")
        if allowed:
            result.update_bound_worst = max(
                result.update_bound_worst,
                counters.target_updates_sent / allowed)
    trace = bundle.sim.trace
    order = tuple(map(tuple, hb_lists_from_trace(trace)))
    if order not in hb_details:
        verdict = check_hb_acyclic(trace)
        hb_details[order] = None if verdict.passed else verdict.detail
    if hb_details[order] is not None:
        raise SimulationError(f"happens-before cycle: {hb_details[order]}")
    if per_path_check is not None:
        per_path_check(bundle.sim, coordinator)


def explore_small(scenario: ScenarioProgram, algorithm: str = "cc",
                  per_path_check=None) -> ExplorationResult:
    if scenario.world_size > MAX_RANKS:
        raise InvalidConfigurationError(
            f"exhaustive mode supports at most {MAX_RANKS} ranks")
    if any(len(p) > MAX_EVENTS_PER_RANK for p in scenario.programs):
        raise InvalidConfigurationError(
            f"exhaustive mode supports at most {MAX_EVENTS_PER_RANK} events per rank")

    result = ExplorationResult()
    visited = set()
    hb_details = {}  # happens-before input -> failing detail or None (_finish_path)
    stack = []  # (frozen branching node, its actions not yet taken)
    bundle, action = _Bundle.root(scenario, algorithm), None
    while True:
        try:
            if action is not None:
                bundle.apply(action)
            while True:
                actions = bundle.choices()
                if not actions:
                    _finish_path(result, bundle, per_path_check, hb_details)
                    break
                if len(actions) > 1:
                    seen = len(visited)
                    visited.add(_state_key(bundle))  # one hash of the key: a tuple caches none
                    if len(visited) == seen:
                        result.dedup_hits += 1
                        break
                    result.states += 1
                    if result.states > MAX_STATES:
                        raise SimulationError(
                            f"exploration exceeded {MAX_STATES} distinct states")
                    result.forks += 1
                    stack.append((bundle.fork(), actions[1:]))
                bundle.apply(actions[0])
        except SimulationError as exc:
            result.failures.append({"path": bundle.path, "error": str(exc)})
            if len(result.failures) > 25:
                return result
        if not stack:
            return result
        node, remaining = stack[-1]
        action = remaining.pop()
        if remaining:
            result.forks += 1
            bundle = node.fork()
        else:
            stack.pop()
            bundle = node
