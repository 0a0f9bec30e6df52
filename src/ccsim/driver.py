"""End-to-end orchestration: build, execute, check, and account one run."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .coordinator import (CheckpointCoordinator, SnapshotImage, make_protocol, restart,
                          valid_placement)
from .errors import SimulationError, UnsupportedOperationError
from .metrics import MetricsReport, collect_metrics
from .runtime import Simulator
from .scenario import BUILTIN_SCENARIOS, ScenarioProgram, builtin_scenario
from .verify import (
    check_clock_skew,
    check_crossing_legality,
    check_hb_acyclic,
    check_safe_state,
)


@dataclass
class RunResult:
    scenario_name: str
    algorithm: str
    seed: int
    placement: tuple | None
    sim: Simulator | None
    coordinator: CheckpointCoordinator | None
    metrics: MetricsReport | None
    verdicts: list = field(default_factory=list)
    snapshot: SnapshotImage | None = None
    error: str = ""
    uninterrupted: dict | None = None  # a random placement's probe checksums

    @property
    def passed(self) -> bool:
        return not self.error and all(v.passed for v in self.verdicts)

    @property
    def checksums(self) -> dict:
        return self.sim.checksums() if self.sim is not None else {}

    def trace_lines(self):
        return self.sim.trace_lines() if self.sim is not None else []


def load_scenario(spec) -> ScenarioProgram:
    """Accept a ScenarioProgram, a built-in name, or a file path."""
    if isinstance(spec, ScenarioProgram):
        return spec
    if isinstance(spec, str):
        if spec in BUILTIN_SCENARIOS:
            return builtin_scenario(spec)
        return ScenarioProgram.load(spec)
    raise SimulationError(f"cannot interpret scenario spec {spec!r}")


def resolve_placement(scenario: ScenarioProgram, algorithm: str, seed: int,
                      ckpt) -> tuple:
    """Normalize a checkpoint placement: (placement, the uninterrupted run's
    checksums if a probe ran, else None).

    ("random", s) draws a step uniformly from the length of the same run
    without a checkpoint, so the placement is reproducible from s alone.
    """
    if not (valid_placement(ckpt) and ckpt[0] == "random"):
        return ckpt, None  # the coordinator takes or rejects every other placement
    probe = _execute(scenario, algorithm, seed, None, False, False)
    return ("at_step", random.Random(ckpt[1]).randrange(probe.sim.step + 1)), probe.checksums


def _execute(scenario, algorithm, seed, placement, halt_at_snapshot, record):
    sim = Simulator(scenario, make_protocol(algorithm), seed=seed, record=record)
    coordinator = None
    if placement is not None:
        coordinator = CheckpointCoordinator(placement, halt_at_snapshot=halt_at_snapshot)
        sim.coordinator = coordinator
    sim.run()
    return RunResult(
        scenario_name=scenario.name, algorithm=algorithm, seed=seed,
        placement=placement, sim=sim, coordinator=coordinator,
        metrics=None, snapshot=coordinator.snapshot if coordinator else None,
    )


def run(scenario_spec, algorithm: str = "none", seed: int = 0, ckpt=None,
        halt_at_snapshot: bool = False, record: bool = True,
        checks: bool = True) -> RunResult:
    """Execute one run end-to-end with verifier checks and metrics.

    With checks, a scenario that fails crossing legality is not run. The
    two-phase baseline raises UnsupportedOperationError for a scenario with
    a non-blocking collective before a run (or a random placement's probe)
    takes its first step.
    """
    scenario = load_scenario(scenario_spec)
    verdicts = []
    if checks:
        legality = check_crossing_legality(scenario, seed)
        verdicts.append(legality)
        if not legality.passed:
            return RunResult(scenario.name, algorithm, seed, None, None, None, None,
                             verdicts, error="scenario fails crossing legality")
    placement, uninterrupted = resolve_placement(scenario, algorithm, seed, ckpt)
    result = _execute(scenario, algorithm, seed, placement, halt_at_snapshot, record)
    result.verdicts, result.uninterrupted = verdicts, uninterrupted
    if checks and result.sim.trace is not None:
        result.verdicts.append(check_hb_acyclic(result.sim.trace, scenario.name, seed))
        if algorithm == "cc":
            result.verdicts.append(check_clock_skew(result.sim.trace, scenario.name, seed))
        if result.snapshot is not None:
            result.verdicts.append(
                check_safe_state(result.snapshot, result.sim.trace, scenario.name, seed))
    result.metrics = collect_metrics(result.sim, result.coordinator,
                                     placement=str(placement) if placement else "")
    return result


def run_restart(snapshot: SnapshotImage, seed: int | None = None,
                record: bool = True, checks: bool = True) -> RunResult:
    """Resume a snapshot image and run it to completion."""
    sim = restart(snapshot, seed=seed, record=record)
    sim.run()
    result = RunResult(
        scenario_name=sim.scenario.name, algorithm=snapshot.algorithm,
        seed=sim.seed, placement=None, sim=sim, coordinator=None,
        metrics=None, snapshot=None,
    )
    if checks and sim.trace is not None:
        result.verdicts.append(check_hb_acyclic(sim.trace, sim.scenario.name, sim.seed))
    result.metrics = collect_metrics(sim, None, placement="restart")
    return result


def compare(scenario_spec, seeds, algorithms=("none", "cc", "2pc"),
            placements=(None,)) -> list:
    """Cross-algorithm metric rows for the same scenario and seeds.

    A collective-clock run with no checkpoint must show zero protocol
    messages; a violation marks the row failed. The two-phase baseline
    reports unsupported-operation rows for non-blocking scenarios instead of
    crashing the sweep.
    """
    scenario = load_scenario(scenario_spec)
    rows = []
    for seed in seeds:
        for algorithm in algorithms:
            for placement in placements:
                row = {
                    "scenario": scenario.name, "seed": seed, "algorithm": algorithm,
                    "placement": str(placement) if placement else "",
                }
                if placement is not None and algorithm == "none":
                    continue
                try:
                    result = run(scenario, algorithm=algorithm, seed=seed,
                                 ckpt=placement, record=False, checks=False)
                except UnsupportedOperationError as exc:
                    row["error"] = "unsupported-operation"
                    row["detail"] = str(exc)
                    rows.append(row)
                    continue
                counts = result.sim.counters
                row.update({
                    "steps": result.sim.step,
                    "app_messages": counts.app_messages,
                    "protocol_messages": counts.protocol_messages,
                    "target_updates_sent": counts.target_updates_sent,
                    "tpc_barrier_messages": counts.tpc_barrier_messages,
                    "ok": True,
                })
                if algorithm == "cc" and placement is None and counts.protocol_messages:
                    row["ok"] = False
                rows.append(row)
    return rows
