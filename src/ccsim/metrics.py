"""Exact, deterministic accounting for one run.

Overhead is reported as message and step counts, never wall clock. The cost
model for application messages lives in runtime.collective_cost and is
identical across algorithms, so cross-algorithm differences isolate protocol
traffic: target updates for the collective clock, inserted barriers for the
two-phase baseline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import reduce
from operator import or_

from .clock import by_label
from .scenario import encode

@dataclass
class MetricsReport:
    scenario: str
    algorithm: str
    seed: int
    steps: int
    counts: dict
    steps_to_safe_state: int | None = None
    final_seq: dict = field(default_factory=dict)
    final_targets: dict = field(default_factory=dict)
    placement: str = ""

    def to_json_line(self) -> str:
        return encode(asdict(self))  # sorted keys at every depth


def collect_metrics(sim, coordinator=None, placement="") -> MetricsReport:
    counts = sim.counters.to_dict()
    steps_to_safe = None
    final_targets = {}
    if coordinator is not None and coordinator.declared:
        steps_to_safe = coordinator.declared_step - coordinator.requested_step
        final_targets = dict(coordinator.final_targets)
    final_seq = {}
    if sim.protocol.name == "cc":
        final_seq = by_label(reduce(or_, (st.clock for st in sim.protocol.states), Counter()))
    return MetricsReport(
        scenario=sim.scenario.name,
        algorithm=sim.protocol.name,
        seed=sim.seed,
        steps=sim.step,
        counts=counts,
        steps_to_safe_state=steps_to_safe,
        final_seq=final_seq,
        final_targets=final_targets,
        placement=placement,
    )
