"""Spans around calls into each ccsim layer, recorded from outside ``src/``.

``install`` replaces the public entry points listed in ``entry_points`` with
wrappers that time each call. Spans stay in memory: every call adds to a
per-(name, tag) total of calls, inclusive time and self time (inclusive time
minus the time its child spans cover), and the first KEEP_SPANS spans are also
kept raw with their parent's id for ``write``. The tag is set by the
benchmark to (world size, stage) before each operation.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter

import ccsim
from ccsim import cc, clock, coordinator, driver, explore, metrics, runtime, scenario, twophase, verify

# Hooks whose return value says what the protocol decided (park, barrier,
# proceed, abort); the tracer counts those outcomes.
_OUTCOME_HOOKS = {"begin_collective", "begin_nonblocking", "finish_collective", "barrier_step"}


def entry_points():
    """(span name, owner, attribute) for every wrapped entry point."""
    points = [
        ("runtime.run", runtime.Simulator, "run"),
        ("runtime.step_actor", runtime.Simulator, "step_actor"),
        ("runtime.enabled_actors", runtime.Simulator, "enabled_actors"),
        ("coordinator.before_step", coordinator.CheckpointCoordinator, "before_step"),
        ("coordinator.handle_idle", coordinator.CheckpointCoordinator, "handle_idle"),
        ("coordinator.declare_safe_state", coordinator.CheckpointCoordinator,
         "declare_safe_state"),
        ("coordinator.build_snapshot", coordinator, "build_snapshot"),
        ("coordinator.snapshot_dumps", coordinator.SnapshotImage, "dumps"),
        ("coordinator.snapshot_loads", coordinator.SnapshotImage, "loads"),
        ("coordinator.restart", coordinator, "restart"),
        ("scenario.generate", scenario, "generate_workload"),
        ("scenario.dumps", scenario.ScenarioProgram, "dumps"),
        ("scenario.loads", scenario.ScenarioProgram, "loads"),
        ("scenario.validate", scenario.ScenarioProgram, "validate"),
        ("clock.label", clock.GroupKey, "label"),
        ("metrics.collect", metrics, "collect_metrics"),
        ("driver.run", driver, "run"),
        ("driver.run_restart", driver, "run_restart"),
        ("explore.explore_small", explore, "explore_small"),
        ("explore.fork", explore._Bundle, "fork"),
        ("explore.state_key", explore, "_state_key"),
    ]
    points += [(f"verify.{name}", verify, name) for name in vars(verify)
               if name.startswith("check_")]
    for layer, cls in (("cc", cc.CollectiveClockProtocol),
                       ("twophase", twophase.TwoPhaseCommitProtocol)):
        points += [(f"{layer}.{name}", cls, name) for name, value in vars(cls).items()
                   if callable(value) and not name.startswith("_")]
    return points


KEEP_SPANS = 50_000   # raw spans kept for write(); totals cover every call


class Tracer:
    def __init__(self):
        self.tag = (0, "")
        self.totals = {}            # (name, tag) -> [calls, inclusive ns, self ns]
        self.outcomes = Counter()   # (name, returned value) -> calls
        self.spans = []             # (id, parent id, name, tag, start ns, end ns)
        self.active = True
        self._stack = []            # open spans: [id, ns covered by children]
        self._next_id = 0
        self._cost_ns = 0

    def wrap(self, name: str, fn):
        stack, totals, now = self._stack, self.totals, time.perf_counter_ns
        count_outcome = name.split(".", 1)[1] in _OUTCOME_HOOKS

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                span = end - start
                if stack:
                    # charge the wrapper's own cost to the child, not the parent
                    stack[-1][1] += span + self._cost_ns
                entry = totals.get((name, self.tag))
                if entry is None:
                    entry = totals[(name, self.tag)] = [0, 0, 0]
                entry[0] += 1
                entry[1] += span
                entry[2] += span - frame[1]
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append((frame[0], parent, name, self.tag, start, end))
            if count_outcome:
                self.outcomes[(name, result)] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every entry point, in its class or in every ccsim module that
        imported it by name; then measure the wrapper's own cost."""
        modules = [ccsim] + [m for m in vars(ccsim).values()
                             if getattr(m, "__name__", "").startswith("ccsim.")]
        for name, owner, attr in entry_points():
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif isinstance(owner, type):
                setattr(owner, attr, self.wrap(name, raw))
            else:
                wrapped = self.wrap(name, raw)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)
        self._cost_ns = self._calibrate()

    def _calibrate(self, calls: int = 2_000, rounds: int = 7) -> int:
        """Wrapper cost per call outside the span it records: the least over
        several rounds, with the collector paused so no round pays for it."""
        def noop():
            return None

        wrapped = self.wrap("calibrate.noop", noop)
        key = ("calibrate.noop", self.tag)
        costs = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(rounds):
                t0 = time.perf_counter_ns()
                for _ in range(calls):
                    noop()
                bare = time.perf_counter_ns() - t0
                self.totals.pop(key, None)
                t0 = time.perf_counter_ns()
                for _ in range(calls):
                    wrapped()
                traced = time.perf_counter_ns() - t0
                costs.append((traced - bare - self.totals[key][1]) // calls)
        finally:
            if enabled:
                gc.enable()
        del self.totals[key]
        self.spans = [s for s in self.spans if s[2] != "calibrate.noop"]
        return max(0, min(costs))

    # ------------------------------------------------------------ queries

    def _select(self, names, world=None, stages=None):
        for (name, (w, stage)), entry in self.totals.items():
            if name in names and (world is None or w == world) and \
                    (stages is None or stage in stages):
                yield entry

    def calls(self, *names, **where) -> int:
        return sum(e[0] for e in self._select(names, **where))

    def total_s(self, *names, **where) -> float:
        return sum(e[1] for e in self._select(names, **where)) / 1e9

    def self_s(self, *names, **where) -> float:
        return sum(e[2] for e in self._select(names, **where)) / 1e9

    def names(self, prefix: str) -> list:
        return sorted({name for name, _ in self.totals if name.startswith(prefix)})

    def write(self, path):
        """Raw spans as JSON lines, then one line per (name, tag) total."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, (world, stage), start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "world": world, "stage": stage,
                                     "start_ns": start, "end_ns": end}) + "\n")
            for (name, (world, stage)), (calls, incl, own) in sorted(self.totals.items()):
                fh.write(json.dumps({"total": name, "world": world, "stage": stage,
                                     "calls": calls, "inclusive_ns": incl,
                                     "self_ns": own}) + "\n")
