"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` and runs
them in whole passes with ``run_pass``. A pass is a fixed list of operations,
so every pass does identical work and yields identical exact outputs
(``records``); only host time differs between passes. The ccsim entry points
are always reached through their module attributes (``driver.run``, not a
local alias), so the tracer in ``tracing.py`` sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from ccsim import coordinator, driver, explore, scenario
from ccsim.errors import SimulationError
from ccsim.scenario import Op, ScenarioProgram


@dataclass
class PassResult:
    """One pass: exact outputs, work done, and per-run times in
    reference-speed milliseconds (see hostclock.py)."""

    records: list = field(default_factory=list)
    work: int = 0             # in the workload's ``work_unit``
    ops: int = 0              # operations attempted
    failed: int = 0           # operations whose own checks failed
    samples_ms: list = field(default_factory=list)  # one per "run"

    def digest(self) -> str:
        text = json.dumps(self.records, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _sim_counts(sim) -> dict:
    c = sim.counters
    return {
        "steps": sim.step, "app": c.app_messages, "p2p": c.p2p_messages,
        "protocol": c.protocol_messages, "tpc": c.tpc_barrier_messages,
        "updates_sent": c.target_updates_sent, "updates_applied": c.target_updates_applied,
        "updates_stale": c.target_updates_stale,
        "checksums": [sim.checksums()[r] for r in range(sim.world_size)],
    }


class Tagger:
    """Labels the tracer's spans with the world size and stage of the current
    operation; a no-op when the run is untraced."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, world: int, stage: str):
        if self.tracer is not None:
            self.tracer.tag = (world, stage)

    def span(self, name: str, fn):
        """``fn`` recorded as a span of its own when traced, so the
        benchmark's own work inside a ccsim call is not charged to it."""
        return fn if self.tracer is None else self.tracer.wrap(name, fn)


def campaign_mix(index: int, ranks: int, algo: str) -> dict:
    """Generator knobs of the scenario at ``index`` in a pass.

    The mix cycles by index through the spread of the seeded acceptance
    campaigns (``campaign_params`` in tests/test_acceptance.py): groups 0-3,
    non-blocking ratio 0/.2/.4/.5, p2p ratio 0/.12/.24 and 30-300 ops. Only
    the rank count is the workload's own, and the op budget grows with it:
    the campaign's budget times ranks / 8. 2pc gets no non-blocking operations,
    which it does not support. Cycling rather than drawing gives every seed
    the same mix, so passes of different seeds differ only in the generator's
    random draws.
    """
    return dict(ranks=ranks, groups=index % 4, ops=(30 + (index * 13) % 271) * ranks // 8,
                nonblocking_ratio=(0.0, 0.2, 0.4, 0.5)[index % 4] if algo == "cc" else 0.0,
                p2p_ratio=(0.0, 0.12, 0.24)[index % 3])


def generated(seed, classes, tick=None) -> list:
    """(scenario, algorithm, scheduler seed) tuples drawn from ``seed``:
    ``classes`` maps a rank count to the number of scenarios under each
    algorithm. ``tick`` is called after each scenario."""
    rng = random.Random(seed)
    inputs = []
    for ranks, count in classes.items():
        for algo in ("cc", "2pc"):
            for _ in range(count):
                mix = campaign_mix(len(inputs), ranks, algo)
                sc = scenario.generate_workload(rng.randrange(1 << 31), **mix)
                inputs.append((sc, algo, rng.randrange(1 << 31)))
                if tick:
                    tick()
    return inputs


# --------------------------------------------------------------------------
# steady-scale
# --------------------------------------------------------------------------


class SteadyScale:
    """Uninterrupted runs at 8-64 ranks: no checkpoint, recording or checks."""

    name = "steady-scale"
    work_unit = "sim_steps"
    sizes = {"full": {8: 32, 16: 32, 32: 32, 64: 32}, "tiny": {8: 1}}  # ranks: count

    def setup(self, seed, size, tick=None):
        return generated(seed, self.sizes[size], tick)

    def run_pass(self, inputs, tag, clock) -> PassResult:
        out = PassResult()
        for sc, algo, seed in inputs:
            tag(sc.world_size, "run")
            out.ops += 1
            t0 = clock.now()
            try:
                res = driver.run(sc, algo, seed=seed, record=False, checks=False)
            except SimulationError as exc:
                out.failed += 1
                out.records.append({"scenario": sc.name, "algo": algo, "error": repr(exc)})
                continue
            out.samples_ms.append((clock.now() - t0) * 1e3)
            rec = {"scenario": sc.name, "algo": algo, "seed": seed, **_sim_counts(res.sim)}
            # criterion 2: the collective clock adds no traffic without a round
            if algo == "cc" and rec["protocol"]:
                out.failed += 1
                rec["error"] = "cc sent protocol messages without a checkpoint"
            out.records.append(rec)
            out.work += res.sim.step
        return out


# --------------------------------------------------------------------------
# ckpt-campaign
# --------------------------------------------------------------------------

FRACTIONS = ((1, 3), (2, 3))  # checkpoint placements, as shares of the run length


class CkptCampaign:
    """Checkpoint rounds with recording and every verifier pass on, each
    snapshot serialised, read back and restarted to completion."""

    name = "ckpt-campaign"
    work_unit = "rounds"
    sizes = {"full": {8: 12, 16: 12, 32: 12}, "tiny": {8: 1}}  # ranks: count

    def setup(self, seed, size, tick=None):
        return generated(seed, self.sizes[size], tick)

    def run_pass(self, inputs, tag, clock) -> PassResult:
        out = PassResult()
        for sc, algo, seed in inputs:
            tag(sc.world_size, "base")
            out.ops += 1
            try:
                base = driver.run(sc, algo, seed=seed, record=False, checks=False)
            except SimulationError as exc:
                out.failed += 1
                out.records.append({"scenario": sc.name, "algo": algo, "error": repr(exc)})
                continue
            rec = {"scenario": sc.name, "algo": algo, "seed": seed,
                   "base": _sim_counts(base.sim), "rounds": []}
            for num, den in FRACTIONS:
                at = base.sim.step * num // den
                out.ops += 1
                t0 = clock.now()
                try:
                    rnd = self._round(sc, algo, seed, at, base, tag)
                except SimulationError as exc:
                    rnd = {"at": at, "ok": False, "error": repr(exc)}
                else:
                    out.samples_ms.append((clock.now() - t0) * 1e3)
                rec["rounds"].append(rnd)
                if rnd["ok"]:
                    out.work += 1
                else:
                    out.failed += 1
            out.records.append(rec)
        return out

    @staticmethod
    def _round(sc, algo, seed, at, base, tag) -> dict:
        tag(sc.world_size, "ckpt")
        ck = driver.run(sc, algo, seed=seed, ckpt=("at_step", at),
                        halt_at_snapshot=True, record=True, checks=True)
        text = ck.snapshot.dumps()
        image = coordinator.SnapshotImage.loads(text)
        tag(sc.world_size, "restart")
        rs = driver.run_restart(image, record=False, checks=False)
        coord = ck.coordinator
        ok = (ck.passed and coord.declared and rs.sim.all_finished()
              and rs.checksums == base.checksums)
        return {
            "at": at, "ok": ok,
            "verdicts": [[v.check, v.passed] for v in ck.verdicts],
            "requested_step": coord.requested_step, "declared_step": coord.declared_step,
            "trace_events": len(ck.sim.trace),
            "ckpt": _sim_counts(ck.sim),
            "snapshot_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "snapshot_bytes": len(text.encode()),
            "restart": _sim_counts(rs.sim),
        }


def item2_scenario() -> ScenarioProgram:
    """The ROADMAP item-2 reproduction: unfenced point-to-point next to a
    barrier on a sub-group. Legal, and clean without a checkpoint."""
    sc = ScenarioProgram(world_size=3, comms={"g": (1, 2)}, name="item2-deadlock")
    for r in range(3):
        sc.programs[r].append(Op(rank=r, op="comm_create", new_comm="g"))
    sc.programs[0].append(Op(rank=0, op="recv", peer=1))
    sc.programs[1].append(Op(rank=1, op="coll", comm="g", kind="barrier"))
    sc.programs[1].append(Op(rank=1, op="send", peer=0, data=[7]))
    sc.programs[2].append(Op(rank=2, op="coll", comm="g", kind="barrier"))
    sc.validate()
    return sc


def known_deadlock() -> dict:
    """Checkpoint the item-2 reproduction at every step for scheduler seeds
    0-19 under both protocols; count the placements that fail and how."""
    sc = item2_scenario()
    found = {}
    for algo in ("cc", "2pc"):
        attempted = failed = 0
        errors = set()
        for seed in range(20):
            steps = driver.run(sc, algo, seed=seed, record=False, checks=False).sim.step
            for at in range(steps + 1):
                attempted += 1
                try:
                    res = driver.run(sc, algo, seed=seed, ckpt=("at_step", at),
                                     record=True, checks=True)
                except SimulationError as exc:
                    failed += 1
                    errors.add(type(exc).__name__)
                    continue
                if not res.passed:
                    failed += 1
                    errors.add("failed-verdict")
        found[algo] = {"attempted": attempted, "failed": failed, "errors": sorted(errors)}
    return found


# --------------------------------------------------------------------------
# explore-small
# --------------------------------------------------------------------------

KINDS = ("allreduce", "reduce", "bcast", "gather", "barrier")


def _collective(rng, sc, comm, request_id=None) -> dict:
    """One collective instance on ``comm``: member rank -> its Op."""
    members = sc.comm_members(comm)
    kind = rng.choice(KINDS)
    root = rng.choice(members) if kind in ("bcast", "reduce", "gather") else None
    red = rng.choice(("sum", "max")) if kind in ("reduce", "allreduce") else None
    ops = {}
    for r in members:
        if kind == "barrier" or (kind == "bcast" and r != root):
            data = None
        else:
            data = [rng.randrange(100)]
        ops[r] = Op(rank=r, op="icoll" if request_id else "coll", comm=comm, kind=kind,
                    root=root, reduce_op=red, data=data, request_id=request_id)
    return ops


def _case(name, comms, body) -> ScenarioProgram:
    sc = ScenarioProgram(world_size=3, comms=comms, name=name)
    for cid in sorted(comms):
        for r in range(3):
            sc.programs[r].append(Op(rank=r, op="comm_create", new_comm=cid))
    body(sc)
    sc.validate()
    return sc


class ExploreSmall:
    """Exhaustive interleaving x checkpoint-placement search on criterion-5
    shaped cases: 3 ranks, groups a={x,y} and b={y,z} overlapping in y.

    The seed draws every collective's kind, root, reduce op and payload. The
    rank roles (x, y, z) = (0, 1, 2) and the synchronisation skeleton are
    fixed, so every seed explores the same states in the same depth-first
    order and the per-path time distribution keeps its shape; only the
    exact outputs differ.
    """

    name = "explore-small"
    work_unit = "states"

    def setup(self, seed, size, tick=None):
        rng = random.Random(seed)
        x, y, z = 0, 1, 2
        a, b = (x, y), (y, z)

        def mixed(sc):  # cc: a non-blocking collective on a spans one on b
            i1 = _collective(rng, sc, "a", request_id="q0")
            c2 = _collective(rng, sc, "b")
            sc.programs[x] += [i1[x], Op(rank=x, op="wait", request_id="q0")]
            sc.programs[y] += [i1[y], c2[y], Op(rank=y, op="wait", request_id="q0")]
            sc.programs[z] += [c2[z]]

        def blocking(sc):  # 2pc: the same skeleton, blocking only
            c1 = _collective(rng, sc, "a")
            c2 = _collective(rng, sc, "b")
            sc.programs[x] += [c1[x]]
            sc.programs[y] += [c1[y], c2[y]]
            sc.programs[z] += [c2[z]]

        def pair(sc):  # tiny: one collective on a, rank z idle
            c1 = _collective(rng, sc, "a")
            sc.programs[x] += [c1[x]]
            sc.programs[y] += [c1[y]]

        if size == "tiny":
            return [(_case(f"x-pair-{seed}", {"a": a}, pair), "cc"),
                    (_case(f"x-pair2-{seed}", {"a": a}, pair), "2pc")]
        return [(_case(f"x-mixed-{seed}", {"a": a, "b": b}, mixed), "cc"),
                (_case(f"x-blocking-{seed}", {"a": a, "b": b}, blocking), "2pc")]

    def run_pass(self, inputs, tag, clock) -> PassResult:
        out = PassResult()
        for sc, algo in inputs:
            tag(sc.world_size, "explore")
            out.ops += 1
            terminals = set()
            totals = dict.fromkeys(("app", "p2p", "tpc", "updates_sent", "updates_applied",
                                    "updates_stale", "steps"), 0)
            last = [clock.now()]

            def on_path(sim, _coordinator):
                # one sample per explored run: host time since the previous
                # path finished, dedup-pruned branches included
                now = clock.now()
                out.samples_ms.append((now - last[0]) * 1e3)
                last[0] = now
                terminals.add(tuple(sim.checksums()[r] for r in range(sim.world_size)))
                c = sim.counters
                totals["app"] += c.app_messages
                totals["p2p"] += c.p2p_messages
                totals["updates_sent"] += c.target_updates_sent
                totals["updates_applied"] += c.target_updates_applied
                totals["updates_stale"] += c.target_updates_stale
                totals["tpc"] += c.tpc_barrier_messages
                totals["steps"] += sim.step

            result = explore.explore_small(
                sc, algorithm=algo, per_path_check=tag.span("perfbench.on_path", on_path))
            ok = (result.passed and result.rounds_declared == result.paths
                  and result.update_bound_worst <= 1.0)
            out.failed += not ok
            out.work += result.states
            out.records.append({
                "scenario": sc.name, "algo": algo, "ok": ok,
                "states": result.states, "paths": result.paths,
                "rounds_declared": result.rounds_declared, "max_depth": result.max_depth,
                "failures": [f["error"] for f in result.failures],
                "update_bound_worst": result.update_bound_worst,
                "terminals": sorted(terminals), "path_totals": totals,
            })
        return out


WORKLOADS = {w.name: w for w in (SteadyScale(), CkptCampaign(), ExploreSmall())}


# --------------------------------------------------------------------------
# Golden configurations (criterion 8)
# --------------------------------------------------------------------------


def golden_digests() -> dict:
    """sha256 of trace + metrics + snapshot for the criterion-8 configurations."""
    cases = {
        "fig2/cc": ("fig2", "cc", 11, ("trigger", "fig2-instant")),
        "gen-77/cc": (scenario.generate_workload(77, ranks=9, groups=3, ops=120,
                                                 nonblocking_ratio=0.3, p2p_ratio=0.2),
                      "cc", 5, ("at_step", 100)),
        "gen-78/2pc": (scenario.generate_workload(78, ranks=8, groups=2, ops=100,
                                                  p2p_ratio=0.2),
                       "2pc", 6, ("at_step", 80)),
    }
    out = {}
    for key, (sc, algo, seed, placement) in cases.items():
        res = driver.run(sc, algorithm=algo, seed=seed, ckpt=placement)
        blob = "\n".join(res.trace_lines()) + "\n" + res.metrics.to_json_line() + "\n"
        blob += res.snapshot.dumps() if res.snapshot else ""
        out[key] = hashlib.sha256(blob.encode()).hexdigest()
    return out

