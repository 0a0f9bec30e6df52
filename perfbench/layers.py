"""Per-layer metrics of a traced run.

Times come from the tracer's spans over the timed passes only (set-up spans
feed the scenario-generation figures). Counts are exact and per pass: every
pass repeats the same work. Shares are of the traced loop's wall time unless
the name says otherwise; ``_us``/``_ms`` figures are means per call.
"""

from __future__ import annotations

import statistics
from collections import Counter

LOOP = {"run", "base", "ckpt", "restart", "explore"}
RUNTIME = ("runtime.run", "runtime.step_actor", "runtime.enabled_actors")
EXPLORER = ("explore.explore_small", "explore.fork", "explore.state_key")


def _ratio(num, den):
    return num / den if den else 0.0


def _sim_counts(records):
    """Counter totals over every simulation a pass ran."""
    total = Counter()
    for rec in records:
        if "rounds" in rec:
            sims = [rec["base"]] + [r[k] for r in rec["rounds"] for k in ("ckpt", "restart")
                                    if k in r]
        elif "path_totals" in rec:
            sims = [rec["path_totals"]]
        else:
            sims = [rec] if "steps" in rec else []
        for sim in sims:
            total.update({k: v for k, v in sim.items() if isinstance(v, int)})
    return total


def per_layer(tr, run, scenarios, loop_s, untraced_s) -> dict:
    passes = len(run.passes) - 1          # the first pass ran untraced
    records = run.passes[0].records
    counts = _sim_counts(records)
    rounds = [r for rec in records for r in rec.get("rounds", ()) if "declared_step" in r]
    explored = [rec for rec in records if "states" in rec]
    steps = tr.calls("runtime.step_actor", stages=LOOP)

    def mean_us(*names, stages=LOOP):
        return _ratio(tr.total_s(*names, stages=stages), tr.calls(*names, stages=stages)) * 1e6

    def self_us(*names):
        return _ratio(tr.self_s(*names, stages=LOOP), tr.calls(*names, stages=LOOP)) * 1e6

    def per_kev(check, algos):
        events = sum(r["trace_events"] for rec in records if rec["algo"] in algos
                     for r in rec.get("rounds", ()) if "trace_events" in r) * passes
        return _ratio(tr.total_s(check, stages=LOOP) * 1e6, events / 1000)

    m = {
        "runtime.steps": (steps / passes, "count"),
        "runtime.app_messages": (counts["app"], "count"),
        "runtime.p2p_messages": (counts["p2p"], "count"),
        "runtime.step_us": (_ratio(tr.self_s(*RUNTIME, stages=LOOP), steps) * 1e6, "us"),
    }
    for n in (8, 16, 32, 64):
        m[f"runtime.step_us.r{n}"] = (_ratio(
            tr.self_s(*RUNTIME, world=n, stages=LOOP),
            tr.calls("runtime.step_actor", world=n, stages=LOOP)) * 1e6, "us")
    m["runtime.enabled_actors_us"] = (mean_us("runtime.enabled_actors"), "us")
    m["runtime.enabled_actors_share"] = (
        _ratio(tr.total_s("runtime.enabled_actors", stages=LOOP), loop_s), "ratio")

    m["clock.label_calls_per_step"] = (_ratio(tr.calls("clock.label", stages=LOOP), steps),
                                       "count")
    m["clock.label_share"] = (_ratio(tr.self_s("clock.label", stages=LOOP), loop_s), "ratio")

    out = tr.outcomes
    m["cc.hook_us"] = (self_us(*tr.names("cc.")), "us")
    m["cc.target_updates_sent"] = (counts["updates_sent"], "count")
    m["cc.parks"] = (sum(out[(f"cc.{h}", "park")] for h in (
        "begin_collective", "begin_nonblocking", "finish_collective")) / passes, "count")
    m["cc.update_useful_ratio"] = (_ratio(
        counts["updates_applied"], counts["updates_applied"] + counts["updates_stale"]), "ratio")
    m["twophase.hook_us"] = (self_us(*tr.names("twophase.")), "us")
    m["twophase.tpc_barrier_messages"] = (counts["tpc"], "count")
    m["twophase.commit_ratio"] = (_ratio(out[("twophase.barrier_step", "proceed")],
                                         out[("twophase.begin_collective", "barrier")]), "ratio")

    m.update({
        "coordinator.before_step_us": (mean_us("coordinator.before_step"), "us"),
        "coordinator.handle_idle_us": (mean_us("coordinator.handle_idle"), "us"),
        "coordinator.steps_to_safe_state": (statistics.fmean(
            [r["declared_step"] - r["requested_step"] for r in rounds] or [0]), "count"),
        "coordinator.snapshot_build_ms": (mean_us("coordinator.build_snapshot") / 1e3, "ms"),
        # of the whole checkpointed job: the run up to the snapshot, which
        # halts there, plus the restart that runs it to completion
        "coordinator.snapshot_share": (_ratio(
            tr.total_s("coordinator.build_snapshot", stages={"ckpt"}),
            tr.total_s("runtime.run", stages={"ckpt", "restart"})), "ratio"),
        "coordinator.snapshot_bytes": (statistics.fmean(
            [r["snapshot_bytes"] for r in rounds] or [0]), "bytes"),
        "coordinator.snapshot_dumps_ms": (mean_us("coordinator.snapshot_dumps") / 1e3, "ms"),
        "coordinator.snapshot_loads_ms": (mean_us("coordinator.snapshot_loads") / 1e3, "ms"),
        "coordinator.restart_ms": (mean_us("coordinator.restart") / 1e3, "ms"),
        "coordinator.known_deadlocks": (sum(d["failed"] for d in run.defect.values()), "count"),
    })

    every = LOOP | {"setup"}
    m.update({
        "scenario.generate_ms": (mean_us("scenario.generate", stages={"setup"}) / 1e3, "ms"),
        "scenario.ops": (statistics.fmean(
            [sum(len(p) for p in sc.programs) for sc in scenarios]), "count"),
        "scenario.validate_ms": (mean_us("scenario.validate", stages=every) / 1e3, "ms"),
        "scenario.dumps_ms": (mean_us("scenario.dumps") / 1e3, "ms"),
        "scenario.loads_ms": (mean_us("scenario.loads") / 1e3, "ms"),
        "verify.trace_events": (sum(r["trace_events"] for r in rounds), "count"),
        "verify.hb_acyclic_us_per_kev": (per_kev("verify.check_hb_acyclic", ("cc", "2pc")),
                                         "us"),
        "verify.clock_skew_us_per_kev": (per_kev("verify.check_clock_skew", ("cc",)), "us"),
        "verify.safe_state_us_per_kev": (per_kev("verify.check_safe_state", ("cc", "2pc")),
                                         "us"),
        "verify.crossing_legality_ms": (
            mean_us("verify.check_crossing_legality", stages=every) / 1e3, "ms"),
    })

    states = sum(rec["states"] for rec in explored)
    m.update({
        "explore.states": (states, "count"),
        "explore.paths": (sum(rec["paths"] for rec in explored), "count"),
        "explore.self_share": (_ratio(tr.self_s(*EXPLORER, stages=LOOP),
                                      tr.total_s("explore.explore_small", stages=LOOP)), "ratio"),
        "explore.fork_us": (mean_us("explore.fork"), "us"),
        "explore.state_key_us": (mean_us("explore.state_key"), "us"),
        "explore.dedup_hit_ratio": (1 - _ratio(states * passes,
                                               tr.calls("explore.state_key", stages=LOOP))
                                    if explored else 0.0, "ratio"),
        "metrics.collect_us": (mean_us("metrics.collect"), "us"),
        "driver.self_share": (_ratio(tr.self_s("driver.run", "driver.run_restart", stages=LOOP),
                                     loop_s), "ratio"),
        "trace.overhead_ratio": (_ratio(statistics.median(run.pass_seconds[1:]), untraced_s),
                                 "ratio"),
    })
    return m
