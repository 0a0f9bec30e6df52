#!/usr/bin/env python3
"""The collective clock in action on the built-in "fig2" scenario.

Seven ranks, four overlapping groups. The checkpoint request lands at an
instant where rank 3 still owes five collectives on group {2,3}; on its way
there it executes a fresh collective on {3,4,5}, overtakes that group's
target, and the update cascades: ranks 4 and 5 resume, rank 5 re-executes a
{5,6} collective, and rank 6 gets pulled forward too. The narrative below is
reconstructed from the event log of a single deterministic run.
"""

from ccsim import run
from ccsim.scenario import FIG2_SEED


def main():
    result = run("fig2", algorithm="cc", seed=FIG2_SEED,
                 ckpt=("trigger", "fig2-instant"))
    c = result.coordinator
    sim = result.sim

    print("== checkpoint request ==")
    print(f"  requested at step {c.requested_step}")
    print("  targets computed from the per-rank counter reports:")
    for label, value in c.initial_targets.items():
        print(f"    group {{{label}}}: target {value}")

    print("\n== the drain, step by step ==")
    interesting = ("park", "resume", "target_raise", "update_sent",
                   "update_recv", "safe_state")
    for ev in sim.trace:
        if ev["event"] not in interesting:
            continue
        if ev["step"] < c.requested_step:
            continue
        d = ev["detail"]
        who = "coordinator" if ev["rank"] < 0 else f"rank {ev['rank']}"
        if ev["event"] == "park":
            print(f"  step {ev['step']:4d}  {who} parks (all its targets reached)")
        elif ev["event"] == "resume":
            print(f"  step {ev['step']:4d}  {who} resumes")
        elif ev["event"] == "target_raise":
            print(f"  step {ev['step']:4d}  {who} overtakes group {{{d['group']}}}: "
                  f"target := {d['value']}")
        elif ev["event"] == "update_sent":
            print(f"  step {ev['step']:4d}  {who} notifies rank {d['to']} "
                  f"that {{{d['group']}}} now targets {d['value']}")
        elif ev["event"] == "update_recv":
            tag = "applies" if d["applied"] else "ignores (stale)"
            print(f"  step {ev['step']:4d}  {who} {tag} update "
                  f"{{{d['group']}}} -> {d['value']}")
        elif ev["event"] == "safe_state":
            print(f"  step {ev['step']:4d}  coordinator declares the safe state")

    print("\n== final targets at the snapshot ==")
    for label, value in c.final_targets.items():
        print(f"    group {{{label}}}: {value}")
    print(f"\n  update messages this round: {sim.counters.target_updates_sent}")
    print(f"  collectives executed during the drain: {sim.counters.drain_collectives}")
    print(f"  steps from request to safe state: "
          f"{c.declared_step - c.requested_step}")
    print(f"  verifier verdicts: "
          f"{', '.join(f'{v.check}={v.passed}' for v in result.verdicts)}")


if __name__ == "__main__":
    main()
