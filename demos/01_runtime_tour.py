#!/usr/bin/env python3
"""A walking tour of the deterministic runtime.

Builds a four-rank program by hand: a communicator split, an allreduce on the
subgroup, a broadcast on the world, and a point-to-point exchange. Then runs
it twice with the same seed to show the event log is byte-identical, and once
with another seed to show only the interleaving changes, never the results.
"""

from ccsim import ScenarioProgram, Simulator
from ccsim.scenario import Op


def build_scenario():
    sc = ScenarioProgram(world_size=4, comms={"low": (0, 1)}, name="tour")
    for r in range(4):
        sc.programs[r].append(Op(rank=r, op="comm_create", new_comm="low"))
    for r in (0, 1):
        sc.programs[r].append(Op(rank=r, op="coll", comm="low", kind="allreduce",
                                 reduce_op="sum", data=[10 + r]))
    for r in range(4):
        sc.programs[r].append(Op(rank=r, op="coll", kind="bcast", root=2,
                                 data=[99] if r == 2 else None))
    sc.programs[3].append(Op(rank=3, op="send", peer=0, tag=7, data=[1, 2, 3]))
    sc.programs[0].append(Op(rank=0, op="recv", peer=3, tag=7))
    sc.validate()
    return sc


def main():
    sc = build_scenario()
    sim = Simulator(sc, seed=42)
    sim.run()

    print("== communicators ==")
    for cid, record in sorted(sim.comm_records.items()):
        print(f"  {cid}: members {list(record.members)} group {record.key.label()}")
    low = sim.comm_records["low"]
    print(f"  rank 1 sees 'low' as local rank {low.members.index(1)}")

    print("\n== collective results ==")
    for key, inst in sorted(sim.instances.items()):
        if inst.outputs:
            print(f"  {inst.describe()}: outputs {dict(sorted(inst.outputs.items()))}")

    print("\n== event log (first 12 events) ==")
    for line in sim.trace_lines()[:12]:
        print(" ", line)

    again = Simulator(sc, seed=42)
    again.run()
    other = Simulator(sc, seed=7)
    other.run()
    print("\n== determinism ==")
    print("  same seed, identical logs: ", again.trace_lines() == sim.trace_lines())
    print("  other seed, different log: ", other.trace_lines() != sim.trace_lines())
    print("  checksums agree anyway:    ", other.checksums() == sim.checksums())
    print(f"  messages: {sim.counters.app_messages} application, "
          f"{sim.counters.p2p_messages} of them point-to-point")


if __name__ == "__main__":
    main()
