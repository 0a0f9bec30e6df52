"""Re-pin the exact outputs that perfbench/run.py checks.

    python3 perfbench/pin.py --seeds 0-63 --size full
    python3 perfbench/pin.py --seeds 0-3 --size tiny

Writes perfbench/pins.json: the criterion-8 golden digests, the known item-2
deadlock counts, and one pass digest per (workload, size, seed) computed on
the code in ``src/``. Run it only when a change alters ccsim's exact outputs
on purpose, and say in that change why the outputs moved.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import PINS, import_ccsim


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-63")
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)

    import_ccsim()
    from hostclock import HostClock
    from workloads import WORKLOADS, Tagger, golden_digests, known_deadlock

    try:
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        pins = {"passes": {}}
    pins["golden"] = golden_digests()
    pins["known_deadlock"] = known_deadlock()
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        table = pins["passes"].setdefault(f"{name}/{args.size}", {})
        for seed in args.seeds:
            result = workload.run_pass(workload.setup(seed, args.size), Tagger(), HostClock())
            if result.failed:
                raise SystemExit(f"{name} seed {seed}: {result.failed} operations failed; "
                                 "not pinning a failing pass")
            table[str(seed)] = result.digest()
            print(f"{name}/{args.size} seed {seed}: {table[str(seed)]}", flush=True)
        pins["passes"][f"{name}/{args.size}"] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
