"""Alternating before/after pairs of perfbench runs in two checkouts.

    python3 tools/pairs.py PARENT CHANGE --out BENCH.json

PARENT and CHANGE are the roots of two source checkouts, each with its own
``perfbench/`` and ``src/``. For each seed of 180-189 (one pair), every
workload in the change's ``BENCHMARK.json`` runs
``python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` once
in each checkout, one run at a time: the workloads are interleaved within a
pair, and the side that runs first alternates by pair (the parent first on
even pairs). It then runs one full pass per (workload, seed) on each side,
each in a process of its own, and records the pass's exact work units,
operations, failures and digest.

It prints, per workload and end-to-end metric, the median of each side, the
relative change of the medians, in how many pairs the change was better, and
the parent's interquartile range; ``--out`` writes the runs and the summary as
JSON. The metric names, their direction and their regression bounds come from
the change's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
SEEDS = range(180, 190)
SECONDS = 30


def bench_run(root: str, workload: str, seed: int) -> dict:
    """One perfbench run in ``root``: its result line, exit code and pass count."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"pairs: no result line from {root} {workload} {seed}:\n"
                         f"{proc.stdout}{proc.stderr}") from None
    passes = next((int(m.group(1)) for m in map(re.compile(r"# (\d+) passes,").match, lines)
                   if m), None)
    return {"exit": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "passes": passes,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


ONE_PASS = """
import json, os, sys
root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
from hostclock import HostClock
from workloads import WORKLOADS, Tagger
wl = WORKLOADS[workload]
res = wl.run_pass(wl.setup(seed, "full"), Tagger(), HostClock())
print(json.dumps({"work": res.work, "ops": res.ops, "failed": res.failed,
                  "digest": res.digest()}))
"""


def pass_work(root: str, workload: str, seed: int) -> dict:
    """The exact outputs of one full pass, run in a process of its own."""
    proc = subprocess.run([sys.executable, "-c", ONE_PASS, os.path.abspath(root), workload,
                           str(seed)], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: dict, metric: dict) -> dict:
    """Medians, relative change, better-in-N and the parent's IQR of one metric."""
    name, higher = metric["name"], metric["better"] == "higher"
    values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
    med = {side: statistics.median(values[side]) for side in SIDES}
    delta = (med["change"] - med["parent"]) / med["parent"] if med["parent"] else 0.0
    better = sum((c > p) if higher else (c < p)
                 for p, c in zip(values["parent"], values["change"]))
    q1, _, q3 = (statistics.quantiles(values["parent"], n=4) if len(values["parent"]) > 1
                 else (med["parent"],) * 3)
    worse = -delta if higher else delta
    return {"parent": values["parent"], "change": values["change"],
            "median_parent": med["parent"], "median_change": med["change"],
            "median_delta": round(delta, 4), "change_better_pairs": better,
            "parent_iqr": q3 - q1, "worse_than_bound": worse > metric["bound"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", default=None, help="write the runs and the summary here")
    args = parser.parse_args(argv)

    roots = dict(zip(SIDES, (args.parent, args.change)))
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    firsts = []
    for i, seed in enumerate(SEEDS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        firsts.append(order[0])
        for w in workloads:
            for side in order:
                run = bench_run(roots[side], w, seed)
                runs[w][side].append(run)
                print(f"pair {i} seed {seed} {w} {side}: exit {run['exit']} "
                      f"work_per_s {run['metrics'].get('work_per_s', float('nan')):.6g}",
                      file=sys.stderr, flush=True)

    report = {"protocol": {"seeds": list(SEEDS), "seconds": SECONDS, "first": firsts,
                           "command": "python3 perfbench/run.py --workload W --seed S "
                                      f"--seconds {SECONDS} --trace 0"},
              "workloads": {}}
    for w in workloads:
        side_runs = runs[w]
        entry = {
            "correct": all(r["correct"] for side in SIDES for r in side_runs[side]),
            "exit_codes": sorted({r["exit"] for side in SIDES for r in side_runs[side]}),
            "failed": {side: sum(r["failed"] for r in side_runs[side]) for side in SIDES},
            "attempted": {side: [r["attempted"] for r in side_runs[side]] for side in SIDES},
            "passes": {side: [r["passes"] for r in side_runs[side]] for side in SIDES},
        }
        for metric in bench["end_to_end"]:
            entry[metric["name"]] = summarise(side_runs, metric)
        report["workloads"][w] = entry

    print(f"{'workload':14} {'metric':12} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'better':>7} {'parent IQR':>11}")
    for w, entry in report["workloads"].items():
        for metric in bench["end_to_end"]:
            s = entry[metric["name"]]
            flag = "  WORSE THAN BOUND" if s["worse_than_bound"] else ""
            print(f"{w:14} {metric['name']:12} {s['median_parent']:12.6g} "
                  f"{s['median_change']:12.6g} {s['median_delta']:+8.1%} "
                  f"{s['change_better_pairs']:>4}/{len(SEEDS):<2} {s['parent_iqr']:11.4g}{flag}")
        print(f"{w:14} correct {entry['correct']}, failed {entry['failed']}")

    for w in workloads:
        work = {}
        for seed in SEEDS:
            sides = {side: pass_work(roots[side], w, seed) for side in SIDES}
            work[str(seed)] = dict(sides, same_on_both_sides=sides["parent"] == sides["change"])
        report["workloads"][w]["pass_work"] = work
        same = all(v["same_on_both_sides"] for v in work.values())
        print(f"{w:14} pass work and digest equal on both sides: {same}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
