"""Command-line front end.

Subcommands: run, generate, compare, verify, restart. Exit codes: 0 all
checks pass, 1 verifier or protocol failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import driver
from .coordinator import SnapshotImage, TRIGGERS
from .errors import SimulationError
from .explore import explore_small
from .metrics import CSV_FIELDS
from .scenario import BUILTIN_SCENARIOS, GenParams, generate_workload
from .verify import check_crossing_legality, check_replay_equivalence

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _add_ckpt_flags(parser):
    parser.add_argument("--ckpt-at-step", type=int, default=None, metavar="N",
                        help="request a checkpoint once the scheduler reaches step N")
    parser.add_argument("--ckpt-random", type=int, default=None, metavar="SEED",
                        help="request a checkpoint at a step drawn from SEED")
    parser.add_argument("--ckpt-trigger", choices=sorted(TRIGGERS), default=None,
                        help="request a checkpoint at a named state predicate")


def _placement_from(args):
    chosen = [
        ("at_step", args.ckpt_at_step),
        ("random", args.ckpt_random),
        ("trigger", args.ckpt_trigger),
    ]
    chosen = [(k, v) for k, v in chosen if v is not None]
    if len(chosen) > 1:
        raise SimulationError("choose at most one checkpoint placement")
    if not chosen:
        return None
    return chosen[0]


def _write_text(path, text):
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _metrics_text(reports, fmt):
    if fmt == "json":
        return "".join(r.to_json_line() + "\n" for r in reports)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in reports:
        writer.writerow(r.csv_row())
    return out.getvalue()


# ----------------------------------------------------------------- commands


def cmd_run(args) -> int:
    placement = _placement_from(args)
    scenario = driver.load_scenario(args.scenario)
    if args.exhaustive:
        result = explore_small(scenario, algorithm=args.algo,
                               include_checkpoint=placement is not None or args.algo != "none")
        summary = {
            "paths": result.paths, "rounds_declared": result.rounds_declared,
            "max_depth": result.max_depth, "failures": result.failures[:5],
            "pass": result.passed,
        }
        print(json.dumps(summary, sort_keys=True))
        return EXIT_OK if result.passed else EXIT_FAIL

    result = driver.run(scenario, algorithm=args.algo, seed=args.seed,
                        ckpt=placement, halt_at_snapshot=args.halt_at_snapshot)
    if result.error:
        for verdict in result.verdicts:
            print(verdict.to_json_line())
        print(f"error: {result.error}", file=sys.stderr)
        return EXIT_FAIL
    if args.trace_out:
        _write_text(args.trace_out, "\n".join(result.trace_lines()) + "\n")
    if args.metrics_out or args.metrics_stdout:
        text = _metrics_text([result.metrics], args.format)
        _write_text(args.metrics_out, text)
    if args.snapshot_out:
        if result.snapshot is None:
            print("no snapshot was taken (no checkpoint placement?)", file=sys.stderr)
            return EXIT_FAIL
        result.snapshot.dump(args.snapshot_out)
    for verdict in result.verdicts:
        print(verdict.to_json_line())
    if result.coordinator is not None and result.coordinator.declared:
        print(json.dumps({
            "round": result.coordinator.round_id,
            "targets_initial": result.coordinator.initial_targets,
            "targets_final": result.coordinator.final_targets,
            "steps_to_safe_state": result.metrics.steps_to_safe_state,
        }, sort_keys=True))
    return EXIT_OK if result.passed else EXIT_FAIL


def cmd_generate(args) -> int:
    params = GenParams(ranks=args.ranks, groups=args.groups, ops=args.ops,
                       nonblocking_ratio=args.nonblocking_ratio,
                       p2p_ratio=args.p2p_ratio)
    scenario = generate_workload(args.seed, params)
    _write_text(args.output, scenario.dumps())
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = driver.load_scenario(args.scenario)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else []
    placements = [None]
    placement = _placement_from(args)
    if placement is not None:
        placements.append(placement)
    rows = driver.compare(scenario, seeds, algorithms=args.algos.split(","),
                          placements=placements)
    if args.format == "json":
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    else:
        out = io.StringIO()
        names = ["scenario", "seed", "algorithm", "placement", "steps", "app_messages",
                 "protocol_messages", "target_updates_sent", "tpc_barrier_messages",
                 "ok", "error"]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(names)
        for r in rows:
            writer.writerow([r.get(n, "") for n in names])
        text = out.getvalue()
    _write_text(args.metrics_out, text)
    failed = any(r.get("ok") is False for r in rows)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_verify(args) -> int:
    scenario = driver.load_scenario(args.scenario)
    placement = _placement_from(args)
    verdicts = [check_crossing_legality(scenario, args.seed)]
    if verdicts[0].passed:
        result = driver.run(scenario, algorithm=args.algo, seed=args.seed,
                            ckpt=placement)
        verdicts = result.verdicts
        if placement is not None:
            verdicts.append(check_replay_equivalence(
                scenario, args.algo, args.seed, placement))
    for verdict in verdicts:
        print(verdict.to_json_line())
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_FAIL


def cmd_restart(args) -> int:
    image = SnapshotImage.load(args.snapshot_in)
    result = driver.run_restart(image, seed=args.seed)
    if args.trace_out:
        _write_text(args.trace_out, "\n".join(result.trace_lines()) + "\n")
    if args.metrics_out or args.metrics_stdout:
        _write_text(args.metrics_out, _metrics_text([result.metrics], args.format))
    for verdict in result.verdicts:
        print(verdict.to_json_line())
    print(json.dumps({"checksums": {str(k): v for k, v in result.checksums.items()}},
                     sort_keys=True))
    return EXIT_OK if result.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsim",
        description="Deterministic simulator for checkpoint coordination "
                    "of collective operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario end to end")
    p_run.add_argument("--scenario", required=True,
                       help=f"path to a scenario file or one of {sorted(BUILTIN_SCENARIOS)}")
    p_run.add_argument("--algo", choices=("none", "cc", "2pc"), default="none")
    p_run.add_argument("--seed", type=int, default=0)
    _add_ckpt_flags(p_run)
    p_run.add_argument("--halt-at-snapshot", action="store_true",
                       help="end the run at the snapshot instead of releasing")
    p_run.add_argument("--snapshot-out", default=None)
    p_run.add_argument("--trace-out", default=None)
    p_run.add_argument("--metrics-out", default=None)
    p_run.add_argument("--metrics-stdout", action="store_true", help=argparse.SUPPRESS)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--exhaustive", action="store_true",
                       help="explore every interleaving and checkpoint placement"
                            " (small instances only)")
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("generate", help="emit a random legal scenario")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--ranks", type=int, default=8)
    p_gen.add_argument("--groups", type=int, default=3)
    p_gen.add_argument("--ops", type=int, default=60)
    p_gen.add_argument("--nonblocking-ratio", type=float, default=0.0)
    p_gen.add_argument("--p2p-ratio", type=float, default=0.0)
    p_gen.add_argument("-o", "--output", default="-")
    p_gen.set_defaults(func=cmd_generate)

    p_cmp = sub.add_parser("compare", help="metric table across algorithms")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--seeds", default="0", help="comma-separated scheduler seeds")
    p_cmp.add_argument("--algos", default="none,cc,2pc")
    _add_ckpt_flags(p_cmp)
    p_cmp.add_argument("--metrics-out", default="-")
    p_cmp.add_argument("--format", choices=("json", "csv"), default="json")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="run the verifier battery on a scenario")
    p_ver.add_argument("--scenario", required=True)
    p_ver.add_argument("--algo", choices=("none", "cc", "2pc"), default="cc")
    p_ver.add_argument("--seed", type=int, default=0)
    _add_ckpt_flags(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_res = sub.add_parser("restart", help="resume a snapshot image to completion")
    p_res.add_argument("--snapshot-in", required=True)
    p_res.add_argument("--seed", type=int, default=None)
    p_res.add_argument("--trace-out", default=None)
    p_res.add_argument("--metrics-out", default=None)
    p_res.add_argument("--metrics-stdout", action="store_true", help=argparse.SUPPRESS)
    p_res.add_argument("--format", choices=("json", "csv"), default="json")
    p_res.set_defaults(func=cmd_restart)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
