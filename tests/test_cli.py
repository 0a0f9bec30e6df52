"""Command-line front end: subcommands, artifacts, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from ccsim import run_restart
from ccsim.cli import main
from ccsim.coordinator import SnapshotImage

from conftest import none_labelled_snapshot


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def generated(tmp_path):
    path = tmp_path / "scenario.jsonl"
    code = run_cli("generate", "--seed", "5", "--ranks", "6", "--groups", "2",
                   "--ops", "40", "--p2p-ratio", "0.2", "-o", str(path))
    assert code == 0
    return path


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli("generate", "--seed", "9", "--ranks", "5",
                           "--ops", "30", "-o", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_gets_the_file_text(self, tmp_path, capsys):
        path = tmp_path / "g.jsonl"
        flags = ("generate", "--seed", "9", "--ranks", "5", "--ops", "30")
        assert run_cli(*flags, "-o", str(path)) == 0
        assert run_cli(*flags) == 0
        assert capsys.readouterr().out == path.read_text()

    def test_header_line(self, generated):
        header = json.loads(generated.read_text().splitlines()[0])
        assert header["type"] == "scenario"
        assert header["world_size"] == 6


class TestRun:
    def test_run_writes_all_artifacts(self, generated, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        snap = tmp_path / "snap.json"
        code = run_cli("run", "--scenario", str(generated), "--algo", "cc",
                       "--seed", "3", "--ckpt-at-step", "40",
                       "--trace-out", str(trace), "--metrics-out", str(metrics),
                       "--snapshot-out", str(snap))
        assert code == 0
        assert trace.exists() and metrics.exists() and snap.exists()
        verdicts = [json.loads(line) for line in capsys.readouterr().out.splitlines()
                    if '"check"' in line]
        assert {v["check"] for v in verdicts} >= {"crossing_legality", "hb_acyclic",
                                                  "safe_state"}
        assert all(v["pass"] for v in verdicts)

    def test_repeat_runs_byte_identical(self, generated, tmp_path):
        outs = []
        for tag in ("x", "y"):
            trace = tmp_path / f"t{tag}.jsonl"
            metrics = tmp_path / f"m{tag}.json"
            assert run_cli("run", "--scenario", str(generated), "--algo", "cc",
                           "--seed", "7", "--ckpt-at-step", "25",
                           "--trace-out", str(trace),
                           "--metrics-out", str(metrics)) == 0
            outs.append((trace.read_bytes(), metrics.read_bytes()))
        assert outs[0] == outs[1]

    def test_random_placement_reproducible(self, generated, capsys):
        outs = []
        for _ in range(2):
            assert run_cli("run", "--scenario", str(generated), "--algo", "cc",
                           "--seed", "2", "--ckpt-random", "99") == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert '"round": 1' in outs[0]

    def test_builtin_fig2(self, capsys):
        code = run_cli("run", "--scenario", "fig2", "--algo", "cc",
                       "--seed", "11", "--ckpt-trigger", "fig2-instant")
        assert code == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["targets_final"]["3,4,5"] == 3
        assert summary["targets_final"]["5,6"] == 4

    def test_exhaustive_flag(self, tmp_path, capsys):
        sc_path = tmp_path / "tiny.jsonl"
        from conftest import op_coll, scenario

        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        sc.dump(sc_path)
        code = run_cli("run", "--scenario", str(sc_path), "--algo", "cc",
                       "--exhaustive")
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["pass"] is True
        assert summary["rounds_declared"] == summary["paths"]

    def test_exhaustive_summary_counts_states_forks_and_dedup_hits(self, tmp_path, capsys):
        from ccsim import explore_small
        from conftest import op_coll, scenario

        sc = scenario(3)
        for r in range(3):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        sc.dump(tmp_path / "tiny.jsonl")
        assert run_cli("run", "--scenario", str(tmp_path / "tiny.jsonl"), "--algo", "2pc",
                       "--exhaustive") == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        result = explore_small(sc, "2pc")
        assert (summary["states"], summary["forks"], summary["dedup_hits"]) == \
            (result.states, result.forks, result.dedup_hits)
        assert result.states > 0 and result.dedup_hits > 0 and result.forks >= result.states

    def test_exhaustive_placement_without_checkpoints_fails(self, tmp_path, capsys):
        from conftest import op_coll, scenario

        sc = scenario(2)
        for r in range(2):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        sc.dump(tmp_path / "tiny.jsonl")
        code = run_cli("run", "--scenario", str(tmp_path / "tiny.jsonl"), "--algo", "none",
                       "--ckpt-at-step", "3", "--exhaustive")
        assert code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "cannot take checkpoints" in out.err

    def test_missing_scenario_is_usage_error(self):
        assert run_cli("run", "--scenario", "does-not-exist.jsonl") == 2

    def test_malformed_scenario_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"scenario","version":1,"world_size":2}\n{"rank": 0,\n')
        assert run_cli("run", "--scenario", str(path)) == 1
        assert "not valid JSON" in capsys.readouterr().err
        path.write_text('{"type":"scenario","version":1,"world_size":"two"}\n')
        proc = subprocess.run([sys.executable, "-m", "ccsim.cli", "run", "--scenario", str(path)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr

    def test_illegal_scenario_fails_verification(self, tmp_path, capsys):
        from ccsim.scenario import Op
        from conftest import op_coll, scenario

        sc = scenario(2, name="crossing")
        sc.programs[0] += [Op(rank=0, op="send", peer=1, data=[1]), op_coll(0)]
        sc.programs[1] += [op_coll(1), Op(rank=1, op="recv", peer=0)]
        path = tmp_path / "bad.jsonl"
        sc.dump(path)
        assert run_cli("run", "--scenario", str(path), "--algo", "cc") == 1
        out = capsys.readouterr().out
        assert '"check":"crossing_legality"' in out and '"pass":false' in out

    @pytest.mark.parametrize("kind", ["allreduce", "bcast"])
    @pytest.mark.parametrize("algo", ["none", "cc", "2pc"])
    def test_result_outside_int64_runs(self, kind, algo, tmp_path, capsys):
        from conftest import wide_payload_scenario

        path = tmp_path / "wide.jsonl"
        wide_payload_scenario(kind).dump(path)
        assert run_cli("run", "--scenario", str(path), "--algo", algo) == 0
        assert '"pass":false' not in capsys.readouterr().out

    def test_snapshot_out_without_a_placement_fails(self, generated, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        assert run_cli("run", "--scenario", str(generated), "--algo", "cc",
                       "--snapshot-out", str(snap)) == 1
        assert capsys.readouterr().err == "no snapshot was taken (no checkpoint placement?)\n"
        assert not snap.exists()

    def test_conflicting_placements_fail(self, generated):
        assert run_cli("run", "--scenario", str(generated), "--algo", "cc",
                       "--ckpt-at-step", "1", "--ckpt-random", "2") == 1


@pytest.mark.parametrize("argv, code", [
    (["compare", "--scenario", "fig2", "--seeds", "x"], 2),
    (["run", "--scenario", "{dir}"], 2),
    (["restart", "--snapshot-in", "{dir}"], 2),
    (["run", "--scenario", "{latin1}"], 1),
    (["restart", "--snapshot-in", "{latin1}"], 1),
], ids=["seeds-not-ints", "scenario-dir", "snapshot-dir", "scenario-not-utf8",
        "snapshot-not-utf8"])
def test_bad_input_exits_without_traceback(tmp_path, argv, code):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes('{"name": "caf\u00e9"}\n'.encode("latin-1"))
    argv = [a.format(dir=tmp_path, latin1=latin1) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "ccsim.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == code and "Traceback" not in proc.stderr, proc.stderr


class TestCompare:
    def test_table_and_zero_overhead_gate(self, generated, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run_cli("compare", "--scenario", str(generated), "--seeds", "1,2",
                       "--format", "csv", "--metrics-out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("scenario,seed,algorithm")
        assert len(rows) == 1 + 2 * 3  # two seeds, three algorithms

    def test_nonblocking_2pc_reports_unsupported(self, tmp_path):
        path = tmp_path / "nb.jsonl"
        assert run_cli("generate", "--seed", "2", "--ranks", "4", "--ops", "20",
                       "--nonblocking-ratio", "1.0", "-o", str(path)) == 0
        out = tmp_path / "cmp.json"
        code = run_cli("compare", "--scenario", str(path), "--seeds", "0",
                       "--metrics-out", str(out))
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        tpc = [r for r in rows if r["algorithm"] == "2pc"]
        assert tpc and all(r.get("error") == "unsupported-operation" for r in tpc)

    def test_placement_adds_a_row_for_each_algorithm_that_checkpoints(self, generated,
                                                                      tmp_path):
        out = tmp_path / "cmp.json"
        assert run_cli("compare", "--scenario", str(generated), "--seeds", "1",
                       "--ckpt-at-step", "30", "--metrics-out", str(out)) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["algorithm"], r["placement"]) for r in rows] == [
            ("none", ""), ("cc", ""), ("cc", "('at_step', 30)"),
            ("2pc", ""), ("2pc", "('at_step', 30)")]
        assert all(r["ok"] for r in rows)

    def test_empty_seed_list_empty_table(self, generated, tmp_path):
        out = tmp_path / "cmp.json"
        code = run_cli("compare", "--scenario", str(generated), "--seeds", "",
                       "--metrics-out", str(out))
        assert code == 0
        assert out.read_text() == ""


class TestVerifyAndRestart:
    def test_verify_battery_passes(self, generated):
        assert run_cli("verify", "--scenario", str(generated), "--algo", "cc",
                       "--seed", "4", "--ckpt-at-step", "30") == 0

    def test_verify_checks_crossing_legality_once(self, generated, monkeypatch):
        from ccsim import cli, driver, verify

        calls = []

        def counted(*args):
            calls.append(args)
            return verify.check_crossing_legality(*args)

        for module in (cli, driver):
            monkeypatch.setattr(module, "check_crossing_legality", counted, raising=False)
        assert run_cli("verify", "--scenario", str(generated), "--algo", "cc",
                       "--seed", "4", "--ckpt-at-step", "30") == 0
        assert len(calls) == 1

    # fig2 verify: the checked run, one uninterrupted run (a random
    # placement's probe is that run) and one restart; the stdout digest pins
    # the verdicts.
    @pytest.mark.parametrize("flags, most_runs, digest", [
        (("--ckpt-at-step", "30"), 3,
         "80ef6bc969b6d6b4e1e7cb045c29e48910f83832098d6cdf7dadc565fc130c07"),
        (("--ckpt-random", "3"), 3,
         "f90b6a8e1e253d38370c4e52c6367be9db41cea8d2455787ba3d16658bf89b46"),
        (("--seed", "11", "--ckpt-trigger", "fig2-instant"), 3,
         "979f53de4d8cebcf84cab0d32c5780e1288e82afaed1f1d66dbbe43f5eb93720"),
        (("--algo", "2pc", "--ckpt-at-step", "40"), 3,
         "55f654785513f91220d186e60b9b8dc15988c0c1047a8f4a80fed3a70cc6e55d"),
    ], ids=["cc-at-step", "cc-random", "cc-trigger", "2pc-at-step"])
    def test_verify_runs_each_simulation_once(self, flags, most_runs, digest, monkeypatch,
                                              capsys):
        from ccsim import Simulator

        runs = []
        simulate = Simulator.run

        def counted(sim):
            runs.append(sim)
            return simulate(sim)

        monkeypatch.setattr(Simulator, "run", counted)
        assert run_cli("verify", "--scenario", "fig2", *flags) == 0
        assert len(runs) <= most_runs
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_verify_prints_only_the_failed_crossing_verdict(self, tmp_path, capsys):
        path = tmp_path / "crossing.jsonl"
        path.write_text(
            '{"type":"scenario","version":1,"world_size":2}\n'
            '{"rank":0,"op":"send","peer":1,"data":[1]}\n'
            '{"rank":0,"op":"coll","kind":"barrier"}\n'
            '{"rank":1,"op":"coll","kind":"barrier"}\n'
            '{"rank":1,"op":"recv","peer":0}\n')
        assert run_cli("verify", "--scenario", str(path), "--ckpt-at-step", "1") == 1
        [line] = capsys.readouterr().out.splitlines()
        verdict = json.loads(line)
        assert verdict["check"] == "crossing_legality" and not verdict["pass"]

    def test_restart_roundtrip(self, generated, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        assert run_cli("run", "--scenario", str(generated), "--algo", "cc",
                       "--seed", "3", "--ckpt-at-step", "40",
                       "--snapshot-out", str(snap)) == 0
        capsys.readouterr()
        assert run_cli("restart", "--snapshot-in", str(snap)) == 0
        out = capsys.readouterr().out
        checksums = json.loads(out.strip().splitlines()[-1])["checksums"]
        assert len(checksums) == 6

    def test_restart_writes_trace_and_metrics(self, generated, tmp_path):
        snap, trace, metrics = (tmp_path / name for name in ("snap.json", "t.jsonl", "m.json"))
        assert run_cli("run", "--scenario", str(generated), "--algo", "cc",
                       "--seed", "3", "--ckpt-at-step", "40",
                       "--snapshot-out", str(snap)) == 0
        assert run_cli("restart", "--snapshot-in", str(snap), "--trace-out", str(trace),
                       "--metrics-out", str(metrics)) == 0
        result = run_restart(SnapshotImage.load(snap))
        assert trace.read_text() == "\n".join(result.trace_lines()) + "\n"
        assert metrics.read_text() == result.metrics.to_json_line() + "\n"
        assert json.loads(metrics.read_text())["placement"] == "restart"

    def test_restart_corrupt_snapshot_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_cli("restart", "--snapshot-in", str(bad)) == 1

    def test_restart_refuses_an_algorithm_that_takes_no_checkpoints(self, tmp_path, capsys):
        snap = tmp_path / "none.json"
        none_labelled_snapshot().dump(snap)
        assert run_cli("restart", "--snapshot-in", str(snap)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: algorithm 'none' takes no checkpoints, "
                                "so no run writes its snapshot\n")

    def test_snapshot_version_survives_file_roundtrip(self, generated, tmp_path):
        snap = tmp_path / "snap.json"
        assert run_cli("run", "--scenario", str(generated), "--algo", "2pc",
                       "--seed", "1", "--ckpt-at-step", "30",
                       "--snapshot-out", str(snap)) == 0
        image = SnapshotImage.load(snap)
        assert image.algorithm == "2pc"
        assert image.version == 1
