"""Command-line front end: subcommands, artifacts, exit codes."""

import json

import pytest

from ccsim.cli import main
from ccsim.coordinator import SnapshotImage


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

    def test_missing_scenario_is_usage_error(self):
        assert run_cli("run", "--scenario", "does-not-exist.jsonl") == 2

    def test_malformed_scenario_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"scenario","version":1,"world_size":2}\n{"rank": 0,\n')
        assert run_cli("run", "--scenario", str(path)) == 1
        assert "not valid JSON" in capsys.readouterr().err

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

    def test_conflicting_placements_fail(self, generated):
        assert run_cli("run", "--scenario", str(generated), "--algo", "cc",
                       "--ckpt-at-step", "1", "--ckpt-random", "2") == 1


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

    def test_restart_corrupt_snapshot_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_cli("restart", "--snapshot-in", str(bad)) == 1

    def test_snapshot_version_survives_file_roundtrip(self, generated, tmp_path):
        snap = tmp_path / "snap.json"
        assert run_cli("run", "--scenario", str(generated), "--algo", "2pc",
                       "--seed", "1", "--ckpt-at-step", "30",
                       "--snapshot-out", str(snap)) == 0
        image = SnapshotImage.load(snap)
        assert image.algorithm == "2pc"
        assert image.version == 1
