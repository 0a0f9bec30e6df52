"""Self-test of the benchmark: each workload at its tiny size.

Checks that every metric named in BENCHMARK.json is printed with a unit,
that the pinned digests match on this code, and that a perturbed pin makes
the run fail.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload, trace, pins=None):
    """Run the benchmark at its tiny size; with ``pins``, against that pins
    file in place of perfbench/pins.json."""
    args = ["--workload", workload, "--seed", "0", "--seconds", "0.05",
            "--trace", str(trace), "--size", "tiny"]
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import run; "
            f"run.PINS = {pins or os.path.join(HERE, 'pins.json')!r}; "
            f"sys.exit(run.main({args!r}))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_printed_and_digests_match(workload, trace, kind):
    code, result, proc = bench(workload, trace)
    assert code == 0 and result["correct"], proc.stdout + proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)), name


def test_perturbed_pin_fails(tmp_path):
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    digest = pins["passes"]["steady-scale/tiny"]["0"]
    pins["passes"]["steady-scale/tiny"]["0"] = digest[::-1]
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    code, result, _ = bench("steady-scale", 0, pins=str(path))
    assert code == 1
    assert not result["correct"] and result["failed"] == 1
