"""Smoke tests for the benchmark at its smallest size.

Run from the repository root:

    python -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def spec_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = run.run(workload, seed=3, seconds=0.1, trace=True, smoke=True)
    second = run.run(workload, seed=3, seconds=0.1, trace=True, smoke=True)
    assert first["correct"] and second["correct"]
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    assert got == spec_units("per_layer")
    counts = [k for k, unit in got.items() if unit in ("count", "ratio")]
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]
    assert any(first["metrics"][k]["value"] for k in counts)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run.run(workload, seed=4, seconds=0.1, trace=False, smoke=True)
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_oracles_reject_wrong_reports():
    lam, mu = [0.5, 0.3, 0.2], [0.6, 0.3, 0.1]
    # half identity, half swap of the top two levels: [0.45, 0.45, 0.1]
    plan = {"n": 3, "outcomes": [{"p": 0.5, "perm": [0, 1, 2]}, {"p": 0.5, "perm": [1, 0, 2]}]}
    assert oracles.plan_reconstructs(plan, [0.45, 0.45, 0.1], mu) is None
    assert oracles.plan_reconstructs(plan, lam, mu) is not None
    assert oracles.check_pmax({"payload": {"p_max": 0.5}}, mu, lam) is None
    assert oracles.check_pmax({"payload": {"p_max": 0.9}}, mu, lam) is not None
    assert oracles.check_verdict(
        {"payload": {"convertible": True, "violation_prefix": None}}, mu, lam) is not None
    gsd = {"payload": {"verdict": "admits", "coeffs": [0.7, 0.3], "reassembly_fidelity": 1.0}}
    assert oracles.check_extract(gsd, [0.7, 0.3]) is None
    assert oracles.check_extract(gsd, [0.6, 0.4]) is not None
    assert oracles.check_extract(gsd, None) is not None
    refuted = {"payload": {"found": True, "catalyst": [0.6, 0.4]}}
    assert oracles.check_catalyst(refuted, [0.7, 0.2, 0.1], [0.6, 0.3, 0.1]) is not None


def test_malformed_report_counts_as_failed():
    class FakeCli:
        def __init__(self, text):
            self.text = text

        def main(self, argv):
            print(self.text)
            return 0

    cmd = workloads.Command("pmax n=3", ["pmax", "--in", "x.json"],
                            lambda report: oracles.check_pmax(report, [0.5, 0.5], [1.0]))
    for text in ("not json", '{"pass": true}', "[1, 2]"):
        assert run.run_command(FakeCli(text), cmd)[1] == "oracle_mismatch"
    assert run.run_command(FakeCli('{"payload": {"p_max": 1.0}}'), cmd)[1] is None


def test_counts_do_not_depend_on_passes():
    one, three = run.Tally(3), run.Tally(3)
    for tally, passes in ((one, 1), (three, 3)):
        for _ in range(passes):
            tally.record(1, "plan n=24", "DecompositionFailed")
            tally.record(2, "check n=4", None)
            tally.record(3, "pmax n=4", None)
            tally.passes += 1
    assert (one.commands, one.failed) == (three.commands, three.failed) == (3, 1)
    assert three.failures("DecompositionFailed") == 1 and not three.flaky
    three.record(2, "check n=4", "oracle_mismatch")
    assert three.flaky == {2} and three.mismatched and three.failed == 2
