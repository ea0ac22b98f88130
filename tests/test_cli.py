import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import locc_forge
from helpers import random_probs, random_unitary, t_chain
from locc_forge.cli import main

JP_PAIR = {"schema_version": "1", "lam": [0.4, 0.4, 0.1, 0.1],
           "mu": [0.5, 0.25, 0.25, 0.0]}
EASY_PAIR = {"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.75, 0.25]}


def write(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestCheck:
    def test_convertible(self, tmp_path, capsys):
        code, report, err = run(capsys, ["check", "--in", write(tmp_path, EASY_PAIR)])
        assert code == 0
        assert report["verdict"] == "convertible"
        assert report["pass"] is True
        assert "PASS" in err

    def test_not_convertible_with_witness(self, tmp_path, capsys):
        code, report, _ = run(capsys, ["check", "--in", write(tmp_path, JP_PAIR)])
        assert code == 0
        assert report["verdict"] == "not_convertible"
        assert report["payload"]["violation_prefix"] == 1

    def test_identity_convertible(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [0.6, 0.4], "mu": [0.6, 0.4]}
        code, report, _ = run(capsys, ["check", "--in", write(tmp_path, inst)])
        assert code == 0 and report["verdict"] == "convertible"

    def test_unsorted_input_is_sorted(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [0.25, 0.75], "mu": [0.5, 0.5]}
        code, report, _ = run(capsys, ["check", "--in", write(tmp_path, inst)])
        assert report["payload"]["lam"] == [0.75, 0.25]
        assert report["verdict"] == "not_convertible"


class TestExitCodes:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, report, err = run(capsys, ["check", "--in", str(path)])
        assert code == 2
        assert report["error"]["code"] == 2

    def test_wrong_schema_version_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["check", "--in", write(
            tmp_path, {"schema_version": "9", "lam": [1.0], "mu": [1.0]})])
        assert code == 2

    def test_bad_vector_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["check", "--in", write(
            tmp_path, {"schema_version": "1", "lam": [0.5, 0.4], "mu": [1.0, 0.0]})])
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, ["check", "--in", "/nonexistent/x.json"])
        assert code == 2

    def test_plan_impossible_exits_3(self, tmp_path, capsys):
        code, report, _ = run(capsys, ["plan", "--in", write(tmp_path, JP_PAIR)])
        assert code == 3
        assert report["error"]["type"] == "ConversionImpossible"
        assert report["error"]["violation_prefix"] == 1

    def test_simulate_impossible_exits_3(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["simulate", "--in", write(tmp_path, JP_PAIR)])
        assert code == 3

    def test_conclusive_rank_increase_exits_3(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [0.6, 0.4, 0.0],
                "mu": [0.5, 0.3, 0.2]}
        code, _, _ = run(capsys, ["conclusive", "--in", write(tmp_path, inst)])
        assert code == 3

    def test_simulate_cap_exits_4(self, tmp_path, capsys):
        inst = dict(EASY_PAIR, dims=[1024, 2048])
        code, report, _ = run(capsys, ["simulate", "--in", write(tmp_path, inst)])
        assert code == 4
        assert report["error"]["type"] == "CapExceeded"

    def test_multicopy_cap_exits_4(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [1.0 / 64] * 64, "mu": [1.0 / 64] * 64}
        code, _, _ = run(capsys, [
            "multicopy", "--in", write(tmp_path, inst), "--copies", "4"])
        assert code == 4

    def test_failed_verification_exits_5(self, tmp_path, capsys):
        # a plan from a different pair cannot verify against this instance
        other = {"schema_version": "1", "lam": [0.6, 0.4], "mu": [0.8, 0.2]}
        code, report, _ = run(capsys, ["plan", "--in", write(tmp_path, other)])
        assert code == 0
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(report["payload"]["plan"]))
        code, report, _ = run(capsys, [
            "simulate", "--in", write(tmp_path, EASY_PAIR),
            "--plan", str(plan_path)])
        assert code == 5
        assert report["pass"] is False


class TestPlan:
    def test_two_outcome_plan(self, tmp_path, capsys):
        code, report, _ = run(capsys, ["plan", "--in", write(tmp_path, EASY_PAIR)])
        assert code == 0
        plan = report["payload"]["plan"]
        assert plan["n"] == 2
        weights = sorted(o["p"] for o in plan["outcomes"])
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)
        mixture = report["payload"]["mixture"]
        assert sum(t["p"] for t in mixture) == pytest.approx(1.0, abs=1e-9)

    def test_identity_plan(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [0.6, 0.4], "mu": [0.6, 0.4]}
        code, report, _ = run(capsys, ["plan", "--in", write(tmp_path, inst)])
        assert code == 0
        assert len(report["payload"]["plan"]["outcomes"]) == 1

    def test_residuals_accompany_pass(self, tmp_path, capsys):
        _, report, _ = run(capsys, ["plan", "--in", write(tmp_path, EASY_PAIR)])
        assert "completeness" in report["residuals"]
        assert "completeness" in report["tolerances"]

    def test_rank_32_plan(self, tmp_path, capsys):
        rng = np.random.default_rng(32)
        mu = random_probs(rng, 32)
        lam = t_chain(rng, mu, transforms=128)
        inst = {"schema_version": "1", "lam": lam.to_json(), "mu": mu.to_json()}
        code, report, _ = run(capsys, ["plan", "--in", write(tmp_path, inst)])
        assert code == 0 and report["pass"] is True
        assert report["payload"]["plan"]["n"] == 32
        assert len(report["payload"]["plan"]["outcomes"]) <= 32


class TestSimulate:
    def test_three_party(self, tmp_path, capsys):
        inst = dict(EASY_PAIR, m=3)
        code, report, _ = run(capsys, ["simulate", "--in", write(tmp_path, inst)])
        assert code == 0 and report["pass"] is True
        probs = sorted(
            b["simulated_prob"] for b in report["payload"]["transcript"]["branches"]
        )
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-9)

    def test_qubit_pair_probabilities(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [0.6, 0.4], "mu": [0.8, 0.2]}
        code, report, _ = run(capsys, ["simulate", "--in", write(tmp_path, inst)])
        probs = [
            b["simulated_prob"] for b in report["payload"]["transcript"]["branches"]
        ]
        np.testing.assert_allclose(probs, [1 / 3, 2 / 3], atol=1e-9)

    def test_identity_single_branch(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [0.7, 0.3], "mu": [0.7, 0.3]}
        code, report, _ = run(capsys, ["simulate", "--in", write(tmp_path, inst)])
        assert code == 0
        assert len(report["payload"]["transcript"]["branches"]) == 1

    def test_explicit_bases(self, tmp_path, capsys):
        inv_sqrt2 = 1 / np.sqrt(2)
        hadamard = [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]]
        inst = dict(EASY_PAIR, bases=[hadamard, [[1, 0], [0, 1]]])
        code, report, _ = run(capsys, ["simulate", "--in", write(tmp_path, inst)])
        assert code == 0 and report["pass"] is True

    def test_pipe_contract(self, tmp_path, capsys):
        inst_path = write(tmp_path, dict(EASY_PAIR, m=3))
        code, plan_report, _ = run(capsys, ["plan", "--in", inst_path])
        assert code == 0
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_report["payload"]["plan"]))
        code, piped, _ = run(capsys, [
            "simulate", "--in", inst_path, "--plan", str(plan_path)])
        assert code == 0
        code, direct, _ = run(capsys, ["simulate", "--in", inst_path])
        assert piped["payload"]["transcript"] == direct["payload"]["transcript"]

    def test_plan_accepts_full_report(self, tmp_path, capsys):
        inst_path = write(tmp_path, EASY_PAIR)
        _, plan_report, _ = run(capsys, ["plan", "--in", inst_path])
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(plan_report))
        code, _, _ = run(capsys, [
            "simulate", "--in", inst_path, "--plan", str(report_path)])
        assert code == 0


class TestLargeDense:
    @pytest.mark.parametrize("command", ["simulate", "conclusive"])
    def test_eight_to_the_sixth_with_random_bases(self, tmp_path, capsys, command):
        rng = np.random.default_rng(86)
        mu = random_probs(rng, 8)
        lam = t_chain(rng, mu, 32)
        if command == "conclusive":
            lam, mu = mu, lam
        bases = [random_unitary(rng, 8) for _ in range(6)]
        inst = {
            "schema_version": "1",
            "lam": lam.entries.tolist(),
            "mu": mu.entries.tolist(),
            "dims": [8] * 6,
            "bases": [{"re": b.real.tolist(), "im": b.imag.tolist()} for b in bases],
        }
        code, report, _ = run(capsys, [command, "--in", write(tmp_path, inst)])
        assert code == 0
        assert report["pass"] is True


class TestOtherCommands:
    def test_pmax(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [0.9, 0.1], "mu": [0.6, 0.4]}
        code, report, _ = run(capsys, ["pmax", "--in", write(tmp_path, inst)])
        assert code == 0
        assert report["payload"]["p_max"] == pytest.approx(0.25, abs=1e-12)
        assert report["payload"]["l_star"] == 1

    def test_conclusive_reports_achieved_probability(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [0.9, 0.1], "mu": [0.6, 0.4], "m": 3}
        code, report, _ = run(capsys, ["conclusive", "--in", write(tmp_path, inst)])
        assert code == 0 and report["pass"] is True
        assert report["payload"]["predicted_probability"] == pytest.approx(0.25)
        assert report["payload"]["achieved_probability"] == pytest.approx(
            0.25, abs=1e-9
        )

    def test_multicopy_profile(self, tmp_path, capsys):
        code, report, _ = run(capsys, [
            "multicopy", "--in", write(tmp_path, JP_PAIR), "--copies", "3"])
        assert code == 0
        assert report["payload"]["per_copy"] == {
            "1": False, "2": False, "3": True}
        assert report["verdict"] == "convertible"

    def test_catalyst_finds_and_verifies(self, tmp_path, capsys):
        code, report, _ = run(capsys, [
            "catalyst", "--in", write(tmp_path, JP_PAIR),
            "--dmax", "2", "--resolution", "0.01"])
        assert code == 0 and report["pass"] is True
        assert report["verdict"] == "found"
        assert report["payload"]["catalyst"] == [0.6, 0.4]
        assert report["residuals"]["certificate_verified"] is True

    def test_extract_gsd_w_state(self, tmp_path, capsys):
        w = (np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3)).tolist()
        inst = {"schema_version": "1",
                "state": {"dims": [2, 2, 2], "re": w, "im": [0.0] * 8}}
        code, report, _ = run(capsys, ["extract-gsd", "--in", write(tmp_path, inst)])
        assert code == 0
        assert report["verdict"] == "rejects"
        witness = report["payload"]["witness"]
        assert witness["kind"] == "entangled_cofactor"
        assert witness["residual"] == pytest.approx(0.5, abs=1e-9)

    def test_extract_gsd_ghz(self, tmp_path, capsys):
        g = (np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2)).tolist()
        inst = {"schema_version": "1",
                "state": {"dims": [2, 2, 2], "re": g, "im": [0.0] * 8}}
        code, report, _ = run(capsys, ["extract-gsd", "--in", write(tmp_path, inst)])
        assert code == 0
        assert report["verdict"] == "admits"
        np.testing.assert_allclose(report["payload"]["coeffs"], [0.5, 0.5])

    def test_extract_gsd_requires_state(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["extract-gsd", "--in", write(tmp_path, EASY_PAIR)])
        assert code == 2


class TestReportContract:
    def test_deterministic_apart_from_wall_time(self, tmp_path, capsys):
        path = write(tmp_path, dict(EASY_PAIR, m=3))
        _, first, _ = run(capsys, ["simulate", "--in", path])
        _, second, _ = run(capsys, ["simulate", "--in", path])
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = write(tmp_path, EASY_PAIR)
        code = main(["check", "--in", path, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text()) == json.loads(captured.out)

    def test_inputs_echoed_and_options_recorded(self, tmp_path, capsys):
        path = write(tmp_path, dict(EASY_PAIR, seed=7))
        _, report, _ = run(capsys, ["check", "--in", path, "--seed", "9"])
        assert report["inputs"]["lam"] == [0.5, 0.5]
        assert report["inputs"]["seed"] == 7
        assert report["options"]["seed"] == 9

    def test_stdin_instance(self, tmp_path, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EASY_PAIR)))
        code, report, _ = run(capsys, ["check", "--in", "-"])
        assert code == 0 and report["verdict"] == "convertible"


class TestModuleEntry:
    """`python -m locc_forge.cli` runs the same CLI in a fresh interpreter."""

    @pytest.mark.parametrize("payload, verdict", [
        (EASY_PAIR, "convertible"),
        (JP_PAIR, "not_convertible"),
    ])
    def test_check(self, tmp_path, payload, verdict):
        src = str(Path(locc_forge.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "locc_forge.cli", "check", "--in",
             write(tmp_path, payload)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == verdict
