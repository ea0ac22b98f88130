import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import locc_forge
from helpers import (
    dark_level_pairs,
    loop_reconstruct,
    prefix_band_pairs,
    prefix_sum_majorized,
    random_probs,
    random_unitary,
    slack_pairs,
    sorted_tensor,
    t_chain,
)
from locc_forge import ProbVector, mixture_for
from locc_forge.cli import _PARSER, COMMANDS, load_instance, main
from test_simulator import plant_offdiag_mass

JP_PAIR = {"schema_version": "1", "lam": [0.4, 0.4, 0.1, 0.1],
           "mu": [0.5, 0.25, 0.25, 0.0]}
EASY_PAIR = {"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.75, 0.25]}
DATA = Path(__file__).resolve().parent / "data"

BELL = {"schema_version": "1", "state": {
    "dims": [2, 2], "re": [2**-0.5, 0, 0, 2**-0.5], "im": [0] * 4}}
# raw bytes that are not UTF-8, inside a JSON string
NON_UTF8 = b'{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], "note": "\xff"}'
INT_401 = "1" + "0" * 400  # fits an int, overflows a float
INT_4001 = 10**4000  # within CPython's 4300-digit limit on int <-> str
# CPython refuses to read an int of more than 4300 digits (since 3.11 and
# 3.10.7); an interpreter without that limit reads it and overflows the float
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
INT_5000_MESSAGE = ("invalid JSON" if 0 < _DIGIT_LIMIT < 5000
                    else "bad coefficient vector: int too large to convert to float")


def write(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def set_stdin(monkeypatch, data: bytes) -> None:
    """Replace stdin by a UTF-8 text stream over data, as a real one is."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def assert_input_error(code, out, message) -> None:
    """Exit 2 with one JSON error report on stdout, an InstanceError whose
    message holds message."""
    error = one_json_line(out)["error"]
    assert code == 2 and error["code"] == 2
    assert error["type"] == "InstanceError" and message in error["message"]


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
        # unsorted, lam's first prefix 0.25 would sit below mu's 0.5
        assert report["payload"]["violation_prefix"] == 0
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

    @pytest.mark.parametrize("command", ["check", "catalyst", "plan", "pmax", "conclusive"])
    def test_nan_coefficient_exits_2(self, tmp_path, capsys, command):
        inst = {"schema_version": "1", "lam": [float("nan"), 1.0], "mu": [0.5, 0.5]}
        code, report, _ = run(capsys, [command, "--in", write(tmp_path, inst)])
        assert code == 2 and "sum to nan" in report["error"]["message"]

    @pytest.mark.parametrize("command, text, message", [
        ("extract-gsd", '{"schema_version": "1", "state": {"dims": [2, 2], '
         '"re": [NaN, 0, 0, 0.5], "im": [0, 0, 0, 0]}}', "squared norm nan"),
        ("simulate", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.75, 0.25], '
         '"bases": [[[1e400, 0], [0, 1]], [[1, 0], [0, 1]]]}', "not unitary"),
        ("check", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], '
         '"dims": "ab"}', "bad m or dims"),
        ("simulate", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], '
         '"m": "x"}', "bad m or dims"),
        ("extract-gsd", '{"schema_version": "1", "state": {"dims": [2], '
         '"re": [1, 0], "im": [0, 0]}}', "at least two parties"),
        ("check", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], '
         '"m": 1e400}', "bad m or dims"),
        ("check", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], '
         '"dims": [2, Infinity]}', "bad m or dims"),
        ("check", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], '
         '"note": NaN}', "non-finite number in the instance"),
        ("catalyst", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], '
         '"note": [1e400]}', "non-finite number in the instance"),
        # an infinite imaginary part stays (0 + inf j), with no NaN or warning
        ("simulate", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.75, 0.25], '
         '"bases": [{"re": [[1, 0], [0, 1]], "im": [[1e400, 0], [0, 0]]}, '
         '[[1, 0], [0, 1]]]}', "not unitary"),
        ("extract-gsd", '{"schema_version": "1", "state": {"dims": [2, 2], '
         '"re": [0.5, 0.5, 0.5, 0.5], "im": [1e400, 0, 0, 0]}}', "squared norm"),
        # the whole given basis is checked, not only its Schmidt columns
        *((command, '{"schema_version": "1", "lam": [0.6, 0.4], "mu": [0.8, 0.2], '
           '"dims": [3, 3], "bases": [[[1, 0, 0], [0, 1, 0], [0, 0, 2]], '
           '[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}', "not unitary")
          for command in ("simulate", "conclusive")),
        # counts must be whole numbers: no truncation, no strings, no booleans
        ("check", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], '
         '"dims": [2.5, 2]}', "bad m or dims: 2.5 is not a whole number"),
        ("check", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], '
         '"m": 2.7}', "bad m or dims: 2.7 is not a whole number"),
        ("check", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], '
         '"dims": ["2", "2"]}', "bad m or dims: '2' is not a number"),
        ("check", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.5, 0.5], '
         '"dims": [true, 2]}', "bad m or dims: True is not a number"),
        ("extract-gsd", '{"schema_version": "1", "state": {"dims": [2.5, 2.9], '
         '"re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}}',
         "bad dense state: 2.5 is not a whole number"),
        # shapes and fields that do not fit the instance or the command
        ("check", '[0.5, 0.5]', "instance file must hold a JSON object"),
        ("check", '{"schema_version": "1", "lam": [0.5, 0.3, 0.2], "mu": [0.5, 0.5], '
         '"dims": [2, 3]}', "every local dimension must be >= rank 3"),
        ("simulate", '{"schema_version": "1", "lam": [0.5, 0.5], "mu": [0.75, 0.25], '
         '"bases": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1]]]}',
         "bases[0] must be 2x2, got (3, 3)"),
        ("pmax", json.dumps(BELL), "this command needs lam and mu"),
        ("extract-gsd", '{"schema_version": "1", "state": {"dims": [2, 2], '
         '"re": [0.6, 0, 0.8], "im": [0, 0, 0]}}',
         "bad dense state: 3 amplitudes for dims (2, 2)"),
        # input faults that once ended in a traceback (exit 1) or in exit 5
        pytest.param("check", NON_UTF8, "'utf-8' codec can't decode byte 0xff",
                     id="non-utf8-bytes"),
        pytest.param("check", '{"schema_version": "1", "lam": [1' + "0" * 4999
                     + ', 0.5], "mu": [0.5, 0.5]}', INT_5000_MESSAGE, id="int-of-5000-digits"),
        pytest.param("check", '{"schema_version": "1", "lam": ' + "[" * 100_000
                     + "]" * 100_000 + ', "mu": [0.5, 0.5]}',
                     "maximum recursion depth exceeded", id="lam-nested-100000-deep"),
        pytest.param("check", '{"schema_version": "1", "lam": [' + INT_401
                     + ', 0.5], "mu": [0.5, 0.5]}',
                     "bad coefficient vector: int too large to convert to float",
                     id="int-of-401-digits-in-lam"),
        pytest.param("extract-gsd", '{"schema_version": "1", "state": {"dims": [2, 2], '
                     '"re": [' + INT_401 + ', 0, 0, 0], "im": [0, 0, 0, 0]}}',
                     "bad dense state: int too large to convert to float",
                     id="int-of-401-digits-in-state"),
        pytest.param("simulate", '{"schema_version": "1", "lam": [0.5, 0.5], '
                     '"mu": [0.75, 0.25], "bases": [{"re": [[' + INT_401 + ', 0], [0, 1]], '
                     '"im": [[0, 0], [0, 0]]}, [[1, 0], [0, 1]]]}',
                     "bases[0]: bad re/im matrix: int too large to convert to float",
                     id="int-of-401-digits-in-bases"),
    ])
    def test_malformed_instance_exits_2(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "inst.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code, out = raw_run(capsys, [command, "--in", str(path)])
        assert_input_error(code, out, message)

    @pytest.mark.parametrize("note", ["NaN", "1e400"])
    def test_unprintable_note_exits_2_before_the_command(self, tmp_path, capsys, monkeypatch,
                                                         note):
        # a field nothing reads is checked as the report prints it, when
        # the instance is loaded: the whole extraction does not run first
        def not_called(inst, args):
            raise AssertionError("the command ran")

        monkeypatch.setitem(COMMANDS, "extract-gsd", not_called)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(dict(BELL, note="@")).replace('"@"', note))
        code, out = raw_run(capsys, ["extract-gsd", "--in", str(path)])
        assert_input_error(code, out, "non-finite number in the instance")

    def test_non_utf8_plan_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_bytes(b'{"n": 2, "outcomes": [], "note": "\xff"}')
        code, out = raw_run(capsys, ["simulate", "--in", write(tmp_path, EASY_PAIR),
                                     "--plan", str(plan)])
        assert_input_error(code, out, "'utf-8' codec can't decode byte 0xff")

    def test_non_utf8_stdin_exits_2(self, capsys, monkeypatch):
        set_stdin(monkeypatch, NON_UTF8)
        code, out = raw_run(capsys, ["check", "--in", "-"])
        assert_input_error(code, out, "invalid JSON in -: 'utf-8' codec can't decode")

    def test_nesting_at_the_parser_limit_exits_0_or_2(self, tmp_path, capsys):
        """Nesting that parses but is too deep to print where the report
        holds it is bad input too: every depth just below the deepest that
        parses here exits 0 or 2, with one JSON line."""
        def parses(depth):
            try:
                json.loads("[" * depth + "]" * depth)
            except RecursionError:
                return False
            return True

        lo, hi = 1, 200_000
        if parses(hi):
            pytest.skip("this interpreter parses JSON nested 200000 deep")
        while hi - lo > 1:  # parses(lo) and not parses(hi)
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if parses(mid) else (lo, mid)
        codes = set()
        for depth in range(max(1, lo - 60), hi + 5):
            note = "[" * depth + "]" * depth
            path = tmp_path / "inst.json"
            path.write_text(json.dumps(dict(EASY_PAIR, note="@")).replace('"@"', note))
            code, out = raw_run(capsys, ["check", "--in", str(path)])
            assert code in (0, 2)
            one_json_line(out)
            codes.add(code)
        assert codes == {0, 2}

    @pytest.mark.parametrize("command, payload", [
        *((command, dict(EASY_PAIR, m=7))
          for command in ("check", "plan", "simulate", "pmax", "conclusive", "multicopy",
                          "catalyst")),
        ("check", dict(EASY_PAIR, dims=[2] * 7)),
        ("extract-gsd", dict(BELL, m=7)),
    ])
    def test_more_than_six_parties_exits_4(self, tmp_path, capsys, command, payload):
        code, report, _ = run(capsys, [command, "--in", write(tmp_path, payload)])
        assert code == 4
        assert report["error"] == {"code": 4, "type": "CapExceeded",
                                   "message": "7 parties exceed cap 6"}

    def test_party_count_is_capped_before_dims_are_built(self, tmp_path, capsys):
        start = time.perf_counter()
        code, report, _ = run(capsys, ["check", "--in", write(tmp_path, dict(EASY_PAIR, m=10**6))])
        assert time.perf_counter() - start < 1.0
        assert code == 4 and report["error"]["message"] == "1000000 parties exceed cap 6"

    @pytest.mark.parametrize("argv, message", [
        (["catalyst", "--dmax", "0"], "--dmax must be >= 1"),
        (["catalyst", "--resolution", "0"], "--resolution must lie in (0, 0.5]"),
        (["catalyst", "--resolution=-1"], "--resolution must lie in (0, 0.5]"),
        (["catalyst", "--resolution", "nan"], "--resolution must lie in (0, 0.5]"),
        (["extract-gsd", "--tol", "nan"], "--tol must lie in [0, 1)"),
        (["extract-gsd", "--tol", "inf"], "--tol must lie in [0, 1)"),
        (["extract-gsd", "--tol=-1"], "--tol must lie in [0, 1)"),
        (["extract-gsd", "--tol", "2"], "--tol must lie in [0, 1)"),
        (["multicopy", "--copies", "0"], "--copies must be >= 1"),
    ])
    def test_out_of_range_option_exits_2(self, tmp_path, capsys, argv, message):
        path = write(tmp_path, dict(GHZ, lam=JP_PAIR["lam"], mu=JP_PAIR["mu"]))
        code, report, _ = run(capsys, argv[:1] + ["--in", path] + argv[1:])
        assert code == 2
        assert report["error"]["message"] == message

    @pytest.mark.parametrize("options", [
        ["--dmax", "8"],
        ["--dmax", "10", "--resolution", "0.005"],
        ["--resolution", "5e-324"],
    ])
    def test_catalyst_grid_cap_exits_4(self, tmp_path, capsys, options):
        # an open pair: the grid is listed to one past the cap and not searched
        open_pair = {"schema_version": "1", "lam": [0.45, 0.35, 0.15, 0.05],
                     "mu": [0.55, 0.2, 0.2, 0.05]}
        code, report, _ = run(capsys, [
            "catalyst", "--in", write(tmp_path, open_pair)] + options)
        assert code == 4
        assert report["error"]["type"] == "CapExceeded"

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

    def test_computational_cap_exits_4(self, tmp_path, capsys):
        # refused before a 1e30 x 1e30 identity basis is built
        inst = dict(EASY_PAIR, dims=[2, 1e30])
        code, report, _ = run(capsys, ["simulate", "--in", write(tmp_path, inst)])
        assert code == 4
        assert report["error"]["type"] == "CapExceeded"

    @pytest.mark.parametrize("command, payload", [
        ("simulate", dict(EASY_PAIR, dims=[INT_4001, INT_4001])),
        ("conclusive", dict(EASY_PAIR, dims=[INT_4001, INT_4001])),
        ("extract-gsd", {**BELL, "state": {**BELL["state"], "dims": [INT_4001, INT_4001]}}),
    ])
    def test_dims_whose_product_outgrows_str_exit_4(self, tmp_path, capsys, command, payload):
        # each dim reads, but their 8001-digit product has no str()
        code, out = raw_run(capsys, [command, "--in", write(tmp_path, payload)])
        error = one_json_line(out)["error"]
        assert code == 4 and error["type"] == "CapExceeded"

    def test_dims_are_checked_before_their_product(self, tmp_path, capsys):
        payload = {**BELL, "state": {**BELL["state"], "dims": [INT_4001, 0]}}
        code, out = raw_run(capsys, ["extract-gsd", "--in", write(tmp_path, payload)])
        assert_input_error(code, out, "bad local dimension 0")

    def test_multicopy_cap_exits_4(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [1.0 / 64] * 64, "mu": [1.0 / 64] * 64}
        code, _, _ = run(capsys, [
            "multicopy", "--in", write(tmp_path, inst), "--copies", "4"])
        assert code == 4

    @pytest.mark.parametrize("copies, expected", [(20, 0), (21, 4)])
    def test_rank_one_multicopy_is_capped(self, tmp_path, capsys, copies, expected):
        # a rank-1 power has one entry; it counts as rank 2 against the cap
        inst = {"schema_version": "1", "lam": [1.0], "mu": [1.0]}
        start = time.perf_counter()
        code, report, _ = run(capsys, [
            "multicopy", "--in", write(tmp_path, inst), "--copies", str(copies)])
        assert time.perf_counter() - start < 1.0
        assert code == expected
        if expected == 4:
            assert report["error"]["type"] == "CapExceeded"

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
        assert sorted(o["perm"] for o in plan["outcomes"]) == [[0, 1], [1, 0]]
        assert "mixture" not in report["payload"]

    def test_identity_plan(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [0.6, 0.4], "mu": [0.6, 0.4]}
        code, report, _ = run(capsys, ["plan", "--in", write(tmp_path, inst)])
        assert code == 0
        assert len(report["payload"]["plan"]["outcomes"]) == 1

    @pytest.mark.parametrize("payload", [
        EASY_PAIR,
        {"schema_version": "1", "lam": [0.6, 0.4], "mu": [0.6, 0.4]},
        json.loads((DATA / "report_n5.json").read_text()),
    ])
    def test_plan_is_validated_once(self, tmp_path, capsys, monkeypatch, payload):
        # the report shows the check table that realizing the plan made, and
        # realizing forms the reconstruction r once, for the diagonals and
        # the checks, the identity plan included
        import locc_forge.protocol as protocol
        calls = {"realize": 0, "_kraus_diagonals": 0}
        for name in calls:
            def counted(*args, _fn=getattr(protocol, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(protocol, name, counted)
        code, report, _ = run(capsys, ["plan", "--in", write(tmp_path, payload)])
        assert code == 0 and report["pass"] is True
        assert set(report["residuals"]) == {"completeness", "weights", "reconstruction"}
        assert calls == {"realize": 1, "_kraus_diagonals": 1}

    def test_residuals_accompany_pass(self, tmp_path, capsys):
        _, report, _ = run(capsys, ["plan", "--in", write(tmp_path, EASY_PAIR)])
        assert "completeness" in report["residuals"]
        assert "completeness" in report["tolerances"]

    def test_rank_32_plan(self, tmp_path, capsys):
        rng = np.random.default_rng(32)
        mu = random_probs(rng, 32)
        lam = t_chain(rng, mu, transforms=128)
        inst = {"schema_version": "1", "lam": lam.entries.tolist(), "mu": mu.entries.tolist()}
        code, report, _ = run(capsys, ["plan", "--in", write(tmp_path, inst)])
        assert code == 0 and report["pass"] is True
        assert report["payload"]["plan"]["n"] == 32
        assert len(report["payload"]["plan"]["outcomes"]) <= 32


def check_passes(name: str, value: float, tol: float) -> bool:
    """A printed check: a fidelity passes at least 1 - tol, a residual at
    most tol."""
    return value >= 1.0 - tol if name.endswith("fidelity") else value <= tol


def failed_checks(report: dict) -> set:
    return {name for name, value in report["residuals"].items()
            if not check_passes(name, value, report["tolerances"][name])}


def assert_one_check_table(report: dict) -> None:
    """Every check is printed once, with its value and its tolerance under
    the same name, and the report passes exactly when they all do."""
    assert set(report["residuals"]) == set(report["tolerances"])
    assert report["residuals"]
    assert report["pass"] is (not failed_checks(report))


class TestCheckTable:
    """plan, simulate and conclusive print one check table."""

    @pytest.mark.parametrize("argv", [
        ["plan"], ["simulate"], ["simulate", "--plan"], ["conclusive"],
    ])
    def test_pass_is_the_conjunction_of_the_printed_checks(self, tmp_path, capsys, argv):
        inst = {"schema_version": "1", "lam": [0.5, 0.3, 0.2], "mu": [0.6, 0.3, 0.1]}
        if argv == ["conclusive"]:
            inst["lam"], inst["mu"] = inst["mu"], inst["lam"]
        path = write(tmp_path, inst)
        if argv[1:]:
            _, plan_report, _ = run(capsys, ["plan", "--in", path])
            argv = argv + [write(tmp_path, plan_report, "plan.json")]
        code, report, _ = run(capsys, [argv[0], "--in", path] + argv[1:])
        assert code == 0
        assert_one_check_table(report)
        assert "transcript" not in report["payload"] or set(
            report["payload"]["transcript"]) == {"branches"}


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

    @pytest.mark.parametrize("field, entries", [
        ("perm", [0, 1, 2]),
        ("perm", [0]),
        ("diag", [1.0, 0.0, 0.0]),
        ("diag", [1.0]),
    ])
    def test_plan_rows_of_wrong_length_exit_2(self, tmp_path, capsys, field, entries):
        # plans carry no diagonals: a diag row is refused by name, whatever
        # its length
        inst_path = write(tmp_path, EASY_PAIR)
        outcome = {"p": 1.0, "perm": [0, 1], field: entries}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"n": 2, "outcomes": [outcome]}))
        code, report, _ = run(capsys, [
            "simulate", "--in", inst_path, "--plan", str(plan_path)])
        assert code == 2
        message = "perm rows must have length n=2" if field == "perm" else "['diag']"
        assert message in report["error"]["message"]

    @pytest.mark.parametrize("field, entries, message", [
        ("perm", [0, 0], "not a permutation"),
        ("perm", [1, 1], "not a permutation"),
        ("perm", [1, 2], "not a permutation"),
        # numpy indexing would wrap -1 onto level 1
        ("perm", [-1, 0], "not a permutation"),
        ("perm", [1e400, 0], "inf is not a whole number"),
        ("perm", [1.9, 0.2], "1.9 is not a whole number"),
        ("perm", [True, False], "True is not a number"),
        ("p", "0.5", "'0.5' is not a number"),
        ("diag", [-0.5, 1.0], "outcome keys ['diag'] are not p or perm"),
        ("diag", [float("nan"), 1.0], "outcome keys ['diag'] are not p or perm"),
        ("p", float("nan"), "weights must be finite"),
        ("p", -0.5, "weights must be finite and >= 0"),
        ("p", 1e308, "weights must be at most 1"),
        ("weight", 1.0, "outcome keys ['weight'] are not p or perm"),
    ])
    def test_invalid_plan_rows_exit_2(self, tmp_path, capsys, field, entries, message):
        inst_path = write(tmp_path, EASY_PAIR)
        outcome = {"p": 1.0, "perm": [0, 1], field: entries}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"n": 2, "outcomes": [outcome]}))
        code, report, _ = run(capsys, [
            "simulate", "--in", inst_path, "--plan", str(plan_path)])
        assert code == 2
        assert message in report["error"]["message"]

    @pytest.mark.parametrize("payload", [
        dict(EASY_PAIR, m=3),
        {"schema_version": "1", "lam": [0.5, 0.3, 0.2], "mu": [0.7, 0.3]},
        {"schema_version": "1", "lam": [0.7, 0.3], "mu": [0.7, 0.3, 0.0]},
        {"schema_version": "1", "lam": [0.7, 0.3], "mu": [0.7 + 1e-13, 0.3 - 1e-13]},
        json.loads((DATA / "report_n5.json").read_text()),
        # the walk reaches no level that holds lam_2 = 3.5e-17
        json.loads((DATA / "dark_n3.json").read_text()),
        # a dead level under random complex bases
        {"schema_version": "1", "lam": [0.6, 0.4, 0.0], "mu": [0.8, 0.2, 0.0],
         "bases": [{"re": b.real.tolist(), "im": b.imag.tolist()} for b in
                   (random_unitary(np.random.default_rng(seed), 3) for seed in (9, 10))]},
    ])
    def test_piped_plan_reproduces_the_transcript(self, tmp_path, capsys, monkeypatch,
                                                  payload):
        # plan | simulate --plan -: the rebuilt diagonals and checks are the
        # synthesized ones, so the report matches simulate without --plan
        # bit for bit, check table included
        inst_path = write(tmp_path, payload)
        code, plan_text = raw_run(capsys, ["plan", "--in", inst_path])
        assert code == 0
        set_stdin(monkeypatch, plan_text.encode())
        code, piped = raw_run(capsys, ["simulate", "--in", inst_path, "--plan", "-"])
        assert code == 0
        code, direct = raw_run(capsys, ["simulate", "--in", inst_path])
        assert code == 0
        piped, direct = json.loads(piped), json.loads(direct)
        assert json.dumps(piped["payload"]["transcript"]) == json.dumps(
            direct["payload"]["transcript"])
        assert piped["payload"]["plan"] == direct["payload"]["plan"]
        for field in ("residuals", "tolerances", "pass"):
            assert json.dumps(piped[field]) == json.dumps(direct[field])
        # the plan's checks join the run's
        assert piped["pass"] is True
        assert {"completeness", "weights", "reconstruction"} < set(piped["residuals"])

    @pytest.mark.parametrize("tamper", ["p", "swap", "other_pair"])
    def test_tampered_plan_fails_verification(self, tmp_path, capsys, tamper):
        pair = {"schema_version": "1", "lam": [0.5, 0.3, 0.2], "mu": [0.6, 0.3, 0.1]}
        source = {"schema_version": "1", "lam": [0.4, 0.35, 0.25], "mu": [0.6, 0.3, 0.1]}
        inst_path = write(tmp_path, pair)
        plan_source = source if tamper == "other_pair" else pair
        code, report, _ = run(capsys, ["plan", "--in", write(tmp_path, plan_source, "src.json")])
        assert code == 0
        plan = report["payload"]["plan"]
        outcomes = plan["outcomes"]
        assert len(outcomes) >= 2 and outcomes[0]["p"] != outcomes[1]["p"]
        if tamper == "p":
            outcomes[0]["p"] *= 1.01
        elif tamper == "swap":
            outcomes[0]["perm"], outcomes[1]["perm"] = outcomes[1]["perm"], outcomes[0]["perm"]
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, report, _ = run(capsys, [
            "simulate", "--in", inst_path, "--plan", str(plan_path)])
        assert code == 5
        assert report["pass"] is False and report["verdict"] == "fail"
        assert failed_checks(report) & {"completeness", "weights", "reconstruction"}
        assert_one_check_table(report)

    @pytest.mark.parametrize("n, message", [
        (2.7, "2.7 is not a whole number"),
        ("2", "'2' is not a number"),
        (True, "True is not a number"),
        (3, "plan dimension 3 does not match instance rank 2"),
    ])
    def test_plan_rank_must_be_whole(self, tmp_path, capsys, n, message):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"n": n, "outcomes": [{"p": 1.0, "perm": [0, 1]}]}))
        code, report, _ = run(capsys, [
            "simulate", "--in", write(tmp_path, EASY_PAIR), "--plan", str(plan_path)])
        assert code == 2
        assert report["error"]["message"] == f"bad plan payload: {message}"

    def test_plan_file_without_a_plan_exits_2(self, tmp_path, capsys):
        # neither a plan nor a plan report: an error report has no payload
        plan_path = write(tmp_path, {"error": {"code": 3}}, "plan.json")
        code, out = raw_run(capsys, [
            "simulate", "--in", write(tmp_path, EASY_PAIR), "--plan", plan_path])
        assert_input_error(code, out, "no measurement plan found in --plan input")

    def test_integral_float_counts_are_read(self, tmp_path, capsys):
        inst = dict(EASY_PAIR, dims=[2.0, 3], m=2.0)
        code, report, _ = run(capsys, ["plan", "--in", write(tmp_path, inst)])
        assert code == 0
        plan_path = tmp_path / "plan.json"
        plan = dict(report["payload"]["plan"], n=2.0)
        plan_path.write_text(json.dumps(plan))
        code, _, _ = run(capsys, [
            "simulate", "--in", write(tmp_path, inst), "--plan", str(plan_path)])
        assert code == 0

    def test_plan_that_misses_the_source_fails_validation(self, tmp_path, capsys):
        # completeness and weights hold: each diagonal is 1 on lam's support;
        # only the reconstruction r = mu = [0.5, 0.5] of lam = [1, 0] fails
        inst = {"schema_version": "1", "lam": [1.0, 0.0], "mu": [0.5, 0.5]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"n": 2, "outcomes": [{"p": 1, "perm": [0, 1]}]}))
        code, report, _ = run(capsys, [
            "simulate", "--in", write(tmp_path, inst), "--plan", str(plan_path)])
        assert code == 5 and report["pass"] is False
        assert report["residuals"]["reconstruction"] == 0.5
        # of the plan's checks only the reconstruction fails; the run that
        # follows lands on [1, 0], not on mu
        assert failed_checks(report) == {"reconstruction", "min_fidelity"}

    def test_plan_accepts_full_report(self, tmp_path, capsys):
        inst_path = write(tmp_path, EASY_PAIR)
        _, plan_report, _ = run(capsys, ["plan", "--in", inst_path])
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(plan_report))
        code, _, _ = run(capsys, [
            "simulate", "--in", inst_path, "--plan", str(report_path)])
        assert code == 0


class TestBasesCheckedOnce:
    @pytest.mark.parametrize("command, pair", [
        ("simulate", EASY_PAIR),
        ("conclusive", {"schema_version": "1", "lam": [0.9, 0.1], "mu": [0.6, 0.4]}),
    ])
    def test_one_state_constructor_per_command(self, tmp_path, capsys, monkeypatch,
                                               command, pair):
        # psi is built and checked once; phi, the waypoint and the failure
        # state reuse its bases
        calls = []
        init = locc_forge.GeneralizedSchmidtState.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(locc_forge.GeneralizedSchmidtState, "__init__", counting)
        rng = np.random.default_rng(4)
        bases = [random_unitary(rng, 2) for _ in range(3)]
        inst = dict(pair, m=3, bases=[{"re": b.real.tolist(), "im": b.imag.tolist()}
                                      for b in bases])
        code, report, _ = run(capsys, [command, "--in", write(tmp_path, inst)])
        assert code == 0 and report["pass"] is True
        assert len(calls) == 1


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

    @pytest.mark.parametrize("command", ["simulate", "conclusive"])
    def test_lopsided_computational_at_the_cap(self, tmp_path, capsys, command):
        # 2 x 2^19 amplitudes: each party holds its two Schmidt columns only
        inst = {"schema_version": "1", "lam": [0.6, 0.4], "mu": [0.8, 0.2],
                "dims": [2, 524288]}
        if command == "conclusive":
            inst["lam"], inst["mu"] = inst["mu"], inst["lam"]
        code, report, _ = run(capsys, [command, "--in", write(tmp_path, inst)])
        assert code == 0
        assert report["pass"] is True


class TestParsedInputReleased:
    def test_command_starts_without_the_parsed_json(self, tmp_path, capsys, monkeypatch):
        # the instance's JSON float lists (32 B a number) are gone by the
        # time the command runs: what is traced then is about the amplitude
        # array of the 8^5 dense state
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(8**5) + 1j * rng.standard_normal(8**5)
        amps /= np.linalg.norm(amps)
        path = write(tmp_path, {"schema_version": "1", "state": {
            "dims": [8] * 5, "re": amps.real.tolist(), "im": amps.imag.tolist()}})
        seen = []
        command = COMMANDS["extract-gsd"]

        def traced(inst, args):
            seen.append(tracemalloc.get_traced_memory()[0])
            return command(inst, args)

        monkeypatch.setitem(COMMANDS, "extract-gsd", traced)
        tracemalloc.start()
        try:
            code = main(["extract-gsd", "--in", path])
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert seen[0] <= 1.5 * amps.nbytes


class TestOffdiagMass:
    @pytest.mark.parametrize("command", ["simulate", "conclusive"])
    def test_over_tolerance_exits_5(self, tmp_path, capsys, monkeypatch, command):
        inst = {"schema_version": "1", "lam": [0.9, 0.1], "mu": [0.6, 0.4], "m": 3}
        if command == "simulate":
            inst["lam"], inst["mu"] = inst["mu"], inst["lam"]
        path = write(tmp_path, inst)
        code, report, _ = run(capsys, [command, "--in", path])
        assert code == 0
        assert report["residuals"]["offdiag_mass"] <= 1e-15
        assert report["tolerances"]["offdiag_mass"] == 1e-9
        plant_offdiag_mass(monkeypatch, 1e-8)
        code, report, _ = run(capsys, [command, "--in", path])
        assert code == 5 and report["verdict"] == "fail"
        assert report["residuals"]["offdiag_mass"] == pytest.approx(1e-8, rel=1e-6)
        assert "offdiag_mass" in failed_checks(report)
        assert_one_check_table(report)


class TestNegligibleBranchFidelity:
    # ROADMAP item 1(a): the plan rebuilds lam to 7e-17 absolute, which is
    # 2.3e-4 relative at lam_3 = 3.06e-13, so an outcome of weight 1.09e-12
    # lands with min_fidelity 0.999999997354049 and the run exits 5, while
    # `plan` on the same pair exits 0
    INSTANCE = {
        "schema_version": "1",
        "lam": [0.36899999999874566, 0.35, 0.281, 3.06e-13, 2.66e-13, 1.79e-13,
                1.59e-13, 1.49e-13, 1.15e-13, 8.04e-14],
        "mu": [0.369, 0.35, 0.281, 0, 0, 0, 0, 0, 0, 0],
    }

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1(a): exits 5 on min_fidelity")
    @pytest.mark.parametrize("command", ["simulate", "conclusive"])
    def test_tiny_tail_pair_exits_0(self, tmp_path, capsys, command):
        code, _, _ = run(capsys, [command, "--in", write(tmp_path, self.INSTANCE)])
        assert code == 0


class TestOtherCommands:
    def test_pmax(self, tmp_path, capsys):
        inst = {"schema_version": "1", "lam": [0.9, 0.1], "mu": [0.6, 0.4]}
        code, report, _ = run(capsys, ["pmax", "--in", write(tmp_path, inst)])
        assert code == 0
        assert report["payload"]["p_max"] == pytest.approx(0.25, abs=1e-12)
        assert report["payload"]["l_star"] == 1

    @pytest.mark.parametrize("command", ["check", "pmax"])
    def test_report_size_does_not_grow_with_rank(self, tmp_path, capsys, command):
        # the payload holds the verdict and its witness, not the vectors
        rng = np.random.default_rng(4)
        texts = []
        for n in (4, 1024):
            inst = {"schema_version": "1", "lam": random_probs(rng, n).entries.tolist(),
                    "mu": random_probs(rng, n).entries.tolist()}
            code, text = raw_run(capsys, [command, "--in", write(tmp_path, inst)])
            assert code == 0
            texts.append(text)
        small, large = (json.loads(text) for text in texts)
        assert set(small["payload"]) == set(large["payload"])
        assert abs(len(texts[0]) - len(texts[1])) < 100

    def test_conclusive_within_unit_tol_of_certainty_exits_0(self, tmp_path, capsys):
        # 1 - p_max = 5e-10, in (PLAN_TOL, UNIT_TOL]: one settle outcome, of
        # weight 1, lands every stage branch on mu
        payload = {"schema_version": "1", "lam": [0.6, 0.4],
                   "mu": [0.6 - 2e-10, 0.4 + 2e-10], "m": 2}
        code, report, _ = run(capsys, ["conclusive", "--in", write(tmp_path, payload)])
        assert code == 0 and report["pass"] is True
        branches = report["payload"]["transcript"]["branches"]
        assert [br["success"] for br in branches] == [True]
        assert report["residuals"]["success_prob_error"] == pytest.approx(5e-10, rel=1e-6)

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

    @pytest.mark.parametrize("lam, mu", [([0.6, 0.4], [0.7, 0.3]), ([0.7, 0.3], [0.6, 0.4])])
    def test_multicopy_at_the_cap(self, tmp_path, capsys, lam, mu):
        # 2^20 entries per power at --copies 20; the oracle sorts the full
        # powers up to 12 copies
        inst = {"schema_version": "1", "lam": lam, "mu": mu}
        code, report, _ = run(capsys, [
            "multicopy", "--in", write(tmp_path, inst), "--copies", "20"])
        assert code == 0
        assert report["payload"]["tensor_entries"] == 2**20
        lam_t, mu_t = [1.0], [1.0]
        for c in range(1, 13):
            lam_t, mu_t = sorted_tensor(lam_t, lam), sorted_tensor(mu_t, mu)
            assert report["payload"]["per_copy"][str(c)] == prefix_sum_majorized(lam_t, mu_t)
        assert len(set(report["payload"]["per_copy"].values())) == 1

    def test_catalyst_finds_and_verifies(self, tmp_path, capsys):
        code, report, _ = run(capsys, [
            "catalyst", "--in", write(tmp_path, JP_PAIR),
            "--dmax", "2", "--resolution", "0.01"])
        assert code == 0 and report["pass"] is True
        assert report["verdict"] == "found"
        assert report["payload"]["catalyst"] == [0.6, 0.4]
        assert report["payload"]["candidates_tested"] == 11
        # the one check: the largest prefix excess of lam(x)c over mu(x)c
        assert report["tolerances"] == {"certificate": 1e-9}
        assert set(report["residuals"]) == {"certificate"}
        assert abs(report["residuals"]["certificate"]) <= 1e-9
        assert report["payload"]["certificate"] == {"uncatalyzed_violation_prefix": 1}

    def test_catalyst_refuted_and_open(self, tmp_path, capsys):
        refutable = {"schema_version": "1", "lam": [0.7, 0.2, 0.1],
                     "mu": [0.6, 0.3, 0.1]}
        code, report, err = run(capsys, [
            "catalyst", "--in", write(tmp_path, refutable), "--dmax", "4"])
        assert code == 0 and report["pass"] is True
        assert report["verdict"] == "refuted" and "refuted" in err
        payload = report["payload"]
        assert payload["found"] is False and payload["candidates_tested"] == 0
        assert payload["certificate"] == {
            "uncatalyzed_violation_prefix": 0, "monotone": "largest_coefficient",
            "alpha": None, "source": pytest.approx(0.7, abs=1e-15),
            "target": pytest.approx(0.6, abs=1e-15),
            "excess": pytest.approx(0.1, abs=1e-15)}
        assert report["residuals"] == report["tolerances"] == {}
        # no monotone refutes this pair, and no grid point catalyses it
        open_pair = {"schema_version": "1", "lam": [0.45, 0.35, 0.15, 0.05],
                     "mu": [0.55, 0.2, 0.2, 0.05]}
        code, report, _ = run(capsys, [
            "catalyst", "--in", write(tmp_path, open_pair), "--dmax", "2"])
        assert code == 0 and report["verdict"] == "open"
        assert report["payload"]["found"] is False
        assert report["residuals"] == report["tolerances"] == {}
        assert report["payload"]["candidates_tested"] == 50

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

    @pytest.mark.parametrize("options, witness", [
        ([], {"kind": "entangled_cofactor", "index": 0, "party": 1}),
        (["--tol", "0.05"], {"kind": "reassembly", "index": -1, "party": None}),
    ])
    def test_extract_gsd_near_product_cofactor(self, tmp_path, capsys, options, witness):
        # |0> (x) (sqrt(0.99)|00> + sqrt(0.01)|11>): the one cofactor is 0.01
        # short of a product, so the default tol rejects it at party 1; at
        # tol 0.05 its nearest product goes on, and the reassembly misses
        # the state by the same 0.01
        amps = [0.99**0.5, 0.0, 0.0, 0.01**0.5, 0.0, 0.0, 0.0, 0.0]
        inst = {"schema_version": "1",
                "state": {"dims": [2, 2, 2], "re": amps, "im": [0.0] * 8}}
        code, report, _ = run(capsys, ["extract-gsd", "--in", write(tmp_path, inst), *options])
        assert code == 0 and report["verdict"] == "rejects"
        got = report["payload"]["witness"]
        assert got["residual"] == pytest.approx(0.01, abs=1e-12)
        assert {key: got[key] for key in witness} == witness

    def test_extract_gsd_requires_state(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["extract-gsd", "--in", write(tmp_path, EASY_PAIR)])
        assert code == 2


GHZ = {"schema_version": "1", "state": {
    "dims": [2, 2, 2], "re": [2**-0.5, 0, 0, 0, 0, 0, 0, 2**-0.5], "im": [0] * 8}}

# one passing run of every command: (argv before --in, instance)
EVERY_COMMAND = [
    (["check"], EASY_PAIR),
    (["plan"], EASY_PAIR),
    (["simulate"], dict(EASY_PAIR, m=3)),
    (["pmax"], {"schema_version": "1", "lam": [0.9, 0.1], "mu": [0.6, 0.4]}),
    (["conclusive"], {"schema_version": "1", "lam": [0.9, 0.1], "mu": [0.6, 0.4], "m": 3}),
    (["multicopy", "--copies", "3"], JP_PAIR),
    (["catalyst", "--dmax", "2"], JP_PAIR),
    (["extract-gsd"], GHZ),
]
assert sorted(argv[0] for argv, _ in EVERY_COMMAND) == sorted(COMMANDS)


def raw_run(capsys, argv):
    """Exit code and the exact stdout text."""
    code = main(argv)
    return code, capsys.readouterr().out


def one_json_line(text) -> dict:
    assert text.endswith("\n") and text.count("\n") == 1, text[:200]
    return json.loads(text)


def error_cases(tmp_path):
    """(exit code, argv) of one failing run per error exit, 2 to 5."""
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    # outcome 1 puts no mass on level 0, the only live level of the source,
    # so its diagonal there is 0 and it annihilates the state (ZeroBranch)
    dead_plan = tmp_path / "dead_plan.json"
    dead_plan.write_text(json.dumps({"n": 3, "outcomes": [
        {"p": 0.5, "perm": [0, 1, 2]}, {"p": 0.5, "perm": [2, 0, 1]}]}))
    pair = {"schema_version": "1", "lam": [1.0, 0.0, 0.0], "mu": [0.5, 0.5, 0.0]}
    cap = {"schema_version": "1", "lam": [1.0 / 64] * 64, "mu": [1.0 / 64] * 64}
    return [
        (2, ["check", "--in", str(bad)]),
        (3, ["plan", "--in", write(tmp_path, JP_PAIR, "jp.json")]),
        (4, ["multicopy", "--in", write(tmp_path, cap, "cap.json"), "--copies", "4"]),
        (5, ["simulate", "--in", write(tmp_path, pair, "pair.json"),
             "--plan", str(dead_plan)]),
    ]


W3 = {"schema_version": "1", "state": {
    "dims": [2, 2, 2], "re": [0, 3**-0.5, 3**-0.5, 0, 3**-0.5, 0, 0, 0], "im": [0] * 8}}

# every command, and every verdict of catalyst and extract-gsd
EVERY_VERDICT = EVERY_COMMAND + [
    (["check"], JP_PAIR),
    (["catalyst", "--dmax", "4"], {"schema_version": "1", "lam": [0.7, 0.2, 0.1],
                                   "mu": [0.6, 0.3, 0.1]}),
    (["catalyst", "--dmax", "2"], {"schema_version": "1", "lam": [0.45, 0.35, 0.15, 0.05],
                                   "mu": [0.55, 0.2, 0.2, 0.05]}),
    (["catalyst", "--dmax", "2"], EASY_PAIR),
    (["extract-gsd"], W3),
]


@pytest.mark.parametrize("argv, payload", EVERY_VERDICT,
                         ids=[" ".join(argv) for argv, _ in EVERY_VERDICT])
def test_every_report_prints_one_check_table(tmp_path, capsys, argv, payload):
    """residuals and tolerances pair each check's value with its bound by
    name, and pass is the conjunction of the printed checks, in every
    command; a verdict's own tolerance is no check."""
    code, report, _ = run(capsys, argv + ["--in", write(tmp_path, payload)])
    assert code == 0
    assert set(report["residuals"]) == set(report["tolerances"])
    assert report["pass"] is (not failed_checks(report))


class TestReportContract:
    @pytest.mark.parametrize("argv, payload", EVERY_COMMAND)
    def test_report_is_one_json_line(self, tmp_path, capsys, argv, payload):
        code, out = raw_run(capsys, argv + ["--in", write(tmp_path, payload)])
        assert code == 0
        report = one_json_line(out)
        assert list(report) == sorted(report)

    @pytest.mark.parametrize("argv, payload", EVERY_COMMAND)
    def test_report_is_strict_json(self, tmp_path, capsys, argv, payload):
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        _, out = raw_run(capsys, argv + ["--in", write(tmp_path, payload)])
        json.loads(out, parse_constant=reject)

    def test_non_finite_report_value_exits_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("locc_forge.cli.pmax", lambda lam, mu: (float("nan"), 0))
        code, out = raw_run(capsys, ["pmax", "--in", write(tmp_path, EASY_PAIR)])
        assert code == 5
        assert one_json_line(out)["error"]["type"] == "ValueError"

    def test_error_reports_are_one_json_line(self, tmp_path, capsys):
        for expected, argv in error_cases(tmp_path):
            code, out = raw_run(capsys, argv)
            assert code == expected
            assert one_json_line(out)["error"]["code"] == expected

    def test_deterministic_apart_from_wall_time(self, tmp_path, capsys):
        for argv, payload in EVERY_COMMAND:
            path = write(tmp_path, payload)
            runs = [raw_run(capsys, argv + ["--in", path])[1] for _ in range(2)]
            blanked = [re.sub(r'"wall_time_s": [^,}]+', '"wall_time_s": 0', out)
                       for out in runs]
            assert blanked[0] != runs[0]
            assert blanked[0] == blanked[1], argv

    @pytest.mark.parametrize("command", ["plan", "simulate", "conclusive"])
    def test_reports_match_recorded_bytes(self, capsys, command):
        # a rank-5 instance with random complex bases on (5, 6, 5); the
        # recorded reports pin every digit, wall_time_s blanked
        code, out = raw_run(capsys, [command, "--in", str(DATA / "report_n5.json")])
        assert code == 0
        blanked = re.sub(r'"wall_time_s": [^,}]+', '"wall_time_s": 0', out)
        assert blanked == (DATA / f"report_n5_{command}.out").read_text(encoding="utf-8")

    def test_n32_plan_matches_recorded_bytes(self, capsys):
        # mu from helpers.random_probs and lam from 4n = 128 T-transforms of
        # it (default_rng(32)): the plan pins a 32-step walk, every digit of
        # its weights and every relabeling, wall_time_s blanked
        code, out = raw_run(capsys, ["plan", "--in", str(DATA / "report_n32.json")])
        assert code == 0
        blanked = re.sub(r'"wall_time_s": [^,}]+', '"wall_time_s": 0', out)
        assert blanked == (DATA / "report_n32_plan.out").read_text(encoding="utf-8")

    def test_n16_conclusive_matches_recorded_bytes(self, capsys):
        # mu from helpers.random_probs and lam from 64 T-transforms of it
        # (default_rng(16)), run in reverse on (16, 17) with random bases:
        # p_max 0.028, 13 segments, 4 stage outcomes, each settled onto mu
        # and onto the failure coefficients, wall_time_s blanked
        code, out = raw_run(capsys, ["conclusive", "--in", str(DATA / "report_n16.json")])
        assert code == 0
        blanked = re.sub(r'"wall_time_s": [^,}]+', '"wall_time_s": 0', out)
        assert blanked == (DATA / "report_n16_conclusive.out").read_text(encoding="utf-8")
        branches = json.loads(out)["payload"]["transcript"]["branches"]
        assert [br["success"] for br in branches] == [True, False] * 4

    @pytest.mark.parametrize("command", ["plan", "simulate", "conclusive"])
    def test_plan_outcomes_carry_only_p_and_perm(self, capsys, command):
        _, report, _ = run(capsys, [command, "--in", str(DATA / "report_n5.json")])
        payload = report["payload"]
        plan = (payload["conclusive_plan"]["deterministic_stage"]
                if command == "conclusive" else payload["plan"])
        assert plan["outcomes"]
        assert all(set(o) == {"p", "perm"} for o in plan["outcomes"])

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        runs = [(0, argv + ["--in", write(tmp_path, payload, f"{i}.json")])
                for i, (argv, payload) in enumerate(EVERY_COMMAND)]
        for expected, argv in runs + error_cases(tmp_path):
            code, text = raw_run(capsys, argv + ["--out", str(out)])
            assert code == expected
            assert out.read_bytes() == text.encode("utf-8"), argv

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        for _, argv in [(0, ["check", "--in", write(tmp_path, EASY_PAIR)])] + (
                error_cases(tmp_path)):
            code, text = raw_run(capsys, argv + ["--out", str(out)])
            assert code == 2
            error = one_json_line(text)["error"]
            assert error["code"] == 2 and str(out) in error["message"]
            assert not out.exists()

    def test_inputs_echoed_and_options_recorded(self, tmp_path, capsys):
        path = write(tmp_path, dict(EASY_PAIR, seed=7))
        _, report, _ = run(capsys, ["check", "--in", path])
        assert report["inputs"]["lam"] == {"sha256": _sha256([np.array([0.5, 0.5])])}
        assert report["inputs"]["seed"] == 7

    def test_options_echo_the_parsed_sub_command(self, tmp_path, capsys):
        path = write(tmp_path, JP_PAIR)
        _, report, _ = run(capsys, ["check", "--in", path])
        assert report["options"] == {}
        _, report, _ = run(capsys, ["catalyst", "--in", path, "--dmax", "3"])
        assert report["options"] == {"dmax": 3, "resolution": 0.01}

    @pytest.mark.parametrize(
        "argv",
        [[name, "--seed", "9"] for name in COMMANDS]
        + [[name, "--tol", "1e-3"] for name in COMMANDS if name != "extract-gsd"],
    )
    def test_removed_knobs_exit_2(self, tmp_path, argv):
        # check --tol 1e-3 once called [0.6005, 0.3995] -> [0.6, 0.4]
        # convertible while plan exits 3 on it
        path = write(tmp_path, {"schema_version": "1", "lam": [0.6005, 0.3995],
                                "mu": [0.6, 0.4]})
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--in", path] + argv[1:])
        assert exc.value.code == 2

    def test_stdin_instance(self, tmp_path, capsys, monkeypatch):
        set_stdin(monkeypatch, json.dumps(EASY_PAIR).encode())
        code, report, _ = run(capsys, ["check", "--in", "-"])
        assert code == 0 and report["verdict"] == "convertible"


def _sha256(arrays) -> str:
    """The documented input digest: each array's shape as little-endian
    int64, then its little-endian complex128 bytes in C order."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.array(arr.shape, dtype="<i8").tobytes())
        h.update(np.asarray(arr, dtype="<c16", order="C").tobytes())
    return h.hexdigest()


class TestInputDigest:
    @pytest.mark.parametrize("argv, payload", EVERY_COMMAND)
    def test_coefficient_digest_in_every_report(self, tmp_path, capsys, argv, payload):
        # taken over the vectors as given: before sorting, padding or
        # normalising
        payload = dict(payload, lam=[0.25, 0.5, 0.25], mu=[0.5, 0.5])
        if argv[0] in ("simulate", "conclusive"):
            payload["lam"], payload["mu"] = [0.5, 0.5], [0.25, 0.75]
        if argv[0] == "conclusive":
            payload["lam"], payload["mu"] = payload["mu"], payload["lam"]
        _, report, _ = run(capsys, argv + ["--in", write(tmp_path, payload)])
        for key in ("lam", "mu"):
            want = _sha256([np.array(payload[key], dtype=float)])
            assert report["inputs"][key] == {"sha256": want}, (argv, key)

    def test_coefficient_digest(self):
        def digest(text):
            payload = json.loads('{"schema_version": "1", "lam": %s, "mu": [1, 0]}' % text)
            return load_instance(payload).echo["lam"]

        first = digest("[0.75, 0.25]")
        assert first == {"sha256": _sha256([np.array([0.75, 0.25])])}
        assert digest("[7.5e-1, 0.250]") == digest("[75E-2, 2.5e-1]") == first
        assert digest("[0.25, 0.75]") != first
        assert digest("[0.75, 0.25, 0]") != first
        assert digest("[0.75, 0.2500000000000001]") != first
        ints = load_instance({"schema_version": "1", "lam": [1, 0], "mu": [1.0, 0.0]}).echo
        assert ints["lam"] == ints["mu"]

    def test_state_digest(self):
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)

        def digest(dims, a):
            state = {"dims": dims, "re": a.real.tolist(), "im": a.imag.tolist()}
            return load_instance({"schema_version": "1", "state": state}).echo["state"]

        first = digest([2, 4], amps)
        assert first == {"sha256": _sha256([amps.reshape(2, 4)])}
        assert digest([2, 4], amps) == first
        flipped = amps.copy()
        flipped[3] *= -1
        assert digest([2, 4], flipped) != first
        assert digest([4, 2], amps) != first

    def test_state_is_read_from_re_and_im(self):
        state = {"dims": [2, 1], "re": [0.6, 0.0], "im": [0.0, 0.8]}
        inst = load_instance({"schema_version": "1", "state": state})
        np.testing.assert_array_equal(inst.state.amplitudes, [0.6, 0.8j])
        assert inst.state.dims == (2, 1)

    def test_bases_digest(self):
        rng = np.random.default_rng(6)
        bases = [random_unitary(rng, 3) for _ in range(2)]

        def digest(mats):
            payload = {"schema_version": "1", "lam": [0.5, 0.3, 0.2],
                       "mu": [0.6, 0.3, 0.1],
                       "bases": [{"re": b.real.tolist(), "im": b.imag.tolist()}
                                 for b in mats]}
            return load_instance(payload).echo["bases"]

        first = digest(bases)
        assert first == {"sha256": _sha256(bases)}
        assert digest(bases) == first
        tweaked = [bases[0], bases[1].copy()]
        tweaked[1][2, 1] += 1e-12
        assert digest(tweaked) != first


class TestInputSlack:
    """Coefficient sums within the ProbVector allowance of 1 are plain
    inputs: every route runs and verifies."""

    @pytest.mark.parametrize("command", ["plan", "simulate", "conclusive"])
    def test_sum_slack_exits_0(self, tmp_path, capsys, command):
        pairs = [([0.5000000005, 0.3, 0.2], [0.6, 0.3, 0.1])]
        for n in range(3, 17):
            pairs += [(lam.tolist(), mu.tolist()) for lam, mu in slack_pairs(n)]
        for lam, mu in pairs:
            path = write(tmp_path, {"schema_version": "1", "lam": lam, "mu": mu})
            code, report, _ = run(capsys, [command, "--in", path])
            assert code == 0, (lam, mu, report)

    @pytest.mark.parametrize("command", ["plan", "simulate", "conclusive"])
    def test_prefix_band_exits_0(self, tmp_path, capsys, command):
        # lam exceeds one prefix of mu by v <= UNIT_TOL: `check` calls such
        # pairs convertible, so every route must run and verify
        for v in (1e-11, 1e-10, 9e-10):
            for lam, mu in prefix_band_pairs(v):
                inst = {"schema_version": "1", "lam": lam.tolist(), "mu": mu.tolist()}
                code, report, _ = run(capsys, [command, "--in", write(tmp_path, inst)])
                assert code == 0, (v, lam, mu, report)

    @pytest.mark.parametrize("command", ["plan", "simulate", "conclusive"])
    def test_tiny_tail_within_zero_tol_exits_0(self, tmp_path, capsys, command):
        # mu is within ZERO_TOL of lam, so the plan is the one-outcome
        # identity, which reaches neither level that holds 1e-13 (r_k = 0)
        inst = {"schema_version": "1", "lam": [0.4999999999998, 0.3, 0.2, 1e-13, 1e-13],
                "mu": [0.5, 0.3, 0.2, 0.0, 0.0]}
        code, report, _ = run(capsys, [command, "--in", write(tmp_path, inst)])
        assert code == 0 and report["pass"] is True


class TestBandEdge:
    """At the 1e-9 edge of the prefix band every command makes the one
    decision that ``check`` prints: a pair is convertible exactly when its
    ``max_prefix_excess`` is at most 1e-9.  The pairs move v = 1e-9 and
    1e-9 + 1 ulp between two levels, so rounding puts their excess on
    either side of the edge; one pair at 9e-10 and one at 1.1e-9 are
    clearly inside and outside.  The library is called where the CLI only
    prints its result; plan's exit code comes from ``main``."""

    @staticmethod
    def pairs():
        edge = [pair for v in (1e-9, np.nextafter(1e-9, 1.0)) for pair in prefix_band_pairs(v)]
        return [next(prefix_band_pairs(9e-10)), next(prefix_band_pairs(1.1e-9)), *edge]

    @staticmethod
    def plan_exit(tmp_path, capsys, raw) -> int:
        code = main(["plan", "--in", write(tmp_path, raw)])
        capsys.readouterr()
        return code

    def test_every_command_decides_as_check_prints(self, tmp_path, capsys):
        # the options as the CLI parses them, catalyst's at their defaults
        multicopy = _PARSER.parse_args(["multicopy", "--copies", "1", "--in", "-"])
        catalyst = _PARSER.parse_args(["catalyst", "--in", "-"])
        verdicts = []
        for lam, mu in self.pairs():
            raw = {"schema_version": "1", "lam": lam.tolist(), "mu": mu.tolist()}
            inst = load_instance(raw)
            check = COMMANDS["check"](inst, None)[1]
            convertible = check["convertible"]
            assert convertible is (check["max_prefix_excess"] <= 1e-9), (lam, mu, check)
            assert COMMANDS["multicopy"](inst, multicopy)[1]["per_copy"] == {"1": convertible}
            for name, got in COMMANDS["catalyst"](inst, catalyst)[2].items():
                assert got.ok is (got.value <= got.tol), (name, got)
            # exit 3 exactly when check says no; see the xfail below for exit 0
            code = self.plan_exit(tmp_path, capsys, raw)
            assert (code == 3) is not convertible, (lam, mu, check, code)
            verdicts.append(convertible)
        # both sides of the edge are reached, the two outer pairs as expected
        assert verdicts[:2] == [True, False] and len(set(verdicts[2:])) == 2

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1(c): the walk's plan misses lam "
                       "by the band plus rounding, so reconstruction fails: exit 5")
    def test_plan_exits_0_when_check_says_convertible(self, tmp_path, capsys):
        for lam, mu in self.pairs():
            raw = {"schema_version": "1", "lam": lam.tolist(), "mu": mu.tolist()}
            if COMMANDS["check"](load_instance(raw), None)[1]["convertible"]:
                assert self.plan_exit(tmp_path, capsys, raw) == 0, (lam, mu)


class TestDarkLevels:
    """Pairs whose plan reaches no level that holds a tiny lam_k, so r_k =
    0 there: each outcome's diagonal is sqrt(p_j) on such a level, and the
    measurement stays complete."""

    def test_generator_reaches_dark_levels(self):
        # the walk leaves lam_k > 0 = r_k on a good share of the pairs
        dark = 0
        for lam, mu in dark_level_pairs():
            if prefix_sum_majorized(lam, mu):
                mix = mixture_for(ProbVector(lam), ProbVector(mu))
                recon = loop_reconstruct(mix.weights, mix.terms, np.sort(mu)[::-1])
                dark += bool(np.any((np.sort(lam)[::-1] > 0.0) & (recon == 0.0)))
        assert dark >= 50

    def test_generator_exits_0(self, tmp_path, capsys):
        # plan and simulate exit 0 on every majorized pair; every other run
        # exits 0 or 3 (for conclusive, p_max within ZERO_TOL of 0)
        wrong = []
        for lam, mu in dark_level_pairs():
            path = write(tmp_path, {"schema_version": "1", "lam": lam.tolist(),
                                    "mu": mu.tolist()})
            majorized = prefix_sum_majorized(lam, mu)
            for command in ("plan", "simulate", "conclusive"):
                code, report, _ = run(capsys, [command, "--in", path])
                if code not in ({0} if majorized and command != "conclusive" else {0, 3}):
                    wrong.append((command, code, lam.tolist(), mu.tolist(), report))
        assert not wrong, wrong[:2]

    @pytest.mark.parametrize("command", ["plan", "simulate", "conclusive"])
    def test_smallest_dark_pair_exits_0(self, capsys, command):
        code, report, _ = run(capsys, [command, "--in", str(DATA / "dark_n3.json")])
        assert code == 0 and report["pass"] is True


# valid instances, each with a command that reads it, for the mutation fuzz
FUZZ_SEEDS = [
    (["check"], EASY_PAIR),
    (["pmax"], JP_PAIR),
    (["plan"], EASY_PAIR),
    (["simulate"], dict(EASY_PAIR, m=3)),
    (["simulate"], dict(EASY_PAIR, bases=[
        {"re": [[0.6, 0.8], [0.8, -0.6]], "im": [[0, 0], [0, 0]]}, [[0, 1], [1, 0]]])),
    (["conclusive"], {"schema_version": "1", "lam": [0.9, 0.1], "mu": [0.6, 0.4],
                      "dims": [2, 3]}),
    (["multicopy"], JP_PAIR),
    (["catalyst"], EASY_PAIR),
    (["extract-gsd"], GHZ),
]
# where a structural mutation puts its value: a top-level key, or a key or
# index one level down (at the top level where that is missing)
FUZZ_PATHS = ["schema_version", "lam", "mu", "m", "dims", "bases", "state", "note",
              ("lam", 0), ("dims", 1), ("bases", 0), ("state", "re"), ("state", "dims")]
MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1)),
    st.tuples(st.just("flip"), st.floats(0, 1), st.integers(0, 7)),
    st.tuples(st.just("nest"), st.sampled_from(FUZZ_PATHS), st.integers(1, 100_000)),
    st.tuples(st.just("huge"), st.sampled_from(FUZZ_PATHS), st.integers(309, 5000)),
    st.tuples(st.just("retype"), st.sampled_from(FUZZ_PATHS),
              st.sampled_from(["x", True, None, -1, 2.5, {}, [], {"re": 1}])),
)


def mutate(payload: dict, mutation) -> bytes:
    """The instance file of payload, truncated, with one bit flipped, or
    with the value at a path replaced by deep nesting, an integer of many
    digits or a value of another type."""
    kind, *rest = mutation
    if kind in ("truncate", "flip"):
        data = bytearray(json.dumps(payload).encode())
        at = int(rest[0] * (len(data) - 1))
        if kind == "truncate":
            return bytes(data[:at])
        data[at] ^= 1 << rest[1]
        return bytes(data)
    path, arg = rest
    text = {"nest": lambda k: "[" * k + "]" * k, "huge": lambda k: "1" + "0" * k,
            "retype": json.dumps}[kind](arg)
    payload = json.loads(json.dumps(payload))
    key, *sub = path if isinstance(path, tuple) else (path,)
    parent = payload.get(key)
    if sub and (isinstance(parent, dict) and isinstance(sub[0], str)
                or isinstance(parent, list) and sub[0] < len(parent)):
        parent[sub[0]] = "@"
    else:
        payload[key] = "@"
    return json.dumps(payload).replace('"@"', text).encode()


class TestInputFuzz:
    """Malformed instance files, made from valid ones, never end in a
    traceback or in exit 5: every run exits 0, 2, 3 or 4 with one JSON line
    on stdout.  A loader-level check, not the domain gate of every command."""

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.sampled_from(FUZZ_SEEDS), mutation=MUTATIONS)
    def test_mutated_instances_exit_0_2_3_or_4(self, tmp_path, capsys, seed, mutation):
        argv, payload = seed
        path = tmp_path / "inst.json"
        path.write_bytes(mutate(payload, mutation))
        code, out = raw_run(capsys, argv + ["--in", str(path)])
        assert code in (0, 2, 3, 4), out
        assert ("error" in one_json_line(out)) is (code != 0)


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
