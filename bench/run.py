"""locc-forge CLI benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload plan-ladder --seed 1 --seconds 30 --trace 0

The benchmark drives ``locc_forge.cli.main`` in process as a closed loop
with one client: the next command is issued when the previous one has
returned and its report has been checked against the oracles in
``oracles.py``.  The instance files are generated from ``--seed`` during
set-up (see ``workloads.py``), and the loop repeats the workload's whole
command list until ``--seconds`` have passed, so every run measures the
same mix.  The package is imported from ``src/`` next to this directory;
nothing is installed.

Timed figures are scaled to a reference host speed.  On a shared host
the CPU speed drifts over seconds to minutes (by up to 1.7x on a 2-vCPU
VM), in step for interpreter, numpy and JSON work.  A fixed round of
reference work is timed between batches of commands (``HostSpeed``), and
each latency is multiplied by REFERENCE_S over the round time measured
around its batch.  The unscaled end-to-end figures go to stderr.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run: half the time untraced, half with spans wrapped around the package's
public functions (``tracing.py``), and prints the per-layer metrics.  The
last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a summary and the
environment (BLAS threads, numpy/BLAS version, nproc) go to stderr.

``latency_p90_ms`` is the 90th percentile of the scaled latencies, or a
lower one when fewer than 100 commands ran, so that at least 10 samples
lie beyond it; the percentile and its sample count go to stderr.

A command fails if it exits 5, exits with any code the oracle does not
predict, raises, or disagrees with the oracle; an exit 3 that the oracle
predicts is a success.  ``attempted`` is the number of commands in the
workload's list and ``failed`` the number of them that failed in any
pass, so both depend on the seed only, not on how many passes fit into
``--seconds``; a command whose outcome changes from pass to pass is
named on stderr.  ``correct`` is false when any report disagreed with
its oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread, set before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 3
SETUP_ROUNDS = 9  # HostSpeed rounds timed around each set-up step
REFERENCE_S = 2e-3  # host speed the timed metrics are scaled to; see HostSpeed
CALIBRATION_PERIOD_S = 0.02
STARTUP_REPEATS = 7
FAILURE_KINDS = ("DecompositionFailed", "InternalContradiction", "ConstructionInvalid",
                 "ZeroBranch", "other_error", "verification", "oracle_mismatch")
EXIT_IMPOSSIBLE = 3
EXIT_INTERNAL = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

SPANS = (
    "majorization.mixture_for", "majorization.is_majorized",
    "protocol.build_plan", "protocol.validate",
    "simulator.run_protocol", "simulator.apply_local", "simulator.assemble",
    "simulator.extract_gsd",
    "probabilistic.pmax", "probabilistic.intermediate_state",
    "probabilistic.run_conclusive", "probabilistic.catalysis_search",
    "probabilistic.multicopy_check",
    "cli.main", "cli.load_instance", "cli.command",
)
COUNTERS = (
    "majorization.mixture_terms", "majorization.decomposition_failures",
    "simulator.amplitudes_touched", "simulator.branches",
    "probabilistic.catalysis_candidates", "probabilistic.tensor_entries",
    "cli.report_bytes",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPANS:
        units[f"{span}_ms"] = "ms"
        units[f"{span}_self_ms"] = "ms"
        units[f"{span}_calls"] = "count"
    for layer in ("majorization", "protocol", "simulator", "probabilistic", "cli"):
        units[f"{layer}.self_ms"] = "ms"
    units.update({name: "count" for name in COUNTERS})
    units["probabilistic.catalysis_found_ratio"] = "ratio"
    units["cli.startup_ms"] = "ms"
    units.update({f"failed.{kind}": "count" for kind in FAILURE_KINDS})
    units["tracing.overhead_ops_per_s"] = "1/s"
    return units


def load_package():
    """Import locc_forge from this checkout's src/, never from elsewhere."""
    if not (SRC / "locc_forge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no locc_forge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import locc_forge.cli  # noqa: F401

    if not Path(locc_forge.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: locc_forge imported from {locc_forge.cli.__file__}")
    return sys.modules["locc_forge.cli"]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "python": sys.version.split()[0]}


def run_command(cli, cmd) -> tuple[float, str | None, int]:
    """One closed-loop step: (latency s, failure kind or None, report bytes).

    Report bytes leave out the wall_time_s value, the one field of a
    report that changes from run to run."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cmd.argv)
    except Exception as exc:  # a raise out of main is a failed command, not a crash
        print(f"bench: {cmd.label} raised {exc!r}", file=sys.stderr)
        return perf_counter() - start, "other_error", len(out.getvalue())
    latency = perf_counter() - start
    text = out.getvalue()
    try:
        report = json.loads(text)
        nbytes = len(text) - len(json.dumps(report.get("wall_time_s", "")))
        return latency, judge(cmd, code, report), nbytes
    except Exception as exc:  # not JSON, or a field the oracle reads is missing
        print(f"bench: malformed report from {cmd.label}: {exc!r}", file=sys.stderr)
        return latency, "oracle_mismatch", len(text)


def judge(cmd, code: int, report: dict) -> str | None:
    """The failure kind of one command's exit code and report, or None."""
    if code == EXIT_IMPOSSIBLE and cmd.impossible:
        return None
    if code == 0 and not cmd.impossible:
        reason = cmd.check(report)
        if reason is not None:
            print(f"bench: oracle mismatch on {cmd.label}: {reason}", file=sys.stderr)
        return None if reason is None else "oracle_mismatch"
    if code == EXIT_INTERNAL:
        kind = report["error"]["type"] if "error" in report else "verification"
        return kind if kind in FAILURE_KINDS else "other_error"
    if code in (0, EXIT_IMPOSSIBLE):
        print(f"bench: exit {code} on {cmd.label} contradicts the oracle", file=sys.stderr)
        return "oracle_mismatch"
    return "other_error"


class HostSpeed:
    """A fixed round of reference work timed between commands: an argparse
    parser with subparsers, a JSON round trip, small numpy calls and a
    complex tensordot, the same kinds of work the CLI does.

    Commands are scaled in batches of about CALIBRATION_PERIOD_S: each
    latency is multiplied by REFERENCE_S over the mean of the rounds timed
    just before and just after its batch, which gives the time it would
    take on a host where one round takes REFERENCE_S.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.payload = {"lam": rng.dirichlet(np.ones(400)).tolist(), "dims": [8, 8, 8]}
        self.vec = rng.standard_normal(16)
        self.state = rng.standard_normal((8,) * 5) + 1j * rng.standard_normal((8,) * 5)
        self.op = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))

    def round(self) -> None:
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d"):
            p = sub.add_parser(name)
            p.add_argument("--in", dest="infile")
            p.add_argument("--tol", type=float, default=1e-9)
        parser.parse_args(["b", "--in", "x.json", "--tol", "0.1"])
        json.loads(json.dumps(self.payload, indent=2, sort_keys=True))
        for _ in range(30):
            self.np.cumsum(self.np.sort(self.vec))
        self.np.tensordot(self.op, self.state, axes=([1], [2]))

    def measure(self, rounds: int = 1) -> float:
        """Median time of `rounds` rounds; one between batches of commands,
        several around the seconds-long set-up steps."""
        times = []
        for _ in range(rounds):
            start = perf_counter()
            self.round()
            times.append(perf_counter() - start)
        return statistics.median(times)


class Tally:
    def __init__(self, commands: int):
        self.commands = commands
        self.latencies: list[float] = []  # scaled by host speed
        self.raw_latencies: list[float] = []
        self.failed_kind: dict[int, str] = {}  # command index -> kind of its first failure
        self.flaky: set[int] = set()  # indices whose outcome changed between passes
        self.mismatched = False  # some report disagreed with its oracle
        self.failed_labels: Counter[str] = Counter()
        self.report_bytes = 0
        self.passes = 0

    def record(self, index: int, label: str, failure: str | None) -> None:
        if failure is not None:
            self.failed_labels[f"{label}: {failure}"] += 1
            self.mismatched |= failure == "oracle_mismatch"
            if index not in self.failed_kind and self.passes > 0:
                self.flaky.add(index)
            self.failed_kind.setdefault(index, failure)
        elif index in self.failed_kind:
            self.flaky.add(index)

    @property
    def failed(self) -> int:
        return len(self.failed_kind)

    def failures(self, kind: str) -> int:
        return sum(1 for k in self.failed_kind.values() if k == kind)

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def closed_loop(cli, commands, seconds: float, speed: HostSpeed, on_pass=None) -> Tally:
    """Repeat the whole command list until `seconds` have passed (at least once)."""
    tally = Tally(len(commands))
    start = perf_counter()
    before = speed.measure()
    batch = []
    while tally.passes == 0 or perf_counter() - start < seconds:
        for i, cmd in enumerate(commands, 1):
            latency, failure, nbytes = run_command(cli, cmd)
            batch.append(latency)
            tally.report_bytes += nbytes
            tally.record(i, cmd.label, failure)
            if sum(batch) >= CALIBRATION_PERIOD_S or i == len(commands):
                after = speed.measure()
                tally.raw_latencies += batch
                tally.latencies += [x * REFERENCE_S * 2 / (before + after) for x in batch]
                before = after
                batch = []
        tally.passes += 1
        if on_pass is not None:
            on_pass(tally)
    return tally


def set_up(cli, name: str, seed: int, workdir: str, smoke: bool):
    """Generate and write the instances, then run the largest command once."""
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workloads.build(name, seed, workdir, smoke)
    run_command(cli, workload.warmup)
    return workload


def p90_ms(latencies: list[float]) -> tuple[float, float]:
    """(latency ms, percentile): the highest percentile up to the 90th that
    has at least 10 of the samples beyond it, interpolated as
    ``statistics.quantiles(method="inclusive")`` does.  From 100 samples on
    it is the 90th."""
    ordered = sorted(latencies)
    n = len(ordered)
    q = min(0.9, max(0.0, 1.0 - 10 / n))
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return (ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])) * 1e3, 100 * q


def startup_ms(path: str, repeats: int, speed: HostSpeed) -> float:
    """Median scaled wall time of a fresh `check` process, imports included.

    `python -m locc_forge.cli` would run nothing, so the entry point is
    called explicitly."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    argv = [sys.executable, "-c", "from locc_forge.cli import entry; entry()",
            "check", "--in", path]
    times = []
    before = speed.measure(SETUP_ROUNDS)
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        elapsed = perf_counter() - start
        after = speed.measure(SETUP_ROUNDS)
        times.append(elapsed * REFERENCE_S * 2 / (before + after))
        before = after
    return statistics.median(times) * 1e3


def traced_metrics(cli, workload, seconds: float, speed: HostSpeed,
                   smoke: bool) -> tuple[Tally, dict]:
    """Untraced loop, then traced passes; per-pass span times (median over
    passes, scaled by the pass's host speed) and counts (which repeat
    exactly from pass to pass)."""
    from tracing import Tracer

    untraced = closed_loop(cli, workload.commands, seconds / 2, speed)
    n_cmds = len(workload.commands)
    per_pass = []
    with Tracer() as tracer:
        def snapshot(tally):
            scale = sum(tally.latencies[-n_cmds:]) / sum(tally.raw_latencies[-n_cmds:])
            per_pass.append(pass_metrics(tracer, scale))
            tracer.reset()

        traced = closed_loop(cli, workload.commands, seconds / 2, speed, on_pass=snapshot)
    metrics = {}
    for key, value in per_pass[0].items():
        values = [p[key] for p in per_pass]
        metrics[key] = statistics.median(values) if key.endswith("_ms") else value
    metrics["cli.report_bytes"] = traced.report_bytes // traced.passes
    for kind in FAILURE_KINDS:
        metrics[f"failed.{kind}"] = traced.failures(kind)
    checks = [c for c in workload.commands if c.argv[0] == "check"] or workload.commands[:1]
    metrics["cli.startup_ms"] = startup_ms(checks[0].argv[2], 1 if smoke else STARTUP_REPEATS,
                                           speed)
    metrics["tracing.overhead_ops_per_s"] = untraced.ops_per_s() - traced.ops_per_s()
    print(f"bench: {n_cmds} commands per pass, {traced.passes} traced passes", file=sys.stderr)
    return traced, metrics


def pass_metrics(tracer, scale: float) -> dict:
    ms = 1e3 * scale
    metrics = {}
    for span in SPANS:
        totals = tracer.spans.get(span)
        metrics[f"{span}_ms"] = totals.incl * ms if totals else 0.0
        metrics[f"{span}_self_ms"] = totals.self * ms if totals else 0.0
        metrics[f"{span}_calls"] = totals.calls if totals else 0
    for layer in ("majorization", "protocol", "simulator", "probabilistic"):
        metrics[f"{layer}.self_ms"] = tracer.layer_self.get(layer, 0.0) * ms
    # the CLI's own share: main minus the COMMANDS entry it dispatches to
    metrics["cli.self_ms"] = metrics["cli.main_ms"] - metrics["cli.command_ms"]
    for name in COUNTERS:
        metrics[name] = tracer.counts.get(name, 0)
    candidates = tracer.counts.get("probabilistic.catalysis_candidates", 0)
    found = tracer.counts.get("probabilistic.catalysis_found", 0)
    metrics["probabilistic.catalysis_found_ratio"] = found / candidates if candidates else 0.0
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, measure and return the result object (without printing it)."""
    start = perf_counter()
    cli = load_package()
    import workloads

    import_s = perf_counter() - start
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {name!r}; one of {', '.join(workloads.WORKLOADS)}")
    print(f"bench: env {json.dumps(environment())}", file=sys.stderr)
    speed = HostSpeed()
    before = speed.measure(SETUP_ROUNDS)
    import_s *= REFERENCE_S / before
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        setup_times = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            start = perf_counter()
            workload = set_up(cli, name, seed, os.path.join(workdir, "inst"), smoke)
            elapsed = perf_counter() - start
            after = speed.measure(SETUP_ROUNDS)
            setup_times.append(elapsed * REFERENCE_S * 2 / (before + after))
            before = after
        print(f"bench: scaled set-up: imports {import_s:.3f} s, instances and warm-up "
              f"{', '.join(f'{t:.3f}' for t in setup_times)} s", file=sys.stderr)
        if trace:
            tally, metrics = traced_metrics(cli, workload, seconds, speed, smoke)
            units = per_layer_units()
        else:
            tally = closed_loop(cli, workload.commands, seconds, speed)
            raw = tally.raw_latencies
            tail_ms, percentile = p90_ms(tally.latencies)
            print(f"bench: unscaled ops_per_s {len(raw) / sum(raw):.4g}, latency p50 "
                  f"{statistics.median(raw) * 1e3:.4g} ms, p90 {p90_ms(raw)[0]:.4g} ms; "
                  f"latency_p90_ms is the {percentile:.4g}th percentile of {len(raw)} samples",
                  file=sys.stderr)
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "ops_per_s": tally.ops_per_s(),
                "latency_p50_ms": statistics.median(tally.latencies) * 1e3,
                "latency_p90_ms": tail_ms,
                "ok_frac": 1.0 - tally.failed / tally.commands,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"bench: {name} seed {seed}: {tally.commands} commands x {tally.passes} passes, "
          f"{tally.failed} failed {json.dumps(dict(sorted(tally.failed_labels.items())))}",
          file=sys.stderr)
    if tally.flaky:
        print(f"bench: {len(tally.flaky)} commands changed outcome between passes: "
              f"{sorted(workload.commands[i - 1].label for i in tally.flaky)}", file=sys.stderr)
    return {
        "correct": not tally.mismatched,
        "attempted": tally.commands,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.environ.update(BLAS_ENV)
    sys.exit(main())
