"""Instance generation for the three benchmark workloads.

Every workload is a fixed list of CLI commands over instance files that
are generated from the seed and written to a work directory.  Each command
carries the oracle that judges its report.  Why each workload exists:

- plan-ladder gives decomposition (``mixture_for``) most of the work and
  dense simulation almost none.  Its plans at n = 24 and 32 (and about
  one in forty at n = 16) exit 5 at the time of writing; they stay in, so
  a fixed decomposition shows up as fewer failures.
- dense-verify gives ``apply_local`` on 2^9 to 2^18 amplitudes most of
  the work, so a batched branch engine shows there; decomposition is
  small (n <= 16).
- search-extract exercises catalysis, multicopy and GSD extraction, where
  JSON input of large dense states dominates and the simulator runs its
  SVD chain instead of branches.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import oracles

JP_LAM = [0.4, 0.4, 0.1, 0.1]
JP_MU = [0.5, 0.25, 0.25, 0.0]
JP_CATALYST = [0.6, 0.4]
REFUTABLE_LAM = [0.7, 0.2, 0.1]
REFUTABLE_MU = [0.6, 0.3, 0.1]
# T-transforms per coefficient when making a majorized pair.  Four per
# level mixes well enough that nearly every instance gets the same number
# of mixture terms (29 at n = 8, 121 at n = 16), so the seed changes the
# inputs but hardly the amount of work.
MIX_PER_LEVEL = 4
# Lifted off zero so that no random coefficient vanishes.
PROB_FLOOR = 1e-3


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[[dict], str | None]
    impossible: bool = False  # the oracle predicts exit 3


@dataclass
class Workload:
    name: str
    commands: list[Command]
    warmup: Command  # the largest command, run once during set-up


def random_probs(rng, n: int) -> list[float]:
    v = rng.dirichlet(np.ones(n))
    v = (v + PROB_FLOOR) / (1.0 + n * PROB_FLOOR)
    return oracles.desc(v / v.sum())


def t_chain(rng, mu: list[float], transforms: int) -> list[float]:
    """A vector majorized by mu: mu moved by random T-transforms."""
    v = np.array(mu)
    for _ in range(transforms):
        i, j = rng.choice(v.size, size=2, replace=False)
        t = rng.uniform(0.0, 1.0)
        v[i], v[j] = t * v[i] + (1 - t) * v[j], (1 - t) * v[i] + t * v[j]
    return oracles.desc(v / v.sum())


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_json(mat: np.ndarray) -> dict:
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def gsd_amplitudes(coeffs, bases) -> np.ndarray:
    """sum_k sqrt(c_k) (x)_i bases[i][:, k], flattened row-major."""
    amps = 0
    for k, c in enumerate(coeffs):
        term = bases[0][:, k]
        for basis in bases[1:]:
            term = np.multiply.outer(term, basis[:, k])
        amps = amps + np.sqrt(c) * term
    return amps.reshape(-1)


def w_like_amplitudes(rng, dims) -> np.ndarray:
    """A W state (one party excited) under random local unitaries: it has
    no generalized Schmidt form."""
    w = np.zeros(dims, dtype=complex)
    for party in range(len(dims)):
        idx = [0] * len(dims)
        idx[party] = 1
        w[tuple(idx)] = 1.0 / np.sqrt(len(dims))
    for party, d in enumerate(dims):
        w = np.moveaxis(np.tensordot(random_unitary(rng, d), w, axes=([1], [party])), 0, party)
    return w.reshape(-1)


class Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def __call__(self, payload: dict) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"inst{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": "1", **payload}, fh)
        return path


def pair_commands(write, lam, mu, commands, dims=None, bases=None) -> list[Command]:
    """Commands on the instance lam -> mu, each with its oracle."""
    payload = {"lam": lam, "mu": mu}
    if dims is not None:
        payload["dims"] = list(dims)
    if bases is not None:
        payload["bases"] = [matrix_json(b) for b in bases]
    path = write(payload)
    n = len(lam)
    shape = "" if dims is None else "x".join(map(str, dims)) + " "
    out = []
    for cmd in commands:
        if cmd == "check":
            check, impossible = oracles.check_verdict, False
        elif cmd == "plan":
            check, impossible = oracles.check_plan, not oracles.majorized(lam, mu)
        elif cmd == "simulate":
            check, impossible = oracles.check_simulate, not oracles.majorized(lam, mu)
        elif cmd == "pmax":
            check, impossible = oracles.check_pmax, False
        elif cmd == "conclusive":
            check, impossible = oracles.check_conclusive, oracles.brute_pmax(lam, mu) <= 1e-12
        else:
            raise ValueError(cmd)
        out.append(Command(f"{cmd} {shape}n={n}", [cmd, "--in", path],
                           partial(check, lam=lam, mu=mu), impossible))
    return out


def plan_ladder(rng, write, smoke: bool) -> Workload:
    # Instances per rung.  Forty average out the decomposition time, which
    # varies most at n >= 24, where it breaks off after a random number of
    # rounds.  Sixty on the coefficient rungs put the 90th latency
    # percentile inside the plan n=16 group, whose latency hardly varies,
    # rather than among the n >= 24 plans.
    dense_rungs = {4: 1} if smoke else {n: 40 for n in (4, 8, 16, 24, 32)}
    coeff_rungs = {256: 1} if smoke else {256: 60, 1024: 60}
    commands = []
    for n, count in dense_rungs.items():
        for _ in range(count):
            commands += pair_commands(write, random_probs(rng, n), random_probs(rng, n), ["check"])
            mu = random_probs(rng, n)
            lam = t_chain(rng, mu, MIX_PER_LEVEL * n)
            commands += pair_commands(write, lam, mu, ["plan"])
            # the reverse direction is not deterministic: it needs the waypoint
            commands += pair_commands(write, mu, lam, ["conclusive", "pmax"], dims=(n, n))
    for n, count in coeff_rungs.items():
        for _ in range(count):
            lam, mu = random_probs(rng, n), random_probs(rng, n)
            commands += pair_commands(write, lam, mu, ["check", "pmax"])
    largest = [c for c in commands if c.argv[0] == "plan"][-1]
    return Workload("plan-ladder", commands, largest)


def dense_verify(rng, write, smoke: bool) -> Workload:
    # (dims, rank, instances per pass); the 8^6 state has 2^18 amplitudes.
    # The 8^6 pairs take most of a pass, and the conclusive one runs one to
    # three branches depending on the instance, so there are two of them to
    # average over.  Above the six 16^3 simulations sit only the four 8^6
    # commands, so the 90th latency percentile falls inside the 16^3 group.
    shapes = [((8, 8, 8), 8, 2)] if smoke else [
        ((8, 8, 8), 8, 12), ((16, 16, 16), 16, 6), ((4,) * 6, 4, 12), ((8,) * 6, 8, 2)]
    commands = []
    for dims, n, count in shapes:
        for _ in range(count):
            mu = random_probs(rng, n)
            lam = t_chain(rng, mu, MIX_PER_LEVEL * n)
            bases = [random_unitary(rng, d) for d in dims]
            commands += pair_commands(write, lam, mu, ["simulate"], dims, bases)
            commands += pair_commands(write, mu, lam, ["conclusive"], dims, bases)
    largest = [c for c in commands if c.argv[0] == "simulate"][-1]
    return Workload("dense-verify", commands, largest)


def extract_command(write, dims, amps, coeffs) -> Command:
    path = write({"state": {"dims": list(dims), "re": amps.real.tolist(),
                            "im": amps.imag.tolist()}})
    shape = "x".join(map(str, dims))
    label = f"extract-gsd {shape} " + ("gsd" if coeffs is not None else "w")
    return Command(label, ["extract-gsd", "--in", path],
                   partial(oracles.check_extract, coeffs=coeffs))


def search_extract(rng, write, smoke: bool) -> Workload:
    commands = [Command("catalyst jp", ["catalyst", "--in", write({"lam": JP_LAM, "mu": JP_MU})],
                        partial(oracles.check_catalyst, lam=JP_LAM, mu=JP_MU,
                                known_catalyst=JP_CATALYST))]
    if not smoke:
        path = write({"lam": REFUTABLE_LAM, "mu": REFUTABLE_MU})
        commands.append(Command("catalyst refutable dmax4", ["catalyst", "--in", path, "--dmax", "4"],
                                partial(oracles.check_catalyst, lam=REFUTABLE_LAM, mu=REFUTABLE_MU)))
    copies = 4 if smoke else 11
    for _ in range(1 if smoke else 4):
        lam, mu = random_probs(rng, 3), random_probs(rng, 3)
        path = write({"lam": lam, "mu": mu})
        commands.append(Command(f"multicopy n=3 k={copies}",
                                ["multicopy", "--in", path, "--copies", str(copies)],
                                partial(oracles.check_multicopy, lam=lam, mu=mu)))
    shapes = [((8, 8, 8), 2)] if smoke else [((8, 8, 8), 6), ((4,) * 6, 5), ((8,) * 6, 1)]
    for dims, count in shapes:
        for _ in range(count):
            n = min(dims)
            coeffs = random_probs(rng, n)
            bases = [random_unitary(rng, d) for d in dims]
            commands.append(extract_command(write, dims, gsd_amplitudes(coeffs, bases), coeffs))
    # Two W-like 8^6 states put the 90th latency percentile inside their
    # group (the 8^6 GSD state is the slowest command) instead of on the
    # edge between two kinds of command.
    w_dims = (8, 8, 8) if smoke else (8,) * 6
    for _ in range(1 if smoke else 2):
        commands.append(extract_command(write, w_dims, w_like_amplitudes(rng, w_dims), None))
    largest = [c for c in commands if c.label.endswith(" gsd")][-1]
    return Workload("search-extract", commands, largest)


WORKLOADS = {
    "plan-ladder": plan_ladder,
    "dense-verify": dense_verify,
    "search-extract": search_extract,
}


def build(name: str, seed: int, workdir: str, smoke: bool) -> Workload:
    """Generate the named workload's instance files under workdir."""
    rng = np.random.default_rng(seed)
    return WORKLOADS[name](rng, Writer(workdir), smoke)
