"""Synthesis and validation of the measurement that realizes a
deterministic coefficient conversion lam -> mu.

A plan is three arrays: the outcome weights p_j, one Kraus diagonal per
outcome for party 0's measurement, diag_jk = sqrt(p_j mu[sigma_j^{-1}(k)] /
lam_k), and one relabeling sigma_j^{-1} of the Schmidt levels that every
party applies once outcome j is broadcast.  Plans are basis-free: they
depend only on the two coefficient vectors and the permutation mixture
connecting them, and no party basis ever enters.  The simulator runs a
plan on each state's n diagonal Schmidt amplitudes, where a measurement
outcome is a pointwise product and a relabeling a permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalContradiction
from .majorization import (
    PermutationMixture,
    PLAN_TOL,
    ProbVector,
    UNIT_TOL,
    ZERO_TOL,
    mixture_for,
)


@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """Complete measurement {M_j} with one relabeling per outcome, as arrays.

    weights (J,) holds the outcome probabilities p_j.  Row j of diags (J, n)
    is the Kraus diagonal of M_j = sum_k diags[j, k] |k><k| in the source
    Schmidt basis.  Row j of perms (J, n) is sigma_j^{-1}, the relabeling
    part of U_j: it moves level k to level perms[j, k].  The constructor
    checks the shapes, that weights are finite, that diags are finite and
    >= 0 and that every perms row is a permutation of 0..n-1, and makes
    the arrays read-only.
    """

    weights: np.ndarray
    diags: np.ndarray
    perms: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        diags = np.asarray(self.diags, dtype=float)
        perms = np.asarray(self.perms, dtype=np.intp)
        shape = diags.shape
        if diags.ndim != 2 or perms.shape != shape or weights.shape != shape[:1]:
            raise ValueError(
                f"weights {weights.shape}, diags {shape} and perms {perms.shape} "
                "must be (J,), (J, n) and (J, n)"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if not np.all(np.isfinite(diags)) or np.any(diags < 0.0):
            raise ValueError("diagonal entries must be finite and >= 0")
        n = shape[1]
        if np.any(np.sort(perms, axis=1) != np.arange(n)):
            raise ValueError(f"a perms row is not a permutation of 0..{n - 1}")
        for name, arr in (("weights", weights), ("diags", diags), ("perms", perms)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.diags.shape[1]

    def completeness_residual(self, support: np.ndarray | None = None) -> float:
        """max_k |sum_j M_j^dag M_j - 1| over the given support indices."""
        sums = np.sum(self.diags**2, axis=0)
        if support is None:
            support = np.ones(self.n, dtype=bool)
        if not np.any(support):
            return 0.0
        return float(np.max(np.abs(sums[support] - 1.0)))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "outcomes": [
                {"p": p, "diag": diag, "perm": perm}
                for p, diag, perm in zip(
                    self.weights.tolist(), self.diags.tolist(), self.perms.tolist()
                )
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MeasurementPlan":
        n = int(payload["n"])
        rows = payload["outcomes"]
        shape = (len(rows), n)
        diags = np.array([o["diag"] for o in rows], dtype=float)
        perms = np.array([o["perm"] for o in rows], dtype=np.intp)
        if rows and (diags.shape != shape or perms.shape != shape):
            raise ValueError(f"diag and perm row lengths must both equal n={n}")
        weights = np.array([float(o["p"]) for o in rows])
        return cls(weights, diags.reshape(shape), perms.reshape(shape))


@dataclass(frozen=True)
class ValidationReport:
    """Numeric audit of a plan against a source coefficient vector."""

    completeness_residual: float
    outcome_probabilities: tuple[float, ...]
    weight_residual: float
    probability_sum: float
    completeness_ok: bool
    weights_ok: bool

    @property
    def ok(self) -> bool:
        return self.completeness_ok and self.weights_ok

    def to_json(self) -> dict:
        return {
            "completeness_residual": self.completeness_residual,
            "outcome_probabilities": list(self.outcome_probabilities),
            "weight_residual": self.weight_residual,
            "probability_sum": self.probability_sum,
            "completeness_ok": self.completeness_ok,
            "weights_ok": self.weights_ok,
            "completeness_tol": PLAN_TOL,
            "weight_tol": PLAN_TOL,
            "ok": self.ok,
        }


def synthesize(
    lam: ProbVector, mu: ProbVector, mix: PermutationMixture
) -> MeasurementPlan:
    """Measurement operators diag_k = sqrt(p_j mu[sigma_j^{-1}(k)] / lam_k).

    The 0/0 -> 0 convention applies where lam_k = 0: support shrinkage
    under majorization forces the numerator to vanish there too, which is
    what keeps zero-padded ranks legal.
    """
    n = len(lam)
    if len(mu) != n or mix.n != n:
        raise ValueError("dimension mismatch between vectors and mixture")
    weights = np.array([p for p, _ in mix.terms])
    images = np.array([sigma for _, sigma in mix.terms])
    inverses = np.argsort(images, axis=1)  # row j is sigma_j^{-1}
    mass = weights[:, None] * mu.entries[inverses]
    live = lam.entries > 0.0
    # more than UNIT_TOL of mass on a dead level cannot come from a valid
    # decomposition
    dead = np.argwhere((mass > UNIT_TOL) & ~live)
    if dead.size:
        j, k = (int(i) for i in dead[0])
        raise InternalContradiction(
            f"term weight {mix.terms[j][0]} maps mass {mu[inverses[j, k]]} "
            f"onto dead level {k}"
        )
    diags = np.zeros_like(mass)
    diags[:, live] = np.sqrt(mass[:, live] / lam.entries[live])
    plan = MeasurementPlan(weights, diags, inverses)
    _check_plan(plan, lam)
    return plan


def build_plan(lam: ProbVector, mu: ProbVector) -> MeasurementPlan:
    """Plan converting lam into mu: the one-outcome identity plan when the
    vectors agree within ZERO_TOL, else the measurement synthesized from
    ``mixture_for``.  Raises ConversionImpossible when lam is not majorized
    by mu."""
    if len(lam) != len(mu):
        raise ValueError("pad vectors to a common length first")
    if np.max(np.abs(lam.entries - mu.entries)) <= ZERO_TOL:
        n = len(lam)
        return MeasurementPlan(np.ones(1), np.ones((1, n)), np.arange(n)[None, :])
    return synthesize(lam, mu, mixture_for(lam, mu))


def validate(plan: MeasurementPlan, lam: ProbVector) -> ValidationReport:
    """Recompute completeness and outcome probabilities; never raises."""
    support = lam.entries > 0.0
    completeness = plan.completeness_residual(support)
    probs = np.sum(lam.entries * plan.diags**2, axis=1)
    weight_residual = np.max(np.abs(probs - plan.weights), initial=0.0)
    return ValidationReport(
        completeness_residual=float(completeness),
        outcome_probabilities=tuple(probs.tolist()),
        weight_residual=float(weight_residual),
        probability_sum=float(sum(probs)),
        completeness_ok=bool(completeness <= PLAN_TOL),
        weights_ok=bool(weight_residual <= PLAN_TOL),
    )


def _check_plan(plan: MeasurementPlan, lam: ProbVector) -> None:
    report = validate(plan, lam)
    if not report.ok:
        raise InternalContradiction(
            "synthesized plan failed validation: "
            f"completeness {report.completeness_residual}, "
            f"weights {report.weight_residual}"
        )
