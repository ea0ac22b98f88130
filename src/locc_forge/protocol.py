"""Synthesis of the one-party measurement plus conditional relabeling
unitaries that realize a deterministic coefficient conversion.

Plans are basis-free: they depend only on the two coefficient vectors and
the permutation mixture connecting them.  Party bases enter later, when the
simulator materializes the operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalContradiction
from .majorization import (
    Permutation,
    PermutationMixture,
    ProbVector,
    ZERO_TOL,
    mixture_for,
)

COMPLETENESS_TOL = 1e-10
WEIGHT_TOL = 1e-10
# A mixture term putting more than this much weight on a dead source level
# cannot come from a valid decomposition.
CONTRADICTION_TOL = 1e-9


@dataclass(frozen=True)
class DiagonalOperator:
    """Operator sum_k diag[k] |k><k| in the source Schmidt basis."""

    diag: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.diag, dtype=float)
        if arr.ndim != 1:
            raise ValueError("diagonal must be a vector")
        if not np.all(np.isfinite(arr)) or np.min(arr) < 0.0:
            raise ValueError("diagonal entries must be finite and >= 0")
        arr.setflags(write=False)
        object.__setattr__(self, "diag", arr)

    @property
    def n(self) -> int:
        return self.diag.size


@dataclass(frozen=True)
class PlanOutcome:
    weight: float
    operator: DiagonalOperator
    unitary_perm: Permutation  # sigma_j^{-1}: relabeling part of U_j


@dataclass(frozen=True)
class MeasurementPlan:
    """Complete measurement {M_j} with one relabeling permutation per outcome."""

    outcomes: tuple[PlanOutcome, ...]
    n: int
    num_parties: int | None = None

    def completeness_residual(self, support: np.ndarray | None = None) -> float:
        """max_k |sum_j M_j^dag M_j - 1| over the given support indices."""
        sums = np.zeros(self.n)
        for out in self.outcomes:
            sums += out.operator.diag**2
        if support is None:
            support = np.ones(self.n, dtype=bool)
        if not np.any(support):
            return 0.0
        return float(np.max(np.abs(sums[support] - 1.0)))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "outcomes": [
                {
                    "p": float(out.weight),
                    "diag": [float(x) for x in out.operator.diag],
                    "perm": list(out.unitary_perm.image),
                }
                for out in self.outcomes
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MeasurementPlan":
        n = int(payload["n"])
        outcomes = tuple(
            PlanOutcome(
                weight=float(o["p"]),
                operator=DiagonalOperator(np.asarray(o["diag"], dtype=float)),
                unitary_perm=Permutation(tuple(int(i) for i in o["perm"])),
            )
            for o in payload["outcomes"]
        )
        return cls(outcomes=outcomes, n=n)


@dataclass(frozen=True)
class ValidationReport:
    """Numeric audit of a plan against a source coefficient vector."""

    completeness_residual: float
    outcome_probabilities: tuple[float, ...]
    weight_residual: float
    probability_sum: float
    completeness_ok: bool
    weights_ok: bool
    completeness_tol: float = COMPLETENESS_TOL
    weight_tol: float = WEIGHT_TOL

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
            "completeness_tol": self.completeness_tol,
            "weight_tol": self.weight_tol,
            "ok": self.ok,
        }


def _trivial_plan(n: int) -> MeasurementPlan:
    op = DiagonalOperator(np.ones(n))
    return MeasurementPlan(
        outcomes=(PlanOutcome(1.0, op, Permutation.identity(n)),), n=n
    )


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
    images = np.array([sigma.image for _, sigma in mix.terms])
    inverses = np.argsort(images, axis=1)  # row j is sigma_j^{-1}
    mass = weights[:, None] * mu.entries[inverses]
    live = lam.entries > 0.0
    dead = np.argwhere((mass > CONTRADICTION_TOL) & ~live)
    if dead.size:
        j, k = (int(i) for i in dead[0])
        raise InternalContradiction(
            f"term weight {mix.terms[j][0]} maps mass {mu[inverses[j, k]]} "
            f"onto dead level {k}"
        )
    diags = np.zeros_like(mass)
    diags[:, live] = np.sqrt(mass[:, live] / lam.entries[live])
    outcomes = [
        PlanOutcome(p, DiagonalOperator(diag), Permutation(tuple(inv)))
        for (p, _), diag, inv in zip(mix.terms, diags, inverses.tolist())
    ]
    plan = MeasurementPlan(outcomes=tuple(outcomes), n=n)
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
        return _trivial_plan(len(lam))
    return synthesize(lam, mu, mixture_for(lam, mu))


def validate(plan: MeasurementPlan, lam: ProbVector) -> ValidationReport:
    """Recompute completeness and outcome probabilities; never raises."""
    support = lam.entries > 0.0
    completeness = plan.completeness_residual(support)
    probs = tuple(
        float(np.sum(lam.entries * out.operator.diag**2)) for out in plan.outcomes
    )
    weight_residual = max(
        (abs(p - out.weight) for p, out in zip(probs, plan.outcomes)), default=0.0
    )
    return ValidationReport(
        completeness_residual=float(completeness),
        outcome_probabilities=probs,
        weight_residual=float(weight_residual),
        probability_sum=float(sum(probs)),
        completeness_ok=bool(completeness <= COMPLETENESS_TOL),
        weights_ok=bool(weight_residual <= WEIGHT_TOL),
    )


def _check_plan(plan: MeasurementPlan, lam: ProbVector) -> None:
    report = validate(plan, lam)
    if not report.ok:
        raise InternalContradiction(
            "synthesized plan failed validation: "
            f"completeness {report.completeness_residual}, "
            f"weights {report.weight_residual}"
        )
