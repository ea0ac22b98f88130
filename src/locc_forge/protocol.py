"""Synthesis and validation of the measurement that realizes a
deterministic coefficient conversion lam -> mu.

A plan is three arrays: the outcome weights p_j, one Kraus diagonal per
outcome for party 0's measurement, diag_jk = sqrt(p_j mu[sigma_j^{-1}(k)] /
r_k) with r_k = sum_j p_j mu[sigma_j^{-1}(k)] the source that the plan
itself reconstructs, and one relabeling sigma_j^{-1} of the Schmidt levels
that every party applies once outcome j is broadcast.  Plans are
basis-free: they depend only on the two coefficient vectors and the
permutation mixture connecting them, and no party basis ever enters.
The diagonals follow from (lam, mu, weights, relabelings) by
``_kraus_diagonals``, so a plan travels as its weights and relabelings
alone.  The simulator runs a plan on each state's n diagonal Schmidt
amplitudes, where a measurement outcome is a pointwise product and a
relabeling a permutation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

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
    checks the shapes, that weights are finite and >= 0, that every perms
    row is a permutation of 0..n-1 and that diags are finite and >= 0, and
    makes the arrays read-only.  ``validation`` is the report of the check
    that ``build_plan`` ran on its plan, and None on any other plan.
    """

    weights: np.ndarray
    diags: np.ndarray
    perms: np.ndarray
    validation: ValidationReport | None = field(default=None, init=False)

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
        _check_weights(weights)
        if np.any(np.sort(perms, axis=1) != np.arange(shape[1])):
            raise ValueError(f"a perms row is not a permutation of 0..{shape[1] - 1}")
        if not np.all(np.isfinite(diags)) or np.any(diags < 0.0):
            raise ValueError("diagonal entries must be finite and >= 0")
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
        """Each outcome's weight and relabeling; the diagonals are left out
        because ``_kraus_diagonals`` rebuilds them from the coefficients."""
        return {
            "n": self.n,
            "outcomes": [
                {"p": p, "perm": perm}
                for p, perm in zip(self.weights.tolist(), self.perms.tolist())
            ],
        }

    @classmethod
    def from_json(
        cls, payload: dict, lam: ProbVector, mu: ProbVector
    ) -> "MeasurementPlan":
        """Read the weights and relabelings of ``to_json`` and rebuild the
        diagonals for lam -> mu.  An outcome with any other key is refused.
        The plan is not checked against the pair; ``validate`` shows a plan
        that does not fit it by its outcome weights."""
        n = int(payload["n"])
        if n != len(lam):
            raise ValueError(f"plan dimension {n} does not match instance rank {len(lam)}")
        rows = payload["outcomes"]
        for row in rows:
            extra = sorted(set(row) - {"p", "perm"})
            if extra:
                raise ValueError(f"outcome keys {extra} are not p or perm")
        shape = (len(rows), n)
        perms = np.array([o["perm"] for o in rows], dtype=np.intp)
        if rows and perms.shape != shape:
            raise ValueError(f"perm rows must have length n={n}")
        perms = perms.reshape(shape)
        weights = np.array([float(o["p"]) for o in rows])
        _check_weights(weights)
        if np.any(weights > 1.0):  # a larger p can overflow the diagonals
            raise ValueError("weights must be at most 1")
        # the constructor refuses every row that is not a permutation; until
        # then, clipping keeps the lookup into mu in range
        diags = _kraus_diagonals(lam, mu, weights, np.clip(perms, 0, n - 1))
        return cls(weights, diags, perms)


def _check_weights(weights: np.ndarray) -> None:
    """Weights finite and >= 0, as ``_kraus_diagonals`` needs them."""
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("weights must be finite and >= 0")


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


def _agree(lam: ProbVector, mu: ProbVector) -> bool:
    """The vectors agree within ZERO_TOL: the plan is the identity."""
    return bool(np.max(np.abs(lam.entries - mu.entries)) <= ZERO_TOL)


def _kraus_diagonals(
    lam: ProbVector, mu: ProbVector, weights: np.ndarray, perms: np.ndarray
) -> np.ndarray:
    """Row j is diag_jk = sqrt(weights[j] mu[perms[j, k]] / r_k), the
    Kraus diagonal of the outcome that relabels by perms[j] = sigma_j^{-1},
    where r_k = sum_j weights[j] mu[perms[j, k]] is the source that the
    plan reconstructs.

    Dividing by r_k rather than lam_k makes the measurement complete to
    rounding by construction, however small lam_k is; the distance from
    lam to r shows in the outcome weights that ``validate`` recomputes.
    Level k stays dark (diagonal 0) where lam_k = 0, since support
    shrinkage under majorization leaves no mass there, and where r_k = 0.
    A mu within ZERO_TOL of lam counts as lam itself, as in
    ``build_plan``, so the identity plan has diagonal 1 on lam's support.
    """
    if _agree(lam, mu):
        mu = lam
    mass = weights[:, None] * mu.entries[perms]
    recon = mass.sum(axis=0)
    live = (lam.entries > 0.0) & (recon > 0.0)
    diags = np.zeros_like(mass)
    diags[:, live] = np.sqrt(mass[:, live] / recon[live])
    return diags


def synthesize(
    lam: ProbVector, mu: ProbVector, mix: PermutationMixture
) -> MeasurementPlan:
    """The validated measurement of a permutation mixture: weights p_j,
    relabelings sigma_j^{-1} and the diagonals of ``_kraus_diagonals``."""
    n = len(lam)
    if len(mu) != n or mix.n != n:
        raise ValueError("dimension mismatch between vectors and mixture")
    weights = np.array([p for p, _ in mix.terms])
    images = np.array([sigma for _, sigma in mix.terms])
    inverses = np.argsort(images, axis=1)  # row j is sigma_j^{-1}
    # more than UNIT_TOL of mass on a dead level cannot come from a valid
    # decomposition
    dead = np.flatnonzero(lam.entries == 0.0)
    hits = np.argwhere(weights[:, None] * mu.entries[inverses[:, dead]] > UNIT_TOL)
    if hits.size:
        j, k = int(hits[0, 0]), int(dead[hits[0, 1]])
        raise InternalContradiction(
            f"term weight {mix.terms[j][0]} maps mass {mu[inverses[j, k]]} "
            f"onto dead level {k}"
        )
    plan = MeasurementPlan(weights, _kraus_diagonals(lam, mu, weights, inverses), inverses)
    return _check_plan(plan, lam)


def build_plan(
    lam: ProbVector, mu: ProbVector, cuts: Sequence[int] = ()
) -> MeasurementPlan:
    """Validated plan converting lam into mu: the one-outcome identity plan
    when the vectors agree within ZERO_TOL, else the measurement
    synthesized from ``mixture_for``, which starts from the prefixes
    ``cuts`` as tight.  Raises ConversionImpossible when lam is not
    majorized by mu."""
    if len(lam) != len(mu):
        raise ValueError("pad vectors to a common length first")
    if _agree(lam, mu):
        weights, perms = np.ones(1), np.arange(len(lam))[None, :]
        plan = MeasurementPlan(weights, _kraus_diagonals(lam, mu, weights, perms), perms)
        return _check_plan(plan, lam)
    return synthesize(lam, mu, mixture_for(lam, mu, cuts))


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


def _check_plan(plan: MeasurementPlan, lam: ProbVector) -> MeasurementPlan:
    """The plan, carrying its passed validation report."""
    report = validate(plan, lam)
    if not report.ok:
        raise InternalContradiction(
            "synthesized plan failed validation: "
            f"completeness {report.completeness_residual}, "
            f"weights {report.weight_residual}"
        )
    # set once, before the plan leaves this module
    object.__setattr__(plan, "validation", report)
    return plan
