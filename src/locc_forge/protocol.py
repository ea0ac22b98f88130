"""The measurement that realizes a deterministic coefficient conversion
lam -> mu, and its validation.

A plan is three arrays: the outcome weights p_j, one relabeling
sigma_j^{-1} of the Schmidt levels per outcome, and one Kraus diagonal per
outcome for party 0's measurement.  The weights and relabelings are the
permutation mixture lam = sum_j p_j mu[sigma_j^{-1}] as ``mixture_for``
writes it, row for row: level k of outcome j's target holds
mu[perms[j, k]], so every party applies perms[j] once outcome j is
broadcast.  The diagonals follow from (lam, mu, weights, relabelings) by
``_kraus_diagonals``, diag_jk = sqrt(p_j mu[sigma_j^{-1}(k)] / r_k) with
r_k = sum_j p_j mu[sigma_j^{-1}(k)] the source that the plan itself
reconstructs, so a plan travels as its weights and relabelings alone.
``validate`` checks every plan, built or read, the same way, and returns
one check table (``majorization.Check`` records by name): completeness,
outcome weights, and the reconstruction max_k |lam_k - r_k|.
Plans are basis-free: no party basis ever enters.  The simulator runs a
plan on each state's n diagonal Schmidt amplitudes, where a measurement
outcome is a pointwise product and a relabeling a permutation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalContradiction
from .majorization import (
    PLAN_TOL,
    Check,
    ProbVector,
    UNIT_TOL,
    ZERO_TOL,
    mixture_for,
    to_int,
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
    makes the arrays read-only.  ``validation`` is the check table of the
    ``validate`` run that ``build_plan`` made on its plan, and None on any
    other plan.
    """

    weights: np.ndarray
    diags: np.ndarray
    perms: np.ndarray
    validation: dict[str, Check] | None = field(default=None, init=False)

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
        that does not fit it by its reconstruction and outcome weights."""
        n = to_int(payload["n"])
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
    rounding by construction, however small lam_k is; ``validate`` checks
    the distance from lam to r, which also shows in the outcome weights.
    Level k stays dark (diagonal 0) where lam_k = 0, since support
    shrinkage under majorization leaves no mass there, and where r_k = 0.
    A mu within ZERO_TOL of lam counts as lam itself, as in
    ``build_plan``, so the identity plan has diagonal 1 on lam's support.
    """
    if _agree(lam, mu):
        mu = lam
    mass, recon = _reconstruction(weights, perms, mu)
    live = (lam.entries > 0.0) & (recon > 0.0)
    diags = np.zeros_like(mass)
    diags[:, live] = np.sqrt(mass[:, live] / recon[live])
    return diags


def build_plan(
    lam: ProbVector, mu: ProbVector, cuts: Sequence[int] = ()
) -> MeasurementPlan:
    """Validated plan converting lam into mu: the one-outcome identity plan
    when the vectors agree within ZERO_TOL, else the weights and
    relabelings of ``mixture_for``, which starts from the prefixes ``cuts``
    as tight.  The plan carries its passed ``validate`` table.  Raises
    ConversionImpossible when lam is not majorized by mu, and
    InternalContradiction when the plan fails validation."""
    if len(lam) != len(mu):
        raise ValueError("pad vectors to a common length first")
    if _agree(lam, mu):
        weights, perms = np.ones(1), np.arange(len(lam))[None, :]
    else:
        mix = mixture_for(lam, mu, cuts)
        weights, perms = mix.weights, mix.terms
    plan = MeasurementPlan(weights, _kraus_diagonals(lam, mu, weights, perms), perms)
    checks = validate(plan, lam, mu)
    if not all(check.ok for check in checks.values()):
        _, recon = _reconstruction(weights, perms, mu)
        k = int(np.argmax(np.abs(recon - lam.entries)))
        raise InternalContradiction(
            "built plan failed validation: "
            + ", ".join(f"{name} {check.value}" for name, check in checks.items())
            + f" at level {k} (lam_k {lam[k]}, r_k {recon[k]})"
        )
    # set once, before the plan leaves this module
    object.__setattr__(plan, "validation", checks)
    return plan


def _reconstruction(
    weights: np.ndarray, perms: np.ndarray, mu: ProbVector
) -> tuple[np.ndarray, np.ndarray]:
    """mass[j, k] = weights[j] mu[perms[j, k]], and r_k = sum_j mass[j, k],
    the source vector that the plan rebuilds."""
    mass = weights[:, None] * mu.entries[perms]
    return mass, mass.sum(axis=0)


def validate(
    plan: MeasurementPlan, lam: ProbVector, mu: ProbVector
) -> dict[str, Check]:
    """The plan's check table; never raises.  ``completeness`` and the
    outcome ``weights`` are checked to PLAN_TOL, the ``reconstruction``
    max_k |lam_k - r_k| to UNIT_TOL.  Mass on a level with lam_k = 0 shows
    in the reconstruction."""
    probs = np.sum(lam.entries * plan.diags**2, axis=1)
    _, recon = _reconstruction(plan.weights, plan.perms, mu)
    return {
        "completeness": Check.within(
            plan.completeness_residual(lam.entries > 0.0), PLAN_TOL
        ),
        "weights": Check.within(
            np.max(np.abs(probs - plan.weights), initial=0.0), PLAN_TOL
        ),
        "reconstruction": Check.within(np.max(np.abs(recon - lam.entries)), UNIT_TOL),
    }
