"""The measurement that realizes a deterministic coefficient conversion
lam -> mu, and its check table.

A plan is three arrays: the outcome weights p_j, one relabeling
sigma_j^{-1} of the Schmidt levels per outcome, and one Kraus diagonal per
outcome for party 0's measurement.  The weights and relabelings are the
permutation mixture lam = sum_j p_j mu[sigma_j^{-1}] as ``mixture_for``
writes it, row for row: level k of outcome j's target holds
mu[perms[j, k]], so every party applies perms[j] once outcome j is
broadcast.  The diagonals follow from (mu, weights, relabelings) alone by
``_kraus_diagonals``, diag_jk = sqrt(p_j mu[sigma_j^{-1}(k)] / r_k) with
r_k = sum_j p_j mu[sigma_j^{-1}(k)] the source that the plan itself
reconstructs, and sqrt(p_j) where r_k = 0, so every plan is complete and
travels as its weights and relabelings.  Every plan, built by
``build_plan``, read by ``MeasurementPlan.from_json`` or made for the
conclusive settle step (whose outcomes land on different vectors, so
each outcome's row of coefficients takes the place of mu[sigma_j^{-1}]),
is realized by ``_realize``: one reconstruction r gives its diagonals and
its check table (``majorization.Check`` records by name), where lam first
enters: completeness, outcome weights, and the reconstruction max_k
|lam_k - r_k|.
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
    to_float,
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
    makes the arrays read-only; it is the one permutation check of every
    plan.  ``checks`` is the check table that ``_realize`` made for the
    pair the plan was realized for, and None on a plan made directly.
    """

    weights: np.ndarray
    diags: np.ndarray
    perms: np.ndarray
    checks: dict[str, Check] | None = field(default=None, init=False)

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
        _check_nonnegative(weights, "weights")
        if not _permutation_rows(perms):
            raise ValueError(f"a perms row is not a permutation of 0..{shape[1] - 1}")
        _check_nonnegative(diags, "diagonal entries")
        for name, arr in (("weights", weights), ("diags", diags), ("perms", perms)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.diags.shape[1]

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
        """Realize the weights and relabelings of ``to_json`` for lam -> mu,
        read by ``to_float`` and ``to_int``; an outcome with any other key
        is refused.  A plan that does not fit the pair shows it in its
        ``checks``, by its reconstruction and outcome weights."""
        n = to_int(payload["n"])
        if n != len(lam):
            raise ValueError(f"plan dimension {n} does not match instance rank {len(lam)}")
        rows = payload["outcomes"]
        for row in rows:
            extra = sorted(set(row) - {"p", "perm"})
            if extra:
                raise ValueError(f"outcome keys {extra} are not p or perm")
        perms = np.array([_read_perm(o["perm"], n) for o in rows], dtype=np.intp)
        weights = np.array([to_float(o["p"]) for o in rows])
        _check_nonnegative(weights, "weights")
        if np.any(weights > 1.0):  # a larger p can overflow the diagonals
            raise ValueError("weights must be at most 1")
        perms = perms.reshape(len(rows), n)
        # an entry out of range, clipped here, is refused by the plan constructor
        return _realize(lam, weights, perms, np.take(mu.entries, perms, mode="clip"))


def _permutation_rows(perms: np.ndarray) -> bool:
    """Whether every row of perms (J, n) is a permutation of 0..n-1: the
    entries in range, then one boolean scatter of row j onto slots j n..j n
    + n - 1, O(J n) with no sort."""
    rows, n = perms.shape
    # read as unsigned, a negative entry, which the scatter would wrap, is huge
    if perms.size and perms.view(np.uintp).max() >= n:
        return False
    seen = np.zeros(rows * n, dtype=bool)
    seen[(perms + n * np.arange(rows)[:, None]).ravel()] = True
    return bool(seen.all())


def _read_perm(row, n: int) -> list[int]:
    """One outcome's ``perm``: n entries, each read by ``to_int``."""
    if len(row) != n:
        raise ValueError(f"perm rows must have length n={n}")
    return [to_int(v) for v in row]


def _check_nonnegative(arr: np.ndarray, what: str) -> None:
    """Every entry finite and >= 0, as ``_kraus_diagonals`` needs weights;
    a NaN fails both bounds."""
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < np.inf):
        raise ValueError(f"{what} must be finite and >= 0")


def _kraus_diagonals(weights: np.ndarray, mass: np.ndarray, recon: np.ndarray) -> np.ndarray:
    """Row j is the Kraus diagonal of outcome j, diag_jk = sqrt(mass[j, k] /
    r_k) with r_k = sum_j mass[j, k], and sqrt(p_j) where r_k = 0.  A function
    of the plan alone, so complete to rounding on every level, however
    small lam_k is: how far r is from lam is the ``reconstruction`` check's
    to tell, and a level the plan leaves empty costs its lam_k there."""
    share = weights[:, None].repeat(mass.shape[1], axis=1)
    np.divide(mass, recon, out=share, where=recon > 0.0)
    return np.sqrt(share)


def _realize(
    lam: ProbVector, weights: np.ndarray, perms: np.ndarray, targets: np.ndarray,
    stage: str | None = None,
) -> MeasurementPlan:
    """The plan with these weights and relabelings for the source lam, where
    row j of targets (J, n) holds the coefficients that outcome j lands on
    at each source level, mu[perms[j]] for a plan lam -> mu.  Its diagonals
    and check table come from one reconstruction r_k = sum_j p_j
    targets[j, k]: ``completeness`` and outcome ``weights`` to PLAN_TOL,
    ``reconstruction`` max_k |lam_k - r_k| to UNIT_TOL; lam enters the
    table only.  Given a ``stage`` name, a failing check raises
    InternalContradiction naming the stage, every check's value and where
    each failing one failed: the level and its sum_j diag_jk^2, the outcome
    with its probability on lam and p_j, or the level with lam_k and r_k."""
    mass = weights[:, None] * targets
    recon = mass.sum(axis=0)
    plan = MeasurementPlan(weights, _kraus_diagonals(weights, mass, recon), perms)
    squares = plan.diags**2
    cover = squares.sum(axis=0)
    probs = (lam.entries * squares).sum(axis=1)
    gaps = {  # each check's residual per level or outcome, and its tolerance
        "completeness": (np.where(lam.entries > 0.0, np.abs(cover - 1.0), 0.0), PLAN_TOL),
        "weights": (np.abs(probs - plan.weights), PLAN_TOL),
        "reconstruction": (np.abs(recon - lam.entries), UNIT_TOL),
    }
    checks = {name: Check.within(gap.max(initial=0.0), tol)
              for name, (gap, tol) in gaps.items()}
    # set once, before the plan leaves this module
    object.__setattr__(plan, "checks", checks)
    if stage is None or all(check.ok for check in checks.values()):
        return plan
    where = {
        "completeness": lambda k: f"level {k} (sum_j diag_jk^2 {cover[k]})",
        "weights": lambda j: f"outcome {j} (probability {probs[j]}, p_j {weights[j]})",
        "reconstruction": lambda k: f"level {k} (lam_k {lam[k]}, r_k {recon[k]})",
    }
    raise InternalContradiction(f"{stage} failed validation: " + ", ".join(
        f"{name} {check.value}"
        + ("" if check.ok else f" at {where[name](int(np.argmax(gaps[name][0])))}")
        for name, check in checks.items()))


def build_plan(
    lam: ProbVector, mu: ProbVector, cuts: Sequence[int] = ()
) -> MeasurementPlan:
    """Plan converting lam into mu, realized with a passed check table: the
    one-outcome identity plan when the vectors agree within ZERO_TOL, else
    the weights and relabelings of ``mixture_for``, which starts from the
    prefixes ``cuts`` as tight.  Raises ConversionImpossible when lam is
    not majorized by mu, and InternalContradiction when a check fails."""
    if len(lam) != len(mu):
        raise ValueError("pad vectors to a common length first")
    # the walk would make outcomes of rounding weight here, each checked for its fidelity
    if np.max(np.abs(lam.entries - mu.entries)) <= ZERO_TOL:
        weights, perms = np.ones(1), np.arange(len(lam))[None, :]
    else:
        mix = mixture_for(lam, mu, cuts)
        weights, perms = mix.weights, mix.terms
    return _realize(lam, weights, perms, mu.entries[perms], "built plan")
