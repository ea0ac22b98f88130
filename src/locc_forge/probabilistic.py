"""Optimal conclusive conversion, tensor-power majorization, and catalyst
search.

The conclusive route goes through a deterministic waypoint: the source is
first converted with certainty to an intermediate vector gamma, then a
single two-outcome measurement either lands on the target (success) or on
a leftover state (failure).  gamma is built scale-by-scale from the right:
each pass finds the worst tail ratio of the still-unassigned prefix and
pins that tail segment to a rescaled copy of the target.  The resulting
vector is sorted, majorizes the source, and dominates p_max times the
target entrywise, which is exactly what the success operator needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ConstructionInvalid, ConversionImpossible, ZeroBranch
from .majorization import (
    ProbVector,
    ZERO_TOL,
    first_violation,
    is_majorized,
)
from .protocol import COMPLETENESS_TOL, DiagonalOperator, MeasurementPlan, build_plan
from .simulator import (
    FIDELITY_TOL,
    ZERO_BRANCH_TOL,
    AppliedOp,
    BranchRecord,
    GeneralizedSchmidtState,
    Transcript,
    _branches,
    _coords,
    _fidelity,
    _measure,
    _protocol_transcript,
)

MAX_TENSOR_ENTRIES = 2**20
RATIO_TIE_TOL = 1e-12
DOMINANCE_TOL = 1e-12
SUCCESS_PROB_TOL = 1e-9


def _tails(v: ProbVector) -> np.ndarray:
    """tails[l] = sum of v[l:]; tails[n] = 0."""
    out = np.zeros(len(v) + 1)
    out[:-1] = np.cumsum(v.entries[::-1])[::-1]
    return out


def _min_tail_ratio(
    e_lam: np.ndarray, e_mu: np.ndarray, end: int
) -> tuple[float, int]:
    """Minimum of (e_lam[l]-e_lam[end])/(e_mu[l]-e_mu[end]) over l < end.

    Zero denominators are skipped; a zero numerator over a positive
    denominator counts as ratio 0.  Among ties (within RATIO_TIE_TOL) the
    largest l wins.
    """
    best = np.inf
    best_l = 0
    for l in range(end):
        den = e_mu[l] - e_mu[end]
        num = e_lam[l] - e_lam[end]
        if den <= ZERO_TOL:
            continue
        ratio = 0.0 if num <= ZERO_TOL else num / den
        if ratio < best - RATIO_TIE_TOL:
            best = ratio
            best_l = l
        elif ratio <= best + RATIO_TIE_TOL:
            best_l = max(best_l, l)
    if not np.isfinite(best):
        raise ConstructionInvalid("no admissible tail ratio")
    return float(best), best_l


def pmax(lam: ProbVector, mu: ProbVector) -> tuple[float, int]:
    """Optimal conclusive conversion probability and its largest minimizer.

    Evaluates the tail-sum ratios over every cut; the full-sum cut always
    contributes ratio 1, so the result is clamped to [0, 1].  A source
    tail that dies while the target tail survives forces probability 0:
    Schmidt rank cannot increase locally.
    """
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch; pad_to first")
    e_lam = _tails(lam)
    e_mu = _tails(mu)
    best, best_l = _min_tail_ratio(e_lam, e_mu, len(lam))
    return min(max(best, 0.0), 1.0), best_l


@dataclass(frozen=True)
class ConclusivePlan:
    """Everything needed to run the optimal conclusive conversion."""

    p_max: float
    l_star: int
    gamma: ProbVector
    deterministic_stage: MeasurementPlan
    success_op: DiagonalOperator
    failure_op: DiagonalOperator
    failure_coeffs: ProbVector | None
    segments: tuple[tuple[int, int, float], ...]  # (start, end, scale)

    def to_json(self) -> dict:
        return {
            "p_max": self.p_max,
            "l_star": self.l_star,
            "gamma": self.gamma.to_json(),
            "deterministic_stage": self.deterministic_stage.to_json(),
            "success_diag": [float(x) for x in self.success_op.diag],
            "failure_diag": [float(x) for x in self.failure_op.diag],
            "failure_coeffs": (
                None if self.failure_coeffs is None else self.failure_coeffs.to_json()
            ),
            "segments": [list(s) for s in self.segments],
        }


def intermediate_state(lam: ProbVector, mu: ProbVector) -> ConclusivePlan:
    """Waypoint vector plus both conversion stages.

    The tail segment [l*, n) is p_max times the target; the remaining
    prefix is filled by repeating the worst-tail-ratio split on ever
    shorter prefixes.  All plan invariants are re-checked numerically and
    any violation is a hard error: it would signal a bug, not a legal
    outcome.
    """
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch; pad_to first")
    n = len(lam)
    p, l_star = pmax(lam, mu)
    if p <= ZERO_TOL:
        raise ConversionImpossible(
            "conclusive conversion impossible: target rank exceeds source rank"
        )
    e_lam = _tails(lam)
    e_mu = _tails(mu)
    gamma = np.zeros(n)
    segments: list[tuple[int, int, float]] = []
    end = n
    while end > 0:
        scale, start = _min_tail_ratio(e_lam, e_mu, end)
        gamma[start:end] = scale * mu.entries[start:end]
        segments.append((start, end, scale))
        end = start
    segments.reverse()

    if np.any(np.diff(gamma) > ZERO_TOL):
        raise ConstructionInvalid("intermediate vector not nonincreasing")
    gamma_pv = ProbVector(gamma)
    if not is_majorized(lam, gamma_pv):
        raise ConstructionInvalid("source not majorized by intermediate vector")
    if np.any(p * mu.entries > gamma + DOMINANCE_TOL):
        raise ConstructionInvalid("intermediate vector fails p*target dominance")

    support = gamma > 0.0
    ratio = np.zeros(n)
    ratio[support] = np.minimum(p * mu.entries[support] / gamma[support], 1.0)
    success = np.sqrt(ratio)
    failure = np.sqrt(1.0 - ratio)
    completeness = float(np.max(np.abs((success**2 + failure**2)[support] - 1.0))) if support.any() else 0.0
    if completeness > COMPLETENESS_TOL:
        raise ConstructionInvalid(f"success/failure completeness residual {completeness}")
    achieved = float(np.sum(gamma[support] * ratio[support]))
    if abs(achieved - p) > COMPLETENESS_TOL:
        raise ConstructionInvalid(
            f"success operator yields probability {achieved}, expected {p}"
        )

    # Below SUCCESS_PROB_TOL the leftover mass is unmeasurable and the
    # division by 1-p is pure cancellation noise; drop the branch.
    if p < 1.0 - SUCCESS_PROB_TOL:
        failure_coeffs = ProbVector((gamma - p * mu.entries) / (1.0 - p))
    else:
        failure_coeffs = None

    return ConclusivePlan(
        p_max=p,
        l_star=l_star,
        gamma=gamma_pv,
        deterministic_stage=build_plan(lam, gamma_pv),
        success_op=DiagonalOperator(success),
        failure_op=DiagonalOperator(failure),
        failure_coeffs=failure_coeffs,
        segments=tuple(segments),
    )


def _settle(
    stage: BranchRecord,
    branch: np.ndarray,
    op: DiagonalOperator,
    share: float,
    target: np.ndarray,
    success: bool,
) -> BranchRecord:
    """Success or failure measurement on one stage branch, checked against
    its target's coordinates."""
    prob, out = _measure(branch, op.diag)
    if prob <= ZERO_BRANCH_TOL * stage.simulated_prob:
        raise ZeroBranch(f"conclusive measurement annihilated outcome {stage.outcome}")
    ops = stage.operations + (AppliedOp(0, "measurement", branch.shape[0]),)
    if success:
        ops += tuple(AppliedOp(p, "unitary", d) for p, d in enumerate(branch.shape))
    return BranchRecord(
        stage.outcome, stage.analytic_prob * share, prob, True, ops,
        _fidelity(target, out, prob), success,
    )


def run_conclusive(
    psi: GeneralizedSchmidtState,
    phi: GeneralizedSchmidtState,
    plan: ConclusivePlan | None = None,
) -> Transcript:
    """Deterministic stage into the waypoint, then the success/failure
    measurement on party A, with every branch checked against its target.

    As in ``run_protocol``, psi, the waypoint omega, phi and the failure
    state are rotated once into their own bases.  omega and the failure
    state share psi's bases, so the stage's branch tensors take the success
    and failure diagonals directly, and B_phi B_psi^dag is the identity on
    coordinates.  Overlaps of coordinates equal the dense fidelities.
    """
    if psi.dims != phi.dims:
        raise ValueError(f"incompatible dims {psi.dims} vs {phi.dims}")
    if psi.n != phi.n:
        raise ValueError("pad coefficient vectors to a common rank first")
    if plan is None:
        plan = intermediate_state(psi.coeffs, phi.coeffs)
    if plan.deterministic_stage.n != psi.n:
        raise ValueError("plan dimension does not match the states")
    omega = GeneralizedSchmidtState(psi.dims, plan.gamma, psi.bases)
    phi_c = _coords(phi)
    failure_c = None
    if plan.failure_coeffs is not None:
        failure_c = _coords(
            GeneralizedSchmidtState(psi.dims, plan.failure_coeffs, psi.bases)
        )

    stage: list[BranchRecord] = []
    branches: list[BranchRecord] = []
    for br, tensor in _branches(plan.deterministic_stage, _coords(psi), _coords(omega)):
        stage.append(br)
        if tensor is None:
            branches.append(br)
            continue
        branches.append(_settle(br, tensor, plan.success_op, plan.p_max, phi_c, True))
        if failure_c is not None:
            branches.append(
                _settle(br, tensor, plan.failure_op, 1.0 - plan.p_max, failure_c, False)
            )
    stage_passed = _protocol_transcript(tuple(stage)).passed

    realizable = [br for br in branches if br.realizable]
    prob_sum = sum(br.simulated_prob for br in realizable)
    success_prob = sum(br.simulated_prob for br in realizable if br.success)
    success_fids = [br.fidelity for br in realizable if br.success]
    min_success_fid = min(success_fids) if success_fids else 0.0
    checks = {
        "pmax": float(plan.p_max),
        "success_probability": float(success_prob),
        "success_prob_error": float(abs(success_prob - plan.p_max)),
        "min_success_fidelity": float(min_success_fid),
        "prob_sum_error": float(abs(prob_sum - 1.0)),
        "stage_passed": stage_passed,
        "fidelity_tol": FIDELITY_TOL,
        "prob_tol": SUCCESS_PROB_TOL,
    }
    passed = bool(
        stage_passed
        and abs(success_prob - plan.p_max) <= SUCCESS_PROB_TOL
        and min_success_fid >= 1.0 - FIDELITY_TOL
        and abs(prob_sum - 1.0) <= SUCCESS_PROB_TOL
    )
    return Transcript(
        branches=tuple(branches),
        passed=passed,
        prob_sum=float(prob_sum),
        checks=checks,
    )


def tensor_power(v: ProbVector, copies: int) -> ProbVector:
    """Sorted elementwise tensor power of a coefficient vector."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if len(v) ** copies > MAX_TENSOR_ENTRIES:
        raise CapExceeded(
            f"{len(v)}^{copies} tensor entries exceed cap {MAX_TENSOR_ENTRIES}"
        )
    out = v.entries
    for _ in range(copies - 1):
        out = np.multiply.outer(out, v.entries).reshape(-1)
    return ProbVector(out)


def multicopy_check(lam: ProbVector, mu: ProbVector, copies: int) -> bool:
    """True iff the sorted tensor powers satisfy the majorization test."""
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch; pad_to first")
    return is_majorized(tensor_power(lam, copies), tensor_power(mu, copies))


@dataclass(frozen=True)
class CatalysisResult:
    found: bool
    catalyst: ProbVector | None
    certificate: dict
    candidates_tested: int

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "catalyst": None if self.catalyst is None else self.catalyst.to_json(),
            "certificate": self.certificate,
            "candidates_tested": self.candidates_tested,
        }


def _tensor_with(v: ProbVector, c: np.ndarray) -> ProbVector:
    return ProbVector(np.multiply.outer(v.entries, c).reshape(-1))


def _grid_partitions(total: int, parts: int, cap: int):
    """Nonincreasing positive integer compositions, lexicographically
    ascending on the tuple."""
    if parts == 1:
        if 1 <= total <= cap:
            yield (total,)
        return
    lo = -(-total // parts)  # ceil: keep room for a nonincreasing tail
    hi = min(cap, total - (parts - 1))
    for head in range(lo, hi + 1):
        for tail in _grid_partitions(total - head, parts - 1, head):
            yield (head,) + tail


def catalysis_search(
    lam: ProbVector, mu: ProbVector, d_max: int = 2, resolution: float = 0.01
) -> CatalysisResult:
    """Grid search for a helper vector c with lam(x)c majorized by mu(x)c.

    Incomplete by design: the grid covers sorted probability vectors of
    dimension 2..d_max at the given simplex resolution, and a not-found
    result is not a proof that no catalyst exists.  The first hit in
    deterministic (dimension, then lexicographic) order is returned.
    """
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch; pad_to first")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if not 0.0 < resolution <= 0.5:
        raise ValueError("resolution must lie in (0, 0.5]")
    witness = first_violation(lam, mu)
    if witness is None:
        return CatalysisResult(
            found=True,
            catalyst=ProbVector([1.0]),
            certificate={"note": "already majorized; trivial catalyst"},
            candidates_tested=0,
        )
    steps = round(1.0 / resolution)
    tested = 0
    for dim in range(2, d_max + 1):
        for ks in _grid_partitions(steps, dim, steps):
            c = np.asarray(ks, dtype=float) / steps
            tested += 1
            lam_c = _tensor_with(lam, c)
            mu_c = _tensor_with(mu, c)
            if is_majorized(lam_c, mu_c):
                lam_prefix = np.cumsum(lam_c.entries)
                mu_prefix = np.cumsum(mu_c.entries)
                return CatalysisResult(
                    found=True,
                    catalyst=ProbVector(c),
                    certificate={
                        "uncatalyzed_violation_prefix": witness,
                        "source_tensor_prefix": [float(x) for x in lam_prefix],
                        "target_tensor_prefix": [float(x) for x in mu_prefix],
                        "min_prefix_margin": float(
                            np.min((mu_prefix - lam_prefix)[:-1])
                        ),
                    },
                    candidates_tested=tested,
                )
    return CatalysisResult(
        found=False,
        catalyst=None,
        certificate={"uncatalyzed_violation_prefix": witness},
        candidates_tested=tested,
    )
