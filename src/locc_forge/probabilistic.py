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

The catalyst search first tries to refute: a few quantities that are
Schur-monotone and multiplicative under the tensor product (largest and
smallest coefficient, rank, power sums, entropy) must not get worse from
source to target if any catalyst exists, so one that does proves there is
none, in O(n).  Only a pair that none of them refutes goes to the grid,
which is listed up to one candidate past MAX_CATALYST_CANDIDATES before
any candidate is tested.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, ConstructionInvalid, ConversionImpossible, ZeroBranch
from .majorization import (
    PLAN_TOL,
    Check,
    ProbVector,
    UNIT_TOL,
    ZERO_TOL,
    first_violation,
    is_majorized,
    prefix_excess,
)
from .protocol import MeasurementPlan, build_plan
from .simulator import (
    BranchRecord,
    GeneralizedSchmidtState,
    Transcript,
    _branch_checks,
    _branches,
    _coords,
    _fidelity,
)

MAX_TENSOR_ENTRIES = 2**20
# About 4 s of grid search at the measured 56-63 us per candidate (an open
# n = 4 pair, d <= 4, 2-vCPU host); d_max = 5 at the default resolution
# (46261 candidates) fits.
MAX_CATALYST_CANDIDATES = 2**16


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
    denominator counts as ratio 0.  Ratios within ZERO_TOL of the minimum
    tie: the first of them gives the value and the last the index.
    """
    den = e_mu[:end] - e_mu[end]
    num = e_lam[:end] - e_lam[end]
    live = den > ZERO_TOL
    ratio = np.divide(num, den, out=np.full(end, np.inf), where=live)
    ratio[live & (num <= ZERO_TOL)] = 0.0
    best = ratio.min(initial=np.inf)
    if not np.isfinite(best):
        raise ConstructionInvalid("no admissible tail ratio")
    near = np.flatnonzero(ratio <= best + ZERO_TOL)
    return float(ratio[near[0]]), int(near[-1])


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
    """Everything needed to run the optimal conclusive conversion.

    ``to_json`` prints p_max, l_star, the deterministic stage and the
    segments; gamma and the success/failure pair follow from them and are
    kept here only for the run.
    """

    p_max: float
    l_star: int
    gamma: ProbVector
    deterministic_stage: MeasurementPlan
    success_diag: np.ndarray  # Kraus diagonals of the success/failure pair
    failure_diag: np.ndarray
    failure_coeffs: ProbVector | None
    segments: tuple[tuple[int, int, float], ...]  # (start, end, scale)

    def to_json(self) -> dict:
        return {
            "p_max": self.p_max,
            "l_star": self.l_star,
            "deterministic_stage": self.deterministic_stage.to_json(),
            "segments": [list(s) for s in self.segments],
        }


def intermediate_state(lam: ProbVector, mu: ProbVector) -> ConclusivePlan:
    """Waypoint vector plus both conversion stages.

    The tail segment [l*, n) is p_max times the target; the remaining
    prefix is filled by repeating the worst-tail-ratio split on ever
    shorter prefixes.  Each segment carries lam's tail difference over it,
    so lam and gamma have equal prefix sums at every segment start, and the
    deterministic stage is decomposed with those prefixes cut: its
    relabelings keep every segment in place.  All plan invariants are
    re-checked numerically and any violation is a hard error: it would
    signal a bug, not a legal outcome.  A p_max within ZERO_TOL of 0
    raises ConversionImpossible, which names the rank obstruction when
    mu's rank exceeds lam's, and otherwise the cut l* and both tails.
    """
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch; pad_to first")
    n = len(lam)
    p, l_star = pmax(lam, mu)
    e_lam = _tails(lam)
    e_mu = _tails(mu)
    if p <= ZERO_TOL:
        rank_lam, rank_mu = np.count_nonzero(lam.entries), np.count_nonzero(mu.entries)
        if rank_mu > rank_lam:
            raise ConversionImpossible(
                "conclusive conversion impossible: target rank "
                f"{rank_mu} exceeds source rank {rank_lam}"
            )
        raise ConversionImpossible(
            f"conclusive conversion impossible within ZERO_TOL {ZERO_TOL}: source "
            f"rank {rank_lam} is not below target rank {rank_mu}, but at the cut "
            f"l*={l_star} the source tail {e_lam[l_star]} over the target tail "
            f"{e_mu[l_star]} gives p_max {p}, a tail or ratio within ZERO_TOL "
            "counting as 0"
        )
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
    if np.any(p * mu.entries > gamma + ZERO_TOL):
        raise ConstructionInvalid("intermediate vector fails p*target dominance")

    support = gamma > 0.0
    ratio = np.zeros(n)
    ratio[support] = np.minimum(p * mu.entries[support] / gamma[support], 1.0)
    success = np.sqrt(ratio)
    failure = np.sqrt(1.0 - ratio)
    completeness = float(np.max(np.abs((success**2 + failure**2)[support] - 1.0))) if support.any() else 0.0
    if completeness > PLAN_TOL:
        raise ConstructionInvalid(f"success/failure completeness residual {completeness}")
    achieved = float(np.sum(gamma[support] * ratio[support]))
    if abs(achieved - p) > PLAN_TOL:
        raise ConstructionInvalid(
            f"success operator yields probability {achieved}, expected {p}"
        )

    # Below UNIT_TOL the leftover mass is unmeasurable; drop the branch.
    # Dividing gamma - p*mu by a small 1-p would magnify its rounding, so
    # the leftover is clipped at 0 and divided by its own sum.
    failure_coeffs = None
    if p < 1.0 - UNIT_TOL:
        leftover = np.maximum(gamma - p * mu.entries, 0.0)
        mass = float(leftover.sum())
        if abs(mass - (1.0 - p)) > UNIT_TOL:
            raise ConstructionInvalid(
                f"failure branch mass {mass}, expected 1 - p_max = {1.0 - p}"
            )
        failure_coeffs = ProbVector(leftover / mass)

    return ConclusivePlan(
        p_max=p,
        l_star=l_star,
        gamma=gamma_pv,
        deterministic_stage=build_plan(
            lam, gamma_pv, cuts=[start for start, _, _ in segments[1:]]
        ),
        success_diag=success,
        failure_diag=failure,
        failure_coeffs=failure_coeffs,
        segments=tuple(segments),
    )


def _settle(
    stage: BranchRecord,
    branch: np.ndarray,
    diag: np.ndarray,
    target: np.ndarray,
    success: bool,
) -> BranchRecord:
    """Success or failure measurement on one stage branch's diagonal,
    checked against its target's diagonal."""
    out = diag * branch
    prob = float(np.vdot(out, out).real)
    if prob <= ZERO_TOL * stage.simulated_prob:
        raise ZeroBranch(f"conclusive measurement annihilated outcome {stage.outcome}")
    return BranchRecord(stage.outcome, prob, _fidelity(target, out, prob), success)


def run_conclusive(
    psi: GeneralizedSchmidtState, phi: GeneralizedSchmidtState, plan: ConclusivePlan
) -> Transcript:
    """Deterministic stage into the waypoint, then the success/failure
    measurement on party A, with every branch checked against its target.

    As in ``run_protocol``, psi, the waypoint omega, phi and the failure
    state are each reduced to their n diagonal amplitudes in their own
    bases, and ``offdiag_mass`` is the largest squared norm that any of
    them leaves off its diagonal.  omega and the failure state share psi's
    bases, which were checked when psi was built and are not checked
    again.  So each stage branch's diagonal takes the success and failure
    diagonals directly, and B_phi B_psi^dag is the identity on
    coordinates.  Overlaps of diagonals equal the dense fidelities.  The
    check table holds the success probability against p_max, the success
    fidelity, the probability sum, ``offdiag_mass``, and the stage's own
    branch checks under ``stage_`` names.
    """
    if psi.dims != phi.dims:
        raise ValueError(f"incompatible dims {psi.dims} vs {phi.dims}")
    if psi.n != phi.n:
        raise ValueError("pad coefficient vectors to a common rank first")
    if plan.deterministic_stage.n != psi.n:
        raise ValueError("plan dimension does not match the states")
    omega = psi._with_coeffs(plan.gamma)
    (psi_c, psi_m), (omega_c, omega_m), (phi_c, phi_m) = map(_coords, (psi, omega, phi))
    failure_c, failure_m = None, 0.0
    if plan.failure_coeffs is not None:
        failure_c, failure_m = _coords(psi._with_coeffs(plan.failure_coeffs))

    stage: list[BranchRecord] = []
    branches: list[BranchRecord] = []
    for br, diag in _branches(plan.deterministic_stage, psi_c, omega_c):
        stage.append(br)
        if diag is None:
            branches.append(br)
            continue
        branches.append(_settle(br, diag, plan.success_diag, phi_c, True))
        if failure_c is not None:
            branches.append(_settle(br, diag, plan.failure_diag, failure_c, False))

    prob_sum = sum(br.simulated_prob for br in branches)
    success_prob = sum(br.simulated_prob for br in branches if br.success)
    success_fid = min((br.fidelity for br in branches if br.success), default=0.0)
    stage_checks = _branch_checks(plan.deterministic_stage.weights, tuple(stage))
    checks = {
        "success_prob_error": Check.within(abs(success_prob - plan.p_max), UNIT_TOL),
        "min_success_fidelity": Check.fidelity(success_fid),
        "prob_sum_error": Check.within(abs(prob_sum - 1.0), UNIT_TOL),
        "offdiag_mass": Check.within(max(psi_m, omega_m, phi_m, failure_m), UNIT_TOL),
        **{f"stage_{name}": check for name, check in stage_checks.items()},
    }
    return Transcript(tuple(branches), checks)


def tensor_power(v: ProbVector, copies: int) -> ProbVector:
    """Sorted elementwise tensor power of a coefficient vector.  A rank-1
    vector counts as rank 2 against the cap, so its copies are capped too."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if max(len(v), 2) ** copies > MAX_TENSOR_ENTRIES:
        raise CapExceeded(
            f"{len(v)}^{copies} tensor entries exceed cap {MAX_TENSOR_ENTRIES}"
            + (" (rank 1 counts as 2)" if len(v) == 1 else "")
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
    """A search's verdict, catalyst and certificate.  ``checks`` is the
    check table of a found catalyst, ``{"certificate": ...}`` (see
    ``_found``), and empty otherwise."""

    verdict: str  # "found" | "refuted" | "open"
    catalyst: ProbVector | None
    certificate: dict
    candidates_tested: int
    checks: dict[str, Check] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.verdict == "found"

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "catalyst": None if self.catalyst is None else self.catalyst.to_json(),
            "certificate": self.certificate,
            "candidates_tested": self.candidates_tested,
        }


def _tensor_with(v: ProbVector, c: np.ndarray) -> ProbVector:
    return ProbVector(np.multiply.outer(v.entries, c).reshape(-1))


def _entropy(v: np.ndarray) -> float:
    live = v[v > 0.0]
    return float(-np.dot(live, np.log(live)))


def _refute(lam: ProbVector, mu: ProbVector) -> dict | None:
    """Certificate of the first monotone that rules out every catalyst, or
    None.

    If lam(x)c is majorized by mu(x)c for some c (whose zero entries can
    be dropped), then, in this order of testing:
    - largest coefficient: lam_1 <= mu_1;
    - rank: rank(lam) >= rank(mu);
    - smallest coefficient: lam_r >= mu_r when rank(lam) = rank(mu) = r
      (both tensor products then live on r times c's levels); ranks that
      differ compare nothing;
    - power sums: sum lam^alpha <= sum mu^alpha for alpha = 2, 3, and >=
      for alpha = 1/2;
    - Shannon entropy: H(lam) >= H(mu).
    Each quantity is Schur-monotone and multiplicative under the tensor
    product (entropy is additive), so the factor of c cancels (Jonathan &
    Plenio, PRL 83, 3566, 1999; Turgut, J. Phys. A 40, 12185, 2007).  A
    monotone refutes only when it is violated by more than UNIT_TOL, the
    band of first_violation; for rank, when mu's first entry beyond lam's
    support exceeds UNIT_TOL.  The certificate names the monotone, alpha
    (power sums only), the source and target values and the excess.
    """
    a, b = lam.entries, mu.entries
    rank_a, rank_b = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    last = rank_a - 1
    tests = [
        ("largest_coefficient", None, a[0], b[0], a[0] - b[0]),
        ("rank", None, rank_a, rank_b, b[rank_a] if rank_a < b.size else 0.0),
        ("smallest_coefficient", None, a[last], b[last],
         b[last] - a[last] if rank_a == rank_b else 0.0),
    ]
    for alpha in (2.0, 3.0, 0.5):
        pa, pb = np.sum(a**alpha), np.sum(b**alpha)
        tests.append(("power_sum", alpha, pa, pb, pa - pb if alpha > 1.0 else pb - pa))
    ha, hb = _entropy(a), _entropy(b)
    tests.append(("entropy", None, ha, hb, hb - ha))
    for monotone, alpha, source, target, excess in tests:
        if excess > UNIT_TOL:
            return {
                "monotone": monotone,
                "alpha": alpha,
                "source": source,
                "target": target,
                "excess": excess,
            }
    return None


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


def _grid(steps: int, d_max: int) -> list[tuple[int, ...]]:
    """The catalyst grid in search order, dimension 2..d_max, then
    lexicographic: the partitions of steps into that many positive parts.
    None has more than steps parts.  At most MAX_CATALYST_CANDIDATES + 1
    are listed, so a longer list means a grid over the cap."""
    grid = itertools.chain.from_iterable(
        _grid_partitions(steps, dim, steps) for dim in range(2, min(d_max, steps) + 1)
    )
    return list(itertools.islice(grid, MAX_CATALYST_CANDIDATES + 1))


def _found(
    lam: ProbVector, mu: ProbVector, c: ProbVector, certificate: dict, tested: int
) -> CatalysisResult:
    """A found catalyst with its check ``certificate``: the largest prefix
    excess of lam(x)c over mu(x)c, recomputed from the catalyst as
    returned, against UNIT_TOL.  It passes exactly when ``is_majorized``
    does on the same tensors."""
    lam_c, mu_c = _tensor_with(lam, c.entries), _tensor_with(mu, c.entries)
    check = Check(prefix_excess(lam_c, mu_c), UNIT_TOL, is_majorized(lam_c, mu_c))
    return CatalysisResult("found", c, certificate, tested, {"certificate": check})


def catalysis_search(
    lam: ProbVector, mu: ProbVector, d_max: int = 2, resolution: float = 0.01
) -> CatalysisResult:
    """Helper vector c with lam(x)c majorized by mu(x)c: refute, then search.

    The verdict is "found" when lam is already majorized (trivial catalyst
    [1]) or the grid has a hit, "refuted" when a monotone of ``_refute``
    proves that no catalyst of any dimension exists, and "open" otherwise.
    The grid covers sorted probability vectors of dimension 2..d_max at the
    given simplex resolution, so "open" is not a proof that no catalyst
    exists.  The first hit in deterministic (dimension, then lexicographic)
    order is returned, with the number of candidates tested up to and
    including it.  A refuted pair tests none.  A grid of more than
    MAX_CATALYST_CANDIDATES candidates raises CapExceeded before any is
    tested.  A found result carries its ``certificate`` check.
    """
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch; pad_to first")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if not 0.0 < resolution <= 0.5:
        raise ValueError("resolution must lie in (0, 0.5]")
    witness = first_violation(lam, mu)
    if witness is None:
        trivial = {"note": "already majorized; trivial catalyst"}
        return _found(lam, mu, ProbVector([1.0]), trivial, 0)
    refutation = _refute(lam, mu)
    if refutation is not None:
        return CatalysisResult(
            verdict="refuted",
            catalyst=None,
            certificate={"uncatalyzed_violation_prefix": witness, **refutation},
            candidates_tested=0,
        )
    # 1 / resolution is infinite for a subnormal resolution; clamped where
    # dimension 2 alone already passes the cap
    steps = round(min(1.0 / resolution, 2.0 * MAX_CATALYST_CANDIDATES + 2))
    candidates = _grid(steps, d_max)
    if len(candidates) > MAX_CATALYST_CANDIDATES:
        raise CapExceeded(
            f"catalyst grid at d_max={d_max}, resolution={resolution} has more "
            f"than {MAX_CATALYST_CANDIDATES} candidates"
        )
    certificate = {"uncatalyzed_violation_prefix": witness}
    for tested, ks in enumerate(candidates, 1):
        c = np.asarray(ks, dtype=float) / steps
        if is_majorized(_tensor_with(lam, c), _tensor_with(mu, c)):
            return _found(lam, mu, ProbVector(c), certificate, tested)
    return CatalysisResult(
        verdict="open",
        catalyst=None,
        certificate=certificate,
        candidates_tested=len(candidates),
    )
