"""Optimal conclusive conversion, tensor-power majorization, and catalyst
search.

The conclusive route goes through a deterministic waypoint: the source is
first converted with certainty to an intermediate vector gamma, then the
settle measurement, a plan on gamma like any other, either lands on the
target (success) or on a leftover state (failure).  gamma is built
scale-by-scale from the right: each segment pins a tail of the
still-unassigned prefix, the one of worst tail ratio, to a rescaled copy
of the target.  One scan finds the worst tail ratio for every end at
once, and the segments follow from it as a chain of ends.  The
resulting vector is sorted, majorizes the source, and dominates p_max
times the target entrywise, as the success outcome needs.  This module
builds the conclusive plan, both stages realized with their check tables;
``simulator.run_conclusive`` runs it on states.

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

from .errors import CapExceeded, ConversionImpossible, InternalContradiction
from .majorization import (
    Check,
    ProbVector,
    UNIT_TOL,
    ZERO_TOL,
    first_violation,
    is_majorized,
    prefix_excess,
)
from .protocol import MeasurementPlan, build_plan, realize

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


def _tail_ratio_scan(
    e_lam: np.ndarray, e_mu: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of (e_lam[l]-e_lam[end])/(e_mu[l]-e_mu[end]) over l < end,
    its value and index for every end in lo..hi - 1, one column per end over
    the rows l < hi - 1; a row l >= e counts for no end e: tails do not grow
    to the right, so its denominator is at most 0.

    Zero denominators are skipped; a zero numerator over a positive
    denominator counts as ratio 0.  Ratios within ZERO_TOL of the minimum
    tie: the first of them gives the value and the last the index.  Raises
    InternalContradiction at the first end with no admissible ratio.  Holds
    two float arrays of (hi - 1) x (hi - lo) ratios: 8 MiB each for every
    end at n = 1024."""
    rows = hi - 1
    den = e_mu[:rows, None] - e_mu[lo:hi]
    ratio = e_lam[:rows, None] - e_lam[lo:hi]  # the numerators, divided in place
    live = den > ZERO_TOL
    zero = live & (ratio <= ZERO_TOL)
    np.divide(ratio, den, out=ratio, where=live)
    np.copyto(ratio, np.inf, where=~live)
    ratio[zero] = 0.0
    near = ratio <= ratio.min(axis=0) + ZERO_TOL
    value = ratio[near.argmax(axis=0), np.arange(hi - lo)]
    if value.max() == np.inf:
        end = lo + int(value.argmax())
        raise InternalContradiction(
            f"no admissible tail ratio at end {end}: no l < {end} has a target "
            f"tail difference above ZERO_TOL {ZERO_TOL}")
    return value, rows - 1 - near[::-1].argmax(axis=0)


def _tail_ratio_chain(e_lam: np.ndarray, e_mu: np.ndarray) -> list[tuple[int, int, float]]:
    """The segments (start, end, scale) from end n = len(e_lam) - 1 down to
    start 0, each ending where the last one started, its start and scale
    the index and value of ``_tail_ratio_scan`` at its end; one scan covers
    every end."""
    value, index = _tail_ratio_scan(e_lam, e_mu, 1, len(e_lam))
    segments, end = [], len(e_lam) - 1
    while end > 0:
        segments.append((int(index[end - 1]), end, float(value[end - 1])))
        end = segments[-1][0]
    return segments


def pmax(lam: ProbVector, mu: ProbVector) -> tuple[float, int]:
    """Optimal conclusive conversion probability and its largest minimizer.

    Evaluates the tail-sum ratios over every cut; the full-sum cut always
    contributes ratio 1, so the result is clamped to [0, 1].  A source
    tail that dies while the target tail survives forces probability 0:
    Schmidt rank cannot increase locally.
    """
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch; pad_to first")
    n = len(lam)
    value, index = _tail_ratio_scan(_tails(lam), _tails(mu), n, n + 1)
    return min(max(float(value[0]), 0.0), 1.0), int(index[0])


@dataclass(frozen=True)
class ConclusivePlan:
    """Everything needed to run the optimal conclusive conversion.

    A report prints p_max, l_star, the deterministic stage and the
    segments; gamma, the settle plan and the failure coefficients follow
    from them and are kept here only for the run.
    """

    p_max: float
    l_star: int
    gamma: ProbVector
    deterministic_stage: MeasurementPlan
    settle: MeasurementPlan  # on gamma: outcome 0 onto mu, outcome 1 onto the failure
    failure_coeffs: ProbVector | None
    segments: tuple[tuple[int, int, float], ...]  # (start, end, scale)


def intermediate_state(lam: ProbVector, mu: ProbVector) -> ConclusivePlan:
    """Waypoint vector plus both conversion stages.

    The tail segment [l*, n) is p_max times the target; the remaining
    prefix is filled by repeating the worst-tail-ratio split on ever
    shorter prefixes.  ``_tail_ratio_chain`` follows every segment, the
    first one included, from one scan of every end.  Each segment
    carries lam's tail difference over it, so lam and gamma have equal
    prefix sums at every segment start, and the deterministic stage is
    decomposed with those prefixes cut: its relabelings keep every
    segment in place.  Both stages are realized plans with a passed check
    table, and the waypoint's invariants are re-checked: a violation
    raises InternalContradiction with the numbers that tripped it, since
    it would signal a bug, not a legal outcome.  A p_max within ZERO_TOL
    of 0 raises ConversionImpossible, which names the rank obstruction
    when mu's rank exceeds lam's, and otherwise the cut l* and both tails.
    """
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch; pad_to first")
    n = len(lam)
    e_lam = _tails(lam)
    e_mu = _tails(mu)
    segments = _tail_ratio_chain(e_lam, e_mu)
    # the first segment's scale, clamped, is p_max and its start l*, as in pmax
    l_star, _, scale = segments[0]
    p = min(max(scale, 0.0), 1.0)
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
    segments.reverse()
    gamma = np.zeros(n)
    for start, end, scale in segments:
        gamma[start:end] = scale * mu.entries[start:end]

    rise = np.flatnonzero(np.diff(gamma) > ZERO_TOL)
    if rise.size:
        k = int(rise[0]) + 1
        raise InternalContradiction(
            f"waypoint not nonincreasing: gamma_{k} {gamma[k]} exceeds gamma_{k - 1} "
            f"{gamma[k - 1]} by more than ZERO_TOL {ZERO_TOL}")
    gamma_pv = ProbVector(gamma)
    k = first_violation(lam, gamma_pv)
    if k is not None:
        excess = np.sum(lam.entries[:k + 1]) - np.sum(gamma_pv.entries[:k + 1])
        raise InternalContradiction(
            f"source not majorized by the waypoint: its prefix {k} exceeds gamma's "
            f"by {excess}, above UNIT_TOL {UNIT_TOL}")
    over = p * mu.entries - gamma
    k = int(np.argmax(over))
    if over[k] > ZERO_TOL:
        raise InternalContradiction(
            f"waypoint fails p*mu dominance at level {k}: p*mu_k {p * mu[k]} exceeds "
            f"gamma_k {gamma[k]} by more than ZERO_TOL {ZERO_TOL}")

    # The settle plan lands on mu with weight p, and on the failure
    # coefficients with weight 1 - p; below UNIT_TOL the leftover mass is
    # unmeasurable, and outcome 0 alone has weight 1.  Dividing gamma - p*mu
    # by a small 1-p would magnify its rounding, so the leftover is clipped
    # at 0 and divided by its own sum.
    failure_coeffs = None
    weights, targets = np.ones(1), mu.entries[None, :]
    if p < 1.0 - UNIT_TOL:
        leftover = np.maximum(gamma - p * mu.entries, 0.0)
        mass = float(leftover.sum())
        if abs(mass - (1.0 - p)) > UNIT_TOL:
            raise InternalContradiction(
                f"failure branch mass {mass}, expected 1 - p_max = {1.0 - p} "
                f"within UNIT_TOL {UNIT_TOL}")
        failure_coeffs = ProbVector(leftover / mass)
        weights = np.array([p, 1.0 - p])
        targets = np.array([mu.entries, failure_coeffs.entries])
    levels = np.arange(n)[None, :].repeat(len(weights), axis=0)  # no outcome relabels

    return ConclusivePlan(
        p_max=p,
        l_star=l_star,
        gamma=gamma_pv,
        deterministic_stage=build_plan(
            lam, gamma_pv, cuts=[start for start, _, _ in segments[1:]]
        ),
        settle=realize(gamma_pv, weights, levels, targets, "settle measurement"),
        failure_coeffs=failure_coeffs,
        segments=tuple(segments),
    )


def _power_terms(vectors: list[np.ndarray], copies: int):
    """Yield, for c = 1..copies, the distinct terms of the c-th tensor power
    of each vector (all of length n): one value array per vector, and the
    multiplicities they share.  A term is a multiset of c levels, made once
    by extending a nondecreasing level sequence with any level >= its last;
    its value is the product along it, and its multiplicity c!/prod a_i!,
    updated as mult * c / run (run: the last level's count), an exact
    integer in float64 while n^c is within the cap."""
    n = vectors[0].size
    level = np.arange(n)
    run = np.ones(n, dtype=np.int64)
    mult = np.ones(n)
    values = list(vectors)
    yield values, mult
    for c in range(2, copies + 1):
        width = n - level
        src = np.repeat(np.arange(level.size), width)
        step = np.arange(src.size) - np.repeat(np.cumsum(width) - width, width)
        level = level[src] + step
        run = np.where(step == 0, run[src] + 1, 1)
        mult = mult[src] * c / run
        values = [vals[src] * v[level] for vals, v in zip(values, vectors)]
        yield values, mult


def _prefix_function(values: np.ndarray, mult: np.ndarray):
    """A power's prefix-sum function from its distinct terms: breakpoints
    (cumulative counts), the sums there, and the sorted entries (the slope
    up to each breakpoint), divided by their total as ProbVector does.
    The order of equal entries does not change the function."""
    order = np.argsort(-values)
    count = mult[order]
    entries = values[order] / np.dot(values, mult)
    return np.cumsum(count), np.cumsum(entries * count), entries


def _excess_at_breakpoints(own, other) -> np.ndarray:
    """own's prefix sums minus other's at own's breakpoints below the end,
    other's function being linear between its own breakpoints."""
    points, own_sums = own[0][:-1], own[1][:-1]
    ends, sums, entries = other
    seg = np.searchsorted(ends, points)
    return own_sums - (sums[seg] - (ends[seg] - points) * entries[seg])


def multicopy_profile(lam: ProbVector, mu: ProbVector, copies: int) -> list[bool]:
    """Whether lam^{(x)c} is majorized by mu^{(x)c} for c = 1..copies, in
    the band of ``first_violation``, decided on the distinct terms of each
    power: the two prefix-sum functions are compared at the breakpoints of
    either one.  A rank-1 vector counts as rank 2 against the cap."""
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch; pad_to first")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    for c in range(1, copies + 1):
        if max(len(lam), 2) ** c > MAX_TENSOR_ENTRIES:
            raise CapExceeded(
                f"{len(lam)}^{c} tensor entries exceed cap {MAX_TENSOR_ENTRIES}"
                + (" (rank 1 counts as 2)" if len(lam) == 1 else "")
            )
    verdicts = []
    for (lam_c, mu_c), mult in _power_terms([lam.entries, mu.entries], copies):
        f_lam, f_mu = _prefix_function(lam_c, mult), _prefix_function(mu_c, mult)
        verdicts.append(not (np.any(_excess_at_breakpoints(f_lam, f_mu) > UNIT_TOL)
                             or np.any(_excess_at_breakpoints(f_mu, f_lam) < -UNIT_TOL)))
    return verdicts


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
