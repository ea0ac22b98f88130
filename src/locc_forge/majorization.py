"""Probability-vector combinatorics: majorization and the permutation
mixtures that realize it.

lam is majorized by mu exactly when lam lies in the permutohedron of mu,
the convex hull of all rearrangements of mu (Rado 1952).  ``mixture_for``
writes lam as a convex combination of at most n such rearrangements by
walking down the faces of that polytope, and records each one as the
relabeling sigma^{-1} with rearrangement mu[sigma^{-1}], the form in which
a measurement plan carries it.

Everything here is pure vector arithmetic; no quantum state ever appears.
All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConversionImpossible, DecompositionFailed

# The package's one tolerance table; every other module imports from here,
# and a tier-1 test rejects any other float literal below 1e-5 in the
# package.  Input slack is absorbed once, where ProbVector divides its
# entries by their sum, so the checks downstream only allow for rounding.
# The permutohedron walk in mixture_for uses none of these to decide where
# to cut; it reconstructs lam to about 1e-15 at every n up to 1024.
#
# ZERO_TOL: an exact zero.  Negative entries above -ZERO_TOL clamp to 0;
#   branch probabilities, squared Schmidt coefficients and tail differences
#   below it vanish; tail ratios within it tie; p * mu may exceed the
#   conclusive waypoint by it.
# UNIT_TOL: the allowance on order-1 quantities.  Input sums, majorization
#   prefixes, plan reconstruction, norms, unitarity, fidelities, branch
#   probabilities, and the default product test of extract_gsd.
# PLAN_TOL: completeness and outcome weights of a measurement plan,
#   and of the conclusive success/failure pair.
# DEGENERACY_GAP: Schmidt coefficients closer than this are degenerate.
ZERO_TOL = 1e-12
UNIT_TOL = 1e-9
PLAN_TOL = 1e-10
DEGENERACY_GAP = 1e-8


class Check(NamedTuple):
    """One numeric check of a plan or a run: the value measured, its
    tolerance, and whether it passed, decided once, when the record is
    made.  A check table maps names to these records and passes when every
    one of them does; a report prints the table whole."""

    value: float
    tol: float
    ok: bool

    @classmethod
    def within(cls, residual, tol: float) -> "Check":
        """A residual, which passes at most tol."""
        return cls(float(residual), tol, bool(residual <= tol))

    @classmethod
    def fidelity(cls, value) -> "Check":
        """A fidelity, which passes at least 1 - UNIT_TOL."""
        return cls(float(value), UNIT_TOL, bool(value >= 1.0 - UNIT_TOL))


class ProbVector:
    """Nonnegative coefficient vector summing to 1, kept in nonincreasing
    order.  The constructor accepts a sum within UNIT_TOL of 1 and divides
    by it, and sorts the entries; a NaN entry fails the sum test."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        raw = np.asarray(entries, dtype=float)
        if raw.ndim != 1 or raw.size < 1:
            raise ValueError("ProbVector needs a 1-D vector of length >= 1")
        if raw.min() < -ZERO_TOL:
            raise ValueError(f"negative entry {raw.min()} below clamp {-ZERO_TOL}")
        clipped = raw.clip(0.0, None)
        total = float(clipped.sum())
        if not abs(total - 1.0) <= UNIT_TOL:
            raise ValueError(f"entries sum to {total}, not 1 within {UNIT_TOL}")
        srt = -np.sort(-clipped) / total
        srt.setflags(write=False)
        object.__setattr__(self, "_entries", srt)

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __len__(self) -> int:
        return self._entries.size

    def __getitem__(self, k):
        return self._entries[k]

    def __iter__(self):
        return iter(self._entries)

    def __repr__(self) -> str:
        return f"ProbVector({list(self._entries)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ProbVector) and np.array_equal(
            self._entries, other._entries
        )

    def __setattr__(self, *_):
        raise AttributeError("ProbVector is immutable")


@dataclass(frozen=True, eq=False)
class PermutationMixture:
    """Convex mixture of permutations realizing lam = sum_j p_j * mu[terms[j]].

    weights (J,) holds p_j.  Row j of terms (J, n) is the relabeling
    sigma_j^{-1}: level k of the j-th vertex holds mu[terms[j, k]], the
    convention of ``MeasurementPlan.perms``.  Both arrays are read-only and
    unchecked; the check table of the plan realized from them
    (``MeasurementPlan.checks``) covers them, reconstruction included.
    """

    weights: np.ndarray
    terms: np.ndarray


def is_majorized(lam: ProbVector, mu: ProbVector) -> bool:
    """True iff every prefix sum of lam is dominated by the one of mu,
    within UNIT_TOL.

    Both vectors are already nonincreasing by the ProbVector invariant, and
    their totals are both 1, so only prefixes 0..n-2 are checked.
    """
    return first_violation(lam, mu) is None


def first_violation(lam: ProbVector, mu: ProbVector) -> int | None:
    """Smallest prefix index whose lam sum exceeds mu's by more than
    UNIT_TOL, or None."""
    if len(lam) != len(mu):
        raise ValueError(
            f"dimension mismatch {len(lam)} vs {len(mu)}; pad_to first"
        )
    lam_prefix = np.cumsum(lam.entries[:-1])
    mu_prefix = np.cumsum(mu.entries[:-1])
    bad = np.nonzero(lam_prefix > mu_prefix + UNIT_TOL)[0]
    return int(bad[0]) if bad.size else None


def prefix_excess(lam: ProbVector, mu: ProbVector) -> float:
    """Largest excess of a prefix sum of lam over mu's, over prefixes
    0..n-2: negative when every prefix has slack, 0 when n = 1."""
    excess = np.cumsum(lam.entries[:-1]) - np.cumsum(mu.entries[:-1])
    return float(excess.max()) if excess.size else 0.0


def pad_to(v: ProbVector, n: int) -> ProbVector:
    """Extend with trailing zeros so source and target ranks can differ."""
    if n < len(v):
        raise ValueError(f"cannot pad length {len(v)} down to {n}")
    if n == len(v):
        return v
    return ProbVector(np.concatenate([v.entries, np.zeros(n - len(v))]))


def mixture_for(
    lam: ProbVector, mu: ProbVector, cuts: Sequence[int] = ()
) -> PermutationMixture:
    """Permutation mixture carrying mu onto lam, with at most n terms.

    A walk over the faces of the permutohedron of mu.  The remainder
    ``rest`` (what is still to be placed, of total ``mass``) always lies in
    ``mass`` times one face: an ordered partition of the indices into
    blocks, cut at tight prefix sets, where the block starting at segment
    position a owns mu[a:a + size].  Each step takes the vertex that lays
    every block's segment out in the order of ``rest``, removes the
    largest multiple of it that keeps the remainder inside the scaled face,
    and cuts off the top-k set that this made tight.  Every step but the
    last cuts a block, so there are at most n steps and n terms.

    The face is kept across steps, by index (``start``, each index's block
    start) and by position (``caps`` and ``lead`` of ``_largest_step``),
    and a cut rewrites only the block it splits.  The remainder is carried
    negated, ``neg_rest`` = -rest, the key on which a lexsort puts the
    largest remainder first.  The last Newton evaluation of a step is at
    the step's t, unless t is 0, so its negated remainder is the next
    ``neg_rest``, and its order, sorted by block and then by remainder, is
    the next vertex order whenever the cut is the top of its block there;
    only otherwise is the remainder sorted again.

    The walk starts from the prefixes of lam that are tight in floating
    point, with no tolerance, and from the prefix lengths in ``cuts``,
    which the caller knows to be tight in exact arithmetic (the conclusive
    waypoint's segment starts): a cut at a prefix of slack s leaves an
    error s in the reconstruction.  A tight prefix that rounding misses
    costs one extra step of rounding-sized weight, which still cuts a
    block.

    Each vertex is recorded as the relabeling sigma^{-1} that lays mu out
    on it, vertex = mu[row], the convention of the plan that ``build_plan``
    makes from the mixture.  Terms are listed from the last vertex reached
    back to the first, which puts the swap before the identity at n = 2,
    the order of the closed-form two-level plan.  Nothing here checks that
    the terms rebuild lam: the plan's ``reconstruction`` check does.
    Raises DecompositionFailed when the walk leaves mass unplaced.
    """
    violation = first_violation(lam, mu)
    if violation is not None:
        raise ConversionImpossible(
            f"target does not majorize source (prefix {violation})",
            violation_index=violation,
        )
    n = len(lam)
    prefix = np.concatenate(([0.0], np.cumsum(mu.entries)))
    tight = prefix[1:] - np.cumsum(lam.entries) <= 0.0
    begins = np.concatenate(([True], tight[:-1]))
    begins[list(cuts)] = True
    start = np.maximum.accumulate(np.where(begins, np.arange(n), 0))
    # the face by position: before the first step, index i is at position i
    caps = prefix[1:] - prefix[start]
    # lead: each position's run slot, its block's start, or the -inf
    # sentinel run[n + 1] at a block's last position
    lead = np.where(np.append(start[1:] == start[:-1], False), start, n + 1)
    run = np.zeros(n + 2)
    run[n + 1] = -np.inf
    neg_rest = -lam.entries
    order = np.lexsort((neg_rest, start))
    mass = 1.0
    levels = np.arange(n)
    weights: list[float] = []
    rows: list[np.ndarray] = []
    steps = 0
    while mass > 0.0 and steps < n:
        steps += 1
        row = np.empty(n, dtype=np.intp)
        row[order] = levels  # sigma^{-1}: level order[i] takes mu[i]
        vertex = mu.entries[row]
        step, cut, last = _largest_step(neg_rest, mass, vertex, start, caps, lead, run)
        if step > 0.0:
            weights.append(step)
            rows.append(row)
            mass = 0.0 if step == mass else mass - step
            order, neg_rest = last
        if cut is not None:
            # split block [a, b): cut keeps a, the rest of it starts at a + size
            a, size = int(start[cut[0]]), cut.size
            b = a + int(np.count_nonzero(start == a))
            start[order[a:b]] = a + size
            start[cut] = a
            lead[a + size:b - 1] = a + size
            lead[a + size - 1] = n + 1
            np.subtract(prefix[a + size + 1:b + 1], prefix[a + size], out=caps[a + size:b])
            if (start[order[a:a + size]] != a).any():
                order = np.lexsort((neg_rest, start))
    if mass > 0.0:
        raise DecompositionFailed(
            f"mixture_for: n={n}, walk stopped after {steps} steps "
            f"with mass {mass:.3g} unplaced"
        )
    arrays = np.array(weights[::-1]), np.stack(rows[::-1])
    for arr in arrays:
        arr.setflags(write=False)
    return PermutationMixture(*arrays)


def _largest_step(neg_rest, mass, vertex, start, caps, lead, run):
    """Largest t <= mass keeping rest - t * vertex in (mass - t) times the face.

    The remainder comes negated, ``neg_rest`` = -rest, and each Newton
    evaluation forms y = t * vertex + neg_rest, the remainder at t negated.
    A lexsort on ``start`` and then on y puts the block owning segment
    [a, b) at positions a..b-1, largest remainder first.  ``run`` takes the
    running sums of y in slots 1..n; slot 0 stays 0 and slot n + 1 is the
    -inf sentinel.  The lead index ``lead[p]`` of an in-block position p is
    its block start a, so run[a] - run[p + 1] is the block's top-(p - a + 1)
    remainder sum, capped by (mass - t) * ``caps[p]`` = (mass - t) *
    sum(mu[a:p + 1]); at a block's last position it is n + 1, and the
    sentinel gives that position the excess -inf.  The largest excess G(t)
    over the in-block positions is convex and piecewise linear with
    G(0) <= 0, so Newton's method from t = mass runs down its active pieces
    onto the exact breakpoint.  Returns t, the index set that the step made
    tight (None when t = mass ends the walk; t is 0 when that set is tight
    already), and the evaluation at t, its order and negated remainder
    (None when t = 0 was not evaluated).

    IEEE addition rounds symmetrically, so y is -(rest - t * vertex) bit
    for bit up to the sign of zeros, its running sums are those of the
    unnegated remainder negated, and the excess, t and the cut are the
    ones the unnegated remainder gives.
    """
    sums = run[1:-1]
    step, cut = mass, None
    while True:
        y = step * vertex + neg_rest
        order = np.lexsort((y, start))
        np.add.accumulate(y[order], out=sums)
        excess = run[lead] - sums
        excess -= (mass - step) * caps
        p = int(excess.argmax())
        if excess[p] <= 0.0:
            return step, cut, (order, y)
        cut = order[lead[p]: p + 1]
        cap = caps.item(p)
        slope = cap - float(np.add.reduce(vertex[cut]))
        root = (mass * cap + float(np.add.reduce(neg_rest[cut]))) / slope if slope > 0.0 else 0.0
        if root >= step:
            return step, cut, (order, y)
        if root <= 0.0:
            return 0.0, cut, None
        step = root
