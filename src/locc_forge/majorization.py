"""Probability-vector combinatorics: majorization and the permutation
mixtures that realize it.

lam is majorized by mu exactly when lam lies in the permutohedron of mu,
the convex hull of all rearrangements of mu (Rado 1952).  ``mixture_for``
writes lam as a convex combination of at most n such rearrangements by
walking down the faces of that polytope.

Everything here is pure vector arithmetic; no quantum state ever appears.
All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConversionImpossible, DecompositionFailed

# Module-wide tolerances.  The permutohedron walk in mixture_for uses none
# of them to decide where to cut; it reconstructs lam to about 1e-15 at
# every n up to 1024 (the tests pin 1e-12), far inside RECONSTRUCT_TOL.
ENTRY_CLAMP = 1e-12       # negative entries above -ENTRY_CLAMP are clamped to 0
SUM_TOL = 1e-9            # probability sums and majorization prefixes
RECONSTRUCT_TOL = 1e-9    # mixture-against-target reconstruction
ZERO_TOL = 1e-12          # entries below this are treated as exact zeros


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0..n-1}, stored as the forward image i -> image[i]."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.image}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.image)

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.image))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.image):
            inv[j] = i
        return Permutation(tuple(inv))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Push-forward action: returns w with w[image[i]] = v[i].

        Equivalently w[k] = v[inverse(k)], the usual action of a
        permutation on a coefficient vector.
        """
        v = np.asarray(v)
        out = np.empty_like(v)
        out[list(self.image)] = v
        return out


class ProbVector:
    """Nonnegative coefficient vector summing to 1, kept in nonincreasing
    order.  The constructor sorts its input and records the applied sort
    permutation (raw index -> sorted position)."""

    __slots__ = ("_entries", "_order")

    def __init__(self, entries):
        raw = np.asarray(entries, dtype=float)
        if raw.ndim != 1 or raw.size < 1:
            raise ValueError("ProbVector needs a 1-D vector of length >= 1")
        if np.min(raw) < -ENTRY_CLAMP:
            raise ValueError(f"negative entry {np.min(raw)} below clamp {-ENTRY_CLAMP}")
        clipped = np.clip(raw, 0.0, None)
        total = float(np.sum(clipped))
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"entries sum to {total}, not 1 within {SUM_TOL}")
        # stable descending sort; ties keep their original order
        order = np.lexsort((np.arange(raw.size), -clipped))
        srt = clipped[order]
        srt.setflags(write=False)
        order.setflags(write=False)
        object.__setattr__(self, "_entries", srt)
        object.__setattr__(self, "_order", order)

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def sort_permutation(self) -> Permutation:
        """Permutation mapping each raw index to its sorted position."""
        image = np.empty(self._order.size, dtype=int)
        image[self._order] = np.arange(self._order.size)
        return Permutation(tuple(int(i) for i in image))

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

    def to_json(self) -> list[float]:
        """Canonical rendering: a plain JSON array of numbers."""
        return [float(x) for x in self._entries]

    def __setattr__(self, *_):
        raise AttributeError("ProbVector is immutable")


@dataclass(frozen=True)
class PermutationMixture:
    """Convex mixture of permutations realizing lam = sum_j p_j * (sigma_j mu)."""

    terms: tuple[tuple[float, Permutation], ...]
    n: int

    def __post_init__(self):
        if not self.terms:
            raise ValueError("mixture needs at least one term")
        total = 0.0
        for p, perm in self.terms:
            if p <= 0.0:
                raise ValueError(f"nonpositive weight {p}")
            if perm.n != self.n:
                raise ValueError("permutation dimension mismatch")
            total += p
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"weights sum to {total}")
        if len(self.terms) > self.n:
            raise ValueError(f"{len(self.terms)} terms exceed bound {self.n}")

    def reconstruct(self, mu: ProbVector) -> np.ndarray:
        """sum_j p_j * mu[sigma_j^{-1}(k)] as a plain array."""
        out = np.zeros(self.n)
        for p, perm in self.terms:
            out += p * perm.apply(mu.entries)
        return out

    def to_json(self) -> list[dict]:
        return [
            {"p": float(p), "perm": list(perm.image)} for p, perm in self.terms
        ]


def is_majorized(lam: ProbVector, mu: ProbVector, tol: float = SUM_TOL) -> bool:
    """True iff every prefix sum of lam is dominated by the one of mu.

    Both vectors are already nonincreasing by the ProbVector invariant, and
    their totals are both 1, so only prefixes 0..n-2 are checked.
    """
    return first_violation(lam, mu, tol) is None


def first_violation(lam: ProbVector, mu: ProbVector, tol: float = SUM_TOL) -> int | None:
    """Smallest prefix index witnessing non-majorization, or None."""
    if len(lam) != len(mu):
        raise ValueError(
            f"dimension mismatch {len(lam)} vs {len(mu)}; pad_to first"
        )
    if len(lam) == 1:
        return None
    lam_prefix = np.cumsum(lam.entries[:-1])
    mu_prefix = np.cumsum(mu.entries[:-1])
    bad = np.nonzero(lam_prefix > mu_prefix + tol)[0]
    return int(bad[0]) if bad.size else None


def tail_sum(v: ProbVector, l: int) -> float:
    """Sum of the entries from index l through the end."""
    if not 0 <= l <= len(v) - 1:
        raise ValueError(f"index {l} out of range for length {len(v)}")
    return float(np.sum(v.entries[l:]))


def pad_to(v: ProbVector, n: int) -> ProbVector:
    """Extend with trailing zeros so source and target ranks can differ."""
    if n < len(v):
        raise ValueError(f"cannot pad length {len(v)} down to {n}")
    if n == len(v):
        return v
    return ProbVector(np.concatenate([v.entries, np.zeros(n - len(v))]))


def mixture_for(lam: ProbVector, mu: ProbVector) -> PermutationMixture:
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

    The walk starts from the prefixes of lam that are tight in floating
    point, with no tolerance: a cut at a prefix of slack s leaves an error
    s in the reconstruction, which ``synthesize`` divides by the smallest
    lam_k.  A tight prefix that rounding misses costs one extra step of
    rounding-sized weight, which still cuts a block.

    Terms are listed from the last vertex reached back to the first, which
    puts the swap before the identity at n = 2, the order of the closed-form
    two-level plan.
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
    start = np.maximum.accumulate(np.where(begins, np.arange(n), 0))
    rest = lam.entries.copy()
    mass = 1.0
    terms: list[tuple[float, Permutation]] = []
    steps = 0
    while mass > 0.0 and steps < n:
        steps += 1
        order = np.lexsort((-rest, start))
        vertex = np.empty(n)
        vertex[order] = mu.entries
        step, cut = _largest_step(rest, mass, vertex, start, prefix)
        if step > 0.0:
            terms.append((step, Permutation(tuple(order.tolist()))))
            rest -= step * vertex
            mass = 0.0 if step == mass else mass - step
        if cut is not None:
            block = start == start[cut[0]]
            block[cut] = False
            start[block] += cut.size
    if mass > 0.0:
        raise DecompositionFailed(
            f"mixture_for: n={n}, walk stopped after {steps} steps "
            f"with mass {mass:.3g} unplaced"
        )
    mixture = PermutationMixture(tuple(reversed(terms)), n)
    residual = float(np.max(np.abs(mixture.reconstruct(mu) - lam.entries)))
    if residual > RECONSTRUCT_TOL:
        raise DecompositionFailed(
            f"mixture_for: n={n}, {steps} steps, reconstruction residual "
            f"{residual:.3g} exceeds RECONSTRUCT_TOL {RECONSTRUCT_TOL:g}"
        )
    return mixture


def _largest_step(rest, mass, vertex, start, prefix):
    """Largest t <= mass keeping rest - t * vertex in (mass - t) times the face.

    Sorting on ``start`` first puts the block owning segment [a, b) at
    positions a..b-1, so position p holds the top-(p - a + 1) sum of its
    block, capped by (mass - t) * sum(mu[a:p + 1]).  The largest excess
    G(t) over the in-block positions is convex and piecewise linear with
    G(0) <= 0, so Newton's method from t = mass runs down its active pieces
    onto the exact breakpoint.  Returns t and the index set that the step
    made tight (None when t = mass ends the walk); t is 0 when that set is
    tight already.
    """
    first = np.sort(start)
    caps = prefix[1:] - prefix[first]
    inner = np.append(first[1:] == first[:-1], False)
    step, cut = mass, None
    while True:
        z = rest - step * vertex
        order = np.lexsort((-z, start))
        run = np.concatenate(([0.0], np.cumsum(z[order])))
        excess = np.where(inner, run[1:] - run[first] - (mass - step) * caps, -np.inf)
        p = int(np.argmax(excess))
        if excess[p] <= 0.0:
            return step, cut
        cut = order[first[p]: p + 1]
        slope = caps[p] - vertex[cut].sum()
        root = (mass * caps[p] - rest[cut].sum()) / slope if slope > 0.0 else 0.0
        if root >= step:
            return step, cut
        if root <= 0.0:
            return 0.0, cut
        step = root
