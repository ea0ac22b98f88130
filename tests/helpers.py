"""Shared generators and independent oracles for the test suite.

The oracles are deliberately plain Python (no calls into the package) so
they stay independent of the code paths they check.  Two exceptions, in
numpy: ``frozen_mixture_for`` and ``frozen_gsd_chain`` are the
permutohedron walk and the cofactor chain of GSD extraction as first
written.  The current walk must match its reference bit for bit.  The
current chain splits by Hermitian eigensolves, not SVDs, so it must match
to rounding: the same witness, residuals within 1e-14, and each extracted
column within 1e-13 up to one unit phase.  The other exception is
the dense oracles, which assemble states term by term
(``assemble_unsorted``), compare them by a plain ``np.vdot`` and run every
branch with dense per-party operators through ``apply_local`` below, the
full-tensor work that the diagonal Schmidt-coordinate engine does not do.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from locc_forge import (
    DenseState,
    GeneralizedSchmidtState,
    ProbVector,
    ZeroBranch,
)
from locc_forge.majorization import ZERO_TOL


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: a product of k + 1
    floats errs relatively by at most gamma_k, and a sum of k + 1 terms by
    gamma_k times the sum of their magnitudes, in any order (Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 3)."""
    u = 2.0**-53
    return k * u / (1.0 - k * u)


def passed(checks: dict) -> bool:
    """A check table passes when every check in it does."""
    return all(check.ok for check in checks.values())


def prefix_sum_majorized(lam, mu, tol: float = 1e-9) -> bool:
    """Independent majorization oracle: sorted copies, running prefix sums."""
    a = sorted((float(x) for x in lam), reverse=True)
    b = sorted((float(x) for x in mu), reverse=True)
    assert len(a) == len(b)
    run_a = 0.0
    run_b = 0.0
    for k in range(len(a) - 1):
        run_a += a[k]
        run_b += b[k]
        if run_a > run_b + tol:
            return False
    return True


def brute_force_pmax(lam, mu) -> float:
    """Direct evaluation of the tail-ratio minimum, plain Python."""
    a = [float(x) for x in lam]
    b = [float(x) for x in mu]
    best = 1.0
    for l in range(len(a)):
        tail_a = sum(a[l:])
        tail_b = sum(b[l:])
        if tail_b <= 1e-12:
            continue
        ratio = 0.0 if tail_a <= 1e-12 else tail_a / tail_b
        best = min(best, ratio)
    return min(max(best, 0.0), 1.0)


def exact_pmax(lam, mu) -> float:
    """p_max in exact rational arithmetic over the float entries: the
    smallest ratio of source tail to target tail, tails summed from the
    right, over every cut with a positive target tail, at most 1."""
    tail_a = tail_b = Fraction(0)
    best = Fraction(1)
    for a, b in zip(reversed([float(x) for x in lam]), reversed([float(x) for x in mu])):
        tail_a += Fraction(a)
        tail_b += Fraction(b)
        if tail_b > 0:
            best = min(best, tail_a / tail_b)
    return float(best)


def loop_completeness(plan, lam) -> float:
    """max_k |sum_j diag_jk^2 - 1| over the levels with lam_k > 0, summed
    in plain loops."""
    diags = plan.diags.tolist()
    return max(abs(sum(row[k] ** 2 for row in diags) - 1.0)
               for k, x in enumerate(lam) if x > 0.0)


def loop_reconstruct(weights, rows, mu) -> np.ndarray:
    """sum_j weights[j] * mu[rows[j][k]] at every level k, summed in plain
    loops: the source that a mixture, or a plan's weights and relabelings,
    rebuilds."""
    b = [float(x) for x in mu]
    recon = [0.0] * len(b)
    for p, row in zip(np.asarray(weights).tolist(), np.asarray(rows).tolist()):
        for k, src in enumerate(row):
            recon[k] += p * b[src]
    return np.array(recon)


def loop_min_tail_ratio(e_lam, e_mu, end: int) -> tuple[float, int]:
    """The tail-ratio scan as a plain loop over l < end: ratio
    (e_lam[l]-e_lam[end])/(e_mu[l]-e_mu[end]), zero denominators skipped,
    zero numerators counted as 0; a ratio within 1e-12 of the best so far
    keeps the best value and moves the index to the larger l."""
    best = float("inf")
    best_l = 0
    for l in range(end):
        den = float(e_mu[l]) - float(e_mu[end])
        num = float(e_lam[l]) - float(e_lam[end])
        if den <= 1e-12:
            continue
        ratio = 0.0 if num <= 1e-12 else num / den
        if ratio < best - 1e-12:
            best = ratio
            best_l = l
        elif ratio <= best + 1e-12:
            best_l = max(best_l, l)
    return best, best_l


def frozen_mixture_for(lam, mu, cuts=()) -> tuple[np.ndarray, np.ndarray]:
    """The permutohedron walk as ``mixture_for`` first wrote it, kept as the
    reference for its faster form: the face (each index's block start, the
    caps and the in-block positions) is rebuilt from scratch and the
    remainder re-sorted at every step.  Takes lam and mu as majorized
    ProbVectors and returns (weights, terms) as ``mixture_for`` orders
    them; no check, no error path."""
    n = len(lam)
    prefix = np.concatenate(([0.0], np.cumsum(mu.entries)))
    tight = prefix[1:] - np.cumsum(lam.entries) <= 0.0
    begins = np.concatenate(([True], tight[:-1]))
    begins[list(cuts)] = True
    start = np.maximum.accumulate(np.where(begins, np.arange(n), 0))
    rest = lam.entries.copy()
    mass = 1.0
    levels = np.arange(n)
    weights, rows = [], []
    steps = 0
    while mass > 0.0 and steps < n:
        steps += 1
        order = np.lexsort((-rest, start))
        row = np.empty(n, dtype=np.intp)
        row[order] = levels
        vertex = mu.entries[row]
        step, cut = _frozen_largest_step(rest, mass, vertex, start, prefix)
        if step > 0.0:
            weights.append(step)
            rows.append(row)
            rest -= step * vertex
            mass = 0.0 if step == mass else mass - step
        if cut is not None:
            block = start == start[cut[0]]
            block[cut] = False
            start[block] += cut.size
    return np.array(weights[::-1]), np.stack(rows[::-1])


def _frozen_largest_step(rest, mass, vertex, start, prefix):
    """The Newton search of ``frozen_mixture_for``: the face arrays from
    ``start``, a lexsort, a concatenated cumsum and a masked excess at
    every iteration."""
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


def frozen_gsd_chain(w: np.ndarray, dims) -> tuple[list[np.ndarray], np.ndarray]:
    """The cofactor chain of ``extract_gsd`` as first written, kept as the
    SVD reference for ``_cofactor_chain``: one SVD per cofactor (row k of w, over
    parties 1..) and party 1..m-2, whose leading left singular vector is
    the party's and whose leading right one goes on.  Returns each party's
    (d_i, n) columns and the (m - 2, n) residuals 1 - s_0^2; no cofactor
    is dropped when one fails."""
    n = len(w)
    cols = [[] for _ in dims[1:]]
    residuals = np.empty((len(dims) - 2, n))
    for k in range(n):
        v = w[k, :]
        for rel, d_i in enumerate(dims[1:-1]):
            u2, s2, v2h = np.linalg.svd(v.reshape(d_i, -1), full_matrices=False)
            residuals[rel, k] = float(1.0 - s2[0] ** 2)
            cols[rel].append(u2[:, 0])
            v = v2h[0, :]
        cols[-1].append(v)
    return [np.column_stack(c) for c in cols], residuals


def sorted_tensor(lam, c) -> list[float]:
    """Plain-Python sorted elementwise product of two vectors."""
    prods = [float(x) * float(y) for x in lam for y in c]
    return sorted(prods, reverse=True)


def random_probs(rng: np.random.Generator, n: int, floor: float = 1e-3) -> ProbVector:
    v = rng.dirichlet(np.ones(n))
    v = (v + floor) / (1.0 + n * floor)
    return ProbVector(v)


def t_chain(rng: np.random.Generator, mu: ProbVector, transforms: int) -> ProbVector:
    """Source vector obtained from mu by a random T-transform chain."""
    v = mu.entries.copy()
    n = v.size
    for _ in range(transforms):
        if n < 2:
            break
        i, j = rng.choice(n, size=2, replace=False)
        t = rng.uniform(0.0, 1.0)
        vi, vj = v[i], v[j]
        v[i] = t * vi + (1.0 - t) * vj
        v[j] = (1.0 - t) * vi + t * vj
    return ProbVector(v)


def slack_pairs(n: int):
    """Raw (lam, mu) arrays of a strictly majorized T-chain pair at rank n,
    with lam or mu scaled by 1 +- 1e-11, 1e-10 and 5e-10: inputs whose sums
    miss 1 by less than the ProbVector allowance."""
    rng = np.random.default_rng(100 + n)
    mu = random_probs(rng, n)
    lam = t_chain(rng, mu, transforms=4 * n)
    assert np.all(np.cumsum(lam.entries)[:-1] < np.cumsum(mu.entries)[:-1])
    for eps in (1e-11, 1e-10, 5e-10):
        for scale in (1.0 + eps, 1.0 - eps):
            yield lam.entries * scale, mu.entries
            yield lam.entries, mu.entries * scale


def prefix_band_pairs(v: float):
    """60 raw (lam, mu) arrays at ranks 3..16 that are majorized only within
    v of one prefix: lam is mu with v moved from level k+1 to level k, so
    lam's prefix k exceeds mu's by v."""
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(3, 17))
        mu = random_probs(rng, n).entries
        k = int(rng.integers(0, n - 1))
        lam = mu.copy()
        lam[k] += v
        lam[k + 1] -= v
        yield lam, mu


def dark_level_pairs(count: int = 400, seed: int = 2):
    """count raw (lam, mu) arrays where mu has zeros and a steep tail, so
    that lam's tiny entries can land on levels that no outcome of a plan
    reaches: n in {3, 5, 8, 16, 64}; mu has entries u**s for uniform u,
    with s in {20, 60, 150, 400}, and each entry but the largest set to 0
    with probability 0.3; lam is 2n random T-transforms of mu (probability
    0.7) or drawn independently in the same way."""
    rng = np.random.default_rng(seed)

    def draw(n):
        # u**s in logs, scaled so that the largest entry is 1 and no draw
        # underflows to all zeros
        logs = float(rng.choice([20, 60, 150, 400])) * np.log(rng.uniform(size=n))
        v = np.exp(logs - logs.max())
        v[(rng.uniform(size=n) < 0.3) & (v < 1.0)] = 0.0
        return v / v.sum()

    for _ in range(count):
        n = int(rng.choice([3, 5, 8, 16, 64]))
        mu = draw(n)
        if rng.uniform() < 0.7:
            lam = t_chain(rng, ProbVector(mu), transforms=2 * n).entries
        else:
            lam = draw(n)
        yield lam, mu


def random_columns(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """d x n orthonormal columns: the Q factor of a complex Gaussian matrix."""
    z = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    return random_columns(rng, d, d)


def random_gss(
    rng: np.random.Generator,
    coeffs: ProbVector,
    dims,
) -> GeneralizedSchmidtState:
    bases = [random_columns(rng, d, len(coeffs)) for d in dims]
    return GeneralizedSchmidtState(dims, coeffs, bases)


def full_basis(cols: np.ndarray) -> np.ndarray:
    """A unitary whose first columns are the orthonormal columns cols.

    The Q factor of [cols | I] spans the whole space and its first k
    columns span cols, so its other columns complete them.
    """
    d, k = cols.shape
    q = np.linalg.qr(np.hstack([cols, np.eye(d)]))[0]
    return np.hstack([cols, q[:, k:d]])


def random_doubly_stochastic(rng: np.random.Generator, n: int, transforms: int) -> np.ndarray:
    """Product of random T-transforms; doubly stochastic by construction."""
    d = np.eye(n)
    for _ in range(transforms):
        i, j = rng.choice(n, size=2, replace=False)
        t = rng.uniform(0.0, 1.0)
        trans = np.eye(n)
        trans[i, i] = trans[j, j] = t
        trans[i, j] = trans[j, i] = 1.0 - t
        d = trans @ d
    return d


def assemble_unsorted(s: GeneralizedSchmidtState, coeffs=None) -> DenseState:
    """Dense state sum_k sqrt(c_k) b_0k (x) b_1k (x) ..., one outer-product
    term per k, with c = coeffs (kept on their given basis levels, not
    sorted) or s's own coefficients."""
    coeffs = s.coeffs.entries if coeffs is None else coeffs
    amps = np.zeros(s.dims, dtype=complex)
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        term = s.bases[0][:, k]
        for basis in s.bases[1:]:
            term = np.multiply.outer(term, basis[:, k])
        amps = amps + np.sqrt(c) * term
    return DenseState(amps.reshape(-1), s.dims)


def dense_fidelity(a: DenseState, b: DenseState) -> float:
    """|<a|b>|^2, with <a|b> = sum_i conj(a_i) b_i exactly rounded: each
    real product is rounded once and ``math.fsum`` adds them, so the value
    depends on neither the BLAS nor its thread count."""
    x, y = a.amplitudes, b.amplitudes
    re = math.fsum(np.concatenate([x.real * y.real, x.imag * y.imag]).tolist())
    im = math.fsum(np.concatenate([x.real * y.imag, -(x.imag * y.real)]).tolist())
    return abs(complex(re, im)) ** 2


def apply_local(state: DenseState, party: int, op: np.ndarray) -> tuple[float, DenseState]:
    """Apply a one-party operator to a dense state; returns (branch
    probability, normalized post-measurement state)."""
    if not 0 <= party < state.m:
        raise ValueError(f"party {party} out of range")
    op = np.asarray(op, dtype=complex)
    d = state.dims[party]
    if op.shape != (d, d):
        raise ValueError(f"operator must be {d}x{d}")
    moved = np.tensordot(op, state.tensor(), axes=([1], [party]))
    out = np.moveaxis(moved, 0, party).reshape(-1)
    prob = float(np.vdot(out, out).real)
    if prob <= ZERO_TOL:
        raise ZeroBranch(f"operator on party {party} annihilated the state")
    return prob, DenseState(out / np.sqrt(prob), state.dims)


def measurement_matrix(basis: np.ndarray, diag) -> np.ndarray:
    """Dense B diag(d) B^dag over the first len(d) columns of B."""
    cols = basis[:, : len(diag)]
    return (cols * np.asarray(diag)) @ cols.conj().T


def relabel_matrix(perm, d: int) -> np.ndarray:
    """Permutation matrix P[perm[k], k] = 1, the identity beyond len(perm)."""
    n = len(perm)
    mat = np.eye(d)
    mat[:n, :n] = 0.0
    for k, jk in enumerate(perm):
        mat[jk, k] = 1.0
    return mat


def dense_protocol(psi, phi, plan) -> list:
    """Per-branch dense run of a deterministic plan.

    Returns one entry per outcome: None when the outcome annihilates the
    state, else (probability, final state, fidelity with phi).  The final
    state is B_phi P B_psi^dag applied on every party after the
    measurement, B being each state's Schmidt columns completed to a
    unitary.
    """
    phi_dense = assemble_unsorted(phi)
    psi_dense = assemble_unsorted(psi)
    phi_full = [full_basis(b) for b in phi.bases]
    psi_full = [full_basis(b) for b in psi.bases]
    out = []
    for diag, perm in zip(plan.diags, plan.perms):
        m_op = measurement_matrix(psi.bases[0], diag)
        try:
            prob, post = apply_local(psi_dense, 0, m_op)
        except ZeroBranch:
            out.append(None)
            continue
        current = post
        for party, d in enumerate(psi.dims):
            u = phi_full[party] @ relabel_matrix(perm, d) @ psi_full[party].conj().T
            _, current = apply_local(current, party, u)
        out.append((prob, current, dense_fidelity(current, phi_dense)))
    return out


def dense_conclusive(psi, phi, plan) -> list:
    """Per-branch dense run of a conclusive plan, in run_conclusive's order.

    Each realizable stage branch gives one entry per outcome of the settle
    plan (``plan.settle.diags``), whose relabelings are all the identity:
    outcome 0 measures, then applies B_phi B_psi^dag on every party and
    is compared with phi; outcome 1 measures only and is compared with the
    failure state in psi's bases.  Entries are (probability, final state,
    fidelity); an unrealizable stage branch gives None.
    """
    assert np.all(plan.settle.perms == np.arange(psi.n))
    omega = GeneralizedSchmidtState(psi.dims, plan.gamma, psi.bases)
    phi_dense = assemble_unsorted(phi)
    failure_dense = None
    if plan.failure_coeffs is not None:
        failure_dense = assemble_unsorted(psi, plan.failure_coeffs.entries)
    success_m, *failure_m = [measurement_matrix(psi.bases[0], diag)
                             for diag in plan.settle.diags]
    rotations = [
        full_basis(phi_b) @ full_basis(psi_b).conj().T
        for phi_b, psi_b in zip(phi.bases, psi.bases)
    ]
    out = []
    for stage in dense_protocol(psi, omega, plan.deterministic_stage):
        if stage is None:
            out.append(None)
            continue
        prob, state, _ = stage
        s_prob, current = apply_local(state, 0, success_m)
        for party, u in enumerate(rotations):
            _, current = apply_local(current, party, u)
        out.append((prob * s_prob, current, dense_fidelity(current, phi_dense)))
        for m_op in failure_m:
            f_prob, f_post = apply_local(state, 0, m_op)
            out.append((prob * f_prob, f_post, dense_fidelity(f_post, failure_dense)))
    return out
