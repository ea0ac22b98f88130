"""Shared generators and independent oracles for the test suite.

The oracles are deliberately plain Python (no calls into the package) so
they stay independent of the code paths they check.  The dense branch
oracles are the exception: they run every branch with the package's
``assemble`` and ``apply_local`` and dense per-party operators, the
primitives the Schmidt-coordinate engine no longer uses.
"""

from __future__ import annotations

import numpy as np

from locc_forge import (
    GeneralizedSchmidtState,
    ProbVector,
    ZeroBranch,
    apply_local,
    assemble,
    fidelity,
)


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


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_gss(
    rng: np.random.Generator,
    coeffs: ProbVector,
    dims,
) -> GeneralizedSchmidtState:
    bases = [random_unitary(rng, d) for d in dims]
    return GeneralizedSchmidtState(dims, coeffs, bases)


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


def measurement_matrix(basis: np.ndarray, diag) -> np.ndarray:
    """Dense B diag(d) B^dag, with d zero-padded to the basis dimension."""
    full = np.zeros(basis.shape[0])
    full[: len(diag)] = diag
    return basis @ np.diag(full) @ basis.conj().T


def relabel_matrix(perm, d: int) -> np.ndarray:
    """Permutation matrix P[image[k], k] = 1, the identity beyond perm.n."""
    mat = np.eye(d)
    mat[: perm.n, : perm.n] = 0.0
    for k, jk in enumerate(perm.image):
        mat[jk, k] = 1.0
    return mat


def dense_protocol(psi, phi, plan) -> list:
    """Per-branch dense run of a deterministic plan.

    Returns one entry per outcome: None when the outcome annihilates the
    state, else (probability, final state, fidelity with phi).  The final
    state is B_phi P B_psi^dag applied on every party after the
    measurement.
    """
    phi_dense = assemble(phi)
    psi_dense = assemble(psi)
    out = []
    for outcome in plan.outcomes:
        m_op = measurement_matrix(psi.bases[0], outcome.operator.diag)
        try:
            prob, post = apply_local(psi_dense, 0, m_op)
        except ZeroBranch:
            out.append(None)
            continue
        current = post
        for party, d in enumerate(psi.dims):
            u = phi.bases[party] @ relabel_matrix(outcome.unitary_perm, d) @ (
                psi.bases[party].conj().T
            )
            _, current = apply_local(current, party, u)
        out.append((prob, current, fidelity(current, phi_dense)))
    return out


def dense_conclusive(psi, phi, plan) -> list:
    """Per-branch dense run of a conclusive plan, in run_conclusive's order.

    Each realizable stage branch gives a success entry (measure, then
    B_phi B_psi^dag on every party, compared with phi) and, when the plan
    has failure coefficients, a failure entry (measure only, compared with
    the failure state in psi's bases).  Entries are (probability, final
    state, fidelity); an unrealizable stage branch gives None.
    """
    omega = GeneralizedSchmidtState(psi.dims, plan.gamma, psi.bases)
    phi_dense = assemble(phi)
    failure_dense = None
    if plan.failure_coeffs is not None:
        failure_dense = assemble(
            GeneralizedSchmidtState(psi.dims, plan.failure_coeffs, psi.bases)
        )
    success_m = measurement_matrix(psi.bases[0], plan.success_op.diag)
    failure_m = measurement_matrix(psi.bases[0], plan.failure_op.diag)
    out = []
    for stage in dense_protocol(psi, omega, plan.deterministic_stage):
        if stage is None:
            out.append(None)
            continue
        prob, state, _ = stage
        s_prob, current = apply_local(state, 0, success_m)
        for party in range(psi.m):
            u = phi.bases[party] @ psi.bases[party].conj().T
            _, current = apply_local(current, party, u)
        out.append((prob * s_prob, current, fidelity(current, phi_dense)))
        if failure_dense is not None:
            f_prob, f_post = apply_local(state, 0, failure_m)
            out.append((prob * f_prob, f_post, fidelity(f_post, failure_dense)))
    return out
