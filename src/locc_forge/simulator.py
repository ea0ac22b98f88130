"""Dense multipartite pure-state simulator.

Executes measure-broadcast-rotate protocols on structured states, and
operationally tests whether an arbitrary dense state admits the
structured (single-sum) form.  Both rest on one dense contraction,
``_contract``: amplitude blocks against n product vectors.

Protocols are checked in Schmidt coordinates.  The states a run compares
are assembled densely in one pass per set of bases, a slice of party 1's
levels at a time: the slice's product chain of parties 1.. is formed once,
each state's block is one matmul of it with that state's scaled party-0
columns, and each block is contracted with the n product basis vectors as
it is formed (party 0, then the trailing parties from the last, then
party 1's slice), so no array of all D amplitudes is held.  In those
coordinates a state is diagonal, amplitude sqrt(coeff_k) at (k, ..., k),
so its n diagonal amplitudes carry it.  The squared norm they miss, the
off-diagonal mass, is a reported check that keeps the
assembly -> coordinates round trip honest.  A measurement outcome then
scales the diagonal by its Kraus diagonal and a relabeling permutes it,
O(n) per outcome.  Fidelity needs no rotation back, since the branch and
the target share the local unitary (any completion of the target's Schmidt
columns) that separates them from their dense forms.  Extraction
splits party 0 from the rest by one Hermitian eigensolve of a Gram
matrix, and then every cofactor of that split at once, one party at a
time, by one batched eigensolve; it contracts its input with the product
vectors it extracted, and the overlap with the extracted state is its
reassembly fidelity.

Classical communication is a recorded event here, not a socket: each
branch of the transcript is one broadcast outcome, with what the run
measured on it.  Every branch follows one fixed schedule of single-party
operations, so none is listed per branch: party 0 measures, the outcome
is broadcast and every party relabels its Schmidt levels; a conclusive
run (``run_conclusive``, of the plan that ``probabilistic`` builds)
then has party 0 make the settle measurement, success or failure, and on
success every party applies its unitary.  The transcript's check
table holds each check once, with its value, tolerance and verdict.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ZeroBranch
from .majorization import DEGENERACY_GAP, UNIT_TOL, ZERO_TOL, Check, ProbVector
from .probabilistic import ConclusivePlan
from .protocol import MeasurementPlan

MAX_PARTIES = 6
MAX_AMPLITUDES = 2**20
# Amplitudes per block of the dense check, 256 KiB of complex: a larger
# state is formed and contracted a slice of party 1's levels at a time
# (``_amplitude_blocks``), so that no array of all its amplitudes is held
# unless party 0's n Schmidt columns are as large.
_BLOCK = 2**14


def _check_caps(dims: tuple[int, ...]) -> int:
    if len(dims) > MAX_PARTIES:
        raise CapExceeded(f"{len(dims)} parties exceed cap {MAX_PARTIES}")
    for d in dims:
        if d < 1:
            raise ValueError(f"bad local dimension {d}")
    total = 1
    for d in dims:
        total *= d
        if total > MAX_AMPLITUDES:  # before the product can outgrow str()
            raise CapExceeded(f"the dims' amplitudes exceed cap {MAX_AMPLITUDES}")
    return total


def _check_norm(norm_sq: float) -> None:
    """Refuse a state whose squared norm is not 1 within UNIT_TOL."""
    if not abs(norm_sq - 1.0) <= UNIT_TOL:
        raise ValueError(f"squared norm {norm_sq} deviates from 1")


class DenseState:
    """Normalized complex amplitude tensor, stored flat in row-major order."""

    __slots__ = ("amplitudes", "dims")

    def __init__(self, amplitudes, dims):
        dims = tuple(map(operator.index, dims))
        expected = _check_caps(dims)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != expected:
            raise ValueError(f"{amps.size} amplitudes for dims {dims}")
        _check_norm(float(np.vdot(amps, amps).real))
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def __setattr__(self, *_):
        raise AttributeError("DenseState is immutable")

    @property
    def m(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


class NotUnitary(ValueError):
    """A basis, of party ``party``, whose columns are not orthonormal by
    ``residual``, the largest entry of |B^dag B - 1|."""

    def __init__(self, party: int, residual: float):
        super().__init__(f"basis {party} not unitary (residual {residual})")
        self.party, self.residual = party, residual


class GeneralizedSchmidtState:
    """Structured state: coefficients plus n Schmidt vectors per party.

    Each party's basis is a dims_i x n matrix whose columns are that
    party's Schmidt vectors, aligned with the sorted coefficients.  The
    constructor takes any dims_i x k matrix with orthonormal columns and
    k >= n (a full unitary included), checks it and keeps its first n
    columns.
    """

    __slots__ = ("dims", "coeffs", "bases")

    def __init__(self, dims, coeffs: ProbVector, bases):
        dims = tuple(map(operator.index, dims))
        if len(dims) < 2:
            raise ValueError("need at least two parties")
        _check_caps(dims)
        if len(bases) != len(dims):
            raise ValueError("one basis per party required")
        n = len(coeffs)
        mats = []
        for i, b in enumerate(bases):
            mat = np.asarray(b, dtype=complex)
            if mat.ndim != 2 or mat.shape[0] != dims[i] or mat.shape[1] < n:
                raise ValueError(f"basis {i} must be {dims[i]}xk with k >= rank {n}")
            # a non-finite entry gives a NaN or infinite residual, which fails
            with np.errstate(invalid="ignore", over="ignore"):
                residual = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1]))))
            if not residual <= UNIT_TOL:
                raise NotUnitary(i, residual)
            mat = mat[:, :n].copy()
            mat.setflags(write=False)
            mats.append(mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "bases", tuple(mats))

    def __setattr__(self, *_):
        raise AttributeError("GeneralizedSchmidtState is immutable")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @classmethod
    def computational(cls, dims, coeffs: ProbVector) -> "GeneralizedSchmidtState":
        _check_caps(tuple(dims))  # before any d x n column block is built
        return cls(dims, coeffs, [np.eye(d, len(coeffs), dtype=complex) for d in dims])

    def _with_coeffs(self, coeffs: ProbVector) -> "GeneralizedSchmidtState":
        """The same state with other coefficients of the same rank.

        The bases were checked when self was built and are immutable, so
        they are shared, not checked again.
        """
        if len(coeffs) != self.n:
            raise ValueError(f"rank {len(coeffs)} differs from the state's {self.n}")
        out = object.__new__(GeneralizedSchmidtState)
        for name in ("dims", "bases"):
            object.__setattr__(out, name, getattr(self, name))
        object.__setattr__(out, "coeffs", coeffs)
        return out


def _amplitude_blocks(states):
    """Yield (lo, hi, i, amps) for consecutive slices lo..hi-1 of party 1's
    levels and, within a slice, for each state i of states, which share one
    set of bases: amps is the (d_0, (hi - lo) r) block of state i's
    amplitudes with party 1 in the slice, r the dimension of parties 2..

    The columns of parties 2.., if any, are chained once into an (r, n)
    outer product.  A slice's chain, party 1's rows times it (the rows
    themselves for two parties), is formed once for all the states, and
    each state's block is one matmul of it with that state's scaled
    party-0 columns, formed per block.  A block holds at most _BLOCK
    amplitudes, or as many as those d_0 x n columns if that is more (so
    each matmul is at least n columns wide), and at least one level of
    party 1.  All blocks share one buffer: each is valid until the next.
    """
    bases, dims = states[0].bases, states[0].dims
    n, d0, d1 = bases[0].shape[1], dims[0], dims[1]
    sub = bases[-1] if len(bases) > 2 else None
    for basis in bases[-2:1:-1]:
        sub = (basis[:, None, :] * sub[None, :, :]).reshape(-1, n)
    r = math.prod(dims[2:])
    roots = [np.sqrt(s.coeffs.entries) for s in states]
    step = min(d1, max(1, max(_BLOCK, d0 * n) // (d0 * r)))
    chain = None if sub is None else np.empty((step, r, n), dtype=complex)
    amps = np.empty(d0 * step * r, dtype=complex)
    for lo in range(0, d1, step):
        hi = min(lo + step, d1)
        part = bases[1][lo:hi]
        if sub is not None:
            part = np.multiply(part[:, None, :], sub, out=chain[:hi - lo]).reshape(-1, n)
        block = amps[:d0 * (hi - lo) * r].reshape(d0, -1)
        for i, root in enumerate(roots):
            yield lo, hi, i, np.matmul(bases[0] * root, part.T, out=block)


def _contract(blocks, bases, count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals <b_0k|<b_1k|...|amps> of count states and their
    squared norms, summed over blocks (lo, hi, i, amps) of state i shaped
    as ``_amplitude_blocks`` yields them, against each party's n columns
    b_ik in bases.  A block is contracted with party 0's conjugated
    columns (one matmul), then with each trailing party's columns, the
    last party first (one batched mat-vec each), and last with party 1's
    rows for its slice (an elementwise product-sum): O(n D) in all.  The
    conjugated columns are formed once per call."""
    n = bases[0].shape[1]
    head = bases[0].conj().T
    tails = [basis.conj().T[:, :, None] for basis in bases[:1:-1]]  # (n, d_i, 1)
    diag, norm_sq = np.zeros((count, n), dtype=complex), np.zeros(count)
    for lo, hi, i, amps in blocks:
        norm_sq[i] += np.vdot(amps, amps).real
        x = head @ amps
        for cols in tails:
            x = np.matmul(x.reshape(n, -1, cols.shape[1]), cols)
        # sum_l conj(b_1lk) x_kl, as the conjugate of sum_l b_1lk conj(x_kl):
        # x is this call's own, so no slice of party 1 is conjugated
        x = np.conjugate(x, out=x).reshape(n, hi - lo)
        diag[i] += np.einsum("kl,lk->k", x, bases[1][lo:hi]).conj()
        del x  # freed before the next block is formed, as it may be D amplitudes
    return diag, norm_sq


@dataclass(frozen=True)
class BranchRecord:
    """What a run measured on one outcome; fidelity is None where a
    zero-weight outcome annihilated the state."""

    outcome: int
    simulated_prob: float
    fidelity: float | None = None
    success: bool | None = None  # set only by conclusive runs


@dataclass(frozen=True)
class Transcript:
    """Audit trail of one protocol run: its branches and its check table."""

    branches: tuple[BranchRecord, ...]
    checks: dict[str, Check]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks.values())

    @property
    def success_probability(self) -> float:
        """Summed probability of the conclusive success branches."""
        return float(sum(br.simulated_prob for br in self.branches if br.success))


def _coords(*states: GeneralizedSchmidtState) -> list[tuple[np.ndarray, float]]:
    """Contract each state with its n product basis vectors: one blocked
    pass per distinct bases object, shared by every state that holds it
    (``_with_coeffs`` passes its state's on).

    Returns, per state, the diagonal amplitudes <b_0k|<b_1k|...|s> and the
    off-diagonal mass |1 - sum_k |diag_k|^2|, the squared norm the diagonal
    misses.  Every amplitude of every state is formed, by
    ``_amplitude_blocks``, and counted in its squared norm, which must be 1
    as for a DenseState; no array of all D amplitudes is held unless party
    0's n columns are as large.  The contraction uses the per-party bases,
    not the assembly chain, so an assembly fault shows as off-diagonal mass.
    """
    passes: dict[int, list[int]] = {}
    for i, s in enumerate(states):
        passes.setdefault(id(s.bases), []).append(i)
    out = [None] * len(states)
    for members in passes.values():
        group = [states[i] for i in members]
        diags, norms = _contract(_amplitude_blocks(group), group[0].bases, len(group))
        for i, diag, norm_sq in zip(members, diags, norms.tolist()):
            _check_norm(norm_sq)
            out[i] = diag, abs(1.0 - float(np.vdot(diag, diag).real))
    return out


def _branches(
    plan: MeasurementPlan, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and fidelities, (J,) or (B, J), of every outcome of
    plan on one diagonal source (n,) or a stack (B, n) of normalized ones,
    against row j of targets (J, n) or the one target (n,).  Outcome j
    scales a source s by its Kraus diagonal d_j and moves level k to
    perms[j, k]: probability |d_j s|^2, fidelity |<target_j|branch>|^2
    over it, each one matmul, with no branch formed.  Where an outcome
    annihilates a source (probability at most ZERO_TOL) they are 0 and
    NaN, and ZeroBranch is raised if its weight is above ZERO_TOL."""
    diags, perms = plan.diags, plan.perms
    # target_j at the level that level k of the source moves to
    pulled = (targets[perms] if targets.ndim == 1
              else targets[np.arange(len(perms))[:, None], perms])
    probs = np.abs(sources)**2 @ (diags**2).T
    fids = np.abs(sources @ (pulled.conj() * diags).T)**2
    if probs.min(initial=np.inf) > ZERO_TOL:
        return probs, fids / probs
    dead = probs <= ZERO_TOL
    culprit = np.argwhere(dead & (plan.weights > ZERO_TOL))
    if culprit.size:
        *source, j = culprit[0].tolist()
        raise ZeroBranch(f"outcome {j} carries weight {plan.weights[j]} but annihilated "
                         + (f"source {source[0]}" if source else "the state"))
    probs[dead] = 0.0
    return probs, np.divide(fids, probs, out=np.full(probs.shape, np.nan), where=~dead)


def _record(outcome: int, prob: float, fid: float, success=None) -> BranchRecord:
    """A branch's record; a NaN fidelity marks an annihilated outcome."""
    return BranchRecord(outcome, prob, None if fid != fid else fid, success)


def _branch_checks(
    weights: np.ndarray, branches: tuple[BranchRecord, ...]
) -> dict[str, Check]:
    """Checks of one measurement's branches: their probabilities sum to 1
    and match the outcome weights, and each lands on its target.  Branches
    that a zero-weight outcome annihilated are left out."""
    live = [br for br in branches if br.fidelity is not None]
    prob_sum = sum(br.simulated_prob for br in live)
    mismatch = max(
        (abs(br.simulated_prob - weights[br.outcome]) for br in live), default=0.0
    )
    return {
        "prob_sum_error": Check.within(abs(prob_sum - 1.0), UNIT_TOL),
        "max_weight_mismatch": Check.within(mismatch, UNIT_TOL),
        "min_fidelity": Check.fidelity(min((br.fidelity for br in live), default=1.0)),
    }


def _run(
    psi: GeneralizedSchmidtState,
    targets: list[GeneralizedSchmidtState | ProbVector],
    plan: MeasurementPlan,
    settle: MeasurementPlan | None = None,
) -> tuple[tuple[BranchRecord, ...], Check, Iterator | None]:
    """Run plan's outcomes on psi against targets[0] and, given settle,
    settle's outcome i on every live branch against targets[1 + i].

    A target is a state, or a coefficient vector standing for psi's state
    with those coefficients, which shares psi's checked bases and so its
    dense pass.  psi and the targets are reduced to their n diagonal
    amplitudes in their own bases by one ``_coords`` call, one blocked
    pass per set of bases.  Outcome j scales psi's diagonal by its Kraus
    diagonal (the squared norm is the simulated probability) and permutes
    it by its relabeling; the overlap with a target's diagonal is the dense
    fidelity, as both dense states carry the target's bases.  settle runs
    on every live branch at once, normalized, in the levels plan moved it
    to.  Returns plan's records, the ``offdiag_mass`` check (the most
    squared norm psi or a target leaves off its diagonal) and, given
    settle, an iterator of one (probabilities, fidelities) pair per live
    record, the probabilities of the whole run.
    """
    for target in targets:
        if isinstance(target, ProbVector):
            continue
        if psi.dims != target.dims:
            raise ValueError(f"incompatible dims {psi.dims} vs {target.dims}")
        if psi.n != target.n:
            raise ValueError("pad coefficient vectors to a common rank first")
    if plan.n != psi.n or (settle is not None and settle.n != psi.n):
        raise ValueError("plan dimension does not match the states")
    states = [psi._with_coeffs(t) if isinstance(t, ProbVector) else t for t in targets]
    diags, masses = zip(*_coords(psi, *states))
    probs, fids = _branches(plan, diags[0], diags[1])
    records = tuple(map(_record, range(plan.weights.size), probs.tolist(), fids.tolist()))
    offdiag = Check.within(max(masses), UNIT_TOL)
    if settle is None:
        return records, offdiag, None
    live = probs > 0.0
    moved = np.empty(plan.diags.shape, dtype=complex)
    moved[np.arange(len(moved))[:, None], plan.perms] = plan.diags * diags[0]
    sources = moved[live] / np.sqrt(probs[live])[:, None]
    settle_probs, settle_fids = _branches(settle, sources, np.array(diags[2:]))
    return records, offdiag, iter(zip((probs[live, None] * settle_probs).tolist(),
                                      settle_fids.tolist()))


def run_protocol(
    psi: GeneralizedSchmidtState,
    phi: GeneralizedSchmidtState,
    plan: MeasurementPlan,
) -> Transcript:
    """Execute measure-broadcast-rotate on every outcome and verify it
    (``_run``).  The check table adds ``offdiag_mass`` to the branch
    checks."""
    records, offdiag, _ = _run(psi, [phi], plan)
    return Transcript(records, {**_branch_checks(plan.weights, records),
                                "offdiag_mass": offdiag})


def run_conclusive(
    psi: GeneralizedSchmidtState, phi: GeneralizedSchmidtState, plan: ConclusivePlan
) -> Transcript:
    """Deterministic stage into the waypoint omega, then the settle
    measurement on party A, with every branch checked against its target.

    ``_run`` runs the stage against omega and settles every live stage
    branch against phi (outcome 0) and the failure state; omega and the
    failure state take psi's bases, and B_phi B_psi^dag is the identity on
    coordinates.  The check table holds the success probability against
    p_max, the success fidelity, the probability sum, ``offdiag_mass``,
    and the stage's own branch checks under ``stage_`` names.
    """
    stage = plan.deterministic_stage
    targets = [plan.gamma, phi]
    if plan.failure_coeffs is not None:
        targets.append(plan.failure_coeffs)
    stage_records, offdiag, settled = _run(psi, targets, stage, plan.settle)

    branches = []
    for record in stage_records:
        if record.fidelity is None:  # annihilated by a zero-weight outcome
            branches.append(record)
        else:
            branches += [_record(record.outcome, prob, fid, i == 0)
                         for i, (prob, fid) in enumerate(zip(*next(settled)))]

    prob_sum = sum(br.simulated_prob for br in branches)
    success_prob = sum(br.simulated_prob for br in branches if br.success)
    success_fid = min((br.fidelity for br in branches if br.success), default=0.0)
    stage_checks = _branch_checks(stage.weights, stage_records)
    checks = {
        "success_prob_error": Check.within(abs(success_prob - plan.p_max), UNIT_TOL),
        "min_success_fidelity": Check.fidelity(success_fid),
        "prob_sum_error": Check.within(abs(prob_sum - 1.0), UNIT_TOL),
        "offdiag_mass": offdiag,
        **{f"stage_{name}": check for name, check in stage_checks.items()},
    }
    return Transcript(tuple(branches), checks)


@dataclass(frozen=True)
class GsdWitness:
    """Why extraction rejected: which cofactor broke, where, by how much."""

    kind: str  # "entangled_cofactor" | "party_overlap" | "reassembly"
    index: int
    party: int | None
    residual: float


@dataclass(frozen=True)
class GsdExtraction:
    verdict: str  # "admits" | "rejects"
    state: GeneralizedSchmidtState | None = None
    reassembly_fidelity: float | None = None
    witness: GsdWitness | None = None
    inconclusive_degenerate: bool = False


def _cofactor_chain(w: np.ndarray, dims: tuple[int, ...], tol: float):
    """Split the rows of w, the n unit cofactors over parties 1.., into one
    vector per party, all n at once, one party 1..m-2 at a time.  Each
    cofactor, reshaped to a (d_i, rest) matrix M, gives its Gram matrix
    M M^H, and one batched ``eigh`` of the n of them gives each top
    eigenvalue and eigenvector u: u is the party's vector, 1 - the
    eigenvalue the residual, and u^H M, normalized, goes on.  Where d_i
    exceeds rest, the Gram matrix is M^H M and the two roles swap, so each
    is min(d_i, rest) square.  Returns each party's (d_i, n) columns, or
    the witness (k, party, residual) of the smallest cofactor whose
    residual exceeds tol, at its first such party."""
    n = len(w)
    cols, residuals = [], []
    for d_i in dims[1:-1]:
        mats = w.reshape(n, d_i, -1)
        tall = d_i > mats.shape[2]
        if tall:
            mats = mats.conj().transpose(0, 2, 1)
        vals, vecs = np.linalg.eigh(mats @ mats.conj().transpose(0, 2, 1))
        top = vecs[:, :, -1]
        residuals.append(1.0 - vals[:, -1])
        other = np.matmul(top.conj()[:, None, :], mats)[:, 0]
        other /= np.linalg.norm(other, axis=1, keepdims=True)
        u, w = (other.conj(), top.conj()) if tall else (top, other)
        cols.append(u.T)
    failing = np.array(residuals).reshape(-1, n) > tol
    if failing.any():
        k = int(np.flatnonzero(failing.any(axis=0))[0])
        party = int(np.flatnonzero(failing[:, k])[0])
        return k, party + 1, float(residuals[party][k])
    return [*cols, w.T]


def extract_gsd(state: DenseState, tol: float = UNIT_TOL) -> GsdExtraction:
    """Operational structured-form test.

    Splits party 0 against the rest: where d_0 is at most the rest's
    dimension, party 0's vectors U are the eigenvectors of the d_0 x d_0
    Gram matrix A A^H of the unfolding A, the cofactors are the rows of
    U^H A over their norms, and the coefficients are their squared norms,
    accurate near zero where the eigenvalues are not; a taller unfolding
    is split by its SVD, as the eigenvectors of the rest's Gram matrix
    would be cofactors as inaccurate as its small eigenvalues.  Then
    demands that every retained cofactor be a product across the remaining
    parties (largest squared Schmidt coefficient >= 1 - tol at every cut),
    all cofactors at once (``_cofactor_chain``); the witness is the
    smallest cofactor that fails, at its first failing party.  On success
    the per-party vectors become the state's Schmidt columns, which its
    constructor checks for orthonormality (the ``party_overlap`` witness),
    and the input is contracted with them (``_contract``): the reassembly
    fidelity, |sum_k sqrt(coeff_k) <b_0k|<b_1k|...|state>|^2, must be at
    least 1 - UNIT_TOL.

    Degenerate coefficients make the Schmidt basis non-unique; no rotation
    search is attempted, so a rejection under degeneracy is flagged
    inconclusive rather than treated as a hard verdict.
    """
    dims = state.dims
    if len(dims) < 2:
        raise ValueError("need at least two parties")
    if not 0.0 <= tol < 1.0:
        raise ValueError("tol must lie in [0, 1)")

    mat = state.amplitudes.reshape(dims[0], -1)
    if mat.shape[0] <= mat.shape[1]:
        u0 = np.linalg.eigh(mat @ mat.conj().T)[1][:, ::-1]
        w = u0.conj().T @ mat
        sing = np.linalg.norm(w, axis=1)
    else:
        u0, sing, vh = np.linalg.svd(mat, full_matrices=False)
        w = sing[:, None] * vh
    lam = sing**2
    n = int(np.sum(lam > ZERO_TOL))
    coeff_arr = lam[:n]
    degenerate = n > 1 and bool(np.any(np.abs(np.diff(coeff_arr)) < DEGENERACY_GAP))

    def rejects(kind: str, index: int, party: int | None, residual: float) -> GsdExtraction:
        return GsdExtraction("rejects", witness=GsdWitness(kind, index, party, residual),
                             inconclusive_degenerate=degenerate)

    cofactors = w[:n]
    cofactors /= sing[:n, None]  # in place: no second array the size of the state
    cols = _cofactor_chain(cofactors, dims, tol)
    if isinstance(cols, tuple):
        return rejects("entangled_cofactor", *cols)

    # the constructor checks each party's extracted vectors for orthonormality
    try:
        gss = GeneralizedSchmidtState(dims, ProbVector(coeff_arr), [u0[:, :n], *cols])
    except NotUnitary as exc:
        return rejects("party_overlap", -1, exc.party, exc.residual)
    diag, _ = _contract([(0, dims[1], 0, mat)], gss.bases)
    fid = float(abs(np.sqrt(gss.coeffs.entries) @ diag[0]) ** 2)
    if fid < 1.0 - UNIT_TOL:
        return rejects("reassembly", -1, None, float(1.0 - fid))
    return GsdExtraction(verdict="admits", state=gss, reassembly_fidelity=fid)
