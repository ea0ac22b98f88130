"""Dense multipartite pure-state simulator.

Materializes structured states, executes measure-broadcast-rotate
protocols, and operationally tests whether an arbitrary dense state admits
the structured (single-sum) form.

Protocols are checked in Schmidt coordinates: each compared dense state
is assembled and rotated once into its own per-party bases.  There a
measurement is a scale along party A's axis and a relabeling an index
gather per axis.  Fidelity needs no rotation back, since the branch and
the target share the local unitary (the target's bases) that separates
them from their dense forms.

Classical communication is a recorded event here, not a socket: the
transcript notes the broadcast outcome and every single-party operator
that was applied, which is what makes the locality audit checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, ZeroBranch
from .majorization import Permutation, ProbVector
from .protocol import MeasurementPlan

MAX_PARTIES = 6
MAX_AMPLITUDES = 2**20
NORM_TOL = 1e-9
UNITARY_TOL = 1e-9
ZERO_BRANCH_TOL = 1e-12
FIDELITY_TOL = 1e-9          # branches must reach fidelity >= 1 - FIDELITY_TOL
PROB_MATCH_TOL = 1e-9
RANK_TOL = 1e-12             # squared Schmidt coefficients below this are zero
DEGENERACY_GAP = 1e-8


def _check_caps(dims: tuple[int, ...]) -> None:
    if len(dims) > MAX_PARTIES:
        raise CapExceeded(f"{len(dims)} parties exceed cap {MAX_PARTIES}")
    total = 1
    for d in dims:
        if d < 1:
            raise ValueError(f"bad local dimension {d}")
        total *= d
    if total > MAX_AMPLITUDES:
        raise CapExceeded(f"{total} amplitudes exceed cap {MAX_AMPLITUDES}")


class DenseState:
    """Normalized complex amplitude tensor, stored flat in row-major order."""

    __slots__ = ("amplitudes", "dims")

    def __init__(self, amplitudes, dims):
        dims = tuple(int(d) for d in dims)
        _check_caps(dims)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        expected = int(np.prod(dims))
        if amps.size != expected:
            raise ValueError(f"{amps.size} amplitudes for dims {dims}")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"squared norm {norm_sq} deviates from 1")
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

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "re": [float(x) for x in self.amplitudes.real],
            "im": [float(x) for x in self.amplitudes.imag],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "DenseState":
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
        if re.shape != im.shape:
            raise ValueError("re/im length mismatch")
        return cls(re + 1j * im, tuple(payload["dims"]))


class GeneralizedSchmidtState:
    """Structured state: coefficients plus one orthonormal basis per party.

    Each basis is a full dims_i x dims_i unitary whose first n columns are
    that party's Schmidt vectors, aligned with the sorted coefficients.
    """

    __slots__ = ("m", "dims", "coeffs", "bases")

    def __init__(self, dims, coeffs: ProbVector, bases):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2:
            raise ValueError("need at least two parties")
        _check_caps(dims)
        n = len(coeffs)
        mats = []
        for i, b in enumerate(bases):
            mat = np.asarray(b, dtype=complex)
            if mat.shape != (dims[i], dims[i]):
                raise ValueError(f"basis {i} must be {dims[i]}x{dims[i]}")
            if dims[i] < n:
                raise ValueError(f"party {i} dimension {dims[i]} below rank {n}")
            residual = np.max(np.abs(mat.conj().T @ mat - np.eye(dims[i])))
            if residual > UNITARY_TOL:
                raise ValueError(f"basis {i} not unitary (residual {residual})")
            mat = mat.copy()
            mat.setflags(write=False)
            mats.append(mat)
        if len(mats) != len(dims):
            raise ValueError("one basis per party required")
        object.__setattr__(self, "m", len(dims))
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
        return cls(dims, coeffs, [np.eye(d, dtype=complex) for d in dims])


def assemble(s: GeneralizedSchmidtState) -> DenseState:
    """Sum over k of sqrt(coeff_k) times the k-th basis column of every party.

    The columns of parties 1.. are chained into one (rest, n) outer
    product, so the sum over k is a single matmul with party 0's columns.
    """
    n = s.n
    chain = s.bases[-1][:, :n]
    for basis in s.bases[-2:0:-1]:
        chain = (basis[:, None, :n] * chain[None, :, :]).reshape(-1, n)
    head = s.bases[0][:, :n] * np.sqrt(s.coeffs.entries)
    return DenseState((head @ chain.T).reshape(-1), s.dims)


def apply_local(state: DenseState, party: int, op: np.ndarray) -> tuple[float, DenseState]:
    """Apply a one-party operator; returns (branch probability, normalized post)."""
    if not 0 <= party < state.m:
        raise ValueError(f"party {party} out of range")
    op = np.asarray(op, dtype=complex)
    d = state.dims[party]
    if op.shape != (d, d):
        raise ValueError(f"operator must be {d}x{d}")
    moved = np.tensordot(op, state.tensor(), axes=([1], [party]))
    out = np.moveaxis(moved, 0, party).reshape(-1)
    prob = float(np.vdot(out, out).real)
    if prob <= ZERO_BRANCH_TOL:
        raise ZeroBranch(f"operator on party {party} annihilated the state")
    return prob, DenseState(out / np.sqrt(prob), state.dims)


def fidelity(a: DenseState, b: DenseState) -> float:
    """|<a|b>|^2; 1 means identical up to global phase."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch {a.dims} vs {b.dims}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


@dataclass(frozen=True)
class AppliedOp:
    """One recorded single-party operation (the locality audit unit)."""

    party: int
    kind: str  # "measurement" or "unitary"
    dim: int

    def to_json(self) -> dict:
        return {"party": self.party, "kind": self.kind, "dim": self.dim}


@dataclass(frozen=True)
class BranchRecord:
    outcome: int
    analytic_prob: float
    simulated_prob: float
    realizable: bool
    operations: tuple[AppliedOp, ...]
    fidelity: float | None = None
    success: bool | None = None  # set only by conclusive runs

    def to_json(self) -> dict:
        payload = {
            "outcome": self.outcome,
            "analytic_prob": self.analytic_prob,
            "simulated_prob": self.simulated_prob,
            "realizable": self.realizable,
            "fidelity": self.fidelity,
            "operations": [op.to_json() for op in self.operations],
        }
        if self.success is not None:
            payload["success"] = self.success
        return payload


@dataclass(frozen=True)
class Transcript:
    """Audit trail of one protocol run."""

    branches: tuple[BranchRecord, ...]
    passed: bool
    prob_sum: float
    checks: dict = field(default_factory=dict)

    @property
    def locality_ok(self) -> bool:
        """Every recorded operation names exactly one party."""
        return all(
            isinstance(op.party, int) and op.dim > 0
            for br in self.branches
            for op in br.operations
        )

    @property
    def success_probability(self) -> float:
        return sum(
            br.simulated_prob for br in self.branches if br.success and br.realizable
        )

    def to_json(self) -> dict:
        return {
            "mode": "exhaustive",
            "passed": self.passed,
            "prob_sum": self.prob_sum,
            "checks": self.checks,
            "branches": [br.to_json() for br in self.branches],
        }


def _coords(s: GeneralizedSchmidtState) -> np.ndarray:
    """Assemble s and rotate it into its own bases, one tensordot per party
    (each appends its axis last, so m steps restore the order); the squared
    norm is re-checked as DenseState checks it."""
    t = assemble(s).tensor()
    for basis in s.bases:
        t = np.tensordot(t, basis.conj(), axes=([0], [0]))
    norm_sq = float(np.vdot(t, t).real)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"rotated squared norm {norm_sq} deviates from 1")
    return t


def _measure(coords: np.ndarray, diag: np.ndarray) -> tuple[float, np.ndarray]:
    """Scale axis 0 by a Kraus diagonal, zero on the complement beyond its
    length; returns (squared norm, unnormalized branch)."""
    full = np.zeros(coords.shape[0])
    full[: diag.size] = diag
    branch = coords * full.reshape((-1,) + (1,) * (coords.ndim - 1))
    return float(np.vdot(branch, branch).real), branch


def _gather(perm: Permutation, d: int) -> np.ndarray:
    """Index g with v[g] == perm.apply(v) on the first perm.n levels, the
    identity on the complement, which never carries amplitude."""
    g = np.arange(d)
    g[list(perm.image)] = np.arange(perm.n)
    return g


def _relabel(branch: np.ndarray, perm: Permutation) -> np.ndarray:
    """Gather every axis by perm, as one row and one column take on the
    tensor viewed as a matrix split between the two halves of the parties."""
    dims, half = branch.shape, branch.ndim // 2
    rows, cols = (
        np.ravel_multi_index(np.ix_(*(_gather(perm, d) for d in part)), part).ravel()
        for part in (dims[:half], dims[half:])
    )
    flat = branch.reshape(rows.size, cols.size)
    return np.take(np.take(flat, rows, axis=0), cols, axis=1).reshape(dims)


def _fidelity(target: np.ndarray, branch: np.ndarray, norm_sq: float) -> float:
    """|<target|branch>|^2 for an unnormalized branch of squared norm norm_sq."""
    return float(abs(np.vdot(target, branch)) ** 2 / norm_sq)


def _branches(plan: MeasurementPlan, source: np.ndarray, target: np.ndarray):
    """Run every outcome of plan on the source's Schmidt coordinates.

    Yields (record, branch) in plan order.  The branch is the measured and
    relabeled tensor, unnormalized (its squared norm is the branch
    probability) and in the target's coordinates; it is None when a
    zero-weight outcome annihilates the state.
    """
    dims = source.shape
    ops = (AppliedOp(0, "measurement", dims[0]),) + tuple(
        AppliedOp(party, "unitary", d) for party, d in enumerate(dims)
    )
    for j, out in enumerate(plan.outcomes):
        prob, branch = _measure(source, out.operator.diag)
        if prob <= ZERO_BRANCH_TOL:
            if out.weight > ZERO_BRANCH_TOL:
                raise ZeroBranch(
                    f"outcome {j} carries weight {out.weight} but annihilated the state"
                )
            yield BranchRecord(j, out.weight, 0.0, False, ops[:1]), None
            continue
        branch = _relabel(branch, out.unitary_perm)
        fid = _fidelity(target, branch, prob)
        yield BranchRecord(j, out.weight, prob, True, ops, fid), branch


def _protocol_transcript(branches: tuple[BranchRecord, ...]) -> Transcript:
    realizable = [br for br in branches if br.realizable]
    prob_sum = sum(br.simulated_prob for br in realizable)
    max_mismatch = max(
        (abs(br.simulated_prob - br.analytic_prob) for br in realizable), default=0.0
    )
    min_fid = min((br.fidelity for br in realizable), default=1.0)
    checks = {
        "prob_sum_error": float(abs(prob_sum - 1.0)),
        "max_weight_mismatch": float(max_mismatch),
        "min_fidelity": float(min_fid),
        "fidelity_tol": FIDELITY_TOL,
        "prob_tol": PROB_MATCH_TOL,
    }
    passed = bool(
        max_mismatch <= PROB_MATCH_TOL
        and min_fid >= 1.0 - FIDELITY_TOL
        and abs(prob_sum - 1.0) <= PROB_MATCH_TOL
    )
    return Transcript(
        branches=branches, passed=passed, prob_sum=float(prob_sum), checks=checks
    )


def run_protocol(
    psi: GeneralizedSchmidtState,
    phi: GeneralizedSchmidtState,
    plan: MeasurementPlan,
) -> Transcript:
    """Execute measure-broadcast-rotate on every outcome and verify it.

    Outcome j scales psi's Schmidt coordinates along party A's axis by its
    Kraus diagonal (the squared norm is the simulated probability) and
    gathers every axis by its relabeling.  Its overlap with phi's
    coordinates equals that of B_phi P_j B_psi^dag M_j |psi> with |phi>:
    both dense states carry the same local unitary, phi's bases.
    """
    if psi.dims != phi.dims:
        raise ValueError(f"incompatible dims {psi.dims} vs {phi.dims}")
    if plan.n != psi.n or plan.n != phi.n:
        raise ValueError("plan dimension does not match the states")
    records = _branches(plan, _coords(psi), _coords(phi))
    return _protocol_transcript(tuple(record for record, _ in records))


@dataclass(frozen=True)
class GsdWitness:
    """Why extraction rejected: which cofactor broke, where, by how much."""

    kind: str  # "entangled_cofactor" | "party_overlap" | "reassembly"
    index: int
    party: int | None
    residual: float

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "index": self.index,
            "party": self.party,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class GsdExtraction:
    verdict: str  # "admits" | "rejects"
    state: GeneralizedSchmidtState | None = None
    reassembly_fidelity: float | None = None
    witness: GsdWitness | None = None
    inconclusive_degenerate: bool = False

    @property
    def admits(self) -> bool:
        return self.verdict == "admits"

    @property
    def coeffs(self) -> ProbVector | None:
        return self.state.coeffs if self.state is not None else None

    def to_json(self) -> dict:
        payload: dict = {
            "verdict": self.verdict,
            "inconclusive_degenerate": self.inconclusive_degenerate,
        }
        if self.state is not None:
            payload["coeffs"] = self.state.coeffs.to_json()
            payload["reassembly_fidelity"] = self.reassembly_fidelity
        if self.witness is not None:
            payload["witness"] = self.witness.to_json()
        return payload


def _complete_to_unitary(cols: np.ndarray, dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full unitary, deterministically.

    Candidate completion vectors are the computational basis vectors,
    orthogonalized twice against everything accepted so far.
    """
    basis = [cols[:, k] for k in range(cols.shape[1])]
    for j in range(dim):
        if len(basis) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[j] = 1.0
        for _ in range(2):
            for b in basis:
                v = v - np.vdot(b, v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            basis.append(v / norm)
    if len(basis) != dim:
        raise ValueError("basis completion failed")
    return np.column_stack(basis)


def extract_gsd(state: DenseState, tol: float = 1e-9) -> GsdExtraction:
    """Operational structured-form test.

    Splits party 0 against the rest, then recursively demands that every
    retained cofactor be a product across the remaining parties (largest
    squared Schmidt coefficient >= 1 - tol at every cut).  On success the
    per-party vectors are checked for orthonormality, completed to full
    bases, and the reassembled state must reproduce the input.

    Degenerate coefficients make the Schmidt basis non-unique; no rotation
    search is attempted, so a rejection under degeneracy is flagged
    inconclusive rather than treated as a hard verdict.
    """
    dims = state.dims
    m = len(dims)
    if m < 2:
        raise ValueError("need at least two parties")

    mat = state.amplitudes.reshape(dims[0], -1)
    u0, sing, vh = np.linalg.svd(mat, full_matrices=False)
    lam = sing**2
    n = int(np.sum(lam > RANK_TOL))
    coeff_arr = lam[:n]
    degenerate = (
        bool(np.any(np.abs(np.diff(coeff_arr)) < DEGENERACY_GAP)) if n > 1 else False
    )

    factors: list[list[np.ndarray]] = [[u0[:, k] for k in range(n)]]
    for _ in range(1, m):
        factors.append([])

    for k in range(n):
        w = vh[k, :]
        rem = dims[1:]
        for rel, d_i in enumerate(rem[:-1]):
            party = rel + 1
            w_mat = w.reshape(d_i, -1)
            u2, s2, v2h = np.linalg.svd(w_mat, full_matrices=False)
            residual = float(1.0 - s2[0] ** 2)
            if residual > tol:
                return GsdExtraction(
                    verdict="rejects",
                    witness=GsdWitness("entangled_cofactor", k, party, residual),
                    inconclusive_degenerate=degenerate,
                )
            factors[party].append(u2[:, 0])
            w = v2h[0, :]
        factors[m - 1].append(w)

    # orthonormality of each party's extracted vectors
    for party in range(m):
        cols = np.column_stack(factors[party])
        gram = cols.conj().T @ cols
        residual = float(np.max(np.abs(gram - np.eye(n))))
        if residual > UNITARY_TOL:
            return GsdExtraction(
                verdict="rejects",
                witness=GsdWitness("party_overlap", -1, party, residual),
                inconclusive_degenerate=degenerate,
            )

    bases = [
        _complete_to_unitary(np.column_stack(factors[party]), dims[party])
        for party in range(m)
    ]
    gss = GeneralizedSchmidtState(dims, ProbVector(coeff_arr), bases)
    fid = fidelity(assemble(gss), state)
    if fid < 1.0 - NORM_TOL:
        return GsdExtraction(
            verdict="rejects",
            witness=GsdWitness("reassembly", -1, None, float(1.0 - fid)),
            inconclusive_degenerate=degenerate,
        )
    return GsdExtraction(verdict="admits", state=gss, reassembly_fidelity=fid)
