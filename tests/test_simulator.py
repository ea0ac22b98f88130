import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_protocol,
    measurement_matrix,
    random_gss,
    random_probs,
    random_unitary,
    t_chain,
)
from locc_forge import (
    CapExceeded,
    DenseState,
    DiagonalOperator,
    GeneralizedSchmidtState,
    MeasurementPlan,
    Permutation,
    PlanOutcome,
    ProbVector,
    ZeroBranch,
    apply_local,
    assemble,
    build_plan,
    extract_gsd,
    fidelity,
    run_protocol,
)

BELL = DenseState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
GHZ = DenseState(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2), (2, 2, 2))
W = DenseState(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3), (2, 2, 2))


def _assemble_unsorted(dims, coeffs_arr, bases) -> DenseState:
    """Assembly oracle that keeps coefficients on their given basis levels."""
    amps = np.zeros(dims, dtype=complex)
    for k, c in enumerate(coeffs_arr):
        if c == 0.0:
            continue
        term = bases[0][:, k]
        for i in range(1, len(dims)):
            term = np.multiply.outer(term, bases[i][:, k])
        amps = amps + np.sqrt(c) * term
    return DenseState(amps.reshape(-1), dims)


class TestDenseState:
    def test_norm_validated(self):
        with pytest.raises(ValueError):
            DenseState(np.array([1.0, 1.0]), (2,))

    def test_party_cap(self):
        with pytest.raises(CapExceeded):
            DenseState([], (2,) * 7)

    def test_amplitude_cap(self):
        with pytest.raises(CapExceeded):
            DenseState([], (1024, 1024, 2))

    def test_json_roundtrip(self):
        state = DenseState(np.array([0.6, 0.8j]), (2,))
        clone = DenseState.from_json(state.to_json())
        np.testing.assert_allclose(clone.amplitudes, state.amplitudes)
        assert clone.dims == state.dims


class TestGeneralizedSchmidtState:
    def test_unitarity_enforced(self):
        bad = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            GeneralizedSchmidtState((2, 2), ProbVector([0.5, 0.5]), [bad, np.eye(2)])

    def test_rank_must_fit(self):
        with pytest.raises(ValueError):
            GeneralizedSchmidtState(
                (2, 2), ProbVector([0.5, 0.3, 0.2]), [np.eye(2), np.eye(2)]
            )


class TestAssemble:
    def test_bell(self):
        psi = GeneralizedSchmidtState.computational((2, 2), ProbVector([0.5, 0.5]))
        np.testing.assert_allclose(
            assemble(psi).amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2)
        )

    def test_ghz(self):
        psi = GeneralizedSchmidtState.computational((2, 2, 2), ProbVector([0.5, 0.5]))
        np.testing.assert_allclose(assemble(psi).amplitudes, GHZ.amplitudes)

    def test_rank_one_is_product(self):
        rng = np.random.default_rng(3)
        bases = [random_unitary(rng, 2) for _ in range(3)]
        psi = GeneralizedSchmidtState((2, 2, 2), ProbVector([1.0, 0.0]), bases)
        expected = np.multiply.outer(
            np.multiply.outer(bases[0][:, 0], bases[1][:, 0]), bases[2][:, 0]
        ).reshape(-1)
        np.testing.assert_allclose(assemble(psi).amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("dims,entries", [
        ((2, 3), [1.0, 0.0]),
        ((3, 4, 3), [0.6, 0.4, 0.0]),
        ((5, 6, 5, 5), [0.5, 0.3, 0.2, 0.0, 0.0]),
    ])
    def test_matches_per_term_oracle_with_zero_coeffs(self, dims, entries):
        rng = np.random.default_rng(sum(dims))
        coeffs = ProbVector(entries)
        bases = [random_unitary(rng, d) for d in dims]
        psi = GeneralizedSchmidtState(dims, coeffs, bases)
        oracle = _assemble_unsorted(dims, coeffs.entries, bases)
        np.testing.assert_allclose(
            assemble(psi).amplitudes, oracle.amplitudes, rtol=0, atol=1e-14
        )


class TestApplyLocal:
    def test_identity(self):
        prob, post = apply_local(BELL, 0, np.eye(2))
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(post.amplitudes, BELL.amplitudes)

    def test_projector_on_bell(self):
        proj = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob, post = apply_local(BELL, 0, proj)
        assert prob == pytest.approx(0.5)
        np.testing.assert_allclose(post.amplitudes, [1, 0, 0, 0])

    def test_plan_operator_produces_permuted_target(self):
        lam = ProbVector([0.5, 0.5])
        mu = ProbVector([0.75, 0.25])
        psi = GeneralizedSchmidtState.computational((2, 2, 2), lam)
        plan = build_plan(lam, mu)
        out = plan.outcomes[0]
        prob, post = apply_local(assemble(psi), 0, np.diag(out.operator.diag))
        assert prob == pytest.approx(out.weight, abs=1e-10)
        # permuted-coefficient state in the source bases, before relabeling
        perm_coeffs = mu.entries[list(out.unitary_perm.image)]
        manual = sum(
            np.sqrt(perm_coeffs[k]) * np.eye(8)[:, 7 * k] for k in range(2)
        )
        np.testing.assert_allclose(post.amplitudes, manual, atol=1e-9)

    def test_zero_branch(self):
        with pytest.raises(ZeroBranch):
            apply_local(BELL, 1, np.zeros((2, 2)))

    def test_wrong_party(self):
        with pytest.raises(ValueError):
            apply_local(BELL, 2, np.eye(2))


class TestFidelity:
    def test_self(self):
        assert fidelity(BELL, BELL) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = DenseState([1, 0, 0, 0], (2, 2))
        b = DenseState([0, 0, 0, 1], (2, 2))
        assert fidelity(a, b) == 0.0

    def test_bell_against_00(self):
        assert fidelity(BELL, DenseState([1, 0, 0, 0], (2, 2))) == pytest.approx(0.5)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(BELL, GHZ)


class TestRunProtocol:
    def test_identity_conversion(self):
        lam = ProbVector([0.7, 0.3])
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        tx = run_protocol(psi, psi, build_plan(lam, lam))
        assert tx.passed and len(tx.branches) == 1
        assert tx.branches[0].simulated_prob == pytest.approx(1.0)
        assert tx.branches[0].fidelity == pytest.approx(1.0)

    def test_three_party_frozen_example(self):
        lam, mu = ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25])
        psi = GeneralizedSchmidtState.computational((2, 2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2, 2), mu)
        tx = run_protocol(psi, phi, build_plan(lam, mu))
        assert tx.passed
        probs = sorted(br.simulated_prob for br in tx.branches)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-9)
        for br in tx.branches:
            assert br.fidelity >= 1 - 1e-9

    def test_qubit_frozen_example(self):
        lam, mu = ProbVector([0.6, 0.4]), ProbVector([0.8, 0.2])
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2), mu)
        tx = run_protocol(psi, phi, build_plan(lam, mu))
        np.testing.assert_allclose(
            [br.simulated_prob for br in tx.branches], [1 / 3, 2 / 3], atol=1e-9
        )
        assert tx.passed

    def test_random_bases_and_padded_dims(self):
        rng = np.random.default_rng(11)
        lam = ProbVector([0.5, 0.3, 0.2])
        mu = ProbVector([0.7, 0.2, 0.1])
        dims = (4, 3, 5)
        psi = random_gss(rng, lam, dims)
        phi = random_gss(rng, mu, dims)
        tx = run_protocol(psi, phi, build_plan(lam, mu))
        assert tx.passed
        assert tx.prob_sum == pytest.approx(1.0, abs=1e-9)

    def test_eq5_branch_coefficients(self):
        rng = np.random.default_rng(5)
        lam = ProbVector([0.4, 0.35, 0.25])
        mu = ProbVector([0.6, 0.25, 0.15])
        dims = (3, 3)
        psi = random_gss(rng, lam, dims)
        phi = random_gss(rng, mu, dims)
        plan = build_plan(lam, mu)
        tx = run_protocol(psi, phi, plan)
        assert tx.passed
        for br, out in zip(tx.branches, plan.outcomes):
            m_op = measurement_matrix(psi.bases[0], out.operator.diag)
            prob, post = apply_local(assemble(psi), 0, m_op)
            assert br.simulated_prob == pytest.approx(prob, abs=1e-12)
            # permuted coefficients stay attached to the source basis levels
            perm_coeffs = mu.entries[list(out.unitary_perm.image)]
            mid = _assemble_unsorted(dims, perm_coeffs, psi.bases)
            assert fidelity(post, mid) >= 1 - 1e-9

    def test_unrealizable_zero_weight_branch(self):
        lam = ProbVector([1.0, 0.0])
        plan = MeasurementPlan(
            outcomes=(
                PlanOutcome(1.0, DiagonalOperator(np.array([1.0, 0.0])),
                            Permutation((0, 1))),
                PlanOutcome(0.0, DiagonalOperator(np.array([0.0, 0.0])),
                            Permutation((0, 1))),
            ),
            n=2,
        )
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        tx = run_protocol(psi, psi, plan)
        assert tx.passed
        assert not tx.branches[1].realizable

    def test_annihilating_weighted_branch_raises(self):
        lam = ProbVector([1.0, 0.0])
        plan = MeasurementPlan(
            outcomes=(
                PlanOutcome(0.5, DiagonalOperator(np.array([0.0, 1.0])),
                            Permutation((0, 1))),
                PlanOutcome(0.5, DiagonalOperator(np.array([1.0, 0.0])),
                            Permutation((0, 1))),
            ),
            n=2,
        )
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        with pytest.raises(ZeroBranch):
            run_protocol(psi, psi, plan)

    def test_locality_audit_and_serialization(self):
        lam, mu = ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25])
        psi = GeneralizedSchmidtState.computational((2, 2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2, 2), mu)
        tx = run_protocol(psi, phi, build_plan(lam, mu))
        assert tx.locality_ok
        payload = tx.to_json()
        for br in payload["branches"]:
            # one measurement on party 0, then one unitary per party
            assert br["operations"][0] == {"party": 0, "kind": "measurement", "dim": 2}
            assert [op["party"] for op in br["operations"][1:]] == [0, 1, 2]

    def test_dims_must_match(self):
        lam = ProbVector([0.5, 0.5])
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2, 2), lam)
        with pytest.raises(ValueError):
            run_protocol(psi, phi, build_plan(lam, lam))


def swap_first_perms(plan: MeasurementPlan) -> MeasurementPlan:
    """The plan with the relabelings of outcomes 0 and 1 exchanged."""
    a, b = plan.outcomes[:2]
    assert a.unitary_perm != b.unitary_perm
    outcomes = (
        PlanOutcome(a.weight, a.operator, b.unitary_perm),
        PlanOutcome(b.weight, b.operator, a.unitary_perm),
    ) + plan.outcomes[2:]
    return MeasurementPlan(outcomes=outcomes, n=plan.n)


def scale_heaviest_entry(plan: MeasurementPlan, lam: ProbVector) -> MeasurementPlan:
    """The plan with the diagonal entry carrying most probability, in the
    heaviest outcome, scaled by 1 + 1e-6."""
    j = int(np.argmax([out.weight for out in plan.outcomes]))
    out = plan.outcomes[j]
    diag = out.operator.diag.copy()
    k = int(np.argmax(lam.entries * diag**2))
    diag[k] *= 1.0 + 1e-6
    outcomes = list(plan.outcomes)
    outcomes[j] = PlanOutcome(out.weight, DiagonalOperator(diag), out.unitary_perm)
    return MeasurementPlan(outcomes=tuple(outcomes), n=plan.n)


ENGINE_SHAPES = [
    ((3, 4, 3), 3),
    ((8, 8, 8), 8),
    ((4,) * 6, 4),
    ((5, 6), 4),
    ((8, 8, 8), 5),
]


class TestBranchEngine:
    """Schmidt-coordinate engine against the per-branch dense oracle."""

    @pytest.mark.parametrize("dims,n", ENGINE_SHAPES)
    def test_matches_dense_oracle(self, dims, n):
        rng = np.random.default_rng(7 * n + len(dims))
        for _ in range(3):
            mu = random_probs(rng, n)
            lam = t_chain(rng, mu, 2 * n)
            psi = random_gss(rng, lam, dims)
            phi = random_gss(rng, mu, dims)
            plan = build_plan(lam, mu)
            tx = run_protocol(psi, phi, plan)
            oracle = dense_protocol(psi, phi, plan)
            assert tx.passed
            assert len(tx.branches) == len(oracle)
            for br, dense in zip(tx.branches, oracle):
                assert br.realizable == (dense is not None)
                if dense is None:
                    continue
                prob, _, fid = dense
                assert abs(br.simulated_prob - prob) <= 1e-12
                assert abs(br.fidelity - fid) <= 1e-12

    @pytest.mark.parametrize("dims,n", ENGINE_SHAPES)
    def test_tampered_plans_fail(self, dims, n):
        rng = np.random.default_rng(11 * n + len(dims))
        mu = ProbVector(np.linspace(2.0, 1.0, n) / np.linspace(2.0, 1.0, n).sum())
        lam = t_chain(rng, mu, 4 * n)
        psi = random_gss(rng, lam, dims)
        phi = random_gss(rng, mu, dims)
        plan = build_plan(lam, mu)
        assert run_protocol(psi, phi, plan).passed
        assert not run_protocol(psi, phi, swap_first_perms(plan)).passed
        assert not run_protocol(psi, phi, scale_heaviest_entry(plan, lam)).passed

    def test_zero_weight_outcome_with_padding(self):
        lam = ProbVector([1.0, 0.0])
        plan = MeasurementPlan(
            outcomes=(
                PlanOutcome(1.0, DiagonalOperator(np.array([1.0, 0.0])),
                            Permutation((0, 1))),
                PlanOutcome(0.0, DiagonalOperator(np.array([0.0, 1.0])),
                            Permutation((1, 0))),
            ),
            n=2,
        )
        rng = np.random.default_rng(3)
        psi = random_gss(rng, lam, (3, 4))
        tx = run_protocol(psi, psi, plan)
        assert tx.passed
        assert [br.realizable for br in tx.branches] == [True, False]
        assert tx.branches[1].simulated_prob == 0.0
        assert len(tx.branches[1].operations) == 1


class TestExtractGsd:
    def test_ghz_admits(self):
        result = extract_gsd(GHZ)
        assert result.admits
        np.testing.assert_allclose(result.coeffs.entries, [0.5, 0.5], atol=1e-12)

    def test_w_rejects_with_quantified_witness(self):
        result = extract_gsd(W)
        assert result.verdict == "rejects"
        assert result.witness.kind == "entangled_cofactor"
        assert result.witness.index == 0
        assert result.witness.residual == pytest.approx(0.5, abs=1e-9)
        assert not result.inconclusive_degenerate

    def test_bipartite_always_admits(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        state = DenseState(z / np.linalg.norm(z), (3, 4))
        result = extract_gsd(state)
        assert result.admits
        assert result.reassembly_fidelity >= 1 - 1e-9

    def test_roundtrip_recovers_coefficients(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            coeffs = random_probs(rng, 3, floor=0.05)
            dims = (3, 4, 3)
            gss = random_gss(rng, coeffs, dims)
            result = extract_gsd(assemble(gss))
            assert result.admits
            np.testing.assert_allclose(
                result.coeffs.entries, coeffs.entries, atol=1e-9
            )

    def test_party_overlap_rejected(self):
        # products orthogonal only through the third party; second party overlaps
        b0, b1 = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)
        amp = np.sqrt(0.6) * np.kron(np.kron([1, 0], b0), [1, 0]) + np.sqrt(
            0.4
        ) * np.kron(np.kron([0, 1], b1), [0, 1])
        result = extract_gsd(DenseState(amp, (2, 2, 2)))
        assert result.verdict == "rejects"
        assert result.witness.kind == "party_overlap"

    def test_degenerate_rejection_is_flagged_inconclusive(self):
        # rotated-basis GHZ has a degenerate split; the computed Schmidt
        # basis may mix the two levels, which must not produce a hard no
        rng = np.random.default_rng(29)
        seen_reject = False
        for _ in range(10):
            gss = random_gss(rng, ProbVector([0.5, 0.5]), (2, 2, 2))
            result = extract_gsd(assemble(gss))
            if result.verdict == "rejects":
                seen_reject = True
                assert result.inconclusive_degenerate
        assert seen_reject

    def test_roundtrip_fidelity_invariant(self):
        rng = np.random.default_rng(31)
        gss = random_gss(rng, ProbVector([0.6, 0.3, 0.1]), (4, 3, 3, 3))
        result = extract_gsd(assemble(gss))
        assert result.admits
        assert fidelity(assemble(result.state), assemble(gss)) >= 1 - 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(2, 4))
def test_protocol_verifies_on_random_instances(seed, n, m):
    rng = np.random.default_rng(seed)
    mu = random_probs(rng, n)
    lam = t_chain(rng, mu, transforms=rng.integers(0, n + 1))
    dims = tuple(int(n + rng.integers(0, 2)) for _ in range(m))
    psi = random_gss(rng, lam, dims)
    phi = random_gss(rng, mu, dims)
    tx = run_protocol(psi, phi, build_plan(lam, mu))
    assert tx.passed
    assert tx.prob_sum == pytest.approx(1.0, abs=1e-9)
    assert tx.locality_ok
