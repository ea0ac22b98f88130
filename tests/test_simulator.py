import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_local,
    assemble_unsorted,
    dense_fidelity,
    dense_protocol,
    frozen_gsd_chain,
    measurement_matrix,
    random_columns,
    random_gss,
    random_probs,
    random_unitary,
    t_chain,
)
from locc_forge import (
    CapExceeded,
    DenseState,
    GeneralizedSchmidtState,
    MeasurementPlan,
    ProbVector,
    ZeroBranch,
    build_plan,
    extract_gsd,
    intermediate_state,
    run_conclusive,
    run_protocol,
)
from locc_forge import simulator
from locc_forge.majorization import UNIT_TOL
from locc_forge.simulator import NotUnitary, _cofactor_chain, _coords

BELL = DenseState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
GHZ = DenseState(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2), (2, 2, 2))
W = DenseState(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3), (2, 2, 2))


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
        # the {dims, re, im} payload of an instance file's "state"
        state = DenseState.from_json({"dims": [2], "re": [0.6, 0.0], "im": [0.0, 0.8]})
        np.testing.assert_array_equal(state.amplitudes, [0.6, 0.8j])
        assert state.dims == (2,)


class TestGeneralizedSchmidtState:
    def test_unitarity_enforced(self):
        bad = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            GeneralizedSchmidtState((2, 2), ProbVector([0.5, 0.5]), [bad, np.eye(2)])

    def test_not_unitary_names_party_and_residual(self):
        bad = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(NotUnitary, match=r"basis 1 not unitary \(residual 3.0\)") as exc:
            GeneralizedSchmidtState((2, 2), ProbVector([0.5, 0.5]), [np.eye(2), bad])
        assert (exc.value.party, exc.value.residual) == (1, 3.0)

    def test_rank_must_fit(self):
        with pytest.raises(ValueError):
            GeneralizedSchmidtState(
                (2, 2), ProbVector([0.5, 0.3, 0.2]), [np.eye(2), np.eye(2)]
            )

    def test_keeps_the_first_n_of_k_orthonormal_columns(self):
        rng = np.random.default_rng(17)
        lam = ProbVector([0.6, 0.4])
        full = [random_unitary(rng, d) for d in (3, 4)]
        for k in (2, 3):
            psi = GeneralizedSchmidtState((3, 4), lam, [u[:, :k] for u in full])
            assert [b.shape for b in psi.bases] == [(3, 2), (4, 2)]
            for kept, u in zip(psi.bases, full):
                assert np.array_equal(kept, u[:, :2])

    def test_non_orthonormal_columns_rejected(self):
        cols = np.array([[1.0, 0.6], [0.0, 0.8], [0.0, 0.0]])  # unit, not orthogonal
        with pytest.raises(ValueError, match="not unitary"):
            GeneralizedSchmidtState(
                (3, 3), ProbVector([0.6, 0.4]), [cols, np.eye(3, 2)]
            )

    def test_fewer_columns_than_rank_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedSchmidtState(
                (3, 3), ProbVector([0.6, 0.4]), [np.eye(3, 1), np.eye(3, 2)]
            )

    def test_computational_holds_n_columns(self):
        psi = GeneralizedSchmidtState.computational((2, 2**19), ProbVector([0.5, 0.5]))
        assert [b.shape for b in psi.bases] == [(2, 2), (2**19, 2)]


def _stitched(s: GeneralizedSchmidtState) -> np.ndarray:
    """s's amplitude blocks, as _coords receives them, copied into one
    row-major array."""
    amps = np.empty((s.dims[0], math.prod(s.dims[1:])), dtype=complex)
    width = math.prod(s.dims[2:])  # columns per level of party 1
    for lo, hi, _, block in simulator._amplitude_blocks([s]):
        amps[:, lo * width:hi * width] = block
    return amps.reshape(-1)


class TestAssemble:
    """The amplitude blocks that _coords contracts, stitched together."""

    def test_bell(self):
        psi = GeneralizedSchmidtState.computational((2, 2), ProbVector([0.5, 0.5]))
        np.testing.assert_allclose(_stitched(psi), np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_ghz(self):
        psi = GeneralizedSchmidtState.computational((2, 2, 2), ProbVector([0.5, 0.5]))
        np.testing.assert_allclose(_stitched(psi), GHZ.amplitudes)

    def test_rank_one_is_product(self):
        rng = np.random.default_rng(3)
        bases = [random_unitary(rng, 2) for _ in range(3)]
        psi = GeneralizedSchmidtState((2, 2, 2), ProbVector([1.0, 0.0]), bases)
        expected = np.multiply.outer(
            np.multiply.outer(bases[0][:, 0], bases[1][:, 0]), bases[2][:, 0]
        ).reshape(-1)
        np.testing.assert_allclose(_stitched(psi), expected, atol=1e-12)

    @pytest.mark.parametrize("dims,entries", [
        ((2, 3), [1.0, 0.0]),
        ((3, 4, 3), [0.6, 0.4, 0.0]),
        ((5, 6, 5, 5), [0.5, 0.3, 0.2, 0.0, 0.0]),
        ((8, 64, 40), [0.4, 0.3, 0.2, 0.1, 0.0, 0.0]),  # two blocks
    ])
    def test_matches_per_term_oracle_with_zero_coeffs(self, dims, entries):
        rng = np.random.default_rng(sum(dims))
        coeffs = ProbVector(entries)
        bases = [random_unitary(rng, d) for d in dims]
        psi = GeneralizedSchmidtState(dims, coeffs, bases)
        oracle = assemble_unsorted(psi)
        np.testing.assert_allclose(_stitched(psi), oracle.amplitudes, rtol=0, atol=1e-14)


class TestApplyLocal:
    """The dense one-party operator that the reference oracles run on."""

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
        prob, post = apply_local(assemble_unsorted(psi), 0, np.diag(plan.diags[0]))
        assert prob == pytest.approx(plan.weights[0], abs=1e-10)
        # permuted-coefficient state in the source bases, before relabeling
        perm_coeffs = mu.entries[plan.perms[0]]
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
        assert tx.checks["prob_sum_error"].value <= 1e-9

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
        for br, diag, perm in zip(tx.branches, plan.diags, plan.perms):
            m_op = measurement_matrix(psi.bases[0], diag)
            prob, post = apply_local(assemble_unsorted(psi), 0, m_op)
            assert br.simulated_prob == pytest.approx(prob, abs=1e-12)
            # permuted coefficients stay attached to the source basis levels
            mid = assemble_unsorted(psi, mu.entries[perm])
            assert dense_fidelity(post, mid) >= 1 - 1e-9

    def test_unrealizable_zero_weight_branch(self):
        lam = ProbVector([1.0, 0.0])
        plan = MeasurementPlan([1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], [[0, 1], [0, 1]])
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        tx = run_protocol(psi, psi, plan)
        assert tx.passed
        assert tx.branches[1].fidelity is None

    def test_annihilating_weighted_branch_raises(self):
        lam = ProbVector([1.0, 0.0])
        plan = MeasurementPlan([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], [[0, 1], [0, 1]])
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        with pytest.raises(ZeroBranch):
            run_protocol(psi, psi, plan)

    def test_branches_serialize_what_the_run_measured(self):
        lam, mu = ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25])
        psi = GeneralizedSchmidtState.computational((2, 2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2, 2), mu)
        tx = run_protocol(psi, phi, build_plan(lam, mu))
        payload = tx.to_json()
        # every branch runs one fixed schedule (party 0 measures, every
        # party relabels), so a branch records only what the run measured
        assert list(payload) == ["branches"]
        assert [br["outcome"] for br in payload["branches"]] == [0, 1]
        for br in payload["branches"]:
            assert set(br) == {"outcome", "simulated_prob", "fidelity"}

    def test_dims_must_match(self):
        lam = ProbVector([0.5, 0.5])
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2, 2), lam)
        with pytest.raises(ValueError, match=r"incompatible dims \(2, 2\) vs \(2, 2, 2\)"):
            run_protocol(psi, phi, build_plan(lam, lam))

    @pytest.mark.parametrize("case, message", [
        ("rank", "pad coefficient vectors to a common rank first"),
        ("plan", "plan dimension does not match the states"),
    ])
    def test_ranks_must_match(self, case, message):
        lam, lam3 = ProbVector([0.5, 0.5]), ProbVector([0.5, 0.3, 0.2])
        psi = GeneralizedSchmidtState.computational((3, 3), lam)
        phi = GeneralizedSchmidtState.computational((3, 3), lam3 if case == "rank" else lam)
        plan = build_plan(lam3, lam3) if case == "plan" else build_plan(lam, lam)
        with pytest.raises(ValueError, match=message):
            run_protocol(psi, phi, plan)


def swap_heaviest_perms(plan: MeasurementPlan) -> MeasurementPlan:
    """The plan with the relabelings of its heaviest outcome and of the
    heaviest one relabeling differently exchanged."""
    order = np.argsort(-plan.weights, kind="stable")
    i = order[0]
    j = next(j for j in order if not np.array_equal(plan.perms[j], plan.perms[i]))
    perms = plan.perms.copy()
    perms[[i, j]] = perms[[j, i]]
    return MeasurementPlan(plan.weights, plan.diags, perms)


def scale_heaviest_entry(plan: MeasurementPlan, lam: ProbVector) -> MeasurementPlan:
    """The plan with the diagonal entry carrying most probability, in the
    heaviest outcome, scaled by 1 + 1e-6."""
    j = int(np.argmax(plan.weights))
    diags = plan.diags.copy()
    k = int(np.argmax(lam.entries * diags[j] ** 2))
    diags[j, k] *= 1.0 + 1e-6
    return MeasurementPlan(plan.weights, diags, plan.perms)


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
                assert (br.fidelity is not None) == (dense is not None)
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
        assert not run_protocol(psi, phi, swap_heaviest_perms(plan)).passed
        assert not run_protocol(psi, phi, scale_heaviest_entry(plan, lam)).passed

    def test_zero_weight_outcome_with_padding(self):
        lam = ProbVector([1.0, 0.0])
        plan = MeasurementPlan([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [[0, 1], [1, 0]])
        rng = np.random.default_rng(3)
        psi = random_gss(rng, lam, (3, 4))
        tx = run_protocol(psi, psi, plan)
        assert tx.passed
        assert [br.fidelity is not None for br in tx.branches] == [True, False]
        assert tx.branches[1].to_json() == {
            "outcome": 1, "simulated_prob": 0.0, "fidelity": None}


class TestCapSizes:
    """run_protocol and run_conclusive at the largest ranks the
    2^20-amplitude cap admits."""

    @pytest.mark.parametrize("dims,n", [
        ((1024, 1024), 1024), ((16,) * 5, 16), ((2, 2**19), 2),
    ])
    def test_random_bases_pass_with_model_probabilities(self, dims, n):
        rng = np.random.default_rng(n)
        mu = random_probs(rng, n)
        lam = t_chain(rng, mu, 4 * n)
        psi, phi = random_gss(rng, lam, dims), random_gss(rng, mu, dims)
        plan = build_plan(lam, mu)
        tx = run_protocol(psi, phi, plan)
        assert tx.passed
        # each diagonal amplitude ends in a dot product over the last party;
        # over 2^19 terms its rounding alone reaches 1e-14 (0.6e-14 to 1.8e-14
        # on four draws), four decades below UNIT_TOL
        assert tx.checks["offdiag_mass"].value <= (1e-14 if max(dims) <= 1024 else 1e-13)
        for br, diag in zip(tx.branches, plan.diags):
            model = float(np.sum(lam.entries * diag**2))
            assert abs(br.simulated_prob - model) <= 1e-12

    def test_conclusive_at_the_cap(self):
        # the (1024, 1024) pair reversed, so that p_max < 1: the waypoint
        # scans all n^2 tail ratios at once, two float arrays of 8 MiB
        n, dims = 1024, (1024, 1024)
        rng = np.random.default_rng(n)
        mu = random_probs(rng, n)
        lam = t_chain(rng, mu, 4 * n)
        tracemalloc.start()
        try:
            plan = intermediate_state(mu, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert plan.p_max < 1.0
        psi, phi = random_gss(rng, mu, dims), random_gss(rng, lam, dims)
        assert run_conclusive(psi, phi, plan).passed


def _coords_oracle(s: GeneralizedSchmidtState) -> tuple[np.ndarray, float]:
    """_coords by explicit product vectors against the per-term assembly.
    np.sum adds pairwise, so the oracle's rounding grows with log D, not
    with D as a dot product's does."""
    amps = assemble_unsorted(s).amplitudes
    diag = np.empty(s.n, dtype=complex)
    for k in range(s.n):
        vec = s.bases[0][:, k]
        for basis in s.bases[1:]:
            vec = np.multiply.outer(vec, basis[:, k])
        diag[k] = np.sum(vec.reshape(-1).conj() * amps)
    return diag, abs(1.0 - float(np.vdot(diag, diag).real))


def _sharing_bases(psi: GeneralizedSchmidtState, rng, count: int) -> list:
    """psi and count - 1 states on psi's bases with other random
    coefficients, as many of them zero as in psi's."""
    live = int(np.count_nonzero(psi.coeffs.entries))
    return [psi] + [psi._with_coeffs(ProbVector(np.r_[random_probs(rng, live).entries,
                                                      [0.0] * (psi.n - live)]))
                    for _ in range(count - 1)]


class TestCoords:
    """The contraction that works one slice of party 1's levels at a time,
    for every state that shares one set of bases in one pass."""

    @pytest.mark.parametrize("dims,entries", [
        ((8,) * 6, [0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.03, 0.02]),
        ((2, 2**19), [0.7, 0.3]),  # m = 2: many levels of party 1 per block
        ((8, 64, 40), [0.4, 0.3, 0.2, 0.1, 0.0, 0.0]),  # padded, zero coefficients
    ])
    def test_matches_product_vector_oracle(self, dims, entries):
        rng = np.random.default_rng(len(dims))
        states = _sharing_bases(random_gss(rng, ProbVector(entries), dims), rng, 4)
        assert sum(1 for _ in simulator._amplitude_blocks(states[:1])) > 1
        wants = [_coords_oracle(s) for s in states]
        for count in range(1, 5):
            got = _coords(*states[:count])
            assert len(got) == count
            for (diag, mass), (want_diag, want_mass) in zip(got, wants):
                np.testing.assert_allclose(diag, want_diag, rtol=0, atol=1e-14)
                assert abs(mass - want_mass) <= 1e-15

    def test_norm_off_by_1e6_raises_as_dense_state(self):
        rng = np.random.default_rng(5)
        psi = random_gss(rng, random_probs(rng, 8), (8,) * 6)
        coeffs = ProbVector(psi.coeffs.entries)
        object.__setattr__(coeffs, "_entries", coeffs.entries * (1.0 + 1e-6))
        off = psi._with_coeffs(coeffs)

        def in_a_pass(s):
            return _coords(*_sharing_bases(psi, rng, 2), s)

        for check in (_coords, in_a_pass, assemble_unsorted):
            with pytest.raises(ValueError, match=r"^squared norm 1\.00000(1|09)\d* deviates "
                                                 r"from 1$"):
                check(off)

    @staticmethod
    def _peak_bytes(*states) -> int:
        """tracemalloc's peak of one _coords(*states) call, above what was
        held."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _coords(*states)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_holds_no_array_of_all_amplitudes(self):
        rng = np.random.default_rng(6)
        states = _sharing_bases(random_gss(rng, random_probs(rng, 8), (8,) * 6), rng, 4)
        assert self._peak_bytes(*states) < 8**6 * 16  # one complex array of all D amplitudes

    def test_one_block_state_holds_three_arrays_of_its_size(self):
        # party 0's n columns are as large as the state, so it is one
        # block; party 0's conjugated columns are formed once per pass and
        # its scaled ones per block and state, and the states of a pass
        # share their buffers, so a pass of four holds at most three
        # arrays of their size at once
        rng = np.random.default_rng(6)
        psi = random_gss(rng, random_probs(rng, 1024), (1024, 1024))
        assert sum(1 for _ in simulator._amplitude_blocks([psi])) == 1
        states = _sharing_bases(psi, rng, 4)
        assert self._peak_bytes(*states) < 3 * 2**20 * 16 + 2**20  # plus 1 MiB

    @pytest.mark.parametrize("bases", ["shared", "own"])
    def test_one_pass_per_set_of_bases(self, monkeypatch, bases):
        rng = np.random.default_rng(47)
        lam, mu = ProbVector([0.5, 0.3, 0.2]), ProbVector([0.7, 0.2, 0.1])
        psi = random_gss(rng, lam, (3, 4, 3))
        phi = psi._with_coeffs(mu) if bases == "shared" else random_gss(rng, mu, (3, 4, 3))
        # lam -> mu is deterministic; mu -> lam settles with a failure state
        runs = [(run_protocol, psi, phi, build_plan(lam, mu)),
                (run_conclusive, phi, psi, intermediate_state(mu, lam))]
        one_pass, passes = simulator._amplitude_blocks, []

        def counted(states):
            passes.append(len(states))
            return one_pass(states)

        monkeypatch.setattr(simulator, "_amplitude_blocks", counted)
        fused = []
        for run, *args in runs:
            passes.clear()
            fused.append((run(*args), list(passes)))
        assert [p for _, p in fused] == ([[2], [4]] if bases == "shared" else [[1, 1], [3, 1]])

        def per_state(*states):
            return [_coords(s)[0] for s in states]

        monkeypatch.setattr(simulator, "_coords", per_state)
        for (run, *args), (tx, _) in zip(runs, fused):
            alone = run(*args)
            assert alone.passed and tx.passed
            for br, want in zip(tx.branches, alone.branches, strict=True):
                assert (br.outcome, br.success) == (want.outcome, want.success)
                assert abs(br.simulated_prob - want.simulated_prob) <= 1e-15
                assert abs(br.fidelity - want.fidelity) <= 1e-15
            for name, check in tx.checks.items():
                assert abs(check.value - alone.checks[name].value) <= 1e-15


def plant_offdiag_mass(monkeypatch, mass: float, only: ProbVector | None = None) -> None:
    """Make the amplitude blocks that _coords reads move `mass`
    of the squared norm of every state (or only of the states in a pass
    with the coefficients `only`) onto the product vector
    b_0 (x) b_1 (x) b_0 ..., which lies off the diagonal in the states'
    own bases."""
    clean = simulator._amplitude_blocks

    def planted(states):
        bases, dims = states[0].bases, states[0].dims
        off = bases[0][:, 0]
        for party, basis in enumerate(bases[1:], start=1):
            off = np.multiply.outer(off, basis[:, party % 2])
        off = off.reshape(dims[0], dims[1], -1)
        for lo, hi, i, block in clean(states):
            if only is not None and states[i].coeffs is not only:
                yield lo, hi, i, block
            else:
                yield lo, hi, i, (np.sqrt(1.0 - mass) * block
                                  + np.sqrt(mass) * off[:, lo:hi].reshape(dims[0], -1))

    monkeypatch.setattr(simulator, "_amplitude_blocks", planted)


class TestOffdiagMass:
    """A dense state that leaves squared norm off its diagonal is measured
    and fails the run through the offdiag_mass check itself."""

    def test_planted_mass_is_measured(self, monkeypatch):
        rng = np.random.default_rng(41)
        lam = ProbVector([0.5, 0.3, 0.2])
        psi = random_gss(rng, lam, (3, 4, 3))
        [(_, mass)] = _coords(psi)
        assert mass <= 1e-15
        plant_offdiag_mass(monkeypatch, 1e-6)
        [(diag, mass)] = _coords(psi)
        assert mass == pytest.approx(1e-6, rel=1e-6)
        np.testing.assert_allclose(
            np.abs(diag) ** 2, (1.0 - 1e-6) * lam.entries, rtol=0, atol=1e-15
        )

    def test_planted_mass_shows_only_in_its_state_of_a_pass(self, monkeypatch):
        rng = np.random.default_rng(42)
        psi = random_gss(rng, ProbVector([0.4, 0.3, 0.2, 0.1, 0.0, 0.0]), (8, 64, 40))
        states = _sharing_bases(psi, rng, 4)
        assert sum(1 for _ in simulator._amplitude_blocks(states[:1])) > 1
        plant_offdiag_mass(monkeypatch, 1e-6, states[2].coeffs)
        masses = [mass for _, mass in _coords(*states)]
        assert masses[2] == pytest.approx(1e-6, rel=1e-6)
        assert max(masses[:2] + masses[3:]) <= 1e-15

    @pytest.mark.parametrize("planted", ["source", "target"])
    def test_planted_mass_fails_protocol(self, monkeypatch, planted):
        rng = np.random.default_rng(43)
        lam, mu = ProbVector([0.5, 0.3, 0.2]), ProbVector([0.7, 0.2, 0.1])
        psi, phi = random_gss(rng, lam, (3, 4, 3)), random_gss(rng, mu, (3, 4, 3))
        plan = build_plan(lam, mu)
        clean = run_protocol(psi, phi, plan)
        assert clean.passed and clean.checks["offdiag_mass"].ok
        plant_offdiag_mass(monkeypatch, 1e-8, lam if planted == "source" else mu)
        tx = run_protocol(psi, phi, plan)
        assert not tx.passed
        value, tol, ok = tx.checks["offdiag_mass"]
        assert value == pytest.approx(1e-8, rel=1e-6)
        assert tol == 1e-9 and not ok


def assert_columns_match_up_to_phase(got: np.ndarray, want: np.ndarray, atol: float):
    """Each column of got equals the same column of want times one unit
    phase, within atol in every entry."""
    assert got.shape == want.shape
    overlaps = np.einsum("ik,ik->k", want.conj(), got)
    phases = overlaps / np.abs(overlaps)
    assert np.max(np.abs(got - want * phases)) <= atol


class TestExtractGsd:
    def test_ghz_admits(self):
        result = extract_gsd(GHZ)
        assert result.verdict == "admits"
        np.testing.assert_allclose(result.state.coeffs.entries, [0.5, 0.5], atol=1e-12)

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
        assert result.verdict == "admits"
        assert result.reassembly_fidelity >= 1 - 1e-9

    def test_roundtrip_recovers_coefficients(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            coeffs = random_probs(rng, 3, floor=0.05)
            dims = (3, 4, 3)
            gss = random_gss(rng, coeffs, dims)
            result = extract_gsd(assemble_unsorted(gss))
            assert result.verdict == "admits"
            np.testing.assert_allclose(
                result.state.coeffs.entries, coeffs.entries, atol=1e-9
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
        # the state constructor's one unitarity check names the party and |<b0|b1>|
        assert (result.witness.index, result.witness.party) == (-1, 1)
        assert result.witness.residual == pytest.approx(2**-0.5, abs=1e-12)

    def test_degenerate_rejection_is_flagged_inconclusive(self):
        # rotated-basis GHZ has a degenerate split; the computed Schmidt
        # basis may mix the two levels, which must not produce a hard no
        rng = np.random.default_rng(29)
        seen_reject = False
        for _ in range(10):
            gss = random_gss(rng, ProbVector([0.5, 0.5]), (2, 2, 2))
            result = extract_gsd(assemble_unsorted(gss))
            if result.verdict == "rejects":
                seen_reject = True
                assert result.inconclusive_degenerate
        assert seen_reject

    def test_lopsided_rank_two_admits(self):
        # a 2^17-dimensional party contributes its two Schmidt columns only
        rng = np.random.default_rng(37)
        gss = random_gss(rng, ProbVector([0.7, 0.3]), (2, 2**17))
        result = extract_gsd(assemble_unsorted(gss))
        assert result.verdict == "admits"
        assert [b.shape for b in result.state.bases] == [(2, 2), (2**17, 2)]
        np.testing.assert_allclose(result.state.coeffs.entries, [0.7, 0.3], atol=1e-12)

    def test_roundtrip_fidelity_invariant(self):
        rng = np.random.default_rng(31)
        gss = random_gss(rng, ProbVector([0.6, 0.3, 0.1]), (4, 3, 3, 3))
        result = extract_gsd(assemble_unsorted(gss))
        assert result.verdict == "admits"
        fid = dense_fidelity(assemble_unsorted(result.state), assemble_unsorted(gss))
        assert fid >= 1 - 1e-9

    @pytest.mark.parametrize("dims", [(8,) * 6, (2, 2**17), (4, 3, 3, 3)])
    def test_reassembly_fidelity_matches_per_term_overlap(self, dims):
        rng = np.random.default_rng(len(dims))
        state = assemble_unsorted(random_gss(rng, random_probs(rng, min(dims)), dims))
        result = extract_gsd(state)
        assert result.verdict == "admits"
        want = dense_fidelity(assemble_unsorted(result.state), state)
        assert abs(result.reassembly_fidelity - want) <= 1e-14

    @pytest.mark.parametrize("dims", [(3, 4, 3), (4, 3, 3, 3), (3, 4, 3, 5, 3), (4,) * 6])
    def test_chain_matches_per_cofactor_chain(self, dims):
        rng = np.random.default_rng(sum(dims))
        gss = random_gss(rng, random_probs(rng, 3, floor=0.05), dims)
        state = assemble_unsorted(gss)
        vh = np.linalg.svd(state.amplitudes.reshape(dims[0], -1), full_matrices=False)[2]
        cols = _cofactor_chain(vh[:3], dims, UNIT_TOL)
        want_cols, want_residuals = frozen_gsd_chain(vh[:3], dims)
        assert np.all(want_residuals <= UNIT_TOL)
        # the batched eigensolves match the per-cofactor SVDs to rounding,
        # each extracted column up to one unit phase, also from the split
        # that extract_gsd takes by its own Gram eigensolve
        result = extract_gsd(state)
        assert result.verdict == "admits"
        for got in (cols, result.state.bases[1:]):
            for a, b in zip(got, want_cols, strict=True):
                assert_columns_match_up_to_phase(a, b, 1e-13)
        # with every cofactor failing, the witness is cofactor 0 at party 1
        k, party, residual = _cofactor_chain(vh[:3], dims, -1.0)
        assert (k, party) == (0, 1) and abs(residual - want_residuals[0, 0]) <= 1e-14

    def test_chain_stops_when_cofactor_0_fails(self):
        # a generic state fails at cofactor 0, party 1: the chain returns
        # that witness, with the per-cofactor chain's residual
        rng = np.random.default_rng(13)
        z = rng.standard_normal(4**4) + 1j * rng.standard_normal(4**4)
        vh = np.linalg.svd(z.reshape(4, -1), full_matrices=False)[2]
        residuals = frozen_gsd_chain(vh, (4,) * 4)[1]
        assert residuals[0, 0] > UNIT_TOL
        k, party, residual = _cofactor_chain(vh, (4,) * 4, UNIT_TOL)
        assert (k, party) == (0, 1) and abs(residual - residuals[0, 0]) <= 1e-14

    def test_witness_is_smallest_failing_cofactor_at_its_first_party(self):
        # cofactor 0 = |0> (x) Bell over parties 2, 3: a product at party 1,
        # entangled at party 2; cofactor 1 is entangled at party 1
        e = np.eye(2)
        bell = (np.kron(e[0], e[0]) + np.kron(e[1], e[1])) / np.sqrt(2)
        cof0 = np.kron(e[0], bell)
        cof1 = (np.kron(e[0], np.kron(e[0], e[1]))
                + np.kron(e[1], np.kron(e[1], e[0]))) / np.sqrt(2)
        amps = np.sqrt(0.6) * np.kron(e[0], cof0) + np.sqrt(0.4) * np.kron(e[1], cof1)
        result = extract_gsd(DenseState(amps, (2, 2, 2, 2)))
        assert result.verdict == "rejects"
        w = result.witness
        assert (w.kind, w.index, w.party) == ("entangled_cofactor", 0, 2)
        assert w.residual == pytest.approx(0.5, abs=1e-12)

    def test_witness_matches_per_cofactor_chain(self):
        # three orthonormal terms, each a product up to a random party p >= 2
        # and a random vector over parties p.. after it: the witness is the
        # one the per-cofactor chain gives, the smallest cofactor that
        # fails at its first failing party
        rng = np.random.default_rng(19)
        seen = set()
        for _ in range(40):
            dims = tuple(int(d) for d in rng.integers(3, 5, size=int(rng.integers(4, 7))))
            cols = [random_columns(rng, d, 3) for d in dims]
            amps = 0
            for k, c in enumerate(random_probs(rng, 3, floor=0.05)):
                p = int(rng.integers(2, len(dims) + 1))
                term = cols[0][:, k]
                for basis in cols[1:p]:
                    term = np.multiply.outer(term, basis[:, k])
                if p < len(dims):
                    tail = rng.standard_normal(dims[p:]) + 1j * rng.standard_normal(dims[p:])
                    term = np.multiply.outer(term, tail / np.linalg.norm(tail))
                amps = amps + np.sqrt(c) * term
            state = DenseState(amps.reshape(-1), dims)
            w = extract_gsd(state).witness
            if w is None or w.kind != "entangled_cofactor":
                continue
            vh = np.linalg.svd(state.amplitudes.reshape(dims[0], -1), full_matrices=False)[2]
            residuals = frozen_gsd_chain(vh[:3], dims)[1]
            failing = residuals > UNIT_TOL
            k = int(np.flatnonzero(failing.any(axis=0))[0])
            party = int(np.flatnonzero(failing[:, k])[0]) + 1
            want = residuals[party - 1, k]
            got = _cofactor_chain(vh[:3], dims, UNIT_TOL)
            assert got[:2] == (k, party) and abs(got[2] - want) <= 1e-14
            assert (w.index, w.party) == (k, party) and abs(w.residual - want) <= 1e-14
            seen.add((k, party))
        assert len(seen) > 2

    @pytest.mark.parametrize("t", [1e-11, 3e-12, 1.5e-12])
    @pytest.mark.parametrize("dims", [(6, 5, 4), (4,) * 4, (32, 4, 4), (64, 8, 4)])
    def test_tiny_coefficient_is_extracted(self, dims, t):
        # a coefficient near ZERO_TOL, in Haar-random bases, through party
        # 0's split by Gram eigensolve (d0 <= rest) and by SVD (d0 > rest):
        # coefficients are squared cofactor norms, accurate near zero where
        # the eigenvalues carry an absolute error ~1e-16, and a tall split's
        # cofactors are not the rest's eigenvectors
        rng = np.random.default_rng(int(1 / t) % 2**32 + sum(dims))
        coeffs = ProbVector([0.5, 0.3, 0.2 - t, t])
        state = assemble_unsorted(random_gss(rng, coeffs, dims))
        result = extract_gsd(state)
        assert result.verdict == "admits", result.witness
        assert np.max(np.abs(result.state.coeffs.entries - coeffs.entries)) <= 1e-15
        assert 1.0 - dense_fidelity(assemble_unsorted(result.state), state) <= UNIT_TOL

    @pytest.mark.parametrize("dims, n", [((16,) * 5, 16), ((2, 2**19), 2),
                                         ((2**19, 2), 2), ((2, 2**18, 2), 2)])
    def test_admits_at_amplitude_cap(self, dims, n):
        # 2^20 amplitudes: a wide split with n = 16 cofactors, the widest
        # and the tallest split, and a chain party far larger than the rest
        rng = np.random.default_rng(n + len(dims))
        coeffs = random_probs(rng, n, floor=0.01)
        state = assemble_unsorted(random_gss(rng, coeffs, dims))
        assert state.amplitudes.size == simulator.MAX_AMPLITUDES
        result = extract_gsd(state)
        assert result.verdict == "admits"
        np.testing.assert_allclose(result.state.coeffs.entries, coeffs.entries,
                                   rtol=0, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(2, 4))
def test_protocol_verifies_on_random_instances(seed, n, m):
    rng = np.random.default_rng(seed)
    mu = random_probs(rng, n)
    lam = t_chain(rng, mu, transforms=rng.integers(0, n + 1))
    dims = tuple(int(n + rng.integers(0, 2)) for _ in range(m))
    psi = random_gss(rng, lam, dims)
    phi = random_gss(rng, mu, dims)
    plan = build_plan(lam, mu)
    tx = run_protocol(psi, phi, plan)
    assert tx.passed
    assert tx.checks["prob_sum_error"].value <= 1e-9
    assert [br.outcome for br in tx.branches] == list(range(len(plan.weights)))
