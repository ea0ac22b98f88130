from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_pmax,
    dense_conclusive,
    prefix_sum_majorized,
    random_gss,
    random_probs,
    sorted_tensor,
    t_chain,
)
from locc_forge import (
    CapExceeded,
    ConversionImpossible,
    DiagonalOperator,
    GeneralizedSchmidtState,
    ProbVector,
    ZeroBranch,
    catalysis_search,
    intermediate_state,
    is_majorized,
    multicopy_check,
    pad_to,
    pmax,
    run_conclusive,
)
from test_majorization import majorized_pairs, prob_vectors
from test_simulator import ENGINE_SHAPES, scale_heaviest_entry, swap_first_perms

JP_LAM = ProbVector([0.4, 0.4, 0.1, 0.1])
JP_MU = ProbVector([0.5, 0.25, 0.25, 0.0])


class TestPmax:
    def test_majorized_gives_one(self):
        assert pmax(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))[0] == 1.0

    def test_frozen_quarter(self):
        p, l_star = pmax(ProbVector([0.9, 0.1]), ProbVector([0.6, 0.4]))
        assert abs(p - 0.25) <= 1e-12
        assert l_star == 1

    def test_frozen_three_sevenths(self):
        p, l_star = pmax(
            ProbVector([0.70, 0.10, 0.10, 0.10]),
            ProbVector([0.30, 0.28, 0.28, 0.14]),
        )
        assert p == pytest.approx(3 / 7, abs=1e-12)
        assert l_star == 1

    def test_rank_increase_gives_zero(self):
        p, _ = pmax(ProbVector([0.6, 0.4, 0.0]), ProbVector([0.5, 0.3, 0.2]))
        assert p == 0.0

    def test_zero_target_tails_skipped(self):
        p, _ = pmax(ProbVector([0.6, 0.3, 0.1]), ProbVector([0.7, 0.3, 0.0]))
        assert p == pytest.approx(brute_force_pmax([0.6, 0.3, 0.1], [0.7, 0.3, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pmax(ProbVector([1.0]), ProbVector([0.5, 0.5]))


class TestIntermediateState:
    def test_deterministic_regime(self):
        lam, mu = ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25])
        plan = intermediate_state(lam, mu)
        assert plan.p_max == 1.0
        np.testing.assert_allclose(plan.gamma.entries, mu.entries, atol=1e-12)
        assert plan.failure_coeffs is None

    def test_frozen_two_level(self):
        plan = intermediate_state(ProbVector([0.9, 0.1]), ProbVector([0.6, 0.4]))
        assert plan.p_max == pytest.approx(0.25, abs=1e-12)
        assert plan.l_star == 1
        np.testing.assert_allclose(plan.gamma.entries, [0.9, 0.1], atol=1e-12)
        np.testing.assert_allclose(
            plan.success_op.diag, [np.sqrt(0.15 / 0.9), 1.0], atol=1e-12
        )
        np.testing.assert_allclose(plan.failure_coeffs.entries, [1.0, 0.0], atol=1e-12)

    def test_frozen_three_level(self):
        plan = intermediate_state(
            ProbVector([0.55, 0.25, 0.20]), ProbVector([0.50, 0.45, 0.05])
        )
        assert plan.p_max == pytest.approx(0.9, abs=1e-12)
        assert plan.l_star == 1
        np.testing.assert_allclose(
            plan.gamma.entries, [0.55, 0.405, 0.045], atol=1e-12
        )
        np.testing.assert_allclose(
            plan.failure_coeffs.entries, [1.0, 0.0, 0.0], atol=1e-9
        )

    def test_segmented_construction_handles_high_head_ratio(self):
        # the single prefix/tail split would put gamma_0 = lam_0 = 0.5 here,
        # below p*mu_0 = 0.56; the segment pass must lift the head instead
        lam = ProbVector([0.5, 0.42, 0.08])
        mu = ProbVector([0.7, 0.2, 0.1])
        plan = intermediate_state(lam, mu)
        assert plan.p_max == pytest.approx(0.8, abs=1e-12)
        np.testing.assert_allclose(
            plan.gamma.entries,
            [0.7 * (0.92 / 0.9), 0.2 * (0.92 / 0.9), 0.08],
            atol=1e-12,
        )
        assert np.all(plan.p_max * mu.entries <= plan.gamma.entries + 1e-12)
        assert is_majorized(lam, plan.gamma)

    def test_rank_increase_rejected(self):
        with pytest.raises(ConversionImpossible):
            intermediate_state(
                ProbVector([0.6, 0.4, 0.0]), ProbVector([0.5, 0.3, 0.2])
            )


class TestRunConclusive:
    def test_majorized_succeeds_with_certainty(self):
        lam, mu = ProbVector([0.6, 0.4]), ProbVector([0.8, 0.2])
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2), mu)
        tx = run_conclusive(psi, phi)
        assert tx.passed
        assert tx.success_probability == pytest.approx(1.0, abs=1e-9)

    def test_three_party_quarter(self):
        psi = GeneralizedSchmidtState.computational((2, 2, 2), ProbVector([0.9, 0.1]))
        phi = GeneralizedSchmidtState.computational((2, 2, 2), ProbVector([0.6, 0.4]))
        tx = run_conclusive(psi, phi)
        assert tx.passed
        assert tx.success_probability == pytest.approx(0.25, abs=1e-9)

    def test_failure_branch_is_recorded_product_state(self):
        lam = ProbVector([0.55, 0.25, 0.20])
        mu = ProbVector([0.50, 0.45, 0.05])
        psi = GeneralizedSchmidtState.computational((3, 3), lam)
        phi = GeneralizedSchmidtState.computational((3, 3), mu)
        plan = intermediate_state(lam, mu)
        tx = run_conclusive(psi, phi, plan)
        assert tx.passed
        assert tx.success_probability == pytest.approx(0.9, abs=1e-9)
        failures = [
            (br, dense)
            for br, dense in zip(tx.branches, dense_conclusive(psi, phi, plan))
            if br.success is False
        ]
        assert failures
        for br, (_, final, _) in failures:
            # failure coefficients (1,0,0) make the leftover state a product
            assert br.fidelity >= 1 - 1e-9
            amp = np.abs(final.amplitudes)
            assert np.sum(amp > 1e-9) == 1

    def test_with_random_bases(self):
        rng = np.random.default_rng(37)
        lam = ProbVector([0.8, 0.15, 0.05])
        mu = ProbVector([0.5, 0.45, 0.05])
        psi = random_gss(rng, lam, (3, 4, 3))
        phi = random_gss(rng, mu, (3, 4, 3))
        tx = run_conclusive(psi, phi)
        assert tx.passed
        assert tx.success_probability == pytest.approx(
            brute_force_pmax(lam, mu), abs=1e-9
        )


def conclusive_instance(rng, dims, n):
    """Random bases and a pair whose conclusive run has a failure branch and
    a stage with at least two relabelings."""
    while True:
        mu = random_probs(rng, n)
        lam = t_chain(rng, random_probs(rng, n), n)
        plan = intermediate_state(lam, mu)
        perms = {out.unitary_perm for out in plan.deterministic_stage.outcomes}
        if plan.failure_coeffs is not None and len(perms) >= 2:
            return random_gss(rng, lam, dims), random_gss(rng, mu, dims), plan


class TestConclusiveEngine:
    """Schmidt-coordinate conclusive run against the per-branch dense oracle."""

    @pytest.mark.parametrize("dims,n", ENGINE_SHAPES)
    def test_matches_dense_oracle(self, dims, n):
        rng = np.random.default_rng(13 * n + len(dims))
        for _ in range(3):
            psi, phi, plan = conclusive_instance(rng, dims, n)
            tx = run_conclusive(psi, phi, plan)
            oracle = dense_conclusive(psi, phi, plan)
            assert tx.passed
            assert any(br.success is False for br in tx.branches)
            assert len(tx.branches) == len(oracle)
            for br, dense in zip(tx.branches, oracle):
                assert br.realizable == (dense is not None)
                if dense is None:
                    continue
                prob, _, fid = dense
                assert abs(br.simulated_prob - prob) <= 1e-12
                assert abs(br.fidelity - fid) <= 1e-12

    @pytest.mark.parametrize("dims,n", ENGINE_SHAPES)
    def test_tampered_stage_fails(self, dims, n):
        rng = np.random.default_rng(17 * n + len(dims))
        psi, phi, plan = conclusive_instance(rng, dims, n)
        stage = plan.deterministic_stage
        assert run_conclusive(psi, phi, plan).passed
        for tampered in (
            swap_first_perms(stage),
            scale_heaviest_entry(stage, psi.coeffs),
        ):
            tx = run_conclusive(psi, phi, replace(plan, deterministic_stage=tampered))
            assert not tx.passed
            assert tx.checks["stage_passed"] is False

    @pytest.mark.parametrize("field", ["success_op", "failure_op"])
    def test_annihilating_measurement_raises(self, field):
        rng = np.random.default_rng(19)
        psi, phi, plan = conclusive_instance(rng, (3, 4, 3), 3)
        dead = replace(plan, **{field: DiagonalOperator(np.zeros(3))})
        with pytest.raises(ZeroBranch):
            run_conclusive(psi, phi, dead)


class TestMulticopy:
    def test_single_copy_is_plain_majorization(self):
        assert multicopy_check(JP_LAM, JP_MU, 1) == is_majorized(JP_LAM, JP_MU)

    def test_majorized_stays_majorized(self):
        lam, mu = ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25])
        for copies in (1, 2, 3):
            assert multicopy_check(lam, mu, copies)

    def test_classic_pair_multicopy_profile(self):
        # not convertible per copy at 1 and 2, convertible at 3
        assert not multicopy_check(JP_LAM, JP_MU, 1)
        assert not multicopy_check(JP_LAM, JP_MU, 2)
        assert multicopy_check(JP_LAM, JP_MU, 3)
        # independent oracle agrees at every copy count
        for copies, expected in ((1, False), (2, False), (3, True)):
            lam_t = [1.0]
            mu_t = [1.0]
            for _ in range(copies):
                lam_t = [a * b for a in lam_t for b in JP_LAM]
                mu_t = [a * b for a in mu_t for b in JP_MU]
            assert prefix_sum_majorized(sorted(lam_t, reverse=True),
                                        sorted(mu_t, reverse=True)) == expected

    def test_randomized_search_finds_multicopy_only_pair(self):
        rng = np.random.default_rng(101)
        found = None
        for _ in range(2000):
            mu = random_probs(rng, 4, floor=0.0)
            lam = random_probs(rng, 4, floor=0.0)
            if multicopy_check(lam, mu, 1):
                continue
            for copies in (2, 3):
                if multicopy_check(lam, mu, copies):
                    found = (lam, mu, copies)
                    break
            if found:
                break
        assert found is not None
        lam, mu, copies = found
        # independent verification by plain prefix sums
        assert not prefix_sum_majorized(lam, mu)
        lam_t, mu_t = [1.0], [1.0]
        for _ in range(copies):
            lam_t = [a * b for a in lam_t for b in lam]
            mu_t = [a * b for a in mu_t for b in mu]
        assert prefix_sum_majorized(
            sorted(lam_t, reverse=True), sorted(mu_t, reverse=True)
        )

    def test_cap(self):
        v = ProbVector([1.0 / 64] * 64)
        with pytest.raises(CapExceeded):
            multicopy_check(v, v, 4)


class TestCatalysis:
    def test_trivial_when_majorized(self):
        result = catalysis_search(
            ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25])
        )
        assert result.found
        assert result.catalyst.entries.tolist() == [1.0]

    def test_classic_pair_catalyst_verifies(self):
        c = [0.6, 0.4]
        lam_c = sorted_tensor(JP_LAM, c)
        mu_c = sorted_tensor(JP_MU, c)
        # frozen prefix sums from the hand calculation
        np.testing.assert_allclose(
            np.cumsum(lam_c)[:4], [0.24, 0.48, 0.64, 0.80], atol=1e-12
        )
        np.testing.assert_allclose(
            np.cumsum(mu_c)[:4], [0.30, 0.50, 0.65, 0.80], atol=1e-12
        )
        assert prefix_sum_majorized(lam_c, mu_c)
        assert not prefix_sum_majorized(JP_LAM, JP_MU)

    def test_grid_search_finds_verified_catalyst(self):
        result = catalysis_search(JP_LAM, JP_MU, d_max=2, resolution=0.01)
        assert result.found
        c = result.catalyst.entries
        assert prefix_sum_majorized(sorted_tensor(JP_LAM, c), sorted_tensor(JP_MU, c))
        assert result.certificate["min_prefix_margin"] >= -1e-9
        assert result.certificate["uncatalyzed_violation_prefix"] == 1

    def test_rank_increase_is_never_catalyzable(self):
        result = catalysis_search(
            ProbVector([0.6, 0.4, 0.0]),
            ProbVector([0.5, 0.3, 0.2]),
            d_max=2,
            resolution=0.05,
        )
        assert not result.found
        assert result.candidates_tested > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            catalysis_search(JP_LAM, JP_MU, d_max=0)
        with pytest.raises(ValueError):
            catalysis_search(JP_LAM, JP_MU, resolution=0.7)


@settings(max_examples=100, deadline=None)
@given(prob_vectors(min_n=2, max_n=6), prob_vectors(min_n=2, max_n=6))
def test_pmax_matches_brute_force(lam, mu):
    n = max(len(lam), len(mu))
    lam, mu = pad_to(lam, n), pad_to(mu, n)
    p, _ = pmax(lam, mu)
    assert p == pytest.approx(brute_force_pmax(lam, mu), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(prob_vectors(min_n=2, max_n=6), prob_vectors(min_n=2, max_n=6))
def test_pmax_one_iff_majorized(lam, mu):
    n = max(len(lam), len(mu))
    lam, mu = pad_to(lam, n), pad_to(mu, n)
    p, _ = pmax(lam, mu)
    assert (p >= 1.0 - 1e-9) == is_majorized(lam, mu)


@settings(max_examples=100, deadline=None)
@given(majorized_pairs(), prob_vectors(min_n=2, max_n=8))
def test_pmax_monotone_under_source_mixing(pair, mu):
    # replacing the source by a more-mixed vector never hurts
    more_mixed, less_mixed = pair
    n = max(len(more_mixed), len(mu))
    more_mixed, less_mixed, mu = (
        pad_to(more_mixed, n), pad_to(less_mixed, n), pad_to(mu, n)
    )
    assert pmax(more_mixed, mu)[0] >= pmax(less_mixed, mu)[0] - 1e-12


@settings(max_examples=100, deadline=None)
@given(prob_vectors(min_n=2, max_n=6), prob_vectors(min_n=2, max_n=6))
def test_intermediate_invariants(lam, mu):
    n = max(len(lam), len(mu))
    lam, mu = pad_to(lam, n), pad_to(mu, n)
    p, _ = pmax(lam, mu)
    if p <= 1e-12:
        return
    plan = intermediate_state(lam, mu)
    gamma = plan.gamma
    assert np.all(np.diff(gamma.entries) <= 1e-12)
    assert is_majorized(lam, gamma)
    assert np.all(plan.p_max * mu.entries <= gamma.entries + 1e-12)
    support = gamma.entries > 0
    ssq = plan.success_op.diag**2
    fsq = plan.failure_op.diag**2
    assert np.max(np.abs((ssq + fsq)[support] - 1.0)) <= 1e-10
    assert np.sum(gamma.entries * ssq) == pytest.approx(plan.p_max, abs=1e-10)
