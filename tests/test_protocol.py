import numpy as np
import pytest
from hypothesis import given, settings

from helpers import random_probs, t_chain
from locc_forge import (
    ConversionImpossible,
    DiagonalOperator,
    InternalContradiction,
    MeasurementPlan,
    Permutation,
    PermutationMixture,
    PlanOutcome,
    ProbVector,
    build_plan,
    mixture_for,
    pad_to,
    synthesize,
    validate,
)
from test_majorization import majorized_pairs


class TestSynthesize:
    def test_trivial_identity(self):
        v = ProbVector([0.6, 0.4])
        mix = mixture_for(v, v)
        plan = synthesize(v, v, mix)
        assert len(plan.outcomes) == 1
        out = plan.outcomes[0]
        assert out.weight == pytest.approx(1.0)
        assert out.operator.diag.tolist() == [1.0, 1.0]
        assert out.unitary_perm.is_identity

    def test_frozen_2x2_example(self):
        lam = ProbVector([0.5, 0.5])
        mu = ProbVector([0.75, 0.25])
        mix = PermutationMixture(
            ((0.5, Permutation((0, 1))), (0.5, Permutation((1, 0)))), 2
        )
        plan = synthesize(lam, mu, mix)
        diags = {tuple(np.round(o.operator.diag, 12)) for o in plan.outcomes}
        expected = {
            (round(np.sqrt(0.75), 12), round(np.sqrt(0.25), 12)),
            (round(np.sqrt(0.25), 12), round(np.sqrt(0.75), 12)),
        }
        assert diags == expected
        assert plan.completeness_residual() < 1e-10

    def test_completeness_is_enforced_invariant(self):
        lam = ProbVector([0.5, 0.3, 0.2])
        mu = ProbVector([0.6, 0.3, 0.1])
        plan = synthesize(lam, mu, mixture_for(lam, mu))
        assert plan.completeness_residual(lam.entries > 0) < 1e-10

    def test_contradictory_mixture_rejected(self):
        # mass moved onto a dead source level violates the mixture identity
        lam = ProbVector([1.0, 0.0])
        mu = ProbVector([0.5, 0.5])
        bogus = PermutationMixture(((1.0, Permutation((0, 1))),), 2)
        with pytest.raises(InternalContradiction):
            synthesize(lam, mu, bogus)

    def test_first_dead_level_is_named(self):
        # term 0 moves mass onto dead level 3 only, term 1 onto levels 2 and
        # 3: the scan is term by term, level by level
        lam = ProbVector([0.5, 0.5, 0.0, 0.0])
        mu = ProbVector([0.5, 0.25, 0.25, 0.0])
        bogus = PermutationMixture(
            (
                (0.7, Permutation((0, 2, 3, 1)).inverse()),
                (0.3, Permutation((0, 3, 1, 2)).inverse()),
            ),
            4,
        )
        with pytest.raises(InternalContradiction) as err:
            synthesize(lam, mu, bogus)
        assert str(err.value) == "term weight 0.7 maps mass 0.25 onto dead level 3"

    def test_matches_scalar_formula_at_rank_512(self):
        rng = np.random.default_rng(512)
        n = 512
        mu = random_probs(rng, n)
        lam = t_chain(rng, mu, 4 * n)
        mix = mixture_for(lam, mu)
        plan = synthesize(lam, mu, mix)
        assert len(plan.outcomes) == len(mix.terms)
        for (p, sigma), out in zip(mix.terms, plan.outcomes):
            inv = sigma.inverse()
            expected = [
                np.sqrt(p * mu[inv.image[k]] / lam[k]) for k in range(n)
            ]
            assert out.weight == p
            assert out.unitary_perm == inv
            np.testing.assert_array_equal(out.operator.diag, expected)

    def test_padded_zero_levels_are_legal(self):
        lam = ProbVector([0.7, 0.3, 0.0])
        mu = ProbVector([0.8, 0.2, 0.0])
        plan = synthesize(lam, mu, mixture_for(lam, mu))
        for out in plan.outcomes:
            assert out.operator.diag[2] == 0.0


class TestQubitFastPath:
    """build_plan at n = 2 against the closed-form two-level plan."""

    def test_frozen_example(self):
        plan = build_plan(ProbVector([0.6, 0.4]), ProbVector([0.8, 0.2]))
        assert plan.outcomes[0].weight == pytest.approx(1 / 3, abs=1e-12)
        assert plan.outcomes[0].unitary_perm.image == (1, 0)
        assert plan.outcomes[1].weight == pytest.approx(2 / 3, abs=1e-12)
        assert plan.outcomes[1].unitary_perm.is_identity
        np.testing.assert_allclose(
            plan.outcomes[0].operator.diag,
            [np.sqrt((1 / 3) * 0.2 / 0.6), np.sqrt((1 / 3) * 0.8 / 0.4)],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            plan.outcomes[1].operator.diag,
            [np.sqrt((2 / 3) * 0.8 / 0.6), np.sqrt((2 / 3) * 0.2 / 0.4)],
            atol=1e-12,
        )

    def test_rank_dropping_target(self):
        plan = build_plan(ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0]))
        assert plan.outcomes[0].weight == pytest.approx(0.5, abs=1e-12)
        # dead target level enters through the 0/0 -> 0 convention
        np.testing.assert_allclose(plan.outcomes[0].operator.diag, [0.0, 1.0])
        np.testing.assert_allclose(plan.outcomes[1].operator.diag, [1.0, 0.0])

    def test_equal_vectors_short_circuit(self):
        plan = build_plan(ProbVector([0.9, 0.1]), ProbVector([0.9, 0.1]))
        assert len(plan.outcomes) == 1
        assert plan.outcomes[0].weight == pytest.approx(1.0)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            build_plan(ProbVector([1 / 3] * 3), ProbVector([0.5, 0.5]))

    def test_uniform_target_distinct_source(self):
        with pytest.raises(ConversionImpossible):
            build_plan(ProbVector([0.7, 0.3]), ProbVector([0.5, 0.5]))

    def test_not_majorized(self):
        with pytest.raises(ConversionImpossible):
            build_plan(ProbVector([0.9, 0.1]), ProbVector([0.8, 0.2]))


class TestValidate:
    def test_trivial_plan(self):
        v = ProbVector([0.6, 0.4])
        plan = synthesize(v, v, mixture_for(v, v))
        report = validate(plan, v)
        assert report.completeness_residual == pytest.approx(0.0, abs=1e-15)
        assert report.outcome_probabilities[0] == pytest.approx(1.0)
        assert report.ok

    def test_qubit_probabilities(self):
        lam = ProbVector([0.6, 0.4])
        plan = build_plan(lam, ProbVector([0.8, 0.2]))
        report = validate(plan, lam)
        np.testing.assert_allclose(
            report.outcome_probabilities, [1 / 3, 2 / 3], atol=1e-12
        )

    def test_perturbed_plan_fails_flags_without_raising(self):
        lam = ProbVector([0.6, 0.4])
        plan = build_plan(lam, ProbVector([0.8, 0.2]))
        bad_diag = plan.outcomes[0].operator.diag.copy()
        bad_diag[0] += 1e-3
        tampered = MeasurementPlan(
            outcomes=(
                PlanOutcome(
                    plan.outcomes[0].weight,
                    DiagonalOperator(bad_diag),
                    plan.outcomes[0].unitary_perm,
                ),
                plan.outcomes[1],
            ),
            n=2,
        )
        report = validate(tampered, lam)
        assert not report.ok
        assert not report.completeness_ok

    def test_report_carries_tolerances(self):
        v = ProbVector([1.0])
        plan = synthesize(v, v, mixture_for(v, v))
        payload = validate(plan, v).to_json()
        assert "completeness_tol" in payload and "weight_tol" in payload


class TestPlanJson:
    def test_roundtrip(self):
        lam = ProbVector([0.5, 0.3, 0.2])
        mu = ProbVector([0.6, 0.3, 0.1])
        plan = build_plan(lam, mu)
        clone = MeasurementPlan.from_json(plan.to_json())
        assert clone.n == plan.n
        for a, b in zip(clone.outcomes, plan.outcomes):
            assert a.weight == b.weight
            assert a.unitary_perm.image == b.unitary_perm.image
            np.testing.assert_array_equal(a.operator.diag, b.operator.diag)

    def test_schema_shape(self):
        plan = build_plan(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))
        payload = plan.to_json()
        assert set(payload) == {"n", "outcomes"}
        assert all(set(o) == {"p", "diag", "perm"} for o in payload["outcomes"])


@settings(max_examples=100, deadline=None)
@given(majorized_pairs())
def test_synthesized_plan_properties(pair):
    lam, mu = pair
    plan = synthesize(lam, mu, mixture_for(lam, mu))
    # weights form a distribution
    assert sum(o.weight for o in plan.outcomes) == pytest.approx(1.0, abs=1e-10)
    # completeness on the support of lam
    assert plan.completeness_residual(lam.entries > 0) <= 1e-10
    # each branch lands exactly on the permuted target coefficients
    for out in plan.outcomes:
        post = lam.entries * out.operator.diag**2 / out.weight
        expected = mu.entries[list(out.unitary_perm.image)]
        assert np.max(np.abs(post - expected)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(majorized_pairs(min_n=2, max_n=2))
def test_qubit_paths_agree(pair):
    lam, mu = pair
    plan = build_plan(lam, mu)
    got = sorted(o.weight for o in plan.outcomes)
    if np.max(np.abs(lam.entries - mu.entries)) <= 1e-12:
        assert got == [1.0]
        return
    p = (lam[1] - mu[1]) / (mu[0] - mu[1])
    assert len(got) == 2
    assert np.allclose(got, sorted((p, 1.0 - p)), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(majorized_pairs())
def test_plans_are_deterministic_and_basis_free(pair):
    lam, mu = pair
    assert build_plan(lam, mu).to_json() == build_plan(lam, mu).to_json()


def _assert_walk_plan(lam, mu):
    """At most n terms, reconstruction within 1e-12, and a valid plan."""
    mix = mixture_for(lam, mu)
    assert len(mix.terms) <= len(lam)
    assert np.max(np.abs(mix.reconstruct(mu) - lam.entries)) <= 1e-12
    assert validate(synthesize(lam, mu, mix), lam).ok


@pytest.mark.parametrize("n", [16, 24, 32, 64, 128])
def test_large_rank_t_chain_pairs(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        mu = random_probs(rng, n)
        _assert_walk_plan(t_chain(rng, mu, transforms=4 * n), mu)


def test_tie_heavy_pairs():
    # mu takes three levels; lam averages random pairs, so both carry ties
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(2, 33))
        levels = rng.integers(1, 4, size=n).astype(float)
        mu = ProbVector(levels / levels.sum())
        v = mu.entries.copy()
        for _ in range(n):
            i, j = rng.choice(n, size=2, replace=False)
            v[i] = v[j] = (v[i] + v[j]) / 2
        _assert_walk_plan(ProbVector(v), mu)
        _assert_walk_plan(ProbVector(np.full(n, 1.0 / n)), mu)


def test_prefix_slack_below_zero_tol():
    # the last prefix has slack 8e-13; treating it as tight would leave that
    # error on lam_2 = 0.005 and miss completeness by 1.6e-10
    mu = ProbVector([0.6, 0.395, 0.005])
    lam = ProbVector([0.6 - 1e-11, 0.395 + 1e-11 - 8e-13, 0.005 + 8e-13])
    _assert_walk_plan(lam, mu)


def test_zero_padded_pairs():
    rng = np.random.default_rng(78)
    for _ in range(60):
        r = int(rng.integers(1, 17))
        n = r + int(rng.integers(1, 4))
        mu = random_probs(rng, r, floor=0.0)
        lam = pad_to(t_chain(rng, mu, transforms=4 * r), n)
        _assert_walk_plan(lam, pad_to(mu, n))
        if r > 1:
            # folding the smallest level into the largest drops the rank
            low = np.concatenate(([mu[0] + mu[r - 1]], mu.entries[1:r - 1]))
            _assert_walk_plan(lam, pad_to(ProbVector(low), n))
