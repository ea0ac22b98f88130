import re

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    loop_completeness,
    loop_reconstruct,
    passed,
    random_probs,
    slack_pairs,
    t_chain,
)
from locc_forge import (
    ConversionImpossible,
    InternalContradiction,
    MeasurementPlan,
    PermutationMixture,
    ProbVector,
    build_plan,
    mixture_for,
    pad_to,
)
from test_majorization import majorized_pairs


class TestSynthesize:
    """Plans that build_plan makes from the walk's weights and relabelings.
    The class keeps the name of the function it first tested, so that its
    test ids stay stable."""

    def test_trivial_identity(self):
        v = ProbVector([0.6, 0.4])
        plan = build_plan(v, v)
        assert plan.weights.tolist() == [pytest.approx(1.0)]
        assert plan.diags.tolist() == [[1.0, 1.0]]
        assert plan.perms.tolist() == [[0, 1]]

    def test_frozen_2x2_example(self):
        lam = ProbVector([0.5, 0.5])
        mu = ProbVector([0.75, 0.25])
        plan = build_plan(lam, mu)
        assert plan.perms.tolist() == [[1, 0], [0, 1]]
        diags = {tuple(np.round(diag, 12)) for diag in plan.diags}
        expected = {
            (round(np.sqrt(0.75), 12), round(np.sqrt(0.25), 12)),
            (round(np.sqrt(0.25), 12), round(np.sqrt(0.75), 12)),
        }
        assert diags == expected
        assert loop_completeness(plan, lam) < 1e-10

    def test_completeness_is_enforced_invariant(self):
        lam = ProbVector([0.5, 0.3, 0.2])
        mu = ProbVector([0.6, 0.3, 0.1])
        plan = build_plan(lam, mu)
        assert loop_completeness(plan, lam) < 1e-10

    def test_mass_on_a_dead_level_fails_reconstruction(self, monkeypatch):
        # r = mu: the identity term puts 0.5 on level 1, where lam_1 = 0,
        # and level 0 misses lam_0 by as much; the first worst level is named
        bogus = PermutationMixture(np.ones(1), np.array([[0, 1]]))
        monkeypatch.setattr("locc_forge.protocol.mixture_for", lambda *_: bogus)
        with pytest.raises(InternalContradiction) as err:
            build_plan(ProbVector([1.0, 0.0]), ProbVector([0.5, 0.5]))
        assert str(err.value) == (
            "built plan failed validation: completeness 0.0, weights 0.0, "
            "reconstruction 0.5 at level 0 (lam_k 1.0, r_k 0.5)"
        )

    def test_worst_reconstructed_level_is_named(self, monkeypatch):
        # r = [0.5, 0.175, 0.075, 0.25] against lam = [0.5, 0.5, 0, 0]: two
        # dead levels get mass, but live level 1 misses lam by the most
        bogus = PermutationMixture(
            np.array([0.7, 0.3]), np.array([[0, 2, 3, 1], [0, 3, 1, 2]])
        )
        monkeypatch.setattr("locc_forge.protocol.mixture_for", lambda *_: bogus)
        with pytest.raises(InternalContradiction) as err:
            build_plan(ProbVector([0.5, 0.5, 0.0, 0.0]), ProbVector([0.5, 0.25, 0.25, 0.0]))
        assert "at level 1 (lam_k 0.5, r_k 0.175" in str(err.value)

    def test_only_the_weights_check_fails(self, monkeypatch):
        # the qubit plan with 5e-10 moved between its weights: r misses lam
        # by 3e-10, within UNIT_TOL, but each outcome's weight by 1.67e-10,
        # outcome 1's by the most after rounding
        bogus = PermutationMixture(
            np.array([1 / 3 + 5e-10, 2 / 3 - 5e-10]), np.array([[1, 0], [0, 1]])
        )
        monkeypatch.setattr("locc_forge.protocol.mixture_for", lambda *_: bogus)
        with pytest.raises(InternalContradiction) as err:
            build_plan(ProbVector([0.6, 0.4]), ProbVector([0.8, 0.2]))
        message = str(err.value)
        assert re.fullmatch(
            r"built plan failed validation: completeness \S+, weights 1\.66\d+e-10 "
            r"at outcome 1 \(probability 0\.666\d+, p_j 0\.666\d+\), "
            r"reconstruction 3\.0\d*e-10", message), message

    def test_every_failing_check_says_where(self, monkeypatch):
        # weights of sum 0.5 and no mass on level 1: the empty level is
        # covered by sum_j p_j = 0.5 (sqrt(0.5)**2 after rounding), outcome 0
        # gets 0.75 of lam against p_0 = 0.5, and r = [0.5, 0]
        bogus = PermutationMixture(np.array([0.5]), np.array([[0, 1]]))
        monkeypatch.setattr("locc_forge.protocol.mixture_for", lambda *_: bogus)
        with pytest.raises(InternalContradiction) as err:
            build_plan(ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0]))
        assert str(err.value) == (
            "built plan failed validation: "
            "completeness 0.4999999999999999 at level 1 (sum_j diag_jk^2 0.5000000000000001), "
            "weights 0.25 at outcome 0 (probability 0.75, p_j 0.5), "
            "reconstruction 0.5 at level 1 (lam_k 0.5, r_k 0.0)"
        )

    def test_matches_scalar_formula_at_rank_512(self):
        rng = np.random.default_rng(512)
        n = 512
        mu = random_probs(rng, n)
        lam = t_chain(rng, mu, 4 * n)
        mix = mixture_for(lam, mu)
        plan = build_plan(lam, mu)
        assert len(plan.weights) == len(mix.terms)
        inverses = mix.terms.tolist()
        # r_k, the source the plan reconstructs, summed in term order
        recon = loop_reconstruct(mix.weights, inverses, mu).tolist()
        for p, inv, weight, diag, perm in zip(
            mix.weights.tolist(), inverses, plan.weights, plan.diags, plan.perms
        ):
            expected = [np.sqrt(p * mu[inv[k]] / recon[k]) for k in range(n)]
            assert weight == p
            assert perm.tolist() == inv
            np.testing.assert_array_equal(diag, expected)

    def test_padded_zero_levels_are_legal(self):
        # no outcome reaches padded level 2 (r_2 = 0), so each outcome's
        # diagonal there is sqrt(p_j): the measurement is complete on every
        # level, padded ones included
        lam = ProbVector([0.7, 0.3, 0.0])
        mu = ProbVector([0.8, 0.2, 0.0])
        plan = build_plan(lam, mu)
        np.testing.assert_allclose(plan.diags[:, 2], np.sqrt(plan.weights))
        np.testing.assert_allclose(np.sum(plan.diags**2, axis=0), 1.0, atol=1e-15)


class TestQubitFastPath:
    """build_plan at n = 2 against the closed-form two-level plan."""

    def test_frozen_example(self):
        plan = build_plan(ProbVector([0.6, 0.4]), ProbVector([0.8, 0.2]))
        np.testing.assert_allclose(plan.weights, [1 / 3, 2 / 3], atol=1e-12)
        assert plan.perms.tolist() == [[1, 0], [0, 1]]
        np.testing.assert_allclose(
            plan.diags[0],
            [np.sqrt((1 / 3) * 0.2 / 0.6), np.sqrt((1 / 3) * 0.8 / 0.4)],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            plan.diags[1],
            [np.sqrt((2 / 3) * 0.8 / 0.6), np.sqrt((2 / 3) * 0.2 / 0.4)],
            atol=1e-12,
        )

    def test_rank_dropping_target(self):
        plan = build_plan(ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0]))
        assert plan.weights[0] == pytest.approx(0.5, abs=1e-12)
        # dead target level enters through the 0/0 -> 0 convention
        np.testing.assert_allclose(plan.diags, [[0.0, 1.0], [1.0, 0.0]])

    def test_equal_vectors_short_circuit(self):
        plan = build_plan(ProbVector([0.9, 0.1]), ProbVector([0.9, 0.1]))
        assert plan.weights.tolist() == [pytest.approx(1.0)]

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
    """The check table that every realized plan carries as ``checks``.  The
    class keeps the name of the function it first tested, so that its test
    ids stay stable."""

    def test_trivial_plan(self):
        v = ProbVector([0.6, 0.4])
        checks = build_plan(v, v).checks
        assert checks["completeness"].value == pytest.approx(0.0, abs=1e-15)
        assert build_plan(v, v).weights.tolist() == [1.0]
        assert checks["weights"].value == pytest.approx(0.0, abs=1e-15)
        assert passed(checks)

    def test_qubit_probabilities(self):
        lam, mu = ProbVector([0.6, 0.4]), ProbVector([0.8, 0.2])
        plan = build_plan(lam, mu)
        np.testing.assert_allclose(plan.weights, [1 / 3, 2 / 3], atol=1e-12)
        assert plan.checks["weights"].value <= 1e-15

    def test_perturbed_plan_fails_flags_without_raising(self):
        # a read plan with a changed p: its rebuilt diagonals stay complete,
        # but r misses lam and the outcome weights miss p
        lam, mu = ProbVector([0.6, 0.4]), ProbVector([0.8, 0.2])
        payload = build_plan(lam, mu).to_json()
        payload["outcomes"][0]["p"] *= 1.01
        checks = MeasurementPlan.from_json(payload, lam, mu).checks
        assert not passed(checks)
        assert checks["completeness"].ok
        assert not checks["weights"].ok and not checks["reconstruction"].ok

    def test_dark_live_level_fails_completeness(self):
        # a read plan that leaves r_k = 0 on a level with lam_k > 0: the
        # measurement stays complete there, with diagonal sqrt(p_j), and the
        # empty level costs its whole weight in the reconstruction
        lam, mu = ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0])
        payload = {"n": 2, "outcomes": [{"p": 1, "perm": [0, 1]}]}
        checks = MeasurementPlan.from_json(payload, lam, mu).checks
        assert checks["completeness"].value == 0.0 and checks["weights"].value == 0.0
        assert checks["reconstruction"].value == 0.5 and not checks["reconstruction"].ok
        # weights that do not sum to 1 leave the empty level with sum_j p_j
        payload = {"n": 2, "outcomes": [{"p": 0.5, "perm": [0, 1]}]}
        checks = MeasurementPlan.from_json(payload, lam, mu).checks
        assert checks["completeness"].value == pytest.approx(0.5)
        assert not checks["completeness"].ok

    def test_report_carries_tolerances(self):
        v = ProbVector([1.0])
        checks = build_plan(v, v).checks
        assert {name: check.tol for name, check in checks.items()} == {
            "completeness": 1e-10, "weights": 1e-10, "reconstruction": 1e-9}

    def test_read_plan_carries_the_built_table(self):
        lam, mu = ProbVector([0.5, 0.3, 0.2]), ProbVector([0.6, 0.3, 0.1])
        plan = build_plan(lam, mu)
        clone = MeasurementPlan.from_json(plan.to_json(), lam, mu)
        assert clone.checks == plan.checks


class TestPlanJson:
    def test_roundtrip(self):
        # from_json rebuilds the diagonals bit for bit, zero-padded levels
        # and the identity plan of vectors within ZERO_TOL included
        for lam, mu in [
            ([0.5, 0.3, 0.2], [0.6, 0.3, 0.1]),
            ([0.5, 0.5, 0.0], [1.0, 0.0, 0.0]),
            ([0.6, 0.4, 0.0], [0.6, 0.4, 0.0]),
            ([0.6, 0.4], [0.6 + 1e-13, 0.4 - 1e-13]),
        ]:
            lam, mu = ProbVector(lam), ProbVector(mu)
            plan = build_plan(lam, mu)
            clone = MeasurementPlan.from_json(plan.to_json(), lam, mu)
            assert clone.n == plan.n
            for name in ("weights", "diags", "perms"):
                np.testing.assert_array_equal(getattr(clone, name), getattr(plan, name))

    def test_schema_shape(self):
        plan = build_plan(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))
        payload = plan.to_json()
        assert set(payload) == {"n", "outcomes"}
        assert all(set(o) == {"p", "perm"} for o in payload["outcomes"])


class TestPlanArrays:
    """The checks the constructor makes on (weights, diags, perms)."""

    # non-permutation, negative and NaN rows go through simulate --plan in
    # test_cli; JSON cannot spell these shapes, and from_json catches them
    @pytest.mark.parametrize("weights, diags, perms, message", [
        ([1.0], [[np.inf, 1.0]], [[0, 1]], "finite and >= 0"),
        ([np.inf], [[1.0, 1.0]], [[0, 1]], "weights must be finite"),
        ([1.0], [[1.0, 1.0]], [[0, 1, 2]], "must be"),
        ([1.0, 0.0], [[1.0, 1.0]], [[0, 1]], "must be"),
        ([1.0], [1.0, 1.0], [0, 1], "must be"),
    ])
    def test_rejects(self, weights, diags, perms, message):
        with pytest.raises(ValueError, match=message):
            MeasurementPlan(weights, diags, perms)

    def test_arrays_are_read_only(self):
        plan = build_plan(ProbVector([0.6, 0.4]), ProbVector([0.8, 0.2]))
        for arr in (plan.weights, plan.diags, plan.perms):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_empty_plan_keeps_its_rank(self):
        v = ProbVector([0.5, 0.3, 0.2])
        plan = MeasurementPlan.from_json({"n": 3, "outcomes": []}, v, v)
        assert plan.n == 3 and plan.to_json() == {"n": 3, "outcomes": []}


@settings(max_examples=100, deadline=None)
@given(majorized_pairs())
def test_synthesized_plan_properties(pair):
    lam, mu = pair
    plan = build_plan(lam, mu)
    # weights form a distribution
    assert np.sum(plan.weights) == pytest.approx(1.0, abs=1e-10)
    # completeness on the support of lam
    assert loop_completeness(plan, lam) <= 1e-10
    # each branch lands exactly on the permuted target coefficients
    for weight, diag, perm in zip(plan.weights, plan.diags, plan.perms):
        post = lam.entries * diag**2 / weight
        expected = mu.entries[perm]
        assert np.max(np.abs(post - expected)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(majorized_pairs(min_n=2, max_n=2))
def test_qubit_paths_agree(pair):
    lam, mu = pair
    plan = build_plan(lam, mu)
    got = sorted(plan.weights.tolist())
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
    recon = loop_reconstruct(mix.weights, mix.terms, mu)
    assert np.max(np.abs(recon - lam.entries)) <= 1e-12
    assert passed(build_plan(lam, mu).checks)


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


@pytest.mark.parametrize("n", range(3, 17))
def test_input_sum_slack_is_absorbed(n):
    # ProbVector accepts sums within 1e-9 of 1, but plans are checked to
    # 1e-10; dividing by the sum keeps the slack out of the plan
    for lam, mu in slack_pairs(n):
        lam, mu = ProbVector(lam), ProbVector(mu)
        assert passed(build_plan(lam, mu).checks)


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
