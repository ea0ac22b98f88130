import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import prefix_sum_majorized, random_doubly_stochastic, random_probs, t_chain
from locc_forge import (
    ConversionImpossible,
    DecompositionFailed,
    Permutation,
    PermutationMixture,
    ProbVector,
    first_violation,
    is_majorized,
    mixture_for,
    pad_to,
    tail_sum,
)
from locc_forge.simulator import _gather


@st.composite
def prob_vectors(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    weights = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    total = sum(weights)
    return ProbVector([w / total for w in weights])


@st.composite
def majorized_pairs(draw, min_n=2, max_n=8):
    """(lam, mu) with lam obtained from mu by a T-transform chain."""
    mu = draw(prob_vectors(min_n=min_n, max_n=max_n))
    n = len(mu)
    steps = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 100)),
        min_size=0, max_size=2 * n,
    ))
    v = mu.entries.copy()
    for i, j, t_pct in steps:
        if i == j:
            continue
        t = t_pct / 100.0
        vi, vj = v[i], v[j]
        v[i] = t * vi + (1 - t) * vj
        v[j] = (1 - t) * vi + t * vj
    return ProbVector(v), mu


class TestProbVector:
    def test_sorts_and_records_permutation(self):
        v = ProbVector([0.2, 0.5, 0.3])
        assert v.entries.tolist() == [0.5, 0.3, 0.2]
        # raw index -> sorted position
        assert v.sort_permutation.image == (2, 0, 1)

    def test_clamps_tiny_negatives(self):
        v = ProbVector([1.0, -1e-13])
        assert v[1] == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ProbVector([0.5, 0.4])

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            ProbVector([1.1, -0.1])

    def test_immutable(self):
        v = ProbVector([1.0])
        with pytest.raises(AttributeError):
            v.entries = None

    def test_json_rendering(self):
        assert ProbVector([0.25, 0.75]).to_json() == [0.75, 0.25]


class TestPermutation:
    def test_bijectivity_required(self):
        with pytest.raises(ValueError):
            Permutation((0, 0))

    def test_inverse_composes_to_identity(self):
        p = Permutation((2, 0, 1))
        inv = p.inverse()
        assert [inv.image[p.image[i]] for i in range(3)] == [0, 1, 2]

    def test_apply_pushes_forward(self):
        p = Permutation((1, 2, 0))
        out = p.apply(np.array([10.0, 20.0, 30.0]))
        # out[p(i)] = v[i]
        assert out.tolist() == [30.0, 10.0, 20.0]

    def test_gather_matches_apply(self):
        p = Permutation((1, 2, 0))
        v = np.array([1.0, 2.0, 3.0])
        assert v[_gather(p, 3)].tolist() == p.apply(v).tolist()

    def test_gather_pads_identity(self):
        p = Permutation((1, 0))
        v = np.array([1.0, 2.0, 3.0])
        out = v[_gather(p, 3)]
        assert out[:2].tolist() == p.apply(v[:2]).tolist()
        assert out[2] == 3.0


class TestIsMajorized:
    def test_simple_true(self):
        assert is_majorized(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))

    def test_uniform_majorized_by_all(self):
        for mu in ([0.9, 0.05, 0.05], [0.4, 0.35, 0.25], [1.0, 0.0, 0.0]):
            assert is_majorized(ProbVector([1 / 3] * 3), ProbVector(mu))

    def test_classic_catalysis_pair_not_majorized(self):
        lam = ProbVector([0.4, 0.4, 0.1, 0.1])
        mu = ProbVector([0.5, 0.25, 0.25, 0.0])
        assert not is_majorized(lam, mu)
        assert first_violation(lam, mu) == 1  # prefix 0.8 > 0.75
        assert not prefix_sum_majorized(lam, mu)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            is_majorized(ProbVector([1.0]), ProbVector([0.5, 0.5]))


class TestTailSum:
    def test_full_sum(self):
        assert tail_sum(ProbVector([0.5, 0.3, 0.2]), 0) == pytest.approx(1.0)

    def test_last_entry(self):
        assert tail_sum(ProbVector([0.5, 0.3, 0.2]), 2) == pytest.approx(0.2)

    def test_two_entry(self):
        assert tail_sum(ProbVector([0.9, 0.1]), 1) == pytest.approx(0.1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tail_sum(ProbVector([1.0]), 1)


class TestPadTo:
    def test_pads_with_zeros(self):
        assert pad_to(ProbVector([1.0]), 3).entries.tolist() == [1.0, 0.0, 0.0]

    def test_identity_case(self):
        v = ProbVector([0.5, 0.5])
        assert pad_to(v, 2) is v

    def test_three_to_four(self):
        out = pad_to(ProbVector([0.5, 0.25, 0.25]), 4)
        assert out.entries.tolist() == [0.5, 0.25, 0.25, 0.0]

    def test_cannot_shrink(self):
        with pytest.raises(ValueError):
            pad_to(ProbVector([0.5, 0.5]), 1)


class TestHlpMatrix:
    """Frozen small pairs through mixture_for.  This class and TestBirkhoff
    keep the names of the constructions they first tested, so that their
    test ids stay stable."""

    def test_equal_vectors_give_identity(self):
        v = ProbVector([0.6, 0.4])
        mix = mixture_for(v, v)
        assert len(mix.terms) == 1
        assert mix.terms[0][0] == 1.0 and mix.terms[0][1].is_identity

    def test_unique_2x2_solution(self):
        # the only mixture at n = 2 is half identity, half swap; swap first
        mix = mixture_for(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))
        got = [(round(p, 12), perm.image) for p, perm in mix.terms]
        assert got == [(0.5, (1, 0)), (0.5, (0, 1))]

    def test_3x3_maps_target_to_source(self):
        lam = ProbVector([0.5, 0.3, 0.2])
        mu = ProbVector([0.6, 0.3, 0.1])
        mix = mixture_for(lam, mu)
        assert np.max(np.abs(mix.reconstruct(mu) - lam.entries)) < 1e-9
        assert sum(p for p, _ in mix.terms) == pytest.approx(1.0, abs=1e-9)
        assert len(mix.terms) <= 3

    def test_not_majorized_raises(self):
        with pytest.raises(ConversionImpossible):
            mixture_for(ProbVector([0.75, 0.25]), ProbVector([0.5, 0.5]))

    def test_interleaved_surplus_deficit(self):
        # surplus/deficit positions alternate, and mu has a dead level
        lam = ProbVector([0.4, 0.3, 0.2, 0.1])
        mu = ProbVector([0.5, 0.25, 0.25, 0.0])
        mix = mixture_for(lam, mu)
        assert np.max(np.abs(mix.reconstruct(mu) - lam.entries)) < 1e-9


class TestBirkhoff:
    """Identity, two-level and random 4x4 cases through mixture_for."""

    def test_identity_matrix(self):
        v = ProbVector([0.5, 0.3, 0.2])
        mix = mixture_for(v, v)
        assert len(mix.terms) == 1
        weight, perm = mix.terms[0]
        assert weight == pytest.approx(1.0) and perm.is_identity

    def test_2x2_even_mix(self):
        mix = mixture_for(ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0]))
        got = {(round(p, 12), perm.image) for p, perm in mix.terms}
        assert got == {(0.5, (0, 1)), (0.5, (1, 0))}

    def test_random_4x4_term_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            mu = ProbVector(rng.dirichlet(np.ones(4)))
            d = random_doubly_stochastic(rng, 4, transforms=12)
            lam = ProbVector(d @ mu.entries)
            mix = mixture_for(lam, mu)
            assert len(mix.terms) <= 4
            assert np.max(np.abs(mix.reconstruct(mu) - lam.entries)) < 1e-12

    def test_broken_input_fails_cleanly(self):
        # entries summing to 1.2 slip past the prefix test but cannot be
        # reconstructed; the error names the stage and its numbers
        bad = ProbVector.__new__(ProbVector)
        object.__setattr__(bad, "_entries", np.array([0.6, 0.6]))
        object.__setattr__(bad, "_order", np.arange(2))
        with pytest.raises(DecompositionFailed) as err:
            mixture_for(bad, ProbVector([0.8, 0.2]))
        message = str(err.value)
        assert "mixture_for" in message and "n=2" in message
        assert "residual" in message and "RECONSTRUCT_TOL 1e-09" in message


class TestMixtureFor:
    def test_equal_vectors(self):
        v = ProbVector([0.7, 0.3])
        mix = mixture_for(v, v)
        assert len(mix.terms) == 1 and mix.terms[0][1].is_identity

    def test_2x2_frozen(self):
        mix = mixture_for(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))
        got = {(round(p, 12), perm.image) for p, perm in mix.terms}
        assert got == {(0.5, (0, 1)), (0.5, (1, 0))}

    def test_3x3_reconstructs(self):
        lam = ProbVector([0.5, 0.3, 0.2])
        mu = ProbVector([0.6, 0.3, 0.1])
        mix = mixture_for(lam, mu)
        assert np.max(np.abs(mix.reconstruct(mu) - lam.entries)) < 1e-9

    def test_propagates_impossibility(self):
        with pytest.raises(ConversionImpossible):
            mixture_for(ProbVector([0.9, 0.1]), ProbVector([0.6, 0.4]))


class TestPermutohedronWalk:
    def test_term_bound_and_residual_up_to_1024(self):
        rng = np.random.default_rng(2024)
        for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            mu = random_probs(rng, n)
            lam = t_chain(rng, mu, transforms=4 * n)
            mix = mixture_for(lam, mu)
            assert len(mix.terms) <= n
            assert np.max(np.abs(mix.reconstruct(mu) - lam.entries)) <= 1e-12


class TestMixtureInvariants:
    def test_term_count_enforced(self):
        # three positive terms at n = 2 exceed the bound of n terms
        terms = tuple((1 / 3, Permutation((0, 1))) for _ in range(3))
        with pytest.raises(ValueError, match="exceed bound 2"):
            PermutationMixture(terms, 2)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PermutationMixture(((0.5, Permutation((0, 1))),), 2)


@settings(max_examples=100, deadline=None)
@given(prob_vectors())
def test_majorization_reflexive(v):
    assert is_majorized(v, v)


@settings(max_examples=100, deadline=None)
@given(prob_vectors())
def test_uniform_is_bottom_and_peak_is_top(v):
    n = len(v)
    uniform = ProbVector([1.0 / n] * n)
    peak = ProbVector([1.0] + [0.0] * (n - 1))
    assert is_majorized(uniform, v)
    assert is_majorized(v, peak)


@settings(max_examples=100, deadline=None)
@given(majorized_pairs())
def test_generator_pairs_are_majorized_and_match_oracle(pair):
    lam, mu = pair
    assert is_majorized(lam, mu)
    assert prefix_sum_majorized(lam, mu)


@settings(max_examples=100, deadline=None)
@given(majorized_pairs(), st.data())
def test_majorization_transitive(pair, data):
    b, c = pair
    steps = data.draw(st.lists(
        st.tuples(st.integers(0, len(b) - 1), st.integers(0, len(b) - 1),
                  st.integers(0, 100)),
        min_size=0, max_size=6,
    ))
    v = b.entries.copy()
    for i, j, t_pct in steps:
        if i == j:
            continue
        t = t_pct / 100.0
        vi, vj = v[i], v[j]
        v[i] = t * vi + (1 - t) * vj
        v[j] = (1 - t) * vi + t * vj
    a = ProbVector(v)
    assert is_majorized(a, b)
    assert is_majorized(a, c)


@settings(max_examples=100, deadline=None)
@given(prob_vectors(min_n=2), st.integers(0, 2**31 - 1))
def test_doubly_stochastic_flattening(mu, seed):
    rng = np.random.default_rng(seed)
    d = random_doubly_stochastic(rng, len(mu), transforms=len(mu))
    lam = ProbVector(d @ mu.entries)
    assert is_majorized(lam, mu)
    assert prefix_sum_majorized(lam, mu)


@settings(max_examples=100, deadline=None)
@given(majorized_pairs())
def test_support_shrinkage(pair):
    lam, mu = pair
    lam3 = pad_to(lam, len(lam) + 2)
    mu3 = pad_to(mu, len(mu) + 2)
    assert is_majorized(lam3, mu3)
    for k in range(len(lam3)):
        if lam3[k] == 0.0:
            assert mu3[k] <= 1e-12


@settings(max_examples=100, deadline=None)
@given(majorized_pairs())
def test_mixture_pipeline_invariants(pair):
    lam, mu = pair
    mix = mixture_for(lam, mu)
    n = len(lam)
    assert len(mix.terms) <= n
    assert sum(p for p, _ in mix.terms) == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(mix.reconstruct(mu) - lam.entries)) < 1e-9
