import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dark_level_pairs,
    frozen_mixture_for,
    gamma,
    loop_reconstruct,
    prefix_sum_majorized,
    random_doubly_stochastic,
    random_probs,
    sorted_tensor,
    t_chain,
)
from locc_forge import (
    ConversionImpossible,
    InternalContradiction,
    ProbVector,
    build_plan,
    first_violation,
    is_majorized,
    mixture_for,
    pad_to,
)
from locc_forge.majorization import curve_excess, lorenz, prefix_excess, tails
from locc_forge.probabilistic import _power_terms, intermediate_state


def rounded_terms(mix) -> list[tuple[float, tuple[int, ...]]]:
    """(weight to 12 digits, relabeling row) per mixture term, in order."""
    return [(round(p, 12), tuple(row))
            for p, row in zip(mix.weights.tolist(), mix.terms.tolist())]


def reconstruction_error(mix, lam, mu) -> float:
    """max_k |lam_k - sum_j p_j mu[terms[j, k]]| by the plain-loop oracle."""
    return float(np.max(np.abs(loop_reconstruct(mix.weights, mix.terms, mu) - lam.entries)))


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
        # the CLI prints a vector as its sorted entries
        assert ProbVector([0.25, 0.75]).entries.tolist() == [0.75, 0.25]


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

    def test_rank_one_has_no_prefix_to_violate(self):
        # the prefixes 0..n-2 are none at n = 1
        one = ProbVector([1.0])
        assert first_violation(one, one) is None
        assert prefix_excess(one, one).shape == (0,)


class TestTailSum:
    """The tail sums that pmax and the conclusive waypoint read:
    tails(v)[l] is the sum of v[l:], and tails(v)[n] is 0."""

    def test_full_sum(self):
        assert tails(ProbVector([0.5, 0.3, 0.2]).entries)[0] == pytest.approx(1.0)

    def test_last_entry(self):
        assert tails(ProbVector([0.5, 0.3, 0.2]).entries)[2] == pytest.approx(0.2)

    def test_two_entry(self):
        assert tails(ProbVector([0.9, 0.1]).entries)[1] == pytest.approx(0.1)

    def test_out_of_range(self):
        out = tails(ProbVector([1.0]).entries)
        assert out.tolist() == [1.0, 0.0]
        with pytest.raises(IndexError):
            out[2]

    @pytest.mark.parametrize("v", [
        [0.6, 0.39999999999999, 1e-14],
        [0.5, 0.25, 0.25, 0.0],
        random_probs(np.random.default_rng(3), 16).entries,
        random_probs(np.random.default_rng(4), 1024, floor=0.0).entries,
        *itertools.islice((mu for _, mu in dark_level_pairs()), 8),
    ])
    def test_summed_from_the_right(self, v):
        # bit for bit the frozen reversed cumulative sum, and each tail
        # within gamma_{n-l} of its exact sum relatively: a small tail is as
        # accurate as a large one
        entries = ProbVector(v).entries
        got = tails(entries)
        old = np.zeros(entries.size + 1)
        old[:-1] = np.cumsum(entries[::-1])[::-1]
        assert got.tobytes() == old.tobytes()
        for l in range(entries.size + 1):
            exact = math.fsum(entries[l:].tolist())
            assert abs(got[l] - exact) <= gamma(entries.size - l) * exact, l


class TestLorenzCurves:
    """``lorenz`` and ``curve_excess`` on the distinct terms of tensor
    powers, against running sums in plain Python over the full sorted
    powers (``helpers.sorted_tensor``)."""

    def test_plain_curves_are_prefix_sums(self):
        lam, mu = ProbVector([0.5, 0.3, 0.2]), ProbVector([0.6, 0.3, 0.1])
        ends, sums, slopes = lorenz(lam.entries)
        assert ends is None and slopes is lam.entries
        assert sums.tolist() == list(itertools.accumulate(lam.entries.tolist()))
        want = prefix_excess(lam, mu)
        assert curve_excess(lorenz(lam.entries), lorenz(mu.entries)).tobytes() == want.tobytes()
        # copy count 1 as a power curve, one level per term, is the plain curve
        ones = np.ones(len(lam))
        got = curve_excess(lorenz(lam.entries, ones), lorenz(mu.entries, ones))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_power_curves_match_full_sorted_powers(self, data):
        # small integer weights give zero entries and ties, within either
        # vector and across the two
        n = data.draw(st.integers(1, 4))
        weights = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
        a, b = data.draw(weights), data.draw(weights)
        vectors = [ProbVector(np.array(w) / sum(w)) for w in (a, b)]
        full = [[1.0], [1.0]]
        for c, (values, mult) in enumerate(_power_terms([v.entries for v in vectors], 4), 1):
            full = [sorted_tensor(f, v) for f, v in zip(full, vectors)]
            running = [list(itertools.accumulate(f)) for f in full]
            curves = [lorenz(vals, mult) for vals in values]
            # each product errs by gamma_{c-1}, each running sum by gamma_{n^c},
            # and reading the other curve between breakpoints adds two roundings
            bound = 2.0 * gamma(n**c + c + 2)
            for own, other in ((0, 1), (1, 0)):
                ends, sums, _ = curves[own]
                assert ends[-1] == n**c
                for end, got in zip(ends, sums):
                    assert abs(got - running[own][int(end) - 1]) <= bound
                got = curve_excess(curves[own], curves[other])
                want = [running[own][int(end) - 1] - running[other][int(end) - 1]
                        for end in ends[:-1]]
                assert np.all(np.abs(got - want) <= bound), (a, b, c, own)


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
        assert mix.weights.tolist() == [1.0] and mix.terms.tolist() == [[0, 1]]

    def test_unique_2x2_solution(self):
        # the only mixture at n = 2 is half identity, half swap; swap first
        mix = mixture_for(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))
        assert rounded_terms(mix) == [(0.5, (1, 0)), (0.5, (0, 1))]

    def test_3x3_maps_target_to_source(self):
        lam = ProbVector([0.5, 0.3, 0.2])
        mu = ProbVector([0.6, 0.3, 0.1])
        mix = mixture_for(lam, mu)
        assert reconstruction_error(mix, lam, mu) < 1e-9
        assert np.sum(mix.weights) == pytest.approx(1.0, abs=1e-9)
        assert len(mix.terms) <= 3

    def test_not_majorized_raises(self):
        with pytest.raises(ConversionImpossible):
            mixture_for(ProbVector([0.75, 0.25]), ProbVector([0.5, 0.5]))

    def test_interleaved_surplus_deficit(self):
        # surplus/deficit positions alternate, and mu has a dead level
        lam = ProbVector([0.4, 0.3, 0.2, 0.1])
        mu = ProbVector([0.5, 0.25, 0.25, 0.0])
        mix = mixture_for(lam, mu)
        assert reconstruction_error(mix, lam, mu) < 1e-9


class TestBirkhoff:
    """Identity, two-level and random 4x4 cases through mixture_for."""

    def test_identity_matrix(self):
        v = ProbVector([0.5, 0.3, 0.2])
        mix = mixture_for(v, v)
        assert rounded_terms(mix) == [(1.0, (0, 1, 2))]

    def test_2x2_even_mix(self):
        mix = mixture_for(ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0]))
        assert set(rounded_terms(mix)) == {(0.5, (0, 1)), (0.5, (1, 0))}

    def test_random_4x4_term_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            mu = ProbVector(rng.dirichlet(np.ones(4)))
            d = random_doubly_stochastic(rng, 4, transforms=12)
            lam = ProbVector(d @ mu.entries)
            mix = mixture_for(lam, mu)
            assert len(mix.terms) <= 4
            assert reconstruction_error(mix, lam, mu) < 1e-12

    def test_broken_input_fails_cleanly(self):
        # entries summing to 1.2 slip past the prefix test but cannot be
        # reconstructed; the plan's validation names the worst level
        bad = ProbVector.__new__(ProbVector)
        object.__setattr__(bad, "_entries", np.array([0.6, 0.6]))
        with pytest.raises(InternalContradiction) as err:
            build_plan(bad, ProbVector([0.8, 0.2]))
        message = str(err.value)
        assert "reconstruction 0.19999999999999996 at level 0" in message
        assert "(lam_k 0.6, r_k 0.4)" in message


class TestMixtureFor:
    def test_equal_vectors(self):
        v = ProbVector([0.7, 0.3])
        mix = mixture_for(v, v)
        assert mix.terms.tolist() == [[0, 1]]

    def test_2x2_frozen(self):
        mix = mixture_for(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]))
        assert set(rounded_terms(mix)) == {(0.5, (0, 1)), (0.5, (1, 0))}

    def test_3x3_reconstructs(self):
        lam = ProbVector([0.5, 0.3, 0.2])
        mu = ProbVector([0.6, 0.3, 0.1])
        mix = mixture_for(lam, mu)
        assert reconstruction_error(mix, lam, mu) < 1e-9

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
            assert reconstruction_error(mix, lam, mu) <= 1e-12


def walk_pairs():
    """Majorized (lam, mu) at n = 2..64, 256 and 1024: lam from a random mu
    by 4n random T-transforms; below 1024 also by n // 2 + 1 of them, and
    a tie-heavy pair, mu with integer entries 0..4 and lam from it by n
    unit moves from an entry to one at least 2 smaller, so that both hold
    exactly equal entries."""
    rng = np.random.default_rng(31)
    for n in [*range(2, 65), 256, 1024]:
        mu = random_probs(rng, n)
        yield t_chain(rng, mu, transforms=4 * n), mu
        if n == 1024:
            continue
        yield t_chain(rng, mu, transforms=n // 2 + 1), mu
        units = rng.integers(0, 4, n)
        units[0] += 1
        moved = units.copy()
        for _ in range(n):
            i, j = rng.choice(n, size=2, replace=False)
            if moved[i] - moved[j] >= 2:
                moved[i] -= 1
                moved[j] += 1
        yield (ProbVector(moved / moved.sum()), ProbVector(units / units.sum()))


def dark_walk_pairs():
    """The majorized pairs of ``helpers.dark_level_pairs``: mu has exact
    zeros, so a remainder entry can be exactly 0 during the walk."""
    for lam, mu in dark_level_pairs():
        lam, mu = ProbVector(lam), ProbVector(mu)
        if is_majorized(lam, mu):
            yield lam, mu


def assert_frozen_walks(pairs) -> tuple[int, int]:
    """Walk each pair without cuts, and the reversed pair's waypoint stage
    with the waypoint's segment starts as cuts, and assert the same weights
    and terms as the frozen walk, bit for bit; returns the number of walks
    and the number of them with more than one cut."""
    walked = checked = 0
    for lam, mu in pairs:
        walks = [(lam, mu, ())]
        if np.count_nonzero(mu.entries) >= np.count_nonzero(lam.entries):
            try:
                way = intermediate_state(mu, lam)
            except ConversionImpossible:  # p_max 0: the pair has no waypoint
                pass
            else:
                walks.append((mu, way.gamma, [s for s, _, _ in way.segments[1:]]))
        for source, target, cuts in walks:
            mix = mixture_for(source, target, cuts)
            weights, terms = frozen_mixture_for(source, target, cuts)
            assert np.array_equal(mix.weights, weights), (len(source), cuts)
            assert np.array_equal(mix.terms, terms), (len(source), cuts)
            walked += 1
            checked += len(cuts) > 1
    return walked, checked


class TestFrozenWalk:
    # the walk keeps its face and its last Newton order across steps and
    # carries the remainder negated; the frozen one rebuilds both at every
    # step from the remainder itself
    def test_same_bits_as_the_frozen_walk(self):
        _, checked = assert_frozen_walks(walk_pairs())
        assert checked > 100

    def test_same_bits_on_dark_level_pairs(self):
        # exact zeros in mu, and so remainder entries that are exactly 0,
        # where a negated zero remainder or the -inf sentinel would first show
        walked, checked = assert_frozen_walks(dark_walk_pairs())
        assert walked > 357 and checked >= 10  # 357 majorized pairs

    def test_no_state_kept_between_calls(self):
        # two pairs of one rank, so that a buffer hoisted out of the call
        # would fit the second walk and carry its face into the third
        rng = np.random.default_rng(17)
        pairs = []
        for _ in range(2):
            mu = random_probs(rng, 32)
            pairs.append((t_chain(rng, mu, transforms=4 * 32), mu))
        (lam_a, mu_a), (lam_b, mu_b) = pairs
        inputs = [v.entries.copy() for v in (lam_a, mu_a, lam_b, mu_b)]
        first = mixture_for(lam_a, mu_a)
        mixture_for(lam_b, mu_b)
        again = mixture_for(lam_a, mu_a)
        assert np.array_equal(first.weights, again.weights)
        assert np.array_equal(first.terms, again.terms)
        for v, before in zip((lam_a, mu_a, lam_b, mu_b), inputs):
            assert np.array_equal(v.entries, before)


class TestMixtureArrays:
    def test_weights_and_relabelings_are_read_only_arrays(self):
        mix = mixture_for(ProbVector([0.5, 0.3, 0.2]), ProbVector([0.6, 0.3, 0.1]))
        assert mix.terms.shape == (len(mix.weights), 3)
        for arr in (mix.weights, mix.terms):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_rows_are_inverse_relabelings(self):
        # vertex j puts mu[terms[j, k]] at level k; here the walk takes a
        # 3-cycle, so reading the rows as forward images misses lam
        lam, mu = ProbVector([0.4, 0.35, 0.25]), ProbVector([0.7, 0.2, 0.1])
        mix = mixture_for(lam, mu)
        images = np.argsort(mix.terms, axis=1)
        assert np.any(images != mix.terms)
        assert reconstruction_error(mix, lam, mu) < 1e-15
        forward = loop_reconstruct(mix.weights, images, mu)
        assert np.max(np.abs(forward - lam.entries)) > 0.1


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
    assert np.sum(mix.weights) == pytest.approx(1.0, abs=1e-9)
    assert reconstruction_error(mix, lam, mu) < 1e-9
