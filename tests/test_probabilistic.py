import functools
import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_pmax,
    dark_level_pairs,
    dense_conclusive,
    exact_pmax,
    loop_min_tail_ratio,
    prefix_band_pairs,
    prefix_sum_majorized,
    random_gss,
    random_probs,
    sorted_tensor,
    t_chain,
)
from locc_forge import (
    CapExceeded,
    ConversionImpossible,
    GeneralizedSchmidtState,
    InternalContradiction,
    MeasurementPlan,
    ProbVector,
    ZeroBranch,
    catalysis_search,
    first_violation,
    intermediate_state,
    is_majorized,
    multicopy_profile,
    pad_to,
    pmax,
    realize,
    run_conclusive,
)
import locc_forge.probabilistic as probabilistic
from locc_forge.probabilistic import (
    MAX_CATALYST_CANDIDATES,
    _grid,
    _grid_partitions,
    _found,
    _power_terms,
    _refute,
    _tail_ratio_chain,
    _tail_ratio_scan,
    _tails,
)
from locc_forge.cli import cmd_conclusive, load_instance
from test_majorization import majorized_pairs, prob_vectors
from test_simulator import ENGINE_SHAPES, scale_heaviest_entry, swap_heaviest_perms

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

    def test_matches_exact_oracle(self):
        # tails summed exactly from the right; the float tails of pmax, its
        # tie rule and ZERO_TOL stay within rounding of the exact minimum
        for lam, mu in tail_ratio_pairs():
            assert abs(pmax(lam, mu)[0] - exact_pmax(lam, mu)) <= 1e-13, len(lam)

    @pytest.mark.xfail(strict=True, reason="a source tail within ZERO_TOL of 0 "
                       "counts as 0 even when its ratio to the target tail does not")
    @pytest.mark.parametrize("lam,mu,want", [
        # the source tail 1e-14 at l = 2 over the target tail 0.2
        ([0.6, 0.39999999999999, 1e-14], [0.5, 0.3, 0.2], 5e-14),
        # pair 361 of dark_level_pairs, reversed: the exact minimum is at l = 3,
        # a source tail of 2.2e-31 over a target tail of 2.1e-21
        (*list(dark_level_pairs())[361][::-1], 1.0644e-10),
    ], ids=["source_tail_1e-14", "reversed_dark_pair_361"])
    def test_tiny_source_tail_keeps_its_ratio(self, lam, mu, want):
        lam, mu = ProbVector(lam), ProbVector(mu)
        assert exact_pmax(lam, mu) == pytest.approx(want, rel=1e-4, abs=0)
        assert pmax(lam, mu)[0] == pytest.approx(exact_pmax(lam, mu), rel=1e-6, abs=0)


def tail_ratio_pairs():
    """Random pairs and tie-heavy ones at ranks 2..1024: entries on a coarse
    grid, equal vectors, zero tails, and mu = lam with its tail scaled up,
    whose tail ratios tie up to rounding."""
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 5, 8, 13, 32, 100, 256, 1024):
        for _ in range(4 if n < 1024 else 1):
            yield random_probs(rng, n), random_probs(rng, n)
            yield t_chain(rng, random_probs(rng, n), n), random_probs(rng, n)
            lam_grid = rng.integers(1, 4, n).astype(float)
            mu_grid = rng.integers(0, 3, n).astype(float)
            mu_grid[0] += 1.0
            yield (ProbVector(lam_grid / lam_grid.sum()),
                   ProbVector(mu_grid / mu_grid.sum()))
            head = n // 2
            lam = np.sort(np.concatenate(
                [rng.uniform(2, 3, head), rng.uniform(0.5, 1, n - head)]))[::-1]
            lam /= lam.sum()
            tail = lam[head:].sum()
            mu = lam.copy()
            mu[head:] *= 1.3
            mu[:head] *= (1.0 - 1.3 * tail) / (1.0 - tail)
            yield ProbVector(lam), ProbVector(mu)
        flat = ProbVector(np.ones(n) / n)
        yield flat, flat


class TestMinTailRatio:
    def test_matches_loop_oracle(self):
        # bit for bit, at every end of the one scan that intermediate_state
        # follows: the cut pmax takes, every segment end and every end that
        # the chain jumps over
        for lam, mu in tail_ratio_pairs():
            e_lam, e_mu = _tails(lam), _tails(mu)
            n = len(lam)
            value, index = _tail_ratio_scan(e_lam, e_mu, 1, n + 1)
            for end in range(1, n + 1):
                expected = loop_min_tail_ratio(e_lam, e_mu, end)
                got = (float(value[end - 1]), int(index[end - 1]))
                assert got == expected, (n, end)
            assert pmax(lam, mu) == (min(max(expected[0], 0.0), 1.0), expected[1])

    def test_waypoint_segments_match_loop_chain(self):
        # the scan over all ends, against one loop scan per segment
        converted = 0
        for lam, mu in tail_ratio_pairs():
            try:
                plan = intermediate_state(lam, mu)
            except ConversionImpossible:
                continue
            e_lam, e_mu = _tails(lam), _tails(mu)
            chain, end = [], len(lam)
            while end > 0:
                scale, start = loop_min_tail_ratio(e_lam, e_mu, end)
                chain.append((start, end, scale))
                end = start
            assert plan.segments == tuple(chain[::-1]), len(lam)
            converted += 1
        assert converted > 100


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
        np.testing.assert_allclose(plan.settle.weights, [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(
            plan.settle.diags, [[np.sqrt(0.15 / 0.9), 1.0], [np.sqrt(0.75 / 0.9), 0.0]],
            atol=1e-12)
        np.testing.assert_allclose(plan.failure_coeffs.entries, [1.0, 0.0], atol=1e-12)

    def test_json_determines_waypoint_and_measurement(self):
        # the printed plan leaves out gamma and the settle plan; the formulas
        # of the README rebuild them from segments and p_max, the settle
        # diagonals by the one plan formula sqrt(p_j t_jk / r_k)
        rng = np.random.default_rng(23)
        pairs = [(t_chain(rng, random_probs(rng, n), n), random_probs(rng, n))
                 for n in (2, 3, 5, 8, 16)]
        for lam, mu in pairs + [(ProbVector([0.9, 0.1]), ProbVector([0.6, 0.4]))]:
            inst = load_instance({"schema_version": "1", "lam": lam.entries.tolist(),
                                  "mu": mu.entries.tolist()})
            lam, mu = inst.lam, inst.mu
            plan = intermediate_state(lam, mu)
            payload = cmd_conclusive(inst, None)[1]["conclusive_plan"]
            assert set(payload) == {"p_max", "l_star", "deterministic_stage", "segments"}
            p = payload["p_max"]
            gamma = np.zeros(len(mu))
            for start, end, scale in payload["segments"]:
                gamma[start:end] = scale * mu.entries[start:end]
            np.testing.assert_allclose(gamma, plan.gamma.entries, rtol=0, atol=1e-15)
            leftover = np.maximum(gamma - p * mu.entries, 0.0)
            if p >= 1.0 - 1e-9:
                assert plan.failure_coeffs is None
                weights, targets = np.ones(1), mu.entries[None, :]
            else:
                failure = leftover / leftover.sum()
                np.testing.assert_allclose(
                    failure, plan.failure_coeffs.entries, rtol=0, atol=1e-12)
                weights, targets = np.array([p, 1.0 - p]), np.array([mu.entries, failure])
            mass = weights[:, None] * targets
            r = mass.sum(axis=0)
            share = np.where(r > 0.0, mass / np.where(r > 0.0, r, 1.0), weights[:, None])
            assert plan.settle.weights.tolist() == weights.tolist()
            assert np.all(plan.settle.perms == np.arange(len(mu)))
            np.testing.assert_allclose(np.sqrt(share), plan.settle.diags, rtol=0, atol=1e-15)

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

    @pytest.mark.parametrize("v", [1e-11, 1e-10, 9e-10])
    def test_prefix_band_failure_coeffs(self, v):
        # 1 - p_max lands just above UNIT_TOL here, where dividing
        # gamma - p*mu by 1 - p once magnified rounding past the sum check
        for lam_raw, mu_raw in prefix_band_pairs(v):
            lam, mu = ProbVector(lam_raw), ProbVector(mu_raw)
            plan = intermediate_state(lam, mu)
            if plan.failure_coeffs is not None:
                leftover = plan.gamma.entries - plan.p_max * mu.entries
                assert np.all(leftover >= -1e-12)
                assert abs(leftover.sum() - (1.0 - plan.p_max)) <= 1e-9
            psi = GeneralizedSchmidtState.computational((len(lam),) * 2, lam)
            phi = GeneralizedSchmidtState.computational((len(lam),) * 2, mu)
            assert run_conclusive(psi, phi, plan).passed

    @pytest.mark.parametrize("ranks", [range(2, 65), [256, 1024]])
    def test_stage_is_cut_at_every_segment(self, ranks):
        # lam and gamma share their prefix sums at every segment start, so
        # the stage's relabelings keep each segment in place, and its walk,
        # starting from len(segments) blocks, takes at most
        # n - len(segments) + 1 steps
        rng = np.random.default_rng(1999)
        for n in ranks:
            for _ in range(3 if n <= 64 else 1):
                plan = intermediate_state(random_probs(rng, n), random_probs(rng, n))
                stage = plan.deterministic_stage
                assert len(stage.weights) <= n - len(plan.segments) + 1
                for start, end, _ in plan.segments:
                    block = stage.perms[:, start:end]
                    assert np.all((block >= start) & (block < end)), (n, start, end)

    def test_rank_increase_rejected(self):
        with pytest.raises(ConversionImpossible) as err:
            intermediate_state(
                ProbVector([0.6, 0.4, 0.0]), ProbVector([0.5, 0.3, 0.2])
            )
        assert str(err.value) == (
            "conclusive conversion impossible: target rank 3 exceeds source rank 2"
        )

    def test_zero_tol_verdict_names_the_cut(self):
        # both ranks are 3; the source tail 1e-14 at l* = 2 is within
        # ZERO_TOL of 0, which decides p_max = 0 (exactly it is 5e-14)
        with pytest.raises(ConversionImpossible) as err:
            intermediate_state(
                ProbVector([0.6, 0.39999999999999, 1e-14]), ProbVector([0.5, 0.3, 0.2])
            )
        message = str(err.value)
        assert "rank exceeds" not in message
        assert message.startswith(
            "conclusive conversion impossible within ZERO_TOL 1e-12: source rank 3 "
            "is not below target rank 3, but at the cut l*=2 the source tail "
        )
        assert "over the target tail 0.2" in message and "p_max 0.0" in message

    def test_settle_is_one_outcome_within_unit_tol_of_one(self):
        # 1 - p_max = 5e-10 lies in (PLAN_TOL, UNIT_TOL]: the settle plan is
        # outcome 0 alone, of weight 1; of weight p_max it would miss its
        # outcome weight by 1 - p_max, above PLAN_TOL
        lam, mu = ProbVector([0.6, 0.4]), ProbVector([0.6 - 2e-10, 0.4 + 2e-10])
        plan = intermediate_state(lam, mu)
        assert 1e-10 < 1.0 - plan.p_max <= 1e-9
        assert plan.failure_coeffs is None
        assert plan.settle.weights.tolist() == [1.0]
        assert all(check.ok for check in plan.settle.checks.values())
        weighted_p = realize(plan.gamma, np.array([plan.p_max]), plan.settle.perms,
                              mu.entries[None, :])
        assert [name for name, check in weighted_p.checks.items() if not check.ok] == [
            "weights"]
        assert weighted_p.checks["weights"].value == pytest.approx(1.0 - plan.p_max)
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2), mu)
        tx = run_conclusive(psi, phi, plan)
        assert tx.passed
        assert [br.success for br in tx.branches] == [True]


class TestWaypointInvariants:
    """Each invariant of the waypoint and its settle plan raises
    InternalContradiction naming the numbers that tripped it; a chain of
    segments put in place of ``_tail_ratio_chain``, after the real first
    segment [l*, n), trips each one."""

    @staticmethod
    def raised(monkeypatch, lam, mu, chain) -> str:
        lam, mu = ProbVector(lam), ProbVector(mu)
        first = _tail_ratio_chain(_tails(lam), _tails(mu))[0]
        monkeypatch.setattr(probabilistic, "_tail_ratio_chain",
                            lambda e_lam, e_mu: [first, *chain])
        with pytest.raises(InternalContradiction) as err:
            intermediate_state(lam, mu)
        return str(err.value)

    def test_increase_names_the_first_increasing_level(self, monkeypatch):
        # p_max = 0.9 at l* = 1; a head scale of 0.1 puts gamma_0 at 0.05
        message = self.raised(monkeypatch, [0.55, 0.25, 0.20], [0.5, 0.45, 0.05],
                              [(0, 1, 0.1)])
        assert message == ("waypoint not nonincreasing: gamma_1 0.405 exceeds "
                           "gamma_0 0.05 by more than ZERO_TOL 1e-12")

    def test_majorization_names_the_prefix_and_its_excess(self, monkeypatch):
        # gamma = [0.3375, 0.3375, 0.225, 0.1] sums to 1 but lam_0 = 0.4
        message = self.raised(monkeypatch, [0.4, 0.3, 0.2, 0.1], [0.3, 0.3, 0.2, 0.2],
                              [(0, 3, 1.125)])
        assert message.startswith(
            "source not majorized by the waypoint: its prefix 0 exceeds gamma's by 0.0625")
        assert message.endswith("above UNIT_TOL 1e-09")

    def test_dominance_names_the_level(self, monkeypatch):
        # p_max = 0.9; the segment [1, 3) at scale 0.8 < p_max leaves
        # gamma = [0.515, 0.24, 0.2, 0.045] below p*mu = 0.27 at level 1
        message = self.raised(monkeypatch, [0.355, 0.3, 0.3, 0.045],
                              [0.4, 0.3, 0.25, 0.05], [(1, 3, 0.8), (0, 1, 1.2875)])
        assert message == ("waypoint fails p*mu dominance at level 1: p*mu_k "
                           "0.26999999999999996 exceeds gamma_k 0.24 by more than "
                           "ZERO_TOL 1e-12")

    def test_failure_mass_names_both_masses(self, monkeypatch):
        # p_max = 0.5 at l* = n - 1, n = 2001; 1999 levels sit 0.99e-12 below
        # p*mu, within ZERO_TOL each, and their clipped leftover takes 2e-9
        # off the failure mass
        n, p = 2001, 0.5
        eps = 0.99e-12 * n
        lam = [(1 - 0.5 / n) / (n - 1)] * (n - 1) + [0.5 / n]
        head = n - (n - 2) * (p - eps) - p
        message = self.raised(monkeypatch, lam, [1.0 / n] * n,
                              [(1, n - 1, p - eps), (0, 1, head)])
        assert message.startswith("failure branch mass 0.50000000197")
        assert message.endswith(
            "expected 1 - p_max = 0.5000000000000001 within UNIT_TOL 1e-09")

    @pytest.mark.parametrize("end", [1, 2])
    def test_no_admissible_ratio_names_the_end(self, end):
        # the columns of ends 1 and 2 have no target tail difference above
        # ZERO_TOL; a scan of both names the first
        e_lam, e_mu = np.array([1.0, 0.8, 0.5, 0.0]), np.array([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(InternalContradiction) as err:
            _tail_ratio_scan(e_lam, e_mu, end, 3)
        assert str(err.value) == (
            f"no admissible tail ratio at end {end}: no l < {end} has a target tail "
            "difference above ZERO_TOL 1e-12")

    def test_failed_settle_check_names_the_stage(self, monkeypatch):
        # p_max = 0.9; with the failure branch dropped as if 1 - p_max were
        # unmeasurable, the one-outcome settle plan rebuilds mu, not gamma
        monkeypatch.setattr(probabilistic, "UNIT_TOL", 0.5)
        with pytest.raises(InternalContradiction) as err:
            intermediate_state(ProbVector([0.55, 0.25, 0.20]), ProbVector([0.5, 0.45, 0.05]))
        assert str(err.value) == (
            "settle measurement failed validation: completeness 0.0, weights 0.0, "
            "reconstruction 0.050000000000000044 at level 0 (lam_k 0.55, r_k 0.5)")


class TestRunConclusive:
    def test_majorized_succeeds_with_certainty(self):
        lam, mu = ProbVector([0.6, 0.4]), ProbVector([0.8, 0.2])
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2), mu)
        tx = run_conclusive(psi, phi, intermediate_state(psi.coeffs, phi.coeffs))
        assert tx.passed
        assert tx.success_probability == pytest.approx(1.0, abs=1e-9)

    def test_three_party_quarter(self):
        psi = GeneralizedSchmidtState.computational((2, 2, 2), ProbVector([0.9, 0.1]))
        phi = GeneralizedSchmidtState.computational((2, 2, 2), ProbVector([0.6, 0.4]))
        tx = run_conclusive(psi, phi, intermediate_state(psi.coeffs, phi.coeffs))
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
        tx = run_conclusive(psi, phi, intermediate_state(psi.coeffs, phi.coeffs))
        assert tx.passed
        assert tx.success_probability == pytest.approx(
            brute_force_pmax(lam, mu), abs=1e-9
        )

    @pytest.mark.parametrize("case, message", [
        ("dims", r"incompatible dims \(3, 3\) vs \(3, 3, 3\)"),
        ("rank", "pad coefficient vectors to a common rank first"),
        ("plan", "plan dimension does not match the states"),
    ])
    def test_mismatched_inputs_are_refused(self, case, message):
        lam, mu, mu3 = ProbVector([0.9, 0.1]), ProbVector([0.6, 0.4]), ProbVector([0.6, 0.3, 0.1])
        psi = GeneralizedSchmidtState.computational((3, 3), lam)
        phi = GeneralizedSchmidtState.computational((3, 3, 3) if case == "dims" else (3, 3),
                                                    mu3 if case == "rank" else mu)
        plan = (intermediate_state(ProbVector([0.5, 0.3, 0.2]), mu3) if case == "plan"
                else intermediate_state(lam, mu))
        with pytest.raises(ValueError, match=message):
            run_conclusive(psi, phi, plan)


def conclusive_instance(rng, dims, n):
    """Random bases and a pair whose conclusive run has a failure branch and
    a stage with at least two relabelings."""
    while True:
        mu = random_probs(rng, n)
        lam = t_chain(rng, random_probs(rng, n), n)
        plan = intermediate_state(lam, mu)
        perms = {tuple(row) for row in plan.deterministic_stage.perms.tolist()}
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
                assert (br.fidelity is not None) == (dense is not None)
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
            swap_heaviest_perms(stage),
            scale_heaviest_entry(stage, psi.coeffs),
        ):
            tx = run_conclusive(psi, phi, replace(plan, deterministic_stage=tampered))
            assert not tx.passed
            assert not all(
                check.ok for name, check in tx.checks.items() if name.startswith("stage_"))

    @pytest.mark.parametrize("row", [0, 1])
    def test_annihilating_measurement_raises(self, row):
        # a zeroed settle row (0 success, 1 failure) annihilates every
        # stage branch, and both rows carry weight
        rng = np.random.default_rng(19)
        psi, phi, plan = conclusive_instance(rng, (3, 4, 3), 3)
        diags = plan.settle.diags.copy()
        diags[row] = 0.0
        dead = replace(plan, settle=MeasurementPlan(plan.settle.weights, diags,
                                                    plan.settle.perms))
        with pytest.raises(ZeroBranch, match=f"outcome {row} carries weight .* source 0$"):
            run_conclusive(psi, phi, dead)

    def test_annihilated_stage_outcome_is_not_settled(self):
        # a zero-weight stage outcome that annihilates the state is one
        # record, with no fidelity, and the settle plan runs on the live one
        lam, mu = ProbVector([0.9, 0.1]), ProbVector([0.6, 0.4])
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2), mu)
        plan = intermediate_state(lam, mu)
        stage = MeasurementPlan([1.0, 0.0], [[1.0, 1.0], [0.0, 0.0]], [[0, 1], [1, 0]])
        tx = run_conclusive(psi, phi, replace(plan, deterministic_stage=stage))
        assert tx.passed
        assert [(br.outcome, br.success) for br in tx.branches] == [
            (0, True), (0, False), (1, None)]
        assert (tx.branches[2].simulated_prob, tx.branches[2].fidelity) == (0.0, None)
        assert tx.success_probability == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("scale, raises", [(1e-7, True), (1e-5, False)])
    def test_zero_branch_is_conditional_on_the_stage_branch(self, scale, raises):
        # stage outcome 1 has weight 1e-4; the failure row scaled by 1e-5
        # leaves it a conditional probability of 7.5e-11, above ZERO_TOL,
        # though 7.5e-15 of the whole; scaled by 1e-7 it is 7.5e-15 of its
        # stage branch, at most ZERO_TOL, and raises
        lam, mu = ProbVector([0.9, 0.1]), ProbVector([0.6, 0.4])
        psi = GeneralizedSchmidtState.computational((2, 2), lam)
        phi = GeneralizedSchmidtState.computational((2, 2), mu)
        plan = intermediate_state(lam, mu)
        weights = np.array([1.0 - 1e-4, 1e-4])
        stage = MeasurementPlan(weights, np.sqrt(weights)[:, None] * np.ones((2, 2)),
                                np.array([[0, 1], [0, 1]]))
        diags = plan.settle.diags.copy()
        diags[1] *= scale
        settle = MeasurementPlan(plan.settle.weights, diags, plan.settle.perms)
        tampered = replace(plan, deterministic_stage=stage, settle=settle)
        if raises:
            with pytest.raises(ZeroBranch, match="outcome 1 carries weight 0.75"):
                run_conclusive(psi, phi, tampered)
            return
        tx = run_conclusive(psi, phi, tampered)
        assert [(br.outcome, br.success) for br in tx.branches] == [
            (0, True), (0, False), (1, True), (1, False)]
        assert tx.branches[3].simulated_prob == pytest.approx(1e-4 * 0.75e-10, rel=1e-9)
        assert tx.branches[3].fidelity == pytest.approx(1.0, abs=1e-12)


class TestMulticopy:
    def test_single_copy_is_plain_majorization(self):
        assert multicopy_profile(JP_LAM, JP_MU, 1)[-1] == is_majorized(JP_LAM, JP_MU)

    def test_majorized_stays_majorized(self):
        lam, mu = ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25])
        assert multicopy_profile(lam, mu, 3) == [True] * 3

    def test_classic_pair_multicopy_profile(self):
        # not convertible per copy at 1 and 2, convertible at 3
        assert not multicopy_profile(JP_LAM, JP_MU, 1)[-1]
        assert not multicopy_profile(JP_LAM, JP_MU, 2)[-1]
        assert multicopy_profile(JP_LAM, JP_MU, 3)[-1]
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
            if multicopy_profile(lam, mu, 1)[-1]:
                continue
            for copies in (2, 3):
                if multicopy_profile(lam, mu, copies)[-1]:
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

    @pytest.mark.parametrize("n, copies", [(3, 6), (4, 10)])
    def test_per_copy_verdicts_match_oracle(self, n, copies):
        # up to the 2^20-entry cap at n = 4
        rng = np.random.default_rng(10 * n + copies)
        lam, mu = random_probs(rng, n), random_probs(rng, n)
        lam_t, mu_t = [1.0], [1.0]
        for k in range(1, copies + 1):
            lam_t, mu_t = sorted_tensor(lam_t, lam), sorted_tensor(mu_t, mu)
            if k in (1, 2, copies // 2, copies):
                assert multicopy_profile(lam, mu, k)[-1] == prefix_sum_majorized(lam_t, mu_t)

    def test_cap(self):
        v = ProbVector([1.0 / 64] * 64)
        with pytest.raises(CapExceeded):
            multicopy_profile(v, v, 4)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_profile_matches_oracle_on_full_powers(self, data):
        # small integer weights give zero entries and ties, within either
        # vector and across the two; lam = mu now and then
        n = data.draw(st.integers(1, 5))
        weights = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
        a = data.draw(weights)
        b = data.draw(st.one_of(st.just(a), weights))
        lam, mu = ProbVector(np.array(a) / sum(a)), ProbVector(np.array(b) / sum(b))
        copies = data.draw(st.integers(1, 6))
        lam_t, mu_t, want = [1.0], [1.0], []
        for _ in range(copies):
            lam_t, mu_t = sorted_tensor(lam_t, lam), sorted_tensor(mu_t, mu)
            want.append(prefix_sum_majorized(lam_t, mu_t))
        assert multicopy_profile(lam, mu, copies) == want

    @pytest.mark.parametrize("n, copies", [(1, 20), (2, 20), (3, 12), (4, 10), (5, 8), (32, 4)])
    def test_terms_count_every_entry_once(self, n, copies):
        # the multinomial multiplicities add up to n^c exactly, and the
        # terms carry the power's whole mass
        v = random_probs(np.random.default_rng(n), n, floor=0.0).entries
        for c, ((values,), mult) in enumerate(_power_terms([v], copies), 1):
            assert mult.sum() == n**c
            assert np.all(mult == np.round(mult))
            assert abs(np.dot(values, mult) - 1.0) <= 1e-12


@functools.lru_cache(maxsize=None)
def partitions(total, k):
    """Partitions of total into exactly k positive parts."""
    if total == 0 and k == 0:
        return 1
    if total <= 0 or k <= 0:
        return 0
    return partitions(total - 1, k - 1) + partitions(total - k, k)


def grid_count(steps, d_max):
    """Candidates on the catalyst grid: partitions into 2..d_max parts."""
    return sum(partitions(steps, k) for k in range(2, d_max + 1))


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
        lam_c, mu_c = sorted_tensor(JP_LAM, c), sorted_tensor(JP_MU, c)
        assert prefix_sum_majorized(lam_c, mu_c)
        # the check: the largest prefix excess of lam(x)c over mu(x)c
        check = result.checks["certificate"]
        assert check.ok and check.tol == 1e-9
        assert check.value == pytest.approx(
            np.max(np.cumsum(lam_c)[:-1] - np.cumsum(mu_c)[:-1]), abs=1e-15)
        assert check.value <= 1e-9
        assert result.certificate == {"uncatalyzed_violation_prefix": 1}

    def test_certificate_passes_exactly_when_majorized(self):
        # the check's ok is is_majorized on the same tensors, also at the
        # 1e-9 edge; its value is minus the smallest prefix margin
        pairs = [(JP_LAM, JP_MU)] + [
            (ProbVector(lam), ProbVector(mu)) for v in (9e-10, 1e-9, 1.1e-9)
            for lam, mu in itertools.islice(prefix_band_pairs(v), 10)]
        for lam, mu in pairs:
            for c in ([1.0], [0.6, 0.4], [0.5, 0.3, 0.2]):
                c = ProbVector(c)
                result = _found(lam, mu, c, {}, 0)
                check = result.checks["certificate"]
                lam_c = ProbVector(np.multiply.outer(lam.entries, c.entries).ravel())
                mu_c = ProbVector(np.multiply.outer(mu.entries, c.entries).ravel())
                assert check.ok is is_majorized(lam_c, mu_c)
                margin = np.min(np.cumsum(mu_c.entries)[:-1] - np.cumsum(lam_c.entries)[:-1])
                assert check.value == -margin

    def test_rank_increase_is_never_catalyzable(self):
        result = catalysis_search(
            ProbVector([0.6, 0.4, 0.0]),
            ProbVector([0.5, 0.3, 0.2]),
            d_max=2,
            resolution=0.05,
        )
        assert not result.found
        assert result.verdict == "refuted"
        assert result.candidates_tested == 0

    @pytest.mark.parametrize("lam, mu, monotone, alpha", [
        ([0.7, 0.2, 0.1], [0.6, 0.3, 0.1], "largest_coefficient", None),
        ([0.54, 0.45, 0.01], [0.62, 0.26, 0.12], "smallest_coefficient", None),
        ([0.8, 0.2, 0.0, 0.0], [0.83, 0.15, 0.02, 0.0], "rank", None),
        ([0.57, 0.33, 0.07, 0.03], [0.57, 0.23, 0.17, 0.03], "power_sum", 2.0),
        ([0.51, 0.3, 0.11, 0.08], [0.51, 0.28, 0.19, 0.02], "power_sum", 3.0),
        ([0.64, 0.26, 0.07, 0.03], [0.66, 0.21, 0.1, 0.03], "power_sum", 0.5),
        ([0.51, 0.41, 0.07, 0.01], [0.6, 0.23, 0.17, 0.0], "entropy", None),
        # a common rank 3 < n: the smallest coefficients are lam_3 and mu_3
        ([0.6, 0.35, 0.05, 0.0], [0.75, 0.15, 0.1, 0.0], "smallest_coefficient", None),
    ])
    def test_each_monotone_refutes(self, lam, mu, monotone, alpha):
        # every earlier monotone holds, this one is broken
        lam, mu = ProbVector(lam), ProbVector(mu)
        result = catalysis_search(lam, mu, d_max=4)
        assert result.verdict == "refuted" and result.candidates_tested == 0
        cert = result.certificate
        assert (cert["monotone"], cert["alpha"]) == (monotone, alpha)
        assert cert["excess"] > 1e-9
        assert cert["uncatalyzed_violation_prefix"] == first_violation(lam, mu)
        a, b = lam.entries, mu.entries
        if monotone == "power_sum":
            assert (cert["source"], cert["target"]) == pytest.approx(
                (np.sum(a**alpha), np.sum(b**alpha)), abs=1e-15)
        if monotone == "rank":
            assert (cert["source"], cert["target"]) == (2, 3)

    def test_refutation_never_contradicts_the_grid(self):
        # random non-majorized pairs: a refuted pair has no grid hit, and a
        # pair with a grid hit passes every monotone
        rng = np.random.default_rng(2007)
        grids = [np.array(list(_grid_partitions(100, d, 100)), dtype=float) / 100
                 for d in (2, 3)]

        def grid_hit(lam, mu, cands):
            # every candidate's sorted lam(x)c and mu(x)c prefixes at once
            prefixes = [
                np.cumsum(-np.sort(-np.einsum("i,kj->kij", v.entries, cands)
                                   .reshape(len(cands), -1)), axis=1)
                for v in (lam, mu)
            ]
            return bool(np.any(np.all(prefixes[0] <= prefixes[1] + 1e-9, axis=1)))

        refuted = hits = 0
        pairs = 0
        while pairs < 2000:
            n = int(rng.integers(3, 7))
            lam, mu = random_probs(rng, n, floor=0.0), random_probs(rng, n, floor=0.0)
            if first_violation(lam, mu) is None:
                continue
            pairs += 1
            hit = any(grid_hit(lam, mu, g) for g in grids)
            refutation = _refute(lam, mu)
            assert not (hit and refutation is not None), (lam, mu, refutation)
            refuted += refutation is not None
            hits += hit
        assert refuted > 1800 and hits > 0

    def test_grid_lists_the_partitions_in_search_order(self):
        for steps in (2, 3, 7, 20):
            for d_max in (1, 2, 3, 5, 30):
                grid = _grid(steps, d_max)
                assert len(grid) == grid_count(steps, d_max), (steps, d_max)
                # by dimension, then lexicographic; each a nonincreasing
                # partition of steps
                assert grid == sorted(grid, key=lambda ks: (len(ks), ks))
                assert len(set(grid)) == len(grid)
                assert all(sum(ks) == steps and list(ks) == sorted(ks, reverse=True)
                           and ks[-1] >= 1 for ks in grid)

    def test_grid_cap(self):
        # the JP search and the refutable pair at d_max = 4 stay under the cap
        assert len(_grid(100, 2)) == grid_count(100, 2) == 50
        assert len(_grid(100, 4)) == grid_count(100, 4) == 8036
        assert len(_grid(100, 5)) == grid_count(100, 5) == 46261
        assert 46261 <= MAX_CATALYST_CANDIDATES
        # listed to one past the cap, never searched: d_max = 8 holds
        # 1,527,674 candidates and --dmax 10 --resolution 0.005 about 1.2e9
        assert grid_count(100, 8) == 1527674
        assert grid_count(200, 10) == 1212199423
        for steps, d_max in ((100, 8), (200, 10), (100, 10**9), (10**9, 2)):
            assert len(_grid(steps, d_max)) == MAX_CATALYST_CANDIDATES + 1
        open_pair = (ProbVector([0.45, 0.35, 0.15, 0.05]),
                     ProbVector([0.55, 0.2, 0.2, 0.05]))
        for kwargs in ({"d_max": 8}, {"d_max": 10, "resolution": 0.005},
                       {"resolution": 5e-324}):
            with pytest.raises(CapExceeded, match="candidates"):
                catalysis_search(*open_pair, **kwargs)
        # refuted and trivially found pairs are answered before the grid
        assert catalysis_search(ProbVector([0.7, 0.2, 0.1]), ProbVector([0.6, 0.3, 0.1]),
                                d_max=50).verdict == "refuted"
        assert catalysis_search(ProbVector([0.5, 0.5]), ProbVector([0.75, 0.25]),
                                d_max=50).verdict == "found"

    def test_large_d_max_walks_only_the_grid(self):
        # no grid point has more than 1/resolution parts: at resolution 0.5
        # the grid is the one point (1/2, 1/2) however large d_max is
        open_pair = (ProbVector([0.45, 0.35, 0.15, 0.05]),
                     ProbVector([0.55, 0.2, 0.2, 0.05]))
        start = time.perf_counter()
        result = catalysis_search(*open_pair, d_max=10**9, resolution=0.5)
        assert time.perf_counter() - start < 0.2
        assert result.verdict == "open" and result.candidates_tested == 1

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
    squares = plan.settle.diags**2
    assert np.max(np.abs(squares.sum(axis=0)[support] - 1.0)) <= 1e-10
    # outcome 0 (success) has weight p_max, or 1 where p_max >= 1 - 1e-9
    success = plan.p_max if plan.failure_coeffs is not None else 1.0
    assert plan.settle.weights[0] == success
    np.testing.assert_allclose(np.sum(gamma.entries * squares, axis=1),
                               plan.settle.weights, rtol=0, atol=1e-10)
