"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line on success (run with -s to see them);
a failed assertion marks the criterion red.  All randomness is seeded, so
the suite is reproducible run to run.
"""

import json
import time

import numpy as np
import pytest

from helpers import (
    assemble_unsorted,
    brute_force_pmax,
    loop_completeness,
    loop_reconstruct,
    passed,
    prefix_sum_majorized,
    random_gss,
    random_probs,
    sorted_tensor,
    t_chain,
)
from locc_forge import (
    DenseState,
    GeneralizedSchmidtState,
    ProbVector,
    build_plan,
    catalysis_search,
    extract_gsd,
    first_violation,
    intermediate_state,
    is_majorized,
    mixture_for,
    pad_to,
    pmax,
    run_conclusive,
    run_protocol,
)
from locc_forge.cli import main as cli_main

JP_LAM = ProbVector([0.4, 0.4, 0.1, 0.1])
JP_MU = ProbVector([0.5, 0.25, 0.25, 0.0])


def _report(k: int, message: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {message}")


def test_criterion_1_end_to_end_sufficiency():
    """>= 500 random instances: mixture, count bound, completeness, branch
    fidelities, and branch probabilities all within stated tolerances."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    instances = 0
    while instances < 500:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 5))
        mu = random_probs(rng, n)
        lam = t_chain(rng, mu, transforms=int(rng.integers(0, n + 2)))
        mixture = mixture_for(lam, mu)
        recon = loop_reconstruct(mixture.weights, mixture.terms, mu)
        assert np.max(np.abs(recon - lam.entries)) <= 1e-9
        assert len(mixture.terms) <= n
        plan = build_plan(lam, mu)
        assert loop_completeness(plan, lam) <= 1e-10
        dims = tuple(int(n + rng.integers(0, 2)) for _ in range(m))
        psi = random_gss(rng, lam, dims)
        phi = random_gss(rng, mu, dims)
        tx = run_protocol(psi, phi, plan)
        assert tx.passed
        for br in tx.branches:
            if br.fidelity is not None:
                assert br.fidelity >= 1 - 1e-9
                assert abs(br.simulated_prob - plan.weights[br.outcome]) <= 1e-9
        assert tx.checks["prob_sum_error"].value <= 1e-9
        instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"500 random instances verified end to end in {elapsed:.1f}s")


def test_criterion_2_necessity_contract(tmp_path, capsys):
    """>= 500 non-majorized pairs: `plan` exits 3; predicate matches the
    independent prefix-sum oracle on every sampled pair."""
    rng = np.random.default_rng(2002)
    rejected = 0
    sampled = 0
    path = tmp_path / "inst.json"
    while rejected < 500:
        n = int(rng.integers(2, 9))
        lam = random_probs(rng, n, floor=0.0)
        mu = random_probs(rng, n, floor=0.0)
        sampled += 1
        oracle = prefix_sum_majorized(lam, mu)
        assert is_majorized(lam, mu) == oracle
        if oracle:
            continue
        path.write_text(json.dumps({
            "schema_version": "1",
            "lam": lam.to_json(),
            "mu": mu.to_json(),
        }))
        code = cli_main(["plan", "--in", str(path)])
        assert code == 3
        rejected += 1
    capsys.readouterr()
    _report(2, f"500 non-majorized pairs all exited 3 "
               f"(oracle agreed on {sampled} pairs)")


def test_criterion_3_qubit_closed_form():
    """>= 200 random qubit pairs: the swap outcome carries the closed-form
    probability within 1e-12 and the identity the rest; frozen pair
    simulates to branch probabilities (1/3, 2/3)."""
    rng = np.random.default_rng(3003)
    checked = 0
    while checked < 200:
        mu = random_probs(rng, 2, floor=0.0)
        lam = t_chain(rng, mu, transforms=1)
        if np.max(np.abs(lam.entries - mu.entries)) <= 1e-12:
            continue
        plan = build_plan(lam, mu)
        expected = (lam[1] - mu[1]) / (mu[0] - mu[1])
        assert plan.perms.tolist() == [[1, 0], [0, 1]]  # swap, then identity
        swap, ident = plan.weights
        assert abs(swap - expected) <= 1e-12
        assert abs(ident - (1.0 - expected)) <= 1e-12
        checked += 1

    lam, mu = ProbVector([0.6, 0.4]), ProbVector([0.8, 0.2])
    psi = GeneralizedSchmidtState.computational((2, 2), lam)
    phi = GeneralizedSchmidtState.computational((2, 2), mu)
    tx = run_protocol(psi, phi, build_plan(lam, mu))
    probs = [br.simulated_prob for br in tx.branches]
    np.testing.assert_allclose(probs, [1 / 3, 2 / 3], atol=1e-9)
    assert tx.passed
    _report(3, "200 qubit pairs match the closed form; frozen pair "
               "simulates to (1/3, 2/3)")


def test_criterion_4_optimal_conclusive_conversion():
    """Frozen p_max value exact to 1e-12; >= 200 random conclusive runs
    achieve the tail-ratio optimum; p_max = 1 iff majorized."""
    p, _ = pmax(ProbVector([0.9, 0.1]), ProbVector([0.6, 0.4]))
    assert abs(p - 0.25) <= 1e-12

    rng = np.random.default_rng(4004)
    runs = 0
    while runs < 200:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 4))
        if rng.uniform() < 0.3:
            mu = random_probs(rng, n)
            lam = t_chain(rng, mu, transforms=n)  # majorized subset
        else:
            lam = random_probs(rng, n)
            mu = random_probs(rng, n)
        p, _ = pmax(lam, mu)
        assert (p >= 1 - 1e-9) == is_majorized(lam, mu)
        assert p == pytest.approx(brute_force_pmax(lam, mu), abs=1e-12)
        if p <= 1e-12:
            continue
        dims = (n,) * m
        psi = GeneralizedSchmidtState.computational(dims, lam)
        phi = GeneralizedSchmidtState.computational(dims, mu)
        tx = run_conclusive(psi, phi, intermediate_state(psi.coeffs, phi.coeffs))
        assert tx.passed
        assert abs(tx.success_probability - p) <= 1e-9
        for br in tx.branches:
            if br.success:
                assert br.fidelity >= 1 - 1e-9
        runs += 1
    _report(4, "p_max frozen value exact; 200 conclusive runs achieved the "
               "optimum with success fidelity >= 1-1e-9")


def test_criterion_5_catalysis():
    """The classic pair is non-convertible, its known catalyst verifies,
    and the grid search finds a verified catalyst in under 10 seconds."""
    assert not is_majorized(JP_LAM, JP_MU)
    assert first_violation(JP_LAM, JP_MU) == 1

    c = [0.6, 0.4]
    lam_c = sorted_tensor(JP_LAM, c)
    mu_c = sorted_tensor(JP_MU, c)
    assert prefix_sum_majorized(lam_c, mu_c)

    start = time.perf_counter()
    result = catalysis_search(JP_LAM, JP_MU, d_max=2, resolution=0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert result.found
    found = result.catalyst.entries
    assert prefix_sum_majorized(
        sorted_tensor(JP_LAM, found), sorted_tensor(JP_MU, found)
    )
    _report(5, f"catalyst {found.tolist()} found and oracle-verified "
               f"in {elapsed:.2f}s")


def test_criterion_6_gsd_extraction():
    """GHZ admits with (0.5, 0.5); the W state rejects with a quantified
    witness; 100 random nondegenerate round trips recover coefficients."""
    ghz = DenseState(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2), (2, 2, 2))
    res = extract_gsd(ghz)
    assert res.verdict == "admits"
    np.testing.assert_allclose(res.state.coeffs.entries, [0.5, 0.5], atol=1e-9)

    w = DenseState(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3), (2, 2, 2))
    res_w = extract_gsd(w)
    assert res_w.verdict == "rejects"
    assert res_w.witness.residual > 0.1
    # independent product-test oracle: the leading A-cut cofactor of W is a
    # two-party state with two equal Schmidt coefficients
    mat = w.amplitudes.reshape(2, 4)
    _, sing, vh = np.linalg.svd(mat)
    cofactor = vh[0, :].reshape(2, 2)
    cof_sing = np.linalg.svd(cofactor, compute_uv=False)
    oracle_residual = 1.0 - cof_sing[0] ** 2
    assert res_w.witness.residual == pytest.approx(oracle_residual, abs=1e-9)

    rng = np.random.default_rng(6006)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        coeffs = random_probs(rng, n, floor=0.02)
        if n > 1 and np.min(-np.diff(coeffs.entries)) < 1e-3:
            continue  # keep the spectrum nondegenerate
        dims = tuple(int(n + rng.integers(0, 2)) for _ in range(m))
        gss = random_gss(rng, coeffs, dims)
        res = extract_gsd(assemble_unsorted(gss))
        assert res.verdict == "admits"
        np.testing.assert_allclose(res.state.coeffs.entries, coeffs.entries, atol=1e-9)
        done += 1
    _report(6, "GHZ admits, W rejects with matching oracle residual, "
               "100 round trips recovered coefficients")


def test_criterion_7_invariant_suite(tmp_path, capsys):
    """Every module's invariants hold over >= 100 randomized cases, and no
    CLI invocation in a mixed sweep returns exit code 5."""
    rng = np.random.default_rng(7007)

    # majorization: reflexivity, bounds, transitivity, flattening round trip
    for _ in range(100):
        n = int(rng.integers(1, 9))
        v = random_probs(rng, n, floor=0.0)
        uniform = ProbVector([1.0 / n] * n)
        peak = ProbVector([1.0] + [0.0] * (n - 1))
        assert is_majorized(v, v)
        assert is_majorized(uniform, v)
        assert is_majorized(v, peak)
        if n >= 2:
            b = t_chain(rng, v, transforms=n)
            a = t_chain(rng, b, transforms=n)
            assert is_majorized(a, v)

    # mixture term bound and reconstruction at n <= 8
    for _ in range(100):
        n = int(rng.integers(2, 9))
        mu = random_probs(rng, n)
        lam = t_chain(rng, mu, transforms=n)
        mix = mixture_for(lam, mu)
        assert len(mix.terms) <= n
        recon = loop_reconstruct(mix.weights, mix.terms, mu)
        assert np.max(np.abs(recon - lam.entries)) <= 1e-9
        padded_lam, padded_mu = pad_to(lam, n + 1), pad_to(mu, n + 1)
        for k in range(n + 1):
            if padded_lam[k] == 0.0:
                assert padded_mu[k] <= 1e-12  # support shrinkage

    # protocol: completeness, weights, per-branch coefficients, n=2 match
    for _ in range(100):
        n = int(rng.integers(2, 7))
        mu = random_probs(rng, n)
        lam = t_chain(rng, mu, transforms=n)
        plan = build_plan(lam, mu)
        assert passed(plan.checks)
        assert np.sum(plan.weights) == pytest.approx(1, abs=1e-10)
        for weight, diag, perm in zip(plan.weights, plan.diags, plan.perms):
            post = lam.entries * diag**2 / weight
            assert np.max(np.abs(post - mu.entries[perm])) <= 1e-9
        if n == 2 and np.max(np.abs(lam.entries - mu.entries)) > 1e-12:
            p = (lam[1] - mu[1]) / (mu[0] - mu[1])
            assert np.allclose(
                sorted((p, 1.0 - p)),
                sorted(plan.weights.tolist()),
                atol=1e-12,
            )

    # simulator: probability conservation, one branch per outcome in order
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        mu = random_probs(rng, n)
        lam = t_chain(rng, mu, transforms=n)
        dims = (n,) * m
        psi = random_gss(rng, lam, dims)
        phi = random_gss(rng, mu, dims)
        plan = build_plan(lam, mu)
        tx = run_protocol(psi, phi, plan)
        # one branch per broadcast outcome, in plan order
        assert tx.passed and [br.outcome for br in tx.branches] == list(
            range(len(plan.weights)))
        assert tx.checks["prob_sum_error"].value <= 1e-9

    # probabilistic: pmax bound/extremes, waypoint invariants, monotonicity
    for _ in range(100):
        n = int(rng.integers(2, 7))
        lam = random_probs(rng, n)
        mu = random_probs(rng, n)
        p, _ = pmax(lam, mu)
        assert (p >= 1 - 1e-9) == is_majorized(lam, mu)
        mixed = t_chain(rng, lam, transforms=n)  # mixed < lam in majorization
        assert pmax(mixed, mu)[0] >= p - 1e-12
        if p > 1e-12:
            plan = intermediate_state(lam, mu)
            assert np.all(np.diff(plan.gamma.entries) <= 1e-12)
            assert is_majorized(lam, plan.gamma)
            assert np.all(p * mu.entries <= plan.gamma.entries + 1e-12)

    # catalysis certificates re-verify under the oracle; the classic pair
    # guarantees at least one hit, random pairs add whatever they find
    hits = 0
    trials = [(JP_LAM, JP_MU)] + [
        (random_probs(rng, 4, floor=0.0), random_probs(rng, 4, floor=0.0))
        for _ in range(100)
    ]
    for lam, mu in trials:
        if is_majorized(lam, mu):
            continue
        result = catalysis_search(lam, mu, d_max=2, resolution=0.05)
        if result.found:
            hits += 1
            c = result.catalyst.entries
            assert prefix_sum_majorized(
                sorted_tensor(lam, c), sorted_tensor(mu, c)
            )
    assert hits > 0

    # CLI sweep: exit code 5 never appears on valid instances
    path = tmp_path / "sweep.json"
    exit_codes = set()
    for _ in range(40):
        n = int(rng.integers(2, 5))
        mu = random_probs(rng, n)
        lam = t_chain(rng, mu, transforms=n) if rng.uniform() < 0.5 else \
            random_probs(rng, n)
        path.write_text(json.dumps({
            "schema_version": "1", "lam": lam.to_json(), "mu": mu.to_json(),
        }))
        for command in ("check", "plan", "simulate", "pmax", "conclusive",
                        "multicopy", "catalyst"):
            argv = [command, "--in", str(path)]
            if command == "catalyst":
                argv += ["--dmax", "2", "--resolution", "0.05"]
            if command == "multicopy":
                argv += ["--copies", "2"]
            exit_codes.add(cli_main(argv))
    ghz = {"dims": [2, 2, 2], "re": [2**-0.5, 0, 0, 0, 0, 0, 0, 2**-0.5], "im": [0] * 8}
    path.write_text(json.dumps({"schema_version": "1", "state": ghz}))
    exit_codes.add(cli_main(["extract-gsd", "--in", str(path)]))
    capsys.readouterr()
    assert 5 not in exit_codes
    assert exit_codes <= {0, 3}
    _report(7, f"invariant sweep green; CLI sweep exit codes {sorted(exit_codes)}")
