"""Independent oracles for the benchmark's reports.

Plain Python on plain lists: nothing here imports numpy or locc_forge, so
a defect in the package cannot hide in a shared code path.  Each checker
takes the parsed JSON report of one command and returns None when the
report is right, or a one-line reason when it is not.
"""

from __future__ import annotations

MAJORIZATION_TOL = 1e-9
RECONSTRUCT_TOL = 1e-8
PROB_TOL = 1e-8
FIDELITY_TOL = 1e-9
COEFF_TOL = 1e-8


def desc(v) -> list[float]:
    return sorted((float(x) for x in v), reverse=True)


def padded_pair(lam, mu) -> tuple[list[float], list[float]]:
    """Both vectors sorted nonincreasing and zero-padded to a common length."""
    a, b = desc(lam), desc(mu)
    n = max(len(a), len(b))
    return a + [0.0] * (n - len(a)), b + [0.0] * (n - len(b))


def first_violation(lam, mu) -> int | None:
    """Smallest prefix index where lam's running sum exceeds mu's, or None."""
    a, b = padded_pair(lam, mu)
    run_a = run_b = 0.0
    for k in range(len(a) - 1):
        run_a += a[k]
        run_b += b[k]
        if run_a > run_b + MAJORIZATION_TOL:
            return k
    return None


def majorized(lam, mu) -> bool:
    return first_violation(lam, mu) is None


def brute_pmax(lam, mu) -> float:
    """Minimum over cuts l of tail(lam, l) / tail(mu, l), clamped to [0, 1]."""
    a, b = padded_pair(lam, mu)
    best = 1.0
    for l in range(len(a)):
        tail_a = sum(a[l:])
        tail_b = sum(b[l:])
        if tail_b <= 1e-12:
            continue
        best = min(best, 0.0 if tail_a <= 1e-12 else tail_a / tail_b)
    return min(max(best, 0.0), 1.0)


def sorted_tensor(a, b) -> list[float]:
    return sorted((float(x) * float(y) for x in a for y in b), reverse=True)


def tensor_power(v, copies: int) -> list[float]:
    out = [float(x) for x in v]
    for _ in range(copies - 1):
        out = [x * float(y) for x in out for y in v]
    return out


def check_verdict(report: dict, lam, mu) -> str | None:
    want = first_violation(lam, mu)
    payload = report["payload"]
    if payload["convertible"] != (want is None):
        return f"check verdict {payload['convertible']}, oracle {want is None}"
    if payload["violation_prefix"] != want:
        return f"violation prefix {payload['violation_prefix']}, oracle {want}"
    return None


def plan_reconstructs(plan: dict, lam, mu) -> str | None:
    """sum_j p_j mu[sigma_j^{-1}(k)] must give lam_k, and the weights sum to 1."""
    a, b = padded_pair(lam, mu)
    if plan["n"] != len(a):
        return f"plan rank {plan['n']}, oracle {len(a)}"
    recon = [0.0] * len(a)
    total = 0.0
    for out in plan["outcomes"]:
        p = float(out["p"])
        total += p
        for k, src in enumerate(out["perm"]):
            recon[k] += p * b[src]
    if abs(total - 1.0) > RECONSTRUCT_TOL:
        return f"plan weights sum to {total}"
    err = max(abs(x - y) for x, y in zip(recon, a))
    if err > RECONSTRUCT_TOL:
        return f"plan reconstruction residual {err}"
    return None


def check_plan(report: dict, lam, mu) -> str | None:
    if not report["pass"]:
        return "plan report did not pass"
    return plan_reconstructs(report["payload"]["plan"], lam, mu)


def check_simulate(report: dict, lam, mu) -> str | None:
    if not report["pass"]:
        return "simulation report did not pass"
    res = report["residuals"]
    if res["min_fidelity"] < 1.0 - FIDELITY_TOL:
        return f"min fidelity {res['min_fidelity']}"
    branches = report["payload"]["transcript"]["branches"]
    total = sum(br["simulated_prob"] for br in branches)
    if abs(total - 1.0) > PROB_TOL:
        return f"branch probabilities sum to {total}"
    return plan_reconstructs(report["payload"]["plan"], lam, mu)


def check_pmax(report: dict, lam, mu) -> str | None:
    want = brute_pmax(lam, mu)
    got = report["payload"]["p_max"]
    if abs(got - want) > PROB_TOL:
        return f"p_max {got}, oracle {want}"
    return None


def check_conclusive(report: dict, lam, mu) -> str | None:
    if not report["pass"]:
        return "conclusive report did not pass"
    want = brute_pmax(lam, mu)
    payload = report["payload"]
    for key in ("predicted_probability", "achieved_probability"):
        if abs(payload[key] - want) > PROB_TOL:
            return f"{key} {payload[key]}, oracle p_max {want}"
    return None


def check_multicopy(report: dict, lam, mu) -> str | None:
    a, b = padded_pair(lam, mu)
    per_copy = report["payload"]["per_copy"]
    for copies in range(1, report["payload"]["copies"] + 1):
        want = majorized(tensor_power(a, copies), tensor_power(b, copies))
        if per_copy[str(copies)] != want:
            return f"{copies} copies: {per_copy[str(copies)]}, oracle {want}"
    return None


def check_catalyst(report: dict, lam, mu, known_catalyst=None) -> str | None:
    """A found catalyst must verify; a pair whose largest coefficient
    already decreases admits none; a catalyst known to lie on the search
    grid must lead to a hit."""
    a, b = padded_pair(lam, mu)
    payload = report["payload"]
    if payload["found"]:
        c = payload["catalyst"]
        if not majorized(sorted_tensor(a, c), sorted_tensor(b, c)):
            return f"catalyst {c} does not verify"
        if a[0] > b[0] + MAJORIZATION_TOL:
            return "catalyst found although lam_1 > mu_1 rules one out"
        return None
    if known_catalyst is not None:
        return f"no catalyst found although {known_catalyst} lies on the grid"
    return None


def check_extract(report: dict, coeffs) -> str | None:
    """coeffs None means the state has no generalized Schmidt form."""
    payload = report["payload"]
    if coeffs is None:
        if payload["verdict"] != "rejects":
            return f"verdict {payload['verdict']} on a state with no GSD"
        return None
    if payload["verdict"] != "admits":
        return f"verdict {payload['verdict']} on a GSD state"
    got = desc(payload["coeffs"])
    want = desc(coeffs)
    if len(got) != len(want):
        return f"{len(got)} coefficients, oracle {len(want)}"
    err = max(abs(x - y) for x, y in zip(got, want))
    if err > COEFF_TOL:
        return f"coefficient mismatch {err}"
    if payload["reassembly_fidelity"] < 1.0 - FIDELITY_TOL:
        return f"reassembly fidelity {payload['reassembly_fidelity']}"
    return None
