"""Command-line harness: JSON instance files in, JSON reports out.

Each report, error reports included, is one line of JSON with sorted keys,
on stdout and, byte for byte, in --out when given; an --out that cannot be
written is an input error.  A short human-readable summary goes to stderr
so that stdout stays pipeable (`| python -m json.tool` indents it).  Reports
are deterministic for a fixed instance and options: reruns are
byte-identical apart from the wall_time_s value.

Exit codes (stable contract):
    0  success / pass
    2  input error: the CLI maps every fault in outside input to
       InstanceError at one boundary (``_InputFaults``)
    3  conversion impossible
    4  resource cap exceeded
    5  internal invariant violation (including failed verification)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceeded,
    ConversionImpossible,
    InstanceError,
    LoccForgeError,
)
from .majorization import (
    UNIT_TOL,
    Check,
    ProbVector,
    first_violation,
    pad_to,
    prefix_excess,
    to_int,
)
from .probabilistic import (
    catalysis_search,
    intermediate_state,
    multicopy_profile,
    pmax,
    run_conclusive,
)
from .protocol import MeasurementPlan, build_plan
from .simulator import (
    MAX_PARTIES,
    DenseState,
    GeneralizedSchmidtState,
    _complex_array,
    extract_gsd,
    run_protocol,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IMPOSSIBLE = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


@dataclass
class Instance:
    lam: ProbVector | None
    mu: ProbVector | None
    dims: tuple[int, ...]
    bases: list[np.ndarray] | None
    state: DenseState | None
    echo: dict


# What malformed outside input raises: undecodable bytes, invalid or too deep JSON,
# numbers that fit neither a float nor an int, missing keys, wrong types or values.
_INPUT_FAULTS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


class _InputFaults:
    """Around each read of outside input: an input fault becomes
    InstanceError("label: message"), or InstanceError(message) with no
    label; anything else, InstanceError included, passes."""

    def __init__(self, label: str | None = None):
        self.label = label

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, _INPUT_FAULTS):
            raise InstanceError(f"{self.label}: {exc}" if self.label else str(exc)) from exc


def _read_json(path: str) -> dict:
    """The JSON object in path, or on stdin for "-", as strict UTF-8 in any locale."""
    with _InputFaults(f"invalid JSON in {path}"):
        try:
            if path == "-":
                text = sys.stdin.buffer.read().decode("utf-8")
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except OSError as exc:
            raise InstanceError(f"cannot read {path}: {exc}") from exc
        payload = json.loads(text)
    if not isinstance(payload, dict):
        raise InstanceError("instance file must hold a JSON object")
    return payload


def _parse_matrix(obj, label: str) -> np.ndarray:
    if isinstance(obj, dict):
        with _InputFaults(f"{label}: bad re/im matrix"):
            return _complex_array(obj["re"], obj["im"])
    with _InputFaults(f"{label}: not a numeric matrix"):
        return np.asarray(obj, dtype=float).astype(complex)


def _digest(arrays) -> dict:
    """sha256 over each array's shape (little-endian int64) and its C-order
    little-endian complex128 bytes, in order; a C-contiguous complex128
    array is hashed through its own buffer, not a copy."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.asarray(arr.shape, dtype="<i8"))
        h.update(np.ascontiguousarray(arr, dtype="<c16"))
    return {"sha256": h.hexdigest()}


def load_instance(payload: dict) -> Instance:
    version = payload.get("schema_version")
    if str(version) != SCHEMA_VERSION:
        raise InstanceError(f"unsupported schema_version {version!r}; "
                            f"expected {SCHEMA_VERSION!r}")

    echo = dict(payload)
    lam = mu = None
    if "lam" in payload or "mu" in payload:
        if "lam" not in payload or "mu" not in payload:
            raise InstanceError("lam and mu must be given together")
        with _InputFaults("bad coefficient vector"):
            raw = [np.asarray(payload[key], dtype=float) for key in ("lam", "mu")]
            lam, mu = (ProbVector(v) for v in raw)
        echo["lam"], echo["mu"] = (_digest([v]) for v in raw)
        n = max(len(lam), len(mu))
        lam, mu = pad_to(lam, n), pad_to(mu, n)

    n = len(lam) if lam is not None else 0
    m = payload.get("m")
    dims = payload.get("dims")
    with _InputFaults("bad m or dims"):
        if dims is not None:
            dims = tuple(to_int(d) for d in dims)
            if m is not None and to_int(m) != len(dims):
                raise InstanceError(f"m={m} but {len(dims)} dims given")
            m = len(dims)
        else:
            m = 2 if m is None else to_int(m)
    if m < 2:
        raise InstanceError("need at least two parties")
    if m > MAX_PARTIES:  # before any per-party tuple is built
        raise CapExceeded(f"{m} parties exceed cap {MAX_PARTIES}")
    if dims is None:
        dims = (max(n, 1),) * m
    if lam is not None and any(d < n for d in dims):
        raise InstanceError(f"every local dimension must be >= rank {n}")

    bases = None
    if payload.get("bases") is not None:
        raw = payload["bases"]
        if not isinstance(raw, list) or len(raw) != m:
            raise InstanceError(f"bases must list one matrix per party ({m})")
        bases = [_parse_matrix(b, f"bases[{i}]") for i, b in enumerate(raw)]
        for i, mat in enumerate(bases):
            if mat.shape != (dims[i], dims[i]):
                raise InstanceError(f"bases[{i}] must be {dims[i]}x{dims[i]}, got {mat.shape}")
        echo["bases"] = _digest(bases)

    state = None
    if payload.get("state") is not None:
        with _InputFaults("bad dense state"):
            state = DenseState.from_json(payload["state"])
        if state.m < 2:
            raise InstanceError("dense state needs at least two parties")
        echo["state"] = _digest([state.tensor()])

    return Instance(lam=lam, mu=mu, dims=dims, bases=bases, state=state, echo=echo)


def _require_vectors(inst: Instance) -> tuple[ProbVector, ProbVector]:
    if inst.lam is None or inst.mu is None:
        raise InstanceError("this command needs lam and mu")
    return inst.lam, inst.mu


def _build_states(inst: Instance) -> tuple[GeneralizedSchmidtState, GeneralizedSchmidtState]:
    """psi and phi share the instance bases, which are checked once."""
    lam, mu = _require_vectors(inst)
    with _InputFaults():
        psi = (GeneralizedSchmidtState.computational(inst.dims, lam) if inst.bases is None
               else GeneralizedSchmidtState(inst.dims, lam, inst.bases))
    return psi, psi._with_coeffs(mu)


def _load_plan(source: str, lam: ProbVector, mu: ProbVector) -> MeasurementPlan:
    """The plan in a plan or a whole ``plan`` report, its diagonals rebuilt
    for lam -> mu."""
    payload = _read_json(source)
    if "outcomes" not in payload:
        inner = payload.get("payload", {})
        if isinstance(inner, dict) and "plan" in inner:
            payload = inner["plan"]
        else:
            raise InstanceError("no measurement plan found in --plan input")
    with _InputFaults("bad plan payload"):
        return MeasurementPlan.from_json(payload, lam, mu)


# What every command returns: its verdict, its payload and its check
# table.  ``main`` prints the table through ``_checked``, the one place
# that writes a report's ``residuals``, ``tolerances`` and ``pass``.
Outcome = tuple[str, dict, dict[str, Check]]


def _passed(checks: dict[str, Check]) -> bool:
    return all(check.ok for check in checks.values())


def _checked(checks: dict[str, Check]) -> dict:
    """A check table as a report prints it: each check's value under
    ``residuals`` and its tolerance under ``tolerances``, by the same name,
    and ``pass``, true when every check passed (so for an empty table)."""
    return {
        "residuals": {name: check.value for name, check in checks.items()},
        "tolerances": {name: check.tol for name, check in checks.items()},
        "pass": _passed(checks),
    }


def cmd_check(inst: Instance, args) -> Outcome:
    lam, mu = _require_vectors(inst)
    idx = first_violation(lam, mu)
    payload = {
        "convertible": idx is None,
        "violation_prefix": idx,
        "max_prefix_excess": max(0.0, prefix_excess(lam, mu)),
    }
    return ("convertible" if idx is None else "not_convertible"), payload, {}


def cmd_plan(inst: Instance, args) -> Outcome:
    lam, mu = _require_vectors(inst)
    plan = build_plan(lam, mu)  # raises ConversionImpossible -> exit 3
    return "plan", {"plan": plan.to_json()}, plan.checks


def cmd_simulate(inst: Instance, args) -> Outcome:
    """The plan's checks, the same whether ``build_plan`` made it or
    --plan read it, join the run's: the diagonals make a complete
    measurement of any plan, so its reconstruction of the source and the
    recomputed outcome weights tell a plan that does not fit the
    instance."""
    psi, phi = _build_states(inst)
    plan = (build_plan(psi.coeffs, phi.coeffs) if args.plan is None
            else _load_plan(args.plan, psi.coeffs, phi.coeffs))
    transcript = run_protocol(psi, phi, plan)
    checks = {**plan.checks, **transcript.checks}
    payload = {"plan": plan.to_json(), "transcript": transcript.to_json()}
    return ("pass" if _passed(checks) else "fail"), payload, checks


def cmd_pmax(inst: Instance, args) -> Outcome:
    lam, mu = _require_vectors(inst)
    p, l_star = pmax(lam, mu)
    return "pmax", {"p_max": p, "l_star": l_star}, {}


def cmd_conclusive(inst: Instance, args) -> Outcome:
    psi, phi = _build_states(inst)
    plan = intermediate_state(psi.coeffs, phi.coeffs)  # may raise -> exit 3
    transcript = run_conclusive(psi, phi, plan)
    payload = {
        "conclusive_plan": plan.to_json(),
        "transcript": transcript.to_json(),
        "predicted_probability": plan.p_max,
        "achieved_probability": transcript.success_probability,
    }
    return ("pass" if transcript.passed else "fail"), payload, transcript.checks


def cmd_multicopy(inst: Instance, args) -> Outcome:
    lam, mu = _require_vectors(inst)
    copies = args.copies
    if copies < 1:
        raise InstanceError("--copies must be >= 1")
    per_copy = {
        str(c): ok for c, ok in enumerate(multicopy_profile(lam, mu, copies), 1)
    }
    verdict = per_copy[str(copies)]
    payload = {
        "copies": copies,
        "convertible": verdict,
        "per_copy": per_copy,
        "tensor_entries": len(lam) ** copies,
    }
    return ("convertible" if verdict else "not_convertible"), payload, {}


def cmd_catalyst(inst: Instance, args) -> Outcome:
    lam, mu = _require_vectors(inst)
    if args.dmax < 1:
        raise InstanceError("--dmax must be >= 1")
    if not 0.0 < args.resolution <= 0.5:
        raise InstanceError("--resolution must lie in (0, 0.5]")
    result = catalysis_search(lam, mu, d_max=args.dmax, resolution=args.resolution)
    return result.verdict, result.to_json(), result.checks


def cmd_extract_gsd(inst: Instance, args) -> Outcome:
    if inst.state is None:
        raise InstanceError("extract-gsd needs a 'state' field in the instance")
    if not 0.0 <= args.tol < 1.0:
        raise InstanceError("--tol must lie in [0, 1)")
    result = extract_gsd(inst.state, tol=args.tol)
    return result.verdict, result.to_json(), {}


COMMANDS = {
    "check": cmd_check,
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "pmax": cmd_pmax,
    "conclusive": cmd_conclusive,
    "multicopy": cmd_multicopy,
    "catalyst": cmd_catalyst,
    "extract-gsd": cmd_extract_gsd,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locc-forge",
        description="Decide, synthesize, and verify local conversions of "
        "multipartite states in generalized Schmidt form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                       help="instance JSON file, or - for stdin")
        p.add_argument("--out", dest="outfile", metavar="FILE",
                       help="also write the JSON report here")
        if name == "extract-gsd":
            p.add_argument("--tol", type=float, default=UNIT_TOL,
                           help="product test: largest squared Schmidt "
                           "coefficient >= 1 - tol at every cut")
        if name == "multicopy":
            p.add_argument("--copies", type=int, default=2)
        if name == "catalyst":
            p.add_argument("--dmax", type=int, default=2)
            p.add_argument("--resolution", type=float, default=0.01)
        if name == "simulate":
            p.add_argument("--plan", metavar="FILE",
                           help="use this plan JSON (- for stdin) instead of "
                           "synthesizing one")
    return parser


_PARSER = _build_parser()


def _human_summary(report: dict) -> str:
    bits = [f"{report['command']}: {report.get('verdict', '?')}"]
    payload = report.get("payload", {})
    if "p_max" in payload:
        bits.append(f"p_max={payload['p_max']:.6g}")
    if "achieved_probability" in payload:
        bits.append(f"achieved={payload['achieved_probability']:.6g}")
    if "violation_prefix" in payload and payload["violation_prefix"] is not None:
        bits.append(f"violation_prefix={payload['violation_prefix']}")
    if "catalyst" in payload and payload["catalyst"]:
        bits.append(f"catalyst={payload['catalyst']}")
    if "coeffs" in payload:
        bits.append(f"coeffs={payload['coeffs']}")
    bits.append("PASS" if report.get("pass") else "FAIL")
    return " | ".join(bits)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    start = time.perf_counter()
    try:
        inst = load_instance(_read_json(args.infile))
        verdict, body, checks = COMMANDS[args.command](inst, args)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": inst.echo,
            "options": _option_echo(args),
            "verdict": verdict,
            "payload": body,
            **_checked(checks),
            "wall_time_s": time.perf_counter() - start,
        }
        try:
            text = _encode(report)
        except _INPUT_FAULTS as exc:
            # a NaN or infinity is bad input (exit 2) if the echoed instance
            # holds it, say in a field nothing validates, else a fault (exit
            # 5); so is nesting too deep to print where the report holds it
            with _InputFaults("instance nested too deep to print"
                              if isinstance(exc, RecursionError)
                              else "non-finite number in the instance"):
                _encode({"inputs": inst.echo})
            raise
    except InstanceError as exc:
        return _fail(args, EXIT_INPUT, "input error", exc)
    except ConversionImpossible as exc:
        return _fail(args, EXIT_IMPOSSIBLE, "conversion impossible", exc)
    except CapExceeded as exc:
        return _fail(args, EXIT_CAP, "resource cap exceeded", exc)
    except (LoccForgeError, ValueError) as exc:
        return _fail(args, EXIT_INTERNAL, "internal invariant violation", exc)

    unwritable = _write_out(args, text)
    if unwritable is not None:
        return _fail(args, EXIT_INPUT, "input error", unwritable)
    sys.stdout.write(text)
    print(_human_summary(report), file=sys.stderr)
    return EXIT_OK if report["pass"] else EXIT_INTERNAL


def _encode(obj: dict) -> str:
    """One line of strict JSON with sorted keys: a NaN or infinite float
    raises ValueError.  Without indent, json.dumps runs CPython's C encoder;
    floats are spelled by float.__repr__ either way."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, default=_json_default) + "\n"


def _json_default(obj):
    """Catch stray numpy scalars; everything else is a real type error."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _option_echo(args) -> dict:
    """Every option of the sub-command, as parsed, except the file names."""
    return {
        key: value for key, value in vars(args).items()
        if key not in ("command", "infile", "outfile")
    }


def _write_out(args, text: str) -> InstanceError | None:
    """Write a report to --out, when given; a path that cannot be written
    comes back as an input error."""
    if args.outfile:
        try:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return InstanceError(f"cannot write --out {args.outfile}: {exc}")
    return None


def _fail(args, code: int, label: str, exc: Exception) -> int:
    """Error report to --out and stdout.  When --out cannot be written, the
    report names that failure instead, exits 2 and goes to stdout only."""
    error = {
        "error": {
            "code": code,
            "type": type(exc).__name__,
            "message": str(exc),
        },
        "command": getattr(args, "command", None),
        "schema_version": SCHEMA_VERSION,
    }
    violation = getattr(exc, "violation_index", None)
    if violation is not None:
        error["error"]["violation_prefix"] = violation
    text = _encode(error)
    unwritable = _write_out(args, text)
    if unwritable is not None:
        args.outfile = None
        return _fail(args, EXIT_INPUT, "input error", unwritable)
    sys.stdout.write(text)
    print(f"locc-forge {label}: {exc}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
