"""Output checks for one answered question, run outside the timed spans.

Checks that need no golden run on every question: exit status 0, strict
RFC 8259 JSON with ``"schema": 1``, the echoed input, invariants of the
exact lane (a pair exchanged by an automorphism is cospectral, relative
degrees add up to n, verdicts agree with their preconditions), bounds of
the numeric lane, and every reported integer relation re-verified from
its own reported eigenvalues.

Goldens, keyed by the path-independent question key, pin the exact
fields byte for byte and ``pgst_ceiling`` / ``best_fidelity`` within
``FLOAT_TOL``. Relations themselves are not pinned: a search that covers
more of its box may legitimately find more of them.
"""

from __future__ import annotations

import hashlib
import json

FLOAT_TOL = 1e-6
VERDICTS = {"ProvenPGST", "ProvenNoPGST", "HeuristicObstruction", "Inconclusive"}


class CheckFailed(Exception):
    pass


def _reject_constant(token: str):
    raise CheckFailed(f"non-RFC JSON constant {token}")


def parse_report(stdout: str) -> dict:
    try:
        report = json.loads(stdout, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON on stdout: {exc}") from None
    if not isinstance(report, dict) or report.get("schema") != 1:
        raise CheckFailed("report is not a schema-1 JSON object")
    return report


def _drop_floats(value):
    if isinstance(value, dict):
        return {k: _drop_floats(v) for k, v in value.items() if not _is_float_data(v)}
    if isinstance(value, list):
        return [_drop_floats(v) for v in value if not _is_float_data(v)]
    return value


def _is_float_data(value) -> bool:
    if isinstance(value, float):
        return True
    return isinstance(value, list) and bool(value) and all(isinstance(v, float) for v in value)


def exact_certificate(report: dict) -> dict:
    cert = report["certificate"]
    if cert["verdict"] == "HeuristicObstruction":
        return cert["evidence"]["exact_certificate"]
    return cert


def exact_fields(report: dict) -> dict | None:
    """The fields goldens pin byte for byte; None for ``simulate``."""
    command = report["command"]
    if command == "simulate":
        return None
    fields = {"certificate": _drop_floats(exact_certificate(report))}
    if command == "analyze":
        fields["exact"] = report["exact"]
    else:
        fields["construction"] = report["construction"]
        fields["digest"] = report["result"]["digest"]
    return fields


def golden_entry(report: dict) -> dict:
    fields = exact_fields(report)
    entry = {}
    if fields is not None:
        blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        entry["exact_sha256"] = hashlib.sha256(blob.encode()).hexdigest()
    if "numeric" in report:
        entry["pgst_ceiling"] = report["numeric"]["pgst_ceiling"]
        entry["best_fidelity"] = report["numeric"]["best_fidelity"]
    return entry


def check(question, rc, stdout: str, stderr: str, golden: dict | None) -> None:
    """Raise CheckFailed with the first problem found."""
    if rc != 0:
        last = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise CheckFailed(f"exit status {rc}: {last[0]}")
    report = parse_report(stdout)
    command = question.argv[0]
    if report.get("command") != command:
        raise CheckFailed(f"command {report.get('command')!r}, expected {command!r}")
    inp = report["input"]
    if (inp["n"], inp["u"]["index"], inp["v"]["index"]) != (question.n, question.u, question.v):
        raise CheckFailed("input block does not echo the question's graph and pair")
    if command == "analyze":
        _check_analyze(report, question.n)
    elif command == "construct":
        _check_construct(report)
    if "numeric" in report:
        _check_numeric(report["numeric"], question)
    if report.get("certificate", {}).get("verdict") == "HeuristicObstruction":
        _check_relations(report["certificate"]["evidence"])
    if golden is not None:
        _check_golden(report, golden)


def _check_analyze(report: dict, n: int) -> None:
    exact = report["exact"]
    if exact["cospectral"] is not True:
        raise CheckFailed("pair exchanged by an automorphism reported not cospectral")
    dec = exact["decomposition"]
    if dec["deg_plus"] + dec["deg_minus"] + dec["deg_zero"] != n:
        raise CheckFailed("relative degrees do not add up to n")
    cert = exact_certificate(report)
    _check_verdict(cert)
    if cert["verdict"] == "ProvenPGST" and not exact["strongly_cospectral"]:
        raise CheckFailed("ProvenPGST for a pair that is not strongly cospectral")


def _check_verdict(cert: dict) -> None:
    verdict = cert["verdict"]
    if verdict not in VERDICTS:
        raise CheckFailed(f"unknown verdict {verdict!r}")
    if verdict == "ProvenNoPGST":
        ev = cert["evidence"]
        if ev["deg_plus"] != ev["deg_minus"] or ev["deg_plus"] % 2 == 0:
            raise CheckFailed("ProvenNoPGST without equal odd relative degrees")


def _check_construct(report: dict) -> None:
    _check_verdict(report["certificate"])
    result = report["result"]
    text = result["graph"]
    if text.splitlines()[0] != f"n {result['n']}":
        raise CheckFailed("constructed graph text disagrees with result.n")
    if hashlib.sha256(text.encode()).hexdigest()[:12] != result["digest"]:
        raise CheckFailed("result.digest does not hash the reported graph text")


def _check_numeric(numeric: dict, question) -> None:
    ceiling, best = numeric["pgst_ceiling"], numeric["best_fidelity"]
    if not (0.0 <= best <= ceiling + FLOAT_TOL and ceiling <= 1.0 + FLOAT_TOL):
        raise CheckFailed(f"fidelity {best} and ceiling {ceiling} violate 0 <= f <= ceiling <= 1")
    if not 0.0 <= numeric["best_time"] <= numeric["t_max"]:
        raise CheckFailed("best_time outside [0, t_max]")
    steps = question.argv[question.argv.index("--steps") + 1] if "--steps" in question.argv else None
    if steps is not None and numeric["steps"] != int(steps):
        raise CheckFailed("reported steps differ from the requested steps")


def _check_relations(evidence: dict) -> None:
    lambdas, mus = evidence["lambdas"], evidence["mus"]
    bound, precision = evidence["bound"], evidence["precision"]
    if not evidence["relations"]:
        raise CheckFailed("HeuristicObstruction without relations")
    for rel in evidence["relations"]:
        l, m = rel["l"], rel["m"]
        if len(l) != len(lambdas) or len(m) != len(mus):
            raise CheckFailed("relation length differs from the reported spectrum")
        if sum(l) + sum(m) != 0 or sum(m) % 2 == 0:
            raise CheckFailed(f"relation {l} {m} breaks sum 0 or odd minus-side sum")
        if any(abs(c) > bound for c in l + m):
            raise CheckFailed(f"relation {l} {m} exceeds the coefficient bound")
        residual = sum(c * x for c, x in zip(l + m, lambdas + mus))
        if not abs(residual) < precision:
            raise CheckFailed(f"relation {l} {m} has residual {residual} >= {precision}")


def _check_golden(report: dict, golden: dict) -> None:
    got = golden_entry(report)
    if got.get("exact_sha256") != golden.get("exact_sha256"):
        raise CheckFailed("exact fields differ from the golden")
    for key in ("pgst_ceiling", "best_fidelity"):
        if (key in got) != (key in golden):
            raise CheckFailed(f"{key} presence differs from the golden")
        if key in got and not abs(got[key] - golden[key]) <= FLOAT_TOL:
            raise CheckFailed(f"{key} {got[key]} differs from the golden {golden[key]}")
