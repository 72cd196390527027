"""Output checks for the benchmark.

Each check returns a list of problems; an empty list means the output
passed. The benchmark reports the run as incorrect if any check
returns a problem.
"""

from __future__ import annotations

import json
import math

RESULTS_HEADER = (
    "trial,avg_empirical_loss,transfer_risk,transfer_risk_se,"
    "bound_vc,bound_gaussian,bound_covering,bound_surrogate,"
    "holds_vc,holds_gaussian,holds_covering,holds_surrogate,"
    "test_accuracy,vacuous_vc,elapsed_ms"
)
BOUND_KINDS = ("vc", "gaussian", "covering", "surrogate")

# CSV values carry 9 significant digits; a re-derived flag is only
# compared when the inequality is decided by more than that rounding.
_ROUNDING = 1e-8


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_results_csv(text: str) -> tuple[list[dict], list[str]]:
    """Parse a results CSV into dict rows; returns (rows, problems)."""
    lines = text.splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        return [], ["results CSV header is not the expected header"]
    columns = RESULTS_HEADER.split(",")
    rows, problems = [], []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(columns):
            problems.append(f"line {number}: {len(fields)} fields, expected {len(columns)}")
            continue
        try:
            values = [float(f) for f in fields]
        except ValueError:
            problems.append(f"line {number}: a field is not a number")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"line {number}: non-finite value")
            continue
        rows.append(dict(zip(columns, values)))
    return rows, problems


def check_results_rows(rows: list[dict]) -> list[str]:
    """Re-derive each holds_<kind> and vacuous_vc from its own row."""
    problems = []
    for row in rows:
        t = int(row["trial"])
        limit_base = row["transfer_risk"] - 2.0 * row["transfer_risk_se"]
        for kind in BOUND_KINDS:
            flag = row[f"holds_{kind}"]
            if flag not in (0.0, 1.0):
                problems.append(f"trial {t}: holds_{kind} is not 0 or 1")
                continue
            slack = row[f"bound_{kind}"] - limit_base
            if abs(slack) > _ROUNDING * max(1.0, abs(row[f"bound_{kind}"])) and (slack >= 0) != bool(flag):
                problems.append(f"trial {t}: holds_{kind}={int(flag)} disagrees with its row")
        if row["vacuous_vc"] != float(row["bound_vc"] >= 1.0):
            problems.append(f"trial {t}: vacuous_vc disagrees with bound_vc")
    return problems


def blank_elapsed(text: str) -> str:
    """The CSV with its last column (elapsed_ms) emptied."""
    return "\n".join(line.rsplit(",", 1)[0] + "," for line in text.splitlines())


def check_same_outputs(texts: list[str], what: str) -> list[str]:
    """Every repeat of the same seeded work must produce identical output."""
    if any(t != texts[0] for t in texts[1:]):
        return [f"{what} differ between same-seed repeats"]
    return []


def check_bound_report(name: str, report: dict) -> list[str]:
    """A bound report's total is the sum of its terms and ``vacuous``
    is ``total >= 1``."""
    problems = []
    terms = report["empirical_term"] + report["confidence_term"] + report["complexity_term"]
    if not math.isclose(terms, report["total"], rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"{name}: total is not the sum of its terms")
    if report["vacuous"] != (report["total"] >= 1.0):
        problems.append(f"{name}: vacuous disagrees with total")
    return problems


def check_recorded(observed: dict, recorded: dict, mc_sigmas: float = 4.0) -> list[str]:
    """Compare a run's outputs with recorded values for the same seed.

    Entries holding ``mean`` and ``std_error`` are Monte Carlo
    estimates and must lie within ``mc_sigmas`` reported standard
    errors; integers and lists must be equal; other floats must agree
    to 1e-12 relative, which admits only last-digit BLAS reordering.
    """
    problems = []
    for key, want in recorded.items():
        if key not in observed:
            problems.append(f"{key}: missing from the outputs")
            continue
        got = observed[key]
        if isinstance(want, dict) and "std_error" in want:
            if abs(got["mean"] - want["mean"]) > mc_sigmas * got["std_error"]:
                problems.append(f"{key}: mean {got['mean']!r} is more than {mc_sigmas} standard "
                                f"errors from the recorded {want['mean']!r}")
        elif isinstance(want, float):
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300):
                problems.append(f"{key}: {got!r} differs from the recorded {want!r}")
        elif got != want:
            problems.append(f"{key}: {got!r} differs from the recorded {want!r}")
    return problems
