"""Output checks for one op. Each returns a list of failure messages; empty means correct.

Every op is checked for its exit code and for invariants that hold on any
seed. On the golden seed the results must also match golden.json, recorded
from the code this benchmark was defined on: discrete results exactly, real
numbers within GOLDEN_RTOL. The bundled example at alpha 0.9 must converge
under greedy updates to its known equilibrium.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

RUN_TOL = 1e-9            # the CLI's default --tol
ROW_SUM_TOL = 1e-9
GOLDEN_RTOL = 1e-9
Z_LIMIT = 4.0             # acceptance criterion 10
EXIT_OUTCOME = {0: "converged", 3: "cycle", 4: "max_iter"}


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=GOLDEN_RTOL, abs_tol=0.0)


def _compare(record: dict, golden: dict, exact: tuple[str, ...]) -> list[str]:
    out = []
    for key, want in golden.items():
        got = record.get(key)
        if key in exact:
            ok = got == want
        else:
            ok = got is not None and len(np.ravel(got)) == len(np.ravel(want)) and all(
                _close(g, w) for g, w in zip(np.ravel(got), np.ravel(want)))
        if not ok:
            out.append(f"{key}={got!r}, golden {want!r}")
    return out


def run_record(outdir: Path) -> dict:
    """The golden-comparable part of an `eee run` output directory."""
    summary = _read_json(outdir / "summary.json")
    sigma = summary["sigma"]
    return {
        "outcome": summary["outcome"],
        "at_iter": summary["at_iter"],
        "period": summary["period"],
        "actions": None if sigma is None else [np.argmax(np.array(p), axis=-1).tolist() for p in sigma],
        "final_q_norm": summary["final_q_norm"],
    }


def bounds_record(outdir: Path) -> dict:
    doc = _read_json(outdir / "bounds.json")
    return {
        "lambda": doc["coupling"]["lambda"],
        "kappa": doc["diagnostics"]["kappa"],
        "rho": doc["rho"],
        "minimal_mass": doc["diagnostics"]["minimal_mass"],
    }


def check_run(op, rc: int, outdir: Path, golden: dict | None) -> list[str]:
    """Exit code matches the outcome; converged runs meet the tolerance; mu rows are
    probability vectors; the known equilibrium at alpha 0.9; golden results."""
    out = []
    summary = _read_json(outdir / "summary.json")
    if summary["outcome"] != EXIT_OUTCOME.get(rc):
        out.append(f"outcome {summary['outcome']} does not match exit code {rc}")
    if summary["outcome"] == "converged" and not summary["residual"] < RUN_TOL:
        out.append(f"converged with residual {summary['residual']}")
    q_norm = summary["final_q_norm"]
    if q_norm is None or not math.isfinite(q_norm):
        out.append(f"final Q norm {q_norm}")
    for i, m in enumerate(_read_json(outdir / "mu.json")["mu"]):
        m = np.array(m)
        if not np.all(np.isfinite(m)) or np.any(m < 0) or np.max(np.abs(m.sum(-1) - 1)) > ROW_SUM_TOL:
            out.append(f"agent {i + 1} model rows are not probability vectors")
    record = run_record(outdir)
    if op.rung == "n64" and op.alpha == 0.9 and op.policy == "greedy":
        # acceptance criterion 1: agent 1 plays action 2, agent 2 action 1, everywhere
        actions = record["actions"]
        if summary["outcome"] != "converged" or actions is None or not (
                np.all(np.array(actions[0]) == 1) and np.all(np.array(actions[1]) == 0)):
            out.append("example at alpha 0.9 did not converge to the known equilibrium")
    if golden is not None:
        out += _compare(record, golden, exact=("outcome", "at_iter", "period", "actions"))
    return out


def check_bounds(outdir: Path, golden: dict | None) -> list[str]:
    """Finite coupling value, kappa, rho and bounds; minimal masses in (0, 1]; golden."""
    doc = _read_json(outdir / "bounds.json")
    out = []
    values = {
        "lambda": [doc["coupling"]["lambda"]],
        "kappa": [doc["diagnostics"]["kappa"]],
        "rho": [doc["rho"]],
        "model_gap_bound": doc["model_gap_bound"],
        "value_stability_bound": doc["value_stability_bound"],
    }
    for name, vals in values.items():
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
            out.append(f"{name} is not finite: {vals}")
    if not all(0.0 < m <= 1.0 for m in doc["diagnostics"]["minimal_mass"]):
        out.append(f"minimal mass outside (0, 1]: {doc['diagnostics']['minimal_mass']}")
    if golden is not None:
        out += _compare(bounds_record(outdir), golden, exact=())
    return out


def simulate_stats(outdir: Path) -> tuple[bool, float]:
    """(every (z, x) cell visited, max |z|) of an `eee simulate` output directory."""
    with open(outdir / "counts.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    all_visited = bool(rows) and all(int(r["visits"]) > 0 for r in rows)
    doc = _read_json(outdir / "comparison.json")
    z = doc["max_abs_z"]
    return all_visited, float("inf") if isinstance(z, str) else float(z)


def check_simulate(outdir: Path, confirm=None) -> list[str]:
    """Every cell observed and max |z| <= Z_LIMIT.

    With some 8-27 independent cells per op, a correct sampler exceeds the
    limit on about 0.3% of ops, so an op that does is re-simulated once with
    another seed by `confirm` (returning that run's output directory) and
    fails only if the second draw exceeds the limit too.
    """
    visited, z = simulate_stats(outdir)
    out = [] if visited else ["some (z, x) cell was never visited"]
    if z > Z_LIMIT and confirm is not None:
        visited2, z2 = simulate_stats(confirm())
        if z2 > Z_LIMIT or not visited2:
            out.append(f"max |z| {z:.3f} and {z2:.3f} on a confirming draw exceed {Z_LIMIT}")
    elif z > Z_LIMIT:
        out.append(f"max |z| {z:.3f} exceeds {Z_LIMIT}")
    return out


RECORDS = {"run": run_record, "bounds": bounds_record}


def check_op(op, rc: int, outdir: Path, golden: dict | None, confirm=None) -> list[str]:
    if rc not in op.expected_exits:
        return [f"exit code {rc}, expected one of {sorted(op.expected_exits)}"]
    try:
        if op.kind == "run":
            return check_run(op, rc, outdir, golden)
        if op.kind == "bounds":
            return check_bounds(outdir, golden)
        return check_simulate(outdir, confirm)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
