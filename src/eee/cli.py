"""Command line interface: validate, run, sweep, verify, bounds, simulate.

Exit codes: 0 success or convergence, 1 domain violation, 2 unreadable or
malformed input file, 3 policy cycle, 4 iteration cap reached. Output files
are written atomically into the output directory (default
./out/<command>-<timestamp>). The environment variable EEE_LOG
(quiet|info|debug) controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from . import chain_analysis, coupling_bounds, empirical, game_model, learning
from .chain_analysis import StationaryError, VanishingMassError
from .game_model import ConvexFamily, GameSpec, ParseError, SpecError

log = logging.getLogger("eee")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_CYCLE = 3
EXIT_MAX_ITER = 4


@dataclass(frozen=True)
class RunConfig:
    """The arguments of `eee run`, as recorded in summary.json."""

    spec_path: str
    alpha: float | None
    policy: str
    tau: tuple[float, ...] | None
    tol: float
    max_iter: int
    output_dir: str


def _configure_logging():
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("EEE_LOG", "info"), logging.INFO
    )
    if not log.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        log.addHandler(handler)
    log.setLevel(level)


def _output_dir(arg: str | None, command: str) -> Path:
    if arg:
        path = Path(arg)
    else:
        stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
        path = Path("out") / f"{command}-{stamp}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, allow_nan=False) + "\n"


def _load_spec(path: str, alpha: float | None) -> GameSpec:
    spec = game_model.load_game(path)
    if alpha is not None:
        spec = game_model.interpolate(ConvexFamily(base=spec), alpha)
    game_model.require_valid(spec)
    return spec


def _load_profile(path: str, key: str) -> list[np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{path}: expected an object with a '{key}' field")
    arrays = doc[key]
    if not isinstance(arrays, list) or not arrays:
        raise ParseError(f"{path}: '{key}' must be a non-empty array of per-agent tables")
    out = []
    for i, a in enumerate(arrays):
        try:
            out.append(np.array(a, dtype=float))
        except (TypeError, ValueError):
            raise ParseError(f"{path}: agent {i + 1} table is not numeric") from None
    return out


def _sigma_jsonable(sigma: learning.Strategy) -> list:
    return [p.tolist() for p in sigma.probs]


def _mu_jsonable(mu) -> list:
    return [m.tolist() for m in learning.model_arrays(mu)]


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    spec = game_model.load_game(args.spec)
    report = game_model.validate_spec(spec)
    if report.ok:
        print("ok")
        return EXIT_OK
    for violation in report.violations:
        print(violation)
    return EXIT_DOMAIN


def _trace_csv(trace: learning.IterationTrace, spec: GameSpec) -> str:
    max_s = max(ag.n_signals for ag in spec.agents)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["iter", "agent", "z", "x", "a", "sigma_prob", "q_value"]
        + [f"mu_{s + 1}" for s in range(max_s)]
        + ["step_dq", "step_dsigma"]
    )
    for step in trace.steps:
        dsig = "" if math.isnan(step.dsigma) else repr(step.dsigma)
        for i, ag in enumerate(spec.agents):
            q = step.q.tables[i]
            p = step.sigma.probs[i]
            m = step.mu.mu[i]
            for z in range(ag.n_memory):
                for x in range(ag.n_states):
                    mu_cols = [repr(float(v)) for v in m[z, x]]
                    mu_cols += [""] * (max_s - ag.n_signals)
                    for a in range(ag.n_actions):
                        writer.writerow(
                            [step.t, i + 1, z + 1, x + 1, a + 1,
                             repr(float(p[z, x, a])), repr(float(q[z, x, a]))]
                            + mu_cols
                            + [repr(step.dq), dsig]
                        )
    return buf.getvalue()


def cmd_run(args) -> int:
    # every argument fails before the output directory; those the spec does not bound, before reading it
    learning.require_tol(args.tol)
    learning.require_max_iter(args.max_iter)
    if args.alpha is not None:
        game_model.require_alpha(args.alpha)
    spec = _load_spec(args.spec, args.alpha)
    rule = learning.PolicyRule(args.policy, tau=args.tau)
    if rule.kind == "softmax":
        rule.resolve_tau(spec)
    out = _output_dir(args.out, "run")
    config = RunConfig(
        spec_path=args.spec,
        alpha=args.alpha,
        policy=args.policy,
        tau=rule.tau,
        tol=args.tol,
        max_iter=args.max_iter,
        output_dir=str(out),
    )
    log.info("running %s policy on %s (alpha=%s)", config.policy, config.spec_path, config.alpha)
    trace, report = learning.q_value_iteration(spec, rule, tol=args.tol, max_iter=args.max_iter)
    log.info("outcome %s at iteration %d (residual %.3e)", report.outcome, report.at_iter, report.residual)
    for step in trace.steps[:3] + trace.steps[-3:]:
        log.debug("iter %d: dq=%.3e dsigma=%s", step.t, step.dq, step.dsigma)

    final_mu = trace.final_mu
    xi = None
    if trace.final_q is not None and trace.final_sigma is not None and trace.final_sigma.is_deterministic():
        xi = list(learning.margin(trace.final_q, trace.final_sigma))
    summary = {
        "outcome": report.outcome,
        "at_iter": report.at_iter,
        "period": report.period,
        "first_seen": report.first_seen,
        "cycling_agents": list(report.cycling_agents),
        "residual": report.residual,
        "iterations": len(trace.dq_history),
        "final_q_norm": None if trace.final_q is None else trace.final_q.max_norm(),
        "sigma": None if trace.final_sigma is None else _sigma_jsonable(trace.final_sigma),
        "mu": None if final_mu is None else _mu_jsonable(final_mu),
        "xi": xi,
        "config": dataclasses.asdict(config),
    }
    _atomic_write(out / "trace.csv", _trace_csv(trace, spec))
    _atomic_write(out / "summary.json", _json_text(summary))
    if trace.final_sigma is not None:
        _atomic_write(out / "sigma.json", _json_text({"sigma": _sigma_jsonable(trace.final_sigma)}))
    if final_mu is not None:
        _atomic_write(out / "mu.json", _json_text({"mu": _mu_jsonable(final_mu)}))
    print(f"{report.outcome} at_iter={report.at_iter} residual={report.residual:.3e} out={out}")
    if report.outcome == "cycle":
        print(f"cycle period={report.period} first_seen={report.first_seen} "
              f"agents={list(report.cycling_agents)}")
        return EXIT_CYCLE
    if report.outcome == "max_iter":
        return EXIT_MAX_ITER
    return EXIT_OK


def cmd_sweep(args) -> int:
    alphas = sorted(args.alphas)
    out = _output_dir(args.out, "sweep")
    rows = []
    for alpha in alphas:
        row = {"alpha": alpha, "outcome": "", "steps": "", "final_q_norm": "",
               "lambda": "", "rho": "", "error": ""}
        try:
            spec = _load_spec(args.spec, alpha)
            coupling = coupling_bounds.coupling_value(spec)
            row["lambda"] = repr(coupling.lam)
            learning.require_tol(args.tol)  # checked in run's order: tol, max_iter, then tau
            learning.require_max_iter(args.max_iter)
            rule = learning.PolicyRule(args.policy, tau=args.tau)
            trace, report = learning.q_value_iteration(spec, rule, tol=args.tol, max_iter=args.max_iter)
            row["outcome"] = report.outcome
            row["steps"] = report.period if report.outcome == "cycle" else report.at_iter
            row["final_q_norm"] = repr(trace.final_q.max_norm())
            diagnostics = chain_analysis.chain_diagnostics(spec, trace.final_sigma)
            row["rho"] = repr(coupling_bounds.contraction_factor(spec, diagnostics, coupling))
        except (SpecError, ParseError, StationaryError, VanishingMassError, OSError) as exc:
            row["error"] = str(exc)
        rows.append(row)
        log.info("alpha=%s -> %s", alpha, row["outcome"] or row["error"])
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["alpha", "outcome", "steps", "final_q_norm", "lambda", "rho", "error"],
        lineterminator="\n",
    )
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write(out / "sweep.csv", buf.getvalue())
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_spec(args.spec, args.alpha)
    sigma = _load_profile(args.sigma, "sigma")
    mu = _load_profile(args.mu, "mu")
    if args.approx:
        report = learning.verify_approx_eee(
            spec, sigma, mu, tau=args.tau, tol=args.tol
        )
        kind = "approximate equilibrium"
    else:
        report = learning.verify_eee(spec, sigma, mu, tol=args.tol)
        kind = "equilibrium"
    print(f"optimality_ok={report.optimality_ok} residual={report.optimality_residual:.6e}")
    print(f"consistency_ok={report.consistency_ok} residual={report.consistency_residual:.6e}")
    print(f"margins={[float(m) for m in report.margins]}")
    if report.ok:
        print(f"{kind} verified at tol={args.tol}")
        return EXIT_OK
    print(f"{kind} check failed at tol={args.tol}")
    return EXIT_DOMAIN


def cmd_bounds(args) -> int:
    spec = _load_spec(args.spec, args.alpha)
    coupling = coupling_bounds.coupling_value(spec, allow_fallback=args.allow_fallback)
    diag_spec, _ = coupling_bounds.with_references(spec, allow_fallback=args.allow_fallback)
    if not args.sigma:  # the greedy run's controls fail before the output directory
        learning.require_tol(args.tol)
        learning.require_max_iter(args.max_iter)
    out = _output_dir(args.out, "bounds")

    xi = None
    pi = None
    if args.sigma:
        sigma = learning.Strategy(probs=chain_analysis.strategy_arrays(
            _load_profile(args.sigma, "sigma"), spec))
        sigma_source = "supplied"
        if sigma.is_deterministic():
            # one solve of the coupled chain serves both the model and the diagnostics;
            # diag_spec differs from spec only in its uncoupled references. The matrix
            # is dropped here so it does not add to the peak memory of kappa.
            pi = chain_analysis.stationary_distribution(
                chain_analysis.build_joint_transition(spec, sigma)).pi
            mu = chain_analysis.model_from_stationary(spec, pi)
            q_fixed = learning.solve_q_fixed_point(spec, mu)
            xi = learning.margin(q_fixed, sigma)
    else:
        trace, report = learning.q_value_iteration(
            spec, learning.PolicyRule("greedy"), tol=args.tol, max_iter=args.max_iter
        )
        sigma = trace.final_sigma
        sigma_source = f"greedy-run-{report.outcome}"
        xi = learning.margin(trace.final_q, sigma)
    diagnostics = chain_analysis.chain_diagnostics(diag_spec, sigma, pi=pi)
    bounds = coupling_bounds.compute_bounds(spec, diagnostics, coupling, xi=xi)
    doc = {
        "coupling": {
            "eps_phi": coupling.eps_phi,
            "eps_varphi": list(coupling.eps_varphi),
            "lambda": coupling.lam,
            "reference_source": coupling.reference_source,
        },
        "diagnostics": {
            "kappa": diagnostics.kappa,
            "minimal_mass": list(diagnostics.minimal_mass),
            "signal_ceiling": list(diagnostics.signal_ceiling),
        },
        "sigma_source": sigma_source,
        "model_gap_bound": list(bounds.model_gap_bound),
        "value_stability_bound": list(bounds.value_stability_bound),
        "rho": bounds.rho,
        "rho_certified": bounds.rho_certified,
        "margin_lhs": list(bounds.margin_lhs),
        "margin_condition_holds": None
        if bounds.margin_condition_holds is None
        else list(bounds.margin_condition_holds),
        "inputs": bounds.inputs,
    }
    _atomic_write(out / "bounds.json", _json_text(_sanitize(doc)))
    print(f"lambda={coupling.lam} rho={bounds.rho} certified={bounds.rho_certified}")
    print(f"wrote {out / 'bounds.json'}")
    return EXIT_OK


def _sanitize(obj):
    """Replace infinities for strict JSON output."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return None
    return obj


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec, args.alpha)
    sigma = _load_profile(args.sigma, "sigma")
    # the window and the exact model first: either fails before any sampling or output
    empirical.require_window(args.horizon, args.burn_in)
    exact = chain_analysis.consistent_model(spec, sigma)
    out = _output_dir(args.out, "simulate")
    traj = empirical.simulate(spec, sigma, args.horizon, args.seed, burn_in=args.burn_in)
    model = empirical.empirical_model(traj)
    if args.horizon <= args.burn_in:
        log.warning("empty counting window: horizon %d <= burn_in %d", args.horizon, args.burn_in)

    buf = io.StringIO()
    buf.write(f"# seed={traj.seed} horizon={traj.horizon} burn_in={traj.burn_in} "
              f"rng={traj.rng_algorithm}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["agent", "z", "x", "s", "count", "visits", "frequency", "stderr"])
    for i, ag in enumerate(spec.agents):
        for z, x, s in np.ndindex(ag.n_memory, ag.n_states, ag.n_signals):
            defined = bool(model.defined[i][z, x])
            writer.writerow([
                i + 1, z + 1, x + 1, s + 1,
                int(traj.signal_counts[i][z, x, s]),
                int(traj.visits[i][z, x]),
                repr(float(model.freq[i][z, x, s])) if defined else "",
                repr(float(model.stderr[i][z, x, s])) if defined else "",
            ])
    _atomic_write(out / "counts.csv", buf.getvalue())

    comparison = empirical.compare_models(model, exact)
    doc = {
        "max_abs_gap": comparison.max_abs_gap,
        "max_abs_z": comparison.max_abs_z,
        "n_defined_cells": comparison.n_defined,
        "z_scores": [np.where(np.isnan(z), None, z).tolist() for z in comparison.z_scores],
        "seed": traj.seed,
        "horizon": traj.horizon,
        "burn_in": traj.burn_in,
        "rng": traj.rng_algorithm,
    }
    _atomic_write(out / "comparison.json", _json_text(_sanitize(doc)))
    print(f"max_abs_gap={comparison.max_abs_gap:.6e} max_abs_z={comparison.max_abs_z:.3f} out={out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eee",
        description="Equilibrium learning dynamics for weakly coupled finite stochastic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, alpha=True):
        p.add_argument("spec", help="game spec JSON file")
        if alpha:
            p.add_argument("--alpha", type=float, default=None,
                           help="blend weight onto the coupled kernels (requires uncoupled references)")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("validate", help="check a game file against every invariant")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run the learning dynamics to termination")
    add_common(p)
    p.add_argument("--policy", choices=["greedy", "softmax"], default="greedy")
    p.add_argument("--tau", type=float, nargs="+", default=None,
                   help="softmax temperatures, one per agent (or one shared)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10**4, dest="max_iter")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run the dynamics across several blend weights")
    add_common(p, alpha=False)
    p.add_argument("--alphas", type=float, nargs="+", required=True)
    p.add_argument("--policy", choices=["greedy", "softmax"], default="greedy")
    p.add_argument("--tau", type=float, nargs="+", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10**4, dest="max_iter")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="check a (sigma, mu) pair for the equilibrium conditions")
    add_common(p)
    p.add_argument("--sigma", required=True, help="strategy JSON file")
    p.add_argument("--mu", required=True, help="model JSON file")
    p.add_argument("--approx", action="store_true", help="softmax optimality instead of greedy")
    p.add_argument("--tau", type=float, nargs="+", default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="coupling value, diagnostics, and certificates")
    add_common(p)
    p.add_argument("--sigma", default=None, help="strategy JSON file (default: converged greedy run)")
    p.add_argument("--allow-fallback", action="store_true",
                   help="use action-averaged kernels when uncoupled references are missing")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10**4, dest="max_iter")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo signal frequencies under a fixed strategy")
    add_common(p)
    p.add_argument("--sigma", required=True, help="strategy JSON file")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=1000, dest="burn_in")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SpecError, StationaryError, VanishingMassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
