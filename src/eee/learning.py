"""Q-value iteration dynamics with greedy or softmax policy updates.

One iteration: update the policy from the current Q tables, recompute each
agent's consistent signal model exactly under the true joint chain, then apply
one Bellman update per agent against that model. Termination is convergence
(small Q step with a stable greedy policy), a detected policy or Q cycle, or
the iteration cap. Fixed points can be verified as equilibria: the policy
must be optimal for the Q fixed point under the agent's own model, and the
model must equal the long-run signal frequencies the profile induces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chain_analysis import (
    ConsistentModel,
    VanishingMassError,
    consistent_model,
    strategy_arrays,
)
from .game_model import GameSpec, SpecError, require_valid

RETAIN_FULL = 10**4
FIXED_POINT_TOL = 1e-12
FIXED_POINT_CAP = 10**6
# slowest per-step decay of the Q step still read as convergence, not a cycle
STALL_RATE = 0.98


@dataclass(frozen=True)
class QTable:
    """Per agent, tables[i][z, x, a] is the estimated action value."""

    tables: tuple[np.ndarray, ...]

    def flat(self) -> np.ndarray:
        return np.concatenate([t.ravel() for t in self.tables])

    def max_norm(self) -> float:
        return max(float(np.max(np.abs(t))) for t in self.tables)


@dataclass(frozen=True)
class Strategy:
    """Per agent, probs[i][z, x, a] is the probability of action a at (z, x)."""

    probs: tuple[np.ndarray, ...]

    def is_deterministic(self, tol: float = 1e-12) -> bool:
        return all(np.all(np.max(p, axis=-1) >= 1.0 - tol) for p in self.probs)

    def actions(self) -> tuple[np.ndarray, ...]:
        """Per agent argmax table; meaningful for deterministic strategies."""
        return tuple(np.argmax(p, axis=-1) for p in self.probs)


@dataclass(frozen=True)
class PolicyRule:
    kind: str
    tau: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("greedy", "softmax"):
            raise SpecError(f"policy rule must be 'greedy' or 'softmax', got {self.kind!r}")
        if self.tau is not None:
            taus = (self.tau,) if np.isscalar(self.tau) else tuple(self.tau)
            object.__setattr__(self, "tau", tuple(float(t) for t in taus))
            if any(t <= 0 for t in self.tau):
                raise SpecError("softmax temperatures must be positive")

    def resolve_tau(self, spec: GameSpec) -> tuple[float, ...]:
        if self.tau is not None:
            if len(self.tau) == 1 and spec.n_agents > 1:
                return self.tau * spec.n_agents
            if len(self.tau) != spec.n_agents:
                raise SpecError(f"expected {spec.n_agents} temperatures, got {len(self.tau)}")
            return self.tau
        return tuple(ag.temperature for ag in spec.agents)


@dataclass
class TraceStep:
    t: int
    q: QTable
    sigma: Strategy
    mu: ConsistentModel
    dq: float
    dsigma: float


@dataclass
class IterationTrace:
    rule: PolicyRule
    steps: list[TraceStep] = field(default_factory=list)
    dq_history: list[float] = field(default_factory=list)
    dsigma_history: list[float] = field(default_factory=list)
    final_q: QTable | None = None
    final_sigma: Strategy | None = None

    def record(self, step: TraceStep, always: bool = False) -> None:
        # full retention up to RETAIN_FULL iterations, 1-in-10 beyond
        if always or step.t <= RETAIN_FULL or step.t % 10 == 0:
            self.steps.append(step)
        self.dq_history.append(step.dq)
        self.dsigma_history.append(step.dsigma)

    @property
    def final_mu(self) -> ConsistentModel | None:
        return self.steps[-1].mu if self.steps else None


@dataclass(frozen=True)
class TerminationReport:
    outcome: str  # converged | cycle | max_iter
    at_iter: int
    residual: float
    period: int | None = None
    first_seen: int | None = None
    cycling_agents: tuple[int, ...] = ()


def q_arrays(q) -> tuple[np.ndarray, ...]:
    return tuple(getattr(q, "tables", q))


def model_arrays(mu) -> tuple[np.ndarray, ...]:
    return tuple(getattr(mu, "mu", mu))


def zeros_q(spec: GameSpec) -> QTable:
    return QTable(
        tables=tuple(
            np.zeros((ag.n_memory, ag.n_states, ag.n_actions)) for ag in spec.agents
        )
    )


def greedy_policy(q) -> Strategy:
    """Deterministic argmax policy; ties go to the lowest action index."""
    probs = []
    for t in q_arrays(q):
        p = np.zeros_like(t)
        np.put_along_axis(p, np.argmax(t, axis=-1)[..., None], 1.0, axis=-1)
        probs.append(p)
    return Strategy(probs=tuple(probs))


def softmax_policy(q, tau) -> Strategy:
    """Boltzmann policy at per-agent temperatures, max-subtracted for safety."""
    tables = q_arrays(q)
    taus = [float(t) for t in (tau if isinstance(tau, (list, tuple, np.ndarray)) else [tau] * len(tables))]
    if len(taus) != len(tables):
        raise SpecError(f"expected {len(tables)} temperatures, got {len(taus)}")
    probs = []
    for t, ti in zip(tables, taus):
        if ti <= 0:
            raise SpecError(f"softmax temperature must be positive, got {ti}")
        shifted = (t - t.max(axis=-1, keepdims=True)) / ti
        e = np.exp(shifted)
        probs.append(e / e.sum(axis=-1, keepdims=True))
    return Strategy(probs=tuple(probs))


def bellman_update(q, mu, spec: GameSpec) -> QTable:
    """One Q-update per agent against its own signal model.

    New value at (z, x, a): expected stage reward under mu plus the
    discounted continuation, where the next memory follows the memory rule,
    the next local state follows the true action-dependent local kernel, and
    the continuation value is the max over next actions.
    """
    tables = q_arrays(q)
    models = model_arrays(mu)
    out = []
    for t, m, ag in zip(tables, models, spec.agents):
        v = t.max(axis=-1)                         # (Z, X)
        v_next = v[ag.memory_rule]                  # (Z, S, X+)
        cont = np.einsum("axsX,zsX->zxsa", ag.local_kernels_4d, v_next)
        stage = np.einsum("zxs,xas->zxa", m, ag.reward)
        out.append(stage + ag.discount * np.einsum("zxs,zxsa->zxa", m, cont))
    return QTable(tables=tuple(out))


def max_metric_q(q, q_bar) -> float:
    a, b = q_arrays(q), q_arrays(q_bar)
    if len(a) != len(b) or any(x.shape != y.shape for x, y in zip(a, b)):
        raise SpecError("Q tables have mismatched dimensions")
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


def max_metric_strategy(sigma, sigma_bar) -> float:
    a = tuple(getattr(sigma, "probs", sigma))
    b = tuple(getattr(sigma_bar, "probs", sigma_bar))
    if len(a) != len(b) or any(x.shape != y.shape for x, y in zip(a, b)):
        raise SpecError("strategies have mismatched dimensions")
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


def _greedy_fingerprint(q_tables) -> bytes:
    return b"|".join(np.argmax(t, axis=-1).astype(np.int64).tobytes() for t in q_tables)


def _sigma_fingerprints(sigma: Strategy) -> tuple[bytes, ...]:
    return tuple(np.argmax(p, axis=-1).astype(np.int64).tobytes() for p in sigma.probs)


def q_value_iteration(
    spec: GameSpec,
    rule: PolicyRule,
    q0: QTable | None = None,
    tol: float = 1e-9,
    max_iter: int = 10**4,
) -> tuple[IterationTrace, TerminationReport]:
    """Run the three-step dynamics until convergence, a cycle, or the cap.

    Convergence requires a Q step below tol and a greedy policy unchanged
    over the last two iterations. Greedy runs cycle when an earlier exact
    policy recurs at distance >= 2; softmax runs cycle when the current Q
    matches an earlier iterate within tol while the one-step distance is
    still at least tol.

    Greedy runs solve each distinct policy's chain once: a one-hot policy is
    determined by its argmax fingerprint, so a recurring policy reuses the
    model of its first solve. Softmax runs solve the chain every iteration.
    """
    require_valid(spec)
    if tol <= 0:
        raise SpecError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise SpecError(f"max_iter must be >= 1, got {max_iter}")
    q = zeros_q(spec) if q0 is None else QTable(tables=tuple(np.array(t, dtype=float) for t in q_arrays(q0)))
    ceiling = max(ag.reward_ceiling / (1.0 - ag.discount) for ag in spec.agents)
    if q.max_norm() > ceiling + 1e-9:
        raise SpecError(f"initial Q norm {q.max_norm():.6g} exceeds the ceiling {ceiling:.6g}")

    tau = rule.resolve_tau(spec) if rule.kind == "softmax" else None
    trace = IterationTrace(rule=rule)
    seen: dict[bytes, int] = {}
    models: dict[bytes, ConsistentModel] = {}
    sigma_fp_history: list[tuple[bytes, ...]] = []
    q_flat_history: list[np.ndarray] = []
    greedy_fps: list[bytes] = [_greedy_fingerprint(q.tables)]
    prev_sigma: Strategy | None = None
    agent_slices = _agent_flat_slices(q.tables)

    last_dq = math.inf
    for t in range(max_iter):
        if rule.kind == "softmax":
            q_flat = q.flat()
            hit = _softmax_cycle_scan(q_flat, q_flat_history, trace.dq_history, tol)
            if hit is not None:
                period = t - hit
                agents = _varying_agents_q(q_flat_history + [q_flat], hit, t, agent_slices, tol)
                sigma = softmax_policy(q, tau)
                _record_terminal_step(trace, spec, t, q, sigma, prev_sigma, consistent_model(spec, sigma))
                trace.final_q, trace.final_sigma = q, sigma
                return trace, TerminationReport(
                    outcome="cycle", at_iter=t, residual=last_dq,
                    period=period, first_seen=hit, cycling_agents=agents,
                )
            q_flat_history.append(q_flat)

        sigma = greedy_policy(q) if rule.kind == "greedy" else softmax_policy(q, tau)

        if rule.kind == "greedy":
            fps = _sigma_fingerprints(sigma)
            fp = b"|".join(fps)
            sigma_fp_history.append(fps)
            if fp in seen and t - seen[fp] >= 2:
                first = seen[fp]
                agents = _varying_agents_sigma(sigma_fp_history, first, t)
                _record_terminal_step(trace, spec, t, q, sigma, prev_sigma, models[fp])
                trace.final_q, trace.final_sigma = q, sigma
                return trace, TerminationReport(
                    outcome="cycle", at_iter=t, residual=last_dq,
                    period=t - first, first_seen=first, cycling_agents=agents,
                )
            seen[fp] = t
            if fp not in models:
                models[fp] = _model_at(spec, sigma, t)
            mu = models[fp]
        else:
            mu = _model_at(spec, sigma, t)

        q_next = bellman_update(q, mu, spec)
        dq = max_metric_q(q_next, q)
        dsigma = max_metric_strategy(sigma, prev_sigma) if prev_sigma is not None else math.nan
        trace.record(TraceStep(t=t, q=q, sigma=sigma, mu=mu, dq=dq, dsigma=dsigma))

        greedy_fps.append(_greedy_fingerprint(q_next.tables))
        if dq < tol and t >= 1 and greedy_fps[-1] == greedy_fps[-2] == greedy_fps[-3]:
            trace.final_q = q_next
            trace.final_sigma = greedy_policy(q_next) if rule.kind == "greedy" else softmax_policy(q_next, tau)
            return trace, TerminationReport(outcome="converged", at_iter=t + 1, residual=dq)

        prev_sigma = sigma
        q = q_next
        last_dq = dq

    trace.final_q = q
    trace.final_sigma = greedy_policy(q) if rule.kind == "greedy" else softmax_policy(q, tau)
    return trace, TerminationReport(outcome="max_iter", at_iter=max_iter, residual=last_dq)


def _model_at(spec, sigma, t) -> ConsistentModel:
    try:
        return consistent_model(spec, sigma)
    except VanishingMassError as exc:
        raise VanishingMassError(f"iteration {t}: {exc}") from exc


def _record_terminal_step(trace, spec, t, q, sigma, prev_sigma, mu) -> None:
    """Record the recurrence step itself so trace scans can reproduce the cycle."""
    dq = max_metric_q(bellman_update(q, mu, spec), q)
    dsigma = max_metric_strategy(sigma, prev_sigma) if prev_sigma is not None else math.nan
    trace.record(TraceStep(t=t, q=q, sigma=sigma, mu=mu, dq=dq, dsigma=dsigma), always=True)


def _agent_flat_slices(tables) -> list[slice]:
    sizes = [t.size for t in tables]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    return [slice(int(offs[i]), int(offs[i + 1])) for i in range(len(sizes))]


def _softmax_cycle_scan(q_flat, history, dq_history, tol) -> int | None:
    """Matching iterate index at lag >= 2, or None.

    A recurrence alone does not separate a genuine orbit from a damped
    oscillation spiralling into a fixed point, so a candidate period p only
    counts when the one-step distance has stalled: dq must not have decayed
    faster than STALL_RATE per step across the last period.
    """
    t = len(history)
    if t < 4 or not (dq_history and dq_history[-1] >= tol):
        return None
    lo = t - t // 2  # candidate indices j = t - p with 2 <= p <= t // 2
    hi = t - 2
    if hi < lo:
        return None
    stack = np.stack(history[lo : hi + 1])
    diffs = np.max(np.abs(stack - q_flat), axis=1)
    for k in range(diffs.size - 1, -1, -1):  # largest j first, smallest period
        if diffs[k] >= tol:
            continue
        j = lo + k
        period = t - j
        if j - 1 < len(dq_history) and dq_history[-1] >= STALL_RATE**period * dq_history[j - 1]:
            return j
    return None


def _varying_agents_sigma(fp_history, first, t) -> tuple[int, ...]:
    window = fp_history[first : t + 1]
    return tuple(
        i + 1
        for i in range(len(window[0]))
        if any(step[i] != window[0][i] for step in window[1:])
    )


def _varying_agents_q(flat_history, first, t, agent_slices, tol) -> tuple[int, ...]:
    window = np.stack(flat_history[first : t + 1])
    out = []
    for i, sl in enumerate(agent_slices):
        seg = window[:, sl]
        if np.max(np.abs(seg - seg[0])) >= tol:
            out.append(i + 1)
    return tuple(out)


def detect_cycle(trace: IterationTrace, tol: float = 1e-9) -> TerminationReport | None:
    """Scan a recorded trace for the cycle rule matching its policy kind.

    Greedy traces cycle on an exact recurring policy at distance >= 2;
    softmax traces cycle on a Q recurrence within tol while the step
    distance is still at least tol. Returns None when no cycle is present.
    As in the live report, the residual is the step distance recorded just
    before the recurrence. Thinned traces (beyond the retention cap) are
    scanned as recorded.
    """
    steps = trace.steps
    if not steps:
        raise SpecError("trace is empty")
    if trace.rule.kind == "greedy":
        seen: dict[bytes, int] = {}
        history = []
        for k, step in enumerate(steps):
            fps = _sigma_fingerprints(step.sigma)
            history.append(fps)
            fp = b"|".join(fps)
            if fp in seen and step.t - seen[fp] >= 2:
                first = seen[fp]
                first_pos = next(j for j, s in enumerate(steps) if s.t == first)
                agents = _varying_agents_sigma(history, first_pos, k)
                return TerminationReport(
                    outcome="cycle", at_iter=step.t, residual=steps[k - 1].dq,
                    period=step.t - first, first_seen=first, cycling_agents=agents,
                )
            seen[fp] = step.t
        return None
    flats = [step.q.flat() for step in steps]
    dqs = [step.dq for step in steps]
    agent_slices = _agent_flat_slices(steps[0].q.tables)
    for k in range(4, len(steps)):
        t = steps[k].t
        hit = _softmax_cycle_scan(flats[k], flats[:k], dqs[:k], tol)
        if hit is not None:
            return TerminationReport(
                outcome="cycle", at_iter=t, residual=dqs[k - 1],
                period=t - steps[hit].t, first_seen=steps[hit].t,
                cycling_agents=_varying_agents_q(flats, hit, k, agent_slices, tol),
            )
    return None


def margin(q, sigma) -> tuple[float, ...]:
    """Per agent, the worst-state gap between the chosen and best other action.

    Positive exactly when the strategy is the strict greedy policy of Q at
    every state. Agents with a single action have an infinite margin.
    """
    tables = q_arrays(q)
    probs = tuple(getattr(sigma, "probs", sigma))
    out = []
    for t, p in zip(tables, probs):
        if not np.all(np.max(p, axis=-1) >= 1.0 - 1e-12):
            raise SpecError("margin requires a deterministic strategy")
        if t.shape[-1] == 1:
            out.append(math.inf)
            continue
        chosen = np.argmax(p, axis=-1)
        val = np.take_along_axis(t, chosen[..., None], axis=-1)[..., 0]
        masked = t.copy()
        np.put_along_axis(masked, chosen[..., None], -np.inf, axis=-1)
        best_other = masked.max(axis=-1)
        out.append(float(np.min(val - best_other)))
    return tuple(out)


def solve_q_fixed_point(
    spec: GameSpec, mu, tol: float = FIXED_POINT_TOL, cap: int = FIXED_POINT_CAP
) -> QTable:
    """Iterate the Bellman update with a frozen model until the step is below tol."""
    q = zeros_q(spec)
    for _ in range(cap):
        q_next = bellman_update(q, mu, spec)
        if max_metric_q(q_next, q) < tol:
            return q_next
        q = q_next
    raise SpecError(f"fixed point iteration did not reach tol {tol} within {cap} steps")


@dataclass(frozen=True)
class VerificationReport:
    optimality_ok: bool
    consistency_ok: bool
    optimality_residual: float
    consistency_residual: float
    margins: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return self.optimality_ok and self.consistency_ok


def verify_eee(spec: GameSpec, sigma, mu, tol: float = 1e-8) -> VerificationReport:
    """Check both equilibrium conditions for a deterministic profile.

    Optimality: at each (z, x), the played action's value under the Q fixed
    point for the supplied model is within tol of the best value.
    Consistency: the supplied model is within tol (max norm) of the exact
    long-run signal frequencies induced by the profile.
    """
    strat = Strategy(probs=strategy_arrays(sigma, spec))
    if not strat.is_deterministic():
        raise SpecError("verify_eee requires a deterministic strategy")

    def optimality(q_fixed: QTable) -> float:
        return max(
            float(np.max(t.max(axis=-1) - np.take_along_axis(t, a[..., None], axis=-1)[..., 0]))
            for t, a in zip(q_fixed.tables, strat.actions())
        )

    return _verification_report(spec, strat, mu, tol, optimality, lambda q_fixed: strat)


def verify_approx_eee(
    spec: GameSpec, sigma, mu, tau=None, tol: float = 1e-8
) -> VerificationReport:
    """Like verify_eee but optimality compares the strategy to the softmax policy."""
    strat = Strategy(probs=strategy_arrays(sigma, spec))
    taus = PolicyRule("softmax", tau=None if tau is None else tuple(np.atleast_1d(tau))).resolve_tau(spec)
    return _verification_report(
        spec, strat, mu, tol,
        lambda q_fixed: max_metric_strategy(strat, softmax_policy(q_fixed, taus)),
        greedy_policy,
    )


def _verification_report(spec, strat, mu, tol, optimality, margin_policy) -> VerificationReport:
    """Both residuals and the margins; optimality and margin_policy map the Q
    fixed point of mu to the optimality residual and the margins' strategy."""
    models = model_arrays(mu)
    q_fixed = solve_q_fixed_point(spec, models)
    opt_resid = optimality(q_fixed)
    exact = consistent_model(spec, strat)
    cons_resid = max(float(np.max(np.abs(m - e))) for m, e in zip(models, exact.mu))
    return VerificationReport(
        optimality_ok=opt_resid < tol,
        consistency_ok=cons_resid < tol,
        optimality_residual=opt_resid,
        consistency_residual=cons_resid,
        margins=margin(q_fixed, margin_policy(q_fixed)),
    )
