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

import functools
import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .chain_analysis import (
    ConsistentModel,
    VanishingMassError,
    consistent_model,
    profile_arrays,
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
    """greedy or softmax; softmax runs at the spec's agent temperatures."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("greedy", "softmax"):
            raise SpecError(f"policy rule must be 'greedy' or 'softmax', got {self.kind!r}")


@dataclass
class TraceStep:
    t: int
    q: QTable
    sigma: Strategy
    mu: ConsistentModel
    dq: float
    dsigma: float


class _Rows:
    """A 2-D float array grown one row at a time; when full, its capacity
    grows by a quarter, so it holds at most a quarter more rows than filled."""

    def __init__(self, width: int):
        self.n = 0
        self._buf = np.empty((0, width))

    def append(self, row) -> None:
        if self.n == len(self._buf):
            buf = np.empty((max(16, self.n + self.n // 4), self._buf.shape[1]))
            buf[: self.n] = self._buf
            self._buf = buf
        self._buf[self.n] = row
        self.n += 1

    @property
    def rows(self) -> np.ndarray:
        return self._buf[: self.n]


class IterationTrace:
    """The recorded steps of one run, and the step distance of every iteration.

    A recorded step is one row of a float array: its iteration number, dq and
    dsigma, then its Q tables, strategy and model, each agent's table
    flattened in turn; the first recorded step fixes the table shapes. On the
    bundled example that is 51 doubles a step. `steps` reads the rows back as
    TraceStep views with read-only tables, and table_rows reads them as
    columns. dq_history holds one double per iteration.
    """

    def __init__(self, rule: PolicyRule):
        self.rule = rule
        self.dq_history = array("d")
        self.final_q: QTable | None = None
        self.final_sigma: Strategy | None = None
        self._rows = _Rows(3)
        self._shapes: tuple[tuple[tuple[int, ...], ...], ...] = ((), (), ())  # Q, sigma, mu tables
        self._bounds = (3, 3, 3, 3)  # where the Q, sigma and mu columns start, and the row's end

    def record(self, step: TraceStep, always: bool = False) -> None:
        """Copy step into a new row, unless it is thinned out, and append its dq."""
        # full retention up to RETAIN_FULL iterations, 1-in-10 beyond
        if always or step.t <= RETAIN_FULL or step.t % 10 == 0:
            groups = (q_arrays(step.q), tuple(getattr(step.sigma, "probs", step.sigma)), model_arrays(step.mu))
            shapes = tuple(tuple(np.shape(t) for t in g) for g in groups)
            if not self._rows.n:
                self._shapes = shapes
                sizes = (sum(map(math.prod, g)) for g in shapes)
                self._bounds = tuple(itertools.accumulate(sizes, initial=3))
                self._rows = _Rows(self._bounds[-1])
            elif shapes != self._shapes:
                raise SpecError(f"iteration {step.t} has tables shaped {shapes}, the trace's are {self._shapes}")
            tables = (np.ravel(t) for g in groups for t in g)
            self._rows.append(np.concatenate([(step.t, step.dq, step.dsigma), *tables]))
        self.dq_history.append(step.dq)

    def table_rows(self) -> tuple[np.ndarray, ...]:
        """Read-only columns with one entry per recorded step: the iteration
        numbers, dq and dsigma as vectors, then Q, sigma and mu as matrices
        whose rows hold each agent's table flattened in turn."""
        rows = self._rows.rows.view()
        rows.flags.writeable = False
        b = self._bounds
        return (rows[:, 0].astype(int), rows[:, 1], rows[:, 2],
                rows[:, b[0] : b[1]], rows[:, b[1] : b[2]], rows[:, b[2] : b[3]])

    def _step(self, k: int) -> TraceStep:
        row = self._rows.rows[k]
        row.flags.writeable = False
        groups, col = [], 3
        for shapes in self._shapes:
            groups.append([])
            for shape in shapes:
                groups[-1].append(row[col : col + math.prod(shape)].reshape(shape))
                col += math.prod(shape)
        q, sigma, mu = (tuple(g) for g in groups)
        return TraceStep(t=int(row[0]), q=QTable(tables=q), sigma=Strategy(probs=sigma),
                         mu=ConsistentModel(mu=mu), dq=float(row[1]), dsigma=float(row[2]))

    @property
    def steps(self) -> "_Steps":
        """The recorded steps, in order, as a sequence of TraceStep views."""
        return _Steps(self)

    @property
    def final_mu(self) -> ConsistentModel | None:
        return self.steps[-1].mu if self.steps else None


class _Steps(Sequence):
    """The recorded steps of an IterationTrace; a slice is a list."""

    def __init__(self, trace: IterationTrace):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace._rows.n

    def __getitem__(self, k):
        picked = range(len(self))[k]  # an IndexError past either end
        if isinstance(k, slice):
            return [self._trace._step(j) for j in picked]
        return self._trace._step(picked)


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
    """Boltzmann policy at per-agent temperatures, max-subtracted for safety;
    one temperature stands for every agent."""
    tables = q_arrays(q)
    probs = []
    for t, ti in zip(tables, np.broadcast_to(tau, len(tables)).tolist()):
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


def _max_distance(a, b, what: str) -> float:
    """Largest entrywise gap between two per-agent table sequences of equal shapes."""
    if len(a) != len(b) or any(x.shape != y.shape for x, y in zip(a, b)):
        raise SpecError(f"{what} have mismatched dimensions")
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


def max_metric_q(q, q_bar) -> float:
    return _max_distance(q_arrays(q), q_arrays(q_bar), "Q tables")


def max_metric_strategy(sigma, sigma_bar) -> float:
    return _max_distance(
        tuple(getattr(sigma, "probs", sigma)), tuple(getattr(sigma_bar, "probs", sigma_bar)), "strategies"
    )


def _argmax_fingerprints(tables) -> tuple[bytes, ...]:
    """Per agent, the bytes of the argmax action table; equal for Q and its greedy policy."""
    return tuple(np.argmax(t, axis=-1).astype(np.int64).tobytes() for t in tables)


def require_tol(tol: float) -> None:
    """The convergence tolerance of a run must be positive."""
    if tol <= 0:
        raise SpecError(f"tol must be positive, got {tol}")


def require_max_iter(max_iter: int) -> None:
    """A run needs at least one iteration."""
    if max_iter < 1:
        raise SpecError(f"max_iter must be >= 1, got {max_iter}")


def q_value_iteration(
    spec: GameSpec,
    rule: PolicyRule,
    q0: QTable | None = None,
    tol: float = 1e-9,
    max_iter: int = 10**4,
) -> tuple[IterationTrace, TerminationReport]:
    """Run the three-step dynamics until convergence, a cycle, or the cap.

    Convergence requires a Q step below tol and a greedy policy unchanged
    over the last two iterations. Cycles are the CycleDetector's verdict for
    the rule's policy kind, checked once per iteration.

    Greedy runs solve each distinct policy's chain once: a one-hot policy is
    determined by its argmax fingerprint, so a recurring policy reuses the
    model of its first solve. Softmax runs solve the chain every iteration.
    """
    require_valid(spec)
    require_tol(tol)
    require_max_iter(max_iter)
    q = zeros_q(spec) if q0 is None else QTable(tables=tuple(np.array(t, dtype=float) for t in q_arrays(q0)))
    ceiling = max(ag.reward_ceiling / (1.0 - ag.discount) for ag in spec.agents)
    if q.max_norm() > ceiling + 1e-9:
        raise SpecError(f"initial Q norm {q.max_norm():.6g} exceeds the ceiling {ceiling:.6g}")

    if rule.kind == "greedy":
        policy = greedy_policy
    else:
        policy = functools.partial(softmax_policy, tau=[ag.temperature for ag in spec.agents])
    trace = IterationTrace(rule=rule)
    detector = CycleDetector(rule.kind, tol)
    models: dict[tuple[bytes, ...], ConsistentModel] = {}
    greedy_fps = deque([_argmax_fingerprints(q.tables)], maxlen=3)  # the convergence test reads three
    prev_sigma: Strategy | None = None

    last_dq = math.inf
    for t in range(max_iter):
        sigma = policy(q)
        if rule.kind == "greedy":
            fp = greedy_fps[-1]  # sigma's fingerprint, as sigma is one-hot at q's argmax
            if fp not in models:
                models[fp] = _model_at(spec, sigma, t)
            mu = models[fp]
        else:
            mu = _model_at(spec, sigma, t)
        q_next = bellman_update(q, mu, spec)
        dq = max_metric_q(q_next, q)
        dsigma = max_metric_strategy(sigma, prev_sigma) if prev_sigma is not None else math.nan
        cycle = detector.push(t, q, sigma, last_dq)
        # the cycle iterate is always kept, so a replay of the trace reaches the same report
        trace.record(TraceStep(t=t, q=q, sigma=sigma, mu=mu, dq=dq, dsigma=dsigma), always=cycle is not None)
        if cycle is not None:
            trace.final_q, trace.final_sigma = q, sigma
            return trace, cycle

        greedy_fps.append(_argmax_fingerprints(q_next.tables))
        if dq < tol and t >= 1 and greedy_fps[-1] == greedy_fps[-2] == greedy_fps[-3]:
            trace.final_q, trace.final_sigma = q_next, policy(q_next)
            return trace, TerminationReport(outcome="converged", at_iter=t + 1, residual=dq)

        prev_sigma = sigma
        q = q_next
        last_dq = dq

    trace.final_q, trace.final_sigma = q, policy(q)
    return trace, TerminationReport(outcome="max_iter", at_iter=max_iter, residual=last_dq)


def _model_at(spec, sigma, t) -> ConsistentModel:
    try:
        return consistent_model(spec, sigma)
    except VanishingMassError as exc:
        raise VanishingMassError(f"iteration {t}: {exc}") from exc


class CycleDetector:
    """The cycle rule of one policy kind, fed one iterate at a time.

    push(t, q, sigma, last_dq) takes iteration t's Q table and policy and the
    step distance of the iterate pushed before it; it returns the cycle
    report, or None. Greedy: an exact policy recurs at an iteration distance
    of at least 2. Softmax: Q matches an iterate at least two pushes back
    within tol while the step distance has stalled (_softmax_match). The
    softmax scan counts pushes, so a thinned trace is scanned as recorded;
    reports give iteration numbers, and the residual is the step distance
    pushed with the recurrence.
    """

    def __init__(self, kind: str, tol: float):
        self.kind = kind
        self.tol = tol
        self._ts = array("q")
        self._dqs = array("d")  # step distance of every push but the latest
        self._history: list = []  # greedy: agent fingerprints per push
        self._seen: dict[tuple[bytes, ...], int] = {}  # greedy: policy fingerprint -> latest push
        self._rows: _Rows | None = None  # softmax: flat Q of push k in row k
        self._keys = array("d")  # softmax: the first entry of every pushed Q, sorted
        self._key_pushes = array("q")  # softmax: the push each key came from

    def push(self, t: int, q: QTable, sigma: Strategy, last_dq: float) -> TerminationReport | None:
        k = len(self._ts)
        if k:
            self._dqs.append(last_dq)
        self._ts.append(t)
        if self.kind == "greedy":
            fps = _argmax_fingerprints(sigma.probs)
            self._history.append(fps)
            j = self._seen.get(fps)
            self._seen[fps] = k
            if j is None or t - self._ts[j] < 2:
                return None
            first = self._history[j]
            agents = tuple(
                i + 1 for i in range(len(fps)) if any(h[i] != first[i] for h in self._history[j + 1 :])
            )
        else:
            flat = q.flat()
            if self._rows is None:
                self._rows = _Rows(flat.size)
            key = float(flat[0])
            j = self._softmax_match(flat, key, k)
            self._rows.append(flat)
            pos = bisect_right(self._keys, key)
            self._keys.insert(pos, key)
            self._key_pushes.insert(pos, k)
            if j is None:
                return None
            window = self._rows.rows[j : k + 1]
            gaps = np.abs(window - window[0])
            offs = np.cumsum([0] + [tab.size for tab in q.tables])
            agents = tuple(
                i + 1 for i in range(len(q.tables)) if np.max(gaps[:, offs[i] : offs[i + 1]]) >= self.tol
            )
        return TerminationReport(
            outcome="cycle", at_iter=t, residual=last_dq,
            period=t - self._ts[j], first_seen=self._ts[j], cycling_agents=agents,
        )

    def _softmax_match(self, flat: np.ndarray, key: float, t: int) -> int | None:
        """The push j of the earlier Q that flat, pushed t-th with first entry
        key, recurs to, or None.

        j ranges over t - t // 2 .. t - 2 (lag >= 2), largest j (smallest
        period) first. A recurrence alone does not separate a genuine orbit
        from a damped oscillation spiralling into a fixed point, so a period
        p = t - j only counts when the one-step distance has stalled: dq
        must not have decayed faster than STALL_RATE per step across the last
        period. A row within tol of flat in every entry has its first entry
        within tol of key, so inside the bisect window key -/+ 2 tol, whose
        computed bounds still hold it since rounding is monotonic. Only the
        rows in that window get the full test, and the match returned is
        the one a scan of every row finds. The window narrows the scan only
        where Q's first entry varies between iterates.
        """
        dqs, tol = self._dqs, self.tol
        if t < 4 or not dqs[-1] >= tol:
            return None
        lo, hi = t - t // 2, t - 2
        keys = self._keys
        window = self._key_pushes[bisect_left(keys, key - 2 * tol) : bisect_right(keys, key + 2 * tol)]
        pushes = sorted((j for j in window if lo <= j <= hi), reverse=True)
        if not pushes:
            return None
        # not >= rather than <, so a NaN gap is near, as it was in a scan of every row
        near = ~(np.max(np.abs(self._rows.rows[pushes] - flat), axis=1) >= tol)
        for j in np.asarray(pushes)[near].tolist():
            if dqs[-1] >= STALL_RATE ** (t - j) * dqs[j - 1]:
                return j
        return None


def detect_cycle(trace: IterationTrace, tol: float = 1e-9) -> TerminationReport | None:
    """Replay a recorded trace through the CycleDetector of its policy kind.

    Returns None when no cycle is present. On an unthinned trace of a run
    this is the run's own cycle report. Past RETAIN_FULL iterations a trace
    keeps one step in ten, and the replay scans the recorded steps, not the
    iterations, so its verdict is the detector's for that thinned sequence
    and can differ from the live run's: a greedy policy that holds across
    two recorded steps ten iterations apart reads as a recurrence, and the
    softmax scan's lags and stall test count recorded steps.
    """
    if not trace.steps:
        raise SpecError("trace is empty")
    detector = CycleDetector(trace.rule.kind, tol)
    last_dq = math.inf
    for step in trace.steps:
        report = detector.push(step.t, step.q, step.sigma, last_dq)
        if report is not None:
            return report
        last_dq = step.dq
    return None


def margin(q, sigma) -> tuple[float, ...]:
    """Per agent, the worst-state gap between the chosen and best other action.

    Positive exactly when the strategy is the strict greedy policy of Q at
    every state. Agents with a single action have an infinite margin.
    """
    strat = Strategy(probs=tuple(getattr(sigma, "probs", sigma)))
    if not strat.is_deterministic():
        raise SpecError("margin requires a deterministic strategy")
    out = []
    for t, p in zip(q_arrays(q), strat.probs):
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


def verify_approx_eee(spec: GameSpec, sigma, mu, tol: float = 1e-8) -> VerificationReport:
    """Like verify_eee but optimality compares the strategy to the softmax
    policy at the spec's agent temperatures."""
    strat = Strategy(probs=strategy_arrays(sigma, spec))
    return _verification_report(
        spec, strat, mu, tol,
        lambda q_fixed: max_metric_strategy(strat, softmax_policy(q_fixed, [ag.temperature for ag in spec.agents])),
        greedy_policy,
    )


def _verification_report(spec, strat, mu, tol, optimality, margin_policy) -> VerificationReport:
    """Both residuals and the margins; optimality and margin_policy map the Q
    fixed point of mu to the optimality residual and the margins' strategy.
    mu is checked like a strategy, before any fixed point is iterated."""
    models = profile_arrays(model_arrays(mu), spec, "model")
    q_fixed = solve_q_fixed_point(spec, models)
    opt_resid = optimality(q_fixed)
    exact = consistent_model(spec, strat)
    cons_resid = _max_distance(models, exact.mu, "models")
    return VerificationReport(
        optimality_ok=opt_resid < tol,
        consistency_ok=cons_resid < tol,
        optimality_residual=opt_resid,
        consistency_residual=cons_resid,
        margins=margin(q_fixed, margin_policy(q_fixed)),
    )
