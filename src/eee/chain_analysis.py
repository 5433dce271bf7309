"""Exact analysis of the joint chain a strategy profile induces on (w, z, x).

Builds the dense one-step transition matrix over joint states, solves for the
stationary distribution, extracts each agent's conditional signal model, and
computes the regularity diagnostics used by the coupling bounds: the group
inverse condition number of the uncoupled reference chain and the minimal
stationary mass per (z_i, x_i).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .game_model import GameSpec, JointIndexer, SpecError

MASS_FLOOR = 1e-12
SOLVER_TOL = 1e-12
POWER_ITER_CAP = 10**6
MAX_AGENTS = 15


class StationaryError(RuntimeError):
    """The chain has no reliably computable unique stationary distribution."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class VanishingMassError(RuntimeError):
    """Some (z_i, x_i) has stationary mass below MASS_FLOOR."""


@dataclass(frozen=True)
class JointTransition:
    indexer: JointIndexer
    matrix: np.ndarray

    @property
    def n_states(self) -> int:
        return self.indexer.n_states


@dataclass(frozen=True)
class StationaryDistribution:
    pi: np.ndarray
    residual: float
    method: str = "direct"


@dataclass(frozen=True)
class ConsistentModel:
    """Per agent, mu[i][z, x, s] is the long-run signal law at (z, x)."""

    mu: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ChainDiagnostics:
    """kappa from the uncoupled reference chain; per agent, the minimal stationary mass."""

    kappa: float
    minimal_mass: tuple[float, ...]


def profile_arrays(arrays, spec: GameSpec, what: str = "strategy") -> tuple[np.ndarray, ...]:
    """Check per-agent probability tables against a spec, as float arrays.

    what is "strategy", for tables shaped (n_memory, n_states, n_actions), or
    "model", for (n_memory, n_states, n_signals). Entries must be finite and
    nonnegative and rows must sum to 1 within 1e-9. A strategy's rows are
    divided by their sums, exactly; a model is returned as given.
    """
    last = {"strategy": "n_actions", "model": "n_signals"}[what]
    if len(arrays) != spec.n_agents:
        raise SpecError(f"{what} has {len(arrays)} agents, spec has {spec.n_agents}")
    out = []
    for i, (arr, ag) in enumerate(zip(arrays, spec.agents)):
        arr = np.asarray(arr, dtype=float)
        want = (ag.n_memory, ag.n_states, getattr(ag, last))
        if arr.shape != want:
            raise SpecError(f"agent {i + 1} {what} shape {arr.shape}, expected {want}")
        sums = arr.sum(axis=-1)
        # nonnegative entries in rows that sum to 1 are finite; a NaN fails both tests
        if not (arr.min(initial=0.0) >= 0 and np.abs(sums - 1.0).max(initial=0.0) <= 1e-9):
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise SpecError(f"agent {i + 1} {what} has a negative or non-finite entry")
            raise SpecError(f"agent {i + 1} {what} rows do not sum to 1")
        out.append(arr / sums[..., None] if what == "strategy" else arr)
    return tuple(out)


def strategy_arrays(sigma, spec: GameSpec) -> tuple[np.ndarray, ...]:
    """A Strategy, or any sequence of per-agent arrays, checked and
    normalized by profile_arrays."""
    return profile_arrays(getattr(sigma, "probs", sigma), spec)


def _memory_indicator(ag) -> np.ndarray:
    """E[z, s, z_next] = 1 when the memory rule maps (z, s) to z_next."""
    e = np.zeros((ag.n_memory, ag.n_signals, ag.n_memory))
    for z in range(ag.n_memory):
        for s in range(ag.n_signals):
            e[z, s, ag.memory_rule[z, s]] = 1.0
    return e


def agent_step_factors(spec: GameSpec) -> list[np.ndarray]:
    """Per agent, F[a, w, z, x, z_next, x_next]: the signal-averaged local step.

    F sums over the unobserved signal: P(s | w) times the memory indicator
    times the local kernel row (x, s) under action a.
    """
    factors = []
    for ag in spec.agents:
        e = _memory_indicator(ag)
        f = np.einsum("ws,zsZ,axsX->awzxZX", ag.signal_kernel, e, ag.local_kernels_4d)
        factors.append(f)
    return factors


def place_factor(factor: np.ndarray, ndim: int, axes: tuple[int, ...]) -> np.ndarray:
    """View factor with its axes at the given increasing positions of an
    ndim-axis broadcast shape; every other axis has length 1."""
    shape = [1] * ndim
    for ax, d in zip(axes, factor.shape):
        shape[ax] = d
    return factor.reshape(shape)


def require_agent_cap(spec: GameSpec) -> None:
    """Reject more than MAX_AGENTS agents before anything is allocated.

    The exact path's (w, z, x, w', z', x') tensor has 2 + 4n axes, at most
    numpy's 64. The Monte Carlo path keeps the same cap, since its counts
    are checked against the exact model.
    """
    if spec.n_agents > MAX_AGENTS:
        raise SpecError(f"{spec.n_agents} agents, above the limit of {MAX_AGENTS} for the joint chain")


def require_bytes(nbytes: int, what: str) -> None:
    """Reject an allocation of nbytes above the machine's physical memory, as
    os.sysconf reports it, before any of it is made."""
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > budget:
        raise SpecError(f"{what} need {nbytes} bytes, above the dense limit of {budget} bytes (physical memory)")


def require_dense_chain(spec: GameSpec) -> None:
    """Reject a joint chain whose dense path does not fit the byte budget.

    The path holds every agent's step factor (agent_step_factors) and about
    three n x n matrices: the kernel and the build's, the solve's or kappa's
    working copies.
    """
    n = spec.indexer().n_states
    factors = sum(ag.n_actions * spec.n_env * (ag.n_memory * ag.n_states) ** 2 for ag in spec.agents)
    require_bytes(8 * (3 * n * n + factors), f"the {n} joint states of the dense chain")


@dataclass(frozen=True)
class _KernelPlan:
    """The strategy-independent part of build_joint_transition for one spec.

    factors[i][a] is agent i's step factor under action a, placed on axes
    (w, p_i, p_i') of the agent-grouped sum; env[k] is joint action k's
    environment kernel placed on (w, w'); sigma_shapes[i] places agent i's
    strategy with its action axis first. split and order take the sum to
    indexer order.
    """

    indexer: JointIndexer
    joint_actions: tuple[tuple[int, ...], ...]
    grouped: tuple[int, ...]
    factors: tuple[np.ndarray, ...]
    env: tuple[np.ndarray, ...]
    sigma_shapes: tuple[tuple[int, ...], ...]
    split: tuple[int, ...]
    order: tuple[int, ...]


def _kernel_plan(spec: GameSpec) -> _KernelPlan:
    """The spec's _KernelPlan, made on the first call and kept on the spec
    object, which is frozen; the agent cap and the dense-size check run then.

    A spec made by dataclasses.replace is a new object with its own plan.
    """
    plan = spec.__dict__.get("_kernel_plan")
    if plan is not None:
        return plan
    require_agent_cap(spec)
    require_dense_chain(spec)
    n_ag = spec.n_agents
    n_env = spec.n_env
    sizes = [ag.n_memory * ag.n_states for ag in spec.agents]
    ndim = 3 + 2 * n_ag  # a leading action axis, then the grouped axes
    # split p_i into (z_i, x_i): agent i's axes are 2 + 4i .. 5 + 4i
    end = 2 + 4 * n_ag
    plan = _KernelPlan(
        indexer=spec.indexer(),
        joint_actions=tuple(spec.joint_actions()),
        grouped=(n_env, n_env) + tuple(d for p in sizes for d in (p, p)),
        factors=tuple(
            place_factor(f.reshape(len(f), n_env, p, p), ndim, (0, 1, 3 + 2 * i, 4 + 2 * i))
            for i, (f, p) in enumerate(zip(agent_step_factors(spec), sizes))
        ),
        env=tuple(place_factor(e, ndim - 1, (0, 1)) for e in spec.env_kernels),
        sigma_shapes=tuple(
            place_factor(np.empty((ag.n_actions, p)), ndim, (0, 3 + 2 * i)).shape
            for i, (ag, p) in enumerate(zip(spec.agents, sizes))
        ),
        split=(n_env, n_env) + tuple(d for ag in spec.agents for d in (ag.n_memory, ag.n_states) * 2),
        order=(0, *range(2, end, 4), *range(3, end, 4), 1, *range(4, end, 4), *range(5, end, 4)),
    )
    object.__setattr__(spec, "_kernel_plan", plan)
    return plan


def build_joint_transition(spec: GameSpec, sigma) -> JointTransition:
    """Dense transition matrix over joint states (w, z_1..z_n, x_1..x_n).

    Entry (psi, psi_next) averages, over the joint action drawn from the
    product strategy at (z, x), the environment kernel times each agent's
    signal-averaged local step. Joint states are flattened in indexer order.

    Per joint action k, in storage order, every entry is the product
    F_n[a_n] * sigma_n[a_n] * ... * F_1[a_1] * sigma_1[a_1] * env_k, taken
    left to right from 1.0, and is then added to the sum. That is the order
    in which np.einsum multiplies the same operands (one step, operands last
    first), so the matrix equals the einsum builder's bit for bit. Keep it:
    the condition number of a reducible reference chain is rounding noise and
    moves with the last bit of the matrix.

    Only where that arithmetic happens is chosen for speed. The sum is held
    agent-grouped, on axes (w, w', p_1, p_1', ..., p_n, p_n') with
    p_i = (z_i, x_i), so each agent's factor is one contiguous block. The
    first products, F_n[a_n] * sigma_n[a_n], are taken once per action of
    agent n. Agent 1's two products go into a `leaf` buffer (n^2 / W
    doubles, no w' axis) and the environment product into a `prod` buffer
    (n^2 doubles); both are reused across joint actions and freed before one
    permuting copy puts the sum in indexer order. That copy has 2 + 4n axes,
    at most numpy's 64, which caps n at MAX_AGENTS. All that does not depend
    on sigma comes from the spec's _kernel_plan; sigma is checked every call.
    """
    plan = _kernel_plan(spec)
    # per agent, its strategy with the action axis first, placed on p_i
    cols = [p.reshape(-1, p.shape[-1]).T.reshape(shape)
            for p, shape in zip(strategy_arrays(sigma, spec), plan.sigma_shapes)]
    last = len(cols) - 1
    first = plan.factors[last] * cols[last]  # 1.0 * F_n[a_n] is F_n[a_n]
    big = np.zeros(plan.grouped)
    prod = np.empty(plan.grouped)
    leaf = np.empty((plan.grouped[0], 1) + plan.grouped[2:]) if last else None
    for a, env in zip(plan.joint_actions, plan.env):
        term = first[a[last]]
        for i in range(last - 1, 0, -1):
            term = term * plan.factors[i][a[i]]
            term *= cols[i][a[i]]
        if last:
            np.multiply(term, plan.factors[0][a[0]], out=leaf)
            term = leaf
            term *= cols[0][a[0]]
        np.multiply(term, env, out=prod)
        big += prod
    del first, leaf, prod
    n = plan.indexer.n_states
    matrix = big.reshape(plan.split).transpose(plan.order).reshape(n, n)
    return JointTransition(indexer=plan.indexer, matrix=matrix)


def _as_matrix(T) -> np.ndarray:
    return T.matrix if isinstance(T, JointTransition) else np.asarray(T, dtype=float)


def stationary_distribution(T) -> StationaryDistribution:
    """Solve pi = pi T with sum(pi) = 1 to residual SOLVER_TOL.

    Direct linear solve first (one balance equation replaced by the
    normalization); falls back to power iteration capped at POWER_ITER_CAP.
    Raises StationaryError when neither method reaches the tolerance.
    """
    mat = _as_matrix(T)
    n = mat.shape[0]
    try:
        a = mat.T.copy()
        a.flat[:: n + 1] -= 1.0
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        cand = np.linalg.solve(a, b)
        if np.all(np.isfinite(cand)) and cand.min() > -1e-9:
            cand = np.clip(cand, 0.0, None)
            cand = cand / cand.sum()
            res = _residual(cand, mat)
            if res <= SOLVER_TOL:
                return StationaryDistribution(pi=cand, residual=res, method="direct")
    except np.linalg.LinAlgError:
        pass

    cand = np.full(n, 1.0 / n)
    best = np.inf
    for _ in range(POWER_ITER_CAP):
        nxt = cand @ mat
        nxt = nxt / nxt.sum()
        best = float(np.max(np.abs(nxt - cand)))
        cand = nxt
        if best <= SOLVER_TOL:
            break
    res = _residual(cand, mat)
    if res > SOLVER_TOL:
        raise StationaryError(
            "stationary solve failed: the chain may not have a unique stationary "
            f"distribution (best residual {res:.3e})",
            residual=res,
        )
    return StationaryDistribution(pi=cand, residual=res, method="power")


def _residual(pi: np.ndarray, mat: np.ndarray) -> float:
    return float(np.max(np.abs(pi @ mat - pi)))


def _agent_marginal(pi_tensor: np.ndarray, n_agents: int, i: int) -> np.ndarray:
    """Marginal over (w, z_i, x_i), axes ordered (w, z_i, x_i)."""
    keep = {0, 1 + i, 1 + n_agents + i}
    axes = tuple(ax for ax in range(1 + 2 * n_agents) if ax not in keep)
    return pi_tensor.sum(axis=axes)


def model_from_stationary(spec: GameSpec, pi: np.ndarray) -> ConsistentModel:
    """Conditional signal law per (z_i, x_i) under a given stationary vector."""
    tensor = pi.reshape(spec.indexer().state_dims)
    mus = []
    for i, ag in enumerate(spec.agents):
        wzx = _agent_marginal(tensor, spec.n_agents, i)
        mass = wzx.sum(axis=0)
        if mass.min() < MASS_FLOOR:
            z, x = np.unravel_index(int(np.argmin(mass)), mass.shape)
            raise VanishingMassError(
                f"agent {i + 1} state (z={z + 1}, x={x + 1}) has vanishing stationary "
                f"mass {mass[z, x]:.3e}"
            )
        num = np.einsum("wzx,ws->zxs", wzx, ag.signal_kernel)
        mus.append(num / mass[:, :, None])
    return ConsistentModel(mu=tuple(mus))


def consistent_model(spec: GameSpec, sigma) -> ConsistentModel:
    """Each agent's long-run conditional signal frequencies under (spec, sigma)."""
    T = build_joint_transition(spec, sigma)
    pi = stationary_distribution(T).pi
    return model_from_stationary(spec, pi)


def meyer_condition_number(T_ref) -> float:
    """Largest absolute entry of the group inverse of (I - T).

    With A_sharp = (I - T + 1 pi^T)^{-1} - 1 pi^T, any perturbed chain
    satisfies max-norm stationary sensitivity
    ||pi - pi_bar||_inf <= kappa ||T - T_bar||_{r,inf} for kappa returned here.
    """
    mat = _as_matrix(T_ref)
    pi = stationary_distribution(mat).pi
    n = mat.shape[0]
    # one n x n buffer holds I - T + 1 pi^T, then its inverse, then |A_sharp|;
    # each entry takes the same operations as the textbook formula
    buf = np.negative(mat)
    buf.flat[:: n + 1] += 1.0
    buf += pi
    try:
        buf = np.linalg.inv(buf)
    except np.linalg.LinAlgError:
        raise StationaryError("fundamental matrix is singular: the chain is not ergodic") from None
    buf -= pi
    return float(np.max(np.abs(buf, out=buf)))


def uncoupled_reference(spec: GameSpec) -> GameSpec:
    """The action-independent game built from the uncoupled kernels."""
    if spec.uncoupled_env is None or any(ag.uncoupled_local is None for ag in spec.agents):
        raise SpecError("uncoupled reference kernels required for the condition number")
    env = np.broadcast_to(
        spec.uncoupled_env, (spec.n_joint_actions, spec.n_env, spec.n_env)
    ).copy()
    agents = []
    for ag in spec.agents:
        local = np.broadcast_to(
            ag.uncoupled_local, (ag.n_actions, *ag.uncoupled_local.shape)
        ).copy()
        agents.append(replace(ag, local_kernels=local))
    return replace(spec, env_kernels=env, agents=tuple(agents))


def uniform_strategy(spec: GameSpec) -> tuple[np.ndarray, ...]:
    return tuple(
        np.full((ag.n_memory, ag.n_states, ag.n_actions), 1.0 / ag.n_actions)
        for ag in spec.agents
    )


def reference_kappa(spec: GameSpec) -> float:
    """kappa of the spec's uncoupled reference chain.

    No strategy moves that chain (it is built under the uniform profile), and
    interpolate keeps the references, so it is the same at every blend weight.
    """
    ref = uncoupled_reference(spec)
    return meyer_condition_number(build_joint_transition(ref, uniform_strategy(ref)))


def chain_diagnostics(spec: GameSpec, pi: np.ndarray, kappa: float) -> ChainDiagnostics:
    """Regularity constants for the bound formulas: kappa, as reference_kappa
    gives it, and per agent the smallest stationary (z_i, x_i) marginal of
    pi, the stationary vector of the coupled chain that the caller solved."""
    tensor = pi.reshape(spec.indexer().state_dims)
    masses = tuple(
        float(_agent_marginal(tensor, spec.n_agents, i).sum(axis=0).min()) for i in range(spec.n_agents)
    )
    return ChainDiagnostics(kappa=kappa, minimal_mass=masses)
