"""Shared fixtures: the bundled example game, random valid games, and the
oracles that replaced implementations are tested against."""

import csv
import io
import math
import string

import numpy as np
import pytest

from eee.chain_analysis import agent_step_factors, stationary_distribution, strategy_arrays
from eee.game_model import AgentSpec, GameSpec, SpecError, build_example1
from eee.learning import STALL_RATE


def row_stochastic(rng, shape):
    """Strictly positive rows, so every chain built from them is ergodic."""
    raw = rng.uniform(0.1, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def _recurrent_memory_rule(rng, n_memory, n_signals):
    """Random memory rule whose first signal column cycles through all states.

    Signals have full support everywhere, so the forced cycle keeps every
    memory state reachable and the extracted model free of vanishing mass.
    """
    rule = rng.integers(0, n_memory, size=(n_memory, n_signals))
    rule[:, 0] = (np.arange(n_memory) + 1) % n_memory
    return rule


def random_game(seed, n_agents=2, max_dim=3, coupling=0.2, discount_range=(0.2, 0.8)):
    """A valid game with supplied uncoupled references and dims in [2, max_dim].

    Coupled kernels are convex blends of the uncoupled reference with an
    independent random kernel, so the coupling value stays moderate and all
    entries stay strictly positive.
    """
    rng = np.random.default_rng(seed)
    n_env = int(rng.integers(2, max_dim + 1))
    env_u = row_stochastic(rng, (n_env, n_env))

    agents = []
    for _ in range(n_agents):
        n_states = int(rng.integers(2, max_dim + 1))
        n_actions = int(rng.integers(2, max_dim + 1))
        n_signals = int(rng.integers(2, max_dim + 1))
        n_memory = int(rng.integers(1, max_dim + 1))
        local_u = row_stochastic(rng, (n_states * n_signals, n_states))
        local = np.stack(
            [
                (1.0 - coupling) * local_u
                + coupling * row_stochastic(rng, (n_states * n_signals, n_states))
                for _ in range(n_actions)
            ]
        )
        agents.append(
            AgentSpec(
                n_states=n_states,
                n_actions=n_actions,
                n_signals=n_signals,
                n_memory=n_memory,
                signal_kernel=row_stochastic(rng, (n_env, n_signals)),
                local_kernels=local,
                memory_rule=_recurrent_memory_rule(rng, n_memory, n_signals),
                reward=rng.uniform(-1.0, 1.0, size=(n_states, n_actions, n_signals)),
                discount=float(rng.uniform(*discount_range)),
                uncoupled_local=local_u,
            )
        )

    n_joint = int(np.prod([ag.n_actions for ag in agents]))
    env = np.stack(
        [
            (1.0 - coupling) * env_u + coupling * row_stochastic(rng, (n_env, n_env))
            for _ in range(n_joint)
        ]
    )
    return GameSpec(n_env=n_env, env_kernels=env, agents=tuple(agents), uncoupled_env=env_u)


def shaped_game(seed, n_env, shapes, coupling=0.2):
    """A valid game with the given per-agent (Z, X, A, S) shapes, built like
    random_game, so shapes outside its draws (W = 1, Z = 1) are covered."""
    rng = np.random.default_rng(seed)
    env_u = row_stochastic(rng, (n_env, n_env))
    agents = []
    for n_memory, n_states, n_actions, n_signals in shapes:
        local_u = row_stochastic(rng, (n_states * n_signals, n_states))
        local = np.stack([
            (1.0 - coupling) * local_u + coupling * row_stochastic(rng, local_u.shape)
            for _ in range(n_actions)
        ])
        agents.append(
            AgentSpec(
                n_states=n_states, n_actions=n_actions, n_signals=n_signals, n_memory=n_memory,
                signal_kernel=row_stochastic(rng, (n_env, n_signals)),
                local_kernels=local,
                memory_rule=_recurrent_memory_rule(rng, n_memory, n_signals),
                reward=rng.uniform(-1.0, 1.0, size=(n_states, n_actions, n_signals)),
                discount=float(rng.uniform(0.2, 0.8)),
                uncoupled_local=local_u,
            )
        )
    n_joint = int(np.prod([a for _, _, a, _ in shapes]))
    env = np.stack([
        (1.0 - coupling) * env_u + coupling * row_stochastic(rng, (n_env, n_env))
        for _ in range(n_joint)
    ])
    return GameSpec(n_env=n_env, env_kernels=env, agents=tuple(agents), uncoupled_env=env_u)


def random_strategy(rng, spec, deterministic=False):
    out = []
    for ag in spec.agents:
        shape = (ag.n_memory, ag.n_states, ag.n_actions)
        if deterministic:
            probs = np.zeros(shape)
            picks = rng.integers(0, ag.n_actions, size=shape[:2])
            for z in range(ag.n_memory):
                for x in range(ag.n_states):
                    probs[z, x, picks[z, x]] = 1.0
        else:
            probs = row_stochastic(rng, shape)
        out.append(probs)
    return out


def sigma_star(spec):
    """The known equilibrium of the bundled example: agent 1 plays action 2,
    agent 2 plays action 1, in every (z, x)."""
    probs = [np.zeros((ag.n_memory, ag.n_states, ag.n_actions)) for ag in spec.agents]
    probs[0][:, :, 1] = 1.0
    probs[1][:, :, 0] = 1.0
    return probs


def signal_only_game(n_agents):
    """n_agents identical agents with one local state, one memory state and one
    action, each seeing one of two signals of a two-state environment that
    redraws uniformly every step: 2 joint states whatever n_agents is.

    Returns the spec and its only strategy profile.
    """
    ag = AgentSpec(
        n_states=1, n_actions=1, n_signals=2, n_memory=1,
        signal_kernel=np.array([[0.75, 0.25], [0.25, 0.75]]),
        local_kernels=np.ones((1, 2, 1)),
        memory_rule=np.zeros((1, 2), dtype=int),
        reward=np.zeros((1, 1, 2)),
        discount=0.5,
    )
    env = np.array([[[0.5, 0.5], [0.5, 0.5]]])
    spec = GameSpec(n_env=2, env_kernels=env, agents=(ag,) * n_agents)
    return spec, [np.ones((1, 1, 1))] * n_agents


def oracle_joint_matrix(spec, sigma) -> np.ndarray:
    """The joint transition matrix from one generated einsum per joint action.

    This is the builder that chain_analysis.build_joint_transition replaced,
    kept as the differential oracle; it caps out at 12 agents (52 letters).
    """
    indexer = spec.indexer()
    n = indexer.n_states
    probs = strategy_arrays(sigma, spec)
    factors = agent_step_factors(spec)
    n_ag = spec.n_agents

    letters = string.ascii_lowercase + string.ascii_uppercase
    if 2 + 4 * n_ag > len(letters):
        raise SpecError("too many agents for the dense joint builder")
    w, wn = letters[0], letters[1]
    z = [letters[2 + 4 * i] for i in range(n_ag)]
    x = [letters[3 + 4 * i] for i in range(n_ag)]
    zn = [letters[4 + 4 * i] for i in range(n_ag)]
    xn = [letters[5 + 4 * i] for i in range(n_ag)]
    subs = [w + wn]
    for i in range(n_ag):
        subs.append(z[i] + x[i])              # strategy weight at (z_i, x_i)
        subs.append(w + z[i] + x[i] + zn[i] + xn[i])
    out = w + "".join(z) + "".join(x) + wn + "".join(zn) + "".join(xn)
    expr = ",".join(subs) + "->" + out

    big = np.zeros(indexer.state_dims + indexer.state_dims)
    for k, a in enumerate(spec.joint_actions()):
        operands = [spec.env_kernels[k]]
        for i, ai in enumerate(a):
            operands.append(probs[i][:, :, ai])
            operands.append(factors[i][ai])
        big += np.einsum(expr, *operands, optimize=True)
    return big.reshape(n, n)


def oracle_meyer_condition_number(mat) -> float:
    """kappa by the textbook formula, with 1 pi^T, an identity, I - T + 1 pi^T,
    its inverse and the group inverse each held as its own n x n array.

    This is the code chain_analysis.meyer_condition_number replaced with a
    one-buffer version, kept as the differential oracle (compared with ==).
    """
    pi = stationary_distribution(mat).pi
    n = mat.shape[0]
    one_pi = np.outer(np.ones(n), pi)
    fundamental = np.linalg.inv(np.eye(n) - mat + one_pi)
    sharp = fundamental - one_pi
    return float(np.max(np.abs(sharp)))


def oracle_softmax_cycle_scan(q_flat, history, dq_history, tol):
    """The softmax cycle scan over a list of flat Q vectors, stacked anew at
    every call.

    This is the scan learning.CycleDetector replaced with a bisect filter on
    one Q entry, kept as the differential oracle (compared exactly at every
    push).
    """
    t = len(history)
    if t < 4 or not (dq_history and dq_history[-1] >= tol):
        return None
    lo = t - t // 2
    hi = t - 2
    if hi < lo:
        return None
    stack = np.stack(history[lo : hi + 1])
    diffs = np.max(np.abs(stack - q_flat), axis=1)
    for k in range(diffs.size - 1, -1, -1):
        if diffs[k] >= tol:
            continue
        j = lo + k
        period = t - j
        if j - 1 < len(dq_history) and dq_history[-1] >= STALL_RATE**period * dq_history[j - 1]:
            return j
    return None


def oracle_trace_csv(trace, spec) -> str:
    """trace.csv as one string, row by row through csv.writer from the
    trace's TraceStep views.

    This is the writer cli._trace_csv replaced with chunks formatted from the
    trace's table rows, kept as the differential oracle (bytes compared).
    """
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


@pytest.fixture(scope="session")
def ex1_family():
    return build_example1()


@pytest.fixture(scope="session")
def ex1_spec(ex1_family):
    return ex1_family.at()  # blend weight 0.9


@pytest.fixture(scope="session")
def ex1_greedy_run(ex1_spec):
    from eee.learning import PolicyRule, q_value_iteration

    return q_value_iteration(ex1_spec, PolicyRule("greedy"), tol=1e-9)
