"""Policy updates, Bellman iteration, termination, and equilibrium verification."""

import dataclasses
import math

import numpy as np
import pytest

from eee import learning
from eee.chain_analysis import ConsistentModel, consistent_model
from eee.game_model import AgentSpec, GameSpec, SpecError
from eee.learning import (
    IterationTrace,
    PolicyRule,
    QTable,
    Strategy,
    TraceStep,
    bellman_update,
    detect_cycle,
    greedy_policy,
    margin,
    max_metric_q,
    max_metric_strategy,
    q_value_iteration,
    softmax_policy,
    solve_q_fixed_point,
    verify_approx_eee,
    verify_eee,
    zeros_q,
)

from conftest import random_game, random_strategy, sigma_star


def single_state_q(values):
    return QTable(tables=(np.array(values, dtype=float).reshape(1, 1, -1),))


def test_greedy_strict_maximum():
    sigma = greedy_policy(single_state_q((3.0, 7.0)))
    assert np.array_equal(sigma.probs[0][0, 0], (0.0, 1.0))


def test_greedy_tie_breaks_to_lowest_index():
    sigma = greedy_policy(single_state_q((5.0, 5.0)))
    assert np.array_equal(sigma.probs[0][0, 0], (1.0, 0.0))


def test_greedy_zero_q_plays_first_action(ex1_spec):
    sigma = greedy_policy(zeros_q(ex1_spec))
    for p in sigma.probs:
        assert np.all(p[:, :, 0] == 1.0)
        assert np.all(p[:, :, 1:] == 0.0)


def test_greedy_invariant_under_positive_affine_maps():
    rng = np.random.default_rng(0)
    q = QTable(tables=(rng.normal(size=(2, 3, 4)),))
    scaled = QTable(tables=(2.5 * q.tables[0] + 7.0,))
    assert max_metric_strategy(greedy_policy(q), greedy_policy(scaled)) == 0.0


def test_softmax_equal_values_uniform():
    sigma = softmax_policy(single_state_q((4.2, 4.2)), (1.0,))
    assert np.allclose(sigma.probs[0][0, 0], (0.5, 0.5), atol=1e-15)


def test_softmax_hand_value():
    sigma = softmax_policy(single_state_q((math.log(2.0), 0.0)), (1.0,))
    assert np.allclose(sigma.probs[0][0, 0], (2.0 / 3.0, 1.0 / 3.0), atol=1e-12)


def test_softmax_saturates_without_overflow():
    sigma = softmax_policy(single_state_q((1000.0, 0.0)), (1.0,))
    assert np.all(np.isfinite(sigma.probs[0]))
    assert np.allclose(sigma.probs[0][0, 0], (1.0, 0.0), atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(2, 2, 3))
    shifted = base + rng.normal(size=(2, 2, 1))  # constant per (z, x)
    a = softmax_policy(QTable(tables=(base,)), (0.7,))
    b = softmax_policy(QTable(tables=(shifted,)), (0.7,))
    assert max_metric_strategy(a, b) < 1e-12


def test_softmax_rejects_bad_temperature():
    with pytest.raises(SpecError):
        PolicyRule("softmax", tau=(0.0,))
    with pytest.raises(SpecError):
        PolicyRule("invalid")


def test_bellman_zero_game_fixed_point():
    spec = random_game(3)
    zeroed = GameSpec(
        n_env=spec.n_env, env_kernels=spec.env_kernels,
        agents=tuple(dataclasses.replace(a, reward=np.zeros_like(a.reward)) for a in spec.agents),
        uncoupled_env=spec.uncoupled_env,
    )
    rng = np.random.default_rng(2)
    mu = consistent_model(zeroed, random_strategy(rng, zeroed))
    out = bellman_update(zeros_q(zeroed), mu, zeroed)
    assert out.max_norm() == 0.0


def test_bellman_near_zero_discount_is_myopic():
    spec = random_game(4)
    myopic = GameSpec(
        n_env=spec.n_env, env_kernels=spec.env_kernels,
        agents=tuple(dataclasses.replace(a, discount=1e-10) for a in spec.agents),
        uncoupled_env=spec.uncoupled_env,
    )
    rng = np.random.default_rng(5)
    mu = consistent_model(myopic, random_strategy(rng, myopic))
    out = bellman_update(zeros_q(myopic), mu, myopic)
    for t, m, ag in zip(out.tables, mu.mu, myopic.agents):
        expect = np.einsum("zxs,xas->zxa", m, ag.reward)
        assert np.max(np.abs(t - expect)) < 1e-9


def test_fixed_point_matches_scalar_closed_form():
    # one agent, single memory and local state: V = max_a(sum_s mu[s] g(a,s))/(1-delta)
    rng = np.random.default_rng(6)
    reward = rng.uniform(-2.0, 2.0, size=(1, 2, 2))
    ag = AgentSpec(
        n_states=1, n_actions=2, n_signals=2, n_memory=1,
        signal_kernel=np.array([[0.3, 0.7], [0.8, 0.2]]),
        local_kernels=np.ones((2, 2, 1)),
        memory_rule=np.zeros((1, 2), dtype=int),
        reward=reward,
        discount=0.6,
    )
    spec = GameSpec(n_env=2, env_kernels=np.tile(np.array([[0.4, 0.6], [0.9, 0.1]]), (2, 1, 1)),
                    agents=(ag,))
    mu = consistent_model(spec, [np.full((1, 1, 2), 0.5)])
    q = solve_q_fixed_point(spec, mu)
    m = np.einsum("s,as->a", mu.mu[0][0, 0], reward[0])
    v = m.max() / (1.0 - 0.6)
    expect = m + 0.6 * v
    assert np.max(np.abs(q.tables[0][0, 0] - expect)) < 1e-10


def test_frozen_model_update_is_a_contraction():
    for seed in range(3):
        spec = random_game(seed + 20)
        rng = np.random.default_rng(seed)
        mu = consistent_model(spec, random_strategy(rng, spec))
        ceiling = min(ag.reward_ceiling / (1 - ag.discount) for ag in spec.agents)
        qa = QTable(tables=tuple(rng.uniform(-ceiling, ceiling, size=(a.n_memory, a.n_states, a.n_actions))
                                 for a in spec.agents))
        qb = QTable(tables=tuple(rng.uniform(-ceiling, ceiling, size=(a.n_memory, a.n_states, a.n_actions))
                                 for a in spec.agents))
        lhs = max_metric_q(bellman_update(qa, mu, spec), bellman_update(qb, mu, spec))
        rate = max(a.discount for a in spec.agents)
        assert lhs <= rate * max_metric_q(qa, qb) + 1e-12


def test_iterates_respect_value_ceiling(ex1_spec, ex1_greedy_run):
    trace, _ = ex1_greedy_run
    for step in trace.steps:
        for t, ag in zip(step.q.tables, ex1_spec.agents):
            assert np.max(np.abs(t)) <= ag.reward_ceiling / (1.0 - ag.discount) + 1e-9


def test_example_greedy_run_converges_to_known_strategy(ex1_greedy_run):
    trace, report = ex1_greedy_run
    assert report.outcome == "converged"
    assert report.residual < 1e-9
    actions = trace.final_sigma.actions()
    assert np.all(actions[0] == 1)
    assert np.all(actions[1] == 0)


def test_example_full_coupling_cycles_for_agent_two(ex1_family):
    spec = ex1_family.at(1.0)
    trace, report = q_value_iteration(spec, PolicyRule("greedy"), max_iter=200)
    assert report.outcome == "cycle"
    assert report.period >= 2
    assert 2 in report.cycling_agents
    assert detect_cycle(trace) is not None


def test_termination_is_a_trichotomy():
    for seed in range(4):
        spec = random_game(seed + 40)
        _, report = q_value_iteration(spec, PolicyRule("greedy"), max_iter=60)
        assert report.outcome in ("converged", "cycle", "max_iter")


def test_iteration_rejects_oversized_q0(ex1_spec):
    big = QTable(tables=tuple(np.full((ag.n_memory, ag.n_states, ag.n_actions), 1e6)
                              for ag in ex1_spec.agents))
    with pytest.raises(SpecError, match="ceiling"):
        q_value_iteration(ex1_spec, PolicyRule("greedy"), q0=big)


def test_iteration_rejects_bad_controls(ex1_spec):
    with pytest.raises(SpecError):
        q_value_iteration(ex1_spec, PolicyRule("greedy"), tol=0.0)
    with pytest.raises(SpecError):
        q_value_iteration(ex1_spec, PolicyRule("greedy"), max_iter=0)


def _one_hot_sigma(action):
    probs = np.zeros((1, 1, 2))
    probs[0, 0, action] = 1.0
    return Strategy(probs=(probs,))


def _dummy_step(t, sigma):
    q = QTable(tables=(np.zeros((1, 1, 2)),))
    mu = ConsistentModel(mu=(np.full((1, 1, 2), 0.5),))
    return TraceStep(t=t, q=q, sigma=sigma, mu=mu, dq=1.0, dsigma=1.0)


def test_detect_cycle_on_alternating_policies():
    trace = IterationTrace(rule=PolicyRule("greedy"))
    for t in range(6):
        trace.record(_dummy_step(t, _one_hot_sigma(t % 2)))
    report = detect_cycle(trace)
    assert report is not None
    assert report.outcome == "cycle"
    assert report.period == 2
    assert report.first_seen == 0


def test_detect_cycle_ignores_constant_policies():
    trace = IterationTrace(rule=PolicyRule("greedy"))
    for t in range(6):
        trace.record(_dummy_step(t, _one_hot_sigma(0)))
    assert detect_cycle(trace) is None


REPLAY_CASES = [
    # ex1 across the blend: both policies converge, except at full coupling where both cycle
    *(
        pytest.param("ex1", alpha, kind, 1.0, 500, outcome, id=f"ex1-{alpha}-{kind}")
        for alpha, outcome in ((0.0, "converged"), (0.5, "converged"), (0.9, "converged"), (1.0, "cycle"))
        for kind in ("greedy", "softmax")
    ),
    # random_game(seed, max_dim=2, coupling=1.0)
    pytest.param("random", 32, "greedy", None, 100, "cycle", id="game32-greedy"),
    pytest.param("random", 104, "greedy", None, 100, "cycle", id="game104-greedy"),
    pytest.param("random", 197, "greedy", None, 100, "cycle", id="game197-greedy"),
    pytest.param("random", 0, "greedy", None, 100, "converged", id="game0-greedy"),
    pytest.param("random", 1, "softmax", 0.01, 100, "converged", id="game1-softmax"),
    pytest.param("random", 2, "softmax", 1.0, 100, "converged", id="game2-softmax"),
    pytest.param("random", 196, "softmax", 0.01, 100, "max_iter", id="game196-softmax"),
    pytest.param("random", 5, "greedy", None, 3, "max_iter", id="game5-greedy"),
    pytest.param("random", 6, "softmax", 0.01, 3, "max_iter", id="game6-softmax"),
]


@pytest.mark.parametrize("game, key, kind, tau, max_iter, outcome", REPLAY_CASES)
def test_detect_cycle_reproduces_the_live_report(ex1_family, game, key, kind, tau, max_iter, outcome):
    spec = ex1_family.at(key) if game == "ex1" else random_game(key, max_dim=2, coupling=1.0)
    trace, report = q_value_iteration(spec, PolicyRule(kind, tau=tau), max_iter=max_iter)
    assert report.outcome == outcome
    assert detect_cycle(trace) == (report if outcome == "cycle" else None)


def test_detect_cycle_names_the_varying_softmax_agent():
    # agent 1's table alternates between two values; agent 2's stays put
    trace = IterationTrace(rule=PolicyRule("softmax"))
    mu = ConsistentModel(mu=(np.full((1, 1, 2), 0.5), np.full((1, 2, 2), 0.5)))
    for t in range(6):
        q = QTable(tables=(np.full((1, 1, 2), float(t % 2)), np.ones((1, 2, 2))))
        trace.record(TraceStep(t=t, q=q, sigma=softmax_policy(q, 1.0), mu=mu, dq=1.0, dsigma=0.0))
    report = detect_cycle(trace)
    assert report is not None
    assert (report.period, report.first_seen, report.at_iter) == (2, 2, 4)
    assert report.cycling_agents == (1,)


def test_detect_cycle_requires_steps():
    with pytest.raises(SpecError, match="empty"):
        detect_cycle(IterationTrace(rule=PolicyRule("greedy")))


def test_margin_hand_values():
    q = single_state_q((3.0, 7.0))
    assert margin(q, _one_hot_sigma(1)) == (4.0,)
    tie = single_state_q((5.0, 5.0))
    assert margin(tie, _one_hot_sigma(0)) == (0.0,)


def test_margin_rejects_stochastic_strategy():
    q = single_state_q((3.0, 7.0))
    with pytest.raises(SpecError, match="deterministic"):
        margin(q, Strategy(probs=(np.full((1, 1, 2), 0.5),)))


def test_example_margins_positive_at_convergence(ex1_greedy_run):
    trace, _ = ex1_greedy_run
    xi = margin(trace.final_q, trace.final_sigma)
    assert all(x > 0 for x in xi)


def test_max_metric_basics():
    a = [np.zeros((1, 1, 2)), np.zeros((1, 2, 2))]
    assert max_metric_strategy(a, a) == 0.0
    b = [arr.copy() for arr in a]
    b[0][0, 0] = (1.0, 0.0)
    a[0][0, 0] = (0.0, 1.0)
    assert max_metric_strategy(a, b) == 1.0
    with pytest.raises(SpecError):
        max_metric_strategy(a, a[:1])


def test_verify_accepts_known_equilibrium_profile(ex1_spec):
    sigma = sigma_star(ex1_spec)
    mu = [np.zeros((2, 2, 2)), np.zeros((2, 2, 2))]
    mu[0][0, :] = (0.67, 0.33)
    mu[0][1, :] = (0.54, 0.46)
    mu[1][0, :] = (0.64, 0.36)
    mu[1][1, :] = (0.55, 0.45)
    report = verify_eee(ex1_spec, sigma, mu, tol=0.01)
    assert report.ok
    # the same two-decimal model is not consistent at a strict tolerance
    strict = verify_eee(ex1_spec, sigma, mu, tol=1e-6)
    assert strict.optimality_ok and not strict.consistency_ok


def test_verify_flags_uniform_model_as_inconsistent(ex1_spec):
    sigma = sigma_star(ex1_spec)
    uniform = [np.full((2, 2, 2), 0.5), np.full((2, 2, 2), 0.5)]
    report = verify_eee(ex1_spec, sigma, uniform, tol=0.01)
    assert not report.consistency_ok


def test_verify_degenerate_game():
    ag = AgentSpec(
        n_states=1, n_actions=1, n_signals=1, n_memory=1,
        signal_kernel=np.ones((1, 1)),
        local_kernels=np.ones((1, 1, 1)),
        memory_rule=np.zeros((1, 1), dtype=int),
        reward=np.ones((1, 1, 1)),
        discount=0.5,
    )
    spec = GameSpec(n_env=1, env_kernels=np.ones((1, 1, 1)), agents=(ag,))
    report = verify_eee(spec, [np.ones((1, 1, 1))], [np.ones((1, 1, 1))])
    assert report.ok
    assert report.margins == (math.inf,)


def test_verify_requires_deterministic_strategy(ex1_spec):
    uniform = [np.full((2, 2, 2), 0.5), np.full((2, 2, 2), 0.5)]
    mu = consistent_model(ex1_spec, uniform)
    with pytest.raises(SpecError, match="deterministic"):
        verify_eee(ex1_spec, uniform, mu.mu)


def test_softmax_fixed_point_verifies(ex1_spec):
    trace, report = q_value_iteration(ex1_spec, PolicyRule("softmax", tau=1.0))
    assert report.outcome == "converged"
    check = verify_approx_eee(ex1_spec, trace.final_sigma, trace.final_mu, tau=1.0, tol=1e-6)
    assert check.ok
    assert check.optimality_residual < 1e-6
    assert check.consistency_residual < 1e-6


def test_large_temperature_flattens_fixed_point(ex1_spec):
    trace, report = q_value_iteration(ex1_spec, PolicyRule("softmax", tau=1e6))
    assert report.outcome == "converged"
    for p in trace.final_sigma.probs:
        assert np.max(np.abs(p - 0.5)) < 1e-4


def test_solve_q_fixed_point_residual(ex1_spec):
    mu = consistent_model(ex1_spec, sigma_star(ex1_spec))
    q = solve_q_fixed_point(ex1_spec, mu)
    assert max_metric_q(bellman_update(q, mu, ex1_spec), q) < 1e-11


def test_warm_start_from_fixed_point_converges_fast(ex1_spec, ex1_greedy_run):
    trace, _ = ex1_greedy_run
    _, report = q_value_iteration(ex1_spec, PolicyRule("greedy"), q0=trace.final_q)
    assert report.outcome == "converged"
    assert report.at_iter <= 5


def _spy_models(monkeypatch):
    """Record the greedy fingerprint of every chain solve q_value_iteration makes."""
    calls = []

    def spy(spec, sigma):
        calls.append(_fingerprint(sigma))
        return consistent_model(spec, sigma)

    monkeypatch.setattr(learning, "consistent_model", spy)
    return calls


def _fingerprint(sigma):
    return b"|".join(np.argmax(p, axis=-1).tobytes() for p in sigma.probs)


MEMO_GAMES = [("ex1", 0.9), ("ex1", 1.0)] + [
    (seed, 2 + seed % 2) for seed in range(12)
]


@pytest.mark.parametrize("game", MEMO_GAMES, ids=[f"{a}-{b}" for a, b in MEMO_GAMES])
def test_greedy_memo_matches_fresh_solves(game, ex1_family, monkeypatch):
    # oracle: every recorded model equals, bit for bit, a fresh solve of its policy
    name, arg = game
    if name == "ex1":
        spec = ex1_family.at(arg)
    else:
        spec = random_game(name, n_agents=arg, max_dim=3 if arg == 2 else 2)
    calls = _spy_models(monkeypatch)
    trace, _ = q_value_iteration(spec, PolicyRule("greedy"), tol=1e-9)
    for step in trace.steps:
        fresh = consistent_model(spec, step.sigma)
        assert all(np.array_equal(m, f) for m, f in zip(step.mu.mu, fresh.mu))
    distinct = {_fingerprint(step.sigma) for step in trace.steps}
    assert len(calls) == len(set(calls)) == len(distinct)
    assert len(distinct) < len(trace.steps)


def test_greedy_memo_serves_the_cycle_step(ex1_family):
    trace, report = q_value_iteration(ex1_family.at(1.0), PolicyRule("greedy"), tol=1e-9)
    assert report.outcome == "cycle"
    first = next(s for s in trace.steps if s.t == report.first_seen)
    assert trace.steps[-1].mu is first.mu


def test_softmax_runs_solve_every_iteration(ex1_spec, monkeypatch):
    calls = _spy_models(monkeypatch)
    trace, report = q_value_iteration(ex1_spec, PolicyRule("softmax"), tol=1e-9)
    assert report.outcome == "converged"
    assert len(calls) == len(trace.steps) == len(trace.dq_history)
