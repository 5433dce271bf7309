"""Joint chain construction, stationary solves, consistent models, diagnostics."""

import dataclasses
import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest

from eee import chain_analysis
from eee.chain_analysis import (
    MAX_AGENTS,
    SOLVER_TOL,
    StationaryError,
    VanishingMassError,
    build_joint_transition,
    chain_diagnostics,
    consistent_model,
    meyer_condition_number,
    reference_kappa,
    stationary_distribution,
    uncoupled_reference,
    uniform_strategy,
)
from eee.game_model import AgentSpec, GameSpec, SpecError

from conftest import (
    diagnostics_at,
    oracle_gth_stationary,
    oracle_joint_matrix,
    oracle_meyer_condition_number,
    random_game,
    random_strategy,
    row_stochastic,
    shaped_game,
    sigma_star,
    signal_only_game,
)


def brute_force_row(spec, probs, psi):
    """Transition row by explicit enumeration over (a, signals, next locals, w+).

    Independent of the vectorized builder: plain nested loops and scalar
    arithmetic only.
    """
    n = spec.n_agents
    state_dims = spec.indexer().state_dims
    w = psi[0]
    z = psi[1 : 1 + n]
    x = psi[1 + n :]
    row = np.zeros(spec.indexer().n_states)
    signal_ranges = [range(ag.n_signals) for ag in spec.agents]
    local_ranges = [range(ag.n_states) for ag in spec.agents]
    for k, a in enumerate(spec.joint_actions()):
        p_act = 1.0
        for i in range(n):
            p_act *= probs[i][z[i], x[i], a[i]]
        if p_act == 0.0:
            continue
        for w_next in range(spec.n_env):
            p_env = spec.env_kernels[k][w, w_next]
            for signals in itertools.product(*signal_ranges):
                p_sig = 1.0
                z_next = []
                for i, ag in enumerate(spec.agents):
                    p_sig *= ag.signal_kernel[w, signals[i]]
                    z_next.append(int(ag.memory_rule[z[i], signals[i]]))
                for x_next in itertools.product(*local_ranges):
                    p_loc = 1.0
                    for i, ag in enumerate(spec.agents):
                        p_loc *= ag.local_kernels[a[i], x[i] * ag.n_signals + signals[i], x_next[i]]
                    target = np.ravel_multi_index((w_next, *z_next, *x_next), state_dims)
                    row[target] += p_act * p_env * p_sig * p_loc
    return row


def test_degenerate_single_state_chain():
    ag = AgentSpec(
        n_states=1, n_actions=1, n_signals=1, n_memory=1,
        signal_kernel=np.ones((1, 1)),
        local_kernels=np.ones((1, 1, 1)),
        memory_rule=np.zeros((1, 1), dtype=int),
        reward=np.zeros((1, 1, 1)),
        discount=0.5,
    )
    spec = GameSpec(n_env=1, env_kernels=np.ones((1, 1, 1)), agents=(ag,))
    T = build_joint_transition(spec, [np.ones((1, 1, 1))])
    assert T.matrix.shape == (1, 1)
    assert T.matrix[0, 0] == 1.0


def test_action_independent_kernels_ignore_strategy():
    spec = random_game(7, coupling=0.0)
    rng = np.random.default_rng(0)
    T1 = build_joint_transition(spec, random_strategy(rng, spec))
    T2 = build_joint_transition(spec, random_strategy(rng, spec))
    assert np.allclose(T1.matrix, T2.matrix, atol=1e-15)


def test_example_chain_matches_brute_force(ex1_spec):
    probs = sigma_star(ex1_spec)
    T = build_joint_transition(ex1_spec, probs)
    rng = np.random.default_rng(42)
    for flat in rng.integers(0, T.n_states, size=3):
        psi = np.unravel_index(int(flat), ex1_spec.indexer().state_dims)
        assert np.allclose(T.matrix[flat], brute_force_row(ex1_spec, probs, psi), atol=1e-13)


def test_builder_equals_the_einsum_oracle_bit_for_bit(ex1_spec):
    """The broadcast builder reproduces the einsum builder exactly, not to a
    tolerance: it multiplies in einsum's own order, so every entry is the same
    double. The contract matters because the condition number of a reducible
    reference chain (the benchmark pins one, certify n648/2/0) is rounding
    noise that moves with the last bit of the matrix."""
    rng = np.random.default_rng(11)
    ref = uncoupled_reference(ex1_spec)
    cases = [
        (ex1_spec, sigma_star(ex1_spec)),
        (ex1_spec, random_strategy(rng, ex1_spec)),
        (ref, uniform_strategy(ref)),
    ]
    for n_agents in range(1, 6):
        for seed in range(3):
            spec = random_game(10 * n_agents + seed, n_agents=n_agents, max_dim=3 if n_agents < 4 else 2)
            cases.append((spec, random_strategy(rng, spec, deterministic=seed == 0)))
    # the benchmark ladder's shape features: W = 1, an agent with Z = 1 (as in
    # the fourth agent of n256), agents of unequal (Z, X, A), one-hot and mixed
    shapes = [
        (1, ((2, 3, 2, 2), (1, 2, 3, 2))),
        (1, ((1, 1, 2, 2),)),
        (2, ((2, 2, 2, 2),) * 3 + ((1, 2, 2, 2),)),
        (3, ((3, 1, 2, 2), (1, 3, 3, 3), (2, 2, 1, 2))),
    ]
    for seed, (n_env, agents) in enumerate(shapes):
        spec = shaped_game(seed, n_env, agents)
        for deterministic in (True, False):
            cases.append((spec, random_strategy(rng, spec, deterministic=deterministic)))
    for spec, sigma in cases:
        assert np.array_equal(build_joint_transition(spec, sigma).matrix, oracle_joint_matrix(spec, sigma))


@pytest.mark.parametrize("make", [
    lambda: random_game(4),
    lambda: random_game(8, n_agents=3, max_dim=2),
    lambda: shaped_game(2, 1, ((2, 3, 2, 2),)),  # W = 1, one agent: the matrix can view the sum
], ids=["two-agents", "three-agents", "one-env-state"])
def test_successive_builds_on_one_spec_each_equal_the_oracle(make):
    """The spec keeps its strategy-independent build parts between builds;
    no build may change them, nor an earlier build's matrix."""
    spec = make()
    rng = np.random.default_rng(3)
    sigmas = [random_strategy(rng, spec, deterministic=k % 2 == 0) for k in range(4)]
    matrices = [build_joint_transition(spec, sigma).matrix for sigma in sigmas]
    for matrix, sigma in zip(matrices, sigmas):
        assert np.array_equal(matrix, oracle_joint_matrix(spec, sigma))


def test_builder_takes_agents_up_to_numpys_axis_limit():
    # 2 + 4n axes: 15 agents use 62 of numpy's 64
    spec, sigma = signal_only_game(MAX_AGENTS)
    T = build_joint_transition(spec, sigma)
    assert np.allclose(T.matrix, 0.5, atol=1e-15)


def test_builder_peak_memory_stays_near_two_matrices():
    """The builder holds the sum, one n^2 product and one n^2 / W leaf while it
    runs, and the sum and the matrix in indexer order at the end. Keeping the
    buffers alive through that final copy would add (1 + 1/W) n^2 doubles."""
    spec = shaped_game(5, 3, ((2, 3, 2, 2),) * 3)  # 648 states
    sigma = random_strategy(np.random.default_rng(5), spec)
    n, w = spec.indexer().n_states, spec.n_env
    tracemalloc.start()
    try:
        T = build_joint_transition(spec, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.matrix.shape == (n, n)
    assert peak <= 1.05 * (2 + 1 / w) * n * n * 8


def test_too_many_agents_raise_a_named_error_at_once():
    spec, sigma = signal_only_game(MAX_AGENTS + 1)
    start = time.perf_counter()
    with pytest.raises(SpecError, match="limit of 15"):
        build_joint_transition(spec, sigma)
    assert time.perf_counter() - start < 1.0


def test_transition_rows_sum_to_one(ex1_spec):
    rng = np.random.default_rng(5)
    T = build_joint_transition(ex1_spec, random_strategy(rng, ex1_spec))
    assert np.allclose(T.matrix.sum(axis=1), 1.0, atol=1e-12)
    assert T.matrix.min() >= 0.0


def test_strategy_shape_mismatch_raises(ex1_spec):
    half = np.full((2, 2, 2), 0.5)
    for bad, message in [
        ([half, np.ones((3, 2, 2)) / 2], "agent 2 strategy shape (3, 2, 2), expected (2, 2, 2)"),
        ([half], "strategy has 1 agents, spec has 2"),
        ([half, np.where(half, [-0.5, 1.5], 0.0)], "agent 2 strategy has a negative or non-finite entry"),
        ([np.where(half, [np.nan, 0.5], 0.0), half], "agent 1 strategy has a negative or non-finite entry"),
        ([half, half * 0.8], "agent 2 strategy rows do not sum to 1"),
    ]:
        with pytest.raises(SpecError, match=re.escape(message)):
            build_joint_transition(ex1_spec, bad)


def test_dense_size_guard():
    ag = AgentSpec(
        n_states=4, n_actions=1, n_signals=2, n_memory=4,
        signal_kernel=row_stochastic(np.random.default_rng(0), (2, 2)),
        local_kernels=row_stochastic(np.random.default_rng(1), (1, 8, 4)),
        memory_rule=np.zeros((4, 2), dtype=int),
        reward=np.zeros((4, 1, 2)),
        discount=0.5,
    )
    spec = GameSpec(
        n_env=2,
        env_kernels=row_stochastic(np.random.default_rng(2), (1, 2, 2)),
        agents=(ag,) * 7,
    )
    with pytest.raises(SpecError, match="dense limit"):
        build_joint_transition(spec, uniform_strategy(spec))


def test_power_fallback_short_of_tol_raises_a_named_error(monkeypatch):
    # two closed classes, so the direct solve fails; from the uniform start the
    # transient middle state loses half its mass per step, short of tol in 3 steps
    monkeypatch.setattr(chain_analysis, "POWER_ITER_CAP", 3)
    T = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(StationaryError, match="stationary solve failed") as info:
        stationary_distribution(T)
    assert info.value.residual > SOLVER_TOL


def test_stationary_symmetric_two_state():
    out = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(out.pi, (0.5, 0.5), atol=1e-14)


def test_stationary_hand_solved_two_state():
    # balance: pi_0 * 0.1 = pi_1 * 0.5 with pi_0 + pi_1 = 1
    out = stationary_distribution(np.array([[0.9, 0.1], [0.5, 0.5]]))
    assert np.allclose(out.pi, (5.0 / 6.0, 1.0 / 6.0), atol=1e-14)


def test_direct_solve_agrees_with_independent_power_iteration(ex1_spec):
    T = build_joint_transition(ex1_spec, sigma_star(ex1_spec))
    direct = stationary_distribution(T)
    pi = np.full(T.n_states, 1.0 / T.n_states)
    for _ in range(200_000):
        nxt = pi @ T.matrix
        if np.max(np.abs(nxt - pi)) < 1e-14:
            pi = nxt
            break
        pi = nxt
    assert np.max(np.abs(direct.pi - pi)) < 1e-10


def test_stationary_properties_on_random_games():
    for seed in range(4):
        spec = random_game(seed)
        rng = np.random.default_rng(seed + 100)
        T = build_joint_transition(spec, random_strategy(rng, spec))
        out = stationary_distribution(T)
        assert out.residual <= 1e-10
        assert out.pi.min() >= 0.0
        assert abs(out.pi.sum() - 1.0) < 1e-12


def test_signal_kernel_with_identical_rows_pins_model():
    spec = random_game(11)
    q = row_stochastic(np.random.default_rng(3), (spec.agents[0].n_signals,))
    ag = dataclasses.replace(spec.agents[0], signal_kernel=np.tile(q, (spec.n_env, 1)))
    spec = GameSpec(n_env=spec.n_env, env_kernels=spec.env_kernels,
                    agents=(ag,) + spec.agents[1:], uncoupled_env=spec.uncoupled_env)
    rng = np.random.default_rng(4)
    model = consistent_model(spec, random_strategy(rng, spec))
    assert np.allclose(model.mu[0], q, atol=1e-12)


def test_example_consistent_model_matches_known_rows(ex1_spec):
    model = consistent_model(ex1_spec, sigma_star(ex1_spec))
    expected = {
        (0, 0): (0.67, 0.33), (0, 1): (0.54, 0.46),
        (1, 0): (0.64, 0.36), (1, 1): (0.55, 0.45),
    }
    for (agent, z), target in expected.items():
        for x in range(2):
            assert np.max(np.abs(model.mu[agent][z, x] - target)) < 0.01


def test_model_rows_are_distributions(ex1_spec):
    rng = np.random.default_rng(9)
    model = consistent_model(ex1_spec, random_strategy(rng, ex1_spec))
    for m in model.mu:
        assert np.allclose(m.sum(axis=-1), 1.0, atol=1e-12)
        assert m.min() >= 0.0


def test_unreachable_memory_state_raises_named_error():
    spec = None
    for seed in range(40):
        cand = random_game(seed, n_agents=1)
        if cand.agents[0].n_memory >= 2:
            spec = cand
            break
    assert spec is not None
    ag = dataclasses.replace(spec.agents[0], memory_rule=np.zeros_like(spec.agents[0].memory_rule))
    spec = GameSpec(n_env=spec.n_env, env_kernels=spec.env_kernels, agents=(ag,),
                    uncoupled_env=spec.uncoupled_env)
    rng = np.random.default_rng(0)
    with pytest.raises(VanishingMassError, match=r"vanishing stationary mass"):
        consistent_model(spec, random_strategy(rng, spec))


def test_zero_coupling_model_is_strategy_independent():
    spec = random_game(13, coupling=0.0)
    rng = np.random.default_rng(1)
    a = consistent_model(spec, random_strategy(rng, spec))
    b = consistent_model(spec, random_strategy(rng, spec, deterministic=True))
    for ma, mb in zip(a.mu, b.mu):
        assert np.allclose(ma, mb, atol=1e-12)


def test_stationary_solve_agrees_with_gth_elimination(ex1_spec):
    # mixed strategies over strictly positive kernels and recurrent memory rules:
    # every chain here is ergodic, so GTH meets no zero pivot
    cases = [(ex1_spec, sigma_star(ex1_spec))]
    games = [random_game(seed, max_dim=3) for seed in range(12)]
    games.append(shaped_game(3, 4, [(2, 4, 2, 2), (2, 4, 2, 2)]))  # 256 joint states
    for seed, spec in enumerate(games):
        cases.append((spec, random_strategy(np.random.default_rng(seed), spec)))
    start, sizes = time.perf_counter(), []
    for spec, sigma in cases:
        T = build_joint_transition(spec, sigma).matrix
        want = oracle_gth_stationary(T)
        assert np.max(np.abs(stationary_distribution(T).pi - want) / want) <= 1e-12
        sizes.append(len(T))
    assert max(sizes) == 256
    assert time.perf_counter() - start < 1.0


def test_meyer_constant_of_symmetric_two_state_chain():
    # group inverse of the 0.5 chain has entries +-0.25, hand-inverted
    kappa = meyer_condition_number(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert abs(kappa - 0.5) < 1e-12


def test_meyer_constant_permutation_invariant():
    rng = np.random.default_rng(21)
    T = row_stochastic(rng, (5, 5))
    perm = rng.permutation(5)
    P = np.eye(5)[perm]
    assert abs(meyer_condition_number(T) - meyer_condition_number(P @ T @ P.T)) < 1e-10


def test_meyer_inequality_on_random_perturbations():
    rng = np.random.default_rng(33)
    T = row_stochastic(rng, (5, 5))
    kappa = meyer_condition_number(T)
    pi = stationary_distribution(T).pi
    for _ in range(100):
        c = rng.uniform(0.0, 0.005)
        R = row_stochastic(rng, (5, 5))
        T_bar = (1.0 - c) * T + c * R
        gap = float(np.max(np.abs(T - T_bar).sum(axis=1)))
        assert gap <= 0.01 + 1e-12
        pi_bar = stationary_distribution(T_bar).pi
        assert np.max(np.abs(pi - pi_bar)) <= kappa * gap + 1e-12


def test_meyer_constant_equals_the_textbook_oracle(ex1_spec):
    """Same operations per entry as the textbook formula, so kappa is equal,
    not close; that includes a reducible reference, whose kappa is rounding
    noise (here the environment never moves, so each w is a closed class)."""
    specs = [ex1_spec] + [random_game(60 + seed, max_dim=3) for seed in range(10)]
    reducible = random_game(0, max_dim=2)
    specs.append(dataclasses.replace(reducible, uncoupled_env=np.eye(reducible.n_env)))
    for spec in specs:
        ref = uncoupled_reference(spec)
        T = build_joint_transition(ref, uniform_strategy(ref)).matrix
        assert meyer_condition_number(T) == oracle_meyer_condition_number(T)
    assert meyer_condition_number(T) > 1e12


def test_meyer_rejects_reducible_chain():
    with pytest.raises(StationaryError, match="not ergodic"):
        meyer_condition_number(np.eye(2))


def test_example_diagnostics(ex1_spec):
    diag = diagnostics_at(ex1_spec, sigma_star(ex1_spec))
    assert tuple(ag.signal_ceiling for ag in ex1_spec.agents) == (0.98, 0.93)
    assert diag.kappa > 0.0
    assert all(m > 0.0 for m in diag.minimal_mass)


def test_diagnostics_with_supplied_pi_match_a_fresh_solve(ex1_spec):
    cases = [(ex1_spec, sigma_star(ex1_spec))]
    for seed in range(6):
        spec = random_game(seed, n_agents=2 + seed % 2, max_dim=2)
        rng = np.random.default_rng(seed)
        cases.append((spec, random_strategy(rng, spec, deterministic=seed % 2 == 0)))
    for spec, sigma in cases:
        pi = stationary_distribution(build_joint_transition(spec, sigma)).pi
        diag = chain_diagnostics(spec, pi, 2.5)
        assert diag.kappa == 2.5
        # oracle: each (z_i, x_i) mass summed state by state over the joint index
        dims = spec.indexer().state_dims
        for i, ag in enumerate(spec.agents):
            mass = np.zeros((ag.n_memory, ag.n_states))
            for k, p in enumerate(pi):
                psi = np.unravel_index(k, dims)
                mass[psi[1 + i], psi[1 + spec.n_agents + i]] += p
            assert diag.minimal_mass[i] == pytest.approx(mass.min(), rel=1e-12)


def test_uniform_game_minimal_mass():
    rng = np.random.default_rng(8)
    agents = []
    for _ in range(2):
        agents.append(AgentSpec(
            n_states=2, n_actions=2, n_signals=2, n_memory=2,
            signal_kernel=np.full((3, 2), 0.5),
            local_kernels=np.full((2, 4, 2), 0.5),
            memory_rule=np.array([[0, 1], [0, 1]]),
            reward=rng.uniform(-1, 1, size=(2, 2, 2)),
            discount=0.5,
            uncoupled_local=np.full((4, 2), 0.5),
        ))
    spec = GameSpec(n_env=3, env_kernels=np.full((4, 3, 3), 1 / 3),
                    agents=tuple(agents), uncoupled_env=np.full((3, 3), 1 / 3))
    diag = diagnostics_at(spec, uniform_strategy(spec))
    assert np.allclose(diag.minimal_mass, 1.0 / (2 * 2), atol=1e-12)


def test_diagnostics_require_uncoupled_reference():
    spec = random_game(2)
    stripped = GameSpec(n_env=spec.n_env, env_kernels=spec.env_kernels,
                        agents=tuple(dataclasses.replace(a, uncoupled_local=None)
                                     for a in spec.agents))
    with pytest.raises(SpecError, match="uncoupled reference"):
        reference_kappa(stripped)
