"""Monte Carlo sampling, empirical frequencies, and exact-model comparison."""

import math
import string
import time
import tracemalloc

import numpy as np
import pytest

from eee import empirical
from eee.chain_analysis import (
    build_joint_transition,
    consistent_model,
    place_factor,
    strategy_arrays,
    uniform_strategy,
)
from eee.empirical import (
    Trajectory,
    compare_models,
    empirical_model,
    simulate,
)
from eee.game_model import AgentSpec, GameSpec, SpecError, build_example1

from conftest import permuted_game, random_game, random_strategy, shaped_game, sigma_star, signal_only_game

NO_STEPS = np.empty(0, dtype=np.int64)


def deterministic_flip_game():
    # every kernel is one-hot: signal copies the environment, the local state
    # and the memory copy the signal, the environment flips
    ag = AgentSpec(
        n_states=2, n_actions=1, n_signals=2, n_memory=2,
        signal_kernel=np.eye(2),
        local_kernels=np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]]),
        memory_rule=np.array([[0, 1], [0, 1]]),
        reward=np.zeros((2, 1, 2)),
        discount=0.5,
    )
    env = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    return GameSpec(n_env=2, env_kernels=env, agents=(ag,))


def test_simulation_is_deterministic_per_seed(ex1_spec):
    sigma = sigma_star(ex1_spec)
    a = simulate(ex1_spec, sigma, horizon=2000, seed=12, burn_in=100)
    b = simulate(ex1_spec, sigma, horizon=2000, seed=12, burn_in=100)
    for ca, cb in zip(a.signal_counts, b.signal_counts):
        assert np.array_equal(ca, cb)
    assert decoded_steps(ex1_spec, a) == decoded_steps(ex1_spec, b)
    c = simulate(ex1_spec, sigma, horizon=2000, seed=13, burn_in=100)
    assert any(not np.array_equal(x, y) for x, y in zip(a.signal_counts, c.signal_counts))


def outcome_dims(spec) -> tuple[int, ...]:
    """The documented outcome order: joint action, signals, next local states,
    next environment."""
    return (
        spec.n_joint_actions,
        *(ag.n_signals for ag in spec.agents),
        *(ag.n_states for ag in spec.agents),
        spec.n_env,
    )


def decoded_steps(spec, traj) -> list[tuple]:
    """Per step (w, z, x, a, s) tuples, decoded from traj.states and traj.outcomes."""
    n = spec.n_agents
    psi = np.unravel_index(traj.states, spec.indexer().state_dims)
    k, *rest = np.unravel_index(traj.outcomes, outcome_dims(spec))
    a = np.unravel_index(k, spec.action_dims)
    rows = np.stack([*psi, *a, *rest[:n]], axis=1).tolist()
    return [
        (r[0], tuple(r[1 : 1 + n]), tuple(r[1 + n : 1 + 2 * n]), tuple(r[1 + 2 * n : 1 + 3 * n]),
         tuple(r[1 + 3 * n :]))
        for r in rows
    ]


def oracle_outcome_table(spec, probs) -> np.ndarray:
    """Every joint state's outcome row from one einsum per joint action.

    Rows are indexed by flat joint state; columns run over (joint action,
    signals, next local states, next environment) in C order.
    """
    n = spec.n_agents
    letters = string.ascii_lowercase + string.ascii_uppercase
    w, wn = letters[0], letters[1]
    z = [letters[2 + 4 * i] for i in range(n)]
    x = [letters[3 + 4 * i] for i in range(n)]
    s = [letters[4 + 4 * i] for i in range(n)]
    xn = [letters[5 + 4 * i] for i in range(n)]
    subs = [w + wn]
    for i in range(n):
        subs += [z[i] + x[i], w + s[i], x[i] + s[i] + xn[i]]
    out = w + "".join(z) + "".join(x) + "".join(s) + "".join(xn) + wn
    expr = ",".join(subs) + "->" + out
    terms = []
    for k, a in enumerate(spec.joint_actions()):
        operands = [spec.env_kernels[k]]
        for i, (ai, ag) in enumerate(zip(a, spec.agents)):
            operands += [probs[i][:, :, ai], ag.signal_kernel, ag.local_kernels_4d[ai]]
        terms.append(np.einsum(expr, *operands, optimize=True))
    block = np.stack(terms, axis=1 + 2 * n)
    return block.reshape(spec.indexer().n_states, -1)


def oracle_records(spec, sigma, horizon, seed):
    """Per-step records of the documented stream, sampled from the oracle table."""
    probs = strategy_arrays(sigma, spec)
    state_dims = spec.indexer().state_dims
    n = spec.n_agents
    cum = np.cumsum(oracle_outcome_table(spec, probs), axis=1)
    cum /= cum[:, -1:]
    rng = np.random.default_rng(seed)
    state = int(rng.integers(spec.indexer().n_states))
    records = []
    for u in rng.random(horizon):
        w, *zx = (int(v) for v in np.unravel_index(state, state_dims))
        z, x = tuple(zx[:n]), tuple(zx[n:])
        o = np.searchsorted(cum[state], u, side="right")
        k, *rest = (int(v) for v in np.unravel_index(o, outcome_dims(spec)))
        s, x_next, w_next = tuple(rest[:n]), tuple(rest[n : 2 * n]), rest[2 * n]
        a = tuple(int(v) for v in np.unravel_index(k, spec.action_dims))
        records.append((w, z, x, a, s))
        z_next = tuple(int(ag.memory_rule[z[i], s[i]]) for i, ag in enumerate(spec.agents))
        state = int(np.ravel_multi_index((w_next, *z_next, *x_next), state_dims))
    return records


def oracle_cases():
    rng = np.random.default_rng(5)
    spec = build_example1().at()
    cases = [(spec, sigma_star(spec))]
    for seed in range(6):
        spec = random_game(seed, n_agents=1 + seed % 3, max_dim=2 if seed % 3 == 2 else 3)
        cases.append((spec, random_strategy(rng, spec)))
    return cases


def oracle_outcome_row(spec, probs, psi: tuple[int, ...]) -> np.ndarray:
    """Outcome probabilities of the joint state psi = (w, z, x), in outcome order.

    The per-state builder that empirical._outcome_block replaced, kept as the
    bit-equality oracle. The environment row, shaped (A_1..A_n, 1.., W'), is
    multiplied by one broadcast factor per agent, h_i[a_i, s_i, x'_i] =
    (sigma_i[z_i, x_i, a_i] * M_i[w, s_i]) * L_i[a_i, x_i, s_i, x'_i], placed
    on the agent's action, signal and next-local-state axes.
    """
    n = spec.n_agents
    w, zs, xs = psi[0], psi[1 : 1 + n], psi[1 + n :]
    row = spec.env_kernels[:, w, :].reshape(*spec.action_dims, *(1,) * (2 * n), spec.n_env)
    for i, ag in enumerate(spec.agents):
        h = (
            probs[i][zs[i], xs[i], :, None, None]
            * ag.signal_kernel[w, None, :, None]
            * ag.local_kernels_4d[:, xs[i]]
        )
        row = row * place_factor(h, 3 * n + 1, (i, n + i, 2 * n + i))
    return row.ravel()


def block_size(spec) -> int:
    """States per (w, z) block: the product of the local-state counts."""
    return math.prod(ag.n_states for ag in spec.agents)


def block_rows(spec, probs, block) -> np.ndarray:
    """The outcome rows of the states of flat (w, z) block `block`, from the
    simulator's builder, into a NaN-filled array so an unwritten entry shows."""
    wz = np.unravel_index(block, spec.indexer().state_dims[: 1 + spec.n_agents])
    out = np.full((block_size(spec), math.prod(outcome_dims(spec))), np.nan)
    empirical._outcome_block(spec, probs, wz, out)
    return out


def outcome_row(spec, probs, state) -> np.ndarray:
    """A flat joint state's outcome row, read from its block."""
    return block_rows(spec, probs, state // block_size(spec))[state % block_size(spec)]


def degenerate_axes_game():
    """Three agents with a one-action, a one-memory and a one-local-state agent
    among them (shapes as (Z, X, A, S))."""
    spec = shaped_game(3, n_env=2, shapes=[(2, 2, 1, 2), (1, 2, 2, 3), (2, 1, 2, 2)])
    return spec, random_strategy(np.random.default_rng(3), spec)


@pytest.mark.parametrize("case", [*oracle_cases(), signal_only_game(13), degenerate_axes_game()],
                         ids=[*(f"oracle-{k}" for k in range(len(oracle_cases()))), "13-agents", "degenerate"])
def test_block_rows_equal_the_per_state_oracle_bit_for_bit(case):
    spec, sigma = case
    probs = strategy_arrays(sigma, spec)
    state_dims, n_x = spec.indexer().state_dims, block_size(spec)
    for block in range(spec.indexer().n_states // n_x):
        rows = block_rows(spec, probs, block)
        for k, row in enumerate(rows):
            psi = np.unravel_index(block * n_x + k, state_dims)
            assert np.array_equal(row, oracle_outcome_row(spec, probs, psi))


def test_factored_rows_match_the_einsum_oracle():
    for spec, sigma in oracle_cases():
        probs = strategy_arrays(sigma, spec)
        table = oracle_outcome_table(spec, probs)
        for psi in range(spec.indexer().n_states):
            row = outcome_row(spec, probs, psi)
            assert row.shape == table[psi].shape
            assert np.max(np.abs(row - table[psi])) <= 1e-15


def test_outcome_rows_summed_by_next_state_equal_the_kernel_rows():
    # the simulator's outcome rows and the exact path's dense kernel are two
    # representations of one chain: each outcome leads to one next state
    for spec, sigma in oracle_cases():
        probs = strategy_arrays(sigma, spec)
        matrix = build_joint_transition(spec, sigma).matrix
        n, state_dims = spec.n_agents, spec.indexer().state_dims
        out_dims = (*spec.action_dims, *(ag.n_signals for ag in spec.agents),
                    *(ag.n_states for ag in spec.agents), spec.n_env)
        outcome = np.unravel_index(np.arange(np.prod(out_dims)), out_dims)
        signals, x_next, w_next = outcome[n : 2 * n], outcome[2 * n : 3 * n], outcome[3 * n]
        for psi in range(matrix.shape[0]):
            state = np.unravel_index(psi, state_dims)
            z_next = [ag.memory_rule[state[1 + i], signals[i]] for i, ag in enumerate(spec.agents)]
            nxt = np.ravel_multi_index((w_next, *z_next, *x_next), state_dims)
            row = np.bincount(nxt, weights=outcome_row(spec, probs, psi), minlength=matrix.shape[0])
            assert np.max(np.abs(row - matrix[psi])) <= 1e-15


def test_records_match_the_oracle_sampler():
    for spec, sigma in oracle_cases():
        traj = simulate(spec, sigma, horizon=3000, seed=4, burn_in=100)
        assert decoded_steps(spec, traj) == oracle_records(spec, sigma, horizon=3000, seed=4)


def next_state(spec, state, o) -> int:
    """The flat joint state that outcome o moves flat joint state `state` to."""
    n = spec.n_agents
    state_dims = spec.indexer().state_dims
    z = np.unravel_index(state, state_dims)[1 : 1 + n]
    _, *rest = np.unravel_index(o, outcome_dims(spec))
    s, x_next, w_next = rest[:n], rest[n : 2 * n], rest[2 * n]
    z_next = [ag.memory_rule[z[i], s[i]] for i, ag in enumerate(spec.agents)]
    return int(np.ravel_multi_index((w_next, *z_next, *x_next), state_dims))


def cumulative_row(spec, probs, state) -> np.ndarray:
    """A state's cumulative outcome row divided by its last entry, as sampled."""
    cum = np.cumsum(outcome_row(spec, probs, state))
    return cum / cum[-1]


def searchsorted_steps(spec, sigma, horizon, seed):
    """(states, outcomes) of the documented stream from a reference loop: one
    np.searchsorted(side="right") per step over the state's normalized
    cumulative row, with the next state decoded from the outcome."""
    probs = strategy_arrays(sigma, spec)
    rng = np.random.default_rng(seed)
    state = int(rng.integers(spec.indexer().n_states))
    rows, states, outcomes = {}, [], []
    for u in rng.random(horizon):
        if state not in rows:
            rows[state] = cumulative_row(spec, probs, state)
        o = int(np.searchsorted(rows[state], u, side="right"))
        states.append(state)
        outcomes.append(o)
        state = next_state(spec, state, o)
    return np.array(states, dtype=np.int64), np.array(outcomes, dtype=np.int64)


def searchsorted_cases():
    rng = np.random.default_rng(17)
    spec = build_example1().at()
    cases = [(spec, sigma_star(spec))]
    for seed in range(8):
        n_agents = 1 + seed % 4
        spec = random_game(40 + seed, n_agents=n_agents, max_dim=2 if n_agents >= 3 else 3)
        cases.append((spec, random_strategy(rng, spec, deterministic=seed % 2 == 1)))
    cases.append(signal_only_game(13))
    return cases


def test_steps_equal_a_searchsorted_reference_loop():
    for spec, sigma in searchsorted_cases():
        traj = simulate(spec, sigma, horizon=2000, seed=3, burn_in=0)
        states, outcomes = searchsorted_steps(spec, sigma, horizon=2000, seed=3)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.outcomes, outcomes)


def test_uniforms_on_repeated_cumulative_values_resolve_like_searchsorted_right(ex1_spec, monkeypatch):
    # under a deterministic sigma the outcomes of unplayed actions have zero
    # probability, so their cumulative entries repeat the previous value. Each
    # uniform below is such a repeated entry of the row of the state it meets.
    spec, sigma = ex1_spec, sigma_star(ex1_spec)
    probs = strategy_arrays(sigma, spec)
    pick = np.random.default_rng(8)
    state, path, uniforms, expected = 0, [], [], []
    for _ in range(400):
        path.append(state)
        row = cumulative_row(spec, probs, state)
        values, counts = np.unique(row[row < 1.0], return_counts=True)
        u = pick.choice(values[counts > 1])
        o = int(np.searchsorted(row, u, side="right"))
        assert row[o] - (row[o - 1] if o else 0.0) > 0.0
        uniforms.append(u)
        expected.append(o)
        state = next_state(spec, state, o)

    class FixedUniforms:
        def __init__(self, seed):
            pass

        def integers(self, n):
            return 0

        def random(self, size):
            return np.array(uniforms)

    monkeypatch.setattr(np.random, "default_rng", FixedUniforms)
    traj = simulate(spec, sigma, horizon=len(uniforms), seed=0, burn_in=0)
    monkeypatch.undo()
    assert traj.states.tolist() == path
    assert traj.outcomes.tolist() == expected


def test_steps_are_kept_above_the_old_record_limit(ex1_spec):
    # per-step data used to be kept only up to 10**5 steps
    horizon, burn_in = 10**5 + 1, 100
    traj = simulate(ex1_spec, sigma_star(ex1_spec), horizon=horizon, seed=6, burn_in=burn_in)
    assert traj.states.shape == traj.outcomes.shape == (horizon,)
    recount = [np.zeros_like(c) for c in traj.signal_counts]
    for _, z, x, _, s in decoded_steps(ex1_spec, traj)[burn_in:]:
        for i, c in enumerate(recount):
            c[z[i], x[i], s[i]] += 1
    for r, c in zip(recount, traj.signal_counts):
        assert np.array_equal(r, c)


def test_example_counts_are_pinned(ex1_spec):
    # the documented stream on the bundled example; a change here changes the stream
    traj = simulate(ex1_spec, sigma_star(ex1_spec), horizon=3000, seed=4, burn_in=100)
    assert traj.signal_counts[0].tolist() == [[[611, 347], [538, 262]], [[290, 283], [319, 250]]]
    assert traj.signal_counts[1].tolist() == [[[561, 278], [586, 344]], [[373, 313], [248, 197]]]


def test_three_agent_counts_are_pinned():
    # random_game(31, n_agents=3, max_dim=2) under random_strategy(default_rng(31)),
    # horizon 4000, seed 9, burn-in 200; a change here changes the stream
    spec = random_game(31, n_agents=3, max_dim=2)
    sigma = random_strategy(np.random.default_rng(31), spec)
    traj = simulate(spec, sigma, horizon=4000, seed=9, burn_in=200)
    assert traj.signal_counts[0].tolist() == [[[843, 808], [1086, 1063]]]
    assert traj.signal_counts[1].tolist() == [[[748, 430], [458, 264]], [[782, 432], [427, 259]]]
    assert traj.signal_counts[2].tolist() == [[[449, 413], [545, 493]], [[466, 421], [557, 456]]]


def n1458_shaped_game():
    """The shape of the benchmark's largest rung: 2 environment states and 3 agents
    with (Z, X, A, S) = (3, 3, 2, 2), so 1458 joint states in 54 blocks of 27."""
    spec = shaped_game(58, n_env=2, shapes=[(3, 3, 2, 2)] * 3)
    return spec, random_strategy(np.random.default_rng(58), spec)


def test_n1458_shaped_counts_are_pinned():
    # horizon 5000, seed 7, burn-in 200: 27-state blocks, 1394 distinct states
    # visited. Recorded with the per-state row builder; a change here changes the stream
    spec, sigma = n1458_shaped_game()
    traj = simulate(spec, sigma, horizon=5000, seed=7, burn_in=200)
    assert len(np.unique(traj.states)) == 1394
    assert traj.signal_counts[0].tolist() == [
        [[257, 304], [245, 288], [226, 280]], [[227, 286], [244, 310], [244, 289]], [[282, 274], [229, 292], [224, 299]]
    ]
    assert traj.signal_counts[1].tolist() == [
        [[294, 300], [292, 290], [236, 213]], [[276, 276], [312, 274], [211, 238]], [[283, 266], [312, 260], [227, 240]]
    ]
    assert traj.signal_counts[2].tolist() == [
        [[284, 201], [391, 268], [294, 211]], [[277, 195], [401, 270], [246, 187]], [[319, 184], [383, 248], [266, 175]]
    ]


def spy_on_blocks(monkeypatch) -> list[tuple[int, ...]]:
    """Record the (w, z) of every block the simulator builds."""
    built, original = [], empirical._outcome_block

    def spy(spec, probs, wz, out):
        built.append(tuple(int(v) for v in wz))
        original(spec, probs, wz, out)

    monkeypatch.setattr(empirical, "_outcome_block", spy)
    return built


def test_blocks_are_built_on_first_visit_only(monkeypatch):
    spec, sigma = n1458_shaped_game()
    block_dims = spec.indexer().state_dims[: 1 + spec.n_agents]
    built = spy_on_blocks(monkeypatch)
    traj = simulate(spec, sigma, horizon=1, burn_in=0, seed=7)
    assert built == [np.unravel_index(traj.states[0] // 27, block_dims)]

    built.clear()
    traj = simulate(spec, sigma, horizon=40, burn_in=0, seed=7)
    visited = list(dict.fromkeys((traj.states // 27).tolist()))
    assert built == [tuple(int(v) for v in np.unravel_index(b, block_dims)) for b in visited]
    assert len(built) < 54


def test_the_byte_check_charges_the_rows_and_the_successor_table(ex1_spec, monkeypatch):
    # ex1: 64 joint states, 4 joint memories, 4 joint actions; an outcome tail of
    # 2*2 signals, 2*2 next local states and 4 next environments. The per-state
    # successor table of 64 rows is gone; the table has one row per joint memory
    charged = []
    monkeypatch.setattr(empirical, "require_bytes", lambda nbytes, what: charged.append(nbytes))
    simulate(ex1_spec, sigma_star(ex1_spec), horizon=10, seed=0, burn_in=0)
    n_tail = 4 * 4 * 4
    assert charged == [8 * 64 * 4 * n_tail + 8 * 4 * n_tail]


def test_rows_are_freed_before_the_window_is_decoded():
    # the counting step's two int64 arrays as long as the window must not stack
    # on top of the outcome rows; a view of the last block kept alive would
    # hold all of them
    spec, sigma = n1458_shaped_game()
    horizon, rows_bytes = 20_000, 8 * 1458 * 3456
    tracemalloc.start()
    try:
        simulate(spec, sigma, horizon=horizon, seed=7, burn_in=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows_bytes + 3 * 8 * horizon + 2**20


def test_counting_holds_two_window_arrays_beside_the_trajectory(ex1_spec):
    # the uniforms, states and outcomes of every step, then one counting key and
    # one joint signal per window step: 5 int64 or float arrays as long as the
    # horizon, where decoding every state and outcome axis of the window took 16
    sigma = sigma_star(ex1_spec)
    simulate(ex1_spec, sigma, horizon=100, seed=7, burn_in=0)  # first-call allocations
    horizon = 20_000
    tracemalloc.start()
    try:
        simulate(ex1_spec, sigma, horizon=horizon, seed=7, burn_in=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * horizon


@pytest.mark.parametrize("perm", [(1, 0, 2), (2, 0, 1)])
def test_permuting_the_agents_permutes_the_model_and_the_block_rows(perm):
    n = 3
    # outcome-row axes: x, a, s and x' per agent, then w'
    axes = [k * n + perm[j] for k in range(4) for j in range(n)] + [4 * n]
    for seed in range(10):
        spec = random_game(60 + seed, n_agents=n, max_dim=2)
        sigma = random_strategy(np.random.default_rng(seed), spec)
        p_spec, p_sigma = permuted_game(spec, perm), [sigma[p] for p in perm]
        mu, p_mu = consistent_model(spec, sigma).mu, consistent_model(p_spec, p_sigma).mu
        for j in range(n):
            assert np.max(np.abs(p_mu[j] - mu[perm[j]])) <= 1e-12

        probs, p_probs = strategy_arrays(sigma, spec), strategy_arrays(p_sigma, p_spec)
        block_dims, p_block_dims = spec.indexer().state_dims[: 1 + n], p_spec.indexer().state_dims[: 1 + n]
        local_dims = tuple(ag.n_states for ag in spec.agents)
        row_dims = (*local_dims, *spec.action_dims, *(ag.n_signals for ag in spec.agents), *local_dims, spec.n_env)
        for block in range(math.prod(block_dims)):
            w, *z = np.unravel_index(block, block_dims)
            p_block = np.ravel_multi_index((w, *(z[p] for p in perm)), p_block_dims)
            expected = block_rows(spec, probs, block).reshape(row_dims).transpose(axes)
            got = block_rows(p_spec, p_probs, p_block).reshape(expected.shape)
            assert np.max(np.abs(got - expected)) <= 1e-15


def test_largest_uniform_never_lands_on_a_zero_probability_outcome(ex1_spec, monkeypatch):
    # state 0's row sums to 0.9999999999999998 under sigma*, below the largest
    # uniform; inverse CDF over the raw cumulative row would run off its end
    class LargestUniform:
        def __init__(self, seed):
            pass

        def integers(self, n):
            return 0

        def random(self, size):
            return np.full(size, np.nextafter(1.0, 0.0))

    monkeypatch.setattr(np.random, "default_rng", LargestUniform)
    traj = simulate(ex1_spec, sigma_star(ex1_spec), horizon=50, seed=0, burn_in=0)
    monkeypatch.undo()
    steps = decoded_steps(ex1_spec, traj)
    assert steps[0][:3] == (0, (0, 0), (0, 0))
    assert {step[3] for step in steps} == {(1, 0)}


def test_thirteen_agents_simulate():
    # 2 joint states, 2**14 outcomes
    spec, sigma = signal_only_game(13)
    traj = simulate(spec, sigma, horizon=2000, seed=1, burn_in=0)
    assert len(decoded_steps(spec, traj)) == 2000
    for v, c in zip(traj.visits, traj.signal_counts):
        assert v.tolist() == [[2000]]
        # each signal is 0.75 / 0.25 given w, and w is uniform
        assert abs(c[0, 0, 0] / 2000 - 0.5) < 0.05


@pytest.mark.parametrize("n_agents", [16, 22])
def test_too_many_agents_are_rejected_before_sampling(n_agents):
    spec, sigma = signal_only_game(n_agents)
    start = time.perf_counter()
    with pytest.raises(SpecError, match="limit of 15"):
        simulate(spec, sigma, horizon=10**5, seed=0, burn_in=0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("shapes, n_states", [
    ([(10, 10, 1, 10)] * 3, 10**6),  # times 10^6 outcomes: terabytes of rows, from small kernels
    ([(16, 16, 1, 1)] * 15, 16**30),  # a count that int64 arithmetic wraps to 0
], ids=["3-agents", "15-agents"])
def test_outcome_rows_past_the_byte_budget_raise_at_once(shapes, n_states):
    spec = shaped_game(0, n_env=1, shapes=shapes)
    start = time.perf_counter()
    with pytest.raises(SpecError, match=rf"outcome rows for {n_states} joint states need \d+ bytes, above the dense limit"):
        simulate(spec, uniform_strategy(spec), horizon=10, seed=0, burn_in=0)
    assert time.perf_counter() - start < 1.0


def test_empty_window_counts_nothing(ex1_spec):
    traj = simulate(ex1_spec, sigma_star(ex1_spec), horizon=500, seed=0, burn_in=500)
    for v, c in zip(traj.visits, traj.signal_counts):
        assert v.sum() == 0
        assert c.sum() == 0


def test_horizon_below_burn_in_rejected(ex1_spec):
    with pytest.raises(SpecError, match="horizon >= burn_in"):
        simulate(ex1_spec, sigma_star(ex1_spec), horizon=10, seed=0, burn_in=11)
    with pytest.raises(SpecError, match="horizon >= burn_in"):
        simulate(ex1_spec, sigma_star(ex1_spec), horizon=10, seed=0, burn_in=-1)


def test_counts_conserve_the_window(ex1_spec):
    traj = simulate(ex1_spec, sigma_star(ex1_spec), horizon=3000, seed=5, burn_in=250)
    for v, c in zip(traj.visits, traj.signal_counts):
        assert v.sum() == 3000 - 250
        assert np.array_equal(c.sum(axis=-1), v)
    assert len(decoded_steps(ex1_spec, traj)) == 3000


def test_deterministic_game_follows_the_hand_orbit():
    spec = deterministic_flip_game()
    sigma = [np.ones((2, 2, 1))]
    traj = simulate(spec, sigma, horizon=10, seed=21, burn_in=0)

    rng = np.random.default_rng(21)
    w, z, x = np.unravel_index(int(rng.integers(8)), (2, 2, 2))
    for step in decoded_steps(spec, traj):
        assert step == (w, (z,), (x,), (0,), (w,))
        w, z, x = 1 - w, w, w

    # one-hot kernels concentrate every count at s == z' == x'
    emp = empirical_model(traj)
    for zz in range(2):
        for xx in range(2):
            if emp.defined[0][zz, xx]:
                assert emp.freq[0][zz, xx, zz] in (0.0, 1.0)


def test_empirical_model_hand_frequencies():
    traj = Trajectory(
        seed=0, horizon=100, burn_in=0, rng_algorithm="manual",
        visits=(np.array([[100]]),),
        signal_counts=(np.array([[[30, 70]]]),),
        states=NO_STEPS,
        outcomes=NO_STEPS,
    )
    emp = empirical_model(traj)
    assert np.allclose(emp.freq[0][0, 0], (0.3, 0.7), atol=1e-15)
    assert np.allclose(emp.stderr[0][0, 0], np.sqrt(np.array([0.21, 0.21]) / 100), atol=1e-15)
    assert emp.defined[0][0, 0]


def test_empirical_model_zero_visits_defined_false():
    traj = Trajectory(
        seed=0, horizon=0, burn_in=0, rng_algorithm="manual",
        visits=(np.array([[0, 50]]),),
        signal_counts=(np.array([[[0, 0], [25, 25]]]),),
        states=NO_STEPS,
        outcomes=NO_STEPS,
    )
    emp = empirical_model(traj)
    assert not emp.defined[0][0, 0]
    assert emp.defined[0][0, 1]
    assert np.all(np.isfinite(emp.freq[0]))
    assert np.all(emp.freq[0][0, 0] == 0.0)
    assert np.all(emp.stderr[0][0, 0] == 0.0)


def test_comparison_of_rounded_counts_stays_below_resolution():
    n = 1000
    mu = np.array([[[1.0 / 3.0, 2.0 / 3.0]]])
    c0 = int(round(mu[0, 0, 0] * n))
    traj = Trajectory(
        seed=0, horizon=n, burn_in=0, rng_algorithm="manual",
        visits=(np.array([[n]]),),
        signal_counts=(np.array([[[c0, n - c0]]]),),
        states=NO_STEPS,
        outcomes=NO_STEPS,
    )
    rep = compare_models(empirical_model(traj), [mu])
    assert rep.max_abs_gap <= 0.5 / n
    assert np.isfinite(rep.max_abs_z)
    assert rep.n_defined == 2


def test_comparison_rejects_mismatched_shapes():
    traj = Trajectory(
        seed=0, horizon=10, burn_in=0, rng_algorithm="manual",
        visits=(np.array([[10]]),),
        signal_counts=(np.array([[[4, 6]]]),),
        states=NO_STEPS,
        outcomes=NO_STEPS,
    )
    with pytest.raises(SpecError, match="mismatched dimensions"):
        compare_models(empirical_model(traj), [np.full((1, 1, 3), 1 / 3)])


def test_short_run_leaves_cells_undefined_without_nan(ex1_spec):
    traj = simulate(ex1_spec, sigma_star(ex1_spec), horizon=102, seed=2, burn_in=100)
    emp = empirical_model(traj)
    rep = compare_models(emp, consistent_model(ex1_spec, sigma_star(ex1_spec)))
    assert all(np.all(np.isfinite(f)) for f in emp.freq)
    assert 0 < rep.n_defined <= 8
    assert np.isfinite(rep.max_abs_gap)


def test_example_frequencies_match_exact_model(ex1_spec):
    sigma = sigma_star(ex1_spec)
    exact = consistent_model(ex1_spec, sigma)
    traj = simulate(ex1_spec, sigma, horizon=20000, seed=3, burn_in=1000)
    emp = empirical_model(traj)
    rep = compare_models(emp, exact)
    assert rep.n_defined == 16
    assert rep.max_abs_z < 4.0
    for f, se, d, m in zip(emp.freq, emp.stderr, emp.defined, exact.mu):
        gap = np.abs(f - m)[d]
        assert np.all(gap <= 3 * se[d] + 1e-12)
    # the long-run frequencies round to the two-decimal table checked elsewhere
    rounded = {0: (0.67, 0.54), 1: (0.64, 0.55)}
    for i, (top, bottom) in rounded.items():
        assert np.all(np.abs(exact.mu[i][0, :, 0] - top) <= 0.005)
        assert np.all(np.abs(exact.mu[i][1, :, 0] - bottom) <= 0.005)


def test_longer_runs_track_the_exact_model_more_closely(ex1_spec):
    sigma = sigma_star(ex1_spec)
    exact = consistent_model(ex1_spec, sigma)
    short, long_ = [], []
    for seed in range(10):
        t1 = simulate(ex1_spec, sigma, horizon=1000, seed=seed, burn_in=100)
        t2 = simulate(ex1_spec, sigma, horizon=40000, seed=seed, burn_in=100)
        short.append(compare_models(empirical_model(t1), exact).max_abs_gap)
        long_.append(compare_models(empirical_model(t2), exact).max_abs_gap)
    assert np.mean(long_) < np.mean(short)
