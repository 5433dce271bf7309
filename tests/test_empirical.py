"""Monte Carlo sampling, empirical frequencies, and exact-model comparison."""

import numpy as np
import pytest

from eee import empirical
from eee.chain_analysis import consistent_model
from eee.empirical import (
    Trajectory,
    compare_models,
    empirical_model,
    simulate,
)
from eee.game_model import AgentSpec, GameSpec, SpecError

from conftest import random_game, random_strategy, sigma_star


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
    assert a.records == b.records
    c = simulate(ex1_spec, sigma, horizon=2000, seed=13, burn_in=100)
    assert any(not np.array_equal(x, y) for x, y in zip(a.signal_counts, c.signal_counts))


def test_per_state_rows_match_the_outcome_table(ex1_spec, monkeypatch):
    # the table path is the reference: both paths invert the same CDF rows
    rng = np.random.default_rng(5)
    cases = [(ex1_spec, sigma_star(ex1_spec))]
    for seed in range(3):
        spec = random_game(seed, n_agents=2 + seed % 2, max_dim=2)
        cases.append((spec, random_strategy(rng, spec)))
    for spec, sigma in cases:
        table = simulate(spec, sigma, horizon=3000, seed=4, burn_in=100)
        monkeypatch.setattr(empirical, "TABLE_ENTRY_LIMIT", 0)
        rows = simulate(spec, sigma, horizon=3000, seed=4, burn_in=100)
        monkeypatch.undo()
        assert rows.records == table.records
        assert all(np.array_equal(a, b) for a, b in zip(rows.signal_counts, table.signal_counts))


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
    assert len(traj.records) == 3000


def test_deterministic_game_follows_the_hand_orbit():
    spec = deterministic_flip_game()
    sigma = [np.ones((2, 2, 1))]
    traj = simulate(spec, sigma, horizon=10, seed=21, burn_in=0)

    rng = np.random.default_rng(21)
    w, z, x = np.unravel_index(int(rng.integers(8)), (2, 2, 2))
    for rec in traj.records:
        assert rec == (w, (z,), (x,), (0,), (w,))
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
        records=None,
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
        records=None,
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
        records=None,
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
        records=None,
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
