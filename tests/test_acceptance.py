"""Ten acceptance checks: dynamics, certificates, and Monte Carlo agreement.

Each test prints one PASS or FAIL line (visible under pytest -s); a FAIL
line names the specific checks that missed.
"""

import time

import numpy as np

from eee import (
    AgentSpec,
    GameSpec,
    PolicyRule,
    compare_models,
    consistent_model,
    contraction_factor,
    coupling_value,
    empirical_model,
    max_metric_q,
    max_metric_strategy,
    meyer_condition_number,
    model_perturbation_bound,
    q_stability_bound,
    q_value_iteration,
    simulate,
    solve_q_fixed_point,
    stationary_distribution,
    uniform_strategy,
    validate_spec,
    verify_approx_eee,
    with_temperatures,
)
from eee.coupling_bounds import row_sum_norm

from conftest import diagnostics_at, random_game, random_strategy, row_stochastic, sigma_star

ROUNDED_MODEL = {0: ((0.67, 0.33), (0.54, 0.46)), 1: ((0.64, 0.36), (0.55, 0.45))}


def _report(label: str, checks: dict) -> None:
    failed = [k for k, v in checks.items() if not v]
    status = "PASS" if not failed else "FAIL (" + ", ".join(failed) + ")"
    print(f"{label}: {status}")
    assert not failed, f"{label} failed: {failed}"


def _shift_row_mass(mu_arrays, eps):
    """Move eps mass from each row's largest entry to its smallest."""
    out = []
    for m in mu_arrays:
        mm = np.array(m, copy=True)
        n_s = mm.shape[-1]
        flat = mm.reshape(-1, n_s)
        for row in flat:
            hi = int(np.argmax(row))
            lo = int(np.argmin(row))
            if hi == lo:
                lo = (hi + 1) % n_s
            row[hi] -= eps
            row[lo] += eps
        out.append(flat.reshape(mm.shape))
    return out


def _low_coupling_contraction_game():
    """Single agent, tiny kernel coupling, very flat softmax: certified rho < 1."""
    c = 0.01
    env_u = np.array([[0.6, 0.4], [0.3, 0.7]])
    env = np.stack([
        (1 - c) * env_u + c * np.array([[0.2, 0.8], [0.9, 0.1]]),
        (1 - c) * env_u + c * np.array([[0.95, 0.05], [0.1, 0.9]]),
    ])
    local_u = np.array([[0.7, 0.3], [0.4, 0.6], [0.55, 0.45], [0.25, 0.75]])
    local = np.stack([
        (1 - c) * local_u + c * np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]]),
        (1 - c) * local_u + c * np.array([[0.9, 0.1], [0.2, 0.8], [0.75, 0.25], [0.05, 0.95]]),
    ])
    agent = AgentSpec(
        n_states=2, n_actions=2, n_signals=2, n_memory=1,
        signal_kernel=np.array([[0.85, 0.15], [0.2, 0.8]]),
        local_kernels=local,
        memory_rule=np.zeros((1, 2), dtype=int),
        reward=np.array([[[0.9, -0.4], [-0.2, 0.6]], [[0.3, -0.8], [0.7, 0.1]]]),
        discount=0.5,
        temperature=400.0,
        uncoupled_local=local_u,
    )
    return GameSpec(n_env=2, env_kernels=env, agents=(agent,), uncoupled_env=env_u)


def test_criterion_01_greedy_run_converges_to_the_known_strategy(ex1_spec):
    start = time.perf_counter()
    trace, report = q_value_iteration(ex1_spec, PolicyRule("greedy"), tol=1e-9)
    elapsed = time.perf_counter() - start
    actions = trace.final_sigma.actions() if trace.final_sigma else None
    _report("criterion 01 greedy convergence", {
        "converged": report.outcome == "converged",
        "residual below 1e-9": report.residual < 1e-9,
        "agent 1 plays action 2 everywhere": actions is not None and bool(np.all(actions[0] == 1)),
        "agent 2 plays action 1 everywhere": actions is not None and bool(np.all(actions[1] == 0)),
        "under 5s": elapsed < 5.0,
    })


def test_criterion_02_converged_model_matches_known_frequencies(ex1_greedy_run):
    trace, _ = ex1_greedy_run
    mu = trace.final_mu
    checks = {}
    for i, per_memory in ROUNDED_MODEL.items():
        for z, expected in enumerate(per_memory):
            for x in range(2):
                gap = float(np.max(np.abs(mu.mu[i][z, x] - np.array(expected))))
                checks[f"agent {i + 1} (z={z + 1}, x={x + 1})"] = gap <= 0.01
    _report("criterion 02 converged model rows", checks)


def test_criterion_03_full_coupling_breaks_both_policies(ex1_family):
    spec = ex1_family.at(1.0)
    _, greedy = q_value_iteration(spec, PolicyRule("greedy"), tol=1e-9, max_iter=200)
    _, soft = q_value_iteration(with_temperatures(spec, 1.0), PolicyRule("softmax"), tol=1e-9, max_iter=200)
    _report("criterion 03 full coupling failure modes", {
        "greedy cycles": greedy.outcome == "cycle",
        "greedy period at least 2": (greedy.period or 0) >= 2,
        "agent 2 takes part": 2 in greedy.cycling_agents,
        "softmax does not converge": soft.outcome != "converged",
    })


def test_criterion_04_softmax_fixed_point_verifies(ex1_spec):
    spec = with_temperatures(ex1_spec, 1.0)
    trace, report = q_value_iteration(spec, PolicyRule("softmax"), tol=1e-9)
    check = verify_approx_eee(spec, trace.final_sigma, trace.final_mu, tol=1e-6)
    _report("criterion 04 softmax equilibrium verification", {
        "converged": report.outcome == "converged",
        "optimality residual below 1e-6": check.optimality_residual < 1e-6,
        "consistency residual below 1e-6": check.consistency_residual < 1e-6,
    })


def test_criterion_05_value_gap_bound_under_model_perturbation():
    start = time.perf_counter()
    checks = {}
    for seed in range(25):
        spec = random_game(seed)
        rng = np.random.default_rng(seed + 1000)
        mu = consistent_model(spec, random_strategy(rng, spec))
        q = solve_q_fixed_point(spec, mu)
        for eps in (0.005, 0.01, 0.02):
            shifted = _shift_row_mass(mu.mu, eps)
            achieved = max(float(np.max(np.abs(a - b))) for a, b in zip(mu.mu, shifted))
            assert abs(achieved - eps) < 1e-12
            q_shifted = solve_q_fixed_point(spec, shifted)
            bound = q_stability_bound(spec, achieved)
            gap = [float(np.max(np.abs(a - b))) for a, b in zip(q.tables, q_shifted.tables)]
            checks[f"game {seed} eps {eps}"] = all(g <= b for g, b in zip(gap, bound))
    checks["under 60s"] = time.perf_counter() - start < 60.0
    _report("criterion 05 value stability bound", checks)


def test_criterion_06_model_gap_bound_under_strategy_changes():
    checks = {}
    for seed in range(50):
        spec = random_game(seed)
        rng = np.random.default_rng(seed + 2000)
        sigma = random_strategy(rng, spec)
        sigma_bar = random_strategy(rng, spec)
        diagnostics = diagnostics_at(spec, sigma)
        bound = model_perturbation_bound(
            spec, diagnostics, max_metric_strategy(sigma, sigma_bar)
        )
        mu = consistent_model(spec, sigma)
        mu_bar = consistent_model(spec, sigma_bar)
        gap = [float(np.max(np.abs(a - b))) for a, b in zip(mu.mu, mu_bar.mu)]
        checks[f"game {seed}"] = all(g <= b for g, b in zip(gap, bound))
    _report("criterion 06 model perturbation bound", checks)


def test_criterion_07_stationary_sensitivity_bound():
    checks = {}
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 9))
        t_mat = row_stochastic(rng, (n, n))
        shift = float(rng.uniform(0.0, 0.005))
        t_bar = np.array(t_mat, copy=True)
        for row in t_bar:
            hi, lo = int(np.argmax(row)), int(np.argmin(row))
            if hi == lo:
                lo = (hi + 1) % n
            row[hi] -= shift
            row[lo] += shift
        gap_norm = row_sum_norm(t_mat - t_bar)
        kappa = meyer_condition_number(t_mat)
        pi = stationary_distribution(t_mat).pi
        pi_bar = stationary_distribution(t_bar).pi
        gap = float(np.max(np.abs(pi - pi_bar)))
        checks[f"chain {trial} (n={n})"] = gap <= kappa * gap_norm + 1e-15
    _report("criterion 07 stationary sensitivity", checks)


def test_criterion_08_certified_contraction_rate():
    spec = _low_coupling_contraction_game()
    rho = contraction_factor(
        spec, diagnostics_at(spec, uniform_strategy(spec)), coupling_value(spec)
    )
    ref_trace, ref_report = q_value_iteration(spec, PolicyRule("softmax"), tol=1e-12, max_iter=10**5)
    q_fixed = ref_trace.final_q
    trace, report = q_value_iteration(spec, PolicyRule("softmax"), tol=1e-8)
    distances = [max_metric_q(step.q, q_fixed) for step in trace.steps]
    distances.append(max_metric_q(trace.final_q, q_fixed))
    steps_contract = all(
        after <= rho * before for before, after in zip(distances, distances[1:]) if before > 0
    )
    _report("criterion 08 certified contraction", {
        "game is valid": validate_spec(spec).ok,
        "rho below 1": rho < 1.0,
        "reference run converged": ref_report.outcome == "converged",
        "asserted run converged": report.outcome == "converged",
        "every recorded step contracts at rho": steps_contract,
    })


def test_criterion_09_zero_coupling_geometric_convergence(ex1_family):
    spec = ex1_family.at(0.0)
    full_trace, full_report = q_value_iteration(spec, PolicyRule("greedy"), tol=1e-9)
    mu0 = full_trace.steps[0].mu
    drift = max(
        float(np.max(np.abs(step.mu.mu[i] - mu0.mu[i])))
        for step in full_trace.steps
        for i in range(2)
    )

    coarse_trace, _ = q_value_iteration(spec, PolicyRule("greedy"), tol=2e-2)
    q_star = solve_q_fixed_point(spec, mu0)
    checks = {
        "converged": full_report.outcome == "converged",
        "model constant to 1e-12": drift <= 1e-12,
    }
    for i in range(2):
        distances = [
            float(np.max(np.abs(step.q.tables[i] - q_star.tables[i])))
            for step in coarse_trace.steps
        ]
        distances.append(float(np.max(np.abs(coarse_trace.final_q.tables[i] - q_star.tables[i]))))
        ratios = [b / a for a, b in zip(distances, distances[1:]) if a > 0]
        checks[f"agent {i + 1} ratio at most 0.7"] = max(ratios) <= 0.7 + 1e-9
    _report("criterion 09 zero coupling geometry", checks)


def test_criterion_10_monte_carlo_agrees_with_exact_model(ex1_spec):
    sigma = sigma_star(ex1_spec)
    start = time.perf_counter()
    traj = simulate(ex1_spec, sigma, horizon=10**6, seed=7, burn_in=1000)
    elapsed = time.perf_counter() - start
    report = compare_models(empirical_model(traj), consistent_model(ex1_spec, sigma))
    _report("criterion 10 Monte Carlo agreement", {
        "every cell observed": report.n_defined == 16,
        "max |z| at most 4": report.max_abs_z <= 4.0,
        "under 30s": elapsed < 30.0,
    })
