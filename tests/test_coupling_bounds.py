"""Coupling measurement and the closed-form stability certificates."""

import dataclasses
import math

import numpy as np
import pytest

from eee.chain_analysis import uniform_strategy
from eee.coupling_bounds import (
    CouplingReport,
    compute_bounds,
    contraction_factor,
    coupling_value,
    margin_condition,
    model_perturbation_bound,
    perturbation_coefficient,
    q_stability_bound,
    row_sum_norm,
    with_references,
)
from eee.game_model import GameSpec, SpecError

from conftest import diagnostics_at


@pytest.fixture(scope="module")
def ex1_diag(ex1_spec, ex1_greedy_run):
    trace, _ = ex1_greedy_run
    return diagnostics_at(ex1_spec, trace.final_sigma)


def test_row_sum_norm_matches_double_loop():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=rng.integers(1, 6, size=2))
        best = max(sum(abs(v) for v in row) for row in a)
        assert row_sum_norm(a) == pytest.approx(best, rel=1e-15)


def test_row_sum_norm_accepts_vectors():
    assert row_sum_norm([1.0, -2.0, 0.5]) == 3.5


def test_uncoupled_game_has_zero_coupling(ex1_family):
    c = coupling_value(ex1_family.at(0.0))
    assert c.eps_phi == 0.0
    assert c.eps_varphi == (0.0, 0.0)
    assert c.lam == 0.0
    assert c.reference_source == "supplied"


def test_coupling_matches_exhaustive_scan(ex1_family):
    spec = ex1_family.at(1.0)
    c = coupling_value(spec)
    eps_phi = max(
        sum(abs(spec.env_kernels[k, w, v] - spec.uncoupled_env[w, v]) for v in range(spec.n_env))
        for k in range(spec.n_joint_actions)
        for w in range(spec.n_env)
    )
    assert c.eps_phi == pytest.approx(eps_phi, rel=1e-14)
    for i, ag in enumerate(spec.agents):
        rows = ag.n_states * ag.n_signals
        eps = max(
            sum(abs(ag.local_kernels[a, r, x] - ag.uncoupled_local[r, x]) for x in range(ag.n_states))
            for a in range(ag.n_actions)
            for r in range(rows)
        )
        assert c.eps_varphi[i] == pytest.approx(eps, rel=1e-14)
    assert c.lam == pytest.approx(c.eps_phi + 2 * max(c.eps_varphi), rel=1e-14)


def test_coupling_row_reaches_one(ex1_family):
    # second env row under the first joint action drifts a full unit of mass
    gap = abs(0.11 - 0.06) + abs(0.06 - 0.42) + abs(0.19 - 0.33) + abs(0.64 - 0.19)
    assert gap == pytest.approx(1.0, abs=1e-12)
    assert coupling_value(ex1_family.at(1.0)).eps_phi >= gap - 1e-12


def test_coupling_scales_linearly_with_blend_weight(ex1_family):
    full = coupling_value(ex1_family.at(1.0))
    for alpha in (0.3, 0.5, 0.9):
        c = coupling_value(ex1_family.at(alpha))
        assert c.lam == pytest.approx(alpha * full.lam, rel=1e-12)
        assert c.eps_phi == pytest.approx(alpha * full.eps_phi, rel=1e-12)


def test_missing_references_raise_or_fall_back(ex1_spec):
    stripped = GameSpec(
        n_env=ex1_spec.n_env,
        env_kernels=ex1_spec.env_kernels,
        agents=tuple(dataclasses.replace(a, uncoupled_local=None) for a in ex1_spec.agents),
        uncoupled_env=None,
    )
    with pytest.raises(SpecError, match="uncoupled environment kernel missing"):
        coupling_value(stripped)
    c = coupling_value(stripped, allow_fallback=True)
    assert c.reference_source == "fallback"
    assert c.lam > 0

    agent_only = GameSpec(
        n_env=ex1_spec.n_env,
        env_kernels=ex1_spec.env_kernels,
        agents=(dataclasses.replace(ex1_spec.agents[0], uncoupled_local=None), ex1_spec.agents[1]),
        uncoupled_env=ex1_spec.uncoupled_env,
    )
    with pytest.raises(SpecError, match="agent 1 uncoupled local kernel"):
        coupling_value(agent_only)


def test_fallback_fills_only_the_missing_references(ex1_spec):
    ref, source = with_references(ex1_spec)
    assert ref is ex1_spec and source == "supplied"
    partial = dataclasses.replace(
        ex1_spec, agents=(ex1_spec.agents[0], dataclasses.replace(ex1_spec.agents[1], uncoupled_local=None))
    )
    with pytest.raises(SpecError, match="agent 2 uncoupled local kernel missing"):
        with_references(partial)
    filled, source = with_references(partial, allow_fallback=True)
    assert source == "fallback"
    assert np.array_equal(filled.uncoupled_env, ex1_spec.uncoupled_env)
    assert filled.agents[0] is ex1_spec.agents[0]
    assert np.array_equal(filled.agents[1].uncoupled_local, ex1_spec.agents[1].local_kernels.mean(axis=0))


def test_q_stability_hand_values(ex1_spec):
    assert q_stability_bound(ex1_spec, 0.0) == (0.0, 0.0)
    got = q_stability_bound(ex1_spec, 0.01)
    assert got[0] == pytest.approx(0.01 * 2 * 50.0 / 0.09, rel=1e-12)
    assert got[1] == pytest.approx(0.01 * 2 * 100.0 / 0.09, rel=1e-12)
    # grows linearly in the model gap
    assert q_stability_bound(ex1_spec, 0.02)[0] == pytest.approx(2 * got[0], rel=1e-12)


def test_q_stability_rejects_bad_eps(ex1_spec):
    with pytest.raises(SpecError, match="nonnegative"):
        q_stability_bound(ex1_spec, -0.01)
    with pytest.raises(SpecError, match="expected 2"):
        q_stability_bound(ex1_spec, (0.01, 0.01, 0.01))


def test_perturbation_coefficient_needs_positive_mass(ex1_spec, ex1_diag):
    starved = dataclasses.replace(ex1_diag, minimal_mass=(ex1_diag.minimal_mass[0], 0.0))
    with pytest.raises(SpecError, match="agent 2 minimal stationary mass is not positive"):
        model_perturbation_bound(ex1_spec, starved, 1.0)


def test_model_bound_vanishes_without_coupling(ex1_family):
    spec = ex1_family.at(0.0)
    diag = diagnostics_at(spec, uniform_strategy(spec))
    assert model_perturbation_bound(spec, diag, 1.0) == (0.0, 0.0)


def test_model_bound_linear_in_strategy_distance(ex1_spec, ex1_diag):
    c = coupling_value(ex1_spec)
    half = model_perturbation_bound(ex1_spec, ex1_diag, 0.5, coupling=c)
    full = model_perturbation_bound(ex1_spec, ex1_diag, 1.0, coupling=c)
    for h, f in zip(half, full):
        assert h == pytest.approx(f / 2, rel=1e-12)
    assert model_perturbation_bound(ex1_spec, ex1_diag, 0.0, coupling=c) == (0.0, 0.0)
    with pytest.raises(SpecError, match="nonnegative"):
        model_perturbation_bound(ex1_spec, ex1_diag, -1.0, coupling=c)


def test_model_bound_is_coefficient_times_lambda(ex1_spec, ex1_diag):
    c = coupling_value(ex1_spec)
    coef = perturbation_coefficient(ex1_spec, ex1_diag)
    got = model_perturbation_bound(ex1_spec, ex1_diag, 0.7, coupling=c)
    for g, k in zip(got, coef):
        assert g == pytest.approx(k * 0.7 * c.lam, rel=1e-12)
    assert all(k > 0 for k in coef)


def test_contraction_reduces_to_discount_without_coupling(ex1_family):
    spec = ex1_family.at(0.0)
    diag = diagnostics_at(spec, uniform_strategy(spec))
    rho = contraction_factor(spec, diag, coupling_value(spec))
    assert rho == pytest.approx(0.7, abs=1e-15)


def test_contraction_monotone_in_lambda(ex1_spec, ex1_diag):
    rhos = [
        contraction_factor(
            ex1_spec, ex1_diag, CouplingReport(eps_phi=0.0, eps_varphi=(0.0, 0.0), lam=lam, reference_source="supplied")
        )
        for lam in (0.0, 0.1, 0.5, 1.0)
    ]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))
    assert rhos[0] == pytest.approx(0.7, abs=1e-15)


def test_margin_condition_hand_cases(ex1_family):
    spec = ex1_family.at(0.0)
    diag = diagnostics_at(spec, uniform_strategy(spec))
    c = coupling_value(spec)
    assert margin_condition(spec, diag, c, (1.0, 1.0)) == (True, True)
    assert margin_condition(spec, diag, c, 0.0) == (False, False)
    assert compute_bounds(spec, diag, c).margin_lhs == (0.0, 0.0)


def test_margin_condition_fails_under_strong_coupling(ex1_spec, ex1_diag):
    c = coupling_value(ex1_spec)
    lhs = compute_bounds(ex1_spec, ex1_diag, c).margin_lhs
    assert all(v > 100 for v in lhs)  # far beyond any achievable margin here
    assert margin_condition(ex1_spec, ex1_diag, c, (1.0, 1.0)) == (False, False)


def test_compute_bounds_bundle(ex1_spec, ex1_diag):
    c = coupling_value(ex1_spec)
    b = compute_bounds(ex1_spec, ex1_diag, c, xi=(0.5, 0.5))
    assert b.rho_certified == (b.rho < 1.0)
    assert all(v >= 0 for v in b.model_gap_bound)
    assert all(v >= 0 for v in b.value_stability_bound)
    assert b.margin_condition_holds == (False, False)
    assert b.inputs["lambda"] == c.lam
    assert b.inputs["kappa"] == ex1_diag.kappa
    assert b.inputs["xi"] == [0.5, 0.5]
    for key in ("minimal_mass", "signal_ceiling", "reward_ceiling", "discount", "temperature"):
        assert key in b.inputs
    plain = compute_bounds(ex1_spec, ex1_diag, c)
    assert plain.margin_condition_holds is None
    assert plain.inputs["xi"] is None
    assert math.isfinite(plain.rho)
