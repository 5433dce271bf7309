"""Coupling measurements and closed-form stability certificates.

All norms on kernels are the row-sum norm (max over rows of the l1 row
norm). The coupling value lambda measures how far the action-dependent
kernels sit from an action-independent reference; the bound formulas turn
lambda and the chain diagnostics into checkable certificates: a limit on the
Q gap under model perturbations, a limit on the consistent-model gap under
strategy perturbations, a contraction factor for the softmax dynamics, and a
sufficient margin condition for greedy convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .chain_analysis import ChainDiagnostics
from .game_model import GameSpec, SpecError


def row_sum_norm(a) -> float:
    """Max over rows of the sum of absolute entries."""
    mat = np.atleast_2d(np.asarray(a, dtype=float))
    return float(np.max(np.sum(np.abs(mat), axis=-1)))


@dataclass(frozen=True)
class CouplingReport:
    eps_phi: float
    eps_varphi: tuple[float, ...]
    lam: float
    reference_source: str  # supplied | fallback


def with_references(spec: GameSpec, allow_fallback: bool = False) -> tuple[GameSpec, str]:
    """The spec with every uncoupled reference kernel present, and their source.

    A spec with all references supplied comes back as is, from "supplied". A
    missing reference raises SpecError unless allow_fallback is set; then the
    action average of the coupled kernels stands in for each missing one.
    """
    missing = ["uncoupled environment kernel"] * (spec.uncoupled_env is None) + [
        f"agent {i + 1} uncoupled local kernel"
        for i, ag in enumerate(spec.agents)
        if ag.uncoupled_local is None
    ]
    if not missing:
        return spec, "supplied"
    if not allow_fallback:
        raise SpecError(f"{missing[0]} missing; enable the fallback to use the action average")
    env_u = spec.env_kernels.mean(axis=0) if spec.uncoupled_env is None else spec.uncoupled_env
    agents = tuple(
        replace(ag, uncoupled_local=ag.local_kernels.mean(axis=0)) if ag.uncoupled_local is None else ag
        for ag in spec.agents
    )
    return replace(spec, agents=agents, uncoupled_env=env_u), "fallback"


def coupling_value(spec: GameSpec, allow_fallback: bool = False) -> CouplingReport:
    """Distance of the game's kernels from an action-independent reference.

    eps_phi is the worst row-sum-norm gap between any environment kernel and
    the reference; eps_varphi is the per-agent analogue for the local
    kernels. lambda adds eps_phi to n_agents times the largest eps_varphi.
    Without supplied uncoupled kernels the action average serves as the
    reference when allow_fallback is set; the report discloses which was used.
    """
    ref, source = with_references(spec, allow_fallback)
    eps_phi = max(
        row_sum_norm(spec.env_kernels[k] - ref.uncoupled_env) for k in range(spec.n_joint_actions)
    )
    eps_varphi = [
        max(row_sum_norm(ag.local_kernels[a] - r.uncoupled_local) for a in range(ag.n_actions))
        for ag, r in zip(spec.agents, ref.agents)
    ]
    lam = eps_phi + spec.n_agents * max(eps_varphi)
    return CouplingReport(
        eps_phi=float(eps_phi),
        eps_varphi=tuple(float(e) for e in eps_varphi),
        lam=float(lam),
        reference_source=source,
    )


def _per_agent(values, n: int, what: str) -> tuple[float, ...]:
    if np.isscalar(values):
        return (float(values),) * n
    vals = tuple(float(v) for v in values)
    if len(vals) != n:
        raise SpecError(f"expected {n} {what} values, got {len(vals)}")
    return vals


def q_stability_bound(spec: GameSpec, eps_mu) -> tuple[float, ...]:
    """Limiting Q gap when two iterations differ only in their models.

    Per agent: eps_mu * n_signals * reward_ceiling / (1 - discount)^2. Holds
    for any pair of runs whose per-iteration models stay within eps_mu in max
    norm and that share the initial Q.
    """
    eps = _per_agent(eps_mu, spec.n_agents, "eps_mu")
    if any(e < 0 for e in eps):
        raise SpecError("eps_mu must be nonnegative")
    return tuple(
        e * ag.n_signals * ag.reward_ceiling / (1.0 - ag.discount) ** 2
        for e, ag in zip(eps, spec.agents)
    )


def _others_product(spec: GameSpec, i: int, attr: str) -> int:
    return math.prod(getattr(ag, attr) for j, ag in enumerate(spec.agents) if j != i)


def perturbation_coefficient(spec: GameSpec, diagnostics: ChainDiagnostics) -> tuple[float, ...]:
    """Per agent: (1 + p_max) kappa |W| |Z_others| |X_others| A_total / m_i.

    The shared prefactor of the model-gap, margin, and contraction formulas;
    multiplied by a strategy distance and lambda it bounds the consistent
    model shift.
    """
    a_total = sum(ag.n_actions for ag in spec.agents)
    out = []
    for i, ag in enumerate(spec.agents):
        m_i = diagnostics.minimal_mass[i]
        if m_i <= 0:
            raise SpecError(f"agent {i + 1} minimal stationary mass is not positive")
        z_others = _others_product(spec, i, "n_memory")
        x_others = _others_product(spec, i, "n_states")
        out.append(
            (1.0 + diagnostics.signal_ceiling[i])
            * diagnostics.kappa
            * spec.n_env
            * z_others
            * x_others
            * a_total
            / m_i
        )
    return tuple(out)


def model_perturbation_bound(
    spec: GameSpec,
    diagnostics: ChainDiagnostics,
    sigma_distance: float,
    coupling: CouplingReport | None = None,
) -> tuple[float, ...]:
    """Max-norm bound on the consistent-model gap between two strategy profiles.

    sigma_distance is the max-metric between the profiles (at most 1 for
    probability vectors). The bound is the perturbation coefficient times
    sigma_distance times lambda, per agent.
    """
    if sigma_distance < 0:
        raise SpecError("sigma_distance must be nonnegative")
    if coupling is None:
        coupling = coupling_value(spec)
    coef = perturbation_coefficient(spec, diagnostics)
    return tuple(c * sigma_distance * coupling.lam for c in coef)


def contraction_factor(
    spec: GameSpec, diagnostics: ChainDiagnostics, coupling: CouplingReport
) -> float:
    """Lipschitz factor of one full softmax iteration in the max norm.

    rho = max_i [coef_i n_signals_i G_i / (1 - delta_i)] times
    max_i [sqrt(n_actions_i) / tau_i] times lambda, plus max_i delta_i.
    A value below 1 certifies geometric convergence to the unique fixed point.
    """
    coef = perturbation_coefficient(spec, diagnostics)
    model_term = max(
        c * ag.n_signals * ag.reward_ceiling / (1.0 - ag.discount)
        for c, ag in zip(coef, spec.agents)
    )
    policy_term = max(math.sqrt(ag.n_actions) / ag.temperature for ag in spec.agents)
    return float(model_term * policy_term * coupling.lam + max(ag.discount for ag in spec.agents))


def margin_condition(
    spec: GameSpec,
    diagnostics: ChainDiagnostics,
    coupling: CouplingReport,
    xi: Sequence[float],
) -> tuple[bool, ...]:
    """Sufficient condition for the greedy policy to lock in near a fixed point.

    Per agent, requires the value-stability bound at strategy distance 1,
    coef_i lambda n_signals_i G_i / (1 - delta_i)^2, to be strictly below
    xi_i / 2 (the strategy distance is bounded above by 1). Nonpositive
    margins fail the condition outright.
    """
    xis = _per_agent(xi, spec.n_agents, "margin")
    lhs = q_stability_bound(spec, model_perturbation_bound(spec, diagnostics, 1.0, coupling))
    return tuple(x > 0 and side < x / 2 for side, x in zip(lhs, xis))


@dataclass(frozen=True)
class TheoremBounds:
    """Certificate bundle: every bound plus the inputs that produced it.

    model_gap_bound is the consistent-model bound at strategy distance 1;
    value_stability_bound feeds that gap through the Q-stability formula,
    and margin_lhs, the left side of the margin condition, is that same
    bound; rho is the softmax contraction factor with its certificate flag;
    margin_condition_holds is present when margins were supplied.
    """

    model_gap_bound: tuple[float, ...]
    value_stability_bound: tuple[float, ...]
    rho: float
    rho_certified: bool
    margin_condition_holds: tuple[bool, ...] | None
    margin_lhs: tuple[float, ...]
    inputs: dict


def compute_bounds(
    spec: GameSpec,
    diagnostics: ChainDiagnostics,
    coupling: CouplingReport,
    xi: Sequence[float] | None = None,
) -> TheoremBounds:
    model_gap = model_perturbation_bound(spec, diagnostics, 1.0, coupling=coupling)
    value_stab = q_stability_bound(spec, model_gap)
    rho = contraction_factor(spec, diagnostics, coupling)
    holds = None if xi is None else margin_condition(spec, diagnostics, coupling, xi)
    inputs = {
        "kappa": diagnostics.kappa,
        "minimal_mass": list(diagnostics.minimal_mass),
        "signal_ceiling": list(diagnostics.signal_ceiling),
        "reward_ceiling": [ag.reward_ceiling for ag in spec.agents],
        "total_actions": sum(ag.n_actions for ag in spec.agents),
        "n_env": spec.n_env,
        "n_memory": [ag.n_memory for ag in spec.agents],
        "n_states": [ag.n_states for ag in spec.agents],
        "n_signals": [ag.n_signals for ag in spec.agents],
        "discount": [ag.discount for ag in spec.agents],
        "temperature": [ag.temperature for ag in spec.agents],
        "eps_phi": coupling.eps_phi,
        "eps_varphi": list(coupling.eps_varphi),
        "lambda": coupling.lam,
        "reference_source": coupling.reference_source,
        "xi": None if xi is None else [float(x) for x in xi],
    }
    return TheoremBounds(
        model_gap_bound=model_gap,
        value_stability_bound=value_stab,
        rho=rho,
        rho_certified=rho < 1.0,
        margin_condition_holds=holds,
        margin_lhs=value_stab,
        inputs=inputs,
    )
