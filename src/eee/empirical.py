"""Monte Carlo simulation of the true dynamics and empirical signal models.

Simulation is exact sampling of the generative order: draw the joint action
from the product strategy, the signals from the environment state, update
memories through the memory rule, draw next local states and the next
environment state. Signal counts are conditioned on the (z, x) at which the
signal was observed, so empirical frequencies estimate the same conditional
law the exact solver computes.

Reproducibility: the generator is numpy's default_rng (PCG64). The stream is
consumed in a fixed documented order: one integer for the uniform initial
joint state, then one uniform per step; each step is resolved by inverse CDF
over the full outcome row (joint action, signals, next local states, next
environment state) in lexicographic C order. A state's row is built on its
first visit, and its cumulative sums are divided by their last entry. A step
takes the first entry of that normalized row above its uniform, by bisect_right,
which is np.searchsorted(side="right") on the same doubles: the stream is unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .chain_analysis import ConsistentModel, place_factor, require_agent_cap, require_bytes, strategy_arrays
from .game_model import GameSpec, SpecError, require_valid

RNG_ALGORITHM = (
    "numpy default_rng PCG64; one integer draw for the initial joint state, then one "
    "uniform per step resolved by inverse CDF over outcomes ordered "
    "(joint action, signals, next local states, next environment), lexicographic C order"
)


@dataclass(frozen=True)
class Trajectory:
    seed: int
    horizon: int
    burn_in: int
    rng_algorithm: str
    visits: tuple[np.ndarray, ...]         # per agent, (Z, X) ints
    signal_counts: tuple[np.ndarray, ...]  # per agent, (Z, X, S) ints
    states: np.ndarray                     # per step, flat joint state over state_dims
    outcomes: np.ndarray                   # per step, flat outcome index (outcome order)


@dataclass(frozen=True)
class EmpiricalModel:
    """Observed signal frequencies with binomial standard errors.

    Cells with zero visits carry defined=False and zero frequency; no NaN.
    """

    freq: tuple[np.ndarray, ...]
    stderr: tuple[np.ndarray, ...]
    visits: tuple[np.ndarray, ...]
    defined: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ComparisonReport:
    max_abs_gap: float
    max_abs_z: float
    gaps: tuple[np.ndarray, ...]
    z_scores: tuple[np.ndarray, ...]
    defined: tuple[np.ndarray, ...]
    n_defined: int


def _outcome_row(spec: GameSpec, probs, psi: tuple[int, ...]) -> np.ndarray:
    """Outcome probabilities of the joint state psi = (w, z, x), in outcome order.

    The environment row, shaped (A_1..A_n, 1.., W'), is multiplied by one
    broadcast factor per agent, h_i[a_i, s_i, x'_i] = sigma_i[z_i, x_i, a_i]
    * M_i[w, s_i] * L_i[a_i, x_i, s_i, x'_i], placed on the agent's action,
    signal and next-local-state axes.
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


def require_window(horizon: int, burn_in: int) -> None:
    """Reject a counting window other than 0 <= burn_in <= horizon."""
    if burn_in < 0 or horizon < burn_in:
        raise SpecError(f"need horizon >= burn_in >= 0, got horizon={horizon}, burn_in={burn_in}")


def simulate(
    spec: GameSpec, sigma, horizon: int, seed: int, burn_in: int = 1000
) -> Trajectory:
    """Sample the joint chain for `horizon` steps; count signals after burn_in.

    Deterministic given (spec, sigma, horizon, seed, burn_in). The initial
    joint state is uniform. The trajectory keeps each step's flat joint state
    and flat outcome index; np.unravel_index over state_dims and the outcome
    order decodes them. Each step is one bisect_right over the state's normalized
    cumulative row, equivalent to searchsorted(side="right"); the stream is unchanged.
    """
    require_valid(spec)
    require_agent_cap(spec)
    require_window(horizon, burn_in)
    probs = strategy_arrays(sigma, spec)
    indexer = spec.indexer()
    state_dims, n_states = indexer.state_dims, indexer.n_states
    n = spec.n_agents
    # outcomes: joint action (slowest), then the tail of signals, next local states and
    # next environment; the next state depends on the tail alone: nxt_rows[state, o % n_tail]
    tail_dims = (*(ag.n_signals for ag in spec.agents), *(ag.n_states for ag in spec.agents), spec.n_env)
    out_dims = (spec.n_joint_actions, *tail_dims)
    n_tail, ndim = math.prod(tail_dims), len(tail_dims)
    n_out = spec.n_joint_actions * n_tail
    require_bytes(8 * n_states * (n_out + n_tail), f"the simulator's outcome rows for {n_states} joint states")

    def next_row(psi: tuple[int, ...]) -> np.ndarray:
        """Next flat state per outcome tail: w' from the outcome, memory_rule_i[z_i, s_i]
        on each signal axis, x'_i on each next-local axis."""
        parts = [
            place_factor(np.arange(spec.n_env), ndim, (ndim - 1,)),
            *(place_factor(ag.memory_rule[psi[1 + i]], ndim, (i,)) for i, ag in enumerate(spec.agents)),
            *(place_factor(np.arange(ag.n_states), ndim, (n + i,)) for i, ag in enumerate(spec.agents)),
        ]
        return np.broadcast_to(np.ravel_multi_index(parts, state_dims), tail_dims).ravel()

    rng = np.random.default_rng(seed)
    state = int(rng.integers(n_states))
    u = rng.random(horizon)
    states = np.empty(horizon, dtype=np.int64)
    outcomes = np.empty(horizon, dtype=np.int64)

    # rows filled on a state's first visit, held in two arrays rather than two
    # small arrays per state, which would leave a fragmented heap behind. Each
    # cumulative row is divided by its last entry, so the last outcome of
    # positive probability ends at exactly 1.0 and no uniform in [0, 1) can
    # land on a zero-probability outcome past it. The step loop goes through
    # memoryviews, which skips numpy's per-call dispatch.
    cum_rows = np.empty((n_states, n_out))
    nxt_rows = np.empty((n_states, n_tail), dtype=np.int64)
    filled = bytearray(n_states)
    with memoryview(cum_rows.reshape(-1)) as cum_mv, memoryview(nxt_rows.reshape(-1)) as nxt_mv, \
            memoryview(u) as u_mv, memoryview(states) as states_mv, memoryview(outcomes) as outcomes_mv:
        for t, u_t in enumerate(u_mv):
            states_mv[t] = state
            if not filled[state]:
                psi = np.unravel_index(state, state_dims)
                cum = np.cumsum(_outcome_row(spec, probs, psi))
                cum_rows[state] = cum / cum[-1]
                nxt_rows[state] = next_row(psi)
                filled[state] = 1
            lo = state * n_out
            o = bisect_right(cum_mv, u_t, lo, lo + n_out) - lo
            outcomes_mv[t] = o
            state = nxt_mv[state * n_tail + o % n_tail]
    # the rows are the largest arrays here; free them before the window is decoded
    del cum_rows, nxt_rows

    psi_window = np.unravel_index(states[burn_in:], state_dims)
    out_window = np.unravel_index(outcomes[burn_in:], out_dims)
    counts = []
    for i, ag in enumerate(spec.agents):
        cell_dims = (ag.n_memory, ag.n_states, ag.n_signals)
        flat = np.ravel_multi_index((psi_window[1 + i], psi_window[1 + n + i], out_window[1 + i]), cell_dims)
        counts.append(np.bincount(flat, minlength=int(np.prod(cell_dims))).reshape(cell_dims))

    return Trajectory(
        seed=seed,
        horizon=horizon,
        burn_in=burn_in,
        rng_algorithm=RNG_ALGORITHM,
        visits=tuple(c.sum(axis=-1) for c in counts),
        signal_counts=tuple(counts),
        states=states,
        outcomes=outcomes,
    )


def empirical_model(traj: Trajectory) -> EmpiricalModel:
    """Frequencies counts/visits with binomial standard errors; no NaN."""
    freqs, errs, defined = [], [], []
    for v, c in zip(traj.visits, traj.signal_counts):
        ok = v > 0
        safe = np.where(ok, v, 1)
        f = c / safe[..., None]
        f[~ok] = 0.0
        se = np.sqrt(np.clip(f * (1.0 - f), 0.0, None) / safe[..., None])
        se[~ok] = 0.0
        freqs.append(f)
        errs.append(se)
        defined.append(ok)
    return EmpiricalModel(
        freq=tuple(freqs), stderr=tuple(errs), visits=tuple(traj.visits), defined=tuple(defined)
    )


def compare_models(empirical: EmpiricalModel, exact) -> ComparisonReport:
    """Gap and z-score of observed frequencies against an exact model.

    z uses the exact model's binomial standard error sqrt(mu (1 - mu) / n).
    Where that error is zero, the z-score is 0 for a zero gap and infinite
    otherwise. Undefined cells (zero visits) are excluded from the maxima.
    """
    mus = tuple(getattr(exact, "mu", exact))
    if len(mus) != len(empirical.freq) or any(
        m.shape != f.shape for m, f in zip(mus, empirical.freq)
    ):
        raise SpecError("empirical and exact models have mismatched dimensions")
    gaps, zs = [], []
    max_gap = 0.0
    max_z = 0.0
    n_defined = 0
    for f, v, ok, m in zip(empirical.freq, empirical.visits, empirical.defined, mus):
        gap = np.abs(f - m)
        se = np.sqrt(np.clip(m * (1.0 - m), 0.0, None) / np.where(v > 0, v, 1)[..., None])
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(se > 0, gap / se, np.where(gap > 0, np.inf, 0.0))
        gap = np.where(ok[..., None], gap, np.nan)
        z = np.where(ok[..., None], z, np.nan)
        gaps.append(gap)
        zs.append(z)
        if ok.any():
            max_gap = max(max_gap, float(np.nanmax(gap)))
            max_z = max(max_z, float(np.nanmax(z)))
        n_defined += int(ok.sum()) * f.shape[-1]
    return ComparisonReport(
        max_abs_gap=max_gap,
        max_abs_z=max_z,
        gaps=tuple(gaps),
        z_scores=tuple(zs),
        defined=tuple(empirical.defined),
        n_defined=n_defined,
    )
