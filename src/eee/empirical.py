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
environment state) in lexicographic C order. The rows of the states sharing
(w, z) are built as one block on the first visit to any of them, and each
row's cumulative sums are divided by their last entry. A step takes the first
entry of that normalized row above its uniform, by bisect_right, which is
np.searchsorted(side="right") on the same doubles: the stream is unchanged.
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


def _outcome_block(spec: GameSpec, probs, wz: tuple[int, ...], out: np.ndarray) -> None:
    """Write into out, C-contiguous (prod |X_i|, n_outcomes), the outcome rows of
    the joint states (w, z, x) for every x in C order, in outcome order.

    The environment row for w is broadcast over the x axes, then multiplied in
    place by one factor per agent, h_i[x_i, a_i, s_i, x'_i] = (sigma_i[z_i, x_i, a_i]
    * M_i[w, s_i]) * L_i[a_i, x_i, s_i, x'_i], on the agent's x, a, s and x' axes.
    """
    n, w, zs, ndim = spec.n_agents, wz[0], wz[1:], 4 * spec.n_agents + 1
    x_dims = tuple(ag.n_states for ag in spec.agents)
    blk = out.reshape(*x_dims, *spec.action_dims, *(ag.n_signals for ag in spec.agents), *x_dims, spec.n_env)
    env = spec.env_kernels[:, w, :].reshape(*spec.action_dims, spec.n_env)
    np.copyto(blk, place_factor(env, ndim, (*range(n, 2 * n), ndim - 1)))
    for i, ag in enumerate(spec.agents):
        h = probs[i][zs[i], :, :, None, None] * ag.signal_kernel[w, None, None, :, None]
        h = h * ag.local_kernels_4d.transpose(1, 0, 2, 3)
        np.multiply(blk, place_factor(h, ndim, (i, n + i, 2 * n + i, 3 * n + i)), out=blk)


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
    order decodes them. The rows of the states sharing (w, z) are built as one block
    on the first visit to any of them. Each step is one bisect_right over its state's
    normalized cumulative row, as searchsorted(side="right"); the stream is unchanged.
    """
    require_valid(spec)
    require_agent_cap(spec)
    require_window(horizon, burn_in)
    probs = strategy_arrays(sigma, spec)
    state_dims, n = spec.indexer().state_dims, spec.n_agents
    # x is fastest in the joint index: the n_x states sharing (w, z) are block state // n_x
    block_dims = state_dims[: 1 + n]
    n_states, n_z, n_x = math.prod(state_dims), math.prod(block_dims[1:]), math.prod(state_dims[1 + n :])
    # outcomes: joint action (slowest), then the tail of signals, next local states and
    # next environment; the next state depends on z and the tail alone: nxt_rows[z, o % n_tail]
    sig_dims = tuple(ag.n_signals for ag in spec.agents)
    tail_dims = (*sig_dims, *(ag.n_states for ag in spec.agents), spec.n_env)
    n_sig, n_tail, ndim = math.prod(sig_dims), math.prod(tail_dims), n + len(tail_dims)
    n_out = spec.n_joint_actions * n_tail
    require_bytes(8 * n_states * n_out + 8 * n_z * n_tail,
                  f"the simulator's outcome rows for {n_states} joint states")
    # filled at once, as it is at most 1/(W n_x |A|) of the rows' bytes. On axes (z, tail): w'
    # from the outcome, memory_rule_i[z_i, s_i] on agent i's memory and signal axes, x'_i on
    # its next-local axis
    parts = [
        place_factor(np.arange(spec.n_env), ndim, (ndim - 1,)),
        *(place_factor(ag.memory_rule, ndim, (i, n + i)) for i, ag in enumerate(spec.agents)),
        *(place_factor(np.arange(ag.n_states), ndim, (2 * n + i,)) for i, ag in enumerate(spec.agents)),
    ]
    nxt_rows = np.ravel_multi_index(parts, state_dims)

    rng = np.random.default_rng(seed)
    state = int(rng.integers(n_states))
    u = rng.random(horizon)
    states = np.empty(horizon, dtype=np.int64)
    outcomes = np.empty(horizon, dtype=np.int64)

    # blocks filled on their first visit, held in two arrays rather than small arrays per
    # block, which would leave a fragmented heap behind. Each cumulative row is divided by
    # its last entry, so the last outcome of positive probability ends at exactly 1.0 and
    # no uniform in [0, 1) can land on a zero-probability outcome past it. The step loop
    # goes through memoryviews, which skips numpy's per-call dispatch.
    cum_rows = np.empty((n_states, n_out))
    filled, rows = bytearray(n_states // n_x), None  # rows: a view of the block being filled
    with memoryview(cum_rows.reshape(-1)) as cum_mv, memoryview(nxt_rows.reshape(-1)) as nxt_mv, \
            memoryview(u) as u_mv, memoryview(states) as states_mv, memoryview(outcomes) as outcomes_mv:
        for t, u_t in enumerate(u_mv):
            states_mv[t] = state
            b = state // n_x
            z = b % n_z
            if not filled[b]:
                wz, rows = np.unravel_index(b, block_dims), cum_rows[b * n_x : (b + 1) * n_x]
                _outcome_block(spec, probs, wz, rows)
                np.cumsum(rows, axis=1, out=rows)
                rows /= rows[:, -1:].copy()  # dividing by the overlapping view copies the block
                filled[b] = 1
            lo = state * n_out
            o = bisect_right(cum_mv, u_t, lo, lo + n_out) - lo
            outcomes_mv[t] = o
            state = nxt_mv[z * n_tail + o % n_tail]
    # free the rows, the largest arrays here, and the last block's view before counting
    del cum_rows, rows, nxt_rows

    # one count per (joint state, joint signal) of the window; the joint signal leads the
    # outcome's tail, ahead of the n_x next local states and the next environment
    sig = outcomes[burn_in:] % n_tail
    key = states[burn_in:] * n_sig
    key += np.floor_divide(sig, n_x * spec.n_env, out=sig)
    joint = np.bincount(key, minlength=n_states * n_sig).reshape(*state_dims, *sig_dims)
    # agent i's cells (z_i, x_i, s_i) sum the rest
    counts = [joint.sum(axis=tuple(ax for ax in range(joint.ndim) if ax not in (1 + i, 1 + n + i, 1 + 2 * n + i)))
              for i in range(n)]

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
