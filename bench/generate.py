"""Seeded inputs for the benchmark: games on a fixed ladder of shapes, and strategies.

Shapes are fixed per rung; the seed only varies kernel entries, rewards,
discounts and memory rules. Kernels are strictly positive, memory rules are
recurrent and uncoupled references are supplied, so every joint chain is
ergodic and `--alpha` applies. Game i of a rung depends only on
(seed, rung, i), so a run can draw as many distinct games as it needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from eee.game_model import AgentSpec, GameSpec

COUPLING = 0.2
DISCOUNT_RANGE = (0.2, 0.8)


@dataclass(frozen=True)
class Rung:
    n_env: int
    agents: tuple[tuple[int, int, int, int], ...]  # per agent (Z, X, A, S)

    @property
    def n_states(self) -> int:
        n = self.n_env
        for z, x, _, _ in self.agents:
            n *= z * x
        return n

    @property
    def n_joint_actions(self) -> int:
        return int(np.prod([a for _, _, a, _ in self.agents]))


# n64 is the bundled example1.json; its shape is listed for reference only.
RUNGS = {
    "n64": Rung(4, ((2, 2, 2, 2), (2, 2, 2, 2))),
    "n256": Rung(2, ((2, 2, 2, 2),) * 3 + ((1, 2, 2, 2),)),
    "n648": Rung(3, ((2, 3, 2, 2),) * 3),
    "n1458": Rung(2, ((3, 3, 2, 2),) * 3),
}
RUNG_CODES = {"n256": 1, "n648": 2, "n1458": 3}


def _rng(seed: int, rung: str, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, RUNG_CODES[rung], index, stream])


def _row_stochastic(rng, shape):
    raw = rng.uniform(0.1, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def _blend(rng, ref, copies):
    return np.stack([(1.0 - COUPLING) * ref + COUPLING * _row_stochastic(rng, ref.shape)
                     for _ in range(copies)])


def _memory_rule(rng, n_memory, n_signals):
    """The first signal column cycles through every memory state."""
    rule = rng.integers(0, n_memory, size=(n_memory, n_signals))
    rule[:, 0] = (np.arange(n_memory) + 1) % n_memory
    return rule


def make_game(seed: int, rung: str, index: int) -> GameSpec:
    """Game `index` of a generated rung: coupled kernels plus uncoupled references."""
    shape = RUNGS[rung]
    rng = _rng(seed, rung, index, 0)
    env_u = _row_stochastic(rng, (shape.n_env, shape.n_env))
    agents = []
    for z, x, a, s in shape.agents:
        local_u = _row_stochastic(rng, (x * s, x))
        agents.append(AgentSpec(
            n_states=x, n_actions=a, n_signals=s, n_memory=z,
            signal_kernel=_row_stochastic(rng, (shape.n_env, s)),
            local_kernels=_blend(rng, local_u, a),
            memory_rule=_memory_rule(rng, z, s),
            reward=rng.uniform(-1.0, 1.0, size=(x, a, s)),
            discount=float(rng.uniform(*DISCOUNT_RANGE)),
            uncoupled_local=local_u,
        ))
    env = _blend(rng, env_u, shape.n_joint_actions)
    return GameSpec(n_env=shape.n_env, env_kernels=env, agents=tuple(agents), uncoupled_env=env_u)


def make_sigma(seed: int, rung: str, index: int, spec: GameSpec) -> list[np.ndarray]:
    """A seeded deterministic strategy profile for game `index` of a rung."""
    rng = _rng(seed, rung, index, 1)
    out = []
    for ag in spec.agents:
        picks = rng.integers(0, ag.n_actions, size=(ag.n_memory, ag.n_states))
        out.append(np.eye(ag.n_actions)[picks])
    return out


def sigma_star(spec: GameSpec) -> list[np.ndarray]:
    """The known equilibrium of the bundled example: agent 1 plays action 2,
    agent 2 plays action 1, in every (z, x)."""
    probs = [np.zeros((ag.n_memory, ag.n_states, ag.n_actions)) for ag in spec.agents]
    probs[0][:, :, 1] = 1.0
    probs[1][:, :, 0] = 1.0
    return probs


def write_sigma(sigma, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"sigma": [np.asarray(p).tolist() for p in sigma]}, fh)
