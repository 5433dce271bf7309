"""Finite weakly coupled stochastic games: types, validation, construction, serialization.

Kernels are plain float ndarrays. A kernel is row-stochastic when every entry
is nonnegative and every row sums to 1 within ROW_SUM_TOL; validate_spec
checks this for every kernel in a GameSpec. Externally (JSON files, CLI
output) states, actions and signals are labeled 1-based; internally all
indices are 0-based.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterator

import numpy as np

ROW_SUM_TOL = 1e-12


class SpecError(ValueError):
    """A game specification or argument violates a domain constraint."""


class ParseError(ValueError):
    """A game/strategy/model file is structurally malformed."""


def _freeze(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.flags.writeable = False
    return arr


def _freeze_int(a) -> np.ndarray:
    arr = np.array(a, dtype=int)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class AgentSpec:
    """One agent: sizes, kernels, memory rule, reward, discount, temperature.

    signal_kernel has shape (n_env, n_signals): row w gives the signal law.
    local_kernels has shape (n_actions, n_states * n_signals, n_states); the
    row for (x, s) is x * n_signals + s. uncoupled_local, when present, is one
    action-independent (n_states * n_signals, n_states) kernel.
    memory_rule[z, s] is the next memory state. reward[x, a, s] is the stage
    payoff. discount in (0, 1), temperature > 0.
    """

    n_states: int
    n_actions: int
    n_signals: int
    n_memory: int
    signal_kernel: np.ndarray
    local_kernels: np.ndarray
    memory_rule: np.ndarray
    reward: np.ndarray
    discount: float
    temperature: float = 1.0
    uncoupled_local: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "signal_kernel", _freeze(self.signal_kernel))
        object.__setattr__(self, "local_kernels", _freeze(self.local_kernels))
        object.__setattr__(self, "memory_rule", _freeze_int(self.memory_rule))
        object.__setattr__(self, "reward", _freeze(self.reward))
        if self.uncoupled_local is not None:
            object.__setattr__(self, "uncoupled_local", _freeze(self.uncoupled_local))

    @property
    def local_kernels_4d(self) -> np.ndarray:
        """local_kernels reshaped to (a, x, s, x_next)."""
        return self.local_kernels.reshape(
            self.n_actions, self.n_states, self.n_signals, self.n_states
        )

    @property
    def reward_ceiling(self) -> float:
        """Largest absolute stage reward."""
        return float(np.max(np.abs(self.reward)))


@dataclass(frozen=True)
class GameSpec:
    """The full game: environment kernel per joint action plus the agent list.

    env_kernels has shape (n_joint_actions, n_env, n_env), joint actions in
    lexicographic order (agent 1 slowest). uncoupled_env, when present, is a
    single action-independent (n_env, n_env) kernel.
    """

    n_env: int
    env_kernels: np.ndarray
    agents: tuple[AgentSpec, ...]
    uncoupled_env: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "env_kernels", _freeze(self.env_kernels))
        object.__setattr__(self, "agents", tuple(self.agents))
        if self.uncoupled_env is not None:
            object.__setattr__(self, "uncoupled_env", _freeze(self.uncoupled_env))

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def action_dims(self) -> tuple[int, ...]:
        return tuple(ag.n_actions for ag in self.agents)

    @property
    def n_joint_actions(self) -> int:
        return int(np.prod(self.action_dims))

    def indexer(self) -> "JointIndexer":
        return JointIndexer(
            state_dims=(
                self.n_env,
                *(ag.n_memory for ag in self.agents),
                *(ag.n_states for ag in self.agents),
            )
        )

    def joint_actions(self) -> Iterator[tuple[int, ...]]:
        """All joint actions in lexicographic (storage) order, 0-based."""
        return itertools.product(*(range(n) for n in self.action_dims))


@dataclass(frozen=True)
class ConvexFamily:
    """A game whose kernels blend a coupled set with an uncoupled reference.

    base holds the coupled kernels as env_kernels/local_kernels and the
    uncoupled references as uncoupled_env/uncoupled_local. alpha is the
    default blend weight on the coupled side.
    """

    base: GameSpec
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise SpecError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.base.uncoupled_env is None or any(
            ag.uncoupled_local is None for ag in self.base.agents
        ):
            raise SpecError("convex family requires uncoupled reference kernels")

    def at(self, alpha: float | None = None) -> GameSpec:
        return interpolate(self, self.alpha if alpha is None else alpha)


@dataclass(frozen=True)
class JointIndexer:
    """Shape of the joint state space, flattened in C order.

    Joint states are tuples (w, z_1..z_n, x_1..x_n) with state_dims
    (|W|, |Z_1|..|Z_n|, |X_1|..|X_n|); the last component varies fastest, so
    np.ravel_multi_index and np.unravel_index on state_dims convert them.
    """

    state_dims: tuple[int, ...]

    @property
    def n_states(self) -> int:
        return int(np.prod(self.state_dims))


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_kernel(name: str, mat: np.ndarray, violations: list[str], expected_shape=None):
    if expected_shape is not None and mat.shape != expected_shape:
        violations.append(f"{name}: shape {mat.shape}, expected {expected_shape}")
        return
    if not np.all(np.isfinite(mat)):
        violations.append(f"{name}: non-finite entry")
        return
    for r, row in enumerate(np.atleast_2d(mat)):
        if np.any(row < 0):
            j = int(np.argmin(row))
            violations.append(f"{name}: negative probability {row[j]} at row {r + 1}")
        s = float(row.sum())
        if abs(s - 1.0) > ROW_SUM_TOL:
            violations.append(f"{name}: row {r + 1} sums to {s}, expected 1 within {ROW_SUM_TOL}")


def validate_spec(spec: GameSpec) -> ValidationReport:
    """Check every invariant of a GameSpec; violations are data, not exceptions."""
    v: list[str] = []
    W = spec.n_env
    if W < 1:
        v.append(f"n_env must be >= 1, got {W}")
    if not spec.agents:
        v.append("agent list is empty")
        return ValidationReport(v)

    n_ja = spec.n_joint_actions
    if spec.env_kernels.shape != (n_ja, W, W):
        v.append(
            f"env_kernels: shape {spec.env_kernels.shape}, expected one {W}x{W} "
            f"kernel per joint action ({n_ja} total)"
        )
    else:
        for k, a in enumerate(spec.joint_actions()):
            label = ",".join(str(ai + 1) for ai in a)
            _check_kernel(f"env kernel a=({label})", spec.env_kernels[k], v)
    if spec.uncoupled_env is not None:
        _check_kernel("uncoupled env kernel", spec.uncoupled_env, v, (W, W))

    for i, ag in enumerate(spec.agents):
        tag = f"agent {i + 1}"
        for n, what in [
            (ag.n_states, "n_states"),
            (ag.n_actions, "n_actions"),
            (ag.n_signals, "n_signals"),
            (ag.n_memory, "n_memory"),
        ]:
            if n < 1:
                v.append(f"{tag}: {what} must be >= 1, got {n}")
        _check_kernel(f"{tag} signal kernel", ag.signal_kernel, v, (W, ag.n_signals))
        rows = ag.n_states * ag.n_signals
        if ag.local_kernels.shape != (ag.n_actions, rows, ag.n_states):
            v.append(
                f"{tag} local kernels: shape {ag.local_kernels.shape}, expected "
                f"({ag.n_actions}, {rows}, {ag.n_states})"
            )
        else:
            for a in range(ag.n_actions):
                _check_kernel(f"{tag} local kernel a={a + 1}", ag.local_kernels[a], v)
        if ag.uncoupled_local is not None:
            _check_kernel(f"{tag} uncoupled local kernel", ag.uncoupled_local, v, (rows, ag.n_states))
        if ag.memory_rule.shape != (ag.n_memory, ag.n_signals):
            v.append(
                f"{tag} memory rule: shape {ag.memory_rule.shape}, expected "
                f"({ag.n_memory}, {ag.n_signals})"
            )
        elif np.any(ag.memory_rule < 0) or np.any(ag.memory_rule >= ag.n_memory):
            v.append(f"{tag} memory rule: entry outside memory range")
        if ag.reward.shape != (ag.n_states, ag.n_actions, ag.n_signals):
            v.append(
                f"{tag} reward: shape {ag.reward.shape}, expected "
                f"({ag.n_states}, {ag.n_actions}, {ag.n_signals})"
            )
        elif not np.all(np.isfinite(ag.reward)):
            v.append(f"{tag} reward: non-finite entry")
        if not 0.0 < ag.discount < 1.0:
            v.append(f"{tag}: discount must lie in (0, 1), got {ag.discount}")
        if not ag.temperature > 0.0:
            v.append(f"{tag}: temperature must be positive, got {ag.temperature}")
    return ValidationReport(v)


def require_valid(spec: GameSpec) -> None:
    report = validate_spec(spec)
    if not report.ok:
        raise SpecError("invalid game spec: " + "; ".join(report.violations))


# ---------------------------------------------------------------------------
# construction


def interpolate(family: ConvexFamily, alpha: float) -> GameSpec:
    """Blend coupled kernels with the uncoupled reference at weight alpha.

    Every environment kernel becomes alpha * coupled + (1 - alpha) * uncoupled
    and likewise for each agent's local kernels; the uncoupled references are
    retained on the result so coupling quantities remain computable.
    """
    if not 0.0 <= alpha <= 1.0:
        raise SpecError(f"alpha must lie in [0, 1], got {alpha}")
    base = family.base
    env = alpha * base.env_kernels + (1.0 - alpha) * base.uncoupled_env[None, :, :]
    agents = []
    for ag in base.agents:
        local = alpha * ag.local_kernels + (1.0 - alpha) * ag.uncoupled_local[None, :, :]
        agents.append(
            AgentSpec(
                n_states=ag.n_states,
                n_actions=ag.n_actions,
                n_signals=ag.n_signals,
                n_memory=ag.n_memory,
                signal_kernel=ag.signal_kernel,
                local_kernels=local,
                memory_rule=ag.memory_rule,
                reward=ag.reward,
                discount=ag.discount,
                temperature=ag.temperature,
                uncoupled_local=ag.uncoupled_local,
            )
        )
    return GameSpec(
        n_env=base.n_env,
        env_kernels=env,
        agents=tuple(agents),
        uncoupled_env=base.uncoupled_env,
    )


def build_example1() -> ConvexFamily:
    """The bundled two-agent four-environment benchmark game.

    Two agents, two signals/local states/memory states/actions each, memory
    rule z_next = s, identical discounts 0.7, default blend weight 0.9.
    """
    m1 = [[0.98, 0.02], [0.09, 0.91], [0.79, 0.21], [0.74, 0.26]]
    m2 = [[0.93, 0.07], [0.82, 0.18], [0.64, 0.36], [0.11, 0.89]]
    phi_u = [
        [0.36, 0.42, 0.05, 0.17],
        [0.06, 0.42, 0.33, 0.19],
        [0.34, 0.03, 0.03, 0.60],
        [0.39, 0.29, 0.24, 0.08],
    ]
    phi_c = [
        # joint action (1,1)
        [
            [0.29, 0.09, 0.15, 0.47],
            [0.11, 0.06, 0.19, 0.64],
            [0.25, 0.29, 0.21, 0.25],
            [0.11, 0.40, 0.02, 0.47],
        ],
        # joint action (1,2)
        [
            [0.06, 0.51, 0.20, 0.23],
            [0.48, 0.11, 0.30, 0.11],
            [0.31, 0.39, 0.22, 0.08],
            [0.32, 0.01, 0.24, 0.43],
        ],
        # joint action (2,1)
        [
            [0.39, 0.17, 0.20, 0.24],
            [0.20, 0.48, 0.05, 0.27],
            [0.09, 0.48, 0.30, 0.13],
            [0.23, 0.07, 0.22, 0.48],
        ],
        # joint action (2,2)
        [
            [0.22, 0.27, 0.26, 0.25],
            [0.09, 0.35, 0.47, 0.09],
            [0.38, 0.27, 0.22, 0.13],
            [0.23, 0.04, 0.44, 0.29],
        ],
    ]
    # rows are (x, s) pairs, x-major
    local_c1 = [
        [[0.80, 0.20], [0.26, 0.74], [0.84, 0.16], [0.93, 0.07]],
        [[0.82, 0.18], [0.60, 0.40], [0.24, 0.76], [0.35, 0.65]],
    ]
    local_c2 = [
        [[0.34, 0.66], [0.62, 0.38], [0.64, 0.36], [0.62, 0.38]],
        [[0.17, 0.83], [0.61, 0.39], [0.37, 0.63], [0.48, 0.52]],
    ]
    local_u = np.full((4, 2), 0.5)
    # stage rewards, rows actions and columns signals, identical across x
    g1 = [[-48.0, -50.0], [-36.0, 1.0]]
    g2 = [[31.0, -100.0], [-21.0, -37.0]]
    memory = [[0, 1], [0, 1]]  # next memory equals the observed signal

    def agent(m, local, g):
        return AgentSpec(
            n_states=2,
            n_actions=2,
            n_signals=2,
            n_memory=2,
            signal_kernel=m,
            local_kernels=local,
            memory_rule=memory,
            reward=[g, g],
            discount=0.7,
            temperature=1.0,
            uncoupled_local=local_u,
        )

    base = GameSpec(
        n_env=4,
        env_kernels=np.array(phi_c),
        agents=(agent(m1, local_c1, g1), agent(m2, local_c2, g2)),
        uncoupled_env=np.array(phi_u),
    )
    return ConvexFamily(base=base, alpha=0.9)


# ---------------------------------------------------------------------------
# serialization (JSON, 1-based external labels)


def _renormalize(mat: np.ndarray) -> np.ndarray:
    """Divide rows by their sums where the sum is within ROW_SUM_TOL of 1."""
    mat = np.array(mat, dtype=float)
    if mat.ndim == 1:
        mat = mat[None, :]
        squeeze = True
    else:
        squeeze = False
    sums = mat.sum(axis=1)
    near = np.abs(sums - 1.0) <= ROW_SUM_TOL
    mat[near] = mat[near] / sums[near, None]
    return mat[0] if squeeze else mat


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"missing field '{key}' in {where}")
    return obj[key]


def _matrix(obj, where: str, renorm=True) -> np.ndarray:
    try:
        mat = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: not a numeric array ({exc})") from None
    if mat.ndim != 2:
        raise ParseError(f"{where}: expected a matrix (list of rows)")
    return _renormalize(mat) if renorm else mat


def game_from_jsonable(doc: dict) -> GameSpec:
    """Build a GameSpec from a parsed JSON document.

    Kernel rows whose sums are within ROW_SUM_TOL of 1 are renormalized
    exactly; rows further off are kept as written so validate_spec can name
    them. Indices in the document (action keys, memory tables) are 1-based.
    """
    if not isinstance(doc, dict):
        raise ParseError("top level of a game file must be an object")
    n_env = _get(doc, "n_env", "game")
    agents_doc = _get(doc, "agents", "game")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ParseError("'agents' must be a non-empty array")

    agents = []
    for i, ad in enumerate(agents_doc):
        where = f"agent {i + 1}"
        if not isinstance(ad, dict):
            raise ParseError(f"{where}: expected an object")
        n_actions = int(_get(ad, "n_actions", where))
        locals_doc = _get(ad, "local_kernels", where)
        if not isinstance(locals_doc, dict):
            raise ParseError(f"{where}: 'local_kernels' must be an object keyed by action")
        local = []
        for a in range(1, n_actions + 1):
            if str(a) not in locals_doc:
                raise ParseError(f"{where}: local kernel for action {a} missing")
            local.append(_matrix(locals_doc[str(a)], f"{where} local kernel a={a}"))
        try:
            memory = np.array(_get(ad, "memory_rule", where), dtype=int) - 1
        except (TypeError, ValueError):
            raise ParseError(f"{where}: memory_rule must be an integer table") from None
        try:
            reward = np.array(_get(ad, "reward", where), dtype=float)
        except (TypeError, ValueError):
            raise ParseError(f"{where}: reward must be a numeric x/a/s array") from None
        uncoupled = ad.get("uncoupled_local")
        agents.append(
            AgentSpec(
                n_states=int(_get(ad, "n_states", where)),
                n_actions=n_actions,
                n_signals=int(_get(ad, "n_signals", where)),
                n_memory=int(_get(ad, "n_memory", where)),
                signal_kernel=_matrix(_get(ad, "signal_kernel", where), f"{where} signal kernel"),
                local_kernels=np.stack(local),
                memory_rule=memory,
                reward=reward,
                discount=float(_get(ad, "discount", where)),
                temperature=float(ad.get("temperature", 1.0)),
                uncoupled_local=None
                if uncoupled is None
                else _matrix(uncoupled, f"{where} uncoupled local kernel"),
            )
        )

    env_doc = _get(doc, "env_kernels", "game")
    if not isinstance(env_doc, dict):
        raise ParseError("'env_kernels' must be an object keyed by joint action")
    action_dims = tuple(ag.n_actions for ag in agents)
    kernels = []
    for a in itertools.product(*(range(n) for n in action_dims)):
        key = ",".join(str(ai + 1) for ai in a)
        if key not in env_doc:
            raise ParseError(f"env kernel for joint action ({key}) missing")
        kernels.append(_matrix(env_doc[key], f"env kernel a=({key})"))
    extra = set(env_doc) - {",".join(str(ai + 1) for ai in a)
                            for a in itertools.product(*(range(n) for n in action_dims))}
    if extra:
        raise ParseError(f"env_kernels has unknown joint action keys: {sorted(extra)}")

    unc = doc.get("uncoupled_env")
    return GameSpec(
        n_env=int(n_env),
        env_kernels=np.stack(kernels),
        agents=tuple(agents),
        uncoupled_env=None if unc is None else _matrix(unc, "uncoupled env kernel"),
    )


def game_to_jsonable(spec: GameSpec) -> dict:
    doc: dict = {"n_env": spec.n_env}
    doc["env_kernels"] = {
        ",".join(str(ai + 1) for ai in a): spec.env_kernels[k].tolist()
        for k, a in enumerate(spec.joint_actions())
    }
    if spec.uncoupled_env is not None:
        doc["uncoupled_env"] = spec.uncoupled_env.tolist()
    doc["agents"] = []
    for ag in spec.agents:
        ad = {
            "n_states": ag.n_states,
            "n_actions": ag.n_actions,
            "n_signals": ag.n_signals,
            "n_memory": ag.n_memory,
            "signal_kernel": ag.signal_kernel.tolist(),
            "local_kernels": {
                str(a + 1): ag.local_kernels[a].tolist() for a in range(ag.n_actions)
            },
            "memory_rule": (ag.memory_rule + 1).tolist(),
            "reward": ag.reward.tolist(),
            "discount": ag.discount,
            "temperature": ag.temperature,
        }
        if ag.uncoupled_local is not None:
            ad["uncoupled_local"] = ag.uncoupled_local.tolist()
        doc["agents"].append(ad)
    return doc


def load_game(path) -> GameSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    return game_from_jsonable(doc)


def save_game(spec: GameSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_jsonable(spec), fh, indent=1)
        fh.write("\n")


def example1_path() -> str:
    """Filesystem path of the bundled benchmark game file."""
    return str(resources.files("eee.data").joinpath("example1.json"))
