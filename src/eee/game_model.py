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
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Iterator

import numpy as np

ROW_SUM_TOL = 1e-12


class SpecError(ValueError):
    """A game specification or argument violates a domain constraint."""


class ParseError(ValueError):
    """A game/strategy/model file is structurally malformed."""


def _freeze(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
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
        object.__setattr__(self, "memory_rule", _freeze(self.memory_rule, int))
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

    @property
    def signal_ceiling(self) -> float:
        """Largest signal probability."""
        return float(self.signal_kernel.max())


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
        return math.prod(self.action_dims)

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
        require_alpha(self.alpha)
        if self.base.uncoupled_env is None or any(
            ag.uncoupled_local is None for ag in self.base.agents
        ):
            raise SpecError("convex family requires uncoupled reference kernels")
        if self.base.uncoupled_env.shape != self.base.env_kernels.shape[1:] or any(
            ag.uncoupled_local.shape != ag.local_kernels.shape[1:] for ag in self.base.agents
        ):
            raise SpecError("convex family requires reference kernels shaped like the coupled kernels")

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
        return math.prod(self.state_dims)


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


def require_alpha(alpha: float) -> None:
    """A blend weight must lie in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise SpecError(f"alpha must lie in [0, 1], got {alpha}")


def with_temperatures(spec: GameSpec, tau) -> GameSpec:
    """spec with each agent's softmax temperature replaced from tau: one
    positive value per agent, or one standing for every agent. None keeps
    the spec's own."""
    if tau is None:
        return spec
    taus = tuple(float(t) for t in np.atleast_1d(tau))
    if not all(t > 0 for t in taus):  # a NaN too
        raise SpecError("softmax temperatures must be positive")
    if len(taus) == 1:
        taus *= spec.n_agents
    if len(taus) != spec.n_agents:
        raise SpecError(f"expected {spec.n_agents} temperatures, got {len(taus)}")
    return replace(spec, agents=tuple(replace(ag, temperature=t) for ag, t in zip(spec.agents, taus)))


def interpolate(family: ConvexFamily, alpha: float) -> GameSpec:
    """Blend coupled kernels with the uncoupled reference at weight alpha.

    Every environment kernel becomes alpha * coupled + (1 - alpha) * uncoupled
    and likewise for each agent's local kernels; the uncoupled references are
    retained on the result so coupling quantities remain computable.
    """
    require_alpha(alpha)
    base = family.base
    env = alpha * base.env_kernels + (1.0 - alpha) * base.uncoupled_env[None, :, :]
    agents = tuple(
        replace(ag, local_kernels=alpha * ag.local_kernels + (1.0 - alpha) * ag.uncoupled_local[None, :, :])
        for ag in base.agents
    )
    return replace(base, env_kernels=env, agents=agents)


def build_example1() -> ConvexFamily:
    """The bundled two-agent four-environment benchmark game, read from
    example1_path(), at the default blend weight 0.9.

    Two agents, two signals/local states/memory states/actions each, memory
    rule z_next = s, identical discounts 0.7.
    """
    return ConvexFamily(base=load_game(example1_path()), alpha=0.9)


# ---------------------------------------------------------------------------
# serialization (JSON, 1-based external labels)


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"missing field '{key}' in {where}")
    return obj[key]


def _number(obj: dict, key: str, where: str, kind=float, default=None):
    """obj[key] converted by kind; a missing key takes default, or without one is a ParseError."""
    value = _get(obj, key, where) if default is None else obj.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{where}: '{key}' must be a number") from None


def _matrix(obj, where: str) -> np.ndarray:
    """obj as a float matrix; rows whose sums are within ROW_SUM_TOL of 1 are divided by them."""
    try:
        mat = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: not a numeric array ({exc})") from None
    if mat.ndim != 2:
        raise ParseError(f"{where}: expected a matrix (list of rows)")
    sums = mat.sum(axis=1)
    near = np.abs(sums - 1.0) <= ROW_SUM_TOL
    mat[near] = mat[near] / sums[near, None]
    return mat


def _stack(mats: list[np.ndarray], where: str) -> np.ndarray:
    """One array of equally shaped matrices; none gives an empty array for validate_spec to name."""
    if len({m.shape for m in mats}) > 1:
        raise ParseError(f"{where} differ in shape: {', '.join(str(m.shape) for m in mats)}")
    return np.array(mats)


def game_from_jsonable(doc: dict) -> GameSpec:
    """Build a GameSpec from a parsed JSON document.

    Kernel rows whose sums are within ROW_SUM_TOL of 1 are renormalized
    exactly; rows further off are kept as written so validate_spec can name
    them. Indices in the document (action keys, memory tables) are 1-based.
    """
    if not isinstance(doc, dict):
        raise ParseError("top level of a game file must be an object")
    n_env = _number(doc, "n_env", "game", int)
    agents_doc = _get(doc, "agents", "game")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ParseError("'agents' must be a non-empty array")

    agents = []
    for i, ad in enumerate(agents_doc):
        where = f"agent {i + 1}"
        if not isinstance(ad, dict):
            raise ParseError(f"{where}: expected an object")
        n_actions = _number(ad, "n_actions", where, int)
        if n_actions < 1:  # else no joint action exists and every env kernel key reads as unknown
            raise ParseError(f"{where}: 'n_actions' must be >= 1, got {n_actions}")
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
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{where}: memory_rule must be an integer table") from None
        try:
            reward = np.array(_get(ad, "reward", where), dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{where}: reward must be a numeric x/a/s array") from None
        uncoupled = ad.get("uncoupled_local")
        agents.append(
            AgentSpec(
                n_states=_number(ad, "n_states", where, int),
                n_actions=n_actions,
                n_signals=_number(ad, "n_signals", where, int),
                n_memory=_number(ad, "n_memory", where, int),
                signal_kernel=_matrix(_get(ad, "signal_kernel", where), f"{where} signal kernel"),
                local_kernels=_stack(local, f"{where} local kernels"),
                memory_rule=memory,
                reward=reward,
                discount=_number(ad, "discount", where),
                temperature=_number(ad, "temperature", where, default=1.0),
                uncoupled_local=None
                if uncoupled is None
                else _matrix(uncoupled, f"{where} uncoupled local kernel"),
            )
        )

    env_doc = _get(doc, "env_kernels", "game")
    if not isinstance(env_doc, dict):
        raise ParseError("'env_kernels' must be an object keyed by joint action")
    keys = [",".join(str(ai + 1) for ai in a) for a in itertools.product(*(range(ag.n_actions) for ag in agents))]
    kernels = []
    for key in keys:
        if key not in env_doc:
            raise ParseError(f"env kernel for joint action ({key}) missing")
        kernels.append(_matrix(env_doc[key], f"env kernel a=({key})"))
    extra = set(env_doc) - set(keys)
    if extra:
        raise ParseError(f"env_kernels has unknown joint action keys: {sorted(extra)}")

    unc = doc.get("uncoupled_env")
    return GameSpec(
        n_env=n_env,
        env_kernels=_stack(kernels, "env kernels"),
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


def read_json(path):
    """The parsed JSON document in the file at path; invalid JSON is a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None


def load_game(path) -> GameSpec:
    return game_from_jsonable(read_json(path))


def save_game(spec: GameSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_jsonable(spec), fh, indent=1)
        fh.write("\n")


def example1_path() -> str:
    """Filesystem path of the bundled benchmark game file."""
    return str(resources.files("eee.data").joinpath("example1.json"))
