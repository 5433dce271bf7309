"""Workloads: the op list of one pass, and the set-up that writes its inputs.

A pass is a fixed list of CLI ops covering every rung of the ladder. A run
repeats passes until its time is up; pass p only ever uses inputs of pass p,
so every op in a run sees a distinct input: a different generated game, or a
different alpha for the bundled example (n64).
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eee.game_model import example1_path, load_game, save_game

import generate

WORKLOADS = ("dynamics-greedy", "dynamics-softmax", "certify", "montecarlo")
LADDER = ("n64", "n256", "n648", "n1458")
GAME_ALPHA = 0.9
GOLDEN_SEED = 0
# inputs written at set-up; a run stops early if it ever exhausts them
MAX_PASSES = 24

# ops per rung in one pass
REPEATS = {
    "dynamics-greedy": {"n64": 8, "n256": 1, "n648": 1, "n1458": 1},
    "dynamics-softmax": {"n64": 8, "n256": 1, "n648": 1, "n1458": 1},
    "certify": {"n64": 10, "n256": 2, "n648": 1, "n1458": 1},
    "montecarlo": {"n64": 2, "n256": 1, "n648": 1, "n1458": 1},
}
# Q-iteration cap on generated games: an uncapped run takes 37-88 iterations
# (3-5 s at n256, 50-70 s at n1458), too few ops per run for a steady median
DYNAMICS_MAX_ITER = {"n256": 16, "n648": 8, "n1458": 2}
# above the simulator's per-step record limit (10^5), as a long run would be,
# and short enough for several passes a run: an n1458 op costs about 3 s
# whatever its horizon
HORIZON = {"n64": 120_000, "n256": 120_000, "n648": 120_000, "n1458": 120_000}
BURN_IN = 1000


@dataclass(frozen=True)
class Op:
    op_id: str          # "<rung>/<pass>/<j>"
    rung: str
    kind: str           # run | bounds | simulate
    argv: tuple[str, ...]  # without --out
    expected_exits: frozenset[int]
    alpha: float
    policy: str | None = None
    sim_seed: int | None = None


def _frac(x: float) -> float:
    return x - math.floor(x)


def n64_alphas(seed: int, p: int, k: int) -> list[float]:
    """k distinct blend weights for pass p, one per stratum of [0, 1).

    The stratum offset moves by the golden ratio each pass, so no alpha
    repeats within a run. Pass 0 starts with 0.9 (the known equilibrium) and
    1.0 (the greedy cycle) in place of its first strata.
    """
    offset = _frac(np.random.default_rng([seed, 0]).random() + p * (math.sqrt(5) - 1) / 2)
    alphas = [(j + offset) / k for j in range(k)]
    if p == 0:
        alphas[: min(k, 2)] = [0.9, 1.0][: min(k, 2)]
    return alphas


def _files(workdir: Path, rung: str, p: int, j: int) -> tuple[Path, Path]:
    if rung == "n64":
        return workdir / "example1.json", workdir / "sigma-n64.json"
    stem = f"{rung}-{p}-{j}"
    return workdir / f"{stem}.json", workdir / f"sigma-{stem}.json"


def write_inputs(workload: str, seed: int, workdir: Path, passes: int = MAX_PASSES) -> None:
    """Write every game and strategy file the first `passes` passes read."""
    workdir.mkdir(parents=True, exist_ok=True)
    game_path, sigma_path = _files(workdir, "n64", 0, 0)
    shutil.copyfile(example1_path(), game_path)
    with_sigma = workload in ("certify", "montecarlo")
    if with_sigma:
        generate.write_sigma(generate.sigma_star(load_game(game_path)), sigma_path)
    for p in range(passes):
        for rung in LADDER[1:]:
            for j in range(REPEATS[workload][rung]):
                index = p * REPEATS[workload][rung] + j
                game_path, sigma_path = _files(workdir, rung, p, j)
                spec = generate.make_game(seed, rung, index)
                save_game(spec, game_path)
                if with_sigma:
                    generate.write_sigma(generate.make_sigma(seed, rung, index, spec), sigma_path)


def pass_ops(workload: str, seed: int, p: int, workdir: Path) -> list[Op]:
    """The ops of pass p, in the order they run."""
    ops = []
    for rung in LADDER:
        k = REPEATS[workload][rung]
        alphas = n64_alphas(seed, p, k) if rung == "n64" else [GAME_ALPHA] * k
        for j, alpha in enumerate(alphas):
            game, sigma = (str(f) for f in _files(workdir, rung, p, j))
            common = (game, "--alpha", repr(alpha))
            op_id = f"{rung}/{p}/{j}"
            if workload.startswith("dynamics"):
                policy = workload.split("-")[1]
                argv = ("run", *common, "--policy", policy)
                exits = {0, 3}
                if rung in DYNAMICS_MAX_ITER:
                    argv += ("--max-iter", str(DYNAMICS_MAX_ITER[rung]))
                    exits.add(4)
                ops.append(Op(op_id, rung, "run", argv, frozenset(exits), alpha, policy=policy))
            elif workload == "certify":
                ops.append(Op(op_id, rung, "bounds", ("bounds", *common, "--sigma", sigma),
                              frozenset({0}), alpha))
            else:
                sim_seed = int(np.random.default_rng([seed, 1, p, LADDER.index(rung), j])
                               .integers(2**31))
                argv = ("simulate", *common, "--sigma", sigma, "--horizon", str(HORIZON[rung]),
                        "--burn-in", str(BURN_IN), "--seed", str(sim_seed))
                ops.append(Op(op_id, rung, "simulate", argv, frozenset({0}), alpha,
                              sim_seed=sim_seed))
    return ops
