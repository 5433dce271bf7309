"""Certificate outputs pinned against recorded files under tests/golden/.

Each case runs one `eee sweep` or `eee bounds` command and compares its
output file with the recorded copy: discrete fields (outcomes, steps, flags,
labels) exactly and floats to a relative 1e-10. To re-record after a change
that means to alter a result, run `PYTHONPATH=src python tests/test_golden.py`
and name the changed file in CHANGES.md.
"""

import csv
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from eee.cli import main
from eee.game_model import build_example1, example1_path, save_game

from conftest import random_game, sigma_star

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-10
ALPHAS = ("--alphas", "0", "0.9", "1.0")

# recorded file -> (argv with {input} placeholders, name of the file the command writes)
CASES = {
    "sweep-greedy.csv": (["sweep", "{ex1}", *ALPHAS], "sweep.csv"),
    "sweep-softmax.csv": (["sweep", "{ex1}", *ALPHAS, "--policy", "softmax"], "sweep.csv"),
    "sweep-softmax-tau.csv": (["sweep", "{ex1}", *ALPHAS, "--policy", "softmax", "--tau", "0.5", "0.25"],
                              "sweep.csv"),
    "bounds-sigma-star.json": (["bounds", "{ex1}", "--alpha", "0.9", "--sigma", "{star}"], "bounds.json"),
    "bounds-uniform.json": (["bounds", "{ex1}", "--alpha", "0.9", "--sigma", "{uniform}"], "bounds.json"),
    "bounds-greedy.json": (["bounds", "{ex1}", "--alpha", "0.9"], "bounds.json"),
    "bounds-fallback.json": (["bounds", "{stripped}", "--allow-fallback"], "bounds.json"),
    "bounds-random3.json": (["bounds", "{random3}"], "bounds.json"),
}


def _write_inputs(where: Path) -> dict[str, str]:
    """The input files of CASES, written into where: ex1 at 0.9 without
    references, sigma* and the uniform profile of ex1, and a 3-agent game."""
    spec = build_example1().at(0.9)
    stripped = dataclasses.replace(
        spec, uncoupled_env=None,
        agents=tuple(dataclasses.replace(ag, uncoupled_local=None) for ag in spec.agents))
    paths = {"ex1": example1_path()}
    for name, game in (("stripped", stripped), ("random3", random_game(5, n_agents=3, max_dim=2))):
        paths[name] = str(where / f"{name}.json")
        save_game(game, paths[name])
    uniform = [np.full((ag.n_memory, ag.n_states, ag.n_actions), 1.0 / ag.n_actions) for ag in spec.agents]
    for name, sigma in (("star", sigma_star(spec)), ("uniform", uniform)):
        paths[name] = str(where / f"{name}.json")
        (where / f"{name}.json").write_text(json.dumps({"sigma": [np.asarray(p).tolist() for p in sigma]}))
    return paths


def _run_case(name: str, where: Path, inputs: dict[str, str]) -> Path:
    argv, produced = CASES[name]
    out = where / name
    assert main([a.format(**inputs) for a in argv] + ["--out", str(out)]) == 0
    return out / produced


def _read(path: Path):
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    return json.loads(path.read_text(encoding="utf-8"))


def _same(got, want, where: str) -> None:
    """got equals want: floats (and numeric CSV cells) to REL, the rest exactly."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for k in want:
            _same(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{k}]")
    elif isinstance(want, float) or (isinstance(want, str) and _number(want) and "." in want):
        g, w = float(got), float(want)
        assert math.isclose(g, w, rel_tol=REL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    where = tmp_path_factory.mktemp("golden-inputs")
    return where, _write_inputs(where)


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_output_matches_the_record(name, inputs):
    where, paths = inputs
    _same(_read(_run_case(name, where, paths)), _read(GOLDEN / name), name)


def record() -> None:
    """Write every case's output file to tests/golden/ from the eee on sys.path."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        paths = _write_inputs(where)
        for name in sorted(CASES):
            (GOLDEN / name).write_bytes(_run_case(name, where, paths).read_bytes())


if __name__ == "__main__":
    record()
