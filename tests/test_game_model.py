"""Game construction, validation, interpolation, serialization."""

import contextlib
import copy
import io
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eee.cli import main
from eee.game_model import (
    ConvexFamily,
    GameSpec,
    ParseError,
    SpecError,
    build_example1,
    example1_path,
    game_from_jsonable,
    game_to_jsonable,
    interpolate,
    load_game,
    save_game,
    validate_spec,
)

from conftest import random_game


def test_example_family_validates_at_working_blend(ex1_spec):
    report = validate_spec(ex1_spec)
    assert report.ok
    assert report.violations == []


def test_bad_row_sum_reported_with_location():
    spec = random_game(0)
    env = spec.env_kernels.copy()
    env[1, 0, :] *= 0.9
    bad = type(spec)(n_env=spec.n_env, env_kernels=env, agents=spec.agents,
                     uncoupled_env=spec.uncoupled_env)
    report = validate_spec(bad)
    assert not report.ok
    assert any("row 1 sums to 0.9" in v for v in report.violations)


def test_negative_entry_reported():
    spec = random_game(1)
    ag = spec.agents[0]
    sk = ag.signal_kernel.copy()
    sk[0, 0] -= 0.1 + sk[0, 0] * 2  # force negative, keep the row sum broken too
    import dataclasses

    bad_agent = dataclasses.replace(ag, signal_kernel=sk)
    bad = type(spec)(n_env=spec.n_env, env_kernels=spec.env_kernels,
                     agents=(bad_agent,) + spec.agents[1:],
                     uncoupled_env=spec.uncoupled_env)
    report = validate_spec(bad)
    assert any("negative probability" in v for v in report.violations)


def test_example_matrices_spot_values(ex1_family):
    base = ex1_family.base
    assert np.allclose(base.agents[0].signal_kernel[0], (0.98, 0.02))
    # reward row (x, a=2, s=2) is 1 for the first agent at both local states
    assert base.agents[0].reward[0, 1, 1] == 1
    assert base.agents[0].reward[1, 1, 1] == 1
    assert base.agents[1].reward[0, 0, 1] == -100


def test_joint_state_count(ex1_spec):
    assert ex1_spec.indexer().n_states == 64


def test_interpolation_endpoints(ex1_family):
    lo = ex1_family.at(0.0)
    hi = ex1_family.at(1.0)
    assert np.allclose(lo.env_kernels, np.broadcast_to(lo.uncoupled_env, lo.env_kernels.shape))
    assert np.allclose(hi.env_kernels, ex1_family.base.env_kernels)
    for ag_lo, ag_hi, ag_base in zip(lo.agents, hi.agents, ex1_family.base.agents):
        assert np.allclose(ag_lo.local_kernels, np.broadcast_to(ag_lo.uncoupled_local, ag_lo.local_kernels.shape))
        assert np.allclose(ag_hi.local_kernels, ag_base.local_kernels)


def test_interpolation_hand_value(ex1_family):
    # env kernel for joint action (1,1), row 1, column 1: 0.9*0.29 + 0.1*0.36
    spec = ex1_family.at(0.9)
    assert abs(spec.env_kernels[0, 0, 0] - 0.297) < 1e-15


def test_interpolation_rejects_out_of_range(ex1_family):
    with pytest.raises(SpecError):
        interpolate(ex1_family, 1.5)
    with pytest.raises(SpecError):
        ConvexFamily(base=ex1_family.base, alpha=-0.1)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0))
def test_interpolation_is_affine(alpha):
    family = build_example1()
    lo = family.at(0.0)
    hi = family.at(1.0)
    mid = family.at(alpha)
    expect = alpha * hi.env_kernels + (1.0 - alpha) * lo.env_kernels
    assert np.allclose(mid.env_kernels, expect, atol=1e-14)
    for i in range(2):
        expect_local = alpha * hi.agents[i].local_kernels + (1.0 - alpha) * lo.agents[i].local_kernels
        assert np.allclose(mid.agents[i].local_kernels, expect_local, atol=1e-14)
    assert validate_spec(mid).ok


def test_json_round_trip(tmp_path, ex1_family):
    path = tmp_path / "game.json"
    save_game(ex1_family.base, path)
    loaded = load_game(path)
    base = ex1_family.base
    assert np.allclose(loaded.env_kernels, base.env_kernels)
    assert np.allclose(loaded.uncoupled_env, base.uncoupled_env)
    for a, b in zip(loaded.agents, base.agents):
        assert np.allclose(a.signal_kernel, b.signal_kernel)
        assert np.allclose(a.local_kernels, b.local_kernels)
        assert np.allclose(a.uncoupled_local, b.uncoupled_local)
        assert np.array_equal(a.memory_rule, b.memory_rule)
        assert np.allclose(a.reward, b.reward)
        assert a.discount == b.discount


def test_near_one_rows_renormalized_exactly(ex1_family):
    doc = game_to_jsonable(ex1_family.base)
    doc["env_kernels"]["1,1"][0][0] += 4e-13  # within tolerance, must be scrubbed
    spec = game_from_jsonable(doc)
    assert abs(spec.env_kernels[0, 0].sum() - 1.0) < 1e-15


def test_rows_outside_tolerance_fail_validation(ex1_family):
    doc = game_to_jsonable(ex1_family.base)
    doc["env_kernels"]["1,1"][0][0] += 1e-6
    spec = game_from_jsonable(doc)
    assert not validate_spec(spec).ok


def test_parse_error_on_missing_field(ex1_family):
    doc = game_to_jsonable(ex1_family.base)
    del doc["agents"][0]["signal_kernel"]
    with pytest.raises(ParseError):
        game_from_jsonable(doc)


def test_parse_error_on_unknown_action_key(ex1_family):
    doc = game_to_jsonable(ex1_family.base)
    doc["env_kernels"]["3,1"] = doc["env_kernels"]["1,1"]
    with pytest.raises(ParseError, match=r"unknown joint action keys: \['3,1'\]"):
        game_from_jsonable(doc)
    del doc["env_kernels"]["1,1"]
    with pytest.raises(ParseError, match=r"env kernel for joint action \(1,1\) missing"):
        game_from_jsonable(doc)


def test_parse_error_names_an_agent_without_actions(ex1_family):
    doc = game_to_jsonable(ex1_family.base)
    doc["agents"][0]["n_actions"] = 0
    with pytest.raises(ParseError, match="agent 1: 'n_actions' must be >= 1, got 0"):
        game_from_jsonable(doc)


def test_parse_error_on_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_game(path)


def test_memory_rule_is_one_based_in_files(tmp_path, ex1_family):
    path = tmp_path / "game.json"
    save_game(ex1_family.base, path)
    doc = json.loads(path.read_text())
    stored = np.array(doc["agents"][0]["memory_rule"])
    assert np.array_equal(stored - 1, ex1_family.base.agents[0].memory_rule)


def test_spec_arrays_are_read_only(ex1_spec):
    with pytest.raises(ValueError):
        ex1_spec.env_kernels[0, 0, 0] = 0.5


def test_convex_family_needs_references_shaped_like_the_kernels(ex1_family):
    base = ex1_family.base
    with pytest.raises(SpecError, match="requires uncoupled reference kernels"):
        ConvexFamily(base=GameSpec(n_env=base.n_env, env_kernels=base.env_kernels, agents=base.agents))
    with pytest.raises(SpecError, match="shaped like the coupled kernels"):
        ConvexFamily(base=GameSpec(n_env=base.n_env, env_kernels=base.env_kernels, agents=base.agents,
                                   uncoupled_env=base.uncoupled_env[:3, :3]))


def test_a_game_without_agents_is_reported():
    report = validate_spec(GameSpec(n_env=0, env_kernels=np.zeros((1, 0, 0)), agents=()))
    assert report.violations == ["n_env must be >= 1, got 0", "agent list is empty"]


# Mutations of the bundled game file that no valid game survives under --alpha,
# which needs the uncoupled references: a dropped key (any but the optional
# temperature), a list one entry short or long, a node of the wrong type, a
# non-numeric or NaN entry, and numbers out of range for their field.
EX1_DOC = json.loads(Path(example1_path()).read_text())
KERNELS = ("env_kernels", "uncoupled_env", "signal_kernel", "local_kernels", "uncoupled_local")
COUNTS = ("n_env", "n_states", "n_actions", "n_signals", "n_memory")


def _out_of_range(path, value):
    field = path[2] if path[0] == "agents" else path[0]
    if field in KERNELS:
        return [-0.5, 1.5, 2**64]
    if field in COUNTS:
        return [0, -1, value + 1, 2**64]
    if field == "memory_rule":  # 1-based
        return [0, -1, EX1_DOC["agents"][path[1]]["n_memory"] + 1, 2**64]
    return {"discount": [0.0, 1.0, -0.5], "temperature": [0.0, -1.0], "reward": []}[field]


def _mutations(node, path=()):
    """(operation, path, value) for node and everything inside it."""
    if isinstance(node, dict):
        out = [("drop", path + (k,), None) for k in node if k != "temperature"]
        items = node.items()
    elif isinstance(node, list):
        out = [("shrink", path, None), ("grow", path, None)]
        items = enumerate(node)
    else:
        return [("set", path, v) for v in ("x", None, [], {}, math.nan, *_out_of_range(path, node))]
    out += [("set", path, v) for v in ("x", None, 5, [], {})]
    return out + [m for k, v in items for m in _mutations(v, path + (k,))]


def _by_depth(mutations):
    """Mutations grouped by path length, so the few near the root are drawn as often as the many leaves."""
    depths = sorted({len(path) for _, path, _ in mutations})
    return [[m for m in mutations if len(m[1]) == d] for d in depths]


def _mutate(doc, operation, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if operation == "drop":
        del parent[path[-1]]
    elif operation == "shrink":
        node.pop()
    elif operation == "grow":
        node.append(copy.deepcopy(node[-1]))
    else:
        parent[path[-1]] = value
    return doc


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutation=st.sampled_from(_by_depth(_mutations(EX1_DOC))).flatmap(st.sampled_from))
@example(mutation=("set", ("agents", 0, "local_kernels"), []))  # the one parser branch 300 draws miss
def test_a_broken_game_file_exits_1_or_2_without_a_traceback(tmp_path_factory, mutation):
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps(_mutate(EX1_DOC, *mutation)))
    out = path.parent / "mutant-out"
    err = io.StringIO()
    handlers = logging.getLogger("eee").handlers[:]
    try:
        with contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--alpha", "0.9", "--out", str(out)])
    finally:
        logging.getLogger("eee").handlers[:] = handlers
    assert code in (1, 2)
    assert err.getvalue().startswith("error: ")
    assert not out.exists()


def test_random_games_validate():
    for seed in range(5):
        assert validate_spec(random_game(seed)).ok
