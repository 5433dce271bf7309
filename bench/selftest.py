"""Tests of the benchmark itself: python3 -m pytest bench/selftest.py (from the repository root)."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import generate  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eee import chain_analysis, cli, empirical, learning  # noqa: E402
from eee.game_model import example1_path, game_to_jsonable, interpolate, load_game  # noqa: E402
from eee.game_model import ConvexFamily  # noqa: E402

SHAPES = {"n256": (256, 16), "n648": (648, 8), "n1458": (1458, 8)}


@pytest.mark.parametrize("rung", sorted(SHAPES))
def test_generator_is_deterministic_with_the_stated_shape(rung):
    a = generate.make_game(3, rung, 1)
    assert game_to_jsonable(a) == game_to_jsonable(generate.make_game(3, rung, 1))
    assert game_to_jsonable(a) != game_to_jsonable(generate.make_game(4, rung, 1))
    assert game_to_jsonable(a) != game_to_jsonable(generate.make_game(3, rung, 2))
    n_states, n_joint = SHAPES[rung]
    assert a.indexer().n_states == n_states == generate.RUNGS[rung].n_states
    assert a.n_joint_actions == n_joint == generate.RUNGS[rung].n_joint_actions
    sigma = generate.make_sigma(3, rung, 1, a)
    assert all(np.all(p.sum(-1) == 1) and np.all(p.max(-1) == 1) for p in sigma)


def test_bundled_example_is_the_n64_rung():
    spec = load_game(example1_path())
    assert spec.indexer().n_states == generate.RUNGS["n64"].n_states == 64
    assert spec.n_joint_actions == 4


def _simulate_path(rung, monkeypatch) -> str:
    used = []
    for name, path in (("_full_outcome_table", "table"), ("_single_outcome_row", "cache")):
        original = getattr(empirical, name)

        def spy(*args, _original=original, _path=path):
            used.append(_path)
            return _original(*args)

        monkeypatch.setattr(empirical, name, spy)
    base = generate.make_game(0, rung, 0)
    spec = interpolate(ConvexFamily(base=base), workloads.GAME_ALPHA)
    empirical.simulate(spec, generate.make_sigma(0, rung, 0, base), horizon=20, seed=1, burn_in=0)
    return set(used)


def test_n648_samples_from_the_outcome_table(monkeypatch):
    assert _simulate_path("n648", monkeypatch) == {"table"}


def test_n1458_samples_from_the_per_state_cache(monkeypatch):
    assert _simulate_path("n1458", monkeypatch) == {"cache"}


def test_n64_alphas_are_distinct_and_anchor_the_known_outcomes():
    seen = [a for p in range(workloads.MAX_PASSES) for a in workloads.n64_alphas(5, p, 8)]
    assert len(set(seen)) == len(seen)
    assert all(0.0 <= a <= 1.0 for a in seen)
    assert workloads.n64_alphas(5, 0, 8)[:2] == [0.9, 1.0]


def _run_op(op, outdir):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([*op.argv, "--out", str(outdir)])


def _first_op(workload, rung, tmp_path):
    workloads.write_inputs(workload, 0, tmp_path / "in", passes=1)
    return next(op for op in workloads.pass_ops(workload, 0, 0, tmp_path / "in")
                if op.rung == rung)


def test_checker_flags_a_doctored_summary(tmp_path):
    op = _first_op("dynamics-greedy", "n64", tmp_path)
    assert op.alpha == 0.9
    out = tmp_path / "out"
    rc = _run_op(op, out)
    golden = checks.run_record(out)
    assert checks.check_op(op, rc, out, golden) == []

    path = out / "summary.json"
    summary = json.loads(path.read_text())
    summary["at_iter"] += 1
    path.write_text(json.dumps(summary))
    assert any("at_iter" in f for f in checks.check_op(op, rc, out, golden))

    summary["at_iter"] -= 1
    summary["sigma"][0] = np.roll(summary["sigma"][0], 1, axis=-1).tolist()
    path.write_text(json.dumps(summary))
    failures = checks.check_op(op, rc, out, None)
    assert any("known equilibrium" in f for f in failures)
    assert checks.check_op(op, 4, out, None)  # exit code outside the expected set


def test_checker_flags_doctored_bounds(tmp_path):
    op = _first_op("certify", "n64", tmp_path)
    out = tmp_path / "out"
    rc = _run_op(op, out)
    golden = checks.bounds_record(out)
    assert checks.check_op(op, rc, out, golden) == []
    path = out / "bounds.json"
    doc = json.loads(path.read_text())
    doc["rho"] *= 1 + 1e-6
    path.write_text(json.dumps(doc))
    assert any(f.startswith("rho=") for f in checks.check_op(op, rc, out, golden))


def _span(sid, start, end, parent, name="x", op="o"):
    return tracing.Span(sid, name, start, end, parent, op)


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        _span(0, 0.0, 10.0, None, tracing.ROOT),
        _span(1, 1.0, 4.0, 0),
        _span(2, 5.0, 9.0, 0),
        _span(3, 6.0, 7.0, 2),
        _span(4, 7.5, 8.0, 2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 3.0, 1: 3.0, 2: 2.5, 3: 1.0, 4: 0.5}
    assert sum(selfs.values()) == 10.0
    assert tracing.op_self_time_gaps(spans) == {"o": 0.0}
    # overlapping children are counted once
    assert tracing.self_times([_span(0, 0, 10, None), _span(1, 1, 4, 0), _span(2, 3, 6, 0)])[0] == 5


def test_tracer_covers_names_imported_by_name_and_restores_them(tmp_path):
    originals = (learning.consistent_model, chain_analysis.consistent_model, cli.main)
    op = _first_op("dynamics-softmax", "n64", tmp_path)
    tracer = tracing.Tracer()
    tracer.install(tracing.required_functions())
    try:
        assert tracer.missing == []
        assert learning.consistent_model is not originals[0]
        assert learning.consistent_model is chain_analysis.consistent_model
        tracer.begin_op(op.op_id)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = tracer.span(tracing.ROOT, cli.main, [*op.argv, "--out", str(tmp_path / "o")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (learning.consistent_model, chain_analysis.consistent_model, cli.main) == originals
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "chain_analysis.consistent_model", "chain_analysis.build_joint_transition",
            "learning.softmax_policy"} <= names
    assert max(tracing.op_self_time_gaps(tracer.spans).values()) < 1e-9
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["cli.main.calls"] == (1.0, "count")
    assert metrics["chain_analysis.build_joint_transition.repeat_share"][0] < 0.1


def test_a_missing_function_makes_its_metrics_absent():
    metrics = tracing.layer_metrics([], 1, missing=("chain_analysis.agent_step_factors",))
    assert "chain_analysis.agent_step_factors.self_s" not in metrics
    assert "chain_analysis.agent_step_factors.calls" not in metrics
    assert metrics["chain_analysis.build_joint_transition.calls"] == (0.0, "count")


def _write_simulate_output(outdir, max_abs_z, visits=5):
    outdir.mkdir(parents=True)
    (outdir / "comparison.json").write_text(json.dumps({"max_abs_z": max_abs_z}))
    (outdir / "counts.csv").write_text(
        "# seed=1\nagent,z,x,s,count,visits,frequency,stderr\n"
        f"1,1,1,1,2,{visits},0.4,0.2\n1,1,1,2,3,{visits},0.6,0.2\n")
    return outdir


def test_simulate_check_confirms_an_outlier_with_a_second_draw(tmp_path):
    out = _write_simulate_output(tmp_path / "first", 4.5)
    assert checks.check_simulate(_write_simulate_output(tmp_path / "ok", 1.0)) == []
    assert checks.check_simulate(out, lambda: _write_simulate_output(tmp_path / "calm", 1.2)) == []
    failures = checks.check_simulate(out, lambda: _write_simulate_output(tmp_path / "bad", 9.0))
    assert any("confirming draw" in f for f in failures)
    assert checks.check_simulate(_write_simulate_output(tmp_path / "unvisited", 1.0, visits=0))


def test_speed_samples_are_topped_up_and_left_out_of_the_cpu_clock():
    sampler = speed.SpeedSampler()
    cpu0 = sampler.cpu()
    factor = sampler.factor_since(sampler.mark())
    assert len(sampler.samples) == speed.MIN_SAMPLES
    assert factor == pytest.approx(speed.REFERENCE_S / np.mean(sampler.samples))
    # each sample also runs an untimed warm-up snippet, counted as snippet time
    assert sampler.snippet_cpu > sum(sampler.samples)
    assert sampler.cpu() - cpu0 < sampler.snippet_cpu
