"""End-to-end command line behavior: exit codes, files, and output formats."""

import csv
import json
import logging
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eee import chain_analysis, cli, coupling_bounds, learning
from eee.cli import _atomic_write, _load_spec, _sanitize, _trace_csv, main
from eee.game_model import (
    AgentSpec, GameSpec, build_example1, example1_path, game_to_jsonable, save_game, with_temperatures,
)

from conftest import diagnostics_at, oracle_trace_csv, random_game, sigma_star, signal_only_game

SPEC = str(example1_path())
SRC = str(Path(__file__).resolve().parents[1] / "src")

SIGMA_STAR = {
    "sigma": [
        [[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]],
        [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
    ]
}
MU_ROUNDED = {
    "mu": [
        [[[0.67, 0.33], [0.67, 0.33]], [[0.54, 0.46], [0.54, 0.46]]],
        [[[0.64, 0.36], [0.64, 0.36]], [[0.55, 0.45], [0.55, 0.45]]],
    ]
}


@pytest.fixture(autouse=True)
def fresh_logger():
    # each test binds the stderr handler to its own captured stream
    yield
    logging.getLogger("eee").handlers.clear()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_accepts_the_bundled_game(capsys):
    assert main(["validate", SPEC]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_names_the_broken_row(tmp_path, capsys):
    doc = json.loads(Path(SPEC).read_text())
    doc["uncoupled_env"][0] = [0.5, 0.25, 0.125, 0.0]
    bad = write_json(tmp_path / "bad.json", doc)
    assert main(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert "uncoupled env kernel: row 1 sums to 0.875" in out


def test_missing_file_is_a_parse_failure(capsys):
    assert main(["validate", "no-such-file.json"]) == 2
    assert main(["run", "no-such-file.json"]) == 2


def test_run_greedy_writes_the_full_bundle(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", SPEC, "--alpha", "0.9", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("converged at_iter=68")

    summary = json.loads((out / "summary.json").read_text())
    assert summary["outcome"] == "converged"
    assert summary["at_iter"] == 68
    assert summary["residual"] < 1e-9
    assert summary["sigma"] == SIGMA_STAR["sigma"]
    assert all(x > 0 for x in summary["xi"])
    assert summary["config"]["policy"] == "greedy"
    assert summary["config"]["alpha"] == 0.9

    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "iter,agent,z,x,a,sigma_prob,q_value,mu_1,mu_2,step_dq,step_dsigma"
    sigma_doc = json.loads((out / "sigma.json").read_text())
    assert sigma_doc == SIGMA_STAR
    mu_doc = json.loads((out / "mu.json").read_text())
    assert np.allclose(np.array(mu_doc["mu"][0])[0, :, 0], 0.67, atol=0.01)


def test_run_at_full_coupling_reports_the_cycle(tmp_path, capsys):
    assert main(["run", SPEC, "--out", str(tmp_path / "c")]) == 3
    stdout = capsys.readouterr().out
    assert "cycle period=2 first_seen=2 agents=[2]" in stdout
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["outcome"] == "cycle"
    assert summary["cycling_agents"] == [2]


def test_run_softmax_converges(tmp_path):
    code = main(["run", SPEC, "--alpha", "0.9", "--policy", "softmax",
                 "--tau", "1.0", "--out", str(tmp_path / "s")])
    assert code == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["outcome"] == "converged"
    # the second agent's action gap is small at z=2, so its softmax stays interior there
    second = np.array(summary["sigma"][1])
    assert np.all((second[1] > 0.2) & (second[1] < 0.8))


def test_run_iteration_cap_has_its_own_exit_code(tmp_path):
    assert main(["run", SPEC, "--alpha", "0.9", "--max-iter", "3",
                 "--out", str(tmp_path / "m")]) == 4


def test_run_with_a_one_action_agent_writes_its_infinite_margin(tmp_path, capsys):
    doc = json.loads(Path(SPEC).read_text())
    agent = doc["agents"][1]
    agent["n_actions"] = 1
    del agent["local_kernels"]["2"]
    agent["reward"] = [per_state[:1] for per_state in agent["reward"]]
    doc["env_kernels"] = {k: v for k, v in doc["env_kernels"].items() if k.endswith(",1")}
    out = tmp_path / "one"
    assert main(["run", write_json(tmp_path / "one.json", doc), "--alpha", "0.9", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("converged at_iter=68")
    assert json.loads((out / "summary.json").read_text())["xi"][-1] == "inf"


TRACE_CSV_CASES = [
    # game, alpha or seed, policy, RETAIN_FULL, TRACE_CHUNK_LINES
    pytest.param("ex1", 0.9, "greedy", None, None, id="ex1-greedy"),
    pytest.param("ex1", 0.9, "softmax", None, None, id="ex1-softmax"),
    pytest.param("ex1", 1.0, "greedy", None, None, id="ex1-cycle"),
    pytest.param("ex1", 0.9, "softmax", 20, 40, id="ex1-thinned"),  # 32 of 137 steps, chunks of 2
    # three agents with 3, 2 and 3 signals: agent 2's mu is padded; a chunk per step
    pytest.param("random", 11, "softmax", None, 10, id="game11-padded"),
]


@pytest.mark.parametrize("game, key, policy, retain, chunk", TRACE_CSV_CASES)
def test_trace_csv_equals_the_oracle(monkeypatch, ex1_family, game, key, policy, retain, chunk):
    if retain is not None:
        monkeypatch.setattr(learning, "RETAIN_FULL", retain)
    if chunk is not None:
        monkeypatch.setattr(cli, "TRACE_CHUNK_LINES", chunk)
    spec = ex1_family.at(key) if game == "ex1" else random_game(key, n_agents=3, max_dim=3)
    trace, _ = learning.q_value_iteration(spec, learning.PolicyRule(policy), tol=1e-9)
    chunks = list(_trace_csv(trace, spec))
    assert "".join(chunks) == oracle_trace_csv(trace, spec)
    assert len(chunks) > 2 if chunk else len(chunks) == 2


def test_run_without_out_records_the_default_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", SPEC, "--alpha", "0.9", "--max-iter", "3"]) == 4
    (out,) = (tmp_path / "out").iterdir()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["output_dir"] == str(out.relative_to(tmp_path))


def test_run_takes_one_temperature_per_agent(tmp_path):
    out = tmp_path / "t"
    assert main(["run", SPEC, "--alpha", "0.9", "--policy", "softmax", "--tau", "1.0", "0.5",
                 "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["tau"] == [1.0, 0.5]
    trace, report = learning.q_value_iteration(with_temperatures(_load_spec(SPEC, 0.9), (1.0, 0.5)),
                                                learning.PolicyRule("softmax"))
    assert summary["outcome"] == report.outcome == "cycle"
    assert summary["at_iter"] == report.at_iter
    assert summary["sigma"] == [p.tolist() for p in trace.final_sigma.probs]


def test_run_rejects_bad_controls(tmp_path, capsys):
    assert main(["run", SPEC, "--tol", "-1", "--out", str(tmp_path / "x")]) == 1
    assert main(["run", SPEC, "--alpha", "1.5", "--out", str(tmp_path / "y")]) == 1
    err = capsys.readouterr().err
    assert "tol must be positive" in err
    assert "alpha must lie in [0, 1]" in err


def test_sweep_orders_rows_by_alpha(tmp_path, capsys):
    out = tmp_path / "sw"
    assert main(["sweep", SPEC, "--alphas", "1.0", "0.0", "0.9", "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["alpha"] for r in rows] == ["0.0", "0.9", "1.0"]
    assert [r["outcome"] for r in rows] == ["converged", "converged", "cycle"]
    assert rows[2]["steps"] == "2"
    lams = [float(r["lambda"]) for r in rows]
    assert lams[0] == 0.0 and lams[0] < lams[1] < lams[2]
    assert all(float(r["rho"]) > 0 for r in rows)
    assert all(r["error"] == "" for r in rows)


def test_sweep_records_an_error_row_and_goes_on(tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", SPEC, "--alphas", "1.5", "0.0", "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        ok, bad = csv.DictReader(fh)
    assert ok["outcome"] == "converged" and ok["error"] == ""
    assert bad == {"alpha": "1.5", "outcome": "", "steps": "", "final_q_norm": "", "lambda": "", "rho": "",
                   "error": "alpha must lie in [0, 1], got 1.5"}


def test_sweep_computes_kappa_once_per_command(tmp_path, monkeypatch):
    calls = []
    real = chain_analysis.meyer_condition_number
    monkeypatch.setattr(chain_analysis, "meyer_condition_number", lambda T: calls.append(T) or real(T))
    assert main(["sweep", SPEC, "--alphas", "0.0", "0.9", "1.0", "--out", str(tmp_path / "sw")]) == 0
    assert len(calls) == 1


def test_sweep_rho_is_the_contraction_factor_at_the_given_temperatures(tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", SPEC, "--alphas", "0.9", "1.0", "--policy", "softmax", "--tau", "0.5", "0.25",
                 "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        spec = with_temperatures(_load_spec(SPEC, float(row["alpha"])), (0.5, 0.25))
        trace, _ = learning.q_value_iteration(spec, learning.PolicyRule("softmax"))
        diagnostics = diagnostics_at(spec, trace.final_sigma)
        assert row["rho"] == repr(coupling_bounds.contraction_factor(spec, diagnostics, coupling_bounds.coupling_value(spec)))


def test_sweep_with_a_wrong_temperature_count_records_error_rows(tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", SPEC, "--alphas", "0.0", "0.9", "--tau", "1", "2", "3", "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["error"] for r in rows] == ["expected 2 temperatures, got 3"] * 2
    assert all(r["outcome"] == "" and r["lambda"] != "" for r in rows)


def test_verify_rejects_a_wrong_temperature_count(tmp_path, capsys):
    sigma = write_json(tmp_path / "sigma.json", SIGMA_STAR)
    mu = write_json(tmp_path / "mu.json", MU_ROUNDED)
    for approx in ([], ["--approx"]):
        assert main(["verify", SPEC, "--alpha", "0.9", "--sigma", sigma, "--mu", mu,
                     "--tau", "1", "2", "3", *approx]) == 1
        assert "error: expected 2 temperatures, got 3" in capsys.readouterr().err


def test_verify_accepts_the_rounded_profile(tmp_path, capsys):
    sigma = write_json(tmp_path / "sigma.json", SIGMA_STAR)
    mu = write_json(tmp_path / "mu.json", MU_ROUNDED)
    code = main(["verify", SPEC, "--alpha", "0.9", "--sigma", sigma,
                 "--mu", mu, "--tol", "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    assert "optimality_ok=True" in out
    assert "consistency_ok=True" in out
    assert "equilibrium verified at tol=0.01" in out


def test_verify_rejects_a_swapped_strategy(tmp_path, capsys):
    swapped = {"sigma": [SIGMA_STAR["sigma"][1], SIGMA_STAR["sigma"][0]]}
    sigma = write_json(tmp_path / "sigma.json", swapped)
    mu = write_json(tmp_path / "mu.json", MU_ROUNDED)
    code = main(["verify", SPEC, "--alpha", "0.9", "--sigma", sigma,
                 "--mu", mu, "--tol", "0.01"])
    assert code == 1
    assert "optimality_ok=False" in capsys.readouterr().out


def test_verify_strict_tolerance_flags_the_rounding(tmp_path, capsys):
    sigma = write_json(tmp_path / "sigma.json", SIGMA_STAR)
    mu = write_json(tmp_path / "mu.json", MU_ROUNDED)
    code = main(["verify", SPEC, "--alpha", "0.9", "--sigma", sigma,
                 "--mu", mu, "--tol", "1e-6"])
    assert code == 1
    out = capsys.readouterr().out
    assert "consistency_ok=False" in out


def test_verify_rejects_malformed_profiles(tmp_path, capsys):
    bad = tmp_path / "sigma.json"
    mu = write_json(tmp_path / "mu.json", MU_ROUNDED)
    for text, message in [
        ("[1, 2, 3]", "expected an object with a 'sigma' field"),
        ("{not json", "invalid JSON"),
        ('{"sigma": []}', "'sigma' must be a non-empty array of per-agent tables"),
        ('{"sigma": [[["x"]]]}', "agent 1 table is not numeric"),
    ]:
        bad.write_text(text)
        code = main(["verify", SPEC, "--alpha", "0.9", "--sigma", str(bad), "--mu", mu])
        assert code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("model, message", [
    ({"mu": [[0.5, 0.5], [0.5, 0.5]]}, "agent 1 model shape (2,), expected (2, 2, 2)"),
    ({"mu": [[[[-3.0, 4.0], *MU_ROUNDED["mu"][0][0][1:]], MU_ROUNDED["mu"][0][1]], MU_ROUNDED["mu"][1]]},
     "agent 1 model has a negative or non-finite entry"),
], ids=["one-row-per-agent", "negative-row"])
def test_verify_rejects_a_malformed_model_at_once(tmp_path, capsys, model, message):
    sigma = write_json(tmp_path / "sigma.json", SIGMA_STAR)
    mu = write_json(tmp_path / "mu.json", model)
    start = time.perf_counter()
    code = main(["verify", SPEC, "--alpha", "0.9", "--sigma", sigma, "--mu", mu])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_verify_approx_accepts_the_softmax_run(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["run", SPEC, "--alpha", "0.9", "--policy", "softmax", "--tau", "1.0", "--out", str(out)]) == 0
    code = main(["verify", SPEC, "--alpha", "0.9", "--sigma", str(out / "sigma.json"),
                 "--mu", str(out / "mu.json"), "--approx", "--tau", "1.0", "--tol", "1e-6"])
    assert code == 0
    assert "approximate equilibrium verified at tol=1e-06" in capsys.readouterr().out


def test_bounds_certifies_the_uncoupled_game(tmp_path, capsys):
    out = tmp_path / "b0"
    assert main(["bounds", SPEC, "--alpha", "0.0", "--out", str(out)]) == 0
    assert "certified=True" in capsys.readouterr().out
    doc = json.loads((out / "bounds.json").read_text())
    assert doc["coupling"]["lambda"] == 0.0
    assert doc["rho"] == 0.7
    assert doc["rho_certified"] is True
    assert doc["sigma_source"] == "greedy-run-converged"
    assert doc["margin_condition_holds"] == [True, True]
    assert all(x > 0 for x in doc["inputs"]["xi"])


def test_bounds_lambda_scales_with_alpha(tmp_path):
    assert main(["bounds", SPEC, "--alpha", "0.9", "--out", str(tmp_path / "b9")]) == 0
    assert main(["bounds", SPEC, "--out", str(tmp_path / "b1")]) == 0
    d9 = json.loads((tmp_path / "b9" / "bounds.json").read_text())
    d1 = json.loads((tmp_path / "b1" / "bounds.json").read_text())
    assert d9["coupling"]["lambda"] == pytest.approx(0.9 * d1["coupling"]["lambda"], rel=1e-12)
    assert d1["sigma_source"] == "greedy-run-cycle"
    assert d9["rho_certified"] is False


def test_bounds_with_a_fixed_strategy_builds_each_chain_once(tmp_path, monkeypatch):
    built = []
    real_build = chain_analysis.build_joint_transition

    def spy(spec, sigma):
        built.append(spec)
        return real_build(spec, sigma)

    monkeypatch.setattr(chain_analysis, "build_joint_transition", spy)
    sigma = write_json(tmp_path / "sigma.json", SIGMA_STAR)
    out = tmp_path / "b"
    assert main(["bounds", SPEC, "--alpha", "0.9", "--sigma", sigma, "--out", str(out)]) == 0
    assert len(built) == 2  # the coupled chain, then the uncoupled reference
    doc = json.loads((out / "bounds.json").read_text())
    monkeypatch.undo()
    # oracle: the two-solve path, diagnostics and margins compared exactly
    spec = _load_spec(SPEC, 0.9)
    star = learning.Strategy(probs=tuple(sigma_star(spec)))
    fresh = diagnostics_at(spec, star)
    assert doc["diagnostics"] == {
        "kappa": fresh.kappa,
        "minimal_mass": list(fresh.minimal_mass),
        "signal_ceiling": [ag.signal_ceiling for ag in spec.agents],
    }
    mu = chain_analysis.consistent_model(spec, star)
    xi = learning.margin(learning.solve_q_fixed_point(spec, mu), star)
    assert doc["inputs"]["xi"] == list(xi)


def test_bounds_with_a_mixed_sigma_leaves_the_margin_condition_open(tmp_path):
    spec = _load_spec(SPEC, 0.9)
    uniform = chain_analysis.uniform_strategy(spec)
    sigma = write_json(tmp_path / "sigma.json", {"sigma": [p.tolist() for p in uniform]})
    out = tmp_path / "b"
    assert main(["bounds", SPEC, "--alpha", "0.9", "--sigma", sigma, "--out", str(out)]) == 0
    doc = json.loads((out / "bounds.json").read_text())
    assert doc["sigma_source"] == "supplied"
    assert doc["margin_condition_holds"] is None
    assert doc["inputs"]["xi"] is None
    assert doc["diagnostics"]["minimal_mass"] == list(diagnostics_at(spec, uniform).minimal_mass)


def test_bounds_needs_references_unless_told_otherwise(tmp_path, capsys):
    doc = json.loads(Path(SPEC).read_text())
    del doc["uncoupled_env"]
    for ag in doc["agents"]:
        del ag["uncoupled_local"]
    stripped = write_json(tmp_path / "stripped.json", doc)
    assert main(["bounds", stripped, "--out", str(tmp_path / "nf")]) == 1
    assert "uncoupled environment kernel missing" in capsys.readouterr().err
    assert not (tmp_path / "nf").exists()
    out = tmp_path / "fb"
    assert main(["bounds", stripped, "--allow-fallback", "--out", str(out)]) == 0
    bj = json.loads((out / "bounds.json").read_text())
    assert bj["coupling"]["reference_source"] == "fallback"


def test_simulate_with_empty_window_warns_and_writes_zeros(tmp_path, capsys):
    sigma = write_json(tmp_path / "sigma.json", SIGMA_STAR)
    out = tmp_path / "sim"
    code = main(["simulate", SPEC, "--alpha", "0.9", "--sigma", sigma,
                 "--horizon", "300", "--burn-in", "300", "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "counts.csv").read_text().splitlines()
    assert lines[0].startswith("# seed=9 horizon=300 burn_in=300")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 16
    assert all(r["count"] == "0" and r["visits"] == "0" and r["frequency"] == "" for r in rows)
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["n_defined_cells"] == 0
    assert comparison["max_abs_gap"] == 0.0


@pytest.mark.parametrize("window", [("10", "100"), ("-5", "0")])
def test_simulate_with_a_bad_window_writes_no_output_directory(tmp_path, capsys, window):
    sigma = write_json(tmp_path / "sigma.json", SIGMA_STAR)
    out = tmp_path / "d"
    horizon, burn_in = window
    code = main(["simulate", SPEC, "--alpha", "0.9", "--sigma", sigma,
                 "--horizon", horizon, "--burn-in", burn_in, "--out", str(out)])
    assert code == 1
    assert "need horizon >= burn_in >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--policy", "softmax", "--tau", "1", "2", "3"], "expected 2 temperatures, got 3"),
    (["run", "--tau", "1", "2", "3"], "expected 2 temperatures, got 3"),
    (["run", "--policy", "softmax", "--tau", "-1"], "softmax temperatures must be positive"),
    (["run", "--policy", "softmax", "--tau", "nan"], "softmax temperatures must be positive"),
    (["bounds", "--tol", "-1"], "tol must be positive"),
], ids=["run-tau-count", "run-greedy-tau-count", "run-tau-sign", "run-tau-nan", "bounds-tol"])
def test_a_bad_run_argument_writes_no_output_directory(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main([argv[0], SPEC, "--alpha", "0.9", *argv[1:], "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("profile, code, message", [
    (None, 2, "No such file or directory"),
    ({"sigma": [[[1.0, 0.0]], [[1.0, 0.0]]]}, 1, "agent 1 strategy shape (1, 2), expected (2, 2, 2)"),
], ids=["missing-file", "wrong-shape"])
def test_bounds_with_a_bad_sigma_writes_no_output_directory(tmp_path, capsys, profile, code, message):
    sigma = str(tmp_path / "nofile.json") if profile is None else write_json(tmp_path / "s.json", profile)
    out = tmp_path / "ob"
    assert main(["bounds", SPEC, "--alpha", "0.9", "--sigma", sigma, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("policy", ["greedy", "softmax"])
def test_build_example1_runs_the_bundled_file(tmp_path, policy):
    out = tmp_path / "r"
    main(["run", SPEC, "--alpha", "0.9", "--policy", policy, "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    trace, report = learning.q_value_iteration(build_example1().at(0.9), learning.PolicyRule(policy))
    assert summary["final_q_norm"] == trace.final_q.max_norm()
    assert summary["residual"] == report.residual
    assert summary["sigma"] == [p.tolist() for p in trace.final_sigma.probs]
    assert summary["mu"] == [m.tolist() for m in trace.final_mu.mu]


def test_simulate_is_deterministic_per_seed(tmp_path):
    sigma = write_json(tmp_path / "sigma.json", SIGMA_STAR)
    args = ["simulate", SPEC, "--alpha", "0.9", "--sigma", sigma,
            "--horizon", "4000", "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "counts.csv").read_bytes()
    b = (tmp_path / "b" / "counts.csv").read_bytes()
    assert a == b
    comparison = json.loads((tmp_path / "a" / "comparison.json").read_text())
    assert comparison["n_defined_cells"] == 16
    assert comparison["max_abs_z"] < 5.0


def write_signal_only_game(tmp_path, n_agents):
    spec, sigma = signal_only_game(n_agents)
    path = tmp_path / f"game{n_agents}.json"
    save_game(spec, path)
    return str(path), write_json(tmp_path / f"sigma{n_agents}.json", {"sigma": [p.tolist() for p in sigma]})


def test_simulate_thirteen_agents_compares_with_the_exact_model(tmp_path):
    spec, sigma = write_signal_only_game(tmp_path, 13)
    out = tmp_path / "sim"
    code = main(["simulate", spec, "--sigma", sigma, "--horizon", "2000",
                 "--burn-in", "0", "--seed", "1", "--out", str(out)])
    assert code == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["max_abs_gap"] < 0.05


@pytest.mark.parametrize("n_agents", [16, 22])
def test_simulate_with_too_many_agents_fails_before_sampling(tmp_path, capsys, n_agents):
    spec, sigma = write_signal_only_game(tmp_path, n_agents)
    out = tmp_path / "sim"
    start = time.perf_counter()
    code = main(["simulate", spec, "--sigma", sigma, "--horizon", "100000",
                 "--burn-in", "0", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert "limit of 15" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_with_too_many_agents_exits_1_without_a_traceback(tmp_path, capsys):
    spec, _ = write_signal_only_game(tmp_path, 16)
    assert main(["run", spec, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "limit of 15" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def big_chain_game(tmp_path_factory):
    """One agent with 700 memory and 700 local states: 490,000 joint states,
    whose dense path needs terabytes, in a 3 MB file."""
    ag = AgentSpec(
        n_states=700, n_actions=1, n_signals=1, n_memory=700,
        signal_kernel=np.ones((1, 1)),
        local_kernels=np.eye(700)[None],
        memory_rule=np.arange(700)[:, None],
        reward=np.zeros((700, 1, 1)),
        discount=0.5,
    )
    path = tmp_path_factory.mktemp("big") / "game.json"
    path.write_text(json.dumps(game_to_jsonable(GameSpec(n_env=1, env_kernels=np.ones((1, 1, 1)), agents=(ag,)))))
    return str(path)


@pytest.mark.parametrize("argv", [["run"], ["bounds", "--allow-fallback"]], ids=["run", "bounds"])
def test_a_chain_past_the_byte_budget_fails_before_any_output(tmp_path, capsys, big_chain_game, argv):
    out = tmp_path / "o"
    start = time.perf_counter()
    code = main([argv[0], big_chain_game, *argv[1:], "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: the 490000 joint states of the dense chain need {8 * 4 * 490_000**2} bytes" in err
    assert "above the dense limit" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_atomic_write_leaves_no_temporary_file_when_writing_fails(tmp_path):
    with pytest.raises(TypeError):
        _atomic_write(tmp_path / "x.json", None)
    assert list(tmp_path.iterdir()) == []


def test_sanitize_spells_out_infinities_for_strict_json():
    doc = {"a": [math.inf, -math.inf, math.nan, 1.5], "b": (True, None), "c": (np.array([[math.nan, 2.0]]),)}
    assert _sanitize(doc) == {"a": ["inf", "-inf", None, 1.5], "b": [True, None], "c": [[[None, 2.0]]]}


def test_module_entry_point_runs(tmp_path):
    # the subprocess runs elsewhere, so a relative PYTHONPATH would not find the package
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "eee", "validate", SPEC],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"


def test_log_level_env_var_gates_messages(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("EEE_LOG", "quiet")
    with caplog.at_level(logging.DEBUG, logger="tests.cli"):
        main(["run", SPEC, "--alpha", "0.9", "--max-iter", "2", "--out", str(tmp_path / "q")])
    assert not [r for r in caplog.records if r.name == "eee" and r.levelno < logging.ERROR]

    logging.getLogger("eee").handlers.clear()
    caplog.clear()
    monkeypatch.setenv("EEE_LOG", "info")
    main(["run", SPEC, "--alpha", "0.9", "--max-iter", "2", "--out", str(tmp_path / "i")])
    assert any(r.name == "eee" and "outcome" in r.message for r in caplog.records)
