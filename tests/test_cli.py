"""End-to-end command line behavior: exit codes, files, and output formats."""

import csv
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eee import chain_analysis, learning
from eee.cli import _load_spec, main
from eee.game_model import build_example1, example1_path, save_game

from conftest import sigma_star, signal_only_game

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


def test_run_without_out_records_the_default_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", SPEC, "--alpha", "0.9", "--max-iter", "3"]) == 4
    (out,) = (tmp_path / "out").iterdir()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["output_dir"] == str(out.relative_to(tmp_path))


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
    bad.write_text("[1, 2, 3]")
    mu = write_json(tmp_path / "mu.json", MU_ROUNDED)
    code = main(["verify", SPEC, "--alpha", "0.9", "--sigma", str(bad), "--mu", mu])
    assert code == 2
    assert "expected an object" in capsys.readouterr().err


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
    assert len(built) == 2  # the uncoupled reference, then the coupled chain
    doc = json.loads((out / "bounds.json").read_text())
    monkeypatch.undo()
    # oracle: the two-solve path, diagnostics and margins compared exactly
    spec = _load_spec(SPEC, 0.9)
    star = learning.Strategy(probs=tuple(sigma_star(spec)))
    fresh = chain_analysis.chain_diagnostics(spec, star)
    assert doc["diagnostics"] == {
        "kappa": fresh.kappa,
        "minimal_mass": list(fresh.minimal_mass),
        "signal_ceiling": list(fresh.signal_ceiling),
    }
    mu = chain_analysis.consistent_model(spec, star)
    xi = learning.margin(learning.solve_q_fixed_point(spec, mu), star)
    assert doc["inputs"]["xi"] == list(xi)


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
    (["run", "--policy", "softmax", "--tau", "-1"], "softmax temperatures must be positive"),
    (["bounds", "--tol", "-1"], "tol must be positive"),
], ids=["run-tau-count", "run-tau-sign", "bounds-tol"])
def test_a_bad_run_argument_writes_no_output_directory(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main([argv[0], SPEC, "--alpha", "0.9", *argv[1:], "--out", str(out)]) == 1
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
