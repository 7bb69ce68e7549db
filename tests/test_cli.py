"""CLI: exit codes, output schemas, determinism, bundled fixtures, and
config handling."""

import json
import os
import subprocess
import sys

import pytest

import polybubble
from polybubble.cli import main

FIXTURES = os.path.join(os.path.dirname(polybubble.__file__), "fixtures")


def run_cli(args, tmp_path, name="runs"):
    out = str(tmp_path / name)
    code = main(["--out", out] + args)
    return code, out


def test_bubble_check_single_pair(tmp_path):
    code, out = run_cli(["bubble-check", "--n", "7", "--k", "1"], tmp_path)
    assert code == 0
    rep = json.loads(open(os.path.join(out, "bubble-check",
                                       "bubble_check.json")).read())
    assert rep["cases"][0]["symbolic_pass"]
    assert rep["cases"][0]["numeric_residual"] < 1e-9
    assert rep["failures"] == []


def test_bubble_check_invalid_pair_usage_error(tmp_path):
    code, _ = run_cli(["bubble-check", "--n", "2", "--k", "1"], tmp_path)
    assert code == 2
    # half a pair is refused, not widened to the full range
    for half in (["--n", "5"], ["--k", "1"]):
        assert run_cli(["bubble-check"] + half, tmp_path)[0] == 2


def test_removed_jobs_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "--jobs", "2", "bubble-check"])
    assert exc.value.code == 2


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_cayley_green_small(tmp_path):
    code, out = run_cli(["cayley-green", "--n", "3", "--k", "1",
                         "--pairs", "20"], tmp_path)
    assert code == 0
    rep = json.loads(open(os.path.join(out, "cayley-green",
                                       "cayley_green.json")).read())
    assert rep["distance_identity_max_residual"] < 1e-12
    assert rep["green_conjugation_max_residual"] < 1e-10
    assert all(r["passed"] for r in rep["norm_invariance"])


def test_cayley_green_zero_pairs_usage(tmp_path):
    code, _ = run_cli(["cayley-green", "--n", "3", "--k", "1",
                       "--pairs", "0"], tmp_path)
    assert code == 2


def test_tree_fixture_tower(tmp_path):
    code, out = run_cli(["tree", os.path.join(FIXTURES, "tower.json")],
                        tmp_path)
    assert code == 0
    inf = json.loads(open(os.path.join(out, "tree", "influence.json")).read())
    assert inf["interacting"]["0"] == [1]
    csv_text = open(os.path.join(out, "tree", "tree_ratios.csv")).read()
    assert csv_text.startswith("kind,")
    assert "interaction" in csv_text


def test_tree_fixture_separated_has_no_interacting(tmp_path):
    code, out = run_cli(["tree", os.path.join(FIXTURES, "separated.json")],
                        tmp_path)
    assert code == 0
    inf = json.loads(open(os.path.join(out, "tree", "influence.json")).read())
    assert inf["interacting"]["0"] == [] and inf["interacting"]["1"] == []


def test_tree_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    code, _ = run_cli(["tree", str(bad)], tmp_path)
    assert code == 2
    code2, _ = run_cli(["tree", str(tmp_path / "missing.json")], tmp_path)
    assert code2 == 2


def test_pohozaev_manufactured_suite(tmp_path):
    code, out = run_cli(["pohozaev", "--k", "2", "--n", "5"], tmp_path)
    assert code == 0
    rep = json.loads(open(os.path.join(out, "pohozaev",
                                       "pohozaev_manufactured.json")).read())
    assert all(r["residual_rel"] < 1e-6 for r in rep)
    # the shifted-xi row runs on non-radial data, so it is not the xi = 0 row
    assert rep[1]["terms"]["lhs"] != pytest.approx(rep[0]["terms"]["lhs"],
                                                 rel=1e-6)


@pytest.mark.parametrize("k,n", [(1, 3), (2, 5), (3, 7)])
def test_pohozaev_manufactured_gate_is_absolute(tmp_path, k, n):
    """The suite passes on residual_abs within the absolute budget, the
    gate of acceptance criterion 5."""
    code, out = run_cli(["pohozaev", "--k", str(k), "--n", str(n)], tmp_path)
    assert code == 0
    rep = json.loads(open(os.path.join(out, "pohozaev",
                                       "pohozaev_manufactured.json")).read())
    assert all(r["residual_abs"] <= max(r["budget"], 1e-12) for r in rep)


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
def test_pohozaev_bubble_suite(tmp_path, n, k):
    code, out = run_cli(["pohozaev", "--suite", "bubble", "--n", str(n),
                         "--k", str(k)], tmp_path)
    assert code == 0
    rep = json.loads(open(os.path.join(out, "pohozaev",
                                       "pohozaev_bubble.json")).read())
    assert rep[0]["residual_rel"] <= 1e-12


def test_pohozaev_unknown_suite(tmp_path):
    code, _ = run_cli(["pohozaev", "--suite", "nope"], tmp_path)
    assert code == 2


def test_solve_and_determinism(tmp_path):
    args = ["solve", "--n", "7", "--k", "1", "--p", "0",
            "--mu-grid", "-0.5", "-0.25"]
    code1, out1 = run_cli(args, tmp_path, "runA")
    code2, out2 = run_cli(args, tmp_path, "runB")
    assert code1 == 0 and code2 == 0
    csv1 = open(os.path.join(out1, "solve", "branch.csv")).read()
    csv2 = open(os.path.join(out2, "solve", "branch.csv")).read()
    assert csv1 == csv2  # byte-identical branch output
    man = json.loads(open(os.path.join(out1, "solve",
                                       "solve_manifest.json")).read())
    assert man["flag"] == "complete"
    lines = csv1.splitlines()
    assert lines[0] == ("mu_param,sup_norm,energy,mu_fit,fit_residual,"
                        "poho_term,collocation_residual")
    sups = [float(l.split(",")[1]) for l in lines[1:]]
    assert sups[1] > sups[0]
    assert all(float(l.split(",")[-1]) < 1e-7 for l in lines[1:])
    assert man["integrator"] == "dop853-adaptive" and man["verifier"] == "lsoda"


def test_solve_seed_blowup_is_accuracy_failure(tmp_path, capsys):
    """A seed solve that blows up (n=9, k=2 from the default seed) exits 3
    with a one-line message, not 1 with a traceback."""
    assert run_cli(["solve", "--n", "9", "--k", "2", "--p", "0"],
                   tmp_path)[0] == 3
    err = capsys.readouterr().err
    assert "blew up" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_solve_trivial_seed_state_is_accuracy_failure(tmp_path, capsys):
    """For n = 12 the seed solve reaches the trivial state, which fails the
    collocation check: solve exits 3 with a one-line message."""
    assert run_cli(["solve", "--n", "12"], tmp_path)[0] == 3
    err = capsys.readouterr().err
    assert "collocation residual" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_solve_lost_bubble_fit_is_verification_failure(tmp_path, capsys):
    """From a negative seed, n = 6 converges to the negative ground state;
    the bubble fit refuses it, and solve exits 1 with a one-line message."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"d_seed": [-1.2e4]}))
    assert run_cli(["--config", str(cfgfile), "solve", "--n", "6"],
                   tmp_path)[0] == 1
    err = capsys.readouterr().err
    assert "bubble fit" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_solve_default_seed_n6_stays_positive(tmp_path):
    """From the default seed, n = 6 stays on the positive ground state and
    the whole default branch completes."""
    code, out = run_cli(["solve", "--n", "6"], tmp_path)
    assert code == 0
    lines = open(os.path.join(out, "solve", "branch.csv")).read().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(2298.16, rel=1e-5)


def test_solve_seed_newton_failure_is_accuracy_failure(tmp_path, capsys,
                                                       monkeypatch):
    from polybubble import solver

    def failing(*args, **kwargs):
        raise solver.NewtonFailure("damping failed to reduce the mismatch")

    monkeypatch.setattr(solver, "newton_solve", failing)
    assert run_cli(["solve"], tmp_path)[0] == 3
    err = capsys.readouterr().err
    assert "damping failed" in err and "Traceback" not in err


def test_solve_empty_grid_usage(tmp_path):
    code, _ = run_cli(["solve", "--mu-grid"], tmp_path)
    assert code == 2


@pytest.mark.parametrize("args", [["solve", "--n", "4", "--k", "2"],
                                  ["solve", "--p", "3"],
                                  ["cayley-green", "--n", "2", "--k", "1"],
                                  ["solve", "--rtol", "1e-30"],
                                  ["solve", "--rtol", "0"],
                                  ["solve", "--rtol", "nan"],
                                  ["pohozaev", "--k", "0"],
                                  ["pohozaev", "--k", "-1"],
                                  ["pohozaev", "--suite", "bubble", "--k", "1",
                                   "--n", "2"],
                                  ["bubble-check", "--n-max", "2"],
                                  ["bubble-check", "--k-max", "0"],
                                  ["bubble-check", "--n", "3", "--k", "0"],
                                  ["cayley-green", "--n", "3", "--k", "0"],
                                  ["pohozaev", "--k", "1", "--n", "0"]])
def test_invalid_parameters_are_usage_errors(tmp_path, capsys, args):
    """Parameters outside k >= 1, n > 2k, 0 <= p < k, an empty bubble-check
    range, and a solver rtol below what the integrator can reach, exit 2
    with a one-line message, not 0 with an empty or meaningless report, 1
    with a traceback (1 means a verification failure) or 3 after a futile
    solve."""
    assert run_cli(args, tmp_path)[0] == 2
    err = capsys.readouterr().err
    assert "invalid" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 7, "k": 1}))
    out = str(tmp_path / "cfgd")
    code = main(["--config", str(cfgfile), "--out", out, "bubble-check"])
    assert code == 0
    man = json.loads(open(os.path.join(out, "bubble-check",
                                       "manifest.json")).read())
    assert man["params"]["n"] == 7 and "timestamp" in man


def test_console_entry_point(tmp_path):
    """python -m polybubble.cli works as a process."""
    proc = subprocess.run(
        [sys.executable, "-m", "polybubble.cli", "--out",
         str(tmp_path / "proc"), "bubble-check", "--n", "5", "--k", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_package_runs_as_module(tmp_path):
    """python -m polybubble works as a process."""
    proc = subprocess.run(
        [sys.executable, "-m", "polybubble", "--out", str(tmp_path / "proc"),
         "bubble-check", "--n", "3", "--k", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
