"""CLI: exit codes, output schemas, determinism, bundled fixtures, and
config handling."""

import gc
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import polybubble
from polybubble.cli import main

FIXTURES = os.path.join(os.path.dirname(polybubble.__file__), "fixtures")


def run_cli(args, tmp_path, name="runs"):
    out = str(tmp_path / name)
    code = main(["--out", out] + args)
    return code, out


def write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_report(out, command, name):
    with open(os.path.join(out, command, name)) as fh:
        return json.load(fh)


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


def test_cayley_green_k3_passes(tmp_path):
    """k = 3 takes grad Delta from order-3 Taylor expansions on the
    degree-5 direction rule; the finite differences it replaced missed the
    1e-5 gate here."""
    code, out = run_cli(["cayley-green", "--n", "7", "--k", "3",
                         "--pairs", "20"], tmp_path)
    assert code == 0
    rep = read_report(out, "cayley-green", "cayley_green.json")
    assert all(r["derivative_rel"] < 1e-10 for r in rep["norm_invariance"])


def test_cayley_green_zero_pairs_usage(tmp_path):
    code, _ = run_cli(["cayley-green", "--n", "3", "--k", "1",
                       "--pairs", "0"], tmp_path)
    assert code == 2


def test_cayley_green_refuses_orders_beyond_the_direction_rules(tmp_path):
    """k = 5 needs a direction rule of degree 6, which no rule reaches: one
    usage line within seconds, not hours of integrals on a product rule."""
    proc = subprocess.run(
        [sys.executable, "-m", "polybubble", "--out", str(tmp_path / "proc"),
         "cayley-green", "--n", "11", "--k", "5", "--pairs", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid input: ")
    assert len(proc.stderr.splitlines()) == 1


def test_tree_fixture_tower(tmp_path):
    code, out = run_cli(["tree", os.path.join(FIXTURES, "tower.json")],
                        tmp_path)
    assert code == 0
    inf = json.loads(open(os.path.join(out, "tree", "influence.json")).read())
    assert inf["interacting"]["0"] == [1]
    csv_text = open(os.path.join(out, "tree", "tree_ratios.csv")).read()
    assert csv_text.startswith("kind,")
    assert "interaction" in csv_text


@pytest.mark.parametrize("args", [
    ["tree", os.path.join(FIXTURES, "tower.json")],
    ["solve", "--n", "7", "--mu-grid", "-0.5", "-0.25"],
], ids=["tree", "solve"])
def test_every_report_arrives_by_one_rename(tmp_path, monkeypatch, args):
    """Each file a command leaves in its output directory, the CSV tables
    included, was moved there by one os.replace of a finished temp file:
    none is written in place."""
    renamed, replace = [], os.replace

    def spy(src, dst):
        renamed.append(os.path.abspath(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    code, out = run_cli(args, tmp_path)
    assert code == 0
    d = os.path.abspath(os.path.join(out, args[0]))
    assert sorted(renamed) == sorted(os.path.join(d, f) for f in os.listdir(d))


def test_tree_draws_one_sample_set_per_region_and_check(tmp_path, monkeypatch):
    """The 2k dominance constants and the interaction sup of a region share
    one draw of its sample points: one draw per bubble."""
    from polybubble import tree
    regions, draw = [], tree.stratified_samples

    def spy(region, *args):
        regions.append(region)
        return draw(region, *args)

    monkeypatch.setattr(tree, "stratified_samples", spy)
    code, out = run_cli(["tree", os.path.join(FIXTURES, "tower.json")], tmp_path)
    assert code == 0
    assert len(regions) == 2 and regions[0] is not regions[1]


def test_tree_offaxis_fixture_takes_qmc_for_eta1(tmp_path, monkeypatch):
    """Bubble 1 of offaxis.json sits off bubble 0's line, so eta1 (the
    integral whose declared singularities are the bubbles' peaks, all of
    order 0) has no common axis and runs on the QMC rule."""
    from polybubble import weights
    calls, integrate_volume = [], weights.integrate_volume

    def spy(f, dom, **kwargs):
        calls.append((kwargs.get("axis"), [s.order for s in dom.singularities]))
        return integrate_volume(f, dom, **kwargs)

    monkeypatch.setattr(weights, "integrate_volume", spy)
    code, out = run_cli(["tree", os.path.join(FIXTURES, "offaxis.json")], tmp_path)
    assert code == 0
    assert [axis for axis, orders in calls if orders == [0.0, 0.0]] == [None]
    eta = read_report(out, "tree", "eta.json")
    assert np.isfinite(eta["eta1"]) and eta["eta1"] > 0


def test_accuracy_error_exits_3(tmp_path, monkeypatch, capsys):
    """main turns an AccuracyError from any command into exit 3 and one
    stderr line."""
    from polybubble import cli
    from polybubble.quadrature import AccuracyError

    def fail(ns):
        raise AccuracyError("x")

    monkeypatch.setitem(cli._COMMANDS, "bubble-check", fail)
    assert run_cli(["bubble-check"], tmp_path)[0] == 3
    assert capsys.readouterr().err == "accuracy failure: x\n"


def test_tree_closes_its_config_file(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _ = run_cli(["tree", os.path.join(FIXTURES, "separated.json")],
                          tmp_path)
        gc.collect()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


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


def test_tree_refuses_a_directory(tmp_path, capsys):
    """A directory in place of the config file exits 2 with one line, as
    --config does."""
    code, out = run_cli(["tree", FIXTURES], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("cannot read tree config file: ")
    assert not os.path.exists(os.path.join(out, "tree", "influence.json"))


@pytest.mark.parametrize("part,key,value", [
    ("bubble", "kind", "boundary"),
    ("bubble", "profile", "external"),
    ("bubble", "center", [0.4, 0.0]),
    ("domain", "center", [0.0, 0.0]),
    ("domain", "radius", -1.0),
    ("bubble", "center", [2.0] + [0.0] * 6),
    ("config", "nu", {"5,0": 0.1}),
    ("config", "nu", {"0,9": 0.1}),
    ("config", "nu", []),
    ("config", "nu", {"0,0": 0.1}),
    ("config", "nu", {}),
    ("config", "bubbles", {}),
    ("config", "domain", [0, 1]),
    ("config", "family_law", []),
    ("config", "extra", 1),
    ("bubble", "extra", 1),
    ("config", "alpha", 100.0),
    ("config", "include_u0", True),
    ("family_law", "center_exp", [1, 1]),
    ("bubble", "k", 1.5),
    ("bubble", "n", 7.0),
    ("bubble", "mu", float("nan")),
    ("bubble", "center", [float("nan")] + [0.0] * 6),
    ("domain", "center", [float("inf")] + [0.0] * 6),
    ("domain", "radius", float("inf")),
    ("family_law", "mu_exp", [1.0]),
    ("family_law", "center_base", [[0.4], [-0.4]]),
    ("family_law", "mu_coeff", [-1.0, 0.8]),
    ("family_law", "mu_coeff", [0.0, 0.8]),
    ("family_law", "mu_coeff", [float("nan"), 0.8]),
    ("family_law", "mu_exp", [float("nan"), 1.0]),
    ("family_law", "mu_exp", [2.0, 1.0]),
    ("bubble", "mu", 0.02),
    ("family_law", "center_base", [[0.5] + [0.0] * 6, [-0.4] + [0.0] * 6]),
], ids=["boundary-kind", "external-profile", "short-center", "short-domain-center",
        "negative-radius", "center-outside", "nu-bubble-index", "nu-kernel-index",
        "nu-list", "nu-in-range", "empty-nu", "bubbles-object", "domain-list", "family-law-list",
        "unknown-key", "unknown-bubble-key", "alpha", "include-u0", "center-exp",
        "fractional-k", "float-n", "nan-mu", "nan-center", "infinite-domain-center",
        "infinite-radius", "short-mu-exp", "short-center-base",
        "negative-mu-coeff", "zero-mu-coeff", "nan-mu-coeff", "nan-mu-exp",
        "mu-exp-off-the-scales", "mu-off-the-law", "center-off-center-base"])
def test_tree_refuses_configs_it_cannot_use(tmp_path, capsys, part, key, value):
    """A bubble that is not interior and standard, orders that are not
    integers, a scale that is not positive, a centre of the wrong length or
    with an entry that is not finite, a domain radius that is not positive
    and finite, a bubble centre outside the domain, a family law whose lists
    do not have N entries, whose centres do not have n or whose scale
    coefficients or exponents are not finite and > 0, bubbles that are not
    the family law's at one alpha (a scale off c alpha^-gamma, a centre off
    its center_base), a container of the wrong JSON type and a key the
    reader does not take (the dropped kernel coefficients "nu" among them)
    each exit 2 with one line and no report."""
    with open(os.path.join(FIXTURES, "separated.json")) as fh:
        cfg = json.load(fh)
    {"bubble": cfg["bubbles"][0], "domain": cfg["domain"],
     "family_law": cfg["family_law"], "config": cfg}[part][key] = value
    code, out = run_cli(["tree", write_config(tmp_path, cfg)], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("bad tree config: ")
    assert not os.path.exists(os.path.join(out, "tree", "influence.json"))


def test_pohozaev_manufactured_suite(tmp_path):
    code, out = run_cli(["pohozaev", "--k", "2", "--n", "5"], tmp_path)
    assert code == 0
    rep = json.loads(open(os.path.join(out, "pohozaev",
                                       "pohozaev_manufactured.json")).read())
    assert all(r["residual_rel"] < 1e-6 for r in rep)
    # the shifted-xi row runs on non-radial data, so it is not the xi = 0 row
    assert rep[1]["terms"]["lhs"] != pytest.approx(rep[0]["terms"]["lhs"],
                                                 rel=1e-6)


@pytest.mark.parametrize("k,n", [(1, 3), (2, 5), (3, 7), (1, 1), (2, 1), (1, 2), (3, 2)])
def test_pohozaev_manufactured_gate_is_absolute(tmp_path, k, n):
    """The suite passes on residual_abs within the absolute budget, the
    gate of acceptance criterion 5, at n > 2k and at n <= 2k, n = 1
    included."""
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
    """For n = 12 the seed solve from 1.2e4, far below the ground state's
    u(0) = 1.0e8, reaches the trivial state, which fails the collocation
    check: solve exits 3 with a one-line message."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"d_seed": [1.2e4]}))
    assert run_cli(["--config", str(cfgfile), "solve", "--n", "12"],
                   tmp_path)[0] == 3
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


@pytest.mark.parametrize("n", [5, 10])
def test_solve_default_seed_from_bubble_scale(tmp_path, n):
    """The default seed is the flat profile's center value at scale 0.025:
    n = 5 (whose ground state at mu = -1/2 has u(0) = 624, where the former
    seed 1.2e4 failed) and n = 10 (u(0) = 2.2e6) complete the default
    branch."""
    code, out = run_cli(["solve", "--n", str(n)], tmp_path)
    assert code == 0
    lines = open(os.path.join(out, "solve", "branch.csv")).read().splitlines()
    assert len(lines) == 6
    u0 = {5: 623.98, 10: 2.2013e6}[n]
    assert float(lines[1].split(",")[1]) == pytest.approx(u0, rel=1e-4)


def test_solve_n3_default_grid_has_no_positive_branch(tmp_path, capsys):
    """In B^3 a positive solution needs lambda = -mu in (pi^2/4, pi^2)
    (Brezis-Nirenberg 1983), so none exists on the default grid: solve
    exits 3 with one line.  A 4-term start series at r = 1e-6 once gave a
    false branch there, with u(0) = 523."""
    assert run_cli(["solve", "--n", "3"], tmp_path)[0] == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_solve_n3_follows_the_real_branch(tmp_path):
    """From d = 1.4 the n = 3 branch on lambda = 9 ... 2.48 completes, and
    u(0) grows toward the blow-up at lambda = pi^2/4, reaching 46.0949 at
    lambda = 2.48."""
    grid = [-9, -7, -5, -3.5, -3, -2.7, -2.55, -2.5, -2.48]
    cfg = write_config(tmp_path, {"d_seed": [1.4], "mu_grid": grid})
    code, out = run_cli(["--config", cfg, "solve", "--n", "3"], tmp_path)
    assert code == 0
    lines = open(os.path.join(out, "solve", "branch.csv")).read().splitlines()
    u0 = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(u0) == len(grid) and all(b > a for a, b in zip(u0, u0[1:]))
    assert u0[-1] == pytest.approx(46.094939, rel=1e-7)


def test_solve_n4_ends_cleanly(tmp_path, capsys):
    """n = 4 once ended in an OverflowError traceback (exit 1).  A float
    overflow now ends a shot as a blow-up, and a branch that Newton loses
    exits 3 with one line; either way within 60 s."""
    start = time.perf_counter()
    code, _ = run_cli(["solve", "--n", "4"], tmp_path)
    assert time.perf_counter() - start < 60
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (code, len(err.strip().splitlines())) in ((0, 0), (3, 1))


def test_solve_seed_newton_failure_is_accuracy_failure(tmp_path, capsys,
                                                       monkeypatch):
    from polybubble import solver

    def failing(*args, **kwargs):
        raise solver.NewtonFailure("damping failed to reduce the mismatch")

    monkeypatch.setattr(solver, "newton_solve", failing)
    assert run_cli(["solve"], tmp_path)[0] == 3
    err = capsys.readouterr().err
    assert "damping failed" in err and "Traceback" not in err


def _singular_shoot(monkeypatch):
    """Patch solver.shoot so every shot carries a zero Jacobian."""
    from polybubble import solver
    real = solver.shoot

    def singular(*args, **kwargs):
        F, sol = real(*args, **kwargs)
        sol.jac = np.zeros_like(sol.jac)
        return F, sol

    monkeypatch.setattr(solver, "shoot", singular)


def test_solve_singular_jacobian_is_accuracy_failure(tmp_path, capsys,
                                                     monkeypatch):
    """A seed solve whose shots all carry a singular Jacobian exits 3 with
    one line on stderr."""
    _singular_shoot(monkeypatch)
    assert run_cli(["solve"], tmp_path)[0] == 3
    err = capsys.readouterr().err
    assert "singular shooting Jacobian" in err and "Traceback" not in err


def test_solve_singular_jacobian_at_the_seed_point_is_a_fold(tmp_path, capsys,
                                                             monkeypatch):
    """Seeded with converged data, the seed solve accepts its first shot,
    whose Jacobian is singular: continuation keeps that point and ends the
    branch there, and solve exits 3 with one line on stderr."""
    from polybubble import solver
    d = solver.newton_solve(solver.ProblemParams(7, 1, 0, -0.5), [1.2e4]).d
    _singular_shoot(monkeypatch)
    cfg = write_config(tmp_path, {"d_seed": d.tolist()})
    code, out = run_cli(["--config", cfg, "solve", "--n", "7",
                         "--mu-grid", "-0.5", "-0.25"], tmp_path)
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert err.splitlines() == ["continuation lost the branch after mu = -0.5"]
    lines = open(os.path.join(out, "solve", "branch.csv")).read().splitlines()
    assert len(lines) == 2 and lines[1].startswith("-0.5,")


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
                                  ["pohozaev", "--k", "1", "--n", "0"],
                                  ["pohozaev", "--k", "63", "--n", "3"],
                                  ["solve", "--mu-grid", "-0.5", "-0.5",
                                   "-0.25"],
                                  ["solve", "--n", "500"],
                                  [{"rtol": 0}, "solve"],
                                  [{"k": 0}, "pohozaev"],
                                  ["solve", "--mu-grid", "0"],
                                  ["solve", "--mu-grid", "nan"],
                                  ["solve", "--mu-grid", "-0.5", "nan"]])
def test_invalid_parameters_are_usage_errors(tmp_path, capsys, args):
    """Parameters outside k >= 1, n > 2k, 0 <= p < k, a manufactured
    pohozaev k whose integrands pass the polynomial degree bound, an empty
    bubble-check range, a solver rtol below what the integrator can reach,
    a mu grid that repeats a value (equal sups would fail the monotone check) or
    holds a value that is not finite and < 0 (no positive solution exists
    for mu >= 0), and an n whose default seed overflows, exit 2
    with a one-line message, not 0 with an empty or meaningless report, 1
    with a traceback (1 means a verification failure) or 3 after a futile
    solve.  A leading dict is given as a config file instead of flags."""
    if isinstance(args[0], dict):
        args = ["--config", write_config(tmp_path, args[0])] + args[1:]
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


def test_config_sets_bubble_check_range_and_flag_beats_it(tmp_path):
    cfg = write_config(tmp_path, {"n_max": 5, "k_max": 1})
    code, out = run_cli(["--config", cfg, "bubble-check"], tmp_path)
    assert code == 0
    cases = read_report(out, "bubble-check", "bubble_check.json")["cases"]
    assert [(c["n"], c["k"]) for c in cases] == [(3, 1), (4, 1), (5, 1)]
    code, out = run_cli(["--config", cfg, "bubble-check", "--k-max", "2"],
                        tmp_path, "flag")
    assert code == 0
    cases = read_report(out, "bubble-check", "bubble_check.json")["cases"]
    assert [(c["n"], c["k"]) for c in cases] == [(3, 1), (4, 1), (5, 1), (5, 2)]


def test_config_sets_cayley_green_pairs_and_pair(tmp_path):
    cfg = write_config(tmp_path, {"n": 3, "k": 1, "pairs": 7})
    code, out = run_cli(["--config", cfg, "cayley-green"], tmp_path)
    assert code == 0
    rep = read_report(out, "cayley-green", "cayley_green.json")
    assert (rep["n"], rep["k"], rep["pairs"]) == (3, 1, 7)
    code, out = run_cli(["--config", cfg, "cayley-green", "--pairs", "5"],
                        tmp_path, "flag")
    assert code == 0
    assert read_report(out, "cayley-green", "cayley_green.json")["pairs"] == 5


def test_config_sets_tree_file_and_seed(tmp_path):
    """The config's seed is the --seed of the run, and its config_file the
    positional argument; a flag still beats the config's seed."""
    sep = os.path.join(FIXTURES, "separated.json")

    def ratios(args, name):
        code, out = run_cli(args, tmp_path, name)
        assert code == 0
        return open(os.path.join(out, "tree", "tree_ratios.csv")).read()

    cfg = write_config(tmp_path, {"config_file": sep, "seed": 5})
    from_config = ratios(["--config", cfg, "tree"], "cfg")
    assert from_config == ratios(["--seed", "5", "tree", sep], "flag5")
    assert from_config != ratios(["tree", sep], "seed0")
    assert ratios(["--config", cfg, "--seed", "0", "tree"], "over") == \
        ratios(["tree", sep], "seed0b")


def test_config_sets_pohozaev_k_and_default_n(tmp_path):
    cfg = write_config(tmp_path, {"k": 2})
    code, out = run_cli(["--config", cfg, "pohozaev"], tmp_path)
    assert code == 0
    rep = read_report(out, "pohozaev", "pohozaev_manufactured.json")
    assert {(r["k"], r["n"]) for r in rep} == {(2, 5)}
    assert read_report(out, "pohozaev", "manifest.json")["params"]["n"] == 5
    code, out = run_cli(["--config", cfg, "pohozaev", "--k", "1"], tmp_path,
                        "flag")
    assert code == 0
    rep = read_report(out, "pohozaev", "pohozaev_manufactured.json")
    assert {(r["k"], r["n"]) for r in rep} == {(1, 3)}


def test_config_sets_solve_n_and_flag_beats_it(tmp_path):
    cfg = write_config(tmp_path, {"n": 6, "mu_grid": [-0.5]})
    code, out = run_cli(["--config", cfg, "solve"], tmp_path)
    assert code == 0
    man = read_report(out, "solve", "solve_manifest.json")
    assert (man["n"], man["mu_grid"]) == (6, [-0.5])
    lines = open(os.path.join(out, "solve", "branch.csv")).read().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(2298.16, rel=1e-5)
    code, out = run_cli(["--config", cfg, "solve", "--n", "7"], tmp_path,
                        "flag")
    assert code == 0
    assert read_report(out, "solve", "solve_manifest.json")["n"] == 7


@pytest.mark.parametrize("command", ["bubble-check", "cayley-green", "tree",
                                     "pohozaev", "solve"])
@pytest.mark.parametrize("config", [{"n_mx": 5}, {"seed": 1, "n_mx": 5}])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, config)
    code, out = run_cli(["--config", cfg, command], tmp_path)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'n_mx'" in err[0]
    assert not os.path.exists(out)


@pytest.mark.parametrize("command,config", [("bubble-check", {"d_seed": [1.0]}),
                                            ("solve", {"n": 5.5}),
                                            ("solve", {"n": True}),
                                            ("solve", {"mu_grid": -0.5}),
                                            ("pohozaev", {"seed": "x"})])
def test_config_only_and_mistyped_values_are_usage_errors(tmp_path, capsys,
                                                          command, config):
    """d_seed is a key of solve only, and config values are converted as
    flag strings are: a float or a boolean for an integer, or a scalar for
    a list, exits 2 with one line naming the key."""
    cfg = write_config(tmp_path, config)
    assert run_cli(["--config", cfg, command], tmp_path)[0] == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and repr(next(iter(config))) in err[0]


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
