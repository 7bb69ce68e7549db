"""Batch front-end: runs verification suites and experiments, persists
reports.

Exit codes: 0 pass, 1 verification failure, 2 usage/config error,
3 numerical-accuracy failure.  Outputs are deterministic for a fixed config
and seed apart from the timestamp field of the run manifest; every report is
written atomically (temp file + rename).  The output root can also be set
via the POLYBUBBLE_OUT environment variable.  Each setting comes from its
flag, else from the --config file, else from the default that
_build_parser declares; a config key the command does not take exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .bubbles import check_decay
from .conformal import (GaussianXPow, HalfSpaceBump, _direction_rule,
                        check_distance_identity, check_norm_invariance)
from .green import check_conformal_relation
from .quadrature import AccuracyError, Ball
from .radial import check_bubble_identity, bubble_constant, critical_exponent, make_bubble
from .tree import AmbiguousScalesError, TreeConfig, classify, check_dominance, interaction_sup
from .weights import eta_sequences, ratio_table_csv

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_ACCURACY = 3


def _write(ns: argparse.Namespace, name: str, text: str) -> None:
    """text as the report name in the output directory, atomically: a temp
    file there, then one rename."""
    fd, tmp = tempfile.mkstemp(dir=ns.out, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(ns.out, name))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _refuse(code: int, message: str) -> int:
    """Print message as one line on stderr and return the exit code."""
    print(message, file=sys.stderr)
    return code


def _write_manifest(ns: argparse.Namespace) -> None:
    params = {key: val for key, val in vars(ns).items()
              if val is not None and key not in ("config", "command", "out")}
    d = {"command": ns.command, "params": params, "out": ns.out,
         "version": __version__, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    _write(ns, "manifest.json", json.dumps(d, indent=2))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_bubble_check(ns: argparse.Namespace) -> int:
    """Exact PDE checks plus decay slopes over an (n, k) range."""
    if (ns.n is None) != (ns.k is None):
        return _refuse(EXIT_USAGE, "give both --n and --k, or neither")
    cases = ([(ns.n, ns.k)] if ns.n is not None
             else [(n, k) for k in range(1, ns.k_max + 1)
                   for n in range(2 * k + 1, ns.n_max + 1)])
    if not cases:
        return _refuse(EXIT_USAGE, f"invalid range: no pair 1 <= k <= k_max={ns.k_max}, "
                       f"2k < n <= n_max={ns.n_max} (an empty report otherwise)")
    failures = []
    rows = []
    for (n, k) in cases:
        try:
            critical_exponent(n, k)
        except ValueError as e:
            return _refuse(EXIT_USAGE, f"invalid pair: {e}")
        res = check_bubble_identity(n, k)
        slopes = [check_decay(n, k, l) for l in range(min(2 * k, 2) + 1)]
        slope_ok = all(s["deviation"] < 0.05 for s in slopes)
        ok = res.passed and res.numeric_residual < 1e-9 and slope_ok
        rows.append({"n": n, "k": k, "symbolic_pass": res.passed,
                     "numeric_residual": res.numeric_residual,
                     "decay": [{"l": s["l"], "slope": s["slope"],
                                "target": s["target"]} for s in slopes]})
        if not ok:
            failures.append((n, k))
    _write(ns, "bubble_check.json", json.dumps({"cases": rows, "failures": failures}, indent=2))
    _write_manifest(ns)
    if failures:
        return _refuse(EXIT_VERIFICATION, f"failing cases: {failures}")
    return EXIT_OK


def cmd_cayley_green(ns: argparse.Namespace) -> int:
    """Conformal-map and Green-function identity suites."""
    n, k, pairs = ns.n, ns.k, ns.pairs
    if n is None or k is None:
        return _refuse(EXIT_USAGE, "invalid input: cayley-green needs --n and --k")
    try:
        critical_exponent(n, k)
        _direction_rule(n, k)  # the derivative invariance's rule exists
        if pairs <= 0:
            raise ValueError(f"need pairs > 0 (an empty report otherwise), got pairs={pairs}")
    except ValueError as e:
        return _refuse(EXIT_USAGE, f"invalid input: {e}")
    rng = np.random.default_rng(ns.seed)

    def ball_pt():
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        return v * 0.85 * rng.uniform(0.05, 1.0) ** (1.0 / n)

    dist_res, green_res = 0.0, 0.0
    m = 0
    while m < pairs:
        x, y = ball_pt(), ball_pt()
        if np.linalg.norm(x - y) < 1e-3:
            continue
        dist_res = max(dist_res, check_distance_identity(x, y))
        green_res = max(green_res, check_conformal_relation(x, y, k))
        m += 1
    profiles = [GaussianXPow(n, k), GaussianXPow(n, k, shift=0.7)]
    if k == 1:
        profiles.append(HalfSpaceBump(n))
    invariance = []
    for u in profiles:
        rep = check_norm_invariance(u, n, k)
        invariance.append({"profile": type(u).__name__,
                           "critical_rel": rep["critical"][2],
                           "derivative_rel": rep["derivative"][2],
                           "passed": rep["passed"]})
    report = {"n": n, "k": k, "pairs": pairs,
              "distance_identity_max_residual": dist_res,
              "green_conjugation_max_residual": green_res,
              "norm_invariance": invariance}
    _write(ns, "cayley_green.json", json.dumps(report, indent=2))
    _write_manifest(ns)
    ok = (dist_res < 1e-12 and green_res < 1e-10
          and all(r["passed"] for r in invariance))
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_tree(ns: argparse.Namespace) -> int:
    """Influence report plus dominance/interaction/eta tables for a
    bubble-tree configuration file."""
    if ns.config_file is None:
        return _refuse(EXIT_USAGE, "missing tree config file")
    try:
        with open(ns.config_file) as fh:
            tree = TreeConfig.from_json(fh.read())
        c, R = np.asarray(tree.domain.center, float), tree.domain.radius
        for i, b in enumerate(tree.bubbles):
            if np.linalg.norm(b.center - c) >= R:
                raise ValueError(f"bubble {i} center lies outside the domain")
    except OSError as e:
        return _refuse(EXIT_USAGE, f"cannot read tree config file: {e}")
    except (KeyError, TypeError, ValueError) as e:
        return _refuse(EXIT_USAGE, f"bad tree config: {e}")
    try:
        data = classify(tree)
    except AmbiguousScalesError as e:
        return _refuse(EXIT_USAGE, f"ambiguous configuration: {e}")
    _write(ns, "influence.json", data.to_json())
    rows = []
    for i in range(len(tree.bubbles)):
        for l, dom in enumerate(check_dominance(tree, data, i, seed=ns.seed)):
            rows.append({"kind": "dominance", "i": i, "l": l,
                         "mu_or_alpha": tree.bubbles[i].mu,
                         "lhs": dom["constant"], "rhs": 1.0,
                         "ratio": dom["constant"], "quad_error": 0.0})
        isup = interaction_sup(tree, data, i, seed=ns.seed)
        rows.append({"kind": "interaction", "i": i,
                     "mu_or_alpha": tree.bubbles[i].mu, "lhs": isup["lhs"],
                     "rhs": isup["bound"], "ratio": isup["ratio"],
                     "quad_error": 0.0})
    _write(ns, "tree_ratios.csv", ratio_table_csv(rows))
    _write(ns, "eta.json", json.dumps(eta_sequences(tree, seed=ns.seed), indent=2))
    _write_manifest(ns)
    return EXIT_OK


def cmd_pohozaev(ns: argparse.Namespace) -> int:
    """Identity residual suites: manufactured Dirichlet tests or the exact
    bubble right-hand side."""
    from .pohozaev import _MASK, MultiPoly, manufactured_dirichlet, pohozaev_residual
    if ns.n is None:
        ns.n = 2 * ns.k + 1
    suite, k, n = ns.suite, ns.k, ns.n
    # the shifted manufactured row's T2 integrand has degree 4k + 4 <= _MASK
    k_max = (_MASK - 4) // 4
    if (k < 1 or n < 1 or (suite == "bubble" and n <= 2 * k)
            or (suite == "manufactured" and k > k_max)):
        return _refuse(EXIT_USAGE, "invalid parameters: need k >= 1, n >= 1, n > 2k on "
                       f"the bubble suite and k <= {k_max} on the manufactured suite; "
                       f"got k={k}, n={n}")
    reports = []
    if suite == "manufactured":
        dom = Ball((0.0,) * n, 1.0)
        # radial data at xi = 0; the shifted row needs data that are not
        # radial, since on radial data every xi-dependent term vanishes
        for xi_scale, poly in ((0.0, None),
                               (0.3, MultiPoly.coordinate(n, 0) + 1)):
            u = manufactured_dirichlet(k, n, poly)
            xi = np.zeros(n)
            xi[0] = xi_scale
            rep = pohozaev_residual(u, None, 2.0, dom, xi, k, dirichlet=True)
            reports.append(json.loads(rep.to_json()))
        ok = all(r["residual_abs"] <= max(r["budget"], 1e-12) for r in reports)
    elif suite == "bubble":
        from .fields import RadialTermField, RationalProfile
        a = bubble_constant(n, k)
        prof = RationalProfile(make_bubble(n, k), a)
        u = RadialTermField.radial(n, np.zeros(n), prof)
        dom = Ball((0.0,) * n, 1.0)
        rep = pohozaev_residual(u, None, critical_exponent(n, k), dom,
                                np.zeros(n), k,
                                quad_opts={"axis": (np.zeros(n), np.eye(n)[0])})
        reports.append(json.loads(rep.to_json()))
        ok = abs(reports[0]["terms"]["T1"]) <= 10 * reports[0]["budget"]
    else:
        return _refuse(EXIT_USAGE, f"unknown suite {suite!r}")
    _write(ns, f"pohozaev_{suite}.json", json.dumps(reports, indent=2))
    _write_manifest(ns)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_solve(ns: argparse.Namespace) -> int:
    """Radial continuation experiment; writes the branch CSV and manifest."""
    from .solver import (IntegrationBlowUp, NewtonFailure, ProblemParams,
                         _check_mu, branch_csv, bubble_seed, continuation,
                         newton_solve, run_manifest)
    grid = ns.mu_grid
    if not grid:
        return _refuse(EXIT_USAGE, "empty continuation grid")
    if len(set(grid)) < len(grid):
        return _refuse(EXIT_USAGE, "invalid parameters: the mu grid repeats a value")
    try:
        for mu in grid:
            _check_mu(mu)
        params = ProblemParams(ns.n, ns.k, ns.p, grid[0])
        d_seed = ns.d_seed if ns.d_seed is not None else bubble_seed(ns.n, ns.k)
        sol = newton_solve(params, d_seed, rtol=ns.rtol)
    except ValueError as e:
        return _refuse(EXIT_USAGE, f"invalid parameters: {e}")
    except (NewtonFailure, IntegrationBlowUp) as e:
        return _refuse(EXIT_ACCURACY, f"seed solve failed at mu = {grid[0]:g}: {e}")
    try:
        points, flag = continuation(params, grid, sol, rtol=ns.rtol)
    except ValueError as e:
        return _refuse(EXIT_VERIFICATION, f"continuation failed: {e}")
    _write(ns, "branch.csv", branch_csv(points))
    _write(ns, "solve_manifest.json", run_manifest(params, grid, d_seed, ns.rtol, flag))
    _write_manifest(ns)
    if flag == "fold":
        where = (f"after mu = {points[-1].mu_param:g}" if points
                 else f"at mu = {grid[0]:g}")
        return _refuse(EXIT_ACCURACY, f"continuation lost the branch {where}")
    sups = [b.sup_norm for b in points]
    monotone = all(b > a for a, b in zip(sups, sups[1:]))
    return EXIT_OK if monotone else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "bubble-check": cmd_bubble_check,
    "cayley-green": cmd_cayley_green,
    "tree": cmd_tree,
    "pohozaev": cmd_pohozaev,
    "solve": cmd_solve,
}


def _build_parser():
    """The parser, the one home of every default, and its subcommand parsers
    by name.  solve's d_seed (the Newton start) is a config-only key."""
    ap = argparse.ArgumentParser(prog="polybubble",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="JSON settings file (flags override)")
    ap.add_argument("--out", default=os.environ.get("POLYBUBBLE_OUT", "runs"),
                    help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub = ap.add_subparsers(dest="command")
    bc = sub.add_parser("bubble-check")
    bc.add_argument("--n", type=int)
    bc.add_argument("--k", type=int)
    bc.add_argument("--n-max", type=int, default=12)
    bc.add_argument("--k-max", type=int, default=4)
    cg = sub.add_parser("cayley-green")
    cg.add_argument("--n", type=int)
    cg.add_argument("--k", type=int)
    cg.add_argument("--pairs", type=int, default=100)
    tr = sub.add_parser("tree")
    tr.add_argument("config_file", nargs="?")
    po = sub.add_parser("pohozaev")
    po.add_argument("--k", type=int, default=1)
    po.add_argument("--n", type=int, help="default 2k + 1")
    po.add_argument("--suite", default="manufactured")
    so = sub.add_parser("solve")
    so.add_argument("--n", type=int, default=7)
    so.add_argument("--k", type=int, default=1)
    so.add_argument("--p", type=int, default=0)
    so.add_argument("--mu-grid", type=float, nargs="*",
                    default=[-0.5, -0.25, -0.1, -0.05, -0.02])
    so.add_argument("--rtol", type=float, default=1e-9)
    so.set_defaults(d_seed=None)
    return ap, sub.choices


def _config_defaults(parser: argparse.ArgumentParser, config: dict) -> dict:
    """The config entries as defaults of parser, each converted as its flag
    converts a string; ValueError naming a key that parser does not take.
    Keys that set_defaults alone declares are config-only, taken as given."""
    actions = {a.dest: a for a in parser._actions if a.dest != "help"}
    out = dict(config)
    for key, val in config.items():
        if key not in actions:
            if key not in parser._defaults:
                raise ValueError(f"unknown key {key!r} for {parser.prog}")
            continue
        conv, many = actions[key].type or str, actions[key].nargs == "*"
        try:
            if many and not isinstance(val, list):
                raise TypeError
            out[key] = [conv(str(v)) for v in val] if many else conv(str(val))
        except (TypeError, ValueError):
            raise ValueError(f"key {key!r}: invalid value {val!r}") from None
    return out


def main(argv=None) -> int:
    ap, commands = _build_parser()
    ns = ap.parse_args(argv)
    if not ns.command:
        ap.print_help()
        return EXIT_USAGE
    if ns.config:
        # the config file becomes the defaults of the parsers, so a flag
        # given on the command line still beats it
        try:
            with open(ns.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("expected a JSON object")
            common = {key: config.pop(key) for key in ("seed", "out") if key in config}
            ap.set_defaults(**_config_defaults(ap, common))
            commands[ns.command].set_defaults(
                **_config_defaults(commands[ns.command], config))
        except (OSError, ValueError) as e:
            return _refuse(EXIT_USAGE, f"bad config: {e}")
        ns = ap.parse_args(argv)
    ns.out = os.path.join(ns.out, ns.command)
    try:
        os.makedirs(ns.out, exist_ok=True)
    except OSError as e:
        return _refuse(EXIT_USAGE, f"config error: {e}")
    try:
        return _COMMANDS[ns.command](ns)
    except AccuracyError as e:
        return _refuse(EXIT_ACCURACY, f"accuracy failure: {e}")


if __name__ == "__main__":
    sys.exit(main())
