"""Batch front-end: runs verification suites and experiments, persists
reports.

Exit codes: 0 pass, 1 verification failure, 2 usage/config error,
3 numerical-accuracy failure.  Outputs are deterministic for a fixed config
and seed apart from the timestamp field of the run manifest; every report is
written atomically (temp file + rename).  The output root can also be set
via the POLYBUBBLE_OUT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bubbles import check_decay
from .conformal import (GaussianXPow, HalfSpaceBump,
                        check_distance_identity, check_norm_invariance)
from .green import check_conformal_relation
from .quadrature import AccuracyError, Ball
from .radial import check_bubble_identity, bubble_constant, critical_exponent, make_bubble, laplacian
from .tree import AmbiguousScalesError, TreeConfig, classify, check_dominance, interaction_sup
from .weights import eta_sequences, ratio_table_csv

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_ACCURACY = 3


@dataclass
class RunConfig:
    command: str
    params: dict
    out: str

    def __post_init__(self):
        if not self.command:
            raise ValueError("missing command")
        os.makedirs(self.out, exist_ok=True)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_manifest(cfg: RunConfig, extra=None) -> None:
    d = {"command": cfg.command, "params": cfg.params, "out": cfg.out,
         "version": __version__, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if extra:
        d.update(extra)
    _atomic_write(os.path.join(cfg.out, "manifest.json"),
                  json.dumps(d, indent=2))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_bubble_check(cfg: RunConfig) -> int:
    """Exact PDE checks plus decay slopes over an (n, k) range."""
    p = cfg.params
    k_max = int(p.get("k_max", 4))
    n_max = int(p.get("n_max", 12))
    single = p.get("n"), p.get("k")
    if (single[0] is None) != (single[1] is None):
        print("give both --n and --k, or neither", file=sys.stderr)
        return EXIT_USAGE
    cases = ([(int(single[0]), int(single[1]))] if single[0] is not None
             else [(n, k) for k in range(1, k_max + 1)
                   for n in range(2 * k + 1, n_max + 1)])
    if not cases:
        print(f"invalid range: no pair 1 <= k <= k_max={k_max}, 2k < n <= "
              f"n_max={n_max} (an empty report otherwise)", file=sys.stderr)
        return EXIT_USAGE
    failures = []
    rows = []
    for (n, k) in cases:
        if k < 1 or n <= 2 * k:
            print(f"invalid pair: need k >= 1 and n > 2k, got n={n}, k={k}",
                  file=sys.stderr)
            return EXIT_USAGE
        res = check_bubble_identity(n, k)
        # numeric cross-check of (-Delta)^k B = B^{2#-1} at sample radii
        g = make_bubble(n, k)
        h = g
        for _ in range(k):
            h = laplacian(h)
        a = bubble_constant(n, k)
        ts = critical_exponent(n, k)
        num_res = max(abs(h(r, a) - g(r, a) ** (ts - 1.0))
                      / max(abs(g(r, a) ** (ts - 1.0)), 1e-300)
                      for r in (0.0, 0.5, 1.0, 2.0, 10.0))
        slopes = [check_decay(n, k, l) for l in range(min(2 * k, 2) + 1)]
        slope_ok = all(s["deviation"] < 0.05 for s in slopes)
        ok = res.passed and num_res < 1e-9 and slope_ok
        rows.append({"n": n, "k": k, "symbolic_pass": res.passed,
                     "numeric_residual": num_res,
                     "decay": [{"l": s["l"], "slope": s["slope"],
                                "target": s["target"]} for s in slopes]})
        if not ok:
            failures.append((n, k))
    _atomic_write(os.path.join(cfg.out, "bubble_check.json"),
                  json.dumps({"cases": rows, "failures": failures}, indent=2))
    _write_manifest(cfg)
    if failures:
        print("failing cases:", failures, file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_cayley_green(cfg: RunConfig) -> int:
    """Conformal-map and Green-function identity suites."""
    p = cfg.params
    n, k = int(p["n"]), int(p["k"])
    pairs = int(p.get("pairs", 100))
    seed = int(p.get("seed", 0))
    if pairs <= 0 or k < 1 or n <= 2 * k:
        print(f"invalid input: need pairs > 0 (an empty report otherwise), "
              f"k >= 1 and n > 2k; got pairs={pairs}, n={n}, k={k}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(seed)

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
        green_res = max(green_res, check_conformal_relation(x, y, n, k))
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
    _atomic_write(os.path.join(cfg.out, "cayley_green.json"),
                  json.dumps(report, indent=2))
    _write_manifest(cfg)
    ok = (dist_res < 1e-12 and green_res < 1e-10
          and all(r["passed"] for r in invariance))
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_tree(cfg: RunConfig) -> int:
    """Influence report plus dominance/interaction/eta tables for a
    bubble-tree configuration file."""
    p = cfg.params
    path = p.get("config_file")
    if not path or not os.path.exists(path):
        print(f"missing tree config file: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tree = TreeConfig.from_json(open(path).read())
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"bad tree config: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        data = classify(tree)
    except AmbiguousScalesError as e:
        print(f"ambiguous configuration: {e}", file=sys.stderr)
        return EXIT_USAGE
    _atomic_write(os.path.join(cfg.out, "influence.json"), data.to_json())
    seed = int(p.get("seed", 0))
    rows = []
    for i in range(len(tree.bubbles)):
        for l in range(2 * tree.k):
            dom = check_dominance(tree, data, i, l, seed=seed)
            rows.append({"kind": "dominance", "i": i, "l": l,
                         "mu_or_alpha": tree.bubbles[i].mu,
                         "lhs": dom["constant"], "rhs": 1.0,
                         "ratio": dom["constant"], "quad_error": 0.0})
        isup = interaction_sup(tree, data, i, seed=seed)
        rows.append({"kind": "interaction", "i": i,
                     "mu_or_alpha": tree.bubbles[i].mu, "lhs": isup["lhs"],
                     "rhs": isup["bound"], "ratio": isup["ratio"],
                     "quad_error": 0.0})
    ratio_table_csv(rows, os.path.join(cfg.out, "tree_ratios.csv"))
    try:
        etas = eta_sequences(tree, x_count=2, seed=seed)
    except AccuracyError as e:
        print(f"eta quadrature failure: {e}", file=sys.stderr)
        return EXIT_ACCURACY
    _atomic_write(os.path.join(cfg.out, "eta.json"), json.dumps(etas, indent=2))
    _write_manifest(cfg)
    return EXIT_OK


def cmd_pohozaev(cfg: RunConfig) -> int:
    """Identity residual suites: manufactured Dirichlet tests or the exact
    bubble right-hand side."""
    from .pohozaev import MultiPoly, manufactured_dirichlet, pohozaev_residual
    p = cfg.params
    suite = p.get("suite", "manufactured")
    k = int(p.get("k", 1))
    n = int(p.get("n", 2 * k + 1))
    if k < 1 or n < 1 or (suite == "bubble" and n <= 2 * k):
        print(f"invalid parameters: need k >= 1, n >= 1, and n > 2k on the "
              f"bubble suite; got k={k}, n={n}", file=sys.stderr)
        return EXIT_USAGE
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
        ok = abs(reports[0]["terms"]["T1"]) <= max(10 * reports[0]["budget"], 1e-8)
    else:
        print(f"unknown suite {suite!r}", file=sys.stderr)
        return EXIT_USAGE
    _atomic_write(os.path.join(cfg.out, f"pohozaev_{suite}.json"),
                  json.dumps(reports, indent=2))
    _write_manifest(cfg)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_solve(cfg: RunConfig) -> int:
    """Radial continuation experiment; writes the branch CSV and manifest."""
    from .solver import (IntegrationBlowUp, NewtonFailure, ProblemParams,
                         branch_csv, continuation, newton_solve, run_manifest)
    p = cfg.params
    n = int(p.get("n", 7))
    k = int(p.get("k", 1))
    pp = int(p.get("p", 0))
    grid = p.get("mu_grid")
    if grid is None:
        grid = [-0.5, -0.25, -0.1, -0.05, -0.02]
    grid = [float(g) for g in grid]
    if not grid:
        print("empty continuation grid", file=sys.stderr)
        return EXIT_USAGE
    d_seed = p.get("d_seed", [1.2e4] + [0.0] * (k - 1))
    rtol = float(p.get("rtol", 1e-9))
    try:
        params = ProblemParams(n, k, pp, grid[0])
        sol = newton_solve(params, d_seed, rtol=rtol)
    except ValueError as e:
        print(f"invalid parameters: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NewtonFailure, IntegrationBlowUp) as e:
        print(f"seed solve failed at mu = {grid[0]:g}: {e}", file=sys.stderr)
        return EXIT_ACCURACY
    try:
        points, flag = continuation(params, grid, sol.d, rtol=rtol)
    except ValueError as e:
        print(f"continuation failed: {e}", file=sys.stderr)
        return EXIT_VERIFICATION
    branch_csv(points, os.path.join(cfg.out, "branch.csv"))
    _atomic_write(os.path.join(cfg.out, "solve_manifest.json"),
                  run_manifest(params, grid, d_seed, rtol,
                               extra={"flag": flag}))
    _write_manifest(cfg)
    sups = [b.sup_norm for b in points]
    monotone = all(b > a for a, b in zip(sups, sups[1:]))
    return EXIT_OK if (flag == "complete" and monotone) else EXIT_VERIFICATION


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
    ap = argparse.ArgumentParser(prog="polybubble",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="JSON run configuration (flags override)")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--seed", type=int, help="base RNG seed")
    sub = ap.add_subparsers(dest="command")
    bc = sub.add_parser("bubble-check")
    bc.add_argument("--n", type=int)
    bc.add_argument("--k", type=int)
    bc.add_argument("--n-max", type=int, default=12)
    bc.add_argument("--k-max", type=int, default=4)
    cg = sub.add_parser("cayley-green")
    cg.add_argument("--n", type=int, required=True)
    cg.add_argument("--k", type=int, required=True)
    cg.add_argument("--pairs", type=int, default=100)
    tr = sub.add_parser("tree")
    tr.add_argument("config_file", nargs="?")
    po = sub.add_parser("pohozaev")
    po.add_argument("--k", type=int, default=1)
    po.add_argument("--n", type=int)
    po.add_argument("--suite", default="manufactured")
    so = sub.add_parser("solve")
    so.add_argument("--n", type=int, default=7)
    so.add_argument("--k", type=int, default=1)
    so.add_argument("--p", type=int, default=0)
    so.add_argument("--mu-grid", type=float, nargs="*")
    so.add_argument("--rtol", type=float, default=1e-9)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    if not ns.command:
        ap.print_help()
        return EXIT_USAGE
    params = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                params.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as e:
            print(f"bad config: {e}", file=sys.stderr)
            return EXIT_USAGE
    for key, val in vars(ns).items():
        if key in ("config", "command") or val is None:
            continue
        params[key.replace("-", "_")] = val
    out = params.pop("out", None) or os.environ.get("POLYBUBBLE_OUT", "runs")
    seed = params.pop("seed", 0)
    params.setdefault("seed", seed)
    if ns.command == "pohozaev" and params.get("n") is None:
        params["n"] = 2 * int(params.get("k", 1)) + 1
    try:
        cfg = RunConfig(ns.command, params, os.path.join(out, ns.command))
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[ns.command](cfg)
    except AccuracyError as e:
        print(f"accuracy failure: {e}", file=sys.stderr)
        return EXIT_ACCURACY


if __name__ == "__main__":
    sys.exit(main())
