"""The benchmark's four workloads, each a list of verification cases.

A case is a closure over inputs built at set-up.  Running it calls the
program and returns ``(passed, err)``: ``passed`` is the case's gate at the
tolerance the repository already states (acceptance criteria 5-7, CLI exit
codes), and ``err`` is an independent discrepancy computed here, never the
program's own error estimate, or ``None`` when the case has none.

Every random or offset input comes from the workload seed; the program only
sees the generated values.  Functions of the program are looked up as module
attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("blowup", "pohozaev-jets", "pohozaev-exact", "certify")

# Report files of the CLI runs that are hashed against the golden record.
# manifest.json carries a timestamp and is left out.
GOLDEN_SKIP = {"manifest.json"}


# The layer functions each workload must reach (span names of trace.LAYERS);
# the self-check fails when a traced smoke pass shows no call to one of them.
EXPECTED_LAYERS = {
    "blowup": ["solver.shoot", "solver.newton_solve", "solver.continuation",
               "solver.collocation_check", "solver.solve_ivp"],
    "pohozaev-jets": ["fields.RadialTermField.partial",
                      "fields.RadialTermField.jet", "jets.Jet.lap_iter",
                      "radial.RadialFunction.call", "pohozaev.pohozaev_lhs",
                      "pohozaev.pohozaev_rhs",
                      "quadrature.integrate_axisymmetric",
                      "quadrature.integrate_surface"],
    "pohozaev-exact": ["pohozaev.pohozaev_residual", "pohozaev.pohozaev_lhs",
                       "pohozaev.pohozaev_rhs", "pohozaev.MultiPoly.mul",
                       "pohozaev.MultiPoly.pow",
                       "quadrature.sphere_moment_ratio"],
    "certify": ["cli.cayley-green", "cli.tree", "cli.bubble-check",
                "conformal.check_norm_invariance",
                "conformal.check_distance_identity",
                "green.check_conformal_relation", "tree.classify",
                "tree.check_dominance", "tree.interaction_sup",
                "weights.convolution_bound_verify", "weights.eta_sequences",
                "weights.giraud_verify", "bubbles.positive_bubble",
                "bubbles.check_decay", "radial.check_bubble_identity",
                "radial.laplacian", "radial.RadialFunction.call",
                "quadrature.integrate_axisymmetric"],
}


@dataclass
class Case:
    name: str
    run: Callable[[], tuple[bool, float | None]]
    smoke: bool = False  # part of the self-check pass
    golden: bool = False  # a CLI run whose reports are hashed


def build(workload: str, seed: int, root: str, scratch: str,
          golden: dict) -> list[Case]:
    """Import the program and build the inputs of one workload.

    ``scratch`` is a directory for CLI output; ``golden`` receives the
    report hashes of the latest run of each CLI case.
    """
    rng = np.random.default_rng(seed)
    if workload == "certify":
        return _certify(rng, seed, root, scratch, golden)
    builders = {"blowup": _blowup, "pohozaev-jets": _jets,
                "pohozaev-exact": _exact}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    return builders[workload](rng)


# ---------------------------------------------------------------------------
# blowup: Newton + continuation toward the critical coefficient
# ---------------------------------------------------------------------------

def _blowup(rng):
    from polybubble import solver

    grid = [-0.5, -0.25, -0.1, -0.05, -0.02]
    cases = []
    for (n, k, p, d0) in ((7, 1, 0, 1.2e4), (6, 1, 0, 1e3)):
        jitter = rng.uniform(0.95, 1.05, size=len(grid))
        mus = [float(m * j) for m, j in zip(grid, jitter)]
        params = solver.ProblemParams(n, k, p, mus[0])

        def run(params=params, mus=mus, d0=d0):
            seed_sol = solver.newton_solve(params, [d0], rtol=1e-9)
            pts, flag = solver.continuation(params, mus, seed_sol.d, rtol=1e-9)
            sups = [b.sup_norm for b in pts]
            ok = (flag == "complete" and len(pts) == len(mus)
                  and all(b > a for a, b in zip(sups, sups[1:]))
                  and abs(solver.pohozaev_scaling(pts) - 2.0) < 0.2
                  and pts[-1].fit_residual < 5e-2)
            err = 0.0
            for b in pts:
                pb = solver.ProblemParams(params.n, params.k, params.p, b.mu_param)
                _, sol = solver.shoot(pb, b.d, rtol=1e-12)
                err = max(err, abs(sol.v[0][-1]) / sol.sup_norm)
            return ok, err

        cases.append(Case(f"n{n}k{k}p{p}", run, smoke=(n == 6)))
    return cases


# ---------------------------------------------------------------------------
# pohozaev-jets: the exact bubble on the quadrature path
# ---------------------------------------------------------------------------

def _jets(rng):
    from polybubble import fields, pohozaev, quadrature, radial

    cases = []
    for (n, k) in ((3, 1), (7, 1), (5, 2), (7, 2)):
        prof = fields.RationalProfile(radial.make_bubble(n, k),
                                      radial.bubble_constant(n, k))
        u = fields.RadialTermField.radial(n, np.zeros(n), prof)
        u.n = n
        dom = quadrature.Ball((0.0,) * n, 1.0)
        e1 = np.eye(n)[0]
        xi = float(rng.choice([0.1, 0.2, 0.3])) * e1
        p_exp = radial.critical_exponent(n, k)

        def run(u=u, dom=dom, e1=e1, xi=xi, k=k, p_exp=p_exp, n=n):
            lhs, _ = pohozaev.pohozaev_lhs(u, dom, xi, k,
                                           quad_opts={"axis": e1})
            terms, _ = pohozaev.pohozaev_rhs(u, None, p_exp, dom, xi, k,
                                             quad_opts={"axis": (np.zeros(n), e1)})
            scale = max(abs(lhs), *(abs(t) for t in terms))
            err = abs(lhs - sum(terms)) / scale
            return err <= 1e-10, err

        cases.append(Case(f"n{n}k{k}", run, smoke=(n, k) == (3, 1)))
    return cases


# ---------------------------------------------------------------------------
# pohozaev-exact: manufactured Dirichlet data on the exact-algebra path
# ---------------------------------------------------------------------------

def _exact(rng):
    from polybubble import pohozaev, quadrature

    def gated(u, dom, xi, k, p_exp):
        def run():
            rep = pohozaev.pohozaev_residual(u, None, p_exp, dom, xi, k,
                                             dirichlet=True)
            ok = (rep.residual_rel < 1e-6
                  and rep.residual_abs <= max(rep.budget, 1e-12)
                  and rep.simplified_gap <= 10 * max(rep.budget, 1e-9))
            return ok, rep.residual_rel
        return run

    def annulus(u, dom, k):
        def run():
            rep = pohozaev.pohozaev_residual(u, None, 2.0, dom,
                                             np.zeros(u.poly.n), k)
            return rep.residual_rel < 1e-6, rep.residual_rel
        return run

    cases = []
    for (k, n) in ((1, 3), (1, 5), (1, 7), (2, 5), (2, 7), (3, 7)):
        u = pohozaev.manufactured_dirichlet(k, n)
        ball = quadrature.Ball((0.0,) * n, 1.0)
        ann = quadrature.BallMinusBalls(ball, (quadrature.Ball((0.0,) * n, 0.5),))
        xi = np.zeros(n)
        xi[0] = float(rng.choice([0.1, 0.2, 0.3, 0.4]))
        smoke = (k, n) == (1, 3)
        cases.append(Case(f"k{k}n{n}xi0", gated(u, ball, np.zeros(n), k, 2.0),
                          smoke=smoke))
        cases.append(Case(f"k{k}n{n}xi{xi[0]}", gated(u, ball, xi, k, 2.0)))
        cases.append(Case(f"k{k}n{n}annulus", annulus(u, ann, k)))
    u = pohozaev.manufactured_dirichlet(2, 6)
    cases.append(Case("k2n6p6", gated(u, quadrature.Ball((0.0,) * 6, 1.0),
                                      np.zeros(6), 2, 6.0)))
    return cases


# ---------------------------------------------------------------------------
# certify: geometry and weighted-bound verifiers, partly through the CLI
# ---------------------------------------------------------------------------

def _certify(rng, seed, root, scratch, golden):
    from polybubble import bubbles, cli, tree, weights
    from polybubble.quadrature import Ball

    fixtures = os.path.join(root, "src", "polybubble", "fixtures")
    cli_runs = [
        ("cayley-green-n3k1", ["cayley-green", "--n", "3", "--k", "1"]),
        ("cayley-green-n5k2", ["cayley-green", "--n", "5", "--k", "2"]),
        ("tree-tower", ["tree", os.path.join(fixtures, "tower.json")]),
        ("tree-separated", ["tree", os.path.join(fixtures, "separated.json")]),
        ("bubble-check", ["bubble-check"]),
    ]
    for _, argv in cli_runs:
        if argv[0] == "tree" and not os.path.exists(argv[1]):
            raise FileNotFoundError(argv[1])

    def cli_case(label, argv):
        def run():
            out = tempfile.mkdtemp(dir=scratch)
            try:
                code = cli.main(["--out", out, "--seed", str(seed)] + argv)
                err = None
                if argv[0] == "cayley-green":
                    with open(os.path.join(out, argv[0], "cayley_green.json")) as fh:
                        rep = json.load(fh)
                    err = max([rep["distance_identity_max_residual"],
                               rep["green_conjugation_max_residual"]]
                              + [r[key] for r in rep["norm_invariance"]
                                 for key in ("critical_rel", "derivative_rel")])
                hashes = report_hashes(out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            golden[label] = hashes
            return code == 0, err
        return run

    cases = [Case(label, cli_case(label, argv), golden=True,
                  smoke=label in ("cayley-green-n3k1", "tree-tower",
                                  "bubble-check"))
             for label, argv in cli_runs]

    n, k = 7, 1
    for kind in ("ordre2", "trou0", "lem2"):
        for mu in (1e-1, 1e-2, 1e-3):
            cfg = tree.TreeConfig([bubbles.BubbleSpec("interior", n, k,
                                                      np.zeros(n), mu)])

            def run(kind=kind, cfg=cfg):
                rows = weights.convolution_bound_verify(
                    kind, cfg, {"i": 0, "l": 0, "x_count": 4}, seed=seed)
                return all(np.isfinite(r["ratio"]) and r["ratio"] < 1e4
                           for r in rows), None

            cases.append(Case(f"{kind}-mu{mu:g}", run,
                              smoke=(kind, mu) == ("ordre2", 1e-1)))
    for alpha in (1e1, 1e2, 1e3):
        law = tree.FamilyLaw([1.0, 0.9], [1.0, 1.0],
                             [[0.3] + [0.0] * 8, [-0.3] + [0.0] * 8])
        cfg9 = tree.TreeConfig.from_family(law, alpha, 9, 2)
        for part, params in ((1, {"i": 0, "j": 1, "part": 1}),
                             (2, {"i": 0, "j": 1, "part": 2, "p": 1})):
            def run(cfg9=cfg9, params=params):
                rows = weights.convolution_bound_verify("BiBj", cfg9, params,
                                                        seed=seed)
                return bool(np.isfinite(rows[0]["ratio"])), None

            cases.append(Case(f"BiBj{part}-alpha{alpha:g}", run))
    dom = Ball((0.0,) * 5, 1.0)
    x = np.zeros(5)
    x[0] = 0.2 * rng.uniform(0.95, 1.05)
    y = np.zeros(5)
    y[0] = -0.1 * rng.uniform(0.95, 1.05)
    for gamma in (-0.5, 0.0, 1.0):
        for mu in (1e-1, 1e-3, 1e-5):
            def run(gamma=gamma, mu=mu):
                r = weights.giraud_verify(gamma, 2.0, mu, x, y, dom, seed=seed)
                return bool(np.isfinite(r["ratio"]) and 0 < r["ratio"] < 100), None

            cases.append(Case(f"giraud-g{gamma:g}-mu{mu:g}", run,
                              smoke=(gamma, mu) == (-0.5, 1e-1)))
    return cases


def report_hashes(out: str) -> dict[str, str]:
    """sha256 of every report file under ``out`` except the manifests."""
    hashes = {}
    for dirpath, _, files in os.walk(out):
        for name in files:
            if name in GOLDEN_SKIP:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def accuracy_digits(errs) -> float | None:
    """Digits of the worst independent discrepancy, floored at 1e-13."""
    errs = [e for e in errs if e is not None]
    if not errs:
        return None
    return min(-math.log10(max(e, 1e-13)) for e in errs)
