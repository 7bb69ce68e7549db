"""The weight Psi of a bubble-tree, the eta control sequences, and
numerical verifiers for the convolution-integral lemmas: Giraud's lemma and
the bubble-tree estimates it feeds.

Verification here means measured boundedness: the source bounds carry
unspecified constants, so each verifier reports LHS/RHS ratios across sweeps
and the tests check stability/decay, not particular values.
"""

from __future__ import annotations

import csv
import io
import math
import numpy as np

from .bubbles import positive_bubble, theta
from .quadrature import (Ball, BallMinusBalls, Singularity, _require_on_axis,
                         as_points, integrate_volume, sq_dist)
from .radial import critical_exponent
from .tree import (TreeConfig, classify, pair_bound, pair_sum, theta_pow_B,
                   weight_sum)

__all__ = [
    "psi_weight",
    "eta_sequences",
    "giraud_verify",
    "convolution_bound_verify",
    "ratio_table_csv",
]


# ---------------------------------------------------------------------------
# The weight
# ---------------------------------------------------------------------------

def psi_weight(cfg: TreeConfig, y) -> np.ndarray:
    """Psi(y) = sum_i theta_i^{2-2k} B_i + sum_{i != j} B_j^{2#-2} B_i with
    indices running over 0..N and the zeroth profile B^0 = 1, theta^0 = 1."""
    y = as_points(y)
    B = [positive_bubble(b, y) for b in cfg.bubbles]
    out = np.zeros(len(y))
    for b, Bb in zip(cfg.bubbles, B):
        out += theta(b, y) ** (2 - 2 * cfg.k) * Bb
    return pair_sum(cfg, B, out)


# ---------------------------------------------------------------------------
# Quadrature helpers for convolution integrals
# ---------------------------------------------------------------------------

def _common_axis(center, points):
    """A symmetry axis (center, unit direction) through center covering all
    points, along the first point off center, or None if they are not
    collinear with it."""
    c = np.asarray(center, float)
    rel = [r for r in (np.asarray(p, float) - c for p in points)
           if np.linalg.norm(r) > 1e-12]
    d = rel[0] / np.linalg.norm(rel[0]) if rel else np.eye(len(c))[0]
    try:
        _require_on_axis(points, c, d, 1.0, "point")
    except ValueError:
        return None
    return (c, d)


def _integrate(f, domain: Ball, sings, seed: int, hole: Ball | None = None):
    """integrate_volume of f over the ball domain, minus hole, with the
    singularities sings declared: on the axisymmetric rule when their points
    and the hole centre lie on one line through the domain centre, by QMC
    otherwise.  The axis runs along the first weight peak (order 0) off the
    centre, else the first pole, so that a tree's integrals share the
    direction of its sample points."""
    sings = tuple(sings)
    if hole is None:
        dom = Ball(tuple(domain.center), domain.radius, singularities=sings)
    else:
        dom = BallMinusBalls(Ball(tuple(domain.center), domain.radius), (hole,),
                             singularities=sings)
    pts = [s.point for s in sorted(sings, key=lambda s: s.order > 0)]
    axis = _common_axis(domain.center, pts + ([] if hole is None else [hole.center]))
    return integrate_volume(f, dom, seed=seed, axis=axis)


def _conv_integral(cfg: TreeConfig, x, expos, weight, peaks,
                   hole: Ball | None = None, seed: int = 0):
    """int_domain |x-y|^{expo} * weight(y) dy for each expo < 0 in expos, all
    on one rule (_integrate), with the kernel singularity at x declared at
    the order of the most singular kernel and the weight peaks (centre,
    scale).  Returns (values, error estimates), one entry per expo, as lists
    of floats.
    """
    x = np.asarray(x, float)

    def f(y):
        d = np.maximum(np.sqrt(sq_dist(y, x)), 1e-300)
        w = weight(y)
        return np.stack([d ** expo * w for expo in expos])

    sings = [Singularity(tuple(x), -min(expos), 0.0)]
    sings += [Singularity(tuple(np.asarray(c, float)), 0.0, scale) for c, scale in peaks]
    res = _integrate(f, cfg.domain, sings, seed, hole)
    return res.value.tolist(), res.error_estimate.tolist()


def sample_x_points(cfg: TreeConfig, i: int, count: int = 6) -> list[np.ndarray]:
    """The first count of six evaluation points for convolution sup checks:
    on the configuration axis at bubble-scale, influence-scale and
    domain-scale distances.  A count above six raises ValueError."""
    b = cfg.bubbles[i]
    axis = _common_axis(cfg.domain.center, [bb.center for bb in cfg.bubbles])
    d = axis[1] if axis is not None else np.eye(cfg.n)[0]
    offs = [0.0, b.mu, 4.0 * b.mu, math.sqrt(b.mu), 0.45, 0.9]
    if count > len(offs):
        raise ValueError(f"x_count {count} exceeds the {len(offs)} sample points")
    pts = [b.center + o * d for o in offs[:count]]
    R = cfg.domain.radius
    cc = np.asarray(cfg.domain.center, float)
    out = []
    for p in pts:
        r = np.linalg.norm(p - cc)
        out.append(p if r < R else cc + (p - cc) * (0.98 * R / r))
    return out


# ---------------------------------------------------------------------------
# eta sequences
# ---------------------------------------------------------------------------

_ETA_X_COUNT = 2  # evaluation points (sample_x_points) of eta2's sup


def eta_sequences(cfg: TreeConfig, *, seed: int = 0) -> dict:
    """The three control sequences of the weighted-norm machinery:

    eta1 = L^{2n/(n+2k)} norm of Psi over the domain (quadrature);
    eta2 = sup_x max_l int |x-y|^{2k-n-l} Psi(y) dy / (1 + sum theta^{-l} B),
           over the first _ETA_X_COUNT points of sample_x_points;
    eta3 = tree.pair_bound at cap 1: the interaction bound with the
           exponent of its mu term capped at 1.
    """
    n, k = cfg.n, cfg.k

    # eta1 by quadrature
    q = 2.0 * n / (n + 2 * k)
    r1 = _integrate(lambda y: psi_weight(cfg, y) ** q, cfg.domain,
                    [Singularity(tuple(b.center), 0.0, b.mu) for b in cfg.bubbles], seed)
    eta1 = r1.value ** (1.0 / q)

    # eta2: the worst ratio of the lem2 convolution bound
    eta2 = max(row["ratio"] for row in convolution_bound_verify(
        "lem2", cfg, {"i": 0, "x_count": _ETA_X_COUNT}, seed=seed))

    # eta3: arithmetic on the configuration
    eta3 = pair_bound(cfg, classify(cfg), 1)

    return {"eta1": eta1, "eta2": eta2, "eta3": eta3,
            "eta": max(eta1, eta2, eta3)}


# ---------------------------------------------------------------------------
# Giraud's lemma
# ---------------------------------------------------------------------------

def giraud_verify(gamma: float, beta: float, mu: float, x, y,
                  domain: Ball, seed: int = 0, with_log: bool = True) -> dict:
    """Z(x,y) = int (mu+|x-z|)^{gamma-n} |z-y|^{beta-n} dz against the
    three-case bound:

        gamma < 0:  mu^gamma (mu+d)^{beta-n}
        gamma = 0:  (mu+d)^{beta-n} (1 + |log((mu+d)/mu)|)   [log optional]
        gamma > 0:  (mu+d)^{beta+gamma-n}

    with d = |x-y|.  Returns the integral, the bound, their ratio and the
    quadrature error.
    """
    n = domain.dim
    if beta <= 0 or beta + gamma >= n or not (0 < mu < 1):
        raise ValueError("need beta > 0, beta + gamma < n, 0 < mu < 1")
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d = float(np.linalg.norm(x - y))

    def f(z):
        rx = np.sqrt(sq_dist(z, x))
        ry = np.maximum(np.sqrt(sq_dist(z, y)), 1e-300)
        return (mu + rx) ** (gamma - n) * ry ** (beta - n)

    res = _integrate(f, domain, (Singularity(tuple(x), 0.0, mu),
                                 Singularity(tuple(y), n - beta, 0.0)), seed)

    if gamma < 0:
        bound = mu**gamma * (mu + d) ** (beta - n)
    elif gamma == 0:
        bound = (mu + d) ** (beta - n)
        if with_log:
            bound *= 1.0 + abs(math.log((mu + d) / mu))
    else:
        bound = (mu + d) ** (beta + gamma - n)
    return {"Z": res.value, "bound": bound, "ratio": res.value / bound,
            "quad_error": res.error_estimate, "d": d, "mu": mu,
            "gamma": gamma, "beta": beta}


# ---------------------------------------------------------------------------
# Convolution-lemma verifiers
# ---------------------------------------------------------------------------

def convolution_bound_verify(kind: str, cfg: TreeConfig, params: dict,
                             seed: int = 0) -> list[dict]:
    """LHS/RHS ratio rows for one of the bubble-tree integral lemmas.

    kind: "ordre2" | "trou0" | "trou" | "BiBj" | "lem2".  params carries
    (i, l, M, j, p, part, x_count, x_points) as relevant; x_count is at most
    six (sample_x_points) and the BiBj part 1 or 2.  Each row reports lhs,
    rhs, their ratio and the quadrature error estimate.
    """
    n, k = cfg.n, cfg.k
    ts = critical_exponent(n, k)
    i = params.get("i", 0)
    b = cfg.bubbles[i]

    M = params["M"] if kind == "trou" else None
    own = [(b.center, b.mu)]
    # kind -> (weight, peaks, hole radius in units of mu, rhs at (l, points))
    single_point = {
        "ordre2": (lambda y: theta(b, y) * positive_bubble(b, y) ** (ts - 1.0),
                   own, None, lambda l, x: b.mu * theta_pow_B(b, l, x)),
        "trou0": (lambda y: positive_bubble(b, y) ** (ts - 2.0),
                  own, None, lambda l, x: 1.0 + theta_pow_B(b, l, x)),
        "trou": (lambda y: positive_bubble(b, y) ** (ts - 1.0),
                 own, M, lambda l, x: M ** (-2.0 * k) * theta_pow_B(b, l, x)),
        "lem2": (lambda y: psi_weight(cfg, y),
                 [(bb.center, bb.mu) for bb in cfg.bubbles], None,
                 lambda l, x: weight_sum(cfg, l, x)),
    }
    if kind in single_point:
        weight, peaks, hole_mu, rhs_at = single_point[kind]
        hole = None if hole_mu is None else Ball(tuple(b.center), hole_mu * b.mu)
        ls = range(2 * k) if params.get("l") is None else [params["l"]]
        xs = params.get("x_points")
        if xs is None:
            xs = sample_x_points(cfg, i, count=params.get("x_count", 5))
        # every l at one x on one rule: [(values, errors)] per x
        per_x = [_conv_integral(cfg, x, [2 * k - n - l for l in ls], weight,
                                peaks, hole=hole, seed=seed) for x in xs]
        rows = []
        for li, l in enumerate(ls):
            for x, (vals, errs) in zip(xs, per_x):
                val, err = vals[li], errs[li]
                rhs = float(rhs_at(l, x[None, :])[0])
                rows.append({"kind": kind, "i": i, "l": l,
                             "x_off": float(np.linalg.norm(x - b.center)),
                             "mu_or_alpha": b.mu, "lhs": val, "rhs": rhs,
                             "ratio": val / rhs, "quad_error": err,
                             **({} if hole_mu is None else {"M": hole_mu})})
        return rows

    if kind == "BiBj":
        j = params["j"]
        part = params.get("part", 1)
        if part not in (1, 2):
            raise ValueError(f"BiBj part must be 1 or 2, not {part!r}")
        bj = cfg.bubbles[j]
        pref = (b.mu * bj.mu) ** (0.5 * (n - 2 * k))
        if part == 1:
            expo_i = expo_j = k - n
        else:
            p = params["p"]
            if n <= 4 * k - 2 * p:
                raise ValueError(f"need n > 4k-2p = {4 * k - 2 * p}")
            expo_i = expo_j = 2 * k - p - n

        def f(y):
            return (theta(b, y) ** expo_i) * (theta(bj, y) ** expo_j)

        res = _integrate(f, cfg.domain, (Singularity(tuple(b.center), 0.0, b.mu),
                                         Singularity(tuple(bj.center), 0.0, bj.mu)), seed)
        lhs = pref * res.value
        rhs = 1.0 if part == 1 else (b.mu * bj.mu) ** (k - params["p"])
        return [{"kind": f"BiBj{part}", "i": i, "j": j,
                 "mu_or_alpha": b.mu, "lhs": lhs, "rhs": rhs,
                 "ratio": lhs / rhs, "quad_error": pref * res.error_estimate}]

    raise ValueError(f"unknown lemma kind {kind!r}")


def ratio_table_csv(rows: list[dict]) -> str:
    """Verifier rows as the text of a CSV ratio table."""
    if not rows:
        raise ValueError("no rows to write")
    keys = sorted({k for row in rows for k in row}, key=str)
    front = [c for c in ("kind", "i", "j", "l", "M", "x_off",
                         "mu_or_alpha", "lhs", "rhs", "ratio", "quad_error")
             if c in keys]
    cols = front + [c for c in keys if c not in front]
    fh = io.StringIO()
    w = csv.DictWriter(fh, fieldnames=cols)
    w.writeheader()
    w.writerows(rows)
    return fh.getvalue()
