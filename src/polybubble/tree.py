"""Bubble-tree geometry: the structure relation, slower/faster bubble sets,
radii of influence, dominance regions and interaction estimates.

Asymptotic sets are limit statements about sequences, so configurations can
carry a power-law family mu^i(alpha) = c_i alpha^{-gamma_i} with fixed
centres; limits are then decided exactly from exponents.  Snapshot
configurations use a ratio threshold band and refuse ambiguous scale pairs
rather than guessing.

Bubble indices are 0-based throughout the code; index -1 never appears and
the constant zeroth profile (B^0 = 1, theta^0 = 1) is handled separately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bubbles import BubbleSpec, _json_object, positive_bubble, theta
from .quadrature import Ball, as_points, row_sq_norms
from .radial import bubble_constant, critical_exponent

__all__ = [
    "AmbiguousScalesError",
    "FamilyLaw",
    "TreeConfig",
    "Region",
    "InfluenceData",
    "epsilon",
    "classify",
    "theta_pow_B",
    "weight_sum",
    "pair_sum",
    "check_dominance",
    "pair_bound",
    "interaction_sup",
    "stratified_samples",
]

# snapshot scale ratios mu^j/mu^i strictly inside this band are refused
_AMBIGUOUS_BAND = (1e-2, 1e-1)
_REGION_SAMPLES = 512  # points of an influence region behind a measured sup


class AmbiguousScalesError(ValueError):
    """Snapshot scale ratio falls inside the undecidable threshold band."""


@dataclass
class FamilyLaw:
    """Power-law family: mu^i(a) = c_i a^{-gamma_i}, centre x^i = base_i."""

    mu_coeff: list
    mu_exp: list
    center_base: list

    def n_bubbles(self):
        return len(self.mu_coeff)

    def mu(self, i, alpha):
        return self.mu_coeff[i] * alpha ** (-self.mu_exp[i])


@dataclass
class TreeConfig:
    """An ordered bubble family: bubbles must satisfy
    mu^{N-1} <= ... <= mu^0 < 1 (slowest first).  With a family_law they
    are its family at one alpha > 0: each centre is its center_base and each
    mu^i is c_i alpha^{-gamma_i} to a relative 1e-9."""

    bubbles: list
    family_law: FamilyLaw | None = None
    domain: Ball | None = None

    def __post_init__(self):
        if not self.bubbles:
            raise ValueError("a bubble-tree needs at least one bubble")
        mus = [b.mu for b in self.bubbles]
        if any(m >= 1.0 for m in mus):
            raise ValueError("all scales must lie in (0, 1)")
        if any(m2 > m1 + 1e-15 for m1, m2 in zip(mus, mus[1:])):
            raise ValueError("bubbles must be ordered by nonincreasing mu")
        nk = {(b.n, b.k) for b in self.bubbles}
        if len(nk) != 1:
            raise ValueError("all bubbles must share (n, k)")
        n = self.bubbles[0].n
        if self.domain is None:
            self.domain = Ball((0.0,) * n, 1.0)
        c, R = self.domain.center, self.domain.radius
        if len(c) != n:
            raise ValueError(f"domain center needs {n} entries, got {len(c)}")
        if not R > 0:
            raise ValueError(f"domain radius must be positive, got {R}")
        if not np.isfinite([*c, R]).all():
            raise ValueError("domain center and radius must be finite")
        law = self.family_law
        if law is not None:
            N = len(self.bubbles)
            if ({len(law.mu_coeff), len(law.mu_exp), len(law.center_base)} != {N}
                    or {len(c) for c in law.center_base} != {n}):
                raise ValueError("family law size mismatch")
            if not all(0 < v < math.inf for v in [*law.mu_coeff, *law.mu_exp]):
                raise ValueError("family-law scale coefficients and exponents "
                                 "must be finite and > 0")
            alpha = (law.mu_coeff[0] / self.bubbles[0].mu) ** (1.0 / law.mu_exp[0])
            for i, b in enumerate(self.bubbles):
                if (abs(law.mu(i, alpha) - b.mu) > 1e-9 * b.mu or not np.array_equal(
                        b.center, np.asarray(law.center_base[i], float))):
                    raise ValueError(f"bubble {i} is not the family law's at bubble 0's "
                                     f"alpha = {alpha:g}: mu {law.mu(i, alpha):g} "
                                     f"about center_base[{i}]")

    @property
    def n(self):
        return self.bubbles[0].n

    @property
    def k(self):
        return self.bubbles[0].k

    @classmethod
    def from_family(cls, law: FamilyLaw, alpha: float, n: int, k: int):
        """The family at alpha, slowest bubble first."""
        order = np.argsort([-law.mu(i, alpha) for i in range(law.n_bubbles())],
                           kind="stable")
        law = FamilyLaw(*([f[i] for i in order]
                          for f in (law.mu_coeff, law.mu_exp, law.center_base)))
        return cls([BubbleSpec("interior", n, k, law.center_base[i], law.mu(i, alpha))
                    for i in range(law.n_bubbles())], family_law=law)

    @classmethod
    def from_json(cls, text: str) -> "TreeConfig":
        """The config of a JSON record: a "bubbles" list of BubbleSpec
        records and, optionally, a "domain" (center, radius) and a
        "family_law" (mu_coeff, mu_exp, center_base).  Raises ValueError on a
        key it does not read and on a container of the wrong JSON type."""
        d = _json_object(json.loads(text), "tree config",
                         ("bubbles", "domain", "family_law"))
        if not isinstance(d["bubbles"], list):
            raise ValueError("bubbles must be a JSON list, not "
                             f"{type(d['bubbles']).__name__}")
        bubbles = [BubbleSpec.from_dict(b) for b in d["bubbles"]]
        dom = law = None
        if "domain" in d:
            dd = _json_object(d["domain"], "domain", ("center", "radius"))
            dom = Ball(tuple(dd["center"]), dd["radius"])
        if "family_law" in d:
            law = FamilyLaw(**_json_object(d["family_law"], "family_law",
                                           ("mu_coeff", "mu_exp", "center_base")))
        return cls(bubbles, law, dom)


# ---------------------------------------------------------------------------
# Structure relation and classification
# ---------------------------------------------------------------------------

def epsilon(cfg: TreeConfig, i: int, j: int) -> float:
    """|x^i-x^j|^2/(mu^i mu^j) + mu^i/mu^j + mu^j/mu^i; symmetric, >= 2."""
    if i == j:
        raise ValueError("epsilon needs two distinct bubbles")
    bi, bj = cfg.bubbles[i], cfg.bubbles[j]
    d2 = float(np.sum((bi.center - bj.center) ** 2))
    return d2 / (bi.mu * bj.mu) + bi.mu / bj.mu + bj.mu / bi.mu


def _faster(cfg: TreeConfig, j: int, i: int) -> bool:
    """True iff mu^j = o(mu^i); a snapshot ratio inside _AMBIGUOUS_BAND
    raises AmbiguousScalesError."""
    if cfg.family_law is not None:
        return cfg.family_law.mu_exp[j] > cfg.family_law.mu_exp[i]
    lo, hi = _AMBIGUOUS_BAND
    ratio = cfg.bubbles[j].mu / cfg.bubbles[i].mu
    if ratio >= hi:
        return False
    if ratio <= lo:
        return True
    raise AmbiguousScalesError(
        f"scale ratio mu^{j}/mu^{i} = {ratio:.3g} falls in the ambiguity band "
        f"({lo:.3g}, {hi:.3g}); use a family-law configuration")


class Region:
    """Influence region: (ball of radius r about the bubble center) minus the
    faster bubbles' dominance balls, clipped to the ambient domain."""

    def __init__(self, outer: Ball, holes, clip: Ball):
        self.outer = outer
        self.holes = list(holes)
        self.clip = clip

    def contains(self, x):
        x = as_points(x)
        mask = self.outer.contains(x) & self.clip.contains(x)
        for h in self.holes:
            c = np.asarray(h.center)
            mask &= row_sq_norms(x - c) >= h.radius**2
        return mask

    def describe(self):
        def ball(b):
            return {"center": list(map(float, b.center)), "radius": b.radius}
        return {"outer": ball(self.outer), "holes": [ball(h) for h in self.holes],
                "clip": ball(self.clip)}


@dataclass
class InfluenceData:
    slower: dict          # i -> sorted list (the set A_i)
    faster: dict          # i -> sorted list (the set A_i^c)
    interacting: dict     # i -> sorted list (the set B_i)
    s: dict               # (i, j) -> s^{ij} for j in A_i
    r: dict               # i -> radius of influence r^i
    rho: dict             # (j, i) -> rho^{ji} for j in B_i
    m: dict               # (i, j) -> limit of scale-ratio sums, comparable pairs
    regions: dict         # i -> Region
    draws: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def samples(self, cfg: TreeConfig, i: int, seed: int) -> np.ndarray:
        """_REGION_SAMPLES points of region i drawn with seed
        (stratified_samples): drawn on the first call for (i, seed), kept in
        draws read-only, and returned as that same array by every later
        call, so the checks of one region share one draw."""
        if (i, seed) not in self.draws:
            pts = stratified_samples(self.regions[i], cfg, _REGION_SAMPLES, seed)
            pts.setflags(write=False)
            self.draws[(i, seed)] = pts
        return self.draws[(i, seed)]

    def to_json(self) -> str:
        return json.dumps({
            "slower": {str(i): v for i, v in self.slower.items()},
            "faster": {str(i): v for i, v in self.faster.items()},
            "interacting": {str(i): v for i, v in self.interacting.items()},
            "s": {f"{i},{j}": v for (i, j), v in self.s.items()},
            "r": {str(i): v for i, v in self.r.items()},
            "rho": {f"{j},{i}": v for (j, i), v in self.rho.items()},
            "m": {f"{i},{j}": v for (i, j), v in self.m.items()},
            "regions": {str(i): reg.describe() for i, reg in self.regions.items()},
        }, indent=2)


def classify(cfg: TreeConfig) -> InfluenceData:
    """Full influence data for a configuration.

    s^{ij} has two branches: the strict o(mu^j) branch and the comparable
    branch carrying the extra 1/(4 m_ij) factor; r^i caps at sqrt(mu^i);
    rho^{ji} = 2 (mu^j/mu^i)^{(n-2k)/(2(n-1))} (|x^j-x^i| + mu^i).
    """
    N = len(cfg.bubbles)
    n, k = cfg.n, cfg.k
    a = bubble_constant(n, k)
    slower, faster, inter = {}, {}, {}
    s_rad, r_rad, rho_rad, m_lim, regions = {}, {}, {}, {}, {}

    for i in range(N):
        Ai, Aic = [], []
        for j in range(N):
            if j == i:
                continue
            if _faster(cfg, j, i):
                Aic.append(j)
            else:
                Ai.append(j)
        slower[i], faster[i] = Ai, Aic

    for i in range(N):
        bi = cfg.bubbles[i]
        best = math.sqrt(bi.mu)
        for j in slower[i]:
            bj = cfg.bubbles[j]
            d2 = float(np.sum((bi.center - bj.center) ** 2))
            base = (bi.mu / bj.mu) * (bj.mu**2 + a * d2)
            if i in faster[j]:                   # mu^i = o(mu^j): strict branch
                s2 = base / a
            else:                                # comparable bubbles
                if cfg.family_law is not None:
                    ci = cfg.family_law.mu_coeff[i]
                    cj = cfg.family_law.mu_coeff[j]
                    mij = ci / cj + cj / ci
                else:
                    mij = bi.mu / bj.mu + bj.mu / bi.mu
                m_lim[(i, j)] = mij
                s2 = base / (4.0 * a * mij)
            s_rad[(i, j)] = math.sqrt(s2)
            best = min(best, s_rad[(i, j)])
        r_rad[i] = best

    for i in range(N):
        bi = cfg.bubbles[i]
        Bi = []
        for j in faster[i]:
            bj = cfg.bubbles[j]
            dij = float(np.linalg.norm(bi.center - bj.center))
            if dij <= 2.0 * r_rad[i]:
                Bi.append(j)
                rho_rad[(j, i)] = (2.0 * (bj.mu / bi.mu) ** ((n - 2 * k) / (2.0 * (n - 1)))
                                   * (dij + bi.mu))
        inter[i] = Bi
        holes = [Ball(tuple(cfg.bubbles[j].center), rho_rad[(j, i)]) for j in Bi]
        regions[i] = Region(Ball(tuple(bi.center), r_rad[i]), holes, cfg.domain)

    return InfluenceData(slower, faster, inter, s_rad, r_rad, rho_rad, m_lim,
                         regions)


# ---------------------------------------------------------------------------
# Sampling and sweep measurements
# ---------------------------------------------------------------------------

def stratified_samples(region: Region, cfg: TreeConfig, count: int = 512,
                       seed: int = 0) -> np.ndarray:
    """Sample points of a region: shells at radii mu 2^t around each bubble
    center plus a uniform background (sups live near centers and shell
    boundaries)."""
    rng = np.random.default_rng(seed)
    n = cfg.n

    def directions(m):
        dirs = rng.normal(size=(m, n))
        return dirs / np.sqrt(row_sq_norms(dirs))[:, None]
    pts = []
    r_out = region.outer.radius
    for b in cfg.bubbles:
        radius = b.mu
        while radius < 2.0 * r_out:
            pts.append(b.center + radius * directions(8))
            radius *= 2.0
    # uniform background in the outer ball
    m = max(count, 64)
    dirs = directions(m)
    radii = r_out * rng.uniform(0, 1, size=m) ** (1.0 / n)
    pts.append(np.asarray(region.outer.center) + radii[:, None] * dirs)
    pts = np.concatenate(pts, axis=0)
    keep = pts[region.contains(pts)]
    if len(keep) == 0:
        raise ValueError("influence region contains no sample points")
    return keep[:count] if len(keep) > count else keep


def theta_pow_B(b: BubbleSpec, l: int, pts) -> np.ndarray:
    """theta_b^{-l} B_b at points (m, n)."""
    return theta(b, pts) ** (-l) * positive_bubble(b, pts)


def weight_sum(cfg: TreeConfig, l: int, pts) -> np.ndarray:
    """1 + sum_j theta_j^{-l} B_j at points (m, n)."""
    pts = as_points(pts)
    out = np.ones(len(pts))
    for b in cfg.bubbles:
        out += theta_pow_B(b, l, pts)
    return out


def pair_sum(cfg: TreeConfig, B: list, out: np.ndarray) -> np.ndarray:
    """Add sum_{i != j} (B^j)^{2#-2} B^i over indices 0..N into out and
    return it; B = [B^1, ..., B^N] at the points of out, and B^0 = 1."""
    ts = critical_exponent(cfg.n, cfg.k)
    B = [np.ones(len(out))] + list(B)
    P = [b ** (ts - 2.0) for b in B]
    for i in range(len(B)):
        for j in range(len(B)):
            if i != j:
                out += P[j] * B[i]
    return out


def check_dominance(cfg: TreeConfig, data: InfluenceData, i: int, *,
                    seed: int = 0) -> list:
    """For each l < 2k, the measured sup of
    (1 + sum_j theta_j^{-l} B_j) / (theta_i^{-l} B_i) over the sample
    points data.samples(cfg, i, seed) of the influence region, indexed by l."""
    pts = data.samples(cfg, i, seed)
    ratios = [weight_sum(cfg, l, pts) / theta_pow_B(cfg.bubbles[i], l, pts)
              for l in range(2 * cfg.k)]
    return [{"i": i, "l": l, "constant": float(np.max(r)), "samples": len(pts)}
            for l, r in enumerate(ratios)]


def pair_bound(cfg: TreeConfig, data: InfluenceData, cap: float) -> float:
    """t1^m + t2^m + max_i (mu^i)^{min((n-2k)/2, 2k, cap)}, m = min(n-2k, 4k),
    with t1 = max eps_ij^{-1/2} over comparable pairs j in A_i and
    t2 = max (mu^j/mu^i)^{(2k-1)/(2(n-1))} over faster pairs j in A_i^c,
    each 0 when there is no such pair: the interaction bound with
    cap = inf, eta3 with cap = 1."""
    n, k = cfg.n, cfg.k
    t1 = t2 = 0.0
    for i in range(len(cfg.bubbles)):
        for j in data.slower[i]:
            t1 = max(t1, epsilon(cfg, i, j) ** -0.5)
        for j in data.faster[i]:
            t2 = max(t2, (cfg.bubbles[j].mu / cfg.bubbles[i].mu)
                     ** ((2 * k - 1) / (2.0 * (n - 1))))
    m = min(n - 2 * k, 4 * k)
    return (t1**m + t2**m
            + max(b.mu for b in cfg.bubbles) ** min(0.5 * (n - 2 * k), 2 * k, cap))


def interaction_sup(cfg: TreeConfig, data: InfluenceData, i: int, *,
                    seed: int = 0) -> dict:
    """Pointwise interaction estimate on the sample points
    data.samples(cfg, i, seed) of the influence region:

    lhs   = (mu^i)^{(n+2k)/2} sup sum_{r != s} (B^r)^{2#-2} B^s  (indices 0..N)
    bound = pair_bound(cfg, data, inf)  (its mu term: the zeroth profile)
    """
    n, k = cfg.n, cfg.k
    pts = data.samples(cfg, i, seed)
    B = [positive_bubble(b, pts) for b in cfg.bubbles]
    tot = pair_sum(cfg, B, np.zeros(len(pts)))
    lhs = cfg.bubbles[i].mu ** (0.5 * (n + 2 * k)) * float(np.max(tot))
    bound = pair_bound(cfg, data, math.inf)
    return {"i": i, "lhs": lhs, "bound": bound, "ratio": lhs / bound,
            "samples": len(pts)}
