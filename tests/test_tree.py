"""Bubble-tree geometry: structure relation, classification, radii, regions,
and dominance/interaction sweeps."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybubble
from polybubble.bubbles import BubbleSpec
from polybubble.quadrature import Ball
from polybubble.tree import (AmbiguousScalesError, FamilyLaw, TreeConfig,
                             check_dominance, classify, epsilon,
                             interaction_sup, stratified_samples)

N, K = 7, 1


def single(mu):
    return TreeConfig([BubbleSpec("interior", N, K, np.zeros(N), mu)])


def tower_cfg(alpha):
    law = FamilyLaw([1.0, 1.0], [1.0, 2.0], [[0.0] * N, [0.0] * N])
    return TreeConfig.from_family(law, alpha, N, K)


def separated_cfg(alpha):
    c1 = [0.4] + [0.0] * (N - 1)
    c2 = [-0.4] + [0.0] * (N - 1)
    law = FamilyLaw([1.0, 0.8], [1.0, 1.0], [c1, c2])
    return TreeConfig.from_family(law, alpha, N, K)


def offaxis_cfg(alpha):
    """separated_cfg with bubble 1 moved off bubble 0's line, to 0.4 e_2."""
    c1 = [0.4] + [0.0] * (N - 1)
    c2 = [0.0, 0.4] + [0.0] * (N - 2)
    law = FamilyLaw([1.0, 0.8], [1.0, 1.0], [c1, c2])
    return TreeConfig.from_family(law, alpha, N, K)


# -- structure relation -------------------------------------------------------

def test_epsilon_examples():
    b = lambda c, mu: BubbleSpec("interior", N, K, c, mu)
    same = TreeConfig([b(np.zeros(N), 0.1), b(np.zeros(N), 0.1)])
    assert epsilon(same, 0, 1) == pytest.approx(2.0)
    nested = TreeConfig([b(np.zeros(N), 0.1), b(np.zeros(N), 0.01)])
    assert epsilon(nested, 0, 1) == pytest.approx(0.1 + 1 / 0.1, rel=1e-14)
    c2 = np.zeros(N)
    c2[0] = 1.0
    apart = TreeConfig([b(np.zeros(N), 0.1), b(c2, 0.1)])
    assert epsilon(apart, 0, 1) == pytest.approx(100 + 1 + 1, rel=1e-14)
    with pytest.raises(ValueError):
        epsilon(same, 1, 1)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-4, 0.5), st.floats(1e-4, 0.5), st.floats(0, 2))
def test_epsilon_symmetric_and_at_least_two(mu1, mu2, dist):
    """AM-GM: mu/mu' + mu'/mu >= 2, plus a nonnegative separation term."""
    mus = sorted([mu1, mu2], reverse=True)
    c2 = np.zeros(N)
    c2[0] = dist
    cfg = TreeConfig([BubbleSpec("interior", N, K, np.zeros(N), mus[0]),
                      BubbleSpec("interior", N, K, c2, mus[1])])
    e12 = epsilon(cfg, 0, 1)
    assert e12 == pytest.approx(epsilon(cfg, 1, 0), rel=1e-12)
    assert e12 >= 2.0 - 1e-12


# -- classification -----------------------------------------------------------

def test_ordering_enforced():
    b = lambda mu: BubbleSpec("interior", N, K, np.zeros(N), mu)
    with pytest.raises(ValueError):
        TreeConfig([b(0.01), b(0.1)])


def test_single_bubble_classification():
    data = classify(single(0.04))
    assert data.slower[0] == [] and data.faster[0] == []
    assert data.r[0] == pytest.approx(math.sqrt(0.04))
    assert data.interacting[0] == []


def test_comparable_pair_disjointness_exact():
    """B(x_0, s_01) and B(x_1, s_10) are disjoint for comparable bubbles."""
    for alpha in (1e2, 1e3, 1e4):
        cfg = separated_cfg(alpha)
        data = classify(cfg)
        d = float(np.linalg.norm(cfg.bubbles[0].center - cfg.bubbles[1].center))
        assert data.s[(0, 1)] + data.s[(1, 0)] < d  # exact geometric test
        assert (0, 1) in data.m and (1, 0) in data.m


def test_tower_classification_and_rho():
    alpha = 100.0
    cfg = tower_cfg(alpha)
    data = classify(cfg)
    n, k = N, K
    assert data.faster[0] == [1]
    assert data.slower[1] == [0]
    assert data.interacting[0] == [1]
    rho_expected = 2.0 * (alpha ** -1.0) ** ((n - 2 * k) / (2 * (n - 1))) \
        * (0.0 + alpha ** -1.0)
    assert data.rho[(1, 0)] == pytest.approx(rho_expected, rel=1e-12)
    # rho^{ji} = o(r^i) along the family sweep
    ratios = []
    for a in (1e2, 1e3, 1e4):
        dd = classify(tower_cfg(a))
        ratios.append(dd.rho[(1, 0)] / dd.r[0])
    assert ratios[0] > ratios[1] > ratios[2]


def test_paper_ordering_subset_invariant():
    """Indices before i (slower scales) always belong to the slower set."""
    cfg = tower_cfg(50.0)
    data = classify(cfg)
    for i in range(len(cfg.bubbles)):
        assert set(range(i)) <= set(data.slower[i])
        assert set(data.slower[i]) | set(data.faster[i]) | {i} \
            == set(range(len(cfg.bubbles)))
        assert data.r[i] <= math.sqrt(cfg.bubbles[i].mu) + 1e-15


def test_snapshot_ambiguity_refused():
    b = lambda c, mu: BubbleSpec("interior", N, K, c, mu)
    cfg = TreeConfig([b(np.zeros(N), 0.1), b(np.ones(N) * 0.1, 0.1 * 0.05)])
    with pytest.raises(AmbiguousScalesError) as exc:
        classify(cfg)
    assert "mu^1/mu^0" in str(exc.value)


def test_r_over_mu_grows_when_eps_diverges():
    vals = []
    for a in (1e2, 1e3, 1e4):
        cfg = separated_cfg(a)
        data = classify(cfg)
        vals.append(data.r[0] / cfg.bubbles[0].mu)
    assert vals[0] < vals[1] < vals[2]


def test_rho_dominance_crossover():
    """Inside B(x_j, rho^{ji}) the faster bubble dominates pointwise;
    well outside it is dominated (l = 0)."""
    from polybubble.bubbles import positive_bubble, theta

    cfg = tower_cfg(200.0)
    data = classify(cfg)
    rho = data.rho[(1, 0)]
    b0, b1 = cfg.bubbles
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(50, N))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    inside = b1.center + 0.3 * rho * dirs
    outside = b1.center + 20.0 * rho * dirs
    r_in = (positive_bubble(b1, inside) / positive_bubble(b0, inside))
    r_out = (positive_bubble(b1, outside) / positive_bubble(b0, outside))
    assert r_in.min() > 1.0       # faster bubble wins inside
    assert r_out.max() < 1.0      # loses well outside


# -- sampling, dominance, interaction -----------------------------------------

def test_stratified_samples_stay_in_region():
    cfg = tower_cfg(100.0)
    data = classify(cfg)
    pts = stratified_samples(data.regions[0], cfg, 256, seed=1)
    assert len(pts) > 0
    assert np.all(data.regions[0].contains(pts))


def test_empty_region_error():
    cfg = single(0.04)
    data = classify(cfg)
    # shrink the clip domain so nothing survives
    from polybubble.tree import Region

    far = Ball((10.0,) * N, 0.1)
    empty = Region(data.regions[0].outer, [], far)
    with pytest.raises(ValueError):
        stratified_samples(empty, cfg, 64, seed=0)


def test_dominance_measured_constant_stable():
    consts = []
    for mu in (1e-2, 1e-3):
        cfg = single(mu)
        data = classify(cfg)
        rep = check_dominance(cfg, data, 0, seed=2)[0]
        consts.append(rep["constant"])
        assert np.isfinite(rep["constant"])
    # stable across scales (same a_{n,k}-driven constant)
    assert abs(consts[0] - consts[1]) / consts[0] < 0.5


def test_dominance_slower_bubble_barely_changes_constant():
    """Inside the influence radius, an added slower bubble is pointwise
    dominated, so the measured constant moves by < 10%."""
    b0 = BubbleSpec("interior", N, K, np.zeros(N), 1e-3)
    cfg1 = TreeConfig([b0])
    d1 = classify(cfg1)
    c1 = check_dominance(cfg1, d1, 0, seed=3)[0]["constant"]
    far = np.zeros(N)
    far[0] = 0.6
    slower = BubbleSpec("interior", N, K, far, 0.3)
    cfg2 = TreeConfig([slower, b0])  # ordering: larger scale first
    d2 = classify(cfg2)
    c2 = check_dominance(cfg2, d2, 1, seed=3)[0]["constant"]
    assert c2 < 1.1 * c1 + 1e-9


def test_dominance_tower_constant_bounded_across_alpha():
    """The faster bubble contributes at most a bounded rho-edge constant:
    the measured sup stays below a fixed cap, with no growth along the
    family sweep."""
    consts = []
    for a in (1e2, 1e3, 1e4):
        cfg = tower_cfg(a)
        data = classify(cfg)
        consts.append(check_dominance(cfg, data, 0, seed=3)[0]["constant"])
    assert all(np.isfinite(c) for c in consts)
    assert max(consts) < 100.0
    assert consts[-1] <= 1.5 * consts[0]


def test_dominance_high_order_finite():
    cfg = tower_cfg(100.0)
    data = classify(cfg)
    rep = check_dominance(cfg, data, 0, seed=4)[2 * K - 1]
    assert np.isfinite(rep["constant"])


def test_interaction_sup_bounded_over_sweep():
    for make in (tower_cfg, separated_cfg):
        ratios = []
        for a in (1e2, 1e3, 1e4):
            cfg = make(a)
            data = classify(cfg)
            rep = interaction_sup(cfg, data, 0, seed=5)
            ratios.append(rep["ratio"])
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 20.0 * min(ratios)  # no systematic blow-up


def test_interaction_single_bubble_orders():
    """N=1: the measured sup matches the r=0 terms mu^{(n-2k)/2} + mu^{2k}."""
    for mu in (1e-2, 1e-3):
        cfg = single(mu)
        data = classify(cfg)
        rep = interaction_sup(cfg, data, 0, seed=6)
        scale = mu ** (0.5 * (N - 2 * K)) + mu ** (2 * K)
        assert rep["lhs"] < 10 * scale
        assert rep["lhs"] > 0.01 * scale


def test_tree_from_json():
    """from_json reads a literal snapshot record with its own domain, and
    each fixture text into the family config it records at alpha = 100."""
    bubbles = [{"kind": "interior", "n": N, "k": K, "mu": 0.05,
                "center": [0.1] + [0.0] * (N - 1)},
               {"kind": "interior", "n": N, "k": K, "mu": 1e-3,
                "center": [0.0, -0.2] + [0.0] * (N - 2)}]
    cfg = TreeConfig.from_json(json.dumps(
        {"bubbles": bubbles, "domain": {"center": [0.05] + [0.0] * (N - 1), "radius": 1.5}}))
    assert [(b.mu, b.center.tolist()) for b in cfg.bubbles] == [
        (d["mu"], d["center"]) for d in bubbles]
    assert cfg.domain == Ball((0.05,) + (0.0,) * (N - 1), 1.5)
    assert cfg.family_law is None
    fixtures = os.path.join(os.path.dirname(polybubble.__file__), "fixtures")
    for name, family in (("tower.json", tower_cfg), ("separated.json", separated_cfg),
                         ("offaxis.json", offaxis_cfg)):
        with open(os.path.join(fixtures, name)) as fh:
            got = TreeConfig.from_json(fh.read())
        want = family(100.0)
        assert [(b.mu, b.center.tolist()) for b in got.bubbles] == [
            (b.mu, b.center.tolist()) for b in want.bubbles]
        assert (got.domain, got.family_law) == (want.domain, want.family_law)
        js = classify(got).to_json()
        assert js == classify(want).to_json() and '"regions"' in js
