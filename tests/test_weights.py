"""The weight Psi, the eta sequences and the convolution-lemma verifiers:
formula checks with independently recomputed oracles, Giraud case behavior,
and short ratio sweeps (the full default sweeps run in the acceptance suite).
"""

import math

import numpy as np
import pytest

from polybubble import quadrature, tree, weights
from polybubble.bubbles import BubbleSpec, positive_bubble, theta
from polybubble.quadrature import Ball
from polybubble.radial import critical_exponent
from polybubble.tree import (FamilyLaw, Region, TreeConfig, classify,
                             epsilon, interaction_sup, stratified_samples)
from polybubble.weights import (convolution_bound_verify, eta_sequences,
                                giraud_verify, psi_weight, ratio_table_csv)

N, K = 7, 1


def single(mu):
    return TreeConfig([BubbleSpec("interior", N, K, np.zeros(N), mu)])


def domain_samples(cfg, count, seed):
    """Stratified sample points over the whole domain."""
    return stratified_samples(Region(cfg.domain, [], cfg.domain), cfg, count,
                              seed)


def test_psi_weight_positive_everywhere():
    cfg = single(1e-2)
    grid = domain_samples(cfg, 300, seed=0)
    assert np.all(psi_weight(cfg, grid) > 0)


def test_psi_weight_single_bubble_formula():
    """N=1 oracle: Psi = theta^{2-2k} B + B^{2#-2} + B (index-0 cross terms)."""
    cfg = single(1e-2)
    b = cfg.bubbles[0]
    ts = critical_exponent(N, K)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.8, 0.8, size=(40, N))
    expected = (theta(b, pts) ** (2 - 2 * K) * positive_bubble(b, pts)
                + positive_bubble(b, pts) ** (ts - 2.0)
                + positive_bubble(b, pts))
    assert np.allclose(psi_weight(cfg, pts), expected, rtol=1e-12)


def test_pair_sum_two_bubbles_against_written_out_sum(monkeypatch):
    """N=2 oracle: Psi and the interaction lhs against the sum over the 3x3
    index pairs i != j of B_j^{2#-2} B_i, with B_0 = 1, written out."""
    law = FamilyLaw([1.0, 1.0], [1.0, 2.0],
                    [[0.0] * N, [0.3] + [0.0] * (N - 1)])
    cfg = TreeConfig.from_family(law, 10.0, N, K)
    b1, b2 = cfg.bubbles
    e = critical_exponent(N, K) - 2.0

    def cross(pts):
        B0 = np.ones(len(pts))
        B1 = positive_bubble(b1, pts)
        B2 = positive_bubble(b2, pts)
        return (B1**e * B0 + B2**e * B0 + B0**e * B1 + B2**e * B1
                + B0**e * B2 + B1**e * B2)

    pts = domain_samples(cfg, 200, seed=8)
    expected = (theta(b1, pts) ** (2 - 2 * K) * positive_bubble(b1, pts)
                + theta(b2, pts) ** (2 - 2 * K) * positive_bubble(b2, pts)
                + cross(pts))
    assert np.allclose(psi_weight(cfg, pts), expected, rtol=1e-12, atol=0)

    data = classify(cfg)
    monkeypatch.setattr(tree, "_REGION_SAMPLES", 256)
    for i, b in enumerate(cfg.bubbles):
        row = interaction_sup(cfg, data, i, seed=9)
        region_pts = stratified_samples(data.regions[i], cfg, 256, seed=9)
        lhs = b.mu ** (0.5 * (N + 2 * K)) * np.max(cross(region_pts))
        assert row["lhs"] == pytest.approx(lhs, rel=1e-12)


def test_psi_weight_value_at_center():
    cfg = single(1e-2)
    b = cfg.bubbles[0]
    mu = b.mu
    val = psi_weight(cfg, b.center[None, :])[0]
    Bc = mu ** (-0.5 * (N - 2 * K))
    expected = mu ** (2 - 2 * K) * Bc + Bc ** (critical_exponent(N, K) - 2) + Bc
    assert val == pytest.approx(expected, rel=1e-12)


def test_eta_arithmetic_against_oracle(monkeypatch):
    """eta3 recomputed independently from the configuration."""
    monkeypatch.setattr(weights, "_ETA_X_COUNT", 1)
    law = FamilyLaw([1.0, 1.0], [1.0, 2.0], [[0.0] * N, [0.0] * N])
    cfg = TreeConfig.from_family(law, 100.0, N, K)
    es = eta_sequences(cfg)
    # oracle recomputation
    data = classify(cfg)
    m = min(N - 2 * K, 4 * K)
    t1 = max((epsilon(cfg, i, j) ** -0.5
              for i in range(2) for j in data.slower[i]), default=0.0)
    t2 = max((cfg.bubbles[j].mu / cfg.bubbles[i].mu) ** ((2 * K - 1) / (2 * (N - 1)))
             for i in range(2) for j in data.faster[i])
    mu_term = max(b.mu for b in cfg.bubbles) ** min((N - 2 * K) / 2, 2 * K, 1)
    assert es["eta3"] == pytest.approx(t1**m + t2**m + mu_term, rel=1e-12)
    assert es["eta"] == max(es["eta1"], es["eta2"], es["eta3"])


def test_eta3_single_bubble_formula(monkeypatch):
    monkeypatch.setattr(weights, "_ETA_X_COUNT", 1)
    cfg = single(1e-2)
    es = eta_sequences(cfg)
    assert es["eta3"] == pytest.approx(1e-2 ** min((N - 2 * K) / 2, 2 * K, 1),
                                       rel=1e-12)


def test_eta1_eta2_decay_along_sweep():
    e1s, e2s = [], []
    for mu in (1e-1, 1e-2, 1e-3):
        es = eta_sequences(single(mu))
        e1s.append(es["eta1"])
        e2s.append(es["eta2"])
    assert e1s[0] > e1s[1] > e1s[2]
    assert e2s[0] > e2s[1] > e2s[2]


def test_giraud_parameter_guards():
    dom = Ball((0.0,) * 5, 1.0)
    x = np.zeros(5)
    y = np.zeros(5)
    y[0] = 0.3
    with pytest.raises(ValueError):
        giraud_verify(1.0, -0.5, 0.1, x, y, dom)
    with pytest.raises(ValueError):
        giraud_verify(4.0, 2.0, 0.1, x, y, dom)  # beta + gamma >= n
    with pytest.raises(ValueError):
        giraud_verify(1.0, 2.0, 1.5, x, y, dom)


def test_giraud_positive_gamma_case():
    dom = Ball((0.0,) * 5, 1.0)
    x = np.zeros(5)
    x[0] = 0.2
    y = np.zeros(5)
    y[0] = -0.1
    ratios = [giraud_verify(1.0, 2.0, mu, x, y, dom)["ratio"]
              for mu in (1e-1, 1e-2)]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) < 100


def test_giraud_x_equals_y_finite():
    dom = Ball((0.0,) * 5, 1.0)
    x = np.zeros(5)
    x[0] = 0.2
    rep = giraud_verify(1.0, 2.0, 0.05, x, x, dom)
    assert np.isfinite(rep["Z"]) and rep["Z"] > 0


def test_giraud_log_case_discrimination():
    """gamma = 0: without the log factor the ratio grows ~ log(1/mu); with
    it the ratio stabilizes."""
    dom = Ball((0.0,) * 5, 1.0)
    x = np.zeros(5)
    x[0] = 0.2
    y = np.zeros(5)
    y[0] = -0.1
    with_log, no_log = [], []
    for mu in (1e-1, 1e-3, 1e-5):
        with_log.append(giraud_verify(0.0, 2.0, mu, x, y, dom)["ratio"])
        no_log.append(giraud_verify(0.0, 2.0, mu, x, y, dom,
                                    with_log=False)["ratio"])
    assert no_log[2] / no_log[1] > 1.8       # keeps growing
    assert with_log[2] / with_log[1] < 1.35  # saturates


def test_ordre2_ratio_bounded_short_sweep():
    for mu in (1e-1, 1e-2):
        cfg = single(mu)
        rows = convolution_bound_verify("ordre2", cfg, {"i": 0, "l": 0,
                                                        "x_count": 3}, seed=0)
        for r in rows:
            assert np.isfinite(r["ratio"]) and r["ratio"] < 1e4
            assert r["quad_error"] < 0.05 * r["lhs"]


def test_trou0_vanishing_factor():
    """The hole-free convolution with B^{2#-2} is o(1 + theta^{-l}B)."""
    vals = []
    for mu in (1e-1, 1e-2, 1e-3):
        cfg = single(mu)
        rows = convolution_bound_verify("trou0", cfg, {"i": 0, "l": 0,
                                                       "x_count": 2}, seed=0)
        vals.append(max(r["ratio"] for r in rows))
    assert vals[0] > vals[1] > vals[2]


def test_trou_m_decay_slope():
    """LHS along M = mu^{-1/2} decays like M^{-2k} (slope within 0.3)."""
    lhs, Ms = [], []
    for mu in (1e-2, 1e-3, 1e-4):
        cfg = single(mu)
        M = mu**-0.5
        x = np.zeros(N)
        x[0] = math.sqrt(mu)
        rows = convolution_bound_verify("trou", cfg,
                                        {"i": 0, "l": 0, "M": M,
                                         "x_points": [x]}, seed=0)
        den = positive_bubble(cfg.bubbles[0], x[None, :])[0]
        lhs.append(rows[0]["lhs"] / den)
        Ms.append(M)
    slope = np.polyfit(np.log(Ms), np.log(lhs), 1)[0]
    assert abs(slope - (-2 * K)) < 0.3


def test_BiBj_part2_vanishes_along_structure_sweep():
    """LHS/(mu_i mu_j)^{k-p} -> 0 as the pair separation diverges."""
    n, k, p = 9, 2, 1
    vals = []
    for alpha in (1e1, 1e2, 1e3):
        c1 = [0.3] + [0.0] * (n - 1)
        c2 = [-0.3] + [0.0] * (n - 1)
        law = FamilyLaw([1.0, 0.9], [1.0, 1.0], [c1, c2])
        cfg = TreeConfig.from_family(law, alpha, n, k)
        rows = convolution_bound_verify("BiBj", cfg, {"i": 0, "j": 1, "p": p,
                                                      "part": 2}, seed=0)
        vals.append(rows[0]["ratio"])
    assert vals[0] > vals[1] > vals[2]


def test_BiBj_part2_precondition():
    n, k, p = 7, 2, 0  # n <= 4k - 2p = 8
    c1 = [0.3] + [0.0] * (n - 1)
    c2 = [-0.3] + [0.0] * (n - 1)
    law = FamilyLaw([1.0, 0.9], [1.0, 1.0], [c1, c2])
    cfg = TreeConfig.from_family(law, 100.0, n, k)
    with pytest.raises(ValueError):
        convolution_bound_verify("BiBj", cfg, {"i": 0, "j": 1, "p": p,
                                               "part": 2})


@pytest.mark.parametrize("part", [0, 3, "2"])
def test_BiBj_refuses_unknown_part(part):
    """Only parts 1 and 2 exist; any other part is refused, not computed as
    part 2 under another label."""
    with pytest.raises(ValueError, match="part must be 1 or 2"):
        convolution_bound_verify("BiBj", _collinear_pair(), {"i": 0, "j": 1,
                                                             "part": part, "p": 1})


@pytest.mark.parametrize("kind, centers", [
    ("ordre2", [(0.0, 0.0)]), ("lem2", [(0.0, 0.0)]),
    ("lem2", [(0.3, 0.0), (0.0, 0.3)])],
    ids=["ordre2-axis", "lem2-axis", "lem2-qmc"])
def test_every_l_at_one_x_is_one_call(monkeypatch, kind, centers):
    """With l unset, every l at one x comes from one integrate_volume call,
    and each row equals, bit for bit, the call for that l alone: declaring
    the singularity at x at the largest order leaves the rule unchanged (on
    the QMC path too, for bubbles off a common axis)."""
    from polybubble import weights

    n, k = 9, 2
    cfg = TreeConfig([BubbleSpec("interior", n, k, np.array(c + (0.0,) * (n - 2)),
                                 1e-2) for c in centers])
    calls = []
    integrate_volume = weights.integrate_volume

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return integrate_volume(*args, **kwargs)

    monkeypatch.setattr(weights, "integrate_volume", spy)
    rows = convolution_bound_verify(kind, cfg, {"i": 0, "x_count": 3}, seed=0)
    assert len(calls) == 3 and len(rows) == 3 * 2 * k
    assert (len(centers) > 1) == all(call.get("axis") is None for call in calls)
    for l in range(2 * k):
        alone = convolution_bound_verify(kind, cfg, {"i": 0, "l": l,
                                                     "x_count": 3}, seed=0)
        assert alone == [r for r in rows if r["l"] == l]


def test_unknown_lemma_kind():
    with pytest.raises(ValueError):
        convolution_bound_verify("nope", single(1e-2), {})


def test_x_count_above_the_sample_points_is_refused():
    """sample_x_points has six offsets: a larger count is refused, not cut
    to six rows."""
    cfg = single(1e-2)
    assert len(weights.sample_x_points(cfg, 0, 6)) == 6
    with pytest.raises(ValueError, match="x_count 9"):
        convolution_bound_verify("ordre2", cfg, {"i": 0, "l": 0, "x_count": 9})
    with pytest.raises(ValueError, match="x_count 7"):
        weights.sample_x_points(cfg, 0, 7)


def test_ratio_table_csv():
    cfg = single(1e-2)
    rows = convolution_bound_verify("trou0", cfg, {"i": 0, "l": 0,
                                                   "x_count": 2}, seed=0)
    text = ratio_table_csv(rows).splitlines()
    assert text[0].startswith("kind,i,l")
    assert len(text) == len(rows) + 1
    with pytest.raises(ValueError):
        ratio_table_csv([])


# -- the meridian-plane path of sq_dist ---------------------------------------

def _collinear_pair():
    """Two bubbles on the x_1 axis at n = 9, k = 2."""
    c1 = [0.3] + [0.0] * 8
    c2 = [-0.3] + [0.0] * 8
    return TreeConfig.from_family(FamilyLaw([1.0, 0.9], [1.0, 1.0], [c1, c2]),
                                  100.0, 9, 2)


def _on_e1(n, *coords):
    """Points of R^n on the x_1 axis."""
    return [np.array([c] + [0.0] * (n - 1)) for c in coords]


_TILT = (np.eye(5)[0] + np.eye(5)[1]) / math.sqrt(2.0)

# (label, call): verifier runs on an axis through the domain centre
_MERIDIAN_CASES = [
    *((kind, lambda kind=kind, params=params: convolution_bound_verify(
        kind, single(1e-2), {"i": 0, "x_count": 3, **params}, seed=0))
      for kind, params in (("ordre2", {}), ("trou0", {}), ("trou", {"M": 4.0}),
                           ("lem2", {}))),
    ("BiBj1", lambda: convolution_bound_verify(
        "BiBj", _collinear_pair(), {"i": 0, "j": 1, "part": 1}, seed=0)),
    ("BiBj2", lambda: convolution_bound_verify(
        "BiBj", _collinear_pair(), {"i": 0, "j": 1, "part": 2, "p": 1}, seed=0)),
    ("giraud", lambda: [giraud_verify(gamma, 2.0, 1e-2, *_on_e1(5, 0.2, -0.1),
                                      Ball((0.0,) * 5, 1.0))
                        for gamma in (-0.5, 0.0, 1.0)]),
    ("eta", lambda: eta_sequences(single(1e-2))),
]
_MERIDIAN_IDS = [label for label, _ in _MERIDIAN_CASES]
_MERIDIAN_CALLS = [call for _, call in _MERIDIAN_CASES]


def _full_vector_rows(monkeypatch, call):
    """call() with every integrand of weights wrapped as f(np.asarray(x)), so
    that it sees (m, n) points and never the AxisNodes of the rule."""
    integrate_volume = weights.integrate_volume

    def full(f, *args, **kwargs):
        return integrate_volume(lambda x: f(np.asarray(x)), *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(weights, "integrate_volume", full)
        return call()


@pytest.mark.parametrize("call", _MERIDIAN_CALLS, ids=_MERIDIAN_IDS)
def test_meridian_path_is_bit_identical_to_full_vectors(monkeypatch, call):
    """Every verifier row on an e_1 axis, where sq_dist reads two node
    coordinates, equals bit for bit the row computed on the full (m, n)
    points."""
    assert call() == _full_vector_rows(monkeypatch, call)


@pytest.mark.parametrize("x, y", [
    (0.2 * _TILT, -0.1 * _TILT),
    (*_on_e1(5, 0.2), np.array([-0.1, 0.0, 1e-12, 0.0, 0.0])),
], ids=["tilted-axis", "origin-off-e1"])
def test_fallback_paths_match_full_vectors(monkeypatch, x, y):
    """A tilted axis, and a polar origin 1e-12 off e_1 (inside the axis
    check's tolerance), build the (m, n) points and give the full-vector
    values bit for bit."""
    built = []
    array = quadrature.AxisNodes.__array__

    def spy(self, *args, **kwargs):
        built.append(len(self))
        return array(self, *args, **kwargs)

    monkeypatch.setattr(quadrature.AxisNodes, "__array__", spy)

    def call():
        return giraud_verify(0.0, 2.0, 1e-2, x, y, Ball((0.0,) * 5, 1.0))

    rep = call()
    assert built
    assert rep == _full_vector_rows(monkeypatch, call)


@pytest.mark.parametrize("call", _MERIDIAN_CALLS, ids=_MERIDIAN_IDS)
def test_e1_axis_verifiers_never_build_node_vectors(monkeypatch, call):
    """On an e_1 axis the weighted-bound integrands read distances from the
    nodes' two meridian coordinates: the rule's (m, n) points are never
    built.  This is where the certify workload spends its time."""
    planes, built = [], []
    plane, array = quadrature.AxisNodes.plane, quadrature.AxisNodes.__array__

    def spy_plane(self):
        planes.append(len(self))
        return plane(self)

    def spy_array(self, *args, **kwargs):
        built.append(len(self))
        return array(self, *args, **kwargs)

    monkeypatch.setattr(quadrature.AxisNodes, "plane", spy_plane)
    monkeypatch.setattr(quadrature.AxisNodes, "__array__", spy_array)
    call()
    assert planes and not built
