"""Integration engine: exact volumes, singular radial reductions, domain
additivity, linearity, agreement of the deterministic and QMC paths, and the
surface rules."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import polybubble
from polybubble import quadrature
from polybubble.quadrature import (AccuracyError, Ball, BallMinusBalls,
                                   HalfBall, Singularity, SphereSurface,
                                   ball_volume,
                                   integrate_axisymmetric, integrate_radial,
                                   integrate_surface, integrate_volume,
                                   row_sq_norms, sphere_area,
                                   sphere_moment_ratio, sq_dist)


def test_radial_constant_ball_volume():
    r = integrate_radial(lambda r: 1.0, 1.0, 3)
    assert r.method == "radial"
    assert r.value == pytest.approx(4 * math.pi / 3, rel=1e-12)


def test_radial_bubble_square_vs_beta_integral():
    # int_{R^7, r<=50} B^2 against the 1-D oracle on the same range
    from scipy.integrate import quad

    a = 1.0 / 35.0
    g = lambda r: (1.0 + a * r * r) ** -5.0
    ours = integrate_radial(g, 50.0, 7)
    oracle, _ = quad(lambda r: g(r) * r**6, 0, 50.0, epsrel=1e-13)
    assert ours.value == pytest.approx(sphere_area(7) * oracle, rel=1e-11)


def test_volume_constant_qmc():
    dom = Ball((0.0,) * 4, 1.0)
    r = integrate_volume(lambda x: np.ones(len(x)), dom, seed=0)
    assert r.method == "qmc"
    assert r.value == pytest.approx(ball_volume(4), rel=1e-6)


def test_volume_singular_axis_path():
    """A declared center singularity on the deterministic volume path."""
    dom = Ball((0.0,) * 3, 1.0,
               singularities=(Singularity((0.0, 0.0, 0.0), 1.0),))
    r = integrate_volume(lambda x: 1.0 / np.linalg.norm(x, axis=1), dom,
                         axis=(np.zeros(3), np.eye(3)[0]))
    assert r.method == "axisymmetric"
    assert r.value == pytest.approx(2 * math.pi, rel=1e-11)


def test_volume_singular_qmc_vs_radial():
    dom = Ball((0.0,) * 3, 1.0,
               singularities=(Singularity((0.0, 0.0, 0.0), 1.0),))
    f = lambda x: 1.0 / np.linalg.norm(x, axis=1)
    rq = integrate_volume(f, dom, seed=1)
    assert rq.value == pytest.approx(2 * math.pi, abs=3 * max(rq.error_estimate, 1e-4))


def test_ball_minus_balls_additivity():
    inner = Ball((0.3, 0.0, 0.0), 0.2)
    dom = BallMinusBalls(Ball((0.0,) * 3, 1.0), (inner,))
    one = lambda x: np.ones(len(x))
    r = integrate_volume(one, dom, seed=0)
    expected = ball_volume(3) - ball_volume(3, 0.2)
    assert r.value == pytest.approx(expected, rel=5e-3)
    # axisymmetric path is sharper
    r2 = integrate_axisymmetric(one, dom, np.zeros(3), np.eye(3)[0])
    assert r2.value == pytest.approx(expected, rel=1e-5)
    # polar origin off the domain center: the order-2 singularity at -0.3 e_1
    e1 = np.eye(5)[0]
    dom5 = BallMinusBalls(Ball((0.0,) * 5, 1.0), (Ball(tuple(0.5 * e1), 0.2),),
                          singularities=(Singularity(tuple(-0.3 * e1), 2.0),
                                         Singularity(tuple(0.5 * e1), 0.0, 0.05)))
    r3 = integrate_axisymmetric(one, dom5, np.zeros(5), e1)
    assert r3.value == pytest.approx(ball_volume(5) - ball_volume(5, 0.2), rel=1e-7)


def test_singularity_order_stays_below_the_dimension():
    """An order at or above the dimension, where the integral diverges, is
    refused when the singularity is built."""
    with pytest.raises(ValueError, match="singularity order 3.0 >= dimension 3"):
        Singularity((0.0,) * 3, 3.0)
    assert Singularity((0.0,) * 3, 2.5).order == 2.5


def test_inner_ball_must_fit():
    with pytest.raises(ValueError):
        BallMinusBalls(Ball((0.0,) * 3, 1.0), (Ball((0.9, 0, 0), 0.3),))


def test_linearity():
    dom = Ball((0.0,) * 3, 1.0)
    f = lambda x: x[:, 0] ** 2
    g = lambda x: np.exp(-np.sum(x**2, axis=1))
    rf = integrate_volume(f, dom, seed=2)
    rg = integrate_volume(g, dom, seed=2)
    rfg = integrate_volume(lambda x: 2 * f(x) + 3 * g(x), dom, seed=2)
    tol = 2 * rf.error_estimate + 3 * rg.error_estimate + rfg.error_estimate
    assert abs(rfg.value - 2 * rf.value - 3 * rg.value) <= max(tol, 1e-9)


def test_axisymmetric_moment():
    dom = Ball((0.0,) * 5, 1.0)
    r = integrate_axisymmetric(lambda x: np.asarray(x)[:, 0] ** 2, dom, np.zeros(5),
                               np.eye(5)[0])
    assert r.method == "axisymmetric"
    assert r.value == pytest.approx(ball_volume(5) / 7.0, rel=1e-9)


def test_axisymmetric_halfball():
    hb = HalfBall((0.0,) * 5, 1.0)
    r = integrate_axisymmetric(lambda x: np.asarray(x)[:, 0], hb, np.zeros(5),
                               np.eye(5)[0])
    exact = sphere_area(4) * (1.0 / 6.0) * (1.0 / 4.0)
    assert r.value == pytest.approx(exact, rel=1e-9)
    # polar origin off the centre: rays toward -e_1 are cut at the plane
    # x_1 = c_1, and the rim circle is a phi panel edge; also with c_1 != 0
    for c1, o1 in ((0.0, 0.3), (0.0, 0.6), (0.0, -0.4), (0.5, 0.3), (0.5, -0.4)):
        hb3 = HalfBall((c1,) + (0.0,) * 4, 1.0,
                       singularities=(Singularity((c1 + o1,) + (0.0,) * 4, 1.0),))
        r3 = integrate_axisymmetric(lambda x: np.asarray(x)[:, 0] - c1, hb3,
                                    np.zeros(5), np.eye(5)[0])
        assert r3.value == pytest.approx(exact, rel=1e-7), (c1, o1)


def test_truncated_half_space():
    ts = HalfBall((0.0,) * 5, 2.0)
    f = lambda x: np.exp(-np.sum(np.asarray(x)**2, axis=1))
    det = integrate_axisymmetric(f, ts, np.zeros(5), np.eye(5)[0])
    qmc = integrate_volume(f, ts, seed=3)
    assert qmc.value == pytest.approx(det.value,
                                      abs=3 * max(qmc.error_estimate, 1e-6))


def test_volume_tol_violation_raises(monkeypatch):
    dom = Ball((0.0,) * 6, 1.0)
    rough = lambda x: np.where(np.asarray(x)[:, 0] > 0.17, 1.0, -1.0)
    monkeypatch.setattr(quadrature, "_VOLUME_QMC_POINTS", 2**8)
    with pytest.raises(AccuracyError) as exc:
        integrate_volume(rough, dom, tol=1e-12, seed=0)
    assert exc.value.result is not None  # partial value attached
    # the axisymmetric path refuses an unmet tol too, and returns a met one
    axis = (np.zeros(6), np.eye(6)[0])
    with pytest.raises(AccuracyError) as exc:
        integrate_volume(rough, dom, tol=1e-12, axis=axis)
    assert exc.value.result.method == "axisymmetric"
    smooth = lambda x: np.asarray(x)[:, 0] ** 2
    r = integrate_volume(smooth, dom, tol=1e-3, axis=axis)
    assert r.value == integrate_axisymmetric(smooth, dom, *axis).value


# (label, integrator(f, tol)): every volume and sphere rule
_STACKED_PATHS = [
    ("axisymmetric", lambda f, tol: integrate_volume(
        f, Ball((0.0,) * 4, 1.0, singularities=(Singularity((0.3, 0.0, 0.0, 0.0),
                                                            0.0, 0.05),)),
        tol=tol, axis=(np.zeros(4), np.eye(4)[0]))),
    ("qmc-volume", lambda f, tol: integrate_volume(
        f, BallMinusBalls(Ball((0.0,) * 4, 1.0), (Ball((0.4, 0.0, 0.0, 0.0), 0.2),),
                          singularities=(Singularity((0.0,) * 4, 1.5),)),
        tol=tol, seed=3)),
    ("product-gauss", lambda f, tol: integrate_surface(
        f, SphereSurface((0.1, 0.0, 0.0), 1.0), tol=tol)),
    ("gauss-jacobi", lambda f, tol: integrate_surface(
        f, SphereSurface((0.5,) + (0.0,) * 4, 1.0), tol=tol, axis=np.eye(5)[0])),
    ("qmc-surface", lambda f, tol: integrate_surface(
        f, SphereSurface((0.0,) * 6, 1.0), tol=tol)),
]
_SMOOTH_ROWS = [lambda x: np.exp(-row_sq_norms(np.asarray(x))),
                lambda x: np.asarray(x)[:, 0] ** 2,
                lambda x: (np.cos(3.0 * np.asarray(x)[:, 0])
                           + np.sqrt(row_sq_norms(np.asarray(x))))]
_ROUGH_ROW = lambda x: np.where(np.asarray(x)[:, 0] > 0.17, 1.0, -1.0)


@pytest.mark.parametrize("integrate", [p for _, p in _STACKED_PATHS],
                         ids=[label for label, _ in _STACKED_PATHS])
def test_stacked_rows_match_scalar_calls(monkeypatch, integrate):
    """An (r, m) stack of integrands gives, row for row and bit for bit, the
    value and error estimate of r scalar calls on the same rule; a tol is
    refused when any one row misses it."""
    monkeypatch.setattr(quadrature, "_VOLUME_QMC_POINTS", 2**10)
    rows = _SMOOTH_ROWS + [_ROUGH_ROW]
    stacked = integrate(lambda x: np.stack([g(x) for g in rows]), None)
    assert stacked.value.shape == stacked.error_estimate.shape == (len(rows),)
    rel = []
    for i, g in enumerate(rows):
        single = integrate(g, None)
        assert isinstance(single.value, float)
        assert stacked.value[i] == single.value, i
        assert stacked.error_estimate[i] == single.error_estimate, i
        assert stacked.samples_used == single.samples_used
        rel.append(single.error_estimate / abs(single.value))
    # a tol between the smooth rows' errors and the rough row's
    assert max(rel[:-1]) < rel[-1]
    tol = math.sqrt(max(rel[:-1]) * rel[-1])
    smooth = integrate(lambda x: np.stack([g(x) for g in _SMOOTH_ROWS]), tol)
    assert np.array_equal(smooth.value, stacked.value[:-1])
    with pytest.raises(AccuracyError) as exc:
        integrate(lambda x: np.stack([g(x) for g in rows]), tol)
    assert np.array_equal(exc.value.result.value, stacked.value)
    assert f"{stacked.error_estimate[-1]:.3e}" in str(exc.value)


def _geometric_panels(a: float, b: float, floor: float) -> list[tuple[float, float]]:
    """Split [a, b] into up to 24 panels geometrically graded toward a."""
    h = b - a
    if h <= floor:
        return [(a, b)]
    edges = sorted({0.0, h} | {h * 2.0 ** -j for j in range(1, 24)
                               if h * 2.0 ** -j > floor})
    return [(a + lo, a + hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _reference_ray_panels(u, origin, domain, spheres, peak_cuts, plane,
                          rho_max_global, floor0):
    """(lo, hi) radial panels of the domain along origin + rho * u: the
    per-ray loop that quadrature._ray_panels runs for all rays at once."""
    max_len = rho_max_global / 3.0
    cand = {0.0, rho_max_global} | peak_cuts
    for rel, cq in spheres:
        bq = -2.0 * (u @ rel)
        disc = bq * bq - 4 * cq
        if disc >= 0:
            cand.update((max(0.0, (-bq - math.sqrt(disc)) / 2),
                         max(0.0, (-bq + math.sqrt(disc)) / 2)))
    if plane is not None and abs(u[0]) > 1e-14 and plane / u[0] > 0:
        cand.add(plane / u[0])
    cand = sorted(float(c) for c in cand if 0.0 <= c <= rho_max_global)
    spans = [(lo, hi) for lo, hi in zip(cand[:-1], cand[1:])
             if hi - lo >= 1e-15 * rho_max_global]
    mids = np.array([0.5 * (lo + hi) for lo, hi in spans])
    panels = []
    for (lo, hi), inside in zip(spans, domain.contains(origin + mids[:, None] * u)):
        if not inside:
            continue
        for pa, pb in (_geometric_panels(lo, hi, floor0)
                       if lo < 1e-13 * rho_max_global else [(lo, hi)]):
            # equal parts, edges computed as np.linspace(pa, pb, parts + 1) does
            parts = max(1, math.ceil((pb - pa) / max_len))
            step = (pb - pa) / parts
            cuts = [j * step + pa for j in range(parts)] + [pb]
            panels += zip(cuts[:-1], cuts[1:])
    return panels


_GENERIC_AXIS = np.array([1.0, -2.0, 0.5, 3.0]) / np.linalg.norm([1.0, -2.0, 0.5, 3.0])
_OBLIQUE_AXIS = np.array([2.0, 1.0, -1.0, 0.5, 1.5]) / np.linalg.norm([2.0, 1.0, -1.0, 0.5, 1.5])
_OBLIQUE_CENTER = np.array([0.1, -0.2, 0.0, 0.3, 0.1])

# (domain, axis, feature_balls) of the axisymmetric rule tests
_AXISYMMETRIC_CASES = pytest.mark.parametrize("domain, axis, features", [
    # scaled singularity off the polar origin: peak cuts, refined directions
    (Ball((0.0,) * 5, 1.0, singularities=(
        Singularity((0.0,) * 5, 2.0),
        Singularity((0.4, 0.0, 0.0, 0.0, 0.0), 0.0, 1e-6))), np.eye(5)[0], ()),
    (HalfBall((0.2, 0.0, 0.0, 0.0), 1.0, singularities=(
        Singularity((0.5, 0.0, 0.0, 0.0), 1.0),)), np.eye(4)[0], ()),
    (BallMinusBalls(Ball((0.0,) * 3, 1.0), (Ball((0.5, 0.0, 0.0), 0.2),)),
     np.eye(3)[0], ()),
    (BallMinusBalls(Ball((0.1, 0.2, 0.3, 0.4), 1.0),
                    (Ball(tuple(np.array([0.1, 0.2, 0.3, 0.4]) - 0.4 * _GENERIC_AXIS),
                          0.3),)), _GENERIC_AXIS, ()),
    (HalfBall((0.0,) * 5, 2.0), np.eye(5)[0], ()),
    (Ball((0.0,) * 6, 1.0), np.eye(6)[0], (Ball((0.3,) + (0.0,) * 5, 0.1),
                                           Ball((-0.6,) + (0.0,) * 5, 0.05))),
    # polar origin at a singularity off the centre of an oblique axis in n = 5
    (Ball(tuple(_OBLIQUE_CENTER), 1.0, singularities=(
        Singularity(tuple(_OBLIQUE_CENTER + 0.3 * _OBLIQUE_AXIS), 1.5),
        Singularity(tuple(_OBLIQUE_CENTER - 0.5 * _OBLIQUE_AXIS), 0.0, 1e-3))),
     _OBLIQUE_AXIS, ()),
], ids=["ball-peak", "halfball", "hole", "hole-generic-axis", "truncated-half",
        "feature-balls", "oblique-n5"])


@_AXISYMMETRIC_CASES
def test_ray_panels_match_per_ray_reference(monkeypatch, domain, axis, features):
    """_ray_panels gives the per-ray reference panels bit for bit, on the rays
    of the rule and on random rays, including rays along the axis and
    perpendicular to it."""
    from polybubble import quadrature

    ray_panels = quadrature._ray_panels
    calls = []

    def spy(U, *args):
        calls.append((U, args))
        return ray_panels(U, *args)

    monkeypatch.setattr(quadrature, "_ray_panels", spy)
    center = domain.enclosing()[0]
    res = integrate_axisymmetric(lambda x: np.ones(len(x)), domain, center, axis,
                                 feature_balls=features)
    assert len(calls) == 1  # the fine rule; the coarse one waits for a read
    res.error_estimate
    assert len(calls) == 2
    d, e = quadrature._axis_frame(axis)
    phi = np.random.default_rng(7).uniform(0.0, math.pi, 64)
    extra = np.array([d, -d, e, -e, math.cos(0.5 * math.pi) * d
                      + math.sin(0.5 * math.pi) * e])
    rays = np.concatenate([np.cos(phi)[:, None] * d + np.sin(phi)[:, None] * e, extra])
    for U, args in calls + [(rays, calls[0][1])]:
        ray, lo, hi = ray_panels(U, *args)
        ref = [(i, a, b) for i, u in enumerate(U)
               for a, b in _reference_ray_panels(u, *args)]
        ref_ray, ref_lo, ref_hi = (np.array(c) for c in zip(*ref))
        assert ray.tobytes() == ref_ray.astype(ray.dtype).tobytes()
        assert lo.tobytes() == ref_lo.tobytes()
        assert hi.tobytes() == ref_hi.tobytes()


def _reference_build(f, phi, wphi, ray, lo, hi, mrho, origin, d, e, n):
    """One rule of integrate_axisymmetric from its phi nodes and weights and
    its radial panels, with every node's point and Jacobian computed from its
    own repeated angle: (sum, node count, points passed to f)."""
    xr, wr = quadrature._gauss_jacobi(mrho, 0.0)
    h = 0.5 * (hi - lo)[:, None]
    rho = (h * (xr + 1.0) + lo[:, None]).ravel()
    wt = (h * wr * wphi[ray, None]).ravel()
    phi = np.repeat(phi[ray], mrho)
    pts = origin[None, :] + rho[:, None] * (
        np.cos(phi)[:, None] * d[None, :] + np.sin(phi)[:, None] * e[None, :])
    vals = np.asarray(f(pts), float)
    jac = rho ** (n - 1) * np.sin(phi) ** (n - 2)
    return float(np.sum(wt * vals * jac)), len(rho), pts


@_AXISYMMETRIC_CASES
def test_axisymmetric_nodes_match_per_node_reference(monkeypatch, domain, axis,
                                                     features):
    """The nodes built from per-direction unit vectors are the per-node
    reference's bit for bit: the points passed to f, the value and the error
    estimate."""
    from polybubble import quadrature

    ray_panels = quadrature._ray_panels
    rules = []

    def spy_panels(U, origin, *args):
        panels = ray_panels(U, origin, *args)
        build = sys._getframe(1).f_locals  # the phi rule of the calling build
        rules.append((build["phi"], build["wphi"], *panels, build["mrho"], origin))
        return panels

    def g(x):
        return np.exp(x[:, 0] - x[:, -1] ** 2) * (1.0 + np.sum(x * x, axis=1))

    seen = []

    def spy_f(x):
        x = np.asarray(x)
        seen.append(x.copy())
        return g(x)

    monkeypatch.setattr(quadrature, "_ray_panels", spy_panels)
    center = domain.enclosing()[0]
    res = integrate_axisymmetric(spy_f, domain, center, axis, feature_balls=features)
    assert len(rules) == len(seen) == 1  # the fine rule; the coarse one waits
    res.error_estimate
    assert len(rules) == len(seen) == 2
    n = domain.dim
    d, e = quadrature._axis_frame(axis)
    (fine, m_fine, ref_fine), (coarse, m_coarse, ref_coarse) = (
        _reference_build(g, *rule, d, e, n) for rule in rules)
    assert seen[0].tobytes() == ref_fine.tobytes()
    assert seen[1].tobytes() == ref_coarse.tobytes()
    area = sphere_area(n - 1)
    assert res.value.hex() == (area * fine).hex()
    assert res.error_estimate.hex() == (area * abs(fine - coarse)).hex()
    assert res.samples_used == m_fine + m_coarse


def _peaked(x):
    x = np.asarray(x)
    return np.exp(-row_sq_norms(x - 0.3)) + np.sqrt(row_sq_norms(x))


_LAZY_CASE = (Ball((0.0,) * 6, 1.0), np.eye(6)[0],
              (Ball((0.3,) + (0.0,) * 5, 0.1), Ball((-0.6,) + (0.0,) * 5, 0.05)))


@pytest.mark.parametrize("first", ["error_estimate", "samples_used"])
def test_axisymmetric_coarse_rule_runs_on_first_estimate_read(monkeypatch, first):
    """A value-only read runs one rule: one integrand call, one _ray_panels
    call.  The first read of error_estimate or samples_used runs the coarse
    rule, once; the value, estimate and node count then equal the per-node
    reference of both rules bit for bit."""
    from polybubble import quadrature

    ray_panels = quadrature._ray_panels
    rules, seen = [], []

    def spy_panels(U, origin, *args):
        panels = ray_panels(U, origin, *args)
        build = sys._getframe(1).f_locals
        rules.append((build["phi"], build["wphi"], *panels, build["mrho"], origin))
        return panels

    def spy_f(x):
        seen.append(len(x))
        return _peaked(x)

    monkeypatch.setattr(quadrature, "_ray_panels", spy_panels)
    domain, axis, features = _LAZY_CASE
    res = integrate_axisymmetric(spy_f, domain, np.zeros(6), axis,
                                 feature_balls=features)
    float(res.value)
    assert (len(rules), len(seen)) == (1, 1)
    getattr(res, first)
    assert (len(rules), len(seen)) == (2, 2)
    res.error_estimate, res.samples_used, repr(res)
    assert (len(rules), len(seen)) == (2, 2) and res.coarse is None
    d, e = quadrature._axis_frame(axis)
    (fine, m_fine, _), (coarse, m_coarse, _) = (
        _reference_build(_peaked, *rule, d, e, 6) for rule in rules)
    area = sphere_area(5)
    assert res.value.hex() == (area * fine).hex()
    assert res.error_estimate.hex() == (area * abs(fine - coarse)).hex()
    assert res.samples_used == m_fine + m_coarse == sum(seen)


def test_axisymmetric_coarse_only_failure_surfaces_at_estimate_read():
    """An integrand that fails on the coarse nodes alone fails at the first
    estimate read, not at the call, and again at a later read."""
    calls = []

    def f(x):
        calls.append(len(x))
        if len(calls) > 1:
            raise FloatingPointError("coarse nodes")
        return _peaked(x)

    domain, axis, features = _LAZY_CASE
    res = integrate_axisymmetric(f, domain, np.zeros(6), axis,
                                 feature_balls=features)
    assert math.isfinite(res.value) and len(calls) == 1
    for field in ("error_estimate", "samples_used"):
        with pytest.raises(FloatingPointError, match="coarse nodes"):
            getattr(res, field)


@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stacked"])
def test_volume_tol_on_axis_refuses_and_accepts_at_the_estimate(stacked):
    """integrate_volume(tol=..., axis=...) reads the estimate at once: it
    accepts a tol just above the worst row's relative estimate with both
    rules run, and refuses one just below with the same value and estimate
    attached."""
    domain, axis, features = _LAZY_CASE
    axis = (np.zeros(6), axis)
    f = ((lambda x: np.stack([_peaked(x), np.asarray(x)[:, 0] ** 2])) if stacked
         else _peaked)
    ref = integrate_axisymmetric(f, domain, *axis)
    rel = np.max(np.asarray(ref.error_estimate) / np.abs(ref.value))
    calls = []

    def spy(x):
        calls.append(len(x))
        return f(x)

    ok = integrate_volume(spy, domain, tol=rel * (1 + 1e-9), axis=axis)
    assert len(calls) == 2 and ok.coarse is None
    with pytest.raises(AccuracyError) as exc:
        integrate_volume(f, domain, tol=rel * (1 - 1e-9), axis=axis)
    for res in (ok, exc.value.result):
        assert np.asarray(res.value).tobytes() == np.asarray(ref.value).tobytes()
        assert (np.asarray(res.error_estimate).tobytes()
                == np.asarray(ref.error_estimate).tobytes())
        assert res.samples_used == ref.samples_used == sum(calls)


@pytest.mark.parametrize("n", range(1, 13))
def test_row_sq_norms_match_numpy_reductions(n):
    """row_sq_norms equals np.sum(a * a, axis=1) bit for bit, and its sqrt
    equals np.linalg.norm(a, axis=1), on both sides of its 8-column switch:
    rows spanning 1e-150 ... 1e150, zero rows, strided views and
    differences."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((400, 2 * n)) * 10.0 ** rng.uniform(-150, 150, (400, 2 * n))
    a[::9] = 0.0
    for x in (np.ascontiguousarray(a[:, :n]), a[:, :n], a[:, ::2],
              a[:, n:] - a[5, :n]):
        assert x.shape == (400, n)
        got = row_sq_norms(x)
        assert got.tobytes() == np.sum(x * x, axis=1).tobytes()
        assert np.sqrt(got).tobytes() == np.linalg.norm(x, axis=1).tobytes()


def _on_e1(n, t):
    return np.array([t] + [0.0] * (n - 1))


_TILTED = np.array([1.0, 1.0, 0.0, 0.0, 0.0]) / math.sqrt(2.0)


@pytest.mark.parametrize("origin, axis, c, plane", [
    (_on_e1(5, 0.1), np.eye(5)[0], _on_e1(5, 0.1), True),
    (_on_e1(9, -0.2), np.eye(9)[0], _on_e1(9, 0.3), True),  # pairwise sums
    (_on_e1(5, 0.1), -np.eye(5)[0], _on_e1(5, -0.4), True),
    # polar origin 1e-12 off e_1, inside the axis check's tolerance
    (np.array([0.1, 0.0, 1e-12, 0.0, 0.0]), np.eye(5)[0], _on_e1(5, 0.1), False),
    (_on_e1(5, 0.1), np.eye(5)[0], np.array([0.3, 1e-3, 0.0, 0.0, 0.0]), False),
    (0.1 * _TILTED, _TILTED, 0.3 * _TILTED, False),
], ids=["e1", "e1-n9", "minus-e1", "origin-off-e1", "c-off-e1", "tilted"])
def test_sq_dist_on_axis_nodes_matches_row_sq_norms(origin, axis, c, plane):
    """sq_dist on the nodes of an axisymmetric rule equals row_sq_norms of
    their (m, n) points minus c bit for bit, on both rules; it leaves the
    points unbuilt exactly when the directions lie in the (x_1, x_2)-plane,
    the polar origin on the x_1 axis and c on the x_1 axis.  The polar
    origin is a singularity graded down to 1e-12, so an origin off e_1 by
    1e-12 changes the bits of the nearest nodes' distances."""
    seen = []

    def f(x):
        got = sq_dist(x, c)
        unbuilt = x._pts is None
        ref = row_sq_norms(np.asarray(x) - c)
        assert x.shape == np.asarray(x).shape == (len(x), len(c))
        seen.append((got.tobytes() == ref.tobytes(), unbuilt))
        return got

    domain = Ball(tuple(origin), 1.0,
                  singularities=(Singularity(tuple(origin), 1.0, 1e-9),))
    integrate_axisymmetric(f, domain, origin, axis).error_estimate
    assert seen == [(True, plane)] * 2


def test_surface_constant_and_even_moment():
    sph = SphereSurface((0.0,) * 3, 1.0)
    r1 = integrate_surface(lambda x: np.ones(len(x)), sph)
    assert r1.method == "product-gauss"
    assert r1.value == pytest.approx(4 * math.pi, rel=1e-12)
    r2 = integrate_surface(lambda x: x[:, 0] ** 2, sph)
    assert r2.value == pytest.approx(4 * math.pi / 3, rel=1e-10)


def test_surface_of_s0_is_the_sum_at_its_two_points():
    """S^0 about c of radius R is the two points c +- R."""
    c, R = 0.3, 1.5
    r = integrate_surface(lambda x: np.exp(x[:, 0]), SphereSurface((c,), R))
    assert r.value == pytest.approx(math.exp(c + R) + math.exp(c - R), rel=1e-15, abs=0)
    assert r.error_estimate == 0.0
    assert integrate_surface(lambda x: np.exp(x[:, 0]), SphereSurface((c,), R),
                             axis=np.ones(1)).value == r.value


def test_surface_odd_function_vanishes():
    sph = SphereSurface((0.0,) * 4, 2.0)
    r = integrate_surface(lambda x: x[:, 1] ** 3, sph)
    assert abs(r.value) < 1e-10 * sph.area()


def test_surface_high_dimension_paths():
    sph = SphereSurface((0.0,) * 7, 1.0)
    exact = sphere_area(7) / 7.0
    rq = integrate_surface(lambda x: x[:, 0] ** 2, sph)
    assert rq.value == pytest.approx(exact, abs=3 * rq.error_estimate)
    rax = integrate_surface(lambda x: x[:, 0] ** 2, sph, axis=np.eye(7)[0])
    assert (rq.method, rax.method) == ("qmc", "gauss-jacobi")
    assert rax.value == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n, axial", [(2, False), (3, False), (4, False),
                                      (5, True), (7, True)])
def test_sphere_rule_exact_on_moments(n, axial):
    """With m nodes per factor the product rule integrates every monomial of
    degree < 2m exactly; its polar factor alone every such power of the
    axis coordinate."""
    import itertools

    from polybubble.quadrature import _sphere_rule

    m = 6
    u, w = _sphere_rule(n, m, axial)
    assert np.all(w > 0)
    np.testing.assert_allclose(np.sum(u**2, axis=1), 1.0, rtol=1e-15)
    if axial:
        alphas = [(a,) + (0,) * (n - 1) for a in range(2 * m)]
        u = np.pad(u[:, :1], ((0, 0), (0, n - 1)))
    else:
        alphas = [a for a in itertools.product(range(2 * m), repeat=n)
                  if sum(a) < 2 * m]
    for alpha in alphas:
        mean = np.sum(w * np.prod(u ** np.array(alpha), axis=1)) / np.sum(w)
        assert abs(mean - float(sphere_moment_ratio(alpha))) < 2e-15, alpha


@pytest.mark.parametrize("n, axis, nodes", [(3, None, 24 * 48 + 48 * 96),
                                            (2, None, 48 + 96),
                                            (5, np.eye(5)[0], 48 + 96)])
def test_surface_deterministic_rules_refuse_unmet_tol(n, axis, nodes):
    sph = SphereSurface((0.0,) * n, 1.0)
    rough = lambda x: np.where(x[:, 0] > 0.17, 1.0, -1.0)
    with pytest.raises(AccuracyError) as exc:
        integrate_surface(rough, sph, tol=1e-30, axis=axis)
    assert exc.value.result.samples_used == nodes
    r = integrate_surface(lambda x: x[:, 0] ** 2, sph, tol=1e-12, axis=axis)
    assert r.samples_used == nodes
    assert r.value == pytest.approx(sphere_area(n) / n, rel=1e-13)


def _two_call_surface(f, sphere, axis=None):
    """The product rules of integrate_surface with one integrand call per
    rule: (value, error estimate) of the fine rule against the coarse one."""
    n, c = sphere.dim, np.asarray(sphere.center, float)
    axial = axis is not None
    ests = []
    for m in ((48, 96) if axial else (24, 48)):
        u, w = quadrature._sphere_rule(n, m, axial)
        if axial:
            d, e = quadrature._axis_frame(axis)
            u = u[:, :1] * d + u[:, 1:] * e
        vals = np.asarray(f(c + sphere.radius * u), float)
        ests.append(np.sum(w * vals, axis=-1) / np.sum(w) * sphere.area())
    coarse, fine = ests
    return fine, abs(fine - coarse)


def _bubble_rows(x):
    """Laplacian iterates of a bubble and their gradients: the kind of
    integrand the Pohozaev boundary functional puts on a sphere."""
    from polybubble.fields import RadialTermField, RationalProfile
    from polybubble.radial import bubble_constant, make_bubble

    n = x.shape[1]
    rat = RationalProfile(make_bubble(n, 1), bubble_constant(n, 1))
    F = RadialTermField.radial(n, np.full(n, 0.05), rat)
    jet = F.jet(x, 3)
    return np.stack([jet.lap_iter(1), *jet.grad_lap(1).T, jet.value()])


@pytest.mark.parametrize("sphere, axis", [
    (SphereSurface((0.1, 0.0, 0.0), 1.0), None),
    (SphereSurface((0.0, 0.2, 0.0, 0.1), 0.8), None),
    (SphereSurface((0.5,) + (0.0,) * 4, 1.0), np.eye(5)[0]),
    (SphereSurface((0.0,) * 7, 1.3), np.array([1.0, 2.0, 0.0, 0.0, -1.0, 0.0, 0.5])),
], ids=["product-gauss-3", "product-gauss-4", "gauss-jacobi-5", "gauss-jacobi-7"])
@pytest.mark.parametrize("f", [
    _SMOOTH_ROWS[2], lambda x: np.stack([g(x) for g in _SMOOTH_ROWS]), _bubble_rows,
], ids=["scalar", "stacked", "bubble-jets"])
def test_product_rules_take_one_integrand_call(sphere, axis, f):
    """The product rules call the integrand once, on the nodes of both rules,
    and give bit for bit the value and estimate of one call per rule."""
    calls = []
    res = integrate_surface(lambda x: calls.append(len(x)) or f(x), sphere, axis=axis)
    assert calls == [res.samples_used]
    value, err = _two_call_surface(f, sphere, axis)
    assert np.asarray(res.value).tobytes() == np.asarray(value).tobytes()
    assert np.asarray(res.error_estimate).tobytes() == np.asarray(err).tobytes()


@pytest.mark.parametrize("domain, features", [
    (BallMinusBalls(Ball((0.0,) * 3, 1.0), (Ball((0.0, 0.3, 0.0), 0.2),)), ()),
    (Ball((0.0,) * 3, 1.0), (Ball((0.5, 0.0, 0.0), 0.1), Ball((0.0, 0.3, 0.0), 0.2))),
], ids=["hole", "feature-ball"])
def test_axisymmetric_refuses_balls_off_the_axis(domain, features):
    """A hole or feature ball off the axis breaks the symmetry the rule rests
    on: for B^3 minus B((0, 0.3, 0), 0.2) about e_1 the rule returned 3.9519
    with an error estimate of 4.1e-5, against the true 4.1553."""
    with pytest.raises(ValueError, match=r"\(0.0, 0.3, 0.0\) is off the symmetry axis"):
        integrate_axisymmetric(lambda x: np.ones(len(x)), domain, np.zeros(3),
                               np.eye(3)[0], feature_balls=features)
    if not features:
        with pytest.raises(ValueError, match="off the symmetry axis"):
            integrate_volume(lambda x: np.ones(len(x)), domain,
                             axis=(np.zeros(3), np.eye(3)[0]))


def test_sphere_moment_ratio_exact():
    from fractions import Fraction

    assert sphere_moment_ratio((2, 0, 0)) == Fraction(1, 3)
    assert sphere_moment_ratio((4, 0, 0, 0)) == Fraction(3, 4 * 6)
    assert sphere_moment_ratio((1, 2)) == 0


# -- the Gauss rules --------------------------------------------------------

RULE_ORDERS = [1, 2, 3, 8, 20, 40, 64, 128]
# The sphere rule of S^{n-1} takes the weight (1 - x^2)^{(n-3)/2}; n = 3 is
# Legendre's and n = 2 Chebyshev's.
RULE_DIMS = [2, 3, 4, 5, 9, 12]
EPS = np.finfo(float).eps


def _scipy_rule(m, n):
    from scipy.special import roots_jacobi, roots_legendre

    a = 0.5 * (n - 3)
    return roots_legendre(m) if n == 3 else roots_jacobi(m, a, a)


def _even_moments(m, n):
    """int_{-1}^{1} x^{2j} (1 - x^2)^a dx, a = (n - 3)/2, for j < m: an
    exact rational times 1 (n odd) or pi (n even), rounded once.  mu_0 is 2
    at a = 0 and pi at a = -1/2, times (2a + 2)/(2a + 3) per unit step of a,
    and each moment is the one before times (2j - 1)/(2j + 2a + 1)."""
    c, a2 = (Fraction(2), 0) if n % 2 else (Fraction(1), -1)
    while a2 < n - 3:
        c *= Fraction(a2 + 2, a2 + 3)
        a2 += 2
    out = []
    for j in range(m):
        if j:
            c *= Fraction(2 * j - 1, 2 * j + n - 2)
        out.append(float(c) * (1.0 if n % 2 else math.pi))
    return np.array(out)


@pytest.mark.parametrize("n", RULE_DIMS)
@pytest.mark.parametrize("m", RULE_ORDERS)
def test_gauss_jacobi_rule_matches_scipy(m, n):
    """Nodes within 4 ulps of 1 of scipy's, weights within 1e-10 relative
    (scipy's own weights are off by up to 5e-11 at m = 128), both exactly
    symmetric, shared and read-only; Legendre is the rule at a = 0."""
    x, w = quadrature._gauss_jacobi(m, 0.5 * (n - 3))
    xs, ws = _scipy_rule(m, n)
    assert x.shape == w.shape == (m,)
    assert np.max(np.abs(x - xs)) <= 4 * EPS
    np.testing.assert_allclose(w, ws, rtol=1e-10)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    assert not (x.flags.writeable or w.flags.writeable)
    assert quadrature._gauss_jacobi(m, 0.5 * (n - 3))[0] is x


@pytest.mark.parametrize("n", RULE_DIMS)
@pytest.mark.parametrize("m", RULE_ORDERS)
def test_gauss_jacobi_rule_moments_within_twice_scipys_error(m, n):
    """On the exact moments int x^{2j} (1 - x^2)^a dx, j < m, the worst
    relative error of the rule of order m is at most twice scipy's, or
    twice m * eps, the rounding of the m-term sum that applies a rule.
    At n = 2 scipy's rule is the closed Gauss-Chebyshev form, whose weights
    are exact to the last bit, so there the floor decides from m = 64 on."""
    exact = _even_moments(m, n)
    powers = 2 * np.arange(m)[:, None]

    def worst(x, w):
        return np.max(np.abs((x ** powers) @ w - exact) / exact)

    ours = worst(*quadrature._gauss_jacobi(m, 0.5 * (n - 3)))
    assert ours <= 2 * max(worst(*_scipy_rule(m, n)), m * EPS)


@pytest.mark.parametrize("n", range(1, 21))
def test_sphere_area_matches_gamma_formula(n):
    assert sphere_area(n) == pytest.approx(
        2 * math.pi ** (n / 2) / math.gamma(n / 2), rel=4 * EPS)


def test_determinism_fixed_seed():
    dom = Ball((0.0,) * 5, 1.0)
    f = lambda x: np.cos(np.sum(x, axis=1))
    a = integrate_volume(f, dom, seed=11)
    b = integrate_volume(f, dom, seed=11)
    assert a.value == b.value and a.error_estimate == b.error_estimate


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats is imported on the QMC path only, not by import polybubble."""
    src = os.path.dirname(os.path.dirname(polybubble.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, polybubble; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
