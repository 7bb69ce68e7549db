"""Integration engine: exact volumes, singular radial reductions, domain
additivity, linearity, agreement of the deterministic and QMC paths, and the
surface rules."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import polybubble
from polybubble.quadrature import (AccuracyError, Ball, BallMinusBalls,
                                   HalfBall, Singularity, SphereSurface,
                                   TruncatedSpace, ball_volume,
                                   integrate_axisymmetric, integrate_radial,
                                   integrate_surface, integrate_volume,
                                   sphere_area, sphere_moment_ratio)


def test_radial_constant_ball_volume():
    r = integrate_radial(lambda r: 1.0, 1.0, 3)
    assert r.method == "radial"
    assert r.value == pytest.approx(4 * math.pi / 3, rel=1e-12)


def test_radial_inverse_singularity():
    r = integrate_radial(lambda r: 1.0 / r, 1.0, 3, sigma=1.0)
    assert r.value == pytest.approx(2 * math.pi, rel=1e-12)


def test_radial_bubble_square_vs_beta_integral():
    # int_{R^7, r<=50} B^2 against the 1-D oracle on the same range
    from scipy.integrate import quad

    a = 1.0 / 35.0
    g = lambda r: (1.0 + a * r * r) ** -5.0
    ours = integrate_radial(g, 50.0, 7)
    oracle, _ = quad(lambda r: g(r) * r**6, 0, 50.0, epsrel=1e-13)
    assert ours.value == pytest.approx(sphere_area(7) * oracle, rel=1e-11)


def test_radial_rejects_bad_sigma():
    with pytest.raises(ValueError):
        integrate_radial(lambda r: 1.0, 1.0, 3, sigma=3.0)


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
    r = integrate_volume(one, dom, seed=0, n_points=2**14)
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
    r = integrate_axisymmetric(lambda x: x[:, 0] ** 2, dom, np.zeros(5),
                               np.eye(5)[0])
    assert r.method == "axisymmetric"
    assert r.value == pytest.approx(ball_volume(5) / 7.0, rel=1e-9)


def test_axisymmetric_halfball():
    hb = HalfBall((0.0,) * 5, 1.0)
    r = integrate_axisymmetric(lambda x: x[:, 0], hb, np.zeros(5), np.eye(5)[0])
    exact = sphere_area(4) * (1.0 / 6.0) * (1.0 / 4.0)
    assert r.value == pytest.approx(exact, rel=1e-9)
    # polar origin off the centre: rays toward -e_1 are cut at the plane
    # x_1 = c_1, and the rim circle is a phi panel edge; also with c_1 != 0
    for c1, o1 in ((0.0, 0.3), (0.0, 0.6), (0.0, -0.4), (0.5, 0.3), (0.5, -0.4)):
        hb3 = HalfBall((c1,) + (0.0,) * 4, 1.0,
                       singularities=(Singularity((c1 + o1,) + (0.0,) * 4, 1.0),))
        r3 = integrate_axisymmetric(lambda x: x[:, 0] - c1, hb3, np.zeros(5),
                                    np.eye(5)[0])
        assert r3.value == pytest.approx(exact, rel=1e-7), (c1, o1)


def test_truncated_half_space():
    ts = TruncatedSpace(5, 2.0, half=True)
    f = lambda x: np.exp(-np.sum(x**2, axis=1))
    det = integrate_axisymmetric(f, ts, np.zeros(5), np.eye(5)[0])
    qmc = integrate_volume(f, ts, seed=3)
    assert qmc.value == pytest.approx(det.value,
                                      abs=3 * max(qmc.error_estimate, 1e-6))


def test_truncated_space_tail_bound_propagates():
    """Caller-supplied analytic tail bounds are added to the error."""
    ts = TruncatedSpace(3, 2.0, half=False, tail_bound=0.5)
    f = lambda x: np.exp(-np.sum(x**2, axis=1))
    r = integrate_volume(f, ts, axis=(np.zeros(3), np.eye(3)[0]))
    assert r.method == "axisymmetric" and r.error_estimate >= 0.5
    exact = integrate_radial(lambda t: math.exp(-t * t), 2.0, 3).value
    assert r.value == pytest.approx(exact, rel=1e-11)
    rq = integrate_volume(f, ts, seed=0)
    assert rq.error_estimate >= 0.5


def test_volume_tol_violation_raises():
    dom = Ball((0.0,) * 6, 1.0)
    rough = lambda x: np.where(x[:, 0] > 0.17, 1.0, -1.0)
    with pytest.raises(AccuracyError) as exc:
        integrate_volume(rough, dom, tol=1e-12, seed=0, n_points=2**8)
    assert exc.value.result is not None  # partial value attached
    # the axisymmetric path refuses an unmet tol too, and returns a met one
    axis = (np.zeros(6), np.eye(6)[0])
    with pytest.raises(AccuracyError) as exc:
        integrate_volume(rough, dom, tol=1e-12, axis=axis)
    assert exc.value.result.method == "axisymmetric"
    smooth = lambda x: x[:, 0] ** 2
    r = integrate_volume(smooth, dom, tol=1e-3, axis=axis)
    assert r.value == integrate_axisymmetric(smooth, dom, *axis).value


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


@pytest.mark.parametrize("domain, axis, features", [
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
    (TruncatedSpace(5, 2.0, half=True), np.eye(5)[0], ()),
    (Ball((0.0,) * 6, 1.0), np.eye(6)[0], (Ball((0.3,) + (0.0,) * 5, 0.1),
                                           Ball((-0.6,) + (0.0,) * 5, 0.05))),
], ids=["ball-peak", "halfball", "hole", "hole-generic-axis", "truncated-half",
        "feature-balls"])
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
    integrate_axisymmetric(lambda x: np.ones(len(x)), domain, center, axis,
                           feature_balls=features)
    assert len(calls) == 2  # fine and coarse rule
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


def test_surface_constant_and_even_moment():
    sph = SphereSurface((0.0,) * 3, 1.0)
    r1 = integrate_surface(lambda x: np.ones(len(x)), sph)
    assert r1.method == "product-gauss"
    assert r1.value == pytest.approx(4 * math.pi, rel=1e-12)
    r2 = integrate_surface(lambda x: x[:, 0] ** 2, sph)
    assert r2.value == pytest.approx(4 * math.pi / 3, rel=1e-10)


def test_surface_odd_function_vanishes():
    sph = SphereSurface((0.0,) * 4, 2.0)
    r = integrate_surface(lambda x: x[:, 1] ** 3, sph)
    assert abs(r.value) < 1e-10 * sph.area()


def test_surface_high_dimension_paths():
    sph = SphereSurface((0.0,) * 7, 1.0)
    exact = sphere_area(7) / 7.0
    rq = integrate_surface(lambda x: x[:, 0] ** 2, sph, seed=1)
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


def test_sphere_moment_ratio_exact():
    from fractions import Fraction

    assert sphere_moment_ratio((2, 0, 0)) == Fraction(1, 3)
    assert sphere_moment_ratio((4, 0, 0, 0)) == Fraction(3, 4 * 6)
    assert sphere_moment_ratio((1, 2)) == 0


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
