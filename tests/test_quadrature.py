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


def test_volume_singular_radial_path():
    dom = Ball((0.0,) * 3, 1.0,
               singularities=(Singularity((0.0, 0.0, 0.0), 1.0),))
    r = integrate_volume(lambda x: 1.0 / np.linalg.norm(x, axis=1), dom,
                         radial_center=(0.0, 0.0, 0.0))
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
    r = integrate_volume(f, ts, radial_center=(0.0, 0.0, 0.0))
    assert r.error_estimate >= 0.5
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
