"""Radial solver: shooting map basics, the exact first and second
derivatives of the shooting map (in d and mu) against central differences,
agreement with an independent LSODA re-integration, Newton convergence, the
Chebyshev step, sign keeping, idempotence and shot counts, the Hermite
predictor, continuation's solves at grid points only, branch accuracy,
bubble fitting, and the scaling-exponent fit."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp
from start_oracle import closed_form_start

from polybubble import solver
from polybubble.radial import bubble_constant, critical_exponent
from polybubble.solver import (BranchPoint, IntegrationBlowUp, NewtonFailure,
                               ProblemParams, RadialSolution, branch_csv,
                               collocation_check, continuation, fit_bubble,
                               newton_solve, pohozaev_scaling, run_manifest,
                               shoot, synthetic_bubble_branch)


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(7, 1, 1, 0.0)  # p > k-1
    with pytest.raises(ValueError):
        ProblemParams(2, 1, 0, 0.0)  # n <= 2k


def test_trivial_branch():
    p = ProblemParams(7, 1, 0, -0.5)
    mm, sol = shoot(p, [0.0])
    assert mm[0] == 0.0 and sol.sup_norm == 0.0


def test_linear_regime_constant():
    """With mu = 0 and a vanishingly small start the equation is essentially
    -Delta u = 0: u stays at its center value."""
    p = ProblemParams(7, 1, 0, 0.0)
    mm, sol = shoot(p, [1e-8])
    assert mm[0] == pytest.approx(1e-8, rel=1e-5)
    assert np.ptp(sol.v[0]) < 1e-12


def test_shoot_validates_data_length():
    p = ProblemParams(9, 2, 0, 0.0)
    with pytest.raises(ValueError):
        shoot(p, [1.0])


def test_shoot_blowup_reported_with_radius():
    """Adversarial biharmonic data: the focusing coupling runs away before
    the boundary and the failure carries the escape radius."""
    p = ProblemParams(9, 2, 0, 0.0)
    with pytest.raises(IntegrationBlowUp) as exc:
        shoot(p, [5.0, -5e4])
    assert 0.0 < exc.value.radius < 1.0


def test_shoot_matches_independent_lsoda():
    """Second-integrator oracle on the nonlinear problem."""
    p = ProblemParams(3, 1, 0, 0.0)
    d = [1.0]
    mm, sol = shoot(p, d, rtol=1e-11)
    res = collocation_check(p, sol)
    assert res < 1e-8


def test_collocation_check_detects_perturbed_data():
    """The verifier re-integrates solution.d, so data that no longer match
    the stored profile show up at the size of the perturbation."""
    p = ProblemParams(7, 1, 0, -0.5)
    _, sol = shoot(p, [1.2e4])
    assert collocation_check(p, sol) < 1e-9
    sol.d = sol.d * (1.0 + 1e-6)
    assert collocation_check(p, sol) >= 1e-7


def test_collocation_check_inf_when_reintegration_blows_up():
    """Data whose re-integration escapes before r = 1 give inf, not nan."""
    p = ProblemParams(9, 2, 0, 0.0)
    _, sol = shoot(p, [1.0, 0.5])
    sol.d = np.array([5.0, -5e4])  # blows up before the boundary
    assert collocation_check(p, sol) == np.inf


def test_collocation_check_resolves_core_narrower_than_a_cell():
    """At n = 5, mu = -0.02 the bubble scale 6.7e-4 is below the 2.5e-3
    grid cell; LSODA needs more than its default 500 steps per output
    interval there, and the check must still finish and pass."""
    p = ProblemParams(5, 1, 0, -0.02)
    _, sol = shoot(p, [57912.57])
    assert fit_bubble(sol)[0] < 1e-3
    assert collocation_check(p, sol) < 1e-9


def test_collocation_check_is_independent_lsoda(monkeypatch):
    """The verifier makes no solver.solve_ivp call (the shots' integrator),
    and its own LSODA profile at the n = 7, mu = -0.02 default-branch point
    agrees with scipy's DOP853 at rtol 3e-14 to 1e-11 sup-relative."""
    p = ProblemParams(7, 1, 0, -0.02)
    sol = newton_solve(p, [182253.878], rtol=1e-9)
    outputs = []
    real = solver.odeint

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        outputs.append(out[0][:, 0])
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier must not call solve_ivp")

    monkeypatch.setattr(solver, "odeint", spy)
    monkeypatch.setattr(solver, "solve_ivp", refuse)
    assert collocation_check(p, sol) < 1e-9
    monkeypatch.undo()
    y0 = solver._taylor_start(p, sol.d)([sol.r[0]])[:, 0, 0]
    ref = scipy_solve_ivp(solver._rhs(p, 1), (sol.r[0], 1.0), y0,
                          method="DOP853", rtol=3e-14,
                          atol=3e-14 * abs(sol.d[0]), t_eval=sol.r).y[0]
    assert len(outputs) == 1
    assert np.max(np.abs(outputs[0] - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_solution_even_at_origin():
    """v'(eps) matches the even Taylor start 2 c_2 eps + O(eps^3), so the
    odd derivative at r = 0 itself vanishes."""
    p = ProblemParams(7, 1, 0, -0.5)
    d0 = 100.0
    _, sol = shoot(p, [d0], rtol=1e-11)
    ts = critical_exponent(7, 1)
    w1 = abs(d0) ** (ts - 2.0) * d0 - p.mu * d0
    c2 = -w1 / (2 * 7)
    eps = sol.r[0]
    assert sol.dv[0][0] == pytest.approx(2 * c2 * eps, rel=1e-4)


def test_newton_solves_bn_ground_state():
    p = ProblemParams(7, 1, 0, -0.5)
    sol = newton_solve(p, [1.2e4], rtol=1e-9)
    assert np.linalg.norm(sol.mismatch) < 1e-9
    assert sol.collocation_residual < 1e-7  # 10 x rtol margin per contract
    # idempotence: restarting from the converged data reproduces it
    sol2 = newton_solve(p, sol.d, rtol=1e-9)
    assert sol2.d[0] == pytest.approx(sol.d[0], rel=1e-8)
    # PDE sanity: positive ground state, decaying profile
    assert sol.v[0][0] > 0 and sol.v[0][0] == sol.sup_norm


def test_newton_keeps_sign_of_center_value():
    """For n = 6 the undamped first step from 1.2e4 crosses zero; halving it
    before the shot keeps Newton on the positive ground state."""
    sol = newton_solve(ProblemParams(6, 1, 0, -0.5), [1.2e4])
    assert sol.d[0] > 0
    assert sol.d[0] == pytest.approx(2298.16, rel=1e-5)
    assert sol.collocation_residual < 1e-9


def test_newton_refuses_state_its_verifier_rejects():
    """From 3.0 at n = 5 the mismatch test passes near the trivial state
    u = 0, where the collocation residual is 3.9e-2; Newton raises."""
    with pytest.raises(NewtonFailure, match="collocation residual"):
        newton_solve(ProblemParams(5, 1, 0, -0.5), [3.0])


def test_newton_converged_start_shoots_once(monkeypatch):
    """Started from converged data, Newton returns the solution of its one
    shot instead of shooting the same data again."""
    p = ProblemParams(7, 1, 0, -0.5)
    sol = newton_solve(p, [1.2e4], rtol=1e-9)
    calls = []
    real = solver.shoot

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "shoot", counting)
    again = newton_solve(p, sol.d, rtol=1e-9)
    assert len(calls) == 1
    assert np.array_equal(again.d, sol.d)
    assert np.array_equal(again.v, sol.v)
    assert again.collocation_residual == sol.collocation_residual


def test_newton_damping_is_bounded(monkeypatch):
    """From u(0) = 1.2e4 at n = 5, mu = -1/2, Newton climbs to a plateau of
    |F| with no root and fails.  Every shot whose |F| is no new minimum was
    refused, so each iteration refuses at most _MAX_DAMPING + 2 shots (the
    Chebyshev step and the halvings 1 ... 2^-_MAX_DAMPING of the Newton
    step): 32 shots in all, against 62 when the halving runs on to 1e-8.
    The solve climbs to u(0) = 4.0e9, where |F| stalls near 1e-7."""
    norms = []
    real = solver.shoot

    def counting(*args, **kwargs):
        F, sol = real(*args, **kwargs)
        norms.append(np.linalg.norm(F))
        return F, sol

    monkeypatch.setattr(solver, "shoot", counting)
    with pytest.raises(NewtonFailure, match="damping failed"):
        newton_solve(ProblemParams(5, 1, 0, -0.5), [1.2e4])
    accepted = [i for i, f in enumerate(norms) if f < min(norms[:i], default=np.inf)]
    refused_runs = np.diff(accepted + [len(norms)]) - 1
    assert solver._MAX_DAMPING >= 7
    assert max(refused_runs) <= solver._MAX_DAMPING + 2
    assert len(norms) <= 33


def _singular_shoot(monkeypatch):
    """Patch shoot so every shot carries a zero Jacobian."""
    real = solver.shoot

    def singular(*args, **kwargs):
        F, sol = real(*args, **kwargs)
        sol.jac = np.zeros_like(sol.jac)
        return F, sol

    monkeypatch.setattr(solver, "shoot", singular)


def test_singular_jacobian_is_a_newton_failure(monkeypatch):
    """A shot with a singular Jacobian and a mismatch above rtol stops
    Newton with NewtonFailure, and continuation ends the branch there as a
    fold instead of propagating an error."""
    _singular_shoot(monkeypatch)
    p = ProblemParams(7, 1, 0, -0.5)
    with pytest.raises(NewtonFailure, match="singular shooting Jacobian"):
        newton_solve(p, [1.2e4])
    assert continuation(p, [-0.5, -0.25], [1.2e4]) == ([], "fold")


@pytest.mark.parametrize("seed_form", ["data", "solution"])
def test_singular_jacobian_at_a_solved_point_is_a_fold(monkeypatch, seed_form):
    """A solved point whose Jacobian is singular has no tangent dd/dmu:
    continuation keeps the point and ends the branch there as a fold, both
    when Newton accepts its first shot (seeded with converged data) and
    when a converged seed solution is reused without a shot."""
    p = ProblemParams(7, 1, 0, -0.5)
    seed = newton_solve(p, [1.2e4], rtol=1e-9)
    seed.jac = np.zeros_like(seed.jac)
    _singular_shoot(monkeypatch)
    pts, flag = continuation(p, [-0.5, -0.25],
                             seed if seed_form == "solution" else seed.d,
                             rtol=1e-9)
    assert flag == "fold" and [b.mu_param for b in pts] == [-0.5]
    np.testing.assert_array_equal(pts[0].d, seed.d)


def _counting_shoot(monkeypatch):
    calls = []
    real = solver.shoot

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "shoot", counting)
    return calls


_SHOT_CASES = [
    (7, 1, 0, -0.1, [45959.7]),
    (9, 2, 0, -3000.0, [8.0, 500.0]),
    (9, 2, 1, -50.0, [3.0, 40.0]),
    (11, 3, 1, -1.0, [1.0, 2.0, 3.0]),
]


@pytest.mark.parametrize("n,k,p,mu,d", _SHOT_CASES)
def test_shot_jacobian_matches_central_differences(n, k, p, mu, d):
    """The variational columns give the mismatch Jacobian of the shot."""
    params = ProblemParams(n, k, p, mu)
    d = np.array(d)
    _, sol = shoot(params, d, rtol=1e-12)
    fd = np.empty((k, k))
    for j in range(k):
        h = np.zeros(k)
        h[j] = 1e-5 * max(1.0, abs(d[j]))
        fd[:, j] = (shoot(params, d + h, rtol=1e-12)[0]
                    - shoot(params, d - h, rtol=1e-12)[0]) / (2 * h[j])
    assert sol.jac.shape == (k, k)
    assert np.max(np.abs(sol.jac - fd)) <= 1e-5 * np.max(np.abs(fd))


@pytest.mark.parametrize("n,k,p,mu,d", _SHOT_CASES)
def test_shot_mu_derivative_matches_central_differences(n, k, p, mu, d):
    """The d/dmu column gives the mismatch's derivative in mu."""
    d = np.array(d)
    _, sol = shoot(ProblemParams(n, k, p, mu), d, rtol=1e-12)
    h = 1e-5 * max(1.0, abs(mu))
    fd = (shoot(ProblemParams(n, k, p, mu + h), d, rtol=1e-12)[0]
          - shoot(ProblemParams(n, k, p, mu - h), d, rtol=1e-12)[0]) / (2 * h)
    assert sol.dmu.shape == (k,)
    assert np.max(np.abs(sol.dmu - fd)) <= 1e-5 * np.max(np.abs(fd))


@pytest.mark.parametrize("n,k,p,mu,d", _SHOT_CASES)
def test_shot_hessian_matches_central_differences(n, k, p, mu, d):
    """The second-order columns give the derivative of jac in d.  The jac
    columns carry no error control of their own, so their differences
    resolve the Hessian to about 1e-5 in the stiff mu = -3000 case (step
    3e-4, where truncation and the columns' noise balance) and to 3e-7 or
    better in the others."""
    params = ProblemParams(n, k, p, mu)
    d = np.array(d)
    _, sol = shoot(params, d, rtol=1e-12)
    fd = np.empty((k, k, k))
    for j in range(k):
        h = np.zeros(k)
        h[j] = 3e-4 * max(1.0, abs(d[j]))
        fd[:, :, j] = (shoot(params, d + h, rtol=1e-12)[1].jac
                       - shoot(params, d - h, rtol=1e-12)[1].jac) / (2 * h[j])
    assert sol.hess.shape == (k, k, k)
    np.testing.assert_array_equal(sol.hess, sol.hess.transpose(0, 2, 1))
    assert np.max(np.abs(sol.hess - fd)) <= 5e-5 * np.max(np.abs(fd))


def _start_block(params, d, eps=None):
    """The full start block at eps, by default the radius 0.3 mu_d (or
    less) to which the start series holds, and that radius."""
    start = solver._taylor_start(params, d)
    eps = start.eps if eps is None else eps
    return start([eps])[..., 0], eps


def _assert_matches_difference(got, fd, differenced, h):
    """got equals the central difference fd to 1e-6 relative, above 1e-8 of
    the largest |fd| and above the rounding of the differenced entries
    divided by the step h, which no central difference resolves."""
    atol = 1e-8 * max(np.max(np.abs(fd)), 1e-300)
    atol = atol + 4 * np.finfo(float).eps * np.abs(differenced) / h
    assert np.all(np.abs(got - fd) <= 1e-6 * np.abs(fd) + atol)


@pytest.mark.parametrize("n,k,p,mu,d", _SHOT_CASES)
def test_taylor_start_matches_closed_form(n, k, p, mu, d):
    """At r = 1e-6 the start block from the recursion matches the
    hand-written 4-term series: the state column bit for bit (the scales
    are powers of 2, so a shot started there takes the steps it took from
    the closed form), every column to 1e-15 relative once the series is
    cut to the oracle's terms (s^0, s, s^2)."""
    params, d = ProblemParams(n, k, p, mu), np.array(d)
    start = solver._taylor_start(params, d)
    ref = closed_form_start(params, d, 1e-6)
    np.testing.assert_array_equal(start([1e-6])[:, 0, 0], ref[:, 0])
    cut = replace(start, coef=start.coef[:3])([1e-6])[..., 0]
    np.testing.assert_allclose(cut, ref, rtol=1e-15, atol=0)


def test_taylor_start_radius_follows_the_bubble_scale():
    """The start radius is 0.3 mu_d, mu_d = |d_0|^{-2/(n-2k)}, whatever the
    amplitude, with at most 15 terms; the state's last term there is below
    1e-17 |d_0|, and huge data do not overflow the series.  Data whose
    start values leave the float range end the shot as a blow-up."""
    for n, d0 in ((3, 46.09), (5, 3.6e10), (7, 182253.878), (12, 1e8), (5, 1e150)):
        params = ProblemParams(n, 1, 0, -0.5)
        start = solver._taylor_start(params, [d0])
        mu_d = d0 ** (-2.0 / (n - 2))
        assert start.r0 == start.eps == pytest.approx(0.3 * mu_d, rel=1e-15)
        terms = len(start.coef)
        assert terms <= 15
        last = start.coef[-1, 0, 0] * (start.eps / start.scale) ** (2 * terms - 2)
        assert abs(last) * start.amp < 1e-17 * d0
        assert np.all(np.isfinite(start([start.eps])))
    for n, d0 in ((5, 1e200), (3, 1e80)):
        with pytest.raises(IntegrationBlowUp):
            shoot(ProblemParams(n, 1, 0, -0.5), [d0])


@pytest.mark.parametrize("n,k,p,mu,d", [
    (7, 1, 0, -0.5, [1.2e4]),
    (9, 2, 1, -50.0, [3.0, 40.0]),
    (11, 3, 2, 2.0, [-1.5, 2.0, 3.0]),
])
def test_taylor_start_derivative_columns(n, k, p, mu, d):
    """Columns 1..k of the Taylor start are the derivatives of column 0 in
    d, checked at the radius of the start series."""
    params = ProblemParams(n, k, p, mu)
    d = np.array(d)
    Y, eps = _start_block(params, d)
    for j in range(k):
        h = np.zeros(k)
        h[j] = 1e-6 * abs(d[j])
        fd = (_start_block(params, d + h, eps)[0][:, 0]
              - _start_block(params, d - h, eps)[0][:, 0]) / (2 * h[j])
        _assert_matches_difference(Y[:, 1 + j], fd, Y[:, 0], h[j])


@pytest.mark.parametrize("n,k,p,mu,d", [
    (7, 1, 0, -0.5, [1.2e4]),
    (9, 2, 1, -50.0, [3.0, 40.0]),
    (11, 3, 2, 2.0, [-1.5, 2.0, 3.0]),
    (11, 3, 0, -1.0, [2.5, -2.0, 3.0]),
])
def test_taylor_start_mu_and_second_order_columns(n, k, p, mu, d):
    """The d/dmu column of the Taylor start is the mu-derivative of column
    0, and the (i, j) column the d_j-derivative of the d_i column, at the
    radius of the start series."""
    d = np.array(d)
    Y, eps = _start_block(ProblemParams(n, k, p, mu), d)
    start = lambda mu, d: _start_block(ProblemParams(n, k, p, mu), d, eps)[0]
    assert Y.shape == (2 * k, solver._block_cols(k))
    h = 1e-6 * max(1.0, abs(mu))
    fd = (start(mu + h, d)[:, 0] - start(mu - h, d)[:, 0]) / (2 * h)
    _assert_matches_difference(Y[:, k + 1], fd, Y[:, 0], h)
    for c, (i, j) in enumerate(zip(*np.triu_indices(k))):
        h = np.zeros(k)
        h[j] = 1e-6 * abs(d[j])
        fd = (start(mu, d + h)[:, 1 + i] - start(mu, d - h)[:, 1 + i]) / (2 * h[j])
        _assert_matches_difference(Y[:, k + 2 + c], fd, Y[:, 1 + i], h[j])


@pytest.mark.parametrize("n,k,p,mu,d", [
    (7, 1, 0, -0.5, [1.2e4]),
    (9, 2, 0, -3000.0, [8.0, 500.0]),
])
def test_variational_columns_leave_steps_unchanged(monkeypatch, n, k, p, mu, d):
    """atol = inf on every variational column (d, mu and second order): a
    shot takes the steps of the state integrated alone (the DOP853 loop on
    _rhs(params, 1) at the shot's rtol and atol), and reaches the same
    state.  The accepted steps agree up to rounding, which the error
    estimate amplifies."""
    params = ProblemParams(n, k, p, mu)
    _, args, run = _captured_dop853(monkeypatch, params, np.array(d), 1e-10)
    t_span, y0, _, _, t_eval, cap, cols = args
    assert cols == 2 + k + k * (k + 1) // 2
    block = run.y.reshape(2 * k, cols)
    alone = solver.solve_ivp(solver._rhs(params, 1), t_span,
                             y0.reshape(2 * k, cols)[:, 0], 1e-10,
                             1e-10 * max(1.0, np.max(np.abs(d))), t_eval, cap, 1)
    assert alone.status == 0 and alone.y.shape == (2 * k,)
    assert len(run.steps) == len(alone.steps)
    np.testing.assert_allclose(run.steps, alone.steps, rtol=1e-3)
    np.testing.assert_allclose(block[:, 0], alone.y, rtol=1e-9,
                               atol=1e-9 * np.max(np.abs(alone.y)))


def _captured_dop853(monkeypatch, params, d, rtol):
    """The arguments of the solver.solve_ivp call made by a shot, wrapped so
    that each rhs call is counted, with that call's result (None when the
    shot blows up)."""
    calls, real = [], solver.solve_ivp

    def spy(fun, *args):
        def counted(r, y):
            counted.n += 1
            return fun(r, y)

        counted.n = 0
        calls.append((counted, args))
        run = real(counted, *args)
        calls.append(run)
        return run

    monkeypatch.setattr(solver, "solve_ivp", spy)
    try:
        shoot(params, d, rtol=rtol)
    except IntegrationBlowUp:
        pass
    monkeypatch.undo()
    (fun, args), run = calls
    return fun, args, run


def _scipy_dop853(fun, args, **kwargs):
    t_span, y0, rtol, atol, t_eval, cap, stride = args

    def blow(r, y):
        return np.max(np.abs(y[::stride])) - cap

    blow.terminal, blow.direction = True, 1
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
                           atol=atol, events=blow, **kwargs)


def _counted_rows(params, cols):
    """The rows form of solver._rhs(params, cols), counting the rows it is
    handed."""
    rows = solver._rhs(params, cols).rows

    def counted(r, Y):
        counted.n += len(r)
        return rows(r, Y)

    counted.n = 0
    return counted


_SCIPY_CASES = [
    (7, 1, 0, -0.5, [1.2e4]),
    (9, 2, 0, -3000.0, [8.0, 500.0]),
    (13, 3, 0, -1e4, [3.0, 50.0, 900.0]),
    (11, 3, 1, -200.0, [3.0, 50.0, 900.0]),
]


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
@pytest.mark.parametrize("n,k,p,mu,d", _SCIPY_CASES)
def test_dop853_loop_matches_scipy(monkeypatch, n, k, p, mu, d, rtol):
    """The in-module DOP853 loop on the full variational block equals
    scipy's DOP853 bit for bit: the end block and the accepted steps of
    solve_ivp(dense_output=True), and the grid that _sample makes from the
    loop's record equals the grid output of both its dense output and
    solve_ivp(t_eval=...).  The loop's rhs calls plus the rows of the
    dense-output stages _sample hands to the rows rhs, 3 per recorded step,
    are those of the t_eval run."""
    params = ProblemParams(n, k, p, mu)
    fun, args, run = _captured_dop853(monkeypatch, params, np.array(d), rtol)
    stride, t_eval = args[-1], args[-3]
    assert stride == solver._block_cols(k) and run.status == 0
    dense = _scipy_dop853(fun, args, dense_output=True)
    gridded = _scipy_dop853(fun, args, t_eval=t_eval)
    rows = _counted_rows(params, stride)
    grid = solver._sample(rows, run.record, t_eval, stride)
    stages = len(DOP853.A_EXTRA) * len(run.record)
    assert rows.n == stages
    np.testing.assert_array_equal(run.y, dense.y[:, -1])
    np.testing.assert_array_equal(run.steps, dense.t[1:])
    np.testing.assert_array_equal(grid, dense.sol(t_eval)[::stride])
    np.testing.assert_array_equal(grid, gridded.y[::stride])
    assert run.nfev == fun.n - dense.nfev - gridded.nfev
    assert run.nfev + stages == gridded.nfev
    assert gridded.nfev < dense.nfev  # dense stages only where the grid needs them
    assert run.nfev > 2 + 12 * len(run.steps)  # some step was rejected


def test_dop853_loop_zero_error_norm_matches_scipy(monkeypatch):
    """The trivial shot d = [0] at k = 1 has a zero state and atol = inf on
    its variational columns, so every step has error norm 0 and grows by
    the largest factor: the loop's steps, end block and grid equal scipy's
    DOP853 bit for bit there too."""
    params = ProblemParams(7, 1, 0, -0.5)
    fun, args, run = _captured_dop853(monkeypatch, params, np.array([0.0]), 1e-10)
    stride, t_eval = args[-1], args[-3]
    assert run.status == 0 and not np.any(run.y[::stride])
    dense = _scipy_dop853(fun, args, dense_output=True)
    np.testing.assert_array_equal(run.y, dense.y[:, -1])
    np.testing.assert_array_equal(run.steps, dense.t[1:])
    rows = _counted_rows(params, stride)
    np.testing.assert_array_equal(solver._sample(rows, run.record, t_eval, stride),
                                  dense.sol(t_eval)[::stride])
    assert rows.n == len(DOP853.A_EXTRA) * len(run.record)
    assert run.nfev == 2 + 12 * len(run.steps)  # no step was rejected


def test_dop853_loop_blowup_radius_matches_scipy(monkeypatch):
    """On test_shoot_blowup_reported_with_radius's data the loop stops at
    scipy's terminal-event root, and IntegrationBlowUp carries it.  The
    loop counts every rhs call it makes, and makes fewer than scipy's
    t_eval run: no dense-output stages for a grid that nothing reads."""
    params, d = ProblemParams(9, 2, 0, 0.0), np.array([5.0, -5e4])
    fun, args, run = _captured_dop853(monkeypatch, params, d, 1e-10)
    ref = _scipy_dop853(fun, args, t_eval=args[-3])
    assert run.status == ref.status == 1
    assert run.t == ref.t_events[0][0]
    assert run.nfev == fun.n - ref.nfev
    assert run.nfev < ref.nfev
    with pytest.raises(IntegrationBlowUp) as exc:
        shoot(params, d)
    assert exc.value.radius == run.t


def test_dop853_loop_stops_where_scipy_fails():
    """A rhs that turns to nan past r = 0.5 drives the step size below
    scipy's minimum: the loop reports status -1 at scipy's last accepted
    radius, with scipy's rhs call count."""
    def fun(r, y):
        return -y if r < 0.5 else np.full_like(y, np.nan)

    y0, grid = np.array([1.0, 2.0]), np.linspace(0.1, 1.0, 10)
    run = solver.solve_ivp(fun, (0.1, 1.0), y0, 1e-10, 1e-10, grid, 1e9, 1)
    ref = _scipy_dop853(fun, ((0.1, 1.0), y0, 1e-10, 1e-10, grid, 1e9, 1),
                        dense_output=True)
    assert run.status == ref.status == -1
    assert run.t == ref.t[-1] < 0.5
    np.testing.assert_array_equal(run.y, ref.y[:, -1])
    np.testing.assert_array_equal(run.steps, ref.t[1:])


def _spy_sample(monkeypatch):
    """The grids the shots' sampler solver._sample returns, in call order."""
    grids, real = [], solver._sample

    def spy(*args):
        grids.append(real(*args))
        return grids[-1]

    monkeypatch.setattr(solver, "_sample", spy)
    return grids


@pytest.mark.parametrize("n,k,p,mu,d", _SCIPY_CASES)
def test_shot_grid_matches_scipy_dense_output(monkeypatch, n, k, p, mu, d):
    """A shot's r, v, dv and sup_norm, sampled after its step loop,
    equal bit for bit those built from scipy's DOP853 dense output on the
    same rhs, with the start series at the grid points below the start
    radius."""
    params = ProblemParams(n, k, p, mu)
    captured, real = [], solver.solve_ivp

    def spy(fun, *args):
        captured.append((fun, args))
        return real(fun, *args)

    monkeypatch.setattr(solver, "solve_ivp", spy)
    _, sol = shoot(params, d)
    monkeypatch.undo()
    [(fun, args)] = captured
    rr = np.linspace(1e-6, 1.0, 400)
    start = solver._taylor_start(params, np.array(d))
    inside = np.searchsorted(rr, start.r0, side="right")
    assert inside >= 1
    dense = _scipy_dop853(fun, args, dense_output=True)
    Y = np.hstack([start(rr[:inside])[:, 0], dense.sol(rr[inside:])[::args[-1]]])
    v, dv = Y[0::2], Y[1::2]
    np.testing.assert_array_equal(sol.r, rr)
    np.testing.assert_array_equal(sol.v, v)
    np.testing.assert_array_equal(sol.dv, dv)
    assert sol.sup_norm == float(np.max(np.abs(v[0])))


def test_newton_samples_only_the_accepted_grid(monkeypatch):
    """Of a Newton solve's shots only the accepted one has its grid
    sampled, by the verifier; the trial shots sample none, and reading the
    solution's fields afterwards samples nothing more."""
    start = newton_solve(ProblemParams(7, 1, 0, -0.5), [1.2e4], rtol=1e-9)
    shots = _counting_shoot(monkeypatch)
    grids = _spy_sample(monkeypatch)
    sol = newton_solve(ProblemParams(7, 1, 0, -0.25), start.d, rtol=1e-9)
    assert len(shots) >= 2 and len(grids) == 1
    assert sol.sup_norm > 0 and sol.dv.shape == sol.v.shape
    assert len(grids) == 1
    np.testing.assert_array_equal(grids[0][0], sol.v[0][-grids[0].shape[1]:])


def test_blown_up_shot_samples_nothing(monkeypatch):
    """A shot that escapes before r = 1 makes no dense-output stages for
    its grid."""
    grids = _spy_sample(monkeypatch)
    with pytest.raises(IntegrationBlowUp):
        shoot(ProblemParams(9, 2, 0, 0.0), [5.0, -5e4])
    assert grids == []


def _reference_rhs(params, cols):
    """The block rhs in its first formulation, the oracle of solver._rhs: a
    fresh chain matrix A1 / r + A0 on every call, then A @ Y and the
    forcing of the last row."""
    n, k, p, mu = params.n, params.k, params.p, params.mu
    ts = params.two_sharp
    i = np.arange(k)
    pairs = list(enumerate(zip(*np.triu_indices(k)), start=k + 2))
    vp = 2 * p * cols
    A0 = np.zeros((2 * k, 2 * k))
    A0[2 * i, 2 * i + 1] = 1.0
    A0[2 * i[:-1] + 1, 2 * i[:-1] + 2] = -1.0
    A0[-1, 2 * p] += mu
    A1 = np.zeros((2 * k, 2 * k))
    A1[2 * i + 1, 2 * i + 1] = -(n - 1.0)

    def rhs(r, y):
        v0 = float(y[0])
        try:
            a = abs(v0) ** (ts - 2.0)
        except OverflowError:
            raise IntegrationBlowUp(r) from None
        A = A1 * (1.0 / r)
        A += A0
        A[-1, 0] -= (ts - 1.0) * a
        out = A @ y.reshape(2 * k, cols)
        last = out[-1]
        last[0] += (ts - 2.0) * a * v0
        if cols > 1:
            last[k + 1] += y[vp]
            if v0 != 0.0:
                S0 = y[1:k + 1].tolist()
                c = (ts - 1.0) * (ts - 2.0) * a / v0
                for col, (i1, i2) in pairs:
                    last[col] -= c * S0[i1] * S0[i2]
        return out.ravel()

    return rhs


_RHS_CASES = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


@pytest.mark.parametrize("k,p", _RHS_CASES)
def test_rhs_matches_reference_formulation(k, p):
    """_rhs, which keeps one chain matrix per closure, equals the reference
    formulation bit for bit on the state alone and on the full block, at
    200 random (r, y) with v_0 > 0, v_0 < 0 and v_0 = 0, and raises
    IntegrationBlowUp at the same radius when |v_0|^{2#-2} overflows."""
    params = ProblemParams(2 * k + 3, k, p, -0.7)
    for cols in (1, solver._block_cols(k)):
        fun, ref = solver._rhs(params, cols), _reference_rhs(params, cols)
        rng = np.random.default_rng(100 * k + 10 * p + cols)
        for j in range(200):
            y = rng.normal(size=2 * k * cols) * 10.0 ** rng.uniform(-3, 3, size=2 * k * cols)
            y[0] = (abs(y[0]), -abs(y[0]), 0.0)[j % 3]
            r = 10.0 ** rng.uniform(-6, 0)
            np.testing.assert_array_equal(fun(r, y), ref(r, y))
        y[0] = -1e300
        for f in (fun, ref):
            with pytest.raises(IntegrationBlowUp) as exc:
                f(0.25, y)
            assert exc.value.radius == 0.25


@pytest.mark.parametrize("k,p", _RHS_CASES)
def test_rows_rhs_matches_reference_formulation(k, p):
    """The rows form of _rhs equals the reference formulation bit for bit,
    row by row, on the state alone and on the full block, at 200 random
    stacks of 3 to 9 rows (r, y) that each mix v_0 > 0, v_0 < 0 and
    v_0 = 0; a stack with one row whose |v_0|^{2#-2} overflows raises
    IntegrationBlowUp at that row's radius."""
    params = ProblemParams(2 * k + 3, k, p, -0.7)
    for cols in (1, solver._block_cols(k)):
        rows, ref = solver._rhs(params, cols).rows, _reference_rhs(params, cols)
        rng = np.random.default_rng(100 * k + 10 * p + cols + 7)
        for _ in range(200):
            R = int(rng.integers(3, 10))
            size = (R, 2 * k * cols)
            Y = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size=size)
            Y[:, 0] = np.abs(Y[:, 0]) * rng.permutation(np.arange(R) % 3 - 1)
            r = 10.0 ** rng.uniform(-6, 0, size=R)
            got = rows(r, Y.copy())
            assert got.shape == Y.shape
            for j in range(R):
                np.testing.assert_array_equal(got[j], ref(r[j], Y[j]))
        Y[1, 0] = -1e300
        with pytest.raises(IntegrationBlowUp) as exc:
            rows(r, Y)
        assert exc.value.radius == r[1]


@pytest.mark.parametrize("k,p", _RHS_CASES)
def test_rhs_does_not_depend_on_call_history(k, p):
    """A call's result depends on (r, y) alone: the same call repeated after
    calls at other radii and states, interleaved with a closure at another
    mu, gives the same bits as the reference formulation."""
    cols = solver._block_cols(k)
    P1, P2 = ProblemParams(2 * k + 3, k, p, -0.7), ProblemParams(2 * k + 3, k, p, 2.5)
    f1, f2 = solver._rhs(P1, cols), solver._rhs(P2, cols)
    ref1, ref2 = _reference_rhs(P1, cols), _reference_rhs(P2, cols)
    rng = np.random.default_rng(k + 10 * p)
    y1, y2 = rng.normal(size=(2, 2 * k * cols)) * 10.0
    y2[0] = -y2[0]
    first = f1(0.3, y1)
    for r, y in ((0.7, y2), (1e-4, y1), (0.3, y2)):
        np.testing.assert_array_equal(f2(r, y), ref2(r, y))
        np.testing.assert_array_equal(f1(r, y), ref1(r, y))
    np.testing.assert_array_equal(f1(0.3, y1), first)
    np.testing.assert_array_equal(first, ref1(0.3, y1))


@pytest.mark.parametrize("k,p", _RHS_CASES)
def test_verifier_rhs_matches_block_rhs(k, p):
    """The verifier's float rhs equals the shots' _rhs(params, 1) to 1e-15
    relative to the size of each component's terms."""
    params = ProblemParams(2 * k + 3, k, p, -0.7)
    ts = params.two_sharp
    block, state = solver._rhs(params, 1), solver._state_rhs(params)
    rng = np.random.default_rng(k + 10 * p)
    for _ in range(200):
        y = rng.normal(size=2 * k) * 10.0 ** rng.uniform(-3, 3, size=2 * k)
        r = rng.uniform(1e-6, 1.0)
        ref, got = block(r, y), np.array(state(r, y))
        size = np.abs(ref)
        size[1::2] = (params.n - 1) / r * np.abs(y[1::2])
        size[1:-1:2] += np.abs(y[2::2])
        size[-1] += abs(params.mu * y[2 * p]) + (ts - 1) * abs(y[0]) ** (ts - 1)
        assert np.all(np.abs(got - ref) <= 1e-15 * size)


def test_float_overflow_ends_a_shot_as_blowup():
    """|v_0|^{2#-2} beyond the float range raises IntegrationBlowUp at the
    stage radius inside a shot, and makes the verifier answer inf."""
    params = ProblemParams(4, 1, 0, -0.5)
    with pytest.raises(IntegrationBlowUp) as exc:
        solver._rhs(params, 1)(0.5, np.array([1e200, 0.0]))
    assert exc.value.radius == 0.5
    _, sol = shoot(params, [854.37])
    sol.d = np.array([1e160])
    assert collocation_check(params, sol) == np.inf


def test_shot_with_core_inside_first_grid_cell_is_cheap(monkeypatch):
    """u(0) = 3.6e10 at n = 5, mu = -1/2, a Chebyshev trial that a Newton
    solve from 1.2e4 once reached: its bubble scale 9.2e-8 is below the
    first grid point.  From a fixed start at 1e-6 this shot took 8.7 s; from
    the start series at 0.3 of its own scale it takes under 2000 rhs
    calls."""
    params = ProblemParams(5, 1, 0, -0.5)
    fun, args, run = _captured_dop853(monkeypatch, params, np.array([3.6e10]), 1e-10)
    assert run.status == 0 and args[0][0] < 1e-7
    assert run.nfev == fun.n < 2000


def test_newton_shoots_once_per_iteration(monkeypatch):
    """The Jacobian comes with each shot: no extra shots per iteration."""
    p = ProblemParams(7, 1, 0, -0.5)
    start = newton_solve(p, [1.2e4], rtol=1e-9)
    calls = _counting_shoot(monkeypatch)
    sol = newton_solve(ProblemParams(7, 1, 0, -0.25), start.d, rtol=1e-9)
    assert np.linalg.norm(sol.mismatch) < 1e-9
    assert len(calls) <= 7


def test_newton_tries_chebyshev_step_first(monkeypatch):
    """After the start shot, Newton shoots d + s - J^{-1} F''[s, s] / 2,
    s = -J^{-1} F, from that shot's own derivatives."""
    p = ProblemParams(7, 1, 0, -0.5)
    start = newton_solve(p, [1.2e4], rtol=1e-9)
    q = ProblemParams(7, 1, 0, -0.25)
    F, sol = shoot(q, start.d)
    s = np.linalg.solve(sol.jac, -F)
    curv = np.einsum("mij,i,j->m", sol.hess, s, s)
    cheb = start.d + s - 0.5 * np.linalg.solve(sol.jac, curv)
    calls = _counting_shoot(monkeypatch)
    newton_solve(q, start.d, rtol=1e-9)
    np.testing.assert_array_equal(calls[1][1], cheb)


def test_continuation_shot_budget(monkeypatch):
    """The default grid, with the Hermite-tangent predictor and Chebyshev
    steps, in <= 10 shots (1 at the converged start, then 3, 2, 2, 2)."""
    p = ProblemParams(7, 1, 0, -0.5)
    start = newton_solve(p, [1.2e4], rtol=1e-9)
    calls = _counting_shoot(monkeypatch)
    pts, flag = continuation(p, [-0.5, -0.25, -0.1, -0.05, -0.02], start.d,
                             rtol=1e-9)
    assert flag == "complete" and len(pts) == 5
    assert len(calls) <= 10


def test_continuation_takes_converged_seed_solution(monkeypatch):
    """A converged seed solution at the first target is the first branch
    point: the branch equals, bit for bit, the one seeded with its d, with
    one shot and one verifier call fewer.  A seed solution that was not
    verified seeds with its d."""
    p = ProblemParams(7, 1, 0, -0.5)
    seed = newton_solve(p, [1.2e4], rtol=1e-9)
    grid = [-0.5, -0.25, -0.1]
    shots = _counting_shoot(monkeypatch)
    checks, real = [], solver.collocation_check

    def counting(*args):
        checks.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "collocation_check", counting)
    by_d, flag = continuation(p, grid, seed.d, rtol=1e-9)
    counts = len(shots), len(checks)
    by_sol, flag2 = continuation(p, grid, seed, rtol=1e-9)
    assert flag == flag2 == "complete" and len(by_sol) == len(by_d) == 3
    for a, b in zip(by_d, by_sol):
        for f in fields(BranchPoint):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))
    assert (len(shots) - counts[0], len(checks) - counts[1]) == (
        counts[0] - 1, counts[1] - 1)
    _, raw = shoot(p, seed.d)  # no collocation residual
    del shots[:], checks[:]
    continuation(p, grid[:1], raw, rtol=1e-9)
    assert (len(shots), len(checks)) == (1, 1)


def test_continuation_falls_back_from_failed_prediction(monkeypatch):
    """A Newton failure from the predicted guess retries from the previous
    d at the same mu."""
    p = ProblemParams(7, 1, 0, -0.5)
    start = newton_solve(p, [1.2e4], rtol=1e-9)
    bad = np.array([1.0])
    monkeypatch.setattr(solver, "_hermite_guess",
                        lambda accepted, mu: bad if len(accepted) == 2 else None)
    real = solver.newton_solve
    tried = []

    def refusing(params, d_init, **kwargs):
        tried.append((params.mu, d_init is bad))
        if d_init is bad:
            raise NewtonFailure("predicted guess refused")
        return real(params, d_init, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", refusing)
    grid = [-0.5, -0.25, -0.1]
    pts, flag = continuation(p, grid, start.d, rtol=1e-9)
    assert flag == "complete" and [b.mu_param for b in pts] == grid
    assert tried == [(-0.5, False), (-0.25, False), (-0.1, True), (-0.1, False)]


def test_square_integral_reads_the_state_component():
    """_square_integral(m) integrates y_m^2, y = (v_0, v_0', v_1, v_1'): for
    u = (1 - r^2)^4 on B^5, m = 0..3 give int u^2, |grad u|^2, (Delta u)^2
    and |grad Delta u|^2; m = 2 equals int |D^2 u|^2, as on any H^2_0 datum."""
    from numpy.polynomial import Polynomial as P

    from polybubble.quadrature import sphere_area

    n = 5
    u = P([1, 0, -1]) ** 4
    lap = u.deriv(2) + (n - 1) * P(u.deriv().coef[1:])  # u'' + (n-1) u'/r
    rr = np.linspace(1e-6, 1.0, 4001)
    v = np.array([u(rr), -lap(rr)])
    dv = np.array([u.deriv()(rr), -lap.deriv()(rr)])
    r_pow = P([0] * (n - 1) + [1])
    for m, y in enumerate((u, u.deriv(), lap, lap.deriv())):
        exact = sphere_area(n) * (y**2 * r_pow).integ()(1.0)
        got = solver._square_integral(n, rr, v, dv, m)
        assert got == pytest.approx(exact, rel=1e-5)
    hess_sq = u.deriv(2) ** 2 + (n - 1) * P(u.deriv().coef[1:]) ** 2
    assert solver._square_integral(n, rr, v, dv, 2) == pytest.approx(
        sphere_area(n) * (hess_sq * r_pow).integ()(1.0), rel=1e-5)


def _bubble_solution(params, scale):
    """An exact flat profile at the given scale as a RadialSolution whose
    tangent dd/dmu is 0, so the predictor repeats the previous d."""
    n, k = params.n, params.k
    rr = np.linspace(1e-6, 1.0, 400)
    vals = (scale / (scale**2 + bubble_constant(n, k) * rr**2)) ** (0.5 * (n - 2 * k))
    return RadialSolution(params, np.array([vals[0]]), rr, vals[None, :],
                          np.gradient(vals, rr)[None, :], np.array([0.0]),
                          float(vals.max()), collocation_residual=0.0,
                          jac=np.eye(1), dmu=np.zeros(1))


def test_continuation_solves_only_at_grid_points(monkeypatch):
    """Newton fails beyond mu* inside a grid interval and succeeds below
    it.  The target past mu* is tried from the prediction and from the
    previous d, at the grid value only, and the branch ends there as a
    fold."""
    mu_star = -0.2
    calls = []

    def stub(params, d_init, **kwargs):
        calls.append(params.mu)
        if params.mu > mu_star:
            raise NewtonFailure("beyond mu*")
        return _bubble_solution(params, 0.05)

    monkeypatch.setattr(solver, "newton_solve", stub)
    pts, flag = continuation(ProblemParams(7, 1, 0, -0.5), [-0.5, -0.1],
                             [1e3])
    assert flag == "fold" and [b.mu_param for b in pts] == [-0.5]
    assert calls == [-0.5, -0.1, -0.1]


def test_branch_matches_tight_newton():
    """The last default-grid branch point agrees with a Newton solve at
    rtol 1e-12 started from it.  The shooting map is flat there, so the
    shot's integration error in u(1) moves d far more than the collocation
    residual shows."""
    p = ProblemParams(7, 1, 0, -0.5)
    start = newton_solve(p, [1.2e4], rtol=1e-9)
    pts, flag = continuation(p, [-0.5, -0.25, -0.1, -0.05, -0.02], start.d,
                             rtol=1e-9)
    assert flag == "complete"
    last = pts[-1]
    tight = newton_solve(ProblemParams(7, 1, 0, last.mu_param), last.d,
                         rtol=1e-12)
    assert abs(last.d[0] - tight.d[0]) <= 1e-6 * abs(tight.d[0])


def test_hermite_guess_conditions():
    """Exact on power laws in |mu|, from one point (tangent step) and from
    two (cubic Hermite); None without accepted points, across a sign of mu,
    or unless each component of d is nonzero with one sign."""
    c, e = np.array([3.0, -0.5]), np.array([-2.5, 0.7])
    law = lambda mu: c * abs(mu) ** e
    point = lambda mu: (mu, law(mu), e * law(mu) / mu)  # dd/dmu of the law
    acc = [point(-0.5), point(-0.25)]
    for mu in (-0.1, -0.3, -0.02):
        np.testing.assert_allclose(solver._hermite_guess(acc, mu), law(mu),
                                   rtol=1e-12)
        np.testing.assert_allclose(solver._hermite_guess(acc[1:], mu),
                                   law(mu), rtol=1e-12)
    np.testing.assert_allclose(solver._hermite_guess([acc[0], acc[0]], -0.1),
                               law(-0.1), rtol=1e-12)
    assert solver._hermite_guess([], -0.1) is None
    assert solver._hermite_guess(acc, 0.1) is None
    assert solver._hermite_guess(acc, 0.0) is None
    assert solver._hermite_guess([point(0.5), acc[1]], -0.1) is None
    mu, d, t = acc[1]
    flipped = np.array([1.0, -1.0])
    assert solver._hermite_guess([acc[0], (mu, d * flipped, t)], -0.1) is None
    zero = np.array([1.0, 0.0])
    assert solver._hermite_guess([acc[0], (mu, d * zero, t)], -0.1) is None


def test_hermite_guess_uses_both_tangents():
    """Off a power law, the two-point prediction is the cubic Hermite
    polynomial in (log|mu|, log|d|), not the secant through the points."""
    x1, x2, x = np.log(0.5), np.log(0.25), np.log(0.1)
    y = lambda x: 2.0 + 0.3 * x + 0.1 * x**2 - 0.05 * x**3
    dy = lambda x: 0.3 + 0.2 * x - 0.15 * x**2
    point = lambda x: (-np.exp(x), np.array([np.exp(y(x))]),
                       np.array([dy(x) * np.exp(y(x)) / -np.exp(x)]))
    guess = solver._hermite_guess([point(x1), point(x2)], -np.exp(x))
    np.testing.assert_allclose(np.log(guess), [y(x)], rtol=1e-12)


def test_newton_failure_modes(monkeypatch):
    p = ProblemParams(7, 1, 0, -0.5)
    monkeypatch.setattr(solver, "_MAX_ITER", 2)
    with pytest.raises(NewtonFailure):
        newton_solve(p, [1.0], rtol=1e-12)
    # a tolerance below the integrator's floor is refused before any shot
    for rtol in (1e-30, 0.0, float("nan")):
        with pytest.raises(ValueError, match="rtol"):
            newton_solve(p, [1.2e4], rtol=rtol)


def test_newton_solve_refuses_mu_without_positive_solutions(monkeypatch):
    """No positive solution exists for mu >= 0 (Dirichlet Pohozaev identity;
    Pucci-Serrin at mu = 0 for k >= 2): such a mu, or one that is not
    finite, is refused before any shot, at both orders."""
    def no_shot(*args, **kwargs):
        raise AssertionError("shot taken")

    monkeypatch.setattr(solver, "shoot", no_shot)
    for n, k in ((7, 1), (9, 2)):
        for mu in (0.0, 0.5, float("nan"), float("-inf")):
            with pytest.raises(ValueError, match="finite mu < 0"):
                newton_solve(ProblemParams(n, k, 0, mu), [1.2e4] + [0.0] * (k - 1))


def test_fit_bubble_exact_synthetic():
    """Feeding an exact rescaled profile recovers mu exactly."""
    n, k = 7, 1
    mu = 0.02
    a = bubble_constant(n, k)
    rr = np.linspace(1e-6, 1.0, 400)
    vals = (mu / (mu**2 + a * rr**2)) ** (0.5 * (n - 2 * k))
    params = ProblemParams(n, k, 0, 0.0)
    sol = RadialSolution(params, np.array([vals[0]]), rr, vals[None, :],
                         np.gradient(vals, rr)[None, :], np.array([vals[-1]]),
                         float(vals.max()))
    mu_fit, resid = fit_bubble(sol)
    assert mu_fit == pytest.approx(mu, rel=1e-9)
    assert resid < 1e-9


def test_fit_bubble_perturbed():
    n, k = 7, 1
    mu = 0.02
    a = bubble_constant(n, k)
    rr = np.linspace(1e-6, 1.0, 400)
    vals = (mu / (mu**2 + a * rr**2)) ** (0.5 * (n - 2 * k))
    pert = vals * (1.0 + 1e-3 * np.cos(rr * 50))
    params = ProblemParams(n, k, 0, 0.0)
    sol = RadialSolution(params, np.array([pert[0]]), rr, pert[None, :],
                         np.gradient(pert, rr)[None, :], np.array([pert[-1]]),
                         float(pert.max()))
    _, resid = fit_bubble(sol)
    assert 1e-4 < resid < 1e-2


def test_fit_bubble_rejects_off_center_max():
    params = ProblemParams(7, 1, 0, 0.0)
    rr = np.linspace(1e-6, 1.0, 100)
    vals = rr.copy()  # max at the boundary
    sol = RadialSolution(params, np.array([0.0]), rr, vals[None, :],
                         np.ones((1, 100)), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        fit_bubble(sol)


def test_pohozaev_scaling_guards():
    with pytest.raises(ValueError):
        pohozaev_scaling([BranchPoint(0, 1, 1, 0.1, 0, 1.0)] * 3)
    flat = [BranchPoint(0, 1, 1, 0.1, 0, 1.0)] * 5
    with pytest.raises(ValueError):
        pohozaev_scaling(flat)  # constant branch: degenerate fit


@pytest.mark.parametrize("k,p,n", [(1, 0, 7), (2, 0, 9), (2, 1, 9), (4, 3, 12)])
def test_synthetic_branch_slopes(k, p, n):
    mus = [2e-3, 1e-3, 5e-4, 2e-4, 1e-4]
    br = synthetic_bubble_branch(n, k, p, mus)
    slope = pohozaev_scaling(br)
    assert abs(slope - 2 * (k - p)) < 0.05


def test_continuation_short_branch(monkeypatch):
    p = ProblemParams(7, 1, 0, -0.5)
    seed_sol = newton_solve(p, [1.2e4], rtol=1e-8)
    integrals, square_integral = [], solver._square_integral

    def spy(n, rr, v, dv, m):
        integrals.append((m, square_integral(n, rr, v, dv, m)))
        return integrals[-1][1]

    monkeypatch.setattr(solver, "_square_integral", spy)
    pts, flag = continuation(p, [-0.5, -0.25], seed_sol.d, rtol=1e-8)
    assert flag == "complete" and len(pts) == 2
    # each point's energy and lower-order integral: the state's y_k and y_p
    assert integrals == [(m, val) for b in pts for m, val in ((1, b.energy), (0, b.poho_term))]
    assert pts[1].sup_norm > pts[0].sup_norm
    lines = branch_csv(pts).splitlines()
    assert lines[0] == ("mu_param,sup_norm,energy,mu_fit,fit_residual,"
                        "poho_term,collocation_residual")
    assert len(lines) == 3
    assert all(b.collocation_residual < 1e-7 for b in pts)
    assert [float(line.split(",")[-1]) for line in lines[1:]] == [
        b.collocation_residual for b in pts]
    man = json.loads(run_manifest(p, [-0.5, -0.25], seed_sol.d, 1e-8, flag))
    assert "rtol" in man and "mu_grid" in man
    assert man["integrator"] == "dop853-adaptive"
    assert man["jacobian"] == "variational"
    assert man["verifier"] == "lsoda" and man["verifier_rtol"] == 1e-13
    assert man["taylor_start"] == {"radius": "0.3 |d_0|^(-2/(n-2k))",
                                   "tail": 1e-17, "verifier_radius": 1e-6}


def test_higher_order_shoot_runs():
    """k=2 system integrates and reconstructs both boundary derivatives."""
    p = ProblemParams(9, 2, 0, 0.0)
    mm, sol = shoot(p, [1.0, 0.5], rtol=1e-10)
    assert mm.shape == (2,)
    assert np.all(np.isfinite(mm))
    # boundary derivative reconstruction against dense-output differences
    du_fd = (sol.v[0][-1] - sol.v[0][-2]) / (sol.r[-1] - sol.r[-2])
    assert mm[1] == pytest.approx(du_fd, rel=5e-2)
