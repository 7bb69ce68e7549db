"""Radial shooting and continuation for the critical polyharmonic problem

    (-Delta)^k u + mu (-Delta)^p u = |u|^{2#-2} u   on the unit ball,
    Dirichlet data of order k on the boundary,

written as k coupled radial second-order equations for v_i = (-Delta)^i u:
-v_i'' - (n-1)/r v_i' = v_{i+1} (i < k-1), closing with the nonlinearity.
Each shot integrates the state with DOP853 together with its variational
equation, so Newton gets the exact shooting Jacobian from the same shot;
converged solutions are checked against an independent re-integration by
ODEPACK's LSODA (variable-order Adams/BDF, compiled step loop).
The classical lower-order-coefficient convention maps to mu = -lambda, so the
blow-up experiment runs mu upward toward 0 through negative values.

Only the positive radial ground-state branch is targeted: Newton never
steps u(0) across zero.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ODEintWarning, odeint, solve_ivp

from .quadrature import sphere_area
from .radial import bubble_constant, critical_exponent, make_bubble

__all__ = [
    "IntegrationBlowUp",
    "NewtonFailure",
    "ProblemParams",
    "RadialSolution",
    "BranchPoint",
    "shoot",
    "newton_solve",
    "continuation",
    "fit_bubble",
    "pohozaev_scaling",
    "synthetic_bubble_branch",
    "branch_csv",
    "run_manifest",
]

_EPS0 = 1e-6       # Taylor start radius, removes the (n-1)/r singularity
_BLOW_CAP = 1e9
_DENSE_POINTS = 400  # output grid of a shot on [_EPS0, 1]
_VERIFY_RTOL = 1e-13  # LSODA verifier tolerance, tighter than any shot
_MAX_RESIDUAL = 1e-7  # collocation residual a converged Newton state must beat
_MAX_HALVINGS = 6    # continuation step halvings before declaring a fold
_RTOL_FLOOR = 100 * np.finfo(float).eps  # solve_ivp clamps smaller rtol to this


class IntegrationBlowUp(RuntimeError):
    def __init__(self, radius):
        super().__init__(f"solution blew up at r = {radius:.6g}")
        self.radius = radius


class NewtonFailure(RuntimeError):
    def __init__(self, msg, condition=None):
        super().__init__(msg)
        self.condition = condition


@dataclass
class ProblemParams:
    n: int
    k: int
    p: int
    mu: float  # lower-order coefficient; classical lambda corresponds to -mu

    def __post_init__(self):
        if not 0 <= self.p <= self.k - 1:
            raise ValueError("need 0 <= p <= k-1")
        if self.n <= 2 * self.k:
            raise ValueError("need n > 2k")

    @property
    def two_sharp(self):
        return critical_exponent(self.n, self.k)


@dataclass
class RadialSolution:
    params: ProblemParams
    d: np.ndarray              # shooting data v_i(0)
    r: np.ndarray              # dense grid on [0, 1]
    v: np.ndarray              # (k, m) values of (-Delta)^i u
    dv: np.ndarray             # (k, m) radial derivatives
    mismatch: np.ndarray       # (u(1), u'(1), ..., u^{(k-1)}(1))
    sup_norm: float
    energy: float
    collocation_residual: float = float("nan")
    jac: np.ndarray | None = None  # (k, k) derivative of mismatch in d

    def u(self, r):
        return np.interp(r, self.r, self.v[0])

    def du(self, r):
        return np.interp(r, self.r, self.dv[0])


@dataclass
class BranchPoint:
    mu_param: float
    sup_norm: float
    energy: float
    mu_fit: float
    fit_residual: float
    poho_term: float
    d: np.ndarray | None = None
    collocation_residual: float = float("nan")


# ---------------------------------------------------------------------------
# Shooting
# ---------------------------------------------------------------------------

def _rhs(params: ProblemParams, cols: int):
    """Right-hand side on the flattened (2k, cols) block whose column 0 is
    the state y = (v_0, v_0', ..., v_{k-1}, v_{k-1}') and whose columns
    1..k, when present, are S = dy/dd: Y' = A(r, v_0) Y, with A the chain
    linearised at the state, except that column 0 takes the nonlinearity
    |v_0|^{2#-2} v_0 itself instead of its linearisation."""
    n, k, p, mu = params.n, params.k, params.p, params.mu
    ts = params.two_sharp
    i = np.arange(k)
    A0 = np.zeros((2 * k, 2 * k))
    A0[2 * i, 2 * i + 1] = 1.0               # v_i' = dv_i
    A0[2 * i[:-1] + 1, 2 * i[:-1] + 2] = -1.0  # dv_i' gets -v_{i+1}
    A0[-1, 2 * p] += mu                      # dv_{k-1}' gets mu v_p
    A1 = np.zeros((2 * k, 2 * k))
    A1[2 * i + 1, 2 * i + 1] = -(n - 1.0)    # dv_i' gets -(n-1)/r dv_i

    def rhs(r, y):
        v0 = y[0]
        a = abs(v0) ** (ts - 2.0)
        A = A1 * (1.0 / r)
        A += A0
        A[-1, 0] -= (ts - 1.0) * a
        out = A @ y.reshape(2 * k, cols)
        out[-1, 0] += (ts - 2.0) * a * v0
        return out.ravel()

    return rhs


def _taylor_start(params: ProblemParams, d, eps):
    """4-term even Taylor expansion at the origin fixing y(eps), as a
    (2k, 1+k) block: column 0 is y(eps), columns 1..k its closed-form
    derivatives in d.  The coefficients c2, c4 are linear in
    w = (d, N(d_0, d_p)) and in F2, so each row carries its derivative."""
    n, k, p, mu = params.n, params.k, params.p, params.mu
    ts = params.two_sharp
    a = abs(d[0]) ** (ts - 2.0)
    W = np.zeros((k + 1, 1 + k))
    W[:k, 0] = d
    W[:k, 1:] = np.eye(k)
    W[k, 0] = a * d[0] - mu * d[p]
    W[k, 1 + p] -= mu
    W[k, 1] += (ts - 1.0) * a
    C2 = -W[1:] / (2.0 * n)
    F2 = (ts - 1.0) * a * C2[0] - mu * C2[p]
    if d[0] != 0.0:
        F2[1] += (ts - 1.0) * (ts - 2.0) * a / d[0] * C2[0, 0]
    C4 = -np.vstack([C2[1:], F2]) / (4.0 * (n + 2))
    Y = np.empty((2 * k, 1 + k))
    Y[0::2] = W[:k] + C2 * eps**2 + C4 * eps**4
    Y[1::2] = 2 * C2 * eps + 4 * C4 * eps**3
    return Y


def _boundary_derivatives(params: ProblemParams, y_end):
    """(u(1), u'(1), ..., u^{(k-1)}(1)) reconstructed from the v_i chain.

    Uses v_i'' = -(n-1)/r v_i' - v_{i+1} and its r-derivatives at r = 1;
    reconstruction of u^{(m)} for m <= k-1 never reaches the nonlinear level,
    so the map is linear and acts column by column on a (2k, cols) block.
    """
    n, k = params.n, params.k
    D = {(i, j): y_end[2 * i + j] for i in range(k) for j in (0, 1)}

    def get(i, j):
        if (i, j) in D:
            return D[(i, j)]
        if i >= k:
            raise ValueError("reconstruction hit the nonlinear level")
        m = j - 2
        tot = 0.0
        for mm in range(m + 1):
            tot += (math.comb(m, mm) * (-1.0) ** mm * math.factorial(mm)
                    * get(i, j - 1 - mm))
        val = -(n - 1) * tot - get(i + 1, m)
        D[(i, j)] = val
        return val

    return np.array([get(0, m) for m in range(k)])


def _integrate(params: ProblemParams, d, rtol: float, grid,
               variational: bool = False):
    """Integrate the radial system from the Taylor start at shooting data d
    to r = 1 with DOP853, with the variational columns when asked.

    Returns (block at r = 1, state sampled on grid from the dense output);
    raises IntegrationBlowUp with the escape radius when r = 1 is not
    reached.  The variational columns get atol = inf, so only the state
    enters step control; the state's rtol and atol are scaled by
    1/sqrt(cols) to cancel scipy's RMS over all components, which keeps the
    steps those of the state alone.
    """
    Y0 = _taylor_start(params, d, _EPS0)
    if not variational:
        Y0 = Y0[:, :1]
    cols = Y0.shape[1]
    cap = max(_BLOW_CAP, 1e6 * np.max(np.abs(Y0[:, 0])))

    def blow(r, y):
        return np.max(np.abs(y[::cols])) - cap

    blow.terminal = True
    blow.direction = 1
    scale = cols ** -0.5
    atol = np.full_like(Y0, np.inf)
    atol[:, 0] = scale * rtol * max(1.0, np.max(np.abs(d)))
    sol = solve_ivp(_rhs(params, cols), (_EPS0, 1.0), Y0.ravel(), method="DOP853",
                    rtol=max(scale * rtol, _RTOL_FLOOR), atol=atol.ravel(),
                    dense_output=True, events=blow)
    if sol.status == 1 or sol.t[-1] < 1.0 - 1e-12:
        raise IntegrationBlowUp(sol.t[-1])
    return sol.y[:, -1].reshape(Y0.shape), sol.sol(grid)[::cols]


def shoot(params: ProblemParams, d, rtol: float = 1e-10):
    """Integrate the radial system and its variational equation (DOP853)
    from the Taylor start to r = 1.

    Returns (mismatch, RadialSolution); the solution's jac is the exact
    Jacobian of the mismatch in d.  Raises IntegrationBlowUp with the
    blow-up radius when the solution escapes before reaching the boundary.
    """
    d = np.asarray(d, float)
    if d.shape != (params.k,):
        raise ValueError(f"shooting data needs {params.k} values")
    if not np.all(np.isfinite(d)):
        raise ValueError("shooting data must be finite")
    rr = np.linspace(_EPS0, 1.0, _DENSE_POINTS)
    Y_end, Y = _integrate(params, d, rtol, rr, variational=True)
    v = Y[0::2]
    dv = Y[1::2]
    B = _boundary_derivatives(params, Y_end)
    mismatch, jac = B[:, 0], B[:, 1:]
    n, k = params.n, params.k
    sup = float(np.max(np.abs(v[0])))
    # energy int |(-Delta)^{k/2} u|^2: middle Laplacian iterate (even k) or
    # the gradient of one (odd k)
    if k % 2 == 0:
        integrand = v[k // 2] ** 2
    else:
        integrand = dv[(k - 1) // 2] ** 2
    energy = sphere_area(n) * float(np.trapezoid(integrand * rr ** (n - 1), rr))
    return mismatch, RadialSolution(params, d, rr, v, dv, mismatch, sup, energy,
                                    jac=jac)


def collocation_check(params: ProblemParams, solution: RadialSolution) -> float:
    """Relative sup difference of u against an independent LSODA
    re-integration (scipy odeint, rtol _VERIFY_RTOL) of the same shooting
    data, output directly on the solution's grid, which starts at the Taylor
    start radius; inf when LSODA does not report success or its output is
    not finite, as when the re-integration blows up before r = 1."""
    y0 = _taylor_start(params, solution.d, _EPS0)[:, 0]
    atol = _VERIFY_RTOL * max(1.0, float(np.max(np.abs(solution.d))))
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", ODEintWarning)
        Y, info = odeint(_rhs(params, 1), y0, solution.r, rtol=_VERIFY_RTOL,
                         atol=atol, tfirst=True, full_output=True)
    if info["message"] != "Integration successful." or not np.all(np.isfinite(Y)):
        return float("inf")
    diff = np.abs(Y[:, 0] - solution.v[0])
    return float(np.max(diff) / max(solution.sup_norm, 1e-300))


# ---------------------------------------------------------------------------
# Newton and continuation
# ---------------------------------------------------------------------------

def newton_solve(params: ProblemParams, d_init, rtol: float = 1e-9,
                 max_iter: int = 50) -> RadialSolution:
    """Damped Newton on the shooting map, with the exact Jacobian that each
    shot carries from its variational equation: one shot per iteration.

    Returns the RadialSolution of the last accepted shot, with its
    collocation residual filled in, or raises NewtonFailure when that
    residual is not below _MAX_RESIDUAL (as near u = 0, where the absolute
    mismatch test passes).  A step that would move u(0) across
    zero is halved before it is shot, so the solve stays on the sign of
    its start.  rtol must be finite and at least
    _RTOL_FLOOR, below which scipy clamps the shots' tolerance and the
    mismatch test could never pass."""
    if not (math.isfinite(rtol) and rtol >= _RTOL_FLOOR):
        raise ValueError(f"rtol = {rtol:g} must be finite and >= {_RTOL_FLOOR:.3g}")
    d = np.asarray(d_init, float).copy()

    def shot(dd):
        return shoot(params, dd, rtol=min(1e-10, rtol))

    F, sol = shot(d)
    for _ in range(max_iter):
        if np.linalg.norm(F) < rtol:
            sol.collocation_residual = collocation_check(params, sol)
            res = sol.collocation_residual
            if not res < _MAX_RESIDUAL:
                raise NewtonFailure("converged state fails the verifier: "
                                    f"collocation residual {res:.3g}")
            return sol
        J = sol.jac
        cond = np.linalg.cond(J)
        if not np.isfinite(cond) or cond > 1e14:
            raise NewtonFailure("singular shooting Jacobian", condition=cond)
        step = np.linalg.solve(J, -F)
        lam = 1.0
        base = np.linalg.norm(F)
        while lam > 1e-8:
            if d[0] * (d[0] + lam * step[0]) < 0:
                lam *= 0.5  # keep the sign of u(0): no shot
                continue
            try:
                F_new, sol_new = shot(d + lam * step)
            except IntegrationBlowUp:
                lam *= 0.5
                continue
            if np.linalg.norm(F_new) < base:
                d = d + lam * step
                F, sol = F_new, sol_new
                break
            lam *= 0.5
        else:
            raise NewtonFailure("damping failed to reduce the mismatch")
    raise NewtonFailure(f"no convergence in {max_iter} iterations")


def fit_bubble(solution: RadialSolution) -> tuple[float, float]:
    """Fit the flat-profile scale from the center value:
    mu_fit = u(0)^{-2/(n-2k)}; residual is the relative sup deviation from
    the rescaled profile on r <= 10 mu_fit."""
    params = solution.params
    n, k = params.n, params.k
    u0 = solution.v[0][0]
    if u0 <= 0 or u0 < solution.sup_norm * (1 - 1e-8):
        raise ValueError("bubble fit needs the max at the center")
    mu_fit = u0 ** (-2.0 / (n - 2 * k))
    a = bubble_constant(n, k)
    mask = solution.r <= min(1.0, 10.0 * mu_fit)
    rr = solution.r[mask]
    model = (mu_fit / (mu_fit**2 + a * rr**2)) ** (0.5 * (n - 2 * k))
    resid = float(np.max(np.abs(solution.v[0][mask] - model)) / u0)
    return mu_fit, resid


def _grad_p_square_integral(params: ProblemParams, solution: RadialSolution) -> float:
    """int_ball |grad^p u|^2 from the radial profile (p <= 2)."""
    n, p = params.n, params.p
    rr = solution.r
    u = solution.v[0]
    du = solution.dv[0]
    if p == 0:
        integrand = u**2
    elif p == 1:
        integrand = du**2
    else:
        d2u = np.gradient(du, rr)
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = d2u**2 + (n - 1) * np.where(rr > 0, du / rr, 0.0) ** 2
    return sphere_area(n) * float(np.trapezoid(integrand * rr ** (n - 1), rr))


def _secant_guess(accepted, mu):
    """Log-log secant predictor d2 (d2/d1)^t, t = log(mu/mu2)/log(mu2/mu1),
    through the last two accepted (mu, d); None unless mu1, mu2, mu share a
    sign, mu1 != mu2, and each component of d1, d2 is nonzero with one sign."""
    if len(accepted) < 2:
        return None
    (mu1, d1), (mu2, d2) = accepted
    if mu1 == mu2 or not (mu1 * mu2 > 0 and mu2 * mu > 0):
        return None
    if not np.all(np.sign(d1) * np.sign(d2) > 0):
        return None
    t = math.log(mu / mu2) / math.log(mu2 / mu1)
    guess = d2 * (d2 / d1) ** t
    return guess if np.all(np.isfinite(guess)) else None


def continuation(params: ProblemParams, mu_grid, d_seed, rtol: float = 1e-9):
    """Natural-parameter continuation along the mu grid with step halving.

    Each grid point starts Newton from the log-log secant prediction when
    two points are accepted, then from the previous d; a halving retry
    starts from the previous d only.  Returns (branch points, flag) where
    flag is "complete" or "fold" when the branch was lost despite halving.
    """
    mu_grid = list(mu_grid)
    points = []
    d = np.asarray(d_seed, float)
    accepted = []  # last two accepted (mu, d)
    pending = list(mu_grid)
    halvings = 0
    while pending:
        mu_target = pending[0]
        pars = ProblemParams(params.n, params.k, params.p, mu_target)
        guess = None if halvings else _secant_guess(accepted, mu_target)
        sol = None
        for start in ([d] if guess is None else [guess, d]):
            try:
                sol = newton_solve(pars, start, rtol=rtol)
                break
            except (NewtonFailure, IntegrationBlowUp):
                pass
        if sol is None:
            if not accepted or halvings >= _MAX_HALVINGS:
                return points, "fold"
            pending.insert(0, 0.5 * (accepted[-1][0] + mu_target))
            halvings += 1
            continue
        mu_fit, resid = fit_bubble(sol)
        poho = _grad_p_square_integral(pars, sol)
        if mu_target in mu_grid:
            points.append(BranchPoint(mu_target, sol.sup_norm, sol.energy,
                                      mu_fit, resid, poho, sol.d.copy(),
                                      sol.collocation_residual))
        d = sol.d.copy()
        accepted = accepted[-1:] + [(mu_target, d)]
        pending.pop(0)
        halvings = 0
    return points, "complete"


def pohozaev_scaling(branch: list[BranchPoint]) -> float:
    """Fitted exponent of the lower-order integral against the bubble scale:
    log poho_term vs log mu_fit slope (expect 2(k-p))."""
    if len(branch) < 4:
        raise ValueError("need at least 4 branch points")
    mus = np.array([b.mu_fit for b in branch])
    vals = np.array([b.poho_term for b in branch])
    if np.any(np.diff(mus) >= 0):
        order = np.argsort(-mus)
        mus, vals = mus[order], vals[order]
    if np.any(vals <= 0) or mus[0] <= mus[-1]:
        raise ValueError("degenerate branch: cannot fit a scaling exponent")
    return float(np.polyfit(np.log(mus), np.log(vals), 1)[0])


def synthetic_bubble_branch(n: int, k: int, p: int, mus) -> list[BranchPoint]:
    """Branch of exact rescaled flat profiles (no PDE solve), for scaling
    tests: poho_term is the p-gradient square integral over the unit ball,
    computed by adaptive quadrature in the scaled variable t = r/mu so that
    the peak is exactly resolved for arbitrarily small scales."""
    from scipy.integrate import quad

    from .fields import RationalProfile

    a = bubble_constant(n, k)
    prof = RationalProfile(make_bubble(n, k), a)
    out = []
    for mu in mus:
        amp = mu ** (-0.5 * (n - 2 * k))

        def integrand(t):
            if p == 0:
                G = prof.d(0, t) ** 2
            elif p == 1:
                G = prof.d(1, t) ** 2
            else:
                g1 = prof.d(1, t)
                G = prof.d(2, t) ** 2 + (n - 1) * (g1 / t if t > 0 else 0.0) ** 2
            return G * t ** (n - 1)

        val, _ = quad(integrand, 0.0, 1.0 / mu, epsabs=1e-300, epsrel=1e-11,
                      limit=400)
        poho = sphere_area(n) * mu ** (2 * (k - p)) * val
        out.append(BranchPoint(float("nan"), amp, float("nan"), mu, 0.0, poho))
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def branch_csv(points: list[BranchPoint], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mu_param", "sup_norm", "energy", "mu_fit",
                    "fit_residual", "poho_term", "collocation_residual"])
        for b in points:
            w.writerow([b.mu_param, b.sup_norm, b.energy, b.mu_fit,
                        b.fit_residual, b.poho_term, b.collocation_residual])


def run_manifest(params: ProblemParams, mu_grid, d_seed, rtol, extra=None) -> str:
    d = {"n": params.n, "k": params.k, "p": params.p,
         "mu_grid": list(map(float, mu_grid)),
         "d_seed": list(map(float, np.atleast_1d(d_seed))),
         "rtol": rtol, "taylor_start": _EPS0, "blow_cap": _BLOW_CAP,
         "integrator": "dop853-adaptive", "jacobian": "variational",
         "verifier": "lsoda",
         "verifier_rtol": _VERIFY_RTOL,
         "newton": {"max_iter": 50, "damping": "halving"}}
    if extra:
        d.update(extra)
    return json.dumps(d, indent=2)
