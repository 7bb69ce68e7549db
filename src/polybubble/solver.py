"""Radial shooting and continuation for the critical polyharmonic problem

    (-Delta)^k u + mu (-Delta)^p u = |u|^{2#-2} u   on the unit ball,
    Dirichlet data of order k on the boundary,

written as k coupled radial second-order equations for v_i = (-Delta)^i u:
-v_i'' - (n-1)/r v_i' = v_{i+1} (i < k-1), closing with the nonlinearity.
Each shot integrates the state with DOP853 (an in-module step loop,
bit-identical to scipy's) together with its first- and second-order
variational equations, so the same shot gives the exact
derivatives of the boundary mismatch in the shooting data (first and
second order) and in mu.  Newton takes the third-order Chebyshev step
from them, falling back to a halved Newton step; continuation predicts
each grid point by cubic Hermite interpolation in (log|mu|, log|d|)
through the last two points and their exact tangents dd/dmu.  Converged
solutions are checked against an independent re-integration by ODEPACK's
LSODA (variable-order Adams/BDF, compiled step loop), from the same series
at its own radius 1e-6, the grid's first point.

A shot starts from the even power series of the whole block at the
origin (one recursion in s = r^2, summed until in every column the last
term is below 1e-17 of the largest): for k = 1 at 0.3 mu_d, mu_d =
|d_0|^{-2/(n-2k)} the bubble scale, so the steps begin at the scale of the
solution however concentrated it is, and grid points below that radius
take their values from the series; for k >= 2 at most at 1e-6.

The classical lower-order-coefficient convention maps to mu = -lambda, so the
blow-up experiment runs mu upward toward 0 through negative values.

Only the positive radial ground-state branch is targeted: Newton never
steps u(0) across zero.
"""

from __future__ import annotations

import bisect
import json
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import DOP853, ODEintWarning, odeint
from scipy.optimize import brentq

from .quadrature import _OnRead, integrate_radial, sphere_area
from .radial import (bubble_constant, critical_exponent, laplacian,
                     make_bubble, radial_derivative)

__all__ = [
    "IntegrationBlowUp",
    "NewtonFailure",
    "ProblemParams",
    "RadialSolution",
    "BranchPoint",
    "shoot",
    "bubble_seed",
    "newton_solve",
    "continuation",
    "fit_bubble",
    "pohozaev_scaling",
    "synthetic_bubble_branch",
    "branch_csv",
    "run_manifest",
]

_EPS0 = 1e-6       # first grid point, and the verifier's start radius
_START_SCALE = 0.3  # a shot starts at this fraction of the bubble scale
_START_TAIL = 1e-17  # last start-series term, relative to its column's largest
_START_TERMS = 16   # start-series terms beyond which the start radius is halved
_BLOW_CAP = 1e9
_DENSE_POINTS = 400  # output grid of a shot on [_EPS0, 1]
_VERIFY_RTOL = 1e-13  # LSODA verifier tolerance, tighter than any shot
_VERIFY_MXSTEP = 5000  # LSODA step budget per output interval (default 500)
_MAX_RESIDUAL = 1e-7  # collocation residual a converged Newton state must beat
_MAX_DAMPING = 7     # Newton step halvings per iteration before NewtonFailure
_MAX_ITER = 50       # Newton iterations before newton_solve gives up
_MAX_COND = 1e14     # condition number above which a shooting Jacobian is singular
_RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy's DOP853 rtol floor, kept by shoot
_SEED_SCALE = 0.025  # bubble scale of the default seed, near mu_fit at mu = -1/2
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10  # DOP853 step control, as scipy's


class IntegrationBlowUp(RuntimeError):
    def __init__(self, radius):
        super().__init__(f"solution blew up at r = {radius:.6g}")
        self.radius = radius


class NewtonFailure(RuntimeError):
    """Newton did not reach a shooting state that passes the verifier."""


@dataclass
class ProblemParams:
    n: int
    k: int
    p: int
    mu: float  # lower-order coefficient; classical lambda corresponds to -mu

    def __post_init__(self):
        critical_exponent(self.n, self.k)
        if not 0 <= self.p <= self.k - 1:
            raise ValueError("need 0 <= p <= k-1")

    @property
    def two_sharp(self):
        return critical_exponent(self.n, self.k)


@dataclass
class RadialSolution:
    """A radial solution on its grid r.  A shot's solution holds a sampler
    of its grid values instead: v, dv, sup_norm and energy are filled
    together on the first read of any of them, and the sampler, with the
    shot's recorded steps, is dropped then.  A solution built from arrays
    holds them as given."""
    params: ProblemParams
    d: np.ndarray              # shooting data v_i(0)
    r: np.ndarray              # dense grid on [0, 1]
    v: np.ndarray = _OnRead("sample")  # (k, m) values of (-Delta)^i u
    dv: np.ndarray = _OnRead("sample")  # (k, m) radial derivatives
    mismatch: np.ndarray       # (u(1), u'(1), ..., u^{(k-1)}(1))
    sup_norm: float = _OnRead("sample")
    energy: float = _OnRead("sample")
    collocation_residual: float = float("nan")
    jac: np.ndarray | None = None  # (k, k) derivative of mismatch in d
    dmu: np.ndarray | None = None  # (k,) derivative of mismatch in mu
    hess: np.ndarray | None = None  # (k, k, k) second derivative in d
    sample: Callable | None = field(default=None, repr=False, compare=False)

    def _fill(self):
        """v, dv, sup_norm and energy from the sampled state (2k, m)."""
        Y, self.sample = self.sample(), None
        self.v, self.dv = Y[0::2], Y[1::2]
        self.sup_norm = float(np.max(np.abs(self.v[0])))
        self.energy = _square_integral(self.params.n, self.r, self.v, self.dv,
                                       self.params.k)


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

def _block_cols(k: int) -> int:
    """Columns of the full shot block: the state, k columns d/dd, one
    column d/dmu and k(k+1)/2 columns d^2/(dd_i dd_j), i <= j, in the order
    of np.triu_indices(k)."""
    return 2 + k + k * (k + 1) // 2


def _rhs(params: ProblemParams, cols: int):
    """Right-hand side on the flattened (2k, cols) block whose column 0 is
    the state y = (v_0, v_0', ..., v_{k-1}, v_{k-1}'), alone (cols = 1) or
    with the variational columns of _block_cols.  Every column obeys
    Y' = A(r, v_0) Y, with A the chain linearised at the state, plus a
    forcing in the last row: column 0 takes the nonlinearity
    N(v_0) = |v_0|^{2#-2} v_0 itself instead of its linearisation, the
    d/dmu column gets +v_p, and the (i, j) column -N''(v_0) S_i[v_0] S_j[v_0].

    Each closure keeps one matrix A, built with the constant entries of the
    chain; a call rewrites only the k entries A[2i+1, 2i+1] = -(n-1)/r and
    A[-1, 0] = mu [p = 0] - (2#-1) |v_0|^{2#-2}, the values that adding
    the 1/r part to the constant part gives entry by entry, and then takes
    A.dot(Y), the BLAS product of A @ Y without the ufunc dispatch.  So a
    closure is not reentrant: a call must return before the next starts.

    Its attribute rows is the same rhs on a stack of R rows: rows(r, Y)
    takes r (R,) and Y (R, 2k cols) and returns (R, 2k cols).  It sets
    those k + 1 entries per row in a stacked copy of A and takes one
    np.matmul, whose slices are the BLAS products that A.dot(Y) makes, so
    each row has the bits of the point rhs at that (r, y)."""
    n, k, p, mu = params.n, params.k, params.p, params.mu
    ts = params.two_sharp
    i = np.arange(k)
    pairs = list(enumerate(zip(*np.triu_indices(k)), start=k + 2))
    vp = 2 * p * cols  # flat index of v_p in the state column
    A = np.zeros((2 * k, 2 * k))
    A[2 * i, 2 * i + 1] = 1.0               # v_i' = dv_i
    A[2 * i[:-1] + 1, 2 * i[:-1] + 2] = -1.0  # dv_i' gets -v_{i+1}
    A[-1, 2 * p] += mu                      # dv_{k-1}' gets mu v_p
    a_base = float(A[-1, 0])
    flat = A.ravel()
    drag = flat[2 * k + 1::4 * k + 2]  # the entries (2i+1, 2i+1): dv_i' gets -(n-1)/r dv_i
    corner = flat.size - 2 * k  # the entry (-1, 0)
    last = (2 * k - 1) * cols  # flat index of the last row's state entry

    def rhs(r, y):
        v0 = float(y[0])
        try:
            a = abs(v0) ** (ts - 2.0)
        except OverflowError:
            raise IntegrationBlowUp(r) from None
        drag.fill(-(n - 1.0) * (1.0 / r))
        flat[corner] = a_base - (ts - 1.0) * a
        out = A.dot(y.reshape(2 * k, cols)).ravel()
        out[last] += (ts - 2.0) * a * v0
        if cols > 1:
            out[last + k + 1] += y[vp]
            if v0 != 0.0:
                S0 = y[1:k + 1].tolist()
                c = (ts - 1.0) * (ts - 2.0) * a / v0  # N''(v_0)
                for col, (i1, i2) in pairs:
                    out[last + col] -= c * S0[i1] * S0[i2]
        return out

    def rows(r, Y):
        Y = Y.reshape(len(r), 2 * k, cols)
        v0 = Y[:, 0, 0]
        a = np.empty(len(r))
        for j, v in enumerate(v0.tolist()):
            try:  # float pow per row: np.power may round differently
                a[j] = abs(v) ** (ts - 2.0)
            except OverflowError:
                raise IntegrationBlowUp(r[j]) from None
        As = np.repeat(A[None], len(r), axis=0)
        As[:, 2 * i + 1, 2 * i + 1] = (-(n - 1.0) * (1.0 / r))[:, None]
        As[:, -1, 0] = a_base - (ts - 1.0) * a
        out = np.matmul(As, Y)
        last = out[:, -1]
        last[:, 0] += (ts - 2.0) * a * v0
        if cols > 1:
            last[:, k + 1] += Y[:, 2 * p, 0]
            nz = v0 != 0.0
            S0, c = Y[nz, 0, 1:k + 1], (ts - 1.0) * (ts - 2.0) * a[nz] / v0[nz]
            for col, (i1, i2) in pairs:
                last[nz, col] -= c * S0[:, i1] * S0[:, i2]
        return out.reshape(len(r), -1)

    rhs.rows = rows
    return rhs


def _state_rhs(params: ProblemParams):
    """Right-hand side of the state y = (v_0, v_0', ..., v_{k-1}, v_{k-1}')
    alone, in plain float arithmetic, for the verifier: the chain
    v_i'' = -(n-1)/r v_i' - v_{i+1}, closed by
    v_{k-1}'' = -(n-1)/r v_{k-1}' + mu v_p - N(v_0), N(v_0) = |v_0|^{2#-2} v_0.
    It shares no code with the shots' block rhs _rhs."""
    n, k, p, mu = params.n, params.k, params.p, params.mu
    e = params.two_sharp - 2.0

    def rhs(r, y):
        y = y.tolist()
        c = -(n - 1.0) / r
        out = []
        for i in range(1, 2 * k - 1, 2):
            out += [y[i], c * y[i] - y[i + 1]]
        v0 = y[0]
        out += [y[-1], c * y[-1] + mu * y[2 * p] - abs(v0) ** e * v0]
        return out

    return rhs


@dataclass
class _Start:
    """The even series of the block at the origin, v_i = sum_j c_{i,j} s^j,
    s = r^2, stored as coef[j, i, col] = c_{i,j} scale^(2j+2i) / amp, so that
    coefficient j multiplies (r / scale)^(2j).  amp and scale are the powers
    of 2 just above |d_0| and the bubble scale mu_d = |d_0|^{-2/(n-2k)} (at
    most 1): the coefficients of a bubble stay of order one however large
    d_0 is, and the scaling is exact, so every coefficient has the bits of
    the unscaled recursion.  base holds the constant terms c_{i,0}: d and
    the identity in d."""
    coef: np.ndarray  # (terms, k, cols)
    base: np.ndarray  # (k, cols)
    amp: float
    scale: float
    eps: float  # the series holds to _START_TAIL for r <= eps
    r0: float   # the shots' start radius

    def __call__(self, r):
        """The block (2k, cols, len(r)) at the radii r <= eps, summed term
        by term in increasing order."""
        x = np.asarray(r, float) / self.scale
        j = np.arange(1, len(self.coef))[:, None, None, None]
        even = np.cumprod(np.broadcast_to(x * x, (len(j),) + x.shape), axis=0)
        odd = np.concatenate([x[None], x * even[:-1]])  # x^(2j-1)
        fac = self.amp * self.scale ** (-2.0 * np.arange(len(self.base)))[:, None, None]
        c = self.coef[1:, ..., None]
        terms = np.zeros((2, len(j) + 1) + self.base.shape + x.shape)
        terms[0, 0] = self.base[..., None]
        terms[0, 1:] = c * even[:, None, None] * fac
        terms[1, 1:] = (2 * j * c) * odd[:, None, None] * (fac / self.scale)
        v, dv = np.add.accumulate(terms, axis=1)[:, -1]  # in order of j
        Y = np.empty((2 * len(v),) + v.shape[1:])
        Y[0::2], Y[1::2] = v, dv
        return Y


@lru_cache(maxsize=None)
def _jet_product(k: int) -> np.ndarray:
    """The product of two jets over the block's columns (value, first
    derivatives in d and mu, second derivatives in d_i d_j) as a
    (cols^2, cols) matrix acting on the flattened outer product of their
    columns: (XY)_ij = X Y_ij + X_ij Y + X_i Y_j + X_j Y_i."""
    cols = _block_cols(k)
    M = np.zeros((cols, cols, cols))
    for c in range(cols):
        M[0, c, c] = M[c, 0, c] = 1.0
    M[0, 0, 0] = 1.0
    for c, (i, j) in enumerate(zip(*np.triu_indices(k)), start=k + 2):
        M[1 + i, 1 + j, c] += 1.0
        M[1 + j, 1 + i, c] += 1.0
    M.flags.writeable = False
    return M.reshape(cols * cols, cols)


def _taylor_start(params: ProblemParams, d) -> _Start:
    """The start series of the full (2k, _block_cols(k)) block at shooting
    data d, from one recursion in s = r^2.  -Delta s^j = -2j(2j+n-2) s^{j-1}
    gives c_{i,j} = -c_{i+1,j-1} / (2j(2j+n-2)) for i < k-1, and for the
    last component the s-coefficients of N(v_0) - mu v_p, N(v) =
    |v|^{2#-2} v, with those of N(v_0) from the power recurrence
    j a_0 b_j = sum_{i<=j} (2# i - j) a_i b_{j-i} (b = N(a)).  Every column
    obeys the same recursion: the products act on jets over the block's
    columns (value, the first derivatives in d and mu, the second
    derivatives in d_i d_j), so the recurrence carries the derivative
    columns with it, and the d/dmu column gets the forcing -v_p.

    The terms run, at most _START_TERMS of them, until in every column the
    last one is below _START_TAIL times the largest (for the state, about
    1e-17 |d_0|) at the radius _START_SCALE mu_d; while that fails, the
    radius is halved.  For the bubble (1 + a s/mu_d^2)^{-(n-2k)/2} term j
    is of size (a s/mu_d^2)^j, so at 0.3 mu_d this takes 9 to 15 terms for
    k = 1, n = 12 ... 3.  When d_0 = 0, N(v_0) = O(s^{2#-1}) has no power
    series and is left out: the state is then 0 for k = 1, and the k >= 2
    shots start at most at _EPS0, where N(v_0) is far below rounding.  A
    bubble scale below about 1e-150, where |d_0|^{2#-2} overflows, raises
    IntegrationBlowUp.

    k = 1 shots start at the series' radius.  For k >= 2 the data d_1, ...
    and mu set scales of their own, and the second-order columns of a
    stiff shot (mu = -3000) lose digits when the integration starts near
    mu_d, so those shots start at most at _EPS0."""
    n, k, p, mu = params.n, params.k, params.p, params.mu
    ts = params.two_sharp
    cols = _block_cols(k)
    d = np.asarray(d, float)
    d0 = float(d[0])
    mu_d = max(1.0, abs(d0)) ** (-2.0 / (n - 2 * k))
    amp = math.ldexp(1.0, math.frexp(abs(d0) or 1.0)[1])
    scale = math.ldexp(1.0, math.frexp(mu_d)[1])
    try:  # |d_0|^{2#-2} scale^{2k}, within a factor 4^k of 1 unless mu_d = 1
        g = abs(d0) ** (ts - 2.0) * scale ** (2 * k)
    except OverflowError:
        raise IntegrationBlowUp(0.0) from None
    prod = _jet_product(k)

    def mul(X, Y):
        """Product of jets over the columns, on the last axis."""
        return (X[..., :, None] * Y[..., None, :]).reshape(X.shape[:-1] + (-1,)) @ prod

    def tail(sig, j):
        """The largest ratio of a column's term j to its largest term, at
        (r / scale)^2 = sig."""
        terms = size[:j + 1] * (sig ** np.arange(j + 1))[:, None]
        big = terms.max(axis=0)
        return np.max(terms[j] / np.where(big > 0, big, 1.0))

    C = np.zeros((_START_TERMS + 1, k, cols))
    size = np.empty((_START_TERMS + 1, cols))  # max_i |c_{i,j}| per column
    C[0, :, 0] = d * scale ** (2.0 * np.arange(k)) / amp
    C[0, range(k), range(1, k + 1)] = scale ** (2.0 * np.arange(k)) / amp
    size[0] = np.abs(C[0]).max(axis=0)
    B = np.zeros((_START_TERMS + 1, cols))  # the s-coefficients of N(v_0)
    inv = np.zeros(cols)  # the jet 1 / c_{0,0}, left 0 (with B) when d_0 = 0
    if d0:
        x0, x1 = C[0, 0, 0], 1.0 / amp  # c_{0,0} and its derivative in d_0
        B[0, 0], inv[0] = g * x0, 1.0 / x0
        B[0, 1], inv[1] = (ts - 1.0) * g * x1, -x1 / x0**2
        B[0, k + 2] = (ts - 1.0) * (ts - 2.0) * g * x1**2 / x0
        inv[k + 2] = 2.0 * x1**2 / x0**3
    mu_hat = mu * scale ** (2 * (k - p))
    sig = (_START_SCALE * mu_d / scale) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, _START_TERMS + 1):
            f = B[j - 1] - mu_hat * C[j - 1, p]
            f[k + 1] -= scale ** (2 * (k - p)) * C[j - 1, p, 0]
            C[j, :-1], C[j, -1] = C[j - 1, 1:], f
            C[j] /= -2.0 * j * (2 * j + n - 2)
            size[j] = np.abs(C[j]).max(axis=0)
            if j >= 2 * k - 1 and tail(sig, j) < _START_TAIL:
                break  # every column has started (column (k-1, k-1) at j = 2k-1)
            w = ts * np.arange(1, j + 1) - j
            B[j] = mul(w @ mul(C[1:j + 1, 0], B[j - 1::-1]), inv) / j
        C = C[:j + 1]
        t = tail(sig, j)
        if not (np.all(np.isfinite(C)) and np.isfinite(t)):
            raise IntegrationBlowUp(_START_SCALE * mu_d)
        while t >= _START_TAIL:
            sig /= 4
            t = tail(sig, j)
    eps = scale * math.sqrt(sig)
    base = np.zeros((k, cols))
    base[:, 0] = d
    base[range(k), range(1, k + 1)] = 1.0
    return _Start(C, base, amp, scale, eps, eps if k == 1 else min(eps, _EPS0))


@dataclass
class _Run:
    t: float          # where the integration stopped
    y: np.ndarray     # the full state there, None after the event
    status: int       # 0 reached t_bound, 1 crossed the cap, -1 step too small
    steps: list       # ends of the accepted steps
    nfev: int         # rhs calls of the step loop
    record: list      # (t_old, h, y_old, y, K_ext, points) of each accepted step
                      # that holds t_eval points, for _sample to stack


def _dense_rows(rows_rhs, record, stride):
    """The Dop853 dense output of the recorded steps (t_old, h, y_old, y,
    K_ext, points), each from (t_old, y_old) to (t_old + h, y) with its
    stages in the first n_stages + 1 rows of K_ext, all steps at once: each
    of the 3 extra stages is one stacked product over the steps and one
    call of rows_rhs (the rows form of _rhs) on a row per step.  Returns
    the rows of the interpolants on y[::stride], (powers, steps,
    components) highest power first, and the arrays t_old, h and y_old."""
    M = DOP853
    t_old, h = np.array([step[:2] for step in record]).T
    y_old, y, K = (np.stack([step[i] for step in record]) for i in (2, 3, 4))
    hc = h[:, None]
    for s, (a, c) in enumerate(zip(M.A_EXTRA, M.C_EXTRA), start=M.n_stages + 1):
        dy = np.matmul(K[:, :s].transpose(0, 2, 1), a[:s])  # as dot(K[:s].T, a)
        dy *= hc
        dy += y_old
        K[:, s] = rows_rhs(t_old + c * h, dy)
    F = np.empty((len(M.D) + 3,) + y.shape)
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = hc * K[:, 0] - delta_y
    F[2] = 2 * delta_y - hc * (K[:, M.n_stages] + K[:, 0])
    F[3:] = (h[:, None, None] * np.matmul(M.D, K)).transpose(1, 0, 2)
    return F[::-1, :, ::stride], t_old, h, y_old


def _horner(F, base, x):
    """The Dop853 interpolant with rows F (highest power first, on the
    first axis) and value base at the step start, at the step fractions x,
    in the elementwise order of scipy's Dop853DenseOutput."""
    x = x[..., None]
    out = np.zeros(np.broadcast_shapes(x.shape, base.shape))
    factors = (x, 1 - x)
    for i, row in enumerate(F):
        out += row
        out *= factors[i % 2]
    return out + base


def _sample(rows_rhs, record, t_eval, stride):
    """y[::stride] at t_eval, (components, points), from the recorded
    steps (t_old, h, y_old, y, K_ext, points), each holding the next
    points of t_eval: the dense output of all steps together
    (_dense_rows), then one Horner evaluation over all points."""
    F, t_old, h, y_old = _dense_rows(rows_rhs, record, stride)
    at = np.repeat(np.arange(len(record)), [m for *_, m in record])
    return _horner(F[:, at], y_old[at, ::stride], (t_eval - t_old[at]) / h[at]).T


def solve_ivp(fun, t_span, y0, rtol: float, atol, t_eval, cap: float,
              stride: int) -> _Run:
    """DOP853 (Hairer-Norsett-Wanner, Solving ODEs I, II.10) with the
    tableau of scipy.integrate.DOP853, doing the arithmetic of
    scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
    atol=atol, t_eval=t_eval, events=g) in the same order, with g(t, y) =
    max|y[::stride]| - cap a terminal event of direction +1: the same
    initial step, stages, E5/E3 error norm, step control, dense output and
    brentq root, so every value is bit-identical to scipy's.  It leaves out
    scipy's per-call wrappers, interpolant objects and event bookkeeping.
    The loop only integrates and records each accepted step that holds a
    t_eval point: _sample computes the grid's dense output from that record
    after the loop, all steps at once with the rows form of the rhs, and the
    loop, with the same builder _dense_rows on one step and fun, only on the
    step that crosses the cap, for the event's root.  t_span must be
    increasing and t_eval nonempty and increasing within it; only the
    components y[::stride] are output.
    fun gets its stage states in one reused buffer, so it must not keep
    its argument y.  The step control runs in Python floats, and the
    squared norms of E5 and E3 are sqrt(err.dot(err)) ** 2, which is what
    np.linalg.norm(err) ** 2 computes for a 1-D float array."""
    M = DOP853
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, float)
    n_stages, dim = M.n_stages, y.size
    K_ext = np.empty((len(M.C) + len(M.C_EXTRA) + 1, dim))
    K = K_ext[:n_stages + 1]
    stages = [(s, K[:s].T, a[:s], c) for s, (a, c) in
              enumerate(zip(M.A[1:], M.C[1:].tolist()), start=1)]
    KB, KT, B, E5, E3 = K[:-1].T, K.T, M.B, M.E5, M.E3
    exponent = -1 / (M.error_estimator_order + 1)
    eps = np.finfo(float).eps

    # select_initial_step, direction +1, max_step inf
    f = fun(t, y)
    length = abs(t_bound - t)
    absy = np.abs(y)
    scale = atol + absy * rtol
    d0 = np.linalg.norm(y / scale) / dim ** 0.5
    d1 = np.linalg.norm(f / scale) / dim ** 0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    f1 = fun(t + h0, y + h0 * f)
    d2 = np.linalg.norm((f1 - f) / scale) / dim ** 0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (M.error_estimator_order + 1))
    h_abs = float(min(100 * h0, h1, length))
    nfev = 2

    t_eval = np.asarray(t_eval, float)
    points = t_eval.tolist()
    buf = np.empty(dim)
    record, steps, i_eval, status = [], [], 0, None
    while status is None:
        # one accepted step of RungeKutta._step_impl, in Python floats
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return _Run(t, y, -1, steps, nfev, record)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, KTs, a, c in stages:
                KTs.dot(a, buf)  # buf = y + dot(K[:s].T, a) * h
                buf *= h
                buf += y
                K[s] = fun(t + c * h, buf)
            y_new = y + h * KB.dot(B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            nfev += n_stages
            abs_new = np.abs(y_new)
            scale = atol + np.maximum(absy, abs_new) * rtol
            err5 = KT.dot(E5) / scale
            err3 = KT.dot(E3) / scale
            e5 = math.sqrt(err5.dot(err5)) ** 2
            e3 = math.sqrt(err3.dot(err3)) ** 2
            if e5 == 0 and e3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * dim)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** exponent))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** exponent)
            rejected = True
        t_old, y_old, t, y, f, absy = t, y, t_new, y_new, f_new, abs_new
        steps.append(t)
        if t == t_bound:
            status = 0
        if absy[::stride].max() >= cap:
            F = _dense_rows(lambda r, Y: fun(r[0], Y[0])[None],
                            [(t_old, h, y_old, y, K_ext)], stride)[0][:, 0]
            nfev += len(M.A_EXTRA)
            base = y_old[::stride]

            def excess(s):
                return abs(_horner(F, base, np.asarray((s - t_old) / h))).max() - cap

            t = brentq(excess, t_old, t, xtol=4 * eps, rtol=4 * eps)
            return _Run(t, None, 1, steps, nfev, record)
        i_new = bisect.bisect_right(points, t)
        if i_new > i_eval:
            record.append((t_old, h, y_old, y, K_ext.copy(), i_new - i_eval))
            i_eval = i_new
    return _Run(t, y, 0, steps, nfev, record)


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


def shoot(params: ProblemParams, d, rtol: float = 1e-10):
    """Integrate the radial system and its first- and second-order
    variational equations (DOP853) from the Taylor start, at its radius
    eps, to r = 1.

    Returns (mismatch, RadialSolution); the solution's jac, dmu and hess are
    the exact derivatives of the mismatch in d, in mu and twice in d.  Its
    grid values are dense output computed after the step loop, only for a
    solution whose grid is read; grid points at or below eps come from the
    start series.  Raises IntegrationBlowUp with the escape radius: the root
    of the terminal event max|state| = cap, the last radius reached when the
    step size underflows, or where a float overflows.  The variational
    columns get atol = inf and the state's rtol and atol are scaled by
    1/sqrt(cols), which cancels the RMS error norm over all components: the
    steps are those of the state alone.  rtol is clamped to _RTOL_FLOOR.
    """
    d = np.asarray(d, float)
    if d.shape != (params.k,):
        raise ValueError(f"shooting data needs {params.k} values")
    if not np.all(np.isfinite(d)):
        raise ValueError("shooting data must be finite")
    rr = np.linspace(_EPS0, 1.0, _DENSE_POINTS)
    start = _taylor_start(params, d)
    eps = start.r0
    with np.errstate(over="ignore", invalid="ignore"):
        Y0 = start([eps])[..., 0]
    if not np.all(np.isfinite(Y0)):
        raise IntegrationBlowUp(eps)
    inside = np.searchsorted(rr, eps, side="right")
    cols = Y0.shape[1]
    cap = max(_BLOW_CAP, 1e6 * np.max(np.abs(Y0[:, 0])))
    scale = cols ** -0.5
    atol = np.full_like(Y0, np.inf)
    atol[:, 0] = scale * rtol * max(1.0, np.max(np.abs(d)))
    fun = _rhs(params, cols)
    run = solve_ivp(fun, (eps, 1.0), Y0.ravel(), max(scale * rtol, _RTOL_FLOOR),
                    atol.ravel(), rr[inside:], cap, cols)
    if run.status != 0:
        raise IntegrationBlowUp(run.t)

    def sample():
        return np.hstack([start(rr[:inside])[:, 0],
                          _sample(fun.rows, run.record, rr[inside:], cols)])

    B = _boundary_derivatives(params, run.y.reshape(Y0.shape))
    k = params.k
    mismatch, jac, dmu = B[:, 0], B[:, 1:k + 1], B[:, k + 1]
    I, J = np.triu_indices(k)
    hess = np.empty((k, k, k))
    hess[:, I, J] = hess[:, J, I] = B[:, k + 2:]
    return mismatch, RadialSolution(params, d, rr, None, None, mismatch, None,
                                    None, jac=jac, dmu=dmu, hess=hess,
                                    sample=sample)


def _square_integral(n: int, rr, v, dv, m: int) -> float:
    """omega_{n-1} int y_m^2 r^{n-1} dr by the trapezoid on the shot grid
    rr, where y = (v_0, v_0', v_1, v_1', ...) is the state: y_m is
    (-Delta)^{m/2} u, or its gradient for odd m, so m = k gives the energy
    int |(-Delta)^{k/2} u|^2 and m = p the lower-order term int |D^p u|^2
    (equal on H^p_0 by integration by parts)."""
    y = (dv if m % 2 else v)[m // 2]
    return sphere_area(n) * float(np.trapezoid(y ** 2 * rr ** (n - 1), rr))


def collocation_check(params: ProblemParams, solution: RadialSolution) -> float:
    """Relative sup difference of u against an independent LSODA
    re-integration (scipy odeint, rtol _VERIFY_RTOL) of the same shooting
    data, output directly on the solution's grid; inf when LSODA does not
    report success, a float overflows or its output is not finite, as when
    the re-integration blows up before r = 1.  It starts from the start
    series at its own radius _EPS0, the grid's first point (at half the
    shots' radius when that is smaller), so it shares no start state with
    the shots.  LSODA may take _VERIFY_MXSTEP steps per grid cell, which a
    bubble core narrower than a cell needs.  It integrates the state alone
    with the plain-float rhs _state_rhs, so it shares neither integrator nor
    rhs code with the shots it checks."""
    try:
        start = _taylor_start(params, solution.d)
    except IntegrationBlowUp:
        return float("inf")
    r0 = min(_EPS0, 0.5 * start.r0)
    t = solution.r if r0 == solution.r[0] else np.concatenate([[r0], solution.r])
    atol = _VERIFY_RTOL * max(1.0, float(np.max(np.abs(solution.d))))
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", ODEintWarning)
        try:
            Y, info = odeint(_state_rhs(params), start([r0])[:, 0, 0], t,
                             rtol=_VERIFY_RTOL, atol=atol, tfirst=True,
                             full_output=True, mxstep=_VERIFY_MXSTEP)
        except OverflowError:
            return float("inf")
    if info["message"] != "Integration successful." or not np.all(np.isfinite(Y)):
        return float("inf")
    diff = np.abs(Y[-len(solution.r):, 0] - solution.v[0])
    return float(np.max(diff) / max(solution.sup_norm, 1e-300))


# ---------------------------------------------------------------------------
# Newton and continuation
# ---------------------------------------------------------------------------

def bubble_seed(n: int, k: int) -> list[float]:
    """Default shooting data: the center value _SEED_SCALE^{-(n-2k)/2} of
    the flat profile at scale _SEED_SCALE, then zeros.  For k = 1 the
    ground state at mu = -1/2 has mu_fit between 0.014 (n = 5) and 0.026
    (n = 9), so Newton starts within a factor of about 2.5 of it.  Raises
    ValueError when that value overflows (n - 2k above about 380)."""
    try:
        return [_SEED_SCALE ** (-0.5 * (n - 2 * k))] + [0.0] * (k - 1)
    except OverflowError:
        raise ValueError(f"no finite default seed for n - 2k = {n - 2 * k}") from None


def newton_solve(params: ProblemParams, d_init, rtol: float = 1e-9) -> RadialSolution:
    """Newton on the shooting map with the exact first and second
    derivatives that each shot carries from its variational equations.

    Each iteration first shoots the Chebyshev step s - J^{-1} F''[s, s] / 2,
    s = -J^{-1} F, and takes it when it reduces |F|; otherwise it halves the
    Newton step s until |F| drops, at most _MAX_DAMPING times before it
    raises NewtonFailure.  Returns the RadialSolution of the last accepted
    shot, with its collocation residual filled in, or raises NewtonFailure
    after _MAX_ITER iterations (read at each call) or when that residual
    is not below _MAX_RESIDUAL (as near
    u = 0, where the absolute mismatch test passes).  A step that would
    move u(0) across zero is not shot, so the solve stays on the sign of
    its start.  rtol must be finite and at least _RTOL_FLOOR, below which
    the shots' tolerance is clamped and the mismatch test could never
    pass; params.mu must pass _check_mu."""
    if not (math.isfinite(rtol) and rtol >= _RTOL_FLOOR):
        raise ValueError(f"rtol = {rtol:g} must be finite and >= {_RTOL_FLOOR:.3g}")
    _check_mu(params.mu)
    d = np.asarray(d_init, float).copy()

    def shot(dd):
        return shoot(params, dd, rtol=min(1e-10, rtol))

    def improve(dd, base):
        """The shot at dd when it keeps the sign of u(0), reaches r = 1 and
        has a mismatch below base; else None."""
        if d[0] * dd[0] < 0 or not np.all(np.isfinite(dd)):
            return None  # no shot
        try:
            F_new, sol_new = shot(dd)
        except IntegrationBlowUp:
            return None
        return (F_new, sol_new) if np.linalg.norm(F_new) < base else None

    F, sol = shot(d)
    for _ in range(_MAX_ITER):
        base = np.linalg.norm(F)
        if base < rtol:
            sol.collocation_residual = collocation_check(params, sol)
            res = sol.collocation_residual
            if not res < _MAX_RESIDUAL:
                raise NewtonFailure("converged state fails the verifier: "
                                    f"collocation residual {res:.3g}")
            return sol
        J = sol.jac
        if _singular(J):
            raise NewtonFailure("singular shooting Jacobian")
        step = np.linalg.solve(J, -F)
        curv = np.einsum("mij,i,j->m", sol.hess, step, step)
        found = improve(d + step - 0.5 * np.linalg.solve(J, curv), base)
        lam = 1.0
        while found is None and lam >= 0.5 ** _MAX_DAMPING:
            found = improve(d + lam * step, base)
            lam *= 0.5
        if found is None:
            raise NewtonFailure("damping failed to reduce the mismatch")
        F, sol = found
        d = sol.d
    raise NewtonFailure(f"no convergence in {_MAX_ITER} iterations")


def _check_mu(mu: float) -> None:
    """ValueError unless mu is finite and < 0: by the Dirichlet Pohozaev
    identity no positive solution exists for mu >= 0 (for k >= 2 at mu = 0,
    by Pucci-Serrin 1986)."""
    if not (math.isfinite(mu) and mu < 0):
        raise ValueError(f"need a finite mu < 0 (no positive solution otherwise), got {mu:g}")


def _singular(J) -> bool:
    """Whether the shooting Jacobian J is singular to working precision:
    its condition number is not finite or above _MAX_COND."""
    cond = np.linalg.cond(J)
    return not np.isfinite(cond) or cond > _MAX_COND


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


def _hermite_guess(accepted, mu):
    """Predict d at mu from the last one or two accepted (mu_i, d_i, t_i),
    t_i = dd/dmu, in x = log|mu|, y = log|d|, where the tangents are
    dy/dx = t_i mu_i / d_i: the cubic Hermite polynomial through both
    points and their tangents, or the tangent line of a single point.
    Exact on power laws in |mu|.  None unless every mu shares one sign and
    each component of d is nonzero with one sign at every point."""
    if not accepted:
        return None
    mus = [m for m, _, _ in accepted]
    ds = np.array([dd for _, dd, _ in accepted])
    if not all(m * mu > 0 for m in mus) or not np.all(ds * ds[-1] > 0):
        return None
    x = math.log(abs(mu))
    xs = [math.log(abs(m)) for m in mus]
    ys = np.log(np.abs(ds))
    ms = [t * m / dd for m, dd, t in accepted]
    if len(accepted) == 1 or xs[0] == xs[1]:
        y = ys[-1] + ms[-1] * (x - xs[-1])
    else:
        h = xs[1] - xs[0]
        s = (x - xs[0]) / h
        y = ((2 * s**3 - 3 * s**2 + 1) * ys[0] + (s**3 - 2 * s**2 + s) * h * ms[0]
             + (3 * s**2 - 2 * s**3) * ys[1] + (s**3 - s**2) * h * ms[1])
    guess = np.sign(ds[-1]) * np.exp(y)
    return guess if np.all(np.isfinite(guess)) else None


def continuation(params: ProblemParams, mu_grid, d_seed, rtol: float = 1e-9):
    """Natural-parameter continuation along the mu grid, one solve per point.

    Each target starts Newton from the Hermite prediction of _hermite_guess
    through the last two accepted points and their exact tangents
    dd/dmu = -J^{-1} dF/dmu, taken from each point's own last shot, then
    from the previous d.  Newton runs only at mu values of the grid.
    Returns (branch points, flag) where flag is "complete", or "fold" when
    both starts fail at a target or a solved point's Jacobian is singular
    (as newton_solve judges it), so that dd/dmu does not exist there: the
    branch ends at the last point solved.

    d_seed is shooting data or a converged RadialSolution.  A solution at
    the first target (same n, k, p and mu) with a mismatch below rtol and a
    collocation residual below _MAX_RESIDUAL is taken as the first point
    without another solve; any other solution seeds with its d.
    """
    points = []
    seed = None
    if isinstance(d_seed, RadialSolution):
        seed, d_seed = d_seed, d_seed.d
        sp = seed.params
        if not (len(mu_grid) and (sp.n, sp.k, sp.p, sp.mu)
                == (params.n, params.k, params.p, mu_grid[0])
                and np.linalg.norm(seed.mismatch) < rtol
                and seed.collocation_residual < _MAX_RESIDUAL):
            seed = None
    d = np.asarray(d_seed, float)
    accepted = []  # last two accepted (mu, d, dd/dmu)
    for mu_target in mu_grid:
        pars = ProblemParams(params.n, params.k, params.p, mu_target)
        guess = _hermite_guess(accepted, mu_target)
        sol, seed = seed, None  # a reused seed solution needs no solve
        starts = [d] if guess is None else [guess, d]
        for start in starts if sol is None else []:
            try:
                sol = newton_solve(pars, start, rtol=rtol)
                break
            except (NewtonFailure, IntegrationBlowUp):
                pass
        if sol is None:
            return points, "fold"
        mu_fit, resid = fit_bubble(sol)
        poho = _square_integral(pars.n, sol.r, sol.v, sol.dv, pars.p)
        d = sol.d.copy()
        points.append(BranchPoint(mu_target, sol.sup_norm, sol.energy, mu_fit,
                                  resid, poho, d, sol.collocation_residual))
        if _singular(sol.jac):
            return points, "fold"  # no tangent dd/dmu: the branch turns here
        tangent = np.linalg.solve(sol.jac, -sol.dmu)
        accepted = accepted[-1:] + [(mu_target, d, tangent)]
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
    tests: poho_term is the integral over the unit ball of y_p^2, the
    solver's integrand ((-Delta)^{p/2} U)^2 for even p and
    (d/dr (-Delta)^{(p-1)/2} U)^2 for odd p, built exactly from the profile
    by radial.laplacian and radial_derivative.  It is computed by
    quadrature.integrate_radial in the scaled variable t = r/mu, so that the
    peak is exactly resolved for arbitrarily small scales."""
    a = bubble_constant(n, k)
    y = make_bubble(n, k)
    for _ in range(p // 2):
        y = laplacian(y)
    if p % 2:
        y = radial_derivative(y)
    out = []
    for mu in mus:
        amp = mu ** (-0.5 * (n - 2 * k))
        val = integrate_radial(lambda t: y(t, a) ** 2, 1.0 / mu, n).value
        poho = mu ** (2 * (k - p)) * val
        out.append(BranchPoint(float("nan"), amp, float("nan"), mu, 0.0, poho))
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def branch_csv(points: list[BranchPoint]) -> str:
    """The branch points as the text of a CSV table."""
    import csv
    import io

    fh = io.StringIO()
    w = csv.writer(fh)
    w.writerow(["mu_param", "sup_norm", "energy", "mu_fit",
                "fit_residual", "poho_term", "collocation_residual"])
    w.writerows([b.mu_param, b.sup_norm, b.energy, b.mu_fit, b.fit_residual,
                 b.poho_term, b.collocation_residual] for b in points)
    return fh.getvalue()


def run_manifest(params: ProblemParams, mu_grid, d_seed, rtol, flag) -> str:
    d = {"n": params.n, "k": params.k, "p": params.p,
         "mu_grid": list(map(float, mu_grid)),
         "d_seed": list(map(float, np.atleast_1d(d_seed))),
         "rtol": rtol,
         "taylor_start": {"radius": f"{_START_SCALE} |d_0|^(-2/(n-2k))",
                          "tail": _START_TAIL, "verifier_radius": _EPS0},
         "blow_cap": _BLOW_CAP,
         "integrator": "dop853-adaptive", "jacobian": "variational",
         "verifier": "lsoda",
         "verifier_rtol": _VERIFY_RTOL,
         "newton": {"max_iter": _MAX_ITER, "step": "chebyshev",
                    "damping": "halving", "predictor": "hermite-tangent"},
         "flag": flag}
    return json.dumps(d, indent=2)
