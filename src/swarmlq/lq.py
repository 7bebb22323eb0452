"""Scalar finite-horizon LQ tracking in closed form.

Each tracking problem minimizes ``int (r - d)**2 + alpha**2 u**2`` over
``[0, T]`` subject to ``rdot = u``.  Its optimum solves ``alpha**2 r'' =
r - d``, ``r(0) = r0``, ``r'(T) = 0`` (Anderson & Moore, 1990), which for a
piecewise-linear reference is one tridiagonal solve per family.  The
optimal control ``u = -(p r + y) / alpha**2`` splits into a feedback part
driven by the Riccati solution

    p(t) = alpha * tanh((T - t) / alpha)

and an anti-causal feedforward ``y``: the reference integrated backwards
against ``cosh((T - tau)/alpha) / cosh((T - t)/alpha)`` with exact per-step
integrals, written with nonpositive exponents only.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

_LOG_SPACE_ARG = 350.0  # switch cosh/sinh ratios to log space beyond this


@dataclass(frozen=True)
class LQParams:
    """Tradeoff weight, horizon and time-grid size.

    ``alpha`` carries units of time: ``1/alpha`` is the cutoff frequency of
    the tracking filter in the long-horizon limit.
    """

    alpha: float
    T: float
    nt: int = 1000

    def __post_init__(self):
        if not (self.alpha > 0 and self.T > 0 and self.nt >= 2):
            raise ValueError("need alpha > 0, T > 0, nt >= 2")

    @property
    def t_grid(self):
        return np.linspace(0.0, self.T, self.nt + 1)


def _log_cosh(x):
    x = np.abs(x)
    return x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)


def _log_sinh(x):
    # valid for x > 0
    return x + np.log1p(-np.exp(-2.0 * x)) - np.log(2.0)


def _cosh_ratio(num, den):
    """cosh(num) / cosh(den), safe for large arguments.

    Log space is chosen per element, so a batched call returns the same
    bits as one call per element.
    """
    num = np.asarray(num, float)
    den = np.asarray(den, float)
    big = (np.abs(num) > _LOG_SPACE_ARG) | (np.abs(den) > _LOG_SPACE_ARG)
    if not np.any(big):
        return np.cosh(num) / np.cosh(den)
    # t < tau may saturate to inf, by design; the overflowing direct ratio
    # of a big element is discarded
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(big, np.exp(_log_cosh(num) - _log_cosh(den)),
                        np.cosh(num) / np.cosh(den))[()]


def _sinh_over_cosh(num, den):
    """sinh(num) / cosh(den) for num >= 0, safe for large arguments; see ``_cosh_ratio``."""
    num = np.asarray(num, float)
    den = np.asarray(den, float)
    big = (np.abs(num) > _LOG_SPACE_ARG) | (np.abs(den) > _LOG_SPACE_ARG)
    if not np.any(big):
        return np.sinh(num) / np.cosh(den)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logged = np.exp(_log_sinh(np.maximum(num, 1e-300)) - _log_cosh(den))
        return np.where(big, np.where(num > 0, logged, 0.0), np.sinh(num) / np.cosh(den))[()]


def riccati(params):
    """Closed-form Riccati solution as a callable of time."""
    a, T = params.alpha, params.T

    def p(t):
        return a * np.tanh((T - np.asarray(t, float)) / a)

    return p


def transition_r(params, t, tau):
    """State transition factor of the optimal closed loop, in (0, 1] for t >= tau."""
    a, T = params.alpha, params.T
    return _cosh_ratio((T - np.asarray(t, float)) / a, (T - np.asarray(tau, float)) / a)


def transition_y(params, t, tau):
    """Transition factor of the feedforward system: reciprocal of ``transition_r``."""
    return 1.0 / transition_r(params, t, tau)


def _sample_signal(d, t):
    if callable(d):
        return np.asarray(d(t), float)
    d = np.asarray(d, float)
    if d.shape[-1] == len(t):
        return d
    raise ValueError(f"signal has {d.shape[-1]} samples, grid has {len(t)}")


def _step_kernel_integrals(params, t):
    """Per-step quantities for the backward feedforward recursion.

    For each step ``[t_k, t_k+dt]`` returns ``(phi, I0, I1)`` with
    ``phi = phi_y(t_k, t_k+dt) <= 1``,
    ``I0 = int phi_y(t_k, tau) dtau`` and
    ``I1 = int (tau - t_k) phi_y(t_k, tau) dtau`` over the step, all exact.
    Exponents are nonpositive (step ``h = dt/alpha``, ``F = exp(-2 (T -
    t_k+1)/alpha)``), so no two large arguments are subtracted.
    """
    a = params.alpha
    h = np.diff(t) / a
    E = np.exp(-h)
    F = np.exp(-2.0 * (params.T - t[1:]) / a)
    D = 1.0 + F * E * E                  # 2 exp(-s_k) cosh(s_k)
    em = -np.expm1(-h)
    phi = E * (1.0 + F) / D
    I0 = a * em * (1.0 + E * F) / D
    I1 = a * a * ((em - h * E) + F * E * (h - em)) / D
    return phi, I0, I1


def feedforward(params, d):
    """Anti-causal feedforward: backward sweep against the closed-form kernel.

    ``d`` may be a callable of time or samples on the grid; samples are
    treated as a piecewise-linear signal, for which the sweep is exact.
    Supports batched signals with shape ``(..., nt + 1)``.
    """
    t = params.t_grid
    d = _sample_signal(d, t)
    phi, I0, I1 = _step_kernel_integrals(params, t)
    dt = np.diff(t)
    y = np.zeros_like(d)
    slope = np.diff(d, axis=-1) / dt
    for k in range(len(t) - 2, -1, -1):
        y[..., k] = phi[k] * y[..., k + 1] - (d[..., k] * I0[k] + slope[..., k] * I1[k])
    return y


@dataclass
class ScalarLQSolution:
    """Optimal trajectories of one (or a batch of) scalar tracking problems.

    All arrays share the trailing time axis; ``cost`` is the exact objective
    of the piecewise-linear reference through the grid samples.
    """

    t: np.ndarray
    p: np.ndarray
    y: np.ndarray
    r: np.ndarray
    u: np.ndarray
    d: np.ndarray
    cost: float | np.ndarray


def solve_scalar(params, r0, d):
    """Solve one scalar tracking problem; see :func:`solve_family` for batches."""
    if not callable(d):
        d = np.atleast_2d(np.asarray(d, float))
    sol = solve_family(params, np.atleast_1d(np.asarray(r0, float)), d)
    squeeze = lambda a: a[0] if a.ndim > 1 else a
    return ScalarLQSolution(sol.t, sol.p, squeeze(sol.y), squeeze(sol.r),
                            squeeze(sol.u), squeeze(sol.d), float(np.atleast_1d(sol.cost)[0]))


def solve_family(params, r0, d):
    """Solve a batch of scalar tracking problems sharing one Riccati solution.

    ``r0`` has shape (B,), ``d`` is a callable of time returning (B, len(t))
    or an array (B, nt + 1) of samples, taken as a piecewise-linear signal.
    On each step ``e = r - d`` is hyperbolic, so continuity of ``r'`` gives
    one tridiagonal system for ``e`` shared by the family; one refinement
    step, its residual in differences of ``e``, undoes the rounding of the
    diagonal ``2 coth(dt/alpha)`` at small ``dt/alpha``.  Nothing is
    discretised; the cost is summed per step in a form that does not cancel.
    """
    a, n = params.alpha, params.nt
    h = params.T / n
    x = h / a
    csch = 2.0 * np.exp(-x) / -np.expm1(-2.0 * x)
    th = np.tanh(x / 2.0)  # coth - csch
    t = params.t_grid
    d = _sample_signal(d, t)
    s = np.diff(d, axis=-1) / h

    # rows 1..n of the symmetric system in e[1..n]: diagonal 2 coth (coth in
    # row n), off-diagonals -csch
    ab = np.empty((2, n))
    ab[0] = 2.0 / np.tanh(x)
    ab[0, -1] /= 2.0
    ab[1] = -csch
    b = a * np.diff(s, axis=-1, append=0.0)
    w = np.append(np.full(n - 1, 2.0 * th), th)

    def correction(e):
        # b minus the system applied to e, as csch (second difference) + w e
        g = np.diff(e, axis=-1, append=e[..., -1:])
        res = b - csch * (g[..., :-1] - g[..., 1:]) - w * e[..., 1:]
        return solveh_banded(ab, res.T, lower=True).T

    e = np.zeros_like(d)
    e[..., 0] = np.asarray(r0, float) - d[..., 0]
    e[..., 1:] = correction(e)
    c = correction(e)
    g = np.diff(e, axis=-1) + np.diff(c, axis=-1, prepend=0.0)
    e[..., 1:] += c

    r = d + e
    r[..., 0] = r0
    u = np.zeros_like(d)
    u[..., :-1] = (csch * g - th * e[..., :-1]) / a + s
    ek, ek1 = e[..., :-1], e[..., 1:]
    cost = np.sum(a * (g ** 2 * csch + th * (ek ** 2 + ek1 ** 2))
                  + a * a * s * (2.0 * g + s * h), axis=-1)
    return ScalarLQSolution(t, riccati(params)(t), feedforward(params, d), r, u, d, cost)


def static_cost(params, r0, d_const):
    """Optimal cost for a constant reference: ``(r0 - d)**2 alpha tanh(T/alpha)``."""
    a, T = params.alpha, params.T
    return (np.asarray(r0, float) - d_const) ** 2 * a * np.tanh(T / a)
