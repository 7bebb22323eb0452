"""Scalar finite-horizon LQ tracking with closed-form feedback terms.

Each tracking problem minimizes ``int (r - d)**2 + alpha**2 u**2`` over
``[0, T]`` subject to ``rdot = u``.  The optimal control splits into a
feedback part driven by the Riccati solution

    p(t) = alpha * tanh((T - t) / alpha)

and an anti-causal feedforward ``y`` obtained by integrating the reference
backwards against the kernel ``cosh((T - tau)/alpha) / cosh((T - t)/alpha)``.
The feedforward recursion uses exact per-step integrals of that kernel, so
it introduces no quadrature error for piecewise-linear references; cosh
ratios are evaluated in log space once arguments grow large.
"""

from dataclasses import dataclass

import numpy as np

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
    """
    a = params.alpha
    s = (params.T - t) / a           # decreasing, s[-1] may be 0
    sk, sk1 = s[:-1], s[1:]
    h = sk - sk1
    mid = 0.5 * (sk + sk1)
    phi = _cosh_ratio(sk1, sk)
    # sinh(sk) - sinh(sk1) = 2 cosh(mid) sinh(h/2)
    I0 = a * 2.0 * np.sinh(h / 2.0) * _cosh_ratio(mid, sk)
    # cosh(sk) - cosh(sk1) - h*sinh(sk1), rewritten to avoid cancellation
    term = (2.0 * np.sinh(h / 2.0) - h * np.cosh(h / 2.0)) * _sinh_over_cosh(mid, sk) \
        + h * np.sinh(h / 2.0) * _cosh_ratio(mid, sk)
    I1 = a * a * term
    return phi, I0, I1


def feedforward(params, d, t=None):
    """Anti-causal feedforward: backward sweep against the closed-form kernel.

    ``d`` may be a callable of time or samples on the grid; samples are
    treated as a piecewise-linear signal, for which the sweep is exact.
    Supports batched signals with shape ``(..., nt + 1)``.
    """
    if t is None:
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

    All arrays share the trailing time axis; ``cost`` is the realized
    objective by trapezoid quadrature on the same grid.
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
    or an array (B, nt + 1) of samples.  The state is integrated by RK4 at
    half steps (feedforward resolved on a quarter grid) and the cost by
    composite Simpson on the half grid, so both carry O(dt**4) error and the
    decomposed cost can be compared against closed forms at tight tolerance.
    """
    a2 = params.alpha ** 2
    t = params.t_grid
    nt = params.nt
    t_quarter = np.linspace(0.0, params.T, 4 * nt + 1)
    if callable(d):
        d_quarter = np.asarray(d(t_quarter), float)
    else:
        d_coarse = _sample_signal(d, t)
        d_quarter = np.empty(d_coarse.shape[:-1] + (4 * nt + 1,))
        d_quarter[..., ::4] = d_coarse
        for j, w in ((1, 0.25), (2, 0.5), (3, 0.75)):
            d_quarter[..., j::4] = (1 - w) * d_coarse[..., :-1] + w * d_coarse[..., 1:]
    p_q = riccati(params)(t_quarter)
    y_q = feedforward(params, d_quarter, t=t_quarter)

    r0 = np.asarray(r0, float)
    r_half = np.empty(r0.shape + (2 * nt + 1,))
    r_half[..., 0] = r0
    h = params.T / (2 * nt)

    def f(pk, yk, rk):
        return -(pk * rk + yk) / a2

    for k in range(2 * nt):
        p0, pm, p1 = p_q[2 * k], p_q[2 * k + 1], p_q[2 * k + 2]
        y0, ym, y1 = y_q[..., 2 * k], y_q[..., 2 * k + 1], y_q[..., 2 * k + 2]
        rk = r_half[..., k]
        k1 = f(p0, y0, rk)
        k2 = f(pm, ym, rk + 0.5 * h * k1)
        k3 = f(pm, ym, rk + 0.5 * h * k2)
        k4 = f(p1, y1, rk + h * k3)
        r_half[..., k + 1] = rk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    p_half = p_q[::2]
    y_half = y_q[..., ::2]
    d_half = d_quarter[..., ::2]
    u_half = -(p_half * r_half + y_half) / a2
    integrand = (r_half - d_half) ** 2 + a2 * u_half ** 2
    dt = params.T / nt
    cost = (dt / 6.0) * np.sum(integrand[..., 0:-1:2] + 4.0 * integrand[..., 1::2]
                               + integrand[..., 2::2], axis=-1)
    return ScalarLQSolution(t, p_half[::2], y_half[..., ::2], r_half[..., ::2],
                            u_half[..., ::2], d_half[..., ::2], cost)


def static_cost(params, r0, d_const):
    """Optimal cost for a constant reference: ``(r0 - d)**2 alpha tanh(T/alpha)``."""
    a, T = params.alpha, params.T
    return (np.asarray(r0, float) - d_const) ** 2 * a * np.tanh(T / a)
