import numpy as np
import pytest

from swarmlq import lq
from swarmlq import oracle

GRID = [(a, T) for a in (0.1, 1.0, 10.0) for T in (0.1, 1.0, 10.0)]


def backward_rk4_riccati(alpha, T, grid_nt, substeps=None):
    """Independent fixed-step RK4 sweep of the feedback ODE, run backwards.

    Substeps are scaled a priori with the stiffness T-to-alpha ratio so the
    integrator resolves the terminal transient to below the comparison
    tolerance; outputs land on the shared nt-point grid either way.
    """
    if substeps is None:
        substeps = max(1, int(np.ceil(40.0 * (T / grid_nt) / alpha)))
    dt = -T / (grid_nt * substeps)
    f = lambda p: p * p / alpha ** 2 - 1.0
    ps = np.empty(grid_nt + 1)
    ps[-1] = 0.0
    p = 0.0
    for k in range(grid_nt, 0, -1):
        for _ in range(substeps):
            k1 = f(p)
            k2 = f(p + 0.5 * dt * k1)
            k3 = f(p + 0.5 * dt * k2)
            k4 = f(p + dt * k3)
            p = p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ps[k - 1] = p
    return ps


def test_riccati_boundary_and_value():
    params = lq.LQParams(2.0, 10.0, 1000)
    p = lq.riccati(params)
    assert p(10.0) == 0.0
    assert p(0.0) == pytest.approx(2.0 * np.tanh(5.0), abs=1e-14)


def test_riccati_ode_residual():
    # closed form satisfies pdot = p^2/alpha^2 - 1 with the analytic derivative
    for alpha, T in GRID:
        t = np.linspace(0, T, 201)
        s = (T - t) / alpha
        pdot = -1.0 / np.cosh(s) ** 2
        p = alpha * np.tanh(s)
        residual = pdot - (p ** 2 / alpha ** 2 - 1.0)
        assert np.max(np.abs(residual)) <= 1e-10


@pytest.mark.parametrize("alpha,T", GRID)
def test_riccati_matches_backward_rk4(alpha, T):
    params = lq.LQParams(alpha, T, 1000)
    exact = lq.riccati(params)(params.t_grid)
    num = backward_rk4_riccati(alpha, T, 1000)
    assert np.max(np.abs(exact - num)) <= 1e-8


def test_riccati_long_horizon_limit():
    # infinite-horizon feedback: p -> alpha away from the terminal time
    params = lq.LQParams(0.5, 100.0, 100)
    p = lq.riccati(params)
    assert p(0.0) == pytest.approx(0.5, abs=1e-15)
    assert p(50.0) == pytest.approx(0.5, abs=1e-15)


def test_transition_identities():
    params = lq.LQParams(2.0, 10.0, 100)
    assert lq.transition_r(params, 3.3, 3.3) == 1.0
    assert lq.transition_r(params, 10.0, 0.0) == pytest.approx(1.0 / np.cosh(5.0), rel=1e-14)
    lhs = lq.transition_r(params, 7.0, 3.0) * lq.transition_r(params, 3.0, 1.0)
    assert lhs == pytest.approx(lq.transition_r(params, 7.0, 1.0), rel=1e-13)
    assert lq.transition_y(params, 7.0, 2.0) == pytest.approx(
        1.0 / lq.transition_r(params, 7.0, 2.0), rel=1e-13)
    # forward RK4 of the closed-loop factor ODE: phidot = -(p/alpha^2) phi
    t = np.linspace(0, 10.0, 1001)
    phi = np.empty(1001)
    phi[0] = 1.0
    dt = 0.01
    p = lq.riccati(params)
    f = lambda ph, tt: -(p(tt) / 4.0) * ph
    for k in range(1000):
        t0 = t[k]
        k1 = f(phi[k], t0)
        k2 = f(phi[k] + 0.5 * dt * k1, t0 + 0.5 * dt)
        k3 = f(phi[k] + 0.5 * dt * k2, t0 + 0.5 * dt)
        k4 = f(phi[k] + dt * k3, t0 + dt)
        phi[k + 1] = phi[k] + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(phi - lq.transition_r(params, t, 0.0))) <= 1e-8


def test_transition_no_overflow_for_extreme_ratio():
    # T / alpha = 5000: naive cosh ratios overflow, log-space must not
    params = lq.LQParams(0.01, 50.0, 100)
    val = lq.transition_r(params, 50.0, 0.0)
    assert np.isfinite(val)
    assert 0.0 <= val <= 1e-100
    assert np.isfinite(lq.transition_y(params, 0.0, 50.0))


def test_feedforward_zero_signal():
    params = lq.LQParams(1.5, 6.0, 500)
    y = lq.feedforward(params, np.zeros(501))
    assert np.all(y == 0.0)


def test_feedforward_static_closed_form():
    # constant reference c gives y(t) = -p(t) c, exactly for the sweep
    params = lq.LQParams(2.0, 10.0, 1000)
    t = params.t_grid
    y = lq.feedforward(params, np.full(1001, 3.0))
    assert np.max(np.abs(y + lq.riccati(params)(t) * 3.0)) < 1e-12


def test_feedforward_sinusoid_steady_state():
    # anti-causal first-order system: away from the boundary the response to
    # sin(w t) is -alpha (sin + alpha w cos) / (1 + alpha^2 w^2)
    alpha, om, T, nt = 1.5, 2.0, 60.0, 6000
    params = lq.LQParams(alpha, T, nt)
    t = params.t_grid
    y = lq.feedforward(params, np.sin(om * t))
    y_ss = -alpha * (np.sin(om * t) + alpha * om * np.cos(om * t)) / (1 + alpha ** 2 * om ** 2)
    mid = (t > 15) & (t < 45)
    assert np.max(np.abs(y[mid] - y_ss[mid])) < 1e-4


def test_solve_scalar_already_at_target():
    params = lq.LQParams(2.0, 10.0, 500)
    sol = lq.solve_scalar(params, 3.0, np.full(501, 3.0))
    assert np.max(np.abs(sol.u)) < 1e-12
    assert sol.cost < 1e-20


def test_solve_scalar_static_cost_formula():
    params = lq.LQParams(2.0, 10.0, 1000)
    sol = lq.solve_scalar(params, 0.0, np.full(1001, 3.0))
    expected = lq.static_cost(params, 0.0, 3.0)
    assert sol.cost == pytest.approx(expected, rel=1e-9)
    phi = lq.transition_r(params, params.t_grid, 0.0)
    assert np.max(np.abs(sol.r - (1 - phi) * 3.0)) < 1e-10


def test_solve_scalar_boundary_conditions():
    params = lq.LQParams(1.0, 4.0, 400)
    d = 1.0 + 0.5 * np.sin(2.0 * params.t_grid)
    sol = lq.solve_scalar(params, 0.3, d)
    assert sol.p[-1] == 0.0
    assert sol.y[-1] == 0.0
    assert sol.r[0] == 0.3
    assert np.allclose(sol.u, -(sol.p * sol.r + sol.y), atol=1e-14)


def test_solve_scalar_dynamics_residual():
    params = lq.LQParams(1.0, 4.0, 800)
    t = params.t_grid
    sol = lq.solve_scalar(params, 0.3, 1.0 + 0.5 * np.sin(2.0 * t))
    dt = t[1] - t[0]
    rdot = np.gradient(sol.r, dt)
    resid = np.abs(rdot - sol.u)[1:-1]  # central differences, O(dt^2)
    assert np.max(resid) < 10 * dt ** 2


def test_solve_scalar_matches_discrete_oracle():
    d_fn = lambda t: 2.0 + np.sin(0.7 * t) + 0.3 * np.cos(2.1 * t)
    params = lq.LQParams(1.0, 8.0, 1000)
    sol = lq.solve_scalar(params, 0.5, d_fn(params.t_grid))
    _, _, dcost = oracle.discrete_lq(1.0, 8.0, 1000, 0.5, d_fn(params.t_grid))
    assert abs(sol.cost - dcost) / dcost < 0.005


def test_perturbation_optimality():
    # J(u + du) >= J(u) and the increase is quadratic in the perturbation size
    rng = np.random.default_rng(99)
    print("seed=99")
    params = lq.LQParams(1.2, 5.0, 500)
    t = params.t_grid
    d = 1.5 + np.sin(1.3 * t)
    sol = lq.solve_scalar(params, 0.0, d)

    def cost_of(u):
        r = np.empty_like(u)
        r[0] = 0.0
        dt = t[1] - t[0]
        for k in range(len(t) - 1):  # trapezoid-consistent explicit rollout
            r[k + 1] = r[k] + 0.5 * dt * (u[k] + u[k + 1])
        return np.trapezoid((r - d) ** 2 + params.alpha ** 2 * u ** 2, t)

    base = cost_of(sol.u)
    direction = np.sin(3.0 * t) + 0.4 * rng.standard_normal(len(t))
    direction /= np.sqrt(np.trapezoid(direction ** 2, t))
    increases = []
    for eps in (0.3, 0.15, 0.075):
        inc = cost_of(sol.u + eps * direction) - base
        assert inc >= -1e-6
        increases.append(inc)
    # quadratic decay: halving eps divides the increase by about four
    assert increases[0] / increases[1] == pytest.approx(4.0, rel=0.2)
    assert increases[1] / increases[2] == pytest.approx(4.0, rel=0.2)


def test_order_preservation_scalar_pair():
    rng = np.random.default_rng(7)
    params = lq.LQParams(0.8, 6.0, 600)
    t = params.t_grid
    for _ in range(10):
        lo = rng.uniform(0, 1) + 0.4 * np.sin(rng.uniform(0.5, 2) * t)
        hi = lo + rng.uniform(0.0, 1.5)
        r0 = np.array([rng.uniform(-1, 0), rng.uniform(0.001, 1)])
        fam = lq.solve_family(params, np.sort(r0), np.vstack([lo, hi]))
        assert np.all(fam.r[0] < fam.r[1])


def test_family_batched_consistency():
    params = lq.LQParams(2.0, 10.0, 400)
    t = params.t_grid
    d = np.vstack([np.full(401, 3.0), np.sin(t)])
    fam = lq.solve_family(params, np.array([0.0, 1.0]), d)
    one = lq.solve_scalar(params, 1.0, np.sin(t))
    assert np.allclose(fam.r[1], one.r, atol=0)
    assert fam.cost[1] == one.cost


STIFFNESS = (1e-2, 0.1, 1.0, 10.0, 50.0, 500.0)  # dt / alpha
SLOW = (1e-4, 1e-3)  # dt / alpha where e = r - d changes little per step


@pytest.mark.parametrize("ratio", SLOW + STIFFNESS)
def test_family_cost_matches_static_closed_form_at_any_stiffness(ratio):
    T, nt = 10.0, 200
    params = lq.LQParams(T / nt / ratio, T, nt)
    r0 = np.array([0.0, -1.0, 2.5, 4.0])
    level = np.array([3.0, 1.0, 2.5 + 1e-3, -2.0])
    fam = lq.solve_family(params, r0, np.repeat(level[:, None], nt + 1, axis=1))
    want = lq.static_cost(params, r0, level)
    assert np.all(np.abs(fam.cost - want) <= 1e-12 * want)


@pytest.mark.parametrize("ratio", SLOW + STIFFNESS)
def test_family_trajectories_match_static_closed_form_at_any_stiffness(ratio):
    T, nt = 10.0, 200
    params = lq.LQParams(T / nt / ratio, T, nt)
    t, a = params.t_grid, params.alpha
    r0 = np.array([0.0, -1.0, 4.0])
    level = np.array([3.0, 1.0, -2.0])
    fam = lq.solve_family(params, r0, np.repeat(level[:, None], nt + 1, axis=1))
    # e = r - level = e0 cosh((T - t)/a) / cosh(T/a), with nonpositive exponents only
    e = (r0 - level)[:, None] * np.exp(-t / a) * (1.0 + np.exp(-2.0 * (T - t) / a)) \
        / (1.0 + np.exp(-2.0 * T / a))
    r = level[:, None] + e
    u = -lq.riccati(params)(t) * e / a ** 2
    assert np.all(np.abs(fam.r - r) <= 1e-14 * 6.0)
    assert np.all(np.abs(fam.u - u) <= 1e-13 * np.max(np.abs(u), axis=-1, keepdims=True))


@pytest.mark.parametrize("ratio", SLOW[1:] + STIFFNESS)
def test_feedforward_matches_derived_feedforward(ratio):
    # y from the backward sweep equals -(alpha^2 u + p r) of the solved family
    T, nt = 10.0, 200
    params = lq.LQParams(T / nt / ratio, T, nt)
    t = params.t_grid
    d = np.vstack([1.0 + 0.5 * np.sin(2.0 * t), np.abs(t - 3.7) - 2.0, np.full(nt + 1, 3.0)])
    fam = lq.solve_family(params, np.array([0.3, -1.0, 0.0]), d)
    derived = -(params.alpha ** 2 * fam.u + fam.p * fam.r)
    scale = np.max(np.abs(fam.y), axis=-1, keepdims=True)
    assert np.all(np.abs(fam.y - derived) <= 1e-12 * scale)


def test_params_validation():
    with pytest.raises(ValueError):
        lq.LQParams(-1.0, 1.0, 10)
    with pytest.raises(ValueError):
        lq.LQParams(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        lq.LQParams(1.0, 1.0, 1)
