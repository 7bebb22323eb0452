import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (bimodal_demand, eleven_atom_resource, random_scenario,
                     reference_static_scenario)
from swarmlq import Density, lq, quantile_of, wasserstein2
from swarmlq.errors import ConfigError, NumericalError
from swarmlq.partition import averaged_density, build_partition
from swarmlq.regimes import (PeriodicDemand, SampledDemand, Scenario,
                             StaticDemand, _check_order, evaluate_cost,
                             solve_general, solve_periodic, solve_static)
from swarmlq.transport import CallableVelocity, DensityPath

SEED = 424242


def test_static_already_at_reachable_target():
    res = Density((0, 10), atoms=[(2.0, 0.5), (7.0, 0.5)])
    scen = Scenario(res, StaticDemand(res), alpha=1.0, horizon=4.0, nt=200)
    sol = solve_static(scen)
    assert sol.cost == pytest.approx(0.0, abs=1e-14)
    assert sol.breakdown.total == pytest.approx(0.0, abs=1e-12)
    for d in sol.trajectory.densities:
        assert np.allclose(d.atom_x, res.atom_x, atol=1e-14)


def test_static_unit_atoms_closed_form():
    a, b, alpha, T = 1.0, 6.0, 2.0, 10.0
    res = Density((0, 10), atoms=[(a, 1.0)])
    dem = Density((0, 10), atoms=[(b, 1.0)])
    scen = Scenario(res, StaticDemand(dem), alpha=alpha, horizon=T, nt=500)
    sol = solve_static(scen)
    expected = (a - b) ** 2 * alpha * np.tanh(T / alpha)
    assert sol.cost == pytest.approx(expected, rel=1e-12)
    params = lq.LQParams(alpha, T, 500)
    phi = lq.transition_r(params, sol.t, 0.0)
    want = phi * a + (1 - phi) * b
    got = np.array([d.atom_x[0] for d in sol.trajectory.densities])
    assert np.max(np.abs(got - want)) < 1e-12


def test_static_geodesic_contraction():
    scen = reference_static_scenario(nt=500)
    sol = solve_static(scen, save_every=25)
    part = build_partition(quantile_of(scen.resource))
    dbar = averaged_density(bimodal_demand(), part)
    w0 = wasserstein2(scen.resource, dbar)
    params = lq.LQParams(scen.alpha, scen.horizon, scen.nt)
    for t, d in zip(sol.trajectory.t, sol.trajectory.densities):
        want = lq.transition_r(params, t, 0.0) * w0
        assert abs(wasserstein2(d, dbar) - want) < 1e-9
    # triangle degenerates along a geodesic
    mid = sol.trajectory.densities[len(sol.trajectory.t) // 2]
    assert (wasserstein2(scen.resource, mid) + wasserstein2(mid, dbar)
            == pytest.approx(w0, abs=1e-9))


def test_static_atoms_inside_continuum():
    # an atom inside or on an edge of continuous mass: its flat adjoins the
    # one-sided limit nodes of the continuum, which move at other velocities
    edges = np.linspace(0.5, 9.5, 21)
    atoms = [(x, 0.1) for x in (2.3, 4.1, 5.9, 7.7)] + [(edges[10], 0.05)]
    res = Density((0, 10), atoms=atoms, edges=edges,
                  values=np.full(20, 0.55 / 9.0))

    def pdf(x):
        return np.exp(-0.5 * ((x - 3.0) / 0.7) ** 2) + np.exp(-0.5 * ((x - 7.0) / 0.7) ** 2)

    dem = Density.from_pdf(pdf, (0, 10), nx=200)
    scen = Scenario(res, StaticDemand(dem), alpha=2.0, horizon=10.0, nt=1000)
    sol = solve_static(scen, save_every=20)
    bd = sol.breakdown
    assert np.max(np.abs(bd.motion_x_t - bd.motion_z_t)) <= 1e-8 * np.max(bd.motion_z_t)
    dbar = averaged_density(dem, build_partition(quantile_of(res)))
    w0 = wasserstein2(res, dbar)
    params = lq.LQParams(scen.alpha, scen.horizon, scen.nt)
    for t, d in zip(sol.trajectory.t, sol.trajectory.densities):
        assert abs(wasserstein2(d, dbar) - lq.transition_r(params, t, 0.0) * w0) < 1e-9


def test_static_simulated_cost_matches_closed_form():
    scen = reference_static_scenario(nt=500)
    sol = solve_static(scen, save_every=5)
    assert sol.breakdown.total == pytest.approx(sol.closed_form_cost, rel=0.01)
    assert sol.breakdown.total >= sol.breakdown.limit


def test_two_path_agreement_static_vs_general():
    scen = reference_static_scenario(nt=1000)
    sol_s = solve_static(scen, save_every=50)
    sol_g = solve_general(scen, save_every=50)
    assert abs(sol_s.cost - sol_g.cost) <= 1e-9
    for ds, dg in zip(sol_s.trajectory.densities, sol_g.trajectory.densities):
        assert np.max(np.abs(ds.atom_x - dg.atom_x)) <= 1e-9
    x = np.linspace(0.2, 7.8, 23)
    for t in (0.0, 2.5, 5.0, 10.0):
        assert np.max(np.abs(sol_s.velocity(x, t) - sol_g.velocity(x, t))) <= 1e-7


def test_general_zero_cost_when_demand_equals_reachable_resource():
    res = Density((0, 10), atoms=[(2.0, 0.5), (7.0, 0.5)])
    scen = Scenario(res, StaticDemand(res), alpha=1.0, horizon=3.0, nt=150)
    sol = solve_general(scen)
    assert sol.cost == pytest.approx(0.0, abs=1e-12)
    xs = np.linspace(0, 10, 21)
    assert np.max(np.abs(sol.velocity(xs, 1.0))) < 1e-9


def test_general_matches_direct_optimization_oracle():
    from swarmlq import oracle
    rng = np.random.default_rng(SEED)
    print(f"seed={SEED}")
    scen = random_scenario(rng, nt=400, n_res=3, n_dem=3, alpha=1.2, T=5.0)
    sol = solve_general(scen, save_every=40)
    dem_pos = np.vstack([
        np.sort(scen.demand.density_at(t).atom_x) for t in sol.t])
    inst = oracle.DiscreteInstance(
        positions=scen.resource.atom_x, masses=scen.resource.atom_m,
        demand_positions=dem_pos,
        demand_masses=scen.demand.density_at(0.0).atom_m,
        alpha=scen.alpha, T=scen.horizon)
    _, gd_cost, _ = oracle.direct_optimal_control(inst, seed=SEED)
    assert sol.cost <= gd_cost * 1.005
    assert gd_cost <= sol.cost * 1.02  # oracle should land close from above


@pytest.mark.parametrize("ratio", (1e-2, 0.1, 0.5, 2.5, 5.0, 50.0))
def test_general_matches_static_at_any_stiffness(ratio):
    # two atoms tracking two static atoms; dt/alpha from smooth to stiff
    T, nt = 10.0, 200
    res = Density((0, 10), atoms=[(1.0, 0.4), (4.0, 0.6)])
    dem = Density((0, 10), atoms=[(3.0, 0.5), (6.0, 0.5)])
    scen = Scenario(res, StaticDemand(dem), alpha=T / nt / ratio, horizon=T, nt=nt)
    sol_s = solve_static(scen, save_every=50)
    sol_g = solve_general(scen, save_every=50)
    assert sol_g.cost == pytest.approx(sol_s.cost, rel=1e-9)


def test_general_names_float_saturation_of_merging_atoms():
    # both atoms track one demand atom: their gap decays like exp(-t/alpha)
    # until the two trajectories are the same float
    res = Density((0, 10), atoms=[(1.0, 0.5), (4.0, 0.5)])
    dem = Density((0, 10), atoms=[(3.0, 1.0)])
    scen = Scenario(res, StaticDemand(dem), alpha=0.1, horizon=10.0, nt=200)
    assert solve_static(scen).cost == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(NumericalError, match=r"merged at t=.*float saturation .*T/alpha = 100\)"):
        solve_general(scen)


def test_check_order_names_float_saturation_only_given_alpha():
    # two atom levels whose gap reaches exactly zero at the last time
    problems = SimpleNamespace(r0=np.array([1.0, 4.0]),
                               kinds=[("cell", 0.0, 0.5, 1.0), ("cell", 0.5, 1.0, 4.0)])
    t = np.array([0.0, 1.0, 2.0])
    r = np.array([[1.0, 2.0, 3.0], [4.0, 3.0, 3.0]])
    with pytest.raises(NumericalError, match=r"merged at t=2: their gap is exactly zero$"):
        _check_order(problems, t, r)
    with pytest.raises(NumericalError, match=r"merged at t=2: .*float saturation .*T/alpha = 20\)"):
        _check_order(problems, t, r, alpha=0.1)
    with pytest.raises(NumericalError, match=r"atom trajectories crossed$"):
        _check_order(problems, t, r - [[0.0, 0.0, 0.0], [0.0, 0.0, 1e-13]])


def _mixed(domain, atom, edges, mass, s=1.0, c=0.0):
    """One atom plus one histogram cell, under ``x -> s x + c``."""
    lo, hi = s * np.asarray(domain) + c
    x0, x1 = s * np.asarray(edges) + c
    return Density((lo, hi), atoms=[(s * atom + c, mass)], edges=[x0, x1],
                   values=[(1.0 - mass) / (x1 - x0)], normalize=True)


def _affine_scenario(kind, s=1.0, c=0.0):
    res = _mixed((0, 80), 16.0, [32.0, 56.0], 0.4, s, c)
    if kind == "static":
        demand = StaticDemand(_mixed((0, 80), 24.0, [40.0, 64.0], 0.3, s, c))
    else:
        times = np.linspace(0.0, 2.0, 5)
        demand = SampledDemand(times, [_mixed((0, 80), 24.0 + 4.0 * np.sin(t),
                                              [40.0 - 2.4 * t, 64.0], 0.3, s, c)
                                       for t in times])
    return Scenario(res, demand, alpha=0.5, horizon=2.0, nt=40)


@functools.cache
def _affine_base_cost(kind):
    return solve_general(_affine_scenario(kind), save_every=40).cost


@pytest.mark.parametrize("kind", ("static", "sampled"))
@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.5, 3.0), c=st.floats(-1e6, 1e6))
def test_general_cost_scales_under_affine_maps(kind, s, c):
    # every cost term is quadratic in positions: x -> s x + c scales it by s^2
    cost = solve_general(_affine_scenario(kind, s, c), save_every=40).cost
    assert cost == pytest.approx(s * s * _affine_base_cost(kind), rel=1e-10)


def test_general_rejects_missing_horizon():
    res = Density((0, 10), atoms=[(2.0, 1.0)])
    scen = Scenario(res, StaticDemand(res), alpha=1.0, horizon=None, nt=100)
    with pytest.raises(ConfigError):
        solve_general(scen)


def test_periodic_constant_demand_dc_gain():
    # constant-in-time demand through the periodic path: r equals the cell
    # mean exactly (unit gain at zero frequency) and the motion cost is zero
    res = Density((0, 10), atoms=[(2.0, 0.4), (6.0, 0.6)])
    dem_static = Density((0, 10), atoms=[(3.0, 0.4), (7.0, 0.6)])
    dem = PeriodicDemand(1.0, lambda t: dem_static)
    scen = Scenario(res, dem, alpha=0.5, horizon=None, nt=64)
    sol = solve_periodic(scen)
    assert np.allclose(sol.family.r[:, 0], [3.0, 7.0], atol=1e-12)
    assert np.max(np.abs(sol.family.u)) < 1e-12
    assert sol.breakdown.motion == pytest.approx(0.0, abs=1e-14)
    assert sol.cost == pytest.approx(0.0, abs=1e-12)


def test_periodic_sinusoid_gain_and_phase():
    w = np.array([0.2, 0.5, 0.3])
    centers = np.array([1.0, 4.0, 7.0])
    period, kharm, amp, alpha = 2.0, 2, 0.4, 0.3
    dem = PeriodicDemand(period, lambda t: Density(
        (-1, 9), atoms=np.column_stack(
            [centers + amp * np.sin(2 * np.pi * kharm * t / period), w])))
    res = Density((-1, 9), atoms=np.column_stack([centers - 0.5, w]))
    scen = Scenario(res, dem, alpha=alpha, horizon=None, nt=256, n_harmonics=32)
    sol = solve_periodic(scen)
    om = 2 * np.pi * kharm / period
    want = 1.0 / (alpha ** 2 * om ** 2 + 1.0)
    for label, k, omega, dab, rab, gain in sol.frequency_table:
        if k == kharm:
            assert gain == pytest.approx(want, abs=1e-12)
    # zero phase: cross-correlation peak at zero lag
    nt = 256
    for i in range(3):
        rc = sol.family.r[i, :nt] - sol.family.r[i, :nt].mean()
        dc = sol.family.d[i, :nt] - sol.family.d[i, :nt].mean()
        cors = [np.sum(rc * np.roll(dc, l)) for l in range(-8, 9)]
        assert abs(range(-8, 9)[int(np.argmax(cors))]) <= 1


def test_periodic_rejects_non_periodic_demand():
    res = Density((0, 10), atoms=[(2.0, 1.0)])
    with pytest.raises(ConfigError):
        solve_periodic(Scenario(res, StaticDemand(res), alpha=1.0, nt=64))


def test_periodic_mixture_freq_cost_matches_time_domain():
    from swarmlq.regimes import gaussian_mixture_demand
    res = eleven_atom_resource(domain=(-2, 12))
    # spread the atoms into the demand's range so tracking is nontrivial
    res = Density((-2, 12), atoms=np.column_stack(
        [np.linspace(2, 8, 11), res.atom_m]))
    dem = gaussian_mixture_demand([2.5, 7.5], [1.0, 1.0], [1.0, 1.0],
                                  [1.0, -1.0], period=1.0, domain=(-2, 12),
                                  nx=300)
    scen = Scenario(res, dem, alpha=0.08, horizon=None, nt=128, n_harmonics=32)
    sol = solve_periodic(scen)
    time_cost = _five_period_time_domain_cost(sol, alpha=0.08)
    assert time_cost == pytest.approx(sol.cost, rel=0.01)
    # larger alpha moves less: motion integral decreases
    sol_big = solve_periodic(Scenario(res, dem, alpha=0.8, horizon=None,
                                      nt=128, n_harmonics=32))
    assert sol_big.breakdown.motion < sol.breakdown.motion


def _five_period_time_domain_cost(sol, alpha, n_periods=5):
    """Steady-state average cost via exact-kernel two-pass ODE integration."""
    period = sol.period
    nt = len(sol.family.t) - 1
    n_sim = nt * n_periods
    dt = period / nt
    d = np.tile(sol.family.d[:, :-1], n_periods)
    d = np.column_stack([d, d[:, :1]])
    tt = np.arange(n_sim + 1) * dt
    h = dt / alpha
    emh = np.exp(-h)
    # anti-causal pass: ydot = y/alpha + d, integrated backward, exact per
    # step for piecewise-linear d
    I0 = alpha * (1 - emh)
    I1 = alpha ** 2 * (1 - (1 + h) * emh)
    y = np.zeros_like(d)
    slope = np.diff(d, axis=1) / dt
    for k in range(n_sim - 1, -1, -1):
        y[:, k] = emh * y[:, k + 1] - (d[:, k] * I0 + slope[:, k] * I1)
    # causal pass: rdot = -(alpha r + y)/alpha^2, exact for piecewise-linear y
    I1f = alpha ** 2 * (h - 1 + emh)
    r = np.zeros_like(d)
    r[:, 0] = sol.family.r[:, 0]
    ms = np.diff(y, axis=1) / dt
    for k in range(n_sim):
        r[:, k + 1] = emh * r[:, k] - (y[:, k] * I0 + ms[:, k] * I1f) / alpha ** 2
    u = -(alpha * r + y) / alpha ** 2
    integrand = (r - d) ** 2 + alpha ** 2 * u ** 2
    mid = (tt >= period) & (tt <= (n_periods - 1) * period)
    J = np.trapezoid(integrand[:, mid], tt[mid], axis=1) / ((n_periods - 2) * period)
    return float(np.sum(sol.family.weights * J)) + sol.breakdown.limit / period


def test_evaluate_cost_trivials():
    res = Density((0, 10), atoms=[(2.0, 0.5), (7.0, 0.5)])
    still = CallableVelocity(lambda x, t: np.zeros_like(x))
    t = np.linspace(0, 3, 31)
    path = DensityPath(t, [res] * 31)
    bd = evaluate_cost(path, still, StaticDemand(res), alpha=1.0)
    assert bd.total == pytest.approx(0.0, abs=1e-14)
    # motionless but mismatched: J = T * W2^2
    dem = Density((0, 10), atoms=[(3.0, 0.5), (6.5, 0.5)])
    bd2 = evaluate_cost(path, still, StaticDemand(dem), alpha=1.0)
    assert bd2.total == pytest.approx(3.0 * wasserstein2(res, dem) ** 2, rel=1e-12)


def test_motion_identity_across_solver_outputs():
    scen = reference_static_scenario(nt=300)
    sol = solve_static(scen, save_every=10)
    assert np.max(np.abs(sol.breakdown.motion_x_t - sol.breakdown.motion_z_t)) <= 1e-8
    rng = np.random.default_rng(SEED + 1)
    scen2 = random_scenario(rng, nt=200)
    sol2 = solve_general(scen2, save_every=10)
    assert np.max(np.abs(sol2.breakdown.motion_x_t - sol2.breakdown.motion_z_t)) <= 1e-8


def test_realized_cost_dominates_floor_for_perturbed_controls():
    rng = np.random.default_rng(SEED + 2)
    print(f"seed={SEED + 2}")
    scen = random_scenario(rng, nt=150)
    sol = solve_general(scen, save_every=15)
    K = sol.breakdown.limit
    assert sol.breakdown.total >= K
    base_cost = sol.breakdown.total
    t = sol.family.t
    for _ in range(10):
        pert = _perturbed_cost(scen, sol, rng)
        assert pert >= K - 1e-12
        assert pert >= base_cost - 1e-9 * max(1.0, base_cost)


def _perturbed_cost(scen, sol, rng, scale=0.2):
    """Realized cost after a smooth admissible tweak of the family controls."""
    from swarmlq.regimes import _densities_from_rows
    from swarmlq.transport import QuantileReassembledVelocity
    t = sol.family.t
    B = sol.family.u.shape[0]
    amp = rng.uniform(-scale, scale, (B, 1))
    freq = rng.uniform(0.5, 3.0, (B, 1))
    phase = rng.uniform(0, 2 * np.pi, (B, 1))
    du = amp * np.sin(freq * t + phase)
    u = sol.family.u + du
    r = np.empty_like(u)
    r[:, 0] = sol.family.r[:, 0]
    dt = t[1] - t[0]
    for k in range(len(t) - 1):
        r[:, k + 1] = r[:, k] + 0.5 * dt * (u[:, k] + u[:, k + 1])
    order = np.argsort(r[:, 0], kind="stable")
    if np.any(np.diff(r[order], axis=0) < 0):
        r = np.maximum.accumulate(r[order], axis=0)[np.argsort(order)]
    from swarmlq.regimes import _problem_structure
    problems = _problem_structure(quantile_of(scen.resource))
    vel = QuantileReassembledVelocity(t, problems.z_nodes,
                                      r[problems.node_problem].T,
                                      u[problems.node_problem].T)
    path = _densities_from_rows(vel, scen.resource.domain, save_every=15)
    bd = evaluate_cost(path, vel, scen.demand, scen.alpha)
    return bd.total


def test_continuous_resource_two_paths_and_motion_identity():
    # uniform resource chasing two demand atoms: the demand quantile jumps
    # mid-continuum, so the singleton machinery must split problems there
    res = Density.uniform((0, 4))
    dem = Density((0, 10), atoms=[(2.0, 0.5), (7.0, 0.5)])
    scen = Scenario(res, StaticDemand(dem), alpha=1.0, horizon=5.0, nt=300)
    sol_s = solve_static(scen, save_every=30)
    sol_g = solve_general(scen, save_every=30, refine=64)
    assert sol_g.cost == pytest.approx(sol_s.cost, rel=2e-4)
    assert sol_g.breakdown.total == pytest.approx(sol_s.breakdown.total, rel=1e-9)
    # initial motion integral has a closed form: p(0)^2 (2/3 + 98/12)
    want = np.tanh(5.0) ** 2 * (2.0 / 3.0 + 98.0 / 12.0)
    assert sol_s.breakdown.motion_z_t[0] == pytest.approx(want, rel=1e-12)
    for sol in (sol_s, sol_g):
        assert np.max(np.abs(sol.breakdown.motion_x_t
                             - sol.breakdown.motion_z_t)) <= 1e-8


def test_periodic_warmup_relaxes_toward_steady_state():
    w = np.array([0.3, 0.7])
    dem = PeriodicDemand(1.0, lambda t: Density(
        (-1, 9), atoms=np.column_stack(
            [[2.0 + 0.3 * np.sin(2 * np.pi * t), 6.0], w])))
    res = Density((-1, 9), atoms=np.column_stack([[0.0, 4.0], w]))
    scen = Scenario(res, dem, alpha=0.25, horizon=None, nt=128)
    sol = solve_periodic(scen)
    warm = sol.warmup
    assert warm.t[-1] == pytest.approx(3 * scen.alpha)
    # closed-loop relaxation rate 1/alpha: the initial offset decays by e^-3
    phase = warm.t[-1] % 1.0
    target = sol.velocity.slice_quantile(phase)
    start_gap = wasserstein2(res, sol.trajectory[0])
    end_gap = wasserstein2(warm.densities[-1],
                           type(res)((-1, 9), atoms=np.column_stack(
                               [np.unique(target.flat_intervals[:, 2]), w])))
    assert end_gap < 2 * np.exp(-3.0) * start_gap + 1e-9


def test_sampled_demand_interpolates_geodesically():
    d0 = Density((0, 10), atoms=[(2.0, 1.0)])
    d1 = Density((0, 10), atoms=[(6.0, 1.0)])
    dem = SampledDemand([0.0, 1.0], [d0, d1])
    q = dem.quantile_at(0.25)
    assert q(0.5) == pytest.approx(3.0, abs=1e-14)
    mid = dem.density_at(0.5)
    assert np.allclose(mid.atom_x, [4.0])


def test_scenario_validation():
    res = Density((0, 10), atoms=[(2.0, 1.0)])
    with pytest.raises(ConfigError):
        Scenario(res, StaticDemand(res), alpha=-1.0, horizon=1.0)
    with pytest.raises(ConfigError):
        Scenario(res, StaticDemand(res), alpha=1.0, horizon=-2.0)
