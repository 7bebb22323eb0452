"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All tolerances are pinned here, not calibrated at run
time.  Scenario trajectories produced along the way are pooled so the
order-preservation and motion-identity criteria sweep every solver output
of the session.
"""

import time

import numpy as np

from helpers import (bimodal_demand, eleven_atom_resource, random_density,
                     random_scenario, reference_static_scenario)
from swarmlq import (Density, l2_quantile_distance, lq, oracle, quantile_of,
                     wasserstein2)
from swarmlq.partition import averaged_density, build_partition
from swarmlq.regimes import (PeriodicDemand, Scenario, evaluate_cost,
                             solve_general, solve_periodic, solve_static,
                             _densities_from_rows, _problem_structure)
from swarmlq.transport import (QuantileReassembledVelocity, advect_density,
                               evolve_quantile, from_quantile_coords,
                               to_quantile_coords, CallableVelocity)

SEED = 987654321
_PATHS = []          # (name, DensityPath) pooled for criterion 6
_BREAKDOWNS = []     # pooled for criterion 8


def _register(name, sol):
    _PATHS.append((name, sol.trajectory))
    _BREAKDOWNS.append((name, sol.breakdown))


def test_criterion_1_isometry_and_lp_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    print(f"\n[criterion 1] seed={SEED}")
    worst_iso = 0.0
    for _ in range(200):
        a = random_density(rng, kind="mixed")
        b = random_density(rng, kind="mixed")
        w = wasserstein2(a, b)
        l2 = l2_quantile_distance(quantile_of(a), quantile_of(b))
        worst_iso = max(worst_iso, abs(w - l2))
    assert worst_iso <= 1e-9
    worst_lp = 0.0
    for _ in range(100):
        n, m = rng.integers(1, 7, 2)
        ax = np.sort(rng.uniform(0, 10, n))
        am = rng.uniform(0.1, 1.0, n)
        am /= am.sum()
        bx = np.sort(rng.uniform(0, 10, m))
        bm = rng.uniform(0.1, 1.0, m)
        bm /= bm.sum()
        w2sq = wasserstein2(Density.from_atoms(ax, am, domain=(-1, 11)),
                            Density.from_atoms(bx, bm, domain=(-1, 11))) ** 2
        worst_lp = max(worst_lp, abs(w2sq - oracle.lp_wasserstein((ax, am), (bx, bm))))
    elapsed = time.perf_counter() - t0
    assert worst_lp <= 1e-9
    assert elapsed < 10.0
    print(f"PASS criterion 1: isometry worst {worst_iso:.2e}, "
          f"LP worst {worst_lp:.2e} [{elapsed:.1f}s < 10s]")


def _backward_rk4_riccati(alpha, T, grid_nt):
    # independent integrator; substeps scale a priori with the stiffness
    # ratio dt / alpha so the oracle resolves the terminal transient
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
            p += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ps[k - 1] = p
    return ps


def test_criterion_2_riccati_closed_form():
    worst = 0.0
    for alpha in (0.1, 1.0, 10.0):
        for T in (0.1, 1.0, 10.0):
            params = lq.LQParams(alpha, T, 1000)
            exact = lq.riccati(params)(params.t_grid)
            num = _backward_rk4_riccati(alpha, T, 1000)
            worst = max(worst, float(np.max(np.abs(exact - num))))
    assert worst <= 1e-8
    print(f"PASS criterion 2: closed form vs backward RK4 worst {worst:.2e} <= 1e-8")


def test_criterion_3_static_demand_theorem():
    t0 = time.perf_counter()
    scen = reference_static_scenario(nt=1000, alpha=2.0, T=10.0)
    sol = solve_static(scen, save_every=10)
    _register("static", sol)

    # (a) simulated realized cost vs closed form
    rel_a = abs(sol.breakdown.total - sol.closed_form_cost) / sol.closed_form_cost
    assert rel_a <= 0.01

    # (b) geodesic contraction at 20 sampled times
    part = build_partition(quantile_of(scen.resource))
    dbar = averaged_density(bimodal_demand(), part)
    w0 = wasserstein2(scen.resource, dbar)
    params = lq.LQParams(scen.alpha, scen.horizon, scen.nt)
    worst_b = 0.0
    for j in np.linspace(0, len(sol.trajectory.t) - 1, 20).astype(int):
        t = sol.trajectory.t[j]
        want = lq.transition_r(params, t, 0.0) * w0
        worst_b = max(worst_b, abs(wasserstein2(sol.trajectory[j], dbar) - want))
    assert worst_b <= 1e-4

    # (c) forward PDE simulation under the optimal field reproduces the
    # closed-form pushforward trajectory (atom positions, tol 1e-6)
    sim = advect_density(scen.resource, sol.velocity, scen.horizon, 1000,
                         save_every=100)
    _PATHS.append(("static-pde", sim))
    worst_c = 0.0
    for t, d_sim in zip(sim.t, sim.densities):
        exact_slice = sol.velocity.slice_quantile(t)
        atom_want = np.unique(exact_slice.flat_intervals[:, 2])
        worst_c = max(worst_c, float(np.max(np.abs(np.sort(d_sim.atom_x)
                                                   - np.sort(atom_want)))))
    elapsed = time.perf_counter() - t0
    assert worst_c <= 1e-6
    assert elapsed < 30.0
    print(f"PASS criterion 3: cost rel {rel_a:.2e} <= 1e-2, geodesic {worst_b:.2e} "
          f"<= 1e-4, PDE replay {worst_c:.2e} <= 1e-6 [{elapsed:.1f}s < 30s]")


def test_criterion_4_periodic_filter():
    t0 = time.perf_counter()
    period, alpha = 2.0, 0.3
    w = np.full(5, 0.2)
    centers = np.array([0.0, 3.0, 6.0, 9.0, 12.0])
    amp = 0.35

    def rule(t):
        pos = centers + amp * np.sin(2 * np.pi * np.arange(1, 6) * t / period)
        return Density((-2, 14), atoms=np.column_stack([pos, w]))

    dem = PeriodicDemand(period, rule)
    res = Density((-2, 14), atoms=np.column_stack([centers - 0.4, w]))
    scen = Scenario(res, dem, alpha=alpha, horizon=None, nt=256, n_harmonics=32)
    sol = solve_periodic(scen)
    _register("periodic-sine", sol)

    worst_gain = 0.0
    gains = {(row[0], row[1]): row[5] for row in sol.frequency_table}
    for i in range(5):
        k = i + 1
        om = 2 * np.pi * k / period
        want = 1.0 / (alpha ** 2 * om ** 2 + 1.0)
        worst_gain = max(worst_gain, abs(gains[(f"cell{i}", k)] - want))
    assert worst_gain <= 1e-3

    nt = 256
    worst_lag = 0
    for i in range(5):
        rc = sol.family.r[i, :nt] - sol.family.r[i, :nt].mean()
        dc = sol.family.d[i, :nt] - sol.family.d[i, :nt].mean()
        cors = [np.sum(rc * np.roll(dc, l)) for l in range(-6, 7)]
        worst_lag = max(worst_lag, abs(range(-6, 7)[int(np.argmax(cors))]))
    assert worst_lag <= 1

    # frequency-domain average cost vs a time-domain integration
    from test_regimes import _time_domain_cost
    rel_sine = abs(_time_domain_cost(sol, alpha) - sol.cost) / sol.cost

    res11 = Density((-2, 12), atoms=np.column_stack(
        [np.linspace(2, 8, 11), eleven_atom_resource().atom_m]))
    from swarmlq.regimes import gaussian_mixture_demand
    mix = gaussian_mixture_demand([2.5, 7.5], [1.0, 1.0], [1.0, 1.0],
                                  [1.0, -1.0], period=1.0, domain=(-2, 12),
                                  nx=300)
    scen2 = Scenario(res11, mix, alpha=0.08, horizon=None, nt=128, n_harmonics=32)
    sol2 = solve_periodic(scen2)
    _register("periodic-mixture", sol2)
    rel_mix = abs(_time_domain_cost(sol2, 0.08) - sol2.cost) / sol2.cost
    elapsed = time.perf_counter() - t0
    assert rel_sine <= 0.01
    assert rel_mix <= 0.01
    assert elapsed < 30.0
    print(f"PASS criterion 4: gains {worst_gain:.2e} <= 1e-3, lag {worst_lag} <= 1, "
          f"freq-vs-time rel {max(rel_sine, rel_mix):.2e} <= 1e-2 [{elapsed:.1f}s < 30s]")


def _perturbed_realized_cost(scen, sol, rng):
    """Realized cost of an admissible control near the returned optimum.

    Per-cell sinusoidal control tweaks with amplitude in [0.1, 0.3]; draws
    that would reorder the cells are rejected so every evaluated control is
    admissible.
    """
    t = sol.family.t
    B = sol.family.u.shape[0]
    dt = t[1] - t[0]
    problems = _problem_structure(quantile_of(scen.resource))
    # amplitude scaled to the tightest inter-cell gap so draws stay ordered
    order = np.argsort(sol.family.r[:, 0])
    min_gap = (np.min(np.diff(sol.family.r[order], axis=0)) if B > 1 else 1.0)
    hi = float(np.clip(0.6 * min_gap, 0.02, 0.3))
    for attempt in range(60):
        if attempt and attempt % 10 == 0:
            hi *= 0.5
        amp = rng.uniform(hi / 3.0, hi, (B, 1)) * rng.choice([-1.0, 1.0], (B, 1))
        du = amp * np.sin(rng.uniform(0.5, 3.0, (B, 1)) * t
                          + rng.uniform(0, 2 * np.pi, (B, 1)))
        u = sol.family.u + du
        r = np.empty_like(u)
        r[:, 0] = sol.family.r[:, 0]
        for k in range(len(t) - 1):
            r[:, k + 1] = r[:, k] + 0.5 * dt * (u[:, k] + u[:, k + 1])
        rows = r[problems.node_problem].T
        if np.all(np.diff(rows, axis=1) >= 0):
            break
    else:
        raise AssertionError("could not draw an admissible perturbation")
    vel = QuantileReassembledVelocity(t, problems.z_nodes, rows,
                                      u[problems.node_problem].T)
    path = _densities_from_rows(vel, scen.resource.domain, save_every=5)
    return evaluate_cost(path, vel, scen.demand, scen.alpha).total, path


def test_criterion_5_performance_floor_and_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 5)
    print(f"\n[criterion 5] seed={SEED + 5}")
    worst_margin = np.inf   # min over scenarios of (perturbed - analytic)
    worst_oracle = np.inf   # min over scenarios of gd_cost / analytic - 1
    for s in range(20):
        scen = random_scenario(rng, nt=150, n_res=int(rng.integers(2, 4)),
                               n_dem=int(rng.integers(2, 4)))
        sol = solve_general(scen, save_every=5)
        _register(f"random-{s}", sol)
        K = sol.breakdown.limit
        analytic = sol.breakdown.total
        assert analytic >= K - 1e-12
        for _ in range(50):
            pert, _ = _perturbed_realized_cost(scen, sol, rng)
            assert pert >= K - 1e-12
            assert pert >= analytic - 1e-9 * max(1.0, analytic)
            worst_margin = min(worst_margin, pert - analytic)
        dem_pos = np.vstack([np.sort(scen.demand.density_at(t).atom_x)
                             for t in sol.t])
        inst = oracle.DiscreteInstance(
            positions=scen.resource.atom_x, masses=scen.resource.atom_m,
            demand_positions=dem_pos,
            demand_masses=scen.demand.density_at(0.0).atom_m,
            alpha=scen.alpha, T=scen.horizon)
        traj, _, _ = oracle.direct_optimal_control(inst, seed=SEED + 5 + s)
        gd_cost = oracle.trajectory_cost(inst, traj)
        assert gd_cost >= sol.cost * (1 - 0.005)
        worst_oracle = min(worst_oracle, gd_cost / sol.cost - 1.0)
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 5: all 20x50 perturbed costs >= K and >= analytic "
          f"(tightest margin {worst_margin:.2e}); oracle never undercuts "
          f"(worst {worst_oracle:+.2%} >= -0.5%) [{elapsed:.1f}s]")


def test_criterion_6_order_preservation():
    assert _PATHS, "solver runs must execute before the order sweep"
    checked = 0
    for name, path in _PATHS:
        for d in path.densities:
            if len(d.atom_x) > 1:
                assert np.all(np.diff(d.atom_x) > 0), f"crossing in {name}"
                checked += 1
    print(f"PASS criterion 6: strict atom order on {checked} slices "
          f"across {len(_PATHS)} trajectories")


def test_criterion_7_transform_bijection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 7)
    print(f"\n[criterion 7] seed={SEED + 7}")
    worst_rt = 0.0
    for _ in range(100):
        d = random_density(rng, kind=("mixed", "atoms", "continuous")[int(rng.integers(3))])
        a = rng.uniform(-0.4, 0.4)
        b = rng.uniform(0.3, 1.2)
        c = rng.uniform(0, 2 * np.pi)
        v = CallableVelocity(lambda x, t, a=a, b=b, c=c:
                             a * np.sin(b * x + c) + 0.2 * np.cos(1.3 * t))
        T, nt = 1.0, 60
        q0, u = to_quantile_coords(d, v, T, nt)
        vb = from_quantile_coords(q0, u, T, nt)
        for j in (0, nt // 2, nt):
            t = vb.t_nodes[j]
            xs = u.quantile_trajectory[j]
            worst_rt = max(worst_rt, float(np.max(np.abs(vb(xs, t) - v(xs, t)))))
        # forward-then-inverse at the initial slice (one-sided at jumps)
        from swarmlq.transport import _u_at_nodes
        worst_rt = max(worst_rt, float(np.max(np.abs(
            vb(q0.values, 0.0) - _u_at_nodes(u, q0.z, 0.0)))))
    assert worst_rt <= 1e-9

    worst_comm = 0.0
    T, nt = 1.0, 200
    grid_tol = (T / nt) ** 2 * 10.0
    for _ in range(10):
        d = random_density(rng, kind="mixed")
        a = rng.uniform(-0.4, 0.4)
        b = rng.uniform(0.3, 1.2)
        c = rng.uniform(0, 2 * np.pi)
        v = CallableVelocity(lambda x, t, a=a, b=b, c=c:
                             a * np.sin(b * x + c) + 0.2 * np.cos(1.3 * t))
        q0, u = to_quantile_coords(d, v, T, nt)
        path = advect_density(d, v, T, nt, save_every=nt)
        ts, qs = evolve_quantile(q0, u, T, nt, save_every=nt)
        zz = np.linspace(0, 1, 301)
        worst_comm = max(worst_comm, float(np.max(np.abs(
            quantile_of(path[-1])(zz) - qs[-1](zz)))))
    elapsed = time.perf_counter() - t0
    assert worst_comm <= 5 * grid_tol
    print(f"PASS criterion 7: roundtrips {worst_rt:.2e} <= 1e-9, commutativity "
          f"{worst_comm:.2e} <= {5 * grid_tol:.2e} [{elapsed:.1f}s]")


def test_criterion_8_motion_cost_identity():
    assert _BREAKDOWNS, "solver runs must execute before the identity sweep"
    worst = 0.0
    slices = 0
    for name, bd in _BREAKDOWNS:
        gap = np.max(np.abs(bd.motion_x_t - bd.motion_z_t))
        scale = np.maximum(1.0, np.abs(bd.motion_x_t)).max()
        worst = max(worst, float(gap / scale) if scale > 1 else float(gap))
        slices += len(bd.t)
    assert worst <= 1e-8
    print(f"PASS criterion 8: motion-cost identity worst {worst:.2e} <= 1e-8 "
          f"over {slices} slices from {len(_BREAKDOWNS)} solutions")
