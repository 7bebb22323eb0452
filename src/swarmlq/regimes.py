"""Full-problem solvers: general finite-horizon, static, and periodic demand.

The solution pipeline is the same in every regime: build the level-set
partition of the initial resource quantile, average the demand quantile
against it, solve one scalar tracking problem per partition element, and
reassemble the percentile trajectories into a spatial velocity field.  The
static regime collapses to an error-feedback law whose trajectory traverses
the Wasserstein geodesic toward the nearest reachable density; the periodic
regime works in the frequency domain, where the map from reference to
steady state is a zero-phase second-order low-pass filter with cutoff
``1/alpha``.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import _pwlin, lq
from .errors import ConfigError, NumericalError
from .measures import (Density, QuantileFunction, density_from_quantile,
                       quantile_of)
from .partition import (LevelSetPartition, average_wrt_partition,
                        build_partition, cell_means, limit_constant_K)
from .transport import (DensityPath, GridQuantileVelocity, QuantilePath,
                        QuantileReassembledVelocity, VelocityField, _time_blend)

MOTION_IDENTITY_TOL = 1e-8

log = logging.getLogger("swarmlq")


# ---------------------------------------------------------------------------
# demand signals

class DemandSignal:
    """Time-indexed demand density with cached quantile slices."""

    def __init__(self):
        self._cache = {}

    def density_at(self, t):
        raise NotImplementedError

    def quantile_at(self, t):
        key = float(t)
        if key not in self._cache:
            self._cache[key] = quantile_of(self.density_at(t))
        return self._cache[key]


class StaticDemand(DemandSignal):
    def __init__(self, density):
        super().__init__()
        self.density = density

    def density_at(self, t):
        return self.density

    def quantile_at(self, t):
        return super().quantile_at(0.0)


class PeriodicDemand(DemandSignal):
    """Demand given by a rule over one period, repeated for all time."""

    def __init__(self, period, rule):
        super().__init__()
        if period <= 0:
            raise ConfigError("period must be positive")
        self.period = float(period)
        self.rule = rule

    def density_at(self, t):
        return self.rule(float(t) % self.period)

    def quantile_at(self, t):
        return super().quantile_at(float(t) % self.period)


class SampledDemand(DemandSignal):
    """Densities at sample times, interpolated along Wasserstein geodesics.

    Between samples the quantile is the convex combination of the two
    bracketing quantiles (displacement interpolation), which keeps every
    intermediate slice a valid density.  Each bracket's pair of quantiles
    is aligned on shared breakpoints once, on first use.
    """

    def __init__(self, times, densities):
        super().__init__()
        self.times = np.asarray(times, float)
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("sample times must be strictly increasing")
        if len(densities) != len(self.times):
            raise ConfigError("one density per sample time required")
        self.densities = list(densities)
        self._slices = [quantile_of(d) for d in densities]
        self._brackets = {}  # bracket index -> aligned (z, V) of its two samples

    def density_at(self, t):
        return density_from_quantile(self.quantile_at(t))

    def quantile_at(self, t):
        t = float(np.clip(t, self.times[0], self.times[-1]))
        j = int(np.searchsorted(self.times, t, side="right")) - 1
        j = min(max(j, 0), len(self.times) - 2)
        w = (t - self.times[j]) / (self.times[j + 1] - self.times[j])
        if w == 0.0:
            return self._slices[j]
        if w == 1.0:
            return self._slices[j + 1]
        if j not in self._brackets:
            qa, qb = self._slices[j], self._slices[j + 1]
            self._brackets[j] = _pwlin.align([(qa.z, qa.values), (qb.z, qb.values)])
        z, V = self._brackets[j]
        return QuantileFunction(z, (1.0 - w) * V[0] + w * V[1])


def gaussian_mixture_demand(means, sigmas, base_weights, sin_amplitudes,
                            period, domain, nx=400):
    """Periodic demand from Gaussian bumps with sinusoidally modulated weights.

    Component ``i`` has weight ``base_weights[i] + sin_amplitudes[i] *
    sin(2 pi t / period)``; each slice is renormalized on the domain grid.
    """
    means = np.asarray(means, float)
    sigmas = np.asarray(sigmas, float)
    base = np.asarray(base_weights, float)
    amps = np.asarray(sin_amplitudes, float)

    def rule(t):
        w = base + amps * np.sin(2.0 * np.pi * t / period)
        if np.any(w < 0):
            raise ConfigError("mixture weights must stay nonnegative")

        def pdf(x):
            x = np.asarray(x, float)[..., None]
            g = np.exp(-0.5 * ((x - means) / sigmas) ** 2) / (sigmas * np.sqrt(2 * np.pi))
            return np.sum(w * g, axis=-1)

        return Density.from_pdf(pdf, domain, nx=nx)

    return PeriodicDemand(period, rule)


# ---------------------------------------------------------------------------
# scenario and solution containers

@dataclass
class Scenario:
    """One problem instance plus its discretization choices."""

    resource: Density
    demand: DemandSignal
    alpha: float
    horizon: float | None = None
    nt: int = 1000
    n_harmonics: int = 64

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.nt < 2:
            raise ConfigError("nt must be at least 2")


@dataclass
class CostBreakdown:
    assignment: float          # integral of squared slice distances
    motion: float              # integral of the squared-velocity mass integral
    total: float               # assignment + alpha**2 * motion
    limit: float | None = None # partition floor below which no control can go
    t: np.ndarray | None = None
    assignment_t: np.ndarray | None = None
    motion_x_t: np.ndarray | None = None
    motion_z_t: np.ndarray | None = None


@dataclass
class ScalarFamily:
    """Per-partition-element tracking solutions, for export and inspection."""

    t: np.ndarray
    labels: list           # 'cell k' or 'z=0.123'
    weights: np.ndarray    # percentile mass carried by each problem
    r: np.ndarray          # (B, nt+1)
    u: np.ndarray
    y: np.ndarray
    d: np.ndarray
    p: np.ndarray          # shared Riccati samples
    cost: np.ndarray


@dataclass
class OptimalControlSolution:
    t: np.ndarray
    trajectory: DensityPath
    velocity: VelocityField
    quantile_velocity: GridQuantileVelocity
    breakdown: CostBreakdown
    cost: float                       # decomposed cost: sum of cell costs + floor
    partition: LevelSetPartition
    family: ScalarFamily
    closed_form_cost: float | None = None
    period: float | None = None
    frequency_table: list | None = None
    warmup: DensityPath | None = None


# ---------------------------------------------------------------------------
# problem structure shared by the general and periodic paths

@dataclass
class _Problems:
    z_nodes: np.ndarray     # reassembly nodes, nondecreasing with duplicates
    node_problem: np.ndarray  # problem index per node
    kinds: list             # per problem: ("cell", z0, z1, level) or ("point", z, side)
    r0: np.ndarray          # per problem initial state
    weights: np.ndarray     # percentile mass per problem (trapezoid for points)
    labels: list


def _demand_jump_knots(slices, cap=256):
    """Percentiles where any demand slice's quantile jumps (zero-mass gaps).

    Scanning stops once more than ``cap`` knots are found; the slices left
    unscanned are reported through the ``swarmlq`` logger.
    """
    knots = set()
    for i, qd in enumerate(slices):
        dup = qd.z[1:][qd.z[1:] == qd.z[:-1]]
        knots.update(float(z) for z in dup if 0.0 < z < 1.0)
        if len(knots) > cap:
            skipped = len(slices) - i - 1
            if skipped:
                log.warning("demand jump knots passed the cap of %d; %d of %d "
                            "slices were not scanned", cap, skipped, len(slices))
            break
    return np.asarray(sorted(knots))


def _problem_structure(q0, refine=0, knots=None):
    """Scalar problems generated by the level sets of ``q0``.

    One problem per flat (atom) and one per singleton node.  Where a flat
    directly adjoins a strictly increasing stretch, a duplicate singleton
    node is inserted at the shared percentile so the one-sided limit of the
    continuum is tracked separately from the atom (the reassembled quantile
    may open a zero-mass gap there).  ``knots`` are percentiles where the
    demand jumps; each lands as a duplicated node pair so both one-sided
    limits get their own problem and the reassembled trajectory may split
    there too.
    """
    z_all = q0.z
    v_all = q0.values
    if refine or (knots is not None and len(knots)):
        extra = []
        for k in range(len(z_all) - 1):
            dz = z_all[k + 1] - z_all[k]
            if dz > 0 and v_all[k + 1] > v_all[k]:
                n = int(np.ceil(dz * refine)) if refine else 1
                if n > 1:
                    extra.append(np.linspace(z_all[k], z_all[k + 1], n + 1)[1:-1])
                if knots is not None:
                    inside = knots[(knots > z_all[k]) & (knots < z_all[k + 1])]
                    extra.append(np.repeat(inside, 2))  # one-sided pair
        if extra:
            z_all = np.sort(np.concatenate([z_all] + extra), kind="stable")
            v_all = _pwlin.eval_pw(z_all, q0.z, q0.values, side="left")
            # re-pin right limits at duplicated nodes
            dup = np.zeros(len(z_all), bool)
            dup[1:] = z_all[1:] == z_all[:-1]
            v_all[dup] = _pwlin.eval_pw(z_all[dup], q0.z, q0.values, side="right")

    flats = q0.flat_intervals
    nodes = []   # (z, problem_key)
    kinds = []
    labels = []
    r0 = []
    key_of = {}

    def cell_key(c):
        k = ("cell", c)
        if k not in key_of:
            z0, z1, level = flats[c]
            key_of[k] = len(kinds)
            kinds.append(("cell", z0, z1, level))
            labels.append(f"cell{c}")
            r0.append(level)
        return key_of[k]

    def point_key(z, side, value):
        k = ("point", z, side)
        if k not in key_of:
            key_of[k] = len(kinds)
            kinds.append(("point", z, side))
            labels.append(f"z={z:.6g}{'+' if side == 'right' else '-'}")
            r0.append(value)
        return key_of[k]

    fi = 0
    i = 0
    n = len(z_all)
    while i < n:
        z, v = z_all[i], v_all[i]
        in_flat = fi < len(flats) and flats[fi][0] <= z <= flats[fi][1] and v == flats[fi][2]
        if in_flat:
            z0, z1, _ = flats[fi]
            if z == z0:
                # left boundary adjoining an increasing stretch gets a
                # singleton limit node before the flat takes over
                if i > 0 and z_all[i - 1] < z0 and v_all[i - 1] < v:
                    nodes.append((z, point_key(z, "left", v)))
                nodes.append((z, cell_key(fi)))
            elif z == z1:
                nodes.append((z, cell_key(fi)))
                if i + 1 < n and z_all[i + 1] > z1 and v_all[i + 1] > v:
                    nodes.append((z, point_key(z, "right", v)))
                fi += 1
            i += 1
            continue
        side = "right" if (i > 0 and z_all[i - 1] == z) else "left"
        nodes.append((z, point_key(z, side, v)))
        i += 1

    z_nodes = np.array([z for z, _ in nodes])
    node_problem = np.array([k for _, k in nodes], dtype=int)

    weights = np.zeros(len(kinds))
    for c in range(len(flats)):
        k = key_of.get(("cell", c))
        if k is not None:
            weights[k] = flats[c][1] - flats[c][0]
    # trapezoid weights over maximal runs of singleton nodes
    run = []
    for j, (z, k) in enumerate(nodes):
        if kinds[node_problem[j]][0] == "point":
            run.append(j)
        else:
            _accumulate_run(run, nodes, node_problem, weights)
            run = []
    _accumulate_run(run, nodes, node_problem, weights)
    return _Problems(z_nodes, node_problem, kinds, np.asarray(r0), weights, labels)


def _accumulate_run(run, nodes, node_problem, weights):
    if len(run) < 2:
        return
    zs = np.array([nodes[j][0] for j in run])
    w = np.zeros(len(run))
    dz = np.diff(zs)
    w[:-1] += dz / 2.0
    w[1:] += dz / 2.0
    for j, wt in zip(run, w):
        weights[node_problem[j]] += wt


def _demand_matrix(problems, slices):
    """Per-problem demand samples, one column per time slice.

    Cell problems take the exact mean of the slice quantile over the cell;
    point problems take the one-sided slice value at their percentile.
    """
    out = np.empty((len(problems.kinds), len(slices)))
    ic = np.array([k for k, kind in enumerate(problems.kinds) if kind[0] == "cell"],
                  dtype=int)
    cells = np.array([problems.kinds[k][1:3] for k in ic]).reshape(-1, 2)
    pts_left = [(k, kind[1]) for k, kind in enumerate(problems.kinds)
                if kind[0] == "point" and kind[2] == "left"]
    pts_right = [(k, kind[1]) for k, kind in enumerate(problems.kinds)
                 if kind[0] == "point" and kind[2] == "right"]
    zl = np.array([z for _, z in pts_left])
    zr = np.array([z for _, z in pts_right])
    il = np.array([k for k, _ in pts_left], dtype=int)
    ir = np.array([k for k, _ in pts_right], dtype=int)
    for j, qd in enumerate(slices):
        if len(ic):
            out[ic, j] = cell_means(qd, cells)
        if len(il):
            out[il, j] = qd(zl, side="left")
        if len(ir):
            out[ir, j] = qd(zr, side="right")
    return out


def _check_order(problems, t, r, alpha=None):
    """Scalar trajectories reassemble monotonically; atom levels stay strict.

    A zero atom gap is reported apart from a crossing; given ``alpha`` (a
    horizon ``t[-1]`` over which gaps decay), as likely float saturation.
    """
    order = np.argsort(problems.r0, kind="stable")
    rs = r[order]
    if np.any(np.diff(rs, axis=0) < -1e-12):
        raise NumericalError("regimes", "scalar trajectories crossed during reassembly")
    cells = [k for k, kind in enumerate(problems.kinds) if kind[0] == "cell"]
    if len(cells) > 1:
        gap = np.diff(r[cells], axis=0)
        if np.any(gap < 0):
            raise NumericalError("regimes", "atom trajectories crossed")
        merged = np.flatnonzero(np.any(gap == 0, axis=0))
        if len(merged):
            msg = f"atom trajectories merged at t={t[merged[0]]:g}: their gap is exactly zero"
            if alpha is not None:
                msg += (f"; float saturation is likely when T/alpha >> 1 "
                        f"(T/alpha = {t[-1] / alpha:g})")
            raise NumericalError("regimes", msg)


def _assemble(problems, t_grid, r, u):
    Q = r[problems.node_problem].T.copy()
    U = u[problems.node_problem].T.copy()
    Q = np.maximum.accumulate(Q, axis=1)  # deterministic guard, no-op when ordered
    return QuantileReassembledVelocity(t_grid, problems.z_nodes, Q, U)


def _densities_from_rows(vel, domain, save_every=1):
    """Path of every ``save_every``-th row of ``vel.Q``, and of the last."""
    keep = list(range(0, len(vel.t_nodes), save_every))
    if keep[-1] != len(vel.t_nodes) - 1:
        keep.append(len(vel.t_nodes) - 1)
    return QuantilePath(vel.t_nodes[keep], vel.z_nodes, vel.Q[keep], domain)


# ---------------------------------------------------------------------------
# solvers

def solve_general(scenario, refine=128, save_every=1):
    """Optimal control for an arbitrary demand signal over a finite horizon.

    Builds the partition from the initial resource quantile, averages the
    demand against it, solves the scalar family, and maps the reassembled
    percentile solution back to a spatial velocity field.  The reported
    ``cost`` is the decomposed sum (weighted scalar costs plus the floor);
    the quadrature breakdown of the simulated trajectory is attached for
    cross-checking.
    """
    if scenario.horizon is None:
        raise ConfigError("solve_general needs a finite horizon")
    T, nt, alpha = scenario.horizon, scenario.nt, scenario.alpha
    t_grid = np.linspace(0.0, T, nt + 1)
    q0 = quantile_of(scenario.resource)
    part = build_partition(q0)
    slices = [scenario.demand.quantile_at(t) for t in t_grid]
    has_continuum = len(part.singleton_spans()) > 0
    problems = _problem_structure(
        q0, refine=refine if has_continuum else 0,
        knots=_demand_jump_knots(slices) if has_continuum else None)
    d = _demand_matrix(problems, slices)

    params = lq.LQParams(alpha, T, nt)
    fam = lq.solve_family(params, problems.r0, d)
    _check_order(problems, t_grid, fam.r, alpha)
    K = limit_constant_K(t_grid, slices, part)
    cost = float(np.sum(problems.weights * fam.cost) + K)

    vel = _assemble(problems, t_grid, fam.r, fam.u)
    qvel = GridQuantileVelocity(problems.z_nodes, t_grid, vel.U)
    path = _densities_from_rows(vel, scenario.resource.domain, save_every)
    saved = np.searchsorted(t_grid, path.t)  # the path's times are grid times
    breakdown = evaluate_cost(path, vel, [slices[j] for j in saved], alpha, limit=K)

    family = ScalarFamily(t_grid, problems.labels, problems.weights,
                          fam.r, fam.u, fam.y, fam.d, fam.p, fam.cost)
    return OptimalControlSolution(t_grid, path, vel, qvel, breakdown, cost,
                                  part, family)


class StaticOptimalVelocity(QuantileReassembledVelocity):
    """Error-feedback field of the static regime, exact at any time.

    The percentile trajectory is the convex combination
    ``phi_r(t) * Q0 + (1 - phi_r(t)) * Qbar`` and the percentile velocity is
    ``-(p(t)/alpha^2) (Q - Qbar)``, so no time grid enters the evaluation.
    """

    def __init__(self, params, z_nodes, q0_vals, qbar_vals, t_nodes):
        self.params = params
        self.q0_vals = np.asarray(q0_vals, float)
        self.qbar_vals = np.asarray(qbar_vals, float)
        Q, U = self._row(np.asarray(t_nodes, float)[:, None])
        super().__init__(t_nodes, z_nodes, Q, U)

    def _row(self, t):
        phi = lq.transition_r(self.params, t, 0.0)
        row = phi * self.q0_vals  # in place below: t may be a whole time column
        row += (1.0 - phi) * self.qbar_vals
        p = lq.riccati(self.params)(t)
        u = row - self.qbar_vals
        u *= -(p / self.params.alpha ** 2)
        return row, u

    def slice_arrays(self, t):
        t = float(t)
        k = int(np.searchsorted(self.t_nodes, t))
        if k < len(self.t_nodes) and self.t_nodes[k] == t:
            return self.Q[k], self.U[k]  # equal to ``_row(t)``, stored
        return self._row(t)


def solve_static(scenario, save_every=1):
    """Closed-form solution for a constant-in-time demand.

    The trajectory traverses the Wasserstein geodesic from the initial
    resource to the partition-averaged demand at rate ``1 - phi_r(t, 0)``;
    the optimal cost in closed form is
    ``W2^2(R0, Dbar) * alpha * tanh(T/alpha) + T * W2^2(D, Dbar)``.
    """
    if not isinstance(scenario.demand, StaticDemand):
        raise ConfigError("solve_static requires a static demand")
    if scenario.horizon is None:
        raise ConfigError("solve_static needs a finite horizon")
    T, nt, alpha = scenario.horizon, scenario.nt, scenario.alpha
    t_grid = np.linspace(0.0, T, nt + 1)
    q0 = quantile_of(scenario.resource)
    part = build_partition(q0)
    qd = scenario.demand.quantile_at(0.0)
    qbar = average_wrt_partition(qd, part)

    z_nodes, V = _pwlin.align([(q0.z, q0.values), (qbar.z, qbar.values)])
    params = lq.LQParams(alpha, T, nt)
    vel = StaticOptimalVelocity(params, z_nodes, V[0], V[1], t_grid)
    qvel = GridQuantileVelocity(z_nodes, t_grid, vel.U)

    w2_reach = float(np.sqrt(max(_pwlin.integral_sq_diff(
        q0.z, q0.values, qbar.z, qbar.values), 0.0)))
    K = T * _pwlin.integral_sq_diff(qbar.z, qbar.values, qd.z, qd.values)
    closed = w2_reach ** 2 * alpha * np.tanh(T / alpha) + K

    path = _densities_from_rows(vel, scenario.resource.domain, save_every)
    breakdown = evaluate_cost(path, vel, [qd] * len(path), alpha, limit=K)

    phi = lq.transition_r(params, t_grid, 0.0)
    p_t = lq.riccati(params)(t_grid)
    dbar = cell_means(qd, part.cells)[:, None]
    r_cells = phi * part.levels[:, None] + (1.0 - phi) * dbar
    d_cells = np.broadcast_to(dbar, r_cells.shape).copy()
    fam = ScalarFamily(
        t_grid, [f"cell{c}" for c in range(part.n_cells)], part.masses,
        r_cells, -(p_t / alpha ** 2) * (r_cells - dbar), -p_t * dbar, d_cells, p_t,
        lq.static_cost(params, r_cells[:, 0], dbar[:, 0]),
    )
    return OptimalControlSolution(t_grid, path, vel, qvel, breakdown,
                                  float(closed), part, fam,
                                  closed_form_cost=float(closed))


class PeriodicVelocity(QuantileReassembledVelocity):
    """Steady-state field over one period, extended periodically in time."""

    def slice_arrays(self, t):
        period = self.t_nodes[-1]
        return super().slice_arrays(float(t) % period)


def solve_periodic(scenario, n_harmonics=None, refine=128):
    """Infinite-horizon steady state for a periodic demand.

    Per-problem demand samples over one period are filtered harmonic by
    harmonic with the zero-phase gain ``1 / (alpha^2 w^2 + 1)`` (truncated at
    ``n_harmonics``; the neglected tail of the returned trajectory decays
    like ``w**-2``).  The reported cost is the infinite-horizon average,
    including the full untruncated tracking residual and the averaging
    floor.  A closed-form warm-up of length ``3 * alpha`` from the initial
    resource is attached; steady-state behavior does not depend on it.
    """
    demand = scenario.demand
    if not isinstance(demand, PeriodicDemand):
        raise ConfigError("solve_periodic requires a periodic demand")
    period = demand.period
    nt = scenario.nt
    alpha = scenario.alpha
    if n_harmonics is None:
        n_harmonics = scenario.n_harmonics
    if n_harmonics < 1:
        raise ConfigError("n_harmonics must be at least 1")

    t_samp = np.arange(nt) * (period / nt)
    q0 = quantile_of(scenario.resource)
    part = build_partition(q0)
    slices = [demand.quantile_at(t) for t in t_samp]
    has_continuum = len(part.singleton_spans()) > 0
    problems = _problem_structure(
        q0, refine=refine if has_continuum else 0,
        knots=_demand_jump_knots(slices) if has_continuum else None)
    d = _demand_matrix(problems, slices)

    coef = np.fft.rfft(d, axis=-1) / nt
    k = np.arange(coef.shape[-1])
    omega = 2.0 * np.pi * k / period
    gain = 1.0 / (alpha ** 2 * omega ** 2 + 1.0)
    keep = k <= n_harmonics
    r_hat = np.where(keep, coef * gain, 0.0)
    u_hat = 1j * omega * r_hat
    r = np.fft.irfft(r_hat, n=nt) * nt
    u = np.fft.irfft(u_hat, n=nt) * nt

    # average per-problem cost: filtered weight below the cutoff, full
    # tracking residual above it (the truncated trajectory does not move)
    mult = np.full(len(k), 2.0)
    mult[0] = 1.0
    if nt % 2 == 0:
        mult[-1] = 1.0
    w_sq = (alpha * omega) ** 2 / (alpha ** 2 * omega ** 2 + 1.0)
    per_k = np.where(keep, w_sq, 1.0) * mult * np.abs(coef) ** 2
    J = np.sum(per_k, axis=-1)

    t_closed = np.concatenate([t_samp, [period]])
    slices_closed = slices + [slices[0]]
    K_avg = limit_constant_K(t_closed, slices_closed, part) / period
    cost = float(np.sum(problems.weights * J) + K_avg)

    r_closed = np.column_stack([r, r[:, 0]])
    u_closed = np.column_stack([u, u[:, 0]])
    d_closed = np.column_stack([d, d[:, 0]])
    _check_order(problems, t_closed, r_closed)
    vel = PeriodicVelocity(t_closed, problems.z_nodes,
                           r_closed[problems.node_problem].T,
                           u_closed[problems.node_problem].T)
    qvel = GridQuantileVelocity(problems.z_nodes, t_closed,
                                u_closed[problems.node_problem].T)
    path = _densities_from_rows(vel, scenario.resource.domain)
    breakdown = evaluate_cost(path, vel, slices_closed, alpha, limit=K_avg * period,
                              average=True)

    y = -alpha ** 2 * u_closed - alpha * r_closed
    family = ScalarFamily(t_closed, problems.labels, problems.weights,
                          r_closed, u_closed, y, d_closed,
                          np.full(nt + 1, alpha), J)
    table = _frequency_table(problems, coef, r_hat, omega, n_harmonics)
    warm = _warmup_path(scenario, problems, vel)
    return OptimalControlSolution(t_closed, path, vel, qvel, breakdown, cost,
                                  part, family, period=period,
                                  frequency_table=table, warmup=warm)


def _frequency_table(problems, coef, r_hat, omega, n_harmonics):
    rows = []
    kmax = min(n_harmonics, coef.shape[-1] - 1)
    for i, label in enumerate(problems.labels):
        for kk in range(kmax + 1):
            d_abs = abs(coef[i, kk])
            r_abs = abs(r_hat[i, kk])
            rows.append((label, kk, omega[kk], d_abs, r_abs,
                         r_abs / d_abs if d_abs > 0 else np.nan))
    return rows


def _warmup_path(scenario, problems, vel, n_steps=200):
    """Closed-loop relaxation from the initial resource toward steady state.

    The warm-up loop ``rdot = -(alpha r + y_ss(t)) / alpha^2`` has the
    periodic steady state ``r_ss`` as a particular solution, so over
    ``[0, 3 alpha]`` it is ``r_ss(t) + exp(-t/alpha) (r(0) - r_ss(0))``.
    """
    alpha = scenario.alpha
    period = vel.t_nodes[-1]
    tw = np.linspace(0.0, 3.0 * alpha, n_steps + 1)
    r0 = problems.r0[problems.node_problem].astype(float)
    decay = np.exp(-tw / alpha)
    # r0 + (r_ss - r_ss) at t = 0, so the first row is the initial resource exactly
    rows = [w * r0 + (_time_blend(vel.t_nodes, vel.Q, t % period) - w * vel.Q[0])
            for t, w in zip(tw, decay)]
    return QuantilePath(tw, vel.z_nodes, np.maximum.accumulate(rows, axis=1),
                        scenario.resource.domain)


# ---------------------------------------------------------------------------
# cost evaluation

def evaluate_cost(trajectory, velocity, demand, alpha, limit=None, average=False):
    """Realized cost of a trajectory/velocity pair against a demand signal.

    ``demand`` is a ``DemandSignal`` or the sequence of demand quantiles at
    ``trajectory.t``.  The assignment term integrates squared slice
    distances, read from the quantile rows of a ``QuantilePath``; the
    motion term is computed twice, once in space (``int V^2 R dx``) and once
    in percentile coordinates (``int U^2 dz`` with ``U = V o Q``), and the
    two must agree to ``MOTION_IDENTITY_TOL`` per slice.  With
    ``average=True`` the integrals are divided by the spanned time.
    """
    t = np.asarray(trajectory.t, float)
    n = len(t)
    if isinstance(demand, DemandSignal):
        demand = [demand.quantile_at(tj) for tj in t]
    if len(demand) != n:
        raise ValueError(f"{len(demand)} demand slices for {n} trajectory times")
    if isinstance(trajectory, QuantilePath):
        a_t = _assignment_rows(trajectory, demand)
        quantile = trajectory.quantile
    else:
        quantiles = [trajectory.quantile(j) for j in range(n)]
        a_t = np.array([_pwlin.integral_sq_diff(qr.z, qr.values, qd.z, qd.values)
                        for qr, qd in zip(quantiles, demand)])
        quantile = quantiles.__getitem__
    if hasattr(velocity, "slice_arrays") and hasattr(velocity, "z_nodes"):
        U = np.vstack([velocity.slice_arrays(tj)[1] for tj in t])
        mz_t = _motion_z_rows(velocity.z_nodes, U)
    else:
        mz_t = np.array([_motion_z(quantile(j), velocity, t[j]) for j in range(n)])
    mx_t = np.empty(n)
    for j in range(n):
        mx_t[j] = _motion_x(trajectory[j], velocity, t[j])
        scale = max(1.0, abs(mx_t[j]))
        if abs(mx_t[j] - mz_t[j]) > MOTION_IDENTITY_TOL * scale:
            raise NumericalError(
                "regimes",
                f"motion-cost identity violated at t={t[j]:g}: "
                f"x-integral {mx_t[j]!r} vs z-integral {mz_t[j]!r}",
                tolerance=MOTION_IDENTITY_TOL)
    assignment = float(np.trapezoid(a_t, t))
    motion = float(np.trapezoid(mz_t, t))
    if average:
        span = float(t[-1] - t[0])
        assignment /= span
        motion /= span
    total = assignment + alpha ** 2 * motion
    return CostBreakdown(assignment, motion, total, limit,
                         t=t, assignment_t=a_t, motion_x_t=mx_t, motion_z_t=mz_t)


def _assignment_rows(path, demand):
    """Squared L2 distance of each quantile row of ``path`` to its demand slice.

    The rows that share one demand quantile (a static demand) are
    integrated as one stack; each row reads as ``path.quantile(k)`` does.
    """
    a_t = np.empty(len(path))
    groups = {}
    for j, qd in enumerate(demand):
        groups.setdefault(id(qd), []).append(j)
    for js in groups.values():
        qd = demand[js[0]]
        rows = np.maximum.accumulate(path.Q[js], axis=-1)
        a_t[js] = _pwlin.integral_sq_diff(path.z_nodes, rows, qd.z, qd.values)
    return a_t


_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)


def _motion_x(r, velocity, t, min_sub=4):
    """Spatial quadrature of ``V(x, t)^2`` against the density.

    Cells are split at the velocity's own spatial knots when it exposes
    them (otherwise into ``min_sub`` equal pieces), making the integrand
    piecewise quadratic; two-point Gauss nodes (interior, so one-sided
    limits at knots never matter) integrate each piece exactly.  The atoms
    and both Gauss nodes of every piece go through one velocity call.
    """
    if not len(r.edges):  # atoms only: skip the piece bookkeeping
        return float(np.sum(r.atom_m * np.asarray(velocity(r.atom_x, t)) ** 2))
    if hasattr(velocity, "slice_arrays"):
        cuts, rho = r.cells_split_at(velocity.slice_arrays(t)[0])
        lo, hi = cuts[:-1], cuts[1:]
    else:
        pts = np.linspace(r.edges[:-1], r.edges[1:], min_sub + 1, axis=1)
        lo, hi = pts[:, :-1].ravel(), pts[:, 1:].ravel()
        rho = np.repeat(r.values, min_sub)
    keep = rho > 0
    lo, hi, rho = lo[keep], hi[keep], rho[keep]
    w = hi - lo
    mid = 0.5 * (lo + hi)
    x = np.concatenate([r.atom_x, mid - _GAUSS_OFFSET * w, mid + _GAUSS_OFFSET * w])
    g = np.asarray(velocity(x, t)) ** 2
    ga, g1, g2 = np.split(g, [len(r.atom_x), len(r.atom_x) + len(w)])
    return float(np.sum(r.atom_m * ga)) + float(np.sum(rho * (0.5 * w * (g1 + g2))))


def _motion_z(qr, velocity, t):
    """Percentile quadrature of ``V(Q(z, t), t)^2`` over [0, 1].

    Fields that carry their percentile samples are integrated from the
    ``U`` row directly: ``U`` is affine between consecutive nodes, so each
    segment of positive length contributes ``dz (u0^2 + u0 u1 + u1^2) / 3``
    exactly, and a duplicated node (a jump) only switches to the right
    limit; the nodes span [0, 1].  Generic fields are composed with the
    slice quantile and integrated with interior Gauss nodes.
    """
    if hasattr(velocity, "slice_arrays") and hasattr(velocity, "z_nodes"):
        return float(_motion_z_rows(velocity.z_nodes, velocity.slice_arrays(t)[1]))
    z = qr.z
    x_nodes = qr.values
    dz = np.diff(z)
    mid_z = 0.5 * (z[:-1] + z[1:])
    g1 = np.asarray(velocity(_pwlin.eval_pw(mid_z - _GAUSS_OFFSET * dz, z, x_nodes,
                                            side="left"), t)) ** 2
    g2 = np.asarray(velocity(_pwlin.eval_pw(mid_z + _GAUSS_OFFSET * dz, z, x_nodes,
                                            side="left"), t)) ** 2
    return float(np.sum(0.5 * dz * (g1 + g2)))


def _motion_z_rows(z_nodes, U):
    """``int U^2 dz`` over [0, 1] for each row of ``U`` on the nodes ``z_nodes``.

    ``take`` keeps the gathered rows C-contiguous, so each row sums exactly
    as a single row alone would.
    """
    dz = np.diff(z_nodes)
    seg = np.flatnonzero(dz > 0)
    u0, u1 = np.take(U, seg, axis=-1), np.take(U, seg + 1, axis=-1)
    return np.sum(dz[seg] * (u0 * u0 + u0 * u1 + u1 * u1) / 3.0, axis=-1)
