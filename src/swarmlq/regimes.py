"""Full-problem solvers: general finite-horizon, static, and periodic demand.

The solution pipeline is the same in every regime: build the level-set
partition of the initial resource quantile, average the demand quantile
against it, solve one scalar tracking problem per partition element, and
reassemble the percentile trajectories into a spatial velocity field.  Only
the scalar-family step differs between the solvers.  The general and
periodic solvers share one setup (``_setup``) and one order-checked
reassembly (``_assemble``); all three share one tail (``_finish``), which
saves the quantile path, costs it against the demand slices and builds the
solution.  In between, the scalar problems are arrays with one entry per
problem: a cell mask, the percentile span ``[z_lo, z_hi]`` (one point for a
singleton) and a right-limit mask; the reassembly nodes point into them
through ``node_problem``.  Their demand matrix and the floor ``K`` come
from a ``DemandStack``: work per demand sample, blended per slice.  Every
stack of rows indexed by time, of the demand or of the reassembled field,
is read through ``_pwlin.bracket`` and ``_pwlin.blend``.  The static
regime collapses to an error-feedback law whose trajectory traverses the
Wasserstein geodesic toward the nearest reachable density; the periodic
regime makes the general discretisation cyclic on one closed period, where
it is a zero-phase low-pass filter per harmonic.  Demand signals keep no
per-time cache: a solve queries a static demand once, a sampled demand
once per sample some slice reads, a periodic demand once per distinct
phase, and any other demand once per grid time.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import _pwlin, lq
from .errors import ConfigError, NumericalError
from .measures import (Density, QuantileFunction, density_from_quantile,
                       quantile_of)
from .partition import (DemandStack, LevelSetPartition, _blend_pair,
                        average_wrt_partition, build_partition, limit_constant_K)
from .transport import (DensityPath, GridQuantileVelocity, QuantilePath,
                        QuantileReassembledVelocity, VelocityField)

MOTION_IDENTITY_TOL = 1e-8
REFINE = 128  # pieces per unit percentile of the scalar problems' rising stretches

log = logging.getLogger("swarmlq")


# ---------------------------------------------------------------------------
# demand signals

class DemandSignal:
    """Time-indexed demand density; each query builds its quantile slice."""

    def density_at(self, t):
        raise NotImplementedError

    def quantile_at(self, t):
        return quantile_of(self.density_at(t))

    def stack(self, t, p=None):
        """The ``DemandStack`` of the slices at the times ``t``, averaged against ``p``.

        Each time is queried once, and each slice is its own sample.
        """
        return DemandStack([self.quantile_at(tk) for tk in t], p)


class StaticDemand(DemandSignal):
    def __init__(self, density):
        self.density = density
        self._quantile = None

    def density_at(self, t):
        return self.density

    def quantile_at(self, t):
        if self._quantile is None:  # one quantile, shared by every time
            self._quantile = super().quantile_at(0.0)
        return self._quantile

    def stack(self, t, p=None):
        """The one sample, read at every time ``t``."""
        return DemandStack([self.quantile_at(0.0)], p, np.zeros(len(t), int))


class PeriodicDemand(DemandSignal):
    """Demand given by a rule over one period, repeated for all time."""

    def __init__(self, period, rule):
        if period <= 0:
            raise ConfigError("period must be positive")
        self.period = float(period)
        self.rule = rule

    def density_at(self, t):
        return self.rule(float(t) % self.period)

    def quantile_at(self, t):
        return super().quantile_at(float(t) % self.period)

    def stack(self, t, p=None):
        """As ``DemandSignal.stack``, with one query per distinct phase ``t mod period``."""
        phase, j = np.unique(np.asarray(t, float) % self.period, return_inverse=True)
        return DemandStack([self.quantile_at(s) for s in phase], p, j)


class SampledDemand(DemandSignal):
    """Densities at sample times, interpolated along Wasserstein geodesics.

    Between samples the quantile is the convex combination of the two
    bracketing quantiles (displacement interpolation), which keeps every
    intermediate slice a valid density.  Each bracket's pair of quantiles
    is aligned on shared breakpoints once, on first use, for single queries
    and stacks alike.  One sample is a demand constant in time.
    """

    def __init__(self, times, densities):
        self.times = np.asarray(times, float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ConfigError("a sampled demand needs a 1-D sequence of sample times")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("sample times must be strictly increasing")
        if len(densities) != len(self.times):
            raise ConfigError("one density per sample time required")
        self.densities = list(densities)
        self._slices = [quantile_of(d) for d in densities]
        self._brackets = {}  # (q_j, q_j+1) -> their aligned (z, V), shared with stacks

    def density_at(self, t):
        return density_from_quantile(self.quantile_at(t))

    def quantile_at(self, t):
        j, w = _pwlin.bracket(self.times, t)
        j, w = int(j), float(w)
        if w == 0.0:
            return self._slices[j]
        return QuantileFunction(*_blend_pair(self._slices[j], self._slices[j + 1], w,
                                             self._brackets))

    def stack(self, t, p=None):
        """The slices at the times ``t`` as blends of the samples, averaged against ``p``.

        Only the samples some slice reads are queried, each once, at its
        own sample time, where ``quantile_at`` returns the sample itself.
        """
        j, w = _pwlin.bracket(self.times, t)
        used = DemandStack.reads(j, w)
        samples = dict(zip(used, (self.quantile_at(s) for s in self.times[used])))
        return DemandStack(samples, p, j, w, self._brackets)


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
    n_harmonics: int = 64  # periodic: frequency-table rows per problem

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.nt < 2:
            raise ConfigError("nt must be at least 2")
        if self.n_harmonics < 1:
            raise ConfigError("n_harmonics must be at least 1")


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
class ScalarFamily(lq.ScalarLQSolution):
    """Per-partition-element tracking solutions, for export and inspection.

    The arrays of ``lq.ScalarLQSolution`` hold one row per problem, ``(B,
    nt+1)``; ``p`` is shared by the family.
    """

    labels: list           # 'cell k' or 'z=0.123'
    weights: np.ndarray    # percentile mass carried by each problem


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
    cell: np.ndarray        # per problem: an atom cell, else a singleton point
    z_lo: np.ndarray        # per problem: cell start, or the point's percentile
    z_hi: np.ndarray        # per problem: cell end, or the point's percentile
    right: np.ndarray       # per problem: a point tracking the right limit
    r0: np.ndarray          # per problem initial state
    weights: np.ndarray     # percentile mass per problem (trapezoid for points)
    labels: list


def _demand_jump_knots(slices, cap=256):
    """Percentiles where any demand slice's quantile jumps (zero-mass gaps).

    ``slices`` may be a ``DemandStack``'s samples: a blend inside a bracket
    has a duplicated node exactly where either of its samples jumps, so the
    samples some slice reads jump where the slices do.  Scanning stops once
    more than ``cap`` knots are found; the slices left unscanned are
    reported through the ``swarmlq`` logger.
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


def _problem_structure(q0, refine=0, knots=()):
    """Scalar problems generated by the level sets of ``q0``.

    One problem per flat (atom) and one per singleton node.  Where a flat
    directly adjoins a strictly increasing stretch, a duplicate singleton
    node is inserted at the shared percentile so the one-sided limit of the
    continuum is tracked separately from the atom (the reassembled quantile
    may open a zero-mass gap there).  ``knots`` are percentiles where the
    demand jumps; each lands as a duplicated node pair so both one-sided
    limits get their own problem and the reassembled trajectory may split
    there too.

    Each node of the refined curve makes up to three reassembly nodes: a
    left point where an atom starts after a rise, its own cell or point, and
    a right point where an atom ends before a rise.  Equal problems are then
    adjacent: a problem starts wherever the kind or the key (the atom for a
    cell, the percentile for a point) changes.
    """
    LEFT, RIGHT, CELL = 1, 2, 3  # kinds of reassembly node; 0 makes none
    z, v = _pwlin.refine_rising(q0.z, q0.values, refine, knots)
    flats = q0.flat_intervals
    lo, hi, level = np.vstack([flats, np.full(3, np.nan)]).T  # the pad matches no node
    f = np.searchsorted(flats[:, 2], v)  # the atom at each node's level, if any
    in_flat = (v == level[f]) & (lo[f] <= z) & (z <= hi[f])
    at_lo, at_hi = in_flat & (z == lo[f]), in_flat & (z == hi[f])
    rise = (np.diff(z) > 0) & (np.diff(v) > 0)  # from node i to node i + 1
    repeat = np.r_[False, z[1:] == z[:-1]]
    slots = np.column_stack([
        np.where(at_lo & np.r_[False, rise], LEFT, 0),
        np.select([at_lo | at_hi, in_flat, repeat], [CELL, 0, RIGHT], LEFT),
        np.where(at_hi & np.r_[rise, False], RIGHT, 0)])
    node = np.nonzero(slots)[0]
    kind = slots[slots > 0]
    z_nodes, f_nodes = z[node], f[node]
    key = np.where(kind == CELL, f_nodes, z_nodes)
    new = np.r_[True, (kind[1:] != kind[:-1]) | (key[1:] != key[:-1])]
    node_problem = np.cumsum(new) - 1
    first = np.flatnonzero(new)
    cell, right = kind[first] == CELL, kind[first] == RIGHT
    fk, zk = f_nodes[first], z_nodes[first]

    # trapezoid weights over maximal runs of point nodes
    point = kind != CELL
    half = np.where(point[:-1] & point[1:], np.diff(z_nodes) / 2.0, 0.0)
    w = np.zeros(len(node))
    w[:-1] += half
    w[1:] += half
    weights = np.where(cell, hi[fk] - lo[fk],
                       np.bincount(node_problem[point], w[point], minlength=len(first)))
    labels = [f"cell{c}" if is_cell else f"z={zc:.6g}{'+' if r else '-'}"
              for is_cell, c, zc, r in zip(cell, fk, zk, right)]
    return _Problems(z_nodes, node_problem, cell, np.where(cell, lo[fk], zk),
                     np.where(cell, hi[fk], zk), right, v[node[first]], weights, labels)


def _demand_matrix(problems, stack):
    """Per-problem demand samples, one column per time slice of ``stack``.

    ``stack`` is a ``DemandStack`` averaged against the problems' cells.
    Cell problems take the exact mean of the slice quantile over the cell,
    which the partition average holds as its right limit at the cell start;
    point problems take the one-sided slice value at their percentile.  Both
    are linear in the slice, so one column per sample is blended per slice.
    """
    cell, right = problems.cell, problems.right
    left = ~cell & ~right
    cols = np.empty((len(problems.r0), len(stack.samples)))
    for k, (qd, qbar) in enumerate(zip(stack.samples, stack.averages)):
        cols[cell, k] = qbar(problems.z_lo[cell], side="right")
        cols[left, k] = qd(problems.z_lo[left], side="left")
        cols[right, k] = qd(problems.z_lo[right], side="right")
    return stack.blend(cols)


def _check_order(problems, t, r, alpha=None):
    """Scalar trajectories reassemble monotonically; atom levels stay strict.

    Rows may invert by rounding, up to ``1e-12`` of the largest ``|r|`` (at
    least 1).  A zero atom gap is reported apart from a crossing; given
    ``alpha`` (a horizon ``t[-1]`` over which gaps decay), as likely float
    saturation.
    """
    order = np.argsort(problems.r0, kind="stable")
    rs = r[order]
    if np.any(np.diff(rs, axis=0) < -1e-12 * max(1.0, np.max(np.abs(r), initial=0.0))):
        raise NumericalError("regimes", "scalar trajectories crossed during reassembly")
    gap = np.diff(r[problems.cell], axis=0)  # empty below two atoms
    if np.any(gap < 0):
        raise NumericalError("regimes", "atom trajectories crossed")
    merged = np.flatnonzero(np.any(gap == 0, axis=0))
    if len(merged):
        msg = f"atom trajectories merged at t={t[merged[0]]:g}: their gap is exactly zero"
        if alpha is not None:
            msg += (f"; float saturation is likely when T/alpha >> 1 "
                    f"(T/alpha = {t[-1] / alpha:g})")
        raise NumericalError("regimes", msg)


def _setup(scenario, t_grid):
    """Partition, demand stack, scalar problems and their demand matrix.

    The stack holds the demand at each time of ``t_grid``, as the demand
    builds it: a sampled demand's slices are blends of its samples, a
    periodic demand's repeat per phase, and any other demand's stack is its
    own slices.
    """
    q0 = quantile_of(scenario.resource)
    part = build_partition(q0)
    stack = scenario.demand.stack(t_grid, part)
    has_continuum = len(part.singleton_spans()) > 0  # where jump knots can land
    knots = _demand_jump_knots(stack.samples) if has_continuum else ()
    problems = _problem_structure(q0, refine=REFINE, knots=knots)
    return part, stack, problems, _demand_matrix(problems, stack)


def _assemble(problems, t_grid, r, u, alpha=None, field=QuantileReassembledVelocity):
    """Order-checked scalar trajectories, reassembled into ``field``."""
    _check_order(problems, t_grid, r, alpha)
    Q = r[problems.node_problem].T.copy()
    U = u[problems.node_problem].T.copy()
    Q = np.maximum.accumulate(Q, axis=1)  # deterministic guard, no-op when ordered
    return field(t_grid, problems.z_nodes, Q, U)


def _finish(scenario, t_grid, stack, vel, cost, K, part, family, save_every=1,
            average=False, **extra):
    """The solution around ``vel``: its saved path, costed against ``stack``.

    ``stack`` holds the demand at each time of ``t_grid``; ``K`` is the
    floor integral over ``t_grid``.
    """
    path = _densities_from_rows(vel, scenario.resource.domain, save_every)
    saved = np.searchsorted(t_grid, path.t)  # the path's times are grid times
    breakdown = evaluate_cost(path, vel, stack.take(saved), scenario.alpha,
                              average=average)
    breakdown.limit = K
    qvel = GridQuantileVelocity(vel.z_nodes, t_grid, vel.U)
    return OptimalControlSolution(t_grid, path, vel, qvel, breakdown, cost, part,
                                  family, **extra)


def _densities_from_rows(vel, domain, save_every=1):
    """Path of every ``save_every``-th row of ``vel.Q``, and of the last."""
    keep = list(range(0, len(vel.t_nodes), save_every))
    if keep[-1] != len(vel.t_nodes) - 1:
        keep.append(len(vel.t_nodes) - 1)
    return QuantilePath(vel.t_nodes[keep], vel.z_nodes, vel.Q[keep], domain)


# ---------------------------------------------------------------------------
# solvers

def solve_general(scenario, save_every=1):
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
    part, stack, problems, d = _setup(scenario, t_grid)

    fam = lq.solve_family(lq.LQParams(alpha, T, nt), problems.r0, d)
    vel = _assemble(problems, t_grid, fam.r, fam.u, alpha)
    K = limit_constant_K(t_grid, stack, part)
    cost = float(np.sum(problems.weights * fam.cost) + K)
    family = ScalarFamily(**vars(fam), labels=problems.labels, weights=problems.weights)
    return _finish(scenario, t_grid, stack, vel, cost, K, part, family, save_every)


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
        """State ``phi_r q0 + (1 - phi_r) qbar``, control ``-(p/alpha^2) (state - qbar)``.

        A column of times gives one row per time.
        """
        phi = lq.transition_r(self.params, t, 0.0)
        row = phi * self.q0_vals  # in place below: t may be a whole time column
        row += (1.0 - phi) * self.qbar_vals
        p = lq.riccati(self.params)(t)
        u = row - self.qbar_vals
        u *= -(p / self.params.alpha ** 2)
        return row, u

    def slice_arrays(self, t):
        if np.ndim(t):
            return self._row(np.asarray(t, float)[:, None])
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
    stack = scenario.demand.stack(t_grid)
    qd = stack.samples[0]
    qbar = average_wrt_partition(qd, part)

    z_nodes, V = _pwlin.align([(q0.z, q0.values), (qbar.z, qbar.values)])
    params = lq.LQParams(alpha, T, nt)
    vel = StaticOptimalVelocity(params, z_nodes, V[0], V[1], t_grid)

    w2_reach = float(np.sqrt(max(_pwlin.integral_sq_diff(
        q0.z, q0.values, qbar.z, qbar.values), 0.0)))
    K = T * _pwlin.integral_sq_diff(qbar.z, qbar.values, qd.z, qd.values)
    closed = float(w2_reach ** 2 * alpha * np.tanh(T / alpha) + K)

    p_t = lq.riccati(params)(t_grid)
    # each cell's rows are the field's at the cell's end node, whose first
    # copy carries the left limits: the cell's level and its mean
    end = np.searchsorted(z_nodes, part.cells[:, 1])
    r_cells, u_cells = vel.Q.T[end], vel.U.T[end]
    dbar = V[1, end][:, None]
    family = ScalarFamily(
        t_grid, p_t, -p_t * dbar, r_cells, u_cells,
        np.broadcast_to(dbar, r_cells.shape).copy(),
        lq.static_cost(params, r_cells[:, 0], dbar[:, 0]),
        labels=[f"cell{c}" for c in range(part.n_cells)], weights=part.masses)
    return _finish(scenario, t_grid, stack, vel, closed, K, part, family, save_every,
                   closed_form_cost=closed)


class PeriodicVelocity(QuantileReassembledVelocity):
    """Steady-state field over one period, extended periodically in time."""

    def slice_arrays(self, t):
        return super().slice_arrays(np.asarray(t) % self.t_nodes[-1])


def solve_periodic(scenario):
    """Infinite-horizon steady state for a periodic demand.

    ``lq.solve_family``'s stencil for ``e = r - d``, with ``e`` periodic over
    one period, is circulant: one FFT solves it exactly, with a real gain per
    harmonic that tends to ``1 / (alpha^2 w^2 + 1)`` as ``dt/alpha -> 0``.
    The cost is the per-period average of the exact step costs, plus the
    floor; ``n_harmonics`` sets only the frequency-table rows.  A closed-form
    warm-up of length ``3 * alpha`` from the initial resource is attached.
    """
    if not isinstance(scenario.demand, PeriodicDemand):
        raise ConfigError("solve_periodic requires a periodic demand")
    period = scenario.demand.period
    nt, alpha, n_harmonics = scenario.nt, scenario.alpha, scenario.n_harmonics
    t = np.linspace(0.0, period, nt + 1)  # one closed period: slice nt is slice 0
    part, stack, problems, d = _setup(scenario, t)

    # circulant stencil (diagonal 2 coth x, off-diagonals -csch x, right side
    # alpha (s_k - s_k-1)): per harmonic, e_hat = -4 sin^2(theta/2) d_hat / (x lam)
    h = period / nt
    x = h / alpha
    csch, th = lq._hyperbolic(x)
    coef = np.fft.rfft(d[:, :-1], axis=-1) / nt
    k = np.arange(coef.shape[-1])
    sin_sq = np.sin(np.pi * k / nt) ** 2  # sin^2(theta/2), theta = 2 pi k / nt
    lam = 2.0 * th + 4.0 * csch * sin_sq
    e_gain = -4.0 * sin_sq / (x * lam)
    e = np.fft.irfft(coef * e_gain, n=nt) * nt
    e = np.column_stack([e, e[:, 0]])
    r = d + e
    u, J = lq._step_closed_forms(alpha, h, e, np.diff(e, axis=-1), np.diff(d, axis=-1) / h)
    u = np.column_stack([u, u[:, 0]])
    J = J / period

    K = limit_constant_K(t, stack, part)
    cost = float(np.sum(problems.weights * J) + K / period)

    vel = _assemble(problems, t, r, u, field=PeriodicVelocity)
    y = -alpha ** 2 * u - alpha * r
    family = ScalarFamily(t, np.full(nt + 1, alpha), y, r, u, d, J,
                          labels=problems.labels, weights=problems.weights)
    omega = 2.0 * np.pi * k / period
    table = _frequency_table(problems, coef, (1.0 + e_gain) * coef, omega, n_harmonics)
    return _finish(scenario, t, stack, vel, cost, K, part, family, average=True,
                   period=period, frequency_table=table,
                   warmup=_warmup_path(scenario, problems, vel))


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
    tw = np.linspace(0.0, 3.0 * alpha, n_steps + 1)
    r0 = problems.r0[problems.node_problem].astype(float)
    decay = np.exp(-tw / alpha)[:, None]
    r_ss = _pwlin.blend(vel.Q, *_pwlin.bracket(vel.t_nodes, tw % vel.t_nodes[-1]))
    # r0 + (r_ss - r_ss) at t = 0, so the first row is the initial resource exactly
    rows = decay * r0 + (r_ss - decay * vel.Q[0])
    return QuantilePath(tw, vel.z_nodes, np.maximum.accumulate(rows, axis=1),
                        scenario.resource.domain)


# ---------------------------------------------------------------------------
# cost evaluation

def evaluate_cost(trajectory, velocity, demand, alpha, average=False):
    """Realized cost of a trajectory/velocity pair against a demand signal.

    ``demand`` is a ``DemandSignal``, a ``DemandStack`` or the sequence of
    demand quantiles at ``trajectory.t``; a signal is read as its stack at
    those times.  The assignment term integrates squared slice distances,
    read from the quantile rows of a ``QuantilePath``; the
    motion term is computed twice, once in space (``int V^2 R dx``) and once
    in percentile coordinates (``int U^2 dz`` with ``U = V o Q``), and the
    two must agree to ``MOTION_IDENTITY_TOL`` per slice.  A field with
    ``slice_arrays`` is read once: its ``U`` rows give the percentile
    integral and its ``Q`` rows the spatial knots.  For any other field both
    routes are Gauss rules on different pieces, which agree only where the
    field is nearly quadratic on each, so a correct path under a curved field
    (``sin(3x)``) can raise.  With ``average=True`` the integrals are
    divided by the spanned time.
    """
    t = np.asarray(trajectory.t, float)
    n = len(t)
    if isinstance(demand, DemandSignal):
        demand = demand.stack(t)
    elif not isinstance(demand, DemandStack):
        demand = DemandStack(demand)
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
        Q, U = velocity.slice_arrays(t)
        mz_t = _pwlin.integral_sq(velocity.z_nodes, U)
    else:
        Q = (None,) * n
        mz_t = np.array([_motion_z(quantile(j), velocity, t[j]) for j in range(n)])
    mx_t = np.empty(n)
    for j in range(n):
        mx_t[j] = _motion_x(trajectory[j], velocity, t[j], Q[j])
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
    return CostBreakdown(assignment, motion, total,
                         t=t, assignment_t=a_t, motion_x_t=mx_t, motion_z_t=mz_t)


def _assignment_rows(path, stack):
    """Squared L2 distance of each quantile row of ``path`` to its slice of ``stack``.

    The rows at one sample are integrated as one stack against it, and the
    rows strictly inside one bracket as one stack against their blends, on
    the bracket's aligned breakpoints; each row reads as ``path.quantile(k)``
    does.
    """
    rows = np.maximum.accumulate(path.Q, axis=-1)
    a_t = np.empty(len(path))
    for i, k, inside in stack.runs():
        qd = stack.samples[i]
        curve = stack.bracket(i, stack.w[k]) if inside else (qd.z, qd.values)
        a_t[k] = _pwlin.integral_sq_diff(path.z_nodes, rows[k], *curve)
    return a_t


_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)


def _motion_x(r, velocity, t, knots=None, min_sub=4):
    """Spatial quadrature of ``V(x, t)^2`` against the density.

    Cells are split at the field's spatial ``knots`` (its ``Q`` row at
    ``t``), making the integrand piecewise quadratic, or else into
    ``min_sub`` equal pieces; two-point Gauss nodes (interior, so one-sided
    limits at knots never matter) integrate each piece.  The atoms and both
    Gauss nodes of every piece go through one velocity call.
    """
    if not len(r.edges):  # atoms only: skip the piece bookkeeping
        return float(np.sum(r.atom_m * np.asarray(velocity(r.atom_x, t)) ** 2))
    if knots is not None:
        cuts, rho = r.cells_split_at(knots)
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

    The field is composed with the slice quantile and integrated with
    interior Gauss nodes.  ``evaluate_cost`` integrates a field that carries
    its percentile rows from its ``U`` rows instead.
    """
    z = qr.z
    x_nodes = qr.values
    dz = np.diff(z)
    mid_z = 0.5 * (z[:-1] + z[1:])
    g1 = np.asarray(velocity(_pwlin.eval_pw(mid_z - _GAUSS_OFFSET * dz, z, x_nodes,
                                            side="left"), t)) ** 2
    g2 = np.asarray(velocity(_pwlin.eval_pw(mid_z + _GAUSS_OFFSET * dz, z, x_nodes,
                                            side="left"), t)) ** 2
    return float(np.sum(0.5 * dz * (g1 + g2)))
