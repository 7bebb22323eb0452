"""Transport of densities by velocity fields, and quantile coordinates.

Densities are advected Lagrangian-style: atoms and histogram cell edges
follow characteristic curves, so atoms stay atoms, mass is conserved
exactly, and there is no numerical diffusion.  The same dynamics expressed
on the quantile function are plain additive integration at each percentile,
``dQ/dt (z, t) = U(z, t)``, where ``U = V o Q`` is the velocity pulled back
to percentile coordinates.  ``to_quantile_coords`` / ``from_quantile_coords``
convert between the two pictures; they are inverse to each other up to
equality almost everywhere on the support.
"""

from dataclasses import dataclass

import numpy as np

from . import _pwlin
from .errors import NumericalError
from .measures import Density, QuantileFunction, density_from_quantile, quantile_of

CROSS_TOL = 1e-9      # relative crossing tolerance for characteristics
FLAT_INPUT_TOL = 1e-9  # velocity spread allowed across one flat interval


class VelocityField:
    """Velocity as a function of position and time, vectorized in position."""

    def __call__(self, x, t):
        raise NotImplementedError


class CallableVelocity(VelocityField):
    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x, t):
        x = np.asarray(x, float)
        return np.broadcast_to(np.asarray(self.fn(x, t), float), x.shape).copy()


class GridVelocity(VelocityField):
    """Bilinear interpolation of samples on an (x, t) grid."""

    def __init__(self, x_nodes, t_nodes, values):
        self.x_nodes = np.asarray(x_nodes, float)
        self.t_nodes = np.asarray(t_nodes, float)
        self.values = np.asarray(values, float)  # (nt, nx)
        if self.values.shape != (len(self.t_nodes), len(self.x_nodes)):
            raise ValueError("values must have shape (len(t_nodes), len(x_nodes))")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("velocity samples must be finite")

    def __call__(self, x, t):
        row = _pwlin.blend(self.values, *_pwlin.bracket(self.t_nodes, t))
        return np.interp(np.asarray(x, float), self.x_nodes, row)


class QuantileVelocity:
    """Velocity as a function of percentile and time."""

    def __call__(self, z, t):
        raise NotImplementedError


class CallableQuantileVelocity(QuantileVelocity):
    def __init__(self, fn):
        self.fn = fn

    def __call__(self, z, t):
        z = np.asarray(z, float)
        return np.broadcast_to(np.asarray(self.fn(z, t), float), z.shape).copy()


class GridQuantileVelocity(QuantileVelocity):
    """Samples on (z, t) nodes; z may repeat to encode one-sided values."""

    def __init__(self, z_nodes, t_nodes, values):
        self.z_nodes = np.asarray(z_nodes, float)
        self.t_nodes = np.asarray(t_nodes, float)
        self.values = np.asarray(values, float)  # (nt, nz)

    def __call__(self, z, t, side="left"):
        row = _pwlin.blend(self.values, *_pwlin.bracket(self.t_nodes, t))
        return _pwlin.eval_pw(z, self.z_nodes, row, side=side)


@dataclass
class FlowMap:
    """Characteristic curves sampled on a space-time grid; monotone in x."""

    t: np.ndarray      # (nt+1,)
    x0: np.ndarray     # (nx,) launch points
    traj: np.ndarray   # (nt+1, nx) positions, traj[0] == x0

    def __call__(self, x, t):
        row = _pwlin.blend(self.traj, *_pwlin.bracket(self.t, t))
        return np.interp(np.asarray(x, float), self.x0, row)


@dataclass
class DensityPath:
    """Timeseries of densities produced by a simulation."""

    t: np.ndarray
    densities: list

    def __getitem__(self, k):
        return self.densities[k]

    def __len__(self):
        return len(self.densities)

    def quantile(self, k):
        """Quantile function of the ``k``-th slice."""
        return quantile_of(self[k])


class QuantilePath(DensityPath):
    """Density path held as quantile rows ``Q`` on shared percentile nodes.

    Row ``k`` is the quantile of the slice at ``t[k]``; the slice's domain
    is ``domain`` widened to cover the row.  The first time ``densities`` or
    ``path[k]`` is read, one ``density_from_quantile`` call builds every
    slice's density from the stacked rows; they are then kept as one list,
    so an assignment into it persists.
    """

    def __init__(self, t, z_nodes, Q, domain):
        self.t = np.asarray(t, float)
        self.z_nodes = np.asarray(z_nodes, float)
        self.Q = np.asarray(Q, float)
        self.domain = domain
        self._densities = None

    @property
    def densities(self):
        if self._densities is None:
            self._densities = density_from_quantile((self.z_nodes, self.Q), self.domain)
        return self._densities

    def __len__(self):
        return len(self.Q)

    def __repr__(self):  # the dataclass repr would build every density
        return f"QuantilePath({len(self)} slices, {len(self.z_nodes)} nodes)"

    def quantile(self, k):
        row = self.Q[k]
        domain = (min(self.domain[0], row[0]), max(self.domain[1], row[-1]))
        return QuantileFunction(self.z_nodes, row, domain=domain)


def _rk4_positions(pts, v, T, nt):
    """Integrate dx/dt = v(x, t) from all points at once; yields every step."""
    dt = T / nt
    x = np.asarray(pts, float).copy()
    yield 0.0, x.copy()
    for k in range(nt):
        t0 = k * dt
        k1 = v(x, t0)
        k2 = v(x + 0.5 * dt * k1, t0 + 0.5 * dt)
        k3 = v(x + 0.5 * dt * k2, t0 + 0.5 * dt)
        k4 = v(x + dt * k3, t0 + dt)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield (k + 1) * dt, x.copy()


def flow_map(v, T, nt, nx, domain):
    """Flow map of a velocity field from ``nx`` launch points across ``domain``."""
    x0 = np.linspace(domain[0], domain[1], nx)
    span = max(domain[1] - domain[0], 1.0)
    rows = np.empty((nt + 1, nx))
    ts = np.empty(nt + 1)
    for k, (t, x) in enumerate(_rk4_positions(x0, v, T, nt)):
        if np.any(np.diff(x) < -CROSS_TOL * span):
            raise NumericalError("transport", f"characteristics cross at t={t:g}",
                                 tolerance=CROSS_TOL)
        ts[k] = t
        rows[k] = np.maximum.accumulate(x)
    rows[0] = x0  # identity at t = 0, exactly
    return FlowMap(ts, x0, rows)


def advect_density(r0, v, T, nt, save_every=1):
    """Solve the 1D transport equation by the method of characteristics.

    Atoms ride their characteristic curves; histogram cell edges do too, and
    each cell keeps its mass (value = mass / new width).  Cells are split at
    interior atom positions first so the mass on either side of every atom
    is tracked exactly.  Total mass is conserved identically.  Atom order
    must stay strict: a merge means the velocity field is not admissible
    here and raises.
    """
    n_atoms = len(r0.atom_x)
    edges0, values0 = r0.cells_split_at(r0.atom_x)
    masses = values0 * np.diff(edges0)
    pts = np.concatenate([r0.atom_x, edges0])
    span = max(r0.domain[1] - r0.domain[0], 1.0)

    ts, dens = [], []
    for k, (t, x) in enumerate(_rk4_positions(pts, v, T, nt)):
        ax, edges = x[:n_atoms], x[n_atoms:]
        if n_atoms > 1 and np.any(np.diff(ax) <= 0):
            raise NumericalError("transport", f"atom trajectories merged at t={t:g}")
        if len(edges) > 1:
            widths = np.diff(edges)
            if np.any(widths <= CROSS_TOL * span):
                raise NumericalError("transport", f"grid cells collapsed at t={t:g}",
                                     tolerance=CROSS_TOL)
        if k % save_every == 0 or k == nt:
            lo = min(r0.domain[0], float(np.min(x))) if len(x) else r0.domain[0]
            hi = max(r0.domain[1], float(np.max(x))) if len(x) else r0.domain[1]
            dens.append(Density(
                (lo, hi),
                atoms=np.column_stack([ax, r0.atom_m]) if n_atoms else None,
                edges=edges,
                values=masses / np.diff(edges) if len(edges) else np.empty(0),
            ))
            ts.append(t)
    return DensityPath(np.asarray(ts), dens)


def _u_at_nodes(u, z, t):
    """Velocity at breakpoint nodes, resolving one-sided limits at jumps.

    The second node of a duplicated-z pair is the right limit of the
    quantile; a grid velocity stores both limits natively, while a generic
    callable is queried a relative nudge into the following segment.
    """
    right = np.zeros(len(z), dtype=bool)
    right[1:] = z[1:] == z[:-1]
    if isinstance(u, GridQuantileVelocity):
        vals = u(z, t, side="left")
        if right.any():
            vals[right] = u(z[right], t, side="right")
        return vals
    zq = z.copy()
    if right.any():
        idx = np.flatnonzero(right)
        nxt = np.searchsorted(z, z[idx], side="right")
        gap = np.where(nxt < len(z), z[np.minimum(nxt, len(z) - 1)] - z[idx], 0.0)
        zq[idx] = z[idx] + 1e-9 * gap
    return np.asarray(u(zq, t), float)


def evolve_quantile(q0, u, T, nt, save_every=1):
    """Integrate ``dQ/dt = U`` at each breakpoint percentile of ``q0``.

    The input constraint (one velocity per flat interval) is checked at the
    initial time; monotonicity in z is enforced at every step and a loss
    beyond tolerance raises.
    """
    z = q0.z
    _check_flat_input(q0, u, t=0.0)
    vals = q0.values.astype(float).copy()
    scale = max(abs(vals[0]), abs(vals[-1]), 1.0)
    dt = T / nt
    ts = [0.0]
    out = [QuantileFunction(z, vals.copy(), domain=q0.domain)]
    for k in range(nt):
        t0 = k * dt
        k1 = _u_at_nodes(u, z, t0)
        k2 = _u_at_nodes(u, z, t0 + 0.5 * dt)
        k4 = _u_at_nodes(u, z, t0 + dt)
        vals = vals + (dt / 6.0) * (k1 + 4.0 * k2 + k4)
        if np.any(np.diff(vals) < -1e-9 * scale):
            raise NumericalError("transport",
                                 f"quantile lost monotonicity at t={t0 + dt:g}",
                                 tolerance=1e-9)
        vals = np.maximum.accumulate(vals)
        if (k + 1) % save_every == 0 or k + 1 == nt:
            lo = min(q0.domain[0], float(vals[0]))
            hi = max(q0.domain[1], float(vals[-1]))
            out.append(QuantileFunction(z, vals.copy(), domain=(lo, hi)))
            ts.append((k + 1) * dt)
    return np.asarray(ts), out


def _check_flat_input(q, u, t):
    # flats are half-open on the left: z0 itself belongs to the previous
    # level set, so sample strictly inside plus the right endpoint
    flats = q.flat_intervals
    if not len(flats):
        return
    vel_scale = 0.0
    spreads = []
    for z0, z1, _ in flats:
        zz = z0 + (z1 - z0) * np.array([0.25, 0.5, 0.75, 1.0])
        vv = u(zz, t)
        spreads.append(np.ptp(vv))
        vel_scale = max(vel_scale, float(np.max(np.abs(vv))))
    if max(spreads) > FLAT_INPUT_TOL * max(vel_scale, 1.0):
        raise NumericalError("transport",
                             "velocity varies across a flat interval (input constraint)",
                             tolerance=FLAT_INPUT_TOL)


class QuantileReassembledVelocity(VelocityField):
    """Velocity field reconstructed from percentile-space data.

    Holds the quantile trajectory ``Q(z, t)`` and percentile velocity
    ``U(z, t)`` on a fixed set of z nodes.  Evaluation at (x, t) locates x
    in the time-t quantile: on the support this composes ``U`` with the CDF
    (one value per atom flat, interpolation on continuous stretches); off
    the support the value is extended piecewise-constant from the nearest
    support point.
    """

    def __init__(self, t_nodes, z_nodes, Q, U):
        self.t_nodes = np.asarray(t_nodes, float)
        self.z_nodes = np.asarray(z_nodes, float)
        self.Q = np.asarray(Q, float)
        self.U = np.asarray(U, float)

    def slice_arrays(self, t):
        """The ``Q`` and ``U`` rows at ``t``: one each, or one per time of a vector ``t``."""
        j, w = _pwlin.bracket(self.t_nodes, t)
        return _pwlin.blend(self.Q, j, w), _pwlin.blend(self.U, j, w)

    def slice_quantile(self, t):
        q_row, _ = self.slice_arrays(t)
        return QuantileFunction(self.z_nodes, q_row)

    def __call__(self, x, t):
        q_row, u_row = self.slice_arrays(t)
        x = np.asarray(x, float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        hi = np.searchsorted(q_row, x, side="left")
        lo = np.searchsorted(q_row, x, side="right") - 1
        out = np.empty_like(x)
        below = hi == 0
        above = lo == len(q_row) - 1
        out[below] = u_row[0]
        out[above] = u_row[-1]
        mid = ~(below | above)
        i_lo = lo[mid]
        i_hi = hi[mid]
        xm = x[mid]
        on_node = i_hi <= i_lo  # x coincides with a node value
        gap_or_span = ~on_node
        res = np.empty(len(xm))
        # x at a run of equal-Q nodes: an atom's flat may be flanked by the
        # one-sided limit nodes of adjoining continua, so take the run's middle
        res[on_node] = u_row[(i_hi[on_node] + i_lo[on_node]) // 2]
        il = i_lo[gap_or_span]
        ih = i_hi[gap_or_span]
        xg = xm[gap_or_span]
        ql, qh = q_row[il], q_row[ih]
        zl, zh = self.z_nodes[il], self.z_nodes[ih]
        is_gap = zh <= zl  # quantile jump: zero-mass region, snap to nearest side
        vals = np.empty(len(xg))
        near_right = (xg - ql) > (qh - xg)
        vals[is_gap & near_right] = u_row[ih[is_gap & near_right]]
        vals[is_gap & ~near_right] = u_row[il[is_gap & ~near_right]]
        span = ~is_gap
        w = (xg[span] - ql[span]) / (qh[span] - ql[span])
        vals[span] = (1.0 - w) * u_row[il[span]] + w * u_row[ih[span]]
        res[gap_or_span] = vals
        out[mid] = res
        return float(out[0]) if scalar else out


def to_quantile_coords(r, v, T, nt):
    """Pull a (density, velocity-field) pair back to percentile coordinates.

    Returns the initial quantile ``Q(., 0)`` and the percentile velocity
    ``U(z, t) = V(Q(z, t), t)`` sampled on the time grid, where the quantile
    trajectory follows the characteristics of ``v`` launched from the
    initial quantile values.
    """
    q0 = quantile_of(r)
    t_nodes = np.linspace(0.0, T, nt + 1)
    Q = np.empty((nt + 1, len(q0.z)))
    U = np.empty_like(Q)
    for k, (t, x) in enumerate(_rk4_positions(q0.values, v, T, nt)):
        Q[k] = x
        U[k] = v(x, t)
    u = GridQuantileVelocity(q0.z, t_nodes, U)
    u.quantile_trajectory = Q
    return q0, u


def from_quantile_coords(q, u, T, nt, r_companion=None):
    """Map percentile-space data back to a spatial velocity field.

    Evolves ``q`` under ``u`` on the time grid and wraps the result so that
    ``V(x, t) = U(F(x, t), t)`` on the support; at an atom the single flat
    value is used (the largest-percentile selection of the CDF makes this
    well defined), and off the support the nearest support point's velocity
    is extended.  When ``r_companion`` is given it must be the density whose
    quantile is ``q``: their L2 gap may be at most ``1e-9`` of the larger of 1
    and ``max|q|``, so rounding at a large offset passes.
    """
    if r_companion is not None:
        qr = quantile_of(r_companion)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(q.values))))
        if _pwlin.integral_sq_diff(qr.z, qr.values, q.z, q.values) > tol ** 2:
            raise ValueError("companion density does not match the quantile")
    _check_flat_input(q, u, t=0.0)
    t_nodes = np.linspace(0.0, T, nt + 1)
    if isinstance(u, GridQuantileVelocity) and hasattr(u, "quantile_trajectory") \
            and u.quantile_trajectory.shape == (nt + 1, len(q.z)) \
            and np.array_equal(u.z_nodes, q.z) and np.array_equal(u.t_nodes, t_nodes):
        Q = u.quantile_trajectory
        U = u.values
    else:
        ts, quantiles = evolve_quantile(q, u, T, nt)
        Q = np.vstack([qq.values for qq in quantiles])
        U = np.vstack([_u_at_nodes(u, q.z, t) for t in ts])
    return QuantileReassembledVelocity(t_nodes, q.z, Q, U)
