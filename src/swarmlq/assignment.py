"""Assignment plans coupling resource mass to demand mass.

In one dimension with squared-distance cost the optimal coupling is
comonotone: sweep the percentile axis and pair the resource quantile with
the demand quantile at equal percentiles.  Plans are stored as percentile
segments, each carrying a mass and affine position ranges on both sides;
atom-to-atom pieces are the degenerate segments.  This keeps marginals and
costs exact without discretizing anything.
"""

from dataclasses import dataclass

import numpy as np

from . import _pwlin
from .measures import Density, _cell_grid, densities_l1_distance, quantile_of

MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class AssignmentPlan:
    """Coupling as ordered percentile segments.

    Row ``(mass, x0, x1, y0, y1)`` transports ``mass`` spread uniformly in
    percentile across the segment, with resource positions ramping
    ``x0 -> x1`` and demand positions ``y0 -> y1``.
    """

    segments: np.ndarray  # (k, 5)

    def __post_init__(self):
        seg = np.asarray(self.segments, float).reshape(-1, 5)
        if np.any(seg[:, 0] < 0):
            raise ValueError("segment masses must be nonnegative")
        object.__setattr__(self, "segments", seg)

    @property
    def total_mass(self):
        return float(np.sum(self.segments[:, 0]))

    def atom_couplings(self):
        """Discrete (x, y, mass) rows for the atom-to-atom pieces."""
        seg = self.segments
        flat = (seg[:, 1] == seg[:, 2]) & (seg[:, 3] == seg[:, 4])
        rows = {}
        for m, x0, _, y0, _ in seg[flat]:
            rows[(x0, y0)] = rows.get((x0, y0), 0.0) + m
        return [(x, y, m) for (x, y), m in sorted(rows.items())]

    def marginal_x(self, domain=None):
        return _marginal(self.segments[:, [0, 1, 2]], domain)

    def marginal_y(self, domain=None):
        return _marginal(self.segments[:, [0, 3, 4]], domain)


def _marginal(rows, domain):
    """Density of one side of the plan: flats become atoms, ramps cells.

    Rows of mass ``<= 0`` are skipped (a NaN mass reaches ``Density``, which
    rejects it); ``Density`` merges the atoms.
    """
    m, a, b = rows[~(rows[:, 0] <= 0)].T
    ramp = b > a
    a_r, b_r = a[ramp], b[ramp]
    v = m[ramp] / (b_r - a_r)
    order = np.lexsort((v, b_r, a_r))
    a_r, b_r, v = a_r[order], b_r[order], v[order]
    slack = 1e-15 * np.maximum(1.0, np.abs(a_r[1:]))  # rounding, at any offset
    if np.any(a_r[1:] < b_r[:-1] - slack):
        raise ValueError("comonotone plan has overlapping ramps")
    [(edges, values)] = _cell_grid(a_r, b_r, v)
    atoms = np.column_stack([a[~ramp], m[~ramp]])
    if domain is None:
        pts = np.concatenate([atoms[:, 0], edges])
        domain = (pts.min(), pts.max()) if len(pts) else (0.0, 1.0)
    return Density(domain, atoms=atoms, edges=edges, values=values, normalize=False)


def optimal_plan(r, d):
    """Comonotone (monotone-rearrangement) coupling of two densities.

    Realizes the squared 2-Wasserstein distance; in particular
    ``plan_cost(optimal_plan(r, d)) == wasserstein2(r, d)**2``.  The plan's
    segments are the positive-length segments of the aligned quantiles.
    """
    qr = quantile_of(r)
    qd = quantile_of(d)
    z, V = _pwlin.align([(qr.z, qr.values), (qd.z, qd.values)])
    dz = np.diff(z)
    k = np.flatnonzero(dz > 0)
    return AssignmentPlan(np.column_stack([dz[k], V[0, k], V[0, k + 1], V[1, k], V[1, k + 1]]))


def plan_from_couplings(couplings):
    """Plan made of discrete pieces ``(x, y, mass)`` (need not be optimal)."""
    segs = [(m, x, x, y, y) for x, y, m in couplings]
    return AssignmentPlan(np.asarray(segs))


def plan_cost(plan):
    """Mass-weighted integral of squared displacement (exact per segment)."""
    seg = plan.segments
    e0 = seg[:, 3] - seg[:, 1]
    e1 = seg[:, 4] - seg[:, 2]
    return float(np.sum(seg[:, 0] * (e0 * e0 + e0 * e1 + e1 * e1) / 3.0))


@dataclass(frozen=True)
class MarginalReport:
    ok: bool
    l1_x: float
    l1_y: float
    mass_error: float

    def __bool__(self):
        return self.ok


def check_marginals(plan, r, d, tol=MARGINAL_TOL):
    """Reconstruct both marginals and compare against the given densities."""
    mass_err = abs(plan.total_mass - 1.0)
    try:
        mx = plan.marginal_x(domain=r.domain)
        my = plan.marginal_y(domain=d.domain)
    except ValueError:
        return MarginalReport(False, np.inf, np.inf, mass_err)
    l1x = densities_l1_distance(mx, r)
    l1y = densities_l1_distance(my, d)
    return MarginalReport(l1x <= tol and l1y <= tol and mass_err <= tol,
                          l1x, l1y, mass_err)
