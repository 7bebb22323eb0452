"""Normalized 1D densities and their CDF / quantile / Wasserstein algebra.

A :class:`Density` is a mixture of weighted point masses (atoms) and a
piecewise-constant nonnegative histogram, with total mass one.  With this
representation the CDF is piecewise linear with jumps at atoms, the
quantile function is piecewise linear with flats at atoms, and every
integral needed for the 2-Wasserstein distance is exact (closed-form on
merged breakpoints, no sampled quadrature).
"""

import numpy as np

from . import _pwlin

MASS_TOL = 1e-12
ATOM_MERGE_REL = 1e-12   # positions closer than this fraction of the domain merge


class Density:
    """Normalized nonnegative distribution on a closed interval.

    Parameters
    ----------
    domain : (float, float)
        Closed finite interval ``[x_lo, x_hi]`` containing all mass.
    atoms : sequence of (position, mass), optional
        Point masses.  Coincident positions (within ``ATOM_MERGE_REL`` of the
        domain length) are merged by summing masses.
    edges : array, optional
        Cell edges of the piecewise-constant part, strictly increasing.
    values : array, optional
        Density value per cell (mass per unit length), nonnegative.
    normalize : bool
        If true, rescale all masses so the total is exactly one.  Otherwise
        the total must already be one within ``MASS_TOL``.
    """

    def __init__(self, domain, atoms=None, edges=None, values=None, normalize=False):
        lo, hi = float(domain[0]), float(domain[1])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"domain [{lo}, {hi}] must be finite")
        if not hi > lo:
            raise ValueError(f"empty domain [{lo}, {hi}]")
        self.domain = (lo, hi)

        if atoms is not None and len(atoms):
            arr = np.asarray(atoms, dtype=float).reshape(-1, 2)
            ax, am = arr[:, 0], arr[:, 1]
        else:
            ax = np.empty(0)
            am = np.empty(0)
        if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(am))):
            raise ValueError("atom positions and masses must be finite")
        if np.any(am < 0):
            raise ValueError("atom masses must be nonnegative")
        ax, am = ax[am > 0], am[am > 0]
        order = np.argsort(ax, kind="stable")
        ax, am = ax[order], am[order]
        ax, am = _merge_atoms(ax, am, tol=ATOM_MERGE_REL * (hi - lo))

        if edges is not None and len(edges):
            edges = np.asarray(edges, dtype=float)
            values = np.asarray(values, dtype=float)
            if edges.ndim != 1 or len(edges) != len(values) + 1:
                raise ValueError("edges must have one more entry than values")
            if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(values))):
                raise ValueError("edges and cell values must be finite")
            if np.any(np.diff(edges) <= 0):
                raise ValueError("edges must be strictly increasing")
            if np.any(values < 0):
                raise ValueError("cell values must be nonnegative")
        else:
            edges = np.empty(0)
            values = np.empty(0)

        eps = ATOM_MERGE_REL * (hi - lo)
        if len(ax) and (ax[0] < lo - eps or ax[-1] > hi + eps):
            raise ValueError("atom outside domain")
        if len(edges) and (edges[0] < lo - eps or edges[-1] > hi + eps):
            raise ValueError("grid outside domain")

        total = float(np.sum(am) + np.sum(values * np.diff(edges)))
        if normalize:
            if total <= 0:
                raise ValueError("cannot normalize a zero density")
            am = am / total
            values = values / total
        elif abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total!r} differs from 1 by more than {MASS_TOL}")

        for a in (ax, am, edges, values):
            a.setflags(write=False)
        self.atom_x = ax
        self.atom_m = am
        self.edges = edges
        self.values = values

    @property
    def mass(self):
        return float(np.sum(self.atom_m) + np.sum(self.values * np.diff(self.edges)))

    @property
    def support(self):
        """Hull ``(min, max)`` of the points carrying mass."""
        pts = []
        if len(self.atom_x):
            pts += [self.atom_x[0], self.atom_x[-1]]
        pos = np.flatnonzero(self.values > 0)
        if len(pos):
            pts += [self.edges[pos[0]], self.edges[pos[-1] + 1]]
        if not pts:
            raise ValueError("density has no support")
        return (min(pts), max(pts))

    @classmethod
    def from_atoms(cls, positions, masses, domain=None, normalize=False):
        positions = np.asarray(positions, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if domain is None:
            lo, hi = positions.min(), positions.max()
            pad = max(hi - lo, 1.0)
            domain = (lo - 0.05 * pad, hi + 0.05 * pad)
        return cls(domain, atoms=np.column_stack([positions, masses]), normalize=normalize)

    @classmethod
    def from_histogram(cls, edges, values, domain=None, normalize=True):
        edges = np.asarray(edges, dtype=float)
        if domain is None:
            domain = (edges[0], edges[-1])
        return cls(domain, edges=edges, values=values, normalize=normalize)

    @classmethod
    def from_pdf(cls, fn, domain, nx=400):
        """Discretize a pdf by per-cell Simpson averages, then normalize."""
        edges = np.linspace(domain[0], domain[1], nx + 1)
        a, b = edges[:-1], edges[1:]
        vals = (fn(a) + 4.0 * fn(0.5 * (a + b)) + fn(b)) / 6.0
        vals = np.maximum(np.asarray(vals, dtype=float), 0.0)
        return cls(domain, edges=edges, values=vals, normalize=True)

    @classmethod
    def uniform(cls, domain):
        lo, hi = domain
        return cls(domain, edges=np.array([lo, hi]), values=np.array([1.0 / (hi - lo)]))

    def cells_split_at(self, points):
        """Cell edges refined by the ``points`` strictly inside the histogram.

        Returns ``(cuts, values)``: the refined edges and the density value
        of the cell each piece lies in.
        """
        e = self.edges
        if not len(e):
            return np.empty(0), np.empty(0)
        points = np.asarray(points, float)
        inner = points[(points > e[0]) & (points < e[-1])]
        cuts = np.union1d(e, inner)
        return cuts, self.values[np.searchsorted(e, cuts[:-1], side="right") - 1]

    def to_record(self):
        """Plain-dict form used by the CLI config / artifact files."""
        return {
            "domain": [self.domain[0], self.domain[1]],
            "atoms": [[float(x), float(m)] for x, m in zip(self.atom_x, self.atom_m)],
            "grid": {"edges": self.edges.tolist(), "values": self.values.tolist()},
        }

    @classmethod
    def from_record(cls, rec, normalize=False):
        grid = rec.get("grid") or {}
        return cls(
            tuple(rec["domain"]),
            atoms=rec.get("atoms") or None,
            edges=np.asarray(grid.get("edges") or [], dtype=float),
            values=np.asarray(grid.get("values") or [], dtype=float),
            normalize=normalize,
        )

    def __repr__(self):
        return (f"Density(domain={self.domain}, atoms={len(self.atom_x)}, "
                f"cells={len(self.values)})")


def _merge_atoms(ax, am, tol):
    if len(ax) < 2:
        return ax.copy(), am.copy()
    keep_x = [ax[0]]
    keep_m = [am[0]]
    for x, m in zip(ax[1:], am[1:]):
        if x - keep_x[-1] <= tol:
            keep_m[-1] += m
        else:
            keep_x.append(x)
            keep_m.append(m)
    return np.asarray(keep_x), np.asarray(keep_m)


class CDFFunction:
    """Right-continuous CDF as a breakpoint curve ``x -> F(x)`` on a domain."""

    def __init__(self, x, F, domain):
        x = np.asarray(x, dtype=float)
        F = np.asarray(F, dtype=float)
        if np.any(np.diff(x) < 0) or np.any(np.diff(F) < -1e-12):
            raise ValueError("CDF breakpoints must be nondecreasing")
        F = np.maximum.accumulate(F)
        self.x = x
        self.F = F
        self.domain = (float(domain[0]), float(domain[1]))

    def __call__(self, x, side="right"):
        return _pwlin.eval_pw(x, self.x, self.F, side=side)

    def jump_at(self, x):
        """Mass of the jump at ``x`` (zero where F is continuous)."""
        return float(self(x, side="right") - self(x, side="left"))


class QuantileFunction:
    """Monotone map ``[0, 1] -> domain``, left-continuous at jump points.

    Flats (maximal z-intervals of constant value) correspond to atoms of the
    underlying density; jumps correspond to zero-mass gaps.  The value at
    ``z = 0`` is the limit from the right, so ``Q(0)`` is the left end of the
    support rather than the domain edge.
    """

    def __init__(self, z, values, domain=None):
        z, values = _pwlin.dedupe(*_checked_rows(z, values))
        self.z = z
        self.values = values
        if domain is None:
            domain = (values[0], values[-1])
        self.domain = (float(domain[0]), float(domain[1]))

    def __call__(self, z, side="left"):
        return _pwlin.eval_pw(z, self.z, self.values, side=side)

    @property
    def flat_intervals(self):
        """Array of rows ``(z_lo, z_hi, value)``, one per atom."""
        return np.column_stack(_flats(self.z, self.values[None])[1:])

    def mean(self):
        return float(_pwlin.integral(self.z, self.values, 0.0, 1.0)[0])


def cdf_of(d):
    """CDF of a density: linear ramps over cells, jumps at atoms."""
    lo, hi = d.domain
    a, b, m = _support_items(d)
    c = np.cumsum(m)
    c_prev = np.concatenate([[0.0], c[:-1]])
    # an item opens with a point at its start unless the previous item ended there
    opens = a > np.concatenate([[lo], b[:-1]])
    x = _interleave(a, b, opens)
    F = _interleave(c_prev, c, opens)
    if hi > x[-1]:
        x, F = np.append(x, hi), np.append(F, c[-1])
    x = np.concatenate([[lo], x])
    F = np.concatenate([[0.0], F]) / c[-1]  # c == 1 within MASS_TOL; pins F(hi) = 1
    x, F = _pwlin.dedupe(x, F)
    return CDFFunction(x, F, d.domain)


def quantile_of(d):
    """Quantile function (generalized CDF inverse) of a density.

    Atoms become flats whose z-length equals the atom mass; zero-mass gaps
    interior to the support become jumps.
    """
    a, b, m = _support_items(d)
    if not len(a):
        raise ValueError("density has no support")
    c = np.cumsum(m)
    opens = np.ones(len(a), dtype=bool)
    opens[1:] = b[:-1] != a[1:]
    z = _interleave(np.concatenate([[0.0], c[:-1]]), c, opens) / c[-1]
    return QuantileFunction(z, _interleave(a, b, opens), domain=d.domain)


def _interleave(first, second, keep_first):
    """``first[i], second[i]`` in turn, dropping ``first[i]`` where not kept."""
    pairs = np.column_stack([first, second])
    return pairs[np.column_stack([keep_first, np.ones_like(keep_first)])]


def _support_items(d):
    """Atoms and positive cell pieces (cells split at atoms) along the axis.

    Returns ``(start, end, mass)`` per item; an atom has ``start == end``.
    At equal start an atom comes before the cell piece, so the CDF jumps
    before it resumes ramping.
    """
    cuts, vals = d.cells_split_at(d.atom_x)
    pos = vals > 0
    a = np.concatenate([d.atom_x, cuts[:-1][pos]])
    b = np.concatenate([d.atom_x, cuts[1:][pos]])
    m = np.concatenate([d.atom_m, vals[pos] * np.diff(cuts)[pos]])
    is_cell = np.repeat([0, 1], [len(d.atom_x), int(pos.sum())])
    order = np.lexsort((is_cell, a))
    return a[order], b[order], m[order]


def cdf_from_quantile(q):
    """Recover the CDF via ``F(x) = sup { z : Q(z) <= x }``.

    For breakpoint curves this is a coordinate swap: flats of Q become jumps
    of F and jumps of Q become flats of F.
    """
    x = q.values
    F = q.z
    lo, hi = q.domain
    if lo < x[0]:
        x = np.concatenate([[lo], x])
        F = np.concatenate([[0.0], F])
    if hi > x[-1]:
        x = np.concatenate([x, [hi]])
        F = np.concatenate([F, [1.0]])
    return CDFFunction(x, F, q.domain)


def _checked_rows(z, V):
    """Quantile breakpoints ``z`` and value rows ``V`` (one row, or a stack), checked.

    ``z`` must be nondecreasing and span ``[0, 1]`` within ``1e-9``; its ends
    are then set to 0 and 1 exactly.  Each row must be nondecreasing within
    ``1e-9`` of its scale (the larger of 1 and its end values) and is then
    made exactly monotone.
    """
    z = np.asarray(z, dtype=float)
    V = np.asarray(V, dtype=float)
    if z.ndim != 1 or V.shape[-1:] != z.shape or len(z) < 1:
        raise ValueError("breakpoint arrays must be nonempty and equal length")
    if np.any(np.diff(z) < 0):
        raise ValueError("quantile breakpoints must have nondecreasing z")
    if abs(z[0]) > 1e-9 or abs(z[-1] - 1.0) > 1e-9:
        raise ValueError("quantile must span z in [0, 1]")
    dV = np.diff(V, axis=-1)
    if np.any(dV < 0):  # only a dip needs the scale
        scale = np.maximum(np.maximum(np.abs(V[..., :1]), np.abs(V[..., -1:])), 1.0)
        if np.any(dV < -1e-9 * scale):
            raise ValueError("quantile values must be nondecreasing")
    z = z.copy()
    z[0], z[-1] = 0.0, 1.0
    return z, np.maximum.accumulate(V, axis=-1)


def density_from_quantile(q, domain=None):
    """Pushforward of the uniform density on [0, 1] through a quantile, or each row of a stack.

    ``q`` is a ``QuantileFunction``, which gives one ``Density``, or a pair
    ``(z, Q)`` of shared breakpoints and a ``(k, n)`` stack of value rows,
    checked as ``QuantileFunction`` checks its values, which gives a list of
    ``k`` densities.  Each density's domain is ``domain`` (by default
    ``q.domain``, or for a stack none) widened to cover its row, and padded
    when that leaves no interval (a constant row).

    Flats (runs of one value over a positive z length) map to atoms with
    mass equal to the flat length; increasing affine stretches map to cells
    with value ``dz / dx``; jumps map to zero-mass gaps.  Exact for
    piecewise-linear quantiles.  All rows are read in one array pass; only
    each ``Density`` is built per row.
    """
    if isinstance(q, QuantileFunction):
        return _densities(q.z, q.values[None], q.domain if domain is None else domain)[0]
    return _densities(*q, domain)


def _densities(z, rows, domain):
    rows = np.asarray(rows, dtype=float)
    z, Q = _checked_rows(z, rows)
    if Q.ndim != 2:
        raise ValueError("quantile rows must be a (k, n) stack")
    # each row's domain: its end values as given, widened as ``min`` and
    # ``max`` of plain floats would widen it (they keep the domain's end on a tie)
    lo, hi = rows[:, 0], rows[:, -1]
    if domain is not None:
        lo = np.where(lo < domain[0], lo, domain[0])
        hi = np.where(hi > domain[1], hi, domain[1])
    empty = ~(hi > lo)
    if np.any(empty):  # a constant row: pad so its atom has a real interval
        pad = np.maximum(1.0, np.abs(lo)) * 0.5
        lo, hi = np.where(empty, lo - pad, lo), np.where(empty, hi + pad, hi)
    k, n = Q.shape
    row, z_lo, z_hi, x = _flats(z, Q)
    atoms = _split_rows(np.column_stack([x, z_hi - z_lo]), np.bincount(row, minlength=k))
    dz = np.diff(z)
    dv = np.diff(Q, axis=1)
    cr, c = np.nonzero((dz > 0) & (dv > 0))
    # a cell opens at the first of its start's repeats, the node ``_pwlin.dedupe``
    # keeps (a repeat may differ from it in the sign of zero)
    kept = np.ones((k, n), dtype=bool)
    kept[:, 1:] = (dz != 0) | (dv != 0)
    start = np.maximum.accumulate(np.where(kept, np.arange(n), 0), axis=1)[cr, c]
    grids = _cell_grid(Q[cr, start], Q[cr, c + 1], dz[c] / dv[cr, c], cr, k)
    return [Density((lo[i], hi[i]), atoms=a, edges=e, values=v)
            for i, (a, (e, v)) in enumerate(zip(atoms, grids))]


def _flats(z, Q):
    """The runs of one value over a positive z length in each row of ``Q``.

    Returns ``(row, z_lo, z_hi, value)`` per run, in row order and along
    each row.
    """
    step = Q[:, 1:] != Q[:, :-1]
    starts = np.ones(Q.shape, dtype=bool)
    starts[:, 1:] = step
    ends = np.ones(Q.shape, dtype=bool)
    ends[:, :-1] = step
    row, first = np.nonzero(starts)
    z_lo, z_hi = z[first], z[np.nonzero(ends)[1]]
    keep = z_hi > z_lo
    return row[keep], z_lo[keep], z_hi[keep], Q[row, first][keep]


def _cell_grid(a, b, values, row=None, k=1):
    """Edges and values of the sorted cells ``[a, b]``, with each gap a zero-value cell.

    The cells of each of ``k`` rows (``row``, nondecreasing; all row 0 by
    default) make one grid; one ``(edges, values)`` pair is returned per
    row.  A cell adds its left edge only where it opens its row's grid or a
    gap precedes it; a cell that starts at or before the previous end
    continues the grid.
    """
    row = np.zeros(len(a), dtype=int) if row is None else row
    first = np.ones(len(a), dtype=bool)
    first[1:] = row[1:] != row[:-1]
    opens = first.copy()
    opens[1:] |= a[1:] > b[:-1]
    edges = _interleave(a, b, opens)
    values = _interleave(np.zeros(len(a)), values, opens & ~first)
    cells = np.bincount(row, minlength=k)
    n_edges = cells + np.bincount(row[opens], minlength=k)
    return list(zip(_split_rows(edges, n_edges), _split_rows(values, n_edges - (cells > 0))))


def _split_rows(a, counts):
    """``a`` cut into consecutive pieces of ``counts`` items, one view each."""
    ends = np.cumsum(counts).tolist()
    return [a[i:j] for i, j in zip([0] + ends[:-1], ends)]


def pushforward(d, f, nz=2048):
    """Push a density through a monotone nondecreasing map of the line.

    The image density has quantile ``f o Q_d``, so the map is applied to a
    refined set of quantile breakpoints and the result reconstructed.  Atoms
    land exactly at their mapped positions; curved stretches of ``f`` are
    piecewise-linearized with ``nz`` extra samples.
    """
    q = quantile_of(d)
    z, x = _pwlin.refine_rising(q.z, q.values, nz)
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("map must be vectorized over positions")
    dy = np.diff(y)
    scale = max(float(np.max(y) - np.min(y)), 1.0)
    if np.any(dy < -1e-9 * scale):
        raise ValueError("pushforward requires a monotone nondecreasing map")
    lo = min(d.domain[0], float(y[0]))
    hi = max(d.domain[1], float(y[-1]))
    return density_from_quantile(QuantileFunction(z, y), domain=(lo, hi))


def wasserstein2(a, b):
    """2-Wasserstein distance, computed as the L2 distance of quantiles.

    Exact for the atom-plus-histogram representation: the squared quantile
    difference is integrated in closed form on merged breakpoints.
    """
    return l2_quantile_distance(quantile_of(a), quantile_of(b))


def l2_quantile_distance(qa, qb):
    """L2([0,1]) distance between two quantile functions (exact)."""
    return float(np.sqrt(max(_pwlin.integral_sq_diff(qa.z, qa.values, qb.z, qb.values), 0.0)))


def densities_l1_distance(a, b):
    """L1 distance between the continuous parts plus atom mismatch mass.

    Atoms are compared exactly by position: unmatched atom mass counts in
    full.  Used by marginal checks.
    """
    grid = _pwlin.merged_grid(
        a.edges if len(a.edges) else np.empty(0),
        b.edges if len(b.edges) else np.empty(0),
    )
    tot = 0.0
    if len(grid) >= 2:
        va = _cell_values_on(a, grid)
        vb = _cell_values_on(b, grid)
        tot += float(np.sum(np.abs(va - vb) * np.diff(grid)))
    pos = np.unique(np.concatenate([a.atom_x, b.atom_x]))
    ma = np.zeros(len(pos))
    mb = np.zeros(len(pos))
    ma[np.searchsorted(pos, a.atom_x)] = a.atom_m
    mb[np.searchsorted(pos, b.atom_x)] = b.atom_m
    tot += float(np.sum(np.abs(ma - mb)))
    return tot


def _cell_values_on(d, grid):
    """Piecewise-constant values of the continuous part on a refining grid."""
    mid = 0.5 * (grid[:-1] + grid[1:])
    out = np.zeros(len(mid))
    if len(d.edges):
        idx = np.searchsorted(d.edges, mid, side="right") - 1
        ok = (idx >= 0) & (idx < len(d.values))
        out[ok] = d.values[idx[ok]]
    return out
