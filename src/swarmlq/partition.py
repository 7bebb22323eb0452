"""Level-set partitions of [0, 1] and averaging against them.

The level sets of a monotone initial quantile split the percentile axis
into finitely many intervals (one per atom) plus a continuum of singletons
(where the quantile increases strictly).  Averaging another quantile with
respect to this partition is the L2 projection onto partition-piecewise-
constant functions; the squared residual of that projection, integrated
over the horizon, is the floor below which no admissible control can push
the tracking cost.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _pwlin
from .measures import QuantileFunction, density_from_quantile, quantile_of


@dataclass(frozen=True)
class LevelSetPartition:
    """Interval cells ``(z_lo, z_hi]`` with strictly increasing levels.

    The complement of the cells is the singleton continuum; it is kept
    implicit (represented by whatever z-samples a caller chooses) since its
    index set is generally uncountable.
    """

    cells: np.ndarray   # (k, 2) interval bounds in z
    levels: np.ndarray  # (k,) value of the generating quantile on each cell

    def __post_init__(self):
        cells = np.asarray(self.cells, float).reshape(-1, 2)
        levels = np.asarray(self.levels, float)
        if len(cells) != len(levels):
            raise ValueError("one level per cell required")
        if np.any(np.diff(levels) <= 0):
            raise ValueError("cell levels must be strictly increasing")
        if np.any(cells[:, 1] <= cells[:, 0]):
            raise ValueError("cells must have positive length")
        if len(cells) > 1 and np.any(cells[1:, 0] < cells[:-1, 1]):
            raise ValueError("cells must be disjoint and ordered")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "levels", levels)

    @property
    def masses(self):
        return self.cells[:, 1] - self.cells[:, 0]

    @property
    def n_cells(self):
        return len(self.levels)

    def singleton_spans(self):
        """Maximal z-intervals occupied by singleton level sets."""
        lo = np.concatenate([[0.0], self.cells[:, 1]])
        hi = np.concatenate([self.cells[:, 0], [1.0]])
        return np.column_stack([lo, hi])[hi > lo]

    def to_rows(self):
        """Rows ``(z_lo, z_hi, level, mass)`` for export."""
        return [(c[0], c[1], l, c[1] - c[0])
                for c, l in zip(self.cells, self.levels)]


def build_partition(q0):
    """Level-set partition generated by an initial quantile.

    Interval cells are exactly the flats of ``q0``; everything else is the
    singleton continuum.
    """
    flats = q0.flat_intervals
    return LevelSetPartition(flats[:, :2], flats[:, 2])


def average_wrt_partition(qd, p):
    """L2 projection of a quantile onto partition-piecewise-constant maps.

    On each interval cell the value is the exact mean of ``qd`` over the
    cell; on the singleton continuum ``qd`` is returned unchanged.  The
    result is again a monotone quantile function.
    """
    lo, hi = p.cells[:, 0], p.cells[:, 1]
    means = cell_means(qd, p.cells)
    # the percentile axis reads gap 0, cell 0, gap 1, ..., cell k-1, gap k;
    # points sort by slot (2g+1 for gap g, 2c+2 for cell c), then stably by z
    gap_lo = np.concatenate([[0.0], hi])
    gap_hi = np.concatenate([lo, [1.0]])
    g = np.flatnonzero(gap_hi > gap_lo)
    gi = np.searchsorted(hi, qd.z, side="left")
    inner = (qd.z > gap_lo[gi]) & (qd.z < gap_hi[gi])
    k = len(means)
    # qd(0+) sits on the last node at z == 0 and qd(1-) on the first at z == 1
    ends = qd.values[[np.searchsorted(qd.z, 0.0, side="right") - 1,
                      np.searchsorted(qd.z, 1.0, side="left")]]
    if len(g):
        v_lo, v_hi = qd(gap_lo[g], side="right"), qd(gap_hi[g], side="left")
    else:
        v_lo = v_hi = np.empty(0)
    z = np.concatenate([[0.0], gap_lo[g], qd.z[inner], gap_hi[g], lo, hi, [1.0]])
    v = np.concatenate([ends[:1], v_lo, qd.values[inner], v_hi, means, means, ends[1:]])
    slot = np.concatenate([[0], 2 * g + 1, 2 * gi[inner] + 1, 2 * g + 1,
                           2 * np.arange(k) + 2, 2 * np.arange(k) + 2, [2 * k + 2]])
    order = np.lexsort((z, slot))
    z, v = _pwlin.dedupe(z[order], v[order])
    return QuantileFunction(z, v, domain=qd.domain)


def cell_means(qd, cells):
    """Exact mean of the quantile ``qd`` over each row ``(z_lo, z_hi)`` of ``cells``."""
    lo, hi = cells[:, 0], cells[:, 1]
    return _pwlin.integral(qd.z, qd.values, lo, hi) / (hi - lo)


def averaged_density(d, p):
    """Density whose quantile is the partition average of ``quantile_of(d)``.

    Each interval cell contributes an atom whose mass is the cell length;
    where the partition is singletons the density is unchanged.
    """
    return density_from_quantile(average_wrt_partition(quantile_of(d), p))


class DemandStack:
    """Demand quantiles at a run of times, as blends of a few sample quantiles.

    Slice ``k`` is sample ``j[k]`` where ``w[k] == 0``, and otherwise the
    displacement blend ``(1 - w[k]) q_j + w[k] q_{j+1}`` of two samples on
    their aligned breakpoints (``bracket``).  Cell means, the averaging
    residual and the distance to another quantile on shared nodes are linear
    or quadratic in the slice, so they are taken per sample, or per bracket
    in one stack; ``runs`` walks the slices that way.  Each sample's
    partition average against ``p`` is taken once, when ``averages`` is
    first read; a stack that is only costed needs no partition.  Only the
    samples some slice reads are kept.  Without ``j`` and ``w``, each of
    ``samples`` is one slice.  ``brackets`` holds each bracket's alignment,
    keyed by its pair of samples; a sampled demand passes its own, so that
    a bracket is aligned once in the demand's lifetime.
    """

    def __init__(self, samples, p=None, j=None, w=None, brackets=None):
        j = np.arange(len(samples)) if j is None else np.asarray(j, int)
        self.w = np.zeros(len(j)) if w is None else np.asarray(w, float)
        used = self.reads(j, self.w)
        self.j = np.searchsorted(used, j)
        self.samples = [samples[i] for i in used]
        self.p = p
        self.brackets = {} if brackets is None else brackets

    @staticmethod
    def reads(j, w):
        """Indices of the samples some slice reads: each ``j``, and ``j + 1`` inside a bracket.

        Sorted, so a bracket's two samples stay adjacent.
        """
        return np.unique(np.concatenate([j, j[w != 0] + 1]))

    def __len__(self):
        return len(self.j)

    def __getitem__(self, k):
        """The quantile of slice ``k``: its sample, or the blend inside its bracket."""
        j, w = int(self.j[k]), float(self.w[k])
        return self.samples[j] if w == 0.0 else QuantileFunction(*self.bracket(j, w))

    @cached_property
    def averages(self):
        """Each sample's partition average against ``p``, taken on first read."""
        return [average_wrt_partition(q, self.p) for q in self.samples]

    def take(self, k):
        """The stack of slices ``k`` alone, sharing this one's bracket alignments."""
        return DemandStack(self.samples, self.p, self.j[k], self.w[k], self.brackets)

    def runs(self):
        """The slices in runs ``(i, k, inside)``, in order of ``i``, sample before bracket.

        ``k`` indexes the slices at sample ``i``, or, ``inside``, those
        strictly inside the bracket from sample ``i`` to ``i + 1``.
        """
        run = 2 * self.j + (self.w != 0)
        order = np.argsort(run, kind="stable")
        for k in np.split(order, np.flatnonzero(np.diff(run[order])) + 1):
            i, inside = divmod(int(run[k[0]]), 2)
            yield i, k, bool(inside)

    def bracket(self, i, w):
        """Breakpoints and rows of the blends of samples ``i`` and ``i + 1`` at weights ``w``."""
        return _blend_pair(self.samples[i], self.samples[i + 1], w, self.brackets)

    def blend(self, cols):
        """Per-slice columns from per-sample ones: ``(1 - w) c_j + w c_{j+1}``."""
        return _pwlin.blend(cols, self.j, self.w, axis=-1)


def _blend_pair(qa, qb, w, brackets):
    """Displacement blends ``(1 - w) qa + w qb`` on the pair's aligned breakpoints.

    Returns ``(z, rows)``: one row per weight, or one row for a scalar
    ``w``.  The pair is aligned on first use and kept in ``brackets``,
    keyed by the two quantile objects.
    """
    if (qa, qb) not in brackets:
        brackets[qa, qb] = _pwlin.align([(qa.z, qa.values), (qb.z, qb.values)])
    z, V = brackets[qa, qb]
    return z, _pwlin.blend(V, np.zeros(np.shape(w), int), w)


def limit_constant_K(t_grid, qd_slices, p):
    """Tracking-cost floor: time integral of the squared averaging residual.

    ``qd_slices`` holds the demand quantile at each time in ``t_grid``, as
    a ``DemandStack`` (averaged against its own partition) or as a plain
    list of slices, each its own sample, averaged against ``p``.  The
    stack's ``runs`` give the work: the slices at a sample take the
    sample's residual integral, taken once; the slices strictly inside a
    bracket integrate the blended residual ``(1 - w) (q_j - qbar_j) + w
    (q_{j+1} - qbar_{j+1})`` as one stack, on one alignment of the four
    curves.  The z-integrals are exact; the time integral uses the
    trapezoid rule on the given grid.  Zero exactly when every slice is
    already partition-piecewise-constant.
    """
    t_grid = np.asarray(t_grid, float)
    s = qd_slices if isinstance(qd_slices, DemandStack) else DemandStack(qd_slices, p)
    residues = np.empty(len(s))
    for i, k, inside in s.runs():
        if inside:
            curves = (s.samples[i], s.averages[i], s.samples[i + 1], s.averages[i + 1])
            z, V = _pwlin.align([(c.z, c.values) for c in curves])
            R = _pwlin.blend(V[0::2] - V[1::2], np.zeros(len(k), int), s.w[k])
            residues[k] = _pwlin.integral_sq(z, R)
        else:
            qd, qbar = s.samples[i], s.averages[i]
            residues[k] = _pwlin.integral_sq_diff(qbar.z, qbar.values, qd.z, qd.values)
    if len(t_grid) == 1:
        return float(residues[0])
    return float(np.trapezoid(residues, t_grid))
