"""Piecewise-linear curves with jump discontinuities, on breakpoint arrays.

A curve is a pair of arrays ``(x, v)`` with ``x`` nondecreasing.  Repeated
abscissae encode jumps: the first occurrence carries the left limit, the
last one the right limit.  Between distinct abscissae the curve is affine.
This representation makes CDFs (linear ramps plus jumps at atoms) and
quantile functions (linear ramps plus flats, with jumps at zero-mass gaps)
exact, so all the L2 integrals below are closed-form rather than sampled.
"""

import numpy as np


def eval_pw(xq, x, v, side):
    """Evaluate a breakpoint curve, or a stack of curves, at ``xq``.

    ``side='right'`` returns the limit from the right at jump points
    (CDF convention), ``side='left'`` the limit from the left (quantile
    convention).  Outside ``[x[0], x[-1]]`` the end values are returned.
    ``v`` may be a ``(k, n)`` stack of curves on the shared breakpoints
    ``x``; the result then has one row per curve.

    Each query is located once, as a node pair ``(a, b)`` and a weight
    ``w``, and every curve is gathered at those nodes: ``v[a] + w * (v[b] -
    v[a])``.  A query that takes a node value outright (outside the ends, or
    an exact hit from the left) has ``b == a`` and ``w == 0``.
    """
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    if scalar:
        xq = xq[None]
    last = len(x) - 1
    # np.clip and the np.searchsorted wrapper cost more than the arithmetic
    # on the short arrays most calls take
    if side == "right":
        i = x.searchsorted(xq, side="right") - 1
        a = np.maximum(i, 0)
        b = np.minimum(i + 1, last)
    elif side == "left":
        i = x.searchsorted(xq, side="left")
        b = np.minimum(i, last)
        a = np.maximum(i - (x[b] != xq), 0)  # an exact hit keeps a == b == i
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    xa = x[a]
    mid = b > a
    w = np.where(mid, xq - xa, 0.0) / np.where(mid, x[b] - xa, 1.0)
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        va, vb = v[a], v[b]
    else:  # ``take`` keeps the rows C-contiguous, so row sums match 1-D sums
        va, vb = np.take(v, a, axis=-1), np.take(v, b, axis=-1)
    out = va + w * (vb - va)
    if scalar:
        return out[0] if out.ndim == 1 else out[:, 0]
    return out


def segment_endpoints(x, v, grid):
    """Right/left limits of a curve (or a stack of curves) on a refining grid.

    ``grid`` must be strictly increasing and cover ``[x[0], x[-1]]``.
    Returns ``(v_right_of_left_node, v_left_of_right_node)``, i.e. the two
    endpoint values of the affine restriction to each segment.
    """
    lo = eval_pw(grid[:-1], x, v, side="right")
    hi = eval_pw(grid[1:], x, v, side="left")
    return lo, hi


def refine_rising(x, v, n, knots=()):
    """Extra breakpoints inside the rising segments of a nondecreasing curve.

    Each segment where ``x`` and ``v`` both increase is cut into
    ``ceil(dx * n)`` equal pieces, at the points of ``np.linspace``, and each
    of ``knots`` strictly inside one lands as a duplicated node pair.  Values
    are re-read from the curve (left limits, right limits on repeated
    nodes), so flats and jumps keep their nodes.  With nothing to add, or no
    rising segment, ``(x, v)`` is returned as is.
    """
    knots = np.asarray(knots, dtype=float)
    dx = np.diff(x)
    rising = (dx > 0) & (np.diff(v) > 0)
    if not ((n or len(knots)) and np.any(rising)):
        return x, v
    pieces = np.maximum(np.ceil(dx * n), 1).astype(int)
    count = np.where(rising, pieces - 1, 0)
    k = np.repeat(np.arange(len(dx)), count)  # the segment of each cut
    j = np.arange(len(k)) - (np.cumsum(count) - count)[k] + 1
    cuts = j * (dx / pieces)[k] + x[k]
    k = np.clip(np.searchsorted(x, knots, side="right") - 1, 0, len(x) - 2)
    inside = knots[rising[k] & (x[k] < knots) & (knots < x[k + 1])]
    xr = np.sort(np.concatenate([x, cuts, inside, inside]))
    vr = eval_pw(xr, x, v, side="left")
    dup = np.zeros(len(xr), bool)
    dup[1:] = xr[1:] == xr[:-1]
    vr[dup] = eval_pw(xr[dup], x, v, side="right")
    return xr, vr


def bracket(nodes, t):
    """Node ``j`` and weight ``w`` of each time ``t`` on increasing ``nodes``, for ``blend``.

    ``w == 0`` exactly at a node; a weight that rounds to 1 maps to node
    ``j + 1``.  Times outside the nodes clip to the ends, and a single node
    gives zeros.
    """
    # a scalar time stays a numpy scalar: arithmetic on 0-d arrays costs more
    # than the rest on the scalar times most calls take
    t = np.asarray(t, float)[()]
    if len(nodes) == 1:
        return np.zeros(np.shape(t), int), np.zeros(np.shape(t))
    # the interior nodes bracket t directly, with j in [0, len(nodes) - 2];
    # a time outside the nodes is clipped into its end bracket
    j = nodes[1:-1].searchsorted(t, side="right")
    lo, hi = nodes[j], nodes[j + 1]
    w = (np.minimum(np.maximum(t, lo), hi) - lo) / (hi - lo)
    at_next = w == 1.0
    return j + at_next, w - at_next  # 0 exactly where w is 1


def blend(rows, j, w, axis=0):
    """``(1 - w) rows[j] + w rows[j + 1]`` along ``axis``, for scalar or vector ``j``, ``w``.

    Where ``w == 0`` row ``j`` is returned as it is; row ``j + 1`` is read
    only where ``w != 0``.  The result is a new C-contiguous array, so
    reductions along it sum in the same order as on rows filled one by one.
    """
    if getattr(w, "ndim", 0) == 0:  # np.ndim costs a fifth of this branch
        lead = (slice(None),) * (axis % rows.ndim)
        row = rows[lead + (j,)]
        return row.copy() if w == 0 else (1.0 - w) * row + w * rows[lead + (j + 1,)]
    out = np.take(rows, j, axis=axis)
    k = np.flatnonzero(w)
    axis %= out.ndim
    at = (slice(None),) * axis + (k,)
    wk = w[k].reshape((-1,) + (1,) * (out.ndim - axis - 1))
    out[at] = (1.0 - wk) * out[at] + wk * np.take(rows, j[k] + 1, axis=axis)
    return out


def merged_grid(*xs):
    """Strictly increasing union of several breakpoint abscissa arrays."""
    return np.unique(np.concatenate(xs))


def integral_sq_diff(xa, va, xb, vb):
    """Exact integral of ``(A - B)**2`` over the span of both curves' breakpoints.

    Both curves are affine between merged breakpoints, so the integrand is
    quadratic per segment and the closed form
    ``dz * (e0**2 + e0*e1 + e1**2) / 3`` is exact.  A ``(k, n)`` stack
    ``va`` of curves on the breakpoints ``xa`` gives ``k`` integrals, each
    equal bit for bit to the integral of its row alone.
    """
    grid = merged_grid(xa, xb)
    dz = np.diff(grid)
    a0, a1 = segment_endpoints(xa, va, grid)
    b0, b1 = segment_endpoints(xb, vb, grid)
    e0 = a0 - b0
    e1 = a1 - b1
    out = np.sum(dz * (e0 * e0 + e0 * e1 + e1 * e1) / 3.0, axis=-1)
    return float(out) if out.ndim == 0 else out


def integral_sq(x, V):
    """Exact integral of ``V**2`` over ``[x[0], x[-1]]``, per row of a stack.

    ``V`` holds curves on the shared breakpoints ``x`` (as ``align`` gives
    them), so each curve is affine between consecutive nodes: a segment of
    positive length contributes ``dz (v0**2 + v0 v1 + v1**2) / 3`` exactly,
    and a repeated node only switches to the right limit.  ``take`` keeps
    the gathered rows C-contiguous, so each row sums exactly as that row
    alone would.
    """
    dz = np.diff(x)
    seg = np.flatnonzero(dz > 0)
    v0, v1 = np.take(V, seg, axis=-1), np.take(V, seg + 1, axis=-1)
    return np.sum(dz[seg] * (v0 * v0 + v0 * v1 + v1 * v1) / 3.0, axis=-1)


def integral(x, v, lo, hi):
    """Exact integrals of the curve over the intervals ``[lo[i], hi[i]]``.

    The interval ends are merged into the breakpoints, each segment of the
    merged grid is integrated by its exact trapezoid, and the segments are
    summed per interval.  Summing segments, rather than differencing a
    running integral, keeps the result accurate far from the origin.  Jumps
    carry no mass; outside ``[x[0], x[-1]]`` the end values extend.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    grid = merged_grid(x, lo, hi)
    v0, v1 = segment_endpoints(x, v, grid)
    seg = np.diff(grid) * (v0 + v1) / 2.0
    i_lo = np.searchsorted(grid, lo)
    n = np.maximum(np.searchsorted(grid, hi) - i_lo, 0)
    # gather each interval's segments behind a leading zero: an empty interval
    # sums to that zero, and every sum reduces as ``np.sum`` of its run would
    start = np.cumsum(n + 1) - (n + 1)
    src = np.repeat(i_lo - start - 1, n + 1) + np.arange(np.sum(n + 1))
    src[start] = len(seg)
    return np.add.reduceat(np.append(seg, 0.0)[src], start)


def align(curves):
    """Common breakpoint representation for several curves.

    Returns ``(x_nodes, V)`` where ``V[i]`` holds curve i's values on the
    shared nodes; a node is duplicated wherever any curve jumps, so every
    curve is affine between consecutive nodes and one-sided limits are
    preserved exactly.
    """
    grid = merged_grid(*(x for x, _ in curves))
    lefts = np.vstack([eval_pw(grid, x, v, side="left") for x, v in curves])
    rights = np.vstack([eval_pw(grid, x, v, side="right") for x, v in curves])
    jump = np.any(rights != lefts, axis=0)
    jump[[0, -1]] = False
    first = lefts.copy()
    first[:, 0] = rights[:, 0]
    # node k carries its left limit, then its right limit where a curve jumps
    pairs = np.stack([first, rights], axis=-1)
    keep = np.column_stack([np.ones_like(jump), jump])
    return np.repeat(grid, 1 + jump), pairs[:, keep]


def dedupe(x, v):
    """Drop consecutive identical ``(x, v)`` pairs."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if len(x) == 0:
        return x, v
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = (np.diff(x) != 0) | (np.diff(v) != 0)
    return x[keep], v[keep]
