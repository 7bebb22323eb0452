"""Array kernels against independent loop references and dense quadrature.

The references here are the per-item loops the kernels replaced, written
without the kernels they check, so a shared defect cannot hide.  The W2
metric is checked against the LP oracle on atom sets, and for the triangle
inequality.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlq import (Density, DensityPath, QuantileFunction, QuantilePath, _pwlin, cdf_of,
                     density_from_quantile, lq, oracle, quantile_of, transport, wasserstein2)
from swarmlq.measures import densities_l1_distance
from swarmlq.partition import (DemandStack, LevelSetPartition, average_wrt_partition,
                               build_partition, cell_means, limit_constant_K)
from swarmlq.regimes import (PeriodicDemand, PeriodicVelocity, SampledDemand, Scenario,
                             StaticOptimalVelocity, _assignment_rows, _demand_jump_knots,
                             _demand_matrix, _densities_from_rows, _motion_x,
                             _problem_structure, evaluate_cost, solve_general, solve_static)
from swarmlq.transport import CallableVelocity, QuantileReassembledVelocity

from helpers import random_density, random_scenario, reference_static_scenario

PROPERTY = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# references

def _ref_eval(t, x, v):
    """Curve value at points off the breakpoints; end values extend outside."""
    k = np.searchsorted(x, t, side="right") - 1
    out = np.where(t < x[0], v[0], v[-1])
    mid = (k >= 0) & (k < len(x) - 1)
    k = k[mid]
    w = (t[mid] - x[k]) / (x[k + 1] - x[k])
    out[mid] = v[k] + w * (v[k + 1] - v[k])
    return out


def _ref_support_items(d):
    items = []
    for i in range(len(d.values)):
        a, b, v = d.edges[i], d.edges[i + 1], d.values[i]
        inside = d.atom_x[(d.atom_x > a) & (d.atom_x < b)]
        cuts = np.concatenate([[a], inside, [b]])
        for j in range(len(cuts) - 1):
            items.append((cuts[j], 1, "cell", cuts[j], cuts[j + 1], v))
    for x, m in zip(d.atom_x, d.atom_m):
        items.append((x, 0, "atom", x, x, m))
    items.sort(key=lambda t: (t[0], t[1]))
    return [(kind, a, b, w) for _, _, kind, a, b, w in items]


def _ref_quantile(d):
    zs, Qs, c = [], [], 0.0
    for kind, a, b, w in _ref_support_items(d):
        if kind == "cell" and w <= 0.0:
            continue
        if not zs or Qs[-1] != a:
            zs.append(c)
            Qs.append(a)
        c += w * (b - a) if kind == "cell" else w
        zs.append(c)
        Qs.append(b)
    return np.asarray(zs) / c, np.asarray(Qs)


def _ref_cdf(d):
    lo, hi = d.domain
    xs, Fs, c = [lo], [0.0], 0.0
    for kind, a, b, w in _ref_support_items(d):
        if a > xs[-1]:
            xs.append(a)
            Fs.append(c)
        c += w * (b - a) if kind == "cell" else w
        xs.append(b)
        Fs.append(c)
    if hi > xs[-1]:
        xs.append(hi)
        Fs.append(c)
    return np.asarray(xs), np.asarray(Fs) / c


def _canonical(x, F):
    """Drop repeated nodes and nodes inside a flat run; same curve, fewer nodes."""
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = (np.diff(x) != 0) | (np.diff(F) != 0)
    x, F = x[keep], F[keep]
    inner = np.zeros(len(x), dtype=bool)
    inner[1:-1] = ((F[:-2] == F[1:-1]) & (F[1:-1] == F[2:])
                   & (x[:-2] < x[1:-1]) & (x[1:-1] < x[2:]))
    return x[~inner], F[~inner]


def _ref_align(curves):
    grid = np.unique(np.concatenate([x for x, _ in curves]))

    def limits(x, v, g):
        left = v[np.searchsorted(x, g, side="left")] if g in x else _ref_eval(np.array([g]), x, v)[0]
        right = v[np.searchsorted(x, g, side="right") - 1] if g in x else left
        return left, right

    xs, cols = [], []
    for k, g in enumerate(grid):
        lr = [limits(x, v, g) for x, v in curves]
        left = np.array([l for l, _ in lr])
        right = np.array([r for _, r in lr])
        if k == 0:
            xs.append(g)
            cols.append(right)
        elif k == len(grid) - 1:
            xs.append(g)
            cols.append(left)
        else:
            xs.append(g)
            cols.append(left)
            if np.any(right != left):
                xs.append(g)
                cols.append(right)
    return np.asarray(xs), np.column_stack(cols)


def _ref_flat_intervals(q):
    out = []
    k = 0
    z, v = q.z, q.values
    while k < len(z) - 1:
        j = k
        while j + 1 < len(z) and v[j + 1] == v[k]:
            j += 1
        if j > k and z[j] > z[k]:
            out.append((z[k], z[j], v[k]))
        k = max(j, k + 1)
    return np.asarray(out).reshape(-1, 3)


_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)


def _ref_motion_x(r, velocity, t, min_sub=4):
    """Per-cell Gauss quadrature of ``V^2`` against the density, two calls per cell."""
    total = 0.0
    if len(r.atom_x):
        total += float(np.sum(r.atom_m * np.asarray(velocity(r.atom_x, t)) ** 2))
    knots = None
    if hasattr(velocity, "slice_arrays"):
        knots = np.unique(velocity.slice_arrays(t)[0])
    for i in range(len(r.values)):
        rho = r.values[i]
        if rho <= 0:
            continue
        a, b = r.edges[i], r.edges[i + 1]
        if knots is not None:
            pts = np.concatenate([[a], knots[(knots > a) & (knots < b)], [b]])
        else:
            pts = np.linspace(a, b, min_sub + 1)
        w = pts[1:] - pts[:-1]
        mid = 0.5 * (pts[:-1] + pts[1:])
        g1 = np.asarray(velocity(mid - _GAUSS_OFFSET * w, t)) ** 2
        g2 = np.asarray(velocity(mid + _GAUSS_OFFSET * w, t)) ** 2
        total += rho * float(np.sum(0.5 * w * (g1 + g2)))
    return total


def _ref_density_from_quantile(q):
    """Atoms from the flats, then one cell per increasing stretch, gaps zero-filled."""
    atoms = [(row[2], row[1] - row[0]) for row in _ref_flat_intervals(q)]
    z, v = q.z, q.values
    edges, values = [], []
    for k in range(len(z) - 1):
        dz, dx = z[k + 1] - z[k], v[k + 1] - v[k]
        if not (dz > 0 and dx > 0):
            continue
        if not edges:
            edges.append(v[k])
        elif v[k] > edges[-1]:
            edges.append(v[k])
            values.append(0.0)
        edges.append(v[k + 1])
        values.append(dz / dx)
    lo, hi = q.domain
    if not hi > lo:
        pad = max(1.0, abs(lo)) * 0.5
        lo, hi = lo - pad, hi + pad
    return Density((lo, hi), atoms=atoms or None, edges=np.asarray(edges),
                   values=np.asarray(values))


def _ref_sampled_quantile(times, densities, t):
    """Displacement interpolation between the bracketing samples, aligned afresh."""
    t = min(max(t, times[0]), times[-1])
    j = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 2)
    w = (t - times[j]) / (times[j + 1] - times[j])
    qa, qb = quantile_of(densities[j]), quantile_of(densities[j + 1])
    if w == 0.0:
        return qa
    if w == 1.0:
        return qb
    z, V = _pwlin.align([(qa.z, qa.values), (qb.z, qb.values)])
    return QuantileFunction(z, (1.0 - w) * V[0] + w * V[1])


def _ref_assignment_rows(path, demand):
    """Squared L2 distance of each row to its slice, one stack per distinct slice object."""
    a_t = np.empty(len(path))
    groups = {}
    for j, qd in enumerate(demand):
        groups.setdefault(id(qd), []).append(j)
    for js in groups.values():
        qd = demand[js[0]]
        rows = np.maximum.accumulate(path.Q[js], axis=-1)
        a_t[js] = _pwlin.integral_sq_diff(path.z_nodes, rows, qd.z, qd.values)
    return a_t


def _ref_demand_matrix(problems, slices):
    """Demand columns slice by slice: each slice's cell means and one-sided points."""
    out = np.empty((len(problems.r0), len(slices)))
    cell, right = problems.cell, problems.right
    left = ~cell & ~right
    spans = np.column_stack([problems.z_lo[cell], problems.z_hi[cell]])
    for j, qd in enumerate(slices):
        if len(spans):
            out[cell, j] = cell_means(qd, spans)
        if np.any(left):
            out[left, j] = qd(problems.z_lo[left], side="left")
        if np.any(right):
            out[right, j] = qd(problems.z_lo[right], side="right")
    return out


def _ref_limit_constant_K(t_grid, slices, p):
    """Each slice's residual against its own partition average, trapezoid in time."""
    residues = []
    for qd in slices:
        qbar = average_wrt_partition(qd, p)
        residues.append(_pwlin.integral_sq_diff(qbar.z, qbar.values, qd.z, qd.values))
    return float(np.trapezoid(residues, t_grid))


def _ref_eval_pw(xq, x, v, side):
    """Breakpoint curve at ``xq``: one masked branch per kind of query."""
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    out = np.empty_like(xq)
    if side == "right":
        idx = np.searchsorted(x, xq, side="right") - 1
        below = idx < 0
        idx = np.clip(idx, 0, len(x) - 1)
        top = idx >= len(x) - 1
        mid = ~(below | top)
        out[below] = v[0]
        out[top] = v[-1]
        i = idx[mid]
        w = (xq[mid] - x[i]) / (x[i + 1] - x[i])
        out[mid] = v[i] + w * (v[i + 1] - v[i])
    else:
        idx = np.searchsorted(x, xq, side="left")
        above = idx >= len(x)
        idx = np.clip(idx, 0, len(x) - 1)
        exact = ~above & (x[idx] == xq)
        bottom = ~above & ~exact & (idx == 0)
        mid = ~(above | exact | bottom)
        out[above] = v[-1]
        out[exact] = v[idx[exact]]
        out[bottom] = v[0]
        i = idx[mid]
        w = (xq[mid] - x[i - 1]) / (x[i] - x[i - 1])
        out[mid] = v[i - 1] + w * (v[i] - v[i - 1])
    return out[0] if scalar else out


def _ref_motion_z_row(z, u):
    """``int u^2 dz`` of one row, over the segments of positive length."""
    dz = np.diff(z)
    seg = dz > 0
    u0, u1 = u[:-1][seg], u[1:][seg]
    return float(np.sum(dz[seg] * (u0 * u0 + u0 * u1 + u1 * u1) / 3.0))


def _ref_density_of_row(z_nodes, row, domain):
    """Density of one quantile row, on ``domain`` widened to cover the row."""
    domain = (min(domain[0], row[0]), max(domain[1], row[-1]))
    return density_from_quantile(QuantileFunction(z_nodes, row, domain=domain))


def _ref_row_densities(z, Q, domain):
    """Density of each quantile row alone; every row is checked before any density is built."""
    qs = [QuantileFunction(z, row, domain=(row[0], row[-1]) if domain is None else
                           (min(domain[0], row[0]), max(domain[1], row[-1]))) for row in Q]
    return [_ref_density_from_quantile(q) for q in qs]


def _ref_average_wrt_partition(qd, p):
    """Partition average with the end limits and gap ends all evaluated."""
    lo, hi = p.cells[:, 0], p.cells[:, 1]
    means = cell_means(qd, p.cells)
    gap_lo = np.concatenate([[0.0], hi])
    gap_hi = np.concatenate([lo, [1.0]])
    g = np.flatnonzero(gap_hi > gap_lo)
    gi = np.searchsorted(hi, qd.z, side="left")
    inner = (qd.z > gap_lo[gi]) & (qd.z < gap_hi[gi])
    k = len(means)
    at = lambda zq, side: _ref_eval_pw(zq, qd.z, qd.values, side)
    z = np.concatenate([[0.0], gap_lo[g], qd.z[inner], gap_hi[g], lo, hi, [1.0]])
    v = np.concatenate([at([0.0], "right"), at(gap_lo[g], "right"),
                        qd.values[inner], at(gap_hi[g], "left"),
                        means, means, at([1.0], "left")])
    slot = np.concatenate([[0], 2 * g + 1, 2 * gi[inner] + 1, 2 * g + 1,
                           2 * np.arange(k) + 2, 2 * np.arange(k) + 2, [2 * k + 2]])
    order = np.lexsort((z, slot))
    z, v = _pwlin.dedupe(z[order], v[order])
    return QuantileFunction(z, v, domain=qd.domain)


def _ref_problem_structure(q0, refine=0, knots=None):
    """Scalar problems by a walk over the nodes, one problem key at a time."""
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
            _ref_accumulate_run(run, nodes, node_problem, weights)
            run = []
    _ref_accumulate_run(run, nodes, node_problem, weights)
    return SimpleNamespace(z_nodes=z_nodes, node_problem=node_problem, kinds=kinds,
                           r0=np.asarray(r0), weights=weights, labels=labels)


def _ref_accumulate_run(run, nodes, node_problem, weights):
    if len(run) < 2:
        return
    zs = np.array([nodes[j][0] for j in run])
    w = np.zeros(len(run))
    dz = np.diff(zs)
    w[:-1] += dz / 2.0
    w[1:] += dz / 2.0
    for j, wt in zip(run, w):
        weights[node_problem[j]] += wt


def _ref_singleton_spans(p):
    spans = []
    prev = 0.0
    for z0, z1 in p.cells:
        if z0 > prev:
            spans.append((prev, z0))
        prev = z1
    if prev < 1.0:
        spans.append((prev, 1.0))
    return np.asarray(spans).reshape(-1, 2)


def _same_density(a, b):
    return (a.domain == b.domain and np.array_equal(a.edges, b.edges)
            and np.array_equal(a.values, b.values) and np.array_equal(a.atom_x, b.atom_x)
            and np.array_equal(a.atom_m, b.atom_m))


# ---------------------------------------------------------------------------
# strategies

@st.composite
def curves(draw):
    """Nondecreasing breakpoints with repeats (jumps) and arbitrary values."""
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]), min_size=n - 1,
                          max_size=n - 1))
    x0 = draw(st.floats(-5.0, 5.0))
    x = x0 + np.concatenate([[0.0], np.cumsum(steps)])
    if x[-1] == x[0]:
        x[-1] += 1.0
    v = np.asarray(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return x, v


@st.composite
def densities(draw):
    """Histogram with zero cells, plus atoms on edges, inside cells and outside."""
    n = draw(st.integers(1, 6))
    lo = draw(st.floats(-3.0, 3.0))
    edges = lo + np.cumsum([0.0] + draw(st.lists(st.floats(0.1, 2.0), min_size=n,
                                                 max_size=n)))
    values = np.asarray(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5]),
                                      min_size=n, max_size=n)))
    where = draw(st.lists(st.sampled_from(["edge", "inside", "left", "right"]),
                          max_size=5))
    atoms = []
    for w in where:
        i = draw(st.integers(0, n))
        if w == "edge":
            x = edges[i]
        elif w == "inside":
            j = min(i, n - 1)
            x = edges[j] + draw(st.floats(0.05, 0.95)) * (edges[j + 1] - edges[j])
        elif w == "left":
            x = edges[0] - draw(st.floats(0.1, 2.0))
        else:
            x = edges[-1] + draw(st.floats(0.1, 2.0))
        atoms.append((x, draw(st.floats(0.05, 1.0))))
    if not atoms and not np.any(values > 0):
        values[0] = 1.0
    domain = (edges[0] - 3.0, edges[-1] + 3.0)
    return Density(domain, atoms=atoms or None, edges=edges, values=values,
                   normalize=True)


@st.composite
def quantiles(draw):
    """Quantile curves with flats (atoms), jumps (gaps) and repeated nodes."""
    n = draw(st.integers(2, 12))
    dz = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]), min_size=n - 1,
                       max_size=n - 1))
    dv = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]), min_size=n - 1,
                       max_size=n - 1))
    z = np.concatenate([[0.0], np.cumsum(dz)])
    if z[-1] == 0.0:
        z[-1] = 1.0
    v = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(dv)])
    return QuantileFunction(z / z[-1], v)


@st.composite
def row_stacks(draw):
    """Quantile rows on shared nodes, a path domain, and edits that break the rows.

    Rows have atoms (flats), cells (rises) and jumps (repeated z), constant
    rows, signed zeros, and offsets 0, -50 and 1e6; the domain may be none,
    cover the rows, cut them, or be a point.  An edit dips a row, by a
    rounding or by a real step, or moves the span of z off [0, 1].
    """
    n = draw(st.integers(2, 10))
    dz = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]), min_size=n - 1,
                       max_size=n - 1))
    z = np.concatenate([[0.0], np.cumsum(dz)])
    z = z / z[-1] if z[-1] > 0 else np.linspace(0.0, 1.0, n)
    base = draw(st.sampled_from([0.0, -50.0, 1e6]))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        dv = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]), min_size=n - 1,
                           max_size=n - 1))
        if draw(st.integers(0, 4)) == 0:
            dv = [0.0] * (n - 1)  # a constant row: one atom
        shift = draw(st.sampled_from([0.0, 0.0, 0.5, -3.0]))
        rows.append(base + shift + np.concatenate([[0.0], np.cumsum(dv)]))
    Q = np.array(rows)
    signs = np.asarray(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=Q.size,
                                     max_size=Q.size))).reshape(Q.shape)
    Q = np.where(Q == 0.0, signs, Q)
    edit = draw(st.sampled_from(["none"] * 6 + ["round", "dip", "span"]))
    r, c = draw(st.integers(0, len(Q) - 1)), draw(st.integers(0, n - 1))
    if edit == "round":
        Q[r, c] -= 1e-10 * max(1.0, abs(base))
    elif edit == "dip":
        Q[r, c] -= 1.0
    elif edit == "span":
        z = z * 1.01
    domain = draw(st.sampled_from([None, (base - 5.0, base + 10.0), (base + 0.1, base + 0.2),
                                   (base, base)]))
    return z, Q, domain


@st.composite
def knotted_velocities(draw, d):
    """Reassembled field whose knots include some of ``d``'s cell edges exactly."""
    lo, hi = d.domain
    free = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=8))
    on_edges = [d.edges[i] for i in draw(st.lists(st.integers(0, len(d.edges) - 1),
                                                  max_size=4))]
    q_row = np.sort(np.asarray(free + on_edges))
    z = np.linspace(0.0, 1.0, len(q_row))
    u_row = np.asarray(draw(st.lists(st.floats(-3.0, 3.0), min_size=len(q_row),
                                     max_size=len(q_row))))
    return QuantileReassembledVelocity([0.0, 1.0], z, np.vstack([q_row, q_row]),
                                       np.vstack([u_row, u_row]))


@st.composite
def stacks(draw):
    """Curves stacked on shared breakpoints, with queries on, between and outside them.

    Breakpoints repeat (jumps); up to 60 of them make reductions long enough
    for numpy's pairwise summation to depend on the memory layout.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 60))
    x = np.sort(rng.choice(np.linspace(-1.0, 1.0, n + 3), n))
    V = rng.normal(size=(draw(st.integers(1, 5)), n))
    xq = np.concatenate([rng.uniform(-1.5, 1.5, draw(st.integers(0, 40))),
                         rng.choice(x, draw(st.integers(0, 10)))])
    return x, V, xq


@st.composite
def partitions(draw):
    """Cells on a coarse z grid, with or without gaps at 0, at 1 and between cells."""
    grid = np.linspace(0.0, 1.0, 9)
    inner = draw(st.lists(st.sampled_from(grid[1:-1].tolist()), max_size=7))
    cuts = np.unique(np.concatenate([[0.0, 1.0], inner]))
    is_cell = draw(st.lists(st.booleans(), min_size=len(cuts) - 1,
                            max_size=len(cuts) - 1))
    cells = np.column_stack([cuts[:-1], cuts[1:]])[np.asarray(is_cell, bool)]
    return LevelSetPartition(cells, np.arange(len(cells), dtype=float))


@st.composite
def problem_inputs(draw):
    """A resource quantile, a refinement and sorted demand jump knots.

    Knots fall inside rising segments, some of them on a refinement node
    (which makes a triple node), and on existing breakpoints.
    """
    q = draw(st.one_of(quantiles(), densities().map(quantile_of)))
    refine = draw(st.sampled_from([0, 3, 16]))
    z, v = q.z, q.values
    rising = np.flatnonzero((np.diff(z) > 0) & (np.diff(v) > 0)).tolist()
    knots = []
    for k in draw(st.lists(st.sampled_from(rising), max_size=4)) if rising else []:
        n = int(np.ceil((z[k + 1] - z[k]) * refine))
        if n > 1 and draw(st.booleans()):
            knots.append(np.linspace(z[k], z[k + 1], n + 1)[draw(st.integers(1, n - 1))])
        else:
            knots.append(z[k] + draw(st.sampled_from([0.25, 0.5, 0.7])) * (z[k + 1] - z[k]))
    knots += draw(st.lists(st.sampled_from(z.tolist()), max_size=2))
    return q, refine, np.unique(knots)


@st.composite
def sampled_setups(draw):
    """Scalar problems of a resource, a sampled demand and a grid inside or past it.

    The problems are refined or not, with the demand's jump knots where the
    resource has a continuum; the horizon ends before, at or after the last
    sample.
    """
    q0 = quantile_of(draw(densities()))
    dens = draw(st.lists(densities(), min_size=2, max_size=4))
    gaps = draw(st.lists(st.floats(0.25, 2.0), min_size=len(dens) - 1,
                         max_size=len(dens) - 1))
    demand = SampledDemand(np.concatenate([[0.0], np.cumsum(gaps)]), dens)
    T = demand.times[-1] * draw(st.sampled_from([0.3, 0.5, 1.0, 1.6]))
    t = np.linspace(0.0, T, draw(st.integers(2, 30)) + 1)
    slices = [demand.quantile_at(tk) for tk in t]
    p = build_partition(q0)
    knots = _demand_jump_knots(slices) if len(p.singleton_spans()) else ()
    problems = _problem_structure(q0, refine=draw(st.sampled_from([0, 16])), knots=knots)
    return demand, t, slices, p, problems


# ---------------------------------------------------------------------------
# properties

@PROPERTY
@given(curves(), st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(0.0, 6.0)),
                          min_size=1, max_size=6))
def test_integral_matches_dense_quadrature(curve, spans):
    x, v = curve
    lo = np.array([a for a, _ in spans])
    hi = lo + np.array([w for _, w in spans])
    got = _pwlin.integral(x, v, lo, hi)
    n = 4096
    for i in range(len(lo)):
        h = (hi[i] - lo[i]) / n
        mid = lo[i] + h * (np.arange(n) + 0.5)
        want = h * np.sum(_ref_eval(mid, x, v))
        # the midpoint rule is exact on affine pieces; each breakpoint costs
        # at most one sub-cell times the value range
        tol = (len(x) + 2) * h * 2.0 * np.max(np.abs(v)) + 1e-12
        assert abs(got[i] - want) <= tol


@PROPERTY
@given(curves())
def test_integral_is_additive_and_handles_empty_intervals(curve):
    x, v = curve
    a, b = x[0] - 1.0, x[-1] + 1.0
    cuts = np.linspace(a, b, 7)
    parts = _pwlin.integral(x, v, cuts[:-1], cuts[1:])
    whole = _pwlin.integral(x, v, [a], [b])[0]
    assert np.sum(parts) == pytest.approx(whole, rel=1e-12, abs=1e-12)
    assert np.all(_pwlin.integral(x, v, cuts, cuts) == 0.0)


@PROPERTY
@given(densities())
def test_quantile_of_matches_loop_reference(d):
    q = quantile_of(d)
    want = QuantileFunction(*_ref_quantile(d), domain=d.domain)
    assert np.array_equal(q.z, want.z)
    assert np.array_equal(q.values, want.values)


@PROPERTY
@given(densities())
def test_cdf_of_matches_loop_reference(d):
    F = cdf_of(d)
    x_want, F_want = _canonical(*_ref_cdf(d))
    x_got, F_got = _canonical(F.x, F.F)
    assert np.array_equal(x_got, x_want)
    assert np.array_equal(F_got, F_want)


@PROPERTY
@given(curves(), curves())
def test_align_matches_loop_reference(a, b):
    x, V = _pwlin.align([a, b])
    x_want, V_want = _ref_align([a, b])
    assert np.array_equal(x, x_want)
    assert np.array_equal(V, V_want)


def _offset_demand_matrix_and_K(shift, sampled):
    """Demand matrix and ``K`` of one problem, with every abscissa moved by ``shift``.

    The demand is five slices, or, ``sampled``, a sampled demand on those
    five densities read on a grid three times finer, past its last sample.
    """
    # breakpoints on a binary grid, so the shift by 1e9 is exact in floats;
    # light atoms make short cells, where a cancelling mean would show
    edges = np.linspace(0.0, 1000.0, 17)
    domain = (shift - 100.0, shift + 1100.0)
    resource = Density(domain, atoms=[(shift + 150.0, 0.01), (shift + 625.0, 0.005)],
                       edges=shift + edges[4:13], values=np.full(8, 0.985 / 500.0))
    dens = []
    for k in range(5):
        vals = np.random.default_rng(100 + k).uniform(0.0, 1.0, 16)
        dens.append(Density(domain, atoms=[(shift + 300.0 + 50.0 * k, 0.2)],
                            edges=shift + edges, values=vals, normalize=True))
    q0 = quantile_of(resource)
    p = build_partition(q0)
    problems = _problem_structure(q0, refine=16, knots=np.array([0.5]))
    if sampled:
        demand = SampledDemand(np.arange(5.0), dens)
        t = np.linspace(0.0, 4.5, 15)
        slices = DemandStack(demand._slices, p, *_pwlin.bracket(demand.times, t))
    else:
        t = np.linspace(0.0, 1.0, 5)
        slices = DemandStack([quantile_of(d) for d in dens], p)
    return _demand_matrix(problems, slices), limit_constant_K(t, slices, p)


def _check_demand_matrix_and_K_at_large_domain_offset(sampled):
    offset = 1e9
    d0, K0 = _offset_demand_matrix_and_K(0.0, sampled)
    d1, K1 = _offset_demand_matrix_and_K(offset, sampled)
    assert K0 > 0
    assert K1 == pytest.approx(K0, rel=1e-8)
    assert np.max(np.abs((d1 - offset) - d0)) <= 1e-15 * offset


def test_demand_matrix_and_K_at_large_domain_offset():
    _check_demand_matrix_and_K_at_large_domain_offset(sampled=False)


def test_sampled_demand_matrix_and_K_at_large_domain_offset():
    _check_demand_matrix_and_K_at_large_domain_offset(sampled=True)


@PROPERTY
@given(sampled_setups())
def test_demand_stack_matches_per_slice_references(case):
    demand, t, slices, p, problems = case
    d_want = _ref_demand_matrix(problems, slices)
    K_want = _ref_limit_constant_K(t, slices, p)
    tol = 4 * np.spacing(max(1.0, np.max(np.abs(d_want))))
    # a stack of the slices themselves, each its own sample: the same
    # arithmetic, except that a cell reads the mean its partition average
    # holds, which the quantile's monotone guard lifts where it rounded below
    # the value just before the cell
    d_plain = _demand_matrix(problems, DemandStack(slices, p))
    cell = problems.cell
    assert np.array_equal(d_plain[~cell], d_want[~cell])
    lift = d_plain[cell] - d_want[cell]
    assert np.all((lift >= 0) & (lift <= tol))
    assert limit_constant_K(t, slices, p) == K_want
    # per-sample columns and residuals, blended per slice: rounding only
    stack = DemandStack(demand._slices, p, *_pwlin.bracket(demand.times, t))
    assert np.max(np.abs(_demand_matrix(problems, stack) - d_want)) <= tol
    q_max = max(np.max(np.abs(q.values)) for q in demand._slices)
    assert abs(limit_constant_K(t, stack, p) - K_want) <= 1e-15 * t[-1] * max(1.0, q_max) ** 2


@PROPERTY
@given(st.lists(densities(), min_size=1, max_size=4), st.data())
def test_bracket_blends_equal_quantile_at(dens, data):
    gaps = data.draw(st.lists(st.floats(0.25, 2.0), min_size=len(dens) - 1,
                              max_size=len(dens) - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    demand = SampledDemand(times, dens)
    inside = data.draw(st.lists(st.floats(0.0, float(times[-1])), max_size=6))
    # at the samples, one ulp either side of them, between them and outside
    ts = np.concatenate([times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
                         inside, [times[0] - 1.0, times[-1] + 1.0]])
    j, w = _pwlin.bracket(demand.times, ts)
    assert np.all((0.0 <= w) & (w < 1.0))
    assert np.all(j[w > 0] < len(times) - 1)
    for tk, jk, wk in zip(ts, j, w):
        got = demand.quantile_at(tk)
        qa = quantile_of(dens[jk])
        if wk == 0.0:
            want = qa
        else:
            qb = quantile_of(dens[jk + 1])
            z, V = _pwlin.align([(qa.z, qa.values), (qb.z, qb.values)])
            want = QuantileFunction(z, (1.0 - wk) * V[0] + wk * V[1])
        assert np.array_equal(got.z, want.z)
        assert np.array_equal(got.values, want.values)


@PROPERTY
@given(densities())
def test_density_quantile_density_round_trip(d):
    assert densities_l1_distance(density_from_quantile(quantile_of(d)), d) < 1e-12


@PROPERTY
@given(quantiles())
def test_quantile_density_quantile_round_trip(q):
    back = quantile_of(density_from_quantile(q))
    err = _pwlin.integral_sq_diff(q.z, q.values, back.z, back.values)
    assert err <= 1e-13 * max(1.0, np.max(np.abs(q.values))) ** 2


@PROPERTY
@given(quantiles())
def test_flat_intervals_matches_loop_reference(q):
    assert np.array_equal(q.flat_intervals, _ref_flat_intervals(q))


@PROPERTY
@given(densities())
def test_flat_intervals_of_density_quantiles_match_loop_reference(d):
    q = quantile_of(d)
    assert np.array_equal(q.flat_intervals, _ref_flat_intervals(q))


def _atoms_only(d, drop_cells):
    if not (drop_cells and len(d.atom_x)):
        return d
    return Density(d.domain, atoms=np.column_stack([d.atom_x, d.atom_m]), normalize=True)


@PROPERTY
@given(st.data(), densities(), st.booleans())
def test_motion_x_matches_per_cell_loop_with_knots(data, d, drop_cells):
    vel = data.draw(knotted_velocities(d))
    d = _atoms_only(d, drop_cells)
    want = _ref_motion_x(d, vel, 0.0)
    assert abs(_motion_x(d, vel, 0.0, vel.slice_arrays(0.0)[0]) - want) <= 1e-13 * want


@PROPERTY
@given(densities(), st.booleans(), st.floats(-2.0, 2.0), st.floats(0.1, 3.0),
       st.integers(1, 6))
def test_motion_x_matches_per_cell_loop_without_knots(d, drop_cells, c, k, min_sub):
    d = _atoms_only(d, drop_cells)
    vel = CallableVelocity(lambda x, t: c + np.sin(k * x) + 0.1 * x * t)
    want = _ref_motion_x(d, vel, 0.7, min_sub=min_sub)
    assert abs(_motion_x(d, vel, 0.7, min_sub=min_sub) - want) <= 1e-13 * want


@pytest.mark.parametrize("alpha, T", [(2.0, 10.0), (0.5, 3.0), (0.01, 10.0)])
def test_static_velocity_rows_equal_slice_arrays(alpha, T):
    # the last case has T/alpha = 1000, where the cosh ratios go to log space
    rng = np.random.default_rng(7)
    params = lq.LQParams(alpha, T, 200)
    z = np.linspace(0.0, 1.0, 30)
    vel = StaticOptimalVelocity(params, z, np.sort(rng.uniform(0.0, 10.0, 30)),
                                np.sort(rng.uniform(0.0, 10.0, 30)), params.t_grid)
    for k, t in enumerate(params.t_grid):
        q_row, u_row = vel.slice_arrays(t)
        assert np.array_equal(vel.Q[k], q_row)
        assert np.array_equal(vel.U[k], u_row)


def test_cosh_ratios_batched_equal_scalar_calls():
    # arguments from 0 to 1000 in one array, so only some elements are large
    params = lq.LQParams(1.0, 1000.0, 2)
    t = np.linspace(0.0, 1000.0, 4001)
    tau = np.maximum(t - 3.0, 0.0)
    batched = lq.transition_r(params, t, tau)
    scalar = np.array([lq.transition_r(params, a, b) for a, b in zip(t, tau)])
    assert np.array_equal(batched, scalar)


@PROPERTY
@given(quantiles())
def test_density_from_quantile_matches_loop_reference(q):
    got, want = density_from_quantile(q), _ref_density_from_quantile(q)
    assert got.domain == want.domain
    for field in ("atom_x", "atom_m", "edges", "values"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def _bits(d):
    return (np.asarray(d.domain).tobytes(), d.atom_x.tobytes(), d.atom_m.tobytes(),
            d.edges.tobytes(), d.values.tobytes())


@PROPERTY
@given(row_stacks())
def test_stacked_density_from_quantile_equals_rows_one_by_one(case):
    z, Q, domain = case
    try:
        want = _ref_row_densities(z, Q, domain)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            density_from_quantile((z, Q), domain)
        assert str(got.value) == str(e)
        return
    got = density_from_quantile((z, Q), domain)
    assert len(got) == len(Q)
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)
    # one quantile is the one-row stack
    q = QuantileFunction(z, Q[0])
    assert _bits(density_from_quantile(q)) == _bits(density_from_quantile((q.z, q.values[None]),
                                                                          q.domain)[0])


@PROPERTY
@given(st.lists(densities(), min_size=2, max_size=4),
       st.lists(st.floats(-1.0, 4.0), min_size=1, max_size=12))
def test_sampled_demand_reuses_aligned_brackets(dens, queries):
    times = np.arange(len(dens), dtype=float)
    demand = SampledDemand(times, dens)
    # sample times and times outside the range, and each time twice
    ts = list(times) + [-0.5, times[-1] + 0.5] + queries
    for t in ts + ts[::-1]:
        got = demand.quantile_at(t)
        want = _ref_sampled_quantile(times, dens, t)
        assert np.array_equal(got.z, want.z)
        assert np.array_equal(got.values, want.values)
    assert len(demand._brackets) <= len(times) - 1


@PROPERTY
@given(quantiles(), st.data())
def test_motion_z_of_percentile_rows_equals_two_curve_integral(q, data):
    # quantile breakpoints span [0, 1] with duplicated nodes at jumps and
    # runs of equal nodes; the velocity row takes arbitrary values on them
    z = q.z
    u = np.asarray(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(z),
                                      max_size=len(z))))
    rows = np.vstack([q.values, q.values])
    vel = QuantileReassembledVelocity([0.0, 1.0], z, rows, np.vstack([u, u]))
    want = _pwlin.integral_sq_diff(z, u, np.array([0.0, 1.0]), np.zeros(2))
    assert _pwlin.integral_sq(z, vel.slice_arrays(0.5)[1]) == want


@PROPERTY
@given(st.sampled_from([(2.0, 10.0), (0.5, 3.0), (0.01, 10.0)]),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.integers(0, 40))
def test_static_velocity_slice_arrays_equal_exact_rows(case, fractions, k):
    alpha, T = case
    rng = np.random.default_rng(11)
    params = lq.LQParams(alpha, T, 40)
    z = np.linspace(0.0, 1.0, 12)
    vel = StaticOptimalVelocity(params, z, np.sort(rng.uniform(0.0, 10.0, 12)),
                                np.sort(rng.uniform(0.0, 10.0, 12)), params.t_grid)
    for t in [params.t_grid[k]] + [T * f for f in fractions]:
        q_row, u_row = vel.slice_arrays(t)
        q_want, u_want = vel._row(float(t))
        assert np.array_equal(q_row, q_want)
        assert np.array_equal(u_row, u_want)


@PROPERTY
@given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8, unique=True),
       st.integers(0, 2 ** 32 - 1))
def test_bracket_and_blend_hit_nodes_clip_and_match_scalar_calls(nodes, seed):
    nodes = np.sort(np.asarray(nodes))
    n = len(nodes)
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, 5))
    rows[rng.random((n, 5)) < 0.2] = -0.0  # a sign a blend with zero weight would lose
    # each node is its own row, even when the next row is not finite
    j, w = _pwlin.bracket(nodes, nodes)
    assert np.array_equal(j, np.arange(n)) and np.all(w == 0.0)
    for i in range(n):
        bad = rows.copy()
        bad[min(i + 1, n - 1):] = np.nan if i % 2 else np.inf
        bad[i] = rows[i]
        got = _pwlin.blend(bad, j[i], w[i])
        assert got.tobytes() == rows[i].tobytes()
        assert _pwlin.blend(bad, j[i:i + 1], w[i:i + 1])[0].tobytes() == rows[i].tobytes()
    # outside the nodes: the end rows
    j, w = _pwlin.bracket(nodes, [nodes[0] - 1.0, nodes[-1] + 1.0])
    assert list(j) == [0, n - 1] and list(w) == [0.0, 0.0]
    # scalar and vector times give the same bits, along either axis
    ts = np.concatenate([nodes, rng.uniform(nodes[0] - 1.0, nodes[-1] + 1.0, 6),
                         np.nextafter(nodes, np.inf)])
    j, w = _pwlin.bracket(nodes, ts)
    assert np.all((0.0 <= w) & (w < 1.0)) and np.all(j[w > 0] < n - 1)
    got = _pwlin.blend(rows, j, w)
    cols = _pwlin.blend(rows.T, j, w, axis=-1)
    assert got.flags.c_contiguous and cols.flags.c_contiguous
    assert cols.T.tobytes() == got.tobytes()
    for t, row in zip(ts, got):
        jt, wt = _pwlin.bracket(nodes, t)
        assert np.ndim(jt) == 0 and np.ndim(wt) == 0
        assert _pwlin.blend(rows, jt, wt).tobytes() == row.tobytes()
        if wt:
            assert np.array_equal(row, (1.0 - wt) * rows[jt] + wt * rows[jt + 1])


def test_bracket_weight_rounding_to_one_takes_the_next_node():
    # t - nodes[0] and nodes[1] - nodes[0] both round to 1
    nodes = np.array([-1.0, 1e-20])
    j, w = _pwlin.bracket(nodes, 0.5e-20)
    assert (j, w) == (1, 0.0)
    rows = np.array([[1.0, -0.0], [2.0, 3.0]])
    assert _pwlin.blend(rows, j, w).tobytes() == rows[1].tobytes()


def test_vector_slice_arrays_equal_stacked_scalar_calls():
    rng = np.random.default_rng(5)
    z = np.linspace(0.0, 1.0, 12)
    t_nodes = np.linspace(0.0, 2.0, 9)
    Q = np.sort(rng.uniform(0.0, 10.0, (9, 12)), axis=-1)
    U = rng.normal(size=(9, 12))
    params = lq.LQParams(0.5, 2.0, 8)
    fields = [QuantileReassembledVelocity(t_nodes, z, Q, U),
              StaticOptimalVelocity(params, z, Q[0], Q[-1], t_nodes),
              PeriodicVelocity(t_nodes, z, Q, U)]
    off_grid = rng.uniform(-0.5, 2.5, 5)
    for vel in fields:
        # grid and off-grid times; past the last node, which for the
        # periodic field is more than one period
        ts = np.concatenate([t_nodes, off_grid, t_nodes + 2.0, [4.7, 6.25]])
        Qv, Uv = vel.slice_arrays(ts)
        assert Qv.flags.c_contiguous and Uv.flags.c_contiguous
        for k, t in enumerate(ts):
            q_row, u_row = vel.slice_arrays(t)
            assert Qv[k].tobytes() == q_row.tobytes()
            assert Uv[k].tobytes() == u_row.tobytes()


def test_demand_jump_knots_cap_is_logged(caplog):
    # one distinct interior jump per slice: the cap is passed on slice 257
    zs = (np.arange(300) + 1.0) / 302.0
    slices = [QuantileFunction([0.0, z, z, 1.0], [0.0, 1.0, 2.0, 3.0]) for z in zs]
    with caplog.at_level("WARNING", logger="swarmlq"):
        knots = _demand_jump_knots(slices, cap=256)
    assert np.array_equal(knots, zs[:257])
    [record] = caplog.records
    assert "cap of 256" in record.getMessage()
    assert "43 of 300 slices" in record.getMessage()
    caplog.clear()
    with caplog.at_level("WARNING", logger="swarmlq"):
        assert np.array_equal(_demand_jump_knots(slices[:200]), zs[:200])
    assert not caplog.records


@PROPERTY
@given(stacks())
def test_eval_pw_matches_masked_reference(stack):
    x, V, xq = stack
    v = V[0]
    for side in ("left", "right"):
        assert np.array_equal(_pwlin.eval_pw(xq, x, v, side), _ref_eval_pw(xq, x, v, side))
        for q in xq[:5]:
            got = _pwlin.eval_pw(q, x, v, side)
            assert np.ndim(got) == 0 and got == _ref_eval_pw(q, x, v, side)
    assert _pwlin.eval_pw(np.empty(0), x, v, "left").shape == (0,)


@PROPERTY
@given(stacks(), st.data())
def test_stacked_kernels_equal_per_row_calls(stack, data):
    # bit for bit: each row of a stack must reduce exactly as the row alone
    x, V, xq = stack
    for side in ("left", "right"):
        got = _pwlin.eval_pw(xq, x, V, side)
        assert got.shape == (len(V), len(xq))
        for row, v in zip(got, V):
            assert np.array_equal(row, _pwlin.eval_pw(xq, x, v, side))
        if len(xq):
            assert np.array_equal(_pwlin.eval_pw(xq[0], x, V, side), got[:, 0])
    xb, Vb, _ = data.draw(stacks())
    vb = Vb[0]
    got = _pwlin.integral_sq_diff(x, V, xb, vb)
    assert got.shape == (len(V),)
    for g, v in zip(got, V):
        assert g == _pwlin.integral_sq_diff(x, v, xb, vb)


@PROPERTY
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60), st.integers(2, 6))
def test_stacked_motion_term_equals_per_slice_calls(seed, n, m):
    rng = np.random.default_rng(seed)
    z = np.sort(np.concatenate([[0.0, 1.0], rng.choice(np.linspace(0.0, 1.0, 9), n - 2)]))
    t_nodes = np.sort(rng.uniform(0.0, 3.0, m))
    Q = np.sort(rng.uniform(0.0, 10.0, (m, n)), axis=-1)
    vel = QuantileReassembledVelocity(t_nodes, z, Q, rng.normal(size=(m, n)))
    ts = np.concatenate([t_nodes, rng.uniform(t_nodes[0], t_nodes[-1], 3)])
    got = _pwlin.integral_sq(vel.z_nodes, vel.slice_arrays(ts)[1])
    for g, t in zip(got, ts):
        u = vel.slice_arrays(t)[1]
        assert g == _pwlin.integral_sq(z, u) == _ref_motion_z_row(z, u)


@PROPERTY
@given(quantiles(), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_quantile_path_builds_the_row_densities_once(q, seed, save_every):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    # rows keep the flats and jumps of ``q``; some leave the domain
    Q = rng.uniform(-3.0, 3.0, (m, 1)) + rng.uniform(0.5, 2.0, (m, 1)) * q.values
    vel = type("Rows", (), {"t_nodes": np.linspace(0.0, 1.0, m), "z_nodes": q.z, "Q": Q})
    domain = (-4.0, 6.0)
    path = _densities_from_rows(vel, domain, save_every)
    keep = sorted(set(range(0, m, save_every)) | {m - 1})
    assert isinstance(path, QuantilePath) and len(path) == len(keep)
    assert np.array_equal(path.t, vel.t_nodes[keep])
    for k, j in enumerate(keep):
        want = _ref_density_of_row(q.z, Q[j], domain)
        qk = path.quantile(k)
        assert np.array_equal(qk.values, QuantileFunction(q.z, Q[j]).values)
        assert qk.domain == want.domain
        assert _same_density(path[k], want)
    assert path.densities is path.densities
    first = path[0]
    path.densities[-1] = first
    assert path[-1] is first and path.densities[-1] is first


def test_quantile_path_builds_densities_on_first_read(monkeypatch):
    built = []
    real = transport.density_from_quantile
    monkeypatch.setattr(transport, "density_from_quantile",
                        lambda q, domain=None: built.append(q) or real(q, domain))
    z = np.array([0.0, 0.5, 0.5, 1.0])
    path = QuantilePath([0.0, 1.0, 2.0], z, [[1.0, 2.0, 3.0, 4.0]] * 3, (0.0, 10.0))
    assert len(path) == 3
    q = path.quantile(1)
    assert np.array_equal(q.z, z) and np.array_equal(q.values, [1.0, 2.0, 3.0, 4.0])
    assert q.domain == (0.0, 10.0)
    assert not built
    path[1]
    assert len(built) == 1  # one stacked call for every slice
    path.densities
    path[2]
    assert len(built) == 1
    first = path[0]
    path.densities[-1] = first
    assert path[-1] is first and len(built) == 1
    assert repr(path) == "QuantilePath(3 slices, 4 nodes)"


def _evaluate_both_ways(trajectory, sol, demand, alpha):
    """``evaluate_cost`` on a path, and on a ``DensityPath`` of the same densities."""
    rows = evaluate_cost(trajectory, sol.velocity, demand, alpha)
    dens = DensityPath(trajectory.t, list(trajectory.densities))
    return rows, evaluate_cost(dens, sol.velocity, demand, alpha)


@pytest.mark.parametrize("kind", ["static", "general"])
def test_evaluate_cost_on_rows_matches_densities(kind):
    if kind == "static":
        scen = reference_static_scenario(nt=200)
        sol = solve_static(scen, save_every=10)
    else:
        scen = random_scenario(np.random.default_rng(5), nt=120)
        sol = solve_general(scen, save_every=6)
    path = sol.trajectory
    assert isinstance(path, QuantilePath)
    rows, dens = _evaluate_both_ways(path, sol, scen.demand, scen.alpha)
    assert np.array_equal(rows.motion_x_t, dens.motion_x_t)
    assert np.array_equal(rows.motion_z_t, dens.motion_z_t)
    np.testing.assert_allclose(rows.assignment_t, dens.assignment_t, rtol=1e-13, atol=0)
    # the solver's own breakdown took the demand as the slices it held
    assert np.array_equal(rows.assignment_t, sol.breakdown.assignment_t)
    assert np.array_equal(rows.motion_x_t, sol.breakdown.motion_x_t)
    assert np.array_equal(rows.motion_z_t, sol.breakdown.motion_z_t)
    slices = [scen.demand.quantile_at(t) for t in path.t]
    by_slice = evaluate_cost(path, sol.velocity, slices, scen.alpha)
    for f in dataclasses.fields(rows):
        assert np.array_equal(getattr(by_slice, f.name), getattr(rows, f.name)), f.name
    with pytest.raises(ValueError, match="demand slices"):
        evaluate_cost(path, sol.velocity, slices[:-1], scen.alpha)


def test_evaluate_cost_on_rows_with_a_plain_velocity_field():
    # no ``slice_arrays``: the percentile motion term reads each slice's quantile
    scen = random_scenario(np.random.default_rng(6), nt=60)
    path = solve_general(scen, save_every=6).trajectory
    still = type("Sol", (), {"velocity": CallableVelocity(lambda x, t: 0.3 - 0.1 * x)})
    rows, dens = _evaluate_both_ways(path, still, scen.demand, scen.alpha)
    assert np.array_equal(rows.motion_x_t, dens.motion_x_t)
    np.testing.assert_allclose(rows.motion_z_t, dens.motion_z_t, rtol=1e-13, atol=0)
    np.testing.assert_allclose(rows.assignment_t, dens.assignment_t, rtol=1e-13, atol=0)


@PROPERTY
@given(quantiles(), quantiles(), st.integers(0, 2 ** 32 - 1))
def test_assignment_rows_read_as_the_path_quantiles(q, qd, seed):
    # rows dip by up to 1e-12 (within the monotonicity tolerance); slices
    # share the demand ``qd`` or have their own
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    Q = q.values + rng.uniform(-1.0, 1.0, (m, 1)) - rng.uniform(0.0, 1e-12, (m, len(q.z)))
    path = QuantilePath(np.linspace(0.0, 1.0, m), q.z, Q, (-10.0, 10.0))
    own = QuantileFunction(qd.z, qd.values + 0.5)
    demand = [own if rng.random() < 0.3 else qd for _ in range(m)]
    still = CallableVelocity(lambda x, t: np.zeros_like(x))
    a_t = evaluate_cost(path, still, demand, 1.0).assignment_t
    for j in range(m):
        qj = path.quantile(j)
        want = _pwlin.integral_sq_diff(qj.z, qj.values, demand[j].z, demand[j].values)
        assert a_t[j] == want


@PROPERTY
@given(densities(), st.lists(densities(), min_size=1, max_size=4), st.integers(2, 30),
       st.integers(1, 7), st.sampled_from([0.3, 0.5, 1.0, 1.6]), st.data())
def test_stacked_assignment_rows_equal_per_slice_reference(resource, dens, nt, save_every,
                                                           frac, data):
    gaps = data.draw(st.lists(st.floats(0.25, 2.0), min_size=len(dens) - 1,
                              max_size=len(dens) - 1))
    demand = SampledDemand(np.concatenate([[0.0], np.cumsum(gaps)]), dens)
    t = np.linspace(0.0, frac * max(demand.times[-1], 1.0), nt + 1)
    # rows keep the resource's flats, jumps and continuum, and dip by up to
    # 1e-12 as reassembled rows may
    q0 = quantile_of(resource)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    Q = (rng.uniform(-2.0, 2.0, (nt + 1, 1)) + rng.uniform(0.5, 2.0, (nt + 1, 1)) * q0.values
         - rng.uniform(0.0, 1e-12, (nt + 1, len(q0.z))))
    vel = SimpleNamespace(t_nodes=t, z_nodes=q0.z, Q=Q)
    path = _densities_from_rows(vel, resource.domain, save_every)
    want = _ref_assignment_rows(path, [demand.quantile_at(tk) for tk in path.t])
    assert np.array_equal(_assignment_rows(path, demand.stack(path.t)), want)
    # as a solve costs its path: the grid's stack, taken at the saved times
    saved = demand.stack(t).take(np.searchsorted(t, path.t))
    assert np.array_equal(_assignment_rows(path, saved), want)


def test_evaluate_cost_on_a_sampled_demand_equals_its_slices():
    # five samples, the horizon ending inside the fourth bracket: most saved
    # slices are blends, and the last sample is never read
    rng = np.random.default_rng(12)
    demand = SampledDemand([0.0, 1.0, 1.5, 2.5, 4.0],
                           [random_density(rng) for _ in range(5)])
    scen = Scenario(random_density(rng), demand, alpha=0.8, horizon=3.3, nt=40)
    sol = solve_general(scen, save_every=3)
    path = sol.trajectory
    assert np.count_nonzero(demand.stack(path.t).w) > len(path) // 2
    got = evaluate_cost(path, sol.velocity, demand, scen.alpha)
    want = evaluate_cost(path, sol.velocity, [demand.quantile_at(t) for t in path.t],
                         scen.alpha)
    for f in dataclasses.fields(got):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
    assert np.array_equal(sol.breakdown.assignment_t, want.assignment_t)


@pytest.mark.parametrize("frac", [0.3, 0.55, 1.0, 1.6])
def test_demand_jump_knots_of_the_stack_samples_equal_per_slice(frac):
    # every sample has two zero-mass gaps, at percentiles that move from one
    # sample to the next; the horizon ends inside the first bracket, inside
    # the second, at the last sample or past it
    edges = [1.0, 2.0, 4.0, 5.0, 7.0, 8.0]
    dens = [Density((0.0, 10.0), edges=edges, values=[a, 0.0, 1.0, 0.0, 2.0 - a],
                    normalize=True) for a in (0.3, 0.7, 1.2, 1.6)]
    demand = SampledDemand([0.0, 1.0, 2.5, 3.0], dens)
    t = np.linspace(0.0, frac * 3.0, 23)
    stack = demand.stack(t)
    per_slice = _demand_jump_knots([demand.quantile_at(tk) for tk in t])
    assert len(per_slice) >= 4
    assert np.array_equal(_demand_jump_knots(stack.samples), per_slice)
    if frac < 1.0:  # a sample no slice reads would add knots of its own
        assert len(stack.samples) < len(dens)
        assert len(_demand_jump_knots(demand._slices)) > len(per_slice)


def test_periodic_stack_queries_each_phase_once():
    phases = []

    def rule(t):
        phases.append(t)
        return Density((0.0, 10.0), atoms=[(2.0 + t, 0.5), (6.0 + t, 0.5)])

    demand = PeriodicDemand(2.0, rule)
    t = np.linspace(0.0, 4.0, 9)  # two periods on a half-unit grid
    stack = demand.stack(t)
    assert phases == [0.0, 0.5, 1.0, 1.5]
    assert len(stack) == 9 and len(stack.samples) == 4
    for k in range(9):
        assert stack[k] is stack.samples[k % 4]


@pytest.mark.parametrize("cells", [
    [[0.25, 0.5]],                 # gaps at 0 and at 1
    [[0.0, 0.25], [0.5, 1.0]],     # one interior gap
    [[0.0, 0.5], [0.5, 1.0]],      # no gaps
    [[0.0, 0.375], [0.75, 0.875]],  # interior gap and a gap at 1
    [],                            # no cells: one gap over all of [0, 1]
])
@PROPERTY
@given(quantiles())
def test_average_wrt_partition_matches_reference_on_layouts(cells, q):
    p = LevelSetPartition(np.reshape(cells, (-1, 2)), np.arange(len(cells), dtype=float))
    got, want = average_wrt_partition(q, p), _ref_average_wrt_partition(q, p)
    assert np.array_equal(got.z, want.z) and np.array_equal(got.values, want.values)
    assert got.domain == want.domain


@PROPERTY
@given(quantiles(), partitions())
def test_average_wrt_partition_matches_reference(q, p):
    got, want = average_wrt_partition(q, p), _ref_average_wrt_partition(q, p)
    assert np.array_equal(got.z, want.z) and np.array_equal(got.values, want.values)
    assert got.domain == want.domain


@PROPERTY
@given(problem_inputs())
def test_problem_structure_matches_loop_reference(case):
    q, refine, knots = case
    got = _problem_structure(q, refine=refine, knots=knots)
    want = _ref_problem_structure(q, refine=refine, knots=knots)
    for field in ("z_nodes", "node_problem", "r0", "weights"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.labels == want.labels
    cell = [kind[0] == "cell" for kind in want.kinds]
    assert np.array_equal(got.cell, cell)
    assert np.array_equal(got.z_lo, [kind[1] for kind in want.kinds])
    assert np.array_equal(got.z_hi, [kind[2] if c else kind[1]
                                     for c, kind in zip(cell, want.kinds)])
    assert np.array_equal(got.right, [not c and kind[2] == "right"
                                      for c, kind in zip(cell, want.kinds)])


@PROPERTY
@given(partitions())
def test_singleton_spans_match_loop_reference(p):
    got, want = p.singleton_spans(), _ref_singleton_spans(p)
    assert got.shape == want.shape and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the W2 metric

@st.composite
def atom_sets(draw):
    """Up to 8 atoms on distinct points of [0, 10] (none merge), total mass 1."""
    x = np.asarray(draw(st.lists(st.integers(0, 1000), min_size=1, max_size=8,
                                 unique=True))) / 100.0
    m = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=len(x),
                                 max_size=len(x))))
    return x, m / m.sum()


@PROPERTY
@given(atom_sets(), atom_sets())
def test_wasserstein2_squared_matches_lp_oracle(a, b):
    w = wasserstein2(Density.from_atoms(*a, domain=(-1, 11)),
                     Density.from_atoms(*b, domain=(-1, 11)))
    assert abs(w * w - oracle.lp_wasserstein(a, b, method="lp")) <= 1e-9


@PROPERTY
@given(densities(), densities(), densities())
def test_wasserstein2_triangle_inequality(a, b, c):
    ab, bc, ac = wasserstein2(a, b), wasserstein2(b, c), wasserstein2(a, c)
    assert ac <= ab + bc + 1e-12 * (1.0 + ab + bc)
