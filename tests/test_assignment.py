import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density
from swarmlq import Density, _pwlin, quantile_of, wasserstein2
from swarmlq.assignment import (AssignmentPlan, _marginal, check_marginals, optimal_plan,
                                plan_cost, plan_from_couplings)
from swarmlq.measures import densities_l1_distance
from swarmlq import oracle

SEED = 555


# ---------------------------------------------------------------------------
# the per-row loops that the array code of ``_marginal`` and ``optimal_plan``
# replaced, kept as references

def _ref_marginal(rows, domain):
    atoms = {}
    cells = []
    for m, a, b in rows:
        if m <= 0:
            continue
        if b > a:
            cells.append((a, b, m / (b - a)))
        else:
            atoms[a] = atoms.get(a, 0.0) + m
    cells.sort()
    edges, values = [], []
    for a, b, v in cells:
        if edges and a < edges[-1] - 1e-15 * max(1.0, abs(a)):
            raise ValueError("comonotone plan has overlapping ramps")
        if not edges:
            edges.append(a)
        elif a > edges[-1]:
            edges.append(a)
            values.append(0.0)
        edges.append(b)
        values.append(v)
    pts = [a for a in atoms] + edges
    if domain is None:
        domain = (min(pts), max(pts)) if pts else (0.0, 1.0)
    return Density(domain,
                   atoms=[(x, m) for x, m in sorted(atoms.items())] or None,
                   edges=np.asarray(edges), values=np.asarray(values),
                   normalize=False)


def _ref_plan_segments(r, d):
    qr, qd = quantile_of(r), quantile_of(d)
    z, V = _pwlin.align([(qr.z, qr.values), (qd.z, qd.values)])
    segs = []
    for k in range(len(z) - 1):
        dz = z[k + 1] - z[k]
        if dz <= 0:
            continue
        segs.append((dz, V[0, k], V[0, k + 1], V[1, k], V[1, k + 1]))
    return AssignmentPlan(np.asarray(segs)).segments


def _outcome(fn, *args):
    """The density's fields as bytes, or the ``ValueError`` message."""
    try:
        got = fn(*args)
    except ValueError as exc:
        return str(exc)
    return [np.asarray(a, float).tobytes() for a in
            (got.domain, got.atom_x, got.atom_m, got.edges, got.values)]


def test_diagonal_plan_zero_cost():
    d = Density((0, 10), atoms=[(2.0, 0.4)], edges=[4, 6], values=[0.3])
    plan = optimal_plan(d, d)
    assert plan_cost(plan) == 0.0
    assert check_marginals(plan, d, d).ok


def test_single_coupling_cost():
    plan = plan_from_couplings([(0.0, 3.0, 1.0)])
    assert plan_cost(plan) == pytest.approx(9.0)


def test_crossed_pair_uncrossed_optimal():
    r = Density.from_atoms([0.0, 1.0], [0.5, 0.5], domain=(-1, 3))
    d = Density.from_atoms([1.2, 0.2], [0.5, 0.5], domain=(-1, 3))
    plan = optimal_plan(r, d)
    pairs = {(x, y) for x, y, _ in plan.atom_couplings()}
    assert pairs == {(0.0, 0.2), (1.0, 1.2)}
    crossed = plan_from_couplings([(0.0, 1.2, 0.5), (1.0, 0.2, 0.5)])
    assert plan_cost(crossed) > plan_cost(plan)
    assert check_marginals(crossed, r, d).ok  # feasible, just not optimal


def test_six_atom_equal_mass_vs_permutation_enumeration():
    rng = np.random.default_rng(SEED)
    print(f"seed={SEED}")
    for _ in range(10):
        ax = np.sort(rng.uniform(0, 10, 6))
        bx = np.sort(rng.uniform(0, 10, 6))
        r = Density.from_atoms(ax, np.full(6, 1 / 6), domain=(-1, 11))
        d = Density.from_atoms(bx, np.full(6, 1 / 6), domain=(-1, 11))
        cost = plan_cost(optimal_plan(r, d))
        brute = min(np.sum((ax - bx[list(p)]) ** 2) / 6
                    for p in itertools.permutations(range(6)))
        assert cost == pytest.approx(brute, abs=1e-9)


def test_plan_cost_equals_wasserstein_squared():
    rng = np.random.default_rng(SEED + 1)
    for kinds in (("atoms", "atoms"), ("mixed", "continuous"), ("mixed", "mixed")):
        for _ in range(5):
            r = random_density(rng, kind=kinds[0])
            d = random_density(rng, kind=kinds[1])
            plan = optimal_plan(r, d)
            assert plan_cost(plan) == pytest.approx(wasserstein2(r, d) ** 2, abs=1e-9)
            assert check_marginals(plan, r, d).ok


def test_comonotone_structure():
    rng = np.random.default_rng(SEED + 2)
    r = random_density(rng, kind="atoms")
    d = random_density(rng, kind="atoms")
    plan = optimal_plan(r, d)
    rows = plan.atom_couplings()
    xs = [x for x, _, _ in rows]
    ys = [y for _, y, _ in rows]
    assert xs == sorted(xs)
    assert ys == sorted(ys)


def test_marginal_violation_detected():
    r = Density.from_atoms([0.0, 1.0], [0.5, 0.5], domain=(-1, 3))
    d = Density.from_atoms([0.2, 1.2], [0.5, 0.5], domain=(-1, 3))
    bad = plan_from_couplings([(0.0, 0.2, 1.0), (1.0, 1.2, 0.5)])  # doubled mass
    rep = check_marginals(bad, r, d)
    assert not rep.ok
    assert rep.mass_error == pytest.approx(0.5)
    shifted = plan_from_couplings([(0.0, 0.2, 0.5), (1.1, 1.2, 0.5)])  # wrong support
    rep2 = check_marginals(shifted, r, d)
    assert not rep2.ok and rep2.l1_x > 1e-9


def test_northwest_corner_shuffled_is_feasible_suboptimal():
    rng = np.random.default_rng(SEED + 3)
    ax = np.sort(rng.uniform(0, 10, 5))
    am = rng.uniform(0.1, 1, 5)
    am /= am.sum()
    bx = np.sort(rng.uniform(0, 10, 5))
    bm = rng.uniform(0.1, 1, 5)
    bm /= bm.sum()
    r = Density.from_atoms(ax, am, domain=(-1, 11))
    d = Density.from_atoms(bx, bm, domain=(-1, 11))
    perm = rng.permutation(5)
    # northwest-corner fill against a shuffled resource order
    coups = []
    i = j = 0
    ra, rb = am[perm[0]], bm[0]
    while True:
        take = min(ra, rb)
        coups.append((ax[perm[i]], bx[j], take))
        ra -= take
        rb -= take
        if ra <= 1e-15:
            i += 1
            if i == 5:
                break
            ra = am[perm[i]]
        if rb <= 1e-15:
            j += 1
            if j == 5:
                break
            rb = bm[j]
    feasible = plan_from_couplings(coups)
    assert check_marginals(feasible, r, d).ok
    assert plan_cost(feasible) >= wasserstein2(r, d) ** 2 - 1e-12


def test_optimal_matches_lp_oracle():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(10):
        n, m = rng.integers(2, 7, 2)
        ax = np.sort(rng.uniform(0, 10, n))
        am = rng.uniform(0.1, 1, n)
        am /= am.sum()
        bx = np.sort(rng.uniform(0, 10, m))
        bm = rng.uniform(0.1, 1, m)
        bm /= bm.sum()
        r = Density.from_atoms(ax, am, domain=(-1, 11))
        d = Density.from_atoms(bx, bm, domain=(-1, 11))
        assert plan_cost(optimal_plan(r, d)) == pytest.approx(
            oracle.lp_wasserstein((ax, am), (bx, bm)), abs=1e-9)


@pytest.mark.parametrize("offset", [0.0, 2.0 ** 30])
def test_marginal_overlap_tolerance_scales_with_the_offset(offset):
    # two ramps of mass 1/2 that touch at ``end``; the second starts one ulp
    # early, as rounding may place it, or overlaps for real
    length = 1.0 if offset == 0.0 else 2.0 ** 20  # long enough that the mass stays 1
    end = offset + length
    first = (0.5, offset, end)
    touching = _marginal(np.array([first, (0.5, np.nextafter(end, 0.0), end + length)]), None)
    assert np.array_equal(touching.edges, [offset, end, end + length])
    for overlap in (2e-15, 1e-9):
        with pytest.raises(ValueError, match="overlapping ramps"):
            _marginal(np.array([first, (0.5, end - overlap * max(1.0, end), end + length)]),
                      None)


@st.composite
def marginal_cases(draw):
    """One side of an optimal plan's rows, raw-edited, with the domain to read it on.

    The edits are those a plan built by hand may carry: a random row order,
    zero-mass rows, an atom split into rows at exactly the same position, a
    ramp split so that its second half starts one ulp before the first ends,
    and a real overlap.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    offset = draw(st.sampled_from([0.0, -50.0, 1e6]))
    kinds = draw(st.tuples(*[st.sampled_from(["atoms", "mixed", "continuous"])] * 2))
    r, d = (random_density(rng, domain=(offset, offset + 10.0), kind=k) for k in kinds)
    plan = optimal_plan(r, d)
    side = draw(st.sampled_from([[0, 1, 2], [0, 3, 4]]))
    rows = [tuple(row) for row in plan.segments[:, side]]
    edits = draw(st.lists(st.sampled_from(["zero", "split-atom", "ulp", "overlap"]),
                          max_size=4))
    for edit in edits:
        k = int(rng.integers(len(rows)))
        m, a, b = rows[k]
        if edit == "zero":
            rows.append((0.0, rng.uniform(a - 1.0, b + 1.0), b))
        elif edit == "split-atom" and a == b:
            rows[k] = (0.5 * m, a, a)
            rows.append((0.5 * m, a, a))
        elif edit in ("ulp", "overlap") and b > a:
            c = 0.5 * (a + b)
            start = np.nextafter(c, -np.inf) if edit == "ulp" else c - 0.25 * (b - a)
            rows[k] = (0.5 * m, a, c)
            rows.append((0.5 * m, start, b))
    rows = np.asarray(rows)[rng.permutation(len(rows))]
    domain = draw(st.sampled_from([None, (r.domain, d.domain)[side[1] // 3]]))
    return rows, domain, plan, r, d


@settings(max_examples=300, deadline=None)
@given(marginal_cases())
def test_marginal_and_plan_equal_the_loop_references(case):
    rows, domain, plan, r, d = case
    assert plan.segments.tobytes() == _ref_plan_segments(r, d).tobytes()
    assert _outcome(_marginal, rows, domain) == _outcome(_ref_marginal, rows, domain)
    got = check_marginals(plan, r, d)
    mx = _ref_marginal(plan.segments[:, [0, 1, 2]], r.domain)
    my = _ref_marginal(plan.segments[:, [0, 3, 4]], d.domain)
    assert (got.l1_x, got.l1_y) == (densities_l1_distance(mx, r), densities_l1_distance(my, d))


@pytest.mark.parametrize("row", [(np.nan, 0.0, 1.0), (np.nan, 2.0, 2.0)])
def test_marginal_nan_mass_reaches_density(row):
    rows = np.array([row, (1.0, 3.0, 3.0)])
    with pytest.raises(ValueError, match="finite"):
        _marginal(rows, None)
    assert _outcome(_marginal, rows, None) == _outcome(_ref_marginal, rows, None)
