import itertools

import numpy as np
import pytest

from helpers import random_density
from swarmlq import Density, wasserstein2
from swarmlq.assignment import (_marginal, check_marginals, optimal_plan, plan_cost,
                                plan_from_couplings)
from swarmlq import oracle

SEED = 555


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
