import numpy as np
import pytest

from helpers import random_density
from swarmlq import (Density, QuantileFunction, cdf_from_quantile, cdf_of,
                     density_from_quantile, l2_quantile_distance, pushforward,
                     quantile_of, wasserstein2)
from swarmlq import oracle
from swarmlq.measures import densities_l1_distance

SEED = 20250808


def test_cdf_single_atom_is_step():
    d = Density((0, 10), atoms=[(3.0, 1.0)])
    F = cdf_of(d)
    assert F(2.999) == 0.0
    assert F(3.0) == 1.0
    assert F(3.0, side="left") == 0.0
    assert F.jump_at(3.0) == 1.0


def test_cdf_uniform_is_identity():
    F = cdf_of(Density.uniform((0, 1)))
    x = np.linspace(0, 1, 11)
    assert np.allclose(F(x), x, atol=1e-15)


def test_cdf_eleven_atom_staircase():
    w = np.array([4.0, 7, 2, 9, 5, 8, 3, 10, 6, 1, 5])
    w = w / w.sum()
    pos = np.linspace(0, 2, 11)
    F = cdf_of(Density((0, 10), atoms=np.column_stack([pos, w])))
    jumps = np.array([F.jump_at(x) for x in pos])
    assert np.allclose(jumps, w, atol=1e-14)
    assert abs(jumps.sum() - 1.0) < 1e-12
    assert F(10.0) == 1.0


def test_quantile_uniform_identity():
    Q = quantile_of(Density.uniform((0, 1)))
    z = np.linspace(0, 1, 17)
    assert np.allclose(Q(z), z, atol=1e-15)


def test_quantile_single_atom_flat():
    Q = quantile_of(Density((0, 10), atoms=[(4.2, 1.0)]))
    assert Q(0.0) == 4.2 and Q(0.5) == 4.2 and Q(1.0) == 4.2
    flats = Q.flat_intervals
    assert flats.shape == (1, 3)
    assert tuple(flats[0]) == (0.0, 1.0, 4.2)


def test_quantile_two_atoms_hand_enumerated():
    # generalized inverse of the two-atom CDF, worked by hand:
    # Q = 0 on (0, 0.5], 4 on (0.5, 1]
    Q = quantile_of(Density((-1, 5), atoms=[(0.0, 0.5), (4.0, 0.5)]))
    assert Q(0.25) == 0.0
    assert Q(0.5) == 0.0
    assert Q(0.5000000001) == 4.0
    assert Q(1.0) == 4.0
    lengths = Q.flat_intervals[:, 1] - Q.flat_intervals[:, 0]
    assert np.allclose(lengths, [0.5, 0.5])


def test_cdf_from_quantile_trivials():
    q = QuantileFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    F = cdf_from_quantile(q)
    x = np.linspace(0, 1, 9)
    assert np.allclose(F(x), x)
    q2 = QuantileFunction(np.array([0.0, 1.0]), np.array([5.0, 5.0]), domain=(0, 10))
    F2 = cdf_from_quantile(q2)
    assert F2(4.999) == 0.0 and F2(5.0) == 1.0


def test_cdf_from_quantile_staircase():
    # flats of lengths 0.3 and 0.7 at values 1 and 2 -> jumps 0.3@1, 0.7@2
    q = QuantileFunction(np.array([0.0, 0.3, 0.3, 1.0]),
                         np.array([1.0, 1.0, 2.0, 2.0]), domain=(0, 3))
    F = cdf_from_quantile(q)
    assert F(0.5) == 0.0
    assert F(1.0) == pytest.approx(0.3, abs=1e-15)
    assert F(1.5) == pytest.approx(0.3, abs=1e-15)
    assert F(2.0) == 1.0


def test_cdf_quantile_roundtrip_at_continuity_points():
    rng = np.random.default_rng(SEED)
    for kind in ("atoms", "continuous", "mixed"):
        d = random_density(rng, kind=kind)
        F1 = cdf_of(d)
        F2 = cdf_from_quantile(quantile_of(d))
        x = np.linspace(0, 10, 501)
        x = x[[F1.jump_at(xx) == 0 for xx in x]]
        assert np.max(np.abs(F1(x) - F2(x))) < 1e-12


def test_density_from_quantile_trivials():
    u = density_from_quantile(QuantileFunction(np.array([0.0, 1.0]),
                                               np.array([0.0, 1.0])))
    assert len(u.atom_x) == 0
    assert np.allclose(u.values, 1.0)
    a = density_from_quantile(QuantileFunction(np.array([0.0, 1.0]),
                                               np.array([5.0, 5.0])))
    assert np.allclose(a.atom_x, [5.0]) and np.allclose(a.atom_m, [1.0])


def test_density_from_quantile_dilation():
    # Q(z) = 2z pushes the uniform law to density 0.5 on [0, 2]
    d = density_from_quantile(QuantileFunction(np.array([0.0, 1.0]),
                                               np.array([0.0, 2.0])))
    assert np.allclose(d.edges, [0.0, 2.0])
    assert np.allclose(d.values, [0.5])


def test_density_quantile_roundtrip():
    rng = np.random.default_rng(SEED + 1)
    for kind in ("atoms", "mixed"):
        for _ in range(10):
            d = random_density(rng, kind=kind)
            r = density_from_quantile(quantile_of(d))
            assert np.allclose(r.atom_x, d.atom_x, atol=1e-14)
            assert np.allclose(r.atom_m, d.atom_m, atol=1e-14)
            assert densities_l1_distance(r, d) < 1e-12


def test_pushforward_identity_and_shift():
    d = Density((0, 4), atoms=[(0.0, 0.4)], edges=[1, 2], values=[0.6])
    same = pushforward(d, lambda x: x)
    assert densities_l1_distance(same, d) < 1e-12
    moved = pushforward(Density((0, 4), atoms=[(0.0, 1.0)]), lambda x: x + 3)
    assert np.allclose(moved.atom_x, [3.0])


def test_pushforward_square_test_function_identity():
    # uniform on [0,1] through x^2; check int psi d(f#mu) = int psi(x^2) dx
    # against dense Simpson quadrature for piecewise-linear psi
    d = Density.uniform((0, 1))
    p = pushforward(d, lambda x: x ** 2, nz=4096)
    knots = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    psi_v = np.array([0.3, 1.0, -0.4, 0.7, 0.1])
    psi = lambda y: np.interp(y, knots, psi_v)
    lhs = 0.0
    mid = 0.5 * (p.edges[:-1] + p.edges[1:])
    widths = np.diff(p.edges)
    lhs += np.sum(p.values * widths * (psi(p.edges[:-1]) + 4 * psi(mid) + psi(p.edges[1:])) / 6)
    xs = np.linspace(0, 1, 20001)
    rhs = np.trapezoid(psi(xs ** 2), xs)
    assert abs(lhs - rhs) < 5e-5


def test_pushforward_rejects_non_monotone():
    with pytest.raises(ValueError):
        pushforward(Density.uniform((0, 1)), lambda x: -x)


def test_wasserstein_trivials():
    d = Density((0, 10), atoms=[(3.0, 0.5)], edges=[4, 6], values=[0.25])
    assert wasserstein2(d, d) == 0.0
    a = Density((0, 10), atoms=[(2.0, 1.0)])
    b = Density((0, 10), atoms=[(7.5, 1.0)])
    assert wasserstein2(a, b) == pytest.approx(5.5, abs=1e-14)


def test_wasserstein_matches_lp_oracle():
    rng = np.random.default_rng(SEED + 2)
    print(f"seed={SEED + 2}")
    for _ in range(25):
        n, m = rng.integers(1, 6, 2)
        ax = np.sort(rng.uniform(0, 10, n))
        am = rng.uniform(0.1, 1, n)
        am /= am.sum()
        bx = np.sort(rng.uniform(0, 10, m))
        bm = rng.uniform(0.1, 1, m)
        bm /= bm.sum()
        w = wasserstein2(Density.from_atoms(ax, am, domain=(-1, 11)),
                         Density.from_atoms(bx, bm, domain=(-1, 11)))
        lp = oracle.lp_wasserstein((ax, am), (bx, bm))
        assert abs(w * w - lp) < 1e-9


def test_l2_quantile_distance_trivials():
    q = QuantileFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert l2_quantile_distance(q, q) == 0.0
    qc = QuantileFunction(np.array([0.0, 1.0]), np.array([0.7, 1.7]))
    assert l2_quantile_distance(q, qc) == pytest.approx(0.7, abs=1e-15)


def test_l2_distance_matches_reconstructed_densities():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(10):
        qa = quantile_of(random_density(rng, kind="mixed"))
        qb = quantile_of(random_density(rng, kind="atoms"))
        direct = l2_quantile_distance(qa, qb)
        via = wasserstein2(density_from_quantile(qa), density_from_quantile(qb))
        assert abs(direct - via) < 1e-9


def test_isometry_on_random_pairs():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(30):
        a = random_density(rng, kind="mixed")
        b = random_density(rng, kind="mixed")
        w = wasserstein2(a, b)
        l2 = l2_quantile_distance(quantile_of(a), quantile_of(b))
        assert abs(w - l2) <= 1e-9


def test_pseudo_inverse_identities():
    # Q(0) is defined as the limit from the right, so Q(F(x)) <= x is tested
    # from the lower support edge up (below it F = 0 and Q(0) sits above x)
    rng = np.random.default_rng(SEED + 5)
    for _ in range(20):
        d = random_density(rng, kind="mixed")
        F = cdf_of(d)
        Q = quantile_of(d)
        x = np.linspace(d.support[0], d.domain[1], 101)
        assert np.all(Q(F(x)) <= x + 1e-12)
        z = np.linspace(0, 1, 101)
        assert np.all(F(Q(z)) >= z - 1e-12)


def test_atom_merging_and_validation():
    d = Density((0, 10), atoms=[(2.0, 0.5), (2.0, 0.5)])
    assert len(d.atom_x) == 1 and d.atom_m[0] == 1.0
    with pytest.raises(ValueError):
        Density((0, 10), atoms=[(2.0, 0.5)])  # mass 0.5 != 1
    with pytest.raises(ValueError):
        Density((0, 1), atoms=[(3.0, 1.0)])  # atom outside domain
    with pytest.raises(ValueError):
        Density((0, 1), edges=[0, 0.5, 1], values=[-1.0, 3.0])


@pytest.mark.parametrize("field, kwargs", [
    ("domain", dict(domain=(0.0, np.inf), atoms=[(2.0, 1.0)])),
    ("atom position", dict(domain=(0.0, 10.0), atoms=[(np.nan, 1.0)])),
    ("atom mass", dict(domain=(0.0, 10.0), atoms=[(2.0, np.inf)], normalize=True)),
    ("edges", dict(domain=(0.0, 10.0), edges=[0.0, np.nan, 10.0], values=[0.1, 0.1])),
    ("values", dict(domain=(0.0, 10.0), edges=[0.0, 5.0, 10.0], values=[np.inf, 0.1],
                    normalize=True)),
])
def test_density_rejects_non_finite(field, kwargs):
    with pytest.raises(ValueError, match="finite"):
        Density(**kwargs)


def test_record_roundtrip():
    d = Density((0, 4), atoms=[(1, 0.25), (2.5, 0.25)], edges=[0, 1, 2],
                values=[0.3, 0.2])
    r = Density.from_record(d.to_record())
    assert densities_l1_distance(r, d) < 1e-15
    assert r.domain == d.domain


def test_grid_refinement_convergence():
    # histogram discretization of a smooth pdf converges in W2 at second order
    pdf = lambda x: np.exp(-0.5 * (x - 5.0) ** 2) / np.sqrt(2 * np.pi)
    fine = Density.from_pdf(pdf, (0, 10), nx=3200)
    errs = np.array([wasserstein2(Density.from_pdf(pdf, (0, 10), nx=nx), fine)
                     for nx in (25, 50, 100, 200)])
    assert np.all(errs[:-1] / errs[1:] > 3.0)
    assert errs[-1] < 3e-4
