import numpy as np
import pytest

from helpers import random_density
from swarmlq import Density, cdf_of, quantile_of
from swarmlq.errors import NumericalError
from swarmlq.transport import (CallableQuantileVelocity, CallableVelocity,
                               GridVelocity, advect_density, evolve_quantile,
                               flow_map, from_quantile_coords,
                               to_quantile_coords, _u_at_nodes)

SEED = 31415


def _mixed():
    return Density((0, 4), atoms=[(1.0, 0.25), (2.5, 0.25)],
                   edges=[0, 1, 2], values=[0.3, 0.2])


def _smooth_field(rng):
    a = rng.uniform(-0.4, 0.4)
    b = rng.uniform(0.3, 1.2)
    c = rng.uniform(0, 2 * np.pi)
    e = rng.uniform(0.5, 2.0)
    return CallableVelocity(lambda x, t: a * np.sin(b * x + c) + 0.2 * np.cos(e * t))


def test_flow_map_zero_velocity_is_identity():
    fm = flow_map(CallableVelocity(lambda x, t: np.zeros_like(x)),
                  T=1.0, nt=50, nx=11, domain=(0, 1))
    assert np.allclose(fm.traj, fm.x0[None, :], atol=0)


def test_flow_map_linear_sink_analytic():
    fm = flow_map(CallableVelocity(lambda x, t: -x), T=1.0, nt=1000, nx=21,
                  domain=(-2, 2))
    worst = max(np.max(np.abs(fm.traj[k] - fm.x0 * np.exp(-fm.t[k])))
                for k in range(len(fm.t)))
    assert worst < 1e-8


def test_flow_map_order_preserved():
    rng = np.random.default_rng(SEED)
    fm = flow_map(_smooth_field(rng), T=2.0, nt=200, nx=41, domain=(0, 4))
    assert np.all(np.diff(fm.traj, axis=1) >= 0)


def test_advect_zero_velocity_fixes_density():
    d = _mixed()
    path = advect_density(d, CallableVelocity(lambda x, t: np.zeros_like(x)),
                          T=1.0, nt=100, save_every=25)
    last = path[-1]
    assert np.allclose(last.atom_x, d.atom_x, atol=0)
    assert np.allclose(last.values, d.values, atol=0)


def test_advect_constant_velocity_translates():
    d = _mixed()
    path = advect_density(d, CallableVelocity(lambda x, t: np.full_like(x, 1.5)),
                          T=2.0, nt=200, save_every=200)
    assert np.allclose(path[-1].atom_x, d.atom_x + 3.0, atol=1e-12)
    assert np.allclose(path[-1].edges, d.edges + 3.0, atol=1e-12)


def test_advect_conserves_mass():
    rng = np.random.default_rng(SEED + 1)
    d = random_density(rng, kind="mixed")
    path = advect_density(d, _smooth_field(rng), T=2.0, nt=200, save_every=20)
    for slice_ in path.densities:
        assert abs(slice_.mass - 1.0) <= 1e-10


def test_advect_detects_atom_merge():
    # a step field crossed with one coarse step: the fast atom leapfrogs the
    # stationary one and the strict-order check must fire
    d = Density((0, 10), atoms=[(4.0, 0.5), (5.2, 0.5)])
    leapfrog = CallableVelocity(lambda x, t: np.where(x < 5.0, 3.0, 0.0))
    with pytest.raises(NumericalError):
        advect_density(d, leapfrog, T=1.0, nt=1)


def test_characteristic_propagation():
    # percentiles ride the flow: F_t(Phi_t(x)) = F_0(x) up to cell resolution
    rng = np.random.default_rng(SEED + 2)
    edges = np.linspace(0.5, 3.5, 61)
    d = Density((0, 4), edges=edges, values=np.full(60, 1.0 / 3.0))
    v = _smooth_field(rng)
    T, nt = 1.5, 300
    path = advect_density(d, v, T, nt, save_every=nt)
    fm = flow_map(v, T, nt, nx=201, domain=(0.5, 3.5))
    F0 = cdf_of(d)
    FT = cdf_of(path[-1])
    xs = np.linspace(0.6, 3.4, 41)
    err = np.max(np.abs(FT(fm(xs, T)) - F0(xs)))
    assert err < 2e-3  # grid tolerance: one cell of width 0.05, linear CDF


def test_evolve_quantile_trivials():
    q = quantile_of(_mixed())
    ts, qs = evolve_quantile(q, CallableQuantileVelocity(lambda z, t: np.zeros_like(z)),
                             T=1.0, nt=50, save_every=50)
    assert np.allclose(qs[-1].values, q.values, atol=0)
    ts, qs = evolve_quantile(q, CallableQuantileVelocity(lambda z, t: np.ones_like(z)),
                             T=2.0, nt=50, save_every=50)
    assert np.allclose(qs[-1].values, q.values + 2.0, atol=1e-12)


def test_evolve_rejects_flat_violating_velocity():
    q = quantile_of(Density((0, 10), atoms=[(2.0, 0.6), (7.0, 0.4)]))
    bad = CallableQuantileVelocity(lambda z, t: z)  # varies across flats
    with pytest.raises(NumericalError):
        evolve_quantile(q, bad, T=1.0, nt=10)


def test_evolve_rejects_monotonicity_loss():
    q = quantile_of(Density((0, 10), atoms=[(2.0, 0.5), (3.0, 0.5)]))
    crossing = CallableQuantileVelocity(
        lambda z, t: np.where(z <= 0.5, 2.0, -2.0))
    with pytest.raises(NumericalError):
        evolve_quantile(q, crossing, T=2.0, nt=100)


def test_transform_roundtrip_inverse_then_forward():
    # T^-1(T(r, v)) returns v exactly at support samples on the time grid
    rng = np.random.default_rng(SEED + 3)
    print(f"seed={SEED + 3}")
    for _ in range(10):
        d = random_density(rng, kind="mixed")
        v = _smooth_field(rng)
        q0, u = to_quantile_coords(d, v, T=1.0, nt=100)
        vb = from_quantile_coords(q0, u, T=1.0, nt=100)
        for j in (0, 25, 50, 100):
            t = vb.t_nodes[j]
            xs = u.quantile_trajectory[j]
            assert np.max(np.abs(vb(xs, t) - v(xs, t))) <= 1e-9


def test_transform_roundtrip_forward_then_inverse():
    # T(T^-1(q, u)) returns u exactly at the quantile nodes
    q = quantile_of(Density((0, 5), atoms=[(1.0, 0.4), (3.0, 0.6)]))
    u = CallableQuantileVelocity(
        lambda z, t: np.where(z <= 0.4, 0.5, -0.25) * (1 + 0.1 * t))
    v = from_quantile_coords(q, u, T=1.0, nt=100)
    ts, qs = evolve_quantile(q, u, T=1.0, nt=100, save_every=20)
    for t, qq in zip(ts, qs):
        got = v(qq.values, t)
        want = _u_at_nodes(u, qq.z, t)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_transform_respects_input_constraint():
    q = quantile_of(Density((0, 5), atoms=[(1.0, 0.4), (3.0, 0.6)]))
    bad = CallableQuantileVelocity(lambda z, t: z)
    with pytest.raises(NumericalError):
        from_quantile_coords(q, bad, T=1.0, nt=10)


def test_transform_checks_companion_density():
    d = Density((0, 5), atoms=[(1.0, 0.4), (3.0, 0.6)])
    q = quantile_of(d)
    u = CallableQuantileVelocity(lambda z, t: np.where(z <= 0.4, 0.1, 0.2))
    from_quantile_coords(q, u, T=1.0, nt=10, r_companion=d)  # consistent: fine
    other = Density((0, 5), atoms=[(2.0, 0.5), (4.0, 0.5)])
    with pytest.raises(ValueError):
        from_quantile_coords(q, u, T=1.0, nt=10, r_companion=other)


@pytest.mark.parametrize("offset", [0.0, 1e9])
def test_companion_check_scales_with_the_quantile(offset):
    # at 1e9 a companion one ulp off at every cell edge is 1.4e-14 off in
    # squared L2, only rounding; half the spread off is a different density
    edges = offset + np.linspace(0.0, 10.0, 11)
    vals = np.random.default_rng(3).uniform(0.5, 1.5, 10)
    domain = (offset - 1.0, offset + 16.0)
    q = quantile_of(Density(domain, edges=edges, values=vals, normalize=True))
    u = CallableQuantileVelocity(lambda z, t: np.ones_like(z))
    ulp = Density(domain, edges=np.nextafter(edges, np.inf), values=vals, normalize=True)
    from_quantile_coords(q, u, T=1.0, nt=4, r_companion=ulp)
    shifted = Density(domain, edges=edges + 5.0, values=vals, normalize=True)
    with pytest.raises(ValueError, match="companion"):
        from_quantile_coords(q, u, T=1.0, nt=4, r_companion=shifted)


def test_single_atom_pullback_is_uniform_in_z():
    d = Density((0, 10), atoms=[(4.0, 1.0)])
    v = CallableVelocity(lambda x, t: 0.3 * x + 0.1 * t)
    q0, u = to_quantile_coords(d, v, T=1.0, nt=50)
    z = np.linspace(0, 1, 11)
    for t in (0.0, 0.5, 1.0):
        vals = u(z, t)
        assert np.ptp(vals) < 1e-12


def test_uniform_density_composition():
    # v(x) = x on the uniform law gives u(z) = Q(z) = z
    d = Density.uniform((0, 1))
    q0, u = to_quantile_coords(d, CallableVelocity(lambda x, t: x), T=0.5, nt=50)
    z = np.linspace(0, 1, 21)
    assert np.max(np.abs(u(z, 0.0) - z)) < 1e-12


def test_commutativity_advect_vs_evolve():
    rng = np.random.default_rng(SEED + 4)
    print(f"seed={SEED + 4}")
    T, nt = 1.0, 200
    grid_tol = 5 * (T / nt) ** 2 * 10  # five times the step tolerance scale
    for _ in range(5):
        d = random_density(rng, kind="mixed")
        v = _smooth_field(rng)
        q0, u = to_quantile_coords(d, v, T, nt)
        path = advect_density(d, v, T, nt, save_every=nt)
        ts, qs = evolve_quantile(q0, u, T, nt, save_every=nt)
        zz = np.linspace(0, 1, 301)
        err = np.max(np.abs(quantile_of(path[-1])(zz) - qs[-1](zz)))
        assert err <= grid_tol


def test_grid_velocity_bilinear():
    xg = np.linspace(0, 1, 5)
    tg = np.linspace(0, 1, 3)
    vals = np.outer(tg, xg)  # v = t * x
    gv = GridVelocity(xg, tg, vals)
    assert gv(0.5, 0.5) == pytest.approx(0.25)
    assert gv(np.array([0.25, 0.75]), 1.0) == pytest.approx([0.25, 0.75])
