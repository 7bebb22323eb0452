"""The benchmark's workloads: seeded inputs, one op each, and its reference check.

Each workload splits its set-up in two: ``generate(seed)`` draws the inputs
as plain numpy arrays (so a seed can be compared with another without the
library), and ``prepare(spec, workdir)`` turns them into what the op hands
to ``swarmlq``.  ``op(state, i)`` is the timed call; ``check(state, i,
result)`` runs outside the timed region and returns the op's relative error
against its reference (NaN when the result is not finite).  Ops cycle
through ``len(CYCLE)`` parameter settings, and runs are made of whole cycles.
"""

import contextlib
import io
import shutil
from pathlib import Path

import numpy as np

import reference

DOMAIN = (0.0, 10.0)


def _positions(rng, n, lo, hi, min_gap):
    """``n`` sorted uniform draws on [lo, hi] with neighbours at least ``min_gap`` apart."""
    slack = (hi - lo) - min_gap * (n - 1)
    return lo + np.sort(rng.uniform(0.0, slack, n)) + min_gap * np.arange(n)


def _mixture_pdf(x, means, sigmas, weights):
    x = np.asarray(x, float)[..., None]
    g = np.exp(-0.5 * ((x - means) / sigmas) ** 2) / (sigmas * np.sqrt(2.0 * np.pi))
    return np.sum(weights * g, axis=-1)


def _histogram(edges, means, sigmas, weights):
    """Per-bin Simpson averages of a Gaussian mixture."""
    a, b = edges[:-1], edges[1:]
    f = lambda x: _mixture_pdf(x, means, sigmas, weights)
    return (f(a) + 4.0 * f(0.5 * (a + b)) + f(b)) / 6.0


class StaticGeodesic:
    """``solve_static``: mixed resource to a static bimodal histogram demand.

    The reference is the geodesic theorem: the trajectory's W2 distance to
    the partition-averaged demand contracts exactly by ``phi_r(t, 0)``.
    """

    name = "static-geodesic"
    alpha, T, nt, save_every = 2.0, 10.0, 1000, 20
    CYCLE = (alpha,)
    tol = 1e-4
    expected = ("regimes.solve_static", "regimes.evaluate_cost",
                "regimes.StaticOptimalVelocity.slice_arrays",
                "regimes.StaticDemand.quantile_at", "measures.quantile_of",
                "measures.density_from_quantile", "partition.build_partition",
                "partition.average_wrt_partition", "lq.transition_r",
                "transport.QuantileReassembledVelocity.__call__")

    def generate(self, seed):
        # The op's cost grows with the number of demand breakpoints inside the
        # resource's continuous stretch.  Equal-mass demand bins and fixed
        # atom masses on each side keep that number, and so the op's size,
        # the same for every seed.  The atoms sit apart from the histogram:
        # an atom inside or touching continuous mass trips a motion-identity
        # defect in the solver, which ``StaticAtomsInside`` shows.
        rng = np.random.default_rng(seed)
        split = rng.uniform(0.3, 0.7, 2)
        lo, hi = rng.uniform(3.0, 3.5), rng.uniform(6.5, 7.0)
        hist_edges = np.linspace(lo, hi, 21)
        cell_v = rng.uniform(0.2, 1.0, 20)
        cell_v *= 0.6 / np.sum(cell_v * np.diff(hist_edges))
        means = np.array([rng.uniform(2.0, 4.0), rng.uniform(6.0, 8.0)])
        sigmas = rng.uniform(0.5, 1.0, 2)
        w = rng.uniform(0.3, 0.7)
        x = np.linspace(*DOMAIN, 20001)
        pdf = 0.98 * _mixture_pdf(x, means, sigmas, np.array([w, 1 - w])) + 0.02 / 10.0
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(x))])
        demand_edges = np.interp(np.linspace(0.0, 1.0, 201), cdf / cdf[-1], x)
        return {
            "atom_x": np.concatenate([_positions(rng, 2, 0.5, lo - 0.25, 0.5),
                                      _positions(rng, 2, hi + 0.25, 9.5, 0.5)]),
            "atom_m": 0.2 * np.array([split[0], 1 - split[0], split[1], 1 - split[1]]),
            "hist_edges": hist_edges,
            "hist_values": cell_v,
            "demand_edges": demand_edges,
            "demand_values": (1.0 / 200) / np.diff(demand_edges),
        }

    def prepare(self, spec, workdir):
        from swarmlq import Density, Scenario, StaticDemand
        resource = Density(DOMAIN, atoms=np.column_stack([spec["atom_x"], spec["atom_m"]]),
                           edges=spec["hist_edges"], values=spec["hist_values"],
                           normalize=True)
        demand = Density.from_histogram(spec["demand_edges"], spec["demand_values"],
                                        domain=DOMAIN)
        # D-bar and W2(R0, D-bar) for the check, from the reference code only
        q0 = reference.Quantile.of(resource)
        dbar = reference.CellAveraged(reference.Quantile.of(demand), q0.flats())
        return {"scenario": Scenario(resource, StaticDemand(demand), alpha=self.alpha,
                                     horizon=self.T, nt=self.nt),
                "dbar": dbar, "w0": reference.w2(q0, dbar)}

    def op(self, state, i):
        from swarmlq import solve_static
        return solve_static(state["scenario"], save_every=self.save_every)

    def check(self, state, i, sol):
        path = sol.trajectory
        want = reference.phi_r(self.alpha, self.T, path.t) * state["w0"]
        got = np.array([reference.w2(reference.Quantile.of(d), state["dbar"])
                        for d in path.densities])
        return float(np.max(np.abs(got - want))) / state["w0"]

    def params(self, i):
        return {"alpha": self.alpha, "dt/alpha": self.T / self.nt / self.alpha}


class StaticAtomsInside(StaticGeodesic):
    """``static-geodesic`` with its four atoms inside the histogram's span.

    At this commit ``solve_static`` raises "motion-cost identity violated"
    on such a resource, so every op fails by design.  The workload is not
    listed in BENCHMARK.json, which admits only workloads whose ops pass; it
    runs under ``--workload all`` so that a fix to the defect shows.
    """

    name = "static-atoms-inside"
    expected = ("regimes.solve_static",)

    def generate(self, seed):
        spec = super().generate(seed)
        rng = np.random.default_rng([seed, 1])
        lo, hi = rng.uniform(0.5, 1.0), rng.uniform(9.0, 9.5)
        spec["hist_edges"] = np.linspace(lo, hi, 21)
        spec["hist_values"] *= 0.6 / np.sum(spec["hist_values"] * np.diff(spec["hist_edges"]))
        spec["atom_x"] = _positions(rng, 4, lo + 1.0, hi - 1.0, 1.0)
        return spec


class GeneralTracking:
    """``solve_general``: 25 atoms tracking a drifting three-lobe sampled demand.

    One ``Scenario`` is reused while ``alpha`` sweeps, as in a parameter
    study.  The reference is the solver's own quadrature cross-check: the
    decomposed cost against the realized cost of the simulated trajectory.
    """

    name = "general-tracking"
    T, nt, sample_every = 8.0, 200, 10
    CYCLE = (0.5, 1.0, 2.0)
    tol = 1e-2
    expected = ("regimes.solve_general", "regimes.evaluate_cost",
                "regimes.SampledDemand.quantile_at", "measures.quantile_of",
                "measures.density_from_quantile", "partition.build_partition",
                "partition.average_wrt_partition", "partition.limit_constant_K",
                "lq.solve_family", "lq.feedforward",
                "transport.QuantileReassembledVelocity.__call__",
                "transport.QuantileReassembledVelocity.slice_arrays")

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        mass = rng.uniform(0.5, 1.5, 25)
        times = np.linspace(0.0, self.T, self.nt // self.sample_every + 1)
        base = np.sort(rng.uniform(-0.5, 0.5, 3)) + np.array([2.5, 5.0, 7.5])
        amp = rng.uniform(0.3, 0.9, 3)
        omega = 2.0 * np.pi / rng.uniform(4.0, 8.0, 3)
        phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        sigmas = rng.uniform(0.4, 0.8, 3)
        weights = rng.uniform(0.2, 0.5, 3)
        edges = np.linspace(*DOMAIN, 201)
        values = np.array([
            _histogram(edges, base + amp * np.sin(omega * t + phase), sigmas, weights)
            for t in times])
        return {"atom_x": _positions(rng, 25, 0.5, 9.5, 0.05),
                "atom_m": mass / mass.sum(),
                "times": times, "edges": edges, "values": values}

    def prepare(self, spec, workdir):
        from swarmlq import Density, SampledDemand, Scenario
        resource = Density(DOMAIN, atoms=np.column_stack([spec["atom_x"], spec["atom_m"]]))
        demand = SampledDemand(spec["times"], [
            Density.from_histogram(spec["edges"], v, domain=DOMAIN) for v in spec["values"]])
        return {"scenario": Scenario(resource, demand, alpha=self.CYCLE[0],
                                     horizon=self.T, nt=self.nt)}

    def op(self, state, i):
        from swarmlq import solve_general
        scenario = state["scenario"]
        scenario.alpha = self.CYCLE[i % len(self.CYCLE)]
        return solve_general(scenario, save_every=1)

    def check(self, state, i, sol):
        if not (np.isfinite(sol.cost) and np.isfinite(sol.breakdown.total)):
            return float("nan")
        return abs(sol.cost - sol.breakdown.total) / abs(sol.cost)

    def params(self, i):
        a = self.CYCLE[i % len(self.CYCLE)]
        return {"alpha": a, "dt/alpha": self.T / self.nt / a}


class PeriodicCli:
    """In-process ``swarmlq solve-periodic`` on a seeded periodic-mixture config.

    Ops share nothing: each parses the config, rebuilds the demand cache and
    writes its artifacts to a fresh directory.  The reference is the
    decomposed cost against the quadrature total, both read back from
    ``summary.txt``.
    """

    name = "periodic-cli"
    alpha, nt, harmonics = 0.08, 256, 32
    CYCLE = (alpha,)
    tol = 1e-2
    expected = ("cli.main", "cli.parse_config", "regimes.solve_periodic",
                "regimes.gaussian_mixture_demand", "regimes.evaluate_cost",
                "regimes.PeriodicDemand.quantile_at",
                "regimes.PeriodicVelocity.slice_arrays", "measures.Density.from_pdf",
                "measures.quantile_of", "measures.density_from_quantile",
                "partition.build_partition", "partition.limit_constant_K",
                "partition.average_wrt_partition",
                "transport.QuantileReassembledVelocity.__call__")

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        mass = rng.uniform(1.0, 10.0, 11)
        weights = rng.uniform(0.2, 0.5, 3)
        return {"atom_x": _positions(rng, 11, 0.5, 3.0, 0.1),
                "atom_m": mass / mass.sum(),
                "means": np.sort(rng.uniform(-0.8, 0.8, 3)) + np.array([2.0, 5.0, 8.0]),
                "sigmas": rng.uniform(0.4, 0.9, 3),
                "weights": weights,
                "sin_amplitudes": weights * rng.uniform(0.2, 0.8, 3)}

    def prepare(self, spec, workdir):
        atoms = np.column_stack([spec["atom_x"], spec["atom_m"]]).tolist()
        lines = [
            f"resource.domain = {list(DOMAIN)}",
            f"resource.atoms = {atoms}",
            'demand.kind = "periodic-mixture"',
            "demand.period = 1.0",
            f"demand.domain = {list(DOMAIN)}",
            *(f"demand.{k} = {spec[k].tolist()}"
              for k in ("means", "sigmas", "weights", "sin_amplitudes")),
            f"alpha = {self.alpha}",
            'horizon = "periodic"',
            f"grid.nt = {self.nt}",
            f"grid.harmonics = {self.harmonics}",
        ]
        config = Path(workdir) / "periodic.cfg"
        config.write_text("\n".join(lines) + "\n")
        return {"config": config, "workdir": Path(workdir)}

    def op(self, state, i):
        from swarmlq.cli import main
        out = state["workdir"] / f"op{i}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["solve-periodic", "--config", str(state["config"]),
                         "--out", str(out)])
        return {"code": code, "out": out}

    def check(self, state, i, result):
        out = result["out"]
        try:
            if result["code"] != 0:
                return float("nan")
            res = reference.parse_summary((out / "summary.txt").read_text())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        cost, quad = res.get("cost", np.nan), res.get("quadrature_total", np.nan)
        if not (np.isfinite(cost) and np.isfinite(quad)):
            return float("nan")
        return abs(cost - quad) / abs(cost)

    @staticmethod
    def counts(result):
        """Bytes of artifacts the op wrote; read before ``check`` removes them."""
        return {"cli.bytes_written": sum(p.stat().st_size for p in result["out"].iterdir())}

    def params(self, i):
        return {"alpha": self.alpha, "dt/alpha": 1.0 / self.nt / self.alpha}


class LqFamily:
    """``lq.solve_family`` on 256 scalar problems across four stiffness ratios.

    Half the problems track constant references, whose optimal cost has a
    closed form; the other half track sinusoids.  ``dt/alpha`` sweeps from
    0.01 to 10, into the regime where the seed's RK4 propagation is known to
    lose accuracy, so ops there fail the 1e-9 reference by design.
    """

    name = "lq-family"
    T, nt, B = 10.0, 2000, 256
    CYCLE = (0.01, 0.1, 1.0, 10.0)  # dt / alpha
    tol = 1e-9
    expected = ("lq.solve_family", "lq.feedforward", "lq.riccati")

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        half = self.B // 2
        return {"r0": rng.uniform(-1.0, 0.0, self.B),
                "level": rng.uniform(1.0, 2.0, half),
                "amp": rng.uniform(0.1, 1.0, half),
                "omega": rng.uniform(0.2, 3.0, half),
                "phase": rng.uniform(0.0, 2.0 * np.pi, half)}

    def prepare(self, spec, workdir):
        from swarmlq import LQParams
        t = np.linspace(0.0, self.T, self.nt + 1)
        wave = spec["level"][:, None] + spec["amp"][:, None] * np.sin(
            spec["omega"][:, None] * t + spec["phase"][:, None])
        d = np.vstack([np.repeat(spec["level"][:, None], len(t), axis=1), wave])
        dt = self.T / self.nt
        return {"r0": spec["r0"], "d": d, "level": spec["level"],
                "params": [LQParams(dt / ratio, self.T, self.nt) for ratio in self.CYCLE]}

    def op(self, state, i):
        from swarmlq import solve_family
        return solve_family(state["params"][i % len(self.CYCLE)], state["r0"], state["d"])

    def check(self, state, i, sol):
        half = len(state["level"])
        cost = np.asarray(sol.cost)[:half]
        if not np.all(np.isfinite(sol.cost)):
            return float("nan")
        p = state["params"][i % len(self.CYCLE)]
        want = reference.static_lq_cost(p.alpha, p.T, state["r0"][:half], state["level"])
        return float(np.max(np.abs(cost - want) / want))

    def params(self, i):
        ratio = self.CYCLE[i % len(self.CYCLE)]
        return {"alpha": self.T / self.nt / ratio, "dt/alpha": ratio}


WORKLOADS = {w.name: w for w in (StaticGeodesic(), GeneralTracking(), PeriodicCli(),
                                 LqFamily(), StaticAtomsInside())}
