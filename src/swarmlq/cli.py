"""Scenario-driven command line: parse a config, dispatch a solver, emit CSVs.

Config grammar: flat text, one ``key = value`` per line, ``#`` comments.
Values are JSON (numbers, strings, booleans, nested lists); dotted keys
form sections.  Example::

    resource.domain = [0, 10]
    resource.atoms = [[0.0, 0.5], [4.0, 0.5]]
    demand.kind = "static"
    demand.atoms = [[2.0, 1.0]]
    alpha = 2.0
    horizon = 10.0
    grid.nt = 1000

Every run writes ``summary.txt`` (effective config and cost breakdown) and
CSV artifacts with a ``# schema=1`` header; outputs are byte-identical for
identical config and seed.  Exit codes: 0 ok, 2 config error, 3 numerical
error.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle
from .errors import ConfigError, NumericalError
from .measures import Density, quantile_of, wasserstein2
from .regimes import (SampledDemand, Scenario, StaticDemand,
                      gaussian_mixture_demand, solve_general, solve_periodic,
                      solve_static)
from .transport import CallableVelocity, advect_density

SCHEMA_LINE = "# schema=1"


def _value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare string


def parse_config(text):
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        cfg[key.strip()] = _value(val.strip())
    return cfg


def _section(cfg, prefix):
    pre = prefix + "."
    return {k[len(pre):]: v for k, v in cfg.items() if k.startswith(pre)}


def _density_from(cfg, prefix, default_domain=None):
    sec = _section(cfg, prefix)
    if not sec:
        raise ConfigError(f"missing '{prefix}.*' fields")
    domain = sec.get("domain", default_domain)
    if domain is None:
        raise ConfigError(f"{prefix}.domain is required")
    try:
        return Density(
            tuple(domain),
            atoms=sec.get("atoms"),
            edges=np.asarray(sec.get("grid.edges", []), float),
            values=np.asarray(sec.get("grid.values", []), float),
            normalize=bool(sec.get("normalize", False)),
        )
    except ValueError as e:
        raise ConfigError(f"{prefix}: {e}") from e


def _demand_from(cfg):
    kind = cfg.get("demand.kind", "static")
    if kind == "static":
        return StaticDemand(_density_from(cfg, "demand"))
    if kind == "periodic-mixture":
        need = ["demand.period", "demand.means", "demand.sigmas",
                "demand.weights", "demand.sin_amplitudes", "demand.domain"]
        missing = [k for k in need if k not in cfg]
        if missing:
            raise ConfigError(f"periodic-mixture demand needs {missing}")
        return gaussian_mixture_demand(
            cfg["demand.means"], cfg["demand.sigmas"], cfg["demand.weights"],
            cfg["demand.sin_amplitudes"], cfg["demand.period"],
            tuple(cfg["demand.domain"]), nx=int(cfg.get("demand.nx", 400)))
    if kind == "sampled":
        times = cfg.get("demand.times")
        atoms_list = cfg.get("demand.atoms_list")
        if times is None or atoms_list is None:
            raise ConfigError("sampled demand needs demand.times and demand.atoms_list")
        domain = tuple(cfg.get("demand.domain",
                               cfg.get("resource.domain", (0.0, 1.0))))
        dens = [Density(domain, atoms=a, normalize=True) for a in atoms_list]
        return SampledDemand(times, dens)
    raise ConfigError(f"unknown demand.kind {kind!r}")


def _scenario_from(cfg):
    resource = _density_from(cfg, "resource")
    demand = _demand_from(cfg)
    horizon = cfg.get("horizon")
    if horizon == "periodic":
        horizon = None
    return Scenario(
        resource=resource,
        demand=demand,
        alpha=float(cfg.get("alpha", 1.0)),
        horizon=None if horizon is None else float(horizon),
        nt=int(cfg.get("grid.nt", 1000)),
        n_harmonics=int(cfg.get("grid.harmonics", 64)),
    )


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return json.dumps(x) if not isinstance(x, str) else x


def _write_summary(outdir, cfg, lines):
    path = outdir / "summary.txt"
    with open(path, "w") as f:
        f.write("[effective-config]\n")
        for k in sorted(cfg):
            f.write(f"{k} = {_fmt(cfg[k])}\n")
        f.write("\n[results]\n")
        for line in lines:
            f.write(line + "\n")
    return path


def _write_csv(path, header, columns):
    """A CSV of equal-length columns: numbers as ``repr(float)``, anything else as ``str``.

    Each column is read in one pass (``tolist``) and formatted as its rows
    are written (``repr``); an integer column is written as floats too.
    """
    cells = [_column_text(np.asarray(c)) for c in columns]
    with open(path, "w") as f:
        f.write(SCHEMA_LINE + "\n")
        f.write(",".join(header) + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*cells))


def _column_text(c):
    if c.dtype.kind in "biuf":
        return map(repr, c.astype(float).tolist())
    return map(str, c.tolist())


def _state_columns(resource, densities):
    """Column names and the per-slice state of a path's CSV, one column each.

    Each atom's position ``pos_i`` when the resource is atoms only and
    every slice keeps them, otherwise the 19 quantiles ``q_0.05`` ...
    ``q_0.95``, so continuous mass always shows.
    """
    n_atoms = len(resource.atom_x)
    atoms_only = n_atoms and not np.any(resource.values > 0)
    if atoms_only and all(len(d.atom_x) == n_atoms for d in densities):
        names, state = [f"pos_{i}" for i in range(n_atoms)], [d.atom_x for d in densities]
    else:
        zq = np.linspace(0.05, 0.95, 19)
        names, state = [f"q_{z:.2f}" for z in zq], [quantile_of(d)(zq) for d in densities]
    return names, list(np.reshape(state, (len(densities), len(names))).T)


def _emit_solution(sol, scenario, cfg, outdir):
    bd = sol.breakdown
    names, state = _state_columns(scenario.resource, sol.trajectory.densities)
    _write_csv(outdir / "timeseries.csv", ["t", "cost_assignment", "cost_motion", *names],
               [sol.trajectory.t, bd.assignment_t, bd.motion_z_t, *state])
    cells = sol.partition.cells
    _write_csv(outdir / "partition.csv", ["z_lo", "z_hi", "level", "mass"],
               [cells[:, 0], cells[:, 1], sol.partition.levels, cells[:, 1] - cells[:, 0]])
    fam = sol.family
    nt = len(fam.t)
    _write_csv(outdir / "cells.csv", ["cell", "t", "p", "y", "r", "u", "d"],
               [[label for label in fam.labels for _ in range(nt)],
                np.tile(fam.t, len(fam.labels)), np.tile(fam.p, len(fam.labels)),
                fam.y.ravel(), fam.r.ravel(), fam.u.ravel(), fam.d.ravel()])
    if sol.frequency_table is not None:
        _write_csv(outdir / "freq.csv",
                   ["cell", "k", "omega", "d_hat_abs", "r_hat_abs", "gain"],
                   list(zip(*sol.frequency_table)))
    lines = [
        f"cost = {sol.cost!r}",
        f"assignment_integral = {sol.breakdown.assignment!r}",
        f"motion_integral = {sol.breakdown.motion!r}",
        f"quadrature_total = {sol.breakdown.total!r}",
        f"limit_K = {sol.breakdown.limit!r}",
    ]
    if sol.closed_form_cost is not None:
        lines.append(f"closed_form_cost = {sol.closed_form_cost!r}")
    _write_summary(outdir, cfg, lines)


def _cmd_solve(cfg, outdir, solve):
    scenario = _scenario_from(cfg)
    if solve is solve_periodic:
        sol = solve(scenario)
    else:
        sol = solve(scenario, save_every=max(1, scenario.nt // 200))
    _emit_solution(sol, scenario, cfg, outdir)
    print(f"cost = {sol.cost!r}  (K = {sol.breakdown.limit!r})")
    return 0


def _cmd_wasserstein(cfg, outdir):
    a = _density_from(cfg, "density_a")
    b = _density_from(cfg, "density_b")
    w = wasserstein2(a, b)
    _write_summary(outdir, cfg, [f"wasserstein2 = {w!r}"])
    print(repr(w))
    return 0


def _cmd_simulate(cfg, outdir):
    resource = _density_from(cfg, "resource")
    kind = cfg.get("velocity.kind", "zero")
    if kind == "zero":
        v = CallableVelocity(lambda x, t: np.zeros_like(x))
    elif kind == "constant":
        c = float(cfg.get("velocity.c", 0.0))
        v = CallableVelocity(lambda x, t: np.full_like(x, c))
    elif kind == "linear":
        a = float(cfg.get("velocity.a", 0.0))
        b = float(cfg.get("velocity.b", 0.0))
        v = CallableVelocity(lambda x, t: a * x + b)
    else:
        raise ConfigError(f"unknown velocity.kind {kind!r}")
    horizon = float(cfg.get("horizon", 1.0))
    nt = int(cfg.get("grid.nt", 1000))
    path = advect_density(resource, v, horizon, nt,
                          save_every=max(1, nt // 200))
    names, state = _state_columns(resource, path.densities)
    _write_csv(outdir / "timeseries.csv", ["t", *names], [path.t, *state])
    _write_summary(outdir, cfg, [f"final_mass = {path[-1].mass!r}"])
    print(f"simulated {len(path)} slices")
    return 0


def _cmd_verify(cfg, outdir):
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    lines = []
    ok = True

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        ax = np.sort(rng.uniform(0, 10, n))
        am = rng.uniform(0.1, 1, n)
        am /= am.sum()
        m = int(rng.integers(2, 7))
        bx = np.sort(rng.uniform(0, 10, m))
        bm = rng.uniform(0.1, 1, m)
        bm /= bm.sum()
        v1 = oracle.lp_wasserstein((ax, am), (bx, bm), method="lp")
        v2 = oracle.lp_wasserstein((ax, am), (bx, bm), method="enumerate")
        w = wasserstein2(Density.from_atoms(ax, am, domain=(-1, 11)),
                         Density.from_atoms(bx, bm, domain=(-1, 11)))
        worst = max(worst, abs(v1 - v2), abs(v1 - w * w))
    lines.append(f"lp-vs-enumerate-vs-quantile worst |diff| = {float(worst)!r}")
    ok &= worst <= 1e-9

    alpha, T, nt = 2.0, 10.0, 1000
    _, _, dcost = oracle.discrete_lq(alpha, T, nt, 0.0, np.full(nt + 1, 3.0))
    closed = 9.0 * alpha * np.tanh(T / alpha)
    rel = abs(dcost - closed) / closed
    lines.append(f"discrete-lq static rel err = {float(rel)!r}")
    ok &= rel <= 0.01

    inst = oracle.DiscreteInstance(
        positions=np.array([0.0]), masses=np.array([1.0]),
        demand_positions=np.full((1001, 1), 3.0), demand_masses=np.array([1.0]),
        alpha=alpha, T=T)
    _, gcost, conv = oracle.direct_optimal_control(inst, seed=seed)
    rel2 = abs(gcost - closed) / closed
    lines.append(f"direct-control static rel err = {float(rel2)!r} (converged={conv})")
    ok &= rel2 <= 0.005

    lines.append(f"verify seed = {seed}")
    lines.append("status = " + ("pass" if ok else "FAIL"))
    _write_summary(outdir, cfg, lines)
    for line in lines:
        print(line)
    if not ok:
        raise NumericalError("oracle", "verification suite failed", tolerance=1e-9)
    return 0


_COMMANDS = {
    "solve-static": lambda cfg, outdir: _cmd_solve(cfg, outdir, solve_static),
    "solve-periodic": lambda cfg, outdir: _cmd_solve(cfg, outdir, solve_periodic),
    "solve-general": lambda cfg, outdir: _cmd_solve(cfg, outdir, solve_general),
    "wasserstein": _cmd_wasserstein,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="swarmlq",
        description="optimal assignment-and-motion control for 1D two-class swarms")
    ap.add_argument("command", choices=list(_COMMANDS))
    ap.add_argument("--config", type=Path, help="path to a flat key=value config")
    ap.add_argument("--alpha", type=float, help="override tradeoff weight")
    ap.add_argument("--horizon", help="override horizon (number or 'periodic')")
    ap.add_argument("--nt", type=int, help="override time-grid size")
    ap.add_argument("--nx", type=int,
                    help="override the periodic-mixture demand grid size (demand.nx)")
    ap.add_argument("--harmonics", type=int,
                    help="override the harmonic rows per problem in freq.csv (grid.harmonics)")
    ap.add_argument("--seed", type=int, help="override RNG seed")
    ap.add_argument("--out", type=Path, help="output directory")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = {}
        if args.config is not None:
            if not args.config.exists():
                raise ConfigError(f"config not found: {args.config}")
            cfg = parse_config(args.config.read_text())
        for key, val in (("alpha", args.alpha), ("horizon", args.horizon),
                         ("grid.nt", args.nt), ("demand.nx", args.nx),
                         ("grid.harmonics", args.harmonics), ("seed", args.seed)):
            if val is not None:
                cfg[key] = _value(str(val))
        outdir = Path(args.out or cfg.get("out", "swarmlq-out"))
        outdir.mkdir(parents=True, exist_ok=True)
        cfg["out"] = str(outdir)
        return _COMMANDS[args.command](cfg, outdir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
