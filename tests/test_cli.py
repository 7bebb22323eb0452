import numpy as np
import pytest

from swarmlq.cli import main, parse_config
from swarmlq.errors import ConfigError
from swarmlq import Density, wasserstein2

STATIC_CFG = """
# two atoms chasing a bimodal histogram
resource.domain = [0, 10]
resource.atoms = [[1.0, 0.4], [3.0, 0.6]]
demand.kind = "static"
demand.domain = [0, 10]
demand.grid.edges = [2.0, 4.0, 6.0, 8.0]
demand.grid.values = [0.1, 0.25, 0.15]
demand.normalize = true
alpha = 1.5
horizon = 6.0
grid.nt = 200
"""

PERIODIC_CFG = """
resource.domain = [-2, 12]
resource.atoms = [[3.0, 0.5], [6.0, 0.5]]
demand.kind = "periodic-mixture"
demand.period = 1.0
demand.means = [2.5, 7.5]
demand.sigmas = [1.0, 1.0]
demand.weights = [1.0, 1.0]
demand.sin_amplitudes = [1.0, -1.0]
demand.domain = [-2, 12]
demand.nx = 150
alpha = 0.2
horizon = "periodic"
grid.nt = 64
grid.harmonics = 16
"""


def test_parse_config_grammar():
    cfg = parse_config("a = 1\nb.c = [1, 2]\nname = \"hello\"  # trailing\n\n# only comment\nflag = true\nbare = plain-string\n")
    assert cfg == {"a": 1, "b.c": [1, 2], "name": "hello", "flag": True,
                   "bare": "plain-string"}
    with pytest.raises(ConfigError):
        parse_config("no equals sign here")


def test_solve_static_artifacts(tmp_path):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text(STATIC_CFG)
    out = tmp_path / "run"
    assert main(["solve-static", "--config", str(cfgfile), "--out", str(out)]) == 0
    for name in ("summary.txt", "timeseries.csv", "partition.csv", "cells.csv"):
        assert (out / name).exists()
    head = (out / "timeseries.csv").read_text().splitlines()
    assert head[0] == "# schema=1"
    assert head[1].split(",")[:3] == ["t", "cost_assignment", "cost_motion"]
    summary = (out / "summary.txt").read_text()
    assert "cost = " in summary and "limit_K" in summary


def test_determinism_byte_identical(tmp_path):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text(STATIC_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve-static", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert main(["solve-static", "--config", str(cfgfile), "--out", str(out2)]) == 0
    for name in ("timeseries.csv", "partition.csv", "cells.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_flag_override_lands_in_summary(tmp_path):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text(STATIC_CFG)
    out = tmp_path / "run"
    assert main(["solve-static", "--config", str(cfgfile), "--out", str(out),
                 "--alpha", "0.7", "--nt", "150"]) == 0
    summary = (out / "summary.txt").read_text()
    assert "alpha = 0.7" in summary
    assert "grid.nt = 150" in summary


def test_solve_periodic_artifacts(tmp_path):
    cfgfile = tmp_path / "p.cfg"
    cfgfile.write_text(PERIODIC_CFG)
    out = tmp_path / "run"
    assert main(["solve-periodic", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert (out / "freq.csv").exists()
    lines = (out / "freq.csv").read_text().splitlines()
    assert lines[1] == "cell,k,omega,d_hat_abs,r_hat_abs,gain"
    assert "np.float64(" not in (out / "summary.txt").read_text()


def test_nx_flag_sets_the_mixture_grid(tmp_path):
    base = PERIODIC_CFG.replace("demand.nx = 150\n", "")
    out = tmp_path / "run"

    def artifacts(cfg_text, *flags):
        cfgfile = tmp_path / "p.cfg"
        cfgfile.write_text(cfg_text)
        assert main(["solve-periodic", "--config", str(cfgfile), "--out", str(out),
                     *flags]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
        return files

    flag = artifacts(base, "--nx", "200")
    config = artifacts(base + "demand.nx = 200\n")
    default = artifacts(base)
    assert flag == config
    assert flag["timeseries.csv"] != default["timeseries.csv"]


def test_solve_general_runs(tmp_path):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text(STATIC_CFG)
    out = tmp_path / "run"
    assert main(["solve-general", "--config", str(cfgfile), "--out", str(out),
                 "--nt", "100"]) == 0


def test_wasserstein_passthrough(tmp_path, capsys):
    cfgfile = tmp_path / "w.cfg"
    cfgfile.write_text("""
density_a.domain = [0, 10]
density_a.atoms = [[2.0, 1.0]]
density_b.domain = [0, 10]
density_b.atoms = [[5.5, 1.0]]
""")
    out = tmp_path / "run"
    assert main(["wasserstein", "--config", str(cfgfile), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    lib = wasserstein2(Density((0, 10), atoms=[(2.0, 1.0)]),
                       Density((0, 10), atoms=[(5.5, 1.0)]))
    assert float(printed) == lib


def test_simulate_translation(tmp_path):
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text("""
resource.domain = [0, 10]
resource.atoms = [[1.0, 0.5], [3.0, 0.5]]
velocity.kind = "constant"
velocity.c = 0.5
horizon = 2.0
grid.nt = 100
""")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
    last = (out / "timeseries.csv").read_text().splitlines()[-1].split(",")
    assert float(last[1]) == pytest.approx(2.0, abs=1e-12)
    assert float(last[2]) == pytest.approx(4.0, abs=1e-12)


MIXED_RESOURCE = """
resource.domain = [0, 10]
resource.atoms = [[5.0, 0.2]]
resource.grid.edges = [1.0, 4.0]
resource.grid.values = [0.26666666666666666]
resource.normalize = true
"""


@pytest.mark.parametrize("command, rest", [
    ("solve-static", STATIC_CFG.replace("resource.", "# resource.")),  # its demand only
    ("simulate", 'velocity.kind = "constant"\nvelocity.c = 0.5\nhorizon = 2.0\n'),
])
def test_mixed_resource_writes_quantile_columns(tmp_path, command, rest):
    # a 0.2 atom at 5 that every slice keeps, plus 0.8 of mass on [1, 4]:
    # the continuous mass must show, so the state is written as quantiles
    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text(MIXED_RESOURCE + rest)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 0
    header = (out / "timeseries.csv").read_text().splitlines()[1].split(",")
    assert "pos_0" not in header
    assert header[-19:] == [f"q_{z:.2f}" for z in np.linspace(0.05, 0.95, 19)]


def test_verify_command(tmp_path):
    out = tmp_path / "run"
    assert main(["verify", "--out", str(out), "--seed", "7"]) == 0
    summary = (out / "summary.txt").read_text()
    assert "status = pass" in summary
    assert "seed = 7" in summary


def test_config_errors_exit_2(tmp_path):
    assert main(["solve-static", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("resource.domain = [0, 10]\n")  # no atoms or grid
    assert main(["solve-static", "--config", str(bad),
                 "--out", str(tmp_path / "r")]) == 2
    neg = tmp_path / "neg.cfg"
    neg.write_text(STATIC_CFG.replace("alpha = 1.5", "alpha = -1"))
    assert main(["solve-static", "--config", str(neg),
                 "--out", str(tmp_path / "r2")]) == 2


def test_zero_harmonics_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "p.cfg"
    cfgfile.write_text(PERIODIC_CFG)
    assert main(["solve-periodic", "--config", str(cfgfile), "--out", str(tmp_path / "r"),
                 "--harmonics", "0"]) == 2
    assert "n_harmonics must be at least 1" in capsys.readouterr().err


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


def test_reference_scenario_terminal_contraction(tmp_path):
    # eleven unequal atoms on [0, 2] chasing a bimodal demand at alpha=2,
    # T=10: the emitted trajectory must end at the geodesic contraction
    # ratio 1/cosh(T/alpha) from the averaged demand
    import json

    import numpy as np

    from helpers import bimodal_demand, eleven_atom_resource
    from swarmlq import (averaged_density, build_partition, quantile_of,
                         wasserstein2)

    res = eleven_atom_resource()
    dem = bimodal_demand(nx=200)
    cfg_lines = [
        f"resource.domain = {json.dumps(list(res.domain))}",
        "resource.atoms = " + json.dumps(
            [[float(x), float(m)] for x, m in zip(res.atom_x, res.atom_m)]),
        'demand.kind = "static"',
        f"demand.domain = {json.dumps(list(dem.domain))}",
        "demand.grid.edges = " + json.dumps(dem.edges.tolist()),
        "demand.grid.values = " + json.dumps(dem.values.tolist()),
        "alpha = 2.0",
        "horizon = 10.0",
        "grid.nt = 500",
    ]
    cfgfile = tmp_path / "ref.cfg"
    cfgfile.write_text("\n".join(cfg_lines) + "\n")
    out = tmp_path / "run"
    assert main(["solve-static", "--config", str(cfgfile), "--out", str(out)]) == 0

    rows = (out / "timeseries.csv").read_text().splitlines()
    final = np.array([float(v) for v in rows[-1].split(",")[3:]])
    final_density = type(res)(res.domain, atoms=np.column_stack([final, res.atom_m]))
    dbar = averaged_density(dem, build_partition(quantile_of(res)))
    ratio = wasserstein2(final_density, dbar) / wasserstein2(res, dbar)
    assert ratio == pytest.approx(1.0 / np.cosh(5.0), rel=1e-6)


def _ref_write_csv(path, header, rows):
    """The per-row writer: one type test and one ``repr`` per value."""
    with open(path, "w") as f:
        f.write("# schema=1\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                             else str(v) for v in row) + "\n")


def _ref_emit_csvs(sol, resource, outdir):
    """A solution's CSVs, row by row, from the solution's own fields."""
    from swarmlq import quantile_of

    dens = sol.trajectory.densities
    n_atoms = len(resource.atom_x)
    if n_atoms and not np.any(resource.values > 0) and all(len(d.atom_x) == n_atoms
                                                           for d in dens):
        names, state = [f"pos_{i}" for i in range(n_atoms)], lambda d: d.atom_x
    else:
        zq = np.linspace(0.05, 0.95, 19)
        names, state = [f"q_{z:.2f}" for z in zq], lambda d: quantile_of(d)(zq)
    bd = sol.breakdown
    _ref_write_csv(outdir / "timeseries.csv", ["t", "cost_assignment", "cost_motion", *names],
                   [[t, bd.assignment_t[j], bd.motion_z_t[j], *state(dens[j])]
                    for j, t in enumerate(sol.trajectory.t)])
    _ref_write_csv(outdir / "partition.csv", ["z_lo", "z_hi", "level", "mass"],
                   sol.partition.to_rows())
    fam = sol.family
    _ref_write_csv(outdir / "cells.csv", ["cell", "t", "p", "y", "r", "u", "d"],
                   [[label, t, fam.p[j], fam.y[i, j], fam.r[i, j], fam.u[i, j], fam.d[i, j]]
                    for i, label in enumerate(fam.labels) for j, t in enumerate(fam.t)])
    if sol.frequency_table is not None:
        _ref_write_csv(outdir / "freq.csv",
                       ["cell", "k", "omega", "d_hat_abs", "r_hat_abs", "gain"],
                       sol.frequency_table)


@pytest.mark.parametrize("command, text", [
    ("solve-static", STATIC_CFG),
    ("solve-general", STATIC_CFG + "grid.nt = 100\n"),
    ("solve-periodic", PERIODIC_CFG),
    ("solve-static", MIXED_RESOURCE + STATIC_CFG.replace("resource.", "# resource.")),
])
def test_column_writer_equals_row_writer(tmp_path, command, text):
    # the CSVs are written a column at a time; the bytes are the per-row writer's
    from swarmlq import cli

    cfg = parse_config(text)
    scenario = cli._scenario_from(cfg)
    sol = getattr(cli, command.replace("-", "_"))(scenario)
    got, want = tmp_path / "got", tmp_path / "want"
    got.mkdir()
    want.mkdir()
    cli._emit_solution(sol, scenario, cfg, got)
    _ref_emit_csvs(sol, scenario.resource, want)
    names = sorted(p.name for p in want.iterdir())
    assert names == sorted(p.name for p in got.iterdir() if p.suffix == ".csv")
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name
