import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import SuperLU

import porechem
from porechem import _implicit, cell_problems, cli, config, linalg, macro_sim, micro_sim, transport
from porechem.cell_problems import read_tensor_csv, solve_stokes_cell
from porechem.cli import _compute_tensors, main
from porechem.config import parse_config
from porechem.errors import ConfigError
from porechem.geometry import tile_domain
from porechem.gridio import read_csv, write_csv, write_field
from porechem.macro_sim import MacroSolver
from porechem.micro_sim import MicroSolver
from porechem.transport import TransportConfig

from oracles import read_field, stored_run_files

MINIMAL = """
[geometry]
eps = 0.25
n = 8
hole_side = 0.5
"""


def test_minimal_config_resolves_defaults(tmp_path):
    cfg = parse_config(MINIMAL)
    assert cfg.eps == 0.25
    assert cfg.cell.n == 8
    assert cfg.micro.rate_law.u_sol == 1.0
    out = tmp_path / "resolved_config.ini"
    cfg.write_resolved(out)
    text = out.read_text()
    # every defaulted key is echoed
    for key in ("u_onset", "rate_constant", "dt", "eps_list", "dump_fields"):
        assert key in text
    # resolved config parses back to the same values
    cfg2 = parse_config(str(out))
    assert cfg2.raw == cfg.raw


def test_bad_eps():
    with pytest.raises(ConfigError, match="1/eps"):
        parse_config(MINIMAL.replace("eps = 0.25", "eps = 0.3"))


def test_kinetic_bound_violation():
    bad = MINIMAL + "\n[micro]\ndt = 2.0\nt_end = 2.0\n"
    with pytest.raises(ConfigError, match="dt\\*k\\*L_r"):
        parse_config(bad)


def test_unknown_key_lists_valid():
    bad = MINIMAL + "\n[kinetics]\nuu_onset = 1\n"
    with pytest.raises(ConfigError, match="valid keys"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="valid sections"):
        parse_config(MINIMAL + "\n[chemistry]\nx = 1\n")


@pytest.mark.parametrize("key", ["invariant_slack", "cell"])
def test_tolerances_must_be_finite_and_positive(key):
    # a NaN slack would silently pass every invariant check, a negative
    # cell tolerance would fail every cell solve
    for bad in ("nan", "inf", "-1", "0", "tight"):
        with pytest.raises(ConfigError, match=f"\\[tolerances\\] {key} must be a finite positive"):
            parse_config(MINIMAL + f"\n[tolerances]\n{key} = {bad}\n")
    assert parse_config(MINIMAL + f"\n[tolerances]\n{key} = 1e-9\n").tolerances[key] == 1e-9


def test_defaults_are_those_of_the_solvers(tmp_path):
    # [tolerances] echoes the defaults the solver modules state, in the
    # config file's own spelling
    cfg = parse_config(MINIMAL)
    assert cfg.tolerances == {"invariant_slack": TransportConfig.invariant_slack, "cell": cell_problems.DEFAULT_TOL}
    cfg.write_resolved(tmp_path / "resolved_config.ini")
    text = (tmp_path / "resolved_config.ini").read_text()
    assert "[tolerances]\ninvariant_slack = 1e-8\ncell = 1e-10\n" in text


@pytest.mark.parametrize("section, key, valid", [
    ("tolerances", "linear", "invariant_slack, cell"),
    ("tolerances", "newton", "invariant_slack, cell"),
    ("tolerances", "spd", "invariant_slack, cell"),
    ("micro", "m0", "diffusivity, dt, t_end, output_every, velocity_mode, pressure_gradient, dirichlet_value, "
                    "u_init, v_init"),
    ("macro", "m0", "resolution, dt, t_end, output_every, velocity_mode, p_left, p_right, dirichlet_value, "
                    "u_init, v_init"),
])
def test_removed_keys_are_unknown_keys(tmp_path, section, key, valid):
    # the implicit step's CG stops on the Newton test's allowance alone, the
    # Newton tolerance follows from the box bound, the certificate bound is a
    # fixed guard and the bound on the initial data is the largest value of
    # the profiles, so a config (or an older resolved_config.ini) that sets
    # one of these keys gets the unknown-key error with the keys that remain
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = 1.0\n")
    out = tmp_path / "o"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record
    assert re.search(f"^message = unknown key '{key}' in \\[{section}\\]; valid keys: {valid}$", record, re.M)


def test_cli_cell_tolerance_of_1e_15_is_met_at_n_8(tmp_path):
    # relative to ||b|| alone the momentum residual here is 1.4e-15; relative
    # to the sizes of its terms it is 9e-17, and the corrector residual is
    # 4.4e-16
    cfg = tmp_path / "run.ini"
    cfg.write_text("[geometry]\nn = 8\n[tolerances]\ncell = 1e-15\n")
    out = tmp_path / "o"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    row = read_csv(out / "effective_tensors.csv")[1][0]
    assert max(row["xi_res_1"], row["xi_res_2"]) <= 1e-15


def _closed_run_drift(series):
    """The mass drift of a run without Dirichlet edges, read from its series
    CSV, and its initial mass."""
    rows = read_csv(series)[1]
    first, last = (row["mass_u"] + row["mass_v"] for row in (rows[0], rows[-1]))
    return last - first, first


# a run whose Newton mass defect sits at round-off above 0.1 * newton_tol
# at a tolerance of 2.5e-15, just above the round-off floor 1.5 * 1.7 eps *
# (solute bound 2) = 1.13e-15, and whose residual sits at 2.8e-16.  A
# NEWTON_TOL of 1e-15, below that floor, runs at the floor itself
NEWTON_ROUND_OFF = """[geometry]
n = 16
dirichlet_edges =
[kinetics]
u_solubility = 2.0
rate_constant = 0.001
[micro]
dt = 0.01
t_end = 0.03
u_init = constant:1.0
"""


@pytest.mark.parametrize("tol, newton_tol", [(1e-15, 1.5 * 1.7 * np.finfo(float).eps * 2.0), (2.5e-15, 2.5e-15)])
def test_cli_newton_tolerance_at_round_off(tmp_path, monkeypatch, tol, newton_tol):
    monkeypatch.setattr(_implicit, "NEWTON_TOL", tol)
    assert parse_config(NEWTON_ROUND_OFF).micro.newton_tol == newton_tol
    cfg = tmp_path / "run.ini"
    cfg.write_text(NEWTON_ROUND_OFF)
    out = tmp_path / "o"
    assert main(["micro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert read_csv(out / "micro_series.csv")[1][-1]["t"] == pytest.approx(0.03)
    drift, mass = _closed_run_drift(out / "micro_series.csv")
    assert abs(drift) <= TransportConfig.invariant_slack * mass


# the benchmark's upscaled_darcy workload: cell problems at n = 256, then
# a Darcy-flow macro run at m = 128
UPSCALED_DARCY = """[geometry]
n = 256
[macro]
resolution = 128
dt = 0.0025
t_end = 0.25
output_every = 10
velocity_mode = darcy
u_init = constant:0.0
v_init = constant:0.05
"""


def test_cli_runs_keep_the_mass_drift_at_round_off(tmp_path, monkeypatch):
    # every step's Newton solve ends with its mass defect at round-off, so
    # the cumulative drift stays within 1e-12 of the initial mass: at most
    # 9.4e-15 of it on the default sweep's runs and 1.2e-13 on the Darcy run
    runs = []
    original = transport.TransportSolver._run

    def recording_run(self):
        runs.append(original(self))
        return runs[-1]

    monkeypatch.setattr(transport.TransportSolver, "_run", recording_run)
    (tmp_path / "default.ini").write_text("")
    (tmp_path / "darcy.ini").write_text(UPSCALED_DARCY)
    assert main(["converge", "--config", str(tmp_path / "default.ini"), "--out", str(tmp_path / "c"), "--quiet"]) == 0
    for command in ("cell", "macro"):
        assert main([command, "--config", str(tmp_path / "darcy.ini"), "--out", str(tmp_path / "d"), "--quiet",
                     *(["--tensors", str(tmp_path / "d" / "effective_tensors.csv")] if command == "macro" else [])]) == 0
    assert len(runs) == 5
    for run in runs:
        mass = run.mass[0].mass_u + run.mass[0].mass_v
        assert max(abs(row.drift) for row in run.mass) <= 1e-12 * mass


def _macro_at_solute_level(level):
    return (
        f"[geometry]\ndirichlet_edges =\n[kinetics]\nu_solubility = {level}\nrate_constant = 1e-7\n"
        f"[macro]\nresolution = 64\ndt = 0.01\nt_end = 0.03\nu_init = constant:{level}\n"
    )


def _run_macro_at_solute_level(tmp_path, level):
    """Drift and initial mass of a closed macro run at the solute level."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(_macro_at_solute_level(level))
    out = tmp_path / "o"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["macro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert read_csv(out / "macro_series.csv")[1][-1]["t"] == pytest.approx(0.03)
    return _closed_run_drift(out / "macro_series.csv")


def test_cli_macro_just_inside_the_newton_floor_runs_at_the_default_tolerance(tmp_path):
    # NEWTON_TOL = 1e-12 is the Newton tolerance up to solute bounds of 1766.
    # At 1760 the mass defect sits at round-off above 0.1 * newton: Newton
    # stops once it stops falling, and stalled without that stop
    drift, mass = _run_macro_at_solute_level(tmp_path, 1760)
    assert abs(drift) <= TransportConfig.invariant_slack * mass


@pytest.mark.parametrize("level", [1800, 4000, 20000])
def test_cli_macro_past_the_newton_floor_runs_at_the_derived_tolerance(tmp_path, level):
    # above 1766 the Newton tolerance is the round-off floor at the box
    # bound: 1.02e-12 at 1800, 1.13e-11 at 20000
    drift, mass = _run_macro_at_solute_level(tmp_path, level)
    assert abs(drift) <= TransportConfig.invariant_slack * mass


_LEVELS = st.integers(0, 400).map(lambda k: k / 100)  # 0 to 4 in steps of 0.01
_PROFILES = st.builds("{}:{}".format, st.sampled_from(["constant", "bump"]), _LEVELS)
_GRADIENTS = st.integers(-8000, 8000).map(lambda k: k / 100)  # -80 to 80
_DIFFUSIVITIES = st.integers(-30, 0).map(lambda k: 10.0 ** (k / 10))  # 1e-3 to 1
_PRESSURES = st.integers(-500, 500)


@settings(max_examples=60, deadline=None)
@given(u_init=_PROFILES, v_init=_PROFILES, dirichlet_value=_LEVELS,
       u_solubility=st.integers(1, 400).map(lambda k: k / 100), eps=st.sampled_from([0.5, 0.25]),
       pressure_gradient=st.tuples(_GRADIENTS, _GRADIENTS), diffusivity=_DIFFUSIVITIES,
       pressures=st.tuples(_PRESSURES, _PRESSURES))
# a diagonal flow whose largest face velocity passes the advective CFL bound
# (0.90) while the largest total outflow of a cell does not (1.48): when the
# bound read the face velocity, micro accepted it and left the box bound in
# its first step
@example(u_init="bump:1.0", v_init="constant:0.0", dirichlet_value=0.0, u_solubility=1.0, eps=0.25,
         pressure_gradient=(-63.084, -63.084), diffusivity=0.01, pressures=(1, 0))
def test_cli_every_accepted_config_runs_within_its_box_bound(tmp_path_factory, u_init, v_init, dirichlet_value,
                                                             u_solubility, eps, pressure_gradient, diffusivity,
                                                             pressures):
    # the bound on the initial data is the largest value of the profiles, so
    # every config that validation accepts runs to the end, its solute
    # within max(u_init, v_init, u_solubility, dirichlet_value), under the
    # reconstructed micro flow and the Darcy macro flow alike.  A run whose
    # advective CFL number is only known once its velocity is built exits 2
    # naming that bound; no accepted config exits 3
    data = f"dt = 0.01\nt_end = 0.03\nu_init = {u_init}\nv_init = {v_init}\ndirichlet_value = {dirichlet_value}\n"
    text = (f"[geometry]\neps = {eps}\n[kinetics]\nu_solubility = {u_solubility}\n"
            f"[micro]\n{data}velocity_mode = reconstructed\ndiffusivity = {diffusivity}\n"
            f"pressure_gradient = {pressure_gradient[0]}, {pressure_gradient[1]}\n"
            f"[macro]\nresolution = 8\n{data}velocity_mode = darcy\np_left = {pressures[0]}\np_right = {pressures[1]}\n")
    try:
        parsed = parse_config(text)
        for command in ("micro", "macro"):
            parsed.check_budget(command)
    except ConfigError:  # a kinetic bound dt*k*L_r above 1, at a small u_solubility
        return
    bound = max(float(u_init.partition(":")[2]), float(v_init.partition(":")[2]), u_solubility, dirichlet_value)
    out = tmp_path_factory.mktemp("run")
    cfg = out / "run.ini"
    cfg.write_text(text)
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    for command, tensors in (("micro", []), ("macro", ["--tensors", str(out / "effective_tensors.csv")])):
        status = main([command, "--config", str(cfg), "--out", str(out / command), "--quiet", *tensors])
        if status == 2:
            record = (out / command / "error_record.txt").read_text()
            assert "kind = config" in record and "violates the advective CFL bound" in record
            continue
        assert status == 0
        rows = read_csv(out / command / f"{command}_series.csv")[1]
        assert rows[-1]["t"] == pytest.approx(0.03)
        assert max(row["max_u"] for row in rows) <= bound + TransportConfig.invariant_slack


def test_misaligned_geometry_error():
    with pytest.raises(Exception, match="off-grid"):
        parse_config(MINIMAL.replace("n = 8", "n = 6"))


def test_init_profile_parsing():
    cfg = parse_config(MINIMAL + "\n[micro]\nu_init = bump:0.5\n")
    mc = cfg.micro
    assert callable(mc.u_init)
    assert mc.u_init(0.5, 0.5) == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[micro]\nu_init = wavelet:0.5\n")


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.random((6, 4))
    mask = vals > 0.3
    path = tmp_path / "f.txt"
    write_field(path, vals, 0.25, mask)
    back, h, back_mask = read_field(path)
    assert h == 0.25
    assert np.array_equal(back_mask, mask)
    assert np.array_equal(back[mask], vals[mask])


def _write_cfg(tmp_path, extra=""):
    path = tmp_path / "run.ini"
    path.write_text(
        MINIMAL
        + """
[micro]
dt = 0.01
t_end = 0.1
output_every = 5
v_init = constant:0.05

[macro]
dt = 0.01
t_end = 0.1
output_every = 5
resolution = 16
v_init = constant:0.05

[sweep]
eps_list = 0.5, 0.25
"""
        + extra
    )
    return path


def test_cli_cell(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    cols, rows = read_csv(out / "effective_tensors.csv")
    assert rows[0]["spd_s"] == 1.0
    assert rows[0]["spd_k"] == 1.0
    assert rows[0]["s11"] == rows[0]["s22"]
    assert (out / "resolved_config.ini").exists()
    assert (out / "run_manifest.txt").exists()


def test_cli_micro_macro_unfold(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["micro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["macro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["unfold", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "micro_series.csv").exists()
    assert (out / "macro_series.csv").exists()
    vals, h, mask = read_field(out / "u_00000.txt")
    assert vals.shape == (32, 32)
    assert mask.sum() == 32 * 32 * 3 // 4  # fluid fraction 0.75
    _, rows = read_csv(out / "micro_series.csv")
    assert rows[0]["mass_v"] == pytest.approx(0.05 * 2.0, rel=1e-12)  # v0 * |Gamma|
    report = (out / "unfold_report.csv").read_text().splitlines()
    assert report[0] == "kind,name,value"
    iso = [line for line in report[1:] if line.startswith("isometry")]
    assert iso and all(float(line.split(",")[2]) <= 1e-12 for line in iso)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fine", [False, True], ids=["eps-1/4", "eps-1/16"])
def test_unfold_report_reads_back(tmp_path, capfd, fine):
    # one isometry row per stored snapshot's face dump: 3 of the short run
    # at eps = 1/4, 11 of the default run at eps = 1/16
    if fine:
        cfg = tmp_path / "run.ini"
        cfg.write_text("[geometry]\neps = 0.0625\n")
    else:
        cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["micro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["unfold", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert capfd.readouterr().err == ""
    columns, rows = read_csv(out / "unfold_report.csv")
    assert columns == ["kind", "name", "value"]
    assert {r["kind"] for r in rows} == {"isometry", "oscillation_x1"}
    assert all(isinstance(r["kind"], str) and isinstance(r["name"], str) and isinstance(r["value"], float) for r in rows)
    names = [r["name"] for r in rows if r["kind"] == "isometry"]
    assert names == sorted(p.name for p in out.glob("faces_*.csv"))
    assert len(names) == (11 if fine else 3)


def test_cli_macro_requires_tensors(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "fresh"
    assert main(["macro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2


def test_cli_macro_rejects_off_diagonal_tensors(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    columns, rows = read_csv(out / "effective_tensors.csv")
    rows[0]["s12"] = rows[0]["s21"] = 0.1 * rows[0]["s11"]
    tensors = tmp_path / "full_tensors.csv"
    write_csv(tensors, columns, rows)
    argv = ["macro", "--config", str(cfg), "--out", str(out), "--quiet", "--tensors", str(tensors)]
    assert main(argv) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record and "S must be diagonal" in record
    assert not (out / "macro_series.csv").exists()


def test_cli_macro_rejects_nan_tensors(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    columns, rows = read_csv(out / "effective_tensors.csv")
    rows[0]["s21"] = rows[0]["k12"] = float("nan")
    tensors = tmp_path / "nan_tensors.csv"
    write_csv(tensors, columns, rows)
    argv = ["macro", "--config", str(cfg), "--out", str(out), "--quiet", "--tensors", str(tensors)]
    assert main(argv) == 2
    assert "kind = config" in (out / "error_record.txt").read_text()
    assert not (out / "macro_series.csv").exists()


@pytest.mark.parametrize(
    "own, other, cells",
    [
        ("[geometry]\nn = 16\nhole_side = 0.25\nhole_center = 0.375, 0.625\n", "[geometry]\nn = 16\nhole_side = 0.5\n",
         ["UnitCell(n=16, hole_side=0.25, hole_center=(0.375, 0.625))", "UnitCell(n=16, hole_side=0.5, hole_center=(0.5, 0.5))"]),
        ("", "[geometry]\nhole_side = 0.25\n",
         ["UnitCell(n=8, hole_side=0.5, hole_center=(0.5, 0.5))", "UnitCell(n=8, hole_side=0.25, hole_center=(0.5, 0.5))"]),
    ],
    ids=["off-centre", "default"],
)
def test_cli_macro_takes_tensors_only_from_the_configured_cell(tmp_path, own, other, cells):
    # S and K come from the file, the storage factor |Gamma|/|Y| from [geometry]
    tensors = tmp_path / "cell" / "effective_tensors.csv"
    for name, text in (("own", own), ("other", other)):
        (tmp_path / f"{name}.ini").write_text(text)
    assert main(["cell", "--config", str(tmp_path / "own.ini"), "--out", str(tensors.parent), "--quiet"]) == 0
    out = tmp_path / "other"
    assert main(["macro", "--config", str(tmp_path / "other.ini"), "--out", str(out), "--quiet",
                 "--tensors", str(tensors)]) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record
    assert all(cell in record for cell in cells)
    assert not (out / "macro_series.csv").exists()
    (tmp_path / "own.ini").write_text(own + "[macro]\nt_end = 0.1\n")
    out = tmp_path / "own"
    assert main(["macro", "--config", str(tmp_path / "own.ini"), "--out", str(out), "--quiet",
                 "--tensors", str(tensors)]) == 0
    assert (out / "macro_series.csv").exists()


@pytest.mark.parametrize(
    "cell_d, macro_d", [("2.0", "1.0"), ("1.0", "2.0")], ids=["faster-tensors", "faster-config"],
)
def test_cli_macro_takes_tensors_only_from_the_configured_diffusivity(tmp_path, cell_d, macro_d):
    # S includes D: tensors of the same cell at another diffusivity are not
    # this run's
    tensors = tmp_path / "cell" / "effective_tensors.csv"
    for name, d in (("cell", cell_d), ("macro", macro_d)):
        (tmp_path / f"{name}.ini").write_text(f"[micro]\ndiffusivity = {d}\n")
    assert main(["cell", "--config", str(tmp_path / "cell.ini"), "--out", str(tensors.parent), "--quiet"]) == 0
    out = tmp_path / "macro"
    assert main(["macro", "--config", str(tmp_path / "macro.ini"), "--out", str(out), "--quiet",
                 "--tensors", str(tensors)]) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record
    assert f"with D = {cell_d}, not of the configured" in record
    assert f"[micro] diffusivity = {macro_d}" in record
    assert not (out / "macro_series.csv").exists()
    (tmp_path / "cell.ini").write_text(f"[micro]\ndiffusivity = {cell_d}\n[macro]\nt_end = 0.1\n")
    out = tmp_path / "own"
    assert main(["macro", "--config", str(tmp_path / "cell.ini"), "--out", str(out), "--quiet",
                 "--tensors", str(tensors)]) == 0
    assert (out / "macro_series.csv").exists()


def test_cli_converge_single_row(tmp_path):
    cfg = _write_cfg(tmp_path, "\n[output]\ndump_fields = false\n")
    # restrict the sweep to one eps
    text = cfg.read_text().replace("eps_list = 0.5, 0.25", "eps_list = 0.5")
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    lines = (out / "convergence_report.csv").read_text().splitlines()
    assert len(lines) == 2


def test_cli_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["transmogrify", "--config", "x"])


# commands that exit with an error record: the exit status, and a substring
# of the record's message
CLI_ERRORS = [
    ("cell", "[geometry]\nhole_side = 0.3\n", 2, "perforation is off-grid"),
    ("cell", "[geometry]\nn = 0\n", 2, "resolution n must be a positive integer"),
    ("cell", "[geometry]\nhole_side = 0\n", 2, "hole_side"),
    ("micro", "[geometry]\nhole_side = 0\n", 2, "hole_side"),
    ("macro", "[geometry]\nhole_side = 0\n", 2, "hole_side"),
    ("converge", "[geometry]\nhole_side = 0\n", 2, "hole_side"),
    ("unfold", "[geometry]\nhole_side = 0\n", 2, "hole_side"),
    ("micro", "[kinetics]\nu_solubility = -1\n", 2, "need u_sol > u_onset"),
    # a key of the removed regularized resolution, with the data it stalled on
    ("micro", "[kinetics]\nrate_constant = 20\nresolution_mode = regularized\n"
              "[micro]\nu_init = constant:0.9\nv_init = constant:1.0\ndt = 0.01\nt_end = 0.1\n", 2,
     "unknown key 'resolution_mode'"),
    ("micro", "[micro]\ndt = abc\n", 2, "[micro] dt must be a finite number"),
    ("cell", "[geometry]\ndim = x\n", 2, "unknown key 'dim'"),
    ("micro", "[micro]\nu_init = constant:abc\n", 2, "[micro] u_init must be a finite number"),
    ("micro", "[micro]\noutput_every = 0\n", 2, "[micro] output_every must be at least 1"),
    ("cell", "[geometry]\neps = 0\n", 2, "1/eps must be a positive integer"),
    ("cell", "[geometry]\neps = 0.3\n", 2, "1/eps must be a positive integer"),
    ("cell", "[tolerances]\nspd = 1e-30\n", 2, "unknown key 'spd'"),
    # added the left column's half-cell weight twice
    ("micro", "[geometry]\ndirichlet_edges = left, left\n", 2, "edge 'left' is named twice in dirichlet_edges"),
    # wrote an unfold report without oscillation rows
    ("unfold", "[sweep]\neps_list =\n", 2, "[sweep] eps_list is empty"),
]


@pytest.mark.parametrize("command, text, code, message", CLI_ERRORS,
                         ids=[f"{c}-{t.strip()}-{code}".replace("\n", ":") for c, t, code, _ in CLI_ERRORS])
def test_cli_errors_exit_with_a_record(tmp_path, command, text, code, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == code
    kind = "config" if code == 2 else "runtime"
    record = (out / "error_record.txt").read_text()
    assert f"kind = {kind}" in record and message in record


# inputs that parse_config must reject, each with its message: every one of
# them would otherwise fail mid-run or escape as a traceback
PARSE_ERRORS = [
    ("[micro]\ndt = abc\n", "\\[micro\\] dt must be a finite number, got 'abc'"),
    ("[geometry]\ndim = x\n", "unknown key 'dim' in \\[geometry\\]"),
    ("[micro]\nu_init = constant:abc\n", "\\[micro\\] u_init must be a finite number"),
    ("[geometry]\nhole_center = 0.5, half\n", "\\[geometry\\] hole_center must be a finite number"),
    ("[kinetics]\nrate_constant = inf\n", "\\[kinetics\\] rate_constant must be a finite number"),
    ("[micro]\noutput_every = 0\n", "output_every must be at least 1"),
    ("[macro]\noutput_every = 0\n", "output_every must be at least 1"),
    ("[macro]\nresolution = 0\n", "macro resolution must be at least 1"),
    ("[geometry]\neps = 0\n", "1/eps must be a positive integer"),
    ("[sweep]\neps_list = 0.25, 0\n", "1/eps must be a positive integer"),
    ("[geometry]\nhole_side = 0\n", "\\[geometry\\] hole_side must be a finite positive number, got '0'"),
    ("[geometry]\ndirichlet_edges = up\n",
     "^unknown edge 'up' in dirichlet_edges; valid edges: left, right, bottom, top$"),  # not a [micro] error
    ("[micro]\nt_end = 0.015\n", "not a multiple of dt"),
    ("[macro]\nt_end = 0.015\n", "not a multiple of dt"),
    ("[micro]\nt_end = 1e300\ndt = 1e-300\n", "not a multiple of dt"),  # t_end / dt overflows
    ("[micro]\ndirichlet_value = -0.5\n", "dirichlet_value must be nonnegative"),
    ("[micro]\ndiffusivity = -1\n", "diffusivity must be positive"),
    # added the left column's half-cell weight twice
    ("[geometry]\ndirichlet_edges = left, left\n", "^edge 'left' is named twice in dirichlet_edges$"),
    ("[sweep]\neps_list =\n", "^\\[sweep\\] eps_list is empty"),  # a sweep of nothing
    ("[output]\ndump_fields = maybe\n", "^\\[output\\] dump_fields must be a boolean"),
    # each parsed as 0
    ("[micro]\nu_init = constant\n", "^\\[micro\\] u_init: initial profile 'constant' has no value"),
    ("[macro]\nv_init = constant:\n", "^\\[macro\\] v_init: initial profile 'constant:' has no value"),
    ("[micro]\nv_init = bump\n", "^\\[micro\\] v_init: initial profile 'bump' has no value"),
]


@pytest.mark.parametrize(
    "text, message", PARSE_ERRORS, ids=[t.strip().replace("\n", ":") for t, _ in PARSE_ERRORS]
)
def test_parse_rejects_what_would_fail_mid_run(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_cli_cell_builds_the_mac_operators_once(tmp_path, monkeypatch):
    cfg = tmp_path / "run.ini"
    cfg.write_text(MINIMAL.replace("n = 8", "n = 32"))
    built = []
    init = cell_problems._MacOperators.__init__

    def counting_init(self, cell):
        built.append(cell.n)
        init(self, cell)

    monkeypatch.setattr(cell_problems._MacOperators, "__init__", counting_init)
    assert main(["cell", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert built == [32]


def test_cli_byte_identical_reruns(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert main(["micro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    for name in ("effective_tensors.csv", "micro_series.csv", "u_00002.txt", "resolved_config.ini"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_run_reproduces_from_its_resolved_config(tmp_path):
    # `cell` and `micro` run again from the resolved_config.ini the first
    # runs wrote: every data file keeps its bytes, the resolved config too
    cfg = tmp_path / "run.ini"
    cfg.write_text(MINIMAL + "hole_center = 0.5, 0.375\n[kinetics]\nexponent = 3\n"
                   "[micro]\nvelocity_mode = reconstructed\nu_init = bump:0.8\nv_init = constant:0.3\n"
                   "t_end = 0.1\noutput_every = 3\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for cfg_path, out in ((cfg, out1), (out1 / "resolved_config.ini", out2)):
        for command in ("cell", "micro"):
            assert main([command, "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    names = sorted(p.name for p in out1.iterdir() if p.name != "run_manifest.txt")
    assert names == sorted(p.name for p in out2.iterdir() if p.name != "run_manifest.txt")
    assert {"effective_tensors.csv", "micro_series.csv", "u_00004.txt", "resolved_config.ini"} <= set(names)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_dump_fields(tmp_path):
    cfg = _write_cfg(tmp_path, "\n[output]\ndump_fields = true\n")
    out = tmp_path / "out"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "xi_1.txt").exists()
    assert (out / "chi_1_u.txt").exists()


def _reaches(obj, kind):
    """Whether anything reachable from obj through containers and instance
    attributes (not through types, modules or functions) is a ``kind``."""
    seen, stack = set(), [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        if isinstance(o, kind):
            return True
        stack.extend(gc.get_referents(o))
    return False


def test_compute_tensors_builds_two_ring_systems_and_keeps_none(monkeypatch):
    cfg = parse_config(MINIMAL.replace("n = 8", "n = 32"))

    def refuse(*args, **kwargs):
        raise AssertionError("the cell layer factored a sparse matrix")

    monkeypatch.setattr(_implicit, "factor_spd", refuse)
    monkeypatch.setattr(spla, "splu", refuse)
    built = []
    init = linalg.CapacitanceSolver.__init__

    def tracking_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(linalg.CapacitanceSolver, "__init__", tracking_init)
    result = _compute_tensors(cfg)
    # one ring system per operator: the corrector's 4a cut edges, then the
    # Stokes u-block's 4a - 2 wall and ghost nodes and its constant (the
    # u-block serves the v-block too)
    a = cfg.cell.hole_cells
    assert [len(s.capacitance[1]) for s in built] == [4 * a, 4 * a - 1]
    # each ring solver lived only for its solve: nothing returned keeps one
    assert not _reaches(result, (SuperLU, linalg.CapacitanceSolver))
    assert _reaches(result, cell_problems._Stencil)  # the walk does reach the operators kept


def test_config_errors_name_their_section():
    for section in ("micro", "macro"):
        for text, message in [
            ("output_every = 0", "output_every must be at least 1"),
            ("t_end = 0.015", "not a multiple of dt"),
            ("dirichlet_value = -0.5", "dirichlet_value must be nonnegative"),
            ("dt = 2\nt_end = 2", "violates the kinetic bound"),
            ("velocity_mode = sideways", "unknown velocity mode"),
        ]:
            with pytest.raises(ConfigError, match=f"^\\[{section}\\] .*{message}"):
                parse_config(f"[{section}]\n{text}\n")


@pytest.mark.parametrize(
    "text",
    [
        "[micro]\nv_init = constant:-0.1\n",
        "[macro]\nu_init = bump:-0.2\n",
    ],
    ids=lambda t: t.strip().replace("\n", ":"),
)
def test_initial_data_checked_at_parse_time(text):
    with pytest.raises(ConfigError, match="_init: initial data must be nonnegative"):
        parse_config(text)


def test_cli_rejects_initial_data_before_any_work(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[micro]\nv_init = constant:-0.1\n")
    out = tmp_path / "o"
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "kind = config" in (out / "error_record.txt").read_text()
    assert not (out / "effective_tensors.csv").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[macro]\nresolution = 60\n", "macro resolution 60 is not a multiple of 1/eps = 8"),
        ("[micro]\nt_end = 0.5\n", "micro and macro output times do not match"),
        # only converge runs the sweep, so only converge checks its order
        ("[sweep]\neps_list = 0.125, 0.25\n", "sweep eps_list must be strictly decreasing"),
        ("[sweep]\neps_list = 0.25, 0.25\n", "sweep eps_list must be strictly decreasing"),
        # solved the cell problems and the macro run for a header-only report
        ("[sweep]\neps_list =\n", "[sweep] eps_list is empty"),
    ],
    ids=lambda v: v.strip().replace("\n", ":"),
)
def test_cli_converge_checks_its_sweep_before_any_work(tmp_path, text, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record and message in record
    assert not (out / "effective_tensors.csv").exists()


def _flow(micro="", macro=""):
    return f"[micro]\nvelocity_mode = reconstructed\n{micro}[macro]\nvelocity_mode = darcy\n{macro}"


@pytest.mark.parametrize(
    "text, keys",
    [
        ("[micro]\nv_init = constant:0.2\n", ["[micro] v_init", "[macro] v_init"]),
        ("[macro]\nu_init = bump:0.5\n", ["[micro] u_init = 0.0", "[macro] u_init = bump:0.5"]),
        ("[micro]\ndirichlet_value = 0.5\n", ["[micro] dirichlet_value", "[macro] dirichlet_value"]),
        ("[micro]\nvelocity_mode = reconstructed\n", ["[micro] velocity_mode", "[macro] velocity_mode"]),
        ("[macro]\nvelocity_mode = darcy\n", ["[micro] velocity_mode", "[macro] velocity_mode"]),
        (_flow(micro="pressure_gradient = -4.0, 1.0\n"),
         ["[micro] pressure_gradient", "[macro] p_left", "[macro] p_right"]),
        (_flow(macro="p_right = 0.5\n"), ["[micro] pressure_gradient", "[macro] p_left", "[macro] p_right"]),
    ],
    ids=["v_init", "u_init", "dirichlet_value", "micro-flow", "macro-flow", "pressure_gradient", "p_right"],
)
def test_converge_rejects_micro_and_macro_runs_of_different_problems(tmp_path, text, keys):
    # each run alone is valid, but the sweep would compare two problems
    for command in ("micro", "macro"):
        parse_config(text).check_budget(command)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record and all(key in record for key in keys)
    assert not (out / "effective_tensors.csv").exists()


@pytest.mark.parametrize(
    "text",
    [
        "[micro]\nv_init = constant:5e-2\nu_init = bump:0.5\n[macro]\nu_init = bump:0.50\n",
        _flow(),
        # p_right - p_left is -0.19999999999999998
        _flow(micro="pressure_gradient = -0.2, 0\n", macro="p_left = 0.3\np_right = 0.1\n"),
    ],
    ids=["same-profiles", "flow", "round-off"],
)
def test_converge_accepts_micro_and_macro_runs_of_one_problem(text):
    parse_config(text).check_budget("converge")


def test_converge_accepts_different_steps_with_the_same_snapshots():
    parse_config(
        "[micro]\ndt = 0.005\noutput_every = 20\n[macro]\ndt = 0.01\noutput_every = 10\n"
    ).check_budget("converge")
    # the same snapshot count, with the final or the spacing differing
    for text in ("[micro]\nt_end = 0.95\n", "[macro]\ndt = 0.005\noutput_every = 21\n"):
        with pytest.raises(ConfigError, match="output times do not match"):
            parse_config(text).check_budget("converge")


def test_cli_converge_checks_every_cfl_number_before_any_step(tmp_path, monkeypatch):
    # the macro run (0.87) and the eps = 1/4 run (0.855) are within the
    # advective CFL bound, the eps = 1/8 run is not
    def must_not_step(*args):
        raise AssertionError("a run stepped before the sweep checked every CFL number")

    monkeypatch.setattr(transport.TransportSolver, "_step", must_not_step)
    cfg = tmp_path / "run.ini"
    cfg.write_text(_flow(micro="pressure_gradient = -60, 0\nt_end = 0.1\n", macro="p_left = 60\nt_end = 0.1\n"))
    out = tmp_path / "o"
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record
    assert "[micro] eps = 0.125: dt*|q|/h = 1.71 violates the advective CFL bound" in record
    assert not (out / "convergence_report.csv").exists()


def test_cli_micro_checks_its_cfl_number_before_the_factor(tmp_path, monkeypatch):
    factored = []
    factor = _implicit.factor_spd
    monkeypatch.setattr(_implicit, "factor_spd", lambda B: factored.append(B.shape) or factor(B))
    for name, flow, cfl in [
        ("x", "pressure_gradient = -120, 0\n", "1.71"),
        # a diagonal flow whose largest face velocity gives 0.90 and whose
        # largest cell outflow gives 1.48: checked on the face velocity,
        # micro accepted it and left the box bound in its first step (exit 3)
        ("diagonal", "pressure_gradient = -63.084, -63.084\ndiffusivity = 0.01\nu_init = bump:1.0\n", "1.48"),
    ]:
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(f"[micro]\nvelocity_mode = reconstructed\n{flow}t_end = 0.1\n")
        out = tmp_path / name
        assert main(["micro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        record = (out / "error_record.txt").read_text()
        assert "kind = config" in record
        assert f"[micro] eps = 0.25: dt*|q|/h = {cfl} violates the advective CFL bound" in record
        assert "largest total outflow of a cell" in record
        assert not (out / "micro_series.csv").exists()
    assert factored == []


@pytest.mark.parametrize("command", ["cell", "converge"])
@pytest.mark.parametrize("key, floor, what", [("cell", cell_problems.CELL_TOL_FLOOR, "backward errors")])
def test_cli_tolerance_below_its_round_off_floor_exits_2(tmp_path, command, key, floor, what):
    # 1e-20 failed every cell at run time: "corrector solve left relative
    # residual 4.767e-17 > 1e-20"; the floor itself is accepted
    assert parse_config(MINIMAL + f"[tolerances]\n{key} = {floor!r}\n").tolerances[key] == floor
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + f"[tolerances]\n{key} = {floor * (1 - 1e-15)!r}\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[tolerances]\n{key} = 1e-20\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record
    assert f"[tolerances] {key} = 1e-20 is below {floor:g}, the round-off floor of" in record and what in record
    assert f"set [tolerances] {key} >= {floor:g}" in record
    assert not (out / "effective_tensors.csv").exists()


def test_cli_cell_tolerance_reaches_the_corrector(tmp_path, monkeypatch):
    # below the parse-time floor, which is lifted here
    monkeypatch.setattr(config, "CELL_TOL_FLOOR", 0.0)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[tolerances]\ncell = 1e-20\n")
    out = tmp_path / "o"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    record = (out / "error_record.txt").read_text()
    assert "kind = runtime" in record and "corrector solve left relative residual" in record


def test_cli_cell_tolerance_at_round_off_passes_the_corrector(tmp_path):
    # the corrector's ||b||-relative residual was 9.2e-15 at n = 64 and
    # failed this tolerance; its backward error is 4.6e-17
    cfg = tmp_path / "run.ini"
    cfg.write_text("[geometry]\nn = 64\n[tolerances]\ncell = 1e-15\n")
    out = tmp_path / "o"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    row = read_csv(out / "effective_tensors.csv")[1][0]
    assert max(row["xi_res_1"], row["xi_res_2"]) <= 1e-16


def test_cli_cell_tolerance_at_round_off_passes_the_stokes_solve_on_a_narrow_channel(tmp_path):
    # a one-cell channel: one ring solve of the velocity left a momentum
    # backward error of 2.4e-14 to 3.1e-14, and one refinement 5.6e-17
    cfg = tmp_path / "run.ini"
    cfg.write_text("[geometry]\nn = 64\nhole_side = 0.96875\n[tolerances]\ncell = 1e-15\n")
    out = tmp_path / "o"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert read_csv(out / "effective_tensors.csv")[1][0]["k11"] > 0.0


def test_cli_cell_tolerance_reaches_the_stokes_solve(tmp_path, monkeypatch):
    # micro with the reconstructed velocity solves the Stokes cell problems
    # alone; the value is below the parse-time floor, which is lifted here
    monkeypatch.setattr(config, "CELL_TOL_FLOOR", 0.0)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[tolerances]\ncell = 1e-20\n[micro]\nvelocity_mode = reconstructed\n")
    out = tmp_path / "o"
    assert main(["micro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    record = (out / "error_record.txt").read_text()
    assert "kind = runtime" in record and "Stokes solve left momentum residual" in record


# grids past the cell budget, each with a subcommand that builds it and the
# key its error names
OVER_BUDGET = [
    ("cell", "[geometry]\nn = 100000\n", "[geometry] n"),
    ("micro", "[geometry]\nn = 100000\n", "[geometry] n"),
    ("micro", "[geometry]\neps = 1e-6\n", "[geometry] eps"),
    ("unfold", "[geometry]\neps = 1e-6\n", "[geometry] eps"),
    ("converge", "[sweep]\neps_list = 0.25, 1e-6\n", "[sweep] eps_list"),
    ("converge", "[geometry]\nn = 256\n", "[sweep] eps_list"),  # default sweep down to 1/16: 4096^2
    ("macro", "[macro]\nresolution = 513\n", "[macro] resolution"),
    ("converge", "[macro]\nresolution = 100000\n", "[macro] resolution"),
]


@pytest.mark.parametrize("command, text, key", OVER_BUDGET, ids=lambda v: v.strip().replace("\n", ":"))
def test_parse_bounds_the_grids_a_command_builds(command, text, key):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: the .* grid has .* cells, more than the budget"):
            parse_config(text).check_budget(command)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # rejected on parse alone, before any grid exists


def test_grids_within_the_budget_pass():
    parse_config("[geometry]\nn = 8\neps = 0.015625\n").check_budget("micro")  # 512^2, the budget
    parse_config("[macro]\nresolution = 512\n").check_budget("converge")
    # a grid the command does not build is not bounded: the cell at n = 256
    # with the default sweep, which only converge runs
    for command in ("cell", "macro"):
        parse_config("[geometry]\nn = 256\n").check_budget(command)
    assert set(config._COMMAND_GRIDS) == set(cli._COMMANDS)  # every subcommand is bounded


# runs past the step or the snapshot budget, each with a subcommand that
# makes the run and the key its error names
OVER_RUN_BUDGET = [
    ("micro", "[micro]\nt_end = 1000.01\n", "[micro] t_end"),  # 100,001 steps
    ("macro", "[macro]\nt_end = 1e9\n", "[macro] t_end"),
    ("converge", "[macro]\nt_end = 1e9\n", "[macro] t_end"),
    ("micro", "[geometry]\neps = 0.015625\n[micro]\nt_end = 0.32\noutput_every = 1\n", "[micro] output_every"),
    ("macro", "[macro]\nresolution = 512\noutput_every = 2\n", "[macro] output_every"),
    ("converge", "[sweep]\neps_list = 0.25, 0.015625\n[micro]\noutput_every = 1\n", "[micro] output_every"),
]


@pytest.mark.parametrize("command, text, key", OVER_RUN_BUDGET, ids=lambda v: v.strip().replace("\n", ":"))
def test_parse_bounds_the_runs_a_command_makes(command, text, key):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: the .* run (takes|stores) .*, more than the budget"):
            parse_config(text).check_budget(command)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # rejected on parse alone, before any step


def test_runs_within_the_budget_pass():
    # 100,000 steps (stored every 100th), and 32 snapshots of 512 x 512 cells
    parse_config("[micro]\nt_end = 1000\noutput_every = 100\n").check_budget("micro")
    parse_config("[geometry]\neps = 0.015625\n[micro]\nt_end = 0.31\noutput_every = 1\n").check_budget("micro")
    # commands that make no transport run take no step count
    for command in ("cell", "unfold"):
        parse_config("[micro]\nt_end = 1e9\n[macro]\nt_end = 1e9\n").check_budget(command)


@pytest.mark.parametrize("command, key", [("micro", "[micro] t_end"), ("macro", "[macro] t_end"),
                                          ("converge", "[micro] t_end")])
def test_cli_rejects_a_run_past_the_step_budget(tmp_path, command, key):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[micro]\nt_end = 1e9\n[macro]\nt_end = 1e9\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record and key in record
    assert not (out / "effective_tensors.csv").exists()


def test_cli_run_time_invariant_failure_exits_3_with_the_state(tmp_path, monkeypatch):
    # a precipitate update that breaks v >= 0 mid-run: the step's check
    # raises StateError, and the record dumps the offending state's solute
    def negative_ode_step(law, u, v, dt):
        return np.full_like(v, -1e-3), np.ones_like(v)

    checked = []
    check = transport.TransportSolver._check
    monkeypatch.setattr(micro_sim, "ode_step", negative_ode_step)
    monkeypatch.setattr(transport.TransportSolver, "_check",
                        lambda self, state, row: checked.append(state) or check(self, state, row))
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["micro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    record = (out / "error_record.txt").read_text()
    assert "kind = runtime" in record and "error = StateError" in record and "negative precipitate" in record
    u, h, mask = read_field(out / "abort_state_u.txt")
    assert mask.all() and h == 1.0 / u.shape[0]
    assert np.array_equal(u, checked[-1].u) and checked[-1].u.any()


def _flow_run(tmp_path):
    """A config with flow at both scales and an uneven last gap (steps 0, 3,
    6, 9 and 10), and the output directory with its cell problems solved."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(MINIMAL + "".join(
        f"[{s}]\nvelocity_mode = {mode}\ndt = 0.01\nt_end = 0.1\noutput_every = 3\nv_init = constant:0.05\n{extra}"
        for s, mode, extra in (("micro", "reconstructed", ""), ("macro", "darcy", "resolution = 16\n"))))
    out = tmp_path / "out"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    return cfg, out


def _stored_run_files(command, cfg_path, out):
    """What `stored_run_files` writes for the run of ``command``, made again
    with its snapshots kept."""
    cfg = parse_config(str(cfg_path))
    if command == "micro":
        grid = tile_domain(cfg.cell, cfg.eps)
        run = MicroSolver(cfg.micro, grid, solve_stokes_cell(cfg.cell, cfg.tolerances["cell"])).run()
        return stored_run_files(run, grid.h, grid.eps * grid.h, grid)
    _, _, S, K = read_tensor_csv(out / "effective_tensors.csv")
    solver = MacroSolver(cfg.macro, cfg.cell, S, K)
    return stored_run_files(solver.run(), solver.h, solver.weight)


@pytest.mark.parametrize("command", ["micro", "macro"])
def test_cli_writes_the_files_of_the_stored_run(tmp_path, command):
    # each snapshot is written as the run makes it, and the series from the
    # rates folded on the way: the bytes of writing the stored run's files
    cfg, out = _flow_run(tmp_path)
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    want = _stored_run_files(command, cfg, out)
    assert len(want) == 11  # 5 snapshots, 2 files each, and the series
    for name, text in want.items():
        assert (out / name).read_text() == text, name
    written = {p.name for p in out.glob("*_0*.*")}
    assert written == {name for name in want if "_0" in name}


_REACT = "u_init = constant:0.9\nv_init = constant:0.5\n"
_REACTING_RUN = _REACT + "t_end = 0.1\n"
_REACTING = _flow(_REACTING_RUN, _REACTING_RUN)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [MINIMAL + f"[micro]\n{_REACT}[macro]\n{_REACT}",
                                  f"[macro]\nvelocity_mode = darcy\n{_REACT}"], ids=["no-flow", "darcy"])
def test_cli_macro_step_rate_does_not_grow_over_equal_gaps(tmp_path, capfd, text):
    # a precipitate that dissolves throughout the run, with the solute near
    # solubility, stored every 0.1: the L1 step rate of the solute alone
    # grew 0.072 -> 0.237 over these equal gaps (largest ratio 1.764); that
    # of the contraction functional, solute plus weighted precipitate, falls,
    # with or without flow, and the runs write nothing on stderr
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    for command in ("cell", "macro"):
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert capfd.readouterr().err == ""
    rows = read_csv(out / "macro_series.csv")[1]
    assert np.allclose(np.diff([row["t"] for row in rows]), 0.1, rtol=1e-12)
    rates = [row["l1_step_rate"] for row in rows]
    assert len(rates) == 11 and rates[0] == 0.0 and rates[-1] > 0.0
    for before, after in zip(rates[1:], rates[2:]):
        assert after <= before * (1.0 + 1e-8) + 1e-14


def test_cli_reacting_newton_cg_stops_within_the_newton_allowance(tmp_path, monkeypatch):
    # a precipitate that dissolves throughout the run takes CG on every
    # Newton step; each CG call must return with the 2-norm and the sum of
    # its residual within 0.1 * newton * scale, the share of the Newton test
    # it is given.  A relative target 1e-12 * ||F|| stopped 3 of the
    # converge run's 120 calls above that, with sums 60-100 times it.  CG
    # stops on its recurrence residual; the true residual b - A x formed
    # here differs from it by round-off, measured up to 3.2 eps times
    # sum|b| + sum|A x|, which the sum is allowed on top
    cfg = tmp_path / "run.ini"
    cfg.write_text(MINIMAL + _REACTING)
    newton_tol = parse_config(str(cfg)).micro.newton_tol
    scales, calls = [], []
    for module in (micro_sim, macro_sim):
        def recording_newton(op, *args, newton=module.newton_reaction_diffusion, **kwargs):
            scales.append(op.scale)
            return newton(op, *args, **kwargs)

        monkeypatch.setattr(module, "newton_reaction_diffusion", recording_newton)
    cg = _implicit.cg

    def checked_cg(A, b, **kwargs):
        x, relres, iters = cg(A, b, **kwargs)
        Ax = A(x)
        round_off = 4.0 * np.finfo(float).eps * (np.abs(b).sum() + np.abs(Ax).sum())
        calls.append((relres * max(np.linalg.norm(b), 1.0), abs((b - Ax).sum()), 0.1 * newton_tol * scales[-1], round_off))
        return x, relres, iters

    monkeypatch.setattr(_implicit, "cg", checked_cg)
    out = tmp_path / "out"
    for command in ("cell", "converge"):
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert calls
    assert not [(norm, total, allowance) for norm, total, allowance, round_off in calls
                if norm > allowance or total > allowance + round_off]


@pytest.mark.parametrize("command, module", [("micro", micro_sim), ("macro", macro_sim)], ids=["micro", "macro"])
def test_cli_run_failing_mid_run_leaves_the_snapshots_before_the_failure(tmp_path, monkeypatch, command, module):
    # the precipitate update breaks v >= 0 at step 8: the run exits 3 with
    # the snapshots of steps 0, 3 and 6 written, those of the run that does
    # not fail, and no series
    cfg, out = _flow_run(tmp_path)
    want = _stored_run_files(command, cfg, out)
    calls = []
    ode_step = module.ode_step

    def failing_ode_step(law, u, v, dt):
        calls.append(None)
        v_new, w = ode_step(law, u, v, dt)
        return (v_new - 1.0 if len(calls) == 8 else v_new), w

    monkeypatch.setattr(module, "ode_step", failing_ode_step)
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert "error = StateError" in (out / "error_record.txt").read_text()
    written = sorted(p.name for p in out.glob("*_0*.*"))
    assert written == sorted(name for name in want if re.search("_0000[0-2]", name))
    assert len(written) == 6
    for name in written:
        assert (out / name).read_text() == want[name], name
    assert not list(out.glob("*_series.csv"))


def test_cli_macro_writes_the_linear_darcy_pressure(tmp_path):
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("[macro]\n", "[macro]\nvelocity_mode = darcy\np_left = 0.7\np_right = 0.2\n"))
    out = tmp_path / "out"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["macro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    P, h, mask = read_field(out / "macro_pressure.txt")
    assert mask.all() and P.shape == (16, 16) and h == 1.0 / 16
    x = (np.arange(16) + 0.5) / 16
    assert np.max(np.abs(P - (0.7 + (0.2 - 0.7) * x)[:, None])) <= 1e-15


def test_cli_rejects_a_grid_past_the_budget(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[geometry]\nn = 100000\n")
    out = tmp_path / "o"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record and "[geometry] n" in record
    assert not (out / "effective_tensors.csv").exists()


# the primary artifact of each subcommand that runs
_ARTIFACTS = {"cell": "effective_tensors.csv", "micro": "micro_series.csv", "macro": "macro_series.csv",
              "converge": "convergence_report.csv"}
_ALL_COMMANDS = ("cell", "micro", "converge", "macro")
# configs whose runs must exit 0 with nothing written to file descriptor 2,
# the one C libraries write to, and every warning raised as an error: run
# as `python -m porechem`, a RuntimeWarning is what -W error::RuntimeWarning
# stops on and any other warning would reach stderr
WARNING_FREE = [
    ("default", "", _ALL_COMMANDS),
    ("flow", _flow("t_end = 0.1\n", "t_end = 0.1\n"), _ALL_COMMANDS),
    # most steps of the default config are one direct solve, since its
    # precipitate is gone after five; a precipitate that dissolves
    # throughout the run, with the solute near solubility, takes CG on every
    # Newton step (30 CG calls in the micro run alone)
    ("reacting", _REACTING, _ALL_COMMANDS),
    # initial data above 1, which needed [micro] m0 and [macro] m0 set
    ("high", "[micro]\nu_init = constant:1.5\n[macro]\nu_init = constant:1.5\n", ("cell", "micro", "macro")),
    # a diagonal flow at outflow CFL number 0.71, within the bound
    ("diagonal", "[micro]\nvelocity_mode = reconstructed\npressure_gradient = -30, -30\ndiffusivity = 0.01\n"
                 "u_init = bump:1.0\n", ("micro",)),
    ("macro-512", "[macro]\nresolution = 512\nt_end = 0.05\n", ("cell", "macro")),  # the largest grid the budget admits
    ("off-centre", "[geometry]\nn = 16\nhole_side = 0.25\nhole_center = 0.375, 0.625\n", ("cell",)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, commands", [w[1:] for w in WARNING_FREE], ids=[w[0] for w in WARNING_FREE])
def test_cli_commands_run_warning_free(tmp_path, capfd, text, commands):
    # each command in its own output directory, macro on the tensors of cell
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    for command in commands:
        out = tmp_path / command
        tensors = ["--tensors", str(tmp_path / "cell" / "effective_tensors.csv")] if command == "macro" else []
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet", *tensors]) == 0
        assert capfd.readouterr() == ("", ""), command
        assert (out / _ARTIFACTS[command]).stat().st_size > 0
    if "cell" in commands:
        # the S and K certificates at round-off, and the corrector backward
        # errors (4e-17 at any n)
        row = read_csv(tmp_path / "cell" / "effective_tensors.csv")[1][0]
        assert max(row["s_quad_err"], row["k_grad_err"]) <= 1e-10
        assert max(row["xi_res_1"], row["xi_res_2"]) <= 1e-14


def _subprocess_env(**variables):
    """The environment of a fresh interpreter that imports this porechem."""
    return dict(os.environ, PYTHONPATH=str(Path(porechem.__file__).resolve().parents[1]), **variables)


def test_python_m_porechem_exits_with_the_status_of_main(tmp_path):
    # the process entry point: an empty config runs, a grain off the grid is
    # a config error with its record (both processes at once)
    runs = []
    for name, text in (("ok", ""), ("bad", "[geometry]\nhole_side = 0.3\n")):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        argv = [sys.executable, "-m", "porechem", "cell", "--config", str(cfg), "--out", str(tmp_path / name), "--quiet"]
        runs.append(subprocess.Popen(argv, env=_subprocess_env(), stderr=subprocess.DEVNULL))
    assert [run.wait() for run in runs] == [0, 2]
    assert (tmp_path / "ok" / "effective_tensors.csv").stat().st_size > 0
    assert "kind = config" in (tmp_path / "bad" / "error_record.txt").read_text()


def test_transport_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # cg reduced with BLAS ddot and dnrm2, which split their sums across
    # threads: under 1 and 2 threads the default converge wrote eps = 1/16
    # rows ending ...2144 and ...2129, and the reacting Darcy macro run
    # wrote 3 files that differed.  cell at n >= 128 still depends on the
    # count
    (tmp_path / "default.ini").write_text("")
    (tmp_path / "react.ini").write_text(
        f"[macro]\nvelocity_mode = darcy\nresolution = 128\n{_REACTING_RUN}")
    runs = [("converge", "default"), ("cell", "react"), ("macro", "react")]
    code = "import json, sys; from porechem.cli import main; sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))"
    processes = []  # both at once
    for threads in ("1", "2"):
        argvs = [[command, "--config", str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / threads / name), "--quiet"]
                 for command, name in runs]
        env = _subprocess_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        processes.append(subprocess.Popen([sys.executable, "-c", code, json.dumps(argvs)], env=env))
    assert [process.wait() for process in processes] == [0, 0]

    def data_files(root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file() and p.name != "run_manifest.txt")

    names = data_files(tmp_path / "1")
    assert names == data_files(tmp_path / "2")
    assert {"default/convergence_report.csv", "react/macro_series.csv"} <= set(names)
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
