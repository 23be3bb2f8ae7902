"""Command-line entry points.

Subcommands:

* ``cell``     -- solve the unit-cell problems, write effective_tensors.csv
* ``micro``    -- run the pore-scale simulation, dump fields and series
* ``macro``    -- run the upscaled simulation (reads effective_tensors.csv)
* ``converge`` -- full eps-sweep, write convergence_report.csv
* ``unfold``   -- unfolding/oscillation diagnostics on stored micro output

Common flags: ``--config <path>``, ``--out <dir>``, ``--quiet``.  The
environment variable ``PORECHEM_THREADS`` bounds the worker threads used
for the two independent corrector solves.  Data files carry no
timestamps; run metadata goes to ``run_manifest.txt``.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .cell_problems import (
    EffectiveTensors,
    assemble_K,
    assemble_S,
    read_tensor_csv,
    solve_diffusion_cell,
    solve_stokes_cell,
    write_tensor_csv,
)
from .config import parse_config
from .errors import ConfigError, SolverError, StateError
from .geometry import tile_domain, write_classification
from .gridio import read_csv, write_csv, write_field
from .homogenize import isometry_residual, oscillation_check, sweep
from .macro_sim import MacroSolver
from .micro_sim import MicroSolver, l1_distance


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("PORECHEM_THREADS", "1")))
    except ValueError:
        return 1


def _say(quiet, *args):
    if not quiet:
        print(*args)


def _prepare_out(args, cfg):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_resolved(out / "resolved_config.ini")
    with open(out / "run_manifest.txt", "w") as f:
        f.write(f"porechem {__version__}\nsubcommand: {args.command}\nconfig: {args.config}\n")
    return out


def _compute_tensors(cfg) -> EffectiveTensors:
    tol = cfg.tolerances["cell"]
    D = float(cfg.raw["micro"]["diffusivity"])
    if _threads() > 1:
        with ThreadPoolExecutor(max_workers=2) as ex:
            fields = list(ex.map(lambda i: solve_diffusion_cell(cfg.cell, i, tol=tol), (0, 1)))
    else:
        fields = [solve_diffusion_cell(cfg.cell, i, tol=tol) for i in range(2)]
    # serial: both directions share one factorization of the velocity Laplacian
    sols = [solve_stokes_cell(cfg.cell, j) for j in range(2)]
    S, s_info = assemble_S(cfg.cell, fields, D=D, spd_tol=cfg.tolerances["spd"])
    K, k_info = assemble_K(cfg.cell, sols, spd_tol=cfg.tolerances["spd"])
    prov = {
        "n": cfg.cell.n,
        "hole_side": cfg.cell.hole_side,
        "xi_residuals": [f.residual for f in fields],
        "stokes_div": [s.div_inf for s in sols],
        "stokes_momentum_res": [s.momentum_res for s in sols],
        "stokes_iters": [s.iters for s in sols],
        "s_asymmetry": s_info["asymmetry"],
        "s_quad_err": s_info["quad_err"],
        "k_asymmetry": k_info["asymmetry"],
        "k_grad_err": k_info["grad_err"],
        "tol": tol,
    }
    tensors = EffectiveTensors(S=S, K=K, alpha_s=s_info["alpha_s"], D=D, provenance=prov)
    return tensors, fields, sols


def cmd_cell(args, cfg):
    out = _prepare_out(args, cfg)
    tensors, fields, sols = _compute_tensors(cfg)
    write_tensor_csv(out / "effective_tensors.csv", cfg.cell, tensors)
    if cfg.dump_fields:
        h = cfg.cell.h
        for i, f in enumerate(fields):
            write_field(out / f"xi_{i + 1}.txt", f.values, h, cfg.cell.fluid)
        for j, s in enumerate(sols):
            write_field(out / f"chi_{j + 1}_u.txt", s.u, h)
            write_field(out / f"chi_{j + 1}_v.txt", s.v, h)
            write_field(out / f"chi_{j + 1}_p.txt", s.p, h, cfg.cell.fluid)
    _say(args.quiet, f"S = {tensors.S.tolist()}")
    _say(args.quiet, f"K = {tensors.K.tolist()}")
    _say(args.quiet, f"alpha_S = {tensors.alpha_s:.6g}; wrote {out / 'effective_tensors.csv'}")
    return 0


_SERIES_COLUMNS = ["t", "mass_u", "mass_v", "min_u", "max_u", "min_v", "max_v", "l1_step_rate"]


def _series_rows(times, states, mass_rows, grid=None):
    """Series CSV rows at the snapshot cadence (the mass report itself is
    per step; snapshot rows are selected by time)."""
    mass_t = np.array([(r["t"] if isinstance(r, dict) else r.t) for r in mass_rows])
    rows = []
    for i, t in enumerate(times):
        row = mass_rows[int(np.argmin(np.abs(mass_t - t)))]
        if grid is not None and i > 0:
            lag = times[i] - times[i - 1]
            rate = l1_distance(states[i], states[i - 1], grid) / lag if lag > 0 else 0.0
        elif grid is None and i > 0:
            lag = times[i] - times[i - 1]
            h2 = 1.0 / states[i].u.size
            du = float(np.abs(states[i].u - states[i - 1].u).sum() * h2)
            rate = du / lag if lag > 0 else 0.0
        else:
            rate = 0.0
        r = row if isinstance(row, dict) else row.__dict__
        rows.append(
            dict(t=r["t"], mass_u=r["mass_u"], mass_v=r["mass_v"], min_u=r["min_u"],
                 max_u=r["max_u"], min_v=r["min_v"], max_v=r["max_v"], l1_step_rate=rate)
        )
    return rows


def cmd_micro(args, cfg):
    out = _prepare_out(args, cfg)
    grid = tile_domain(cfg.cell, cfg.eps)
    micro_cfg = cfg.micro_config()
    stokes = None
    if micro_cfg.velocity_mode == "reconstructed":
        stokes = [solve_stokes_cell(cfg.cell, j) for j in range(2)]
    solver = MicroSolver(micro_cfg, grid, stokes)
    run = solver.run()
    write_classification(grid, out / "grid_classification.txt")
    write_csv(out / "micro_series.csv", _SERIES_COLUMNS, _series_rows(run.times, run.states, run.mass, grid))
    faces = grid.faces
    for i, state in enumerate(run.states):
        write_field(out / f"u_{i:05d}.txt", state.u, grid.h, grid.fluid_mask)
        write_csv(
            out / f"faces_{i:05d}.csv",
            ["face", "kx", "ky", "local", "center_x", "center_y", "v", "w"],
            [
                (int(f), int(faces.kx[f]), int(faces.ky[f]), int(faces.local[f]),
                 faces.centers[f, 0], faces.centers[f, 1], state.v[f], state.w[f])
                for f in range(faces.count)
            ],
        )
    _say(args.quiet, f"micro run: {len(run.times)} snapshots, final t = {run.times[-1]}")
    _say(args.quiet, f"mass drift = {run.mass[-1].drift:.3e}")
    return 0


def cmd_macro(args, cfg):
    out = _prepare_out(args, cfg)
    tensor_path = Path(args.tensors) if args.tensors else out / "effective_tensors.csv"
    if not tensor_path.exists():
        raise ConfigError(
            f"effective tensors file {tensor_path} not found; run the `cell` subcommand first "
            "or pass --tensors"
        )
    S, K, _ = read_tensor_csv(tensor_path)
    macro_cfg = cfg.macro_config(S, K, cfg.cell.pore_area, cfg.cell.surface_measure)
    solver = MacroSolver(macro_cfg)
    run = solver.run()
    h = 1.0 / macro_cfg.resolution_cells
    write_csv(out / "macro_series.csv", _SERIES_COLUMNS, _series_rows(run.times, run.states, run.mass))
    for i, state in enumerate(run.states):
        write_field(out / f"macro_u_{i:05d}.txt", state.u, h)
        write_field(out / f"macro_v_{i:05d}.txt", state.v, h)
    if solver.P is not None:
        write_field(out / "macro_pressure.txt", solver.P, h)
    _say(args.quiet, f"macro run: {len(run.times)} snapshots, final t = {run.times[-1]}")
    return 0


def cmd_converge(args, cfg):
    out = _prepare_out(args, cfg)
    tensors, _, sols = _compute_tensors(cfg)
    write_tensor_csv(out / "effective_tensors.csv", cfg.cell, tensors)
    macro_cfg = cfg.macro_config(
        tensors.S, tensors.K, cfg.cell.pore_area, cfg.cell.surface_measure
    )
    micro_cfg = cfg.micro_config()
    stokes = sols if micro_cfg.velocity_mode == "reconstructed" else None
    report = sweep(cfg.cell, cfg.sweep_eps, micro_cfg, macro_cfg, stokes)
    report.write_csv(out / "convergence_report.csv")
    for r in report.rows:
        _say(
            args.quiet,
            f"eps={r['eps']:.6g}: err_u={r['err_u_L2']:.6e} err_v={r['err_v_unfolded_L2']:.6e}"
            + (f" order_u={r['order_u']:.3f}" if r.get("order_u") is not None else ""),
        )
    _say(args.quiet, f"wrote {out / 'convergence_report.csv'}")
    return 0


def cmd_unfold(args, cfg):
    out = _prepare_out(args, cfg)
    grid = tile_domain(cfg.cell, cfg.eps)
    rows = []
    # isometry residuals of any stored micro face dumps in the output dir
    for path in sorted(Path(args.out).glob("faces_*.csv")):
        _, face_rows = read_csv(path)
        v = np.array([r["v"] for r in face_rows])
        if v.size != grid.faces.count:
            raise ConfigError(f"{path.name} does not match the configured geometry")
        rows.append({"kind": "isometry", "name": path.name, "value": isometry_residual(v, grid)})
    # oscillation table for f = x1 against the exact product integral
    osc = oscillation_check(
        cfg.cell,
        lambda x1, x2, y1, y2: x1,
        cfg.sweep_eps,
        exact=cfg.cell.surface_measure * 0.5,
    )
    for r in osc:
        rows.append({"kind": "oscillation_x1", "name": f"eps={r['eps']:.6g}", "value": r["error"]})
    with open(out / "unfold_report.csv", "w") as f:
        f.write("kind,name,value\n")
        for r in rows:
            f.write(f"{r['kind']},{r['name']},{format(float(r['value']), '.17g')}\n")
    _say(args.quiet, f"wrote {out / 'unfold_report.csv'} ({len(rows)} rows)")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="porechem", description=__doc__.split("\n")[0])
    p.add_argument("--version", action="version", version=f"porechem {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("--config", required=True, help="run configuration file")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
        if name == "macro":
            sp.add_argument("--tensors", default=None, help="effective_tensors.csv path")
    return p


_COMMANDS = {
    "cell": cmd_cell,
    "micro": cmd_micro,
    "macro": cmd_macro,
    "converge": cmd_converge,
    "unfold": cmd_unfold,
}


def _error_record(out_dir, kind, exc):
    """Machine-readable failure record next to the (partial) artifacts."""
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "error_record.txt", "w") as f:
            f.write(f"kind = {kind}\nerror = {type(exc).__name__}\nmessage = {exc}\n")
        state = getattr(exc, "state", None)
        if state is not None and hasattr(state, "u"):
            h = 1.0 / state.u.shape[0]
            write_field(out / "abort_state_u.txt", state.u, h)
    except OSError:
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        _error_record(args.out, "config", e)
        return 2
    except (SolverError, StateError) as e:
        print(f"error: {e}", file=sys.stderr)
        _error_record(args.out, "runtime", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
