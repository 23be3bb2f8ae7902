"""Command-line entry points.

Subcommands:

* ``cell``     -- solve the unit-cell problems, write effective_tensors.csv
* ``micro``    -- run the pore-scale simulation, dump fields and series
* ``macro``    -- run the upscaled simulation (reads effective_tensors.csv)
* ``converge`` -- full eps-sweep, write convergence_report.csv
* ``unfold``   -- unfolding/oscillation diagnostics on stored micro output

Common flags: ``--config <path>``, ``--out <dir>``, ``--quiet``.  Data
files carry no timestamps; run metadata goes to ``run_manifest.txt``.
"""

from __future__ import annotations

import argparse
import itertools
import sys
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
from .errors import AssemblyError, ConfigError, SolverError, StateError, labelled
from .geometry import tile_domain, write_classification
from .gridio import read_csv, write_csv, write_field
from .homogenize import isometry_residual, oscillation_check, sweep
from .macro_sim import MacroSolver
from .micro_sim import MicroSolver
from .transport import l1_distance  # noqa: F401 -- not called here; perfbench/spans.py traces this name


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
    cell, tol, D = cfg.cell, cfg.tolerances["cell"], cfg.micro.D
    # as in effective_tensors: the cheaper corrector pair first
    fields = solve_diffusion_cell(cell, tol)
    sols = solve_stokes_cell(cell, tol)
    S, s_info = assemble_S(cell, fields, D=D)
    K, k_info = assemble_K(cell, sols)
    return EffectiveTensors(cell, D, fields, sols, S, s_info, K, k_info)


def cmd_cell(args, cfg):
    out = _prepare_out(args, cfg)
    tensors = _compute_tensors(cfg)
    write_tensor_csv(out / "effective_tensors.csv", tensors)
    if cfg.dump_fields:
        h = cfg.cell.h
        for i, f in enumerate(tensors.fields):
            write_field(out / f"xi_{i + 1}.txt", f.values, h, cfg.cell.fluid)
        for j, s in enumerate(tensors.sols):
            write_field(out / f"chi_{j + 1}_u.txt", s.u, h)
            write_field(out / f"chi_{j + 1}_v.txt", s.v, h)
            write_field(out / f"chi_{j + 1}_p.txt", s.p, h, cfg.cell.fluid)
    _say(args.quiet, f"S = {tensors.S.tolist()}")
    _say(args.quiet, f"K = {tensors.K.tolist()}")
    _say(args.quiet, f"alpha_S = {tensors.alpha_s:.6g}; wrote {out / 'effective_tensors.csv'}")
    return 0


_SERIES_COLUMNS = ["t", "mass_u", "mass_v", "min_u", "max_u", "min_v", "max_v", "l1_step_rate"]


def _series_rows(run):
    """Series CSV rows, one per snapshot: the mass report's row at each stored
    step and the run's L1 step rate at that snapshot."""
    return [{c: getattr(run.mass[s], c) for c in _SERIES_COLUMNS[:-1]} | {"l1_step_rate": rate}
            for s, rate in zip(run.cfg.snapshot_steps, run.l1_step_rates)]


def cmd_micro(args, cfg):
    out = _prepare_out(args, cfg)
    grid = tile_domain(cfg.cell, cfg.eps)
    stokes = None
    if cfg.micro.velocity_mode == "reconstructed":
        stokes = solve_stokes_cell(cfg.cell, cfg.tolerances["cell"])
    faces = grid.faces
    index = itertools.count()

    def write(state):  # each snapshot as the run makes it
        i = next(index)
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

    run = labelled(f"[micro] eps = {cfg.eps:g}:", MicroSolver, cfg.micro, grid, stokes, consumer=write).run()
    write_classification(grid, out / "grid_classification.txt")
    write_csv(out / "micro_series.csv", _SERIES_COLUMNS, _series_rows(run))
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
    cell, D, S, K = read_tensor_csv(tensor_path)
    # S (D included) and K come from the file, the storage factor from the cell
    if (cell, D) != (cfg.cell, cfg.micro.D):
        raise ConfigError(
            f"{tensor_path} holds the tensors of {cell} with D = {D!r}, not of the configured "
            f"{cfg.cell} with [micro] diffusivity = {cfg.micro.D!r}"
        )
    index = itertools.count()

    def write(state):  # each snapshot as the run makes it
        i = next(index)
        write_field(out / f"macro_u_{i:05d}.txt", state.u, solver.h)
        write_field(out / f"macro_v_{i:05d}.txt", state.v, solver.h)

    solver = MacroSolver(cfg.macro, cfg.cell, S, K, consumer=write)
    run = solver.run()
    write_csv(out / "macro_series.csv", _SERIES_COLUMNS, _series_rows(run))
    if solver.P is not None:
        write_field(out / "macro_pressure.txt", solver.P, solver.h)
    _say(args.quiet, f"macro run: {len(run.times)} snapshots, final t = {run.times[-1]}")
    return 0


def cmd_converge(args, cfg):
    out = _prepare_out(args, cfg)
    tensors = _compute_tensors(cfg)
    write_tensor_csv(out / "effective_tensors.csv", tensors)
    stokes = tensors.sols if cfg.micro.velocity_mode == "reconstructed" else None
    report = sweep(cfg.cell, cfg.sweep_eps, cfg.micro, cfg.macro, tensors.S, tensors.K, stokes)
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
    write_csv(out / "unfold_report.csv", ["kind", "name", "value"], rows)
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
        cfg.check_budget(args.command)
        return _COMMANDS[args.command](args, cfg)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        _error_record(args.out, "config", e)
        return 2
    except (SolverError, AssemblyError, StateError) as e:
        print(f"error: {e}", file=sys.stderr)
        _error_record(args.out, "runtime", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
