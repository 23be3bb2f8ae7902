"""Numerical two-scale machinery: extension, boundary unfolding, oscillating
surface quadrature, and the micro-to-macro error sweep.

The unfolding operator maps a grain-face field to the product domain
(eps-cell) x (reference boundary),  T f(x, y) = f(eps [x/eps] + eps y).
On the aligned geometry this is a pure reindexing, so the L2 isometry

    integral over Omega x Gamma of |T f|^2  =  eps * integral over
    Gamma^eps of |f|^2

is the same finite sum reweighted (eps^2 * 1/n per unfolded sample versus
eps * h per face, with h = eps/n) and holds to round-off.

Micro fields are extended into the grain by the per-cell fluid mean before
being compared against macro fields averaged onto the eps-cell partition;
this keeps the comparison free of interpolation bias at the grain walls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, labelled
from .geometry import PerforatedGrid, UnitCell, cells_per_edge, tile_domain
from .gridio import write_csv
from .macro_sim import MacroConfig, MacroSolver
from .micro_sim import MicroConfig, MicroSolver, reconstruct_velocity
from .micro_sim import difference_quotient_norm  # noqa: F401 -- not called here; perfbench/spans.py traces this name
from .transport import Run


# ---------------------------------------------------------------------------
# extension and unfolding
# ---------------------------------------------------------------------------

def eps_cell_fluid_mean(u: np.ndarray, grid: PerforatedGrid) -> np.ndarray:
    """Mean of u over the fluid cells of each eps-cell, shape (N, N)."""
    N, n = grid.cells_per_edge, grid.cell.n
    blocks = u.reshape(N, n, N, n)
    count = int(grid.cell.fluid.sum())
    return blocks.sum(axis=(1, 3)) / count  # u is zero on solid cells


def extend(u: np.ndarray, grid: PerforatedGrid) -> np.ndarray:
    """Fill the grain cells of each eps-cell with that cell's fluid mean.

    The restriction to fluid cells is the input field, exactly.
    """
    N, n = grid.cells_per_edge, grid.cell.n
    mean = eps_cell_fluid_mean(u, grid)
    fluid = grid.cell.fluid[None, :, None, :]
    blocks = np.where(fluid, u.reshape(N, n, N, n), mean[:, None, :, None])
    return blocks.reshape(N * n, N * n)


def unfold(f: np.ndarray, grid: PerforatedGrid) -> np.ndarray:
    """Unfold a per-face field to its (eps-cell, reference face) array, of
    shape ``(N*N, faces per cell)`` with the eps-cells kx-major.  The
    reshape needs the grid's faces enumerated so that face ``(kx*N + ky) *
    faces_per_cell + local`` is the face of eps-cell (kx, ky) with reference
    face ``local``; that layout is checked first."""
    nf_loc = grid.cell.n_grain_faces
    N = grid.cells_per_edge
    if f.shape != (N * N * nf_loc,):
        raise ValueError(f"face field has wrong length {f.shape}")
    faces = grid.faces
    if not np.array_equal((faces.kx * N + faces.ky) * nf_loc + faces.local, np.arange(f.size)):
        raise AssertionError("grid faces are not enumerated eps-cell-major, as the unfolding needs")
    return f.reshape(N * N, nf_loc)


def isometry_residual(f: np.ndarray, grid: PerforatedGrid) -> float:
    """|unfolded norm^2 - eps * surface norm^2| for a face field, the
    unfolded samples weighted eps^2 * 1/n."""
    unfolded = grid.eps**2 * (1.0 / grid.cell.n) * float(np.sum(unfold(f, grid) ** 2))
    return abs(unfolded - grid.eps * grid.h * float(np.sum(f**2)))


# ---------------------------------------------------------------------------
# oscillation quadrature
# ---------------------------------------------------------------------------

def oscillation_check(cell: UnitCell, f, eps_list, exact: float):
    """Oscillating surface quadrature  eps * sum f(x, x/eps) h  against
    ``exact``, the product integral over Omega x Gamma.

    ``f(x1, x2, y1, y2)`` must accept arrays.  Returns rows of (eps,
    oscillating, product, error).
    """
    _, _, _, _, y_ref = cell.grain_faces
    if y_ref.shape[0] == 0:
        raise ConfigError("oscillation quadrature needs a nonempty grain boundary")
    rows = []
    for eps in eps_list:
        grid = tile_domain(cell, eps)
        fc = grid.faces.centers
        yy = y_ref[grid.faces.local]
        vals = f(fc[:, 0], fc[:, 1], yy[:, 0], yy[:, 1])
        osc = float(eps * grid.h * np.sum(vals))
        rows.append({"eps": eps, "oscillating": osc, "product": exact, "error": abs(osc - exact)})
    return rows


# ---------------------------------------------------------------------------
# two-scale error norms and the sweep
# ---------------------------------------------------------------------------

def check_sweep(eps_list, micro_cfg: MicroConfig, macro_cfg: MacroConfig):
    """ConfigError unless the eps-sweep can compare its micro runs with the
    macro run: at least one eps, eps strictly decreasing, whole macro cells
    per eps-cell (the eps-cell averages), the same snapshot times, and one
    problem (the same initial and boundary data, and no flow or the flow of
    one pressure drop)."""
    if len(eps_list) == 0:
        raise ConfigError("sweep eps_list is empty")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("sweep eps_list must be strictly decreasing")
    m = macro_cfg.resolution_cells
    for N in map(cells_per_edge, eps_list):
        if m % N != 0:
            raise ConfigError(f"macro resolution {m} is not a multiple of 1/eps = {N}")
    t1, t2 = (np.multiply(c.snapshot_steps, c.dt) for c in (micro_cfg, macro_cfg))
    if len(t1) != len(t2) or np.max(np.abs(t1 - t2)) > 1e-9:
        raise ConfigError("micro and macro output times do not match")

    def keys(*names):  # "[section] key = parsed value and ..."
        return " and ".join(f"[{s}] {k} = {getattr(micro_cfg if s == 'micro' else macro_cfg, k)}" for s, k in names)

    for key in ("u_init", "v_init", "dirichlet_value"):
        if getattr(micro_cfg, key) != getattr(macro_cfg, key):
            raise ConfigError(f"{keys(('micro', key), ('macro', key))} differ; the sweep compares runs of one problem")
    if (micro_cfg.velocity_mode, macro_cfg.velocity_mode) not in (("zero", "zero"), ("reconstructed", "darcy")):
        raise ConfigError(f"{keys(('micro', 'velocity_mode'), ('macro', 'velocity_mode'))} are not one flow; "
                          "use zero and zero, or reconstructed and darcy")
    # the macro pressure falls linearly over the unit domain
    drop = np.array([macro_cfg.p_right - macro_cfg.p_left, 0.0])
    if macro_cfg.velocity_mode == "darcy" and not np.allclose(micro_cfg.pressure_gradient, drop, rtol=1e-12,
                                                              atol=1e-12 * abs(drop[0])):
        raise ConfigError(f"{keys(('micro', 'pressure_gradient'), ('macro', 'p_left'), ('macro', 'p_right'))} "
                          "are not one pressure gradient; it must be (p_right - p_left, 0)")


def _macro_on_eps_cells(u_macro: np.ndarray, N: int) -> np.ndarray:
    b = u_macro.shape[0] // N
    return u_macro.reshape(N, b, N, b).mean(axis=(1, 3))


def _macro_level(state, N: int) -> tuple:
    """The eps-cell averages of a macro snapshot's solute and precipitate,
    the precipitate's flattened kx-major, as the grain faces are."""
    return _macro_on_eps_cells(state.u, N), _macro_on_eps_cells(state.v, N).reshape(N * N)


def _snapshot_errors(grid: PerforatedGrid, law, state, level) -> tuple:
    """Squared volume, boundary and rate errors of one micro snapshot
    against the macro snapshot's eps-cell averages ``level``."""
    n = grid.cell.n
    h2 = grid.h**2
    U, V = level
    u_ext = extend(state.u, grid)
    U_fine = np.repeat(np.repeat(U, n, axis=0), n, axis=1)
    e_u = np.sum((u_ext - U_fine) ** 2) * h2
    e_r = np.sum((law.rate(u_ext) - law.rate(U_fine)) ** 2) * h2
    tr = unfold(state.v, grid)
    e_v = grid.eps**2 * (1.0 / n) * np.sum((tr - V[:, None]) ** 2)
    return e_u, e_v, e_r


def _space_time_norms(eps, times, errors) -> dict:
    """The rows of `two_scale_errors` from the per-snapshot squared errors,
    integrated in time by the trapezoid rule."""
    e_u, e_v, e_r = np.array(errors).T
    dt_w = np.zeros_like(times)  # trapezoid weights on the time axis
    gaps = np.diff(times)
    dt_w[:-1] += 0.5 * gaps
    dt_w[1:] += 0.5 * gaps
    return {
        "eps": eps,
        "err_u_L2": float(np.sqrt(np.sum(e_u * dt_w))),
        "err_v_unfolded_L2": float(np.sqrt(np.sum(e_v * dt_w))),
        "err_r_L2": float(np.sqrt(np.sum(e_r * dt_w))),
    }


def two_scale_errors(micro: Run, macro: Run) -> dict:
    """Space-time errors between one micro run and the macro run.

    Volume error: L2(Omega x (0,T)) distance between the grain-filled
    extension of the micro solute and the macro solute averaged per eps-cell.
    Boundary error: L2(Omega x Gamma x (0,T)) distance between the unfolded
    precipitate trace and the (y-independent) eps-cell average of the macro
    precipitate.  The rate error applies r(.) before the volume norm.
    Both runs keep their snapshots; `sweep` folds the same per-snapshot
    errors while its runs step.
    """
    grid = micro.grid
    check_sweep([grid.eps], micro.cfg, macro.cfg)
    N = grid.cells_per_edge
    law = micro.cfg.rate_law
    errors = [_snapshot_errors(grid, law, ms, _macro_level(Ms, N)) for ms, Ms in zip(micro.states, macro.states)]
    return _space_time_norms(grid.eps, micro.times, errors)


@dataclass
class ConvergenceReport:
    rows: list

    def write_csv(self, path):
        cols = ["eps", "err_u_L2", "err_v_unfolded_L2", "err_r_L2", "order_u", "order_v"]
        write_csv(path, cols, self.rows)


def sweep(
    cell: UnitCell,
    eps_list,
    micro_cfg: MicroConfig,
    macro_cfg: MacroConfig,
    S,
    K=None,
    stokes=None,
) -> ConvergenceReport:
    """Run the macro problem once, with S, K (darcy flow) and the storage
    factor of ``cell``, and the micro problem per eps on ``cell`` tiled, with
    the Stokes solutions ``stokes`` (reconstructed flow); report the
    two-scale errors with observed orders between consecutive eps.  Before
    any run steps: `check_sweep`, and every run's advective CFL bound.

    No run keeps its snapshots.  The macro run's consumer keeps, per
    snapshot and per eps, only the eps-cell averages the errors read; each
    micro run's consumer adds its snapshot's squared errors, and ``dq_max``
    is the largest L1 step rate the run records.  The rows are those of
    `two_scale_errors` and `difference_quotient_norm` on stored runs, bit
    for bit."""
    check_sweep(eps_list, micro_cfg, macro_cfg)
    if micro_cfg.velocity_mode == "reconstructed":
        # every tiling repeats the cell's face velocities, so the velocity on
        # the eps = 1 tiling checks every eps at its own h
        vel = reconstruct_velocity(tile_domain(cell, 1.0), stokes, micro_cfg.pressure_gradient)
        for eps in eps_list:
            labelled(f"[micro] eps = {eps:g}:", vel.check_cfl, micro_cfg.dt, tile_domain(cell, eps).h)
    levels = {cells_per_edge(eps): [] for eps in eps_list}

    def average(state):
        for N, kept in levels.items():
            kept.append(_macro_level(state, N))

    labelled("[macro]", MacroSolver, macro_cfg, cell, S, K, consumer=average).run()
    rows = [_sweep_row(tile_domain(cell, eps), micro_cfg, stokes, levels[cells_per_edge(eps)]) for eps in eps_list]
    for i, row in enumerate(rows):
        if i == 0:
            row["order_u"] = None
            row["order_v"] = None
        else:
            span = np.log(rows[i - 1]["eps"] / row["eps"])
            row["order_u"] = _order(rows[i - 1]["err_u_L2"], row["err_u_L2"], span)
            row["order_v"] = _order(rows[i - 1]["err_v_unfolded_L2"], row["err_v_unfolded_L2"], span)
    return ConvergenceReport(rows=rows)


def _sweep_row(grid, micro_cfg, stokes, levels) -> dict:
    """The two-scale errors and ``dq_max`` of the micro run on ``grid``
    against the macro snapshots' eps-cell averages ``levels``, folded while
    the run steps; the grid and the run are released on return, before the
    next one is built."""
    law = micro_cfg.rate_law
    errors = []

    def fold(state):
        errors.append(_snapshot_errors(grid, law, state, levels[len(errors)]))

    run = MicroSolver(micro_cfg, grid, stokes, consumer=fold).run()
    row = _space_time_norms(grid.eps, run.times, errors)
    row["dq_max"] = max(run.l1_step_rates)
    return row


def _order(e_prev, e_next, log_span):
    if e_prev <= 0.0 or e_next <= 0.0:
        return None
    return float(np.log(e_prev / e_next) / log_span)
