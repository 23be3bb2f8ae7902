"""Pore-scale transport: solute in the fluid cells, precipitate on the
grain faces, coupled through the scaled boundary flux.

The step, the run loop and the checks are the shared transport core
(:mod:`porechem.transport`).  This module supplies the pore-scale
geometry: the fluid cells of the perforated grid as the active cells,
diffusivity D on both axes, the grain faces as reaction carriers with the
exchange flux ``eps * k * (r(u) - w)`` (coupling weight eps*h), and the
face velocity, zero or reconstructed from the Stokes cell solutions.  The
discrete mass identity reads  d[sum u h^2 + eps sum v h] = boundary fluxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._implicit import newton_reaction_diffusion
from .errors import ConfigError
from .geometry import PerforatedGrid
from .kinetics import ode_step
from .transport import FaceVelocity, MassRow, Run, State, TransportConfig, TransportSolver


@dataclass(frozen=True, kw_only=True)
class MicroConfig(TransportConfig):
    velocity_modes: ClassVar[tuple] = ("zero", "reconstructed")

    D: float = 1.0
    pressure_gradient: tuple = (-1.0, 0.0)

    def __post_init__(self):
        super().__post_init__()
        if not self.D > 0.0:
            raise ConfigError(f"diffusivity must be positive, got {self.D}")


def reconstruct_velocity(grid: PerforatedGrid, stokes, G) -> FaceVelocity:
    """Periodic sample of the Stokes cell velocities,  q(x) = sum_j chi^j(x/eps) (-G_j).

    The sample lands exactly on the global staggered faces (h = eps/n), so
    no-slip on the grain and the discrete divergence are inherited from the
    cell solutions.
    """
    if stokes is None:
        raise ConfigError("reconstructed velocity mode needs Stokes cell solutions")
    cell = grid.cell
    for s in stokes:
        if s.cell != cell:
            raise ConfigError("stokes solutions were computed on a different unit cell")
    n, ng = cell.n, grid.n_global
    edges = np.arange(ng + 1) % n   # unit-cell index of each face line
    cells = np.arange(ng) % n
    qx = np.zeros((ng + 1, ng))
    qy = np.zeros((ng, ng + 1))
    for j_dir, s in enumerate(stokes):
        coef = -G[j_dir]
        if coef == 0.0:
            continue
        qx += coef * s.u[np.ix_(edges, cells)]
        qy += coef * s.v[np.ix_(cells, edges)]
    return FaceVelocity(qx=qx, qy=qy)


class MicroSolver(TransportSolver):
    """The transport core on the fluid cells of one perforated grid;
    ``consumer``, when given, takes each stored snapshot in place of
    ``Run.states`` (`TransportSolver._run`)."""

    def __init__(self, cfg: MicroConfig, grid: PerforatedGrid, stokes=None, *, consumer=None):
        vel = reconstruct_velocity(grid, stokes, cfg.pressure_gradient) if cfg.velocity_mode == "reconstructed" else None
        f = grid.faces
        super().__init__(
            cfg, grid.fluid_mask, grid.h, (cfg.D, cfg.D),
            owners=grid.fluid_index[f.owner_ix, f.owner_iy],
            weight=grid.eps * grid.h,
            carriers=(f.centers[:, 0], f.centers[:, 1]),
            velocity=vel, grid=grid, consumer=consumer,
        )
        self.m = grid.n_fluid_cells

    def step(self, state: State) -> tuple[State, MassRow]:
        return self._step(state, newton_reaction_diffusion, ode_step)

    def run(self) -> Run:
        return self._run()


def l1_distance(a: State, b: State, grid: PerforatedGrid) -> float:
    """Discrete contraction functional:
    sum |u_a - u_b| h^2 over fluid cells + eps * sum |v_a - v_b| h."""
    if a.u.shape != b.u.shape or a.v.shape != b.v.shape:
        raise ValueError("states live on different grids")
    fluid = grid.fluid_mask
    h = grid.h
    du = float(np.abs(a.u[fluid] - b.u[fluid]).sum() * h * h)
    dv = float(grid.eps * h * np.abs(a.v - b.v).sum())
    return du + dv


def l1_step_rate(a: State, b: State, grid: PerforatedGrid) -> float:
    """The ``l1_distance`` from snapshot ``a`` to the later ``b`` over their
    time gap."""
    return l1_distance(b, a, grid) / (b.t - a.t)


def difference_quotient_norm(run: Run) -> np.ndarray:
    """L1 step rate of a pore-scale run at each snapshot: 0 at t = 0, then
    `l1_step_rate` from the snapshot before, over their actual time gap
    (the last gap is shorter when ``output_every`` does not divide the step
    count).  By L1 contraction it does not grow between gaps of one length.
    A run whose snapshots went to a consumer folds the same rates with
    ``StepRates(partial(l1_step_rate, grid=grid))``."""
    out = np.zeros(len(run.times))
    for i in range(1, len(out)):
        out[i] = l1_step_rate(run.states[i - 1], run.states[i], run.grid)
    return out
