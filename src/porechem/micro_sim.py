"""Pore-scale transport: solute in the fluid cells, precipitate on the
grain faces, coupled through the scaled boundary flux.

The step, the run loop, the checks and the L1 contraction functional are
the shared transport core (:mod:`porechem.transport`).  This module
supplies the pore-scale geometry: the fluid cells of the perforated grid
as the active cells, diffusivity D on both axes, the grain faces as
reaction carriers with the exchange flux ``eps * k * (r(u) - w)``
(coupling weight eps*h), and the face velocity, zero or reconstructed
from the Stokes cell solutions.  The
discrete mass identity reads  d[sum u h^2 + eps sum v h] = boundary fluxes,
and the contraction functional  sum |du| h^2 + eps sum |dv| h  carries the
same weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._implicit import newton_reaction_diffusion
from .errors import ConfigError
from .geometry import PerforatedGrid
from .kinetics import ode_step
from .transport import FaceVelocity, MassRow, Run, State, TransportConfig, TransportSolver, l1_distance


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


def difference_quotient_norm(run: Run) -> np.ndarray:
    """`Run.l1_step_rates` of a pore-scale run recomputed from its stored
    snapshots: 0 at t = 0, then `transport.l1_distance` from the snapshot
    before over their actual time gap.  By L1 contraction it does not grow
    between gaps of one length."""
    grid, states = run.grid, run.states
    return np.array([0.0, *(l1_distance(b, a, grid.fluid_mask, grid.h, grid.eps * grid.h) / (b.t - a.t)
                            for a, b in zip(states, states[1:]))])
