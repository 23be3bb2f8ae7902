"""Upscaled transport on the unit square with effective coefficients.

The solute/precipitate pair satisfies the storage-coupled system

    d/dt ( u + (|Gamma|/|Y|) v ) = div( S grad u - q u ),
    dv/dt = k (r(u) - w),    w in H(v),

with the same kinetics resolver as the pore-scale solver.  Every coefficient
belongs to the unit cell, and ``MacroSolver`` takes it from there: S from the
corrector cell problems, the Darcy velocity q = -K grad P from the
permeability ones, and |Gamma|/|Y| from the grain.  The step, the run loop
and the checks are the shared transport core (:mod:`porechem.transport`),
with every cell of the m x m grid active, the axis weights (S11, S22), and
each cell its own reaction carrier with the coupled-storage weight c_g h^2,
so closed-box runs conserve  sum (u + c_g v) h^2  to solver tolerance.

S and K must be diagonal.  The supported geometry, one grid-aligned square
grain, gives S = s I and K = kappa I by symmetry, so the cell problems
return off-diagonals at round-off only.  With a diagonal S the 5-point
scheme is monotone, which the box bounds rest on; a full tensor needs a
stencil with positive off-diagonal couplings, which is not monotone.  With
a diagonal K the pressure is linear in x and the Darcy velocity uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._implicit import newton_reaction_diffusion
from .cell_problems import SPD_TOL
from .errors import ConfigError
from .geometry import UnitCell
from .kinetics import ode_step
from .transport import FaceVelocity, MassRow, Run, State, TransportConfig, TransportSolver


def diagonal_tensor(name: str, T) -> np.ndarray:
    """``T`` as a float 2x2 array, checked finite, diagonal and positive definite."""
    T = np.asarray(T, dtype=float)
    if T.shape != (2, 2):
        raise ConfigError(f"{name} must be a 2x2 tensor")
    if not (np.all(np.isfinite(T)) and T[0, 0] > 0.0 and T[1, 1] > 0.0):
        raise ConfigError(f"{name} must be finite and positive definite")
    # off-diagonals within the symmetry certificates' relative tolerance are round-off
    off = float(np.max(np.abs([T[0, 1], T[1, 0]])))
    if not off <= SPD_TOL * np.max(np.abs(T)):
        raise ConfigError(
            f"{name} must be diagonal: off-diagonal {off:.3g} exceeds {SPD_TOL:g} * max|{name}|. "
            "A grid-aligned square grain gives a diagonal tensor by symmetry, and the 5-point "
            "scheme keeps the solute in its bounds only for diagonal tensors"
        )
    return T


@dataclass(frozen=True, kw_only=True)
class MacroConfig(TransportConfig):
    velocity_modes: ClassVar[tuple] = ("zero", "darcy")

    resolution_cells: int = 64
    p_left: float = 1.0
    p_right: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.resolution_cells < 1:
            raise ConfigError(f"macro resolution must be at least 1, got {self.resolution_cells}")


def darcy_solve(K, m, p_left=1.0, p_right=0.0):
    """Pressure and face velocities of  div(K grad P) = 0  on the unit square
    (m x m cells), with Dirichlet pressure on the left and right edges and
    no flow through the top and bottom.

    K is diagonal, so the solution is closed-form: P is linear in x and
    q = -K grad P is ``K11 * (p_left - p_right)`` on every vertical face and
    zero on the horizontal ones.  Returns ``(qx, qy, P)`` with qx of shape
    (m+1, m), qy of shape (m, m+1) and P at the cell centres.
    """
    K = diagonal_tensor("K", K)
    xs = (np.arange(m) + 0.5) / m
    P = np.repeat((p_left + (p_right - p_left) * xs)[:, None], m, axis=1)
    qx = np.full((m + 1, m), K[0, 0] * (p_left - p_right))
    qy = np.zeros((m, m + 1))
    return qx, qy, P


class MacroSolver(TransportSolver):
    """The transport core on the all-fluid m x m grid of the unit square, with
    the coefficients S (D included), K (darcy mode) and |Gamma|/|Y| of
    ``cell``; ``consumer``, when given, takes each stored snapshot in place
    of ``Run.states`` (`TransportSolver._run`)."""

    def __init__(self, cfg: MacroConfig, cell: UnitCell, S, K=None, *, consumer=None):
        S = diagonal_tensor("S", S)
        if K is not None:
            K = diagonal_tensor("K", K)
        m = cfg.resolution_cells
        h = 1.0 / m
        vel = self.P = None
        if cfg.velocity_mode == "darcy":
            if K is None:
                raise ConfigError("darcy velocity mode needs the permeability tensor K")
            qx, qy, self.P = darcy_solve(K, m, cfg.p_left, cfg.p_right)
            vel = FaceVelocity(qx=qx, qy=qy)
        xs = (np.arange(m) + 0.5) * h
        super().__init__(
            cfg, np.ones((m, m), dtype=bool), h, (S[0, 0], S[1, 1]),
            owners=np.arange(m * m),
            weight=cell.surface_measure / cell.pore_area * h * h,
            carriers=np.meshgrid(xs, xs, indexing="ij"),
            velocity=vel, consumer=consumer,
        )
        self.m = m

    def step(self, state: State) -> tuple[State, MassRow]:
        return self._step(state, newton_reaction_diffusion, ode_step)

    def run(self) -> Run:
        return self._run()
