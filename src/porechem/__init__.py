"""Pore-scale precipitation/dissolution with periodic upscaling.

Layers, bottom to top:

* :mod:`porechem.geometry` -- perforated unit cell and eps-tiled grids;
* :mod:`porechem.kinetics` -- precipitation rate and the multivalued
  dissolution rate with an event-exact precipitate ODE;
* :mod:`porechem.cell_problems` -- periodic corrector and Stokes cell
  problems, effective diffusion S and permeability K;
* :mod:`porechem.transport` -- the transport core both scales share:
  config checks, state, upwind advection, the implicit step, invariant
  checks, mass report and run loop;
* :mod:`porechem.micro_sim` / :mod:`porechem.macro_sim` -- the core on the
  perforated grid (fluid cells, grain faces) and on the upscaled grid (all
  cells, diagonal S and K);
* :mod:`porechem.homogenize` -- extension/unfolding operators, oscillation
  quadrature, two-scale error norms, and the eps-sweep harness;
* :mod:`porechem.config` / :mod:`porechem.cli` -- run configuration and the
  command-line entry points.
"""

from .geometry import UnitCell, PerforatedGrid, tile_domain
from .kinetics import (
    RateLaw,
    dissolution_rate,
    ode_step,
)
from .cell_problems import (
    EffectiveTensors,
    solve_diffusion_cell,
    solve_stokes_cell,
    assemble_S,
    assemble_K,
    effective_tensors,
)

__version__ = "0.1.0"

__all__ = [
    "UnitCell",
    "PerforatedGrid",
    "tile_domain",
    "RateLaw",
    "dissolution_rate",
    "ode_step",
    "EffectiveTensors",
    "solve_diffusion_cell",
    "solve_stokes_cell",
    "assemble_S",
    "assemble_K",
    "effective_tensors",
    "__version__",
]
