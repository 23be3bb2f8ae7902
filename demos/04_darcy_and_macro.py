"""Darcy flow from the permeability tensor and the upscaled transport run.

Computes K on the unit cell, solves the pressure problem with a unit drop,
advects/diffuses solute through the domain with the storage-coupled
precipitate, and checks the bookkeeping.

Run:  python3 demos/04_darcy_and_macro.py
"""

import numpy as np

from porechem import UnitCell, solve_diffusion_cell, assemble_S
from porechem.cell_problems import assemble_K, solve_stokes_cell
from porechem.macro_sim import MacroConfig, MacroSolver, darcy_solve

cell = UnitCell(32, 0.5, (0.5, 0.5))
S, _ = assemble_S(cell, solve_diffusion_cell(cell), D=1.0)
K, _ = assemble_K(cell, solve_stokes_cell(cell))
print(f"S = diag({S[0, 0]:.5f}), K = diag({K[0, 0]:.6f})")

qx, qy, P = darcy_solve(K, 32, p_left=1.0, p_right=0.0)
div = 32 * (np.diff(qx, axis=0) + np.diff(qy, axis=1))  # face fluxes out of each cell over h
print(f"Darcy solve: mean q_x = {qx.mean():.6f} (= kappa for the unit drop), "
      f"max |div q| = {np.max(np.abs(div)):.2e}\n")

cfg = MacroConfig(
    dt=0.02, t_end=2.0, output_every=20, velocity_mode="darcy",
    dirichlet_edges=("left", "right"), dirichlet_value=0.6,
    u_init=0.0, v_init=0.02, resolution_cells=32,
)
# S, K and the storage factor |Gamma|/|Y| all come from the cell
result = MacroSolver(cfg, cell, S, K).run()

print("through-flow dissolution/precipitation (u = 0.6 held on both ends):")
print("   t      min u     max u     mean v")
for t, state in zip(result.times, result.states):
    print(f"  {t:4.1f}  {state.u.min():.5f}  {state.u.max():.5f}  {state.v.mean():.6f}")

print("\nsolute invades from the boundary, stays inside the box bounds, and")
print("precipitate grows once the local solute crosses the solubility value")
print("(here it cannot: 0.6 < u_sol = 1, so the initial layer dissolves).")
