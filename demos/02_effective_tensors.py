"""Effective diffusion and permeability from the periodic cell problems.

Solves the scalar corrector problems and the Stokes problems on the unit
cell for a few grain sizes, assembles S and K, and shows the refinement
behaviour and the certificates (quadratic form, gradient inner product).

Run:  python3 demos/02_effective_tensors.py
"""

import numpy as np

from porechem import UnitCell, solve_diffusion_cell, assemble_S
from porechem.cell_problems import assemble_K, solve_stokes_cell, velocity_mean

# --- grain size sweep --------------------------------------------------------

print("grain size -> effective tensors (n = 32):")
for a in (0.25, 0.5, 0.75):
    cell = UnitCell(32, a, (0.5, 0.5))
    fields = solve_diffusion_cell(cell)
    S, s_info = assemble_S(cell, fields, D=1.0)
    sols = solve_stokes_cell(cell)
    K, k_info = assemble_K(cell, sols)
    print(
        f"  a = {a}: s = {S[0, 0]:.5f} (quad check {s_info['quad_err']:.1e}), "
        f"kappa = {K[0, 0]:.6f} (grad check {k_info['grad_err']:.1e})"
    )
print("larger grains block both diffusion and flow; K reacts much harder.\n")

# --- mesh refinement ---------------------------------------------------------

print("refinement of s11 on the a = 0.5 cell:")
vals = {}
for n in (32, 64, 128):
    cell = UnitCell(n, 0.5, (0.5, 0.5))
    fields = solve_diffusion_cell(cell)
    S, _ = assemble_S(cell, fields)
    vals[n] = S[0, 0]
    print(f"  n = {n}: s11 = {S[0, 0]:.8f}")
order = np.log2(abs(vals[64] - vals[32]) / abs(vals[128] - vals[64]))
print(f"observed refinement order: {order:.2f} (grain corners cap it below 2)\n")

# --- structure of the Stokes cell solution -----------------------------------

cell = UnitCell(32, 0.5, (0.5, 0.5))
sol = solve_stokes_cell(cell)[0]
print(f"Stokes solve: max |div| = {sol.div_inf:.2e}, momentum residual = {sol.momentum_res:.2e}")
mean = velocity_mean(sol)
print(f"pore-average velocity for unit x-forcing: {mean}  (first entry is kappa)")
