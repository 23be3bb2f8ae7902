"""Tour of the perforated geometry and the dissolution kinetics.

Builds a unit cell with a square grain, tiles it at a few scale parameters,
and walks through the branch structure of the precipitation/dissolution
rate, including the event where the precipitate runs out mid-step.

Run:  python3 demos/01_geometry_and_kinetics.py
"""

from porechem import RateLaw, UnitCell, dissolution_rate, ode_step, tile_domain

# --- geometry ---------------------------------------------------------------

cell = UnitCell(8, 0.5, (0.5, 0.5))
print(f"unit cell: pore area |Y| = {cell.pore_area}, grain perimeter = {cell.surface_measure}")
print(f"grain faces on the reference cell: {cell.n_grain_faces}")

for eps in (0.5, 0.25, 0.125):
    grid = tile_domain(cell, eps)
    print(
        f"eps = {eps}: {grid.cells_per_edge ** 2} grains, "
        f"fluid volume {grid.n_fluid_cells * grid.h**2:.4f} (eps-independent), "
        f"grain surface {grid.faces.count * grid.h:.4f} (grows like 1/eps)"
    )

# the eps-weighted surface is scale-free; this identity is what makes the
# precipitate storage capacity independent of the scale parameter
grid = tile_domain(cell, 0.125)
print(f"eps * |Gamma^eps| = {grid.eps * grid.faces.count * grid.h}  (= |Gamma|)")

# --- kinetics ---------------------------------------------------------------

law = RateLaw()  # r(u) = u^2 below/above onset 0, r(1) = 1 at the solubility
print("\nrate law: r(0.5) =", law.rate(0.5), " r(1.0) =", law.rate(1.0))

print("\ndissolution rate branches:")
for u, v in ((0.5, 0.0), (2.0, 0.0), (0.1, 0.3), (5.0, -0.1)):
    print(f"  w(u={u}, v={v}) = {dissolution_rate(law, u, v)}")

# event-aware precipitate update: starting from v = 0.01 with no solute the
# layer dissolves at unit rate and empties at tau = 0.01, halfway through a
# dt = 0.02 step; the averaged rate bookkeeping stays exact
v_new, w_eff = ode_step(law, u=0.0, v=0.01, dt=0.02)
print(f"\nevent step: v 0.01 -> {v_new}, time-averaged w = {w_eff} (exact: 0.5)")

# oversaturated growth: r(2) = 4 capped against w = 1 gives net rate 3
v_new, w_eff = ode_step(law, u=2.0, v=0.0, dt=0.1)
print(f"growth step: v 0 -> {v_new} with w_eff = {w_eff}")

# equilibrium at the solubility product: nothing moves, for any v >= 0
v_new, w_eff = ode_step(law, u=1.0, v=0.7, dt=5.0)
print(f"equilibrium step: v 0.7 -> {v_new} (w = {w_eff})")
