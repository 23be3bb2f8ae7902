"""Independent reference computations used as test oracles.

Everything here is deliberately written from scratch (no imports from the
package under test) so that an agreement between oracle and implementation
is evidence, not tautology.
"""

import numpy as np


def power_rate(u, u_onset=0.0, u_sol=1.0, p=2.0):
    """The default precipitation law, reimplemented independently."""
    s = max(u - u_onset, 0.0) / (u_sol - u_onset)
    return s**p


def heaviside_selection(r_of_u, v):
    """Branch table of the dissolution rate."""
    if v < 0.0:
        return 0.0
    if v == 0.0:
        return min(r_of_u, 1.0)
    return 1.0


def precipitate_decay_exact(u, v0, t, k=1.0, u_onset=0.0, u_sol=1.0, p=2.0):
    """Closed-form precipitate trajectory with the solute frozen.

    While v > 0 the rate is k (r - 1); if r < 1 the precipitate hits zero at
    tau = v0 / (k (1 - r)) and stays there (w snaps to min(r, 1)).
    """
    r = power_rate(u, u_onset, u_sol, p)
    if r >= 1.0:
        return v0 + k * (r - 1.0) * t
    tau = v0 / (k * (1.0 - r))
    return v0 + k * (r - 1.0) * t if t < tau else 0.0


def lumped_trajectory(c_g, u0, v0, t_end, n_sub=200_000, k=1.0, u_onset=0.0, u_sol=1.0, p=2.0):
    """Well-mixed two-compartment dynamics,

        du/dt = c_g * k * (w - r(u)),   dv/dt = k * (r(u) - w),

    integrated with small explicit steps and the branch table resolved
    pointwise (v clipped at zero within a step).  Returns a callable t ->
    (u, v) by linear interpolation of a dense table.
    """
    ts = np.linspace(0.0, t_end, n_sub + 1)
    dt = ts[1] - ts[0]
    us = np.empty(n_sub + 1)
    vs = np.empty(n_sub + 1)
    u, v = float(u0), float(v0)
    us[0], vs[0] = u, v
    for i in range(1, n_sub + 1):
        r = power_rate(u, u_onset, u_sol, p)
        w = heaviside_selection(r, v)
        dv = k * (r - w) * dt
        if v + dv < 0.0:
            dv = -v
        v += dv
        u -= c_g * dv
        us[i], vs[i] = u, v

    def at(t):
        return np.interp(t, ts, us), np.interp(t, ts, vs)

    return at


def ramp_ode_euler(r, v0, dt_total, delta, k=1.0, n_sub=400_000):
    """Brute-force explicit Euler for the ramp-regularized precipitate ODE
    dv/dt = k (r - clip(v/delta, 0, 1))."""
    v = float(v0)
    h = dt_total / n_sub
    for _ in range(n_sub):
        w = min(max(v / delta, 0.0), 1.0)
        v += h * k * (r - w)
    return v


def dirichlet_form(cell, f, g):
    """Discrete energy  sum over fluid-fluid faces of (df)(dg), periodic."""
    fluid = cell.fluid
    total = 0.0
    for axis in (0, 1):
        both = fluid & np.roll(fluid, -1, axis=axis)
        df = np.roll(f, -1, axis=axis) - f
        dg = np.roll(g, -1, axis=axis) - g
        total += float(np.sum(df[both] * dg[both]))
    return total


def eps_cell_of(grid, ix, iy):
    """eps-cell index (kx, ky) and local cell index of global cell (ix, iy)."""
    n = grid.cell.n
    return (ix // n, iy // n), (ix % n, iy % n)
