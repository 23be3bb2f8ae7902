"""Independent reference computations used as test oracles, and the
helpers only tests call.

The oracles are deliberately written from scratch (no imports from the
package under test) so that an agreement between oracle and implementation
is evidence, not tautology.  The cell-problem oracles read only the cell
and the face classification of the operators they check, and assemble
the sparse matrices that the package applies as stencils and two-point
differences.  The helpers at the end (the ramp-regularized
precipitate ODE, the field-file reader, the stability gap of two macro
runs) only read what the package returns; `field_text` there writes the
field file format with one template for every value, the byte oracle of
`porechem.gridio.write_field`, `out_of_place_ring_solve` is the ring
solve of `porechem.linalg.CapacitanceSolver` into a new array, the bit
oracle of the solve that overwrites its argument, `upwind_advection`
pads the field and splits the velocity on every step, the bit oracle of
the transport step's advection, which sets both up once per run, and
`cell_outflow` gives the per-cell outflow that the advective CFL number
reads.  `stored_run_files`
writes, from a run that kept its snapshots, the files the `micro` and
`macro` subcommands write while their runs step, and `assert_same_run`
compares a run that handed its snapshots to a consumer with one that kept
them, bit for bit.
"""

from dataclasses import astuple, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_solve

from porechem.errors import ConfigError


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


def _face_numbering(mask):
    idx = -np.ones(mask.shape, dtype=np.intp)
    idx[mask] = np.arange(np.count_nonzero(mask))
    return idx


def _component_laplacian(active, interior, tangential_axis):
    """Vector-Laplacian block for one velocity component.

    Neighbour handling: active -> regular 5-point coupling; wall node
    (exactly on the grain boundary) -> homogeneous Dirichlet; interior
    node across a tangential wall -> mirror ghost (+1 on the diagonal),
    which places the zero velocity on the wall itself.
    """
    idx = _face_numbering(active)
    m = int(active.sum())
    rows, cols = [np.arange(m)], [np.arange(m)]
    diag = np.full(m, 4.0)
    for axis in (0, 1):
        for step in (1, -1):
            both = active & np.roll(active, -step, axis=axis)
            rows.append(idx[both])
            cols.append(np.roll(idx, -step, axis=axis)[both])
            if axis == tangential_axis:  # ghost = -center
                diag[idx[active & np.roll(interior, -step, axis=axis)]] += 1.0
    vals = np.concatenate([diag, -np.ones(sum(r.size for r in rows[1:]))])
    return sp.csr_matrix((vals, (np.concatenate(rows), np.concatenate(cols))), shape=(m, m))


def fluid_adjacency(cell):
    """The corrector matrix: the periodic 5-point graph Laplacian over the
    fluid cells, unit face weights, assembled in CSR."""
    fluid, idx = cell.fluid, _face_numbering(cell.fluid)
    m = int(fluid.sum())
    both = [fluid & np.roll(fluid, -1, axis=ax) for ax in (0, 1)]
    a = np.concatenate([idx[both[ax]] for ax in (0, 1)])
    b = np.concatenate([np.roll(idx, -1, axis=ax)[both[ax]] for ax in (0, 1)])
    W = sp.csr_matrix((np.ones(a.size), (a, b)), shape=(m, m))
    W = W + W.T
    return (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()


def mac_velocity_laplacian(ops):
    """The velocity Laplacian ``diag(A_u, A_v)`` of MAC operators, assembled
    in CSR from their face classification."""
    return sp.block_diag(
        [_component_laplacian(ops.u_active, ops.u_interior, 1), _component_laplacian(ops.v_active, ops.v_interior, 0)],
        format="csr",
    )


def mac_pressure_gradient(ops):
    """The pressure gradient G of MAC operators, assembled from COO:
    u rows h * (p(i,j) - p(i-1,j)), then v rows h * (p(i,j) - p(i,j-1))."""
    h = ops.cell.h
    ip = _face_numbering(ops.cell.fluid)
    iu, iv = _face_numbering(ops.u_active), _face_numbering(ops.v_active)
    nu, nv = int(ops.u_active.sum()), int(ops.v_active.sum())
    rows, cols, vals = [], [], []
    for axis, act, r in ((0, ops.u_active, iu), (1, ops.v_active, nu + iv)):
        rows += [r[act], r[act]]
        cols += [ip[act], np.roll(ip, 1, axis=axis)[act]]
        vals += [np.full(r[act].size, h), np.full(r[act].size, -h)]
    shape = (nu + nv, int(ops.cell.fluid.sum()))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape)


def eps_cell_of(grid, ix, iy):
    """eps-cell index (kx, ky) and local cell index of global cell (ix, iy)."""
    n = grid.cell.n
    return (ix // n, iy // n), (ix % n, iy % n)


# -- helpers only tests call -------------------------------------------------

def regularized_heaviside(delta: float, v):
    """Ramp regularization: 0 for v <= 0, v/delta on (0, delta), 1 beyond."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    out = np.clip(np.asarray(v, dtype=float) / delta, 0.0, 1.0)
    return out if out.ndim else float(out)


def regularized_step(law, delta: float, u, v, dt: float):
    """Advance dv/dt = k*(r - clip(v/delta, 0, 1)) exactly by dt with u
    frozen; returns ``v_new``.

    This is the ramp-regularized precipitate ODE, kept for the delta -> 0
    limit of `regularized_steady_w`.  Piecewise: above the ramp the ODE is
    linear; inside the ramp it is an affine exponential relaxing toward
    delta*r.  At most one region change happens per step for each starting
    side, handled by event times.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    r = np.atleast_1d(law.rate(u)).astype(float)
    v0 = np.atleast_1d(np.asarray(v, dtype=float)).copy()
    r, v0 = np.broadcast_arrays(r, v0)
    v0 = v0.copy()
    out = np.empty_like(v0)
    k = law.k

    above = v0 >= delta
    # region v >= delta: dv/dt = k (r - 1)
    if np.any(above):
        rr, vv = r[above], v0[above]
        lin = vv + dt * k * (rr - 1.0)
        # time to reach the ramp; never when r >= 1 (no division there)
        tau = np.divide(vv - delta, k * (1.0 - rr), out=np.full_like(vv, np.inf), where=rr < 1.0)
        res = np.where(tau >= dt, lin, np.nan)
        drop = tau < dt  # enters the ramp, finish there
        if np.any(drop):
            res[drop] = _ramp_advance(k, delta, rr[drop], np.full(np.count_nonzero(drop), delta), dt - tau[drop])
        out[above] = res
    # region v < delta: exponential toward delta*r, may exit through the top
    below = ~above
    if np.any(below):
        rr, vv = r[below], v0[below]
        res = _ramp_advance(k, delta, rr, vv, dt)
        esc = rr > 1.0  # attractor above the ramp: crossing time to v = delta
        if np.any(esc):
            num = delta * (rr[esc] - 1.0)
            den = delta * rr[esc] - vv[esc]
            tcross = -(delta / k) * np.log(num / den)
            crossed = tcross < dt
            if np.any(crossed):
                idx = np.flatnonzero(esc)[crossed]
                res[idx] = delta + (dt - tcross[crossed]) * k * (rr[idx] - 1.0)
        out[below] = res
    return out if np.asarray(v).ndim else float(out[0])


def _ramp_advance(k, delta, r, v, t):
    """Closed form inside the ramp: v(t) = delta*r + (v - delta*r) * exp(-k t/delta)."""
    return delta * r + (v - delta * r) * np.exp(-k * np.asarray(t) / delta)


def regularized_steady_w(law, delta: float, u):
    """Steady dissolution rate of the regularized ODE started at v = 0.

    Integrates the regularized precipitate ODE long enough for transients to
    die (40 ramp time constants), then evaluates the ramp.  As delta -> 0
    this reproduces min(r(u), 1), the exact resolver's value at v = 0.
    """
    v = np.zeros_like(np.asarray(u, dtype=float))
    dt = 10.0 * delta / law.k
    for _ in range(4):
        v = regularized_step(law, delta, u, v, dt)
    out = regularized_heaviside(delta, v)
    return out if np.asarray(u).ndim else float(out)


def read_field(path):
    """Read a field file; returns (values, h, mask) with mask False on nan."""
    with open(path) as f:
        nx, ny = (int(t) for t in f.readline().split())
        h = float(f.readline())
        vals = np.empty((nx, ny))
        for iy in range(ny):
            row = f.readline().split()
            vals[:, iy] = [float(t) for t in row]
    mask = ~np.isnan(vals)
    return vals, h, mask


def field_text(values, h, mask=None) -> str:
    """A field file as text: the header, then ``%.17g`` of every value in
    one template, rows of x at increasing iy; cells where mask is False are
    nan."""
    nx, ny = values.shape
    out = np.asarray(values, dtype=float)
    if mask is not None:
        out = np.where(mask, out, np.nan)
    row = " ".join(["%.17g"] * nx) + "\n"
    return f"{nx} {ny}\n{h!r}\n" + (row * ny) % tuple(out.T.ravel().tolist())


def out_of_place_ring_solve(ring, b):
    """The solution of a `porechem.linalg.CapacitanceSolver` ring system for
    right-hand sides b of shape (n, n) or (k, n, n), in a new array: the
    solver's solve as it was before it overwrote its argument, reading the
    ring's sources, conditions, symbol and factored capacitance matrix."""
    def lplus(B):
        return np.fft.irfft2(np.fft.rfft2(B) * ring.inverse_symbol, s=B.shape[-2:])

    B = b.reshape((-1,) + ring.domain.shape).copy()
    nodes, weights = ring.conditions
    rhs = -(lplus(B).reshape(len(B), -1)[:, nodes] * weights).sum(axis=-1)
    if not ring.cut:
        rhs = np.column_stack([rhs, -B.sum(axis=(1, 2))])
    lam = lu_solve(ring.capacitance, rhs.T, check_finite=False).T
    nodes, weights = ring.sources
    for B_k, lam_k in zip(B, lam):
        B_k += np.bincount(nodes.ravel(), (weights * lam_k[: len(nodes), None]).ravel(), B_k.size).reshape(B_k.shape)
    X = lplus(B)
    if not ring.cut:
        X += lam[:, -1:, None]
    X[:, ~ring.domain] = 0.0
    return X.reshape(b.shape)


def cell_outflow(qx, qy):
    """The total outflow of each cell under the face velocity ``(qx, qy)``:
    on each of its four faces, the positive part of the velocity along the
    cell's outward normal, summed.  An explicit upwind step of dt on a grid
    of spacing h leaves the weight ``1 - dt/h * outflow`` on a cell's own
    value."""
    outward = (qx[1:, :], -qx[:-1, :], qy[:, 1:], -qy[:, :-1])  # right, left, top, bottom
    return sum(np.maximum(q, 0.0) for q in outward)


def upwind_advection(u, qx, qy, mask, h, dt, dirichlet_edges, dirichlet_value):
    """One explicit first-order upwind step of the cell field ``u`` under
    the face velocity ``(qx, qy)``: returns ``(u_new, inflow)``, u_new zero
    off ``mask`` and inflow the dt-integrated advective inflow through the
    outer boundary.  Outside each edge ``u`` is padded with ghost cells
    that hold ``dirichlet_value`` on the Dirichlet edges and 0 elsewhere,
    and each face takes the upwind cell's value."""
    ghosts = {"left": (0, np.s_[0, :]), "right": (0, np.s_[-1, :]), "bottom": (1, np.s_[:, 0]), "top": (1, np.s_[:, -1])}
    ux, uy = (np.pad(u, [(1, 1) if ax == axis else (0, 0) for ax in (0, 1)]) for axis in (0, 1))
    for e in dirichlet_edges:
        axis, cells = ghosts[e]
        (ux, uy)[axis][cells] = dirichlet_value
    Fx = np.maximum(qx, 0.0) * ux[:-1, :] + np.minimum(qx, 0.0) * ux[1:, :]
    Fy = np.maximum(qy, 0.0) * uy[:, :-1] + np.minimum(qy, 0.0) * uy[:, 1:]
    div = (Fx[1:, :] - Fx[:-1, :]) + (Fy[:, 1:] - Fy[:, :-1])
    u_new = u - (dt / h) * div
    u_new[~mask] = 0.0
    inflow = float(Fx[0, :].sum() - Fx[-1, :].sum() + Fy[:, 0].sum() - Fy[:, -1].sum()) * h * dt
    return u_new, inflow


def csv_text(columns, rows) -> str:
    """A CSV file as text: ints and strings as written, other numbers in
    ``%.17g``."""
    def cell(c):
        return str(c) if isinstance(c, (str, int)) else format(float(c), ".17g")

    return "".join(",".join(map(cell, row)) + "\n" for row in [columns, *rows])


SERIES_COLUMNS = ["t", "mass_u", "mass_v", "min_u", "max_u", "min_v", "max_v", "l1_step_rate"]


def stored_run_files(run, h, weight, grid=None) -> dict:
    """Name -> text of the files `porechem micro` (a pore-scale run on
    ``grid``) or `porechem macro` (``grid`` None, cells of side h) writes
    for ``run``, computed after the run from its stored snapshots: each
    snapshot's fields, and the series rows with the L1 step rate between
    consecutive snapshots over their time gap, on either scale
    ``sum |du| h^2`` over the active cells plus ``weight * sum |dv|``, with
    ``weight`` the solver's coupling weight."""
    states, files = run.states, {}
    for i, s in enumerate(states):
        if grid is None:
            files[f"macro_u_{i:05d}.txt"] = field_text(s.u, h)
            files[f"macro_v_{i:05d}.txt"] = field_text(s.v, h)
            continue
        f = grid.faces
        files[f"u_{i:05d}.txt"] = field_text(s.u, h, grid.fluid_mask)
        files[f"faces_{i:05d}.csv"] = csv_text(
            ["face", "kx", "ky", "local", "center_x", "center_y", "v", "w"],
            [(j, int(f.kx[j]), int(f.ky[j]), int(f.local[j]), *f.centers[j], s.v[j], s.w[j]) for j in range(f.count)])
    rates = [0.0]
    active = np.ones(states[0].u.shape, dtype=bool) if grid is None else grid.fluid_mask
    for a, b in zip(states, states[1:]):
        dist = float(np.abs(b.u[active] - a.u[active]).sum() * h * h) + float(weight * np.abs(b.v - a.v).sum())
        rates.append(dist / (b.t - a.t))
    rows = [[getattr(run.mass[k], c) for c in SERIES_COLUMNS[:-1]] + [rate]
            for k, rate in zip(run.cfg.snapshot_steps, rates)]
    files["macro_series.csv" if grid is None else "micro_series.csv"] = csv_text(SERIES_COLUMNS, rows)
    return files


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def assert_same_run(streamed, taken, stored):
    """``streamed``, whose consumer was handed the snapshots ``taken``, is
    ``stored``, a run that kept them: the same snapshots, times and mass
    rows, bit for bit, and no snapshot kept in the run itself."""
    assert streamed.states == [] and len(taken) == len(stored.states) > 1
    for a, b in zip(taken, stored.states):
        for name in ("t", "u", "v", "w"):
            assert np.array_equal(_bits(getattr(a, name)), _bits(getattr(b, name))), name
    assert np.array_equal(_bits(streamed.times), _bits(stored.times))
    assert np.array_equal(_bits([astuple(r) for r in streamed.mass]), _bits([astuple(r) for r in stored.mass]))


@dataclass
class StabilityGap:
    times: np.ndarray
    norm_u: np.ndarray
    norm_v: np.ndarray
    lam: float        # fitted exponential envelope exponent for ||U||
    c_env: float      # smallest C with ||U(t)|| <= C exp(lam t)


def stability_gap(run1, run2) -> StabilityGap:
    """L2 gap between two macro runs differing only in initial data, with the
    fitted exponential envelope of the solute gap.  The runs do not carry
    their coefficients, so the caller makes them the same."""
    c1, c2 = run1.cfg, run2.cfg
    if c1.dt != c2.dt or c1.snapshot_steps != c2.snapshot_steps or c1.resolution_cells != c2.resolution_cells:
        raise ConfigError("stability gap requires matching configurations and output times")
    h2 = (1.0 / c1.resolution_cells) ** 2
    nu, nv = [], []
    for s1, s2 in zip(run1.states, run2.states):
        nu.append(np.sqrt(np.sum((s1.u - s2.u) ** 2) * h2))
        nv.append(np.sqrt(np.sum((s1.v - s2.v) ** 2) * h2))
    nu = np.asarray(nu)
    nv = np.asarray(nv)
    times = run1.times
    # fit the envelope exponent on the late half of the window, where the
    # slowest mode dominates and the exponent is a property of the operator
    # rather than of the perturbation's transient content
    late = (times >= 0.5 * times[-1]) & (nu > 0.0)
    if np.count_nonzero(late) >= 2:
        lam = float(np.polyfit(times[late], np.log(nu[late]), 1)[0])
        pos = nu > 0.0
        c_env = float(np.max(nu[pos] * np.exp(-lam * times[pos])))
    else:
        lam, c_env = 0.0, float(nu.max(initial=0.0))
    return StabilityGap(times=times, norm_u=nu, norm_v=nv, lam=lam, c_env=c_env)
