"""Pore-scale transport: solute in the fluid cells, precipitate on the
grain faces, coupled through the scaled boundary flux.

The step is operator-split:

1. explicit first-order upwind advection with a divergence-free face
   velocity (zero, or reconstructed from the Stokes cell solutions);
2. backward-Euler diffusion with the grain-face exchange flux
   ``eps * k * (r(u) - w)`` taken semi-implicitly: the face solute at the
   new level, the dissolution rate from the event resolver;
3. the exact per-face precipitate update with the owner-cell solute frozen.

Because steps 2 and 3 use the same event-resolved net rate, the discrete
mass identity  d[sum u h^2 + eps sum v h] = boundary fluxes  holds to the
nonlinear-solver tolerance, and the scheme is monotone, so solute stays in
the box bounds and ordered initial data stay ordered.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._implicit import ImplicitOperator, newton_reaction_diffusion
from .errors import ConfigError, StateError
from .geometry import PerforatedGrid
from .kinetics import EXACT, DissolutionResolution, RateLaw, dissolution_rate, ode_step, regularized_heaviside

logger = logging.getLogger(__name__)

EDGES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class MicroConfig:
    dt: float
    t_end: float
    D: float = 1.0
    rate_law: RateLaw = field(default_factory=RateLaw)
    resolution: DissolutionResolution = EXACT
    u_init: object = 0.0            # constant or f(x, y)
    v_init: object = 0.0
    velocity_mode: str = "zero"     # zero | reconstructed
    pressure_gradient: tuple = (-1.0, 0.0)
    dirichlet_edges: tuple = ("left",)
    dirichlet_value: float = 0.0
    m0: float = 1.0                 # bound on the initial data
    output_every: int = 1
    lin_tol: float = 1e-12
    newton_tol: float = 1e-12
    invariant_slack: float = 1e-8
    check_invariants: bool = True

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end < 0.0:
            raise ConfigError("need dt > 0 and t_end >= 0")
        if self.velocity_mode not in ("zero", "reconstructed"):
            raise ConfigError(f"unknown velocity mode {self.velocity_mode!r}")
        for e in self.dirichlet_edges:
            if e not in EDGES:
                raise ConfigError(f"unknown edge {e!r}; valid edges: {EDGES}")
        law = self.rate_law
        kin = self.dt * law.k * law.lipschitz_bound(self.box_bound)
        if kin > 1.0 + 1e-12:
            raise ConfigError(
                f"dt*k*L_r = {kin:.3g} violates the kinetic bound dt*k*L_r <= 1"
            )

    @property
    def box_bound(self) -> float:
        """Discrete maximum-principle bound on the solute."""
        return max(self.m0, self.rate_law.u_sol, self.dirichlet_value)

    @property
    def n_steps(self) -> int:
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-9 * max(self.t_end, self.dt):
            raise ConfigError(f"t_end = {self.t_end} is not a multiple of dt = {self.dt}")
        return n


@dataclass
class MicroState:
    t: float
    u: np.ndarray   # (ng, ng), zero on solid cells
    v: np.ndarray   # per grain face, >= 0
    w: np.ndarray   # per grain face, in [0, 1]

    def copy(self) -> "MicroState":
        return MicroState(self.t, self.u.copy(), self.v.copy(), self.w.copy())


@dataclass
class MassRow:
    t: float
    mass_u: float
    mass_v: float          # eps-weighted precipitate mass
    flux_adv: float        # advective inflow through the outer boundary, dt-integrated
    flux_diff: float       # diffusive inflow through the outer boundary, dt-integrated
    drift: float           # cumulative conservation defect
    min_u: float
    max_u: float
    min_v: float
    max_v: float


@dataclass
class MicroRun:
    cfg: MicroConfig
    grid: PerforatedGrid
    times: np.ndarray
    states: list
    mass: list

    def state_at(self, t: float) -> MicroState:
        i = int(np.argmin(np.abs(self.times - t)))
        return self.states[i]


@dataclass(frozen=True)
class FaceVelocity:
    qx: np.ndarray   # (ng+1, ng) normal velocity on vertical faces
    qy: np.ndarray   # (ng, ng+1) normal velocity on horizontal faces
    max_abs: float


def reconstruct_velocity(grid: PerforatedGrid, stokes, G) -> FaceVelocity:
    """Periodic sample of the Stokes cell velocities,  q(x) = sum_j chi^j(x/eps) (-G_j).

    The sample lands exactly on the global staggered faces (h = eps/n), so
    no-slip on the grain and the discrete divergence are inherited from the
    cell solutions.
    """
    cell = grid.cell
    for s in stokes:
        if s.cell != cell:
            raise ConfigError("stokes solutions were computed on a different unit cell")
    n, ng = cell.n, grid.n_global
    ui = np.arange(ng + 1) % n
    vj = np.arange(ng + 1) % n
    jj = np.arange(ng) % n
    qx = np.zeros((ng + 1, ng))
    qy = np.zeros((ng, ng + 1))
    for j_dir, s in enumerate(stokes):
        coef = -G[j_dir]
        if coef == 0.0:
            continue
        qx += coef * s.u[np.ix_(ui, jj)]
        qy += coef * s.v[np.ix_(jj, vj)]
    m = max(np.max(np.abs(qx)), np.max(np.abs(qy))) if ng else 0.0
    return FaceVelocity(qx=qx, qy=qy, max_abs=float(m))


def _init_field(spec, points):
    if callable(spec):
        return np.asarray(spec(points[:, 0], points[:, 1]), dtype=float)
    return np.full(points.shape[0], float(spec))


class MicroSolver:
    """Owns the assembled operators for one (config, grid) pair."""

    def __init__(self, cfg: MicroConfig, grid: PerforatedGrid, stokes=None):
        self.cfg = cfg
        self.grid = grid
        self.h = grid.h
        self.eps = grid.eps
        fluid = grid.fluid_mask
        self.fluid = fluid
        self.idx = grid.fluid_index
        self.m = grid.n_fluid_cells

        self._assemble_diffusion()
        self.implicit = ImplicitOperator(self.A, np.full(self.m, self.h * self.h / cfg.dt))
        f = grid.faces
        self.face_owner = self.idx[f.owner_ix, f.owner_iy]
        self.face_weight = np.full(f.count, self.eps * self.h)

        if cfg.velocity_mode == "reconstructed":
            if stokes is None:
                raise ConfigError("reconstructed velocity mode needs Stokes cell solutions")
            self.vel = reconstruct_velocity(grid, stokes, cfg.pressure_gradient)
            cfl = cfg.dt * self.vel.max_abs / self.h
            if cfl > 1.0 + 1e-12:
                raise ConfigError(f"dt*|q|/h = {cfl:.3g} violates the advective CFL bound <= 1")
        else:
            self.vel = None

    # -- operators ---------------------------------------------------------

    def _assemble_diffusion(self):
        """Graph Laplacian over fluid cells (unit face weights, no outer
        wrap) plus the Dirichlet half-cell terms on the selected edges."""
        fluid = self.fluid
        idx = self.idx
        m = self.m
        rows, cols, vals = [], [], []
        diag = np.zeros(m)
        for axis in (0, 1):
            cut = [slice(None)] * 2
            cut[axis] = slice(0, -1)
            lo = tuple(cut)
            cut = [slice(None)] * 2
            cut[axis] = slice(1, None)
            hi = tuple(cut)
            both = fluid[lo] & fluid[hi]
            a = idx[lo][both]
            b = idx[hi][both]
            rows.extend([a, b])
            cols.extend([b, a])
            vals.extend([-np.ones(a.size), -np.ones(a.size)])
            np.add.at(diag, a, 1.0)
            np.add.at(diag, b, 1.0)
        # Dirichlet edges: flux 2*(u_c - u_D) through the boundary face
        self.dir_cells = []
        ng = self.grid.n_global
        edge_cells = {
            "left": (0, slice(None)),
            "right": (ng - 1, slice(None)),
            "bottom": (slice(None), 0),
            "top": (slice(None), ng - 1),
        }
        bdry = np.zeros(m)
        for e in self.cfg.dirichlet_edges:
            sel = edge_cells[e]
            cells = idx[sel][fluid[sel]]
            bdry[cells] += 2.0
            self.dir_cells.append(cells)
        diag += bdry
        rows.append(np.arange(m))
        cols.append(np.arange(m))
        vals.append(diag)
        A = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
        )
        self.A = self.cfg.D * A
        self.dir_weight = self.cfg.D * bdry  # rhs gets dir_weight * u_D

    # -- initialization ----------------------------------------------------

    def initial_state(self) -> MicroState:
        grid = self.grid
        ng = grid.n_global
        xs = (np.arange(ng) + 0.5) * self.h
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.column_stack([X[self.fluid], Y[self.fluid]])
        u0 = _init_field(self.cfg.u_init, pts)
        v0 = _init_field(self.cfg.v_init, grid.faces.centers)
        if np.any(u0 < 0) or np.any(v0 < 0) or np.any(u0 > self.cfg.m0 + 1e-12) or np.any(
            v0 > self.cfg.m0 + 1e-12
        ):
            raise ConfigError("initial data must lie in [0, m0]")
        u = np.zeros((ng, ng))
        u[self.fluid] = u0
        law = self.cfg.rate_law
        uf = u0[self.face_owner]
        w0 = dissolution_rate(law, uf, v0)
        self._compatibility_check(uf, v0, w0)
        return MicroState(t=0.0, u=u, v=v0, w=np.asarray(w0))

    def _compatibility_check(self, u_face, v0, w0):
        """Initial flux compatibility: the grain flux of u_I should balance
        the initial surface rate.  Constant profiles have zero normal
        gradient, so the residual is eps*k*(r - w); report, never fail."""
        law = self.cfg.rate_law
        res = self.eps * law.k * (law.rate(u_face) - w0)
        worst = float(np.max(np.abs(res))) if res.size else 0.0
        if worst > self.cfg.invariant_slack:
            logger.warning(
                "initial data violate the flux compatibility condition "
                "(max residual %.3e); continuing", worst,
            )

    # -- substeps ----------------------------------------------------------

    def _advect(self, u):
        """Explicit upwind advection; returns (u_new, inflow integral)."""
        if self.vel is None:
            return u, 0.0
        h, dt = self.h, self.cfg.dt
        ng = self.grid.n_global
        qx, qy = self.vel.qx, self.vel.qy
        fluid = self.fluid
        # face fluxes, positive in +axis direction
        Fx = np.zeros((ng + 1, ng))
        up = np.maximum(qx[1:-1, :], 0.0)
        dn = np.minimum(qx[1:-1, :], 0.0)
        Fx[1:-1, :] = up * u[:-1, :] + dn * u[1:, :]
        Fy = np.zeros((ng, ng + 1))
        up = np.maximum(qy[:, 1:-1], 0.0)
        dn = np.minimum(qy[:, 1:-1], 0.0)
        Fy[:, 1:-1] = up * u[:, :-1] + dn * u[:, 1:]
        # open outer boundaries: upwind outflow, configured value on inflow
        bvals = {e: (self.cfg.dirichlet_value if e in self.cfg.dirichlet_edges else 0.0) for e in EDGES}
        Fx[0, :] = np.maximum(qx[0, :], 0.0) * bvals["left"] + np.minimum(qx[0, :], 0.0) * u[0, :]
        Fx[-1, :] = np.maximum(qx[-1, :], 0.0) * u[-1, :] + np.minimum(qx[-1, :], 0.0) * bvals["right"]
        Fy[:, 0] = np.maximum(qy[:, 0], 0.0) * bvals["bottom"] + np.minimum(qy[:, 0], 0.0) * u[:, 0]
        Fy[:, -1] = np.maximum(qy[:, -1], 0.0) * u[:, -1] + np.minimum(qy[:, -1], 0.0) * bvals["top"]
        div = (Fx[1:, :] - Fx[:-1, :]) + (Fy[:, 1:] - Fy[:, :-1])
        u_new = u - (dt / h) * div
        u_new[~fluid] = 0.0
        inflow = float(Fx[0, :].sum() - Fx[-1, :].sum() + Fy[:, 0].sum() - Fy[:, -1].sum()) * h * dt
        return u_new, inflow

    def step(self, state: MicroState) -> tuple[MicroState, MassRow]:
        cfg = self.cfg
        dt = cfg.dt
        law = cfg.rate_law

        u_adv, adv_in = self._advect(state.u)
        uf0 = u_adv[self.fluid]
        rhs = self.implicit.mass_diag * uf0 + self.dir_weight * cfg.dirichlet_value
        u_new_f, res = newton_reaction_diffusion(
            self.implicit, rhs,
            self.face_owner, self.face_weight,
            law, cfg.resolution, state.v, dt, uf0,
            lin_tol=cfg.lin_tol, newton_tol=cfg.newton_tol,
        )
        u_new = np.zeros_like(state.u)
        u_new[self.fluid] = u_new_f

        u_face = u_new_f[self.face_owner]
        v_new, _w_eff = ode_step(law, u_face, state.v, dt, cfg.resolution)
        if cfg.resolution.mode == "exact":
            w_new = dissolution_rate(law, u_face, v_new)
        else:
            w_new = regularized_heaviside(cfg.resolution.delta, v_new)

        diff_in = float(np.sum(self.dir_weight * (cfg.dirichlet_value - u_new_f))) * dt
        new = MicroState(t=state.t + dt, u=u_new, v=np.asarray(v_new), w=np.asarray(w_new))
        row = self._mass_row(new, adv_in, diff_in)
        if cfg.check_invariants:
            self._check(new)
        return new, row

    def _mass_row(self, state, adv_in, diff_in):
        h2 = self.h * self.h
        return MassRow(
            t=state.t,
            mass_u=float(state.u[self.fluid].sum() * h2),
            mass_v=float(self.eps * self.h * state.v.sum()),
            flux_adv=adv_in,
            flux_diff=diff_in,
            drift=0.0,  # filled in by run()
            min_u=float(state.u[self.fluid].min()) if self.m else 0.0,
            max_u=float(state.u[self.fluid].max()) if self.m else 0.0,
            min_v=float(state.v.min()) if state.v.size else 0.0,
            max_v=float(state.v.max()) if state.v.size else 0.0,
        )

    def _check(self, state: MicroState):
        slack = self.cfg.invariant_slack
        M = self.cfg.box_bound
        uf = state.u[self.fluid]
        msg = None
        if uf.size and (uf.min() < -slack or uf.max() > M + slack):
            msg = f"solute out of [0, {M}] at t={state.t}: range [{uf.min()}, {uf.max()}]"
        elif state.v.size and state.v.min() < 0.0:
            msg = f"negative precipitate at t={state.t}"
        elif state.w.size and (state.w.min() < -slack or state.w.max() > 1.0 + slack):
            msg = f"dissolution rate out of [0,1] at t={state.t}"
        elif self.cfg.resolution.mode == "exact" and state.v.size and np.any(
            (state.v > 0.0) & (np.abs(state.w - 1.0) > slack)
        ):
            msg = f"w != 1 where v > 0 at t={state.t}"
        if msg is not None:
            err = StateError(msg)
            err.state = state  # diagnostic dump for the caller
            raise err

    def run(self) -> MicroRun:
        """Integrate to t_end.  The mass report has one row per step; field
        snapshots are stored every ``output_every`` steps plus the final."""
        cfg = self.cfg
        state = self.initial_state()
        states = [state.copy()]
        rows = [self._mass_row(state, 0.0, 0.0)]
        times = [0.0]
        base = rows[0].mass_u + rows[0].mass_v
        influx = 0.0
        for k in range(1, cfg.n_steps + 1):
            state, row = self.step(state)
            influx += row.flux_adv + row.flux_diff
            row.drift = (row.mass_u + row.mass_v) - base - influx
            rows.append(row)
            if k % cfg.output_every == 0 or k == cfg.n_steps:
                states.append(state.copy())
                times.append(state.t)
        return MicroRun(cfg=cfg, grid=self.grid, times=np.asarray(times), states=states, mass=rows)


def step(state: MicroState, cfg: MicroConfig, grid: PerforatedGrid, stokes=None) -> MicroState:
    """One operator-split step (convenience wrapper around MicroSolver)."""
    return MicroSolver(cfg, grid, stokes).step(state)[0]


def run(cfg: MicroConfig, grid: PerforatedGrid, stokes=None) -> MicroRun:
    """Integrate to t_end, returning the trajectory and the mass report."""
    return MicroSolver(cfg, grid, stokes).run()


def l1_distance(a: MicroState, b: MicroState, grid: PerforatedGrid) -> float:
    """Discrete contraction functional:
    sum |u_a - u_b| h^2 over fluid cells + eps * sum |v_a - v_b| h."""
    if a.u.shape != b.u.shape or a.v.shape != b.v.shape:
        raise ValueError("states live on different grids")
    fluid = grid.fluid_mask
    h = grid.h
    du = float(np.abs(a.u[fluid] - b.u[fluid]).sum() * h * h)
    dv = float(grid.eps * h * np.abs(a.v - b.v).sum())
    return du + dv


def difference_quotient_norm(run: MicroRun, h_lag: float) -> np.ndarray:
    """Time difference-quotient functional at each stored output time.

    The trajectory is extended to negative times by its initial state, so
    the quotient vanishes identically at t = 0 and stays bounded by its
    value at the first lag for monotone (contractive) dynamics.
    """
    times = run.times
    if len(times) < 2:
        return np.zeros(len(times))
    spacing = times[1] - times[0]
    steps = int(round(h_lag / spacing))
    if steps < 1 or abs(steps * spacing - h_lag) > 1e-9 * max(h_lag, spacing):
        raise ValueError(f"lag {h_lag} is not a multiple of the output spacing {spacing}")
    out = np.zeros(len(times))
    for i in range(len(times)):
        j = max(i - steps, 0)
        out[i] = l1_distance(run.states[i], run.states[j], run.grid) / h_lag
    return out
