"""Upscaled transport on the unit square with effective coefficients.

The solute/precipitate pair satisfies the storage-coupled system

    d/dt ( u + (|Gamma|/|Y|) v ) = div( S grad u - q u ),
    dv/dt = k (r(u) - w),    w in H(v),

with the same kinetics resolver as the pore-scale solver, the effective
diffusion tensor S from the corrector cell problems, and the Darcy velocity
q = -K grad P from the permeability cell problems.  The splitting mirrors
the pore-scale one (explicit upwind advection, implicit tensor diffusion
with the storage term at the new solute level, exact per-cell precipitate
update), so closed-box runs conserve  sum (u + c_g v) h^2  to solver
tolerance.

Diffusion uses a flux-based 9-point stencil for full tensors; for diagonal
S it degenerates to the usual 5-point scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._implicit import ImplicitOperator, newton_reaction_diffusion
from .errors import ConfigError, StateError
from .kinetics import EXACT, DissolutionResolution, RateLaw, dissolution_rate, ode_step, regularized_heaviside

EDGES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class MacroConfig:
    dt: float
    t_end: float
    S: np.ndarray           # 2x2 effective diffusion (diffusivity included)
    pore_area: float        # |Y|
    surface_density: float  # |Gamma|
    K: np.ndarray = None    # 2x2 permeability, needed in darcy mode
    rate_law: RateLaw = field(default_factory=RateLaw)
    resolution: DissolutionResolution = EXACT
    resolution_cells: int = 64
    u_init: object = 0.0
    v_init: object = 0.0
    velocity_mode: str = "zero"   # zero | darcy
    p_left: float = 1.0
    p_right: float = 0.0
    dirichlet_edges: tuple = ("left",)
    dirichlet_value: float = 0.0
    m0: float = 1.0
    output_every: int = 1
    lin_tol: float = 1e-12
    newton_tol: float = 1e-12
    invariant_slack: float = 1e-8
    check_invariants: bool = True

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        object.__setattr__(self, "S", S)
        if S.shape != (2, 2) or np.max(np.abs(S - S.T)) > 1e-8 * max(np.max(np.abs(S)), 1e-30):
            raise ConfigError("S must be a symmetric 2x2 tensor")
        if np.linalg.eigvalsh(S)[0] <= 0.0:
            raise ConfigError("S must be positive definite")
        if self.K is not None:
            K = np.asarray(self.K, dtype=float)
            object.__setattr__(self, "K", K)
            if np.linalg.eigvalsh(0.5 * (K + K.T))[0] <= 0.0:
                raise ConfigError("K must be positive definite")
        if self.velocity_mode not in ("zero", "darcy"):
            raise ConfigError(f"unknown velocity mode {self.velocity_mode!r}")
        if self.velocity_mode == "darcy" and self.K is None:
            raise ConfigError("darcy velocity mode needs the permeability tensor K")
        if self.dt <= 0.0 or self.t_end < 0.0:
            raise ConfigError("need dt > 0 and t_end >= 0")
        for e in self.dirichlet_edges:
            if e not in EDGES:
                raise ConfigError(f"unknown edge {e!r}; valid edges: {EDGES}")
        if not (0.0 < self.pore_area <= 1.0) or self.surface_density < 0.0:
            raise ConfigError("invalid geometry factors")
        kin = self.dt * self.rate_law.k * self.rate_law.lipschitz_bound(self.box_bound)
        if kin > 1.0 + 1e-12:
            raise ConfigError(f"dt*k*L_r = {kin:.3g} violates the kinetic bound dt*k*L_r <= 1")

    @property
    def storage_factor(self) -> float:
        return self.surface_density / self.pore_area

    @property
    def box_bound(self) -> float:
        return max(self.m0, self.rate_law.u_sol, self.dirichlet_value)

    @property
    def n_steps(self) -> int:
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-9 * max(self.t_end, self.dt):
            raise ConfigError(f"t_end = {self.t_end} is not a multiple of dt = {self.dt}")
        return n


@dataclass
class MacroState:
    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def copy(self) -> "MacroState":
        return MacroState(self.t, self.u.copy(), self.v.copy(), self.w.copy())


@dataclass
class MacroRun:
    cfg: MacroConfig
    times: np.ndarray
    states: list
    mass: list

    def state_at(self, t: float) -> MacroState:
        i = int(np.argmin(np.abs(self.times - t)))
        return self.states[i]


def _ghost_pad(u, dirichlet: dict):
    """Pad a cell field with one ghost ring: mirrored on no-flow edges,
    reflected through the boundary value on Dirichlet edges."""
    g = np.pad(u, 1, mode="edge")
    if "left" in dirichlet:
        g[0, 1:-1] = 2.0 * dirichlet["left"] - u[0, :]
    if "right" in dirichlet:
        g[-1, 1:-1] = 2.0 * dirichlet["right"] - u[-1, :]
    if "bottom" in dirichlet:
        g[1:-1, 0] = 2.0 * dirichlet["bottom"] - u[:, 0]
    if "top" in dirichlet:
        g[1:-1, -1] = 2.0 * dirichlet["top"] - u[:, -1]
    return g


def tensor_fluxes(u, S, dirichlet: dict):
    """Integrated face fluxes of ``-S grad u`` on the unit square (h = 1/m).

    Returns ``(Fx, Fy)`` with shapes (m+1, m) and (m, m+1); positive values
    flow in the +axis direction.  Interior faces use the 9-point stencil
    (normal two-point difference plus the four-cell tangential average);
    boundary faces are zero on no-flow edges and half-cell two-point on
    Dirichlet edges.  All fluxes are multiplied by the face length h and
    divided by h (the 2D finite-volume normalization), so the net outflux of
    a cell is the plain stencil sum.
    """
    S = np.asarray(S, dtype=float)
    m = u.shape[0]
    g = _ghost_pad(u, dirichlet)
    Fx = np.zeros((m + 1, m))
    Fy = np.zeros((m, m + 1))
    # interior x-faces between (i,j) and (i+1,j)
    dn = u[1:, :] - u[:-1, :]
    dt_ = 0.25 * (g[1:m, 2:] + g[2 : m + 1, 2:] - g[1:m, :-2] - g[2 : m + 1, :-2])
    Fx[1:-1, :] = -(S[0, 0] * dn + S[0, 1] * dt_)
    # interior y-faces between (i,j) and (i,j+1)
    dn = u[:, 1:] - u[:, :-1]
    dt_ = 0.25 * (g[2:, 1:m] + g[2:, 2 : m + 1] - g[:-2, 1:m] - g[:-2, 2 : m + 1])
    Fy[:, 1:-1] = -(S[1, 1] * dn + S[1, 0] * dt_)
    # Dirichlet boundary faces: half-cell normal difference
    if "left" in dirichlet:
        Fx[0, :] = -2.0 * S[0, 0] * (u[0, :] - dirichlet["left"])
    if "right" in dirichlet:
        Fx[-1, :] = -2.0 * S[0, 0] * (dirichlet["right"] - u[-1, :])
    if "bottom" in dirichlet:
        Fy[:, 0] = -2.0 * S[1, 1] * (u[:, 0] - dirichlet["bottom"])
    if "top" in dirichlet:
        Fy[:, -1] = -2.0 * S[1, 1] * (dirichlet["top"] - u[:, -1])
    return Fx, Fy


def _tensor_operator(m, S, dirichlet: dict):
    """Sparse matrix L and constant c with  (L u - c) = net outflux per cell
    of the tensor_fluxes stencil (matrix-free stencil probed columnwise on
    the small, banded structure via unit fields is wasteful; assemble from
    the flux formulas instead)."""
    S = np.asarray(S, dtype=float)
    idx = np.arange(m * m).reshape(m, m)
    rows, cols, vals = [], [], []
    const = np.zeros(m * m)

    def add(r, c, w):
        rows.append(np.asarray(r).ravel())
        cols.append(np.asarray(c).ravel())
        w = np.asarray(w, dtype=float)
        if w.size == 1:
            w = np.full(np.asarray(r).size, float(w))
        vals.append(w.ravel())

    def ghost_redirect(i, j):
        """Return (interior index array, coefficient, constant) for possibly
        out-of-range cell indices under the ghost rules."""
        i = np.asarray(i).copy()
        j = np.asarray(j).copy()
        coef = np.ones(i.shape)
        cst = np.zeros(i.shape)
        for arr, lo_edge, hi_edge in ((i, "left", "right"), (j, "bottom", "top")):
            for sel, edge, clamp in ((arr < 0, lo_edge, 0), (arr > m - 1, hi_edge, m - 1)):
                if not np.any(sel):
                    continue
                if edge in dirichlet:
                    coef[sel] *= -1.0
                    cst[sel] += 2.0 * dirichlet[edge]
                arr[sel] = clamp
        return idx[i, j], coef, cst

    for axis in (0, 1):
        snn = S[axis, axis]
        snt = S[axis, 1 - axis]
        if axis == 0:
            loI, loJ = np.meshgrid(np.arange(m - 1), np.arange(m), indexing="ij")
            hiI, hiJ = loI + 1, loJ
        else:
            loI, loJ = np.meshgrid(np.arange(m), np.arange(m - 1), indexing="ij")
            hiI, hiJ = loI, loJ + 1
        L = idx[loI, loJ]
        H = idx[hiI, hiJ]
        # F = -snn (u_H - u_L) - (snt/4) sum_{c in 4 ring} (+/-) u_c
        # outflux(L) += F, outflux(H) -= F
        for cell, sgn in ((L, 1.0), (H, -1.0)):
            add(cell, H, -sgn * snn)
            add(cell, L, sgn * snn)
        if snt != 0.0:
            tI = (1, 0) if axis == 1 else (0, 1)
            ring = [
                (loI + tI[0], loJ + tI[1], 1.0),
                (hiI + tI[0], hiJ + tI[1], 1.0),
                (loI - tI[0], loJ - tI[1], -1.0),
                (hiI - tI[0], hiJ - tI[1], -1.0),
            ]
            for gi, gj, rsgn in ring:
                nb, coef, cst = ghost_redirect(gi, gj)
                w = rsgn * snt / 4.0
                for cell, sgn in ((L, 1.0), (H, -1.0)):
                    add(cell, nb, -sgn * w * coef)
                    np.add.at(const, cell.ravel(), (sgn * w * cst).ravel())
        # Dirichlet boundary faces normal to this axis
        lo_edge = "left" if axis == 0 else "bottom"
        hi_edge = "right" if axis == 0 else "top"
        for edge, sel, out_sgn in ((lo_edge, 0, -1.0), (hi_edge, m - 1, 1.0)):
            if edge not in dirichlet:
                continue
            cells = idx[sel, :] if axis == 0 else idx[:, sel]
            add(cells, cells, 2.0 * snn)
            np.add.at(const, cells.ravel(), 2.0 * snn * dirichlet[edge])

    Lmat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * m, m * m),
    )
    return Lmat, const


def darcy_solve(K, m, p_left=1.0, p_right=0.0):
    """Pressure solve  div(K grad P) = 0  with Dirichlet pressure left/right
    and no-flow top/bottom; returns face velocities q = -K grad P.

    Returns ``(qx, qy, P, div_inf)`` with qx of shape (m+1, m), qy of shape
    (m, m+1); the divergence reported is evaluated from the returned fluxes,
    which reproduce the assembled stencil exactly.
    """
    K = np.asarray(K, dtype=float)
    if np.linalg.eigvalsh(0.5 * (K + K.T))[0] <= 0.0:
        raise ConfigError("K must be positive definite")
    h = 1.0 / m
    dirichlet = {"left": p_left, "right": p_right}
    L0, const = _tensor_operator(m, K, dirichlet)
    P = spla.spsolve(L0.tocsc(), const).reshape(m, m)
    Fx, Fy = tensor_fluxes(P, K, dirichlet)
    qx, qy = Fx / h, Fy / h   # integrated flux / face length = velocity
    div = (qx[1:, :] - qx[:-1, :] + qy[:, 1:] - qy[:, :-1]) / h
    return qx, qy, P, float(np.max(np.abs(div)))


def _init_field(spec, m, h):
    xs = (np.arange(m) + 0.5) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    if callable(spec):
        return np.asarray(spec(X, Y), dtype=float)
    return np.full((m, m), float(spec))


class MacroSolver:
    def __init__(self, cfg: MacroConfig):
        self.cfg = cfg
        self.m = cfg.resolution_cells
        self.h = 1.0 / self.m
        dirichlet = {e: cfg.dirichlet_value for e in cfg.dirichlet_edges}
        self.L, self.bc_const = _tensor_operator(self.m, cfg.S, dirichlet)
        self.implicit = ImplicitOperator(self.L, np.full(self.m * self.m, self.h * self.h / cfg.dt))
        self.owners = np.arange(self.m * self.m)
        self.weights = np.full(self.m * self.m, cfg.storage_factor * self.h * self.h)
        if cfg.velocity_mode == "darcy":
            self.qx, self.qy, self.P, self.div_res = darcy_solve(
                cfg.K, self.m, cfg.p_left, cfg.p_right
            )
            cfl = cfg.dt * max(np.max(np.abs(self.qx)), np.max(np.abs(self.qy))) / self.h
            if cfl > 1.0 + 1e-12:
                raise ConfigError(f"dt*|q|/h = {cfl:.3g} violates the advective CFL bound <= 1")
        else:
            self.qx = self.qy = self.P = None
            self.div_res = 0.0

    def initial_state(self) -> MacroState:
        cfg = self.cfg
        u0 = _init_field(cfg.u_init, self.m, self.h)
        v0 = _init_field(cfg.v_init, self.m, self.h)
        if np.any(u0 < 0) or np.any(v0 < 0) or np.any(u0 > cfg.m0 + 1e-12) or np.any(v0 > cfg.m0 + 1e-12):
            raise ConfigError("initial data must lie in [0, m0]")
        w0 = dissolution_rate(cfg.rate_law, u0, v0)
        return MacroState(t=0.0, u=u0, v=v0, w=np.asarray(w0))

    def _advect(self, u):
        if self.qx is None:
            return u, 0.0
        cfg = self.cfg
        m, h, dt = self.m, self.h, cfg.dt
        qx, qy = self.qx, self.qy
        bvals = {e: (cfg.dirichlet_value if e in cfg.dirichlet_edges else 0.0) for e in EDGES}
        Fx = np.zeros((m + 1, m))
        Fx[1:-1, :] = np.maximum(qx[1:-1, :], 0.0) * u[:-1, :] + np.minimum(qx[1:-1, :], 0.0) * u[1:, :]
        Fx[0, :] = np.maximum(qx[0, :], 0.0) * bvals["left"] + np.minimum(qx[0, :], 0.0) * u[0, :]
        Fx[-1, :] = np.maximum(qx[-1, :], 0.0) * u[-1, :] + np.minimum(qx[-1, :], 0.0) * bvals["right"]
        Fy = np.zeros((m, m + 1))
        Fy[:, 1:-1] = np.maximum(qy[:, 1:-1], 0.0) * u[:, :-1] + np.minimum(qy[:, 1:-1], 0.0) * u[:, 1:]
        Fy[:, 0] = np.maximum(qy[:, 0], 0.0) * bvals["bottom"] + np.minimum(qy[:, 0], 0.0) * u[:, 0]
        Fy[:, -1] = np.maximum(qy[:, -1], 0.0) * u[:, -1] + np.minimum(qy[:, -1], 0.0) * bvals["top"]
        div = (Fx[1:, :] - Fx[:-1, :]) + (Fy[:, 1:] - Fy[:, :-1])
        u_new = u - (dt / h) * div
        inflow = float(Fx[0, :].sum() - Fx[-1, :].sum() + Fy[:, 0].sum() - Fy[:, -1].sum()) * h * dt
        return u_new, inflow

    def step(self, state: MacroState):
        cfg = self.cfg
        dt = cfg.dt
        law = cfg.rate_law

        u_adv, adv_in = self._advect(state.u)
        u0 = u_adv.ravel()
        rhs = self.implicit.mass_diag * u0 + self.bc_const
        u_new_flat, res = newton_reaction_diffusion(
            self.implicit, rhs,
            self.owners, self.weights,
            law, cfg.resolution, state.v.ravel(), dt, u0,
            lin_tol=cfg.lin_tol, newton_tol=cfg.newton_tol,
        )
        u_new = u_new_flat.reshape(self.m, self.m)
        v_new, _ = ode_step(law, u_new, state.v, dt, cfg.resolution)
        if cfg.resolution.mode == "exact":
            w_new = dissolution_rate(law, u_new, v_new)
        else:
            w_new = regularized_heaviside(cfg.resolution.delta, v_new)
        # interior flux contributions cancel pairwise in the cell sum, so
        # the summed operator action is exactly the boundary outflux
        diff_in = -float(np.sum(self.L @ u_new_flat - self.bc_const)) * dt
        new = MacroState(t=state.t + dt, u=u_new, v=np.asarray(v_new), w=np.asarray(w_new))
        if cfg.check_invariants:
            self._check(new)
        return new, adv_in, diff_in

    def _check(self, state: MacroState):
        cfg = self.cfg
        slack = cfg.invariant_slack
        M = cfg.box_bound
        msg = None
        if state.u.min() < -slack or state.u.max() > M + slack:
            msg = f"solute out of [0, {M}] at t={state.t}: range [{state.u.min()}, {state.u.max()}]"
        elif state.v.min() < 0.0:
            msg = f"negative precipitate at t={state.t}"
        elif state.w.min() < -slack or state.w.max() > 1.0 + slack:
            msg = f"dissolution rate out of [0,1] at t={state.t}"
        elif cfg.resolution.mode == "exact" and np.any(
            (state.v > 0.0) & (np.abs(state.w - 1.0) > slack)
        ):
            msg = f"w != 1 where v > 0 at t={state.t}"
        if msg is not None:
            err = StateError(msg)
            err.state = state  # diagnostic dump for the caller
            raise err

    def mass_totals(self, state: MacroState):
        h2 = self.h * self.h
        return float(state.u.sum() * h2), float(self.cfg.storage_factor * state.v.sum() * h2)

    def run(self) -> MacroRun:
        """Integrate to t_end.  The mass report has one row per step; field
        snapshots are stored every ``output_every`` steps plus the final."""
        cfg = self.cfg
        state = self.initial_state()
        mu, mv = self.mass_totals(state)
        rows = [dict(t=0.0, mass_u=mu, mass_v=mv, flux_adv=0.0, flux_diff=0.0, drift=0.0,
                     min_u=float(state.u.min()), max_u=float(state.u.max()),
                     min_v=float(state.v.min()), max_v=float(state.v.max()))]
        states = [state.copy()]
        times = [0.0]
        base = mu + mv
        influx = 0.0
        for k in range(1, cfg.n_steps + 1):
            state, adv_in, diff_in = self.step(state)
            influx += adv_in + diff_in
            mu, mv = self.mass_totals(state)
            rows.append(dict(t=state.t, mass_u=mu, mass_v=mv, flux_adv=adv_in,
                             flux_diff=diff_in, drift=(mu + mv) - base - influx,
                             min_u=float(state.u.min()), max_u=float(state.u.max()),
                             min_v=float(state.v.min()), max_v=float(state.v.max())))
            if k % cfg.output_every == 0 or k == cfg.n_steps:
                states.append(state.copy())
                times.append(state.t)
        return MacroRun(cfg=cfg, times=np.asarray(times), states=states, mass=rows)


def run(cfg: MacroConfig) -> MacroRun:
    return MacroSolver(cfg).run()


def step(state: MacroState, cfg: MacroConfig) -> MacroState:
    return MacroSolver(cfg).step(state)[0]


@dataclass
class StabilityGap:
    times: np.ndarray
    norm_u: np.ndarray
    norm_v: np.ndarray
    lam: float        # fitted exponential envelope exponent for ||U||
    c_env: float      # smallest C with ||U(t)|| <= C exp(lam t)


def stability_gap(run1: MacroRun, run2: MacroRun) -> StabilityGap:
    """L2 gap between two runs differing only in initial data, with the
    fitted exponential envelope of the solute gap."""
    c1, c2 = run1.cfg, run2.cfg
    if (c1.dt != c2.dt or c1.t_end != c2.t_end or c1.resolution_cells != c2.resolution_cells
            or not np.array_equal(c1.S, c2.S)):
        raise ConfigError("stability gap requires matching configurations")
    if len(run1.times) != len(run2.times) or not np.allclose(run1.times, run2.times):
        raise ConfigError("stability gap requires matching output times")
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
