"""Transport core shared by the pore-scale and the Darcy-scale solvers.

Both models take the same operator-split step on a square cell grid of
spacing h:

1. explicit first-order upwind advection with a divergence-free face
   velocity;
2. backward-Euler diffusion by the masked 5-point operator, with the
   exchange term of every reaction carrier taken at the new solute level:
   the carrier's solute at the new level, the dissolution rate from the
   exact event-resolved Heaviside selection, the only resolver;
3. the exact per-carrier precipitate update with the owner-cell solute
   frozen.

A solver supplies its cell mask (the fluid cells of the perforated grid, or
every cell of the upscaled grid), one diffusion weight per axis, its
reaction carriers with their owner cells and their common coupling weight
(grain faces with eps*h, or cells with c_g*h^2), and the face velocity.
Because steps 2 and 3 use the same event-resolved net rate, the discrete
mass identity

    d[ sum u h^2 + weight sum v ] = boundary fluxes

holds to the nonlinear-solver tolerance, and the scheme is monotone, so
solute stays in the box bounds, ordered initial data stay ordered, and the
L1 distance in the same weights (`l1_distance`) between two runs does not
grow.  Each run records its L1 step rates (`Run.l1_step_rates`).

Step 2 is `porechem._implicit`: it builds the diffusion operator and a
certified direct solve of the backward-Euler operator once per run, and
solves each step by Newton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ._implicit import ImplicitOperator, newton_tolerance
from .errors import ConfigError, StateError
from .geometry import EDGE_CELLS, check_edges
from .kinetics import RateLaw, dissolution_rate


@dataclass(frozen=True, kw_only=True)
class TransportConfig:
    """Time stepping, kinetics, data and boundary values common to both
    models, with the checks that make every accepted run well posed."""

    velocity_modes: ClassVar[tuple] = ("zero",)

    dt: float
    t_end: float
    rate_law: RateLaw = field(default_factory=RateLaw)
    u_init: object = 0.0            # constant or f(x, y)
    v_init: object = 0.0
    velocity_mode: str = "zero"
    dirichlet_edges: tuple = ("left",)
    dirichlet_value: float = 0.0
    m0: float = 1.0                 # bound on the initial data
    output_every: int = 1
    invariant_slack: float = 1e-8

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end < 0.0:
            raise ConfigError("need dt > 0 and t_end >= 0")
        self.n_steps  # raises unless t_end is a whole number of steps
        if self.output_every < 1:
            raise ConfigError(f"output_every must be at least 1, got {self.output_every}")
        # the solute's lower box bound is 0, and a negative boundary value
        # would pull it below
        if self.dirichlet_value < 0.0:
            raise ConfigError(f"dirichlet_value must be nonnegative, got {self.dirichlet_value}")
        if self.velocity_mode not in self.velocity_modes:
            raise ConfigError(f"unknown velocity mode {self.velocity_mode!r}")
        check_edges(self.dirichlet_edges)
        kin = self.dt * self.rate_law.k * self.rate_law.lipschitz_bound(self.box_bound)
        if kin > 1.0 + 1e-12:
            raise ConfigError(f"dt*k*L_r = {kin:.3g} violates the kinetic bound dt*k*L_r <= 1")

    @property
    def box_bound(self) -> float:
        """Discrete maximum-principle bound on the solute."""
        return max(self.m0, self.rate_law.u_sol, self.dirichlet_value)

    @property
    def newton_tol(self) -> float:
        """The implicit step's Newton tolerance, `newton_tolerance` at the
        box bound."""
        return newton_tolerance(self.box_bound)

    @property
    def n_steps(self) -> int:
        n = self.t_end / self.dt
        if not (n < np.inf and abs(round(n) * self.dt - self.t_end) <= 1e-9 * max(self.t_end, self.dt)):
            raise ConfigError(f"t_end = {self.t_end} is not a multiple of dt = {self.dt}")
        return round(n)

    @property
    def snapshot_steps(self) -> list:
        """The steps a run stores: every ``output_every``-th, and the last."""
        return [*range(0, self.n_steps, self.output_every), self.n_steps]


@dataclass
class State:
    t: float
    u: np.ndarray   # cell field, zero outside the mask
    v: np.ndarray   # per reaction carrier, >= 0
    w: np.ndarray   # per reaction carrier, in [0, 1]


@dataclass
class MassRow:
    t: float
    mass_u: float
    mass_v: float          # weighted precipitate mass, weight * sum v
    flux_adv: float        # advective inflow through the outer boundary, dt-integrated
    flux_diff: float       # diffusive inflow through the outer boundary, dt-integrated
    drift: float           # cumulative conservation defect
    min_u: float
    max_u: float
    min_v: float
    max_v: float


@dataclass
class Run:
    cfg: TransportConfig
    times: np.ndarray      # of the stored snapshots
    states: list           # the stored snapshots, empty when a consumer took them
    mass: list             # one row per step
    l1_step_rates: list    # per stored snapshot: 0, then `l1_distance` to the one before over their time gap
    grid: object = None    # the perforated grid of a pore-scale run


def l1_distance(a: State, b: State, mask, h, weight) -> float:
    """The L1 contraction functional: ``sum |u_a - u_b| h^2`` over the
    active cells ``mask`` plus ``weight * sum |v_a - v_b|``, with ``weight``
    the carriers' coupling weight, as in `MassRow.mass_v`."""
    return float(np.abs(a.u[mask] - b.u[mask]).sum() * h * h) + float(weight * np.abs(a.v - b.v).sum())


@dataclass(frozen=True)
class FaceVelocity:
    qx: np.ndarray   # (nx+1, ny) normal velocity on vertical faces
    qy: np.ndarray   # (nx, ny+1) normal velocity on horizontal faces

    def check_cfl(self, dt, h):
        """ConfigError unless explicit upwind steps of ``dt`` on a grid of
        spacing ``h`` keep the advective CFL number dt*|q|/h at most 1, |q|
        the largest total outflow of a cell through its four faces.  An
        upwind step leaves the weight 1 - dt*|q|/h on a cell's own value, so
        at most 1 the step is monotone and keeps the box bounds."""
        outflow = np.maximum(self.qx[1:, :], 0.0) - np.minimum(self.qx[:-1, :], 0.0)
        outflow += np.maximum(self.qy[:, 1:], 0.0) - np.minimum(self.qy[:, :-1], 0.0)
        cfl = dt * float(np.max(outflow, initial=0.0)) / h
        if cfl > 1.0 + 1e-12:
            raise ConfigError(f"dt*|q|/h = {cfl:.3g} violates the advective CFL bound <= 1, "
                              "|q| the largest total outflow of a cell")


def _sample(spec, x, y):
    """A constant or ``f(x, y)`` initial profile at the given points."""
    if callable(spec):
        return np.asarray(spec(x, y), dtype=float)
    return np.full(np.shape(x), float(spec))


class _Upwind:
    """First-order upwind face fluxes of one face velocity, set up once per
    run: the positive and negative parts of each face velocity, and the
    cell field padded with one ghost cell outside each edge of one axis.
    The open outer boundaries take the upwind outflow, and the configured
    value on inflow through a Dirichlet edge: its ghost cells hold that
    value, the others 0."""

    def __init__(self, vel: FaceVelocity, shape, dirichlet_edges, dirichlet_value):
        self.qx_pos, self.qx_neg = np.maximum(vel.qx, 0.0), np.minimum(vel.qx, 0.0)
        self.qy_pos, self.qy_neg = np.maximum(vel.qy, 0.0), np.minimum(vel.qy, 0.0)
        nx, ny = shape
        self.ux, self.uy = np.zeros((nx + 2, ny)), np.zeros((nx, ny + 2))
        for e in dirichlet_edges:
            axis, ghosts = EDGE_CELLS[e]
            (self.ux, self.uy)[axis][ghosts] = dirichlet_value

    def fluxes(self, u):
        """Face fluxes ``(Fx, Fy)`` of the cell field ``u``, positive in the
        +axis direction."""
        self.ux[1:-1, :] = u
        self.uy[:, 1:-1] = u
        Fx = self.qx_pos * self.ux[:-1, :] + self.qx_neg * self.ux[1:, :]
        Fy = self.qy_pos * self.uy[:, :-1] + self.qy_neg * self.uy[:, 1:]
        return Fx, Fy


class TransportSolver:
    """Operators, initial state, step and run loop of one transport run.

    ``MicroSolver`` and ``MacroSolver`` construct it from their geometry,
    passing their ``consumer`` keyword through, and define ``step`` and
    ``run`` on top of ``_step`` and ``_run``.  ``step`` passes in the Newton
    solve and the precipitate update under its own module's names, so that
    tracing which patches a module's names (``perfbench/spans.py``) tells
    the two scales apart.
    """

    def __init__(self, cfg: TransportConfig, mask, h, axis_weights, owners, weight, carriers,
                 velocity: FaceVelocity | None = None, grid=None, *, consumer=None):
        """``mask`` marks the active cells of the grid, ``owners`` the
        active-cell index of each reaction carrier, ``carriers`` the
        carriers' ``(x, y)`` positions and ``weight`` their coupling.
        ``consumer``, when given, takes each stored snapshot in place of
        ``Run.states`` (see `_run`)."""
        self.cfg = cfg
        self.consumer = consumer
        self.mask = mask
        self.h = h
        self.grid = grid
        self.owners = owners
        self.weight = weight
        self.carriers = carriers
        self.vel = velocity
        # before the direct solve is built: a factor is the costly part
        if velocity is not None:
            velocity.check_cfl(cfg.dt, h)
            self._upwind = _Upwind(velocity, mask.shape, cfg.dirichlet_edges, cfg.dirichlet_value)
        self.implicit = ImplicitOperator(mask, axis_weights, cfg.dirichlet_edges, h * h / cfg.dt)

    def initial_state(self) -> State:
        cfg = self.cfg
        xs = (np.arange(self.mask.shape[0]) + 0.5) * self.h
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        u0 = _sample(cfg.u_init, X[self.mask], Y[self.mask])
        v0 = _sample(cfg.v_init, *self.carriers)
        if np.any(u0 < 0) or np.any(v0 < 0) or np.any(u0 > cfg.m0 + 1e-12) or np.any(v0 > cfg.m0 + 1e-12):
            raise ConfigError("initial data must lie in [0, m0]")
        u = np.zeros(self.mask.shape)
        u[self.mask] = u0
        w0 = dissolution_rate(cfg.rate_law, u0[self.owners], v0.ravel())
        return State(t=0.0, u=u, v=v0, w=np.asarray(w0).reshape(v0.shape))

    def _advect(self, u):
        """Explicit upwind advection; returns (u_new, inflow integral)."""
        if self.vel is None:
            return u, 0.0
        h, dt = self.h, self.cfg.dt
        Fx, Fy = self._upwind.fluxes(u)
        div = (Fx[1:, :] - Fx[:-1, :]) + (Fy[:, 1:] - Fy[:, :-1])
        u_new = u - (dt / h) * div
        u_new[~self.mask] = 0.0
        inflow = float(Fx[0, :].sum() - Fx[-1, :].sum() + Fy[:, 0].sum() - Fy[:, -1].sum()) * h * dt
        return u_new, inflow

    def _step(self, state: State, newton, ode_step) -> tuple[State, MassRow]:
        """One split step, with ``newton`` the implicit reaction-diffusion
        solve and ``ode_step`` the exact precipitate update."""
        cfg = self.cfg
        dt = cfg.dt
        law = cfg.rate_law

        u_adv, adv_in = self._advect(state.u)
        u0 = u_adv[self.mask]
        rhs = self.implicit.shift * u0 + self.implicit.dir_weight * cfg.dirichlet_value
        v = state.v.ravel()
        u_act, _ = newton(self.implicit, rhs, self.owners, self.weight, law, v, dt, u0, newton_tol=cfg.newton_tol)
        u_new = np.zeros_like(state.u)
        u_new[self.mask] = u_act

        u_own = u_act[self.owners]
        v_new, _w_eff = ode_step(law, u_own, v, dt)
        w_new = dissolution_rate(law, u_own, v_new)

        diff_in = float(np.sum(self.implicit.dir_weight * (cfg.dirichlet_value - u_act))) * dt
        shape = state.v.shape
        new = State(t=state.t + dt, u=u_new, v=np.asarray(v_new).reshape(shape),
                    w=np.asarray(w_new).reshape(shape))
        row = self._mass_row(new, u_act, adv_in, diff_in)
        self._check(new, row)
        return new, row

    def _mass_row(self, state: State, u, adv_in, diff_in) -> MassRow:
        """The mass report of ``state``, ``u`` its solute on the active cells."""
        v = state.v
        return MassRow(
            t=state.t,
            mass_u=float(u.sum() * (self.h * self.h)),
            mass_v=float(self.weight * v.sum()),
            flux_adv=adv_in,
            flux_diff=diff_in,
            drift=0.0,  # filled in by _run()
            min_u=float(u.min()) if u.size else 0.0,
            max_u=float(u.max()) if u.size else 0.0,
            min_v=float(v.min()) if v.size else 0.0,
            max_v=float(v.max()) if v.size else 0.0,
        )

    def _check(self, state: State, row: MassRow):
        """StateError unless ``state`` keeps the run-time invariants, its
        solute and precipitate ranges read from its mass report ``row``."""
        slack = self.cfg.invariant_slack
        M = self.cfg.box_bound
        v, w = state.v, state.w
        msg = None
        if row.min_u < -slack or row.max_u > M + slack:
            msg = f"solute out of [0, {M}] at t={state.t}: range [{row.min_u}, {row.max_u}]"
        elif row.min_v < 0.0:
            msg = f"negative precipitate at t={state.t}"
        elif w.size and (w.min() < -slack or w.max() > 1.0 + slack):
            msg = f"dissolution rate out of [0,1] at t={state.t}"
        elif v.size and np.any((v > 0.0) & (np.abs(w - 1.0) > slack)):
            msg = f"w != 1 where v > 0 at t={state.t}"
        if msg is not None:
            err = StateError(msg)
            err.state = state  # diagnostic dump for the caller
            raise err

    def _run(self) -> Run:
        """Integrate to t_end.  The mass report has one row per step; field
        snapshots are taken at ``cfg.snapshot_steps`` and handed, as the
        step makes each one, to the consumer, which by default appends it
        to ``Run.states``.  A consumer that folds or writes the snapshots
        leaves ``states`` empty, so the run holds only the snapshot before,
        for the L1 step rate; the consumer may keep what it is given, since
        no step mutates a state.  The other fields are filled either way."""
        cfg = self.cfg
        stored = set(cfg.snapshot_steps)
        states = []
        consume = states.append if self.consumer is None else self.consumer
        state = previous = self.initial_state()
        consume(state)
        times, rates = [state.t], [0.0]
        rows = [self._mass_row(state, state.u[self.mask], 0.0, 0.0)]
        base = rows[0].mass_u + rows[0].mass_v
        influx = 0.0
        for k in range(1, cfg.n_steps + 1):
            state, row = self.step(state)
            influx += row.flux_adv + row.flux_diff
            row.drift = (row.mass_u + row.mass_v) - base - influx
            rows.append(row)
            if k in stored:
                consume(state)
                times.append(state.t)
                rates.append(l1_distance(state, previous, self.mask, self.h, self.weight) / (state.t - previous.t))
                previous = state
        return Run(cfg=cfg, times=np.array(times), states=states, mass=rows, l1_step_rates=rates, grid=self.grid)
