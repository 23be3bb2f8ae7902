import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porechem.cell_problems import solve_stokes_cell
from porechem.errors import ConfigError, StateError
from porechem.geometry import EDGES, UnitCell, tile_domain
from porechem.kinetics import RateLaw
from porechem.macro_sim import MacroConfig, MacroSolver, darcy_solve, diagonal_tensor
from porechem.micro_sim import MicroConfig, MicroSolver, difference_quotient_norm, reconstruct_velocity
from porechem.transport import FaceVelocity, TransportConfig, TransportSolver, l1_distance

from oracles import assert_same_run, cell_outflow, lumped_trajectory, stability_gap, upwind_advection

S_ISO = np.eye(2) * 0.768
K_ISO = np.eye(2) * 0.0177
CELL = UnitCell(8, 0.5, (0.5, 0.5))  # |Y| = 0.75, |Gamma| = 2


def closed_box(**kw):
    base = dict(dt=0.01, t_end=0.5, output_every=10, dirichlet_edges=(), resolution_cells=16)
    base.update(kw)
    return MacroConfig(**base)


def max_div(qx, qy):
    """max |div q| of face velocities on the unit square's m x m cells."""
    return float(np.max(np.abs(np.diff(qx, axis=0) + np.diff(qy, axis=1)))) * qy.shape[0]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("u", -0.5, "solute out of"),
        ("u", 1.5, "solute out of"),
        ("v", -1e-12, "negative precipitate"),
        ("w", 1.5, "dissolution rate out of"),
        ("w", 0.5, "w != 1 where v > 0"),
    ],
)
def test_each_run_time_invariant_raises_with_the_state(field, value, message):
    solver = MacroSolver(closed_box(v_init=0.05), CELL, S_ISO)

    def check(state):
        solver._check(state, solver._mass_row(state, state.u[solver.mask], 0.0, 0.0))

    state = solver.initial_state()
    check(state)
    getattr(state, field)[3, 4] = value
    with pytest.raises(StateError, match=message) as err:
        check(state)
    assert err.value.state is state


def test_darcy_uniform_pressure_gives_zero_flow():
    qx, qy, P = darcy_solve(np.eye(2) * 0.02, 16, 0.7, 0.7)
    assert np.max(np.abs(P - 0.7)) <= 1e-12
    assert max(np.max(np.abs(qx)), np.max(np.abs(qy))) <= 1e-12


def test_darcy_linear_drop_isotropic():
    kappa = 0.02
    qx, qy, P = darcy_solve(np.eye(2) * kappa, 16, 1.0, 0.0)
    assert np.max(np.abs(qx - kappa)) <= 1e-12   # q = kappa * dp * e1
    assert np.max(np.abs(qy)) <= 1e-12
    assert max_div(qx, qy) <= 1e-12


def test_darcy_anisotropic_divergence_free():
    # a full K has no closed-form Darcy solve here and the geometry never
    # produces one: rejected with the reason
    K = np.array([[3.0, 1.0], [1.0, 2.0]]) * 1e-2
    with pytest.raises(ConfigError, match="K must be diagonal"):
        darcy_solve(K, 32)
    # off-diagonals at round-off, as the cell problems return them, pass
    K_cell = np.array([[0.0174, 3e-13], [3e-13, 0.0174]])
    qx, qy, P = darcy_solve(K_cell, 32)
    assert np.all(qx == 0.0174) and np.all(qy == 0.0) and max_div(qx, qy) == 0.0


def test_darcy_requires_spd():
    with pytest.raises(ConfigError):
        darcy_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), 8)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_non_finite_tensor_entry_is_rejected(entry, value):
    T = np.eye(2)
    T[entry] = value
    with pytest.raises(ConfigError):
        diagonal_tensor("S", T)


def test_zero_data_steady():
    r = MacroSolver(closed_box(u_init=0.0, v_init=0.0), CELL, S_ISO).run()
    for row in r.mass:
        assert row.max_u == 0.0 and row.max_v == 0.0


def test_equilibrium_steady():
    # arbitrary nonnegative precipitate profile is a fixed point at u = u_sol
    cfg = closed_box(u_init=1.0, v_init=lambda x, y: 0.4 + 0.3 * np.cos(np.pi * x) ** 2)
    r = MacroSolver(cfg, CELL, S_ISO).run()
    assert np.array_equal(r.states[0].u, r.states[-1].u)
    assert np.array_equal(r.states[0].v, r.states[-1].v)


def test_t_end_zero():
    r = MacroSolver(closed_box(t_end=0.0, u_init=0.2), CELL, S_ISO).run()
    assert len(r.states) == 1


def test_storage_coupled_conservation():
    r = MacroSolver(closed_box(u_init=0.0, v_init=0.05, t_end=1.0), CELL, S_ISO).run()
    total0 = r.mass[0].mass_u + r.mass[0].mass_v
    for row in r.mass:
        assert abs(row.mass_u + row.mass_v - total0) <= 1e-12 * total0 + 1e-14
        assert abs(row.drift) <= 1e-12


def test_matches_lumped_oracle():
    c_g = CELL.surface_measure / CELL.pore_area
    cfg = closed_box(dt=0.002, t_end=0.2, output_every=10, u_init=0.0, v_init=0.05)
    r = MacroSolver(cfg, CELL, S_ISO).run()
    oracle = lumped_trajectory(c_g, 0.0, 0.05, 0.2)
    u_scale = max(abs(oracle(t)[0]) for t in r.times)
    for t, state in zip(r.times, r.states):
        u_ref, v_ref = oracle(t)
        assert abs(state.u.mean() - u_ref) <= 0.02 * u_scale
        assert abs(state.v.mean() - v_ref) <= 0.02 * 0.05


def test_replay_bitwise():
    cfg = closed_box(u_init=0.3, v_init=0.02, t_end=0.2)
    ra, rb = MacroSolver(cfg, CELL, S_ISO).run(), MacroSolver(cfg, CELL, S_ISO).run()
    for sa, sb in zip(ra.states, rb.states):
        assert np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.v, sb.v)


def test_dt_self_convergence():
    def final(dt):
        cfg = MacroConfig(dt=dt, t_end=0.16, output_every=10**6,
                          dirichlet_edges=("left",), resolution_cells=16,
                          u_init=lambda x, y: 0.8 * np.sin(np.pi * x) * np.sin(np.pi * y),
                          v_init=0.02)
        return MacroSolver(cfg, CELL, S_ISO).run().states[-1]

    ref = final(0.0025)
    e1 = np.max(np.abs(final(0.02).u - ref.u))
    e2 = np.max(np.abs(final(0.01).u - ref.u))
    assert 1.5 <= e1 / e2 <= 4.0


def test_w_consistency():
    r = MacroSolver(closed_box(u_init=0.4, v_init=0.03), CELL, S_ISO).run()
    for s in r.states:
        assert np.all((s.w >= 0.0) & (s.w <= 1.0))
        assert np.all(s.w[s.v > 0.0] == 1.0)


def test_full_tensor_run_conserves():
    # a full S would need a stencil that is not monotone: rejected before
    # the run, so no run can leave the box bounds mid-way
    with pytest.raises(ConfigError, match="S must be diagonal"):
        MacroSolver(closed_box(), CELL, np.array([[0.8, 0.1], [0.1, 0.6]]))
    with pytest.raises(ConfigError, match="K must be diagonal"):
        MacroSolver(closed_box(), CELL, S_ISO, np.array([[0.02, 0.0], [1e-3, 0.02]]))
    # an off-diagonal at round-off, as the cell problems return it, passes
    MacroSolver(closed_box(), CELL, S_ISO + 1e-13 * np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_hole_free_micro_equals_macro():
    # the shared core: a grain-free pore-scale run is the macro run with
    # S = D I on the same grid, bitwise at every output
    D, n, eps = 0.7, 4, 1.0 / 8
    bump = lambda x, y: 0.6 * np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
    common = dict(dt=0.01, t_end=0.2, output_every=5, dirichlet_edges=("left",),
                  u_init=bump, v_init=bump)
    grid = tile_domain(UnitCell(n, 0.0, (0.5, 0.5)), eps)
    micro = MicroSolver(MicroConfig(D=D, **common), grid).run()
    macro = MacroSolver(MacroConfig(resolution_cells=grid.n_global, **common), grid.cell, D * np.eye(2)).run()
    assert len(micro.states) == len(macro.states) == 5
    assert np.array_equal(micro.times, macro.times)
    for a, b in zip(micro.states, macro.states):
        assert np.array_equal(a.u, b.u)
    assert micro.states[-1].u.max() < micro.states[0].u.max()


def test_darcy_transport_bounds():
    cfg = MacroConfig(dt=0.05, t_end=1.0, output_every=5,
                      velocity_mode="darcy", dirichlet_edges=("left", "right"),
                      dirichlet_value=0.6, resolution_cells=16,
                      u_init=0.0, v_init=0.01)
    r = MacroSolver(cfg, CELL, S_ISO, K_ISO).run()
    for row in r.mass:
        assert row.min_u >= -1e-10
        assert row.max_u <= 1.0 + 1e-10
        assert row.min_v >= 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up-right", "down-left"])
@pytest.mark.parametrize("edges", [(), ("left",), ("right",), ("bottom", "top"), ("left", "right", "bottom", "top")],
                         ids=lambda e: "+".join(e) or "none")
def test_upwind_inflow_takes_the_dirichlet_value_on_its_edges(sign, edges):
    # one advection step of u = 0 under a uniform velocity: each Dirichlet
    # edge the flow enters through brings in q * u_D, an outflow edge nothing
    m, dt, u_D, (qx, qy) = 8, 0.01, 0.7, (2.0, 3.0)
    h = 1.0 / m
    cfg = TransportConfig(dt=dt, t_end=dt, dirichlet_edges=edges, dirichlet_value=u_D)
    vel = FaceVelocity(qx=np.full((m + 1, m), sign * qx), qy=np.full((m, m + 1), sign * qy))
    solver = TransportSolver(cfg, np.ones((m, m), dtype=bool), h, (1.0, 1.0), owners=np.zeros(0, dtype=np.intp),
                             weight=0.0, carriers=(np.zeros(0), np.zeros(0)), velocity=vel)
    inflow = {"left": (np.s_[0, :], qx), "bottom": (np.s_[:, 0], qy)} if sign > 0 else \
        {"right": (np.s_[-1, :], qx), "top": (np.s_[:, -1], qy)}
    expected = np.zeros((m, m))
    for e in set(edges) & set(inflow):
        cells, q = inflow[e]
        expected[cells] += dt / h * q * u_D
    u, influx = solver._advect(np.zeros((m, m)))
    assert u == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert influx == pytest.approx(expected.sum() * h * h, rel=1e-14, abs=0.0)


EDGE_SUBSETS = [tuple(e for i, e in enumerate(EDGES) if bits >> i & 1) for bits in range(2 ** len(EDGES))]


def _advecting_solver(flow, edges):
    """A solver of each scale whose advection moves every face: the
    reconstructed Stokes flow of a grain with a pressure gradient along
    both axes, or the Darcy flow to the right or to the left."""
    common = dict(dt=0.001, t_end=0.001, dirichlet_edges=edges, dirichlet_value=0.3)
    if flow == "micro":
        cell = UnitCell(8, 0.5, (0.5, 0.5))
        cfg = MicroConfig(velocity_mode="reconstructed", pressure_gradient=(-4.0, 1.0), **common)
        return MicroSolver(cfg, tile_domain(cell, 0.25), solve_stokes_cell(cell))
    p_left, p_right = (1.0, 0.0) if flow == "darcy-right" else (0.0, 1.0)
    cfg = MacroConfig(velocity_mode="darcy", resolution_cells=16, p_left=p_left, p_right=p_right, **common)
    return MacroSolver(cfg, CELL, S_ISO, K_ISO)


@pytest.mark.parametrize("edges", EDGE_SUBSETS, ids=lambda e: "+".join(e) or "none")
@pytest.mark.parametrize("flow", ["micro", "darcy-right", "darcy-left"])
def test_advection_is_the_padded_upwind_step_bit_for_bit(flow, edges):
    # the splits and ghost-padded buffers are set up once per run; every
    # step must give the bits of padding the field and splitting the
    # velocity anew, on the same solver step after step
    solver = _advecting_solver(flow, edges)
    vel, cfg = solver.vel, solver.cfg
    rng = np.random.default_rng(len(edges))
    for _ in range(3):
        u = np.where(solver.mask, rng.uniform(0.0, 1.0, solver.mask.shape), 0.0)
        got, inflow = solver._advect(u)
        want, want_inflow = upwind_advection(u, vel.qx, vel.qy, solver.mask, solver.h, cfg.dt,
                                             cfg.dirichlet_edges, cfg.dirichlet_value)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.float64(inflow).view(np.int64) == np.float64(want_inflow).view(np.int64)


def test_stability_gap_identical_runs():
    cfg = closed_box(u_init=0.3, v_init=0.05, t_end=0.2)
    g = stability_gap(MacroSolver(cfg, CELL, S_ISO).run(), MacroSolver(cfg, CELL, S_ISO).run())
    assert np.all(g.norm_u == 0.0)
    assert np.all(g.norm_v == 0.0)


def test_stability_gap_perturbation():
    base = closed_box(u_init=lambda x, y: 0.3 + 0.0 * x, v_init=0.05,
                      t_end=0.4, dirichlet_edges=("left",))
    pert = closed_box(u_init=lambda x, y: 0.3 + 1e-3 * np.sin(np.pi * x) * np.sin(np.pi * y),
                      v_init=0.05, t_end=0.4, dirichlet_edges=("left",))
    g = stability_gap(MacroSolver(base, CELL, S_ISO).run(), MacroSolver(pert, CELL, S_ISO).run())
    assert g.norm_u[0] > 0.0
    assert np.isfinite(g.lam)
    # fitted envelope bounds the trajectory
    assert np.all(g.norm_u <= g.c_env * np.exp(g.lam * g.times) * (1.0 + 1e-9))


def test_stability_gap_config_mismatch():
    r1 = MacroSolver(closed_box(t_end=0.2, u_init=0.1), CELL, S_ISO).run()
    r2 = MacroSolver(closed_box(t_end=0.3, u_init=0.1), CELL, S_ISO).run()
    r3 = MacroSolver(closed_box(t_end=0.2, output_every=5, u_init=0.1), CELL, S_ISO).run()
    for other in (r2, r3):
        with pytest.raises(ConfigError):
            stability_gap(r1, other)


def test_config_validation():
    with pytest.raises(ConfigError):
        MacroSolver(closed_box(), CELL, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ConfigError):
        MacroSolver(closed_box(), CELL, -np.eye(2))
    with pytest.raises(ConfigError, match="darcy velocity mode needs the permeability tensor K"):
        MacroSolver(closed_box(velocity_mode="darcy"), CELL, S_ISO)
    with pytest.raises(ConfigError):
        MacroConfig(dt=0.01, t_end=1.0, dirichlet_edges=("up",))


def _values(a):
    return lambda x, y: a


@settings(max_examples=25, deadline=None)
@given(
    exponent=st.floats(1.0, 3.0),
    k=st.floats(0.5, 20.0),
    u_onset=st.floats(0.0, 0.5),
    u_span=st.floats(0.2, 1.0),
    s=st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)),
    side=st.integers(0, 7),
    cfl=st.floats(0.01, 1.0),
    pressures=st.sampled_from([(1.0, 0.0), (0.0, 1.0)]),
    edges=st.sampled_from([(), ("left",), ("left", "right"), ("bottom", "top")]),
    dirichlet_value=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_properties_at_kinetic_bound(exponent, k, u_onset, u_span, s, side, cfl, pressures, edges,
                                          dirichlet_value, seed):
    # the macro twin of the micro test: dt at the kinetic bound
    # dt*k*L_r = 1, and a Darcy velocity at the advective CFL number cfl, on
    # a grain of side k/8, k = 0..7 (storage factor c_g from 0 to 14.9)
    cell = UnitCell(16, side / 8, (0.5, 0.5))
    law = RateLaw(u_onset=u_onset, u_sol=u_onset + u_span, exponent=exponent, k=k)
    m0, m = 1.0, 8
    dt = 1.0 / (k * law.lipschitz_bound(max(m0, law.u_sol, dirichlet_value)))
    K = np.diag([cfl / (m * dt), 1.0])  # |q| = K11 * |p_left - p_right| = cfl * h / dt
    rng = np.random.default_rng(seed)
    u_lo, v_lo = rng.uniform(0.0, m0, m * m), rng.uniform(0.0, m0, (m, m))
    u_hi = u_lo + rng.uniform(0.0, 1.0, m * m) * (m0 - u_lo)
    v_hi = v_lo + rng.uniform(0.0, 1.0, (m, m)) * (m0 - v_lo)
    runs = []
    for u0, v0 in ((u_lo, v_lo), (u_hi, v_hi)):
        cfg = MacroConfig(dt=dt, t_end=6 * dt, velocity_mode="darcy",
                          p_left=pressures[0], p_right=pressures[1], resolution_cells=m, rate_law=law,
                          m0=m0, dirichlet_edges=edges, dirichlet_value=dirichlet_value,
                          u_init=_values(u0), v_init=_values(v0))
        r = MacroSolver(cfg, cell, np.diag(s), K).run()  # per-step invariant checks run inside
        for row in r.mass:
            assert -cfg.invariant_slack <= row.min_u
            assert row.max_u <= cfg.box_bound + cfg.invariant_slack
            assert row.min_v >= 0.0
            assert abs(row.drift) <= cfg.invariant_slack
        runs.append(r)
    h2 = 1.0 / (m * m)
    c_g = cell.surface_measure / cell.pore_area
    d = [np.abs(a.u - b.u).sum() * h2 + c_g * h2 * np.abs(a.v - b.v).sum()
         for a, b in zip(runs[0].states, runs[1].states)]
    for i in range(1, len(d)):
        assert d[i] <= d[i - 1] * (1.0 + 1e-8) + 1e-14


def test_a_consumer_takes_the_snapshots_of_the_stored_run():
    cfg = closed_box(u_init=0.3, v_init=0.05, t_end=0.3, output_every=7, dirichlet_edges=("left",),
                     velocity_mode="darcy", p_left=2.0)
    taken = []
    streamed = MacroSolver(cfg, CELL, S_ISO, K_ISO, consumer=taken.append).run()
    assert_same_run(streamed, taken, MacroSolver(cfg, CELL, S_ISO, K_ISO).run())


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("scale", ["micro", "macro"])
def test_runs_record_the_l1_step_rates_of_their_stored_snapshots(scale):
    # flow on and an uneven last gap (steps 0, 7, 14, 21, 28, 30): a run
    # whose consumer keeps nothing records, bit for bit, the rates
    # recomputed from the snapshots of a run that kept them, with the
    # weights of the scale's mass report
    common = dict(dt=0.01, t_end=0.3, output_every=7, dirichlet_edges=("left",), u_init=0.3, v_init=0.05)
    if scale == "micro":
        grid, stokes = tile_domain(CELL, 0.25), solve_stokes_cell(CELL)
        cfg = MicroConfig(velocity_mode="reconstructed", pressure_gradient=(-2.0, 0.0), **common)

        def solver(consumer=None):
            return MicroSolver(cfg, grid, stokes, consumer=consumer)

        weight = grid.eps * grid.h
    else:
        cfg = closed_box(velocity_mode="darcy", p_left=2.0, **common)

        def solver(consumer=None):
            return MacroSolver(cfg, CELL, S_ISO, K_ISO, consumer=consumer)

        weight = CELL.surface_measure / CELL.pore_area / cfg.resolution_cells**2
    kept = solver()
    assert kept.weight == pytest.approx(weight, rel=1e-15)
    stored = kept.run()
    states = stored.states
    want = [0.0] + [l1_distance(b, a, kept.mask, kept.h, kept.weight) / (b.t - a.t) for a, b in zip(states, states[1:])]
    assert np.allclose(np.diff(stored.times), [0.07] * 4 + [0.02], rtol=1e-12)
    assert min(want[1:]) > 0.0
    if scale == "micro":
        assert np.array_equal(_bits(difference_quotient_norm(stored)), _bits(want))
    streamed = solver(lambda state: None).run()
    assert streamed.states == []
    for run in (stored, streamed):
        assert np.array_equal(_bits(run.l1_step_rates), _bits(want))


@functools.cache
def _micro_flow(cell):
    """The pore-scale grid at eps = 1/4 of ``cell``, its Stokes cell
    solutions, and the largest total outflow of a cell under the velocity
    they give for a unit pressure drop along x."""
    grid, stokes = tile_domain(cell, 0.25), solve_stokes_cell(cell)
    vel = reconstruct_velocity(grid, stokes, (-1.0, 0.0))
    return grid, stokes, cell_outflow(vel.qx, vel.qy).max()


@pytest.mark.parametrize("scale", ["micro", "macro"])
@settings(max_examples=25, deadline=None)
@given(
    k=st.floats(0.5, 20.0),
    kinetic=st.floats(0.05, 1.0),
    cfl=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
    direction=st.sampled_from([1.0, -1.0]),
    side=st.sampled_from([0.25, 0.5, 0.75]),
    edges=st.sampled_from([(), ("left",), ("left", "right"), ("bottom", "top")]),
    dirichlet_value=st.floats(0.0, 1.0),
    crossing=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_l1_contraction_of_ordered_and_crossing_pairs(scale, k, kinetic, cfl, direction, side, edges, dirichlet_value,
                                                      crossing, seed):
    # pairs of initial states, ordered or drawn on their own (so that they
    # cross), without flow or under flow along +x or -x at the advective CFL
    # number cfl, and dt at the fraction kinetic of the kinetic bound:
    # l1_distance between the runs' snapshots, with the solver's own
    # weights, does not grow.  The step preserves mass and order, so by the
    # Crandall-Tartar lemma it contracts crossing pairs too.  Micro pairs
    # take the reconstructed Stokes flow on the grid at eps = 1/4, macro
    # pairs the Darcy flow at m = 8
    cell = UnitCell(8, side, (0.5, 0.5))
    law = RateLaw(k=k)
    m0 = 1.0
    dt = kinetic / (k * law.lipschitz_bound(max(m0, law.u_sol, dirichlet_value)))
    common = dict(dt=dt, t_end=6 * dt, rate_law=law, m0=m0, dirichlet_edges=edges, dirichlet_value=dirichlet_value)
    if scale == "micro":
        grid, stokes, unit = _micro_flow(cell)
        cfg = MicroConfig(velocity_mode="reconstructed", pressure_gradient=(-direction * cfl * grid.h / (dt * unit), 0.0),
                          **common)
        nu, nv = grid.n_fluid_cells, grid.faces.count

        def run(u0, v0):
            return MicroSolver(replace(cfg, u_init=_values(u0), v_init=_values(v0)), grid, stokes)
    else:
        m = 8
        cfg = MacroConfig(velocity_mode="darcy", p_left=max(direction, 0.0) * cfl, p_right=max(-direction, 0.0) * cfl,
                          resolution_cells=m, **common)
        K = np.diag([1.0 / (m * dt), 1.0])  # |q| = K11 * |p_left - p_right| = cfl * h / dt
        nu, nv = m * m, (m, m)

        def run(u0, v0):
            return MacroSolver(replace(cfg, u_init=_values(u0), v_init=_values(v0)), cell, S_ISO, K)
    rng = np.random.default_rng(seed)
    u_a, v_a = rng.uniform(0.0, m0, nu), rng.uniform(0.0, m0, nv)
    if crossing:
        u_b, v_b = rng.uniform(0.0, m0, nu), rng.uniform(0.0, m0, nv)
    else:  # above the first state, within the bound
        u_b = u_a + rng.uniform(0.0, 1.0, nu) * (m0 - u_a)
        v_b = v_a + rng.uniform(0.0, 1.0, nv) * (m0 - v_a)
    a, b = run(u_a, v_a), run(u_b, v_b)
    d = [l1_distance(x, y, a.mask, a.h, a.weight) for x, y in zip(a.run().states, b.run().states)]
    assert d[0] > 0.0
    for i in range(1, len(d)):
        assert d[i] <= d[i - 1] * (1.0 + 1e-8) + 1e-14
