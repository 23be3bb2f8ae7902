import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porechem.cell_problems import assemble_K, solve_stokes_cell
from porechem.cli import _series_rows
from porechem.errors import ConfigError
from porechem.geometry import UnitCell, tile_domain
from porechem.homogenize import unfold
from porechem.kinetics import RateLaw
from porechem.micro_sim import (
    MicroConfig,
    MicroSolver,
    difference_quotient_norm,
    reconstruct_velocity,
)
from porechem.transport import l1_distance

from oracles import assert_same_run, cell_outflow, lumped_trajectory


@pytest.fixture(scope="module")
def cell():
    return UnitCell(8, 0.5, (0.5, 0.5))


@pytest.fixture(scope="module")
def grid(cell):
    return tile_domain(cell, 0.25)


def micro_l1(a, b, grid):
    """`l1_distance` with the pore-scale weights: h^2 per fluid cell, eps*h per face."""
    return l1_distance(a, b, grid.fluid_mask, grid.h, grid.eps * grid.h)


def closed_box(**kw):
    base = dict(dt=0.01, t_end=0.5, output_every=10, dirichlet_edges=())
    base.update(kw)
    return MicroConfig(**base)


def test_zero_data_is_steady(grid):
    r = MicroSolver(closed_box(u_init=0.0, v_init=0.0), grid).run()
    for row in r.mass:
        assert row.max_u == 0.0 and row.max_v == 0.0


def test_solubility_equilibrium_is_steady(grid):
    # any nonnegative precipitate profile is a fixed point at u = u_sol
    v_profile = lambda x, y: 0.3 + 0.2 * np.sin(2 * np.pi * x) ** 2
    r = MicroSolver(closed_box(u_init=1.0, v_init=v_profile), grid).run()
    s0, s1 = r.states[0], r.states[-1]
    assert np.array_equal(s0.u, s1.u)
    assert np.array_equal(s0.v, s1.v)


def test_t_end_zero_returns_initial(grid):
    r = MicroSolver(closed_box(t_end=0.0, u_init=0.2, v_init=0.1), grid).run()
    assert len(r.states) == 1
    assert r.times[0] == 0.0
    assert difference_quotient_norm(r).tolist() == [0.0]


@pytest.mark.parametrize(
    "t_end, output_every, steps",
    [(0.95, 10, [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95]), (0.3, 10, [0, 10, 20, 30]),
     (0.05, 10, [0, 5]), (0.04, 1, [0, 1, 2, 3, 4]), (0.0, 10, [0])],
)
def test_run_stores_exactly_the_snapshot_steps(grid, t_end, output_every, steps):
    cfg = closed_box(u_init=0.0, v_init=0.05, t_end=t_end, output_every=output_every, dirichlet_edges=("left",))
    assert cfg.snapshot_steps == steps
    r = MicroSolver(cfg, grid).run()
    assert len(r.states) == len(steps) and len(r.mass) == steps[-1] + 1
    for s, t, state in zip(steps, r.times, r.states):
        # each stored state is the state of its step, whose mass row it reproduces
        assert r.mass[s].t == state.t == t
        assert r.mass[s].mass_u == float(state.u[grid.fluid_mask].sum() * (grid.h * grid.h))
        assert r.mass[s].mass_v == float(grid.eps * grid.h * state.v.sum())


def test_a_consumer_takes_the_snapshots_of_the_stored_run(cell, grid):
    # reconstructed flow and an uneven last gap: steps 0, 7, 14, 21, 28, 30
    cfg = closed_box(u_init=0.3, v_init=0.05, t_end=0.3, output_every=7, dirichlet_edges=("left",),
                     velocity_mode="reconstructed", pressure_gradient=(-2.0, 0.0))
    stokes = solve_stokes_cell(cell)
    taken = []
    streamed = MicroSolver(cfg, grid, stokes, consumer=taken.append).run()
    assert_same_run(streamed, taken, MicroSolver(cfg, grid, stokes).run())


def test_difference_quotient_uses_the_actual_last_gap(grid):
    # 95 steps stored every 10: the last gap is 5 steps, 0.05, not 0.1
    cfg = closed_box(u_init=0.0, v_init=0.05, t_end=0.95, dirichlet_edges=("left",))
    r = MicroSolver(cfg, grid).run()
    dq = difference_quotient_norm(r)
    last = micro_l1(r.states[-1], r.states[-2], grid)
    assert last > 0.0
    assert dq[-1] == pytest.approx(last / 0.05, rel=1e-12)
    # the series CSV's rates, recorded by a run whose consumer kept nothing
    streamed = MicroSolver(cfg, grid, consumer=lambda state: None).run()
    assert [row["l1_step_rate"] for row in _series_rows(streamed)] == dq.tolist()


def test_closed_box_conservation(grid):
    r = MicroSolver(closed_box(u_init=0.0, v_init=0.05, t_end=1.0), grid).run()
    total0 = r.mass[0].mass_u + r.mass[0].mass_v
    for row in r.mass:
        assert abs(row.mass_u + row.mass_v - total0) <= 1e-12 * total0 + 1e-14
        assert abs(row.drift) <= 1e-12


def test_closed_box_matches_lumped_oracle(grid, cell):
    # large diffusivity -> well mixed; dissolution then stall at the
    # conserved equilibrium u = c_g v0
    c_g = cell.surface_measure / cell.pore_area
    cfg = closed_box(D=50.0, dt=0.002, t_end=0.2, output_every=10, u_init=0.0, v_init=0.05)
    r = MicroSolver(cfg, grid).run()
    oracle = lumped_trajectory(c_g, 0.0, 0.05, 0.2)
    h2 = grid.h**2
    fl = grid.fluid_mask
    area = fl.sum() * h2
    u_scale = max(abs(oracle(t)[0]) for t in r.times)
    for t, state in zip(r.times, r.states):
        u_ref, v_ref = oracle(t)
        u_mean = state.u[fl].sum() * h2 / area
        v_mean = state.v.mean() if state.v.size else 0.0
        assert abs(u_mean - u_ref) <= 0.02 * u_scale
        assert abs(v_mean - v_ref) <= 0.02 * max(0.05, 1e-9)


def test_oracle_eps_independent(cell):
    # eps * |Gamma^eps| = |Gamma| makes the well-mixed limit eps-free
    c_g = cell.surface_measure / cell.pore_area
    oracle = lumped_trajectory(c_g, 0.0, 0.05, 0.2)
    u_ref, _ = oracle(0.2)
    for eps in (0.5, 0.25, 0.125):
        grid = tile_domain(cell, eps)
        cfg = closed_box(D=50.0, dt=0.002, t_end=0.2, output_every=100, u_init=0.0, v_init=0.05)
        r = MicroSolver(cfg, grid).run()
        fl = grid.fluid_mask
        u_mean = r.states[-1].u[fl].mean()
        assert abs(u_mean - u_ref) <= 0.02 * max(u_ref, 0.05)


def test_l1_distance_basics(grid):
    cfg = closed_box(t_end=0.0, u_init=0.3, v_init=0.1)
    s = MicroSolver(cfg, grid).run().states[0]
    assert micro_l1(s, s, grid) == 0.0
    s2 = replace(s, u=s.u + np.where(grid.fluid_mask, 0.25, 0.0))
    vol = grid.n_fluid_cells * grid.h**2
    assert micro_l1(s, s2, grid) == pytest.approx(0.25 * vol, rel=1e-12)


def test_l1_contraction_ordered_data(grid):
    def pair(low_u, hi_off, v_lo, v_hi):
        c1 = MicroConfig(dt=0.01, t_end=0.4, output_every=5, dirichlet_edges=("left",),
                         u_init=low_u, v_init=v_lo)
        c2 = MicroConfig(dt=0.01, t_end=0.4, output_every=5, dirichlet_edges=("left",),
                         u_init=lambda x, y: low_u(x, y) + hi_off if callable(low_u) else low_u + hi_off,
                         v_init=v_hi)
        return MicroSolver(c1, grid).run(), MicroSolver(c2, grid).run()

    r1, r2 = pair(lambda x, y: 0.2 * np.sin(np.pi * x) * np.sin(np.pi * y), 0.3, 0.02, 0.05)
    d = [micro_l1(a, b, grid) for a, b in zip(r1.states, r2.states)]
    for i in range(1, len(d)):
        assert d[i] <= d[i - 1] * (1.0 + 1e-8) + 1e-14
    assert d[-1] <= d[0]


def test_replay_is_bitwise(grid):
    cfg = closed_box(u_init=0.3, v_init=0.02, t_end=0.2)
    ra = MicroSolver(cfg, grid).run()
    rb = MicroSolver(cfg, grid).run()
    for sa, sb in zip(ra.states, rb.states):
        assert np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.v, sb.v)
        assert np.array_equal(sa.w, sb.w)


def test_dt_self_convergence(grid):
    def final(dt):
        cfg = MicroConfig(dt=dt, t_end=0.16, output_every=10**6, dirichlet_edges=("left",),
                          u_init=lambda x, y: 0.8 * np.sin(np.pi * x) * np.sin(np.pi * y),
                          v_init=0.02)
        return MicroSolver(cfg, grid).run().states[-1]

    ref = final(0.0025)
    e1 = np.max(np.abs(final(0.02).u - ref.u))
    e2 = np.max(np.abs(final(0.01).u - ref.u))
    assert 1.5 <= e1 / e2 <= 4.0  # first order in time


def test_box_bounds_with_dirichlet(grid):
    cfg = MicroConfig(dt=0.01, t_end=0.3, output_every=5, dirichlet_edges=("left", "right"),
                      dirichlet_value=0.8, u_init=0.1, v_init=0.02)
    r = MicroSolver(cfg, grid).run()
    for row in r.mass:
        assert row.min_u >= -1e-10
        assert row.max_u <= 1.0 + 1e-10  # box bound max(m0, u_sol, u_D) = 1
        assert row.min_v >= 0.0


def test_w_consistency(grid):
    cfg = closed_box(u_init=0.4, v_init=0.03, t_end=0.3)
    r = MicroSolver(cfg, grid).run()
    law = cfg.rate_law
    for state in r.states:
        assert np.all((state.w >= 0.0) & (state.w <= 1.0))
        assert np.all(state.w[state.v > 0.0] == 1.0)


def test_difference_quotient_norm(grid):
    cfg = closed_box(u_init=1.0, v_init=0.3, t_end=0.3)  # equilibrium
    r = MicroSolver(cfg, grid).run()
    dq = difference_quotient_norm(r)
    assert np.all(dq == 0.0)

    cfg = closed_box(u_init=0.0, v_init=0.05, t_end=0.5)
    r = MicroSolver(cfg, grid).run()
    dq = difference_quotient_norm(r)
    assert dq[0] == 0.0  # no gap before the first snapshot
    assert np.all(dq[1:] <= dq[1] * (1.0 + 1e-8) + 1e-14)  # monotone bound


def test_reconstructed_velocity_properties(cell, grid):
    sols = solve_stokes_cell(cell)
    vel0 = reconstruct_velocity(grid, sols, (0.0, 0.0))
    assert not vel0.qx.any() and not vel0.qy.any()

    vel = reconstruct_velocity(grid, sols, (-1.0, 0.0))
    K, _ = assemble_K(cell, sols)
    ucc = 0.5 * (vel.qx[:-1, :] + vel.qx[1:, :])
    N, n = grid.cells_per_edge, cell.n
    means = (ucc.reshape(N, n, N, n) * cell.fluid[None, :, None, :]).sum(axis=(1, 3)) / cell.fluid.sum()
    assert np.max(np.abs(means - K[0, 0])) <= 1e-10  # eps-cell average is K e1

    # every tiling repeats the cell's face velocities, so each cell's outflow,
    # and with it the CFL number at a given h, is the same at every eps
    for G in ((-1.0, 0.0), (-1.0, 0.5)):
        v1 = reconstruct_velocity(tile_domain(cell, 1.0), sols, G)
        outflow = cell_outflow(v1.qx, v1.qy)
        for eps in (0.5, 0.25, 0.125):
            g2 = tile_domain(cell, eps)
            v2 = reconstruct_velocity(g2, sols, G)
            assert np.array_equal(cell_outflow(v2.qx, v2.qy), np.tile(outflow, (g2.cells_per_edge,) * 2))


def test_reconstructed_velocity_geometry_mismatch(grid):
    other = UnitCell(8, 0.25, (0.5, 0.5))
    sols = solve_stokes_cell(other)
    with pytest.raises(ConfigError):
        reconstruct_velocity(grid, sols, (-1.0, 0.0))


def test_advective_run_monotone_bounds(cell, grid):
    sols = solve_stokes_cell(cell)
    cfg = MicroConfig(dt=0.02, t_end=1.0, output_every=10,
                      dirichlet_edges=("left", "right"), dirichlet_value=0.5,
                      u_init=0.0, v_init=0.01,
                      velocity_mode="reconstructed", pressure_gradient=(-1.0, 0.0))
    r = MicroSolver(cfg, grid, sols).run()
    for row in r.mass:
        assert -1e-10 <= row.min_u and row.max_u <= 1.0 + 1e-10
        assert row.min_v >= 0.0


def test_diagonal_flow_at_outflow_cfl_one_keeps_the_box(cell, grid):
    # an upwind step is monotone while dt/h times every cell's total outflow
    # is at most 1.  Under a diagonal pressure gradient that outflow exceeds
    # the largest face velocity, so the bound must read the outflow: just
    # past it the run is rejected, and at it the solute stays in [0, 1]
    sols = solve_stokes_cell(cell)
    dt = 0.01
    vel = reconstruct_velocity(grid, sols, (-1.0, -1.0))
    unit = cell_outflow(vel.qx, vel.qy).max()
    G = grid.h / (dt * unit)  # outflow CFL number 1
    cfg = MicroConfig(dt=dt, t_end=0.2, D=1e-3, u_init=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                      velocity_mode="reconstructed", pressure_gradient=(-G, -G))
    with pytest.raises(ConfigError, match="violates the advective CFL bound"):
        MicroSolver(replace(cfg, pressure_gradient=(-1.01 * G, -1.01 * G)), grid, sols)
    r = MicroSolver(cfg, grid, sols).run()
    assert min(row.min_u for row in r.mass) >= 0.0 and max(row.max_u for row in r.mass) <= 1.0


def test_config_validation(grid):
    with pytest.raises(ConfigError):
        MicroConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ConfigError):
        MicroConfig(dt=0.01, t_end=1.0, velocity_mode="warp")
    with pytest.raises(ConfigError):
        MicroConfig(dt=0.01, t_end=1.0, dirichlet_edges=("north",))
    with pytest.raises(ConfigError, match="edge 'left' is named twice"):
        MicroConfig(dt=0.01, t_end=1.0, dirichlet_edges=("left", "left"))
    with pytest.raises(ConfigError):
        # kinetic bound: dt * k * L_r > 1
        MicroConfig(dt=1.0, t_end=2.0, rate_law=RateLaw(k=5.0))
    with pytest.raises(ConfigError):
        MicroConfig(dt=0.01, t_end=0.015).n_steps
    with pytest.raises(ConfigError):
        MicroSolver(MicroConfig(dt=0.01, t_end=0.1, u_init=2.5), grid).run()  # above m0
    with pytest.raises(ConfigError):
        MicroSolver(MicroConfig(dt=0.01, t_end=0.1, velocity_mode="reconstructed"), grid)


def _values(a):
    return lambda x, y: a


# the grids the kinetic-bound test samples, as (n, hole_side, hole_center, eps):
# the module's grid, an off-centre grain, channels one cell wide at the
# domain edges, and a finer eps
GRIDS = [(8, 0.5, (0.5, 0.5), 0.25), (16, 0.25, (0.375, 0.625), 0.25),
         (8, 0.75, (0.5, 0.5), 0.25), (8, 0.5, (0.5, 0.5), 0.125)]


@functools.cache
def _tiled(n, side, center, eps):
    return tile_domain(UnitCell(n, side, center), eps)


@settings(max_examples=25, deadline=None)
@given(
    geometry=st.sampled_from(GRIDS),
    exponent=st.floats(1.0, 3.0),
    k=st.floats(0.5, 20.0),
    u_onset=st.floats(0.0, 0.5),
    u_span=st.floats(0.2, 1.0),
    D=st.floats(0.01, 5.0),
    edges=st.sampled_from([(), ("left",), ("left", "right")]),
    dirichlet_value=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_properties_at_kinetic_bound(geometry, exponent, k, u_onset, u_span, D, edges,
                                          dirichlet_value, seed):
    # dt at the kinetic bound dt*k*L_r = 1 makes the reaction slope as large
    # against the mass term as validation allows
    grid = _tiled(*geometry)
    law = RateLaw(u_onset=u_onset, u_sol=u_onset + u_span, exponent=exponent, k=k)
    m0 = 1.0
    dt = 1.0 / (k * law.lipschitz_bound(max(m0, law.u_sol, dirichlet_value)))
    rng = np.random.default_rng(seed)
    nu, nv = grid.n_fluid_cells, grid.faces.count
    u_lo, v_lo = rng.uniform(0.0, m0, nu), rng.uniform(0.0, m0, nv)
    u_hi = u_lo + rng.uniform(0.0, 1.0, nu) * (m0 - u_lo)
    v_hi = v_lo + rng.uniform(0.0, 1.0, nv) * (m0 - v_lo)
    runs = []
    for u0, v0 in ((u_lo, v_lo), (u_hi, v_hi)):
        cfg = MicroConfig(dt=dt, t_end=6 * dt, D=D, rate_law=law, m0=m0,
                          dirichlet_edges=edges, dirichlet_value=dirichlet_value,
                          u_init=_values(u0), v_init=_values(v0))
        r = MicroSolver(cfg, grid).run()  # per-step invariant checks run inside
        for row in r.mass:
            assert -cfg.invariant_slack <= row.min_u
            assert row.max_u <= cfg.box_bound + cfg.invariant_slack
            assert row.min_v >= 0.0
            assert abs(row.drift) <= cfg.invariant_slack
        runs.append(r)
    d = [micro_l1(a, b, grid) for a, b in zip(runs[0].states, runs[1].states)]
    for i in range(1, len(d)):
        assert d[i] <= d[i - 1] * (1.0 + 1e-8) + 1e-14


@pytest.mark.parametrize("n, side, eps", [(8, 0.5, 1 / 16), (8, 0.25, 0.125), (16, 0.125, 0.25), (8, 0.75, 0.125)])
def test_y_symmetry_of_a_centred_grain(n, side, eps):
    # constant data and one Dirichlet edge, the left: the problem is the same
    # after a shift by one eps-cell in y, and after the mirror y -> 1 - y
    grid = tile_domain(UnitCell(n, side, (0.5, 0.5)), eps)
    cfg = MicroConfig(dt=0.01, t_end=0.2, output_every=5, dirichlet_edges=("left",),
                      dirichlet_value=0.2, u_init=0.9, v_init=0.5)
    r = MicroSolver(cfg, grid).run()
    N = grid.cells_per_edge
    for state in r.states:
        u = state.u.reshape(N, n, N, n)  # (kx, ix, ky, iy)
        v = unfold(state.v, grid).reshape(N, N, -1)  # (kx, ky, reference face)
        u_max, v_max = np.max(np.abs(u)), np.max(np.abs(v))
        assert v_max >= 0.3  # the precipitate is still there to compare
        assert np.max(np.abs(u - u[:, :, :1, :])) <= 1e-13 * u_max  # every eps-row holds one u
        assert np.max(np.abs(v - v[:, :1, :])) <= 1e-13 * v_max  # and one v
        assert np.max(np.abs(u - u[:, :, :, ::-1])) <= 1e-13 * u_max  # u mirrors in y in each cell
