import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porechem.cell_problems import assemble_K, solve_stokes_cell
from porechem.errors import ConfigError
from porechem.geometry import build_unit_cell, measures, tile_domain
from porechem.kinetics import DissolutionResolution, RateLaw
from porechem.micro_sim import (
    MicroConfig,
    MicroSolver,
    difference_quotient_norm,
    l1_distance,
    reconstruct_velocity,
    run,
)

from oracles import lumped_trajectory

logging.getLogger("porechem.micro_sim").setLevel(logging.ERROR)


@pytest.fixture(scope="module")
def cell():
    return build_unit_cell(0.5, (0.5, 0.5), 8)


@pytest.fixture(scope="module")
def grid(cell):
    return tile_domain(cell, 0.25)


def closed_box(**kw):
    base = dict(dt=0.01, t_end=0.5, output_every=10, dirichlet_edges=())
    base.update(kw)
    return MicroConfig(**base)


def test_zero_data_is_steady(grid):
    r = run(closed_box(u_init=0.0, v_init=0.0), grid)
    for row in r.mass:
        assert row.max_u == 0.0 and row.max_v == 0.0


def test_solubility_equilibrium_is_steady(grid):
    # any nonnegative precipitate profile is a fixed point at u = u_sol
    v_profile = lambda x, y: 0.3 + 0.2 * np.sin(2 * np.pi * x) ** 2
    r = run(closed_box(u_init=1.0, v_init=v_profile), grid)
    s0, s1 = r.states[0], r.states[-1]
    assert np.array_equal(s0.u, s1.u)
    assert np.array_equal(s0.v, s1.v)


def test_regularized_resolution_approaches_exact(grid):
    exact = run(closed_box(u_init=0.0, v_init=0.05, t_end=0.3), grid)
    reg = run(closed_box(u_init=0.0, v_init=0.05, t_end=0.3,
                         resolution=DissolutionResolution(mode="regularized", delta=1e-7)), grid)
    du = np.max(np.abs(exact.states[-1].u - reg.states[-1].u))
    dv = np.max(np.abs(exact.states[-1].v - reg.states[-1].v))
    assert du <= 1e-5 and dv <= 1e-5


def test_t_end_zero_returns_initial(grid):
    r = run(closed_box(t_end=0.0, u_init=0.2, v_init=0.1), grid)
    assert len(r.states) == 1
    assert r.times[0] == 0.0


def test_closed_box_conservation(grid):
    r = run(closed_box(u_init=0.0, v_init=0.05, t_end=1.0), grid)
    total0 = r.mass[0].mass_u + r.mass[0].mass_v
    for row in r.mass:
        assert abs(row.mass_u + row.mass_v - total0) <= 1e-12 * total0 + 1e-14
        assert abs(row.drift) <= 1e-12


def test_closed_box_matches_lumped_oracle(grid, cell):
    # large diffusivity -> well mixed; dissolution then stall at the
    # conserved equilibrium u = c_g v0
    c_g = cell.surface_measure / cell.pore_area
    cfg = closed_box(D=50.0, dt=0.002, t_end=0.2, output_every=10, u_init=0.0, v_init=0.05)
    r = run(cfg, grid)
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
        r = run(cfg, grid)
        fl = grid.fluid_mask
        u_mean = r.states[-1].u[fl].mean()
        assert abs(u_mean - u_ref) <= 0.02 * max(u_ref, 0.05)


def test_l1_distance_basics(grid):
    cfg = closed_box(t_end=0.0, u_init=0.3, v_init=0.1)
    s = run(cfg, grid).states[0]
    assert l1_distance(s, s, grid) == 0.0
    s2 = s.copy()
    s2.u = s.u + np.where(grid.fluid_mask, 0.25, 0.0)
    vol = measures(grid).fluid_volume
    assert l1_distance(s, s2, grid) == pytest.approx(0.25 * vol, rel=1e-12)


def test_l1_contraction_ordered_data(grid):
    def pair(low_u, hi_off, v_lo, v_hi):
        c1 = MicroConfig(dt=0.01, t_end=0.4, output_every=5, dirichlet_edges=("left",),
                         u_init=low_u, v_init=v_lo)
        c2 = MicroConfig(dt=0.01, t_end=0.4, output_every=5, dirichlet_edges=("left",),
                         u_init=lambda x, y: low_u(x, y) + hi_off if callable(low_u) else low_u + hi_off,
                         v_init=v_hi)
        return run(c1, grid), run(c2, grid)

    r1, r2 = pair(lambda x, y: 0.2 * np.sin(np.pi * x) * np.sin(np.pi * y), 0.3, 0.02, 0.05)
    d = [l1_distance(a, b, grid) for a, b in zip(r1.states, r2.states)]
    for i in range(1, len(d)):
        assert d[i] <= d[i - 1] * (1.0 + 1e-8) + 1e-14
    assert d[-1] <= d[0]


def test_replay_is_bitwise(grid):
    cfg = closed_box(u_init=0.3, v_init=0.02, t_end=0.2)
    ra = run(cfg, grid)
    rb = run(cfg, grid)
    for sa, sb in zip(ra.states, rb.states):
        assert np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.v, sb.v)
        assert np.array_equal(sa.w, sb.w)


def test_dt_self_convergence(grid):
    def final(dt):
        cfg = MicroConfig(dt=dt, t_end=0.16, output_every=10**6, dirichlet_edges=("left",),
                          u_init=lambda x, y: 0.8 * np.sin(np.pi * x) * np.sin(np.pi * y),
                          v_init=0.02)
        return run(cfg, grid).states[-1]

    ref = final(0.0025)
    e1 = np.max(np.abs(final(0.02).u - ref.u))
    e2 = np.max(np.abs(final(0.01).u - ref.u))
    assert 1.5 <= e1 / e2 <= 4.0  # first order in time


def test_box_bounds_with_dirichlet(grid):
    cfg = MicroConfig(dt=0.01, t_end=0.3, output_every=5, dirichlet_edges=("left", "right"),
                      dirichlet_value=0.8, u_init=0.1, v_init=0.02)
    r = run(cfg, grid)
    for row in r.mass:
        assert row.min_u >= -1e-10
        assert row.max_u <= 1.0 + 1e-10  # box bound max(m0, u_sol, u_D) = 1
        assert row.min_v >= 0.0


def test_w_consistency(grid):
    cfg = closed_box(u_init=0.4, v_init=0.03, t_end=0.3)
    r = run(cfg, grid)
    law = cfg.rate_law
    for state in r.states:
        assert np.all((state.w >= 0.0) & (state.w <= 1.0))
        assert np.all(state.w[state.v > 0.0] == 1.0)


def test_difference_quotient_norm(grid):
    cfg = closed_box(u_init=1.0, v_init=0.3, t_end=0.3)  # equilibrium
    r = run(cfg, grid)
    dq = difference_quotient_norm(r, r.times[1] - r.times[0])
    assert np.all(dq == 0.0)

    cfg = closed_box(u_init=0.0, v_init=0.05, t_end=0.5)
    r = run(cfg, grid)
    dq = difference_quotient_norm(r, r.times[1] - r.times[0])
    assert dq[0] == 0.0  # extension by the initial state
    assert np.all(dq[1:] <= dq[1] * (1.0 + 1e-8) + 1e-14)  # monotone bound


def test_difference_quotient_lag_validation(grid):
    r = run(closed_box(t_end=0.2, u_init=0.1), grid)
    with pytest.raises(ValueError):
        difference_quotient_norm(r, 0.0371)


def test_reconstructed_velocity_properties(cell, grid):
    sols = [solve_stokes_cell(cell, j) for j in range(2)]
    vel0 = reconstruct_velocity(grid, sols, (0.0, 0.0))
    assert vel0.max_abs == 0.0

    vel = reconstruct_velocity(grid, sols, (-1.0, 0.0))
    K, _ = assemble_K(cell, sols)
    ucc = 0.5 * (vel.qx[:-1, :] + vel.qx[1:, :])
    N, n = grid.cells_per_edge, cell.n
    means = (ucc.reshape(N, n, N, n) * cell.fluid[None, :, None, :]).sum(axis=(1, 3)) / cell.fluid.sum()
    assert np.max(np.abs(means - K[0, 0])) <= 1e-10  # eps-cell average is K e1

    for eps in (0.5, 0.125):
        g2 = tile_domain(cell, eps)
        v2 = reconstruct_velocity(g2, sols, (-1.0, 0.0))
        assert v2.max_abs == vel.max_abs  # same unit-cell samples for every eps


def test_reconstructed_velocity_geometry_mismatch(grid):
    other = build_unit_cell(0.25, (0.5, 0.5), 8)
    sols = [solve_stokes_cell(other, j) for j in range(2)]
    with pytest.raises(ConfigError):
        reconstruct_velocity(grid, sols, (-1.0, 0.0))


def test_advective_run_monotone_bounds(cell, grid):
    sols = [solve_stokes_cell(cell, j) for j in range(2)]
    cfg = MicroConfig(dt=0.02, t_end=1.0, output_every=10,
                      dirichlet_edges=("left", "right"), dirichlet_value=0.5,
                      u_init=0.0, v_init=0.01,
                      velocity_mode="reconstructed", pressure_gradient=(-1.0, 0.0))
    r = run(cfg, grid, sols)
    for row in r.mass:
        assert -1e-10 <= row.min_u and row.max_u <= 1.0 + 1e-10
        assert row.min_v >= 0.0


def test_config_validation(grid):
    with pytest.raises(ConfigError):
        MicroConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ConfigError):
        MicroConfig(dt=0.01, t_end=1.0, velocity_mode="warp")
    with pytest.raises(ConfigError):
        MicroConfig(dt=0.01, t_end=1.0, dirichlet_edges=("north",))
    with pytest.raises(ConfigError):
        # kinetic bound: dt * k * L_r > 1
        MicroConfig(dt=1.0, t_end=2.0, rate_law=RateLaw(k=5.0))
    with pytest.raises(ConfigError):
        MicroConfig(dt=0.01, t_end=0.015).n_steps
    with pytest.raises(ConfigError):
        run(MicroConfig(dt=0.01, t_end=0.1, u_init=2.5), grid)  # above m0
    with pytest.raises(ConfigError):
        MicroSolver(MicroConfig(dt=0.01, t_end=0.1, velocity_mode="reconstructed"), grid)


def _values(a):
    return lambda x, y: a


@settings(max_examples=25, deadline=None)
@given(
    exponent=st.floats(1.0, 3.0),
    k=st.floats(0.5, 20.0),
    u_onset=st.floats(0.0, 0.5),
    u_span=st.floats(0.2, 1.0),
    D=st.floats(0.01, 5.0),
    edges=st.sampled_from([(), ("left",), ("left", "right")]),
    dirichlet_value=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_properties_at_kinetic_bound(grid, exponent, k, u_onset, u_span, D, edges,
                                          dirichlet_value, seed):
    # dt at the kinetic bound dt*k*L_r = 1 makes the reaction slope as large
    # against the mass term as validation allows
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
        r = run(cfg, grid)  # per-step invariant checks run inside
        for row in r.mass:
            assert -cfg.invariant_slack <= row.min_u
            assert row.max_u <= cfg.box_bound + cfg.invariant_slack
            assert row.min_v >= 0.0
            assert abs(row.drift) <= cfg.invariant_slack
        runs.append(r)
    d = [l1_distance(a, b, grid) for a, b in zip(runs[0].states, runs[1].states)]
    for i in range(1, len(d)):
        assert d[i] <= d[i - 1] * (1.0 + 1e-8) + 1e-14
