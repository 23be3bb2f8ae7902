import numpy as np
import pytest

from porechem.errors import ConfigError
from porechem.geometry import build_unit_cell, tile_domain
from porechem.macro_sim import MacroConfig, darcy_solve, run, stability_gap
from porechem.micro_sim import MicroConfig
from porechem.micro_sim import run as micro_run

from oracles import lumped_trajectory

S_ISO = np.eye(2) * 0.768
K_ISO = np.eye(2) * 0.0177
GEOM = dict(pore_area=0.75, surface_density=2.0)


def closed_box(**kw):
    base = dict(dt=0.01, t_end=0.5, output_every=10, S=S_ISO, dirichlet_edges=(),
                resolution_cells=16, **GEOM)
    base.update(kw)
    return MacroConfig(**base)


def test_darcy_uniform_pressure_gives_zero_flow():
    qx, qy, P, div = darcy_solve(np.eye(2) * 0.02, 16, 0.7, 0.7)
    assert np.max(np.abs(P - 0.7)) <= 1e-12
    assert max(np.max(np.abs(qx)), np.max(np.abs(qy))) <= 1e-12


def test_darcy_linear_drop_isotropic():
    kappa = 0.02
    qx, qy, P, div = darcy_solve(np.eye(2) * kappa, 16, 1.0, 0.0)
    assert np.max(np.abs(qx - kappa)) <= 1e-12   # q = kappa * dp * e1
    assert np.max(np.abs(qy)) <= 1e-12
    assert div <= 1e-12


def test_darcy_anisotropic_divergence_free():
    # a full K has no closed-form Darcy solve here and the geometry never
    # produces one: rejected with the reason
    K = np.array([[3.0, 1.0], [1.0, 2.0]]) * 1e-2
    with pytest.raises(ConfigError, match="K must be diagonal"):
        darcy_solve(K, 32)
    # off-diagonals at round-off, as the cell problems return them, pass
    K_cell = np.array([[0.0174, 3e-13], [3e-13, 0.0174]])
    qx, qy, P, div = darcy_solve(K_cell, 32)
    assert np.all(qx == 0.0174) and np.all(qy == 0.0) and div == 0.0


def test_darcy_requires_spd():
    with pytest.raises(ConfigError):
        darcy_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), 8)


def test_zero_data_steady():
    r = run(closed_box(u_init=0.0, v_init=0.0))
    for row in r.mass:
        assert row.max_u == 0.0 and row.max_v == 0.0


def test_equilibrium_steady():
    # arbitrary nonnegative precipitate profile is a fixed point at u = u_sol
    r = run(closed_box(u_init=1.0, v_init=lambda x, y: 0.4 + 0.3 * np.cos(np.pi * x) ** 2))
    assert np.array_equal(r.states[0].u, r.states[-1].u)
    assert np.array_equal(r.states[0].v, r.states[-1].v)


def test_t_end_zero():
    r = run(closed_box(t_end=0.0, u_init=0.2))
    assert len(r.states) == 1


def test_storage_coupled_conservation():
    r = run(closed_box(u_init=0.0, v_init=0.05, t_end=1.0))
    total0 = r.mass[0].mass_u + r.mass[0].mass_v
    for row in r.mass:
        assert abs(row.mass_u + row.mass_v - total0) <= 1e-12 * total0 + 1e-14
        assert abs(row.drift) <= 1e-12


def test_matches_lumped_oracle():
    c_g = GEOM["surface_density"] / GEOM["pore_area"]
    cfg = closed_box(dt=0.002, t_end=0.2, output_every=10, u_init=0.0, v_init=0.05)
    r = run(cfg)
    oracle = lumped_trajectory(c_g, 0.0, 0.05, 0.2)
    u_scale = max(abs(oracle(t)[0]) for t in r.times)
    for t, state in zip(r.times, r.states):
        u_ref, v_ref = oracle(t)
        assert abs(state.u.mean() - u_ref) <= 0.02 * u_scale
        assert abs(state.v.mean() - v_ref) <= 0.02 * 0.05


def test_replay_bitwise():
    cfg = closed_box(u_init=0.3, v_init=0.02, t_end=0.2)
    ra, rb = run(cfg), run(cfg)
    for sa, sb in zip(ra.states, rb.states):
        assert np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.v, sb.v)


def test_dt_self_convergence():
    def final(dt):
        cfg = MacroConfig(dt=dt, t_end=0.16, output_every=10**6, S=S_ISO,
                          dirichlet_edges=("left",), resolution_cells=16,
                          u_init=lambda x, y: 0.8 * np.sin(np.pi * x) * np.sin(np.pi * y),
                          v_init=0.02, **GEOM)
        return run(cfg).states[-1]

    ref = final(0.0025)
    e1 = np.max(np.abs(final(0.02).u - ref.u))
    e2 = np.max(np.abs(final(0.01).u - ref.u))
    assert 1.5 <= e1 / e2 <= 4.0


def test_w_consistency():
    r = run(closed_box(u_init=0.4, v_init=0.03))
    for s in r.states:
        assert np.all((s.w >= 0.0) & (s.w <= 1.0))
        assert np.all(s.w[s.v > 0.0] == 1.0)


def test_full_tensor_run_conserves():
    # a full S would need a stencil that is not monotone: rejected at
    # validation, so no run can leave the box bounds mid-way
    with pytest.raises(ConfigError, match="S must be diagonal"):
        closed_box(S=np.array([[0.8, 0.1], [0.1, 0.6]]))
    with pytest.raises(ConfigError, match="K must be diagonal"):
        closed_box(K=np.array([[0.02, 0.0], [1e-3, 0.02]]))
    cfg = closed_box(S=S_ISO + 1e-13 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert cfg.S[0, 1] == 1e-13


def test_hole_free_micro_equals_macro():
    # the shared core: a grain-free pore-scale run is the macro run with
    # S = D I on the same grid, bitwise at every output
    D, n, eps = 0.7, 4, 1.0 / 8
    bump = lambda x, y: 0.6 * np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
    common = dict(dt=0.01, t_end=0.2, output_every=5, dirichlet_edges=("left",),
                  u_init=bump, v_init=bump)
    grid = tile_domain(build_unit_cell(0.0, (0.5, 0.5), n), eps)
    micro = micro_run(MicroConfig(D=D, **common), grid)
    macro = run(MacroConfig(S=D * np.eye(2), pore_area=1.0, surface_density=0.0,
                            resolution_cells=grid.n_global, **common))
    assert len(micro.states) == len(macro.states) == 5
    assert np.array_equal(micro.times, macro.times)
    for a, b in zip(micro.states, macro.states):
        assert np.array_equal(a.u, b.u)
    assert micro.states[-1].u.max() < micro.states[0].u.max()


def test_darcy_transport_bounds():
    cfg = MacroConfig(dt=0.05, t_end=1.0, output_every=5, S=S_ISO, K=K_ISO,
                      velocity_mode="darcy", dirichlet_edges=("left", "right"),
                      dirichlet_value=0.6, resolution_cells=16,
                      u_init=0.0, v_init=0.01, **GEOM)
    r = run(cfg)
    for row in r.mass:
        assert row.min_u >= -1e-10
        assert row.max_u <= 1.0 + 1e-10
        assert row.min_v >= 0.0


def test_stability_gap_identical_runs():
    cfg = closed_box(u_init=0.3, v_init=0.05, t_end=0.2)
    g = stability_gap(run(cfg), run(cfg))
    assert np.all(g.norm_u == 0.0)
    assert np.all(g.norm_v == 0.0)


def test_stability_gap_perturbation():
    base = closed_box(u_init=lambda x, y: 0.3 + 0.0 * x, v_init=0.05,
                      t_end=0.4, dirichlet_edges=("left",))
    pert = closed_box(u_init=lambda x, y: 0.3 + 1e-3 * np.sin(np.pi * x) * np.sin(np.pi * y),
                      v_init=0.05, t_end=0.4, dirichlet_edges=("left",))
    g = stability_gap(run(base), run(pert))
    assert g.norm_u[0] > 0.0
    assert np.isfinite(g.lam)
    # fitted envelope bounds the trajectory
    assert np.all(g.norm_u <= g.c_env * np.exp(g.lam * g.times) * (1.0 + 1e-9))


def test_stability_gap_config_mismatch():
    r1 = run(closed_box(t_end=0.2, u_init=0.1))
    r2 = run(closed_box(t_end=0.3, u_init=0.1))
    with pytest.raises(ConfigError):
        stability_gap(r1, r2)


def test_config_validation():
    with pytest.raises(ConfigError):
        MacroConfig(dt=0.01, t_end=1.0, S=np.array([[1.0, 0.5], [0.0, 1.0]]), **GEOM)
    with pytest.raises(ConfigError):
        MacroConfig(dt=0.01, t_end=1.0, S=-np.eye(2), **GEOM)
    with pytest.raises(ConfigError):
        MacroConfig(dt=0.01, t_end=1.0, S=S_ISO, velocity_mode="darcy", **GEOM)
    with pytest.raises(ConfigError):
        MacroConfig(dt=0.01, t_end=1.0, S=S_ISO, dirichlet_edges=("up",), **GEOM)
