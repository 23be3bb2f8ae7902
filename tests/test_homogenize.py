import tracemalloc

import numpy as np
import pytest

from porechem import homogenize
from porechem.cell_problems import assemble_K, effective_tensors, solve_stokes_cell
from porechem.config import parse_config
from porechem.errors import ConfigError
from porechem.geometry import BoundaryFaces, UnitCell, tile_domain
from porechem.homogenize import (
    ConvergenceReport,
    eps_cell_fluid_mean,
    extend,
    isometry_residual,
    oscillation_check,
    sweep,
    two_scale_errors,
    unfold,
)
from porechem.macro_sim import MacroConfig, MacroSolver
from porechem.micro_sim import MicroConfig, MicroSolver, difference_quotient_norm
from porechem.transport import TransportSolver


S_ISO = np.eye(2) * 0.768


@pytest.fixture(scope="module")
def cell():
    return UnitCell(8, 0.5, (0.5, 0.5))


@pytest.fixture(scope="module")
def grid(cell):
    return tile_domain(cell, 0.25)


def test_extend_constant_and_zero(grid):
    u = np.where(grid.fluid_mask, 2.5, 0.0)
    assert np.max(np.abs(extend(u, grid) - 2.5)) == 0.0
    assert np.max(np.abs(extend(np.zeros_like(u), grid))) == 0.0


def test_extend_restriction_identity(grid):
    rng = np.random.default_rng(5)
    u = np.where(grid.fluid_mask, rng.random(grid.fluid_mask.shape), 0.0)
    e = extend(u, grid)
    assert np.array_equal(e[grid.fluid_mask], u[grid.fluid_mask])


def test_extend_linear_field(grid):
    # solid fill equals the per-cell fluid mean of x1, within h of the
    # eps-cell center coordinate
    ng = grid.n_global
    xs = (np.arange(ng) + 0.5) * grid.h
    u = np.where(grid.fluid_mask, xs[:, None] * np.ones((1, ng)), 0.0)
    e = extend(u, grid)
    means = eps_cell_fluid_mean(u, grid)
    N, n = grid.cells_per_edge, grid.cell.n
    for kx in range(N):
        centers = (kx + 0.5) * grid.eps
        assert abs(means[kx, 0] - centers) <= grid.h
        block = e[kx * n : (kx + 1) * n, 0:n]
        assert np.allclose(block[grid.cell.solid], means[kx, 0], atol=1e-14)


def test_unfold_constant(grid):
    f = np.ones(grid.faces.count)
    tr = unfold(f, grid)
    assert tr.shape == (grid.cells_per_edge**2, grid.cell.n_grain_faces)
    assert np.max(np.abs(tr - 1.0)) == 0.0
    assert grid.eps**2 / grid.cell.n * np.sum(tr**2) == pytest.approx(grid.cell.surface_measure, abs=1e-14)


def test_unfold_single_cell_indicator(grid):
    faces = grid.faces
    target = (2, 1)
    f = ((faces.kx == target[0]) & (faces.ky == target[1])).astype(float)
    tr = unfold(f, grid)
    N = grid.cells_per_edge
    flat = target[0] * N + target[1]
    support = np.flatnonzero(np.abs(tr).sum(axis=1))
    assert list(support) == [flat]


def test_unfold_separable_factorization(grid):
    # f(x, y) = g(cell) * p(local face): L2 norm factorizes exactly
    rng = np.random.default_rng(11)
    N = grid.cells_per_edge
    nf = grid.cell.n_grain_faces
    g = rng.random(N * N)
    p = rng.random(nf)
    f = (g[:, None] * p[None, :]).ravel()
    tr = unfold(f, grid)
    lhs = grid.eps**2 / grid.cell.n * np.sum(tr**2)
    rhs = (grid.eps**2 * np.sum(g**2)) * (np.sum(p**2) / grid.cell.n)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_unfold_rejects_a_face_enumeration_out_of_layout(cell):
    g = tile_domain(cell, 0.25)
    f = g.faces
    perm = np.random.default_rng(7).permutation(f.count)
    g.__dict__["faces"] = BoundaryFaces(**{k: v[perm] for k, v in vars(f).items()})  # the cached faces
    with pytest.raises(AssertionError, match="eps-cell-major"):
        unfold(np.ones(f.count), g)


def test_isometry_random_fields(cell):
    rng = np.random.default_rng(3)
    for eps in (0.5, 0.25, 0.125):
        g = tile_domain(cell, eps)
        f = rng.standard_normal(g.faces.count)
        assert isometry_residual(f, g) <= 1e-12


def test_oscillation_constant_exact(cell):
    rows = oscillation_check(cell, lambda x1, x2, y1, y2: np.ones_like(x1), [0.5, 0.25, 0.125],
                             exact=cell.surface_measure)
    for r in rows:
        assert r["error"] == 0.0
        assert r["product"] == pytest.approx(cell.surface_measure, rel=1e-12)


def test_oscillation_x1_off_center_decreases():
    c = UnitCell(8, 0.25, (0.375, 0.5))
    rows = oscillation_check(c, lambda x1, x2, y1, y2: x1, [0.5, 0.25, 0.125],
                             exact=c.surface_measure * 0.5)
    errs = [r["error"] for r in rows]
    assert errs[0] > errs[1] > errs[2] > 0.0
    # first-order in eps
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)


def test_oscillation_separable_decreases():
    c = UnitCell(8, 0.25, (0.375, 0.5))
    # the product integral: the mean of x1 over Omega times the integral of y2 over Gamma
    rows = oscillation_check(c, lambda x1, x2, y1, y2: x1 * y2, [0.5, 0.25, 0.125],
                             exact=0.5 * np.sum(c.grain_faces[4][:, 1]) / c.n)
    errs = [r["error"] for r in rows]
    assert errs[0] > errs[1] > errs[2]


def _matched_runs(cell, eps, m=16, t_end=0.2):
    grid = tile_domain(cell, eps)
    micro_cfg = MicroConfig(dt=0.002, t_end=t_end, output_every=20, dirichlet_edges=(),
                            D=50.0, u_init=0.0, v_init=0.05)
    macro_cfg = MacroConfig(dt=0.002, t_end=t_end, output_every=20, dirichlet_edges=(),
                            resolution_cells=m, u_init=0.0, v_init=0.05)
    return MicroSolver(micro_cfg, grid).run(), MacroSolver(macro_cfg, cell, np.eye(2) * 50.0 * 0.768).run()


def test_two_scale_errors_well_mixed_floor(cell):
    micro, macro = _matched_runs(cell, 0.25)
    row = two_scale_errors(micro, macro)
    # both solvers ride the same lumped dynamics: errors at the mixing floor
    assert row["err_u_L2"] <= 2e-3
    assert row["err_v_unfolded_L2"] <= 2e-3
    assert row["err_r_L2"] <= 2e-3


def test_two_scale_errors_equal_constant_states(cell):
    # constant equilibrium data: micro and macro fields are identical
    grid = tile_domain(cell, 0.25)
    micro_cfg = MicroConfig(dt=0.01, t_end=0.1, output_every=5, dirichlet_edges=(),
                            u_init=1.0, v_init=0.2)
    macro_cfg = MacroConfig(dt=0.01, t_end=0.1, output_every=5, dirichlet_edges=(),
                            resolution_cells=16, u_init=1.0, v_init=0.2)
    row = two_scale_errors(MicroSolver(micro_cfg, grid).run(), MacroSolver(macro_cfg, cell, S_ISO).run())
    assert row["err_u_L2"] <= 1e-13
    assert row["err_v_unfolded_L2"] <= 1e-13


def test_two_scale_errors_time_mismatch(cell):
    grid = tile_domain(cell, 0.25)
    micro_cfg = MicroConfig(dt=0.01, t_end=0.1, output_every=5, dirichlet_edges=(), u_init=0.1)
    macro_cfg = MacroConfig(dt=0.01, t_end=0.2, output_every=5, dirichlet_edges=(),
                            resolution_cells=16, u_init=0.1)
    with pytest.raises(ConfigError):
        two_scale_errors(MicroSolver(micro_cfg, grid).run(), MacroSolver(macro_cfg, cell, S_ISO).run())


def test_sweep_single_eps(cell):
    micro_cfg = MicroConfig(dt=0.01, t_end=0.1, output_every=5, dirichlet_edges=(),
                            u_init=0.0, v_init=0.05)
    macro_cfg = MacroConfig(dt=0.01, t_end=0.1, output_every=5, dirichlet_edges=(),
                            resolution_cells=16, u_init=0.0, v_init=0.05)
    report = sweep(cell, [0.5], micro_cfg, macro_cfg, S_ISO)
    assert len(report.rows) == 1
    assert report.rows[0]["order_u"] is None


def test_sweep_requires_decreasing(cell):
    micro_cfg = MicroConfig(dt=0.01, t_end=0.1, dirichlet_edges=())
    macro_cfg = MacroConfig(dt=0.01, t_end=0.1, dirichlet_edges=(), resolution_cells=16)
    with pytest.raises(ConfigError, match="strictly decreasing"):
        sweep(cell, [0.25, 0.5], micro_cfg, macro_cfg, S_ISO)
    with pytest.raises(ConfigError, match="sweep eps_list is empty"):  # ran the macro problem for no report row
        sweep(cell, [], micro_cfg, macro_cfg, S_ISO)


def test_sweep_checks_macro_resolution_before_running(cell, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("the sweep ran before checking the macro resolution")

    monkeypatch.setattr(homogenize, "MacroSolver", must_not_run)
    monkeypatch.setattr(homogenize, "MicroSolver", must_not_run)
    micro_cfg = MicroConfig(dt=0.01, t_end=0.1, dirichlet_edges=())
    macro_cfg = MacroConfig(dt=0.01, t_end=0.1, dirichlet_edges=(), resolution_cells=12)
    with pytest.raises(ConfigError, match="not a multiple of 1/eps = 8"):
        sweep(cell, [0.25, 0.125], micro_cfg, macro_cfg, S_ISO)


@pytest.mark.parametrize(
    "micro, macro, message",
    [
        (dict(v_init=0.2), dict(v_init=0.05), "[micro] v_init = 0.2 and [macro] v_init = 0.05 differ"),
        (dict(u_init=0.1), {}, "[micro] u_init = 0.1 and [macro] u_init = 0.0 differ"),
        (dict(dirichlet_value=0.5), {}, "[micro] dirichlet_value = 0.5 and [macro] dirichlet_value = 0.0 differ"),
        (dict(velocity_mode="reconstructed"), {},
         "[micro] velocity_mode = reconstructed and [macro] velocity_mode = zero are not one flow"),
        (dict(velocity_mode="reconstructed", pressure_gradient=(-4.0, 1.0)), dict(velocity_mode="darcy"),
         "[micro] pressure_gradient = (-4.0, 1.0) and [macro] p_left = 1.0 and [macro] p_right = 0.0"),
    ],
    ids=["v_init", "u_init", "dirichlet_value", "flow", "pressure_gradient"],
)
def test_sweep_rejects_runs_of_different_problems_before_any_run(cell, monkeypatch, micro, macro, message):
    # each run alone is valid, but their errors would not measure homogenization
    def must_not_run(*args):
        raise AssertionError("the sweep ran before checking that its runs solve one problem")

    monkeypatch.setattr(homogenize, "MacroSolver", must_not_run)
    monkeypatch.setattr(homogenize, "MicroSolver", must_not_run)
    micro_cfg = MicroConfig(dt=0.01, t_end=0.1, dirichlet_edges=(), **micro)
    macro_cfg = MacroConfig(dt=0.01, t_end=0.1, dirichlet_edges=(), resolution_cells=16, **macro)
    with pytest.raises(ConfigError) as err:
        sweep(cell, [0.25, 0.125], micro_cfg, macro_cfg, S_ISO, np.eye(2) * 0.0177, stokes=())
    assert message in str(err.value)


@pytest.mark.parametrize(
    "eps_list, m, message",
    [([0.25, 0.125, 0.0625], 64, "[micro] eps = 0.125: dt*|q|/h = 1.71 violates the advective CFL bound"),
     ([0.25], 128, "[macro] dt*|q|/h = 1.74 violates the advective CFL bound")],
    ids=["micro", "macro"],
)
def test_sweep_checks_every_runs_cfl_before_any_step(cell, monkeypatch, eps_list, m, message):
    # a pressure drop of 60: the micro CFL number is 0.855 / (4 eps), the macro one 0.87 m / 64
    def must_not_step(*args):
        raise AssertionError("a run stepped before the sweep checked every CFL number")

    monkeypatch.setattr(TransportSolver, "_step", must_not_step)
    sols = solve_stokes_cell(cell)
    K, _ = assemble_K(cell, sols)
    micro_cfg = MicroConfig(dt=0.01, t_end=0.1, velocity_mode="reconstructed", pressure_gradient=(-60.0, 0.0))
    macro_cfg = MacroConfig(dt=0.01, t_end=0.1, velocity_mode="darcy", p_left=60.0, resolution_cells=m)
    with pytest.raises(ConfigError) as err:
        sweep(cell, eps_list, micro_cfg, macro_cfg, S_ISO, K, sols)
    assert message in str(err.value)


def _sweep_inputs(text):
    cfg = parse_config(text)
    tensors = effective_tensors(cfg.cell, D=cfg.micro.D)
    stokes = tensors.sols if cfg.micro.velocity_mode == "reconstructed" else None
    return cfg.cell, cfg.sweep_eps, cfg.micro, cfg.macro, tensors.S, tensors.K, stokes


# the default config (eps 1/4 to 1/16, m = 64, 100 steps) and the flow
# config of the command-line checks (reconstructed and darcy, 10 steps)
SWEEP_CONFIGS = {
    "default": "\n",
    "flow": "[micro]\nvelocity_mode = reconstructed\nt_end = 0.1\n[macro]\nvelocity_mode = darcy\nt_end = 0.1\n",
}


@pytest.mark.parametrize("text", SWEEP_CONFIGS.values(), ids=SWEEP_CONFIGS.keys())
def test_sweep_rows_are_those_of_stored_runs_bit_for_bit(text):
    # the sweep folds its errors while its runs step; runs that keep their
    # snapshots give the same rows through two_scale_errors and
    # difference_quotient_norm
    cell, eps_list, micro_cfg, macro_cfg, S, K, stokes = _sweep_inputs(text)
    rows = sweep(cell, eps_list, micro_cfg, macro_cfg, S, K, stokes).rows
    macro = MacroSolver(macro_cfg, cell, S, K).run()
    for eps, row in zip(eps_list, rows, strict=True):
        micro = MicroSolver(micro_cfg, tile_domain(cell, eps), stokes).run()
        want = two_scale_errors(micro, macro) | {"dq_max": float(np.max(difference_quotient_norm(micro)))}
        assert {k: row[k] for k in want} == want
        assert all(np.float64(row[k]).view(np.int64) == np.float64(v).view(np.int64) for k, v in want.items())


def test_sweep_keeps_no_snapshots():
    # eps 1/4 and 1/8, m = 32, 11 snapshots of 100 steps: the macro run
    # keeps only its eps-cell averages and each micro run the snapshot
    # before, 0.84 MiB traced; holding every snapshot took 1.50 MiB
    cell, eps_list, micro_cfg, macro_cfg, S, K, stokes = _sweep_inputs(
        "[sweep]\neps_list = 0.25, 0.125\n[macro]\nresolution = 32\n")
    tracemalloc.start()
    try:
        sweep(cell, eps_list, micro_cfg, macro_cfg, S, K, stokes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2**20


def test_report_csv(tmp_path):
    rows = [
        dict(eps=0.5, err_u_L2=0.1, err_v_unfolded_L2=0.01, err_r_L2=0.02, order_u=None, order_v=None),
        dict(eps=0.25, err_u_L2=0.05, err_v_unfolded_L2=0.004, err_r_L2=0.01, order_u=1.0, order_v=1.3),
    ]
    path = tmp_path / "report.csv"
    ConvergenceReport(rows).write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "eps,err_u_L2,err_v_unfolded_L2,err_r_L2,order_u,order_v"
    assert lines[1].endswith(",,")
    assert len(lines) == 3
