"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Scenario parameters are fixed here (not tuned at run time); all
expected values come from closed forms, independent oracles in oracles.py,
or frozen fine-grid solves recorded in the module tests.
"""

import numpy as np
import pytest

from porechem.cell_problems import (
    assemble_K,
    assemble_S,
    solve_diffusion_cell,
    solve_stokes_cell,
)
from porechem.geometry import UnitCell, tile_domain
from porechem.homogenize import isometry_residual, oscillation_check, sweep
from porechem.kinetics import (
    RateLaw,
    dissolution_rate,
    ode_step,
)
from porechem.macro_sim import MacroConfig, MacroSolver
from porechem.micro_sim import MicroConfig, MicroSolver
from porechem.transport import l1_distance

from oracles import heaviside_selection, lumped_trajectory, power_rate, regularized_steady_w, stability_gap

LAW = RateLaw()


def _report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_c01_kinetics_branch_table():
    us = np.linspace(-0.5, 2.5, 10)
    vs = np.linspace(-0.1, 0.4, 10)
    for u in us:
        for v in vs:
            assert dissolution_rate(LAW, u, v) == heaviside_selection(power_rate(u), v)
    u_grid = np.linspace(0.0, 2.0, 41)
    exact = np.minimum(LAW.rate(u_grid), 1.0)
    L_r = LAW.lipschitz_bound(2.0)
    worst = {}
    for delta in (1e-1, 1e-2, 1e-3):
        w = regularized_steady_w(LAW, delta, u_grid)
        err = float(np.max(np.abs(w - exact)))
        assert err <= delta * L_r
        worst[delta] = err
    _report(1, f"branch table exact on 100 points; regularized errors {worst}")


def test_c02_effective_diffusion():
    c0 = UnitCell(8, 0.0, (0.5, 0.5))
    S0, _ = assemble_S(c0, solve_diffusion_cell(c0), D=1.0)
    assert np.max(np.abs(S0 - np.eye(2))) <= 1e-10

    vals = {}
    quad64 = None
    for n in (32, 64, 128):
        c = UnitCell(n, 0.5, (0.5, 0.5))
        fields = solve_diffusion_cell(c)
        S, info = assemble_S(c, fields, D=1.0)
        vals[n] = S
        if n == 64:
            quad64 = info["quad_err"]
            assert abs(S[0, 0] - S[1, 1]) <= 1e-6
            assert 0.0 < S[0, 0] < 1.0
    assert quad64 <= 1e-8
    order = np.log2(
        abs(vals[64][0, 0] - vals[32][0, 0]) / abs(vals[128][0, 0] - vals[64][0, 0])
    )
    assert order >= 1.0
    _report(2, f"s = {vals[64][0, 0]:.6f} at n=64, quad identity {quad64:.2e}, order {order:.2f}")


def test_c03_permeability():
    kappa = {}
    for a in (0.25, 0.5):
        c = UnitCell(64, a, (0.5, 0.5))
        sols = solve_stokes_cell(c)
        for s in sols:
            assert s.div_inf <= 1e-9
        K, info = assemble_K(c, sols)
        assert np.max(np.abs(K - K.T)) <= 1e-8
        assert np.all(np.linalg.eigvalsh(K) > 0.0)
        assert info["grad_err"] <= 1e-6
        kappa[a] = K[0, 0]
    assert kappa[0.25] > kappa[0.5]
    _report(3, f"kappa(0.25) = {kappa[0.25]:.5g} > kappa(0.5) = {kappa[0.5]:.5g}; "
               "divergence <= 1e-9, gradient identity <= 1e-6")


def test_c04_micro_invariants_randomized():
    rng = np.random.default_rng(20240817)
    geoms = [(4, 0.5), (8, 0.5), (8, 0.25)]
    checked = 0
    for trial in range(20):
        n, a = geoms[rng.integers(len(geoms))]
        eps = (0.5, 0.25)[rng.integers(2)]
        law = RateLaw(
            exponent=float(rng.integers(1, 4)),
            k=float(rng.uniform(0.5, 2.0)),
        )
        D = float(10.0 ** rng.uniform(-1.0, 0.7))
        m0 = 1.0
        dt = 0.8 / (law.k * law.lipschitz_bound(max(m0, law.u_sol)))
        u0 = float(rng.uniform(0.0, 0.8))
        v0 = float(rng.uniform(0.0, 0.8))
        if rng.random() < 0.5:
            amp = u0
            u_init = lambda x, y, A=amp: A * np.sin(np.pi * x) * np.sin(np.pi * y)
        else:
            u_init = u0
        cfg = MicroConfig(
            dt=dt, t_end=500 * dt, output_every=500, dirichlet_edges=(),
            D=D, rate_law=law, u_init=u_init, v_init=v0, m0=m0,
        )
        grid = tile_domain(UnitCell(n, a, (0.5, 0.5)), eps)
        r = MicroSolver(cfg, grid).run()  # per-step invariant checks run inside
        total0 = r.mass[0].mass_u + r.mass[0].mass_v
        drift = abs(r.mass[-1].drift)
        assert drift <= 1e-8 * max(total0, 1e-12)
        assert r.mass[-1].min_v >= 0.0
        checked += 1
    assert checked == 20
    _report(4, "20 randomized closed-box runs, 500 steps each: box bounds held, "
               "v >= 0 exact, relative drift <= 1e-8")


def test_c05_l1_contraction():
    cell = UnitCell(8, 0.5, (0.5, 0.5))
    grid = tile_domain(cell, 0.25)
    pairs = [
        (0.1, 0.4, 0.01, 0.05, ("left",)),
        (0.0, 0.3, 0.0, 0.08, ("left",)),
        (0.2, 0.25, 0.03, 0.03, ("left", "right")),
        (0.0, 0.6, 0.02, 0.10, ()),
        (0.35, 0.5, 0.0, 0.02, ("left",)),
    ]
    for u1, u2, v1, v2, edges in pairs:
        assert u1 <= u2 and v1 <= v2
        runs = []
        for u0, v0 in ((u1, v1), (u2, v2)):
            cfg = MicroConfig(dt=0.01, t_end=0.6, output_every=6, dirichlet_edges=edges,
                              u_init=u0, v_init=v0)
            runs.append(MicroSolver(cfg, grid).run())
        d = [l1_distance(a, b, grid.fluid_mask, grid.h, grid.eps * grid.h)
             for a, b in zip(runs[0].states, runs[1].states)]
        for i in range(1, len(d)):
            assert d[i] <= d[i - 1] * (1.0 + 1e-8) + 1e-14
    _report(5, "5 ordered initial-data pairs: discrete L1 distance nonincreasing "
               "within 1e-8 relative slack")


def test_c06_event_exact_dissolution():
    # u = 0, v0 = 0.01, k = 1: v(t) = max(0.01 - t, 0); step sequences chosen
    # to straddle the stopping time tau = 0.01 in different ways
    for dts in ([0.02], [0.007, 0.007, 0.007], [0.0095, 0.002, 0.03], [0.01, 0.01]):
        t, v = 0.0, 0.01
        for dt in dts:
            v_new, w_eff = ode_step(LAW, 0.0, v, dt)
            t_new = t + dt
            exact = max(0.01 - t_new, 0.0)
            assert abs(v_new - exact) <= 1e-12
            # bookkeeping identity defines the averaged rate exactly
            assert abs((v_new - v) - dt * (LAW.rate(0.0) - w_eff)) <= 1e-15
            t, v = t_new, v_new
    _report(6, "decay-and-stop trajectory matches the closed form to 1e-12 "
               "per step for all step placements")


def test_c07_unfolding_and_oscillation():
    cell = UnitCell(8, 0.5, (0.5, 0.5))
    rng = np.random.default_rng(99)
    worst = 0.0
    for eps in (0.5, 0.25, 0.125):
        grid = tile_domain(cell, eps)
        for _ in range(3):
            f = rng.standard_normal(grid.faces.count)
            worst = max(worst, isometry_residual(f, grid))
    assert worst <= 1e-12

    # an off-center grain breaks the symmetry that would make the x1
    # quadrature exact, giving a genuine O(eps) error sequence
    c_off = UnitCell(8, 0.25, (0.375, 0.5))
    rows = oscillation_check(c_off, lambda x1, x2, y1, y2: x1, [0.5, 0.25, 0.125],
                             exact=c_off.surface_measure * 0.5)
    errs = [r["error"] for r in rows]
    assert errs[0] > errs[1] > errs[2] > 0.0
    _report(7, f"isometry residual {worst:.2e}; oscillation errors {errs}")


def test_c08_well_mixed_anchor():
    cell = UnitCell(8, 0.5, (0.5, 0.5))
    c_g = cell.surface_measure / cell.pore_area
    D = 50.0
    t_end = 0.2
    oracle = lumped_trajectory(c_g, 0.0, 0.05, t_end)
    u_scale = max(abs(oracle(t)[0]) for t in np.linspace(0, t_end, 101))
    v_scale = 0.05

    macro_cfg = MacroConfig(dt=0.002, t_end=t_end, output_every=10, dirichlet_edges=(),
                            resolution_cells=32, u_init=0.0, v_init=0.05)
    macro = MacroSolver(macro_cfg, cell, np.eye(2) * D * 0.768).run()
    macro_u = np.array([s.u.mean() for s in macro.states])
    macro_v = np.array([s.v.mean() for s in macro.states])
    for t, mu, mv in zip(macro.times, macro_u, macro_v):
        u_ref, v_ref = oracle(t)
        assert abs(mu - u_ref) <= 0.02 * u_scale
        assert abs(mv - v_ref) <= 0.02 * v_scale

    for eps in (0.5, 0.25):
        grid = tile_domain(cell, eps)
        cfg = MicroConfig(dt=0.002, t_end=t_end, output_every=10, dirichlet_edges=(),
                          D=D, u_init=0.0, v_init=0.05)
        micro = MicroSolver(cfg, grid).run()
        fl = grid.fluid_mask
        for i, (t, state) in enumerate(zip(micro.times, micro.states)):
            u_ref, v_ref = oracle(t)
            mu = state.u[fl].mean()
            mv = state.v.mean()
            assert abs(mu - u_ref) <= 0.02 * u_scale
            assert abs(mv - v_ref) <= 0.02 * v_scale
            # micro against macro directly
            assert abs(mu - macro_u[i]) <= 0.02 * u_scale
            assert abs(mv - macro_v[i]) <= 0.02 * v_scale
    _report(8, "micro (eps = 1/2, 1/4) and macro match the lumped oracle and "
               "each other within 2%")


def test_c09_flagship_convergence_sweep():
    cell = UnitCell(8, 0.5, (0.5, 0.5))
    # effective tensor from a decoupled, finer cell resolution
    c64 = UnitCell(64, 0.5, (0.5, 0.5))
    S, _ = assemble_S(c64, solve_diffusion_cell(c64), D=1.0)

    micro_cfg = MicroConfig(dt=0.005, t_end=0.25, output_every=10, dirichlet_edges=("left",),
                            D=1.0, u_init=0.0, v_init=0.05)
    macro_cfg = MacroConfig(dt=0.005, t_end=0.25, output_every=10, dirichlet_edges=("left",),
                            resolution_cells=64, u_init=0.0, v_init=0.05)
    report = sweep(cell, [0.25, 0.125, 0.0625], micro_cfg, macro_cfg, S)
    e_u = [r["err_u_L2"] for r in report.rows]
    e_v = [r["err_v_unfolded_L2"] for r in report.rows]
    assert e_u[0] > e_u[1] > e_u[2]
    assert e_v[0] > e_v[1] > e_v[2]
    orders_u = [r["order_u"] for r in report.rows[1:]]
    orders_v = [r["order_v"] for r in report.rows[1:]]
    dq = [r["dq_max"] for r in report.rows]
    assert max(dq) <= 2.0 * min(dq) + 1e-9  # uniform-in-eps diagnostic
    _report(9, f"volume errors {e_u} (orders {orders_u}); boundary errors {e_v} "
               f"(orders {orders_v}); no rate threshold imposed")


def test_c10_macro_stability():
    cell = UnitCell(8, 0.5, (0.5, 0.5))

    def profile(seed):
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal((3, 3))

        def f(x, y):
            out = np.zeros_like(x)
            for i in range(3):
                for j in range(3):
                    out += coef[i, j] * np.sin((i + 1) * np.pi * x) * np.sin((j + 1) * np.pi * y)
            return out

        # normalize to unit L2 on the grid
        xs = (np.arange(64) + 0.5) / 64
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        nrm = np.sqrt(np.sum(f(X, Y) ** 2) / 64**2)
        return lambda x, y: f(x, y) / nrm

    def cfgs(seed):
        base = MacroConfig(dt=0.005, t_end=0.4, output_every=10, dirichlet_edges=("left",),
                           resolution_cells=64, u_init=0.3, v_init=0.1)
        phi = profile(seed)
        pert = MacroConfig(dt=0.005, t_end=0.4, output_every=10, dirichlet_edges=("left",),
                           resolution_cells=64, u_init=lambda x, y: 0.3 + 1e-3 * phi(x, y), v_init=0.1)
        return base, pert

    def run(cfg):
        return MacroSolver(cfg, cell, np.eye(2) * 0.768).run()

    lams = []
    for seed in (1, 2):
        base, pert = cfgs(seed)
        gap = stability_gap(run(base), run(pert))
        assert gap.norm_u[0] == pytest.approx(1e-3, rel=0.05)
        assert np.isfinite(gap.lam)
        # envelope 1e-3 * exp(lam t) dominates the measured gap
        assert np.all(gap.norm_u <= 1.001e-3 * np.exp(gap.lam * gap.times))
        lams.append(gap.lam)
    assert abs(lams[0] - lams[1]) <= 0.2 * max(abs(lams[0]), abs(lams[1]))

    # identical configs replay bitwise
    base, _ = cfgs(1)
    ra, rb = run(base), run(base)
    for sa, sb in zip(ra.states, rb.states):
        assert np.array_equal(sa.u, sb.u) and np.array_equal(sa.v, sb.v)
    _report(10, f"fitted envelope exponents {lams} agree within 20%; replay bitwise")
