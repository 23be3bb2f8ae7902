"""The preconditioned implicit Newton solve against a direct-solve reference.

Both transport solvers are put in the dissolution regime of the default
configuration, with every reaction carrier on the active branch (v > 0,
u above the onset), so the Newton matrix ``J = B + diag(extra)`` differs
from the factored operator ``B`` on every owner cell.  The reference Newton
loop scatters with ``np.add.at`` and solves ``J`` with ``spsolve`` on each
iteration.

The preconditioned spectrum lies in ``[1, 1 + max(extra / shift)]``,
so the CG count grows with ``dt * k * r'(u)``; it is a count that does not
depend on the machine, and Jacobi CG needs over a hundred iterations on
these systems.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import porechem
from porechem import _implicit, macro_sim, micro_sim
from porechem._implicit import diffusion_operator, factor_spd, separable_solve
from porechem.errors import SolverError
from porechem.linalg import cg
from porechem.geometry import EDGES, UnitCell, tile_domain
from porechem.kinetics import RateLaw, net_rate_and_branch, net_rate_slope
from porechem.macro_sim import MacroConfig, MacroSolver
from porechem.micro_sim import MicroConfig, MicroSolver

LAW = RateLaw()
DT = 0.01
D = 1.0


def reference_newton(op, rhs, owners, weights, v, u0, tol=1e-12):
    u = u0.copy()
    n = u.size
    B = op.B
    for _ in range(60):
        g, smooth = net_rate_and_branch(LAW, u[owners], v, DT)
        F = B @ u - rhs
        np.add.at(F, owners, weights * g)
        if np.max(np.abs(F)) <= tol * op.scale and abs(F.sum()) <= 0.1 * tol * op.scale:
            return u
        gp = net_rate_slope(LAW, u[owners], smooth)
        extra = np.zeros(n)
        np.add.at(extra, owners, weights * gp)
        u = u - spla.spsolve((B + sp.diags(extra)).tocsc(), F)
    raise AssertionError("reference Newton did not converge")


def micro_problem():
    grid = tile_domain(UnitCell(8, 0.5, (0.5, 0.5)), 0.125)
    cfg = MicroConfig(dt=DT, t_end=DT, D=D, rate_law=LAW, dirichlet_edges=("left",))
    solver = MicroSolver(cfg, grid)
    rng = np.random.default_rng(7)
    u0 = rng.uniform(0.0, 0.3, solver.m)
    v = np.full(solver.owners.size, 0.05)
    op = solver.implicit
    rhs = op.shift * u0 + op.dir_weight * cfg.dirichlet_value
    return op, rhs, solver.owners, solver.weight, v, u0


def macro_problem():
    cfg = MacroConfig(dt=DT, t_end=DT, rate_law=LAW, resolution_cells=32, dirichlet_edges=("left",))
    solver = MacroSolver(cfg, UnitCell(8, 0.5, (0.5, 0.5)), D * np.eye(2))
    rng = np.random.default_rng(8)
    u0 = rng.uniform(0.0, 0.3, solver.m * solver.m)
    v = np.full(u0.size, 0.05)
    op = solver.implicit
    rhs = op.shift * u0 + op.dir_weight * cfg.dirichlet_value
    return op, rhs, solver.owners, solver.weight, v, u0


@pytest.mark.parametrize("problem", [micro_problem, macro_problem], ids=["micro", "macro"])
def test_newton_matches_direct_solve_with_few_cg_iterations(problem, monkeypatch):
    op, rhs, owners, weights, v, u0 = problem()
    iters = []
    original = _implicit.cg

    def counting_cg(*args, **kwargs):
        result = original(*args, **kwargs)
        iters.append(result[2])
        return result

    monkeypatch.setattr(_implicit, "cg", counting_cg)
    u, res = _implicit.newton_reaction_diffusion(op, rhs, owners, weights, LAW, v, DT, u0, newton_tol=1e-12)

    slope = net_rate_slope(LAW, u[owners], net_rate_and_branch(LAW, u[owners], v, DT)[1])
    assert np.all(slope > 0.0)
    assert res <= 1e-12
    ref = reference_newton(op, rhs, owners, weights, v, u0)
    assert np.max(np.abs(u - ref)) <= 1e-11
    assert iters and max(iters) <= 5


@pytest.mark.parametrize("problem", [micro_problem, macro_problem], ids=["micro", "macro"])
def test_newton_drives_a_mass_defect_below_the_cg_floor(problem, monkeypatch):
    # start where the residual test passes and the residual's 2-norm is
    # under CG's absolute floor 0.1*newton*scale, but its sum, the mass
    # defect, is above that same allowance: CG must still iterate, or
    # Newton would step by 0 and keep the defect
    op, rhs, owners, weight, v, u0 = problem()
    tol, scale, n = 1e-6, op.scale, u0.size

    def residual(u):
        g, smooth = net_rate_and_branch(LAW, u[owners], v, DT)
        F = op.B @ u - rhs + np.bincount(owners, weights=weight * g, minlength=n)
        extra = np.bincount(owners, weights=weight * net_rate_slope(LAW, u[owners], smooth), minlength=n)
        return F, extra

    exact = reference_newton(op, rhs, owners, weight, v, u0)
    _, extra = residual(exact)
    target = np.full(n, 0.05 * tol * scale / np.sqrt(n))
    start = exact + spla.spsolve((op.B + sp.diags(extra)).tocsc(), target)
    F0, _ = residual(start)
    assert np.max(np.abs(F0)) <= tol * scale
    assert np.linalg.norm(F0) <= 0.1 * tol * scale < abs(F0.sum())

    iters = []
    original = _implicit.cg

    def counting_cg(*args, **kwargs):
        result = original(*args, **kwargs)
        iters.append(result[2])
        return result

    monkeypatch.setattr(_implicit, "cg", counting_cg)
    u, res = _implicit.newton_reaction_diffusion(op, rhs, owners, weight, LAW, v, DT, start, newton_tol=tol)
    F, _ = residual(u)
    assert iters and min(iters) >= 1 and res <= tol
    assert abs(F.sum()) <= 0.1 * tol * scale


def _counting(monkeypatch):
    """Count the implicit CG calls and record each Newton residual of both
    scales' runs."""
    calls, residuals = [], []
    original_cg, original_newton = _implicit.cg, _implicit.newton_reaction_diffusion

    def counting_cg(*args, **kwargs):
        calls.append(1)
        return original_cg(*args, **kwargs)

    def recording_newton(*args, **kwargs):
        u, res = original_newton(*args, **kwargs)
        residuals.append(res)
        return u, res

    monkeypatch.setattr(_implicit, "cg", counting_cg)
    for module in (micro_sim, macro_sim):
        monkeypatch.setattr(module, "newton_reaction_diffusion", recording_newton)
    return calls, residuals


def _runs(hole_side, u_init, v_init):
    cell = UnitCell(8, hole_side, (0.5, 0.5))
    common = dict(dt=DT, t_end=5 * DT, rate_law=LAW, dirichlet_edges=("left",), u_init=u_init, v_init=v_init)
    micro = MicroSolver(MicroConfig(D=D, **common), tile_domain(cell, 0.25)).run()
    macro = MacroSolver(MacroConfig(resolution_cells=16, **common), cell, D * np.eye(2)).run()
    return micro, macro


@pytest.mark.parametrize("hole_side", [0.5, 0.0], ids=["grain", "hole-free"])
def test_steps_without_a_reacting_carrier_are_direct_solves(hole_side, monkeypatch):
    # v = 0 and u below solubility put every carrier on the event branch,
    # where its net rate does not depend on u: J = B, and each Newton step
    # is one direct solve, certified by the same residual test.  A hole-free
    # cell has no grain faces, and its macro cells couple with weight 0
    calls, residuals = _counting(monkeypatch)
    for run in _runs(hole_side, lambda x, y: 0.9 * x, 0.0):
        assert run.mass[-1].mass_u > 0.0 and abs(run.mass[-1].drift) <= 1e-12 * run.mass[0].mass_u
    assert calls == [] and len(residuals) == 10 and max(residuals) <= 1e-12
    if hole_side == 0.0:
        # the slope is positive on every carrier, but its coupling is 0
        _runs(hole_side, 0.4, 0.05)
        assert calls == []


def test_a_reacting_step_runs_cg(monkeypatch):
    calls, residuals = _counting(monkeypatch)
    _runs(0.5, 0.4, 0.05)
    assert len(calls) >= 10 and len(residuals) == 10 and max(residuals) <= 1e-12


def test_cg_stops_at_the_first_iterate_below_its_absolute_floor():
    rng = np.random.default_rng(3)
    d = np.linspace(1.0, 1e3, 200)
    b = rng.standard_normal(d.size)
    floor = 1e-4 * np.linalg.norm(b)
    x, relres, iters = cg(lambda p: d * p, b, atol=floor, precond=lambda r: r.copy())
    assert relres * np.linalg.norm(b) <= floor
    r = b - d * x
    assert np.linalg.norm(r) <= 1.001 * floor and abs(r.sum()) <= 1.001 * floor
    # one iteration fewer does not reach the floor, and a floor a hundred
    # times lower takes more iterations
    with pytest.raises(SolverError):
        cg(lambda p: d * p, b, atol=floor, precond=lambda r: r.copy(), maxiter=iters - 1)
    assert cg(lambda p: d * p, b, atol=0.01 * floor, precond=lambda r: r.copy())[2] > iters


def test_cg_with_a_zero_right_hand_side_returns_zero_at_once():
    # the residual at x = 0 is b itself, exactly within any floor, 0 included
    x, relres, iters = cg(lambda p: 2.0 * p, np.zeros(5), atol=0.0, precond=lambda r: r.copy())
    assert iters == 0 and relres == 0.0 and not x.any()


def test_cg_floor_also_bounds_the_residual_sum():
    # a residual of one sign, with its 2-norm under the floor and its sum
    # above it, is not yet done: the sum is a mass defect the caller reads
    d = np.linspace(1.0, 1e3, 200)
    b = np.full(d.size, 1e-9)
    floor = 1.5 * np.linalg.norm(b)
    assert np.linalg.norm(b) <= floor < b.sum()
    x, _, iters = cg(lambda p: d * p, b, atol=floor, precond=lambda r: r.copy())
    r = b - d * x
    assert iters >= 1 and abs(r.sum()) <= 1.001 * floor


EDGE_SETS = [edges for k in range(5) for edges in itertools.combinations(EDGES, k)]


def backward_euler(m, axis_weights, edges, shift):
    A, _ = diffusion_operator(np.ones((m, m), dtype=bool), axis_weights, edges)
    return (A + shift * sp.identity(m * m)).tocsc()


@pytest.mark.parametrize("edges", EDGE_SETS, ids=lambda e: "+".join(e) or "none")
@settings(max_examples=15, deadline=None)
@given(
    m=st.integers(1, 64),
    weights=st.tuples(*[st.floats(1e-2, 1e1)] * 2),
    shift=st.floats(1e-4, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
def test_separable_solve_matches_sparse_direct_solve(edges, m, weights, shift, seed):
    # m = 1 and 2 give the degenerate tridiagonals; the error bound is the
    # round-off of a backward-stable solve times the Gershgorin condition bound
    b = np.random.default_rng(seed).standard_normal(m * m)
    x = separable_solve((m, m), weights, edges, shift)(b)
    ref = spla.spsolve(backward_euler(m, weights, edges, shift), b)
    kappa = 1.0 + 8.0 * sum(weights) / shift
    assert np.max(np.abs(x - ref)) <= 1e-13 * kappa * np.max(np.abs(ref))


def test_separable_solve_at_the_largest_macro_grid():
    m, weights, edges, shift = 512, (0.743, 0.743), ("left", "top"), (1.0 / 512) ** 2 / 0.0025
    b = np.random.default_rng(5).standard_normal(m * m)
    x = separable_solve((m, m), weights, edges, shift)(b)
    # B is SPD with smallest eigenvalue above shift, so the residual also
    # bounds the error: ||x - B^-1 b||_2 <= ||B x - b||_2 / shift
    r = backward_euler(m, weights, edges, shift) @ x - b
    assert np.max(np.abs(r)) <= 1e-12 * np.max(np.abs(b))


def refuse(*args, **kwargs):
    raise AssertionError("factored the backward-Euler operator with sparse LU")


def test_macro_run_needs_no_sparse_factor(monkeypatch):
    monkeypatch.setattr(_implicit, "factor_spd", refuse)
    cfg = MacroConfig(
        dt=DT, t_end=10 * DT, velocity_mode="darcy", rate_law=LAW, resolution_cells=32,
        dirichlet_edges=("left", "bottom"), u_init=0.4, v_init=0.05,
    )
    run = MacroSolver(cfg, UnitCell(8, 0.5, (0.5, 0.5)), np.diag([0.7, 0.3]), np.eye(2) * 0.02).run()
    assert len(run.states) == 11 and abs(run.mass[-1].drift) <= cfg.invariant_slack
    # the choice follows the mask, not the scale: a pore-scale grid without
    # grains is solved by separation of variables too
    grid = tile_domain(UnitCell(8, 0.0), 0.25)
    cfg = MicroConfig(dt=DT, t_end=5 * DT, D=D, rate_law=LAW, dirichlet_edges=("left", "bottom"), u_init=0.4)
    run = MicroSolver(cfg, grid).run()
    assert grid.fluid_mask.all() and len(run.states) == 6
    assert run.mass[-1].mass_u < run.mass[0].mass_u and abs(run.mass[-1].drift) <= cfg.invariant_slack


def test_micro_run_factors_its_operator_once(monkeypatch):
    calls = []

    def counting(B):
        calls.append(B.shape)
        return factor_spd(B)

    monkeypatch.setattr(_implicit, "factor_spd", counting)
    grid = tile_domain(UnitCell(8, 0.5, (0.5, 0.5)), 0.25)
    cfg = MicroConfig(dt=DT, t_end=5 * DT, D=D, rate_law=LAW, u_init=0.4, v_init=0.05)
    run = MicroSolver(cfg, grid).run()
    assert calls == [(grid.n_fluid_cells,) * 2]
    assert abs(run.mass[-1].drift) <= cfg.invariant_slack


# the growth of the peak resident size of a fresh process across one
# factor_spd of the eps = 1/32 micro operator (49,152 unknowns), in MB.  The
# peak is VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec from the
# process that started this one, so under a large test process the growth
# of ru_maxrss reads low (24-25 MB instead of 32 for a factor with default
# panels and a CSC copy)
FACTOR_GROWTH = """
import scipy.sparse as sp
from porechem import _implicit
from porechem.config import parse_config
from porechem.geometry import tile_domain

def peak_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

cfg = parse_config("[geometry]\\neps = 0.03125\\n")
grid, micro = tile_domain(cfg.cell, cfg.eps), cfg.micro
A, _ = _implicit.diffusion_operator(grid.fluid_mask, (micro.D, micro.D), micro.dirichlet_edges)
B = A + grid.h ** 2 / micro.dt * sp.identity(A.shape[0])
before = peak_kb()
_implicit.factor_spd(B)
print((peak_kb() - before) / 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak resident size from /proc")
def test_factor_resident_growth_is_bounded():
    # SuperLU allocates outside Python's allocator, where tracemalloc cannot
    # see it.  Default 10-column panels and a CSC copy of B grew the peak by
    # 29-33 MB; one-column panels on B's own arrays by 15-16 MB
    src = Path(porechem.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", FACTOR_GROWTH], env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) <= 20.0


@pytest.mark.parametrize("wrong", ["shift", "edges"])
def test_a_wrong_direct_solve_fails_its_certificate(wrong, monkeypatch):
    m, weights, edges, shift = 16, (0.7, 0.3), ("left",), 0.1
    mask = np.ones((m, m), dtype=bool)
    _implicit.ImplicitOperator(mask, weights, edges, shift)
    if wrong == "shift":
        def wrong_solve(shape, w, e, s):
            return separable_solve(shape, w, e, s * (1.0 + 1e-8))
    else:
        def wrong_solve(shape, w, e, s):
            return separable_solve(shape, w, ("right",), s)
    monkeypatch.setattr(_implicit, "separable_solve", wrong_solve)
    with pytest.raises(SolverError, match="probe residual"):
        _implicit.ImplicitOperator(mask, weights, edges, shift)
