"""The preconditioned implicit Newton solve against a direct-solve reference.

Both transport solvers are put in the dissolution regime of the default
configuration, with every reaction carrier on the active branch (v > 0,
u above the onset), so the Newton matrix ``J = B + diag(extra)`` differs
from the factored operator ``B`` on every owner cell.  The reference Newton
loop scatters with ``np.add.at`` and solves ``J`` with ``spsolve`` on each
iteration.

The preconditioned spectrum lies in ``[1, 1 + max(extra / mass_diag)]``,
so the CG count grows with ``dt * k * r'(u)``; it is a count that does not
depend on the machine, and Jacobi CG needs over a hundred iterations on
these systems.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porechem import _implicit
from porechem.geometry import UnitCell, tile_domain
from porechem.kinetics import RateLaw, net_rate, net_rate_derivative
from porechem.macro_sim import MacroConfig, MacroSolver
from porechem.micro_sim import MicroConfig, MicroSolver

LAW = RateLaw()
DT = 0.01
D = 1.0


def reference_newton(op, rhs, owners, weights, v, u0, tol=1e-12):
    u = u0.copy()
    n = u.size
    B = op.A + sp.diags(op.mass_diag)
    for _ in range(60):
        g = net_rate(LAW, u[owners], v, DT)
        F = op.mass_diag * u + op.A @ u - rhs
        np.add.at(F, owners, weights * g)
        if np.max(np.abs(F)) <= tol * op.scale and abs(F.sum()) <= 0.1 * tol * op.scale:
            return u
        gp = net_rate_derivative(LAW, u[owners], v, DT)
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
    rhs = solver.implicit.mass_diag * u0 + solver.dir_weight * cfg.dirichlet_value
    return solver.implicit, rhs, solver.owners, solver.weight, v, u0


def macro_problem():
    cfg = MacroConfig(
        dt=DT, t_end=DT, S=D * np.eye(2), pore_area=0.75, surface_density=2.0,
        rate_law=LAW, resolution_cells=32, dirichlet_edges=("left",),
    )
    solver = MacroSolver(cfg)
    rng = np.random.default_rng(8)
    u0 = rng.uniform(0.0, 0.3, solver.m * solver.m)
    v = np.full(u0.size, 0.05)
    rhs = solver.implicit.mass_diag * u0 + solver.dir_weight * cfg.dirichlet_value
    return solver.implicit, rhs, solver.owners, solver.weight, v, u0


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
    u, res = _implicit.newton_reaction_diffusion(op, rhs, owners, weights, LAW, v, DT, u0,
                                                 lin_tol=1e-12, newton_tol=1e-12)

    slope = net_rate_derivative(LAW, u[owners], v, DT)
    assert np.all(slope > 0.0)
    assert res <= 1e-12
    ref = reference_newton(op, rhs, owners, weights, v, u0)
    assert np.max(np.abs(u - ref)) <= 1e-11
    assert iters and max(iters) <= 5
