"""Semismooth Newton solve for the implicit reaction-diffusion substep.

Both transport solvers advance the solute with backward-Euler diffusion
while the precipitate exchange term is evaluated at the new solute level
through the event-resolved net rate ``G(u) = k (r(u) - w_eff)`` of the
exact Heaviside selection (`kinetics.net_rate`).  G is monotone
nondecreasing in u and piecewise smooth, so Newton with the generalized
derivative (`kinetics.net_rate_derivative`) converges globally for this
M-function system; we iterate until the nonlinear residual is small enough
that the per-step mass-balance defect sits at round-off.

Each solver builds a direct solve of its fixed backward-Euler operator
``B = A + diag(mass)`` once (``ImplicitOperator``): the sparse LU factor of
B on the perforated grid, and on a grid without solid cells, such as the
macro grid, the `transport.separable_solve` the solver passes in.  Either
is certified on a probe vector before the run.  The Newton matrix
``J = B + diag(extra)`` differs from B only by the nonnegative slope of the
net rate on the reaction carriers, so ``B^-1`` is an SPD preconditioner for
CG on ``J``: a handful of iterations per solve, one when no carrier reacts.
``J`` is applied matrix-free, and the CG tolerance stays on its true
residual.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import SolverError
from .kinetics import RateLaw, net_rate, net_rate_derivative
from .kinetics import ode_step  # noqa: F401 -- not called here; perfbench/spans.py traces this name
from .linalg import cg, factor_spd

# Newton iterations before a solve counts as stalled
MAX_NEWTON = 60

# bound on the probe residual ||B solve(b) - b||_inf / ||b||_inf that
# certifies a direct solve of B; both solves stay below 1e-13 up to
# 512 x 512.  Fixed, not [tolerances] linear: a small accepted linear
# tolerance must not fail a valid run here
SOLVE_TOL = 1e-10


def newton_floor(box_bound: float) -> float:
    """The smallest ``newton_tol`` the Newton solve can meet: the round-off
    floor of its residual, with a margin of 1.5.

    The residual ``max|F| / scale`` is a difference of terms of the size of
    the solute, and its round-off floor measured 0.3-1.7 eps * box_bound
    (grids up to 512 x 512, box bounds 1-4000).
    """
    return 1.5 * 1.7 * np.finfo(float).eps * box_bound


class ImplicitOperator:
    """The backward-Euler operator ``B = A + diag(mass_diag)`` of one
    transport solver, with a certified direct solve.

    ``A`` is the diffusion operator over active cells and ``mass_diag`` the
    time-scaled volume term; both are fixed for a run.  ``solve`` applies
    ``B^-1`` to a vector; without one, B is factored here with sparse LU.
    """

    def __init__(self, A, mass_diag, solve=None):
        self.A = A
        self.mass_diag = mass_diag
        # residual measured against the operator scale; a mass-only scale is
        # unreachable when D*dt/h^2 is large (round-off floor of the solve)
        self.scale = float(np.max(mass_diag + A.diagonal()))
        B = A + sp.diags(mass_diag)
        self.solve = factor_spd(B).solve if solve is None else solve
        probe = np.random.default_rng(0).standard_normal(A.shape[0])
        res = float(np.max(np.abs(B @ self.solve(probe) - probe)) / np.max(np.abs(probe)))
        if not res <= SOLVE_TOL:
            raise SolverError(
                f"direct solve of the backward-Euler operator left probe residual {res:.3e} > {SOLVE_TOL:g}",
                residual=res,
            )


def newton_reaction_diffusion(
    op: ImplicitOperator,
    rhs,
    owners,
    weight,
    law: RateLaw,
    v,
    dt,
    u0,
    *,
    lin_tol,
    newton_tol,
):
    """Solve  mass_diag*u + A u + weight * sum_f G(u[owners_f]) = rhs.

    ``op`` holds the (SPD) diffusion operator ``A`` over active cells, the
    time-scaled volume term ``mass_diag`` and the solve of their sum;
    ``owners`` maps reaction carriers (grain faces or cells) to cell indices
    and ``weight`` is their common coupling (eps*h for faces, the
    coupled-storage c_g*h^2 for macro cells).  ``lin_tol`` and
    ``newton_tol`` are ``[tolerances] linear`` and ``newton``.
    Returns ``(u, residual)`` with residual in concentration units.
    """
    u = u0.copy()
    n = u.size
    A, mass_diag, scale = op.A, op.mass_diag, op.scale
    best = None  # the accepted iterate with the smallest mass defect so far
    for _ in range(MAX_NEWTON):
        g = net_rate(law, u[owners], v, dt)
        F = mass_diag * u + A @ u - rhs
        F += np.bincount(owners, weights=weight * g, minlength=n)
        res = float(np.max(np.abs(F))) / scale
        # the signed residual sum is the per-step mass defect: drive it an
        # order further, so conservation does not accumulate over long runs,
        # or until it stops falling: then it sits at its round-off floor,
        # which grows with the grid and the solute level and can lie above
        # 0.1 * newton_tol, and the iterate before holds the smaller defect
        if res <= newton_tol:
            defect = abs(float(F.sum()))
            if defect <= 0.1 * newton_tol * scale:
                return u, res
            if best is not None and defect >= best[2]:
                return best[0], best[1]
            best = (u, res, defect)
        gp = net_rate_derivative(law, u[owners], v, dt)
        d = mass_diag + np.bincount(owners, weights=weight * gp, minlength=n)
        delta, _, _ = cg(lambda p: A @ p + d * p, F, tol=lin_tol, precond=op.solve)
        u = u - delta
    raise SolverError(f"implicit reaction-diffusion Newton stalled at residual {res:.3e}", residual=res)
