"""Semismooth Newton solve for the implicit reaction-diffusion substep.

Both transport solvers advance the solute with backward-Euler diffusion
while the precipitate exchange term is evaluated at the new solute level
through the event-resolved net rate ``G(u) = k (r(u) - w_eff)`` of the
exact Heaviside selection (`kinetics.net_rate`).  G is monotone
nondecreasing in u and piecewise smooth, so Newton with the generalized
derivative (`kinetics.net_rate_derivative`) converges globally for this
M-function system; we iterate until the nonlinear residual is small enough
that the per-step mass-balance defect sits at round-off.

Each solver factors its fixed backward-Euler operator ``B = A + diag(mass)``
once (``ImplicitOperator``).  The Newton matrix ``J = B + diag(extra)``
differs from it only by the nonnegative slope of the net rate on the
reaction carriers, so ``B^-1`` is an SPD preconditioner for CG on ``J``:
a handful of iterations per solve, one when no carrier reacts.  ``J`` is
applied matrix-free, and the CG tolerance stays on its true residual.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .kinetics import RateLaw, net_rate, net_rate_derivative
from .kinetics import ode_step  # noqa: F401 -- not called here; perfbench/spans.py traces this name
from .linalg import cg, factor_spd

# Newton iterations before a solve counts as stalled
MAX_NEWTON = 60


class ImplicitOperator:
    """The backward-Euler operator ``B = A + diag(mass_diag)`` of one
    transport solver, with its sparse LU factor.

    ``A`` is the diffusion operator over active cells and ``mass_diag`` the
    time-scaled volume term; both are fixed for a run, so ``B`` is factored
    here once.
    """

    def __init__(self, A, mass_diag):
        self.A = A
        self.mass_diag = mass_diag
        # residual measured against the operator scale; a mass-only scale is
        # unreachable when D*dt/h^2 is large (round-off floor of the solve)
        self.scale = float(np.max(mass_diag + A.diagonal()))
        self.lu = factor_spd(A + sp.diags(mass_diag))


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
    time-scaled volume term ``mass_diag`` and the factor of their sum;
    ``owners`` maps reaction carriers (grain faces or cells) to cell indices
    and ``weight`` is their common coupling (eps*h for faces, the
    coupled-storage c_g*h^2 for macro cells).  ``lin_tol`` and
    ``newton_tol`` are ``[tolerances] linear`` and ``newton``.
    Returns ``(u, residual)`` with residual in concentration units.
    """
    u = u0.copy()
    n = u.size
    A, mass_diag, scale = op.A, op.mass_diag, op.scale
    for _ in range(MAX_NEWTON):
        g = net_rate(law, u[owners], v, dt)
        F = mass_diag * u + A @ u - rhs
        F += np.bincount(owners, weights=weight * g, minlength=n)
        res = float(np.max(np.abs(F))) / scale
        # the signed residual sum is the per-step mass defect: drive it an
        # order further so conservation does not accumulate over long runs
        if res <= newton_tol and abs(float(F.sum())) <= 0.1 * newton_tol * scale:
            return u, res
        gp = net_rate_derivative(law, u[owners], v, dt)
        d = mass_diag + np.bincount(owners, weights=weight * gp, minlength=n)
        J = spla.LinearOperator((n, n), matvec=lambda p, d=d: A @ p + d * p, dtype=float)
        delta, _, _ = cg(J, F, tol=lin_tol, precond=op.lu.solve)
        u = u - delta
    raise SolverError(f"implicit reaction-diffusion Newton stalled at residual {res:.3e}", residual=res)
