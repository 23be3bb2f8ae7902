"""The implicit reaction-diffusion substep of both transport solvers.

Both transport solvers advance the solute with backward-Euler diffusion
while the precipitate exchange term is evaluated at the new solute level
through the event-resolved net rate ``G(u) = k (r(u) - w_eff)`` of the
exact Heaviside selection (`kinetics.net_rate_and_branch`).  G is monotone
nondecreasing in u and piecewise smooth, so Newton with the generalized
derivative (`kinetics.net_rate_slope`) converges globally for this
M-function system; we iterate until the nonlinear residual is small enough
that the per-step mass-balance defect sits at round-off.

``ImplicitOperator`` builds, once per run, the backward-Euler operator
``B = A + (h^2/dt) I``, A the masked 5-point diffusion operator, and a
direct solve of B, certified on a probe vector before the run.  On a grid
without solid cells, such as the macro grid, B is a Kronecker sum and
`separable_solve` inverts it by separation of variables, with no factor to
store; on the perforated grid the solve is the sparse LU factor of B.  The
Newton matrix ``J = B + diag(extra)`` differs from B only by the
nonnegative slope of the net rate on the reaction carriers.  When no
carrier adds any, as when every carrier is on the event branch, J is B
and the Newton step is one direct solve.  Otherwise ``B^-1`` is an SPD
preconditioner for CG on ``J``, applied matrix-free: a handful of
iterations per solve, stopped once CG's recurrence residual is below what
the Newton test can see; the next Newton iterate then evaluates the true
residual F.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .geometry import EDGE_CELLS, index_map
from .kinetics import RateLaw, net_rate_and_branch, net_rate_slope
from .kinetics import ode_step  # noqa: F401 -- not called here; perfbench/spans.py traces this name
from .linalg import cg

# Newton iterations before a solve counts as stalled
MAX_NEWTON = 60

# the Newton tolerance on max|F| / scale up to solute bounds of 1766, where
# the residual's round-off floor (`newton_tolerance`) reaches it.  Fixed,
# not a [tolerances] key: below that floor the solve stalls, and a looser
# tolerance only lets each step leave a larger mass defect
NEWTON_TOL = 1e-12

# bound on the probe residual ||B solve(b) - b||_inf / ||b||_inf that
# certifies a direct solve of B; both solves stay below 1e-13 up to
# 512 x 512.  Fixed, not a [tolerances] key: a small accepted tolerance
# must not fail a valid run here
SOLVE_TOL = 1e-10


def newton_tolerance(box_bound: float) -> float:
    """The Newton tolerance of a run whose solute stays below ``box_bound``:
    `NEWTON_TOL`, or the round-off floor of the residual with a margin of
    1.5 where that is larger.

    The residual ``max|F| / scale`` is a difference of terms of the size of
    the solute, and its round-off floor measured 0.3-1.7 eps * box_bound
    (grids up to 512 x 512, box bounds 1-4000).
    """
    return max(NEWTON_TOL, 1.5 * 1.7 * np.finfo(float).eps * box_bound)


def diffusion_operator(mask, axis_weights, dirichlet_edges, shift=0.0):
    """Masked 5-point operator with one face weight per axis, plus
    ``shift`` times the identity.

    Neighbouring active cells are coupled across each shared face with the
    weight of the face's axis (no wrap at the outer boundary), and an
    active cell on a Dirichlet edge gets the half-cell term ``2 * weight``
    on its diagonal.  Returns ``(A + shift I, dir_weight)``, with
    ``dir_weight`` that half-cell term alone: the right-hand side gets
    ``dir_weight * u_D``.
    """
    n = int(np.count_nonzero(mask))
    index = index_map(mask)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for axis, weight in enumerate(axis_weights):
        lo = (slice(0, -1), slice(None)) if axis == 0 else (slice(None), slice(0, -1))
        hi = (slice(1, None), slice(None)) if axis == 0 else (slice(None), slice(1, None))
        both = mask[lo] & mask[hi]
        a = index[lo][both]
        b = index[hi][both]
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([np.full(a.size, -weight)] * 2)
        diag += weight * (np.bincount(a, minlength=n) + np.bincount(b, minlength=n))
    dir_weight = np.zeros(n)
    for e in dirichlet_edges:
        axis, sel = EDGE_CELLS[e]
        dir_weight[index[sel][mask[sel]]] += 2.0 * axis_weights[axis]
    A = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return A + sp.diags(diag + dir_weight + shift), dir_weight


def separable_solve(shape, axis_weights, dirichlet_edges, shift):
    """Direct solve of ``A + shift I``, A the `diffusion_operator` of a grid
    of ``shape`` with every cell active, as a function of a flat right-hand
    side.

    A is then the Kronecker sum ``T_x (+) T_y`` of the 1-D operators of the
    two axes, each `diffusion_operator` itself on one line of cells with the
    other axis weighted 0, so the half-cell and no-flux rules are the 2-D
    ones.  With the unknowns as an (nx, ny) array X the system reads
    ``T_x X + X T_y + shift X = R``, and with the eigendecompositions
    ``T = Q diag(lam) Q^T``, computed here once, each solve is
    ``X = Q_x ((Q_x^T R Q_y) / (lam_x (+) lam_y + shift)) Q_y^T``: four
    dense matmuls and one elementwise product (separation of variables;
    Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).
    """
    (nx, ny), (wx, wy) = shape, axis_weights
    T_x, _ = diffusion_operator(np.ones((nx, 1), dtype=bool), (wx, 0.0), dirichlet_edges)
    T_y, _ = diffusion_operator(np.ones((1, ny), dtype=bool), (0.0, wy), dirichlet_edges)
    lam_x, Q_x = np.linalg.eigh(T_x.toarray())
    lam_y, Q_y = np.linalg.eigh(T_y.toarray())
    inverse_eigenvalues = 1.0 / (lam_x[:, None] + lam_y[None, :] + shift)

    def solve(b):
        X = Q_x.T @ b.reshape(nx, ny) @ Q_y
        return (Q_x @ (X * inverse_eigenvalues) @ Q_y.T).ravel()

    return solve


def factor_spd(A):
    """Sparse LU factor of a symmetric positive definite CSR matrix.

    The symmetric-mode ordering (diagonal pivots, minimum degree on
    ``A + A^T``) keeps the factor of the 5-point operators small.  A is
    symmetric, so its CSR arrays are its CSC arrays: ``A.T`` hands them to
    SuperLU without a copy.  SuperLU sizes its working arrays by the panel
    width times the order of A, and on these operators wider panels buy no
    speed: one-column panels (``panel_size=1``, the default is 10) give a
    factor of the same fill in about half the working memory, and sooner.
    """
    return spla.splu(
        A.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, panel_size=1,
        options={"SymmetricMode": True},
    )


class ImplicitOperator:
    """The backward-Euler operator ``B = A + shift I`` of one transport run,
    with a certified direct solve.

    ``B`` is the CSR matrix of the `diffusion_operator` of the active cells
    of ``mask`` with the time-scaled volume term ``shift = h^2/dt``, and
    ``dir_weight`` its Dirichlet half-cell terms; all three are fixed for
    a run, and A is not kept beside B.  ``solve`` applies ``B^-1`` to a
    vector: `separable_solve` when ``mask`` has no solid cells, the sparse
    LU factor of this same B otherwise.
    """

    def __init__(self, mask, axis_weights, dirichlet_edges, shift):
        self.B, self.dir_weight = diffusion_operator(mask, axis_weights, dirichlet_edges, shift)
        self.shift = shift
        # residual measured against the operator scale; a mass-only scale is
        # unreachable when D*dt/h^2 is large (round-off floor of the solve)
        self.scale = float(np.max(self.B.diagonal()))
        self.solve = separable_solve(mask.shape, axis_weights, dirichlet_edges, shift) if mask.all() else factor_spd(self.B).solve
        probe = np.random.default_rng(0).standard_normal(self.B.shape[0])
        res = float(np.max(np.abs(self.B @ self.solve(probe) - probe)) / np.max(np.abs(probe)))
        if not res <= SOLVE_TOL:
            raise SolverError(
                f"direct solve of the backward-Euler operator left probe residual {res:.3e} > {SOLVE_TOL:g}"
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
    newton_tol,
):
    """Solve  B u + weight * sum_f G(u[owners_f]) = rhs.

    ``op`` holds the (SPD) backward-Euler operator ``B`` over active cells
    and its direct solve; ``owners`` maps reaction carriers (grain faces or
    cells) to cell indices and ``weight`` is their common coupling (eps*h
    for faces, the coupled-storage c_g*h^2 for macro cells).  ``newton_tol``
    is the run's `newton_tolerance`.
    Returns ``(u, residual)`` with residual in concentration units.

    Each iterate evaluates the rate law once.  The Newton step is
    ``B^-1 F`` when no carrier adds to the Jacobian's diagonal, and CG on
    ``J`` otherwise.  CG stops once both the 2-norm and the sum of its
    recurrence residual are within ``0.1 newton_tol scale``: the next
    iterate's residual and mass defect are then what the Newton test
    accepts, up to the step's nonlinear remainder.  The sum is read too
    because it can stay above that allowance while the 2-norm is below it.
    """
    u = u0.copy()
    n = u.size
    B, scale = op.B, op.scale
    best = None  # the accepted iterate with the smallest mass defect so far
    for _ in range(MAX_NEWTON):
        u_own = u[owners]
        g, smooth = net_rate_and_branch(law, u_own, v, dt)
        F = B @ u - rhs
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
        extra = None
        if smooth.any():
            extra = np.bincount(owners, weights=weight * net_rate_slope(law, u_own, smooth), minlength=n)
        if extra is None or not extra.any():
            delta = op.solve(F)  # J = B
        else:
            delta, _, _ = cg(lambda p: B @ p + extra * p, F, atol=0.1 * newton_tol * scale, precond=op.solve)
        u = u - delta
    raise SolverError(f"implicit reaction-diffusion Newton stalled at residual {res:.3e}")
