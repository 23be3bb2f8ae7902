"""Conjugate-gradient solver for the package's SPD structured-grid systems.

The preconditioner is Jacobi by default.  A caller may pass its own M^-1
instead, and then ``A`` only has to support ``A @ x``: the implicit
transport step passes the solve of its once-factored backward-Euler
operator and applies its Newton matrix matrix-free.  Either way the
stopping rule is on the true residual of ``A``.

Pure-Neumann/periodic operators are singular with a constant null vector;
for those the iteration projects the constant out of the iterates and the
right-hand side, which keeps CG on the orthogonal complement where the
operator is definite.

``factor_spd`` is the one sparse LU factorization of the package, shared
by the implicit transport step and the Stokes cell solve.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .errors import SolverError


def _project_constant(x):
    x -= x.mean()
    return x


def cg(A, b, *, tol=1e-10, maxiter=None, precond=None, project_constant=False, x0=None):
    """Solve A x = b by preconditioned conjugate gradients.

    Parameters
    ----------
    A : scipy sparse matrix (SPD, or SPSD with constant null space), or a
        LinearOperator when ``precond`` is given.
    b : right-hand side.
    tol : relative residual target, ||r|| <= tol * ||b|| (absolute floor
        of tol when b = 0).
    precond : optional callable applying an SPD M^-1 to a residual; Jacobi
        scaling by the diagonal of A when None.
    project_constant : project the constant null vector out of b and every
        iterate (consistent singular systems).

    Returns
    -------
    (x, relres, iters)
    """
    b = np.asarray(b, dtype=float).copy()
    n = b.size
    if maxiter is None:
        maxiter = max(200, 20 * n)
    if precond is None:
        diag = A.diagonal()
        invdiag = np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 1.0)

        def precond(r):
            return invdiag * r

    if project_constant:
        _project_constant(b)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if project_constant and x0 is not None:
        _project_constant(x)

    r = b - A @ x
    bnorm = np.linalg.norm(b)
    floor = tol * max(bnorm, 1.0) if bnorm == 0.0 else tol * bnorm
    if np.linalg.norm(r) <= floor:
        return x, np.linalg.norm(r) / max(bnorm, 1.0), 0

    z = precond(r)
    if project_constant:
        _project_constant(z)
    p = z.copy()
    rz = r @ z
    for it in range(1, maxiter + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rnorm = np.linalg.norm(r)
        if rnorm <= floor:
            if project_constant:
                _project_constant(x)
            return x, rnorm / max(bnorm, 1.0), it
        z = precond(r)
        if project_constant:
            _project_constant(z)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG failed to reach {tol:g} in {maxiter} iterations "
        f"(relative residual {np.linalg.norm(r) / max(bnorm, 1.0):.3e})",
        residual=float(np.linalg.norm(r) / max(bnorm, 1.0)),
    )


def factor_spd(A):
    """Sparse LU factor of a symmetric positive definite matrix.

    The symmetric-mode ordering (diagonal pivots, minimum degree on
    ``A + A^T``) keeps the factor of the 5-point operators small.
    """
    return spla.splu(
        A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
