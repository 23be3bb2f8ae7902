"""Linear solvers for the package's structured-grid systems.

``cg`` is conjugate gradients for SPD systems.  The caller passes ``A``
as the function that applies it and the preconditioner M^-1: the implicit
transport step applies its Newton matrix matrix-free, preconditioned by
the direct solve of its backward-Euler operator, and the Stokes cell solve
runs CG on the pressure Schur complement, whose constant null space its
preconditioner projects out.  The iterates take the shape of the
right-hand side, a vector or an n x n array.  The stopping rule reads the
recurrence residual ``r -= alpha A p``; the callers check the true one:
Newton at its next iterate, the Stokes solve in its certificate.

The direct solves of the implicit transport step live with that step, in
`porechem._implicit`.  The cell problems need no sparse factor: their
operators are the periodic 5-point Laplacian of the cell grid changed on
the ring of nodes around the grain, which `CapacitanceSolver` inverts
exactly with FFTs and a small dense system on the ring.  It reads
the operator only through the ring's sources and conditions, so the
operator it inverts is never assembled, and it builds the capacitance
matrix a block of rows at a time: no index array is as large as the
matrix.  The matrix is assembled and factored in one array, and a solve
overwrites its right-hand side with the solution: the callers own the
arrays the cell layer works in.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import SolverError


def _dot(a, b) -> float:
    """The sum of ``a * b`` by numpy's pairwise summation.  BLAS ``ddot`` and
    ``dnrm2`` split their sums across threads, so ``np.vdot`` and
    ``np.linalg.norm`` round differently under different BLAS thread counts;
    this gives the same bits under any."""
    return float(np.add.reduce((a * b).ravel()))


def cg(A, b, *, precond, atol, maxiter=None):
    """Solve A x = b by preconditioned conjugate gradients.

    Parameters
    ----------
    A : function applying an SPD matrix (or an SPSD one, with ``precond``
        projecting its null space out) to an array shaped like ``b``.
    b : right-hand side, a vector or an array.
    precond : function applying an SPD M^-1 to a residual.
    atol : absolute target on the residual's 2-norm and on its sum: the
        loop stops at the first iterate with ``||r|| <= atol`` and
        ``|sum(r)| <= atol``.  The sum is the implicit step's mass defect,
        and a divergence at round-off in the Stokes Schur solve.

    Between calls of ``A`` and ``precond`` the loop holds three vectors, x,
    r and p: it drops ``A p`` and ``M^-1 r`` once used and updates p in
    place.

    Returns
    -------
    (x, relres, iters)
    """
    b = np.asarray(b, dtype=float)
    if maxiter is None:
        maxiter = max(200, 20 * b.size)
    x = np.zeros_like(b)

    r = b.copy()  # the residual at x = 0, without applying A
    rnorm = bnorm = np.sqrt(_dot(b, b))

    def done(rnorm):
        return rnorm <= atol and abs(r.sum()) <= atol

    if done(rnorm):
        return x, rnorm / max(bnorm, 1.0), 0

    p = precond(r).copy()  # updated in place, so never the preconditioner's own array
    rz = _dot(r, p)
    for it in range(1, maxiter + 1):
        Ap = A(p)
        alpha = rz / _dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        del Ap  # x, r and p are all that cross the next matvec
        rnorm = np.sqrt(_dot(r, r))
        if done(rnorm):
            return x, rnorm / max(bnorm, 1.0), it
        z = precond(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz  # p = z + beta p, in place and to the same bits
        p += z
        del z
        rz = rz_new
    raise SolverError(f"CG failed to reach atol = {atol:g} in {maxiter} iterations "
                      f"(relative residual {rnorm / max(bnorm, 1.0):.3e})")


class CapacitanceSolver:
    """Direct solves with a periodic 5-point operator changed on a ring of nodes.

    ``L = 4I - (periodic adjacency)`` on the n x n torus is diagonal in
    Fourier space, with symbol ``4 - 2cos(2 pi k/n) - 2cos(2 pi l/n)``, so
    its pseudo-inverse ``L+`` (the constant mode dropped) costs one
    rfft2/irfft2 pair.  An operator that differs from L only next to a ring
    of nodes is inverted by adding sources on the ring and choosing their
    strengths ``lam`` so that the ring conditions hold (the capacitance
    method; Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8, 1971):

        X = L+ (B + S lam) + c,    K^T X = D lam.

    Two kinds of ring are supported.  Without ``conditions`` the operator is
    ``L - U U^T`` for the dipoles ``U = S = K`` of cut edges (the graph
    Laplacian with those edges removed) and ``D = I``; the all-ones vector
    spans the null space of the capacitance matrix ``C = K^T L+ S - I``
    (dipoles do not see constants), so ``C - 1 1^T / m`` is solved instead.
    With ``conditions``, the sources sit on the ring nodes, ``K^T X = 0``
    holds conditions such as Dirichlet or mirror-ghost values there,
    ``D = 0``, and the constant c and the balance ``1^T (B + S lam) = 0``
    (without which ``L X = B + S lam`` could not hold) close the system.

    L is translation-invariant, so the entries of C are gathers of one
    Green's function ``g = L+ e_0`` at index differences: building C needs
    no solves.  C, with its border when there are conditions, is gathered
    into one Fortran-ordered array that dense LU factors in place, once.
    Every solve is two FFT solves and one pair of triangular solves, and
    `solve` overwrites its argument: the second FFT solve writes the
    solution into it.

    ``sources`` and ``conditions`` are ``(nodes, weights)`` pairs of (m, 2)
    arrays: row i is the vector with ``weights[i, k]`` at flat torus node
    ``nodes[i, k]``.  ``domain`` is the (n, n) mask of the operator's
    unknowns; right-hand sides and solutions are zero off it.
    """

    def __init__(self, domain, sources, conditions=None):
        n = domain.shape[0]
        self.domain = domain
        self.cut = conditions is None
        self.sources, self.conditions = sources, sources if self.cut else conditions
        freq = 2.0 * np.pi * np.arange(n) / n
        symbol = 4.0 - 2.0 * np.cos(freq)[:, None] - 2.0 * np.cos(freq[: n // 2 + 1])[None, :]
        symbol[0, 0] = np.inf  # the pseudo-inverse drops the constant mode
        self.inverse_symbol = 1.0 / symbol
        # C, bordered by the constant and the balance when there are
        # conditions, in one Fortran-ordered array that LU overwrites
        m, border = len(self.conditions[0]), 0 if self.cut else 1
        C = np.zeros((m + border, m + border), order="F")
        _gather_pairs(np.fft.irfft2(self.inverse_symbol, s=(n, n)), self.conditions, sources, C[:m, :m])
        if self.cut:
            C[np.diag_indices(m)] -= 1.0
            C -= 1.0 / m
        else:
            C[:m, m] = conditions[1].sum(axis=1)
            C[m, :m] = sources[1].sum(axis=1)
        self.capacitance = lu_factor(C, overwrite_a=True, check_finite=False)

    def _lplus(self, B, out=None):
        """``L+ B`` for arrays B of shape ``(k, n, n)``, into ``out`` if given.
        The transforms of `numpy.fft.rfft2` and `irfft2`, one axis at a
        time, run in one complex array."""
        F = np.fft.rfft(B)
        np.fft.fft(F, axis=-2, out=F)
        F *= self.inverse_symbol
        np.fft.ifft(F, axis=-2, out=F)
        return np.fft.irfft(F, B.shape[-1], out=out)

    def solve(self, b):
        """Overwrite the right-hand sides ``b``, of shape ``(n, n)`` or
        ``(k, n, n)``, with their solutions, zero off the domain; returns
        ``b``."""
        B = b if b.ndim == 3 else b[None]
        nodes, weights = self.conditions
        rhs = -(self._lplus(B).reshape(len(B), -1)[:, nodes] * weights).sum(axis=-1)
        if not self.cut:
            rhs = np.column_stack([rhs, -B.sum(axis=(1, 2))])
        lam = lu_solve(self.capacitance, rhs.T, check_finite=False).T
        nodes, weights = self.sources
        for B_k, lam_k in zip(B, lam):
            B_k += np.bincount(nodes.ravel(), (weights * lam_k[: len(nodes), None]).ravel(), B_k.size).reshape(B_k.shape)
        self._lplus(B, out=B)
        if not self.cut:
            B += lam[:, -1:, None]
        B[:, ~self.domain] = 0.0
        return b


def _gather_pairs(g, rows, cols, out):
    """Add ``rows^T L+ cols`` to ``out`` from the Green's function g of
    ``L+``: entry (i, j) sums the weight products times g at the index
    differences of the nodes of row i and column j.  The differences are
    taken 64 rows at a time, so no index array is as large as the result."""
    n = g.shape[0]
    g = g.ravel()
    for s in range(2):
        rx, ry = np.divmod(rows[0][:, s], n)
        for t in range(2):
            if cols[1][:, t].any():  # a monopole column has no second node
                cx, cy = np.divmod(cols[0][:, t], n)
                for i in range(0, len(out), 64):
                    b = slice(i, i + 64)
                    diff = (rx[b, None] - cx) % n * n
                    diff += (ry[b, None] - cy) % n
                    out[b] += np.outer(rows[1][b, s], cols[1][:, t]) * g[diff]
