"""Periodic cell problems on the unit cell and the effective tensors.

Two families of problems are solved on the fluid part Y of the unit cell:

* scalar corrector problems (one per direction) for the effective
  diffusion tensor S: Laplace's equation with the no-total-flux condition
  ``nu . (grad xi_i + e_i) = 0`` on the grain boundary, periodic on the
  cell edges, zero mean;
* Stokes problems with unit body force e_j, no-slip on the grain and
  periodic edges, for the permeability tensor K.

Discretization is cell-centered finite volumes with two-point fluxes for
the correctors and a staggered (MAC) grid for Stokes.  On the grid-aligned
geometry both are flux-exact, which makes the tensor identities hold to
solver tolerance rather than discretization error:

    S_ij |Y| / D = quadratic form (e_i + grad xi_i, e_j + grad xi_j)
                 = |Y| d_ij + correction moments      (cross-checked)
    K_ij |Y|     = (grad chi^i, grad chi^j)

The correction moments are grain-boundary integrals adjusted by the
wall-strip volume that the face quadrature cannot see; this keeps the
tensor equal to the Ritz energy of the discrete corrector, whose value
error contracts quadratically in the corrector error (observed refinement
order ~ h^(4/3), the grain-corner limit).  The tensors use the pore-volume
normalization ``(1/|Y|) * integral over Y``.

The grain is one grid-aligned square, so the transposed cell is a periodic
shift of the cell (`_transposed`), and it maps each direction-0 problem
onto its direction-1 problem.  Each family is solved once, in direction 0;
the direction-1 solution is the mapped one, certified against its own
operators and data like a solve.

No cell problem needs a sparse matrix.  Every field lives on an n x n
array of the cell grid, zero off its active nodes: a corrector or a
pressure on the fluid cells, a face velocity, a (2, n, n) array, on the
active u- and v-faces.  The corrector matrix and both blocks of the
velocity Laplacian are the periodic 5-point Laplacian changed only on the
ring of nodes around the grain; each is applied as a stencil (`_Stencil`),
and `linalg.CapacitanceSolver` inverts it exactly with two FFT solves and
a dense system on the ring.  The corrector ring is the 4a fluid-solid
edges (a grain cells per side).  The Stokes problem is solved by CG on the
pressure Schur complement over the velocity Laplacian, with the pressure
gradient G and its transpose as two-point differences on the arrays.  The
v-block of the Laplacian is the `_transposed` u-block, so one ring system
of the u-block (4a - 2 wall and ghost nodes) serves both, and every
application of the inverse is one two-column solve.  Each ring solver
lives only for its solve: a solution keeps the operators its certificates
read.

The cell layer works in arrays its callers own: a ring solve overwrites
its right-hand side, the Stokes operators fill one buffer per result, and
the certificates work one velocity block at a time.  Each keeps the order
of operations of the whole-array form, so the tensors and certificates do
not depend on how the work is split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, DegeneracyError, SolverError
from .geometry import UnitCell
from .gridio import read_csv, write_csv
from .linalg import CapacitanceSolver, cg

# the default of [tolerances] cell
DEFAULT_TOL = 1e-10

# Measured with one BLAS thread over every aligned cell up to n = 24, 250
# random ones up to n = 128, and grains of one to sixteen cells, of side 1/2
# and leaving channels two or three cells wide, at n = 32 to 512:
# - the corrector and Stokes momentum backward errors, which [tolerances]
#   cell bounds, do not grow with n: at most 1.54e-16 (n = 3), 1.1e-16 for
#   n >= 4 and 7.1e-17 for n >= 25.  CELL_TOL_FLOOR, the least value
#   `parse_config` accepts, adds a margin of 1.6.
# - the S and K certificates measure the forward error of the solves, which
#   grows with n and varies tenfold between neighbouring cells: K's gradient
#   identity up to 9.4e-14 of max|K| (n = 448, one-cell grain), S's
#   quadratic form up to 3.9e-14 (n = 384, side 1/2), the asymmetries up to
#   1.5e-17.  SPD_TOL bounds them, relative to max|K| or max(D, 1), with a
#   margin of 1e5: a fixed guard, not a [tolerances] key, that only an
#   unconverged solve exceeds
CELL_TOL_FLOOR = 2.5e-16
SPD_TOL = 1e-8

# pressure Schur-complement CG: the residual's 2-norm and sum within
# _SCHUR_TOL ||rhs||, well inside the max-norm divergence acceptance of
# `solve`.  The residual is a divergence, whose sum stayed within 0.18 of
# that target (every 7th aligned cell of n = 3 to 24, and n = 64 to 512).
# The iteration count does not grow with n, so the cap only turns a
# stalled solve into a SolverError
_SCHUR_TOL = 1e-13
_SCHUR_MAXITER = 500

# bound on the Stokes divergence, relative to max(|velocity| / h, 1), that
# certifies a cell solve (3e-16 to 6e-14 measured up to n = 512).  A fixed
# guard, not [tolerances] cell, which bounds the momentum residual
_DIV_TOL = 1e-12


# ---------------------------------------------------------------------------
# scalar corrector problems
# ---------------------------------------------------------------------------

@dataclass
class CellScalarField:
    """Corrector field xi_i on the unit cell (zero on solid cells)."""

    cell: UnitCell
    values: np.ndarray  # (n, n), zero-mean over fluid, 0 in solid
    residual: float     # backward error of the solve (`solve_diffusion_cell`)


def _transposed(cell: UnitCell, f: np.ndarray) -> np.ndarray:
    """The transposed cell's field ``f.T`` as a field of the cell.

    Transposing moves the grain at corner (i0, j0) to (j0, i0); the periodic
    shift by ``(i0 - j0, j0 - i0)`` puts it back.  Cell values stay cell
    values and u-faces become v-faces (and back), so the map takes each
    direction-0 cell problem to its direction-1 problem.
    """
    i0, j0 = cell.grain_corner
    return np.roll(f.T, (i0 - j0, j0 - i0), axis=(0, 1))


def _cut_edges(cell: UnitCell):
    """Dipoles ``e_f - e_s`` of the fluid-solid edges (the grain faces), as
    the flat grid indices (fluid cell, solid cell) of each edge and the
    weights (1, -1)."""
    owner_i, owner_j, axis, sign, _ = cell.grain_faces
    solid = ((owner_i + sign * (axis == 0)) % cell.n, (owner_j + sign * (axis == 1)) % cell.n)
    edges = np.column_stack([owner_i * cell.n + owner_j, solid[0] * cell.n + solid[1]])
    return edges, np.tile([1.0, -1.0], (len(edges), 1))


class _Stencil:
    """A periodic 5-point operator on n x n arrays, never assembled:

        (A X)_f = diag_f X_f - sum of X over the four neighbours of f

    on the nodes f marked ``active``, and zero off them.  X must be zero off
    ``active``, so a neighbour that is not active drops out of the sum.
    """

    def __init__(self, active, diag):
        self.active = active
        self.diag = diag

    def __matmul__(self, X):
        Y = self.diag * X
        for axis in (0, 1):
            for step in (1, -1):
                Y -= np.roll(X, -step, axis=axis)
        np.copyto(Y, 0.0, where=~self.active)
        return Y


def _surface_functional(cell: UnitCell, direction: int) -> np.ndarray:
    """Quadrature weights for the grain-boundary moment  l_j(f) = sum f nu_j h,
    using the owner-cell value as the face trace, as an (n, n) array."""
    owner_i, owner_j, axis, sign, _ = cell.grain_faces
    ell = np.zeros((cell.n, cell.n))
    sel = axis == direction
    np.add.at(ell, (owner_i[sel], owner_j[sel]), sign[sel] * cell.h)
    return ell


def solve_diffusion_cell(cell: UnitCell, tol: float = DEFAULT_TOL) -> list[CellScalarField]:
    """Solve the corrector problems ``[xi_1, xi_2]``, each to a backward
    error ``||A xi - b|| / || |A||xi| + |b| ||`` of at most ``tol``
    (`SolverError` otherwise).

    The corrector matrix is the fluid block of ``L - U U^T``, L the periodic
    5-point Laplacian of the cell grid and U the dipoles ``e_f - e_s`` of
    the 4a fluid-solid edges, so `linalg.CapacitanceSolver` inverts it with
    the dipoles as its ring.  It solves direction 0; ``xi_2`` is the
    `_transposed` ``xi_1``, and its residual is taken against the
    direction-1 data like that of a solve.
    """
    fluid = cell.fluid
    if cell.hole_side == 0.0:
        # no grain boundary: zero Neumann data, zero field in the gauge
        return [CellScalarField(cell, np.zeros((cell.n, cell.n)), 0.0) for _ in range(2)]
    # the grain condition is no total flux, nu . grad xi = -nu . e_i with nu
    # pointing into the grain, entering the weak form as -l_i.  With this
    # right-hand side the discrete solution is exactly the minimizer of the
    # face-sum energy  sum over fluid faces of (e_i t h + d xi)^2, which makes
    # the energy-based tensor evaluation quadratically accurate in the
    # corrector error
    rhs = [-_surface_functional(cell, i) for i in range(2)]
    # pure-Neumann/periodic solvability: the boundary data must integrate to
    # zero, which the closed grain contour guarantees on aligned geometry
    if any(abs(float(b.sum())) > 1e-12 * max(float(np.abs(b).sum()), 1.0) for b in rhs):
        raise AssemblyError("grain Neumann data are incompatible (nonzero total flux)")
    # the graph Laplacian of the fluid cells: unit weights, and on the
    # diagonal the number of fluid neighbours
    neighbours = np.zeros(fluid.shape, dtype=np.int8)
    for axis in (0, 1):
        for step in (1, -1):
            neighbours += np.roll(fluid, -step, axis=axis)
    A = _Stencil(fluid, neighbours)
    ring = CapacitanceSolver(fluid, _cut_edges(cell))
    x = np.zeros_like(rhs[0])
    for _ in range(2):  # one refinement step: backward error 1.4e-16 -> 4.3e-17 at n = 256
        x += ring.solve(rhs[0] - A @ x)
    del ring  # the certificates need only the stencil
    x[fluid] -= x[fluid].mean()
    fields = []
    for b, f in zip(rhs, (x, _transposed(cell, x))):
        # relative to the sizes of the terms the residual adds up,
        # |A||f| + |b| with |A| = 2 diag(A) - A, as Stokes `certify` takes
        # it: a backward error, at round-off at any n
        abs_f = np.abs(f)
        sizes = 2.0 * A.diag * abs_f - A @ abs_f + np.abs(b)
        relres = float(np.linalg.norm(A @ f - b) / np.linalg.norm(sizes))
        if not relres <= tol:  # a NaN residual fails too
            raise SolverError(f"corrector solve left relative residual {relres:.3e} > {tol:g}")
        fields.append(CellScalarField(cell, f, relres))
    return fields


def surface_moment(cell: UnitCell, values: np.ndarray, direction: int) -> float:
    """Discrete boundary moment  sum over grain faces of f(owner) nu_j h.

    By the divergence theorem (periodic edges cancel) this is the discrete
    volume integral of the j-derivative of f over the face-covered pore.
    """
    return float(np.vdot(_surface_functional(cell, direction), values))


def face_volumes(cell: UnitCell) -> np.ndarray:
    """Pore volume covered by fluid-fluid faces, per axis.

    This is |Y| minus the one-cell strip hugging the grain walls normal to
    the axis; it is the natural quadrature domain of the face-based energy.
    """
    fluid = cell.fluid
    h2 = cell.h * cell.h
    return np.array(
        [float(np.count_nonzero(fluid & np.roll(fluid, -1, axis=ax))) * h2 for ax in (0, 1)]
    )


def quadratic_form(cell: UnitCell, fields) -> np.ndarray:
    """Face-sum energy matrix  Q_ij = sum over fluid faces of
    (e_i . t h + d xi_i)(e_j . t h + d xi_j),  t the face axis.

    This is the discrete version of (e_i + grad xi_i, e_j + grad xi_j) over
    Y and is a Gram matrix, hence symmetric positive definite whenever the
    directions e_i are independent.
    """
    fluid = cell.fluid
    h = cell.h
    Q = np.zeros((2, 2))
    for ax in (0, 1):
        both = fluid & np.roll(fluid, -1, axis=ax)
        g = []
        for i in range(2):
            d = np.roll(fields[i].values, -1, axis=ax) - fields[i].values
            g.append(d[both] + (h if i == ax else 0.0))
        for i in range(2):
            for j in range(2):
                Q[i, j] += float(np.sum(g[i] * g[j]))
    return Q


def correction_matrix(cell: UnitCell, fields) -> np.ndarray:
    """Corrector moments  C_ij ~ integral over Y of d(xi_i)/dy_j.

    Evaluated as the grain-boundary moment of xi_i in direction j minus the
    wall-strip volume missing from the face quadrature domain, so that
    ``|Y| I + C`` coincides with the Ritz energy of the discrete corrector
    (the O(h) strip deficit would otherwise dominate the refinement error).
    """
    C = np.empty((2, 2))
    vols = face_volumes(cell)
    for i in range(2):
        for j in range(2):
            C[i, j] = surface_moment(cell, fields[i].values, j)
            if i == j:
                C[i, j] -= cell.pore_area - vols[i]
    return C


def assemble_S(cell: UnitCell, fields, D: float = 1.0):
    """Effective diffusion tensor  S = D (I + C / |Y|), symmetrized.

    Returns ``(S, diagnostics)``.  The independently evaluated quadratic
    form must reproduce S (the symmetry/definiteness certificate); its
    deviation is reported as ``quad_err`` and, like the asymmetry residual,
    blows up when a cell solve did not converge.
    """
    C = correction_matrix(cell, fields)
    S_raw = D * (np.eye(2) + C / cell.pore_area)
    asym = float(np.max(np.abs(S_raw - S_raw.T)))
    if not asym <= SPD_TOL * max(D, 1.0):
        raise AssemblyError(f"S asymmetry residual {asym:.3e} exceeds {SPD_TOL:g}")
    S = 0.5 * (S_raw + S_raw.T)
    eigs = np.linalg.eigvalsh(S)
    if not eigs[0] > 0.0:
        raise AssemblyError(f"S is not positive definite (eigenvalues {eigs})")
    if not np.all(np.diag(S) <= D * (1.0 + SPD_TOL)):
        raise AssemblyError(f"diagonal of S exceeds the molecular bound D = {D}")
    quad_err = float(np.max(np.abs(D * quadratic_form(cell, fields) / cell.pore_area - S)))
    if not quad_err <= SPD_TOL * max(D, 1.0):
        raise AssemblyError(f"quadratic-form residual {quad_err:.3e} exceeds {SPD_TOL:g}")
    return S, {"asymmetry": asym, "alpha_s": float(eigs[0]), "quad_err": quad_err}


# ---------------------------------------------------------------------------
# Stokes cell problems (MAC grid, pressure Schur-complement CG)
# ---------------------------------------------------------------------------

@dataclass
class StokesCellSolution:
    """Periodic Stokes solution for body force e_j on the unit cell.

    Velocities live on faces: ``u[i, j]`` is the x-velocity at
    ``(i*h, (j+1/2)*h)``, ``v[i, j]`` the y-velocity at ``((i+1/2)*h, j*h)``;
    both are zero on and inside the grain.  Pressure is cell-centered,
    zero-mean over fluid cells (NaN in the grain).
    """

    cell: UnitCell
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    div_inf: float         # max cell divergence
    momentum_res: float    # backward error of the momentum equation (`certify`)
    iters: int             # pressure Schur-complement CG iterations
    ops: _MacOperators     # the operators its certificates read


class _MacOperators:
    """Operators of the periodic MAC discretization of a cell.

    A pressure is an (n, n) array, zero off the fluid cells, and a face
    velocity a (2, n, n) array, u-faces then v-faces, zero off the active
    faces.  The velocity components decouple, ``A = diag(A_u, A_v)``, each
    block a `_Stencil`, and ``A_v == T A_u T`` for the map T of
    `_transposed`.  That identity is checked bitwise here (`AssemblyError`
    otherwise), so one ring solver of ``A_u`` serves both blocks.  The ring
    holds ``X_q = 0`` on the wall nodes and ``X_q + X_p = 0`` on the ghost
    nodes of `_wall_ring`.  The pressure gradient G and its transpose are
    two-point differences (`gradient`, `divergence`).
    """

    def __init__(self, cell: UnitCell):
        if cell.hole_side == 0.0:
            raise DegeneracyError("cell problem has no no-slip boundary; permeability undefined")
        self.cell = cell
        self.h = cell.h
        solid = cell.solid

        # face classification: active (two fluid cells), wall (on the grain
        # boundary, velocity pinned to 0), interior (inside the grain)
        solid_w = np.roll(solid, 1, axis=0)   # cell (i-1, j)
        self.u_active = (~solid) & (~solid_w)
        self.u_interior = solid & solid_w
        solid_s = np.roll(solid, 1, axis=1)   # cell (i, j-1)
        self.v_active = (~solid) & (~solid_s)
        self.v_interior = solid & solid_s
        self.faces = np.stack([self.u_active, self.v_active])

        # a wall neighbour holds the homogeneous Dirichlet value and drops out
        # of the stencil; the diagonal is 4 plus 1 for each mirror ghost, an
        # interior neighbour across a tangential wall, which places the zero
        # velocity on the wall itself
        blocks = []
        for active, interior, tangential_axis in ((self.u_active, self.u_interior, 1),
                                                  (self.v_active, self.v_interior, 0)):
            diag = np.full(active.shape, 4, dtype=np.int8)
            for step in (1, -1):
                diag += active & np.roll(interior, -step, axis=tangential_axis)
            blocks.append(_Stencil(active, diag))
        self.A_u, self.A_v = blocks
        if not _is_transposed(cell, self.A_u, self.A_v):
            raise AssemblyError("the v-block of the velocity Laplacian is not the transposed u-block")

    def laplacian(self, x):
        """``A x`` for the face velocity ``x``."""
        return np.stack([self.A_u @ x[0], self.A_v @ x[1]])

    def gradient(self, p):
        """``G p``: h times the pressure at each active face's cell (i, j)
        minus that at the cell behind it, (i-1, j) or (i, j-1)."""
        hp = self.h * p
        G = np.empty(self.faces.shape)
        for axis in (0, 1):
            np.subtract(hp, np.roll(hp, 1, axis=axis), out=G[axis])
        np.copyto(G, 0.0, where=~self.faces)
        return G

    def divergence(self, x):
        """``G^T x``, minus h^2 times the cell divergence of the face
        velocity ``x`` (its u- and v-blocks); zero off the fluid cells, as x
        is zero off the active faces."""
        hu, hv = self.h * x[0], self.h * x[1]
        hu -= np.roll(hu, -1, axis=0)
        hv -= np.roll(hv, -1, axis=1)
        hu += hv
        return hu

    def _force(self, direction: int) -> np.ndarray:
        """The momentum right-hand side of body force e_direction."""
        b = np.zeros(self.faces.shape)
        b[direction][self.faces[direction]] = self.h * self.h
        return b

    def solve(self):
        """Velocity, pressure and Schur CG iterations for body force e_1.

        Eliminating the velocity from ``A x + G p = b, G^T x = 0`` leaves
        ``G^T A^-1 G p / h^2 = G^T A^-1 b / h^2``.  The complement is SPSD
        with the constants as its null space and, on the inf-sup stable MAC
        grid, spectrally equivalent to the pressure mass matrix, so CG,
        preconditioned only by the projection onto zero fluid mean, converges
        in a mesh-independent number of iterations.  Its residual is the cell
        divergence of the recovered velocity ``x = A^-1 (b - G p)``, which
        one refinement ``x += A^-1 (b - G p - A x)`` brings to a momentum
        backward error at round-off.
        """
        cell, fluid = self.cell, self.cell.fluid
        ring = CapacitanceSolver(self.u_active, *_wall_ring(self.u_active, self.u_interior, tangential_axis=1))

        def solve_A(r):
            # one two-column solve with the ring solver of A_u, since
            # A_v^-1 r_v = T A_u^-1 T r_v; r is overwritten
            r[1] = _transposed(cell, r[1])
            ring.solve(r)
            r[1] = _transposed(cell, r[1])
            return r

        def project(p):
            return np.where(fluid, p - p[fluid].mean(), 0.0)

        h2 = self.h * self.h
        # the force is built again for the velocity rather than held
        # through the CG
        rhs = project(self.divergence(solve_A(self._force(0))) / h2)
        p, _, iters = cg(
            lambda p: self.divergence(solve_A(self.gradient(p))) / h2, rhs,
            atol=_SCHUR_TOL * np.linalg.norm(rhs), maxiter=_SCHUR_MAXITER, precond=project,
        )
        p = project(p)
        # the velocity, refined once on its momentum residual, built again
        # like the force: on narrow channels one ring solve alone leaves a
        # backward error above 1e-14
        x = solve_A(self._force(0) - self.gradient(p))
        r = self._force(0) - self.gradient(p)
        r -= self.laplacian(x)
        x += solve_A(r)
        return x, p, iters

    def certify(self, u, v, p, direction: int, tol: float):
        """Max cell divergence and momentum backward error of the face
        velocities ``u``, ``v`` and cell pressure ``p`` for body force
        e_direction; `SolverError` when the divergence exceeds ``_DIV_TOL``
        (relative to the velocity scale) or the residual exceeds ``tol``.

        The momentum residual is taken relative to the sizes of the terms it
        adds up, ``|A||x| + |G||p| + |b|``: a backward error, which does not
        grow with n (3e-17 to 4e-15 measured up to n = 512, up to 3e-14 on
        channels two to four cells wide).  Relative to ``||b||`` alone it
        grew as n^2 eps (1.4e-15 at n = 8, 3.9e-11 at n = 511), past
        tolerances that validation accepts.
        """
        h2 = self.h * self.h
        x = np.zeros(self.faces.shape)
        for x_q, f, faces in zip(x, (u, v), self.faces):
            np.copyto(x_q, f, where=faces)
        div_max = float(np.max(np.abs(self.divergence(x)))) / h2
        vel_scale = max(float(np.max(np.abs(x))), 1e-300)
        if not div_max <= _DIV_TOL * max(vel_scale / self.h, 1.0):  # NaN fails too
            raise SolverError(f"Stokes solve left max divergence {div_max:.3e}")
        p = np.where(self.cell.fluid, p, 0.0)
        # one velocity block at a time, the residual A x + G p - b into G p
        # and the sizes |A||x| + |G||p| + |b| into x: A is its diagonal minus
        # nonnegative couplings, so |A| = 2 diag(A) - A, G takes h times the
        # pressure on either side of a face, and b is h^2 on the active faces
        # of the force's block
        res = self.gradient(p)
        abs_p = np.abs(p, out=p)
        for axis, (x_q, r_q, A, faces) in enumerate(zip(x, res, (self.A_u, self.A_v), self.faces)):
            r_q += A @ x_q
            np.abs(x_q, out=x_q)
            sizes = 2.0 * A.diag * x_q
            sizes -= A @ x_q
            if axis == direction:
                np.subtract(r_q, h2, out=r_q, where=faces)
                np.add(sizes, h2, out=sizes, where=faces)
            sizes += np.where(faces, self.h * (abs_p + np.roll(abs_p, 1, axis=axis)), 0.0)
            x_q[...] = sizes
        mom_res = float(np.linalg.norm(res) / np.linalg.norm(x))
        if not mom_res <= tol:
            raise SolverError(f"Stokes solve left momentum residual {mom_res:.3e} > {tol:g}")
        return div_max, mom_res


def _wall_ring(active, interior, tangential_axis):
    """Sources and conditions of a velocity block's ring: a source on each
    non-active node q next to an active one, and the condition
    ``X_q + X_p = 0`` when q is an interior node tangentially next to the
    active node p (mirror ghost), ``X_q = 0`` otherwise (Dirichlet).

    On the grid-aligned grain every ring node gets one condition: a wall
    node gets ``X_q = 0`` from each active neighbour, and an interior node
    has at most one active neighbour, across the tangential wall next to it
    (two would need a grain one cell thick, which has no interior nodes).
    With ``a`` grain cells per side the ring has ``4a - 2`` nodes, the 2a
    wall nodes and 2(a - 1) ghost nodes.
    """
    n = active.shape[0]
    flat = np.arange(n * n).reshape(n, n)
    ring, partner = [], []
    for axis in (0, 1):
        for step in (1, -1):
            edge = active & ~np.roll(active, -step, axis=axis)
            ghost = (axis == tangential_axis) & np.roll(interior, -step, axis=axis)[edge]
            ring.append(np.roll(flat, -step, axis=axis)[edge])
            partner.append(np.where(ghost, flat[edge], -1))
    ring, first = np.unique(np.concatenate(ring), return_index=True)
    partner = np.concatenate(partner)[first]
    ghost = partner >= 0
    sources = np.column_stack([ring, ring]), np.tile([1.0, 0.0], (ring.size, 1))
    return sources, (np.column_stack([ring, np.where(ghost, partner, ring)]), np.column_stack([np.ones(ring.size), ghost]))


def _is_transposed(cell: UnitCell, A_u: _Stencil, A_v: _Stencil) -> bool:
    """Whether ``A_v == T A_u T`` for the stencils A_u and A_v and the map T
    of `_transposed`, which takes v-faces to u-faces and back.

    T must map the active u-faces onto the active v-faces, and both blocks
    are applied to one probe, the integers 1..m in a fixed shuffled order on
    the active v-faces: every product is exact, so ``A_v P == T A_u T P``
    compares bitwise, and a diagonal entry that differs by any amount, or
    one coupling dropped or moved to another face, changes the product.
    """
    if not np.array_equal(_transposed(cell, A_u.active), A_v.active):
        return False
    probe = np.zeros(A_v.active.shape)
    probe[A_v.active] = np.random.default_rng(0).permutation(int(A_v.active.sum())) + 1.0
    return np.array_equal(A_v @ probe, _transposed(cell, A_u @ _transposed(cell, probe)))


def solve_stokes_cell(cell: UnitCell, tol: float = DEFAULT_TOL) -> list[StokesCellSolution]:
    """Solve the Stokes cell problems ``[chi^1, chi^2]`` for body forces
    e_1 and e_2, each to a momentum backward error of at most ``tol``
    and a divergence of at most ``_DIV_TOL`` (`SolverError` otherwise).

    Schur-complement CG solves e_1; ``chi^2`` is the `_transposed`
    ``chi^1`` (``u^2 = T v^1``, ``v^2 = T u^1``, ``p^2 = T p^1``), and its
    certificates are taken against the e_2 problem like those of a solve.
    """
    ops = _MacOperators(cell)
    (u, v), p, iters = ops.solve()
    pf = np.where(cell.fluid, p - p[cell.fluid].mean(), np.nan)
    sols = []
    for direction, chi in enumerate([(u, v, pf), [_transposed(cell, f) for f in (v, u, pf)]]):
        div_max, mom_res = ops.certify(*chi, direction, tol)
        sols.append(StokesCellSolution(cell, *chi, div_max, mom_res, iters, ops))
    return sols


def velocity_mean(sol: StokesCellSolution) -> np.ndarray:
    """Pore-volume average (1/|Y|) * integral over Y of chi^j.

    Face values are summed with weight h^2; the staggered volumes of active
    faces tile the fluid cells exactly, so this is the exact staggered
    quadrature of the integral.
    """
    h2 = sol.cell.h**2
    return np.array([sol.u.sum() * h2, sol.v.sum() * h2]) / sol.cell.pore_area


def assemble_K(cell: UnitCell, solutions):
    """Permeability  K_ij = (1/|Y|) integral over Y of chi_i^j, symmetrized.

    Returns ``(K, diagnostics)``.  The gradient-inner-product identity
    ``K_ij |Y| = (grad chi^i, grad chi^j)`` is the independent certificate:
    its deviation ``grad_err`` must stay within ``SPD_TOL * max|K|``.
    """
    if any(s.cell != cell for s in solutions):
        raise ValueError("Stokes solutions were computed on a different unit cell")
    K_raw = np.column_stack([velocity_mean(s) for s in solutions])  # K[:, j] from chi^j
    asym = float(np.max(np.abs(K_raw - K_raw.T)))
    scale = float(np.max(np.abs(K_raw)))
    if not asym <= SPD_TOL * max(scale, 1e-30):
        raise AssemblyError(f"K asymmetry residual {asym:.3e} exceeds {SPD_TOL:g} (relative)")
    K = 0.5 * (K_raw + K_raw.T)
    eigs = np.linalg.eigvalsh(K)
    if not eigs[0] > 0.0:
        raise AssemblyError(f"K is not symmetric positive definite (eigenvalues {eigs})")
    grad_err = _gradient_identity_error(solutions, K)
    if not grad_err <= SPD_TOL * np.max(np.abs(K)):
        raise AssemblyError(f"K gradient-identity residual {grad_err:.3e} exceeds {SPD_TOL:g} (relative)")
    return K, {"asymmetry": asym, "grad_err": grad_err, "eig_min": float(eigs[0])}


def _gradient_identity_error(solutions, K: np.ndarray) -> float:
    """Max |K_ij - (grad chi^i, grad chi^j)/|Y|| over all components."""
    ops = solutions[0].ops
    xs = [np.stack([s.u, s.v]) for s in solutions]
    err = 0.0
    for i in range(2):
        Axi = ops.laplacian(xs[i])
        for j in range(2):
            e = float(np.vdot(xs[j], Axi)) / ops.cell.pore_area
            err = max(err, abs(e - K[i, j]))
    return err


# ---------------------------------------------------------------------------
# combined driver and the record of one cell solve
# ---------------------------------------------------------------------------

@dataclass
class EffectiveTensors:
    """Both cell-problem families of one cell, the tensors assembled from
    them, and the certificates of each: the solutions carry their solve
    residuals, ``s_info`` and ``k_info`` those of `assemble_S` and
    `assemble_K`."""

    cell: UnitCell
    D: float
    fields: list   # [xi_1, xi_2], CellScalarField
    sols: list     # [chi^1, chi^2], StokesCellSolution
    S: np.ndarray
    s_info: dict
    K: np.ndarray
    k_info: dict

    @property
    def alpha_s(self) -> float:
        """Smallest eigenvalue of S."""
        return self.s_info["alpha_s"]


def effective_tensors(cell: UnitCell, D: float = 1.0, tol: float = DEFAULT_TOL) -> EffectiveTensors:
    """Solve all cell problems on `cell` to ``tol`` and assemble both
    tensors, the cheaper corrector pair first."""
    fields = solve_diffusion_cell(cell, tol)
    sols = solve_stokes_cell(cell, tol)
    return EffectiveTensors(cell, D, fields, sols, *assemble_S(cell, fields, D=D), *assemble_K(cell, sols))


_CSV_COLUMNS = [
    "n", "hole_side", "center_x", "center_y", "D",
    "s11", "s12", "s21", "s22",
    "k11", "k12", "k21", "k22",
    "alpha_s", "s_asymmetry", "s_quad_err", "k_asymmetry", "k_grad_err",
    "xi_res_1", "xi_res_2", "stokes_div_1", "stokes_div_2",
    "spd_s", "spd_k",
]


def write_tensor_csv(path, tensors: EffectiveTensors):
    """effective_tensors.csv: one header row plus one data row, fixed order."""
    cell, S, K, s, k = tensors.cell, tensors.S, tensors.K, tensors.s_info, tensors.k_info
    row = [
        cell.n, cell.hole_side, cell.hole_center[0], cell.hole_center[1], tensors.D,
        S[0, 0], S[0, 1], S[1, 0], S[1, 1],
        K[0, 0], K[0, 1], K[1, 0], K[1, 1],
        tensors.alpha_s, s["asymmetry"], s["quad_err"], k["asymmetry"], k["grad_err"],
        *(f.residual for f in tensors.fields), *(sol.div_inf for sol in tensors.sols),
        int(np.all(np.linalg.eigvalsh(S) > 0)), int(np.all(np.linalg.eigvalsh(K) > 0)),
    ]
    write_csv(path, _CSV_COLUMNS, [row])


def read_tensor_csv(path):
    """Read back ``(cell, D, S, K)`` from an effective_tensors.csv file, with
    the unit cell and the diffusivity the tensors were computed with."""
    rec = read_csv(path)[1][0]
    cell = UnitCell(int(rec["n"]), rec["hole_side"], (rec["center_x"], rec["center_y"]))
    S = np.array([[rec["s11"], rec["s12"]], [rec["s21"], rec["s22"]]])
    K = np.array([[rec["k11"], rec["k12"]], [rec["k21"], rec["k22"]]])
    return cell, rec["D"], S, K
