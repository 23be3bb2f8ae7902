import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porechem import _implicit, cell_problems, linalg, macro_sim
from porechem.cell_problems import (
    assemble_K,
    assemble_S,
    effective_tensors,
    quadratic_form,
    read_tensor_csv,
    solve_diffusion_cell,
    solve_stokes_cell,
    surface_moment,
    velocity_mean,
    write_tensor_csv,
)
from porechem.errors import AssemblyError, DegeneracyError, SolverError
from porechem.geometry import UnitCell
from porechem.gridio import read_csv

from oracles import dirichlet_form, fluid_adjacency, mac_pressure_gradient, mac_velocity_laplacian, out_of_place_ring_solve

# fine-grid (n = 256) oracle values, recorded at build time and frozen as
# regression targets; tolerances reflect the measured refinement gap to n=64
S11_FINE_A050 = 0.7695188584397611
KAPPA_FINE_A050 = 0.01742023375242621
KAPPA_FINE_A025 = 0.05585887406230363


@pytest.fixture(scope="module")
def cell64():
    return UnitCell(64, 0.5, (0.5, 0.5))


@pytest.fixture(scope="module")
def fields64(cell64):
    return solve_diffusion_cell(cell64)


@pytest.fixture(scope="module")
def stokes64(cell64):
    return solve_stokes_cell(cell64)


def test_no_perforation_gives_identity():
    c = UnitCell(8, 0.0, (0.5, 0.5))
    fields = solve_diffusion_cell(c)
    assert not any(f.values.any() for f in fields)
    S, info = assemble_S(c, fields, D=1.0)
    assert np.max(np.abs(S - np.eye(2))) <= 1e-10


def test_no_perforation_stokes_degenerate():
    c = UnitCell(8, 0.0, (0.5, 0.5))
    with pytest.raises(DegeneracyError):
        solve_stokes_cell(c)


def test_corrector_symmetries():
    c = UnitCell(32, 0.5, (0.5, 0.5))
    xi = solve_diffusion_cell(c)[0].values
    assert np.max(np.abs(xi + xi[::-1, :])) <= 1e-9   # antisymmetric along x
    assert np.max(np.abs(xi - xi[:, ::-1])) <= 1e-9   # symmetric along y


def test_effective_diffusion_structure(cell64, fields64):
    S, info = assemble_S(cell64, fields64, D=1.0)
    assert abs(S[0, 0] - S[1, 1]) <= 1e-6
    assert abs(S[0, 1]) <= 1e-8
    assert 0.0 < S[0, 0] < 1.0
    assert info["quad_err"] <= 1e-8
    assert info["alpha_s"] > 0.0


def test_frozen_fine_grid_regression(cell64, fields64):
    S, _ = assemble_S(cell64, fields64, D=1.0)
    assert S[0, 0] == pytest.approx(S11_FINE_A050, abs=4e-3)


def test_linearity_in_diffusivity(cell64, fields64):
    S1, _ = assemble_S(cell64, fields64, D=1.0)
    S2, _ = assemble_S(cell64, fields64, D=2.0)
    assert np.max(np.abs(S2 - 2.0 * S1)) == 0.0


def test_energy_identity(cell64, fields64):
    # (grad xi_i, grad xi_i) = -boundary moment of xi_i in direction i
    for i, f in enumerate(fields64):
        lhs = dirichlet_form(cell64, f.values, f.values)
        rhs = -surface_moment(cell64, f.values, i)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_richardson_order_s11():
    vals = {}
    for n in (32, 64, 128):
        c = UnitCell(n, 0.5, (0.5, 0.5))
        fields = solve_diffusion_cell(c)
        S, _ = assemble_S(c, fields)
        vals[n] = S[0, 0]
    order = np.log2(abs(vals[64] - vals[32]) / abs(vals[128] - vals[64]))
    assert order >= 1.0


def test_unconverged_solve_flagged(cell64):
    bad = solve_diffusion_cell(cell64)
    bad[0].values = bad[0].values + np.where(cell64.fluid, 1e-3 * np.sin(
        7.0 * np.arange(64)[:, None] + 3.0 * np.arange(64)[None, :]), 0.0)
    with pytest.raises(AssemblyError):
        assemble_S(cell64, bad)


def test_nan_in_a_corrector_is_rejected():
    # every certificate compares with a bound, and a NaN compares False
    cell = UnitCell(16, 0.5, (0.5, 0.5))
    fields = solve_diffusion_cell(cell)
    i, j = np.argwhere(cell.fluid)[0]
    fields[0].values[i, j] = np.nan
    with pytest.raises(AssemblyError):
        assemble_S(cell, fields)


def _packed(ops, u, v):
    """The face velocity ``(u, v)`` as the oracles number it: the active
    u-faces, then the active v-faces, each in C order."""
    return np.concatenate([u[ops.u_active], v[ops.v_active]])


def _momentum_residual(sol, direction):
    """||A x + G p - b|| / ||b|| of a Stokes solution, with A and G
    assembled by the oracles; the solution's own ``momentum_res`` is a
    backward error, relative to the sizes of these terms."""
    ops = sol.ops
    x = _packed(ops, sol.u, sol.v)
    b = _packed(ops, *(np.full(sol.u.shape, sol.cell.h**2 * (j == direction)) for j in range(2)))
    r = mac_velocity_laplacian(ops) @ x + mac_pressure_gradient(ops) @ sol.p[sol.cell.fluid] - b
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def test_stokes_solution_quality(stokes64):
    for j, s in enumerate(stokes64):
        assert s.div_inf <= 1e-9
        assert _momentum_residual(s, j) <= 1e-11
        assert s.momentum_res <= 1e-11


@pytest.mark.parametrize("n", [16, 64, 128])
def test_stokes_momentum_residual_does_not_grow_with_n(n):
    c = UnitCell(n, 0.5, (0.5, 0.5))
    for j, s in enumerate(solve_stokes_cell(c)):
        assert _momentum_residual(s, j) <= 1e-11
        assert s.momentum_res <= 1e-11


def test_stokes_schur_iterations_bounded(stokes64):
    # the pressure Schur complement is spectrally equivalent to the mass
    # matrix; a count past this bound means the solve lost that property
    for s in stokes64:
        assert 0 < s.iters <= 25


def _check_against_direct_saddle_point_solve(c, sols):
    """Both Stokes solutions against a sparse direct solve of
    [[A, G], [G^T, 0]] with the first pressure pinned to zero; returns the
    direct solves' K."""
    ops = sols[0].ops
    G1 = mac_pressure_gradient(ops)[:, 1:]
    M = sp.bmat([[mac_velocity_laplacian(ops), G1], [G1.T, None]], format="csc")
    nu, nvel = int(ops.u_active.sum()), G1.shape[0]
    means = []
    for j, s in enumerate(sols):
        b = np.zeros(M.shape[0])
        b[slice(0, nu) if j == 0 else slice(nu, nvel)] = c.h**2
        x = spla.spsolve(M, b)[:nvel]
        got = _packed(ops, s.u, s.v)
        assert np.max(np.abs(got - x)) <= 1e-11 * np.max(np.abs(x))
        means.append(np.array([x[:nu].sum(), x[nu:].sum()]) * c.h**2 / c.pore_area)
    K_ref = np.column_stack(means)
    return 0.5 * (K_ref + K_ref.T)


@pytest.mark.parametrize("center", [(0.5, 0.5), (0.5, 0.375)])
def test_stokes_matches_direct_saddle_point_solve(center):
    c = UnitCell(16, 0.5, center)
    sols = solve_stokes_cell(c)
    K_ref = _check_against_direct_saddle_point_solve(c, sols)
    K, _ = assemble_K(c, sols)
    assert np.max(np.abs(K - K_ref)) <= 1e-13


def test_stokes_symmetry_and_mean_flow(stokes64):
    s = stokes64[0]
    assert np.max(np.abs(s.u - s.u[:, ::-1])) <= 1e-9  # mirror in y
    mean = velocity_mean(s)
    assert mean[0] > 0.0                 # forced direction
    assert abs(mean[1]) <= 1e-10         # transverse component integrates to 0


def test_permeability_assembly(cell64, stokes64):
    K, info = assemble_K(cell64, stokes64)
    assert np.max(np.abs(K - K.T)) <= 1e-8 * np.max(np.abs(K))
    assert np.all(np.linalg.eigvalsh(K) > 0.0)
    assert info["grad_err"] <= 1e-6
    assert K[0, 0] == pytest.approx(KAPPA_FINE_A050, rel=0.03)


def test_permeability_gradient_certificate_is_gated():
    # doubled velocities double K but quadruple the gradient inner products,
    # so the identity K |Y| = (grad chi^i, grad chi^j) misses by K itself
    c = UnitCell(16, 0.5, (0.5, 0.5))
    sols = solve_stokes_cell(c)
    doubled = [dataclasses.replace(s, u=2.0 * s.u, v=2.0 * s.v) for s in sols]
    with pytest.raises(AssemblyError, match="gradient-identity residual"):
        assemble_K(c, doubled)
    K, info = assemble_K(c, sols)
    assert info["grad_err"] <= 1e-12 * np.max(np.abs(K))


def test_larger_grains_lower_permeability():
    kappa = {}
    for a in (0.25, 0.5):
        c = UnitCell(32, a, (0.5, 0.5))
        sols = solve_stokes_cell(c)
        K, _ = assemble_K(c, sols)
        kappa[a] = K[0, 0]
    assert kappa[0.25] > kappa[0.5]
    assert kappa[0.25] == pytest.approx(KAPPA_FINE_A025, rel=0.05)


def test_off_center_hole_translation_invariance():
    # the periodic medium is translation invariant; an aligned shift of the
    # grain must reproduce the centered tensors to solver accuracy
    c0 = UnitCell(16, 0.25, (0.5, 0.5))
    c1 = UnitCell(16, 0.25, (0.375, 0.5))
    sols1 = solve_stokes_cell(c1)
    K0, _ = assemble_K(c0, solve_stokes_cell(c0))
    K1, info1 = assemble_K(c1, sols1)
    assert np.max(np.abs(K0 - K1)) <= 1e-9
    assert info1["asymmetry"] <= 1e-8 * np.max(np.abs(K1))
    with pytest.raises(ValueError, match="different unit cell"):
        assemble_K(c0, sols1)


def test_quadratic_form_is_gram(cell64, fields64):
    Q = quadratic_form(cell64, fields64)
    assert np.max(np.abs(Q - Q.T)) <= 1e-14
    assert np.all(np.linalg.eigvalsh(Q) > 0.0)


def test_tensor_csv_roundtrip(tmp_path, cell64):
    tensors = effective_tensors(cell64, D=1.5)
    path = tmp_path / "effective_tensors.csv"
    write_tensor_csv(path, tensors)
    cell, D, S, K = read_tensor_csv(path)
    assert cell == cell64 == tensors.cell
    assert D == tensors.D == 1.5
    assert np.array_equal(S, tensors.S)
    assert np.array_equal(K, tensors.K)
    # the certificates come from the record's solutions and infos
    row = read_csv(path)[1][0]
    assert row["alpha_s"] == tensors.alpha_s
    for i in range(2):
        assert row[f"xi_res_{i + 1}"] == tensors.fields[i].residual
        assert row[f"stokes_div_{i + 1}"] == tensors.sols[i].div_inf
    assert row["s_quad_err"] == tensors.s_info["quad_err"]
    assert row["k_grad_err"] == tensors.k_info["grad_err"]


@pytest.mark.parametrize(
    "side, center, n",
    [
        (0.5, (0.5, 0.5), 64),
        (0.25, (0.375, 0.625), 32),  # off-centre
        (31 / 32, (0.5, 0.5), 64),   # two-cell channels
    ],
)
def test_factored_correctors_match_a_direct_solve(side, center, n):
    c = UnitCell(n, side, center)
    A = fluid_adjacency(c).tocsc()
    for i, f in enumerate(solve_diffusion_cell(c)):
        # reference: the system with the last unknown pinned, by spsolve
        b = -cell_problems._surface_functional(c, i)[c.fluid]
        x = np.zeros(b.size)
        x[:-1] = spla.spsolve(A[:-1, :-1], b[:-1])
        x -= x.mean()
        assert np.max(np.abs(f.values[c.fluid] - x)) <= 1e-11
        assert f.residual <= 1e-12


def test_corrector_tolerance_is_an_acceptance_bound(cell64):
    with pytest.raises(SolverError, match="corrector solve left relative residual"):
        solve_diffusion_cell(cell64, tol=1e-20)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_corrector_certificate_is_a_backward_error(n, monkeypatch):
    # relative to ||b|| the residual grew as n^2 eps (9.2e-15 at n = 64), so
    # a tolerance of 1e-15 failed a solve at round-off; against the sizes of
    # the terms it is flat in n (4e-17 to 7e-17)
    cell = UnitCell(n, 0.5, (0.5, 0.5))
    assert max(f.residual for f in solve_diffusion_cell(cell, tol=1e-15)) <= 1e-16
    # and it still sees a solution off by 1e-9 relative (6e-13 to 1.3e-10)
    transposed = cell_problems._transposed
    monkeypatch.setattr(cell_problems, "_transposed", lambda cell, f: (1.0 + 1e-9) * transposed(cell, f))
    with pytest.raises(SolverError, match="corrector solve left relative residual"):
        solve_diffusion_cell(cell, tol=1e-15)


# cells whose transpose is a nontrivial periodic shift of the cell, and the
# extremes: one-cell margins all round and two-cell channels
TRANSPOSE_CELLS = [
    (0.5, (0.5, 0.5), 256),
    (0.5, (0.5, 0.375), 64),
    (0.25, (0.375, 0.625), 16),
    (31 / 32, (0.5, 0.5), 64),
    (14 / 16, (0.5, 0.5), 16),            # one-cell margins
    (13 / 16, (7.5 / 16, 8.5 / 16), 16),  # one-cell margins at left and bottom
]


@pytest.mark.parametrize("side, center, n", TRANSPOSE_CELLS)
def test_v_block_is_the_permuted_u_block(side, center, n):
    # `_transposed` maps the active u-faces onto the active v-faces, and the
    # face permutation q it induces maps the assembled A_u onto A_v
    cell = UnitCell(n, side, center)
    ops = cell_problems._MacOperators(cell)
    assert np.array_equal(cell_problems._transposed(cell, ops.u_active), ops.v_active)
    nu = int(ops.u_active.sum())
    iu = np.full((n, n), -1)
    iu[ops.u_active] = np.arange(nu)
    q = cell_problems._transposed(cell, iu)[ops.v_active]
    A = mac_velocity_laplacian(ops)
    A_u, A_v = A[:nu, :nu].tocsr(), A[nu:, nu:].tocsr()
    assert np.array_equal(np.sort(q), np.arange(nu))  # a permutation of the u-faces
    B = A_u[q][:, q].tocsr()
    B.sort_indices()
    A_v.sort_indices()
    assert A_v.shape == B.shape and A_v.dtype == B.dtype == np.float64
    assert np.array_equal(A_v.indptr, B.indptr) and np.array_equal(A_v.indices, B.indices)
    assert A_v.data.tobytes() == B.data.tobytes()


def _swap_first_and_last(f):
    f = f.copy()
    f.flat[[0, -1]] = f.flat[[-1, 0]]
    return f


@pytest.mark.parametrize(
    "corrupt",
    [_swap_first_and_last, lambda f: np.roll(f, 1, axis=1), lambda f: f[:-1]],
    ids=["swap", "roll", "short"],
)
def test_corrupted_face_map_is_rejected(monkeypatch, corrupt):
    transposed = cell_problems._transposed
    monkeypatch.setattr(cell_problems, "_transposed", lambda *a: corrupt(transposed(*a)))
    with pytest.raises(AssemblyError, match="not the transposed u-block"):
        solve_stokes_cell(UnitCell(16, 0.5, (0.5, 0.375)))


def test_face_map_needs_the_shift(monkeypatch):
    # the plain transpose is right for a centred grain only
    monkeypatch.setattr(cell_problems, "_transposed", lambda cell, f: f.T)
    solve_stokes_cell(UnitCell(16, 0.5, (0.5, 0.5)))
    with pytest.raises(AssemblyError, match="not the transposed u-block"):
        solve_stokes_cell(UnitCell(16, 0.5, (0.5, 0.375)))


@pytest.mark.parametrize("side, center, n", [c for c in TRANSPOSE_CELLS if c[1] != (0.5, 0.5)])
def test_square_grain_gives_isotropic_tensors(side, center, n):
    t = effective_tensors(UnitCell(n, side, center))
    assert t.K[1, 1] == pytest.approx(t.K[0, 0], rel=1e-12)
    assert t.S[1, 1] == pytest.approx(t.S[0, 0], rel=1e-12)


def test_effective_tensors_build_one_ring_system_per_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cell layer factored a sparse matrix")

    monkeypatch.setattr(_implicit, "factor_spd", refuse)
    monkeypatch.setattr(spla, "splu", refuse)
    built = []
    init = linalg.CapacitanceSolver.__init__

    def tracking_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(linalg.CapacitanceSolver, "__init__", tracking_init)
    solves = []
    solve = linalg.CapacitanceSolver.solve

    def counting_solve(self, b):
        solves.append((built.index(self), b.shape))
        return solve(self, b)

    monkeypatch.setattr(linalg.CapacitanceSolver, "solve", counting_solve)
    c = UnitCell(16, 0.25, (0.375, 0.625))
    t = effective_tensors(c)
    # the corrector's 4a cut edges, then the Stokes u-block's 4a - 2 wall
    # and ghost nodes and its constant (the u-block serves the v-block too)
    a = c.hole_cells
    assert [len(s.capacitance[1]) for s in built] == [4 * a, 4 * a - 1]
    assert [s.cut for s in built] == [True, False]
    # each family is solved once, in direction 0: the corrector and its
    # refinement step, then the Schur CG's right-hand side, one matvec per
    # iteration, the recovered velocity and its refinement step, each one
    # two-column solve
    iters = t.sols[0].iters
    assert solves == [(0, (c.n, c.n))] * 2 + [(1, (2, c.n, c.n))] * (iters + 3)


@st.composite
def aligned_cells(draw):
    """Every grid-aligned cell validation accepts up to n = 64: any grain
    side and corner that leave at least one fluid cell on each side."""
    n = draw(st.integers(3, 64))
    a = draw(st.integers(1, n - 2))
    i0, j0 = (draw(st.integers(1, n - 1 - a)) for _ in range(2))
    return UnitCell(n, a / n, ((i0 + a / 2) / n, (j0 + a / 2) / n))


@settings(max_examples=40, deadline=None)
@given(aligned_cells(), st.integers(0, 2**32 - 1))
@example(UnitCell(64, 31 / 32, (0.5, 0.5)), 0)  # one-cell channels
@example(UnitCell(64, 61 / 64, (31.5 / 64, 32.5 / 64)), 1)  # one-cell margins at left and bottom
@example(UnitCell(64, 1 / 64, (1.5 / 64, 62.5 / 64)), 2)  # one-cell grain in a corner
def test_ring_solves_match_sparse_direct_solves(cell, seed):
    rng = np.random.default_rng(seed)
    ops = cell_problems._MacOperators(cell)
    ring = linalg.CapacitanceSolver(ops.u_active, *cell_problems._wall_ring(ops.u_active, ops.u_interior, 1))
    nu = int(ops.u_active.sum())
    A_u = mac_velocity_laplacian(ops)[:nu, :nu].tocsc()
    B = np.zeros((2, cell.n, cell.n))
    B[:, ops.u_active] = rng.standard_normal((2, nu))
    X = ring.solve(B.copy())
    assert not X[:, ~ops.u_active].any()  # zero off the domain
    for x_k, b_k in zip(X[:, ops.u_active], B[:, ops.u_active]):
        ref = spla.spsolve(A_u, b_k)
        assert np.max(np.abs(x_k - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert np.linalg.norm(A_u @ x_k - b_k) <= 1e-12 * np.linalg.norm(b_k)
    # both corrector fields, the second mapped from the first, against the
    # system with its first unknown pinned
    A = fluid_adjacency(cell).tocsc()
    for i, f in enumerate(solve_diffusion_cell(cell)):
        b = -cell_problems._surface_functional(cell, i)[cell.fluid]
        ref = np.zeros(b.size)
        ref[1:] = spla.spsolve(A[1:, 1:], b[1:])
        ref -= ref.mean()
        assert np.max(np.abs(f.values[cell.fluid] - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert f.residual <= 1e-12
    # both Stokes solutions, the second mapped from the first
    _check_against_direct_saddle_point_solve(cell, solve_stokes_cell(cell))


@pytest.mark.parametrize("center, fires", [((0.5, 0.375), True), ((0.5, 0.5), False)])
def test_direction_1_certificates_need_the_shift(monkeypatch, center, fires):
    # the plain transpose maps only a centred cell onto itself.  With it the
    # Stokes operators of any other cell do not build (see
    # test_face_map_needs_the_shift), so the direction-1 certificates are
    # applied to the plainly transposed direction-0 fields directly
    c = UnitCell(16, 0.5, center)
    s0 = solve_stokes_cell(c)[0]
    plain = [f.T for f in (s0.v, s0.u, s0.p)]
    monkeypatch.setattr(cell_problems, "_transposed", lambda cell, f: f.T)
    if not fires:
        assert solve_diffusion_cell(c)[1].residual <= 1e-12
        s = solve_stokes_cell(c)[1]
        assert _momentum_residual(s, 1) <= 1e-11
        assert s.momentum_res <= 1e-11
        assert s0.ops.certify(*plain, 1, 1e-11)[1] <= 1e-11
        return
    with pytest.raises(SolverError, match="corrector solve left relative residual"):
        solve_diffusion_cell(c)
    with pytest.raises(SolverError, match="Stokes solve left max divergence"):
        s0.ops.certify(*plain, 1, np.inf)
    monkeypatch.setattr(cell_problems, "_DIV_TOL", np.inf)
    with pytest.raises(SolverError, match="Stokes solve left momentum residual"):
        s0.ops.certify(*plain, 1, cell_problems.DEFAULT_TOL)


def test_stokes_tolerance_is_an_acceptance_bound():
    c = UnitCell(16, 0.5, (0.5, 0.5))
    with pytest.raises(SolverError, match="Stokes solve left momentum residual"):
        solve_stokes_cell(c, tol=1e-20)
    for j, sol in enumerate(solve_stokes_cell(c, tol=1e-12)):
        assert _momentum_residual(sol, j) <= 1e-12
        assert sol.momentum_res <= 1e-12


@settings(max_examples=40, deadline=None)
@given(aligned_cells())
@example(UnitCell(3, 1 / 3, (0.5, 0.5)))  # the largest corrector backward error measured, 1.54e-16
@example(UnitCell(64, 31 / 32, (0.5, 0.5)))  # one-cell channels
@example(UnitCell(64, 61 / 64, (31.5 / 64, 32.5 / 64)))  # one-cell margins at left and bottom
@example(UnitCell(64, 1 / 64, (1.5 / 64, 62.5 / 64)))  # one-cell grain in a corner
def test_every_aligned_cell_meets_the_tolerance_floors(cell):
    # [tolerances] cell at its parse-time floor: every cell solve passes,
    # and the S and K certificates stay within 1e-12, far inside SPD_TOL
    fields = solve_diffusion_cell(cell, cell_problems.CELL_TOL_FLOOR)
    sols = solve_stokes_cell(cell, cell_problems.CELL_TOL_FLOOR)
    S, s_info = assemble_S(cell, fields)
    K, k_info = assemble_K(cell, sols)
    assert max(s_info["asymmetry"], s_info["quad_err"]) <= 1e-12
    assert max(k_info["asymmetry"], k_info["grad_err"]) <= 1e-12 * np.max(np.abs(K))
    # a grid-aligned square grain gives diagonal tensors
    macro_sim.diagonal_tensor("S", S)
    macro_sim.diagonal_tensor("K", K)


@settings(max_examples=40, deadline=None)
@given(aligned_cells(), st.integers(0, 2**32 - 1))
@example(UnitCell(64, 31 / 32, (0.5, 0.5)), 0)  # one-cell channels
@example(UnitCell(64, 1 / 64, (1.5 / 64, 62.5 / 64)), 1)  # one-cell grain in a corner
def test_face_stencils_match_the_assembled_operators(cell, seed):
    rng = np.random.default_rng(seed)
    ops = cell_problems._MacOperators(cell)
    A, G = mac_velocity_laplacian(ops), mac_pressure_gradient(ops)

    def faces(x):
        X = np.zeros(ops.faces.shape)
        X[ops.faces] = x  # u-faces, then v-faces, as the oracles number them
        return X

    for x in rng.standard_normal((3, A.shape[0])):
        ref = A @ x
        AX = ops.laplacian(faces(x))
        assert not AX[~ops.faces].any()
        assert np.linalg.norm(AX[ops.faces] - ref) <= 1e-15 * np.linalg.norm(ref)
    # the gradient is bitwise the COO assembly's product; the divergence
    # sums the same terms in another order, so it matches G^T x to round-off
    # and is the gradient's adjoint to round-off
    p, x = rng.standard_normal(G.shape[1]), rng.standard_normal(G.shape[0])
    P = np.zeros((cell.n, cell.n))
    P[cell.fluid] = p
    X = faces(x)
    GP, GtX = ops.gradient(P), ops.divergence(X)
    assert not GP[~ops.faces].any() and not GtX[~cell.fluid].any()
    assert np.array_equal(GP[ops.faces], G @ p)
    ref = G.T @ x
    assert np.linalg.norm(GtX[cell.fluid] - ref) <= 1e-15 * np.linalg.norm(ref)
    assert abs(np.vdot(GP, X) - np.vdot(P, GtX)) <= 1e-15 * np.linalg.norm(GP) * np.linalg.norm(X)


def _move_a_face(stencil):
    # the unknown of one active face moves to a solid face; the count holds
    stencil.active = active = stencil.active.copy()
    (i, j), (k, l) = np.argwhere(active)[0], np.argwhere(~active)[0]
    active[i, j], active[k, l] = False, True


def _raise_a_diagonal(stencil):
    i, j = np.argwhere(stencil.active)[0]
    stencil.diag[i, j] += 1


@pytest.mark.parametrize("corrupt", [_move_a_face, _raise_a_diagonal], ids=["active", "diagonal"])
@pytest.mark.parametrize("block", ["A_u", "A_v"])
def test_corrupted_stencil_fails_the_permutation_check(monkeypatch, corrupt, block):
    cell = UnitCell(16, 0.5, (0.5, 0.375))
    ops = cell_problems._MacOperators(cell)
    assert cell_problems._is_transposed(cell, ops.A_u, ops.A_v)
    stencils = {"A_u": ops.A_u, "A_v": ops.A_v}
    stencils[block] = bad = copy.deepcopy(stencils[block])
    corrupt(bad)
    assert not cell_problems._is_transposed(cell, stencils["A_u"], stencils["A_v"])
    # the same corruption made while the operators are built, A_u first
    build = cell_problems._Stencil
    built = []

    def corrupted_build(active, diag):
        stencil = build(active, diag)
        if len(built) == ["A_u", "A_v"].index(block):
            corrupt(stencil)
        built.append(stencil)
        return stencil

    monkeypatch.setattr(cell_problems, "_Stencil", corrupted_build)
    with pytest.raises(AssemblyError, match="not the transposed u-block"):
        solve_stokes_cell(cell)
    assert len(built) == 2


@pytest.mark.parametrize("cut", [True, False], ids=["cut", "bordered"])
def test_in_place_ring_solve_keeps_the_bits(cut):
    cell = UnitCell(32, 0.375, (0.375, 0.625))
    if cut:
        domain, ring_args = cell.fluid, (cell_problems._cut_edges(cell),)
    else:
        ops = cell_problems._MacOperators(cell)
        domain, ring_args = ops.u_active, cell_problems._wall_ring(ops.u_active, ops.u_interior, 1)
    ring = linalg.CapacitanceSolver(domain, *ring_args)
    rng = np.random.default_rng(3)
    for shape in [(32, 32), (2, 32, 32)]:
        B = np.where(domain, rng.standard_normal(shape), 0.0)
        ref = out_of_place_ring_solve(ring, B)
        assert ring.solve(B) is B
        assert np.array_equal(B.view(np.int64), ref.view(np.int64))


def _traced_peak(f, *args, **kwargs):
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cell_pairs_peak_memory():
    # the ring solves overwrite their right-hand sides and run their FFTs in
    # one complex array, and the certificates work a velocity block at a
    # time: at n = 256 the Stokes pair peaks at 8.9 MB (13.0 MB with the
    # copies) and the corrector pair, which frees its ring before
    # certifying, at 5.5 MB (7.0 MB)
    assert _traced_peak(lambda: solve_stokes_cell(UnitCell(256, 0.5))) <= 10 * 2**20
    assert _traced_peak(lambda: solve_diffusion_cell(UnitCell(256, 0.5))) <= 6.5 * 2**20
    # the Stokes ring's 511 x 511 capacitance matrix is gathered, bordered
    # and factored in one array: 4.0 MB, and 6.5 MB in three copies
    ops = cell_problems._MacOperators(UnitCell(256, 0.5))
    ring = cell_problems._wall_ring(ops.u_active, ops.u_interior, 1)
    assert _traced_peak(linalg.CapacitanceSolver, ops.u_active, *ring) <= 5 * 2**20


def test_cg_holds_three_vectors_between_calls():
    # a diagonal system of 2^17 unknowns, 1 MiB a vector, whose matvec holds
    # a temporary besides its product, as the Newton matvec B p + extra p does:
    # x, r and p cross each call, so the peak is five vectors; keeping the
    # last A p and M^-1 r through the next calls peaked at seven
    d = np.linspace(1.0, 100.0, 2**17)
    b = np.ones_like(d)
    peak = _traced_peak(linalg.cg, lambda p: d * p + 0.5 * p, b, precond=lambda r: r / 2.0,
                         atol=1e-10 * np.linalg.norm(b))
    assert peak <= 5.25 * 2**20


def test_mac_operators_peak_memory():
    # the velocity Laplacian and the pressure gradient are applied as
    # stencils and differences, never assembled; the operators peak at
    # 3.2 MB at n = 256, where the assembled Laplacian took them to 28.6 MB
    # and the CSR pressure gradient to 5.8 MB
    tracemalloc.start()
    try:
        cell_problems._MacOperators(UnitCell(256, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
