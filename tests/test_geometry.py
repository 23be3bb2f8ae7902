import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import porechem
from porechem.errors import GeometryError
from porechem.geometry import UnitCell, tile_domain, write_classification

from oracles import eps_cell_of


def test_unit_cell_measures():
    c = UnitCell(8, 0.5, (0.5, 0.5))
    assert c.pore_area == 0.75
    assert c.surface_measure == 2.0
    c = UnitCell(8, 0.25, (0.5, 0.5))
    assert c.pore_area == 0.9375
    assert c.surface_measure == 1.0


def test_misaligned_hole_rejected():
    with pytest.raises(GeometryError):
        UnitCell(6, 0.5, (0.5, 0.5))  # corner lands at 1.5 cells
    with pytest.raises(GeometryError):
        UnitCell(8, 0.3, (0.5, 0.5))


def test_hole_touching_boundary_rejected():
    with pytest.raises(GeometryError):
        UnitCell(8, 0.5, (0.25, 0.5))  # corner on the cell edge
    with pytest.raises(GeometryError):
        UnitCell(8, 1.0, (0.5, 0.5))


def test_degenerate_no_hole():
    c = UnitCell(8, 0.0, (0.5, 0.5))
    assert c.pore_area == 1.0
    assert c.surface_measure == 0.0
    assert c.n_grain_faces == 0


def test_tiling_counts():
    c = UnitCell(8, 0.5, (0.5, 0.5))
    g = tile_domain(c, 0.5)
    assert g.cells_per_edge == 2
    assert g.faces.count == 64  # 4 cells x 4*(n*a) = 16 faces
    c = UnitCell(4, 0.5, (0.5, 0.5))
    g = tile_domain(c, 0.25)
    assert g.faces.count == 128
    c = UnitCell(8, 0.5, (0.5, 0.5))
    g = tile_domain(c, 1.0 / 3.0)
    assert g.cells_per_edge == 3


def test_bad_eps_rejected():
    c = UnitCell(8, 0.5, (0.5, 0.5))
    with pytest.raises(GeometryError):
        tile_domain(c, 0.3)


def test_measures_scaling():
    c = UnitCell(8, 0.5, (0.5, 0.5))
    g = tile_domain(c, 0.5)
    assert g.n_fluid_cells * g.h**2 == pytest.approx(0.75, abs=1e-14)
    assert g.faces.count * g.h == pytest.approx(4.0, abs=1e-12)
    g = tile_domain(c, 0.25)
    assert g.n_fluid_cells * g.h**2 == pytest.approx(0.75, abs=1e-14)
    assert g.faces.count * g.h == pytest.approx(8.0, abs=1e-12)


def test_minimal_hole_measure():
    # one-cell hole; center offset by half a cell keeps it grid-aligned
    n = 8
    c = UnitCell(n, 1.0 / n, (0.5 + 0.5 / n, 0.5 + 0.5 / n))
    assert c.pore_area == pytest.approx(1.0 - 1.0 / n**2, abs=1e-15)


def test_face_center_identity():
    c = UnitCell(8, 0.5, (0.5, 0.5))
    g = tile_domain(c, 0.25)
    f = g.faces
    y_ref = c.grain_faces[4]
    rebuilt = g.eps * (np.column_stack([f.kx, f.ky]) + y_ref[f.local])
    assert np.array_equal(rebuilt, f.centers)


def test_surface_identity_exact():
    c = UnitCell(8, 0.25, (0.5, 0.5))
    for eps in (0.5, 0.25, 0.125):
        g = tile_domain(c, eps)
        assert g.faces.count * g.h * eps == pytest.approx(c.surface_measure, abs=1e-12)


def test_cell_counts_partition_domain():
    c = UnitCell(8, 0.5, (0.5, 0.5))
    g = tile_domain(c, 0.25)
    total = g.fluid_mask.size * g.h * g.h
    assert total == pytest.approx(1.0, abs=1e-12)
    fluid = g.n_fluid_cells * g.h * g.h
    solid = (g.fluid_mask.size - g.n_fluid_cells) * g.h * g.h
    assert fluid + solid == pytest.approx(1.0, abs=1e-14)


def test_resolution_doubling_leaves_measures():
    for n in (4, 8, 16):
        c = UnitCell(n, 0.5, (0.5, 0.5))
        g = tile_domain(c, 0.25)
        assert g.n_fluid_cells * g.h**2 == pytest.approx(0.75, abs=1e-13)
        assert g.faces.count * g.h == pytest.approx(8.0, abs=1e-12)


def test_off_center_hole_aligned():
    c = UnitCell(8, 0.25, (0.375, 0.5))
    assert c.pore_area == pytest.approx(1 - 0.0625, abs=1e-15)
    g = tile_domain(c, 0.5)
    assert g.faces.count == 2 * 2 * 4 * 2  # 4 cells x 4*(n*a) faces


def test_normals_point_into_solid():
    c = UnitCell(8, 0.5, (0.5, 0.5))
    oi, oj, axis, sign, _ = c.grain_faces
    solid = c.solid
    for i, j, ax, s in zip(oi, oj, axis, sign):
        assert not solid[i, j]  # owner is fluid
        ni = i + (s if ax == 0 else 0)
        nj = j + (s if ax == 1 else 0)
        assert solid[ni % c.n, nj % c.n]


def _loop_grain_faces(cell):
    """Reference enumeration: every face, vertical faces first, in (i, j) order."""
    solid, n = cell.solid, cell.n
    faces = []
    for ax in (0, 1):
        for i in range(n):
            for j in range(n):
                lo = solid[(i - 1) % n, j] if ax == 0 else solid[i, (j - 1) % n]
                if lo == solid[i, j]:
                    continue
                owner = [i, j]
                if solid[i, j]:  # fluid owner on the negative side
                    owner[ax] = (owner[ax] - 1) % n
                y = [(i + 0.5) / n, (j + 0.5) / n]
                y[ax] = (i, j)[ax] / n
                faces.append((*owner, ax, 1 if solid[i, j] else -1, *y))
    cols = list(zip(*faces)) if faces else [()] * 6
    return (
        np.asarray(cols[0], dtype=np.intp),
        np.asarray(cols[1], dtype=np.intp),
        np.asarray(cols[2], dtype=np.int8),
        np.asarray(cols[3], dtype=np.int8),
        np.column_stack([np.asarray(cols[4], dtype=float), np.asarray(cols[5], dtype=float)]),
    )


@pytest.mark.parametrize(
    "side, center, n",
    [
        (0.5, (0.5, 0.5), 8),
        (0.25, (0.375, 0.625), 16),  # off-centre
        (1 / 16, (0.5 + 1 / 32, 0.5 - 1 / 32), 16),  # one-cell grain
        (0.0, (0.5, 0.5), 8),  # no grain
    ],
)
def test_grain_face_contract(side, center, n):
    c = UnitCell(n, side, center)
    faces = c.grain_faces
    oi, oj, axis, sign, y_ref = faces
    assert np.all(np.diff(axis) >= 0)  # vertical faces first
    for ax in (0, 1):
        y = y_ref[axis == ax]
        dx, dy = np.diff(y[:, 0]), np.diff(y[:, 1])
        assert np.all((dx > 0) | ((dx == 0) & (dy > 0)))  # strictly lexicographic
    assert not c.solid[oi, oj].any()  # owner is fluid
    step = np.where(axis == 0, sign, 0), np.where(axis == 1, sign, 0)
    assert c.solid[(oi + step[0]) % n, (oj + step[1]) % n].all()  # solid across the face
    # the face lies between the owner and its solid neighbour
    owner = np.column_stack([oi, oj])[np.arange(oi.size), axis]
    assert np.array_equal(y_ref[np.arange(oi.size), axis], ((owner + (sign + 1) // 2) % n) / n)
    assert c.n_grain_faces == 4 * c.hole_cells
    for got, want in zip(faces, _loop_grain_faces(c)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_classification_dump(tmp_path):
    c = UnitCell(4, 0.5, (0.5, 0.5))
    g = tile_domain(c, 0.5)
    path = tmp_path / "grid.txt"
    write_classification(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "8 8"
    assert float(lines[1]) == g.h
    body = np.array([[int(t) for t in line.split()] for line in lines[2:]])
    assert body.sum() == g.n_fluid_cells


def test_eps_cell_map():
    c = UnitCell(8, 0.5, (0.5, 0.5))
    g = tile_domain(c, 0.25)
    (kx, ky), (li, lj) = eps_cell_of(g, 19, 5)
    assert (kx, ky) == (2, 0)
    assert (li, lj) == (3, 5)
    # each grain face of the tiling lies in its eps-cell, owned by the cell
    # that owns its reference face
    f = g.faces
    (fkx, fky), (fi, fj) = eps_cell_of(g, f.owner_ix, f.owner_iy)
    owner_i, owner_j = c.grain_faces[:2]
    assert np.array_equal(fkx, f.kx) and np.array_equal(fky, f.ky)
    assert np.array_equal(fi, owner_i[f.local]) and np.array_equal(fj, owner_j[f.local])


@pytest.mark.parametrize(
    "side, center, n, per_edge",
    [
        (31 / 32, (0.5, 0.5), 64, 2),  # two-cell channels across the cell edges
        (13 / 16, (7.5 / 16, 8.5 / 16), 16, 3),  # off-centre, one-cell margin on one side
        (14 / 16, (0.5, 0.5), 16, 1),  # one-cell margins, a single tile
        (0.5, (0.5, 0.5), 4, 64),
        (6 / 8, (0.5, 0.5), 8, 64),
    ],
)
def test_tiled_pore_space_is_connected(side, center, n, per_edge):
    # PerforatedGrid does not check connectivity: UnitCell keeps the grain's
    # closure strictly inside the cell, which leaves a fluid ring in every
    # tile.  Label the pore space here to hold that argument at its extremes.
    from scipy import ndimage

    grid = tile_domain(UnitCell(n, side, center), 1.0 / per_edge)
    _, count = ndimage.label(grid.fluid_mask)
    assert count == 1


def test_cli_import_leaves_out_scipy_ndimage():
    src = Path(porechem.__file__).resolve().parents[1]
    code = "import sys, porechem.cli; sys.exit('scipy.ndimage' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
