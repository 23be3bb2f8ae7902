"""Periodic perforated geometry on structured Cartesian grids.

The unit cell ``Z = (0,1)^2`` contains a single axis-aligned square grain
(the perforation) whose edges coincide with grid lines, so the grain
boundary is exactly a union of grid faces.  The computational domain
``(0,1)^2`` is tiled with ``1/eps`` scaled copies of the cell per edge.
All geometric measures (pore area, grain perimeter) are therefore exact,
which the rest of the package relies on for its conservation identities.

Index convention: arrays are indexed ``[ix, iy]`` with x varying along the
first axis.  Cell ``(ix, iy)`` covers ``[ix*h, (ix+1)*h] x [iy*h, (iy+1)*h]``.
The unit cell derives its masks, its fluid-cell index and its grain faces
from the grid by array operations, each once and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, GeometryError
from .gridio import write_field

_ALIGN_TOL = 1e-9

# the edges of the unit square: the axis normal to the edge, and the grid cells along it
EDGE_CELLS = {
    "left": (0, (0, slice(None))),
    "right": (0, (-1, slice(None))),
    "bottom": (1, (slice(None), 0)),
    "top": (1, (slice(None), -1)),
}
EDGES = tuple(EDGE_CELLS)


def check_edges(edges) -> tuple:
    """``edges``, or a ConfigError naming the first that is not an edge of
    the unit square or that is named twice (its half-cell weight would be
    added twice)."""
    for i, e in enumerate(edges):
        if e not in EDGES:
            raise ConfigError(f"unknown edge {e!r} in dirichlet_edges; valid edges: {', '.join(EDGES)}")
        if e in edges[:i]:
            raise ConfigError(f"edge {e!r} is named twice in dirichlet_edges")
    return edges


def index_map(mask: np.ndarray) -> np.ndarray:
    """Flat index of each True entry of mask in C order, -1 elsewhere."""
    idx = -np.ones(mask.shape, dtype=np.intp)
    idx[mask] = np.arange(np.count_nonzero(mask))
    return idx


def _aligned_int(x, what):
    """Round x to an integer, raising when it is not one (grid alignment)."""
    k = int(round(x))
    if abs(x - k) > _ALIGN_TOL:
        raise GeometryError(f"{what} = {x} is not an integer; perforation is off-grid")
    return k


@dataclass(frozen=True)
class UnitCell:
    """Reference cell: unit square with a grid-aligned square grain.

    Parameters
    ----------
    n : grid cells per cell edge.
    hole_side : side length of the square grain, ``0 <= hole_side < 1``.
        ``hole_side = 0`` is the degenerate no-perforation cell (empty
        grain boundary): the hole-free oracles use it, a run config rejects it.
    hole_center : grain center, strictly inside ``(0,1)^2``.
    """

    n: int
    hole_side: float
    hole_center: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise GeometryError(f"resolution n must be a positive integer, got {self.n}")
        a = self.hole_side
        if a < 0.0:
            raise GeometryError(f"hole_side must be nonnegative, got {a}")
        if a == 0.0:
            return
        for c in self.hole_center:
            if not (c - a / 2.0 > 0.0 and c + a / 2.0 < 1.0):
                raise GeometryError(
                    f"grain [{c - a / 2.0}, {c + a / 2.0}] touches the cell boundary; "
                    "its closure must lie strictly inside (0,1)^2"
                )
        _aligned_int(self.n * a, "n*hole_side")
        for c in self.hole_center:
            _aligned_int(self.n * (c - a / 2.0), "n*(hole_center - hole_side/2)")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def hole_cells(self) -> int:
        """Grain side length in grid cells."""
        return _aligned_int(self.n * self.hole_side, "n*hole_side") if self.hole_side else 0

    @property
    def pore_area(self) -> float:
        """|Y| = 1 - hole_side^2, exact for the aligned square grain."""
        return 1.0 - self.hole_side * self.hole_side

    @property
    def surface_measure(self) -> float:
        """Grain perimeter |Gamma| = 4*hole_side."""
        return 4.0 * self.hole_side

    @property
    def grain_corner(self) -> tuple[int, int]:
        """Grid index (i0, j0) of the grain's lower-left cell."""
        a = self.hole_side
        return tuple(_aligned_int(self.n * (c - a / 2.0), "corner") for c in self.hole_center)

    @cached_property
    def solid(self) -> np.ndarray:
        """Boolean (n, n) mask of solid cells."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        if self.hole_side == 0.0:
            return mask
        na = self.hole_cells
        i0, j0 = self.grain_corner
        mask[i0 : i0 + na, j0 : j0 + na] = True
        return mask

    @cached_property
    def fluid(self) -> np.ndarray:
        return ~self.solid

    @cached_property
    def grain_faces(self):
        """Reference grain faces as a struct of arrays.

        Returns ``(owner_i, owner_j, axis, sign, y_ref)`` where the owner is
        the fluid cell, ``axis`` is the face normal axis, ``sign`` is +1 when
        the solid neighbour sits on the positive side (so the normal
        ``sign * e_axis`` points from the fluid into the grain), and
        ``y_ref`` (nf, 2) holds face centers in unit-cell coordinates.
        Enumeration order is fixed (vertical faces first, lexicographic),
        so tiled grids share it and unfolding is a plain reshape.
        """
        solid = self.solid
        n = self.n
        parts = []
        for ax in (0, 1):
            # face k along ax separates cell k-1 from cell k; nonzero lists
            # the faces lexicographically in (i, j)
            face = np.nonzero(solid != np.roll(solid, 1, axis=ax))
            into = solid[face]  # grain on the positive side: fluid owner at k-1
            owner = list(face)
            owner[ax] = np.where(into, (face[ax] - 1) % n, face[ax])
            y_ref = (np.column_stack(face) + 0.5) / n
            y_ref[:, ax] = face[ax] / n
            sign = np.where(into, 1, -1).astype(np.int8)
            parts.append((*owner, np.full(into.size, ax, dtype=np.int8), sign, y_ref))
        return tuple(np.concatenate(p) for p in zip(*parts))

    @property
    def n_grain_faces(self) -> int:
        return self.grain_faces[0].size


@dataclass(frozen=True)
class BoundaryFaces:
    """All grain faces of a tiled grid, as parallel arrays.

    ``owner_ix/owner_iy`` index the fluid cell owning the face on the global
    grid; ``kx/ky`` index the parent eps-cell; ``local`` indexes the matching
    reference face on the unit cell; ``centers`` are global face midpoints
    computed as ``eps * (k + y_ref)`` so the unfolding identity is exact.
    """

    owner_ix: np.ndarray
    owner_iy: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    local: np.ndarray
    centers: np.ndarray

    @property
    def count(self) -> int:
        return self.owner_ix.size


@dataclass(frozen=True)
class PerforatedGrid:
    """eps-periodic tiling of the unit cell over the unit square."""

    cell: UnitCell
    cells_per_edge: int  # 1/eps

    def __post_init__(self):
        if self.cells_per_edge < 1:
            raise GeometryError(f"1/eps must be a positive integer, got {self.cells_per_edge}")
        # the pore space is connected by construction: UnitCell keeps the
        # grain's closure strictly inside (0,1)^2, so every cell keeps a ring
        # of fluid cells along its edges, and the rings of neighbouring tiles
        # touch across the shared edge

    @property
    def eps(self) -> float:
        return 1.0 / self.cells_per_edge

    @property
    def n_global(self) -> int:
        return self.cells_per_edge * self.cell.n

    @property
    def h(self) -> float:
        return 1.0 / self.n_global

    @cached_property
    def fluid_mask(self) -> np.ndarray:
        """Boolean (n_global, n_global) mask of fluid cells."""
        N = self.cells_per_edge
        return np.tile(self.cell.fluid, (N, N))

    @cached_property
    def fluid_index(self) -> np.ndarray:
        """Map (ix, iy) -> flat fluid-cell index, -1 on solid cells."""
        return index_map(self.fluid_mask)

    @property
    def n_fluid_cells(self) -> int:
        return int(np.count_nonzero(self.fluid_mask))

    @cached_property
    def faces(self) -> BoundaryFaces:
        N, n = self.cells_per_edge, self.cell.n
        oi, oj, _, _, y_ref = self.cell.grain_faces
        nf_loc = oi.size
        kx = np.repeat(np.arange(N), N)  # eps-cell order: kx-major
        ky = np.tile(np.arange(N), N)
        kx_all = np.repeat(kx, nf_loc)
        ky_all = np.repeat(ky, nf_loc)
        local = np.tile(np.arange(nf_loc, dtype=np.intp), N * N)
        owner_ix = kx_all * n + np.tile(oi, N * N)
        owner_iy = ky_all * n + np.tile(oj, N * N)
        centers = self.eps * (np.column_stack([kx_all, ky_all]) + y_ref[local])
        return BoundaryFaces(
            owner_ix=owner_ix,
            owner_iy=owner_iy,
            kx=kx_all,
            ky=ky_all,
            local=local,
            centers=centers,
        )


def cells_per_edge(eps: float) -> int:
    """1/eps, the eps-cells per edge of the unit square; GeometryError unless
    eps > 0 and 1/eps is an integer."""
    inv = 1.0 / eps if eps > 0.0 else math.inf
    N = round(inv) if math.isfinite(inv) else 0
    if N < 1 or abs(inv - N) > _ALIGN_TOL * max(1.0, inv):
        raise GeometryError(f"1/eps must be a positive integer, got eps = {eps!r}")
    return N


def tile_domain(cell: UnitCell, eps: float) -> PerforatedGrid:
    """Tile the unit square with eps-scaled cells; requires 1/eps integer."""
    return PerforatedGrid(cell=cell, cells_per_edge=cells_per_edge(eps))


def write_classification(grid: PerforatedGrid, path):
    """Dump the fluid/solid classification as a `gridio` field file.

    Header: ``nx ny`` then ``h``; body: ny rows of nx values, 1 (fluid) or
    0 (solid), row iy increasing, x along each row.
    """
    write_field(path, grid.fluid_mask.astype(float), grid.h)
