"""Deterministic text formats for fields and time series.

Structured-grid field files: two header lines (``nx ny`` and ``h``), then
ny rows of nx values in ``%.17g``, x varying along each row, iy increasing
down the file.  Solid cells are tagged ``nan``.  No timestamps anywhere;
identical data produce identical bytes.
"""

from __future__ import annotations

import numpy as np


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_field(path, values: np.ndarray, h: float, mask: np.ndarray | None = None):
    """Write a cell field; cells where mask is False are tagged nan."""
    nx, ny = values.shape
    out = np.asarray(values, dtype=float)
    if mask is not None:
        out = np.where(mask, out, np.nan)
    # "%.17g" % x is format(x, ".17g"): one template for the whole body
    row = " ".join(["%.17g"] * nx) + "\n"
    with open(path, "w") as f:
        f.write(f"{nx} {ny}\n{h!r}\n")
        f.write((row * ny) % tuple(out.T.ravel().tolist()))


def write_csv(path, columns, rows):
    """Fixed-column CSV with %.17g floats; rows are dicts or sequences."""
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            if isinstance(row, dict):
                cells = [row.get(c) for c in columns]
            else:
                cells = list(row)
            f.write(",".join("" if c is None else _fmt(c) if not isinstance(c, (str, int)) else str(c) for c in cells) + "\n")


def read_csv(path):
    """Read a CSV written by write_csv into (columns, list of dicts of floats)."""
    with open(path) as f:
        columns = f.readline().strip().split(",")
        rows = []
        for line in f:
            parts = line.rstrip("\n").split(",")
            rows.append(
                {c: (float(p) if p not in ("",) else None) for c, p in zip(columns, parts)}
            )
    return columns, rows
