"""Deterministic text formats for fields and time series.

Structured-grid field files: two header lines (``nx ny`` and ``h``), then
ny rows of nx values in ``%.17g``, x varying along each row, iy increasing
down the file.  Solid cells are tagged ``nan``.  No timestamps anywhere;
identical data produce identical bytes.

`write_field` formats each distinct value of a field once and places its
text: a field repeats a few values over most of its cells (one solute
level on a macro grid, ``nan`` on every solid cell), and formatting, not
writing, is what costs.  Values are told apart by bit pattern, so ``-0.0``
keeps its ``-0``.

CSV files have one header row of column names; `read_csv` gives back the
floats, the text cells and the empty cells that `write_csv` wrote.
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
    bits, where = np.unique(out.T.reshape(-1).view(np.int64), return_inverse=True)
    # "%.17g" % x is format(x, ".17g"): one template for the distinct values
    text = np.array(("\n".join(["%.17g"] * bits.size) % tuple(bits.view(float).tolist())).split("\n"), dtype=object)
    with open(path, "w") as f:
        f.write(f"{nx} {ny}\n{h!r}\n")
        f.write("\n".join(map(" ".join, text[where.reshape(ny, nx)].tolist())) + "\n")


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


def _cell(text):
    """A CSV cell as written by `write_csv`: None when empty, else a float,
    or the text itself when it does not parse as one."""
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path):
    """Read a CSV written by `write_csv` into (columns, list of dicts): a
    cell is a float, a str when it does not parse as a float (``isometry``
    in ``unfold_report.csv``), and None when empty."""
    with open(path) as f:
        columns = f.readline().strip().split(",")
        rows = [dict(zip(columns, map(_cell, line.rstrip("\n").split(",")))) for line in f]
    return columns, rows
