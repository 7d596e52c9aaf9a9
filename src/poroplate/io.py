"""Artifact writers: legacy-ASCII VTK, CSV tables, key-value reports.

Everything is plain text with repr-exact floats so reruns of the same config
produce bit-identical files.
"""

from __future__ import annotations

import csv

import numpy as np

VTK_HEX = 12
VTK_QUAD = 9


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_vtk(path, points, cells, cell_type, point_data=None, cell_data=None):
    """Legacy ASCII unstructured grid; points (n,2|3), cells (m,k) int."""
    points = np.asarray(points, dtype=float)
    if points.shape[1] == 2:
        points = np.column_stack([points, np.zeros(len(points))])
    cells = np.asarray(cells, dtype=int)
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write("poroplate output\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {len(points)} double\n")
        for p in points:
            f.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        k = cells.shape[1]
        f.write(f"\nCELLS {len(cells)} {len(cells) * (k + 1)}\n")
        for c in cells:
            f.write(str(k) + " " + " ".join(str(int(v)) for v in c) + "\n")
        f.write(f"\nCELL_TYPES {len(cells)}\n")
        for _ in range(len(cells)):
            f.write(f"{cell_type}\n")
        if point_data:
            f.write(f"\nPOINT_DATA {len(points)}\n")
            for name, arr in point_data.items():
                _write_field(f, name, np.asarray(arr))
        if cell_data:
            f.write(f"\nCELL_DATA {len(cells)}\n")
            for name, arr in cell_data.items():
                _write_field(f, name, np.asarray(arr))


def _write_field(f, name, arr):
    if arr.ndim == 1:
        f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        for v in arr:
            f.write(_fmt(v) + "\n")
    else:
        if arr.shape[1] == 2:
            arr = np.column_stack([arr, np.zeros(len(arr))])
        f.write(f"VECTORS {name} double\n")
        for v in arr:
            f.write(" ".join(_fmt(x) for x in v) + "\n")


def write_csv(path, rows, fieldnames=None):
    """List of dicts to CSV with deterministic column order and float repr."""
    if not rows:
        with open(path, "w", newline="") as f:
            f.write("")
        return
    if fieldnames is None:
        fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(k, "")) for k in fieldnames])


def write_keyvalues(path, pairs, header=None):
    """Flat `key = value` machine-readable report."""
    with open(path, "w") as f:
        if header:
            for line in header.splitlines():
                f.write(f"# {line}\n")
        for key, value in pairs:
            if isinstance(value, (list, tuple, np.ndarray)):
                value = " ".join(_fmt(v) for v in np.asarray(value).ravel())
            else:
                value = _fmt(value)
            f.write(f"{key} = {value}\n")


def read_keyvalues(path) -> dict:
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            parts = value.split()
            vals = [float(p) for p in parts]
            out[key.strip()] = vals[0] if len(vals) == 1 else np.asarray(vals)
    return out


def hom_table_text(hom) -> str:
    """Human-readable table of the homogenized plate coefficients."""
    lines = ["homogenized plate coefficients (engineering basis e11, e22, 2e12)"]
    for name, M in (("a (membrane)", hom.a_eng), ("b (coupling)", hom.b_eng),
                    ("c (bending)", hom.c_eng)):
        lines.append(name)
        for row in M:
            lines.append("   " + "  ".join(f"{v:+.12e}" for v in row))
    lines.append(f"lambda_min of the energy block: {hom.min_eigenvalue():.6e}")
    return "\n".join(lines) + "\n"


# (key, coefficient, row, column) of every entry of a coefficient file: the
# coefficients a, b, c with rows and columns 11, 22, 12 (engineering basis)
HOM_KEYS = tuple((f"{name}_{ii}{jj}", name, i, j) for name in "abc"
                 for i, ii in enumerate(("11", "22", "12"))
                 for j, jj in enumerate(("11", "22", "12")))


def hom_keyvalues(hom):
    """The `HOM_KEYS` entries of the homogenized tensor, then lambda_min."""
    pairs = [(key, getattr(hom, f"{name}_eng")[i, j]) for key, name, i, j in HOM_KEYS]
    pairs.append(("lambda_min", hom.min_eigenvalue()))
    return pairs
