"""Reduced numberings of the constrained spaces.

Every constrained space lives on a uniform grid, so its reduced numbering is
a formula of the grid indices: a clamp numbers the kept nodes or dofs in
ascending order, -1 elsewhere (`number_kept`: the micro plate's
`micro.clamp_node_map`, the plate clamp of `geometry.build_plate_mesh`), and
the periodic cell maps node (i, j, k) to (i mod n, j mod n, k)
(`cell.periodic_node_map`).  Assembled on such a node map, a form is the
reduced one, P^T A P or P^T f, with P the 0/1 matrix of the map.  A `Reducer`
holds the dof map and moves vectors between the two numberings.

The cell space is also mean-zero: `cell.CellProblem.means` holds the
component means on the reduced dofs, and each consumer enforces them in its
own way, keeping its operator SPD (the corrector CG projects out the
constants and shifts, the pressure cell operator pins K by its means, the
norm-equivalence spectrum restricts to their null space).
"""

from __future__ import annotations

import numpy as np


def number_kept(keep: np.ndarray) -> np.ndarray:
    """Ids 0, 1, ... of the kept entries of a mask in ascending order, -1 elsewhere."""
    ids = np.full(len(keep), -1, dtype=np.int64)
    ids[keep] = np.arange(np.count_nonzero(keep))
    return ids


def node_dof_map(node_map: np.ndarray, ncomp: int) -> np.ndarray:
    """The dof map of ncomp dofs per node, node-major, -1 at a node mapped to -1."""
    nodes = np.asarray(node_map, dtype=np.int64)[:, None]
    return np.where(nodes < 0, -1, ncomp * nodes + np.arange(ncomp)).ravel()


class Reducer:
    """The reduced numbering of a constrained space: full = P @ reduced.

    `dof_map` gives the reduced dof of every full dof (-1 where eliminated),
    and `free` the first full dof of each reduced dof, in ascending order for
    every numbering of the package.
    """

    def __init__(self, dof_map: np.ndarray):
        self.dof_map = np.asarray(dof_map, dtype=np.int64)
        red, first = np.unique(self.dof_map, return_index=True)
        self.free = first[red >= 0]
        self.n_reduced = len(self.free)

    def expand(self, x_red: np.ndarray) -> np.ndarray:
        """P @ x_red: each kept dof reads its reduced dof, and an eliminated
        dof (id -1) reads the zero appended to x_red."""
        return np.append(x_red, 0.0)[self.dof_map]

    def restrict(self, x_full: np.ndarray) -> np.ndarray:
        """Reduced coefficients of a full vector (reads free dofs)."""
        return x_full[self.free]
