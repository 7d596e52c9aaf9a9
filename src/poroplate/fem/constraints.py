"""Constraint handling by exact elimination.

Dirichlet dofs (homogeneous: every clamp of the package is zero) are removed
and periodic slave dofs are identified with their masters.  Mean-zero
functionals are carried along in reduced coordinates, and each consumer
enforces them in its own way, keeping its operator SPD:
* the corrector CG (`cell.solve_correctors`) projects the constant fields out
  of its residual and shifts each solution to mean zero;
* the pressure cell operator (`cell.PressureCellOperator`) inverts the
  stiffness pinned by its means, K + W^T W;
* the norm-equivalence spectrum (`twoscale.norm_equivalence_spectrum`)
  restricts its forms to the null space of the mean functionals.
For a right-hand side orthogonal to the constant fields, each gives the
solution of a Lagrange multiplier per mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import ConstraintError


@dataclass
class ConstraintSet:
    """Zero Dirichlet dofs, periodic master/slave pairs, optional mean-zero blocks."""

    ndof: int
    dirichlet_dofs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    periodic_slaves: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    periodic_masters: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    # each mean-zero block: (weights over full dofs, indicator of the dof block)
    mean_zero: list = field(default_factory=list)

    def __post_init__(self):
        self.dirichlet_dofs = np.asarray(self.dirichlet_dofs, dtype=np.int64)
        self.periodic_slaves = np.asarray(self.periodic_slaves, dtype=np.int64)
        self.periodic_masters = np.asarray(self.periodic_masters, dtype=np.int64)
        dir_set = set(self.dirichlet_dofs.tolist())
        if dir_set.intersection(self.periodic_slaves.tolist()):
            raise ConstraintError("a dof appears both as Dirichlet and as periodic slave")


class Reducer:
    """Linear map full = P @ reduced realizing a ConstraintSet exactly.

    It keeps the reduced dof of every dof (`dof_map`): `expand` applies P as
    a gather, and `P` is built only where a sparse matrix is needed.
    """

    def __init__(self, cons: ConstraintSet):
        n = cons.ndof
        root = np.arange(n, dtype=np.int64)
        root[cons.periodic_slaves] = cons.periodic_masters
        # path-compress master chains; bounded depth, else the graph has a cycle
        for _ in range(64):
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        else:
            raise ConstraintError("periodic constraint graph has a cycle")
        if np.any(root[cons.periodic_slaves] == cons.periodic_slaves):
            raise ConstraintError("periodic slave maps to itself")

        is_slave = np.zeros(n, dtype=bool)
        is_slave[cons.periodic_slaves] = True
        is_dir = np.zeros(n, dtype=bool)
        is_dir[cons.dirichlet_dofs] = True
        if np.any(is_dir[root[cons.periodic_slaves]]):
            raise ConstraintError("periodic slave resolves to a Dirichlet master")

        free = np.flatnonzero(~(is_slave | is_dir))
        red_of = np.full(n, -1, dtype=np.int64)
        red_of[free] = np.arange(len(free))
        self.dof_map = red_of[root]   # reduced dof of every dof, -1 where eliminated
        self.n_reduced = len(free)
        self.free = free
        if np.any(self.dof_map[~is_dir] < 0):
            raise ConstraintError("periodic master resolves to an eliminated dof")
        # mean-zero data in reduced coordinates: (weights, shift direction, measure)
        self.mean_zero = []
        P = self.P
        for w_full, block_full in cons.mean_zero:
            w_red = P.T @ np.asarray(w_full, dtype=float)
            block = np.asarray(block_full, dtype=float)
            c_red = block[self.free]  # constant-1 field on the block, reduced
            measure = float(np.asarray(w_full) @ block)
            self.mean_zero.append((w_red, c_red, measure))

    @property
    def P(self) -> sp.csr_matrix:
        """The map full = P @ reduced as a sparse matrix, built on each call:
        `expand` applies it without one."""
        rows = np.flatnonzero(self.dof_map >= 0)
        return sp.csr_matrix((np.ones(len(rows)), (rows, self.dof_map[rows])),
                             shape=(len(self.dof_map), self.n_reduced))

    def node_map(self, ncomp: int) -> np.ndarray:
        """Reduced node of every node (-1 where eliminated), for ncomp dofs per node.

        A matrix assembled on these node ids is P^T A P (see `fem.assembly`);
        the constraints must act on whole nodes.
        """
        dofs = self.dof_map.reshape(-1, ncomp)
        nodes = dofs[:, 0] // ncomp
        whole = np.where(nodes[:, None] < 0, -1, ncomp * nodes[:, None] + np.arange(ncomp))
        if not np.array_equal(dofs, whole):
            raise ConstraintError(f"constraints do not act on whole nodes of {ncomp} dofs")
        return nodes

    def reduce_matrix(self, A: sp.spmatrix) -> sp.csr_matrix:
        P = self.P
        return (P.T @ A @ P).tocsr()

    def expand(self, x_red: np.ndarray) -> np.ndarray:
        """P @ x_red: each kept dof reads its reduced dof, and an eliminated
        dof (id -1) reads the zero appended to x_red."""
        return np.append(x_red, 0.0)[self.dof_map]

    def restrict(self, x_full: np.ndarray) -> np.ndarray:
        """Reduced coefficients of a full vector (reads free dofs)."""
        return x_full[self.free]
