"""Geometric-multigrid V-cycle for the clamped micro stiffness B.

The micro mesh is a uniform brick grid with x-fastest node ids and three dofs
per node, so the prolongation is a Kronecker product of 1D linear
interpolations restricted to the free (unclamped) dofs.  The coarse nodes of
an axis sit at its even grid indices plus the last one, so every axis with at
least two elements coarsens: the thickness coarsens until the plate is one
element thick, the plane until the free dofs fit a sparse LU (`COARSE_DOFS`).
Coarse operators are Galerkin products P^T (A P), and A P is kept on its
level: the residual after the coarse correction e is r - (A P) e, so one
application of the cycle makes one product with each level's A, and A P has
0.5-0.7 times A's entries.  Each sparse product stores only the entries
outside the rounding-error bound of their sums, as `fem.assembly.scatter`
does.  One damped-Jacobi sweep, the degree-1 Chebyshev smoother of D^-1 A on
[lambda_max / 30, lambda_max], runs before and after the coarse correction,
so the cycle is a symmetric positive definite preconditioner for CG.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import EPS, drop_roundoff

COARSE_DOFS = 600
# power iterations for lambda_max(D^-1 A), from a fixed start vector, and the
# margin that keeps the damped sweep contractive when the estimate falls short
POWER_ITERS = 15
POWER_MARGIN = 1.1
CHEBYSHEV_RATIO = 30.0


def interp_1d(n: int):
    """(P, picks): the (n+1, nc+1) linear interpolation onto the n+1 grid
    nodes from the coarse nodes `picks` (even indices and n); identity for n < 2."""
    if n < 2:
        return sp.identity(n + 1, format="csr"), np.arange(n + 1)
    picks = np.unique(np.r_[np.arange(0, n + 1, 2), n])
    fine = np.arange(n + 1)
    k = np.minimum(np.searchsorted(picks, fine, side="right") - 1, len(picks) - 2)
    t = (fine - picks[k]) / (picks[k + 1] - picks[k])
    P = sp.csr_matrix((np.r_[1.0 - t, t], (np.r_[fine, fine], np.r_[k, k + 1])),
                      shape=(n + 1, len(picks)))
    P.eliminate_zeros()
    return P, picks


def _jacobi_weight(A: sp.csr_matrix, dinv: np.ndarray) -> float:
    """Damping 2 / (lambda_min + lambda_max) of the degree-1 Chebyshev sweep."""
    x = np.random.default_rng(0).standard_normal(A.shape[0])
    lam = 0.0
    for _ in range(POWER_ITERS):
        Ax = A @ x
        lam = float(x @ Ax) / float(x @ (x / dinv))   # Rayleigh quotient in the D inner product
        x = dinv * Ax
        x /= np.linalg.norm(x)
    lam_max = POWER_MARGIN * lam
    return 2.0 / (lam_max + lam_max / CHEBYSHEV_RATIO)


def _product(X: sp.csr_matrix, Y: sp.csr_matrix) -> sp.csr_matrix:
    """X Y without the entries inside the rounding-error bound of their sums:
    entry (i, j) sums at most n terms X_ik Y_kj (n the longest row of X), each
    at most max|X_i.| max|Y_.j|, and is stored only if it exceeds n eps times that."""
    Z = X @ Y
    row_len = np.diff(X.indptr)
    row_max = np.zeros(X.shape[0])
    row_max[row_len > 0] = np.maximum.reduceat(np.abs(X.data), X.indptr[:-1][row_len > 0])
    col_max = np.zeros(Y.shape[1])
    np.maximum.at(col_max, Y.indices, np.abs(Y.data))
    tol = np.repeat(row_len.max(initial=0) * EPS * row_max, np.diff(Z.indptr))
    tol *= col_max[Z.indices]
    return drop_roundoff(Z, tol)


class Level(NamedTuple):
    """One level above the coarsest: its operator, Jacobi weights, prolongation
    from the next coarser level, its transpose and A P."""

    A: sp.csr_matrix
    w: np.ndarray
    P: sp.csr_matrix
    PT: sp.csr_matrix
    AP: sp.csr_matrix


class VCycle:
    """V-cycle on an SPD matrix A of the free dofs of a brick grid.

    `nelems` is the (nx, ny, nz) element count, `free` the ascending full dof
    ids (3 * node + component) that A acts on.  Holds matrices and factors only.
    """

    def __init__(self, A: sp.spmatrix, nelems, free: np.ndarray):
        A = A.tocsr()
        nelems = tuple(int(n) for n in nelems)
        mask = np.zeros(3 * int(np.prod(np.add(nelems, 1))), dtype=bool)
        mask[free] = True
        self.levels: list[Level] = []
        while A.shape[0] > COARSE_DOFS and max(nelems) >= 2:
            (Px, ix), (Py, iy), (Pz, iz) = (interp_1d(n) for n in nelems)
            nx, ny, nz = nelems
            cmask = mask.reshape(nz + 1, ny + 1, nx + 1, 3)[np.ix_(iz, iy, ix)].reshape(-1)
            P = sp.kron(sp.kron(sp.kron(Pz, Py), Px), sp.identity(3), format="csr")
            P = P[mask][:, cmask].tocsr()
            dinv = 1.0 / A.diagonal()
            lv = Level(A, _jacobi_weight(A, dinv) * dinv, P, P.T.tocsr(), _product(A, P))
            self.levels.append(lv)
            A = _product(lv.PT, lv.AP)
            mask, nelems = cmask, (len(ix) - 1, len(iy) - 1, len(iz) - 1)
        self.coarse = spla.splu(A.tocsc())

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse.solve(b)
        lv = self.levels[level]
        x = lv.w * b
        r = b - lv.A @ x
        e = self._cycle(level + 1, lv.PT @ r)
        x += lv.P @ e
        r -= lv.AP @ e     # b - A x after the correction, without a second product with A
        x += lv.w * r
        return x
