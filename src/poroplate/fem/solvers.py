"""Preconditioned CG and the pressure-Schur block solver.

pcg is the only iterative kernel: deterministic (fixed reduction order, no
threading), with the residual history kept for diagnostics.  It takes either
a Jacobi diagonal or a general SPD preconditioner; solve_spd and solve_saddle
use Jacobi unless given one (the micro solves pass the geometric-multigrid
V-cycle of `fem.multigrid`).  solve_saddle eliminates the pressure block,
leaving a single SPD displacement solve.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import SolverError
from .constraints import ConstraintSet, Reducer


def _as_operator(A):
    if callable(A):
        return A
    return lambda x: A @ x


def pcg(A, b, *, tol=1e-10, maxiter=None, x0=None, diag=None, precond=None, project=None):
    """Preconditioned conjugate gradients on an SPD operator.

    Convergence is on ||r|| / ||b||; returns (x, residual_history).  `diag`
    gives Jacobi preconditioning, `precond` a general SPD application (at most
    one of the two).  `project` re-imposes orthogonality to a known kernel
    each iteration (mean-zero solves on periodic spaces).
    """
    apply_A = _as_operator(A)
    n = len(b)
    maxiter = maxiter if maxiter is not None else max(200, 12 * n)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), [0.0]
    if diag is not None:
        safe = np.where(np.abs(diag) > 0.0, diag, 1.0)
        dinv = 1.0 / safe
        apply_M = lambda r: dinv * r
    elif precond is not None:
        apply_M = precond
    else:
        apply_M = lambda r: r
    x = np.zeros(n) if x0 is None else x0.copy()
    if project is not None:
        x = project(x)
    r = b - apply_A(x)
    if project is not None:
        r = project(r)
    z = apply_M(r)
    p = z.copy()
    rz = float(r @ z)
    history = [float(np.linalg.norm(r) / bnorm)]
    if history[-1] <= tol:
        return x, history
    for _ in range(maxiter):
        Ap = apply_A(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError("CG broke down: operator not positive definite on the search space", history)
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        if project is not None:
            r = project(r)
        res = float(np.linalg.norm(r) / bnorm)
        history.append(res)
        if res <= tol:
            return x, history
        z = apply_M(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG did not reach tol={tol:.1e} in {maxiter} iterations (residual {history[-1]:.3e})",
        history,
    )


def _mean_projector(reducer: Reducer):
    """Residual projector and final mean shift for mean-zero constrained solves."""
    if not reducer.mean_zero:
        return None, None
    kernels = []
    for _, c_red, _ in reducer.mean_zero:
        nrm = np.linalg.norm(c_red)
        if nrm > 0:
            kernels.append(c_red / nrm)

    def project(v):
        for k in kernels:
            v = v - (k @ v) * k
        return v

    def shift(x):
        for w_red, c_red, measure in reducer.mean_zero:
            if measure != 0.0:
                x = x - ((w_red @ x) / measure) * c_red
        return x

    return project, shift


def _preconditioner(A, precond):
    """pcg's preconditioner arguments: `precond` if given, else Jacobi on A."""
    if precond is not None:
        return {"precond": precond}
    return {"diag": A.diagonal() if sp.issparse(A) else np.asarray(A).diagonal()}


def solve_spd(A, b, constraints: ConstraintSet | None = None, tol: float = 1e-10,
              *, x0=None, maxiter=None, precond=None):
    """CG solve of an SPD system with constraints eliminated exactly.

    A and b live on the full dof set when constraints are given; the returned
    vector is expanded back to full dofs (Dirichlet values included).
    `precond` acts on the (reduced) space CG runs on; Jacobi by default.
    """
    if constraints is None:
        x, _ = pcg(A, b, tol=tol, maxiter=maxiter, x0=x0, **_preconditioner(A, precond))
        return x
    red = constraints if isinstance(constraints, Reducer) else Reducer(constraints)
    A_red = red.reduce_matrix(A)
    b_red = red.reduce_rhs(b, A)
    project, shift = _mean_projector(red)
    x0_red = red.restrict(x0) if x0 is not None else None
    x_red, _ = pcg(A_red, b_red, tol=tol, maxiter=maxiter, x0=x0_red,
                   project=project, **_preconditioner(A_red, precond))
    if shift is not None:
        x_red = shift(x_red)
    return red.expand(x_red)


class DenseFactor:
    """Inverse of a small dense (possibly extended/saddle) matrix, applied by products."""

    def __init__(self, M: np.ndarray):
        singular = "singular dense block (c = 0 with alpha = 0 degenerate config?)"
        try:
            self._inverse = np.linalg.inv(np.asarray(M, dtype=float))
        except np.linalg.LinAlgError as exc:
            raise SolverError(singular) from exc
        if not np.all(np.isfinite(self._inverse)):
            raise SolverError(singular)

    def solve(self, B):
        return self._inverse @ B


class RepeatedBlockSolver:
    """Inverse of a block-diagonal matrix whose blocks are all the same dense S.

    Vectors are ordered block-major: x.reshape(n_blocks, block_size).
    """

    def __init__(self, S: np.ndarray, n_blocks: int):
        S = np.asarray(S, dtype=float)
        self.block_size = S.shape[0]
        self.n_blocks = n_blocks
        try:
            self._inverse = np.linalg.inv(S)
        except np.linalg.LinAlgError as exc:
            raise SolverError("pressure block is singular (c = 0 with alpha = 0?)") from exc

    def solve(self, x: np.ndarray) -> np.ndarray:
        X = x.reshape(self.n_blocks, self.block_size)
        return (X @ self._inverse.T).reshape(-1)


def solve_saddle(K, C, M_block, rhs, *, m_solver=None, tol=1e-10, rtol_check=1e-9,
                 x0=None, maxiter=None, precond=None):
    """Solve  [K, -C^T; C, M] [u; p] = [b_u; b_p]  by eliminating the pressure block.

    K must be SPD on its (already reduced) space, M SPD on the pressure space;
    this is the one-step implicit form of the coupled system.  The Schur
    complement K + C^T M^-1 C is solved by CG with inner applications of the
    supplied pressure-block solver, preconditioned by `precond` (an SPD
    approximation of K^-1; Jacobi on K by default).
    """
    b_u, b_p = rhs
    if m_solver is None:
        m_solver = DenseFactor(M_block.toarray() if sp.issparse(M_block) else np.asarray(M_block))
    C = C.tocsr() if sp.issparse(C) else np.asarray(C)
    CT = C.T.tocsr() if sp.issparse(C) else C.T

    no_coupling = (C.nnz == 0) if sp.issparse(C) else not np.any(C)
    if no_coupling:
        u = solve_spd(K, b_u, tol=tol, x0=x0, maxiter=maxiter, precond=precond)
        p = m_solver.solve(b_p)
        return u, p

    def schur(u):
        return K @ u + CT @ m_solver.solve(C @ u)

    rhs_u = b_u + CT @ m_solver.solve(b_p)
    u, _ = pcg(schur, rhs_u, tol=tol, maxiter=maxiter, x0=x0, **_preconditioner(K, precond))
    p = m_solver.solve(b_p - C @ u)

    scale = max(np.linalg.norm(rhs_u), np.linalg.norm(b_p), 1e-300)
    r1 = np.linalg.norm(K @ u - CT @ p - b_u)
    r2 = np.linalg.norm(C @ u + (M_block @ p) - b_p)
    if max(r1, r2) / scale > rtol_check:
        raise SolverError(
            f"saddle solve block residuals {r1:.2e}, {r2:.2e} exceed {rtol_check:.1e} (scale {scale:.2e})"
        )
    return u, p
