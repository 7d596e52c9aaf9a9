"""Preconditioned CG, the saddle-point step, Kronecker blocks, dense inverses,
the per-step-size operator cache and the time-step loop.

pcg is the only iterative kernel: deterministic (fixed reduction order, no
threading), with the residual history kept for diagnostics.  solve_saddle is
the implicit Euler step of the micro, macro and oracle systems: it eliminates
the pressure block, a `Kron` (I (x) S_cell or M_x (x) S_y), leaving a single
SPD displacement solve that its caller preconditions (the multigrid V-cycle
of `fem.multigrid`, or the plate's exact Schur inverse), and checks the result.

A time-stepper solves one SPD operator per step size with a right-hand side
that changes smoothly from step to step.  A `SolutionSpace` keeps up to
PROJECTION_DIM A-orthonormal earlier solutions with their images (Fischer,
CMAME 163, 1998), and with their side images when the operator also returns
T p beside A p; pcg given `space=` starts from the A-projection of the new
solution onto their span, which costs no operator application, and adds its
own correction afterwards.  A space belongs to one operator: whoever owns the
operator owns the space, and every later solve with it starts from what the
earlier ones left, a second trajectory of the same step size included.

An operator is a matrix or a callable p -> A p, or p -> (A p, T p) with
`side=`.  The callable takes the search direction alone; pcg tells it the
current relative residual through the caller's `history` list, whose last
entry is the residual of the iterate the application serves, so an operator
built on inner solves can loosen them as the outer residual falls.

Every small dense block the program solves with (the mean-pinned cell
stiffness, the gel cell blocks, the plate matrix and the plate-side M_x, S_y
and Schur matrices, the gel-box extension blocks) is SPD, and `spd_inverse`
inverts it once as L^-T L^-1 from its Cholesky factor L, with L^-1 by
recursive 2 x 2 blocking (`lower_inverse`); it is then applied as matrix
products.  All but the diagonal blocks of at most TRI_BLOCK rows are matrix
products, and a block that is not positive definite fails its factorization
rather than giving an inverse.  Every dense kernel runs on numpy's BLAS and
LAPACK, never on the separate BLAS library scipy loads.  Operators that
depend on the time step are built once per step size through `StepCache`.

`march` is the one time-step loop, of the micro, macro and oracle trajectories.
"""

from __future__ import annotations

import numpy as np

from ..errors import AssemblyError, SolverError

# relative block residual a saddle solve must meet after CG on the Schur complement
SADDLE_RTOL = 1e-9


# largest number of earlier solutions a SolutionSpace keeps before it restarts
PROJECTION_DIM = 20


def _as_operator(A):
    return A if callable(A) else (lambda x: A @ x)


def _norm(v) -> float:
    """2-norm of v, rescaled by max|v| when the plain sum of squares underflows to 0."""
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        vmax = float(np.abs(v).max(initial=0.0))
        if vmax > 0.0:
            nrm = vmax * float(np.linalg.norm(v / vmax))
    return nrm


class SolutionSpace:
    """Earlier solutions of one SPD operator A, kept A-orthonormal with their images.

    `X[j]` and `AX[j] = A X[j]` are arrays only, and so is `TX[j] = T X[j]`
    when A's solves carry the side image T x of a linear map T (`pcg(side=)`;
    `TX` stays empty otherwise).  `start(b)` gives the A-projection
    x0 = sum_j (X[j].b) X[j] of A^-1 b onto the span, r0 = b - A x0 and T x0
    from the stored images; `add` appends a solve's correction x - x0, whose
    image r0 - r is CG's own recursion, so the images carry the drift between
    CG's recursive and true residual.  Every coefficient applied to X and AX
    is applied to TX as well.  A full space restarts from the newest solution
    alone.
    """

    def __init__(self):
        self.X: list[np.ndarray] = []
        self.AX: list[np.ndarray] = []
        self.TX: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.X)

    def start(self, b, t0=None):
        """(x0, r0, T x0); `t0` is T 0 for a solve with side images, else None."""
        if self.X and (t0 is None) != (not self.TX):
            raise ValueError("a solution space keeps side images for every solution or for none")
        x0, r0 = np.zeros(len(b)), b
        for j, (x, ax) in enumerate(zip(self.X, self.AX)):
            coef = float(x @ b)
            x0 = x0 + coef * x
            r0 = r0 - coef * ax
            if t0 is not None:
                t0 = t0 + coef * self.TX[j]
        return x0, r0, t0

    def add(self, b, x0, r0, x, r, t0=None, t=None):
        """Keep what the solve from (x0, r0) to (x, r) of A x = b learned; t0
        and t are T x0 and T x for a solve with side images."""
        if len(self.X) >= PROJECTION_DIM:
            self.X, self.AX, self.TX = [], [], []
            e, Ae, Te = x, b - r, t
        else:
            e, Ae = x - x0, r0 - r
            Te = None if t is None else t - t0
        for _ in range(2):   # Gram-Schmidt in the A inner product, repeated once
            for j, (xj, axj) in enumerate(zip(self.X, self.AX)):
                coef = float(axj @ e)
                e = e - coef * xj
                Ae = Ae - coef * axj
                if Te is not None:
                    Te = Te - coef * self.TX[j]
        energy = float(e @ Ae)
        if energy > 0.0:
            scale = 1.0 / np.sqrt(energy)
            self.X.append(scale * e)
            self.AX.append(scale * Ae)
            if Te is not None:
                self.TX.append(scale * Te)


def pcg(A, b, *, tol=1e-10, x0=None, precond=None, project=None, space=None,
        side=None, history=None):
    """Preconditioned conjugate gradients on an SPD operator.

    Convergence is on ||r|| / ||b||; returns (x, residual_history), and raises
    SolverError with the history after max(200, 12 n) iterations.  `precond`
    applies an SPD preconditioner (none by default; `jacobi` builds the
    diagonal one).  `project` re-imposes orthogonality to a known kernel each
    iteration (mean-zero solves on periodic spaces).  CG starts from zero,
    from `x0`, or from the projection onto the `space` of earlier solutions of
    A, which then keeps this solve's correction.

    `side=m` says that the operator A returns the pair (A p, T p), where T p
    in R^m is a by-product of applying A by a linear map T.  CG then carries
    T x with the same step lengths as x (the space keeps T of its solutions
    too) and returns (x, residual_history, T x); the history stays second.

    `history` is a list the caller owns, to which pcg appends the relative
    residual of every iterate as it goes, and which it returns as the
    residual history: an operator that reads history[-1] knows the residual
    of the iteration it serves.
    """
    if x0 is not None and space is not None:
        raise ValueError("pcg takes a start x0 or a solution space, not both")
    apply_A = _as_operator(A)
    apply = apply_A if side is not None else (lambda v: (apply_A(v), None))
    n = len(b)
    maxiter = max(200, 12 * n)
    t = None if side is None else np.zeros(side)   # T x
    bnorm = _norm(b)
    if bnorm == 0.0:
        return (np.zeros(n), [0.0]) if t is None else (np.zeros(n), [0.0], t)
    apply_M = precond if precond is not None else (lambda r: r)
    if space is not None:
        x, r, t = space.start(b, t)
    elif x0 is None:
        x, r = np.zeros(n), b   # b - A 0, without the operator application
    else:
        x = x0.copy()
        if project is not None:
            x = project(x)
        Ax, t = apply(x)
        r = b - Ax
    if project is not None:
        r = project(r)
    x_start, r_start, t_start = x, r, t
    p = rz = None
    history = [] if history is None else history
    history.append(_norm(r) / bnorm)
    # the residual is checked before it is preconditioned: a start that
    # already meets tol costs no preconditioner application
    # (a residual that is not finite, from b or from the operator, fails too)
    while not history[-1] <= tol:
        if len(history) > maxiter or not np.isfinite(history[-1]):
            raise SolverError(f"CG did not reach tol={tol:.1e} in {len(history) - 1} iterations "
                              f"(residual {history[-1]:.3e})", history)
        z = apply_M(r)
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            raise _breakdown("r.z", rz_new, tol, history)
        p = z.copy() if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap, Tp = apply(p)
        pAp = float(p @ Ap)
        if pAp == 0.0:
            raise _breakdown("p.Ap", pAp, tol, history)
        if pAp < 0.0:
            raise SolverError("CG broke down: operator not positive definite on the search space", history)
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        if t is not None:
            t = t + alpha * Tp
        if project is not None:
            r = project(r)
        history.append(_norm(r) / bnorm)
    if space is not None:
        space.add(b, x_start, r_start, x, r, t_start, t)
    return (x, history) if t is None else (x, history, t)


def _breakdown(name: str, value: float, tol: float, history: list) -> SolverError:
    """The breakdown of a CG whose r.z or p.Ap underflowed to zero, as happens
    when tol is below what the residual can represent."""
    return SolverError(f"CG broke down before reaching tol={tol:.1e}: {name} = {value:.1e} "
                       f"at residual {history[-1]:.3e}", history)


def jacobi(A):
    """Jacobi preconditioner r -> r / diag(A) of a matrix (zero diagonal entries skipped)."""
    diag = A.diagonal()
    dinv = 1.0 / np.where(np.abs(diag) > 0.0, diag, 1.0)
    return lambda r: dinv * r


# largest lower-triangular block `lower_inverse` inverts by LU rather than by halves
TRI_BLOCK = 64


def lower_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 of a nonsingular lower-triangular L by recursive 2 x 2 blocking,

        inv([[L11, 0], [L21, L22]]) = [[A, 0], [-C L21 A, C]],  A = inv(L11), C = inv(L22),

    so everything but the diagonal blocks of at most TRI_BLOCK rows (inverted
    by `np.linalg.inv`) runs as matrix products on numpy's BLAS: about
    2 n^3 / 3 flops against the 2 n^3 of an LU-based inverse.
    """
    n = len(L)
    if n <= TRI_BLOCK:
        return np.linalg.inv(L)
    k = n // 2
    A = lower_inverse(L[:k, :k])
    C = lower_inverse(L[k:, k:])
    out = np.zeros_like(L)
    out[:k, :k] = A
    out[k:, k:] = C
    out[k:, :k] = -(C @ (L[k:, :k] @ A))
    return out


def spd_inverse(M, error: str) -> np.ndarray:
    """M^-1 = L^-T L^-1 from the Cholesky factor L, with L^-1 from
    `lower_inverse`; SolverError(error) if M is not SPD or the inverse is not
    finite.  `error` names the block, so a failure says which operator
    degenerated."""
    try:
        L_inv = lower_inverse(np.linalg.cholesky(M))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{error} ({exc})") from exc
    M_inv = L_inv.T @ L_inv
    if not np.all(np.isfinite(M_inv)):
        raise SolverError(error)
    return M_inv


class Kron:
    """A (x) B, applied as (A X) B^T to x laid out row-major as X; A = None is
    the identity.  It holds its dense or sparse factors only, and is callable,
    so it serves as a CG preconditioner."""

    def __init__(self, A, B):
        self.A = A
        self.B = B

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        X = x.reshape(-1, self.B.shape[1])
        return ((X if self.A is None else self.A @ X) @ self.B.T).reshape(-1)

    __call__ = __matmul__


def solve_saddle(K, C, CT, S, S_inv, rhs, *, precond, tol=1e-10, space=None):
    """Solve  [K, -C^T; C, S] [u; p] = [b_u; b_p]  by eliminating the pressure block.

    K must be SPD on its (already reduced) space, S SPD on the pressure space;
    each operator is anything with `@`.  The Schur complement K + C^T S^-1 C
    is solved by CG, preconditioned by `precond` (a callable or a matrix
    approximating its inverse), from the projection onto `space` when given.
    Both block residuals must meet SADDLE_RTOL relative to max(|rhs_u|, |b_p|)
    (a NaN fails); the SolverError carries the CG's residual history.
    """
    b_u, b_p = rhs

    def schur(u):
        return K @ u + CT @ (S_inv @ (C @ u))

    rhs_u = b_u + CT @ (S_inv @ b_p)
    u, history = pcg(schur, rhs_u, tol=tol, space=space, precond=_as_operator(precond))
    p = S_inv @ (b_p - C @ u)

    scale = max(np.linalg.norm(rhs_u), np.linalg.norm(b_p), 1e-300)
    r1 = np.linalg.norm(K @ u - CT @ p - b_u)
    r2 = np.linalg.norm(C @ u + S @ p - b_p)
    if not (r1 <= SADDLE_RTOL * scale and r2 <= SADDLE_RTOL * scale):
        raise SolverError(f"saddle solve block residuals {r1:.2e}, {r2:.2e} exceed "
                          f"{SADDLE_RTOL:.1e} (scale {scale:.2e})", history)
    return u, p


class StepCache:
    """Operators of one time-step size, built on the first request and kept.

    Entries are keyed by round(dt, 15), so step sizes that differ only in
    rounding share one entry.  The build function is passed on every call and
    never stored, so the cache holds only what the builds return; as long as
    that does not refer back to the owner, the owner is freed without the
    cycle collector.
    """

    def __init__(self):
        self._entries = {}

    def get(self, dt: float, build):
        """build(dt) for the first request of this step size, the kept result after."""
        if dt <= 0.0:
            raise AssemblyError(f"time step must be positive, got {dt}")
        key = round(dt, 15)
        if key not in self._entries:
            self._entries[key] = build(dt)
        return self._entries[key]


def march(start, step, row, T: float, nsteps: int, retire=lambda state: state):
    """(states, table) of nsteps steps of size T / nsteps from the state start().

    step(state, dt) gives the next state and row(state) its table row (the
    norms with the energy), one row per state.  Once a state's successor
    exists, retire(state) gives what the trajectory keeps of it (None:
    nothing).  nsteps is checked before start() builds anything.  A step's
    SolverError is raised again with its step number and time n dt in front.
    """
    if nsteps < 1:
        raise AssemblyError(f"nsteps must be >= 1, got {nsteps}")
    dt = T / nsteps
    state = start()
    states, table = [state], [row(state)]
    for n in range(1, nsteps + 1):
        try:
            state = step(state, dt)
        except SolverError as exc:
            raise SolverError(f"step {n} of {nsteps}, to t = {n * dt:.6g}: {exc}",
                              exc.residuals) from exc
        states[-1] = retire(states[-1])
        states.append(state)
        table.append(row(state))
    return [s for s in states if s is not None], table
