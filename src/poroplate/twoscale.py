"""Unfolding operators, the macroscopic Biot-Kirchhoff-Love solver, the direct
two-scale oracle, and the micro-to-limit convergence harness.

The macro solver is the exact corrector elimination of the unfolded limit
problem; the oracle eliminates the cell warping of that limit problem exactly
from its own `PressureCellOperator` (its own `CellProblem` and cell factor,
the gel blocks and the response map U_C).  Both leave a (6, 6) plate tensor on
(m, -k) and six cell vectors of the pressure coupling: the macro path takes
them from the homogenized tensor and the divergence moments of the
correctors, the oracle from P_Y - r K^-1 r^T and r U_C of its cell operator
(P_Y the averaged Voigt blocks, r the six cell right-hand sides).  The oracle
reads no corrector fields, divergence moments or homogenized tensor, so
agreement between the two paths checks the whole cell/homogenization pipeline.

Both paths share the structure of the plate-gel pressure coupling.  The gel
pressure p0(x', y) is nodal in x' (plate node i) and lives on the gel dofs j
of the cell; it reaches the plate only through three membrane and three
bending moments of the cell, so the coupling matrix is rank 6 in Kronecker
form,

    Gamma[(i, j), V] = sum_k G_k[i, V] v_k[j],   Gamma = sum_k G_k (x) v_k,

with sparse (nn, n_red) plate factors G_k (`plate_coupling_factors`: the
bilinear shape N_i against the membrane strains and curvatures of V) and cell
vectors v_k of length ng, applied through its factors (`Coupling`).  The
pressure blocks are M_x (x) S_y (`fem.solvers.Kron`), and the step's Schur
term is
Gamma^T (M_x^-1 (x) S_y^-1) Gamma = sum_{k,l} (v_k . S_y^-1 v_l) G_k^T M_x^-1 G_l
(`kron_schur`), so no (nn * ng, n_red) block is ever formed.

The implicit Euler step is `fem.solvers.solve_saddle`, the micro monolithic
step's elimination and block-residual check, with the inverse of the Schur
matrix as the CG preconditioner: it is exact, so CG stops after one iteration.
The dense blocks of the plate side (M_x, S_y and the Schur matrix) are small
and reused every step, so they are inverted once by `fem.solvers.spd_inverse`
(Cholesky, then a blocked triangular inverse) and applied as matrix products:
every dense kernel of a step then runs on numpy's BLAS, without switching to
the separate BLAS library scipy loads.

The two paths share one state (`PlateState`), one system built from the
plate tensor and the cell vectors (`_CoupledPlateSystem`: plate matrix,
coupling, loads, initial state, implicit Euler step, energy and norm table),
and the one time-step loop `fem.solvers.march` of the micro trajectories; a
subclass defines only its constructor.  `oracle_mismatch` is the one
measure of "macro = oracle" (AC5), and `ORACLE_TOL` its acceptance bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from . import fem
from .cell import (
    CellProblem,
    HomogenizedTensor,
    MomentTable,
    PressureCellOperator,
    MEMBRANE_KEYS,
    _ENG_UNIT,
    solve_cell,
)
from .errors import AssemblyError, BudgetError
from .fem import elements as el
from .fem.solvers import Kron, StepCache, march, solve_saddle, spd_inverse
from .geometry import GEL, BrickMesh, PlateMesh
from .material import BiotParams, HookeTensor, LoadSeries, LoadSpec

# ------------------------------------------------------------------ unfolding


@dataclass
class UnfoldedField:
    """Field on (macro cell) x (cell-mesh nodes), produced by the unfolding map."""

    eps: float
    data: np.ndarray          # (n_cells, n_cell_nodes) or (..., ncomp)
    cell_mesh: BrickMesh


def _check_matched(micro: BrickMesh, cell: BrickMesh):
    if micro.n != cell.n or micro.geom != cell.geom:
        raise AssemblyError(f"micro mesh (n={micro.n}, {micro.geom}) and cell mesh "
                            f"(n={cell.n}, {cell.geom}) are not matched")


def unfold(values: np.ndarray, micro: BrickMesh, cell: BrickMesh) -> UnfoldedField:
    """Nodal unfolding (Pi_eps psi)(k, y) = psi(eps k + eps y) on matched grids."""
    _check_matched(micro, cell)
    values = np.asarray(values)
    if values.shape[0] != micro.n_nodes:
        raise AssemblyError("field must be nodal on the micro mesh")
    data = values[micro.cell_nodes]
    return UnfoldedField(eps=micro.eps, data=data, cell_mesh=cell)


def unfolded_l2(uf: UnfoldedField) -> float:
    """L2(omega x Ycell) norm: per-cell mass form weighted by the cell area eps^2."""
    M = fem.assemble_scalar_mass(uf.cell_mesh)
    X = np.moveaxis(uf.data, 1, 0).reshape(uf.data.shape[1], -1)   # (cell nodes, cells * comps)
    total = float(np.sum(X * (M @ X)))
    return float(np.sqrt(max(total, 0.0)) * uf.eps)


def gradient_identity_error(values: np.ndarray, micro: BrickMesh, cell: BrickMesh) -> float:
    """max over elements/qps of | grad_y(Pi psi) - eps Pi(grad psi) |."""
    _check_matched(micro, cell)
    uf = unfold(values, micro, cell)
    _, dN_cell, _, _ = el.qp_data(cell.spacing)
    _, dN_micro, _, _ = el.qp_data(micro.spacing)
    g_y = np.einsum("qai,kea->keqi", dN_cell, uf.data[:, cell.elems])
    g_x = np.einsum("qai,kea->keqi", dN_micro, values[micro.elems[micro.cell_elems]])
    return float(np.abs(g_y - micro.eps * g_x).max())


def isometry_error(values: np.ndarray, micro: BrickMesh, cell: BrickMesh) -> float:
    """Relative defect of ||Pi psi||^2_{omega x Ycell} = (1/eps) ||psi||^2_{Omega_eps}."""
    uf = unfold(values, micro, cell)
    lhs = unfolded_l2(uf) ** 2
    M3 = fem.assemble_scalar_mass(micro)
    rhs = float(values @ (M3 @ values)) / micro.eps
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


# ------------------------------------------------------- plate-gel coupling


def plate_coupling_factors(space: PlateMesh) -> list:
    """The six sparse (nn, n_red) plate factors G_k of the pressure coupling.

    G_I[i, V] = int N_i m_I(V) dx' and G_{3+I}[i, V] = -int N_i k_I(V) dx' for
    the engineering membrane strains m(V) and curvatures k(V) of a reduced
    plate vector V, on the shared plate quadrature rule.
    """
    w_N = space.qp_w[:, None] * space.N_bil                       # (nq, 4)
    out = []
    for B, dofs in ((space.E[:, :3, :8], space.elem_dofs[:, :8]),
                    (space.E[:, 3:, 8:], space.elem_dofs[:, 8:])):
        loc = np.einsum("qa,qIl->Ial", w_N, B)                     # (3, 4, nloc)
        out += [fem.assembly.scatter(space.quads, blk, (space.n_nodes, space.n_red),
                                     cols=dofs) for blk in loc]
    return out


class Coupling:
    """Gamma = sum_k G[k] (x) V[k] of sparse plate factors G[k] (nn, n_red) and
    cell vectors V[k], applied through them as `Gamma @ W` and `Gamma.T @ p`
    (p laid out (plate node, gel dof)).  It holds arrays only."""

    def __init__(self, G: list, V: np.ndarray, transposed: bool = False):
        self.G, self.V, self.transposed = G, V, transposed

    @property
    def T(self) -> Coupling:
        return Coupling(self.G, self.V, not self.transposed)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if self.transposed:   # sum_k G_k^T (P V[k])
            PV = x.reshape(-1, self.V.shape[1]) @ self.V.T
            return sum(g.T @ PV[:, k] for k, g in enumerate(self.G))
        return (np.stack([g @ x for g in self.G], axis=1) @ self.V).reshape(-1)


def kron_schur(A: np.ndarray, gamma: Coupling, Mx_inv: np.ndarray,
               Sy_inv: np.ndarray) -> np.ndarray:
    """A + Gamma^T (M_x^-1 (x) S_y^-1) Gamma (symmetrized).

    The pressure block splits per pair of cell vectors,
    sum_{k,l} (V_k . S_y^-1 V_l) G_k^T M_x^-1 G_l: six M_x^-1 products and six
    sparse-times-dense products, without forming Gamma.
    """
    G, V = gamma.G, gamma.V
    coef = V @ Sy_inv @ V.T                                        # (6, 6)
    nn, n_red = G[0].shape
    Y = (Mx_inv @ sp.hstack(G).toarray()).reshape(nn, len(G), n_red)
    out = A.copy()
    for g, c in zip(G, coef):
        out += g.T @ np.tensordot(Y, c, axes=(1, 0))
    return 0.5 * (out + out.T)


@dataclass
class PlateState:
    """Kirchhoff-Love fields and the two-scale gel pressure p0, nodal in x'.

    `W_red` is the reduced plate vector the next step reads.  The oracle's
    cell warping is a linear function of W_red and p and is never stored.
    """

    t: float
    Wm: np.ndarray          # (nn, 2) membrane displacement
    Wb: np.ndarray          # (nn, 4) BFS dofs of W3 (value, d1, d2, d12)
    p: np.ndarray           # (nn, n_gel) two-scale pressure p0
    W_red: np.ndarray       # (n_red,) reduced plate vector

    @property
    def W3(self) -> np.ndarray:
        return self.Wb[:, 0]


def _plate_matrix(space: PlateMesh, K: np.ndarray) -> np.ndarray:
    """Dense reduced plate matrix of a (6, 6) form K on (m, -k): the element
    matrix sum_q w_q E_q^T K E_q, the same on every element."""
    E = space.E
    loc = np.einsum("q,qab->ab", space.qp_w, E.transpose(0, 2, 1) @ K @ E)
    n = space.n_red
    return fem.assembly.scatter(space.elem_dofs, loc, (n, n)).toarray()


# traces of the unit membrane strains M^11, M^22, M^12 (engineering order)
_TRACE = np.array([1.0, 1.0, 0.0])[:, None]


class _CoupledPlateSystem:
    """Reduced plate dofs W coupled to a two-scale pressure p(x', y), nodal in x'.

    The system is built from two inputs beside the cell operator `op`: a
    (6, 6) plate tensor K on (m, -k), whose strain form is the plate matrix A,
    and the six cell vectors V of the coupling `gamma` = sum_k G_k (x) V[k].
    The pressure blocks are M_x (x) S_y (`Kron`) with
    S_y = (c M_gel + alpha^2 N + dt D_gel) / |Ycell|, where N = C K^-1 C^T is
    the cell's pressure response map.  An implicit Euler step is
    `fem.solvers.solve_saddle`, preconditioned by the inverse of the Schur
    matrix A + Gamma^T (M_x (x) S_y)^-1 Gamma, so its CG stops after one
    iteration.  The inverse is built once per step size on a `StepCache`,
    which holds arrays only, never a reference to the system.
    """

    def __init__(self, plate: PlateMesh, op: PressureCellOperator, biot: BiotParams,
                 K: np.ndarray, V: np.ndarray, loads: LoadSpec | None):
        self.space, self.op, self.biot = plate, op, biot
        self.vol = vol = op.cell_volume
        self.ng = op.n_gel
        loads = loads if loads is not None else LoadSpec()
        self.A = _plate_matrix(plate, K)
        self.gamma = Coupling(plate_coupling_factors(plate), V)
        self.M_x = plate.mass()
        self._M_x_inv = spd_inverse(self.M_x, "plate mass matrix is not positive definite")
        self.M_gel_y = op.M_gel.toarray()
        self.S_mass_y = (biot.c * self.M_gel_y + biot.alpha**2 * op.N) / vol
        self.D_y = op.D_gel.toarray() / vol
        qpc = plate.qp_coords()

        def plate_load(comp, spatial):
            """int f_comp V_comp on the reduced plate dofs."""
            fv = spatial(qpc[..., 0], qpc[..., 1], 0.0)
            loc = np.zeros((len(plate.elem_dofs), 24))
            if comp < 2:
                loc[:, comp:8:2] = np.einsum("q,qa,eq->ea", plate.qp_w, plate.N_bil, fv)
            else:
                loc[:, 8:] = np.einsum("q,qa,eq->ea", plate.qp_w, plate.N_bfs, fv)
            return fem.assembly.scatter_vector(plate.elem_dofs, loc, plate.n_red)

        def pressure_load(_, spatial):
            """(1/|Ycell|) int h phi on the p dofs."""
            hx = plate.N_qp.T @ (plate.qp_w_rows() * spatial(qpc[..., 0], qpc[..., 1], 0.0).ravel())
            return np.outer(hx, op.w).reshape(-1) / vol

        self.F_W = LoadSeries.build(loads.components(), plate_load, plate.n_red)
        self.H = LoadSeries.build((loads.h,), pressure_load, plate.n_nodes * self.ng)
        self._step_cache = StepCache()

    def p_mean(self, state: PlateState) -> np.ndarray:
        """p_m(x') = (1/|Ycell|) int_gel p0 dy per plate node."""
        return (state.p @ self.op.w) / self.vol

    def _state(self, t: float, W_red: np.ndarray, p: np.ndarray) -> PlateState:
        Wm, Wb = self.space.expand(W_red)
        return PlateState(t=t, Wm=Wm, Wb=Wb, p=p, W_red=W_red)

    def initial_state(self) -> PlateState:
        """Static plate response A W = F(0) with p = 0."""
        F0 = self.F_W(0.0)
        if np.linalg.norm(F0) > 0.0:
            W_red = spd_inverse(self.A, "plate matrix is not positive definite") @ F0
        else:
            W_red = np.zeros(self.space.n_red)
        return self._state(0.0, W_red, np.zeros((self.space.n_nodes, self.ng)))

    def step(self, state: PlateState, dt: float) -> PlateState:
        """The implicit Euler step to t + dt,
        A W1 - Gamma^T p1 = F(t1),  Gamma W1 + (M_x (x) S_y(dt)) p1 = b2."""
        t1 = state.t + dt
        A_inv, S, S_inv = self._step_cache.get(dt, self._prepare_step)
        rhs = (self.F_W(t1), dt * self.H(t1) + self._carried(state))
        W1, p1 = solve_saddle(self.A, self.gamma, self.gamma.T, S, S_inv, rhs, precond=A_inv)
        return self._state(t1, W1, p1.reshape(self.space.n_nodes, self.ng))

    def _prepare_step(self, dt: float):
        """(Schur inverse, M_x (x) S_y, its inverse) for the step size dt."""
        S_y = self.S_mass_y + dt * self.D_y
        Sy_inv = spd_inverse(S_y, "cell pressure block is not positive definite")
        A = kron_schur(self.A, self.gamma, self._M_x_inv, Sy_inv)
        return (spd_inverse(A, "plate step Schur matrix is not positive definite"),
                Kron(self.M_x, S_y), Kron(self._M_x_inv, Sy_inv))

    def _carried(self, state: PlateState) -> np.ndarray:
        """(M_x (x) S_mass_y) p^n + Gamma W^n: the previous state in the
        pressure equation."""
        return Kron(self.M_x, self.S_mass_y) @ state.p.reshape(-1) + self.gamma @ state.W_red

    def _elastic_energy(self, state: PlateState) -> float:
        """W.A.W plus the pressure response part alpha^2/|Ycell| p0.(M_x (x) N).p0."""
        p = state.p.reshape(-1)
        el_W = float(state.W_red @ (self.A @ state.W_red))
        el_p = self.biot.alpha**2 / self.vol * float(p @ (Kron(self.M_x, self.op.N) @ p))
        return el_W + el_p

    def norms(self, state: PlateState) -> dict:
        """The norms and the energy, c ||p0||^2_{L2(omega x gel)} plus the
        elastic energy: one row of the trajectory table."""
        p = state.p.reshape(-1)
        pm = self.p_mean(state)
        p0_sq = float(p @ (Kron(self.M_x, self.M_gel_y) @ p))
        return {
            "t": state.t,
            "Wm": float(np.sqrt(sum(state.Wm[:, c] @ (self.M_x @ state.Wm[:, c]) for c in range(2)))),
            "W3": float(np.sqrt(state.W3 @ (self.M_x @ state.W3))),
            "p0": float(np.sqrt(max(p0_sq, 0.0))),
            "p_m": float(np.sqrt(max(pm @ (self.M_x @ pm), 0.0))),
            "energy": self.biot.c * p0_sq + self._elastic_energy(state),
        }


# ------------------------------------------------------------- macro system


class MacroSystem(_CoupledPlateSystem):
    """The corrector-eliminated plate system: the homogenized tensor
    [[a, b^T], [b, c]] and the divergence moments of the correctors."""

    def __init__(self, hom: HomogenizedTensor, op: PressureCellOperator,
                 moments: MomentTable, plate: PlateMesh, biot: BiotParams,
                 loads: LoadSpec | None = None):
        if hom.min_eigenvalue() <= 1e-10:
            raise AssemblyError("homogenized tensor is not positive definite")
        K = np.block([[hom.a_eng, hom.b_eng.T], [hom.b_eng, hom.c_eng]])
        # cell vectors: divergence moments plus the traces int phi and
        # int y3 phi, scaled by alpha / |Ycell|
        cm = np.stack([moments.vec("m", *k) for k in MEMBRANE_KEYS]) + _TRACE * op.w
        cb = np.stack([moments.vec("b", *k) for k in MEMBRANE_KEYS]) + _TRACE * op.w3
        V = biot.alpha / op.cell_volume * np.vstack([cm, cb])
        super().__init__(plate, op, biot, K, V, loads)


def assemble_macro(hom: HomogenizedTensor, op: PressureCellOperator, moments: MomentTable,
                   plate: PlateMesh, biot: BiotParams, loads: LoadSpec | None = None) -> MacroSystem:
    """Macro Biot-Kirchhoff-Love system from the cell quantities."""
    return MacroSystem(hom, op, moments, plate, biot, loads)


def run_macro(msys: MacroSystem, T: float, nsteps: int):
    """Implicit Euler macro trajectory with the norm/energy table."""
    return march(msys.initial_state, msys.step, msys.norms, T, nsteps)


# ----------------------------------------------------- direct two-scale oracle


class MupSystem(_CoupledPlateSystem):
    """The unfolded limit problem with its cell warping eliminated exactly,
    from this system's own `PressureCellOperator` (built here, never taken
    from the macro path).

    At a plate quadrature point the warping is ubar = alpha U_C P - K^-1 r^T E,
    with E the (m, -k) strain of W, P the gel pressure there, r the six cell
    right-hand sides and U_C = K^-1 C^T.  Substituted into the limit problem
    it leaves the plate tensor (P_Y - r K^-1 r^T) / |Ycell|, with P_Y the
    averaged Voigt blocks, the cell vectors alpha / |Ycell| (traces - r U_C)
    of the coupling and the pressure response alpha^2 N / |Ycell|, the pieces
    of the macro system.  No corrector fields, divergence moments or
    homogenized coefficients are read, and a state holds W and p alone.
    """

    def __init__(self, cell_mesh: BrickMesh, plate: PlateMesh, hooke: HookeTensor,
                 biot: BiotParams, loads: LoadSpec | None = None,
                 budget_dofs: int = 300_000):
        op = PressureCellOperator(cell_mesh, hooke, biot)
        total = plate.n_red + plate.n_nodes * op.n_gel   # the W and p a state holds
        if total > budget_dofs:
            raise BudgetError(
                f"two-scale oracle needs {total} dofs, over the budget of {budget_dofs}")
        r = np.stack([op.problem.r_red[(kind,) + k] for kind in "mb" for k in MEMBRANE_KEYS])
        E_eng = np.stack([_ENG_UNIT[k] for k in MEMBRANE_KEYS], axis=1)  # (6, 3)
        P0, P1, P2 = (E_eng.T @ D @ E_eng for D in op.problem.voigt)
        K = (np.block([[P0, P1], [P1, P2]]) - r @ op.solve_reduced(r.T)) / op.cell_volume
        K = 0.5 * (K + K.T)   # symmetric but for the round-off of the dense inverse
        traces = np.vstack([_TRACE * op.w, _TRACE * op.w3])
        V = biot.alpha / op.cell_volume * (traces - r @ op.U_C)
        super().__init__(plate, op, biot, K, V, loads)


def solve_mup_direct(cell_mesh: BrickMesh, plate: PlateMesh, hooke: HookeTensor,
                     biot: BiotParams, loads: LoadSpec, T: float, nsteps: int,
                     budget_dofs: int = 300_000):
    """Trajectory of the unfolded limit problem with its warping eliminated
    (the oracle path).

    The trajectory's start builds the system, after the nsteps check.
    """
    osys = None

    def start():
        nonlocal osys
        osys = MupSystem(cell_mesh, plate, hooke, biot, loads, budget_dofs=budget_dofs)
        return osys.initial_state()

    states, table = march(start, lambda state, dt: osys.step(state, dt),
                          lambda state: osys.norms(state), T, nsteps)
    return osys, states, table


# largest `oracle_mismatch` at which macro = oracle is accepted
ORACLE_TOL = 1e-6


def oracle_mismatch(msys: MacroSystem, mstates, mtable, osys: MupSystem, ostates,
                    otable) -> float:
    """Largest relative difference between the macro and the oracle trajectory.

    Per step it compares the table norms Wm, W3 and p_m, each relative to the
    oracle's value floored at 1e-12 times the step's largest of p_m, Wm and 1;
    at the final time it compares the fields Wm, W3 and p_m in the Euclidean
    norm, each relative to the oracle field's norm floored the same way, at
    1e-12 times the largest of the field norms of p_m and Wm and sqrt(nn),
    the norm of a unit field on the nn plate nodes; so a field that is
    round-off in both paths passes.  This is the acceptance measure of
    "macro = oracle" (AC5).
    """
    worst = 0.0
    for a, b in zip(mtable[1:], otable[1:]):
        for key in ("Wm", "W3", "p_m"):
            scale = max(abs(b[key]), 1e-12 * max(abs(b["p_m"]), abs(b["Wm"]), 1.0))
            worst = max(worst, abs(a[key] - b[key]) / scale)
    sf, of = mstates[-1], ostates[-1]
    fields = ((sf.Wm, of.Wm), (sf.W3, of.W3), (msys.p_mean(sf), osys.p_mean(of)))
    norms = [float(np.linalg.norm(b)) for _, b in fields]
    floor = 1e-12 * max(norms[2], norms[0], np.sqrt(len(of.Wm)))
    for (a, b), norm in zip(fields, norms):
        worst = max(worst, float(np.linalg.norm(a - b)) / max(norm, floor))
    return worst


# ------------------------------------------------- Kirchhoff-Love residuals


# Frobenius weights of the engineering strain components
_ENG_FROB = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])


def _grid_order(points: np.ndarray):
    """(order, in-plane points (n_ip, 2), thickness points (n_z,)) of points
    that fill a tensor grid: points[order] runs over the grid in-plane point
    major, x1 fastest, then thickness point."""
    (x1, i1), (x2, i2), (x3, i3) = (np.unique(points[:, c], return_inverse=True)
                                    for c in range(3))
    slot = (i1 + len(x1) * i2) * len(x3) + i3
    if len(points) != len(x1) * len(x2) * len(x3) or len(np.unique(slot)) != len(points):
        raise AssemblyError(f"the {len(points)} cell quadrature points do not fill a "
                            f"{len(x1)} x {len(x2)} x {len(x3)} grid")
    return np.argsort(slot), np.stack(np.meshgrid(x1, x2), axis=-1).reshape(-1, 2), x3


class ResidualContext:
    """Cell-side tables of the unfolded residual on the cell's quadrature grid.

    The Gauss points of the cell mesh form a tensor grid of n_ip in-plane
    points y' times n_z thickness points y3.  Every table is laid out
    (in-plane point, thickness point, ...), so the plate fields, functions of
    x' = eps (k + y') alone, are evaluated once per in-plane point of a cell.
    The limit strain E(W) + e_y(u_d) + e_y(u_P) is linear in the membrane
    strain m, the curvature kappa and the gel pressure p0 at x'; `unit_strains`
    holds its cell factor for the coefficients (m, -kappa, alpha p0).
    """

    def __init__(self, cell_mesh: BrickMesh, correctors, op: PressureCellOperator):
        self.cell_mesh = cell_mesh
        N, dN, wdet, _ = el.qp_data(cell_mesh.spacing)
        nq = len(wdet)
        y = fem.assembly.qp_points(cell_mesh).reshape(-1, 3)
        self.order, self.y_ip, self.y3 = _grid_order(y)
        self.w = np.tile(wdet, cell_mesh.n_elems)[self.order].reshape(len(self.y_ip), -1)
        # element dofs -> values (3) and engineering strains (6) at each element qp
        values = np.einsum("qa,cd->qcad", N, np.eye(3)).reshape(nq, 3, 24)
        self._to_qp = np.concatenate([values, el.strain_B(dN)], axis=1).reshape(-1, 24).T
        # strains of the correctors and of the unit pressure responses
        # (e(u_P) = alpha sum_j p0_j e(U_C[:, j])), plus E(W) = m - y3 kappa in the
        # in-plane components
        fields = [correctors.field(kind, *key) for kind in "mb" for key in MEMBRANE_KEYS]
        fields += [op.reducer.expand(u).reshape(-1, 3) for u in op.U_C.T]
        R = self.sample(np.stack(fields))[..., 3:]                    # (6 + ng, n_ip, n_z, 6)
        R[:3, ..., [0, 1, 5]] += np.eye(3)[:, None, None, :]
        R[3:6, ..., [0, 1, 5]] += np.eye(3)[:, None, None, :] * self.y3[:, None]
        self.unit_strains = np.ascontiguousarray(R.transpose(1, 0, 2, 3))
        # gel shape values at the gel qps: Phi[i, z, j], zero off the gel
        gel = np.flatnonzero(cell_mesh.phase == GEL)
        gel_dofs, ng = fem.assembly.element_dofs(cell_mesh, gel, op.gel_nodes)
        phi = np.zeros((cell_mesh.n_elems, nq, ng))
        phi[gel[:, None, None], np.arange(nq)[:, None], gel_dofs[:, None, :]] = N
        self.gel_shapes = phi.reshape(-1, ng)[self.order].reshape(*self.w.shape, ng)

    def sample(self, nodal: np.ndarray) -> np.ndarray:
        """(..., n_ip, n_z, 9) values and engineering strains on the grid of
        (..., n_cell_nodes, 3) nodal fields of the cell mesh."""
        lead = nodal.shape[:-2]
        out = nodal[..., self.cell_mesh.elems, :].reshape(*lead, -1, 24) @ self._to_qp
        return out.reshape(*lead, -1, 9)[..., self.order, :].reshape(*lead, *self.w.shape, 9)


def kirchhoff_love_residual(U: np.ndarray, p: np.ndarray, micro: BrickMesh,
                            ctx: ResidualContext, msys: MacroSystem,
                            mstate: PlateState) -> dict:
    """Discrete L2(omega x Ycell) distances between the unfolded micro solution
    and the Kirchhoff-Love limit built from the macro state.

    All cells at once: arrays are laid out (cell, in-plane point, thickness
    point, ...), and the plate fields are evaluated at the in-plane points
    x' = eps (k + y') of every cell only.
    """
    _check_matched(micro, ctx.cell_mesh)
    eps = micro.eps
    space = msys.space
    n_cells, n_ip = micro.total_cells, len(ctx.y_ip)
    cells = np.arange(n_cells)
    k2 = np.stack([cells % micro.n_cells[0], cells // micro.n_cells[0]], axis=-1)
    (a1, _), (a2, _) = micro.omega
    pts = (np.array([a1, a2]) + eps * (k2[:, None, :] + ctx.y_ip)).reshape(-1, 2)
    Wm, m = space.eval_membrane(mstate.Wm, pts)
    W3, grad_W3, kappa = space.eval_bending(mstate.Wb, pts)
    p0 = space.eval_bilinear_nodal(mstate.p, pts)
    vs = ctx.sample(np.asarray(U).reshape(-1, 3)[micro.cell_nodes])   # Pi(U), eps Pi(e(U))

    def plate(a):
        """(cells, n_ip, 1, ...) plate values, constant along the thickness."""
        return a.reshape(n_cells, n_ip, 1, *a.shape[1:])

    w = eps**2 * ctx.w
    d = vs[..., :2] / eps - (plate(Wm) - ctx.y3[:, None] * plate(grad_W3))
    e_inplane = np.einsum("iz,kizc,kizc->", w, d, d)
    d = vs[..., 2] - plate(W3)
    e_deflection = np.einsum("iz,kiz,kiz->", w, d, d)
    pk = np.reshape(p, (n_cells, 1, -1)) / eps                         # (1/eps) Pi(p)
    d = np.einsum("izj,kij->kiz", ctx.gel_shapes, pk - p0.reshape(n_cells, n_ip, -1),
                  optimize=True)
    e_pressure = np.einsum("iz,kiz,kiz->", w, d, d)
    # (1/eps) Pi(e(U)) minus the limit strain, in place: the strain arrays are
    # the largest of the call
    coef = np.hstack([m, -kappa, msys.biot.alpha * p0]).reshape(n_cells, n_ip, -1)
    d = np.einsum("kiJ,iJzc->kizc", coef, ctx.unit_strains, optimize=True)
    vs[..., 3:] /= eps**2
    np.subtract(vs[..., 3:], d, out=d)
    e_strain = np.einsum("iz,kizc,kizc,c->", w, d, d, _ENG_FROB)
    return {
        "e_inplane": float(np.sqrt(e_inplane)),
        "e_deflection": float(np.sqrt(e_deflection)),
        "e_strain": float(np.sqrt(e_strain)),
        "e_pressure": float(np.sqrt(e_pressure)),
    }


def convergence_study(geom, hooke: HookeTensor, biot: BiotParams, loads: LoadSpec,
                      omega, eps_list, n_cell: int, m_plate: int, T: float,
                      nsteps: int, tol: float = 1e-9, tol_cell: float = 1e-10):
    """Residual table along an eps sequence against one fixed macro solve.

    The micro and macro trajectories use the same implicit Euler grid so the
    time-discretization error cancels from the comparison; only monotone
    decrease is asserted downstream (the limit carries no proven rate).  The
    micro steps solve to `tol`, the correctors to `tol_cell`.
    """
    from .geometry import build_cell_mesh, build_micro_mesh, build_plate_mesh
    from .micro import assemble_micro, run_transient

    cm = build_cell_mesh(geom, n_cell)
    cq = solve_cell(cm, hooke, biot, tol_cell)
    plate = build_plate_mesh(omega, m_plate)
    msys = assemble_macro(cq.hom, cq.op, cq.moments, plate, biot, loads)
    mstates, mtable = run_macro(msys, T, nsteps)
    ctx = ResidualContext(cm, cq.correctors, cq.op)
    rows = []
    for eps in eps_list:
        mm = build_micro_mesh(geom, eps, omega, n_cell)
        sys_eps = assemble_micro(mm, hooke, biot, eps, loads)
        traj = run_transient(sys_eps, T, nsteps, stepper="monolithic", tol=tol,
                             keep_states=False)
        res = kirchhoff_love_residual(traj.final.U, traj.final.p, mm, ctx, msys,
                                      mstates[-1])
        res["eps"] = eps
        res["e_U_max"] = traj.max_norm("e_U")
        res["p_max"] = traj.max_norm("p")
        rows.append(res)
    keys = ("e_inplane", "e_deflection", "e_strain", "e_pressure")
    monotone = {k: all(rows[i + 1][k] < rows[i][k] for i in range(len(rows) - 1))
                for k in keys}
    return rows, monotone, (msys, mstates, mtable)


# -------------------------------------------------- unfolded-space spectrum


def norm_equivalence_spectrum(cell_mesh: BrickMesh):
    """Extremal generalized eigenvalues of the shifted-strain semi-norm.

    Left form: || P(eta, zeta, y3) + e_y(w) ||^2_{L2(Ycell)} on
    R^3 x R^3 x (periodic mean-zero vector fields); right form:
    |eta|^2 + |zeta|^2 + ||w||^2_{H1}.  Returns (c_min, C_max).
    """
    ident = np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
    # the identity tensor's stiffness is the strain form ||e(w)||^2
    problem = CellProblem(cell_mesh, HookeTensor(fiber=ident, gel=ident))
    nred = problem.reducer.n_reduced
    K_I = problem.K_red.toarray()
    rhs = problem.r_red
    # eta patterns: M^11, M^22, 2 M^12; zeta patterns carry -y3
    r_eta = np.stack([rhs[("m", 0, 0)], rhs[("m", 1, 1)], 2.0 * rhs[("m", 0, 1)]])
    r_zeta = -np.stack([rhs[("b", 0, 0)], rhs[("b", 1, 1)], 2.0 * rhs[("b", 0, 1)]])
    n = 6 + nred
    Q_S = np.zeros((n, n))
    # (eta, zeta) own block: int |P|^2 with |Ycell| = 2, int y3^2 dy = 2/3,
    # ordering (eta1, eta2, eta3, zeta1, zeta2, zeta3)
    Q_S[:6, :6] = np.diag([2.0, 2.0, 4.0, 2.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0])
    R = np.vstack([r_eta, r_zeta])            # (6, nred)
    Q_S[:6, 6:] = R
    Q_S[6:, :6] = R.T
    Q_S[6:, 6:] = K_I

    # the H1 form (mass + diffusion) (x) I_3, assembled on the periodic node map
    nodes, nn = fem.assembly.element_nodes(cell_mesh, node_map=problem.node_map)
    ke = el.hex_scalar_mass_ke(cell_mesh.spacing) + el.hex_scalar_diffusion_ke(cell_mesh.spacing,
                                                                              np.eye(3))
    H1 = fem.assembly.scatter(nodes, np.kron(ke, np.eye(3)), (3 * nn, 3 * nn)).toarray()
    Q_R = np.zeros((n, n))
    Q_R[:6, :6] = np.eye(6)
    Q_R[6:, 6:] = H1

    # mean-zero reduction of the w block
    Z = la.null_space(problem.means)
    Tmat = np.zeros((n, 6 + Z.shape[1]))
    Tmat[:6, :6] = np.eye(6)
    Tmat[6:, 6:] = Z
    A = Tmat.T @ Q_S @ Tmat
    B = Tmat.T @ Q_R @ Tmat
    vals = la.eigh(0.5 * (A + A.T), 0.5 * (B + B.T), eigvals_only=True)
    return float(vals[0]), float(vals[-1])
