"""The eps-scale coupled problem: assembly, two time-stepping paths, diagnostics.

The implicit Euler step of the coupled system

    B U^{n+1} - alpha C^T p^{n+1} = F^{n+1}
    alpha C (U^{n+1}-U^n) + (cM + dt D) p^{n+1} = dt G^{n+1} + cM p^n

is solved either monolithically (`fem.solvers.solve_saddle`, the plate
systems' step too: one SPD solve on the displacement) or through the reduced
pressure ODE

    (cM + alpha^2 C B^-1 C^T) db/dt + D b = G - alpha C B^-1 dF/dt

with nested CG (inner B-solves).  With the consistent initial displacement
U(0) = B^-1 F(0) the two recursions are algebraically identical, which the
acceptance suite checks to 1e-7.

The pressure-ODE step solves for the increment p^{n+1} - p^n.  Its right-hand
side needs no B-solve: B does not depend on t and F(t) is a `LoadSeries`,
a sum of t^deg times fixed spatial parts, so B^-1 F(t) is the series of the
parts' responses, each solved once per system (`GalerkinSystem.load_response`,
which also gives the initial state), and the
consistency B U^n - alpha C^T p^n = F^n of every state replaces
alpha^2 C B^-1 C^T p^n by alpha C (U^n - B^-1 F^n).  What remains is one
B-solve per outer CG iteration, at a tolerance that relaxes as the outer
residual falls.  The final displacement solve starts from
U^n + B^-1 (F^{n+1} - F^n) + alpha B^-1 C^T (p^{n+1} - p^n): the load
responses and B^-1 C^T of the increment, which the outer CG carries as a side
image of its inner solves (`pcg(side=)`), so it starts close and takes a few
iterations where the relaxed inner errors reached the side image.  The
residual of the pressure equation at the re-solved state certifies the step:
it is the residual of the Schur stopping rule, costs sparse products only,
and the step repeats CG on it until it meets the rule.

Both steppers start their step CG from the projection onto earlier solutions
of the same step operator (`fem.solvers.SolutionSpace`): the monolithic
displacement Schur system and the pressure-ODE increment each keep one space on
the operators of their step size.  The right-hand side changes smoothly from
step to step, so the start is close and costs no operator application; a
second trajectory with the same dt on one system starts from the space the
first one left, so its states agree with a fresh system's to the solver
tolerance, not bit for bit.

Every CG solve on the displacement (the monolithic Schur operator
B + alpha^2 C^T (cM + dt D)^-1 C, the inner and final B-solves of the pressure
ODE and the initial state) is preconditioned by one geometric-multigrid
V-cycle on B (`fem.multigrid`), built on the first solve: B does not depend on
dt, so one hierarchy serves every step size and both steppers.

The gel cells are congruent translates of one cell (`BrickMesh.cell_nodes`,
`cell_elems`, and the cell-major `gel_nodes`), so M, D and C repeat one cell
block: `assemble_micro` sums them on cell 0's gel elements and tiles them over
the cells (`fem.assembly.tile_rows`), bit for bit the whole-mesh sums.  The
operators that depend on the step size, cM + dt D = I (x) S_cell
with its inverse and the block preconditioner of the pressure ODE, are
`fem.solvers.Kron` blocks built from cell 0 once per dt
(`GalerkinSystem.step_operators`, on the step cache of `fem.solvers`) and
read by both steppers.

`assemble_micro` assembles only what a step reads: B, C, M and D, with B
written from one cell's stencil (`fem.assemble_clamped_stiffness`).  The
a-priori norms of the trajectory table, ||e(U)||, ||grad U|| and
eps ||grad p||, are evaluated element by element from one element matrix
each (`fem.assembly.ElementForm`); ||e(U)|| and ||grad U|| share one gather of
the element displacements.  No matrix on all 3 n_nodes dofs is held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import AssemblyError, SolverError
from .fem import elements as el
from .fem.assembly import ElementForm, quads
from .fem.constraints import Reducer, node_dof_map, number_kept
from .fem.multigrid import VCycle
from .fem.solvers import Kron, SolutionSpace, StepCache, march, pcg, solve_saddle, spd_inverse
from .geometry import GEL, BrickMesh
from .material import BiotParams, HookeTensor, LoadSeries, LoadSpec, require_admissible

# tolerance of the load responses and of the final displacement solve of the
# pressure-ODE step, and the floor of its inner B-solves, which relax to
# INNER_TOL / rho_k at outer relative residual rho_k
INNER_TOL = 1e-12


def clamp_node_map(mesh: BrickMesh) -> np.ndarray:
    """The homogeneous lateral clamp, all three components: the interior nodes
    numbered in ascending order, -1 on the lateral boundary."""
    nx, ny, nz = mesh.nelems
    lateral = np.zeros((nz + 1, ny + 1, nx + 1), dtype=bool)   # [k, j, i]
    lateral[:, [0, ny], :] = lateral[:, :, [0, nx]] = True
    return number_kept(~lateral.ravel())


@dataclass(frozen=True)
class StepOperators:
    """Operators of one step size, shared by both steppers.

    Factors and arrays only: the system caches them, so they must not refer
    back to it.  The two solution spaces grow with every step of size dt, and
    every later step of that size starts its CG from them.  The pressure
    space also keeps B^-1 C^T of each increment it holds (`TX`, none when
    alpha = 0), the side images the Schur-ODE step's final solve starts from.
    """

    S: Kron                 # cM + dt D = I (x) S_cell, one dense block per gel cell
    S_inv: Kron             # I (x) S_cell^-1
    prec: Kron              # Schur-ODE preconditioner: S + alpha^2 C diag(B)^-1 C^T blocks, inverted
    # earlier solutions of the monolithic displacement Schur system
    u_space: SolutionSpace = field(default_factory=SolutionSpace)
    # earlier pressure increments of the Schur-ODE step
    p_space: SolutionSpace = field(default_factory=SolutionSpace)


@dataclass
class GalerkinSystem:
    """Assembled operators of the micro problem on one mesh."""

    mesh: BrickMesh
    biot: BiotParams
    eps: float
    reducer: Reducer
    B: sp.csr_matrix            # clamped stiffness (reduced)
    C: sp.csr_matrix            # gel pressure x reduced displacement, unscaled
    M: sp.csr_matrix            # gel pressure mass, unscaled
    D: sp.csr_matrix            # eps^2 K diffusion on the gel
    F: LoadSeries               # reduced displacement load (eps scalings included)
    G: LoadSeries               # gel pressure source (eps scaling included)
    # the norm forms, evaluated element by element (`fem.assembly.ElementForm`)
    strain_sq: ElementForm      # ||e(U)||^2 on full dofs
    grad_sq: ElementForm        # ||grad U||^2 on full dofs: the scalar form (x) I_3
    grad_p_sq: ElementForm      # ||grad p||^2 on gel dofs (unscaled)
    _step_cache: StepCache = field(default_factory=StepCache, init=False, repr=False,
                                   compare=False)

    @property
    def n_p(self) -> int:
        return self.M.shape[0]

    @property
    def decoupled(self) -> bool:
        return self.biot.alpha == 0.0

    @cached_property
    def multigrid(self) -> VCycle:
        """The V-cycle preconditioner of B, built on first use and kept."""
        return VCycle(self.B, self.mesh.nelems, self.reducer.free)

    @cached_property
    def coupling(self) -> tuple:
        """(alpha C, its CSR transpose) of the monolithic step, built on first use and kept."""
        C = self.biot.alpha * self.C
        return C, C.T.tocsr()

    def solve_B(self, rhs: np.ndarray, tol: float, x0=None) -> np.ndarray:
        """B^-1 rhs by multigrid-preconditioned CG."""
        # fem.solvers.pcg is looked up per call, so an instrumented pcg sees these solves
        x, _ = fem.solvers.pcg(self.B, rhs, tol=tol, x0=x0, precond=self.multigrid)
        return x

    @cached_property
    def load_response(self) -> LoadSeries:
        """t -> B^-1 F(t), from one B-solve per part of F made on first use and
        kept (arrays only, like the hierarchy above)."""
        return self.F.map(partial(self.solve_B, tol=INNER_TOL))

    def step_operators(self, dt: float) -> StepOperators:
        """The implicit Euler operators of step size dt, built once per dt."""
        return self._step_cache.get(dt, self._build_step_operators)

    def _build_step_operators(self, dt: float) -> StepOperators:
        """StepOperators of step size dt.

        The gel cells are congruent: M, D and C repeat one cell block, so the
        pressure block and the preconditioner come from cell 0 and are tiled
        over the cells.
        """
        c, alpha = self.biot.c, self.biot.alpha
        ng = self.mesh.n_gel_local
        S_local = (c * self.M[:ng, :ng] + dt * self.D[:ng, :ng]).toarray()
        S_inv = spd_inverse(S_local, "gel cell block cM + dt D is not positive definite")
        C0, dB = self.C[:ng], self.B.diagonal()
        X = (C0.multiply(1.0 / np.where(dB > 0, dB, 1.0))).tocsr()
        prec = spd_inverse(
            S_local + alpha**2 * (X @ C0.T).toarray(),
            "gel cell block of the pressure-ODE preconditioner is not positive definite")
        return StepOperators(S=Kron(None, S_local), S_inv=Kron(None, S_inv), prec=Kron(None, prec))


def assemble_micro(mesh: BrickMesh, hooke: HookeTensor, biot: BiotParams, eps: float,
                   loads: LoadSpec | None = None) -> GalerkinSystem:
    """Assemble stiffness, coupling, scaled diffusion, and load parts."""
    require_admissible(hooke, biot)
    if abs(mesh.eps - eps) > 1e-12:
        raise AssemblyError(f"mesh was tiled with eps={mesh.eps}, got eps={eps}")
    if len(mesh.gel_nodes) == 0:
        raise AssemblyError("micro mesh has no gel phase")
    loads = loads if loads is not None else LoadSpec()
    node_map = clamp_node_map(mesh)
    reducer = Reducer(node_dof_map(node_map, 3))
    B = fem.assemble_clamped_stiffness(mesh, hooke)
    C, M, D = _gel_blocks(mesh, biot, node_map)
    gel_mask = mesh.phase == GEL
    k_grad = el.hex_scalar_diffusion_ke(mesh.spacing, np.eye(3))
    f_scale = (eps, eps, eps**2)

    def body_force(comp, spatial):
        def f_at(x, y, z):
            v = np.zeros(x.shape + (3,))
            v[..., comp] = spatial(x, y, 0.0)
            return v
        return f_scale[comp] * fem.assemble_body_force(mesh, f_at, node_map)

    def source(_, spatial):
        return eps * fem.assemble_scalar_source(mesh, lambda x, y, z: spatial(x, y, 0.0),
                                                elems_mask=gel_mask, nodes=mesh.gel_nodes)

    return GalerkinSystem(
        mesh=mesh, biot=biot, eps=eps, reducer=reducer, B=B, C=C, M=M, D=D,
        F=LoadSeries.build(loads.components(), body_force, B.shape[0]),
        G=LoadSeries.build((loads.h,), source, M.shape[0]),
        strain_sq=ElementForm(mesh.elems, el.hex_elastic_ke(mesh.spacing, el.STRAIN_IDENTITY)),
        grad_sq=ElementForm(mesh.elems, np.kron(k_grad, np.eye(3))),
        grad_p_sq=ElementForm(fem.assembly.element_dofs(mesh, gel_mask, mesh.gel_nodes)[0],
                              k_grad),
    )


def _gel_blocks(mesh: BrickMesh, biot: BiotParams, node_map: np.ndarray):
    """(C, M, D): the coupling on the clamp's dofs, the gel pressure mass
    (unscaled: c multiplies it in the stepper) and the eps^2 K diffusion.

    Each is summed on cell 0's gel elements and tiled over the cells: the gel
    nodes are numbered cell-major and the gel boxes are congruent, so M and D
    are block diagonal, and cell c's rows of C are cell 0's with the columns
    moved by the clamp ids' offset of cell c, the same for each of its gel
    nodes as long as none lies on the clamp.
    """
    ids = node_map[mesh.gel_nodes.reshape(mesh.total_cells, -1)]
    if np.any(ids < 0):
        raise AssemblyError("a gel node lies on the clamp")
    ng = mesh.n_gel_local
    nodes0 = mesh.gel_nodes[:ng]
    cell0 = np.zeros(mesh.n_elems, dtype=bool)
    cell0[mesh.cell_elems[0]] = True
    cell0 &= mesh.phase == GEL
    C0 = fem.assemble_divergence_coupling(mesh, gel_nodes=nodes0, node_map=node_map,
                                          elems_mask=cell0)
    M0 = fem.assemble_scalar_mass(mesh, elems_mask=cell0, nodes=nodes0)
    D0 = fem.assemble_scalar_diffusion(mesh, biot.K, elems_mask=cell0, nodes=nodes0,
                                       scale=mesh.eps**2)
    shifts, n_p = ng * np.arange(mesh.total_cells), ng * mesh.total_cells
    return (fem.assembly.tile_rows(C0, 3 * (ids[:, 0] - ids[0, 0]), C0.shape[1]),
            fem.assembly.tile_rows(M0, shifts, n_p), fem.assembly.tile_rows(D0, shifts, n_p))


@dataclass
class MicroState:
    """Nodal displacement and gel pressure at one time level."""

    t: float
    U: np.ndarray          # (n_nodes, 3), zero on the lateral boundary
    p: np.ndarray          # (n_gel,)
    U_red: np.ndarray      # reduced displacement the next step reads

    def norms(self, sys: GalerkinSystem) -> dict:
        """The a-priori norms and the energy c ||p||^2 + ||e(U)||_A^2 (the decay
        functional of the a priori bound): one row of the trajectory table."""
        e_sq, grad_sq = quads(self.U.reshape(-1), sys.strain_sq, sys.grad_sq)
        p_sq = self.p @ (sys.M @ self.p)
        return {
            "t": self.t,
            "e_U": float(np.sqrt(max(e_sq, 0.0))),
            "p": float(np.sqrt(max(p_sq, 0.0))),
            "eps_grad_p": sys.eps * float(np.sqrt(max(sys.grad_p_sq.quad(self.p), 0.0))),
            "grad_U": float(np.sqrt(max(grad_sq, 0.0))),
            "energy": float(sys.biot.c * p_sq + self.U_red @ (sys.B @ self.U_red)),
        }


def initial_state(sys: GalerkinSystem) -> MicroState:
    """Zero data; if F(0) != 0 the quasi-static constraint fixes U(0) = B^-1 F(0),
    read from the load responses.  Without F(0) no response is solved, so the
    monolithic path never pays for them."""
    if np.linalg.norm(sys.F(0.0)) > 0.0:
        U_red = sys.load_response(0.0)
    else:
        U_red = np.zeros(sys.B.shape[0])
    U = sys.reducer.expand(U_red).reshape(-1, 3)
    return MicroState(t=0.0, U=U, p=np.zeros(sys.n_p), U_red=U_red)


def step_monolithic(sys: GalerkinSystem, state: MicroState, dt: float, *,
                    tol: float = 1e-10) -> MicroState:
    """One implicit Euler step by pressure-Schur elimination (single SPD solve),
    started from the projection onto the earlier displacements of step size dt."""
    ops = sys.step_operators(dt)
    t1 = state.t + dt
    alpha = sys.biot.alpha
    b_u = sys.F(t1)
    b_p = dt * sys.G(t1) + sys.biot.c * (sys.M @ state.p) + alpha * (sys.C @ state.U_red)
    u, p = solve_saddle(sys.B, *sys.coupling, ops.S, ops.S_inv, (b_u, b_p),
                        precond=sys.multigrid, tol=tol, space=ops.u_space)
    return MicroState(t=t1, U=sys.reducer.expand(u).reshape(-1, 3), p=p, U_red=u)


def step_schur(sys: GalerkinSystem, state: MicroState, dt: float, *,
               tol: float = 1e-10) -> MicroState:
    """One implicit Euler step of the reduced pressure ODE with nested B-solves.

    With A = cM + dt D + alpha^2 C B^-1 C^T the step solves A p^{n+1} = b,
    b = dt G^{n+1} + cM p^n + alpha C (U^n - L^{n+1}) and L = B^-1 F from the
    per-part load responses, to the stopping rule ||b - A p|| <= tol ||b||.
    With u = B^-1 (F^{n+1} + alpha C^T p), b - A p is the residual of the
    pressure equation

        res = dt G^{n+1} + cM (p^n - p) - dt D p - alpha C (u - U^n),

    which costs sparse products only; at p = p^n, u = U^n + L^{n+1} - L^n it
    needs no B-solve.  While res misses the rule, a pass runs CG on it for an
    increment of p, with the tolerance rescaled to the rule, and re-solves
    u at INNER_TOL from u plus alpha B^-1 C^T of the increment.  Each outer
    iteration makes one inner B-solve y = B^-1 C^T z, which A_op returns
    beside A z, so CG carries B^-1 C^T of the increment as its side image.
    The inner tolerance relaxes as the outer residual falls,
    max(INNER_TOL, INNER_TOL / rho_k) at outer relative residual rho_k
    (inexact Krylov: Simoncini & Szyld, SISC 25, 2003); the inner errors then
    reach p, u and the side image, and the residual of the re-solved state
    shows them, so the step repeats its pass until res meets the rule.  Every
    returned state has had a final solve; a pass that does not reduce ||res||
    raises SolverError carrying ||res|| before and after every pass.  CG starts
    from the projection of the increment onto the earlier increments of step
    size dt.
    """
    ops = sys.step_operators(dt)
    t1 = state.t + dt
    alpha, c = sys.biot.alpha, sys.biot.c
    outer = []   # the outer CG's relative residuals, appended by pcg as it goes

    def A_op(z):
        if alpha == 0.0:
            return c * (sys.M @ z) + dt * (sys.D @ z)
        y = sys.solve_B(sys.C.T @ z, max(INNER_TOL, INNER_TOL / outer[-1]))
        return c * (sys.M @ z) + alpha**2 * (sys.C @ y) + dt * (sys.D @ z), y

    G1, F1 = sys.G(t1), sys.F(t1)
    b = dt * G1 + c * (sys.M @ state.p)
    p, u = state.p, state.U_red
    if alpha != 0.0:
        L1, Ln = sys.load_response(t1), sys.load_response(state.t)
        b += alpha * (sys.C @ (state.U_red - L1))
        u = u + (L1 - Ln)

    def residual():
        res = dt * G1 + c * (sys.M @ (state.p - p)) - dt * (sys.D @ p)
        return res if alpha == 0.0 else res - alpha * (sys.C @ (u - state.U_red))

    goal = tol * np.linalg.norm(b)
    res = residual()
    norms = [float(np.linalg.norm(res))]
    while True:
        if norms[-1] > goal:
            outer.clear()
            solve = partial(pcg, A_op, res, tol=goal / norms[-1], precond=ops.prec,
                            space=ops.p_space, history=outer)
            if alpha == 0.0:
                dp, _ = solve()
            else:
                dp, _, B_inv_CT_dp = solve(side=len(u))
                u = u + alpha * B_inv_CT_dp
            p = p + dp
        u = sys.solve_B(F1 + alpha * (sys.C.T @ p), INNER_TOL, x0=u)
        res = residual()
        norms.append(float(np.linalg.norm(res)))
        if norms[-1] <= goal:
            break
        if norms[-2] > goal and norms[-1] >= norms[-2]:   # a pass that ran CG in vain
            raise SolverError(
                f"Schur-ODE step: pass {len(norms) - 1} did not reduce the "
                f"pressure-equation residual ({norms[-2]:.3e} -> {norms[-1]:.3e}, "
                f"goal {goal:.3e})", norms)
    return MicroState(t=t1, U=sys.reducer.expand(u).reshape(-1, 3), p=p, U_red=u)


@dataclass
class Trajectory:
    """States plus the per-step norm/energy table of the a-priori quantities."""

    states: list
    table: list

    @property
    def final(self) -> MicroState:
        return self.states[-1]

    def max_norm(self, key: str) -> float:
        return max(row[key] for row in self.table)

    def korn_constant(self, eps: float) -> float:
        """max over steps of eps * ||grad U|| / ||e(U)|| (clamped discrete Korn)."""
        vals = [eps * row["grad_U"] / row["e_U"] for row in self.table if row["e_U"] > 0.0]
        return max(vals) if vals else 0.0


def run_transient(sys: GalerkinSystem, T: float, nsteps: int, *,
                  stepper: str = "monolithic", tol: float = 1e-10,
                  keep_states: bool = True) -> Trajectory:
    """Implicit Euler trajectory on [0, T] recording the a-priori norm table;
    without `keep_states` only the final state is kept."""
    step = {"monolithic": step_monolithic, "schur": step_schur}[stepper]
    states, table = march(partial(initial_state, sys), partial(step, sys, tol=tol),
                          lambda state: state.norms(sys), T, nsteps,
                          retire=lambda state: state if keep_states else None)
    return Trajectory(states, table)


# --------------------------------------------------------- decomposition ops

def _thickness_ops(mesh: BrickMesh):
    """Column layout: node id = col + ncol * layer with ncol in-plane nodes."""
    nx, ny, nz = mesh.nelems
    ncol = (nx + 1) * (ny + 1)
    return ncol, nz + 1, mesh.spacing[2]


def thickness_average(mesh: BrickMesh, U: np.ndarray) -> np.ndarray:
    """(1/2eps) int U dx3 per mid-surface node (exact for nodal interpolants)."""
    ncol, nlay, hz = _thickness_ops(mesh)
    V = U.reshape(nlay, ncol, -1)
    w = np.full(nlay, hz)
    w[0] = w[-1] = hz / 2.0
    return np.einsum("k,kcm->cm", w, V) / (2.0 * mesh.eps)


def thickness_first_moment(mesh: BrickMesh, U: np.ndarray) -> np.ndarray:
    """int x3 U dx3 per mid-surface node, exact per linear layer."""
    ncol, nlay, hz = _thickness_ops(mesh)
    V = U.reshape(nlay, ncol, -1)
    z = -mesh.eps + hz * np.arange(nlay)
    w = np.zeros(nlay)
    # layer [za, zb]: (h/6) * (Ua (2 za + zb) + Ub (za + 2 zb))
    w[:-1] += (hz / 6.0) * (2.0 * z[:-1] + z[1:])
    w[1:] += (hz / 6.0) * (z[:-1] + 2.0 * z[1:])
    return np.einsum("k,kcm->cm", w, V)


@dataclass
class DecompositionReport:
    """Elementary/warping split of a plate displacement."""

    W: np.ndarray          # (n_mid, 3) mid-surface displacement
    R: np.ndarray          # (n_mid, 2) fiber rotations
    wbar: np.ndarray       # (n_nodes, 3) warping, zero thickness average
    max_wbar_average: float = 0.0


def griso_decompose(U: np.ndarray, mesh: BrickMesh) -> DecompositionReport:
    """Split U into elementary displacement (W, x3 R) and mean-zero warping."""
    eps = mesh.eps
    ncol, nlay, hz = _thickness_ops(mesh)
    U = U.reshape(-1, 3)
    W = thickness_average(mesh, U)
    R = (3.0 / (2.0 * eps**3)) * thickness_first_moment(mesh, U[:, :2])
    z = mesh.nodes[:, 2]
    WE = np.empty_like(U)
    tileW = np.tile(W, (nlay, 1))
    tileR = np.tile(R, (nlay, 1))
    WE[:, 0] = tileW[:, 0] + z * tileR[:, 0]
    WE[:, 1] = tileW[:, 1] + z * tileR[:, 1]
    WE[:, 2] = tileW[:, 2]
    wbar = U - WE
    avg = thickness_average(mesh, wbar) * (2.0 * eps)
    return DecompositionReport(W=W, R=R, wbar=wbar,
                               max_wbar_average=float(np.abs(avg).max()))


def extend_fiber(U: np.ndarray, mesh: BrickMesh, hooke: HookeTensor) -> np.ndarray:
    """Per-cell elastic extension of the fiber trace into the gel boxes.

    A cell's gel nodes form an (nk, nj, ni) box in template order, so its
    walls (the first and last j and i), its caps (the first and last k) and
    its interior are slices.  The gel spans the full thickness by default, so
    the cap values are first lifted from the cap-edge trace by a 2D harmonic
    solve; affine fields are then reproduced exactly by the interior elastic
    solve.  All cells share one inverse (congruent gel boxes) and are solved
    batched.
    """
    U = np.asarray(U, dtype=float).reshape(-1, 3)
    W = U.copy()
    tpl = mesh.gel_local_template
    if len(tpl) == 0:
        return W
    box = tuple(len(np.unique(tpl[:, c])) for c in (2, 1, 0))     # (nk, nj, ni)
    n_cells = mesh.total_cells
    nodes_per_cell = mesh.gel_nodes.reshape(n_cells, -1)
    vals = W[nodes_per_cell].reshape(n_cells, *box, 3)
    inner = np.zeros(box[1:], dtype=bool)                          # off the walls
    inner[1:-1, 1:-1] = True

    if tpl[0, 2] == 0 and tpl[-1, 2] == 2 * mesh.n and inner.any():
        # bilinear Laplace lift of the cap-edge trace, both caps and all
        # components at once
        h = float(mesh.spacing[0])
        _, K2 = fem.assembly.bilinear_grid_forms(box[2] - 1, box[1] - 1, h, h)
        edge = ~inner.ravel()
        K2_inv = spd_inverse(K2[~edge][:, ~edge].toarray(),
                             "cap Laplace block of the gel extension is not positive definite")
        caps = vals[:, [0, -1]].reshape(n_cells, 2, -1, 3)
        bdry = np.moveaxis(caps[:, :, edge], 2, 0).reshape(edge.sum(), -1)
        sol = K2_inv @ -(K2[~edge][:, edge] @ bdry)
        caps[:, :, ~edge] = np.moveaxis(sol.reshape(-1, n_cells, 2, 3), 0, 2)
        vals[:, [0, -1]] = caps.reshape(n_cells, 2, *box[1:], 3)

    # 3D homogeneous elastic solve on the gel interior, Dirichlet walls + caps,
    # on the gel elements of cell 0 numbered in template order
    interior = np.zeros(box, dtype=bool)
    interior[1:-1] = inner
    interior = interior.ravel()
    vals = vals.reshape(n_cells, -1, 3)
    cell0 = mesh.cell_elems[0]
    node_map = np.full(mesh.n_nodes, -1, dtype=np.int64)
    node_map[nodes_per_cell[0]] = np.arange(len(tpl))
    nodes3, n3 = fem.assembly.element_nodes(mesh, cell0[mesh.phase[cell0] == GEL], node_map)
    K3 = fem.assembly.scatter(nodes3, el.hex_elastic_ke(mesh.spacing, hooke.gel), (3 * n3, 3 * n3))
    int_dofs = (3 * np.flatnonzero(interior)[:, None] + np.arange(3)).ravel()
    bnd_dofs = (3 * np.flatnonzero(~interior)[:, None] + np.arange(3)).ravel()
    if len(int_dofs):
        K3_inv = spd_inverse(
            K3[int_dofs][:, int_dofs].toarray(),
            "gel-interior elastic block of the gel extension is not positive definite")
        K_ib = K3[int_dofs][:, bnd_dofs].toarray()
        bvals = vals[:, ~interior, :].reshape(n_cells, -1)
        sol = K3_inv @ -(K_ib @ bvals.T)  # (n_int_dofs, nc)
        vals[:, interior, :] = sol.T.reshape(n_cells, -1, 3)

    W[nodes_per_cell.ravel()] = vals.reshape(-1, 3)
    return W
