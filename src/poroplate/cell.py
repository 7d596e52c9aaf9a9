"""Periodicity-cell corrector problems and homogenized plate coefficients.

Conventions (fixed here, used verbatim by the macro solver so that the
corrector-eliminated plate system is the exact reduction of the two-scale
problem):

* membrane corrector chi_m solves   int A (M^ab + e_y(chi)) : e_y(v) dy = 0,
* bending corrector  chi_b solves   int A (y3 M^ab + e_y(chi)) : e_y(v) dy = 0,
* the macroscopic strain is E(W) = sum (m_ab - y3 k_ab) M^ab with curvature
  k = Hess(W3), so the corrected microscopic response to (m, k) uses
  u_d = sum m_ab chi_m^ab - k_ab chi_b^ab,
* the pressure corrector of the exported operator solves
  int A e_y(u_p) : e_y(v) dy = (1/|Ycell|) int_gel alpha p0 div_y(v) dy.

All cell problems live in the periodic mean-zero space; |Ycell| = 2.

A `CellProblem` is that space for one cell mesh and elasticity tensor: the
periodic node map (i, j, k) -> (i mod n, j mod n, k) of `periodic_node_map`
with its `Reducer`, the component means on the reduced dofs, the stiffness
K_red assembled straight onto the node map, and, built on first use, the six
corrector right-hand sides assembled on it and the averaged Voigt matrices
D0-D2.  The correctors carry theirs, so the homogenized tensor assembles
nothing and forms its Gram products on reduced vectors; the pressure cell
operator, the two-scale oracle and the norm-equivalence spectrum each build
their own.

`solve_cell` is the one cell stage of the CLI, the acceptance suite and the
convergence study.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import fem
from .errors import AssemblyError
from .fem import elements as el
from .fem.constraints import Reducer, node_dof_map
from .fem.solvers import jacobi, spd_inverse
from .geometry import GEL, BrickMesh
from .material import BiotParams, HookeTensor, require_admissible

MEMBRANE_KEYS = ((0, 0), (1, 1), (0, 1))

# engineering 6-vectors of the unit in-plane strain states M^ab
_ENG_UNIT = {
    (0, 0): np.array([1.0, 0, 0, 0, 0, 0]),
    (1, 1): np.array([0, 1.0, 0, 0, 0, 0]),
    (0, 1): np.array([0, 0, 0, 0, 0, 1.0]),
}


def _key(kind: str, a: int, b: int) -> tuple:
    """The stored key of a corrector or moment: (1, 0) is (0, 1) by symmetry."""
    return (kind,) + ((0, 1) if (a, b) == (1, 0) else (a, b))


def periodic_node_map(mesh: BrickMesh) -> np.ndarray:
    """Reduced node of every node of the periodic cell: (i, j, k) -> (i mod nx, j mod ny, k).

    The reduced node i + nx (j + ny k) is first met at its copy with i < nx,
    j < ny, so the reduced nodes keep the mesh order of their first copies.
    """
    nx, ny, nz = mesh.nelems
    k, j, i = np.indices((nz + 1, ny + 1, nx + 1))
    return (i % nx + nx * (j % ny + ny * k)).ravel()


def _elem_z_moments(mesh: BrickMesh):
    """Per-element integrals of 1, y3, y3^2 (exact for the uniform grid)."""
    vol = mesh.elem_volume
    hz = mesh.spacing[2]
    zc = mesh.nodes[mesh.elems[:, 0], 2] + 0.5 * hz
    return vol * np.ones(mesh.n_elems), vol * zc, vol * (zc**2 + hz**2 / 12.0)


def averaged_voigt(mesh: BrickMesh, hooke: HookeTensor):
    """(D0, D1, D2): Voigt matrices of int A, int y3 A, int y3^2 A over the cell."""
    m0, m1, m2 = _elem_z_moments(mesh)
    gel = mesh.phase == GEL
    out = []
    for m in (m0, m1, m2):
        out.append(np.tensordot(np.array([m[~gel].sum(), m[gel].sum()]),
                                np.stack([hooke.fiber, hooke.gel]), axes=1))
    return out


def corrector_rhs(mesh: BrickMesh, hooke: HookeTensor, node_map: np.ndarray):
    """RHS vectors r[key] with r[dof] = int A(y) S_key : e(xi_dof) dy.

    Keys 'm'+(a,b) use S = M^ab, keys 'b'+(a,b) use S = y3 M^ab.  The vectors
    are summed on the node ids of `node_map` (3 dofs per node): on the
    periodic one they are the reduced right-hand sides P^T r.
    """
    _, dN, wdet, _ = el.qp_data(mesh.spacing)
    Bq = el.strain_B(dN)  # (nq, 6, 24)
    zq = fem.assembly.qp_points(mesh)[..., 2]  # (ne, nq)
    nodes, n = fem.assembly.element_nodes(mesh, node_map=node_map)
    dofs = fem.assembly.vector_dofs(nodes)
    out = {}
    D = np.stack([hooke.fiber, hooke.gel])[mesh.phase]  # (ne, 6, 6)
    for key in MEMBRANE_KEYS:
        sig = np.einsum("eij,j->ei", D, _ENG_UNIT[key])  # (ne, 6)
        fe_m = np.einsum("q,qia,ei->ea", wdet, Bq, sig)  # constant-in-z part
        fe_b = np.einsum("q,eq,qia,ei->ea", wdet, zq, Bq, sig)
        out[("m",) + key] = fem.assembly.scatter_vector(dofs, fe_m, 3 * n)
        out[("b",) + key] = fem.assembly.scatter_vector(dofs, fe_b, 3 * n)
    return out


class CellProblem:
    """The periodic mean-zero cell elasticity problem of one mesh and tensor.

    `node_map` is `periodic_node_map`, `reducer` its numbering of 3 dofs per
    node, and K_red = P^T K P is assembled on it.  Row c of `means` (3, n_red)
    is the mean of component c over the cell, kron(w, I_3) / sum(w) with w the
    lumped nodal weights summed onto the reduced nodes.  `r_red` (every
    `corrector_rhs` vector on the node map, P^T r) and `voigt` (D0, D1, D2 of
    `averaged_voigt`) are built on first use.
    """

    def __init__(self, mesh: BrickMesh, hooke: HookeTensor):
        self.mesh = mesh
        self.hooke = hooke
        self.node_map = periodic_node_map(mesh)
        self.reducer = Reducer(node_dof_map(self.node_map, 3))
        self.K_red = fem.assemble_elastic_stiffness(mesh, hooke, self.node_map)
        w = np.bincount(self.node_map, weights=fem.lumped_weights(mesh))
        self.means = np.kron(w, np.eye(3)) / w.sum()

    @cached_property
    def r_red(self) -> dict:
        return corrector_rhs(self.mesh, self.hooke, self.node_map)

    @cached_property
    def voigt(self):
        return averaged_voigt(self.mesh, self.hooke)


@dataclass
class CorrectorSet:
    """Nodal corrector fields chi_m^ab, chi_b^ab (keys 11, 22, 12) of one cell problem."""

    problem: CellProblem
    fields: dict  # ('m'|'b', a, b) -> (n_nodes, 3)

    def field(self, kind: str, a: int, b: int) -> np.ndarray:
        return self.fields[_key(kind, a, b)]


def solve_correctors(mesh: BrickMesh, hooke: HookeTensor, tol: float = 1e-10) -> CorrectorSet:
    """Solve the six cell problems K_red c = -r_red in the periodic mean-zero space.

    Jacobi-CG runs on the reduced dofs with the constant fields, the kernel
    of K_red, projected out of its residual; each solution is then shifted by
    a constant field to mean zero.
    """
    problem = CellProblem(mesh, hooke)

    def project(v):
        v = v.reshape(-1, 3)
        return (v - v.mean(axis=0)).ravel()

    precond = jacobi(problem.K_red)
    fields = {}
    for key, r in problem.r_red.items():
        # fem.solvers.pcg is looked up per call, so an instrumented pcg sees these solves
        x, _ = fem.solvers.pcg(problem.K_red, -r, tol=tol, project=project, precond=precond)
        x = (x.reshape(-1, 3) - problem.means @ x).ravel()
        fields[key] = problem.reducer.expand(x).reshape(-1, 3)
    return CorrectorSet(problem=problem, fields=fields)


def eng_to_kelvin(M: np.ndarray) -> np.ndarray:
    """A 3x3 matrix on engineering strains (e11, e22, 2 e12) in the orthonormal
    basis (e11, e22, sqrt(2) e12): S M S with S = diag(1, 1, sqrt(2))."""
    S = np.diag([1.0, 1.0, np.sqrt(2.0)])
    return S @ M @ S


@dataclass(frozen=True)
class HomogenizedTensor:
    """Membrane/coupling/bending plate coefficients.

    a_eng, b_eng, c_eng are 3x3 matrices in the engineering basis
    (e11, e22, 2e12); b rows are indexed by curvature, columns by membrane
    strain.  The plate form reads
    A^hom E(W):E(V) = m_W.a.m_V - k_W.b.m_V - m_W.b^T.k_V + k_W.c.k_V .
    Units: a ~ stress, b ~ stress * length, c ~ stress * length^2 in
    cell-normalized coordinates.
    """

    a_eng: np.ndarray
    b_eng: np.ndarray
    c_eng: np.ndarray

    def kelvin_block(self, sign: float = 1.0) -> np.ndarray:
        """Symmetric 6x6 of [[a, sign*b^T], [sign*b, c]] in the orthonormal basis.

        sign=-1 gives the energy quadratic form on (membrane strain, curvature);
        positive definiteness is invariant under the sign of the off block.
        """
        blk = np.zeros((6, 6))
        blk[:3, :3] = eng_to_kelvin(self.a_eng)
        blk[3:, 3:] = eng_to_kelvin(self.c_eng)
        blk[:3, 3:] = sign * eng_to_kelvin(self.b_eng.T)
        blk[3:, :3] = sign * eng_to_kelvin(self.b_eng)
        return blk

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.kelvin_block(-1.0)).min())


def compute_homogenized(mesh: BrickMesh, hooke: HookeTensor, correctors: CorrectorSet) -> HomogenizedTensor:
    """Coefficient formulas evaluated with the 1/|Ycell| normalization.

    Each entry is the full corrected-strain energy product, which agrees with
    the moment formulas at the discrete solution and is symmetric by
    construction.  Nothing is assembled: K_red, the reduced right-hand sides
    and D0-D2 come from the correctors' `CellProblem`, and every product runs
    on reduced vectors (r.c = r_red.c_red, c.K c = c_red.K_red c_red).
    """
    problem = correctors.problem
    if problem.mesh is not mesh and not (np.array_equal(problem.mesh.nodes, mesh.nodes)
                                         and np.array_equal(problem.mesh.phase, mesh.phase)):
        raise AssemblyError("correctors were solved on a different cell mesh")
    if hooke is not problem.hooke and not all(
            np.array_equal(getattr(hooke, ph), getattr(problem.hooke, ph)) for ph in ("fiber", "gel")):
        raise AssemblyError("correctors were solved with a different elasticity tensor")
    rhs = problem.r_red
    D0, D1, D2 = problem.voigt
    chi = {key: problem.reducer.restrict(f.reshape(-1)) for key, f in correctors.fields.items()}
    K_chi = {key: problem.K_red @ v for key, v in chi.items()}
    vol = mesh.volume

    def gram(kind_x, kind_y, Dxy):
        G = np.zeros((3, 3))
        for I, kx in enumerate(MEMBRANE_KEYS):
            x = (kind_x,) + kx
            for J, ky in enumerate(MEMBRANE_KEYS):
                y = (kind_y,) + ky
                G[I, J] = (
                    _ENG_UNIT[kx] @ Dxy @ _ENG_UNIT[ky]
                    + rhs[x] @ chi[y]
                    + rhs[y] @ chi[x]
                    + chi[x] @ K_chi[y]
                ) / vol
        return G

    a = gram("m", "m", D0)
    b = gram("b", "m", D1)
    c = gram("b", "b", D2)
    return HomogenizedTensor(a_eng=a, b_eng=b, c_eng=c)


class PressureCellOperator:
    """Inverted periodic cell elasticity with the gel divergence coupling.

    Carries everything the macro solver and the two-scale oracle consume: its
    own `CellProblem` (`problem`; `reducer` and `K_red` are read from it), the
    inverse of the mean-pinned stiffness K_red + W^T W, the responses
    U_C = K^-1 C^T and the dense response map N = C K^-1 C^T on gel pressure
    dofs, the gel mass/diffusion blocks, and the weight vectors int phi and
    int y3 phi over the gel.

    Row k of W is the component mean `problem.means[k]` scaled by
    sqrt(c_k . diag K), with c_k the constant field of component k, so that
    W^T W adds about the mean diagonal of K along c_k.  K_red + W^T W is SPD,
    and for a right-hand side orthogonal to the constant fields (every
    right-hand side here is a form in e_y(v) or div_y(v)) its solution is the
    mean-zero solution of K_red u = f (Bochev & Lehoucq, SIAM Rev. 47, 2005).
    """

    def __init__(self, mesh: BrickMesh, hooke: HookeTensor, biot: BiotParams):
        require_admissible(hooke, biot)
        self.mesh = mesh
        self.biot = biot
        self.cell_volume = mesh.volume
        self.gel_nodes = mesh.gel_nodes
        if len(self.gel_nodes) == 0:
            raise AssemblyError("cell mesh has no gel phase; pressure operator undefined")
        self.problem = CellProblem(mesh, hooke)
        self.reducer = self.problem.reducer
        self.K_red = self.problem.K_red
        diag = self.K_red.diagonal()
        W = np.sqrt(diag.reshape(-1, 3).sum(axis=0))[:, None] * self.problem.means
        self._K_inv = spd_inverse(self.K_red.toarray() + W.T @ W,
                                  "mean-pinned cell stiffness K + W^T W is not positive definite")

        self.C_red = fem.assemble_divergence_coupling(mesh, gel_nodes=self.gel_nodes,
                                                      node_map=self.problem.node_map)
        gel_mask = mesh.phase == GEL
        self.M_gel = fem.assemble_scalar_mass(mesh, elems_mask=gel_mask, nodes=self.gel_nodes)
        self.D_gel = fem.assemble_scalar_diffusion(mesh, biot.K, elems_mask=gel_mask,
                                                   nodes=self.gel_nodes)
        self.w = fem.lumped_weights(mesh, elems_mask=gel_mask, nodes=self.gel_nodes)
        self.w3 = fem.lumped_weights(mesh, elems_mask=gel_mask, nodes=self.gel_nodes,
                                     weight=lambda x, y, z: z)
        # reduced responses K^-1 C^T per gel dof and the response map
        # N = C K^-1 C^T (no alpha / |Ycell| factors)
        self.U_C = self._K_inv @ self.C_red.T.toarray()
        self.N = np.asarray(self.C_red @ self.U_C)
        self.N = 0.5 * (self.N + self.N.T)

    @property
    def n_gel(self) -> int:
        return len(self.gel_nodes)

    def solve_reduced(self, rhs_red: np.ndarray) -> np.ndarray:
        """Mean-zero periodic solve of the cell elasticity for a reduced rhs
        orthogonal to the constant fields.

        Accepts a vector or a (n_red, k) block of right-hand sides.
        """
        return self._K_inv @ np.asarray(rhs_red, dtype=float)


@dataclass
class MomentTable:
    """Divergence moments of the correctors."""

    nodal: dict    # ('m'|'b', a, b) -> (n_gel,) vector C @ chi

    def scalar(self, kind: str, a: int, b: int) -> float:
        """int_gel div chi dy."""
        return float(self.vec(kind, a, b).sum())

    def vec(self, kind: str, a: int, b: int) -> np.ndarray:
        return self.nodal[_key(kind, a, b)]


def divergence_moments(correctors: CorrectorSet, op: PressureCellOperator) -> MomentTable:
    """int_gel div_y(chi) dy per corrector, as a scalar and per gel dof.

    The coupling acts on the reduced dofs (C P), and a periodic corrector
    field is P of its reduced coefficients.
    """
    return MomentTable(nodal={key: op.C_red @ op.reducer.restrict(field.reshape(-1))
                              for key, field in correctors.fields.items()})


class CellQuantities(NamedTuple):
    """Everything the plate side reads of one cell: see `solve_cell`."""

    correctors: CorrectorSet
    hom: HomogenizedTensor
    op: PressureCellOperator
    moments: MomentTable


def solve_cell(mesh: BrickMesh, hooke: HookeTensor, biot: BiotParams, tol: float) -> CellQuantities:
    """The cell problems of one cell mesh: the correctors (CG to `tol`), the
    homogenized tensor, the pressure cell operator and the divergence moments."""
    correctors = solve_correctors(mesh, hooke, tol=tol)
    hom = compute_homogenized(mesh, hooke, correctors)
    op = PressureCellOperator(mesh, hooke, biot)
    return CellQuantities(correctors, hom, op, divergence_moments(correctors, op))
