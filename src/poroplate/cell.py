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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import AssemblyError
from .fem import elements as el
from .fem.constraints import ConstraintSet, Reducer
from .fem.solvers import inverse
from .geometry import GEL, CellMesh
from .material import BiotParams, HookeTensor, require_admissible

MEMBRANE_KEYS = ((0, 0), (1, 1), (0, 1))

# engineering 6-vectors of the unit in-plane strain states M^ab
_ENG_UNIT = {
    (0, 0): np.array([1.0, 0, 0, 0, 0, 0]),
    (1, 1): np.array([0, 1.0, 0, 0, 0, 0]),
    (0, 1): np.array([0, 0, 0, 0, 0, 1.0]),
}


def cell_constraints(mesh: CellMesh) -> ConstraintSet:
    """Periodic master/slave pairs plus per-component mean-zero functionals."""
    slaves = (3 * mesh.periodic_slaves[:, None] + np.arange(3)).reshape(-1)
    masters = (3 * mesh.periodic_masters[:, None] + np.arange(3)).reshape(-1)
    w_node = fem.lumped_weights(mesh)
    mean_zero = []
    for c in range(3):
        w = np.zeros(3 * mesh.n_nodes)
        block = np.zeros(3 * mesh.n_nodes)
        w[c::3] = w_node
        block[c::3] = 1.0
        mean_zero.append((w, block))
    return ConstraintSet(ndof=3 * mesh.n_nodes, periodic_slaves=slaves,
                         periodic_masters=masters, mean_zero=mean_zero)


def _elem_z_moments(mesh: CellMesh):
    """Per-element integrals of 1, y3, y3^2 (exact for the uniform grid)."""
    vol = mesh.grid.elem_volume
    hz = mesh.spacing[2]
    zc = mesh.nodes[mesh.elems[:, 0], 2] + 0.5 * hz
    return vol * np.ones(mesh.n_elems), vol * zc, vol * (zc**2 + hz**2 / 12.0)


def averaged_voigt(mesh: CellMesh, hooke: HookeTensor):
    """(D0, D1, D2): Voigt matrices of int A, int y3 A, int y3^2 A over the cell."""
    m0, m1, m2 = _elem_z_moments(mesh)
    gel = mesh.phase == GEL
    out = []
    for m in (m0, m1, m2):
        out.append(np.tensordot(np.array([m[~gel].sum(), m[gel].sum()]),
                                np.stack([hooke.fiber, hooke.gel]), axes=1))
    return out


def corrector_rhs(mesh: CellMesh, hooke: HookeTensor):
    """RHS vectors r[key] with r[dof] = int A(y) S_key : e(xi_dof) dy.

    Keys 'm'+(a,b) use S = M^ab, keys 'b'+(a,b) use S = y3 M^ab.
    """
    _, dN, wdet, _ = el.hex_qp_data(mesh.spacing)
    Bq = el.hex_strain_B(dN)  # (nq, 6, 24)
    zq = fem.assembly.qp_points(mesh)[..., 2]  # (ne, nq)
    dofs, ndof = fem.assembly.element_dofs(mesh, ncomp=3)
    out = {}
    D = np.stack([hooke.fiber, hooke.gel])[mesh.phase]  # (ne, 6, 6)
    for key in MEMBRANE_KEYS:
        sig = np.einsum("eij,j->ei", D, _ENG_UNIT[key])  # (ne, 6)
        fe_m = np.einsum("q,qia,ei->ea", wdet, Bq, sig)  # constant-in-z part
        fe_b = np.einsum("q,eq,qia,ei->ea", wdet, zq, Bq, sig)
        out[("m",) + key] = fem.assembly.scatter_vector(dofs, fe_m, ndof)
        out[("b",) + key] = fem.assembly.scatter_vector(dofs, fe_b, ndof)
    return out


@dataclass
class CorrectorSet:
    """Nodal corrector fields chi_m^ab, chi_b^ab on the cell mesh (keys 11, 22, 12)."""

    mesh: CellMesh
    fields: dict  # ('m'|'b', a, b) -> (n_nodes, 3)

    def field(self, kind: str, a: int, b: int) -> np.ndarray:
        if (a, b) == (1, 0):
            a, b = 0, 1
        return self.fields[(kind, a, b)]

    def flat(self, kind: str, a: int, b: int) -> np.ndarray:
        return self.field(kind, a, b).reshape(-1)


def solve_correctors(mesh: CellMesh, hooke: HookeTensor, tol: float = 1e-10) -> CorrectorSet:
    """Solve the six cell problems in the periodic mean-zero space (CG)."""
    K = fem.assemble_elastic_stiffness(mesh, hooke)
    cons = Reducer(cell_constraints(mesh))
    rhs = corrector_rhs(mesh, hooke)
    fields = {}
    for key, r in rhs.items():
        x = fem.solve_spd(K, -r, cons, tol=tol)
        fields[key] = x.reshape(-1, 3)
    return CorrectorSet(mesh=mesh, fields=fields)


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

    def tensor(self, which: str) -> np.ndarray:
        """Full 2x2x2x2 array of one coefficient family."""
        M = {"a": self.a_eng, "b": self.b_eng, "c": self.c_eng}[which]
        t = np.zeros((2, 2, 2, 2))
        idx = {(0, 0): 0, (1, 1): 1, (0, 1): 2, (1, 0): 2}
        for ab, I in idx.items():
            for cd, J in idx.items():
                t[ab + cd] = M[I, J]
        return t

    def kelvin_block(self, sign: float = 1.0) -> np.ndarray:
        """Symmetric 6x6 of [[a, sign*b^T], [sign*b, c]] in the orthonormal basis.

        sign=-1 gives the energy quadratic form on (membrane strain, curvature);
        positive definiteness is invariant under the sign of the off block.
        """
        S = np.diag([1.0, 1.0, np.sqrt(2.0)])
        blk = np.zeros((6, 6))
        blk[:3, :3] = S @ self.a_eng @ S
        blk[3:, 3:] = S @ self.c_eng @ S
        blk[:3, 3:] = sign * S @ self.b_eng.T @ S
        blk[3:, :3] = sign * S @ self.b_eng @ S
        return blk

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.kelvin_block(-1.0)).min())


def compute_homogenized(mesh: CellMesh, hooke: HookeTensor, correctors: CorrectorSet) -> HomogenizedTensor:
    """Coefficient formulas evaluated with the 1/|Ycell| normalization.

    Each entry is the full corrected-strain energy product, which agrees with
    the moment formulas at the discrete solution and is symmetric by
    construction.
    """
    if correctors.mesh is not mesh and correctors.mesh.n_nodes != mesh.n_nodes:
        raise AssemblyError("correctors were solved on a different cell mesh")
    K = fem.assemble_elastic_stiffness(mesh, hooke)
    rhs = corrector_rhs(mesh, hooke)
    D0, D1, D2 = averaged_voigt(mesh, hooke)
    vol = mesh.volume

    def gram(kind_x, kind_y, Dxy):
        G = np.zeros((3, 3))
        for I, kx in enumerate(MEMBRANE_KEYS):
            cx = correctors.flat(kind_x, *kx)
            rx = rhs[(kind_x,) + kx]
            for J, ky in enumerate(MEMBRANE_KEYS):
                cy = correctors.flat(kind_y, *ky)
                ry = rhs[(kind_y,) + ky]
                G[I, J] = (
                    _ENG_UNIT[kx] @ Dxy @ _ENG_UNIT[ky]
                    + rx @ cy
                    + ry @ cx
                    + cx @ (K @ cy)
                ) / vol
        return G

    a = gram("m", "m", D0)
    b = gram("b", "m", D1)
    c = gram("b", "b", D2)
    return HomogenizedTensor(a_eng=a, b_eng=b, c_eng=c)


class PressureCellOperator:
    """Inverted periodic cell elasticity with the gel divergence coupling.

    Carries everything the macro solver and the two-scale oracle consume: the
    reduced stiffness K_red and the inverse of its mean-pinned extension, the
    dense response map N = C K^-1 C^T on gel pressure dofs, the gel
    mass/diffusion blocks, and the weight vectors int phi and int y3 phi over
    the gel.
    """

    def __init__(self, mesh: CellMesh, hooke: HookeTensor, biot: BiotParams):
        require_admissible(hooke, biot)
        self.mesh = mesh
        self.biot = biot
        self.cell_volume = mesh.volume
        self.gel_nodes = mesh.gel_nodes()
        if len(self.gel_nodes) == 0:
            raise AssemblyError("cell mesh has no gel phase; pressure operator undefined")
        self.reducer = Reducer(cell_constraints(mesh))
        node_map = self.reducer.node_map(3)   # periodic slaves -> masters: sums give P^T K P
        self.K_red = fem.assemble_elastic_stiffness(mesh, hooke, node_map)
        # inverse of the extended matrix [[K, W^T], [W, 0]] pinning the component means
        nred = self.reducer.n_reduced
        W = np.stack([w for (w, _, _) in self.reducer.mean_zero])
        ext = np.zeros((nred + len(W), nred + len(W)))
        ext[:nred, :nred] = self.K_red.toarray()
        ext[:nred, nred:] = W.T
        ext[nred:, :nred] = W
        self._ext_inv = inverse(ext, "extended cell stiffness [[K, W^T], [W, 0]] is singular")
        self._nred = nred
        self._nmult = len(W)

        self.C = fem.assemble_divergence_coupling(mesh, gel_nodes=self.gel_nodes)
        self.C_red = fem.assemble_divergence_coupling(mesh, gel_nodes=self.gel_nodes,
                                                      node_map=node_map)
        gel_mask = mesh.phase == GEL
        self.M_gel = fem.assemble_scalar_mass(mesh, elems_mask=gel_mask, nodes=self.gel_nodes)
        self.D_gel = fem.assemble_scalar_diffusion(mesh, biot.K, elems_mask=gel_mask,
                                                   nodes=self.gel_nodes)
        self.w = fem.lumped_weights(mesh, elems_mask=gel_mask, nodes=self.gel_nodes)
        self.w3 = fem.lumped_weights(mesh, elems_mask=gel_mask, nodes=self.gel_nodes,
                                     weight=lambda x, y, z: z)
        # response map N = C K^-1 C^T (no alpha / |Ycell| factors)
        rhs = np.zeros((nred + len(W), self.C_red.shape[0]))
        rhs[:nred] = self.C_red.T.toarray()
        sol = (self._ext_inv @ rhs)[:nred]
        self.U_C = sol  # reduced responses K^-1 C^T per gel dof
        self.N = np.asarray(self.C_red @ sol)
        self.N = 0.5 * (self.N + self.N.T)

    @property
    def n_gel(self) -> int:
        return len(self.gel_nodes)

    def solve_reduced(self, rhs_red: np.ndarray) -> np.ndarray:
        """Mean-zero periodic solve of the cell elasticity for a reduced rhs.

        Accepts a vector or a (n_red, k) block of right-hand sides.
        """
        rhs_red = np.asarray(rhs_red, dtype=float)
        pad = np.zeros((self._nmult,) + rhs_red.shape[1:])
        ext = np.concatenate([rhs_red, pad], axis=0)
        return (self._ext_inv @ ext)[: self._nred]

    def solve_pressure_corrector(self, p0_cell: np.ndarray) -> np.ndarray:
        """u_p field for a gel pressure: RHS (1/|Ycell|) int_gel alpha p0 div v."""
        p0 = np.asarray(p0_cell, dtype=float)
        if p0.shape != (self.n_gel,):
            raise AssemblyError(f"pressure field must have {self.n_gel} gel dofs, got {p0.shape}")
        scale = self.biot.alpha / self.cell_volume
        rhs_red = scale * (self.C_red.T @ p0)
        u_red = self.solve_reduced(rhs_red)
        return self.reducer.expand(u_red).reshape(-1, 3)


@dataclass
class MomentTable:
    """Divergence moments of the correctors."""

    scalars: dict  # ('m'|'b', a, b) -> float, int_gel div chi dy
    nodal: dict    # ('m'|'b', a, b) -> (n_gel,) vector C @ chi

    def scalar(self, kind: str, a: int, b: int) -> float:
        if (a, b) == (1, 0):
            a, b = 0, 1
        return self.scalars[(kind, a, b)]

    def vec(self, kind: str, a: int, b: int) -> np.ndarray:
        if (a, b) == (1, 0):
            a, b = 0, 1
        return self.nodal[(kind, a, b)]


def divergence_moments(correctors: CorrectorSet, op: PressureCellOperator) -> MomentTable:
    """int_gel div_y(chi) dy per corrector, as a scalar and per gel dof."""
    scalars, nodal = {}, {}
    for key, field in correctors.fields.items():
        d = op.C @ field.reshape(-1)
        nodal[key] = d
        scalars[key] = float(d.sum())
    return MomentTable(scalars=scalars, nodal=nodal)
