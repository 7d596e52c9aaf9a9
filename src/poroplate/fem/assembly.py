"""Sparse assembly of the bilinear forms on the structured meshes.

Every mesh is a uniform grid, so one element matrix per phase is computed and
scattered; accumulation is chunked COO -> CSR with int32 indices to keep the
peak memory bounded on the finest micro meshes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import AssemblyError, MaterialError
from ..material import BiotParams, HookeTensor, kelvin_eigenvalues
from . import elements as el

_CHUNK = 2_000_000  # COO entries per accumulation chunk


def vector_dofs(conn: np.ndarray, ncomp: int = 3) -> np.ndarray:
    """(ne, 8*ncomp) dof ids, node-major component order."""
    ne, nn = conn.shape
    dofs = (ncomp * conn[:, :, None] + np.arange(ncomp)[None, None, :]).reshape(ne, nn * ncomp)
    return dofs


def scatter(conn_dofs: np.ndarray, ke_stack, ndof: int) -> sp.csr_matrix:
    """Accumulate element matrices into CSR.

    ke_stack is (ne, k, k) or a callable idx -> (len(idx), k, k) producing the
    element matrices for a chunk of element indices.
    """
    ne, k = conn_dofs.shape
    A = sp.csr_matrix((ndof, ndof))
    per = max(1, _CHUNK // (k * k))
    for start in range(0, ne, per):
        idx = np.arange(start, min(start + per, ne))
        kes = ke_stack(idx) if callable(ke_stack) else ke_stack[idx]
        d = conn_dofs[idx]
        rows = np.repeat(d, k, axis=1).ravel()
        cols = np.tile(d, (1, k)).ravel()
        A = A + sp.coo_matrix(
            (kes.ravel(), (rows.astype(np.int32), cols.astype(np.int32))), shape=(ndof, ndof)
        ).tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


def bilinear_grid_forms(nx: int, ny: int, hx: float, hy: float):
    """(M, K): Q1 mass and stiffness on an nx x ny grid of hx x hy rectangles.

    Nodes are numbered x-fastest, a + (nx + 1) * b.
    """
    N, dN, w, _ = el.quad_qp_data((hx, hy))
    a, b = np.meshgrid(np.arange(nx), np.arange(ny))
    conn = (a + (nx + 1) * b).reshape(-1, 1) + np.array([0, 1, nx + 2, nx + 1])
    n = (nx + 1) * (ny + 1)
    return tuple(scatter(conn, np.broadcast_to(ke, (len(conn), 4, 4)), n) for ke in (
        np.einsum("q,qa,qb->ab", w, N, N), np.einsum("q,qai,qbi->ab", w, dN, dN)))


def _per_phase_stack(phase: np.ndarray, ke_fiber: np.ndarray, ke_gel: np.ndarray):
    table = np.stack([ke_fiber, ke_gel])

    def build(idx):
        return table[phase[idx]]

    return build


def require_coercive(hooke: HookeTensor, tol: float = 1e-12) -> float:
    c0 = hooke.coercivity()
    if c0 <= tol:
        raise MaterialError(f"refusing assembly: elasticity tensor not coercive (c0={c0:.3e})")
    return c0


def assemble_elastic_stiffness(mesh, hooke: HookeTensor) -> sp.csr_matrix:
    """Global stiffness int A e(u):e(v) with the per-phase constant tensors."""
    require_coercive(hooke)
    for name, D in (("fiber", hooke.fiber), ("gel", hooke.gel)):
        if np.min(kelvin_eigenvalues(D)) <= 1e-12:
            raise MaterialError(f"{name} phase tensor not coercive")
    ke_f = el.hex_elastic_ke(mesh.spacing, hooke.fiber)
    ke_g = el.hex_elastic_ke(mesh.spacing, hooke.gel)
    dofs = vector_dofs(mesh.elems)
    return scatter(dofs, _per_phase_stack(mesh.phase, ke_f, ke_g), 3 * mesh.n_nodes)


def assemble_strain_product(mesh, elems_mask=None) -> sp.csr_matrix:
    """Quadratic form of ||e(u)||^2_{L2} (identity tensor on symmetric matrices)."""
    D = np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
    ke = el.hex_elastic_ke(mesh.spacing, D)
    conn = mesh.elems if elems_mask is None else mesh.elems[elems_mask]
    dofs = vector_dofs(conn)
    return scatter(dofs, lambda idx: np.broadcast_to(ke, (len(idx),) + ke.shape), 3 * mesh.n_nodes)


def assemble_vector_gradient_product(mesh) -> sp.csr_matrix:
    """Quadratic form of ||grad u||^2_{L2} for vector fields (componentwise)."""
    kd = el.hex_scalar_diffusion_ke(mesh.spacing, np.eye(3))
    ke = np.zeros((24, 24))
    for c in range(3):
        ke[c::3, c::3] = kd
    dofs = vector_dofs(mesh.elems)
    return scatter(dofs, lambda idx: np.broadcast_to(ke, (len(idx),) + ke.shape), 3 * mesh.n_nodes)


def _node_subspace(mesh, nodes: np.ndarray):
    """Map global node ids to subspace dof ids (identity when nodes is None)."""
    if nodes is None:
        return np.arange(mesh.n_nodes), mesh.n_nodes, None
    sub_of = np.full(mesh.n_nodes, -1, dtype=np.int64)
    sub_of[nodes] = np.arange(len(nodes))
    return nodes, len(nodes), sub_of


def assemble_scalar_mass(mesh, *, elems_mask=None, nodes=None) -> sp.csr_matrix:
    """Scalar mass matrix over the masked elements on the node subspace."""
    ke = el.hex_scalar_mass_ke(mesh.spacing)
    conn = mesh.elems if elems_mask is None else mesh.elems[elems_mask]
    _, nsub, sub_of = _node_subspace(mesh, nodes)
    conn_sub = conn if sub_of is None else sub_of[conn]
    if sub_of is not None and np.any(conn_sub < 0):
        raise AssemblyError("mass assembly touches nodes outside the given subspace")
    return scatter(conn_sub, lambda idx: np.broadcast_to(ke, (len(idx),) + ke.shape), nsub)


def assemble_scalar_diffusion(mesh, K: np.ndarray, *, elems_mask=None, nodes=None,
                              scale: float = 1.0) -> sp.csr_matrix:
    """Diffusion int (K grad p) . grad q over masked elements; K must be SPD."""
    K = np.asarray(K, dtype=float)
    if K.shape != (3, 3) or not np.allclose(K, K.T, atol=1e-12 * max(1.0, abs(K).max())):
        raise MaterialError("diffusion coefficient must be a symmetric 3x3 matrix")
    if np.min(np.linalg.eigvalsh(K)) <= 0.0:
        raise MaterialError("refusing assembly: diffusion coefficient is not positive definite")
    ke = scale * el.hex_scalar_diffusion_ke(mesh.spacing, K)
    conn = mesh.elems if elems_mask is None else mesh.elems[elems_mask]
    _, nsub, sub_of = _node_subspace(mesh, nodes)
    conn_sub = conn if sub_of is None else sub_of[conn]
    if sub_of is not None and np.any(conn_sub < 0):
        raise AssemblyError("diffusion assembly touches nodes outside the given subspace")
    return scatter(conn_sub, lambda idx: np.broadcast_to(ke, (len(idx),) + ke.shape), nsub)


def assemble_divergence_coupling(mesh, *, gel_nodes=None) -> sp.csr_matrix:
    """C[j, dof] = int_gel phi_j div(xi_dof): pressure rows on gel nodes only."""
    gel_mask = mesh.phase == 1
    if not np.any(gel_mask):
        raise AssemblyError("mesh has no gel elements to couple")
    if gel_nodes is None:
        gel_nodes = getattr(mesh, "gel_nodes", None)
    if gel_nodes is None:
        gel_nodes = np.unique(mesh.elems[gel_mask])
    sub_of = np.full(mesh.n_nodes, -1, dtype=np.int64)
    sub_of[gel_nodes] = np.arange(len(gel_nodes))
    conn = mesh.elems[gel_mask]
    p_rows = sub_of[conn]
    if np.any(p_rows < 0):
        raise AssemblyError("gel node list does not cover the gel elements")
    u_cols = vector_dofs(conn)
    ce = el.hex_divergence_ke(mesh.spacing)
    ne = len(conn)
    rows = np.repeat(p_rows, 24, axis=1).ravel()
    cols = np.tile(u_cols, (1, 8)).reshape(ne, 8, 24).reshape(ne, -1).ravel()
    vals = np.broadcast_to(ce, (ne, 8, 24)).reshape(ne, -1).ravel()
    C = sp.coo_matrix((vals, (rows, cols)), shape=(len(gel_nodes), 3 * mesh.n_nodes)).tocsr()
    C.sum_duplicates()
    return C


def assemble_body_force(mesh, f_at) -> np.ndarray:
    """Load vector int f . v with f evaluated at the quadrature points.

    f_at(x, y, z) must return (..., 3) stacked components.
    """
    N, _, wdet, pts = el.hex_qp_data(mesh.spacing)
    conn = mesh.elems
    origins = mesh.nodes[conn[:, 0]]
    qp = origins[:, None, :] + (pts[None, :, :] + 1.0) * 0.5 * np.asarray(mesh.spacing)
    fvals = f_at(qp[..., 0], qp[..., 1], qp[..., 2])
    fe = np.einsum("q,qa,eqi->eai", wdet, N, fvals).reshape(len(conn), 24)
    F = np.zeros(3 * mesh.n_nodes)
    np.add.at(F, vector_dofs(conn).ravel(), fe.ravel())
    return F


def assemble_scalar_source(mesh, h_at, *, elems_mask=None, nodes=None) -> np.ndarray:
    """Load vector int h q over masked elements on the node subspace."""
    N, _, wdet, pts = el.hex_qp_data(mesh.spacing)
    conn = mesh.elems if elems_mask is None else mesh.elems[elems_mask]
    _, nsub, sub_of = _node_subspace(mesh, nodes)
    conn_sub = conn if sub_of is None else sub_of[conn]
    origins = mesh.nodes[conn[:, 0]]
    qp = origins[:, None, :] + (pts[None, :, :] + 1.0) * 0.5 * np.asarray(mesh.spacing)
    hvals = h_at(qp[..., 0], qp[..., 1], qp[..., 2])
    he = np.einsum("q,qa,eq->ea", wdet, N, hvals)
    G = np.zeros(nsub)
    np.add.at(G, conn_sub.ravel(), he.ravel())
    return G


def lumped_weights(mesh, *, elems_mask=None, nodes=None, weight=None) -> np.ndarray:
    """w_i = int phi_i (optionally times weight(x,y,z)) over masked elements."""
    if weight is None:
        return assemble_scalar_source(mesh, lambda x, y, z: np.ones_like(x),
                                      elems_mask=elems_mask, nodes=nodes)
    return assemble_scalar_source(mesh, weight, elems_mask=elems_mask, nodes=nodes)


def micro_pressure_blocks(biot: BiotParams, mesh, eps: float):
    """(mass, diffusion) on the gel pressure space of a micro mesh.

    The diffusion carries the eps^2 K scaling of the micro problem; the mass
    is unscaled (the Biot modulus c multiplies it in the stepper).
    """
    gel_mask = mesh.phase == 1
    M = assemble_scalar_mass(mesh, elems_mask=gel_mask, nodes=mesh.gel_nodes)
    D = assemble_scalar_diffusion(mesh, biot.K, elems_mask=gel_mask, nodes=mesh.gel_nodes,
                                  scale=eps**2)
    return M, D
