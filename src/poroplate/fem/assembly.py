"""Sparse assembly of the bilinear forms on the structured meshes.

Every mesh is a uniform grid, so each operator is one element matrix (one per
phase, or per label) summed into a global array.  That sum is made here only:
`scatter` for matrices and `scatter_vector` for vectors, on the element dof
ids of `element_dofs` and the quadrature points of `qp_points`.  A negative
dof id marks an eliminated dof (a clamped plate dof) and its entries are
dropped.  Matrices are accumulated as chunked COO -> CSR with int32 indices
to keep the peak memory bounded on the finest micro meshes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import AssemblyError, MaterialError
from ..material import BiotParams, HookeTensor
from . import elements as el

_CHUNK = 2_000_000  # COO entries per accumulation chunk


def vector_dofs(conn: np.ndarray, ncomp: int = 3) -> np.ndarray:
    """(ne, 8*ncomp) dof ids, node-major component order."""
    ne, nn = conn.shape
    dofs = (ncomp * conn[:, :, None] + np.arange(ncomp)[None, None, :]).reshape(ne, nn * ncomp)
    return dofs


def element_dofs(mesh, elems_mask=None, nodes=None, ncomp: int = 1):
    """(dofs (ne, 8*ncomp), ndof) of the masked elements on a node subset.

    With `nodes` given, node nodes[i] is renumbered i and the masked elements
    must touch no other node; otherwise every mesh node keeps its id.
    """
    conn = mesh.elems if elems_mask is None else mesh.elems[elems_mask]
    if nodes is None:
        return vector_dofs(conn, ncomp), ncomp * mesh.n_nodes
    sub_of = np.full(mesh.n_nodes, -1, dtype=np.int64)
    sub_of[nodes] = np.arange(len(nodes))
    conn = sub_of[conn]
    if np.any(conn < 0):
        raise AssemblyError("masked elements touch nodes outside the given node subset")
    return vector_dofs(conn, ncomp), ncomp * len(nodes)


def qp_points(mesh, elems_mask=None) -> np.ndarray:
    """(ne, nq, 3) physical quadrature points of the masked elements."""
    pts = el.hex_qp_data(mesh.spacing)[3]
    conn = mesh.elems if elems_mask is None else mesh.elems[elems_mask]
    origins = mesh.nodes[conn[:, 0]]
    return origins[:, None, :] + (pts[None, :, :] + 1.0) * 0.5 * np.asarray(mesh.spacing)


def scatter(row_dofs: np.ndarray, ke: np.ndarray, shape, col_dofs=None,
            phase=None) -> sp.csr_matrix:
    """Sum element matrices into a CSR matrix of the given shape.

    Element e adds ke (or ke[phase[e]] when a label per element is given) at
    rows row_dofs[e] and columns col_dofs[e] (row_dofs[e] by default); entries
    with a negative row or column id are dropped.
    """
    col_dofs = row_dofs if col_dofs is None else col_dofs
    (ne, kr), kc = row_dofs.shape, col_dofs.shape[1]
    drop = np.any(row_dofs < 0) or np.any(col_dofs < 0)
    A = None
    per = max(1, _CHUNK // (kr * kc))
    for start in range(0, ne, per):
        idx = slice(start, min(start + per, ne))
        rows = np.broadcast_to(row_dofs[idx, :, None], (idx.stop - start, kr, kc))
        cols = np.broadcast_to(col_dofs[idx, None, :], rows.shape)
        vals = np.broadcast_to(ke if phase is None else ke[phase[idx]], rows.shape)
        if drop:
            keep = (rows >= 0) & (cols >= 0)
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        part = sp.csr_matrix(
            (vals.ravel(), (rows.astype(np.int32).ravel(), cols.astype(np.int32).ravel())),
            shape=shape)
        A = part if A is None else A + part
    if A is None:
        return sp.csr_matrix(shape)
    A.eliminate_zeros()
    return A


def scatter_vector(dofs: np.ndarray, fe: np.ndarray, n: int) -> np.ndarray:
    """Sum element vectors fe (ne, k) at dofs (ne, k) into a length-n vector.

    Entries with a negative id are dropped; the sum runs in input order.
    """
    dofs, fe = dofs.ravel(), fe.ravel()
    if np.any(dofs < 0):
        keep = dofs >= 0
        dofs, fe = dofs[keep], fe[keep]
    return np.bincount(dofs, weights=fe, minlength=n)


def bilinear_grid_forms(nx: int, ny: int, hx: float, hy: float):
    """(M, K): Q1 mass and stiffness on an nx x ny grid of hx x hy rectangles.

    Nodes are numbered x-fastest, a + (nx + 1) * b.
    """
    N, dN, w, _ = el.quad_qp_data((hx, hy))
    a, b = np.meshgrid(np.arange(nx), np.arange(ny))
    conn = (a + (nx + 1) * b).reshape(-1, 1) + np.array([0, 1, nx + 2, nx + 1])
    n = (nx + 1) * (ny + 1)
    return tuple(scatter(conn, ke, (n, n)) for ke in (
        np.einsum("q,qa,qb->ab", w, N, N), np.einsum("q,qai,qbi->ab", w, dN, dN)))


def require_coercive(hooke: HookeTensor, tol: float = 1e-12) -> float:
    c0 = hooke.coercivity()
    if c0 <= tol:
        raise MaterialError(f"refusing assembly: elasticity tensor not coercive (c0={c0:.3e})")
    return c0


def assemble_elastic_stiffness(mesh, hooke: HookeTensor) -> sp.csr_matrix:
    """Global stiffness int A e(u):e(v) with the per-phase constant tensors."""
    require_coercive(hooke)
    ke = np.stack([el.hex_elastic_ke(mesh.spacing, D) for D in (hooke.fiber, hooke.gel)])
    dofs, n = element_dofs(mesh, ncomp=3)
    return scatter(dofs, ke, (n, n), phase=mesh.phase)


def assemble_strain_product(mesh, elems_mask=None) -> sp.csr_matrix:
    """Quadratic form of ||e(u)||^2_{L2} (identity tensor on symmetric matrices)."""
    ke = el.hex_elastic_ke(mesh.spacing, np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.5]))
    dofs, n = element_dofs(mesh, elems_mask, ncomp=3)
    return scatter(dofs, ke, (n, n))


def assemble_vector_gradient_product(mesh) -> sp.csr_matrix:
    """Quadratic form of ||grad u||^2_{L2} for vector fields (componentwise)."""
    kd = el.hex_scalar_diffusion_ke(mesh.spacing, np.eye(3))
    ke = np.zeros((24, 24))
    for c in range(3):
        ke[c::3, c::3] = kd
    dofs, n = element_dofs(mesh, ncomp=3)
    return scatter(dofs, ke, (n, n))


def assemble_scalar_mass(mesh, *, elems_mask=None, nodes=None) -> sp.csr_matrix:
    """Scalar mass matrix over the masked elements on the node subspace."""
    dofs, n = element_dofs(mesh, elems_mask, nodes)
    return scatter(dofs, el.hex_scalar_mass_ke(mesh.spacing), (n, n))


def assemble_scalar_diffusion(mesh, K: np.ndarray, *, elems_mask=None, nodes=None,
                              scale: float = 1.0) -> sp.csr_matrix:
    """Diffusion int (K grad p) . grad q over masked elements; K must be SPD."""
    K = np.asarray(K, dtype=float)
    if K.shape != (3, 3) or not np.allclose(K, K.T, atol=1e-12 * max(1.0, abs(K).max())):
        raise MaterialError("diffusion coefficient must be a symmetric 3x3 matrix")
    if np.min(np.linalg.eigvalsh(K)) <= 0.0:
        raise MaterialError("refusing assembly: diffusion coefficient is not positive definite")
    dofs, n = element_dofs(mesh, elems_mask, nodes)
    return scatter(dofs, scale * el.hex_scalar_diffusion_ke(mesh.spacing, K), (n, n))


def assemble_divergence_coupling(mesh, *, gel_nodes) -> sp.csr_matrix:
    """C[j, dof] = int_gel phi_j div(xi_dof): pressure rows on gel nodes only."""
    gel_mask = mesh.phase == 1
    if not np.any(gel_mask):
        raise AssemblyError("mesh has no gel elements to couple")
    p_rows, n_p = element_dofs(mesh, gel_mask, gel_nodes)
    u_cols, n_u = element_dofs(mesh, gel_mask, ncomp=3)
    return scatter(p_rows, el.hex_divergence_ke(mesh.spacing), (n_p, n_u), col_dofs=u_cols)


def assemble_body_force(mesh, f_at) -> np.ndarray:
    """Load vector int f . v with f evaluated at the quadrature points.

    f_at(x, y, z) must return (..., 3) stacked components.
    """
    N, _, wdet, _ = el.hex_qp_data(mesh.spacing)
    qp = qp_points(mesh)
    fe = np.einsum("q,qa,eqi->eai", wdet, N, f_at(qp[..., 0], qp[..., 1], qp[..., 2]))
    dofs, n = element_dofs(mesh, ncomp=3)
    return scatter_vector(dofs, fe, n)


def assemble_scalar_source(mesh, h_at, *, elems_mask=None, nodes=None) -> np.ndarray:
    """Load vector int h q over masked elements on the node subspace."""
    N, _, wdet, _ = el.hex_qp_data(mesh.spacing)
    qp = qp_points(mesh, elems_mask)
    he = np.einsum("q,qa,eq->ea", wdet, N, h_at(qp[..., 0], qp[..., 1], qp[..., 2]))
    dofs, n = element_dofs(mesh, elems_mask, nodes)
    return scatter_vector(dofs, he, n)


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
