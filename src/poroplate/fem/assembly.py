"""Sparse assembly of the bilinear forms on the structured meshes.

Every mesh is a uniform grid, so each operator is one element matrix (one per
phase, or per label) summed into a global array.  That sum is made here only:
`scatter` for matrices and `scatter_vector` for vectors, on the element node
ids of `element_nodes` (or the scalar dof ids of `element_dofs`) and the
quadrature points of `qp_points`.  A negative id marks an eliminated node or
dof (a clamped node, a clamped plate dof) and its entries are dropped.

`scatter` sums on node pairs: an element matrix with b x b' blocks per node
pair (3 x 3 for elasticity, 1 x 3 for the divergence coupling) is summed
block-wise into the node-pair pattern and expanded to a canonical CSR matrix
with int32 indices; a scalar form already has one entry per node pair and
goes through a plain COO -> CSR.  On a node map that sends every node to its
reduced node, -1 where clamped (`micro.clamp_node_map`,
`cell.periodic_node_map`; see `fem.constraints`), the sum is P^T A P on the
reduced dofs, assembled directly without the full matrix.

Where element blocks cancel, the sum leaves round-off instead of a zero.  At
most k elements of a k-node brick or rectangle grid (k = 2^d) share a node
pair, so an entry is stored only if it lies outside the rounding-error bound
of its sum, |a| > k eps m for a bound m on its largest term
(`drop_roundoff`): on the block path m is the sum of the largest entries of
the blocks summed on that node pair, on the scalar path the largest
element-matrix entry.  On the demo configuration at
eps = 1/8 this leaves B with 78 % of the entries it would otherwise store,
and every entry that stays exceeds 1e-6 of its matrix's largest, so the
bound is not a tolerance to tune.

A form that is only evaluated, never solved with (the micro norms), is not
assembled: an `ElementForm` keeps the element node ids and one element matrix,
and `quads` evaluates u^T A u of several forms on the same elements from one
gather of u's element dofs and one GEMM per block of elements.  Every such
form (strain, gradient) annihilates the constant fields, so `quads` first
subtracts each element's per-component mean: a field close to constant (the
gel pressure) then loses no digits to cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import AssemblyError, MaterialError
from ..material import BiotParams, HookeTensor
from . import elements as el

EPS = np.finfo(float).eps
# node pairs whose round-off entries `_block_sum` zeroes at a time: the
# temporaries stay in cache (measured twice as fast as one pass at eps = 1/16
# on a 2-core host)
_MASK_ROWS = 4096
# elements whose dofs `quads` gathers at a time: the temporaries stay in
# cache (the fastest of 256 ... 8192 at eps = 1/4 and 1/8 on a 2-core host)
_ELEM_ROWS = 512


def vector_dofs(conn: np.ndarray, ncomp: int = 3) -> np.ndarray:
    """(ne, k*ncomp) dof ids of (ne, k) node ids, node-major component order."""
    ne, nn = conn.shape
    dofs = (ncomp * conn[:, :, None] + np.arange(ncomp)[None, None, :]).reshape(ne, nn * ncomp)
    return dofs


def element_nodes(mesh, elems_mask=None, node_map=None):
    """(ids (ne, 8), n) of the masked elements' nodes on n nodes.

    With `node_map` (the new id of every mesh node, -1 where dropped) the ids
    are renumbered through it; otherwise every mesh node keeps its id.
    """
    conn = mesh.elems if elems_mask is None else mesh.elems[elems_mask]
    if node_map is None:
        return conn, mesh.n_nodes
    return node_map[conn], int(node_map.max(initial=-1)) + 1


def element_dofs(mesh, elems_mask=None, nodes=None):
    """(dofs (ne, 8), ndof) of a scalar field on the masked elements of a node subset.

    With `nodes` given, node nodes[i] is renumbered i and the masked elements
    must touch no other node; otherwise every mesh node keeps its id.
    """
    sub_of = None
    if nodes is not None:
        sub_of = np.full(mesh.n_nodes, -1, dtype=np.int64)
        sub_of[nodes] = np.arange(len(nodes))
    conn, n = element_nodes(mesh, elems_mask, sub_of)
    if nodes is not None and np.any(conn < 0):
        raise AssemblyError("masked elements touch nodes outside the given node subset")
    return conn, n


def qp_points(mesh, elems_mask=None) -> np.ndarray:
    """(ne, nq, 3) physical quadrature points of the masked elements."""
    pts = el.qp_data(mesh.spacing)[3]
    conn = mesh.elems if elems_mask is None else mesh.elems[elems_mask]
    origins = mesh.nodes[conn[:, 0]]
    return origins[:, None, :] + (pts[None, :, :] + 1.0) * 0.5 * np.asarray(mesh.spacing)


def scatter(rows: np.ndarray, ke: np.ndarray, shape, cols=None, phase=None) -> sp.csr_matrix:
    """Sum element matrices into a canonical CSR matrix of the given shape.

    Element e couples the nodes rows[e] (ne, k) with the nodes cols[e]
    (ne, k'; rows[e] by default) through ke, or ke[phase[e]] when a label per
    element is given.  ke is (k*b, k'*b') for b dofs per row node and b' per
    column node, node-major: dof c of node i is global dof b*i + c.  Entries
    at a negative node id are dropped, and so is every entry inside the
    rounding-error bound of its sum (see the module docstring).
    """
    cols = rows if cols is None else cols
    (ne, kr), kc = rows.shape, cols.shape[1]
    br, bc = ke.shape[-2] // kr, ke.shape[-1] // kc
    r = np.broadcast_to(rows.astype(np.int32)[:, :, None], (ne, kr, kc))
    c = np.broadcast_to(cols.astype(np.int32)[:, None, :], r.shape)
    keep = (r >= 0) & (c >= 0) if np.any(rows < 0) or np.any(cols < 0) else None

    def entries(x):
        """One value per (element, local node pair), dropped pairs left out."""
        x = np.broadcast_to(x, r.shape)
        return x.ravel() if keep is None else x[keep]

    if br == bc == 1:
        # scalar forms: an entry per node pair already, so a plain COO -> CSR
        vals = ke if phase is None else ke[phase]
        A = sp.csr_matrix((entries(vals), (entries(r), entries(c))), shape=shape)
        return drop_roundoff(A, kr * EPS * np.abs(ke).max(initial=0.0))
    return drop_roundoff(_block_sum(r, cols, ke, shape, phase, entries))


def drop_roundoff(A: sp.csr_matrix, tol=None) -> sp.csr_matrix:
    """A without its stored zeros and, given tol (a number or one per stored
    entry), its entries |a| <= tol, on arrays of its new size."""
    if tol is not None:
        A.data *= np.abs(A.data) > tol
    A.eliminate_zeros()
    if A.data.base is not None and A.data.base.size > A.nnz:
        A = A.copy()   # eliminate_zeros kept views on the longer arrays: release them
    return A


def _block_sum(r, cols, ke, shape, phase, entries) -> sp.csr_matrix:
    """`scatter` of b x b' node blocks, summed on the node-pair pattern.

    Each (element, local node pair) is one entry, with its row node r (an
    (ne, k, k') view) and the key (column node, block index).  One COO -> CSR
    pass counts the keys per row node; on each node pair, the counts times
    the stacked element blocks are the pair's block sum, whose entries inside
    k eps times a bound on the pair's largest term are set to zero.  No array
    holds every element's scalar entries.
    """
    kr, kc = r.shape[1:]
    br, bc = ke.shape[-2] // kr, ke.shape[-1] // kc
    # blocks[l*k*k' + i*k' + j] is the (i, j) node block of label l
    blocks = ke.reshape(-1, kr, br, kc, bc).swapaxes(2, 3).reshape(-1, br * bc)
    nb, n_c = len(blocks), shape[1] // bc
    idx = np.int32 if n_c * nb < 2**31 else np.int64
    key = cols.astype(idx)[:, None, :] * nb + np.arange(kr * kc, dtype=idx).reshape(kr, kc)
    if phase is not None:
        key += (phase.astype(idx) * (kr * kc))[:, None, None]
    key = entries(key)
    # per row node, how often each (column node, block) occurs, sorted by column node
    count = sp.csr_matrix((np.ones(len(key)), (entries(r), key)), shape=(shape[0] // br, n_c * nb))
    del key
    pair_col, blk = np.divmod(count.indices, nb)
    first = np.ones(len(blk), dtype=bool)   # a node pair starts here
    first[1:] = pair_col[1:] != pair_col[:-1]
    first[count.indptr[:-1][np.diff(count.indptr) > 0]] = True
    starts = np.flatnonzero(first)
    pair_ptr = np.searchsorted(starts, count.indptr)
    per_pair = sp.csr_matrix((count.data, blk, np.append(starts, len(blk))),
                             shape=(len(starts), nb))
    vals = per_pair @ blocks
    # the sum of the blocks' largest entries bounds the pair's largest term
    tol = kr * EPS * (per_pair @ np.abs(blocks).max(axis=1, initial=0.0))
    pair_col = pair_col[starts]
    del count, blk, first, starts, per_pair   # only the pair pattern and its block sums stay
    for i in range(0, len(vals), _MASK_ROWS):
        v = vals[i:i + _MASK_ROWS]
        v *= np.abs(v) > tol[i:i + _MASK_ROWS, None]
    return sp.bsr_matrix((vals.reshape(-1, br, bc), pair_col, pair_ptr), shape=shape).tocsr()


def scatter_vector(dofs: np.ndarray, fe: np.ndarray, n: int) -> np.ndarray:
    """Sum element vectors fe (ne, k) at dofs (ne, k) into a length-n vector.

    Entries with a negative id are dropped; the sum runs in input order.
    """
    dofs, fe = dofs.ravel(), fe.ravel()
    if np.any(dofs < 0):
        keep = dofs >= 0
        dofs, fe = dofs[keep], fe[keep]
    return np.bincount(dofs, weights=fe, minlength=n)


@dataclass(frozen=True, eq=False)
class ElementForm:
    """The form of one element matrix ke on the elements of node ids `ids`
    (ne, k), evaluated on the gathered element dofs and never assembled.

    ke is (k b, k b) for b dofs per node, node-major as in `scatter`, and A
    below is the matrix `scatter(ids, ke, ...)` would assemble; every id must
    be a node of the vectors the form is applied to.  ke must annihilate the
    per-component constants, as `quads` relies on (AssemblyError otherwise).
    """

    ids: np.ndarray
    ke: np.ndarray

    def __post_init__(self):
        k = self.ids.shape[1]
        # a row sum of k b entries, each computed to within k b eps of the largest
        if (np.abs(self.ke @ _constants(k, len(self.ke) // k)).max()
                > len(self.ke) ** 2 * EPS * np.abs(self.ke).max()):
            raise AssemblyError("an element form must annihilate the constant fields")

    def quad(self, u: np.ndarray) -> float:
        """u^T A u."""
        return float(quads(u, self)[0])

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        """A u, summed by `scatter_vector`."""
        b = self.ke.shape[0] // self.ids.shape[1]
        ue = np.take(u.reshape(-1, b), self.ids, axis=0).reshape(len(self.ids), -1)
        return scatter_vector(vector_dofs(self.ids, b), ue @ self.ke.T, len(u))


def _constants(k: int, b: int) -> np.ndarray:
    """(k b, b): column c is the constant field of component c on k nodes, node-major."""
    return np.kron(np.ones((k, 1)), np.eye(b))


def quads(u: np.ndarray, *forms: ElementForm) -> np.ndarray:
    """u^T A u of each of several forms on the same element ids.

    Per block of `_ELEM_ROWS` elements, one gather of u's element dofs and one
    GEMM with the element matrices side by side, so the temporaries stay in
    cache at any mesh size.  Each element's per-component mean is subtracted
    before the GEMM, which the forms annihilate (see `ElementForm`).
    """
    ids = forms[0].ids
    if any(f.ids is not ids for f in forms):
        raise AssemblyError("forms evaluated together must share their element ids")
    ke = np.hstack([f.ke for f in forms])
    k = ids.shape[1]
    b = ke.shape[0] // k
    U = u.reshape(-1, b)
    mean = _constants(k, b) / k   # element dofs -> per-component means
    out = np.zeros(len(forms))
    for i in range(0, len(ids), _ELEM_ROWS):
        ue = np.take(U, ids[i:i + _ELEM_ROWS], axis=0)   # (ne, k, b)
        ue = (ue - (ue.reshape(len(ue), -1) @ mean)[:, None, :]).reshape(len(ue), -1)
        out += np.einsum("efi,ei->f", (ue @ ke).reshape(len(ue), len(forms), -1), ue)
    return out


def bilinear_grid_forms(nx: int, ny: int, hx: float, hy: float):
    """(M, K): Q1 mass and stiffness on an nx x ny grid of hx x hy rectangles.

    Nodes are numbered x-fastest, a + (nx + 1) * b.
    """
    N, dN, w, _ = el.qp_data((hx, hy))
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


def assemble_elastic_stiffness(mesh, hooke: HookeTensor, node_map=None) -> sp.csr_matrix:
    """Global stiffness int A e(u):e(v) with the per-phase constant tensors.

    On a reduced node map (see the module docstring) it is P^T K P.
    """
    require_coercive(hooke)
    ke = np.stack([el.hex_elastic_ke(mesh.spacing, D) for D in (hooke.fiber, hooke.gel)])
    nodes, n = element_nodes(mesh, node_map=node_map)
    return scatter(nodes, ke, (3 * n, 3 * n), phase=mesh.phase)


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


def assemble_divergence_coupling(mesh, *, gel_nodes, node_map=None) -> sp.csr_matrix:
    """C[j, dof] = int_gel phi_j div(xi_dof): pressure rows on gel nodes only.

    On a reduced node map the columns are the reduced dofs: C P.
    """
    gel_mask = mesh.phase == 1
    if not np.any(gel_mask):
        raise AssemblyError("mesh has no gel elements to couple")
    p_rows, n_p = element_dofs(mesh, gel_mask, gel_nodes)
    u_cols, n_u = element_nodes(mesh, gel_mask, node_map)
    return scatter(p_rows, el.hex_divergence_ke(mesh.spacing), (n_p, 3 * n_u), cols=u_cols)


def assemble_body_force(mesh, f_at, node_map) -> np.ndarray:
    """Load vector int f . v with f evaluated at the quadrature points.

    f_at(x, y, z) must return (..., 3) stacked components.  On the nodes of
    a reduced node map it is the reduced load P^T f.
    """
    N, _, wdet, _ = el.qp_data(mesh.spacing)
    qp = qp_points(mesh)
    fe = (wdet[:, None] * N).T @ f_at(qp[..., 0], qp[..., 1], qp[..., 2])
    nodes, n = element_nodes(mesh, node_map=node_map)
    return scatter_vector(vector_dofs(nodes), fe, 3 * n)


def assemble_scalar_source(mesh, h_at, *, elems_mask=None, nodes=None) -> np.ndarray:
    """Load vector int h q over masked elements on the node subspace."""
    N, _, wdet, _ = el.qp_data(mesh.spacing)
    qp = qp_points(mesh, elems_mask)
    he = h_at(qp[..., 0], qp[..., 1], qp[..., 2]) @ (wdet[:, None] * N)
    dofs, n = element_dofs(mesh, elems_mask, nodes)
    return scatter_vector(dofs, he, n)


def lumped_weights(mesh, *, elems_mask=None, nodes=None, weight=None) -> np.ndarray:
    """w_i = int phi_i (optionally times weight(x,y,z)) over masked elements."""
    if weight is None:
        return assemble_scalar_source(mesh, lambda x, y, z: np.ones_like(x),
                                      elems_mask=elems_mask, nodes=nodes)
    return assemble_scalar_source(mesh, weight, elems_mask=elems_mask, nodes=nodes)


def micro_pressure_blocks(biot: BiotParams, mesh):
    """(mass, diffusion) on the gel pressure space of a micro mesh.

    The diffusion carries the eps^2 K scaling of the micro problem, at the
    mesh's eps; the mass is unscaled (the Biot modulus c multiplies it in the
    stepper).
    """
    gel_mask = mesh.phase == 1
    M = assemble_scalar_mass(mesh, elems_mask=gel_mask, nodes=mesh.gel_nodes)
    D = assemble_scalar_diffusion(mesh, biot.K, elems_mask=gel_mask, nodes=mesh.gel_nodes,
                                  scale=mesh.eps**2)
    return M, D
