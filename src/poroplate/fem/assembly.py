"""Sparse assembly of the bilinear forms on the structured meshes.

Every mesh is a uniform grid, so each operator is one element matrix (one per
phase, or per label) summed into a global array.  That sum is made here only,
in general by `scatter` for matrices and `scatter_vector` for vectors (the
clamped micro stiffness is written by its own function, below), on the
element node ids of `element_nodes` (or the scalar dof ids of
`element_dofs`) and the quadrature points of `qp_points`.  A negative id marks an eliminated node or
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

The clamped micro stiffness B, by far the largest operator, is written
straight to CSR from one cell instead (`assemble_clamped_stiffness`).  The
micro mesh tiles congruent cells, so at a kept node (i, j, k) the block sum of
the node pair (node, node + offset) depends only on (i mod n, j mod n, k) and
the offset, one of 27; the lateral clamp removes exactly the nodes where this
fails.  `_cell_stencil` sums each pair's terms from the two phase element
matrices in `_block_sum`'s order (label, then row corner, then column corner)
and drops the same entries inside the same bound, and IEEE addition in the
same order gives the same bits, so B is `scatter`'s B bit for bit.  No array
of per-element entries and no full-size intermediate CSR exists.  `tile_rows`
repeats the rows of one cell's block with shifted columns, for the gel blocks
that repeat cell 0's (`micro`).  The periodic cell K_red stays on `scatter`:
on a one-cell mesh the stencil is the whole matrix, and there it costs more.

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
from ..material import HookeTensor
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
    nodes, n = element_nodes(mesh, node_map=node_map)
    return scatter(nodes, _phase_stiffness(mesh, hooke), (3 * n, 3 * n), phase=mesh.phase)


def _phase_stiffness(mesh, hooke: HookeTensor) -> np.ndarray:
    """(2, 24, 24): the element stiffness of the fiber and of the gel (labels 0, 1)."""
    require_coercive(hooke)
    return np.stack([el.hex_elastic_ke(mesh.spacing, D) for D in (hooke.fiber, hooke.gel)])


def assemble_clamped_stiffness(mesh, hooke: HookeTensor) -> sp.csr_matrix:
    """`assemble_elastic_stiffness` of a tiled plate mesh on its lateral clamp
    (`micro.clamp_node_map`), bit for bit, written to CSR from one cell's
    stencil (see the module docstring).

    Grid line (k, j) of kept nodes holds the reduced nodes (i - 1) +
    (nx - 1) ((j - 1) + (ny - 1) k), i = 1 ... nx - 1: its rows are the
    template of its class (k, j mod n, j at the lower or upper clamp border),
    and its columns the template's plus 3 (nx - 1) ((j - 1) + (ny - 1) k).
    """
    n, (nx, ny, nz) = mesh.n, mesh.nelems
    if n < 3:
        raise AssemblyError(f"the cell stencil needs n >= 3 elements per cell edge, got {n}")
    V = _cell_stencil(_phase_stiffness(mesh, hooke),
                      mesh.phase[mesh.cell_elems[0]].reshape(nz, n, n))
    dk, dj, di = (d.ravel() - 1 for d in np.indices((3, 3, 3)))
    # line classes jc: j mod n inside, n on the lower clamp border (j = 1), n + 1 on the upper
    jm = np.r_[np.arange(n), 1, n - 1]
    # [jc, i, o]: the column of offset o is a kept node
    i = np.arange(1, nx)[:, None]
    valid = np.ones((n + 2, nx - 1, 27), dtype=bool)
    valid[n][:, dj < 0] = valid[n + 1][:, dj > 0] = False
    valid &= (i + di >= 1) & (i + di <= nx - 1)
    # [i, (o, c)]: the column's reduced dof relative to the line's first
    cols = (3 * (i - 1 + di + (nx - 1) * (dj + (ny - 1) * dk))[:, :, None]
            + np.arange(3)).astype(np.int32).reshape(nx - 1, 1, 81)
    vals = V.reshape(nz + 1, n, n, 3, 81)[:, jm[:, None], i.ravel() % n]   # [k, jc, i, r, (o, c)]
    keep = vals != 0.0
    keep &= np.broadcast_to(valid[:, :, None, :, None], (n + 2, nx - 1, 3, 27, 3)).reshape(
        n + 2, nx - 1, 3, 81)
    t_data = vals[keep]
    t_cols = np.broadcast_to(cols, vals.shape)[keep]
    t_rows = np.count_nonzero(keep, axis=4).reshape(nz + 1, n + 2, -1)   # per class, row counts
    t_ptr = np.r_[0, np.cumsum(t_rows.sum(axis=2))]
    del V, vals, keep
    line_k, line_j = (g.ravel() for g in np.indices((nz + 1, ny - 1)))
    line_j += 1
    jc = np.where(line_j == 1, n, np.where(line_j == ny - 1, n + 1, line_j % n))
    cls = line_k * (n + 2) + jc
    counts = t_rows.reshape(-1, t_rows.shape[2])[cls].ravel()
    idx = np.int32 if counts.sum() < 2**31 else np.int64
    indptr = np.r_[0, np.cumsum(counts)].astype(idx)
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=idx)
    p, t_ptr = 0, t_ptr.tolist()
    for c, shift in zip(cls.tolist(), (3 * (nx - 1) * (line_j - 1 + (ny - 1) * line_k)).tolist()):
        s, e = t_ptr[c], t_ptr[c + 1]
        data[p:p + e - s] = t_data[s:e]
        np.add(t_cols[s:e], shift, out=indices[p:p + e - s])
        p += e - s
    n_red = 3 * (nx - 1) * (ny - 1) * (nz + 1)
    return sp.csr_matrix((data, indices, indptr), shape=(n_red, n_red))


def _cell_stencil(ke: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """V[k, j mod n, i mod n, r, o, c]: entry (r, c) of the block sum of the
    node pair (node, node + offset o) at node (i, j, k) of a grid tiled by one
    cell's element labels phase [k, j, i] (nz, n, n), offsets (dk, dj, di) in
    {-1, 0, 1}^3 lexicographic, so that columns ascend.

    The terms are summed, and bounded, in `_block_sum`'s order (label, row
    corner, column corner), so every entry is the bits `scatter` sums.  One
    pass per (label, row corner) adds the blocks at the nodes whose element
    at that corner has that label.
    """
    nz, n = phase.shape[:2]
    kr, nl = len(el.CORNERS), len(ke)
    # [l, a, bz, by, bx, e]: entry e < 9 of node block (a, b) of label l, with
    # its largest magnitude as e = 9, and column corner b on its grid
    blocks = ke.reshape(nl, kr, 3, kr, 3).swapaxes(2, 3).reshape(nl, kr, kr, 9)
    blocks = np.concatenate([blocks, np.abs(blocks).max(axis=3, keepdims=True)], axis=3)
    blocks = blocks[:, :, np.lexsort(el.CORNERS.T)].reshape(nl, kr, 2, 2, 2, 10, 1)
    S = np.zeros((3, 3, 3, 10, (nz + 1) * n * n))   # [dk, dj, di, e, (k, jm, im)]
    # lab[k + 1, j + 1, i + 1] is the label of the cell's element (i, j, k) for
    # i, j = -1 ... n - 1 (-1 wraps to n - 1) and k = -1 ... nz (-1 outside the grid)
    lab = np.full((nz + 2, n + 1, n + 1), -1, dtype=np.int8)
    lab[1:-1, 1:, 1:] = phase
    lab[1:-1, 0, 1:] = phase[:, -1]
    lab[:, :, 0] = lab[:, :, -1]
    for l in range(nl):
        on = (lab == l).astype(float)
        for a, (ax, ay, az) in enumerate(el.CORNERS):
            # the element at corner a of node (i, j, k) is (i - ax, j - ay, k - az); an
            # exact zero is added where it has another label
            at = on[1 - az:nz + 2 - az, 1 - ay:n + 1 - ay, 1 - ax:n + 1 - ax].ravel()
            S[1 - az:3 - az, 1 - ay:3 - ay, 1 - ax:3 - ax] += blocks[l, a] * at
    V = S[:, :, :, :9]
    V *= np.abs(V) > kr * EPS * S[:, :, :, 9:]
    return np.ascontiguousarray(V.reshape(27, 3, 3, nz + 1, n, n).transpose(3, 4, 5, 1, 0, 2))


def tile_rows(A: sp.csr_matrix, shifts: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """The rows of A once per shift, copy c with its columns moved by shifts[c]:
    the canonical CSR of shape (len(shifts) rows of A, n_cols)."""
    t, nnz = len(shifts), A.nnz
    idx = np.int32 if max(n_cols, t * nnz) < 2**31 else np.int64
    indptr = np.append((A.indptr[:-1] + nnz * np.arange(t)[:, None]).ravel(), t * nnz)
    indices = (A.indices.astype(idx) + np.asarray(shifts, dtype=idx)[:, None]).ravel()
    return sp.csr_matrix((np.tile(A.data, t), indices, indptr.astype(idx)),
                         shape=(t * A.shape[0], n_cols))


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


def assemble_divergence_coupling(mesh, *, gel_nodes, node_map=None,
                                 elems_mask=None) -> sp.csr_matrix:
    """C[j, dof] = int_gel phi_j div(xi_dof): pressure rows on gel nodes only.

    On a reduced node map the columns are the reduced dofs: C P.  The sum runs
    over the gel elements, or over the given subset of them.
    """
    gel_mask = mesh.phase == 1 if elems_mask is None else elems_mask
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
