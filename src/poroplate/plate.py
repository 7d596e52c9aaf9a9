"""Clamped plate space: bilinear membrane dofs + C1 (BFS) bending dofs.

Dof layout on a PlateMesh with nn nodes: membrane block first
(2 per node: W1, W2), then the bending block (4 per node: w, w_x, w_y, w_xy).
Clamping removes the membrane dofs and all four bending dofs on boundary
nodes, which realizes W = dW3/dn = 0 on the boundary exactly.

One shared 3x3 Gauss rule per element is used for every plate-coupled
integral so the homogenized path and the two-scale oracle stay algebraically
identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import elements as el
from .fem.quadrature import gauss_quad
from .geometry import PlateMesh

N_QP_1D = 3


@dataclass
class PlateSpace:
    plate: PlateMesh
    mem_red: np.ndarray    # (nn, 2) reduced ids or -1
    bend_red: np.ndarray   # (nn, 4) reduced ids or -1
    n_red: int
    elem_dofs: np.ndarray  # (ne, 24) reduced ids or -1, [mem(8), bend(16)]
    qp_unit: np.ndarray    # (nq, 2) on [0,1]^2
    qp_w: np.ndarray       # physical weights (include hx*hy)
    N_bil: np.ndarray      # (nq, 4) bilinear shapes
    B_mem: np.ndarray      # (nq, 3, 8)
    B_bend: np.ndarray     # (nq, 3, 16)
    N_bfs: np.ndarray      # (nq, 16) BFS value row
    E: np.ndarray          # (nq, 6, 24) local W -> membrane strains and negated curvatures (m, -k)
    N_qp: sp.csr_matrix    # (ne * nq, nn): row e * nq + q holds N_bil[q] at quads[e]

    @property
    def n_nodes(self) -> int:
        return self.plate.n_nodes

    def qp_coords(self) -> np.ndarray:
        """(ne, nq, 2) global quadrature point coordinates."""
        hx, hy = self.plate.spacing
        origins = self.plate.nodes[self.plate.quads[:, 0]]
        return origins[:, None, :] + self.qp_unit[None, :, :] * np.array([hx, hy])

    def qp_w_rows(self) -> np.ndarray:
        """(ne * nq,) quadrature weights in the row order of `N_qp`."""
        return np.tile(self.qp_w, len(self.plate.quads))

    def expand(self, W_red: np.ndarray):
        """Reduced vector -> (membrane (nn,2), bending (nn,4)) nodal arrays."""
        Wm = np.zeros((self.n_nodes, 2))
        Wb = np.zeros((self.n_nodes, 4))
        mask = self.mem_red >= 0
        Wm[mask] = W_red[self.mem_red[mask]]
        mask = self.bend_red >= 0
        Wb[mask] = W_red[self.bend_red[mask]]
        return Wm, Wb

    def restrict(self, Wm: np.ndarray, Wb: np.ndarray) -> np.ndarray:
        W = np.zeros(self.n_red)
        mask = self.mem_red >= 0
        W[self.mem_red[mask]] = Wm[mask]
        mask = self.bend_red >= 0
        W[self.bend_red[mask]] = Wb[mask]
        return W

    # ------------------------------------------------------------ evaluation

    def _locate(self, pts: np.ndarray):
        (a1, _), (a2, _) = self.plate.omega
        hx, hy = self.plate.spacing
        m = self.plate.m
        s = (pts[:, 0] - a1) / hx
        t = (pts[:, 1] - a2) / hy
        i = np.clip(np.floor(s - 1e-12).astype(int), 0, m - 1)
        j = np.clip(np.floor(t - 1e-12).astype(int), 0, m - 1)
        return i + m * j, np.stack([s - i, t - j], axis=-1)

    def eval_membrane(self, Wm: np.ndarray, pts: np.ndarray):
        """(values (npts,2), engineering strain (npts,3)) of the membrane field."""
        eid, loc = self._locate(pts)
        conn = self.plate.quads[eid]            # (npts, 4)
        vals_nodes = Wm[conn]                   # (npts, 4, 2)
        Nv = el.quad_shape(2.0 * loc - 1.0)     # (npts, 4)
        hx, hy = self.plate.spacing
        dN = el.quad_grad_ref(2.0 * loc - 1.0) * (2.0 / np.array([hx, hy]))
        vals = np.einsum("pa,pac->pc", Nv, vals_nodes)
        grad = np.einsum("pai,pac->pci", dN, vals_nodes)  # (npts, 2comp, 2dir)
        strain = np.stack([grad[:, 0, 0], grad[:, 1, 1], grad[:, 0, 1] + grad[:, 1, 0]], axis=-1)
        return vals, strain

    def eval_bending(self, Wb: np.ndarray, pts: np.ndarray):
        """(W3, grad W3 (npts,2), curvature eng (npts,3)) of the deflection."""
        eid, loc = self._locate(pts)
        conn = self.plate.quads[eid]
        dofs = Wb[conn].reshape(len(pts), 16)   # node-major (w, wx, wy, wxy)
        h = self.plate.spacing
        out = {}
        for name, d in (("v", (0, 0)), ("gx", (1, 0)), ("gy", (0, 1)),
                        ("kxx", (2, 0)), ("kyy", (0, 2)), ("kxy", (1, 1))):
            basis = el.bfs_basis(h, loc, d)
            out[name] = np.einsum("pa,pa->p", basis, dofs)
        grad = np.stack([out["gx"], out["gy"]], axis=-1)
        curv = np.stack([out["kxx"], out["kyy"], 2.0 * out["kxy"]], axis=-1)
        return out["v"], grad, curv

    def eval_bilinear_nodal(self, f: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of per-node data f (nn, k) at the points."""
        eid, loc = self._locate(pts)
        conn = self.plate.quads[eid]
        Nv = el.quad_shape(2.0 * loc - 1.0)
        return np.einsum("pa,pa...->p...", Nv, f[conn])


def build_plate_space(plate: PlateMesh) -> PlateSpace:
    nn = plate.n_nodes
    clamped = np.zeros(nn, dtype=bool)
    clamped[plate.boundary_nodes] = True
    mem_red = np.full((nn, 2), -1, dtype=np.int64)
    bend_red = np.full((nn, 4), -1, dtype=np.int64)
    nxt = 0
    for node in range(nn):
        if not clamped[node]:
            for c in range(2):
                mem_red[node, c] = nxt
                nxt += 1
    for node in range(nn):
        if not clamped[node]:
            for d in range(4):
                bend_red[node, d] = nxt
                nxt += 1
    n_red = nxt

    conn = plate.quads
    ne = len(conn)
    elem_dofs = np.full((ne, 24), -1, dtype=np.int64)
    for a in range(4):
        for c in range(2):
            elem_dofs[:, 2 * a + c] = mem_red[conn[:, a], c]
        for d in range(4):
            elem_dofs[:, 8 + 4 * a + d] = bend_red[conn[:, a], d]

    pts, w = gauss_quad(N_QP_1D, unit=True)
    hx, hy = plate.spacing
    qp_w = w * hx * hy
    N_bil = el.quad_shape(2.0 * pts - 1.0)
    dN = el.quad_grad_ref(2.0 * pts - 1.0) * (2.0 / np.array([hx, hy]))
    B_mem = el.quad_membrane_B(dN)
    B_bend = el.bfs_bending_B((hx, hy), pts)
    N_bfs = el.bfs_basis((hx, hy), pts, (0, 0))
    nq = len(qp_w)
    E = np.zeros((nq, 6, 24))
    E[:, :3, :8] = B_mem
    E[:, 3:, 8:] = -B_bend
    rows = np.broadcast_to(np.arange(ne * nq).reshape(ne, nq, 1), (ne, nq, 4))
    cols = np.broadcast_to(conn[:, None, :], (ne, nq, 4))
    vals = np.broadcast_to(N_bil, (ne, nq, 4))
    N_qp = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(ne * nq, nn))
    return PlateSpace(
        plate=plate, mem_red=mem_red, bend_red=bend_red, n_red=n_red, elem_dofs=elem_dofs,
        qp_unit=pts, qp_w=qp_w, N_bil=N_bil, B_mem=B_mem, B_bend=B_bend, N_bfs=N_bfs,
        E=E, N_qp=N_qp,
    )


def plate_mass(space: PlateSpace) -> np.ndarray:
    """Dense bilinear mass matrix on all plate nodes (no boundary reduction)."""
    Q = space.N_qp
    return (Q.T @ sp.diags(space.qp_w_rows()) @ Q).toarray()
