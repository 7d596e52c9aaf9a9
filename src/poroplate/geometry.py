"""Brick meshes of the reference cell and the thin plate; the mid-surface mesh.

The unfolding operator maps every eps-cell of the thin plate omega x (-eps, eps)
onto one reference cell Y x (-1, 1), so both are one kind of mesh, a
`BrickMesh`: eps-cells of n x n x 2n bricks tiling omega.  The reference cell
is the one-cell mesh of the unit square at eps = 1 (`build_cell_mesh`), the
thin plate the mesh of omega at its eps (`build_micro_mesh`).  The gel phase
is an axis-aligned box strictly inside the cross-section of every cell.
Keeping phase boundaries on element faces makes every phase integral exact.

Node and element numbering is lexicographic with x1 fastest:
node(i, j, k) = i + (nx+1) * (j + (ny+1) * k).  The eps-cells are translates
of cell 0, so a mesh also carries each cell's global node and element ids in
one-cell order and its gel nodes cell-major.  The reduced numberings are
formulas of these indices: the periodic cell maps node (i, j, k) to
(i mod n, j mod n, k) (`cell.periodic_node_map`), and the lateral clamp of
the plate numbers its interior nodes in ascending order
(`micro.clamp_node_map`).

The mid-surface mesh (`PlateMesh`) is a rectangle grid of omega that carries
the limit problem's space: its clamp as a `Reducer` that numbers the dofs of
the interior nodes in ascending order, membrane before bending, the reduced
element dofs and the plate quadrature tables.  The macro solver and the
two-scale oracle read the one mesh they are given.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError
from .fem import elements as el
from .fem.assembly import vector_dofs
from .fem.constraints import Reducer, number_kept

FIBER, GEL = 0, 1

SNAP_TOL = 1e-9

# Gauss points per direction of the plate quadrature
N_QP_1D = 3


@dataclass(frozen=True)
class CellGeometry:
    """Gel box inside the unit cross-section, optional thickness sub-span.

    gel_box is ((y1_lo, y1_hi), (y2_lo, y2_hi)) with closure strictly inside
    (0,1)^2 so the fiber skeleton stays connected cell to cell.  gel_box=None
    builds a fiber-only cell (used by phase-blind diagnostics).
    """

    gel_box: tuple[tuple[float, float], tuple[float, float]] | None = ((0.25, 0.75), (0.25, 0.75))
    z_span: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.gel_box is not None:
            for lo, hi in self.gel_box:
                if not (0.0 < lo < hi < 1.0):
                    raise GeometryError(
                        f"gel box edge ({lo}, {hi}) must satisfy 0 < lo < hi < 1 "
                        "(box touching the cell boundary breaks fiber connectivity)"
                    )
        z_lo, z_hi = self.z_span
        if not (-1.0 <= z_lo < z_hi <= 1.0):
            raise GeometryError(f"thickness span ({z_lo}, {z_hi}) must be inside [-1, 1]")

    @property
    def gel_area(self) -> float:
        """|Y^g|: gel fraction of the unit cross-section."""
        if self.gel_box is None:
            return 0.0
        (a, b), (c, d) = self.gel_box
        return (b - a) * (d - c)

    @property
    def gel_volume(self) -> float:
        """|Y_cell^g| in the reference cell Y x (-1, 1)."""
        z_lo, z_hi = self.z_span
        return self.gel_area * (z_hi - z_lo)

    def snapped(self, n: int) -> "CellGeometry":
        """Snap box/span edges to the n-grid, warning when they move."""
        if self.gel_box is None:
            return self

        def snap(v: float, offset: float = 0.0) -> float:
            s = round((v - offset) * n) / n + offset
            if abs(s - v) > SNAP_TOL:
                warnings.warn(f"gel box edge {v} snapped to grid value {s}", stacklevel=3)
            return s

        box = tuple((snap(lo), snap(hi)) for lo, hi in self.gel_box)
        span = (snap(self.z_span[0], offset=-1.0), snap(self.z_span[1], offset=-1.0))
        for lo, hi in box:
            if not (0.0 < lo < hi < 1.0):
                raise GeometryError(
                    f"snapped gel box edge ({lo}, {hi}) degenerate or touching the boundary: "
                    f"fiber wall thinner than one grid cell at n={n}"
                )
        if not (span[0] < span[1]):
            raise GeometryError(f"snapped thickness span {span} is empty at n={n}")
        return CellGeometry(gel_box=box, z_span=span)


def _phase_labels(geom: CellGeometry, n: int, ei, ej, ek) -> np.ndarray:
    """Phase of the elements at grid indices (ei, ej, ek), from the fractional
    position of their centers inside their cell."""
    phase = np.zeros(len(ei), dtype=np.uint8)
    if geom.gel_box is None:
        return phase
    # cell-local element indices; centers at (l + 0.5)/n in cell coordinates
    cy1 = (ei % n + 0.5) / n
    cy2 = (ej % n + 0.5) / n
    cy3 = -1.0 + (ek % (2 * n) + 0.5) / n
    (a, b), (c, d) = geom.gel_box
    z_lo, z_hi = geom.z_span
    inside = (cy1 > a) & (cy1 < b) & (cy2 > c) & (cy2 < d) & (cy3 > z_lo) & (cy3 < z_hi)
    phase[inside] = GEL
    return phase


@dataclass
class BrickMesh:
    """Brick mesh of omega x (-eps, eps) tiled by eps-cells of n x n x 2n bricks.

    The reference cell Y x (-1, 1) is the one-cell mesh of the unit square at
    eps = 1; the thin plate is the mesh of omega at its eps.
    """

    geom: CellGeometry
    eps: float
    omega: tuple[tuple[float, float], tuple[float, float]]
    n: int
    n_cells: tuple[int, int]
    nodes: np.ndarray
    elems: np.ndarray               # (n_elems, 8) in VTK hex ordering, x-fastest
    phase: np.ndarray
    gel_nodes: np.ndarray           # cell-major; reshape(total_cells, n_gel_local) per cell
    gel_local_template: np.ndarray  # (n_gel_local, 3) cell-local grid indices of the gel nodes
    cell_nodes: np.ndarray          # (total_cells, one-cell nodes): global node ids
    cell_elems: np.ndarray          # (total_cells, one-cell elements): global element ids

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elems(self) -> int:
        return len(self.elems)

    @property
    def nelems(self) -> tuple[int, int, int]:
        """Elements along x1, x2 and the thickness."""
        return self.n_cells[0] * self.n, self.n_cells[1] * self.n, 2 * self.n

    @property
    def spacing(self) -> np.ndarray:
        h = self.eps / self.n
        return np.array([h, h, h])

    @property
    def elem_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        """|omega x (-eps, eps)|; |Y_cell| = 2 for the reference cell."""
        return self.elem_volume * self.n_elems

    @property
    def total_cells(self) -> int:
        return self.n_cells[0] * self.n_cells[1]

    @property
    def n_gel_local(self) -> int:
        return len(self.gel_local_template)


def _brick_mesh(geom: CellGeometry, eps: float, omega, n: int) -> BrickMesh:
    """The brick mesh of omega x (-eps, eps); omega must be exactly tiled by eps-cells."""
    if n < 2:
        raise GeometryError(f"per-cell subdivisions must satisfy n >= 2, got {n}")
    if eps <= 0.0:
        raise GeometryError(f"cell size must be positive, got {eps}")
    geom = geom.snapped(n)
    (a1, b1), (a2, b2) = omega
    ncells = []
    for a, b in ((a1, b1), (a2, b2)):
        ratio = (b - a) / eps
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise GeometryError(
                f"omega edge ({a}, {b}) is not an integer number of eps={eps} cells; "
                "partial boundary cells are out of scope"
            )
        anchor = a / eps
        if abs(anchor - round(anchor)) > 1e-9:
            raise GeometryError(f"omega corner {a} must sit on the eps-lattice")
        ncells.append(int(round(ratio)))
    ncx, ncy = ncells
    nx, ny, nz = ncx * n, ncy * n, 2 * n
    h = eps / n

    def node_id(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    k, j, i = (g.ravel() for g in np.meshgrid(np.arange(nz + 1), np.arange(ny + 1),
                                              np.arange(nx + 1), indexing="ij"))
    nodes = np.array([a1, a2, -eps], dtype=float) + np.stack([i, j, k], axis=-1) * h
    ek, ej, ei = (g.ravel() for g in np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                                                 indexing="ij"))
    elems = np.stack([node_id(ei + di, ej + dj, ek + dk) for di, dj, dk in el.CORNERS], axis=-1)

    # the eps-cells are translates of cell 0: a cell's global node (element)
    # ids are the cell-0 ids, in one-cell order, plus one per-cell offset
    cell = np.arange(ncx * ncy)
    ki, kj = cell % ncx, cell // ncx
    cell_nodes = np.flatnonzero((i <= n) & (j <= n)) + (n * (ki + (nx + 1) * kj))[:, None]
    cell_elems = np.flatnonzero((ei < n) & (ej < n)) + (n * (ki + nx * kj))[:, None]

    # cell-local gel node template (identical for every cell), ordered
    # x-fastest: for one cell it is the sorted list of the gel elements' nodes
    gel_local_nodes = np.zeros((0, 3), dtype=np.int64)
    if geom.gel_box is not None:
        (alo, ahi), (clo, chi) = geom.gel_box
        z_lo, z_hi = geom.z_span
        gi = np.arange(int(round(alo * n)), int(round(ahi * n)) + 1)
        gj = np.arange(int(round(clo * n)), int(round(chi * n)) + 1)
        gk = np.arange(int(round((z_lo + 1.0) * n)), int(round((z_hi + 1.0) * n)) + 1)
        LK, LJ, LI = np.meshgrid(gk, gj, gi, indexing="ij")
        gel_local_nodes = np.stack([LI.ravel(), LJ.ravel(), LK.ravel()], axis=-1)
    # global gel node ordering: cell-major, template order inside each cell
    gel_cell_ids = gel_local_nodes @ np.array([1, n + 1, (n + 1) ** 2])

    return BrickMesh(
        geom=geom,
        eps=eps,
        omega=((a1, b1), (a2, b2)),
        n=n,
        n_cells=(ncx, ncy),
        nodes=nodes,
        elems=elems,
        phase=_phase_labels(geom, n, ei, ej, ek),
        gel_nodes=cell_nodes[:, gel_cell_ids].ravel(),
        gel_local_template=gel_local_nodes,
        cell_nodes=cell_nodes,
        cell_elems=cell_elems,
    )


def build_cell_mesh(geom: CellGeometry, n: int) -> BrickMesh:
    """Reference cell Y x (-1, 1): the one-cell mesh of the unit square at eps = 1,
    n subdivisions per unit length (2n through the thickness)."""
    return _brick_mesh(geom, 1.0, ((0.0, 1.0), (0.0, 1.0)), n)


def build_micro_mesh(geom: CellGeometry, eps: float, omega, n: int) -> BrickMesh:
    """Thin 3D mesh of omega x (-eps, eps); omega must be exactly tiled by eps-cells."""
    return _brick_mesh(geom, eps, omega, n)




@dataclass
class PlateMesh:
    """Clamped m x m rectangle mesh of the mid-surface omega with its quadrature.

    The full dof layout on nn nodes is the membrane block (W1, W2 per node),
    then the bending block (w, w_x, w_y, w_xy per node: bilinear membrane,
    Bogner-Fox-Schmit bending).  The clamp `reducer` removes every dof of the
    boundary nodes, which realizes W = dW3/dn = 0 exactly; its ascending free
    dofs order the reduced plate vector, membrane before bending.  One 3 x 3
    Gauss rule per element serves every plate integral, so the macro path and
    the two-scale oracle stay algebraically identical.
    """

    omega: tuple[tuple[float, float], tuple[float, float]]
    m: int
    nodes: np.ndarray
    quads: np.ndarray      # (ne, 4) counter-clockwise from the lower-left node
    spacing: tuple[float, float]
    reducer: Reducer       # the clamp on the full layout [membrane 2/node | bending 4/node]
    elem_dofs: np.ndarray  # (ne, 24) reduced ids or -1, [mem(8), bend(16)]
    qp_unit: np.ndarray    # (nq, 2) on [0,1]^2
    qp_w: np.ndarray       # physical weights (include hx*hy)
    N_bil: np.ndarray      # (nq, 4) bilinear shapes
    N_bfs: np.ndarray      # (nq, 16) BFS value row
    E: np.ndarray          # (nq, 6, 24) the strain table: local W -> m [:3, :8] and -k [3:, 8:]
    N_qp: sp.csr_matrix    # (ne * nq, nn): row e * nq + q holds N_bil[q] at quads[e]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_red(self) -> int:
        return self.reducer.n_reduced

    def qp_coords(self) -> np.ndarray:
        """(ne, nq, 2) global quadrature point coordinates."""
        origins = self.nodes[self.quads[:, 0]]
        return origins[:, None, :] + self.qp_unit[None, :, :] * np.array(self.spacing)

    def qp_w_rows(self) -> np.ndarray:
        """(ne * nq,) quadrature weights in the row order of `N_qp`."""
        return np.tile(self.qp_w, len(self.quads))

    def mass(self) -> np.ndarray:
        """Dense bilinear mass matrix on all plate nodes (no clamp)."""
        return (self.N_qp.T @ sp.diags(self.qp_w_rows()) @ self.N_qp).toarray()

    def expand(self, W_red: np.ndarray):
        """Reduced vector -> (membrane (nn,2), bending (nn,4)) nodal arrays."""
        W = self.reducer.expand(W_red)
        return W[:2 * self.n_nodes].reshape(-1, 2), W[2 * self.n_nodes:].reshape(-1, 4)

    # ------------------------------------------------------------ evaluation

    def _locate(self, pts: np.ndarray):
        (a1, _), (a2, _) = self.omega
        hx, hy = self.spacing
        m = self.m
        s = (pts[:, 0] - a1) / hx
        t = (pts[:, 1] - a2) / hy
        i = np.clip(np.floor(s - 1e-12).astype(int), 0, m - 1)
        j = np.clip(np.floor(t - 1e-12).astype(int), 0, m - 1)
        return i + m * j, np.stack([s - i, t - j], axis=-1)

    def eval_membrane(self, Wm: np.ndarray, pts: np.ndarray):
        """(values (npts,2), engineering strain (npts,3)) of the membrane field."""
        eid, loc = self._locate(pts)
        vals_nodes = Wm[self.quads[eid]]         # (npts, 4, 2)
        Nv, dN = el.q1_basis(2.0 * loc - 1.0)   # (npts, 4), (npts, 4, 2)
        dN = dN * (2.0 / np.array(self.spacing))
        vals = np.einsum("pa,pac->pc", Nv, vals_nodes)
        grad = np.einsum("pai,pac->pci", dN, vals_nodes)  # (npts, 2comp, 2dir)
        strain = np.stack([grad[:, 0, 0], grad[:, 1, 1], grad[:, 0, 1] + grad[:, 1, 0]], axis=-1)
        return vals, strain

    def eval_bending(self, Wb: np.ndarray, pts: np.ndarray):
        """(W3, grad W3 (npts,2), curvature eng (npts,3)) of the deflection."""
        eid, loc = self._locate(pts)
        dofs = Wb[self.quads[eid]].reshape(len(pts), 16)   # node-major (w, wx, wy, wxy)
        v, gx, gy, kxx, kyy, kxy = (
            np.einsum("pa,pa->p", basis, dofs) for basis in el.bfs_derivatives(
                self.spacing, loc, ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))))
        return v, np.stack([gx, gy], axis=-1), np.stack([kxx, kyy, 2.0 * kxy], axis=-1)

    def eval_bilinear_nodal(self, f: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of per-node data f (nn, k) at the points."""
        eid, loc = self._locate(pts)
        return _bilinear_map(self.quads[eid], el.q1_basis(2.0 * loc - 1.0)[0], self.n_nodes) @ f


def _bilinear_map(conn: np.ndarray, N: np.ndarray, n_nodes: int) -> sp.csr_matrix:
    """Sparse (points, nodes) interpolation: row i holds the bilinear shape
    values N[i] (4,) at the nodes conn[i] (4,) of the quad containing point i."""
    rows = np.repeat(np.arange(len(N)), 4)
    return sp.csr_matrix((N.ravel(), (rows, conn.ravel())), shape=(len(N), n_nodes))


def build_plate_mesh(omega, m: int) -> PlateMesh:
    """Clamped quadrilateral mid-surface mesh with m subdivisions per edge."""
    if m < 2:
        raise GeometryError(f"plate subdivisions must satisfy m >= 2, got {m}")
    (a1, b1), (a2, b2) = omega
    hx, hy = (b1 - a1) / m, (b2 - a2) / m
    j, i = np.divmod(np.arange((m + 1) ** 2), m + 1)
    nodes = np.stack([a1 + i * hx, a2 + j * hy], axis=-1)
    ej, ei = np.divmod(np.arange(m * m), m)
    q0 = ei + (m + 1) * ej
    quads = np.stack([q0, q0 + 1, q0 + m + 2, q0 + m + 1], axis=-1)
    nn = len(nodes)

    def layout(conn):
        """Full dofs [membrane | bending] of the node rows of conn."""
        return np.hstack([vector_dofs(conn, 2), 2 * nn + vector_dofs(conn, 4)])

    clamped = np.zeros(6 * nn, dtype=bool)
    clamped[layout(np.flatnonzero((i == 0) | (i == m) | (j == 0) | (j == m))[:, None])] = True
    reducer = Reducer(number_kept(~clamped))

    pts, w = el.tensor_rule(*el.gauss1d(N_QP_1D, 0.0, 1.0), 2)
    nq = len(w)
    N_bil, dN = el.q1_basis(2.0 * pts - 1.0)
    E = np.zeros((nq, 6, 24))
    E[:, :3, :8] = el.strain_B(dN * (2.0 / np.array([hx, hy])))
    E[:, 3:, 8:] = -el.bfs_bending_B((hx, hy), pts)
    ne = len(quads)
    return PlateMesh(
        omega=((a1, b1), (a2, b2)), m=m, nodes=nodes, quads=quads, spacing=(hx, hy),
        reducer=reducer, elem_dofs=reducer.dof_map[layout(quads)],
        qp_unit=pts, qp_w=w * hx * hy, N_bil=N_bil,
        N_bfs=el.bfs_basis((hx, hy), pts, (0, 0)), E=E,
        N_qp=_bilinear_map(np.repeat(quads, nq, axis=0), np.tile(N_bil, (ne, 1)), nn),
    )
