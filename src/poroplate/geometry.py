"""Periodicity cell, thin-plate, and mid-surface meshes.

All meshes are structured and axis-aligned: the reference cell is the unit
square cross-section times (-1, 1), the gel phase is an axis-aligned box
strictly inside the cross-section, and the plate is a rectangle exactly tiled
by eps-cells.  Keeping phase boundaries on element faces makes every phase
integral exact.

Node numbering is lexicographic with x1 fastest:
node(i, j, k) = i + (nx+1) * (j + (ny+1) * k).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

FIBER, GEL = 0, 1

# VTK hexahedron corner offsets (i, j, k) in element-local coordinates.
_HEX_CORNERS = np.array(
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
    dtype=np.int64,
)

SNAP_TOL = 1e-9


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


class _StructuredHexMesh:
    """Shared structure for the cell and micro meshes (uniform brick grid)."""

    def __init__(self, nelems: tuple[int, int, int], origin, spacing):
        self.nelems = tuple(int(v) for v in nelems)
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = np.asarray(spacing, dtype=float)
        nx, ny, nz = self.nelems
        self.n_nodes = (nx + 1) * (ny + 1) * (nz + 1)
        self.n_elems = nx * ny * nz

    def node_id(self, i, j, k):
        nx, ny, _ = self.nelems
        return i + (nx + 1) * (j + (ny + 1) * k)

    @property
    def nodes(self) -> np.ndarray:
        nx, ny, nz = self.nelems
        i, j, k = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), np.arange(nz + 1), indexing="ij")
        coords = np.stack([i, j, k], axis=-1).reshape(-1, 3)
        # reorder to node_id convention (x fastest)
        order = np.argsort(self.node_id(coords[:, 0], coords[:, 1], coords[:, 2]), kind="stable")
        return self.origin + coords[order] * self.spacing

    @property
    def elems(self) -> np.ndarray:
        """(n_elems, 8) connectivity in VTK hex ordering, x-fastest element order."""
        nx, ny, nz = self.nelems
        i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
        base = np.stack([i.ravel(), j.ravel(), k.ravel()], axis=-1)
        order = np.argsort(base[:, 0] + nx * (base[:, 1] + ny * base[:, 2]), kind="stable")
        base = base[order]
        conn = np.empty((len(base), 8), dtype=np.int64)
        for c, (di, dj, dk) in enumerate(_HEX_CORNERS):
            conn[:, c] = self.node_id(base[:, 0] + di, base[:, 1] + dj, base[:, 2] + dk)
        return conn

    def elem_grid_indices(self) -> np.ndarray:
        nx, ny, nz = self.nelems
        e = np.arange(self.n_elems)
        i = e % nx
        j = (e // nx) % ny
        k = e // (nx * ny)
        return np.stack([i, j, k], axis=-1)

    @property
    def elem_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def total_volume(self) -> float:
        return self.elem_volume * self.n_elems


def _phase_labels(mesh: _StructuredHexMesh, geom: CellGeometry, cell_n: int) -> np.ndarray:
    """Element phase from the fractional position of centers inside their cell."""
    idx = mesh.elem_grid_indices()
    phase = np.zeros(mesh.n_elems, dtype=np.uint8)
    if geom.gel_box is None:
        return phase
    # cell-local element indices; centers at (l + 0.5)/n in cell coordinates
    li = idx[:, 0] % cell_n
    lj = idx[:, 1] % cell_n
    lk = idx[:, 2] % (2 * cell_n)
    cy1 = (li + 0.5) / cell_n
    cy2 = (lj + 0.5) / cell_n
    cy3 = -1.0 + (lk + 0.5) / cell_n
    (a, b), (c, d) = geom.gel_box
    z_lo, z_hi = geom.z_span
    inside = (cy1 > a) & (cy1 < b) & (cy2 > c) & (cy2 < d) & (cy3 > z_lo) & (cy3 < z_hi)
    phase[inside] = GEL
    return phase


def _interface_facets(mesh: _StructuredHexMesh, phase: np.ndarray):
    """Quad faces between gel and fiber elements, normals pointing out of the gel.

    Returns (faces, normals): faces is (nf, 4) node ids, normals (nf, 3).
    """
    nx, ny, nz = mesh.nelems
    idx = mesh.elem_grid_indices()
    gel = np.flatnonzero(phase == GEL)
    faces = []
    normals = []
    # face corner offsets per axis/side, consistent outward orientation
    face_corners = {
        (0, -1): [(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1)],
        (0, +1): [(1, 0, 0), (1, 0, 1), (1, 1, 1), (1, 1, 0)],
        (1, -1): [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 0)],
        (1, +1): [(0, 1, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)],
        (2, -1): [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
        (2, +1): [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 1)],
    }
    dims = (nx, ny, nz)
    for e in gel:
        i, j, k = idx[e]
        for axis in range(3):
            for side in (-1, +1):
                nb = [i, j, k]
                nb[axis] += side
                if not (0 <= nb[axis] < dims[axis]):
                    continue  # lies on the outer boundary, not an interface
                nb_e = nb[0] + nx * (nb[1] + ny * nb[2])
                if phase[nb_e] == GEL:
                    continue
                corners = face_corners[(axis, side)]
                faces.append([mesh.node_id(i + di, j + dj, k + dk) for di, dj, dk in corners])
                nrm = np.zeros(3)
                nrm[axis] = float(side)
                normals.append(nrm)
    if faces:
        return np.asarray(faces, dtype=np.int64), np.asarray(normals)
    return np.zeros((0, 4), dtype=np.int64), np.zeros((0, 3))


@dataclass
class CellMesh:
    """Hexahedral mesh of the reference cell Y x (-1, 1) with phase labels."""

    geom: CellGeometry
    n: int
    grid: _StructuredHexMesh
    nodes: np.ndarray
    elems: np.ndarray
    phase: np.ndarray
    periodic_slaves: np.ndarray
    periodic_masters: np.ndarray
    periodic_shifts: np.ndarray
    interface_faces: np.ndarray
    interface_normals: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elems(self) -> int:
        return len(self.elems)

    @property
    def spacing(self) -> np.ndarray:
        return self.grid.spacing

    @property
    def volume(self) -> float:
        """|Y_cell| = 2."""
        return self.grid.total_volume

    def gel_elems(self) -> np.ndarray:
        return np.flatnonzero(self.phase == GEL)

    def gel_nodes(self) -> np.ndarray:
        """Nodes of gel elements (where the pressure space lives), sorted."""
        if not len(self.gel_elems()):
            return np.zeros(0, dtype=np.int64)
        return np.unique(self.elems[self.gel_elems()])


def build_cell_mesh(geom: CellGeometry, n: int) -> CellMesh:
    """Structured cell mesh with n subdivisions per unit length (2n through thickness)."""
    if n < 2:
        raise GeometryError(f"cell subdivisions must satisfy n >= 2, got {n}")
    geom = geom.snapped(n)
    grid = _StructuredHexMesh((n, n, 2 * n), origin=(0.0, 0.0, -1.0), spacing=(1.0 / n, 1.0 / n, 1.0 / n))
    phase = _phase_labels(grid, geom, n)

    # periodic pairing: high in-plane faces are slaves of the low faces; the
    # high-high edge belongs to the y-face chain (slave of (i, 0) which is
    # itself an x-face slave), keeping every node a slave at most once
    nx, ny, nz = grid.nelems
    j, k = np.meshgrid(np.arange(ny + 1), np.arange(nz + 1), indexing="ij")
    sx = grid.node_id(np.full(j.size, nx), j.ravel(), k.ravel())
    mx = grid.node_id(np.zeros(j.size, dtype=int), j.ravel(), k.ravel())
    i, k = np.meshgrid(np.arange(nx), np.arange(nz + 1), indexing="ij")
    sy = grid.node_id(i.ravel(), np.full(i.size, ny), k.ravel())
    my = grid.node_id(i.ravel(), np.zeros(i.size, dtype=int), k.ravel())
    slaves = np.concatenate([sx, sy])
    masters = np.concatenate([mx, my])
    shifts = np.concatenate([np.tile([1.0, 0.0, 0.0], (len(sx), 1)), np.tile([0.0, 1.0, 0.0], (len(sy), 1))])

    mesh = CellMesh(
        geom=geom,
        n=n,
        grid=grid,
        nodes=grid.nodes,
        elems=grid.elems,
        phase=phase,
        periodic_slaves=slaves,
        periodic_masters=masters,
        periodic_shifts=shifts,
        interface_faces=None,
        interface_normals=None,
    )
    mesh.interface_faces, mesh.interface_normals = _interface_facets(grid, phase)
    return mesh


@dataclass
class MicroMesh:
    """Thin-plate mesh of omega x (-eps, eps) tiled by eps-cells of the cell mesh."""

    geom: CellGeometry
    eps: float
    omega: tuple[tuple[float, float], tuple[float, float]]
    n: int
    grid: _StructuredHexMesh
    nodes: np.ndarray
    elems: np.ndarray
    phase: np.ndarray
    n_cells: tuple[int, int]
    lateral_nodes: np.ndarray
    gel_nodes: np.ndarray           # cell-major; reshape(total_cells, n_gel_local) per cell
    gel_local_template: np.ndarray
    cell_nodes: np.ndarray          # (total_cells, cell-mesh nodes): global node ids
    cell_elems: np.ndarray          # (total_cells, cell-mesh elements): global element ids

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elems(self) -> int:
        return len(self.elems)

    @property
    def spacing(self) -> np.ndarray:
        return self.grid.spacing

    @property
    def total_cells(self) -> int:
        return self.n_cells[0] * self.n_cells[1]

    @property
    def n_gel_local(self) -> int:
        return len(self.gel_local_template)


def build_micro_mesh(geom: CellGeometry, eps: float, omega, n: int) -> MicroMesh:
    """Thin 3D mesh of omega x (-eps, eps); omega must be exactly tiled by eps-cells."""
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
    h = eps / n
    grid = _StructuredHexMesh((ncx * n, ncy * n, 2 * n), origin=(a1, a2, -eps), spacing=(h, h, h))
    phase = _phase_labels(grid, geom, n)

    nx, ny, nz = grid.nelems
    i, j, k = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), np.arange(nz + 1), indexing="ij")
    on_lateral = (i == 0) | (i == nx) | (j == 0) | (j == ny)
    lateral = grid.node_id(i[on_lateral], j[on_lateral], k[on_lateral])
    lateral = np.unique(lateral)

    # the eps-cells are translates of cell 0: a cell's global node (element)
    # ids are the cell-0 ids, in cell-mesh order, plus one per-cell offset
    lk, lj, li = np.meshgrid(np.arange(2 * n + 1), np.arange(n + 1), np.arange(n + 1), indexing="ij")
    ek, ej, ei = np.meshgrid(np.arange(2 * n), np.arange(n), np.arange(n), indexing="ij")
    cell = np.arange(ncx * ncy)
    ki, kj = cell % ncx, cell // ncx
    cell_nodes = grid.node_id(li, lj, lk).ravel() + (n * (ki + (nx + 1) * kj))[:, None]
    cell_elems = (ei + nx * (ej + ny * ek)).ravel() + (n * (ki + nx * kj))[:, None]

    # cell-local gel node template (identical for every cell), ordered
    # x-fastest to match the sorted gel node list of the matching cell mesh
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
    gel_nodes = cell_nodes[:, gel_cell_ids].ravel()

    return MicroMesh(
        geom=geom,
        eps=eps,
        omega=((a1, b1), (a2, b2)),
        n=n,
        grid=grid,
        nodes=grid.nodes,
        elems=grid.elems,
        phase=phase,
        n_cells=(ncx, ncy),
        lateral_nodes=lateral,
        gel_nodes=gel_nodes,
        gel_local_template=gel_local_nodes,
        cell_nodes=cell_nodes,
        cell_elems=cell_elems,
    )


@dataclass
class PlateMesh:
    """Conforming m x m rectangle mesh of the mid-surface omega."""

    omega: tuple[tuple[float, float], tuple[float, float]]
    m: int
    nodes: np.ndarray
    quads: np.ndarray
    boundary_nodes: np.ndarray
    spacing: tuple[float, float]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elems(self) -> int:
        return len(self.quads)

    def node_id(self, i, j):
        return i + (self.m + 1) * j


def build_plate_mesh(omega, m: int) -> PlateMesh:
    """Quadrilateral mid-surface mesh with m subdivisions per edge."""
    if m < 2:
        raise GeometryError(f"plate subdivisions must satisfy m >= 2, got {m}")
    (a1, b1), (a2, b2) = omega
    hx, hy = (b1 - a1) / m, (b2 - a2) / m
    i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    order = np.argsort((i + (m + 1) * j).ravel(), kind="stable")
    nodes = np.stack([a1 + i.ravel() * hx, a2 + j.ravel() * hy], axis=-1)[order]
    ei, ej = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    ei, ej = ei.ravel(), ej.ravel()
    eorder = np.argsort(ei + m * ej, kind="stable")
    ei, ej = ei[eorder], ej[eorder]
    nid = lambda a, b: a + (m + 1) * b
    quads = np.stack([nid(ei, ej), nid(ei + 1, ej), nid(ei + 1, ej + 1), nid(ei, ej + 1)], axis=-1)
    bmask = (i == 0) | (i == m) | (j == 0) | (j == m)
    boundary = np.unique(nid(i[bmask], j[bmask]))
    return PlateMesh(
        omega=((a1, b1), (a2, b2)),
        m=m,
        nodes=nodes,
        quads=quads.astype(np.int64),
        boundary_nodes=boundary,
        spacing=(hx, hy),
    )

