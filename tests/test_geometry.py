import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from poroplate.cell import periodic_node_map
from poroplate.errors import GeometryError
from poroplate.fem.constraints import Reducer, node_dof_map
from poroplate.geometry import (
    GEL,
    CellGeometry,
    build_cell_mesh,
    build_micro_mesh,
    build_plate_mesh,
)
from poroplate.micro import clamp_node_map


def phase_components(elems: np.ndarray, mask: np.ndarray) -> int:
    """Number of face-connected components among the masked elements."""
    sel = np.flatnonzero(mask)
    if len(sel) == 0:
        return 0
    conn = elems[sel]
    # two hexes are face-adjacent iff they share 4 nodes
    rows = np.repeat(np.arange(len(sel)), 8)
    cols = conn.ravel()
    incidence = sp.csr_matrix((np.ones(len(cols)), (rows, cols)))
    shared = incidence @ incidence.T
    adj = shared >= 4
    ncomp, _ = connected_components(adj, directed=False)
    return int(ncomp)


def test_cell_mesh_counts(cell_mesh4):
    assert cell_mesh4.n_elems == 128
    assert (cell_mesh4.phase == GEL).sum() == 32
    assert cell_mesh4.geom.gel_area == pytest.approx(0.25)
    assert cell_mesh4.geom.gel_volume == pytest.approx(0.5)


def test_cell_mesh_volume(cell_mesh4):
    vols = cell_mesh4.elem_volume * cell_mesh4.n_elems
    assert vols == pytest.approx(2.0, rel=1e-12)
    assert cell_mesh4.volume == vols


def test_gel_box_touching_boundary_errors():
    with pytest.raises(GeometryError):
        CellGeometry(gel_box=((0.0, 0.5), (0.25, 0.75)))
    # snap takes 0.05 to the boundary at n=4: fiber wall thinner than one cell
    with pytest.warns(UserWarning):
        with pytest.raises(GeometryError):
            build_cell_mesh(CellGeometry(gel_box=((0.05, 0.95), (0.05, 0.95))), 4)


def test_grid_snap_warns():
    with pytest.warns(UserWarning):
        mesh = build_cell_mesh(CellGeometry(gel_box=((0.26, 0.75), (0.25, 0.75))), 4)
    assert mesh.geom.gel_box[0][0] == pytest.approx(0.25)


def test_periodic_pairs_shift_and_involution(cell_mesh4):
    m = cell_mesh4
    node_map = periodic_node_map(m)
    master = np.unique(node_map, return_index=True)[1][node_map]   # first copy of each node
    copies = np.flatnonzero(master != np.arange(m.n_nodes))
    assert len(copies) == m.n_nodes - len(np.unique(node_map))
    # every copy node differs from its master by exactly e1, e2 or e1 + e2
    diffs = m.nodes[copies] - m.nodes[master[copies]]
    shifts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    matches = np.isclose(diffs[:, None, :], shifts, rtol=0.0, atol=1e-12).all(axis=2)
    assert np.all(matches.any(axis=1))
    # the copies cover exactly the two high faces
    on_high = (np.isclose(m.nodes[:, 0], 1.0) | np.isclose(m.nodes[:, 1], 1.0))
    assert np.array_equal(copies, np.flatnonzero(on_high))


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_periodic_numbering_against_coordinates(n):
    # two nodes share a reduced node iff their coordinates agree mod 1 in-plane
    # and in y3; the reduced nodes are 0 ... n_red - 1 with ascending first
    # copies (the numbering does not depend on the phases)
    m = build_cell_mesh(CellGeometry(gel_box=None), n)
    node_map = periodic_node_map(m)
    key = np.round(m.nodes * n).astype(int)   # grid indices; the spacing is 1/n
    key[:, :2] %= n
    _, by_coords = np.unique(key, axis=0, return_inverse=True)
    same = node_map[:, None] == node_map[None, :]
    assert np.array_equal(same, by_coords.ravel()[:, None] == by_coords.ravel()[None, :])
    assert np.array_equal(np.unique(node_map), np.arange(n * n * (2 * n + 1)))
    red = Reducer(node_dof_map(node_map, 3))
    assert red.n_reduced == 3 * n * n * (2 * n + 1)
    assert np.all(np.diff(red.free) > 0)
    assert np.array_equal(red.dof_map[red.free], np.arange(red.n_reduced))
    # the first copies are the nodes with i < n and j < n
    assert np.all(m.nodes[red.free[::3] // 3, :2] < 1.0 - 1e-12)


def test_interface_faces_walls_only(cell_mesh4, gel_facets):
    # full-span gel: interface facets are the four side walls, none on caps
    faces, normals = gel_facets(cell_mesh4)
    assert len(faces) == 64
    assert np.abs(normals[:, 2]).max() == 0.0


def test_micro_mesh_counts(micro_mesh4):
    assert micro_mesh4.n_elems == 2048
    assert micro_mesh4.total_cells == 16
    assert phase_components(micro_mesh4.elems, micro_mesh4.phase == GEL) == 16
    assert phase_components(micro_mesh4.elems, micro_mesh4.phase != GEL) == 1


def test_fractional_part_rule(micro_mesh4):
    # element containing x = (0.30, 0.30, 0): {x'/eps} = {1.2} = 0.2 -> fiber
    mesh = micro_mesh4
    centers = mesh.nodes[mesh.elems[:, 0]] + 0.5 * mesh.spacing
    e = np.argmin(np.linalg.norm(centers - [0.30, 0.30, 0.0], axis=1))
    assert mesh.phase[e] == 0
    # and a point with {x'/eps} inside the box -> gel
    e2 = np.argmin(np.linalg.norm(centers - [0.125, 0.125, 0.0], axis=1))
    assert mesh.phase[e2] == GEL


def test_tiling_consistency(micro_mesh4, cell_mesh4):
    # phase(x) = phase_cell({x'/eps}, x3/eps) exactly, element by element
    mesh = micro_mesh4
    for k in (0, 5, 15):
        emap = mesh.cell_elems[k]
        assert np.array_equal(mesh.phase[emap], cell_mesh4.phase)


@st.composite
def _admissible_cells(draw):
    """(geometry, n): a gel box and thickness span on the n-grid, or no gel."""
    n = draw(st.integers(2, 6))

    def grid_span(lo, hi):
        a = draw(st.integers(lo, hi - 1))
        return a, draw(st.integers(a + 1, hi))

    box = None
    if n > 2 and draw(st.booleans()):   # n = 2 leaves no room for a fiber wall
        box = tuple(tuple(v / n for v in grid_span(1, n - 1)) for _ in range(2))
    z = grid_span(0, 2 * n)
    return CellGeometry(gel_box=box, z_span=(-1.0 + z[0] / n, -1.0 + z[1] / n)), n


def _ref_cell_maps(mesh, cell):
    """Per-cell node, element and gel node maps, one cell at a time."""
    n = mesh.n
    ki, kj = cell % mesh.n_cells[0], cell // mesh.n_cells[0]
    nx, ny = mesh.nelems[0], mesh.nelems[1]
    li, lj, lk = np.meshgrid(np.arange(n + 1), np.arange(n + 1), np.arange(2 * n + 1), indexing="ij")
    nodes = np.empty((n + 1) * (n + 1) * (2 * n + 1), dtype=np.int64)
    nodes[(li + (n + 1) * (lj + (n + 1) * lk)).ravel()] = (
        (ki * n + li) + (nx + 1) * ((kj * n + lj) + (ny + 1) * lk)).ravel()
    li, lj, lk = np.meshgrid(np.arange(n), np.arange(n), np.arange(2 * n), indexing="ij")
    elems = np.empty(2 * n**3, dtype=np.int64)
    elems[(li + n * (lj + n * lk)).ravel()] = ((ki * n + li) + nx * ((kj * n + lj) + ny * lk)).ravel()
    li, lj, lk = mesh.gel_local_template.T
    gel = (ki * n + li) + (nx + 1) * ((kj * n + lj) + (ny + 1) * lk)
    return nodes, elems, gel


@pytest.mark.parametrize("eps", [0.25, 0.125])
def test_cell_tiling_matches_per_cell_maps(default_geom, eps):
    mesh = build_micro_mesh(default_geom, eps, ((0.0, 1.0), (0.0, 1.0)), 4)
    gel = mesh.gel_nodes.reshape(mesh.total_cells, mesh.n_gel_local)
    assert mesh.cell_nodes.shape == (mesh.total_cells, 5 * 5 * 9)
    assert mesh.cell_elems.shape == (mesh.total_cells, 2 * 4**3)
    for k in range(mesh.total_cells):
        nodes, elems, gel_k = _ref_cell_maps(mesh, k)
        assert np.array_equal(mesh.cell_nodes[k], nodes)
        assert np.array_equal(mesh.cell_elems[k], elems)
        assert np.array_equal(gel[k], gel_k)


@settings(max_examples=25, deadline=None)
@given(cell_geom=_admissible_cells(), eps=st.sampled_from([0.5, 0.25]))
def test_cell_tiling_is_scaled_shifted_cell(cell_geom, eps):
    # every eps-cell of the plate is the reference cell scaled by eps and shifted
    geom, n = cell_geom
    cell = build_cell_mesh(geom, n)
    omega = ((0.0, 1.0), (eps, 1.0))
    mesh = build_micro_mesh(geom, eps, omega, n)
    k = np.arange(mesh.total_cells)
    offset = np.stack([omega[0][0] + eps * (k % mesh.n_cells[0]),
                       omega[1][0] + eps * (k // mesh.n_cells[0]), np.zeros(len(k))], axis=-1)
    assert np.allclose(mesh.nodes[mesh.cell_nodes], eps * cell.nodes + offset[:, None, :],
                       rtol=0.0, atol=1e-12)
    assert np.array_equal(mesh.phase[mesh.cell_elems], np.tile(cell.phase, (len(k), 1)))
    assert np.array_equal(cell.gel_nodes, np.unique(cell.elems[cell.phase == GEL]))
    # the per-cell element and gel node maps agree with the node map
    for c in k:
        assert np.array_equal(mesh.elems[mesh.cell_elems[c]], mesh.cell_nodes[c][cell.elems])
    assert np.array_equal(mesh.gel_nodes.reshape(len(k), -1), mesh.cell_nodes[:, cell.gel_nodes])


def test_measure_additivity(micro_mesh4):
    total = micro_mesh4.elem_volume * micro_mesh4.n_elems
    assert total == pytest.approx(2 * 0.25 * 1.0, rel=1e-12)
    assert micro_mesh4.volume == total


def test_gel_never_touches_lateral(micro_mesh4):
    lateral = set(np.flatnonzero(clamp_node_map(micro_mesh4) < 0).tolist())
    gel_nodes = set(micro_mesh4.gel_nodes.tolist())
    assert not lateral & gel_nodes


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
def test_clamp_numbering_against_coordinates(default_geom, eps):
    # -1 exactly on the lateral boundary of omega = (0, 1)^2, the other nodes
    # numbered in ascending order
    m = build_micro_mesh(default_geom, eps, ((0.0, 1.0), (0.0, 1.0)), 4)
    node_map = clamp_node_map(m)
    xy = m.nodes[:, :2]
    lateral = (np.isclose(xy, 0.0, atol=1e-12) | np.isclose(xy, 1.0, atol=1e-12)).any(axis=1)
    assert np.array_equal(node_map < 0, lateral)
    assert np.array_equal(node_map[~lateral], np.arange(np.count_nonzero(~lateral)))
    red = Reducer(node_dof_map(node_map, 3))
    assert np.all(np.diff(red.free) > 0)
    assert np.array_equal(red.free, np.flatnonzero(np.repeat(~lateral, 3)))


def test_non_integer_tiling_errors(default_geom):
    with pytest.raises(GeometryError):
        build_micro_mesh(default_geom, 0.3, ((0.0, 1.0), (0.0, 1.0)), 4)


def test_plate_mesh_counts():
    pm = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 8)
    assert pm.n_nodes == 81
    assert len(pm.quads) == 64
    # the clamp removes all six dofs of the 32 boundary nodes
    assert pm.n_red == 6 * (81 - 32)
    clamped = pm.reducer.dof_map < 0
    assert np.count_nonzero(clamped[:2 * 81]) == 2 * 32
    assert np.count_nonzero(clamped[2 * 81:]) == 4 * 32
    # against the coordinates: every dof of a boundary node, membrane then bending
    on_edge = np.isclose(pm.nodes, 0.0, atol=1e-12) | np.isclose(pm.nodes, 1.0, atol=1e-12)
    edge = on_edge.any(axis=1)
    assert np.array_equal(clamped, np.concatenate([np.repeat(edge, 2), np.repeat(edge, 4)]))
    assert np.all(np.diff(pm.reducer.free) > 0)
    assert np.array_equal(pm.reducer.dof_map[pm.reducer.free], np.arange(pm.n_red))
    with pytest.raises(GeometryError):
        build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 1)


def test_micro_requires_min_subdivisions(default_geom):
    with pytest.raises(GeometryError):
        build_micro_mesh(default_geom, 0.25, ((0.0, 1.0), (0.0, 1.0)), 1)
