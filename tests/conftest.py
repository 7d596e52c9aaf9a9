import numpy as np
import pytest
import scipy.sparse as sp

from poroplate.geometry import GEL, CellGeometry, build_cell_mesh, build_micro_mesh
from poroplate.material import BiotParams, HookeTensor, LoadSpec, Poly2T, isotropic


@pytest.fixture(scope="session")
def default_geom():
    return CellGeometry()


@pytest.fixture(scope="session")
def two_phase_hooke():
    return HookeTensor(fiber=isotropic(10.0, 0.3), gel=isotropic(1.0, 0.35))


@pytest.fixture(scope="session")
def homogeneous_hooke():
    return HookeTensor(fiber=isotropic(1.0, 0.3), gel=isotropic(1.0, 0.3))


@pytest.fixture(scope="session")
def biot():
    return BiotParams(c=1.0, alpha=1.0, K=np.eye(3))


@pytest.fixture(scope="session")
def cell_mesh4(default_geom):
    return build_cell_mesh(default_geom, 4)


@pytest.fixture(scope="session")
def micro_mesh4(default_geom):
    return build_micro_mesh(default_geom, 0.25, ((0.0, 1.0), (0.0, 1.0)), 4)


@pytest.fixture(scope="session")
def ramp_loads():
    return LoadSpec(f1=Poly2T([(0.5, 0, 0, 1)]), f3=Poly2T([(1.0, 0, 0, 1)]),
                    h=Poly2T([(1.0, 0, 0, 1)]))


def _prolongation(dof_map):
    """The 0/1 matrix P with full = P @ reduced of a dof map (-1 where eliminated),
    for references that assemble on every dof and reduce as P^T A P."""
    rows = np.flatnonzero(dof_map >= 0)
    return sp.csr_matrix((np.ones(len(rows)), (rows, dof_map[rows])),
                         shape=(len(dof_map), dof_map.max() + 1))


@pytest.fixture(scope="session")
def prolongation():
    return _prolongation


# ------------------------------------------------------ facet-flux oracle
# An independent check of the divergence coupling: by the divergence theorem
# int_gel div v equals the flux of v out of the gel, summed here face by face
# with 2x2 Gauss quadrature on the bilinear quads.

# corners (i, j, k offsets) of the brick face on each (axis, side), cyclic
_FACE_CORNERS = {
    (0, -1): [(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1)],
    (0, +1): [(1, 0, 0), (1, 0, 1), (1, 1, 1), (1, 1, 0)],
    (1, -1): [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 0)],
    (1, +1): [(0, 1, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)],
    (2, -1): [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
    (2, +1): [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 1)],
}


def _gel_facets(mesh, outer=False):
    """(faces (nf, 4) node ids, normals (nf, 3)) of the faces between gel and
    fiber bricks, normals out of the gel; with `outer`, also the gel faces on
    the mesh boundary."""
    nx, ny, nz = mesh.nelems
    dims = (nx, ny, nz)
    faces, normals = [], []
    for e in np.flatnonzero(mesh.phase == GEL):
        ijk = (e % nx, (e // nx) % ny, e // (nx * ny))
        for (axis, side), corners in _FACE_CORNERS.items():
            nb = list(ijk)
            nb[axis] += side
            if not 0 <= nb[axis] < dims[axis]:
                if not outer:
                    continue
            elif mesh.phase[nb[0] + nx * (nb[1] + ny * nb[2])] == GEL:
                continue
            faces.append([(ijk[0] + di) + (nx + 1) * ((ijk[1] + dj) + (ny + 1) * (ijk[2] + dk))
                          for di, dj, dk in corners])
            normals.append(side * np.eye(3)[axis])
    return np.array(faces, dtype=np.int64).reshape(-1, 4), np.array(normals).reshape(-1, 3)


def _face_flux(nodes_xyz, vals, normal):
    """int vals . normal over the bilinear quad with cyclic vertices nodes_xyz."""
    gq = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    flux = 0.0
    for a in gq:
        for b in gq:
            N = 0.25 * np.array([(1 - a) * (1 - b), (1 + a) * (1 - b),
                                 (1 + a) * (1 + b), (1 - a) * (1 + b)])
            dxa = nodes_xyz.T @ (0.25 * np.array([-(1 - b), (1 - b), (1 + b), -(1 + b)]))
            dxb = nodes_xyz.T @ (0.25 * np.array([-(1 - a), -(1 + a), (1 + a), (1 - a)]))
            area = np.linalg.norm(np.cross(dxa, dxb))
            flux += area * float((N @ vals) @ normal)
    return flux


def _gel_flux(mesh, v):
    """Flux of the nodal vector field v (n_nodes, 3) out of the gel phase."""
    faces, normals = _gel_facets(mesh, outer=True)
    return sum(_face_flux(mesh.nodes[face], v[face], nrm) for face, nrm in zip(faces, normals))


@pytest.fixture(scope="session")
def gel_facets():
    return _gel_facets


@pytest.fixture(scope="session")
def gel_flux():
    return _gel_flux
