import numpy as np
import pytest

from poroplate.geometry import build_plate_mesh
from poroplate.plate import build_plate_space, plate_mass, scatter_local, scatter_vector


@pytest.fixture(scope="module")
def space():
    return build_plate_space(build_plate_mesh(((0.0, 1.0), (0.0, 2.0)), 5))


def test_qp_map_matches_bilinear_interpolation(space):
    f = np.random.default_rng(0).standard_normal((space.n_nodes, 3))
    ref = space.eval_bilinear_nodal(f, space.qp_coords().reshape(-1, 2))
    assert np.abs(space.N_qp @ f - ref).max() <= 1e-14 * np.abs(ref).max()


def test_plate_mass_matches_element_loop(space):
    ref = np.zeros((space.n_nodes, space.n_nodes))
    me = np.einsum("q,qa,qb->ab", space.qp_w, space.N_bil, space.N_bil)
    for conn in space.plate.quads:
        ref[np.ix_(conn, conn)] += me
    assert np.abs(plate_mass(space) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_scatter_matches_element_loop(space):
    rng = np.random.default_rng(1)
    ne = len(space.elem_dofs)
    loc_A = rng.standard_normal((ne, 24, 24))
    loc_F = rng.standard_normal((ne, 24))
    ref_A = np.zeros((space.n_red, space.n_red))
    ref_F = np.zeros(space.n_red)
    for e, d in enumerate(space.elem_dofs):
        mask = d >= 0
        ref_A[np.ix_(d[mask], d[mask])] += loc_A[e][np.ix_(mask, mask)]
        ref_F[d[mask]] += loc_F[e][mask]
    A = np.zeros_like(ref_A)
    F = np.zeros_like(ref_F)
    scatter_local(A, space.elem_dofs, loc_A)
    scatter_vector(F, space.elem_dofs, loc_F)
    assert np.abs(A - ref_A).max() <= 1e-14 * np.abs(ref_A).max()
    assert np.abs(F - ref_F).max() <= 1e-14 * np.abs(ref_F).max()
