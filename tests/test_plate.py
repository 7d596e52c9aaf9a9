import numpy as np
import pytest

from poroplate.geometry import build_plate_mesh
from poroplate.plate import build_plate_space, plate_mass


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

