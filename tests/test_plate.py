import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poroplate.fem import elements as el
from poroplate.geometry import build_plate_mesh


@pytest.fixture(scope="module")
def plate():
    return build_plate_mesh(((0.0, 1.0), (0.0, 2.0)), 5)


def test_qp_map_matches_bilinear_interpolation(plate):
    f = np.random.default_rng(0).standard_normal((plate.n_nodes, 3))
    ref = plate.eval_bilinear_nodal(f, plate.qp_coords().reshape(-1, 2))
    assert np.abs(plate.N_qp @ f - ref).max() <= 1e-14 * np.abs(ref).max()


def _points(plate, rng, n):
    """n random points of omega plus every plate node (element edges and corners)."""
    (a1, b1), (a2, b2) = plate.omega
    return np.vstack([rng.uniform([a1, a2], [b1, b2], size=(n, 2)), plate.nodes])


def test_bilinear_interpolation_matches_gather_form(plate):
    # the sparse interpolation matrix sums the four nodal terms in another order
    # than the (points, 4, k) gather it replaced: equal to round-off only
    rng = np.random.default_rng(2)
    pts = _points(plate, rng, 500)
    eid, loc = plate._locate(pts)
    Nv = el.q1_basis(2.0 * loc - 1.0)[0]
    for f in (rng.standard_normal((plate.n_nodes, 7)), rng.standard_normal(plate.n_nodes)):
        ref = np.einsum("pa,pa...->p...", Nv, f[plate.quads[eid]])
        got = plate.eval_bilinear_nodal(f, pts)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(f).max()


def test_eval_bending_bit_identical_to_per_pattern_basis(plate):
    # one Hermite table per axis and order serves all six derivative patterns
    rng = np.random.default_rng(3)
    Wb = rng.standard_normal((plate.n_nodes, 4))
    pts = _points(plate, rng, 300)
    eid, loc = plate._locate(pts)
    dofs = Wb[plate.quads[eid]].reshape(len(pts), 16)

    def ref(d):
        return np.einsum("pa,pa->p", el.bfs_basis(plate.spacing, loc, d), dofs)

    v, grad, curv = plate.eval_bending(Wb, pts)
    assert np.array_equal(v, ref((0, 0)))
    assert np.array_equal(grad, np.stack([ref((1, 0)), ref((0, 1))], axis=-1))
    assert np.array_equal(curv, np.stack([ref((2, 0)), ref((0, 2)), 2.0 * ref((1, 1))], axis=-1))


def test_plate_mass_matches_element_loop(plate):
    ref = np.zeros((plate.n_nodes, plate.n_nodes))
    me = np.einsum("q,qa,qb->ab", plate.qp_w, plate.N_bil, plate.N_bil)
    for conn in plate.quads:
        ref[np.ix_(conn, conn)] += me
    assert np.abs(plate.mass() - ref).max() <= 1e-14 * np.abs(ref).max()


def _per_node_clamp(plate):
    """The per-node numbering the clamp replaced: membrane dofs of the interior
    nodes in node order, then their bending dofs; (mem_red, bend_red, n_red,
    elem_dofs) with -1 at clamped dofs."""
    nn, m = plate.n_nodes, plate.m
    i, j = np.arange(nn) % (m + 1), np.arange(nn) // (m + 1)
    clamped = (i == 0) | (i == m) | (j == 0) | (j == m)
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
    conn = plate.quads
    elem_dofs = np.full((len(conn), 24), -1, dtype=np.int64)
    for a in range(4):
        for c in range(2):
            elem_dofs[:, 2 * a + c] = mem_red[conn[:, a], c]
        for d in range(4):
            elem_dofs[:, 8 + 4 * a + d] = bend_red[conn[:, a], d]
    return mem_red, bend_red, nxt, elem_dofs


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 10),
       corner=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       size=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
       seed=st.integers(0, 2**16))
def test_clamp_matches_per_node_numbering(m, corner, size, seed):
    omega = ((corner[0], corner[0] + size[0]), (corner[1], corner[1] + size[1]))
    plate = build_plate_mesh(omega, m)
    mem_red, bend_red, n_red, elem_dofs = _per_node_clamp(plate)
    assert plate.n_red == n_red == 6 * (m - 1) ** 2
    assert np.array_equal(plate.elem_dofs, elem_dofs)
    W = np.random.default_rng(seed).standard_normal(n_red)
    Wm, Wb = plate.expand(W)
    ref_m = np.where(mem_red >= 0, W[mem_red], 0.0)
    ref_b = np.where(bend_red >= 0, W[bend_red], 0.0)
    assert np.array_equal(Wm, ref_m) and np.array_equal(Wb, ref_b)
    # the clamp's restriction reads the free dofs back in the same order
    assert np.array_equal(plate.reducer.restrict(np.concatenate([Wm.ravel(), Wb.ravel()])), W)
