import numpy as np
import numpy.polynomial.polynomial as P
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


# ------------------------------------------- manufactured plate solution


def _poly2(px, py):
    """Coefficients c[i, j] of x^i y^j of the product px(x) py(y)."""
    return np.outer(px, py)


def _d(c, nx, ny):
    """d^(nx + ny) c / dx^nx dy^ny of a coefficient array c[i, j]."""
    return P.polyder(P.polyder(c, nx, axis=0), ny, axis=1)


def _isotropic_plate_fields():
    """(membrane tensor, bending tensor, exact (W1, W2, W3), loads (f1, f2, f3))
    of a clamped unit-square plate, as 2-D coefficient arrays.

    W1 and W2 vanish on the boundary, W3 and its gradient too.  The loads are
    f_m = -div(a m(W)) and f3 = div div(c k(W3)) on the engineering strains
    m = (W1,1, W2,2, W1,2 + W2,1) and curvatures k = (W3,11, W3,22, 2 W3,12).
    """
    lam, mu, D, nu = 1.3, 0.7, 0.9, 0.25
    a = np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]])
    c = D * np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]])
    bubble = P.polymul([0.0, 1.0], [1.0, -1.0])                       # x (1 - x)
    W1 = _poly2(P.polymul(bubble, [1.0, 1.0]), bubble)
    W2 = _poly2(bubble, P.polymul(bubble, [2.0, -1.0, 0.5]))
    W3 = _poly2(P.polymul(bubble, bubble), P.polymul(bubble, bubble))

    def add(*cs):
        out = np.zeros((12, 12))
        for t in cs:
            out[:t.shape[0], :t.shape[1]] += t
        return out

    m = (_d(W1, 1, 0), _d(W2, 0, 1), add(_d(W1, 0, 1), _d(W2, 1, 0)))
    N = [add(*(a[i, j] * m[j] for j in range(3))) for i in range(3)]
    f1 = -add(_d(N[0], 1, 0), _d(N[2], 0, 1))
    f2 = -add(_d(N[2], 1, 0), _d(N[1], 0, 1))
    k = (_d(W3, 2, 0), _d(W3, 0, 2), 2.0 * _d(W3, 1, 1))
    M = [add(*(c[i, j] * k[j] for j in range(3))) for i in range(3)]
    f3 = add(_d(M[0], 2, 0), 2.0 * _d(M[2], 1, 1), _d(M[1], 0, 2))
    return a, c, (W1, W2, W3), (f1, f2, f3)


def _manufactured_errors(m):
    """L2 errors of Wm and W3 of the clamped plate solve at plate_m = m."""
    from poroplate import fem, twoscale

    a, c, exact, loads = _isotropic_plate_fields()
    space = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), m)
    K = np.zeros((6, 6))
    K[:3, :3], K[3:, 3:] = a, c
    A = twoscale._plate_matrix(space, K)
    x = space.qp_coords()
    f = [P.polyval2d(x[..., 0], x[..., 1], fc) for fc in loads]        # (ne, nq) each
    loc = np.zeros((len(space.elem_dofs), 24))
    for comp in range(2):
        loc[:, comp:8:2] = (f[comp] * space.qp_w) @ space.N_bil
    loc[:, 8:] = (f[2] * space.qp_w) @ space.N_bfs
    W = np.linalg.solve(A, fem.assembly.scatter_vector(space.elem_dofs, loc, space.n_red))
    Wm, Wb = space.expand(W)
    # a 5-point Gauss rule per axis in each element, finer than the solve's
    pts, w = el.tensor_rule(*el.gauss1d(5, 0.0, 1.0), 2)
    origins = space.nodes[space.quads[:, 0]]
    xy = (origins[:, None, :] + pts * np.array(space.spacing)).reshape(-1, 2)
    wq = np.tile(w * np.prod(space.spacing), len(origins))
    vm, _ = space.eval_membrane(Wm, xy)
    v3 = space.eval_bending(Wb, xy)[0]
    ex = [P.polyval2d(xy[:, 0], xy[:, 1], e) for e in exact]
    e_m = np.sqrt(wq @ ((vm[:, 0] - ex[0]) ** 2 + (vm[:, 1] - ex[1]) ** 2))
    e_3 = np.sqrt(wq @ (v3 - ex[2]) ** 2)
    return e_m, e_3


def test_clamped_plate_manufactured_solution_converges_at_optimal_rates():
    # bilinear membrane: L2 rate 2; Bogner-Fox-Schmit deflection: L2 rate 4
    errs = np.array([_manufactured_errors(m) for m in (4, 8, 16)])
    rates = np.log2(errs[:-1] / errs[1:])
    assert np.all((1.9 <= rates[:, 0]) & (rates[:, 0] <= 2.1)), rates
    assert np.all((3.8 <= rates[:, 1]) & (rates[:, 1] <= 4.2)), rates
