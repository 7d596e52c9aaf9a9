import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poroplate import cell, fem, micro
from poroplate.errors import AssemblyError, MaterialError, SolverError
from poroplate.fem import elements as el
from poroplate.fem.solvers import (PROJECTION_DIM, TRI_BLOCK, Kron, SolutionSpace, StepCache, _norm,
                                   jacobi, lower_inverse, march, pcg, solve_saddle, spd_inverse)
from poroplate.geometry import GEL, CellGeometry, build_cell_mesh, build_micro_mesh
from poroplate.material import BiotParams, HookeTensor, isotropic


# --------------------------------------------------------------- hex kernels

def test_stiffness_rigid_translations():
    ke = el.hex_elastic_ke((1.0, 1.0, 1.0), isotropic(1.0, 0.0))
    assert np.abs(ke.sum(axis=1)).max() < 1e-12


def test_hex_kernels_use_the_searched_contraction_path():
    # the paths searched once at import give the bits of a per-call search
    _, dN, wdet, _ = el.qp_data((0.25, 0.5, 0.125))
    B = el.strain_B(dN)
    D = isotropic(3.0, 0.3)
    K = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])
    assert np.array_equal(el.hex_elastic_ke((0.25, 0.5, 0.125), D),
                          np.einsum("q,qia,ij,qjb->ab", wdet, B, D, B, optimize=True))
    assert np.array_equal(el.hex_scalar_diffusion_ke((0.25, 0.5, 0.125), K),
                          np.einsum("q,qai,ij,qbj->ab", wdet, dN, K, dN, optimize=True))


def test_stiffness_rigid_rotation():
    ke = el.hex_elastic_ke((1.0, 1.0, 1.0), isotropic(1.0, 0.3))
    nodes = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                      (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], dtype=float)
    r = np.cross([0.0, 0.0, 1.0], nodes).reshape(-1)
    assert np.abs(ke @ r).max() < 1e-10


def test_uniaxial_patch_test(homogeneous_hooke):
    # linear displacement on a 2x2x4 block of hexes is reproduced exactly
    mesh = build_cell_mesh(CellGeometry(gel_box=None), 2)
    K = fem.assemble_elastic_stiffness(mesh, homogeneous_hooke)
    S = np.array([[0.1, 0.02, 0.0], [0.02, -0.05, 0.01], [0.0, 0.01, 0.03]])
    u_exact = (mesh.nodes @ S.T).reshape(-1)
    # fix the boundary nodes to the exact values (the lift g), solve the interior
    on_bnd = (np.isclose(mesh.nodes, mesh.nodes.min(axis=0))
              | np.isclose(mesh.nodes, mesh.nodes.max(axis=0))).any(axis=1)
    bdofs = (3 * np.flatnonzero(on_bnd)[:, None] + np.arange(3)).ravel()
    free = np.setdiff1d(np.arange(3 * mesh.n_nodes), bdofs)
    g = np.zeros(3 * mesh.n_nodes)
    g[bdofs] = u_exact[bdofs]
    u = g.copy()
    Kf = K[free][:, free]
    u[free], _ = pcg(Kf, -(K @ g)[free], tol=1e-13, precond=jacobi(Kf))
    assert np.abs(u - u_exact).max() < 1e-10


def test_mass_row_sums_and_total(cell_mesh4):
    M = fem.assemble_scalar_mass(cell_mesh4)
    assert M.sum() == pytest.approx(cell_mesh4.volume, rel=1e-12)
    # row sums = int phi_i; interior node of the uniform grid gets h^3
    w = np.asarray(M.sum(axis=1)).ravel()
    h = cell_mesh4.spacing[0]
    interior = np.all((cell_mesh4.nodes[:, :2] > 0.01) & (cell_mesh4.nodes[:, :2] < 0.99), axis=1)
    interior &= (cell_mesh4.nodes[:, 2] > -0.99) & (cell_mesh4.nodes[:, 2] < 0.99)
    assert np.allclose(w[interior], h**3, rtol=1e-12)


def test_diffusion_constants_in_kernel(cell_mesh4):
    D = fem.assemble_scalar_diffusion(cell_mesh4, np.eye(3))
    ones = np.ones(cell_mesh4.n_nodes)
    assert np.abs(D @ ones).max() < 1e-12


def test_diffusion_linear_field_energy(cell_mesh4):
    D = fem.assemble_scalar_diffusion(cell_mesh4, np.eye(3))
    p = cell_mesh4.nodes[:, 0]
    assert p @ (D @ p) == pytest.approx(cell_mesh4.volume, rel=1e-12)


def test_diffusion_anisotropic_energy(cell_mesh4):
    # K = diag(1,2,4), p = x1+x2+x3: energy = (1+2+4) * |Ycell|
    D = fem.assemble_scalar_diffusion(cell_mesh4, np.diag([1.0, 2.0, 4.0]))
    p = cell_mesh4.nodes.sum(axis=1)
    assert p @ (D @ p) == pytest.approx(7.0 * cell_mesh4.volume, rel=1e-12)


def test_diffusion_rejects_non_spd(cell_mesh4):
    with pytest.raises(MaterialError):
        fem.assemble_scalar_diffusion(cell_mesh4, np.diag([1.0, -1.0, 1.0]))


def test_non_coercive_tensor_refused(cell_mesh4):
    bad = HookeTensor(np.zeros((6, 6)), np.zeros((6, 6)))
    with pytest.raises(MaterialError):
        fem.assemble_elastic_stiffness(cell_mesh4, bad)


# ------------------------------------- Q1 tables from 1-D tables: references

# the corner-sign kernels the per-axis tables of `elements` replaced; the new
# ones do the same arithmetic in the same order, so they must be bit-identical
_CORNER_SIGNS = np.array(
    [(-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1), (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)],
    dtype=float,
)


def _hex_shape(P):
    out = np.empty((len(P), 8))
    for a in range(8):
        s = _CORNER_SIGNS[a]
        out[:, a] = 0.125 * (1 + s[0] * P[:, 0]) * (1 + s[1] * P[:, 1]) * (1 + s[2] * P[:, 2])
    return out


def _hex_grad_ref(P):
    out = np.empty((len(P), 8, 3))
    for a in range(8):
        s = _CORNER_SIGNS[a]
        f0, f1, f2 = 1 + s[0] * P[:, 0], 1 + s[1] * P[:, 1], 1 + s[2] * P[:, 2]
        out[:, a, 0] = 0.125 * s[0] * f1 * f2
        out[:, a, 1] = 0.125 * s[1] * f0 * f2
        out[:, a, 2] = 0.125 * s[2] * f0 * f1
    return out


def _quad_shape(P):
    s = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
    out = np.empty((len(P), 4))
    for a in range(4):
        out[:, a] = 0.25 * (1 + s[a, 0] * P[:, 0]) * (1 + s[a, 1] * P[:, 1])
    return out


def _quad_grad_ref(P):
    s = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
    out = np.empty((len(P), 4, 2))
    for a in range(4):
        out[:, a, 0] = 0.25 * s[a, 0] * (1 + s[a, 1] * P[:, 1])
        out[:, a, 1] = 0.25 * s[a, 1] * (1 + s[a, 0] * P[:, 0])
    return out


def _gauss_hex(n):
    x, w = el.gauss1d(n)
    P = np.array([(xi, xj, xk) for xi in x for xj in x for xk in x])
    W = np.array([wi * wj * wk for wi in w for wj in w for wk in w])
    return P, W


def _gauss_quad(n, unit=False):
    x, w = el.gauss1d(n, 0.0, 1.0) if unit else el.gauss1d(n)
    P = np.array([(xi, xj) for xi in x for xj in x])
    W = np.array([wi * wj for wi in w for wj in w])
    return P, W


def _hex_strain_B(dN):
    B = np.zeros((dN.shape[0], 6, 24))
    for a in range(8):
        dx, dy, dz = dN[:, a, 0], dN[:, a, 1], dN[:, a, 2]
        c = 3 * a
        B[:, 0, c + 0] = dx
        B[:, 1, c + 1] = dy
        B[:, 2, c + 2] = dz
        B[:, 3, c + 1] = dz
        B[:, 3, c + 2] = dy
        B[:, 4, c + 0] = dz
        B[:, 4, c + 2] = dx
        B[:, 5, c + 0] = dy
        B[:, 5, c + 1] = dx
    return B


def _quad_membrane_B(dN):
    B = np.zeros((dN.shape[0], 3, 8))
    for a in range(4):
        dx, dy = dN[:, a, 0], dN[:, a, 1]
        c = 2 * a
        B[:, 0, c + 0] = dx
        B[:, 1, c + 1] = dy
        B[:, 2, c + 0] = dy
        B[:, 2, c + 1] = dx
    return B


_Q1_REFS = {3: (_hex_shape, _hex_grad_ref, _gauss_hex, _hex_strain_B),
            2: (_quad_shape, _quad_grad_ref, _gauss_quad, _quad_membrane_B)}


@pytest.mark.parametrize("d", [2, 3])
def test_q1_basis_bit_identical_to_corner_sign_formulas(d):
    shape, grad, _, _ = _Q1_REFS[d]
    rng = np.random.default_rng(d)
    # 1,000 random points plus the corners, where a factor 1 +- x is zero
    P = np.vstack([rng.uniform(-1.0, 1.0, size=(1000, d)), 2.0 * el.CORNERS[:2**d, :d] - 1.0])
    N, dN = el.q1_basis(P)
    assert np.array_equal(N, shape(P))
    assert np.array_equal(dN, grad(P))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_tensor_rule_bit_identical_to_loop_rules(d, n):
    rule = _Q1_REFS[d][2]
    for got, ref in zip(el.tensor_rule(*el.gauss1d(n), d), rule(n)):
        assert np.array_equal(got, ref)
    if d == 2:   # the plate's rule on the unit square
        for got, ref in zip(el.tensor_rule(*el.gauss1d(n, 0.0, 1.0), 2), _gauss_quad(n, unit=True)):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("d", [2, 3])
def test_strain_B_bit_identical_to_per_node_loops(d):
    dN = np.random.default_rng(10 + d).standard_normal((7, 2**d, d))
    assert np.array_equal(el.strain_B(dN), _Q1_REFS[d][3](dN))


@pytest.mark.parametrize("spacing", [(0.25, 0.5, 0.125), (0.1, 0.3, 0.7), (0.3, 0.7)])
def test_qp_data_bit_identical_to_reference_composition(spacing):
    shape, grad, rule, _ = _Q1_REFS[len(spacing)]
    pts, wts = rule(2)
    N, dN, wdet, got_pts = el.qp_data(spacing)
    assert np.array_equal(got_pts, pts)
    assert np.array_equal(N, shape(pts))
    assert np.array_equal(dN, grad(pts) * (2.0 / np.asarray(spacing)))
    assert np.array_equal(wdet, wts * (np.prod(spacing) / 2**len(spacing)))


# ------------------------------------------------------- divergence coupling

def test_divergence_identity_field(cell_mesh4):
    # v(x) = x has div v = 3: 1^T C v = 3 |gel|
    C = fem.assemble_divergence_coupling(cell_mesh4, gel_nodes=cell_mesh4.gel_nodes)
    v = cell_mesh4.nodes.reshape(-1)
    gel_vol = (cell_mesh4.phase == GEL).sum() * cell_mesh4.elem_volume
    assert np.ones(C.shape[0]) @ (C @ v) == pytest.approx(3.0 * gel_vol, rel=1e-12)


def test_divergence_rigid_translation(cell_mesh4):
    C = fem.assemble_divergence_coupling(cell_mesh4, gel_nodes=cell_mesh4.gel_nodes)
    v = np.tile([1.0, -2.0, 0.5], cell_mesh4.n_nodes)
    assert np.abs(C @ v).max() < 1e-13


def test_divergence_theorem_facet_oracle(cell_mesh4, gel_flux):
    # independent oracle: 1^T C v equals the boundary flux over the gel
    # boundary, computed by 2x2 Gauss facet quadrature on the interface plus
    # the gel top/bottom caps
    mesh = cell_mesh4
    rng = np.random.default_rng(3)
    v = rng.standard_normal((mesh.n_nodes, 3))
    C = fem.assemble_divergence_coupling(mesh, gel_nodes=mesh.gel_nodes)
    lhs = np.ones(C.shape[0]) @ (C @ v.reshape(-1))

    total = gel_flux(mesh, v)
    assert lhs == pytest.approx(total, rel=1e-10)


# -------------------------------------------------------------- accumulation

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), ne=st.integers(0, 12),
       k=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       b=st.tuples(st.sampled_from([1, 3]), st.sampled_from([1, 3])),
       shape=st.tuples(st.integers(1, 9), st.integers(1, 9)), square=st.booleans(),
       n_labels=st.sampled_from([None, 1, 3]))
@example(seed=0, ne=6, k=(4, 3), b=(1, 1), shape=(2, 3), square=False, n_labels=3)
@example(seed=1, ne=7, k=(8, 8), b=(1, 3), shape=(4, 6), square=False, n_labels=None)
@example(seed=2, ne=9, k=(4, 4), b=(3, 3), shape=(5, 5), square=True, n_labels=3)
def test_scatter_matches_element_loop(seed, ne, k, b, shape, square, n_labels):
    # scatter/scatter_vector against a dense element loop on dofs: node ids
    # drawn from [-2, n) so rows and columns both carry dropped (negative)
    # nodes, and an element may repeat a node; b = (b, b') dofs per row and
    # column node, node-major within the element matrix
    rng = np.random.default_rng(seed)
    kr, kc = (k[0], k[0]) if square else k
    br, bc = (b[0], b[0]) if square else b
    shape = (shape[0], shape[0]) if square else shape
    rows = rng.integers(-2, shape[0], (ne, kr))
    cols = rows if square else rng.integers(-2, shape[1], (ne, kc))
    if n_labels is None:
        ke, label = rng.standard_normal((kr * br, kc * bc)), None
        ke_of = [ke] * ne
    else:
        ke, label = rng.standard_normal((n_labels, kr * br, kc * bc)), rng.integers(0, n_labels, ne)
        ke_of = ke[label]
    fe = rng.standard_normal((ne, kr))
    ref_A = np.zeros((shape[0] * br, shape[1] * bc))
    ref_F = np.zeros(shape[0])
    for e in range(ne):
        rd = (br * rows[e][:, None] + np.arange(br)).ravel()
        cd = (bc * cols[e][:, None] + np.arange(bc)).ravel()
        r, c = np.repeat(rows[e] >= 0, br), np.repeat(cols[e] >= 0, bc)
        np.add.at(ref_A, np.ix_(rd[r], cd[c]), ke_of[e][np.ix_(r, c)])
        np.add.at(ref_F, rows[e][rows[e] >= 0], fe[e][rows[e] >= 0])
    A = fem.assembly.scatter(rows, ke, ref_A.shape, cols=None if square else cols, phase=label)
    F = fem.assembly.scatter_vector(rows, fe, shape[0])
    assert A.shape == ref_A.shape and F.shape == (shape[0],)
    assert A.has_canonical_format and A.indices.dtype == np.int32
    assert np.abs(A.toarray() - ref_A).max() <= 1e-14 * max(np.abs(ref_A).max(), 1.0)
    assert np.abs(F - ref_F).max() <= 1e-14 * max(np.abs(ref_F).max(), 1.0)


def _scatter_reference(rows, ke, shape, cols=None, phase=None):
    """The plain COO sum of every element entry: only negative ids are dropped."""
    cols = rows if cols is None else cols
    br, bc = ke.shape[-2] // rows.shape[1], ke.shape[-1] // cols.shape[1]
    rd = (br * rows[:, :, None] + np.arange(br)).reshape(len(rows), -1)
    cd = (bc * cols[:, :, None] + np.arange(bc)).reshape(len(cols), -1)
    vals = np.broadcast_to(ke if phase is None else ke[phase], (len(rows),) + ke.shape[-2:])
    r = np.broadcast_to(rd[:, :, None], vals.shape)
    c = np.broadcast_to(cd[:, None, :], vals.shape)
    keep = (r >= 0) & (c >= 0)
    return sp.csr_matrix((vals[keep], (r[keep], c[keep])), shape=shape)


def test_scatter_forms_drop_only_entries_inside_the_rounding_bound(
        monkeypatch, default_geom, two_phase_hooke, cell_mesh4):
    # every scatter call of assemble_micro (B, C, M, D; its norm forms are
    # evaluated, not assembled) and of the cell K_red, against the undropped
    # sum of its element entries, with the bound k eps max|ke| for k-node
    # elements
    calls, real = [], fem.assembly.scatter

    def recording(rows, ke, shape, cols=None, phase=None):
        A = real(rows, ke, shape, cols=cols, phase=phase)
        bound = rows.shape[1] * np.finfo(float).eps * np.abs(ke).max()
        calls.append((bound, A, _scatter_reference(rows, ke, shape, cols, phase)))
        return A

    monkeypatch.setattr(fem.assembly, "scatter", recording)
    biot = BiotParams(c=1.0, alpha=1.0, K=np.diag([1.0, 2.0, 0.5]))
    mesh = build_micro_mesh(default_geom, 0.25, ((0.0, 1.0), (0.0, 1.0)), 4)
    micro.assemble_micro(mesh, two_phase_hooke, biot, 0.25)
    cell.CellProblem(cell_mesh4, two_phase_hooke)
    assert len(calls) == 5
    dropped = 0
    for bound, A, ref in calls:
        assert A.has_canonical_format and A.shape == ref.shape
        assert np.abs(A - ref).max() <= bound
        assert np.abs(A.data).min() > bound
        ref.eliminate_zeros()
        dropped += ref.nnz - A.nnz
    assert dropped > 0   # the cancelled entries are gone


@settings(max_examples=12, deadline=None)
@given(k=st.floats(-10.0, 15.0), nu=st.floats(0.0, 0.45))
@example(k=15.0, nu=0.3)
def test_scatter_keeps_small_entries_across_contrast(cell_mesh4, k, nu):
    # a fiber 10^k times stiffer than the gel (k >= -10 keeps the tensor
    # coercive): the soft phase's entries, small against the largest element
    # entry, are kept wherever they are not round-off against their own rows'
    # diagonal, and keep their values
    hooke = HookeTensor(fiber=isotropic(10.0**k, 0.3), gel=isotropic(1.0, nu))
    K = fem.assemble_elastic_stiffness(cell_mesh4, hooke)
    ke = np.stack([el.hex_elastic_ke(cell_mesh4.spacing, D) for D in (hooke.fiber, hooke.gel)])
    ref = _scatter_reference(cell_mesh4.elems, ke, K.shape, phase=cell_mesh4.phase).tocoo()
    d = ref.tocsr().diagonal()
    scale = np.sqrt(d[ref.row] * d[ref.col])
    genuine = np.abs(ref.data) > 1e-12 * scale
    got = np.asarray(K[ref.row[genuine], ref.col[genuine]]).ravel()
    assert np.all(got != 0.0)
    assert np.all(np.abs(got - ref.data[genuine]) <= 1e-14 * scale[genuine])


def test_element_dofs_rejects_nodes_outside_subset(cell_mesh4):
    gel_mask, gel_nodes = cell_mesh4.phase == GEL, cell_mesh4.gel_nodes
    dofs, n = fem.assembly.element_dofs(cell_mesh4, gel_mask, gel_nodes)
    assert n == len(gel_nodes) and dofs.shape == (gel_mask.sum(), 8)
    assert np.array_equal(np.unique(dofs), np.arange(n))
    with pytest.raises(AssemblyError, match="outside the given node subset"):
        fem.assembly.element_dofs(cell_mesh4, None, gel_nodes)
    with pytest.raises(AssemblyError, match="outside the given node subset"):
        fem.assemble_scalar_source(cell_mesh4, lambda x, y, z: x, nodes=gel_nodes)


# ------------------------------------------------------------------ solvers

def test_pcg_identity():
    A = sp.eye(10, format="csr")
    b = np.arange(10.0)
    assert np.allclose(pcg(A, b, precond=jacobi(A))[0], b)


def test_pcg_poisson_closed_form():
    # -u'' = 1 on (0,1), u(0)=u(1)=0, 5 interior points, h=1/6:
    # exact nodal values of the parabola x(1-x)/2 (FD solution is exact)
    n = 5
    h = 1.0 / 6.0
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    A = sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2
    b = np.ones(n)
    x, _ = pcg(A, b, tol=1e-14, precond=jacobi(A))
    xs = h * np.arange(1, n + 1)
    assert np.allclose(x, xs * (1 - xs) / 2.0, atol=1e-12)


def test_solver_error_carries_history():
    n = 30
    A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                 format="csr")
    with pytest.raises(SolverError) as err:
        pcg(A, np.ones(n), tol=1e-30, maxiter=3)
    assert len(err.value.residuals) >= 3


def test_reduction_preserves_symmetry(cell_mesh4, two_phase_hooke, prolongation):
    # P^T K P on the periodic numbering is symmetric, and so is K_red summed on its node map
    problem = cell.CellProblem(cell_mesh4, two_phase_hooke)
    P = prolongation(problem.reducer.dof_map)
    Kr = (P.T @ fem.assemble_elastic_stiffness(cell_mesh4, two_phase_hooke) @ P).tocsr()
    for A in (Kr, problem.K_red):
        assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


def _saddle(K, C, M, rhs, **kwargs):
    """solve_saddle with C^T and the pressure block as I (x) M, M^-1 by `spd_inverse`."""
    M = M.toarray() if sp.issparse(M) else M
    return solve_saddle(K, C, C.T.tocsr(), Kron(None, M), Kron(None, spd_inverse(M, "M")), rhs,
                        precond=jacobi(K), **kwargs)


def test_saddle_decoupled_matches_spd():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8))
    K = sp.csr_matrix(A @ A.T + 8 * np.eye(8))
    M = sp.csr_matrix(np.eye(3))
    C = sp.csr_matrix((3, 8))
    bu, bp = rng.standard_normal(8), rng.standard_normal(3)
    u, p = _saddle(K, C, M, (bu, bp), tol=1e-13)
    assert np.allclose(u, pcg(K, bu, tol=1e-13, precond=jacobi(K))[0], atol=1e-10)
    assert np.allclose(p, bp)


def test_saddle_hand_built_2x2():
    # [2, -1; 1, 3] with K=2, C=1, M=3: u = (bu*3 + bp)/(2*3+1)
    K = sp.csr_matrix(np.array([[2.0]]))
    C = sp.csr_matrix(np.array([[1.0]]))
    M = sp.csr_matrix(np.array([[3.0]]))
    u, p = _saddle(K, C, M, (np.array([1.0]), np.array([2.0])), tol=1e-14)
    assert u[0] == pytest.approx(5.0 / 7.0, rel=1e-10)
    assert p[0] == pytest.approx((2.0 - 5.0 / 7.0) / 3.0, rel=1e-10)


def test_saddle_check_fails_on_a_nan_and_carries_the_cg_history():
    # decoupled: C^T is an empty sparse matrix, so a NaN in b_p reaches p but
    # neither CG's right-hand side nor its residuals; the block check must
    # fail on it rather than compare it away
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6))
    K = sp.csr_matrix(A @ A.T + 6 * np.eye(6))
    bp = np.array([1.0, np.nan, 2.0])
    with pytest.raises(SolverError, match="saddle solve block residuals") as info:
        _saddle(K, sp.csr_matrix((3, 6)), np.eye(3), (rng.standard_normal(6), bp), tol=1e-12)
    history = info.value.residuals
    assert len(history) >= 2 and history[0] == 1.0 and history[-1] <= 1e-12


def test_saddle_random_vs_dense_oracle():
    rng = np.random.default_rng(7)
    nu, npp = 12, 5
    A = rng.standard_normal((nu, nu))
    K = A @ A.T + nu * np.eye(nu)
    B = rng.standard_normal((npp, npp))
    M = B @ B.T + npp * np.eye(npp)
    C = rng.standard_normal((npp, nu))
    bu, bp = rng.standard_normal(nu), rng.standard_normal(npp)
    mono = np.block([[K, -C.T], [C, M]])
    ref = np.linalg.solve(mono, np.concatenate([bu, bp]))
    Ks = sp.csr_matrix(K)
    u, p = _saddle(Ks, sp.csr_matrix(C), M, (bu, bp), tol=1e-13)
    assert np.abs(np.concatenate([u, p]) - ref).max() < 1e-8


def test_bilinear_grid_forms_match_connectivity_loop():
    nx, ny, hx, hy = 3, 2, 0.5, 0.25
    N, dN, w, _ = el.qp_data((hx, hy))
    conn = np.array([
        [a + (nx + 1) * b, a + 1 + (nx + 1) * b, a + 1 + (nx + 1) * (b + 1), a + (nx + 1) * (b + 1)]
        for b in range(ny) for a in range(nx)
    ])
    n = (nx + 1) * (ny + 1)
    M_ref, K_ref = np.zeros((n, n)), np.zeros((n, n))
    for e in conn:
        M_ref[np.ix_(e, e)] += np.einsum("q,qa,qb->ab", w, N, N)
        K_ref[np.ix_(e, e)] += np.einsum("q,qai,qbi->ab", w, dN, dN)
    M, K = fem.assembly.bilinear_grid_forms(nx, ny, hx, hy)
    assert np.abs(M.toarray() - M_ref).max() <= 1e-15
    assert np.abs(K.toarray() - K_ref).max() <= 1e-14
    assert M.sum() == pytest.approx(nx * hx * ny * hy, rel=1e-14)


class _RepeatedBlockSolver:
    """The block-diagonal solver Kron(None, S^-1) replaced, kept as a reference."""

    def __init__(self, S, n_blocks, error):
        self._inverse = spd_inverse(S, error)
        self.block_size = self._inverse.shape[0]
        self.n_blocks = n_blocks

    def solve(self, x):
        X = x.reshape(self.n_blocks, self.block_size)
        return (X @ self._inverse.T).reshape(-1)


def _kron_apply(Ax, Sy, p):
    """The plate systems' A_x (x) S_y product that Kron replaced, kept as a reference."""
    X = p.reshape(Ax.shape[1], -1)
    return (Ax @ X @ Sy.T).reshape(-1)


def test_repeated_block_solver():
    rng = np.random.default_rng(2)
    S = rng.standard_normal((4, 4))
    S = S @ S.T + 4 * np.eye(4)
    solver = Kron(None, spd_inverse(S, "S"))
    x = rng.standard_normal(12)
    y = solver @ x
    for b in range(3):
        assert np.allclose(S @ y[4 * b:4 * (b + 1)], x[4 * b:4 * (b + 1)], atol=1e-12)
    assert np.array_equal(y, _RepeatedBlockSolver(S, 3, "S").solve(x))
    assert np.array_equal(solver(x), y)   # callable as a preconditioner


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
       a_kind=st.sampled_from(["none", "dense", "sparse"]), b_sparse=st.booleans(),
       seed=st.integers(0, 2**16))
def test_kron_matches_np_kron(shape, a_kind, b_sparse, seed):
    m, n, r, c = shape
    rng = np.random.default_rng(seed)
    A = None if a_kind == "none" else rng.standard_normal((m, n))
    if a_kind == "none":
        m = n
    B = rng.standard_normal((r, c))
    x = rng.standard_normal(n * c)
    dense = np.kron(np.eye(n) if A is None else A, B) @ x
    K = Kron(sp.csr_matrix(A) if a_kind == "sparse" else A, sp.csr_matrix(B) if b_sparse else B)
    got = K @ x
    assert got.shape == (m * r,)
    assert np.allclose(got, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max(initial=1.0))
    if a_kind == "dense" and not b_sparse:   # the old dense product, bit for bit
        assert np.array_equal(got, _kron_apply(A, B, x))


def test_spd_inverse_and_its_error():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((7, 7))
    M = X @ X.T + 7.0 * np.eye(7)
    assert np.abs(spd_inverse(M, "unused") @ M - np.eye(7)).max() <= 1e-14
    with pytest.raises(SolverError, match="cell pressure block is not positive definite"):
        spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]),
                    "cell pressure block is not positive definite")
    with pytest.raises(SolverError, match="test block is not positive definite"):
        spd_inverse(np.zeros((3, 3)), "test block is not positive definite")


@pytest.mark.parametrize("n", [1, TRI_BLOCK - 1, TRI_BLOCK, TRI_BLOCK + 1, 300, 726])
def test_lower_inverse_matches_lapack_inverse(n):
    # the blocked triangular inverse against LAPACK's LU-based inverse, on
    # both sides of the block size and at the plate Schur size of plate_m = 12
    X = np.random.default_rng(n).standard_normal((n, n))
    L = np.linalg.cholesky(X @ X.T + n * np.eye(n))
    got, ref = lower_inverse(L), np.linalg.inv(L)
    assert np.array_equal(got, np.tril(got))
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.abs(got @ L - np.eye(n)).max() <= 1e-13


def test_spd_inverse_rejects_an_inverse_that_is_not_finite():
    # LAPACK factors a block with a NaN entry without an error, into NaNs
    with pytest.raises(SolverError, match="cell pressure block is not positive definite"):
        spd_inverse(np.array([[np.nan, 0.0], [0.0, 1.0]]),
                    "cell pressure block is not positive definite")
    # a positive block whose inverse overflows
    with np.errstate(over="ignore"), pytest.raises(SolverError, match="tiny block"):
        spd_inverse(np.array([[1e-320]]), "tiny block is not positive definite")


def test_pcg_rejects_values_that_are_not_finite():
    A = sp.eye(4, format="csr")
    for bad in (np.nan, np.inf):
        with pytest.raises(SolverError, match=r"in 0 iterations \(residual nan\)"):
            pcg(A, np.array([1.0, bad, 0.0, 2.0]))
    # an operator that returns NaN: the residual is NaN after one iteration,
    # which no tolerance comparison may take for convergence
    with pytest.raises(SolverError, match=r"in 1 iterations \(residual nan\)") as info:
        pcg(lambda x: np.full_like(x, np.nan), np.ones(4))
    assert info.value.residuals[0] == 1.0 and np.isnan(info.value.residuals[-1])


def test_pcg_tells_an_underflowed_curvature_from_an_indefinite_operator():
    # p.Ap == 0 is the same underflow breakdown as r.z == 0, named with the
    # residual it stopped at; a negative p.Ap is an indefinite operator
    with pytest.raises(SolverError, match=r"^CG broke down before reaching tol=1\.0e-10: "
                                          r"p\.Ap = 0\.0e\+00 at residual 1\.000e\+00$"):
        pcg(lambda x: 0.0 * x, np.ones(4))
    with pytest.raises(SolverError, match="operator not positive definite"):
        pcg(-sp.eye(4, format="csr"), np.ones(4))


def test_load_vectors_match_the_quadrature_sum(cell_mesh4):
    # sum_q w_q N_a(q) f(q) per element, summed as the three-operand contraction
    N, _, wdet, _ = el.qp_data(cell_mesh4.spacing)
    qp = fem.assembly.qp_points(cell_mesh4)

    def f_at(x, y, z):
        return np.stack([np.sin(3 * x) * y, z - x * y, np.cos(x + 2 * z)], axis=-1)

    fe = np.einsum("q,qa,eqi->eai", wdet, N, f_at(qp[..., 0], qp[..., 1], qp[..., 2]))
    ref = fem.assembly.scatter_vector(fem.vector_dofs(cell_mesh4.elems), fe, 3 * cell_mesh4.n_nodes)
    got = fem.assemble_body_force(cell_mesh4, f_at, np.arange(cell_mesh4.n_nodes))
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    he = np.einsum("q,qa,eq->ea", wdet, N, f_at(qp[..., 0], qp[..., 1], qp[..., 2])[..., 1])
    ref = fem.assembly.scatter_vector(cell_mesh4.elems, he, cell_mesh4.n_nodes)
    got = fem.assemble_scalar_source(cell_mesh4, lambda x, y, z: z - x * y)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def test_step_cache_builds_once_per_step_size():
    cache, built = StepCache(), []

    def build(dt):
        built.append(dt)
        return [dt]

    first = cache.get(0.1, build)
    assert cache.get(0.1, build) is first
    assert cache.get(0.1 + 1e-17, build) is first   # equal after rounding to 15 digits
    cache.get(0.2, build)
    assert built == [0.1, 0.2]
    for dt in (0.0, -0.1):
        with pytest.raises(AssemblyError, match="time step must be positive"):
            cache.get(dt, build)
    assert built == [0.1, 0.2]


def test_march_records_a_row_per_state_and_retires_finished_states():
    starts = []

    def start():
        starts.append(0.0)
        return 1.0

    def run(nsteps, **retire):
        return march(start, lambda x, dt: x + dt, lambda x: {"x": x}, 1.0, nsteps, **retire)

    states, table = run(4)
    assert states == [1.0, 1.25, 1.5, 1.75, 2.0]
    assert table == [{"x": x} for x in states]
    # a retired state is replaced by what retire keeps of it, or dropped for None
    assert run(4, retire=lambda x: -x)[0] == [-1.0, -1.25, -1.5, -1.75, 2.0]
    states, table = run(4, retire=lambda x: None)
    assert states == [2.0] and len(table) == 5
    # nsteps is refused before start() builds anything
    n = len(starts)
    for nsteps in (0, -1):
        with pytest.raises(AssemblyError, match="nsteps must be >= 1"):
            run(nsteps)
    assert len(starts) == n


def test_march_names_the_step_that_fails():
    def step(x, dt):
        if x >= 1.5:
            raise SolverError("inner solve failed", [1.0, 0.5])
        return x + dt

    with pytest.raises(SolverError, match=r"^step 3 of 4, to t = 0\.75: inner solve failed$") as info:
        march(lambda: 1.0, step, lambda x: {"x": x}, 1.0, 4)
    assert info.value.residuals == [1.0, 0.5]


def test_step_cache_owner_freed_without_cycle_collector():
    class Owner:
        def __init__(self):
            self.cache = StepCache()

        def build(self, dt):
            return np.full(3, dt)

        def ops(self, dt):
            return self.cache.get(dt, self.build)

    gc.collect()
    gc.disable()
    try:
        owner = Owner()
        owner.ops(0.5)
        owner.ops(0.25)
        ref = weakref.ref(owner)
        del owner
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------- C1 element

def test_bfs_patch_test_quadratic():
    """Clamp the boundary dofs to a quadratic and recover it exactly."""
    from poroplate.geometry import build_plate_mesh

    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)

    def w(x, y):
        return 0.3 * x**2 - 0.1 * x * y + 0.2 * y**2 + 0.5 * x - y + 0.25

    def wx(x, y):
        return 0.6 * x - 0.1 * y + 0.5

    def wy(x, y):
        return -0.1 * x + 0.4 * y - 1.0

    nodes = plate.nodes
    exact = np.stack([w(nodes[:, 0], nodes[:, 1]), wx(nodes[:, 0], nodes[:, 1]),
                      wy(nodes[:, 0], nodes[:, 1]),
                      np.full(len(nodes), -0.1)], axis=-1)
    # assemble the bending stiffness with an isotropic-ish tensor
    c = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 0.35]])
    nn = plate.n_nodes
    Kb = np.zeros((4 * nn, 4 * nn))
    B_bend = -plate.E[:, 3:, 8:]
    loc = np.einsum("q,qia,ij,qjb->ab", plate.qp_w, B_bend, c, B_bend)
    for conn in plate.quads:
        dofs = (4 * conn[:, None] + np.arange(4)).ravel()
        Kb[np.ix_(dofs, dofs)] += loc
    # the clamped bending dofs, read off the plate clamp's full layout [membrane | bending]
    free = plate.reducer.dof_map[2 * nn:] >= 0
    bdofs = np.flatnonzero(~free)
    xfull = np.zeros(4 * nn)
    xfull[bdofs] = exact.reshape(-1)[bdofs]
    rhs = -Kb[np.ix_(free, ~free)] @ xfull[~free]
    xfull[free] = np.linalg.solve(Kb[np.ix_(free, free)], rhs)
    assert np.abs(xfull - exact.reshape(-1)).max() < 1e-10


def _hermite1d_all_orders(h, node, kind, xi, order):
    """The one-factor-per-call Hermite formula bfs_basis was first written with."""
    if node == 0 and kind == 0:
        table = (1 - 3 * xi**2 + 2 * xi**3, (-6 * xi + 6 * xi**2) / h, (-6 + 12 * xi) / h**2)
    elif node == 0 and kind == 1:
        table = (h * (xi - 2 * xi**2 + xi**3), 1 - 4 * xi + 3 * xi**2, (-4 + 6 * xi) / h)
    elif node == 1 and kind == 0:
        table = (3 * xi**2 - 2 * xi**3, (6 * xi - 6 * xi**2) / h, (6 - 12 * xi) / h**2)
    else:
        table = (h * (-(xi**2) + xi**3), -2 * xi + 3 * xi**2, (-2 + 6 * xi) / h)
    return table[order]


def test_bfs_basis_bit_identical_to_per_factor_formula():
    hx, hy = 0.3, 0.7
    pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(64, 2))
    for dx in range(3):
        for dy in range(3):
            ref = np.empty((len(pts), 16))
            for a, (ia, ja) in enumerate(el._BFS_NODES):
                for d, (kx, ky) in enumerate(el._BFS_KINDS):
                    ref[:, 4 * a + d] = (_hermite1d_all_orders(hx, ia, kx, pts[:, 0], dx)
                                         * _hermite1d_all_orders(hy, ja, ky, pts[:, 1], dy))
            assert np.array_equal(el.bfs_basis((hx, hy), pts, (dx, dy)), ref), (dx, dy)


def test_bfs_derivatives_bit_identical_to_bfs_basis():
    # the batched patterns share one Hermite table per axis and order
    spacing = (0.3, 0.7)
    pts = np.random.default_rng(4).uniform(0.0, 1.0, size=(64, 2))
    patterns = [(dx, dy) for dx in range(3) for dy in range(3)]
    for d, got in zip(patterns, el.bfs_derivatives(spacing, pts, patterns)):
        assert np.array_equal(got, el.bfs_basis(spacing, pts, d)), d
    B = el.bfs_bending_B(spacing, pts)
    for row, (d, scale) in enumerate((((2, 0), 1.0), ((0, 2), 1.0), ((1, 1), 2.0))):
        assert np.array_equal(B[:, row], scale * el.bfs_basis(spacing, pts, d)), d


def test_pcg_cold_start_applies_operator_once_per_iteration():
    A = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(30, 30)).tocsr()
    b = np.linspace(1.0, 2.0, 30)
    calls = []

    def apply_A(x):
        calls.append(x)
        return A @ x

    x, hist = pcg(apply_A, b, tol=1e-12)
    assert len(calls) == len(hist) - 1
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_pcg_preconditions_only_residuals_above_tolerance():
    # one preconditioner application per iteration, none for a start that
    # already meets the tolerance
    A = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(30, 30)).tocsr()
    b = np.linspace(1.0, 2.0, 30)
    calls, jac = [], jacobi(A)

    def precond(r):
        calls.append(1)
        return jac(r)

    x, hist = pcg(A, b, tol=1e-12, precond=precond)
    assert len(hist) > 2 and len(calls) == len(hist) - 1
    del calls[:]
    _, hist = pcg(A, b, tol=1e-12, x0=x, precond=precond)
    assert hist[-1] <= 1e-12 and len(hist) == 1 and calls == []
    space = SolutionSpace()
    pcg(A, b, tol=1e-12, precond=precond, space=space)
    del calls[:]
    _, hist = pcg(A, 2.0 * b, tol=1e-12, precond=precond, space=space)
    assert len(hist) == 1 and calls == []


def test_pcg_projected_start_over_successive_right_hand_sides():
    # right-hand sides that change smoothly: each solve starts from the
    # projection onto the earlier ones at no operator application, meets its
    # tolerance, and leaves an A-orthonormal space that restarts when full
    n = 60
    A = sp.diags([-1.0, 2.05, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()
    s = np.linspace(0.0, 1.0, n)
    space, calls, iters = SolutionSpace(), [], []

    def apply_A(x):
        calls.append(1)
        return A @ x

    for k in range(PROJECTION_DIM + 5):
        b = np.sin(np.pi * s * (1.0 + 0.01 * k)) + 0.1 * k * s
        del calls[:]
        x, hist = pcg(apply_A, b, tol=1e-10, space=space)
        assert len(calls) == len(hist) - 1
        assert np.linalg.norm(A @ x - b) <= 1.01e-10 * np.linalg.norm(b)
        assert 0 < len(space) <= PROJECTION_DIM
        iters.append(len(calls))
        # the images come from CG's recursion, so a short solve's correction
        # carries the recursive residual's drift, scaled up by its normalization
        X, AX = np.array(space.X).T, np.array(space.AX).T
        assert np.abs(X.T @ AX - np.eye(len(space))).max() < 1e-4
        assert np.abs(AX - A @ X).max() < 1e-4 * np.abs(AX).max()
    assert len(space) < PROJECTION_DIM   # it restarted from one solution
    assert max(iters[4:PROJECTION_DIM]) < iters[0] / 2
    # a right-hand side inside the span is solved by the start alone
    del calls[:]
    x, hist = pcg(apply_A, A @ space.X[0], tol=1e-10, space=space)
    assert calls == [] and hist[0] <= 1e-10
    with pytest.raises(ValueError, match="not both"):
        pcg(A, b, x0=np.zeros(n), space=space)


def _paired_operator():
    """A random SPD A and a dense linear T, applied together as (A v, T v)."""
    rng = np.random.default_rng(0)
    Q = rng.standard_normal((40, 40))
    A = Q @ Q.T + 40.0 * np.eye(40)
    T = rng.standard_normal((7, 40))
    return A, T, lambda v: (A @ v, T @ v)


def _side_error(T, x, tx):
    """Normwise relative error ||tx - T x|| / (||T|| ||x||) of a side image."""
    return np.linalg.norm(tx - T @ x) / (np.linalg.norm(T, 2) * np.linalg.norm(x))


def test_pcg_carries_the_side_image_of_its_solution():
    A, T, op = _paired_operator()
    n, m = T.shape[1], T.shape[0]
    s = np.linspace(0.0, 1.0, n)
    b = np.sin(np.pi * s)
    # cold start, and a start from x0 (whose side image comes with A x0)
    x, _, tx = pcg(op, b, tol=1e-12, side=m)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert _side_error(T, x, tx) <= 1e-12
    x, _, tx = pcg(op, 2.0 * b, tol=1e-12, x0=x, side=m)
    assert _side_error(T, x, tx) <= 1e-12
    # projected starts over successive right-hand sides, past PROJECTION_DIM
    space, restarted = SolutionSpace(), False
    for k in range(2 * PROJECTION_DIM):
        b = np.sin(np.pi * s * (1.0 + 0.01 * k)) + 0.1 * k * s
        full = len(space) == PROJECTION_DIM
        x, _, tx = pcg(op, b, tol=1e-10, space=space, side=m)
        assert _side_error(T, x, tx) <= 1e-12
        assert len(space.TX) == len(space.X) > 0
        if len(space) == 1:
            # a whole solution (the first, or the one a full space restarts from)
            restarted |= full
            assert _side_error(T, space.X[0], space.TX[0]) <= 1e-12
        # a short solve's correction x - x0 carries the round-off of x, scaled
        # up by its normalization; T of that round-off is in X[j] but not in
        # TX[j], which is as exact as AX[j] (both near 3e-7 here)
        for xj, txj in zip(space.X, space.TX):
            assert _side_error(T, xj, txj) <= 1e-5
    assert restarted
    # a right-hand side inside the span: T x comes from the kept images alone
    x, hist, tx = pcg(op, A @ space.X[0], tol=1e-10, space=space, side=m)
    assert len(hist) == 1 and _side_error(T, x, tx) <= 1e-12
    # a space keeps side images for all of its solutions or for none
    with pytest.raises(ValueError, match="side images"):
        pcg(A, b, tol=1e-10, space=space)
    plain = SolutionSpace()
    pcg(A, b, tol=1e-10, space=plain)
    assert plain.TX == []
    with pytest.raises(ValueError, match="side images"):
        pcg(op, b, tol=1e-10, space=plain, side=m)


def test_pcg_history_stays_second_for_plain_and_paired_operators():
    # the benchmark's tracer counts iterations as len(result[1]) - 1
    A, T, op = _paired_operator()
    b = np.linspace(1.0, 2.0, A.shape[0])
    calls = []

    def counted(v):
        calls.append(1)
        return op(v)

    plain = pcg(A, b, tol=1e-10)
    paired = pcg(counted, b, tol=1e-10, side=T.shape[0])
    assert len(plain) == 2 and len(paired) == 3
    hist = plain[1]
    assert type(hist) is list and all(type(h) is float for h in hist)
    assert hist[0] == 1.0 and hist[-1] <= 1e-10 < min(hist[:-1])
    assert paired[1] == hist and len(calls) == len(hist) - 1
    assert pcg(A, np.zeros_like(b))[1] == pcg(op, np.zeros_like(b), side=T.shape[0])[1] == [0.0]


def test_pcg_shows_the_operator_the_residual_it_serves():
    # an operator with inner solves reads the outer relative residual from the
    # caller's history list: before each application its last entry is the
    # residual of the iterate whose search direction is applied
    A = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(30, 30)).tocsr()
    b = np.linspace(1.0, 2.0, 30)
    history, seen = [], []

    def op(v):
        seen.append(history[-1])
        return A @ v

    x, hist = pcg(op, b, tol=1e-10, history=history)
    assert hist is history and seen == hist[:-1] and len(seen) > 2
    assert np.array_equal(x, pcg(A, b, tol=1e-10)[0])


def test_norm_rescales_when_the_sum_of_squares_underflows():
    v = np.full(30, 1e-170)
    assert np.linalg.norm(v) == 0.0
    assert _norm(v) == pytest.approx(1e-170 * np.sqrt(30.0), rel=1e-14)
    assert _norm(np.zeros(3)) == 0.0
    w = np.linspace(-1.0, 2.0, 30)
    assert _norm(w) == np.linalg.norm(w)


def test_bfs_interpolates_bicubic_exactly():
    from poroplate.fem.elements import bfs_basis

    hx, hy = 0.5, 0.25

    def w(x, y):
        return (1 + x + x**2 + x**3) * (2 - y + y**3)

    def wx(x, y):
        return (1 + 2 * x + 3 * x**2) * (2 - y + y**3)

    def wy(x, y):
        return (1 + x + x**2 + x**3) * (-1 + 3 * y**2)

    def wxy(x, y):
        return (1 + 2 * x + 3 * x**2) * (-1 + 3 * y**2)

    corners = [(0.0, 0.0), (hx, 0.0), (hx, hy), (0.0, hy)]
    dofs = []
    for cx, cy in corners:
        dofs += [w(cx, cy), wx(cx, cy), wy(cx, cy), wxy(cx, cy)]
    dofs = np.array(dofs)
    pts = np.random.default_rng(0).uniform(0.0, 1.0, size=(20, 2))
    vals = bfs_basis((hx, hy), pts, (0, 0)) @ dofs
    exact = w(pts[:, 0] * hx, pts[:, 1] * hy)
    assert np.abs(vals - exact).max() < 1e-12
    d2 = bfs_basis((hx, hy), pts, (2, 0)) @ dofs
    exact2 = (2 + 6 * pts[:, 0] * hx) * (2 - pts[:, 1] * hy + (pts[:, 1] * hy) ** 3)
    assert np.abs(d2 - exact2).max() < 1e-11
