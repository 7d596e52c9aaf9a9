import gc
import re
import weakref
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from poroplate import fem, micro, twoscale
from poroplate.cell import (
    _ENG_UNIT,
    MEMBRANE_KEYS,
    HomogenizedTensor,
    PressureCellOperator,
    divergence_moments,
    solve_cell,
    solve_correctors,
)
from poroplate.config import default_config
from poroplate.errors import AssemblyError, BudgetError, SolverError
from poroplate.fem import elements as el
from poroplate.fem.solvers import TRI_BLOCK
from poroplate.geometry import (
    GEL,
    CellGeometry,
    build_cell_mesh,
    build_micro_mesh,
    build_plate_mesh,
)
from poroplate.material import BiotParams, LoadSpec, Poly2T


def full_tensor(M: np.ndarray) -> np.ndarray:
    """Full 2x2x2x2 array of a 3x3 coefficient matrix in the engineering basis."""
    t = np.zeros((2, 2, 2, 2))
    idx = {(0, 0): 0, (1, 1): 1, (0, 1): 2, (1, 0): 2}
    for ab, I in idx.items():
        for cd, J in idx.items():
            t[ab + cd] = M[I, J]
    return t


@pytest.fixture(scope="module")
def cell_pipeline(cell_mesh4, two_phase_hooke, biot):
    return solve_cell(cell_mesh4, two_phase_hooke, biot, 1e-10)


# ------------------------------------------------------------------ unfolding

def test_unfold_constant_and_affine(micro_mesh4, cell_mesh4):
    mesh = micro_mesh4
    c = np.full(mesh.n_nodes, 3.5)
    uf = twoscale.unfold(c, mesh, cell_mesh4)
    assert np.abs(uf.data - 3.5).max() == 0.0
    # psi(x) = x1 unfolds to eps*(k1 + y1)
    uf = twoscale.unfold(mesh.nodes[:, 0], mesh, cell_mesh4)
    y1 = cell_mesh4.nodes[:, 1 - 1]
    for k in (0, 5, 15):
        k1 = k % mesh.n_cells[0]
        assert np.abs(uf.data[k] - 0.25 * (k1 + y1)).max() < 1e-14


def test_gradient_identity_random(micro_mesh4, cell_mesh4):
    rng = np.random.default_rng(0)
    for _ in range(3):
        psi = rng.standard_normal(micro_mesh4.n_nodes)
        err = twoscale.gradient_identity_error(psi, micro_mesh4, cell_mesh4)
        assert err < 1e-12 * max(1.0, np.abs(psi).max())


def test_isometry_measure_factor(micro_mesh4, cell_mesh4):
    # || Pi psi ||^2_{omega x Ycell} = (1/eps) ||psi||^2_{Omega_eps} exactly
    rng = np.random.default_rng(1)
    for _ in range(3):
        psi = rng.standard_normal(micro_mesh4.n_nodes)
        assert twoscale.isometry_error(psi, micro_mesh4, cell_mesh4) < 1e-12


def test_unfold_rejects_mismatched_grids(micro_mesh4, default_geom):
    cell8 = build_cell_mesh(default_geom, 8)
    from poroplate.errors import AssemblyError

    with pytest.raises(AssemblyError):
        twoscale.unfold(np.zeros(micro_mesh4.n_nodes), micro_mesh4, cell8)



@pytest.mark.parametrize("cell_box, micro_box", [
    # 81 against 36 gel nodes per cell: the unfolded field has the wrong width
    (((0.25, 0.75), (0.25, 0.75)), ((0.5, 0.75), (0.5, 0.75))),
    # the same gel-node count in a transposed box: only the geometry differs
    (((0.25, 0.75), (0.25, 0.5)), ((0.25, 0.5), (0.25, 0.75))),
])
def test_unfold_and_residual_reject_mismatched_geometry(cell_box, micro_box, two_phase_hooke,
                                                        biot):
    cell = build_cell_mesh(CellGeometry(gel_box=cell_box), 4)
    mm = build_micro_mesh(CellGeometry(gel_box=micro_box), 0.5, ((0.0, 1.0), (0.0, 1.0)), 4)
    with pytest.raises(AssemblyError, match="not matched") as err:
        twoscale.unfold(np.zeros(mm.n_nodes), mm, cell)
    assert str(CellGeometry(gel_box=cell_box)) in str(err.value)
    assert str(CellGeometry(gel_box=micro_box)) in str(err.value)
    ctx = twoscale.ResidualContext(cell, solve_correctors(cell, two_phase_hooke),
                                   PressureCellOperator(cell, two_phase_hooke, biot))
    # the check comes before the macro system or state is read
    with pytest.raises(AssemblyError, match="not matched"):
        twoscale.kirchhoff_love_residual(np.zeros((mm.n_nodes, 3)), np.zeros(len(mm.gel_nodes)),
                                         mm, ctx, None, None)

# --------------------------------------------------------------- macro solver

def test_macro_zero_loads(cell_pipeline, biot):
    cs, hom, op, mom = cell_pipeline
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, LoadSpec())
    states, table = twoscale.run_macro(msys, 1.0, 4)
    assert max(r["Wm"] for r in table) == 0.0
    assert max(r["p0"] for r in table) == 0.0


def test_macro_bending_vs_independent_assembly(cell_pipeline):
    """alpha=0, b=0: the deflection block must match a from-scratch BFS solve."""
    cs, hom, op, mom = cell_pipeline
    biot0 = BiotParams(c=1.0, alpha=0.0, K=np.eye(3))
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    loads = LoadSpec(f3=Poly2T([(1.0, 0, 0, 0)]))
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot0, loads)
    state = msys.initial_state()  # static solve of the elastic block

    # independent bending assembly: 1D Hermite polynomials, full 4-index
    # contraction with the full tensor of c, same 3x3 rule as the macro space
    hx, hy = plate.spacing
    xq, wq = np.polynomial.legendre.leggauss(3)
    xq = 0.5 * (xq + 1.0)
    wq = 0.5 * wq
    P = np.polynomial.polynomial.Polynomial

    def hermite(h, node, kind):
        if node == 0 and kind == 0:
            return P([1, 0, -3, 2])
        if node == 0 and kind == 1:
            return P([0, h, -2 * h, h])
        if node == 1 and kind == 0:
            return P([0, 0, 3, -2])
        return P([0, 0, -h, h])

    nodes_loc = [(0, 0), (1, 0), (1, 1), (0, 1)]
    kinds = [(0, 0), (1, 0), (0, 1), (1, 1)]
    ctens = full_tensor(hom.c_eng)

    def d2(poly, h, order):
        q = poly
        for _ in range(order):
            q = q.deriv()
        return q, h ** (-order)

    ke = np.zeros((16, 16))
    f3e = np.zeros(16)
    for qa, wa in zip(xq, wq):
        for qb, wb in zip(xq, wq):
            w2 = wa * wb * hx * hy
            hess = np.zeros((16, 2, 2))
            vals = np.zeros(16)
            for a, (ia, ja) in enumerate(nodes_loc):
                for d, (kx, ky) in enumerate(kinds):
                    X = hermite(hx, ia, kx)
                    Y = hermite(hy, ja, ky)
                    Xd2, sx2 = d2(X, hx, 2)
                    Xd1, sx1 = d2(X, hx, 1)
                    Yd2, sy2 = d2(Y, hy, 2)
                    Yd1, sy1 = d2(Y, hy, 1)
                    dof = 4 * a + d
                    vals[dof] = X(qa) * Y(qb)
                    hess[dof, 0, 0] = Xd2(qa) * sx2 * Y(qb)
                    hess[dof, 1, 1] = X(qa) * Yd2(qb) * sy2
                    hess[dof, 0, 1] = hess[dof, 1, 0] = Xd1(qa) * sx1 * Yd1(qb) * sy1
            ke += w2 * np.einsum("aij,ijkl,bkl->ab", hess, ctens, hess)
            f3e += w2 * vals
    nn = plate.n_nodes
    K = np.zeros((4 * nn, 4 * nn))
    F = np.zeros(4 * nn)
    for conn in plate.quads:
        dofs = (4 * conn[:, None] + np.arange(4)).ravel()
        K[np.ix_(dofs, dofs)] += ke
        F[dofs] += f3e
    free = plate.reducer.dof_map[2 * nn:] >= 0   # bending block of the clamp
    w_sol = np.zeros(4 * nn)
    w_sol[free] = np.linalg.solve(K[np.ix_(free, free)], F[free])
    ref = w_sol.reshape(nn, 4)
    assert np.abs(hom.b_eng).max() < 1e-12  # z-symmetric cell decouples bending
    scale = np.abs(ref[:, 0]).max()
    assert np.abs(state.Wb - ref).max() < 1e-9 * scale
    assert np.abs(state.Wm).max() < 1e-14 * scale


def test_macro_membrane_only_keeps_w3_zero(cell_pipeline, biot):
    cs, hom, op, mom = cell_pipeline
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    loads = LoadSpec(f1=Poly2T([(1.0, 0, 0, 1)]), f2=Poly2T([(0.5, 1, 0, 1)]))
    biot0 = BiotParams(c=1.0, alpha=0.0, K=np.eye(3))
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot0, loads)
    states, _ = twoscale.run_macro(msys, 0.5, 4)
    assert np.abs(states[-1].Wb).max() < 1e-12 * max(np.abs(states[-1].Wm).max(), 1e-30)


def _B_mem(space, q):
    """(3, 8) membrane strain rows at plate quadrature point q: E's membrane block."""
    return space.E[q, :3, :8]


def _B_bend(space, q):
    """(3, 16) curvature rows (w_xx, w_yy, 2 w_xy) at q: E's bending block, negated."""
    return -space.E[q, 3:, 8:]


def _per_qp_plate_stiffness(hom, space):
    """The plate matrix A by the per-quadrature-point loop over the membrane/bending blocks."""
    a, b, c = hom.a_eng, hom.b_eng, hom.c_eng
    loc = np.zeros((24, 24))
    for q in range(len(space.qp_w)):
        Bm, Bb, w = _B_mem(space, q), _B_bend(space, q), space.qp_w[q]
        loc[:8, :8] += w * Bm.T @ a @ Bm
        loc[:8, 8:] += -w * Bm.T @ b.T @ Bb
        loc[8:, :8] += -w * Bb.T @ b @ Bm
        loc[8:, 8:] += w * Bb.T @ c @ Bb
    A = np.zeros((space.n_red, space.n_red))
    for d in space.elem_dofs:
        mask = d >= 0
        A[np.ix_(d[mask], d[mask])] += loc[np.ix_(mask, mask)]
    return A


def test_macro_stiffness_matches_per_qp_block_loop(cell_pipeline, biot):
    # a non-symmetric coupling block b tells b from b^T apart
    cs, hom, op, mom = cell_pipeline
    b = 0.05 * np.random.default_rng(5).standard_normal((3, 3))
    hom_b = HomogenizedTensor(a_eng=hom.a_eng, b_eng=b, c_eng=hom.c_eng)
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 2.0)), 4)
    msys = twoscale.assemble_macro(hom_b, op, mom, plate, biot, LoadSpec())
    ref = _per_qp_plate_stiffness(hom_b, msys.space)
    assert np.abs(msys.A - ref).max() <= 1e-13 * np.abs(ref).max()


def test_zero_steps_rejected_before_any_build(cell_pipeline, cell_mesh4, two_phase_hooke, biot):
    cs, hom, op, mom = cell_pipeline
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 3)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, LoadSpec())
    with pytest.raises(AssemblyError, match="nsteps"):
        twoscale.run_macro(msys, 0.5, 0)
    # budget_dofs=1 would refuse the oracle: nsteps is checked first
    with pytest.raises(AssemblyError, match="nsteps"):
        twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke, biot, LoadSpec(),
                                  0.5, nsteps=0, budget_dofs=1)


def test_macro_alpha_zero_per_node_pressure_ode(cell_pipeline):
    # alpha = 0: p0 at each macro node follows its own cell ODE with the
    # x'-projected source (M_x^-1 h_x); integrate it independently and compare
    cs, hom, op, mom = cell_pipeline
    biot0 = BiotParams(c=1.0, alpha=0.0, K=np.eye(3))
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    loads = LoadSpec(h=Poly2T([(1.0, 1, 0, 0)]))  # h = x1, constant in time
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot0, loads)
    T, nsteps = 0.5, 4
    states, _ = twoscale.run_macro(msys, T, nsteps)
    dt = T / nsteps
    # independent per-node integration
    hx_vec = np.zeros(plate.n_nodes)
    sp_ = msys.space
    qpc = sp_.qp_coords()
    loc = np.einsum("q,qa,eq->ea", sp_.qp_w, sp_.N_bil, qpc[..., 0])
    np.add.at(hx_vec, plate.quads.ravel(), loc.ravel())
    source_scale = np.linalg.solve(msys.M_x, hx_vec)
    M_gel = op.M_gel.toarray()
    D_gel = op.D_gel.toarray()
    S = M_gel + dt * D_gel
    p_ref = np.zeros((plate.n_nodes, op.n_gel))
    for _ in range(nsteps):
        rhs = dt * np.outer(source_scale, op.w) + p_ref @ M_gel.T
        p_ref = np.linalg.solve(S, rhs.T).T
    assert np.abs(states[-1].p - p_ref).max() < 1e-9 * max(np.abs(p_ref).max(), 1e-30)
    assert np.abs(states[-1].Wm).max() == 0.0


def test_macro_constant_source_saturates(cell_pipeline, biot):
    cs, hom, op, mom = cell_pipeline
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    loads = LoadSpec(h=Poly2T([(1.0, 0, 0, 0)]))
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, loads)
    states, table = twoscale.run_macro(msys, 8.0, 32)
    pm = [r["p_m"] for r in table]
    assert pm[1] > 0.0
    assert all(pm[i + 1] >= pm[i] - 1e-12 for i in range(len(pm) - 1))
    # the sealed gel admits no steady state under a constant source; the
    # growth *rate* saturates once the cell profile has relaxed
    increments = np.diff(pm)
    assert abs(increments[-1] - increments[-2]) / increments[-1] < 0.01
    # step residuals of the coupled equations (exact dense solve)
    dt = 8.0 / 32
    s0, s1 = states[-2], states[-1]
    Gamma = _gamma(msys)
    r1 = msys.A @ s1.W_red - Gamma.T @ s1.p.reshape(-1) - msys.F_W(s1.t)
    lhs = (Gamma @ (s1.W_red - s0.W_red)
           + (msys.M_x @ (s1.p - s0.p) @ msys.S_mass_y.T).reshape(-1)
           + dt * (msys.M_x @ s1.p @ msys.D_y.T).reshape(-1))
    r2 = lhs - dt * msys.H(s1.t)
    scale = max(np.linalg.norm(msys.F_W(s1.t)), np.linalg.norm(dt * msys.H(s1.t)))
    assert np.linalg.norm(r1) <= 1e-9 * scale
    assert np.linalg.norm(r2) <= 1e-9 * scale


def test_macro_time_steps_converge_at_first_order():
    # implicit Euler on the demo config: halving dt halves the final-W change,
    # so successive differences at nsteps = 8, 16, 32 shrink by about 2
    cfg = default_config()
    cq = solve_cell(build_cell_mesh(cfg.geom, cfg.cell_n), cfg.hooke, cfg.biot, cfg.tol_cell)
    plate = build_plate_mesh(cfg.omega, 8)
    msys = twoscale.assemble_macro(cq.hom, cq.op, cq.moments, plate, cfg.biot, cfg.loads)
    W = [twoscale.run_macro(msys, cfg.T, n)[0][-1].W_red for n in (8, 16, 32)]
    ratio = np.linalg.norm(W[0] - W[1]) / np.linalg.norm(W[1] - W[2])
    assert 1.7 <= ratio <= 2.3, ratio


# ------------------------------------------------------------------- oracle

def test_mup_zero_loads(cell_mesh4, two_phase_hooke, biot):
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    _, states, table = twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke,
                                                 biot, LoadSpec(), 0.5, 4)
    assert max(r["Wm"] for r in table) == 0.0
    assert max(r["p0"] for r in table) == 0.0


def test_mup_states_carry_no_warping(cell_mesh4, two_phase_hooke, biot, ramp_loads):
    # an oracle state is (W, p) alone: the trajectory keeps every state, none
    # holds a warping array, and a state rebuilt from W_red and p steps to the
    # same bits; the warping itself is recovered from (W, p) when wanted
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 3)
    osys, states, _ = twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke, biot,
                                                ramp_loads, 0.5, 3)
    assert len(states) == 4
    assert [f.name for f in fields(twoscale.PlateState)] == ["t", "Wm", "Wb", "p", "W_red"]
    final = states[-1]
    rebuilt = twoscale.PlateState(t=final.t, Wm=None, Wb=None, p=final.p.copy(),
                                  W_red=final.W_red.copy())
    a, b = osys.step(final, 0.125), osys.step(rebuilt, 0.125)
    assert np.array_equal(a.W_red, b.W_red) and np.array_equal(a.p, b.p)
    assert np.abs(_ref_ubar(osys, final.W_red, final.p)).max() > 0.0


def test_mup_budget_guard(cell_mesh4, two_phase_hooke, biot):
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 8)
    with pytest.raises(BudgetError):
        twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke, biot,
                                  LoadSpec(), 0.5, 2, budget_dofs=1000)


def test_mup_matches_macro(cell_pipeline, cell_mesh4, two_phase_hooke, biot, ramp_loads):
    cs, hom, op, mom = cell_pipeline
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, ramp_loads)
    _, mtable = twoscale.run_macro(msys, 0.5, 4)
    _, _, otable = twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke, biot,
                                             ramp_loads, 0.5, 4)
    for a, b in zip(mtable[1:], otable[1:]):
        for key in ("Wm", "W3", "p_m", "p0", "energy"):
            assert a[key] == pytest.approx(b[key], rel=1e-6, abs=1e-14)


def test_mup_alpha_zero_warping_is_corrector_reconstruction(
        cell_mesh4, two_phase_hooke, cell_pipeline):
    # static elastic drive: ubar at each quadrature point equals the corrector
    # combination built from E(W) (direct substitution of the cell expansion)
    cs, hom, op, mom = cell_pipeline
    biot0 = BiotParams(c=1.0, alpha=0.0, K=np.eye(3))
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    loads = LoadSpec(f1=Poly2T([(1.0, 0, 0, 0)]), f3=Poly2T([(1.0, 0, 0, 0)]))
    msys, states, _ = twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke,
                                                biot0, loads, 0.25, 2)
    st = states[-1]
    space = msys.space
    Wloc = _local_W(space, st.W_red)
    ubar = _ref_ubar(msys, st.W_red, st.p)
    red = msys.op.reducer
    chi_m = np.stack([red.restrict(cs.field("m", *k).reshape(-1))
                      for k in ((0, 0), (1, 1), (0, 1))])
    chi_b = np.stack([red.restrict(cs.field("b", *k).reshape(-1))
                      for k in ((0, 0), (1, 1), (0, 1))])
    worst = 0.0
    for e in range(len(space.elem_dofs)):
        for q in range(len(space.qp_w)):
            m_eng = _B_mem(space, q) @ Wloc[e, :8]
            k_eng = _B_bend(space, q) @ Wloc[e, 8:]
            u_d = m_eng @ chi_m - k_eng @ chi_b
            worst = max(worst, np.abs(ubar[e, q] - u_d).max())
    scale = max(np.abs(ubar).max(), 1e-30)
    assert worst < 1e-8 * scale


# ------------------------------------------------------- Kronecker coupling


@pytest.fixture(scope="module")
def coupled_m3(cell_pipeline, cell_mesh4, two_phase_hooke, biot, ramp_loads):
    cs, hom, op, mom = cell_pipeline
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 3)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, ramp_loads)
    osys = twoscale.MupSystem(cell_mesh4, plate, two_phase_hooke, biot, ramp_loads)
    return op, mom, msys, osys


def _gamma(sys):
    """Sparse Gamma = sum_k G_k (x) V[k]; row (plate node i, gel dof j) is i * ng + j."""
    return sum(sp.kron(g, v[:, None], format="csr") for g, v in zip(sys.gamma.G, sys.gamma.V))


def _element_loop_gamma(space, cm, cb, scale):
    """Gamma[(i, j), V] = scale sum_e sum_q w_q N_i(q) [m(V).cm - k(V).cb]_j."""
    ng = cm.shape[1]
    G = np.zeros((space.n_nodes * ng, space.n_red))
    for e, conn in enumerate(space.quads):
        for q in range(len(space.qp_w)):
            blk = np.concatenate([_B_mem(space, q).T @ cm, -_B_bend(space, q).T @ cb])  # (24, ng)
            for a in range(4):
                rows = slice(conn[a] * ng, (conn[a] + 1) * ng)
                for l, dof in enumerate(space.elem_dofs[e]):
                    if dof >= 0:
                        G[rows, dof] += scale * space.qp_w[q] * space.N_bil[q, a] * blk[l]
    return G


def _macro_gamma_reference(op, mom, msys, biot):
    trace = np.array([1.0, 1.0, 0.0])[:, None]
    cm = np.stack([mom.vec("m", *k) for k in MEMBRANE_KEYS]) + trace * op.w
    cb = np.stack([mom.vec("b", *k) for k in MEMBRANE_KEYS]) + trace * op.w3
    return _element_loop_gamma(msys.space, cm, cb, biot.alpha / op.cell_volume)


def test_kronecker_gamma_matches_element_loop(coupled_m3, biot):
    op, mom, msys, _ = coupled_m3
    ref = _macro_gamma_reference(op, mom, msys, biot)
    assert np.abs(_gamma(msys).toarray() - ref).max() <= 1e-13 * np.abs(ref).max()
    # the step applies Gamma and Gamma^T through the factors
    rng = np.random.default_rng(5)
    W, p = rng.standard_normal(ref.shape[1]), rng.standard_normal(ref.shape[0])
    for got, want in ((msys.gamma @ W, ref @ W), (msys.gamma.T @ p, ref.T @ p)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_coupling_operator_matches_sparse_gamma(coupled_m3):
    # every Coupling of both paths, and its transpose, against the sparse
    # matrix of the same factors
    _, _, msys, osys = coupled_m3
    rng = np.random.default_rng(8)
    for gamma in (msys.gamma, osys.gamma, _trace_coupling(osys)):
        ref = sum(sp.kron(g, v[:, None], format="csr") for g, v in zip(gamma.G, gamma.V))
        W, p = rng.standard_normal(ref.shape[1]), rng.standard_normal(ref.shape[0])
        for got, want in ((gamma @ W, ref @ W), (gamma.T @ p, ref.T @ p),
                          (gamma.T.T @ W, ref @ W)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("path", ["macro", "oracle"])
def test_plate_step_checks_its_block_equations(coupled_m3, monkeypatch, path):
    # a plate vector 1e-6 off the Schur solve misses both block equations of
    # the shared saddle check; the trajectory names the step, and the error
    # carries the Schur CG's residual history
    sys_ = coupled_m3[2 if path == "macro" else 3]
    sys_.step(sys_.initial_state(), 0.125)   # the exact step meets the check
    real_pcg = fem.solvers.pcg

    def perturbed(A, b, **kwargs):
        x, history = real_pcg(A, b, **kwargs)
        return x * (1 + 1e-6), history

    monkeypatch.setattr(fem.solvers, "pcg", perturbed)
    with pytest.raises(SolverError, match=r"^step 1 of 2, to t = 0\.125: saddle solve block "
                                          r"residuals") as info:
        fem.solvers.march(sys_.initial_state, sys_.step, sys_.norms, 0.25, 2)
    history = info.value.residuals   # the exact preconditioner: one CG iteration
    assert len(history) == 2 and history[-1] <= 1e-10


def test_kronecker_schur_matches_dense(coupled_m3, biot):
    op, mom, msys, _ = coupled_m3
    dt = float(np.random.default_rng(7).uniform(0.01, 1.0))
    S_y = msys.S_mass_y + dt * msys.D_y
    G = _macro_gamma_reference(op, mom, msys, biot)
    dense = msys.A + G.T @ np.kron(np.linalg.inv(msys.M_x), np.linalg.inv(S_y)) @ G
    got = twoscale.kron_schur(msys.A, msys.gamma, np.linalg.inv(msys.M_x), np.linalg.inv(S_y))
    assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


def test_oracle_coupling_matches_macro(coupled_m3, biot):
    # the oracle eliminates p through -Gamma_o^T built from its own cell
    # factor; it must agree with the corrector-moment Gamma of the macro path
    op, mom, msys, osys = coupled_m3
    ref = _macro_gamma_reference(op, mom, msys, biot)
    assert np.abs(_gamma(osys).toarray() - ref).max() <= 1e-8 * np.abs(ref).max()


def test_oracle_coupling_matches_its_warping_coupling(coupled_m3):
    # Gamma_o W equals the oracle's explicit coupling of a pressure-free state:
    # the direct trace part plus C ubar of the recovered warping
    _, _, _, osys = coupled_m3
    W = np.random.default_rng(3).standard_normal(osys.space.n_red)
    ubar = _ref_ubar(osys, W, np.zeros(osys.space.n_nodes * osys.ng))
    explicit = _ref_warping_coupling(osys, ubar).reshape(-1) + _trace_coupling(osys) @ W
    got = _gamma(osys) @ W
    assert np.abs(got - explicit).max() <= 1e-8 * np.abs(explicit).max()


def test_mup_energy_matches_per_qp_sum(cell_mesh4, two_phase_hooke, biot, ramp_loads):
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 3)
    osys, states, _ = twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke, biot,
                                                ramp_loads, 0.5, 2)
    st = states[-1]
    p = st.p
    c_term = biot.c * np.sum((osys.M_x @ p) * (p @ osys.M_gel_y))
    ref = c_term + _ref_elastic_energy(osys, st.W_red, st.p)
    assert osys.norms(st)["energy"] == pytest.approx(ref, rel=1e-12)


def test_systems_freed_without_cycle_collector(cell_pipeline, cell_mesh4, two_phase_hooke,
                                               biot, ramp_loads):
    cs, hom, op, mom = cell_pipeline
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 3)
    gc.collect()
    gc.disable()
    try:
        msys = twoscale.assemble_macro(hom, op, mom, plate, biot, ramp_loads)
        twoscale.run_macro(msys, 0.5, 2)
        ref = weakref.ref(msys)
        del msys
        assert ref() is None
        osys, _, _ = twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke, biot,
                                               ramp_loads, 0.5, 2)
        ref = weakref.ref(osys)
        del osys
        assert ref() is None
    finally:
        gc.enable()


def test_plate_path_calls_no_scipy_factorization(cell_pipeline, cell_mesh4, two_phase_hooke,
                                                  biot, ramp_loads, monkeypatch):
    # the macro solver and the oracle invert their dense blocks on numpy's
    # LAPACK; each scipy factorization or solve runs on scipy's own BLAS pool
    # and costs milliseconds per call, so none may run on the plate path
    import scipy.linalg
    import scipy.sparse.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy factorization or solve called on the plate path")

    pattern = re.compile(r"solve|factor|inv|^lu|^cho|^ldl|splu|spilu")
    patched = []
    for mod in (scipy.linalg, scipy.sparse.linalg):
        for name in dir(mod):
            if pattern.search(name) and callable(getattr(mod, name)):
                monkeypatch.setattr(mod, name, forbidden)
                patched.append(name)
    assert {"solve", "lu_factor", "cho_factor", "inv", "splu", "spsolve"} <= set(patched)
    cs, hom, op, mom = cell_pipeline
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, ramp_loads)
    _, mtable = twoscale.run_macro(msys, 0.5, 2)
    _, _, otable = twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke, biot,
                                             ramp_loads, 0.5, 2)
    assert mtable[-1]["W3"] > 0.0 and otable[-1]["W3"] > 0.0


def test_no_dense_lu_over_tri_block_rows(cell_mesh4, micro_mesh4, two_phase_hooke, biot,
                                         monkeypatch):
    # every dense block the program solves with is SPD and inverted by
    # `spd_inverse`, so LAPACK's LU sees only the diagonal blocks of at most
    # TRI_BLOCK rows of `lower_inverse`, and nothing calls np.linalg.solve
    inv, sizes = np.linalg.inv, []

    def checked_inv(a, *args, **kwargs):
        if len(a) > TRI_BLOCK:
            raise AssertionError(f"np.linalg.inv of {len(a)} rows")
        sizes.append(len(a))
        return inv(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "inv", checked_inv)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    # a t^0 load, so that the plate initial state solves A W = F(0)
    loads = LoadSpec(f3=Poly2T([(1.0, 0, 0, 0)]), h=Poly2T([(1.0, 0, 0, 1)]))
    _, hom, op, mom = solve_cell(cell_mesh4, two_phase_hooke, biot, 1e-10)
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, loads)
    _, mtable = twoscale.run_macro(msys, 0.5, 2)
    _, _, otable = twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke, biot,
                                             loads, 0.5, 2)
    assert mtable[0]["W3"] > 0.0 and otable[0]["W3"] > 0.0
    sys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, loads)
    for stepper in ("monolithic", "schur"):
        micro.run_transient(sys, 0.5, 2, stepper=stepper)
    micro.extend_fiber(micro_mesh4.nodes ** 2, micro_mesh4, two_phase_hooke)
    assert sizes   # the blocks did reach the wrapped inv


def test_mup_demo_oracle_fits_the_default_budget():
    # the budget counts the W and p a state holds, n_red + nn * ng: 14,415 on
    # the demo cell at plate_m = 12, well under the default 300,000
    cfg = default_config()
    plate = build_plate_mesh(cfg.omega, 12)
    osys = twoscale.MupSystem(build_cell_mesh(cfg.geom, cfg.cell_n), plate, cfg.hooke,
                              cfg.biot, cfg.loads, budget_dofs=cfg.budget_dofs)
    assert plate.n_red + plate.n_nodes * osys.ng == 14_415 <= cfg.budget_dofs


def test_mup_matches_macro_plate8(cell_pipeline, cell_mesh4, two_phase_hooke, biot, ramp_loads):
    cs, hom, op, mom = cell_pipeline
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 8)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, ramp_loads)
    _, mtable = twoscale.run_macro(msys, 0.5, 4)
    _, _, otable = twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke, biot,
                                             ramp_loads, 0.5, 4)
    for a, b in zip(mtable[1:], otable[1:]):
        for key in ("Wm", "W3", "p_m", "p0", "energy"):
            assert a[key] == pytest.approx(b[key], rel=1e-6, abs=1e-14)


def _local_W(space, W):
    """(ne, 24) local reduced coefficients of W (zeros at clamped dofs)."""
    return np.append(W, 0.0)[space.elem_dofs]


def _cell_blocks(op):
    """(r_m (3, nred), r_b (3, nred), (P0, P1, P2)): the membrane and bending
    cell right-hand sides and the averaged Voigt blocks on the engineering
    in-plane strains, of the cell operator's own `CellProblem`."""
    r_red = op.problem.r_red
    r_m, r_b = (np.stack([r_red[(kind,) + k] for k in MEMBRANE_KEYS]) for kind in "mb")
    E_eng = np.stack([_ENG_UNIT[k] for k in MEMBRANE_KEYS], axis=1)
    return r_m, r_b, tuple(E_eng.T @ D @ E_eng for D in op.problem.voigt)


def _trace_coupling(osys):
    """sum_k G_k (x) V_trace[k]: the direct div(W_L) part of the oracle coupling,
    from the traces int phi and int y3 phi scaled by alpha / |Ycell|."""
    trace = np.array([1.0, 1.0, 0.0])[:, None]
    V = osys.biot.alpha / osys.vol * np.vstack([trace * osys.op.w, trace * osys.op.w3])
    return twoscale.Coupling(osys.gamma.G, V)


def _ref_ubar(osys, W, p):
    """Per-(element, qp) warping with T_E[q] from one cell solve per qp."""
    space, op = osys.space, osys.op
    Wloc = _local_W(space, W)
    P = p.reshape(space.n_nodes, osys.ng)
    nq = len(space.qp_w)
    ubar = np.empty((len(space.elem_dofs), nq, osys.op.reducer.n_reduced))
    r_m, r_b, _ = _cell_blocks(op)
    for q in range(nq):
        RE = np.hstack([r_m.T @ _B_mem(space, q), -r_b.T @ _B_bend(space, q)])
        TE = op.solve_reduced(RE)
        for e, conn in enumerate(space.quads):
            pq = space.N_bil[q] @ P[conn]
            ubar[e, q] = osys.biot.alpha * op.U_C @ pq - TE @ Wloc[e]
    return ubar


def _ref_warping_coupling(osys, ubar):
    """(nn, ng) coupling (alpha/|Y|) sum_eq w_q N_i(q) C ubar_eq of a warping."""
    space = osys.space
    out = np.zeros((space.n_nodes, osys.ng))
    for e, conn in enumerate(space.quads):
        for q in range(len(space.qp_w)):
            cu = osys.op.C_red @ ubar[e, q]
            for a in range(4):
                out[conn[a]] += (osys.biot.alpha / osys.vol * space.qp_w[q]
                                 * space.N_bil[q, a] * cu)
    return out


def _ref_elastic_energy(osys, W, p):
    """(1/|Y|) sum_eq w_q (E(W).P.E(W) + 2 E(W).r.u + u.K u) at u = `_ref_ubar`."""
    space = osys.space
    Wloc = _local_W(space, W)
    ubar = _ref_ubar(osys, W, p)
    K = osys.op.problem.K_red
    r_m, r_b, (P0, P1, P2) = _cell_blocks(osys.op)
    elastic = 0.0
    for e in range(len(space.elem_dofs)):
        for q in range(len(space.qp_w)):
            m = _B_mem(space, q) @ Wloc[e, :8]
            k = _B_bend(space, q) @ Wloc[e, 8:]
            u = ubar[e, q]
            quad = (m @ P0 @ m - 2.0 * m @ P1 @ k + k @ P2 @ k
                    + 2.0 * (m @ r_m - k @ r_b) @ u + u @ (K @ u))
            elastic += space.qp_w[q] / osys.vol * quad
    return elastic


def _random_oracle_state(osys, seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal(osys.space.n_red)
    p = rng.standard_normal((osys.space.n_nodes, osys.ng))
    return twoscale.PlateState(t=0.0, Wm=None, Wb=None, p=p, W_red=W)


def test_oracle_reduced_energy_matches_per_qp_formula(coupled_m3):
    # the energy of a random (W, p) through the reduced forms in (W_e, P_eq)
    # against the explicit per-qp formula on the recovered warping
    _, _, _, osys = coupled_m3
    st = _random_oracle_state(osys, 11)
    ref = _ref_elastic_energy(osys, st.W_red, st.p)
    assert osys._elastic_energy(st) == pytest.approx(ref, rel=1e-12)


def test_oracle_couplings_match_per_qp_loops(coupled_m3, biot):
    # what a step carries from a random (W, p): the c-mass of p, C ubar of the
    # recovered warping and the trace coupling of W, each by per-qp loops
    _, _, _, osys = coupled_m3
    space, ng = osys.space, osys.ng
    st = _random_oracle_state(osys, 12)
    W = st.W_red
    Wloc = _local_W(space, W)
    scale = biot.alpha / osys.vol
    ref_W = np.zeros((space.n_nodes, ng))
    for e, conn in enumerate(space.quads):
        for q in range(len(space.qp_w)):
            trm = (_B_mem(space, q)[0] + _B_mem(space, q)[1]) @ Wloc[e, :8]
            trk = (_B_bend(space, q)[0] + _B_bend(space, q)[1]) @ Wloc[e, 8:]
            for a in range(4):
                wN = scale * space.qp_w[q] * space.N_bil[q, a]
                ref_W[conn[a]] += wN * (trm * osys.op.w - trk * osys.op.w3)
    got_W = (_trace_coupling(osys) @ W).reshape(space.n_nodes, ng)
    assert np.abs(got_W - ref_W).max() <= 1e-12 * np.abs(ref_W).max()
    ref_u = _ref_warping_coupling(osys, _ref_ubar(osys, W, st.p))
    mass = biot.c / osys.vol * osys.M_x @ st.p @ osys.M_gel_y.T
    ref = mass + ref_u + ref_W
    got = osys._carried(st).reshape(space.n_nodes, ng)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(ref_u).max() > 0.1 * np.abs(ref).max()


@settings(max_examples=8, deadline=None)
@given(c=st.floats(0.1, 2.0), alpha=st.floats(0.0, 1.5),
       k=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0)))
def test_mup_matches_macro_across_materials(cell_pipeline, cell_mesh4, two_phase_hooke,
                                            ramp_loads, c, alpha, k):
    cs, hom, _, _ = cell_pipeline
    biot_h = BiotParams(c=c, alpha=alpha, K=np.diag(k))
    op = PressureCellOperator(cell_mesh4, two_phase_hooke, biot_h)
    mom = divergence_moments(cs, op)
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 3)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot_h, ramp_loads)
    mstates, _ = twoscale.run_macro(msys, 0.5, 4)
    _, ostates, _ = twoscale.solve_mup_direct(cell_mesh4, plate, two_phase_hooke, biot_h,
                                              ramp_loads, 0.5, 4)
    for a, b in zip(mstates[1:], ostates[1:]):
        for fa, fb in ((a.W3, b.W3), (a.p @ op.w, b.p @ op.w)):
            assert np.abs(fa - fb).max() <= 1e-6 * np.abs(fa).max()


def test_load_cutoff_keeps_value_at_t_off(cell_pipeline, micro_mesh4, two_phase_hooke, biot):
    t_off = 0.25
    loads = LoadSpec(*(Poly2T([(1.0, 1, 0, 1)], t_off=t_off) for _ in range(4)))
    cs, hom, op, mom = cell_pipeline
    msys = twoscale.assemble_macro(hom, op, mom, build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 3),
                                   biot, loads)
    gsys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, loads)
    for fn in (gsys.F, gsys.G, msys.F_W, msys.H):
        # linear in t: the value at t_off is twice the value at t_off / 2
        assert np.abs(fn(t_off)).max() > 0.0
        np.testing.assert_allclose(fn(t_off), 2.0 * fn(0.5 * t_off), rtol=1e-14, atol=0.0)
        assert not fn(t_off + 1e-9).any()


# ------------------------------------------------------------ residual norms

def _macro_state_from_fields(plate_m, Wm_fn, Wb_fn, ng):
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), plate_m)
    nodes = plate.nodes
    Wm = Wm_fn(nodes)
    Wb = Wb_fn(nodes)
    p = np.zeros((plate.n_nodes, ng))
    W_red = plate.reducer.restrict(np.concatenate([Wm.ravel(), Wb.ravel()]))
    return plate, twoscale.PlateState(t=0.0, Wm=Wm, Wb=Wb, p=p, W_red=W_red)


def test_residual_kl_plug_in(micro_mesh4, cell_mesh4, two_phase_hooke, biot, cell_pipeline):
    # affine W3, zero membrane: the limit strain vanishes and the micro
    # plug-in field gives residuals at quadrature/interpolation error only
    cs, hom, op, mom = cell_pipeline
    b, c = 0.4, -0.7

    def Wm_fn(nodes):
        return np.zeros((len(nodes), 2))

    def Wb_fn(nodes):
        W3 = 0.2 + b * nodes[:, 0] + c * nodes[:, 1]
        out = np.zeros((len(nodes), 4))
        out[:, 0] = W3
        out[:, 1] = b
        out[:, 2] = c
        return out

    plate, mstate = _macro_state_from_fields(4, Wm_fn, Wb_fn, op.n_gel)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, LoadSpec())
    ctx = twoscale.ResidualContext(cell_mesh4, cs, op)
    eps = micro_mesh4.eps
    X = micro_mesh4.nodes
    U = np.stack([-X[:, 2] * b, -X[:, 2] * c,
                  0.2 + b * X[:, 0] + c * X[:, 1]], axis=-1) * np.array([1.0, 1.0, 1.0])
    p = np.zeros(len(micro_mesh4.gel_nodes))
    res = twoscale.kirchhoff_love_residual(U, p, micro_mesh4, ctx, msys, mstate)
    assert res["e_strain"] < 1e-12
    assert res["e_inplane"] < 1e-12
    assert res["e_deflection"] < 1e-12
    assert res["e_pressure"] < 1e-12


def test_residual_two_scale_ansatz(default_geom, homogeneous_hooke, biot):
    # constant membrane strain + the exact homogeneous-cell corrector: the
    # strain residual vanishes to solver tolerance
    cell = build_cell_mesh(default_geom, 4)
    cs, hom, op, mom = solve_cell(cell, homogeneous_hooke, biot, 1e-10)
    mesh = build_micro_mesh(default_geom, 0.25, ((0.0, 1.0), (0.0, 1.0)), 4)
    eps = 0.25
    m = np.array([[0.3, 0.1], [0.1, -0.2]])
    E, nu = 1.0, 0.3
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    gamma = -lam / (lam + 2 * mu)

    def Wm_fn(nodes):
        return nodes @ m.T

    def Wb_fn(nodes):
        return np.zeros((len(nodes), 4))

    plate, mstate = _macro_state_from_fields(4, Wm_fn, Wb_fn, op.n_gel)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, LoadSpec())
    ctx = twoscale.ResidualContext(cell, cs, op)
    X = mesh.nodes
    U = np.zeros((mesh.n_nodes, 3))
    U[:, :2] = eps * (X[:, :2] @ m.T)
    U[:, 2] = eps * gamma * np.trace(m) * X[:, 2]
    p = np.zeros(len(mesh.gel_nodes))
    res = twoscale.kirchhoff_love_residual(U, p, mesh, ctx, msys, mstate)
    assert res["e_strain"] < 1e-9
    assert res["e_inplane"] < 1e-12


def _loop_residual(U, p, micro, cell_mesh, correctors, op, msys, mstate):
    """The residual cell by cell, every plate field evaluated at every cell qp."""
    N, dN, wdet, _ = el.qp_data(cell_mesh.spacing)
    B = el.strain_B(dN)
    vdofs = fem.vector_dofs(cell_mesh.elems)
    y_q = fem.assembly.qp_points(cell_mesh)

    def strains(nodal):
        return np.einsum("qiA,eA->eqi", B, nodal.reshape(-1)[vdofs]).reshape(-1, 6)

    y = y_q.reshape(-1, 3)
    w = np.tile(wdet, len(y_q))
    chi_m = np.stack([strains(correctors.field("m", *k)) for k in MEMBRANE_KEYS])
    chi_b = np.stack([strains(correctors.field("b", *k)) for k in MEMBRANE_KEYS])
    ups = np.stack([strains(op.reducer.expand(op.U_C[:, j]).reshape(-1, 3))
                    for j in range(op.n_gel)])
    gel = np.flatnonzero(cell_mesh.phase == GEL)
    gel_dofs, ng = fem.assembly.element_dofs(cell_mesh, gel, op.gel_nodes)
    yg = y_q[gel].reshape(-1, 3)
    wg = np.tile(wdet, len(gel))
    frob = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])

    eps, space, alpha = micro.eps, msys.space, msys.biot.alpha
    U = U.reshape(-1, 3)
    (a1, _), (a2, _) = micro.omega
    e = np.zeros(4)
    for k in range(micro.total_cells):
        k1, k2 = k % micro.n_cells[0], k // micro.n_cells[0]
        nodal = U[micro.cell_nodes[k]]
        vals = np.einsum("qa,eac->eqc", N, nodal[cell_mesh.elems]).reshape(-1, 3)
        pts = np.stack([a1 + eps * (k1 + y[:, 0]), a2 + eps * (k2 + y[:, 1])], axis=-1)
        Wm, m = space.eval_membrane(mstate.Wm, pts)
        W3, grad_W3, kap = space.eval_bending(mstate.Wb, pts)
        d1 = vals[:, :2] / eps - (Wm - y[:, 2:] * grad_W3)
        d2 = vals[:, 2] - W3
        EW = np.zeros((len(pts), 6))
        EW[:, [0, 1, 5]] = m - y[:, 2:] * kap
        e_ud = np.einsum("pI,Ipc->pc", m, chi_m) - np.einsum("pI,Ipc->pc", kap, chi_b)
        e_up = alpha * np.einsum("pj,jpc->pc", space.eval_bilinear_nodal(mstate.p, pts), ups)
        d3 = strains(nodal) / eps**2 - (EW + e_ud + e_up)
        pk = p.reshape(micro.total_cells, ng)[k] / eps
        gts = np.stack([a1 + eps * (k1 + yg[:, 0]), a2 + eps * (k2 + yg[:, 1])], axis=-1)
        p0 = space.eval_bilinear_nodal(mstate.p, gts).reshape(len(gel), -1, ng)
        p0 = np.take_along_axis(p0, np.broadcast_to(gel_dofs[:, None, :], p0.shape[:2] + (8,)),
                                axis=2)
        d4 = (np.einsum("qa,ea->eq", N, pk[gel_dofs]) - np.einsum("qa,eqa->eq", N, p0)).ravel()
        e += eps**2 * np.array([w @ np.sum(d1**2, axis=1), w @ d2**2,
                                w @ (d3**2 @ frob), wg @ d4**2])
    return dict(zip(("e_inplane", "e_deflection", "e_strain", "e_pressure"), np.sqrt(e)))


@pytest.mark.parametrize("geom", [
    CellGeometry(),
    CellGeometry(gel_box=((0.25, 0.5), (0.5, 0.75)), z_span=(-0.5, 0.75)),
])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_residual_matches_per_cell_loop(geom, eps, two_phase_hooke):
    # random nonzero micro fields against a plate state with nonzero Wm, Wb
    # and p0: every term, the pressure residual and e(u_P) included, is live
    biot = BiotParams(c=0.7, alpha=0.8, K=np.eye(3))
    cell = build_cell_mesh(geom, 4)
    cs, hom, op, mom = solve_cell(cell, two_phase_hooke, biot, 1e-10)
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 3)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, LoadSpec())
    rng = np.random.default_rng(7)
    Wm, Wb = plate.expand(rng.standard_normal(plate.n_red))
    mstate = twoscale.PlateState(t=0.0, Wm=Wm, Wb=Wb,
                                 p=rng.standard_normal((plate.n_nodes, op.n_gel)),
                                 W_red=np.zeros(plate.n_red))
    mesh = build_micro_mesh(geom, eps, ((0.0, 1.0), (0.0, 1.0)), 4)
    U = rng.standard_normal((mesh.n_nodes, 3))
    p = rng.standard_normal(len(mesh.gel_nodes))
    res = twoscale.kirchhoff_love_residual(U, p, mesh, twoscale.ResidualContext(cell, cs, op),
                                           msys, mstate)
    ref = _loop_residual(U, p, mesh, cell, cs, op, msys, mstate)
    assert set(res) == set(ref)
    for key, val in ref.items():
        assert val > 0.0
        assert abs(res[key] - val) <= 1e-12 * val, key


def test_grid_order_rejects_points_off_a_tensor_grid():
    pts = np.array([[x, y, z] for z in (0.0, 1.0) for y in (0.0, 1.0) for x in (0.0, 1.0)])
    order, y_ip, y3 = twoscale._grid_order(pts[::-1])
    np.testing.assert_array_equal(pts[::-1][order],
                                  np.column_stack([np.repeat(y_ip, 2, axis=0), np.tile(y3, 4)]))
    with pytest.raises(AssemblyError, match="do not fill"):
        twoscale._grid_order(pts[1:])
    with pytest.raises(AssemblyError, match="do not fill"):
        twoscale._grid_order(np.vstack([pts[1:], pts[1]]))


# ------------------------------------------------------------------ spectrum

def test_spectrum_bounds():
    # w = 0 subspace gives the explicit diagonal form diag(2,2,4,2/3,2/3,4/3)
    # over (eta, zeta): c_min <= 2/3 and C_max >= 4; c_min stays positive
    mesh = build_cell_mesh(CellGeometry(gel_box=None), 2)
    c_min, c_max = twoscale.norm_equivalence_spectrum(mesh)
    assert 0.0 < c_min <= 2.0 / 3.0 + 1e-12
    assert c_max >= 4.0 - 1e-12


def test_spectrum_stability(default_geom):
    vals = []
    for n, geom in ((2, CellGeometry(gel_box=None)),
                    (3, CellGeometry(gel_box=((1 / 3, 2 / 3), (1 / 3, 2 / 3)))),
                    (4, default_geom)):
        mesh = build_cell_mesh(geom, n)
        c_min, _ = twoscale.norm_equivalence_spectrum(mesh)
        vals.append(c_min)
    assert min(vals) > 0.0
    assert max(vals) <= 2.0 * min(vals)


def test_mup_matches_macro_asymmetric_cell(two_phase_hooke):
    # a z-asymmetric gel produces genuine membrane/bending coupling b != 0 and
    # nontrivial Biot constants exercise every factor in the pressure blocks
    geom = CellGeometry(gel_box=((0.25, 0.75), (0.25, 0.75)), z_span=(-1.0, 0.5))
    biot2 = BiotParams(c=2.0, alpha=0.7, K=np.diag([1.0, 2.0, 4.0]))
    cell = build_cell_mesh(geom, 4)
    _, hom, op, mom = solve_cell(cell, two_phase_hooke, biot2, 1e-10)
    assert np.abs(hom.b_eng).max() > 1e-3  # coupling genuinely active
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4)
    loads = LoadSpec(f1=Poly2T([(0.5, 0, 0, 1)]), f3=Poly2T([(1.0, 0, 0, 1)]),
                     h=Poly2T([(1.0, 0, 0, 1)]))
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot2, loads)
    _, mtable = twoscale.run_macro(msys, 0.5, 6)
    _, _, otable = twoscale.solve_mup_direct(cell, plate, two_phase_hooke, biot2,
                                             loads, 0.5, 6)
    for a, b in zip(mtable[1:], otable[1:]):
        for key in ("Wm", "W3", "p_m", "p0", "energy"):
            assert a[key] == pytest.approx(b[key], rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("z_span, plate_m", [((-1.0, 1.0), 3), ((-1.0, 0.5), 4)])
def test_oracle_plate_matrix_matches_macro(z_span, plate_m, two_phase_hooke, biot):
    # the oracle's plate tensor (P_Y - r K^-1 r^T) / |Ycell|, from its own dense
    # cell inverse, against the homogenized tensor of the Jacobi-CG correctors,
    # on the demo cell and on a z-asymmetric one (b != 0)
    cell = build_cell_mesh(CellGeometry(gel_box=((0.25, 0.75), (0.25, 0.75)), z_span=z_span), 4)
    _, hom, op, mom = solve_cell(cell, two_phase_hooke, biot, 1e-10)
    plate = build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), plate_m)
    msys = twoscale.assemble_macro(hom, op, mom, plate, biot, LoadSpec())
    osys = twoscale.MupSystem(cell, plate, two_phase_hooke, biot, LoadSpec())
    assert np.abs(osys.A - msys.A).max() <= 1e-12 * np.abs(msys.A).max()


def test_micro_limit_consistency_with_biot_modulus(default_geom, two_phase_hooke):
    # a non-unit Biot modulus must carry into the limit pressure equation: the
    # unfolded residuals still shrink between two eps levels
    biot2 = BiotParams(c=2.0, alpha=1.0, K=np.eye(3))
    loads = LoadSpec(f3=Poly2T([(1.0, 0, 0, 1)]), h=Poly2T([(1.0, 0, 0, 1)]))
    rows, monotone, _ = twoscale.convergence_study(
        default_geom, two_phase_hooke, biot2, loads, ((0.0, 1.0), (0.0, 1.0)),
        [0.25, 0.125], 4, 4, 0.25, 4)
    assert rows[1]["e_pressure"] < 0.75 * rows[0]["e_pressure"]
    assert rows[1]["e_strain"] < 0.75 * rows[0]["e_strain"]
