import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poroplate import fem, micro
from poroplate.config import default_config
from poroplate.errors import AssemblyError, SolverError
from poroplate.fem import elements as el
from poroplate.fem.assembly import ElementForm, quads
from poroplate.fem.multigrid import VCycle
from poroplate.fem.solvers import jacobi
from poroplate.geometry import GEL, CellGeometry, build_micro_mesh
from poroplate.material import BiotParams, HookeTensor, LoadSpec, Poly2T, isotropic, t_degree_terms

# degree 0, 1 and 2 terms in t, and a cutoff between steps 4 (t = 0.25) and 5 of 8 on [0, 0.5]
CUTOFF_LOADS = LoadSpec(f1=Poly2T([(0.4, 0, 0, 0), (0.5, 1, 0, 1)], t_off=0.3),
                        f2=Poly2T([(-0.3, 0, 1, 2)]), f3=Poly2T([(1.0, 0, 0, 1), (0.6, 1, 1, 2)]),
                        h=Poly2T([(1.0, 0, 0, 1)]))


def _full_body_force_parts(mesh, loads, eps):
    """(deg, t_off, full-dof vector) per time degree of each load component,
    assembled on every mesh node (the identity node map)."""
    identity = np.arange(mesh.n_nodes)
    parts = []
    for comp, (poly, scale) in enumerate(zip(loads.components(), (eps, eps, eps**2))):
        for deg, spatial in t_degree_terms(poly):
            def f_at(x, y, z, comp=comp, spatial=spatial):
                v = np.zeros(x.shape + (3,))
                v[..., comp] = spatial(x, y, 0.0)
                return v
            parts.append((deg, poly.t_off,
                          scale * fem.assemble_body_force(mesh, f_at, identity)))
    return parts


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_reduced_assembly_matches_full_assembly_and_reduction(default_geom, two_phase_hooke,
                                                              biot, eps, prolongation):
    # B, C and the load parts are assembled on the reduced dofs; the reference
    # assembles them on all dofs and reduces them through P
    mesh = build_micro_mesh(default_geom, eps, ((0.0, 1.0), (0.0, 1.0)), 4)
    sysm = micro.assemble_micro(mesh, two_phase_hooke, biot, eps, CUTOFF_LOADS)
    P = prolongation(sysm.reducer.dof_map)
    B_ref = P.T @ fem.assemble_elastic_stiffness(mesh, two_phase_hooke) @ P
    C_ref = fem.assemble_divergence_coupling(mesh, gel_nodes=mesh.gel_nodes) @ P
    for A, ref in ((sysm.B, B_ref), (sysm.C, C_ref)):
        assert A.shape == ref.shape
        assert A.has_canonical_format and A.indices.dtype == A.indptr.dtype == np.int32
        assert abs(A - ref).max() <= 1e-14 * abs(ref).max()
    # the clamp removes whole nodes, so every free dof keeps its element sum
    ref_parts = _full_body_force_parts(mesh, CUTOFF_LOADS, eps)
    assert len(sysm.F.parts) == len(ref_parts) == 5 and sysm.F.n == sysm.B.shape[0]
    for (deg, t_off, vec), (ref_deg, ref_t_off, ref) in zip(sysm.F.parts, ref_parts):
        assert (deg, t_off) == (ref_deg, ref_t_off)
        assert np.array_equal(vec, sysm.reducer.restrict(ref))


def _assembled_norm_forms(mesh):
    """The strain, gradient and gel-gradient forms as `scatter` assembles them."""
    n = mesh.n_nodes
    strain = fem.assembly.scatter(mesh.elems, el.hex_elastic_ke(mesh.spacing, el.STRAIN_IDENTITY),
                                  (3 * n, 3 * n))
    grad = sp.kron(fem.assemble_scalar_diffusion(mesh, np.eye(3)), sp.identity(3), format="csr")
    gel_grad = fem.assemble_scalar_diffusion(mesh, np.eye(3), elems_mask=mesh.phase == GEL,
                                             nodes=mesh.gel_nodes)
    return strain, grad, gel_grad


def _assert_norm_forms_match_assembly(sysm, seed):
    # quad and @ of each element form against the assembled matrix, on random
    # fields, and the stacked evaluation of the norms against each form alone
    rng = np.random.default_rng(seed)
    forms = (sysm.strain_sq, sysm.grad_sq, sysm.grad_p_sq)
    for form, A in zip(forms, _assembled_norm_forms(sysm.mesh)):
        u = rng.standard_normal(A.shape[0])
        Au = A @ u
        assert np.linalg.norm(form @ u - Au) <= 1e-13 * np.linalg.norm(Au)
        assert abs(form.quad(u) - u @ Au) <= 1e-13 * abs(u @ Au)
    u = rng.standard_normal(3 * sysm.mesh.n_nodes)
    both = quads(u, sysm.strain_sq, sysm.grad_sq)
    assert both.shape == (2,)
    for got, form in zip(both, forms):
        assert abs(got - form.quad(u)) <= 1e-13 * abs(got)


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_norm_forms_match_the_assembled_matrices(default_geom, two_phase_hooke, biot, eps):
    mesh = build_micro_mesh(default_geom, eps, ((0.0, 1.0), (0.0, 1.0)), 4)
    sysm = micro.assemble_micro(mesh, two_phase_hooke, biot, eps)
    _assert_norm_forms_match_assembly(sysm, 3)
    with pytest.raises(AssemblyError, match="share their element ids"):
        quads(np.zeros(3 * mesh.n_nodes), sysm.strain_sq, sysm.grad_p_sq)


def _longdouble_norms(mesh, U, p):
    """||e(U)||^2, ||grad U||^2 and ||grad p||^2 (gel) as long-double sums of
    w_q |.|^2 at the quadrature points: every term is nonnegative."""
    _, dN, wdet, _ = el.qp_data(mesh.spacing)
    dN, wdet = dN.astype(np.longdouble), wdet.astype(np.longdouble)
    gU = np.einsum("qaj,eai->eqij", dN, U.astype(np.longdouble)[mesh.elems])
    sym = 0.5 * (gU + np.swapaxes(gU, 2, 3))
    gel_ids = fem.assembly.element_dofs(mesh, mesh.phase == GEL, mesh.gel_nodes)[0]
    gp = np.einsum("qaj,ea->eqj", dN, p.astype(np.longdouble)[gel_ids])
    return [np.einsum("q,eq->", wdet, (g**2).reshape(*g.shape[:2], -1).sum(axis=-1))
            for g in (sym, gU, gp)]


def test_norm_forms_lose_no_digits_on_nearly_constant_fields(micro_mesh4, two_phase_hooke, biot):
    # a field close to a constant, as the gel pressure of the demo run: u^T A u
    # cancels unless each element's mean is taken out first; the element forms
    # stay within 1e-14 of a long-double quadrature sum (about 1e-10 without
    # the subtraction)
    assert np.finfo(np.longdouble).eps < 1e-18
    sysm = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25)
    rng = np.random.default_rng(11)
    U = np.array([1.0, -2.0, 0.5]) + 1e-3 * rng.standard_normal((micro_mesh4.n_nodes, 3))
    p = 1.0 + 1e-3 * rng.standard_normal(sysm.n_p)
    got = [*quads(U.reshape(-1), sysm.strain_sq, sysm.grad_sq), sysm.grad_p_sq.quad(p)]
    for value, ref in zip(got, _longdouble_norms(micro_mesh4, U, p)):
        assert abs(value - float(ref)) <= 1e-14 * float(ref)


def test_element_form_must_annihilate_constants(micro_mesh4):
    # quads subtracts each element's mean, which only a form that annihilates
    # the per-component constants allows: a mass form is refused
    k_mass = el.hex_scalar_mass_ke(micro_mesh4.spacing)
    with pytest.raises(AssemblyError, match="annihilate the constant fields"):
        ElementForm(micro_mesh4.elems, k_mass)
    with pytest.raises(AssemblyError, match="annihilate the constant fields"):
        ElementForm(micro_mesh4.elems, np.kron(k_mass, np.eye(3)))
    k_grad = el.hex_scalar_diffusion_ke(micro_mesh4.spacing, np.diag([1.0, 4.0, 0.25]))
    ElementForm(micro_mesh4.elems, np.kron(k_grad, np.eye(3)))


# gel box edges and thickness spans on the n = 4 cell grid
_EDGES = st.sampled_from([(0.25, 0.5), (0.25, 0.75), (0.5, 0.75)])
_Z_SPANS = st.lists(st.sampled_from([-1.0 + 0.25 * k for k in range(9)]), min_size=2,
                    max_size=2, unique=True).map(lambda z: tuple(sorted(z)))


@settings(max_examples=5, deadline=2000)
@given(box=st.tuples(_EDGES, _EDGES), z_span=_Z_SPANS, seed=st.integers(0, 2**16))
def test_norm_forms_match_the_assembled_matrices_across_gel_boxes(box, z_span, seed):
    hooke = HookeTensor(fiber=isotropic(10.0, 0.3), gel=isotropic(1.0, 0.35))
    mesh = build_micro_mesh(CellGeometry(gel_box=box, z_span=z_span), 0.5,
                            ((0.0, 1.0), (0.0, 1.0)), 4)
    sysm = micro.assemble_micro(mesh, hooke, BiotParams(c=1.0, alpha=1.0, K=np.eye(3)), 0.5)
    _assert_norm_forms_match_assembly(sysm, seed)


def _held_sparse(obj, seen):
    """Every sparse matrix reachable from obj through the attributes of the
    package's objects and through tuples, lists and dicts."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if sp.issparse(obj):
        return [obj]
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif type(obj).__module__.startswith("poroplate") and hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [A for x in items for A in _held_sparse(x, seen)]


def test_system_holds_no_full_dof_sparse_matrix(micro_mesh4, two_phase_hooke, biot, ramp_loads):
    # the norm forms are evaluated element by element: after both steppers
    # have run, no sparse matrix the system holds, its V-cycle hierarchy and
    # step operators included, lives on all nodes or all 3 n_nodes dofs
    sysm = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, ramp_loads)
    micro.run_transient(sysm, 0.25, 2, stepper="monolithic")
    micro.run_transient(sysm, 0.25, 2, stepper="schur")
    held = _held_sparse(sysm, set())
    assert len(held) > 4 and any(A is sysm.B for A in held)
    n = micro_mesh4.n_nodes
    assert all(A.shape[0] not in (n, 3 * n) for A in held)
    assert all(type(f) is ElementForm for f in (sysm.strain_sq, sysm.grad_sq, sysm.grad_p_sq))


@pytest.fixture(scope="module")
def small_system(micro_mesh4, two_phase_hooke, biot, ramp_loads):
    return micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, ramp_loads)


def test_zero_data_uniqueness(micro_mesh4, two_phase_hooke, biot):
    sys0 = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, LoadSpec())
    traj = micro.run_transient(sys0, 1.0, 4)
    assert max(r["e_U"] for r in traj.table) == 0.0
    assert max(r["p"] for r in traj.table) == 0.0


def test_constant_pressure_in_diffusion_kernel(small_system):
    # one gel component's indicator lies in ker(D) (no-flux Neumann per cell)
    sys = small_system
    ng = sys.mesh.n_gel_local
    z = np.zeros(sys.n_p)
    z[:ng] = 1.0
    assert np.abs(sys.D @ z).max() < 1e-14


def test_diffusion_eps_scaling(micro_mesh4, two_phase_hooke, biot, ramp_loads):
    sys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, ramp_loads)
    D_unscaled = fem.assemble_scalar_diffusion(
        micro_mesh4, biot.K, elems_mask=micro_mesh4.phase == 1, nodes=micro_mesh4.gel_nodes)
    diff = sys.D - 0.25**2 * D_unscaled
    assert np.abs(diff.data).max() < 1e-14 if diff.nnz else True


def test_two_path_equivalence(small_system, micro_mesh4, two_phase_hooke, biot):
    cutoff_system = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, CUTOFF_LOADS)
    for sys in (small_system, cutoff_system):
        tr1 = micro.run_transient(sys, 0.5, 8, stepper="monolithic")
        tr2 = micro.run_transient(sys, 0.5, 8, stepper="schur")
        for a, b in zip(tr1.table[1:], tr2.table[1:]):
            assert abs(a["p"] - b["p"]) <= 1e-7 * max(b["p"], 1e-30)
            assert abs(a["e_U"] - b["e_U"]) <= 1e-7 * max(b["e_U"], 1e-30)
        assert np.linalg.norm(tr1.final.U - tr2.final.U) <= 1e-7 * np.linalg.norm(tr2.final.U)


def _step_schur_reference(sys, state, dt, tol=1e-10, basis=()):
    """The pressure-ODE step in its first form: CG on p^{n+1} from p^n, with the
    right-hand side dt G + (cM + alpha^2 C B^-1 C^T) p^n - alpha C B^-1 (F^{n+1} - F^n).

    `basis` holds the A-orthonormal pressure increments the stepper's solution
    space held before this step; CG starts from p^n plus the projection of the
    increment onto them, p^n + sum_j x_j x_j^T (rhs - A p^n), as the stepper does.
    """
    ops = sys.step_operators(dt)
    t1 = state.t + dt
    alpha, c = sys.biot.alpha, sys.biot.c

    def B_inv(v):
        return sys.solve_B(v, micro.INNER_TOL)

    F1 = sys.F(t1)
    dF = F1 - sys.F(state.t)

    def mass_like(z):
        out = c * (sys.M @ z)
        if alpha != 0.0:
            out = out + alpha**2 * (sys.C @ B_inv(sys.C.T @ z))
        return out

    def A(z):
        return mass_like(z) + dt * (sys.D @ z)

    rhs = dt * sys.G(t1) + mass_like(state.p)
    if alpha != 0.0 and np.linalg.norm(dF) > 0.0:
        rhs -= alpha * (sys.C @ B_inv(dF))
    start = state.p
    if basis:
        r = rhs - A(state.p)
        start = state.p + sum((x @ r) * x for x in basis)
    p, _ = fem.pcg(A, rhs, tol=tol, precond=ops.prec, x0=start)
    u = sys.solve_B(F1 + alpha * (sys.C.T @ p), micro.INNER_TOL, x0=state.U_red)
    return micro.MicroState(t=t1, U=sys.reducer.expand(u).reshape(-1, 3), p=p, U_red=u)


def test_schur_increment_step_matches_reference_form(micro_mesh4, two_phase_hooke, biot):
    # the stepper starts each step from its solution space, so the reference
    # is given a snapshot of that space taken before the same step
    sys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, CUTOFF_LOADS)
    dt = 0.0625
    state = ref = micro.initial_state(sys)
    for _ in range(8):
        basis = [x.copy() for x in sys.step_operators(dt).p_space.X]
        state = micro.step_schur(sys, state, dt)
        ref = _step_schur_reference(sys, ref, dt, basis=basis)
        assert state.t == ref.t
        for new, old in ((state.U_red, ref.U_red), (state.p, ref.p)):
            assert np.linalg.norm(new - old) <= 1e-12 * np.linalg.norm(old)
    assert len(sys.step_operators(dt).p_space) > 0


def test_schur_step_makes_one_B_solve_per_outer_iteration(small_system, two_phase_hooke,
                                                          ramp_loads, monkeypatch):
    sys = micro.assemble_micro(small_system.mesh, two_phase_hooke, small_system.biot,
                               0.25, ramp_loads)
    assert np.linalg.norm(sys.F(0.0)) == 0.0   # initial_state makes no B-solve
    solves, outer, final = [], [], []
    real_solve_B, real_pcg = sys.solve_B, micro.pcg

    def counting_solve_B(*args, **kwargs):
        solves.append(1)
        if kwargs.get("x0") is not None:   # one final displacement solve per pass
            final.append(1)
        return real_solve_B(*args, **kwargs)

    def counting_pcg(A, b, **kwargs):
        def apply_A(z):
            outer.append(1)
            return A(z)
        return real_pcg(apply_A, b, **kwargs)

    monkeypatch.setattr(sys, "solve_B", counting_solve_B)
    monkeypatch.setattr(micro, "pcg", counting_pcg)
    n_parts = len(sys.F.parts)
    assert n_parts == 2
    micro.run_transient(sys, 0.5, 8, stepper="schur")
    assert len(outer) > 0 and len(final) >= 8
    assert len(solves) == len(outer) + len(final) + n_parts
    # a second trajectory on the same system reuses the load responses
    del solves[:], outer[:], final[:]
    micro.run_transient(sys, 0.5, 4, stepper="schur")
    assert len(final) >= 4
    assert len(solves) == len(outer) + len(final)


@pytest.fixture(scope="module")
def micro_mesh2(default_geom):
    return build_micro_mesh(default_geom, 0.5, ((0.0, 1.0), (0.0, 1.0)), 4)


@settings(max_examples=6, deadline=None)
@given(c=st.floats(0.1, 2.0), alpha=st.floats(0.0, 1.5),
       k=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0)))
@example(c=1.0, alpha=0.0, k=(1.0, 1.0, 1.0))
def test_two_path_equivalence_across_materials(micro_mesh2, two_phase_hooke, ramp_loads,
                                               c, alpha, k):
    sys = micro.assemble_micro(micro_mesh2, two_phase_hooke,
                               BiotParams(c=c, alpha=alpha, K=np.diag(k)), 0.5, ramp_loads)
    tr1 = micro.run_transient(sys, 0.5, 4, stepper="monolithic")
    tr2 = micro.run_transient(sys, 0.5, 4, stepper="schur")
    for a, b in zip(tr1.table[1:], tr2.table[1:]):
        for key in ("e_U", "p"):
            assert abs(a[key] - b[key]) <= 1e-7 * max(b[key], 1e-30)


def _monolithic_block_residuals(sys, s0, dt, s1):
    """Relative residuals of the implicit-Euler block equations

        B U1 - alpha C^T p1 = F(t1)
        alpha C (U1 - U0) + (cM + dt D) p1 = dt G(t1) + cM p0

    recomputed from the assembled operators, the first scaled by the
    right-hand side of the displacement system left after eliminating p1."""
    a, c = sys.biot.alpha, sys.biot.c
    S = (c * sys.M + dt * sys.D).tocsc()
    F1, G1 = sys.F(s1.t), sys.G(s1.t)
    b_p = dt * G1 + c * (sys.M @ s0.p) + a * (sys.C @ s0.U_red)
    r1 = sys.B @ s1.U_red - a * (sys.C.T @ s1.p) - F1
    r2 = a * (sys.C @ (s1.U_red - s0.U_red)) + S @ s1.p - (dt * G1 + c * (sys.M @ s0.p))
    rhs_u = F1 + a * (sys.C.T @ spla.spsolve(S, b_p))
    return np.linalg.norm(r1) / np.linalg.norm(rhs_u), np.linalg.norm(r2) / np.linalg.norm(b_p)


@settings(max_examples=4, deadline=None)
@given(c=st.floats(0.1, 2.0), alpha=st.floats(0.0, 1.5),
       k=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0)))
@example(c=1.0, alpha=1.0, k=(1.0, 1.0, 1.0))
def test_projected_steps_meet_their_stopping_rules(micro_mesh2, two_phase_hooke, ramp_loads,
                                                   c, alpha, k):
    # more steps than a solution space holds, so both spaces restart on the way
    tol, T, nsteps = 1e-9, 0.5, fem.solvers.PROJECTION_DIM + 4
    dt = T / nsteps
    sys = micro.assemble_micro(micro_mesh2, two_phase_hooke,
                               BiotParams(c=c, alpha=alpha, K=np.diag(k)), 0.5, ramp_loads)
    mono = micro.run_transient(sys, T, nsteps, stepper="monolithic", tol=tol)
    schur = micro.run_transient(sys, T, nsteps, stepper="schur", tol=tol)
    ops = sys.step_operators(dt)
    assert 0 < len(ops.u_space) <= fem.solvers.PROJECTION_DIM
    for s0, s1 in zip(mono.states, mono.states[1:]):
        assert max(_monolithic_block_residuals(sys, s0, dt, s1)) <= 1.01 * tol
    # the Schur-ODE step A p1 = b with B^-1 applied exactly by a sparse factorization
    B_inv = spla.factorized(sys.B.tocsc())
    for s0, s1 in zip(schur.states, schur.states[1:]):
        A_p1 = c * (sys.M @ s1.p) + dt * (sys.D @ s1.p)
        b = dt * sys.G(s1.t) + c * (sys.M @ s0.p)
        if alpha != 0.0:
            A_p1 += alpha**2 * (sys.C @ B_inv(sys.C.T @ s1.p))
            b += alpha * (sys.C @ (s0.U_red - B_inv(sys.F(s1.t))))
        assert np.linalg.norm(b - A_p1) <= 1.01 * tol * np.linalg.norm(b)
    for a, b in zip(mono.table[1:], schur.table[1:]):
        for key in ("e_U", "p"):
            assert abs(a[key] - b[key]) <= 1e-7 * max(b[key], 1e-30)


def test_schur_outer_iterations_on_the_demo_config(monkeypatch):
    # eps = 1/4, 16 steps: 96 outer operator applications when every step's CG
    # started from zero, 39 from the projection onto the earlier increments
    cfg = default_config()
    mesh = build_micro_mesh(cfg.geom, 0.25, cfg.omega, cfg.cell_n)
    sys = micro.assemble_micro(mesh, cfg.hooke, cfg.biot, 0.25, cfg.loads)
    outer, real_pcg = [], micro.pcg

    def counting_pcg(A, b, **kwargs):
        def apply_A(z):
            outer.append(1)
            return A(z)
        return real_pcg(apply_A, b, **kwargs)

    monkeypatch.setattr(micro, "pcg", counting_pcg)
    micro.run_transient(sys, cfg.T, 16, stepper="schur", tol=cfg.tol_step)
    assert 0 < len(outer) <= 45


def _demo_system(loads=None):
    cfg = default_config()
    mesh = build_micro_mesh(cfg.geom, 0.25, cfg.omega, cfg.cell_n)
    return cfg, micro.assemble_micro(mesh, cfg.hooke, cfg.biot, 0.25, loads or cfg.loads)


def _schur_rule_ratios(sys, states, dt, tol):
    """||b - A p1|| / (tol ||b||) of every Schur-ODE step of a trajectory,
    with B^-1 applied exactly by a sparse factorization."""
    c, alpha = sys.biot.c, sys.biot.alpha
    B_inv = spla.factorized(sys.B.tocsc())
    ratios = []
    for s0, s1 in zip(states, states[1:]):
        A_p1 = c * (sys.M @ s1.p) + dt * (sys.D @ s1.p)
        b = dt * sys.G(s1.t) + c * (sys.M @ s0.p)
        if alpha != 0.0:
            A_p1 += alpha**2 * (sys.C @ B_inv(sys.C.T @ s1.p))
            b += alpha * (sys.C @ (s0.U_red - B_inv(sys.F(s1.t))))
        ratios.append(np.linalg.norm(b - A_p1) / (tol * np.linalg.norm(b)))
    return ratios


@pytest.mark.parametrize("loads, bound", [(None, 650), (CUTOFF_LOADS, 1200)],
                         ids=["demo", "cutoff"])
def test_schur_B_solve_iterations_and_displacement_residuals(monkeypatch, loads, bound):
    # eps = 1/4, 16 steps.  The inner B-solves relax as the outer residual
    # falls; all B-solves of the trajectory (inner, load responses and final)
    # take 909 iterations (demo) and 1,549 (cutoff) at INNER_TOL throughout.
    # The final solve B u = F(t1) + alpha C^T p starts from
    # U^n + (L^{n+1} - L^n) + alpha B^-1 C^T dp, whose last term the outer CG
    # carried.  That start assumes that U^n meets B U^n - alpha C^T p^n = F^n
    # to INNER_TOL, so the initial state U(0) = B^-1 F(0) of the cutoff loads
    # (F(0) != 0) must too
    cfg, sys = _demo_system(loads)
    assert (np.linalg.norm(sys.F(0.0)) > 0.0) == (loads is not None)
    final, iters, real_pcg = [], [], fem.solvers.pcg

    def counting_pcg(A, b, **kwargs):
        result = real_pcg(A, b, **kwargs)
        iters.append(len(result[1]) - 1)
        if kwargs.get("x0") is not None:   # only the final displacement solve has a start
            final.append(iters[-1])
        return result

    monkeypatch.setattr(fem.solvers, "pcg", counting_pcg)
    traj = micro.run_transient(sys, cfg.T, 16, stepper="schur", tol=cfg.tol_step)
    assert len(final) >= 16 and final[0] == 0
    assert sum(iters) <= bound
    F0 = sys.F(0.0)
    assert np.linalg.norm(sys.B @ traj.states[0].U_red - F0) <= (
        1.01 * micro.INNER_TOL * np.linalg.norm(F0))
    alpha = sys.biot.alpha
    for s in traj.states[1:]:
        rhs = sys.F(s.t) + alpha * (sys.C.T @ s.p)
        assert np.linalg.norm(sys.B @ s.U_red - rhs) <= 1.01 * micro.INNER_TOL * np.linalg.norm(rhs)


def test_schur_steps_meet_the_stopping_rule_across_the_cutoff():
    # eps = 1/4, 16 steps, f1 off after t = 0.3: the first pass of the step
    # across the cutoff leaves its pressure-equation residual 3.8x above the
    # rule, and the step repeats its pass instead of returning that state
    cfg, sys = _demo_system(CUTOFF_LOADS)
    traj = micro.run_transient(sys, cfg.T, 16, stepper="schur", tol=cfg.tol_step)
    ratios = _schur_rule_ratios(sys, traj.states, cfg.T / 16, cfg.tol_step)
    assert len(ratios) == 16 and max(ratios) <= 1.01


def test_schur_step_repeats_its_pass_when_an_inner_solve_is_off(small_system, two_phase_hooke,
                                                                monkeypatch):
    # a planted fault: every inner B-solve returns its result times 1 + 1e-6.
    # The outer CG then converges on a perturbed operator; the step must notice
    # it, by another pass or a SolverError, and never return a state that
    # misses the stopping rule
    sys = micro.assemble_micro(small_system.mesh, two_phase_hooke, small_system.biot,
                               0.25, CUTOFF_LOADS)
    assert len(sys.load_response.parts) > 0   # the responses are solved before the fault
    real_solve_B = sys.solve_B
    passes = []

    def faulty_solve_B(rhs, tol, x0=None):
        if x0 is not None:   # the final displacement solve, one per pass
            passes[-1] += 1
            return real_solve_B(rhs, tol, x0=x0)
        return (1.0 + 1e-6) * real_solve_B(rhs, tol)

    monkeypatch.setattr(sys, "solve_B", faulty_solve_B)
    dt, tol = 0.0625, 1e-10
    states = [micro.initial_state(sys)]
    for _ in range(8):
        passes.append(0)
        try:
            states.append(micro.step_schur(sys, states[-1], dt, tol=tol))
        except SolverError:
            break
    assert passes[0] > 1 or len(states) == 1
    assert all(r <= 1.01 for r in _schur_rule_ratios(sys, states, dt, tol))


def test_schur_step_raises_when_a_pass_does_not_reduce_the_residual(micro_mesh4, two_phase_hooke,
                                                                  biot, ramp_loads, monkeypatch):
    # an outer CG that returns no increment leaves the pressure-equation
    # residual where it was: the step names itself and carries the residuals,
    # and the trajectory names the step
    sys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, ramp_loads)
    real_pcg = micro.pcg

    def stalled_pcg(A, b, **kwargs):
        x, history, side = real_pcg(A, b, **kwargs)
        return 0.0 * x, history, 0.0 * side

    monkeypatch.setattr(micro, "pcg", stalled_pcg)
    with pytest.raises(SolverError, match=r"^step 1 of 1, to t = 0\.0625: Schur-ODE step: pass 1 "
                                          r"did not reduce") as info:
        micro.run_transient(sys, 0.0625, 1, stepper="schur")
    norms = info.value.residuals
    assert len(norms) >= 2 and norms[-1] >= norms[-2] > 0.0


def test_monolithic_step_checks_its_block_equations(micro_mesh4, two_phase_hooke, biot,
                                                    ramp_loads, monkeypatch):
    # a displacement 1e-6 off the Schur solve misses both block equations;
    # the error names the step and carries the Schur CG's residual history
    sys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, ramp_loads)
    real_pcg = fem.solvers.pcg

    def perturbed(A, b, **kwargs):
        x, history = real_pcg(A, b, **kwargs)
        return x * (1 + 1e-6), history

    monkeypatch.setattr(fem.solvers, "pcg", perturbed)
    with pytest.raises(SolverError, match=r"^step 1 of 2, to t = 0\.125: saddle solve block "
                                          r"residuals") as info:
        micro.run_transient(sys, 0.25, 2, stepper="monolithic")
    history = info.value.residuals
    assert len(history) >= 2 and history[-1] <= 1e-10


def test_step_operators_built_once_per_step_size(micro_mesh4, two_phase_hooke, biot,
                                                 ramp_loads, monkeypatch):
    built = []
    real = micro.StepOperators

    def counting(**kwargs):
        built.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(micro, "StepOperators", counting)
    sys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, ramp_loads)
    micro.run_transient(sys, 0.5, 4, stepper="monolithic")
    assert len(built) == 1
    micro.run_transient(sys, 0.5, 4, stepper="schur")
    assert len(built) == 1
    # one step of dt and two of dt/2, as in test_step_consistency_richardson
    state0 = micro.initial_state(sys)
    micro.step_monolithic(sys, state0, 0.2)
    sh = micro.step_monolithic(sys, state0, 0.1)
    micro.step_monolithic(sys, sh, 0.1)
    assert len(built) == 3


def test_system_freed_without_cycle_collector(micro_mesh4, two_phase_hooke, biot, ramp_loads):
    gc.collect()
    gc.disable()
    try:
        sys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, ramp_loads)
        micro.run_transient(sys, 0.25, 2, stepper="monolithic")
        micro.run_transient(sys, 0.25, 2, stepper="schur")
        assert type(vars(sys)["multigrid"]) is VCycle   # the V-cycle hierarchy was built and kept
        # and so were the load responses, arrays only
        assert all(type(v) is np.ndarray for _, _, v in vars(sys)["load_response"].parts)
        ops = sys.step_operators(0.125)   # and both solution spaces, arrays only
        for space in (ops.u_space, ops.p_space):
            assert len(space) > 0
            assert set(vars(space)) == {"X", "AX", "TX"}
            assert all(type(v) is np.ndarray for v in space.X + space.AX + space.TX)
        # the pressure increments keep their displacement images B^-1 C^T X[j]
        assert ops.u_space.TX == [] and len(ops.p_space.TX) == len(ops.p_space) > 0
        assert all(v.shape == (sys.B.shape[0],) for v in ops.p_space.TX)
        ref = weakref.ref(sys)
        del sys
        assert ref() is None
    finally:
        gc.enable()


def test_alpha_zero_decoupled_oracle(micro_mesh4, two_phase_hooke, ramp_loads):
    # displacement = static elastic solve at each t; pressure evolves by an
    # independent sparse-LU integration of (cM + dtD) p1 = dt G + cM p0
    biot0 = BiotParams(c=1.0, alpha=0.0, K=np.eye(3))
    sys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot0, 0.25, ramp_loads)
    assert sys.decoupled
    T, nsteps = 0.5, 4
    traj = micro.run_transient(sys, T, nsteps)
    dt = T / nsteps
    # oracle: independent recursion with scipy's direct solver
    S = (sys.biot.c * sys.M + dt * sys.D).tocsc()
    p = np.zeros(sys.n_p)
    for k in range(1, nsteps + 1):
        p = spla.spsolve(S, dt * sys.G(k * dt) + sys.biot.c * (sys.M @ p))
    assert np.abs(p - traj.final.p).max() < 1e-9 * max(np.abs(p).max(), 1e-30)
    u_static, _ = fem.pcg(sys.B, sys.F(T), tol=1e-12, precond=jacobi(sys.B))
    assert np.linalg.norm(traj.final.U_red - u_static) < 1e-8 * np.linalg.norm(u_static)
    # the reduced-ODE path degenerates to c db/dt + D b = G and must agree
    traj_s = micro.run_transient(sys, T, nsteps, stepper="schur")
    assert np.abs(traj_s.final.p - traj.final.p).max() < 1e-9 * max(np.abs(p).max(), 1e-30)


def test_constant_force_no_source_keeps_pressure_zero(micro_mesh4, two_phase_hooke, biot):
    # G = 0 and F constant in t: db/dt is driven only by -D b, and from zero
    # initial pressure the trajectory stays zero while U sits at the static solve
    loads = LoadSpec(f1=Poly2T([(1.0, 0, 0, 0)]))
    sys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, loads)
    traj = micro.run_transient(sys, 0.5, 4, stepper="schur")
    assert max(r["p"] for r in traj.table) < 1e-12
    u_static, _ = fem.pcg(sys.B, sys.F(0.5), tol=1e-12, precond=jacobi(sys.B))
    assert np.linalg.norm(traj.final.U_red - u_static) < 1e-8 * np.linalg.norm(u_static)


def test_step_consistency_richardson(small_system):
    # one step vs two half-steps differ at O(dt^2): halving dt quarters the gap
    sys = small_system
    state0 = micro.initial_state(sys)

    def gap(dt):
        s1 = micro.step_monolithic(sys, state0, dt, tol=1e-12)
        sh = micro.step_monolithic(sys, state0, dt / 2, tol=1e-12)
        s2 = micro.step_monolithic(sys, sh, dt / 2, tol=1e-12)
        du = (s1.U - s2.U).reshape(-1)
        return np.sqrt(du @ (sys.strain_sq @ du) + (s1.p - s2.p) @ (sys.M @ (s1.p - s2.p)))

    g1, g2 = gap(0.2), gap(0.1)
    assert 2.5 <= g1 / g2 <= 6.0


def test_linearity_in_loads(micro_mesh4, two_phase_hooke, biot, ramp_loads):
    sys1 = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, ramp_loads)
    doubled = LoadSpec(f1=Poly2T([(1.0, 0, 0, 1)]), f3=Poly2T([(2.0, 0, 0, 1)]),
                       h=Poly2T([(2.0, 0, 0, 1)]))
    sys2 = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, doubled)
    t1 = micro.run_transient(sys1, 0.25, 2)
    t2 = micro.run_transient(sys2, 0.25, 2)
    for a, b in zip(t1.table[1:], t2.table[1:]):
        assert b["e_U"] == pytest.approx(2.0 * a["e_U"], rel=1e-8)
        assert b["p"] == pytest.approx(2.0 * a["p"], rel=1e-8)


def test_energy_dissipation_inequality(small_system):
    # discrete energy estimate: E(tn) + 2 sum dt K-energy <= 2 sum (dt<G,p> + <F,dU>)
    sys = small_system
    T, nsteps = 0.5, 8
    traj = micro.run_transient(sys, T, nsteps)
    dt = T / nsteps
    lhs = traj.table[-1]["energy"]
    rhs = 0.0
    for k in range(1, nsteps + 1):
        st, prev = traj.states[k], traj.states[k - 1]
        lhs += 2.0 * dt * float(st.p @ (sys.D @ st.p))
        rhs += 2.0 * dt * float(sys.G(st.t) @ st.p)
        rhs += 2.0 * float(sys.F(st.t) @ (st.U_red - prev.U_red))
    assert lhs <= rhs + 1e-12 + 0.1 * abs(rhs)


@pytest.mark.parametrize("stepper", ["monolithic", "schur"])
def test_energy_identity_of_each_step(stepper):
    # testing the displacement equation with U1 - U0 and the pressure equation
    # with p1, implicit Euler satisfies
    #   (E1 - E0)/2 + (|dU|_B^2 + c |dp|_M^2)/2 + dt |p1|_D^2 = dU.F1 + dt p1.G1
    # with E the energy column; the defect is -dU.r1 - p1.r2 for the block
    # residuals r1, r2 of the step, so they bound it
    cfg, sys = _demo_system()
    nsteps = 16
    traj = micro.run_transient(sys, cfg.T, nsteps, stepper=stepper, tol=cfg.tol_step)
    dt, c, alpha = cfg.T / nsteps, sys.biot.c, sys.biot.alpha
    for k in range(1, nsteps + 1):
        s0, s1 = traj.states[k - 1], traj.states[k]
        F1, G1 = sys.F(s1.t), sys.G(s1.t)
        dU, dp = s1.U_red - s0.U_red, s1.p - s0.p
        lhs = (0.5 * (traj.table[k]["energy"] - traj.table[k - 1]["energy"])
               + 0.5 * (dU @ (sys.B @ dU) + c * dp @ (sys.M @ dp)) + dt * s1.p @ (sys.D @ s1.p))
        rhs = dU @ F1 + dt * s1.p @ G1
        defect = abs(lhs - rhs)
        assert defect <= cfg.tol_step * (abs(lhs) + abs(rhs))
        r1 = F1 - sys.B @ s1.U_red + alpha * (sys.C.T @ s1.p)
        r2 = (dt * G1 + c * (sys.M @ s0.p) - alpha * (sys.C @ dU)
              - c * (sys.M @ s1.p) - dt * (sys.D @ s1.p))
        assert defect <= np.linalg.norm(dU) * np.linalg.norm(r1) + np.linalg.norm(s1.p) * np.linalg.norm(r2)


def test_energy_decay_after_cutoff(micro_mesh4, two_phase_hooke, biot):
    loads = LoadSpec(f3=Poly2T([(1.0, 0, 0, 1)], t_off=0.25),
                     h=Poly2T([(1.0, 0, 0, 1)], t_off=0.25))
    sys = micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.25, loads)
    traj = micro.run_transient(sys, 1.0, 16)
    E = [r["energy"] for r in traj.table]
    k0 = 5  # first step fully after the cutoff
    assert all(E[i + 1] <= E[i] * (1 + 1e-12) for i in range(k0, 16))


def test_korn_ratio_stable_under_refinement(default_geom, two_phase_hooke, biot, ramp_loads):
    vals = {}
    for n in (4, 8):
        mesh = build_micro_mesh(default_geom, 0.25, ((0.0, 1.0), (0.0, 1.0)), n)
        sys = micro.assemble_micro(mesh, two_phase_hooke, biot, 0.25, ramp_loads)
        traj = micro.run_transient(sys, 0.25, 2)
        vals[n] = traj.korn_constant(0.25)
    assert vals[4] > 0 and vals[8] > 0
    assert vals[8] <= 2.0 * vals[4]


# --------------------------------------------------------- decomposition ops

def test_griso_rigid_translation(micro_mesh4):
    U = np.zeros((micro_mesh4.n_nodes, 3))
    U[:, 0], U[:, 1] = 1.0, -2.0
    rep = micro.griso_decompose(U, micro_mesh4)
    assert np.abs(rep.W - [1.0, -2.0, 0.0]).max() < 1e-14
    assert np.abs(rep.R).max() < 1e-14
    assert np.abs(rep.wbar).max() < 1e-14


def test_griso_pure_rotation(micro_mesh4):
    X = micro_mesh4.nodes
    g = X[:, 0] + 2.0 * X[:, 1]
    U = np.zeros((micro_mesh4.n_nodes, 3))
    U[:, 0] = X[:, 2] * g
    rep = micro.griso_decompose(U, micro_mesh4)
    ncol = (micro_mesh4.nelems[0] + 1) * (micro_mesh4.nelems[1] + 1)
    assert np.abs(rep.R[:, 0] - g[:ncol]).max() < 1e-12
    assert np.abs(rep.W).max() < 1e-13


def test_griso_kirchhoff_love(micro_mesh4):
    X = micro_mesh4.nodes
    phi = X[:, 0] ** 2 - 0.5 * X[:, 1] ** 2 + X[:, 0] * X[:, 1]
    d1 = 2 * X[:, 0] + X[:, 1]
    d2 = -X[:, 1] + X[:, 0]
    U = np.stack([-X[:, 2] * d1, -X[:, 2] * d2, phi], axis=-1)
    rep = micro.griso_decompose(U, micro_mesh4)
    ncol = (micro_mesh4.nelems[0] + 1) * (micro_mesh4.nelems[1] + 1)
    assert np.abs(rep.wbar).max() < 1e-13
    assert np.abs(rep.R[:, 0] + d1[:ncol]).max() < 1e-12
    assert np.abs(rep.R[:, 1] + d2[:ncol]).max() < 1e-12
    assert rep.max_wbar_average < 1e-10


def test_wbar_thickness_average_vanishes(small_system):
    traj = micro.run_transient(small_system, 0.25, 2)
    rep = micro.griso_decompose(traj.final.U, small_system.mesh)
    scale = max(np.abs(traj.final.U).max(), 1e-30)
    assert rep.max_wbar_average <= 1e-10 * scale


def test_extension_rigid_and_affine(micro_mesh4, two_phase_hooke):
    X = micro_mesh4.nodes
    # rigid motion: translation + linearized rotation
    U = np.tile([0.3, -0.2, 0.1], (micro_mesh4.n_nodes, 1)) + np.cross([0.1, -0.2, 0.3], X)
    W = micro.extend_fiber(U, micro_mesh4, two_phase_hooke)
    assert np.abs(W - U).max() < 1e-12
    # symmetric affine field
    S = np.array([[0.4, 0.1, 0.0], [0.1, -0.2, 0.3], [0.0, 0.3, 0.1]])
    U = X @ S.T
    W = micro.extend_fiber(U, micro_mesh4, two_phase_hooke)
    assert np.abs(W - U).max() < 1e-12


def _off_wall_gel_nodes(mesh):
    """(cells, nk, nj - 2, ni - 2) gel nodes off the walls of each cell's gel
    box: its interior and its caps."""
    box = [len(np.unique(mesh.gel_local_template[:, c])) for c in (2, 1, 0)]
    return mesh.gel_nodes.reshape(mesh.total_cells, *box)[:, :, 1:-1, 1:-1]


def test_extension_energy_ratio_bounded(default_geom, two_phase_hooke):
    # random fiber data on a one-cell plate: ||e(w)|| <= C ||e(U)||_fiber with
    # a moderate constant over a sample survey
    mesh = build_micro_mesh(default_geom, 0.25, ((0.0, 0.25), (0.0, 0.25)), 4)
    ke = el.hex_elastic_ke(mesh.spacing, el.STRAIN_IDENTITY)
    E_all = ElementForm(mesh.elems, ke)
    E_fib = ElementForm(mesh.elems[mesh.phase == 0], ke)
    rng = np.random.default_rng(11)
    inner = _off_wall_gel_nodes(mesh)[0].ravel()
    ratios = []
    for _ in range(10):
        U = rng.standard_normal((mesh.n_nodes, 3))
        U[inner] = 0.0  # data lives on the fiber and the interface trace
        w = micro.extend_fiber(U, mesh, two_phase_hooke).reshape(-1)
        uf = U.reshape(-1)
        num = np.sqrt(E_all.quad(w))
        den = np.sqrt(E_fib.quad(uf))
        ratios.append(num / den)
    assert max(ratios) < 50.0


def test_bad_eps_rejected(micro_mesh4, two_phase_hooke, biot):
    from poroplate.errors import AssemblyError

    with pytest.raises(AssemblyError):
        micro.assemble_micro(micro_mesh4, two_phase_hooke, biot, 0.5, LoadSpec())


def test_extension_residual_vanishes_on_fiber(small_system, two_phase_hooke):
    # the gel residual U - extend_fiber(U) vanishes on fiber and interface by construction
    traj = micro.run_transient(small_system, 0.25, 2)
    fiber_mask = np.ones(small_system.mesh.n_nodes, dtype=bool)
    fiber_mask[_off_wall_gel_nodes(small_system.mesh).ravel()] = False
    u_eps = traj.final.U - micro.extend_fiber(traj.final.U, small_system.mesh,
                                              two_phase_hooke)
    assert np.abs(u_eps[fiber_mask]).max() == 0.0
