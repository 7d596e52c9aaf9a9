import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poroplate import cell, fem, twoscale
from poroplate.cell import (
    _ENG_UNIT,
    MEMBRANE_KEYS,
    CellProblem,
    PressureCellOperator,
    compute_homogenized,
    corrector_rhs,
    divergence_moments,
    periodic_node_map,
    solve_correctors,
)
from poroplate.errors import AssemblyError
from poroplate.geometry import CellGeometry, build_cell_mesh, build_plate_mesh
from poroplate.material import BiotParams, HookeTensor, isotropic
from poroplate.verify import AcceptanceSuite


@pytest.fixture(scope="module")
def homo_correctors(default_geom, homogeneous_hooke):
    mesh = build_cell_mesh(default_geom, 4)
    cs = solve_correctors(mesh, homogeneous_hooke)
    return mesh, cs


def test_membrane_corrector_thickness_ode(homo_correctors, homogeneous_hooke):
    # plane-stress construction: chi_m^11 = -lam/(lam+2mu) * y3 e3 exactly
    mesh, cs = homo_correctors
    E, nu = 1.0, 0.3
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    gamma = -lam / (lam + 2 * mu)
    exact = np.zeros((mesh.n_nodes, 3))
    exact[:, 2] = gamma * mesh.nodes[:, 2]
    assert np.abs(cs.field("m", 0, 0) - exact).max() < 1e-9
    # shear state needs no correction under traction-free faces
    assert np.abs(cs.field("m", 0, 1)).max() < 1e-10


def test_bending_corrector_parity(homo_correctors):
    # plate-reflection symmetry: in-plane components odd in y3, third even
    mesh, cs = homo_correctors
    n = mesh.n
    nid = lambda i, j, k: i + (n + 1) * (j + (n + 1) * k)
    I, J, K = np.meshgrid(np.arange(n + 1), np.arange(n + 1), np.arange(2 * n + 1),
                          indexing="ij")
    src = nid(I, J, 2 * n - K).ravel()
    dst = nid(I, J, K).ravel()
    for key in ((0, 0), (1, 1), (0, 1)):
        chib = cs.field("b", *key)
        flipped = np.empty_like(chib)
        flipped[dst] = chib[src]
        assert np.abs(chib[:, :2] + flipped[:, :2]).max() < 1e-9
        assert np.abs(chib[:, 2] - flipped[:, 2]).max() < 1e-9


def test_corrector_mean_zero_and_periodic(homo_correctors):
    mesh, cs = homo_correctors
    w = fem.lumped_weights(mesh)
    node_map = periodic_node_map(mesh)
    first = np.unique(node_map, return_index=True)[1]   # the first copy of each reduced node
    for field in cs.fields.values():
        for c in range(3):
            assert abs(w @ field[:, c]) / mesh.volume < 1e-12
        assert np.abs(field - field[first[node_map]]).max() < 1e-12


def test_homogenized_closed_form(homo_correctors, homogeneous_hooke):
    mesh, cs = homo_correctors
    hom = compute_homogenized(mesh, homogeneous_hooke, cs)
    E, nu = 1.0, 0.3
    Q = E / (1 - nu**2) * np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]])
    assert np.abs(hom.b_eng).max() < 1e-12
    assert np.abs(hom.a_eng - Q).max() < 1e-10
    assert np.abs(hom.c_eng - hom.a_eng / 3.0).max() < 0.01 * np.abs(Q).max()


def test_two_phase_energy_reduction(cell_mesh4, two_phase_hooke):
    # corrected strain energy below the uncorrected (Voigt) energy
    cs = solve_correctors(cell_mesh4, two_phase_hooke)
    hom = compute_homogenized(cell_mesh4, two_phase_hooke, cs)
    from poroplate.cell import averaged_voigt

    D0, _, _ = averaged_voigt(cell_mesh4, two_phase_hooke)
    ix = np.ix_([0, 1, 5], [0, 1, 5])
    a_V = D0[ix] / cell_mesh4.volume
    gap = np.linalg.eigvalsh(a_V - hom.a_eng)
    assert gap.min() > 1e-6  # strictly below Voigt for a genuine two-phase cell


def test_corrector_is_energy_minimizer(cell_mesh4, two_phase_hooke):
    # perturbing a corrector by a random periodic mean-zero field raises energy
    cs = solve_correctors(cell_mesh4, two_phase_hooke)
    K = fem.assemble_elastic_stiffness(cell_mesh4, two_phase_hooke)
    rhs = corrector_rhs(cell_mesh4, two_phase_hooke, np.arange(cell_mesh4.n_nodes))
    red = cs.problem.reducer
    rng = np.random.default_rng(5)

    def energy(chi_flat, key):
        # int A (M + e(chi)) : (M + e(chi)) up to the M:M constant
        return chi_flat @ (K @ chi_flat) + 2.0 * rhs[key] @ chi_flat

    for key in (("m", 0, 0), ("b", 0, 1)):
        chi = cs.fields[key].reshape(-1)
        e0 = energy(chi, key)
        for _ in range(3):
            pert = red.expand(rng.standard_normal(red.n_reduced))
            e1 = energy(chi + 0.1 * pert, key)
            assert e1 > e0 + 1e-12


# gel box edges and thickness-span ends that lie on the n = 4 cell grid
_EDGES = st.sampled_from([(0.25, 0.5), (0.25, 0.75), (0.5, 0.75)])
_Z_SPANS = st.lists(st.sampled_from([-1.0 + 0.25 * k for k in range(9)]), min_size=2,
                    max_size=2, unique=True).map(lambda z: tuple(sorted(z)))
_FIBER = st.tuples(st.floats(0.1, 100.0), st.floats(0.0, 0.45))
_GEL = st.tuples(st.floats(0.1, 10.0), st.floats(0.0, 0.45))


def _homogenized(box, z_span, fiber, gel):
    """(mesh, hooke, homogenized tensor) of an isotropic two-phase n = 4 cell."""
    mesh = build_cell_mesh(CellGeometry(gel_box=box, z_span=z_span), 4)
    hooke = HookeTensor(fiber=isotropic(*fiber), gel=isotropic(*gel))
    return mesh, hooke, compute_homogenized(mesh, hooke, solve_correctors(mesh, hooke))


def _assert_block_spd(hom):
    blk = hom.kelvin_block(1.0)
    assert np.abs(blk - blk.T).max() < 1e-12
    assert np.linalg.eigvalsh(blk).min() > 1e-10
    assert hom.min_eigenvalue() > 1e-10


def _assert_within_reuss_voigt(mesh, hooke, hom):
    frac_g = mesh.geom.gel_volume / mesh.volume
    ix = np.ix_([0, 1, 5], [0, 1, 5])
    a_V = ((1 - frac_g) * hooke.fiber + frac_g * hooke.gel)[ix]
    S_avg = (1 - frac_g) * np.linalg.inv(hooke.fiber) + frac_g * np.linalg.inv(hooke.gel)
    a_R = np.linalg.inv(S_avg[ix])
    S2 = np.diag([1.0, 1.0, np.sqrt(2.0)])
    assert np.linalg.eigvalsh(S2 @ (a_V - hom.a_eng) @ S2).min() > -1e-10
    assert np.linalg.eigvalsh(S2 @ (hom.a_eng - a_R) @ S2).min() > -1e-10


@pytest.fixture(scope="module")
def two_phase_hom(cell_mesh4, two_phase_hooke):
    return compute_homogenized(cell_mesh4, two_phase_hooke,
                               solve_correctors(cell_mesh4, two_phase_hooke))


def test_reuss_voigt_bounds(cell_mesh4, two_phase_hooke, two_phase_hom):
    _assert_within_reuss_voigt(cell_mesh4, two_phase_hooke, two_phase_hom)


def test_block_matrix_positive_definite(two_phase_hom):
    _assert_block_spd(two_phase_hom)


@settings(max_examples=8, deadline=None)
@given(box=st.tuples(_EDGES, _EDGES), z_span=_Z_SPANS, fiber=_FIBER, gel=_GEL)
def test_homogenized_block_spd_within_reuss_voigt(box, z_span, fiber, gel):
    # the two tests above on random isotropic phases, gel boxes and thickness spans
    mesh, hooke, hom = _homogenized(box, z_span, fiber, gel)
    _assert_block_spd(hom)
    _assert_within_reuss_voigt(mesh, hooke, hom)


@settings(max_examples=8, deadline=None)
@given(box=st.tuples(_EDGES, _EDGES), z=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
       fiber=_FIBER, gel=_GEL)
def test_mirror_symmetric_cell_has_no_coupling(box, z, fiber, gel):
    # a cell symmetric under y3 -> -y3 has b = 0
    _, _, hom = _homogenized(box, (-z, z), fiber, gel)
    assert np.abs(hom.b_eng).max() <= 1e-12 * np.abs(hom.a_eng).max()


@settings(max_examples=8, deadline=None)
@given(box=st.tuples(_EDGES, _EDGES), z_span=_Z_SPANS, fiber=_FIBER, gel=_GEL)
def test_swapped_gel_box_swaps_in_plane_directions(box, z_span, fiber, gel):
    # exchanging the two box edges is the y1 <-> y2 reflection of the cell:
    # a11 <-> a22 (likewise b and c), the shear entries stay
    homs = [_homogenized(bx, z_span, fiber, gel)[2] for bx in (box, box[::-1])]
    P = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    scale = np.abs(homs[0].a_eng).max()
    for name in ("a_eng", "b_eng", "c_eng"):
        M, M_swap = (getattr(h, name) for h in homs)
        assert np.abs(P @ M @ P - M_swap).max() <= 1e-12 * scale


def _refinement_slope(geom, hooke):
    homs = {}
    for n in (4, 8, 16):
        mesh = build_cell_mesh(geom, n)
        cs = solve_correctors(mesh, hooke, tol=1e-12)
        homs[n] = compute_homogenized(mesh, hooke, cs)
    d1 = max(np.abs(homs[4].a_eng - homs[8].a_eng).max(),
             np.abs(homs[4].c_eng - homs[8].c_eng).max())
    d2 = max(np.abs(homs[8].a_eng - homs[16].a_eng).max(),
             np.abs(homs[8].c_eng - homs[16].c_eng).max())
    return np.log2(d1 / d2), d1, d2


def test_refinement_consistency_smooth(default_geom, homogeneous_hooke):
    # |coef(n) - coef(2n)| decays ~ n^-2 where the correctors are regular
    slope, _, _ = _refinement_slope(default_geom, homogeneous_hooke)
    assert slope >= 1.5


def test_refinement_consistency_two_phase(default_geom, two_phase_hooke):
    # the material interface edges cap the observable rate below 2; the
    # differences must still shrink at a definite first-order-plus rate
    slope, d1, d2 = _refinement_slope(default_geom, two_phase_hooke)
    assert d2 < d1
    assert slope >= 1.0


def _pressure_corrector(op, p0):
    """u_p field for a gel pressure: RHS (1/|Ycell|) int_gel alpha p0 div v."""
    rhs_red = op.biot.alpha / op.cell_volume * (op.C_red.T @ p0)
    return op.reducer.expand(op.solve_reduced(rhs_red))


def test_pressure_corrector_zero_and_linearity(cell_mesh4, two_phase_hooke, biot):
    op = PressureCellOperator(cell_mesh4, two_phase_hooke, biot)
    assert np.abs(_pressure_corrector(op, np.zeros(op.n_gel))).max() == 0.0
    p0 = np.linspace(0.0, 1.0, op.n_gel)
    u1 = _pressure_corrector(op, p0)
    u2 = _pressure_corrector(op, 2.0 * p0)
    assert np.abs(u2 - 2.0 * u1).max() < 1e-12


def test_operator_reduced_blocks_match_reduction(cell_mesh4, two_phase_hooke, biot,
                                                 prolongation):
    # K_red and C_red sum the periodic copies of a node onto it: P^T K P and C P
    op = PressureCellOperator(cell_mesh4, two_phase_hooke, biot)
    P = prolongation(op.reducer.dof_map)
    K_ref = P.T @ fem.assemble_elastic_stiffness(cell_mesh4, two_phase_hooke) @ P
    C_ref = fem.assemble_divergence_coupling(cell_mesh4, gel_nodes=op.gel_nodes) @ P
    for A, ref in ((op.problem.K_red, K_ref), (op.C_red, C_ref)):
        assert A.shape == ref.shape and A.has_canonical_format
        assert abs(A - ref).max() <= 1e-14 * abs(ref).max()


def test_pressure_corrector_dense_oracle(two_phase_hooke, biot):
    # independent dense KKT solve (explicit multiplier rows for periodicity and
    # mean-zero) on a small cell, constant gel pressure; besides the fixture's
    # fiber/gel contrast of Young's modulus (10), the contrasts 1e-2 and 1e4
    # try the scaling of the rows that pin the means
    geom = CellGeometry(gel_box=((1 / 3, 2 / 3), (1 / 3, 2 / 3)))
    mesh = build_cell_mesh(geom, 3)
    C = fem.assemble_divergence_coupling(mesh, gel_nodes=mesh.gel_nodes).toarray()
    ndof = 3 * mesh.n_nodes
    rows = []
    node_map = periodic_node_map(mesh)
    first = np.unique(node_map, return_index=True)[1][node_map]   # the first copy of each node
    for s in np.flatnonzero(first != np.arange(mesh.n_nodes)):
        for c in range(3):
            r = np.zeros(ndof)
            r[3 * s + c] = 1.0
            r[3 * first[s] + c] = -1.0
            rows.append(r)
    wnode = fem.lumped_weights(mesh)
    for c in range(3):
        r = np.zeros(ndof)
        r[c::3] = wnode
        rows.append(r)
    A = np.array(rows)
    contrasts = [HookeTensor(fiber=isotropic(E, 0.3), gel=isotropic(1.0, 0.35))
                 for E in (1e-2, 1e4)]
    for hooke in [two_phase_hooke] + contrasts:
        op = PressureCellOperator(mesh, hooke, biot)
        p0 = np.ones(op.n_gel)
        u = _pressure_corrector(op, p0)
        K = fem.assemble_elastic_stiffness(mesh, hooke).toarray()
        kkt = np.block([[K, A.T], [A, np.zeros((len(A), len(A)))]])
        rhs = np.concatenate([(biot.alpha / mesh.volume) * (C.T @ p0), np.zeros(len(A))])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:ndof]
        # compare energies and fields
        assert u @ (K @ u) == pytest.approx(sol @ (K @ sol), rel=1e-8, abs=1e-14)
        assert np.abs(u - sol).max() < 1e-8 * max(np.abs(sol).max(), 1e-8)
        # every response of the operator is mean-zero to round-off
        assert np.abs(op.problem.means @ op.U_C).max() <= 1e-13 * np.abs(op.U_C).max()


def test_divergence_moments(cell_mesh4, two_phase_hooke, biot, gel_flux):
    cs = solve_correctors(cell_mesh4, two_phase_hooke)
    op = PressureCellOperator(cell_mesh4, two_phase_hooke, biot)
    mom = divergence_moments(cs, op)
    # bending moments vanish for a z-symmetric cell
    for key in ((0, 0), (1, 1), (0, 1)):
        assert abs(mom.scalar("b", *key)) < 1e-10
    # membrane moment against the facet-flux oracle (divergence theorem)
    total = gel_flux(cell_mesh4, cs.field("m", 0, 0))
    assert mom.scalar("m", 0, 0) == pytest.approx(total, rel=1e-10)
    # zero correctors give zero moments
    zero = {k: np.zeros_like(v) for k, v in cs.fields.items()}
    from poroplate.cell import CorrectorSet, divergence_moments as dm

    mom0 = dm(CorrectorSet(problem=cs.problem, fields=zero), op)
    assert all(mom0.scalar(*key) == 0.0 for key in zero)


def test_symmetry_key_aliasing(cell_mesh4, two_phase_hooke):
    cs = solve_correctors(cell_mesh4, two_phase_hooke)
    assert cs.field("m", 1, 0) is cs.field("m", 0, 1)


def test_operator_requires_gel(two_phase_hooke, biot):
    mesh = build_cell_mesh(CellGeometry(gel_box=None), 3)
    from poroplate.errors import AssemblyError

    with pytest.raises(AssemblyError):
        PressureCellOperator(mesh, two_phase_hooke, biot)


# ------------------------------------------------- one cell problem, reused

def test_cell_problem_matches_full_dof_reduction(cell_mesh4, two_phase_hooke, prolongation):
    # K_red and r_red assembled on the node map against P^T of the full-dof forms
    problem = CellProblem(cell_mesh4, two_phase_hooke)
    P = prolongation(problem.reducer.dof_map)
    K_ref = P.T @ fem.assemble_elastic_stiffness(cell_mesh4, two_phase_hooke) @ P
    assert problem.K_red.shape == K_ref.shape
    assert abs(problem.K_red - K_ref).max() <= 1e-14 * abs(K_ref).max()
    rhs = corrector_rhs(cell_mesh4, two_phase_hooke, np.arange(cell_mesh4.n_nodes))
    assert problem.r_red.keys() == rhs.keys()
    for key, r in rhs.items():
        ref = P.T @ r
        assert np.abs(problem.r_red[key] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_homogenized_matches_full_dof_gram(cell_mesh4, two_phase_hooke):
    # the Gram products of the coefficients formed on full dofs
    cs = solve_correctors(cell_mesh4, two_phase_hooke)
    hom = compute_homogenized(cell_mesh4, two_phase_hooke, cs)
    K = fem.assemble_elastic_stiffness(cell_mesh4, two_phase_hooke)
    rhs = corrector_rhs(cell_mesh4, two_phase_hooke, np.arange(cell_mesh4.n_nodes))
    D0, D1, D2 = cell.averaged_voigt(cell_mesh4, two_phase_hooke)
    vol = cell_mesh4.volume

    def gram(kind_x, kind_y, Dxy):
        G = np.zeros((3, 3))
        for I, kx in enumerate(MEMBRANE_KEYS):
            cx = cs.field(kind_x, *kx).reshape(-1)
            rx = rhs[(kind_x,) + kx]
            for J, ky in enumerate(MEMBRANE_KEYS):
                cy = cs.field(kind_y, *ky).reshape(-1)
                ry = rhs[(kind_y,) + ky]
                G[I, J] = (
                    _ENG_UNIT[kx] @ Dxy @ _ENG_UNIT[ky]
                    + rx @ cy
                    + ry @ cx
                    + cx @ (K @ cy)
                ) / vol
        return G

    refs = {"a_eng": gram("m", "m", D0), "b_eng": gram("b", "m", D1), "c_eng": gram("b", "b", D2)}
    scale = max(np.abs(ref).max() for ref in refs.values())
    for name, ref in refs.items():
        assert np.abs(getattr(hom, name) - ref).max() <= 1e-12 * scale


def test_homogenized_rejects_another_tensor(cell_mesh4, two_phase_hooke, homogeneous_hooke):
    cs = solve_correctors(cell_mesh4, two_phase_hooke)
    with pytest.raises(AssemblyError, match="different elasticity tensor"):
        compute_homogenized(cell_mesh4, homogeneous_hooke, cs)
    # an equal tensor built anew is accepted
    same = HookeTensor(fiber=two_phase_hooke.fiber.copy(), gel=two_phase_hooke.gel.copy())
    assert compute_homogenized(cell_mesh4, same, cs).min_eigenvalue() > 0.0


def test_homogenized_rejects_another_mesh(cell_mesh4, two_phase_hooke):
    cs = solve_correctors(cell_mesh4, two_phase_hooke)
    # the same 225 nodes, with another gel box
    other = build_cell_mesh(CellGeometry(gel_box=((0.25, 0.5), (0.25, 0.5))), 4)
    assert other.n_nodes == cell_mesh4.n_nodes
    with pytest.raises(AssemblyError, match="different cell mesh"):
        compute_homogenized(other, two_phase_hooke, cs)
    # an equal mesh built anew is accepted
    same = build_cell_mesh(cell_mesh4.geom, 4)
    assert compute_homogenized(same, two_phase_hooke, cs).min_eigenvalue() > 0.0


@pytest.fixture
def call_counts(monkeypatch):
    """Calls of the cell-problem builders and of CG, counted from here on."""
    counts = dict.fromkeys(("assemble_elastic_stiffness", "corrector_rhs", "pcg"), 0)

    def count(owner, name):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(fem, "assemble_elastic_stiffness")
    count(cell, "corrector_rhs")
    count(fem.solvers, "pcg")
    return counts


def test_cell_pipeline_builds_each_cell_problem_once(call_counts):
    # one stiffness for the correctors' problem and one for the pressure
    # operator's, both on the reduced dofs; one CG per corrector
    AcceptanceSuite().cell_pipeline()
    assert call_counts == {"assemble_elastic_stiffness": 2, "corrector_rhs": 1, "pcg": 6}


def test_oracle_builds_its_cell_problem_once(call_counts, cell_mesh4, two_phase_hooke, biot):
    twoscale.MupSystem(cell_mesh4, build_plate_mesh(((0.0, 1.0), (0.0, 1.0)), 4),
                       two_phase_hooke, biot)
    assert call_counts["assemble_elastic_stiffness"] == 1
    assert call_counts["corrector_rhs"] == 1


def test_spectrum_assembles_the_strain_form_reduced(call_counts, cell_mesh4):
    # the strain form is the cell problem's K_red; the H1 form is summed on its node map
    twoscale.norm_equivalence_spectrum(cell_mesh4)
    assert call_counts["assemble_elastic_stiffness"] == 1
