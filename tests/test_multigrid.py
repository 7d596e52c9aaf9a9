import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from poroplate import micro
from poroplate.fem import multigrid
from poroplate.fem.solvers import pcg
from poroplate.geometry import CellGeometry, build_micro_mesh
from poroplate.material import HookeTensor, isotropic

OMEGA = ((0.0, 1.0), (0.0, 1.0))
THIRDS = CellGeometry(gel_box=((1 / 3, 2 / 3), (1 / 3, 2 / 3)))


def _system(geom, eps, n, hooke, biot, loads):
    mesh = build_micro_mesh(geom, eps, OMEGA, n)
    return micro.assemble_micro(mesh, hooke, biot, eps, loads)


@pytest.fixture(scope="module")
def systems(default_geom, two_phase_hooke, biot, ramp_loads):
    return {eps: _system(default_geom, eps, 4, two_phase_hooke, biot, ramp_loads)
            for eps in (0.5, 0.25, 0.125)}


def _b_solve_iterations(sys, b):
    _, history = pcg(sys.B, b, tol=1e-12, precond=sys.multigrid)
    return len(history) - 1


def test_interp_1d_coarsens_every_count_from_two():
    for n in range(2, 12):
        P, picks = multigrid.interp_1d(n)
        assert picks[0] == 0 and picks[-1] == n
        assert set(range(0, n + 1, 2)) <= set(picks.tolist())
        assert len(picks) - 1 == (n + 1) // 2
        # linear interpolation reproduces constants and the coordinate itself
        assert np.allclose(P @ np.ones(len(picks)), 1.0, atol=1e-15)
        assert np.allclose(P @ picks.astype(float), np.arange(n + 1), atol=1e-14)
    P, picks = multigrid.interp_1d(1)
    assert np.array_equal(picks, [0, 1]) and np.array_equal(P.toarray(), np.eye(2))


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_vcycle_symmetric_positive(systems, eps):
    sys = systems[eps]
    mg = sys.multigrid
    rng = np.random.default_rng(2)
    for _ in range(4):
        x, y = rng.standard_normal((2, sys.B.shape[0]))
        xMy, yMx = x @ mg(y), y @ mg(x)
        assert abs(xMy - yMx) <= 1e-12 * (abs(xMy) + np.linalg.norm(x) * np.linalg.norm(mg(y)))
        assert x @ mg(x) > 0.0


def test_prolongation_reproduces_coarse_trilinear_fields(odd_system):
    # odd element counts in the plane: (15, 15, 6) -> (8, 8, 3)
    sys = odd_system
    mesh = sys.mesh
    P = sys.multigrid.levels[0].P
    picks = [multigrid.interp_1d(n)[1] for n in mesh.nelems]
    axes = [np.unique(mesh.nodes[:, a])[picks[a]] for a in range(3)]
    # a random coarse nodal field, zero on the clamped lateral boundary
    nxc, nyc, nzc = (len(p) for p in picks)
    vals = np.random.default_rng(4).standard_normal((nzc, nyc, nxc, 3))
    free = np.ones(vals.shape, dtype=bool)
    free[:, [0, -1]] = False
    free[:, :, [0, -1]] = False
    vals[~free] = 0.0
    # the same field evaluated at the fine nodes, cell by cell of the coarse grid
    ref = RegularGridInterpolator((axes[2], axes[1], axes[0]), vals)(mesh.nodes[:, ::-1])
    got = P @ vals[free]
    assert P.shape == (sys.B.shape[0], free.sum())
    assert np.abs(got - ref.reshape(-1)[sys.reducer.free]).max() <= 1e-14 * np.abs(vals).max()


def _two_product_cycle(mg, level, b):
    """The V-cycle with its post-smoothing residual b - A x from a second
    product with A, as a reference for the stored A P."""
    if level == len(mg.levels):
        return mg.coarse.solve(b)
    lv = mg.levels[level]
    x = lv.w * b
    x += lv.P @ _two_product_cycle(mg, level + 1, lv.PT @ (b - lv.A @ x))
    x += lv.w * (b - lv.A @ x)
    return x


@pytest.fixture(scope="module")
def odd_system(two_phase_hooke, biot, ramp_loads):
    return _system(THIRDS, 0.2, 3, two_phase_hooke, biot, ramp_loads)


@pytest.mark.parametrize("case", ["eps2", "eps4", "odd"])
def test_cycle_equals_two_product_cycle(systems, odd_system, case):
    sys = {"eps2": systems[0.5], "eps4": systems[0.25], "odd": odd_system}[case]
    mg = sys.multigrid
    rng = np.random.default_rng(5)
    for b in (sys.F(0.5), rng.standard_normal(sys.B.shape[0])):
        ref = _two_product_cycle(mg, 0, b)
        assert np.abs(mg(b) - ref).max() <= 1e-13 * np.abs(ref).max()


class _Counting:
    """A matrix that counts its products."""

    def __init__(self, A):
        self.A, self.products = A, 0

    def __matmul__(self, x):
        self.products += 1
        return self.A @ x


def test_cycle_makes_one_product_with_each_level_operator(systems):
    mg = systems[0.125].multigrid
    saved = list(mg.levels)
    counters = [_Counting(lv.A) for lv in saved]
    mg.levels[:] = [lv._replace(A=c) for lv, c in zip(saved, counters)]
    try:
        mg(np.ones(saved[0].A.shape[0]))
    finally:
        mg.levels[:] = saved
    assert len(counters) == 2 and [c.products for c in counters] == [1, 1]


@pytest.mark.parametrize("eps", [0.25, 0.125])
def test_galerkin_products_drop_only_round_off(systems, eps):
    # each stored product equals the undropped sparse product to round-off,
    # and keeps every entry of it beyond 1e-12 of its largest
    levels = systems[eps].multigrid.levels
    pairs = [(lv.AP, lv.A @ lv.P) for lv in levels]
    pairs += [(coarse.A, lv.P.T @ lv.A @ lv.P) for lv, coarse in zip(levels, levels[1:])]
    assert len(pairs) == 2 * len(levels) - 1 >= 3
    for got, ref in pairs:
        ref = ref.tocsr()
        big = np.abs(ref.data).max()
        assert abs(got - ref).max() <= 1e-15 * big
        assert got.nnz == (np.abs(ref.data) > 1e-12 * big).sum() < ref.nnz


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
def test_b_solve_iterations_bounded(systems, eps):
    sys = systems[eps]
    rng = np.random.default_rng(0)
    for b in (sys.F(0.5), rng.standard_normal(sys.B.shape[0])):
        assert _b_solve_iterations(sys, b) <= 30


def test_odd_element_counts_build_and_converge(odd_system):
    sys = odd_system
    assert sys.mesh.nelems == (15, 15, 6)
    mg = sys.multigrid
    assert len(mg.levels) >= 1 and mg.coarse.shape[0] <= multigrid.COARSE_DOFS
    b = sys.F(0.5)
    x, history = pcg(sys.B, b, tol=1e-12, precond=mg)
    assert len(history) - 1 <= 30
    assert np.linalg.norm(sys.B @ x - b) <= 1e-11 * np.linalg.norm(b)


@settings(max_examples=5, deadline=None)
@given(contrast=st.floats(1.0, 100.0), gel_E=st.floats(0.1, 10.0))
def test_iterations_bounded_across_contrast(default_geom, biot, ramp_loads, contrast, gel_E):
    hooke = HookeTensor(fiber=isotropic(contrast * gel_E, 0.3), gel=isotropic(gel_E, 0.35))
    sys = _system(default_geom, 0.25, 4, hooke, biot, ramp_loads)
    assert _b_solve_iterations(sys, sys.F(0.5)) <= 30


def test_hierarchy_built_once_on_first_solve(default_geom, two_phase_hooke, biot, ramp_loads,
                                             monkeypatch):
    built = []
    real = micro.VCycle

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(micro, "VCycle", counting)
    sys = _system(default_geom, 0.5, 4, two_phase_hooke, biot, ramp_loads)
    assert built == []
    micro.run_transient(sys, 0.5, 2, stepper="monolithic")
    micro.run_transient(sys, 0.5, 4, stepper="schur")
    assert len(built) == 1

