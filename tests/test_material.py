import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poroplate.errors import MaterialError
from poroplate.material import (
    BiotParams,
    HookeTensor,
    LoadSeries,
    LoadSpec,
    Poly2T,
    isotropic,
    kelvin_eigenvalues,
    require_admissible,
    load_norm,
    switched_off,
    t_degree_terms,
)


def test_isotropic_nu_zero():
    D = isotropic(1.0, 0.0)
    assert D[0, 0] == pytest.approx(1.0)
    assert D[3, 3] == pytest.approx(0.5)
    assert D[0, 1] == pytest.approx(0.0)


def test_isotropic_lame_values():
    # lambda = E nu / ((1+nu)(1-2nu)), mu = E / (2(1+nu)) at E=1, nu=0.3
    D = isotropic(1.0, 0.3)
    lam = 1.0 * 0.3 / (1.3 * 0.4)
    mu = 1.0 / 2.6
    assert lam == pytest.approx(0.576923, rel=1e-5)
    assert mu == pytest.approx(0.384615, rel=1e-5)
    assert D[0, 1] == pytest.approx(lam)
    assert D[0, 0] == pytest.approx(lam + 2 * mu)
    assert D[5, 5] == pytest.approx(mu)


def test_isotropic_rejects_incompressible():
    with pytest.raises(MaterialError):
        isotropic(1.0, 0.5)
    with pytest.raises(MaterialError):
        isotropic(-1.0, 0.3)


def test_coercivity_is_two_mu():
    # deviatoric eigenvalue of the isotropic tensor
    h = HookeTensor(isotropic(1.0, 0.3), isotropic(1.0, 0.3))
    require_admissible(h, BiotParams())
    assert h.coercivity() == pytest.approx(2.0 / 2.6, rel=1e-12)


def test_coercivity_random_spot_check():
    rng = np.random.default_rng(1)
    D = isotropic(3.0, 0.25)
    c0 = kelvin_eigenvalues(D).min()
    for _ in range(20):
        S = rng.standard_normal((3, 3))
        S = 0.5 * (S + S.T)
        e = np.array([S[0, 0], S[1, 1], S[2, 2], 2 * S[1, 2], 2 * S[0, 2], 2 * S[0, 1]])
        energy = e @ D @ e
        assert energy >= c0 * np.sum(S * S) - 1e-12


def test_permeability_diag_c_K():
    b = BiotParams(K=np.diag([1.0, 2.0, 3.0]))
    assert b.c_K == pytest.approx(1.0)


def test_zero_tensor_rejected():
    h = HookeTensor(np.zeros((6, 6)), np.zeros((6, 6)))
    with pytest.raises(MaterialError, match="elastic coercivity c0="):
        require_admissible(h, BiotParams())
    ok = HookeTensor(isotropic(1.0, 0.3), isotropic(1.0, 0.3))
    with pytest.raises(MaterialError, match="permeability constant c_K="):
        require_admissible(ok, BiotParams(K=1e-13 * np.eye(3)))


def test_biot_validation():
    with pytest.raises(MaterialError):
        BiotParams(c=0.0)
    with pytest.raises(MaterialError):
        BiotParams(K=-np.eye(3))


def test_poly_eval_and_cutoff():
    p = Poly2T([(2.0, 1, 0, 1), (-1.0, 0, 2, 0)], t_off=0.5)
    assert p(1.0, 2.0, 0.25) == pytest.approx(2.0 * 1.0 * 0.25 - 4.0)
    assert p(1.0, 2.0, 0.75) == 0.0
    dp = p.dt()
    assert dp(1.0, 2.0, 0.25) == pytest.approx(2.0)


# coefficients away from underflow, where relative rounding bounds do not hold
_COEFF = st.floats(-2.0, 2.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-6)
_MONOMIAL = st.tuples(_COEFF, st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))
_CUTOFF_EXAMPLE = [(2.0, 1, 0, 1), (-1.0, 0, 2, 0), (0.5, 2, 1, 2)]


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(_MONOMIAL, min_size=1, max_size=6), t_off=st.floats(0.05, 2.0),
       dt=st.one_of(st.sampled_from([-1e-3, 0.0, 5e-13, 1e-9, 1e-3]),
                    st.floats(-2e-12, 2e-12)))
@example(terms=_CUTOFF_EXAMPLE, t_off=0.5, dt=-0.25)
@example(terms=_CUTOFF_EXAMPLE, t_off=0.5, dt=5e-13)
@example(terms=_CUTOFF_EXAMPLE, t_off=0.5, dt=1e-9)
def test_cutoff_agrees_between_poly_and_time_parts(terms, t_off, dt):
    # the steppers evaluate loads as a LoadSeries of spatial parts times t^deg;
    # it must equal the polynomial and switch the load off at the same time
    p = Poly2T(terms, t_off=t_off)
    x1, x2 = np.array([0.3, 0.7, 1.1]), np.array([0.2, 0.9, -0.4])
    series = LoadSeries.build((p,), lambda _, spatial: spatial(x1, x2, 0.0), 3)
    assert len(series.parts) == len(list(t_degree_terms(p)))
    t = t_off + dt
    got = series(t)
    if switched_off(t, t_off):
        assert not got.any() and not p(x1, x2, t).any()
    else:
        # the series sums per time degree, the polynomial per monomial
        size = sum(abs(c) * np.abs(x1)**p1 * np.abs(x2)**p2 * t**pt for c, p1, p2, pt in terms)
        assert np.all(np.abs(got - p(x1, x2, t)) <= 1e-14 * size)
    assert np.array_equal(series.map(lambda v: 2.0 * v)(t), 2.0 * got)
    if terms == _CUTOFF_EXAMPLE and dt > 0.0:
        assert got.any() == (dt < 1e-12)   # the 1e-12 slack of the cutoff


def test_time_parts_are_the_monomial_sums():
    p = Poly2T([(2.0, 1, 0, 1), (-1.0, 0, 2, 0), (0.5, 2, 1, 1), (0.0, 3, 3, 2)])
    x1, x2 = np.linspace(-1.0, 2.0, 7), np.linspace(0.5, 1.5, 7)
    got = {deg: spatial(x1, x2, 0.0) for deg, spatial in t_degree_terms(p)}
    assert sorted(got) == [0, 1]   # degree 2 has only a zero coefficient
    assert np.array_equal(got[0], np.zeros(7) + -1.0 * x1**0 * x2**2)
    assert np.array_equal(got[1], np.zeros(7) + 2.0 * x1**1 * x2**0 + 0.5 * x1**2 * x2**1)


def test_load_norm_analytic():
    # f3 = t on the unit square over (0, 1): ||f||^2 = int (t^2 + 1) dt = 4/3
    loads = LoadSpec(f3=Poly2T([(1.0, 0, 0, 1)]))
    val = load_norm(loads, ((0.0, 1.0), (0.0, 1.0)), 1.0)
    assert val == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-10)


def test_large_load_warns():
    loads = LoadSpec(f1=Poly2T([(50.0, 0, 0, 0)]), bound_K1=0.1)
    with pytest.warns(UserWarning):
        loads.check_size(((0.0, 1.0), (0.0, 1.0)), 1.0, c0=0.7)
