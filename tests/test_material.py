import numpy as np
import pytest

from poroplate.errors import MaterialError
from poroplate.material import (
    BiotParams,
    HookeTensor,
    LoadSpec,
    Poly2T,
    check_admissible,
    eval_t_parts,
    isotropic,
    kelvin_eigenvalues,
    load_norm,
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
    rep = check_admissible(h, BiotParams())
    assert rep.admissible
    assert rep.c0 == pytest.approx(2.0 / 2.6, rel=1e-12)


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
    rep = check_admissible(h, BiotParams())
    assert not rep.admissible


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


def test_cutoff_agrees_between_poly_and_time_parts():
    # the stepper evaluates loads as precomputed spatial parts times t^deg;
    # both evaluations must switch the load off at the same time
    p = Poly2T([(2.0, 1, 0, 1), (-1.0, 0, 2, 0), (0.5, 2, 1, 2)], t_off=0.5)
    x1, x2 = np.array([0.3, 0.7, 1.1]), np.array([0.2, 0.9, -0.4])
    parts = [(deg, spatial(x1, x2, 0.0)) for deg, spatial in t_degree_terms(p)]
    for t in (0.25, 0.5, 0.5 + 5e-13, 0.5 + 1e-9):
        np.testing.assert_allclose(eval_t_parts(parts, t, p.t_off, 3), p(x1, x2, t),
                                   rtol=1e-14, atol=0.0)
    assert p(x1, x2, 0.5 + 5e-13).any()
    assert not p(x1, x2, 0.5 + 1e-9).any()


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
    loads = LoadSpec(f1=Poly2T.constant(50.0), bound_K1=0.1)
    with pytest.warns(UserWarning):
        loads.check_size(((0.0, 1.0), (0.0, 1.0)), 1.0, c0=0.7)
