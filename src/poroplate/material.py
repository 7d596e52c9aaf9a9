"""Two-phase elastic tensors, Biot parameters, and polynomial loads.

Voigt convention: symmetric 6x6 matrices act on the engineering strain vector
(e11, e22, e33, 2*e23, 2*e13, 2*e12) and return the stress vector in the same
component order.  Coercivity constants are eigenvalues of the tensor as a map
on symmetric matrices (Kelvin representation), so that S:A:S >= c0 |S|_F^2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import MaterialError

# Kelvin scaling turns the engineering Voigt matrix into the matrix of the
# tensor in an orthonormal basis of symmetric 3x3 matrices.
_KELVIN = np.diag([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])


def isotropic(E: float, nu: float) -> np.ndarray:
    """Voigt 6x6 of an isotropic Hooke tensor from Young's modulus and Poisson ratio."""
    if E <= 0.0:
        raise MaterialError(f"Young's modulus must be positive, got {E}")
    if not (-1.0 < nu < 0.5):
        raise MaterialError(f"Poisson ratio must lie in (-1, 1/2), got {nu}")
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.diag_indices(3)] += 2.0 * mu
    D[3, 3] = D[4, 4] = D[5, 5] = mu
    return D


def kelvin_eigenvalues(D: np.ndarray) -> np.ndarray:
    """Eigenvalues of the tensor as a quadratic form on symmetric matrices.

    With v = (e11, e22, e33, sqrt2 e23, sqrt2 e13, sqrt2 e12) one has
    e:A:e = v^T (S D S) v and |v|^2 = |e|_F^2, so these eigenvalues bound the
    coercivity constant: for isotropic phases the smallest is 2*mu.
    """
    return np.linalg.eigvalsh(_KELVIN @ D @ _KELVIN)


@dataclass(frozen=True)
class HookeTensor:
    """Two-phase fourth-order elasticity tensor, one constant Voigt matrix per phase."""

    fiber: np.ndarray
    gel: np.ndarray

    def __post_init__(self):
        for name, D in (("fiber", self.fiber), ("gel", self.gel)):
            D = np.asarray(D, dtype=float)
            if D.shape != (6, 6):
                raise MaterialError(f"{name} Voigt matrix must be 6x6, got {D.shape}")
            if not np.allclose(D, D.T, atol=1e-12 * max(1.0, np.abs(D).max())):
                raise MaterialError(f"{name} Voigt matrix is not symmetric")
            object.__setattr__(self, name, D)

    def coercivity(self) -> float:
        """Smallest Kelvin eigenvalue over both phases (the c0 of the coercivity bound)."""
        return min(kelvin_eigenvalues(self.fiber).min(), kelvin_eigenvalues(self.gel).min())


@dataclass(frozen=True)
class BiotParams:
    """Biot modulus, Biot-Willis coefficient, and SPD permeability matrix."""

    c: float = 1.0
    alpha: float = 1.0
    K: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        if K.shape != (3, 3):
            raise MaterialError(f"permeability must be 3x3, got {K.shape}")
        if not np.allclose(K, K.T, atol=1e-12 * max(1.0, np.abs(K).max())):
            raise MaterialError("permeability matrix is not symmetric")
        if self.c <= 0.0:
            raise MaterialError(f"Biot modulus must be positive, got {self.c}")
        if self.alpha < 0.0:
            raise MaterialError(f"Biot-Willis coefficient must be nonnegative, got {self.alpha}")
        try:
            np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            raise MaterialError("permeability matrix is not positive definite") from None
        object.__setattr__(self, "K", K)

    @property
    def c_K(self) -> float:
        return float(np.linalg.eigvalsh(self.K).min())


def require_admissible(hooke: HookeTensor, biot: BiotParams):
    """Reject degenerate inputs: the coercivity constants c0 and c_K must exceed 1e-12."""
    tol = 1e-12
    c0 = hooke.coercivity()
    if c0 <= tol:
        raise MaterialError(f"elastic coercivity c0={c0:.3e} <= {tol:.0e}")
    c_K = biot.c_K
    if c_K <= tol:
        raise MaterialError(f"permeability constant c_K={c_K:.3e} <= {tol:.0e}")


class Poly2T:
    """Polynomial in (x1, x2, t): a list of (coeff, px1, px2, pt) monomials.

    An optional cutoff time multiplies the value by the indicator {t <= t_off}
    (see `switched_off`), which is how runs switch loads off mid-trajectory.
    """

    def __init__(self, terms=(), t_off: float | None = None):
        self.terms = [(float(c), int(p1), int(p2), int(pt)) for (c, p1, p2, pt) in terms]
        self.t_off = t_off

    def __call__(self, x1, x2, t):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros(np.broadcast(x1, x2).shape)
        if switched_off(t, self.t_off):
            return out
        for c, p1, p2, pt in self.terms:
            out += c * x1**p1 * x2**p2 * t**pt
        return out

    def dt(self) -> "Poly2T":
        """Time derivative (the cutoff, if any, is kept)."""
        return Poly2T(
            [(c * pt, p1, p2, pt - 1) for (c, p1, p2, pt) in self.terms if pt > 0],
            t_off=self.t_off,
        )

    def max_t_degree(self) -> int:
        return max((pt for _, _, _, pt in self.terms), default=0)


def switched_off(t: float, t_off) -> bool:
    """The load cutoff: True once t > t_off, with 1e-12 slack so that a time
    reached by summing step sizes still counts as t_off."""
    return t_off is not None and t > t_off + 1e-12


def t_degree_terms(poly: Poly2T):
    """(deg, spatial Poly2T of the t^deg monomials) for each time degree that
    has nonzero monomials; evaluate the spatial part at any t."""
    for deg in range(poly.max_t_degree() + 1):
        terms = [(c, p1, p2, 0) for (c, p1, p2, pt) in poly.terms if pt == deg and c != 0.0]
        if terms:
            yield deg, Poly2T(terms)


@dataclass(frozen=True)
class LoadSeries:
    """A time-dependent length-n vector sum vec t^deg over (deg, t_off, vec)
    parts, each part zero once `switched_off(t, t_off)`.

    The loads are polynomial in t, so every load vector and every linear
    response to one is a few fixed spatial vectors: `build` makes them from
    the loads, `map` sends them through a linear map of the space.
    """

    parts: tuple
    n: int

    @classmethod
    def build(cls, polys, vector, n: int) -> "LoadSeries":
        """One part per time degree of each poly; vector(k, spatial) is the
        length-n vector of polys[k]'s spatial `t_degree_terms` polynomial."""
        return cls(tuple((deg, poly.t_off, vector(k, spatial))
                         for k, poly in enumerate(polys)
                         for deg, spatial in t_degree_terms(poly)), n)

    def __call__(self, t: float) -> np.ndarray:
        out = np.zeros(self.n)
        for deg, t_off, vec in self.parts:
            if not switched_off(t, t_off):
                out += vec * t**deg
        return out

    def map(self, f) -> "LoadSeries":
        """The series of f(vec) for a linear map f of the length-n vectors."""
        return LoadSeries(tuple((deg, t_off, f(vec)) for deg, t_off, vec in self.parts), self.n)


@dataclass
class LoadSpec:
    """In-plane/transverse body force f=(f1,f2,f3) and gel source h on omega.

    The components are given in the strong (already scaled-out) form; the
    epsilon scalings are always applied by `micro.assemble_micro`, never by the
    caller.
    """

    f1: Poly2T = field(default_factory=Poly2T)
    f2: Poly2T = field(default_factory=Poly2T)
    f3: Poly2T = field(default_factory=Poly2T)
    h: Poly2T = field(default_factory=Poly2T)
    bound_K1: float = 1.0

    def components(self):
        return (self.f1, self.f2, self.f3)

    def check_size(self, omega, T: float, c0: float) -> float:
        """Quadrature estimate of ||f||_{H1(0,T;L2)} + ||h||_{L2((0,T)x omega)}.

        The smallness condition behind the linear-response estimates has an
        unspecified constant, so a large value only triggers a warning,
        never a rejection.
        """
        norm = load_norm(self, omega, T)
        if norm > self.bound_K1 and norm > 0.5 * c0:
            warnings.warn(
                f"load norm {norm:.3g} exceeds K1={self.bound_K1:.3g} and c0/2={0.5 * c0:.3g}; "
                "the linear-response estimates may degrade",
                stacklevel=2,
            )
        return norm


# Gauss points per axis (x1, x2, t) of `load_norm`
_LOAD_NORM_GAUSS = 6


def load_norm(loads: LoadSpec, omega, T: float) -> float:
    """Numerical ||f||_{H1(0,T;L2(omega))} + ||h||_{L2((0,T) x omega)}."""
    (a1, b1), (a2, b2) = omega
    gx, gw = np.polynomial.legendre.leggauss(_LOAD_NORM_GAUSS)
    x1 = 0.5 * (a1 + b1) + 0.5 * (b1 - a1) * gx
    x2 = 0.5 * (a2 + b2) + 0.5 * (b2 - a2) * gx
    wx = np.outer(gw, gw) * 0.25 * (b1 - a1) * (b2 - a2)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    tq = 0.5 * T + 0.5 * T * gx
    tw = 0.5 * T * gw

    def l2_sq(p: Poly2T, t: float) -> float:
        return float(np.sum(p(X1, X2, t) ** 2 * wx))

    f_sq = 0.0
    h_sq = 0.0
    for t, w in zip(tq, tw):
        for comp in loads.components():
            f_sq += w * (l2_sq(comp, t) + l2_sq(comp.dt(), t))
        h_sq += w * l2_sq(loads.h, t)
    return float(np.sqrt(f_sq) + np.sqrt(h_sq))

