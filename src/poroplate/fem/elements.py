"""Element kernels: the Q1 brick and rectangle, and the C1 bending rectangle.

All meshes in this toolkit are uniform axis-aligned grids, so each kernel is
computed once per (element size, coefficient) pair and scattered.  Every
basis and Gauss rule is a product of 1-D tables, one per axis: the linear
table 0.5 (1 +- x) for Q1 in 2-D and 3-D, the cubic Hermite table for the
Bogner-Fox-Schmit rectangle, the 1-D Gauss-Legendre rule.  Strain
vectors use the engineering convention matching material.py:
3D (e11, e22, e33, 2e23, 2e13, 2e12), 2D membrane (e11, e22, 2e12),
bending curvature (k11, k22, 2k12).
"""

from __future__ import annotations

import math
from functools import cache, reduce

import numpy as np

# VTK corner order of the Q1 element: the (i, j, k) offsets of the hexahedron's
# corners; the first four corners' (i, j) are the quadrilateral's.
CORNERS = np.array(
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
    dtype=np.int64,
)

# the identity on symmetric matrices in the engineering strain vector:
# e : e = s^T STRAIN_IDENTITY s for the strain vector s of e
STRAIN_IDENTITY = np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])

# Gauss points per direction of the Q1 kernels: exact for their stiffness
N_GAUSS = 2

# engineering strain rows as (displacement component, derivative direction)
# pairs, by dimension: 3-D (e11, e22, e33, 2e23, 2e13, 2e12), 2-D membrane
# (e11, e22, 2e12)
_STRAIN_ROWS = {
    3: (((0, 0),), ((1, 1),), ((2, 2),), ((1, 2), (2, 1)), ((0, 2), (2, 0)), ((0, 1), (1, 0))),
    2: (((0, 0),), ((1, 1),), ((0, 1), (1, 0))),
}


def gauss1d(n: int, a: float = -1.0, b: float = 1.0):
    """n-point Gauss-Legendre rule on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def tensor_rule(x: np.ndarray, w: np.ndarray, d: int):
    """(points (n^d, d), weights (n^d,)) of the d-fold product of the 1-D rule
    (x, w); the first axis varies slowest."""
    P = np.stack(np.meshgrid(*[x] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return P, reduce(np.multiply.outer, [w] * d).ravel()


def q1_basis(points: np.ndarray):
    """(values (nq, 2^d), reference gradients (nq, 2^d, d)) of the Q1 element
    at points (nq, d) in [-1, 1]^d, d = 2 or 3, in VTK corner order.

    Each is a product over the axes of the 1-D linear table 0.5 (1 +- x) or
    its slope +-0.5.
    """
    P = np.atleast_2d(points)
    d = P.shape[1]
    s = 2.0 * CORNERS[:2**d, :d] - 1.0                  # (2^d, d) corner signs
    val = 0.5 * (1 + s * P[:, None, :])                 # (nq, 2^d, d)
    slope = np.broadcast_to(0.5 * s, val.shape)
    N = reduce(np.multiply, [val[..., i] for i in range(d)])
    dN = np.stack([reduce(np.multiply, [(slope if i == k else val)[..., i] for i in range(d)])
                   for k in range(d)], axis=-1)
    return N, dN


@cache
def _reference_q1(d: int):
    """(Gauss points, weights, Q1 values, reference gradients) on [-1, 1]^d,
    built once per dimension and read-only, since every caller shares them."""
    pts, wts = tensor_rule(*gauss1d(N_GAUSS), d)
    tables = (pts, wts) + q1_basis(pts)
    for t in tables:
        t.setflags(write=False)
    return tables


def qp_data(spacing):
    """(shape, dN/dx, w*detJ, ref points) of the Q1 element on an axis-aligned
    box of the given edge lengths, d = len(spacing)."""
    d = len(spacing)
    pts, wts, N, dN = _reference_q1(d)
    return N, dN * (2.0 / np.asarray(spacing, dtype=float)), wts * (math.prod(spacing) / 2**d), pts


def strain_B(dN: np.ndarray) -> np.ndarray:
    """(nq, rows, n*d) engineering-strain matrices of gradients dN (nq, n, d),
    dof order [n0x n0y (n0z) n1x ...], rows from `_STRAIN_ROWS[d]`."""
    nq, n, d = dN.shape
    rows = _STRAIN_ROWS[d]
    B = np.zeros((nq, len(rows), n, d))
    for r, pairs in enumerate(rows):
        for comp, direction in pairs:
            B[:, r, :, comp] = dN[:, :, direction]
    return B.reshape(nq, len(rows), n * d)


# ----------------------------------------------------------------- hex kernels

_ELASTIC_FORM = "q,qia,ij,qjb->ab"
_DIFFUSION_FORM = "q,qai,ij,qbj->ab"


def _hex_form_paths():
    """The `einsum` contraction paths of the two hex forms, searched once:
    they depend on the operand shapes alone, which every hex shares."""
    _, dN, wdet, _ = qp_data((1.0, 1.0, 1.0))
    B = strain_B(dN)
    return (np.einsum_path(_ELASTIC_FORM, wdet, B, np.eye(6), B, optimize=True)[0],
            np.einsum_path(_DIFFUSION_FORM, wdet, dN, np.eye(3), dN, optimize=True)[0])


_ELASTIC_PATH, _DIFFUSION_PATH = _hex_form_paths()


def hex_elastic_ke(spacing, D: np.ndarray) -> np.ndarray:
    """24x24 stiffness for constant Voigt matrix D on an axis-aligned hex."""
    _, dN, wdet, _ = qp_data(spacing)
    B = strain_B(dN)
    return np.einsum(_ELASTIC_FORM, wdet, B, D, B, optimize=_ELASTIC_PATH)


def hex_scalar_mass_ke(spacing) -> np.ndarray:
    N, _, wdet, _ = qp_data(spacing)
    return np.einsum("q,qa,qb->ab", wdet, N, N)


def hex_scalar_diffusion_ke(spacing, K: np.ndarray) -> np.ndarray:
    _, dN, wdet, _ = qp_data(spacing)
    return np.einsum(_DIFFUSION_FORM, wdet, dN, K, dN, optimize=_DIFFUSION_PATH)


def hex_divergence_ke(spacing) -> np.ndarray:
    """8x24 coupling: Ce[j, 3a+i] = int N_j dN_a/dx_i."""
    N, dN, wdet, _ = qp_data(spacing)
    Ce = np.zeros((8, 24))
    for i in range(3):
        Ce[:, i::3] += np.einsum("q,qj,qa->ja", wdet, N, dN[:, :, i])
    return Ce


# ------------------------------------------------- C1 bending rectangle (BFS)

def _hermite1d(h: float, xi, order: int) -> dict:
    """Cubic Hermite basis on [0, h] at xi = x/h, derivative `order` in x only.

    Keyed by (node, kind): node in {0, 1}, kind 0 = value, 1 = slope.
    """
    xi = np.asarray(xi, dtype=float)
    if order == 0:
        return {(0, 0): 1 - 3 * xi**2 + 2 * xi**3, (0, 1): h * (xi - 2 * xi**2 + xi**3),
                (1, 0): 3 * xi**2 - 2 * xi**3, (1, 1): h * (-(xi**2) + xi**3)}
    if order == 1:
        return {(0, 0): (-6 * xi + 6 * xi**2) / h, (0, 1): 1 - 4 * xi + 3 * xi**2,
                (1, 0): (6 * xi - 6 * xi**2) / h, (1, 1): -2 * xi + 3 * xi**2}
    return {(0, 0): (-6 + 12 * xi) / h**2, (0, 1): (-4 + 6 * xi) / h,
            (1, 0): (6 - 12 * xi) / h**2, (1, 1): (-2 + 6 * xi) / h}


# node-local (i, j) positions matching quad connectivity order
_BFS_NODES = [(0, 0), (1, 0), (1, 1), (0, 1)]
# dof kinds per node: value, d/dx, d/dy, d2/dxdy
_BFS_KINDS = [(0, 0), (1, 0), (0, 1), (1, 1)]


def bfs_basis(spacing, points, deriv=(0, 0)) -> np.ndarray:
    """Bogner-Fox-Schmit basis derivative values, shape (nq, 16).

    points are (xi, eta) in [0, 1]^2; deriv = (dx_order, dy_order), each <= 2.
    Dof order per element: node-major, per node (w, w_x, w_y, w_xy).
    """
    return bfs_derivatives(spacing, points, (deriv,))[0]


def bfs_derivatives(spacing, points, derivs) -> list:
    """`bfs_basis` of each derivative pattern in `derivs`, from one 1-D Hermite
    table per axis and derivative order."""
    hx, hy = spacing
    P = np.atleast_2d(points)
    X = {k: _hermite1d(hx, P[:, 0], k) for k in {d[0] for d in derivs}}
    Y = {k: _hermite1d(hy, P[:, 1], k) for k in {d[1] for d in derivs}}
    return [np.stack([X[dx][ia, kx] * Y[dy][ja, ky] for ia, ja in _BFS_NODES
                      for kx, ky in _BFS_KINDS], axis=1) for dx, dy in derivs]


def bfs_bending_B(spacing, points) -> np.ndarray:
    """(nq, 3, 16) curvature rows (w_xx, w_yy, 2 w_xy) at unit-square points."""
    wxx, wyy, wxy = bfs_derivatives(spacing, points, ((2, 0), (0, 2), (1, 1)))
    return np.stack([wxx, wyy, 2.0 * wxy], axis=1)
