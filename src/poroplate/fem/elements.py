"""Element kernels: trilinear hexahedra, bilinear quads, and the C1 bending rectangle.

All meshes in this toolkit are uniform axis-aligned grids, so each kernel is
computed once per (element size, coefficient) pair and scattered.  Strain
vectors use the engineering convention matching material.py:
3D (e11, e22, e33, 2e23, 2e13, 2e12), 2D membrane (e11, e22, 2e12),
bending curvature (k11, k22, 2k12).
"""

from __future__ import annotations

import numpy as np

from .quadrature import gauss_hex, gauss_quad

_CORNER_SIGNS = np.array(
    [(-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1), (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)],
    dtype=float,
)


# ----------------------------------------------------------------- hex kernels

def hex_shape(points: np.ndarray) -> np.ndarray:
    """Trilinear shape values, shape (nq, 8), points in [-1, 1]^3."""
    P = np.atleast_2d(points)
    out = np.empty((len(P), 8))
    for a in range(8):
        s = _CORNER_SIGNS[a]
        out[:, a] = 0.125 * (1 + s[0] * P[:, 0]) * (1 + s[1] * P[:, 1]) * (1 + s[2] * P[:, 2])
    return out


def hex_grad_ref(points: np.ndarray) -> np.ndarray:
    """Reference gradients dN/dxi, shape (nq, 8, 3)."""
    P = np.atleast_2d(points)
    out = np.empty((len(P), 8, 3))
    for a in range(8):
        s = _CORNER_SIGNS[a]
        f0, f1, f2 = 1 + s[0] * P[:, 0], 1 + s[1] * P[:, 1], 1 + s[2] * P[:, 2]
        out[:, a, 0] = 0.125 * s[0] * f1 * f2
        out[:, a, 1] = 0.125 * s[1] * f0 * f2
        out[:, a, 2] = 0.125 * s[2] * f0 * f1
    return out


def hex_qp_data(spacing, n_gauss: int = 2):
    """Quadrature data for an axis-aligned hex: (shape, dN/dx, w*detJ, ref points)."""
    hx, hy, hz = spacing
    pts, wts = gauss_hex(n_gauss)
    N = hex_shape(pts)
    dN = hex_grad_ref(pts) * (2.0 / np.asarray([hx, hy, hz]))
    wdet = wts * (hx * hy * hz / 8.0)
    return N, dN, wdet, pts


def hex_strain_B(dN: np.ndarray) -> np.ndarray:
    """Engineering-strain matrices, (nq, 6, 24), dof order [n0x n0y n0z n1x ...]."""
    nq = dN.shape[0]
    B = np.zeros((nq, 6, 24))
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


def hex_elastic_ke(spacing, D: np.ndarray) -> np.ndarray:
    """24x24 stiffness for constant Voigt matrix D on an axis-aligned hex."""
    N, dN, wdet, _ = hex_qp_data(spacing)
    B = hex_strain_B(dN)
    return np.einsum("q,qia,ij,qjb->ab", wdet, B, D, B, optimize=True)


def hex_scalar_mass_ke(spacing) -> np.ndarray:
    N, _, wdet, _ = hex_qp_data(spacing)
    return np.einsum("q,qa,qb->ab", wdet, N, N)


def hex_scalar_diffusion_ke(spacing, K: np.ndarray) -> np.ndarray:
    _, dN, wdet, _ = hex_qp_data(spacing)
    return np.einsum("q,qai,ij,qbj->ab", wdet, dN, K, dN, optimize=True)


def hex_divergence_ke(spacing) -> np.ndarray:
    """8x24 coupling: Ce[j, 3a+i] = int N_j dN_a/dx_i."""
    N, dN, wdet, _ = hex_qp_data(spacing)
    Ce = np.zeros((8, 24))
    for i in range(3):
        Ce[:, i::3] += np.einsum("q,qj,qa->ja", wdet, N, dN[:, :, i])
    return Ce


# ------------------------------------------------------------ bilinear quads

def quad_shape(points: np.ndarray) -> np.ndarray:
    """Bilinear shape values on [-1, 1]^2, node order (-,-), (+,-), (+,+), (-,+)."""
    P = np.atleast_2d(points)
    s = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
    out = np.empty((len(P), 4))
    for a in range(4):
        out[:, a] = 0.25 * (1 + s[a, 0] * P[:, 0]) * (1 + s[a, 1] * P[:, 1])
    return out


def quad_grad_ref(points: np.ndarray) -> np.ndarray:
    P = np.atleast_2d(points)
    s = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
    out = np.empty((len(P), 4, 2))
    for a in range(4):
        out[:, a, 0] = 0.25 * s[a, 0] * (1 + s[a, 1] * P[:, 1])
        out[:, a, 1] = 0.25 * s[a, 1] * (1 + s[a, 0] * P[:, 0])
    return out


def quad_qp_data(spacing, n_gauss: int = 2):
    """(shape, dN/dx, w*detJ, ref points) on an axis-aligned rectangle."""
    hx, hy = spacing
    pts, wts = gauss_quad(n_gauss)
    N = quad_shape(pts)
    dN = quad_grad_ref(pts) * (2.0 / np.asarray([hx, hy]))
    wdet = wts * (hx * hy / 4.0)
    return N, dN, wdet, pts


def quad_membrane_B(dN: np.ndarray) -> np.ndarray:
    """(nq, 3, 8) engineering membrane strain, dof order [n0x n0y n1x ...]."""
    nq = dN.shape[0]
    B = np.zeros((nq, 3, 8))
    for a in range(4):
        dx, dy = dN[:, a, 0], dN[:, a, 1]
        c = 2 * a
        B[:, 0, c + 0] = dx
        B[:, 1, c + 1] = dy
        B[:, 2, c + 0] = dy
        B[:, 2, c + 1] = dx
    return B


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
