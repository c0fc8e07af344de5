"""Curvature identities that pin ``curvature_tensor``: the real tensor
rebuilt from the complex one, and the Kahler Bianchi-type identity
R(X, JX, Y, JY) = R(X, Y, X, Y) + R(X, JY, X, JY) on it.
"""

import numpy as np

from kahlerlab.curvature import CurvatureData


def _q(data: CurvatureData, a, b, c, d) -> complex:
    return complex(np.einsum("ijkl,i,j,k,l->", data.R, a, np.conj(b), c, np.conj(d)))


def _r_real(data: CurvatureData, x, y, z, w) -> float:
    """Real curvature R(X,Y,Z,W) reconstructed from the complex tensor.

    Arguments are the (1,0) components of real tangent vectors; the overall
    scale convention cancels in identity checks.
    """
    val = _q(data, x, y, z, w) - _q(data, x, y, w, z) \
        - _q(data, y, x, z, w) + _q(data, y, x, w, z)
    return float(val.real)


def bianchi_check(data: CurvatureData, v1: np.ndarray, v2: np.ndarray) -> float:
    """|R(X,JX,Y,JY) - R(X,Y,X,Y) - R(X,JY,X,JY)| for real vectors v1, v2."""
    n = data.n
    v1 = np.asarray(v1, dtype=float).reshape(2 * n)
    v2 = np.asarray(v2, dtype=float).reshape(2 * n)
    x = v1[:n] + 1j * v1[n:]
    y = v2[:n] + 1j * v2[n:]
    lhs = _r_real(data, x, 1j * x, y, 1j * y)
    rhs = _r_real(data, x, y, x, y) + _r_real(data, x, 1j * y, x, 1j * y)
    return abs(lhs - rhs)
