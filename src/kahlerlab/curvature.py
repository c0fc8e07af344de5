"""Curvature tensors on complex charts and the bisectional lower bound.

The tensor R_{i jbar k lbar} is computed from a potential-form metric by
nested finite differences:

    R_{i jbar k lbar} = d_k dbar_l g_{i jbar}
                        - sum_{p,q} (d_k g_{i qbar}) g^{qbar p} (dbar_l g_{p jbar})

with the sign fixed so that the constant-curvature model potentials
reproduce R = -(c/2)(g g + g g) entrywise.  Bisectional curvature of a
unit pair (X, Y) is -R(X, Xbar, Y, Ybar); note the minus sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigh

from . import fd
from .errors import NonConvergence, SingularityTooClose
from .fields import HermitianMetricField, real_to_z, z_to_real

CURV_OUTER_H = 0.015
CURV_INNER_H = 8e-3
MAX_SWEEPS = 500


def hermitian_inner(G: np.ndarray, X: np.ndarray, Y: np.ndarray) -> complex:
    """<X, Ybar>_g = sum g_{i jbar} X^i conj(Y^j)."""
    return complex(np.einsum("ij,i,j->", G, X, np.conj(Y)))


@dataclass
class TangentPair:
    """Two type-(1,0) tangent vectors, unit-norm for the metric at a point."""

    X: np.ndarray
    Y: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=complex)
        Y = np.asarray(self.Y, dtype=complex)
        nx = np.sqrt(hermitian_inner(self.G, X, X).real)
        ny = np.sqrt(hermitian_inner(self.G, Y, Y).real)
        if nx <= 0 or ny <= 0:
            raise ValueError("tangent vectors must be nonzero")
        self.X = X / nx
        self.Y = Y / ny
        assert abs(hermitian_inner(self.G, self.X, self.X).real - 1.0) < 1e-12
        assert abs(hermitian_inner(self.G, self.Y, self.Y).real - 1.0) < 1e-12


@dataclass
class CurvatureData:
    """R_{i jbar k lbar} at a point, indexed [i, j, k, l], plus the metric."""

    z: np.ndarray
    R: np.ndarray
    G: np.ndarray
    _ricci: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def ricci(self) -> np.ndarray:
        """Trace of R over the first index pair with the inverse metric."""
        if self._ricci is None:
            Ginv = np.linalg.inv(self.G)
            # g^{jbar i} R_{i jbar k lbar}
            self._ricci = np.einsum("ji,ijkl->kl", Ginv, self.R)
        return self._ricci

    @property
    def scalar(self) -> float:
        Ginv = np.linalg.inv(self.G)
        return float(np.einsum("lk,kl->", Ginv, self.ricci).real)

    def symmetry_residual(self) -> float:
        """Worst violation of the Kahler curvature symmetries."""
        R = self.R
        r1 = np.max(np.abs(R - R.transpose(2, 1, 0, 3)))   # i <-> k
        r2 = np.max(np.abs(R - R.transpose(0, 3, 2, 1)))   # jbar <-> lbar
        r3 = np.max(np.abs(R - np.conj(R.transpose(1, 0, 3, 2))))
        return float(max(r1, r2, r3))


def curvature_tensor(metric: HermitianMetricField, z: np.ndarray) -> CurvatureData:
    """Full curvature tensor of a potential-form metric at a chart point.

    The outer step differentiates the metric matrices; the inner gram
    evaluations use a step chosen to keep round-off noise below the
    truncation error of the outer stencil.  Raises SingularityTooClose if
    the nested stencil, which reaches sqrt(2) (outer + inner step) from z,
    comes within the smoothness radius of a singular point.
    """
    if not metric.is_potential_form:
        raise ValueError("curvature requires a potential-form metric")
    phi = metric.potential
    n = phi.n
    z = np.asarray(z, dtype=complex).reshape(n)
    h_inner = max(metric.h, CURV_INNER_H)
    reach = phi.smoothness_radius + math.sqrt(2.0) * (CURV_OUTER_H + h_inner)
    if phi.singular_distance(z[None])[0] < reach:
        raise SingularityTooClose(f"curvature stencil at z={z} comes within "
                                  f"{reach:.3e} of a singular point of {phi.name!r}")

    def gram_raw(xs):
        zs = real_to_z(xs)
        return fd.wirtinger_dd(lambda u: phi(real_to_z(u)), z_to_real(zs), h_inner, n)

    x0 = z_to_real(z[None, :])
    G0 = gram_raw(x0)[0]
    G = 0.5 * (G0 + np.conj(G0.T))
    DD = fd.wirtinger_dd(gram_raw, x0, CURV_OUTER_H, n)[0]    # [k, l, i, j]
    dG = fd.wirtinger_d(gram_raw, x0, CURV_OUTER_H, n)[0]     # [k, i, j] = d_k g_{i jbar}
    Ginv = np.linalg.inv(G)

    second = DD.transpose(2, 3, 0, 1)                    # [i, j, k, l]
    # dbar_l g_{p jbar} = conj(d_l g_{j pbar})
    dbarG = np.conj(dG.transpose(0, 2, 1))               # [l, p, j]
    corr = np.einsum("kiq,qp,lpj->ijkl", dG, Ginv, dbarG)
    return CurvatureData(z=z, R=second - corr, G=G)


def bisectional(data: CurvatureData, pair: TangentPair) -> float:
    """-R(X, Xbar, Y, Ybar) for a normalized pair: the defect at level 0."""
    return bk_defect(data, 0.0, pair)


def bk_defect(data: CurvatureData, K: float, pair: TangentPair) -> float:
    """-R(X,Xbar,Y,Ybar) - K(<X,Xbar><Y,Ybar> + |<X,Ybar>|^2).

    Nonnegative over all unit pairs exactly when the bisectional lower
    bound at level K holds at the point.
    """
    return float(_defect_batch(data, K, pair.X[None, :], pair.Y[None, :])[0])


def _defect_batch(data: CurvatureData, K: float, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """bk_defect for batches of already g-normalized vectors."""
    b = -np.einsum("ijkl,pi,pj,pk,pl->p", data.R, X, np.conj(X), Y, np.conj(Y)).real
    xy = np.einsum("ij,pi,pj->p", data.G, X, np.conj(Y))
    return b - K * (1.0 + np.abs(xy) ** 2)


def _normalize_batch(G: np.ndarray, V: np.ndarray) -> np.ndarray:
    nrm = np.sqrt(np.einsum("ij,pi,pj->p", G, V, np.conj(V)).real)
    return V / nrm[:, None]


def _eigen_step(R: np.ndarray, G: np.ndarray, K: float, Y: np.ndarray):
    """The g-unit X minimising the defect for fixed unit Y, and the minimum.

    The defect is the Hermitian form X^H A X with
    A = -B - K Gbar - K w w^H, B_{ji} = sum_kl R_ijkl Y^k Ybar^l and
    w = conj(G Ybar), so the minimum over X^H Gbar X = 1 is the smallest
    eigenpair of the pencil (A, Gbar).
    """
    Gbar = np.conj(G)
    B = np.einsum("ijkl,k,l->ji", R, Y, np.conj(Y))
    w = np.conj(G @ np.conj(Y))
    A = -0.5 * (B + np.conj(B.T)) - K * Gbar - K * np.outer(w, np.conj(w))
    val, vec = eigh(A, Gbar, subset_by_index=[0, 0])
    return float(val[0]), vec[:, 0]


def min_bk_defect(data: CurvatureData, K: float, samples: int = 1500, seed: int = 0):
    """Global minimum of bk_defect over unit pairs; returns (value, pair).

    Starts from the best of ``samples`` seeded random pairs, then
    alternates exact half-steps: X <- argmin f(., Y) and Y <- argmin f(X, .),
    each the smallest eigenpair of a generalized Hermitian eigenproblem
    with the metric, so f never increases.  Stops when a sweep lowers f by
    no more than 1e-12 max(1, |f|); raises NonConvergence if that has not
    happened after MAX_SWEEPS sweeps.  Deterministic for a fixed seed.
    """
    n = data.n
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    Y = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    X = _normalize_batch(data.G, X)
    Y = _normalize_batch(data.G, Y)
    vals = _defect_batch(data, K, X, Y)
    best = int(np.argmin(vals))
    f, y = float(vals[best]), Y[best]
    R_swapped = data.R.transpose(2, 3, 0, 1)           # Y in the first pair
    for _ in range(MAX_SWEEPS):
        _, x = _eigen_step(data.R, data.G, K, y)
        f_new, y = _eigen_step(R_swapped, data.G, K, x)
        if f - f_new <= 1e-12 * max(1.0, abs(f_new)):
            pair = TangentPair(X=x, Y=y, G=data.G)
            return bk_defect(data, K, pair), pair
        f = f_new
    raise NonConvergence(f"bk-defect minimisation still descending after {MAX_SWEEPS} sweeps")


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
