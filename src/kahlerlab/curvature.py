"""Curvature tensors on complex charts and the bisectional lower bound.

The tensor R_{i jbar k lbar} of a potential-form metric is

    R_{i jbar k lbar} = d_k dbar_l g_{i jbar}
                        - sum_{p,q} (d_k g_{i qbar}) g^{qbar p} (dbar_l g_{p jbar})

with the sign fixed so that the constant-curvature model potentials
reproduce R = -(c/2)(g g + g g) entrywise.  Bisectional curvature of a
unit pair (X, Y) is -R(X, Xbar, Y, Ybar); note the minus sign.

The correction term uses the closed-form g and d g, and d_k dbar_l g
is one fourth-order central difference of the closed-form d g.  R
carries a Richardson error, its change when the step is doubled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NonPositiveDefinite, SingularityTooClose
from .fields import HermitianMetricField, real_to_z, z_to_real

# step on the closed-form dgram, times min(1, distance to a singular point)
CURV_STEP = 1e-3
# rounding of its difference quotients, per unit of max|dgram| / step
CURV_ROUNDING = 32.0 * 2.0 ** -52
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
    """R_{i jbar k lbar} at a point, indexed [i, j, k, l], plus the metric.

    ``error`` bounds the entrywise error of R: its largest entrywise change
    when the finite-difference step is doubled, plus the rounding of the
    difference quotients.
    """

    z: np.ndarray
    R: np.ndarray
    G: np.ndarray
    error: float

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def ricci(self) -> np.ndarray:
        """Trace of R over the first index pair with the inverse metric:
        g^{jbar i} R_{i jbar k lbar}."""
        return np.einsum("ji,ijkl->kl", np.linalg.inv(self.G), self.R)

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
    """Full curvature tensor of a potential-form metric at a chart point:
    ``curvature_tensors`` on a stack of one."""
    z = np.asarray(z, dtype=complex).reshape(metric.chart.n)
    R, G, error = curvature_tensors(metric, z[None])
    return CurvatureData(z=z, R=R[0], G=G[0], error=float(error[0]))


def curvature_tensors(metric: HermitianMetricField, zs: np.ndarray):
    """R, g and R's error bound at every row of a (P, n) point set, as
    (P, n, n, n, n), (P, n, n) and (P,) arrays; each row has the bits of
    that point alone.

    The step at a point is h = CURV_STEP min(1, distance to the nearest
    singular point).  One batched ``dgram`` call at every point and at its
    nodes +-h/2, +-h, +-2h along each real axis gives R at steps h and 2h,
    and one ``gram`` call, one batched inverse and one contraction give the
    correction term.  Raises SingularityTooClose, naming the first such
    point, if a stencil comes within the smoothness radius of a singular
    point.
    """
    if not metric.is_potential_form:
        raise ValueError("curvature requires a potential-form metric")
    phi = metric.potential
    zs = np.asarray(zs, dtype=complex).reshape(-1, phi.n)
    dist = phi.singular_distance(zs)
    h = CURV_STEP * np.minimum(1.0, dist)
    near = ~(dist - 2.0 * h >= phi.smoothness_radius)
    if np.any(near):
        i = int(np.argmax(near))
        raise SingularityTooClose(f"curvature stencil at z={zs[i]} comes within "
                                  f"{max(dist[i] - 2.0 * h[i], 0.0):.3e} of a singular point "
                                  f"of {phi.name!r}")
    G, dG, second, error = _second_derivatives(metric, zs, h)
    Ginv = np.linalg.inv(G)
    # dbar_l g_{p jbar} = conj(d_l g_{j pbar})
    dbarG = np.conj(dG.transpose(0, 1, 3, 2))            # [P, l, p, j]
    corr = np.einsum("xkiq,xqp,xlpj->xijkl", dG, Ginv, dbarG)
    return second - corr, G, error


def _second_derivatives(metric: HermitianMetricField, zs: np.ndarray, h: np.ndarray):
    """Closed-form g and d g at each row of zs, and d_k dbar_l g_{i jbar}
    as [P, i, j, k, l] with its Richardson error, from one ``dgram`` call;
    ``h`` holds each point's step.

    dbar_l d_k g = (1/2)(d/dx_l + i d/dy_l) dgram[k]; the fourth-order
    central difference at step s is (4 D(s/2) - D(s)) / 3, so steps h and
    2h share the +-h nodes.
    """
    P, n = zs.shape
    steps = np.stack([h / 2, -h / 2, h, -h, 2 * h, -2 * h], axis=1)    # [P, step]
    offsets = np.eye(2 * n)[:, None, :] * steps[:, None, :, None]     # [P, axis, step, coord]
    nodes = real_to_z((z_to_real(zs)[:, None] + offsets.reshape(P, -1, 2 * n)).reshape(-1, 2 * n))
    D = metric.dgram(np.concatenate([zs[:, None], nodes.reshape(P, -1, n)], axis=1)
                     .reshape(-1, n)).reshape(P, -1, n, n, n)
    Ds = D[:, 1:].reshape(P, 2 * n, 3, 2, n, n, n)       # [P, axis, step, sign, k, i, j]
    central = (Ds[:, :, :, 0] - Ds[:, :, :, 1]) / (2.0 * steps[:, None, ::2, None, None, None])
    grad = (4.0 * central[:, :, :2] - central[:, :, 1:]) / 3.0   # [P, axis, (h, 2h), k, i, j]
    dd = 0.5 * (grad[:, :n] + 1j * grad[:, n:])          # [P, l, (h, 2h), k, i, j]
    second = dd.transpose(0, 2, 4, 5, 3, 1)              # [P, (h, 2h), i, j, k, l]
    error = (np.max(np.abs(second[:, 0] - second[:, 1]), axis=(1, 2, 3, 4))
             + CURV_ROUNDING * np.max(np.abs(D), axis=(1, 2, 3, 4)) / h)
    return metric.gram(zs), D[:, 0], second[:, 0], error


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
    eigenpair of the pencil (A, Gbar).  With Gbar = L L^H that is the
    smallest eigenpair (lambda, v) of L^-1 A L^-H, and X = L^-H v.  A Gbar
    that is not positive definite raises ``NonPositiveDefinite``.
    """
    Gbar = np.conj(G)
    B = np.einsum("ijkl,k,l->ji", R, Y, np.conj(Y))
    w = np.conj(G @ np.conj(Y))
    A = -0.5 * (B + np.conj(B.T)) - K * Gbar - K * np.outer(w, np.conj(w))
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(Gbar))
    except np.linalg.LinAlgError as e:
        raise NonPositiveDefinite("bk-defect step: the metric is not positive definite") from e
    C = Linv @ A @ np.conj(Linv.T)
    val, vec = np.linalg.eigh(0.5 * (C + np.conj(C.T)))
    return float(val[0]), np.conj(Linv.T) @ vec[:, 0]


def min_bk_defect(data: CurvatureData, K: float, samples: int = 1500, seed: int = 0):
    """Global minimum of bk_defect over unit pairs: (value, pair, error).

    Starts from the best of ``samples`` seeded random pairs, then
    alternates exact half-steps: X <- argmin f(., Y) and Y <- argmin f(X, .),
    each the smallest eigenpair of a generalized Hermitian eigenproblem
    with the metric, so f never increases.  Stops when a sweep lowers f by
    no more than 1e-12 max(1, |f|); raises NonConvergence if that has not
    happened after MAX_SWEEPS sweeps.  Deterministic for a fixed seed.

    ``error`` bounds the distance to the minimum for the exact tensor.  An
    entrywise error e of R moves the defect of a g-unit pair by at most
    e (sum_i |X^i|)^2 (sum_k |Y^k|)^2 <= e n^2 / lambda_min(G)^2, and the
    last sweep's gain stands for the descent left undone.
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
        gain = f - f_new
        if gain <= 1e-12 * max(1.0, abs(f_new)):
            pair = TangentPair(X=x, Y=y, G=data.G)
            lam = np.linalg.eigvalsh(data.G)[0]
            error = data.error * n * n / lam ** 2 + max(gain, 0.0)
            return bk_defect(data, K, pair), pair, float(error)
        f = f_new
    raise NonConvergence(f"bk-defect minimisation still descending after {MAX_SWEEPS} sweeps")
