"""Finite-difference reference for the closed-form metrics.

The library takes g and d g in closed form.  These stencils take them
from a potential instead, so tests can pin each closed form against an
independent route: g = d dbar phi by the Richardson-extrapolated
``fd.hessian``, d g by fourth-order central differences of g, and the
curvature tensor by two nested levels of both.
"""

import numpy as np

from kahlerlab import fd
from kahlerlab.curvature import CurvatureData
from kahlerlab.fields import HermitianMetricField, real_to_z, z_to_real

GRAM_STEP = 1e-3        # step of grams from a potential and of dgrams from grams
# nested curvature steps: the metric matrices come from FD with the inner
# step, chosen to keep round-off below the outer stencil's truncation
CURV_OUTER_H = 0.015
CURV_INNER_H = 8e-3


def _gradient(f, x, h):
    """Fourth-order first derivatives along every real axis; (P, m, ...)."""
    m = x.shape[1]
    steps = np.array([h, -h, h / 2, -h / 2])
    offsets = (np.eye(m)[:, None, :] * steps[:, None]).reshape(-1, m)   # [axis, step]
    vals = np.asarray(f((x[None] + offsets[:, None]).reshape(-1, m)))
    v = vals.reshape((m, 4) + x.shape[:1] + vals.shape[1:])
    d_h, d_h2 = (v[:, 0] - v[:, 1]) / (2 * h), (v[:, 2] - v[:, 3]) / h
    return np.moveaxis((4 * d_h2 - d_h) / 3, 0, 1)


def _wirtinger_dd(f, x, h, n):
    """d_i dbar_j of a field on real coordinates (x_1..x_n, y_1..y_n);
    (P, n, n, ...)."""
    H = fd.hessian(f, x, h)
    return 0.25 * (H[:, :n, :n] + H[:, n:, n:] + 1j * (H[:, :n, n:] - H[:, n:, :n]))


def _wirtinger_d(f, x, h, n):
    """Holomorphic first derivatives d_k; (P, n, ...)."""
    G = _gradient(f, x, h)
    return 0.5 * (G[:, :n] - 1j * G[:, n:])


def gram_from_potential(phi, zs):
    """(P, n, n) Hermitian part of d_i dbar_j phi at chart points zs."""
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    G = _wirtinger_dd(lambda xs: phi(real_to_z(xs)), z_to_real(zs), GRAM_STEP, phi.n)
    return 0.5 * (G + np.conj(np.swapaxes(G, -1, -2)))


def dgram_from_gram(gram, zs):
    """(P, n, n, n) derivatives [p, k, i, j] = d_k g_{i jbar} of a batched gram."""
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    return _wirtinger_d(lambda xs: gram(real_to_z(xs)), z_to_real(zs), GRAM_STEP, zs.shape[1])


def fd_metric(chart, phi) -> HermitianMetricField:
    """The metric of a potential with both matrices from the reference."""
    def gram(zs):
        return gram_from_potential(phi, zs)

    return HermitianMetricField(chart, gram, lambda zs: dgram_from_gram(gram, zs),
                                potential=phi)


def nested_curvature(phi, z) -> CurvatureData:
    """R_{i jbar k lbar} of the potential phi at z by two nested levels: g at
    the inner step, d g and d dbar g of that at the outer step.  ``error`` is
    R's largest entrywise change when both steps double."""
    z = np.asarray(z, dtype=complex).reshape(phi.n)
    x0 = z_to_real(z[None])

    def level(outer, inner):
        def gram(xs):
            return _wirtinger_dd(lambda u: phi(real_to_z(u)), xs, inner, phi.n)

        G = gram(x0)[0]
        DD = _wirtinger_dd(gram, x0, outer, phi.n)[0]     # [k, l, i, j]
        dG = _wirtinger_d(gram, x0, outer, phi.n)[0]      # [k, i, j] = d_k g_{i jbar}
        return 0.5 * (G + np.conj(G.T)), dG, DD.transpose(2, 3, 0, 1)

    G, dG, second = level(CURV_OUTER_H, CURV_INNER_H)
    doubled = level(2.0 * CURV_OUTER_H, 2.0 * CURV_INNER_H)[2]
    corr = np.einsum("kiq,qp,lpj->ijkl", dG, np.linalg.inv(G), np.conj(dG.transpose(0, 2, 1)))
    return CurvatureData(z=z, R=second - corr, G=G,
                         error=float(np.max(np.abs(second - doubled))))
