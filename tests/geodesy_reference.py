"""Einsum reference for the geodesic solver's contractions.

``geodesy._price`` contracts each segment's form and ``geodesy._energy_gradient``
each segment's flux in Hermitian form, one term per gram entry.  These are
the plain tensor contractions over every (i, j) pair, so tests can pin the
solver's kernels against an independent route to the same energies and
gradients.
"""

import numpy as np

from kahlerlab.fields import HermitianMetricField


def segment_grams(metric: HermitianMetricField, paths: np.ndarray) -> np.ndarray:
    """(Q, N, n, n) grams averaged over the two ends of each segment."""
    Q, M, n = paths.shape
    G = metric.gram(paths.reshape(Q * M, n), check=False).reshape(Q, M, n, n)
    return 0.5 * (G[:, :-1] + G[:, 1:])


def energies(metric: HermitianMetricField, paths: np.ndarray) -> np.ndarray:
    """(Q,) trapezoid energies 2N sum_k dz_k^T Gavg_k conj(dz_k) of (Q, N+1, n) paths."""
    N = paths.shape[1] - 1
    dz = np.diff(paths, axis=1)
    e = np.einsum("qkij,qki,qkj->qk", segment_grams(metric, paths), dz, np.conj(dz)).real
    return 2.0 * N * np.sum(e, axis=1)


def energy_gradient(metric: HermitianMetricField, paths: np.ndarray) -> np.ndarray:
    """(Q, N-1, 2n) real gradient of ``energies`` wrt the interior nodes:
    the velocity part through the segment fluxes Gavg_k^T dz_k, the metric
    part A_k = N sum_ij dgram[k, i, j] (dm_i conj dm_j + dp_i conj dp_j)
    over the two segments dm, dp at each node; x-part 2 Re, y-part 2 Im of
    dE/dzbar and -2 Im of A."""
    Q, M, n = paths.shape
    N = M - 1
    dz = np.diff(paths, axis=1)
    flux = np.einsum("qkij,qki->qkj", segment_grams(metric, paths), dz)
    dEdzbar = 2.0 * N * (flux[:, :-1] - flux[:, 1:])
    dG = metric.dgram(paths[:, 1:-1].reshape(-1, n)).reshape(Q, N - 1, n, n, n)
    dm, dp = dz[:, :-1], dz[:, 1:]
    outer = (np.einsum("qmi,qmj->qmij", dm, np.conj(dm))
             + np.einsum("qmi,qmj->qmij", dp, np.conj(dp)))
    A = N * np.einsum("qmkij,qmij->qmk", dG, outer)
    return np.concatenate([2.0 * (dEdzbar.real + A.real),
                           2.0 * (dEdzbar.imag - A.imag)], axis=2)
