"""Closed-form geometries: constant-curvature models, cones, quotients.

The model space M_K has holomorphic sectional curvature 2K (c = 2K).  In
the normalization of ``fields`` (flat potential |z|^2/2) its potential is

    phi_K = (2/c) log(1 + (c/4) |z|^2)

which expands as |z|^2/2 + O(|z|^4) at the origin.  Cone surfaces carry
the metric ds^2 = r^{-2 alpha} (dr^2 + r^2 dtheta^2); their geodesic
radius is rho = r^{1-alpha}/(1-alpha) and rho^2/2 is a potential.

Each geometry writes its distance once, as one batched kernel:
``model_distance`` (atan2 and asinh forms that stay accurate for close
points and next to the K > 0 cap), ``cone_distance`` (the law of
cosines on polar coordinates, in a sin^2 form that keeps close points
accurate) and ``QuotientData.distance_field`` (the round link quotient
in homogeneous coordinates).  The ``distance_field`` methods call them
on stacks; a one-row call is a point's distance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
import numpy as np

from .errors import DomainExceeded
from .fields import ComplexChart, HermitianMetricField, ScalarField, flat_potential

DK_MARGIN = 1e-9
_SERIES_CUT = 1e-4


def dK_transform(d, K: float):
    """Modified squared distance d_K^2.

    d_K^2 = -(4/K) log cos(d sqrt(K/2)) for K > 0 (domain d < pi/sqrt(2K)),
    d^2 for K = 0, and (4/|K|) log cosh(d sqrt(|K|/2)) for K < 0.  Small
    |K| d^2 is routed through the shared Taylor series, which makes the
    map continuous in K at 0.  With x = d sqrt(|K|/2), log1p(2 sinh^2(x/2))
    and, while cos x >= 1/2, log1p(-2 sin^2(x/2)) keep the small-x digits
    that log(cos x) loses; nearer the cap log(cos x) is the more accurate.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    if K > 0:
        cap = math.pi / math.sqrt(2.0 * K)
        if np.any(d > cap - DK_MARGIN):
            raise DomainExceeded(
                f"d={float(np.max(d)):.6g} exceeds cap {cap:.6g} for K={K}")
    small = np.abs(K) * d * d < _SERIES_CUT
    out = np.empty_like(d)
    d2 = d * d
    # shared expansion d^2 (1 + y/12 + y^2/90 + 17 y^3/10080), y = K d^2
    y = K * d2[small]
    out[small] = d2[small] * (1.0 + y * (1.0 / 12.0
                                         + y * (1.0 / 90.0 + y * (17.0 / 10080.0))))
    big = ~small
    if np.any(big):
        x = d[big] * math.sqrt(abs(K) / 2.0)
        if K > 0:
            cos = np.cos(x)
            out[big] = -(4.0 / K) * np.where(
                cos >= 0.5, np.log1p(-2.0 * np.sin(x / 2.0) ** 2), np.log(cos))
        else:
            out[big] = (4.0 / -K) * np.log1p(2.0 * np.sinh(x / 2.0) ** 2)
    return out if out.ndim else float(out)


def _model_gram(c: float, zs: np.ndarray) -> np.ndarray:
    """Exact g_{i jbar} of the model potential, batched (P, n, n):

        I/(2u) - (c/8) zbar_i z_j / u^2,   u = 1 + (c/4) |z|^2.

    Hermitian by construction: the diagonal is written from real
    squares and each entry above it once, the one below as its conj.
    Built with the points on the last axis, where every product runs
    over P contiguous entries, and returned as a (P, n, n) view."""
    n = zs.shape[1]
    zt = zs.T
    sq = zt.real ** 2 + zt.imag ** 2                         # (n, P)
    u = 1.0 + (c / 4.0) * np.sum(sq, axis=0)
    ms = -(c / 8.0) / (u * u)
    G = np.empty((n, n, len(zs)), dtype=complex)
    for i in range(n):
        G[i, i] = 0.5 / u + ms * sq[i]
        for j in range(i + 1, n):
            np.multiply(ms * np.conj(zt[i]), zt[j], out=G[i, j])
            np.conj(G[i, j], out=G[j, i])
    return np.moveaxis(G, -1, 0)


def _model_dgram(c: float, zs: np.ndarray) -> np.ndarray:
    """Exact d_k g_{i jbar} of the model potential, batched (P, n, n, n):

        -(c/8) (delta_ij zbar_k + zbar_i delta_jk) / u^2
            + (c^2/16) zbar_i z_j zbar_k / u^3.

    Built with the points on the last axis, where every product runs
    over P contiguous entries, and returned as a (P, n, n, n) view."""
    n = zs.shape[1]
    zt = np.ascontiguousarray(zs.T)                          # (n, P)
    zb = np.conj(zt)
    u = 1.0 + (c / 4.0) * np.sum(np.abs(zt) ** 2, axis=0)
    a = (c / 8.0) / u ** 2
    X = zb[:, None] * (((c * c / 16.0) / u ** 3) * zt)[None]   # [i, j]
    for i in range(n):
        X[i, i] -= a
    dG = zb[:, None, None] * X[None]                         # [k, i, j]
    az = a * zb
    for k in range(n):
        dG[k, :, k] -= az
    return np.moveaxis(dG, -1, 0)


@dataclass(frozen=True)
class ModelSpace:
    """Constant holomorphic sectional curvature 2K on its natural chart."""

    K: float
    n: int
    chart: ComplexChart = field(default=None)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.chart is None:
            if self.K < 0:
                # stay inside the Poincare ball |z| < 2/sqrt(|c|)
                r = 0.75 * 2.0 / math.sqrt(2.0 * abs(self.K))
                chart = ComplexChart(n=self.n, radii=r, kind="ball")
            else:
                chart = ComplexChart(n=self.n, radii=1.5, kind="box")
            object.__setattr__(self, "chart", chart)

    @property
    def c(self) -> float:
        return 2.0 * self.K

    @property
    def diameter(self) -> float:
        return math.pi / math.sqrt(self.c) if self.K > 0 else math.inf

    def potential(self) -> ScalarField:
        c, n = self.c, self.n
        if self.K == 0:
            return flat_potential(n)
        return ScalarField(
            fn=lambda zs: (2.0 / c) * np.log1p((c / 4.0) * np.sum(np.abs(zs) ** 2, axis=1)),
            n=n, name=f"model potential, c = {c:g}")

    def metric(self) -> HermitianMetricField:
        c = self.c
        return HermitianMetricField(
            self.chart, lambda zs: _model_gram(c, zs), lambda zs: _model_dgram(c, zs),
            potential=self.potential(), name=f"model metric, c = {c:g}")

    def distance_field(self, p) -> ScalarField:
        """d(p, .) as a batched scalar field of ``model_distance``."""
        p = np.asarray(p, dtype=complex).reshape(self.n)
        return ScalarField(fn=lambda zs: model_distance(self.K, p, zs), n=self.n,
                           name=f"model distance from {p.tolist()}")


def _sq(z: np.ndarray) -> np.ndarray:
    """Row-wise squared norms of a (P, m) complex stack."""
    return np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag)


def model_distance(K: float, z, w):
    """Geodesic distance of the model M_K between chart points, row by row.

    ``z`` and ``w`` are (P, n) stacks or single (n,) points (a scalar is a
    point of C^1) and broadcast against each other; the result is (P,),
    or a float for two points.
    With c = 2K, a = c/4 and N = a|z - w|^2 + a^2 |z ^ w|^2, where
    |z ^ w|^2 = sum_{i<j} |z_i w_j - z_j w_i|^2 (Lagrange's identity gives
    N = (1 + a|z|^2)(1 + a|w|^2) - |1 + a<z, w>|^2 without its cancellation),

        c > 0:  d = (2/sqrt c) atan2(sqrt N, |1 + a<z, w>|),
        c < 0:  d = (2/sqrt -c) asinh(sqrt(-N / ((1 + a|z|^2)(1 + a|w|^2)))),
        c = 0:  d = |z - w|.

    No step divides a nearly equal pair, so d keeps its relative accuracy
    for close points and next to the K > 0 cap.  For c < 0 the closed form
    holds on the whole ball |z| < 2/sqrt(-c), where 1 + a|z|^2 > 0; that
    ball is larger than ``ModelSpace.chart``, which stops at 3/4 of its
    radius, and a point outside it raises ``DomainExceeded``.
    """
    z, w = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (z, w))
    single = z.ndim == 1 and w.ndim == 1
    if z.shape[-1] != w.shape[-1]:
        raise ValueError(f"points of dimensions {z.shape[-1]} and {w.shape[-1]}")
    z, w = np.atleast_2d(z, w)
    diff = z - w
    dd = _sq(diff)
    if K == 0:
        out = np.sqrt(dd)
    else:
        c = 2.0 * K
        a = c / 4.0
        # |z ^ w| = |z ^ (z - w)|, whose products cancel less for close points
        wedge = sum(np.abs(z[:, i] * diff[:, j] - z[:, j] * diff[:, i]) ** 2
                    for i, j in itertools.combinations(range(z.shape[1]), 2))
        N = a * (dd + a * wedge)
        if c > 0:
            out = (2.0 / math.sqrt(c)) * np.arctan2(np.sqrt(N),
                                                    np.abs(1.0 + a * np.vecdot(w, z)))
        else:
            den = (1.0 + a * _sq(z)) * (1.0 + a * _sq(w))
            if np.any(den <= 0):
                raise DomainExceeded(f"point outside the ball |z| < 2/sqrt(-c) = "
                                     f"{2.0 / math.sqrt(-c):.6g} of the c = {c:g} model")
            out = (2.0 / math.sqrt(-c)) * np.arcsinh(np.sqrt(-N / den))
    return float(out[0]) if single else out


@dataclass(frozen=True)
class ConeSurface:
    """Flat cone ds^2 = r^{-2a}(dr^2 + r^2 dtheta^2), total angle 2 pi (1-a)."""

    alpha: float

    def __post_init__(self):
        if not self.alpha < 1:
            raise ValueError("cone exponent must be < 1")

    @property
    def total_angle(self) -> float:
        return 2.0 * math.pi * (1.0 - self.alpha)

    @property
    def chart(self) -> ComplexChart:
        return ComplexChart(n=1, radii=1.5)

    def geodesic_radius(self, r) -> np.ndarray:
        b = 1.0 - self.alpha
        return np.asarray(r, dtype=float) ** b / b

    def potential(self) -> ScalarField:
        """rho^2/2 in the chart coordinate z = r e^{i theta}."""
        b = 1.0 - self.alpha

        def fn(zs):
            return np.abs(zs[:, 0]) ** (2 * b) / (2.0 * b * b)

        return ScalarField(fn=fn, n=1, name=f"cone potential, alpha = {self.alpha:g}",
                           smoothness_radius=1e-6,
                           singular_points=(np.zeros(1, dtype=complex),))

    def metric(self) -> HermitianMetricField:
        a = self.alpha
        chart = self.chart

        def gram(zs):
            return (0.5 * np.abs(zs[:, 0]) ** (-2 * a))[:, None, None].astype(complex)

        def dgram(zs):                    # d_z |z|^(-2a) = -a |z|^(-2a) / z
            return (-a * gram(zs)[:, 0, 0] / zs[:, 0])[:, None, None, None]

        return HermitianMetricField(chart, gram, dgram, potential=self.potential(),
                                    name=f"cone metric, alpha = {a:g}")

    def distance_field(self, p) -> ScalarField:
        """d(p, .) in the chart coordinate, p complex (apex allowed):
        ``cone_distance`` of the polar coordinates ``np.abs`` and
        ``np.arctan2`` of p and of the points."""
        p = np.asarray(p, dtype=complex).reshape(1)
        polar_p = (np.abs(p), np.arctan2(p.imag, p.real))

        def fn(zs):
            z = zs[:, 0]
            return cone_distance(self, polar_p, (np.abs(z), np.arctan2(z.imag, z.real)))

        return ScalarField(fn=fn, n=1, name=f"cone distance from {p[0]}")


def cone_distance(cone: ConeSurface, p1, p2):
    """Length-metric distance between (r, theta) points; apex is r = 0.

    Law of cosines on the cone: with rho the geodesic radii and
    psi = min((1-alpha) |dtheta|_circ, pi), the distance is
    sqrt((rho1 - rho2)^2 + 4 rho1 rho2 sin^2(psi/2)), the form of
    sqrt(rho1^2 + rho2^2 - 2 rho1 rho2 cos psi) that keeps the relative
    accuracy of close points; psi >= pi means the minimizing path passes
    through the apex, and rho = 0 is the apex itself.  The radii and
    angles may be arrays that broadcast together; the result is a float
    for scalars.
    """
    r1, t1, r2, t2 = (np.asarray(x, dtype=float) for x in (*p1, *p2))
    if np.any(r1 < 0) or np.any(r2 < 0):
        raise ValueError("radius must be nonnegative")
    rho1, rho2 = cone.geodesic_radius(r1), cone.geodesic_radius(r2)
    dt = np.abs(t1 - t2) % (2.0 * math.pi)
    dt = np.minimum(dt, 2.0 * math.pi - dt)
    half = np.sin(0.5 * np.minimum((1.0 - cone.alpha) * dt, math.pi))
    out = np.sqrt((rho1 - rho2) ** 2 + 4.0 * rho1 * rho2 * half * half)
    return float(out) if out.ndim == 0 else out


def orbifold_cone(k: int) -> ConeSurface:
    """The cone underlying the plane modulo rotation by 2 pi / k."""
    if int(k) != k or k < 2:
        raise ValueError("k must be an integer >= 2")
    return ConeSurface(alpha=1.0 - 1.0 / k)


@dataclass(frozen=True)
class QuotientData:
    """Round link-quotient datum: d_0 = |z|^delta H on the projective chart
    with delta = 1 and H identically 1, the one case with closed-form
    distances."""

    @property
    def chart(self) -> ComplexChart:
        """The affine chart zeta of the projective line."""
        return ComplexChart(n=1, radii=1.2)

    def distance_field(self, zprime) -> ScalarField:
        """d(zprime, .) on the affine chart: the c = 4 model distance in
        homogeneous coordinates, atan2(|s ^ s'|, |<s, s'>|) with
        s = (1, zeta).  ``zprime`` is an affine chart point or a
        homogeneous 2-vector, which also reaches the point at chart infinity.
        """
        v = np.asarray(zprime, dtype=complex).reshape(-1)
        if v.size == 1:
            v = np.array([1.0, v[0]])
        if v.size != 2 or not np.any(v):
            raise ValueError("zprime must be a chart point or a nonzero homogeneous 2-vector")

        def fn(zs):
            z = zs[:, 0]
            return np.arctan2(np.abs(v[1] - z * v[0]),
                              np.abs(np.conj(v[0]) + z * np.conj(v[1])))

        return ScalarField(fn=fn, n=1, name=f"link quotient distance from {v.tolist()}")
