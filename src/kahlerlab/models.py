"""Closed-form geometries: constant-curvature models, cones, quotients.

The model space M_K has holomorphic sectional curvature 2K (c = 2K).  In
the normalization of ``fields`` (flat potential |z|^2/2) its potential is

    phi_K = (2/c) log(1 + (c/4) |z|^2)

which expands as |z|^2/2 + O(|z|^4) at the origin.  Cone surfaces carry
the metric ds^2 = r^{-2 alpha} (dr^2 + r^2 dtheta^2); their geodesic
radius is rho = r^{1-alpha}/(1-alpha) and rho^2/2 is a potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainExceeded, Unsupported
from .fields import (ComplexChart, HermitianMetricField, ScalarField, flat_potential,
                     hermitize)

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
    """Exact g_{i jbar} of the model potential, batched (P, n, n).

    I/(2u) - (c/4) zbar z^T/(2u^2), built in place; the vectorized complex
    product leaves zbar_i z_j and conj(zbar_j z_i) a last bit apart, so the
    result is symmetrized (in place) to be Hermitian bit for bit."""
    u = (1.0 + (c / 4.0) * np.sum(np.abs(zs) ** 2, axis=1))[:, None, None]
    G = np.conj(zs)[:, :, None] * zs[:, None, :]
    G *= c / 4.0
    G /= 2.0 * u ** 2
    return hermitize(np.subtract(np.eye(zs.shape[1]) / (2.0 * u), G, out=G))


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
            self.chart, potential=self.potential(),
            exact_gram=lambda zs: _model_gram(c, zs),
            name=f"model metric, c = {c:g}")

    def distance(self, z1, z2) -> float:
        """Exact geodesic distance between chart points."""
        z1 = np.asarray(z1, dtype=complex).reshape(self.n)
        z2 = np.asarray(z2, dtype=complex).reshape(self.n)
        c = self.c
        if self.K == 0:
            return float(np.linalg.norm(z1 - z2))
        ip = np.sum(z1 * np.conj(z2))
        if c > 0:
            num = abs(1.0 + (c / 4.0) * ip)
            den = math.sqrt((1.0 + (c / 4.0) * np.sum(np.abs(z1) ** 2))
                            * (1.0 + (c / 4.0) * np.sum(np.abs(z2) ** 2)))
            ratio = min(max(num / den, -1.0), 1.0)
            return float(2.0 / math.sqrt(c) * math.acos(ratio))
        a = -c / 4.0
        den_sq = (1.0 - a * np.sum(np.abs(z1) ** 2)) * (1.0 - a * np.sum(np.abs(z2) ** 2))
        if den_sq <= 0:
            raise DomainExceeded("point outside the negative-curvature chart")
        ratio = max(abs(1.0 - a * ip) / math.sqrt(den_sq), 1.0)
        return float(2.0 / math.sqrt(-c) * math.acosh(ratio))

    def distance_field(self, p) -> ScalarField:
        """d(p, .) as a batched scalar field; ``distance`` step for step,
        so the two agree bit for bit."""
        p = np.asarray(p, dtype=complex).reshape(self.n)
        c, p_sq = self.c, np.sum(np.abs(p) ** 2)

        def fn(zs):
            if c == 0:
                d = p[None] - zs            # the row dot products of np.linalg.norm
                return np.sqrt(np.vecdot(d.real, d.real) + np.vecdot(d.imag, d.imag))
            num = _cabs(1.0 + (c / 4.0) * np.sum(p[None] * np.conj(zs), axis=1))
            den_sq = (1.0 + (c / 4.0) * p_sq) \
                * (1.0 + (c / 4.0) * np.sum(np.abs(zs) ** 2, axis=1))
            if c > 0:
                ratio = np.minimum(np.maximum(num / np.sqrt(den_sq), -1.0), 1.0)
                return 2.0 / math.sqrt(c) * _libm(math.acos, ratio)
            if np.any(den_sq <= 0):
                raise DomainExceeded("point outside the negative-curvature chart")
            ratio = np.maximum(num / np.sqrt(den_sq), 1.0)
            return 2.0 / math.sqrt(-c) * _libm(math.acosh, ratio)

        return ScalarField(fn=fn, n=self.n, name=f"model distance from {p}")


# Python's abs of a complex scalar is hypot, and the math module is libm;
# numpy's SIMD abs, acos, acosh and atan2 can differ from them in the last bit.
def _cabs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _libm(fn, *args: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, *args), dtype=float, count=args[0].size)


def model_distance(K: float, z1, z2, n: Optional[int] = None) -> float:
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    return ModelSpace(K=K, n=n or z1.size).distance(z1, z2)


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

        return HermitianMetricField(chart, potential=self.potential(), exact_gram=gram,
                                    name=f"cone metric, alpha = {a:g}")

    def distance_field(self, p) -> ScalarField:
        """d(p, .) in the chart coordinate, p complex (apex allowed);
        ``cone_distance`` step for step, so the two agree bit for bit."""
        p = complex(np.asarray(p, dtype=complex).reshape(1)[0])
        rho_p = float(self.geodesic_radius(abs(p))) if abs(p) > 0 else 0.0
        t_p, b = math.atan2(p.imag, p.real), 1.0 - self.alpha

        def fn(zs):
            r = _cabs(zs[:, 0])
            rho = self.geodesic_radius(r)             # 0 at the apex, as b > 0
            dt = np.abs((t_p - _libm(math.atan2, zs[:, 0].imag, zs[:, 0].real) + math.pi)
                        % (2.0 * math.pi) - math.pi)
            cos_psi = _libm(math.cos, np.minimum(b * dt, math.pi))
            val = rho_p * rho_p + rho * rho - 2.0 * rho_p * rho * cos_psi
            return np.where((rho_p == 0.0) | (rho == 0.0), rho_p + rho,   # the apex
                            np.sqrt(np.maximum(val, 0.0)))

        return ScalarField(fn=fn, n=1, name=f"cone distance from {p}")


def cone_distance(cone: ConeSurface, p1, p2) -> float:
    """Length-metric distance between (r, theta) points; apex is r = 0.

    Law of cosines on the cone: with rho the geodesic radii and
    psi = min((1-alpha) |dtheta|_circ, pi), the distance is
    sqrt(rho1^2 + rho2^2 - 2 rho1 rho2 cos psi); psi >= pi means the
    minimizing path passes through the apex.
    """
    r1, t1 = float(p1[0]), float(p1[1])
    r2, t2 = float(p2[0]), float(p2[1])
    if r1 < 0 or r2 < 0:
        raise ValueError("radius must be nonnegative")
    rho1 = float(cone.geodesic_radius(r1)) if r1 > 0 else 0.0
    rho2 = float(cone.geodesic_radius(r2)) if r2 > 0 else 0.0
    if rho1 == 0.0 or rho2 == 0.0:
        return rho1 + rho2
    dt = abs((t1 - t2 + math.pi) % (2.0 * math.pi) - math.pi)
    psi = min((1.0 - cone.alpha) * dt, math.pi)
    val = rho1 * rho1 + rho2 * rho2 - 2.0 * rho1 * rho2 * math.cos(psi)
    return math.sqrt(max(val, 0.0))


def orbifold_cone(k: int) -> ConeSurface:
    """The cone underlying the plane modulo rotation by 2 pi / k."""
    if int(k) != k or k < 2:
        raise ValueError("k must be an integer >= 2")
    return ConeSurface(alpha=1.0 - 1.0 / k)


@dataclass(frozen=True)
class QuotientData:
    """Link-quotient datum: d_0 = |z|^delta H on the projective chart.

    Only the round case (delta = 1, H identically 1) has closed-form
    distances; anything else is out of the supported surface.
    """

    delta: float = 1.0
    H: Optional[Callable] = None
    n: int = 2

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def chart(self) -> ComplexChart:
        """The affine chart zeta of the projective line."""
        return ComplexChart(n=1, radii=1.2)

    @property
    def is_round(self) -> bool:
        return self.H is None and self.delta == 1.0

    def h(self, zeta) -> np.ndarray:
        """h(zeta) = (1 + |zeta|^2)^delta in the affine chart."""
        zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
        return (1.0 + np.abs(zeta) ** 2) ** self.delta


def _homogeneous(z) -> np.ndarray:
    """Chart scalar zeta -> unit vector (1, zeta); 2-vectors pass through."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0 or z.size == 1:
        v = np.array([1.0, complex(z.reshape(()))])
    else:
        v = z.reshape(2)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero homogeneous vector")
    return v / nrm


def link_quotient_distance(q: QuotientData, z, zp) -> float:
    """Fubini-Study distance arccos |<s, s'>| between projective points.

    Arguments are affine chart scalars or homogeneous 2-vectors (the
    latter reach the point at chart infinity).
    """
    if not q.is_round:
        raise Unsupported("only the round link quotient has closed-form distances")
    s, sp = _homogeneous(z), _homogeneous(zp)
    ip = abs(np.sum(s * np.conj(sp)))
    return float(math.acos(min(ip, 1.0)))


def quotient_potential(q: QuotientData, zeta) -> float:
    """(1/2) log h; the local potential of the quotient metric."""
    return float(0.5 * np.log(q.h(zeta)[0]))
