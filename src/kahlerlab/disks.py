"""Holomorphic disks, the comparison defect, and its failure modes.

The comparison inequality tested here: for a base point p, curvature
level K, and an embedded holomorphic disk i with image Sigma,

    d_K^2(p, i(0)) >= (2/pi) iint_Sigma log|z| dA
                      + (1/2pi) int d_K^2(p, i(e^{i theta})) dtheta

with dA the two dimensional Hausdorff measure of Sigma.  The defect is
LHS minus RHS; it is nonnegative for every disk exactly when the
bisectional lower bound at level K holds, and the violation constructions
below produce disks with negative defect when it fails.  ``sample_disks``
draws the seeded disk families and ``worst_defect`` takes the worst defect
over one, for ``scan_disks`` and the CLI's domain comparison.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .curvature import (CurvatureData, TangentPair, bk_defect, curvature_tensor,
                        min_bk_defect)
from .errors import KahlerLabError, SingularityTooClose
from .fields import ComplexChart, HermitianMetricField, ScalarField
from .geodesy import geodesic_distance_many
from .models import dK_transform

MAX_DEGREE = 2
NEAR_DISK_CUTOFF = 0.05
# rounding of the three terms that cancel in a defect, relative to their
# magnitudes: numpy's pairwise sums over the 2,048 interior and at most
# 512 boundary nodes lose a few ulps per level
ROUNDING_FLOOR = 32.0 * 2.0 ** -52


@dataclass(frozen=True)
class DiskEmbedding:
    """Polynomial holomorphic map of the closed unit disk into a chart.

    i(w) = c0 + c1 w + c2 w^2 with coeffs of shape (M+1, n), M = 1 or 2.
    Validity is decided exactly at construction.  Embedding: as
    i(w1) - i(w2) = (w1 - w2)(c1 + (w1 + w2) c2) and i'(w) = c1 + 2 w c2,
    the closed disk embeds exactly when c1 + s c2 != 0 for |s| <= 2.
    Containment: box and ball charts are convex, so by the maximum
    principle the image stays inside when its boundary does, which is
    checked at 128 boundary nodes.
    """

    coeffs: np.ndarray
    chart: ComplexChart

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", c)
        if c.shape[0] - 1 > MAX_DEGREE:
            raise ValueError(f"disk degree {c.shape[0] - 1} exceeds {MAX_DEGREE}")
        if c.shape[1] != self.chart.n:
            raise ValueError("coefficient dimension does not match the chart")
        if c.shape[0] == 1 or np.max(np.abs(c[1:])) == 0:
            raise ValueError("disk map is constant")
        th = np.linspace(0, 2 * math.pi, 128, endpoint=False)
        if not np.all(self.chart.contains(self(np.exp(1j * th)))):
            raise ValueError("disk image leaves the chart")
        # min over |s| <= 2 of |c1 + s c2|: the free minimiser clipped radially
        c1, c2 = np.concatenate([c[1:], np.zeros_like(c[:1])])[:2]   # c2 = 0 if affine
        c2_sq = np.vdot(c2, c2).real
        s = -np.vdot(c2, c1) / c2_sq if c2_sq > 0 else 0.0
        if abs(s) > 2.0:
            s *= 2.0 / abs(s)
        if np.linalg.norm(c1 + s * c2) <= 1e-9 * np.max(np.abs(c[1:])):
            raise ValueError("disk map is not an embedding")

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, w) -> np.ndarray:
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        powers = w[:, None] ** np.arange(self.coeffs.shape[0])[None, :]
        return powers @ self.coeffs

    def deriv(self, w) -> np.ndarray:
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        M = self.coeffs.shape[0]
        powers = w[:, None] ** np.arange(M - 1)[None, :]
        return powers @ (np.arange(1, M)[:, None] * self.coeffs[1:])

    def rotated(self, theta: float) -> "DiskEmbedding":
        """Precompose with w -> e^{i theta} w."""
        phases = np.exp(1j * theta * np.arange(self.coeffs.shape[0]))
        return DiskEmbedding(coeffs=self.coeffs * phases[:, None], chart=self.chart)

    @classmethod
    def affine(cls, a, b, chart: ComplexChart) -> "DiskEmbedding":
        return cls(coeffs=np.stack([np.asarray(a, dtype=complex),
                                    np.asarray(b, dtype=complex)]), chart=chart)


@dataclass(frozen=True)
class DiskSampler:
    """Seeded configuration for random disk families."""

    seed: int = 0
    count: int = 200
    size_range: tuple = (1e-3, 0.3)
    center_radius: float = 0.45
    degree2_fraction: float = 0.3
    interior_points: int = 12


def sample_disks(chart: ComplexChart, center, sampler: DiskSampler, rng,
                 min_singular: float = 0.0, singular_at=None) -> list:
    """Random affine and degree-2 disks near a center point.

    Disk sizes are log-uniform in the sampler's range.  With
    ``min_singular`` > 0, rejects disks whose image comes closer than
    that to ``singular_at``; with 0 no rejection happens.
    """
    n = chart.n
    center = np.asarray(center, dtype=complex).reshape(n)
    lo, hi = sampler.size_range
    disks = []
    attempts = 0
    while len(disks) < sampler.count and attempts < 50 * sampler.count:
        attempts += 1
        size = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        a = center + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            * sampler.center_radius / math.sqrt(2 * n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = b / np.linalg.norm(b) * size
        coeffs = [a, b]
        if rng.uniform() < sampler.degree2_fraction:
            c2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            coeffs.append(c2 / np.linalg.norm(c2) * size * rng.uniform(0.1, 0.4))
        try:
            d = DiskEmbedding(coeffs=np.stack(coeffs), chart=chart)
        except ValueError:
            continue
        if min_singular > 0.0 and singular_at is not None:
            th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
            grid = np.concatenate([np.exp(1j * th) * r for r in (1.0, 0.6, 0.25)]
                                  + [np.zeros(1)])
            pts = d(grid)
            if np.min(np.linalg.norm(pts - np.asarray(singular_at)[None], axis=1)) < min_singular:
                continue
        disks.append(d)
    return disks


def sample_interior_points(sampler: DiskSampler, rng) -> np.ndarray:
    """``sampler.interior_points`` points of the disk |w| < 0.7."""
    r = np.sqrt(rng.uniform(0.0, 0.49, sampler.interior_points))
    th = rng.uniform(0.0, 2 * math.pi, sampler.interior_points)
    return r * np.exp(1j * th)


@functools.lru_cache(maxsize=8)
def _gauss_legendre01(n: int):
    """n-node Gauss-Legendre rule on [0, 1], read-only: numpy's leggauss
    costs more than the rest of a disk's quadrature."""
    x, w = np.polynomial.legendre.leggauss(n)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


@dataclass(frozen=True)
class QuadratureGrid:
    """Polar interior grid (graded Gauss-Legendre radius x uniform angle)
    plus a uniform boundary grid; the radial grading tames the log
    singularity at the centre."""

    n_r: int = 16
    n_theta: int = 32
    n_boundary: int = 64

    def __post_init__(self):
        if self.n_r < 16 or self.n_theta < 32 or self.n_boundary < 64:
            raise ValueError("grid below minimum resolution")

    def interior(self, breaks=()):
        """(nodes, weights): complex nodes in D^2, weights for flat dA.

        Gauss-Legendre in t on the radial panels between 0, ``breaks`` and
        1: graded, r = b t^4, on the first, where log r r dr becomes
        t^7 log t dt, and log-uniform, r = lo (hi/lo)^t, on the others, so
        integrands kinked only at the breaks are smooth on every panel.
        """
        t, wgl = _gauss_legendre01(self.n_r)
        edges = (0.0, *breaks, 1.0)
        rs, ws = [edges[1] * t ** 4], [edges[1] * 4.0 * t ** 3 * wgl]
        for lo, hi in zip(edges[1:-1], edges[2:]):
            rs.append(lo * (hi / lo) ** t)
            ws.append(rs[-1] * math.log(hi / lo) * wgl)
        r = np.concatenate(rs)
        wr = np.concatenate(ws) * r * (2.0 * math.pi / self.n_theta)
        th = np.linspace(0.0, 2.0 * math.pi, self.n_theta, endpoint=False)
        nodes = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
        return nodes, np.repeat(wr, self.n_theta)

    def boundary(self):
        th = np.linspace(0.0, 2.0 * math.pi, self.n_boundary, endpoint=False)
        return np.exp(1j * th), th

    def doubled(self) -> "QuadratureGrid":
        return QuadratureGrid(2 * self.n_r, 2 * self.n_theta, 2 * self.n_boundary)


@dataclass
class ComparisonReport:
    lhs: float
    log_moment: float
    boundary_avg: float
    defect: float
    error_estimate: float
    tol: float
    strategy: str
    verdict: str = field(init=False)

    def __post_init__(self):
        self.verdict = "PASS" if self.defect >= -self.tol else "FAIL"


DistanceStrategy = Union[str, ScalarField, Callable]


def area_density(metric: HermitianMetricField, disk: DiskEmbedding, w) -> np.ndarray:
    """Hausdorff area density of the disk image wrt flat dA on D^2.

    2 g(i(w))(i'(w), conj i'(w)); for direct-form Hermitian metrics the
    same contraction applies.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    pts = disk(w)
    dv = disk.deriv(w)
    G = metric.gram(pts, check=False)
    return 2.0 * np.einsum("pij,pi,pj->p", G, dv, np.conj(dv)).real


def _area_integral(metric: HermitianMetricField, disk: DiskEmbedding,
                   grid: Optional[QuadratureGrid], f: Callable, breaks=()) -> float:
    """iint f(|w|) dA over the disk image on the interior rule of ``grid``,
    its radial panels broken at the kinks ``breaks`` of f."""
    nodes, weights = (grid or QuadratureGrid()).interior(breaks)
    dens = area_density(metric, disk, nodes)
    return float(np.sum(weights * f(np.abs(nodes)) * dens))


def log_moment(metric: HermitianMetricField, disk: DiskEmbedding,
               grid: Optional[QuadratureGrid] = None) -> float:
    """(2/pi) iint log|w| dA over the disk image; always <= 0."""
    return (2.0 / math.pi) * _area_integral(metric, disk, grid, np.log)


def _distance_values(metric, p, targets, strategy, solver_opts):
    """Distances from p to an array of chart points under a strategy."""
    p = np.asarray(p, dtype=complex).reshape(-1)
    if strategy == "numeric":
        opts = dict(N=24, gtol=1e-6, max_iters=60)
        opts.update(solver_opts or {})
        return geodesic_distance_many(metric, p, targets, **opts)
    # a closed-form distance field or plain callable: zs -> distances
    return np.asarray(strategy(targets), dtype=float), np.zeros(len(targets))


def comparison_defect(metric: HermitianMetricField, disk: DiskEmbedding, p, K: float,
                      distance: DistanceStrategy = "numeric",
                      grid: Optional[QuadratureGrid] = None,
                      tol: Optional[float] = None,
                      solver_opts: Optional[dict] = None) -> ComparisonReport:
    """Both sides of the disk comparison inequality and their difference.

    ``distance`` is "numeric" (geodesy solver) or a closed-form distance
    field d(p, .).  The report is that of the doubled grid.  Each level
    doubles its boundary rule once more when the disk comes within
    ``NEAR_DISK_CUTOFF`` of p, so the base rule is every s-th node of the
    doubled one (s = 1, 2 or 4) and one distance evaluation, at the centre
    and on the doubled boundary, serves both.  The error estimate is the
    change of the defect between the two rules plus 4x the distance error
    plus ``ROUNDING_FLOOR`` times the sizes of the terms.
    """
    numeric = distance == "numeric"
    if tol is None:
        tol = 5e-3 if numeric else 1e-6
    grid = grid or QuadratureGrid()
    levels = (grid, grid.doubled())
    p = np.asarray(p, dtype=complex).reshape(-1)
    bpts = disk(levels[1].boundary()[0])
    sizes = []
    for g, pts in zip(levels, (bpts[::2], bpts)):
        near = np.min(np.linalg.norm(pts - p[None], axis=1)) < NEAR_DISK_CUTOFF
        sizes.append(2 * g.n_boundary if near and g.n_boundary < 4 * 64 else g.n_boundary)
    if sizes[1] > levels[1].n_boundary:
        bpts = disk(QuadratureGrid(n_boundary=sizes[1]).boundary()[0])
    targets = np.vstack([disk(np.zeros(1)), bpts])
    dvals, derr = _distance_values(metric, p, targets, distance, solver_opts)
    dk = dK_transform(dvals, K)
    lhs = float(dk[0])
    defects = []
    for g, nb in zip(levels, sizes):     # the doubled level last: the report keeps it
        boundary_avg = float(np.mean(dk[1::sizes[1] // nb]))
        lm = log_moment(metric, disk, g)
        defects.append(lhs - lm - boundary_avg)
    err = abs(defects[1] - defects[0]) + 4.0 * float(np.max(derr, initial=0.0)) \
        + ROUNDING_FLOOR * (abs(lhs) + abs(lm) + abs(boundary_avg))
    return ComparisonReport(lhs=lhs, log_moment=lm, boundary_avg=boundary_avg,
                            defect=defects[1], error_estimate=err, tol=tol,
                            strategy="numeric" if numeric else "closed-form")


def _f_eps(r: np.ndarray, eps: float) -> np.ndarray:
    """The mollifier cutoff of log r: flat inner cap, log ramp, outer zero."""
    out = np.where(r <= eps, math.log(eps) + eps,
                   np.where(r <= math.exp(-eps), np.log(np.maximum(r, 1e-300)) + eps, 0.0))
    return out


def annulus_defect(metric: HermitianMetricField, disk: DiskEmbedding, p, K: float,
                   eps: float, distance: DistanceStrategy = "numeric",
                   grid: Optional[QuadratureGrid] = None,
                   solver_opts: Optional[dict] = None) -> float:
    """Mollified two-circle estimator of the comparison inequality.

    (1/4) int (d_K^2(eps, th) - d_K^2(e^{-eps}, th)) dth
      - iint f_eps dA over the disk image,

    which is >= 0 whenever the bisectional lower bound holds, and tends
    to pi/2 times the comparison defect as eps -> 0.
    """
    if not 0.0 < eps < 0.1:
        raise ValueError("eps must lie in (0, 1/10)")
    grid = grid or QuadratureGrid()
    p = np.asarray(p, dtype=complex).reshape(-1)
    bw, th = grid.boundary()
    inner = disk(eps * bw)
    outer = disk(math.exp(-eps) * bw)
    targets = np.vstack([inner, outer])
    dvals, _ = _distance_values(metric, p, targets, distance, solver_opts)
    dk = dK_transform(dvals, K)
    nb = len(bw)
    ring = 0.25 * (2.0 * math.pi / nb) * float(np.sum(dk[:nb] - dk[nb:]))
    return ring - _area_integral(metric, disk, grid, lambda r: _f_eps(r, eps),
                                 (eps, math.exp(-eps)))


def annulus_tail(metric: HermitianMetricField, disk: DiskEmbedding, eps: float,
                 grid: Optional[QuadratureGrid] = None) -> float:
    """iint (f_eps - log|w|) dA; the gap between the estimator's bulk term
    and the log moment, vanishing as eps -> 0."""
    return _area_integral(metric, disk, grid, lambda r: _f_eps(r, eps) - np.log(r),
                          (eps, math.exp(-eps)))


def violation_disk(metric: HermitianMetricField, p, K: float, pair: TangentPair,
                   eps1: float, eps2: float) -> DiskEmbedding:
    """The affine disk i(w) = p + eps2 Y + eps1 w X used to exhibit a
    negative defect when the bound fails at p."""
    if not (0 < eps1 < eps2 < 1):
        raise ValueError("need 0 < eps1 < eps2 < 1")
    p = np.asarray(p, dtype=complex).reshape(-1)
    return DiskEmbedding.affine(p + eps2 * pair.Y, eps1 * pair.X, metric.chart)


@dataclass
class ScanResult:
    """Worst comparison report over a sampled disk family."""

    report: ComparisonReport
    disk: DiskEmbedding
    scanned: int
    directed: bool


def worst_defect(metric: HermitianMetricField, p, K: float, distance: DistanceStrategy,
                 disks, directed: Optional[DiskEmbedding] = None,
                 tol: Optional[float] = None) -> ScanResult:
    """Worst comparison report over ``disks``, the ``directed`` disk first.

    Disks are evaluated one at a time, so a disk whose evaluation raises a
    ``KahlerLabError`` (a distance beyond the d_K^2 cap, say) is skipped
    without costing the others; the first minimum wins.
    """
    scored = []
    for d in ([] if directed is None else [directed]) + list(disks):
        try:
            scored.append((comparison_defect(metric, d, p, K, distance=distance, tol=tol), d))
        except KahlerLabError:
            continue
    if not scored:
        raise KahlerLabError("no admissible disk in the scan")
    worst, disk = min(scored, key=lambda rd: rd[0].defect)
    return ScanResult(report=worst, disk=disk, scanned=len(scored),
                      directed=scored[0][1] is directed)


def scan_disks(space, p, K: float, sampler: DiskSampler,
               tol: Optional[float] = None) -> ScanResult:
    """Worst comparison defect over seeded affine and degree-2 disks.

    Distances come from ``space.distance_field(p)`` where the space has
    one, else from the geodesic solver.  When the curvature certifies a
    negative bound defect at p, the directed violation construction runs
    first so the scan cannot miss it; next to a singular point there is no
    curvature and no directed disk.
    """
    metric = space.metric()
    distance = space.distance_field(p) if hasattr(space, "distance_field") else "numeric"
    p = np.asarray(p, dtype=complex).reshape(-1)
    directed = None
    try:
        data = curvature_tensor(metric, p) if metric.is_potential_form else None
    except SingularityTooClose:         # no curvature at a singular point
        data = None
    if data is not None:
        val, pair = min_bk_defect(data, K, samples=400, seed=sampler.seed)
        if val < -1e-7:
            directed = violation_disk(metric, p, K, pair, 0.06, 0.25)
    disks = sample_disks(metric.chart, p, sampler, np.random.default_rng(sampler.seed))
    return worst_defect(metric, p, K, distance, disks, directed=directed, tol=tol)


def rprime_value(data: CurvatureData, K: float, pair: TangentPair) -> float:
    """Contracted defect tensor entering the small-disk asymptotics.

    Equals -4 times bk_defect for a unit pair in this normalization;
    positive exactly when the pair certifies failure of the bound.
    """
    return -4.0 * bk_defect(data, K, pair)


def asymptotic_defect(rprime: float, eps1: float, eps2: float) -> float:
    """-(1/6) eps1^2 eps2^2 rprime; the leading defect of the violation disk.

    Derived by pairing the constant leading term of the defect current
    against the disk Green kernel: the moment (2/pi) iint log|w| 2 dA
    equals -1, so the defect is negative exactly when rprime > 0.  The
    flat case is exactly computable and pins the constant.
    """
    if not 0 < eps2 < 1:
        raise ValueError("eps2 must lie in (0, 1)")
    return -(eps1 ** 2) * (eps2 ** 2) * rprime / 6.0


def torsion_metric(T: np.ndarray, chart: ComplexChart) -> HermitianMetricField:
    """Direct-form Hermitian metric with prescribed torsion linear term.

    T[i, j, k] must be antisymmetric in (j, k); the gram matrix is
    (1/2)(delta_ab + sum_j T[b, j, a] z^j + conj(T[a, j, b]) zbar^j),
    the minimal non-Kahler deformation of the flat metric.
    """
    T = np.asarray(T, dtype=complex)
    n = chart.n
    if T.shape != (n, n, n):
        raise ValueError("torsion tensor must be (n, n, n)")
    if np.max(np.abs(T + T.transpose(0, 2, 1))) > 1e-12:
        raise ValueError("torsion must be antisymmetric in its last two slots")

    def gram(zs):
        lin = np.tensordot(zs, T, axes=([1], [1])).transpose(0, 2, 1)   # [p, a, b]
        return 0.5 * (np.eye(n) + (lin + np.conj(lin.transpose(0, 2, 1))))

    dG = 0.5 * T.transpose(1, 2, 0)                  # [k, a, b] = T[b, k, a] / 2

    def dgram(zs):
        return np.broadcast_to(dG, (zs.shape[0], n, n, n))

    return HermitianMetricField(chart, gram_fn=gram, exact_dgram=dgram, name="torsion metric")


@dataclass(frozen=True)
class TorsionSpace:
    """The chart with the torsion metric of T; T is checked at construction."""

    T: np.ndarray
    chart: ComplexChart

    def __post_init__(self):
        self.metric()

    def metric(self) -> HermitianMetricField:
        return torsion_metric(self.T, self.chart)


def torsion_contraction(T: np.ndarray, a: np.ndarray, b: np.ndarray) -> complex:
    """sum conj(a^i) b^j T[i, j, k] a^k."""
    return complex(np.einsum("i,j,ijk,k->", np.conj(a), b, np.asarray(T, dtype=complex), a))


def torsion_expected_defect(T: np.ndarray, a, b, eps1: float, eps2: float) -> float:
    """2 eps1^2 eps2 S, the leading defect of the torsion disk
    i(w) = eps1 w a + eps2 b, with S the torsion contraction (real).

    The constant comes from pairing the linear torsion term of the defect
    current with the disk Green kernel; negative exactly when S < 0.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    S = torsion_contraction(T, a, b)
    return 2.0 * eps1 ** 2 * eps2 * S.real
