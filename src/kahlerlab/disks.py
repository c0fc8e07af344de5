"""Holomorphic disks, the comparison defect, and its failure modes.

The comparison inequality tested here: for a base point p, curvature
level K, and an embedded holomorphic disk i with image Sigma,

    d_K^2(p, i(0)) >= (2/pi) iint_Sigma log|z| dA
                      + (1/2pi) int d_K^2(p, i(e^{i theta})) dtheta

with dA the two dimensional Hausdorff measure of Sigma.  The defect is
LHS minus RHS; it is nonnegative for every disk exactly when the
bisectional lower bound at level K holds, and the violation constructions
below produce disks with negative defect when it fails.  ``sample_disks``
draws the seeded disk families, ``comparison_defects`` evaluates a stack
of disks at once and ``worst_defect`` takes the worst defect over one, for
``scan_disks`` and the CLI's domain comparison.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .curvature import (CurvatureData, TangentPair, bk_defect, curvature_tensor,
                        min_bk_defect)
from .errors import InvalidDisk, KahlerLabError, SingularityTooClose
from .fields import ComplexChart, HermitianMetricField, ScalarField
from .geodesy import geodesic_distance_many
from .models import dK_transform

MAX_DEGREE = 2
NEAR_DISK_CUTOFF = 0.05
# rounding of the terms that cancel in a defect, relative to their
# magnitudes: lhs, the log moment, the boundary average and, where the log
# moment comes from the potential on the boundary, 2 |phi(i(0))|.  numpy's
# pairwise means over at most 512 boundary nodes and the interior rules'
# 512 or 2,048 nodes lose a few ulps per level
ROUNDING_FLOOR = 32.0 * 2.0 ** -52

log = logging.getLogger("kahlerlab")


def _powers(w: np.ndarray, degree: int) -> np.ndarray:
    """w^0 .. w^degree along a new last axis."""
    return w[..., None] ** np.arange(degree + 1)


def _horner(coeffs: np.ndarray, w: np.ndarray, deriv: bool = True):
    """(i(w), i'(w)) from one Horner pass, with no complex powers.

    ``coeffs`` is (..., M+1, n) and the points ``w`` (..., P) broadcast
    against its leading axes; both results are (..., n, P), the points on
    the last axis.  With ``deriv`` false i'(w) is None and not built; i(w)
    has the same bits either way.  Elementwise, so one disk's values are
    the same bits alone and in a stack."""
    C = coeffs[..., None]
    w = np.atleast_1d(np.asarray(w, dtype=complex))[..., None, :]
    val = C[..., -1, :, :] * w
    val += C[..., -2, :, :]
    der = np.broadcast_to(C[..., -1, :, :], val.shape).copy() if deriv else None
    for m in range(C.shape[-3] - 3, -1, -1):
        if deriv:
            der *= w
            der += val
        val *= w
        val += C[..., m, :, :]
    return val, der


# the unit-circle nodes of the containment test and the sampler's
# singular-clearance grid (three circles and the centre), as their powers
# w^0 .. w^M for M = 1 and 2
_BOUNDARY_NODES = np.exp(1j * np.linspace(0, 2 * math.pi, 128, endpoint=False))
_CLEARANCE_NODES = np.concatenate(
    [np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False)) * r
     for r in (1.0, 0.6, 0.25)] + [np.zeros(1)])
_BOUNDARY_POWERS = {M: _powers(_BOUNDARY_NODES, M) for M in range(1, MAX_DEGREE + 1)}
_CLEARANCE_POWERS = {M: _powers(_CLEARANCE_NODES, M) for M in range(1, MAX_DEGREE + 1)}

DISK_FAULTS = ("", "disk map is constant", "disk image leaves the chart",
               "disk map is not an embedding",
               "disk image comes too close to a singular point")


def disk_faults(coeffs: np.ndarray, chart: ComplexChart, min_singular: float = 0.0,
                singular_at=None) -> np.ndarray:
    """The validity rule of polynomial disks, over a (D, M+1, n) stack.

    Returns, per disk, the index into ``DISK_FAULTS`` of the first rule
    it breaks, 0 when it breaks none.  The rules, in order:

    - the map is not constant;
    - containment: box and ball charts are convex, so by the maximum
      principle the image stays inside when its boundary does, which is
      checked at 128 boundary nodes;
    - embedding: as i(w1) - i(w2) = (w1 - w2)(c1 + (w1 + w2) c2) and
      i'(w) = c1 + 2 w c2, the closed disk embeds exactly when
      c1 + s c2 != 0 for |s| <= 2;
    - with ``min_singular`` > 0 and a ``singular_at`` point, the image
      keeps that distance from it at 193 nodes (three circles and the
      centre).
    """
    C = np.asarray(coeffs, dtype=complex)
    M = C.shape[1] - 1
    if M == 0:
        return np.ones(len(C), dtype=int)
    scale = np.max(np.abs(C[:, 1:]), axis=(1, 2))
    bnd = np.matmul(_BOUNDARY_POWERS[M], C)
    inside = chart.contains(bnd.reshape(-1, chart.n)).reshape(bnd.shape[:2]).all(axis=1)
    embeds = np.ones(len(C), dtype=bool)         # a nonconstant affine map embeds
    if M == 2:
        # min over |s| <= 2 of |c1 + s c2|: the free minimiser clipped radially
        c1, c2 = C[:, 1], C[:, 2]
        c2_sq = np.sum((c2.conj() * c2).real, axis=1)
        s = -np.sum(c2.conj() * c1, axis=1) / np.where(c2_sq > 0, c2_sq, 1.0)
        s *= 2.0 / np.maximum(np.abs(s), 2.0)
        embeds = np.linalg.norm(c1 + s[:, None] * c2, axis=1) > 1e-9 * scale
    too_close = np.zeros(len(C), dtype=bool)
    if min_singular > 0.0 and singular_at is not None:
        pts = np.matmul(_CLEARANCE_POWERS[M], C) - np.asarray(singular_at)
        too_close = np.min(np.linalg.norm(pts, axis=2), axis=1) < min_singular
    faults = np.zeros(len(C), dtype=int)
    for fault, broken in ((4, too_close), (3, ~embeds), (2, ~inside), (1, scale == 0)):
        faults[broken] = fault              # the last assignment, the first rule, wins
    return faults


@dataclass(frozen=True)
class DiskEmbedding:
    """Polynomial holomorphic map of the closed unit disk into a chart.

    i(w) = c0 + c1 w + c2 w^2 with coeffs of shape (M+1, n), M = 1 or 2.
    Validity is decided exactly at construction, by ``disk_faults`` on a
    stack of one: the rule ``sample_disks`` applies to a batch of draws at
    once.  A disk that breaks it raises ``InvalidDisk``.
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
        fault = disk_faults(c[None], self.chart)[0]
        if fault:
            raise InvalidDisk(DISK_FAULTS[fault])

    @classmethod
    def _valid(cls, coeffs: np.ndarray, chart: ComplexChart) -> "DiskEmbedding":
        """A disk from complex (M+1, n) coeffs that ``disk_faults`` passed."""
        disk = object.__new__(cls)
        object.__setattr__(disk, "coeffs", coeffs)
        object.__setattr__(disk, "chart", chart)
        return disk

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, w) -> np.ndarray:
        return _horner(self.coeffs, w, deriv=False)[0].T

    def deriv(self, w) -> np.ndarray:
        return _horner(self.coeffs, w)[1].T

    def rotated(self, theta: float) -> "DiskEmbedding":
        """Precompose with w -> e^{i theta} w."""
        phases = np.exp(1j * theta * np.arange(self.coeffs.shape[0]))
        return DiskEmbedding(coeffs=self.coeffs * phases[:, None], chart=self.chart)

    @classmethod
    def affine(cls, a, b, chart: ComplexChart) -> "DiskEmbedding":
        return cls(coeffs=np.stack([np.asarray(a, dtype=complex),
                                    np.asarray(b, dtype=complex)]), chart=chart)


def _degree_stacks(coeffs: list):
    """(indices, (D, M+1, n) stack) for each degree M among a list of
    coefficient arrays."""
    for M in sorted({len(c) - 1 for c in coeffs}):
        idx = [i for i, c in enumerate(coeffs) if len(c) == M + 1]
        yield idx, np.stack([coeffs[i] for i in idx])


def disk_images(disks, w, n: int) -> np.ndarray:
    """Images of points w under every disk, shape (D, P, n), with one
    Horner pass per degree: w is (P,), shared by all disks, or (D, P), one
    row per disk.  Each row has the bits of that disk's own map."""
    w = np.asarray(w, dtype=complex)
    out = np.empty((len(disks), w.shape[-1], n), dtype=complex)
    for idx, C in _degree_stacks([d.coeffs for d in disks]):
        out[idx] = np.swapaxes(_horner(C, w if w.ndim == 1 else w[idx], deriv=False)[0], 1, 2)
    return out


@dataclass(frozen=True)
class DiskSampler:
    """Seeded configuration for random disk families."""

    seed: int = 0
    count: int = 200
    size_range: tuple = (1e-3, 0.3)
    center_radius: float = 0.45
    degree2_fraction: float = 0.3
    interior_points: int = 12


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """The rows of a (D, n) complex stack divided by their norms.  The norms
    are the ``np.vecdot`` sums of ``np.linalg.norm``, so each row has the
    bits of ``v[k] / np.linalg.norm(v[k])``."""
    return v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[:, None]


def _draw_chunk(rng, center: np.ndarray, sampler: DiskSampler, count: int):
    """``count`` attempts' coefficients as a (count, 3, n) stack, and each
    attempt's degree: an affine disk, degree 2 with probability
    ``sampler.degree2_fraction``; the c2 row of an affine attempt is 0.

    Each attempt makes its generator calls in turn: the log size, 4n
    normals, the degree-2 coin and, on degree 2, 2n normals and the c2
    scale.  The arithmetic then runs once on the stack; it is elementwise,
    so every row has the bits of its attempt computed alone.
    """
    n = center.size
    log_lo, log_hi = (math.log(s) for s in sampler.size_range)
    size, scale2 = np.empty(count), np.empty(count)
    g, g2 = np.empty((count, 4 * n)), np.empty((count, 2 * n))
    deg2 = np.zeros(count, dtype=bool)
    for k in range(count):
        size[k] = math.exp(rng.uniform(log_lo, log_hi))
        rng.standard_normal(out=g[k])
        if rng.random() < sampler.degree2_fraction:   # the doubles of uniform(0, 1)
            deg2[k] = True
            rng.standard_normal(out=g2[k])
            scale2[k] = rng.uniform(0.1, 0.4)
    C = np.zeros((count, 3, n), dtype=complex)
    C[:, 0] = center + (g[:, :n] + 1j * g[:, n:2 * n]) * sampler.center_radius / math.sqrt(2 * n)
    C[:, 1] = _unit_rows(g[:, 2 * n:3 * n] + 1j * g[:, 3 * n:]) * size[:, None]
    k2 = np.flatnonzero(deg2)
    C[k2, 2] = _unit_rows(g2[k2, :n] + 1j * g2[k2, n:]) * size[k2, None] * scale2[k2, None]
    return C, 1 + deg2


def sample_disks(chart: ComplexChart, center, sampler: DiskSampler, rng,
                 min_singular: float = 0.0, singular_at=None) -> list:
    """Random affine and degree-2 disks near a center point.

    Disk sizes are log-uniform in the sampler's range.  With
    ``min_singular`` > 0, rejects disks whose image comes closer than
    that to ``singular_at``; with 0 no rejection happens.  Draws at most
    ``50 * sampler.count`` attempts, in chunks of as many as are still
    missing, each chunk drawn by ``_draw_chunk`` and validated by one
    ``disk_faults`` call per degree; logs at INFO when fewer disks than
    requested come out.
    """
    center = np.asarray(center, dtype=complex).reshape(chart.n)
    cap = 50 * sampler.count
    disks, attempts = [], 0
    while len(disks) < sampler.count and attempts < cap:
        count = min(sampler.count - len(disks), cap - attempts)
        C, degree = _draw_chunk(rng, center, sampler, count)
        attempts += count
        ok = np.zeros(count, dtype=bool)
        for M in (1, 2):
            idx = np.flatnonzero(degree == M)
            if idx.size:
                ok[idx] = disk_faults(C[idx, :M + 1], chart, min_singular, singular_at) == 0
        disks += [DiskEmbedding._valid(C[k, :degree[k] + 1].copy(), chart)
                  for k in np.flatnonzero(ok)]
    if len(disks) < sampler.count:
        log.info("sampled %d of %d disks in %d attempts, %d rejected", len(disks),
                 sampler.count, attempts, attempts - len(disks))
    return disks


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def _gauss_legendre01(n: int):
    """n-node Gauss-Legendre rule on [0, 1], read-only: numpy's leggauss
    costs more than the rest of a disk's quadrature."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (x + 1.0), 0.5 * w)


@dataclass(frozen=True)
class QuadratureGrid:
    """Polar interior grid (graded Gauss-Legendre radius x uniform angle)
    plus a uniform boundary grid; the radial grading tames the log
    singularity at the centre.  Both rules are cached per grid and
    returned read-only."""

    n_r: int = 16
    n_theta: int = 32
    n_boundary: int = 64

    def __post_init__(self):
        if self.n_r < 16 or self.n_theta < 32 or self.n_boundary < 64:
            raise ValueError("grid below minimum resolution")

    @functools.lru_cache(maxsize=32)
    def interior(self):
        """(nodes, weights): complex nodes in D^2, weights for flat dA.

        Gauss-Legendre in t on one graded radial panel, r = t^4, where
        log r r dr becomes t^7 log t dt.
        """
        t, wgl = _gauss_legendre01(self.n_r)
        r = t ** 4
        wr = 4.0 * t ** 3 * wgl * r * (2.0 * math.pi / self.n_theta)
        th = np.linspace(0.0, 2.0 * math.pi, self.n_theta, endpoint=False)
        return _read_only((r[:, None] * np.exp(1j * th)[None, :]).ravel(),
                          np.repeat(wr, self.n_theta))

    @functools.lru_cache(maxsize=32)
    def boundary(self):
        th = np.linspace(0.0, 2.0 * math.pi, self.n_boundary, endpoint=False)
        return _read_only(np.exp(1j * th), th)

    def doubled(self) -> "QuadratureGrid":
        return QuadratureGrid(2 * self.n_r, 2 * self.n_theta, 2 * self.n_boundary)


@dataclass
class ComparisonReport:
    """Both sides of the comparison inequality, the defect and its error
    estimate; the verdict is the caller's."""

    lhs: float
    log_moment: float
    boundary_avg: float
    defect: float
    error_estimate: float


DistanceStrategy = Union[str, ScalarField, Callable]


def area_density(metric: HermitianMetricField, disks, w) -> np.ndarray:
    """Hausdorff area density of each disk's image wrt flat dA on D^2.

    2 g(i(w))(i'(w), conj i'(w)) at points w, (P,) shared by all disks or
    (D, P) one row per disk, as in ``disk_images``; returns (D, P).  i and
    i' come from one Horner pass and g from one gram call per degree, and
    each row has the bits of that disk alone.  Every gram route returns
    Hermitian matrices, so the form is contracted as
    sum_i G_ii |v_i|^2 + 2 sum_{i<j} Re(G_ij v_i conj v_j), v = i'(w).
    """
    w = np.asarray(w, dtype=complex)
    n = metric.chart.n
    out = np.empty((len(disks), w.shape[-1]))
    for idx, C in _degree_stacks([d.coeffs for d in disks]):
        pts, dv = _horner(C, w if w.ndim == 1 else w[idx])        # [d, i, P]
        pts = np.swapaxes(pts, 1, 2).reshape(-1, n)     # rebinding frees the [d, i, P] copy
        G = metric.gram(pts, check=False).reshape(len(idx), -1, n, n)
        dv = np.swapaxes(dv, 0, 1)                                # [i, d, P]
        q = sum(G[..., i, i].real * (v.real ** 2 + v.imag ** 2) for i, v in enumerate(dv))
        for i, j in itertools.combinations(range(n), 2):
            q += 2.0 * (G[..., i, j] * (dv[i] * np.conj(dv[j]))).real
        out[idx] = 2.0 * q
    return out


def log_moment(metric: HermitianMetricField, disks,
               grid: Optional[QuadratureGrid] = None) -> np.ndarray:
    """(2/pi) iint log|w| dA over each disk's image, (D,), from one
    ``area_density`` call on the interior rule of ``grid``; each entry has
    the bits of that disk alone, and is always <= 0."""
    nodes, weights = (grid or QuadratureGrid()).interior()
    dens = area_density(metric, disks, nodes)
    return (2.0 / math.pi) * np.sum(weights * np.log(np.abs(nodes)) * dens, axis=1)


def comparison_defects(metric: HermitianMetricField, disks, p, K: float,
                       distance: DistanceStrategy = "numeric",
                       grid: Optional[QuadratureGrid] = None,
                       solver_opts: Optional[dict] = None) -> list:
    """Comparison reports of a stack of disks, each with the bits of that
    disk's ``comparison_defect``.

    The centre and doubled-boundary images of every disk come from one
    ``disk_images`` call, and the log moments of every disk from one
    ``log_moment`` call per level that integrates it: the base level and,
    on the torsion metric, the doubled one.  Disks are grouped by the size
    of their doubled boundary rule, and each group gets one distance call
    (with "numeric", one ``geodesic_distance_many`` call per disk), one
    ``dK_transform`` call, on a potential-form metric one ``potential``
    call, and one axis-1 mean per boundary average.  A ``KahlerLabError``
    of any disk raises for the whole stack.
    """
    grid = grid or QuadratureGrid()
    doubled = grid.doubled()
    n = metric.chart.n
    p = np.asarray(p, dtype=complex).reshape(-1)
    imgs = disk_images(disks, np.concatenate([np.zeros(1), doubled.boundary()[0]]), n)
    gap = np.linalg.norm(imgs[:, 1:] - p, axis=2)
    # per level and disk, the boundary rule's size: doubled once more near p
    sizes = [[2 * g.n_boundary if near and g.n_boundary < 4 * 64 else g.n_boundary
              for near in np.min(pts, axis=1) < NEAR_DISK_CUTOFF]
             for g, pts in ((grid, gap[:, ::2]), (doubled, gap))]
    base_lm = log_moment(metric, disks, grid)
    doubled_lm = None if metric.is_potential_form else log_moment(metric, disks, doubled)
    reports = [None] * len(disks)
    for nb in sorted(set(sizes[1])):
        idx = [i for i, s in enumerate(sizes[1]) if s == nb]
        group = imgs[idx] if nb == doubled.n_boundary else disk_images(
            [disks[i] for i in idx],
            np.concatenate([np.zeros(1), QuadratureGrid(n_boundary=nb).boundary()[0]]), n)
        targets = group.reshape(-1, n)
        if distance == "numeric":
            opts = {"N": 24, "gtol": 1e-6, "max_iters": 60, **(solver_opts or {})}
            solved = [geodesic_distance_many(metric, p, t, **opts) for t in group]
            dvals = np.concatenate([d for d, _ in solved])
            derr = np.array([float(np.max(e, initial=0.0)) for _, e in solved])
        else:
            dvals, derr = np.asarray(distance(targets), dtype=float), np.zeros(len(idx))
        dk = dK_transform(dvals, K).reshape(len(idx), nb + 1)
        # the base boundary rule is every s-th node of the doubled one
        strides, base_avg = [nb // sizes[0][i] for i in idx], np.empty(len(idx))
        for s in sorted(set(strides)):
            rows = [j for j, t in enumerate(strides) if t == s]
            base_avg[rows] = np.mean(dk[rows, 1::s], axis=1)
        lhs = dk[:, 0]
        base = lhs - base_lm[idx] - base_avg
        boundary_avg = np.mean(dk[:, 1:], axis=1)
        if metric.is_potential_form:     # Green's identity on the doubled boundary
            phi = metric.potential(targets).reshape(len(idx), nb + 1)
            phi0 = phi[:, 0]
            lm = 2.0 * (phi0 - np.mean(phi[:, 1:], axis=1))
        else:                            # no potential: the doubled interior rule
            phi0, lm = np.zeros(len(idx)), doubled_lm[idx]
        defect = lhs - lm - boundary_avg
        err = np.abs(defect - base) + 4.0 * derr + ROUNDING_FLOOR * (
            np.abs(lhs) + np.abs(lm) + np.abs(boundary_avg) + 2.0 * np.abs(phi0))
        for j, i in enumerate(idx):
            reports[i] = ComparisonReport(
                lhs=float(lhs[j]), log_moment=float(lm[j]), boundary_avg=float(boundary_avg[j]),
                defect=float(defect[j]), error_estimate=float(err[j]))
    return reports


def comparison_defect(metric: HermitianMetricField, disk: DiskEmbedding, p, K: float,
                      distance: DistanceStrategy = "numeric",
                      grid: Optional[QuadratureGrid] = None,
                      solver_opts: Optional[dict] = None) -> ComparisonReport:
    """Both sides of the disk comparison inequality and their difference.

    ``distance`` is "numeric" (the geodesic solver, ``solver_opts`` over
    its defaults N=24, gtol=1e-6, max_iters=60) or a closed-form distance
    field d(p, .).  The report is that of the doubled grid.  Each level
    doubles its boundary rule once more when the disk comes within
    ``NEAR_DISK_CUTOFF`` of p, so the base rule is every s-th node of the
    doubled one (s = 1, 2 or 4) and one distance evaluation, at the centre
    and on the doubled boundary, serves both.

    The two levels take the log moment by independent rules.  The base
    level integrates the area density on the interior rule of ``grid``
    (``log_moment``).  On a potential-form metric, g = d dbar phi, the
    doubled level reads it from the boundary by Green's identity,
    2 (phi(i(0)) - mean_theta phi(i(e^{i theta}))), with phi at the
    targets of the distance; the torsion metric, which has no potential,
    takes the doubled interior rule.  The error estimate is the change of
    the defect between the two levels plus 4x the distance error plus
    ``ROUNDING_FLOOR`` times the sizes of the terms that cancel: lhs, the
    log moment, the boundary average and 2 |phi(i(0))|.  This is
    ``comparison_defects`` on a stack of one.
    """
    return comparison_defects(metric, [disk], p, K, distance=distance, grid=grid,
                              solver_opts=solver_opts)[0]


def annulus_defects(metric: HermitianMetricField, disks, K: float, eps_list,
                    distance: Callable, grid: Optional[QuadratureGrid] = None) -> tuple:
    """Mollified two-circle estimator of the comparison inequality, of
    every disk at every eps in ``eps_list``, with its error estimate.

    (1/4) int (d_K^2(eps, th) - d_K^2(e^{-eps}, th)) dth
      - iint f_eps dA over the disk image,

    with f_eps(r) = log eps + eps inside |w| = eps, log r + eps out to
    |w| = e^{-eps} and 0 beyond; it is >= 0 whenever the bisectional
    lower bound holds, and tends to pi/2 times the comparison defect as
    eps -> 0.  f_eps is harmonic between its kinks, where its radial
    derivative jumps by +1/eps and -e^{eps}, and dA = (1/2) Laplacian of
    phi(i(w)) on g = d dbar phi, so by Green's identity the estimator is

        pi (mean_theta u(i(e^{-eps} e^{i theta})) - mean_theta u(i(eps e^{i theta}))),

    u = phi - d_K^2/2.  ``distance`` is a closed-form distance field
    d(p, .) from the base point p, or any batched callable on chart points.
    u is evaluated once, on the circles of the boundary rule of
    ``grid.doubled()``: the circle images of every disk and eps from one
    ``disk_images`` call, with one potential, one distance and one
    ``dK_transform`` call.  Returns ``(values, errors)``, each
    (D, len(eps_list)): ``values`` take the means over every second node,
    the boundary rule of ``grid``, and ``errors`` are |doubled-rule value
    - value|.  Every entry has the bits of that disk and eps alone.  A
    metric without a potential raises ``ValueError``; a
    ``KahlerLabError`` of any disk raises for the whole stack.
    """
    if not all(0.0 < eps < 0.1 for eps in eps_list):
        raise ValueError("eps must lie in (0, 1/10)")
    if not metric.is_potential_form:
        raise ValueError("the annulus estimator needs a metric with a potential")
    bw = (grid or QuadratureGrid()).doubled().boundary()[0]
    n = metric.chart.n
    radii = [r for eps in eps_list for r in (eps, math.exp(-eps))]
    targets = disk_images(disks, np.concatenate([r * bw for r in radii]), n).reshape(-1, n)
    phi = metric.potential(targets).reshape(len(disks), len(radii), len(bw))
    u = phi - 0.5 * dK_transform(np.asarray(distance(targets), dtype=float), K).reshape(phi.shape)
    # the circle means of u over every second node, then over every node
    means = (np.mean(v, axis=2).reshape(len(disks), len(eps_list), 2) for v in (u[:, :, ::2], u))
    values, doubled = (math.pi * (m[:, :, 1] - m[:, :, 0]) for m in means)
    return values, np.abs(doubled - values)


def violation_disk(metric: HermitianMetricField, p, pair: TangentPair,
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


def stack_or_each(evaluate: Callable, items: list) -> list:
    """``evaluate(items)``, one result per item, evaluated as one stack.

    When the stack raises a ``KahlerLabError`` (a distance beyond the d_K^2
    cap, say), each item is evaluated alone, as a stack of one, and an item
    that raises gets None without costing the others; both ways give every
    item the same result bits.
    """
    try:
        return list(evaluate(items))
    except KahlerLabError:
        results = []
        for item in items:
            try:
                results.append(evaluate([item])[0])
            except KahlerLabError:
                results.append(None)
        return results


def worst_defect(metric: HermitianMetricField, p, K: float, distance: DistanceStrategy,
                 disks, directed: Optional[DiskEmbedding] = None) -> ScanResult:
    """Worst comparison report over ``disks``, the ``directed`` disk first.

    The disks are evaluated by ``comparison_defects`` under
    ``stack_or_each``: as one stack, or each alone when the stack raises,
    and a disk that raises is skipped.  The first minimum wins.
    """
    candidates = ([] if directed is None else [directed]) + list(disks)
    reports = stack_or_each(
        lambda ds: comparison_defects(metric, ds, p, K, distance=distance), candidates)
    scored = [(r, d) for r, d in zip(reports, candidates) if r is not None]
    if not scored:
        raise KahlerLabError("no admissible disk in the scan")
    worst, disk = min(scored, key=lambda rd: rd[0].defect)
    return ScanResult(report=worst, disk=disk, scanned=len(scored),
                      directed=scored[0][1] is directed)


def scan_disks(space, p, K: float, sampler: DiskSampler) -> ScanResult:
    """Worst comparison defect over seeded affine and degree-2 disks.

    Distances come from ``space.distance_field(p)`` where the space has
    one, else from the geodesic solver.  When the curvature certifies a
    negative bound defect at p, below minus its error bound, the directed
    violation construction runs first so the scan cannot miss it; at a
    singular point there is no curvature and no directed disk.
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
        val, pair, err = min_bk_defect(data, K, samples=400, seed=sampler.seed)
        if val < -err:
            directed = violation_disk(metric, p, pair, 0.06, 0.25)
    disks = sample_disks(metric.chart, p, sampler, np.random.default_rng(sampler.seed))
    return worst_defect(metric, p, K, distance, disks, directed=directed)


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

    return HermitianMetricField(chart, gram, dgram, name="torsion metric")


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
