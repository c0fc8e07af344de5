"""Subharmonicity tests on holomorphic disks.

The lower-bound certificate for a space with potential phi, base point p,
and level K is that phi - d_K^2(p, .)/2 restricts subharmonically to
every holomorphic disk.  Pointwise tests use a finite-difference
Laplacian in the flat disk coordinate (the conformal factor is positive,
so only the sign matters).  Disks that cross a singular point are handled
distributionally, by pairing against a nonnegative C^2 bump whose
gradient vanishes on the boundary of the disk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fd
from .disks import DiskSampler, area_density, disk_images, sample_disks
from .errors import KahlerLabError, Unsupported
from .fields import ComplexChart, ScalarField
from .models import ConeSurface, ModelSpace, QuotientData, dK_transform, model_distance

DEFAULT_TOL = 1e-6
FD_STEP = 1e-3          # Laplacian stencil step of the sampled verdicts
QUOTIENT_TOL = 1e-5     # pointwise tolerance of the link-quotient check
# the disks of the radial-potential check: small, off the apex
RADIAL_SAMPLER = DiskSampler(count=40, size_range=(0.01, 0.2), center_radius=0.3)


@dataclass
class PshVerdict:
    min_laplacian: float
    verdict: str
    tol: float
    samples: int
    seed: int
    witness: Optional[dict] = None
    notes: tuple = ()
    saturated: Optional[bool] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


@dataclass(frozen=True)
class ComplexLine:
    """The affine complex line {a + t v : t in C} in C^n."""

    a: np.ndarray
    v: np.ndarray

    def euclid_distance(self, zs: np.ndarray) -> np.ndarray:
        a = np.asarray(self.a, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        v = v / np.linalg.norm(v)
        d = zs - a[None]
        proj = np.einsum("pi,i->p", d, np.conj(v))
        return np.linalg.norm(d - proj[:, None] * v[None], axis=1)


def disk_laplacian(f, disk, w, h: float = FD_STEP):
    """Laplacian of f composed with the disk map, at interior points w.

    ``f`` is a ScalarField or a batched callable on chart points; returns
    a scalar for scalar w, else an array.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))

    def g(xs):
        return np.asarray(f(disk(xs[:, 0] + 1j * xs[:, 1])), dtype=float)

    out = fd.laplacian_2d(g, _stencil_centres(w, h), h)
    return float(out[0]) if out.size == 1 else out


def _stencil_centres(w: np.ndarray, h: float) -> np.ndarray:
    """Interior points w as (P, 2) real stencil centres."""
    if np.any(np.abs(w) + 2 * h >= 1.0):
        raise ValueError("stencil leaves the unit disk; reduce h or |w|")
    return np.stack([w.real, w.imag], axis=1)


@functools.lru_cache(maxsize=None)
def _pairing_rule():
    """Polar Gauss rule on the unit disk, 48 radial by 64 angular nodes:
    (nodes, weights, Laplacian of the bump (1 - |w|^2)^3 at the nodes,
    bump mass).  The bump is C^2 with flat boundary contact."""
    n_r, n_theta = 48, 64
    x, wgl = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * wgl * r
    th = np.linspace(0.0, 2 * math.pi, n_theta, endpoint=False)
    nodes = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    weights = np.broadcast_to((wr * 2 * math.pi / n_theta)[:, None],
                              (n_r, n_theta)).ravel()
    r2 = np.abs(nodes) ** 2
    return (nodes, weights, 12.0 * (1.0 - r2) * (3.0 * r2 - 1.0),
            float(np.sum(weights * (1.0 - r2) ** 3)))


def distributional_pairing(u, disk) -> float:
    """int u(i(w)) Lap bump dA normalized by int bump dA.

    Nonnegative whenever u restricts subharmonically to the disk in the
    distributional sense; u only needs to be continuous.
    """
    nodes, weights, bump_lap, mass = _pairing_rule()
    vals = np.asarray(u(disk(nodes)), dtype=float)
    return float(np.sum(weights * vals * bump_lap)) / mass


def _disk_stencils(chart: ComplexChart, center, sampler: DiskSampler, rng, h: float,
                   min_singular: float = 0.0, singular_at=None):
    """Sampled disks, their interior points and the stencil nodes around them.

    Draws the disks, then ``sampler.interior_points`` = k points of
    |w| < 0.7 for each disk in disk order, from ``rng``: one
    ``random((D, 2, k))`` call, the same doubles as D draws of
    (uniform(0, 0.49, k), uniform(0, 2 pi, k)) for the squared radii and
    the angles.  Returns (disks, ws, pts): ws is (D, k) and pts the chart
    images of the 9-point Laplacian stencil nodes, ordered so that values
    at pts reshape to (9, ws.size) for ``fd.laplacian_2d_combine``.
    """
    disks = sample_disks(chart, center, sampler, rng, min_singular=min_singular,
                         singular_at=singular_at)
    u = rng.random((len(disks), 2, sampler.interior_points))
    ws = np.sqrt(0.49 * u[:, 0]) * np.exp(1j * (2 * math.pi * u[:, 1]))
    x = fd.laplacian_2d_nodes(_stencil_centres(ws.ravel(), h), h)
    D, k = ws.shape
    nodes = (x[..., 0] + 1j * x[..., 1]).reshape(9, D, k).transpose(1, 0, 2)
    pts = disk_images(disks, nodes.reshape(D, 9 * k), chart.n).reshape(D, 9, k, chart.n)
    return disks, ws, pts.transpose(1, 0, 2, 3).reshape(-1, chart.n)


def _require_samples(count: int, sampler: DiskSampler):
    """No vacuous verdict: a check left with no sample point raises."""
    if count == 0:
        raise KahlerLabError(f"no admissible disk among {sampler.count} requested")


def disk_evaluator(chart: ComplexChart, potential: ScalarField, distance, center,
                   sampler: DiskSampler, crossing_tests: int = 0):
    """Verdicts for potential - d_K^2/2 on one fixed set of sampled disks.

    Draws the disks near ``center``, clear of the potential's first
    singular point, then the interior points of each disk in disk order,
    then ``crossing_tests`` disks straddling the singular point.  The
    potential and ``distance`` (chart points -> d(p, .)) are evaluated
    once, in one batched call each, at every Laplacian stencil node and
    pairing node.  Returns ``verdict(K, tol)``, which costs one
    dK_transform, the stencil combination and one argmin; the first
    minimum, pointwise before distributional, is the witness of a FAIL.
    Raises ``KahlerLabError`` when no disk is admissible, so that there
    is no vacuous PASS.
    """
    rng = np.random.default_rng(sampler.seed)
    singular = potential.singular_points[0] if potential.singular_points else None
    margin = max(potential.smoothness_radius * 4.0, 0.02) if singular is not None else 0.0
    disks, ws, pts = _disk_stencils(chart, center, sampler, rng, FD_STEP, margin, singular)
    cross, notes = [], ()
    if crossing_tests > 0 and singular is not None:
        cross = sample_disks(chart, singular, DiskSampler(
            count=crossing_tests, size_range=(0.05, 0.3), center_radius=0.05), rng)
        notes = (f"distributional pairings: {len(cross)}",)
    _require_samples(ws.size + len(cross), sampler)
    pair_nodes, weights, bump_lap, mass = _pairing_rule()
    pts = np.concatenate([pts, disk_images(cross, pair_nodes, chart.n).reshape(-1, chart.n)])
    phi = potential(pts)
    dist = np.asarray(distance(pts), dtype=float)
    P = ws.size

    def verdict(K: float, tol: float) -> PshVerdict:
        u = phi - 0.5 * dK_transform(dist, K)
        lap = fd.laplacian_2d_combine(u[:9 * P].reshape(9, P), FD_STEP)
        pair = np.sum(weights * u[9 * P:].reshape(len(cross), weights.size) * bump_lap,
                      axis=1)
        vals = np.concatenate([lap, pair / mass])
        i = int(np.argmin(vals))
        best = float(vals[i])
        witness = None
        if best < -tol and i < P:
            witness = {"coeffs": disks[i // ws.shape[1]].coeffs.tolist(),
                       "w": complex(ws.flat[i]), "kind": "pointwise", "value": best}
        elif best < -tol:
            witness = {"coeffs": cross[i - P].coeffs.tolist(),
                       "kind": "distributional", "value": best}
        return PshVerdict(min_laplacian=best, verdict="PASS" if best >= -tol else "FAIL",
                          tol=tol, samples=vals.size, seed=sampler.seed,
                          witness=witness, notes=notes)

    return verdict


def check_bk_lower(space, potential: ScalarField, p, K: float,
                   sampler: Optional[DiskSampler] = None, tol: float = DEFAULT_TOL,
                   crossing_tests: int = 0, center=None) -> PshVerdict:
    """Sampled subharmonicity verdict for potential - d_K^2(S, .)/2.

    The base set S is ``p``: a point, an (m, n) array of points (d_S is
    the least of their distance fields) or a ComplexLine (flat model
    only).  Pointwise finite differences run on disks that keep clear of
    singular loci; ``crossing_tests`` more disks straddling the singular
    point are paired distributionally.  ``center`` moves the sampling
    region (default: around S's first point, or the line's ``a``).  The
    witness is given on FAIL only.
    """
    if isinstance(p, ComplexLine):
        if not (isinstance(space, ModelSpace) and space.K == 0):
            raise Unsupported("closed-form line distance requires the flat model")
        d_S, first = p.euclid_distance, p.a
    else:
        points = np.asarray(p, dtype=complex).reshape(-1, space.chart.n)
        fields = [space.distance_field(pt) for pt in points]

        def d_S(zs):
            return np.min(np.stack([f(zs) for f in fields]), axis=0)

        first = points[0]
    return disk_evaluator(space.chart, potential, d_S, first if center is None else center,
                          sampler or DiskSampler(), crossing_tests)(K, tol)


@dataclass
class RadialPotentialReport:
    max_mismatch: float
    verdict: str
    tol: float
    samples: int


def radial_potential_check(cone: ConeSurface, sampler: DiskSampler = RADIAL_SAMPLER,
                           tol: float = 1e-4) -> RadialPotentialReport:
    """Verify that the squared geodesic radius over two is a potential.

    On apex-avoiding disks, the disk Laplacian of rho^2/2 must equal
    twice the Hausdorff area density of the cone metric.  Raises
    ``KahlerLabError`` when no disk is admissible.
    """
    metric = cone.metric()
    # a large step keeps round-off below truncation; the composed
    # potential is smooth at disk scale so truncation stays h^4 small
    h = 1e-2
    disks, ws, pts = _disk_stencils(metric.chart, np.array([0.7 + 0.1j]), sampler,
                                    np.random.default_rng(sampler.seed), h,
                                    min_singular=0.05, singular_at=np.zeros(1, dtype=complex))
    _require_samples(ws.size, sampler)
    lap = fd.laplacian_2d_combine(cone.potential()(pts).reshape(9, -1), h).reshape(ws.shape)
    dens = np.reshape([area_density(metric, d, w) for d, w in zip(disks, ws)], ws.shape)
    worst = float(np.max(np.abs(lap - 2.0 * dens) / np.maximum(2.0 * dens, 1e-12)))
    return RadialPotentialReport(max_mismatch=worst,
                                 verdict="PASS" if worst <= tol else "FAIL",
                                 tol=tol, samples=ws.size)


def _round_density_from_distance(zs: np.ndarray) -> np.ndarray:
    """Metric matrix of the round link quotient reconstructed from d^2.

    Half the Hessian of z -> d^2(z0, z)/2 at z = z0, by central FD of step
    1e-3 of the closed-form distance (one kernel call for every point and
    offset); independent of the potential under test.
    """
    h = 1e-3
    step = np.array([h, -h, 1j * h, -1j * h])[:, None]
    dsq = model_distance(2.0, np.tile(zs, 4)[:, None],
                         (zs[None] + step).reshape(-1, 1)).reshape(4, -1) ** 2
    gxx = (dsq[0] + dsq[1]) / (2 * h * h)
    gyy = (dsq[2] + dsq[3]) / (2 * h * h)
    return 0.25 * (gxx + gyy)


def quotient_bk2_check(q: QuotientData, zprime, h_extra: Optional[Callable] = None,
                       sampler: Optional[DiskSampler] = None) -> PshVerdict:
    """Level-2 bound and measure consistency for the link quotient datum.

    Two obligations: (a) (1/2) log h + log cos d(., zprime) restricts
    subharmonically to sampled disks in the projective chart; (b) the
    chart Laplacian of the potential, at the images of the interior
    points, reproduces twice the Hausdorff density of the round distance
    (the declared metric datum).  (b) is checked in chart units, as
    Lap_w (pot o i) = |i'|^2 Lap_z pot on this 1-D chart.  ``h_extra`` is
    an optional positive multiplier on h, used to probe broken data.  A
    FAIL carries the worst pointwise witness if (a) fails, else the disk
    of the worst mismatch; a PASS carries none.  Raises
    ``KahlerLabError`` when no admissible disk keeps clear of the cut
    point of zprime.
    """
    sampler = sampler or DiskSampler(count=60, size_range=(0.01, 0.25),
                                     center_radius=0.4)
    dist = q.distance_field(zprime)

    def pot(zs):
        z = zs[:, 0]
        base = 0.5 * np.log1p(np.abs(z) ** 2)
        if h_extra is not None:
            base = base + 0.5 * np.log(np.asarray(h_extra(z), dtype=float))
        return base

    h = 5e-4
    disks, ws, pts = _disk_stencils(q.chart, np.zeros(1), sampler,
                                    np.random.default_rng(sampler.seed), h)
    imgs = disk_images(disks, ws, 1)
    # keep clear of the zero of cos d (the cut point of zprime)
    keep = np.min(np.cos(dist(imgs.reshape(-1, 1))).reshape(ws.shape), axis=1) >= 0.2
    kept = [d for d, k in zip(disks, keep) if k]
    pts = pts.reshape((9,) + ws.shape + (1,))[:, keep].reshape(-1, 1)
    _require_samples(pts.size, sampler)
    u = pot(pts) + np.log(np.cos(dist(pts)))
    vals = fd.laplacian_2d_combine(u.reshape(9, -1), h).reshape(-1, ws.shape[1])
    zs = imgs[keep].ravel()
    lap_pot = fd.laplacian_2d(lambda xs: pot((xs[:, 0] + 1j * xs[:, 1])[:, None]),
                              np.stack([zs.real, zs.imag], axis=1), FD_STEP)
    dens = 4.0 * _round_density_from_distance(zs)
    mism = np.max((np.abs(lap_pot - dens) / np.maximum(dens, 1e-12)).reshape(vals.shape),
                  axis=1)
    best, consistency = float(np.min(vals)), float(np.max(mism))
    witness = None
    if best < -QUOTIENT_TOL:
        i = int(np.argmin(vals))
        witness = {"coeffs": kept[i // ws.shape[1]].coeffs.tolist(),
                   "w": complex(ws[keep].flat[i]), "kind": "pointwise", "value": best}
    elif consistency > 1e-3:
        witness = {"coeffs": kept[int(np.argmax(mism))].coeffs.tolist(),
                   "kind": "consistency", "value": consistency}
    return PshVerdict(min_laplacian=best, verdict="FAIL" if witness else "PASS",
                      tol=QUOTIENT_TOL, samples=vals.size, seed=sampler.seed, witness=witness,
                      notes=(f"measure mismatch {consistency:.3e}",),
                      saturated=bool(np.any(np.abs(vals) <= 1e-3)))


def k_threshold(space, potential: ScalarField, p, lo: float, hi: float,
                resolution: float = 1e-3, sampler: Optional[DiskSampler] = None,
                tol: float = 1e-7, trace: Optional[list] = None) -> float:
    """Largest K (to the given resolution) at which the sampled
    subharmonicity test still passes, by bisection on a fixed disk set.

    The disks are sampled and evaluated once; each step only re-weighs
    the distance at its K.  ``trace``, if given, collects
    (K, min_laplacian, verdict) triples.
    """
    sampler = sampler or DiskSampler(count=60, size_range=(0.05, 0.3))
    verdict = disk_evaluator(space.chart, potential, space.distance_field(p), p, sampler)

    def passes(K):
        v = verdict(K, tol)
        if trace is not None:
            trace.append((K, v.min_laplacian, v.verdict))
        return v.passed

    if not passes(lo):
        raise KahlerLabError(f"test already fails at the lower endpoint K={lo:g}")
    if passes(hi):
        return hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
