"""Geodesic distance by discrete energy minimization, and exact length
metrics of planar domains with obstacles from one visibility graph.

The energy of a path gamma in a Hermitian metric field is

    E(gamma) = int_0^1 2 g(gamma'(t), conj(gamma'(t))) dt

so that sqrt(min E) over fixed-endpoint paths is the distance (the real
metric is ds^2 = 2 g_{i jbar} dz^i dzbar^j).  The minimizer takes Newton
steps on the energy's velocity part with the grams frozen, a metric-weighted
path Laplacian, trying the unit step first; each priced trial evaluates the
metric once.  One mesh refinement with Richardson extrapolation follows.

The solver holds its state with the components first and the paths last:
Q paths of N segments are (n, N+1, Q) node planes, their segment grams
(n, n, N, Q) planes, and the gradient and the Newton step one complex
(n, N-1, Q) array grad_x + i grad_y.  So every component slice, node
difference and Hermitian-form term (one per gram entry) is one contiguous
loop over the batch.  ``gram`` and ``dgram`` read the (P, n) transpose view
of the node planes, and their (P, ...) results are moved back as views.
Sums over a path's nodes or segments are taken over a contiguous (Q, N)
copy, in the order of that path alone, so each target of a batch gets the
bits of its own one-target solve.  Endpoints whose shapes do not fit the
chart raise ValueError, and endpoints outside it ``DomainExceeded``.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import Disconnected, DomainExceeded, NonPositiveDefinite
from .fields import ComplexChart, HermitianMetricField, ScalarField
from .models import ModelSpace

log = logging.getLogger("kahlerlab")


def _path_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the second-last axis of (..., N, Q) planes, (..., Q), each
    path's taken over a contiguous copy as for that path alone: numpy sums
    a contiguous row pairwise but the rows of a plane one by one."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)).sum(axis=-1)


def _contract(pairs) -> np.ndarray:
    """The sum of a * b over the (a, b) pairs of component planes, added in
    place in their order onto 0, as ``sum`` and a short-axis ``np.sum`` add."""
    out = 0
    for a, b in pairs:
        out += a * b
    return out


def _price(metric: HermitianMetricField, paths: np.ndarray):
    """(Q,) energies of (n, N+1, Q) node planes, trapezoid in the metric,
    and the (n, n, N, Q) segment-averaged grams they were priced with.

    ``gram`` reads the (P, n) transpose view of the planes, and its
    (P, n, n) result is moved back with the points last.  Every gram route
    returns Hermitian matrices, so each segment's form is contracted as
    sum_i Re G_ii |dz_i|^2 + 2 sum_{i<j} Re(G_ij dz_i conj dz_j); each
    path's energy has the bits of that path priced alone."""
    n, M, Q = paths.shape
    G = np.moveaxis(metric.gram(paths.reshape(n, M * Q).T, check=False), 0, -1)
    G = G.reshape(n, n, M, Q)
    # C-contiguous planes whatever the layout of the metric's result
    Gavg = np.add(G[:, :, :-1], G[:, :, 1:], out=np.empty((n, n, M - 1, Q), dtype=complex))
    Gavg *= 0.5
    dz = paths[:, 1:] - paths[:, :-1]
    e = sum(Gavg[i, i].real * (dz[i].real ** 2 + dz[i].imag ** 2) for i in range(n))
    for i, j in itertools.combinations(range(n), 2):
        e += 2.0 * (Gavg[i, j] * (dz[i] * np.conj(dz[j]))).real
    return 2.0 * (M - 1) * _path_sums(e), Gavg


def _energy_gradient(metric: HermitianMetricField, paths: np.ndarray,
                     Gavg: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient of the energy wrt the interior nodes of (n, N+1, Q) planes,
    as one complex (n, N-1, Q) array b = grad_x + i grad_y; the segment
    grams ``Gavg`` of a priced path are reused when given.

    Node z_m enters the two adjacent velocity terms and, with weight 1/2,
    the averaged metric of segments m-1 and m, so its metric part is the
    derivative of l(z) = N tr(G(z) M^T) with M = dm dm^H + dp dp^H.  With
    A_k = d_k l = N sum_ij dgram[k, i, j] M_ij and l real, the x-part is
    2 Re A and the y-part -2 Im A, so b = 2 (dE/dzbar + conj(A)).
    """
    n, M, Q = paths.shape
    N = M - 1
    if Gavg is None:
        Gavg = _price(metric, paths)[1]          # (n, n, N, Q)
    dz = paths[:, 1:] - paths[:, :-1]            # (n, N, Q)

    # dE/dzbar_m^j through the two adjacent velocity terms, from the segment
    # fluxes sum_i Gavg_ij dz_i taken one gram row at a time
    flux = _contract(zip(Gavg, dz))                                       # (n, N, Q)
    dEdzbar = 2.0 * N * (flux[:, :-1] - flux[:, 1:])

    # metric variation at the interior nodes, from the transpose view of
    # their planes; dG[k, i, j] is an (N-1, Q) plane
    dG = np.moveaxis(metric.dgram(paths[:, 1:-1].reshape(n, -1).T), 0, -1)
    dG = dG.reshape(n, n, n, N - 1, Q)
    dzc = np.conj(dz)
    A = 0
    for i, j in itertools.product(range(n), repeat=2):
        s = dz[i] * dzc[j]                       # segment products dz_i conj dz_j
        A += dG[:, i, j] * (s[:-1] + s[1:])      # M_ij: segments m-1 and m at node m
    A *= N
    np.conj(A, out=A)
    A += dEdzbar
    A *= 2.0
    return A


def _invert_blocks(M: np.ndarray) -> np.ndarray:
    """Inverses of Hermitian positive definite n x n blocks stored with the
    block axes first, M[i, j, ...], by Gauss-Jordan elimination in place.
    Each row operation covers every block at once; positive definite blocks
    need no pivoting, and a pivot that is not positive (or NaN) raises
    ``NonPositiveDefinite``."""
    n = M.shape[0]
    for k in range(n):
        if not np.all(M[k, k].real > 0):
            raise NonPositiveDefinite("Newton step: a segment gram is not positive definite")
        r = 1.0 / M[k, k]
        M[k, k] = 1.0
        M[k] *= r
        for i in range(n):
            if i != k:
                f = M[i, k].copy()
                M[i, k] = 0.0
                M[i] -= f * M[k]
    return M


def _precondition(grad: np.ndarray, Gavg: np.ndarray) -> np.ndarray:
    """Complex Newton step of the energy's velocity part with the grams frozen.

    That part is 2N sum_k dz_k^H conj(G_k) dz_k, so the step u solves
    4N L u = b, the (n, N-1, Q) gradient, L the Dirichlet path Laplacian of
    n x n blocks W_k = conj(Gavg_k): 4N L_w for grams w_k I, the exact
    Hessian on a constant metric.  The paths do not couple, and each one
    is solved in closed form.  With the segment fluxes
    q_k = 4N W_k (u_{k+1} - u_k), row m reads q_{m-1} - q_m = b_m, so
    q_k = q_0 - F_k with F the prefix sum of b (F_0 = 0).  The end
    conditions u_0 = u_N = 0 fix q_0 through sum_k V_k (q_0 - F_k) = 0,
    V_k = (4N W_k)^-1, and u, (n, N-1, Q), is the prefix sum of V_k q_k.
    A gram that is not positive definite raises ``NonPositiveDefinite``."""
    n, _, N, Q = Gavg.shape
    V = np.conj(Gavg)
    V *= 4.0 * N
    V = _invert_blocks(V)                                   # [i, j, k, q]
    F = np.zeros((n, N, Q), dtype=complex)
    np.cumsum(grad, axis=1, out=F[:, 1:])
    VF = _contract(zip(np.swapaxes(V, 0, 1), F))            # [i, k, q]
    q0 = _contract(zip(np.swapaxes(_invert_blocks(_path_sums(V)), 0, 1), _path_sums(VF)))
    Vq = _contract(zip(np.swapaxes(V[:, :, :-1], 0, 1), q0[:, None]))
    Vq -= VF[:, :-1]
    return np.cumsum(Vq, axis=1)


def _chords(p: np.ndarray, qs: np.ndarray, N: int) -> np.ndarray:
    """Straight N-segment paths from p to each target, as (n, N+1, Q)
    planes; N < 1 raises ValueError."""
    if N < 1:
        raise ValueError(f"a geodesic mesh needs at least one segment, got N={N}")
    t = np.linspace(0.0, 1.0, N + 1)
    return np.ascontiguousarray(p[:, None, None] + t[None, :, None] * (qs.T - p[:, None])[:, None])


def _cols(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[..., idx] for sorted distinct path indices, as a C-contiguous
    gather, and a itself when idx takes every path, so a batch whose paths
    are all active copies nothing."""
    return a if len(idx) == a.shape[-1] else np.take(a, idx, axis=-1)


def _minimize(metric, paths, max_iters, gtol):
    """Newton descent on (n, N+1, Q) planes with per-path backtracking;
    in-place safe.

    Each iteration tries the unit step of ``_precondition`` and halves it
    while the energy does not fall.  Only the paths still descending are
    priced, with one gram evaluation per trial; the accepted trial's grams
    serve the next gradient.  While every path is active the gradient and
    the step read the arrays as they are; a partial active set gathers
    along the path axis, and a trial is a copy.  A path stops at gradient
    norm gtol, or when a full backtrack (25 halvings) finds no lower
    energy.  Returns the energies and each path's last gradient norm."""
    n, M, Q = paths.shape
    E, Gavg = _price(metric, paths)
    active = np.ones(Q, dtype=bool)
    gnorm = np.full(Q, np.inf)
    for _ in range(max_iters):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        grad = _energy_gradient(metric, _cols(paths, idx), _cols(Gavg, idx))
        # each path's squared norm over the components of a node, then over
        # its nodes in the order of that path alone
        sq = grad.real ** 2
        sq += grad.imag ** 2
        gnorm[idx] = np.sqrt(_path_sums(sq.sum(axis=0)))
        keep = gnorm[idx] > gtol
        active[idx[~keep]] = False
        idx = idx[keep]
        if idx.size == 0:
            break
        du = _precondition(_cols(grad, np.flatnonzero(keep)), _cols(Gavg, idx))
        step = 1.0
        for _bt in range(25):
            trial = np.take(paths, idx, axis=-1)
            trial[:, 1:-1] -= step * du
            Et, Gt = _price(metric, trial)
            better = Et < E[idx] - 1e-15
            acc, won = idx[better], np.flatnonzero(better)
            if len(acc) == Q:                    # every path took the step
                paths[...], Gavg = trial, Gt
            else:
                paths[..., acc], Gavg[..., acc] = _cols(trial, won), _cols(Gt, won)
            E[acc] = Et[better]
            rest = np.flatnonzero(~better)
            idx, du = idx[rest], _cols(du, rest)
            if idx.size == 0:
                break
            step *= 0.5
        active[idx] = False                      # a full backtrack found no descent
    return E, gnorm


def _refine(paths: np.ndarray) -> np.ndarray:
    """Insert segment midpoints into (n, N+1, Q) planes, doubling the resolution."""
    n, M, Q = paths.shape
    out = np.empty((n, 2 * M - 1, Q), dtype=complex)
    out[:, ::2] = paths
    out[:, 1::2] = 0.5 * (paths[:, :-1] + paths[:, 1:])
    return out


def geodesic_distance_many(metric: HermitianMetricField, p, qs,
                           N: int = 48, max_iters: int = 300, gtol: float = 1e-9):
    """Distances from one base point to many targets, solved in batch.

    Starts every path on the straight chord; suitable when chords are
    feasible initializers (convex charts, moderate curvature).  Minimizes,
    refines the mesh, minimizes again, and returns (distances,
    error_estimates) from the Richardson energies; each target's distance
    and error have the bits of that target solved alone.  p needs the
    chart's n entries and qs the shape (Q, n), or (n,) for one target;
    other shapes raise ValueError naming both, and an endpoint outside
    ``metric.chart`` raises ``DomainExceeded`` naming the first one.  Logs
    at INFO how many paths stopped above gtol, a path's norm being the
    larger of its two solves' final norms, with the largest such norm.
    """
    p = np.asarray(p, dtype=complex)
    qs = np.atleast_2d(np.asarray(qs, dtype=complex))
    n = metric.chart.n
    if p.size != n or qs.ndim != 2 or qs.shape[1] != n:
        raise ValueError(f"geodesic endpoints in C^{n} need p with {n} entries and qs "
                         f"of shape (Q, {n}), got p of shape {p.shape} and qs of shape {qs.shape}")
    p = p.reshape(-1)
    ends = np.concatenate([p[None], qs])
    outside = np.flatnonzero(~metric.chart.contains(ends))
    if outside.size:
        raise DomainExceeded(f"geodesic endpoint {ends[outside[0]].tolist()} lies outside the "
                             f"{metric.chart.kind} chart of radii {metric.chart.radii.round(6).tolist()}")
    paths = _chords(p, qs, N)
    E1, gnorm1 = _minimize(metric, paths, max_iters, gtol)
    paths = _refine(paths)
    E2, gnorm2 = _minimize(metric, paths, max_iters, gtol)
    gnorm = np.maximum(gnorm1, gnorm2)
    E = np.maximum(E2 + (E2 - E1) / 3.0, 0.0)
    err = np.abs(E2 - E1) / 3.0
    d = np.sqrt(E)
    derr = np.where(d > 0, err / np.maximum(2 * d, 1e-12), np.sqrt(err))
    converged = gnorm <= gtol
    if not converged.all():
        log.info("geodesic solve: %d of %d paths stopped above gtol %.1e, "
                 "largest final gradient norm %.1e", int(np.count_nonzero(~converged)),
                 converged.size, gtol, float(np.max(gnorm[~converged])))
    return d, derr


# ---------------------------------------------------------------------------
# length metrics of planar domains with obstacles
#
# A chart box minus closed rects and disks has an exact length metric.  A
# taut path is straight off the obstacles, bends only at rect corners and
# runs along disk arcs between tangent points.  So one visibility graph per
# base point p carries every distance from p.  Its nodes are p, the rect
# corners, and on each disk the touch points of the tangents from p and from
# each corner and of the outer and inner common tangents with every other
# disk; a node outside the box or inside an obstacle is dropped.  Its edges
# are the free segments between nodes, and the arcs between neighbouring
# nodes of a disk that no other obstacle boundary or box edge crosses; the
# box is convex, so a segment between two nodes stays inside it.  One
# Dijkstra run from p gives every node's distance.  A target q takes the
# smaller of min dist(v) + |v - q| over the nodes v it sees, and dist(v) +
# arc + tangent over its own tangent points on each disk, entered from the
# neighbouring node v on either side.

_OPEN = 1e-12     # obstacles are open by this margin: a grazing segment passes


def _norm(d: np.ndarray) -> np.ndarray:
    """Euclidean norms of the (..., 2) vectors d, rounded as np.linalg.norm."""
    return np.sqrt(np.vecdot(d, d))


@dataclass(frozen=True)
class RectObstacle:
    """Closed axis-aligned rectangle removed from the plane."""

    center: np.ndarray
    half_widths: np.ndarray

    def contains(self, pts: np.ndarray) -> np.ndarray:
        d = np.abs(pts - np.asarray(self.center)[None])
        return np.all(d <= np.asarray(self.half_widths)[None], axis=1)

    def corners(self) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        h = np.asarray(self.half_widths, dtype=float)
        return c[None] + h[None] * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])

    def blocks_segments(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(S,) whether the segments a -> b, (S, 2) each, meet the open
        rectangle (slab clipping).  Grazing the boundary does not block;
        taut paths touch corners.  A point segment blocks inside."""
        lo = np.asarray(self.center) - np.asarray(self.half_widths) + _OPEN
        hi = np.asarray(self.center) + np.asarray(self.half_widths) - _OPEN
        d = b - a
        t0, t1 = np.zeros(len(a)), np.ones(len(a))
        for i in range(2):
            flat = np.abs(d[:, i]) < 1e-300
            with np.errstate(all="ignore"):
                ta = (lo[i] - a[:, i]) / d[:, i]
                tb = (hi[i] - a[:, i]) / d[:, i]
            inside = (a[:, i] >= lo[i]) & (a[:, i] <= hi[i])
            t0 = np.maximum(t0, np.where(flat, np.where(inside, -np.inf, np.inf),
                                         np.minimum(ta, tb)))
            t1 = np.minimum(t1, np.where(flat, np.inf, np.maximum(ta, tb)))
        return t0 <= t1

    def blocks_disk(self, c: np.ndarray, r: float) -> bool:
        """Whether the closed round disk |x - c| <= r meets the rectangle."""
        gap = np.abs(c - np.asarray(self.center)) - np.asarray(self.half_widths)
        return float(np.linalg.norm(np.maximum(gap, 0.0))) <= r


@dataclass(frozen=True)
class DiskObstacle:
    """Closed round disk removed from the plane."""

    center: np.ndarray
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return np.linalg.norm(pts - np.asarray(self.center)[None], axis=1) <= self.radius

    def blocks_segments(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(S,) whether the segments a -> b come closer to the centre than
        the radius less the open margin; tangents pass."""
        c = np.asarray(self.center, dtype=float)
        d = b - a
        L2 = np.vecdot(d, d)
        t = np.clip(np.vecdot(c - a, d) / np.where(L2 > 0, L2, 1.0), 0.0, 1.0)
        return _norm(a + t[:, None] * d - c) < self.radius - _OPEN

    def blocks_disk(self, c: np.ndarray, r: float) -> bool:
        """Whether the closed round disk |x - c| <= r meets this one."""
        return float(np.linalg.norm(c - np.asarray(self.center))) <= r + self.radius


def _touch_angles(c: np.ndarray, r: float, src: np.ndarray, rho) -> np.ndarray:
    """(S, 2) angles on the circle |x - c| = r of the touch points of its
    common tangents with the circles |x - src_s| = rho_s; rho = 0 gives the
    tangents from a point, rho < 0 the inner common tangents.  The normal at
    a touch point makes the angle acos((r - rho) / d) with the direction to
    src.  nan where there is no such tangent."""
    v = src - c
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.arccos((r - rho) / _norm(v))
    phi = np.arctan2(v[:, 1], v[:, 0])
    return np.stack([phi - a, phi + a], axis=1)


def _crossings(c: np.ndarray, r: float, disks, boxes) -> np.ndarray:
    """Angles in [0, 2 pi) where the circle |x - c| = r crosses the other
    disks' circles and the boundaries of the (lo, hi) boxes."""
    out = []
    for ob in disks:
        v = np.asarray(ob.center, dtype=float) - c
        d = math.hypot(v[0], v[1])
        if abs(r - ob.radius) < d < r + ob.radius:
            a = math.acos((r * r + d * d - ob.radius ** 2) / (2.0 * r * d))
            out += [math.atan2(v[1], v[0]) + s * a for s in (-1, 1)]
    for lo, hi in boxes:
        for i in range(2):              # the edges x_i = lo_i and x_i = hi_i
            for e in (lo[i], hi[i]):
                h = r * r - (e - c[i]) ** 2
                if h <= 0:
                    continue
                for y in (c[1 - i] - math.sqrt(h), c[1 - i] + math.sqrt(h)):
                    if lo[1 - i] <= y <= hi[1 - i]:
                        x = (e, y) if i == 0 else (y, e)
                        out.append(math.atan2(x[1] - c[1], x[0] - c[0]))
    return np.mod(out, 2 * math.pi)


def _arcs_free(start: np.ndarray, span: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Whether the counterclockwise arcs from angle start over span miss
    every crossing angle."""
    m = np.mod(cross - start[..., None], 2 * math.pi)
    return ~np.any(m < span[..., None], axis=-1)


def _dijkstra(W: np.ndarray) -> np.ndarray:
    """Shortest path lengths from node 0 of the undirected graph with edge
    lengths min(W, W^T), inf where there is no edge.  Dense Dijkstra: each
    step settles the nearest unsettled node and relaxes its row, so a node's
    length is the least dist(u) + w(u, v) over its settled neighbours u."""
    W = np.minimum(W, W.T)
    dist = np.full(len(W), np.inf)
    dist[0] = 0.0
    todo = np.ones(len(W), dtype=bool)
    while todo.any():
        k = np.flatnonzero(todo)[np.argmin(dist[todo])]
        if dist[k] == np.inf:
            break                   # the rest is unreachable
        todo[k] = False
        np.minimum(dist, dist[k] + W[k], out=dist)
    return dist


@dataclass(frozen=True)
class PlanarDomain:
    """A chart box in C (real dimension 2) minus closed obstacles."""

    chart: ComplexChart
    obstacles: Sequence = ()

    def __post_init__(self):
        if self.chart.n != 1 or self.chart.kind != "box":
            raise ValueError("a planar domain lives in a one-dimensional chart box")

    def free(self, pts: np.ndarray) -> np.ndarray:
        zs = (pts[:, 0] + 1j * pts[:, 1])[:, None]
        inside = self.chart.contains(zs)
        for ob in self.obstacles:
            inside &= ~ob.contains(pts)
        return inside

    def segments_free(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(S,) whether the segments a -> b, (S, 2) each, miss every open
        obstacle; a point segment is free where it is not inside one."""
        ok = np.ones(len(a), dtype=bool)
        for ob in self.obstacles:
            ok &= ~ob.blocks_segments(a, b)
        return ok

    def disk_free(self, c: complex, r: float) -> bool:
        """Whether the closed round disk |z - c| <= r misses every obstacle."""
        c2 = np.array([c.real, c.imag])
        return not any(ob.blocks_disk(c2, r) for ob in self.obstacles)

    def metric(self) -> HermitianMetricField:
        """The flat metric of the chart; obstacles only change distances."""
        return ModelSpace(0.0, 1, chart=self.chart).metric()

    def _keep(self, pts: np.ndarray) -> np.ndarray:
        """Graph nodes in the chart box and inside no open obstacle."""
        return (self.chart.contains((pts[:, 0] + 1j * pts[:, 1])[:, None])
                & self.segments_free(pts, pts))

    def distance_field(self, p) -> ScalarField:
        """Exact length-metric distance d(p, .) inside the domain, from one
        visibility graph (see the section comment).  An endpoint outside
        the open domain raises ``DomainExceeded``, a target with no path
        ``Disconnected``."""
        p = complex(np.asarray(p, dtype=complex).reshape(1)[0])
        nodes = np.array([[p.real, p.imag]])
        if not self.free(nodes)[0]:
            raise DomainExceeded("endpoints must lie in the open domain")
        disks = [ob for ob in self.obstacles if isinstance(ob, DiskObstacle)]
        rects = [ob for ob in self.obstacles if isinstance(ob, RectObstacle)]
        nodes = np.concatenate([nodes] + [ob.corners() for ob in rects])
        nodes = nodes[self._keep(nodes)]                     # p stays first
        h0 = self.chart.radii[0]
        boxes = [(np.array([-h0, -h0]), np.array([h0, h0]))]
        boxes += [(np.asarray(ob.center) - ob.half_widths, np.asarray(ob.center) + ob.half_widths)
                  for ob in rects]

        # per disk: centre, radius, sorted node angles, their node ids, crossings
        rims, points = [], [nodes]
        V = len(nodes)
        for k, ob in enumerate(disks):
            c, r = np.asarray(ob.center, dtype=float), float(ob.radius)
            others = disks[:k] + disks[k + 1:]
            oc = np.array([o.center for o in others], dtype=float).reshape(-1, 2)
            orad = np.array([o.radius for o in others], dtype=float)
            th = np.concatenate([_touch_angles(c, r, nodes, 0.0).ravel(),
                                 _touch_angles(c, r, oc, orad).ravel(),
                                 _touch_angles(c, r, oc, -orad).ravel()])
            th = np.sort(np.mod(th[np.isfinite(th)], 2 * math.pi))
            pts = c + r * np.stack([np.cos(th), np.sin(th)], axis=1)
            keep = self._keep(pts)
            rims.append((c, r, th[keep], V + np.arange(keep.sum()), _crossings(c, r, others, boxes)))
            points.append(pts[keep])
            V += int(keep.sum())
        nodes = np.concatenate(points)

        W = np.full((V, V), np.inf)
        i, j = np.triu_indices(V, 1)
        ok = self.segments_free(nodes[i], nodes[j])
        W[i[ok], j[ok]] = _norm(nodes[i[ok]] - nodes[j[ok]])
        for c, r, th, ids, cross in rims:
            if len(th) > 1:     # each arc to the next node counterclockwise
                span = np.diff(th, append=th[0] + 2 * math.pi)
                ok = _arcs_free(th, span, cross)
                np.minimum.at(W, (ids[ok], np.roll(ids, -1)[ok]), r * span[ok])
        dist = _dijkstra(W)

        def fn(zs):
            q = np.stack([zs[:, 0].real, zs[:, 0].imag], axis=1)
            if not self.free(q).all():
                raise DomainExceeded("endpoints must lie in the open domain")
            P = len(q)
            a, b = np.repeat(q, V, axis=0), np.tile(nodes, (P, 1))
            seen = self.segments_free(a, b).reshape(P, V)
            best = np.min(np.where(seen, dist[None] + _norm(a - b).reshape(P, V), np.inf), axis=1)
            for c, r, th, ids, cross in rims:
                if len(th) == 0:
                    continue
                t = np.mod(_touch_angles(c, r, q, 0.0), 2 * math.pi)      # (P, 2)
                tp = c + r * np.stack([np.cos(t), np.sin(t)], axis=-1)
                leg = np.where(self.segments_free(np.repeat(q, 2, axis=0), tp.reshape(-1, 2))
                               .reshape(P, 2), _norm(tp - q[:, None]), np.inf)
                s = np.searchsorted(th, t)
                nxt = th[s % len(th)] + 2 * math.pi * (s == len(th))
                prv = th[s - 1] - 2 * math.pi * (s == 0)
                for start, span, v in ((prv, t - prv, ids[s - 1]),
                                       (t, nxt - t, ids[s % len(th)])):
                    arc = np.where(_arcs_free(start, span, cross), r * span, np.inf)
                    best = np.minimum(best, np.min(dist[v] + arc + leg, axis=1))
            if not np.isfinite(best).all():
                raise Disconnected("no path between the endpoints")
            return best

        return ScalarField(fn=fn, n=1, name="domain length metric")
