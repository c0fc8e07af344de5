"""Geodesic distance by discrete energy minimization, and length metrics
of planar domains with obstacles.

The energy of a path gamma in a Hermitian metric field is

    E(gamma) = int_0^1 2 g(gamma'(t), conj(gamma'(t))) dt

so that sqrt(min E) over fixed-endpoint paths is the distance (the real
metric is ds^2 = 2 g_{i jbar} dz^i dzbar^j).  The minimizer takes Newton
steps on the energy's velocity part with the grams frozen, a metric-weighted
path Laplacian, trying the unit step first; each priced trial evaluates the
metric once.  One mesh refinement with Richardson extrapolation follows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solveh_banded
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import Disconnected, DomainExceeded
from .fields import ComplexChart, HermitianMetricField, ScalarField
from .models import ModelSpace

log = logging.getLogger("kahlerlab")


@dataclass
class DiscretePath:
    """Nodes of a discrete path in complex chart coordinates, (N+1, n)."""

    points: np.ndarray
    energy: float = math.nan
    grad_norm: float = math.nan

    @property
    def segments(self) -> int:
        return self.points.shape[0] - 1


@dataclass
class DistanceSolution:
    distance: float
    path: DiscretePath
    multistarts: int = 1
    converged: bool = True
    error_estimate: float = 0.0
    start_energies: tuple = ()
    chord_lower_bound: float = 0.0


def _price(metric: HermitianMetricField, paths: np.ndarray):
    """(Q,) energies of (Q, N+1, n) node arrays, trapezoid in the metric,
    and the (Q, N, n, n) segment-averaged grams they were priced with."""
    Q, M, n = paths.shape
    G = metric.gram(paths.reshape(Q * M, n), check=False).reshape(Q, M, n, n)
    Gavg = 0.5 * (G[:, :-1] + G[:, 1:])
    dz = paths[:, 1:] - paths[:, :-1]
    e = np.einsum("qkij,qki,qkj->qk", Gavg, dz, np.conj(dz)).real
    return 2.0 * (M - 1) * np.sum(e, axis=1), Gavg


def _segment_energies(metric: HermitianMetricField, paths: np.ndarray) -> np.ndarray:
    """(Q,) energies of (Q, N+1, n) node arrays, trapezoid in the metric."""
    return _price(metric, paths)[0]


def path_energy(metric: HermitianMetricField, path: DiscretePath) -> float:
    """Discrete energy of a single path."""
    return float(_segment_energies(metric, path.points[None])[0])


def _energy_gradient(metric: HermitianMetricField, paths: np.ndarray,
                     Gavg: Optional[np.ndarray] = None) -> np.ndarray:
    """Real gradient of the energy wrt interior nodes, (Q, N-1, 2n); the
    segment grams ``Gavg`` of a priced path are reused when given.

    Node z_m enters the two adjacent velocity terms and, with weight 1/2,
    the averaged metric of segments m-1 and m, so its metric part is the
    derivative of l(z) = N tr(G(z) M^T) with M = dm dm^H + dp dp^H.  With
    A_k = d_k l = N sum_ij dgram[k, i, j] M_ij and l real, the x-part is
    2 Re A and the y-part -2 Im A.
    """
    Q, M, n = paths.shape
    N = M - 1
    if Gavg is None:
        Gavg = _price(metric, paths)[1]          # (Q, N, n, n)
    dz = paths[:, 1:] - paths[:, :-1]            # (Q, N, n)

    # dE/dzbar_m^j through the two adjacent velocity terms
    flux = np.einsum("qkij,qki->qkj", Gavg, dz)  # (Q, N, n)
    dEdzbar = 2.0 * N * (flux[:, :-1] - flux[:, 1:])

    # metric variation at the interior nodes, summed with the nodes on the
    # last axes so that every product runs over all of them at once
    dG = metric.dgram(paths[:, 1:-1].reshape(-1, n)).reshape(Q, N - 1, n, n, n)
    dG = np.moveaxis(dG, (0, 1), (3, 4))          # [k, i, j, q, m]
    dzT = np.moveaxis(dz, 2, 0).copy()            # [i, q, segment]
    dm, dp = dzT[..., :-1], dzT[..., 1:]
    A = sum(dG[:, i, j] * (dm[i] * np.conj(dm[j]) + dp[i] * np.conj(dp[j]))
            for i in range(n) for j in range(n))
    A = N * np.moveaxis(A, 0, 2)                  # (Q, N-1, n)
    return np.concatenate([2.0 * (dEdzbar.real + A.real),
                           2.0 * (dEdzbar.imag - A.imag)], axis=2)


def _precondition(grad: np.ndarray, Gavg: np.ndarray) -> np.ndarray:
    """Complex Newton step of the energy's velocity part with the grams frozen.

    That part is 2N sum_k dz_k^H conj(G_k) dz_k, so the step solves
    4N L u = grad_x + i grad_y, L the Dirichlet path Laplacian of n x n
    blocks conj(Gavg_k): 4N L_w for grams w_k I, the exact Hessian on a
    constant metric.  The paths do not couple: one banded Hermitian solve."""
    Q, Ni, n = grad.shape[0], grad.shape[1], Gavg.shape[-1]
    W = 4.0 * (Ni + 1) * np.conj(Gavg)
    ab = np.zeros((2 * n, Q, Ni, n), dtype=complex)   # ab[2n - 1 + i - j, j] = 4N L[i, j]
    r, c = np.triu_indices(n)
    ab[2 * n - 1 + r - c, :, :, c] = np.moveaxis(W[:, :-1, r, c] + W[:, 1:, r, c], 2, 0)
    r, c = np.indices((n, n)).reshape(2, -1)
    ab[n - 1 + r - c, :, 1:, c] = -np.moveaxis(W[:, 1:-1, r, c], 2, 0)
    u = solveh_banded(ab.reshape(2 * n, -1), (grad[..., :n] + 1j * grad[..., n:]).reshape(-1))
    return u.reshape(Q, Ni, n)


def _chords(p: np.ndarray, qs: np.ndarray, N: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, N + 1)
    return p[None, None, :] + t[None, :, None] * (qs[:, None, :] - p[None, None, :])


def _minimize(metric, paths, max_iters, gtol):
    """Newton descent with per-path backtracking; in-place safe.

    Each iteration tries the unit step of ``_precondition`` and halves it
    while the energy does not fall.  Only the paths still descending are
    priced, with one gram evaluation per trial; the accepted trial's grams
    serve the next gradient.  A path stops at gradient norm gtol, or when a
    full backtrack (25 halvings) finds no lower energy.  Returns the
    energies and each path's last gradient norm."""
    Q, M, n = paths.shape
    E, Gavg = _price(metric, paths)
    active = np.ones(Q, dtype=bool)
    gnorm = np.full(Q, np.inf)
    for _ in range(max_iters):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        grad = _energy_gradient(metric, paths[idx], Gavg[idx])
        gnorm[idx] = np.sqrt(np.sum(grad * grad, axis=(1, 2)))
        keep = gnorm[idx] > gtol
        active[idx[~keep]] = False
        idx = idx[keep]
        if idx.size == 0:
            break
        du = _precondition(grad[keep], Gavg[idx])
        step = 1.0
        for _bt in range(25):
            trial = paths[idx]
            trial[:, 1:-1] -= step * du
            Et, Gt = _price(metric, trial)
            better = Et < E[idx] - 1e-15
            acc = idx[better]
            paths[acc], E[acc], Gavg[acc] = trial[better], Et[better], Gt[better]
            idx, du = idx[~better], du[~better]
            if idx.size == 0:
                break
            step *= 0.5
        active[idx] = False                      # a full backtrack found no descent
    return E, gnorm


def _refine(paths: np.ndarray) -> np.ndarray:
    """Insert segment midpoints, doubling the resolution."""
    mids = 0.5 * (paths[:, :-1] + paths[:, 1:])
    Q, M, n = paths.shape
    out = np.empty((Q, 2 * M - 1, n), dtype=complex)
    out[:, ::2] = paths
    out[:, 1::2] = mids
    return out


def _solve_refined(metric, paths, max_iters, gtol):
    """Minimize, refine the mesh, minimize again.  Returns the Richardson
    energies E, the refined energies E2, paths and gradient norms, the
    distances sqrt(E) with their error estimates, and a per-path mask of
    the paths whose two solves both ended at gradient norm <= gtol."""
    E1, gnorm1 = _minimize(metric, paths, max_iters, gtol)
    paths2 = _refine(paths)
    E2, gnorm = _minimize(metric, paths2, max_iters, gtol)
    E = np.maximum(E2 + (E2 - E1) / 3.0, 0.0)
    err = np.abs(E2 - E1) / 3.0
    d = np.sqrt(E)
    derr = np.where(d > 0, err / np.maximum(2 * d, 1e-12), np.sqrt(err))
    converged = (gnorm1 <= gtol) & (gnorm <= gtol)
    return E, E2, paths2, gnorm, d, derr, converged


def geodesic_distance_many(metric: HermitianMetricField, p, qs,
                           N: int = 48, max_iters: int = 300, gtol: float = 1e-9):
    """Distances from one base point to many targets, solved in batch.

    Starts every path on the straight chord; suitable when chords are
    feasible initializers (convex charts, moderate curvature).  Returns
    (distances, error_estimates) and logs at INFO how many paths stopped
    above gtol, with the largest final gradient norm among them.
    """
    p = np.asarray(p, dtype=complex).reshape(-1)
    qs = np.atleast_2d(np.asarray(qs, dtype=complex))
    *_, gnorm, d, derr, converged = _solve_refined(metric, _chords(p, qs, N), max_iters, gtol)
    if not converged.all():
        log.info("geodesic solve: %d of %d paths stopped above gtol %.1e, "
                 "largest final gradient norm %.1e", int(np.count_nonzero(~converged)),
                 converged.size, gtol, float(np.max(gnorm[~converged])))
    return d, derr


def chord_lower_bound(metric: HermitianMetricField, p, q, samples: int = 33) -> float:
    """|q - p| scaled by the smallest metric eigenvalue along the chord."""
    p = np.asarray(p, dtype=complex).reshape(-1)
    q = np.asarray(q, dtype=complex).reshape(-1)
    t = np.linspace(0, 1, samples)
    pts = p[None] + t[:, None] * (q - p)[None]
    ev = np.linalg.eigvalsh(metric.gram(pts, check=False))
    lam = float(np.min(ev))
    return float(np.linalg.norm(q - p) * math.sqrt(max(2.0 * lam, 0.0)))


def geodesic_distance(metric: HermitianMetricField, p, q,
                      N: int = 48, multistarts: int = 4, seed: int = 0,
                      max_iters: int = 500, gtol: float = 1e-9) -> DistanceSolution:
    """Distance between two chart points with multistart descent.

    Start 0 is the straight chord; the rest are seeded sinusoidal
    perturbations of it.  The reported error estimate is the Richardson
    correction from the mesh refinement.
    """
    p = np.asarray(p, dtype=complex).reshape(-1)
    q = np.asarray(q, dtype=complex).reshape(-1)
    n = p.size
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, N + 1)
    starts = [_chords(p, q[None, :], N)[0]]
    bump = np.sin(math.pi * t)[:, None]
    scale = 0.25 * np.linalg.norm(q - p) + 1e-3
    for _ in range(max(multistarts - 1, 0)):
        amp = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
        starts.append(starts[0] + bump * amp[None, :])
    E, E2, paths2, gn, d, derr, converged = _solve_refined(metric, np.stack(starts),
                                                           max_iters, gtol)
    best = int(np.argmin(E))          # ties resolved by start index
    return DistanceSolution(
        distance=float(d[best]),
        path=DiscretePath(points=paths2[best], energy=float(E2[best]),
                          grad_norm=float(gn[best])),
        multistarts=len(starts),
        converged=bool(converged[best]),
        error_estimate=float(derr[best]),
        start_energies=tuple(float(x) for x in E),
        chord_lower_bound=chord_lower_bound(metric, p, q),
    )


# ---------------------------------------------------------------------------
# length metrics of planar domains with obstacles


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

    def blocks_segment(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Segment vs open rectangle intersection (slab clipping).

        Grazing the boundary does not block; taut paths touch corners.
        """
        eps = 1e-12
        lo = np.asarray(self.center) - np.asarray(self.half_widths) + eps
        hi = np.asarray(self.center) + np.asarray(self.half_widths) - eps
        d = b - a
        t0, t1 = 0.0, 1.0
        for i in range(2):
            if abs(d[i]) < 1e-300:
                if a[i] < lo[i] or a[i] > hi[i]:
                    return False
            else:
                ta = (lo[i] - a[i]) / d[i]
                tb = (hi[i] - a[i]) / d[i]
                ta, tb = min(ta, tb), max(ta, tb)
                t0, t1 = max(t0, ta), min(t1, tb)
                if t0 > t1:
                    return False
        return True

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

    def blocks_segment(self, a: np.ndarray, b: np.ndarray) -> bool:
        c = np.asarray(self.center)
        d = b - a
        L2 = float(d @ d)
        t = 0.0 if L2 == 0 else float(np.clip((c - a) @ d / L2, 0.0, 1.0))
        return float(np.linalg.norm(a + t * d - c)) < self.radius - 1e-12

    def blocks_disk(self, c: np.ndarray, r: float) -> bool:
        """Whether the closed round disk |x - c| <= r meets this one."""
        return float(np.linalg.norm(c - np.asarray(self.center))) <= r + self.radius


@dataclass(frozen=True)
class PlanarDomain:
    """A chart box in C (real dimension 2) minus closed obstacles."""

    chart: ComplexChart
    obstacles: Sequence = ()

    def free(self, pts: np.ndarray) -> np.ndarray:
        zs = (pts[:, 0] + 1j * pts[:, 1])[:, None]
        inside = self.chart.contains(zs)
        for ob in self.obstacles:
            inside &= ~ob.contains(pts)
        return inside

    def segment_free(self, a, b) -> bool:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        for ob in self.obstacles:
            if ob.blocks_segment(a, b):
                return False
        return True

    def disk_free(self, c: complex, r: float) -> bool:
        """Whether the closed round disk |z - c| <= r misses every obstacle."""
        c2 = np.array([c.real, c.imag])
        return not any(ob.blocks_disk(c2, r) for ob in self.obstacles)

    def metric(self) -> HermitianMetricField:
        """The flat metric of the chart; obstacles only change distances."""
        return ModelSpace(0.0, 1, chart=self.chart).metric()

    def distance_field(self, p) -> ScalarField:
        """Length-metric distance d(p, .) inside the domain; the corner
        visibility graph where every obstacle is a rectangle, else
        ``domain_length_metric``."""
        p = complex(np.asarray(p, dtype=complex).reshape(1)[0])
        p2 = np.array([p.real, p.imag])
        rects = all(isinstance(ob, RectObstacle) for ob in self.obstacles)

        def fn(zs):
            out = np.empty(zs.shape[0])
            for i, z in enumerate(zs[:, 0]):
                q2 = np.array([z.real, z.imag])
                L = _visibility_length(self, p2, q2) if rects else None
                out[i] = domain_length_metric(self, p2, q2) if L is None else L
            return out

        return ScalarField(fn=fn, n=1, name="domain length metric")


def _shortcut(domain: PlanarDomain, pts: np.ndarray) -> np.ndarray:
    """Greedy string pulling: replace runs by free straight segments."""
    pts = [np.asarray(q, dtype=float) for q in pts]
    changed = True
    while changed:
        changed = False
        out = [pts[0]]
        i = 0
        while i < len(pts) - 1:
            j = len(pts) - 1
            while j > i + 1:
                if domain.segment_free(pts[i], pts[j]):
                    break
                j -= 1
            if j > i + 1:
                changed = True
            out.append(pts[j])
            i = j
        pts = out
    return np.array(pts)


def _corner_refine(domain: PlanarDomain, pts: np.ndarray, iters: int = 60) -> np.ndarray:
    """Slide interior vertices to locally shorten the polyline.

    Coordinate descent with shrinking step; keeps every segment free.
    """
    pts = pts.copy()
    if len(pts) <= 2:
        return pts
    step = 0.05
    for _ in range(iters):
        improved = False
        for k in range(1, len(pts) - 1):
            base = pts[k].copy()
            best = np.linalg.norm(pts[k] - pts[k - 1]) + np.linalg.norm(pts[k + 1] - pts[k])
            for dx in ((step, 0), (-step, 0), (0, step), (0, -step),
                       (step, step), (step, -step), (-step, step), (-step, -step)):
                cand = base + np.asarray(dx)
                if not domain.free(cand[None])[0]:
                    continue
                if not (domain.segment_free(pts[k - 1], cand)
                        and domain.segment_free(cand, pts[k + 1])):
                    continue
                ln = np.linalg.norm(cand - pts[k - 1]) + np.linalg.norm(pts[k + 1] - cand)
                if ln < best - 1e-14:
                    pts[k] = cand
                    best = ln
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-10:
                break
    return pts


def _visibility_length(domain: PlanarDomain, p: np.ndarray, q: np.ndarray) -> Optional[float]:
    """Exact taut length through a visibility graph of rectangle corners.

    Returns None when some obstacle is not a rectangle or when the graph
    is disconnected (caller falls back to the grid path).
    """
    verts = [p, q]
    for ob in domain.obstacles:
        if not isinstance(ob, RectObstacle):
            return None
        verts.extend(ob.corners())
    verts = np.array(verts)
    m = len(verts)
    rows, cols, ws = [], [], []
    for i in range(m):
        for j in range(i + 1, m):
            if domain.segment_free(verts[i], verts[j]):
                rows.append(i)
                cols.append(j)
                ws.append(float(np.linalg.norm(verts[i] - verts[j])))
    Gm = csr_matrix((ws, (rows, cols)), shape=(m, m))
    dist = dijkstra(Gm, directed=False, indices=0)
    return float(dist[1]) if np.isfinite(dist[1]) else None


def domain_length_metric(domain: PlanarDomain, p, q, grid: int = 256) -> float:
    """Length-metric distance inside a planar domain with obstacles.

    Grid-graph shortest path (8 neighbors) establishes connectivity and an
    upper bound; string pulling plus a corner visibility graph then
    recover the exact taut polyline length for rectangular obstacle sets.
    """
    p = np.asarray(p, dtype=float).reshape(2)
    q = np.asarray(q, dtype=float).reshape(2)
    if not (domain.free(p[None])[0] and domain.free(q[None])[0]):
        raise DomainExceeded("endpoints must lie in the open domain")
    c = domain.chart.center[0]
    r = float(domain.chart.radii[0])
    xs = np.linspace(c.real - r, c.real + r, grid)
    ys = np.linspace(c.imag - r, c.imag + r, grid)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)
    free = domain.free(nodes)

    def node_id(pt):
        i = int(np.clip(round((pt[0] - xs[0]) / (xs[1] - xs[0])), 0, grid - 1))
        j = int(np.clip(round((pt[1] - ys[0]) / (ys[1] - ys[0])), 0, grid - 1))
        return i * grid + j

    # snap endpoints to nearest free nodes
    for pt in (p, q):
        if not free[node_id(pt)]:
            d2 = np.sum((nodes - pt) ** 2, axis=1)
            d2[~free] = np.inf
            free[int(np.argmin(d2))] = True

    rows, cols, ws = [], [], []
    idx = np.arange(grid * grid).reshape(grid, grid)
    for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
        si = slice(max(0, -di), grid - max(0, di))
        sj = slice(max(0, -dj), grid - max(0, dj))
        ti = slice(max(0, di), grid + min(0, di) or None)
        tj = slice(max(0, dj), grid + min(0, dj) or None)
        a = idx[si, sj].ravel()
        b = idx[ti, tj].ravel()
        ok = free[a] & free[b]
        w = math.hypot(di * (xs[1] - xs[0]), dj * (ys[1] - ys[0]))
        rows.append(a[ok])
        cols.append(b[ok])
        ws.append(np.full(ok.sum(), w))
    Gm = csr_matrix((np.concatenate(ws), (np.concatenate(rows), np.concatenate(cols))),
                    shape=(grid * grid, grid * grid))
    src, dst = node_id(p), node_id(q)
    dist, pred = dijkstra(Gm, directed=False, indices=src, return_predecessors=True)
    if not np.isfinite(dist[dst]):
        raise Disconnected("no grid path between the endpoints")
    chain = [dst]
    while chain[-1] != src:
        chain.append(int(pred[chain[-1]]))
    pts = nodes[np.array(chain[::-1])]
    pts[0] = p if np.allclose(nodes[src], p, atol=2 * (xs[1] - xs[0])) else pts[0]
    pts = np.vstack([p, pts[1:-1], q])
    pts = _shortcut(domain, pts)
    pts = _corner_refine(domain, pts)
    pts = _shortcut(domain, pts)
    length = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    vis = _visibility_length(domain, p, q)
    if vis is not None:
        length = min(length, vis)
    return length
