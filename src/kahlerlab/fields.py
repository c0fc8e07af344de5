"""Complex charts, scalar potentials, and Hermitian metric fields.

Normalization used throughout the lab: at a point in normal form the
Kahler form is (sqrt(-1)/2) sum dz^i wedge dzbar^i, so the flat potential
is |z|^2 / 2 and the flat metric matrix is I/2.  Real lengths come from
ds^2 = 2 g_{i jbar} dz^i dzbar^j, which makes chart-coordinate Euclidean
distance the true flat distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import fd
from .errors import NonPositiveDefinite, SingularityTooClose

EIGENVALUE_FLOOR = 1e-10
H_MIN, H_MAX = 1e-6, 1e-2


def z_to_real(zs: np.ndarray) -> np.ndarray:
    """(P, n) complex -> (P, 2n) real, layout (x_1..x_n, y_1..y_n)."""
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    return np.concatenate([zs.real, zs.imag], axis=1)


def real_to_z(xs: np.ndarray) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = xs.shape[1] // 2
    return xs[:, :n] + 1j * xs[:, n:]


@dataclass(frozen=True)
class ComplexChart:
    """Axis-aligned box or ball in C^n, both convex.

    The box bounds Re and Im of each coordinate by its radius, the ball
    bounds |z - center| by the first radius; radii are in chart units.
    """

    n: int
    center: np.ndarray = None
    radii: np.ndarray = None
    kind: str = "box"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("complex dimension must be >= 1")
        c = np.zeros(self.n, dtype=complex) if self.center is None else np.asarray(self.center, dtype=complex)
        r = np.ones(self.n) if self.radii is None else np.broadcast_to(np.asarray(self.radii, dtype=float), (self.n,)).copy()
        if np.any(r <= 0):
            raise ValueError("all radii must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radii", r)
        if self.kind not in ("box", "ball"):
            raise ValueError(f"unknown chart kind {self.kind!r}")

    def contains(self, zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=complex))
        d = zs - self.center
        if self.kind == "box":
            ok = np.all(np.abs(d.real) <= self.radii, axis=1)
            ok &= np.all(np.abs(d.imag) <= self.radii, axis=1)
            return ok
        return np.linalg.norm(d, axis=1) <= self.radii[0]


@dataclass(frozen=True)
class ScalarField:
    """A deterministic real-valued field on a chart.

    ``fn`` is batched: (P, n) complex points -> (P,) reals.  The smoothness
    radius is the minimum distance to any singular locus at which finite
    differencing of the field is valid.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    n: int
    smoothness_radius: float = 0.0
    name: str = ""
    singular_points: Sequence[np.ndarray] = field(default_factory=tuple)

    def __call__(self, zs: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(np.asarray(zs, dtype=complex))), dtype=float)

    def singular_distance(self, zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=complex))
        if not self.singular_points:
            return np.full(zs.shape[0], np.inf)
        d = [np.linalg.norm(zs - np.asarray(p, dtype=complex), axis=1) for p in self.singular_points]
        return np.min(d, axis=0)


def flat_potential(n: int) -> ScalarField:
    return ScalarField(fn=lambda zs: 0.5 * np.sum(np.abs(zs) ** 2, axis=1), n=n,
                       name="flat |z|^2/2")


def hermitize(G: np.ndarray) -> np.ndarray:
    """0.5 (G + G^H) over the last two axes, written into G and returned.

    Entry for entry the sums of the out-of-place form, so the two agree
    bit for bit; the diagonal keeps its real part.
    """
    n = G.shape[-1]
    for i in range(n):
        G[..., i, i].imag = 0.0
        for j in range(i + 1, n):
            gij, gji = G[..., i, j], G[..., j, i]
            G[..., i, j], G[..., j, i] = 0.5 * (gij + np.conj(gji)), 0.5 * (gji + np.conj(gij))
    return G


def _check_pd(G: np.ndarray, zs: np.ndarray) -> None:
    ev = np.linalg.eigvalsh(G)
    bad = ev[:, 0] <= EIGENVALUE_FLOOR
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NonPositiveDefinite(
            f"metric eigenvalue {ev[i, 0]:.3e} at z={np.asarray(zs)[i]}")


def metric_from_potential(phi: ScalarField, z: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """g_{i jbar}(z) = d_i dbar_j phi by Richardson-extrapolated central FD.

    Accepts a single point (n,) or a batch (P, n); returns the matching
    (n, n) or (P, n, n) Hermitian matrices.
    """
    if not (H_MIN <= h <= H_MAX):
        raise ValueError(f"step h={h} outside [{H_MIN}, {H_MAX}]")
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    zs = np.atleast_2d(z)
    guard = np.minimum(phi.singular_distance(zs), np.inf)
    if np.any(guard < phi.smoothness_radius):
        i = int(np.argmax(guard < phi.smoothness_radius))
        raise SingularityTooClose(
            f"z={zs[i]} at distance {guard[i]:.3e} < smoothness radius "
            f"{phi.smoothness_radius:.3e} of field {phi.name!r}")
    G = fd.wirtinger_dd(lambda xs: phi(real_to_z(xs)), z_to_real(zs), h, phi.n)
    G = hermitize(G)
    _check_pd(G, zs)
    return G[0] if single else G


class HermitianMetricField:
    """Hermitian matrix-valued field on a chart.

    Either potential form (g = d dbar phi, supports curvature) or direct
    form (an explicit Hermitian evaluator, e.g. the torsion metrics).  A
    potential-form field may carry an ``exact_gram`` fast path used for
    evaluation-heavy work (geodesic solves); tests pin it against the
    finite-difference route.  Exact grams must be Hermitian by
    construction: unlike direct-form ones they are not symmetrized.
    Either form may carry ``exact_dgram``, the closed-form holomorphic
    derivative returned by ``dgram``; without it ``dgram`` differentiates
    ``gram`` by finite differences.
    """

    def __init__(self, chart: ComplexChart, potential: Optional[ScalarField] = None,
                 gram_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 exact_gram: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 exact_dgram: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 h: float = 1e-3, name: str = ""):
        if (potential is None) == (gram_fn is None):
            raise ValueError("provide exactly one of potential or gram_fn")
        if not (H_MIN <= h <= H_MAX):
            raise ValueError(f"step h={h} outside [{H_MIN}, {H_MAX}]")
        self.chart = chart
        self.potential = potential
        self._gram_fn = gram_fn
        self._exact = exact_gram
        self._exact_d = exact_dgram
        self.h = h
        self.name = name or (potential.name if potential else "direct metric")

    @property
    def is_potential_form(self) -> bool:
        return self.potential is not None

    def gram(self, zs: np.ndarray, check: bool = True) -> np.ndarray:
        """(P, n, n) Hermitian positive matrices g_{i jbar}(z)."""
        zs = np.atleast_2d(np.asarray(zs, dtype=complex))
        if self.is_potential_form and self._exact is None:
            return metric_from_potential(self.potential, zs, self.h)
        if self._exact is not None:          # Hermitian by construction
            G = np.asarray(self._exact(zs))
        else:
            G = hermitize(np.array(self._gram_fn(zs), dtype=complex))
        if check:
            _check_pd(G, zs)
        return G

    def gram_fd(self, zs: np.ndarray) -> np.ndarray:
        """Always take the finite-difference route (potential form only)."""
        if not self.is_potential_form:
            raise ValueError("no potential to differentiate")
        return metric_from_potential(self.potential, np.atleast_2d(np.asarray(zs, dtype=complex)), self.h)

    def dgram(self, zs: np.ndarray) -> np.ndarray:
        """(P, n, n, n) holomorphic derivatives, [p, k, i, j] = d_k g_{i jbar}.

        Closed form where the field carries one, else the fourth-order
        central difference of ``gram`` with the field's step."""
        zs = np.atleast_2d(np.asarray(zs, dtype=complex))
        if self._exact_d is not None:
            return np.asarray(self._exact_d(zs))
        return fd.wirtinger_d(lambda xs: self.gram(real_to_z(xs), check=False),
                              z_to_real(zs), self.h, self.chart.n)

    def kahler_symmetry_residual(self, z: np.ndarray) -> float:
        """max_| d_k g_{i jbar} - d_i g_{k jbar} | at z; 0 exactly when
        the metric is Kahler there."""
        dG = self.dgram(z)
        return float(np.max(np.abs(dG - np.swapaxes(dG, 1, 2))))
