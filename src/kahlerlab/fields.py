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
GRAM_STEP = 1e-3        # FD step of grams from a potential and of dgrams from grams


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

    Both are centred at the origin.  The box bounds Re and Im of each
    coordinate by its radius, the ball bounds |z| by the first radius;
    radii are in chart units.
    """

    n: int
    radii: np.ndarray = None
    kind: str = "box"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("complex dimension must be >= 1")
        r = np.ones(self.n) if self.radii is None else np.broadcast_to(np.asarray(self.radii, dtype=float), (self.n,)).copy()
        if np.any(r <= 0):
            raise ValueError("all radii must be positive")
        object.__setattr__(self, "radii", r)
        if self.kind not in ("box", "ball"):
            raise ValueError(f"unknown chart kind {self.kind!r}")

    def contains(self, zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=complex))
        if self.kind == "box":
            ok = np.all(np.abs(zs.real) <= self.radii, axis=1)
            ok &= np.all(np.abs(zs.imag) <= self.radii, axis=1)
            return ok
        return np.linalg.norm(zs, axis=1) <= self.radii[0]


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


def _check_pd(G: np.ndarray, zs: np.ndarray) -> None:
    ev = np.linalg.eigvalsh(G)
    bad = ev[:, 0] <= EIGENVALUE_FLOOR
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NonPositiveDefinite(
            f"metric eigenvalue {ev[i, 0]:.3e} at z={np.asarray(zs)[i]}")


def metric_from_potential(phi: ScalarField, z: np.ndarray) -> np.ndarray:
    """g_{i jbar}(z) = d_i dbar_j phi by Richardson-extrapolated central FD
    at step ``GRAM_STEP``.

    Accepts a single point (n,) or a batch (P, n); returns the matching
    (n, n) or (P, n, n) Hermitian matrices.
    """
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    zs = np.atleast_2d(z)
    guard = phi.singular_distance(zs)
    if np.any(guard < phi.smoothness_radius):
        i = int(np.argmax(guard < phi.smoothness_radius))
        raise SingularityTooClose(
            f"z={zs[i]} at distance {guard[i]:.3e} < smoothness radius "
            f"{phi.smoothness_radius:.3e} of field {phi.name!r}")
    G = fd.wirtinger_dd(lambda xs: phi(real_to_z(xs)), z_to_real(zs), GRAM_STEP, phi.n)
    G = 0.5 * (G + np.conj(np.swapaxes(G, -1, -2)))
    _check_pd(G, zs)
    return G[0] if single else G


class HermitianMetricField:
    """Hermitian matrix-valued field on a chart.

    A field has a potential (g = d dbar phi, supports curvature), a
    closed-form ``gram_fn``, or both: the models and cones carry both, the
    torsion metrics only ``gram_fn``.  ``gram`` returns ``gram_fn``'s
    matrices as they are, so they must be Hermitian by construction;
    without it ``gram`` takes the finite-difference route of the
    potential, which tests pin ``gram_fn`` against.  Either form may
    carry ``exact_dgram``, the closed-form holomorphic derivative returned
    by ``dgram``; without it ``dgram`` differentiates ``gram`` by finite
    differences.
    """

    def __init__(self, chart: ComplexChart, potential: Optional[ScalarField] = None,
                 gram_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 exact_dgram: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 name: str = ""):
        if potential is None and gram_fn is None:
            raise ValueError("provide a potential or a gram_fn")
        self.chart = chart
        self.potential = potential
        self._gram_fn = gram_fn
        self._exact_d = exact_dgram
        self.name = name or (potential.name if potential else "direct metric")

    @property
    def is_potential_form(self) -> bool:
        return self.potential is not None

    @property
    def has_exact_dgram(self) -> bool:
        """True when ``dgram`` is in closed form, not a finite difference."""
        return self._exact_d is not None

    def gram(self, zs: np.ndarray, check: bool = True) -> np.ndarray:
        """(P, n, n) Hermitian positive matrices g_{i jbar}(z)."""
        zs = np.atleast_2d(np.asarray(zs, dtype=complex))
        if self._gram_fn is None:
            return metric_from_potential(self.potential, zs)
        G = np.asarray(self._gram_fn(zs))
        if check:
            _check_pd(G, zs)
        return G

    def dgram(self, zs: np.ndarray) -> np.ndarray:
        """(P, n, n, n) holomorphic derivatives, [p, k, i, j] = d_k g_{i jbar}.

        Closed form where the field carries one, else the fourth-order
        central difference of ``gram`` at step ``GRAM_STEP``."""
        zs = np.atleast_2d(np.asarray(zs, dtype=complex))
        if self._exact_d is not None:
            return np.asarray(self._exact_d(zs))
        return fd.wirtinger_d(lambda xs: self.gram(real_to_z(xs), check=False),
                              z_to_real(zs), GRAM_STEP, self.chart.n)

    def kahler_symmetry_residual(self, z: np.ndarray) -> float:
        """max_| d_k g_{i jbar} - d_i g_{k jbar} | at z; 0 exactly when
        the metric is Kahler there."""
        dG = self.dgram(z)
        return float(np.max(np.abs(dG - np.swapaxes(dG, 1, 2))))
