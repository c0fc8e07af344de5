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

from .errors import NonPositiveDefinite

EIGENVALUE_FLOOR = 1e-10


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


class HermitianMetricField:
    """Hermitian matrix-valued field on a chart, in closed form.

    ``gram_fn`` gives the matrices g_{i jbar} and ``dgram_fn`` their
    holomorphic derivatives.  ``gram`` returns ``gram_fn``'s matrices as
    they are, so they must be Hermitian by construction.  A field with a
    ``potential`` (g = d dbar phi: the models and cones) supports
    curvature; the torsion metrics have none.
    """

    def __init__(self, chart: ComplexChart, gram_fn: Callable[[np.ndarray], np.ndarray],
                 dgram_fn: Callable[[np.ndarray], np.ndarray],
                 potential: Optional[ScalarField] = None):
        self.chart = chart
        self.potential = potential
        self._gram_fn = gram_fn
        self._dgram_fn = dgram_fn

    @property
    def is_potential_form(self) -> bool:
        return self.potential is not None

    def gram(self, zs: np.ndarray, check: bool = True) -> np.ndarray:
        """(P, n, n) Hermitian positive matrices g_{i jbar}(z)."""
        zs = np.atleast_2d(np.asarray(zs, dtype=complex))
        G = np.asarray(self._gram_fn(zs))
        if check:
            _check_pd(G, zs)
        return G

    def dgram(self, zs: np.ndarray) -> np.ndarray:
        """(P, n, n, n) holomorphic derivatives, [p, k, i, j] = d_k g_{i jbar}."""
        return np.asarray(self._dgram_fn(np.atleast_2d(np.asarray(zs, dtype=complex))))

    def kahler_symmetry_residual(self, z: np.ndarray) -> float:
        """max_| d_k g_{i jbar} - d_i g_{k jbar} | at z; 0 exactly when
        the metric is Kahler there."""
        dG = self.dgram(z)
        return float(np.max(np.abs(dG - np.swapaxes(dG, 1, 2))))
