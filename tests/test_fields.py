import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fd_reference import (dgram_from_gram, fd_metric, gram_from_potential, real_to_z,
                          z_to_real)
from kahlerlab import cli
from kahlerlab.disks import torsion_metric
from kahlerlab.errors import NonPositiveDefinite
from kahlerlab.fields import ComplexChart, HermitianMetricField, ScalarField, flat_potential
from kahlerlab.models import ConeSurface, ModelSpace


def test_real_complex_roundtrip():
    rng = np.random.default_rng(0)
    zs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    assert np.allclose(real_to_z(z_to_real(zs)), zs)


def test_chart_contains_box_and_ball():
    box = ComplexChart(n=2, radii=1.0)
    assert box.contains(np.array([[0.5 + 0.5j, -0.9 + 0.1j]]))[0]
    assert not box.contains(np.array([[1.5, 0.0]]))[0]
    ball = ComplexChart(n=1, radii=1.0, kind="ball")
    assert ball.contains(np.array([[0.9j]]))[0]
    assert not ball.contains(np.array([[0.8 + 0.8j]]))[0]


def test_flat_potential_gram():
    phi = flat_potential(2)
    zs = np.array([[0.2 + 0.1j, -0.3j], [0.0, 0.0]])
    G = gram_from_potential(phi, zs)
    assert np.allclose(G, 0.5 * np.eye(2)[None], atol=1e-9)


def test_gram_check_rejects_indefinite():
    phi = ScalarField(fn=lambda zs: -np.sum(np.abs(zs) ** 2, axis=1), n=1)
    with pytest.raises(NonPositiveDefinite):
        fd_metric(ComplexChart(n=1), phi).gram(np.array([[0.2 + 0j]]), check=True)


def test_hermitian_metric_field_exact_matches_fd():
    chart = ComplexChart(n=1, radii=1.0)

    def gram(zs):
        return (0.5 * (1.0 + np.abs(zs[:, 0]) ** 2))[:, None, None].astype(complex)

    phi = ScalarField(fn=lambda zs: 0.5 * np.abs(zs[:, 0]) ** 2
                      + 0.125 * np.abs(zs[:, 0]) ** 4, n=1)
    m = HermitianMetricField(chart, gram, lambda zs: 0.5 * np.conj(zs)[:, :, None, None],
                             potential=phi)
    zs = np.array([[0.3 + 0.2j], [-0.1 + 0.4j]])
    assert np.max(np.abs(m.gram(zs) - gram_from_potential(m.potential, zs))) < 1e-7


def test_kahler_symmetry_residual_small_for_potential_metric():
    chart = ComplexChart(n=2, radii=1.0)
    phi = flat_potential(2)
    m = fd_metric(chart, phi)
    assert m.kahler_symmetry_residual(np.array([0.1 + 0.1j, 0.2])) < 1e-8


def _torsion():
    T = np.zeros((2, 2, 2), dtype=complex)
    T[0, 0, 1], T[0, 1, 0] = -0.5 + 0.2j, 0.5 - 0.2j
    T[1, 0, 1], T[1, 1, 0] = 0.3, -0.3
    return T, torsion_metric(T, ComplexChart(n=2, radii=1.5))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("K", [1.0, -1.0, 2.0, 0.0])
def test_model_dgram_matches_the_fd_route(K, n):
    m = ModelSpace(K=K, n=n).metric()
    rng = np.random.default_rng(n)
    zs = 0.3 * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))
    dG = m.dgram(zs)
    assert dG.shape == (6, n, n, n)
    assert np.max(np.abs(dG - dgram_from_gram(m.gram, zs))) < 1e-8


@pytest.mark.parametrize("alpha", [1 / 3, 0.5, 2 / 3, -0.5])
def test_cone_dgram_matches_the_fd_route(alpha):
    m = ConeSurface(alpha).metric()
    zs = np.array([[0.1], [-0.1j], [0.3 + 0.4j], [-0.7j], [1.0]])
    dG = m.dgram(zs)
    # at |z| = 0.1 the fourth-order FD of |z|^(-2 alpha) itself errs by up to
    # 3e-7 (alpha = 2/3), so the comparison is relative to the derivative
    err = np.abs(dG - dgram_from_gram(m.gram, zs))[:, 0, 0, 0]
    assert np.all(err <= 1e-8 * np.maximum(np.abs(dG[:, 0, 0, 0]), 1.0))


def test_torsion_dgram_matches_the_fd_route():
    T, m = _torsion()
    rng = np.random.default_rng(3)
    zs = 0.3 * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    assert np.max(np.abs(m.dgram(zs) - dgram_from_gram(m.gram, zs))) < 1e-8


# one spec per space kind of the runner: a kind added without one fails here
_SPECS = {"model": {"kind": "model", "K": 1.0, "n": 2},
          "cone": {"kind": "cone", "alpha": 0.5},
          "orbifold": {"kind": "orbifold", "k": 3},
          "quotient": {"kind": "quotient"},
          "torsion": {"kind": "torsion", "T": [[[0, 0.5], [-0.5, 0]], [[0, 0.3], [-0.3, 0]]]},
          "domain": {"kind": "domain", "radius": 2.0}}


@pytest.mark.parametrize("kind", [k for k in cli.SPACES
                                  if hasattr(cli.build_space(_SPECS[k]), "metric")])
def test_every_space_metric_matches_the_fd_reference(kind):
    m = cli.build_space(_SPECS[kind]).metric()
    n = m.chart.n
    rng = np.random.default_rng(7)
    zs = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    zs *= rng.uniform(0.2, 0.6, (6, 1)) / np.linalg.norm(zs, axis=1, keepdims=True)
    # relative to the entry where it exceeds 1, as a cone's near its apex
    if m.is_potential_form:
        G = m.gram(zs)
        err = np.abs(G - gram_from_potential(m.potential, zs))
        assert np.all(err <= 1e-7 * np.maximum(np.abs(G), 1.0))
    dG = m.dgram(zs)
    err = np.abs(dG - dgram_from_gram(m.gram, zs))
    assert np.all(err <= 1e-8 * np.maximum(np.abs(dG), 1.0))


def test_kahler_symmetry_residual_reads_the_closed_form():
    rng = np.random.default_rng(5)
    for K, n in [(1.0, 2), (-1.0, 3), (2.0, 2)]:
        z = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert ModelSpace(K=K, n=n).metric().kahler_symmetry_residual(z) <= 1e-12
    # d_k g_{a bbar} - d_a g_{k bbar} = (T[b, k, a] - T[b, a, k]) / 2 = T[b, k, a]
    T, m = _torsion()
    assert m.kahler_symmetry_residual(np.array([0.1 + 0.2j, -0.3])) == np.max(np.abs(T))


@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
@settings(max_examples=25, deadline=None)
def test_flat_potential_phase_invariance(x, y):
    phi = flat_potential(1)
    z = complex(x, y)
    vals = phi(np.array([[z], [z * np.exp(0.7j)]]))
    assert abs(vals[0] - vals[1]) < 1e-12
