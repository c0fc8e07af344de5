import numpy as np
import pytest

from kahlerlab.curvature import (TangentPair, bianchi_check, bisectional,
                                 bk_defect, curvature_tensor, hermitian_inner,
                                 min_bk_defect)
from kahlerlab.errors import SingularityTooClose
from kahlerlab.models import ConeSurface, ModelSpace


def _model_curvature_closed_form(c, G):
    return -(c / 2.0) * (np.einsum("ij,kl->ijkl", G, G)
                         + np.einsum("il,kj->ijkl", G, G))


@pytest.mark.parametrize("K", [1.0, -1.0])
def test_model_curvature_matches_closed_form(K):
    space = ModelSpace(K=K, n=2)
    metric = space.metric()
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= 0.4 * rng.uniform() / np.linalg.norm(z)
        data = curvature_tensor(metric, z)
        closed = _model_curvature_closed_form(space.c, data.G)
        rel = np.max(np.abs(data.R - closed)) / np.max(np.abs(closed))
        assert rel < 1e-5


def test_flat_curvature_vanishes():
    metric = ModelSpace(K=0.0, n=2).metric()
    data = curvature_tensor(metric, np.array([0.2 + 0.1j, -0.1j]))
    assert np.max(np.abs(data.R)) < 1e-9


def test_curvature_symmetries():
    metric = ModelSpace(K=1.0, n=2).metric()
    data = curvature_tensor(metric, np.array([0.15 + 0.05j, 0.1]))
    assert data.symmetry_residual() < 1e-5


def test_bisectional_examples():
    # holomorphic sectional curvature is 2K; an orthogonal pair sees K
    space = ModelSpace(K=1.0, n=2)
    data = curvature_tensor(space.metric(), np.zeros(2, dtype=complex))
    X = np.array([1.0, 0.0], dtype=complex)
    Y = np.array([0.0, 1.0], dtype=complex)
    same = TangentPair(X=X, Y=X, G=data.G)
    orth = TangentPair(X=X, Y=Y, G=data.G)
    assert bisectional(data, same) == pytest.approx(2.0, abs=1e-5)
    assert bisectional(data, orth) == pytest.approx(1.0, abs=1e-5)


def test_bk_defect_flat():
    data = curvature_tensor(ModelSpace(K=0.0, n=2).metric(),
                            np.zeros(2, dtype=complex))
    X = np.array([1.0, 0.0], dtype=complex)
    Y = np.array([0.0, 1.0], dtype=complex)
    pair = TangentPair(X=X, Y=Y, G=data.G)
    assert bk_defect(data, 0.0, pair) == pytest.approx(0.0, abs=1e-8)
    assert bk_defect(data, 1.0, pair) == pytest.approx(-1.0, abs=1e-7)


def test_tangent_pair_normalizes():
    G = 0.5 * np.eye(2).astype(complex)
    pair = TangentPair(X=np.array([3.0, 0.0]), Y=np.array([0.0, 2.0j]), G=G)
    assert hermitian_inner(G, pair.X, pair.X).real == pytest.approx(1.0)
    assert hermitian_inner(G, pair.Y, pair.Y).real == pytest.approx(1.0)


@pytest.mark.parametrize("K", [1.0, -1.0])
def test_min_bk_defect_sharp_on_models(K):
    data = curvature_tensor(ModelSpace(K=K, n=2).metric(),
                            np.array([0.1 + 0.05j, -0.02 + 0.1j]))
    val, pair = min_bk_defect(data, K)
    assert -1e-6 <= val <= 1e-6


def test_min_bk_defect_finds_flat_violation():
    data = curvature_tensor(ModelSpace(K=0.0, n=2).metric(),
                            np.zeros(2, dtype=complex))
    val, pair = min_bk_defect(data, 1.0)
    assert val == pytest.approx(-2.0, abs=1e-6)
    assert bk_defect(data, 1.0, pair) == pytest.approx(val, abs=1e-9)


def test_min_bk_defect_deterministic():
    data = curvature_tensor(ModelSpace(K=1.0, n=2).metric(),
                            np.array([0.1, 0.1j]))
    v1, _ = min_bk_defect(data, 1.0, seed=5)
    v2, _ = min_bk_defect(data, 1.0, seed=5)
    assert v1 == v2


@pytest.mark.parametrize("K", [0.0, 1.0, -1.0])
def test_bianchi_identity(K):
    data = curvature_tensor(ModelSpace(K=K, n=2).metric(),
                            np.array([0.1 + 0.02j, -0.05 + 0.08j]))
    rng = np.random.default_rng(1)
    scale = max(np.max(np.abs(data.R)), 1.0)
    for _ in range(4):
        v1 = rng.standard_normal(4)
        v2 = rng.standard_normal(4)
        assert bianchi_check(data, v1, v2) < 1e-4 * scale


def test_ricci_and_scalar_of_model():
    # Einstein property of the model; the stored tensor carries the sign
    # that makes bisectional = -R, so Ric = -(n + 1) K g here
    space = ModelSpace(K=1.0, n=2)
    data = curvature_tensor(space.metric(), np.array([0.1, 0.05j]))
    assert np.max(np.abs(data.ricci + 3.0 * data.G)) < 1e-5
    assert data.scalar == pytest.approx(-6.0, abs=1e-4)


@pytest.mark.parametrize("z", [0.0, 0.01, 0.03])
def test_curvature_refuses_a_stencil_across_the_cone_apex(z):
    # the nested stencil reaches sqrt(2) (0.015 + 0.008) ~ 0.0325 from z
    with pytest.raises(SingularityTooClose):
        curvature_tensor(ConeSurface(alpha=0.5).metric(), np.array([z + 0j]))


def test_curvature_away_from_singular_points_is_computed():
    curvature_tensor(ConeSurface(alpha=0.5).metric(), np.array([0.1 + 0j]))
    for K in (-1.0, 0.0, 1.0):
        for n in (1, 2):
            curvature_tensor(ModelSpace(K=K, n=n).metric(), np.zeros(n, dtype=complex))
