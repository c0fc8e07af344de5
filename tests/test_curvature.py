import numpy as np
import pytest

from kahlerlab.curvature import (TangentPair, bianchi_check, bisectional,
                                 bk_defect, curvature_tensor, hermitian_inner,
                                 min_bk_defect)
from kahlerlab.errors import SingularityTooClose
from kahlerlab.fields import ComplexChart, HermitianMetricField, ScalarField
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("K", [1.0, -1.0, 2.0, 0.0])
@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_min_bk_defect_on_models_off_the_equality_level(K, n, shift):
    # defect = (K - K')(1 + |<X, Y>|^2): orthogonal pairs win when K' < K,
    # parallel ones when K' > K
    Kp = K + shift
    data = curvature_tensor(ModelSpace(K=K, n=n).metric(),
                            np.full(n, 0.1 + 0.05j) / n)
    val, pair = min_bk_defect(data, Kp)
    expected = K - Kp if Kp < K else 2.0 * (K - Kp)
    assert val == pytest.approx(expected, abs=1e-6)
    assert bk_defect(data, Kp, pair) == val


def _normalize(G, V):
    return V / np.sqrt(np.einsum("ij,pi,pj->p", G, V, np.conj(V)).real)[:, None]


def _defect(data, K, X, Y):
    b = -np.einsum("ijkl,pi,pj,pk,pl->p", data.R, X, np.conj(X), Y, np.conj(Y)).real
    xy = np.einsum("ij,pi,pj->p", data.G, X, np.conj(Y))
    return b - K * (1.0 + np.abs(xy) ** 2)


def _fd_descent_min(data, K, samples=1500, seed=0):
    """Reference: the seeded sampled start refined by finite-difference
    projected gradient descent with halving steps."""
    n = data.n
    rng = np.random.default_rng(seed)
    X = _normalize(data.G, rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n)))
    Y = _normalize(data.G, rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n)))
    best = int(np.argmin(_defect(data, K, X, Y)))

    def value(u):
        x = _normalize(data.G, (u[:n] + 1j * u[n:2 * n])[None])
        y = _normalize(data.G, (u[2 * n:3 * n] + 1j * u[3 * n:])[None])
        return _defect(data, K, x, y)[0]

    u = np.concatenate([X[best].real, X[best].imag, Y[best].real, Y[best].imag])
    f, step, fails = value(u), 0.1, 0
    for _ in range(400):
        grad = np.array([(value(u + e) - value(u - e)) / 2e-6
                         for e in 1e-6 * np.eye(u.size)])
        gn = np.linalg.norm(grad)
        if gn < 1e-10:
            break
        s = step
        for _ in range(30):
            u_try = u - s * grad / gn
            f_try = value(u_try)
            if f_try < f - 1e-14:
                u, f, step, fails = u_try, f_try, min(2.0 * s, 1.0), 0
                break
            s *= 0.5
        else:
            fails += 1
            if fails >= 3 or gn < 1e-8:
                break
    return f


def _quartic_metric(n, seed):
    """|z|^2/2 plus seeded quartic terms: a Kahler potential with
    non-constant curvature near the origin."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def fn(zs):
        q = np.einsum("ij,pi,pj->p", a, zs, np.conj(zs)).real
        return (0.5 * np.sum(np.abs(zs) ** 2, axis=1) + 0.1 * q ** 2
                + 0.05 * np.abs(zs @ b) ** 4
                + 0.02 * (zs[:, 0] ** 2 * np.conj(zs[:, -1]) ** 2).real)

    phi = ScalarField(fn=fn, n=n, name=f"quartic-{seed}")
    return HermitianMetricField(ComplexChart(n), potential=phi)


@pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_min_bk_defect_on_non_constant_potentials(seed, K):
    n = 2 + seed % 2
    metric = _quartic_metric(n, seed)
    rng = np.random.default_rng(100 + seed)
    for z in (np.zeros(n, dtype=complex), 0.1 * np.exp(1j * np.arange(n))):
        data = curvature_tensor(metric, z)
        val, pair = min_bk_defect(data, K)
        assert val == pytest.approx(_fd_descent_min(data, K), abs=1e-8)
        X = _normalize(data.G, rng.standard_normal((200_000, n)) + 1j * rng.standard_normal((200_000, n)))
        Y = _normalize(data.G, rng.standard_normal((200_000, n)) + 1j * rng.standard_normal((200_000, n)))
        assert val <= _defect(data, K, X, Y).min()


def test_min_bk_defect_on_a_cone():
    # the finite-difference descent read -1.567164913305191e-06 here
    data = curvature_tensor(ConeSurface(alpha=0.5).metric(), np.array([0.3 + 0j]))
    val, _ = min_bk_defect(data, 0.0)
    assert val == pytest.approx(-1.567164913305191e-06, abs=1e-10)


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
