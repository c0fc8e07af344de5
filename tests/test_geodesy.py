import logging
import math

import numpy as np
import pytest

from kahlerlab import geodesy
from kahlerlab.disks import DiskEmbedding, comparison_defect, torsion_metric
from kahlerlab.errors import Disconnected, DomainExceeded
from kahlerlab.geodesy import (DiscretePath, DiskObstacle, PlanarDomain,
                               RectObstacle, chord_lower_bound,
                               domain_length_metric, geodesic_distance,
                               geodesic_distance_many, path_energy)
from kahlerlab.fields import ComplexChart, HermitianMetricField
from kahlerlab.models import ConeSurface, ModelSpace


def test_flat_geodesic_is_straight():
    metric = ModelSpace(K=0.0, n=2).metric()
    p = np.array([0.1 + 0.1j, 0.0])
    q = np.array([-0.2, 0.3j])
    sol = geodesic_distance(metric, p, q)
    assert sol.converged
    assert sol.distance == pytest.approx(np.linalg.norm(q - p), abs=1e-9)


@pytest.mark.parametrize("K", [1.0, -1.0])
def test_model_geodesics_match_closed_form(K):
    space = ModelSpace(K=K, n=2)
    metric = space.metric()
    rng = np.random.default_rng(4)
    p = np.array([0.1 + 0.05j, -0.05])
    for _ in range(3):
        q = 0.35 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        sol = geodesic_distance(metric, p, q)
        assert sol.distance == pytest.approx(space.distance(p, q), abs=1e-7)


def test_batched_solver_agrees_with_closed_form():
    space = ModelSpace(K=1.0, n=1)
    metric = space.metric()
    p = np.array([0.05 + 0.02j])
    qs = np.array([[0.3], [0.2j], [-0.25 + 0.1j], [0.4 + 0.4j]])
    d, err = geodesic_distance_many(metric, p, qs)
    exact = [space.distance(p, q) for q in qs]
    assert np.max(np.abs(d - exact)) < 1e-7
    assert np.all(err >= 0)


def test_distance_at_least_chord_lower_bound():
    metric = ModelSpace(K=-1.0, n=1).metric()
    p = np.array([0.1])
    q = np.array([0.5 + 0.3j])
    sol = geodesic_distance(metric, p, q)
    assert sol.distance >= chord_lower_bound(metric, p, q) - 1e-9


def test_path_energy_of_straight_flat_path():
    metric = ModelSpace(K=0.0, n=1).metric()
    t = np.linspace(0, 1, 17)[:, None]
    pts = t * np.array([[1.0 + 0j]])
    # energy of a unit-speed straight segment equals its squared length
    assert path_energy(metric, DiscretePath(points=pts)) == pytest.approx(1.0)


def test_multistart_determinism():
    metric = ModelSpace(K=1.0, n=1).metric()
    p, q = np.array([0.1]), np.array([-0.3 + 0.2j])
    s1 = geodesic_distance(metric, p, q, seed=7)
    s2 = geodesic_distance(metric, p, q, seed=7)
    assert s1.distance == s2.distance


def _torsion_metric():
    T = np.zeros((2, 2, 2))
    T[0, 0, 1], T[0, 1, 0] = -0.5, 0.5
    return torsion_metric(T, ComplexChart(n=2, radii=1.5))


@pytest.mark.parametrize("metric", [ModelSpace(K=1.0, n=2).metric(),
                                    ModelSpace(K=-1.0, n=2).metric(),
                                    _torsion_metric()], ids=["K=1", "K=-1", "torsion"])
def test_energy_gradient_matches_a_central_difference(metric):
    rng = np.random.default_rng(2)
    Q, N, n, h = 2, 6, 2, 1e-6
    paths = 0.2 * (rng.standard_normal((Q, N + 1, n)) + 1j * rng.standard_normal((Q, N + 1, n)))
    grad = geodesy._energy_gradient(metric, paths)
    # every interior real coordinate moved by +h and by -h, in one batch
    trials = np.repeat(paths[:, None, None], 2 * (N - 1) * 2 * n, axis=1).reshape(Q, N - 1, 2 * n, 2, N + 1, n)
    for m in range(N - 1):
        for a in range(2 * n):
            e = h if a < n else 1j * h
            trials[:, m, a, 0, m + 1, a % n] += e
            trials[:, m, a, 1, m + 1, a % n] -= e
    E = geodesy._segment_energies(metric, trials.reshape(-1, N + 1, n)).reshape(Q, N - 1, 2 * n, 2)
    fd = (E[..., 0] - E[..., 1]) / (2 * h)
    assert np.max(np.abs(grad - fd)) < 1e-7 * np.max(np.abs(grad))


@pytest.mark.parametrize("gram", [0.5 * np.eye(2), 50.0 * np.eye(2),
                                  np.array([[1.0, 0.4 + 0.3j], [0.4 - 0.3j, 0.5]])],
                         ids=["lam=1", "lam=100", "anisotropic"])
def test_constant_metric_takes_one_newton_step(monkeypatch, gram):
    n, N = 2, 24
    metric = HermitianMetricField(ComplexChart(n=n, radii=2.0),
                                  gram_fn=lambda zs: np.broadcast_to(gram, (len(zs), n, n)))
    p, q = np.array([0.1 + 0.2j, -0.3]), np.array([-0.4j, 0.5 + 0.1j])
    t = np.linspace(0.0, 1.0, N + 1)[:, None]
    paths = (p + t * (q - p) + 0.1 * np.sin(3 * np.pi * t) * np.array([1.0, 1j]))[None]
    calls = []
    gradient = geodesy._energy_gradient

    def counting(*args):
        calls.append(1)
        return gradient(*args)

    monkeypatch.setattr(geodesy, "_energy_gradient", counting)
    E, gnorm = geodesy._minimize(metric, paths, 300, 1e-9)
    # the preconditioner is the exact Hessian here: one step, one check
    assert gnorm[0] <= 1e-9 and len(calls) <= 2
    assert E[0] == pytest.approx(2.0 * (q - p) @ gram @ np.conj(q - p), rel=1e-12)


def _dense_hessian(Gavg):
    """Hessian of the frozen-gram energy of one path wrt its interior real
    coordinates, by polarization of the quadratic form."""
    N, n = Gavg.shape[0], Gavg.shape[1]
    dim = (N - 1) * 2 * n

    def energy(x):
        x = x.reshape(N - 1, 2 * n)
        z = np.zeros((N + 1, n), dtype=complex)
        z[1:-1] = x[:, :n] + 1j * x[:, n:]
        dz = np.diff(z, axis=0)
        return 2.0 * N * np.einsum("kij,ki,kj->", Gavg, dz, np.conj(dz)).real

    e = np.eye(dim)
    f = np.array([energy(v) for v in e])
    return np.array([[energy(e[i] + e[j]) - f[i] - f[j] for j in range(dim)]
                     for i in range(dim)])


def test_precondition_is_a_dense_solve_per_path():
    rng = np.random.default_rng(5)
    Q, N, n = 2, 7, 2
    grad = rng.standard_normal((Q, N - 1, 2 * n))
    # isotropic grams w_k I: the weighted path Laplacian 4N L_w, per path
    w = np.stack([rng.uniform(0.5, 2.0, N), rng.uniform(5.0, 50.0, N)])
    u = geodesy._precondition(grad, w[:, :, None, None] * np.eye(n))
    u = np.concatenate([u.real, u.imag], axis=2)
    for k in range(Q):
        L = np.diag(w[k, :-1] + w[k, 1:]) - np.diag(w[k, 1:-1], 1) - np.diag(w[k, 1:-1], -1)
        assert np.allclose(u[k], np.linalg.solve(4.0 * N * L, grad[k]), rtol=1e-12, atol=0)
    # general Hermitian grams, different on each path
    A = rng.standard_normal((Q, N, n, n)) + 1j * rng.standard_normal((Q, N, n, n))
    A[1] *= 10.0
    Gavg = A @ np.conj(np.swapaxes(A, 2, 3)) + 0.1 * np.eye(n)
    u = geodesy._precondition(grad, Gavg)
    u = np.concatenate([u.real, u.imag], axis=2)
    for k in range(Q):
        exact = np.linalg.solve(_dense_hessian(Gavg[k]), grad[k].reshape(-1))
        assert np.allclose(u[k].reshape(-1), exact, rtol=1e-9, atol=0)


def test_cone_distance_within_its_error_estimate():
    sol = geodesic_distance(ConeSurface(0.5).metric(), 0.3, 0.05 + 0.6j)
    assert abs(sol.distance - 1.0518206263593044) <= sol.error_estimate


def _acceptance_06_defect(monkeypatch, gtol=1e-8):
    calls = []
    price = geodesy._price                     # every priced trial goes through it

    def counting(metric, paths):
        calls.append(len(paths))
        return price(metric, paths)

    monkeypatch.setattr(geodesy, "_price", counting)
    metric = _torsion_metric()
    a, b = np.array([1.0, 1.0], dtype=complex), np.array([1.0, 0.0], dtype=complex)
    disk = DiskEmbedding.affine(5e-2 * b, 5e-3 * a, metric.chart)
    rep = comparison_defect(metric, disk, np.zeros(2, dtype=complex), 0.0, distance="numeric",
                            solver_opts=dict(N=24, gtol=gtol, max_iters=120))
    return rep, calls


def test_stall_rule_prices_fewer_trials_and_keeps_the_defect(monkeypatch):
    rep, calls = _acceptance_06_defect(monkeypatch)
    # with every path priced on every backtrack and a path dropped after
    # eight stalled iterations, this disk took 466 energy calls and gave
    # the defect below; flat-Laplacian steps that start at 0.5 and grow
    # by 1.6 took 116
    assert 0 < len(calls) <= 58
    assert abs(rep.defect - -1.2241075950480788e-06) <= rep.error_estimate


def test_stalled_paths_are_reported(monkeypatch, caplog):
    # gtol 1e-12 is below what the energy test resolves on this disk
    with caplog.at_level(logging.INFO, logger="kahlerlab"):
        _acceptance_06_defect(monkeypatch, gtol=1e-12)
    assert any("stopped above gtol" in r.getMessage() for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="kahlerlab"):
        geodesic_distance_many(ModelSpace(K=0.0, n=1).metric(), np.zeros(1),
                               np.array([[0.3], [0.2j]]))
    assert caplog.records == []


def test_converged_reads_the_solver_mask():
    metric = _torsion_metric()
    p, q = np.zeros(2, dtype=complex), np.array([0.05, 0.004 + 0.004j])
    # gtol 1e-13 is below what the energy test resolves on this path
    loose = geodesic_distance(metric, p, q, N=24, gtol=1e-13, max_iters=120)
    assert not loose.converged and loose.path.grad_norm > 1e-13
    tight = geodesic_distance(metric, p, q, N=24, gtol=1e-6, max_iters=120)
    assert tight.converged and tight.path.grad_norm <= 1e-6


def _square_domain(radius=2.0, obstacles=()):
    return PlanarDomain(chart=ComplexChart(n=1, radii=radius),
                        obstacles=tuple(obstacles))


def test_domain_length_metric_free_space():
    dom = _square_domain()
    d = domain_length_metric(dom, [-1.0, 0.0], [1.0, 0.5])
    assert d == pytest.approx(math.hypot(2.0, 0.5), abs=1e-9)


def test_domain_length_metric_slab_detour():
    slab = RectObstacle(center=np.array([0.0, 0.0]),
                        half_widths=np.array([0.15, 1.0]))
    dom = _square_domain(obstacles=[slab])
    d = domain_length_metric(dom, [-1.0, 0.0], [1.0, 0.0])
    # taut path over a slab corner, exactly two mirrored segments
    exact = 2.0 * math.hypot(0.85, 1.0) + 0.3
    assert d == pytest.approx(exact, abs=1e-9)
    assert d > 2.0 * 1.1


def test_domain_length_metric_l_shape():
    a = RectObstacle(center=np.array([0.0, -0.5]), half_widths=np.array([0.1, 1.0]))
    b = RectObstacle(center=np.array([0.5, 0.4]), half_widths=np.array([0.6, 0.1]))
    dom = _square_domain(obstacles=[a, b])
    d = domain_length_metric(dom, [-0.5, -0.5], [1.0, -0.2])
    straight = math.hypot(1.5, 0.3)
    assert d > straight


def test_domain_disconnected_raises():
    wall = RectObstacle(center=np.array([0.0, 0.0]),
                        half_widths=np.array([0.1, 2.5]))
    dom = _square_domain(obstacles=[wall])
    with pytest.raises(Disconnected):
        domain_length_metric(dom, [-1.0, 0.0], [1.0, 0.0])


def test_domain_disk_obstacle_upper_bound():
    disk = DiskObstacle(center=np.array([0.0, 0.0]), radius=0.5)
    dom = _square_domain(obstacles=[disk])
    d = domain_length_metric(dom, [-1.0, 0.0], [1.0, 0.0])
    # exact: two tangents plus the wrapped arc
    exact = 2.0 * math.sqrt(1.0 - 0.25) + 0.5 * (math.pi - 2.0 * math.acos(0.5))
    assert d >= exact - 1e-9
    assert d <= exact * 1.1


def test_domain_endpoints_must_be_free():
    disk = DiskObstacle(center=np.array([0.0, 0.0]), radius=0.5)
    dom = _square_domain(obstacles=[disk])
    with pytest.raises(DomainExceeded, match="open domain"):
        domain_length_metric(dom, [0.0, 0.0], [1.0, 0.0])
