import itertools
import logging
import math
import re

import numpy as np
import pytest
from scipy.sparse import csgraph

import geodesy_reference
from kahlerlab import geodesy
from kahlerlab.disks import (DiskEmbedding, DiskSampler, QuadratureGrid, comparison_defect,
                             disk_images, sample_disk_stack, torsion_metric)
from kahlerlab.errors import Disconnected, DomainExceeded, NonPositiveDefinite
from kahlerlab.geodesy import (DiskObstacle, PlanarDomain, RectObstacle,
                               geodesic_distance_many)
from kahlerlab.fields import ComplexChart, HermitianMetricField
from kahlerlab.models import ConeSurface, ModelSpace


def test_flat_geodesic_is_straight(caplog):
    metric = ModelSpace(K=0.0, n=2).metric()
    p = np.array([0.1 + 0.1j, 0.0])
    q = np.array([-0.2, 0.3j])
    with caplog.at_level(logging.INFO, logger="kahlerlab"):
        d, _ = geodesic_distance_many(metric, p, q)
    assert caplog.records == []                 # the path converged
    assert d[0] == pytest.approx(np.linalg.norm(q - p), abs=1e-9)


@pytest.mark.parametrize("K", [1.0, -1.0])
def test_model_geodesics_match_closed_form(K):
    space = ModelSpace(K=K, n=2)
    metric = space.metric()
    rng = np.random.default_rng(4)
    p = np.array([0.1 + 0.05j, -0.05])
    for _ in range(3):
        q = 0.35 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        d, _ = geodesic_distance_many(metric, p, q)
        assert d[0] == pytest.approx(space.distance_field(p)(q)[0], abs=1e-7)


def test_batched_solver_agrees_with_closed_form():
    space = ModelSpace(K=1.0, n=1)
    metric = space.metric()
    p = np.array([0.05 + 0.02j])
    qs = np.array([[0.3], [0.2j], [-0.25 + 0.1j], [0.4 + 0.4j]])
    d, err = geodesic_distance_many(metric, p, qs)
    exact = space.distance_field(p)(qs)
    assert np.max(np.abs(d - exact)) < 1e-7
    assert np.all(err >= 0)


def _chord_lower_bound(metric: HermitianMetricField, p, q) -> float:
    """|q - p| scaled by the smallest metric eigenvalue at 33 points of the chord."""
    p = np.asarray(p, dtype=complex).reshape(-1)
    q = np.asarray(q, dtype=complex).reshape(-1)
    t = np.linspace(0, 1, 33)
    pts = p[None] + t[:, None] * (q - p)[None]
    ev = np.linalg.eigvalsh(metric.gram(pts, check=False))
    lam = float(np.min(ev))
    return float(np.linalg.norm(q - p) * math.sqrt(max(2.0 * lam, 0.0)))


def test_distance_at_least_chord_lower_bound():
    metric = ModelSpace(K=-1.0, n=1).metric()
    p = np.array([0.1])
    q = np.array([0.5 + 0.3j])
    d, _ = geodesic_distance_many(metric, p, q)
    assert d[0] >= _chord_lower_bound(metric, p, q) - 1e-9


def _planes(paths):
    """(Q, N+1, n) paths as the solver's C-contiguous (n, N+1, Q) node planes."""
    return np.ascontiguousarray(paths.T)


def _gram_planes(Gavg):
    """(Q, N, n, n) segment grams as the solver's (n, n, N, Q) planes."""
    return np.ascontiguousarray(Gavg.transpose(2, 3, 1, 0))


def _gradient_planes(grad):
    """A real (Q, N-1, 2n) gradient, [x, y] per node, as the solver's
    complex (n, N-1, Q) one."""
    n = grad.shape[2] // 2
    return np.ascontiguousarray((grad[..., :n] + 1j * grad[..., n:]).T)


def _real_gradient(grad):
    """The solver's complex (n, N-1, Q) gradient or step as a real
    (Q, N-1, 2n) one, [x, y] per node."""
    return np.concatenate([grad.real, grad.imag]).T


def test_path_energy_of_straight_flat_path():
    metric = ModelSpace(K=0.0, n=1).metric()
    t = np.linspace(0, 1, 17)[:, None]
    pts = t * np.array([[1.0 + 0j]])
    # energy of a unit-speed straight segment equals its squared length
    assert geodesy._price(metric, _planes(pts[None]))[0][0] == pytest.approx(1.0)


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
    grad = _real_gradient(geodesy._energy_gradient(metric, _planes(paths)))
    # every interior real coordinate moved by +h and by -h, in one batch
    trials = np.repeat(paths[:, None, None], 2 * (N - 1) * 2 * n, axis=1).reshape(Q, N - 1, 2 * n, 2, N + 1, n)
    for m in range(N - 1):
        for a in range(2 * n):
            e = h if a < n else 1j * h
            trials[:, m, a, 0, m + 1, a % n] += e
            trials[:, m, a, 1, m + 1, a % n] -= e
    E = geodesy._price(metric, _planes(trials.reshape(-1, N + 1, n)))[0].reshape(Q, N - 1, 2 * n, 2)
    fd = (E[..., 0] - E[..., 1]) / (2 * h)
    assert np.max(np.abs(grad - fd)) < 1e-7 * np.max(np.abs(grad))


def _constant_metric(gram):
    n = len(gram)
    return HermitianMetricField(ComplexChart(n=n, radii=2.0),
                                lambda zs: np.broadcast_to(gram, (len(zs), n, n)),
                                lambda zs: np.zeros((len(zs), n, n, n), dtype=complex))


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A @ np.conj(A.T) + 0.5 * np.eye(n)


_KERNEL_CASES = {f"model{K:+.0f}-n{n}": (ModelSpace(K=K, n=n).metric, n)
                 for K in (1.0, -1.0) for n in (1, 2, 3)}
_KERNEL_CASES["torsion"] = (_torsion_metric, 2)
_KERNEL_CASES["constant-n3"] = (lambda: _constant_metric(_random_hermitian(3, 8)), 3)


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_hermitian_form_kernels_match_the_einsum_reference(case):
    make, n = _KERNEL_CASES[case]
    metric = make()
    rng = np.random.default_rng(3)
    Q, N = 3, 9
    paths = 0.15 * (rng.standard_normal((Q, N + 1, n)) + 1j * rng.standard_normal((Q, N + 1, n)))
    E, Gavg = geodesy._price(metric, _planes(paths))
    ref = geodesy_reference.energies(metric, paths)
    assert np.all(np.abs(E - ref) <= 1e-14 * np.abs(ref))
    assert np.array_equal(Gavg, _gram_planes(geodesy_reference.segment_grams(metric, paths)))
    grad = _real_gradient(geodesy._energy_gradient(metric, _planes(paths), Gavg))
    ref = geodesy_reference.energy_gradient(metric, paths)
    assert np.max(np.abs(grad - ref)) <= 1e-14 * np.max(np.abs(grad))


def _batch_case(name):
    """A space's metric, a base point and 9 targets, the first within 1e-3 of p."""
    rng = np.random.default_rng(7)
    if name == "cone":
        metric, p = ConeSurface(0.5).metric(), np.array([0.3 + 0.1j])
        qs = p + 0.25 * np.exp(2j * np.pi * rng.uniform(size=(8, 1))) * rng.uniform(0.3, 1.0, (8, 1))
    else:
        make, n = _KERNEL_CASES.get(name, (lambda: ModelSpace(K=float(name), n=2).metric(), 2))
        metric = make()
        p = np.array([0.05 - 0.02j, 0.1j, -0.04 + 0.03j])[:n]
        qs = p + 0.3 * (rng.uniform(-1, 1, (8, n)) + 1j * rng.uniform(-1, 1, (8, n)))
    return metric, p, np.concatenate([[p + 6e-4 * np.exp(0.7j)], qs])


@pytest.mark.parametrize("name", ["1", "-1", "cone", "torsion", "model+1-n3", "model-1-n1"])
def test_each_path_of_a_batch_keeps_its_own_bits(monkeypatch, name):
    metric, p, qs = _batch_case(name)
    opts = dict(N=16, gtol=1e-8, max_iters=60)
    sizes = []
    gradient = geodesy._energy_gradient

    def recording(metric, paths, Gavg=None):
        sizes.append(paths.shape[-1])
        return gradient(metric, paths, Gavg)

    monkeypatch.setattr(geodesy, "_energy_gradient", recording)
    d, err = geodesic_distance_many(metric, p, qs, **opts)
    # the batch runs with every path active and with the near target dropped
    assert sizes[0] == len(qs) and any(0 < s < len(qs) for s in sizes)
    for k, q in enumerate(qs):
        dk, ek = geodesic_distance_many(metric, p, q, **opts)
        assert d[k].tobytes() == dk[0].tobytes() and err[k].tobytes() == ek[0].tobytes()


@pytest.mark.parametrize("case", ["model+1-n2", "torsion"])
def test_an_all_active_iteration_reads_contiguous_planes(monkeypatch, case):
    # the first iteration of each solve has every path active: its kernels
    # read C-contiguous arrays with the path axis last, the gradient reads
    # the solver's own node planes and the metric reads their transpose
    make, n = _KERNEL_CASES[case]
    metric = make()
    Q, N = 5, 8
    seen = []
    gradient, precondition, minimize = (geodesy._energy_gradient, geodesy._precondition,
                                        geodesy._minimize)
    gram, dgram = metric.gram, metric.dgram

    def recording_minimize(metric, paths, *args):
        seen.append(("minimize", paths))
        return minimize(metric, paths, *args)

    def recording_gradient(metric, paths, Gavg=None):
        grad = gradient(metric, paths, Gavg)
        seen.append(("gradient", paths, Gavg, grad))
        return grad

    def recording_precondition(grad, Gavg):
        seen.append(("precondition", grad, Gavg))
        return precondition(grad, Gavg)

    def recording_points(kernel):
        def call(zs, *args, **kwargs):
            seen.append(("metric", zs.T))
            return kernel(zs, *args, **kwargs)
        return call

    monkeypatch.setattr(geodesy, "_minimize", recording_minimize)
    monkeypatch.setattr(geodesy, "_energy_gradient", recording_gradient)
    monkeypatch.setattr(geodesy, "_precondition", recording_precondition)
    monkeypatch.setattr(metric, "gram", recording_points(gram))
    monkeypatch.setattr(metric, "dgram", recording_points(dgram))
    p = np.full(n, 0.05 + 0.02j)
    qs = p + 0.2 * np.exp(1j * np.arange(Q * n)).reshape(Q, n)
    geodesic_distance_many(metric, p, qs, N=N, gtol=1e-12, max_iters=3)
    starts = [k for k, call in enumerate(seen) if call[0] == "minimize"]
    assert len(starts) == 2
    for k in starts:
        paths, first = seen[k][1], {}
        for call in seen[k + 1:]:
            first.setdefault(call[0], call[1:])
        (nodes, grams, grad), (step_grad, step_grams) = first["gradient"], first["precondition"]
        assert nodes is paths
        M = paths.shape[1]
        for a, shape in [(paths, (n, M, Q)), (grams, (n, n, M - 1, Q)), (grad, (n, M - 2, Q)),
                         (step_grad, (n, M - 2, Q)), (step_grams, (n, n, M - 1, Q)),
                         (first["metric"][0], (n, M * Q))]:
            assert a.shape == shape and a.flags.c_contiguous


@pytest.mark.parametrize("p, qs", [(np.zeros(2), [[0.3]]), (np.zeros(1), [[0.3, 0.3]]),
                                   (np.zeros(3), np.full((2, 3), 0.1))],
                         ids=["short-target", "short-base", "three-vectors"])
def test_endpoints_of_the_wrong_dimension_are_rejected(p, qs):
    metric = ModelSpace(K=1.0, n=2).metric()
    shapes = f"p of shape {np.shape(p)} and qs of shape {np.atleast_2d(qs).shape}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        geodesic_distance_many(metric, p, qs)


def test_endpoints_outside_the_chart_raise_before_solving(monkeypatch):
    # the chart of ModelSpace(-1, 2) is the ball of radius 0.75 sqrt(2); the
    # solver used to return 1.769 at (1.2, 0) and 3.739 at (1.4, 0), and to
    # fail in the Newton step at (1.5, 0)
    metric = ModelSpace(K=-1.0, n=2).metric()
    prices = []
    monkeypatch.setattr(geodesy, "_price", lambda *args: prices.append(1))
    for x in (1.2, 1.4, 1.5):
        with pytest.raises(DomainExceeded, match=re.escape(f"endpoint [({x}+0j), 0j]")):
            geodesic_distance_many(metric, np.zeros(2), np.array([x, 0.0]))
    with pytest.raises(DomainExceeded, match=re.escape("endpoint [(1.4+0j), 0j]")):
        geodesic_distance_many(metric, np.zeros(2), np.array([[0.5, 0.0], [1.4, 0.0], [1.5, 0.0]]))
    with pytest.raises(DomainExceeded, match=re.escape("endpoint [(1.2+0j), 0j]")):
        geodesic_distance_many(metric, np.array([1.2, 0.0]), np.array([0.5, 0.0]))
    assert prices == []


@pytest.mark.parametrize("gram", [0.5 * np.eye(2), 50.0 * np.eye(2),
                                  np.array([[1.0, 0.4 + 0.3j], [0.4 - 0.3j, 0.5]])],
                         ids=["lam=1", "lam=100", "anisotropic"])
def test_constant_metric_takes_one_newton_step(monkeypatch, gram):
    N = 24
    metric = _constant_metric(gram)
    p, q = np.array([0.1 + 0.2j, -0.3]), np.array([-0.4j, 0.5 + 0.1j])
    t = np.linspace(0.0, 1.0, N + 1)[:, None]
    paths = (p + t * (q - p) + 0.1 * np.sin(3 * np.pi * t) * np.array([1.0, 1j]))[None]
    calls = []
    gradient = geodesy._energy_gradient

    def counting(*args):
        calls.append(1)
        return gradient(*args)

    monkeypatch.setattr(geodesy, "_energy_gradient", counting)
    E, gnorm = geodesy._minimize(metric, _planes(paths), 300, 1e-9)
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
    u = _real_gradient(geodesy._precondition(_gradient_planes(grad),
                                                _gram_planes(w[:, :, None, None] * np.eye(n))))
    for k in range(Q):
        L = np.diag(w[k, :-1] + w[k, 1:]) - np.diag(w[k, 1:-1], 1) - np.diag(w[k, 1:-1], -1)
        assert np.allclose(u[k], np.linalg.solve(4.0 * N * L, grad[k]), rtol=1e-12, atol=0)
    # general Hermitian grams, different on each path
    A = rng.standard_normal((Q, N, n, n)) + 1j * rng.standard_normal((Q, N, n, n))
    A[1] *= 10.0
    Gavg = A @ np.conj(np.swapaxes(A, 2, 3)) + 0.1 * np.eye(n)
    u = _real_gradient(geodesy._precondition(_gradient_planes(grad), _gram_planes(Gavg)))
    for k in range(Q):
        exact = np.linalg.solve(_dense_hessian(Gavg[k]), grad[k].reshape(-1))
        assert np.allclose(u[k].reshape(-1), exact, rtol=1e-9, atol=0)


@pytest.mark.parametrize("n", [1, 3])
def test_precondition_is_a_dense_solve_in_one_and_three_dimensions(n):
    rng = np.random.default_rng(6)
    Q, N = 2, 7
    grad = rng.standard_normal((Q, N - 1, 2 * n))
    w = np.stack([rng.uniform(0.5, 2.0, N), rng.uniform(5.0, 50.0, N)])
    u = _real_gradient(geodesy._precondition(_gradient_planes(grad),
                                                _gram_planes(w[:, :, None, None] * np.eye(n))))
    for k in range(Q):
        L = np.diag(w[k, :-1] + w[k, 1:]) - np.diag(w[k, 1:-1], 1) - np.diag(w[k, 1:-1], -1)
        assert np.allclose(u[k], np.linalg.solve(4.0 * N * L, grad[k]), rtol=1e-12, atol=0)
    A = rng.standard_normal((Q, N, n, n)) + 1j * rng.standard_normal((Q, N, n, n))
    A[1] *= 10.0
    Gavg = A @ np.conj(np.swapaxes(A, 2, 3)) + 0.1 * np.eye(n)
    u = _real_gradient(geodesy._precondition(_gradient_planes(grad), _gram_planes(Gavg)))
    for k in range(Q):
        exact = np.linalg.solve(_dense_hessian(Gavg[k]), grad[k].reshape(-1))
        assert np.allclose(u[k].reshape(-1), exact, rtol=1e-9, atol=0)


@pytest.mark.parametrize("block", [np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
                                   np.zeros((2, 2)), np.full((2, 2), np.nan)],
                         ids=["negative", "indefinite", "zero", "nan"])
def test_precondition_rejects_a_gram_that_is_not_positive_definite(block):
    Gavg = np.broadcast_to(np.eye(2, dtype=complex), (3, 8, 2, 2)).copy()
    Gavg[1, 4] = block
    with pytest.raises(NonPositiveDefinite):
        geodesy._precondition(_gradient_planes(np.ones((3, 7, 4))), _gram_planes(Gavg))


@pytest.mark.parametrize("N", [0, -1])
def test_a_mesh_below_one_segment_is_rejected(N):
    metric = ModelSpace(K=1.0, n=1).metric()
    p, q = np.array([0.0]), np.array([0.1 + 0.05j])
    with pytest.raises(ValueError, match="at least one segment"):
        geodesic_distance_many(metric, p, q[None], N=N)


def test_cone_distance_within_its_error_estimate():
    d, err = geodesic_distance_many(ConeSurface(0.5).metric(), 0.3, 0.05 + 0.6j)
    assert abs(d[0] - 1.0518206263593044) <= err[0]


def _acceptance_06_defect(monkeypatch, gtol=1e-8):
    calls = []
    price = geodesy._price                     # every priced trial goes through it

    def counting(metric, paths):
        calls.append(paths.shape[-1])
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


def test_the_torsion_disk_takes_six_prices_and_six_gradients(monkeypatch):
    # the coarse and the refined solve of the disk's 257 paths;
    # pinning the count keeps a faster kernel from hiding a change in
    # how many iterations the solver takes
    gradients = []
    gradient = geodesy._energy_gradient

    def counting(metric, paths, Gavg=None):
        gradients.append(paths.shape[-1])
        return gradient(metric, paths, Gavg)

    monkeypatch.setattr(geodesy, "_energy_gradient", counting)
    rep, calls = _acceptance_06_defect(monkeypatch)
    assert calls == [257] * 6 and gradients == [257] * 6
    assert abs(rep.defect - -1.2241075950480788e-06) <= rep.error_estimate


def test_the_model_disk_takes_five_prices_and_five_gradients(monkeypatch):
    # the coarse and the refined solve of a disk's 129 paths with the
    # default options; in the coarse one, 15 paths converge an iteration
    # before the rest
    sizes = {"price": [], "gradient": []}
    price, gradient = geodesy._price, geodesy._energy_gradient

    def pricing(metric, paths):
        sizes["price"].append(paths.shape[-1])
        return price(metric, paths)

    def differentiating(metric, paths, Gavg=None):
        sizes["gradient"].append(paths.shape[-1])
        return gradient(metric, paths, Gavg)

    monkeypatch.setattr(geodesy, "_price", pricing)
    monkeypatch.setattr(geodesy, "_energy_gradient", differentiating)
    space = ModelSpace(K=1.0, n=2)
    metric = space.metric()
    p = np.array([0.1 + 0.05j, -0.05])
    disk = DiskEmbedding.affine(np.array([0.2, 0.1j]), np.array([0.1, 0.05 + 0.05j]), metric.chart)
    rep = comparison_defect(metric, disk, p, 1.0, distance="numeric")
    assert sizes == {"price": [129, 129, 114, 129, 129], "gradient": [129, 129, 114, 129, 129]}
    closed = comparison_defect(metric, disk, p, 1.0, distance=space.distance_field(p))
    assert abs(rep.defect - closed.defect) <= rep.error_estimate


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


def test_converged_reads_the_solver_mask(caplog):
    metric = _torsion_metric()
    p, q = np.zeros(2, dtype=complex), np.array([0.05, 0.004 + 0.004j])
    # gtol 1e-13 is below what the energy test resolves on this path
    with caplog.at_level(logging.INFO, logger="kahlerlab"):
        geodesic_distance_many(metric, p, q, N=24, gtol=1e-13, max_iters=120)
    assert any("1 of 1 paths stopped above gtol 1.0e-13" in r.getMessage()
               for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="kahlerlab"):
        geodesic_distance_many(metric, p, q, N=24, gtol=1e-6, max_iters=120)
    assert caplog.records == []


def test_grad_norm_agrees_with_the_converged_mask(monkeypatch, caplog):
    # a path's norm is the larger of its coarse and refined norms: on this
    # chord the coarse solve stops at 2.3e-8, above gtol, the refined one at 3.4e-10
    norms = []
    minimize = geodesy._minimize

    def recording(*args):
        E, gnorm = minimize(*args)
        norms.append(gnorm.copy())
        return E, gnorm

    monkeypatch.setattr(geodesy, "_minimize", recording)
    with caplog.at_level(logging.INFO, logger="kahlerlab"):
        geodesic_distance_many(ModelSpace(K=1.0, n=1).metric(), np.array([0.1]),
                               np.array([0.4 + 0.2j]), gtol=1e-8)
    [coarse], [refined] = norms
    assert refined <= 1e-8 < coarse
    assert [r.getMessage() for r in caplog.records] == [
        "geodesic solve: 1 of 1 paths stopped above gtol 1.0e-08, "
        f"largest final gradient norm {coarse:.1e}"]


def _square_domain(radius=2.0, obstacles=()):
    return PlanarDomain(chart=ComplexChart(n=1, radii=radius),
                        obstacles=tuple(obstacles))


def _domain_distance(domain, p, q) -> float:
    """d(p, q) between [x, y] pairs: the one-target call of ``distance_field(p)``."""
    return float(domain.distance_field(complex(*p))([complex(*q)])[0])


def test_domain_length_metric_free_space():
    dom = _square_domain()
    d = _domain_distance(dom, [-1.0, 0.0], [1.0, 0.5])
    assert d == pytest.approx(math.hypot(2.0, 0.5), abs=1e-9)


def test_domain_length_metric_slab_detour():
    slab = RectObstacle(center=np.array([0.0, 0.0]),
                        half_widths=np.array([0.15, 1.0]))
    dom = _square_domain(obstacles=[slab])
    d = _domain_distance(dom, [-1.0, 0.0], [1.0, 0.0])
    # taut path over a slab corner, exactly two mirrored segments
    exact = 2.0 * math.hypot(0.85, 1.0) + 0.3
    assert d == pytest.approx(exact, abs=1e-9)
    assert d > 2.0 * 1.1


def test_domain_length_metric_l_shape():
    a = RectObstacle(center=np.array([0.0, -0.5]), half_widths=np.array([0.1, 1.0]))
    b = RectObstacle(center=np.array([0.5, 0.4]), half_widths=np.array([0.6, 0.1]))
    dom = _square_domain(obstacles=[a, b])
    d = _domain_distance(dom, [-0.5, -0.5], [1.0, -0.2])
    straight = math.hypot(1.5, 0.3)
    assert d > straight


def test_domain_disconnected_raises():
    wall = RectObstacle(center=np.array([0.0, 0.0]),
                        half_widths=np.array([0.1, 2.5]))
    dom = _square_domain(obstacles=[wall])
    with pytest.raises(Disconnected):
        _domain_distance(dom, [-1.0, 0.0], [1.0, 0.0])


def test_domain_disk_obstacle_upper_bound():
    disk = DiskObstacle(center=np.array([0.0, 0.0]), radius=0.5)
    dom = _square_domain(obstacles=[disk])
    d = _domain_distance(dom, [-1.0, 0.0], [1.0, 0.0])
    # exact: two tangents plus the wrapped arc
    exact = 2.0 * math.sqrt(1.0 - 0.25) + 0.5 * (math.pi - 2.0 * math.acos(0.5))
    assert d >= exact - 1e-9
    assert d <= exact * 1.1
    assert abs(d - exact) <= 1e-12


def test_domain_path_along_an_outer_common_tangent():
    # p -> tangent to A -> arc over A -> outer common tangent -> arc over B
    # -> tangent to q; the normal of the common tangent makes the angle
    # acos((rA - rB) / |cA - cB|) with the x axis
    a = DiskObstacle(center=np.array([-0.5, 0.0]), radius=0.3)
    b = DiskObstacle(center=np.array([0.5, 0.0]), radius=0.2)
    dom = _square_domain(obstacles=[a, b])
    d = _domain_distance(dom, [-1.2, 0.0], [1.1, 0.0])
    n = math.acos(0.1)
    exact = (math.sqrt(0.7 ** 2 - 0.3 ** 2) + 0.3 * (math.pi - math.acos(0.3 / 0.7) - n)
             + math.sqrt(1.0 - 0.1 ** 2)
             + 0.2 * (n - math.acos(0.2 / 0.6)) + math.sqrt(0.6 ** 2 - 0.2 ** 2))
    assert abs(d - exact) <= 1e-12


def test_domain_path_along_an_inner_common_tangent():
    # p below A and q above B: around A's lower right, across between the
    # disks, around B's upper left; the inner tangent's normal makes the
    # angle acos((rA + rB) / |cA - cB|) = acos(0.8) with the x axis
    a = DiskObstacle(center=np.array([-0.5, 0.0]), radius=0.4)
    b = DiskObstacle(center=np.array([0.5, 0.0]), radius=0.4)
    dom = _square_domain(obstacles=[a, b])
    d = _domain_distance(dom, [-0.5, -0.5], [0.5, 0.5])
    exact = 2.0 * (0.3 + 0.4 * (0.5 * math.pi - 2.0 * math.acos(0.8))) + 0.6
    assert abs(d - exact) <= 1e-12


_DISK = DiskObstacle(center=np.array([0.0, 0.0]), radius=0.5)


@pytest.mark.parametrize("obstacles, y, h", [
    ([_DISK, RectObstacle(center=np.array([0.0, 1.25]), half_widths=np.array([0.1, 0.85]))],
     0.0, 0.2),
    ([_DISK, DiskObstacle(center=np.array([0.0, 1.27]), radius=0.78)], 0.0, 0.2),
    ([DiskObstacle(center=np.array([0.0, 1.52]), radius=0.5)], 1.52, 0.1),
], ids=["rect", "disk", "chart-edge"])
def test_domain_arcs_stop_at_crossings(obstacles, y, h):
    # p and q sit h above the centre of a radius-0.5 disk at height y; the
    # shorter way over its top is cut by an obstacle that reaches past the
    # chart edge, or by the edge itself, while both top tangent points stay
    # free, so the path goes round the bottom
    dom = _square_domain(obstacles=obstacles)
    d = _domain_distance(dom, [-1.0, y + h], [1.0, y + h])
    alpha = math.acos(0.5 / math.sqrt(1.0 + h * h))
    exact = 2.0 * math.sqrt(0.75 + h * h) + 0.5 * (math.pi + 2.0 * math.atan(h) - 2.0 * alpha)
    assert abs(d - exact) <= 1e-12


def test_domain_graph_arcs_stop_at_crossings():
    # p -> round the bottom of the cut disk -> common tangent -> round a
    # second disk -> q: the cut arc is a graph arc from p and a target arc
    # from q; circumscribed 2000-gons around the disks give 3.3607108
    dom = _square_domain(obstacles=[
        _DISK, RectObstacle(center=np.array([0.0, 1.25]), half_widths=np.array([0.1, 0.85])),
        DiskObstacle(center=np.array([1.3, 0.0]), radius=0.3)])
    d = _domain_distance(dom, [-1.0, 0.2], [1.9, 0.2])
    assert abs(d - 3.3607102383535707) <= 1e-12
    assert abs(_domain_distance(dom, [1.9, 0.2], [-1.0, 0.2]) - d) <= 1e-12


def test_domain_single_rect_corner_path():
    # the taut path turns once, at the corner (0.575, 0.405)
    rect = RectObstacle(center=np.array([0.765, -0.045]), half_widths=np.array([0.19, 0.45]))
    dom = _square_domain(obstacles=[rect])
    d = _domain_distance(dom, [-0.89, -1.88], [0.84, 0.67])
    assert d == pytest.approx(3.0890712932105964, abs=1e-15)


def _blocks_reference(ob, a, b) -> bool:
    """The scalar segment tests that ``blocks_segments`` vectorises."""
    d = b - a
    if isinstance(ob, DiskObstacle):
        L2 = float(d @ d)
        t = 0.0 if L2 == 0 else float(np.clip((ob.center - a) @ d / L2, 0.0, 1.0))
        return float(np.linalg.norm(a + t * d - ob.center)) < ob.radius - 1e-12
    lo, hi = ob.center - ob.half_widths + 1e-12, ob.center + ob.half_widths - 1e-12
    t0, t1 = 0.0, 1.0
    for i in range(2):
        if abs(d[i]) < 1e-300:
            if a[i] < lo[i] or a[i] > hi[i]:
                return False
        else:
            ta, tb = sorted(((lo[i] - a[i]) / d[i], (hi[i] - a[i]) / d[i]))
            t0, t1 = max(t0, ta), min(t1, tb)
            if t0 > t1:
                return False
    return True


@pytest.mark.parametrize("ob", [
    RectObstacle(center=np.array([0.25, -0.5]), half_widths=np.array([0.5, 0.25])),
    DiskObstacle(center=np.array([0.25, -0.5]), radius=0.5)], ids=["rect", "disk"])
def test_blocks_segments_matches_the_scalar_test(ob):
    # endpoints on a 0.25 grid give axis-parallel, grazing and point segments
    rng = np.random.default_rng(2)
    a, b = (0.25 * rng.integers(-6, 6, (2000, 2)) for _ in range(2))
    b[:100] = a[:100]
    expected = [_blocks_reference(ob, x, y) for x, y in zip(a, b)]
    assert ob.blocks_segments(a, b).tolist() == expected


def _half_extent(ob):
    return ob.half_widths if isinstance(ob, RectObstacle) else np.full(2, ob.radius)


def _overlap(a, b) -> bool:
    if isinstance(b, DiskObstacle):
        return a.blocks_disk(b.center, b.radius)
    if isinstance(a, DiskObstacle):
        return b.blocks_disk(a.center, a.radius)
    return bool(np.all(np.abs(a.center - b.center) <= a.half_widths + b.half_widths))


def test_domain_random_domains_are_symmetric():
    # overlapping rects and disks, some crossing the chart edge
    rng = np.random.default_rng(5)
    overlaps = crossings = paths = 0
    for _ in range(120):
        obstacles = []
        for _ in range(rng.integers(2, 5)):
            c = rng.uniform(-2.2, 2.2, 2)
            obstacles.append(RectObstacle(center=c, half_widths=rng.uniform(0.05, 0.8, 2))
                             if rng.uniform() < 0.5 else
                             DiskObstacle(center=c, radius=rng.uniform(0.05, 0.8)))
        dom = _square_domain(obstacles=obstacles)
        crossings += any(np.any(np.abs(o.center) + _half_extent(o) > 2.0) for o in obstacles)
        overlaps += any(_overlap(a, b) for a, b in itertools.combinations(obstacles, 2))
        pts = rng.uniform(-2.0, 2.0, (40, 2))
        p, q = pts[dom.free(pts)][:2]
        try:
            d = _domain_distance(dom, p, q)
        except Disconnected:
            with pytest.raises(Disconnected):
                _domain_distance(dom, q, p)
            continue
        paths += 1
        assert abs(_domain_distance(dom, q, p) - d) <= 1e-12 * d
    assert paths >= 100 and overlaps >= 20 and crossings >= 20


def test_domain_field_runs_one_dijkstra_per_base_point(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return dijkstra(*args, **kwargs)

    dijkstra = geodesy._dijkstra
    monkeypatch.setattr(geodesy, "_dijkstra", counting)
    dom = _square_domain(obstacles=[
        RectObstacle(center=np.array([0.0, 0.8]), half_widths=np.array([0.2, 0.5])),
        DiskObstacle(center=np.array([0.0, -0.5]), radius=0.4)])
    field = dom.distance_field(-1.2 + 0.0j)
    t = np.linspace(-1.0, 1.0, 257)
    d = field((1.2 + 0.3j * t)[:, None])
    assert len(calls) == 1 and d.shape == (257,) and np.all(d >= 2.4)


def test_dijkstra_matches_the_sparse_graph_solver_bit_for_bit():
    # random graphs with one-way entries (read both ways), tied lengths and
    # unreachable nodes, against the undirected sparse-graph Dijkstra
    rng = np.random.default_rng(5)
    unreachable = 0
    for _ in range(200):
        V = int(rng.integers(1, 40))
        W = np.where(rng.uniform(size=(V, V)) < rng.uniform(0.02, 0.3),
                     rng.uniform(0.0, 2.0, (V, V)), np.inf)
        W[rng.uniform(size=(V, V)) < 0.1] = 0.5                  # ties
        W[np.tril_indices(V)] = np.where(rng.uniform(size=V * (V + 1) // 2) < 0.5,
                                         np.inf, W[np.tril_indices(V)])
        np.fill_diagonal(W, np.inf)
        ref = csgraph.dijkstra(csgraph.csgraph_from_dense(W, null_value=np.inf),
                               directed=False, indices=0)
        dist = geodesy._dijkstra(W)
        assert dist.tobytes() == ref.tobytes()
        unreachable += int(np.isinf(dist).any())
    assert unreachable >= 20


def test_domain_endpoints_must_be_free():
    disk = DiskObstacle(center=np.array([0.0, 0.0]), radius=0.5)
    dom = _square_domain(obstacles=[disk])
    with pytest.raises(DomainExceeded, match="open domain"):
        _domain_distance(dom, [0.0, 0.0], [1.0, 0.0])


def test_a_batch_keeps_its_bits_and_each_target_is_near_its_one_target_solve():
    # the last two disks' centre and doubled-boundary targets of eight
    # sampled disks: a target here (index 23, 797 of the full 1,032) moves
    # by 10 ulps from its one-target solve, another's error estimate by 1e-17
    metric = ModelSpace(K=1.0, n=2).metric()
    p = np.array([0.05, 0.02j])
    C = sample_disk_stack(metric.chart, p, DiskSampler(seed=2, count=8, size_range=(0.05, 0.3)),
                          np.random.default_rng(2))
    w = np.concatenate([np.zeros(1), QuadratureGrid().doubled().boundary()[0]])
    qs = disk_images(C, w).reshape(-1, 2)[774:1032]
    d, err = geodesy.geodesic_distance_many(metric, p, qs)
    again = geodesy.geodesic_distance_many(metric, p, qs)
    assert d.tobytes() == again[0].tobytes() and err.tobytes() == again[1].tobytes()
    alone = [geodesy.geodesic_distance_many(metric, p, q[None]) for q in qs]
    d1, err1 = (np.concatenate(a) for a in zip(*alone))
    ulps = 16 * np.spacing(d1)
    assert np.all(np.abs(d - d1) <= ulps) and np.all(np.abs(err - err1) <= ulps)
    assert np.all(ulps < 1e-3 * err1)
