import dataclasses
import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from annulus_reference import annulus_tail
from fd_reference import fd_metric
from kahlerlab import disks
from kahlerlab.curvature import TangentPair, curvature_tensor
from kahlerlab.disks import (DISK_FAULTS, NEAR_DISK_CUTOFF, DiskEmbedding, DiskSampler,
                             QuadratureGrid, annulus_defects, area_density,
                             asymptotic_defect, comparison_defect,
                             comparison_defects, disk_faults, log_moment, rprime_value,
                             sample_disks, torsion_contraction, torsion_expected_defect,
                             torsion_metric, violation_disk, worst_defect)
from kahlerlab.errors import DomainExceeded, KahlerLabError
from kahlerlab.fields import ComplexChart
from kahlerlab.geodesy import geodesic_distance_many
from kahlerlab.models import (ConeSurface, ModelSpace, QuotientData, dK_transform,
                              orbifold_cone)


def _flat(n=2):
    return ModelSpace(K=0.0, n=n)


def test_disk_embedding_rejects_bad_maps():
    chart = ComplexChart(n=1, radii=1.0)
    with pytest.raises(ValueError):
        DiskEmbedding(coeffs=np.array([[0.0], [2.0]]), chart=chart)  # leaves chart
    with pytest.raises(ValueError, match="disk map is constant"):
        DiskEmbedding(coeffs=np.array([[0.1]]), chart=chart)
    with pytest.raises(ValueError):
        # w -> w^2 is 2:1 on the boundary
        DiskEmbedding(coeffs=np.array([[0.0], [0.0], [0.5]]), chart=chart)
    with pytest.raises(ValueError, match="degree 3 exceeds 2"):
        DiskEmbedding(coeffs=np.array([[0.0], [0.1], [0.0], [0.01]]), chart=chart)
    with pytest.raises(ValueError, match="not an embedding"):
        # |c1| = 1.9 |c2|: i' vanishes at w = -0.95
        DiskEmbedding(coeffs=np.array([[0.0], [0.19], [0.1]]), chart=chart)


def test_disk_embedding_evaluation():
    chart = ComplexChart(n=2, radii=1.0)
    d = DiskEmbedding.affine(np.array([0.1, 0.2j]), np.array([0.3, 0.0]), chart)
    val = d(np.array([0.5]))
    assert np.allclose(val[0], [0.25, 0.2j])
    assert np.allclose(d.deriv(np.array([0.5]))[0], [0.3, 0.0])


def test_area_density_flat_affine():
    metric = _flat(1).metric()
    chart = metric.chart
    d = DiskEmbedding.affine(np.array([0.0]), np.array([0.4]), chart)
    [dens] = area_density(metric, [d], np.array([0.0, 0.3 + 0.2j]))
    assert np.allclose(dens, 0.16)


def test_log_moment_flat_equals_minus_b_squared():
    metric = _flat(1).metric()
    b = 0.35
    d = DiskEmbedding.affine(np.array([0.1]), np.array([b]), metric.chart)
    assert log_moment(metric, [d])[0] == pytest.approx(-b * b, abs=1e-12)


def test_flat_equality_case():
    space = _flat(2)
    metric = space.metric()
    rng = np.random.default_rng(0)
    p = np.array([0.1 + 0.05j, -0.02])
    dist = space.distance_field(p)
    for _ in range(5):
        a = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b *= 0.2 / np.linalg.norm(b)
        disk = DiskEmbedding.affine(a, b, metric.chart)
        rep = comparison_defect(metric, disk, p, 0.0, distance=dist)
        assert abs(rep.defect) < 1e-8


def test_report_rotation_invariance():
    space = _flat(2)
    metric = space.metric()
    p = np.array([0.05, 0.1j])
    dist = space.distance_field(p)
    disk = DiskEmbedding.affine(np.array([0.2, 0.0]), np.array([0.1, 0.05j]),
                                metric.chart)
    r1 = comparison_defect(metric, disk, p, 0.0, distance=dist)
    r2 = comparison_defect(metric, disk.rotated(0.9), p, 0.0, distance=dist)
    assert r1.defect == pytest.approx(r2.defect, abs=1e-10)
    assert r1.log_moment == pytest.approx(r2.log_moment, abs=1e-10)


def test_model_equality_closed_form_distance():
    for K in (1.0, -1.0):
        space = ModelSpace(K=K, n=2)
        metric = space.metric()
        p = np.array([0.05 + 0.02j, 0.0])
        dist = space.distance_field(p)
        disk = DiskEmbedding.affine(np.array([0.1, 0.05]),
                                    np.array([0.12, 0.08j]), metric.chart)
        rep = comparison_defect(metric, disk, p, K, distance=dist)
        assert abs(rep.defect) < 1e-6


@pytest.mark.parametrize("K", [1.0, -1.0])
@pytest.mark.parametrize("n", [1, 2])
def test_model_equality_defect_within_its_error_estimate(K, n):
    # phi_K - d_K^2/2 is pluriharmonic on the model at level K, so every
    # disk's exact defect is 0 and what is left is rounding, which the
    # estimate must cover: closed-form distances are taken as exact
    space = ModelSpace(K=K, n=n)
    metric = space.metric()
    rng = np.random.default_rng(3)
    for seed in range(10):
        p = 0.04 * rng.random() * np.exp(2j * math.pi * rng.random(n)) / math.sqrt(n)
        dist = space.distance_field(p)
        sampler = DiskSampler(seed=seed, count=10, size_range=(0.02, 0.25))
        for disk in sample_disks(metric.chart, p, sampler, rng):
            rep = comparison_defect(metric, disk, p, K, distance=dist)
            assert abs(rep.defect) <= rep.error_estimate, (seed, disk.coeffs)


def test_model_equality_numeric_distance():
    space = ModelSpace(K=1.0, n=2)
    metric = space.metric()
    p = np.array([0.05, 0.0])
    disk = DiskEmbedding.affine(np.array([0.15, 0.0]),
                                np.array([0.1, 0.06j]), metric.chart)
    rep = comparison_defect(metric, disk, p, 1.0, distance="numeric")
    assert abs(rep.defect) <= 5e-3


def test_quadrature_grid_refinement_is_stable():
    metric = _flat(1).metric()
    d = DiskEmbedding(coeffs=np.array([[0.1], [0.3], [0.05]]),
                      chart=metric.chart)
    [lm1] = log_moment(metric, [d], QuadratureGrid())
    [lm2] = log_moment(metric, [d], QuadratureGrid().doubled())
    assert lm1 == pytest.approx(lm2, abs=1e-10)


def test_violation_disk_asymptotics():
    space = _flat(2)
    metric = space.metric()
    p = np.zeros(2, dtype=complex)
    data = curvature_tensor(metric, p)
    pair = TangentPair(X=np.array([1.0, 0.0]), Y=np.array([0.0, 1.0]),
                       G=data.G)
    rp = rprime_value(data, 1.0, pair)
    assert rp == pytest.approx(4.0, abs=1e-6)
    dist = space.distance_field(p)
    e1, e2 = 5e-3, 5e-2
    disk = violation_disk(metric, p, pair, e1, e2)
    rep = comparison_defect(metric, disk, p, 1.0, distance=dist)
    pred = asymptotic_defect(rp, e1, e2)
    assert rep.defect < 0
    assert rep.defect / pred == pytest.approx(1.0, abs=0.05)


def test_violation_flat_quartic_exact():
    # flat space, K = 1, orthonormal pair: the defect is an exact quartic
    space = _flat(2)
    metric = space.metric()
    p = np.zeros(2, dtype=complex)
    data = curvature_tensor(metric, p)
    pair = TangentPair(X=np.array([1.0, 0.0]), Y=np.array([0.0, 1.0]),
                       G=data.G)
    dist = space.distance_field(p)
    e1, e2 = 2e-2, 1e-1
    disk = violation_disk(metric, p, pair, e1, e2)
    rep = comparison_defect(metric, disk, p, 1.0, distance=dist)
    exact = -(2.0 * e1 ** 2 * e2 ** 2 + e1 ** 4) / 3.0
    assert rep.defect == pytest.approx(exact, rel=2e-2)


def test_annulus_estimator_flat():
    space = _flat(2)
    metric = space.metric()
    p = np.array([0.1, 0.05j])
    dist = space.distance_field(p)
    disk = DiskEmbedding.affine(np.array([0.25, 0.0]),
                                np.array([0.1, 0.02]), metric.chart)
    vals = [annulus_defects(metric, [disk], 0.0, [eps], distance=dist)[0][0, 0]
            for eps in (0.08, 0.04, 0.02)]
    assert all(v >= -1e-9 for v in vals)
    tails = [annulus_tail(metric, disk, eps) for eps in (0.08, 0.04, 0.02)]
    assert tails[0] > tails[1] > tails[2] > 0


def test_torsion_metric_checks_antisymmetry():
    chart = ComplexChart(n=2, radii=1.5)
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        torsion_metric(bad, chart)


def test_torsion_disk_defect_matches_prediction():
    n = 2
    T = np.zeros((n, n, n))
    T[0, 0, 1] = -0.5
    T[0, 1, 0] = 0.5
    chart = ComplexChart(n=n, radii=1.5)
    metric = torsion_metric(T, chart)
    a = np.array([1.0, 1.0], dtype=complex)
    b = np.array([1.0, 0.0], dtype=complex)
    S = torsion_contraction(T, a, b)
    assert S.real == pytest.approx(-0.5)
    e1, e2 = 5e-3, 5e-2
    expected = torsion_expected_defect(T, a, b, e1, e2)
    assert expected == pytest.approx(2.0 * e1 ** 2 * e2 * S.real)
    disk = DiskEmbedding.affine(e2 * b, e1 * a, chart)
    rep = comparison_defect(metric, disk, np.zeros(n, dtype=complex), 0.0,
                            distance="numeric",
                            solver_opts=dict(N=24, gtol=1e-8, max_iters=120))
    assert rep.defect < 0
    assert expected / 2.0 >= rep.defect >= expected * 2.0


REPORT_FIELDS = ("lhs", "log_moment", "boundary_avg", "defect", "error_estimate")


def _two_pass_rule(metric, disk, p, K, distance, grid=None, solver_opts=None):
    """The comparison defect with each grid level evaluating its own centre
    and boundary distances; the base level takes the interior log moment
    and the doubled level, on a potential-form metric, the boundary form
    2 (phi(i(0)) - mean phi) on its own targets.  Returns the report fields
    and the two boundary sizes."""
    grid = grid or QuadratureGrid()
    p = np.asarray(p, dtype=complex).reshape(-1)

    def distances(targets):
        if distance == "numeric":
            opts = dict(N=24, gtol=1e-6, max_iters=60)
            opts.update(solver_opts or {})
            return geodesic_distance_many(metric, p, targets, **opts)
        return np.asarray(distance(targets), dtype=float), np.zeros(len(targets))

    def assemble(g, boundary_form):
        bpts = disk(g.boundary()[0])
        gap = np.min(np.linalg.norm(bpts - p[None], axis=1))
        if gap < NEAR_DISK_CUTOFF and g.n_boundary < 4 * 64:
            g = QuadratureGrid(g.n_r, g.n_theta, 2 * g.n_boundary)
            bpts = disk(g.boundary()[0])
        targets = np.vstack([disk(np.zeros(1)), bpts])
        dvals, derr = distances(targets)
        dk = dK_transform(dvals, K)
        lhs, ba = float(dk[0]), float(np.mean(dk[1:]))
        if boundary_form:
            phi = metric.potential(targets)
            phi0 = float(phi[0])
            lm = 2.0 * (phi0 - float(np.mean(phi[1:])))
        else:
            phi0, lm = 0.0, log_moment(metric, [disk], g)[0]
        return lhs, lm, ba, lhs - lm - ba, float(np.max(derr, initial=0.0)), g.n_boundary, phi0

    lhs1, lm1, ba1, defect1, de1, nb1, _ = assemble(grid, False)
    lhs2, lm2, ba2, defect2, de2, nb2, phi0 = assemble(grid.doubled(), metric.is_potential_form)
    err = abs(defect2 - defect1) + 4.0 * max(de1, de2) \
        + disks.ROUNDING_FLOOR * (abs(lhs2) + abs(lm2) + abs(ba2) + 2.0 * abs(phi0))
    return dict(lhs=lhs2, log_moment=lm2, boundary_avg=ba2, defect=defect2,
                error_estimate=err), (nb1, nb2)


def _fields(rep):
    return {f: getattr(rep, f) for f in REPORT_FIELDS}


def _doubled_boundary_only_disk(metric):
    """The disk 0.35 + 0.3 w with a point p 0.049 off its boundary, at an
    angle that is a node of the doubled boundary rule only: every node of
    the base rule is 0.0515 from p, so only the doubled rule comes within
    NEAR_DISK_CUTOFF; returns (disk, p)."""
    a, r, gap = 0.35, 0.3, 0.049
    p = np.array([a + (r + gap) * np.exp(1j * math.pi * 33 / 64)])
    return DiskEmbedding.affine(np.array([a]), np.array([r]), metric.chart), p


@pytest.mark.parametrize("k", [64, 96, 128])
@pytest.mark.parametrize("s", [1, 2, 4])
def test_boundary_rule_nests_in_its_multiples(k, s):
    w, th = QuadratureGrid(n_boundary=k).boundary()
    ws, ths = QuadratureGrid(n_boundary=k * s).boundary()
    assert np.array_equal(w, ws[::s])
    assert np.array_equal(th, ths[::s])


def test_comparison_defect_equals_two_pass_rule_closed_form():
    cases = []
    for K, n, seed in [(1.0, 2, 3), (-1.0, 2, 4), (0.0, 2, 5), (1.0, 1, 6),
                       (-1.0, 1, 7), (0.0, 1, 8)]:
        space = ModelSpace(K=K, n=n)
        metric = space.metric()
        p = np.full(n, 0.05 + 0.02j)
        sampler = DiskSampler(seed=seed, count=20, size_range=(0.02, 0.3),
                              center_radius=0.2)
        for d in sample_disks(metric.chart, p, sampler, np.random.default_rng(seed)):
            cases.append((metric, d, p, K, space.distance_field(p), QuadratureGrid()))
    # on the cone the apex, 0.05 from the disk, keeps the boundary
    # average of the base rule off that of the doubled rule
    for space, K in [(ModelSpace(K=1.0, n=1), 1.0), (ConeSurface(alpha=0.5), 0.0)]:
        metric = space.metric()
        disk, p = _doubled_boundary_only_disk(metric)
        for k in (64, 96, 128):
            cases.append((metric, disk, p, K, space.distance_field(p),
                          QuadratureGrid(n_boundary=k)))
    sizes = []
    for metric, disk, p, K, dist, grid in cases:
        ref, nb = _two_pass_rule(metric, disk, p, K, dist, grid=grid)
        rep = comparison_defect(metric, disk, p, K, distance=dist, grid=grid)
        assert _fields(rep) == ref
        sizes.append((grid.n_boundary,) + nb)
    assert len(cases) >= 100
    ratios = {nb2 // nb1 for _, nb1, nb2 in sizes}
    assert ratios == {1, 2, 4}
    assert sum(nb1 > k for k, nb1, _ in sizes) >= 5        # near-p upgrades
    assert (64, 64, 256) in sizes                           # the 4:1 case


def test_comparison_defect_equals_two_pass_rule_numeric():
    space = ModelSpace(K=1.0, n=2)
    metric = space.metric()
    p = np.array([0.05, 0.0])
    opts = dict(N=12, max_iters=30)
    for a, b in [([0.15, 0.0], [0.1, 0.06j]), ([0.04, 0.03j], [0.05, 0.02])]:
        disk = DiskEmbedding.affine(np.array(a), np.array(b), metric.chart)
        ref, _ = _two_pass_rule(metric, disk, p, 1.0, "numeric", solver_opts=opts)
        rep = comparison_defect(metric, disk, p, 1.0, distance="numeric",
                                solver_opts=opts)
        got = _fields(rep)
        # the doubled level solves the same batch as before, so its values
        # are bit-identical; the base level now reads its distances from
        # that batch, and a path's last bit depends on its batch
        for f in ("lhs", "log_moment", "boundary_avg", "defect"):
            assert got[f] == ref[f], f
        assert got["error_estimate"] == pytest.approx(ref["error_estimate"], rel=1e-10)


def test_comparison_defect_makes_one_distance_call_per_disk(monkeypatch):
    space = ModelSpace(K=1.0, n=1)
    metric = space.metric()
    far = DiskEmbedding.affine(np.array([0.5]), np.array([0.2]), metric.chart)
    near, p_near = _doubled_boundary_only_disk(metric)
    calls = []
    for disk, p, nodes in [(far, np.array([0.05 + 0.02j]), 128), (near, p_near, 256)]:
        field = space.distance_field(p)

        def counting(zs):
            calls.append(len(zs))
            return field(zs)

        def fake_solver(metric, p, qs, **opts):
            calls.append(len(qs))
            return field(qs), np.zeros(len(qs))

        monkeypatch.setattr(disks, "geodesic_distance_many", fake_solver)
        for distance in (counting, "numeric"):
            calls.clear()
            comparison_defect(metric, disk, p, 1.0, distance=distance)
            assert calls == [1 + nodes]


def test_worst_defect_skips_disks_that_raise():
    space = ModelSpace(K=0.0, n=1)
    metric = space.metric()
    p = np.array([0.0j])
    field = space.distance_field(p)

    def distance(zs):
        if np.max(zs.real) > 0.6:
            raise KahlerLabError("out of range")
        return field(zs)

    def disk(a, b):
        return DiskEmbedding.affine(np.array([a]), np.array([b]), metric.chart)

    bad, small, large = disk(0.6, 0.2), disk(0.1, 0.05), disk(-0.1, 0.3)
    res = worst_defect(metric, p, 1.0, distance, [small, bad, large], directed=bad)
    assert res.scanned == 2 and not res.directed
    assert res.disk is large
    ref = comparison_defect(metric, large, p, 1.0, distance=field)
    assert res.report.defect == ref.defect
    res = worst_defect(metric, p, 1.0, distance, [small], directed=large)
    assert res.scanned == 2 and res.directed and res.disk is large
    with pytest.raises(KahlerLabError, match="no admissible disk"):
        worst_defect(metric, p, 1.0, distance, [bad, bad])


def _stack_case():
    """(metric, K, p, distance, disks): flat C^1 compared at K = 4, where the
    d_K^2 cap is pi/sqrt(8) = 1.11, with affine and degree-2 disks around
    p, the doubled-boundary-only disk among them."""
    space = ModelSpace(K=0.0, n=1)
    metric = space.metric()
    near, p = _doubled_boundary_only_disk(metric)
    sampler = DiskSampler(seed=9, count=24, size_range=(0.02, 0.3), center_radius=0.15,
                          degree2_fraction=0.5)
    stack = sample_disks(metric.chart, p, sampler, np.random.default_rng(9))
    return metric, 4.0, p, space.distance_field(p), stack[:12] + [near] + stack[12:]


def test_a_stack_has_the_bits_of_its_disks_alone():
    metric, K, p, dist, stack = _stack_case()
    assert {d.degree for d in stack} == {1, 2}
    ratios = set()
    for k in (64, 96, 128):
        grid = QuadratureGrid(n_boundary=k)
        alone = [comparison_defect(metric, d, p, K, distance=dist, grid=grid) for d in stack]
        got = comparison_defects(metric, stack, p, K, distance=dist, grid=grid)
        assert [_fields(r) for r in got] == [_fields(r) for r in alone]
        ratios |= {nb2 // nb1 for nb1, nb2 in
                   (_two_pass_rule(metric, d, p, K, dist, grid=grid)[1] for d in stack)}
    assert ratios == {1, 2, 4}


def test_a_stack_makes_one_distance_call_per_doubled_boundary_size():
    metric, K, p, dist, stack = _stack_case()
    calls = []

    def counting(zs):
        calls.append(len(zs))
        return dist(zs)

    comparison_defects(metric, stack, p, K, distance=counting)
    sizes = [_two_pass_rule(metric, d, p, K, dist)[1][1] for d in stack]
    assert set(sizes) == {128, 256}
    assert calls == [sizes.count(nb) * (1 + nb) for nb in (128, 256)]


def test_worst_defect_over_a_stack_skips_a_disk_past_the_cap():
    metric, K, p, dist, stack = _stack_case()
    far = DiskEmbedding.affine(np.array([-0.9 - 0.8j]), np.array([0.2]), metric.chart)
    with pytest.raises(DomainExceeded):
        comparison_defects(metric, stack + [far], p, K, distance=dist)
    big = DiskEmbedding.affine(p + 0.3, np.array([0.45]), metric.chart)
    for directed in (None, stack[3], big):
        cands = ([] if directed is None else [directed]) + stack
        alone = [(comparison_defect(metric, d, p, K, distance=dist), d) for d in cands]
        worst, disk = min(alone, key=lambda rd: rd[0].defect)
        for scan in (stack, stack[:7] + [far] + stack[7:]):     # the stack, the fallback
            res = worst_defect(metric, p, K, dist, scan, directed=directed)
            assert _fields(res.report) == _fields(worst)
            assert res.disk is disk and res.scanned == len(cands)
            assert res.directed == (directed is not None)
    assert disk is big                     # the directed disk is the worst


_TH = np.linspace(0, 2 * math.pi, 128, endpoint=False)
_GRID = np.concatenate([np.exp(1j * _TH) * r for r in (1.0, 0.7, 0.4, 0.1)])
_WDIFF = np.abs(np.exp(1j * _TH)[:, None] - np.exp(1j * _TH)[None, :])
np.fill_diagonal(_WDIFF, 1.0)


def _grid_validity(coeffs, chart) -> bool:
    """The sampled validity check that preceded the exact one: containment
    on four circles, the derivative on the same grid, and a 128 x 128
    boundary distance matrix for degree-2 maps.  True when it accepts."""
    c = np.asarray(coeffs, dtype=complex)

    def image(w):
        return (w[:, None] ** np.arange(c.shape[0])[None, :]) @ c

    if not np.all(chart.contains(image(_GRID))):
        return False
    dv = np.linalg.norm((_GRID[:, None] ** np.arange(c.shape[0] - 1)[None, :])
                        @ (np.arange(1, c.shape[0])[:, None] * c[1:]), axis=1)
    if np.min(dv) <= 1e-12 * np.max(dv):
        return False
    if c.shape[0] == 2:
        return True
    bnd = image(_GRID[:128])
    diff = np.linalg.norm(bnd[:, None, :] - bnd[None, :, :], axis=2)
    np.fill_diagonal(diff, np.inf)
    return bool(np.min(diff / _WDIFF) > 1e-9 * np.max(np.abs(c[1:])))


def _exact_validity(coeffs, chart) -> bool:
    try:
        DiskEmbedding(coeffs=coeffs, chart=chart)
    except ValueError:
        return False
    return True


VALIDITY_CHARTS = ([ModelSpace(K=K, n=n).chart for K in (1.0, -1.0, 0.0) for n in (1, 2)]
                   + [ConeSurface(alpha=0.5).chart, QuotientData().chart,
                      ComplexChart(n=2, radii=1.5)])


def _random_disks(chart, rng, count, max_ratio, degree2_fraction):
    """Disks spread over the chart, some leaving it, with log-uniform
    |c1| and |c2| / |c1| uniform in (0, max_ratio) for degree 2."""
    n, R = chart.n, float(chart.radii[0])

    def gauss():
        return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))

    def unit():
        v = gauss()
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    a = gauss() * R * rng.uniform(0.0, 1.2, (count, 1)) / math.sqrt(2 * n)
    size = R * np.exp(rng.uniform(math.log(1e-3), math.log(0.5), (count, 1)))
    b = unit() * size
    c2 = unit() * size * rng.uniform(0.0, max_ratio, (count, 1))
    deg2 = rng.uniform(size=count) < degree2_fraction
    return [np.stack([a[k], b[k], c2[k]][:2 + deg2[k]]) for k in range(count)]


def test_exact_validity_matches_the_grid_on_sampler_shaped_disks():
    rng = np.random.default_rng(20)
    decisions = []
    for chart in VALIDITY_CHARTS:
        for c in _random_disks(chart, rng, 1150, 0.4, 0.3):
            decisions.append((_exact_validity(c, chart), _grid_validity(c, chart)))
    decisions = np.array(decisions)
    assert len(decisions) >= 10_000
    assert np.array_equal(decisions[:, 0], decisions[:, 1])
    assert 0.05 < np.mean(decisions[:, 0]) < 0.95        # both outcomes occur


def test_exact_validity_rejects_only_non_embeddings_the_grid_missed():
    rng = np.random.default_rng(21)
    missed = 0
    for chart in VALIDITY_CHARTS:
        for c in _random_disks(chart, rng, 200, 1.5, 1.0):
            exact, grid = _exact_validity(c, chart), _grid_validity(c, chart)
            if exact == grid:
                continue
            assert grid and not exact and chart.n == 1
            # c1 + s c2 = 0 at |s| <= 2, so the boundary points w1, w2 with
            # w1 + w2 = s have the same image
            s = -c[1, 0] / c[2, 0]
            w1, w2 = s / 2 + np.array([1j, -1j]) * s / abs(s) * math.sqrt(1 - abs(s) ** 2 / 4)
            img = (np.array([1, w1, w1 * w1]) - np.array([1, w2, w2 * w2])) @ c
            assert abs(w1 - w2) > 1e-6 and abs(abs(w1) - 1) < 1e-12
            assert abs(img[0]) <= 1e-15 * np.sum(np.abs(c)) * 8, (c, w1, w2)
            missed += 1
    assert missed >= 100


# --- the batch rule and the chunked sampler against one disk at a time -----


def _one_disk_fault(c, chart) -> str:
    """The validity rule as DiskEmbedding applied it to one disk before the
    batch rule: the message of the first rule broken, "" if none."""
    if c.shape[0] == 1 or np.max(np.abs(c[1:])) == 0:
        return "disk map is constant"
    th = np.linspace(0, 2 * math.pi, 128, endpoint=False)
    w = np.exp(1j * th)
    if not np.all(chart.contains((w[:, None] ** np.arange(c.shape[0])[None, :]) @ c)):
        return "disk image leaves the chart"
    c1, c2 = np.concatenate([c[1:], np.zeros_like(c[:1])])[:2]
    c2_sq = np.vdot(c2, c2).real
    s = -np.vdot(c2, c1) / c2_sq if c2_sq > 0 else 0.0
    if abs(s) > 2.0:
        s *= 2.0 / abs(s)
    if np.linalg.norm(c1 + s * c2) <= 1e-9 * np.max(np.abs(c[1:])):
        return "disk map is not an embedding"
    return ""


def _edge_cases(chart):
    """Coefficient stacks on the edges of each rule, of degrees 1 and 2."""
    n, R = chart.n, float(chart.radii[0])
    u = np.zeros(n, dtype=complex)
    u[0] = 1.0
    v = np.full(n, 1.0 + 0.5j) / np.linalg.norm(np.full(n, 1.0 + 0.5j))
    rot = np.exp(0.7j)
    cases = [
        [0.1 * u, 0 * u], [0.1 * u, 0 * u, 0 * u],            # constant maps
        [0 * u, 0.1 * v, 0 * u],                               # degree 2, affine map
        [0 * u, 0.2 * v, -0.1 * v], [0 * u, 0.2 * v, -0.1 * rot * v],   # c1 + s c2 = 0, |s| = 2
        [0 * u, 0.2 * v, -0.0999 * v], [0 * u, 0.2 * v, -0.1001 * v],   # just outside, inside
        [0 * u, 0.2 * v, 0.1 * v], [0 * u, 0.19 * v, 0.1 * v],          # s = -2, s = -1.9
        [0 * u, 0.0 * u, 0.1 * v],                             # w -> w^2
        [0.5 * R * u, 0.5 * R * u], [0.5 * R * u, 0.5000001 * R * u],   # touch, leave
        [0.4 * R * u, 0.5 * R * u, 0.1 * R * u],               # touches at w = 1
        [0.4 * R * u, 0.5 * R * u, 0.1000001 * R * u],         # leaves at w = 1
        [0 * u, 2 * R * u], [0 * u, 0.3 * u, 0.01 * v],
    ]
    return [np.array(c) for c in cases]


def test_batch_rule_matches_the_one_disk_rule():
    rng = np.random.default_rng(23)
    for chart in VALIDITY_CHARTS + [ComplexChart(n=2, radii=0.8, kind="ball")]:
        coeffs = _edge_cases(chart) + _random_disks(chart, rng, 300, 1.5, 0.5)
        expected = [_one_disk_fault(c, chart) for c in coeffs]
        for c, msg in zip(coeffs, expected):
            try:
                DiskEmbedding(coeffs=c, chart=chart)
                assert msg == ""
            except ValueError as e:
                assert str(e) == msg, (c, msg)
        for M in (1, 2):                 # one stack per degree, the sampler's calls
            idx = [i for i, c in enumerate(coeffs) if len(c) == M + 1]
            faults = disk_faults(np.stack([coeffs[i] for i in idx]), chart)
            assert [DISK_FAULTS[f] for f in faults] == [expected[i] for i in idx]
        assert {"", *DISK_FAULTS[1:4]} <= set(expected)   # every rule is exercised


def test_batch_rule_checks_singular_clearance():
    chart = ComplexChart(n=1, radii=1.5)
    coeffs = np.array([[[0.3], [0.1]], [[0.5], [0.1]], [[0.0], [0.1]]], dtype=complex)
    sing = np.zeros(1, dtype=complex)
    assert list(disk_faults(coeffs, chart, 0.25, sing)) == [4, 0, 4]
    assert list(disk_faults(coeffs, chart, 0.25, None)) == [0, 0, 0]
    assert list(disk_faults(coeffs, chart)) == [0, 0, 0]
    assert DISK_FAULTS[4] == "disk image comes too close to a singular point"


def _sample_one_at_a_time(chart, center, sampler, rng, min_singular=0.0, singular_at=None):
    """The sampler before chunking: one attempt, then its validation, up to
    50 * count attempts.  Returns (coefficient arrays, attempts)."""
    n = chart.n
    center = np.asarray(center, dtype=complex).reshape(n)
    lo, hi = sampler.size_range
    out, attempts = [], 0
    while len(out) < sampler.count and attempts < 50 * sampler.count:
        attempts += 1
        size = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        a = center + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            * sampler.center_radius / math.sqrt(2 * n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = b / np.linalg.norm(b) * size
        coeffs = [a, b]
        if rng.uniform() < sampler.degree2_fraction:
            c2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            coeffs.append(c2 / np.linalg.norm(c2) * size * rng.uniform(0.1, 0.4))
        c = np.stack(coeffs)
        if _one_disk_fault(c, chart):
            continue
        if min_singular > 0.0 and singular_at is not None:
            th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
            grid = np.concatenate([np.exp(1j * th) * r for r in (1.0, 0.6, 0.25)]
                                  + [np.zeros(1)])
            pts = (grid[:, None] ** np.arange(c.shape[0])[None, :]) @ c
            if np.min(np.linalg.norm(pts - np.asarray(singular_at)[None], axis=1)) \
                    < min_singular:
                continue
        out.append(c)
    return out, attempts


# (chart, sampler, min_singular, least share of attempts rejected over the seeds)
SAMPLER_CASES = {
    "box-1": (ComplexChart(n=1, radii=1.0), DiskSampler(count=12), 0.0, 0.0),
    "box-2": (ComplexChart(n=2, radii=1.0), DiskSampler(count=12, degree2_fraction=0.6), 0.0, 0.0),
    "ball-1": (ComplexChart(n=1, radii=0.8, kind="ball"),
               DiskSampler(count=10, size_range=(0.05, 0.5)), 0.0, 0.0),
    "ball-2": (ComplexChart(n=2, radii=1.2, kind="ball"), DiskSampler(count=10), 0.0, 0.0),
    "box-2-rejecting": (ComplexChart(n=2, radii=1.0),
                        DiskSampler(count=10, center_radius=0.95, size_range=(0.3, 0.7)),
                        0.0, 0.5),
    "ball-1-rejecting": (ComplexChart(n=1, radii=1.0, kind="ball"),
                         DiskSampler(count=10, center_radius=0.9, size_range=(0.3, 0.6),
                                     degree2_fraction=0.8), 0.0, 0.5),
    "box-1-singular": (ComplexChart(n=1, radii=1.5),
                       DiskSampler(count=12, center_radius=0.3, size_range=(0.01, 0.4)),
                       0.15, 0.1),
    "ball-2-singular": (ComplexChart(n=2, radii=1.0, kind="ball"), DiskSampler(count=8),
                        0.3, 0.1),
    "box-1-short": (ComplexChart(n=1, radii=1.0), DiskSampler(count=2, size_range=(1.2, 1.4)),
                    0.0, 1.0),
    # every chunk with one degree only
    "box-2-affine": (ComplexChart(n=2, radii=1.0), DiskSampler(count=12, degree2_fraction=0.0),
                     0.0, 0.0),
    "ball-1-degree2": (ComplexChart(n=1, radii=1.0, kind="ball"),
                       DiskSampler(count=10, center_radius=0.8, degree2_fraction=1.0), 0.0, 0.1),
    "box-3": (ComplexChart(n=3, radii=1.0), DiskSampler(count=10, degree2_fraction=0.5), 0.0, 0.0),
}


@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_chunked_sampler_matches_the_one_disk_loop(case):
    chart, sampler, min_singular, rejected_share = SAMPLER_CASES[case]
    center = np.full(chart.n, 0.05 + 0.02j)
    singular = np.full(chart.n, 0.1j) if min_singular else None
    accepted = attempted = 0
    for seed in range(50):
        smp = dataclasses.replace(sampler, seed=seed)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref, attempts = _sample_one_at_a_time(chart, center, smp, ref_rng, min_singular,
                                              singular)
        got = sample_disks(chart, center, smp, rng, min_singular, singular)
        assert [(d.coeffs.shape, d.coeffs.tobytes()) for d in got] \
            == [(c.shape, c.tobytes()) for c in ref]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert all(d.chart is chart for d in got)
        accepted, attempted = accepted + len(ref), attempted + attempts
    assert 1.0 - accepted / attempted >= rejected_share


def test_short_sample_is_logged(caplog):
    chart = ComplexChart(n=1, radii=1.0)
    with caplog.at_level(logging.INFO, logger="kahlerlab"):
        assert sample_disks(chart, np.zeros(1), DiskSampler(count=4), np.random.default_rng(0))
        assert not caplog.records
        short = sample_disks(chart, np.zeros(1), DiskSampler(count=4, size_range=(1.2, 1.4)),
                             np.random.default_rng(0))
    assert short == []
    assert [r.getMessage() for r in caplog.records] \
        == ["sampled 0 of 4 disks in 200 attempts, 200 rejected"]


# --- the interior rule against dense references -----------------------------


def _dyadic_interior(n_r, n_theta, lo=0.0, hi=1.0):
    """Reference rule: Gauss-Legendre on 24 dyadic panels below ``hi``
    (one plain panel on [lo, hi] when lo > 0) times uniform angles;
    returns (nodes, weights) for flat dA."""
    x, wgl = np.polynomial.legendre.leggauss(n_r)
    rs, ws = [], []
    for _ in range(24 if lo == 0.0 else 1):
        a = hi / 2.0 if lo == 0.0 else lo
        rs.append(a + (hi - a) * 0.5 * (x + 1.0))
        ws.append(0.5 * (hi - a) * wgl)
        hi = a
    r = np.concatenate(rs)
    wr = np.concatenate(ws) * r * (2.0 * math.pi / n_theta)
    th = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    return (r[:, None] * np.exp(1j * th)[None, :]).ravel(), np.repeat(wr, n_theta)


def _dense_area_integral(metric, disk, f, kinks=()):
    """iint f(|w|) dA on 64 x 128 dyadic panels below the first kink and
    plain Gauss panels between the kinks of f.  The dyadic panels leave out
    |w| < 2^-24 times the first kink: for the annulus integrands that is
    below 1e-20; ``_dense_log_moment`` adds it back."""
    edges = (0.0, *kinks, 1.0)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes, w = _dyadic_interior(64, 128, lo, hi)
        total += float(np.sum(w * f(np.abs(nodes)) * area_density(metric, [disk], nodes)[0]))
    return total


def _dense_log_moment(metric, disk):
    c = 2.0 ** -24               # rho(0) times 2 pi int_0^c r log r dr
    core = area_density(metric, [disk], np.zeros(1))[0, 0] * math.pi * c * c * (math.log(c) - 0.5)
    return (2.0 / math.pi) * (_dense_area_integral(metric, disk, np.log) + core)


def _acceptance06_torsion_disk():
    T = np.zeros((2, 2, 2))
    T[0, 0, 1], T[0, 1, 0] = -0.5, 0.5
    chart = ComplexChart(n=2, radii=1.5)
    disk = DiskEmbedding.affine(5e-2 * np.array([1.0, 0.0]),
                                5e-3 * np.array([1.0, 1.0]), chart)
    return torsion_metric(T, chart), disk


def _model_disks():
    """(space, metric, disk, p) on sampled disks of the model spaces."""
    cases = []
    for K, n in [(1.0, 1), (1.0, 2), (-1.0, 1), (-1.0, 2), (2.0, 1), (2.0, 2),
                 (0.0, 1), (0.0, 2)]:
        space = ModelSpace(K=K, n=n)
        metric = space.metric()
        p = np.full(n, 0.05 + 0.02j)
        seed = 30 + len(cases)
        for d in sample_disks(metric.chart, p, DiskSampler(seed=seed, count=8),
                              np.random.default_rng(seed)):
            cases.append((space, metric, d, p))
    return cases


@pytest.fixture(scope="module")
def dense_cases():
    """(space, metric, disk, p, dense log moment): the model disks, a cone
    disk clear of the apex and one near it, and a wide disk of the K = -1
    plane on which the base rule is 3.5e-13 off."""
    cases = _model_disks()
    cone = ConeSurface(alpha=0.5)
    for c in (0.8 + 0.1j, 0.3 + 0.1j):
        cases.append((cone, cone.metric(), DiskEmbedding.affine([c], [0.25], cone.chart),
                      np.array([0.6 + 0.0j])))
    wide = ModelSpace(K=-1.0, n=1)
    coeffs = [[0.20985503 + 0.26138107j], [0.13090486 - 0.23961661j],
              [-0.03813202 + 0.06528822j]]
    cases.append((wide, wide.metric(), DiskEmbedding(coeffs=np.array(coeffs), chart=wide.chart),
                  np.array([0.05 + 0.02j])))
    return [case + (_dense_log_moment(case[1], case[2]),) for case in cases]


def test_dense_reference_is_exact_on_flat_disks(dense_cases):
    # flat C^n: the log moment of a polynomial disk is -sum_{m>=1} |c_m|^2
    flat = [(d, ref) for space, _, d, _, ref in dense_cases
            if isinstance(space, ModelSpace) and space.K == 0.0]
    assert len(flat) >= 10
    for d, ref in flat:
        assert abs(ref + float(np.sum(np.abs(d.coeffs[1:]) ** 2))) <= 1e-16


def test_log_moment_matches_the_dyadic_reference(dense_cases):
    # all but the disk near the cone's apex and the wide disk
    cases = [(metric, d, ref) for _, metric, d, _, ref in dense_cases[:-2]]
    metric, d = _acceptance06_torsion_disk()
    cases.append((metric, d, _dense_log_moment(metric, d)))
    assert len(cases) >= 60
    for metric, d, ref in cases:
        assert abs(log_moment(metric, [d])[0] - ref) <= 1e-13
        assert abs(log_moment(metric, [d], QuadratureGrid().doubled())[0] - ref) <= 1e-13


def test_interior_rule_counts_and_weights():
    for grid, rows in [(QuadratureGrid(), 16), (QuadratureGrid().doubled(), 32)]:
        nodes, w = grid.interior()
        assert len(nodes) == len(w) == rows * grid.n_theta
        assert np.all(np.abs(nodes) < 1.0) and np.all(w > 0)
        assert np.sum(w) == pytest.approx(math.pi, rel=1e-14)          # area of D^2


def _f_eps(r, eps):
    return np.where(r <= eps, math.log(eps) + eps,
                    np.where(r <= math.exp(-eps), np.log(r) + eps, 0.0))


def test_annulus_rule_matches_a_dense_kink_aligned_reference(dense_cases):
    space = ModelSpace(K=1.0, n=2)
    disk = DiskEmbedding.affine(np.array([0.1, 0.05]), np.array([0.12, 0.08j]), space.chart)
    cases = [(space, disk, np.array([0.05 + 0.02j, 0.0]))]
    cases += [(s, d, p) for s, _, d, p, _ in dense_cases[:-3:16]]
    bw, _ = QuadratureGrid().boundary()
    for space, disk, p in cases:
        metric, K, dist = space.metric(), space.K, space.distance_field(p)
        for eps in (0.05, 0.02):
            kinks = (eps, math.exp(-eps))
            bulk = _dense_area_integral(metric, disk, lambda r: _f_eps(r, eps), kinks)
            ring = 0.25 * (2.0 * math.pi / len(bw)) * float(np.sum(
                dK_transform(dist(disk(eps * bw)), K)
                - dK_transform(dist(disk(math.exp(-eps) * bw)), K)))
            val = annulus_defects(metric, [disk], K, [eps], distance=dist)[0][0, 0]
            assert abs(val - (ring - bulk)) <= 1e-12
            tail = _dense_area_integral(metric, disk, lambda r: _f_eps(r, eps) - np.log(r),
                                        kinks)
            assert abs(annulus_tail(metric, disk, eps) - tail) <= 1e-12


def test_annulus_vanishes_on_a_cone_disk_clear_of_the_apex():
    # clear of the apex and of the cut locus of p the cone is flat, so
    # u = phi - d^2/2 is harmonic on the disk: both circle means are u(i(0))
    for alpha in (0.5, 1 / 3):
        cone = ConeSurface(alpha=alpha)
        disk = DiskEmbedding.affine([0.3 + 0.1j], [0.25], cone.chart)
        dist = cone.distance_field(np.array([0.6 + 0.0j]))
        for eps in (0.05, 0.02):
            val = annulus_defects(cone.metric(), [disk], 0.0, [eps], distance=dist)[0][0, 0]
            assert abs(val) <= 1e-11, (alpha, eps, val)


def test_annulus_needs_a_potential():
    metric, disk = _acceptance06_torsion_disk()
    with pytest.raises(ValueError, match="potential"):
        annulus_defects(metric, [disk], 0.0, [0.05], distance=lambda zs: np.abs(zs[:, 0]))
    with pytest.raises(ValueError, match="potential"):
        annulus_tail(metric, disk, 0.05)


def test_boundary_form_matches_the_dyadic_reference(dense_cases):
    # every case is potential-form, so the report's log moment is the
    # boundary form 2 (phi(i(0)) - mean phi) of the doubled level
    for space, metric, d, p, ref in dense_cases:
        assert metric.is_potential_form
        rep = comparison_defect(metric, d, p, getattr(space, "K", 0.0),
                                distance=space.distance_field(p))
        assert abs(rep.log_moment - ref) <= 1e-15, d.coeffs


def test_error_estimate_bounds_the_distance_to_a_dense_rule(dense_cases):
    dense_bw, _ = QuadratureGrid(n_boundary=1024).boundary()
    for space, metric, d, p, dense_lm in dense_cases:
        K = getattr(space, "K", 0.0)
        dist = space.distance_field(p)
        rep = comparison_defect(metric, d, p, K, distance=dist)
        ref = rep.lhs - dense_lm - float(np.mean(dK_transform(dist(d(dense_bw)), K)))
        assert abs(rep.defect - ref) <= rep.error_estimate
    # numeric distances: the dense rule replaces the log moment only
    metric, d = _acceptance06_torsion_disk()
    rep = comparison_defect(metric, d, np.zeros(2, dtype=complex), 0.0, distance="numeric",
                            solver_opts=dict(N=24, gtol=1e-8, max_iters=120))
    ref = rep.lhs - _dense_log_moment(metric, d) - rep.boundary_avg
    assert abs(rep.defect - ref) <= rep.error_estimate


def test_torsion_gram_is_hermitian_and_matches_the_einsum_form():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        T = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        T = 0.3 * (T - T.transpose(0, 2, 1))
        zs = 0.4 * (rng.standard_normal((500, n)) + 1j * rng.standard_normal((500, n)))
        G = torsion_metric(T, ComplexChart(n=n, radii=1.5)).gram(zs, check=False)
        lin = np.einsum("bja,pj->pab", T, zs)
        ref = 0.5 * (np.eye(n) + lin + np.conj(np.swapaxes(lin, 1, 2)))
        assert np.array_equal(G, np.conj(np.swapaxes(G, 1, 2)))
        assert np.max(np.abs(G - ref)) <= 1e-15


def _density_cases():
    """(name, metric, disks) with degree-1 and degree-2 disks: models with
    n = 1, 2, 3, a cone clear of its apex, the torsion metric (direct form)
    and a potential-form field with the FD reference's gram (the FD route)."""
    rng = np.random.default_rng(12)
    T = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    model = ModelSpace(K=1.0, n=2)
    cone = ConeSurface(alpha=0.5)
    fields = [(f"model K={K} n={n}", ModelSpace(K=K, n=n).metric(), np.full(n, 0.1 + 0.05j))
              for n in (1, 2, 3) for K in (1.0, -1.0)]
    fields += [("cone", cone.metric(), np.array([0.7 + 0.1j])),
               ("torsion", torsion_metric(0.3 * (T - T.transpose(0, 2, 1)),
                                          ComplexChart(n=3, radii=1.0)), np.full(3, 0.1)),
               ("fd", fd_metric(model.chart, model.potential()), np.full(2, 0.1 + 0.05j))]
    sampler = DiskSampler(seed=1, count=10, degree2_fraction=0.5, size_range=(1e-3, 0.2),
                          center_radius=0.1)
    for name, metric, center in fields:
        clear = dict(min_singular=0.05, singular_at=np.zeros(1)) if name == "cone" else {}
        ds = sample_disks(metric.chart, center, sampler, rng, **clear)
        assert {d.degree for d in ds} == {1, 2}, name
        yield name, metric, ds


def test_a_stack_has_the_density_and_log_moment_bits_of_each_disk_alone():
    rng = np.random.default_rng(6)
    orbifold = orbifold_cone(3)
    cases = list(_density_cases()) + [("orbifold", orbifold.metric(), sample_disks(
        orbifold.chart, np.array([0.7 + 0.1j]),
        DiskSampler(seed=2, count=10, degree2_fraction=0.5), rng,
        min_singular=0.05, singular_at=np.zeros(1)))]
    for name, metric, ds in cases:
        assert {d.degree for d in ds} == {1, 2}, name
        u = rng.random((2, len(ds), 7))
        per_disk = np.sqrt(0.49 * u[0]) * np.exp(2j * math.pi * u[1])
        for w in (QuadratureGrid().interior()[0], per_disk):
            dens = area_density(metric, ds, w)
            assert dens.shape == (len(ds), w.shape[-1]), name
            alone = [area_density(metric, [d], w if w.ndim == 1 else w[k])[0]
                     for k, d in enumerate(ds)]
            assert np.array_equal(dens, alone), name
        for grid in (QuadratureGrid(), QuadratureGrid().doubled()):
            lm = log_moment(metric, ds, grid)
            assert np.array_equal(lm, [log_moment(metric, [d], grid)[0] for d in ds]), name


def test_an_annulus_stack_has_the_bits_of_each_disk_and_eps_alone():
    eps_list = (0.05, 0.02, 0.01)
    for space, p, K in ((ConeSurface(alpha=0.5), np.array([0.6]), 0.0),
                        (orbifold_cone(3), np.array([0.1 + 0.05j]), 0.0),
                        (ModelSpace(K=1.0, n=2), np.array([0.05 + 0.02j, 0.0]), 1.0)):
        metric, dist = space.metric(), space.distance_field(p)
        ds = sample_disks(metric.chart, p, DiskSampler(seed=5, count=12), np.random.default_rng(5))
        for grid in (None, QuadratureGrid().doubled()):
            vals, errors = annulus_defects(metric, ds, K, eps_list, dist, grid)
            assert vals.shape == (len(ds), len(eps_list))
            assert np.array_equal(vals, [[annulus_defects(metric, [d], K, [eps], dist,
                                                          grid)[0][0, 0]
                                          for eps in eps_list] for d in ds])
            doubled = annulus_defects(metric, ds, K, eps_list, dist,
                                      (grid or QuadratureGrid()).doubled())[0]
            assert np.array_equal(errors, np.abs(doubled - vals))


def _exact_contraction(G, v) -> np.ndarray:
    """2 sum_ij Re(G_ij v_i conj v_j) of float G and v, rounded once from
    exact rational arithmetic."""
    out = []
    for g, x in zip(G, v):
        xr, xi = [Fraction(float(a)) for a in x.real], [Fraction(float(a)) for a in x.imag]
        q = sum(Fraction(float(g[i, j].real)) * (xr[i] * xr[j] + xi[i] * xi[j])
                - Fraction(float(g[i, j].imag)) * (xi[i] * xr[j] - xr[i] * xi[j])
                for i in range(len(x)) for j in range(len(x)))
        out.append(float(2 * q))
    return np.array(out)


def test_area_density_matches_the_einsum_form():
    w = QuadratureGrid().interior()[0]
    for name, metric, ds in _density_cases():
        for d in ds:
            [dens] = area_density(metric, [d], w)
            pts, dv = d(w), d.deriv(w)
            G = metric.gram(pts, check=False)
            ref = 2.0 * np.einsum("pij,pi,pj->p", G, dv, np.conj(dv)).real
            # both forms are within 4 ulp of the exact contraction
            assert np.all(np.abs(dens - ref) <= 8 * np.spacing(ref)), name
            sub = slice(None, None, 16)
            exact = _exact_contraction(G[sub], dv[sub])
            assert np.all(np.abs(dens[sub] - exact) <= 4 * np.spacing(exact)), name


def _power_sums(disk, w):
    """i(w), i'(w) and their error scales sum_m |c_m| |w|^m and
    sum_m m |c_m| |w|^(m-1), from explicit powers of w."""
    m = np.arange(disk.degree + 1)
    c, aw = disk.coeffs, np.abs(w)[:, None]
    return (w[:, None] ** m @ c, w[:, None] ** m[:-1] @ (m[1:, None] * c[1:]),
            aw ** m @ np.abs(c), aw ** m[:-1] @ (m[1:, None] * np.abs(c[1:])))


def test_disk_map_is_one_horner_pass():
    rng = np.random.default_rng(11)
    w = np.concatenate([np.sqrt(rng.uniform(0, 1, 300)) * np.exp(2j * np.pi * rng.uniform(0, 1, 300)),
                        np.exp(2j * np.pi * np.arange(64) / 64), np.zeros(1)])
    for n in (1, 2, 3):
        chart = ComplexChart(n=n, radii=1.5)
        ds = sample_disks(chart, np.full(n, 0.1 + 0.05j),
                          DiskSampler(seed=n, count=60, degree2_fraction=0.5), rng)
        assert {d.degree for d in ds} == {1, 2}
        for d in ds:
            # the values-only pass has the bits of the pass with i'
            both, alone = disks._horner(d.coeffs, w), disks._horner(d.coeffs, w, deriv=False)
            assert alone[1] is None and alone[0].tobytes() == both[0].tobytes()
            val, der, val_scale, der_scale = _power_sums(d, w)
            for got, ref, scale in ((d(w), val, val_scale), (d.deriv(w), der, der_scale)):
                assert got.shape == (len(w), n)
                for part in (np.real, np.imag):
                    assert np.all(np.abs(part(got) - part(ref)) <= 4 * np.spacing(scale))
        # the batched images are each disk's own map, bit for bit
        assert disks.disk_images(ds, w, n).tobytes() == np.stack([d(w) for d in ds]).tobytes()
        rows = w[rng.integers(0, len(w), (len(ds), 17))]
        assert disks.disk_images(ds, rows, n).tobytes() == \
            np.stack([d(r) for d, r in zip(ds, rows)]).tobytes()


def test_quadrature_rules_are_cached_and_read_only():
    grid = QuadratureGrid()
    for rule in (grid.interior, grid.doubled().interior, grid.boundary):
        arrays = rule()
        assert all(a is b for a, b in zip(arrays, rule()))
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0
