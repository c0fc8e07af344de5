"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL
line for the run log.  Tolerances are stated inline next to each
assertion.
"""

import math
import time

import numpy as np
import pytest

from curvature_reference import bianchi_check
from kahlerlab.curvature import TangentPair, curvature_tensor, min_bk_defect
from kahlerlab.disks import (DiskEmbedding, asymptotic_defect,
                             comparison_defect, rprime_value,
                             torsion_expected_defect, torsion_metric,
                             violation_disk)
from kahlerlab.fields import ComplexChart
from kahlerlab.geodesy import PlanarDomain, RectObstacle
from kahlerlab.models import ConeSurface, ModelSpace, QuotientData, dK_transform
from kahlerlab.psh import (DiskSampler, check_bk_lower, disk_laplacian,
                           k_threshold, quotient_bk2_check,
                           radial_potential_check)


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_acceptance_01_model_curvature_identity():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(10)
    for K in (1.0, -1.0):
        space = ModelSpace(K=K, n=2)
        metric = space.metric()
        for _ in range(25):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z *= 0.5 * rng.uniform() / np.linalg.norm(z)
            data = curvature_tensor(metric, z)
            G = data.G
            closed = -(space.c / 2.0) * (np.einsum("ij,kl->ijkl", G, G)
                                         + np.einsum("il,kj->ijkl", G, G))
            worst = max(worst, float(np.max(np.abs(data.R - closed))
                                     / np.max(np.abs(closed))))
    dt = time.time() - t0
    _report(1, worst <= 1e-5 and dt <= 30.0,
            f"max rel err {worst:.2e} over 50 points, {dt:.1f}s")


def test_acceptance_02_sharp_bound_certification():
    vals = {}
    for K in (1.0, -1.0):
        space = ModelSpace(K=K, n=2)
        data = curvature_tensor(space.metric(),
                                np.array([0.1 + 0.05j, -0.02 + 0.1j]))
        vals[K], _, _ = min_bk_defect(data, K)
    m1 = ModelSpace(K=1.0, n=1)
    thr = k_threshold(m1, m1.potential(), np.array([0.1 + 0.05j]), 0.5, 2.0,
                      resolution=1e-3,
                      sampler=DiskSampler(count=40, interior_points=6,
                                          size_range=(0.05, 0.3)),
                      tol=1e-7)
    ok = all(-1e-6 <= v <= 1e-6 for v in vals.values()) \
        and abs(thr - 1.0) <= 1e-3
    _report(2, ok, f"defects {vals[1.0]:.2e}/{vals[-1.0]:.2e}, "
                   f"threshold {thr:.5f}")


def test_acceptance_03_flat_equality():
    space = ModelSpace(K=0.0, n=2)
    metric = space.metric()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        p = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        a = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b *= rng.uniform(0.02, 0.25) / np.linalg.norm(b)
        disk = DiskEmbedding.affine(a, b, metric.chart)
        rep = comparison_defect(metric, disk, p, 0.0,
                                distance=space.distance_field(p))
        worst = max(worst, abs(rep.defect))
    _report(3, worst <= 1e-8, f"max |defect| {worst:.2e} over 100 disks")


def test_acceptance_04_model_equality_numeric():
    t0 = time.time()
    rng = np.random.default_rng(12)
    worst = 0.0
    for K in (1.0, -1.0):
        space = ModelSpace(K=K, n=2)
        metric = space.metric()
        for _ in range(25):
            p = 0.15 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            a = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b *= rng.uniform(0.05, 0.3) / np.linalg.norm(b)
            disk = DiskEmbedding.affine(a, b, metric.chart)
            rep = comparison_defect(metric, disk, p, K, distance="numeric")
            worst = max(worst, abs(rep.defect))
    dt = time.time() - t0
    _report(4, worst <= 5e-3 and dt <= 600.0,
            f"max |defect| {worst:.2e} over 50 numeric disks, {dt:.0f}s")


def test_acceptance_05_violation_asymptotics():
    space = ModelSpace(K=0.0, n=2)
    metric = space.metric()
    p = np.zeros(2, dtype=complex)
    data = curvature_tensor(metric, p)
    pair = TangentPair(X=np.array([1.0, 0.0]), Y=np.array([0.0, 1.0]),
                       G=data.G)
    rp = rprime_value(data, 1.0, pair)
    dist = space.distance_field(p)
    ratios = []
    errs = []
    for e2 in (5e-2, 2.5e-2, 1.25e-2):
        e1 = 5e-3 * (e2 / 5e-2) ** 1.5
        disk = violation_disk(metric, p, pair, e1, e2)
        rep = comparison_defect(metric, disk, p, 1.0, distance=dist)
        pred = asymptotic_defect(rp, e1, e2)
        ratios.append(rep.defect / pred)
        errs.append(rep.error_estimate / abs(pred))
    gaps = [abs(r - 1.0) for r in ratios]
    ok = 0.8 <= ratios[0] <= 1.2 and all(
        b <= a + e for a, b, e in zip(gaps, gaps[1:], errs[1:]))
    _report(5, ok, "ratios " + ", ".join(f"{r:.4f}" for r in ratios))


def test_acceptance_06_torsion_obstruction():
    n = 2
    T = np.zeros((n, n, n))
    T[0, 0, 1] = -0.5
    T[0, 1, 0] = 0.5
    chart = ComplexChart(n=n, radii=1.5)
    metric = torsion_metric(T, chart)
    a = np.array([1.0, 1.0], dtype=complex)
    b = np.array([1.0, 0.0], dtype=complex)
    e1, e2 = 5e-3, 5e-2
    expected = torsion_expected_defect(T, a, b, e1, e2)
    disk = DiskEmbedding.affine(e2 * b, e1 * a, chart)
    rep = comparison_defect(metric, disk, np.zeros(n, dtype=complex), 0.0,
                            distance="numeric",
                            solver_opts=dict(N=24, gtol=1e-8, max_iters=120))
    ok = rep.defect < 0 and expected * 2.0 <= rep.defect <= expected / 2.0
    _report(6, ok, f"defect {rep.defect:.3e}, expected {expected:.3e}")


def test_acceptance_07_domain_criterion():
    chart = ComplexChart(n=1, radii=2.0)
    slab = RectObstacle(center=np.array([0.0, 0.0]),
                        half_widths=np.array([0.15, 1.2]))
    dom = PlanarDomain(chart=chart, obstacles=(slab,))
    p, q = -1.2 + 0.0j, 1.2 + 0.0j
    dist = dom.distance_field(p)
    L = dist(q)[0]
    ratio = L / abs(q - p)
    metric = dom.metric()
    # off the symmetry axis the shadow-region distance is corner-centered
    # and the comparison fails; on the axis the cut locus masks it
    disk = DiskEmbedding.affine(np.array([q + 0.4j]), np.array([0.15]), chart)
    rep = comparison_defect(metric, disk, np.array([p]), 0.0, distance=dist)

    convex = PlanarDomain(chart=chart, obstacles=())
    dist0 = convex.distance_field(p)
    rng = np.random.default_rng(13)
    worst0 = math.inf
    for _ in range(10):
        c = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        r = rng.uniform(0.05, 0.2)
        d0 = DiskEmbedding.affine(np.array([c]), np.array([r]), chart)
        rep0 = comparison_defect(metric, d0, np.array([p]), 0.0,
                                 distance=dist0)
        worst0 = min(worst0, rep0.defect)
    ok = ratio >= 1.1 and rep.defect < 0 and worst0 >= -1e-6
    _report(7, ok, f"length ratio {ratio:.3f}, slab defect {rep.defect:.3e}, "
                   f"convex worst {worst0:.2e}")


def test_acceptance_08_singular_cones():
    sampler = DiskSampler(count=200, interior_points=5)
    mins = {}
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0):
        cone = ConeSurface(alpha=alpha)
        v = check_bk_lower(cone, cone.potential(), 0.7 + 0.1j, 0.0,
                           sampler=sampler, crossing_tests=20)
        mins[alpha] = v
    wide = ConeSurface(alpha=-0.5)
    bad = check_bk_lower(wide, wide.potential(), 0.7 + 0.0j, 0.0,
                         sampler=DiskSampler(count=50, interior_points=5),
                         center=np.array([-0.5 + 0.2j]), crossing_tests=10)
    reproduced = False
    if not bad.passed and bad.witness is not None:
        disk = DiskEmbedding(coeffs=np.array(bad.witness["coeffs"],
                                             dtype=complex), chart=wide.chart)
        dist = wide.distance_field(0.7 + 0.0j)
        pot = wide.potential()

        def u(zs):
            return pot(zs) - 0.5 * dK_transform(dist(zs), 0.0)

        if bad.witness["kind"] == "pointwise":
            val = disk_laplacian(u, disk, bad.witness["w"])
        else:
            from kahlerlab.psh import distributional_pairing
            val = distributional_pairing(u, disk)
        reproduced = val < 0 and abs(val - bad.witness["value"]) \
            <= 0.01 * abs(bad.witness["value"])
    ok = all(v.passed for v in mins.values()) and not bad.passed and reproduced
    detail = ", ".join(f"a={a:.2f}:{v.verdict}" for a, v in mins.items())
    _report(8, ok, f"{detail}; wide cone {bad.verdict} "
                   f"min {bad.min_laplacian:.2e} witness reproduced")


def test_acceptance_09_tangent_cone_potential():
    worst = 0.0
    for alpha in (0.0, 0.5, 2.0 / 3.0):
        r = radial_potential_check(ConeSurface(alpha=alpha), tol=1e-4)
        worst = max(worst, r.max_mismatch)
        assert r.verdict == "PASS"
    _report(9, worst <= 1e-4, f"max density mismatch {worst:.2e}")


def test_acceptance_10_quotient_bound():
    q = QuotientData()
    good = quotient_bk2_check(q, 0.3 + 0.2j)
    bad = quotient_bk2_check(q, 0.3 + 0.2j,
                             h_extra=lambda z: 1.0 + 0.5 * np.abs(z) ** 4)
    ok = good.passed and good.min_laplacian >= -1e-5 and good.saturated \
        and not bad.passed
    _report(10, ok, f"round min {good.min_laplacian:.2e} "
                    f"saturated={good.saturated}; perturbed {bad.verdict}")


def test_acceptance_11_invariant_suites():
    t0 = time.time()
    notes = []

    # curvature symmetries and the Kahler Bianchi-type identity
    data = curvature_tensor(ModelSpace(K=1.0, n=2).metric(),
                            np.array([0.12 + 0.03j, -0.04 + 0.09j]))
    sym = data.symmetry_residual()
    rng = np.random.default_rng(14)
    bia = max(bianchi_check(data, rng.standard_normal(4),
                            rng.standard_normal(4)) for _ in range(5))
    notes.append(f"sym {sym:.1e} bianchi {bia:.1e}")
    ok = sym < 1e-5 and bia < 1e-4

    # rotation covariance of comparison reports
    space = ModelSpace(K=0.0, n=2)
    metric = space.metric()
    p = np.array([0.05, 0.1j])
    dist = space.distance_field(p)
    disk = DiskEmbedding.affine(np.array([0.2, 0.0]), np.array([0.1, 0.05j]),
                                metric.chart)
    r1 = comparison_defect(metric, disk, p, 0.0, distance=dist)
    r2 = comparison_defect(metric, disk.rotated(1.3), p, 0.0, distance=dist)
    ok &= abs(r1.defect - r2.defect) < 1e-10

    # dK monotonicity in K and the small-distance expansion
    d = 1e-2
    series = d * d * (1.0 + 1.0 * d * d / 12.0 + (1.0 * d * d) ** 2 / 90.0)
    ok &= abs(dK_transform(d, 1.0) - series) < 1e-10
    vals = [dK_transform(0.5, K) for K in (-1.0, 0.0, 1.0)]
    ok &= vals[0] < vals[1] < vals[2]

    # triangle inequality on model spaces
    for K in (1.0, -1.0):
        sp = ModelSpace(K=K, n=2)
        pts = 0.3 * (rng.standard_normal((60, 3, 2))
                     + 1j * rng.standard_normal((60, 3, 2)))
        for tri in pts:
            d01, d02 = sp.distance_field(tri[0])(tri[1:])
            ok &= d02 <= d01 + sp.distance_field(tri[1])(tri[2])[0] + 1e-12

    # determinism of seeded searches
    v1, _, _ = min_bk_defect(data, 1.0, seed=3)
    v2, _, _ = min_bk_defect(data, 1.0, seed=3)
    ok &= v1 == v2

    dt = time.time() - t0
    _report(11, ok and dt <= 1200.0, "; ".join(notes) + f"; {dt:.1f}s")
