import math

import numpy as np
import pytest

from disk_stacks import padded, sampled
from kahlerlab import fd, psh
from kahlerlab.disks import DiskEmbedding, area_density, disk_coeffs, disk_images
from kahlerlab.errors import KahlerLabError, Unsupported
from kahlerlab.fields import ComplexChart, ScalarField
from kahlerlab.models import ConeSurface, ModelSpace, QuotientData, model_distance
from kahlerlab.psh import (ComplexLine, DiskSampler, check_bk_lower, disk_laplacian,
                           distributional_pairing, k_threshold,
                           quotient_bk2_check, radial_potential_check)


def sample_interior_points(sampler, rng):
    """One disk's interior points, drawn as the checks drew them one disk
    at a time: ``sampler.interior_points`` points of |w| < 0.7."""
    r = np.sqrt(rng.uniform(0.0, 0.49, sampler.interior_points))
    th = rng.uniform(0.0, 2 * math.pi, sampler.interior_points)
    return r * np.exp(1j * th)


def _chart(n=2):
    return ComplexChart(n=n, radii=1.5)


def test_disk_laplacian_pluriharmonic_is_zero():
    f = ScalarField(fn=lambda zs: zs[:, 0].real, n=2)
    d = DiskEmbedding.affine(np.array([0.1, 0.0]), np.array([0.3, 0.2j]),
                             _chart())
    ws = np.array([0.0, 0.4 + 0.1j, -0.2j])
    assert np.max(np.abs(disk_laplacian(f, d, ws))) < 1e-8


def test_disk_laplacian_holomorphic_cubes_are_harmonic():
    f = ScalarField(fn=lambda zs: (zs[:, 0] ** 3 + zs[:, 1] ** 2).real, n=2)
    d = DiskEmbedding.affine(np.array([0.2, 0.1]), np.array([0.2, 0.3]),
                             _chart())
    assert np.max(np.abs(disk_laplacian(f, d, np.array([0.1 + 0.2j])))) < 1e-7


def test_disk_laplacian_flat_potential():
    f = ScalarField(fn=lambda zs: 0.5 * np.sum(np.abs(zs) ** 2, axis=1), n=2)
    b = np.array([1.0, 0.0], dtype=complex) / math.sqrt(2)
    d = DiskEmbedding.affine(np.array([0.1, 0.0]), b * 0.5, _chart())
    # Laplacian of |i(w)|^2/2 is 2 |i'|^2 / 2 * 2 = 2 |b|^2
    val = disk_laplacian(f, d, 0.0)
    assert val == pytest.approx(2.0 * 0.125, abs=1e-9)


def test_disk_laplacian_log_modulus_harmonic():
    f = ScalarField(fn=lambda zs: np.log(np.abs(zs[:, 0])), n=1)
    d = DiskEmbedding.affine(np.array([1.0]), np.array([0.3]),
                             ComplexChart(n=1, radii=2.0))
    assert abs(disk_laplacian(f, d, 0.2 + 0.1j)) < 1e-7


def test_disk_laplacian_rejects_boundary_stencils():
    f = ScalarField(fn=lambda zs: np.abs(zs[:, 0]) ** 2, n=1)
    d = DiskEmbedding.affine(np.array([0.0]), np.array([0.3]),
                             ComplexChart(n=1, radii=1.0))
    with pytest.raises(ValueError):
        disk_laplacian(f, d, 0.999)


def test_flat_space_passes_at_zero():
    flat = ModelSpace(K=0.0, n=2)
    p = np.array([0.1, 0.05j])
    v = check_bk_lower(flat, flat.potential(), p, 0.0,
                       sampler=DiskSampler(count=25, interior_points=5))
    assert v.passed
    assert abs(v.min_laplacian) < 1e-6


def test_model_threshold_is_sharp():
    m = ModelSpace(K=1.0, n=1)
    p = np.array([0.1 + 0.05j])
    s = DiskSampler(count=40, interior_points=6, size_range=(0.05, 0.3))
    assert check_bk_lower(m, m.potential(), p, 1.0, sampler=s, tol=1e-7).passed
    bad = check_bk_lower(m, m.potential(), p, 1.1, sampler=s, tol=1e-7)
    assert not bad.passed
    assert bad.witness is not None


def test_monotone_in_K_on_fixed_samples():
    m = ModelSpace(K=1.0, n=1)
    p = np.array([0.1])
    s = DiskSampler(count=20, interior_points=5)
    mins = [check_bk_lower(m, m.potential(), p, K, sampler=s).min_laplacian
            for K in (0.5, 0.8, 1.0, 1.2)]
    assert all(a >= b - 1e-12 for a, b in zip(mins, mins[1:]))


def test_witness_reproducibility():
    m = ModelSpace(K=1.0, n=1)
    p = np.array([0.1])
    s = DiskSampler(count=30, interior_points=5, size_range=(0.05, 0.3))
    v = check_bk_lower(m, m.potential(), p, 1.2, sampler=s, tol=1e-7)
    assert not v.passed
    disk = DiskEmbedding(coeffs=np.array(v.witness["coeffs"], dtype=complex),
                         chart=m.chart)
    dist = m.distance_field(p)

    def u(zs):
        from kahlerlab.models import dK_transform
        return m.potential()(zs) - 0.5 * dK_transform(dist(zs), 1.2)

    val = disk_laplacian(u, disk, v.witness["w"], h=1e-3)
    assert val == pytest.approx(v.min_laplacian, rel=1e-2)


def test_k_threshold_bisection():
    m = ModelSpace(K=1.0, n=1)
    p = np.array([0.1 + 0.05j])
    s = DiskSampler(count=40, interior_points=6, size_range=(0.05, 0.3))
    thr = k_threshold(m, m.potential(), p, 0.5, 2.0, resolution=1e-3,
                      sampler=s, tol=1e-7)
    assert thr == pytest.approx(1.0, abs=1e-3)


def test_pass_has_no_witness():
    m = ModelSpace(K=1.0, n=1)
    v = check_bk_lower(m, m.potential(), np.array([0.1 + 0.05j]), 1.0,
                       sampler=DiskSampler(count=20, interior_points=5,
                                           size_range=(0.05, 0.3)), tol=1e-7)
    assert v.verdict == "PASS"
    assert v.witness is None


def test_k_threshold_trace_matches_separate_checks():
    m = ModelSpace(K=1.0, n=1)
    p = np.array([0.1 + 0.05j])
    s = DiskSampler(seed=3, count=15, interior_points=4, size_range=(0.05, 0.3))
    trace = []
    k_threshold(m, m.potential(), p, 0.5, 2.0, resolution=1e-2, sampler=s,
                tol=1e-7, trace=trace)
    assert {v for _, _, v in trace} == {"PASS", "FAIL"}
    for K, min_lap, verdict in trace:
        v = check_bk_lower(m, m.potential(), p, K, sampler=s, tol=1e-7)
        assert v.min_laplacian == min_lap
        assert v.verdict == verdict


def test_k_threshold_cone_trace_matches_separate_checks():
    cone = ConeSurface(alpha=0.5)
    s = DiskSampler(seed=1, count=15, interior_points=4)
    trace = []
    k_threshold(cone, cone.potential(), 0.7 + 0.1j, -0.5, 0.5, resolution=0.05,
                sampler=s, tol=1e-7, trace=trace)
    assert {v for _, _, v in trace} == {"PASS", "FAIL"}
    for K, min_lap, verdict in trace:
        v = check_bk_lower(cone, cone.potential(), 0.7 + 0.1j, K, sampler=s, tol=1e-7)
        assert (v.min_laplacian, v.verdict) == (min_lap, verdict)


def test_k_threshold_failing_lower_endpoint_is_a_lab_error():
    m = ModelSpace(K=1.0, n=1)
    with pytest.raises(KahlerLabError):
        k_threshold(m, m.potential(), np.array([0.1 + 0.05j]), 1.5, 2.0,
                    sampler=DiskSampler(count=10, interior_points=4,
                                        size_range=(0.05, 0.3)))


def test_no_admissible_disk_is_a_lab_error():
    # every sampled disk leaves its chart: no vacuous PASS
    m = ModelSpace(K=-1.0, n=1)
    sampler = DiskSampler(seed=0, count=20, size_range=(1.2, 1.4))
    p = np.zeros(1, dtype=complex)
    with pytest.raises(KahlerLabError, match="no admissible disk among 20 requested"):
        check_bk_lower(m, m.potential(), p, 3.0, sampler=sampler)
    with pytest.raises(KahlerLabError, match="no admissible disk"):
        k_threshold(m, m.potential(), p, -1.5, 1.0, sampler=sampler)
    with pytest.raises(KahlerLabError, match="no admissible disk among 20 requested"):
        radial_potential_check(ConeSurface(alpha=0.5),
                               sampler=DiskSampler(count=20, size_range=(2.0, 3.0)))
    with pytest.raises(KahlerLabError, match="no admissible disk among 20 requested"):
        quotient_bk2_check(QuotientData(), 0.3 + 0.2j,
                           sampler=DiskSampler(count=20, size_range=(1.5, 2.0)))


@pytest.mark.parametrize("n", [1, 2])
def test_stencil_nodes_match_the_per_disk_maps(n):
    chart = _chart(n)
    sampler = DiskSampler(seed=4, count=30, interior_points=5, degree2_fraction=0.5)
    C, ws, pts = psh._disk_stencils(chart, np.full(n, 0.1 + 0.05j), sampler,
                                    np.random.default_rng(4), 1e-3)
    disks = [DiskEmbedding(disk_coeffs(c), chart) for c in C]
    rng = np.random.default_rng(4)
    ref = sampled(chart, np.full(n, 0.1 + 0.05j), sampler, rng)
    assert {d.degree for d in disks} == {1, 2}
    assert [d.coeffs.tobytes() for d in disks] == [d.coeffs.tobytes() for d in ref]
    ref_ws = np.array([sample_interior_points(sampler, rng) for _ in ref])
    assert ws.tobytes() == ref_ws.tobytes()
    # the nodes from real pairs (x, y) + (dx, dy), in the combination's order
    h = 1e-3
    steps = [(0, 0), (h, 0), (-h, 0), (h / 2, 0), (-h / 2, 0),
             (0, h), (0, -h), (0, h / 2), (0, -h / 2)]
    x = np.stack([ws.ravel().real, ws.ravel().imag], axis=1)[None] + np.array(steps)[:, None]
    nodes = (x[..., 0] + 1j * x[..., 1]).reshape((9,) + ws.shape)
    ref_pts = np.concatenate([d(nodes[:, j].ravel()).reshape(9, -1, n)
                              for j, d in enumerate(ref)], axis=1).reshape(-1, n)
    assert pts.tobytes() == ref_pts.tobytes()
    w = np.exp(0.3j) * np.linspace(0.0, 0.9, 17)
    assert disk_images(padded(ref), w).tobytes() == np.stack([d(w) for d in ref]).tobytes()
    assert disk_images(C[:0], w).shape == (0, 17, n)


def test_cones_pass_and_wide_cone_fails():
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0):
        cone = ConeSurface(alpha=alpha)
        v = check_bk_lower(cone, cone.potential(), 0.7 + 0.1j, 0.0,
                           sampler=DiskSampler(count=25, interior_points=5),
                           crossing_tests=8)
        assert v.passed, f"alpha={alpha}: {v.min_laplacian}"
    wide = ConeSurface(alpha=-0.5)
    v = check_bk_lower(wide, wide.potential(), 0.7 + 0.0j, 0.0,
                       sampler=DiskSampler(count=30, interior_points=5),
                       center=np.array([-0.5 + 0.2j]), crossing_tests=8)
    assert not v.passed
    assert v.min_laplacian < -1e-3


def test_apex_base_point_passes():
    cone = ConeSurface(alpha=0.5)
    v = check_bk_lower(cone, cone.potential(), 0.0, 0.0,
                       sampler=DiskSampler(count=15, interior_points=4),
                       crossing_tests=4)
    assert v.passed


def test_distributional_pairing_flat_quadratic():
    # u = |i(w)|^2 has pairing 4 <Lap u> / <bump> weighted; positivity check
    chart = ComplexChart(n=1, radii=1.0)
    d = DiskEmbedding.affine(np.array([0.0]), np.array([0.4]), chart)
    val = distributional_pairing(lambda zs: np.abs(zs[:, 0]) ** 2, d)
    assert val > 0


def test_singleton_set_matches_single_point():
    flat = ModelSpace(K=0.0, n=2)
    p = np.array([0.1 + 0j, 0.05j])
    s = DiskSampler(count=15, interior_points=4)
    a = check_bk_lower(flat, flat.potential(), p, 0.0, sampler=s)
    b = check_bk_lower(flat, flat.potential(), p[None], 0.0, sampler=s)
    assert abs(a.min_laplacian - b.min_laplacian) < 1e-12


def test_finite_set_passes_flat():
    flat = ModelSpace(K=0.0, n=2)
    S = np.array([[0.1, 0.0], [-0.1 + 0.05j, 0.2]], dtype=complex)
    v = check_bk_lower(flat, flat.potential(), S, 0.0,
                       sampler=DiskSampler(count=20, interior_points=4))
    assert v.passed


def test_complex_line_set_passes_flat():
    flat = ModelSpace(K=0.0, n=2)
    line = ComplexLine(a=np.zeros(2), v=np.array([1.0, 1.0]))
    v = check_bk_lower(flat, flat.potential(), line, 0.0,
                       sampler=DiskSampler(count=20, interior_points=4))
    assert v.passed


def test_line_distance_is_r_sin_angle():
    # distance to a complex line through 0 equals r sin of the projective
    # angle between the point direction and the line direction
    line = ComplexLine(a=np.zeros(2), v=np.array([1.0, 0.0]))
    rng = np.random.default_rng(3)
    zs = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    d = line.euclid_distance(zs)
    r = np.linalg.norm(zs, axis=1)
    cosang = np.abs(zs[:, 0]) / r
    assert np.allclose(d, r * np.sqrt(1.0 - cosang ** 2), atol=1e-12)


def test_complex_line_requires_flat_model():
    m = ModelSpace(K=1.0, n=2)
    line = ComplexLine(a=np.zeros(2), v=np.array([1.0, 0.0]))
    with pytest.raises(Unsupported):
        check_bk_lower(m, m.potential(), line, 1.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0 / 3.0])
def test_radial_potential_check(alpha):
    r = radial_potential_check(ConeSurface(alpha=alpha), tol=1e-4)
    assert r.verdict == "PASS"
    assert r.max_mismatch < 1e-4


def test_quotient_round_passes_with_saturation():
    q = QuotientData()
    for zp in (0.3 + 0.2j, np.array([0.0, 1.0])):
        v = quotient_bk2_check(q, zp)
        assert v.passed
        assert v.min_laplacian >= -1e-5
        assert v.saturated


def test_quotient_round_passes_on_every_seed():
    # small disks (|c1| near 1e-3) once broke the measure obligation when
    # it was taken with a disk-coordinate stencil; in chart units it holds
    q = QuotientData()
    samplers = [DiskSampler(seed=s) for s in range(4)] \
        + [DiskSampler(seed=s, count=10) for s in range(12)]
    for zp in (0.3 + 0.2j, np.array([0.0, 1.0])):
        for sampler in samplers:
            v = quotient_bk2_check(q, zp, sampler=sampler)
            assert v.passed, (zp, sampler, v.notes)


def test_quotient_perturbed_h_fails_consistency():
    q = QuotientData()
    v = quotient_bk2_check(q, 0.3 + 0.2j,
                           h_extra=lambda z: 1.0 + 0.5 * np.abs(z) ** 4)
    assert not v.passed
    assert v.witness["kind"] == "consistency"
    # the perturbation alone stays plurisubharmonic; only the declared
    # measure consistency breaks
    assert v.min_laplacian > -1e-5


def _perturb(z):
    return 1.0 + 0.5 * np.abs(z) ** 4


def _quotient_sampler(seed, count=60):
    return DiskSampler(seed=seed, count=count, size_range=(0.01, 0.25), center_radius=0.4)


def test_quotient_witness_names_the_failed_obligation():
    q = QuotientData()
    for seed in range(30):
        v = quotient_bk2_check(q, 0.3 + 0.2j, h_extra=_perturb,
                               sampler=_quotient_sampler(seed))
        if v.passed:
            assert v.witness is None
        elif v.min_laplacian >= -v.tol:
            assert v.witness["kind"] == "consistency"
            assert v.witness["value"] > 1e-3
        else:
            assert v.witness["kind"] == "pointwise"
            assert v.witness["value"] == v.min_laplacian


# Reference loops for the batched disk checks: one disk at a time, drawing
# each disk's interior points after all disks, with disk_laplacian.

def _replay_radial(cone, sampler):
    rng = np.random.default_rng(sampler.seed)
    metric = cone.metric()
    disks = sampled(metric.chart, np.array([0.7 + 0.1j]), sampler, rng,
                    min_singular=0.05, singular_at=np.zeros(1, dtype=complex))
    worst, count = 0.0, 0
    for d in disks:
        ws = sample_interior_points(sampler, rng)
        lap = np.atleast_1d(disk_laplacian(cone.potential(), d, ws, h=1e-2))
        [dens] = area_density(metric, d.coeffs[None], ws)
        worst = max(worst, float(np.max(np.abs(lap - 2.0 * dens)
                                        / np.maximum(2.0 * dens, 1e-12))))
        count += ws.size
    return worst, count


def _round_density(z0, h=1e-3):
    def dsq(dx, dy):
        return model_distance(2.0, np.atleast_1d(z0), np.atleast_1d(z0 + dx + 1j * dy)) ** 2
    return 0.25 * ((dsq(h, 0) + dsq(-h, 0)) / (2 * h * h)
                   + (dsq(0, h) + dsq(0, -h)) / (2 * h * h))


def _replay_quotient(q, zprime, h_extra, sampler):
    def pot(zs):
        base = 0.5 * np.log1p(np.abs(zs[:, 0]) ** 2)
        if h_extra is not None:
            base = base + 0.5 * np.log(np.asarray(h_extra(zs[:, 0]), dtype=float))
        return base

    dist = q.distance_field(zprime)

    def u(zs):
        return pot(zs) + np.log(np.cos(dist(zs)))

    rng = np.random.default_rng(sampler.seed)
    disks = sampled(q.chart, np.zeros(1), sampler, rng)
    best, consistency, count = math.inf, 0.0, 0
    for d in disks:
        ws = sample_interior_points(sampler, rng)
        zs = d(ws)
        if np.min(np.cos(dist(zs))) < 0.2:
            continue
        vals = np.atleast_1d(disk_laplacian(u, d, ws, h=5e-4))
        best = min(best, float(np.min(vals)))
        count += vals.size
        # the measure obligation in chart units, at the image points
        lap_pot = fd.laplacian_2d(lambda z: pot(z[:, None]), zs[:, 0], 1e-3)
        dens = 4.0 * np.array([_round_density(z) for z in zs[:, 0]])
        consistency = max(consistency, float(np.max(np.abs(lap_pot - dens)
                                                    / np.maximum(dens, 1e-12))))
    return best, consistency, count


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_disk_checks_match_a_per_disk_replay(seed):
    sampler = DiskSampler(seed=seed, count=40, size_range=(0.01, 0.2), center_radius=0.3)
    for alpha in (0.5, -0.5):
        cone = ConeSurface(alpha=alpha)
        r = radial_potential_check(cone, sampler=sampler)
        assert (r.max_mismatch, r.samples) == _replay_radial(cone, sampler)
    sampler = _quotient_sampler(seed, count=30)
    q = QuotientData()
    for zprime, h_extra in ((0.3 + 0.2j, None), (0.3 + 0.2j, _perturb),
                            (np.array([0.0, 1.0]), None)):
        v = quotient_bk2_check(q, zprime, h_extra=h_extra, sampler=sampler)
        best, consistency, count = _replay_quotient(q, zprime, h_extra, sampler)
        assert (v.min_laplacian, v.samples) == (best, count)
        assert v.notes == (f"measure mismatch {consistency:.3e}",)
        if h_extra is not None:
            assert (v.witness["kind"], v.witness["value"]) == ("consistency", consistency)
        if isinstance(zprime, np.ndarray):
            assert count < sampler.count * sampler.interior_points   # disks skipped


@pytest.mark.parametrize("n", [1, 2])
def test_finite_set_passes_flat_across_the_bisector(n):
    # u = |z|^2/2 - min_j |z - p_j|^2/2 = max_j (Re<z, p_j> - |p_j|^2/2) is psh, and its
    # kink on the bisector of the two points carries positive mass only
    flat = ModelSpace(K=0.0, n=n)
    S = np.zeros((2, n), dtype=complex)
    S[:, 0] = [0.15, -0.15 + 0.05j]
    for seed in range(16):
        for K, verdict in ((0.0, "PASS"), (0.5, "FAIL")):
            v = check_bk_lower(flat, flat.potential(), S, K, sampler=DiskSampler(seed=seed))
            assert v.verdict == verdict, (seed, K, v.min_laplacian)


NAN_POTENTIAL = ScalarField(lambda zs: np.full(len(zs), np.nan), n=1)


def test_a_nan_potential_raises_in_check_bk_lower():
    # a NaN compares false with everything: it is neither a PASS nor a FAIL
    with pytest.raises(KahlerLabError, match="non-finite value"):
        check_bk_lower(ModelSpace(K=0.0, n=1), NAN_POTENTIAL, [0.0], 0.0)


def test_a_nan_potential_raises_in_k_threshold_not_at_its_lower_endpoint():
    with pytest.raises(KahlerLabError, match="^non-finite value$"):
        k_threshold(ModelSpace(K=0.0, n=1), NAN_POTENTIAL, np.zeros(1), -0.5, 0.5)


def test_a_nan_quotient_datum_raises_and_is_not_a_pass():
    with pytest.raises(KahlerLabError, match="non-finite value"):
        quotient_bk2_check(QuotientData(), np.zeros(1), h_extra=lambda z: np.full(len(z), np.nan))
