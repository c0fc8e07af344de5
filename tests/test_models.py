import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fd_reference import gram_from_potential
from kahlerlab import models
from kahlerlab.disks import torsion_metric
from kahlerlab.errors import DomainExceeded
from kahlerlab.fields import ComplexChart
from kahlerlab.models import (ConeSurface, ModelSpace, QuotientData,
                              cone_distance, dK_transform, model_distance,
                              orbifold_cone)


def test_dk_transform_closed_forms():
    assert dK_transform(0.7, 0.0) == pytest.approx(0.49)
    d = 0.9
    assert dK_transform(d, 2.0) == pytest.approx(-2.0 * math.log(math.cos(d)))
    assert dK_transform(d, -2.0) == pytest.approx(2.0 * math.log(math.cosh(d)))


def test_dk_transform_taylor_matches_closed_form():
    # the series cut must be continuous against the exact branch
    for K in (1.0, -1.0):
        d = 1e-2
        exact = (-(4.0 / K) * math.log(math.cos(d * math.sqrt(K / 2.0)))
                 if K > 0 else
                 (4.0 / -K) * math.log(math.cosh(d * math.sqrt(-K / 2.0))))
        assert dK_transform(d, K) == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("K", [2.0, 0.5, -2.0, -0.5])
def test_dk_transform_logarithms_against_40_digits(K):
    # sqrt(|K|/2) is exact for these K, so x = d sqrt(|K|/2) carries no
    # rounding of its own and the error measured is that of the formula
    import mpmath
    mpmath.mp.dps = 40
    lo = 1.01 * math.sqrt(1e-4 / abs(K))          # above the series cut
    hi = 0.999 * math.pi / math.sqrt(2.0 * K) if K > 0 else 3.0
    ds = np.geomspace(lo, hi, 200)
    if K > 0:                                       # both sides of cos x = 1/2
        ds = np.append(ds, (math.pi / 3 + np.array([-1e-3, 1e-3])) / math.sqrt(K / 2.0))
    vals = dK_transform(ds, K)
    for d, v in zip(ds, vals):
        x = mpmath.mpf(d) * mpmath.sqrt(mpmath.mpf(abs(K)) / 2)
        ref = (-(4 / mpmath.mpf(K)) * mpmath.log(mpmath.cos(x)) if K > 0
               else (4 / mpmath.mpf(-K)) * mpmath.log(mpmath.cosh(x)))
        assert abs(v - float(ref)) <= 1e-15 * float(ref), d


@pytest.mark.parametrize("K", [2.0, 1.0, 0.5, -1.0, -3.0])
def test_dk_transform_series_against_40_digits(K):
    # just below the cut |K| d^2 = 1e-4, where the truncated series is
    # least accurate
    import mpmath
    mpmath.mp.dps = 40
    ds = math.sqrt(1e-4 / abs(K)) * np.linspace(0.7, 0.99999, 200)
    vals = dK_transform(ds, K)
    for d, v in zip(ds, vals):
        x = mpmath.mpf(d) * mpmath.sqrt(mpmath.mpf(abs(K)) / 2)
        ref = (-(4 / mpmath.mpf(K)) * mpmath.log(mpmath.cos(x)) if K > 0
               else (4 / mpmath.mpf(-K)) * mpmath.log(mpmath.cosh(x)))
        assert abs(v - float(ref)) <= 5e-16 * float(ref), d


def test_dk_transform_cap():
    K = 2.0
    cap = math.pi / math.sqrt(2.0 * K)
    with pytest.raises(DomainExceeded):
        dK_transform(cap, K)
    assert dK_transform(cap - 1e-6, K) > 20.0


def test_dk_transform_rejects_negative_distance():
    with pytest.raises(ValueError):
        dK_transform(-0.1, 1.0)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_dk_transform_monotone_in_distance(a, b):
    lo, hi = sorted((a, b))
    for K in (0.7, 0.0, -0.7):
        assert dK_transform(lo, K) <= dK_transform(hi, K) + 1e-12


@given(st.floats(0.1, 1.0))
@settings(max_examples=30, deadline=None)
def test_dk_transform_monotone_in_K(d):
    ks = [-1.0, -0.3, 0.0, 0.3, 1.0]
    vals = [dK_transform(d, K) for K in ks]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_model_potential_expands_to_flat():
    for K in (1.0, -1.0):
        space = ModelSpace(K=K, n=2)
        z = np.array([[1e-4 + 0j, 1e-4j]])
        flat = 0.5 * np.sum(np.abs(z) ** 2)
        assert space.potential()(z)[0] == pytest.approx(flat, rel=1e-7)


@pytest.mark.parametrize("K", [1.0, -1.0])
def test_model_exact_gram_matches_fd(K):
    space = ModelSpace(K=K, n=2)
    zs = np.array([[0.2 + 0.1j, -0.1j], [0.05, 0.3 + 0.02j]])
    exact = space.metric().gram(zs)
    fd = gram_from_potential(space.potential(), zs)
    assert np.max(np.abs(exact - fd)) < 1e-7


def test_model_distance_symmetry_and_zero():
    space = ModelSpace(K=1.0, n=2)
    z1 = np.array([0.2 + 0.1j, 0.0])
    z2 = np.array([-0.1, 0.3j])
    assert space.distance_field(z1)(z1)[0] == pytest.approx(0.0, abs=1e-12)
    assert space.distance_field(z1)(z2)[0] == pytest.approx(space.distance_field(z2)(z1)[0])


def _mp_distance(c, s, v):
    """40-digit distance of constant holomorphic sectional curvature c
    between homogeneous points s and v (a chart point z is (1, z)):
    (2/sqrt|c|) acos (c > 0) or acosh (c < 0) of the ratio
    |<s, v>| / sqrt(<s, s> <v, v>), <x, y> = x_0 ybar_0 + (c/4) sum_{i>0} x_i ybar_i."""
    import mpmath
    mpmath.mp.dps = 40
    c = mpmath.mpf(c)
    s, v = ([mpmath.mpc(complex(x)) for x in u] for u in (s, v))

    def ip(x, y):
        return x[0] * mpmath.conj(y[0]) + c / 4 * sum(
            a * mpmath.conj(b) for a, b in zip(x[1:], y[1:]))

    ratio = abs(ip(s, v)) / mpmath.sqrt(ip(s, s).real * ip(v, v).real)
    return 2 / mpmath.sqrt(abs(c)) * (mpmath.acos(ratio) if c > 0 else mpmath.acosh(ratio))


def _close_pairs(rng, n, count=200):
    """Point pairs 0.02 to 0.2 apart in the chart."""
    z = 0.3 * (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)))
    u = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    u *= rng.uniform(0.02, 0.2, (count, 1)) / np.linalg.norm(u, axis=1, keepdims=True)
    return z, z + u


@pytest.mark.parametrize("K", [1.0, -1.0])
@pytest.mark.parametrize("n", [1, 2])
def test_model_distance_against_40_digits(K, n):
    # close pairs, where acos or acosh of a ratio next to 1 loses digits,
    # and for K > 0 pairs within 1e-2 of the cap (the diameter)
    space = ModelSpace(K=K, n=n)
    rng = np.random.default_rng(7)
    z, w = _close_pairs(rng, n)
    if K > 0:
        zc = 0.5 * (rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n)))
        far = -(4.0 / space.c) * zc / np.sum(np.abs(zc) ** 2, axis=1, keepdims=True)
        u = rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n))
        u *= rng.uniform(0.0, 1e-2, (100, 1)) / np.linalg.norm(u, axis=1, keepdims=True)
        z, w = np.vstack([z, zc]), np.vstack([w, far + u])
    vals = model_distance(K, z, w)
    for a, b, v in zip(z, w, vals):
        ref = _mp_distance(space.c, np.r_[1.0, a], np.r_[1.0, b])
        assert abs(v - float(ref)) <= 1e-15 * float(ref), (a, b)
        assert v == space.distance_field(a)(b)[0]
    if K > 0:
        assert np.all(vals[-100:] >= space.diameter - 1e-2)


def test_model_distance_small_chords_are_flat():
    for K in (1.0, -1.0):
        space = ModelSpace(K=K, n=1)
        d = space.distance_field(np.array([1e-5]))(np.array([-1e-5]))[0]
        assert d == pytest.approx(2e-5, rel=1e-6)


def test_positive_model_diameter():
    space = ModelSpace(K=0.5, n=1)
    far = space.distance_field(np.array([0.0]))(np.array([1e8]))[0]
    assert far == pytest.approx(space.diameter, rel=1e-6)
    assert space.diameter == pytest.approx(math.pi / math.sqrt(1.0))


def test_model_triangle_inequality():
    rng = np.random.default_rng(0)
    for K in (1.0, -1.0):
        space = ModelSpace(K=K, n=2)
        for _ in range(50):
            pts = 0.3 * (rng.standard_normal((3, 2))
                         + 1j * rng.standard_normal((3, 2)))
            a = space.distance_field(pts[0])(pts[1])[0]
            b = space.distance_field(pts[1])(pts[2])[0]
            c = space.distance_field(pts[0])(pts[2])[0]
            assert c <= a + b + 1e-12


def test_cone_total_angle_and_orbifold():
    assert ConeSurface(alpha=0.5).total_angle == pytest.approx(math.pi)
    assert orbifold_cone(3).alpha == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        orbifold_cone(1)
    with pytest.raises(ValueError):
        ConeSurface(alpha=1.0)


def test_cone_distance_flat_case():
    cone = ConeSurface(alpha=0.0)
    d = cone_distance(cone, (1.0, 0.0), (1.0, math.pi / 2))
    assert d == pytest.approx(math.sqrt(2.0))


def test_cone_distance_law_of_cosines():
    cone = ConeSurface(alpha=0.75)
    d = cone_distance(cone, (1.0, 0.0), (1.0, math.pi))
    rho = cone.geodesic_radius(1.0)
    psi = 0.25 * math.pi
    law = math.sqrt(2 * rho ** 2 * (1 - math.cos(psi)))
    assert d == pytest.approx(law)


def test_cone_distance_through_apex():
    # total angle above 2 pi: antipodal points connect through the apex
    wide = ConeSurface(alpha=-1.0)
    d = cone_distance(wide, (1.0, 0.0), (1.0, math.pi))
    assert d == pytest.approx(2.0 * wide.geodesic_radius(1.0))


def test_cone_deck_transformation_oracle():
    # the k-fold orbifold is the flat plane modulo rotation: map the flat
    # quotient distance through the chart change and compare
    k = 2
    cone = orbifold_cone(k)
    rng = np.random.default_rng(1)
    for _ in range(20):
        w1, w2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        flat_d = min(abs(w1 - w2 * np.exp(2j * math.pi * j / k))
                     for j in range(k))
        beta = 1.0 / k

        def to_cone(w):
            rho = abs(w)
            r = ((1 - cone.alpha) * rho) ** (1.0 / (1 - cone.alpha))
            return (r, np.angle(w) / (1 - cone.alpha) * 1.0)

        # geodesic radius of the cone image equals the flat radius
        p1, p2 = to_cone(w1), to_cone(w2)
        assert cone_distance(cone, p1, p2) == pytest.approx(flat_d, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 2.0 / 3.0, -0.5])
def test_cone_distance_against_40_digits(alpha):
    # close points, where rho1^2 + rho2^2 - 2 rho1 rho2 cos psi cancels; what
    # is left is the rounding of rho - rho', about rho / d ulps of d
    import mpmath
    mpmath.mp.dps = 40
    cone = ConeSurface(alpha=alpha)
    b = mpmath.mpf(1.0 - alpha)
    rng = np.random.default_rng(9)
    r1, t1 = rng.uniform(0.3, 1.2, 200), rng.uniform(-3.0, 3.0, 200)
    r2, t2 = r1 * (1.0 + rng.uniform(-0.05, 0.05, 200)), t1 + rng.uniform(-0.05, 0.05, 200)
    vals = cone_distance(cone, (r1, t1), (r2, t2))
    for v, *pts in zip(vals, r1, t1, r2, t2):
        rho1, rho2 = (mpmath.mpf(r) ** b / b for r in pts[::2])
        psi = b * abs(mpmath.mpf(pts[1]) - mpmath.mpf(pts[3]))
        ref = mpmath.sqrt(rho1 ** 2 + rho2 ** 2 - 2 * rho1 * rho2 * mpmath.cos(psi))
        assert abs(v - float(ref)) <= 1e-13 * float(ref), pts


def test_cone_exact_gram_matches_fd():
    cone = ConeSurface(alpha=0.5)
    m = cone.metric()
    zs = np.array([[0.6 + 0.2j], [0.3 - 0.4j]])
    assert np.max(np.abs(m.gram(zs) - gram_from_potential(m.potential, zs))) < 1e-7


def test_cone_distance_field_matches_pointwise():
    cone = ConeSurface(alpha=0.5)
    f = cone.distance_field(0.5 + 0.1j)
    z = 0.2 - 0.3j
    direct = cone_distance(cone, (abs(0.5 + 0.1j), np.angle(0.5 + 0.1j)),
                           (abs(z), np.angle(z)))
    assert f(np.array([[z]]))[0] == pytest.approx(direct)


@pytest.mark.parametrize("K", [-1.0, 0.0, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2])
def test_model_distance_field_is_bitwise_distance(K, n):
    space = ModelSpace(K=K, n=n)
    rng = np.random.default_rng(4)
    p = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    zs = [p, p + 1e-9]
    zs += list(0.4 * (rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))))
    if K > 0:
        # the point orthogonal to p sits at the diameter, the d_K cap
        far = -(4.0 / space.c) * p / np.sum(np.abs(p) ** 2)
        zs += [far, 0.999 * far]
    if K < 0:
        # just inside the Poincare ball |z| < 2/sqrt(|c|)
        edge = 2.0 / math.sqrt(-space.c)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        zs += [edge * (1 - t) * u / np.linalg.norm(u) for t in (1e-3, 1e-6)]
    zs = np.array(zs)
    field = space.distance_field(p)(zs)
    # one-row calls have the bits of the stacked call
    assert np.array_equal(field, [space.distance_field(p)(z)[0] for z in zs])
    if K > 0:
        assert field[-2] == pytest.approx(space.diameter)


def test_model_distance_field_outside_ball_raises():
    space = ModelSpace(K=-1.0, n=1)
    outside = np.array([[2.0 / math.sqrt(2.0) * 1.01]], dtype=complex)
    with pytest.raises(DomainExceeded):
        model_distance(space.K, np.zeros(1), outside[0])
    with pytest.raises(DomainExceeded):
        space.distance_field(np.zeros(1))(outside)


def test_model_distance_holds_on_the_ball_beyond_the_chart():
    # c = -2: the closed form holds for |z| < 2/sqrt(2), where the radial
    # distance is sqrt(2) artanh(r / sqrt(2)), and the chart stops at 3/4 of
    # that radius
    space = ModelSpace(K=-1.0, n=2)
    edge = 2.0 / math.sqrt(2.0)
    beyond = np.array([0.9 * edge, 0.0], dtype=complex)
    assert not space.chart.contains(beyond)[0]
    exact = math.sqrt(2.0) * math.atanh(0.9 * edge / math.sqrt(2.0))
    assert model_distance(space.K, np.zeros(2), beyond) == pytest.approx(exact, rel=1e-14)
    with pytest.raises(DomainExceeded, match=re.escape(f"|z| < 2/sqrt(-c) = {edge:.6g} of the c = -2")):
        model_distance(space.K, np.zeros(2), np.array([1.01 * edge, 0.0]))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.0 / 3.0])
@pytest.mark.parametrize("p", [0.7 + 0.1j, 0.0, -0.3j])
def test_cone_distance_field_is_bitwise_cone_distance(alpha, p):
    cone = ConeSurface(alpha=alpha)
    rng = np.random.default_rng(5)
    z = np.concatenate([[0.0, p, -p, 1e-12, 0.9 * np.exp(1j * (np.angle(p) + 2.5))],
                        rng.uniform(-1.4, 1.4, 40) + 1j * rng.uniform(-1.4, 1.4, 40)])
    pp = (np.abs(p), np.arctan2(p.imag, p.real))
    direct = [cone_distance(cone, pp, (np.abs(w), np.arctan2(w.imag, w.real))) for w in z]
    assert np.array_equal(cone.distance_field(p)(z[:, None]), direct)


def test_cone_distance_field_apex_and_through_apex():
    wide = ConeSurface(alpha=-0.5)
    # angle 2.5 > 2 pi / 3, so psi = 1.5 * 2.5 >= pi: the path runs through the apex
    z = np.array([[0.0], [0.8 * np.exp(2.5j)]])
    d = wide.distance_field(0.6)(z)
    rho = wide.geodesic_radius(np.array([0.6, 0.8]))
    assert d[0] == rho[0]
    assert d[1] == pytest.approx(rho[0] + rho[1])


def test_quotient_round_distances():
    q = QuotientData()
    assert q.distance_field(0.0)(0.0)[0] == pytest.approx(0.0)
    # orthogonal projective points are at distance pi/2
    assert q.distance_field(np.array([0.0, 1.0]))(0.0)[0] == pytest.approx(math.pi / 2)
    # the round quotient is the constant-curvature model with c = 4
    rng = np.random.default_rng(2)
    for _ in range(20):
        z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert q.distance_field(z2)(z1)[0] == pytest.approx(
            model_distance(2.0, np.array([z1]), np.array([z2])), abs=1e-10)


def test_quotient_distance_against_40_digits():
    # close pairs, then pairs next to the cut point, given homogeneously
    q = QuotientData()
    rng = np.random.default_rng(8)
    z, w = (x[:, 0] for x in _close_pairs(rng, 1))
    zc = 0.5 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    cut = np.stack([-np.conj(zc), np.ones(100)], axis=1) + 1e-2 * rng.random((100, 1)) \
        * (rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2)))
    for a, b in zip(np.concatenate([z, zc]), list(w) + list(cut)):
        v = q.distance_field(b)(a)[0]
        ref = _mp_distance(4.0, [1.0, a], b if np.size(b) == 2 else [1.0, b])
        assert abs(v - float(ref)) <= 1e-15 * float(ref), (a, b)
    # one-row calls have the bits of the stacked call
    assert np.array_equal(q.distance_field(w[0])(z[:, None]),
                          [q.distance_field(w[0])(a)[0] for a in z])


def _zs(rng, n, count=5000):
    zs = 0.4 * (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)))
    zs[:100, 0] = 0.0
    return zs


def test_model_gram_equals_the_out_of_place_formula_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        zs = _zs(rng, n)
        upper = np.triu(np.ones((n, n), dtype=bool))
        for c in (2.0, -2.0, 4.0, 0.0):
            sq = zs.real ** 2 + zs.imag ** 2
            u = 1.0 + (c / 4.0) * np.sum(sq, axis=1)
            ms = -(c / 8.0) / (u * u)
            G = (ms[:, None] * np.conj(zs))[:, :, None] * zs[:, None, :]
            ref = np.where(upper, G, np.conj(np.swapaxes(G, 1, 2)))
            ref[:, np.arange(n), np.arange(n)] = 0.5 / u[:, None] + ms[:, None] * sq
            assert models._model_gram(c, zs).tobytes() == ref.tobytes()


def test_model_gram_against_40_digits():
    import mpmath
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        # points inside every model chart: |z| <= 0.9 keeps u >= 0.59 at c = -2
        zs = rng.standard_normal((60, n)) + 1j * rng.standard_normal((60, n))
        zs *= 0.9 * rng.uniform(0.0, 1.0, (60, 1)) / np.linalg.norm(zs, axis=1, keepdims=True)
        zs[:3] = 0.0
        for c in (2.0, -2.0, 4.0, 0.0):
            G = models._model_gram(c, zs)
            with mpmath.workdps(40):
                for z, g in zip(zs, G):
                    z = [mpmath.mpc(complex(x)) for x in z]
                    u = 1 + mpmath.mpf(c) / 4 * sum(abs(x) ** 2 for x in z)
                    ref = [[(i == j) / (2 * u) - mpmath.mpf(c) / 8 * mpmath.conj(z[i]) * z[j] / u ** 2
                            for j in range(n)] for i in range(n)]
                    err = max(abs(complex(g[i, j]) - ref[i][j]) for i in range(n) for j in range(n))
                    largest = float(max(abs(x) for row in ref for x in row))
                    assert float(err) <= 4 * np.spacing(largest), (n, c)


def test_exact_grams_are_hermitian_bit_for_bit():
    rng = np.random.default_rng(6)
    metrics = [(ModelSpace(K=K, n=n).metric(), n) for K in (1.0, -1.0, 2.0, 0.0)
               for n in (1, 2, 3)]
    metrics.append((ConeSurface(alpha=0.5).metric(), 1))
    # gram returns a gram_fn's matrices as they are: the torsion one too
    for n in (2, 3):
        A = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        T = A - A.transpose(0, 2, 1)
        metrics.append((torsion_metric(T, ComplexChart(n=n, radii=1.5)), n))
    for metric, n in metrics:
        G = metric.gram(_zs(rng, n)[100:], check=False)
        assert np.array_equal(G, np.conj(np.swapaxes(G, 1, 2)))
