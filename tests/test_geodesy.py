import math

import numpy as np
import pytest

from kahlerlab.errors import Disconnected, DomainExceeded
from kahlerlab.geodesy import (DiscretePath, DiskObstacle, PlanarDomain,
                               RectObstacle, chord_lower_bound,
                               domain_length_metric, geodesic_distance,
                               geodesic_distance_many, path_energy)
from kahlerlab.fields import ComplexChart
from kahlerlab.models import ModelSpace


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
