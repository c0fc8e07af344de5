import numpy as np

from kahlerlab import fd


def test_laplacian_takes_the_plain_half_step_level_at_a_kink():
    # |x| at x = 0.6 h: the h-stencil reaches the kink, the h/2-stencil does not;
    # Richardson would read -(0.8 / h) / 3
    h = 1e-3
    lap = fd.laplacian_2d(lambda xs: np.abs(xs[:, 0]), np.array([[0.6 * h, 0.3]]), h)
    assert abs(lap[0]) < 1e-6


def test_laplacian_keeps_richardson_on_a_smooth_function():
    # the central levels of x^4 read 12 x^2 + 2 h^2 and 12 x^2 + h^2 / 2;
    # Richardson removes the h^2 term
    h = 1e-3
    lap = fd.laplacian_2d(lambda xs: xs[:, 0] ** 4, np.array([[0.2, -0.1]]), h)
    assert abs(lap[0] - 12 * 0.2 ** 2) < 1e-8
