import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

import margrid as mg
from margrid import Domain, GridError, HyperGrid, make_regular_grid, trapezoid_weights


def test_regular_grid_unit_interval():
    g = make_regular_grid(Domain(0.0, 1.0), 4)
    assert np.array_equal(g.points.ravel(), [0.25, 0.5, 0.75, 1.0])


def test_regular_grid_single_point_is_upper_bound():
    g = make_regular_grid(Domain(0.0, 1.0), 1)
    assert np.array_equal(g.points.ravel(), [1.0])


def test_regular_grid_2d_lexicographic():
    g = make_regular_grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2))
    expected = [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)]
    assert np.array_equal(g.points, expected)


def test_log_grid_even_in_log_space():
    g = make_regular_grid(Domain(0.1, 10.0), 4, scale="log")
    steps = np.diff(np.log(g.points.ravel()))
    assert np.allclose(steps, steps[0])
    assert np.isclose(g.points.ravel()[-1], 10.0)
    assert np.allclose(g.working_points().ravel(), np.log(g.points.ravel()))


def test_degenerate_domain_rejected():
    with pytest.raises(GridError):
        Domain(1.0, 1.0)


def test_trapezoid_weights_quarter_grid():
    # standard trapezoid on the stored points only: spacing h = 0.25
    # gives (h/2, h, h, h/2) over the implied cell [0.25, 1.0]
    g = make_regular_grid(Domain(0.0, 1.0), 4)
    assert np.allclose(trapezoid_weights(g), [0.125, 0.25, 0.25, 0.125])
    assert np.isclose(trapezoid_weights(g).sum(), 0.75)


def test_trapezoid_weights_single_point_mass():
    g = make_regular_grid(Domain(0.0, 1.0), 1)
    assert np.array_equal(trapezoid_weights(g), [1.0])


def test_trapezoid_constant_integrand_exact():
    g = make_regular_grid(Domain(0.0, 1.0), 33)
    w = trapezoid_weights(g)
    c = 3.7
    span = g.points.max() - g.points.min()
    assert np.isclose(np.full(33, c) @ w, c * span, rtol=0.0, atol=1e-14)


def test_trapezoid_cubic_matches_adaptive_quadrature():
    # independent oracle: scipy's adaptive quadrature of the same cubic
    # over the hull of the stored points
    from scipy.integrate import quad

    g = make_regular_grid(Domain(0.0, 1.0), 129)
    x = g.points.ravel()
    f = lambda t: t**3 - 2.0 * t + 1.0
    est = f(x) @ trapezoid_weights(g)
    ref, _ = quad(f, x.min(), x.max())
    assert abs(est - ref) < 1e-4


def test_trapezoid_weights_log_grid_integrate_in_linear_coordinates():
    g = make_regular_grid(Domain(0.1, 10.0), 200, scale="log")
    x = g.points.ravel()
    # integral of 1/x over [x0, xn] is log(xn/x0); weights live in
    # d-lambda, so the estimate converges to the linear-coordinate value
    est = (1.0 / x) @ trapezoid_weights(g)
    assert np.isclose(est, np.log(x.max() / x.min()), rtol=1e-3)


def test_trapezoid_rejects_scattered_grid():
    g = HyperGrid(domain=Domain(0.0, 1.0), points=np.array([[0.1], [0.9]]),
                  scale="linear")
    with pytest.raises(GridError):
        trapezoid_weights(g)


@given(st.integers(min_value=1, max_value=40))
def test_trapezoid_weights_sum_to_span(n):
    g = make_regular_grid(Domain(-1.5, 2.0), n)
    w = trapezoid_weights(g)
    span = g.points.max() - g.points.min()
    assert np.all(w > 0)
    assert np.isclose(w.sum(), span if n > 1 else 1.0)


def test_grid_csv_round_trip(tmp_path):
    g = make_regular_grid(Domain([0.0, -1.0], [1.0, 1.0]), (3, 4))
    path = tmp_path / "grid.csv"
    mg.grid_to_csv(g, path)
    back = mg.grid_from_csv(path)
    assert np.array_equal(back.points, g.points)


def test_grid_csv_comment_lines_skipped():
    buf = io.StringIO("# note\ndim0\n0.5\n1.0\n")
    g = mg.grid_from_csv(buf)
    assert np.array_equal(g.points.ravel(), [0.5, 1.0])


def test_grid_csv_header_must_name_every_column():
    with pytest.raises(ValueError, match="header names 1 columns but rows have 2"):
        mg.grid_from_csv(io.StringIO("dim0\n1,2\n3,4\n"))
