import numpy as np
import pytest

from cathseg.bezier import MAX_SAMPLES, bernstein_matrix, bezier_eval, \
    chord_length_params, fit_bezier, resample_polyline, sample_curve


def test_straight_line_reproduced_exactly():
    t = np.linspace(0, 1, 9)
    points = np.outer(t, [10.0, -4.0, 2.0]) + [1.0, 1.0, 1.0]
    control = fit_bezier(points, 4)
    params = chord_length_params(points)
    dev = np.linalg.norm(bezier_eval(control, params) - points, axis=1)
    assert dev.max() < 1e-9
    assert np.allclose(control[0], points[0], atol=1e-12)
    assert np.allclose(control[-1], points[-1], atol=1e-12)


def _point_to_curve(points, control):
    """Max distance from each point to the curve, via recursive refinement."""
    worst = 0.0
    for p in points:
        t_grid = np.linspace(0.0, 1.0, 2001)
        for _ in range(4):
            curve = bezier_eval(control, t_grid)
            d2 = ((curve - p) ** 2).sum(axis=1)
            k = int(np.argmin(d2))
            lo = t_grid[max(k - 1, 0)]
            hi = t_grid[min(k + 1, len(t_grid) - 1)]
            t_grid = np.linspace(lo, hi, 201)
        worst = max(worst, float(np.sqrt(d2[k])))
    return worst


def test_square_system_interpolates():
    rng = np.random.default_rng(2)
    points = np.cumsum(rng.uniform(0.5, 1.5, size=(6, 3)), axis=0)
    control = fit_bezier(points, 6)
    assert _point_to_curve(points, control) < 1e-6


@pytest.mark.parametrize("n_control", [3, 5])
def test_interior_controls_solve_normal_equations_at_chord_length_params(n_control):
    control_true = np.array([[0.0, 0.0, 0.0], [35.0, 22.0, 10.0], [80.0, -5.0, 40.0]])
    points = bezier_eval(control_true, np.linspace(0.0, 1.0, 25))
    control = fit_bezier(points, n_control)
    b = bernstein_matrix(chord_length_params(points), n_control)
    # the residual at the chord-length parameters is orthogonal to every
    # interior basis column
    assert np.abs(b[:, 1:-1].T @ (points - b @ control)).max() < 1e-9


def test_arc_fit_stays_within_a_hundredth_of_a_millimetre():
    radius, length = 60.0, 80.0
    theta = np.linspace(0.0, length / radius, 801)
    arc = np.stack([radius * np.sin(theta), radius * (1.0 - np.cos(theta)),
                    np.zeros_like(theta)], axis=1)
    control = fit_bezier(resample_polyline(arc, 1.0), 8)
    curve = bezier_eval(control, np.linspace(0.0, 1.0, 4001)) - [0.0, radius, 0.0]
    angle = np.arctan2(curve[:, 0], -curve[:, 1])
    assert angle.min() > -1e-9 and angle.max() < length / radius + 1e-9
    assert np.abs(np.linalg.norm(curve, axis=1) - radius).max() < 0.01
    assert _point_to_curve(arc[::10], control) < 0.01


def test_cubic_fit_stays_on_sampled_curve():
    control_true = np.array([[0.0, 0.0, 0.0], [10.0, 30.0, 0.0],
                             [40.0, 30.0, 20.0], [60.0, 0.0, 25.0]])
    points = bezier_eval(control_true, np.linspace(0, 1, 4))
    control = fit_bezier(points, 4)
    assert _point_to_curve(points, control) < 1e-6


def test_endpoints_always_interpolate():
    rng = np.random.default_rng(7)
    points = np.cumsum(rng.uniform(-1, 2, size=(12, 3)), axis=0)
    control = fit_bezier(points, 5)
    assert np.allclose(control[0], points[0], atol=1e-12)
    assert np.allclose(control[-1], points[-1], atol=1e-12)


def test_degenerate_points_raise():
    points = np.zeros((5, 3))
    with pytest.raises(ValueError):
        fit_bezier(points, 3)


def test_too_few_points_raise():
    with pytest.raises(ValueError):
        fit_bezier(np.array([[0.0, 0, 0], [1.0, 0, 0]]), 3)


def test_two_control_points_is_segment():
    points = np.array([[0.0, 0, 0], [1.0, 1, 0], [2.0, 2, 0]])
    control = fit_bezier(points, 2)
    assert control.shape == (2, 3)
    assert np.allclose(control, [[0, 0, 0], [2, 2, 0]], atol=1e-12)


def test_sample_curve_spacing_and_endpoints():
    control = np.array([[0.0, 0, 0], [30.0, 20, 0], [60.0, 0, 0]])
    pts = sample_curve(control, step=0.5)
    assert np.allclose(pts[0], control[0], atol=1e-9)
    assert np.allclose(pts[-1], control[-1], atol=1e-9)
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert gaps.max() <= 0.5 + 1e-6


def test_resample_polyline_spacing_endpoints_and_min_points():
    poly = np.array([[0.0, 0, 0], [3.0, 4, 0], [3.0, 4, 2.2]])   # arc 7.2 mm
    pts = resample_polyline(poly, 0.5)
    assert np.array_equal(pts[0], poly[0]) and np.array_equal(pts[-1], poly[-1])
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert len(pts) == 16
    assert gaps.max() == pytest.approx(7.2 / 15)   # chords shrink only at the corner
    assert len(resample_polyline(poly, 100.0)) == 2
    assert len(resample_polyline(poly, 100.0, len(poly))) == 3


def test_resampling_refuses_more_than_max_samples():
    """Both resamplers share one cap on the samples an input can ask for."""
    assert len(resample_polyline([[0.0, 0, 0], [MAX_SAMPLES - 1.0, 0, 0]], 1.0)) \
        == MAX_SAMPLES
    with pytest.raises(ValueError, match="samples"):
        resample_polyline([[0.0, 0, 0], [MAX_SAMPLES - 0.5, 0, 0]], 1.0)
    with pytest.raises(ValueError, match="samples"):
        resample_polyline([[0.0, 0, 0], [1.0, 0, 0]], 1.0, MAX_SAMPLES + 1)
    with pytest.raises(ValueError, match="samples"):
        sample_curve(np.array([[0.0, 0, 0], [1e12, 0, 0]]), 0.5)
