"""Least-squares Bezier fitting with chord-length parameterization.

Endpoints always interpolate the first and last input points; interior
control points come from one linear least-squares solve at the points'
chord-length parameters.
"""

from __future__ import annotations

from math import ceil, comb

import numpy as np

# most samples one resampling may take (a 187 mm catheter at 0.25 mm takes
# 749), and most cones, rays or ring samples a config may ask for
MAX_SAMPLES = 10**6


def chord_length_params(points: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    total = seg.sum()
    if total <= 0:
        raise ValueError("degenerate point set: zero total chord length")
    t = np.concatenate([[0.0], np.cumsum(seg)]) / total
    return t


def bernstein_matrix(t: np.ndarray, n_control: int) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    n = n_control - 1
    cols = [comb(n, k) * t**k * (1.0 - t) ** (n - k) for k in range(n_control)]
    return np.stack(cols, axis=1)


def bezier_eval(control: np.ndarray, t) -> np.ndarray:
    """Evaluate the curve at parameter value(s) t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return bernstein_matrix(t, len(control)) @ control


def fit_bezier(points, n_control: int) -> np.ndarray:
    """Fit an (n_control - 1)-degree Bezier curve to an ordered point list."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2D array of coordinates")
    if n_control < 2:
        raise ValueError("need at least two control points")
    if len(points) < n_control:
        raise ValueError(f"need at least {n_control} points, got {len(points)}")

    b = bernstein_matrix(chord_length_params(points), n_control)
    p0, pn = points[0], points[-1]
    control = np.empty((n_control, points.shape[1]))
    control[0] = p0
    control[-1] = pn
    if n_control > 2:
        rhs = points - np.outer(b[:, 0], p0) - np.outer(b[:, -1], pn)
        interior, *_ = np.linalg.lstsq(b[:, 1:-1], rhs, rcond=None)
        control[1:-1] = interior
    return control


def sample_curve(control: np.ndarray, step: float) -> np.ndarray:
    """Resample the curve at approximately equal arc-length spacing <= step."""
    if step <= 0:
        raise ValueError("step must be positive")
    dense_n = max(64, 32 * len(control))
    t_dense = np.linspace(0.0, 1.0, dense_n)
    pts = bezier_eval(control, t_dense)
    arc = _arc_lengths(pts)
    total = arc[-1]
    if total == 0:
        return pts[:1]
    targets = np.linspace(0.0, total, _sample_count(total, step, 2))
    t_out = np.interp(targets, arc, t_dense)
    return bezier_eval(control, t_out)


def resample_polyline(poly, step: float, min_points: int = 2) -> np.ndarray:
    """Resample a polyline at equal arc-length spacing <= step, with at
    least ``min_points`` samples; the endpoints are kept exactly."""
    poly = np.asarray(poly, dtype=float)
    arc = _arc_lengths(poly)
    t = np.linspace(0.0, arc[-1], _sample_count(arc[-1], step, min_points))
    return np.stack([np.interp(t, arc, poly[:, c]) for c in range(poly.shape[1])],
                    axis=1)


def _sample_count(length: float, step: float, least: int) -> int:
    """Samples at spacing <= ``step`` along ``length``, at least ``least``;
    ValueError past ``MAX_SAMPLES``."""
    spans = length / step
    if spans > MAX_SAMPLES - 1 or least > MAX_SAMPLES:
        raise ValueError(f"resampling {length:.6g} mm at {step:g} mm takes more "
                         f"than {MAX_SAMPLES} samples")
    return max(least, ceil(spans) + 1)


def _arc_lengths(pts: np.ndarray) -> np.ndarray:
    """Cumulative arc length along ``pts`` from 0; ValueError if it overflows."""
    with np.errstate(over="ignore"):
        arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    if not np.isfinite(arc[-1]):
        raise ValueError("arc length is not finite")
    return arc
