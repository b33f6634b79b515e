"""Least-squares Bezier fitting with chord-length parameterization.

Endpoints always interpolate the first and last input points; interior
control points come from a linear least-squares solve.  A few Newton
parameter-correction sweeps refine the chord-length initialization so that
points sampled from an exact lower-degree curve are recovered exactly.
"""

from __future__ import annotations

from math import comb

import numpy as np


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


def _derivative_controls(control: np.ndarray) -> np.ndarray:
    n = len(control) - 1
    return n * np.diff(control, axis=0)


def fit_bezier(points, n_control: int, max_iter: int = 1000) -> np.ndarray:
    """Fit an (n_control - 1)-degree Bezier curve to an ordered point list."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2D array of coordinates")
    if n_control < 2:
        raise ValueError("need at least two control points")
    if len(points) < n_control:
        raise ValueError(f"need at least {n_control} points, got {len(points)}")

    t = chord_length_params(points)
    control = _solve(points, t, n_control)
    prev_res = _max_residual(points, control, t)
    for _ in range(max_iter):
        if prev_res < 1e-12:
            break
        t = _reparameterize(points, control, t)
        control = _solve(points, t, n_control)
        res = _max_residual(points, control, t)
        if prev_res - res < 1e-15:
            break
        prev_res = res
    return control


def _solve(points: np.ndarray, t: np.ndarray, n_control: int) -> np.ndarray:
    b = bernstein_matrix(t, n_control)
    p0, pn = points[0], points[-1]
    control = np.empty((n_control, points.shape[1]))
    control[0] = p0
    control[-1] = pn
    if n_control > 2:
        rhs = points - np.outer(b[:, 0], p0) - np.outer(b[:, -1], pn)
        interior, *_ = np.linalg.lstsq(b[:, 1:-1], rhs, rcond=None)
        control[1:-1] = interior
    return control


def _max_residual(points, control, t):
    return float(np.max(np.linalg.norm(bezier_eval(control, t) - points, axis=1)))


def _reparameterize(points, control, t):
    """Re-assign each point the parameter of its nearest curve location:
    coarse dense-grid projection followed by Newton polish."""
    grid = np.linspace(0.0, 1.0, max(128, 8 * len(points)))
    curve = bezier_eval(control, grid)
    d2_all = ((points[:, None, :] - curve[None, :, :]) ** 2).sum(axis=2)
    t_new = grid[np.argmin(d2_all, axis=1)]

    d1 = _derivative_controls(control)
    d2 = _derivative_controls(d1) if len(d1) >= 2 else np.zeros((1, control.shape[1]))
    for _ in range(4):
        c = bezier_eval(control, t_new)
        cp = bezier_eval(d1, t_new)
        cpp = bezier_eval(d2, t_new)
        diff = c - points
        num = np.einsum("ij,ij->i", diff, cp)
        den = np.einsum("ij,ij->i", cp, cp) + np.einsum("ij,ij->i", diff, cpp)
        step = np.zeros_like(num)
        mask = np.abs(den) > 1e-30
        step[mask] = num[mask] / den[mask]
        t_new = np.clip(t_new - step, 0.0, 1.0)
    t_new[0], t_new[-1] = 0.0, 1.0
    return t_new


def sample_curve(control: np.ndarray, step: float) -> np.ndarray:
    """Resample the curve at approximately equal arc-length spacing <= step."""
    if step <= 0:
        raise ValueError("step must be positive")
    dense_n = max(64, 32 * len(control))
    t_dense = np.linspace(0.0, 1.0, dense_n)
    pts = bezier_eval(control, t_dense)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    if total == 0:
        return pts[:1]
    n_out = max(2, int(np.ceil(total / step)) + 1)
    targets = np.linspace(0.0, total, n_out)
    t_out = np.interp(targets, arc, t_dense)
    return bezier_eval(control, t_out)


def resample_polyline(poly, step: float, min_points: int = 2) -> np.ndarray:
    """Resample a polyline at equal arc-length spacing <= step, with at
    least ``min_points`` samples; the endpoints are kept exactly."""
    poly = np.asarray(poly, dtype=float)
    seg = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    n = max(min_points, int(np.ceil(arc[-1] / step)) + 1)
    t = np.linspace(0.0, arc[-1], n)
    return np.stack([np.interp(t, arc, poly[:, c]) for c in range(poly.shape[1])],
                    axis=1)
