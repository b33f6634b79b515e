"""Angular-spring catheter bending model.

A catheter is an array of rigid rods joined by torsional springs.  The
forward scheme walks from the clamped base with a given tip-effective force
and yields per-segment deflection angles; the backward scheme starts from a
(tip) state estimate and walks proximally.  A dense table over (length a,
lateral deflection d) built from forward sweeps inverts tip positions back
to the force that produced them.

Units: forces in uN, the spring constant in uN*m per radian (the recurrence
``alpha = F / k_a`` is applied numerically with the lever arm absorbed into
the force scale), lengths in mm, angles in radians.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_TOTAL_ANGLE = math.radians(80.0)  # force sweep cap, short of the pi/2 singularity
_COS_EPS = 1e-6


class OverDeflectionError(RuntimeError):
    """Forward simulation bent past pi/2 total angle."""

    def __init__(self, segment: int, alpha_sum: float):
        self.segment = segment
        self.alpha_sum = alpha_sum
        super().__init__(
            f"over-deflection at segment {segment}: |alpha_sum| = {alpha_sum:.4f} rad >= pi/2")


class SingularConfigurationError(RuntimeError):
    """Backward step hit cos(alpha_sum) <= eps; the force division blows up."""

    def __init__(self, step: int, alpha_sum: float):
        self.step = step
        self.alpha_sum = alpha_sum
        super().__init__(
            f"singular configuration at backward step {step}: cos({alpha_sum:.4f}) <= {_COS_EPS}")


@dataclass(frozen=True)
class SpringModelParams:
    """Mechanical parameters of one catheter."""

    k_a: float = 2050.0         # uN*m per radian
    n_seg: int = 20
    total_length: float = 187.0  # mm

    def __post_init__(self):
        if self.k_a <= 0:
            raise ValueError("k_a must be positive")
        if self.n_seg < 2:
            raise ValueError("n_seg must be at least 2")
        if self.total_length <= 0:
            raise ValueError("total_length must be positive")

    @property
    def seg_length(self) -> float:
        return self.total_length / self.n_seg


@dataclass
class SpringState:
    """Per-segment deflection state of one simulation run.

    ``positions`` are planar (a, d) points in mm: a along the reference
    direction, d lateral.  Forward runs anchor positions[0] = (0, 0) at the
    base; backward runs anchor at the seed point and march proximally
    (a decreasing).  ``positions[i]`` pairs with state index i; consecutive
    positions are exactly ``seg_length`` apart.
    """

    alpha: np.ndarray
    alpha_sum: np.ndarray
    force: np.ndarray
    positions: np.ndarray

    @property
    def tip_position(self) -> np.ndarray:
        return self.positions[-1]


def simulate_forward(params: SpringModelParams, f0: float) -> SpringState:
    """Forward scheme from the clamped base: alpha_0 = 0, F_0 given.

    Raises :class:`OverDeflectionError` when the running angle reaches pi/2.
    """
    if f0 < 0:
        raise ValueError("f0 must be non-negative")
    n = params.n_seg
    alpha = np.zeros(n)
    alpha_sum = np.zeros(n)
    force = np.zeros(n)
    force[0] = f0
    for i in range(n - 1):
        alpha[i + 1] = force[i] / params.k_a
        alpha_sum[i + 1] = alpha_sum[i] + alpha[i + 1]
        if abs(alpha_sum[i + 1]) >= math.pi / 2:
            raise OverDeflectionError(i + 1, alpha_sum[i + 1])
        force[i + 1] = force[i] * math.cos(alpha_sum[i + 1])
    positions = np.zeros((n + 1, 2))
    steps = params.seg_length * np.stack([np.cos(alpha_sum), np.sin(alpha_sum)], axis=1)
    positions[1:] = np.cumsum(steps, axis=0)
    return SpringState(alpha=alpha, alpha_sum=alpha_sum, force=force, positions=positions)


def simulate_backward(params: SpringModelParams, alpha0_sum: float, f0_est: float,
                      n_steps: int) -> SpringState:
    """Backward scheme from a tip-state estimate, marching proximally.

    Returns arrays of length ``n_steps + 1`` whose entry 0 is the seed state;
    entry j sits at arc length ``j * seg_length`` proximal of the seed.
    """
    if abs(alpha0_sum) >= math.pi / 2:
        raise ValueError("alpha0_sum must lie strictly inside (-pi/2, pi/2)")
    if f0_est < 0:
        raise ValueError("f0_est must be non-negative")
    if n_steps < 0 or n_steps > params.n_seg:
        raise ValueError(f"n_steps must be in [0, n_seg], got {n_steps}")
    m = n_steps + 1
    alpha = np.zeros(m)
    alpha_sum = np.zeros(m)
    force = np.zeros(m)
    alpha_sum[0] = alpha0_sum
    force[0] = f0_est
    for i in range(n_steps):
        c = math.cos(alpha_sum[i])
        if c <= _COS_EPS:
            raise SingularConfigurationError(i, alpha_sum[i])
        force[i + 1] = force[i] / c
        alpha[i + 1] = force[i + 1] / params.k_a
        alpha_sum[i + 1] = alpha_sum[i] - alpha[i + 1]
    positions = np.zeros((m, 2))
    steps = -params.seg_length * np.stack(
        [np.cos(alpha_sum[:-1]), np.sin(alpha_sum[:-1])], axis=1)
    if n_steps:
        positions[1:] = np.cumsum(steps, axis=0)
    return SpringState(alpha=alpha, alpha_sum=alpha_sum, force=force, positions=positions)


def find_max_force(params: SpringModelParams,
                   angle_limit: float = MAX_TOTAL_ANGLE) -> float:
    """Largest tip force whose forward run keeps max |alpha_sum| < angle_limit.

    Deterministic doubling plus bisection; the result brackets the limit to
    relative precision ~1e-12.
    """
    def ok(f):
        try:
            state = simulate_forward(params, f)
        except OverDeflectionError:
            return False
        return float(np.max(np.abs(state.alpha_sum))) < angle_limit

    start = max(params.k_a * angle_limit / params.n_seg, 1.0)
    bracket = bracket_threshold(ok, start, 64)
    if bracket is None:
        raise RuntimeError("force sweep failed to find an upper bracket")
    return bracket[0]


def bracket_threshold(below, hi: float, steps: int) -> tuple[float, float] | None:
    """``(lo, hi)`` around the threshold of a predicate that holds below it:
    ``hi`` doubles until ``below(hi)`` fails (None after 200 doublings), then
    up to ``steps`` bisections, stopping once the midpoint no longer lies
    strictly inside, where further steps could not move the bracket."""
    lo = 0.0
    for _ in range(200):
        if not below(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        return None
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass
class LookupResult:
    f_est: float
    alpha_sum_est: float
    clamped: bool


@dataclass
class ModelTable:
    """Dense interpolated map (a, d) -> (tip force, local total angle).

    Built by scattering every segment endpoint of a forward force sweep into
    an (a, d) node lattice.  Each node stores the tip-effective force of the
    catheter passing through it (smallest such force where several coincide,
    which pins the undeflected axis to F = 0) and the local running angle at
    that point.  Remaining gaps are filled by 1D linear interpolation along
    d per a-row, then along a per column.
    """

    f_grid: np.ndarray       # (res, res), [a-index, d-index]
    alpha_grid: np.ndarray   # (res, res)
    a_nodes: np.ndarray
    d_nodes: np.ndarray
    f_max: float
    params: SpringModelParams

    @property
    def resolution(self) -> int:
        return len(self.a_nodes)

    @property
    def a_range(self) -> tuple[float, float]:
        return float(self.a_nodes[0]), float(self.a_nodes[-1])

    @property
    def d_range(self) -> tuple[float, float]:
        return float(self.d_nodes[0]), float(self.d_nodes[-1])


def build_model_table(params: SpringModelParams, f_samples: int = 200,
                      resolution: int = 100) -> ModelTable:
    """Sweep forces in [0, f_max] and grid the resulting support points."""
    if f_samples < 2:
        raise ValueError("f_samples must be at least 2")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")

    f_max = find_max_force(params)
    forces = np.linspace(0.0, f_max, f_samples)
    a_pts, d_pts, f_pts, al_pts = [], [], [], []
    for f0 in forces:
        state = simulate_forward(params, float(f0))
        a_pts.append(state.positions[:, 0])
        d_pts.append(state.positions[:, 1])
        f_pts.append(np.full(params.n_seg + 1, f0))
        # endpoint p >= 1 carries the angle of segment p-1; the base point is flat
        al_pts.append(np.concatenate([[0.0], state.alpha_sum]))
    a_pts = np.concatenate(a_pts)
    d_pts = np.concatenate(d_pts)
    f_pts = np.concatenate(f_pts)
    al_pts = np.concatenate(al_pts)

    a_nodes = np.linspace(0.0, params.total_length, resolution)
    d_max = float(d_pts.max())
    if d_max <= 0:
        d_max = 1.0
    d_nodes = np.linspace(0.0, d_max, resolution)
    a_step = a_nodes[1] - a_nodes[0]
    d_step = d_nodes[1] - d_nodes[0]

    ia = np.clip(np.rint(a_pts / a_step).astype(int), 0, resolution - 1)
    id_ = np.clip(np.rint(d_pts / d_step).astype(int), 0, resolution - 1)
    flat = ia * resolution + id_

    # smallest force wins where several samples land in one node
    order = np.lexsort((f_pts, flat))
    flat_sorted = flat[order]
    first = np.concatenate([[True], flat_sorted[1:] != flat_sorted[:-1]])
    keep = order[first]

    f_grid = np.full((resolution, resolution), np.nan)
    alpha_grid = np.full((resolution, resolution), np.nan)
    f_grid.flat[flat[keep]] = f_pts[keep]
    alpha_grid.flat[flat[keep]] = al_pts[keep]
    # the undeflected catheter bounds the fan continuously, not just at its
    # segment endpoints: the whole d = 0 column is force-free
    f_grid[:, 0] = 0.0
    alpha_grid[:, 0] = 0.0

    _fill_rows_then_columns(f_grid, d_nodes, a_nodes)
    _fill_rows_then_columns(alpha_grid, d_nodes, a_nodes)
    # the physical map is nondecreasing in d at fixed a; iron out binning ripple
    np.maximum.accumulate(f_grid, axis=1, out=f_grid)

    return ModelTable(f_grid=f_grid, alpha_grid=alpha_grid, a_nodes=a_nodes,
                      d_nodes=d_nodes, f_max=f_max, params=params)


@functools.lru_cache(maxsize=16)
def shared_model_table(params: SpringModelParams) -> ModelTable:
    """``build_model_table(params)`` memoized per process on the model;
    every caller gets the same table, so its arrays are made read-only."""
    table = build_model_table(params)
    for grid in (table.f_grid, table.alpha_grid, table.a_nodes, table.d_nodes):
        grid.flags.writeable = False
    return table


def _fill_rows_then_columns(grid: np.ndarray, d_nodes: np.ndarray, a_nodes: np.ndarray):
    res = grid.shape[0]
    nonempty = []
    for i in range(res):
        known = ~np.isnan(grid[i])
        if known.any():
            grid[i] = np.interp(d_nodes, d_nodes[known], grid[i][known])
            nonempty.append(i)
    nonempty = np.asarray(nonempty)
    if nonempty.size == 0:
        raise RuntimeError("no support points scattered into the table")
    empty = np.setdiff1d(np.arange(res), nonempty)
    if empty.size:
        for j in range(res):
            grid[empty, j] = np.interp(a_nodes[empty], a_nodes[nonempty], grid[nonempty, j])


def lookup(table: ModelTable, a: float, d: float) -> LookupResult:
    """Bilinear interpolation in the table; out-of-range queries clamp and flag."""
    a_lo, a_hi = table.a_range
    d_lo, d_hi = table.d_range
    clamped = not (a_lo <= a <= a_hi and d_lo <= d <= d_hi)
    a_c = min(max(a, a_lo), a_hi)
    d_c = min(max(d, d_lo), d_hi)

    res = table.resolution
    xa = (a_c - a_lo) / (a_hi - a_lo) * (res - 1)
    xd = (d_c - d_lo) / (d_hi - d_lo) * (res - 1)
    i = min(int(xa), res - 2)
    j = min(int(xd), res - 2)
    fa, fd = xa - i, xd - j

    def bilin(g):
        return ((1 - fa) * (1 - fd) * g[i, j] + fa * (1 - fd) * g[i + 1, j]
                + (1 - fa) * fd * g[i, j + 1] + fa * fd * g[i + 1, j + 1])

    return LookupResult(f_est=float(bilin(table.f_grid)),
                        alpha_sum_est=float(bilin(table.alpha_grid)),
                        clamped=clamped)


def export_table_csv(table: ModelTable, path):
    """One row per node: a, d, force, alpha_sum."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_mm", "d_mm", "force_uN", "alpha_sum_rad"])
        for i, a in enumerate(table.a_nodes):
            for j, d in enumerate(table.d_nodes):
                writer.writerow([repr(float(a)), repr(float(d)),
                                 repr(float(table.f_grid[i, j])),
                                 repr(float(table.alpha_grid[i, j]))])
