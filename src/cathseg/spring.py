"""Angular-spring catheter bending model.

A catheter is an array of rigid rods joined by torsional springs.  The
forward scheme walks from the clamped base with a given tip-effective force
and yields per-segment deflection angles; the backward scheme starts from a
(tip) state estimate and walks proximally.  ``solve_at_depth`` inverts the
forward scheme by bisection on the catheter cut at a plane depth; a dense
table over (length a, lateral deflection d), read off a forward force sweep
at its node depths, maps tip positions back to the force that produced them
for inspection.

Units: forces in uN, the spring constant in uN*m per radian (the recurrence
``alpha = F / k_a`` is applied numerically with the lever arm absorbed into
the force scale), lengths in mm, angles in radians.
"""

from __future__ import annotations

import csv
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
        super().__init__(
            f"over-deflection at segment {segment}: |alpha_sum| = {alpha_sum:.4f} rad >= pi/2")


class SingularConfigurationError(RuntimeError):
    """Backward step hit cos(alpha_sum) <= eps; the force division blows up."""

    def __init__(self, step: int, alpha_sum: float):
        super().__init__(
            f"singular configuration at backward step {step}: cos({alpha_sum:.4f}) <= {_COS_EPS}")


@dataclass(frozen=True)
class SpringModelParams:
    """Mechanical parameters of one catheter."""

    k_a: float = 2050.0         # uN*m per radian
    n_seg: int = 20
    total_length: float = 187.0  # mm

    def __post_init__(self):
        if not 0 < self.k_a < math.inf:
            raise ValueError("k_a must be positive and finite")
        if self.n_seg < 2:
            raise ValueError("n_seg must be at least 2")
        if not 0 < self.total_length < math.inf:
            raise ValueError("total_length must be positive and finite")

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
    The recurrence runs on Python floats: each step is the float64
    ``f / k_a``, ``s + a`` and ``f * math.cos(s)`` that numpy scalars give.
    """
    if f0 < 0:
        raise ValueError("f0 must be non-negative")
    n = params.n_seg
    k_a = params.k_a
    f, s = float(f0), 0.0
    alpha, alpha_sum, force = [0.0], [0.0], [f]
    for i in range(1, n):
        a = f / k_a
        s = s + a
        if abs(s) >= math.pi / 2:
            raise OverDeflectionError(i, s)
        f = f * math.cos(s)
        alpha.append(a)
        alpha_sum.append(s)
        force.append(f)
    alpha, alpha_sum, force = np.array(alpha), np.array(alpha_sum), np.array(force)
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


def find_max_force(params: SpringModelParams) -> float:
    """Largest tip force whose forward run keeps max |alpha_sum| < MAX_TOTAL_ANGLE.

    Deterministic doubling plus bisection; the result brackets the limit to
    relative precision ~1e-12.  Raises for a limit of 0 or past 2**200 uN.
    """
    def ok(f):
        try:
            state = simulate_forward(params, f)
        except OverDeflectionError:
            return False
        return float(np.max(np.abs(state.alpha_sum))) < MAX_TOTAL_ANGLE

    start = max(params.k_a * MAX_TOTAL_ANGLE / params.n_seg, 1.0)
    bracket = bracket_threshold(ok, start, 64)
    if bracket is None or bracket[0] == 0.0:
        raise RuntimeError("force sweep failed to bracket a positive force")
    if bracket[0] > 2.0 ** 200:
        raise RuntimeError(f"a spring of k_a = {params.k_a:g} is too stiff: no force "
                           f"the search reaches (2**200 uN) bends it to its limit")
    return bracket[0]


def cut_at_depth(params: SpringModelParams, f0: float,
                 depth: float) -> np.ndarray | None:
    """Forward (a, d) polyline from the base to where it crosses plane depth
    ``depth`` > 0, its last point interpolated there; None when the catheter
    never reaches that depth or over-deflects."""
    if not depth > 0:
        raise ValueError("depth must be positive")
    try:
        pos = simulate_forward(params, f0).positions    # (n+1, 2), a increasing
    except OverDeflectionError:
        return None
    a = pos[:, 0]
    if not a[-1] >= depth:
        return None
    i = int(np.searchsorted(a, depth))
    frac = (depth - a[i - 1]) / (a[i] - a[i - 1])
    pos[i] = pos[i - 1] + frac * (pos[i] - pos[i - 1])    # pos is our own copy
    return pos[:i + 1]


def solve_at_depth(params: SpringModelParams, depth: float,
                   short) -> tuple[float, bool]:
    """(force, met): the tip force at which ``short(cut)`` stops holding,
    ``cut`` being the catheter cut at plane depth ``depth``; ``short`` must
    hold for small forces and fail for large ones.

    ``met`` is False when the catheters stop reaching the depth before
    ``short`` fails: the force is then the largest tested one that reaches it.
    """
    def below(f):
        cut = cut_at_depth(params, f, depth)
        return cut is not None and short(cut)

    bracket = bracket_threshold(below, 1.0, 60)
    if bracket is None:
        raise ValueError(f"a spring of k_a = {params.k_a:g} is too stiff: no tip "
                         f"force up to 2**200 uN bends it enough at depth {depth:g} mm")
    lo, hi = bracket
    if cut_at_depth(params, hi, depth) is None:
        return lo, False
    return 0.5 * (lo + hi), True


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

    Node (a_i, d_j) holds the tip-effective force of the catheter that
    crosses depth a_i at offset d_j, and its running angle there, both
    interpolated between the catheters of a forward force sweep; past its
    tip a catheter runs straight on at its last angle.
    """

    f_grid: np.ndarray       # (res, res), [a-index, d-index]
    alpha_grid: np.ndarray   # (res, res)
    a_nodes: np.ndarray
    d_nodes: np.ndarray
    f_max: float

    @property
    def a_range(self) -> tuple[float, float]:
        return float(self.a_nodes[0]), float(self.a_nodes[-1])

    @property
    def d_range(self) -> tuple[float, float]:
        return float(self.d_nodes[0]), float(self.d_nodes[-1])


def build_model_table(params: SpringModelParams) -> ModelTable:
    """Read the catheters of a 200-force sweep over [0, f_max] at 100 node
    depths a; each depth's row interpolates force and angle over their d."""
    resolution = 100
    f_max = find_max_force(params)
    forces = np.linspace(0.0, f_max, 200)
    a_nodes = np.linspace(0.0, params.total_length, resolution)
    d_at, alpha_at, d_end = [], [], 0.0
    for f0 in forces:
        state = simulate_forward(params, float(f0))
        last = state.alpha_sum[-1]
        # past its tip the catheter runs straight on at its last angle, one
        # catheter length further along a: beyond the last node depth
        tail = state.positions[-1] + params.total_length * np.array([1.0, math.tan(last)])
        a, d = np.vstack([state.positions, tail]).T
        # endpoint p >= 1 carries the angle of segment p-1; the base point is flat
        angles = np.concatenate([[0.0], state.alpha_sum, [last]])
        d_at.append(np.interp(a_nodes, a, d))
        alpha_at.append(np.interp(a_nodes, a, angles))
        d_end = max(d_end, d[-2])          # the tip deflects furthest
    d_nodes = np.linspace(0.0, d_end, resolution)

    f_grid, alpha_grid = np.empty((2, resolution, resolution))
    for i, (d, alpha) in enumerate(zip(np.transpose(d_at), np.transpose(alpha_at))):
        # the offsets rise with the force; where they tie (every catheter is
        # straight along its first segment) the smallest force wins
        d, first = np.unique(d, return_index=True)
        f_grid[i] = np.interp(d_nodes, d, forces[first])
        alpha_grid[i] = np.interp(d_nodes, d, alpha[first])
    return ModelTable(f_grid=f_grid, alpha_grid=alpha_grid, a_nodes=a_nodes,
                      d_nodes=d_nodes, f_max=f_max)


def lookup(table: ModelTable, a: float, d: float) -> LookupResult:
    """Bilinear interpolation in the table; out-of-range queries clamp and flag."""
    a_lo, a_hi = table.a_range
    d_lo, d_hi = table.d_range
    clamped = not (a_lo <= a <= a_hi and d_lo <= d <= d_hi)
    a_c = min(max(a, a_lo), a_hi)
    d_c = min(max(d, d_lo), d_hi)

    res = len(table.a_nodes)
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
