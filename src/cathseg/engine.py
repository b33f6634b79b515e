"""Model-guided catheter segmentation.

``estimate_model`` fits the bending model to one long initialization cone
from the distal tip; ``walk`` then alternates short model-proposed steps
with cone searches, gates each image candidate against the model proposal
with ``d_tol`` and fits a Bezier curve to the accepted points.  The batch
runner estimates each catheter once and walks it once per ``d_tol``; the
walks of one catheter share their cones, so a cone that two modes repeat
(the image-only and hybrid walks agree until hybrid first compromises) is
cast once.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bezier import MAX_SAMPLES, fit_bezier, resample_polyline
from .features import FeatureMask, cone_search, orthonormal_basis, share_cores
from .spring import ModelTable, SpringModelParams, build_model_table, \
    cut_at_depth, solve_at_depth
from .volume import BasePlane, Volume3D, distance_to_plane, read_fields, read_numbers

_PARALLEL_EPS = 1e-6
# fraction of the local contrast by which the init cone must beat a flat score
_INIT_MARGIN = 0.1

TAG_IMAGE = "image"
TAG_MODEL = "model"
TAG_COMPROMISE = "compromise"
WARN_INIT_FALLBACK = "init_fallback_straight"


@dataclass(frozen=True)
class SegmentationConfig:
    """All tunables of the segmentation engine; derive variants with
    ``dataclasses.replace``."""

    n_c: int = 8                  # control / cone count
    d_tol: float = 1.0            # mm; 0 = model only, inf = image only
    r_cone: float = 20.0          # mm cone base radius
    mask: FeatureMask = field(default_factory=FeatureMask)
    n_rays: int = 600
    model: SpringModelParams = field(default_factory=SpringModelParams)

    def __post_init__(self):
        read_fields(self, ("n_c", "n_rays"), kind=int)
        # d_tol is a finite number, or inf for image-only search
        read_fields(self, ("r_cone",) if self.d_tol == math.inf else ("r_cone", "d_tol"))
        if not 3 <= self.n_c <= MAX_SAMPLES:
            raise ValueError(f"n_c must be between 3 and {MAX_SAMPLES}")
        if not self.d_tol >= 0:
            raise ValueError("d_tol must be non-negative")
        if not 0 < self.r_cone < math.inf:
            raise ValueError("r_cone must be positive and finite")
        if not 1 <= self.n_rays <= MAX_SAMPLES:
            raise ValueError(f"n_rays must be between 1 and {MAX_SAMPLES}")

    def ensure_table(self) -> ModelTable:
        """The model table of ``model``, built afresh; segmentation never
        reads it, but the benchmark's set-up builds one."""
        return build_model_table(self.model)


@dataclass
class EstimateResult:
    a: float
    alpha0_sum: float
    f0_est: float
    catheter: np.ndarray    # forward (a, d) polyline under f0_est cut at a, base first
    l_long: np.ndarray
    used_fallback: bool
    warnings: list


@dataclass
class Trajectory:
    """Ordered catheter points, distal tip first, with fitted Bezier curve."""

    points: np.ndarray                 # (n, 3) world mm
    bezier_control: np.ndarray | None  # (m, 3) or None for exact polylines
    provenance: list                   # per-point tag
    estimates: dict
    warnings: list = field(default_factory=list)


def save_trajectory(traj: Trajectory, path):
    bez = traj.bezier_control
    doc = {"points": np.asarray(traj.points, dtype=float).tolist(),
           "bezier": None if bez is None else np.asarray(bez, dtype=float).tolist(),
           "provenance": list(traj.provenance),
           "estimates": {k: float(v) for k, v in traj.estimates.items()},
           "warnings": list(traj.warnings)}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_trajectory(path) -> Trajectory:
    """Read a trajectory file; a malformed one raises ValueError."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("trajectory must be a JSON object")
    bez = doc.get("bezier")
    estimates = doc.get("estimates", {})
    provenance = doc.get("provenance", [])
    warnings = doc.get("warnings", [])
    if not (isinstance(estimates, dict) and isinstance(provenance, list)
            and isinstance(warnings, list)):
        raise ValueError("trajectory estimates must be a JSON object, and its "
                         "provenance and warnings JSON arrays")
    estimates = {k: read_numbers(v, f"trajectory estimate {k!r}")
                 for k, v in estimates.items()}
    if not all(tag in (TAG_IMAGE, TAG_MODEL, TAG_COMPROMISE) for tag in provenance):
        raise ValueError("trajectory provenance tags must be image, model or compromise")
    if not all(isinstance(w, str) for w in warnings):
        raise ValueError("trajectory warnings must be strings")
    return Trajectory(points=_curve_points(doc["points"], "points"),
                      bezier_control=None if bez is None else _curve_points(bez, "bezier"),
                      provenance=provenance, estimates=estimates, warnings=warnings)


def _curve_points(value, name: str) -> np.ndarray:
    pts = np.array(read_numbers(value, f"trajectory {name}", (None, 3)))
    if len(pts) < 2:
        raise ValueError(f"trajectory {name} must have two or more rows")
    return pts


def lateral_direction(step, normal) -> np.ndarray:
    """Unit component of ``step`` across the unit plane ``normal``: the
    direction in which the bending model deflects.

    A step along the normal (a zero step included) falls back to a fixed
    in-plane axis.
    """
    step = np.asarray(step, dtype=float)
    side = step - (step @ normal) * normal
    norm = np.linalg.norm(side)
    if norm <= _PARALLEL_EPS * np.linalg.norm(step):
        return orthonormal_basis(normal)[1]
    return side / norm


def propose_model_point(t_k, lateral, normal, alpha_sum_k: float,
                        d_seg: float) -> np.ndarray:
    """One model step of length d_seg from the current cone top, bent by
    ``alpha_sum_k`` from the proximal normal toward ``lateral``."""
    if abs(alpha_sum_k) >= math.pi / 2:
        raise ValueError("alpha_sum_k must lie strictly inside (-pi/2, pi/2)")
    t_k = np.asarray(t_k, dtype=float)
    return t_k + d_seg * (math.sin(alpha_sum_k) * lateral
                          - math.cos(alpha_sum_k) * normal)


def gate_candidate(c_img, b_mod, d_tol: float) -> tuple[np.ndarray, str]:
    """Accept the image candidate, or place a compromise point toward it."""
    c_img = np.asarray(c_img, dtype=float)
    b_mod = np.asarray(b_mod, dtype=float)
    if d_tol == 0:
        return b_mod.copy(), TAG_MODEL
    dist = float(np.linalg.norm(c_img - b_mod))
    if dist < d_tol:
        return c_img.copy(), TAG_IMAGE
    step = min(d_tol, dist / 2.0)
    return b_mod + (c_img - b_mod) / dist * step, TAG_COMPROMISE


def estimate_model(vol: Volume3D, tip, plane: BasePlane,
                   config: SegmentationConfig) -> EstimateResult:
    """Per-catheter model estimation from one long initialization cone.

    The cone from the tip toward the base covers half the tip's depth ``a``.
    If its best score does not beat a flat-image score by a margin of the
    local contrast, the long segment falls back to the straight guess along
    the reference direction.  The force is the one whose forward catheter,
    cut at depth ``a``, has its chord from depth ``a/2`` to ``a`` at the
    long segment's angle ``alpha0_sum`` to the plane normal.
    """
    tip = np.asarray(tip, dtype=float)
    a = float(distance_to_plane(plane, tip))
    if a <= 0:
        raise ValueError("tip must be strictly distal of the base plane")
    warnings = []

    base = tip - (a / 2.0) * plane.normal
    m_point, best_score, samples = cone_search(vol, tip, base, config.r_cone,
                                               config.n_rays, config.mask)
    # local contrast: median minus 1st percentile of the sampled center
    # intensities, without touching voxels outside the cone region
    contrast = float(np.median(samples) - np.percentile(samples, 1))
    used_fallback = best_score >= -_INIT_MARGIN * contrast
    if used_fallback:
        l_long = -(a / 2.0) * plane.normal
        warnings.append(WARN_INIT_FALLBACK)
    else:
        l_long = m_point - tip

    u_long = l_long / np.linalg.norm(l_long)
    alpha0_sum = math.acos(float(np.clip(u_long @ (-plane.normal), -1.0, 1.0)))

    def chord_short(cut):
        mid = np.interp(a / 2.0, cut[:, 0], cut[:, 1])
        return math.atan2(cut[-1, 1] - mid, a / 2.0) < alpha0_sum

    f0, met = solve_at_depth(config.model, a, chord_short)
    if not met:
        warnings.append("chord_beyond_model")
    catheter = cut_at_depth(config.model, f0, a)
    if catheter is None:
        raise ValueError(f"tip lies {a:.6g} mm from the base plane, beyond "
                         f"the catheter's reach")
    return EstimateResult(a=a, alpha0_sum=alpha0_sum, f0_est=f0, catheter=catheter,
                          l_long=l_long, used_fallback=used_fallback,
                          warnings=warnings)


def segment_catheter(vol: Volume3D, tip, plane: BasePlane,
                     config: SegmentationConfig) -> Trajectory:
    """Segment one catheter from its distal tip to the base plane."""
    return walk(vol, tip, plane, config, estimate_model(vol, tip, plane, config))


def walk(vol: Volume3D, tip, plane: BasePlane, config: SegmentationConfig,
         est: EstimateResult, cones: dict | None = None) -> Trajectory:
    """Guided walk from the tip to the base plane under the estimate ``est``
    of this catheter, then the Bezier fit of the accepted points.

    ``cones`` memoizes cone candidates by the exact bytes of the apex and
    base center.  Share one memo only between walks of one tip in one volume
    whose configs differ in ``d_tol`` alone: everything else that a cone
    search reads is then the same, so every result is unchanged.
    """
    tip = np.asarray(tip, dtype=float)
    cones = {} if cones is None else cones

    d_seg = est.a / (config.n_c - 1)
    # each catheter segment's angle to the normal, at its middle's arc from the tip
    seg = np.diff(est.catheter, axis=0)[::-1]
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    arcs = np.cumsum(lengths) - lengths / 2.0
    alphas = np.arctan2(seg[:, 1], seg[:, 0])

    # the model catheter bends in one plane: the normal's and the long segment's
    lateral = lateral_direction(est.l_long, plane.normal)

    points = [tip]
    tags = [TAG_IMAGE]
    while len(points) < config.n_c:
        t_k = points[-1]
        # the segment angle at the middle of this step's arc from the tip
        alpha = float(np.interp((len(points) - 0.5) * d_seg, arcs, alphas))
        b_mod = propose_model_point(t_k, lateral, plane.normal, alpha, d_seg)
        candidate = b_mod
        if config.d_tol > 0:
            key = (t_k.tobytes(), b_mod.tobytes())
            if key not in cones:
                cones[key], _, _ = cone_search(vol, t_k, b_mod, config.r_cone,
                                               config.n_rays, config.mask)
            candidate = cones[key]
        accepted, tag = gate_candidate(candidate, b_mod, config.d_tol)
        dist = distance_to_plane(plane, accepted)
        if dist <= 0:           # clip the last step at the base plane
            d_k = distance_to_plane(plane, t_k)     # > 0: t_k is distal
            accepted = t_k + d_k / (d_k - dist) * (accepted - t_k)
        points.append(accepted)
        tags.append(tag)
        if dist <= 0:
            break

    pts = np.asarray(points)
    # fit against the densified polyline: a square interpolating fit through
    # the raw points would amplify their sub-voxel jitter near the curve ends
    control = fit_bezier(resample_polyline(pts, max(d_seg / 8.0, 0.5), len(pts)),
                         len(pts))
    return Trajectory(points=pts, bezier_control=control, provenance=tags,
                      estimates={"a": est.a, "alpha0_sum": est.alpha0_sum,
                                 "f0_est": est.f0_est},
                      warnings=list(est.warnings))


def segment_batch(tasks, config: SegmentationConfig, d_tols, jobs: int = 1) -> list:
    """Segment the tips of (volume, plane, tips) tasks once per d_tol.

    Each tip is estimated once and walked once per d_tol, and a cone that
    several of its walks repeat is cast once.  Returns per task one
    (outcomes, seconds) pair per tip: for each d_tol a Trajectory or the
    error text, and the tip's seconds measured inside its worker.  Failures
    never abort the batch, and results keep the input order for any
    ``jobs``; each task's volume is pickled once when ``jobs > 1``.  One
    process already scores rays on every usable core; ``jobs > 1`` worker
    processes share them, each scoring on ``cores // jobs`` threads (at
    least one), so that together they start no more threads than cores.
    """
    work = [(task, config, d_tols) for task in tasks]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=share_cores, initargs=(jobs,)) as pool:
            return list(pool.map(_run_task, work, chunksize=1))
    return [_run_task(w) for w in work]


def _run_task(work) -> list:
    """One task in one worker; module level so that the pool can pickle it."""
    (vol, plane, tips), config, d_tols = work
    results = []
    for tip in tips:
        t0 = time.perf_counter()
        outcomes = []
        try:
            est = estimate_model(vol, tip, plane, config)
        except Exception as exc:
            outcomes = [error_text(exc)] * len(d_tols)
        else:
            cones = {}              # this tip's cone candidates, all d_tols
            for d_tol in d_tols:
                try:
                    outcomes.append(walk(vol, tip, plane,
                                         replace(config, d_tol=d_tol), est, cones))
                except Exception as exc:
                    outcomes.append(error_text(exc))
        results.append((outcomes, time.perf_counter() - t0))
    return results


def error_text(exc: Exception) -> str:
    """One-line description of a per-catheter failure."""
    return f"{type(exc).__name__}: {exc}"
