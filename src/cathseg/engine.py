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

from .bezier import fit_bezier, resample_polyline
from .features import ConeSpec, FeatureMask, cone_search, orthonormal_basis, \
    ray_sample_spacing
from .spring import ModelTable, SingularConfigurationError, SpringModelParams, \
    lookup, shared_model_table, simulate_backward
from .volume import BasePlane, Volume3D, distance_to_plane

_PARALLEL_EPS = 1e-6
# fraction of the local contrast by which the init cone must beat a flat score
_INIT_MARGIN = 0.1

TAG_IMAGE = "image"
TAG_MODEL = "model"
TAG_COMPROMISE = "compromise"


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
        if self.n_c < 3:
            raise ValueError("n_c must be at least 3")
        if not self.d_tol >= 0:
            raise ValueError("d_tol must be non-negative")
        if self.r_cone <= 0:
            raise ValueError("r_cone must be positive")

    def ensure_table(self) -> ModelTable:
        return shared_model_table(self.model)


@dataclass
class LocalFrame:
    """Right-handed frame: deflection-plane normal, deflection direction,
    reference (marching) direction."""

    n_loc: np.ndarray
    d_loc: np.ndarray
    r_loc: np.ndarray


@dataclass
class EstimateResult:
    a: float
    d: float
    alpha0_sum: float
    f0_est: float
    l_long: np.ndarray
    used_fallback: bool
    warnings: list

    def as_dict(self) -> dict:
        return {"a": self.a, "d": self.d, "alpha0_sum": self.alpha0_sum,
                "f0_est": self.f0_est}


@dataclass
class Trajectory:
    """Ordered catheter points, distal tip first, with fitted Bezier curve."""

    points: np.ndarray                 # (n, 3) world mm
    bezier_control: np.ndarray | None  # (m, 3) or None for exact polylines
    provenance: list                   # per-point tag
    estimates: dict
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "points": [[float(x) for x in p] for p in self.points],
            "bezier": None if self.bezier_control is None
                      else [[float(x) for x in p] for p in self.bezier_control],
            "provenance": list(self.provenance),
            "estimates": {k: float(v) for k, v in self.estimates.items()},
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Trajectory":
        if not isinstance(doc, dict):
            raise ValueError("trajectory must be a JSON object")
        bez = doc.get("bezier")
        return cls(points=np.asarray(doc["points"], dtype=float),
                   bezier_control=None if bez is None else np.asarray(bez, dtype=float),
                   provenance=list(doc.get("provenance", [])),
                   estimates=dict(doc.get("estimates", {})),
                   warnings=list(doc.get("warnings", [])))


def save_trajectory(traj: Trajectory, path):
    Path(path).write_text(json.dumps(traj.to_dict(), indent=2) + "\n")


def load_trajectory(path) -> Trajectory:
    return Trajectory.from_dict(json.loads(Path(path).read_text()))


def make_local_frame(l_s, r_ref, prev: LocalFrame | None = None) -> LocalFrame:
    """Local frame from a segment vector and the reference direction.

    The chain n = l x r, d = n x r, r_loc = n x d always yields
    r_loc = -r_ref exactly, so feeding the distally oriented segment makes
    the frame march proximally.  Segments parallel to the reference reuse the
    previous frame, or a fixed axis-aligned one when there is none.
    """
    l_s = np.asarray(l_s, dtype=float)
    r_ref = np.asarray(r_ref, dtype=float)
    norm = np.linalg.norm(l_s)
    if norm == 0:
        raise ValueError("segment vector must be non-zero")
    l_hat = l_s / norm
    r_hat = r_ref / np.linalg.norm(r_ref)
    n = np.cross(l_hat, r_hat)
    if np.linalg.norm(n) < _PARALLEL_EPS:
        if prev is not None:
            return prev
        n = -orthonormal_basis(r_hat)[0]
    n /= np.linalg.norm(n)
    d = np.cross(n, r_hat)
    d /= np.linalg.norm(d)
    r_loc = np.cross(n, d)
    return LocalFrame(n_loc=n, d_loc=d, r_loc=r_loc)


def propose_model_point(t_k, frame: LocalFrame, alpha_sum_k: float,
                        d_seg: float) -> np.ndarray:
    """One model step of length d_seg from the current cone top."""
    if abs(alpha_sum_k) >= math.pi / 2:
        raise ValueError("alpha_sum_k must lie strictly inside (-pi/2, pi/2)")
    t_k = np.asarray(t_k, dtype=float)
    return t_k + d_seg * (frame.d_loc * math.sin(alpha_sum_k)
                          + frame.r_loc * math.cos(alpha_sum_k))


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

    The cone from the tip toward the base covers half the estimated length.
    If its best score does not beat a flat-image score by a margin of the
    local contrast, the long segment falls back to the straight guess along
    the reference direction.
    """
    tip = np.asarray(tip, dtype=float)
    a = float(distance_to_plane(plane, tip))
    if a <= 0:
        raise ValueError("tip must be strictly distal of the base plane")
    table = config.ensure_table()
    warnings = []

    base = tip - (a / 2.0) * plane.normal
    cone = ConeSpec(apex=tuple(tip), base_center=tuple(base),
                    base_radius=config.r_cone, n_rays=config.n_rays)
    m_point, best_score, samples = cone_search(vol, cone, config.mask,
                                               ray_sample_spacing(vol))
    # local contrast: median minus 1st percentile of the sampled center
    # intensities, without touching voxels outside the cone region
    contrast = float(np.median(samples) - np.percentile(samples, 1))
    used_fallback = best_score >= -_INIT_MARGIN * contrast
    if used_fallback:
        l_long = -(a / 2.0) * plane.normal
        warnings.append("init_fallback_straight")
    else:
        l_long = m_point - tip

    u_long = l_long / np.linalg.norm(l_long)
    alpha0_sum = math.acos(float(np.clip(u_long @ (-plane.normal), -1.0, 1.0)))
    if alpha0_sum >= math.pi / 2 - 1e-6:
        alpha0_sum = math.pi / 2 - 1e-3
        warnings.append("alpha0_clamped")

    z_axis = vol.axis_directions[:, 2]
    alpha_ref = math.acos(float(np.clip(abs(plane.normal @ z_axis), -1.0, 1.0)))
    denom = max(math.cos(alpha_ref), 1e-12)
    d = a / denom * math.sin(alpha0_sum)

    res = lookup(table, a, d)
    if res.clamped:
        warnings.append("lookup_clamped")
    return EstimateResult(a=a, d=d, alpha0_sum=alpha0_sum, f0_est=res.f_est,
                          l_long=l_long, used_fallback=used_fallback,
                          warnings=warnings)


def _angle_profile(model: SpringModelParams, alpha0_sum: float, f0_est: float,
                   max_arc: float):
    """Backward angles at model-segment granularity covering max_arc.

    Returns (arcs, alpha_sums, truncated): when the backward walk hits a
    singular configuration the profile is truncated there and the engine
    treats anything beyond as straight.
    """
    n_steps = min(model.n_seg, max(1, math.ceil(max_arc / model.seg_length)))
    try:
        bw, truncated = simulate_backward(model, alpha0_sum, f0_est, n_steps), False
    except SingularConfigurationError as exc:
        bw, truncated = simulate_backward(model, alpha0_sum, f0_est, exc.step), True
    return np.arange(len(bw.alpha_sum)) * model.seg_length, bw.alpha_sum, truncated


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
    step = ray_sample_spacing(vol)
    warnings = list(est.warnings)
    cones = {} if cones is None else cones

    d_seg = est.a / (config.n_c - 1)
    u_long = est.l_long / np.linalg.norm(est.l_long)
    arcs, alphas, truncated = _angle_profile(config.model, est.alpha0_sum,
                                             est.f0_est, (config.n_c - 1) * d_seg)
    if truncated:
        warnings.append("model_walk_truncated")
    max_arc = float(arcs[-1])

    points = [tip]
    tags = [TAG_IMAGE]

    hard = math.pi / 2 - 1e-6

    def walk_angle(arc: float) -> float:
        if truncated and arc > max_arc:
            return 0.0
        # the (a, d) model space is one-sided: a tip force never bends the
        # catheter past straight, so the profile may not cross zero; the last
        # backward entry is also unchecked by the singular guard
        return min(max(float(np.interp(arc, arcs, alphas)), 0.0), hard)

    def search(apex: np.ndarray, b_mod: np.ndarray):
        if config.d_tol == 0:
            return b_mod
        key = (apex.tobytes(), b_mod.tobytes())
        if key not in cones:
            cone = ConeSpec(apex=tuple(apex), base_center=tuple(b_mod),
                            base_radius=config.r_cone, n_rays=config.n_rays)
            cones[key], _, _ = cone_search(vol, cone, config.mask, step)
        return cones[key]

    def accept(t_k: np.ndarray, candidate: np.ndarray, b_mod: np.ndarray) -> bool:
        """Gate, clip at the base plane; returns False when the walk is done."""
        accepted, tag = gate_candidate(candidate, b_mod, config.d_tol)
        dist = distance_to_plane(plane, accepted)
        if dist <= 0:
            d_k = distance_to_plane(plane, t_k)
            tau = d_k / (d_k - dist) if d_k != dist else 1.0
            accepted = t_k + tau * (accepted - t_k)
        points.append(accepted)
        tags.append(tag)
        return bool(dist > 0)

    # first iteration: step along the estimated long segment, no model angle yet
    b0 = tip + d_seg * u_long
    going = accept(tip, search(tip, b0), b0)

    frame = None
    while going and len(points) < config.n_c:
        k = len(points) - 1
        t_k = points[k]
        frame = make_local_frame(points[k - 1] - t_k, plane.normal, frame)
        alpha_k = walk_angle(k * d_seg)
        b_mod = propose_model_point(t_k, frame, alpha_k, d_seg)
        going = accept(t_k, search(t_k, b_mod), b_mod)

    pts = np.asarray(points)
    # fit against the densified polyline: a square interpolating fit through
    # the raw points would amplify their sub-voxel jitter near the curve ends;
    # a short refinement budget suffices for smoothing fits
    control = fit_bezier(resample_polyline(pts, max(d_seg / 8.0, 0.5), len(pts)),
                         min(config.n_c, len(pts)), max_iter=15)
    return Trajectory(points=pts, bezier_control=control, provenance=tags,
                      estimates=est.as_dict(), warnings=warnings)


def segment_batch(tasks, config: SegmentationConfig, jobs: int = 1) -> list:
    """Segment the tips of (volume, plane, tips, d_tols) tasks.

    Each tip is estimated once and walked once per d_tol, and a cone that
    several of its walks repeat is cast once.  Returns per task one
    (outcomes, seconds) pair per tip: for each d_tol a Trajectory or the
    error text, and the tip's seconds measured inside its worker.  Failures
    never abort the batch, and results keep the input order for any
    ``jobs``; each task's volume is pickled once when ``jobs > 1``.
    """
    config.ensure_table()
    work = [(task, config) for task in tasks]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(_run_task, work, chunksize=1))
    return [_run_task(w) for w in work]


def _run_task(work) -> list:
    """One task in one worker; module level so that the pool can pickle it."""
    (vol, plane, tips, d_tols), config = work
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
