"""Image evidence for dark tubular trajectories.

Rays are scored by distal-to-proximal line integrals of a center-minus-ring
response: at each sample along the ray the intensity at the ray is compared
with the mean intensity on a small ring in the plane orthogonal to the ray.
Dark cores with bright rims score strongly negative.  A cone search casts
one ray per candidate point on a disc and keeps the minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .volume import Volume3D, sample_voxel

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class FeatureMask:
    """Circular center-surround mask in the plane orthogonal to a ray."""

    ring_radius: float = 1.6   # mm, one catheter diameter
    n_ring_samples: int = 8

    def __post_init__(self):
        if self.ring_radius <= 0:
            raise ValueError("ring_radius must be positive")
        if self.n_ring_samples < 4:
            raise ValueError("need at least 4 ring samples")


@dataclass(frozen=True)
class ConeSpec:
    """Search cone: rays from the apex to candidates on the base disc."""

    apex: tuple
    base_center: tuple
    base_radius: float
    n_rays: int = 600

    def __post_init__(self):
        if self.base_radius < 0:
            raise ValueError("base_radius must be non-negative")
        if self.n_rays < 1:
            raise ValueError("n_rays must be positive")
        if np.allclose(self.apex, self.base_center):
            raise ValueError("apex and base_center must differ")


def orthonormal_basis(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (u, v) spanning the plane orthogonal to ``direction``
    (3,) or to each of a stack (..., 3): ``u = w x e`` for the world axis
    ``e`` least aligned with ``w``, and ``v = w x u``."""
    w = np.asarray(direction, dtype=float)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    e = np.zeros_like(w)
    np.put_along_axis(e, np.argmin(np.abs(w), axis=-1)[..., None], 1.0, axis=-1)
    u = np.cross(w, e)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v = np.cross(w, u)
    return u, v


def disc_points(center, normal, radius: float, n: int) -> np.ndarray:
    """Center point plus a sunflower layout filling the disc, n points total."""
    center = np.asarray(center, dtype=float)
    if radius == 0 or n == 1:
        return center[None, :]
    u, v = orthonormal_basis(normal)
    k = np.arange(1, n)
    r = radius * np.sqrt(k / (n - 1))
    th = k * GOLDEN_ANGLE
    offsets = r[:, None] * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * v)
    return np.vstack([center[None, :], center + offsets])


def ray_sample_spacing(vol: Volume3D) -> float:
    """Nyquist-safe line-integral spacing: half the smallest voxel spacing."""
    return 0.5 * float(np.min(vol.spacing))


def _ray_scores(vol: Volume3D, apex: np.ndarray, targets: np.ndarray,
                mask: FeatureMask, step: float):
    """Scores for rays apex -> targets[c]; also returns the raw center samples.

    Sample positions are composed directly in voxel space: the world-to-voxel
    map is affine, so transforming the apex and the per-ray vectors once is
    enough.
    """
    apex = np.asarray(apex, dtype=float)
    targets = np.asarray(targets, dtype=float)
    rays = targets - apex                       # (C, 3) world
    lens = np.linalg.norm(rays, axis=1)
    n_samp = max(2, int(np.ceil(lens.max() / step)) + 1)
    t = np.linspace(0.0, 1.0, n_samp)

    u, v = orthonormal_basis(rays)              # per-ray ring basis
    ang = 2.0 * math.pi * np.arange(mask.n_ring_samples) / mask.n_ring_samples
    ring = mask.ring_radius * (np.cos(ang)[None, :, None] * u[:, None, :]
                               + np.sin(ang)[None, :, None] * v[:, None, :])  # (C, m, 3)

    apex_v = vol.world_to_voxel(apex)
    rays_v = vol.vector_to_voxel(rays)
    ring_v = vol.vector_to_voxel(ring)
    centers_v = apex_v + t[None, :, None] * rays_v[:, None, :]   # (C, n, 3)
    ring_pts_v = centers_v[:, :, None, :] + ring_v[:, None, :, :]

    i_center = sample_voxel(vol, centers_v).reshape(centers_v.shape[:2])
    i_ring = sample_voxel(vol, ring_pts_v).reshape(ring_pts_v.shape[:3]).mean(axis=2)
    scores = (i_center - i_ring).mean(axis=1)
    return scores, i_center


def line_score(vol: Volume3D, p_from, p_to, mask: FeatureMask, step: float) -> float:
    """Mean center-minus-ring response along the segment; lower = darker line."""
    p_from = np.asarray(p_from, dtype=float)
    p_to = np.asarray(p_to, dtype=float)
    if step <= 0:
        raise ValueError("step must be positive")
    if np.allclose(p_from, p_to):
        raise ValueError("p_from and p_to must differ")
    scores, _ = _ray_scores(vol, p_from, p_to[None, :], mask, step)
    return float(scores[0])


def cone_search(vol: Volume3D, cone: ConeSpec, mask: FeatureMask,
                step: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Best candidate on the cone base disc by minimum line score.

    Returns the candidate, its score and the center intensities sampled
    along every ray, (n_rays, n_samples).  Ties resolve to the candidate
    nearest the base center, so an uninformative image defers to wherever
    the base was proposed.
    """
    apex = np.asarray(cone.apex, dtype=float)
    base = np.asarray(cone.base_center, dtype=float)
    candidates = disc_points(base, base - apex, cone.base_radius, cone.n_rays)
    scores, samples = _ray_scores(vol, apex, candidates, mask, step)
    best = _pick_minimizer(candidates, scores, base)
    return candidates[best].copy(), float(scores[best]), samples


def _pick_minimizer(candidates, scores, base) -> int:
    """Index of the lowest score; scores tied within numerical noise resolve
    to the candidate nearest the proposed base."""
    lo = float(scores.min())
    tol = 1e-9 * max(1.0, abs(lo))
    tied = np.flatnonzero(scores <= lo + tol)
    dists = np.linalg.norm(candidates[tied] - base, axis=1)
    return int(tied[np.argmin(dists)])
