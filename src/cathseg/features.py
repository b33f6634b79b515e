"""Image evidence for dark tubular trajectories.

Rays are scored by distal-to-proximal line integrals of a center-minus-ring
response: at each sample along the ray the intensity at the ray is compared
with the mean intensity on a small ring in the plane orthogonal to the ray.
Dark cores with bright rims score strongly negative.  A cone search casts
one ray per candidate point on a disc, coarse to fine, and keeps the
minimizer.
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
        if not 0 < self.ring_radius < math.inf:
            raise ValueError("ring_radius must be positive and finite")
        if self.n_ring_samples < 4:
            raise ValueError("need at least 4 ring samples")


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
    """Sunflower layout of n points filling the disc around (not at) the
    center, the outermost on its rim; none when the radius is zero."""
    center = np.asarray(center, dtype=float)
    if radius == 0:
        return np.empty((0, 3))
    u, v = orthonormal_basis(normal)
    k = np.arange(1, n + 1)
    r = radius * np.sqrt(k / n)
    th = k * GOLDEN_ANGLE
    offsets = r[:, None] * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * v)
    return center + offsets


def _ray_scores(vol: Volume3D, apex: np.ndarray, targets: np.ndarray,
                mask: FeatureMask):
    """Scores for rays apex -> targets[c], each sampled every half voxel
    along its own direction in voxel space; also returns the center samples
    of all rays as one flat array.

    Sample positions are composed directly in voxel space: the world-to-voxel
    map is affine, so transforming the apex and the per-ray vectors once is
    enough.  The rays' samples form one ragged batch, ray by ray.
    """
    rays = targets - apex                       # (C, 3) world
    rays_v = vol.vector_to_voxel(rays)
    n_samp = np.maximum(2, np.ceil(2.0 * np.linalg.norm(rays_v, axis=1)).astype(int) + 1)
    ray_of = np.repeat(np.arange(len(rays)), n_samp)            # (N,)
    first = np.cumsum(n_samp) - n_samp
    t = (np.arange(len(ray_of)) - first[ray_of]) / (n_samp - 1)[ray_of]

    u, v = orthonormal_basis(rays)              # per-ray ring basis
    ang = 2.0 * math.pi * np.arange(mask.n_ring_samples) / mask.n_ring_samples
    ring = mask.ring_radius * (np.cos(ang)[None, :, None] * u[:, None, :]
                               + np.sin(ang)[None, :, None] * v[:, None, :])  # (C, m, 3)

    centers_v = vol.world_to_voxel(apex) + t[:, None] * rays_v[ray_of]      # (N, 3)
    # one (N, 1 + m, 3) batch: each center (+ exact zeros keeps its bits), then its ring
    offsets_v = np.concatenate([np.zeros((len(rays), 1, 3)), vol.vector_to_voxel(ring)], 1)
    vals = sample_voxel(vol, centers_v[:, None, :] + offsets_v[ray_of])
    vals = vals.reshape(-1, 1 + mask.n_ring_samples)
    i_center = vals[:, 0]
    i_ring = np.ascontiguousarray(vals[:, 1:]).mean(axis=1)    # the (N, m) block's sum order
    scores = np.bincount(ray_of, i_center - i_ring, minlength=len(rays)) / n_samp
    return scores, i_center


def cone_search(vol: Volume3D, apex, base_center, base_radius: float,
                n_rays: int, mask: FeatureMask) -> tuple[np.ndarray, float, np.ndarray]:
    """Best candidate on the cone base disc by minimum line score.

    Casts the rays coarse to fine from the apex: ``max(1, n_rays // 4)``
    rays at ``base_center`` and on a sunflower disc of radius
    ``base_radius`` around it, then ``n_rays // 8`` rays on a disc of the
    coarse spacing around (not at) each of the three best coarse
    candidates.  Returns the candidate, its score and the center
    intensities sampled along every ray cast, as one flat array.  Ties
    resolve to the candidate nearest the base center, so an uninformative
    image defers to wherever the base was proposed.
    """
    apex = np.asarray(apex, dtype=float)
    base = np.asarray(base_center, dtype=float)
    if not base_radius >= 0:
        raise ValueError("base_radius must be non-negative")
    if n_rays < 1:
        raise ValueError("n_rays must be positive")
    if np.allclose(apex, base, rtol=0):       # absolute: origin-independent
        raise ValueError("apex and base_center must differ")
    axis = base - apex
    n_coarse = max(1, n_rays // 4)
    coarse = np.vstack([base, disc_points(base, axis, base_radius, n_coarse - 1)])
    coarse_scores, coarse_samples = _ray_scores(vol, apex, coarse, mask)

    fine_radius = base_radius * math.sqrt(math.pi / n_coarse)   # the coarse spacing
    best_coarse = coarse[np.argsort(coarse_scores, kind="stable")[:3]]
    fine = np.vstack([disc_points(c, axis, fine_radius, n_rays // 8)
                      for c in best_coarse])
    fine_scores, fine_samples = _ray_scores(vol, apex, fine, mask)

    candidates = np.vstack([coarse, fine])
    scores = np.concatenate([coarse_scores, fine_scores])
    best = _pick_minimizer(candidates, scores, base)
    return (candidates[best].copy(), float(scores[best]),
            np.concatenate([coarse_samples, fine_samples]))


def _pick_minimizer(candidates, scores, base) -> int:
    """Index of the lowest score; scores tied within numerical noise resolve
    to the candidate nearest the proposed base."""
    lo = float(scores.min())
    tol = 1e-9 * max(1.0, abs(lo))
    tied = np.flatnonzero(scores <= lo + tol)
    dists = np.linalg.norm(candidates[tied] - base, axis=1)
    return int(tied[np.argmin(dists)])
