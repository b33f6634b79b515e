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
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bezier import MAX_SAMPLES
from .volume import Volume3D, read_fields, sample_voxel

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# lookups per chunk of a ray batch: several chunks per thread, so that a
# core that runs slow for a while holds up less than its share of a batch
_CHUNK_LOOKUPS = 2**14

# the process's one worker pool, shared by ray scoring and phantom generation
_threads = None                 # its threads; None: one per usable core
_pool = None                    # made on first use by _worker_pool
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class FeatureMask:
    """Circular center-surround mask in the plane orthogonal to a ray."""

    ring_radius: float = 1.6   # mm, one catheter diameter
    n_ring_samples: int = 8

    def __post_init__(self):
        read_fields(self, ("ring_radius",))
        read_fields(self, ("n_ring_samples",), kind=int)
        if not 0 < self.ring_radius < math.inf:
            raise ValueError("ring_radius must be positive and finite")
        if not 4 <= self.n_ring_samples <= MAX_SAMPLES:
            raise ValueError(f"n_ring_samples must be between 4 and {MAX_SAMPLES}")


def orthonormal_basis(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (u, v) spanning the plane orthogonal to ``direction``
    (3,) or to each of a stack (..., 3): ``u = w x e`` for the world axis
    ``e`` least aligned with ``w``, and ``v = w x u``."""
    w = np.asarray(direction, dtype=float)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    e = (np.argmin(np.abs(w), axis=-1)[..., None] == np.arange(3)).astype(float)
    u = _cross(w, e)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v = _cross(w, u)
    return u, v


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two (..., 3) stacks of one shape: its multiplies and
    subtracts in its order, so every bit, signed zeros included, matches."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


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


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    has one (``taskset`` narrows it), else every core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def share_cores(n_processes: int):
    """Run the worker pool on this process's share of the usable cores, for
    one of ``n_processes`` processes that work side by side; call before
    the first ray is scored or phantom generated."""
    global _threads
    _threads = max(1, _usable_cores() // n_processes)


def _worker_pool() -> ThreadPoolExecutor | None:
    """The process's worker pool, which scores rays and draws phantom noise,
    made on first use: one thread per usable core (or per ``share_cores``
    share); None for one."""
    global _pool, _threads
    with _pool_lock:
        if _threads is None:
            _threads = _usable_cores()
        if _pool is None and _threads > 1:
            _pool = ThreadPoolExecutor(_threads, thread_name_prefix="cathseg-worker")
        return _pool


def _forget_pool():
    """In a forked child, which has none of its parent's threads: drop the
    parent's pool (tasks sent to it would wait forever) and its lock."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):      # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_forget_pool)


def _ray_scores(vol: Volume3D, apex: np.ndarray, targets: np.ndarray,
                mask: FeatureMask):
    """Scores for rays apex -> targets[c], each sampled every half voxel
    along its own direction in voxel space; also returns the center samples
    of all rays as one flat array.

    Sample positions are composed directly in voxel space: the world-to-voxel
    map is affine, so transforming the apex and the per-ray vectors once is
    enough.  The rays' samples form one ragged batch, ray by ray.  A batch
    of more than ``_CHUNK_LOOKUPS`` lookups is cut between rays into chunks
    that the worker pool's threads compose, sample and score side by side, and
    their results are joined in ray order; each ray is scored whole, with
    the same arithmetic, so the result has the same bits for any number of
    threads.  A smaller batch, or a process with one thread, is scored on
    the calling thread in one call.
    """
    rays = targets - apex                       # (C, 3) world
    rays_v = vol.vector_to_voxel(rays)
    n_samp = np.maximum(2, np.ceil(2.0 * np.linalg.norm(rays_v, axis=1)).astype(int) + 1)

    u, v = orthonormal_basis(rays)              # per-ray ring basis
    ang = 2.0 * math.pi * np.arange(mask.n_ring_samples) / mask.n_ring_samples
    ring = mask.ring_radius * (np.cos(ang)[None, :, None] * u[:, None, :]
                               + np.sin(ang)[None, :, None] * v[:, None, :])  # (C, m, 3)
    ring_v = vol.vector_to_voxel(ring).transpose(2, 1, 0).copy()   # (3, m, C)
    rays_v = rays_v.T.copy()                                        # (3, C)
    apex_v = vol.world_to_voxel(apex)[:, None]
    per_sample = 1 + mask.n_ring_samples        # lookups

    def score(lo: int, hi: int):
        """Scores and center samples of rays lo..hi-1."""
        n = n_samp[lo:hi]
        ray_of = np.repeat(np.arange(hi - lo), n)                # (N,)
        first = np.cumsum(n) - n
        t = (np.arange(len(ray_of)) - first[ray_of]) / (n - 1)[ray_of]
        # one (3, 1 + m, N) batch, axis by axis: every center, then ring by ring
        coords = np.empty((3, per_sample, len(t)))
        centers = coords[:, 0]
        np.multiply(t, np.repeat(rays_v[:, lo:hi], n, axis=1), out=centers)
        centers += apex_v
        np.add(centers[:, None], np.repeat(ring_v[:, :, lo:hi], n, axis=2), out=coords[:, 1:])
        vals = sample_voxel(vol, coords.reshape(3, -1).T).reshape(per_sample, -1)
        i_center = vals[0]
        i_ring = vals[1:].mean(axis=0)
        return np.bincount(ray_of, i_center - i_ring, minlength=hi - lo) / n, i_center

    # chunk k: the rays whose last lookup is in [k, k + 1) * _CHUNK_LOOKUPS
    ends = np.cumsum(n_samp) * per_sample
    cuts = np.arange(_CHUNK_LOOKUPS, n_samp.sum() * per_sample, _CHUNK_LOOKUPS)
    bounds = np.unique(np.concatenate(
        [[0], np.searchsorted(ends, cuts, side="right"), [len(rays)]]))
    pool = _worker_pool() if len(bounds) > 2 else None
    if pool is None:
        return score(0, len(rays))
    scores, centers = zip(*pool.map(score, bounds[:-1], bounds[1:]))
    return np.concatenate(scores), np.concatenate(centers)


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
    if not (np.isfinite(apex).all() and np.isfinite(base).all()):
        raise ValueError("apex and base_center must be finite")
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
