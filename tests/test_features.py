import multiprocessing
import os
import sys

import numpy as np
import pytest

from cathseg import features
from cathseg.features import (FeatureMask, cone_search, disc_points,
                              orthonormal_basis)
from cathseg.volume import Volume3D, sample_voxel


def tube_volume(radius=0.8, background=100.0, dims=(80, 80, 60),
                spacing=(0.5, 0.5, 1.0), axis_xy=(20.0, 20.0)):
    """Sharp-edged dark tube along +z at (x, y) = axis_xy."""
    nx, ny, nz = dims
    ii = np.arange(nx) * spacing[0]
    jj = np.arange(ny) * spacing[1]
    dist = np.sqrt((ii[:, None] - axis_xy[0]) ** 2 + (jj[None, :] - axis_xy[1]) ** 2)
    plane = np.where(dist < radius, 0.0, background).astype(np.float32)
    data = np.repeat(plane[:, :, None], nz, axis=2)
    return Volume3D(dims=dims, spacing=spacing, origin=(0, 0, 0),
                    axis_directions=np.eye(3), data=data)


def uniform_volume(value=50.0, dims=(40, 40, 30), origin=(0, 0, 0)):
    return Volume3D(dims=dims, spacing=(0.5, 0.5, 1.0), origin=origin,
                    axis_directions=np.eye(3),
                    data=np.full(dims, value, dtype=np.float32))


MASK = FeatureMask()


def ray_score(vol, p_from, p_to):
    """Line score of the one ray p_from -> p_to: a one-ray, radius-0 cone."""
    return cone_search(vol, p_from, p_to, 0.0, 1, MASK)[1]


def test_uniform_volume_scores_zero():
    vol = uniform_volume()
    s = ray_score(vol, (5.0, 5.0, 2.0), (12.0, 9.0, 20.0))
    assert s == pytest.approx(0.0, abs=1e-9)


def test_ray_down_tube_axis_scores_strongly_negative():
    vol = tube_volume()
    on_axis = ray_score(vol, (20.0, 20.0, 5.0), (20.0, 20.0, 50.0))
    assert on_axis < -80.0
    # with the ring on the tube wall itself (tube radius = ring radius) the
    # response weakens but stays clearly negative and axis-selective
    fat = tube_volume(radius=MASK.ring_radius)
    on_axis_fat = ray_score(fat, (20.0, 20.0, 5.0), (20.0, 20.0, 50.0))
    assert on_axis_fat < -30.0
    off = ray_score(fat, (28.0, 20.0, 5.0), (28.0, 20.0, 50.0))
    assert on_axis_fat < off


def test_axis_ray_beats_any_off_tube_ray():
    vol = tube_volume()
    on_axis = ray_score(vol, (20.0, 20.0, 5.0), (20.0, 20.0, 50.0))
    rng = np.random.default_rng(8)
    for _ in range(20):
        p0 = rng.uniform((5, 5, 3), (35, 35, 10))
        p1 = rng.uniform((5, 5, 40), (35, 35, 55))
        if min(np.hypot(*(p[:2] - 20.0)) for p in (p0, p1)) < 3.0:
            continue
        assert ray_score(vol, p0, p1) > on_axis


def test_crossing_ray_scores_worse_than_axis_ray():
    vol = tube_volume()
    on_axis = ray_score(vol, (20.0, 20.0, 5.0), (20.0, 20.0, 50.0))
    crossing = ray_score(vol, (10.0, 20.0, 25.0), (30.0, 20.0, 25.0))
    assert crossing > on_axis


def test_score_invariant_under_intensity_shift():
    vol = tube_volume()
    shifted = Volume3D(dims=vol.dims, spacing=vol.spacing, origin=vol.origin,
                       axis_directions=vol.axis_directions, data=vol.data + 37.5)
    p0, p1 = (18.0, 21.0, 6.0), (22.0, 19.0, 48.0)
    s0 = ray_score(vol, p0, p1)
    s1 = ray_score(shifted, p0, p1)
    assert s1 == pytest.approx(s0, abs=1e-4)


def test_disc_points_layout():
    pts = disc_points((0, 0, 0), (0, 0, 1), 10.0, 200)
    assert pts.shape == (200, 3)
    r = np.linalg.norm(pts[:, :2], axis=1)
    assert r.min() > 0.0                      # the center is not drawn
    assert r.max() == pytest.approx(10.0, abs=1e-9)
    assert np.allclose(pts[:, 2], 0.0, atol=1e-12)
    # radius zero, or no points asked for, draws nothing
    assert disc_points((1, 2, 3), (0, 0, 1), 0.0, 50).shape == (0, 3)
    assert disc_points((1, 2, 3), (0, 0, 1), 5.0, 0).shape == (0, 3)


def test_orthonormal_basis_properties():
    rng = np.random.default_rng(3)
    for _ in range(25):
        w = rng.normal(size=3)
        u, v = orthonormal_basis(w)
        w = w / np.linalg.norm(w)
        for a, b in [(u, v), (u, w), (v, w)]:
            assert abs(a @ b) < 1e-12
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def _basis_with_np_cross(direction):
    """``orthonormal_basis`` as written with ``np.cross`` and
    ``np.put_along_axis``: the reference for its bits."""
    w = np.asarray(direction, dtype=float)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    e = np.zeros_like(w)
    np.put_along_axis(e, np.argmin(np.abs(w), axis=-1)[..., None], 1.0, axis=-1)
    u = np.cross(w, e)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return u, np.cross(w, u)


def test_orthonormal_basis_bits_match_np_cross():
    """Same bits as the ``np.cross`` form, signed zeros included, for random,
    axis-aligned and negative-axis directions, one at a time and stacked."""
    axes = np.concatenate([np.eye(3), -np.eye(3), 2.5 * np.eye(3)])
    mixed = np.array([[1.0, -1.0, 0.0], [0.0, -2.0, 3.0], [-0.0, 0.0, -1.0],
                      [-1.0, 0.0, -0.0], [1e-300, -1.0, 1e-300], [-3.0, 3.0, 3.0]])
    directions = np.concatenate(
        [np.random.default_rng(8).normal(size=(40, 3)), axes, mixed])
    for stack in (directions, directions.reshape(5, 11, 3)):
        u, v = orthonormal_basis(stack)
        u_ref, v_ref = _basis_with_np_cross(stack)
        assert u.tobytes() == u_ref.tobytes() and v.tobytes() == v_ref.tobytes()
    signs = []
    for w in directions:
        u, v = orthonormal_basis(w)
        u_ref, v_ref = _basis_with_np_cross(w)
        assert u.shape == v.shape == (3,)
        assert u.tobytes() == u_ref.tobytes() and v.tobytes() == v_ref.tobytes()
        signs.extend(np.signbit(np.concatenate([u, v]))[np.concatenate([u, v]) == 0])
    assert True in signs and False in signs       # both zeros were compared


def test_orthonormal_basis_stack_matches_rows():
    w = np.random.default_rng(4).normal(size=(50, 3))
    u, v = orthonormal_basis(w)
    assert u.shape == v.shape == (50, 3)
    for row, ur, vr in zip(w, u, v):
        u1, v1 = orthonormal_basis(row)
        assert np.max(np.abs(ur - u1)) <= 1e-15 and np.max(np.abs(vr - v1)) <= 1e-15
    w = w / np.linalg.norm(w, axis=1, keepdims=True)
    for a, b in [(u, v), (u, w), (v, w)]:
        assert np.max(np.abs(np.sum(a * b, axis=1))) < 1e-12
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)


def permuted_axes_volume(vol, perm, signs):
    """The same world content as ``vol`` (identity axes, zero origin) on a
    grid whose axis k runs along world axis perm[k] in direction signs[k]."""
    axes = np.zeros((3, 3))
    origin = np.zeros(3)
    data = np.transpose(vol.data, perm)
    for k, (ax, sign) in enumerate(zip(perm, signs)):
        axes[ax, k] = sign
        if sign < 0:
            origin[ax] = (vol.dims[ax] - 1) * vol.spacing[ax]
            data = np.flip(data, axis=k)
    return Volume3D(dims=data.shape, spacing=vol.spacing[list(perm)], origin=origin,
                    axis_directions=axes, data=data)


@pytest.mark.parametrize("perm,signs", [((2, 0, 1), (-1, 1, -1)),
                                        ((1, 0, 2), (1, -1, 1))])
def test_signed_axis_permutation_samples_and_searches_alike(perm, signs):
    vol = tube_volume()
    turned = permuted_axes_volume(vol, perm, signs)
    assert not np.array_equal(turned.axis_directions, np.eye(3))
    rng = np.random.default_rng(6)
    extent = (np.asarray(vol.dims) - 1) * vol.spacing
    pts = rng.uniform(-2.0, extent + 2.0, size=(2000, 3))
    assert np.max(np.abs(sample_voxel(turned, turned.world_to_voxel(pts))
                         - sample_voxel(vol, vol.world_to_voxel(pts)))) < 1e-9
    cone = ((20.0, 20.0, 10.0), (21.5, 20.5, 25.0), 15.0, 600, MASK)
    best, score, _ = cone_search(vol, *cone)
    best_t, score_t, _ = cone_search(turned, *cone)
    assert np.array_equal(best_t, best)
    assert score_t == pytest.approx(score, abs=1e-9)


def test_cone_search_finds_tube_on_disc():
    vol = tube_volume()
    best, score, _ = cone_search(vol, (20.0, 20.0, 10.0), (21.5, 20.5, 25.0),
                                 15.0, 600, MASK)
    true_pt = np.array([20.0, 20.0, best[2]])
    # within one voxel diagonal of the true centerline crossing
    assert np.linalg.norm(best - true_pt) < np.linalg.norm([0.5, 0.5, 1.0])
    assert score < -50.0


def test_cone_search_uniform_volume_returns_center():
    vol = uniform_volume()
    base = (10.0, 10.0, 16.0)
    best, score, _ = cone_search(vol, (10.0, 10.0, 4.0), base, 6.0, 100, MASK)
    assert np.allclose(best, base, atol=1e-12)
    assert score == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("gap,ok", [(1e-3, True), (1e-9, False)])
def test_cone_search_apex_base_check_ignores_world_origin(gap, ok):
    """The same apex-to-base gap passes or fails alike near the world origin
    and 500 mm away from it."""
    for z in (4.0, 500.0):
        vol = uniform_volume(origin=(0.0, 0.0, z - 4.0))
        apex, base = (10.0, 10.0, z), (10.0, 10.0, z + gap)
        if ok:
            best, _, _ = cone_search(vol, apex, base, 6.0, 50, MASK)
            assert np.allclose(best, base, rtol=0, atol=1e-12)
        else:
            with pytest.raises(ValueError, match="must differ"):
                cone_search(vol, apex, base, 6.0, 50, MASK)


def test_cone_search_zero_radius_returns_base():
    vol = uniform_volume()
    base = (11.0, 9.0, 16.0)
    best, _, _ = cone_search(vol, (10.0, 10.0, 4.0), base, 0.0, 100, MASK)
    assert np.allclose(best, base, atol=1e-12)


def test_cone_search_deterministic(bent_phantom):
    vol, gold, seeds = bent_phantom
    cone = (seeds.tips[0], seeds.tips[0] - np.array([0, 0, 10.0]), 12.0, 300, MASK)
    a = cone_search(vol, *cone)
    b = cone_search(vol, *cone)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_cone_search_localization_converges():
    # apex on the tube, base proposed ~1.5 mm off it: the engine's geometry
    vol = tube_volume()
    apex = (20.0, 20.0, 10.0)
    base = (21.2, 19.1, 24.0)
    errs = []
    for n_rays in (120, 400):
        best, _, _ = cone_search(vol, apex, base, 12.0, n_rays, MASK)
        errs.append(np.linalg.norm(best[:2] - np.array([20.0, 20.0])))
    assert errs[1] <= 0.5 * errs[0]
    assert errs[1] < np.linalg.norm([0.5, 0.5, 1.0])


@pytest.mark.parametrize("axis,samples_per_mm", [(2, 2), (0, 4)], ids=["z", "x"])
def test_ray_sampled_every_half_voxel_of_its_own_length(monkeypatch, axis,
                                                        samples_per_mm):
    """On 0.5 x 0.5 x 1.0 mm voxels a ray of length L draws 2L + 1 samples
    along z and 4L + 1 along x, each with its ring; each ray batch samples
    its centers and rings in one call."""
    vol = uniform_volume()
    points = []
    batches = []
    real = features.sample_voxel
    real_scores = features._ray_scores

    def counting(v, u):
        points.append(u.size // 3)
        return real(v, u)

    def counting_scores(v, apex, targets, mask):
        batches.append(len(targets))
        return real_scores(v, apex, targets, mask)

    monkeypatch.setattr(features, "sample_voxel", counting)
    monkeypatch.setattr(features, "_ray_scores", counting_scores)
    length = 10.0
    apex = np.array([5.0, 5.0, 5.0])
    cone_search(vol, apex, apex + length * np.eye(3)[axis], 0.0, 1, MASK)
    assert sum(points) == (samples_per_mm * length + 1) * (1 + MASK.n_ring_samples)
    assert len(points) == len(batches) == 2      # the coarse ray, an empty fine pass


@pytest.mark.parametrize("chunk_vs_batch", [1, 0, -1, "seventh"],
                         ids=["batch_under_one_chunk", "batch_at_one_chunk",
                              "batch_over_one_chunk", "seven_chunks"])
def test_chunked_ray_scores_equal_one_call(monkeypatch, scoring_threads,
                                           chunk_vs_batch):
    """Rays of many lengths, some leaving the volume: the threads score
    chunks of whole rays to the same bits as one call on one thread."""
    rng = np.random.default_rng(5)
    dims = (40, 36, 30)
    vol = Volume3D(dims=dims, spacing=(0.5, 0.6, 1.0), origin=(1.0, -2.0, 3.0),
                   axis_directions=np.eye(3),
                   data=rng.uniform(0.0, 100.0, dims).astype(np.float32))
    apex = np.array([10.0, 8.0, 15.0])
    targets = apex + rng.normal(0.0, 12.0, (120, 3))
    assert not vol.contains(targets).all()
    calls = []
    real = features.sample_voxel

    def counting(v, u):
        calls.append(u.size // 3)
        return real(v, u)

    monkeypatch.setattr(features, "sample_voxel", counting)
    scoring_threads(1)
    scores, centers = features._ray_scores(vol, apex, targets, MASK)
    batch = calls.pop()
    scoring_threads(3)
    monkeypatch.setattr(features, "_CHUNK_LOOKUPS", batch // 7
                        if chunk_vs_batch == "seventh" else batch + chunk_vs_batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)          # threads interleave as often as they can
    try:
        got_scores, got_centers = features._ray_scores(vol, apex, targets, MASK)
    finally:
        sys.setswitchinterval(interval)
    assert got_scores.tobytes() == scores.tobytes()
    assert got_centers.tobytes() == centers.tobytes()
    assert sum(calls) == batch
    if chunk_vs_batch == "seventh":
        assert len(calls) > 2
    else:
        assert len(calls) == {1: 1, 0: 1, -1: 2}[chunk_vs_batch]


def _oracle_ray_scores(vol, apex, targets, mask):
    """Scores and center samples of the rays composed point by point: one
    (N, 1 + m, 3) batch of each center (plus exact zeros) and its ring, one
    ``sample_voxel`` call, and the ring mean of a contiguous (N, m) copy."""
    rays = targets - apex
    rays_v = vol.vector_to_voxel(rays)
    n = np.maximum(2, np.ceil(2.0 * np.linalg.norm(rays_v, axis=1)).astype(int) + 1)
    u, v = orthonormal_basis(rays)
    ang = 2.0 * np.pi * np.arange(mask.n_ring_samples) / mask.n_ring_samples
    ring = mask.ring_radius * (np.cos(ang)[None, :, None] * u[:, None, :]
                               + np.sin(ang)[None, :, None] * v[:, None, :])
    offsets_v = np.concatenate([np.zeros((len(rays), 1, 3)), vol.vector_to_voxel(ring)], 1)
    ray_of = np.repeat(np.arange(len(rays)), n)
    first = np.cumsum(n) - n
    t = (np.arange(len(ray_of)) - first[ray_of]) / (n - 1)[ray_of]
    centers_v = vol.world_to_voxel(apex) + t[:, None] * rays_v[ray_of]
    vals = sample_voxel(vol, centers_v[:, None, :] + offsets_v[ray_of])
    vals = vals.reshape(-1, 1 + mask.n_ring_samples)
    i_ring = np.ascontiguousarray(vals[:, 1:]).mean(axis=1)
    return np.bincount(ray_of, vals[:, 0] - i_ring, minlength=len(rays)) / n, vals[:, 0]


def _oracle_cases():
    """(volume, apex, targets, ring radius) batches: rays that leave the
    volume, rays that run along the hull's faces and within its tolerance
    outside them, one ray batch wholly inside, a rotated grid, no rays."""
    rng = np.random.default_rng(24)
    dims = (24, 20, 16)
    data = rng.uniform(0.0, 100.0, dims).astype(np.float32)
    vol = Volume3D(dims=dims, spacing=(0.5, 0.5, 1.0), origin=(0.0, 0.0, 0.0),
                   axis_directions=np.eye(3), data=data)
    apex = np.array([6.0, 5.0, 8.0])
    yield "leaving", vol, apex, apex + rng.normal(0.0, 8.0, (40, 3)), 1.6
    hi = (np.asarray(dims) - 1.0) * vol.spacing          # exact in world and voxel units
    for axis in range(3):
        for face in (0.0, hi[axis], -2.5e-10 * vol.spacing[axis],
                     hi[axis] + 2.5e-10 * vol.spacing[axis]):
            a, b = rng.uniform(0.0, hi, (2, 3))
            a[axis] = b[axis] = face
            yield "face", vol, a, b[None, :], 1e-10        # rings within the tolerance
    yield "inside", vol, apex, apex + rng.normal(0.0, 1.0, (30, 3)), 0.5
    turn = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    turned = Volume3D(dims=dims, spacing=(0.5, 0.6, 1.0), origin=(3.0, -4.0, 2.0),
                      axis_directions=turn, data=data)
    center = turned.voxel_to_world((np.asarray(dims) - 1.0) / 2.0)
    yield "rotated", turned, center, center + rng.normal(0.0, 6.0, (40, 3)), 1.6
    yield "no_rays", vol, apex, np.empty((0, 3)), 1.6


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("n_ring_samples", [4, 7, 8, 9, 16, 129])
def test_ray_scores_equal_point_by_point_oracle(monkeypatch, scoring_threads,
                                                n_ring_samples, threads):
    """Every lookup composed axis by axis and ring by ring, and the ring
    mean summed in numpy's order, give the oracle's scores and center
    samples bit for bit, on one thread or on three over small chunks."""
    scoring_threads(threads)
    if threads > 1:
        monkeypatch.setattr(features, "_CHUNK_LOOKUPS", 97 * (1 + n_ring_samples))
    for name, vol, apex, targets, radius in _oracle_cases():
        mask = FeatureMask(ring_radius=radius, n_ring_samples=n_ring_samples)
        scores, centers = features._ray_scores(vol, apex, targets, mask)
        want_scores, want_centers = _oracle_ray_scores(vol, apex, targets, mask)
        assert scores.tobytes() == want_scores.tobytes(), name
        assert centers.tobytes() == want_centers.tobytes(), name
        assert len(scores) == len(targets), name


@pytest.mark.parametrize("m", [*range(4, 71), 127, 128, 129, 200, 257])
def test_ring_mean_sums_in_numpys_order(m):
    """The ring mean of m rows equals numpy's mean over each contiguous row
    of the (N, m) transpose bit for bit: values across 16 decades, so any
    other order rounds differently, and rows of +0.0, -0.0 and mixed zeros,
    whose sign shows the sum's starting value."""
    rng = np.random.default_rng(m)
    block = rng.normal(size=(64, m)) * 10.0 ** rng.uniform(-8.0, 8.0, (64, m))
    block[0] = 0.0
    block[1] = -0.0
    block[2] = np.where(rng.random(m) < 0.5, 0.0, -0.0)
    block[3, 1:] = -0.0
    block[3, 0] = 1e-300
    want = np.ascontiguousarray(block).mean(axis=1)
    got = features._ring_mean(np.ascontiguousarray(block.T))
    assert got.tobytes() == want.tobytes()


def _many_chunk_scores():
    """Scores of a ray batch several chunks long, as bytes."""
    dims = (40, 40, 40)
    vol = Volume3D(dims=dims, spacing=(0.5, 0.5, 0.5), origin=(0, 0, 0),
                   axis_directions=np.eye(3),
                   data=np.random.default_rng(0).uniform(0, 100, dims).astype(np.float32))
    apex = np.array([5.0, 5.0, 5.0])
    targets = apex + np.random.default_rng(1).normal(0.0, 8.0, (200, 3))
    return features._ray_scores(vol, apex, targets, MASK)[0].tobytes()


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_forked_child_scores_on_a_pool_of_its_own(scoring_threads):
    """A child forked after the parent made its pool has none of the pool's
    threads; it must make its own rather than wait on the parent's."""
    scoring_threads(2)
    want = _many_chunk_scores()
    assert features._pool is not None
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_many_chunk_scores).get(timeout=60) == want


def test_cone_casts_coarse_then_three_refinement_discs(monkeypatch):
    vol = tube_volume()
    rays = []
    real = features._ray_scores

    def counting(v, apex, targets, mask):
        rays.append(len(targets))
        return real(v, apex, targets, mask)

    monkeypatch.setattr(features, "_ray_scores", counting)
    cone_search(vol, (20.0, 20.0, 10.0), (21.5, 20.5, 25.0), 15.0, 600, MASK)
    assert rays == [150, 3 * 75]


def test_cone_spec_validation():
    vol = uniform_volume()
    for apex, base, radius, n_rays, match in [
            ((1, 1, 1), (1, 1, 1), 5.0, 100, "apex and base_center must differ"),
            ((1, 1, 1), (1, 1, 1), 0.0, 1, "apex and base_center must differ"),
            ((1, 1, 1), (1, 1, 2), -1.0, 100, "base_radius must be non-negative"),
            ((1, 1, 1), (1, 1, 2), float("nan"), 100, "base_radius"),
            ((1, 1, 1), (1, 1, 2), 5.0, 0, "n_rays must be positive")]:
        with pytest.raises(ValueError, match=match):
            cone_search(vol, apex, base, radius, n_rays, MASK)
    for ring_radius in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="ring_radius"):
            FeatureMask(ring_radius=ring_radius)
    with pytest.raises(ValueError):
        FeatureMask(n_ring_samples=3)
