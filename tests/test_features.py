import numpy as np
import pytest

from cathseg.features import (ConeSpec, FeatureMask, cone_search, disc_points,
                              line_score, orthonormal_basis)
from cathseg.volume import Volume3D, sample_trilinear


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


def uniform_volume(value=50.0, dims=(40, 40, 30)):
    return Volume3D(dims=dims, spacing=(0.5, 0.5, 1.0), origin=(0, 0, 0),
                    axis_directions=np.eye(3),
                    data=np.full(dims, value, dtype=np.float32))


MASK = FeatureMask()
STEP = 0.25


def test_uniform_volume_scores_zero():
    vol = uniform_volume()
    s = line_score(vol, (5.0, 5.0, 2.0), (12.0, 9.0, 20.0), MASK, STEP)
    assert s == pytest.approx(0.0, abs=1e-9)


def test_ray_down_tube_axis_scores_strongly_negative():
    vol = tube_volume()
    on_axis = line_score(vol, (20.0, 20.0, 5.0), (20.0, 20.0, 50.0), MASK, STEP)
    assert on_axis < -80.0
    # with the ring on the tube wall itself (tube radius = ring radius) the
    # response weakens but stays clearly negative and axis-selective
    fat = tube_volume(radius=MASK.ring_radius)
    on_axis_fat = line_score(fat, (20.0, 20.0, 5.0), (20.0, 20.0, 50.0), MASK, STEP)
    assert on_axis_fat < -30.0
    off = line_score(fat, (28.0, 20.0, 5.0), (28.0, 20.0, 50.0), MASK, STEP)
    assert on_axis_fat < off


def test_axis_ray_beats_any_off_tube_ray():
    vol = tube_volume()
    on_axis = line_score(vol, (20.0, 20.0, 5.0), (20.0, 20.0, 50.0), MASK, STEP)
    rng = np.random.default_rng(8)
    for _ in range(20):
        p0 = rng.uniform((5, 5, 3), (35, 35, 10))
        p1 = rng.uniform((5, 5, 40), (35, 35, 55))
        if min(np.hypot(*(p[:2] - 20.0)) for p in (p0, p1)) < 3.0:
            continue
        assert line_score(vol, p0, p1, MASK, STEP) > on_axis


def test_crossing_ray_scores_worse_than_axis_ray():
    vol = tube_volume()
    on_axis = line_score(vol, (20.0, 20.0, 5.0), (20.0, 20.0, 50.0), MASK, STEP)
    crossing = line_score(vol, (10.0, 20.0, 25.0), (30.0, 20.0, 25.0), MASK, STEP)
    assert crossing > on_axis


def test_score_invariant_under_intensity_shift():
    vol = tube_volume()
    shifted = Volume3D(dims=vol.dims, spacing=vol.spacing, origin=vol.origin,
                       axis_directions=vol.axis_directions, data=vol.data + 37.5)
    p0, p1 = (18.0, 21.0, 6.0), (22.0, 19.0, 48.0)
    s0 = line_score(vol, p0, p1, MASK, STEP)
    s1 = line_score(shifted, p0, p1, MASK, STEP)
    assert s1 == pytest.approx(s0, abs=1e-4)


def test_line_score_validation():
    vol = uniform_volume()
    with pytest.raises(ValueError):
        line_score(vol, (1, 1, 1), (1, 1, 1), MASK, STEP)
    with pytest.raises(ValueError):
        line_score(vol, (1, 1, 1), (2, 2, 2), MASK, 0.0)


def test_disc_points_layout():
    pts = disc_points((0, 0, 0), (0, 0, 1), 10.0, 200)
    assert pts.shape == (200, 3)
    assert np.allclose(pts[0], (0, 0, 0))
    r = np.linalg.norm(pts[:, :2], axis=1)
    assert r.max() <= 10.0 + 1e-9
    assert np.allclose(pts[:, 2], 0.0, atol=1e-12)
    # radius zero collapses to the center
    assert disc_points((1, 2, 3), (0, 0, 1), 0.0, 50).shape == (1, 3)


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
    assert np.max(np.abs(sample_trilinear(turned, pts)
                         - sample_trilinear(vol, pts))) < 1e-9
    cone = ConeSpec(apex=(20.0, 20.0, 10.0), base_center=(21.5, 20.5, 25.0),
                    base_radius=15.0, n_rays=600)
    best, score, _ = cone_search(vol, cone, MASK, STEP)
    best_t, score_t, _ = cone_search(turned, cone, MASK, STEP)
    assert np.array_equal(best_t, best)
    assert score_t == pytest.approx(score, abs=1e-9)


def test_cone_search_finds_tube_on_disc():
    vol = tube_volume()
    cone = ConeSpec(apex=(20.0, 20.0, 10.0), base_center=(21.5, 20.5, 25.0),
                    base_radius=15.0, n_rays=600)
    best, score, _ = cone_search(vol, cone, MASK, STEP)
    true_pt = np.array([20.0, 20.0, best[2]])
    # within one voxel diagonal of the true centerline crossing
    assert np.linalg.norm(best - true_pt) < np.linalg.norm([0.5, 0.5, 1.0])
    assert score < -50.0


def test_cone_search_uniform_volume_returns_center():
    vol = uniform_volume()
    cone = ConeSpec(apex=(10.0, 10.0, 4.0), base_center=(10.0, 10.0, 16.0),
                    base_radius=6.0, n_rays=100)
    best, score, _ = cone_search(vol, cone, MASK, STEP)
    assert np.allclose(best, cone.base_center, atol=1e-12)
    assert score == pytest.approx(0.0, abs=1e-9)


def test_cone_search_zero_radius_returns_base():
    vol = uniform_volume()
    cone = ConeSpec(apex=(10.0, 10.0, 4.0), base_center=(11.0, 9.0, 16.0),
                    base_radius=0.0, n_rays=100)
    best, _, _ = cone_search(vol, cone, MASK, STEP)
    assert np.allclose(best, cone.base_center, atol=1e-12)


def test_cone_search_deterministic(bent_phantom):
    vol, gold, seeds = bent_phantom
    cone = ConeSpec(apex=tuple(seeds.tips[0]),
                    base_center=tuple(seeds.tips[0] - np.array([0, 0, 10.0])),
                    base_radius=12.0, n_rays=300)
    a = cone_search(vol, cone, MASK, STEP)
    b = cone_search(vol, cone, MASK, STEP)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_cone_search_localization_converges():
    # apex on the tube, base proposed ~1.5 mm off it: the engine's geometry
    vol = tube_volume()
    apex = (20.0, 20.0, 10.0)
    base = (21.2, 19.1, 24.0)
    errs = []
    for n_rays, step in [(120, 0.6), (400, 0.3)]:
        cone = ConeSpec(apex=apex, base_center=base, base_radius=12.0, n_rays=n_rays)
        best, _, _ = cone_search(vol, cone, MASK, step)
        errs.append(np.linalg.norm(best[:2] - np.array([20.0, 20.0])))
    assert errs[1] <= 0.5 * errs[0]
    assert errs[1] < np.linalg.norm([0.5, 0.5, 1.0])


def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec(apex=(0, 0, 0), base_center=(0, 0, 0), base_radius=5.0)
    with pytest.raises(ValueError):
        ConeSpec(apex=(0, 0, 0), base_center=(0, 0, 1), base_radius=-1.0)
    with pytest.raises(ValueError):
        FeatureMask(ring_radius=0.0)
    with pytest.raises(ValueError):
        FeatureMask(n_ring_samples=3)
