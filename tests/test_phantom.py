import json
import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from cathseg import phantom, spring
from cathseg.bezier import resample_polyline
from cathseg.phantom import (BloomSpec, CatheterSpec, DistractorSpec, PhantomSpec,
                             force_for_deflection,
                             generate_phantom, load_phantom_spec,
                             save_phantom_spec, standard_benchmark)
from cathseg.spring import SpringModelParams, cut_at_depth, simulate_forward
from cathseg.volume import distance_to_plane, sample_voxel

from conftest import single_catheter_phantom


def test_straight_catheter_gold_and_dark_line(model):
    vol, gold, seeds = single_catheter_phantom(model, 0.0)
    pts = gold[0].points
    # gold is a straight segment from tip down to the plane
    lateral = pts[:, :2] - pts[0, :2]
    assert np.abs(lateral).max() < 1e-9
    # the darkest voxels hug the centerline (partial volume floors the core
    # a little above zero when no voxel center meets the axis exactly)
    dark = np.argwhere(vol.data < 20.0)
    world = vol.voxel_to_world(dark)
    r = np.linalg.norm(world[:, :2] - pts[0, :2], axis=1)
    assert len(dark) > 0
    assert r.max() < 0.8 + float(np.max(vol.spacing))
    assert float(vol.data.min()) < 10.0


def test_phantom_deterministic(model):
    a = single_catheter_phantom(model, 35.0, noise=5.0, rng_seed=123)
    b = single_catheter_phantom(model, 35.0, noise=5.0, rng_seed=123)
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[1][0].points, b[1][0].points)


def test_gold_tip_plane_distance_equals_insertion_depth(model):
    for f0, depth in [(0.0, 74.0), (55.0, 68.0), (90.0, 80.0)]:
        vol, gold, seeds = single_catheter_phantom(model, f0, depth=depth)
        d = distance_to_plane(seeds.plane, gold[0].points[0])
        assert d == pytest.approx(depth, abs=1e-9)
        assert np.array_equal(seeds.tips[0], gold[0].points[0])


def test_gold_joint_angles_match_forward_model(model):
    f0 = 70.0
    vol, gold, seeds = single_catheter_phantom(model, f0)
    state = simulate_forward(model, f0)
    pts = gold[0].points[::-1]            # base first, like the simulation
    segs = np.diff(pts, axis=0)
    # all whole segments (the last, truncated one is excluded)
    n_whole = len(pts) - 2
    for i in range(1, n_whole):
        cosang = (segs[i] @ segs[i - 1]) / (np.linalg.norm(segs[i])
                                            * np.linalg.norm(segs[i - 1]))
        joint = math.acos(float(np.clip(cosang, -1.0, 1.0)))
        assert joint == pytest.approx(float(state.alpha[i]), abs=1e-9)


def test_tube_edge_intensity_monotone(model):
    vol, gold, seeds = single_catheter_phantom(model, 0.0)
    tip = gold[0].points[0]
    v = float(np.max(vol.spacing))
    radii = np.linspace(0.8 - v, 0.8 + v, 9)
    z_mid = (tip[2] + 8.0) / 2.0
    vals = []
    for r in radii:
        p = np.array([tip[0] + r, tip[1], z_mid])
        vals.append(sample_voxel(vol, vol.world_to_voxel(p))[0])
    assert all(b - a > -1e-6 for a, b in zip(vals, vals[1:]))


def test_bloom_adds_bright_rim(model):
    spec = PhantomSpec(dims=(96, 96, 64), spacing=(0.5, 0.5, 1.0),
                       catheters=[CatheterSpec(f0=0.0, insertion_depth=50.0,
                                               deflection_azimuth=0.0,
                                               entry_point=(0.0, 0.0))],
                       bloom=BloomSpec(enabled=True, rim_radius=1.0, rim_gain=60.0),
                       rng_seed=1)
    vol, gold, seeds = generate_phantom(spec, model)
    assert float(vol.data.max()) > 140.0


def test_crossing_catheters_warn_but_generate(model):
    spec = PhantomSpec(dims=(96, 96, 64), spacing=(0.5, 0.5, 1.0),
                       catheters=[
                           CatheterSpec(f0=0.0, insertion_depth=50.0,
                                        deflection_azimuth=0.0, entry_point=(0.0, 0.0)),
                           CatheterSpec(f0=0.0, insertion_depth=50.0,
                                        deflection_azimuth=0.0, entry_point=(0.5, 0.0)),
                       ], rng_seed=1)
    with pytest.warns(UserWarning, match="pass within"):
        vol, gold, seeds = generate_phantom(spec, model)
    assert len(gold) == 2


def test_insertion_deeper_than_catheter_rejected(model):
    spec = PhantomSpec(catheters=[CatheterSpec(f0=0.0, insertion_depth=500.0,
                                               deflection_azimuth=0.0,
                                               entry_point=(0.0, 0.0))])
    with pytest.raises(ValueError):
        generate_phantom(spec, model)


def test_distractors_darken_volume(model):
    base = PhantomSpec(dims=(96, 96, 64), spacing=(0.5, 0.5, 1.0),
                       catheters=[], rng_seed=1)
    clean, _, _ = generate_phantom(base, model)
    spec = PhantomSpec(dims=(96, 96, 64), spacing=(0.5, 0.5, 1.0), catheters=[],
                       distractors=[
                           DistractorSpec(kind="tube", p0=(5.0, 5.0, 10.0),
                                          p1=(40.0, 40.0, 50.0), radius=0.8),
                           DistractorSpec(kind="blob", p0=(30.0, 12.0, 30.0),
                                          radius=3.0)],
                       rng_seed=1)
    vol, _, _ = generate_phantom(spec, model)
    assert float(vol.data.min()) < 1.0
    assert (vol.data < 50.0).sum() > (clean.data < 50.0).sum()


def test_phantom_spec_holds_integer_dims_and_float_spacing():
    spec = PhantomSpec(dims=[32.0, 32, 32], spacing=[1, 1, 0.5])
    assert spec.dims == (32, 32, 32) and all(type(n) is int for n in spec.dims)
    assert spec.spacing == (1.0, 1.0, 0.5) and all(type(x) is float for x in spec.spacing)


@pytest.mark.parametrize("spec", [
    PhantomSpec(dims=(24, 20, 16), distractors=[
        DistractorSpec(kind="blob", p0=(5.0, 5.0, 5.0), radius=1e308)]),
    PhantomSpec(dims=(24, 20, 16), tube_radius=1e308, catheters=[
        CatheterSpec(f0=20.0, insertion_depth=10.0, deflection_azimuth=0.0,
                     entry_point=(0.0, 0.0))])], ids=["blob", "tube"])
def test_reach_past_the_volume_darkens_every_voxel(model, spec):
    """A radius wider than the volume reaches all of it: the stamp's reach is
    capped at the volume's extent, so its voxel padding cannot overflow."""
    vol, _, _ = generate_phantom(spec, model)
    assert np.all(vol.data == 0.0)


def test_phantom_spec_json_round_trip(tmp_path):
    spec = PhantomSpec(dims=(64, 64, 48), noise_sigma=3.5,
                       catheters=[CatheterSpec(f0=12.0, insertion_depth=40.0,
                                               deflection_azimuth=1.1,
                                               entry_point=(2.0, -3.0))],
                       bloom=BloomSpec(enabled=True),
                       distractors=[DistractorSpec(kind="blob", p0=(1, 2, 3),
                                                   radius=2.0)],
                       rng_seed=77)
    path = tmp_path / "spec.json"
    save_phantom_spec(spec, path)
    loaded = load_phantom_spec(path)
    assert loaded == spec


def test_force_for_deflection_inverts(model):
    for depth, target in [(74.0, 5.0), (74.0, 12.0), (62.0, 8.0)]:
        f0 = force_for_deflection(model, depth, target)
        d = cut_at_depth(model, f0, depth)[-1, 1]
        assert d == pytest.approx(target, abs=1e-6)
    assert force_for_deflection(model, 74.0, 0.0) == 0.0


def test_force_for_deflection_unreachable_raises():
    """The default catheter deflects at most 161.4 mm at 74 mm depth; the
    bisection then ends where the catheter stops reaching the depth, which
    is no answer."""
    with pytest.raises(ValueError, match="unreachable"):
        force_for_deflection(SpringModelParams(), 74.0, 200.0)


def test_force_for_deflection_stops_when_bracket_stops_shrinking(model, monkeypatch):
    calls = []
    cut = spring.cut_at_depth

    def counted(*args):
        calls.append(args)
        return cut(*args)

    monkeypatch.setattr(spring, "cut_at_depth", counted)
    f0 = force_for_deflection(model, 74.0, 5.0)
    assert len(calls) <= 61           # the bisection plus one reach check
    assert cut_at_depth(model, f0, 74.0)[-1, 1] == pytest.approx(5.0, abs=1e-6)


def test_benchmark_catheter_count_and_variety(bench42):
    a = bench42
    assert a.n_catheters == 100
    assert len(a.cases) == 10
    # noise levels, bloom and distractors all vary across the bundle
    sigmas = {c.spec.noise_sigma for c in a.cases}
    assert len(sigmas) == 3
    assert {c.spec.bloom.enabled for c in a.cases} == {True, False}
    assert any(c.spec.distractors for c in a.cases)
    assert any(not c.spec.distractors for c in a.cases)


def test_benchmark_gold_consistent_with_forward_model(bench42):
    bundle = bench42
    case = bundle.cases[0]
    for gold, cath in zip(case.gold, case.spec.catheters):
        state = simulate_forward(bundle.model, cath.f0)
        # every whole gold segment has the model's rigid length
        segs = np.linalg.norm(np.diff(gold.points[::-1], axis=0), axis=1)
        assert np.all(segs[:-1] == pytest.approx(bundle.model.seg_length, abs=1e-9))
        d = distance_to_plane(case.seeds.plane, gold.points[0])
        assert d == pytest.approx(cath.insertion_depth, abs=1e-9)


def _box_voxels(shape, spacing, origin, lo, hi):
    """Slices and world centers of every voxel inside a world-space box."""
    lo_idx = np.maximum(np.floor((lo - origin) / spacing).astype(int), 0)
    hi_idx = np.minimum(np.ceil((hi - origin) / spacing).astype(int) + 1,
                        np.asarray(shape))
    if np.any(lo_idx >= hi_idx):
        return None
    ranges = [np.arange(lo_idx[c], hi_idx[c]) for c in range(3)]
    ii, jj, kk = np.meshgrid(*ranges, indexing="ij")
    centers = origin + np.stack([ii, jj, kk], axis=-1) * spacing
    return tuple(slice(lo_idx[c], hi_idx[c]) for c in range(3)), centers


def _stamp_tube_full_box(vol, poly, radius, edge, floor=0.0, dropouts=(), rim=None):
    """Brute-force oracle for ``phantom._stamp_tube``: an unbounded kd-tree
    query at every voxel of the tube's bounding box grown by reach + 1 mm."""
    data, spacing, origin = vol.data, vol.spacing, vol.origin
    dense = resample_polyline(poly, phantom._CENTERLINE_STEP)
    reach = radius + edge
    if rim is not None:
        reach = max(reach, radius + 2.0 * rim.rim_radius)
    roi = _box_voxels(data.shape, spacing, origin, dense.min(axis=0) - reach - 1.0,
                      dense.max(axis=0) + reach + 1.0)
    if roi is None:
        return
    sl, centers = roi
    dist, idx = cKDTree(dense).query(centers.reshape(-1, 3), k=1)
    dist = dist.reshape(centers.shape[:3])
    mult = np.clip((dist - (radius - edge / 2.0)) / edge, 0.0, 1.0)
    mult = floor + (1.0 - floor) * mult
    if dropouts:
        arc = (idx * phantom._CENTERLINE_STEP).reshape(centers.shape[:3])
        visible = np.ones_like(mult)
        for start, length in dropouts:
            fade = np.clip(np.minimum(arc - start, start + length - arc) / 2.0,
                           0.0, 1.0)
            visible = np.minimum(visible, 1.0 - fade)
        mult = 1.0 - (1.0 - mult) * visible
    data[sl] = (data[sl] * mult).astype(np.float32)
    if rim is not None:
        peak = radius + rim.rim_radius
        bump = np.clip(1.0 - np.abs(dist - peak) / rim.rim_radius, 0.0, 1.0)
        data[sl] = data[sl] + (rim.rim_gain * bump).astype(np.float32)


def _stamp_blob_whole_volume(vol, center, radius, edge):
    """Brute-force oracle for a blob, a zero-length tube, over every voxel."""
    data, spacing, origin = vol.data, vol.spacing, vol.origin
    centers = origin + np.moveaxis(np.indices(data.shape), 0, -1) * spacing
    dist = np.linalg.norm(centers - np.asarray(center, dtype=float), axis=-1)
    mult = np.clip((dist - (radius - edge / 2.0)) / edge, 0.0, 1.0)
    data[...] = (data * mult).astype(np.float32)


def _stamp_oracle(vol, poly, *args, **kwargs):
    """``_stamp_tube_full_box``, or ``_stamp_blob_whole_volume`` for a
    zero-length polyline."""
    if np.all(poly == poly[0]):
        _stamp_blob_whole_volume(vol, poly[0], *args, **kwargs)
    else:
        _stamp_tube_full_box(vol, poly, *args, **kwargs)


@pytest.mark.parametrize("spacing", [(0.5, 0.5, 1.0), (1.0, 0.7, 0.4)],
                         ids=["spacing_05_05_10", "spacing_10_07_04"])
@pytest.mark.parametrize("bloom", [False, True], ids=["plain", "bloom"])
def test_stamping_matches_full_box_oracle(model, monkeypatch, spacing, bloom):
    dims = tuple(int(round(e / s)) + 1 for e, s in zip((40.0, 36.0, 50.0), spacing))
    spec = PhantomSpec(
        dims=dims, spacing=spacing, noise_sigma=3.0, rng_seed=4,
        bloom=BloomSpec(enabled=bloom, rim_radius=1.0, rim_gain=60.0),
        catheters=[
            CatheterSpec(f0=40.0, insertion_depth=42.0, deflection_azimuth=0.7,
                         entry_point=(-6.0, 1.0), core_intensity=30.0,
                         dropouts=[(6.0, 6.0), (18.0, 5.0)]),
            CatheterSpec(f0=0.0, insertion_depth=38.0, deflection_azimuth=0.0,
                         entry_point=(7.0, -3.0))],
        distractors=[
            # leaves the volume through two faces
            DistractorSpec(kind="tube", p0=(5.0, 5.0, 10.0), p1=(70.0, 30.0, 90.0)),
            # wholly outside the volume
            DistractorSpec(kind="tube", p0=(-30.0, -20.0, -20.0),
                           p1=(-10.0, -30.0, -5.0)),
            # centered on the x = 0 face
            DistractorSpec(kind="blob", p0=(0.0, 20.0, 25.0), radius=3.0),
            DistractorSpec(kind="blob", p0=(30.0, 12.0, 30.0), radius=2.2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = generate_phantom(spec, model)[0].data
        monkeypatch.setattr(phantom, "_stamp_tube", _stamp_oracle)
        oracle = generate_phantom(spec, model)[0].data
    assert float(oracle.min()) < 20.0
    assert (float(oracle.max()) > 140.0) == bloom
    assert np.array_equal(fast, oracle)


def test_zero_rim_gain_stamps_the_bytes_of_no_rim(model):
    """A rim of gain 0 adds exact zeros, and the wider reach it stamps
    multiplies by exactly 1: the volume matches the one without bloom."""
    def volume(bloom):
        spec = PhantomSpec(dims=(61, 57, 51), spacing=(0.5, 0.5, 1.0), rng_seed=4,
                           noise_sigma=3.0, bloom=bloom, catheters=[CatheterSpec(
                               f0=40.0, insertion_depth=42.0, deflection_azimuth=0.7,
                               entry_point=(-2.0, 1.0), core_intensity=30.0,
                               dropouts=[(6.0, 6.0)])])
        return generate_phantom(spec, model)[0].data

    assert volume(BloomSpec(enabled=True, rim_gain=0.0)).tobytes() == \
        volume(BloomSpec(enabled=False)).tobytes()
    assert volume(BloomSpec(enabled=True)).tobytes() != \
        volume(BloomSpec(enabled=False)).tobytes()
