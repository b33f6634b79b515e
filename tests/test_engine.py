import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cathseg import engine, features, spring
from cathseg.engine import (TAG_COMPROMISE, SegmentationConfig, Trajectory,
                            estimate_model, gate_candidate, lateral_direction,
                            load_trajectory, propose_model_point, save_trajectory,
                            segment_batch, segment_catheter, walk)
from cathseg.phantom import force_for_deflection
from cathseg.spring import cut_at_depth, simulate_forward
from cathseg.volume import Volume3D, distance_to_plane, sample_voxel

from conftest import single_catheter_phantom


# ---------------------------------------------------------------------------
# lateral direction
# ---------------------------------------------------------------------------

Z = np.array([0.0, 0.0, 1.0])


def test_lateral_direction_hand_case():
    step = -np.array([math.sin(math.radians(10)), 0.0, math.cos(math.radians(10))])
    assert np.allclose(lateral_direction(step, Z), [-1.0, 0.0, 0.0], atol=1e-12)


def test_lateral_direction_axial_step_falls_back():
    # the fallback is a fixed in-plane axis: it bends model-only walks
    # toward -x, not +x
    assert np.array_equal(lateral_direction(-3.0 * Z, Z), [-1.0, 0.0, 0.0])


def test_lateral_direction_zero_step_falls_back():
    # no division by the zero length: the fixed axis, not NaN
    assert np.array_equal(lateral_direction(np.zeros(3), Z), [-1.0, 0.0, 0.0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_lateral_direction_unit_and_across_normal(seed):
    rng = np.random.default_rng(seed)
    step = rng.normal(size=3)
    normal = rng.normal(size=3)
    if np.linalg.norm(normal) < 1e-3:
        return
    normal /= np.linalg.norm(normal)
    lat = lateral_direction(step, normal)
    assert np.linalg.norm(lat) == pytest.approx(1.0, abs=1e-9)
    assert abs(lat @ normal) < 1e-9
    # it points the way the step leaves the normal
    assert lat @ step > 0.0


# ---------------------------------------------------------------------------
# model step proposal
# ---------------------------------------------------------------------------

X = np.array([1.0, 0.0, 0.0])


def test_propose_straight_step():
    t_k = np.array([5.0, 6.0, 7.0])
    p = propose_model_point(t_k, X, Z, 0.0, 10.0)
    assert np.allclose(p, t_k - 10.0 * Z, atol=1e-12)


def test_propose_thirty_degree_step():
    p = propose_model_point(np.zeros(3), X, Z, math.pi / 6, 10.0)
    expected = 5.0 * X - 10.0 * math.cos(math.pi / 6) * Z
    assert np.allclose(p, expected, atol=1e-9)
    assert abs(10.0 * math.cos(math.pi / 6) - 8.660) < 1e-3


@given(st.floats(-1.5, 1.5), st.floats(0.1, 30.0))
@settings(max_examples=100, deadline=None)
def test_propose_step_length_is_exact(alpha, d_seg):
    lat = lateral_direction(np.array([0.3, -0.2, -1.0]), Z)
    p = propose_model_point(np.zeros(3), lat, Z, alpha, d_seg)
    assert np.linalg.norm(p) == pytest.approx(d_seg, abs=1e-9)
    assert p @ Z == pytest.approx(-d_seg * math.cos(alpha), abs=1e-9)


def test_propose_rejects_right_angle():
    with pytest.raises(ValueError):
        propose_model_point(np.zeros(3), X, Z, math.pi / 2, 10.0)


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------

def test_gate_hand_cases():
    b = np.zeros(3)
    c = np.array([4.0, 0.0, 0.0])
    accepted, tag = gate_candidate(c, b, 1.0)
    assert tag == "compromise"
    assert np.allclose(accepted, [1.0, 0.0, 0.0], atol=1e-12)

    c = np.array([0.5, 0.0, 0.0])
    accepted, tag = gate_candidate(c, b, 1.0)
    assert tag == "image"
    assert np.allclose(accepted, c)

    accepted, tag = gate_candidate(c, b, 0.0)
    assert tag == "model"
    assert np.allclose(accepted, b)

    accepted, tag = gate_candidate(np.array([500.0, 2.0, 3.0]), b, math.inf)
    assert tag == "image"
    assert np.allclose(accepted, [500.0, 2.0, 3.0])


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["zero", "inf", "finite"]))
@settings(max_examples=150, deadline=None)
def test_gate_algebra_property(seed, kind):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-50, 50, size=3)
    b = rng.uniform(-50, 50, size=3)
    d_tol = {"zero": 0.0, "inf": math.inf,
             "finite": float(rng.uniform(0.01, 10.0))}[kind]
    accepted, tag = gate_candidate(c, b, d_tol)
    dist = np.linalg.norm(c - b)
    assert np.linalg.norm(accepted - b) <= d_tol + 1e-9
    if d_tol == 0.0:
        assert tag == "model" and np.allclose(accepted, b)
    elif math.isinf(d_tol):
        assert tag == "image" and np.allclose(accepted, c)
    elif dist < d_tol:
        assert tag == "image" and np.allclose(accepted, c)
    else:
        assert tag == "compromise"
        expected = b + (c - b) / dist * min(d_tol, dist / 2.0)
        assert np.allclose(accepted, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# model estimation
# ---------------------------------------------------------------------------

def test_estimate_straight_catheter(model, config):
    vol, gold, seeds = single_catheter_phantom(model, 0.0)
    est = estimate_model(vol, seeds.tips[0], seeds.plane, config)
    assert est.a == pytest.approx(74.0, abs=1e-9)
    assert abs(est.alpha0_sum) < 0.02
    assert abs(est.catheter[-1, 1]) < 1.0
    assert est.f0_est < 5.0


def test_estimate_tip_behind_plane(config, bent_phantom):
    vol, gold, seeds = bent_phantom
    behind = seeds.plane.point - 5.0 * seeds.plane.normal
    with pytest.raises(ValueError):
        estimate_model(vol, behind, seeds.plane, config)


def test_estimate_tip_beyond_catheter_length(config, bent_phantom):
    """No catheter of the model reaches a tip farther from the plane than
    the catheter is long: the estimate fails rather than walk a model that
    never got there."""
    vol, gold, seeds = bent_phantom
    tip = seeds.plane.point + 1.01 * config.model.total_length * seeds.plane.normal
    with pytest.raises(ValueError, match="beyond the catheter's reach"):
        estimate_model(vol, tip, seeds.plane, config)


def test_batch_tip_just_distal_of_plane_fails_in_cone_search(config, bent_phantom):
    """A tip 1e-9 mm distal of the plane puts the init cone's base on its
    apex: every mode of that tip fails with the cone's own reason."""
    vol, gold, seeds = bent_phantom
    tip = seeds.plane.point + 1e-9 * seeds.plane.normal
    assert distance_to_plane(seeds.plane, tip) > 0
    [[(outcomes, _)]] = segment_batch(
        [(vol, seeds.plane, [tip])], config, (0.0, math.inf, 1.0))
    assert outcomes == ["ValueError: apex and base_center must differ"] * 3


def test_estimate_uniform_volume_falls_back(config):
    vol = Volume3D(dims=(64, 64, 64), spacing=(1.0, 1.0, 1.0), origin=(0, 0, 0),
                   axis_directions=np.eye(3),
                   data=np.full((64, 64, 64), 80.0, dtype=np.float32))
    from cathseg.volume import BasePlane
    plane = BasePlane(point=(32.0, 32.0, 4.0), normal=(0.0, 0.0, 1.0))
    est = estimate_model(vol, np.array([32.0, 32.0, 58.0]), plane, config)
    assert est.used_fallback
    assert est.alpha0_sum == pytest.approx(0.0, abs=1e-12)
    assert est.f0_est == pytest.approx(0.0, abs=1e-9)


def test_estimate_force_round_trip_band(model, config):
    """Generator-as-oracle round trip.

    The estimate inverts the forward model on the chord that the init cone
    measures, so the recovered force matches the generating one up to the
    cone's own error (measured ratios 1.17, 1.12 and 1.03); the band holds 1
    and the estimates keep their order.
    """
    ratios = []
    for f0 in [40.0, 60.0, 80.0]:
        vol, gold, seeds = single_catheter_phantom(model, f0)
        est = estimate_model(vol, seeds.tips[0], seeds.plane, config)
        assert "chord_beyond_model" not in est.warnings
        ratios.append(est.f0_est / f0)
    assert all(0.8 <= r <= 1.25 for r in ratios), ratios
    f_ests = [r * f for r, f in zip(ratios, [40.0, 60.0, 80.0])]
    assert f_ests[0] < f_ests[1] < f_ests[2]


def test_estimate_chord_beyond_model_takes_largest_reaching_force(
        config, bent_phantom, monkeypatch):
    """A long segment more oblique than any catheter that reaches the tip's
    depth can bend: the estimate warns and takes the largest force whose
    catheter still reaches that depth."""
    vol, gold, seeds = bent_phantom
    tip, normal = seeds.tips[0], seeds.plane.normal
    a = float(distance_to_plane(seeds.plane, tip))
    far = tip - (a / 2.0) * normal + np.array([500.0, 0.0, 0.0])
    monkeypatch.setattr(engine, "cone_search",
                        lambda *args: (far, -1e3, np.array([0.0, 100.0])))
    est = estimate_model(vol, tip, seeds.plane, config)
    assert "chord_beyond_model" in est.warnings
    assert est.catheter[-1, 0] == pytest.approx(a, abs=1e-9)
    assert cut_at_depth(config.model, est.f0_est * (1 + 1e-9), a) is None


def test_segmentation_never_reads_table_or_backward_scheme(config, bent_phantom,
                                                           monkeypatch):
    """Every mode segments with the model table and the backward scheme
    unavailable: the estimate and the walk use the forward catheter alone."""
    def unavailable(*args, **kwargs):
        raise AssertionError("segmentation must not call this")

    for name in ("lookup", "build_model_table", "simulate_backward"):
        monkeypatch.setattr(spring, name, unavailable)
        monkeypatch.setattr(engine, name, unavailable, raising=False)
    vol, gold, seeds = bent_phantom
    [[(outcomes, _)]] = segment_batch(
        [(vol, seeds.plane, seeds.tips)], config, (0.0, math.inf, 1.0))
    for traj in outcomes:
        assert isinstance(traj, Trajectory), traj
        assert len(traj.points) == config.n_c


# ---------------------------------------------------------------------------
# full segmentation
# ---------------------------------------------------------------------------

def _hd_points_to_polyline(pts, poly):
    from scipy.spatial import cKDTree
    def dense(p):
        seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        t = np.linspace(0, arc[-1], max(2, int(arc[-1] / 0.25) + 1))
        return np.stack([np.interp(t, arc, p[:, c]) for c in range(3)], axis=1)
    a, b = dense(np.asarray(pts)), dense(np.asarray(poly))
    return max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())


def test_segment_noiseless_phantom_accuracy(config, bent_phantom):
    vol, gold, seeds = bent_phantom
    traj = segment_catheter(vol, seeds.tips[0], seeds.plane, config)
    hd = _hd_points_to_polyline(traj.points, gold[0].points)
    assert hd < np.linalg.norm([0.5, 0.5, 1.0])   # one voxel diagonal
    assert np.array_equal(traj.points[0], seeds.tips[0])
    assert len(traj.points) == config.n_c
    assert traj.bezier_control.shape == (config.n_c, 3)


def test_segment_straight_catheter_clips_to_plane(model):
    vol, gold, seeds = single_catheter_phantom(model, 0.0)
    cfg = SegmentationConfig(model=model)
    traj = segment_catheter(vol, seeds.tips[0], seeds.plane, cfg)
    d_last = distance_to_plane(seeds.plane, traj.points[-1])
    assert abs(d_last) < 1e-6
    assert len(traj.points) == cfg.n_c


def test_segment_deterministic(config, bent_phantom):
    vol, gold, seeds = bent_phantom
    a = segment_catheter(vol, seeds.tips[0], seeds.plane, config)
    b = segment_catheter(vol, seeds.tips[0], seeds.plane, config)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.bezier_control, b.bezier_control)
    assert a.provenance == b.provenance


def test_segment_same_for_any_scoring_thread_count(config, bent_phantom,
                                                   scoring_threads, monkeypatch):
    """Three threads score each ray batch in chunks; the trajectory has the
    same bits as on one thread, so no result depends on the core count."""
    vol, gold, seeds = bent_phantom
    calls = []
    trajs = []
    for n in (1, 3):
        scoring_threads(n)
        monkeypatch.setattr(features, "sample_voxel",
                            lambda v, u, n=n: calls.append(n) or sample_voxel(v, u))
        trajs.append(segment_catheter(vol, seeds.tips[0], seeds.plane, config))
    assert calls.count(3) > calls.count(1)
    one, three = trajs
    assert one.points.tobytes() == three.points.tobytes()
    assert one.bezier_control.tobytes() == three.bezier_control.tobytes()
    assert one.provenance == three.provenance
    assert one.estimates == three.estimates


def test_criterion_7_catheter_lookup_count(config, model, monkeypatch):
    """The exact cost of criterion 7's catheter, which chunking the ray
    batches leaves alone: 1,183,806 trilinear lookups in 16 ray batches,
    279,054 of them in the initialization cone."""
    vol, gold, seeds = single_catheter_phantom(model, 50.0, depth=70.0,
                                               dims=(256, 256, 80))
    lookups = []
    batches = []
    real_scores = features._ray_scores
    monkeypatch.setattr(features, "sample_voxel",
                        lambda v, u: lookups.append(u.size // 3) or sample_voxel(v, u))
    monkeypatch.setattr(features, "_ray_scores",
                        lambda *args: batches.append(1) or real_scores(*args))
    estimate_model(vol, seeds.tips[0], seeds.plane, config)
    assert (sum(lookups), len(batches)) == (279_054, 2)
    lookups.clear()
    batches.clear()
    segment_catheter(vol, seeds.tips[0], seeds.plane, config)
    assert (sum(lookups), len(batches)) == (1_183_806, 16)


def _forward_angle(model, est, arc):
    """Angle to the plane normal of the estimate's forward catheter at arc
    length ``arc`` from the tip: the forward scheme's per-segment angles,
    placed at segment middles, the tip segment cut at depth ``est.a``."""
    cut = cut_at_depth(model, est.f0_est, est.a)
    angles = simulate_forward(model, est.f0_est).alpha_sum[:len(cut) - 1][::-1]
    lengths = np.full(len(angles), model.seg_length)
    lengths[0] = np.linalg.norm(cut[-1] - cut[-2])
    return float(np.interp(arc, np.cumsum(lengths) - lengths / 2.0, angles))


def test_segment_model_only_matches_manual_walk(model, bent_phantom):
    """With d_tol = 0 the trajectory is the pure model curve built from the
    estimate's forward catheter, reconstructed here step by step: each step
    takes the catheter's angle at the middle of its arc from the tip, bent
    toward the long segment."""
    vol, gold, seeds = bent_phantom
    cfg = SegmentationConfig(d_tol=0.0, model=model)
    traj = segment_catheter(vol, seeds.tips[0], seeds.plane, cfg)
    est = estimate_model(vol, seeds.tips[0], seeds.plane, cfg)

    d_seg = est.a / (cfg.n_c - 1)
    lat = lateral_direction(est.l_long, seeds.plane.normal)
    pts = [np.asarray(seeds.tips[0], dtype=float)]
    while len(pts) < cfg.n_c:
        k = len(pts) - 1
        alpha = _forward_angle(model, est, (k + 0.5) * d_seg)
        pts.append(propose_model_point(pts[k], lat, seeds.plane.normal, alpha, d_seg))
    assert np.allclose(traj.points, np.asarray(pts), atol=1e-9)
    assert traj.provenance[1:] == ["model"] * (cfg.n_c - 1)


def test_segment_model_only_ignores_image_beyond_init(model, bent_phantom):
    vol, gold, seeds = bent_phantom
    cfg = SegmentationConfig(d_tol=0.0, model=model)
    ref = segment_catheter(vol, seeds.tips[0], seeds.plane, cfg)

    # scramble everything proximal of the init-cone region
    data = vol.data.copy()
    z_cut = int((seeds.tips[0][2] - est_a(seeds) / 2.0 - 6.0) / vol.spacing[2])
    rng = np.random.default_rng(0)
    data[:, :, :z_cut] = rng.uniform(0, 200, size=data[:, :, :z_cut].shape)
    scrambled = Volume3D(dims=vol.dims, spacing=vol.spacing, origin=vol.origin,
                         axis_directions=vol.axis_directions, data=data)
    out = segment_catheter(scrambled, seeds.tips[0], seeds.plane, cfg)
    assert np.array_equal(ref.points, out.points)
    assert np.array_equal(ref.bezier_control, out.bezier_control)
    assert ref.provenance == out.provenance


def est_a(seeds):
    return distance_to_plane(seeds.plane, seeds.tips[0])


def test_segment_image_only_has_no_model_tags(config, model, bent_phantom):
    vol, gold, seeds = bent_phantom
    cfg = SegmentationConfig(d_tol=math.inf, model=model)
    traj = segment_catheter(vol, seeds.tips[0], seeds.plane, cfg)
    assert set(traj.provenance) == {"image"}


def test_segment_step_length_bound(model, bent_phantom):
    vol, gold, seeds = bent_phantom
    a = est_a(seeds)
    for d_tol in [0.0, 1.0, math.inf]:
        cfg = SegmentationConfig(d_tol=d_tol, model=model)
        traj = segment_catheter(vol, seeds.tips[0], seeds.plane, cfg)
        d_seg = a / (cfg.n_c - 1)
        steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
        bound = d_seg + min(d_tol, cfg.r_cone) + cfg.r_cone
        assert np.all(steps <= bound + 1e-9)
        assert np.all(steps > 0)


def test_segment_spacing_invariant_gated_modes(model, bent_phantom):
    vol, gold, seeds = bent_phantom
    a = est_a(seeds)
    for d_tol in [0.0, 1.0]:
        cfg = SegmentationConfig(d_tol=d_tol, model=model)
        traj = segment_catheter(vol, seeds.tips[0], seeds.plane, cfg)
        d_seg = a / (cfg.n_c - 1)
        steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
        assert np.all(steps <= 2.0 * d_seg + 1e-9)


def test_segment_hybrid_dominance(model, bent_phantom):
    """Every gated step stays within d_tol of its model proposal."""
    vol, gold, seeds = bent_phantom
    cfg = SegmentationConfig(d_tol=1.0, model=model)
    traj = segment_catheter(vol, seeds.tips[0], seeds.plane, cfg)
    assert all(tag in ("image", "compromise") or tag == "model"
               for tag in traj.provenance)
    # compromise points sit exactly d_tol from the proposal when the image
    # candidate is far; indirectly visible as a spacing cap
    steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
    d_seg = est_a(seeds) / (cfg.n_c - 1)
    assert np.all(steps <= d_seg + cfg.d_tol + 1e-9)


def test_frames_share_marching_axis_and_stay_deterministic(model, bent_phantom,
                                                           monkeypatch):
    """Every proposal steps along the one marching axis -normal plus the one
    lateral direction of the long segment.  A model-only walk therefore
    bends in one plane through the normal: every step keeps the first
    lateral direction.  Gated walks accept image points that turn it freely
    (near-axial steps have an ill-conditioned azimuth), but every cone they
    cast is still proposed in that plane."""
    vol, gold, seeds = bent_phantom
    normal = seeds.plane.normal
    cfg = SegmentationConfig(d_tol=1.0, model=model)
    est = estimate_model(vol, seeds.tips[0], seeds.plane, cfg)
    calls = _record_cones(monkeypatch)
    walk(vol, seeds.tips[0], seeds.plane, cfg, est)
    lat = lateral_direction(est.l_long, normal)
    for apex, base in calls:
        step = np.frombuffer(base) - np.frombuffer(apex)
        assert np.allclose(lateral_direction(step, normal), lat, atol=1e-9)

    for d_tol in (0.0, 1.0):
        cfg = SegmentationConfig(d_tol=d_tol, model=model)
        traj = segment_catheter(vol, seeds.tips[0], seeds.plane, cfg)
        again = segment_catheter(vol, seeds.tips[0], seeds.plane, cfg)
        assert np.array_equal(traj.points, again.points)
        lats = np.array([lateral_direction(step, normal)
                         for step in np.diff(traj.points, axis=0)])
        assert np.allclose(np.linalg.norm(lats, axis=1), 1.0, atol=1e-9)
        assert np.allclose(lats @ normal, 0.0, atol=1e-9)
        if d_tol == 0:
            assert np.allclose(lats, lats[0], atol=1e-9)


def test_every_mode_first_point_follows_long_segment(config, bent_phantom,
                                                     monkeypatch):
    """The first model proposal is one model step from the tip at the
    forward catheter's angle half a step from the tip, bent toward the
    estimated long segment, in every mode: the model-only walk accepts it,
    and the gated walks centre their first cone on it."""
    vol, gold, seeds = bent_phantom
    tip = np.asarray(seeds.tips[0], dtype=float)
    normal = seeds.plane.normal
    est = estimate_model(vol, tip, seeds.plane, config)
    assert not est.used_fallback
    d_seg = est.a / (config.n_c - 1)
    alpha = _forward_angle(config.model, est, d_seg / 2.0)
    # steeper than the chord: a tip-loaded catheter bends most near its tip
    assert alpha > est.alpha0_sum
    side = est.l_long - (est.l_long @ normal) * normal
    want = tip + d_seg * (math.sin(alpha) * side / np.linalg.norm(side)
                          - math.cos(alpha) * normal)
    calls = _record_cones(monkeypatch)
    for d_tol in (0.0, 1.0, math.inf):
        calls.clear()
        traj = walk(vol, tip, seeds.plane, replace(config, d_tol=d_tol), est)
        if d_tol == 0:
            assert not calls
            first = traj.points[1]
        else:
            assert calls[0][0] == tip.tobytes()
            first = np.frombuffer(calls[0][1])
        assert np.allclose(first, want, rtol=0, atol=1e-9)


def _record_cones(monkeypatch) -> list:
    """Route the engine's cone searches through a recorder of the exact
    (apex, base center) bytes of each cone cast."""
    calls = []
    real = engine.cone_search

    def recording(vol, apex, base_center, *rest):
        calls.append((np.asarray(apex).tobytes(),
                      np.asarray(base_center).tobytes()))
        return real(vol, apex, base_center, *rest)

    monkeypatch.setattr(engine, "cone_search", recording)
    return calls


def test_batch_casts_each_cone_once_per_tip(config, bent_phantom, monkeypatch):
    vol, gold, seeds = bent_phantom
    tip, plane = seeds.tips[0], seeds.plane
    # at d_tol 1.0 the hybrid walk of this phantom never compromises
    d_tols = (0.0, math.inf, 0.5)
    calls = _record_cones(monkeypatch)
    [[(outcomes, _)]] = segment_batch([(vol, plane, [tip])], config, d_tols)
    # hybrid leaves the image-only path, so the walks share only a prefix
    assert TAG_COMPROMISE in outcomes[2].provenance
    shared = len(calls)
    assert shared == len(set(calls))

    calls.clear()
    est = estimate_model(vol, tip, plane, config)
    for d_tol in d_tols:
        walk(vol, tip, plane, replace(config, d_tol=d_tol), est)
    assert shared < len(calls)

    for d_tol, got in zip(d_tols, outcomes):
        want = segment_catheter(vol, tip, plane, replace(config, d_tol=d_tol))
        assert got.points.tobytes() == want.points.tobytes()
        assert got.provenance == want.provenance
        assert got.bezier_control.tobytes() == want.bezier_control.tobytes()


def test_batch_cone_memo_is_per_tip_and_never_aliased(config, bent_phantom,
                                                      monkeypatch):
    vol, gold, seeds = bent_phantom
    tip, plane = seeds.tips[0], seeds.plane
    d_tols = (math.inf, 1.0)
    calls = _record_cones(monkeypatch)
    segment_batch([(vol, plane, [tip])], config, d_tols)
    one_tip = len(calls)

    # the same tip twice: a memo that outlived the first tip would turn
    # every cone of the second into a hit
    calls.clear()
    [[(first, _), (second, _)]] = segment_batch(
        [(vol, plane, [tip, tip])], config, d_tols)
    assert len(calls) == 2 * one_tip

    image_only, hybrid = first
    kept = hybrid.points.copy()
    image_only.points[:] = np.nan
    assert hybrid.points.tobytes() == kept.tobytes()
    assert second[1].points.tobytes() == kept.tobytes()


@pytest.mark.parametrize("perm", [(2, 0, 1), (0, 2, 1)], ids=["zxy", "xzy"])
def test_batch_invariant_under_grid_axis_permutation(config, bent_phantom, perm):
    """The same world volume stored with world z off the third grid axis (a
    sagittal NRRD stores (z, x, y)) segments bit-identically in every mode:
    the estimate and the walk read a volume only through its samples."""
    vol, gold, seeds = bent_phantom
    assert np.array_equal(vol.axis_directions, np.eye(3))
    perm = list(perm)
    permuted = Volume3D(dims=tuple(np.asarray(vol.dims)[perm]), spacing=vol.spacing[perm],
                        origin=vol.origin, axis_directions=np.eye(3)[:, perm],
                        data=vol.data.transpose(perm))
    d_tols = (0.0, math.inf, 1.0)
    [[(want, _)], [(got, _)]] = segment_batch(
        [(v, seeds.plane, seeds.tips) for v in (vol, permuted)], config, d_tols)
    for a, b in zip(want, got):
        assert isinstance(b, Trajectory), b
        assert np.array_equal(a.points, b.points)
        assert a.provenance == b.provenance
        assert np.array_equal(a.bezier_control, b.bezier_control)
        assert a.estimates == b.estimates
        assert "chord_beyond_model" not in b.warnings


def test_voxel_no_lookup_reads_moves_no_point(model, monkeypatch):
    """A voxel outside the trilinear footprint of every lookup moves no point
    in any gating mode, though this catheter's rays leave the volume: a
    lookup outside the hull reads its nearest edge voxel, not a value that
    any voxel of the volume can set, such as its maximum."""
    vol, _, seeds = single_catheter_phantom(model, force_for_deflection(model, 74.0, 8.0),
                                            noise=8.0, dims=(64, 64, 96), rng_seed=8)
    far = replace(vol, data=vol.data.copy())
    far.data[0, 0, 95] = 4.0 * vol.data.max()
    hi = np.asarray(vol.dims) - 1.0
    outside, reads_far = [], []           # appended from the scoring threads

    def watched(v, u):
        c = np.reshape(u, (-1, 3))
        outside.append(bool(np.any((c < 0.0) | (c > hi))))
        # a trilinear lookup reads the voxels within one voxel of its clamped point
        near = np.all(np.abs(np.clip(c, 0.0, hi) - (0, 0, 95)) < 1.0, axis=1)
        reads_far.append(bool(near.any()))
        return sample_voxel(v, u)

    monkeypatch.setattr(features, "sample_voxel", watched)
    for d_tol in (math.inf, 1.0, 0.0):
        cfg = SegmentationConfig(d_tol=d_tol, model=model)
        want = segment_catheter(vol, seeds.tips[0], seeds.plane, cfg)
        got = segment_catheter(far, seeds.tips[0], seeds.plane, cfg)
        assert got.points.tobytes() == want.points.tobytes()
    assert any(outside) and not any(reads_far)


def test_trajectory_json_round_trip(tmp_path, config, bent_phantom):
    vol, gold, seeds = bent_phantom
    traj = segment_catheter(vol, seeds.tips[0], seeds.plane, config)
    path = tmp_path / "traj.json"
    save_trajectory(traj, path)
    loaded = load_trajectory(path)
    assert np.allclose(loaded.points, traj.points, atol=1e-12)
    assert np.allclose(loaded.bezier_control, traj.bezier_control, atol=1e-12)
    assert loaded.provenance == traj.provenance
    assert loaded.estimates == pytest.approx(traj.estimates)


def test_config_validation(model):
    with pytest.raises(ValueError):
        SegmentationConfig(n_c=2, model=model)
    with pytest.raises(ValueError):
        SegmentationConfig(d_tol=-1.0, model=model)
    for bad in [{"r_cone": 0.0}, {"r_cone": math.inf}, {"r_cone": math.nan},
                {"n_rays": 0}, {"d_tol": math.nan}]:
        with pytest.raises(ValueError):
            SegmentationConfig(model=model, **bad)
    assert SegmentationConfig(d_tol=math.inf, model=model).d_tol == math.inf


@pytest.mark.parametrize("cls,field,value", [
    (SegmentationConfig, "n_c", 8.5), (SegmentationConfig, "n_rays", 600.5),
    (features.FeatureMask, "n_ring_samples", 8.5),
    (spring.SpringModelParams, "n_seg", 20.5), (spring.SpringModelParams, "k_a", True),
    (features.FeatureMask, "ring_radius", True), (SegmentationConfig, "r_cone", "20"),
    (SegmentationConfig, "d_tol", math.nan), (SegmentationConfig, "d_tol", -math.inf),
    (SegmentationConfig, "d_tol", "inf")],
    ids=["n_c_8.5", "n_rays_600.5", "n_ring_samples_8.5", "n_seg_20.5", "k_a_bool",
         "ring_radius_bool", "r_cone_string", "d_tol_nan", "d_tol_-inf",
         "d_tol_string_inf"])
def test_config_dataclasses_read_their_own_numbers(cls, field, value):
    """A config built in Python meets the number rule of a config file."""
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})
    cfg = SegmentationConfig(n_c=8.0, d_tol=math.inf)
    assert type(cfg.n_c) is int and cfg.n_c == 8 and cfg.d_tol == math.inf
