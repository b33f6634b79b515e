import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cathseg.bezier import fit_bezier
from cathseg.engine import SegmentationConfig, Trajectory, segment_catheter
from cathseg.evaluation import (EXPERIMENTS, ExperimentReport,
                                _resample_trajectory, hausdorff,
                                run_experiments, score_catheter,
                                scores_csv_text, summary_json_text,
                                write_scores_csv, write_summary_json,
                                write_overlay_json)
from cathseg.phantom import BenchmarkBundle, BenchmarkCase, CatheterSpec, \
    PhantomSpec, generate_phantom

from conftest import brute_force_hausdorff


def poly_traj(points):
    return Trajectory(points=np.asarray(points, dtype=float), bezier_control=None,
                      provenance=[], estimates={})


def bez_traj(points, n_control=4):
    pts = np.asarray(points, dtype=float)
    return Trajectory(points=pts, bezier_control=fit_bezier(pts, n_control),
                      provenance=["image"] * len(pts), estimates={})


def test_identical_curves_zero():
    t = poly_traj([[0, 0, 0], [10, 0, 0], [20, 5, 0]])
    assert hausdorff(t, t) == 0.0


def test_parallel_offset_lines():
    a = poly_traj([[0, 0, 0], [50, 0, 0]])
    b = poly_traj([[0, 2.5, 0], [50, 2.5, 0]])
    assert hausdorff(a, b) == pytest.approx(2.5, abs=1e-12)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n_a, n_b = rng.integers(2, 12, size=2)
        a = poly_traj(np.cumsum(rng.uniform(-3, 4, size=(n_a, 3)), axis=0))
        b = poly_traj(np.cumsum(rng.uniform(-3, 4, size=(n_b, 3)), axis=0))
        step = float(rng.uniform(0.3, 1.5))
        sa = _resample_trajectory(a, step)
        sb = _resample_trajectory(b, step)
        expected = brute_force_hausdorff(sa, sb)
        assert hausdorff(a, b, step) == expected


def test_symmetry():
    rng = np.random.default_rng(5)
    a = poly_traj(np.cumsum(rng.uniform(-2, 3, size=(6, 3)), axis=0))
    b = poly_traj(np.cumsum(rng.uniform(-2, 3, size=(7, 3)), axis=0))
    assert hausdorff(a, b) == pytest.approx(hausdorff(b, a), abs=1e-12)


def test_triangle_inequality_spot_check():
    rng = np.random.default_rng(6)
    for _ in range(10):
        trajs = [poly_traj(np.cumsum(rng.uniform(-2, 3, size=(5, 3)), axis=0))
                 for _ in range(3)]
        d_ab = hausdorff(trajs[0], trajs[1])
        d_bc = hausdorff(trajs[1], trajs[2])
        d_ac = hausdorff(trajs[0], trajs[2])
        assert d_ac <= d_ab + d_bc + 1e-9


def test_refinement_changes_bounded_by_step():
    rng = np.random.default_rng(8)
    a = bez_traj(np.cumsum(rng.uniform(0.5, 2.0, size=(8, 3)), axis=0))
    b = bez_traj(np.cumsum(rng.uniform(0.5, 2.0, size=(8, 3)), axis=0))
    for step in [1.0, 0.5]:
        coarse = hausdorff(a, b, step)
        fine = hausdorff(a, b, step / 2.0)
        assert abs(coarse - fine) < step


def test_bezier_curves_resampled_when_present():
    pts = np.array([[0.0, 0, 0], [10.0, 8.0, 0], [20.0, 0, 0]])
    curved = Trajectory(points=pts, bezier_control=pts.copy(), provenance=[],
                        estimates={})
    straight = poly_traj([[0.0, 0, 0], [20.0, 0, 0]])
    # the quadratic with an 8 mm-high control polygon peaks at 4 mm
    d_bez = hausdorff(curved, straight, 0.1)
    d_poly = hausdorff(poly_traj(pts), straight, 0.1)
    assert d_bez == pytest.approx(4.0, abs=0.05)
    assert d_poly == pytest.approx(8.0, abs=0.05)


def test_degenerate_trajectory_rejected():
    t = poly_traj([[0, 0, 0], [10, 0, 0]])
    with pytest.raises(ValueError):
        hausdorff(t, poly_traj([[1, 1, 1]]))
    with pytest.raises(ValueError):
        hausdorff(poly_traj([[1, 1, 1], [1, 1, 1]]), t)


def mini_bundle(model):
    cases = []
    for v, f0 in enumerate([25.0, 60.0]):
        spec = PhantomSpec(dims=(128, 128, 72), spacing=(0.5, 0.5, 1.0),
                           catheters=[
                               CatheterSpec(f0=f0, insertion_depth=55.0,
                                            deflection_azimuth=0.4,
                                            entry_point=(-6.0, 0.0)),
                               CatheterSpec(f0=f0 / 2.0, insertion_depth=50.0,
                                            deflection_azimuth=2.5,
                                            entry_point=(6.0, 0.0))],
                           rng_seed=v)
        vol, gold, seeds = generate_phantom(spec, model)
        cases.append(BenchmarkCase(volume_id=v, volume=vol, gold=gold,
                                   seeds=seeds, spec=spec))
    return BenchmarkBundle(seed=0, model=model, cases=cases)


@pytest.fixture(scope="module")
def mini_report(model):
    bundle = mini_bundle(model)
    config = SegmentationConfig(model=model)
    return run_experiments(bundle, config), bundle


def test_run_experiments_shape_and_scores(mini_report):
    report, bundle = mini_report
    assert len(report.scores) == 4 * 3
    stats = report.stats()
    assert set(stats) == {"model_only", "image_only", "hybrid"}
    for exp in stats.values():
        assert exp["n"] == 4
        assert exp["count_hd_gt_3mm"] <= exp["count_hd_gt_2mm"]
    # noiseless, distractor-free mini bundle segments cleanly in hybrid mode
    assert stats["hybrid"]["median_mm"] < 1.0


def test_run_experiments_deterministic(mini_report, model):
    report, bundle = mini_report
    config = SegmentationConfig(model=model)
    again = run_experiments(bundle, config)
    assert scores_csv_text(again) == scores_csv_text(report)
    assert summary_json_text(again) == summary_json_text(report)


def test_run_experiments_parallel_matches_serial(mini_report, model):
    report, bundle = mini_report
    parallel = run_experiments(bundle, SegmentationConfig(model=model), jobs=2)
    assert scores_csv_text(parallel) == scores_csv_text(report)
    assert summary_json_text(parallel) == summary_json_text(report)


def test_run_experiments_rows_match_single_mode_segmentation(mini_report, model):
    """The estimate shared across modes gives the rows that separate
    segment_catheter calls per mode give, plus the phantom's true force."""
    report, bundle = mini_report
    config = SegmentationConfig(model=model)
    rows = iter(report.scores)
    for case in bundle.cases:
        for ci, tip in enumerate(case.seeds.tips):
            cid = f"v{case.volume_id:02d}c{ci:02d}"
            for exp_name, d_tol in EXPERIMENTS:
                traj = segment_catheter(case.volume, tip, case.seeds.plane,
                                        replace(config, d_tol=d_tol))
                want = score_catheter(traj, case.gold[ci], cid, exp_name)
                assert want.f0_true == case.spec.catheters[ci].f0
                assert next(rows) == want
    assert next(rows, None) is None


def test_scores_csv_round_trip(tmp_path, mini_report):
    report, _ = mini_report
    path = tmp_path / "scores.csv"
    write_scores_csv(report, path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert header == ["catheter_id", "experiment", "hd_mm", "n_points",
                      "provenance_counts"]
    assert len(rows) == len(report.scores)
    for row, s in zip(rows, report.scores):
        assert row[:2] == [s.catheter_id, s.experiment]
        assert float(row[2]) == s.hd          # repr keeps every bit
        assert int(row[3]) == s.n_points
        counts = [item.split(":") for item in row[4].split(";")]
        assert {k: int(v) for k, v in counts} == s.provenance_counts


def test_summary_json_valid_and_recomputable(tmp_path, mini_report):
    report, bundle = mini_report
    path = tmp_path / "summary.json"
    write_summary_json(report, path)
    doc = json.loads(path.read_text())
    raw_hybrid = [r["hd_mm"] for r in doc["raw"] if r["experiment"] == "hybrid"]
    assert np.median(raw_hybrid) == pytest.approx(
        doc["experiments"]["hybrid"]["median_mm"])
    # each row pairs the trajectory's force estimate with the phantom's force
    truth = [c.f0 for case in bundle.cases for c in case.spec.catheters]
    assert [r["f0_true"] for r in doc["raw"]] == [f for f in truth for _ in EXPERIMENTS]
    for row, s in zip(doc["raw"], report.scores):
        assert row["f0_est"] == s.f0_est > 0.0
        assert row["used_fallback"] is s.used_fallback is False


def test_fallback_estimate_is_marked_in_every_mode(model):
    """A flat image gives the init cone nothing to beat, so each catheter's
    estimate takes the straight guess, and every mode's row says so."""
    case = mini_bundle(model).cases[0]
    case.volume = replace(case.volume, data=np.full_like(case.volume.data, 80.0))
    report = run_experiments(BenchmarkBundle(seed=0, model=model, cases=[case]),
                             SegmentationConfig(model=model))
    raw = json.loads(summary_json_text(report))["raw"]
    assert len(raw) == 2 * len(EXPERIMENTS)
    assert all(r["used_fallback"] is True and not r["failed"] for r in raw)


def test_case_seeded_with_a_subset_keeps_its_own_true_force(model):
    """A case whose tips are a subset of its spec's catheters takes each
    tip's force from its own gold, not from a neighbour's spec."""
    case = mini_bundle(model).cases[1]
    case.seeds.tips = case.seeds.tips[1:]
    case.gold = case.gold[1:]
    report = run_experiments(BenchmarkBundle(seed=0, model=model, cases=[case]),
                             SegmentationConfig(model=model))
    assert [s.f0_true for s in report.scores] == \
        [case.spec.catheters[1].f0] * len(EXPERIMENTS)
    assert all(s.f0_est is not None for s in report.scores)


def test_failed_catheter_scores_inf(model):
    bundle = mini_bundle(model)
    # a seed behind the plane forces a per-catheter estimation failure
    bundle.cases[0].seeds.tips[0] = np.array([32.0, 32.0, 0.5])
    config = SegmentationConfig(model=model)
    report = run_experiments(bundle, config)
    failed = [s for s in report.scores if s.failed]
    assert len(failed) == 3
    assert all(math.isinf(s.hd) for s in failed)
    stats = report.stats()
    assert stats["hybrid"]["failures"] == 1
    assert stats["hybrid"]["count_hd_gt_3mm"] >= 1
    text = scores_csv_text(report)
    assert "inf" in text
    assert all("strictly distal" in s.error for s in failed)
    raw = json.loads(summary_json_text(report))["raw"]
    assert [r["error"] for r in raw if r["failed"]] == [s.error for s in failed]
    assert all(r["error"] is None for r in raw if not r["failed"])
    assert all(r["f0_est"] is None for r in raw if r["failed"])
    # a failed row still carries the force its gold records
    assert [r["f0_true"] for r in raw if r["failed"]] == \
        [bundle.cases[0].spec.catheters[0].f0] * 3
    assert all(r["used_fallback"] is None for r in raw if r["failed"])


def test_overlay_export(tmp_path, mini_report, model):
    report, bundle = mini_report
    from cathseg.engine import segment_catheter
    case = bundle.cases[0]
    config = SegmentationConfig(model=model)
    trajs = [segment_catheter(case.volume, tip, case.seeds.plane, config)
             for tip in case.seeds.tips]
    path = tmp_path / "overlay.json"
    write_overlay_json(trajs, case.gold, path)
    doc = json.loads(path.read_text())
    assert len(doc["catheters"]) == 2
    assert len(doc["catheters"][0]["segmented"]) == config.n_c
