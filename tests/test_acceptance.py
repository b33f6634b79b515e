"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest -v`` shows the same verdicts through the test names.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cathseg.engine import SegmentationConfig, gate_candidate, segment_catheter
from cathseg.evaluation import (EXPERIMENTS, _resample_trajectory, hausdorff,
                                run_experiments, scores_csv_text)
from cathseg.phantom import force_for_deflection, standard_benchmark
from cathseg.spring import (SpringModelParams, build_model_table, find_max_force,
                            lookup, simulate_backward, simulate_forward)
from cathseg.engine import Trajectory

from conftest import brute_force_hausdorff, single_catheter_phantom


def _report(criterion: int, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def bench_run(bench42, config):
    t0 = time.perf_counter()
    report = run_experiments(bench42, config)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_1_forward_backward_duality():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        params = SpringModelParams(k_a=float(rng.uniform(400, 6000)),
                                   n_seg=int(rng.integers(4, 32)),
                                   total_length=float(rng.uniform(60, 250)))
        f0 = float(rng.uniform(0.0, 0.95) * find_max_force(params))
        fwd = simulate_forward(params, f0)
        bwd = simulate_backward(params, float(fwd.alpha_sum[-1]),
                                float(fwd.force[-1]), params.n_seg - 1)
        worst = max(worst, float(np.max(np.abs(bwd.alpha_sum - fwd.alpha_sum[::-1]))))
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-9 and elapsed < 1.0,
            f"50 random pairs, max angle mismatch {worst:.2e} rad in {elapsed:.2f}s")


def test_criterion_2_model_table_inversion(model):
    t0 = time.perf_counter()
    table = build_model_table(model)
    worst = 0.0
    for frac in np.linspace(0.1, 0.9, 20):
        f0 = float(frac * table.f_max)
        tip = simulate_forward(model, f0).tip_position
        res = lookup(table, float(tip[0]), float(tip[1]))
        worst = max(worst, abs(res.f_est - f0) / f0)
    elapsed = time.perf_counter() - t0
    _report(2, worst < 0.05 and elapsed < 5.0,
            f"100x100 table, worst tip-inversion error {worst*100:.2f}% in {elapsed:.2f}s")


def test_criterion_3_noiseless_phantom_accuracy(model, config):
    t0 = time.perf_counter()
    f_hi = force_for_deflection(model, 74.0, 10.0)
    hds = []
    for f0 in np.linspace(0.0, f_hi, 10):
        vol, gold, seeds = single_catheter_phantom(model, float(f0))
        traj = segment_catheter(vol, seeds.tips[0], seeds.plane, config)
        hds.append(hausdorff(traj, gold[0]))
    elapsed = time.perf_counter() - t0
    ok = max(hds) < 1.5 and float(np.median(hds)) < 0.8 and elapsed < 60.0
    _report(3, ok, f"10 forces up to {f_hi:.0f} uN (10 mm deflection): "
                   f"max HD {max(hds):.2f} mm, median {np.median(hds):.2f} mm "
                   f"in {elapsed:.0f}s")


def test_criterion_4_experiment_trends(bench_run, bench42):
    report, elapsed = bench_run
    stats = report.stats()
    hyb, img, mod = stats["hybrid"], stats["image_only"], stats["model_only"]
    a = hyb["count_hd_gt_3mm"] <= 0.5 * img["count_hd_gt_3mm"]
    b = hyb["count_hd_gt_2mm"] <= img["count_hd_gt_2mm"]
    c = mod["mean_mm"] > hyb["mean_mm"]
    total = elapsed + getattr(bench42, "gen_seconds", 0.0)
    _report(4, a and b and c and total < 600.0,
            f"(a) CO {hyb['count_hd_gt_3mm']} vs {img['count_hd_gt_3mm']}, "
            f"(b) >2mm {hyb['count_hd_gt_2mm']} vs {img['count_hd_gt_2mm']}, "
            f"(c) mean {mod['mean_mm']:.2f} vs {hyb['mean_mm']:.2f} mm, "
            f"{total:.0f}s for 100 catheters x 3 experiments")


def test_criterion_5_hybrid_median_parity(bench_run):
    report, _ = bench_run
    stats = report.stats()
    hyb, img = stats["hybrid"]["median_mm"], stats["image_only"]["median_mm"]
    _report(5, hyb <= 1.2 * img,
            f"hybrid median {hyb:.2f} mm vs image-only {img:.2f} mm")


def test_criterion_6_hausdorff_oracle_equivalence():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        n_a, n_b = rng.integers(2, 8, size=2)
        a = Trajectory(points=np.cumsum(rng.uniform(-2, 3, size=(int(n_a), 3)),
                                        axis=0), bezier_control=None,
                       provenance=[], estimates={})
        b = Trajectory(points=np.cumsum(rng.uniform(-2, 3, size=(int(n_b), 3)),
                                        axis=0), bezier_control=None,
                       provenance=[], estimates={})
        step = 0.8
        expected = brute_force_hausdorff(_resample_trajectory(a, step),
                                         _resample_trajectory(b, step))
        if hausdorff(a, b, step) != expected:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(6, mismatches == 0 and elapsed < 5.0,
            f"200 random curve pairs, {mismatches} mismatches vs O(n^2) "
            f"brute force in {elapsed:.2f}s")


def test_criterion_7_per_catheter_runtime(model, config):
    vol, gold, seeds = single_catheter_phantom(
        model, 50.0, depth=70.0, dims=(256, 256, 80))
    segment_catheter(vol, seeds.tips[0], seeds.plane, config)  # warm caches
    t0 = time.perf_counter()
    segment_catheter(vol, seeds.tips[0], seeds.plane, config)
    elapsed = time.perf_counter() - t0
    _report(7, elapsed < 2.0,
            f"one catheter in a 256x256x80 volume: {elapsed:.2f}s")


def test_criterion_8_benchmark_determinism(bench_run, config, model):
    report_a, _ = bench_run
    csv_a = scores_csv_text(report_a)
    bundle_b = standard_benchmark(42, model)
    report_b = run_experiments(bundle_b, config)
    csv_b = scores_csv_text(report_b)
    _report(8, csv_a.encode() == csv_b.encode(),
            f"two full runs: CSV reports byte-identical "
            f"({len(csv_a)} bytes each)" if csv_a == csv_b else
            "two full runs produced different CSV reports")


def test_readme_seed_42_table_matches_benchmark(bench_run):
    """README's seed-42 table shows this run: the HD counts exactly, the
    median and mean as printed to two decimals.  The figures follow the
    numpy and scipy versions the run uses."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] in dict(EXPERIMENTS):
            assert cells[0] not in rows, f"two README rows for {cells[0]}"
            rows[cells[0]] = cells[1:]
    report, _ = bench_run
    for name, s in report.stats().items():
        want = [f"{s['median_mm']:.2f}", f"{s['mean_mm']:.2f}",
                str(s["count_hd_gt_2mm"]), str(s["count_hd_gt_3mm"])]
        assert rows.get(name) == want, name


@given(st.integers(0, 2**32 - 1), st.sampled_from(["zero", "inf", "finite"]))
@settings(max_examples=200, deadline=None)
def test_criterion_9_gating_algebra(seed, kind):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-100, 100, size=3)
    b = rng.uniform(-100, 100, size=3)
    d_tol = {"zero": 0.0, "inf": math.inf,
             "finite": float(rng.uniform(1e-3, 25.0))}[kind]
    accepted, tag = gate_candidate(c, b, d_tol)
    dist = float(np.linalg.norm(c - b))
    assert np.linalg.norm(accepted - b) <= d_tol + 1e-9
    if d_tol == 0.0:
        assert tag == "model" and np.array_equal(accepted, b)
    elif math.isinf(d_tol):
        assert tag == "image" and np.array_equal(accepted, c)
    elif dist < d_tol:
        assert tag == "image"
    else:
        expected = b + (c - b) / dist * min(d_tol, dist / 2.0)
        assert tag == "compromise"
        assert np.allclose(accepted, expected, atol=1e-12)


def test_criterion_9_report():
    _report(9, True, "gating algebra property held over 200 random cases "
                     "including the d_tol = 0 and d_tol = inf degenerations")
