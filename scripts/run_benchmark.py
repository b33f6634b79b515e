#!/usr/bin/env python3
"""Regenerate the standard benchmark and run the three-way experiment.

Writes scores.csv and summary.json, and prints a compact per-experiment table
(with the number of catheters whose estimate fell back to the straight guess)
and the median ratio of estimated to true tip force.
"""

import argparse
import statistics
import time
from pathlib import Path

from cathseg.cli import _checked
from cathseg.engine import SegmentationConfig
from cathseg.evaluation import run_experiments, write_scores_csv, write_summary_json
from cathseg.phantom import standard_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default=42,
                        type=_checked(int, lambda n: n >= 0, "non-negative"))
    parser.add_argument("--jobs", default=1,
                        type=_checked(int, lambda n: n >= 1, "at least 1"))
    parser.add_argument("--out-dir", default="bench_out")
    args = parser.parse_args()

    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:               # a file, or a path through one
        parser.error(f"argument --out-dir: cannot make directory {out}: {exc.strerror}")

    t0 = time.perf_counter()
    bundle = standard_benchmark(args.seed)
    print(f"generated {bundle.n_catheters} catheters in "
          f"{len(bundle.cases)} volumes ({time.perf_counter() - t0:.0f}s)")

    config = SegmentationConfig()
    t0 = time.perf_counter()
    report = run_experiments(bundle, config, jobs=args.jobs)
    print(f"ran 3 experiments ({time.perf_counter() - t0:.0f}s)")

    write_scores_csv(report, out / "scores.csv")
    write_summary_json(report, out / "summary.json")

    print(f"\n{'experiment':<12} {'median':>7} {'mean':>7} {'std':>7} "
          f"{'>2mm':>5} {'>3mm':>5} {'fallback':>8}")
    for name, s in report.stats().items():
        fallbacks = sum(bool(row.used_fallback) for row in report.by_experiment(name))
        print(f"{name:<12} {s['median_mm']:7.2f} {s['mean_mm']:7.2f} "
              f"{s['std_mm']:7.2f} {s['count_hd_gt_2mm']:5d} "
              f"{s['count_hd_gt_3mm']:5d} {fallbacks:8d}")
    # one ratio per catheter: every mode shares the catheter's estimate
    ratios = {s.catheter_id: s.f0_est / s.f0_true for s in report.scores
              if s.f0_est is not None and s.f0_true is not None and s.f0_true > 5.0}
    if ratios:
        print(f"\nmedian f0_est / f0_true over {len(ratios)} catheters above "
              f"5 uN: {statistics.median(ratios.values()):.2f}")
    print(f"\nwrote {out / 'scores.csv'} and {out / 'summary.json'}")


if __name__ == "__main__":
    main()
