#!/usr/bin/env python3
"""Regenerate the standard benchmark and run the three-way experiment.

Writes scores.csv, summary.json and prints a compact per-experiment table.
"""

import argparse
import time
from pathlib import Path

from cathseg.cli import _checked
from cathseg.engine import SegmentationConfig
from cathseg.evaluation import run_experiments, write_scores_csv, write_summary_json
from cathseg.phantom import standard_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", default=1,
                        type=_checked(int, lambda n: n >= 1, "at least 1"))
    parser.add_argument("--out-dir", default="bench_out")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

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
          f"{'>2mm':>5} {'>3mm':>5}")
    for name, s in report.stats().items():
        print(f"{name:<12} {s['median_mm']:7.2f} {s['mean_mm']:7.2f} "
              f"{s['std_mm']:7.2f} {s['count_hd_gt_2mm']:5d} "
              f"{s['count_hd_gt_3mm']:5d}")
    print(f"\nwrote {out / 'scores.csv'} and {out / 'summary.json'}")


if __name__ == "__main__":
    main()
