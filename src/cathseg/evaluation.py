"""Hausdorff scoring and the three-way experiment harness.

Trajectories are resampled densely (along the fitted Bezier curve when one
is present, along the exact polyline otherwise) and compared with the
symmetric point-set Hausdorff distance.  The harness segments every
benchmark catheter under the three gating modes and aggregates descriptive
statistics plus outlier counts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .bezier import resample_polyline, sample_curve
from .engine import SegmentationConfig, Trajectory, error_text, segment_batch

EXPERIMENTS = (("model_only", 0.0), ("image_only", math.inf), ("hybrid", 1.0))


@dataclass
class CatheterScore:
    catheter_id: str
    experiment: str
    hd: float                    # mm; inf for failed segmentations
    n_points: int
    provenance_counts: dict
    failed: bool = False
    error: str | None = None     # why a failed segmentation failed


@dataclass
class ExperimentReport:
    scores: list = field(default_factory=list)

    def by_experiment(self, experiment: str) -> list:
        return [s for s in self.scores if s.experiment == experiment]

    def stats(self) -> dict:
        out = {}
        for exp in sorted({s.experiment for s in self.scores}):
            hds = np.array([s.hd for s in self.by_experiment(exp)])
            finite = hds[np.isfinite(hds)]
            out[exp] = {
                "n": int(len(hds)),
                "median_mm": float(np.median(hds)) if len(hds) else float("nan"),
                "mean_mm": float(np.mean(hds)) if len(hds) else float("nan"),
                "std_mm": float(np.std(finite)) if len(finite) else float("nan"),
                "count_hd_gt_2mm": int(np.sum(hds > 2.0)),
                "count_hd_gt_3mm": int(np.sum(hds > 3.0)),
                "failures": int(np.sum(~np.isfinite(hds))),
            }
        return out


def _resample_trajectory(traj: Trajectory, step: float) -> np.ndarray:
    if traj.bezier_control is not None:
        return sample_curve(traj.bezier_control, step)
    poly = np.asarray(traj.points, dtype=float)
    if np.all(poly == poly[0]):
        raise ValueError("degenerate trajectory: zero length")
    return resample_polyline(poly, step)


def hausdorff(traj_a: Trajectory, traj_b: Trajectory, resample_step: float = 0.5) -> float:
    """Symmetric Hausdorff distance between two densely resampled curves."""
    for t in (traj_a, traj_b):
        if len(t.points) < 2:
            raise ValueError("trajectories need at least two points")
    a = _resample_trajectory(traj_a, resample_step)
    b = _resample_trajectory(traj_b, resample_step)
    # kd-tree finds the neighbor; the distance is recomputed in the expanded
    # euclidean form so results match a brute-force double loop bit for bit
    ia = cKDTree(b).query(a)[1]
    ib = cKDTree(a).query(b)[1]
    d_ab = _euclidean(a, b[ia]).max()
    d_ba = _euclidean(b, a[ib]).max()
    return float(max(d_ab, d_ba))


def _euclidean(p, q):
    d = p - q
    return np.sqrt((d[:, 0] ** 2 + d[:, 1] ** 2) + d[:, 2] ** 2)


def _count_tags(provenance) -> dict:
    counts = {"image": 0, "model": 0, "compromise": 0}
    for tag in provenance:
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def score_catheter(traj: Trajectory, gold: Trajectory, catheter_id: str,
                   experiment: str, resample_step: float = 0.5) -> CatheterScore:
    hd = hausdorff(traj, gold, resample_step)
    return CatheterScore(catheter_id=catheter_id, experiment=experiment, hd=hd,
                         n_points=len(traj.points),
                         provenance_counts=_count_tags(traj.provenance))


def _score_outcome(outcome, gold: Trajectory, catheter_id: str, experiment: str,
                   resample_step: float) -> CatheterScore:
    """Score a batch outcome; an error text, or a failure to score, becomes
    an hd = inf row that keeps the reason."""
    if isinstance(outcome, Trajectory):
        try:
            return score_catheter(outcome, gold, catheter_id, experiment,
                                  resample_step)
        except Exception as exc:
            outcome = error_text(exc)
    return CatheterScore(catheter_id, experiment, float("inf"), 0, _count_tags([]),
                         failed=True, error=outcome)


def run_experiments(bundle, config: SegmentationConfig, jobs: int = 1,
                    resample_step: float = 0.5,
                    experiments=EXPERIMENTS) -> ExperimentReport:
    """Segment every bundle catheter under each gating mode and score it.

    Each catheter is estimated once and walked once per mode, and a cone
    that several modes repeat is cast once.  Per-catheter failures become
    hd = inf rows (counted as outliers) that keep the error text; the batch
    never aborts.  Scores come out in a fixed (volume, catheter, experiment)
    order, so reports are byte-reproducible regardless of jobs.
    """
    d_tols = tuple(d_tol for _, d_tol in experiments)
    tasks = [(case.volume, case.seeds.plane, case.seeds.tips, d_tols)
             for case in bundle.cases]
    scores = []
    for case, tips in zip(bundle.cases, segment_batch(tasks, config, jobs)):
        for ci, (outcomes, _) in enumerate(tips):
            cid = f"v{case.volume_id:02d}c{ci:02d}"
            for (exp_name, _), outcome in zip(experiments, outcomes):
                scores.append(_score_outcome(outcome, case.gold[ci], cid,
                                             exp_name, resample_step))
    return ExperimentReport(scores=scores)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def scores_csv_text(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["catheter_id", "experiment", "hd_mm", "n_points",
                     "provenance_counts"])
    for s in report.scores:
        prov = ";".join(f"{k}:{v}" for k, v in sorted(s.provenance_counts.items()))
        writer.writerow([s.catheter_id, s.experiment, repr(float(s.hd)),
                         s.n_points, prov])
    return buf.getvalue()


def write_scores_csv(report: ExperimentReport, path):
    Path(path).write_text(scores_csv_text(report))


def read_scores_csv(path) -> ExperimentReport:
    scores = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            prov = {}
            if row["provenance_counts"]:
                for item in row["provenance_counts"].split(";"):
                    k, _, v = item.partition(":")
                    prov[k] = int(v)
            hd = float(row["hd_mm"])
            scores.append(CatheterScore(
                catheter_id=row["catheter_id"], experiment=row["experiment"],
                hd=hd, n_points=int(row["n_points"]), provenance_counts=prov,
                failed=not math.isfinite(hd)))
    return ExperimentReport(scores=scores)


def _json_safe(x):
    """Non-finite floats as the strings "inf", "-inf" and "nan"."""
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def summary_json_text(report: ExperimentReport) -> str:
    doc = {
        "experiments": {exp: {k: _json_safe(v) for k, v in stats.items()}
                        for exp, stats in report.stats().items()},
        "raw": [{"catheter_id": s.catheter_id, "experiment": s.experiment,
                 "hd_mm": _json_safe(s.hd), "n_points": s.n_points,
                 "provenance_counts": s.provenance_counts, "failed": s.failed,
                 "error": s.error}
                for s in report.scores],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_summary_json(report: ExperimentReport, path):
    Path(path).write_text(summary_json_text(report))


def write_overlay_json(trajectories: list, gold: list, path):
    """Plottable per-catheter polylines (no interactive UI, just data)."""
    doc = {
        "catheters": [
            {"segmented": [[float(x) for x in p] for p in t.points],
             "gold": [[float(x) for x in p] for p in g.points]}
            for t, g in zip(trajectories, gold)
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
