#!/usr/bin/env python3
"""cathseg benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload three-mode --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: cathseg is imported from ``src/``
there and nowhere else.  With ``--trace 0`` the run sets up the workload
several times (``setup_s`` is the median), then runs its work items one at a
time for ``--seconds`` of busy time and prints the end-to-end metrics, whose
times are rescaled to the reference core speed (see ``core_slowdown``).  With
``--trace 1`` it sets up once under the tracer, runs one fixed pass of items
untraced and one traced, and prints the per-layer metrics.  Every output is
checked; the last stdout line is the JSON result, and the exit code is 1
when a check failed.  Records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("three-mode", "hybrid-latency", "phantom-gen")
SETUP_REPEATS = 3
MIN_ITEMS = 11       # the tail percentile needs ten samples beyond it
REFERENCE_LOOP_N = 150_000
REFERENCE_LOOP_S = 0.0100   # reference_loop() on a fast core of the reference machine
EXIT_FAILED_CHECK = 1
EXIT_NO_PROGRAM = 2

# per-layer metrics: (name, unit); see README.md for what each should move
LAYER_FUNCTIONS = {
    "volume.sample_voxel": ("calls", "s", "self_s"),
    "volume.load_volume": ("calls", "s"),
    "features.cone_search": ("calls", "s", "self_s"),
    "features.cone_search_with_stats": ("calls", "s", "self_s"),
    "engine.segment_catheter": ("calls", "s", "self_s"),
    "engine.estimate_model": ("calls", "s", "self_s"),
    "bezier.fit_bezier": ("calls", "s", "self_s"),
    "spring.simulate_forward": ("calls", "s"),
    "spring.simulate_backward": ("calls", "s"),
    "spring.lookup": ("calls", "s"),
    "spring.build_model_table": ("calls", "s"),
    "phantom.generate_phantom": ("calls", "s", "self_s"),
    "phantom.force_for_deflection": ("calls", "s"),
    "evaluation.run_experiments": ("calls", "s", "self_s"),
    "evaluation.hausdorff": ("calls", "s"),
}
LAYER_DERIVED = (
    ("volume.sample_voxel.points", "count"),
    ("volume.load_volume.bytes", "bytes"),
    ("features.rays", "count"),
    ("features.lookups_per_cone", "count"),
    ("engine.estimates_per_catheter", "count"),
    ("engine.cones_per_catheter", "count"),
    ("engine.image_accept_frac", "fraction"),
    ("engine.compromise_frac", "fraction"),
    ("engine.init_fallback_frac", "fraction"),
    ("engine.end_gap_max_mm", "mm"),
    ("phantom.tubes_stamped", "count"),
    ("phantom.voxels_per_s", "1/s"),
) + tuple(
    (f"{mode}.{key}", unit)
    for mode in ("hybrid", "image_only", "model_only")
    for key, unit in (("catheters", "count"), ("hd_median_mm", "mm"),
                      ("hd_gt2mm_frac", "fraction"), ("hd_gt3mm_frac", "fraction"))
) + (
    ("failed_frac", "fraction"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)
PER_LAYER = tuple((f"{fn}.{key}", "count" if key == "calls" else "s")
                  for fn, keys in LAYER_FUNCTIONS.items() for key in keys) + LAYER_DERIVED
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("items_per_s", "1/s"),
              ("latency_p50_s", "s"), ("latency_tail_s", "s"))


def environment() -> dict:
    """Interpreter, libraries and the machine the figures were taken on."""
    import numpy
    import scipy

    cpu, caches = platform.processor() or platform.machine(), {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            name = f"L{level}" + ({"Data": "d", "Instruction": "i"}.get(kind, ""))
            caches[name] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "caches": caches}


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that shares nothing with
    cathseg."""
    t0 = time.perf_counter()
    s = 0
    for j in range(REFERENCE_LOOP_N):
        s += j * j % 7
    return time.perf_counter() - t0


def core_slowdown() -> float:
    """How much slower the core runs now than the reference core.

    The host's cores switch between a fast speed and one 1.5 to 2.5 times
    slower, for seconds to minutes at a time, and CPU time slows with wall
    time.  A run's wall times therefore mostly measure how long the run was
    slow.  The reference loop slows with the core, so a wall time divided by
    the slowdown measured around it is the time on the fast core: its
    reference time.  The best of two loops skips a loop that was preempted.
    """
    return min(reference_loop(), reference_loop()) / REFERENCE_LOOP_S


def timed(fn, *args):
    """(result, wall seconds, reference seconds) of one call."""
    before = core_slowdown()
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    return out, wall, wall * 2.0 / (before + core_slowdown())


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the (n - 11)th of n sorted samples."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * k / max(len(xs) - 1, 1)


def run_items(wl, state, items, records, failed, stop, tracer=None):
    """Closed loop, one client: the next item starts when the last ends.
    Returns (item id, wall s, reference s) per run; checks run outside the
    timed call."""
    runs = []
    i = 0
    while not stop(i, sum(wall for _, wall, _ in runs)):
        item = items[i % len(items)]
        item_id = item[0]
        if tracer is not None:
            tracer.item = item_id
        t0 = time.perf_counter()
        try:
            output, wall, ref = timed(wl.run, state, item)
            error = None
        except Exception:                       # one failed item, keep going
            output, error = None, traceback.format_exc()
            wall = ref = time.perf_counter() - t0
        runs.append((item_id, wall, ref))
        i += 1
        if tracer is not None:
            tracer.paused = True
        try:
            if error is None:
                rec = wl.inspect(state, item, output)
                del output
        except Exception:
            error = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.paused = False
        if error is not None:
            print(f"# {item_id} raised:\n{error}", file=sys.stderr)
            failed.add(item_id)
            continue
        earlier = next((r for k, r in records if k == item_id), None)
        if not rec.ok or (earlier is not None and earlier.fingerprint != rec.fingerprint):
            failed.add(item_id)
        records.append((item_id, rec))
    return runs


def layer_metrics(wl, state, tracer, records, n_items) -> dict:
    per_fn = tracer.per_function()
    out = {}
    for fn, keys in LAYER_FUNCTIONS.items():
        agg = per_fn.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in keys:
            out[f"{fn}.{key}"] = agg[key]
    counts = tracer.counts
    cones = sum(per_fn.get(f"features.{f}", {}).get("calls", 0)
                for f in ("cone_search", "cone_search_with_stats"))
    catheters = n_items if wl.items_are_catheters else 0
    estimates = per_fn.get("engine.estimate_model", {}).get("calls", 0)
    gen_s = per_fn.get("phantom.generate_phantom", {}).get("s", 0.0)
    out.update({
        "volume.sample_voxel.points": counts["volume.sample_voxel.points"],
        "volume.load_volume.bytes": counts["volume.load_volume.bytes"],
        "features.rays": counts["features.rays"],
        "features.lookups_per_cone":
            counts["volume.sample_voxel.points"] / cones if cones else 0.0,
        "engine.estimates_per_catheter": estimates / catheters if catheters else 0.0,
        "engine.cones_per_catheter": cones / catheters if catheters else 0.0,
        "engine.image_accept_frac": 0.0,
        "engine.compromise_frac": 0.0,
        "engine.init_fallback_frac":
            counts["engine.init_fallbacks"] / estimates if estimates else 0.0,
        "engine.end_gap_max_mm": 0.0,
        "phantom.tubes_stamped": counts["phantom.tubes_stamped"],
        "phantom.voxels_per_s": counts["phantom.voxels"] / gen_s if gen_s else 0.0,
    })
    out.update(wl.layer_metrics(state, records))
    out.update(wl.quality(records))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cathseg" / "__init__.py").is_file():
        print(f"cathseg sources not found under {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(src))
    import cathseg
    if Path(cathseg.__file__).resolve().parent != (src / "cathseg").resolve():
        print(f"cathseg imported from {cathseg.__file__}, not {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, OUT)
    records, failed = [], set()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment()}

    if args.trace == 0:
        setup_runs, setup_digests = [], []
        for _ in range(SETUP_REPEATS):
            state = None                          # free the previous inputs first
            state, wall, ref = timed(wl.setup, args.seed)
            setup_runs.append((wall, ref))
            setup_digests.append(wl.digest(state))
        if len(set(setup_digests)) != 1:
            print("# one seed set up different volumes", file=sys.stderr)
            failed.add("setup")
        runs = run_items(wl, state, wl.items(state), records, failed,
                         lambda i, busy: busy >= args.seconds and i >= MIN_ITEMS)
        failed.update(wl.finish(state, records))
        walls = [wall for _, wall, _ in runs]
        latencies = [ref for _, _, ref in runs]
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup_runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_s": len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
        }
        wall_metrics = {
            "setup_s": statistics.median(wall for wall, _ in setup_runs),
            "items_per_s": len(walls) / sum(walls),
            "latency_p50_s": statistics.median(walls),
            "latency_tail_s": tail(walls)[0],
        }
        record.update(setup_runs=setup_runs, runs=runs, wall_metrics=wall_metrics,
                      latency_tail_pct=tail_pct, quality=wl.quality(records))
        units = dict(END_TO_END)
        print(f"# {args.workload} seed {args.seed}: {len(latencies)} items, "
              f"p50 {metrics['latency_p50_s']:.4f} s, tail p{tail_pct:.1f} "
              f"{tail_s:.4f} s, setup {metrics['setup_s']:.3f} s (reference "
              f"times); wall p50 {wall_metrics['latency_p50_s']:.4f} s, "
              f"wall setup {wall_metrics['setup_s']:.3f} s")
    else:
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        with tracer:
            state = wl.setup(args.seed)
        setup_s = time.perf_counter() - t0
        items = wl.items(state)[:wl.trace_items]
        one_pass = lambda i, busy: i >= len(items)     # noqa: E731
        untraced_records = []
        untraced = sum(ref for _, _, ref in run_items(wl, state, items, untraced_records,
                                                      failed, one_pass))
        with tracer:
            runs = run_items(wl, state, items, records, failed, one_pass, tracer)
        traced = sum(ref for _, _, ref in runs)
        failed.update(wl.finish(state, records))
        if [r.fingerprint for _, r in untraced_records] != \
                [r.fingerprint for _, r in records]:
            print("# tracing changed the results", file=sys.stderr)
            failed.update(k for k, _ in records)
        metrics = layer_metrics(wl, state, tracer, records, len(items))
        metrics.update({"failed_frac": len(failed) / len(items),
                        "trace.untraced_s": untraced,
                        "trace.traced_s": traced,
                        "trace.overhead_s": traced - untraced,
                        "trace.spans": len(tracer.spans)})
        record.update(setup_s=setup_s, runs=runs)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
        units = dict(PER_LAYER)

    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    result = {"correct": not failed, "attempted": len(runs),
              "failed": sum(1 for item_id, _, _ in runs if item_id in failed),
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    record.update(result=result, failed_items=sorted(failed))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"# env {json.dumps(record['env'])}")
    print(json.dumps(result))
    return 0 if not failed else EXIT_FAILED_CHECK


if __name__ == "__main__":
    sys.exit(main())
