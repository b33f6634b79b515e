"""Command-line entry point.

Subcommands tie the library into reproducible workflows: ``simulate`` writes
the bending-model table and example curves, ``phantom`` materializes a
synthetic volume with gold centerlines and seeds, ``segment`` runs the
engine over a seed file, and ``evaluate`` scores trajectories against gold.
Every command drops a manifest JSON capturing config, inputs and timings.

Exit codes: 0 success, 2 usage, 3 input format, 4 partial segmentation
failure.  ``main`` maps every input error that a command raises to exit 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bezier import MAX_SAMPLES
from .engine import SegmentationConfig, load_trajectory, save_trajectory, \
    segment_batch
from .evaluation import ExperimentReport, score_catheter, write_scores_csv, \
    write_summary_json, write_overlay_json
from .features import FeatureMask
from .phantom import generate_phantom, load_phantom_spec
from .spring import SpringModelParams, build_model_table, export_table_csv, \
    find_max_force, simulate_forward
from .volume import load_seeds, load_volume, read_numbers, save_seeds, save_volume

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_PARTIAL = 4

# what reading or checking an input raises: file access, JSON decoding and
# nesting depth, shape and range checks (the spring check's included), and
# numbers past float range (FloatingPointError: a voxel past float32's)
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, RecursionError,
                OverflowError, FloatingPointError)

def config_to_dict(config) -> dict:
    """Flat JSON form of a config: the fields of SegmentationConfig with the
    fields of its nested dataclasses (mask, model) inlined, and "inf" for an
    infinite d_tol."""
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            doc.update(config_to_dict(value))
        else:
            doc[f.name] = "inf" if value == math.inf else value
    return doc


def config_from_dict(doc: dict) -> SegmentationConfig:
    """Inverse of ``config_to_dict``; missing fields keep their defaults.

    Each dataclass reads its own fields by ``read_numbers``, and d_tol also
    takes "inf"; a value that is no number raises ValueError naming its field.
    """
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(doc) - set(config_to_dict(SegmentationConfig()))
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if doc.get("d_tol") == "inf":
        doc = {**doc, "d_tol": math.inf}
    elif "d_tol" in doc:                 # Infinity or 1e400 is no "inf"
        read_numbers(doc["d_tol"], "d_tol")

    def part(cls):
        return {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
    return SegmentationConfig(**part(SegmentationConfig),
                              mask=FeatureMask(**part(FeatureMask)),
                              model=SpringModelParams(**part(SpringModelParams)))


def _write_manifest(out_dir: Path, command: str, argv, config: dict | None,
                    inputs: dict, seeds: dict, wall_clock: dict):
    doc = {
        "command": command,
        "argv": list(argv),
        "tool_version": __version__,
        "config": config,
        "inputs": inputs,
        "rng_seeds": seeds,
        "wall_clock_s": wall_clock,
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


def _load_config_arg(args) -> SegmentationConfig:
    """Config file plus command-line overrides, validated as one config."""
    doc = {}
    if args.config:
        doc = json.loads(Path(args.config).read_text())
    if getattr(args, "dtol", None) is not None:
        doc["d_tol"] = args.dtol if args.dtol == "inf" else float(args.dtol)
    config = config_from_dict(doc)
    try:
        find_max_force(config.model)
    except RuntimeError as exc:       # a spring too soft or too stiff
        raise ValueError(str(exc)) from None
    return config


def cmd_simulate(args, argv) -> int:
    out = Path(args.out_dir)
    t0 = time.perf_counter()
    config = _load_config_arg(args)
    table = build_model_table(config.model)
    export_table_csv(table, out / "model_table.csv")

    f_max = table.f_max
    forces = [float(f) for f in np.linspace(0.0, 0.95 * f_max, args.n_curves)]
    curves = []
    for f0 in forces:
        state = simulate_forward(config.model, f0)
        curves.append({"f0": f0,
                       "support_points": [[float(a), float(d)]
                                          for a, d in state.positions]})
    (out / "model_curves.json").write_text(
        json.dumps({"f_max": f_max, "curves": curves}, indent=2) + "\n")
    _write_manifest(out, "simulate", argv, config_to_dict(config), {}, {},
                    {"total": time.perf_counter() - t0})
    return EXIT_OK


def cmd_phantom(args, argv) -> int:
    out = Path(args.out_dir)
    t0 = time.perf_counter()
    spec = load_phantom_spec(args.spec)
    config = _load_config_arg(args)
    # generation checks dims, spacing, distractor kinds, depths and overflow
    vol, gold, seeds = generate_phantom(spec, config.model)
    save_volume(vol, out / "volume.nrrd")
    save_seeds(seeds, out / "seeds.json")
    for i, g in enumerate(gold):
        save_trajectory(g, out / f"gold_{i:02d}.json")
    _write_manifest(out, "phantom", argv, config_to_dict(config),
                    {"spec": str(args.spec)}, {"rng_seed": spec.rng_seed},
                    {"total": time.perf_counter() - t0})
    return EXIT_OK


def cmd_segment(args, argv) -> int:
    out = Path(args.out_dir)
    vol = load_volume(args.volume)
    seeds = load_seeds(args.seeds)
    seeds.validate(vol)
    config = _load_config_arg(args)

    wall = {}
    failures = 0
    [results] = segment_batch([(vol, seeds.plane, seeds.tips)], config,
                              (config.d_tol,))
    for i, ([outcome], seconds) in enumerate(results):
        wall[f"catheter_{i:02d}"] = seconds
        if isinstance(outcome, str):
            failures += 1
            print(f"catheter {i:02d} failed: {outcome}", file=sys.stderr)
        else:
            save_trajectory(outcome, out / f"trajectory_{i:02d}.json")
    _write_manifest(out, "segment", argv, config_to_dict(config),
                    {"volume": str(args.volume), "seeds": str(args.seeds)},
                    {}, wall)
    return EXIT_PARTIAL if failures else EXIT_OK


def _collect_numbered(path: Path, prefix: str) -> dict:
    return {f.stem.rsplit("_", 1)[-1]: f for f in sorted(path.glob(f"{prefix}_*.json"))}


def cmd_evaluate(args, argv) -> int:
    out = Path(args.out_dir)
    gold_dir, pred_dir = Path(args.gold), Path(args.pred)
    gold_files = _collect_numbered(gold_dir, "gold")
    pred_files = _collect_numbered(pred_dir, "trajectory")
    if not gold_files or set(gold_files) != set(pred_files):
        print(f"cathseg evaluate: pairing error: gold ids {sorted(gold_files)} vs "
              f"trajectory ids {sorted(pred_files)}", file=sys.stderr)
        return EXIT_FORMAT

    t0 = time.perf_counter()
    scores, trajs, golds = [], [], []
    for key in sorted(gold_files):
        try:
            golds.append(load_trajectory(gold_files[key]))
            trajs.append(load_trajectory(pred_files[key]))
            scores.append(score_catheter(trajs[-1], golds[-1], f"c{key}",
                                         args.experiment))
        except INPUT_ERRORS as exc:       # main reports it, naming the pair
            raise ValueError(f"for id {key}: {exc}") from exc
    report = ExperimentReport(scores=scores)
    write_scores_csv(report, out / "scores.csv")
    write_summary_json(report, out / "summary.json")
    write_overlay_json(trajs, golds, out / "overlay.json")
    _write_manifest(out, "evaluate", argv, None,
                    {"gold": str(gold_dir), "pred": str(pred_dir)}, {},
                    {"total": time.perf_counter() - t0})
    return EXIT_OK


def _checked(kind, ok, what: str):
    """argparse ``type``: ``kind(text)``, rejected unless ``ok`` holds."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cathseg",
        description="Model-guided segmentation of dark tubular trajectories")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write the model table and curves")
    p_sim.add_argument("--config", help="config JSON path")
    p_sim.add_argument("--n-curves", default=8,
                       type=_checked(int, lambda n: 0 <= n <= MAX_SAMPLES,
                                     f"between 0 and {MAX_SAMPLES}"))
    p_sim.add_argument("--out-dir", required=True)

    p_ph = sub.add_parser("phantom", help="generate a synthetic volume")
    p_ph.add_argument("--spec", required=True, help="phantom spec JSON")
    p_ph.add_argument("--config", help="config JSON path (the catheter model)")
    p_ph.add_argument("--out-dir", required=True)

    p_seg = sub.add_parser("segment", help="segment catheters from seeds")
    p_seg.add_argument("--volume", required=True)
    p_seg.add_argument("--seeds", required=True)
    p_seg.add_argument("--config", help="config JSON path")
    p_seg.add_argument("--dtol", help="0 | inf | <mm>, overrides config")
    p_seg.add_argument("--out-dir", required=True)

    p_ev = sub.add_parser("evaluate", help="score trajectories against gold")
    p_ev.add_argument("--gold", required=True, help="directory with gold_XX.json")
    p_ev.add_argument("--pred", required=True,
                      help="directory with trajectory_XX.json")
    p_ev.add_argument("--experiment", default="hybrid")
    p_ev.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": cmd_simulate, "phantom": cmd_phantom,
                "segment": cmd_segment, "evaluate": cmd_evaluate}
    try:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        return handlers[args.command](args, argv)
    except INPUT_ERRORS as exc:
        print(f"cathseg {args.command}: {exc}", file=sys.stderr)
        return EXIT_FORMAT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
