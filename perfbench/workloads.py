"""The three benchmark workloads.

Each workload drives cathseg only through its public functions, always
looked up on the module at call time (``evaluation.run_experiments``,
``engine.segment_catheter``, ``phantom.generate_phantom``) so the tracer's
wrappers see the calls.  A workload provides

- ``setup(seed)``: builds every input from the seed; timed as ``setup_s``;
- ``digest(state)``: digests of the set-up's volumes, which must repeat
  whenever one seed is set up again;
- ``items(state)``: the ordered work items the closed loop cycles through;
- ``run(state, item)``: the timed call for one item;
- ``inspect(state, item, output)``: checks one output outside the timed
  region and reduces it to a small ``Record``;
- ``finish(state, records)``: run-level checks; returns failed item ids;
- ``quality(records)`` and ``layer_metrics(state, records)``: the
  workload's own per-layer figures.

``Record.fingerprint`` must repeat exactly whenever an item runs again
(a later cycle of the loop, or the traced pass against the untraced one).
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cathseg import engine, evaluation, phantom, volume
from cathseg.engine import SegmentationConfig
from cathseg.phantom import (BenchmarkBundle, BenchmarkCase, BloomSpec,
                             CatheterSpec, DistractorSpec, PhantomSpec)
from cathseg.spring import SpringModelParams
from cathseg.volume import SeedSet

MODES = ("model_only", "image_only", "hybrid")


@dataclass
class Record:
    ok: bool
    fingerprint: object
    info: dict = field(default_factory=dict)


def _quiet_phantom(spec, model):
    """generate_phantom without the crossing-catheter warning; near passes
    are part of the workloads, as in the standard benchmark."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return phantom.generate_phantom(spec, model)


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a, dtype=float))))


def quality(hds_by_mode: dict) -> dict:
    """The paper's table per mode: median HD and the >2 / >3 mm shares."""
    out = {}
    for mode in MODES:
        hds = hds_by_mode.get(mode, [])
        n = len(hds)
        out[f"{mode}.catheters"] = n
        out[f"{mode}.hd_median_mm"] = statistics.median(hds) if n else 0.0
        out[f"{mode}.hd_gt2mm_frac"] = sum(h > 2.0 for h in hds) / n if n else 0.0
        out[f"{mode}.hd_gt3mm_frac"] = sum(h > 3.0 for h in hds) / n if n else 0.0
    return out


def _tag_fractions(tag_counts: list) -> dict:
    """Gate outcomes of the guided steps (every point after the tip) over
    hybrid segmentations: image accepted versus compromise."""
    steps = sum(n - 1 for n, _, _ in tag_counts)
    image = sum(i - 1 for _, i, _ in tag_counts)
    compromise = sum(c for _, _, c in tag_counts)
    return {"engine.image_accept_frac": image / steps if steps else 0.0,
            "engine.compromise_frac": compromise / steps if steps else 0.0}


def _digest(vol) -> str:
    return hashlib.blake2b(vol.data.tobytes(), digest_size=16).hexdigest()


def _unique(records):
    seen = {}
    for item_id, rec in records:
        seen.setdefault(item_id, rec)
    return seen


# ---------------------------------------------------------------------------
# three-mode: the paper's experiment on standard_benchmark(seed) volumes
# ---------------------------------------------------------------------------

# volumes of standard_benchmark: v1 noise 4 + bloom, v2 noise 8,
# v6 noise 0 + distractor tubes and blobs; together they cover noise 0/4/8,
# bloom on/off and distractors on/off at the lowest generation cost
THREE_MODE_VOLUMES = (1, 2, 6)
BUNDLE_CHECK_CATHETERS = 2


def benchmark_specs(seed: int, model: SpringModelParams) -> list:
    """The phantom specs of ``standard_benchmark(seed)``, derived without
    rasterizing: ``generate_phantom`` is swapped for a recorder while the
    bundle's specs are drawn, so only the chosen volumes are generated."""
    specs = []
    generate = phantom.generate_phantom

    def record(spec, model):
        specs.append(spec)
        return None, [], None

    phantom.generate_phantom = record
    try:
        phantom.standard_benchmark(seed, model)
    finally:
        phantom.generate_phantom = generate
    if not specs:
        raise RuntimeError("standard_benchmark drew no phantom specs")
    return specs


def _bundle(seed, model, case, catheters) -> BenchmarkBundle:
    sub = BenchmarkCase(volume_id=case.volume_id, volume=case.volume,
                        gold=[case.gold[c] for c in catheters],
                        seeds=SeedSet(tips=[case.seeds.tips[c] for c in catheters],
                                      plane=case.seeds.plane),
                        spec=case.spec)
    return BenchmarkBundle(seed=seed, model=model, cases=[sub])


class ThreeMode:
    name = "three-mode"
    items_are_catheters = True
    trace_items = 9              # one traced pass: three catheters per volume

    def setup(self, seed):
        model = SpringModelParams()
        config = SegmentationConfig(model=model)
        config.ensure_table()
        specs = benchmark_specs(seed, model)
        cases = []
        for v in THREE_MODE_VOLUMES:
            vol, gold, seeds = _quiet_phantom(specs[v], model)
            cases.append(BenchmarkCase(volume_id=v, volume=vol, gold=gold,
                                       seeds=seeds, spec=specs[v]))
        # round robin over the volumes, so any prefix mixes all of them
        items = []
        for c in range(max(len(case.gold) for case in cases)):
            for case in cases:
                if c < len(case.gold):
                    items.append((f"v{case.volume_id:02d}c{c:02d}", case, c,
                                  _bundle(seed, model, case, [c])))
        return {"seed": seed, "model": model, "config": config,
                "cases": cases, "items": items}

    def items(self, state):
        return state["items"]

    def digest(self, state):
        return tuple(_digest(case.volume) for case in state["cases"])

    def run(self, state, item):
        return evaluation.run_experiments(item[3], state["config"])

    def inspect(self, state, item, report):
        rows = {s.experiment: s for s in report.scores}
        ok = (len(report.scores) == len(MODES) and set(rows) == set(MODES)
              and all(math.isfinite(s.hd) and not s.failed and s.n_points >= 2
                      for s in report.scores))
        fingerprint = tuple((s.experiment, s.hd, s.n_points,
                             tuple(sorted(s.provenance_counts.items())))
                            for s in report.scores)
        return Record(ok, fingerprint, {"rows": rows})

    def finish(self, state, records):
        """The one-catheter bundles must score exactly as the same catheters
        do inside one multi-catheter bundle."""
        first = state["cases"][0]
        done = _unique(records)
        catheters = [item[2] for item in state["items"]
                     if item[1] is first and item[0] in done]
        catheters = catheters[:BUNDLE_CHECK_CATHETERS]
        report = evaluation.run_experiments(
            _bundle(state["seed"], state["model"], first, catheters),
            state["config"])
        failed = []
        for k, c in enumerate(catheters):
            item_id = f"v{first.volume_id:02d}c{c:02d}"
            joint = [(s.experiment, s.hd) for s in
                     report.scores[k * len(MODES):(k + 1) * len(MODES)]]
            alone = [(e, hd) for e, hd, _, _ in done[item_id].fingerprint]
            if joint != alone:
                failed.append(item_id)
        return failed

    def quality(self, records):
        hds = {mode: [] for mode in MODES}
        for rec in _unique(records).values():
            for mode, row in rec.info.get("rows", {}).items():
                hds[mode].append(row.hd)
        return quality(hds)

    def layer_metrics(self, state, records):
        tags = [(row.n_points, row.provenance_counts.get("image", 0),
                 row.provenance_counts.get("compromise", 0))
                for rec in _unique(records).values()
                for mode, row in rec.info.get("rows", {}).items()
                if mode == "hybrid"]
        return _tag_fractions(tags)


# ---------------------------------------------------------------------------
# hybrid-latency: one hybrid catheter at a time in 256x256x80 NRRD volumes
# ---------------------------------------------------------------------------

HYBRID_DIMS = (256, 256, 80)
HYBRID_SPACING = (0.5, 0.5, 1.0)
HYBRID_VOLUMES = ((0.0, False), (4.0, True), (8.0, False))  # noise, bloom
HYBRID_ENTRIES = tuple((u, v) for u in (-24.0, 0.0, 24.0) for v in (-12.0, 12.0))
HYBRID_MAX_DEFLECTION = 11.0   # mm
HYBRID_DEPTH = (55.0, 70.0)    # mm; tips stay inside the 79 mm z extent
HYBRID_D_TOL = 1.0


class HybridLatency:
    name = "hybrid-latency"
    items_are_catheters = True
    trace_items = 18             # one traced pass: every catheter once

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def setup(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        model = SpringModelParams()
        config = SegmentationConfig(model=model, d_tol=HYBRID_D_TOL)
        config.ensure_table()
        workdir = self.scratch / f"hybrid-latency-s{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        cases = []
        try:
            for v, (noise, bloom) in enumerate(HYBRID_VOLUMES):
                n = len(HYBRID_ENTRIES)
                targets = rng.permutation(np.linspace(0.0, HYBRID_MAX_DEFLECTION, n))
                catheters = []
                for c, k in enumerate(rng.permutation(n)):
                    eu, ev = HYBRID_ENTRIES[k]
                    depth = float(rng.uniform(*HYBRID_DEPTH))
                    catheters.append(CatheterSpec(
                        f0=phantom.force_for_deflection(model, depth, float(targets[c])),
                        insertion_depth=depth,
                        deflection_azimuth=float(rng.uniform(0.0, 2.0 * math.pi)),
                        entry_point=(eu + float(rng.uniform(-1.5, 1.5)),
                                     ev + float(rng.uniform(-1.5, 1.5)))))
                spec = PhantomSpec(dims=HYBRID_DIMS, spacing=HYBRID_SPACING,
                                   catheters=catheters, noise_sigma=noise,
                                   bloom=BloomSpec(enabled=bloom),
                                   rng_seed=int(rng.integers(2**62)))
                vol, gold, seeds = _quiet_phantom(spec, model)
                vol_path, seeds_path = workdir / f"v{v}.nrrd", workdir / f"v{v}.json"
                volume.save_volume(vol, vol_path)
                volume.save_seeds(seeds, seeds_path)
                del vol
                cases.append((volume.load_volume(vol_path),
                              volume.load_seeds(seeds_path), gold))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        items = [(f"v{v:02d}c{c:02d}", vol, seeds, gold, c)
                 for c in range(len(HYBRID_ENTRIES))
                 for v, (vol, seeds, gold) in enumerate(cases)]
        return {"config": config, "items": items,
                "digest": tuple(_digest(vol) for vol, _, _ in cases)}

    def items(self, state):
        return state["items"]

    def digest(self, state):
        return state["digest"]

    def run(self, state, item):
        _, vol, seeds, _, c = item
        return engine.segment_catheter(vol, seeds.tips[c], seeds.plane,
                                       state["config"])

    def inspect(self, state, item, traj):
        """Finite points that start exactly at the seed tip and reach the
        base plane within one walk step without crossing it."""
        _, _, seeds, gold, c = item
        tip, plane = seeds.tips[c], seeds.plane
        pts = np.asarray(traj.points, dtype=float)
        step = float(volume.distance_to_plane(plane, tip)) / (state["config"].n_c - 1)
        gap = float(volume.distance_to_plane(plane, pts[-1])) if len(pts) else math.inf
        hd = evaluation.hausdorff(traj, gold[c]) if len(pts) >= 2 else math.inf
        ok = (len(pts) >= 2 and _finite(pts) and np.array_equal(pts[0], tip)
              and (traj.bezier_control is None or _finite(traj.bezier_control))
              and -1e-9 <= gap <= step + 1e-9 and math.isfinite(hd))
        prov = list(traj.provenance)
        return Record(ok, (hd, len(pts), tuple(prov)),
                      {"hd": hd, "gap": gap, "tags": (len(pts), prov.count("image"),
                                                      prov.count("compromise"))})

    def finish(self, state, records):
        return []

    def quality(self, records):
        return quality({"hybrid": [r.info["hd"] for r in _unique(records).values()]})

    def layer_metrics(self, state, records):
        recs = list(_unique(records).values())
        out = _tag_fractions([r.info["tags"] for r in recs])
        out["engine.end_gap_max_mm"] = max((r.info["gap"] for r in recs), default=0.0)
        return out


# ---------------------------------------------------------------------------
# phantom-gen: volumes drawn like the standard benchmark's
# ---------------------------------------------------------------------------

GEN_DIMS = (192, 192, 104)
GEN_SPACING = (0.5, 0.5, 1.0)
GEN_CATHETERS = 10
GEN_NOISE_LEVELS = (0.0, 4.0, 8.0)
GEN_MAX_DEFLECTION = 11.0
GEN_INSERTION_RANGE = (62.0, 86.0)
GEN_MAX_CORE = 45.0
GEN_DROPOUT_FRACTION = 0.5
GEN_PARALLEL_TUBES = 3
# Oblique tubes have a fixed polar angle each and a diagonal azimuth, so
# their stamping boxes have one shape and never clip: the standard
# benchmark's uniformly random directions make one distractor volume cost
# anywhere from 0.9 s to 3.9 s, which no 30 s run averages out.
GEN_OBLIQUE_POLAR = (math.radians(30.0), math.radians(60.0))
GEN_OBLIQUE_LENGTH = 72.0      # mm
GEN_BLOBS = 3
# distractors on or off per volume of one pass; the pass starts with a plain
# volume, which set-up also generates once as its warm-up
GEN_PATTERN = (False, True, True, False, True, True)


@dataclass
class Recipe:
    rid: str
    noise: float
    bloom: bool
    catheters: list              # (deflection target, CatheterSpec with f0 = 0)
    distractors: list
    rng_seed: int


def draw_recipe(rng, index: int, with_distractors: bool) -> Recipe:
    """One volume drawn as ``standard_benchmark`` draws it, except for the
    oblique tubes; the catheters' forces are solved in the timed item."""
    extent = (np.asarray(GEN_DIMS) - 1) * np.asarray(GEN_SPACING)
    cx, cy = extent[0] / 2.0, extent[1] / 2.0
    grid = [(u, v) for u in (-18.0, -9.0, 0.0, 9.0, 18.0) for v in (-7.0, 7.0)]
    order = rng.permutation(len(grid))
    targets = rng.permutation(np.linspace(0.0, GEN_MAX_DEFLECTION, GEN_CATHETERS))
    catheters = []
    for c in range(GEN_CATHETERS):
        eu, ev = grid[order[c]]
        eu += float(rng.uniform(-1.5, 1.5))
        ev += float(rng.uniform(-1.5, 1.5))
        depth = float(rng.uniform(*GEN_INSERTION_RANGE))
        core = float(rng.uniform(0.0, GEN_MAX_CORE)) if rng.random() < 0.5 else 0.0
        dropouts = []
        if rng.random() < GEN_DROPOUT_FRACTION:
            for _ in range(int(rng.integers(1, 3))):
                length = float(rng.uniform(6.0, 14.0))
                hi = depth / 2.0 - 8.0 - length
                if hi > 8.0:
                    dropouts.append((float(rng.uniform(8.0, hi)), length))
        catheters.append((float(targets[c]), CatheterSpec(
            f0=0.0, insertion_depth=depth,
            deflection_azimuth=float(rng.uniform(0.0, 2.0 * math.pi)),
            entry_point=(eu, ev), core_intensity=core, dropouts=dropouts)))
    distractors = []
    if with_distractors:
        for _ in range(GEN_PARALLEL_TUBES):
            cath = catheters[int(rng.integers(0, GEN_CATHETERS))][1]
            ang = float(rng.uniform(0.0, 2.0 * math.pi))
            off = float(rng.uniform(4.5, 8.0))
            base = np.array([cx + cath.entry_point[0] + off * math.cos(ang),
                             cy + cath.entry_point[1] + off * math.sin(ang), 2.0])
            tilt = float(rng.uniform(0.0, 0.12))
            taz = float(rng.uniform(0.0, 2.0 * math.pi))
            u = np.array([math.sin(tilt) * math.cos(taz),
                          math.sin(tilt) * math.sin(taz), math.cos(tilt)])
            distractors.append(DistractorSpec(kind="tube", p0=tuple(base),
                                              p1=tuple(base + (extent[2] - 6.0) * u),
                                              radius=0.8))
        for polar in GEN_OBLIQUE_POLAR:
            center = np.array([cx, cy, extent[2] / 2.0]) + rng.uniform(-10.0, 10.0, 3)
            azimuth = math.pi / 4.0 + math.pi / 2.0 * int(rng.integers(4))
            u = np.array([math.sin(polar) * math.cos(azimuth),
                          math.sin(polar) * math.sin(azimuth), math.cos(polar)])
            half = GEN_OBLIQUE_LENGTH / 2.0
            distractors.append(DistractorSpec(kind="tube", p0=tuple(center - half * u),
                                              p1=tuple(center + half * u), radius=0.8))
        for _ in range(GEN_BLOBS):
            center = np.array([rng.uniform(cx - 25, cx + 25), rng.uniform(cy - 25, cy + 25),
                               rng.uniform(15.0, extent[2] - 15.0)])
            distractors.append(DistractorSpec(kind="blob", p0=tuple(center),
                                              radius=float(rng.uniform(1.5, 3.5))))
    return Recipe(rid=f"v{index:02d}",
                  noise=GEN_NOISE_LEVELS[index % len(GEN_NOISE_LEVELS)],
                  bloom=index % 2 == 1, catheters=catheters,
                  distractors=distractors, rng_seed=int(rng.integers(2**62)))


class PhantomGen:
    name = "phantom-gen"
    items_are_catheters = False
    trace_items = len(GEN_PATTERN)    # one traced pass

    def setup(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        model = SpringModelParams()
        items = [(r.rid, r) for r in (draw_recipe(rng, i, d)
                                      for i, d in enumerate(GEN_PATTERN))]
        state = {"model": model, "items": items}
        vol, _, _ = self.run(state, items[0])       # warm-up
        state["warmup"] = (items[0][0], _digest(vol))
        return state

    def items(self, state):
        return state["items"]

    def digest(self, state):
        return state["warmup"]

    def run(self, state, item):
        recipe, model = item[1], state["model"]
        catheters = []
        for target, cath in recipe.catheters:
            f0 = phantom.force_for_deflection(model, cath.insertion_depth, target)
            catheters.append(CatheterSpec(
                f0=f0, insertion_depth=cath.insertion_depth,
                deflection_azimuth=cath.deflection_azimuth,
                entry_point=cath.entry_point, core_intensity=cath.core_intensity,
                dropouts=cath.dropouts))
        spec = PhantomSpec(dims=GEN_DIMS, spacing=GEN_SPACING, catheters=catheters,
                           noise_sigma=recipe.noise,
                           bloom=BloomSpec(enabled=recipe.bloom, rim_radius=1.0,
                                           rim_gain=60.0),
                           distractors=recipe.distractors, rng_seed=recipe.rng_seed)
        return _quiet_phantom(spec, model)

    def inspect(self, state, item, output):
        recipe, (vol, gold, seeds) = item[1], output
        ok = (vol.data.shape == GEN_DIMS and _finite(vol.data)
              and len(gold) == len(recipe.catheters) == len(seeds.tips))
        for g, tip in zip(gold, seeds.tips):
            ok = ok and (len(g.points) >= 2 and _finite(g.points)
                         and np.array_equal(g.points[0], tip)
                         and float(volume.distance_to_plane(seeds.plane, tip)) > 0)
        return Record(ok, _digest(vol))

    def finish(self, state, records):
        rid, digest = state["warmup"]
        done = _unique(records)
        return [rid] if rid in done and done[rid].fingerprint != digest else []

    def quality(self, records):
        return quality({})

    def layer_metrics(self, state, records):
        return {}


def make(name: str, scratch: Path):
    if name == "three-mode":
        return ThreeMode()
    if name == "hybrid-latency":
        return HybridLatency(scratch)
    if name == "phantom-gen":
        return PhantomGen()
    raise KeyError(name)
