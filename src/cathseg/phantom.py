"""Synthetic volumes with known bent-catheter centerlines.

Catheter centerlines come straight from the forward bending simulation, so
the gold standard is exact by construction.  Tubes rasterize as dark cores
with a linear one-voxel edge, optionally wrapped in a bright rim; straight
distractor tubes and dark blobs provide the outlier-inducing clutter that a
robust search must reject.  All randomness flows through a 64-bit PCG
generator seeded from the spec, so identical specs give bit-identical
volumes.
"""

from __future__ import annotations

import json
import math
import warnings as _warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .bezier import resample_polyline
from .engine import Trajectory
from .features import _worker_pool
from .spring import SpringModelParams, cut_at_depth, solve_at_depth
from .volume import BasePlane, SeedSet, Volume3D, read_fields

_CENTERLINE_STEP = 0.25  # mm, dense resampling used for distance queries
_NOISE_SLAB = 16         # first-axis planes of noise drawn per call
_WINDOW_MARGIN = 1e-9    # relative: a reach / spacing ratio this close below an
                         # integer counts as that integer (2.8 / 0.4 = 6.999...)

# standard benchmark knobs
BENCH_N_VOLUMES = 10
BENCH_CATHETERS_PER_VOLUME = 10
BENCH_DIMS = (192, 192, 104)
BENCH_SPACING = (0.5, 0.5, 1.0)
BENCH_NOISE_LEVELS = (0.0, 4.0, 8.0)
BENCH_MAX_DEFLECTION = 11.0        # mm lateral at the catheter's own depth
BENCH_INSERTION_RANGE = (62.0, 86.0)
BENCH_MAX_CORE = 45.0              # faintest void core intensity
BENCH_DROPOUT_FRACTION = 0.5       # catheters with fading void windows
BENCH_N_PARALLEL_TUBES = 3         # unseeded neighbor-like tubes
BENCH_N_OBLIQUE_TUBES = 2
BENCH_N_DISTRACTOR_BLOBS = 3


@dataclass
class CatheterSpec:
    f0: float                    # uN tip-effective force
    insertion_depth: float       # mm from base plane to tip
    deflection_azimuth: float    # rad about the plane normal
    entry_point: tuple           # (u, v) mm in-plane offsets from the plane origin
    core_intensity: float = 0.0  # void darkness; > 0 models a fainter catheter
    dropouts: list = field(default_factory=list)  # (arc_start, arc_len) mm windows
                                                  # where the void fades out

    def __post_init__(self):
        read_fields(self, ("f0", "insertion_depth", "deflection_azimuth", "core_intensity"))
        read_fields(self, ("entry_point",), (2,))
        read_fields(self, ("dropouts",), (None, 2))
        if any(length < 0 for _, length in self.dropouts):
            raise ValueError(f"a dropout's arc_len must be non-negative, "
                             f"got {self.dropouts}")


@dataclass
class BloomSpec:
    enabled: bool = False
    rim_radius: float = 1.0      # mm, rim peak offset outside the tube wall
    rim_gain: float = 60.0       # intensity added at the rim peak

    def __post_init__(self):
        if not isinstance(self.enabled, bool):      # a string would be truthy
            raise ValueError(f"bloom enabled must be true or false, got {self.enabled!r}")
        read_fields(self, ("rim_radius", "rim_gain"))
        if not (self.rim_radius > 0 and self.rim_gain >= 0):
            raise ValueError(f"bloom needs a positive rim_radius and a non-negative "
                             f"rim_gain, got {self.rim_radius}, {self.rim_gain}")


@dataclass
class DistractorSpec:
    kind: str                    # "tube" | "blob"
    p0: tuple = (0.0, 0.0, 0.0)  # tube endpoints, or blob center in p0
    p1: tuple = (0.0, 0.0, 0.0)
    radius: float = 0.8

    def __post_init__(self):
        read_fields(self, ("p0", "p1"), (3,))
        read_fields(self, ("radius",))
        if not self.radius > 0:
            raise ValueError(f"distractor radius must be positive, got {self.radius}")


@dataclass
class PhantomSpec:
    dims: tuple = (160, 160, 96)
    spacing: tuple = (0.5, 0.5, 1.0)
    background_intensity: float = 100.0
    catheters: list = field(default_factory=list)
    tube_radius: float = 0.8
    noise_sigma: float = 0.0
    bloom: BloomSpec = field(default_factory=BloomSpec)
    distractors: list = field(default_factory=list)
    rng_seed: int = 0
    plane_offset: float = 4.0    # mm, base plane distance from the volume origin face

    def __post_init__(self):
        # positivity of dims and spacing is Volume3D's check
        read_fields(self, ("dims",), (3,), int)
        read_fields(self, ("spacing",), (3,))
        read_fields(self, ("background_intensity", "tube_radius", "noise_sigma",
                           "plane_offset"))
        # checked with or without noise, since the manifest records it
        read_fields(self, ("rng_seed",), kind=int)
        # a void is a fraction of the background
        if not (self.tube_radius > 0 and self.background_intensity > 0):
            raise ValueError(f"tube_radius and background_intensity must be positive, "
                             f"got {self.tube_radius}, {self.background_intensity}")
        if not (self.noise_sigma >= 0 and self.rng_seed >= 0):
            raise ValueError(f"noise_sigma and rng_seed must be non-negative, "
                             f"got {self.noise_sigma}, {self.rng_seed}")


def save_phantom_spec(spec: PhantomSpec, path):
    Path(path).write_text(json.dumps(asdict(spec), indent=2) + "\n")


def load_phantom_spec(path) -> PhantomSpec:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("a phantom spec must be a JSON object")
    doc["bloom"] = BloomSpec(**doc.get("bloom", {}))
    doc["catheters"] = [CatheterSpec(**c) for c in doc.get("catheters", [])]
    doc["distractors"] = [DistractorSpec(**d) for d in doc.get("distractors", [])]
    return PhantomSpec(**doc)


def _centerline_world(cath: CatheterSpec, model: SpringModelParams,
                      plane: BasePlane, in_plane: tuple) -> np.ndarray:
    """Exact forward-model polyline, truncated where the plane distance
    reaches the insertion depth, mapped into world coordinates."""
    if not 0 < cath.insertion_depth <= model.total_length:
        raise ValueError("insertion_depth must lie in (0, catheter length]")
    poly2d = cut_at_depth(model, cath.f0, cath.insertion_depth)
    if poly2d is None:
        raise ValueError(f"a catheter bent by f0 = {cath.f0} uN never reaches "
                         f"insertion_depth {cath.insertion_depth} mm")
    u, v = in_plane
    lateral = math.cos(cath.deflection_azimuth) * u + math.sin(cath.deflection_azimuth) * v
    entry = plane.point + cath.entry_point[0] * u + cath.entry_point[1] * v
    return entry[None, :] + np.outer(poly2d[:, 0], plane.normal) \
        + np.outer(poly2d[:, 1], lateral)


def _near_voxels(vol: Volume3D, points, reach):
    """Indices and world centers of the voxels at offsets ``-f .. f + 1``,
    per axis, of the voxel holding one of ``points`` (clamped into the
    volume), where ``f = floor(reach / spacing)``: every voxel center closer
    than ``reach`` to a point is among them.

    A point at voxel coordinate ``x`` is held by ``h = floor(x)``, so
    ``x - h`` lies in [0, 1); a center ``c`` closer than ``reach`` has
    ``c - x`` in (-r, r) for ``r = reach / spacing``, hence ``c - h`` in
    (-r, r + 1), whose integers lie in ``-f .. f + 1``.  Clamping a held
    voxel into the volume only narrows the centers a point can reach.  A
    ratio within rounding below an integer takes the wider window, and a
    reach past the volume's extent spans it all.
    """
    shape = np.asarray(vol.dims)
    held = np.clip(np.floor(vol.world_to_voxel(points)), 0, shape - 1).astype(int)
    ratio = np.minimum(reach, shape * vol.spacing) / vol.spacing
    f = np.floor(ratio * (1.0 + _WINDOW_MARGIN)).astype(int)
    lo = np.maximum(held.min(axis=0) - f, 0)
    hi = np.minimum(held.max(axis=0) + f + 2, shape)
    mask = np.zeros(hi - lo, dtype=bool)
    mask[tuple((held - lo).T)] = True
    # an even size 2f + 2 at origin 0 marks offsets -f .. f + 1 of each voxel
    mask = ndimage.maximum_filter(mask, size=2 * f + 2, mode="constant")
    idx = np.argwhere(mask) + lo
    return tuple(idx.T), vol.voxel_to_world(idx)


def _stamp_tube(vol: Volume3D, poly, radius, edge, floor: float = 0.0,
                dropouts=(), rim: BloomSpec | None = None):
    """Darken voxels near the polyline; with a ``rim``, add a bright rim outside.

    The void scales voxels down to ``floor`` in [0, 1]; ``dropouts`` are
    (arc_start, arc_len) windows along the polyline where it fades out, with
    2 mm soft shoulders.  Voxels at ``reach`` or beyond stay unchanged.
    """
    dense = resample_polyline(poly, _CENTERLINE_STEP)
    reach = radius + edge
    if rim is not None:
        reach = max(reach, radius + 2.0 * rim.rim_radius)
    vox, centers = _near_voxels(vol, dense, reach)
    dist, idx = cKDTree(dense).query(centers, k=1, distance_upper_bound=reach)
    near = np.isfinite(dist)
    vox = tuple(v[near] for v in vox)
    dist, idx = dist[near], idx[near]

    # multiplicative darkening composes across crossing structures
    mult = np.clip((dist - (radius - edge / 2.0)) / edge, 0.0, 1.0)
    mult = floor + (1.0 - floor) * mult
    if dropouts:
        arc = idx * _CENTERLINE_STEP
        visible = np.ones_like(mult)
        for start, length in dropouts:
            lo, hi = start, start + length
            fade = np.clip(np.minimum(arc - lo, hi - arc) / 2.0, 0.0, 1.0)
            visible = np.minimum(visible, 1.0 - fade)
        mult = 1.0 - (1.0 - mult) * visible
    vol.data[vox] = (vol.data[vox] * mult).astype(np.float32)

    if rim is not None:
        peak = radius + rim.rim_radius
        bump = np.clip(1.0 - np.abs(dist - peak) / rim.rim_radius, 0.0, 1.0)
        vol.data[vox] = vol.data[vox] + (rim.rim_gain * bump).astype(np.float32)


def _draw_noise(spec: PhantomSpec, noise: np.ndarray):
    """Fill ``noise`` (float32, ``spec.dims``) with N(0, noise_sigma) from
    PCG64(rng_seed) in C order: the bytes of one ``dims`` draw cast to
    float32, drawn a slab at a time so that no float64 field is held whole.
    A value past float32's range raises FloatingPointError, on any thread."""
    rng = np.random.Generator(np.random.PCG64(spec.rng_seed))
    with np.errstate(over="raise"):       # errstate is per thread
        for i in range(0, spec.dims[0], _NOISE_SLAB):
            slab = noise[i:i + _NOISE_SLAB]
            slab[...] = rng.normal(0.0, spec.noise_sigma, size=slab.shape)


@np.errstate(over="raise")
def generate_phantom(spec: PhantomSpec,
                     model: SpringModelParams) -> tuple[Volume3D, list, SeedSet]:
    """Build (volume, gold centerlines, seeds) from a phantom spec; a voxel
    past float32's range raises FloatingPointError, and a tip that segment
    would refuse (outside the volume, or not distal of the base plane)
    ValueError.

    Once the spec has passed every check, the noise is drawn on a thread of
    the worker pool while this thread stamps the tubes; the volume has the
    same bytes for any number of threads.
    """
    dims = spec.dims
    try:
        data = np.full(dims, spec.background_intensity, dtype=np.float32)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"spec dims {dims} cannot be allocated: {exc}") from None
    spacing = np.array(spec.spacing)
    origin = np.zeros(3)
    extent = (np.asarray(dims) - 1) * spacing

    plane_point = np.array([extent[0] / 2.0, extent[1] / 2.0, spec.plane_offset])
    plane = BasePlane(point=plane_point, normal=np.array([0.0, 0.0, 1.0]))
    in_plane = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))

    # checks dims and spacing; stamped and noised in place before it is returned
    vol = Volume3D(dims=dims, spacing=spacing, origin=origin,
                   axis_directions=np.eye(3), data=data)
    edge = float(np.max(spacing))

    polylines = [_centerline_world(cath, model, plane, in_plane)
                 for cath in spec.catheters]

    dense = [resample_polyline(poly, 0.5) for poly in polylines]
    for i, tree in enumerate(cKDTree(d) for d in dense):
        for j in range(i):
            di = tree.query(dense[j], k=1)[0].min()
            if di < 2.0 * spec.tube_radius:
                _warnings.warn(
                    f"catheters {j} and {i} pass within {di:.2f} mm of each other",
                    stacklevel=2)

    for d in spec.distractors:
        if d.kind not in ("tube", "blob"):
            raise ValueError(f"unknown distractor kind {d.kind!r}")

    gold = []
    tips = []
    for cath, poly in zip(spec.catheters, polylines):
        pts = poly[::-1].copy()          # distal tip first
        gold.append(Trajectory(points=pts, bezier_control=None, provenance=[],
                               estimates={"f0": cath.f0}))
        tips.append(pts[0].copy())
    seeds = SeedSet(tips=tips, plane=plane)
    seeds.validate(vol)

    noise = drawing = None
    if spec.noise_sigma > 0:
        # allocated on this thread: made on the pool thread, whose malloc
        # arena kept freed pages, it left 15-27 MB more resident at peak
        noise = np.empty(dims, dtype=np.float32)
        pool = _worker_pool()
        drawing = pool.submit(_draw_noise, spec, noise) if pool else None

    for d in spec.distractors:
        # a blob is a zero-length tube
        _stamp_tube(vol, np.array([d.p0, d.p1 if d.kind == "tube" else d.p0]),
                    d.radius, edge)

    rim = spec.bloom if spec.bloom.enabled else None
    for cath, poly in zip(spec.catheters, polylines):
        floor = min(max(cath.core_intensity / spec.background_intensity, 0.0), 1.0)
        _stamp_tube(vol, poly, spec.tube_radius, edge, floor, cath.dropouts, rim)

    if noise is not None:
        if drawing is None:
            _draw_noise(spec, noise)
        else:
            drawing.result()             # raises what the draw raised
        vol.data += noise
    return vol, gold, seeds


def force_for_deflection(model: SpringModelParams, depth: float,
                         d_target: float) -> float:
    """Tip force whose catheter deflects ``d_target`` mm at ``depth`` mm."""
    if d_target <= 0:
        return 0.0
    f0, met = solve_at_depth(model, depth, lambda cut: cut[-1, 1] < d_target)
    if not met:
        raise ValueError(f"deflection {d_target} mm unreachable at depth {depth} mm")
    return f0


@dataclass
class BenchmarkCase:
    volume_id: int
    volume: Volume3D
    gold: list
    seeds: SeedSet
    spec: PhantomSpec


@dataclass
class BenchmarkBundle:
    seed: int
    model: SpringModelParams
    cases: list

    @property
    def n_catheters(self) -> int:
        return sum(len(c.seeds.tips) for c in self.cases)


def standard_benchmark(seed: int,
                       model: SpringModelParams | None = None) -> BenchmarkBundle:
    """Fixed-derivation benchmark: 10 volumes x 10 catheters.

    Deflections span straight to strongly bent, insertion depths vary around
    the clinical average, noise cycles through three levels, and bloom rims
    plus distractor tubes/blobs appear on a subset of the volumes.
    Everything derives deterministically from ``seed``.
    """
    if model is None:
        model = SpringModelParams()
    rng = np.random.Generator(np.random.PCG64(seed))
    extent = (np.asarray(BENCH_DIMS) - 1) * np.asarray(BENCH_SPACING)
    cx, cy = extent[0] / 2.0, extent[1] / 2.0

    cases = []
    for v in range(BENCH_N_VOLUMES):
        noise = BENCH_NOISE_LEVELS[v % len(BENCH_NOISE_LEVELS)]
        bloom = BloomSpec(enabled=(v % 2 == 1), rim_radius=1.0, rim_gain=60.0)
        with_distractors = v >= 4

        catheters = []
        grid = [(ui, vi) for ui in (-18.0, -9.0, 0.0, 9.0, 18.0) for vi in (-7.0, 7.0)]
        order = rng.permutation(len(grid))
        n_cath = BENCH_CATHETERS_PER_VOLUME
        # deflection targets sweep the range within every volume
        targets = np.linspace(0.0, BENCH_MAX_DEFLECTION, n_cath)
        targets = rng.permutation(targets)
        for c in range(n_cath):
            eu, ev = grid[order[c]]
            eu += float(rng.uniform(-1.5, 1.5))
            ev += float(rng.uniform(-1.5, 1.5))
            depth = float(rng.uniform(*BENCH_INSERTION_RANGE))
            f0 = force_for_deflection(model, depth, float(targets[c]))
            core = float(rng.uniform(0.0, BENCH_MAX_CORE)) if rng.random() < 0.5 else 0.0
            dropouts = []
            if rng.random() < BENCH_DROPOUT_FRACTION:
                # fading void windows on the base side only: the tip is
                # clinician-identified (visible by assumption) and the
                # initialization cone relies on the mid-catheter zone
                for _ in range(int(rng.integers(1, 3))):
                    length = float(rng.uniform(6.0, 14.0))
                    hi = depth / 2.0 - 8.0 - length
                    if hi > 8.0:
                        dropouts.append((float(rng.uniform(8.0, hi)), length))
            catheters.append(CatheterSpec(
                f0=f0, insertion_depth=depth,
                deflection_azimuth=float(rng.uniform(0.0, 2.0 * math.pi)),
                entry_point=(eu, ev), core_intensity=core, dropouts=dropouts))

        distractors = []
        if with_distractors:
            # unseeded near-parallel tubes mimic neighbor catheters: the
            # classic wrong-track target for an unconstrained search
            for _ in range(BENCH_N_PARALLEL_TUBES):
                cath = catheters[int(rng.integers(0, n_cath))]
                ang = float(rng.uniform(0.0, 2.0 * math.pi))
                off = float(rng.uniform(4.5, 8.0))
                base = np.array([cx + cath.entry_point[0] + off * math.cos(ang),
                                 cy + cath.entry_point[1] + off * math.sin(ang),
                                 2.0])
                tilt = float(rng.uniform(0.0, 0.12))
                taz = float(rng.uniform(0.0, 2.0 * math.pi))
                u = np.array([math.sin(tilt) * math.cos(taz),
                              math.sin(tilt) * math.sin(taz), math.cos(tilt)])
                distractors.append(DistractorSpec(
                    kind="tube", p0=tuple(base),
                    p1=tuple(base + (extent[2] - 6.0) * u), radius=0.8))
            for _ in range(BENCH_N_OBLIQUE_TUBES):
                p0 = np.array([rng.uniform(cx - 30, cx + 30),
                               rng.uniform(cy - 30, cy + 30),
                               rng.uniform(15.0, extent[2] - 15.0)])
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                distractors.append(DistractorSpec(
                    kind="tube", p0=tuple(p0 - 55.0 * u), p1=tuple(p0 + 55.0 * u),
                    radius=0.8))
            for _ in range(BENCH_N_DISTRACTOR_BLOBS):
                center = np.array([rng.uniform(cx - 25, cx + 25),
                                   rng.uniform(cy - 25, cy + 25),
                                   rng.uniform(15.0, extent[2] - 15.0)])
                distractors.append(DistractorSpec(
                    kind="blob", p0=tuple(center),
                    radius=float(rng.uniform(1.5, 3.5))))

        spec = PhantomSpec(dims=BENCH_DIMS, spacing=BENCH_SPACING,
                           catheters=catheters, noise_sigma=noise, bloom=bloom,
                           distractors=distractors,
                           rng_seed=int(rng.integers(2**62)))
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")  # crossing catheters are intended here
            volume, gold, seeds = generate_phantom(spec, model)
        cases.append(BenchmarkCase(volume_id=v, volume=volume, gold=gold,
                                   seeds=seeds, spec=spec))
    return BenchmarkBundle(seed=seed, model=model, cases=cases)
