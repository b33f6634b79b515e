import copy
import csv
import json
import math
import runpy
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cathseg import cli, engine
from cathseg.engine import load_trajectory
from cathseg.phantom import CatheterSpec, DistractorSpec, PhantomSpec, \
    generate_phantom, load_phantom_spec, save_phantom_spec
from cathseg.spring import SpringModelParams, build_model_table, \
    find_max_force, lookup, simulate_forward
from cathseg.volume import load_volume, sample_voxel, save_volume


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    """CLI-generated phantom shared by the segment/evaluate tests."""
    root = tmp_path_factory.mktemp("cli_phantom")
    spec = PhantomSpec(dims=(128, 128, 72), spacing=(0.5, 0.5, 1.0),
                       catheters=[
                           CatheterSpec(f0=45.0, insertion_depth=55.0,
                                        deflection_azimuth=0.4,
                                        entry_point=(-6.0, 0.0)),
                           CatheterSpec(f0=15.0, insertion_depth=50.0,
                                        deflection_azimuth=2.2,
                                        entry_point=(6.0, 0.0))],
                       rng_seed=5)
    spec_path = root / "spec.json"
    save_phantom_spec(spec, spec_path)
    out = root / "out"
    rc = cli.main(["phantom", "--spec", str(spec_path), "--out-dir", str(out)])
    assert rc == 0
    return out


def test_simulate_writes_table_and_curves(tmp_path):
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--out-dir", str(out), "--n-curves", "5"])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "model_table.csv")))
    assert len(rows) == 100 * 100

    # zero-force curve lies on the a-axis
    curves = json.loads((out / "model_curves.json").read_text())
    flat = curves["curves"][0]
    assert flat["f0"] == 0.0
    assert all(abs(p[1]) < 1e-12 for p in flat["support_points"])

    # exported values reproduce an independently rebuilt table
    model = SpringModelParams()
    table = build_model_table(model)
    for row in rows[::1717]:
        got = lookup(table, float(row["a_mm"]), float(row["d_mm"]))
        assert got.f_est == pytest.approx(float(row["force_uN"]), abs=1e-9)

    # curve support points match a forward re-run
    bent = curves["curves"][-1]
    state = simulate_forward(model, bent["f0"])
    assert np.allclose(np.asarray(bent["support_points"]), state.positions,
                       atol=1e-12)
    assert (out / "manifest.json").exists()


config_errors = pytest.mark.parametrize("doc", [
    {"bogus": 1}, {"n_c": "8"}, {"n_rays": 0}, {"r_cone": "inf"},
    {"r_cone": math.nan}, {"k_a": "inf"}, {"ring_radius": math.nan},
    {"total_length": "inf"}, {"k_a": 1e-20}, {"k_a": 1e308}, {"k_a": 10**400},
    {"n_c": 1e20}, {"n_rays": 1e20}, {"n_ring_samples": 1e20}, {"n_seg": 1e8}],
    ids=["unknown_key", "string_bool", "n_rays_0", "r_cone_inf", "r_cone_nan",
         "k_a_inf", "ring_radius_nan", "total_length_inf", "k_a_unloadable",
         "k_a_too_stiff", "k_a_400_digits", "n_c_1e20", "n_rays_1e20",
         "n_ring_samples_1e20", "n_seg_1e8"])


@config_errors
def test_simulate_config_error_exit_code(tmp_path, capsys, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == cli.EXIT_FORMAT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (out / "model_table.csv").exists()


@config_errors
def test_phantom_config_error_exit_code(tmp_path, capsys, doc):
    spec = tmp_path / "spec.json"
    save_phantom_spec(PhantomSpec(dims=(40, 40, 40), catheters=[CatheterSpec(
        f0=40.0, insertion_depth=30.0, deflection_azimuth=0.0,
        entry_point=(0.0, 0.0))]), spec)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "ph"
    rc = cli.main(["phantom", "--spec", str(spec), "--config", str(cfg),
                   "--out-dir", str(out)])
    assert rc == cli.EXIT_FORMAT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (out / "volume.nrrd").exists()


@config_errors
def test_segment_config_error_exit_code(tmp_path, capsys, phantom_dir, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "seg"
    rc = _run_segment(phantom_dir, out, ["--config", str(cfg)])
    assert rc == cli.EXIT_FORMAT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not list(out.glob("trajectory_*.json"))


def test_phantom_outputs_and_determinism(tmp_path, phantom_dir):
    vol = load_volume(phantom_dir / "volume.nrrd")
    seeds = json.loads((phantom_dir / "seeds.json").read_text())
    assert len(seeds["tips"]) == 2
    gold_files = sorted(phantom_dir.glob("gold_*.json"))
    assert len(gold_files) == 2

    # darkest-line probe: gold centerlines run through dark voxels
    for gf in gold_files:
        gold = load_trajectory(gf)
        vals = sample_voxel(vol, vol.world_to_voxel(gold.points[1:-1]))
        assert np.median(vals) < 25.0

    # regenerating from the same spec is bit-identical
    out2 = tmp_path / "again"
    spec_path = phantom_dir.parent / "spec.json"
    rc = cli.main(["phantom", "--spec", str(spec_path), "--out-dir", str(out2)])
    assert rc == 0
    assert (out2 / "volume.nrrd").read_bytes() == (phantom_dir / "volume.nrrd").read_bytes()
    manifest = json.loads((phantom_dir / "manifest.json").read_text())
    assert manifest["config"] == cli.config_to_dict(engine.SegmentationConfig())


def test_phantom_reads_model_from_config(tmp_path, phantom_dir):
    doc = {"k_a": 1500, "n_seg": 24}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "stiff"
    spec_path = phantom_dir.parent / "spec.json"
    rc = cli.main(["phantom", "--spec", str(spec_path), "--config", str(cfg),
                   "--out-dir", str(out)])
    assert rc == 0
    config = cli.config_from_dict(doc)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == cli.config_to_dict(config)
    _, gold, _ = generate_phantom(load_phantom_spec(spec_path), config.model)
    for i, g in enumerate(gold):
        assert np.array_equal(load_trajectory(out / f"gold_{i:02d}.json").points,
                              g.points)
    # the stiffer model bends the catheters less than the default one
    assert not np.array_equal(load_trajectory(out / "gold_00.json").points,
                              load_trajectory(phantom_dir / "gold_00.json").points)


def test_phantom_bad_spec_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"catheters\": 7}")
    rc = cli.main(["phantom", "--spec", str(bad), "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_FORMAT


@pytest.mark.parametrize("spec", [
    PhantomSpec(dims=(32, 32, 32), catheters=[CatheterSpec(
        f0=0.0, insertion_depth=500.0, deflection_azimuth=0.0,
        entry_point=(0.0, 0.0))]),
    PhantomSpec(dims=(32, 32, 32), distractors=[DistractorSpec(kind="spiral")]),
    PhantomSpec(dims=(0, 32, 32), distractors=[DistractorSpec(kind="blob")]),
    PhantomSpec(dims=(32, 32, 32), spacing=(0.5, 0.0, 1.0),
                distractors=[DistractorSpec(kind="blob")]),
    PhantomSpec(dims=(32, 32, 32), catheters=[CatheterSpec(
        f0=0.0, insertion_depth=0.0, deflection_azimuth=0.0,
        entry_point=(0.0, 0.0))]),
    PhantomSpec(dims=(32, 32, 32), catheters=[CatheterSpec(
        f0=0.0, insertion_depth=-5.0, deflection_azimuth=0.0,
        entry_point=(0.0, 0.0))]),
    # bent this far, the catheter ends 94.9 mm from the plane
    PhantomSpec(dims=(32, 32, 32), catheters=[CatheterSpec(
        f0=0.5 * find_max_force(SpringModelParams()), insertion_depth=180.0,
        deflection_azimuth=0.0, entry_point=(0.0, 0.0))]),
    # the forward scheme bends this catheter past pi/2
    PhantomSpec(dims=(32, 32, 32), catheters=[CatheterSpec(
        f0=10.0 * find_max_force(SpringModelParams()), insertion_depth=50.0,
        deflection_azimuth=0.0, entry_point=(0.0, 0.0))]),
    # JSON text: DistractorSpec refuses to build these
    '{"dims": [40, 40, 40], "distractors": [{"kind": "tube", '
    '"p0": [5, 5, 5], "p1": [20, 20, Infinity]}]}',
    '{"dims": [40, 40, 40], "distractors": [{"kind": "blob", '
    '"p0": [20, NaN, 20]}]}',
    '{"dims": [40, 40, 40], "distractors": [{"kind": "blob", '
    '"p0": [20, 20, 20], "radius": 0}]}',
    # JSON text: a tube whose resampling would ask for terabytes
    '{"dims": [40, 40, 40], "distractors": [{"kind": "tube", '
    '"p0": [0, 0, 5], "p1": [1e12, 0, 5]}]}',
    # JSON text: PhantomSpec refuses to build these
    '{"dims": [40, 40, 40], "tube_radius": -1}',
    '{"dims": [40, 40, 40], "background_intensity": NaN}',
    '{"dims": [40, 40, 40], "noise_sigma": NaN}',
    '{"dims": [40, 40, 40], "background_intensity": 0}',
    '{"dims": [40, 40, 40], "background_intensity": -100}',
    # JSON text: CatheterSpec and BloomSpec refuse to build these
    '{"dims": [40, 40, 40], "catheters": [{"f0": 0, "insertion_depth": 20, '
    '"deflection_azimuth": 0, "entry_point": [0]}]}',
    '{"dims": [40, 40, 40], "catheters": [{"f0": 0, "insertion_depth": 20, '
    '"deflection_azimuth": 0, "entry_point": [0, NaN]}]}',
    '{"dims": [40, 40, 40], "catheters": [{"f0": 0, "insertion_depth": 20, '
    '"deflection_azimuth": 0, "entry_point": [0, 0], "core_intensity": NaN}]}',
    '{"dims": [40, 40, 40], "catheters": [{"f0": 0, "insertion_depth": 20, '
    '"deflection_azimuth": 0, "entry_point": [0, 0], "core_intensity": Infinity}]}',
    '{"dims": [40, 40, 40], "catheters": [{"f0": 0, "insertion_depth": 20, '
    '"deflection_azimuth": 0, "entry_point": [0, 0], "dropouts": [[NaN, 5]]}]}',
    '{"dims": [40, 40, 40], "catheters": [{"f0": 0, "insertion_depth": 20, '
    '"deflection_azimuth": 0, "entry_point": [0, 0], "dropouts": [[5, -1]]}]}',
    '{"dims": [40, 40, 40], "catheters": [{"f0": 0, "insertion_depth": 20, '
    '"deflection_azimuth": 0, "entry_point": [0, 0], "dropouts": [[5, 2, 1]]}]}',
    '{"dims": [40, 40, 40], "bloom": {"enabled": true, "rim_radius": 0}}',
    '{"dims": [40, 40, 40], "bloom": {"enabled": true, "rim_radius": Infinity}}',
    '{"dims": [40, 40, 40], "bloom": {"enabled": true, "rim_gain": NaN}}',
    '{"dims": [40, 40, 40], "bloom": {"enabled": true, "rim_gain": -60}}',
    # JSON text: no JSON object, or dims and spacing that are not three numbers
    '[]',
    '{"dims": [32.5, 32, 32]}',
    '{"dims": [40, 40]}',
    '{"dims": [40, 40, true]}',
    '{"dims": [40, 40, 40], "spacing": [0.5, 0.5]}',
    '{"dims": [40, 40, 40], "spacing": [0.5, NaN, 1.0]}',
    # JSON text: voxel intensities past float32's range
    '{"dims": [40, 40, 40], "background_intensity": 1e300}',
    '{"dims": [40, 40, 40], "noise_sigma": 1e39}',
    '{"dims": [40, 40, 40], "bloom": {"enabled": true, "rim_gain": 1e39}, '
    '"catheters": [{"f0": 20, "insertion_depth": 20, "deflection_azimuth": 0, '
    '"entry_point": [0, 0]}]}',
    # JSON text: a seed or a rim switch of the wrong type, with no noise to draw
    '{"dims": [40, 40, 40], "rng_seed": -3}',
    '{"dims": [40, 40, 40], "rng_seed": "x"}',
    '{"dims": [40, 40, 40], "rng_seed": 1.5}',
    '{"dims": [40, 40, 40], "rng_seed": true}',
    '{"dims": [40, 40, 40], "bloom": {"enabled": "no"}}',
    # JSON text: a tip outside the volume, which segment would refuse
    '{"dims": [16, 16, 16], "catheters": [{"f0": 20, "insertion_depth": 10, '
    '"deflection_azimuth": 0, "entry_point": [500, 0]}]}',
], ids=["insertion_beyond_length", "unknown_distractor_kind", "empty_dims",
        "zero_spacing", "zero_insertion_depth", "negative_insertion_depth",
        "depth_never_reached", "over_deflected", "distractor_end_infinite",
        "distractor_center_nan", "distractor_radius_zero", "distractor_tube_1e12_long",
        "tube_radius_negative",
        "background_intensity_nan", "noise_sigma_nan", "background_intensity_zero",
        "background_intensity_negative", "entry_point_one_number", "entry_point_nan",
        "core_intensity_nan", "core_intensity_infinite", "dropout_start_nan",
        "dropout_length_negative", "dropout_three_numbers",
        "rim_radius_zero", "rim_radius_infinite", "rim_gain_nan", "rim_gain_negative",
        "spec_not_object", "dims_fractional", "dims_two", "dims_bool", "spacing_two",
        "spacing_nan",
        "background_intensity_overflow", "noise_sigma_overflow", "rim_gain_overflow",
        "rng_seed_negative", "rng_seed_string", "rng_seed_fractional", "rng_seed_bool",
        "bloom_enabled_string", "tip_outside_volume"])
def test_phantom_invalid_spec_exit_code(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    if isinstance(spec, str):
        path.write_text(spec)
    else:
        save_phantom_spec(spec, path)
    out = tmp_path / "o"
    rc = cli.main(["phantom", "--spec", str(path), "--out-dir", str(out)])
    assert rc == cli.EXIT_FORMAT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (out / "volume.nrrd").exists()


def _run_segment(phantom_dir, out, extra):
    return cli.main(["segment", "--volume", str(phantom_dir / "volume.nrrd"),
                     "--seeds", str(phantom_dir / "seeds.json"),
                     "--out-dir", str(out)] + extra)


def test_segment_dtol_flag_maps_to_modes(tmp_path, phantom_dir):
    for flag, expected_tags in [("0", {"model", "image"}), ("inf", {"image"})]:
        out = tmp_path / f"seg_{flag}"
        rc = _run_segment(phantom_dir, out, ["--dtol", flag])
        assert rc == 0
        trajs = sorted(out.glob("trajectory_*.json"))
        assert len(trajs) == 2
        tags = set()
        for tf in trajs:
            tags |= set(load_trajectory(tf).provenance)
        assert tags <= expected_tags
        if flag == "0":
            assert "model" in tags

    manifest = json.loads((tmp_path / "seg_0" / "manifest.json").read_text())
    assert manifest["command"] == "segment"
    assert manifest["config"]["d_tol"] == 0.0
    assert "catheter_00" in manifest["wall_clock_s"]
    assert manifest["wall_clock_s"]["catheter_00"] > 0


def test_segment_output_schema(tmp_path, phantom_dir):
    out = tmp_path / "seg_schema"
    rc = _run_segment(phantom_dir, out, ["--dtol", "1"])
    assert rc == 0
    doc = json.loads((out / "trajectory_00.json").read_text())
    assert set(doc) == {"points", "bezier", "provenance", "estimates", "warnings"}
    assert all(len(p) == 3 for p in doc["points"])
    assert all(len(p) == 3 for p in doc["bezier"])
    assert len(doc["provenance"]) == len(doc["points"])
    assert set(doc["provenance"]) <= {"image", "model", "compromise"}
    assert set(doc["estimates"]) == {"a", "alpha0_sum", "f0_est"}


def test_segment_parallel_manifest_times_are_measured(tmp_path, phantom_dir):
    out = tmp_path / "parallel_times"
    assert _run_segment(phantom_dir, out, ["--dtol", "1"]) == 0
    wall = json.loads((out / "manifest.json").read_text())["wall_clock_s"]
    assert sorted(wall) == ["catheter_00", "catheter_01"]
    assert all(t > 0 for t in wall.values())
    assert len(set(wall.values())) > 1


@pytest.mark.parametrize("dtol", ["-1", "nan"])
def test_segment_invalid_dtol_exit_code(tmp_path, phantom_dir, dtol):
    out = tmp_path / "bad_dtol"
    assert _run_segment(phantom_dir, out, ["--dtol", dtol]) == cli.EXIT_FORMAT
    assert not list(out.glob("trajectory_*.json"))


def test_segment_unloadable_spring_exit_code(tmp_path, capsys, phantom_dir):
    """A spring that every force over-bends has no model table: one input
    error for the run, not one failure per catheter."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"k_a": 1e-20}))
    out = tmp_path / "soft"
    rc = _run_segment(phantom_dir, out, ["--config", str(cfg)])
    assert rc == cli.EXIT_FORMAT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not list(out.glob("trajectory_*.json"))


def test_segment_too_stiff_spring_exit_code(tmp_path, capsys, phantom_dir):
    """A spring whose force limit lies past the force search's 2**200 uN
    ceiling is rejected up front, not in one failure per bent catheter."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"k_a": 1e308}))
    out = tmp_path / "stiff"
    rc = _run_segment(phantom_dir, out, ["--config", str(cfg)])
    assert rc == cli.EXIT_FORMAT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "too stiff" in err[0]
    assert not list(out.glob("trajectory_*.json"))


def test_segment_missing_volume_exit_code(tmp_path, phantom_dir):
    rc = cli.main(["segment", "--volume", str(tmp_path / "nope.nrrd"),
                   "--seeds", str(phantom_dir / "seeds.json"),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_FORMAT


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(tips=5),
    lambda doc: doc.update(plane=[0.0, 0.0, 1.0]),
    lambda doc: doc["plane"].update(normal=[math.nan, 0.0, 1.0]),
    lambda doc: doc["plane"].update(point=[math.nan, 0.0, 4.0]),
    lambda doc: doc.update(tips=[[doc["tips"][0]]]),
    lambda doc: doc["tips"][0].__setitem__(0, 10**400),
], ids=["tips_not_a_list", "plane_not_an_object", "plane_normal_nan",
        "plane_point_nan", "tip_shape_1x3", "tip_400_digits"])
def test_segment_malformed_seeds_exit_code(tmp_path, capsys, phantom_dir, edit):
    doc = json.loads((phantom_dir / "seeds.json").read_text())
    edit(doc)
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(doc))
    rc = cli.main(["segment", "--volume", str(phantom_dir / "volume.nrrd"),
                   "--seeds", str(seeds), "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_FORMAT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    lambda d, ph: ["phantom", "--spec", str(d / "missing.json")],
    lambda d, ph: ["phantom", "--spec", str(d)],
    lambda d, ph: ["phantom", "--spec", str(ph.parent / "spec.json"),
                   "--config", str(d / "missing.json")],
    lambda d, ph: ["simulate", "--config", str(d)],
    lambda d, ph: ["segment", "--volume", str(d),
                   "--seeds", str(ph / "seeds.json")],
], ids=["phantom_missing_spec", "phantom_spec_is_dir", "phantom_missing_config",
        "simulate_config_is_dir", "segment_volume_is_dir"])
def test_unreadable_input_path_exit_code(tmp_path, capsys, phantom_dir, argv):
    rc = cli.main(argv(tmp_path, phantom_dir) + ["--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_FORMAT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_segment_non_finite_voxel_exit_code(tmp_path, capsys, phantom_dir, bad):
    vol = load_volume(phantom_dir / "volume.nrrd")
    vol.data[0, 0, 0] = bad
    path = tmp_path / "volume.nrrd"
    save_volume(vol, path)
    out = tmp_path / "o"
    rc = cli.main(["segment", "--volume", str(path),
                   "--seeds", str(phantom_dir / "seeds.json"),
                   "--out-dir", str(out)])
    assert rc == cli.EXIT_FORMAT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not list(out.glob("trajectory_*.json"))


def test_segment_partial_failure_exit_code(tmp_path, phantom_dir, monkeypatch):
    calls = {"n": 0}
    real = engine.estimate_model

    def flaky(vol, tip, plane, config):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("synthetic per-catheter failure")
        return real(vol, tip, plane, config)

    monkeypatch.setattr(engine, "estimate_model", flaky)
    out = tmp_path / "partial"
    rc = _run_segment(phantom_dir, out, ["--dtol", "1"])
    assert rc == cli.EXIT_PARTIAL
    assert (out / "trajectory_00.json").exists()
    assert not (out / "trajectory_01.json").exists()


def test_segment_no_tips_writes_no_trajectory(tmp_path, phantom_dir):
    seeds = json.loads((phantom_dir / "seeds.json").read_text())
    seeds["tips"] = []
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(seeds))
    out = tmp_path / "no_tips"
    rc = cli.main(["segment", "--volume", str(phantom_dir / "volume.nrrd"),
                   "--seeds", str(path), "--out-dir", str(out)])
    assert rc == cli.EXIT_OK
    assert not list(out.glob("trajectory_*.json"))
    assert json.loads((out / "manifest.json").read_text())["wall_clock_s"] == {}


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["segment"])          # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_evaluate_identical_inputs_zero(tmp_path, phantom_dir):
    # use gold as predictions: rename gold_XX -> trajectory_XX
    pred = tmp_path / "pred"
    pred.mkdir()
    for gf in phantom_dir.glob("gold_*.json"):
        idx = gf.stem.split("_")[-1]
        (pred / f"trajectory_{idx}.json").write_text(gf.read_text())
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--gold", str(phantom_dir), "--pred", str(pred),
                   "--out-dir", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "scores.csv")))
    assert len(rows) == 2
    assert all(float(r["hd_mm"]) == 0.0 for r in rows)

    summary = json.loads((out / "summary.json").read_text())
    stats = summary["experiments"]["hybrid"]
    assert stats["count_hd_gt_3mm"] <= stats["count_hd_gt_2mm"]
    # medians recomputable from the CSV rows
    assert stats["median_mm"] == pytest.approx(
        float(np.median([float(r["hd_mm"]) for r in rows])))
    assert (out / "overlay.json").exists()


def test_evaluate_segmented_pipeline(tmp_path, phantom_dir):
    seg = tmp_path / "seg"
    assert _run_segment(phantom_dir, seg, ["--dtol", "1"]) == 0
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--gold", str(phantom_dir), "--pred", str(seg),
                   "--out-dir", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "scores.csv")))
    assert all(float(r["hd_mm"]) < 2.0 for r in rows)
    # each row pairs the trajectory's estimate with the force its gold records
    raw = json.loads((out / "summary.json").read_text())["raw"]
    assert all(r["f0_est"] > 0.0 for r in raw)
    assert [r["f0_true"] for r in raw] == [45.0, 15.0]


def test_evaluate_gold_without_force_has_no_true_force(tmp_path, phantom_dir):
    """A gold file that records no force still scores, with f0_true null."""
    gold = tmp_path / "gold"
    pred = tmp_path / "pred"
    gold.mkdir()
    pred.mkdir()
    for gf in phantom_dir.glob("gold_*.json"):
        doc = json.loads(gf.read_text())
        del doc["estimates"]
        (gold / gf.name).write_text(json.dumps(doc))
        (pred / gf.name.replace("gold", "trajectory")).write_text(gf.read_text())
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--gold", str(gold), "--pred", str(pred),
                   "--out-dir", str(out)])
    assert rc == 0
    raw = json.loads((out / "summary.json").read_text())["raw"]
    assert [(r["hd_mm"], r["f0_true"]) for r in raw] == [(0.0, None), (0.0, None)]


def test_evaluate_pairing_error(tmp_path, phantom_dir):
    pred = tmp_path / "pred_mismatch"
    pred.mkdir()
    (pred / "trajectory_07.json").write_text(
        next(phantom_dir.glob("gold_*.json")).read_text())
    rc = cli.main(["evaluate", "--gold", str(phantom_dir), "--pred", str(pred),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_FORMAT


@pytest.mark.parametrize("corrupt", [
    lambda text: text[: len(text) // 2],
    lambda text: json.dumps({"points": [[0.0, 0.0, 0.0]], "bezier": None}),
    lambda text: "[1, 2, 3]",
    lambda text: json.dumps({**json.loads(text), "estimates": {"f0_est": "x"}}),
    lambda text: json.dumps({**json.loads(text), "estimates": {"f0_est": math.nan}}),
    lambda text: json.dumps({**json.loads(text), "provenance": [1.5]}),
    lambda text: json.dumps({**json.loads(text), "provenance": ["image", "guess"]}),
    lambda text: json.dumps({**json.loads(text), "warnings": [3]}),
    lambda text: json.dumps({**json.loads(text),
                             "points": [[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]]}),
    lambda text: json.dumps({**json.loads(text),
                             "points": [[0.0, 0.0, 0.0], [math.nan, 1.0, 1.0]]}),
    lambda text: json.dumps({**json.loads(text),
                             "points": [[0.0, 0.0, math.inf], [1.0, 1.0, 1.0]]}),
    lambda text: json.dumps({**json.loads(text), "points": [[0.0, 0.0], [1.0, 1.0]]}),
    lambda text: json.dumps({**json.loads(text), "bezier": [[0.0, 0.0, 0.0]]}),
    lambda text: json.dumps({**json.loads(text),
                             "bezier": [[0.0, 0.0, 0.0], [math.nan, 0.0, 0.0]]}),
    lambda text: json.dumps({**json.loads(text), "bezier": [[0.0, 1.0, 2.0, 3.0]] * 3}),
    lambda text: "[" * 100_000 + "]" * 100_000,
    lambda text: json.dumps({**json.loads(text), "points": [[0, 0, 0], [10**400, 1, 1]]}),
    lambda text: json.dumps({**json.loads(text), "estimates": {"f0_est": 10**400}}),
    lambda text: json.dumps({**json.loads(text),
                             "bezier": [[0.0, 0.0, float(i)] for i in range(1100)]}),
    lambda text: json.dumps({**json.loads(text), "warnings": "abc"}),
    lambda text: json.dumps({**json.loads(text), "provenance": {"image": 1}}),
    lambda text: json.dumps({**json.loads(text), "estimates": [["f0_est", 1.0]]}),
    lambda text: json.dumps({"bezier": None}),
    lambda text: json.dumps({**json.loads(text), "points": [[0, 0, 0], [1e12, 0, 0]]}),
], ids=["truncated_json", "one_point", "not_an_object", "estimate_not_a_number",
        "estimate_nan", "provenance_number", "provenance_unknown_tag",
        "warning_number", "points_arc_overflows", "point_nan", "point_inf",
        "points_2d", "bezier_one_row", "bezier_nan", "bezier_4d", "nested_100k",
        "point_400_digits", "estimate_400_digits", "bezier_1100_rows",
        "warnings_string", "provenance_object", "estimates_array", "no_points",
        "points_1e12_apart"])
def test_evaluate_invalid_trajectory_exit_code(tmp_path, capsys, phantom_dir, corrupt):
    pred = tmp_path / "pred"
    pred.mkdir()
    for gf in phantom_dir.glob("gold_*.json"):
        idx = gf.stem.split("_")[-1]
        (pred / f"trajectory_{idx}.json").write_text(gf.read_text())
    bad = pred / "trajectory_00.json"
    bad.write_text(corrupt(bad.read_text()))
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--gold", str(phantom_dir), "--pred", str(pred),
                   "--out-dir", str(out)])
    assert rc == cli.EXIT_FORMAT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "for id 00" in err[0]
    assert not (out / "scores.csv").exists()


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"points": 3}'],
                         ids=["nested_100k", "points_number"])
def test_evaluate_invalid_gold_exit_code(tmp_path, capsys, phantom_dir, text):
    gold, pred = tmp_path / "gold", tmp_path / "pred"
    gold.mkdir()
    pred.mkdir()
    for gf in phantom_dir.glob("gold_*.json"):
        (gold / gf.name).write_text(gf.read_text())
        (pred / gf.name.replace("gold", "trajectory")).write_text(gf.read_text())
    (gold / "gold_01.json").write_text(text)
    rc = cli.main(["evaluate", "--gold", str(gold), "--pred", str(pred),
                   "--out-dir", str(tmp_path / "eval")])
    assert rc == cli.EXIT_FORMAT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "for id 01" in err[0]


# numbers stay within +-1e3 mm, or are one of a few extremes; 1e12 mm is past
# the resampling cap, so evaluate refuses it rather than ask for terabytes
_coordinate = st.one_of(st.integers(-1000, 1000), st.floats(-1e3, 1e3))
_json_number = st.one_of(_coordinate, st.sampled_from([math.nan, math.inf, -math.inf,
                                                       1e308, -1e308, 10**400, 1e12]))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), _json_number, st.text(max_size=6),
              st.sampled_from(["image", "model", "compromise"])),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24)
_rows = st.one_of(st.lists(st.lists(_coordinate, min_size=3, max_size=3), max_size=12),
                 st.lists(st.lists(_json_number, max_size=4), max_size=4))
_trajectory_key = st.sampled_from(["points", "bezier", "provenance", "estimates",
                                   "warnings"])


@given(doc=st.one_of(
    _json.map(json.dumps),
    st.dictionaries(_trajectory_key, _json, min_size=1, max_size=3),
    st.fixed_dictionaries({"points": _rows}, optional={"bezier": st.none() | _rows}),
    st.integers(1, 3000).map(lambda n: "[" * n + "]" * n)))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_evaluate_any_json_trajectory_exits_0_or_3(tmp_path, capsys, phantom_dir, doc):
    """Any JSON text as trajectory_00.json, or a gold copy with some keys
    replaced by any JSON value, scores (0) or is an input error (3) with
    one stderr line."""
    pred = tmp_path / "pred"
    pred.mkdir(exist_ok=True)
    gold_text = (phantom_dir / "gold_01.json").read_text()
    (pred / "trajectory_01.json").write_text(gold_text)
    if isinstance(doc, dict):
        doc = json.dumps({**json.loads((phantom_dir / "gold_00.json").read_text()),
                          **doc})
    (pred / "trajectory_00.json").write_text(doc)
    rc = cli.main(["evaluate", "--gold", str(phantom_dir), "--pred", str(pred),
                   "--out-dir", str(tmp_path / "eval")])
    assert rc in (cli.EXIT_OK, cli.EXIT_FORMAT)
    assert len(capsys.readouterr().err.strip().splitlines()) == (rc == cli.EXIT_FORMAT)


# a phantom spec that generates in well under a second, with every kind of
# numeric field: top level, catheter, dropout, bloom and distractor
_SPEC_16 = {"dims": [16, 16, 16], "spacing": [1.0, 1.0, 1.0], "noise_sigma": 2.0,
            "rng_seed": 3, "plane_offset": 2.0,
            "catheters": [{"f0": 20.0, "insertion_depth": 10.0, "deflection_azimuth": 0.5,
                           "entry_point": [0.0, 0.0], "core_intensity": 10.0,
                           "dropouts": [[2.0, 3.0]]}],
            "bloom": {"enabled": True, "rim_radius": 1.0, "rim_gain": 60.0},
            "distractors": [{"kind": "tube", "p0": [2, 2, 2], "p1": [12, 12, 12],
                             "radius": 0.8}]}
# the path of every numeric field but dims, which the property draws small: a
# replaced dims could ask for gigabytes
_SPEC_NUMBERS = [(key,) for key in ("spacing", "background_intensity", "tube_radius",
                                    "noise_sigma", "rng_seed", "plane_offset")] \
    + [("catheters", 0, key) for key in ("f0", "insertion_depth", "deflection_azimuth",
                                         "entry_point", "core_intensity", "dropouts")] \
    + [("bloom", key) for key in ("rim_radius", "rim_gain")] \
    + [("distractors", 0, key) for key in ("p0", "p1", "radius")]


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@given(dims=st.lists(st.integers(1, 16), min_size=3, max_size=3),
       path=st.sampled_from(_SPEC_NUMBERS),
       value=st.one_of(_json, st.lists(_json_number, max_size=4), _rows))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_phantom_any_json_number_field_exits_0_or_3(tmp_path, capsys, dims, path, value):
    """A valid spec of at most 16**3 voxels with one numeric field replaced by
    any JSON value generates (0) or is an input error (3) with one stderr line."""
    doc = copy.deepcopy(_SPEC_16)
    doc["dims"] = dims
    _set_path(doc, path, value)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    rc = cli.main(["phantom", "--spec", str(spec), "--out-dir", str(tmp_path / "ph")])
    assert rc in (cli.EXIT_OK, cli.EXIT_FORMAT)
    assert len(capsys.readouterr().err.strip().splitlines()) == (rc == cli.EXIT_FORMAT)


_SPEC_40 = {"dims": [40, 40, 40], "bloom": {"enabled": True},
            "catheters": [{"f0": 20, "insertion_depth": 20, "deflection_azimuth": 0,
                           "entry_point": [0, 0]}],
            "distractors": [{"kind": "blob", "p0": [10, 10, 20]}]}


def _phantom_argv(edit, tmp_path, phantom_dir):
    """A phantom run of the 40**3 spec after ``edit``."""
    doc = copy.deepcopy(_SPEC_40)
    edit(doc)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    return ["phantom", "--spec", str(spec)]


def _segment_argv(edit, tmp_path, phantom_dir):
    """A segment run of the shared phantom with its seeds after ``edit``."""
    doc = json.loads((phantom_dir / "seeds.json").read_text())
    edit(doc)
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(doc))
    return ["segment", "--volume", str(phantom_dir / "volume.nrrd"),
            "--seeds", str(seeds)]


def _config_argv(text, tmp_path, phantom_dir):
    """A segment run of the shared phantom under the config file ``text``."""
    config = tmp_path / "config.json"
    config.write_text(text)
    return _segment_argv(lambda doc: None, tmp_path, phantom_dir) \
        + ["--config", str(config)]


def _evaluate_argv(edit, tmp_path, phantom_dir):
    """An evaluate run of gold copies as trajectories, trajectory_00 after ``edit``."""
    pred = tmp_path / "pred"
    pred.mkdir()
    for gf in phantom_dir.glob("gold_*.json"):
        doc = json.loads(gf.read_text())
        if gf.name == "gold_00.json":
            edit(doc)
        (pred / gf.name.replace("gold", "trajectory")).write_text(json.dumps(doc))
    return ["evaluate", "--gold", str(phantom_dir), "--pred", str(pred)]


@pytest.mark.parametrize("argv,field", [
    (partial(_phantom_argv, lambda d: d.update(plane_offset="4")), "plane_offset"),
    (partial(_phantom_argv, lambda d: d.update(tube_radius=True)), "tube_radius"),
    (partial(_phantom_argv, lambda d: d.update(noise_sigma=True)), "noise_sigma"),
    (partial(_phantom_argv, lambda d: d["catheters"][0].update(f0=True)), "f0"),
    (partial(_phantom_argv, lambda d: d["catheters"][0].update(entry_point=["1", "0"])),
     "entry_point"),
    (partial(_phantom_argv, lambda d: d["distractors"][0].update(p0=["10", "10", "20"])),
     "p0"),
    (partial(_phantom_argv, lambda d: d["bloom"].update(rim_gain=True)), "rim_gain"),
    (partial(_segment_argv, lambda d: d.update(
        tips=[[str(x) for x in tip] for tip in d["tips"]])), "tips"),
    (partial(_segment_argv, lambda d: d["plane"].update(normal=[False, False, True])),
     "normal"),
    (partial(_evaluate_argv, lambda d: d.update(
        points=[[str(x) for x in p] for p in d["points"]])), "points"),
    (partial(_evaluate_argv, lambda d: d.update(estimates={"f0_est": "12.5"})), "f0_est"),
    (partial(_evaluate_argv, lambda d: d.update(estimates={"f0_est": True})), "f0_est"),
    (partial(_config_argv, '{"d_tol": 1e400}'), "d_tol"),
], ids=["spec_plane_offset_string", "spec_tube_radius_bool", "spec_noise_sigma_bool",
        "catheter_f0_bool", "catheter_entry_point_strings", "distractor_p0_strings",
        "bloom_rim_gain_bool", "seed_tips_strings", "seed_normal_bools",
        "trajectory_points_strings", "trajectory_f0_est_string", "trajectory_f0_est_bool",
        "config_d_tol_1e400"])
def test_non_number_field_exits_3_naming_it(tmp_path, capsys, phantom_dir, argv, field):
    """One number rule for every input file: a string, a bool or a number past
    float range is no number, and the one stderr line names the field."""
    rc = cli.main(argv(tmp_path, phantom_dir) + ["--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_FORMAT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and field in err[0]


# 2**62 bytes lie past any 57-bit address space, so the allocation fails
# whatever the host's overcommit; 2**21 per axis is past numpy's size limit
@pytest.mark.parametrize("dims", [[2**20] * 3, [2**21] * 3, [10**400, 1, 1]],
                         ids=["4_EiB", "past_numpy_limit", "400_digits"])
def test_phantom_unallocatable_dims_exit_3(tmp_path, capsys, dims):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dims": dims}))
    rc = cli.main(["phantom", "--spec", str(spec), "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_FORMAT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "dims" in err[0]


def test_phantom_integral_float_seed_and_64_bit_seed(tmp_path):
    """rng_seed takes 3.0 as 3, and the manifest keeps a 62-bit seed exactly."""
    for seed, recorded in [(3.0, 3), (2**62 - 1, 2**62 - 1)]:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"dims": [8, 8, 8], "noise_sigma": 1.0,
                                    "rng_seed": seed}))
        out = tmp_path / f"seed_{recorded}"
        assert cli.main(["phantom", "--spec", str(spec), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rng_seeds"]["rng_seed"] == recorded


@pytest.mark.parametrize("argv", [
    lambda ph: ["simulate"],
    lambda ph: ["phantom", "--spec", str(ph.parent / "spec.json")],
    lambda ph: ["segment", "--volume", str(ph / "volume.nrrd"),
                "--seeds", str(ph / "seeds.json")],
    lambda ph: ["evaluate", "--gold", str(ph), "--pred", str(ph)],
], ids=["simulate", "phantom", "segment", "evaluate"])
def test_out_dir_is_a_file_exit_code(tmp_path, capsys, phantom_dir, argv):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    rc = cli.main(argv(phantom_dir) + ["--out-dir", str(out)])
    assert rc == cli.EXIT_FORMAT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"cathseg {argv(phantom_dir)[0]}: ")
    assert str(out) in err[0]


@pytest.mark.parametrize("argv", [
    ["simulate", "--out-dir", "o", "--n-curves", "-1"],
    ["simulate", "--out-dir", "o", "--n-curves", "1000001"],
    ["simulate", "--out-dir", "o", "--n-curves", "10000000000000"]],
    ids=["n_curves_-1", "n_curves_1000001", "n_curves_10000000000000"])
def test_out_of_range_flags_exit_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value", [
    ("--k-a", "-1"), ("--k-a", "nan"), ("--n-seg", "1"), ("--total-length", "0")],
    ids=["k_a_-1", "k_a_nan", "n_seg_1", "total_length_0"])
def test_phantom_model_flags_are_unrecognized(tmp_path, monkeypatch, capsys,
                                              flag, value):
    """The catheter model comes from --config only."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["phantom", "--spec", "s", "--out-dir", "o", flag, value])
    assert exc.value.code == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("step", ["0", "nan", "-1", "inf", "0.5"])
def test_evaluate_resample_step_is_unrecognized(tmp_path, monkeypatch, capsys, step):
    """evaluate scores at the benchmark's 0.5 mm step, with no flag to change it."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate", "--gold", "g", "--pred", "p", "--out-dir", "o",
                  "--resample-step", step])
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments: --resample-step" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_segment_jobs_is_unrecognized(tmp_path, monkeypatch, capsys):
    """segment runs every catheter in one process, with no flag for workers."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["segment", "--volume", "v", "--seeds", "s", "--out-dir", "o",
                  "--jobs", "2"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,flags", [
    ("plot_model_table.py", ["--n-curves", "-1"]),
    ("plot_model_table.py", ["--n-curves", "1000001"]),
    ("run_benchmark.py", ["--seed", "-1"]),
    ("make_demo_phantom.py", ["--noise", "nan"]),
    ("make_demo_phantom.py", ["--noise", "inf"]),
    ("make_demo_phantom.py", ["--noise", "-1"])],
    ids=["plot_n_curves_-1", "plot_n_curves_1000001", "bench_seed_-1",
         "demo_noise_nan", "demo_noise_inf", "demo_noise_-1"])
def test_script_out_of_range_flags_exit_2(tmp_path, monkeypatch, script, flags):
    # the demo script writes one spec file; an --out-dir would be unknown to it
    out = (["--out", str(tmp_path / "spec.json")] if script == "make_demo_phantom.py"
           else ["--out-dir", str(tmp_path / "o")])
    monkeypatch.setattr(sys, "argv", [script] + out + flags)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == cli.EXIT_USAGE
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("script,flag,path", [
    ("run_benchmark.py", "--out-dir", "taken"),
    ("make_demo_phantom.py", "--out", "missing/spec.json"),
    ("make_demo_phantom.py", "--out", ".")],
    ids=["bench_out_dir_is_a_file", "demo_out_in_missing_dir", "demo_out_is_a_dir"])
def test_script_unwritable_output_exits_2(tmp_path, monkeypatch, capsys, script,
                                         flag, path):
    """An output path that cannot be written is a usage error, found before
    any work is done or any file is written."""
    (tmp_path / "taken").write_text("")
    monkeypatch.setattr(sys, "argv", [script, flag, str(tmp_path / path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err.strip().splitlines()[-1]
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_config_round_trip(tmp_path):
    cfg = cli.config_from_dict({"d_tol": "inf", "n_rays": 128})
    assert math.isinf(cfg.d_tol)
    doc = cli.config_to_dict(cfg)
    assert doc["d_tol"] == "inf"
    assert doc["n_rays"] == 128
    cfg2 = cli.config_from_dict(doc)
    assert cli.config_to_dict(cfg2) == doc
    with pytest.raises(ValueError):
        cli.config_from_dict({"bogus_field": 1})


def test_config_int_fields_accept_integral_numbers_only():
    cfg = cli.config_from_dict({"n_c": 8.0, "n_rays": 64, "n_seg": 12.0})
    assert (cfg.n_c, cfg.n_rays, cfg.model.n_seg) == (8, 64, 12)
    assert type(cfg.n_c) is int and type(cfg.model.n_seg) is int
    for bad in (8.7, "8", True, None, [8]):
        with pytest.raises(ValueError, match="n_c"):
            cli.config_from_dict({"n_c": bad})
    for key in ("n_c", "n_rays", "n_ring_samples", "n_seg"):   # past bezier.MAX_SAMPLES
        with pytest.raises(ValueError, match=key):
            cli.config_from_dict({key: 10**6 + 1})


def test_config_float_fields_take_numbers_inf_and_optional_null():
    cfg = cli.config_from_dict({"d_tol": "inf", "r_cone": 15})
    assert math.isinf(cfg.d_tol) and cfg.r_cone == 15.0
    assert type(cfg.r_cone) is float
    for key, bad in [("d_tol", None), ("d_tol", "1.5"), ("d_tol", False),
                     ("d_tol", math.inf), ("r_cone", "inf"), ("ring_radius", True)]:
        with pytest.raises(ValueError, match=key):
            cli.config_from_dict({key: bad})
    with pytest.raises(ValueError):
        cli.config_from_dict([["d_tol", 1.0]])


def test_config_has_nine_keys_and_removed_keys_exit_3(tmp_path, capsys,
                                                      phantom_dir):
    assert set(cli.config_to_dict(engine.SegmentationConfig())) == {
        "n_c", "d_tol", "r_cone", "ring_radius", "n_ring_samples", "n_rays",
        "k_a", "n_seg", "total_length"}
    for key, value in [("ray_step", None), ("table_f_samples", 200),
                       ("table_resolution", 100), ("eq4_literal", False)]:
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / key
        assert _run_segment(phantom_dir, out, ["--config", str(cfg)]) \
            == cli.EXIT_FORMAT
        assert key in capsys.readouterr().err
        assert not list(out.glob("trajectory_*.json"))
