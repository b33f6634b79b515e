import csv
import json
import math

import numpy as np
import pytest

from cathseg import cli, engine
from cathseg.engine import load_trajectory
from cathseg.phantom import CatheterSpec, DistractorSpec, PhantomSpec, \
    save_phantom_spec
from cathseg.spring import SpringModelParams, build_model_table, lookup, \
    simulate_forward
from cathseg.volume import load_volume, sample_trilinear


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


@pytest.mark.parametrize("doc", [{"bogus": 1}, {"n_c": "8"}],
                         ids=["unknown_key", "string_bool"])
def test_simulate_config_error_exit_code(tmp_path, capsys, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == cli.EXIT_FORMAT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (out / "model_table.csv").exists()


def test_phantom_outputs_and_determinism(tmp_path, phantom_dir):
    vol = load_volume(phantom_dir / "volume.nrrd")
    seeds = json.loads((phantom_dir / "seeds.json").read_text())
    assert len(seeds["tips"]) == 2
    gold_files = sorted(phantom_dir.glob("gold_*.json"))
    assert len(gold_files) == 2

    # darkest-line probe: gold centerlines run through dark voxels
    for gf in gold_files:
        gold = load_trajectory(gf)
        vals = sample_trilinear(vol, gold.points[1:-1])
        assert np.median(vals) < 25.0

    # regenerating from the same spec is bit-identical
    out2 = tmp_path / "again"
    spec_path = phantom_dir.parent / "spec.json"
    rc = cli.main(["phantom", "--spec", str(spec_path), "--out-dir", str(out2)])
    assert rc == 0
    assert (out2 / "volume.nrrd").read_bytes() == (phantom_dir / "volume.nrrd").read_bytes()


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
], ids=["insertion_beyond_length", "unknown_distractor_kind", "empty_dims",
        "zero_spacing", "zero_insertion_depth", "negative_insertion_depth"])
def test_phantom_invalid_spec_exit_code(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
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
    assert set(doc["estimates"]) == {"a", "d", "alpha0_sum", "f0_est"}


def test_segment_parallel_jobs_match_serial(tmp_path, phantom_dir):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert _run_segment(phantom_dir, serial, ["--dtol", "1"]) == 0
    assert _run_segment(phantom_dir, parallel, ["--dtol", "1", "--jobs", "2"]) == 0
    for i in range(2):
        a = (serial / f"trajectory_{i:02d}.json").read_text()
        b = (parallel / f"trajectory_{i:02d}.json").read_text()
        assert a == b


def test_segment_parallel_manifest_times_are_measured(tmp_path, phantom_dir):
    out = tmp_path / "parallel_times"
    assert _run_segment(phantom_dir, out, ["--dtol", "1", "--jobs", "2"]) == 0
    wall = json.loads((out / "manifest.json").read_text())["wall_clock_s"]
    assert sorted(wall) == ["catheter_00", "catheter_01"]
    assert all(t > 0 for t in wall.values())
    assert len(set(wall.values())) > 1


@pytest.mark.parametrize("dtol", ["-1", "nan"])
def test_segment_invalid_dtol_exit_code(tmp_path, phantom_dir, dtol):
    out = tmp_path / "bad_dtol"
    assert _run_segment(phantom_dir, out, ["--dtol", dtol]) == cli.EXIT_FORMAT
    assert not list(out.glob("trajectory_*.json"))


def test_segment_missing_volume_exit_code(tmp_path, phantom_dir):
    rc = cli.main(["segment", "--volume", str(tmp_path / "nope.nrrd"),
                   "--seeds", str(phantom_dir / "seeds.json"),
                   "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_FORMAT


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(tips=5),
    lambda doc: doc.update(plane=[0.0, 0.0, 1.0]),
], ids=["tips_not_a_list", "plane_not_an_object"])
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
    lambda d, ph: ["simulate", "--config", str(d)],
    lambda d, ph: ["segment", "--volume", str(d),
                   "--seeds", str(ph / "seeds.json")],
], ids=["phantom_missing_spec", "phantom_spec_is_dir", "simulate_config_is_dir",
        "segment_volume_is_dir"])
def test_unreadable_input_path_exit_code(tmp_path, capsys, phantom_dir, argv):
    rc = cli.main(argv(tmp_path, phantom_dir) + ["--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_FORMAT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


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
], ids=["truncated_json", "one_point", "not_an_object"])
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
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (out / "scores.csv").exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--gold", "g", "--pred", "p", "--out-dir", "o",
     "--resample-step", step] for step in ("0", "nan", "-1", "inf")
] + [["simulate", "--out-dir", "o", "--n-curves", "-1"]] + [
    ["segment", "--volume", "v", "--seeds", "s", "--out-dir", "o",
     "--jobs", jobs] for jobs in ("0", "-3")],
    ids=["resample_step_0", "resample_step_nan", "resample_step_-1",
         "resample_step_inf", "n_curves_-1", "jobs_0", "jobs_-3"])
def test_out_of_range_flags_exit_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert not (tmp_path / "o").exists()


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


def test_config_float_fields_take_numbers_inf_and_optional_null():
    cfg = cli.config_from_dict({"d_tol": "inf", "r_cone": 15})
    assert math.isinf(cfg.d_tol) and cfg.r_cone == 15.0
    assert type(cfg.r_cone) is float
    for key, bad in [("d_tol", None), ("d_tol", "1.5"), ("d_tol", False),
                     ("ring_radius", True)]:
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
