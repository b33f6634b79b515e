import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import ndimage

from cathseg.volume import (BasePlane, SeedSet, TruncatedVolumeError, Volume3D,
                            VolumeFormatError, distance_to_plane, load_seeds,
                            load_volume, read_numbers, sample_voxel, save_seeds,
                            save_volume)


def make_volume(data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0),
                axes=np.eye(3)):
    data = np.asarray(data, dtype=np.float32)
    return Volume3D(dims=data.shape, spacing=spacing, origin=origin,
                    axis_directions=axes, data=data)


def test_zero_volume_round_trip(tmp_path):
    vol = make_volume(np.zeros((4, 4, 4)))
    path = tmp_path / "zeros.nrrd"
    save_volume(vol, path)
    loaded = load_volume(path)
    assert loaded.dims == (4, 4, 4)
    assert loaded.data.size == 64
    assert np.all(loaded.data == 0.0)


def test_truncated_payload_raises(tmp_path):
    header = (b"NRRD0004\ntype: float\ndimension: 3\nsizes: 10 10 10\n"
              b"encoding: raw\nendian: little\n\n")
    payload = np.zeros(999, dtype="<f4").tobytes()
    path = tmp_path / "short.nrrd"
    path.write_bytes(header + payload)
    with pytest.raises(TruncatedVolumeError):
        load_volume(path)


@pytest.mark.parametrize("field,value", [
    ("dimension", "2"),
    ("encoding", "gzip"),
    ("type", "double"),
    ("endian", "big"),
    ("space origin", "(1,2)"),
    ("space origin", "(1,2,3,4)"),
    ("space origin", "(nan,0,0)"),
    ("space origin", "(inf,0,0)"),
    ("space origin", "(a,b,c)"),
    ("space directions", "(x,0,0) (0,1,0) (0,0,1)"),
    ("space directions", "(1,0,0) (0,1) (0,0,1)"),
    ("space directions", "(1,0,0) (0,nan,0) (0,0,1)"),
])
def test_unsupported_header_fields(tmp_path, field, value):
    fields = {"type": "float", "dimension": "3", "sizes": "2 2 2",
              "encoding": "raw", "endian": "little"}
    fields[field] = value
    header = "NRRD0004\n" + "".join(f"{k}: {v}\n" for k, v in fields.items()) + "\n"
    path = tmp_path / "bad.nrrd"
    path.write_bytes(header.encode() + np.zeros(8, dtype="<f4").tobytes())
    with pytest.raises(VolumeFormatError) as exc:
        load_volume(path)
    assert exc.value.field_name == field


_HEADER_KEYS = ["type", "dimension", "sizes", "encoding", "endian",
                "space directions", "space origin", "kinds", "content"]
_VALUE_TOKENS = ["(", ")", ",", " ", "0", "1", "2", "-1", "0.5", "1e308", "1e-320",
                 "nan", "inf", "-inf", "float", "short", "uint16", "raw", "gzip",
                 "little", "big", "3", "2 2 2", "x", "=", ":", "#", "\r", "\x85"]
_vector = st.lists(st.sampled_from(["0", "1", "-1", "0.5", "1e308", "1e-320", "nan",
                                    "inf", "x", ""]), min_size=1, max_size=4)
_header_value = st.one_of(
    st.lists(_vector.map(lambda xs: "(" + ",".join(xs) + ")"), min_size=1,
             max_size=4).map(" ".join),
    st.lists(st.sampled_from(_VALUE_TOKENS), max_size=8).map("".join),
    st.text(st.characters(min_codepoint=1, max_codepoint=255,
                          blacklist_characters="\n"), max_size=20))
_header_line = st.one_of(
    st.tuples(st.sampled_from(_HEADER_KEYS), st.sampled_from([":", ":="]),
              _header_value).map(lambda t: f"{t[0]}{t[1]} {t[2]}"),
    _header_value)


@given(overrides=st.dictionaries(st.sampled_from(_HEADER_KEYS), _header_value,
                                 max_size=3),
       extra=st.lists(_header_line, max_size=4),
       payload=st.one_of(st.binary(max_size=48),
                         st.just(np.zeros(8, dtype="<f4").tobytes())))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_header_raises_only_format_errors(tmp_path, overrides, extra, payload):
    """Any header, ``key:=value`` lines included, either loads or raises one
    of the two documented volume errors."""
    fields = {"type": "float", "dimension": "3", "sizes": "2 2 2",
              "space directions": "(1,0,0) (0,1,0) (0,0,1)",
              "space origin": "(0,0,0)", "encoding": "raw", "endian": "little"}
    fields.update(overrides)
    lines = ["NRRD0004"] + [f"{k}: {v}" for k, v in fields.items()] + extra
    path = tmp_path / "fuzz.nrrd"
    path.write_bytes(("\n".join(lines) + "\n\n").encode("latin-1") + payload)
    try:
        vol = load_volume(path)
    except (VolumeFormatError, TruncatedVolumeError):
        return
    assert vol.data.shape == vol.dims and vol.data.dtype == np.float32
    assert vol.origin.shape == vol.spacing.shape == (3,)
    assert all(np.isfinite(a).all() for a in (vol.data, vol.origin, vol.spacing))


def test_key_value_pairs_are_not_fields(tmp_path):
    """A ``key:=value`` line is free-form metadata, even under a field's name."""
    header = (b"NRRD0004\ntype: float\ndimension: 3\nsizes: 2 2 2\n"
              b"space origin: (1,2,3)\nspace origin:=(5,5,5)\ntype:=double\n"
              b"encoding: raw\nendian: little\n\n")
    path = tmp_path / "key_values.nrrd"
    path.write_bytes(header + np.zeros(8, dtype="<f4").tobytes())
    assert load_volume(path).origin.tolist() == [1.0, 2.0, 3.0]


def test_data_shape_must_match_dims():
    with pytest.raises(ValueError, match="data shape"):
        Volume3D(dims=(2, 2, 2), spacing=(1, 1, 1), origin=(0, 0, 0),
                 axis_directions=np.eye(3), data=np.zeros(8))


@pytest.mark.parametrize("field,value", [
    ("spacing", [math.nan, 1.0, 1.0]), ("origin", [math.inf, 0.0, 0.0]),
    ("dims", (2.5, 2, 2)), ("axis_directions", np.eye(3)[:2])],
    ids=["spacing_nan", "origin_inf", "dims_fraction", "axis_directions_2x3"])
def test_volume_geometry_must_be_finite_numbers(field, value):
    """A NaN spacing made every point lie outside; it is refused, naming the field."""
    geometry = dict(dims=(2, 2, 2), spacing=(1, 1, 1), origin=(0, 0, 0),
                    axis_directions=np.eye(3))
    geometry[field] = value
    with pytest.raises(ValueError, match=field):
        Volume3D(**geometry, data=np.zeros((2, 2, 2)))


def test_save_load_bit_exact_payload(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.normal(100, 25, size=(7, 5, 9)).astype(np.float32)
    vol = make_volume(data, spacing=(0.5, 0.7, 1.3), origin=(-4.0, 2.5, 11.0))
    path = tmp_path / "rt.nrrd"
    save_volume(vol, path)
    loaded = load_volume(path)
    assert loaded.data.tobytes() == data.tobytes()
    assert np.allclose(loaded.spacing, vol.spacing, atol=1e-12)
    assert np.allclose(loaded.origin, vol.origin, atol=1e-12)
    assert np.allclose(loaded.axis_directions, vol.axis_directions, atol=1e-12)
    # saving the loaded volume reproduces the identical file payload
    path2 = tmp_path / "rt2.nrrd"
    save_volume(loaded, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_int16_payload_loads_as_float(tmp_path):
    data = np.arange(8, dtype="<i2")
    header = (b"NRRD0004\ntype: short\ndimension: 3\nsizes: 2 2 2\n"
              b"encoding: raw\nendian: little\n\n")
    path = tmp_path / "short_type.nrrd"
    path.write_bytes(header + data.tobytes())
    vol = load_volume(path)
    assert vol.data.dtype == np.float32
    # payload is x-fastest: data[i,j,k] = i + 2j + 4k
    assert vol.data[1, 0, 0] == 1.0
    assert vol.data[0, 1, 0] == 2.0
    assert vol.data[0, 0, 1] == 4.0


def test_sample_at_voxel_center_is_exact():
    rng = np.random.default_rng(11)
    data = rng.uniform(0, 50, size=(6, 5, 4)).astype(np.float32)
    vol = make_volume(data, spacing=(0.5, 0.8, 1.1), origin=(3.0, -2.0, 7.0))
    for idx in [(0, 0, 0), (5, 4, 3), (2, 3, 1)]:
        p = vol.voxel_to_world(idx)
        assert sample_voxel(vol, vol.world_to_voxel(p))[0] == pytest.approx(
            float(data[idx]), abs=1e-9)


def test_sample_midpoint_between_voxels():
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[1, :, :] = 10.0
    vol = make_volume(data)
    assert sample_voxel(vol, vol.world_to_voxel((0.5, 0.0, 0.0)))[0] == pytest.approx(
        5.0, abs=1e-12)


def test_sample_reproduces_linear_ramp():
    nx, ny, nz = 16, 12, 10
    spacing = (0.5, 0.5, 1.0)
    origin = (2.0, -1.0, 5.0)
    ii = np.arange(nx) * spacing[0] + origin[0]
    data = np.broadcast_to(ii[:, None, None], (nx, ny, nz))
    vol = make_volume(data, spacing=spacing, origin=origin)
    rng = np.random.default_rng(5)
    lo = vol.voxel_to_world((0, 0, 0))
    hi = vol.voxel_to_world((nx - 1, ny - 1, nz - 1))
    pts = rng.uniform(lo, hi, size=(500, 3))
    vals = sample_voxel(vol, vol.world_to_voxel(pts))
    assert np.max(np.abs(vals - pts[:, 0])) < 1e-6


def test_sample_outside_reads_nearest_edge_voxel():
    data = np.full((4, 4, 4), 7.0, dtype=np.float32)
    data[1, 1, 1] = 42.0
    vol = make_volume(data)
    assert sample_voxel(vol, vol.world_to_voxel((-5.0, 0.0, 0.0)))[0] == 7.0  # not the max


def test_sample_batch_shapes():
    vol = make_volume(np.ones((4, 4, 4)))
    out = sample_voxel(vol, vol.world_to_voxel(np.ones((3, 5, 3))))
    assert out.shape == (15,)          # one value per point, flattened
    assert np.all(out == 1.0)


def _reference_hull_and_samples(vol, u):
    """The hull mask reduced over the last axis, and ``map_coordinates`` on
    the points clipped into the hull."""
    hi = np.asarray(vol.dims, dtype=float) - 1.0
    inside = np.all((u >= -1e-9) & (u <= hi + 1e-9), axis=-1).reshape(-1)
    coords = np.clip(u.reshape(-1, 3).T, 0.0, hi[:, None])
    return inside, ndimage.map_coordinates(vol.data, coords, order=1, mode="nearest",
                                           output=np.float64)


def _hull_probe_points(dims, rng):
    """(n, 3) voxel points inside the hull, outside it, on its faces and
    corners, within +-1e-9 voxel of each face, at -0.0 and 1e-12 past a face."""
    hi = np.asarray(dims, dtype=float) - 1.0
    pts = [rng.uniform(0.0, hi, size=(64, 3)), rng.uniform(-2.0, hi + 2.0, size=(64, 3)),
           np.where(rng.random((16, 3)) < 0.5, 0.0, hi)]
    offsets = [0.0, 5e-10, -5e-10, 1e-9, -1e-9, np.nextafter(1e-9, 1.0),
               np.nextafter(-1e-9, -1.0), 2e-9, -2e-9]
    for axis in range(3):
        for face, outward in ((0.0, -1.0), (hi[axis], 1.0)):
            near = rng.uniform(0.0, hi, size=(len(offsets), 3))
            near[:, axis] = face + outward * np.asarray(offsets)
            pts.append(near)
    edge = rng.uniform(0.0, hi, size=(2, 3))
    edge[0] = -0.0                                  # a signed zero is in the hull
    edge[1, 1] = hi[1] + 1e-12                      # within _HULL_EPS, off the grid
    return np.vstack(pts + [edge])


@pytest.mark.parametrize("layout", ["n", "a_b", "axis_major", "in_hull", "in_hull_axis_major"])
def test_sample_voxel_matches_reference_bit_for_bit(layout):
    """Points as an (n, 3) array, an (a, b, 3) stack or the transposed view
    of an axis-major (3, n) array, some outside the hull or all in
    ``[0, n - 1]``: the same bits as clip-then-sample where clipping moves
    no point, within 1e-12 where it does."""
    rng = np.random.default_rng(18)
    vol = make_volume(rng.uniform(0.0, 100.0, size=(7, 5, 4)))
    hi = np.asarray(vol.dims, dtype=float) - 1.0
    u = _hull_probe_points(vol.dims, rng)                          # 200 points
    if layout.startswith("in_hull"):
        u = u[np.all((u >= 0.0) & (u <= hi), axis=1)]
    if layout == "a_b":
        u = u.reshape(8, -1, 3)
    if layout.endswith("axis_major"):
        u = np.ascontiguousarray(u.T).T
    before = u.copy()
    inside, expected = _reference_hull_and_samples(vol, u)
    assert inside.any() and inside.all() == layout.startswith("in_hull")
    on_grid = np.all((u >= 0.0) & (u <= hi), axis=-1).reshape(-1)
    assert on_grid.all() == layout.startswith("in_hull")
    got = sample_voxel(vol, u)
    assert got[on_grid].tobytes() == expected[on_grid].tobytes()
    assert np.allclose(got, expected, rtol=0, atol=1e-12)
    assert u.tobytes() == before.tobytes()  # the caller's points are never written
    # on an identity grid world and voxel coordinates coincide exactly
    assert np.array_equal(vol.contains(u), inside.reshape(u.shape[:-1]))
    for p, expected_inside in zip(u.reshape(-1, 3), inside):
        assert vol.contains(p) is np.bool_(expected_inside)    # one point, one scalar


def test_sample_voxel_empty_and_nan_points():
    """No points give no values; a NaN coordinate reads NaN, and the other
    points of its batch keep their values."""
    vol = make_volume(np.arange(60.0).reshape(5, 4, 3))
    assert sample_voxel(vol, np.empty((0, 3))).shape == (0,)
    u = np.array([[1.0, 1.0, 1.0], [np.nan, 1.0, 1.0], [2.0, 2.0, 2.0]])
    before = u.copy()
    vals = sample_voxel(vol, u)
    assert vals[[0, 2]].tolist() == [vol.data[1, 1, 1], vol.data[2, 2, 2]]
    assert np.isnan(vals[1])
    assert np.array_equal(u, before, equal_nan=True)


def test_distance_to_plane_basics():
    plane = BasePlane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0))
    assert distance_to_plane(plane, (3.0, -2.0, 0.0)) == 0.0
    assert distance_to_plane(plane, (0.0, 0.0, 74.0)) == pytest.approx(74.0)


def test_distance_to_plane_matches_projection_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        q = rng.uniform(-10, 10, size=3)
        p = rng.uniform(-10, 10, size=3)
        plane = BasePlane(point=q, normal=n)
        # oracle: distance via explicit projection onto the plane
        proj = p - ((p - q) @ n) * n
        expected = np.sign((p - q) @ n) * np.linalg.norm(p - proj)
        assert distance_to_plane(plane, p) == pytest.approx(expected, abs=1e-9)


def _random_rotation(rng):
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_distance_to_plane_rigid_invariance():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        q = rng.uniform(-10, 10, size=3)
        p = rng.uniform(-10, 10, size=3)
        rot = _random_rotation(rng)
        shift = rng.uniform(-5, 5, size=3)
        d0 = distance_to_plane(BasePlane(point=q, normal=n), p)
        d1 = distance_to_plane(
            BasePlane(point=rot @ q + shift, normal=rot @ n), rot @ p + shift)
        assert d1 == pytest.approx(d0, abs=1e-9)


def test_plane_normal_must_be_unit():
    with pytest.raises(ValueError):
        BasePlane(point=(0, 0, 0), normal=(0, 0, 2))


def test_seed_validation():
    vol = make_volume(np.ones((8, 8, 8)))
    plane = BasePlane(point=(0.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0))
    SeedSet(tips=[(3.0, 3.0, 5.0)], plane=plane).validate(vol)
    with pytest.raises(ValueError, match="outside"):
        SeedSet(tips=[(30.0, 3.0, 5.0)], plane=plane).validate(vol)
    with pytest.raises(ValueError, match="distal"):
        SeedSet(tips=[(3.0, 3.0, 0.5)], plane=plane).validate(vol)


def test_seed_on_last_voxel_face_is_inside():
    # voxel_to_world of (9, 4, 4) maps back to u = 9.000000000000002 here
    vol = make_volume(np.arange(1000.0).reshape(10, 10, 10), spacing=(0.7,) * 3,
                      origin=(12.7,) * 3)
    tip = vol.voxel_to_world((9, 4, 4))
    assert vol.world_to_voxel(tip)[0] > 9.0
    assert vol.contains(tip)
    assert sample_voxel(vol, vol.world_to_voxel(tip))[0] == pytest.approx(944.0, abs=1e-6)
    plane = BasePlane(point=(0.0, 0.0, 13.0), normal=(0.0, 0.0, 1.0))
    SeedSet(tips=[tip], plane=plane).validate(vol)


def test_seeds_json_round_trip(tmp_path):
    plane = BasePlane(point=(1.0, 2.0, 3.0), normal=(0.0, 1.0, 0.0))
    seeds = SeedSet(tips=[(4.0, 5.0, 6.0), (7.0, 8.0, 9.0)], plane=plane)
    path = tmp_path / "seeds.json"
    save_seeds(seeds, path)
    loaded = load_seeds(path)
    assert np.allclose(loaded.plane.point, seeds.plane.point)
    assert np.allclose(loaded.plane.normal, seeds.plane.normal)
    assert len(loaded.tips) == 2
    assert np.allclose(loaded.tips[1], (7.0, 8.0, 9.0))


def test_read_numbers_tests_each_leaf_and_keeps_python_types():
    assert read_numbers(3, "x") == 3.0 and type(read_numbers(3, "x")) is float
    assert read_numbers([32.0, 32, 32], "dims", (3,), int) == (32, 32, 32)
    assert all(type(n) is int for n in read_numbers([32.0, 32, 32], "dims", (3,), int))
    assert read_numbers(2**62 - 1, "rng_seed", kind=int) == 2**62 - 1
    rows = read_numbers(np.array([[1.0, 2.0], [3.0, 4.0]]), "rows", (None, 2))
    assert rows == ((1.0, 2.0), (3.0, 4.0)) and type(rows[0][0]) is float
    assert read_numbers([np.arange(3.0)], "tips", (None, 3)) == ((0.0, 1.0, 2.0),)
    # a bool is no number, though np.asarray([True, 2, 3]) is an int array
    for bad, shape, kind in [([True, 2, 3], (3,), float), ([True, 2, 3], (3,), int),
                             (np.array([True, False, True]), (3,), float),
                             ("12.5", (), float), (None, (), float), (math.inf, (), float),
                             (math.nan, (), float), (10**400, (), float),
                             (32.5, (), int), ([1.0, 2.0], (3,), float),
                             ([[1.0, 2.0, 3.0], [1.0, 2.0]], (None, 3), float),
                             ({"x": 1}, (), float), ("123", (3,), float)]:
        with pytest.raises(ValueError, match="^field "):
            read_numbers(bad, "field", shape, kind)
