import numpy as np
import pytest

from cathseg.volume import (BasePlane, SeedSet, TruncatedVolumeError, Volume3D,
                            VolumeFormatError, distance_to_plane, load_seeds,
                            load_volume, sample_trilinear, save_seeds, save_volume)


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
        assert sample_trilinear(vol, p) == pytest.approx(float(data[idx]), abs=1e-9)


def test_sample_midpoint_between_voxels():
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[1, :, :] = 10.0
    vol = make_volume(data)
    assert sample_trilinear(vol, (0.5, 0.0, 0.0)) == pytest.approx(5.0, abs=1e-12)


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
    vals = sample_trilinear(vol, pts)
    assert np.max(np.abs(vals - pts[:, 0])) < 1e-6


def test_sample_outside_returns_background():
    data = np.full((4, 4, 4), 7.0, dtype=np.float32)
    data[1, 1, 1] = 42.0
    vol = make_volume(data)
    assert sample_trilinear(vol, (-5.0, 0.0, 0.0)) == 42.0  # volume max


def test_sample_batch_shapes():
    vol = make_volume(np.ones((4, 4, 4)))
    out = sample_trilinear(vol, np.ones((3, 5, 3)))
    assert out.shape == (3, 5)
    assert np.all(out == 1.0)


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
    assert sample_trilinear(vol, tip) == pytest.approx(944.0, abs=1e-6)
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
