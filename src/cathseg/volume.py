"""3D scalar volumes with world geometry, plus the base-plane / seed inputs.

Volumes are stored on a regular grid with anisotropic spacing and an
orthonormal axis-direction matrix.  All world coordinates and lengths are
millimeters, all angles radians.  File format is a strict subset of NRRD:
3D, raw encoding, little-endian, scalar types float32 / int16 / uint16.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

_HULL_EPS = 1e-9  # voxel units

# header "type" field -> numpy dtype (little-endian forced on read/write)
_NRRD_DTYPES = {
    "float": "<f4",
    "float32": "<f4",
    "short": "<i2",
    "int16": "<i2",
    "signed short": "<i2",
    "unsigned short": "<u2",
    "uint16": "<u2",
}
_NRRD_TYPE_NAME = {"<f4": "float", "<i2": "short", "<u2": "unsigned short"}


class VolumeFormatError(ValueError):
    """Header declares something outside the supported NRRD-raw subset."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"field '{field_name}': {message}")


class TruncatedVolumeError(IOError):
    """Payload shorter than the header-declared voxel count."""


@dataclass
class Volume3D:
    """Regular 3D scalar grid; immutable after construction.

    ``data`` is indexed ``[i, j, k]`` along the three grid axes; world
    position of a voxel center is ``origin + axis_directions @ (spacing * idx)``.
    """

    dims: tuple[int, int, int]
    spacing: np.ndarray          # (3,) mm per voxel
    origin: np.ndarray           # (3,) mm world
    axis_directions: np.ndarray  # (3, 3), columns are unit direction cosines
    data: np.ndarray             # (nx, ny, nz) float32

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.spacing = np.asarray(self.spacing, dtype=float)
        self.origin = np.asarray(self.origin, dtype=float)
        self.axis_directions = np.asarray(self.axis_directions, dtype=float)
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
        if np.any(self.spacing <= 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        a = self.axis_directions
        if not np.allclose(a.T @ a, np.eye(3), atol=1e-7) or abs(abs(np.linalg.det(a)) - 1.0) > 1e-6:
            raise ValueError("axis_directions columns must be orthonormal")
        self.data = np.asarray(self.data)
        if self.data.shape != self.dims:
            if self.data.size != int(np.prod(self.dims)):
                raise ValueError(
                    f"data size {self.data.size} != dims product {int(np.prod(self.dims))}")
            self.data = self.data.reshape(self.dims)
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        self._background = None

    @property
    def background_intensity(self) -> float:
        """Default out-of-bounds intensity: the brightest voxel."""
        if self._background is None:
            self._background = float(self.data.max())
        return self._background

    def vector_to_voxel(self, w) -> np.ndarray:
        """World displacements (..., 3) in voxel units along the grid axes."""
        return (np.asarray(w, dtype=float) @ self.axis_directions) * (1.0 / self.spacing)

    def world_to_voxel(self, p) -> np.ndarray:
        return self.vector_to_voxel(np.asarray(p, dtype=float) - self.origin)

    def voxel_to_world(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=float)
        return self.origin + (idx * self.spacing) @ self.axis_directions.T

    def contains(self, p) -> np.ndarray | bool:
        """True where the world point lies inside the voxel-center hull."""
        return self._in_hull(self.world_to_voxel(p))

    def _in_hull(self, u) -> np.ndarray | bool:
        """``contains`` in voxel units (..., 3), up to round-trip rounding."""
        hi = np.asarray(self.dims, dtype=float) - 1.0
        return np.all((u >= -_HULL_EPS) & (u <= hi + _HULL_EPS), axis=-1)


@dataclass
class BasePlane:
    """Template plane: a point on it plus the unit reference direction."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        self.normal = np.asarray(self.normal, dtype=float)
        n = np.linalg.norm(self.normal)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"plane normal must be unit length, |n| = {n}")


@dataclass
class SeedSet:
    """Per-catheter distal tips plus the shared base plane."""

    tips: list
    plane: BasePlane

    def __post_init__(self):
        self.tips = [np.asarray(t, dtype=float) for t in self.tips]

    def validate(self, vol: Volume3D):
        for i, t in enumerate(self.tips):
            if not vol.contains(t):
                raise ValueError(f"tip {i} at {t.tolist()} lies outside the volume")
            if distance_to_plane(self.plane, t) <= 0:
                raise ValueError(f"tip {i} is not distal of the base plane")


def distance_to_plane(plane: BasePlane, p) -> float | np.ndarray:
    """Signed distance of ``p`` from the plane, positive on the normal side."""
    p = np.asarray(p, dtype=float)
    return (p - plane.point) @ plane.normal


def sample_trilinear(vol: Volume3D, p):
    """Trilinear interpolation of volume intensity at world point(s) ``p``.

    Accepts a single point ``(3,)`` or a batch ``(..., 3)``.  Points outside
    the voxel-center hull return ``vol.background_intensity`` (the volume
    maximum), so rays leaving the volume never look like dark voids.
    """
    p = np.asarray(p, dtype=float)
    u = vol.world_to_voxel(p.reshape(-1, 3))
    vals = sample_voxel(vol, u)
    if p.ndim == 1:
        return float(vals[0])
    return vals.reshape(p.shape[:-1])


def sample_voxel(vol: Volume3D, u: np.ndarray):
    """Trilinear sampling at continuous voxel coordinates (n, 3)."""
    inside = vol._in_hull(u).reshape(-1)
    hi = np.asarray(vol.dims, dtype=float) - 1.0
    coords = np.clip(u.reshape(-1, 3).T, 0.0, hi[:, None])
    vals = ndimage.map_coordinates(vol.data, coords, order=1, mode="nearest",
                                   output=np.float64)
    vals[~inside] = vol.background_intensity
    return vals


# ---------------------------------------------------------------------------
# NRRD-raw subset reader / writer
# ---------------------------------------------------------------------------

_VEC_RE = re.compile(r"\(([^)]*)\)")


def save_volume(vol: Volume3D, path):
    """Write the volume as NRRD (raw little-endian payload, x fastest)."""
    path = Path(path)
    dirs = vol.axis_directions * vol.spacing[None, :]
    def vec(v):
        return "(" + ",".join(repr(float(x)) for x in v) + ")"
    dtype = np.dtype("<f4")
    lines = [
        "NRRD0004",
        f"type: {_NRRD_TYPE_NAME[dtype.str]}",
        "dimension: 3",
        "sizes: " + " ".join(str(d) for d in vol.dims),
        "space directions: " + " ".join(vec(dirs[:, k]) for k in range(3)),
        "space origin: " + vec(vol.origin),
        "endian: little",
        "encoding: raw",
    ]
    payload = np.ascontiguousarray(vol.data.astype(dtype)).tobytes(order="F")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n\n").encode("ascii"))
        fh.write(payload)


def load_volume(path) -> Volume3D:
    """Read the supported NRRD subset; intensities become float32."""
    path = Path(path)
    raw = path.read_bytes()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise VolumeFormatError("header", "missing blank line terminating the header")
    header_text = raw[:sep].decode("latin-1")
    payload = raw[sep + 2:]

    lines = header_text.splitlines()
    if not lines or not lines[0].startswith("NRRD"):
        raise VolumeFormatError("magic", "not an NRRD file")
    fields = {}
    for line in lines[1:]:
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise VolumeFormatError("header", f"malformed line {line!r}")
        key, _, value = line.partition(":")
        fields[key.strip().lower()] = value.strip()

    if fields.get("dimension") != "3":
        raise VolumeFormatError("dimension", f"only 3D supported, got {fields.get('dimension')!r}")
    if fields.get("encoding", "").lower() != "raw":
        raise VolumeFormatError("encoding", f"only raw supported, got {fields.get('encoding')!r}")
    type_name = fields.get("type", "")
    if type_name.lower() not in _NRRD_DTYPES:
        raise VolumeFormatError("type", f"unsupported type {type_name!r}")
    dtype = np.dtype(_NRRD_DTYPES[type_name.lower()])
    endian = fields.get("endian", "little").lower()
    if endian != "little":
        raise VolumeFormatError("endian", f"only little-endian supported, got {endian!r}")
    try:
        sizes = tuple(int(s) for s in fields["sizes"].split())
    except (KeyError, ValueError) as exc:
        raise VolumeFormatError("sizes", f"missing or malformed: {exc}") from None
    if len(sizes) != 3 or any(s <= 0 for s in sizes):
        raise VolumeFormatError("sizes", f"need three positive sizes, got {sizes}")

    sd = fields.get("space directions")
    if sd is None:
        spacing = np.ones(3)
        axis_dirs = np.eye(3)
    else:
        vecs = _VEC_RE.findall(sd)
        if len(vecs) != 3:
            raise VolumeFormatError("space directions", f"need three vectors, got {sd!r}")
        m = np.array([[float(x) for x in v.split(",")] for v in vecs]).T  # columns
        spacing = np.linalg.norm(m, axis=0)
        if np.any(spacing <= 0):
            raise VolumeFormatError("space directions", "zero-length direction vector")
        axis_dirs = m / spacing[None, :]
    so = fields.get("space origin")
    if so is None:
        origin = np.zeros(3)
    else:
        vecs = _VEC_RE.findall(so)
        if len(vecs) != 1:
            raise VolumeFormatError("space origin", f"malformed: {so!r}")
        origin = np.array([float(x) for x in vecs[0].split(",")])

    n_expected = sizes[0] * sizes[1] * sizes[2]
    n_got = len(payload) // dtype.itemsize
    if n_got < n_expected:
        raise TruncatedVolumeError(
            f"{path}: payload holds {n_got} voxels, header declares {n_expected}")
    arr = np.frombuffer(payload[: n_expected * dtype.itemsize], dtype=dtype)
    # raw NRRD payload is first-axis-fastest
    data = arr.reshape(sizes[::-1]).transpose(2, 1, 0).astype(np.float32)

    try:
        return Volume3D(dims=sizes, spacing=spacing, origin=origin,
                        axis_directions=axis_dirs, data=data)
    except ValueError as exc:
        raise VolumeFormatError("space directions", str(exc)) from None


# ---------------------------------------------------------------------------
# Seed files
# ---------------------------------------------------------------------------

def save_seeds(seeds: SeedSet, path):
    doc = {
        "plane": {
            "point": [float(x) for x in seeds.plane.point],
            "normal": [float(x) for x in seeds.plane.normal],
        },
        "tips": [[float(x) for x in t] for t in seeds.tips],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_seeds(path) -> SeedSet:
    doc = json.loads(Path(path).read_text())
    plane = BasePlane(point=doc["plane"]["point"], normal=doc["plane"]["normal"])
    return SeedSet(tips=doc["tips"], plane=plane)
