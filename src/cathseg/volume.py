"""3D scalar volumes with world geometry, plus the base-plane / seed inputs
and ``read_numbers``, the one reader of numbers in every input file and config.

Volumes are stored on a regular grid with anisotropic spacing and an
orthonormal axis-direction matrix.  All world coordinates and lengths are
millimeters, all angles radians.  File format is a strict subset of NRRD:
3D, raw encoding, little-endian, scalar types float32 / int16 / uint16.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import reprlib
from dataclasses import dataclass
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


def read_numbers(value, name: str, shape: tuple = (), kind=float):
    """``value``, as read from JSON, as Python ``kind`` numbers of ``shape``
    nested in tuples: () for one, (n,) for n, (None, n) for rows of n.  A
    number is a finite int or float, never a bool, string or null, and an
    integral one for int (32.0, not 32.5); else ValueError naming ``name``."""
    def read(x, dims):
        if isinstance(x, np.ndarray):
            x = x.tolist()
        if dims:
            if isinstance(x, (list, tuple)) and dims[0] in (None, len(x)):
                return tuple(read(v, dims[1:]) for v in x)
        elif isinstance(x, numbers.Real) and not isinstance(x, bool):
            try:
                if kind is int and (isinstance(x, numbers.Integral)
                                    or float(x).is_integer()):
                    return int(x)
                if kind is float and math.isfinite(x):
                    return float(x)
            except OverflowError:        # an integer past float range
                pass
        noun = "integer" if kind is int else "finite number"
        what = f"{'rows of ' * (len(shape) > 1)}{shape[-1]} {noun}s" if shape else f"one {noun}"
        raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")

    return read(value, shape)


def read_fields(obj, names, shape: tuple = (), kind=float):
    """Replace each named field of the dataclass ``obj``, frozen or not, by
    its ``read_numbers`` value."""
    for name in names:
        object.__setattr__(obj, name, read_numbers(getattr(obj, name), name, shape, kind))


class VolumeFormatError(ValueError):
    """Header declares something outside the supported NRRD-raw subset."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"field '{field_name}': {message}")


class TruncatedVolumeError(IOError):
    """Payload shorter than the header-declared voxel count."""


@dataclass
class Volume3D:
    """Regular 3D scalar grid; only ``generate_phantom`` writes one, before returning it.

    ``data`` is indexed ``[i, j, k]`` along the three grid axes; world
    position of a voxel center is ``origin + axis_directions @ (spacing * idx)``.
    """

    dims: tuple[int, int, int]
    spacing: np.ndarray          # (3,) mm per voxel
    origin: np.ndarray           # (3,) mm world
    axis_directions: np.ndarray  # (3, 3), columns are unit direction cosines
    data: np.ndarray             # (nx, ny, nz) float32

    def __post_init__(self):
        self.dims = read_numbers(self.dims, "dims", (3,), int)
        self.spacing = np.array(read_numbers(self.spacing, "spacing", (3,)))
        self.origin = np.array(read_numbers(self.origin, "origin", (3,)))
        self.axis_directions = np.array(read_numbers(self.axis_directions,
                                                     "axis_directions", (3, 3)))
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
        if np.any(self.spacing <= 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        a = self.axis_directions
        if not np.allclose(a.T @ a, np.eye(3), atol=1e-7) or abs(abs(np.linalg.det(a)) - 1.0) > 1e-6:
            raise ValueError("axis_directions columns must be orthonormal")
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.shape != self.dims:
            raise ValueError(f"data shape {self.data.shape} != dims {self.dims}")

    def vector_to_voxel(self, w) -> np.ndarray:
        """World displacements (..., 3) in voxel units along the grid axes."""
        return (np.asarray(w, dtype=float) @ self.axis_directions) * (1.0 / self.spacing)

    def world_to_voxel(self, p) -> np.ndarray:
        return self.vector_to_voxel(np.asarray(p, dtype=float) - self.origin)

    def voxel_to_world(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=float)
        return self.origin + (idx * self.spacing) @ self.axis_directions.T

    def contains(self, p) -> np.ndarray | bool:
        """True where the world point lies in the voxel-center hull, up to rounding."""
        u = self.world_to_voxel(p)
        hi = np.asarray(self.dims) - 1.0
        return np.all((u >= -_HULL_EPS) & (u <= hi + _HULL_EPS), axis=-1)[()]


@dataclass
class BasePlane:
    """Template plane: a point on it plus the unit reference direction."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        self.point = np.array(read_numbers(self.point, "plane point", (3,)))
        self.normal = np.array(read_numbers(self.normal, "plane normal", (3,)))
        n = np.linalg.norm(self.normal)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"plane normal must be unit length, |n| = {n}")


@dataclass
class SeedSet:
    """Per-catheter distal tips plus the shared base plane."""

    tips: list
    plane: BasePlane

    def __post_init__(self):
        self.tips = [np.array(t) for t in read_numbers(self.tips, "tips", (None, 3))]

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


def sample_voxel(vol: Volume3D, u: np.ndarray):
    """Trilinear samples at continuous voxel coordinates (..., 3), flattened:
    a point outside the voxel-center hull reads the nearest edge voxel and a
    NaN coordinate reads NaN.  ``u`` is never written."""
    return ndimage.map_coordinates(vol.data, np.reshape(u, (-1, 3)).T, order=1,
                                   mode="nearest", output=np.float64)


# ---------------------------------------------------------------------------
# NRRD-raw subset reader / writer
# ---------------------------------------------------------------------------

_VEC_RE = re.compile(r"\(([^)]*)\)")


def _vector(text: str, field_name: str) -> np.ndarray:
    """A header vector's inner text as three finite numbers."""
    try:
        v = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise VolumeFormatError(field_name, f"non-numeric vector ({text})") from None
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise VolumeFormatError(field_name, f"need three finite numbers, got ({text})")
    return v


def save_volume(vol: Volume3D, path):
    """Write the volume as NRRD (raw little-endian payload, x fastest)."""
    path = Path(path)
    dirs = vol.axis_directions * vol.spacing[None, :]
    def vec(v):
        return "(" + ",".join(repr(float(x)) for x in v) + ")"
    lines = [
        "NRRD0004",
        "type: float",
        "dimension: 3",
        "sizes: " + " ".join(str(d) for d in vol.dims),
        "space directions: " + " ".join(vec(dirs[:, k]) for k in range(3)),
        "space origin: " + vec(vol.origin),
        "endian: little",
        "encoding: raw",
    ]
    payload = vol.data.astype("<f4", copy=False).tobytes(order="F")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n\n").encode("ascii"))
        fh.write(payload)


def load_volume(path) -> Volume3D:
    """Read the supported NRRD subset; intensities become float32, and a
    NaN or infinite voxel is a format error."""
    path = Path(path)
    raw = path.read_bytes()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise VolumeFormatError("header", "missing blank line terminating the header")
    header_text = raw[:sep].decode("latin-1")

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
        if value.startswith("="):
            continue                     # a "key:=value" pair, not a field
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
        m = np.array([_vector(v, "space directions") for v in vecs]).T  # columns
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
        origin = _vector(vecs[0], "space origin")

    n_expected = sizes[0] * sizes[1] * sizes[2]
    n_got = (len(raw) - sep - 2) // dtype.itemsize
    if n_got < n_expected:
        raise TruncatedVolumeError(
            f"{path}: payload holds {n_got} voxels, header declares {n_expected}")
    arr = np.frombuffer(raw, dtype=dtype, count=n_expected, offset=sep + 2)
    # raw NRRD payload is first-axis-fastest; the one copy converts to C order
    data = np.array(arr.reshape(sizes[::-1]).transpose(2, 1, 0), dtype=np.float32,
                    order="C")
    if not np.isfinite(data).all():
        raise VolumeFormatError("data", "payload holds a non-finite voxel")

    try:
        return Volume3D(dims=sizes, spacing=spacing, origin=origin,
                        axis_directions=axis_dirs, data=data)
    except ValueError as exc:
        raise VolumeFormatError("space directions", str(exc)) from None


# ---------------------------------------------------------------------------
# Seed files
# ---------------------------------------------------------------------------

def save_seeds(seeds: SeedSet, path):
    doc = {"plane": {"point": seeds.plane.point.tolist(),
                     "normal": seeds.plane.normal.tolist()},
           "tips": [t.tolist() for t in seeds.tips]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_seeds(path) -> SeedSet:
    doc = json.loads(Path(path).read_text())
    plane = BasePlane(point=doc["plane"]["point"], normal=doc["plane"]["normal"])
    return SeedSet(tips=doc["tips"], plane=plane)
