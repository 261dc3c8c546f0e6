"""Rigid-pose math, the rotating-beam cone model, and voxelization of a region of interest.

The world frame is anchored with one corner of the region of interest (ROI) at
the origin; the ROI occupies ``[0, extent]`` along each axis.  A sensor pose is
a position plus intrinsic yaw-pitch-roll angles.  Each beam of a spinning
LiDAR sweeps a cone about the sensor's vertical axis; the cone surface at a
local point ``(x, y)`` sits at height ``tan(pitch) * sqrt(x^2 + y^2)``.

All types are immutable values and all functions are pure, so they are safe to
use from concurrent evaluators without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "as_vec3",
    "Box",
    "PoseConfig",
    "PoseBounds",
    "LidarModel",
    "RoiSpec",
    "GridNotDivisibleError",
    "GridTooLargeError",
    "VoxelGrid",
    "rotation_matrix",
    "world_to_lidar",
    "lidar_to_world",
    "build_voxel_grid",
]

_HALF_PI = math.pi / 2.0

# Most beams a LiDAR model may have; a band digit (0..num_beams) then fits in
# one byte.
MAX_BEAMS = 255

# Relative slack allowed when a length must match the grid: an extent that is
# a multiple of the resolution, or an object placement that ends at the ROI
# face.  ``dims * resolution`` may round a little off the written extent.
EXTENT_TOLERANCE = 1e-9

# Most voxels a grid may have, ~350x av_rooftop's 48 000: a grid keeps about
# 50 bytes per voxel, and padded-grid cell indices stay within int32.  A cold
# evaluation peaks higher: one 2-sensor ``max_vsr`` on a 2^21-voxel grid
# allocates 118 MiB at its tracemalloc peak, ~59 bytes per voxel, so about
# 1 GB at this limit.
MAX_VOXELS = 2**24


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def as_vec3(values) -> np.ndarray:
    """Validate ``values`` as a finite 3-vector and return a read-only copy."""
    arr = np.array(values, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector components must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box given by its min and max corners (meters).

    Wherever a box is tested for containment (excluded voxels, ODR
    occupancy), the intervals are closed: points exactly on a face count as
    inside.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "minimum", as_vec3(self.minimum))
        object.__setattr__(self, "maximum", as_vec3(self.maximum))
        if np.any(self.minimum > self.maximum):
            raise ValueError("box minimum must not exceed maximum componentwise")


@dataclass(frozen=True, eq=False)
class PoseConfig:
    """A sensor's 6-DoF pose: position (meters) and yaw/pitch/roll (radians).

    Angles are stored as given, without modular normalization.
    """

    position: np.ndarray
    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        for name in ("yaw", "pitch", "roll"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    def as_vector(self) -> np.ndarray:
        """Pose as ``[x, y, z, yaw, pitch, roll]``."""
        return np.concatenate([self.position, [self.yaw, self.pitch, self.roll]])


@dataclass(frozen=True, eq=False)
class PoseBounds:
    """Componentwise lower/upper limits on a mountable pose."""

    lower: PoseConfig
    upper: PoseConfig

    def __post_init__(self):
        if np.any(self.lower.as_vector() > self.upper.as_vector()):
            raise ValueError("pose bounds inverted: lower must not exceed upper")

    def contains(self, pose: PoseConfig) -> bool:
        v = pose.as_vector()
        return bool(np.all(v >= self.lower.as_vector()) and np.all(v <= self.upper.as_vector()))


@dataclass(frozen=True, eq=False)
class LidarModel:
    """A LiDAR type, described by the sorted pitch angles of its beams.

    Pitches are radians, strictly increasing, and must lie in the open
    interval (-pi/2, +pi/2) so every beam cone has a finite slope.  A model
    has at most ``MAX_BEAMS`` beams.
    """

    beam_pitches: np.ndarray

    def __post_init__(self):
        arr = np.array(self.beam_pitches, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("beam_pitches must be a non-empty 1-D sequence")
        if arr.size > MAX_BEAMS:
            raise ValueError(f"a model has at most {MAX_BEAMS} beams, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("beam pitches must be finite")
        if np.any(np.abs(arr) >= _HALF_PI):
            raise ValueError("beam pitches must lie strictly inside (-pi/2, +pi/2)")
        if np.any(np.diff(arr) <= 0.0):
            raise ValueError("beam pitches must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "beam_pitches", arr)
        object.__setattr__(self, "_tangents", _frozen([math.tan(p) for p in arr]))

    @property
    def num_beams(self) -> int:
        return int(self.beam_pitches.size)

    @property
    def beam_tangents(self) -> np.ndarray:
        """tan() of each beam pitch, precomputed."""
        return self._tangents

    @classmethod
    def evenly_spaced(cls, num_beams: int, lowest: float, highest: float) -> "LidarModel":
        """Model with ``num_beams`` pitches evenly spaced from lowest to highest."""
        if not 1 <= num_beams <= MAX_BEAMS:
            raise ValueError(f"num_beams must lie in [1, {MAX_BEAMS}], got {num_beams}")
        if num_beams == 1:
            pitches = [0.5 * (lowest + highest)]
        else:
            pitches = np.linspace(lowest, highest, num_beams)
        return cls(beam_pitches=np.asarray(pitches, dtype=float))


class GridNotDivisibleError(ValueError):
    """An ROI extent that is not a whole, nonzero number of voxels on some axis."""


class GridTooLargeError(ValueError):
    """An ROI with more than ``MAX_VOXELS`` voxels."""


@dataclass(frozen=True, eq=False)
class RoiSpec:
    """Region of interest: extent, voxel resolution, and excluded boxes.

    The ROI corner sits at the world origin.  Each extent component must be a
    positive integer multiple of the matching resolution component, within
    ``EXTENT_TOLERANCE`` relative (else :class:`GridNotDivisibleError`), for
    at most ``MAX_VOXELS`` voxels in all (else :class:`GridTooLargeError`).
    Excluded boxes (e.g. the vehicle body) must lie within the extent.
    """

    extent: np.ndarray
    resolution: np.ndarray
    excluded_boxes: tuple[Box, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "extent", as_vec3(self.extent))
        object.__setattr__(self, "resolution", as_vec3(self.resolution))
        object.__setattr__(self, "excluded_boxes", tuple(self.excluded_boxes))
        if np.any(self.extent <= 0.0):
            raise ValueError("extent components must be positive")
        if np.any(self.resolution <= 0.0):
            raise ValueError("resolution components must be positive")
        dims = np.rint(self.extent / self.resolution)
        if np.any(dims < 1) or np.any(
            np.abs(dims * self.resolution - self.extent) > EXTENT_TOLERANCE * self.extent
        ):
            raise GridNotDivisibleError(
                "extent must be an integer multiple of resolution on every axis "
                f"(extent={self.extent.tolist()}, resolution={self.resolution.tolist()})"
            )
        voxels = math.prod(dims.tolist())
        if voxels > MAX_VOXELS:
            raise GridTooLargeError(f"{voxels:.4g} voxels exceed the limit of {MAX_VOXELS}")
        for box in self.excluded_boxes:
            if not isinstance(box, Box):
                raise ValueError("excluded_boxes entries must be Box instances")
            if np.any(box.minimum < 0.0) or np.any(box.maximum > self.extent):
                raise ValueError("excluded boxes must lie within the ROI extent")

    @property
    def grid_dims(self) -> tuple[int, int, int]:
        dims = np.rint(self.extent / self.resolution).astype(int)
        return (int(dims[0]), int(dims[1]), int(dims[2]))


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """The voxelized ROI, built by :func:`build_voxel_grid`.

    ``axis_centers`` holds the center coordinate of every voxel layer along
    x, y and z; every voxel center the package compares is one of these
    floats.  ``active_indices`` lists the active voxels in C order
    (lexicographic by index triple); all per-voxel arrays elsewhere in the
    package align with that ordering.  Voxel ``r``'s center is
    ``axis_centers[a][active_indices[r, a]]`` on axis ``a``.  All arrays are
    read-only.
    """

    dims: tuple[int, int, int]
    resolution: np.ndarray
    axis_centers: tuple[np.ndarray, np.ndarray, np.ndarray]
    active_indices: np.ndarray

    @property
    def num_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def num_active(self) -> int:
        return int(self.active_indices.shape[0])

    @property
    def voxel_volume(self) -> float:
        ex, ey, ez = self.resolution
        return float(ex * ey * ez)

    @property
    def extent(self) -> np.ndarray:
        return np.asarray(self.dims) * self.resolution

    @property
    def padded_strides(self) -> tuple[int, int, int]:
        """Per-axis strides of the padded layout; see :attr:`padded_cells`."""
        _, ny, nz = self.dims
        return ((ny + 1) * (nz + 1), 1, ny + 1)

    @cached_property
    def padded_cells(self) -> np.ndarray:
        """Flat index of each active voxel in the padded layout, built once per grid.

        The padded layout is the grid grown by one cell at the high end of
        each axis, laid out x-major, then z, with y contiguous: voxel
        ``(i, j, k)`` sits at ``i * sx + j + k * sz`` for the strides
        ``(sx, 1, sz)`` of :attr:`padded_strides`.
        """
        cells = self.active_indices @ np.array(self.padded_strides, dtype=np.int64)
        cells.flags.writeable = False
        return cells

    def pad(self, values) -> np.ndarray:
        """Active-voxel ``values`` on the padded layout, ``-1`` in every other cell.

        ``values`` must hold one integer per active voxel (else
        ``ValueError``, the only check); a negative one reads as padding.
        Every voxel's ``+x``/``+y``/``+z`` neighbour is the cell one stride
        further on; past the last voxel along an axis that cell is padding,
        so a step can never wrap onto the next row.
        """
        if np.shape(values) != (self.num_active,):
            raise ValueError("per-voxel values must align with the grid's active voxels")
        padded = np.full((self.dims[0] + 1) * self.padded_strides[0], -1, dtype=np.int64)
        padded[self.padded_cells] = values
        return padded


def rotation_matrix(pose: PoseConfig) -> np.ndarray:
    """Rotation from the sensor frame to the world frame.

    Intrinsic Z-Y-X composition: yaw about the world z axis, then pitch about
    the carried y axis, then roll about the carried x axis.  The result is
    orthonormal with determinant +1 for every pose; a regression test pins
    this convention.
    """
    ca, sa = math.cos(pose.yaw), math.sin(pose.yaw)
    cb, sb = math.cos(pose.pitch), math.sin(pose.pitch)
    cg, sg = math.cos(pose.roll), math.sin(pose.roll)
    return np.array(
        [
            [ca * cb, ca * sb * sg - sa * cg, ca * sb * cg + sa * sg],
            [sa * cb, sa * sb * sg + ca * cg, sa * sb * cg - ca * sg],
            [-sb, cb * sg, cb * cg],
        ]
    )


def world_to_lidar(pose: PoseConfig, points_world) -> np.ndarray:
    """Map world-frame points into the sensor's local frame.

    Inverts the rigid transform ``x_world = R @ x_local + position`` as
    ``x_local = R^T (x_world - position)``.  Accepts one point ``(3,)`` or a
    batch ``(n, 3)``; the components are expanded explicitly so both shapes
    share one code path.  The result keeps the input's memory layout, so a
    column-major batch gives contiguous coordinate columns.
    """
    r = rotation_matrix(pose)
    p = np.asarray(points_world, dtype=float)
    d0 = p[..., 0] - pose.position[0]
    d1 = p[..., 1] - pose.position[1]
    d2 = p[..., 2] - pose.position[2]
    out = np.empty_like(p)
    out[..., 0] = d0 * r[0, 0] + d1 * r[1, 0] + d2 * r[2, 0]
    out[..., 1] = d0 * r[0, 1] + d1 * r[1, 1] + d2 * r[2, 1]
    out[..., 2] = d0 * r[0, 2] + d1 * r[1, 2] + d2 * r[2, 2]
    return out


def lidar_to_world(pose: PoseConfig, points_local) -> np.ndarray:
    """Inverse of :func:`world_to_lidar`."""
    r = rotation_matrix(pose)
    p = np.asarray(points_local, dtype=float)
    out = np.empty(p.shape, dtype=float)
    out[..., 0] = p[..., 0] * r[0, 0] + p[..., 1] * r[0, 1] + p[..., 2] * r[0, 2] + pose.position[0]
    out[..., 1] = p[..., 0] * r[1, 0] + p[..., 1] * r[1, 1] + p[..., 2] * r[1, 2] + pose.position[1]
    out[..., 2] = p[..., 0] * r[2, 0] + p[..., 1] * r[2, 1] + p[..., 2] * r[2, 2] + pose.position[2]
    return out


def build_voxel_grid(roi: RoiSpec) -> VoxelGrid:
    """Voxelize the ROI at its resolution.

    The center of voxel ``(i, j, k)`` is ``((i+0.5)ex, (j+0.5)ey, (k+0.5)ez)``.
    A voxel is inactive iff its center lies inside any excluded box (boundary
    counts as inside).  The extent/resolution pair was checked by
    :class:`RoiSpec`; a grid may have no active voxel at all.
    """
    dims = roi.grid_dims
    res = _frozen(roi.resolution)
    axes = tuple(_frozen((np.arange(n) + 0.5) * res[a]) for a, n in enumerate(dims))
    # A box holds the centers whose every coordinate lies in its closed
    # interval on that axis.
    active = np.ones(dims, dtype=bool)
    for box in roi.excluded_boxes:
        x, y, z = ((c >= box.minimum[a]) & (c <= box.maximum[a]) for a, c in enumerate(axes))
        active &= ~(x[:, None, None] & y[None, :, None] & z[None, None, :])
    active_indices = np.argwhere(active).astype(np.int64, copy=False)
    active_indices.flags.writeable = False
    return VoxelGrid(dims=dims, resolution=res, axis_centers=axes, active_indices=active_indices)
