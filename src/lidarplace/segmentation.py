"""Two-level segmentation of the voxel grid into non-detectable subspaces.

First level: for every active voxel, each LiDAR contributes one digit saying
which inter-beam band the voxel center falls in (0 = below the lowest beam
cone, ``num_beams`` = on or above the highest).  The digit vector over all
LiDARs is the voxel's subspace code; with ``L`` sensors of ``B`` beams there
are at most ``(B+1)^L`` distinct codes.  A digit is first guessed by binary
search of ``z / r`` among the beam tangents, then stepped until it agrees
with the exact rule ``tan(pitch_k) * r <= z``.  One sensor's digits over the
grid (its digit column) depend only on its pose, its model and the grid, so
columns are kept in a least-recently-used cache holding at most
``COLUMN_CACHE_BYTES``; a colony move that changes one sensor's pose
recomputes only that sensor's column.

Second level: voxels sharing a code are split into maximal face-connected
(6-connected) components.  Each component is one non-detectable subspace: a
static object strictly inside it intersects no beam cone.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .geometry import LidarModel, PoseConfig, VoxelGrid, world_to_lidar

__all__ = [
    "beam_digits",
    "first_level_labels",
    "component_ids",
    "segment",
]

# Bytes of digit columns the cache may hold.  A column takes one byte per
# active voxel plus the overhead below, so this keeps ~660 columns of
# av_rooftop_small (5 840 voxels) or ~88 of av_rooftop (47 040).
COLUMN_CACHE_BYTES = 4 * 2**20
# Charged per cached column on top of its data (key, array header, list node),
# so that columns of tiny grids cannot pile up without bound.
_ENTRY_OVERHEAD_BYTES = 512


def beam_digits(model: LidarModel, local_points) -> np.ndarray:
    """Band digit of each point of an ``(n, 3)`` array given in the LiDAR's local frame.

    With beam cone heights ``t_k = tan(pitch_k) * r`` at radial distance
    ``r = sqrt(x^2 + y^2)``, the digit is the number of beams whose cone lies
    at or below the point: 0 when ``z < t_0``, ``num_beams`` when
    ``z >= t_last``, else the unique k with ``t_{k-1} <= z < t_k``.  The bands
    partition space, so exactly one digit applies, including on the sensor's
    vertical axis, where every ``t_k`` is 0.
    """
    p = np.asarray(local_points, dtype=float)
    r = np.sqrt(p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1])
    z = p[:, 2]
    tangents = model.beam_tangents
    # Rounding of z / r can put the guess one band off.  Since r >= 0,
    # tangents[k] * r <= z holds for a prefix of k, so stepping up while the
    # next beam passes and down while the last one fails ends on the exact
    # count.  The infinite ends stop the steps at 0 and num_beams (at r = 0
    # their product is NaN, which compares false as well).
    above = np.append(tangents, np.inf)
    below = np.insert(tangents, 0, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        digits = np.searchsorted(tangents, z / r, side="right")
        rows = None
        d, rr, zz = digits, r, z
        while True:
            step = (above[d] * rr <= zz).astype(np.int8) - (below[d] * rr > zz)
            moved = np.flatnonzero(step)
            if moved.size == 0:
                return digits
            rows = moved if rows is None else rows[moved]
            digits[rows] += step[moved]
            d, rr, zz = digits[rows], r[rows], z[rows]


class _ColumnCache:
    """Thread-safe least-recently-used store of digit columns, bounded in bytes."""

    def __init__(self, budget: int):
        self.budget = budget
        self.size = 0
        self._columns: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def _cost(column: np.ndarray) -> int:
        return column.nbytes + _ENTRY_OVERHEAD_BYTES

    def get(self, key):
        with self._lock:
            column = self._columns.get(key)
            if column is not None:
                self._columns.move_to_end(key)
            return column

    def put(self, key, column: np.ndarray) -> None:
        cost = self._cost(column)
        if cost > self.budget:
            return
        with self._lock:
            if key in self._columns:
                return
            self._columns[key] = column
            self.size += cost
            while self.size > self.budget:
                _, old = self._columns.popitem(last=False)
                self.size -= self._cost(old)


_columns = _ColumnCache(COLUMN_CACHE_BYTES)


def _digit_column(pose: PoseConfig, model: LidarModel, grid: VoxelGrid) -> np.ndarray:
    """Read-only ``uint8`` digits of every active voxel for one sensor, cached.

    Models and grids compare by identity, so the key holds them themselves
    (keeping them alive while cached) plus the exact bytes of the pose.
    """
    key = (pose.as_vector().tobytes(), model, grid)
    column = _columns.get(key)
    if column is None:
        local = world_to_lidar(pose, grid.active_centers)
        # A model has at most MAX_BEAMS = 255 beams, so every digit fits in a byte.
        column = beam_digits(model, local).astype(np.uint8)
        column.flags.writeable = False
        _columns.put(key, column)
    return column


def first_level_labels(
    configs: Sequence[PoseConfig],
    models: Sequence[LidarModel],
    grid: VoxelGrid,
) -> np.ndarray:
    """Per-active-voxel digit matrix, one column per LiDAR.

    Row ``i`` holds the subspace code of ``grid.active_indices[i]``; digit
    ``j`` comes from transforming the voxel center into LiDAR ``j``'s frame
    and applying :func:`beam_digits`.  A column already computed for the same
    pose, model and grid is taken from the column cache.
    """
    if len(configs) != len(models) or len(configs) == 0:
        raise ValueError("need the same nonzero number of poses and models")
    labels = np.empty((grid.num_active, len(configs)), dtype=np.int64)
    for j, (pose, model) in enumerate(zip(configs, models)):
        labels[:, j] = _digit_column(pose, model, grid)
    return labels


def _pack_rows(labels: np.ndarray) -> np.ndarray:
    """Collapse digit rows to single integers preserving row equality.

    Every column shares one radix, the largest digit plus one: a single
    contiguous pass, where a per-column maximum strides across rows.
    """
    if labels.shape[1] == 1:
        return labels[:, 0].astype(np.int64)
    radix = int(labels.max()) + 1
    if labels.shape[1] * math.log2(max(radix, 1)) >= 62.0:
        # The packed code would overflow; fall back to row identity via sorting.
        _, inverse = np.unique(labels, axis=0, return_inverse=True)
        return inverse.astype(np.int64)
    packed = labels[:, 0].astype(np.int64)
    for j in range(1, labels.shape[1]):
        packed = packed * radix + labels[:, j]
    return packed


def _padded(values: np.ndarray, grid: VoxelGrid) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Active-voxel ``values`` on the grid grown by one ``-1`` layer at the high end of each axis.

    Returns the flat C-order array and its per-axis strides.  Every voxel's
    ``+x``/``+y``/``+z`` neighbour is then the cell one stride further on;
    past the last voxel along an axis that cell is padding, so a step can
    never wrap onto the next row.  ``values`` must be non-negative and hold
    one entry per active voxel.
    """
    if np.shape(values) != (grid.num_active,):
        raise ValueError("per-voxel values must align with the grid's active voxels")
    nx, ny, nz = grid.dims
    padded = np.full((nx + 1, ny + 1, nz + 1), -1, dtype=np.int64)
    padded[:nx, :ny, :nz][grid.active] = values
    return padded.reshape(-1), ((ny + 1) * (nz + 1), nz + 1, 1)


def _face_pairs(flat: np.ndarray, stride: int) -> np.ndarray:
    """Mask over ``flat[:-stride]``: the cell and the one ``stride`` on hold the same value >= 0."""
    head = flat[:-stride]
    return (head >= 0) & (head == flat[stride:])


def _active_cells(padded_values: np.ndarray, grid: VoxelGrid) -> np.ndarray:
    """The active voxels' entries of a flat array laid out as :func:`_padded` lays it."""
    nx, ny, nz = grid.dims
    return padded_values.reshape(nx + 1, ny + 1, nz + 1)[:nx, :ny, :nz][grid.active]


def component_ids(labels: np.ndarray, grid: VoxelGrid) -> tuple[np.ndarray, int]:
    """Face-connected component id per active voxel, plus the component count.

    Two active voxels join the same component iff they share a face and carry
    identical subspace codes; inactive voxels never join or bridge components.
    Ids are dense in ``[0, count)`` and ordered by each component's minimum
    voxel index (lexicographic), which makes the labeling deterministic.
    """
    if labels.ndim != 2:
        raise ValueError("labels must be a matrix with one row per active voxel")
    codes, strides = _padded(_pack_rows(labels), grid)

    # Three graph entries per cell: its +x, +y and +z neighbour when that
    # holds the same code, else a self loop.  Rows are filled in order, so
    # the CSR arrays are built directly, with the int32 indices scipy's graph
    # routines take.
    n_cells = codes.size
    neighbours = np.empty((n_cells, 3), dtype=np.int32)
    cells = np.arange(n_cells, dtype=np.int32)
    for axis, stride in enumerate(strides):
        column = neighbours[:, axis]
        column[:] = cells
        column[:-stride] += _face_pairs(codes, stride) * np.int32(stride)
    graph = sparse.csr_matrix(
        (np.ones(3 * n_cells), neighbours.reshape(-1), np.arange(0, 3 * n_cells + 1, 3)),
        shape=(n_cells, n_cells),
    )
    n_raw, raw_cells = csgraph.connected_components(graph, directed=False)

    # Renumber by first appearance in active order in O(n).
    raw = _active_cells(raw_cells, grid)
    rows = np.arange(raw.size)
    first = np.full(n_raw, raw.size, dtype=np.int64)
    np.minimum.at(first, raw, rows)
    first_row = first[raw]
    starts = first_row == rows
    rank = np.cumsum(starts) - 1
    return rank[first_row], int(np.count_nonzero(starts))


def segment(
    configs: Sequence[PoseConfig],
    models: Sequence[LidarModel],
    grid: VoxelGrid,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Both levels for one configuration: per-voxel codes, component ids, and the count.

    Raises ``ValueError`` when the grid has no active voxel, since there is
    then no subspace to score or occupy.
    """
    if grid.num_active == 0:
        raise ValueError("ROI has no active voxels; nothing to segment")
    labels = first_level_labels(configs, models, grid)
    comp, count = component_ids(labels, grid)
    return labels, comp, count
