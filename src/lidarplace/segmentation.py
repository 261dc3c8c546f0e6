"""Two-level segmentation of the voxel grid into non-detectable subspaces.

First level: for every active voxel, each LiDAR contributes one digit saying
which inter-beam band the voxel center falls in (0 = below the lowest beam
cone, ``num_beams`` = on or above the highest).  The digit vector over all
LiDARs is the voxel's subspace code; with ``L`` sensors of ``B`` beams there
are at most ``(B+1)^L`` distinct codes.  A digit is first guessed by binary
search of ``z / r`` among the beam tangents, then stepped until it agrees
with the exact rule ``tan(pitch_k) * r <= z``.  One sensor's digits over the
grid (its digit column) depend only on its pose, its model and the grid, so
the last grid labelled keeps its columns in a least-recently-used cache of
at most ``COLUMN_CACHE_BYTES``; a colony move that changes one sensor's pose
recomputes only that sensor's column.

Second level: voxels sharing a code are split into maximal face-connected
(6-connected) components.  Each component is one non-detectable subspace: a
static object strictly inside it intersects no beam cone.  Values are laid
on the grid's padded layout (``VoxelGrid.pad``), and one run helper
contracts each maximal same-value run along y into one node, counts its
length and its same-value face pairs along x and z, and joins runs by those
face pairs; the run graph's components are labelled by hook and jump.
Component ids follow each component's first voxel in C order; the objective
(``cost.max_vsr``) needs no ids.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import LidarModel, PoseConfig, VoxelGrid, world_to_lidar

__all__ = [
    "beam_digits",
    "first_level_labels",
    "component_ids",
]

# Bytes of digit columns the last grid labelled may keep.  A column takes one
# byte per active voxel plus the overhead below, so this keeps ~660 columns
# of av_rooftop_small (5 840 voxels) or ~88 of av_rooftop (47 040).
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


@functools.lru_cache(maxsize=1)
def _grid_columns(grid: VoxelGrid):
    """The digit-column function of ``grid``, with its own least-recently-used cache.

    Only the last grid labelled keeps its columns.  Every column of one grid
    takes the same bytes, so ``COLUMN_CACHE_BYTES`` becomes a count (0 caches
    nothing).  Models compare by identity, so the key holds the model itself
    plus the exact bytes of the pose, from which a miss rebuilds the pose.
    """

    @functools.lru_cache(maxsize=COLUMN_CACHE_BYTES // (grid.num_active + _ENTRY_OVERHEAD_BYTES))
    def column(pose_bytes: bytes, model: LidarModel) -> np.ndarray:
        x, y, z, yaw, pitch, roll = np.frombuffer(pose_bytes)
        pose = PoseConfig(position=[x, y, z], yaw=yaw, pitch=pitch, roll=roll)
        local = world_to_lidar(pose, grid.active_centers)
        # A model has at most MAX_BEAMS = 255 beams, so every digit fits in a byte.
        digits = beam_digits(model, local).astype(np.uint8)
        digits.flags.writeable = False
        return digits

    return column


def first_level_labels(
    configs: Sequence[PoseConfig],
    models: Sequence[LidarModel],
    grid: VoxelGrid,
) -> np.ndarray:
    """Per-active-voxel digit matrix, one column per LiDAR, stored column-major.

    Row ``i`` holds the subspace code of ``grid.active_indices[i]``; digit
    ``j`` comes from transforming the voxel center into LiDAR ``j``'s frame
    and applying :func:`beam_digits`.  A column already computed for the same
    pose and model on the last grid labelled is taken from its cache.  Raises
    ``ValueError`` when the grid has no active voxel, since there is then no
    subspace to score or occupy.
    """
    if len(configs) != len(models) or len(configs) == 0:
        raise ValueError("need the same nonzero number of poses and models")
    if grid.num_active == 0:
        raise ValueError("ROI has no active voxels; nothing to segment")
    column = _grid_columns(grid)
    labels = np.empty((grid.num_active, len(configs)), dtype=np.int64, order="F")
    for j, (pose, model) in enumerate(zip(configs, models)):
        labels[:, j] = column(pose.as_vector().tobytes(), model)
    return labels


def _pack_rows(labels: np.ndarray) -> np.ndarray:
    """Collapse digit rows to single integers preserving row equality.

    Every column shares one radix, the largest digit plus one: a single
    contiguous pass, where a per-column maximum strides across rows.
    """
    radix = int(labels.max()) + 1
    if labels.shape[1] * math.log2(max(radix, 1)) >= 62.0:
        # The packed code would overflow; fall back to row identity via sorting.
        _, inverse = np.unique(labels, axis=0, return_inverse=True)
        return inverse.astype(np.int64)
    packed = labels[:, 0].astype(np.int64)
    for j in range(1, labels.shape[1]):
        packed = packed * radix + labels[:, j]
    return packed


class _Runs(NamedTuple):
    """Maximal same-value y-runs of a padded array; see :func:`_runs`."""

    start: np.ndarray
    length: np.ndarray
    pairs_x: np.ndarray
    pairs_z: np.ndarray
    src: np.ndarray
    dst: np.ndarray


def _runs(values: np.ndarray, strides: tuple[int, int, int]) -> _Runs:
    """Maximal same-value y-runs of a padded array, their face pairs and the edges between them.

    ``values`` is laid out as :meth:`VoxelGrid.pad` returns it, ``-1`` off
    the active set.  A run is a maximal stretch of one value ``>= 0`` along y;
    the padding cell ending each row ends its last run.  Returns per run its
    first cell (``start``; an active cell's run is the last one starting at
    or before it), its cell count (``length``) and its x and z face pairs
    (``pairs_x``/``pairs_z``: cells whose ``+x`` or ``+z`` neighbour holds
    the same value).  A run of ``n`` cells has ``n - 1`` y face pairs.
    ``src``/``dst`` are the edges joining two runs by a face pair, with a
    pair left out when its y predecessor pairs too within the same run, as
    it joins the same two runs.
    """
    sx, _, sz = strides
    same = values[1:] == values[:-1]
    valid = values >= 0
    starts = valid.copy()
    starts[1:] &= ~same
    start = np.flatnonzero(starts)
    # The array ends in padding, so every run ends before it.
    end = np.flatnonzero(valid[:-1] & ~same) + 1
    counts, edges = [], []
    for stride in (sx, sz):
        pairs = valid[:-stride] & (values[:-stride] == values[stride:])
        # Between one run's start and the next only that run's cells and
        # cells off the active set lie, and the latter never pair.
        counts.append(np.add.reduceat(pairs, start, dtype=np.int64))
        pairs[1:] &= ~(pairs[:-1] & same[: pairs.size - 1])
        cells = np.flatnonzero(pairs)
        edges.append(np.searchsorted(start, (cells, cells + stride), side="right") - 1)
    src, dst = np.concatenate(edges, axis=1)
    return _Runs(start, end - start, *counts, src, dst)


def _code_runs(labels: np.ndarray, grid: VoxelGrid) -> _Runs:
    """The y-runs of the subspace codes in ``labels``, one row per active voxel."""
    return _runs(grid.pad(_pack_rows(labels)), grid.padded_strides)


def _run_components(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the graph on ``n`` nodes with edges ``src[e]``-``dst[e]``.

    Returns their count and each node's component, numbered in the order of
    each component's smallest node.  Each round hooks the larger root of
    every edge joining two roots onto the smaller one, then points every
    node at its root; edges inside one root stay inside it and are dropped.
    """
    parent = np.arange(n)
    while True:
        a, b = parent[src], parent[dst]
        cross = a != b
        if not cross.any():
            break
        src, dst, a, b = src[cross], dst[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(parent, jumped := parent[parent]):
            parent = jumped
    number = np.cumsum(parent == np.arange(n)) - 1
    return int(number[-1]) + 1, number[parent]


def component_ids(labels: np.ndarray, grid: VoxelGrid) -> tuple[np.ndarray, int]:
    """Face-connected component id per active voxel, plus the component count.

    Two active voxels join the same component iff they share a face and carry
    identical subspace codes; inactive voxels never join or bridge components.
    Ids are dense in ``[0, count)`` and ordered by each component's minimum
    voxel index (lexicographic), which makes the labeling deterministic.
    """
    if labels.ndim != 2:
        raise ValueError("labels must be a matrix with one row per active voxel")
    r = _code_runs(labels, grid)
    count, run_comp = _run_components(r.start.size, r.src, r.dst)

    # A run's first voxel in C order is its start: rank each component by
    # the C-order index of its earliest run start.
    nx, ny, nz = grid.dims
    sx, _, sz = grid.padded_strides
    i, rest = np.divmod(r.start, sx)
    k, j = np.divmod(rest, sz)
    first = np.full(count, nx * ny * nz)
    np.minimum.at(first, run_comp, (i * ny + j) * nz + k)
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(count)
    voxel_run = np.searchsorted(r.start, grid.padded_cells, side="right") - 1
    return rank[run_comp][voxel_run], count
