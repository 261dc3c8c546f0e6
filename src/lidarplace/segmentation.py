"""Two-level segmentation of the voxel grid into non-detectable subspaces.

First level: for every active voxel, each LiDAR contributes one digit saying
which inter-beam band the voxel center falls in (0 = below the lowest beam
cone, ``num_beams`` = on or above the highest).  The digit vector over all
LiDARs is the voxel's subspace code; with ``L`` sensors of ``B`` beams there
are at most ``(B+1)^L`` distinct codes.

Second level: voxels sharing a code are split into maximal face-connected
(6-connected) components.  Each component is one non-detectable subspace: a
static object strictly inside it intersects no beam cone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .geometry import LidarModel, PoseConfig, VoxelGrid, world_to_lidar

__all__ = [
    "SubspaceCode",
    "beam_digits",
    "first_level_labels",
    "component_ids",
]

# One digit per LiDAR, each in [0, num_beams of that LiDAR].
SubspaceCode = tuple[int, ...]


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
    thresholds = model.beam_tangents[None, :] * r[:, None]
    return np.count_nonzero(thresholds <= p[:, 2][:, None], axis=1).astype(np.int64)


def first_level_labels(
    configs: Sequence[PoseConfig],
    models: Sequence[LidarModel],
    grid: VoxelGrid,
) -> np.ndarray:
    """Per-active-voxel digit matrix, one column per LiDAR.

    Row ``i`` holds the subspace code of ``grid.active_indices[i]``; digit
    ``j`` comes from transforming the voxel center into LiDAR ``j``'s frame
    and applying :func:`beam_digits`.
    """
    if len(configs) != len(models) or len(configs) == 0:
        raise ValueError("need the same nonzero number of poses and models")
    labels = np.empty((grid.num_active, len(configs)), dtype=np.int64)
    for j, (pose, model) in enumerate(zip(configs, models)):
        local = world_to_lidar(pose, grid.active_centers)
        labels[:, j] = beam_digits(model, local)
    return labels


def _pack_rows(labels: np.ndarray) -> np.ndarray:
    """Collapse digit rows to single integers preserving row equality."""
    if labels.shape[1] == 1:
        return labels[:, 0].astype(np.int64)
    radices = labels.max(axis=0).astype(np.int64) + 1
    if float(np.log2(np.maximum(radices, 1)).sum()) >= 62.0:
        # Mixed radix would overflow; fall back to row-identity via sorting.
        _, inverse = np.unique(labels, axis=0, return_inverse=True)
        return inverse.astype(np.int64)
    packed = labels[:, 0].astype(np.int64)
    for j in range(1, labels.shape[1]):
        packed = packed * radices[j] + labels[:, j]
    return packed


def _axis_pair_slices(axis: int):
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def component_ids(labels: np.ndarray, grid: VoxelGrid) -> tuple[np.ndarray, int]:
    """Face-connected component id per active voxel, plus the component count.

    Two active voxels join the same component iff they share a face and carry
    identical subspace codes; inactive voxels never join or bridge components.
    Ids are dense in ``[0, count)`` and ordered by each component's minimum
    voxel index (lexicographic), which makes the labeling deterministic.
    """
    if labels.ndim != 2 or labels.shape[0] != grid.num_active:
        raise ValueError("labels must cover every active voxel, one row each")
    packed = _pack_rows(labels)
    code_grid = np.full(grid.dims, -1, dtype=np.int64)
    code_grid[grid.active] = packed

    strides = grid.strides
    heads = []
    tails = []
    for axis in range(3):
        lo, hi = _axis_pair_slices(axis)
        a = code_grid[lo]
        b = code_grid[hi]
        mask = (a >= 0) & (a == b)
        if not mask.any():
            continue
        flat = np.argwhere(mask).astype(np.int64) @ strides
        heads.append(flat)
        tails.append(flat + strides[axis])

    n_cells = grid.num_voxels
    if heads:
        u = np.concatenate(heads)
        v = np.concatenate(tails)
        graph = sparse.coo_matrix(
            (np.ones(u.shape[0], dtype=np.int8), (u, v)), shape=(n_cells, n_cells)
        )
    else:
        graph = sparse.coo_matrix((n_cells, n_cells), dtype=np.int8)
    _, full_labels = csgraph.connected_components(graph, directed=False)

    active_flat = grid.active_indices @ strides
    raw = full_labels[active_flat]
    _, first_pos, inverse = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first_pos)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], int(order.size)
