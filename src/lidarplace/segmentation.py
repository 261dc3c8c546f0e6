"""Two-level segmentation of the voxel grid into non-detectable subspaces.

First level: for every active voxel, each LiDAR contributes one digit saying
which inter-beam band the voxel center falls in (0 = below the lowest beam
cone, ``num_beams`` = on or above the highest).  The digit vector over all
LiDARs is the voxel's subspace code; with ``L`` sensors of ``B`` beams there
are at most ``(B+1)^L`` distinct codes.  One sensor's digits over the grid
(its digit column) depend only on its pose, its model and the grid, so the
last grid labelled keeps its columns in a least-recently-used cache of at
most ``COLUMN_CACHE_BYTES``; a colony move that changes one sensor's pose
recomputes only that sensor's column.  A column is computed on the dense
voxel lattice: ``world_to_lidar`` of one probe point per voxel layer gives
each axis's product terms, and summing them in its own order costs one add
per voxel and coordinate.  Each digit is read from a per-model table over
fixed-width bins of ``z / r``; only rows in a bin near a cone, or with a
tiny or non-finite ``r``, are stepped against the exact rule
``tan(pitch_k) * r <= z``.  The byte digits are then gathered to active
order, and ``first_level_labels`` returns them as a ``uint8`` matrix.

Second level: voxels sharing a code are split into maximal face-connected
(6-connected) components.  Each component is one non-detectable subspace: a
static object strictly inside it intersects no beam cone.  Values are laid
on the grid's padded layout (``VoxelGrid.pad``), and one run helper
contracts each maximal same-value run along y into one node with its
length, and joins runs by their same-value face pairs along x and z: each
stretch of consecutive pairing cells in one run is one edge, holding its
length.  The run graph's components are labelled by hook and jump, each
hook picking any smaller root.  Component ids follow each component's first
voxel in C order; the objective (``cost.max_vsr``) needs no ids.
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

# Fixed-width bins of z / r in a model's digit table (see _bin_table).  The
# ~5 bins around each tangent are ambiguous and their rows take the exact
# steps: at 4096 bins a 16-beam model sends 0.8 % of av_rooftop's rows there
# on average (2 % at most, over 50 random poses), and the table takes 32 KiB.
_DIGIT_BINS = 4096
# Flag bit of a bin's code, above the byte that holds its digit.
_AMBIGUOUS = 0x100
# Bins left on either side of the outermost tangents, so the end bins, which
# hold every quotient past them, are never ambiguous.
_PAD_BINS = 4
# Rows with a smaller r (or none) go through the exact steps.  From here up,
# rounding tan * r to a subnormal moves it by at most 2^-1075 / r <= 2^-575
# in z / r terms, far below any bin width.
_TINY_R = 2.0**-500


def beam_digits(model: LidarModel, local_points) -> np.ndarray:
    """Band digit of each point of an ``(n, 3)`` array given in the LiDAR's local frame.

    With beam cone heights ``t_k = tan(pitch_k) * r`` at radial distance
    ``r = sqrt(x^2 + y^2)``, the digit is the number of beams whose cone lies
    at or below the point: 0 when ``z < t_0``, ``num_beams`` when
    ``z >= t_last``, else the unique k with ``t_{k-1} <= z < t_k``.  The bands
    partition space, so exactly one digit applies, including on the sensor's
    vertical axis, where every ``t_k`` is 0.

    Each point's ``q = z / r`` picks a bin of the model's table
    (:func:`_bin_table`); a settled bin's digit is exact.  Write
    ``u = 2^-53`` and ``Q`` for the exact quotient.  For finite
    ``r >= _TINY_R`` the computed product is ``t r (1 + e) + f`` with
    ``|e| <= u`` and ``|f| <= 2^-1075`` (a subnormal result), so
    ``fl(t r) <= z`` holds iff ``t + t e + f / r <= Q``, and
    ``|q - Q| <= 2u|q| + 2^-1075``.  Whenever ``|t - q|`` exceeds
    ``u|t| + 2u|q| + 2^-1074 + 2^-1075 / _TINY_R``, the exact rule for
    beam k is therefore ``t_k <= q``.  The bin index is monotone in ``q``
    and, inside the table's range, within ``2^-39`` of a bin of the exact
    ``(q - low) * scale``; past the range it is clamped to an end bin.  A
    bin is flagged ambiguous when some tangent lies within that margin plus
    one bin width of it, so every point of a settled bin is farther than the
    margin from every tangent, and its digit, the number of tangents below
    the bin, is the exact count.  In the end bins this holds at the inner
    edge, and farther out ``|t - q|`` grows faster than the margin (an
    overflowed ``q`` is past every tangent).

    Flagged rows, and rows whose ``r`` is zero, below ``_TINY_R`` or not
    finite, drop the flag and take the table's digit as a guess, then step
    it against the exact rule ``t_k * r <= z``: since ``r >= 0`` the rule
    holds on a prefix of beams, so stepping up while the next beam passes
    and down while the last one fails ends on the exact count.  The infinite
    ends stop the steps at 0 and ``num_beams`` (at ``r = 0`` their product
    is NaN, which compares false as well).
    """
    p = np.asarray(local_points, dtype=float)
    z = p[:, 2]
    table = _bin_table(model)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = p[:, 0] * p[:, 0]
        q = p[:, 1] * p[:, 1]
        r += q
        np.sqrt(r, out=r)
        np.divide(z, r, out=q)
        q -= table.low
        q *= table.scale
        # fmax first, so a NaN quotient lands in bin 0.
        np.fmax(q, 0.0, out=q)
        np.fmin(q, _DIGIT_BINS - 1, out=q)
        bins = q.astype(np.intp)
        del q  # freed before the take, so its buffer holds the digits
        digits = table.codes.take(bins)
        del bins
        rows = np.flatnonzero((digits >= _AMBIGUOUS) | ~(r >= _TINY_R) | (r == np.inf))
        digits[rows] %= _AMBIGUOUS
        while rows.size:
            d = digits[rows]
            rr, zz = r[rows], z[rows]
            step = (table.above[d] * rr <= zz).astype(np.int8) - (table.below[d] * rr > zz)
            moved = np.flatnonzero(step)
            rows = rows[moved]
            digits[rows] += step[moved]
    return digits


class _BinTable(NamedTuple):
    """A model's digits over fixed-width bins of ``z / r``; see :func:`_bin_table`."""

    low: float
    scale: float
    codes: np.ndarray
    above: np.ndarray
    below: np.ndarray


@functools.lru_cache(maxsize=64)
def _bin_table(model: LidarModel) -> _BinTable:
    """The bin table :func:`beam_digits` reads for ``model``, built once per model.

    Bin ``i`` holds the quotients ``q`` with
    ``floor((q - low) * scale) = i``, clamped to ``[0, _DIGIT_BINS)``.  The
    tangents lie ``_PAD_BINS`` bins inside either end.  ``codes[i]`` is bin
    ``i``'s digit, the count of tangents in lower bins, plus ``_AMBIGUOUS``
    when the bin is ambiguous: within a slack (eight ulps of the largest
    edge plus the subnormal error that ``_TINY_R`` allows) and two bin
    widths, one to spare, of a tangent.  A bin is at least ``2^-44`` of the
    largest edge and ``2^-560`` wide, so the slack is under a sixteenth of a
    bin and the end bins are never ambiguous.  ``above``/``below`` are the
    tangents padded with ``+inf``/``-inf`` for the exact steps.
    """
    t = model.beam_tangents
    width = max(
        (t[-1] - t[0]) / (_DIGIT_BINS - 2 * _PAD_BINS),
        2.0**-44 * max(abs(t[0]), abs(t[-1])),
        2.0**-560,
    )
    low = t[0] - _PAD_BINS * width
    scale = 1.0 / width
    edge = max(abs(low), abs(low + _DIGIT_BINS * width))
    slack = 8 * math.ulp(edge) + math.ulp(0.0) / _TINY_R
    last = _DIGIT_BINS - 1
    first_bin = np.clip(np.floor((t - slack - low) * scale) - 2, 0, last).astype(np.intp)
    last_bin = np.clip(np.floor((t + slack - low) * scale) + 2, 0, last).astype(np.intp)
    own_bin = np.floor((t - low) * scale).astype(np.intp)

    def below(bins):  # how many of ``bins`` lie below each bin
        return np.cumsum(np.bincount(bins + 1, minlength=_DIGIT_BINS + 1))[:_DIGIT_BINS]

    lower = below(own_bin)
    ambiguous = below(first_bin - 1) > below(last_bin)
    return _BinTable(
        low=float(low),
        scale=float(scale),
        codes=_read_only(lower + _AMBIGUOUS * ambiguous),
        above=_read_only(np.append(t, np.inf)),
        below=_read_only(np.insert(t, 0, -np.inf)),
    )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _lattice_points(pose: PoseConfig, grid: VoxelGrid) -> np.ndarray:
    """``world_to_lidar(pose, centers)`` at every voxel center of the dense lattice.

    Returns ``(grid.num_voxels, 3)``, one contiguous column per coordinate,
    with voxel ``(i, j, k)`` in row ``(k * nx + i) * ny + j``
    (:func:`_lattice_rows`).  Each coordinate of ``world_to_lidar`` is a sum
    of one product term per world axis.  A probe point holding a layer's
    center on its own axis and the sensor's position on the other two gives
    exactly that layer's terms (the other differences are zero), up to the
    sign of a zero.  The terms are summed in ``world_to_lidar``'s order, x
    plus y over one plane, then plus z per plane, so each coordinate equals
    the direct transform's up to the sign of a zero, which no band
    comparison can see.
    """
    nx, ny, nz = grid.dims
    probes = np.tile(pose.position, (nx + ny + nz, 1))
    probes[:nx, 0], probes[nx : nx + ny, 1], probes[nx + ny :, 2] = grid.axis_centers
    terms = world_to_lidar(pose, probes)
    tx, ty, tz = terms[:nx], terms[nx : nx + ny], terms[nx + ny :]
    local = np.empty((grid.num_voxels, 3), order="F")
    for c in range(3):
        plane = (tx[:, c, None] + ty[:, c]).ravel()
        # One call per z layer: numpy adds a scalar to an array much faster
        # than it broadcasts a column across one.
        for k, out in enumerate(local[:, c].reshape(nz, nx * ny)):
            np.add(plane, tz[k, c], out=out)
    return local


def _lattice_rows(grid: VoxelGrid) -> np.ndarray:
    """The row of each active voxel in :func:`_lattice_points`."""
    i, j, k = grid.active_indices.T
    nx, ny, _ = grid.dims
    return (k * nx + i) * ny + j


@functools.lru_cache(maxsize=1)
def _grid_columns(grid: VoxelGrid):
    """The digit-column function of ``grid``, with its own least-recently-used cache.

    Only the last grid labelled keeps its columns.  Every column of one grid
    takes the same bytes, so ``COLUMN_CACHE_BYTES`` becomes a count (0 caches
    nothing).  Models compare by identity, so the key holds the model itself
    plus the exact bytes of the pose, from which a miss rebuilds the pose.
    A miss labels the dense lattice (:func:`_lattice_points`) and gathers
    the active voxels' digits.
    """
    active = _lattice_rows(grid)

    @functools.lru_cache(maxsize=COLUMN_CACHE_BYTES // (grid.num_active + _ENTRY_OVERHEAD_BYTES))
    def column(pose_bytes: bytes, model: LidarModel) -> np.ndarray:
        x, y, z, yaw, pitch, roll = np.frombuffer(pose_bytes)
        pose = PoseConfig(position=[x, y, z], yaw=yaw, pitch=pitch, roll=roll)
        digits = beam_digits(model, _lattice_points(pose, grid))
        return _read_only(digits.astype(np.uint8).take(active))

    return column


def first_level_labels(
    configs: Sequence[PoseConfig],
    models: Sequence[LidarModel],
    grid: VoxelGrid,
) -> np.ndarray:
    """Per-active-voxel ``uint8`` digit matrix, one column per LiDAR, stored column-major.

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
    labels = np.empty((grid.num_active, len(configs)), dtype=np.uint8, order="F")
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
        packed *= radix
        packed += labels[:, j]
    return packed


class _Runs(NamedTuple):
    """Maximal same-value y-runs of a padded array; see :func:`_runs`."""

    start: np.ndarray
    length: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    segment: np.ndarray
    num_x: int


def _runs(values: np.ndarray, strides: tuple[int, int, int]) -> _Runs:
    """Maximal same-value y-runs of a padded array and the edges between them.

    ``values`` is laid out as :meth:`VoxelGrid.pad` returns it, ``-1`` off
    the active set.  A run is a maximal stretch of one value ``>= 0`` along y;
    the padding cell ending each row ends its last run.  Returns per run its
    first cell (``start``; an active cell's run is the last one starting at
    or before it) and its cell count (``length``).  A run of ``n`` cells has
    ``n - 1`` y face pairs.  A face pair is a cell whose ``+x`` or ``+z``
    neighbour holds the same value; consecutive pairing cells of one run form
    a segment, whose pairs all join the same two runs.  ``src``/``dst`` hold
    one edge per segment, joining the run of its cells to the run of their
    neighbours, and ``segment`` its cell count, the face pairs the edge
    stands for: the first ``num_x`` edges pair along x, the rest along z.
    """
    sx, _, sz = strides
    differs = values[1:] != values[:-1]
    valid = values >= 0
    starts = valid.copy()
    starts[1:] &= differs
    start = np.flatnonzero(starts)
    # The array ends in padding, so every run ends before it.
    end = np.flatnonzero(valid[:-1] & differs) + 1
    segments, edges = [], []
    for stride in (sx, sz):
        pairs = valid[:-stride] & (values[:-stride] == values[stride:])
        # ``linked[c]``: cells c and c + 1 both pair and hold one value, so
        # they share a segment.  Clearing each link's second cell leaves the
        # segments' first cells, clearing its first cell their last cells.
        linked = (pairs[:-1] & pairs[1:]) > differs[: pairs.size - 1]
        first = pairs.copy()
        first[1:] ^= linked
        pairs[:-1] ^= linked
        cells = np.flatnonzero(first)
        segments.append(np.flatnonzero(pairs) - cells + 1)
        edges.append(np.searchsorted(start, (cells, cells + stride), side="right") - 1)
    src, dst = np.concatenate(edges, axis=1)
    return _Runs(start, end - start, src, dst, np.concatenate(segments), edges[0].shape[1])


def _code_runs(labels: np.ndarray, grid: VoxelGrid) -> _Runs:
    """The y-runs of the subspace codes in ``labels``, one row per active voxel."""
    return _runs(grid.pad(_pack_rows(labels)), grid.padded_strides)


def _run_components(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the graph on ``n`` nodes with edges ``src[e]``-``dst[e]``.

    Returns their count and each node's component, numbered in the order of
    each component's smallest node.  Each round hooks the larger root of
    every edge joining two roots onto the smaller one, then points every
    node at its root; edges inside one root stay inside it and are dropped.
    The first round hooks the edges' own ends, each node being its own root.
    A root hooked by several edges takes any one of their smaller roots:
    pointers only lead to smaller nodes, so each tree's root is its smallest
    node, and the partition and its numbering come out the same.
    """
    parent = np.arange(n)
    a, b = src, dst
    while True:
        parent[np.maximum(a, b)] = np.minimum(a, b)
        # Two jumps per check: pointers only lead to smaller nodes, so when
        # two jumps move none, every node points at its root.
        while True:
            jumped = parent[parent]
            jumped = jumped[jumped]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        a, b = parent[src], parent[dst]
        cross = a != b
        if not cross.any():
            break
        src, dst, a, b = src[cross], dst[cross], a[cross], b[cross]
    number = np.cumsum(parent == np.arange(n)) - 1
    return int(number[-1]) + 1, number[parent]


def component_ids(labels: np.ndarray, grid: VoxelGrid) -> tuple[np.ndarray, int]:
    """Face-connected component id per active voxel, plus the component count.

    Two active voxels join the same component iff they share a face and carry
    identical subspace codes; inactive voxels never join or bridge components.
    Ids are dense in ``[0, count)`` and ordered by each component's minimum
    voxel index (lexicographic), which makes the labeling deterministic.
    Raises ``ValueError`` on a negative digit.
    """
    if labels.ndim != 2:
        raise ValueError("labels must be a matrix with one row per active voxel")
    if labels.size and labels.min() < 0:
        raise ValueError("subspace digits must be non-negative")
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
