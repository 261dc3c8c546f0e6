"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (pure Python
scalars, dictionaries, recursion, or numpy over every voxel of a grid) and
never calls into the production code paths it verifies.
"""

from __future__ import annotations

import math
import sys

import numpy as np

FACE_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def rotation_ref(yaw, pitch, roll):
    """Sensor-to-world rotation, same yaw-pitch-roll convention, as lists."""
    ca, sa = math.cos(yaw), math.sin(yaw)
    cb, sb = math.cos(pitch), math.sin(pitch)
    cg, sg = math.cos(roll), math.sin(roll)
    return [
        [ca * cb, ca * sb * sg - sa * cg, ca * sb * cg + sa * sg],
        [sa * cb, sa * sb * sg + ca * cg, sa * sb * cg - ca * sg],
        [-sb, cb * sg, cb * cg],
    ]


def world_to_lidar_ref(position, yaw, pitch, roll, point):
    """R^T (p - t) with plain scalar arithmetic."""
    r = rotation_ref(yaw, pitch, roll)
    dx = point[0] - position[0]
    dy = point[1] - position[1]
    dz = point[2] - position[2]
    return (
        dx * r[0][0] + dy * r[1][0] + dz * r[2][0],
        dx * r[0][1] + dy * r[1][1] + dz * r[2][1],
        dx * r[0][2] + dy * r[1][2] + dz * r[2][2],
    )


def beam_digit_ref(tangents, x, y, z):
    """Band digit via the three explicit interval rules (if/elif chain)."""
    r = math.sqrt(x * x + y * y)
    n = len(tangents)
    if z < tangents[0] * r:
        return 0
    if z >= tangents[n - 1] * r:
        return n
    for k in range(1, n):
        if tangents[k - 1] * r <= z < tangents[k] * r:
            return k
    raise AssertionError("band rules failed to assign a digit")


def digit_column_ref(tangents, local_points):
    """Band digit of each local point: the exact rule checked against every beam at once."""
    p = np.asarray(local_points, dtype=float)
    r = np.sqrt(p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1])
    z = p[:, 2]
    return (np.asarray(tangents) * r[:, None] <= z[:, None]).sum(axis=1)


def flood_fill_components(cells, order=None):
    """Face-connected components of equal-valued cells, by recursive fill.

    ``cells`` maps index triples to a hashable code.  ``order`` optionally
    fixes the visitation order (any permutation of the keys) to demonstrate
    order independence.  Returns a list of frozensets.  The fill recurses
    once per cell, so the recursion limit is raised while it runs.
    """
    remaining = set(cells)
    components = []

    def fill(cell, code, bucket):
        if cell not in remaining or cells[cell] != code:
            return
        remaining.discard(cell)
        bucket.add(cell)
        i, j, k = cell
        for di, dj, dk in FACE_STEPS:
            fill((i + di, j + dj, k + dk), code, bucket)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, len(cells) + 1_000))
    try:
        for seed in order if order is not None else sorted(cells):
            if seed in remaining:
                bucket = set()
                fill(seed, cells[seed], bucket)
                components.append(frozenset(bucket))
    finally:
        sys.setrecursionlimit(limit)
    return components


def exposed_face_counts(cells):
    """(along-x, along-y, along-z) exposed-face counts of a voxel set."""
    cell_set = set(map(tuple, cells))
    counts = [0, 0, 0]
    for i, j, k in cell_set:
        for axis, step in ((0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1))):
            for sign in (1, -1):
                neighbor = (i + sign * step[0], j + sign * step[1], k + sign * step[2])
                if neighbor not in cell_set:
                    counts[axis] += 1
    return tuple(counts)


def exposed_face_area(cells, resolution):
    """Total surface area from per-face exposure counting."""
    ex, ey, ez = float(resolution[0]), float(resolution[1]), float(resolution[2])
    nx, ny, nz = exposed_face_counts(cells)
    return nz * (ex * ey) + ny * (ex * ez) + nx * (ey * ez)


def component_vsr(cells, resolution):
    """volume / surface-area of one voxel set."""
    ex, ey, ez = float(resolution[0]), float(resolution[1]), float(resolution[2])
    vol = ex * ey * ez * len(cells)
    return vol / exposed_face_area(cells, resolution)


def brute_force_pipeline(poses, beam_pitches, extent, resolution, excluded_boxes=()):
    """Label and segment the whole ROI with nested loops.

    ``poses`` is a sequence of (x, y, z, yaw, pitch, roll) tuples and
    ``beam_pitches`` one list of pitches per sensor.  Returns
    ``(cells, components)`` where ``cells`` maps active voxel triples to code
    tuples and ``components`` is the flood-fill partition.
    """
    dims = [int(round(extent[a] / resolution[a])) for a in range(3)]
    tangent_sets = [[math.tan(p) for p in pitches] for pitches in beam_pitches]

    cells = {}
    for i in range(dims[0]):
        cx = (i + 0.5) * resolution[0]
        for j in range(dims[1]):
            cy = (j + 0.5) * resolution[1]
            for k in range(dims[2]):
                cz = (k + 0.5) * resolution[2]
                excluded = any(
                    lo[0] <= cx <= hi[0] and lo[1] <= cy <= hi[1] and lo[2] <= cz <= hi[2]
                    for lo, hi in excluded_boxes
                )
                if excluded:
                    continue
                code = []
                for (px, py, pz, yaw, pitch, roll), tangents in zip(poses, tangent_sets):
                    lx, ly, lz = world_to_lidar_ref((px, py, pz), yaw, pitch, roll, (cx, cy, cz))
                    code.append(beam_digit_ref(tangents, lx, ly, lz))
                cells[(i, j, k)] = tuple(code)
    return cells, flood_fill_components(cells)


def brute_force_max_vsr(poses, beam_pitches, extent, resolution, excluded_boxes=()):
    """End-to-end reference objective: the largest component VSR."""
    _, components = brute_force_pipeline(poses, beam_pitches, extent, resolution, excluded_boxes)
    return max(component_vsr(comp, resolution) for comp in components)


def assert_valid_partition(grid, labels, comp, count):
    """Partition sanity: one component per active voxel, volumes that add up."""
    assert comp.shape == (grid.num_active,)
    assert count == len(set(comp.tolist()))
    assert comp.min() == 0 and comp.max() == count - 1, "component ids must be dense"
    voxels_per_comp = {}
    for row, c in enumerate(comp.tolist()):
        voxels_per_comp.setdefault(c, []).append(row)
    total = sum(len(v) for v in voxels_per_comp.values())
    assert total == grid.num_active, "every active voxel in exactly one component"
    import lidarplace as lp

    sizes, vol, _, _ = lp.component_metrics(comp, count, grid)
    assert sizes.tolist() == [len(voxels_per_comp[c]) for c in range(count)]
    vol_sum = sum(float(v) for v in vol)
    expected = grid.num_active * grid.voxel_volume
    assert abs(vol_sum - expected) <= 1e-9 * expected, "subspace volumes must sum to the ROI volume"


def voxel_grid_ref(dims, resolution, boxes=()):
    """Active ``(indices, centers)`` from every voxel's index triple and center.

    ``boxes`` holds ``(lo, hi)`` corner pairs; a voxel is inactive when its
    center lies in a closed box.
    """

    res = np.asarray(resolution, dtype=float)
    ii, jj, kk = np.meshgrid(*(np.arange(n) for n in dims), indexing="ij")
    indices = np.stack([ii, jj, kk], axis=-1).astype(np.int64)
    centers = (indices + 0.5) * res
    active = np.ones(tuple(dims), dtype=bool)
    for lo, hi in boxes:
        active &= ~np.all((centers >= np.asarray(lo)) & (centers <= np.asarray(hi)), axis=-1)
    active_indices = np.argwhere(active).astype(np.int64)
    return active_indices, (active_indices + 0.5) * res


def run_components_ref(n, src, dst):
    """scipy's connected components of the undirected graph on ``n`` nodes with edges ``src[e]``-``dst[e]``.

    Returns the component count and each node's component, as
    ``scipy.sparse.csgraph.connected_components`` numbers them.
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    # CSR rows by source node, in scipy's own dtypes so that it copies nothing.
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    dst = dst[np.argsort(src, kind="stable")].astype(np.int32)
    graph = sparse.csr_matrix((np.ones(dst.size), dst, indptr), shape=(n, n))
    return csgraph.connected_components(graph, directed=False)


def occupied_subspaces_ref(centers, comp, lo, hi):
    """Distinct ids among the centers inside the closed box ``[lo, hi]``, by scanning every center."""
    found = set()
    for center, ident in zip(centers.tolist(), comp.tolist()):
        if all(lo[a] <= center[a] <= hi[a] for a in range(3)):
            found.add(ident)
    return len(found)


def component_color_ref(component):
    """Golden-angle hue for a component id, as an RGB byte triple."""
    h = (component * 0.6180339887498949) % 1.0
    s, v = 0.65, 0.95
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - s * f), v * (1 - s * (1 - f))
    rgb = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]
    return tuple(int(round(255 * c)) for c in rgb)


def voxel_export_ref(centers, labels, comp):
    """``(voxels.csv, voxels.ply)`` text, formatting every voxel's line on its own."""
    fmt = lambda value: repr(float(value))  # noqa: E731
    csv = ["x,y,z,code,component"]
    ply = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(centers)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    for center, code, ident in zip(centers, labels, comp):
        x, y, z = (fmt(c) for c in center)
        digits = "-".join(str(int(d)) for d in code)
        csv.append(f"{x},{y},{z},{digits},{int(ident)}")
        r, g, b = component_color_ref(int(ident))
        ply.append(f"{x} {y} {z} {r} {g} {b}")
    return "\n".join(csv) + "\n", "\n".join(ply) + "\n"


def vsr_odr_scatter_ref(models, grid, bounds, settings, seed, samples):
    """The VSR/ODR scatter loop as first written, spawning every seed up front.

    Child 0 of ``SeedSequence(seed).spawn(samples + 1)`` draws the decision
    vectors and child ``i + 1`` seeds sample ``i``'s trials.  Only the
    sampling is independent here: each sample is scored by the library.
    """

    import lidarplace as lp

    seeds = np.random.SeedSequence(seed).spawn(samples + 1)
    config_rng = np.random.default_rng(seeds[0])
    lower, upper = lp.decision_bounds(bounds, len(models))
    points = []
    for i in range(samples):
        poses = lp.poses_from_vector(config_rng.uniform(lower, upper), len(models))
        vsr = lp.max_vsr(poses, models, grid)
        report = lp.estimate_odr(poses, models, grid, settings, np.random.default_rng(seeds[i + 1]))
        points.append((vsr, report.odr))
    return points
