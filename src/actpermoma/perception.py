"""Incremental TSDF fusion and rear-side-voxel information gain.

The belief about the world is a pair of truncated signed distance grids: a
fine one around the target for grasping/IG, and a coarse whole-arena one for
navigation (see the harness).  This module is grid-agnostic: every operation
takes an explicit TsdfGrid.

Fusion (`integrate_depth`) projects only the voxels in the index box of the
view frustum, cut at camera depth `max_range + truncation`: a voxel outside
it rounds to no pixel or lies behind every hit's truncation band and every
carve, so the cull is exact.  The camera-frame coordinates come as three
contiguous columns of one `R @ (centers - p).T` product.  Every per-voxel
intermediate is written into a module-level scratch, one array per dtype
for the whole process, shared by both grids and grown to the largest box,
so a call allocates no array whose size grows with its box.  What a view
updates, and with what value, depends on the grid geometry, the pose and the
image alone: the image keeps this plan (`DepthImage.plans`), so a view that
reuses a kept image only updates the cells.

Information gain of a candidate camera pose is the number of distinct
unknown voxels inside the target bounding box that lie behind the first
observed surface along that pose's pixel rays: the voxels the view could
newly reveal.  `rear_side_ig_batch` scores many poses at once.  It culls the
pixel rays that cannot reach the (inflated) bounding box and traces the rest
in one exact batched traversal (`geom.traverse_batch`).  The voxels a pose's
rays visit depend on the geometry alone, so the grid caches them per exact
pose, bounded by IG_CACHE_VISITS, and a pose seen before is not traced
again.  Every call then counts distinct (camera, voxel) hits in one
vectorized pass over the visits of all its poses.  A count depends on the
cells too, so it is kept only where the harness asks for it: on the grid of
one belief state (`TsdfGrid.ig_counts`), which fusion drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import (
    Aabb,
    CellState,
    Grid,
    Pose3,
    keep,
    product_rows,
    quat_conj,
    quat_to_matrix,
    ray_aabb_interval,
    traverse_batch,
)
from .scene import CameraIntrinsics, DepthImage

WEIGHT_CAP = 64.0
# rear_side_ig_batch's ray-visit cache bound per grid: 2**18 uint16 voxel
# indices (512 KiB) plus a one-byte length per ray; the harness shares one
# among a scene's target grids.  A 302-step ActPerMoMa episode reuses as many
# poses under it as with no bound, which holds 3.4M.
IG_CACHE_VISITS = 1 << 18
# the views whose depth images, each with its fusion plans, the harness
# keeps per scene, shared by the episodes that run on it.  Within an episode
# a repeated view recurred within 5 distinct views in every episode
# measured, but the next episode on the scene repeats the first one's
# opening views: at 8 it finds only the last 8, and the 10-step ablation
# benchmark kept all its reuse from 12 up.  32 holds a typical real episode
# (25 steps or fewer) whole; a view with its two plans is ~270 KB, so 32
# take at most ~8.6 MB per process.
VIEW_CACHE_POSES = 32


@dataclass
class TsdfGrid:
    """Voxel grid of (tsdf in [-1, 1], weight >= 0); weight 0 marks unknown."""

    grid: Grid  # cells float32, shape (nx, ny, nz, 2)
    truncation: float
    # rear_side_ig_batch's ray visits per camera pose, least recently used
    # first; they depend only on the grid geometry.  Not `keep`'s: the bound
    # counts visits, not entries
    ray_visits: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # rear_side_ig_batch's counts per view of the cells as they are now, one
    # batch's cameras filled at once: None unless the harness attaches the
    # dict of this belief state, which `integrate_depth` drops before it
    # changes a cell, so a grid whose cells are written otherwise has none
    ig_counts: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = self.grid.cells
        if cells.dtype != np.float32 or not cells.flags.c_contiguous:
            raise ValueError("TsdfGrid cells must be a C-contiguous float32 array")

    @staticmethod
    def create(origin: np.ndarray, voxel_size: float, dims: tuple[int, int, int],
               truncation: float | None = None) -> "TsdfGrid":
        cells = np.zeros((*dims, 2), dtype=np.float32)
        return TsdfGrid(Grid(origin, voxel_size, dims, cells),
                        truncation if truncation is not None else 4.0 * voxel_size)

    @staticmethod
    def create_cube(center: np.ndarray, side: float, voxels_per_axis: int) -> "TsdfGrid":
        # thin truncation of two voxels: at desk scale a wider band punches
        # through the objects and marks their unseen rear faces as observed
        vs = side / voxels_per_axis
        origin = np.asarray(center, dtype=float) - side / 2.0
        return TsdfGrid.create(origin, vs, (voxels_per_axis,) * 3,
                               truncation=2.0 * vs)

    @property
    def tsdf(self) -> np.ndarray:
        return self.grid.cells[..., 0]

    @property
    def weight(self) -> np.ndarray:
        return self.grid.cells[..., 1]

    def states(self, index) -> np.ndarray:
        """CellState codes (uint8) of the voxels at numpy index `index`:
        FREE for a positive tsdf, OCCUPIED for one at or below 0, UNKNOWN at
        zero weight.

        One elementwise pass, UNKNOWN minus 2 (free) or 1 (occupied) where
        the weight is positive; a NaN tsdf subtracts nothing, so it stays
        UNKNOWN."""
        t = self.tsdf[index]
        return np.uint8(CellState.UNKNOWN) - (self.weight[index] > 0) * (
            np.uint8(2) * (t > 0) + (t <= 0))

    def state_volume(self) -> np.ndarray:
        """`states` of every voxel, shape (nx, ny, nz)."""
        return self.states(...)


def _frustum_voxels(g: Grid, cam: Pose3, intr: CameraIntrinsics,
                    far: float) -> tuple[slice, slice, slice] | None:
    """Index box of the voxels whose centers may lie in the view frustum cut
    at camera depth `far`, or None when it holds no voxel of `g`.

    The frustum is the pyramid from the optical center to the far-plane
    rectangle of the image widened by 1 px beyond the half pixel that
    rounding gives each edge pixel; the box is its world AABB on voxel
    centers, plus one voxel against rounding.
    """
    f = intr.focal
    cx, cy = (intr.width - 1) / 2.0, (intr.height - 1) / 2.0
    far_corners = np.array([[(u - cx) / f * far, (v - cy) / f * far, far]
                            for u in (-1.5, intr.width + 0.5) for v in (-1.5, intr.height + 0.5)])
    pts = np.vstack([cam.transform(far_corners), cam.position])
    lo = np.maximum(g.world_to_index(pts.min(axis=0)) - 1, 0)
    hi = np.minimum(g.world_to_index(pts.max(axis=0)) + 1, np.asarray(g.dims) - 1)
    if (lo > hi).any():
        return None
    return tuple(slice(a, b + 1) for a, b in zip(lo, hi))


# integrate_depth's work arrays, by dtype.  They hold no state between calls,
# but one fusion at a time may use them (the harness runs no threads).  One
# set per process rather than per grid, so the two grids share the memory of
# the larger box instead of each holding its own.
_SCRATCH: dict[type, np.ndarray] = {}


def _scratch(dtype: type, size: int) -> np.ndarray:
    """The first `size` items of this process's 1-D work array of `dtype`,
    contents undefined.  One array per dtype serves every grid and is
    reallocated only to grow, so it settles at the largest frustum box."""
    buf = _SCRATCH.get(dtype)
    if buf is None or buf.size < size:
        buf = _SCRATCH[dtype] = np.empty(size, dtype)
    return buf[:size]


_VOXEL_IDS: dict[tuple, np.ndarray] = {}


def _voxel_ids(dims: tuple[int, ...]) -> np.ndarray:
    """Read-only C-order flat id of every voxel of a grid of `dims`, in
    the smallest unsigned type that holds them (uint16 for 40^3 voxels);
    the last 4 shapes are kept (`keep`)."""
    n = math.prod(dims)
    return keep(_VOXEL_IDS, tuple(dims),
                lambda: np.arange(n, dtype=np.min_scalar_type(n)).reshape(dims), 4)


def _fusion_plan(tsdf: TsdfGrid, depth: DepthImage, cam: Pose3
                 ) -> tuple[np.ndarray, np.ndarray]:
    """What one view fuses, before any cell is read: the C-order flat
    indices of the voxels it updates (`_voxel_ids`) and the float32 value
    it fuses into each, the clipped signed distance over the truncation or
    1.0 for a carve.  It depends on the grid geometry, the pose and the
    image alone.

    Only the voxels of the index box of the view frustum cut at camera depth
    `max_range + truncation` (`_frustum_voxels`) are projected.  A voxel
    outside it either rounds to no pixel, or lies deeper than `pix +
    truncation` for every hit depth `pix <= max_range` and deeper than every
    carve, so skipping it changes no cell.  The camera-frame coordinates are
    three contiguous columns of one `R @ (centers - p).T` product; numpy's
    matrix product gives each column of it the bits of the same row of the
    row-wise `(centers - p) @ R.T` over the whole grid, except for a single
    column, which goes through matrix-vector code (`tests/test_sensing_oracle.py`
    checks the fused cells against the unculled row-wise fusion).

    Every box-sized intermediate goes with `out=` into the process's scratch
    (`_scratch`); each (3, n) block of it is contiguous, as a fresh product
    would be.  The elementwise steps are the same ufuncs on the same
    operands as on freshly allocated arrays, so the scratch changes no bit.
    An unseen voxel's pixel index is garbage until the update mask drops
    it, so the depths are gathered with `np.take(mode="clip")`, which also
    writes straight into its `out` (with `mode="raise"` it buffers it).
    """
    intr = depth.intrinsics
    g = tsdf.grid
    t = tsdf.truncation
    box = _frustum_voxels(g, cam, intr, intr.max_range + t)
    if box is None:
        return np.zeros(0, np.intp), np.zeros(0, np.float32)
    shape = tuple(b.stop - b.start for b in box)
    if math.prod(shape) == 1:
        # a one-column product takes numpy's matrix-vector path, whose bits
        # can differ from the same column of a larger product
        box, shape = tuple(slice(0, n) for n in g.dims), g.dims
    n = math.prod(shape)
    # scratch rows, voxels in the C order of the box: `diff` holds cols - p,
    # then (u, v) and the depths; `local` the camera-frame (x, y, z)
    diff, local = _scratch(np.float64, 6 * n).reshape(2, 3, n)
    seen, hit, update, mask = _scratch(np.bool_, 4 * n).reshape(4, n)
    # the box of the (3, nx, ny, nz) centers view, read in place
    np.subtract(np.moveaxis(g.centers, -1, 0)[(slice(None), *box)],
                cam.position[:, None, None, None], out=diff.reshape(3, *shape))
    np.matmul(quat_to_matrix(quat_conj(cam.orientation)), diff, out=local)
    z = local[2]
    u, v, pix = diff
    # voxels at or behind the optical center project to garbage, masked out
    # by `seen`; rounded pixel coordinates compare as floats, as integers
    with np.errstate(divide="ignore", invalid="ignore"):
        intr.project(local.T, out=diff[:2])
        np.greater(z, 1e-9, out=seen)
        for c, size in ((u, intr.width), (v, intr.height)):
            np.rint(c, out=c)
            seen &= np.greater_equal(c, 0, out=mask)
            seen &= np.less(c, size, out=mask)
        # the pixel index; an unseen voxel's garbage index is clipped by take
        np.multiply(v, intr.width, out=v)
        np.add(v, u, out=v)
        pixel = _scratch(np.intp, n)
        np.copyto(pixel, v, casting="unsafe")
    np.take(depth.depths.reshape(-1), pixel, out=pix, mode="clip")

    # a no-hit pixel (NaN) fails the band test; it carves out to max range
    np.isnan(pix, out=update)
    update &= np.less_equal(z, intr.max_range, out=mask)
    sdf = np.subtract(pix, z, out=pix)
    np.greater_equal(sdf, -t, out=hit)
    update |= hit
    update &= seen
    val = _scratch(np.float32, n)
    np.divide(np.clip(sdf, -t, t, out=sdf), t, out=sdf)
    val.fill(1.0)
    np.copyto(val, sdf, casting="same_kind", where=hit)
    return _voxel_ids(g.dims)[box].reshape(-1)[update], val[update]


def _fuse_plan(tsdf: TsdfGrid, voxels: np.ndarray, values: np.ndarray) -> None:
    """The cell update of one view's `_fusion_plan`: each planned voxel
    takes the weighted average of its tsdf and its value, and its weight
    grows by one up to WEIGHT_CAP.

    The planned voxels' (tsdf, weight) pairs are gathered into the
    process's scratch, updated there and scattered back, so the update
    allocates no array whose size grows with the view.  Its float32 ufuncs
    are elementwise, so a voxel's new bits do not depend on which other
    voxels are updated with it."""
    m = voxels.size
    if m == 0:
        return
    # each voxel's (tsdf, weight) pair moves as one 8-byte word; a
    # C-contiguous grid (TsdfGrid checks) views as one word per voxel
    words = tsdf.grid.cells.view(np.uint64).reshape(-1)
    # intp rows, so that neither the gather nor the write converts them
    rows = _scratch(np.intp, m)
    np.copyto(rows, voxels)
    # the words go into the float64 scratch, idle once a plan is built
    work = _scratch(np.float64, m).view(np.uint64)
    # mode="raise" would buffer `out`; the rows are all valid
    np.take(words, rows, out=work, mode="clip")
    pair = work.view(np.float32).reshape(m, 2)
    old_tsdf, old_weight = pair[:, 0], pair[:, 1]
    new_weight = _scratch(np.float32, m)
    np.add(old_weight, 1.0, out=new_weight)
    np.divide(np.add(np.multiply(old_tsdf, old_weight, out=old_tsdf), values, out=old_tsdf),
              new_weight, out=old_tsdf)
    np.minimum(new_weight, WEIGHT_CAP, out=old_weight)
    # a fancy-index write: about 3x faster than np.put here
    words[rows] = work


def integrate_depth(tsdf: TsdfGrid, depth: DepthImage, cam: Pose3) -> TsdfGrid:
    """Weighted-average fusion of one depth image; mutates and returns `tsdf`.

    Voxels more than one truncation behind the measured surface are left
    untouched (they stay unknown until seen from elsewhere).  No-hit pixels
    carve free space out to the camera max range.  The grid's IG counts
    (`TsdfGrid.ig_counts`) describe the cells before the view, so they go.

    A view's fusion is its plan (`_fusion_plan`: which voxels it updates and
    with what value), then the cell update (`_fuse_plan`).  The plan reads
    no cell, so the image keeps it (`DepthImage.plans`, read-only arrays)
    under the grid geometry and the exact pose bytes.  Fusing a kept image
    again from the same pose into a grid of the same geometry runs only the
    cell update; any other view builds its plan first.
    """
    tsdf.ig_counts = None
    g = tsdf.grid
    key = (g.origin.tobytes(), g.cell_size, g.dims, tsdf.truncation, *cam.key())
    _fuse_plan(tsdf, *keep(depth.plans, key, lambda: _fusion_plan(tsdf, depth, cam)))
    return tsdf


def _bbox_mask(grid: Grid, bbox: Aabb) -> np.ndarray:
    """Boolean volume: voxel center inside bbox."""
    mx, my, mz = ((c >= lo) & (c <= hi)
                  for c, lo, hi in zip(grid.axis_centers(), bbox.lo, bbox.hi))
    return mx[:, None, None] & my[None, :, None] & mz[None, None, :]


def _trace_visits(g: Grid, cams: list[Pose3], intr: CameraIntrinsics, box: Aabb
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per camera, the voxels its pixel rays visit on their way to `box`.

    The rays that reach `box` run to their exit from it or to the camera max
    range.  A camera's visits are `(flat, lens)`: the C-order ids of the
    visited voxels, ray after ray, each ray's in hit order, and the number
    of visits of each of its rays.
    """
    corners = box.corners()
    keep = intr.box_pixels(np.stack([cam.inverse_transform(corners) for cam in cams]))

    dirs_cam = intr.pixel_dirs()
    dirs_cam = dirs_cam / np.linalg.norm(dirs_cam, axis=1, keepdims=True)
    # only the kept rays are rotated, with the bits of the full product's rows
    dirs = np.concatenate([product_rows(dirs_cam, pix, cam.rotation_matrix().T)
                           for cam, pix in zip(cams, keep)])
    cam_of = np.repeat(np.arange(len(cams)), [pix.size for pix in keep])
    origins = np.stack([cam.position for cam in cams])[cam_of]

    t_enter, t_exit = ray_aabb_interval(origins, dirs, box)
    reach = t_enter <= t_exit
    t_max = np.minimum(t_exit[reach], intr.max_range)

    # (iteration, ray) table of the visited voxels, n_vox once a ray is done;
    # a DDA ray visits at most sum(dims) voxels
    n_vox = math.prod(g.dims)
    visited = np.full((sum(g.dims), int(np.count_nonzero(reach))), n_vox,
                      dtype=np.min_scalar_type(n_vox))
    n_iter = 0
    for ids, flat in traverse_batch(g, origins[reach], dirs[reach], t_max):
        visited[n_iter, ids] = flat
        n_iter += 1
    # every ray starts at the first iteration and, once done, never returns,
    # so row r of the transpose holds ray r's visits in hit order, then fill
    visited = visited[:n_iter].T
    alive = visited != n_vox
    lens = np.count_nonzero(alive, axis=1).astype(np.min_scalar_type(sum(g.dims)))
    ray_ends = np.cumsum(np.bincount(cam_of[reach], minlength=len(cams)))[:-1]
    visit_ends = np.r_[0, np.cumsum(lens, dtype=np.int64)][ray_ends]
    # copies, so that evicting one pose frees its memory
    return [(f.copy(), n.copy()) for f, n in zip(np.split(visited[alive], visit_ends),
                                                 np.split(lens, ray_ends))]


def rear_side_ig_batch(tsdf: TsdfGrid, cams: list[Pose3], intr: CameraIntrinsics,
                       target_bbox: Aabb) -> np.ndarray:
    """Rear-side counts for many candidate camera poses.

    Per ray: march through the grid until past the first observed-surface
    voxel, then every unknown voxel whose center lies in the target bbox
    counts once per camera.  Only rays that reach the bbox (inflated by one
    voxel diagonal) can count, so the work runs in three steps:

    1. cull: keep the pixels inside the image rectangle that bounds each
       camera's view of the inflated bbox (`CameraIntrinsics.box_pixels`),
       then the rays among them that `ray_aabb_interval` says hit the
       inflated bbox;
    2. trace: one `traverse_batch` pass over those rays, each clipped at its
       bbox exit or at the camera max range, records the C-order ids of the
       voxels each ray visits, in hit order;
    3. count, in one pass over the visits of all cameras: gather `occupied`
       and `countable` at every visit from flat views of the state volume
       and the bbox mask, which those ids index directly; a visit sees a
       surface when an earlier visit of its ray was occupied (an exclusive
       cumulative-any along each ray); each countable visit that sees one
       becomes the key `cam * n_vox + flat`; sorted, a key that differs
       from its predecessor is a distinct one, and `np.bincount` counts
       those per camera (without `np.unique`, whose masked-array check
       imports `numpy.ma` on first use).

    Steps 1 and 2 read only the geometry, never the voxel states, so their
    visits are cached on `tsdf` (`TsdfGrid.ray_visits`) under the exact
    bytes of the camera pose, the intrinsics and the inflated bbox, and
    only the cameras not in the cache are traced.  The harness gives a
    scene's target grids one cache, so an episode reuses the visits of the
    poses an earlier one on the scene scored.  The cache keeps voxel
    ids in the smallest unsigned type that holds them (uint16 for 40^3
    voxels) and drops its least recently used poses beyond IG_CACHE_VISITS
    visits, each pose counting one more.  Culled rays would never visit a
    countable voxel, so the counts equal those of tracing every pixel ray.

    A camera's count depends on its rays and the cells alone.  With a
    counts dict on the grid (`TsdfGrid.ig_counts`, which the harness shares
    among the episodes on a scene that reach the same views), a camera
    counted before under the same key and target bbox bytes takes its count
    from it, and only the others run the three steps.
    """
    g = tsdf.grid
    box = target_bbox.inflated(g.cell_size * np.sqrt(3.0))
    view = (intr, box.lo.tobytes(), box.hi.tobytes())
    keys = [(*cam.key(), *view) for cam in cams]
    memo = tsdf.ig_counts
    bbox = (target_bbox.lo.tobytes(), target_bbox.hi.tobytes())
    counts = [None if memo is None else memo.get((k, bbox)) for k in keys]
    missed = [c for c, n in enumerate(counts) if n is None]
    if missed:
        fresh = _rear_side_counts(tsdf, [cams[c] for c in missed], [keys[c] for c in missed],
                                  intr, box, target_bbox)
        for c, n in zip(missed, fresh.tolist()):
            counts[c] = n
            if memo is not None:
                memo[keys[c], bbox] = n
    return np.array(counts, dtype=np.int64)


def _rear_side_counts(tsdf: TsdfGrid, cams: list[Pose3], keys: list[tuple],
                      intr: CameraIntrinsics, box: Aabb, target_bbox: Aabb) -> np.ndarray:
    """Steps 1-3 of `rear_side_ig_batch` for `cams`, whose ray-visit keys
    are `keys` and whose rays are culled to the inflated bbox `box`."""
    n_cams = len(cams)
    g = tsdf.grid
    cache = tsdf.ray_visits
    visits = [cache.get(k) for k in keys]
    missed = [c for c, v in enumerate(visits) if v is None]
    if missed:
        for c, v in zip(missed, _trace_visits(g, [cams[c] for c in missed], intr, box)):
            visits[c] = v
    # this call's poses become the most recently used, then the oldest go
    for k, v in zip(keys, visits):
        cache.pop(k, None)
        cache[k] = v
    if missed:
        # a pose counts one more than its visits, so poses whose rays all
        # miss the box still fill the cache
        total = sum(f.size + 1 for f, _ in cache.values())
        while total > IG_CACHE_VISITS:
            total -= cache.pop(next(iter(cache)))[0].size + 1

    states = tsdf.state_volume().reshape(-1)
    occupied = states == CellState.OCCUPIED
    countable = (states == CellState.UNKNOWN) & _bbox_mask(g, target_bbox).reshape(-1)
    n_vox = countable.size

    flat = np.concatenate([f for f, _ in visits])
    lens = np.concatenate([n for _, n in visits])
    ray_start = np.cumsum(lens, dtype=np.int64) - lens
    # a ray sees a surface after its first occupied visit: the first occupied
    # position at or after its start, when that lies inside the ray
    occ = np.flatnonzero(occupied.take(flat))
    first = np.append(occ, flat.size)[np.searchsorted(occ, ray_start)]
    blind = np.minimum(first + 1 - ray_start, lens)
    seen = np.repeat(np.tile([False, True], lens.size),
                     np.stack([blind, lens - blind], axis=1).ravel())
    hit = np.flatnonzero(seen & countable.take(flat))
    if hit.size == 0:
        return np.zeros(n_cams, dtype=np.int64)
    cam_ends = np.cumsum([f.size for f, _ in visits])
    keys = np.searchsorted(cam_ends, hit, side="right") * n_vox + flat[hit]
    keys.sort()
    distinct = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return np.bincount(keys[distinct] // n_vox, minlength=n_cams).astype(np.int64)


def project_occupancy(tsdf: TsdfGrid, robot_height_band: tuple[float, float]) -> Grid:
    """Column-reduce a z-band of the grid to a 2D navigation map.

    Occupied wins over anything; a cell is Free only when the whole band in
    that column is observed free; otherwise Unknown.  Without an occupied
    voxel the column's largest code is its state (FREE < UNKNOWN).
    """
    g = tsdf.grid
    z_lo, z_hi = robot_height_band
    zc = g.axis_centers()[2]
    band = (zc >= z_lo) & (zc <= z_hi)
    if not band.any():
        raise ValueError("height band outside the grid z extent")
    states = tsdf.states((slice(None), slice(None), band))
    cells = np.where((states == CellState.OCCUPIED).any(axis=2),
                     np.uint8(CellState.OCCUPIED), states.max(axis=2))
    return Grid(g.origin[:2].copy(), g.cell_size, g.dims[:2], cells)

