"""Incremental TSDF fusion and rear-side-voxel information gain.

The belief about the world is a pair of truncated signed distance grids: a
fine one around the target for grasping/IG, and a coarse whole-arena one for
navigation (see the harness).  This module is grid-agnostic: every operation
takes an explicit TsdfGrid.

Fusion (`integrate_depth`) projects only the voxels in the index box of the
view frustum, cut at camera depth `max_range + truncation`: a voxel outside
it rounds to no pixel or lies behind every hit's truncation band and every
carve, so the cull is exact.  The camera-frame coordinates come as three
contiguous columns of one `R @ (centers - p).T` product.

Information gain of a candidate camera pose is the number of distinct
unknown voxels inside the target bounding box that lie behind the first
observed surface along that pose's pixel rays: the voxels the view could
newly reveal.  `rear_side_ig_batch` scores many poses at once.  It culls the
pixel rays that cannot reach the (inflated) bounding box, traces the rest in
one exact batched traversal (`geom.traverse_batch`), and counts distinct
(camera, voxel) hits sparsely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    Aabb,
    CellState,
    Grid,
    Pose3,
    quat_conj,
    quat_to_matrix,
    ray_aabb_interval,
    traverse_batch,
)
from .scene import CameraIntrinsics, DepthImage

WEIGHT_CAP = 64.0


@dataclass
class TsdfGrid:
    """Voxel grid of (tsdf in [-1, 1], weight >= 0); weight 0 marks unknown."""

    grid: Grid  # cells float32, shape (nx, ny, nz, 2)
    truncation: float

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

    def state_volume(self) -> np.ndarray:
        """CellState codes for every voxel, shape (nx, ny, nz) uint8: FREE
        for a positive tsdf, OCCUPIED for one at or below 0, UNKNOWN at zero
        weight.

        One elementwise pass, UNKNOWN minus 2 (free) or 1 (occupied) where
        the weight is positive; a NaN tsdf subtracts nothing, so it stays
        UNKNOWN."""
        t = self.tsdf
        return np.uint8(CellState.UNKNOWN) - (self.weight > 0) * (np.uint8(2) * (t > 0) + (t <= 0))


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


def integrate_depth(tsdf: TsdfGrid, depth: DepthImage, cam: Pose3) -> TsdfGrid:
    """Weighted-average fusion of one depth image; mutates and returns `tsdf`.

    Voxels more than one truncation behind the measured surface are left
    untouched (they stay unknown until seen from elsewhere).  No-hit pixels
    carve free space out to the camera max range.

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
    """
    intr = depth.intrinsics
    g = tsdf.grid
    box = _frustum_voxels(g, cam, intr, intr.max_range + tsdf.truncation)
    if box is None:
        return tsdf
    shape = tuple(b.stop - b.start for b in box)
    if math.prod(shape) == 1:
        # a one-column product takes numpy's matrix-vector path, whose bits
        # can differ from the same column of a larger product
        box, shape = tuple(slice(0, n) for n in g.dims), g.dims
    # (3, nx, ny, nz) C-contiguous view; a proper sub-box is copied once
    cols = np.moveaxis(g.centers(), -1, 0)[(slice(None), *box)].reshape(3, -1)
    local = quat_to_matrix(quat_conj(cam.orientation)) @ (cols - cam.position[:, None])
    z = local[2]
    # voxels at or behind the optical center project to garbage, masked out
    # by `seen`; rounded pixel coordinates compare as floats, as integers
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v = (np.rint(c) for c in intr.project(local.T))
        pixel = v * intr.width + u
    seen = (z > 1e-9) & (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
    idx = None
    if not seen.all():
        idx = np.flatnonzero(seen)
        if idx.size == 0:
            return tsdf
        pixel, z = pixel[idx], z[idx]
    pix = np.take(depth.depths.reshape(-1), pixel.astype(np.intp))

    # a no-hit pixel (NaN) fails the band test; it carves out to max range
    sdf = pix - z
    hit = sdf >= -tsdf.truncation
    update = hit | (np.isnan(pix) & (z <= intr.max_range))
    t = tsdf.truncation
    val = np.where(hit[update], np.clip(sdf[update], -t, t) / t, 1.0).astype(np.float32)
    sel = np.flatnonzero(update)
    if idx is not None:
        sel = idx[sel]
    if shape != g.dims:
        sel = np.ravel_multi_index(tuple(i + b.start for i, b in
                                         zip(np.unravel_index(sel, shape), box)), g.dims)
    # (tsdf, weight) pairs are adjacent in the flat cell array
    flat = g.cells.reshape(-1)
    ti, wi = 2 * sel, 2 * sel + 1
    w = flat[wi]
    flat[ti] = (flat[ti] * w + val) / (w + 1.0)
    flat[wi] = np.minimum(w + 1.0, WEIGHT_CAP)
    return tsdf


def _bbox_mask(grid: Grid, bbox: Aabb) -> np.ndarray:
    """Boolean volume: voxel center inside bbox."""
    mx, my, mz = ((c >= lo) & (c <= hi)
                  for c, lo, hi in zip(grid.axis_centers(), bbox.lo, bbox.hi))
    return mx[:, None, None] & my[None, :, None] & mz[None, None, :]


def rear_side_ig_batch(tsdf: TsdfGrid, cams: list[Pose3], intr: CameraIntrinsics,
                       target_bbox: Aabb) -> np.ndarray:
    """Rear-side counts for many candidate camera poses in one traversal pass.

    Per ray: march through the grid until past the first observed-surface
    voxel, then every unknown voxel whose center lies in the target bbox
    counts once per camera.  Only rays that reach the bbox (inflated by one
    voxel diagonal) can count, so the work runs in three steps:

    1. cull: keep the pixels inside the image rectangle that bounds each
       camera's view of the inflated bbox (`CameraIntrinsics.box_pixels`),
       then the rays
       among them that `ray_aabb_interval` says hit the inflated bbox;
    2. trace: one `traverse_batch` pass over those rays, each clipped at its
       bbox exit or at the camera max range;
    3. count: each countable visit becomes the key `cam * n_vox + flat`, and
       `np.unique` + `np.bincount` count the distinct keys per camera.

    Culled rays would never visit a countable voxel, so the counts equal
    those of tracing every pixel ray.
    """
    n_cams = len(cams)
    if n_cams == 0:
        return np.zeros(0, dtype=np.int64)
    g = tsdf.grid
    states = tsdf.state_volume()
    # flat x-fastest views of the per-voxel predicates for cheap gathers
    occupied = np.asfortranarray(states == CellState.OCCUPIED).ravel(order="F")
    countable = np.asfortranarray((states == CellState.UNKNOWN)
                                  & _bbox_mask(g, target_bbox)).ravel(order="F")
    n_vox = countable.size

    box = target_bbox.inflated(g.cell_size * np.sqrt(3.0))
    corners = box.corners()
    keep = intr.box_pixels(np.stack([cam.inverse_transform(corners) for cam in cams]))

    dirs_cam = intr.pixel_dirs()
    dirs_cam = dirs_cam / np.linalg.norm(dirs_cam, axis=1, keepdims=True)
    # rotate the full pixel grid, then select: a matmul over a subset of rows
    # need not give the same bits as the full product
    dirs = np.concatenate([(dirs_cam @ cam.rotation_matrix().T)[pix]
                           for cam, pix in zip(cams, keep)])
    cam_of = np.repeat(np.arange(n_cams), [pix.size for pix in keep])
    origins = np.stack([cam.position for cam in cams])[cam_of]

    t_enter, t_exit = ray_aabb_interval(origins, dirs, box)
    reach = t_enter <= t_exit
    origins, dirs, key_base = origins[reach], dirs[reach], cam_of[reach] * n_vox
    t_max = np.minimum(t_exit[reach], intr.max_range)

    seen_surface = np.zeros(key_base.size, dtype=bool)
    keys = []
    for ids, ijk in traverse_batch(g, origins, dirs, t_max):
        flat = g.flat_index(ijk)
        hit = seen_surface[ids] & countable[flat]
        if hit.any():
            keys.append(key_base[ids[hit]] + flat[hit])
        seen_surface[ids[occupied[flat]]] = True

    if not keys:
        return np.zeros(n_cams, dtype=np.int64)
    cams_hit = np.unique(np.concatenate(keys)) // n_vox
    return np.bincount(cams_hit, minlength=n_cams).astype(np.int64)


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
    states = tsdf.state_volume()[:, :, band]
    cells = np.where((states == CellState.OCCUPIED).any(axis=2),
                     np.uint8(CellState.OCCUPIED), states.max(axis=2))
    return Grid(g.origin[:2].copy(), g.cell_size, g.dims[:2], cells)

