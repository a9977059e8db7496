"""Incremental TSDF fusion and rear-side-voxel information gain.

The belief about the world is a pair of truncated signed distance grids: a
fine one around the target for grasping/IG, and a coarse whole-arena one for
navigation (see the harness).  This module is grid-agnostic: every operation
takes an explicit TsdfGrid.

Information gain of a candidate camera pose is the number of distinct
unknown voxels inside the target bounding box that lie behind the first
observed surface along that pose's pixel rays: the voxels the view could
newly reveal.  `rear_side_ig_batch` scores many poses at once.  It culls the
pixel rays that cannot reach the (inflated) bounding box, traces the rest in
one exact batched traversal (`geom.traverse_batch`), and counts distinct
(camera, voxel) hits sparsely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .geom import (
    Aabb,
    CellState,
    OccupancyGrid2,
    Pose3,
    VoxelGrid3,
    ray_aabb_interval,
    traverse_batch,
)
from .scene import CameraIntrinsics, DepthImage

WEIGHT_CAP = 64.0


class VoxelState(IntEnum):
    UNKNOWN = 0
    FREE = 1
    OCCUPIED_SURFACE = 2


@dataclass
class TsdfGrid:
    """Voxel grid of (tsdf in [-1, 1], weight >= 0); weight 0 marks unknown."""

    grid: VoxelGrid3  # cells float32, shape (nx, ny, nz, 2)
    truncation: float

    @staticmethod
    def create(origin: np.ndarray, voxel_size: float, dims: tuple[int, int, int],
               truncation: float | None = None) -> "TsdfGrid":
        cells = np.zeros((*dims, 2), dtype=np.float32)
        return TsdfGrid(VoxelGrid3(origin, voxel_size, dims, cells),
                        truncation if truncation is not None else 4.0 * voxel_size)

    @staticmethod
    def create_cube(center: np.ndarray, side: float, voxels_per_axis: int,
                    truncation_voxels: float = 2.0) -> "TsdfGrid":
        # thin truncation: at desk scale a wider band punches through the
        # objects and marks their unseen rear faces as observed
        vs = side / voxels_per_axis
        origin = np.asarray(center, dtype=float) - side / 2.0
        return TsdfGrid.create(origin, vs, (voxels_per_axis,) * 3,
                               truncation=truncation_voxels * vs)

    @property
    def tsdf(self) -> np.ndarray:
        return self.grid.cells[..., 0]

    @property
    def weight(self) -> np.ndarray:
        return self.grid.cells[..., 1]

    def copy(self) -> "TsdfGrid":
        g = self.grid
        return TsdfGrid(VoxelGrid3(g.origin.copy(), g.voxel_size, g.dims, g.cells.copy()),
                        self.truncation)

    def state_volume(self) -> np.ndarray:
        """VoxelState codes for every voxel, shape (nx, ny, nz) uint8."""
        out = np.zeros(self.grid.dims, dtype=np.uint8)
        observed = self.weight > 0
        out[observed & (self.tsdf > 0)] = VoxelState.FREE
        out[observed & (self.tsdf <= 0)] = VoxelState.OCCUPIED_SURFACE
        return out


def integrate_depth(tsdf: TsdfGrid, depth: DepthImage, cam: Pose3) -> TsdfGrid:
    """Weighted-average fusion of one depth image; mutates and returns `tsdf`.

    Voxels more than one truncation behind the measured surface are left
    untouched (they stay unknown until seen from elsewhere).  No-hit pixels
    carve free space out to the camera max range.
    """
    intr = depth.intrinsics
    g = tsdf.grid
    centers = g.centers().reshape(-1, 3)
    local = cam.inverse_transform(centers)
    front = np.nonzero(local[:, 2] > 1e-9)[0]
    if front.size == 0:
        return tsdf
    # np.take: a row gather by fancy indexing takes ~4x longer
    local = np.take(local, front, axis=0)
    z = local[:, 2]
    u, v = (np.rint(c).astype(np.int64) for c in intr.project(local))
    in_image = (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)

    idx = front[in_image]
    if idx.size == 0:
        return tsdf
    pix = depth.depths[v[in_image], u[in_image]]
    vz = z[in_image]

    no_hit = np.isnan(pix)
    sdf = pix - vz
    update = np.zeros(idx.size, dtype=bool)
    value = np.zeros(idx.size, dtype=np.float32)

    hit = ~no_hit & (sdf >= -tsdf.truncation)
    value[hit] = np.clip(sdf[hit], -tsdf.truncation, tsdf.truncation) / tsdf.truncation
    update |= hit

    carve = no_hit & (vz <= intr.max_range)
    value[carve] = 1.0
    update |= carve

    sel = idx[update]
    val = value[update]
    flat = g.cells.reshape(-1, 2)
    w = flat[sel, 1]
    flat[sel, 0] = (flat[sel, 0] * w + val) / (w + 1.0)
    flat[sel, 1] = np.minimum(w + 1.0, WEIGHT_CAP)
    return tsdf


def _bbox_mask(grid: VoxelGrid3, bbox: Aabb) -> np.ndarray:
    """Boolean volume: voxel center inside bbox."""
    nx, ny, nz = grid.dims
    ax = [grid.origin[a] + (np.arange(grid.dims[a]) + 0.5) * grid.voxel_size for a in range(3)]
    mx = (ax[0] >= bbox.lo[0]) & (ax[0] <= bbox.hi[0])
    my = (ax[1] >= bbox.lo[1]) & (ax[1] <= bbox.hi[1])
    mz = (ax[2] >= bbox.lo[2]) & (ax[2] <= bbox.hi[2])
    return mx[:, None, None] & my[None, :, None] & mz[None, None, :]


def _box_pixels(cams: list[Pose3], intr: CameraIntrinsics, box: Aabb) -> np.ndarray:
    """(n_cams, n_pix) mask of the pixels whose rays can reach `box`.

    A pixel ray that meets the box meets it at a point whose projection is
    the pixel itself, and every box point projects inside the rectangle that
    bounds the projected corners.  So the mask keeps that rectangle, widened
    by 1 px against rounding.  It keeps every pixel of a camera that has a
    corner at or behind the plane of its optical center (camera z <= 1e-9),
    where the projection of the corners does not bound the box's image.
    """
    corners = np.array(list(itertools.product(*zip(box.lo, box.hi))))
    local = np.stack([cam.inverse_transform(corners) for cam in cams])
    z = local[..., 2]
    behind = (z <= 1e-9).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v = intr.project(local)
    # pixel_dirs() order is row-major (v, u)
    pu = np.tile(np.arange(intr.width), intr.height)
    pv = np.repeat(np.arange(intr.height), intr.width)
    keep = ((pu >= u.min(axis=1)[:, None] - 1.0) & (pu <= u.max(axis=1)[:, None] + 1.0)
            & (pv >= v.min(axis=1)[:, None] - 1.0) & (pv <= v.max(axis=1)[:, None] + 1.0))
    keep[behind] = True
    return keep


def rear_side_ig_batch(tsdf: TsdfGrid, cams: list[Pose3], intr: CameraIntrinsics,
                       target_bbox: Aabb) -> np.ndarray:
    """Rear-side counts for many candidate camera poses in one traversal pass.

    Per ray: march through the grid until past the first observed-surface
    voxel, then every unknown voxel whose center lies in the target bbox
    counts once per camera.  Only rays that reach the bbox (inflated by one
    voxel diagonal) can count, so the work runs in three steps:

    1. cull: keep the pixels inside the image rectangle that bounds each
       camera's view of the inflated bbox (`_box_pixels`), then the rays
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
    occupied = np.asfortranarray(states == VoxelState.OCCUPIED_SURFACE).ravel(order="F")
    countable = np.asfortranarray((states == VoxelState.UNKNOWN)
                                  & _bbox_mask(g, target_bbox)).ravel(order="F")
    n_vox = countable.size

    box = target_bbox.inflated(g.voxel_size * np.sqrt(3.0))
    keep = _box_pixels(cams, intr, box)

    dirs_cam = intr.pixel_dirs()
    dirs_cam = dirs_cam / np.linalg.norm(dirs_cam, axis=1, keepdims=True)
    # rotate the full pixel grid, then select: a matmul over a subset of rows
    # need not give the same bits as the full product
    dirs = np.concatenate([(dirs_cam @ cam.rotation_matrix().T)[keep[c]]
                           for c, cam in enumerate(cams)])
    cam_of = np.repeat(np.arange(n_cams), keep.sum(axis=1))
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


def project_occupancy(tsdf: TsdfGrid, robot_height_band: tuple[float, float]) -> OccupancyGrid2:
    """Column-reduce a z-band of the grid to a 2D navigation map.

    Occupied wins over anything; a cell is Free only when the whole band in
    that column is observed free; otherwise Unknown.
    """
    g = tsdf.grid
    z_lo, z_hi = robot_height_band
    zc = g.origin[2] + (np.arange(g.dims[2]) + 0.5) * g.voxel_size
    band = (zc >= z_lo) & (zc <= z_hi)
    if not band.any():
        raise ValueError("height band outside the grid z extent")
    states = tsdf.state_volume()[:, :, band]
    occ_any = (states == VoxelState.OCCUPIED_SURFACE).any(axis=2)
    all_free = (states == VoxelState.FREE).all(axis=2)
    cells = np.full(states.shape[:2], CellState.UNKNOWN, dtype=np.uint8)
    cells[all_free] = CellState.FREE
    cells[occ_any] = CellState.OCCUPIED
    return OccupancyGrid2(g.origin[:2].copy(), g.voxel_size, g.dims[:2], cells)

