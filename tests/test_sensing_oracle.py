"""Bit-exactness of the culled sensing step.

`scene.render_depth` tests each primitive only on the pixels of its image
rectangle (the floor only where it can be the nearest hit in range), one
kernel pass per shape, `perception.integrate_depth` projects only the voxels
of the view frustum's index box, and `geom.ray_aabb_interval` chains its
axes column by column.  None of these may change a bit.  The references below are the
unculled forms: every primitive against every pixel, every voxel projected
through the row-wise `(centers - p) @ R.T`, and the slab test reduced over
(n, 3) arrays.  After each view of a sequence, the depth image and the
`cells` of a target and a navigation grid must equal theirs exactly.

A repeated view reuses the harness's cached depth image and each grid's
cached fusion plan.  Over pose walks that stay, oscillate and revisit a pose
after it was evicted, the cached sensing must equal a fresh render and a
fresh fusion bit for bit, with read-only cached arrays and bounded caches.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actpermoma import harness, perception
from actpermoma import scene as scene_module
from actpermoma.geom import Aabb, Grid, Pose3, look_at, ray_aabb_interval
from actpermoma.harness import NAV_CELL, NAV_Z_VOXELS, TARGET_GRID_SIDE, TARGET_GRID_VOXELS
from actpermoma.perception import (
    VIEW_CACHE_POSES,
    WEIGHT_CAP,
    TsdfGrid,
    _frustum_voxels,
    integrate_depth,
)
from actpermoma.scene import (
    ARENA_HALF,
    DEFAULT_INTRINSICS,
    TABLE_HEIGHT,
    Box,
    CameraIntrinsics,
    Cylinder,
    DepthImage,
    Primitive,
    SceneKind,
    Tag,
    _box_hits,
    generate_scene,
    primitive_ray_hits,
    render_depth,
)

INTR = DEFAULT_INTRINSICS
NAV_DIMS = (int(2 * ARENA_HALF / NAV_CELL), int(2 * ARENA_HALF / NAV_CELL), NAV_Z_VOXELS)
NAV_TRUNCATION = 4.0 * NAV_CELL
AXES = np.eye(3)


# ---------------------------------------------------------------------------
# unculled references
# ---------------------------------------------------------------------------

def copy_tsdf(tsdf: TsdfGrid) -> TsdfGrid:
    g = tsdf.grid
    return TsdfGrid(Grid(g.origin.copy(), g.cell_size, g.dims, g.cells.copy()),
                    tsdf.truncation)


def reference_render(scene, cam: Pose3, intr) -> np.ndarray:
    dirs_world = intr.pixel_dirs() @ cam.rotation_matrix().T
    origins = np.broadcast_to(cam.position, dirs_world.shape)
    best = np.full(dirs_world.shape[0], np.inf)
    for prim in scene.primitives:
        best = np.minimum(best, primitive_ray_hits(prim, origins, dirs_world))
    return np.where(best <= intr.max_range, best, np.nan).reshape(intr.height, intr.width)


def reference_integrate(tsdf: TsdfGrid, depth: DepthImage, cam: Pose3) -> None:
    intr = depth.intrinsics
    g = tsdf.grid
    i, j, k = np.meshgrid(*(np.arange(n) for n in g.dims), indexing="ij")
    centers = g.index_to_world_center(np.stack([i, j, k], axis=-1)).reshape(-1, 3)
    local = cam.inverse_transform(centers)
    front = np.nonzero(local[:, 2] > 1e-9)[0]
    if front.size == 0:
        return
    local = np.take(local, front, axis=0)
    z = local[:, 2]
    u, v = (np.rint(c).astype(np.int64) for c in intr.project(local))
    in_image = (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
    idx = front[in_image]
    if idx.size == 0:
        return
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


def reference_slabs(origins: np.ndarray, directions: np.ndarray, box: Aabb):
    o = np.atleast_2d(np.asarray(origins, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        lo = (box.lo - o) * inv
        hi = (box.hi - o) * inv
    zero = d == 0.0
    if zero.any():
        inside = (o >= box.lo) & (o <= box.hi)
        lo = np.where(zero, -np.inf, lo)
        hi = np.where(zero, np.where(inside, np.inf, -np.inf), hi)
    t_enter = np.maximum(np.minimum(lo, hi).max(axis=1), 0.0)
    t_exit = np.maximum(lo, hi).min(axis=1)
    return t_enter, t_exit


# ---------------------------------------------------------------------------
# views: (extra primitives, camera pose)
# ---------------------------------------------------------------------------

coord = st.floats(-1.0, 1.0)


def _look_along_axis(draw, pos: np.ndarray) -> Pose3:
    """Camera at `pos` looking horizontally along a drawn world axis."""
    return look_at(pos, pos + draw(st.sampled_from([-1.0, 1.0])) * AXES[draw(st.sampled_from([0, 1]))])


def _grazing_box(draw, cam: Pose3) -> Primitive:
    """An axis-aligned box with one corner on the ray of a drawn pixel: the
    corner that projects to the box's image extremes, so the pixel lies on
    the border of the box's image rectangle and its ray only grazes the box."""
    pu = draw(st.integers(3, INTR.width - 4))
    pv = draw(st.integers(3, INTR.height - 4))
    corner_cam = draw(st.floats(0.6, 1.6)) * INTR.pixel_dirs()[pv * INTR.width + pu]
    # toward the camera from a far-face corner, away from a near-face one;
    # sideways on the side that keeps the corner extreme in u and v
    ext = np.array([np.sign(corner_cam[0]) or 1.0, np.sign(corner_cam[1]) or 1.0, -1.0])
    if not draw(st.booleans()):
        ext = -ext
    size = np.array([draw(st.floats(0.05, 0.3)) for _ in range(3)])
    # the camera is axis-aligned, so the box is axis-aligned in the world
    step = cam.rotation_matrix() @ (ext * size)
    center = cam.transform(corner_cam) + step / 2.0
    return Primitive(Box(np.abs(step) / 2.0), Pose3(center, np.array([1.0, 0.0, 0.0, 0.0])),
                     Tag.OBSTACLE)


@st.composite
def views(draw, scene):
    kind = draw(st.sampled_from(["around_target", "inside_aabb", "near_box", "straight_down",
                                 "axis_aligned", "sky", "grazing", "far_wall"]))
    extra: tuple[Primitive, ...] = ()
    if kind == "around_target":
        az = draw(st.floats(0.0, 2 * np.pi))
        pos = scene.target_center + np.array([draw(st.floats(0.5, 2.0)) * np.cos(az),
                                              draw(st.floats(0.5, 2.0)) * np.sin(az),
                                              draw(st.floats(0.0, 0.9))])
        cam = look_at(pos, scene.target_center + 0.1 * np.array([draw(coord) for _ in range(3)]))
    elif kind == "inside_aabb":
        # the optical center inside a primitive's AABB: its corners straddle
        # the image plane and every pixel is tested
        prim = draw(st.sampled_from([p for p in scene.primitives if p.tag is not Tag.FLOOR]))
        box = prim.world_aabb
        pos = box.lo + (box.hi - box.lo) * np.array([draw(st.floats(0.05, 0.95))
                                                     for _ in range(3)])
        cam = look_at(pos, pos + np.array([draw(coord), draw(coord), draw(coord) - 1.5]))
    elif kind == "near_box":
        # over the table near its edge, looking across it: the table's near
        # corners lie behind the camera
        side = draw(st.sampled_from([-1.0, 1.0]))
        pos = np.array([side * draw(st.floats(0.1, 0.38)), draw(coord) * 0.3,
                        draw(st.floats(0.8, 1.2))])
        cam = look_at(pos, np.array([-side * 0.6, draw(coord), draw(st.floats(0.4, 0.9))]))
    elif kind == "straight_down":
        pos = np.array([draw(coord) * 2.5, draw(coord) * 2.5, draw(st.floats(0.9, 2.5))])
        cam = look_at(pos, pos - AXES[2])
    elif kind == "axis_aligned":
        pos = np.array([draw(coord) * 2.5, draw(coord) * 2.5, draw(st.floats(0.2, 1.5))])
        cam = _look_along_axis(draw, pos)
    elif kind == "sky":
        # straight or steeply up: no pixel hits anything
        pos = np.array([draw(coord) * 2.0, draw(coord) * 2.0, draw(st.floats(1.0, 2.0))])
        cam = look_at(pos, pos + AXES[2]) if draw(st.booleans()) else \
            look_at(pos, pos + np.array([draw(coord), draw(coord), 4.0]))
    elif kind == "grazing":
        # axis-aligned cameras in free space, over or beside the scene
        if draw(st.booleans()):
            pos = np.array([draw(st.floats(1.2, 2.8)) * draw(st.sampled_from([-1.0, 1.0])),
                            draw(coord) * 2.5, draw(st.floats(2.2, 3.0))])
            cam = look_at(pos, pos - AXES[2])
        else:
            pos = np.array([draw(coord) * 2.5, draw(coord) * 2.5, draw(st.floats(1.2, 1.6))])
            cam = _look_along_axis(draw, pos)
        extra = (_grazing_box(draw, cam),)
    else:
        # a wall just inside max range, seen head-on along an axis: voxels up
        # to one nav truncation behind it, past max range, are fused
        depth = draw(st.floats(INTR.max_range - NAV_TRUNCATION + 0.2, INTR.max_range - 0.02))
        along = draw(st.floats(-1.2, ARENA_HALF - 0.2 - NAV_TRUNCATION - depth))
        across, axis, sign = draw(coord), draw(st.sampled_from([0, 1])), \
            draw(st.sampled_from([-1.0, 1.0]))
        pos = np.zeros(3)
        pos[axis], pos[1 - axis], pos[2] = sign * along, across, draw(st.floats(0.3, 0.9))
        cam = look_at(pos, pos + sign * AXES[axis])
        wall_center = pos.copy()
        wall_center[axis] += sign * (depth + 0.05)
        wall_center[2] = 0.6
        he = np.array([0.05, 0.05, 0.6])
        he[1 - axis] = 1.5
        extra = (Primitive(Box(he), Pose3(wall_center, np.array([1.0, 0.0, 0.0, 0.0])),
                           Tag.OBSTACLE),)
    return extra, cam


@st.composite
def view_sequences(draw):
    scene = generate_scene(draw(st.sampled_from(list(SceneKind))), False,
                           draw(st.integers(0, 30)))
    return scene, draw(st.lists(views(scene), min_size=3, max_size=6))


@settings(max_examples=40)
@given(view_sequences())
def test_culled_sensing_equals_unculled_reference(case):
    scene, seq = case
    grids = [TsdfGrid.create_cube(scene.target_center, TARGET_GRID_SIDE, TARGET_GRID_VOXELS),
             TsdfGrid.create(np.array([-ARENA_HALF, -ARENA_HALF, 0.0]), NAV_CELL, NAV_DIMS)]
    refs = [copy_tsdf(g) for g in grids]
    for extra, cam in seq:
        seen = replace(scene, primitives=scene.primitives + extra)
        img = render_depth(seen, cam, INTR)
        assert np.array_equal(img.depths, reference_render(seen, cam, INTR), equal_nan=True)
        for grid, ref in zip(grids, refs):
            integrate_depth(grid, img, cam)
            reference_integrate(ref, img, cam)
            assert np.array_equal(grid.grid.cells, ref.grid.cells)


# ---------------------------------------------------------------------------
# fixed views for the render's floor bound and per-shape kernel passes
# ---------------------------------------------------------------------------

def assert_renders_like_the_reference(scene, cam: Pose3, intr=INTR) -> np.ndarray:
    img = render_depth(scene, cam, intr).depths
    assert img.tobytes() == reference_render(scene, cam, intr).tobytes()
    return img


def floor_of(scene) -> Primitive:
    (floor,) = (p for p in scene.primitives if p.tag is Tag.FLOOR)
    return floor


def test_camera_at_or_below_the_floor_top_renders_like_the_reference():
    # at, below and a hair above the top face (z = 0) the floor is tested on
    # the whole image; at 0.1 um above it the bound is used with a tiny h;
    # from under the floor (z = -0.5) rays that rise meet its bottom face
    scene = generate_scene(SceneKind.COMPLEX, False, 2)
    for z in (0.0, -1e-12, -0.02, -0.5, 1e-12, 1e-7):
        for aim in (scene.target_center, np.array([2.0, -1.5, -0.3]), np.array([-2.0, 0.5, 0.05])):
            assert_renders_like_the_reference(scene, look_at(np.array([0.9, -1.1, z]), aim))
    under = look_at(np.array([0.9, -1.1, -0.5]), np.array([2.0, -1.5, -0.3]))
    assert np.isfinite(render_depth(scene, under, INTR).depths).any()


def test_floor_just_before_a_sunken_wall_renders_like_the_reference():
    # 4.49 cm up, level, 1 m from a wall that reaches 5 cm into the floor:
    # image row 34 crosses the floor's top 0.5 % before it meets the wall
    # below that top, where a floor bound that were too tight would keep the
    # wall's depth
    floor = floor_of(generate_scene(SceneKind.SIMPLE, False, 3))
    wall = Primitive(Box(np.array([0.05, 0.4, 0.275])),
                     Pose3(np.array([-0.35, 0.0, 0.225]), np.array([1.0, 0.0, 0.0, 0.0])),
                     Tag.OBSTACLE)
    scene = replace(generate_scene(SceneKind.SIMPLE, False, 3), primitives=(floor, wall))
    pos = np.array([-1.4, 0.0, 0.0449])
    cam = look_at(pos, pos + AXES[0])
    assert_renders_like_the_reference(scene, cam)
    dirs = INTR.pixel_dirs() @ cam.rotation_matrix().T
    rays = np.broadcast_to(pos, dirs.shape)
    t_wall, t_floor = (primitive_ray_hits(p, rays, dirs) for p in (wall, floor))
    assert ((t_floor < t_wall) & (t_wall < 1.01 * t_floor)).any()


def test_floor_hidden_by_the_table_or_the_obstacle_renders_like_the_reference(monkeypatch):
    # straight down onto the tabletop from 0.3 m, and 0.15 m in front of the
    # obstacle's face: every ray meets the table or the obstacle nearer than
    # the floor could be, so the floor pass tests no pixel
    calls = []

    def counted(o, d, he):
        calls.append(len(o))
        return _box_hits(o, d, he)

    monkeypatch.setitem(scene_module._HITS, Box, counted)
    simple = generate_scene(SceneKind.SIMPLE, False, 6)
    above = np.array([0.05, -0.05, TABLE_HEIGHT + 0.3])
    complex_ = generate_scene(SceneKind.COMPLEX, False, 6)
    (obstacle,) = (p for p in complex_.primitives if p.tag is Tag.OBSTACLE)
    az = complex_.obstacle_azimuth
    center = obstacle.pose.position
    outward = np.array([np.cos(az), np.sin(az), 0.0])  # the obstacle's local +x
    front = center + (obstacle.shape.half_extents[0] + 0.15) * outward
    for scene, cam, hider in ((simple, look_at(above, above - AXES[2]), Tag.TABLE),
                              (complex_, look_at(front, center), Tag.OBSTACLE)):
        calls.clear()
        img = render_depth(scene, cam, INTR).depths
        assert len(calls) == 1  # the box pass; no floor pass
        assert img.tobytes() == reference_render(scene, cam, INTR).tobytes()
        (prim,) = (p for p in scene.primitives if p.tag is hider)
        dirs = INTR.pixel_dirs() @ cam.rotation_matrix().T
        hidden = primitive_ray_hits(prim, np.broadcast_to(cam.position, dirs.shape), dirs)
        assert (hidden < 0.5).all() and (img <= 0.5).all()


def test_floor_hits_on_both_sides_of_max_range_render_like_the_reference():
    # from one arena corner toward the other: the floor in the lower rows is
    # near, in the upper rows beyond range
    scene = generate_scene(SceneKind.SIMPLE, False, 8)
    pos = np.array([-2.8, -2.8, 1.0])
    cam = look_at(pos, np.array([0.0, 0.0, 0.2]))
    img = assert_renders_like_the_reference(scene, cam)
    dirs = INTR.pixel_dirs() @ cam.rotation_matrix().T
    t = primitive_ray_hits(floor_of(scene), np.broadcast_to(pos, dirs.shape), dirs)
    assert (t <= INTR.max_range).any() and ((t > INTR.max_range) & np.isfinite(t)).any()
    assert np.isnan(img).any() and np.isfinite(img).any()


def test_one_pixel_floor_set_renders_like_the_reference():
    # a 16x16 camera 1.5 m up, looking level along +x: only its bottom row
    # points steeply enough to meet the floor within 3 m, and a wall 1 m
    # ahead hides all of that row but its last pixel (world y < -0.505), so
    # the floor is tested on one pixel, whose ray is taken from the product
    # of the whole image
    intr = CameraIntrinsics(16, 16, np.deg2rad(60.0), 3.0)
    floor = floor_of(generate_scene(SceneKind.SIMPLE, False, 1))
    wall = Primitive(Box(np.array([0.05, 1.2525, 1.5])),
                     Pose3(np.array([1.05, 0.7475, 1.5]), np.array([1.0, 0.0, 0.0, 0.0])),
                     Tag.OBSTACLE)
    scene = replace(generate_scene(SceneKind.SIMPLE, False, 1), primitives=(floor, wall))
    pos = np.array([0.0, 0.0, 1.5])
    cam = look_at(pos, pos + AXES[0])
    img = assert_renders_like_the_reference(scene, cam, intr)
    dirs = intr.pixel_dirs() @ cam.rotation_matrix().T
    rays = np.broadcast_to(pos, dirs.shape)
    t_wall, t_floor = (primitive_ray_hits(p, rays, dirs) for p in (wall, floor))
    assert np.count_nonzero((t_floor <= intr.max_range) & (t_floor < t_wall)) == 1
    assert np.isfinite(img[-1, -1]) and img[-1, -1] == t_floor[-1]


def test_views_mixing_boxes_and_cylinders_render_like_the_reference(monkeypatch):
    # one kernel pass per shape holds the rays of several primitives, each
    # with its own sizes
    mixed = {Box: 0, Cylinder: 0}

    def spy(shape):
        kernel = scene_module._HITS[shape]

        def hits(o, d, he):
            if he.ndim == 2 and len(np.unique(he, axis=0)) > 1:
                mixed[shape] += 1
            return kernel(o, d, he)
        return hits

    for shape in (Box, Cylinder):
        monkeypatch.setitem(scene_module._HITS, shape, spy(shape))
    for seed in (1, 2, 5):
        scene = generate_scene(SceneKind.COMPLEX, False, seed)
        shapes = {type(p.shape) for p in scene.primitives if p.tag is Tag.OBJECT}
        assert shapes == {Box, Cylinder}
        for az in np.linspace(0.0, 2 * np.pi, 6, endpoint=False):
            pos = scene.target_center + np.array([0.8 * np.cos(az), 0.8 * np.sin(az), 0.4])
            assert_renders_like_the_reference(scene, look_at(pos, scene.target_center))
    assert mixed[Box] > 0 and mixed[Cylinder] > 0


# ---------------------------------------------------------------------------
# fixed views for fusion's reused scratch: boxes that shrink, grow, fall back
# to the whole grid or see nothing, and no-hit pixels that carve
# ---------------------------------------------------------------------------

def target_grid(scene) -> TsdfGrid:
    return TsdfGrid.create_cube(scene.target_center, TARGET_GRID_SIDE, TARGET_GRID_VOXELS)


def nav_grid() -> TsdfGrid:
    return TsdfGrid.create(np.array([-ARENA_HALF, -ARENA_HALF, 0.0]), NAV_CELL, NAV_DIMS)


def box_voxels(tsdf: TsdfGrid, cam: Pose3, intr=INTR) -> int:
    box = _frustum_voxels(tsdf.grid, cam, intr, intr.max_range + tsdf.truncation)
    return 0 if box is None else math.prod(b.stop - b.start for b in box)


def fuse_and_compare(scene, grid: TsdfGrid, ref: TsdfGrid, cam: Pose3, intr=INTR) -> None:
    img = render_depth(scene, cam, intr)
    integrate_depth(grid, img, cam)
    reference_integrate(ref, img, cam)
    assert np.array_equal(grid.grid.cells, ref.grid.cells)


def test_one_voxel_frustum_box_fuses_like_the_reference():
    # a narrow view from just outside the grid's min corner, looking away
    # from it: the frustum box is the corner voxel, and the whole grid is
    # projected instead, between two views of the target
    scene = generate_scene(SceneKind.SIMPLE, False, 3)
    grid = target_grid(scene)
    ref = copy_tsdf(grid)
    narrow = CameraIntrinsics(16, 16, np.deg2rad(20.0), INTR.max_range)
    pos = grid.grid.origin - 0.5 * grid.grid.cell_size
    away = look_at(pos, pos - 1.0)
    assert box_voxels(grid, away, narrow) == 1
    toward = look_at(scene.target_center + np.array([1.0, 0.4, 0.5]), scene.target_center)
    for cam, intr in ((toward, INTR), (away, narrow), (toward, INTR)):
        fuse_and_compare(scene, grid, ref, cam, intr)


def test_view_that_sees_no_voxel_changes_no_cell():
    # just outside the grid's +x face, looking out: the frustum box holds the
    # face's voxels, but they all lie behind the camera
    scene = generate_scene(SceneKind.SIMPLE, False, 3)
    grid = target_grid(scene)
    fuse_and_compare(scene, grid, copy_tsdf(grid),
                     look_at(scene.target_center + np.array([1.0, 0.4, 0.5]),
                             scene.target_center), INTR)
    before = grid.grid.cells.copy()
    g = grid.grid
    pos = np.array([g.max_corner[0] + 0.5 * g.cell_size, *scene.target_center[1:]])
    cam = look_at(pos, pos + AXES[0])
    assert box_voxels(grid, cam) > 0
    fuse_and_compare(scene, grid, copy_tsdf(grid), cam)
    assert np.array_equal(grid.grid.cells, before)


def test_scratch_shrinks_and_grows_across_grids(monkeypatch):
    # from an empty scratch: the full target box, a small nav sub-box that
    # reuses the front of it, then a finer target grid whose box grows it
    monkeypatch.setattr(perception, "_SCRATCH", {})
    scene = generate_scene(SceneKind.COMPLEX, False, 4)
    target, nav = target_grid(scene), nav_grid()
    fine = TsdfGrid.create_cube(scene.target_center, TARGET_GRID_SIDE, TARGET_GRID_VOXELS + 8)
    grids = [target, nav, fine]
    refs = [copy_tsdf(g) for g in grids]
    whole = look_at(scene.target_center + np.array([-1.6, 1.2, 0.7]), scene.target_center)
    # at the arena corner, looking into it: a few columns of nav voxels
    corner = np.array([-ARENA_HALF + 0.25, -ARENA_HALF + 0.25, 0.6])
    into_corner = look_at(corner, corner - np.array([1.0, 1.0, 0.3]))
    assert box_voxels(target, whole) == math.prod(target.grid.dims)
    assert 0 < box_voxels(nav, into_corner) < 1000
    assert box_voxels(fine, whole) == math.prod(fine.grid.dims)
    sizes = []
    for i, cam in ((0, whole), (1, into_corner), (2, whole), (1, into_corner), (0, whole)):
        fuse_and_compare(scene, grids[i], refs[i], cam)
        sizes.append(perception._SCRATCH[np.float64].size)
    assert sizes[0] == sizes[1] < sizes[2] == sizes[-1]
    assert (nav.weight > 0).any()


def test_no_hit_pixels_carve_like_the_reference():
    # one view only into the sky, every pixel a no-hit, then one across the
    # scene whose upper rows miss: both carve out to max range
    scene = generate_scene(SceneKind.SIMPLE, False, 5)
    pos = np.array([1.5, -0.5, 0.9])
    sky = look_at(pos, pos + np.array([0.2, 0.1, 1.0]))
    across = look_at(pos, scene.target_center + np.array([0.0, 0.0, 0.6]))
    assert np.isnan(render_depth(scene, sky, INTR).depths).all()
    mixed = render_depth(scene, across, INTR).depths
    assert np.isnan(mixed).any() and not np.isnan(mixed).all()
    for grid in (target_grid(scene), nav_grid()):
        ref = copy_tsdf(grid)
        for cam in (sky, across):
            fuse_and_compare(scene, grid, ref, cam)
    assert (grid.tsdf[grid.weight > 0] == 1.0).any()


def test_slab_columns_equal_the_reduced_reference():
    # bit for bit, the sign of zero included, with zero direction components
    # (both signs) and origins on slab faces
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 200))
        lo = rng.normal(size=3)
        box = Aabb(lo, lo + rng.uniform(0.01, 2.0, size=3))
        o = rng.normal(size=(n, 3)) * 2.0
        d = rng.normal(size=(n, 3))
        d[rng.random((n, 3)) < 0.15] = 0.0
        d[rng.random((n, 3)) < 0.05] = -0.0
        face = rng.random((n, 3)) < 0.15
        o[face] = np.where(rng.random((n, 3)) < 0.5, box.lo, box.hi)[face]
        for got, want in zip(ray_aabb_interval(o, d, box), reference_slabs(o, d, box)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# repeated views: the harness's depth images and the grids' fusion plans
# ---------------------------------------------------------------------------

POOL = VIEW_CACHE_POSES + 2  # distinct poses per walk, more than either cache holds


def pose_pool(scene) -> list[Pose3]:
    rng = np.random.default_rng(int(scene.seed))
    cams = []
    for _ in range(POOL):
        az, r = rng.uniform(0.0, 2 * np.pi), rng.uniform(0.7, 2.2)
        pos = scene.target_center + np.array([r * np.cos(az), r * np.sin(az),
                                              rng.uniform(0.1, 0.9)])
        cams.append(look_at(pos, scene.target_center + rng.uniform(-0.1, 0.1, 3)))
    return cams


@st.composite
def pose_walks(draw) -> list[int]:
    """Indices into a pose pool: stationary runs, A-B-A oscillations, and
    revisits of a pose after every other pose of the pool has evicted it."""
    walk: list[int] = []
    for kind in draw(st.lists(st.sampled_from(["stay", "oscillate", "revisit", "hop"]),
                              min_size=1, max_size=4)):
        a, b = draw(st.integers(0, POOL - 1)), draw(st.integers(0, POOL - 1))
        if kind == "stay":
            walk += [a] * draw(st.integers(2, 4))
        elif kind == "oscillate":
            walk += [a, b] * draw(st.integers(1, 3)) + [a]
        elif kind == "revisit":
            walk += [a, *(k for k in range(POOL) if k != a), a]
        else:
            walk.append(a)
    return walk


def walk_cached_and_fresh(scene, walk: list[int], monkeypatch) -> int:
    """Sense `walk` through the harness's image cache, whose images keep
    their fusion plans, and through a fresh render and fusion per view (a
    new image object, so a plan miss), checking both after every view;
    returns the number of renders the cached side made."""
    cams = pose_pool(scene)
    renders = []

    def counted_render(*args):
        renders.append(args[1])
        return render_depth(*args)

    monkeypatch.setattr(harness, "render_depth", counted_render)
    grids = [target_grid(scene), nav_grid()]
    refs = [copy_tsdf(g) for g in grids]
    images: dict = {}
    for i in walk:
        cam = cams[i]
        img = harness.cached_render(images, scene, cam, INTR)
        fresh = render_depth(scene, cam, INTR)
        assert np.array_equal(img.depths, fresh.depths, equal_nan=True)
        assert not img.depths.flags.writeable
        assert len(images) <= VIEW_CACHE_POSES
        for grid, ref in zip(grids, refs):
            integrate_depth(grid, img, cam)
            integrate_depth(ref, fresh, cam)
            assert np.array_equal(grid.grid.cells, ref.grid.cells)
        for kept in images.values():
            assert len(kept.plans) <= 2
            for voxels, values in kept.plans.values():
                assert not (voxels.flags.writeable or values.flags.writeable)
    return len(renders)


def lru_misses(walk: list[int]) -> int:
    """Misses of an LRU of VIEW_CACHE_POSES entries over `walk`."""
    kept: list[int] = []
    misses = 0
    for i in walk:
        if i in kept:
            kept.remove(i)
        else:
            misses += 1
        kept.append(i)
        del kept[:-VIEW_CACHE_POSES]
    return misses


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.sampled_from(list(SceneKind)), st.integers(0, 30), pose_walks())
def test_cached_sensing_equals_fresh_sensing(kind, seed, walk):
    scene = generate_scene(kind, False, seed)
    with pytest.MonkeyPatch.context() as mp:
        renders = walk_cached_and_fresh(scene, walk, mp)
    assert renders == lru_misses(walk)


def test_cached_sensing_stays_oscillates_and_revisits_after_eviction(monkeypatch):
    # 0 stays, 0-1 oscillate, 2..POOL-1 evict 0 and 1, 0 is rendered again,
    # and POOL-1 and 0 are still kept
    walk = [0, 0, 0, 1, 0, 1, 0, *range(2, POOL), 0, POOL - 1, 0]
    scene = generate_scene(SceneKind.COMPLEX, False, 4)
    assert walk_cached_and_fresh(scene, walk, monkeypatch) == POOL + 1 == lru_misses(walk)


def test_same_pose_with_another_image_builds_a_new_plan():
    # a plan is reused only with the image object it was built from: a
    # different image at the same pose, or an equal copy, is fused afresh
    scene = generate_scene(SceneKind.SIMPLE, False, 3)
    other = generate_scene(SceneKind.COMPLEX, False, 3)
    cam = look_at(scene.target_center + np.array([1.1, -0.4, 0.6]), scene.target_center)
    grid = nav_grid()
    ref = copy_tsdf(grid)
    first = render_depth(scene, cam, INTR)
    plans = []
    for img in (first, render_depth(other, cam, INTR), first,
                DepthImage(INTR, first.depths), first):
        integrate_depth(grid, img, cam)
        reference_integrate(ref, img, cam)
        assert np.array_equal(grid.grid.cells, ref.grid.cells)
        (plan,) = img.plans.values()
        plans.append(plan)
    assert plans[0] is plans[2] is plans[4]
    assert len({id(p) for p in plans}) == 3


# ---------------------------------------------------------------------------
# a grid's region: only its voxels are fused, each as in the whole grid
# ---------------------------------------------------------------------------

def fuse_region_and_compare(scene, grid: TsdfGrid, ref: TsdfGrid, views_) -> None:
    """Fuse each of `views_` ((extra primitives, camera) pairs) into `grid`,
    which has a region, and into the whole-grid reference `ref`: after each
    view the region's cells equal the reference's byte for byte, and every
    cell outside it is as it was before the first view."""
    region = grid.region
    before = grid.grid.cells.copy()
    inside = np.zeros(grid.grid.dims, dtype=bool)
    inside[region] = True
    for extra, cam in views_:
        seen = replace(scene, primitives=scene.primitives + extra)
        img = render_depth(seen, cam, INTR)
        integrate_depth(grid, img, cam)
        reference_integrate(ref, img, cam)
        assert grid.grid.cells[region].tobytes() == ref.grid.cells[region].tobytes()
        assert grid.grid.cells[~inside].tobytes() == before[~inside].tobytes()


@st.composite
def regions(draw, dims: tuple[int, ...], fused: np.ndarray) -> tuple[slice, ...]:
    """An index box of 1 to 8 voxels a side, about one of the voxels
    `fused` lists ((n, 3) indices), or anywhere when it lists none."""
    box = []
    anchor = fused[draw(st.integers(0, len(fused) - 1))] if len(fused) else None
    for axis, n in enumerate(dims):
        size = draw(st.integers(1, 8))
        if anchor is None:
            start = draw(st.integers(0, n - 1))
        else:
            start = max(int(anchor[axis]) - draw(st.integers(0, size - 1)), 0)
        box.append(slice(start, min(start + size, n)))
    return tuple(box)


@settings(max_examples=25, deadline=None)
@given(view_sequences(), st.data())
def test_a_region_fuses_like_the_whole_grid_and_leaves_the_rest(case, data):
    # the first view fuses the whole grid, so the cells outside the region
    # are not all empty when the region is set; the region then holds a
    # voxel a later view fuses, when one does
    scene, ((extra, cam), *rest) = case
    grid = target_grid(scene)
    integrate_depth(grid, render_depth(replace(scene, primitives=scene.primitives + extra),
                                       cam, INTR), cam)
    ref, later = copy_tsdf(grid), copy_tsdf(grid)
    for extra, cam in rest:
        integrate_depth(later, render_depth(replace(scene, primitives=scene.primitives + extra),
                                            cam, INTR), cam)
    grid.region = data.draw(regions(grid.grid.dims, np.argwhere(later.weight > grid.weight)))
    fuse_region_and_compare(scene, grid, ref, rest)


@pytest.mark.parametrize("size", [0, 1, 2])
def test_a_region_of_up_to_two_voxels_fuses_like_the_whole_grid(size):
    # the region starts at a voxel each view updates: one voxel takes the
    # whole grid's projection (the one-column rule) and keeps only itself;
    # two voxels are one two-column product; an empty region fuses nothing
    scene = generate_scene(SceneKind.SIMPLE, False, 3)
    cams = [look_at(scene.target_center + np.array([1.0, 0.4, 0.5]), scene.target_center),
            look_at(scene.target_center + np.array([-0.9, 0.6, 0.4]), scene.target_center)]
    whole = target_grid(scene)
    for cam in cams:
        integrate_depth(whole, render_depth(scene, cam, INTR), cam)
    i, j, k = np.argwhere(whole.weight == len(cams))[0]
    grid = target_grid(scene)
    grid.region = (slice(i, i + 1), slice(j, j + 1), slice(k, k + size))
    assert math.prod(s.stop - s.start for s in grid.region) == size
    fuse_region_and_compare(scene, grid, copy_tsdf(grid), [((), cam) for cam in cams])
    assert grid.weight[i, j, k] == (len(cams) if size else 0)
    assert np.count_nonzero(grid.weight) <= size
