from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actpermoma import perception
from actpermoma.geom import (
    Aabb,
    CellState,
    Grid,
    Pose2,
    Pose3,
    Ray,
    look_at,
    ray_aabb_interval,
    traverse_batch,
    traverse_ray,
)
from actpermoma.grasping import build_map_pair
from actpermoma.harness import NAV_CELL, NAV_Z_VOXELS
from actpermoma.perception import (
    TsdfGrid,
    integrate_depth,
    keep,
    project_occupancy,
    rear_side_ig_batch,
)
from actpermoma.planning import (
    DIST_CLAMP,
    CandidatePath,
    PlannerConfig,
    Route,
    camera_at,
    evaluate_paths,
)
from actpermoma.scene import (
    ARENA_HALF,
    CameraIntrinsics,
    SceneKind,
    generate_scene,
    render_depth,
    scene_sdf,
)

INTR = CameraIntrinsics(64, 64, np.deg2rad(60.0), 3.0)
IG_INTR = INTR.downsampled(2)


def fresh_target_grid(center) -> TsdfGrid:
    return TsdfGrid.create_cube(np.asarray(center), 0.6, 40)


def rear_side_count(tsdf: TsdfGrid, cam: Pose3, intr: CameraIntrinsics, bbox: Aabb) -> int:
    return int(rear_side_ig_batch(tsdf, [cam], intr, bbox)[0])


# ---------------------------------------------------------------------------
# independent rear-side oracle: fine sampling along each pixel ray
# ---------------------------------------------------------------------------

def rear_side_oracle(tsdf: TsdfGrid, cam: Pose3, intr: CameraIntrinsics, bbox: Aabb) -> int:
    g = tsdf.grid
    states = tsdf.state_volume()
    dirs = intr.pixel_dirs()
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = dirs @ cam.rotation_matrix().T
    counted: set[tuple[int, int, int]] = set()
    ts = np.arange(0.0, intr.max_range, g.cell_size / 100.0)
    for d in dirs:
        pts = cam.position + ts[:, None] * d
        idx = g.world_to_index(pts)
        inside = g.contains_index(idx)
        idx = idx[inside]
        seen = False
        prev = None
        for row in idx:
            t = (int(row[0]), int(row[1]), int(row[2]))
            if t == prev:
                continue
            prev = t
            st = states[t]
            if seen and st == CellState.UNKNOWN:
                center = g.index_to_world_center(np.array(t))
                if bool(bbox.contains(center)):
                    counted.add(t)
            if st == CellState.OCCUPIED:
                seen = True
    return len(counted)


def test_keep_returns_a_kept_value_without_calling_make():
    memo: dict = {}
    first = keep(memo, "k", lambda: np.zeros(3))
    assert keep(memo, "k", mock.Mock(side_effect=AssertionError)) is first
    assert memo == {"k": first}


def test_keep_makes_what_it_keeps_read_only():
    # through tuples and object attributes; a dict is left as it is, since
    # a kept value keeps later results there
    grid = Grid(np.zeros(2), 0.1, (2, 2), np.zeros((2, 2)))
    memos: dict = {}
    value = keep({}, "k", lambda: (grid, [np.ones(2)], 7, memos))
    assert value[0] is grid and value[3] is memos
    for a in (grid.origin, grid.cells, value[1][0]):
        with pytest.raises(ValueError):
            a[...] = 1.0
    memos["later"] = 1


def test_keep_with_a_limit_drops_the_least_recently_used():
    memo: dict = {}
    for key in "abc":
        keep(memo, key, lambda: key, limit=3)
    assert keep(memo, "a", lambda: "never", limit=3) == "a"  # now the most recent
    keep(memo, "d", lambda: "d", limit=3)
    assert list(memo) == ["c", "a", "d"]
    keep(memo, "c", lambda: "never", limit=3)
    keep(memo, "e", lambda: "e", limit=3)
    assert list(memo) == ["d", "c", "e"]


def test_keep_keeps_nothing_when_make_raises():
    memo: dict = {}
    with pytest.raises(ZeroDivisionError):
        keep(memo, "k", lambda: 1 / 0, limit=2)
    assert memo == {}
    assert keep(memo, "k", lambda: 2) == 2


def test_fresh_grid_all_unknown():
    t = fresh_target_grid([0.0, 0.0, 0.9])
    assert (t.state_volume() == CellState.UNKNOWN).all()


def test_state_volume_codes_each_voxel_nan_tsdf_stays_unknown():
    rng = np.random.default_rng(5)
    t = TsdfGrid.create(np.zeros(3), 0.1, (7, 6, 5))
    t.grid.cells[..., 0] = rng.choice([-1.0, -0.3, -0.0, 0.0, 0.2, 1.0, np.nan], size=(7, 6, 5))
    t.grid.cells[..., 1] = rng.choice([0.0, 1.0, 3.0, np.nan], size=(7, 6, 5))
    tsdf, weight = t.tsdf, t.weight
    want = np.full((7, 6, 5), CellState.UNKNOWN, dtype=np.uint8)
    want[(weight > 0) & (tsdf > 0)] = CellState.FREE
    want[(weight > 0) & (tsdf <= 0)] = CellState.OCCUPIED
    states = t.state_volume()
    assert states.dtype == np.uint8
    assert np.array_equal(states, want)
    assert (states[np.isnan(tsdf) & (weight > 0)] == CellState.UNKNOWN).all()


def test_integrate_twice_idempotent_values():
    scene = generate_scene(SceneKind.SIMPLE, False, 2)
    t = fresh_target_grid(scene.target_center)
    cam = look_at(np.array([1.2, 0.3, 1.2]), scene.target_center)
    img = render_depth(scene, cam, INTR)
    integrate_depth(t, img, cam)
    tsdf_once = t.tsdf.copy()
    w_once = t.weight.copy()
    integrate_depth(t, img, cam)
    assert np.allclose(t.tsdf, tsdf_once, atol=1e-6)
    assert np.array_equal(t.weight[w_once > 0], 2 * w_once[w_once > 0])


def test_integrate_depth_steady_state_allocates_no_box_sized_array():
    # fusion works in one reused scratch: once a view has grown it and built
    # the grid's centers, fusing that view again allocates only small arrays
    # (a box-sized temporary on the 40^3 target grid is several MB)
    scene = generate_scene(SceneKind.SIMPLE, False, 2)
    side = int(2 * ARENA_HALF / NAV_CELL)
    grids = [fresh_target_grid(scene.target_center),
             TsdfGrid.create(np.array([-ARENA_HALF, -ARENA_HALF, 0.0]), NAV_CELL,
                             (side, side, NAV_Z_VOXELS))]
    cam = look_at(np.array([1.2, 0.3, 1.2]), scene.target_center)
    img = render_depth(scene, cam, INTR)
    for t in grids:
        integrate_depth(t, img, cam)
    tracemalloc.start()
    try:
        for t in grids:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            integrate_depth(t, img, cam)
            assert tracemalloc.get_traced_memory()[1] - before < 256 * 1024
    finally:
        tracemalloc.stop()


def test_plane_sign_convention():
    # plane (table top) 1 m below a straight-down camera
    scene = generate_scene(SceneKind.SIMPLE, False, 2)
    t = fresh_target_grid(scene.target_center)
    eye = scene.target_center + np.array([0.0, 0.0, 1.0])
    cam = look_at(eye, scene.target_center)
    img = render_depth(scene, cam, INTR)
    integrate_depth(t, img, cam)
    states = t.state_volume()
    zc = t.grid.axis_centers()[2]
    ci, cj = 20, 20
    high = zc > scene.target_center[2] + 0.15  # free air well above the objects
    assert (states[ci, cj, high] == CellState.FREE).all()
    # voxels below the tabletop (beyond truncation) stay unknown
    low = zc < 0.75 - t.truncation - t.grid.cell_size
    if low.any():
        assert (states[ci, cj, low] == CellState.UNKNOWN).all()


@pytest.mark.parametrize("res,min_frac", [(128, 0.95), (64, 0.90)])
def test_fused_surface_matches_analytic_sdf(res, min_frac):
    # silhouette-edge smear scales with pixel footprint, so the 95% bound
    # needs the finer sensor; the default 64x64 stays above 90%
    intr = CameraIntrinsics(res, res, np.deg2rad(60.0), 3.0)
    rng = np.random.default_rng(8)
    scene = generate_scene(SceneKind.SIMPLE, False, 6)
    hits = 0
    good = 0
    for _ in range(20):
        t = fresh_target_grid(scene.target_center)
        pos = scene.target_center + np.array([rng.uniform(-1.5, 1.5),
                                              rng.uniform(-1.5, 1.5),
                                              rng.uniform(0.3, 0.7)])
        cam = look_at(pos, scene.target_center)
        integrate_depth(t, render_depth(scene, cam, intr), cam)
        # zero-crossing shell: observed non-positive voxels with an observed
        # positive face neighbor
        observed = t.weight > 0
        neg = observed & (t.tsdf <= 0)
        pos_nb = np.zeros_like(neg)
        for axis in range(3):
            for shift in (1, -1):
                rolled = np.roll(observed & (t.tsdf > 0), shift, axis=axis)
                sl = [slice(None)] * 3
                sl[axis] = 0 if shift == 1 else -1
                rolled[tuple(sl)] = False
                pos_nb |= rolled
        shell = np.argwhere(neg & pos_nb)
        if shell.size == 0:
            continue
        centers = t.grid.index_to_world_center(shell)
        d = np.abs(scene_sdf(scene, centers))
        hits += len(shell)
        good += int((d <= t.grid.cell_size).sum())
    assert hits > 0
    assert good / hits >= min_frac


def test_rear_side_zero_on_fresh_and_complete():
    scene = generate_scene(SceneKind.SIMPLE, False, 3)
    t = fresh_target_grid(scene.target_center)
    cam = look_at(scene.target_center + np.array([1.0, 0.5, 0.5]), scene.target_center)
    assert rear_side_count(t, cam, IG_INTR, scene.target_bbox) == 0
    # fully observed bbox: mark everything free
    t.grid.cells[..., 0] = 1.0
    t.grid.cells[..., 1] = 1.0
    assert rear_side_count(t, cam, IG_INTR, scene.target_bbox) == 0


def test_rear_side_matches_enumeration_small_fixture():
    # 6x6x6 grid with one observed wall at i=3, unknown elsewhere
    t = TsdfGrid.create(np.zeros(3), 0.1, (6, 6, 6))
    t.grid.cells[3, :, :, 0] = -0.2
    t.grid.cells[3, :, :, 1] = 1.0
    t.grid.cells[2, :, :, 0] = 0.5
    t.grid.cells[2, :, :, 1] = 1.0
    bbox = Aabb(np.array([0.0, 0.0, 0.0]), np.array([0.6, 0.6, 0.6]))
    intr = CameraIntrinsics(16, 16, np.deg2rad(50.0), 4.0)
    cam = look_at(np.array([-0.73, 0.311, 0.287]), np.array([0.31, 0.29, 0.305]))
    got = rear_side_count(t, cam, intr, bbox)
    want = rear_side_oracle(t, cam, intr, bbox)
    assert got == want
    assert got > 0


def test_rear_side_matches_enumeration_fused_views():
    scene = generate_scene(SceneKind.COMPLEX, False, 12)
    t = fresh_target_grid(scene.target_center)
    cam0 = look_at(scene.target_center + np.array([1.21, 0.17, 0.44]), scene.target_center)
    integrate_depth(t, render_depth(scene, cam0, INTR), cam0)
    intr = CameraIntrinsics(16, 16, np.deg2rad(60.0), 3.0)
    rng = np.random.default_rng(4)
    for _ in range(3):
        pos = scene.target_center + np.array([rng.uniform(-1.3, 1.3),
                                              rng.uniform(-1.3, 1.3),
                                              rng.uniform(0.32, 0.62)])
        cam = look_at(pos, scene.target_center)
        got = rear_side_count(t, cam, intr, scene.target_bbox)
        want = rear_side_oracle(t, cam, intr, scene.target_bbox)
        assert got == want


def test_rear_side_deterministic_and_batch_consistent():
    scene = generate_scene(SceneKind.COMPLEX, False, 1)
    t = fresh_target_grid(scene.target_center)
    cam0 = look_at(scene.target_center + np.array([1.0, -0.4, 0.45]), scene.target_center)
    integrate_depth(t, render_depth(scene, cam0, INTR), cam0)
    cams = [look_at(scene.target_center + np.array([np.cos(a), np.sin(a), 0.5]),
                    scene.target_center) for a in np.linspace(0, 2 * np.pi, 7)]
    batch = rear_side_ig_batch(t, cams, IG_INTR, scene.target_bbox)
    singles = [rear_side_count(t, c, IG_INTR, scene.target_bbox) for c in cams]
    assert list(batch) == singles
    assert list(rear_side_ig_batch(t, cams, IG_INTR, scene.target_bbox)) == singles


def test_rear_side_non_increasing_with_repeated_integration():
    scene = generate_scene(SceneKind.COMPLEX, False, 9)
    t = fresh_target_grid(scene.target_center)
    cam0 = look_at(scene.target_center + np.array([1.3, 0.2, 0.4]), scene.target_center)
    integrate_depth(t, render_depth(scene, cam0, INTR), cam0)
    probe = look_at(scene.target_center + np.array([-0.9, 0.7, 0.45]), scene.target_center)
    img = render_depth(scene, probe, INTR)
    integrate_depth(t, img, probe)
    prev = rear_side_count(t, probe, IG_INTR, scene.target_bbox)
    for _ in range(3):
        integrate_depth(t, img, probe)
        cur = rear_side_count(t, probe, IG_INTR, scene.target_bbox)
        assert cur <= prev
        prev = cur


# ---------------------------------------------------------------------------
# path IG: the distance-weighted gain term of planning.evaluate_paths
# ---------------------------------------------------------------------------

MAPS = build_map_pair()


def _path(goal_id: int, views: list[tuple[Pose3, float]]) -> CandidatePath:
    route = Route.through(np.zeros((1, 2)), Pose2(0.0, 0.0, 0.0))
    return CandidatePath(goal_id=goal_id, route=route, views=views)


def path_igs(t: TsdfGrid, paths: list[list[tuple[Pose3, float]]], intr: CameraIntrinsics,
             bbox: Aabb, unit_weights: bool = False) -> list[float]:
    """J_IG of each path; no grasps, so the executability term is zero."""
    utils = evaluate_paths([_path(i, views) for i, views in enumerate(paths)], t, [],
                           PlannerConfig(), False, intr, bbox, MAPS,
                           unit_weights=unit_weights)
    assert all(u.j_exec == 0.0 for u in utils)
    return [u.j_ig for u in utils]


def test_path_ig_single_clamped_term():
    scene = generate_scene(SceneKind.SIMPLE, False, 3)
    t = fresh_target_grid(scene.target_center)
    cam0 = look_at(scene.target_center + np.array([1.0, 0.0, 0.42]), scene.target_center)
    integrate_depth(t, render_depth(scene, cam0, INTR), cam0)
    probe = look_at(scene.target_center + np.array([-0.8, 0.5, 0.5]), scene.target_center)
    ig = rear_side_count(t, probe, IG_INTR, scene.target_bbox)
    [got] = path_igs(t, [[(probe, 0.0)]], IG_INTR, scene.target_bbox)
    assert got == pytest.approx(ig / DIST_CLAMP**2)


def test_path_ig_arithmetic_two_views():
    # two views with known counts at 1 m and 2 m: IG/1 + IG/4
    t = TsdfGrid.create(np.zeros(3), 0.1, (6, 6, 6))
    t.grid.cells[3, :, :, 0] = -0.2
    t.grid.cells[3, :, :, 1] = 1.0
    bbox = Aabb(np.zeros(3), np.full(3, 0.6))
    intr = CameraIntrinsics(16, 16, np.deg2rad(50.0), 4.0)
    cam = look_at(np.array([-0.71, 0.32, 0.33]), np.array([0.3, 0.3, 0.3]))
    ig = rear_side_count(t, cam, intr, bbox)
    views = [(cam, 1.0), (cam, 2.0)]
    assert path_igs(t, [views], intr, bbox) == [pytest.approx(ig + ig / 4.0)]
    assert path_igs(t, [views], intr, bbox, unit_weights=True) == [pytest.approx(2.0 * ig)]


def test_path_ig_matches_term_by_term_recompute():
    rng = np.random.default_rng(17)
    scene = generate_scene(SceneKind.COMPLEX, False, 8)
    t = fresh_target_grid(scene.target_center)
    cam0 = look_at(scene.target_center + np.array([1.2, -0.3, 0.45]), scene.target_center)
    integrate_depth(t, render_depth(scene, cam0, INTR), cam0)
    views = []
    for i in range(5):
        pos = scene.target_center + np.array([rng.uniform(-1.2, 1.2),
                                              rng.uniform(-1.2, 1.2),
                                              rng.uniform(0.3, 0.6)])
        views.append((look_at(pos, scene.target_center), float(i) * 0.5))
    [got] = path_igs(t, [views], IG_INTR, scene.target_bbox)
    want = 0.0
    for cam, arc in views:
        c = rear_side_count(t, cam, IG_INTR, scene.target_bbox)
        want += c / max(arc, DIST_CLAMP) ** 2
    assert got == pytest.approx(want, rel=1e-12)


def test_path_ig_additive_over_concatenation():
    scene = generate_scene(SceneKind.SIMPLE, False, 5)
    t = fresh_target_grid(scene.target_center)
    cam0 = look_at(scene.target_center + np.array([1.0, 0.6, 0.5]), scene.target_center)
    integrate_depth(t, render_depth(scene, cam0, INTR), cam0)
    cams = [look_at(scene.target_center + np.array([np.cos(a) * 1.1, np.sin(a) * 1.1, 0.5]),
                    scene.target_center) for a in (0.3, 1.2, 2.4, 4.0)]
    views = [(c, 0.4 * (i + 1)) for i, c in enumerate(cams)]
    whole, head, tail = path_igs(t, [views, views[:2], views[2:]], IG_INTR,
                                 scene.target_bbox)
    assert whole == pytest.approx(head + tail, rel=1e-12)


def test_dense_view_sphere_completeness():
    scene = generate_scene(SceneKind.SIMPLE, False, 10)
    t = fresh_target_grid(scene.target_center)
    for az in np.linspace(0, 2 * np.pi, 16, endpoint=False):
        for el in (0.35, 0.7, 1.2):
            pos = scene.target_center + np.array([np.cos(az) * np.cos(el),
                                                  np.sin(az) * np.cos(el),
                                                  np.sin(el)]) * 1.1
            cam = look_at(pos, scene.target_center)
            integrate_depth(t, render_depth(scene, cam, INTR), cam)
    from actpermoma.perception import _bbox_mask

    mask = _bbox_mask(t.grid, scene.target_bbox)
    states = t.state_volume()
    unknown_frac = (states[mask] == CellState.UNKNOWN).mean()
    assert unknown_frac < 0.05


def test_project_occupancy_states():
    nav = TsdfGrid.create(np.array([-1.0, -1.0, 0.0]), 0.1, (20, 20, 12))
    occ = project_occupancy(nav, (0.15, 1.05))
    assert (occ.cells == CellState.UNKNOWN).all()
    # carve one column fully free
    nav.grid.cells[5, 5, :, 0] = 1.0
    nav.grid.cells[5, 5, :, 1] = 1.0
    # one occupied voxel inside the band elsewhere
    nav.grid.cells[8, 3, 4, 0] = -0.5
    nav.grid.cells[8, 3, 4, 1] = 1.0
    # occupied voxel below the band should not mark the column
    nav.grid.cells[2, 2, 0, 0] = -0.5
    nav.grid.cells[2, 2, 0, 1] = 1.0
    occ = project_occupancy(nav, (0.15, 1.05))
    assert occ.cells[5, 5] == CellState.FREE
    assert occ.cells[8, 3] == CellState.OCCUPIED
    assert occ.cells[2, 2] == CellState.UNKNOWN

    # every column of a random belief: occupied wins, free only if the whole
    # band is free, else unknown, read from the voxels' state_volume codes
    rng = np.random.default_rng(4)
    nav.grid.cells[..., 0] = rng.choice([-0.5, 0.5, np.nan], size=nav.grid.dims, p=[0.02, 0.9, 0.08])
    nav.grid.cells[..., 1] = rng.choice([0.0, 1.0], size=nav.grid.dims, p=[0.05, 0.95])
    occ = project_occupancy(nav, (0.15, 1.05))
    zc = nav.grid.axis_centers()[2]
    band = nav.state_volume()[:, :, (zc >= 0.15) & (zc <= 1.05)]
    assert occ.cells.dtype == np.uint8 and occ.dims == (20, 20) and occ.cell_size == 0.1
    assert np.array_equal(occ.origin, [-1.0, -1.0])
    seen = set()
    for i in range(20):
        for j in range(20):
            column = set(band[i, j].tolist())
            if CellState.OCCUPIED in column:
                want = CellState.OCCUPIED
            elif column == {CellState.FREE}:
                want = CellState.FREE
            else:
                want = CellState.UNKNOWN
            assert occ.cells[i, j] == want, (i, j, column)
            seen.add(want)
    assert seen == set(CellState)


def test_project_occupancy_carved_corridor():
    nav = TsdfGrid.create(np.array([0.0, 0.0, 0.0]), 0.1, (10, 10, 12))
    nav.grid.cells[:, 4, :, 0] = 1.0
    nav.grid.cells[:, 4, :, 1] = 1.0
    occ = project_occupancy(nav, (0.15, 1.05))
    assert (occ.cells[:, 4] == CellState.FREE).all()
    other = occ.cells[:, [0, 1, 2, 3, 5, 6, 7, 8, 9]]
    assert (other == CellState.UNKNOWN).all()


def test_ig_result_bounds():
    scene = generate_scene(SceneKind.SIMPLE, False, 2)
    t = fresh_target_grid(scene.target_center)
    cam0 = look_at(scene.target_center + np.array([1.2, 0.0, 0.4]), scene.target_center)
    integrate_depth(t, render_depth(scene, cam0, INTR), cam0)
    count = rear_side_count(t, cam0, IG_INTR, scene.target_bbox)
    from actpermoma.perception import _bbox_mask

    assert 0 <= count <= int(_bbox_mask(t.grid, scene.target_bbox).sum())


# ---------------------------------------------------------------------------
# exactness pins: counts recorded with the dense, unculled scorer
# ---------------------------------------------------------------------------

def _fused(kind: SceneKind, seed: int, offsets: list[tuple[float, float, float]]):
    scene = generate_scene(kind, False, seed)
    t = fresh_target_grid(scene.target_center)
    for off in offsets:
        cam = look_at(scene.target_center + np.asarray(off), scene.target_center)
        integrate_depth(t, render_depth(scene, cam, INTR), cam)
    return scene, t


def _pin_case(name: str):
    """(tsdf, cams, intrinsics, bbox) of one pinned camera set."""
    if name == "breyer_rings_complex12":
        # BreyerNbv-style: two 16-view rings at two radii (64 cameras)
        scene, t = _fused(SceneKind.COMPLEX, 12, [(1.21, 0.17, 0.44), (-0.5, 1.0, 0.5)])
        c = scene.target_center
        cams = [look_at(c + r * np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                                          np.sin(el)]), c)
                for r in (1.0, 0.64) for el in np.deg2rad([22.0, 35.0])
                for az in np.linspace(0.0, 2 * np.pi, 16, endpoint=False)]
        return t, cams, IG_INTR, scene.target_bbox
    if name == "edge_views_simple4":
        scene, t = _fused(SceneKind.SIMPLE, 4, [(1.0, -0.3, 0.45)])
        c = scene.target_center
        box = scene.target_bbox
        shell = np.array([box.hi[0] + 0.01, c[1], c[2]])  # in the inflation pad only
        cams = [
            look_at(c + np.array([0.01, 0.02, 0.015]), c + np.array([1.0, 0.3, 0.1])),
            look_at(c + np.array([-0.02, 0.0, 0.01]), c + np.array([-0.4, -1.0, 0.2])),
            look_at(shell, c),
            look_at(shell, shell + np.array([1.0, 0.0, 0.0])),  # looks away
            look_at(c + np.array([0.0, 0.0, 0.9]), c),  # straight down
            look_at(c + np.array([0.9, 0.0, 0.0]), c),  # axis-aligned
            look_at(c + np.array([0.0, 0.9, 0.3]), c),
            look_at(c + np.array([3.5, 0.0, 0.2]), c),  # box beyond max range
            look_at(c + np.array([0.5, 0.5, 0.4]), c + np.array([0.5, 1.5, 0.4])),
        ]
        return t, cams, CameraIntrinsics(17, 17, np.deg2rad(60.0), 3.0), box
    if name == "torso_views_complex5":
        scene, t = _fused(SceneKind.COMPLEX, 5,
                          [(1.2, -0.3, 0.45), (-0.4, -1.1, 0.5), (0.2, 1.2, 0.35)])
        c = scene.target_center
        cams = [camera_at(c[:2] + r * np.array([np.cos(a), np.sin(a)]), c, 5, (1.1, 1.3))
                for r in (0.75, 1.4) for a in np.linspace(0.2, 2 * np.pi + 0.2, 6,
                                                          endpoint=False)]
        return t, cams, INTR, scene.target_bbox
    raise KeyError(name)


PINNED_COUNTS = {
    "breyer_rings_complex12": [
        38, 38, 43, 42, 35, 54, 51, 28, 10, 24, 26, 15, 12, 17, 24, 37,
        16, 35, 35, 39, 35, 55, 45, 29, 9, 31, 34, 24, 14, 20, 25, 23,
        120, 96, 91, 107, 80, 132, 110, 69, 49, 69, 65, 58, 31, 42, 59, 78,
        80, 95, 78, 85, 92, 127, 89, 80, 65, 75, 60, 64, 52, 56, 60, 50],
    "edge_views_simple4": [3, 2, 159, 0, 8, 12, 10, 0, 0],
    "torso_views_complex5": [54, 54, 51, 54, 54, 55, 30, 31, 25, 32, 31, 30],
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_rear_side_counts_pinned(name):
    t, cams, intr, bbox = _pin_case(name)
    got = rear_side_ig_batch(t, cams, intr, bbox)
    assert got.dtype == np.int64
    assert got.tolist() == PINNED_COUNTS[name]


# ---------------------------------------------------------------------------
# the cull is exact: a per-ray reference over every pixel ray
# ---------------------------------------------------------------------------

def rear_side_reference(tsdf: TsdfGrid, cams: list[Pose3], intr: CameraIntrinsics,
                        bbox: Aabb) -> list[int]:
    """traverse_ray on every pixel ray of every camera, nothing culled or
    clipped; the distinct (camera, voxel) hits counted per camera."""
    g = tsdf.grid
    states = tsdf.state_volume()
    dirs_cam = intr.pixel_dirs()
    dirs_cam = dirs_cam / np.linalg.norm(dirs_cam, axis=1, keepdims=True)
    hits: set[tuple[int, tuple[int, int, int]]] = set()
    for c, cam in enumerate(cams):
        for d in dirs_cam @ cam.rotation_matrix().T:
            seen = False
            for ijk in traverse_ray(g, Ray(cam.position, d), intr.max_range):
                if (seen and states[ijk] == CellState.UNKNOWN
                        and bool(bbox.contains(g.index_to_world_center(np.array(ijk))))):
                    hits.add((c, ijk))
                seen |= states[ijk] == CellState.OCCUPIED
    return [sum(1 for c2, _ in hits if c2 == c) for c in range(len(cams))]


# rotations with entries in {0, +-0.5, +-1}: their matrices are exact signed
# permutations, so the optical axis and the middle pixel row/column of an odd
# image are exactly axis-parallel (zero direction components)
AXIS_QUATS = [np.array(q, dtype=float) for q in (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0.5, 0.5, 0.5, 0.5),
    (0.5, -0.5, -0.5, -0.5), (0.5, 0.5, -0.5, 0.5), (0.5, -0.5, 0.5, -0.5))]

unit = st.floats(0.0, 1.0)


@st.composite
def ig_cases(draw):
    dims = tuple(draw(st.integers(3, 8)) for _ in range(3))
    t = TsdfGrid.create(np.zeros(3), 0.1, dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t.grid.cells[..., 0] = np.where(rng.random(dims) < draw(st.floats(0.3, 0.7)), -0.5, 0.5)
    t.grid.cells[..., 1] = rng.random(dims) < draw(st.floats(0.3, 0.7))
    extent = 0.1 * np.asarray(dims)

    def point(lo, hi):
        return lo + np.array([draw(unit) for _ in range(3)]) * (hi - lo)

    lo = point(-0.2 * extent, 0.6 * extent)
    bbox = Aabb(lo, lo + point(0.2 * extent, extent))
    pad = 0.1 * np.sqrt(3.0)

    cams = []
    for kind in draw(st.lists(st.sampled_from(["outside", "inside", "axis"]),
                              min_size=1, max_size=3)):
        if kind == "axis":
            # look along a grid axis at the bbox from up to 1.5 m away
            q = draw(st.sampled_from(AXIS_QUATS))
            axis = Pose3(np.zeros(3), q).rotation_matrix()[:, 2]
            pos = point(bbox.lo, bbox.hi) - draw(st.floats(0.0, 1.5)) * axis
            cams.append(Pose3(pos, q))
            continue
        if kind == "inside":
            # in the bbox or its inflation pad: box corners lie behind the camera
            pos = point(bbox.lo - pad, bbox.hi + pad)
            aim = point(-extent, 2.0 * extent)
        else:
            # 5 cm to 2 m from a point of the bbox, aimed near the bbox
            off = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
            off = off / max(np.linalg.norm(off), 1e-3)
            pos = point(bbox.lo, bbox.hi) + draw(st.floats(0.05, 2.0)) * off
            aim = point(bbox.lo - pad, bbox.hi + pad)
        if np.linalg.norm(aim - pos) < 1e-3:
            aim = pos + np.array([0.0, 0.0, 1.0])
        cams.append(look_at(pos, aim))
    intr = CameraIntrinsics(draw(st.sampled_from([16, 17])), draw(st.sampled_from([16, 17])),
                            draw(st.floats(0.3, 2.5)), draw(st.floats(0.3, 3.0)))
    return t, cams, intr, bbox


def box_rays(tsdf: TsdfGrid, cams: list[Pose3], intr: CameraIntrinsics, bbox: Aabb):
    """(origins, dirs, t_max) of the pixel rays that hit the bbox inflated by
    one voxel diagonal, camera-major, clipped at box exit or max range."""
    dirs_cam = intr.pixel_dirs()
    dirs_cam = dirs_cam / np.linalg.norm(dirs_cam, axis=1, keepdims=True)
    dirs = np.concatenate([dirs_cam @ cam.rotation_matrix().T for cam in cams])
    origins = np.repeat([cam.position for cam in cams], len(dirs_cam), axis=0)
    box = bbox.inflated(tsdf.grid.cell_size * np.sqrt(3.0))
    t_enter, t_exit = ray_aabb_interval(origins, dirs, box)
    hit = t_enter <= t_exit
    return origins[hit], dirs[hit], np.minimum(t_exit[hit], intr.max_range)


def traced_rays(tsdf: TsdfGrid, cams: list[Pose3], intr: CameraIntrinsics, bbox: Aabb):
    """rear_side_ig_batch's counts and the (origins, dirs, t_max) of each
    call it makes to perception.traverse_batch."""
    calls = []
    real = perception.traverse_batch

    def counting(grid, origins, directions, t_max):
        calls.append((origins.copy(), directions.copy(), np.asarray(t_max).copy()))
        return real(grid, origins, directions, t_max)

    with mock.patch.object(perception, "traverse_batch", counting):
        counts = rear_side_ig_batch(tsdf, cams, intr, bbox)
    return counts, calls


@given(ig_cases())
def test_rear_side_batch_matches_per_ray_reference(case):
    t, cams, intr, bbox = case
    counts, calls = traced_rays(t, cams, intr, bbox)
    assert counts.tolist() == rear_side_reference(t, cams, intr, bbox)
    assert len(calls) == 1
    for got, want in zip(calls[0], box_rays(t, cams, intr, bbox)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["breyer_rings_complex12", "edge_views_simple4"])
def test_rear_side_traces_exactly_the_rays_that_hit_the_box(name):
    # the IG scorer must go through perception.traverse_batch (the benchmark
    # hooks that attribute) and hand it exactly the rays that hit the
    # inflated bbox, each clipped at its exit or the max range
    t, cams, intr, bbox = _pin_case(name)
    _, calls = traced_rays(t, cams, intr, bbox)
    assert len(calls) == 1
    want = box_rays(t, cams, intr, bbox)
    assert 0 < len(want[0]) < len(cams) * intr.width * intr.height
    for got, w in zip(calls[0], want):
        assert np.array_equal(got, w)


# ---------------------------------------------------------------------------
# the per-pose ray-visit cache: every call equals a fresh grid's uncached call
# ---------------------------------------------------------------------------

def uncached_counts(t: TsdfGrid, cams: list[Pose3], intr: CameraIntrinsics,
                    bbox: Aabb) -> list[int]:
    """The scorer without a cache, on a copy of the grid: each camera's box
    rays traced afresh, counted inside the lockstep loop.  A visit counts
    when its voxel is countable and an earlier iteration of its ray visited
    an occupied voxel."""
    g = t.grid
    fresh = TsdfGrid(Grid(g.origin.copy(), g.cell_size, g.dims, g.cells.copy()), t.truncation)
    states = fresh.state_volume()
    # C order, as traverse_batch's voxel ids
    occupied = (states == CellState.OCCUPIED).ravel()
    countable = ((states == CellState.UNKNOWN)
                 & perception._bbox_mask(fresh.grid, bbox)).ravel()
    counts = []
    for cam in cams:
        origins, dirs, t_max = box_rays(fresh, [cam], intr, bbox)
        seen = np.zeros(len(origins), dtype=bool)
        hits: set[int] = set()
        for ids, flat in traverse_batch(fresh.grid, origins, dirs, t_max):
            hits.update(flat[seen[ids] & countable[flat]].tolist())
            seen[ids[occupied[flat]]] = True
        counts.append(len(hits))
    return counts


def ig_cache_sequence():
    """A fused grid and a fixed sequence of (cams, bbox, cell edit) calls.

    The pose pool has torso-ring views, views from three of the same
    positions turned slightly, and a view from inside the target bbox; the
    first call starts with a view turned away, whose rays all miss.  The
    bbox alternates between the target's and a wider one.  Each call
    repeats some poses of the call before and draws others from the pool;
    each edit sets random voxels occupied, free or unknown.  One edit also
    makes the bbox unknown but for the inside view's own voxel, which it
    marks occupied: the rays of that view start on a surface, and only that
    first voxel lets them count the unknown ones behind it."""
    scene, t = _fused(SceneKind.COMPLEX, 5, [(1.2, -0.3, 0.45), (-0.4, -1.1, 0.5)])
    c = scene.target_center
    ring = [camera_at(c[:2] + r * np.array([np.cos(a), np.sin(a)]), c, 5, (1.1, 1.3))
            for r in (0.75, 1.4) for a in (0.3, 1.9, 3.5, 5.1)]
    turned = [look_at(cam.position, c + np.array([0.04, -0.03, 0.02])) for cam in ring[:3]]
    box = scene.target_bbox
    inside = look_at(box.lo + 0.8 * (box.hi - box.lo), c)
    pool = ring + turned + [inside]
    bboxes = [scene.target_bbox, scene.target_bbox.inflated(0.03)]
    rng = np.random.default_rng(16)
    g = t.grid
    calls, prev = [], []
    for step in range(16):
        keep = [cam for cam in prev if rng.random() < 0.6]
        cams = keep + [pool[i] for i in rng.choice(len(pool), int(rng.integers(1, 4)))]
        if step == 0:
            cams.insert(0, look_at(c + np.array([0.9, 0.0, 0.2]), c + np.array([2.0, 0.0, 0.2])))
        if step in (4, 9):
            cams.append(inside)
        voxels = tuple(rng.integers(0, n, 150) for n in g.dims)
        values = np.array([[-0.5, 1.0], [0.5, 1.0], [0.0, 0.0]],
                          dtype=np.float32)[rng.integers(0, 3, 150)]

        def edit(cells, voxels=voxels, values=values, step=step):
            cells[voxels] = values
            if step == 4:
                lo, hi = g.world_to_index(box.lo), g.world_to_index(box.hi) + 1
                cells[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = (0.0, 0.0)
                cells[tuple(g.world_to_index(inside.position))] = (-0.5, 1.0)
        calls.append((cams, bboxes[int(step % 3 == 2)], edit))
        prev = cams
    return t, calls


def untraced(cams: list[Pose3], bbox: Aabb, traced_before: set) -> list[Pose3]:
    """The cameras whose pose was not traced for `bbox` before this call,
    a pose repeated within the call once, in first-seen order; records every
    pose of the call as traced."""
    keys = [(cam.position.tobytes(), cam.orientation.tobytes(), id(bbox)) for cam in cams]
    new = {k: cam for k, cam in zip(keys, cams) if k not in traced_before}
    traced_before.update(keys)
    return list(new.values())


def test_ig_cache_equals_uncached_scorer():
    t, calls = ig_cache_sequence()
    traced_before: set = set()
    repeats = all_cached = 0
    for cams, bbox, edit in calls:
        edit(t.grid.cells)
        new = untraced(cams, bbox, traced_before)
        repeats += len(cams) - len(new)
        counts, traced = traced_rays(t, cams, IG_INTR, bbox)
        assert counts.tolist() == uncached_counts(t, cams, IG_INTR, bbox)
        # a pose traced before, for the same bbox, hands no ray to the traversal
        if not new:
            all_cached += 1
            assert traced == []
        else:
            assert len(traced) == 1
            for got, want in zip(traced[0], box_rays(t, new, IG_INTR, bbox)):
                assert np.array_equal(got, want)
    assert repeats >= 10 and all_cached >= 2


def test_ig_cache_bound_evicts_and_counts_stay_exact():
    t, calls = ig_cache_sequence()
    # one more call, of views turned away from the box: they have no visits
    # but still take a slot each, more than the bound holds
    bbox = calls[0][1]
    c = (bbox.lo + bbox.hi) / 2.0
    away = [look_at(c + [0.9, 0.05 * i, 0.2], c + [1.9, 0.05 * i, 0.2]) for i in range(6)]
    calls.insert(8, (away, bbox, lambda cells: None))
    bound = 4
    traced_before: set = set()
    retraced = 0
    with mock.patch.object(perception, "IG_CACHE_POSES", bound):
        for cams, bbox, edit in calls:
            edit(t.grid.cells)
            new = untraced(cams, bbox, traced_before)
            counts, traced = traced_rays(t, cams, IG_INTR, bbox)
            assert counts.tolist() == uncached_counts(t, cams, IG_INTR, bbox)
            assert len(t.ray_visits) <= bound
            if cams is away:
                assert counts.tolist() == [0] * len(away)
                assert all(f.size == 0 for f, _ in t.ray_visits.values())
            # more rays than the new poses have: an evicted pose was traced again
            n_new = sum(len(box_rays(t, [cam], IG_INTR, bbox)[0]) for cam in new)
            retraced += len(traced[0][0]) > n_new if traced else 0
    assert retraced >= 2


def test_ig_cache_bound_counts_poses_without_visits():
    # views turned away from the box have no visits but still take a slot
    scene = generate_scene(SceneKind.SIMPLE, False, 4)
    t = fresh_target_grid(scene.target_center)
    c = scene.target_center
    with mock.patch.object(perception, "IG_CACHE_POSES", 5):
        for i in range(12):
            pos = c + np.array([0.9, 0.05 * i, 0.2])
            cam = look_at(pos, pos + np.array([1.0, 0.0, 0.0]))
            assert rear_side_ig_batch(t, [cam], IG_INTR, scene.target_bbox).tolist() == [0]
            assert len(t.ray_visits) == min(i + 1, 5)
            assert all(f.size == 0 for f, _ in t.ray_visits.values())


def test_ig_counts_never_outlive_the_cells_they_count():
    # the counts the harness attaches for a belief state (TsdfGrid.ig_counts)
    # are those of the cells as they are: fusing a view drops them, so the
    # next counts are a fresh grid's, and a grid they were never attached
    # to is counted afresh whatever is written into its cells
    scene, t = _fused(SceneKind.COMPLEX, 5, [(1.2, -0.3, 0.45)])
    c, bbox = scene.target_center, scene.target_bbox
    cams = [camera_at(c[:2] + 1.1 * np.array([np.cos(a), np.sin(a)]), c, 5, (1.1, 1.3))
            for a in (0.3, 1.9, 3.5, 5.1)]
    t.ig_counts = {}
    before = rear_side_ig_batch(t, cams, IG_INTR, bbox).tolist()
    assert len(t.ig_counts) == len(cams)
    assert rear_side_ig_batch(t, cams, IG_INTR, bbox).tolist() == before
    cam = look_at(c + np.array([-0.4, -1.1, 0.5]), c)
    integrate_depth(t, render_depth(scene, cam, INTR), cam)
    assert t.ig_counts is None
    after = rear_side_ig_batch(t, cams, IG_INTR, bbox).tolist()
    _, fresh = _fused(SceneKind.COMPLEX, 5, [(1.2, -0.3, 0.45), (-0.4, -1.1, 0.5)])
    assert after == rear_side_ig_batch(fresh, cams, IG_INTR, bbox).tolist() != before
    assert after == uncached_counts(fresh, cams, IG_INTR, bbox)

    written, seen = fresh_target_grid(c), []
    g = written.grid
    lo, hi = g.world_to_index(bbox.lo), g.world_to_index(bbox.hi) + 1
    for value in ((0.0, 0.0), (0.5, 1.0), (-0.5, 1.0), (0.0, 0.0)):
        # the box under a surface on its top two layers, which the views see
        written.grid.cells[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2] - 2] = value
        written.grid.cells[lo[0]:hi[0], lo[1]:hi[1], hi[2] - 2:hi[2]] = (-0.5, 1.0)
        seen.append(rear_side_ig_batch(written, cams, IG_INTR, bbox).tolist())
        assert written.ig_counts is None
        assert seen[-1] == uncached_counts(written, cams, IG_INTR, bbox)
    assert seen[0] == seen[3] != seen[1]


IG_EPISODE = """
import sys
import numpy
before = "numpy.ma" in sys.modules
from actpermoma import harness
from actpermoma.planning import PlannerConfig
from actpermoma.scene import SceneKind
harness.run_episode_traced(harness.RunConfig(planner=PlannerConfig(max_steps=3),
                                             scenario=SceneKind.COMPLEX, episodes=1), 0)
print(before, "numpy.ma" in sys.modules)
"""


def test_ig_scoring_episode_does_not_import_numpy_ma():
    # rear_side_ig_batch counts distinct keys without np.unique, whose
    # masked-array check imports numpy.ma (tens of ms) in every process
    # and pool worker; a fresh interpreter shows what an episode imports
    out = subprocess.run([sys.executable, "-c", IG_EPISODE], capture_output=True, text=True,
                         check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert out[1] == "False"
