from __future__ import annotations

import numpy as np
import pytest

from actpermoma.geom import Aabb, CellState, Pose2, Pose3, look_at
from actpermoma.grasping import build_map_pair
from actpermoma.perception import (
    TsdfGrid,
    VoxelState,
    integrate_depth,
    project_occupancy,
    rear_side_ig_batch,
)
from actpermoma.planning import (
    DIST_CLAMP,
    CandidatePath,
    PathView,
    PlannerConfig,
    PlannerState,
    evaluate_paths,
)
from actpermoma.scene import (
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
    ts = np.arange(0.0, intr.max_range, g.voxel_size / 100.0)
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
            if seen and st == VoxelState.UNKNOWN:
                center = g.index_to_world_center(np.array(t))
                if bool(bbox.contains(center)):
                    counted.add(t)
            if st == VoxelState.OCCUPIED_SURFACE:
                seen = True
    return len(counted)


def test_fresh_grid_all_unknown():
    t = fresh_target_grid([0.0, 0.0, 0.9])
    assert (t.state_volume() == VoxelState.UNKNOWN).all()


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


def test_plane_sign_convention():
    # plane (table top) 1 m below a straight-down camera
    scene = generate_scene(SceneKind.SIMPLE, False, 2)
    t = fresh_target_grid(scene.target_center)
    eye = scene.target_center + np.array([0.0, 0.0, 1.0])
    cam = look_at(eye, scene.target_center)
    img = render_depth(scene, cam, INTR)
    integrate_depth(t, img, cam)
    states = t.state_volume()
    zc = t.grid.origin[2] + (np.arange(40) + 0.5) * t.grid.voxel_size
    ci, cj = 20, 20
    high = zc > scene.target_center[2] + 0.15  # free air well above the objects
    assert (states[ci, cj, high] == VoxelState.FREE).all()
    # voxels below the tabletop (beyond truncation) stay unknown
    low = zc < 0.75 - t.truncation - t.grid.voxel_size
    if low.any():
        assert (states[ci, cj, low] == VoxelState.UNKNOWN).all()


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
        good += int((d <= t.grid.voxel_size).sum())
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
    base = Pose2(0.0, 0.0, 0.0)
    return CandidatePath(goal_id=goal_id, base_path=[base],
                         views=[PathView(base, cam, arc) for cam, arc in views], length=0.0)


def path_igs(t: TsdfGrid, paths: list[list[tuple[Pose3, float]]], intr: CameraIntrinsics,
             bbox: Aabb, unit_weights: bool = False) -> list[float]:
    """J_IG of each path; no grasps, so the executability term is zero."""
    utils = evaluate_paths([_path(i, views) for i, views in enumerate(paths)], t, [],
                           PlannerConfig(), PlannerState(), intr, bbox, MAPS,
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
    unknown_frac = (states[mask] == VoxelState.UNKNOWN).mean()
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
