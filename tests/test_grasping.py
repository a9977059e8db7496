from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from actpermoma.geom import Pose2, Pose3, look_at, quat_from_yaw, quat_rotate
from actpermoma.grasping import (
    Arm,
    ARM_OFFSET,
    Grasp,
    GraspDetector,
    GraspOutcome,
    ReachabilityMap,
    best_grasp,
    build_map_pair,
    build_reachability_map,
    exec_utility,
    execute_grasp,
    grasp_pitch_class,
    reachability,
    smoothstep,
    update_stability,
)
from actpermoma.perception import TsdfGrid, VoxelState, integrate_depth
from actpermoma.scene import (
    Approach,
    CameraIntrinsics,
    SceneKind,
    generate_scene,
    primitive_sdf,
    render_depth,
)

INTR = CameraIntrinsics(64, 64, np.deg2rad(60.0), 3.0)
MAPS = build_map_pair()


def fused_scene(seed=2, kind=SceneKind.SIMPLE, views=24):
    scene = generate_scene(kind, False, seed)
    t = TsdfGrid.create_cube(scene.target_center, 0.6, 40)
    for az in np.linspace(0, 2 * np.pi, views, endpoint=False):
        for el in (0.4, 0.9):
            pos = scene.target_center + 1.0 * np.array(
                [np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), np.sin(el)])
            cam = look_at(pos, scene.target_center)
            integrate_depth(t, render_depth(scene, cam, INTR), cam)
    return scene, t


@dataclass
class _FakePath:
    goal_base: Pose2
    length: float


def test_detect_on_unknown_tsdf_is_empty():
    scene = generate_scene(SceneKind.SIMPLE, False, 1)
    t = TsdfGrid.create_cube(scene.target_center, 0.6, 40)
    assert GraspDetector(t, scene).detect(t, 0.1, seed=0) == []


def test_detect_fully_fused_reports_intrinsic_quality():
    scene, t = fused_scene(seed=4)
    det = GraspDetector(t, scene)
    grasps = det.detect(t, q_th=0.0, seed=0, noise_amplitude=0.0)
    assert grasps
    full = [g for g in grasps if g.coverage >= 0.8]
    assert full, "dense fusion should saturate coverage for some grasps"
    for g in full:
        truth = scene.truth_grasps[g.truth_index]
        assert g.quality == pytest.approx(truth.intrinsic_quality, abs=1e-9)
    # thresholding: q_th 0.8 keeps exactly the grasps with quality >= 0.8
    kept = det.detect(t, q_th=0.8, seed=0, noise_amplitude=0.0)
    assert {g.truth_index for g in kept} == {g.truth_index for g in grasps if g.quality >= 0.8}


def test_detect_coverage_matches_exhaustive_count():
    scene, _ = fused_scene(seed=6)
    # single side view -> partial coverage
    t = TsdfGrid.create_cube(scene.target_center, 0.6, 40)
    cam = look_at(scene.target_center + np.array([1.1, 0.1, 0.4]), scene.target_center)
    integrate_depth(t, render_depth(scene, cam, INTR), cam)
    coverage = {g.truth_index: g.coverage
                for g in GraspDetector(t, scene).detect(t, 0.0, seed=0, noise_amplitude=0.0)}
    states = t.state_volume()
    target = scene.target_primitive
    nonempty = set()
    g = t.grid
    for gi, pose in enumerate(scene.world_truth_grasp_poses()):
        # independent recount: scan the whole grid for approach-facing shell voxels
        centers = g.centers().reshape(-1, 3)
        idx = np.argwhere(np.ones(g.dims, dtype=bool))
        near = np.linalg.norm(idx - g.world_to_index(pose.position), axis=1) <= 3
        sd = primitive_sdf(target, centers)
        on_surf = (sd <= 0.0) & (sd >= -g.voxel_size)
        approach = quat_rotate(pose.orientation, np.array([0.0, 0.0, 1.0]))
        h = 2e-3
        grad = np.stack([(primitive_sdf(target, centers + e) - primitive_sdf(target, centers - e))
                         for e in (np.array([h, 0, 0]), np.array([0, h, 0]), np.array([0, 0, h]))],
                        axis=1)
        n = np.linalg.norm(grad, axis=1, keepdims=True)
        n[n < 1e-12] = 1.0
        facing = (grad / n) @ (-approach) > 0.2
        above = centers[:, 2] >= 0.75 + 0.5 * g.voxel_size
        shell = idx[near & on_surf & facing & above]
        if shell.shape[0] == 0:
            continue
        nonempty.add(gi)
        obs = states[shell[:, 0], shell[:, 1], shell[:, 2]] == VoxelState.OCCUPIED_SURFACE
        assert coverage[gi] == pytest.approx(obs.mean())
    # q_th 0 reports every grasp that has a contact shell
    assert set(coverage) == nonempty


def test_detect_quality_monotone_in_coverage():
    qs = [0.9 * smoothstep(c, 0.3, 0.8) for c in np.linspace(0, 1, 21)]
    assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))


def test_detect_deterministic_per_seed():
    scene, t = fused_scene(seed=9)
    a = GraspDetector(t, scene).detect(t, 0.7, seed=5)
    b = GraspDetector(t, scene).detect(t, 0.7, seed=5)
    assert [(g.voxel, g.quality) for g in a] == [(g.voxel, g.quality) for g in b]
    c = GraspDetector(t, scene).detect(t, 0.7, seed=6)
    assert [(g.voxel, g.quality) for g in a] != [(g.voxel, g.quality) for g in c]


TOP_DOWN_Q = np.array([0.0, 1.0, 0.0, 0.0])  # z axis points straight down


def _grasp_at(voxel, quality=0.9):
    return Grasp(pose=Pose3(np.array([0.0, 0.0, 0.8]), TOP_DOWN_Q),
                 quality=quality, voxel=voxel)


def _stable(tracked: list, n_stab: int) -> list:
    # the episode loop's stability filter
    return [g for g in tracked if g.stable_for >= n_stab]


def test_filter_stable_n1_is_identity():
    new = [_grasp_at((1, 2, 3)), _grasp_at((4, 5, 6))]
    out = _stable(update_stability([], new), 1)
    assert [g.voxel for g in out] == [(1, 2, 3), (4, 5, 6)]
    assert all(g.stable_for == 1 for g in out)


def test_filter_stable_counter_semantics():
    # seen 4 consecutive steps: excluded at n_stab=5; the 5th step passes
    tracked: list = []
    for step in range(1, 6):
        tracked = update_stability(tracked, [_grasp_at((1, 1, 1))])
        stable = _stable(tracked, 5)
        assert tracked[0].stable_for == step
        if step < 5:
            assert stable == []
        else:
            assert [g.voxel for g in stable] == [(1, 1, 1)]
            assert stable[0].stable_for == 5


def test_filter_stable_reset_on_gap():
    tracked = update_stability([], [_grasp_at((2, 2, 2))])
    tracked = update_stability(tracked, [_grasp_at((2, 2, 2))])
    assert tracked[0].stable_for == 2
    tracked = update_stability(tracked, [])  # voxel absent for one step
    assert tracked == []
    tracked = update_stability(tracked, [_grasp_at((2, 2, 2))])
    assert tracked[0].stable_for == 1


def test_reachability_map_peak_and_out_of_range():
    m = build_reachability_map(Arm.LEFT)
    assert m.score_at(0.65, 0.8, ARM_OFFSET[Arm.LEFT], Approach.TOP_DOWN) == pytest.approx(1.0)
    assert m.score_at(1.5, 0.8, ARM_OFFSET[Arm.LEFT], Approach.TOP_DOWN) == 0.0
    assert m.score_at(0.65, 0.8, ARM_OFFSET[Arm.LEFT], Approach.SIDE_45) == pytest.approx(0.7)
    # behind the robot: beyond the 100 degree cutoff for both arms
    assert m.score_at(0.65, 0.8, np.pi, Approach.TOP_DOWN) == 0.0


def test_reachability_query_peak_and_cutoff():
    # grasp straight ahead at peak distance/height
    base = Pose2(0.0, 0.0, 0.0)
    g = _grasp_at((0, 0, 0))
    g = replace(g, pose=Pose3(np.array([0.65 * np.cos(ARM_OFFSET[Arm.LEFT]),
                                        0.65 * np.sin(ARM_OFFSET[Arm.LEFT]), 0.8]),
                              g.pose.orientation))
    score, arm = reachability(MAPS, g, base)
    assert score == pytest.approx(1.0)
    assert arm is Arm.LEFT
    behind = replace(g, pose=Pose3(np.array([-0.65, 0.0, 0.8]), g.pose.orientation))
    assert reachability(MAPS, behind, base)[0] == 0.0


def test_reachability_se2_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        base = Pose2(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-np.pi, np.pi))
        gp = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 1.4)])
        g = replace(_grasp_at((0, 0, 0)), pose=Pose3(gp, quat_from_yaw(rng.uniform(0, 6))))
        shift = Pose2(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-np.pi, np.pi))
        moved_base = shift.compose(base)
        moved_pos = shift.transform(gp[:2])
        moved = replace(g, pose=Pose3(np.array([moved_pos[0], moved_pos[1], gp[2]]),
                                      g.pose.orientation))
        s1, _ = reachability(MAPS, g, base)
        s2, _ = reachability(MAPS, moved, moved_base)
        assert s1 == pytest.approx(s2, abs=1e-12)


def test_reachability_matches_two_map_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        base = Pose2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-np.pi, np.pi))
        gp = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.0, 1.7)])
        yaw = rng.uniform(0, 2 * np.pi)
        g = replace(_grasp_at((0, 0, 0)), pose=Pose3(gp, quat_from_yaw(yaw)))
        got, _ = reachability(MAPS, g, base)
        # oracle: recompute the relative cylindrical coordinates and take the
        # max over direct bin lookups in both maps; side grasps key yaw on the
        # horizontal approach direction, top-down ones on the position bearing
        rel = gp[:2] - base.xy
        c, s = np.cos(-base.theta), np.sin(-base.theta)
        local = np.array([c * rel[0] - s * rel[1], s * rel[0] + c * rel[1]])
        d = float(np.hypot(*local))
        pitch = grasp_pitch_class(g.pose)
        if pitch is Approach.SIDE_45:
            ap = quat_rotate(g.pose.orientation, np.array([0.0, 0.0, 1.0]))
            y = float(np.arctan2(s * ap[0] + c * ap[1], c * ap[0] - s * ap[1]))
        else:
            y = float(np.arctan2(local[1], local[0]))
        want = max(m.score_at(d, gp[2], y, pitch) for m in MAPS)
        assert got == pytest.approx(want, abs=1e-12)


def test_exec_utility_empty_and_arithmetic():
    path = _FakePath(goal_base=Pose2(0, 0, 0), length=2.0)
    assert exec_utility([], path, MAPS) == 0.0
    g = replace(_grasp_at((0, 0, 0)),
                pose=Pose3(np.array([0.65 * np.cos(ARM_OFFSET[Arm.LEFT]),
                                     0.65 * np.sin(ARM_OFFSET[Arm.LEFT]), 0.8]),
                           TOP_DOWN_Q))
    # reachability 1.0 over length 2 -> 0.5; with an 0.8-scored grasp -> 0.4
    assert exec_utility([g], path, MAPS) == pytest.approx(0.5)
    assert exec_utility([g], _FakePath(Pose2(0, 0, 0), 0.01), MAPS) == pytest.approx(10.0)
    assert exec_utility([g], path, MAPS, unit_length=True) == pytest.approx(1.0)


def test_exec_utility_matches_exhaustive_max():
    rng = np.random.default_rng(7)
    for _ in range(30):
        base = Pose2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-np.pi, np.pi))
        length = rng.uniform(0.05, 4.0)
        grasps = []
        for _ in range(rng.integers(1, 8)):
            gp = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0, 1.6)])
            grasps.append(replace(_grasp_at((0, 0, 0)),
                                  pose=Pose3(gp, quat_from_yaw(rng.uniform(0, 6)))))
        want = max(reachability(MAPS, g, base)[0] for g in grasps) / max(length, 0.1)
        got = exec_utility(grasps, _FakePath(base, length), MAPS)
        assert got == pytest.approx(want, abs=1e-12)
        assert got <= 10.0 + 1e-9


def test_best_grasp_reports_arm():
    base = Pose2(0, 0, 0)
    left_pos = np.array([0.65 * np.cos(ARM_OFFSET[Arm.LEFT]),
                         0.65 * np.sin(ARM_OFFSET[Arm.LEFT]), 0.8])
    g = replace(_grasp_at((0, 0, 0)), pose=Pose3(left_pos, TOP_DOWN_Q))
    chosen, score = best_grasp(MAPS, [g], base)
    assert chosen is not None and chosen.arm is Arm.LEFT
    assert score == pytest.approx(1.0)


def test_execute_grasp_truth_table():
    scene, t = fused_scene(seed=14)
    det = GraspDetector(t, scene)
    grasps = det.detect(t, q_th=0.0, seed=0, noise_amplitude=0.0)
    assert grasps
    g = max(grasps, key=lambda x: x.coverage)
    truth = scene.truth_grasps[g.truth_index]
    gp = g.pose.position

    def base_with_reach(high: bool) -> Pose2:
        if high:
            xy = gp[:2] - 0.65 * np.array([np.cos(0.3), np.sin(0.3)])
            return Pose2(float(xy[0]), float(xy[1]),
                         float(np.arctan2(gp[1] - xy[1], gp[0] - xy[0])))
        return Pose2(float(gp[0] - 2.5), float(gp[1]), 0.0)

    for intrinsic_ok in (False, True):
        for reach_ok in (False, True):
            for cover_ok in (False, True):
                gg = replace(g, coverage=0.9 if cover_ok else 0.1)
                base = base_with_reach(reach_ok)
                out = execute_grasp(scene, gg, base, MAPS,
                                    min_intrinsic=0.0 if intrinsic_ok else 1.01)
                # intrinsic_ok False forces the intrinsic condition to fail
                want = intrinsic_ok and reach_ok and cover_ok
                assert (out is GraspOutcome.SUCCEEDED) == want, (
                    intrinsic_ok, reach_ok, cover_ok, truth.intrinsic_quality)


def test_execute_grasp_no_matching_truth_fails():
    scene, t = fused_scene(seed=3)
    ghost = replace(_grasp_at((0, 0, 0)),
                    pose=Pose3(scene.target_center + np.array([0.5, 0.5, 0.5]),
                               quat_from_yaw(0)), coverage=1.0)
    assert execute_grasp(scene, ghost, Pose2(0, 0, 0), MAPS) is GraspOutcome.FAILED


def test_execute_grasp_zero_reach_fails():
    scene, t = fused_scene(seed=5)
    det = GraspDetector(t, scene)
    grasps = det.detect(t, q_th=0.0, seed=0, noise_amplitude=0.0)
    g = replace(max(grasps, key=lambda x: x.coverage), coverage=1.0)
    far = Pose2(g.pose.position[0] - 3.0, g.pose.position[1], 0.0)
    assert execute_grasp(scene, g, far, MAPS) is GraspOutcome.FAILED
