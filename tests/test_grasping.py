from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actpermoma.geom import CellState, Pose2, Pose3, look_at, quat_from_yaw, quat_rotate
from actpermoma.grasping import (
    Arm,
    ARM_OFFSET,
    EXEC_MIN_COVERAGE,
    EXEC_MIN_INTRINSIC,
    Grasp,
    GraspDetector,
    GraspOutcome,
    best_grasp,
    build_map_pair,
    build_reachability_map,
    exec_utility,
    execute_grasp,
    grasp_pitch_class,
    reachability,
    smoothstep,
    surface_normals,
    update_stability,
)
from actpermoma.perception import TsdfGrid, integrate_depth
from actpermoma.planning import CandidatePath, Route
from actpermoma.scene import (
    TABLE_HEIGHT,
    Approach,
    CameraIntrinsics,
    GroundTruthGrasp,
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


def _path_to(goal: Pose2) -> CandidatePath:
    return CandidatePath(0, Route.through(goal.xy[None], goal), [])


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
        centers = g.centers.reshape(-1, 3)
        idx = np.argwhere(np.ones(g.dims, dtype=bool))
        near = np.linalg.norm(idx - g.world_to_index(pose.position), axis=1) <= 3
        sd = primitive_sdf(target, centers)
        on_surf = (sd <= 0.0) & (sd >= -g.cell_size)
        approach = quat_rotate(pose.orientation, np.array([0.0, 0.0, 1.0]))
        h = 2e-3
        grad = np.stack([(primitive_sdf(target, centers + e) - primitive_sdf(target, centers - e))
                         for e in (np.array([h, 0, 0]), np.array([0, h, 0]), np.array([0, 0, h]))],
                        axis=1)
        n = np.linalg.norm(grad, axis=1, keepdims=True)
        n[n < 1e-12] = 1.0
        facing = (grad / n) @ (-approach) > 0.2
        above = centers[:, 2] >= 0.75 + 0.5 * g.cell_size
        shell = idx[near & on_surf & facing & above]
        if shell.shape[0] == 0:
            continue
        nonempty.add(gi)
        obs = states[shell[:, 0], shell[:, 1], shell[:, 2]] == CellState.OCCUPIED
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


# ---------------------------------------------------------------------------
# references: the per-grasp shell loop and the full-grid detect that
# GraspDetector's single pass and single gather replaced
# ---------------------------------------------------------------------------

def reference_shells(g, scene):
    target = scene.target_primitive
    r = GraspDetector.BALL_RADIUS_VOXELS
    offs = np.array([(i, j, k)
                     for i in range(-r, r + 1)
                     for j in range(-r, r + 1)
                     for k in range(-r, r + 1)
                     if i * i + j * j + k * k <= r * r])
    shells, voxels = [], []
    for pose in scene.world_truth_grasp_poses():
        center = g.world_to_index(pose.position)
        ball = center + offs
        ball = ball[g.contains_index(ball)]
        centers = g.index_to_world_center(ball)
        sd = primitive_sdf(target, centers)
        on_surface = (sd <= 0.0) & (sd >= -g.cell_size)
        above_table = centers[:, 2] >= TABLE_HEIGHT + 0.5 * g.cell_size
        normals = surface_normals(target, centers)
        approach = quat_rotate(pose.orientation, np.array([0.0, 0.0, 1.0]))
        facing = normals @ (-approach) > GraspDetector.FACING_MIN_DOT
        shells.append(ball[on_surface & facing & above_table])
        voxels.append(tuple(int(x) for x in np.clip(center, 0, np.array(g.dims) - 1)))
    return shells, voxels


def reference_detect(det, tsdf, q_th, seed, noise_amplitude=0.05):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 0x6A59]))
    states = tsdf.state_volume()
    out = []
    for gi, (truth, shell, pose) in enumerate(
            zip(det.scene.truth_grasps, det.shells, det._world_poses)):
        eps = float(rng.uniform(-noise_amplitude, noise_amplitude)) if noise_amplitude else 0.0
        if shell.shape[0] == 0:
            continue
        observed = states[shell[:, 0], shell[:, 1], shell[:, 2]] == CellState.OCCUPIED
        coverage = float(observed.mean())
        q = min(max(truth.intrinsic_quality * smoothstep(coverage, 0.3, 0.8) + eps, 0.0), 1.0)
        if q >= q_th:
            out.append(Grasp(pose=pose, quality=q, voxel=det.voxels[gi],
                             coverage=coverage, truth_index=gi))
    return out


def with_empty_shell_grasps(scene):
    """`scene` with two truth grasps whose shells are empty put first: one
    whose ball lies in free space above the target, one whose ball lies
    outside the target grid."""
    empty = [GroundTruthGrasp(Pose3(np.array([0.0, 0.0, dz]), TOP_DOWN_Q), 0.9,
                              Approach.TOP_DOWN) for dz in (0.2, 1.0)]
    return replace(scene, truth_grasps=(*empty, *scene.truth_grasps))


def test_detector_shells_equal_per_grasp_loop():
    n_scenes = n_empty = 0
    for kind in SceneKind:
        for hard in (False, True):
            for seed in range(50):
                scene = generate_scene(kind, hard, 1000 + seed)
                if seed == 0:
                    scene = with_empty_shell_grasps(scene)
                t = TsdfGrid.create_cube(scene.target_center, 0.6, 40)
                det = GraspDetector(t, scene)
                shells, voxels = reference_shells(t.grid, scene)
                assert det.voxels == voxels
                assert len(det.shells) == len(shells)
                for got, want in zip(det.shells, shells):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                n_empty += sum(s.shape[0] == 0 for s in shells)
                n_scenes += 1
    assert n_scenes >= 200
    assert n_empty >= 8


def test_detect_equals_full_grid_reference():
    # random cells with NaN tsdf, zero weights and zero tsdf; the two
    # empty-shell grasps come first, so a skipped noise draw shifts every
    # later grasp's quality
    rng = np.random.default_rng(20)
    for seed in range(6):
        scene = with_empty_shell_grasps(generate_scene(list(SceneKind)[seed % 2],
                                                       seed >= 3, 300 + seed))
        t = TsdfGrid.create_cube(scene.target_center, 0.6, 40)
        det = GraspDetector(t, scene)
        assert [s.shape[0] == 0 for s in det.shells[:2]] == [True, True]
        n = t.tsdf.size
        for trial in range(4):
            tsdf = rng.uniform(-1.0, 1.0, n)
            tsdf[rng.random(n) < 0.1] = np.nan
            tsdf[rng.random(n) < 0.05] = 0.0
            weight = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.5, 64.0, n))
            t.grid.cells[..., 0] = tsdf.reshape(t.tsdf.shape)
            t.grid.cells[..., 1] = weight.reshape(t.weight.shape)
            for q_th, noise in ((0.0, 0.05), (0.3, 0.2), (0.5, 0.0)):
                got = det.detect(t, q_th, seed=7 * trial + seed, noise_amplitude=noise)
                want = reference_detect(det, t, q_th, seed=7 * trial + seed, noise_amplitude=noise)
                assert got == want
        assert len({g.coverage for g in det.detect(t, 0.0, 0)}) > 1


def test_build_map_pair_is_read_only_and_equals_a_fresh_build():
    pair = build_map_pair()
    assert build_map_pair() is pair
    for m, fresh in zip(pair, (build_reachability_map(Arm.LEFT),
                               build_reachability_map(Arm.RIGHT))):
        assert (m.arm, m.yaw_lo, m.yaw_step) == (fresh.arm, fresh.yaw_lo, fresh.yaw_step)
        for name in ("dist_edges", "height_edges", "scores"):
            a, b = getattr(m, name), getattr(fresh, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable


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
    def shifted(p):  # the 2D point p moved by the planar rigid motion `shift`
        c, s = np.cos(shift.theta), np.sin(shift.theta)
        return np.array([shift.x + c * p[0] - s * p[1], shift.y + s * p[0] + c * p[1]])

    rng = np.random.default_rng(3)
    for _ in range(50):
        base = Pose2(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-np.pi, np.pi))
        gp = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 1.4)])
        g = replace(_grasp_at((0, 0, 0)), pose=Pose3(gp, quat_from_yaw(rng.uniform(0, 6))))
        shift = Pose2(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-np.pi, np.pi))
        moved_base = Pose2(*shifted(base.xy), shift.theta + base.theta)
        moved_pos = shifted(gp[:2])
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
    path = _path_to(Pose2(0, 0, 0))
    assert exec_utility([], path, MAPS) == (None, 0.0)
    g = replace(_grasp_at((0, 0, 0)),
                pose=Pose3(np.array([0.65 * np.cos(ARM_OFFSET[Arm.LEFT]),
                                     0.65 * np.sin(ARM_OFFSET[Arm.LEFT]), 0.8]),
                           TOP_DOWN_Q))
    # the left arm's peak: reachability 1.0, not weighted by any path length
    chosen, score = exec_utility([g], path, MAPS)
    assert chosen.pose is g.pose and chosen.arm is Arm.LEFT
    assert score == pytest.approx(1.0)


def test_exec_utility_matches_exhaustive_max():
    rng = np.random.default_rng(7)
    for _ in range(30):
        base = Pose2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-np.pi, np.pi))
        grasps = []
        for _ in range(rng.integers(1, 8)):
            gp = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0, 1.6)])
            grasps.append(replace(_grasp_at((0, 0, 0)),
                                  pose=Pose3(gp, quat_from_yaw(rng.uniform(0, 6)))))
        want = max(reachability(MAPS, g, base)[0] for g in grasps)
        _, got = exec_utility(grasps, _path_to(base), MAPS)
        assert got == pytest.approx(want, abs=1e-12)


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

    def with_intrinsic(ok: bool):
        # the matched truth grasp just below or at the inclusive bound
        truths = list(scene.truth_grasps)
        truths[g.truth_index] = replace(
            truth, intrinsic_quality=EXEC_MIN_INTRINSIC if ok else EXEC_MIN_INTRINSIC - 0.01)
        return replace(scene, truth_grasps=tuple(truths))

    for intrinsic_ok in (False, True):
        for reach_ok in (False, True):
            for cover_ok in (False, True):
                gg = replace(g, coverage=0.9 if cover_ok else 0.1)
                base = base_with_reach(reach_ok)
                out = execute_grasp(with_intrinsic(intrinsic_ok), gg, base, MAPS)
                want = intrinsic_ok and reach_ok and cover_ok
                assert (out is GraspOutcome.SUCCEEDED) == want, (
                    intrinsic_ok, reach_ok, cover_ok)


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(SceneKind)), st.booleans(), st.integers(0, 10_000),
       st.floats(0.55, 1.0), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_detected_grasps_pass_execution_quality_and_coverage(kind, hard, scene_seed, q_th,
                                                             observed, seed):
    # detect reports q = intrinsic * smoothstep(coverage, 0.3, 0.8) + noise,
    # noise within +-0.05; q >= q_th >= 0.55 needs intrinsic >= 0.5 and a
    # coverage whose smoothstep is >= 0.5, above 0.5.  So at such q_th
    # execution can fail a detected grasp on reach alone.  The shells are
    # observed occupied at random, `observed` of their voxels on average.
    scene = generate_scene(kind, hard, scene_seed)
    t = TsdfGrid.create_cube(scene.target_center, 0.6, 40)
    t.grid.cells[np.random.default_rng(seed).random(t.grid.dims) < observed] = (-0.5, 1.0)
    for g in GraspDetector(t, scene).detect(t, q_th, seed):
        assert scene.truth_grasps[g.truth_index].intrinsic_quality >= EXEC_MIN_INTRINSIC
        assert g.coverage >= EXEC_MIN_COVERAGE
