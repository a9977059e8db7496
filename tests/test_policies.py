from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from actpermoma.geom import CellState, Pose2, Pose3
from actpermoma.grasping import Arm, Grasp, build_map_pair
from actpermoma.harness import BeliefNode, Episode, RunConfig, run_episode_traced, scene_record
from actpermoma.perception import rear_side_ig_batch
from actpermoma.planning import (
    NavMap,
    PlannerConfig,
    camera_at,
    evaluate_paths,
    inflate_occupied,
    sample_base_goal_slots,
    sample_camera_poses,
    select_from_utilities,
    should_execute,
    step,
)
import actpermoma.policies as policies
from actpermoma.policies import (
    Abort,
    ActPerMoMaPolicy,
    BreyerNbvPolicy,
    ExecuteGrasp,
    IgOnlyPolicy,
    MoveStep,
    NaivePolicy,
    NoWeightsPolicy,
    PolicyKind,
    RandomPolicy,
    RouteCache,
    make_policy,
)
from actpermoma.scene import SceneKind
from actpermoma.seeding import derive_seed

MAPS = build_map_pair()


def make_belief(seed=3, kind=SceneKind.SIMPLE, views=2, cfg=None, step_index=0):
    """A scene and the belief at `step_index` of an episode on it (policy seed
    `seed`) that sensed `views` times from its start pose.  The belief holds
    no stable grasp: a test fabricates the grasps it needs."""
    cfg = cfg or PlannerConfig()
    record = scene_record(kind, False, seed)
    scene, start = record.scene, record.start
    episode = Episode(RunConfig(planner=cfg, scenario=kind), record, seed)
    cam = camera_at(start.xy, scene.target_center, derive_seed(seed, "torso"), cfg.torso_band)
    for _ in range(views):
        episode.sense(cam)
    return scene, replace(episode.observe(step_index), stable_grasps=[])


def hand_paths(policy, belief, routes):
    """The candidate paths of `policy.decide`, composed from the public
    pipeline ops with the policy's seeds and the given route cache."""
    cfg = policy.cfg
    nav = NavMap(belief.occ, inflate_occupied(belief.occ))
    slots = sample_base_goal_slots(belief.occ, belief.target_center[:2], cfg.n_b,
                                   policy.goal_seed, cfg.reach_radius, blocked=nav.blocked)
    paths = []
    for slot, goal in slots:
        try:
            route = routes.path_to(nav, belief.robot, goal, slot)
        except Exception:
            continue
        paths.append(sample_camera_poses(route, belief.target_center, cfg.cam_spacing,
                                         cfg.torso_band, seed=policy.cam_seed,
                                         goal_id=slot))
    return paths


def test_actpermoma_decision_matches_hand_composition():
    cfg = PlannerConfig()
    scene, belief = make_belief(seed=8)
    policy = ActPerMoMaPolicy(cfg, seed=5, map_pair=MAPS)
    decision = policy.decide(belief)
    assert isinstance(decision, MoveStep)

    paths = hand_paths(policy, belief, RouteCache())
    utils = evaluate_paths(paths, belief.target_tsdf, [], cfg, False,
                           belief.intr.downsampled(cfg.ig_downsample),
                           belief.target_bbox, MAPS)
    best, _ = select_from_utilities(utils, cfg, None)
    assert not should_execute(best.path, 0.0, cfg)
    want = step(belief.robot, best.path.route, cfg.step_size)
    assert (decision.base.x, decision.base.y) == (want.x, want.y)


def test_actpermoma_latches_grasp_found():
    # a stable grasp seen once keeps the IG weight at cfg.w_ig on a later
    # step whose grasp set is empty again
    cfg = PlannerConfig()
    scene, belief = make_belief(seed=8)
    policy = ActPerMoMaPolicy(cfg, seed=5, map_pair=MAPS)
    g = Grasp(pose=Pose3(scene.target_center + np.array([0.0, 0.0, 0.02]),
                         np.array([0.0, 1.0, 0.0, 0.0])),
              quality=0.93, voxel=(20, 20, 20), stable_for=3)
    assert isinstance(policy.decide(replace(belief, stable_grasps=[g])), MoveStep)
    second = replace(belief, step_index=1)
    policy.decide(second)
    paths = hand_paths(policy, second, policy.routes)

    def utilities(grasp_found):
        return [(u.path.goal_id, u.j_ig, u.j_exec, u.utility)
                for u in evaluate_paths(paths, second.target_tsdf, [], cfg, grasp_found,
                                        second.intr.downsampled(cfg.ig_downsample),
                                        second.target_bbox, MAPS)]

    assert policy.last_trace["goal_utilities"] == utilities(True)
    assert policy.last_trace["goal_utilities"] != utilities(False)


def test_ig_only_executes_within_reach_only():
    cfg = PlannerConfig()
    scene, belief = make_belief(seed=2, views=3)
    policy = IgOnlyPolicy(cfg, seed=1, map_pair=MAPS)
    assert policy.cfg.w_exec == 0.0

    # fabricate a stable grasp at the target
    g = Grasp(pose=Pose3(scene.target_center + np.array([0.0, 0.0, 0.02]),
                         np.array([0.0, 1.0, 0.0, 0.0])),
              quality=0.93, voxel=(20, 20, 20), stable_for=3)
    far = replace(belief, stable_grasps=[g])
    if float(np.linalg.norm(belief.robot.xy - scene.target_center[:2])) > cfg.reach_radius:
        out = policy.decide(far)
        assert isinstance(out, MoveStep)  # beyond reach: never executes

    near_robot = Pose2(scene.target_center[0] - 0.8, scene.target_center[1], 0.0)
    near = replace(belief, robot=near_robot, stable_grasps=[g, replace(g, quality=0.5,
                                                                       voxel=(1, 1, 1))])
    out = policy.decide(near)
    assert isinstance(out, ExecuteGrasp)
    assert out.grasp.quality == pytest.approx(0.93)  # highest quality wins


def test_no_weights_uses_unweighted_utilities():
    cfg = PlannerConfig()
    scene, belief = make_belief(seed=4, views=2)
    policy = NoWeightsPolicy(cfg, seed=3, map_pair=MAPS)
    decision = policy.decide(belief)
    assert isinstance(decision, (MoveStep, Abort))
    gu = policy.last_trace.get("goal_utilities")
    if gu:
        # utilities must equal the unweighted recomputation
        paths = hand_paths(policy, belief, RouteCache())
        utils = evaluate_paths(paths, belief.target_tsdf, [], cfg, False,
                               belief.intr.downsampled(cfg.ig_downsample),
                               belief.target_bbox, MAPS, unit_weights=True)
        want = {u.path.goal_id: u.utility for u in utils}
        got = {g[0]: g[3] for g in gu}
        assert got == pytest.approx(want)


def test_no_weights_equal_ig_views_contribute_equally():
    # two identical camera views at 1 m and 3 m arc: same unweighted term
    from actpermoma.planning import CandidatePath, Route

    scene, belief = make_belief(seed=6, views=1)
    cam = camera_at(belief.robot.xy + np.array([0.3, 0.0]), scene.target_center, 7,
                    (1.1, 1.3))

    def mk(arc, gid):
        goal = Pose2(belief.robot.x + arc, belief.robot.y, 0.0)
        route = Route.through(np.array([belief.robot.xy, goal.xy]), goal)
        return CandidatePath(goal_id=gid, route=route, views=[(cam, arc)])

    cfg = PlannerConfig()
    utils = evaluate_paths([mk(1.0, 0), mk(3.0, 1)], belief.target_tsdf, [], cfg,
                           False, belief.intr.downsampled(2),
                           belief.target_bbox, MAPS, unit_weights=True)
    assert utils[0].j_ig == pytest.approx(utils[1].j_ig)


def test_naive_heads_for_target_and_waits():
    cfg = PlannerConfig(max_steps=60)
    scene, belief = make_belief(seed=9)
    policy = NaivePolicy(cfg, seed=2, map_pair=MAPS)
    robot = belief.robot
    d0 = float(np.linalg.norm(robot.xy - scene.target_center[:2]))
    for _ in range(40):
        b = replace(belief, robot=robot, step_index=0)
        out = policy.decide(b)
        assert isinstance(out, MoveStep)
        robot = out.base
        d = float(np.linalg.norm(robot.xy - scene.target_center[:2]))
        if d <= cfg.reach_radius:
            break
    assert d <= cfg.reach_radius + 1e-9
    assert d < d0
    # inside the ring with no grasp: waits in place
    out = policy.decide(replace(belief, robot=robot, step_index=1))
    assert isinstance(out, MoveStep)
    assert (out.base.x, out.base.y) == (robot.x, robot.y)


def test_random_goal_sequence_reproducible_and_feasible():
    scene, belief = make_belief(seed=11)
    blocked = inflate_occupied(belief.occ)
    for radius in (0.85, 1.0):  # the default ring, and one the config moves
        cfg = PlannerConfig(max_steps=200, reach_radius=radius)
        seqs = []
        for _ in range(2):
            policy = RandomPolicy(cfg, seed=21, map_pair=MAPS)
            robot = belief.robot
            goals = []
            for k in range(60):
                out = policy.decide(replace(belief, robot=robot, step_index=k))
                if not isinstance(out, MoveStep):
                    break
                if policy.current_goal is not None and (
                        not goals or goals[-1] != (policy.current_goal.x, policy.current_goal.y)):
                    goals.append((policy.current_goal.x, policy.current_goal.y))
                robot = out.base
            seqs.append(goals)
        assert seqs[0] == seqs[1]
        assert len(seqs[0]) >= 2
        for gx, gy in seqs[0]:
            c = belief.occ.world_to_index(np.array([gx, gy]))
            assert not blocked[c[0], c[1]]
            assert np.linalg.norm(np.array([gx, gy]) - scene.target_center[:2]) == pytest.approx(radius)


def test_breyer_view_igs_match_direct_calls():
    cfg = PlannerConfig(max_steps=50)
    scene, belief = make_belief(seed=7, views=3)
    policy = BreyerNbvPolicy(cfg, seed=9, map_pair=MAPS)
    out = policy.decide(belief)
    assert isinstance(out, MoveStep)
    cams = policy.view_poses(belief.target_center)
    intr = belief.intr.downsampled(cfg.ig_downsample)
    for view_id, ig in policy.last_trace["view_igs"]:
        [direct] = rear_side_ig_batch(belief.target_tsdf, [cams[view_id]], intr,
                                      belief.target_bbox)
        assert ig == direct


def test_breyer_tie_break_lowest_view_index():
    cfg = PlannerConfig()
    scene, belief = make_belief(seed=1, views=0)  # nothing integrated: all IG zero
    policy = BreyerNbvPolicy(cfg, seed=4, map_pair=MAPS)
    out = policy.decide(belief)
    assert isinstance(out, MoveStep)
    feasible = [i for i, _ in policy.last_trace["view_igs"]]
    assert policy.last_trace["selected_view"] == min(feasible)


def test_ablation_consistency_actpermoma_vs_ig_only():
    # with w_exec=0 and momentum 0 the full policy plus the proximity rule is
    # exactly the IG-only ablation: identical movement traces
    cfg = replace(PlannerConfig(), momentum=0.0, max_steps=30)
    results = []
    for maker in (
            lambda: _proximity_actpermoma(cfg),
            lambda: IgOnlyPolicy(replace(cfg, w_exec=1.0), 17, MAPS)):
        scene, belief = make_belief(seed=19, views=1)
        policy = maker()
        robot = belief.robot
        track = []
        for k in range(12):
            out = policy.decide(replace(belief, robot=robot, step_index=k))
            if not isinstance(out, MoveStep):
                track.append(type(out).__name__)
                break
            robot = out.base
            track.append((round(robot.x, 12), round(robot.y, 12)))
        results.append(track)
    assert results[0] == results[1]


def _proximity_actpermoma(cfg):
    p = ActPerMoMaPolicy(replace(cfg, w_exec=0.0), 17, MAPS)
    p.exec_rule = "proximity"
    return p


def plan_bits(plan: policies.Plan) -> tuple:
    """A plan's goal slots, routes and candidate paths as comparable values."""
    def route(r):
        return r.xy.tobytes(), r.segs, r.goal
    return (plan.slots, [(slot, route(r)) for slot, r in plan.routes],
            [(p.goal_id, route(p.route), [(cam.key(), arc) for cam, arc in p.views])
             for p in plan.paths])


def test_a_kept_plan_answers_only_its_own_robot_and_route_history():
    # two policies decide twice on one belief state: first from two robot
    # poses, then from one pose after those two route histories.  Every
    # decision, its trace and its plan equal those of a policy that shares
    # nothing (a fresh belief state per decision); the two second plans
    # differ, so a plan kept for the other robot or history would show
    cfg = PlannerConfig()
    _, belief = make_belief(seed=19, views=1)
    start = belief.robot
    moved = ActPerMoMaPolicy(cfg, 17, MAPS).decide(belief).base
    second = []
    for robots in ((start, start), (moved, start)):
        shared, alone = ActPerMoMaPolicy(cfg, 17, MAPS), ActPerMoMaPolicy(cfg, 17, MAPS)
        for k, robot in enumerate(robots):
            got = shared.decide(replace(belief, robot=robot, step_index=k))
            want = alone.decide(replace(belief, robot=robot, step_index=k, node=BeliefNode(-1)))
            assert isinstance(got, MoveStep) and isinstance(want, MoveStep)
            assert (got.base, got.cam.key()) == (want.base, want.cam.key())
            assert shared.last_trace == alone.last_trace
            assert plan_bits(shared.plan) == plan_bits(alone.plan)
        second.append(plan_bits(shared.plan))
    assert second[0] != second[1]


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_no_policy_moves_into_occupied_cells(kind):
    cfg = RunConfig(planner=PlannerConfig(max_steps=50), episodes=1, base_seed=33,
                    scenario=SceneKind.COMPLEX, policy=kind)
    result, trace = run_episode_traced(cfg, 0)
    for rec in trace:
        if rec.get("type") == "step" and rec["action"]["kind"] == "move":
            assert rec["action"]["cell_state"] != int(CellState.OCCUPIED)


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_inflate_occupied_at_most_once_per_decide(kind, monkeypatch):
    calls = []
    real = policies.inflate_occupied
    monkeypatch.setattr(policies, "inflate_occupied",
                        lambda occ, *a, **k: calls.append(1) or real(occ, *a, **k))
    cfg = PlannerConfig(max_steps=50)
    _, belief = make_belief(seed=7, views=2, cfg=cfg)
    policy = make_policy(kind, cfg, seed=3, map_pair=MAPS)
    robot = belief.robot
    for k in range(6):
        calls.clear()
        out = policy.decide(replace(belief, robot=robot, step_index=k))
        assert len(calls) <= 1, (kind, k, len(calls))
        if not isinstance(out, MoveStep):
            break
        robot = out.base


def test_execute_grasp_requires_an_arm():
    g = Grasp(pose=Pose3(np.zeros(3), np.array([0.0, 1.0, 0.0, 0.0])), quality=0.9,
              voxel=(0, 0, 0))
    with pytest.raises(ValueError, match="arm"):
        ExecuteGrasp(g)
    assert ExecuteGrasp(replace(g, arm=Arm.RIGHT)).grasp.arm is Arm.RIGHT


def test_policy_kind_names_match_cli_strings():
    assert {k.value for k in PolicyKind} == {
        "ActPerMoMa", "ActPerMoMaIgOnly", "ActPerMoMaNoWeights",
        "Naive", "Random", "BreyerNbv"}
    assert set(policies._POLICIES) == set(PolicyKind)
    assert type(make_policy("Naive", PlannerConfig(), 0, MAPS)) is NaivePolicy
