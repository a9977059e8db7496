from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np
import pytest

from actpermoma.geom import (
    Aabb,
    CellState,
    OccupancyGrid2,
    Pose2,
    Pose3,
    look_at,
    quat_rotate,
)
from actpermoma.grasping import Grasp, build_map_pair
from actpermoma.perception import TsdfGrid
from actpermoma.planning import (
    CandidatePath,
    NoFeasibleGoals,
    NoPath,
    PathUtility,
    PathView,
    PlannerConfig,
    PlannerState,
    UNKNOWN_COST,
    evaluate_paths,
    inflate_occupied,
    plan_path,
    sample_base_goal_slots,
    sample_camera_poses,
    select_from_utilities,
    should_execute,
    step,
)
from actpermoma.scene import CameraIntrinsics

MAPS = build_map_pair()
TOP_DOWN_Q = np.array([0.0, 1.0, 0.0, 0.0])


def empty_occ(n=64, cell=0.1, state=CellState.FREE) -> OccupancyGrid2:
    half = n * cell / 2
    return OccupancyGrid2(np.array([-half, -half]), cell, (n, n),
                          np.full((n, n), state, dtype=np.uint8))


# ---------------------------------------------------------------------------
# oracle: uniform-cost Dijkstra under the same cost model
# ---------------------------------------------------------------------------

def path_cost(occ: OccupancyGrid2, waypoints: list[Pose2]) -> float:
    """Traversal cost of a waypoint sequence under the planner's cost model."""
    unknown = occ.cells == CellState.UNKNOWN
    total = 0.0
    for a, b in zip(waypoints, waypoints[1:]):
        step = float(np.linalg.norm(b.xy - a.xy))
        c = occ.world_to_cell(b.xy)
        mult = UNKNOWN_COST if bool(occ.contains_cell(c)) and unknown[c[0], c[1]] else 1.0
        total += step * mult
    return total


def dijkstra_cost(occ: OccupancyGrid2, blocked, s, g) -> float:
    nx, ny = occ.dims
    unknown = occ.cells == CellState.UNKNOWN
    dist = {s: 0.0}
    heap = [(0.0, s)]
    seen = set()
    moves = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
             (1, 1, 2 ** 0.5), (1, -1, 2 ** 0.5), (-1, 1, 2 ** 0.5), (-1, -1, 2 ** 0.5)]
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in seen:
            continue
        if cur == g:
            return d
        seen.add(cur)
        for di, dj, w in moves:
            nb = (cur[0] + di, cur[1] + dj)
            if not (0 <= nb[0] < nx and 0 <= nb[1] < ny) or blocked[nb]:
                continue
            c = w * occ.cell_size * (UNKNOWN_COST if unknown[nb] else 1.0)
            if d + c < dist.get(nb, np.inf) - 1e-15:
                dist[nb] = d + c
                heapq.heappush(heap, (d + c, nb))
    return np.inf


def test_sample_base_goals_open_scene():
    occ = empty_occ()
    target = np.array([0.0, 0.0])
    goals = [p for _, p in sample_base_goal_slots(occ, target, 16, seed=3)]
    assert len(goals) == 16
    for p in goals:
        d = np.linalg.norm(p.xy - target)
        assert 0.55 <= d <= 0.85
        want = np.arctan2(-p.y, -p.x)
        assert abs(np.angle(np.exp(1j * (p.theta - want)))) < 1e-6
    assert goals == [p for _, p in sample_base_goal_slots(occ, target, 16, seed=3)]
    assert goals != [p for _, p in sample_base_goal_slots(occ, target, 16, seed=4)]


def test_sample_base_goals_respects_occupancy():
    occ = empty_occ()
    # occupy the north half-plane above the target
    cells = occ.cells.copy()
    for i in range(occ.dims[0]):
        for j in range(occ.dims[1]):
            c = occ.cell_to_world_center(np.array([i, j]))
            if c[1] > 0.2:
                cells[i, j] = CellState.OCCUPIED
    occ.cells = cells
    goals = [p for _, p in sample_base_goal_slots(occ, np.array([0.0, 0.0]), 16, seed=1)]
    blocked = inflate_occupied(occ)
    for p in goals:
        c = occ.world_to_cell(p.xy)
        assert not blocked[c[0], c[1]]
        assert p.y <= 0.2


def test_sample_base_goals_all_blocked():
    occ = empty_occ(state=CellState.OCCUPIED)
    with pytest.raises(NoFeasibleGoals):
        sample_base_goal_slots(occ, np.array([0.0, 0.0]), 8, seed=0)


def test_plan_path_start_equals_goal():
    occ = empty_occ()
    p = Pose2(0.31, 0.29, 1.0)
    path = plan_path(occ, p, Pose2(0.33, 0.27, 0.0))
    assert len(path) == 1
    assert path[0].theta == pytest.approx(1.0)


def test_plan_path_blocked_goal():
    occ = empty_occ()
    occ.cells[:, 40:] = CellState.OCCUPIED
    with pytest.raises(NoPath):
        plan_path(occ, Pose2(0, 0, 0), Pose2(0, 2.5, 0))


def test_plan_path_cost_equals_dijkstra_on_random_grids():
    rng = np.random.default_rng(0)
    checked = 0
    for trial in range(200):
        n = 20
        occ = OccupancyGrid2(np.zeros(2), 0.1, (n, n),
                             np.full((n, n), CellState.FREE, dtype=np.uint8))
        occ.cells[rng.random((n, n)) < 0.25] = CellState.OCCUPIED
        occ.cells[rng.random((n, n)) < 0.2] = CellState.UNKNOWN
        s = (int(rng.integers(n)), int(rng.integers(n)))
        g = (int(rng.integers(n)), int(rng.integers(n)))
        occ.cells[s] = CellState.FREE
        occ.cells[g] = CellState.FREE
        blocked = inflate_occupied(occ, radius=0.0)
        blocked[s] = False
        want = dijkstra_cost(occ, blocked, s, g)
        start = Pose2(*occ.cell_to_world_center(np.array(s)), 0.0)
        goal = Pose2(*occ.cell_to_world_center(np.array(g)), 0.0)
        if blocked[g] or np.isinf(want):
            with pytest.raises(NoPath):
                plan_path(occ, start, goal, blocked=blocked)
            continue
        got = plan_path(occ, start, goal, blocked=blocked)
        assert path_cost(occ, got) == pytest.approx(want, abs=1e-9)
        checked += 1
    assert checked >= 120


def test_plan_path_waypoints_adjacent():
    occ = empty_occ()
    occ.cells[30:34, 28:36] = CellState.OCCUPIED
    path = plan_path(occ, Pose2(-1.0, 0.0, 0), Pose2(1.5, 0.4, 0))
    step_limit = occ.cell_size * np.sqrt(2) + 1e-9
    for a, b in zip(path, path[1:]):
        assert np.linalg.norm(b.xy - a.xy) <= step_limit


def test_sample_camera_poses_look_at_and_count():
    base = [Pose2(x, 0.0, 0.0) for x in np.arange(0.0, 2.0001, 0.1)]
    target = np.array([5.0, 0.0, 0.8])
    path = sample_camera_poses(base, target, 0.5, (1.1, 1.3), seed=7)
    assert path.length == pytest.approx(2.0)
    assert len(path.views) == 5  # four interior (incl. the start) + goal
    for v in path.views:
        fwd = quat_rotate(v.cam.orientation, np.array([0.0, 0.0, 1.0]))
        want = target - v.cam.position
        want = want / np.linalg.norm(want)
        assert np.dot(fwd, want) > 1 - 1e-12
        assert 1.1 <= v.cam.position[2] <= 1.3
    assert path.views[-1].arc == pytest.approx(2.0)
    assert path.views[-1].base.xy == pytest.approx(base[-1].xy)


def test_camera_above_target_fallback():
    base = [Pose2(0.0, 0.0, 0.0)]
    target = np.array([0.0, 0.0, 0.5])  # straight below the camera
    path = sample_camera_poses(base, target, 0.5, (1.1, 1.3), seed=1)
    q = path.views[-1].cam.orientation
    assert abs(np.linalg.norm(q) - 1.0) < 1e-9


def _path_with(goal_id: int, length: float, goal=Pose2(1.0, 0.0, 0.0)) -> CandidatePath:
    cam = look_at(np.array([goal.x, goal.y, 1.2]), np.array([0.0, 0.0, 0.8]))
    return CandidatePath(goal_id=goal_id, base_path=[Pose2(0, 0, 0), goal],
                         views=[PathView(goal, cam, length)], length=length)


def _util(goal_id, utility, length=1.0) -> PathUtility:
    return PathUtility(_path_with(goal_id, length), 0.0, 0.0, utility)


def test_select_single_candidate():
    u = [_util(0, -5.0)]
    best, st, held = select_from_utilities(u, PlannerConfig(), PlannerState(), False)
    assert best.path.goal_id == 0 and not held


def test_select_momentum_hysteresis():
    cfg = replace(PlannerConfig(), momentum=700.0)
    st = PlannerState(prev_goal_id=1)
    utils = [_util(1, 500.0), _util(2, 900.0)]
    best, _, held = select_from_utilities(utils, cfg, st, False)
    assert best.path.goal_id == 1 and held  # 900 < 500 + 700
    cfg0 = replace(PlannerConfig(), momentum=0.0)
    best, _, held = select_from_utilities(utils, cfg0, st, False)
    assert best.path.goal_id == 2 and not held


def test_select_momentum_never_picks_worse_than_prev():
    cfg = PlannerConfig()
    st = PlannerState(prev_goal_id=3)
    utils = [_util(3, 100.0), _util(4, 50.0)]
    best, _, _ = select_from_utilities(utils, cfg, st, False)
    assert best.path.goal_id == 3


def test_select_tie_breaks():
    cfg = replace(PlannerConfig(), momentum=0.0)
    utils = [_util(5, 10.0, length=2.0), _util(2, 10.0, length=1.0), _util(7, 10.0, length=1.0)]
    best, _, _ = select_from_utilities(utils, cfg, PlannerState(), False)
    assert best.path.goal_id == 2  # shorter first, then lower goal id


def test_select_momentum_zero_is_argmax_permutation_independent():
    rng = np.random.default_rng(5)
    cfg = replace(PlannerConfig(), momentum=0.0)
    utils = [_util(i, float(rng.integers(0, 50)), length=float(rng.uniform(0.5, 3)))
             for i in range(12)]
    ranked = sorted(utils, key=lambda u: (-u.utility, u.path.length, u.path.goal_id))
    for _ in range(10):
        perm = list(rng.permutation(len(utils)))
        shuffled = [utils[i] for i in perm]
        best, _, _ = select_from_utilities(shuffled, cfg, PlannerState(), False)
        assert best.path.goal_id == ranked[0].path.goal_id


def test_select_path_ig_only_before_grasps():
    # without grasps, selection must equal the argmax of J_IG alone
    t = TsdfGrid.create(np.zeros(3), 0.1, (6, 6, 6))
    t.grid.cells[3, :, :, 0] = -0.2
    t.grid.cells[3, :, :, 1] = 1.0
    bbox = Aabb(np.zeros(3), np.full(3, 0.6))
    intr = CameraIntrinsics(16, 16, np.deg2rad(50.0), 4.0)
    cfg = replace(PlannerConfig(), momentum=0.0)
    paths = []
    rng = np.random.default_rng(11)
    for gid in range(6):
        ang = rng.uniform(0, 2 * np.pi)
        goal = Pose2(0.3 + 0.9 * np.cos(ang), 0.3 + 0.9 * np.sin(ang), 0.0)
        base = [Pose2(-0.6, 0.31, 0.0), Pose2((goal.x - 0.6) / 2, (goal.y + 0.31) / 2, 0.0), goal]
        p = sample_camera_poses(base, np.array([0.3, 0.3, 0.3]), 0.4, (0.25, 0.45),
                                seed=2, goal_id=gid)
        paths.append(p)
    utils = evaluate_paths(paths, t, [], cfg, PlannerState(), intr, bbox, MAPS)
    by_ig = max(utils, key=lambda u: (u.j_ig, -u.path.length, -u.path.goal_id))
    best, _, _ = select_from_utilities(utils, cfg, PlannerState(), False)
    assert all(u.j_exec == 0.0 for u in utils)
    assert best.path.goal_id == by_ig.path.goal_id


def test_select_path_latches_grasp_found():
    t = TsdfGrid.create(np.zeros(3), 0.1, (6, 6, 6))
    bbox = Aabb(np.zeros(3), np.full(3, 0.6))
    intr = CameraIntrinsics(16, 16, np.deg2rad(50.0), 4.0)
    g = Grasp(pose=Pose3(np.array([0.3, 0.3, 0.8]), TOP_DOWN_Q), quality=0.9, voxel=(3, 3, 3))
    paths = [_path_with(0, 1.0)]
    cfg = PlannerConfig()

    def select(grasps, st):
        utils = evaluate_paths(paths, t, grasps, cfg, st, intr, bbox, MAPS)
        return select_from_utilities(utils, cfg, st, bool(grasps))[1]

    st = select([g], PlannerState())
    assert st.grasp_found
    st2 = select([], st)
    assert st2.grasp_found  # latched even when the grasp set is empty again


def test_step_clamps_at_waypoint():
    path = CandidatePath(0, [Pose2(0, 0, 0), Pose2(0.1, 0.0, 0.0)], [], 0.1)
    out = step(Pose2(0.0, 0.0, 0.5), path, step_size=0.2)
    assert (out.x, out.y) == pytest.approx((0.1, 0.0))
    assert out.theta == pytest.approx(0.0)  # adopted the goal heading


def test_step_straight_path_five_steps():
    base = [Pose2(x, 0.0, 0.0) for x in np.arange(0.0, 1.00001, 0.1)]
    path = CandidatePath(0, base, [], 1.0)
    robot = Pose2(0.0, 0.0, 0.0)
    steps = 0
    while np.linalg.norm(robot.xy - np.array([1.0, 0.0])) > 1e-9:
        robot = step(robot, path, 0.2)
        steps += 1
        assert steps < 50
    assert steps == 5


def test_step_displacement_accumulates():
    rng = np.random.default_rng(2)
    base = [Pose2(0, 0, 0)]
    for _ in range(15):
        prev = base[-1]
        base.append(Pose2(prev.x + rng.uniform(0.05, 0.1),
                          prev.y + rng.uniform(-0.07, 0.07), 0.0))
    length = sum(float(np.linalg.norm(b.xy - a.xy)) for a, b in zip(base, base[1:]))
    path = CandidatePath(0, base, [], length)
    robot = Pose2(0, 0, 0)
    total = 0.0
    for _ in range(200):
        nxt = step(robot, path, 0.2)
        d = float(np.linalg.norm(nxt.xy - robot.xy))
        assert d <= 0.2 + 1e-9  # per-step displacement bound
        total += d
        if (nxt.x, nxt.y) == (robot.x, robot.y):
            break
        robot = nxt
    assert np.allclose(robot.xy, base[-1].xy, atol=1e-9)  # reached the goal
    # straight-line steps may cut corners, never exceed the polyline
    assert total <= length + 1e-9
    assert total >= 0.9 * length


def test_should_execute_rules():
    cfg = PlannerConfig()
    long_path = CandidatePath(0, [Pose2(0, 0, 0), Pose2(1, 0, 0)], [], 1.0)
    at_goal = CandidatePath(0, [Pose2(1, 0, 0)], [], 0.0)
    assert not should_execute(long_path, Pose2(0, 0, 0), 1e9, cfg)
    assert not should_execute(at_goal, Pose2(1, 0, 0), 0.0, cfg)
    assert should_execute(at_goal, Pose2(1, 0, 0), cfg.exec_threshold, cfg)


def test_planner_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(q_th=1.5)
    with pytest.raises(ValueError):
        PlannerConfig(n_b=0)
    with pytest.raises(ValueError):
        PlannerConfig(momentum=-1.0)
    cfg = PlannerConfig(momentum=0.0)  # zero momentum is legal
    assert cfg.momentum == 0.0


def test_slots_are_stable_identifiers():
    occ = empty_occ()
    slots = sample_base_goal_slots(occ, np.array([0.0, 0.0]), 8, seed=9)
    assert [s for s, _ in slots] == list(range(8))
    # blocking one sector drops its slot but keeps the other ids
    occ.cells[32:, 32:] = CellState.OCCUPIED
    slots2 = sample_base_goal_slots(occ, np.array([0.0, 0.0]), 8, seed=9)
    kept = [s for s, _ in slots2]
    assert set(kept) <= set(range(8))
    for s, p in slots2:
        if (s, p) in slots:
            continue
