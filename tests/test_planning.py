from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from actpermoma import planning
from actpermoma.geom import (
    Aabb,
    CellState,
    Grid,
    Pose2,
    Pose3,
    facing,
    look_at,
    quat_rotate,
)
from actpermoma.grasping import ARM_OFFSET, Arm, Grasp, build_map_pair, reachability
from actpermoma.perception import TsdfGrid
from actpermoma.planning import (
    CandidatePath,
    NoFeasibleGoals,
    NoPath,
    PathUtility,
    PathView,
    PlannerConfig,
    UNKNOWN_COST,
    _stable_unit,
    camera_at,
    cell_blocked,
    evaluate_paths,
    inflate_occupied,
    plan_path,
    sample_base_goal_slots,
    sample_camera_poses,
    select_from_utilities,
    should_execute,
    step,
    torso_height,
)
from actpermoma.policies import RouteCache
from actpermoma.scene import CameraIntrinsics

MAPS = build_map_pair()
TOP_DOWN_Q = np.array([0.0, 1.0, 0.0, 0.0])


def goal_slots(occ, target, n_b, seed):
    return sample_base_goal_slots(occ, target, n_b, seed, PlannerConfig().reach_radius,
                                  blocked=inflate_occupied(occ))


def empty_occ(n=64, cell=0.1, state=CellState.FREE) -> Grid:
    half = n * cell / 2
    return Grid(np.array([-half, -half]), cell, (n, n),
                          np.full((n, n), state, dtype=np.uint8))


# ---------------------------------------------------------------------------
# oracle: uniform-cost Dijkstra under the same cost model
# ---------------------------------------------------------------------------

def path_cost(occ: Grid, waypoints: list[Pose2]) -> float:
    """Traversal cost of a waypoint sequence under the planner's cost model."""
    unknown = occ.cells == CellState.UNKNOWN
    total = 0.0
    for a, b in zip(waypoints, waypoints[1:]):
        step = float(np.linalg.norm(b.xy - a.xy))
        c = occ.world_to_index(b.xy)
        mult = UNKNOWN_COST if bool(occ.contains_index(c)) and unknown[c[0], c[1]] else 1.0
        total += step * mult
    return total


def dijkstra_cost(occ: Grid, blocked, s, g) -> float:
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
    goals = [p for _, p in goal_slots(occ, target, 16, 3)]
    assert len(goals) == 16
    for p in goals:
        d = np.linalg.norm(p.xy - target)
        assert 0.55 <= d <= 0.85
        want = np.arctan2(-p.y, -p.x)
        assert abs(np.angle(np.exp(1j * (p.theta - want)))) < 1e-6
    assert goals == [p for _, p in goal_slots(occ, target, 16, 3)]
    assert goals != [p for _, p in goal_slots(occ, target, 16, 4)]


def test_inflate_occupied_equals_brute_force_disc_dilation():
    # a cell is blocked when an occupied cell lies within ceil(radius / cell)
    # cells of it (Euclidean, in cells); occupied cells on every grid edge and
    # corner, grids smaller than the disc, and radius 0 are included
    rng = np.random.default_rng(11)
    for trial in range(60):
        nx, ny = (int(n) for n in rng.integers(1, 24, size=2))
        cells = np.full((nx, ny), CellState.FREE, dtype=np.uint8)
        cells[rng.random((nx, ny)) < 0.08] = CellState.OCCUPIED
        cells[rng.random((nx, ny)) < 0.2] = CellState.UNKNOWN
        for i, j in ((0, 0), (nx - 1, ny - 1), (0, ny - 1), (nx - 1, 0),
                     (int(rng.integers(nx)), 0), (0, int(rng.integers(ny)))):
            if rng.random() < 0.5:
                cells[i, j] = CellState.OCCUPIED
        radius = float(rng.choice([0.0, 0.1, 0.25, 0.3, 0.55]))
        occ = Grid(np.zeros(2), 0.1, (nx, ny), cells)
        r = int(np.ceil(radius / 0.1))
        want = np.zeros((nx, ny), dtype=bool)
        for oi, oj in np.argwhere(cells == CellState.OCCUPIED):
            for i in range(nx):
                for j in range(ny):
                    if (i - oi) ** 2 + (j - oj) ** 2 <= r * r:
                        want[i, j] = True
        assert np.array_equal(inflate_occupied(occ, radius=radius), want)


def test_sample_base_goals_respects_occupancy():
    occ = empty_occ()
    # occupy the north half-plane above the target
    cells = occ.cells.copy()
    for i in range(occ.dims[0]):
        for j in range(occ.dims[1]):
            c = occ.index_to_world_center(np.array([i, j]))
            if c[1] > 0.2:
                cells[i, j] = CellState.OCCUPIED
    occ.cells = cells
    goals = [p for _, p in goal_slots(occ, np.array([0.0, 0.0]), 16, 1)]
    blocked = inflate_occupied(occ)
    for p in goals:
        c = occ.world_to_index(p.xy)
        assert not blocked[c[0], c[1]]
        assert p.y <= 0.2


def test_sample_base_goals_all_blocked():
    occ = empty_occ(state=CellState.OCCUPIED)
    with pytest.raises(NoFeasibleGoals):
        goal_slots(occ, np.array([0.0, 0.0]), 8, 0)


def scalar_goal_slots(occ, target_xy, n_b, seed, reach_radius, *, blocked, epoch=0):
    """The per-attempt loop the memoised goal ring replaced: two blake2b
    draws and one `cell_blocked` probe per attempt, the first free attempt
    of each slot kept."""
    r_lo = max(reach_radius - 0.3, 0.1)
    goals = []
    for slot in range(n_b):
        base_angle = 2.0 * np.pi * slot / n_b
        for attempt in range(10):
            ja = _stable_unit(seed, slot, attempt, 1, epoch)
            jr = _stable_unit(seed, slot, attempt, 2, epoch)
            angle = base_angle + (ja - 0.5) * (2.0 * np.pi / n_b)
            radius = r_lo + jr * (reach_radius - r_lo)
            xy = target_xy + radius * np.array([np.cos(angle), np.sin(angle)])
            if cell_blocked(occ, blocked, xy):
                continue
            goals.append((slot, facing(xy, target_xy)))
            break
    if not goals:
        raise NoFeasibleGoals("all base goal slots blocked")
    return goals


def _bits(goals):
    return [(slot, p.x.hex(), p.y.hex(), p.theta.hex()) for slot, p in goals]


@given(seed=st.integers(0, 2**31 - 1), epoch=st.integers(0, 40), n_b=st.integers(1, 24),
       reach_radius=st.floats(0.1, 1.6), density=st.sampled_from([0.0, 0.3, 0.7, 0.97, 1.0]),
       mask_seed=st.integers(0, 2**32 - 1), target=st.tuples(st.floats(-1.0, 1.0),
                                                             st.floats(-1.0, 1.0)))
# all blocked; a ring that reaches past a grid edge
@example(seed=3, epoch=0, n_b=8, reach_radius=0.85, density=1.0, mask_seed=0, target=(0.0, 0.0))
@example(seed=5, epoch=2, n_b=16, reach_radius=1.6, density=0.0, mask_seed=0, target=(0.9, -1.0))
def test_goal_ring_equals_scalar_loop(seed, epoch, n_b, reach_radius, density, mask_seed,
                                      target):
    # a 24 x 24 map of 0.1 m cells: rings of up to 1.6 m around targets up to
    # 1 m off center leave it, so some attempts fall off the grid
    occ = Grid(np.array([-1.2, -1.2]), 0.1, (24, 24), np.zeros((24, 24), dtype=np.uint8))
    blocked = np.random.default_rng(mask_seed).random(occ.dims) < density
    target_xy = np.array(target)
    args = (occ, target_xy, n_b, seed, reach_radius)
    try:
        want = _bits(scalar_goal_slots(*args, blocked=blocked, epoch=epoch))
    except NoFeasibleGoals:
        with pytest.raises(NoFeasibleGoals):
            sample_base_goal_slots(*args, blocked=blocked, epoch=epoch)
        return
    assert _bits(sample_base_goal_slots(*args, blocked=blocked, epoch=epoch)) == want


def test_plan_path_start_equals_goal():
    occ = empty_occ()
    p = Pose2(0.31, 0.29, 1.0)
    path = plan_path(occ, p, Pose2(0.33, 0.27, 0.0), inflate_occupied(occ))
    assert len(path) == 1
    assert path[0].theta == pytest.approx(1.0)


def test_plan_path_blocked_goal():
    occ = empty_occ()
    occ.cells[:, 40:] = CellState.OCCUPIED
    with pytest.raises(NoPath):
        plan_path(occ, Pose2(0, 0, 0), Pose2(0, 2.5, 0), inflate_occupied(occ))


def test_plan_path_cost_equals_dijkstra_on_random_grids():
    rng = np.random.default_rng(0)
    checked = 0
    for trial in range(200):
        n = 20
        occ = Grid(np.zeros(2), 0.1, (n, n),
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
        start = Pose2(*occ.index_to_world_center(np.array(s)), 0.0)
        goal = Pose2(*occ.index_to_world_center(np.array(g)), 0.0)
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
    path = plan_path(occ, Pose2(-1.0, 0.0, 0), Pose2(1.5, 0.4, 0),
                     inflate_occupied(occ))
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


def test_camera_at_nearby_xy_get_their_own_pose():
    # closer than 1e-9 and in the same torso-height cell: each call must still
    # return the uncached pose for its own xy, whatever was asked for before
    target = np.array([0.4, -0.2, 0.8])
    band = (1.1, 1.3)
    a = np.array([1.25, 0.75])
    b = a + np.array([4e-10, -3e-10])
    for xy in (a, b, a, b):
        cam = camera_at(xy, target, 5, band)
        want = look_at(np.array([xy[0], xy[1], torso_height(xy, 5, band)]), target)
        assert np.array_equal(cam.position, want.position)
        assert np.array_equal(cam.orientation, want.orientation)
    assert not np.array_equal(camera_at(a, target, 5, band).position,
                              camera_at(b, target, 5, band).position)


def test_camera_cache_is_bounded_and_recomputes_the_same_bits(monkeypatch):
    monkeypatch.setattr(planning, "CAMERA_CACHE_POSES", 8)
    monkeypatch.setattr(planning, "_CAMERA_CACHE", {})
    target = np.array([0.4, -0.2, 0.8])
    band = (1.1, 1.3)
    xys = [np.array([1.0 + 0.07 * i, -0.5 + 0.03 * i]) for i in range(30)]
    first = []
    for xy in xys:
        first.append(camera_at(xy, target, 5, band))
        assert len(planning._CAMERA_CACHE) <= 8
    # every pose was cleared out at least once and is computed again
    for xy, old in zip(xys, first):
        new = camera_at(xy, target, 5, band)
        assert len(planning._CAMERA_CACHE) <= 8
        assert new is not old
        assert new.position.tobytes() == old.position.tobytes()
        assert new.orientation.tobytes() == old.orientation.tobytes()


def _path_with(goal_id: int, length: float, goal=Pose2(1.0, 0.0, 0.0)) -> CandidatePath:
    cam = look_at(np.array([goal.x, goal.y, 1.2]), np.array([0.0, 0.0, 0.8]))
    return CandidatePath(goal_id=goal_id, base_path=[Pose2(0, 0, 0), goal],
                         views=[PathView(goal, cam, length)], length=length)


def _util(goal_id, utility, length=1.0) -> PathUtility:
    return PathUtility(_path_with(goal_id, length), 0.0, 0.0, utility, None, 0.0)


def test_select_single_candidate():
    u = [_util(0, -5.0)]
    best, held = select_from_utilities(u, PlannerConfig(), None)
    assert best.path.goal_id == 0 and not held


def test_select_momentum_hysteresis():
    cfg = replace(PlannerConfig(), momentum=700.0)
    utils = [_util(1, 500.0), _util(2, 900.0)]
    best, held = select_from_utilities(utils, cfg, 1)
    assert best.path.goal_id == 1 and held  # 900 < 500 + 700
    cfg0 = replace(PlannerConfig(), momentum=0.0)
    best, held = select_from_utilities(utils, cfg0, 1)
    assert best.path.goal_id == 2 and not held


def test_select_momentum_never_picks_worse_than_prev():
    cfg = PlannerConfig()
    utils = [_util(3, 100.0), _util(4, 50.0)]
    best, _ = select_from_utilities(utils, cfg, 3)
    assert best.path.goal_id == 3


def test_select_tie_breaks():
    cfg = replace(PlannerConfig(), momentum=0.0)
    utils = [_util(5, 10.0, length=2.0), _util(2, 10.0, length=1.0), _util(7, 10.0, length=1.0)]
    best, _ = select_from_utilities(utils, cfg, None)
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
        best, _ = select_from_utilities(shuffled, cfg, None)
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
    utils = evaluate_paths(paths, t, [], cfg, False, intr, bbox, MAPS)
    by_ig = max(utils, key=lambda u: (u.j_ig, -u.path.length, -u.path.goal_id))
    best, _ = select_from_utilities(utils, cfg, None)
    assert all(u.j_exec == 0.0 for u in utils)
    assert best.path.goal_id == by_ig.path.goal_id


def test_evaluate_paths_weights_exec_by_path_length():
    # one grasp at the left arm's peak from the goal: reachability 1.0,
    # divided by the path length (floored at DIST_CLAMP) or, unweighted, by 1
    t = TsdfGrid.create(np.zeros(3), 0.1, (6, 6, 6))
    bbox = Aabb(np.zeros(3), np.full(3, 0.6))
    intr = CameraIntrinsics(16, 16, np.deg2rad(50.0), 4.0)
    goal = Pose2(1.0, 0.0, 0.0)
    a = ARM_OFFSET[Arm.LEFT]
    g = Grasp(pose=Pose3(np.array([1.0 + 0.65 * np.cos(a), 0.65 * np.sin(a), 0.8]),
                         TOP_DOWN_Q), quality=0.9, voxel=(3, 3, 3))
    assert reachability(MAPS, g, goal)[0] == pytest.approx(1.0)
    paths = [_path_with(0, 2.0, goal), _path_with(1, 0.01, goal)]
    cfg = PlannerConfig()
    weighted = evaluate_paths(paths, t, [g], cfg, True, intr, bbox, MAPS)
    assert [u.j_exec for u in weighted] == pytest.approx([0.5, 10.0])
    unit = evaluate_paths(paths, t, [g], cfg, True, intr, bbox, MAPS, unit_weights=True)
    assert [u.j_exec for u in unit] == pytest.approx([1.0, 1.0])
    # each utility carries the goal's best grasp, armed, and its unweighted
    # reachability: what the grasp trigger reads without rescoring the goal
    for u in weighted + unit:
        assert u.grasp.pose is g.pose and u.grasp.arm is Arm.LEFT
        assert u.goal_reach == pytest.approx(1.0)
    assert [(u.grasp, u.goal_reach) for u in evaluate_paths(paths, t, [], cfg, True, intr,
                                                            bbox, MAPS)] == [(None, 0.0)] * 2


def test_step_clamps_at_waypoint():
    out = step(Pose2(0.0, 0.0, 0.5), [Pose2(0, 0, 0), Pose2(0.1, 0.0, 0.0)], step_size=0.2)
    assert (out.x, out.y) == pytest.approx((0.1, 0.0))
    assert out.theta == pytest.approx(0.0)  # adopted the goal heading


def test_step_refuses_a_route_that_does_not_start_at_the_robot():
    route = [Pose2(0, 0, 0), Pose2(0.1, 0.0, 0.0), Pose2(0.2, 0.0, 0.0)]
    with pytest.raises(ValueError):
        step(Pose2(0.05, 0.0, 0.0), route, 0.2)  # on the route, past its start
    with pytest.raises(ValueError):
        step(Pose2(0.0, 0.3, 0.0), route, 0.2)  # off the route
    with pytest.raises(ValueError):
        step(Pose2(0.0, 0.0, 0.0), [], 0.2)


def _retrimmed(base: list[Pose2]):
    """`robot -> route`: `base` re-trimmed by a route cache to start at the
    robot, as the policies hand routes to `step`."""
    occ = empty_occ()
    blocked = np.zeros(occ.dims, dtype=bool)
    cache = RouteCache()
    cache.routes[0] = list(base)

    def route_from(robot: Pose2) -> list[Pose2]:
        route = cache.path_to(occ, blocked, robot, base[-1], 0)
        assert cache.routes[0] == base  # trimmed, never re-planned
        return route
    return route_from


def test_step_straight_path_five_steps():
    base = [Pose2(x, 0.0, 0.0) for x in np.arange(0.0, 1.00001, 0.1)]
    route_from = _retrimmed(base)
    robot = Pose2(0.0, 0.0, 0.0)
    steps = 0
    while np.linalg.norm(robot.xy - np.array([1.0, 0.0])) > 1e-9:
        robot = step(robot, route_from(robot), 0.2)
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
    route_from = _retrimmed(base)
    robot = Pose2(0, 0, 0)
    total = 0.0
    for _ in range(200):
        nxt = step(robot, route_from(robot), 0.2)
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
    assert not should_execute(long_path, 1e9, cfg)
    assert not should_execute(at_goal, 0.0, cfg)
    assert should_execute(at_goal, cfg.exec_threshold, cfg)


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
    slots = goal_slots(occ, np.array([0.0, 0.0]), 8, 9)
    assert [s for s, _ in slots] == list(range(8))
    # blocking one sector drops its slot but keeps the other ids
    occ.cells[32:, 32:] = CellState.OCCUPIED
    slots2 = goal_slots(occ, np.array([0.0, 0.0]), 8, 9)
    kept = [s for s, _ in slots2]
    assert set(kept) <= set(range(8))
    for s, p in slots2:
        if (s, p) in slots:
            continue
