from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    NavMap,
    NoFeasibleGoals,
    NoPath,
    PathUtility,
    PlannerConfig,
    Route,
    UNKNOWN_COST,
    _stable_unit,
    camera_at,
    cells_blocked,
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


def route_through(base: list[Pose2]) -> Route:
    """The route through the positions of `base` to its last pose."""
    return Route.through(np.array([p.xy for p in base]), base[-1])


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

def path_cost(occ: Grid, xy: np.ndarray) -> float:
    """Traversal cost of a position sequence under the planner's cost model."""
    unknown = occ.cells == CellState.UNKNOWN
    total = 0.0
    for a, b in zip(xy, xy[1:]):
        step = float(np.linalg.norm(b - a))
        c = occ.world_to_index(b)
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


def cell_blocked(occ, blocked, xy) -> bool:
    """The scalar lookup `cells_blocked` replaced: True when `xy` lies off
    the grid or on a cell of the `blocked` mask."""
    c = occ.world_to_index(xy)
    if not bool(occ.contains_index(c)):
        return True
    return bool(blocked[c[0], c[1]])


def test_cells_blocked_equals_cell_blocked_per_point():
    # points on, off and at the edges of the grid, over a random mask
    rng = np.random.default_rng(3)
    occ = empty_occ(n=20)
    blocked = rng.random(occ.dims) < 0.4
    xy = rng.uniform(-1.3, 1.3, size=(6, 50, 2))
    xy[0, :8] = [[-1.0, -1.0], [0.999, 0.999], [1.0, 0.0], [-1.0 - 1e-12, 0.0],
                 [0.0, 1.0], [0.0, -1.0], [-0.95, 0.95], [0.95, -0.95]]
    got = cells_blocked(occ, blocked, xy)
    assert got.shape == (6, 50)
    assert got.tolist() == [[cell_blocked(occ, blocked, p) for p in row] for row in xy]
    # a single point gives a 0-d answer
    for p in xy[0]:
        one = cells_blocked(occ, blocked, p)
        assert one.shape == () and bool(one) == cell_blocked(occ, blocked, p)


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


def test_stable_unit_is_pinned():
    # the keys are hashed as little-endian int64s whatever the platform's
    # byte order
    assert _stable_unit(7, 3, 1, 2, 5).hex() == "0x1.68b4dc361944bp-1"


def test_plan_path_start_equals_goal():
    occ = empty_occ()
    p = Pose2(0.31, 0.29, 1.0)
    path = plan_path(NavMap(occ, inflate_occupied(occ)), p, Pose2(0.33, 0.27, 0.0))
    assert path.shape == (1, 2)
    assert path[0].tobytes() == occ.index_to_world_center(occ.world_to_index(p.xy)).tobytes()


def test_plan_path_blocked_goal():
    occ = empty_occ()
    occ.cells[:, 40:] = CellState.OCCUPIED
    with pytest.raises(NoPath):
        plan_path(NavMap(occ, inflate_occupied(occ)), Pose2(0, 0, 0), Pose2(0, 2.5, 0))


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
                plan_path(NavMap(occ, blocked), start, goal)
            continue
        got = plan_path(NavMap(occ, blocked), start, goal)
        assert path_cost(occ, got) == pytest.approx(want, abs=1e-9)
        checked += 1
    assert checked >= 120


def test_plan_path_waypoints_adjacent():
    occ = empty_occ()
    occ.cells[30:34, 28:36] = CellState.OCCUPIED
    path = plan_path(NavMap(occ, inflate_occupied(occ)), Pose2(-1.0, 0.0, 0),
                     Pose2(1.5, 0.4, 0))
    step_limit = occ.cell_size * np.sqrt(2) + 1e-9
    for a, b in zip(path, path[1:]):
        assert np.linalg.norm(b - a) <= step_limit


# ---------------------------------------------------------------------------
# reference: the A* loop plan_path replaced, on tuples, dicts and a set
# ---------------------------------------------------------------------------

REF_NEIGHBORS = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
                 (1, 1, np.sqrt(2.0)), (1, -1, np.sqrt(2.0)),
                 (-1, 1, np.sqrt(2.0)), (-1, -1, np.sqrt(2.0))]


def _ref_octile(a: tuple[int, int], b: tuple[int, int]) -> float:
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    return max(dx, dy) + (np.sqrt(2.0) - 1.0) * min(dx, dy)


def reference_plan_path(occ: Grid, start: Pose2, goal: Pose2,
                        blocked: np.ndarray) -> list[tuple[float, float]]:
    nx, ny = occ.dims
    s = tuple(occ.world_to_index(start.xy))
    g = tuple(occ.world_to_index(goal.xy))
    for c in (s, g):
        if not (0 <= c[0] < nx and 0 <= c[1] < ny):
            raise NoPath(f"cell {c} outside the grid")
    if blocked[g]:
        raise NoPath("goal cell blocked")
    unknown = occ.cells == CellState.UNKNOWN
    cell = occ.cell_size

    if s == g:
        c = occ.index_to_world_center(np.array(s))
        return [(float(c[0]), float(c[1]))]

    g_cost = {s: 0.0}
    came: dict[tuple[int, int], tuple[int, int]] = {}
    tie = 0
    open_heap: list[tuple[float, int, tuple[int, int]]] = [(_ref_octile(s, g) * cell, tie, s)]
    closed: set[tuple[int, int]] = set()
    while open_heap:
        f, _, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        if cur == g:
            cells = [cur]
            while cur in came:
                cur = came[cur]
                cells.append(cur)
            cells.reverse()
            centers = [occ.index_to_world_center(np.array(c)) for c in cells]
            return [(float(w[0]), float(w[1])) for w in centers]
        closed.add(cur)
        cg = g_cost[cur]
        for di, dj, base in REF_NEIGHBORS:
            nb = (cur[0] + di, cur[1] + dj)
            if not (0 <= nb[0] < nx and 0 <= nb[1] < ny) or blocked[nb] or nb in closed:
                continue
            step_cost = base * cell * (UNKNOWN_COST if unknown[nb] else 1.0)
            ng = cg + step_cost
            if ng < g_cost.get(nb, np.inf) - 1e-12:
                g_cost[nb] = ng
                came[nb] = cur
                tie += 1
                heapq.heappush(open_heap, (ng + _ref_octile(nb, g) * cell, tie, nb))
    raise NoPath("goal unreachable")


def _plan_bits(plan, *args):
    """Position bits of a plan, or its NoPath message."""
    try:
        return [(x.hex(), y.hex()) for x, y in np.asarray(plan(*args)).tolist()]
    except NoPath as e:
        return f"NoPath: {e}"


# a cell index on an axis of n cells, often on the border, rarely off the grid
def _axis_cell(n):
    return st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1), st.integers(0, n - 1),
                     st.integers(-2, n + 1))


@st.composite
def astar_cases(draw):
    nx, ny = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.where(rng.random((nx, ny)) < draw(st.floats(0.0, 0.6)),
                     CellState.UNKNOWN, CellState.FREE).astype(np.uint8)
    blocked = rng.random((nx, ny)) < draw(st.floats(0.0, 0.6))
    cell = draw(st.sampled_from([0.1, 0.05, 0.3]))
    occ = Grid(np.array([draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))]), cell,
               (nx, ny), cells)

    def pose():
        # a point inside its cell, the cell often on the border or off the grid
        i, j = draw(_axis_cell(nx)), draw(_axis_cell(ny))
        u, v = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
        return Pose2(float(occ.origin[0] + (i + u) * cell), float(occ.origin[1] + (j + v) * cell),
                     draw(st.floats(-3.0, 3.0)))

    start = pose()
    goal = start if draw(st.integers(0, 7)) == 0 else pose()
    return occ, blocked, start, goal


def _corner_case(wall: bool, goal_blocked: bool = False, same: bool = False):
    # a free 12 x 9 map, the start in a corner and the goal in the opposite
    # one (or on the start); a blocked column between them cuts the goal off
    occ = Grid(np.zeros(2), 0.1, (12, 9), np.zeros((12, 9), dtype=np.uint8))
    blocked = np.zeros((12, 9), dtype=bool)
    blocked[6, :] = wall
    blocked[11, 8] = goal_blocked
    start = Pose2(0.05, 0.05, 0.3)
    return occ, blocked, start, start if same else Pose2(1.15, 0.85, 0.0)


@settings(max_examples=300)
@given(astar_cases())
@example(_corner_case(wall=True))  # unreachable goal
@example(_corner_case(wall=False))  # open map, many equal-cost routes
@example(_corner_case(wall=False, goal_blocked=True))
@example(_corner_case(wall=False, same=True))
def test_plan_path_equals_reference_search(case):
    occ, blocked, start, goal = case
    want = _plan_bits(reference_plan_path, occ, start, goal, blocked)
    assert _plan_bits(plan_path, NavMap(occ, blocked), start, goal) == want


# mirror-symmetric maps, where two optimal routes part with two mirrored
# moves of equal f: only the order of _NEIGHBORS decides which route wins.
# (start, goal, blocked cells) on a free 9 x 9 map, each under the 8
# symmetries of the square, so that every pair of neighbors meets in a tie
SYMMETRIC_SPLITS = {
    "axial": ((4, 0), (4, 8), [(x, 1) for x in range(2, 7)]),
    "diagonal": ((4, 0), (4, 8), [(4, 1)]),
    "off_the_diagonal": ((0, 0), (8, 8), [(1, 1)]),
    "across_the_diagonal": ((2, 2), (6, 6), [(3, 3), (3, 2), (2, 3)]),
}
SQUARE_SYMMETRIES = [lambda i, j: (i, j), lambda i, j: (8 - i, j), lambda i, j: (i, 8 - j),
                     lambda i, j: (8 - i, 8 - j), lambda i, j: (j, i), lambda i, j: (8 - j, i),
                     lambda i, j: (j, 8 - i), lambda i, j: (8 - j, 8 - i)]


@pytest.mark.parametrize("split", sorted(SYMMETRIC_SPLITS))
@pytest.mark.parametrize("sym", range(len(SQUARE_SYMMETRIES)))
def test_plan_path_equals_reference_where_mirrored_routes_tie(split, sym):
    occ = Grid(np.zeros(2), 0.1, (9, 9), np.zeros((9, 9), dtype=np.uint8))
    blocked = np.zeros((9, 9), dtype=bool)
    t = SQUARE_SYMMETRIES[sym]
    s, g, walls = SYMMETRIC_SPLITS[split]
    for c in walls:
        blocked[t(*c)] = True
    start, goal = (Pose2(*occ.index_to_world_center(np.array(t(*c))), 0.0) for c in (s, g))
    want = _plan_bits(reference_plan_path, occ, start, goal, blocked)
    assert isinstance(want, list) and len(want) > 2
    assert _plan_bits(plan_path, NavMap(occ, blocked), start, goal) == want


def test_sample_camera_poses_look_at_and_count():
    base = [Pose2(x, 0.0, 0.0) for x in np.arange(0.0, 2.0001, 0.1)]
    target = np.array([5.0, 0.0, 0.8])
    path = sample_camera_poses(route_through(base), target, 0.5, (1.1, 1.3), seed=7)
    assert path.route.length == pytest.approx(2.0)
    assert len(path.views) == 5  # four interior (incl. the start) + goal
    for cam, _ in path.views:
        fwd = quat_rotate(cam.orientation, np.array([0.0, 0.0, 1.0]))
        want = target - cam.position
        want = want / np.linalg.norm(want)
        assert np.dot(fwd, want) > 1 - 1e-12
        assert 1.1 <= cam.position[2] <= 1.3
    cam, arc = path.views[-1]
    assert arc == pytest.approx(2.0)
    assert cam.position[:2] == pytest.approx(base[-1].xy)


def reference_camera_poses(base_path: list[Pose2], target: np.ndarray, cam_spacing: float,
                           torso_band: tuple[float, float], seed: int
                           ) -> list[tuple[Pose3, float]]:
    """The view placement sample_camera_poses replaced: every arc walks the
    segments from the path start."""
    target = np.asarray(target, dtype=float)
    segs = [float(np.linalg.norm(b.xy - a.xy)) for a, b in zip(base_path, base_path[1:])]
    length = float(sum(segs))

    def base_at(arc: float) -> Pose2:
        left = arc
        for a, b, s in zip(base_path, base_path[1:], segs):
            if left <= s or s == 0.0:
                t = 0.0 if s == 0.0 else left / s
                return facing(a.xy + t * (b.xy - a.xy), target)
            left -= s
        return base_path[-1]

    arcs = [float(a) for a in np.arange(0.0, length, cam_spacing) if length - a > 1e-9]
    views = []
    for arc in arcs:
        b = base_at(arc)
        views.append((camera_at(b.xy, target, seed, torso_band), float(arc)))
    goal = base_path[-1]
    views.append((camera_at(goal.xy, target, seed, torso_band), length))
    return views


def _view_bits(views: list[tuple[Pose3, float]]):
    """Per view, its arc and its camera's bytes; the camera position is the
    base position, as `camera_at` was given it, lifted by the torso height."""
    return [(arc.hex(), cam.position.tobytes(), cam.orientation.tobytes())
            for cam, arc in views]


@given(steps=st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]),
                                st.floats(0.0, 0.3)), min_size=0, max_size=40),
       start=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       cam_spacing=st.sampled_from([0.5, 0.3, 0.17]))
@example(steps=[(1, 0, 0.1)] * 10, start=(0.0, 0.0), cam_spacing=0.5)  # arcs on waypoints
@example(steps=[(1, 1, 0.1), (0, 0, 0.0), (1, 0, 0.1), (0, 0, 0.0)], start=(0.3, -0.2),
         cam_spacing=0.1)  # zero-length segments
def test_sample_camera_poses_equals_reference_walk(steps, start, cam_spacing):
    # grid-like routes (axis and diagonal steps, zero-length ones included)
    # and random ones: the same views, bit for bit, and the same length
    base = [Pose2(start[0], start[1], 0.3)]
    for di, dj, size in steps:
        base.append(Pose2(base[-1].x + di * size, base[-1].y + dj * size, 0.0))
    target = np.array([0.4, -0.3, 0.8])
    route = route_through(base)
    got = sample_camera_poses(route, target, cam_spacing, (1.1, 1.3), seed=3, goal_id=2)
    want = reference_camera_poses(base, target, cam_spacing, (1.1, 1.3), seed=3)
    assert _view_bits(got.views) == _view_bits(want)
    assert got.route.length == want[-1][1] and got.route is route and got.goal_id == 2


def test_camera_above_target_fallback():
    base = [Pose2(0.0, 0.0, 0.0)]
    target = np.array([0.0, 0.0, 0.5])  # straight below the camera
    path = sample_camera_poses(route_through(base), target, 0.5, (1.1, 1.3), seed=1)
    q = path.views[-1][0].orientation
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
    # every pose was evicted at least once and is computed again
    for xy, old in zip(xys, first):
        new = camera_at(xy, target, 5, band)
        assert len(planning._CAMERA_CACHE) <= 8
        assert new is not old
        assert new.position.tobytes() == old.position.tobytes()
        assert new.orientation.tobytes() == old.orientation.tobytes()
    # a hit makes a pose the most recently used, so the least recently used
    # one is evicted in its place
    monkeypatch.setattr(planning, "_CAMERA_CACHE", {})
    kept = [camera_at(xy, target, 5, band) for xy in xys[:8]]
    assert camera_at(xys[0], target, 5, band) is kept[0]
    camera_at(xys[8], target, 5, band)
    assert camera_at(xys[0], target, 5, band) is kept[0]
    assert camera_at(xys[1], target, 5, band) is not kept[1]


def _path_with(goal_id: int, length: float, goal=Pose2(1.0, 0.0, 0.0)) -> CandidatePath:
    """A straight path of (about) `length` m along x to `goal`, viewed from there."""
    cam = look_at(np.array([goal.x, goal.y, 1.2]), np.array([0.0, 0.0, 0.8]))
    route = route_through([Pose2(goal.x - length, goal.y, 0.0), goal])
    return CandidatePath(goal_id=goal_id, route=route, views=[(cam, route.length)])


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
    ranked = sorted(utils, key=lambda u: (-u.utility, u.path.route.length, u.path.goal_id))
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
        p = sample_camera_poses(route_through(base), np.array([0.3, 0.3, 0.3]), 0.4,
                                (0.25, 0.45), seed=2, goal_id=gid)
        paths.append(p)
    utils = evaluate_paths(paths, t, [], cfg, False, intr, bbox, MAPS)
    by_ig = max(utils, key=lambda u: (u.j_ig, -u.path.route.length, -u.path.goal_id))
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


def test_evaluate_paths_merges_views_one_ulp_apart(monkeypatch):
    # the exact-pose IG cache would trace two views whose positions differ
    # in the last bit; they get one batch slot and one count, while a view
    # 1e-6 m away keeps its own
    t = TsdfGrid.create(np.zeros(3), 0.1, (6, 6, 6))
    bbox = Aabb(np.zeros(3), np.full(3, 0.6))
    intr = CameraIntrinsics(16, 16, np.deg2rad(50.0), 4.0)
    scored = []

    def recording(tsdf, cams, *args):
        scored.append(cams)
        return np.arange(1, len(cams) + 1)

    monkeypatch.setattr(planning, "rear_side_ig_batch", recording)
    paths = [_path_with(i, 1.0, Pose2(x, 0.0, 0.0))
             for i, x in enumerate([1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-6])]
    assert paths[0].views[0][0].key() != paths[1].views[0][0].key()
    utils = evaluate_paths(paths, t, [], PlannerConfig(), False, intr, bbox, MAPS)
    assert [len(cams) for cams in scored] == [2]
    assert scored[0][0] is paths[0].views[0][0] and scored[0][1] is paths[2].views[0][0]
    assert [u.j_ig for u in utils] == [1.0, 1.0, 2.0]


def test_step_clamps_at_waypoint():
    route = route_through([Pose2(0, 0, 0), Pose2(0.1, 0.0, 0.0)])
    out = step(Pose2(0.0, 0.0, 0.5), route, step_size=0.2)
    assert (out.x, out.y) == pytest.approx((0.1, 0.0))
    assert out.theta == pytest.approx(0.0)  # adopted the goal heading


def test_step_refuses_a_route_that_does_not_start_at_the_robot():
    route = route_through([Pose2(0, 0, 0), Pose2(0.1, 0.0, 0.0), Pose2(0.2, 0.0, 0.0)])
    with pytest.raises(ValueError):
        step(Pose2(0.05, 0.0, 0.0), route, 0.2)  # on the route, past its start
    with pytest.raises(ValueError):
        step(Pose2(0.0, 0.3, 0.0), route, 0.2)  # off the route
    with pytest.raises(ValueError):
        step(Pose2(0.0, 0.0, 0.0), Route(np.zeros((0, 2)), [], Pose2(0, 0, 0)), 0.2)


def reference_step(robot: Pose2, base_path: list[Pose2], step_size: float) -> Pose2:
    """The step `step` replaced, along a list of poses of which it reads the
    positions and the last pose's heading."""
    if not base_path:
        raise ValueError("empty path")
    goal = base_path[-1]
    if len(base_path) == 1:
        pts = [robot.xy, goal.xy]
    elif (base_path[0].x, base_path[0].y) == (robot.x, robot.y):
        pts = [w.xy for w in base_path]
    else:
        raise ValueError("route does not start at the robot")

    pos = pts[0]
    budget = step_size
    heading = robot.theta
    i = 0
    while i < len(pts) - 1:
        seg = pts[i + 1] - pos
        d = float(np.linalg.norm(seg))
        if d < 1e-12:
            i += 1
            continue
        if d <= budget:
            budget -= d
            pos = pts[i + 1]
            heading = float(np.arctan2(seg[1], seg[0]))
            i += 1
        else:
            pos = pos + (budget / d) * seg
            heading = float(np.arctan2(seg[1], seg[0]))
            break
    if float(np.linalg.norm(pos - goal.xy)) < 1e-9:
        return Pose2(float(goal.x), float(goal.y), goal.theta)
    return Pose2(float(pos[0]), float(pos[1]), heading)


def _retrimmed(base: list[Pose2]):
    """`robot -> route`: `base` re-trimmed by a route cache to start at the
    robot, as the policies hand routes to `step`."""
    occ = empty_occ()
    nav = NavMap(occ, np.zeros(occ.dims, dtype=bool))
    cache = RouteCache()
    planned = cache.routes[0] = route_through(base)

    def route_from(robot: Pose2) -> Route:
        route = cache.path_to(nav, robot, base[-1], 0)
        assert cache.routes[0] is planned  # trimmed, never re-planned
        assert route.goal is base[-1]
        # the kept lengths and the new first one are those of the trimmed route
        assert route.segs == Route.through(route.xy, route.goal).segs
        return route
    return route_from


@settings(max_examples=200)
@given(steps=st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]),
                                st.floats(0.0, 0.1)), min_size=0, max_size=20),
       start=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       offset=st.tuples(st.floats(-0.25, 0.25), st.floats(-0.25, 0.25)),
       goal_theta=st.floats(-3.0, 3.0),
       step_size=st.sampled_from([0.2, 0.15, 0.05]))
@example(steps=[(1, 1, 0.1), (0, 0, 0.0), (1, 0, 0.1), (0, 0, 0.0)], start=(0.3, -0.2),
         offset=(0.0, 0.0), goal_theta=1.0, step_size=0.2)  # zero-length segments
@example(steps=[], start=(0.0, 0.0), offset=(0.1, -0.2), goal_theta=-2.0,
         step_size=0.05)  # a one-position route
def test_step_on_trimmed_routes_equals_reference_step(steps, start, offset, goal_theta,
                                                      step_size):
    # grid-like routes walked from near their start to the goal: each step
    # along the route the cache trims gives the bits of the reference step
    # along the same positions and goal
    base = [Pose2(start[0], start[1], 0.0)]
    for di, dj, size in steps:
        base.append(Pose2(base[-1].x + di * size, base[-1].y + dj * size, 0.0))
    base[-1] = Pose2(base[-1].x, base[-1].y, goal_theta)
    route_from = _retrimmed(base)
    robot = Pose2(start[0] + offset[0], start[1] + offset[1], 0.7)
    for _ in range(200):
        route = route_from(robot)
        poses = [Pose2(x, y, 0.0) for x, y in route.xy[:-1].tolist()] + [route.goal]
        want = reference_step(robot, poses, step_size)
        got = step(robot, route, step_size)
        assert [float(v).hex() for v in (got.x, got.y, got.theta)] == \
            [float(v).hex() for v in (want.x, want.y, want.theta)]
        if (got.x, got.y) == (robot.x, robot.y):
            break
        robot = got
    assert (robot.x, robot.y) == (base[-1].x, base[-1].y)


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
    long_path = CandidatePath(0, route_through([Pose2(0, 0, 0), Pose2(1, 0, 0)]), [])
    at_goal = CandidatePath(0, route_through([Pose2(1, 0, 0)]), [])
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
