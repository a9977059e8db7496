"""Candidate base goals, grid A*, camera views along a route and receding-horizon selection.

Every control step the planner samples base goals on a ring around the
target, plans one grid path per goal, decorates each path with target-facing
camera views, scores every path by distance-weighted information gain plus
length-weighted grasp executability, and picks the best one under a momentum
hysteresis that suppresses goal oscillation.  Only the first motion of the
winning path is ever executed.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .geom import Aabb, CellState, Grid, Pose2, Pose3, facing, look_at
from .grasping import Grasp, MapPair, exec_utility
from .perception import TsdfGrid, keep, rear_side_ig_batch
from .scene import CameraIntrinsics, ROBOT_RADIUS


DIST_CLAMP = 0.1  # meters; floor for the travel distances that weight utilities


class NoFeasibleGoals(RuntimeError):
    """Every candidate base goal collided with observed occupancy."""


class NoPath(RuntimeError):
    """Grid search exhausted without reaching the goal."""


@dataclass(frozen=True)
class PlannerConfig:
    n_b: int = 16                     # candidate base goals per step
    q_th: float = 0.8                 # grasp quality threshold
    n_stab: int = 1                   # stability window (steps)
    w_ig: float = 0.2                 # IG weight once a grasp is known
    w_exec: float = 1.0
    momentum: float = 800.0           # goal-switch hysteresis, utility units
    reach_radius: float = 0.85        # outer goal ring / "within reach" radius
    exec_threshold: float = 0.3       # minimum goal reachability to attempt a grasp
    cam_spacing: float = 0.5          # meters of arc between camera views
    max_steps: int = 400
    step_size: float = 0.2            # base motion per control step
    utility_scale: float = 1000.0     # exec-to-IG unit conversion
    ig_unit_rays: float = 100.0       # IG counts expressed per this many rays
    torso_band: tuple[float, float] = (1.1, 1.3)
    ig_downsample: int = 2            # sensor-to-IG ray decimation

    def __post_init__(self) -> None:
        if not 0.0 <= self.q_th <= 1.0:
            raise ValueError("q_th outside [0, 1]")
        for name in ("n_b", "n_stab", "reach_radius", "cam_spacing", "max_steps",
                     "step_size", "utility_scale", "ig_unit_rays", "ig_downsample",
                     "w_ig"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("w_exec", "momentum", "exec_threshold"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, eq=False)
class Route:
    """A base route to `goal`: its (n, 2) positions `xy`, the last one
    `goal.xy`, and each segment's length `float(np.linalg.norm(b - a))`, a
    BLAS dot whose last bit `hypot`, `einsum` or a norm over rows need not
    reproduce."""

    xy: np.ndarray
    segs: list[float]
    goal: Pose2

    @staticmethod
    def through(xy: np.ndarray, goal: Pose2) -> "Route":
        return Route(xy, [float(np.linalg.norm(d)) for d in np.diff(xy, axis=0)], goal)

    @property
    def length(self) -> float:
        """The sum of the segment lengths."""
        return float(sum(self.segs))


@dataclass
class CandidatePath:
    goal_id: int
    route: Route  # from the robot to the goal
    views: list[tuple[Pose3, float]]  # (camera, arc from the route start), last at the goal


# ---------------------------------------------------------------------------
# occupancy helpers
# ---------------------------------------------------------------------------

def inflate_occupied(occ: Grid, radius: float = ROBOT_RADIUS) -> np.ndarray:
    """Boolean blocked mask: occupied cells dilated by the robot radius."""
    r = int(np.ceil(radius / occ.cell_size))
    occ_mask = occ.cells == CellState.OCCUPIED
    nx, ny = occ_mask.shape
    blocked = np.zeros_like(occ_mask)
    for di in range(-r, r + 1):
        for dj in range(-r, r + 1):
            if di * di + dj * dj > r * r or abs(di) >= nx or abs(dj) >= ny:
                continue
            # blocked[i, j] |= occ_mask[i - di, j - dj] wherever both are on the grid
            blocked[max(di, 0):nx + min(di, 0), max(dj, 0):ny + min(dj, 0)] |= \
                occ_mask[max(-di, 0):nx - max(di, 0), max(-dj, 0):ny - max(dj, 0)]
    return blocked


def cells_blocked(occ: Grid, blocked: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Per point of `xy` (..., 2; a single point gives a 0-d array): True
    when it lies off the grid or on a cell of the `blocked` mask."""
    cell = occ.world_to_index(xy)
    free = np.asarray(occ.contains_index(cell))
    on_grid = cell[free]
    free[free] = ~blocked[on_grid[:, 0], on_grid[:, 1]]
    return ~free


def state_at(occ: Grid, xy: np.ndarray) -> CellState:
    """The map state of the cell under `xy`; UNKNOWN off the grid."""
    c = occ.world_to_index(xy)
    if not bool(occ.contains_index(c)):
        return CellState.UNKNOWN
    return CellState(int(occ.cells[c[0], c[1]]))


# ---------------------------------------------------------------------------
# base goal sampling
# ---------------------------------------------------------------------------

def _stable_unit(*keys: int) -> float:
    """Deterministic uniform in [0, 1) from integer keys (platform stable:
    the keys are hashed as little-endian 64-bit integers)."""
    h = hashlib.blake2b(np.array(keys, dtype="<i8").tobytes(), digest_size=8).digest()
    return int.from_bytes(h, "little") / 2.0**64


GOAL_ATTEMPTS = 10  # jittered candidates per slot, tried in order


@functools.lru_cache(maxsize=2)
def _goal_ring(seed: int, n_b: int, reach_radius: float, epoch: int) -> np.ndarray:
    """Offsets from the target of every slot's jittered attempts, shape
    (n_b, GOAL_ATTEMPTS, 2), read-only.  They depend only on the arguments,
    so each control epoch computes them once; the last two rings are kept."""
    r_lo = max(reach_radius - 0.3, 0.1)
    ring = np.empty((n_b, GOAL_ATTEMPTS, 2))
    for slot in range(n_b):
        base_angle = 2.0 * np.pi * slot / n_b
        for attempt in range(GOAL_ATTEMPTS):
            ja = _stable_unit(seed, slot, attempt, 1, epoch)
            jr = _stable_unit(seed, slot, attempt, 2, epoch)
            angle = base_angle + (ja - 0.5) * (2.0 * np.pi / n_b)
            radius = r_lo + jr * (reach_radius - r_lo)
            ring[slot, attempt] = radius * np.array([np.cos(angle), np.sin(angle)])
    ring.flags.writeable = False
    return ring


def sample_base_goal_slots(occ: Grid, target_xy: np.ndarray, n_b: int,
                           seed: int, reach_radius: float, *,
                           blocked: np.ndarray, epoch: int = 0,
                           ) -> list[tuple[int, Pose2]]:
    """(slot, pose) pairs on the ring around the target, target-facing.

    Slots are stratified angles; jitter and radius are seeded per
    (slot, epoch) so a slot identifies roughly the same approach direction
    across steps (what the selection momentum latches onto) while the exact
    poses drift when the caller advances the epoch.  Each slot takes the
    first of its GOAL_ATTEMPTS candidates that lies on the grid and off the
    inflated footprint of observed-occupied cells (`blocked`, from
    `inflate_occupied`); a slot without one is dropped.  The candidates of
    an epoch come from `_goal_ring`, and one vectorized lookup tests them
    all against `blocked`.
    """
    if n_b < 1:
        raise ValueError("n_b must be >= 1")
    xy = target_xy + _goal_ring(seed, n_b, reach_radius, epoch)
    free = ~cells_blocked(occ, blocked, xy)
    goals = [(slot, facing(xy[slot, attempt], target_xy))
             for slot, attempt in enumerate(free.argmax(axis=1)) if free[slot, attempt]]
    if not goals:
        raise NoFeasibleGoals("all base goal slots blocked")
    return goals


# ---------------------------------------------------------------------------
# grid A*
# ---------------------------------------------------------------------------

_NEIGHBORS = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
              (1, 1, np.sqrt(2.0)), (1, -1, np.sqrt(2.0)),
              (-1, 1, np.sqrt(2.0)), (-1, -1, np.sqrt(2.0))]
UNKNOWN_COST = 1.05
# the cell codes of `NavMap.codes`
_FREE, _UNKNOWN, _BLOCKED = 0, 1, 2


@dataclass(frozen=True, eq=False)
class NavMap:
    """The map one decision plans on: the occupancy grid, its `blocked`
    mask (obstacle cells inflated by the robot radius, from
    `inflate_occupied`) and the memo of `plan_path`'s results on it
    (`keep`), its own unless it is given one: `Policy._nav` gives the belief
    state's (`BeliefNode.kept`)."""

    occ: Grid
    blocked: np.ndarray
    paths: dict = field(default_factory=dict)

    @functools.cached_property
    def codes(self) -> list[int]:
        """The grid `plan_path` searches, built on first use: the map padded
        with a one-cell blocked border, one code per cell (_FREE, _UNKNOWN or
        _BLOCKED), in the C order of the (nx + 2, ny + 2) padded array."""
        nx, ny = self.occ.dims
        padded = np.full((nx + 2, ny + 2), _BLOCKED, dtype=np.uint8)
        inner = padded[1:-1, 1:-1]
        inner[...] = np.where(self.occ.cells == CellState.UNKNOWN, _UNKNOWN, _FREE)
        inner[self.blocked] = _BLOCKED
        return padded.ravel().tolist()


def plan_path(nav: NavMap, start: Pose2, goal: Pose2) -> np.ndarray:
    """8-connected A* over the occupancy grid, avoiding `nav.blocked`, unknown
    cells traversable at a 1.05 step-cost multiplier.

    Returns the (n, 2) cell-center positions from the start cell to the
    goal cell, a new array on every call; the start cell itself is always
    traversable.  Raises NoPath.

    A search is a function of the map and its two cells alone, so each
    (start cell, goal cell) pair is searched once per `nav.paths` (`keep`):
    it keeps the positions, or the message of the NoPath, never the
    exception, whose traceback would keep the searching frames alive.
    """
    occ = nav.occ
    nx, ny = occ.dims
    s = tuple(occ.world_to_index(start.xy))
    g = tuple(occ.world_to_index(goal.xy))
    for c in (s, g):
        if not (0 <= c[0] < nx and 0 <= c[1] < ny):
            raise NoPath(f"cell {c} outside the grid")
    if nav.blocked[g]:
        raise NoPath("goal cell blocked")

    if s == g:
        return occ.index_to_world_center(np.array([s]))

    def search() -> np.ndarray | str:
        try:
            return _search(nav, s, g)
        except NoPath as e:
            return str(e)

    found = keep(nav.paths, (*map(int, s), *map(int, g)), search)
    if isinstance(found, str):
        raise NoPath(found)
    return found.copy()


def _search(nav: NavMap, s: tuple, g: tuple) -> np.ndarray:
    """`plan_path`'s A* from cell `s` to a different cell `g`, unblocked.

    The search runs on `nav.codes` with int cell ids, whose blocked border
    replaces the bounds test: a bytearray closed set, lists of g-costs and
    parents, heap entries (f, tie, cell) and the octile heuristic
    `(max + (sqrt(2) - 1) * min) * cell` inline, in that order.
    """
    occ = nav.occ
    ny = occ.dims[1]
    cell = occ.cell_size
    codes = nav.codes
    w = ny + 2  # padded row length: cell (i, j) has id (i + 1) * w + j + 1
    # per neighbor: id offset, (di, dj) and the step cost on a free and on
    # an unknown cell, each `base * cell * (multiplier)` as the cost model reads
    moves = [(di * w + dj, di, dj, float(base * cell), float(base * cell * UNKNOWN_COST))
             for di, dj, base in _NEIGHBORS]
    r = float(np.sqrt(2.0) - 1.0)
    si, sj = int(s[0]), int(s[1])
    gi, gj = int(g[0]), int(g[1])
    sid, gid = (si + 1) * w + sj + 1, (gi + 1) * w + gj + 1
    n = len(codes)
    g_cost = [math.inf] * n
    came = [-1] * n
    closed = bytearray(n)
    g_cost[sid] = 0.0
    dx, dy = abs(si - gi), abs(sj - gj)
    tie = 0
    open_heap = [((max(dx, dy) + r * min(dx, dy)) * cell, tie, sid)]
    pop, push = heapq.heappop, heapq.heappush
    while open_heap:
        _, _, cur = pop(open_heap)
        if closed[cur]:
            continue
        if cur == gid:
            break
        closed[cur] = 1
        cg = g_cost[cur]
        # the expanded cell's offset from the goal, for the heuristic
        ci, cj = divmod(cur, w)
        ci -= gi + 1
        cj -= gj + 1
        for off, di, dj, free_cost, unknown_cost in moves:
            nb = cur + off
            code = codes[nb]
            if code == _BLOCKED or closed[nb]:
                continue
            ng = cg + (unknown_cost if code == _UNKNOWN else free_cost)
            if ng < g_cost[nb] - 1e-12:
                g_cost[nb] = ng
                came[nb] = cur
                tie += 1
                dx, dy = abs(ci + di), abs(cj + dj)
                h = (dx + r * dy) * cell if dx >= dy else (dy + r * dx) * cell
                push(open_heap, (ng + h, tie, nb))
    else:
        raise NoPath("goal unreachable")

    ids = [gid]
    while ids[-1] != sid:
        ids.append(came[ids[-1]])
    ids.reverse()
    idx = np.divmod(np.array(ids), w)
    return occ.index_to_world_center(np.stack(idx, axis=1) - 1)


# ---------------------------------------------------------------------------
# camera views along a route
# ---------------------------------------------------------------------------

TORSO_CELL = 0.1  # meters; ground cell over which the torso height is constant


def torso_height(xy: np.ndarray, seed: int, band: tuple[float, float]) -> float:
    """Seeded camera height, constant per ground cell so that paths sharing a
    prefix share their views (and their cached gains)."""
    c = np.floor(np.asarray(xy, dtype=float) / TORSO_CELL).astype(np.int64)
    u = _stable_unit(seed, int(c[0]), int(c[1]), 3)
    return band[0] + u * (band[1] - band[0])


# camera_at's pose memo (`keep`) and its bound: about one 400-step
# episode's poses (~700 B each with the dict, ~12 MB); the 25 s apm_complex
# benchmark pass makes 5,245
CAMERA_CACHE_POSES = 1 << 14
_CAMERA_CACHE: dict[tuple, Pose3] = {}


def camera_at(xy: np.ndarray, target: np.ndarray, seed: int,
              band: tuple[float, float]) -> Pose3:
    # exact keys (bytes also tell -0.0 from 0.0): a pose depends only on its
    # arguments, never on which calls the process made before
    key = (np.asarray(xy, dtype=float).tobytes(), np.asarray(target, dtype=float).tobytes(),
           int(seed), float(band[0]), float(band[1]))
    return keep(_CAMERA_CACHE, key,
                lambda: look_at(np.array([xy[0], xy[1], torso_height(xy, seed, band)]),
                                np.asarray(target, dtype=float)), CAMERA_CACHE_POSES)


def sample_camera_poses(route: Route, target: np.ndarray, cam_spacing: float,
                        torso_band: tuple[float, float], seed: int = 0,
                        goal_id: int = -1) -> CandidatePath:
    """Decorate a base route with target-facing camera views.

    Views are placed every cam_spacing meters of arc length starting at the
    route start, plus one at the goal.  Camera position is the base position
    lifted by a seeded torso height; orientation is an exact look-at.

    One walk over the segments places every arc: an arc lies on the first
    segment whose length is at least what is left of the arc, which is the
    arc minus the lengths of the segments before, subtracted one at a time
    (a zero-length segment takes every arc that reaches it)."""
    target = np.asarray(target, dtype=float)
    xy, segs, length = route.xy, route.segs, route.length
    arcs = [float(a) for a in np.arange(0.0, length, cam_spacing)
            if length - a > 1e-9]
    points = []  # the base position of each arc placed so far, in arc order
    left = list(arcs)  # what is left of each arc past the segments walked
    for i, s in enumerate(segs):
        while len(points) < len(arcs) and (left[len(points)] <= s or s == 0.0):
            t = 0.0 if s == 0.0 else left[len(points)] / s
            points.append(xy[i] + t * (xy[i + 1] - xy[i]))
        if len(points) == len(arcs):
            break
        for j in range(len(points), len(arcs)):
            left[j] -= s
    # rounding can leave an arc past the last segment: it takes the goal
    points += [xy[-1]] * (len(arcs) - len(points))
    views = [(camera_at(p, target, seed, torso_band), arc)
             for p, arc in zip(points + [xy[-1]], arcs + [length])]
    return CandidatePath(goal_id=goal_id, route=route, views=views)


# ---------------------------------------------------------------------------
# utility evaluation & receding-horizon selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathUtility:
    path: CandidatePath
    j_ig: float
    j_exec: float
    utility: float
    grasp: Grasp | None  # the most reachable grasp from the goal, with its arm
    goal_reach: float    # its reachability, not weighted by the path length


def evaluate_paths(paths: list[CandidatePath], tsdf: TsdfGrid, grasps: list[Grasp],
                   cfg: PlannerConfig, grasp_found: bool, intr: CameraIntrinsics,
                   target_bbox: Aabb, map_pair: MapPair,
                   unit_weights: bool = False) -> list[PathUtility]:
    """Score every candidate path: information gain of its views, each
    weighted down by the squared travel to it, plus the best grasp
    reachability at its goal (`exec_utility`) weighted down by the path
    length; that grasp and its unweighted reachability ride along for the
    grasp trigger.  Both weights floor the distance at DIST_CLAMP;
    `unit_weights` drops them.  The IG weight switches from 1 to cfg.w_ig
    once `grasp_found` (the caller's latch: a stable grasp has been seen):
    exploit once there is something to exploit."""
    w_ig_eff = cfg.w_ig if grasp_found else 1.0
    # one batch slot per camera position rounded to 1e-9 m.  Every view
    # looks at the target from its position, so paths that reach a point
    # along different float routes give twins whose positions differ in the
    # last bits (at most 4.4e-16 m measured) and whose orientations may
    # differ too; twins scored the same IG count wherever measured, while
    # the IG visit cache, keyed on exact pose bytes, would trace each one.
    # view_ids[i][j] is the batch slot of path i's view j
    keys: dict[tuple, int] = {}
    cams = []
    view_ids = []
    for p in paths:
        ids = []
        for cam, _ in p.views:
            k = tuple(np.round(cam.position, 9))
            if k not in keys:
                keys[k] = len(cams)
                cams.append(cam)
            ids.append(keys[k])
        view_ids.append(ids)
    counts = rear_side_ig_batch(tsdf, cams, intr, target_bbox)
    # gains enter the utility normalized per ig_unit_rays so the momentum and
    # exec scales do not depend on the IG ray budget
    ig_norm = cfg.ig_unit_rays / float(intr.width * intr.height)

    out = []
    for p, ids in zip(paths, view_ids):
        j_ig = 0.0
        for (_, arc), i in zip(p.views, ids):
            d = 1.0 if unit_weights else max(arc, DIST_CLAMP)
            j_ig += float(counts[i]) / (d * d)
        length = 1.0 if unit_weights else max(p.route.length, DIST_CLAMP)
        grasp, goal_reach = exec_utility(grasps, p, map_pair)
        j_exec = goal_reach / length
        # the cross-scale constant converts the per-meter executability to the
        # voxel-count scale of the gain term; without length weighting the
        # executability is already unitless, so the constant goes too
        scale = 1.0 if unit_weights else cfg.utility_scale
        u = w_ig_eff * ig_norm * j_ig + cfg.w_exec * scale * j_exec
        out.append(PathUtility(p, j_ig, j_exec, u, grasp, goal_reach))
    return out


def select_from_utilities(utils: list[PathUtility], cfg: PlannerConfig,
                          prev_goal_id: int | None) -> tuple[PathUtility, bool]:
    """Argmax with (shorter, lower goal id) tie-breaks and momentum
    hysteresis, plus whether the momentum held the previous goal.

    While the robot is still traveling toward the previously chosen goal
    (`prev_goal_id`, None on the first step), that goal keeps it unless
    another goal beats its current utility by more than cfg.momentum
    (anti-oscillation).  Once the goal is reached the hold releases, so a
    parked robot is free to follow the plain argmax."""
    if not utils:
        raise ValueError("no candidate paths")
    best = min(utils, key=lambda u: (-u.utility, u.path.route.length, u.path.goal_id))
    held = False
    if prev_goal_id is not None:
        prev = next((u for u in utils if u.path.goal_id == prev_goal_id), None)
        if prev is not None and best.path.goal_id != prev.path.goal_id:
            traveling = prev.path.route.length > cfg.step_size + 1e-9
            if traveling and not best.utility > prev.utility + cfg.momentum:
                best = prev
                held = True
    return best, held


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def step(robot: Pose2, route: Route, step_size: float) -> Pose2:
    """Kinematic advance of at most step_size along a route that starts at
    the robot, as `RouteCache.path_to` trims it; a one-position route is the
    straight line from the robot to that position.  The motion clamps exactly
    at the route end, where the goal heading is adopted; heading during
    travel is the direction of motion.  Raises ValueError on an empty route
    or on a longer one whose first position is not the robot's."""
    pts = route.xy
    if len(pts) == 1:
        pts = [robot.xy, pts[0]]
    elif not (len(pts) and (pts[0, 0], pts[0, 1]) == (robot.x, robot.y)):
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
    if float(np.linalg.norm(pos - pts[-1])) < 1e-9:
        return Pose2(float(route.goal.x), float(route.goal.y), route.goal.theta)
    return Pose2(float(pos[0]), float(pos[1]), heading)


def should_execute(path: CandidatePath, goal_score: float, cfg: PlannerConfig) -> bool:
    """Grasp trigger: the chosen path, trimmed to start at the robot, has
    collapsed to its goal position (the robot is within one step of the goal)
    and `goal_score`, the undiscounted reachability of the best grasp from
    the goal, clears the threshold (inclusive)."""
    return path.route.length <= cfg.step_size + 1e-9 and goal_score >= cfg.exec_threshold
