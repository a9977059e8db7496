"""Candidate base goals, grid A*, camera waypoints and receding-horizon selection.

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
from dataclasses import dataclass

import numpy as np

from .geom import Aabb, CellState, Grid, Pose2, Pose3, facing, look_at
from .grasping import Grasp, MapPair, exec_utility
from .perception import TsdfGrid, rear_side_ig_batch
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


@dataclass(frozen=True)
class PathView:
    base: Pose2
    cam: Pose3
    arc: float  # cumulative base travel from the path start


@dataclass
class CandidatePath:
    goal_id: int
    base_path: list[Pose2]   # dense grid waypoints, last one is the goal pose
    views: list[PathView]    # sparse camera views, last one at the goal
    length: float

    @property
    def goal_base(self) -> Pose2:
        return self.base_path[-1]


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


def cell_blocked(occ: Grid, blocked: np.ndarray, xy: np.ndarray) -> bool:
    """True when `xy` lies off the grid or on a cell of the `blocked` mask."""
    c = occ.world_to_index(xy)
    if not bool(occ.contains_index(c)):
        return True
    return bool(blocked[c[0], c[1]])


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
    """Deterministic uniform in [0, 1) from integer keys (platform stable)."""
    h = hashlib.blake2b(np.array(keys, dtype=np.int64).tobytes(), digest_size=8).digest()
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
    cell = occ.world_to_index(xy)
    free = occ.contains_index(cell)
    on_grid = cell[free]
    free[free] = ~blocked[on_grid[:, 0], on_grid[:, 1]]
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


def _octile(a: tuple[int, int], b: tuple[int, int]) -> float:
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    return max(dx, dy) + (np.sqrt(2.0) - 1.0) * min(dx, dy)


def plan_path(occ: Grid, start: Pose2, goal: Pose2,
              blocked: np.ndarray) -> list[Pose2]:
    """8-connected A* over the occupancy grid, avoiding `blocked` (obstacle
    cells inflated by the robot radius, from `inflate_occupied`), unknown
    cells traversable at a 1.05 step-cost multiplier.

    Returns cell-center waypoints from the start cell to the goal cell; the
    start cell itself is always treated as traversable.  Raises NoPath.
    """
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
        return [Pose2(float(c[0]), float(c[1]), start.theta)]

    g_cost = {s: 0.0}
    came: dict[tuple[int, int], tuple[int, int]] = {}
    tie = 0
    open_heap: list[tuple[float, int, tuple[int, int]]] = [(_octile(s, g) * cell, tie, s)]
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
            waypoints: list[Pose2] = []
            for i, c in enumerate(cells):
                w = occ.index_to_world_center(np.array(c))
                if i + 1 < len(cells):
                    nxt = occ.index_to_world_center(np.array(cells[i + 1]))
                    th = float(np.arctan2(nxt[1] - w[1], nxt[0] - w[0]))
                else:
                    th = waypoints[-1].theta if waypoints else start.theta
                waypoints.append(Pose2(float(w[0]), float(w[1]), th))
            return waypoints
        closed.add(cur)
        cg = g_cost[cur]
        for di, dj, base in _NEIGHBORS:
            nb = (cur[0] + di, cur[1] + dj)
            if not (0 <= nb[0] < nx and 0 <= nb[1] < ny) or blocked[nb] or nb in closed:
                continue
            step_cost = base * cell * (UNKNOWN_COST if unknown[nb] else 1.0)
            ng = cg + step_cost
            if ng < g_cost.get(nb, np.inf) - 1e-12:
                g_cost[nb] = ng
                came[nb] = cur
                tie += 1
                heapq.heappush(open_heap, (ng + _octile(nb, g) * cell, tie, nb))
    raise NoPath("goal unreachable")


# ---------------------------------------------------------------------------
# camera views along a path
# ---------------------------------------------------------------------------

TORSO_CELL = 0.1  # meters; ground cell over which the torso height is constant


def torso_height(xy: np.ndarray, seed: int, band: tuple[float, float]) -> float:
    """Seeded camera height, constant per ground cell so that paths sharing a
    prefix share their views (and their cached gains)."""
    c = np.floor(np.asarray(xy, dtype=float) / TORSO_CELL).astype(np.int64)
    u = _stable_unit(seed, int(c[0]), int(c[1]), 3)
    return band[0] + u * (band[1] - band[0])


_CAMERA_CACHE: dict[tuple, Pose3] = {}


def camera_at(xy: np.ndarray, target: np.ndarray, seed: int,
              band: tuple[float, float]) -> Pose3:
    # exact keys (bytes also tell -0.0 from 0.0): a pose depends only on its
    # arguments, never on which calls the process made before
    key = (np.asarray(xy, dtype=float).tobytes(), np.asarray(target, dtype=float).tobytes(),
           int(seed), float(band[0]), float(band[1]))
    hit = _CAMERA_CACHE.get(key)
    if hit is not None:
        return hit
    h = torso_height(xy, seed, band)
    pose = look_at(np.array([xy[0], xy[1], h]), np.asarray(target, dtype=float))
    if len(_CAMERA_CACHE) > 200_000:
        _CAMERA_CACHE.clear()
    _CAMERA_CACHE[key] = pose
    return pose


def sample_camera_poses(base_path: list[Pose2], target: np.ndarray, cam_spacing: float,
                        torso_band: tuple[float, float], seed: int = 0,
                        goal_id: int = -1) -> CandidatePath:
    """Decorate a base path with target-facing camera views.

    Views are placed every cam_spacing meters of arc length starting at the
    path start, plus one at the goal.  Camera position is the base position
    lifted by a seeded torso height; orientation is an exact look-at."""
    if not base_path:
        raise ValueError("base_path is empty")
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

    arcs = [float(a) for a in np.arange(0.0, length, cam_spacing)
            if length - a > 1e-9]
    views = []
    for arc in arcs:
        b = base_at(arc)
        views.append(PathView(b, camera_at(b.xy, target, seed, torso_band), float(arc)))
    goal = base_path[-1]
    views.append(PathView(goal, camera_at(goal.xy, target, seed, torso_band), length))
    return CandidatePath(goal_id=goal_id, base_path=list(base_path), views=views,
                         length=length)


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
    # deduplicate identical camera views across paths; view_ids[i][j] is the
    # batch slot of path i's view j
    keys: dict[tuple, int] = {}
    cams = []
    view_ids = []
    for p in paths:
        ids = []
        for v in p.views:
            k = tuple(np.round(v.cam.position, 9))
            if k not in keys:
                keys[k] = len(cams)
                cams.append(v.cam)
            ids.append(keys[k])
        view_ids.append(ids)
    counts = rear_side_ig_batch(tsdf, cams, intr, target_bbox)
    # gains enter the utility normalized per ig_unit_rays so the momentum and
    # exec scales do not depend on the IG ray budget
    ig_norm = cfg.ig_unit_rays / float(intr.width * intr.height)

    out = []
    for p, ids in zip(paths, view_ids):
        j_ig = 0.0
        for v, i in zip(p.views, ids):
            d = 1.0 if unit_weights else max(v.arc, DIST_CLAMP)
            j_ig += float(counts[i]) / (d * d)
        length = 1.0 if unit_weights else max(p.length, DIST_CLAMP)
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
    best = min(utils, key=lambda u: (-u.utility, u.path.length, u.path.goal_id))
    held = False
    if prev_goal_id is not None:
        prev = next((u for u in utils if u.path.goal_id == prev_goal_id), None)
        if prev is not None and best.path.goal_id != prev.path.goal_id:
            traveling = prev.path.length > cfg.step_size + 1e-9
            if traveling and not best.utility > prev.utility + cfg.momentum:
                best = prev
                held = True
    return best, held


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def step(robot: Pose2, base_path: list[Pose2], step_size: float) -> Pose2:
    """Kinematic advance of at most step_size along a route that starts at
    the robot, as `RouteCache.path_to` trims it; a one-waypoint route is the
    straight line from the robot to that waypoint.  The motion clamps exactly
    at the route end, where the goal heading is adopted; heading during
    travel is the direction of motion.  Raises ValueError on an empty route
    or on a longer one whose first waypoint is not the robot's position."""
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


def should_execute(path: CandidatePath, goal_score: float, cfg: PlannerConfig) -> bool:
    """Grasp trigger: the chosen path, trimmed to start at the robot, has
    collapsed to its goal waypoint (the robot is within one step of the goal)
    and `goal_score`, the undiscounted reachability of the best grasp from
    the goal, clears the threshold (inclusive)."""
    return path.length <= cfg.step_size + 1e-9 and goal_score >= cfg.exec_threshold
