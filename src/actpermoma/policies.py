"""The receding-horizon policy, its ablations, and the three baselines.

All policies expose decide(belief) -> MoveStep | ExecuteGrasp | Abort and are
deterministic functions of (config, seed, belief history).  They only see the
belief: fused TSDFs, projected occupancy, stable grasps and the approximate
target location; ground truth stays inside the simulator.  The step budget is
not theirs: the harness stops asking for decisions once it is spent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .geom import Aabb, Grid, Pose2, Pose3, facing, keep, look_at
from .grasping import Grasp, MapPair, best_grasp, reachability
from .perception import TsdfGrid, rear_side_ig_batch
from .planning import (
    CandidatePath,
    NavMap,
    NoFeasibleGoals,
    NoPath,
    PlannerConfig,
    Route,
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
)
from .scene import CameraIntrinsics
from .seeding import derive_seed, rng_from

if TYPE_CHECKING:
    from .harness import BeliefNode


class PolicyKind(str, Enum):
    ACTPERMOMA = "ActPerMoMa"
    IG_ONLY = "ActPerMoMaIgOnly"
    NO_WEIGHTS = "ActPerMoMaNoWeights"
    NAIVE = "Naive"
    RANDOM = "Random"
    BREYER_NBV = "BreyerNbv"


@dataclass(frozen=True)
class MoveStep:
    base: Pose2
    cam: Pose3


@dataclass(frozen=True)
class ExecuteGrasp:
    grasp: Grasp  # executed with grasp.arm

    def __post_init__(self) -> None:
        if self.grasp.arm is None:
            raise ValueError("grasp to execute has no arm")


@dataclass(frozen=True)
class Abort:
    reason: str


PolicyDecision = MoveStep | ExecuteGrasp | Abort


@dataclass
class Belief:
    """Everything a policy may look at.  `node` is the belief state: a
    policy keeps in `node.kept` (`keep`) what depends on the state and on
    what the key names."""

    robot: Pose2
    target_tsdf: TsdfGrid
    occ: Grid
    stable_grasps: list[Grasp]
    target_center: np.ndarray
    target_bbox: Aabb
    step_index: int
    intr: CameraIntrinsics
    node: BeliefNode


@dataclass(frozen=True, eq=False)
class Plan:
    """One decision's route work on a belief state: goal slots, candidate
    paths and the `RouteCache` routes after it, as (key, route) pairs.  Equal
    only to itself, it stands in the next decision's key for its routes."""

    slots: tuple[tuple[int, Pose2], ...]
    paths: tuple[CandidatePath, ...]
    routes: tuple[tuple[int, Route], ...]


class RouteCache:
    """Keeps one grid route per goal key until it becomes invalid.

    Re-planning from scratch every step lets A* flip between equal-cost
    routes (left/right around an obstacle) as the start cell toggles, which
    deadlocks the robot in a bounce cycle.  A committed route is reused as
    long as its goal is unchanged, it stays collision-free, and the robot is
    still on it.

    This is the one place that locates the robot on a route: `path_to`
    returns the route trimmed to start exactly at the robot (or collapsed to
    its goal position), which is the only form `planning.step` walks.  A
    route keeps its positions and segment lengths, so a trimmed route
    measures only its new first segment.
    """

    MAX_LATERAL = 0.4

    def __init__(self) -> None:
        self.routes: dict[int, Route] = {}

    def path_to(self, nav: NavMap, robot: Pose2, goal: Pose2, key: int) -> Route:
        rob = robot.xy
        route = self.routes.get(key)
        if route is not None and self._reaches(route, nav, goal):
            lateral, seg = self._projection(route.xy, rob)
            if lateral <= self.MAX_LATERAL:
                return self._trim(route, robot, seg)
        xy = plan_path(nav, robot, goal)
        xy[-1] = goal.xy  # the goal's exact position, not its cell's centre
        route = self.routes[key] = Route.through(xy, goal)
        return self._trim(route, robot, self._projection(route.xy, rob)[1])

    @staticmethod
    def _projection(pts: np.ndarray, rob: np.ndarray) -> tuple[float, int]:
        """(lateral distance, segment index) of the closest point of the
        polyline `pts`; ties prefer the later segment."""
        if len(pts) == 1:
            return float(np.linalg.norm(rob - pts[0])), 0
        a = pts[:-1]
        seg = pts[1:] - a
        l2 = np.einsum("ij,ij->i", seg, seg)
        t = np.einsum("ij,ij->i", rob - a, seg) / np.where(l2 == 0.0, 1.0, l2)
        t = np.clip(np.where(l2 == 0.0, 0.0, t), 0.0, 1.0)
        d = np.linalg.norm(rob - (a + t[:, None] * seg), axis=1)
        best = 0
        for i in range(1, len(d)):
            if d[i] <= d[best] + 1e-12:
                best = i
        return float(d[best]), best

    @staticmethod
    def _reaches(route: Route, nav: NavMap, goal: Pose2) -> bool:
        """The route ends at `goal` and every position is on the map and free."""
        if float(np.linalg.norm(route.xy[-1] - goal.xy)) > 1e-9:
            return False
        return not cells_blocked(nav.occ, nav.blocked, route.xy).any()

    @staticmethod
    def _trim(route: Route, robot: Pose2, seg: int) -> Route:
        """`route` from the robot, which projects onto segment `seg`."""
        rob = robot.xy
        if float(np.linalg.norm(rob - route.xy[-1])) < 1e-9:
            return Route(route.xy[-1:], (), route.goal)  # arrived: collapsed to the goal
        if len(route.xy) == 1:
            return route
        xy = np.vstack([rob, route.xy[seg + 1:]])
        return Route(xy, (float(np.linalg.norm(xy[1] - xy[0])), *route.segs[seg + 1:]),
                     route.goal)


class Policy:
    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        self.cfg = cfg
        self.maps = map_pair
        self.goal_seed = derive_seed(seed, "goals")
        self.cam_seed = derive_seed(seed, "torso")
        self.routes = RouteCache()
        self.last_trace: dict = {}

    def decide(self, belief: Belief) -> PolicyDecision:
        raise NotImplementedError

    # shared helpers ------------------------------------------------------

    @staticmethod
    def _nav(belief: Belief) -> NavMap:
        """The map this decision plans on: `belief.occ` with the default
        `inflate_occupied` mask."""
        return NavMap(belief.occ, inflate_occupied(belief.occ))

    def _move_to(self, belief: Belief, base: Pose2) -> MoveStep:
        """Go to `base` (the robot's own pose waits) and view the target from there."""
        cam = camera_at(base.xy, belief.target_center, self.cam_seed,
                        self.cfg.torso_band)
        return MoveStep(base, cam)

    def _move_along(self, belief: Belief, route: Route) -> MoveStep:
        return self._move_to(belief, step(belief.robot, route, self.cfg.step_size))

    def _ig_intrinsics(self, belief: Belief) -> CameraIntrinsics:
        return belief.intr.downsampled(self.cfg.ig_downsample)

    def _grasp_here(self, belief: Belief) -> ExecuteGrasp | None:
        """The baselines' grasp trigger: the best stable grasp from where the
        robot stands, if its reachability clears cfg.exec_threshold."""
        if not belief.stable_grasps:
            return None
        g, score = best_grasp(self.maps, belief.stable_grasps, belief.robot)
        if g is not None and score >= self.cfg.exec_threshold:
            return ExecuteGrasp(g)
        return None


# ---------------------------------------------------------------------------
# receding-horizon family
# ---------------------------------------------------------------------------

class ActPerMoMaPolicy(Policy):
    """Path-wise IG + grasp executability under momentum hysteresis."""

    unit_weights = False
    exec_rule = "utility"  # or "proximity" for the IG-only ablation
    GOAL_EPOCH = 10        # steps between goal-jitter refreshes

    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        super().__init__(cfg, seed, map_pair)
        self.prev_goal_id: int | None = None
        self.grasp_found = False  # latched once any stable grasp is seen
        self.plan: Plan | None = None  # the last decision's, whose routes `routes` holds

    def decide(self, belief: Belief) -> PolicyDecision:
        cfg = self.cfg
        target_xy = belief.target_center[:2]
        # goals drift every few steps: frozen jitter lets two adjacent goals
        # trap the argmax in a visit cycle
        epoch = belief.step_index // self.GOAL_EPOCH
        # all a plan depends on; the previous plan stands for the route history
        key = ("plan", cfg.n_b, self.goal_seed, cfg.reach_radius, epoch, self.cam_seed,
               cfg.cam_spacing, cfg.torso_band, belief.robot.xy.tobytes(), self.plan)
        try:
            self.plan = plan = keep(belief.node.kept, key, lambda: self._plan(belief, epoch))
        except NoFeasibleGoals:
            return Abort("no feasible base goals")
        self.routes.routes = dict(plan.routes)
        if not plan.paths:
            return Abort("no reachable base goals")

        self.grasp_found |= bool(belief.stable_grasps)
        utils = evaluate_paths(plan.paths, belief.target_tsdf, belief.stable_grasps,
                               cfg, self.grasp_found, self._ig_intrinsics(belief),
                               belief.target_bbox, self.maps,
                               unit_weights=self.unit_weights)
        best, held = select_from_utilities(utils, cfg, self.prev_goal_id)
        self.prev_goal_id = best.path.goal_id
        self.last_trace = {
            "goal_utilities": [(u.path.goal_id, u.j_ig, u.j_exec, u.utility)
                               for u in utils],
            "selected_goal": best.path.goal_id,
            "momentum_held": held,
            "goals": [[slot, round(g.x, 4), round(g.y, 4)] for slot, g in plan.slots],
            "selected_path": [[round(x, 4), round(y, 4)]
                              for x, y in best.path.route.xy.tolist()],
        }

        if self.exec_rule == "utility":
            # gate on the undiscounted executability at the goal: at the goal
            # the path-length weight of the selection utility has collapsed
            # and would make any threshold meaningless
            if best.grasp is not None and should_execute(best.path, best.goal_reach, cfg):
                return ExecuteGrasp(best.grasp)
        else:  # proximity: grab as soon as the target ring is reached
            d = float(np.linalg.norm(belief.robot.xy - target_xy))
            if belief.stable_grasps and d <= cfg.reach_radius:
                g = max(belief.stable_grasps, key=lambda s: s.quality)
                _, arm = reachability(self.maps, g, belief.robot)
                return ExecuteGrasp(replace(g, arm=arm))
        return self._move_along(belief, best.path.route)

    def _plan(self, belief: Belief, epoch: int) -> Plan:
        """The goal slots of `epoch`, a route to each and its views."""
        cfg = self.cfg
        nav = self._nav(belief)
        slots = tuple(sample_base_goal_slots(
            belief.occ, belief.target_center[:2], cfg.n_b, self.goal_seed, cfg.reach_radius,
            blocked=nav.blocked, epoch=epoch))
        paths = []
        for slot, goal in slots:
            try:
                route = self.routes.path_to(nav, belief.robot, goal, slot)
            except NoPath:
                continue
            paths.append(sample_camera_poses(route, belief.target_center,
                                             cfg.cam_spacing, cfg.torso_band,
                                             seed=self.cam_seed, goal_id=slot))
        return Plan(slots, tuple(paths), tuple(self.routes.routes.items()))


class IgOnlyPolicy(ActPerMoMaPolicy):
    """Ablation: no executability objective; grasp once within reach."""

    exec_rule = "proximity"

    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        super().__init__(replace(cfg, w_exec=0.0), seed, map_pair)


class NoWeightsPolicy(ActPerMoMaPolicy):
    """Ablation: no path-length scaling of either utility."""

    unit_weights = True


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

class NaivePolicy(Policy):
    """Drive straight for the target ring; grasp whatever shows up there."""

    RING_POINTS = 32

    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        super().__init__(cfg, seed, map_pair)
        self.current_goal: Pose2 | None = None
        # the ring of poses facing the target and their (RING_POINTS, 2)
        # points, built on first use (a policy serves one episode, one target)
        self._ring_poses: list[Pose2] = []
        self._ring_xy = np.zeros((0, 2))

    def _ring(self, belief: Belief, blocked: np.ndarray) -> list[Pose2]:
        """The unblocked ring poses, nearest the robot first."""
        if not self._ring_poses:
            target_xy = belief.target_center[:2]
            angles = [2 * np.pi * k / self.RING_POINTS for k in range(self.RING_POINTS)]
            self._ring_xy = np.array([target_xy + self.cfg.reach_radius
                                      * np.array([np.cos(a), np.sin(a)]) for a in angles])
            self._ring_poses = [facing(xy, target_xy) for xy in self._ring_xy]
        free = ~cells_blocked(belief.occ, blocked, self._ring_xy)
        ring = [p for p, ok in zip(self._ring_poses, free.tolist()) if ok]
        ring.sort(key=lambda p: float(np.linalg.norm(p.xy - belief.robot.xy)))
        return ring

    def decide(self, belief: Belief) -> PolicyDecision:
        cfg = self.cfg
        target_xy = belief.target_center[:2]
        dist = float(np.linalg.norm(belief.robot.xy - target_xy))
        if dist <= cfg.reach_radius:  # no exploration in this baseline
            return self._grasp_here(belief) or self._move_to(belief, belief.robot)

        nav = self._nav(belief)
        candidates = ([self.current_goal] if self.current_goal is not None else []) \
            + self._ring(belief, nav.blocked)
        for goal in candidates:
            if cells_blocked(belief.occ, nav.blocked, goal.xy):
                continue
            try:
                route = self.routes.path_to(nav, belief.robot, goal, 0)
            except NoPath:
                self.routes.routes.pop(0, None)
                continue
            self.current_goal = goal
            return self._move_along(belief, route)
        self.current_goal = None
        return Abort("target ring unreachable")


class RandomPolicy(Policy):
    """Hop between random feasible ring goals; grasp on arrival if possible."""

    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        super().__init__(cfg, seed, map_pair)
        self.rng = rng_from(seed, "random-goals")
        self.current_goal: Pose2 | None = None

    def _sample_goal(self, belief: Belief, blocked: np.ndarray) -> Pose2 | None:
        target_xy = belief.target_center[:2]
        for _ in range(100):
            a = float(self.rng.uniform(0.0, 2 * np.pi))
            xy = target_xy + self.cfg.reach_radius * np.array([np.cos(a), np.sin(a)])
            if cells_blocked(belief.occ, blocked, xy):
                continue
            return facing(xy, target_xy)
        return None

    def decide(self, belief: Belief) -> PolicyDecision:
        arrived = (self.current_goal is not None
                   and float(np.linalg.norm(belief.robot.xy - self.current_goal.xy)) < 1e-9)
        if arrived and (grasp := self._grasp_here(belief)) is not None:
            return grasp
        nav = self._nav(belief)
        if arrived or self.current_goal is None:
            self.current_goal = self._sample_goal(belief, nav.blocked)
            if self.current_goal is None:
                return Abort("no feasible base goals")
        try:
            route = self.routes.path_to(nav, belief.robot, self.current_goal, 0)
        except NoPath:
            self.current_goal = None
            return self._move_to(belief, belief.robot)
        return self._move_along(belief, route)


class BreyerNbvPolicy(Policy):
    """Per-view next-best-view on a shrinking hemisphere around the target."""

    N_AZIMUTH = 16
    # survey rings: the inner ring's base grazes the grasp trigger radius,
    # the outer one stays outside it (view planning is reconstruction-first)
    ELEVATIONS = (np.deg2rad(22.0), np.deg2rad(35.0))
    SHRINK = 0.8

    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        super().__init__(cfg, seed, map_pair)
        self.radius = 1.0
        self.visited: set[int] = set()

    def view_poses(self, target: np.ndarray) -> list[Pose3]:
        views = []
        for el in self.ELEVATIONS:
            for k in range(self.N_AZIMUTH):
                az = 2 * np.pi * k / self.N_AZIMUTH
                pos = target + self.radius * np.array([
                    np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
                views.append(look_at(pos, target))
        return views

    def _feasible(self, belief: Belief, cams: list[Pose3], blocked: np.ndarray) -> list[int]:
        free = ~cells_blocked(belief.occ, blocked, np.array([cam.position[:2] for cam in cams]))
        return [i for i, ok in enumerate(free.tolist()) if ok and i not in self.visited]

    def decide(self, belief: Belief) -> PolicyDecision:
        cfg = self.cfg
        target_xy = belief.target_center[:2]
        dist = float(np.linalg.norm(belief.robot.xy - target_xy))
        if dist <= cfg.reach_radius and (grasp := self._grasp_here(belief)) is not None:
            return grasp

        nav = self._nav(belief)
        cams = self.view_poses(belief.target_center)
        feasible = self._feasible(belief, cams, nav.blocked)
        if not feasible:
            # sweep exhausted: shrink the hemisphere and start over
            self.radius = max(self.radius * self.SHRINK, 0.45)
            self.visited.clear()
            cams = self.view_poses(belief.target_center)
            feasible = self._feasible(belief, cams, nav.blocked)
            if not feasible:
                return Abort("no feasible views")

        igs = rear_side_ig_batch(belief.target_tsdf, [cams[i] for i in feasible],
                                 self._ig_intrinsics(belief), belief.target_bbox)
        order = max(range(len(feasible)), key=lambda j: (igs[j], -feasible[j]))
        view_id = feasible[order]
        self.last_trace = {"selected_view": view_id,
                           "view_igs": [(int(i), int(c)) for i, c in zip(feasible, igs)]}

        goal = facing(cams[view_id].position, target_xy)
        if float(np.linalg.norm(belief.robot.xy - goal.xy)) < 1e-9:
            self.visited.add(view_id)
            return self._move_to(belief, belief.robot)
        try:
            route = self.routes.path_to(nav, belief.robot, goal, view_id)
        except NoPath:
            self.visited.add(view_id)
            return self._move_to(belief, belief.robot)
        move = self._move_along(belief, route)
        if float(np.linalg.norm(move.base.xy - goal.xy)) < 1e-9:
            self.visited.add(view_id)
        return move


_POLICIES = {
    PolicyKind.ACTPERMOMA: ActPerMoMaPolicy,
    PolicyKind.IG_ONLY: IgOnlyPolicy,
    PolicyKind.NO_WEIGHTS: NoWeightsPolicy,
    PolicyKind.NAIVE: NaivePolicy,
    PolicyKind.RANDOM: RandomPolicy,
    PolicyKind.BREYER_NBV: BreyerNbvPolicy,
}


def make_policy(kind: PolicyKind | str, cfg: PlannerConfig, seed: int,
                map_pair: MapPair) -> Policy:
    kind = PolicyKind(kind)
    return _POLICIES[kind](cfg, seed, map_pair)
