"""The receding-horizon policy, its ablations, and the three baselines.

All policies expose decide(belief) -> MoveStep | ExecuteGrasp | Abort and are
deterministic functions of (config, seed, belief history).  They only see the
belief: fused TSDFs, projected occupancy, stable grasps and the approximate
target location; ground truth stays inside the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geom import Aabb, OccupancyGrid2, Pose2, Pose3, look_at, wrap_angle
from .grasping import Arm, Grasp, MapPair, best_grasp, reachability
from .perception import TsdfGrid, rear_side_ig_batch
from .planning import (
    CandidatePath,
    NoFeasibleGoals,
    NoPath,
    PlannerConfig,
    PlannerState,
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
)
from .scene import CameraIntrinsics
from .seeding import derive_seed, rng_from


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
    grasp: Grasp
    arm: Arm


@dataclass(frozen=True)
class Abort:
    reason: str


PolicyDecision = MoveStep | ExecuteGrasp | Abort


@dataclass
class Belief:
    """Everything a policy may look at."""

    robot: Pose2
    target_tsdf: TsdfGrid
    occ: OccupancyGrid2
    stable_grasps: list[Grasp]
    target_center: np.ndarray
    target_bbox: Aabb
    step_index: int
    intr: CameraIntrinsics


def _highest_quality(grasps: list[Grasp]) -> Grasp:
    return max(grasps, key=lambda g: g.quality)


def _with_arm(g: Grasp, maps: MapPair, base: Pose2) -> Grasp:
    _, arm = reachability(maps, g, base)
    return replace(g, arm=arm)


class RouteCache:
    """Keeps one grid route per goal key until it becomes invalid.

    Re-planning from scratch every step lets A* flip between equal-cost
    routes (left/right around an obstacle) as the start cell toggles, which
    deadlocks the robot in a bounce cycle.  A committed route is reused as
    long as its goal is unchanged, it stays collision-free, and the robot is
    still on it, and is trimmed to start at the robot.
    """

    MAX_LATERAL = 0.4

    def __init__(self) -> None:
        self.routes: dict[int, list[Pose2]] = {}

    def path_to(self, occ: OccupancyGrid2, blocked: np.ndarray, robot: Pose2,
                goal: Pose2, key: int) -> list[Pose2]:
        cached = self.routes.get(key)
        if cached is not None and self._valid(cached, occ, blocked, robot, goal):
            return self._trim(cached, robot)
        base = plan_path(occ, robot, goal, blocked=blocked)
        base = base[:-1] + [goal]
        self.routes[key] = base
        return self._trim(base, robot)

    @staticmethod
    def _projection(route: list[Pose2], rob: np.ndarray) -> tuple[float, int]:
        """(lateral distance, segment index) of the closest polyline point;
        ties prefer the later segment."""
        pts = np.array([w.xy for w in route])
        if len(route) == 1:
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

    def _valid(self, route: list[Pose2], occ: OccupancyGrid2, blocked: np.ndarray,
               robot: Pose2, goal: Pose2) -> bool:
        if float(np.linalg.norm(route[-1].xy - goal.xy)) > 1e-9:
            return False
        lateral, _ = self._projection(route, robot.xy)
        if lateral > self.MAX_LATERAL:
            return False
        cells = occ.world_to_cell(np.array([w.xy for w in route]))
        inside = occ.contains_cell(cells)
        if not bool(inside.all()):
            return False
        return not bool(blocked[cells[:, 0], cells[:, 1]].any())

    def _trim(self, route: list[Pose2], robot: Pose2) -> list[Pose2]:
        rob = robot.xy
        if float(np.linalg.norm(rob - route[-1].xy)) < 1e-9:
            return [route[-1]]  # arrived: collapsed single-waypoint path
        if len(route) == 1:
            return list(route)
        _, best_i = self._projection(route, rob)
        remaining = route[best_i + 1:]
        start = Pose2(float(rob[0]), float(rob[1]), robot.theta)
        return [start, *remaining] if remaining else [start, route[-1]]


class Policy:
    kind: PolicyKind

    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        self.cfg = cfg
        self.seed = int(seed)
        self.maps = map_pair
        self.goal_seed = derive_seed(seed, "goals")
        self.cam_seed = derive_seed(seed, "torso")
        self.routes = RouteCache()
        self.last_trace: dict = {}

    def decide(self, belief: Belief) -> PolicyDecision:
        raise NotImplementedError

    # shared helpers ------------------------------------------------------

    def _move_along(self, belief: Belief, path: CandidatePath) -> MoveStep:
        new_base = step(belief.robot, path, self.cfg.step_size)
        cam = camera_at(new_base.xy, belief.target_center, self.cam_seed,
                        self.cfg.torso_band)
        return MoveStep(new_base, cam)

    def _wait_in_place(self, belief: Belief) -> MoveStep:
        cam = camera_at(belief.robot.xy, belief.target_center, self.cam_seed,
                        self.cfg.torso_band)
        return MoveStep(belief.robot, cam)

    def _ig_intrinsics(self, belief: Belief) -> CameraIntrinsics:
        return belief.intr.downsampled(self.cfg.ig_downsample)


# ---------------------------------------------------------------------------
# receding-horizon family
# ---------------------------------------------------------------------------

class ActPerMoMaPolicy(Policy):
    """Path-wise IG + grasp executability under momentum hysteresis."""

    kind = PolicyKind.ACTPERMOMA
    unit_weights = False
    exec_rule = "utility"  # or "proximity" for the IG-only ablation
    GOAL_EPOCH = 10        # steps between goal-jitter refreshes

    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        super().__init__(cfg, seed, map_pair)
        self.state = PlannerState()

    def decide(self, belief: Belief) -> PolicyDecision:
        cfg = self.cfg
        if belief.step_index >= cfg.max_steps:
            return Abort("step budget exhausted")
        target_xy = belief.target_center[:2]
        blocked = inflate_occupied(belief.occ)
        try:
            # goals drift every few steps: frozen jitter lets two adjacent
            # goals trap the argmax in a visit cycle
            slots = sample_base_goal_slots(belief.occ, target_xy, cfg.n_b,
                                           self.goal_seed, cfg.reach_radius,
                                           blocked=blocked,
                                           epoch=belief.step_index // self.GOAL_EPOCH)
        except NoFeasibleGoals:
            return Abort("no feasible base goals")
        paths = []
        for slot, goal in slots:
            try:
                base = self.routes.path_to(belief.occ, blocked, belief.robot,
                                           goal, slot)
            except NoPath:
                continue
            paths.append(sample_camera_poses(base, belief.target_center,
                                             cfg.cam_spacing, cfg.torso_band,
                                             seed=self.cam_seed, goal_id=slot))
        if not paths:
            return Abort("no reachable base goals")

        utils = evaluate_paths(paths, belief.target_tsdf, belief.stable_grasps,
                               cfg, self.state, self._ig_intrinsics(belief),
                               belief.target_bbox, self.maps,
                               unit_weights=self.unit_weights)
        best, self.state, held = select_from_utilities(
            utils, cfg, self.state, bool(belief.stable_grasps))
        self.last_trace = {
            "goal_utilities": [(u.path.goal_id, u.j_ig, u.j_exec, u.utility)
                               for u in utils],
            "selected_goal": best.path.goal_id,
            "momentum_held": held,
            "goals": [[slot, round(g.x, 4), round(g.y, 4)] for slot, g in slots],
            "selected_path": [[round(w.x, 4), round(w.y, 4)]
                              for w in best.path.base_path],
        }

        if self.exec_rule == "utility":
            if belief.stable_grasps:
                # gate on the undiscounted executability at the goal: at the
                # goal the path-length weight of the selection utility has
                # collapsed and would make any threshold meaningless
                g, goal_score = best_grasp(self.maps, belief.stable_grasps,
                                           best.path.goal_base)
                if should_execute(best.path, belief.robot, goal_score, cfg):
                    assert g is not None and g.arm is not None
                    return ExecuteGrasp(g, g.arm)
        else:  # proximity: grab as soon as the target ring is reached
            d = float(np.linalg.norm(belief.robot.xy - target_xy))
            if belief.stable_grasps and d <= cfg.reach_radius:
                g = _with_arm(_highest_quality(belief.stable_grasps), self.maps,
                              belief.robot)
                assert g.arm is not None
                return ExecuteGrasp(g, g.arm)
        return self._move_along(belief, best.path)


class IgOnlyPolicy(ActPerMoMaPolicy):
    """Ablation: no executability objective; grasp once within reach."""

    kind = PolicyKind.IG_ONLY
    exec_rule = "proximity"

    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        super().__init__(replace(cfg, w_exec=0.0), seed, map_pair)


class NoWeightsPolicy(ActPerMoMaPolicy):
    """Ablation: no path-length scaling of either utility."""

    kind = PolicyKind.NO_WEIGHTS
    unit_weights = True


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

class NaivePolicy(Policy):
    """Drive straight for the target ring; grasp whatever shows up there."""

    kind = PolicyKind.NAIVE
    RING_POINTS = 32

    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        super().__init__(cfg, seed, map_pair)
        self.current_goal: Pose2 | None = None

    def _ring(self, belief: Belief, blocked: np.ndarray) -> list[Pose2]:
        target_xy = belief.target_center[:2]
        ring = []
        for k in range(self.RING_POINTS):
            a = 2 * np.pi * k / self.RING_POINTS
            xy = target_xy + self.cfg.reach_radius * np.array([np.cos(a), np.sin(a)])
            if not cell_blocked(belief.occ, blocked, xy):
                ring.append(Pose2(float(xy[0]), float(xy[1]),
                                  wrap_angle(float(np.arctan2(target_xy[1] - xy[1],
                                                              target_xy[0] - xy[0])))))
        ring.sort(key=lambda p: float(np.linalg.norm(p.xy - belief.robot.xy)))
        return ring

    def decide(self, belief: Belief) -> PolicyDecision:
        cfg = self.cfg
        if belief.step_index >= cfg.max_steps:
            return Abort("step budget exhausted")
        target_xy = belief.target_center[:2]
        dist = float(np.linalg.norm(belief.robot.xy - target_xy))
        if dist <= cfg.reach_radius:
            if belief.stable_grasps:
                g, score = best_grasp(self.maps, belief.stable_grasps, belief.robot)
                if g is not None and score >= cfg.exec_threshold:
                    assert g.arm is not None
                    return ExecuteGrasp(g, g.arm)
            return self._wait_in_place(belief)  # no exploration in this baseline

        blocked = inflate_occupied(belief.occ)
        candidates = ([self.current_goal] if self.current_goal is not None else []) \
            + self._ring(belief, blocked)
        for goal in candidates:
            if cell_blocked(belief.occ, blocked, goal.xy):
                continue
            try:
                base = self.routes.path_to(belief.occ, blocked, belief.robot, goal, 0)
            except NoPath:
                self.routes.routes.pop(0, None)
                continue
            self.current_goal = goal
            path = CandidatePath(goal_id=0, base_path=base, views=[], length=0.0)
            return self._move_along(belief, path)
        self.current_goal = None
        return Abort("target ring unreachable")


class RandomPolicy(Policy):
    """Hop between random feasible ring goals; grasp on arrival if possible."""

    kind = PolicyKind.RANDOM

    def __init__(self, cfg: PlannerConfig, seed: int, map_pair: MapPair):
        super().__init__(cfg, seed, map_pair)
        self.rng = rng_from(seed, "random-goals")
        self.current_goal: Pose2 | None = None
        self.grasp_failed = False  # shrinks the sampling ring to 0.75 m

    def _goal_radius(self) -> float:
        return 0.75 if self.grasp_failed else min(self.cfg.reach_radius, 0.85)

    def _sample_goal(self, belief: Belief, blocked: np.ndarray) -> Pose2 | None:
        target_xy = belief.target_center[:2]
        r = self._goal_radius()
        for _ in range(100):
            a = float(self.rng.uniform(0.0, 2 * np.pi))
            xy = target_xy + r * np.array([np.cos(a), np.sin(a)])
            if cell_blocked(belief.occ, blocked, xy):
                continue
            return Pose2(float(xy[0]), float(xy[1]),
                         wrap_angle(float(np.arctan2(target_xy[1] - xy[1],
                                                     target_xy[0] - xy[0]))))
        return None

    def decide(self, belief: Belief) -> PolicyDecision:
        cfg = self.cfg
        if belief.step_index >= cfg.max_steps:
            return Abort("step budget exhausted")
        arrived = (self.current_goal is not None
                   and float(np.linalg.norm(belief.robot.xy - self.current_goal.xy)) < 1e-9)
        if arrived and belief.stable_grasps:
            g, score = best_grasp(self.maps, belief.stable_grasps, belief.robot)
            if g is not None and score >= cfg.exec_threshold:
                assert g.arm is not None
                return ExecuteGrasp(g, g.arm)
        blocked = inflate_occupied(belief.occ)
        if arrived or self.current_goal is None:
            self.current_goal = self._sample_goal(belief, blocked)
            if self.current_goal is None:
                return Abort("no feasible base goals")
        try:
            base = self.routes.path_to(belief.occ, blocked, belief.robot,
                                       self.current_goal, 0)
        except NoPath:
            self.current_goal = None
            return self._wait_in_place(belief)
        path = CandidatePath(goal_id=0, base_path=base, views=[], length=0.0)
        return self._move_along(belief, path)


class BreyerNbvPolicy(Policy):
    """Per-view next-best-view on a shrinking hemisphere around the target."""

    kind = PolicyKind.BREYER_NBV
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
        return [i for i, cam in enumerate(cams) if i not in self.visited
                and not cell_blocked(belief.occ, blocked, cam.position[:2])]

    def decide(self, belief: Belief) -> PolicyDecision:
        cfg = self.cfg
        if belief.step_index >= cfg.max_steps:
            return Abort("step budget exhausted")
        target_xy = belief.target_center[:2]
        dist = float(np.linalg.norm(belief.robot.xy - target_xy))
        if dist <= cfg.reach_radius and belief.stable_grasps:
            g, score = best_grasp(self.maps, belief.stable_grasps, belief.robot)
            if g is not None and score >= cfg.exec_threshold:
                assert g.arm is not None
                return ExecuteGrasp(g, g.arm)

        blocked = inflate_occupied(belief.occ)
        cams = self.view_poses(belief.target_center)
        feasible = self._feasible(belief, cams, blocked)
        if not feasible:
            # sweep exhausted: shrink the hemisphere and start over
            self.radius = max(self.radius * self.SHRINK, 0.45)
            self.visited.clear()
            cams = self.view_poses(belief.target_center)
            feasible = self._feasible(belief, cams, blocked)
            if not feasible:
                return Abort("no feasible views")

        igs = rear_side_ig_batch(belief.target_tsdf, [cams[i] for i in feasible],
                                 self._ig_intrinsics(belief), belief.target_bbox)
        order = max(range(len(feasible)), key=lambda j: (igs[j], -feasible[j]))
        view_id = feasible[order]
        self.last_trace = {"selected_view": view_id,
                           "view_igs": [(int(i), int(c)) for i, c in zip(feasible, igs)]}

        cam = cams[view_id]
        goal = Pose2(float(cam.position[0]), float(cam.position[1]),
                     wrap_angle(float(np.arctan2(target_xy[1] - cam.position[1],
                                                 target_xy[0] - cam.position[0]))))
        if float(np.linalg.norm(belief.robot.xy - goal.xy)) < 1e-9:
            self.visited.add(view_id)
            return self._wait_in_place(belief)
        try:
            base = self.routes.path_to(belief.occ, blocked, belief.robot, goal, view_id)
        except NoPath:
            self.visited.add(view_id)
            return self._wait_in_place(belief)
        path = CandidatePath(goal_id=view_id, base_path=base, views=[], length=0.0)
        move = self._move_along(belief, path)
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
