"""Grasp detection surrogate, stability filtering, reachability and execution.

Detection couples observation to grasp availability: a ground-truth grasp is
reported only once enough of the surface around its contact point has been
fused into the TSDF, with quality scaled by that coverage.  Reachability is
an analytic two-arm map over grasp pose relative to the base; it drives both
path utilities and the final arm/grasp selection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geom import CellState, Pose2, Pose3, keep, quat_rotate, wrap_angle
from .perception import TsdfGrid
from .scene import TABLE_HEIGHT, Approach, Scene, primitive_sdf

# execution success model
EXEC_MIN_INTRINSIC = 0.5
EXEC_MIN_REACH = 0.3
EXEC_MIN_COVERAGE = 0.5


class Arm(str, Enum):
    LEFT = "left"
    RIGHT = "right"


class GraspOutcome(str, Enum):
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass(frozen=True)
class Grasp:
    pose: Pose3                      # world frame, +z is the approach axis
    quality: float
    voxel: tuple[int, int, int]      # snapped index in the target TSDF
    stable_for: int = 1
    arm: Arm | None = None
    coverage: float = 0.0            # observed fraction of the contact shell
    truth_index: int = -1            # its entry in scene.truth_grasps; -1: none


def smoothstep(x: float, lo: float, hi: float) -> float:
    t = min(max((x - lo) / (hi - lo), 0.0), 1.0)
    return t * t * (3.0 - 2.0 * t)


def surface_normals(prim, points: np.ndarray) -> np.ndarray:
    """Outward unit normals from central differences (2 mm steps) of the
    primitive SDF."""
    points = np.atleast_2d(points)
    grad = np.empty_like(points)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 2e-3
        grad[:, axis] = primitive_sdf(prim, points + e) - primitive_sdf(prim, points - e)
    norms = np.linalg.norm(grad, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return grad / norms


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

class GraspDetector:
    """A scene's detector; precomputes the ground-truth contact shells.

    The shell of a grasp is the set of true surface voxels within a 3-voxel
    ball of its contact point that face the approach direction: the geometry
    the gripper actually needs to have seen.  Coverage is the fraction of the
    shell currently fused as occupied surface.
    """

    BALL_RADIUS_VOXELS = 3
    FACING_MIN_DOT = 0.2

    def __init__(self, grid_template: TsdfGrid, scene: Scene):
        self.scene = scene
        g = grid_template.grid
        self._world_poses = scene.world_truth_grasp_poses()
        target = scene.target_primitive
        r = self.BALL_RADIUS_VOXELS
        offs = np.array([(i, j, k)
                         for i in range(-r, r + 1)
                         for j in range(-r, r + 1)
                         for k in range(-r, r + 1)
                         if i * i + j * j + k * k <= r * r])
        # every grasp's ball in one array, grasp after grasp: the centers,
        # the SDF and the normals are computed row by row, so each row gets
        # the bits that a call per grasp gives it
        positions = np.array([p.position for p in self._world_poses]).reshape(-1, 3)
        center = g.world_to_index(positions)
        balls = center[:, None, :] + offs
        inside = g.contains_index(balls)
        ball = balls[inside]
        centers = g.index_to_world_center(ball)
        # voxels fusion can mark occupied: centers on or just inside the
        # true surface (outside-surface voxels fuse as free); voxels flush
        # with the tabletop can never be observed and are no contact area
        sd = primitive_sdf(target, centers)
        keep = (sd <= 0.0) & (sd >= -g.cell_size)
        keep &= centers[:, 2] >= TABLE_HEIGHT + 0.5 * g.cell_size
        normals = surface_normals(target, centers)
        ends = np.cumsum(np.count_nonzero(inside, axis=1))[:-1]
        self.shells: list[np.ndarray] = []
        for pose, b, k, n in zip(self._world_poses, np.split(ball, ends),
                                 np.split(keep, ends), np.split(normals, ends)):
            # one matrix-vector product per grasp, as its own product
            approach = quat_rotate(pose.orientation, np.array([0.0, 0.0, 1.0]))
            self.shells.append(b[k & (n @ (-approach) > self.FACING_MIN_DOT)])
        self.voxels: list[tuple[int, int, int]] = [
            tuple(int(x) for x in v) for v in np.clip(center, 0, np.array(g.dims) - 1)]
        # detect's single gather: every shell's voxels in one index (offs[:0]
        # keeps it defined for a scene without grasps) and the grasp of each
        self._shell_sizes = [s.shape[0] for s in self.shells]
        self._shell_index = tuple(np.concatenate([offs[:0], *self.shells]).T)
        self._shell_owner = np.repeat(np.arange(len(self.shells)), self._shell_sizes)

    def detect(self, tsdf: TsdfGrid, q_th: float, seed: int,
               noise_amplitude: float = 0.05) -> list[Grasp]:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 0x6A59]))
        occupied = tsdf.states(self._shell_index) == CellState.OCCUPIED
        hits = np.bincount(self._shell_owner[occupied], minlength=len(self.shells)).tolist()
        out: list[Grasp] = []
        for gi, (truth, size, hit, pose) in enumerate(
                zip(self.scene.truth_grasps, self._shell_sizes, hits, self._world_poses)):
            # one noise draw per grasp, empty shells included
            eps = float(rng.uniform(-noise_amplitude, noise_amplitude)) if noise_amplitude else 0.0
            if size == 0:
                continue
            # the shell's observed fraction: both integers are exact, so the
            # correctly rounded quotient has the bits of `observed.mean()`
            coverage = hit / size
            q = truth.intrinsic_quality * smoothstep(coverage, 0.3, 0.8) + eps
            q = min(max(q, 0.0), 1.0)
            if q >= q_th:
                out.append(Grasp(pose=pose, quality=q, voxel=self.voxels[gi],
                                 coverage=coverage, truth_index=gi))
        return out


# ---------------------------------------------------------------------------
# stability filtering
# ---------------------------------------------------------------------------

def update_stability(prev: list[Grasp], new: list[Grasp]) -> list[Grasp]:
    """Carry per-voxel persistence counters from `prev` into `new`."""
    counter = {g.voxel: g.stable_for for g in prev}
    return [replace(g, stable_for=counter.get(g.voxel, 0) + 1) for g in new]


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------

def _tri(x: np.ndarray, lo: float, peak: float, hi: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    up = (x - lo) / (peak - lo)
    down = (hi - x) / (hi - peak)
    return np.clip(np.minimum(up, down), 0.0, 1.0)


ARM_OFFSET = {Arm.LEFT: np.deg2rad(30.0), Arm.RIGHT: np.deg2rad(-30.0)}
YAW_CUTOFF = np.deg2rad(100.0)
SIDE_SCALE = 0.7
PITCH_CLASSES = (Approach.TOP_DOWN, Approach.SIDE_45)


@dataclass
class ReachabilityMap:
    """Binned score over grasp pose relative to the base, one map per arm.

    Axes: radial distance, height, yaw to the grasp position (circular) and
    the approach pitch class.  Out-of-range queries score 0.
    """

    arm: Arm
    dist_edges: np.ndarray    # (nd + 1,)
    height_edges: np.ndarray  # (nh + 1,)
    yaw_lo: float
    yaw_step: float
    scores: np.ndarray        # (nd, nh, n_yaw, 2) float32

    @property
    def n_yaw(self) -> int:
        return self.scores.shape[2]

    def score_at(self, dist: float, height: float, yaw: float, pitch: Approach) -> float:
        di = int(np.floor((dist - self.dist_edges[0]) / (self.dist_edges[1] - self.dist_edges[0])))
        hi = int(np.floor((height - self.height_edges[0])
                          / (self.height_edges[1] - self.height_edges[0])))
        if not (0 <= di < self.scores.shape[0] and 0 <= hi < self.scores.shape[1]):
            return 0.0
        yi = int(np.floor(((yaw - self.yaw_lo) % (2 * np.pi)) / self.yaw_step)) % self.n_yaw
        pi = PITCH_CLASSES.index(pitch)
        return float(self.scores[di, hi, yi, pi])


def build_reachability_map(arm: Arm) -> ReachabilityMap:
    """Analytic surrogate: triangular windows over distance and height times a
    cosine falloff of yaw about the arm's offset; side-pitch bins scaled down.

    Bin edges are offset so that bin centers land on the window peaks
    (d 0.65, h 0.8, yaw at the arm offset score exactly 1)."""
    dist_edges = 0.025 + 0.05 * np.arange(25)       # centers 0.05 .. 1.2
    height_edges = 0.025 + 0.05 * np.arange(33)     # centers 0.05 .. 1.6
    n_yaw = 36
    yaw_step = 2 * np.pi / n_yaw
    yaw_lo = ARM_OFFSET[Arm.LEFT] - (20 + 0.5) * yaw_step  # center 20 sits at +30 deg

    d_c = 0.5 * (dist_edges[:-1] + dist_edges[1:])
    h_c = 0.5 * (height_edges[:-1] + height_edges[1:])
    y_c = yaw_lo + (np.arange(n_yaw) + 0.5) * yaw_step

    # right flank reaches past the 0.85 m goal ring: policies that stand on
    # the ring must keep workable scores for grasps on the target's far side
    d_w = _tri(d_c, 0.35, 0.65, 1.15)
    h_w = _tri(h_c, 0.4, 0.8, 1.2)
    dy = np.abs(np.angle(np.exp(1j * (y_c - ARM_OFFSET[arm]))))
    y_w = np.where(dy < YAW_CUTOFF, np.cos(0.5 * np.pi * dy / YAW_CUTOFF), 0.0)

    base = d_w[:, None, None] * h_w[None, :, None] * y_w[None, None, :]
    scores = np.stack([base, base * SIDE_SCALE], axis=-1).astype(np.float32)
    return ReachabilityMap(arm, dist_edges, height_edges, float(yaw_lo), float(yaw_step), scores)


def grasp_pitch_class(grasp_pose: Pose3) -> Approach:
    approach = quat_rotate(grasp_pose.orientation, np.array([0.0, 0.0, 1.0]))
    angle = float(np.arccos(np.clip(-approach[2], -1.0, 1.0)))
    return Approach.TOP_DOWN if angle <= np.pi / 8 else Approach.SIDE_45


MapPair = tuple[ReachabilityMap, ReachabilityMap]


_MAP_PAIR: dict[str, MapPair] = {}


def build_map_pair() -> MapPair:
    """The two arms' maps, built once per process (`keep`).  They are
    constants that every caller shares, so their arrays are read-only."""
    return keep(_MAP_PAIR, "pair",
                lambda: (build_reachability_map(Arm.LEFT), build_reachability_map(Arm.RIGHT)))


def reachability(map_pair: MapPair, grasp: Grasp, base: Pose2) -> tuple[float, Arm]:
    """Best score over both arms for executing `grasp` from `base`, with the
    attaining arm; depends only on the grasp pose relative to the base.

    The yaw coordinate is the grasp position's bearing for top-down grasps;
    for side grasps it is the bearing of the horizontal approach direction,
    so a side grasp is only workable from bases on its contact side (the arm
    cannot push a gripper through the object from behind)."""
    rel = grasp.pose.position[:2] - base.xy
    c, s = np.cos(-base.theta), np.sin(-base.theta)
    lx = c * rel[0] - s * rel[1]
    ly = s * rel[0] + c * rel[1]
    dist = float(np.hypot(lx, ly))
    pitch = grasp_pitch_class(grasp.pose)
    if pitch is Approach.SIDE_45:
        approach = quat_rotate(grasp.pose.orientation, np.array([0.0, 0.0, 1.0]))
        ax = c * approach[0] - s * approach[1]
        ay = s * approach[0] + c * approach[1]
        yaw = wrap_angle(float(np.arctan2(ay, ax)))
    else:
        yaw = wrap_angle(float(np.arctan2(ly, lx)))
    height = float(grasp.pose.position[2])
    best_score, best_arm = 0.0, Arm.LEFT
    for m in map_pair:
        sc = m.score_at(dist, height, yaw, pitch)
        if sc > best_score:
            best_score, best_arm = sc, m.arm
    return best_score, best_arm


def best_grasp(map_pair: MapPair, grasps: list[Grasp], base: Pose2
               ) -> tuple[Grasp | None, float]:
    """Most reachable grasp from `base` (ties keep detection order), with its
    arm filled in; (None, 0) when the set is empty."""
    best: Grasp | None = None
    best_score = 0.0
    for g in grasps:
        score, arm = reachability(map_pair, g, base)
        if best is None or score > best_score:
            best = replace(g, arm=arm)
            best_score = score
    return best, best_score


def exec_utility(grasps: list[Grasp], path, map_pair: MapPair) -> tuple[Grasp | None, float]:
    """The most reachable grasp from the path's goal base pose, with its arm,
    and its reachability, not yet weighted by the path length
    (`planning.evaluate_paths` does that); (None, 0) for an empty grasp set."""
    return best_grasp(map_pair, grasps, path.route.goal)


# ---------------------------------------------------------------------------
# execution success model
# ---------------------------------------------------------------------------

def execute_grasp(scene: Scene, grasp: Grasp, base: Pose2, map_pair: MapPair) -> GraspOutcome:
    """Deterministic surrogate for physical grasp execution.

    Succeeds iff the ground-truth grasp the detector matched
    (`grasp.truth_index`) is intrinsically good, the grasp is comfortably
    reachable from the executing base pose, and enough of the contact region
    has actually been observed (the EXEC_MIN_* bounds).  A grasp with no
    ground-truth match fails.
    """
    if grasp.truth_index < 0:
        return GraspOutcome.FAILED
    truth = scene.truth_grasps[grasp.truth_index]
    score, _ = reachability(map_pair, grasp, base)
    ok = (truth.intrinsic_quality >= EXEC_MIN_INTRINSIC
          and score >= EXEC_MIN_REACH
          and grasp.coverage >= EXEC_MIN_COVERAGE)
    return GraspOutcome.SUCCEEDED if ok else GraspOutcome.FAILED
