"""Episode orchestration, metrics, batch experiments and statistical checks.

An episode is: generate a scene, spawn the robot, integrate the first view,
then loop sense -> detect -> decide -> act until the policy grasps, aborts,
or the loop's step budget (`PlannerConfig.max_steps`) runs out.  Everything
is a pure function of (config, episode index), so episodes parallelize
freely and reruns are bit-identical.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import io
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, get_args, get_origin, get_type_hints

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

from .geom import CellState, Pose2, Pose3, cells_to_rle, keep
from .grasping import (
    GraspDetector,
    GraspOutcome,
    build_map_pair,
    execute_grasp,
    update_stability,
)
from .perception import VIEW_CACHE_POSES, TsdfGrid, integrate_depth, project_occupancy
from .planning import PlannerConfig, camera_at, state_at
from .policies import Abort, Belief, MoveStep, PolicyKind, make_policy
from .scene import (
    ARENA_HALF,
    DEFAULT_INTRINSICS,
    CameraIntrinsics,
    DepthImage,
    Scene,
    SceneGenFailure,
    SceneKind,
    generate_scene,
    render_depth,
    sample_start_pose,
    scene_to_dict,
)
from .seeding import derive_seed

# belief grids: a fine cube around the target for grasping/IG and a coarse
# whole-arena grid for navigation
TARGET_GRID_SIDE = 0.6
TARGET_GRID_VOXELS = 40
NAV_CELL = 0.1
NAV_Z_VOXELS = 12
NAV_HEIGHT_BAND = (0.15, 1.05)
# the policies that read the target grid only through the grasp detector:
# they never score IG, so their episodes fuse it only inside the detector's
# shells' box (`TsdfGrid.region`); every other policy fuses it whole
SHELLS_ONLY = frozenset({PolicyKind.NAIVE, PolicyKind.RANDOM})


class Outcome(str, Enum):
    SUCCESS = "success"
    ABORT = "abort"
    GRASP_FAILURE = "grasp_failure"


class PolicySafetyError(RuntimeError):
    """A policy tried to move onto an observed-occupied cell."""


@dataclass(frozen=True)
class EpisodeResult:
    outcome: Outcome
    d_total: float
    v_total: int
    steps: int
    scene_seed: int
    policy_seed: int
    policy: PolicyKind
    abort_reason: str = ""


@dataclass(frozen=True)
class RunConfig:
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    scenario: SceneKind = SceneKind.SIMPLE
    hard_grasps: bool = False
    episodes: int = 100
    base_seed: int = 0
    policy: PolicyKind = PolicyKind.ACTPERMOMA

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")


def config_hash(cfg: RunConfig) -> str:
    # a null output_dir keeps the hash in cell names, trace meta records and pinned digests
    doc = json.dumps({**asdict(cfg), "output_dir": None}, sort_keys=True, default=str)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str}


def _typed(key: str, value, hint):
    """`value`, read from JSON (a config, a result record), as field `key` of
    type `hint`, or a ValueError naming `key`.  Each dataclass field is read
    as its annotation: an int is also a float, a float must be finite, a bool
    is only a bool, a tuple comes as a list of its length, an enum as one of
    its values; unknown keys are refused."""
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(f"{key} must be an object, not {value!r}")
        hints = get_type_hints(hint)
        unknown = set(value) - {f.name for f in fields(hint)}
        if unknown:
            raise ValueError(f"unknown {key} keys: {sorted(unknown)}")
        return hint(**{k: _typed(k, v, hints[k]) for k, v in value.items()})
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)) and len(value) == len(args):
            return tuple(_typed(key, v, a) for v, a in zip(value, args))
    elif isinstance(hint, type) and issubclass(hint, Enum):
        if value in [k.value for k in hint]:
            return hint(value)
    elif isinstance(value, _JSON_TYPES[hint]) and isinstance(value, bool) == (hint is bool):
        if hint is not float or math.isfinite(value):  # JSON reads NaN and Infinity
            return value
        raise ValueError(f"{key} must be finite, not {value!r}")
    name = hint.__name__ if isinstance(hint, type) else str(hint)
    raise ValueError(f"{key} must be {name}, not {value!r}")


def run_config_from_dict(doc: dict) -> RunConfig:
    """Strict deserialization: unknown keys and wrongly typed values are
    refused (ValueError naming the key)."""
    return _typed("config", doc, RunConfig)


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------

def cached_render(images: dict, scene: Scene, cam: Pose3, intr: CameraIntrinsics
                  ) -> DepthImage:
    """`render_depth(scene, cam, intr)`, kept in `images` (`keep`), the last
    VIEW_CACHE_POSES views of `scene`: a view that repeats one of them
    reuses its image and the fusion plans it carries."""
    return keep(images, (*cam.key(), intr), lambda: render_depth(scene, cam, intr),
                VIEW_CACHE_POSES)


# the record of the last scene this process ran, kept (`keep`, bound 1) for
# the episodes of its scene task: {(kind, hard_grasps, seed): SceneRecord}.
# Everything they share is a pure function of its key, as `keep` asks.  The
# scene is `generate_scene`'s function of the record's key, and so are its
# start pose, detector, images and ray visits.  A belief state (`BeliefNode`)
# is the grids after one history of views, keyed by its parent's id and its
# last view: fusion is elementwise and a view's image and plan are pure, so
# both grids, and every result kept on the state, are a pure function of
# the scene and its views in order (the target grid's cells inside the
# shells' box, the only ones a baseline holds; see `BeliefNode`)
_SCENE_VIEWS: dict = {}
# the belief states a scene keeps.  Episodes share the states of their
# opening views, so the bound must outlast one long episode between two
# that share: on uncapped table2 (400-step budget, 2 episodes per cell,
# base seed 300) 512 kept every repeat an unbounded table finds (1,148 of
# 2,349 states) and 256 kept 288.  There a state keeps ~20 KB on average,
# counting once the camera poses its plans share (~9 KB of it the occupancy
# and the obstacle mask, ~8 KB the plans), and ~100 KB at most, so 512
# states take ~10 MB.
BELIEF_NODES = 512


@dataclass(eq=False)
class SceneRecord:
    """What the episodes of one scene task share: the scene, its start pose,
    its grasp detector, the depth images and fusion plans of its last views
    (`cached_render`), the target grid's IG ray visits, its belief states
    and the counter of their ids."""

    scene: Scene
    start: Pose2
    detector: GraspDetector
    images: dict = field(default_factory=dict)
    ray_visits: dict = field(default_factory=dict)
    nodes: dict = field(default_factory=dict)
    ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))


def scene_record(kind: SceneKind, hard_grasps: bool, seed: int) -> SceneRecord:
    """The record of scene `seed` this process keeps (`_SCENE_VIEWS`), or a
    new one, which generates the scene, samples its start pose and builds its
    detector: once per scene task.  A SceneGenFailure propagates and keeps
    nothing."""
    def make() -> SceneRecord:
        scene = generate_scene(kind, hard_grasps, seed)
        start = sample_start_pose(scene, derive_seed(seed, "start"))
        return SceneRecord(scene, start, GraspDetector(target_grid(scene), scene))

    return keep(_SCENE_VIEWS, (kind, hard_grasps, seed), make, 1)


def target_grid(scene: Scene) -> TsdfGrid:
    """An empty target grid: the fine cube around the target."""
    return TsdfGrid.create_cube(scene.target_center, TARGET_GRID_SIDE, TARGET_GRID_VOXELS)


@dataclass(eq=False)
class BeliefNode:
    """A belief state: its id, and in `kept` (`keep`) the results computed
    on it, each under a key that names what computed it:

    - `("detect", q_th, detect seed)`: `GraspDetector.detect`'s grasps;
    - `"occupancy"`: `project_occupancy`'s map of the nav grid;
    - `"blocked"`: the `inflate_occupied` mask (`Policy._nav`);
    - `("plan", n_b, goal seed, reach radius, epoch, camera seed, camera
      spacing, torso band, robot xy bytes, previous plan)`: an ActPerMoMa
      decision's goal slots, candidate paths and routes (`policies.Plan`);
    - four ints, the start and goal cells: `plan_path`'s route or NoPath
      message (`NavMap.paths`);
    - a pair of a camera's ray-visit key and the target bbox bytes:
      `rear_side_ig_batch`'s count (`TsdfGrid.ig_counts`).

    A key is a str, a tuple led by a str, a tuple of four ints or a pair led
    by a tuple, so no two producers share one.

    Episodes of different policies share a state, though a baseline's
    target grid holds cells only inside the shells' box (`SHELLS_ONLY`).
    What they share does not tell the grids apart: detections read only the
    shell voxels, which fuse bit for bit alike in both grids, and IG counts
    are computed only by the policies that fuse the whole grid."""

    id: int
    kept: dict = field(default_factory=dict)


class Episode:
    """One episode's world and belief: its scene task's `record`, both
    TSDFs, the tracked grasps, the robot, `d_total`, the occupancy `observe`
    last returned and the belief state (`node`).  A policy decides on what
    `observe` returns; `move` drives and `sense`s anew.

    The target grid of a policy in `SHELLS_ONLY` (by `cfg.policy`, so a
    replay fuses what the live run fused) holds cells only inside the
    detector's shells' box (`GraspDetector.shell_box`); every other policy
    fuses it whole."""

    def __init__(self, cfg: RunConfig, record: SceneRecord, policy_seed: int):
        self.cfg, self.record, self.policy_seed = cfg, record, policy_seed
        self.target_tsdf = target_grid(record.scene)
        self.nav_tsdf = TsdfGrid.create(np.array([-ARENA_HALF, -ARENA_HALF, 0.0]), NAV_CELL,
                                        (int(2 * ARENA_HALF / NAV_CELL),
                                         int(2 * ARENA_HALF / NAV_CELL), NAV_Z_VOXELS))
        self.target_tsdf.ray_visits = record.ray_visits
        if cfg.policy in SHELLS_ONLY:
            self.target_tsdf.region = record.detector.shell_box
        self.robot, self.d_total, self.tracked, self.occ = record.start, 0.0, [], None
        self.node = BeliefNode(0)  # the empty grids

    def sense(self, cam: Pose3) -> None:
        """Fuse the depth image seen from `cam` into both grids and move to
        the belief state of this view after the current one: the scene's,
        or a new one with an id no state of the scene had before; the target
        grid keeps its IG counts there."""
        record = self.record
        img = cached_render(record.images, record.scene, cam, DEFAULT_INTRINSICS)
        integrate_depth(self.target_tsdf, img, cam)
        integrate_depth(self.nav_tsdf, img, cam)
        self.node = keep(record.nodes, (self.node.id, (*cam.key(), DEFAULT_INTRINSICS)),
                         lambda: BeliefNode(next(record.ids)), BELIEF_NODES)
        self.target_tsdf.ig_counts = self.node.kept

    def observe(self, step_index: int) -> Belief:
        """Detect grasps, track their stability and project the occupancy,
        once per belief state: the belief of step `step_index`."""
        kept, q_th, scene = self.node.kept, self.cfg.planner.q_th, self.record.scene
        seed = derive_seed(self.policy_seed, "detect", step_index)
        raw = keep(kept, ("detect", q_th, seed),
                   lambda: tuple(self.record.detector.detect(self.target_tsdf, q_th, seed)))
        self.tracked = update_stability(self.tracked, raw)
        self.occ = keep(kept, "occupancy",
                        lambda: project_occupancy(self.nav_tsdf, NAV_HEIGHT_BAND))
        stable = [g for g in self.tracked if g.stable_for >= self.cfg.planner.n_stab]
        return Belief(robot=self.robot, target_tsdf=self.target_tsdf, occ=self.occ,
                      stable_grasps=stable, target_center=scene.target_center,
                      target_bbox=scene.target_bbox, step_index=step_index,
                      intr=DEFAULT_INTRINSICS, node=self.node)

    def move(self, base: Pose2, cam: Pose3) -> CellState:
        """Drive to `base` and sense from `cam`; returns the observed state of
        the cell moved onto, which must not be occupied (PolicySafetyError)."""
        cell_state = state_at(self.occ, base.xy)
        if cell_state == CellState.OCCUPIED:
            raise PolicySafetyError(f"{self.cfg.policy.value} stepped into an occupied "
                                    f"cell at ({base.x:.2f}, {base.y:.2f})")
        self.d_total += float(np.linalg.norm(base.xy - self.robot.xy))
        self.robot = base
        self.sense(cam)
        return cell_state


def run_episode_traced(cfg: RunConfig, episode_index: int
                       ) -> tuple[EpisodeResult, list[dict]]:
    """Run one episode and return its result plus the per-step trace records.

    This loop owns the step budget: step `cfg.planner.max_steps` only detects
    and tracks grasps, then ends the episode with a "step budget exhausted"
    abort record, without asking the policy.  Every earlier step either moves
    the robot once or ends the episode, so `steps` is the number of moves and
    `v_total` (views integrated, the start view included) is `steps + 1`."""
    scene_seed = cfg.base_seed + episode_index
    policy_seed = derive_seed(cfg.base_seed, episode_index, "policy")
    maps = build_map_pair()
    trace: list[dict] = []
    occupancy: dict = {}
    try:
        record = scene_record(cfg.scenario, cfg.hard_grasps, scene_seed)
    except SceneGenFailure as e:  # the trace is the result record alone
        outcome, reason, step_index, d_total = Outcome.ABORT, f"scene generation: {e}", 0, 0.0
    else:
        scene, start = record.scene, record.start
        policy = make_policy(cfg.policy, cfg.planner, policy_seed, maps)
        ep = Episode(cfg, record, policy_seed)
        trace.append({"type": "meta", "scene": scene_to_dict(scene),
                      "start": [start.x, start.y, start.theta],
                      "policy": cfg.policy.value, "scene_seed": scene_seed,
                      "policy_seed": policy_seed, "config_hash": config_hash(cfg)})
        ep.sense(camera_at(start.xy, scene.target_center, policy.cam_seed,
                           cfg.planner.torso_band))
        for step_index in range(cfg.planner.max_steps + 1):
            belief = ep.observe(step_index)
            rec = {"type": "step", "step": step_index,
                   "robot": [ep.robot.x, ep.robot.y, ep.robot.theta],
                   "grasps": [{"step": step_index, "voxel": list(g.voxel),
                               "quality": round(g.quality, 6),
                               "stable_for": g.stable_for} for g in belief.stable_grasps]}
            if step_index == cfg.planner.max_steps:
                decision = Abort("step budget exhausted")
            else:
                decision = policy.decide(belief)
                rec.update(policy.last_trace)
                policy.last_trace = {}
            if isinstance(decision, MoveStep):
                base = decision.base
                rec["action"] = {"kind": "move", "to": [base.x, base.y, base.theta],
                                 "cell_state": int(ep.move(base, decision.cam))}
            elif isinstance(decision, Abort):
                rec["action"] = {"kind": "abort", "reason": decision.reason}
                outcome, reason = Outcome.ABORT, decision.reason
            else:
                g = decision.grasp
                rec["action"] = {"kind": "execute",
                                 "grasp": {"voxel": list(g.voxel), "quality": g.quality,
                                           "position": [*map(float, g.pose.position)],
                                           "arm": g.arm.value}}
                succeeded = execute_grasp(scene, g, ep.robot, maps) is GraspOutcome.SUCCEEDED
                outcome = Outcome.SUCCESS if succeeded else Outcome.GRASP_FAILURE
                reason = ""
            trace.append(rec)
            if not isinstance(decision, MoveStep):
                break
        # the step that ended the episode sensed nothing after `observe`
        d_total, occ = ep.d_total, ep.occ
        occupancy["occupancy"] = {"dims": list(occ.dims), "origin": [*map(float, occ.origin)],
                                  "cell_size": occ.cell_size, "rle": cells_to_rle(occ.cells)}
    result = EpisodeResult(outcome, d_total, step_index + 1, step_index, scene_seed,
                           policy_seed, cfg.policy, reason)
    trace.append({"type": "result", **asdict(result), **occupancy})
    return result, trace


def _read_result(path: Path) -> EpisodeResult:
    """Decode the result record that ends an episode trace file, its fields
    read as `run_config_from_dict` reads a config's; a record cut short, of
    another type, or lacking or mistyping a field is refused (ValueError
    naming the file)."""
    try:
        rec = json.loads(path.read_text().strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise ValueError(f"truncated episode trace {path}: {e}") from None
    if not isinstance(rec, dict) or rec.get("type") != "result":
        raise ValueError(f"episode trace {path} does not end in a result record")
    names = {f.name for f in fields(EpisodeResult)}
    try:
        return _typed("result", {k: v for k, v in rec.items() if k in names}, EpisodeResult)
    except (TypeError, ValueError) as e:  # a TypeError names a missing field
        raise ValueError(f"episode trace {path}: {e}") from None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsSummary:
    sr: float
    ar: float
    gfr: float
    d_mean: float
    d_std: float
    v_mean: float
    v_std: float

    def row(self) -> list[float]:
        return [self.sr, self.ar, self.gfr, self.d_mean, self.d_std,
                self.v_mean, self.v_std]


def summarize(results: list[EpisodeResult]) -> MetricsSummary:
    """Outcome percentages plus mean/sample-std of distance and view counts."""
    if not results:
        raise ValueError("no episodes to summarize")
    n = len(results)
    counts = {o: 0 for o in Outcome}
    for r in results:
        counts[r.outcome] += 1
    d = np.array([r.d_total for r in results], dtype=float)
    v = np.array([r.v_total for r in results], dtype=float)

    def sstd(x: np.ndarray) -> float:
        return float(np.std(x, ddof=1)) if len(x) > 1 else 0.0

    return MetricsSummary(
        sr=100.0 * counts[Outcome.SUCCESS] / n,
        ar=100.0 * counts[Outcome.ABORT] / n,
        gfr=100.0 * counts[Outcome.GRASP_FAILURE] / n,
        d_mean=float(d.mean()), d_std=sstd(d),
        v_mean=float(v.mean()), v_std=sstd(v),
    )


# ---------------------------------------------------------------------------
# statistical comparison
# ---------------------------------------------------------------------------

class Verdict(str, Enum):
    A_BETTER = "a_better"
    B_BETTER = "b_better"
    INCONCLUSIVE = "inconclusive"


_RATE_METRICS = {"sr": (Outcome.SUCCESS, True), "ar": (Outcome.ABORT, False),
                 "gfr": (Outcome.GRASP_FAILURE, False)}
_SOLVED_METRICS = {"d": "d_total", "v": "v_total"}
ALPHA = 0.05  # two-sided significance level of `compare`


def sign_test_p(a_wins: int, b_wins: int) -> float:
    """Two-sided exact binomial tail at p = 1/2 of an `a_wins`:`b_wins` split."""
    n = a_wins + b_wins
    tail = sum(math.comb(n, k) for k in range(min(a_wins, b_wins) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def _by_scene(results: list[EpisodeResult], side: str) -> dict[int, EpisodeResult]:
    seen: set[int] = set()
    repeated: set[int] = set()
    for r in results:
        (repeated if r.scene_seed in seen else seen).add(r.scene_seed)
    if repeated:
        raise ValueError(f"{side} repeats scene seeds {sorted(repeated)}")
    return {r.scene_seed: r for r in results}


def compare(a: list[EpisodeResult], b: list[EpisodeResult],
            metric: str) -> tuple[Verdict, int, int]:
    """Which side is significantly better at ALPHA on a metric, with the
    per-scene wins of each side.  Episodes pair by `scene_seed`, so both
    sides must hold the same scenes once each (ValueError naming the seeds).

    sr is higher-better and ar/gfr lower-better: a side wins a scene when its
    outcome indicator is better (McNemar's discordant pairs).  d/v count only
    the scenes both sides solve; the lower value wins and ties are dropped.
    The wins go to an exact two-sided sign test, so no split of fewer than 6
    decisive scenes is significant."""
    if metric not in _RATE_METRICS and metric not in _SOLVED_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    by_a, by_b = _by_scene(a, "a"), _by_scene(b, "b")
    if by_a.keys() != by_b.keys():
        raise ValueError(f"a and b hold different scenes: only in a "
                         f"{sorted(by_a.keys() - by_b.keys())}, only in b "
                         f"{sorted(by_b.keys() - by_a.keys())}")
    pairs = [(by_a[s], by_b[s]) for s in sorted(by_a)]
    if metric in _RATE_METRICS:
        outcome, higher_better = _RATE_METRICS[metric]
        keys = [((ra.outcome is outcome) == higher_better,
                 (rb.outcome is outcome) == higher_better) for ra, rb in pairs]
    else:
        attr = _SOLVED_METRICS[metric]
        keys = [(-getattr(ra, attr), -getattr(rb, attr)) for ra, rb in pairs
                if ra.outcome is rb.outcome is Outcome.SUCCESS]
    a_wins = sum(ka > kb for ka, kb in keys)
    b_wins = sum(kb > ka for ka, kb in keys)
    if sign_test_p(a_wins, b_wins) > ALPHA:
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.A_BETTER if a_wins > b_wins else Verdict.B_BETTER
    return verdict, a_wins, b_wins


# ---------------------------------------------------------------------------
# batch experiments
# ---------------------------------------------------------------------------

CSV_HEADER = ["policy", "scenario", "hard", "sr", "ar", "gfr",
              "d_mean", "d_std", "v_mean", "v_std", "config_hash"]


def default_workers() -> int:
    """Pool size when none is given: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# numpy's wheels rename OpenBLAS's API with a `scipy_` prefix; ILP64 builds
# append `64_`
_OPENBLAS_PREFIXES = ("scipy_openblas", "openblas")
_OPENBLAS_SUFFIXES = ("64_", "")


def _blas_symbol(*names: str):
    """The first of `names` that numpy's BLAS exports, or None."""
    try:
        # a handle on numpy's core extension also resolves the symbols of the
        # BLAS it links, wherever that library lives
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def _openblas_function(verb: str):
    """numpy's OpenBLAS `<verb>_num_threads` function ("set" or "get"), or None
    when numpy's BLAS is not OpenBLAS (MKL, Accelerate)."""
    return _blas_symbol(*(f"{prefix}_{verb}_num_threads{suffix}"
                          for prefix in _OPENBLAS_PREFIXES for suffix in _OPENBLAS_SUFFIXES))


def _one_blas_thread() -> None:
    """Pool-worker initializer: run BLAS on one thread.  Each worker already
    has a CPU, so BLAS threads of its own would only oversubscribe the CPUs.
    The thread-count environment variables are read when numpy loads, before
    a forked worker starts, so the count is set through the library itself."""
    setter = _openblas_function("set")
    if setter is None:
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)
    # in a forked worker the setter restarts OpenBLAS's server thread, which
    # gets no work at one thread yet busy-waits ~0.1 s of CPU before it
    # sleeps; stop it, as OpenBLAS's own pre-fork handler does
    shutdown = _blas_symbol("blas_thread_shutdown_")
    if shutdown is not None:
        shutdown.argtypes = []
        shutdown.restype = ctypes.c_int
        shutdown()


def _write_atomic(path: Path, lines: Iterable[str]) -> None:
    """Write `lines` to `path` through a dot-prefixed temporary name beside it,
    outside the `ep*.jsonl` and `metrics.csv` names, then `os.replace`: a
    failed write leaves no partial file."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w", newline="") as f:
            f.writelines(lines)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _run_scene(jobs: list[tuple[RunConfig, int]]) -> list:
    """Each `run_episode_traced(cfg, i)`, or its exception, of one scene's
    `jobs`, back to back from an empty `_SCENE_VIEWS`: the later episodes reuse
    what the earlier ones sensed, never what this process ran before."""
    _SCENE_VIEWS.clear()
    out = []
    for cfg, i in jobs:
        try:
            out.append(run_episode_traced(cfg, i))
        except Exception as e:  # fails this episode only
            out.append(e)
    return out


def _run_cells(cfgs: list[RunConfig], workers: int | None,
               cell_dirs: list[Path] | None = None
               ) -> list[list[EpisodeResult] | Exception]:
    """Per cell, its results in index order or its lowest failed episode's
    exception, from one pool shared by every cell; cell c's traces go to
    `cell_dirs[c]/episodes` as their scene's task finishes.  Fewer than one
    worker is refused (ValueError) before anything is written, and every
    `episodes` directory is made before any episode runs.  A task runs one
    scene's episodes of every cell (`_run_scene`), in order of first sight,
    serially too; one that fails whole (`BrokenProcessPool`) fails each.  A
    worker calls the `run_episode_traced` it inherited, so a replacement
    must be importable there."""
    workers = workers if workers is not None else default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    for d in cell_dirs or ():
        (d / "episodes").mkdir(parents=True, exist_ok=True)
    scenes: dict[tuple, list[tuple[int, int]]] = {}
    for c, cfg in enumerate(cfgs):
        for i in range(cfg.episodes):
            key = (cfg.scenario, cfg.hard_grasps, cfg.base_seed + i)
            scenes.setdefault(key, []).append((c, i))
    results: list[list] = [[None] * cfg.episodes for cfg in cfgs]

    def finish(group: list[tuple[int, int]], run) -> None:
        try:
            runs = run()
        except Exception as e:  # the task failed whole
            runs = [e] * len(group)
        for (c, i), ran in zip(group, runs):
            try:
                if isinstance(ran, Exception):
                    raise ran
                result, trace = ran
                if cell_dirs:
                    _write_atomic(cell_dirs[c] / "episodes" / f"ep{i:05d}.jsonl",
                                  (json.dumps(rec, sort_keys=True) + "\n" for rec in trace))
                results[c][i] = result
            except Exception as e:  # fails this episode's cell only
                results[c][i] = e

    if workers > 1 and len(scenes) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(scenes)),
                                 initializer=_one_blas_thread) as pool:
            futures = {pool.submit(_run_scene, [(cfgs[c], i) for c, i in group]): group
                       for group in scenes.values()}
            try:
                for future in as_completed(futures):
                    finish(futures.pop(future), future.result)
            except BaseException:  # e.g. Ctrl-C: run no queued scene
                pool.shutdown(cancel_futures=True)
                raise
    else:
        for group in scenes.values():
            finish(group, lambda: _run_scene([(cfgs[c], i) for c, i in group]))
    return [next((r for r in rows if isinstance(r, Exception)), rows) for rows in results]


def run_cell(cfg: RunConfig, workers: int | None = None) -> list[EpisodeResult]:
    """All episodes of one experiment cell in index order, run as
    `run_experiment` runs a cell, but only returned: this writes no file, and
    traces come from `run_experiment`.  An episode's exception is raised once
    every episode has run."""
    results = _run_cells([cfg], workers)[0]
    if isinstance(results, Exception):
        raise results
    return results


def cell_name(cfg: RunConfig) -> str:
    hard = "_hard" if cfg.hard_grasps else ""
    return f"{cfg.policy.value}_{cfg.scenario.value}{hard}_{config_hash(cfg)[:6]}"


def run_experiment(cells: list[RunConfig], out_dir: str | Path,
                   workers: int | None = None) -> Path:
    """Run every cell into `out_dir`, the one writer of a run directory: each
    `<cell_name>/episodes` directory before any episode runs, each trace as
    its scene's task finishes and metrics.csv once all have, every file
    atomically.

    Writes one CSV row per cell, but runs each distinct config (by
    config_hash) only once: rows that repeat a config reuse its results and
    its cell directory.  All episodes of all cells run on one process pool.
    An exception in an episode fails only its cell: no CSV row, a mention on a
    trailing `# failed cells:` line, and its finished episodes keep their
    traces.  The cost of the shared pool: a worker that dies hard
    (`BrokenProcessPool`, e.g. after an out-of-memory kill) fails every cell
    not finished yet, not just its own."""
    out_dir = Path(out_dir)
    distinct = {config_hash(cfg): cfg for cfg in cells}
    dirs = [out_dir / cell_name(cfg) for cfg in distinct.values()]
    runs = dict(zip(distinct, _run_cells(list(distinct.values()), workers, dirs)))
    csv_text = io.StringIO()
    writer = csv.writer(csv_text)
    writer.writerow(CSV_HEADER)
    failures: list[str] = []
    for cfg in cells:
        results = runs[config_hash(cfg)]
        if isinstance(results, Exception):
            failures.append(f"{cell_name(cfg)}: {results}")
            continue
        m = summarize(results)
        writer.writerow([cfg.policy.value, cfg.scenario.value, int(cfg.hard_grasps),
                         *(f"{x:.6f}" for x in m.row()), config_hash(cfg)])
    if failures:
        csv_text.write("# failed cells: " + "; ".join(failures) + "\n")
    csv_path = out_dir / "metrics.csv"
    _write_atomic(csv_path, [csv_text.getvalue()])
    return csv_path


def load_results_dir(directory: str | Path) -> list[EpisodeResult]:
    """Episode results from a cell directory's episodes/*.jsonl traces, or
    from those of the one cell below a run directory.  A directory with the
    traces of several cells raises ValueError naming their folders, and a
    trace that is truncated, lacks its final result record or holds a
    malformed one raises ValueError naming the file."""
    directory = Path(directory)
    files = sorted((directory / "episodes").glob("ep*.jsonl"))
    if not files:
        files = sorted(directory.glob("**/ep*.jsonl"))
        folders = sorted({str(p.parent.relative_to(directory)) for p in files})
        if len(folders) > 1:
            raise ValueError(f"{directory} holds the traces of {len(folders)} cells, "
                             f"name one: {', '.join(folders)}")
    return [_read_result(path) for path in files]


# ---------------------------------------------------------------------------
# ablation presets
# ---------------------------------------------------------------------------

def ablation_preset(preset: str, episodes: int = 100, base_seed: int = 0
                    ) -> list[RunConfig]:
    """Hyperparameter sweep (8 rows) + ablations (3) + hard grasps (2)."""
    scenario = {"table1": SceneKind.SIMPLE, "table2": SceneKind.COMPLEX}[preset]
    base = RunConfig(scenario=scenario, episodes=episodes, base_seed=base_seed)
    p = base.planner
    cells = [
        replace(base, planner=replace(p, q_th=0.7)),
        replace(base, planner=replace(p, q_th=0.9)),
        replace(base, planner=replace(p, n_stab=1)),
        replace(base, planner=replace(p, n_stab=5)),
        replace(base, planner=replace(p, w_ig=3.0)),
        replace(base, planner=replace(p, w_ig=0.2)),
        replace(base, planner=replace(p, momentum=0.0)),
        replace(base, planner=replace(p, momentum=700.0)),
        base,
        replace(base, policy=PolicyKind.IG_ONLY),
        replace(base, policy=PolicyKind.NO_WEIGHTS),
        replace(base, hard_grasps=True),
        replace(base, hard_grasps=True, policy=PolicyKind.IG_ONLY),
    ]
    return cells
