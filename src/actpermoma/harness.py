"""Episode orchestration, metrics, batch experiments and statistical checks.

An episode is: generate a scene, spawn the robot, integrate the first view,
then loop sense -> detect -> decide -> act until the policy grasps, aborts,
or runs out of steps.  Everything is a pure function of (config, episode
index), so episodes parallelize freely and reruns are bit-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .geom import CellState, Pose2
from .grasping import (
    GraspDetector,
    GraspOutcome,
    build_map_pair,
    execute_grasp,
    update_stability,
)
from .perception import TsdfGrid, integrate_depth, project_occupancy
from .planning import PlannerConfig, camera_at
from .policies import Abort, Belief, ExecuteGrasp, MoveStep, PolicyKind, make_policy
from .scene import (
    ARENA_HALF,
    DEFAULT_INTRINSICS,
    Scene,
    SceneGenFailure,
    SceneKind,
    generate_scene,
    render_depth,
    sample_start_pose,
    scene_to_json,
)
from .seeding import derive_seed

# belief grids: a fine cube around the target for grasping/IG and a coarse
# whole-arena grid for navigation
TARGET_GRID_SIDE = 0.6
TARGET_GRID_VOXELS = 40
NAV_CELL = 0.1
NAV_Z_VOXELS = 12
NAV_HEIGHT_BAND = (0.15, 1.05)


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
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")


def config_hash(cfg: RunConfig) -> str:
    doc = json.dumps(asdict(replace(cfg, output_dir=None)), sort_keys=True, default=str)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


_RUNCONFIG_KEYS = {f.name for f in fields(RunConfig)}
_PLANNER_KEYS = {f.name for f in fields(PlannerConfig)}


def run_config_from_dict(doc: dict) -> RunConfig:
    """Strict deserialization: unknown keys are rejected."""
    unknown = set(doc) - _RUNCONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    planner_doc = dict(doc.get("planner", {}))
    unknown = set(planner_doc) - _PLANNER_KEYS
    if unknown:
        raise ValueError(f"unknown planner keys: {sorted(unknown)}")
    if "torso_band" in planner_doc:
        planner_doc["torso_band"] = tuple(planner_doc["torso_band"])
    kwargs = {k: v for k, v in doc.items() if k != "planner"}
    if "scenario" in kwargs:
        kwargs["scenario"] = SceneKind(kwargs["scenario"])
    if "policy" in kwargs:
        kwargs["policy"] = PolicyKind(kwargs["policy"])
    return RunConfig(planner=PlannerConfig(**planner_doc), **kwargs)


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------

def _occupancy_rle(cells: np.ndarray) -> str:
    flat = cells.T.reshape(-1)  # x-fastest
    out = []
    run_val = int(flat[0])
    run_len = 0
    for v in flat:
        if int(v) == run_val:
            run_len += 1
        else:
            out.append(f"{run_val}x{run_len}")
            run_val, run_len = int(v), 1
    out.append(f"{run_val}x{run_len}")
    return ",".join(out)


def run_episode_traced(cfg: RunConfig, episode_index: int
                       ) -> tuple[EpisodeResult, list[dict]]:
    """Run one episode and return its result plus the per-step trace records."""
    scene_seed = cfg.base_seed + episode_index
    policy_seed = derive_seed(cfg.base_seed, episode_index, "policy")
    maps = build_map_pair()
    trace: list[dict] = []

    try:
        scene = generate_scene(cfg.scenario, cfg.hard_grasps, scene_seed)
        start = sample_start_pose(scene, derive_seed(scene_seed, "start"))
    except SceneGenFailure as e:
        result = EpisodeResult(Outcome.ABORT, 0.0, 1, 0, scene_seed, policy_seed,
                               cfg.policy, abort_reason=f"scene generation: {e}")
        return result, [{"type": "result", **_result_dict(result)}]

    policy = make_policy(cfg.policy, cfg.planner, policy_seed, maps)
    intr = DEFAULT_INTRINSICS
    target_tsdf = TsdfGrid.create_cube(scene.target_center, TARGET_GRID_SIDE,
                                       TARGET_GRID_VOXELS)
    nav_tsdf = TsdfGrid.create(np.array([-ARENA_HALF, -ARENA_HALF, 0.0]), NAV_CELL,
                               (int(2 * ARENA_HALF / NAV_CELL),
                                int(2 * ARENA_HALF / NAV_CELL), NAV_Z_VOXELS))
    detector = GraspDetector(target_tsdf, scene)

    trace.append({"type": "meta", "scene": json.loads(scene_to_json(scene)),
                  "start": [start.x, start.y, start.theta],
                  "policy": cfg.policy.value, "scene_seed": scene_seed,
                  "policy_seed": policy_seed, "config_hash": config_hash(cfg)})

    def integrate_view(base: Pose2, cam=None) -> None:
        cam = cam or camera_at(base.xy, scene.target_center, policy.cam_seed,
                               cfg.planner.torso_band)
        img = render_depth(scene, cam, intr)
        integrate_depth(target_tsdf, img, cam)
        integrate_depth(nav_tsdf, img, cam)

    robot = start
    integrate_view(robot)
    v_total = 1
    d_total = 0.0
    moves = 0
    tracked: list = []
    outcome = Outcome.ABORT
    abort_reason = "step budget exhausted"

    for step_index in range(cfg.planner.max_steps + 1):
        raw = detector.detect(target_tsdf, cfg.planner.q_th,
                              derive_seed(policy_seed, "detect", step_index))
        tracked = update_stability(tracked, raw)
        stable = [g for g in tracked if g.stable_for >= cfg.planner.n_stab]
        occ = project_occupancy(nav_tsdf, NAV_HEIGHT_BAND)
        belief = Belief(robot=robot, target_tsdf=target_tsdf, occ=occ,
                        stable_grasps=stable, target_center=scene.target_center,
                        target_bbox=scene.target_bbox, step_index=step_index,
                        intr=intr)
        decision = policy.decide(belief)

        rec = {"type": "step", "step": step_index,
               "robot": [robot.x, robot.y, robot.theta],
               "grasps": [{"step": step_index, "voxel": list(g.voxel),
                           "quality": round(g.quality, 6),
                           "stable_for": g.stable_for} for g in stable]}
        rec.update(policy.last_trace)
        policy.last_trace = {}

        if isinstance(decision, Abort):
            rec["action"] = {"kind": "abort", "reason": decision.reason}
            trace.append(rec)
            outcome = Outcome.ABORT
            abort_reason = decision.reason
            break
        if isinstance(decision, ExecuteGrasp):
            g = decision.grasp
            rec["action"] = {"kind": "execute",
                             "grasp": {"voxel": list(g.voxel), "quality": g.quality,
                                       "position": [*map(float, g.pose.position)],
                                       "arm": decision.arm.value}}
            trace.append(rec)
            exec_out = execute_grasp(scene, g, robot, maps)
            outcome = (Outcome.SUCCESS if exec_out is GraspOutcome.SUCCEEDED
                       else Outcome.GRASP_FAILURE)
            abort_reason = ""
            break
        assert isinstance(decision, MoveStep)
        new_base = decision.base
        cell_state = occ.state_at(new_base.xy)
        if cell_state == CellState.OCCUPIED:
            raise PolicySafetyError(
                f"{cfg.policy.value} stepped into an occupied cell at "
                f"({new_base.x:.2f}, {new_base.y:.2f})")
        displacement = float(np.linalg.norm(new_base.xy - robot.xy))
        rec["action"] = {"kind": "move",
                         "to": [new_base.x, new_base.y, new_base.theta],
                         "cell_state": int(cell_state)}
        trace.append(rec)
        d_total += displacement
        robot = new_base
        integrate_view(robot, decision.cam)
        v_total += 1
        moves += 1

    occ = project_occupancy(nav_tsdf, NAV_HEIGHT_BAND)
    result = EpisodeResult(outcome=outcome, d_total=d_total, v_total=v_total,
                           steps=moves, scene_seed=scene_seed,
                           policy_seed=policy_seed, policy=cfg.policy,
                           abort_reason=abort_reason)
    trace.append({"type": "result", **_result_dict(result),
                  "occupancy": {"dims": list(occ.dims),
                                "origin": [*map(float, occ.origin)],
                                "cell_size": occ.cell_size,
                                "rle": _occupancy_rle(occ.cells)}})
    return result, trace


def _result_dict(r: EpisodeResult) -> dict:
    return {"outcome": r.outcome.value, "d_total": r.d_total, "v_total": r.v_total,
            "steps": r.steps, "scene_seed": r.scene_seed,
            "policy_seed": r.policy_seed, "policy": r.policy.value,
            "abort_reason": r.abort_reason}


def _read_result(path: Path) -> EpisodeResult:
    """Decode the result record that ends an episode trace file."""
    try:
        rec = json.loads(path.read_text().strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise ValueError(f"truncated episode trace {path}: {e}") from None
    if not isinstance(rec, dict) or rec.get("type") != "result":
        raise ValueError(f"episode trace {path} does not end in a result record")
    return EpisodeResult(
        outcome=Outcome(rec["outcome"]), d_total=rec["d_total"], v_total=rec["v_total"],
        steps=rec["steps"], scene_seed=rec["scene_seed"], policy_seed=rec["policy_seed"],
        policy=PolicyKind(rec["policy"]), abort_reason=rec["abort_reason"])


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

class InsufficientSamples(ValueError):
    pass


class Verdict(str, Enum):
    A_BETTER = "a_better"
    B_BETTER = "b_better"
    INCONCLUSIVE = "inconclusive"


_RATE_METRICS = {"sr": (Outcome.SUCCESS, True), "ar": (Outcome.ABORT, False),
                 "gfr": (Outcome.GRASP_FAILURE, False)}
_MEAN_METRICS = {"d": "d_total", "v": "v_total"}
Z_CRIT = 1.959963984540054  # two-sided alpha = 0.05


def two_proportion_z(k1: int, n1: int, k2: int, n2: int) -> float:
    """Pooled two-proportion z statistic with continuity correction (signed)."""
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    if se == 0.0:
        return 0.0
    cc = 0.5 * (1 / n1 + 1 / n2)
    mag = max(abs(p1 - p2) - cc, 0.0) / se
    return math.copysign(mag, p1 - p2) if p1 != p2 else 0.0


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction for the regularized incomplete beta function
    max_it, eps, fpmin = 200, 3e-14, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_it + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < eps:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log1p(-x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    return _betainc(df / 2.0, 0.5, df / (df + t * t))


def welch_t(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    n1, n2 = len(x), len(y)
    v1, v2 = np.var(x, ddof=1), np.var(y, ddof=1)
    se2 = v1 / n1 + v2 / n2
    if se2 == 0.0:
        diff = float(x.mean() - y.mean())
        t = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        return t, float(n1 + n2 - 2)
    t = (x.mean() - y.mean()) / math.sqrt(se2)
    df = se2 ** 2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return float(t), float(df)


def compare(a: list[EpisodeResult], b: list[EpisodeResult], metric: str,
            alpha: float = 0.05) -> Verdict:
    """Which side is significantly better on a metric (sr: higher is better;
    ar/gfr/d/v: lower is better).  Rates use a pooled two-proportion z test,
    d/v use Welch's t test."""
    if len(a) < 30 or len(b) < 30:
        raise InsufficientSamples("need at least 30 episodes per side")
    if metric in _RATE_METRICS:
        outcome, higher_better = _RATE_METRICS[metric]
        k1 = sum(1 for r in a if r.outcome is outcome)
        k2 = sum(1 for r in b if r.outcome is outcome)
        z = two_proportion_z(k1, len(a), k2, len(b))
        if abs(z) <= Z_CRIT:
            return Verdict.INCONCLUSIVE
        a_higher = z > 0
        return Verdict.A_BETTER if a_higher == higher_better else Verdict.B_BETTER
    if metric in _MEAN_METRICS:
        attr = _MEAN_METRICS[metric]
        x = np.array([getattr(r, attr) for r in a], dtype=float)
        y = np.array([getattr(r, attr) for r in b], dtype=float)
        t, df = welch_t(x, y)
        if t == 0.0 or student_t_two_sided_p(t, df) > alpha:
            return Verdict.INCONCLUSIVE
        return Verdict.A_BETTER if t < 0 else Verdict.B_BETTER  # lower is better
    raise ValueError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# batch experiments
# ---------------------------------------------------------------------------

CSV_HEADER = ["policy", "scenario", "hard", "sr", "ar", "gfr",
              "d_mean", "d_std", "v_mean", "v_std", "config_hash"]


def _episode_worker(args: tuple[RunConfig, int]) -> tuple[EpisodeResult, list[dict]]:
    return run_episode_traced(*args)


def default_workers() -> int:
    env = os.environ.get("ACTPERMOMA_THREADS")
    if env:
        return max(int(env), 1)
    return os.cpu_count() or 1


def run_cell(cfg: RunConfig, workers: int | None = None,
             write_traces: bool = True) -> list[EpisodeResult]:
    """All episodes of one experiment cell, parallel over episodes, in index
    order; with an output_dir, each episode's trace is written to
    `episodes/ep<index>.jsonl` (deterministic output)."""
    workers = workers if workers is not None else default_workers()
    jobs = [(cfg, i) for i in range(cfg.episodes)]
    if workers > 1 and cfg.episodes > 1:
        with ProcessPoolExecutor(max_workers=min(workers, cfg.episodes)) as pool:
            rows = list(pool.map(_episode_worker, jobs, chunksize=1))
    else:
        rows = [_episode_worker(j) for j in jobs]

    if cfg.output_dir and write_traces:
        out = Path(cfg.output_dir) / "episodes"
        out.mkdir(parents=True, exist_ok=True)
        for index, (_, trace) in enumerate(rows):
            path = out / f"ep{index:05d}.jsonl"
            path.write_text("\n".join(json.dumps(r, sort_keys=True) for r in trace) + "\n")
    return [result for result, _ in rows]


def cell_name(cfg: RunConfig) -> str:
    hard = "_hard" if cfg.hard_grasps else ""
    return f"{cfg.policy.value}_{cfg.scenario.value}{hard}_{config_hash(cfg)[:6]}"


def run_experiment(cells: list[RunConfig], out_dir: str | Path,
                   workers: int | None = None) -> Path:
    """Run every cell, write metrics.csv plus per-episode JSONL traces.

    Writes one CSV row per cell, but runs each distinct config (by
    config_hash) only once: rows that repeat a config reuse its results and
    its cell directory.  An exception in any episode fails that whole cell:
    it gets no CSV row and is listed on a trailing `# failed cells:` line,
    and the run continues with the next cell."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "metrics.csv"
    failures: list[str] = []
    runs: dict[str, list[EpisodeResult] | Exception] = {}
    with csv_path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for cfg in cells:
            cfg = replace(cfg, output_dir=str(out_dir / cell_name(cfg)))
            key = config_hash(cfg)
            if key not in runs:
                try:
                    runs[key] = run_cell(cfg, workers=workers)
                except Exception as e:  # cell-level failure: flag and continue
                    runs[key] = e
            results = runs[key]
            if isinstance(results, Exception):
                failures.append(f"{cell_name(cfg)}: {results}")
                continue
            m = summarize(results)
            writer.writerow([cfg.policy.value, cfg.scenario.value,
                             int(cfg.hard_grasps),
                             *(f"{x:.6f}" for x in m.row()), config_hash(cfg)])
        if failures:
            f.write("# failed cells: " + "; ".join(failures) + "\n")
    return csv_path


def load_results_dir(directory: str | Path) -> list[EpisodeResult]:
    """Episode results from a run directory's episodes/*.jsonl traces; a
    trace that is truncated or lacks its final result record raises
    ValueError naming the file."""
    directory = Path(directory)
    files = sorted((directory / "episodes").glob("ep*.jsonl"))
    if not files:
        files = sorted(directory.glob("**/ep*.jsonl"))
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
