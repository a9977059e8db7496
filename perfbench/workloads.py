"""The three benchmark workloads and the passes that run them.

A workload is a fixed list of (RunConfig, episode_index) built from the base
seed and the run length.  Its size grows with --seconds so that one pass of
the unchanged program takes about that long on a 2-CPU machine; a faster
program finishes the same work sooner.  Every RunConfig caps the control-step
budget: uncapped episodes are bimodal (most succeed within ~25 steps, a few
run to the 400-step budget), so without the cap the work a pass holds would
depend on the seed far more than on the program.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
from actpermoma import harness
from actpermoma.harness import EpisodeResult, Outcome, RunConfig
from actpermoma.planning import PlannerConfig
from actpermoma.policies import PolicyKind
from actpermoma.scene import SceneKind

WORKLOADS = ("apm_complex", "baselines_simple", "ablate_table2")
POOLED = {"ablate_table2"}

# control-step budget per workload; the ablation grid keeps episodes short so
# that per-episode set-up (scene, maps, detector, first view) and the pool
# carry weight, which is what that workload stresses
STEP_CAP = {"apm_complex": 20, "baselines_simple": 20, "ablate_table2": 10}

# episodes per second of --seconds (per cell on ablate_table2), measured at
# the benchmark-defining commit
EPISODES_PER_S = {"apm_complex": 2.1, "baselines_simple": 6.5, "ablate_table2": 0.13}

STEP_SIZE_SLACK = 1e-9


def pool_workers() -> int:
    return os.cpu_count() or 1


def _count(name: str, seconds: float) -> int:
    return max(2, math.ceil(EPISODES_PER_S[name] * seconds))


def serial_items(name: str, seed: int, seconds: float
                 ) -> list[tuple[str, RunConfig, int]]:
    """(label, config, episode index) for a serial workload, in run order."""
    planner = PlannerConfig(max_steps=STEP_CAP[name])
    n = _count(name, seconds)
    if name == "apm_complex":
        cfg = RunConfig(planner=planner, scenario=SceneKind.COMPLEX, episodes=n,
                        base_seed=seed, policy=PolicyKind.ACTPERMOMA)
        return [("ActPerMoMa", cfg, i) for i in range(n)]
    if name == "baselines_simple":
        # the two policies take alternate scenes, so a scene that traps both
        # baselines does not weigh twice in one pass
        cfgs = {p: RunConfig(planner=planner, scenario=SceneKind.SIMPLE, episodes=n,
                             base_seed=seed, policy=p)
                for p in (PolicyKind.NAIVE, PolicyKind.RANDOM)}
        return [(p.value, cfgs[p], i) for p in cfgs
                for i in range(p is PolicyKind.RANDOM, n, 2)]
    raise ValueError(f"{name} is not a serial workload")


def ablate_cells(seed: int, seconds: float) -> list[RunConfig]:
    """The table2 ablation preset (13 rows, 11 distinct configs), capped."""
    per_cell = _count("ablate_table2", seconds)
    cells = harness.ablation_preset("table2", episodes=per_cell, base_seed=seed)
    return [replace(c, planner=replace(c.planner, max_steps=STEP_CAP["ablate_table2"]))
            for c in cells]


def episode_keys(name: str, seed: int, seconds: float) -> list[str]:
    if name in POOLED:
        return [f"row{r:02d}/{i}" for r, c in enumerate(ablate_cells(seed, seconds))
                for i in range(c.episodes)]
    return [f"{label}/{i}" for label, _, i in serial_items(name, seed, seconds)]


# ---------------------------------------------------------------------------
# passes: each returns ({key: result}, {key: error text})
# ---------------------------------------------------------------------------

def run_serial(items: list[tuple[str, RunConfig, int]]
               ) -> tuple[dict[str, EpisodeResult], dict[str, str]]:
    results, errors = {}, {}
    for label, cfg, idx in items:
        key = f"{label}/{idx}"
        try:
            results[key], _ = harness.run_episode_traced(cfg, idx)
        except Exception as e:  # an episode that raises counts as failed
            errors[key] = f"{type(e).__name__}: {e}"
    return results, errors


def read_ablate(cells: list[RunConfig], out_dir: Path, crash: str | None
                ) -> tuple[dict[str, EpisodeResult], dict[str, str]]:
    """Episode results of a run_experiment directory, read back from the
    traces as users do.  A cell counts as failed when run_experiment raised
    (`crash`), when metrics.csv flags it, when its row disagrees with its
    traces, or (per episode) when a trace does not replay to its own d_total
    and v_total."""
    results: dict[str, EpisodeResult] = {}
    errors: dict[str, str] = {}
    keys = [[f"row{r:02d}/{i}" for i in range(c.episodes)] for r, c in enumerate(cells)]
    if crash:
        return results, {k: crash for ks in keys for k in ks}
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    failed_line = next((line for line in lines if line.startswith("# failed cells:")), "")
    rows = iter(line.split(",") for line in lines[1:] if not line.startswith("#"))
    for r, cfg in enumerate(cells):
        name = harness.cell_name(cfg)
        if f"{name}: " in failed_line:
            errors.update({k: f"cell {name} failed" for k in keys[r]})
            continue
        row = next(rows, None)
        try:
            loaded = harness.load_results_dir(out_dir / name)
        except Exception as e:
            errors.update({k: f"unreadable traces: {type(e).__name__}: {e}" for k in keys[r]})
            continue
        if len(loaded) != cfg.episodes:
            errors.update({k: f"{len(loaded)} traces for {cfg.episodes} episodes"
                           for k in keys[r]})
            continue
        m = harness.summarize(loaded)
        if row != [cfg.policy.value, cfg.scenario.value, str(int(cfg.hard_grasps)),
                   *(f"{x:.6f}" for x in m.row()), harness.config_hash(cfg)]:
            errors.update({k: f"metrics.csv row {r} disagrees with its traces"
                           for k in keys[r]})
            continue
        for i, (k, res) in enumerate(zip(keys[r], loaded)):
            path = out_dir / name / "episodes" / f"ep{i:05d}.jsonl"
            d, v = 0.0, 1
            for rec in map(json.loads, path.read_text().splitlines()):
                action = rec.get("action", {})
                if action.get("kind") == "move":
                    d += float(np.linalg.norm(np.array(action["to"][:2])
                                              - np.array(rec["robot"][:2])))
                    v += 1
            if (d, v) == (res.d_total, res.v_total):
                results[k] = res
            else:
                errors[k] = f"trace replays to d={d}, v={v}"
    return results, errors


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def result_row(r: EpisodeResult) -> list:
    return [r.outcome.value, r.steps, r.d_total, r.v_total]


def invariant_errors(r: EpisodeResult, max_steps: int, step_size: float) -> list[str]:
    """Checks any episode result must pass, pinned or not."""
    out = []
    if not 0 <= r.steps <= max_steps:
        out.append(f"steps {r.steps} outside [0, {max_steps}]")
    if r.v_total != r.steps + 1:
        out.append(f"v_total {r.v_total} != steps + 1")
    if not 0.0 <= r.d_total <= r.steps * step_size + STEP_SIZE_SLACK:
        out.append(f"d_total {r.d_total} exceeds {r.steps} steps of {step_size} m")
    if r.outcome is not Outcome.ABORT and r.abort_reason:
        out.append("abort reason on a non-abort outcome")
    return out
