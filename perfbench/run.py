"""actpermoma benchmark: one fixed-work pass of a workload, checked and timed.

    python3 perfbench/run.py --workload apm_complex --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced and traced

--trace 0 measures the end-to-end metrics with only the step hooks installed
(Policy.decide entry and the episode boundary): set-up time, episodes per
second, control-step latency and peak memory.  --trace 1 runs the same pass
twice, first with the step hooks and then with a span around every layer
call, and reports the per-layer metrics plus the tracing overhead.

Correctness: every episode's (outcome, steps, d_total, v_total) must equal
the serial reference pinned in reference.json for this seed (pooled runs
therefore equal serial runs), pass invariants that hold for any seed, and,
under --trace 1, equal the untraced pass.  On ablate_table2 the metrics.csv
rows must agree with the traces and each trace must replay to its d_total.
An episode that raises, mismatches or sits in a `# failed cells` cell counts
as failed.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  The full record (environment, sample counts, per-episode
results, exact work counts) goes to perfbench/out/, and under --trace 1 the
spans too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "ACTPERMOMA_THREADS")


def fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "actpermoma" / "__init__.py").is_file():
    fail_setup(f"no actpermoma sources under {ROOT / 'src'}")
# metric names and units come from the benchmark definition
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import actpermoma  # noqa: E402

if Path(actpermoma.__file__).resolve().parent != ROOT / "src" / "actpermoma":
    fail_setup(f"actpermoma imported from {actpermoma.__file__}, not from this checkout")

import hooks  # noqa: E402
import workloads  # noqa: E402
from actpermoma import harness, planning  # noqa: E402
from actpermoma.harness import EpisodeResult  # noqa: E402


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except Exception as e:  # older numpy has no dict mode
        blas_build = f"unknown ({type(e).__name__})"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas_build, "commit": commit,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    wall_s: float
    rec: hooks.Recorder
    results: dict[str, EpisodeResult] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    trace_bytes: int = 0
    trace_files: int = 0
    peak_rss_kb: float = 0.0


def run_pass(name: str, seed: int, seconds: float, tmp: Path, layers: bool,
             workers: int) -> Pass:
    """One timed pass over the workload's fixed episode list."""
    pooled = name in workloads.POOLED
    if pooled:
        cells = workloads.ablate_cells(seed, seconds)
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp))
    else:
        items = workloads.serial_items(name, seed, seconds)
    # start every pass with the camera-pose cache a fresh process has, or the
    # second pass of a traced run would replay the first pass's poses
    getattr(planning, "_CAMERA_CACHE", {}).clear()
    rec = hooks.Recorder(Path(tempfile.mkdtemp(prefix="spill-", dir=tmp)), layers)
    (hooks.install_layer_hooks if layers else hooks.install_step_hooks)(rec)
    crash = None
    try:
        start = perf_counter()
        if pooled:
            try:
                harness.run_experiment(cells, run_dir, workers=workers)
            except Exception as e:  # every episode of the run counts as failed
                crash = f"run_experiment: {type(e).__name__}: {e}"
        else:
            results, errors = workloads.run_serial(items)
        wall = perf_counter() - start
    finally:
        rec.uninstall()
    rec.collect_spills()
    shutil.rmtree(rec.spill_dir)
    p = Pass(wall, rec)
    worker_kb: dict[int, int] = {}
    for ep in rec.episodes:
        if ep["pid"] != os.getpid():
            worker_kb[ep["pid"]] = max(worker_kb.get(ep["pid"], 0), ep["maxrss_kb"])
    # each cell starts its own pool, so at most `workers` workers live at once:
    # add the largest `workers` worker peaks to this process's peak
    p.peak_rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     + sum(sorted(worker_kb.values())[-workers:]))
    if not pooled:
        p.results, p.errors = results, errors
        return p
    if workers > 1 and not worker_kb:
        raise RuntimeError("no episode records from the pool workers: they did not "
                           "inherit the hooks (the pool needs the fork start method)")
    p.results, p.errors = workloads.read_ablate(cells, run_dir, crash)
    files = list(run_dir.glob("*/episodes/ep*.jsonl"))
    p.trace_files = len(files)
    p.trace_bytes = sum(f.stat().st_size for f in files)
    shutil.rmtree(run_dir)
    return p


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def check(name: str, seed: int, seconds: float, passes: list[Pass],
          pinned: dict | None) -> dict[str, str]:
    """Failure reason per failed episode key."""
    keys = workloads.episode_keys(name, seed, seconds)
    cap, step_size = workloads.STEP_CAP[name], workloads.PlannerConfig().step_size
    failed: dict[str, str] = {}
    first = passes[0].results
    for k in keys:
        for i, p in enumerate(passes):
            if k in p.errors:
                failed[k] = p.errors[k]
            elif k not in p.results:
                failed[k] = "no result"
            elif problems := workloads.invariant_errors(p.results[k], cap, step_size):
                failed[k] = "; ".join(problems)
            elif pinned is not None and k in pinned and \
                    workloads.result_row(p.results[k]) != pinned[k]:
                failed[k] = (f"pass {i}: {workloads.result_row(p.results[k])} != "
                             f"pinned {pinned[k]}")
            elif k in first and \
                    workloads.result_row(p.results[k]) != workloads.result_row(first[k]):
                failed[k] = "traced result differs from untraced result"
            if k in failed:
                break
    return failed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def step_intervals_ms(rec: hooks.Recorder) -> list[float]:
    out = []
    for ep in rec.episodes:
        t = ep["decides"]
        out.extend(1000.0 * (b - a) for a, b in zip(t, t[1:]))
    return out


def setup_seconds(name: str, seed: int, seconds: float, tmp: Path) -> list[float]:
    values = []
    for _ in range(SETUP_PROBES):
        probe_tmp = Path(tempfile.mkdtemp(prefix="probe-", dir=tmp))
        start = perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed),
                               str(seconds), str(probe_tmp)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        shutil.rmtree(probe_tmp)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        values.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return values


def end_to_end(p: Pass, setup: list[float]) -> tuple[dict[str, float], dict]:
    steps = step_intervals_ms(p.rec)
    p50, p95 = (float(q) for q in np.percentile(steps, [50, 95])) if steps else (0.0, 0.0)
    metrics = {"setup_s": statistics.median(setup),
               "episodes_per_s": len(p.results) / p.wall_s,
               "step_ms_p50": p50, "step_ms_p95": p95,
               "peak_rss_mb": p.peak_rss_kb / 1024.0}
    samples = {"setup_probes": setup, "step_samples": len(steps),
               "steps_beyond_p95": sum(s > p95 for s in steps),
               "episodes": len(p.results), "pass_wall_s": p.wall_s}
    return metrics, samples


def exact_counts(p: Pass) -> dict[str, int]:
    """Work counts that repeat exactly for the same code, seed and run length."""
    names = Counter(s[0] for s in p.rec.spans)
    c = p.rec.counts
    return {
        "episodes": names["harness.episode"],
        "control_steps": names["policies.decide"],
        "state_volume.calls": names["perception.state_volume"],
        "inflate_occupied.calls": names["planning.inflate_occupied"],
        "route_cache.path_to.calls": names["planning.route_cache.path_to"],
        "plan_path.calls": names["planning.plan_path"],
        "rear_side_ig_batch.calls": names["perception.rear_side_ig_batch"],
        "rear_side_ig_batch.cams": c["rear_side_ig_batch.cams"],
        "traverse_batch.calls": c["traverse_batch.calls"],
        "traverse_batch.iterations": c["traverse_batch.iterations"],
        "traverse_batch.voxel_visits": c["traverse_batch.voxel_visits"],
        "integrate_depth.target.updated": c["integrate_depth.target.updated"],
        "integrate_depth.target.voxels": c["integrate_depth.target.voxels"],
        "integrate_depth.nav.updated": c["integrate_depth.nav.updated"],
        "integrate_depth.nav.voxels": c["integrate_depth.nav.voxels"],
        "trace_bytes": p.trace_bytes,
        "trace_files": p.trace_files,
        "run_cell.calls": len(p.rec.cells),
        "run_cell.distinct_configs": len({cell["config"] for cell in p.rec.cells}),
    }


def per_layer(p: Pass, untraced: Pass, counts: dict[str, int]) -> dict[str, float]:
    spans = p.rec.spans
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    covered = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - covered[i]
        durations[name].append(end - start)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def ms_per_call(name: str, attr: dict = total) -> float:
        return ratio(1000.0 * attr[name], len(durations[name]))

    steps = counts["control_steps"]
    episodes = counts["episodes"]
    decide = np.array(durations["policies.decide"]) * 1000.0
    ig_calls = counts["rear_side_ig_batch.calls"]

    # pooled cells: worker episodes that ran inside each cell's wall interval
    busy = capacity = tail_idle = 0.0
    for cell in p.rec.cells:
        if not cell["workers"]:
            continue
        eps = [e for e in p.rec.episodes if e["pid"] != os.getpid()
               and cell["start"] <= e["start"] and e["end"] <= cell["end"]]
        busy += sum(e["end"] - e["start"] for e in eps)
        capacity += cell["workers"] * (cell["end"] - cell["start"])
        last_end = max((e["end"] for e in eps), default=cell["end"])
        per_worker: dict[int, float] = {}
        for e in eps:
            per_worker[e["pid"]] = max(per_worker.get(e["pid"], 0.0), e["end"])
        tail_idle += sum(last_end - t for t in per_worker.values())
    cells = p.rec.cells

    return {
        "geom.traverse_batch.ms_per_call":
            ratio(1000.0 * total["geom.traverse_batch.next"], counts["traverse_batch.calls"]),
        "geom.traverse_batch.iterations_per_call":
            ratio(counts["traverse_batch.iterations"], counts["traverse_batch.calls"]),
        "geom.traverse_batch.voxel_visits_per_call":
            ratio(counts["traverse_batch.voxel_visits"], counts["traverse_batch.calls"]),
        "perception.rear_side_ig_batch.calls_per_step": ratio(ig_calls, steps),
        "perception.rear_side_ig_batch.ms_per_call":
            ms_per_call("perception.rear_side_ig_batch"),
        "perception.rear_side_ig_batch.self_ms_per_call":
            ms_per_call("perception.rear_side_ig_batch", self_time),
        "perception.rear_side_ig_batch.cams_per_call":
            ratio(counts["rear_side_ig_batch.cams"], ig_calls),
        "perception.rear_side_ig_batch.ms_per_cam":
            ratio(1000.0 * total["perception.rear_side_ig_batch"],
                  counts["rear_side_ig_batch.cams"]),
        "perception.integrate_depth.target.ms_per_call":
            ms_per_call("perception.integrate_depth.target"),
        "perception.integrate_depth.target.useful_ratio":
            ratio(counts["integrate_depth.target.updated"],
                  counts["integrate_depth.target.voxels"]),
        "perception.integrate_depth.nav.ms_per_call":
            ms_per_call("perception.integrate_depth.nav"),
        "perception.integrate_depth.nav.useful_ratio":
            ratio(counts["integrate_depth.nav.updated"], counts["integrate_depth.nav.voxels"]),
        "scene.render_depth.ms_per_call": ms_per_call("scene.render_depth"),
        "perception.state_volume.calls_per_step": ratio(counts["state_volume.calls"], steps),
        "perception.state_volume.ms_per_call": ms_per_call("perception.state_volume"),
        "perception.project_occupancy.ms_per_call": ms_per_call("perception.project_occupancy"),
        "grasping.detect.ms_per_call": ms_per_call("grasping.detect"),
        "planning.inflate_occupied.calls_per_step":
            ratio(counts["inflate_occupied.calls"], steps),
        "planning.inflate_occupied.ms_per_call": ms_per_call("planning.inflate_occupied"),
        "planning.sample_base_goal_slots.ms_per_call":
            ms_per_call("planning.sample_base_goal_slots"),
        "planning.sample_camera_poses.ms_per_call": ms_per_call("planning.sample_camera_poses"),
        "planning.plan_path.ms_per_call": ms_per_call("planning.plan_path"),
        "planning.route_cache.hit_ratio":
            ratio(counts["route_cache.path_to.calls"] - counts["plan_path.calls"],
                  counts["route_cache.path_to.calls"]),
        "planning.evaluate_paths.self_ms_per_call":
            ms_per_call("planning.evaluate_paths", self_time),
        "planning.select_from_utilities.ms_per_call":
            ms_per_call("planning.select_from_utilities"),
        "grasping.exec_utility.ms_per_call": ms_per_call("grasping.exec_utility"),
        "policies.decide.ms_p50": float(np.percentile(decide, 50)) if steps else 0.0,
        "policies.decide.ms_p95": float(np.percentile(decide, 95)) if steps else 0.0,
        "policies.decide.self_ms_per_call": ms_per_call("policies.decide", self_time),
        "scene.generate_scene.ms_per_episode":
            ratio(1000.0 * total["scene.generate_scene"], episodes),
        "grasping.build_map_pair.ms_per_episode":
            ratio(1000.0 * total["grasping.build_map_pair"], episodes),
        "grasping.detector_init.ms_per_episode":
            ratio(1000.0 * total["grasping.detector_init"], episodes),
        "harness.episode.self_ms_per_step": ratio(1000.0 * self_time["harness.episode"], steps),
        "harness.trace_bytes_per_episode": ratio(counts["trace_bytes"], counts["trace_files"]),
        "harness.pool.busy_ratio": ratio(busy, capacity),
        "harness.pool.tail_idle_s": tail_idle,
        "harness.run_cell.ms_per_cell":
            ratio(1000.0 * sum(c["end"] - c["start"] for c in cells), len(cells)),
        "harness.cells.distinct_ratio":
            ratio(counts["run_cell.distinct_configs"], counts["run_cell.calls"]) if cells
            else 1.0,
        "bench.trace_overhead_s": p.wall_s - untraced.wall_s,
        "bench.trace_overhead_ratio": ratio(p.wall_s - untraced.wall_s, untraced.wall_s),
    }


def write_spans(path: Path, spans: list[tuple]) -> None:
    with path.open("w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float) -> None:
    """Every workload untraced, then traced, each in a fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                   str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                                  capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), done.stderr, sep="\n", flush=True)
            if done.returncode != 0:
                sys.exit(f"{name} --trace {trace} exited with {done.returncode}")
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            if trace == 0:
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
            summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    name, seed, seconds = args.workload, args.seed, args.seconds
    if name == "all":
        run_all(seed, seconds)
        return

    env = environment()
    print("environment:", json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    workers = workloads.pool_workers()
    reference = load_reference().get("workloads", {}).get(name, {}).get(str(seed))
    pinned = reference["results"] if reference else None
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": args.trace,
                    "environment": env, "workers": workers if name in workloads.POOLED else 1}
    try:
        if args.trace:
            untraced = run_pass(name, seed, seconds, tmp, False, workers)
            traced = run_pass(name, seed, seconds, tmp, True, workers)
            passes = [untraced, traced]
            counts = exact_counts(traced)
            metrics = per_layer(traced, untraced, counts)
            units = PER_LAYER
            record["exact_counts"] = counts
            if reference and reference.get("seconds") == seconds:
                moved = {k: [reference["counts"].get(k), v] for k, v in counts.items()
                         if reference["counts"].get(k) != v}
                record["counts_vs_pinned"] = moved
                print("exact work counts vs pinned:",
                      "identical" if not moved else json.dumps(moved, sort_keys=True))
            record["walls_s"] = {"untraced": untraced.wall_s, "traced": traced.wall_s}
            write_spans(OUT / f"{name}-seed{seed}-spans.jsonl", traced.rec.spans)
        else:
            setup = setup_seconds(name, seed, seconds, tmp)
            p = run_pass(name, seed, seconds, tmp, False, workers)
            passes = [p]
            metrics, samples = end_to_end(p, setup)
            units = END_TO_END
            record["samples"] = samples
            print(f"step latency samples: {samples['step_samples']} "
                  f"({samples['steps_beyond_p95']} beyond p95)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    failed = check(name, seed, seconds, passes, pinned)
    attempted = len(workloads.episode_keys(name, seed, seconds))
    record.update(metrics=metrics, failed=failed, attempted=attempted,
                  pinned_reference=pinned is not None,
                  results={k: workloads.result_row(r) for k, r in passes[-1].results.items()})
    (OUT / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(f"reference pinned for seed {seed}: {'yes' if pinned is not None else 'no'}")
    for k, why in sorted(failed.items()):
        print(f"FAILED {k}: {why}")
    print(f"fail_ratio = {len(failed) / attempted} ({len(failed)}/{attempted} episodes)")
    for k, v in metrics.items():
        print(f"{k} = {v} {units[k]}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
