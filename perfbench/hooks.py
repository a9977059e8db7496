"""Timing hooks installed on actpermoma from outside the package.

Two levels:

* `install_step_hooks` (untraced runs): timestamps at each `Policy.decide`
  entry, grouped per episode by a wrapper on `harness.run_episode_traced`.
* `install_layer_hooks` (traced runs): additionally a span around every
  public function the harness, the policies and the planner call through
  their module attributes, plus exact work counters.

A span is (name, start, end, parent span, episode).  Spans and counters stay
in memory.  Process-pool workers are forked from the benchmark process and
so inherit the hooks; at the end of each episode a worker appends its
episode record to a spill file `<spill_dir>/worker-<pid>.jsonl`, which the
benchmark process reads back once the pool has shut down.
"""

from __future__ import annotations

import functools
import json
import os
import resource
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
from actpermoma import grasping, harness, perception, planning, policies

INSTRUMENT = "bench.instrument"  # benchmark-side work, kept out of self times


class Recorder:
    def __init__(self, spill_dir: Path, layers: bool):
        self.spill_dir = spill_dir
        self.layers = layers
        self.pid = os.getpid()
        self.in_worker = False
        self.episodes: list[dict] = []
        self.cells: list[dict] = []  # run_cell calls, in the benchmark process
        self._reset()
        self._undo: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.episode: str | None = None
        self.decides: list[float] | None = None

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- spans -------------------------------------------------------------

    def add_span(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, start, end, parent, self.episode))

    def span(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                parent = self.stack[-1] if self.stack else -1
                index = len(self.spans)
                self.spans.append(None)
                self.stack.append(index)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self.stack.pop()
                    self.spans[index] = (name, start, end, parent, self.episode)
            return wrapped
        return make

    # -- episode boundary --------------------------------------------------

    def episode_hook(self, fn):
        span = self.span("harness.episode")(fn) if self.layers else fn

        @functools.wraps(fn)
        def wrapped(cfg, episode_index):
            if os.getpid() != self.pid:  # first episode in a forked worker
                self.pid, self.in_worker = os.getpid(), True
                self.episodes = []
                self._reset()
            self.episode = f"{harness.cell_name(cfg)}/{episode_index}"
            self.decides = []
            start = perf_counter()
            try:
                return span(cfg, episode_index)
            finally:
                end = perf_counter()
                record = {"episode": self.episode, "pid": self.pid, "start": start,
                          "end": end, "decides": self.decides,
                          "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
                self.decides = None
                if self.in_worker:
                    record.update(spans=self.spans, counts=dict(self.counts))
                    with open(self.spill_dir / f"worker-{self.pid}.jsonl", "a") as f:
                        f.write(json.dumps(record) + "\n")
                    self._reset()
                else:
                    self.episodes.append(record)
        return wrapped

    def decide_hook(self, fn):
        inner = self.span("policies.decide")(fn) if self.layers else fn

        @functools.wraps(fn)
        def wrapped(policy, belief):
            if self.decides is not None:
                self.decides.append(perf_counter())
            return inner(policy, belief)
        return wrapped

    def collect_spills(self) -> None:
        """Fold worker spill files into this process's records, then delete them."""
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                offset = len(self.spans)
                for name, start, end, parent, episode in record.pop("spans", []):
                    self.spans.append((name, start, end,
                                       parent + offset if parent >= 0 else -1, episode))
                self.counts.update(record.pop("counts", {}))
                self.episodes.append(record)
            path.unlink()

    # -- layer-specific hooks ---------------------------------------------

    def integrate_hook(self, fn):
        spans = {kind: self.span(f"perception.integrate_depth.{kind}")(fn)
                 for kind in ("target", "nav")}
        target_dims = (harness.TARGET_GRID_VOXELS,) * 3

        @functools.wraps(fn)
        def wrapped(tsdf, depth, cam):
            kind = "target" if tuple(tsdf.grid.dims) == target_dims else "nav"
            t0 = perf_counter()
            before = tsdf.grid.cells.copy()
            self.add_span(INSTRUMENT, t0, perf_counter())
            out = spans[kind](tsdf, depth, cam)
            t0 = perf_counter()
            changed = np.any(tsdf.grid.cells != before, axis=-1)
            self.counts[f"integrate_depth.{kind}.voxels"] += changed.size
            self.counts[f"integrate_depth.{kind}.updated"] += int(changed.sum())
            self.add_span(INSTRUMENT, t0, perf_counter())
            return out
        return wrapped

    def traverse_hook(self, fn):
        @functools.wraps(fn)
        def wrapped(grid, origins, directions, t_max):
            # a generator: time only what runs inside each next()
            gen = fn(grid, origins, directions, t_max)
            self.counts["traverse_batch.calls"] += 1
            while True:
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    self.add_span("geom.traverse_batch.next", start, perf_counter())
                    return
                self.add_span("geom.traverse_batch.next", start, perf_counter())
                self.counts["traverse_batch.iterations"] += 1
                self.counts["traverse_batch.voxel_visits"] += int(item[0].size)
                yield item
        return wrapped

    def ig_hook(self, fn):
        inner = self.span("perception.rear_side_ig_batch")(fn)

        @functools.wraps(fn)
        def wrapped(tsdf, cams, intr, target_bbox):
            self.counts["rear_side_ig_batch.cams"] += len(cams)
            return inner(tsdf, cams, intr, target_bbox)
        return wrapped

    def run_cell_hook(self, fn):
        inner = self.span("harness.run_cell")(fn)

        @functools.wraps(fn)
        def wrapped(cfg, workers=None, write_traces=True):
            w = workers if workers is not None else harness.default_workers()
            cell = {"config": harness.config_hash(cfg),
                    "workers": min(w, cfg.episodes) if w > 1 and cfg.episodes > 1 else 0,
                    "start": perf_counter()}
            try:
                return inner(cfg, workers=workers, write_traces=write_traces)
            finally:
                cell["end"] = perf_counter()
                self.cells.append(cell)
        return wrapped


def _policy_classes() -> list[type]:
    return [cls for cls in set(policies._POLICIES.values()) if "decide" in cls.__dict__]


def install_step_hooks(rec: Recorder) -> None:
    rec.patch(harness, "run_episode_traced", rec.episode_hook)
    for cls in _policy_classes():
        rec.patch(cls, "decide", rec.decide_hook)


# (module, attribute, span name) of every call-through the traced run wraps;
# the integrate, traverse, IG, episode, cell and decide hooks are special
LAYER_SPANS = [
    (harness, "generate_scene", "scene.generate_scene"),
    (harness, "sample_start_pose", "scene.sample_start_pose"),
    (harness, "render_depth", "scene.render_depth"),
    (harness, "build_map_pair", "grasping.build_map_pair"),
    (harness, "update_stability", "grasping.update_stability"),
    (harness, "execute_grasp", "grasping.execute_grasp"),
    (harness, "project_occupancy", "perception.project_occupancy"),
    (harness, "camera_at", "planning.camera_at"),
    (grasping.GraspDetector, "__init__", "grasping.detector_init"),
    (grasping.GraspDetector, "detect", "grasping.detect"),
    (perception.TsdfGrid, "state_volume", "perception.state_volume"),
    (policies, "inflate_occupied", "planning.inflate_occupied"),
    (policies, "sample_base_goal_slots", "planning.sample_base_goal_slots"),
    (policies, "plan_path", "planning.plan_path"),
    (policies, "sample_camera_poses", "planning.sample_camera_poses"),
    (policies, "evaluate_paths", "planning.evaluate_paths"),
    (policies, "select_from_utilities", "planning.select_from_utilities"),
    (policies, "best_grasp", "grasping.best_grasp"),
    (policies, "camera_at", "planning.camera_at"),
    (policies, "step", "planning.step"),
    (policies.RouteCache, "path_to", "planning.route_cache.path_to"),
    (planning, "inflate_occupied", "planning.inflate_occupied"),
    (planning, "exec_utility", "grasping.exec_utility"),
    (planning, "camera_at", "planning.camera_at"),
]


def install_layer_hooks(rec: Recorder) -> None:
    for owner, attr, name in LAYER_SPANS:
        rec.patch(owner, attr, rec.span(name))
    rec.patch(harness, "integrate_depth", rec.integrate_hook)
    rec.patch(perception, "traverse_batch", rec.traverse_hook)
    for owner in (policies, planning):
        rec.patch(owner, "rear_side_ig_batch", rec.ig_hook)
    rec.patch(harness, "run_cell", rec.run_cell_hook)
    install_step_hooks(rec)
