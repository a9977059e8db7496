from __future__ import annotations

import ctypes
import functools
import gc
import json
import math
import re
import time
import weakref
from collections import Counter
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import actpermoma.harness as harness
from actpermoma import perception, planning, policies
from actpermoma.geom import CellState, Grid, Pose2, look_at
from actpermoma.grasping import GraspDetector, build_map_pair
from actpermoma.harness import (
    Episode,
    EpisodeResult,
    Outcome,
    PolicySafetyError,
    RunConfig,
    Verdict,
    ablation_preset,
    cell_name,
    compare,
    config_hash,
    load_results_dir,
    run_cell,
    run_config_from_dict,
    run_episode_traced,
    run_experiment,
    sign_test_p,
    summarize,
)
from actpermoma.perception import TsdfGrid
from actpermoma.planning import NavMap, NoPath, PlannerConfig, camera_at
from actpermoma.policies import Abort, Belief, MoveStep, PolicyKind
from actpermoma.render import render_topdown, render_trace_file
from actpermoma.scene import (
    DEFAULT_INTRINSICS,
    SceneGenFailure,
    SceneKind,
    generate_scene,
    render_depth,
    sample_start_pose,
    scene_to_dict,
)
from actpermoma.seeding import derive_seed

FAST = PlannerConfig(max_steps=50)


def fake_results(success: int, abort: int, failure: int) -> list[EpisodeResult]:
    out = []
    rng = np.random.default_rng(0)
    for n, o in [(success, Outcome.SUCCESS), (abort, Outcome.ABORT),
                 (failure, Outcome.GRASP_FAILURE)]:
        for _ in range(n):
            k = len(out)  # every result is its own scene
            out.append(EpisodeResult(outcome=o, d_total=float(rng.uniform(1, 8)),
                                     v_total=int(rng.integers(5, 30)), steps=10,
                                     scene_seed=k, policy_seed=k,
                                     policy=PolicyKind.ACTPERMOMA))
    return out


def test_summarize_matches_published_row():
    m = summarize(fake_results(477, 7, 16))
    assert m.sr == 95.4
    assert m.ar == 1.4
    assert m.gfr == 3.2


def test_summarize_all_success_and_partition():
    m = summarize(fake_results(50, 0, 0))
    assert (m.sr, m.ar, m.gfr) == (100.0, 0.0, 0.0)
    for split in [(3, 4, 5), (30, 1, 2), (1, 1, 1)]:
        m = summarize(fake_results(*split))
        assert abs(m.sr + m.ar + m.gfr - 100.0) <= 1e-9


def test_summarize_mean_std_two_pass_oracle():
    results = fake_results(40, 5, 5)
    m = summarize(results)
    d = [r.d_total for r in results]
    v = [r.v_total for r in results]

    def two_pass(xs):
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        return mean, math.sqrt(var)

    dm, ds = two_pass(d)
    vm, vs = two_pass(v)
    assert m.d_mean == pytest.approx(dm, abs=1e-12)
    assert m.d_std == pytest.approx(ds, abs=1e-12)
    assert m.v_mean == pytest.approx(vm, abs=1e-12)
    assert m.v_std == pytest.approx(vs, abs=1e-12)


def episode(scene_seed: int, outcome: Outcome = Outcome.SUCCESS, d: float = 3.0,
            v: int = 10) -> EpisodeResult:
    return EpisodeResult(outcome, d, v, v - 1, scene_seed, scene_seed, PolicyKind.NAIVE)


def paired(*groups: tuple[int, dict, dict]) -> tuple[list[EpisodeResult], list[EpisodeResult]]:
    """`(count, a_fields, b_fields)` groups -> two result lists on shared scenes."""
    a, b = [], []
    for count, fa, fb in groups:
        for _ in range(count):
            a.append(episode(len(a), **fa))
            b.append(episode(len(b), **fb))
    return a, b


def mirrored(verdict: Verdict) -> Verdict:
    return {Verdict.A_BETTER: Verdict.B_BETTER, Verdict.B_BETTER: Verdict.A_BETTER,
            Verdict.INCONCLUSIVE: Verdict.INCONCLUSIVE}[verdict]


def assert_compare(a, b, metric, expected):
    assert compare(a, b, metric) == expected
    verdict, a_wins, b_wins = expected  # swapping the sides mirrors the answer
    assert compare(b, a, metric) == (mirrored(verdict), b_wins, a_wins)


def test_sign_test_p_hand_values():
    # 3:12 -> 2 * (C(15,0) + C(15,1) + C(15,2) + C(15,3)) / 2**15 = 2 * 576 / 32768
    assert sign_test_p(3, 12) == 2 * 576 / 2 ** 15
    assert sign_test_p(3, 12) == pytest.approx(0.0352, abs=5e-5)
    assert sign_test_p(12, 3) == sign_test_p(3, 12)
    assert sign_test_p(6, 0) == 0.03125  # the smallest significant split
    assert sign_test_p(5, 0) == 0.0625
    assert sign_test_p(7, 7) == 1.0
    assert sign_test_p(0, 0) == 1.0


def test_compare_identical_inconclusive():
    a = fake_results(50, 5, 5)
    for metric in ("sr", "ar", "gfr", "d", "v"):
        assert compare(a, list(a), metric) == (Verdict.INCONCLUSIVE, 0, 0)


def test_compare_rates_count_discordant_pairs():
    S, A, F = Outcome.SUCCESS, Outcome.ABORT, Outcome.GRASP_FAILURE
    a, b = paired((3, {"outcome": S}, {"outcome": A}),
                  (12, {"outcome": F}, {"outcome": S}),
                  (20, {"outcome": S}, {"outcome": S}),  # concordant: no win
                  (5, {"outcome": A}, {"outcome": A}))
    assert_compare(a, b, "sr", (Verdict.B_BETTER, 3, 12))  # p = 0.0352
    # ar/gfr are lower-better: a side wins a scene it does not abort or fail
    assert_compare(a, b, "ar", (Verdict.INCONCLUSIVE, 3, 0))
    assert_compare(a, b, "gfr", (Verdict.B_BETTER, 0, 12))
    a, b = paired((7, {"outcome": S}, {"outcome": A}), (7, {"outcome": A}, {"outcome": S}))
    assert_compare(a, b, "sr", (Verdict.INCONCLUSIVE, 7, 7))


def test_compare_six_wins_decide_and_five_do_not():
    for metric, shorter, longer in (("d", {"d": 1.0}, {"d": 2.5}), ("v", {"v": 4}, {"v": 9})):
        a, b = paired((6, shorter, longer))
        assert_compare(a, b, metric, (Verdict.A_BETTER, 6, 0))  # p = 0.03125
        a, b = paired((5, shorter, longer))
        assert_compare(a, b, metric, (Verdict.INCONCLUSIVE, 5, 0))  # p = 0.0625


def test_compare_d_v_count_scenes_both_solve_without_ties():
    A = Outcome.ABORT
    a, b = paired((6, {"d": 1.0, "v": 4}, {"d": 2.0, "v": 8}),
                  (10, {"d": 1.5, "v": 6}, {"d": 1.5, "v": 6}),  # ties
                  # b's aborts and a's failures are shorter, yet only one side solves
                  (10, {"d": 5.0, "v": 20}, {"outcome": A, "d": 0.0, "v": 1}),
                  (10, {"outcome": Outcome.GRASP_FAILURE, "d": 0.5, "v": 2},
                   {"d": 5.0, "v": 20}))
    assert_compare(a, b, "d", (Verdict.A_BETTER, 6, 0))
    assert_compare(a, b, "v", (Verdict.A_BETTER, 6, 0))


def test_compare_refuses_unpaired_scenes():
    a = [episode(s) for s in (0, 1, 2)]
    with pytest.raises(ValueError, match=r"only in a \[0\], only in b \[3\]"):
        compare(a, [episode(s) for s in (1, 2, 3)], "sr")
    with pytest.raises(ValueError, match=r"only in a \[\], only in b \[3\]"):
        compare(a, [episode(s) for s in (0, 1, 2, 3)], "d")
    # e.g. the pooled cells of an ablate run directory
    with pytest.raises(ValueError, match=r"b repeats scene seeds \[1\]"):
        compare(a, [episode(s) for s in (0, 1, 2, 1)], "sr")
    with pytest.raises(ValueError, match="unknown metric"):
        compare(a, list(a), "steps")


def test_scripted_abort_policy_episode(monkeypatch):
    class AlwaysAbort:
        cam_seed = 0
        last_trace: dict = {}

        def decide(self, belief):
            return Abort("scripted")

    monkeypatch.setattr(harness, "make_policy", lambda *a, **k: AlwaysAbort())
    cfg = RunConfig(planner=FAST, episodes=1, base_seed=0)
    result, trace = run_episode_traced(cfg, 0)
    assert result.outcome is Outcome.ABORT
    assert result.d_total == 0.0
    assert result.v_total == 1  # the initial view only
    assert result.abort_reason == "scripted"


def _budget_ends(trace: list[dict], max_steps: int) -> None:
    """The trace's last step record is the harness's budget abort at step
    `max_steps`, with no policy record merged into it."""
    steps = [r for r in trace if r.get("type") == "step"]
    assert [r["step"] for r in steps] == list(range(max_steps + 1))
    assert all(r["action"]["kind"] == "move" for r in steps[:-1])
    assert set(steps[-1]) == {"type", "step", "robot", "grasps", "action"}
    assert steps[-1]["action"] == {"kind": "abort", "reason": "step budget exhausted"}


def test_scripted_never_aborting_policy_ends_at_budget(monkeypatch):
    decided: list[int] = []

    class AlwaysWait:
        cam_seed = 0
        last_trace: dict = {}

        def decide(self, belief):
            decided.append(belief.step_index)
            cam = camera_at(belief.robot.xy, belief.target_center, 0, (1.1, 1.3))
            return MoveStep(belief.robot, cam)

    monkeypatch.setattr(harness, "make_policy", lambda *a, **k: AlwaysWait())
    cfg = RunConfig(planner=PlannerConfig(max_steps=3), episodes=1, base_seed=0)
    result, trace = run_episode_traced(cfg, 0)
    assert decided == [0, 1, 2]  # the policy is not asked at the budget step
    assert result.outcome is Outcome.ABORT
    assert result.abort_reason == "step budget exhausted"
    assert (result.steps, result.v_total, result.d_total) == (3, 4, 0.0)
    _budget_ends(trace, 3)


def test_every_policy_ends_at_the_step_budget(monkeypatch):
    real = harness.make_policy
    decided: list[int] = []

    def counting(*args, **kwargs):
        policy = real(*args, **kwargs)
        decide = policy.decide
        policy.decide = lambda belief: decided.append(belief.step_index) or decide(belief)
        return policy

    monkeypatch.setattr(harness, "make_policy", counting)
    for kind in PolicyKind:
        decided.clear()
        cfg = RunConfig(planner=PlannerConfig(max_steps=3), episodes=1, base_seed=5,
                        scenario=SceneKind.COMPLEX, policy=kind)
        result, trace = run_episode_traced(cfg, 0)
        assert result.abort_reason == "step budget exhausted", kind
        assert (result.steps, result.v_total) == (3, 4), kind
        assert decided == [0, 1, 2], kind
        _budget_ends(trace, 3)


def test_episode_deterministic_rerun():
    cfg = RunConfig(planner=FAST, episodes=1, base_seed=7,
                    scenario=SceneKind.SIMPLE, policy=PolicyKind.ACTPERMOMA)
    r1, t1 = run_episode_traced(cfg, 0)
    r2, t2 = run_episode_traced(cfg, 0)
    assert r1 == r2
    assert json.dumps(t1, sort_keys=True) == json.dumps(t2, sort_keys=True)


def test_trace_replay_reconstructs_totals():
    cfg = RunConfig(planner=FAST, episodes=1, base_seed=3,
                    scenario=SceneKind.SIMPLE, policy=PolicyKind.RANDOM)
    result, trace = run_episode_traced(cfg, 0)
    moves = [r for r in trace if r.get("type") == "step" and r["action"]["kind"] == "move"]
    d = 0.0
    for rec in moves:
        frm = np.array(rec["robot"][:2])
        to = np.array(rec["action"]["to"][:2])
        d += float(np.linalg.norm(to - frm))
    assert d == pytest.approx(result.d_total, abs=1e-9)
    assert result.v_total == len(moves) + 1
    assert result.steps == len(moves)


def test_run_cell_serial_equals_parallel():
    cfg = RunConfig(planner=FAST, episodes=4, base_seed=11,
                    scenario=SceneKind.SIMPLE, policy=PolicyKind.NAIVE)
    serial = run_cell(cfg, workers=1)
    parallel = run_cell(cfg, workers=4)
    assert serial == parallel


def test_run_cell_pooled_traces_equal_serial_bytes(tmp_path):
    # ActPerMoMa on the complex scene scores paths by IG, the matmul-heavy
    # path whose BLAS thread count differs between the pool and this process
    def traces(workers: int) -> dict[str, bytes]:
        cfg = RunConfig(planner=PlannerConfig(max_steps=4), episodes=2, base_seed=2,
                        scenario=SceneKind.COMPLEX, policy=PolicyKind.ACTPERMOMA)
        out = tmp_path / f"w{workers}"
        run_experiment([cfg], out, workers=workers)
        episodes = out / cell_name(cfg) / "episodes"
        return {p.name: p.read_bytes() for p in sorted(episodes.iterdir())}

    serial = traces(1)
    assert len(serial) == 2
    assert all(b'"goal_utilities"' in t for t in serial.values())  # the IG scores
    assert traces(2) == serial


def _blas_threads_worker(cfg, episode_index) -> tuple[tuple[int, int | None], list]:
    get = harness._openblas_function("get")
    get.restype = ctypes.c_int
    tasks = Path("/proc/self/task")  # the worker's OS threads, where Linux lists them
    return (get(), len(list(tasks.iterdir())) if tasks.is_dir() else None), []


def test_run_cell_workers_run_one_blas_thread(monkeypatch):
    get = harness._openblas_function("get")
    if get is None:
        pytest.skip("numpy's BLAS is not OpenBLAS: no get_num_threads symbol to read")
    get.restype = ctypes.c_int
    before = get()
    monkeypatch.setattr(harness, "run_episode_traced", _blas_threads_worker)
    cfg = RunConfig(planner=FAST, episodes=2, policy=PolicyKind.NAIVE)
    rows = run_cell(cfg, workers=2)
    assert [blas for blas, _ in rows] == [1, 1]
    # no idle BLAS server thread left running beside the worker's main thread
    assert all(os_threads in (1, None) for _, os_threads in rows)
    assert get() == before  # the calling process keeps its own thread count


def test_run_cell_without_openblas_runs_unpinned(monkeypatch):
    monkeypatch.setattr(harness, "_OPENBLAS_PREFIXES", ("no_such_blas",))
    assert harness._openblas_function("set") is None
    assert harness._one_blas_thread() is None
    cfg = RunConfig(planner=FAST, episodes=2, base_seed=11, policy=PolicyKind.NAIVE)
    assert run_cell(cfg, workers=2) == run_cell(cfg, workers=1)


def test_default_workers_counts_only_usable_cpus(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    assert harness.default_workers() == 2
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    assert harness.default_workers() == 8


def test_run_experiment_writes_csv_and_traces(tmp_path):
    cells = [RunConfig(planner=FAST, episodes=2, base_seed=1, policy=PolicyKind.NAIVE,
                       scenario=SceneKind.SIMPLE),
             RunConfig(planner=FAST, episodes=2, base_seed=1, policy=PolicyKind.RANDOM,
                       scenario=SceneKind.SIMPLE)]
    csv_path = run_experiment(cells, tmp_path / "out", workers=2)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "policy,scenario,hard,sr,ar,gfr,d_mean,d_std,v_mean,v_std,config_hash"
    assert len(lines) == 3  # header + one row per cell
    csv2 = run_experiment(cells, tmp_path / "out2", workers=2)
    assert csv_path.read_text() == csv2.read_text()  # deterministic rerun
    for cfg in cells:
        eps = list((tmp_path / "out" / cell_name(cfg) / "episodes").glob("ep*.jsonl"))
        assert len(eps) == 2


def test_run_experiment_runs_each_distinct_config_once(tmp_path, monkeypatch):
    cell = RunConfig(planner=FAST, episodes=2, base_seed=1, policy=PolicyKind.NAIVE,
                     scenario=SceneKind.SIMPLE)
    calls = []
    real = harness.run_episode_traced
    monkeypatch.setattr(harness, "run_episode_traced",
                        lambda cfg, i: calls.append((config_hash(cfg), i)) or real(cfg, i))
    csv_path = run_experiment([cell, replace(cell)], tmp_path / "out", workers=1)
    assert calls == [(config_hash(cell), 0), (config_hash(cell), 1)]
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per requested cell
    assert lines[1] == lines[2]
    assert len(list((tmp_path / "out" / cell_name(cell) / "episodes").glob("ep*.jsonl"))) == 2


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_run_experiment_pooled_directory_equals_serial_bytes(tmp_path):
    # one pool runs the episodes of every cell, in completion order
    planner = PlannerConfig(max_steps=6)
    cells = [RunConfig(planner=planner, episodes=2, base_seed=3, policy=policy,
                       scenario=SceneKind.COMPLEX)
             for policy in (PolicyKind.ACTPERMOMA, PolicyKind.NAIVE, PolicyKind.RANDOM)]
    cells.append(replace(cells[1]))  # a repeated row shares its cell's results
    serial, pooled = (_tree(run_experiment(cells, tmp_path / f"w{w}", workers=w).parent)
                      for w in (1, 2))
    assert sum(name.endswith(".jsonl") for name in serial) == 6
    assert len(serial["metrics.csv"].splitlines()) == 5
    assert pooled == serial


def count_scene_work(monkeypatch) -> Counter:
    """Counts, from now on, of the renders, traversals, A* searches, cameras
    counted by the IG scorer (only on a grid that keeps IG counts), grasp
    detections, obstacle masks, goal slot samplings, detector builds and
    scene generations."""
    work = Counter()

    def tally(owner, attr: str, kind: str, count=lambda *args: 1) -> None:
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            work[kind] += count(*args)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    tally(harness, "render_depth", "renders")
    tally(perception, "traverse_batch", "traversals")
    tally(perception, "_rear_side_counts", "scored",
          lambda tsdf, cams, *args: len(cams) if tsdf.ig_counts is not None else 0)
    tally(planning, "_search", "searches")
    tally(GraspDetector, "detect", "detects")
    tally(policies, "inflate_occupied", "masks")
    tally(policies, "sample_base_goal_slots", "slots")
    tally(GraspDetector, "__init__", "detectors")
    tally(harness, "generate_scene", "scenes")
    return work


def scene_task(work: Counter, jobs) -> tuple[Counter, list]:
    """`_run_scene(jobs)`: the work it did and its results and trace bytes;
    an episode's exception is raised."""
    work.clear()
    runs = harness._run_scene(jobs)
    for ran in runs:
        if isinstance(ran, Exception):
            raise ran
    return Counter(work), [(r, json.dumps(t)) for r, t in runs]


SHARED_WORK = ("renders", "traversals", "scored", "searches", "detects", "masks", "slots",
               "detectors", "scenes")


def test_a_scene_task_shares_its_views_and_repeats_its_work_exactly(monkeypatch):
    work = count_scene_work(monkeypatch)
    # both policies score IG on scene 3, from the same start view
    jobs = [(RunConfig(planner=PlannerConfig(max_steps=6), scenario=SceneKind.COMPLEX,
                       base_seed=3, policy=policy), 0)
            for policy in (PolicyKind.ACTPERMOMA, PolicyKind.NO_WEIGHTS)]
    together = scene_task(work, jobs)
    assert scene_task(work, jobs) == together  # the second run starts from no kept view
    alone = [scene_task(work, [job]) for job in jobs]
    assert together[1] == [ran for _, (ran,) in alone]
    for kind in SHARED_WORK:
        assert together[0][kind] < sum(a[0][kind] for a in alone), kind
    assert together[0]["detectors"] == together[0]["scenes"] == 1


TABLE2_SCENE = 604  # a scene no other test or measurement runs


def detector_rows(detector: GraspDetector) -> list:
    return [detector.voxels, [(s.shape, s.tobytes()) for s in detector.shells],
            [(p.position.tobytes(), p.orientation.tobytes()) for p in detector._world_poses]]


def kept_kind(key) -> str:
    """The producer a `BeliefNode.kept` key names."""
    if isinstance(key, str):
        return key
    if isinstance(key[0], str):
        return key[0]
    return "route" if len(key) == 4 else "ig"


KEPT_KINDS = {"detect", "occupancy", "blocked", "plan", "route", "ig"}


def value_bits(value):
    """`value` as comparable bits: each array as its dtype, shape and bytes,
    through tuples, lists and dataclass fields."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(value_bits(v) for v in value)
    if is_dataclass(value):
        return type(value).__name__, tuple(value_bits(getattr(value, f.name))
                                           for f in fields(value))
    return value


def test_a_scene_task_answers_repeated_decisions_exactly(monkeypatch):
    """The table2 rows of one scene (one episode each, a 40-step budget) as
    one scene task.  Every result kept on every belief state an episode
    reaches, those an earlier episode kept included, equals a fresh
    computation on that episode's grids, with a scene and detector built
    anew, the IG counts on a copy of the target grid without any memo and
    each plan by a new policy whose routes are the previous plan's;
    the scene, start pose and detector the task shares equal freshly built
    ones; each episode's trace equals the episode run alone, though together
    they do less of every kind of work."""
    scene = generate_scene(SceneKind.COMPLEX, False, TABLE2_SCENE)
    start = sample_start_pose(scene, derive_seed(TABLE2_SCENE, "start"))
    detector = GraspDetector(harness.target_grid(scene), scene)
    real_observe, real_decide = Episode.observe, policies.ActPerMoMaPolicy.decide
    real_ig, real_detect, real_search = \
        perception.rear_side_ig_batch, GraspDetector.detect, planning._search
    views = {}  # the IG scorer's cameras and target boxes, by their key bytes
    # the running episode and the (state id, key) pairs it has checked
    running = {"episode": None, "walked": set()}
    checked = Counter()

    def check_kept(episode) -> None:
        """Check each result kept on the episode's belief state that the
        episode has not checked yet; the checks are not the task's work."""
        saved, walked = Counter(work), running["walked"]
        kept = episode.node.kept
        occ = perception.project_occupancy(episode.nav_tsdf, harness.NAV_HEIGHT_BAND)
        blocked = planning.inflate_occupied(occ)
        scored: dict[tuple, list] = {}
        for key, got in kept.items():
            if (episode.node.id, key) in walked:
                continue
            walked.add((episode.node.id, key))
            kind = kept_kind(key)
            checked[kind] += 1
            if kind == "ig":  # scored below, one batch per intrinsics and box
                (*cam, intr, _, _), box = key
                scored.setdefault((intr, box), []).append((got, views[tuple(cam)]))
                continue
            if kind == "occupancy":
                want = occ
            elif kind == "blocked":
                want = blocked
            elif kind == "detect":
                want = tuple(real_detect(detector, episode.target_tsdf, *key[1:]))
            elif kind == "plan":  # a policy with its routes restored from the previous plan
                n_b, goal_seed, radius, epoch, cam_seed, spacing, band, xy, prev = key[1:]
                policy = policies.ActPerMoMaPolicy(
                    PlannerConfig(n_b=n_b, reach_radius=radius, cam_spacing=spacing,
                                  torso_band=band), 0, build_map_pair())
                policy.goal_seed, policy.cam_seed = goal_seed, cam_seed
                policy.routes.routes = dict(prev.routes) if prev is not None else {}
                checked["plan after a plan"] += prev is not None
                robot = Pose2(*map(float, np.frombuffer(xy)), 0.0)
                want = policy._plan(Belief(
                    robot=robot, target_tsdf=episode.target_tsdf, occ=occ, stable_grasps=[],
                    target_center=scene.target_center, target_bbox=scene.target_bbox,
                    step_index=0, intr=DEFAULT_INTRINSICS, node=harness.BeliefNode(-1)), epoch)
            else:
                try:
                    want = real_search(NavMap(occ, blocked), key[:2], key[2:])
                except NoPath as e:
                    want = str(e)
            assert value_bits(got) == value_bits(want), key
        t = episode.target_tsdf
        for (intr, box), rows in scored.items():
            copy = TsdfGrid(Grid(t.grid.origin.copy(), t.grid.cell_size, t.grid.dims,
                                 t.grid.cells.copy()), t.truncation)
            want = real_ig(copy, [cam for _, cam in rows], intr, views[box])
            assert [got for got, _ in rows] == want.tolist()
        work.clear()
        work.update(saved)

    def observe(episode, step_index):
        if step_index == 0:
            running.update(episode=episode, walked=set())
        belief = real_observe(episode, step_index)
        check_kept(episode)
        checked["beliefs"] += 1
        return belief

    def decide(policy, belief):
        decision = real_decide(policy, belief)
        check_kept(running["episode"])
        return decision

    def ig(tsdf, cams, intr, bbox):
        views.update((cam.key(), cam) for cam in cams)
        views[bbox.lo.tobytes(), bbox.hi.tobytes()] = bbox
        return real_ig(tsdf, cams, intr, bbox)

    work = count_scene_work(monkeypatch)
    monkeypatch.setattr(Episode, "observe", observe)
    monkeypatch.setattr(policies.ActPerMoMaPolicy, "decide", decide)
    for owner in (planning, policies):
        monkeypatch.setattr(owner, "rear_side_ig_batch", ig)
    cells = ablation_preset("table2", episodes=1, base_seed=TABLE2_SCENE)
    jobs = [(replace(cfg, planner=replace(cfg.planner, max_steps=40)), 0)
            for cfg in {config_hash(c): c for c in cells if not c.hard_grasps}.values()]
    assert len(jobs) == 9
    together = scene_task(work, jobs)
    (record,) = harness._SCENE_VIEWS.values()
    assert scene_to_dict(record.scene) == scene_to_dict(scene) and record.start == start
    assert detector_rows(record.detector) == detector_rows(detector)
    alone = [scene_task(work, [job]) for job in jobs]
    assert together[1] == [ran for _, (ran,) in alone]
    for kind in SHARED_WORK:
        assert together[0][kind] < sum(a[0][kind] for a in alone), kind
    assert checked["beliefs"] > 0 and all(checked[kind] > 0 for kind in KEPT_KINDS)
    assert checked["plan after a plan"] > 0


def arrays_and_lists(obj):
    """Every array and list reachable from `obj` through tuples, lists and
    the attributes of an object."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        if isinstance(obj, list):
            yield obj
        for item in obj:
            yield from arrays_and_lists(item)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        for item in vars(obj).values():
            yield from arrays_and_lists(item)


def test_a_scene_task_keeps_its_shared_results_read_only():
    # every result a belief state keeps, the scene, its start pose and its
    # detector are shared by the scene's later episodes: a write to any of
    # their arrays raises rather than changing what those episodes see, and
    # a kept result holds no list, which a write would change
    jobs = [(RunConfig(planner=PlannerConfig(max_steps=12), scenario=SceneKind.COMPLEX,
                       base_seed=3, policy=policy), 0)
            for policy in (PolicyKind.ACTPERMOMA, PolicyKind.NAIVE)]
    assert not any(isinstance(r, Exception) for r in harness._run_scene(jobs))
    (record,) = harness._SCENE_VIEWS.values()
    kept = {key: value for node in record.nodes.values() for key, value in node.kept.items()}
    assert {kept_kind(key) for key in kept} == KEPT_KINDS
    found = [a for value in kept.values() for a in arrays_and_lists(value)]
    assert not any(isinstance(a, list) for a in found)
    plans = [value for value in kept.values() if isinstance(value, policies.Plan)]
    # a plan's routes and the cameras of its views
    assert any(isinstance(a, np.ndarray) for plan in plans for a in arrays_and_lists(plan))
    found += arrays_and_lists((record.scene, record.start, record.detector))
    arrays = [a for a in found if isinstance(a, np.ndarray)]
    assert any(a.ndim == 2 and a.dtype == bool for a in arrays)  # an obstacle mask
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0


def test_a_scene_task_whose_scene_fails_keeps_nothing(monkeypatch):
    # scene TABLE2_SCENE + 1 fails to generate: each episode on it tries
    # anew, ends with the abort trace it gets alone, and no record is kept;
    # the other scene of the cells runs as before
    real_generate = harness.generate_scene

    def generate(kind, hard, seed):
        if seed == TABLE2_SCENE + 1:
            raise SceneGenFailure("no room for the target")
        return real_generate(kind, hard, seed)

    monkeypatch.setattr(harness, "generate_scene", generate)
    work = count_scene_work(monkeypatch)  # counts the failed generations too
    cfgs = [RunConfig(planner=PlannerConfig(max_steps=6), scenario=SceneKind.COMPLEX,
                      episodes=2, base_seed=TABLE2_SCENE, policy=policy)
            for policy in (PolicyKind.ACTPERMOMA, PolicyKind.IG_ONLY, PolicyKind.NAIVE)]
    for i in (0, 1):
        jobs = [(cfg, i) for cfg in cfgs]
        together = scene_task(work, jobs)
        kept = list(harness._SCENE_VIEWS)
        alone = [scene_task(work, [job]) for job in jobs]
        assert together[1] == [ran for _, (ran,) in alone]
        if i == 0:
            assert kept == [(SceneKind.COMPLEX, False, TABLE2_SCENE)]
            assert together[0]["scenes"] == together[0]["detectors"] == 1
        else:
            assert kept == [] and harness._SCENE_VIEWS == {}
            assert together[0]["scenes"] == len(jobs) and together[0]["detectors"] == 0
            for result, trace in together[1]:
                assert result.outcome is Outcome.ABORT and result.steps == 0
                assert result.abort_reason == "scene generation: no room for the target"
                assert [rec["type"] for rec in json.loads(trace)] == ["result"]


def test_a_scene_task_leaves_no_episode_alive(monkeypatch):
    # what a scene keeps for its next episodes references no episode: once
    # the task returns, every episode's grids are freed, and a failed search
    # is kept as its message, never as the exception, whose traceback would
    # keep the frames of the episode that raised it
    grids = []
    real_search = planning._search

    class Recorded(Episode):
        def __init__(self, *args):
            super().__init__(*args)
            grids.extend(weakref.ref(t) for t in (self.target_tsdf, self.nav_tsdf))

    def search(nav, s, g):  # a third of the searches fail
        if (s[0] + g[1]) % 3 == 0:
            raise NoPath("goal unreachable")
        return real_search(nav, s, g)

    monkeypatch.setattr(harness, "Episode", Recorded)
    monkeypatch.setattr(planning, "_search", search)
    jobs = [(RunConfig(planner=PlannerConfig(max_steps=8), scenario=SceneKind.COMPLEX,
                       base_seed=TABLE2_SCENE, policy=policy), 0)
            for policy in (PolicyKind.ACTPERMOMA, PolicyKind.IG_ONLY, PolicyKind.NAIVE)]
    runs = harness._run_scene(jobs)
    assert not any(isinstance(r, Exception) for r in runs)
    gc.collect()
    assert len(grids) == 6 and all(ref() is None for ref in grids)
    (record,) = harness._SCENE_VIEWS.values()
    kept = [v for node in record.nodes.values() for v in node.kept.values()]
    assert any(isinstance(v, str) for v in kept)
    assert not any(isinstance(v, BaseException) for v in kept)


def test_episodes_share_views_only_with_their_own_scene():
    cam = look_at(np.array([1.2, -0.5, 1.2]), np.array([0.0, 0.0, 0.75]))

    def sensed(kind: SceneKind, hard: bool, seed: int) -> Episode:
        episode = Episode(RunConfig(scenario=kind, hard_grasps=hard),
                          harness.scene_record(kind, hard, seed), seed)
        scene = episode.record.scene
        episode.sense(cam)
        perception.rear_side_ig_batch(episode.target_tsdf, [cam], DEFAULT_INTRINSICS,
                                      scene.target_bbox)
        (image,) = episode.record.images.values()
        fresh = render_depth(scene, cam, DEFAULT_INTRINSICS)
        assert np.array_equal(image.depths, fresh.depths, equal_nan=True)
        assert len(episode.target_tsdf.ray_visits) == 1
        return episode

    first = sensed(SceneKind.COMPLEX, False, 4)
    views = (first.record.images, first.target_tsdf.ray_visits)
    again = sensed(SceneKind.COMPLEX, False, 4)
    assert again.record.images is views[0] and again.target_tsdf.ray_visits is views[1]
    for kind, hard, seed in ((SceneKind.COMPLEX, False, 5), (SceneKind.COMPLEX, True, 4),
                             (SceneKind.SIMPLE, False, 4)):
        other = sensed(kind, hard, seed)  # the same pose sees another scene
        assert other.record.images is not views[0]
        assert other.target_tsdf.ray_visits is not views[1]


# stand-ins for `harness.run_episode_traced` that a process pool runs are
# module-level: the pool pickles the function it submits by reference


def _random_fails_after_episode_0(cfg, episode_index):
    if cfg.policy is PolicyKind.RANDOM and episode_index > 0:
        raise RuntimeError(f"boom {episode_index}")
    return run_episode_traced(cfg, episode_index)


def _slow_episode(ran: Path, cfg, episode_index):
    with ran.open("a") as f:
        f.write(f"{cfg.base_seed} {episode_index}\n")
    time.sleep(0.05)
    return None, []


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_failing_cell_fails_alone(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(harness, "run_episode_traced", _random_fails_after_episode_0)
    cells = [RunConfig(planner=FAST, episodes=3, base_seed=1, policy=policy)
             for policy in (PolicyKind.NAIVE, PolicyKind.RANDOM)]
    cells.append(replace(cells[0], base_seed=2))
    lines = run_experiment(cells, tmp_path / "out", workers=workers).read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:3]] == [PolicyKind.NAIVE.value] * 2
    assert lines[3:] == [f"# failed cells: {cell_name(cells[1])}: boom 1"]
    names = {cell_name(cfg): sorted(p.name for p in
                                    (tmp_path / "out" / cell_name(cfg) / "episodes").iterdir())
             for cfg in cells}
    assert names[cell_name(cells[1])] == ["ep00000.jsonl"]  # its finished episode
    assert all(len(names[cell_name(cfg)]) == 3 for cfg in (cells[0], cells[2]))
    with pytest.raises(RuntimeError, match="^boom 1$"):  # once every episode has run
        run_cell(cells[1], workers=workers)


class _Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which pytest treats specially."""


def test_run_experiment_interrupt_cancels_queued_episodes(tmp_path, monkeypatch):
    ran = tmp_path / "ran"

    def interrupted(path, lines):  # the consumer stops at the first result
        raise _Interrupt

    monkeypatch.setattr(harness, "run_episode_traced", functools.partial(_slow_episode, ran))
    monkeypatch.setattr(harness, "_write_atomic", interrupted)
    cells = [RunConfig(planner=FAST, episodes=8, base_seed=seed) for seed in range(3)]
    with pytest.raises(_Interrupt):
        run_experiment(cells, tmp_path / "out", workers=2)
    # the 24 episodes form 10 scene tasks, scene s holding one episode of each
    # cell that reaches it; only the running and the already dispatched tasks
    # finish, each whole: 2 running, 3 in the pool's call queue and the one
    # the pool queues as the first finishes, before the consumer stops
    scenes = Counter(sum(map(int, line.split())) for line in ran.read_text().splitlines())
    sizes = Counter(cfg.base_seed + i for cfg in cells for i in range(cfg.episodes))
    assert all(scenes[s] == sizes[s] for s in scenes)
    assert len(scenes) <= 6 and sum(scenes.values()) < 24


def test_trace_write_failure_leaves_no_partial_trace(tmp_path, monkeypatch):
    cfg = RunConfig(planner=FAST, episodes=3, base_seed=5, policy=PolicyKind.NAIVE)
    want = run_cell(cfg, workers=1)
    real = harness.run_episode_traced

    def unwritable(cfg, episode_index):  # episode 1's second record cannot be encoded
        result, trace = real(cfg, episode_index)
        if episode_index == 1:
            trace.insert(1, {"type": "step", "bad": object()})
        return result, trace

    monkeypatch.setattr(harness, "run_episode_traced", unwritable)
    lines = run_experiment([cfg], tmp_path, workers=1).read_text().splitlines()
    assert lines[-1].startswith(f"# failed cells: {cell_name(cfg)}: Object of type object")
    episodes = tmp_path / cell_name(cfg) / "episodes"
    assert sorted(p.name for p in episodes.iterdir()) == ["ep00000.jsonl", "ep00002.jsonl"]
    assert load_results_dir(tmp_path / cell_name(cfg)) == [want[0], want[2]]


def test_load_results_dir_round_trip(tmp_path):
    cfg = RunConfig(planner=FAST, episodes=3, base_seed=5, policy=PolicyKind.NAIVE)
    run_experiment([cfg], tmp_path, workers=1)
    assert load_results_dir(tmp_path / cell_name(cfg)) == run_cell(cfg, workers=1)


@pytest.mark.parametrize("damage", ["truncated", "no_result", "missing_field",
                                    "mistyped_field", "nan_field"])
def test_load_results_dir_names_damaged_trace(tmp_path, damage):
    cfg = RunConfig(planner=FAST, episodes=2, base_seed=5, policy=PolicyKind.NAIVE)
    run_experiment([cfg], tmp_path, workers=1)
    path = tmp_path / cell_name(cfg) / "episodes" / "ep00001.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) >= 3 and json.loads(lines[-2])["type"] == "step"
    if damage == "truncated":  # cut mid-way through the result record
        path.write_text("\n".join(lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]))
    elif damage == "no_result":  # the last record is a step record
        path.write_text("\n".join(lines[:-1]) + "\n")
    else:  # the result record lacks a field or holds a distance that is no number
        result = json.loads(lines[-1])
        if damage == "missing_field":
            del result["v_total"]
        else:  # json writes a NaN that Python's json reads back
            result["d_total"] = "x" if damage == "mistyped_field" else math.nan
        path.write_text("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    with pytest.raises(ValueError, match="ep00001.jsonl"):
        load_results_dir(tmp_path / cell_name(cfg))


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        run_config_from_dict({"episodes": 5, "bogus": 1})
    with pytest.raises(ValueError, match="unknown planner keys"):
        run_config_from_dict({"planner": {"nope": 2}})
    cfg = run_config_from_dict({"planner": {"q_th": 0.7}, "episodes": 5,
                                "scenario": "complex", "policy": "Naive"})
    assert cfg.planner.q_th == 0.7
    assert cfg.scenario is SceneKind.COMPLEX
    assert cfg.policy is PolicyKind.NAIVE


def test_run_config_from_dict_checks_value_types():
    cfg = run_config_from_dict({"planner": {"momentum": 700, "torso_band": [1, 1.2]},
                                "hard_grasps": True})
    assert cfg.planner.momentum == 700  # an int is a float
    assert cfg.planner.torso_band == (1, 1.2) and cfg.hard_grasps is True
    for doc, key in [({"episodes": True}, "episodes"),  # a bool is not an int
                     ({"hard_grasps": 1}, "hard_grasps"),
                     ({"planner": {"q_th": "0.7"}}, "q_th"),
                     ({"planner": {"torso_band": [1.1]}}, "torso_band"),
                     ({"planner": {"torso_band": [1.1, "x"]}}, "torso_band"),
                     ({"planner": {"torso_band": 3}}, "torso_band"),
                     ({"planner": {"w_ig": math.nan}}, "w_ig"),  # JSON's NaN
                     ({"planner": {"momentum": math.inf}}, "momentum"),  # and Infinity
                     ({"planner": {"torso_band": [1.1, -math.inf]}}, "torso_band"),
                     ({"scenario": "nowhere"}, "scenario"),
                     ({"policy": ["Naive"]}, "policy"),
                     ({"planner": [1]}, "planner")]:
        with pytest.raises(ValueError, match=rf"^{key} must be "):
            run_config_from_dict(doc)


def test_run_config_dict_round_trip_every_field():
    planner = PlannerConfig(n_b=7, q_th=0.65, n_stab=3, w_ig=0.5, w_exec=2.0, momentum=50.0,
                            reach_radius=0.9, exec_threshold=0.25, cam_spacing=0.4,
                            max_steps=77, step_size=0.15, utility_scale=500.0,
                            ig_unit_rays=50.0, torso_band=(1.0, 1.2), ig_downsample=4)
    cfg = RunConfig(planner=planner, scenario=SceneKind.COMPLEX, hard_grasps=True,
                    episodes=9, base_seed=42, policy=PolicyKind.BREYER_NBV)
    for obj, default in ((planner, PlannerConfig()), (cfg, RunConfig())):
        for f in fields(obj):
            assert getattr(obj, f.name) != getattr(default, f.name), f.name
    doc = json.loads(json.dumps(asdict(cfg), default=str))
    assert run_config_from_dict(doc) == cfg


def test_config_hash_bytes_are_pinned():
    # cell names and the pinned trace digests (whose meta records carry the
    # hash) depend on these exact values
    assert config_hash(RunConfig()) == "3ad0b0d9035f"
    assert config_hash(RunConfig(episodes=6)) == "289ba0495b4f"
    cfg = RunConfig(policy=PolicyKind.NAIVE, scenario=SceneKind.COMPLEX, hard_grasps=True,
                    planner=PlannerConfig(torso_band=(1.0, 1.2)))
    assert cell_name(cfg) == "Naive_complex_hard_60449e"


def test_ablation_preset_row_structure():
    cells = ablation_preset("table1", episodes=5)
    assert len(cells) == 13  # 8 hyperparameter + 3 ablation + 2 hard-grasp rows
    assert all(c.scenario is SceneKind.SIMPLE for c in cells)
    hyper = cells[:8]
    assert [c.planner.q_th for c in hyper[:2]] == [0.7, 0.9]
    assert [c.planner.n_stab for c in hyper[2:4]] == [1, 5]
    assert [c.planner.w_ig for c in hyper[4:6]] == [3.0, 0.2]
    assert [c.planner.momentum for c in hyper[6:8]] == [0.0, 700.0]
    assert [c.policy for c in cells[8:11]] == [PolicyKind.ACTPERMOMA, PolicyKind.IG_ONLY,
                                               PolicyKind.NO_WEIGHTS]
    assert all(c.hard_grasps for c in cells[11:])
    assert ablation_preset("table2")[0].scenario is SceneKind.COMPLEX


def test_render_deterministic_and_vertex_count(tmp_path):
    cfg = RunConfig(planner=FAST, episodes=1, base_seed=2,
                    scenario=SceneKind.COMPLEX, policy=PolicyKind.ACTPERMOMA)
    result, trace = run_episode_traced(cfg, 0)
    from actpermoma.scene import scene_from_dict

    meta = trace[0]
    scene = scene_from_dict(meta["scene"])
    p1 = render_topdown(scene, trace, tmp_path / "a.svg")
    p2 = render_topdown(scene, trace, tmp_path / "b.svg")
    assert p1.read_bytes() == p2.read_bytes()
    steps = [r for r in trace if r.get("type") == "step"]
    svg = p1.read_text()
    traj = [ln for ln in svg.splitlines() if 'stroke="#3aa7e0"' in ln and "polyline" in ln]
    assert traj
    n_vertices = traj[0].count(",")
    assert n_vertices == len(steps) + 1


def test_render_scene_only_trace(tmp_path):
    cfg = RunConfig(planner=FAST, episodes=1, base_seed=2)
    _, trace = run_episode_traced(cfg, 0)
    bare = [trace[0], trace[-1]]  # meta + result, no steps: scene-only render
    from actpermoma.scene import scene_from_dict

    scene = scene_from_dict(trace[0]["scene"])
    out = render_topdown(scene, bare, tmp_path / "bare.svg")
    assert out.exists() and out.stat().st_size > 0


def test_render_trace_file_round_trip(tmp_path):
    cfg = RunConfig(planner=FAST, episodes=1, base_seed=4, policy=PolicyKind.NAIVE)
    run_experiment([cfg], tmp_path / "run", workers=1)
    trace_file = tmp_path / "run" / cell_name(cfg) / "episodes" / "ep00000.jsonl"
    out = render_trace_file(trace_file, tmp_path / "img.svg")
    assert out.read_text().startswith("<svg")


def test_cli_run_compare_render(tmp_path, capsys):
    from actpermoma.cli import main

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"planner": {"max_steps": 50}}))
    rc = main(["run", "--policy", "Naive", "--scenario", "simple", "--episodes", "2",
               "--seed", "0", "--config", str(cfg_file), "--out", str(tmp_path / "a"),
               "--workers", "1"])
    assert rc == 0
    rc = main(["run", "--policy", "Random", "--scenario", "simple", "--episodes", "2",
               "--seed", "0", "--config", str(cfg_file), "--out", str(tmp_path / "b"),
               "--workers", "1"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
               "--metric", "sr"])
    assert rc == 1  # 2 scenes can never be significant
    assert re.fullmatch(r"inconclusive [0-2]:[0-2]\n", capsys.readouterr().out)
    rc = main(["run", "--policy", "Random", "--scenario", "simple", "--episodes", "2",
               "--seed", "5", "--config", str(cfg_file), "--out", str(tmp_path / "c"),
               "--workers", "1"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "c"),
               "--metric", "sr"])
    stdout, stderr = capsys.readouterr()
    assert rc == 2 and stdout == ""  # a refusal, not an inconclusive result
    assert re.fullmatch(r"error: a and b hold different scenes: "
                        r"only in a \[0, 1\], only in b \[5, 6\]\n", stderr)
    trace = next((tmp_path / "a").glob("**/ep*.jsonl"))
    rc = main(["render", "--trace", str(trace), "--out", str(tmp_path / "img.svg")])
    assert rc == 0
    assert (tmp_path / "img.svg").exists()


def test_cli_run_refuses_a_cell_with_a_failed_episode(tmp_path, monkeypatch, capsys):
    from actpermoma.cli import main

    real = harness.run_episode_traced

    def flaky(cfg, episode_index):
        if episode_index == 1:
            raise RuntimeError("boom")
        return real(cfg, episode_index)

    monkeypatch.setattr(harness, "run_episode_traced", flaky)
    out = tmp_path / "a"
    rc = main(["run", "--policy", "Naive", "--scenario", "simple", "--episodes", "3",
               "--seed", "0", "--out", str(out), "--workers", "1"])
    stdout, stderr = capsys.readouterr()
    assert rc == 1
    assert "SR " not in stdout
    (cell,) = [p for p in out.iterdir() if p.is_dir()]
    assert f"{cell.name}: boom" in stderr
    assert len(list(cell.glob("episodes/ep*.jsonl"))) == 2  # the finished episodes
    for directory in (out, cell):  # nor are its partial traces compared
        rc = main(["compare", "--a", str(directory), "--b", str(directory), "--metric", "sr"])
        stdout, stderr = capsys.readouterr()
        assert rc == 2 and stdout == ""
        assert stderr.startswith("error: ") and f"{cell.name}: boom" in stderr


def test_cli_ablate_exits_1_naming_a_failed_cell(tmp_path, monkeypatch, capsys):
    from actpermoma.cli import main

    real = harness.run_episode_traced

    def flaky(cfg, episode_index):
        if cfg.policy is PolicyKind.NO_WEIGHTS:
            raise RuntimeError("boom")
        # a 3-step budget keeps the other table2 cells quick
        return real(replace(cfg, planner=replace(cfg.planner, max_steps=3)), episode_index)

    monkeypatch.setattr(harness, "run_episode_traced", flaky)
    rc = main(["ablate", "--preset", "table2", "--episodes", "1", "--seed", "0",
               "--out", str(tmp_path), "--workers", "1"])
    stdout, stderr = capsys.readouterr()
    assert rc == 1
    assert "policy,scenario" in stdout  # the CSV is still printed
    (failed,) = [cell_name(c) for c in ablation_preset("table2", episodes=1)
                 if c.policy is PolicyKind.NO_WEIGHTS]
    assert f"{failed}: boom" in stderr


def test_cli_ablate_refuses_an_unwritable_out_with_exit_2(tmp_path, monkeypatch, capsys):
    from actpermoma.cli import main

    calls = []
    real = harness.run_episode_traced

    def counted(cfg, episode_index):
        calls.append(episode_index)
        return real(replace(cfg, planner=replace(cfg.planner, max_steps=1)), episode_index)

    monkeypatch.setattr(harness, "run_episode_traced", counted)
    out = tmp_path / "taken"
    out.write_text("")
    rc = main(["ablate", "--preset", "table1", "--episodes", "1", "--out", str(out),
               "--workers", "1"])
    stdout, stderr = capsys.readouterr()
    assert rc == 2 and stdout == ""
    assert re.fullmatch(rf"error: [^\n]*{re.escape(str(out))}[^\n]*\n", stderr)
    assert calls == []  # refused before any episode runs


def test_cli_run_summarizes_only_its_own_cell(tmp_path, capsys):
    # a second run into the same --out prints the summary that the same cell
    # gets alone, not one of every trace under --out
    from actpermoma.cli import main

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"planner": {"max_steps": 5}}))
    summaries = []
    for policy, episodes, out in (("Naive", "2", "shared"), ("Random", "1", "shared"),
                                  ("Random", "1", "alone")):
        rc = main(["run", "--policy", policy, "--scenario", "simple", "--episodes", episodes,
                   "--seed", "0", "--config", str(cfg_file), "--out", str(tmp_path / out),
                   "--workers", "1"])
        assert rc == 0
        summaries.append(capsys.readouterr().out.splitlines()[-1])
    assert len(list((tmp_path / "shared").glob("*/episodes/ep*.jsonl"))) == 3
    assert summaries[1] == summaries[2]


CONFIG_RUN = ["run", "--policy", "Naive", "--config", "{cfg}"]


@pytest.mark.parametrize("argv,field,doc", [
    (["run", "--policy", "Naive", "--episodes", "2", "--seed", "-3"], "base_seed", None),
    (["run", "--policy", "Naive", "--episodes", "0"], "episodes", None),
    (CONFIG_RUN, "unknown config keys", {"seed": 0}),
    (["ablate", "--preset", "table2", "--episodes", "1", "--seed", "-1"], "base_seed", None),
    (["ablate", "--preset", "table2", "--episodes", "0"], "episodes", None),
    (CONFIG_RUN, "max_steps", {"planner": {"max_steps": "x"}}),
    (CONFIG_RUN, "episodes", {"episodes": "2"}),
    (CONFIG_RUN, "episodes", {"episodes": True}),
    (CONFIG_RUN, "torso_band", {"planner": {"torso_band": 3}}),
    (CONFIG_RUN, "hard_grasps", {"hard_grasps": "yes"}),
    (CONFIG_RUN, "momentum", {"planner": {"momentum": math.inf}}),
    (CONFIG_RUN, "unknown config keys", {"output_dir": "elsewhere"}),
    (["run", "--policy", "Naive", "--config", "{missing}"], "missing.json", None),
    (["run", "--policy", "Naive", "--episodes", "2", "--workers", "0"], "workers", None),
    (["run", "--policy", "Naive", "--episodes", "2", "--workers", "-4"], "workers", None),
    (["ablate", "--preset", "table2", "--episodes", "1", "--workers", "0"], "workers", None),
], ids=["run-negative-seed", "run-zero-episodes", "run-unknown-key",
        "ablate-negative-seed", "ablate-zero-episodes", "run-str-max-steps",
        "run-str-episodes", "run-bool-episodes", "run-int-torso-band",
        "run-str-hard-grasps", "run-infinite-momentum", "run-output-dir",
        "run-missing-config", "run-zero-workers",
        "run-negative-workers", "ablate-zero-workers"])
def test_cli_refuses_an_unrunnable_config_with_exit_2(tmp_path, monkeypatch, capsys, argv,
                                                      field, doc):
    # one error line naming the field, exit 2 and nothing written, the way
    # compare refuses runs it cannot compare
    from actpermoma.cli import main

    monkeypatch.chdir(tmp_path)  # where a relative path in the config would point
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg_file, missing=tmp_path / "missing.json") for a in argv]
    # one worker unless argv, read after it, says otherwise
    rc = main([argv[0], "--workers", "1", *argv[1:], "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    assert rc == 2 and stdout == ""
    assert re.fullmatch(rf"error: [^\n]*{field}[^\n]*\n", stderr)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_compare_refuses_a_directory_without_traces(tmp_path, capsys):
    # a mistyped path must not read as an inconclusive result
    from actpermoma.cli import main

    cfg = RunConfig(planner=FAST, episodes=2, base_seed=0, policy=PolicyKind.NAIVE)
    run_experiment([cfg], tmp_path / "run", workers=1)
    (tmp_path / "empty").mkdir()
    for side, nowhere in [(side, tmp_path / name) for side in "ab"
                          for name in ("nodir", "empty")]:
        sides = {"a": tmp_path / "run", "b": tmp_path / "run", side: nowhere}
        rc = main(["compare", "--a", str(sides["a"]), "--b", str(sides["b"]),
                   "--metric", "sr"])
        stdout, stderr = capsys.readouterr()
        assert rc == 2 and stdout == ""
        assert stderr == f"error: no episode traces under {nowhere}\n"


def test_cli_compare_refuses_a_directory_of_several_cells(tmp_path, capsys):
    # an ablation's --out holds one cell per row: their traces pooled would
    # pair each scene with itself, so compare names the cells instead
    from actpermoma.cli import main

    cells = [RunConfig(planner=PlannerConfig(max_steps=3), episodes=2, policy=policy)
             for policy in (PolicyKind.NAIVE, PolicyKind.RANDOM)]
    run_experiment(cells, tmp_path / "run", workers=1)
    rc = main(["compare", "--a", str(tmp_path / "run"), "--b", str(tmp_path / "run"),
               "--metric", "sr"])
    stdout, stderr = capsys.readouterr()
    assert rc == 2 and stdout == ""
    names = ", ".join(sorted(f"{cell_name(cfg)}/episodes" for cfg in cells))
    assert stderr == f"error: {tmp_path / 'run'} holds the traces of 2 cells, name one: {names}\n"
    rc = main(["compare", "--a", str(tmp_path / "run" / cell_name(cells[0])),
               "--b", str(tmp_path / "run" / cell_name(cells[1])), "--metric", "sr"])
    assert rc == 1 and capsys.readouterr().out.startswith("inconclusive")


def test_cli_refuses_a_trace_whose_result_record_lacks_a_field(tmp_path, monkeypatch, capsys):
    # run, summarizing the traces it wrote, and compare name the damaged
    # trace on one error line and exit 2 instead of a traceback
    from actpermoma.cli import main

    real = harness.run_episode_traced

    def lacking(cfg, episode_index):
        result, trace = real(cfg, episode_index)
        del trace[-1]["v_total"]
        return result, trace

    monkeypatch.setattr(harness, "run_episode_traced", lacking)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"planner": {"max_steps": 5}}))
    out = tmp_path / "run"
    for argv in (["run", "--policy", "Naive", "--episodes", "2", "--config", str(cfg_file),
                  "--out", str(out), "--workers", "1"],
                 ["compare", "--a", str(out), "--b", str(out), "--metric", "sr"]):
        rc = main(argv)
        stdout, stderr = capsys.readouterr()
        assert rc == 2 and "SR " not in stdout
        assert re.fullmatch(r"error: episode trace [^\n]*ep00000\.jsonl: [^\n]*'v_total'\n",
                            stderr)


def test_cli_render_refuses_a_trace_it_cannot_draw(tmp_path, monkeypatch, capsys):
    from actpermoma.cli import main

    def no_scene(*args):
        raise SceneGenFailure("no room for the target")

    good = run_episode_traced(RunConfig(planner=PlannerConfig(max_steps=2), base_seed=1), 0)[1]
    monkeypatch.setattr(harness, "generate_scene", no_scene)
    cfg = RunConfig(planner=FAST, episodes=1, base_seed=0)
    run_experiment([cfg], tmp_path / "run", workers=1)
    (result,) = load_results_dir(tmp_path / "run" / cell_name(cfg))
    assert result.abort_reason == "scene generation: no room for the target"
    trace = tmp_path / "run" / cell_name(cfg) / "episodes" / "ep00000.jsonl"
    assert [json.loads(line)["type"] for line in trace.read_text().splitlines()] == ["result"]
    malformed = tmp_path / "malformed.jsonl"  # a meta record whose scene lacks fields
    malformed.write_text(json.dumps({"type": "meta", "scene": {"primitives": []}}) + "\n")
    # a drawable trace's meta record, then a line that is no object; its
    # records without the robot pose
    not_object, no_robot = tmp_path / "not_object.jsonl", tmp_path / "no_robot.jsonl"
    not_object.write_text(json.dumps(good[0]) + "\n3\n")
    no_robot.write_text("".join(json.dumps({k: v for k, v in rec.items() if k != "robot"})
                                + "\n" for rec in good))
    for path, message in ((trace, "no scene to draw"),
                          (malformed, r"malformed\.jsonl holds a malformed meta record: "
                                      r"KeyError\('target_id'\)"),
                          (not_object, r"not_object\.jsonl holds a record that is not an "
                                       r"object"),
                          (no_robot, r"no_robot\.jsonl holds a malformed step or result "
                                     r"record: KeyError\('robot'\)"),
                          (tmp_path / "missing.jsonl", "No such file")):
        out = tmp_path / "img.svg"
        rc = main(["render", "--trace", str(path), "--out", str(out)])
        stdout, stderr = capsys.readouterr()
        assert rc == 2 and stdout == ""
        assert re.fullmatch(rf"error: [^\n]*{message}[^\n]*\n", stderr)
        assert not out.exists()


class Trespasser:
    """Steps onto the first observed-occupied cell of the map, and waits in
    place while there is none."""

    cam_seed = 0
    last_trace: dict = {}

    def decide(self, belief):
        occupied = np.argwhere(belief.occ.cells == CellState.OCCUPIED)
        xy = belief.occ.index_to_world_center(occupied[0]) if len(occupied) else belief.robot.xy
        base = Pose2(float(xy[0]), float(xy[1]), 0.0)
        return MoveStep(base, camera_at(base.xy, belief.target_center, 0, (1.1, 1.3)))


def test_a_step_onto_an_occupied_cell_raises_policy_safety_error(monkeypatch):
    monkeypatch.setattr(harness, "make_policy", lambda *a, **k: Trespasser())
    cfg = RunConfig(planner=FAST, episodes=1, base_seed=0, scenario=SceneKind.COMPLEX)
    with pytest.raises(PolicySafetyError,
                       match=r"^ActPerMoMa stepped into an occupied cell at \("):
        run_episode_traced(cfg, 0)


def test_a_policy_safety_error_fails_only_its_own_cell(tmp_path, monkeypatch):
    real = harness.make_policy
    monkeypatch.setattr(harness, "make_policy", lambda kind, *args: (
        Trespasser() if kind is PolicyKind.RANDOM else real(kind, *args)))
    cells = [RunConfig(planner=FAST, episodes=2, base_seed=1, policy=policy,
                       scenario=SceneKind.COMPLEX)
             for policy in (PolicyKind.NAIVE, PolicyKind.RANDOM)]
    lines = run_experiment(cells, tmp_path / "out", workers=1).read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == PolicyKind.NAIVE.value
    assert lines[2].startswith(f"# failed cells: {cell_name(cells[1])}: "
                               "Random stepped into an occupied cell at (")
