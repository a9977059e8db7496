from __future__ import annotations

import json
import math
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import actpermoma.harness as harness
from actpermoma.harness import (
    EpisodeResult,
    InsufficientSamples,
    MetricsSummary,
    Outcome,
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
    student_t_two_sided_p,
    summarize,
    two_proportion_z,
    welch_t,
)
from actpermoma.planning import PlannerConfig
from actpermoma.policies import Abort, PolicyKind
from actpermoma.render import render_topdown, render_trace_file
from actpermoma.scene import SceneKind

FAST = PlannerConfig(max_steps=50)


def fake_results(success: int, abort: int, failure: int) -> list[EpisodeResult]:
    out = []
    rng = np.random.default_rng(0)
    for i, (n, o) in enumerate([(success, Outcome.SUCCESS), (abort, Outcome.ABORT),
                                (failure, Outcome.GRASP_FAILURE)]):
        for k in range(n):
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


def test_compare_identical_inconclusive():
    a = fake_results(50, 5, 5)
    assert compare(a, list(a), "sr") is Verdict.INCONCLUSIVE
    assert compare(a, list(a), "d") is Verdict.INCONCLUSIVE


def test_compare_two_proportion_hand_value():
    z = two_proportion_z(90, 100, 40, 100)
    assert z == pytest.approx(7.25, abs=0.05)  # continuity-corrected pooled z
    a = fake_results(90, 10, 0)
    b = fake_results(40, 60, 0)
    assert compare(a, b, "sr") is Verdict.A_BETTER
    assert compare(b, a, "sr") is Verdict.B_BETTER  # antisymmetric
    # abort rate: lower is better, so the high-abort side loses
    assert compare(a, b, "ar") is Verdict.A_BETTER


def test_compare_welch_direction():
    rng = np.random.default_rng(1)
    a = [EpisodeResult(Outcome.SUCCESS, float(rng.normal(2.0, 0.3)), 10, 5, i, i,
                       PolicyKind.NAIVE) for i in range(60)]
    b = [EpisodeResult(Outcome.SUCCESS, float(rng.normal(5.0, 0.5)), 30, 5, i, i,
                       PolicyKind.RANDOM) for i in range(60)]
    assert compare(a, b, "d") is Verdict.A_BETTER
    assert compare(b, a, "d") is Verdict.B_BETTER
    assert compare(a, b, "v") is Verdict.A_BETTER


def test_compare_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        compare(fake_results(10, 0, 0), fake_results(40, 0, 0), "sr")


def test_student_t_tail_values():
    # reference quantiles: P(|T| > 2.045, df=29) ~ 0.05
    assert student_t_two_sided_p(2.045, 29) == pytest.approx(0.05, abs=0.002)
    assert student_t_two_sided_p(0.0, 29) == pytest.approx(1.0)
    t, df = welch_t(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    assert t == 0.0


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
    serial = run_cell(cfg, workers=1, write_traces=False)
    parallel = run_cell(cfg, workers=4, write_traces=False)
    assert serial == parallel


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
    real = harness.run_cell
    monkeypatch.setattr(harness, "run_cell",
                        lambda cfg, **kw: calls.append(cfg) or real(cfg, **kw))
    csv_path = run_experiment([cell, replace(cell)], tmp_path / "out", workers=1)
    assert len(calls) == 1
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per requested cell
    assert lines[1] == lines[2]
    assert len(list((tmp_path / "out" / cell_name(cell) / "episodes").glob("ep*.jsonl"))) == 2


def test_load_results_dir_round_trip(tmp_path):
    cfg = RunConfig(planner=FAST, episodes=3, base_seed=5, policy=PolicyKind.NAIVE,
                    output_dir=str(tmp_path / "cell"))
    want = run_cell(cfg, workers=1)
    got = load_results_dir(tmp_path / "cell")
    assert got == want


@pytest.mark.parametrize("damage", ["truncated", "no_result"])
def test_load_results_dir_names_damaged_trace(tmp_path, damage):
    cfg = RunConfig(planner=FAST, episodes=2, base_seed=5, policy=PolicyKind.NAIVE,
                    output_dir=str(tmp_path / "cell"))
    run_cell(cfg, workers=1)
    path = tmp_path / "cell" / "episodes" / "ep00001.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) >= 3 and json.loads(lines[-2])["type"] == "step"
    if damage == "truncated":  # cut mid-way through the result record
        path.write_text("\n".join(lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]))
    else:  # the last record is a step record
        path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="ep00001.jsonl"):
        load_results_dir(tmp_path / "cell")


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


def test_run_config_dict_round_trip_every_field():
    planner = PlannerConfig(n_b=7, q_th=0.65, n_stab=3, w_ig=0.5, w_exec=2.0, momentum=50.0,
                            reach_radius=0.9, exec_threshold=0.25, cam_spacing=0.4,
                            max_steps=77, step_size=0.15, utility_scale=500.0,
                            ig_unit_rays=50.0, torso_band=(1.0, 1.2), ig_downsample=4)
    cfg = RunConfig(planner=planner, scenario=SceneKind.COMPLEX, hard_grasps=True,
                    episodes=9, base_seed=42, policy=PolicyKind.BREYER_NBV,
                    output_dir="runs/x")
    for obj, default in ((planner, PlannerConfig()), (cfg, RunConfig())):
        for f in fields(obj):
            assert getattr(obj, f.name) != getattr(default, f.name), f.name
    doc = json.loads(json.dumps(asdict(cfg), default=str))
    assert run_config_from_dict(doc) == cfg


def test_config_hash_stable_and_output_independent():
    a = RunConfig(episodes=5)
    b = replace(a, output_dir="/somewhere/else")
    c = replace(a, episodes=6)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


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
    from actpermoma.scene import scene_from_json

    meta = trace[0]
    scene = scene_from_json(json.dumps(meta["scene"]))
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
    from actpermoma.scene import scene_from_json

    scene = scene_from_json(json.dumps(trace[0]["scene"]))
    out = render_topdown(scene, bare, tmp_path / "bare.svg")
    assert out.exists() and out.stat().st_size > 0


def test_render_trace_file_round_trip(tmp_path):
    cfg = RunConfig(planner=FAST, episodes=1, base_seed=4,
                    output_dir=str(tmp_path / "run"), policy=PolicyKind.NAIVE)
    run_cell(cfg, workers=1)
    trace_file = tmp_path / "run" / "episodes" / "ep00000.jsonl"
    out = render_trace_file(trace_file, tmp_path / "img.svg")
    assert out.read_text().startswith("<svg")


def test_cli_run_compare_render(tmp_path):
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
    with pytest.raises(InsufficientSamples):
        main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
              "--metric", "sr"])
    trace = next((tmp_path / "a").glob("**/ep*.jsonl"))
    rc = main(["render", "--trace", str(trace), "--out", str(tmp_path / "img.svg")])
    assert rc == 0
    assert (tmp_path / "img.svg").exists()
