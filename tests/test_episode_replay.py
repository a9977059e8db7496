"""Replay gate: an episode driven by its own recorded actions is the same episode.

`harness.run_episode_traced` is the one loop over `harness.Episode`, and the
policy is only its decision source.  For every policy, each episode of the
pinned experiment (complex scene, base seed 13, a 40-step budget) runs live
with the real `decide` wrapped to keep a digest of every belief it is given:
the target TSDF's cells, the occupancy cells and the stable grasps.  The live
trace must be the pinned one.  The episode then runs again with a fake policy
that returns, step by step, the action its trace recorded and sets that
step's recorded policy fields as its `last_trace`.  The replayed trace must
equal the live one record for record, and every belief the fake is given
must equal the live one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from test_traces_pinned import DIGESTS, SEED, trace_digest

import actpermoma.harness as harness
from actpermoma.geom import Pose2
from actpermoma.grasping import Arm
from actpermoma.harness import RunConfig, cell_name, run_episode_traced
from actpermoma.planning import PlannerConfig, camera_at
from actpermoma.policies import Abort, ExecuteGrasp, MoveStep, PolicyKind
from actpermoma.scene import SceneKind
from actpermoma.seeding import derive_seed

HARNESS_FIELDS = {"type", "step", "robot", "grasps", "action"}  # the rest is the policy's


def belief_digest(belief) -> str:
    h = hashlib.sha256()
    h.update(belief.target_tsdf.grid.cells.tobytes())
    h.update(belief.occ.cells.tobytes())
    h.update(repr([(g.voxel, g.quality, g.stable_for, g.arm, g.coverage, g.truth_index,
                    g.pose.position.tolist(), g.pose.orientation.tolist())
                   for g in belief.stable_grasps]).encode())
    h.update(repr((belief.robot, belief.step_index)).encode())
    return h.hexdigest()


class Replay:
    """A decision source that returns an episode's recorded actions in order."""

    def __init__(self, steps: list[dict], cfg: PlannerConfig, seed: int):
        self.steps = iter(steps)
        self.cfg = cfg
        self.cam_seed = derive_seed(seed, "torso")
        self.last_trace: dict = {}
        self.beliefs: list[str] = []

    def decide(self, belief):
        self.beliefs.append(belief_digest(belief))
        rec = next(self.steps)
        assert rec["step"] == belief.step_index
        self.last_trace = {k: v for k, v in rec.items() if k not in HARNESS_FIELDS}
        action = rec["action"]
        if action["kind"] == "move":
            base = Pose2(*action["to"])
            return MoveStep(base, camera_at(base.xy, belief.target_center, self.cam_seed,
                                            self.cfg.torso_band))
        if action["kind"] == "execute":
            voxel = tuple(action["grasp"]["voxel"])
            grasp = next(g for g in belief.stable_grasps if g.voxel == voxel)
            return ExecuteGrasp(replace(grasp, arm=Arm(action["grasp"]["arm"])))
        return Abort(action["reason"])


@pytest.mark.parametrize("kind", list(PolicyKind), ids=[k.value for k in PolicyKind])
def test_recorded_actions_replay_the_pinned_episodes(monkeypatch, kind):
    cfg = RunConfig(planner=PlannerConfig(max_steps=40), scenario=SceneKind.COMPLEX,
                    episodes=2, base_seed=SEED, policy=kind)
    real = harness.make_policy
    for index in range(cfg.episodes):
        live_beliefs: list[str] = []

        def recording(*args, **kwargs):
            policy = real(*args, **kwargs)
            decide = policy.decide
            policy.decide = lambda belief: (live_beliefs.append(belief_digest(belief))
                                            or decide(belief))
            return policy

        monkeypatch.setattr(harness, "make_policy", recording)
        live_result, live = run_episode_traced(cfg, index)
        assert trace_digest(live) == DIGESTS[f"{cell_name(cfg)}/episodes/ep{index:05d}.jsonl"]

        decided = [r for r in live if r["type"] == "step" and r["step"] < cfg.planner.max_steps]
        replays: list[Replay] = []
        monkeypatch.setattr(harness, "make_policy", lambda kind, planner, seed, maps:
                            replays.append(Replay(decided, planner, seed)) or replays[-1])
        result, replayed = run_episode_traced(cfg, index)
        assert result == live_result
        assert ([json.dumps(r, sort_keys=True) for r in replayed]
                == [json.dumps(r, sort_keys=True) for r in live])
        assert len(live_beliefs) == len(decided)
        assert replays[0].beliefs == live_beliefs
