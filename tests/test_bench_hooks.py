"""The benchmark's timing hooks patch package attributes from outside.

`perfbench/hooks.py` wraps functions by module attribute name, with the
signatures they have, so renaming a hooked name or changing how the package
calls it breaks only the traced benchmark runs.  Installing and uninstalling
the layer hooks here, and running an episode of every policy under them,
makes such a change fail the unit tests.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import actpermoma.harness as harness
import actpermoma.policies as policies
from actpermoma.harness import RunConfig
from actpermoma.planning import PlannerConfig
from actpermoma.policies import PolicyKind
from actpermoma.scene import SceneKind

HOOKS = Path(__file__).resolve().parent.parent / "perfbench" / "hooks.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_hooks_install_and_restore(tmp_path):
    hooks = load_hooks()
    rec = hooks.Recorder(tmp_path, layers=True)
    try:
        hooks.install_layer_hooks(rec)
        patches = list(rec._undo)
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, (owner, attr)
        # the step hooks time every policy's decide, where its class defines it
        patched = {(owner, attr) for owner, attr, _ in patches}
        for cls in policies._POLICIES.values():
            owner = next(c for c in cls.__mro__ if "decide" in c.__dict__)
            assert (owner, "decide") in patched, cls
    finally:
        rec.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)


@pytest.mark.parametrize("kind", list(PolicyKind), ids=[k.value for k in PolicyKind])
def test_a_hooked_episode_equals_the_unhooked_one(tmp_path, kind):
    # a 2-step episode of every policy, each run from an empty scene record
    # so that every hooked layer is called: the hooks change no result and
    # no trace record
    cfg = RunConfig(planner=PlannerConfig(max_steps=2), scenario=SceneKind.COMPLEX,
                    base_seed=3, policy=kind)
    harness._SCENE_VIEWS.clear()
    want = harness.run_episode_traced(cfg, 0)
    hooks = load_hooks()
    rec = hooks.Recorder(tmp_path, layers=True)
    try:
        hooks.install_layer_hooks(rec)
        harness._SCENE_VIEWS.clear()
        got = harness.run_episode_traced(cfg, 0)
    finally:
        rec.uninstall()
    assert got == want
    assert rec.counts["integrate_depth.target.voxels"] > 0
    assert len(rec.episodes) == 1 and rec.episodes[0]["decides"]
