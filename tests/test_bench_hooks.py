"""The benchmark's timing hooks patch package attributes from outside.

`perfbench/hooks.py` wraps functions by module attribute name, so renaming or
removing a hooked name breaks only the traced benchmark runs.  Installing and
uninstalling the layer hooks here makes such a change fail the unit tests.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import actpermoma.policies as policies

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
