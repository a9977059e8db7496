"""Set-up probe: a fresh interpreter that runs a workload's first episode up
to its first control step and prints the perf_counter() value of that step.

The caller takes perf_counter() just before starting this process (the clock
is system-wide on Linux), so the difference covers interpreter start, the
imports, the reachability maps, the first scene, the grasp detector, the TSDF
grids and the first fused view; on the pooled workload also the process
pool start.  The first `Policy.decide` entry ends the episode with an Abort,
so the probe stops right after set-up.

    python3 perfbench/probe.py <workload> <seed> <seconds> <tmp_dir>
"""

import os
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from actpermoma import harness, policies  # noqa: E402


def main() -> None:
    name, seed, seconds, tmp = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), Path(sys.argv[4])

    def first_step(policy, belief):
        stamp = tmp / f"first-{os.getpid()}"
        if not stamp.exists():
            stamp.write_text(repr(perf_counter()))
        return policies.Abort("set-up probe")

    for cls in set(policies._POLICIES.values()):
        cls.decide = first_step
    if name in workloads.POOLED:
        workers = workloads.pool_workers()
        cell = workloads.ablate_cells(seed, seconds)[0]
        harness.run_experiment([replace(cell, episodes=max(workers, 2))], tmp / "run",
                               workers=workers)
    else:
        _, cfg, idx = workloads.serial_items(name, seed, seconds)[0]
        harness.run_episode_traced(cfg, idx)
    print(min(float(p.read_text()) for p in tmp.glob("first-*")))


if __name__ == "__main__":
    main()
