"""Determinism contract: a fixed experiment writes byte-identical files.

All six policies run two complex-scene episodes each under a 40-step budget
from base seed 13 on a two-worker pool.  The SHA-256 of `metrics.csv` and of
every episode trace is pinned, so any change to scene generation, rendering,
fusion, traversal, goal poses, grasp triggers or the trace writer that moves
a single output byte fails here.  A change that means to alter the outputs
re-pins the digests and says which outputs changed and why.  The digests are
those of the numpy/BLAS build the suite runs on; a different build may round
the last bit of a float differently.

Every episode of that run ends within 40 steps, so `TAIL_DIGESTS` also pins
episodes that run to a 150-step budget: for ActPerMoMa and for NoWeights,
from base seed 13 on the complex scene, the first two episodes that reach
the budget (by episode index).  They pin what acts only late in an episode,
such as the view cache on long walks, the camera-pose cache and the route
cache across many goal epochs.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor

from actpermoma.harness import RunConfig, run_episode_traced, run_experiment
from actpermoma.planning import PlannerConfig
from actpermoma.policies import PolicyKind
from actpermoma.scene import SceneKind

SEED = 13

DIGESTS = {
    "metrics.csv": "cecbdcb3e41ca611a98fbf85baeb68f8837694693fc699ef9dc5fd2577d502ea",
    "ActPerMoMaIgOnly_complex_952423/episodes/ep00000.jsonl": "bb95659d9527ca4cecdcd5dc2f41a2542b507544ac73d7c1efe04bea6c07cb11",
    "ActPerMoMaIgOnly_complex_952423/episodes/ep00001.jsonl": "24e2a1adbb5f599e73196ca24c8dc837a3c97756a22dd8a373234398c77f1285",
    "ActPerMoMaNoWeights_complex_2c7b8b/episodes/ep00000.jsonl": "5b2f254f5767fcfee1bdfe81d6d1eb23c754478282e9afc222a224528631ff2d",
    "ActPerMoMaNoWeights_complex_2c7b8b/episodes/ep00001.jsonl": "cbb01bf8fad4dabeb7f182b865a56b75963131a58001a6623f9bafc0707f7c98",
    "ActPerMoMa_complex_4f24b8/episodes/ep00000.jsonl": "68d6f7943a3b35a03bd8fb1015b82d9e6291d88493e98bec1894d4cf64485ec4",
    "ActPerMoMa_complex_4f24b8/episodes/ep00001.jsonl": "b213c91447586dc6f7c1f401a8a2daa228d7f6952364ed62c85f1ea2e8cbcc03",
    "BreyerNbv_complex_fc49ed/episodes/ep00000.jsonl": "bea9e4f6d40a8ca643be0be00ac8ea95c67a61d40080f3f33857c78b18c5427d",
    "BreyerNbv_complex_fc49ed/episodes/ep00001.jsonl": "8b7bc767373698d277f3ccfcb346844df101acd6ef200c06717a558156801eae",
    "Naive_complex_14dab9/episodes/ep00000.jsonl": "5c99cfd7e8337e11f289bf29694fafa373efe9be7d348b85aa56218a718c8d35",
    "Naive_complex_14dab9/episodes/ep00001.jsonl": "84c94cf724bf8625f828ab1faf699cd82d39210f0d014837bc07b90dda8ded9d",
    "Random_complex_ba8f8a/episodes/ep00000.jsonl": "8f2575a166d1156bf09da7f69fd1072edc285c7e2ea777411d8be1ac02ce175b",
    "Random_complex_ba8f8a/episodes/ep00001.jsonl": "4dd6adacc85f38520daa249ac23e2ee78ae0d37b800ef7ba77247379b5594663",
}

TAIL_STEPS = 150
# (policy, episode index) -> trace_digest, the episodes of 11-episode cells
# (their config hash is in each trace); scene seed = SEED + episode index
TAIL_DIGESTS = {
    (PolicyKind.ACTPERMOMA, 2): "8b4197c024b54b6ecec0089a899464b71f9bd340dbff6e6a031cdacf2dac2504",
    (PolicyKind.ACTPERMOMA, 10): "9d52b3d8bbc71794e65b19be902465dce71e064bdad41f30ce797c401c9f3051",
    (PolicyKind.NO_WEIGHTS, 0): "2262ea02be638fcd6086f40f25f0c24e9b7ce12983af184b02d930bb1a2c3111",
    (PolicyKind.NO_WEIGHTS, 2): "80b0fc05e61f9b1ef32e5e74d990cee98e7dae9f0f973a4d7f18ee0538a18807",
}


def trace_digest(trace: list[dict]) -> str:
    """The SHA-256 of the trace as its episode file is written."""
    doc = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in trace)
    return hashlib.sha256(doc.encode()).hexdigest()


def test_fixed_experiment_outputs_are_pinned(tmp_path):
    cells = [RunConfig(planner=PlannerConfig(max_steps=40), scenario=SceneKind.COMPLEX,
                       episodes=2, base_seed=SEED, policy=kind) for kind in PolicyKind]
    run_experiment(cells, tmp_path, workers=2)
    files = [tmp_path / "metrics.csv", *sorted(tmp_path.glob("*/episodes/ep*.jsonl"))]
    got = {f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
           for f in files}
    # the run exercises both grasp triggers: the baselines' and ActPerMoMa's
    executed = {f.parts[-3].split("_")[0] for f in files[1:]
                if any(json.loads(line).get("action", {}).get("kind") == "execute"
                       for line in f.read_text().splitlines())}
    assert {"ActPerMoMa", "Naive", "Random", "BreyerNbv"} <= executed
    assert got == DIGESTS


def test_tail_episodes_are_pinned():
    cells = {kind: RunConfig(planner=PlannerConfig(max_steps=TAIL_STEPS),
                             scenario=SceneKind.COMPLEX, episodes=11, base_seed=SEED,
                             policy=kind) for kind, _ in TAIL_DIGESTS}
    # two workers, the longest episodes first
    keys = sorted(TAIL_DIGESTS, key=lambda key: key[0] is not PolicyKind.NO_WEIGHTS)
    with ProcessPoolExecutor(max_workers=2) as pool:
        runs = pool.map(run_episode_traced, [cells[k] for k, _ in keys], [i for _, i in keys])
        got = {key: (result.steps, trace_digest(trace)) for key, (result, trace) in zip(keys, runs)}
    assert got == {key: (TAIL_STEPS, digest) for key, digest in TAIL_DIGESTS.items()}
