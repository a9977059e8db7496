"""Command line entry points: run experiments, compare runs, render traces."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    EpisodeResult,
    RunConfig,
    Verdict,
    ablation_preset,
    cell_name,
    compare,
    load_results_dir,
    run_config_from_dict,
    run_experiment,
    summarize,
)
from .policies import PolicyKind
from .render import render_trace_file
from .scene import SceneKind


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        cfg = run_config_from_dict(doc)
    else:
        cfg = RunConfig()
    overrides = {}
    if args.policy is not None:
        overrides["policy"] = PolicyKind(args.policy)
    if args.scenario is not None:
        overrides["scenario"] = SceneKind(args.scenario)
    if args.hard_grasps:
        overrides["hard_grasps"] = True
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    return replace(cfg, **overrides)


def _failed_cells(directory: Path) -> str:
    """The `# failed cells:` line that covers a run directory (its own
    metrics.csv) or a cell directory (its parent's line naming it), or ""."""
    for csv_path, needle in ((directory / "metrics.csv", "# failed cells:"),
                             (directory.parent / "metrics.csv", f" {directory.name}: ")):
        lines = csv_path.read_text().splitlines() if csv_path.is_file() else []
        line = next((x for x in lines if x.startswith("# failed cells:")), "")
        if needle in line:
            return line
    return ""


def _load_run(directory: str | Path) -> list[EpisodeResult]:
    """A directory's episode results, refused (ValueError) when it holds no
    episode trace, so that a mistyped path does not read as a result, or a
    failed cell: such a cell keeps only the traces of the episodes that
    finished, and reading them would bias every rate."""
    failed = _failed_cells(Path(directory))
    if failed:
        raise ValueError(f"{directory}: {failed.removeprefix('# ')}")
    results = load_results_dir(directory)
    if not results:
        raise ValueError(f"no episode traces under {directory}")
    return results


def cmd_run(args: argparse.Namespace) -> int:
    """Exit 0 on a summarized cell, 1 when an episode failed, and 2 on a
    refused --config or --workers (nothing is written), an unwritable --out
    or an unreadable trace under it."""
    try:
        cfg = _build_run_config(args)
        csv_path = run_experiment([cfg], args.out, workers=args.workers)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path}")
    failed = _failed_cells(Path(args.out))
    if failed:
        print(f"error: {failed.removeprefix('# ')}", file=sys.stderr)
        return 1
    try:
        m = summarize(_load_run(Path(args.out) / cell_name(cfg)))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"SR {m.sr:.1f}%  AR {m.ar:.1f}%  GFR {m.gfr:.1f}%  "
          f"d {m.d_mean:.2f}+-{m.d_std:.2f} m  v {m.v_mean:.1f}+-{m.v_std:.1f}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Exit 0 on a significant verdict, 1 on an inconclusive one, and 2 when
    the runs cannot be compared (unpaired scenes, a failed cell, no traces)."""
    try:
        verdict, a_wins, b_wins = compare(_load_run(args.a), _load_run(args.b), args.metric)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"{verdict.value} {a_wins}:{b_wins}")
    return 0 if verdict is not Verdict.INCONCLUSIVE else 1


def cmd_ablate(args: argparse.Namespace) -> int:
    """Exit 0 when every cell ran, 1 when a cell failed, and 2 on a refused
    --seed, --episodes or --workers (nothing is written) or an unwritable
    --out."""
    try:
        cells = ablation_preset(args.preset, episodes=args.episodes, base_seed=args.seed)
        csv_path = run_experiment(cells, args.out, workers=args.workers)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path}")
    print(csv_path.read_text())
    failed = _failed_cells(Path(args.out))
    if failed:
        print(f"error: {failed.removeprefix('# ')}", file=sys.stderr)
        return 1
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    try:
        out = render_trace_file(args.trace, args.out)
    except (OSError, ValueError) as e:  # unreadable, or no scene to draw
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="actpermoma",
                                     description="active-perception mobile grasping sandbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment cell")
    p_run.add_argument("--policy", choices=[k.value for k in PolicyKind])
    p_run.add_argument("--scenario", choices=[k.value for k in SceneKind])
    p_run.add_argument("--hard-grasps", action="store_true")
    p_run.add_argument("--episodes", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--config", help="JSON config file mirroring RunConfig")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="paired exact comparison of two run directories")
    p_cmp.add_argument("--a", required=True)
    p_cmp.add_argument("--b", required=True)
    p_cmp.add_argument("--metric", required=True, choices=["sr", "ar", "gfr", "d", "v"])
    p_cmp.set_defaults(func=cmd_compare)

    p_abl = sub.add_parser("ablate", help="run a preset hyperparameter/ablation grid")
    p_abl.add_argument("--preset", required=True, choices=["table1", "table2"])
    p_abl.add_argument("--episodes", type=int, default=100)
    p_abl.add_argument("--seed", type=int, default=0)
    p_abl.add_argument("--out", required=True)
    p_abl.add_argument("--workers", type=int, default=None)
    p_abl.set_defaults(func=cmd_ablate)

    p_ren = sub.add_parser("render", help="render an episode trace to SVG")
    p_ren.add_argument("--trace", required=True)
    p_ren.add_argument("--out", required=True)
    p_ren.set_defaults(func=cmd_render)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
