"""Pin reference results and exact work counts into perfbench/reference.json.

    python3 perfbench/pin.py --workload ablate_table2 --seeds 0-10 [--seconds 25]

Runs the workload's traced pass serially for each seed (ablate_table2 with
one worker, so pooled runs are later checked against serial ones) and merges
the per-episode (outcome, steps, d_total, v_total) and the exact work counts
into the reference file.  Re-pin only when the workload definitions change;
a pin taken after a program change would hide the change from the check.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    pinned = {}
    run.OUT.mkdir(exist_ok=True)
    for seed in range(first, last + 1):
        tmp = Path(tempfile.mkdtemp(prefix="pin-", dir=run.OUT))
        try:
            p = run.run_pass(args.workload, seed, args.seconds, tmp, True, workers=1)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        failed = run.check(args.workload, seed, args.seconds, [p], None)
        if failed:
            sys.exit(f"seed {seed}: not pinned, episodes failed: {failed}")
        pinned[str(seed)] = {
            "seconds": args.seconds,
            "results": {k: workloads.result_row(r) for k, r in p.results.items()},
            "counts": run.exact_counts(p)}
        print(f"pinned {args.workload} seed {seed}: {len(p.results)} episodes", flush=True)
    doc = run.load_reference() or {"workloads": {}}
    doc["workloads"].setdefault(args.workload, {}).update(pinned)
    run.REFERENCE.write_text(dump(doc))


def dump(doc: dict) -> str:
    """Indented JSON with each list of scalars (one episode's row) on one line."""
    text = json.dumps(doc, indent=1, sort_keys=True)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


if __name__ == "__main__":
    main()
