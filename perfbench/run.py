"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim_designs --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every operation's output was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench"


def declared_metrics(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def execute(wl, seed: int, seconds: float, trace: bool) -> int:
    """Measure ``wl`` and print the table and the result line."""
    from perfbench.workloads import measure

    spans_path = SPANS_DIR / f"spans-{wl.name}-seed{seed}.json" if trace else None
    report = measure(wl, seed, seconds, trace, spans_path)
    declared = declared_metrics(trace)
    missing = [m["name"] for m in declared if m["name"] not in report.metrics]
    if missing:
        raise RuntimeError(f"{wl.name}: no value for {', '.join(missing)}")

    print(f"workload {wl.name}  seed {seed}  trace {int(trace)}")
    metrics = {}
    for m in declared:
        value = float(report.metrics[m["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"{wl.name}: {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = report.samples.get(m["name"], "")
        print(f"  {m['name']:<28} {value:>16.6g} {m['unit']:<8} {note}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if report.correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    return execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
