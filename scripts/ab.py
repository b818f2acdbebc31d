"""A/B the benchmark: a git revision against this working tree, on one machine.

Usage, from the repository root::

    python scripts/ab.py REV [--workload NAME ...]

REV is checked out into a temporary detached git worktree, removed again
on exit. For each workload (default: every one in ``BENCHMARK.json``),
each tree runs its own ``perfbench/run.py`` for ``PAIRS`` pairs at the
declared ``run_seconds``. Both runs of a pair share a seed, and which
tree goes first alternates from pair to pair, so host-speed drift falls
on both sides alike.

For each end-to-end metric the table gives both medians, their ratio
(change / parent), the parent's interquartile range (IQR) and the
change's wins/ties/losses over the pairs, with a verdict; ``better``
and ``bound`` come from ``BENCHMARK.json``:

* ``gain``: the change wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's IQR;
* ``regressed``: the change's median is worse than the parent's by
  more than ``bound`` (relative to the parent's median);
* ``unresolved``: the parent's IQR is wider than ``bound``, so such a
  regression could hide in the noise, unless every run of the change
  is better than every run of the parent;
* ``flat``: none of these.

The exit status is 1 when a run reports ``correct: false`` (or prints
no result line) or a metric regressed, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
GAIN_SHARE = 0.9


@contextmanager
def worktree(rev: str) -> Iterator[Path]:
    """A detached checkout of ``rev`` in a temporary directory."""
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    tree = tmp / "parent"
    try:
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(tree), rev],
                       cwd=ROOT, check=True)
        yield tree
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


def run_perfbench(command: Sequence[str], tree: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    """One untraced run of ``tree``'s benchmark: its result line.

    A run that exits nonzero or prints no result line is not correct.
    """
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    result["correct"] = result.get("correct") is True and proc.returncode == 0
    return result


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> dict:
    """Compare paired runs of one metric (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    scale = abs(med_p)
    if wins >= GAIN_SHARE * len(parent) and sign * (med_c - med_p) > iqr:
        name = "gain"
    elif sign * (med_p - med_c) > bound * scale:
        name = "regressed"
    elif iqr > bound * scale and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        name = "unresolved"
    else:
        name = "flat"
    return {"parent": med_p, "change": med_c, "ratio": med_c / med_p, "iqr": iqr,
            "wins": wins, "ties": len(parent) - wins - losses, "losses": losses,
            "verdict": name}


def report(workload: str, runs: Dict[str, List[dict]], declared: List[dict]) -> bool:
    """Print one workload's table; True when no metric regressed."""
    print(f"\n{workload}: {len(runs['parent'])} pairs")
    print(f"  {'metric':<22} {'parent':>12} {'change':>12} {'ratio':>8} "
          f"{'parent IQR':>11} {'W/T/L':>9}  verdict")
    ok = True
    for m in declared:
        name = m["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if len(pairs) < 2:
            print(f"  {name:<22} {'(fewer than 2 complete pairs)':>55}")
            continue
        v = verdict([p for p, _ in pairs], [c for _, c in pairs], m["better"], m["bound"])
        ok = ok and v["verdict"] != "regressed"
        print(f"  {name:<22} {v['parent']:>12.6g} {v['change']:>12.6g} "
              f"{v['ratio']:>7.3f}x {v['iqr']:>11.4g} "
              f"{v['wins']:>3}/{v['ties']}/{v['losses']:<3}  {v['verdict']}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against (the parent)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run; repeat for several (default: all)")
    args = parser.parse_args(argv)

    workloads = args.workload or names
    seconds = spec["run_seconds"]
    runs = {w: {"parent": [], "change": []} for w in workloads}
    with worktree(args.rev) as parent_tree:
        for w in workloads:
            for i in range(PAIRS):
                order = [("parent", parent_tree), ("change", ROOT)]
                if i % 2:
                    order.reverse()
                for side, tree in order:
                    result = run_perfbench(spec["command"], tree, w, i + 1, seconds)
                    runs[w][side].append(result)
                    print(f"{w} pair {i + 1}/{PAIRS} seed {i + 1} {side}: "
                          f"correct {result['correct']}", file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        ok = report(w, runs[w], spec["end_to_end"]) and ok
        bad = sum(not r["correct"] for side in runs[w].values() for r in side)
        if bad:
            print(f"  {bad} run(s) not correct")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
