"""Regenerate the expected outputs under ``perfbench/expected/``.

Usage, from the repository root::

    python3 perfbench/record_expected.py

Only a change that is meant to alter simulated results should do this,
and it says why in CHANGES.md. The simulation workloads are recorded for
every generated input variant. The sweep grid is recorded from serial,
in-process ``run_task`` calls and then checked against one parallel
sweep, so a stored cell is what a serial run produces.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.runtime.executor import SweepExecutor, run_task  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    EXPECTED_DIR,
    N_VARIANTS,
    WORKLOADS,
    SimWorkload,
    fingerprint,
)


def record_sim(wl: SimWorkload) -> dict:
    variants = {}
    for variant in range(N_VARIANTS):
        state = wl.setup(variant)
        variants[str(variant)] = wl.run_pass(state).results
        print(f"{wl.name}: variant {variant} recorded", flush=True)
    return {"scale": wl.scale, "variants": variants}


def record_sweep(wl) -> dict:
    tasks = wl.tasks()
    cells = {t.label: fingerprint(run_task(t)) for t in tasks}
    parallel = SweepExecutor(max_workers=wl.workers).run(tasks)
    for task, result in zip(tasks, parallel):
        if fingerprint(result) != cells[task.label]:
            raise SystemExit(f"{task.label}: parallel result differs from serial run_task")
    print(f"{wl.name}: {len(cells)} cells recorded", flush=True)
    return {"scale": wl.scale, "cells": cells}


def main() -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        if isinstance(wl, SimWorkload):
            data = record_sim(wl)
        elif name == "sweep_grid":
            data = record_sweep(wl)
        else:  # serve_closed_loop derives its expected decisions at set-up
            continue
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
