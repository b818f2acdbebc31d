#!/usr/bin/env python3
"""Train a sensitivity model from recorded telemetry and serve it back.

The learned-predictor loop, end to end and in-process:

1. record observation traces for a few designs (the multi-design mix
   gives the trainer frequency coverage a single design's own choices
   never provide),
2. extract a supervised dataset (features of epoch t, oracle line of
   epoch t+1),
3. train the online-RLS model and version it in a registry,
4. close the loop: run the LEARNED design against the baselines it is
   supposed to beat, with oracle scoring on.

Run:  python examples/learned_predictor.py
"""

import tempfile
from pathlib import Path

from repro.config import small_config
from repro.learn import (
    ModelRegistry,
    OnlineRLSModel,
    compare_designs,
    extract_dataset,
    offline_metrics,
)
from repro.runtime.executor import SweepTask, run_task
from repro.obs import Tracer

#: Designs whose traces feed the trainer. Static points pin the ends of
#: the frequency range; the dynamic designs add realistic phase mixes.
RECORDING_DESIGNS = ("PCSTALL", "STATIC@1.3", "STATIC@2.2")


def record_trace(path: Path, design: str, config) -> None:
    task = SweepTask("dgemm", design, config, scale=0.2,
                     max_epochs=60, oracle_sample_freqs=3,
                     collect_accuracy=True)
    with Tracer(jsonl_path=str(path), observations=True) as tracer:
        run_task(task, tracer=tracer)


def main() -> None:
    config = small_config(n_cus=2, waves_per_cu=4, epoch_ns=1000.0)

    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        traces = []
        for design in RECORDING_DESIGNS:
            path = scratch / f"{design.replace('@', '_')}.jsonl"
            record_trace(path, design, config)
            traces.append(path)
        print(f"recorded {len(traces)} observation trace(s)")

        dataset = extract_dataset(traces, eval_fraction=0.25)
        print(f"extracted {len(dataset)} rows "
              f"({dataset.n_train} train / {dataset.n_eval} eval), "
              f"hash {dataset.content_hash()[:12]}...")

        train = dataset.rows("train")
        model = OnlineRLSModel.train(
            dataset.features[train],
            dataset.next_f[train],
            dataset.next_commits[train],
            labels=dataset.labels[train],
            anchor_freqs=dataset.frequency_range(),
        )
        m = offline_metrics(model, dataset, split="eval")
        print(f"held-out relative error: p50 {m['rel_p50']:.3f}, "
              f"p90 {m['rel_p90']:.3f}")

        registry = ModelRegistry(scratch / "models")
        artifact_id = registry.save(
            model, {"dataset_hash": dataset.content_hash()}, name="example"
        )
        print(f"registry artifact {artifact_id[:16]}... (ref 'example')\n")

        # Reload through the registry - exactly what LEARNED@example does.
        served, _ = registry.load("example")
        report = compare_designs(
            served, "dgemm", config,
            baselines=("STATIC@1.7", "CRISP"),
            dataset=dataset, scale=0.2, max_epochs=60,
            oracle_sample_freqs=3,
        )
        print(report.render())
        print("\nLEARNED should sit near ORACLE on ED2P, ahead of the "
              "static point it was never tuned for.")


if __name__ == "__main__":
    main()
