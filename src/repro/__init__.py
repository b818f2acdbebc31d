"""repro: a reproduction of "Predict; Don't React for Enabling Efficient
Fine-Grain DVFS in GPUs" (PCSTALL, ASPLOS 2023).

Public API tour:

* :mod:`repro.config` - platform configuration (``small_config`` /
  ``paper_config``).
* :mod:`repro.gpu` - the GPU timing-simulator substrate.
* :mod:`repro.power` - power/energy model.
* :mod:`repro.core` - sensitivity metric, estimation models, the PC
  table, predictors, objectives, controller.
* :mod:`repro.dvfs` - the fork-and-pre-execute oracle, design registry,
  end-to-end simulation.
* :mod:`repro.workloads` - the 16-app synthetic suite.
* :mod:`repro.analysis` - experiment drivers for every paper figure.
* :mod:`repro.runtime` - parallel sweep executor, on-disk result cache,
  sweep instrumentation.
* :mod:`repro.telemetry` - zero-overhead-when-off observability:
  mergeable metrics registry, per-epoch decision trace, Perfetto
  export, prediction-accuracy drill-down.
* :mod:`repro.service` - the online decision service: ``repro serve``
  exposes PCSTALL (any servable design) over a length-prefixed JSON
  protocol with micro-batching and backpressure; ``repro replay``
  verifies it against offline traces bit-for-bit.
* :mod:`repro.validation` - differential validation: post-hoc invariant
  auditors over run artifacts, cross-checkers for the repo's
  bit-exactness claims, and the executable specs behind the property
  suites; wired into ``repro check``.

Quickstart::

    from repro import small_config, make_controller, DvfsSimulation
    from repro.workloads import workload, build_workload
    from repro.core import EDnPObjective

    cfg = small_config()
    kernels = build_workload(workload("comd"), scale=0.5)
    ctrl = make_controller("PCSTALL", cfg, EDnPObjective(2))
    result = DvfsSimulation(kernels, ctrl, cfg).run()
    print(result.ed2p, result.prediction_accuracy)
"""

from repro.config import (
    DvfsConfig,
    GpuConfig,
    MemoryConfig,
    PowerConfig,
    SimConfig,
    default_frequency_grid,
    paper_config,
    small_config,
)
from repro.dvfs import DESIGN_NAMES, DvfsSimulation, OracleSampler, make_controller
from repro.runtime import ResultCache, SweepExecutor, SweepInstrumentation, SweepTask
from repro.obs import Tracer
from repro.telemetry import AccuracyReport, MetricsRegistry

__version__ = "1.10.0"

__all__ = [
    "DvfsConfig",
    "GpuConfig",
    "MemoryConfig",
    "PowerConfig",
    "SimConfig",
    "default_frequency_grid",
    "paper_config",
    "small_config",
    "DESIGN_NAMES",
    "DvfsSimulation",
    "OracleSampler",
    "make_controller",
    "ResultCache",
    "SweepExecutor",
    "SweepInstrumentation",
    "SweepTask",
    "AccuracyReport",
    "MetricsRegistry",
    "Tracer",
    "__version__",
]
