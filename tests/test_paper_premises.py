"""The paper's two premises, checked at tier-1 scale.

``benchmarks/`` checks these at quick-figure settings; these
small-config versions make a simulator change that breaks a premise
PCSTALL is built on fail fast.

* Fig. 5 - commits are near-linear in frequency (paper: mean r^2 0.82).
* Fig. 10 - epochs starting at the same PC repeat their sensitivity far
  better than consecutive epochs do (paper: ~10% vs ~37% change).
"""

from repro.analysis.experiments import (
    ExperimentSetup,
    fig05_linearity,
    fig10_pc_repeatability,
)
from repro.config import small_config


def setup(*workloads: str) -> ExperimentSetup:
    return ExperimentSetup(
        config=small_config(), workloads=workloads, scale=0.3, oracle_sample_freqs=4
    )


def test_fig05_commits_linear_in_frequency():
    result = fig05_linearity(setup("comd", "dgemm"), sample_epochs=(2, 5, 9))
    # The bound benchmarks/test_fig05_linearity.py holds.
    assert result.mean_r_squared > 0.7


def test_fig10_same_pc_repeats_better_than_consecutive():
    apps = ("comd", "xsbench")
    result = fig10_pc_repeatability(setup(*apps), apps=apps, max_epochs=30)
    # The inequalities benchmarks/test_fig10_pc_repeatability.py holds.
    assert result.per_granularity["wf"] < result.consecutive_wf * 0.8
    assert result.per_granularity["gpu"] < result.consecutive_wf
