"""Figure 7: the Grewe et al. model on NPB, with and without CLgen benchmarks.

Leave-one-benchmark-out cross-validation over the NPB programs and their
problem classes, trained (a) on the other suite benchmarks only and (b) with
the CLgen synthetic benchmarks added to the training set.  Speedups are
reported relative to the best single-device static mapping on each platform.
The paper's headline: adding the synthetic benchmarks lifts the average from
1.26× to 1.57× on AMD and from 2.50× to 3.26× on NVIDIA — a 1.27× geometric
improvement across both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentData,
    benchmark_name_of,
    measure_suites,
    synthesize_and_measure,
)
from repro.predictive.crossval import group_by_benchmark, leave_one_benchmark_out
from repro.predictive.metrics import (
    best_static_device,
    geometric_mean,
    mean_speedup,
    speedup_over_static,
)
from repro.predictive.model import GreweModel


@dataclass
class Figure7Platform:
    """One platform's bars: per-observation speedups with/without CLgen."""

    platform: str
    static_device: str
    baseline_speedups: dict[str, float] = field(default_factory=dict)
    with_clgen_speedups: dict[str, float] = field(default_factory=dict)
    #: The device each observation was mapped to, without and with CLgen.
    baseline_predictions: dict[str, str] = field(default_factory=dict)
    with_clgen_predictions: dict[str, str] = field(default_factory=dict)

    @property
    def baseline_average(self) -> float:
        return geometric_mean(list(self.baseline_speedups.values()))

    @property
    def with_clgen_average(self) -> float:
        return geometric_mean(list(self.with_clgen_speedups.values()))

    @property
    def improvement(self) -> float:
        if self.baseline_average == 0:
            return 0.0
        return self.with_clgen_average / self.baseline_average

    @property
    def fraction_improved(self) -> float:
        """Fraction of observations whose prediction improved with CLgen."""
        improved = 0
        total = 0
        for name, baseline in self.baseline_speedups.items():
            total += 1
            if self.with_clgen_speedups.get(name, 0.0) > baseline + 1e-9:
                improved += 1
        return improved / total if total else 0.0


@dataclass
class Figure7Result:
    """Both platforms (the two panels of Figure 7)."""

    platforms: dict[str, Figure7Platform] = field(default_factory=dict)

    @property
    def overall_improvement(self) -> float:
        """Geometric-mean improvement across both platforms (paper: 1.27×)."""
        values = [panel.improvement for panel in self.platforms.values() if panel.improvement > 0]
        return geometric_mean(values)


def run_figure7(
    config: ExperimentConfig | None = None,
    data: ExperimentData | None = None,
    platforms: tuple[str, ...] = ("AMD", "NVIDIA"),
) -> Figure7Result:
    """Regenerate Figure 7."""
    config = config or ExperimentConfig()
    if data is None:
        data = measure_suites(config)
        data = synthesize_and_measure(config, data)
    elif not data.synthetic_measurements:
        data = synthesize_and_measure(config, data)

    npb = data.suite_measurements.get("NPB", [])
    other_suites = [
        measurement
        for suite, measurements in data.suite_measurements.items()
        if suite != "NPB"
        for measurement in measurements
    ]
    grouped = group_by_benchmark(npb, benchmark_name_of)

    result = Figure7Result()
    for platform in platforms:
        static_device = "cpu" if platform == "AMD" else "gpu"
        panel = Figure7Platform(platform=platform, static_device=static_device)

        baseline_cv = leave_one_benchmark_out(
            grouped, GreweModel, platform, extra_training=other_suites
        )
        clgen_cv = leave_one_benchmark_out(
            grouped,
            GreweModel,
            platform,
            extra_training=other_suites + data.synthetic_measurements,
        )
        for outcome in baseline_cv.outcomes:
            panel.baseline_speedups[outcome.measurement.name] = speedup_over_static(
                [outcome], static_device
            )[0]
            panel.baseline_predictions[outcome.measurement.name] = outcome.predicted_device
        for outcome in clgen_cv.outcomes:
            panel.with_clgen_speedups[outcome.measurement.name] = speedup_over_static(
                [outcome], static_device
            )[0]
            panel.with_clgen_predictions[outcome.measurement.name] = outcome.predicted_device
        result.platforms[platform] = panel
    return result
