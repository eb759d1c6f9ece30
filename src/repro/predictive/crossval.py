"""Cross-validation of device-mapping models (paper §7.2).

"We use leave-one-out cross-validation to evaluate predictive models.  For
each benchmark, a model is trained on data from all other benchmarks and
used to predict the mapping for each kernel and dataset in the excluded
program.  We repeat this process with and without the addition of synthetic
benchmarks in the training data.  We do not test model predictions on
synthetic benchmarks."

Measurements are grouped by *benchmark program* so that every dataset class
of a program is held out together (no leakage between a program's datasets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.driver.harness import KernelMeasurement
from repro.predictive.metrics import PredictionOutcome
from repro.predictive.model import MappingModel

ModelFactory = Callable[[str], MappingModel]


@dataclass
class CrossValidationResult:
    """All prediction outcomes from one leave-one-benchmark-out run."""

    platform: str
    outcomes: list[PredictionOutcome] = field(default_factory=list)
    outcomes_by_benchmark: dict[str, list[PredictionOutcome]] = field(default_factory=dict)
    folds: int = 0

    @property
    def accuracy(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.correct for o in self.outcomes) / len(self.outcomes)


def group_by_benchmark(
    measurements: list[KernelMeasurement], benchmark_of: Callable[[KernelMeasurement], str] | None = None
) -> dict[str, list[KernelMeasurement]]:
    """Group measurements by their benchmark program name."""
    groups: dict[str, list[KernelMeasurement]] = {}
    for measurement in measurements:
        key = benchmark_of(measurement) if benchmark_of else measurement.name.split(".")[0]
        groups.setdefault(key, []).append(measurement)
    return groups


def leave_one_benchmark_out(
    measurements_by_benchmark: dict[str, list[KernelMeasurement]],
    model_factory: ModelFactory,
    platform: str,
    extra_training: list[KernelMeasurement] | None = None,
) -> CrossValidationResult:
    """Run leave-one-benchmark-out cross-validation.

    Args:
        measurements_by_benchmark: Test observations grouped by program; every
            program is excluded from training in its own fold.
        model_factory: Builds a fresh untrained model for a platform.
        platform: Platform name ("AMD" or "NVIDIA").
        extra_training: Additional training-only observations (e.g. CLgen
            synthetic benchmarks); never used as test data.

    Returns:
        A :class:`CrossValidationResult` with per-observation outcomes.
    """
    extra_training = extra_training or []
    result = CrossValidationResult(platform=platform)

    # Every fold's model extracts features the same way, so each measurement's
    # row is extracted once here and shared by all the folds it appears in.
    features_of = model_factory(platform).features_of
    benchmarks = sorted(measurements_by_benchmark)
    rows_by_benchmark = {
        benchmark: [features_of(m) for m in measurements_by_benchmark[benchmark]]
        for benchmark in benchmarks
    }
    extra_rows = [features_of(m) for m in extra_training]

    for held_out in benchmarks:
        test_measurements = measurements_by_benchmark[held_out]
        training: list[KernelMeasurement] = []
        training_rows: list[list[float]] = []
        for other in benchmarks:
            if other != held_out:
                training.extend(measurements_by_benchmark[other])
                training_rows.extend(rows_by_benchmark[other])
        training.extend(extra_training)
        training_rows.extend(extra_rows)
        if not training or not test_measurements:
            continue

        model = model_factory(platform)
        # A training set with a single class still produces a usable
        # (constant) model; the decision tree handles that case natively.
        model.fit(training, training_rows)

        fold_outcomes = [
            PredictionOutcome(
                measurement=measurement,
                predicted_device=model.predict(measurement, row),
                platform=platform,
            )
            for measurement, row in zip(test_measurements, rows_by_benchmark[held_out])
        ]
        result.outcomes.extend(fold_outcomes)
        result.outcomes_by_benchmark[held_out] = fold_outcomes
        result.folds += 1
    return result


def train_test_split_evaluation(
    train: list[KernelMeasurement],
    test: list[KernelMeasurement],
    model_factory: ModelFactory,
    platform: str,
) -> CrossValidationResult:
    """Train on one set of measurements and evaluate on another.

    Used by the Table 1 experiment (train on suite X, test on suite Y).
    """
    result = CrossValidationResult(platform=platform)
    if not train or not test:
        return result
    model = model_factory(platform)
    model.fit(train)
    result.outcomes = [
        PredictionOutcome(
            measurement=measurement,
            predicted_device=model.predict(measurement),
            platform=platform,
        )
        for measurement in test
    ]
    result.folds = 1
    return result
