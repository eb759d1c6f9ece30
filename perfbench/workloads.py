"""The three workloads: their set-up, their timed job and their output checks.

Every workload runs at the paper-scale ``ExperimentConfig.full()`` settings
(150 mined repositories, 1000 requested kernels, global size 128, local
size 32); ``scale="tiny"`` swaps in ``ExperimentConfig.quick()`` for the
benchmark's own tests.  The experiment itself — mined corpus, sampled
kernel set, measurements — is that configuration's, fixed, and the
workload seed makes each job's inputs from it:

* ``pipeline`` — set-up is the imports; the job is the cold chain mine →
  preprocess → train → sample → execute through ``PipelineRunner`` with an
  in-memory store.  The seed is the driver's payload seed.
* ``measure`` — set-up synthesizes the kernel set; the job hands the source
  texts to a fresh ``HostDriver`` and measures every suite benchmark on its
  datasets, then every synthetic kernel on every dataset scale.  The seed
  orders the kernel texts.
* ``predict`` — set-up produces the suite and synthetic measurements; the
  job runs the Figure 7 leave-one-benchmark-out cross-validation for the
  Grewe and extended models on both platforms, with and without the
  synthetic kernels.  The seed orders the synthetic training measurements.

In ``pipeline`` and ``measure`` the seed also picks the kernels the output
checks re-run.
One seed always gives the same inputs.  Kernel sampling is not seeded from
it: which kernels a seed samples moves the measure and predict job times
by more than the benchmark's bounds.

A job returns its raw output; ``summarize`` turns that into a
:class:`JobResult` after the clock stops, and ``check`` lists every way it
is wrong (an empty list means correct).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.experiments.common import ExperimentConfig, benchmark_name_of
from repro.store.artifact_store import ArtifactStore
from repro.store.stages import PipelineConfig, PipelineRunner, warm_phases

#: Synthetic kernels per ``pipeline`` or ``measure`` job re-run on the
#: reference interpreter.
ORACLE_KERNELS = 3

PLATFORMS = ("AMD", "NVIDIA")


@dataclass
class JobResult:
    """What one timed job produced."""

    #: Units of finished work: kernels (pipeline), measurements (measure),
    #: cross-validation fits (predict).
    items: int
    #: Operations attempted, and how many returned a kept result.
    operations: int
    completed: int
    #: Fingerprint of the job's outputs; equal for every job of one run.
    digest: str
    #: Layer numbers the job knows without tracing (statistics, results).
    facts: dict[str, float] = field(default_factory=dict)
    #: Wall milliseconds of each ``HostDriver.measure_source`` call (measure).
    latencies_ms: list[float] = field(default_factory=list)
    #: The outputs the checks inspect.
    output: dict = field(default_factory=dict)


def stage_config(scale: str, workload: str, seed: int) -> PipelineConfig:
    """The pipeline configuration of *workload* at *scale* and *seed*."""
    experiment = ExperimentConfig.full() if scale == "full" else ExperimentConfig.quick()
    config = PipelineConfig.from_experiment(experiment)
    if workload == "pipeline":
        config = replace(config, payload_seed=seed)
    return config


def _runner() -> PipelineRunner:
    """A runner over a fresh in-memory store, unsharded."""
    return PipelineRunner(store=ArtifactStore(directory=None))


def measurement_digest(measurements) -> str:
    """A fingerprint of everything a measurement reports."""
    digest = hashlib.sha256()
    for m in measurements:
        record = (
            m.name,
            m.kernel_name,
            m.dataset_scale,
            m.transfer_bytes,
            sorted(m.oracles.items()),
            sorted((platform, sorted(times.items())) for platform, times in m.runtimes.items()),
            dataclasses.asdict(m.stats),
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


def pipeline_digest(kernels, measurements) -> str:
    """A fingerprint of a pipeline job's kernel sources and measurements."""
    digest = hashlib.sha256(measurement_digest(measurements).encode())
    for kernel in kernels:
        digest.update(kernel.source.encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Set-up: builds the inputs a job receives.
# ---------------------------------------------------------------------------


def setup(workload: str, config: PipelineConfig):
    """Build the job inputs of *workload* (picklable)."""
    if workload == "pipeline":
        return {}
    runner = _runner()
    if workload == "measure":
        return {"sources": runner.synthesis(config).sources}
    suites = runner.suite_measurements(config).suite_measurements
    return {"suites": suites, "synthetic": runner.synthetic_measurements(config)}


def inputs_digest(workload: str, inputs: dict) -> str:
    """A fingerprint of set-up output, to check that set-up is deterministic."""
    if workload == "measure":
        return hashlib.sha256(repr(inputs["sources"]).encode()).hexdigest()
    if workload == "predict":
        suites = [m for name in sorted(inputs["suites"]) for m in inputs["suites"][name]]
        return measurement_digest(suites + inputs["synthetic"])
    return ""


def prepare(workload: str, inputs: dict, seed: int) -> dict:
    """Turn loaded set-up output into exactly what the job consumes.

    Runs in the job's process before the clock starts: the measure job gets
    its list of suite calls and its seeded kernel order, and unpickled
    measurements get back the compilation they carried when set-up produced
    them, in seeded order.
    """
    if workload == "measure":
        from repro.suites.registry import all_suites

        order = list(range(len(inputs["sources"])))
        random.Random(seed).shuffle(order)
        inputs["order"] = order
        inputs["suite_calls"] = [
            (benchmark.source, f"{benchmark.qualified_name}.{dataset.name}", dataset.scale)
            for suite in all_suites()
            for benchmark in suite.benchmarks
            for dataset in benchmark.datasets
        ]
    elif workload == "predict":
        for suite in inputs["suites"].values():
            for measurement in suite:
                measurement.compilation  # noqa: B018 - materializes the lazy attribute
        for measurement in inputs["synthetic"]:
            measurement.compilation  # noqa: B018
        random.Random(seed).shuffle(inputs["synthetic"])
    return inputs


# ---------------------------------------------------------------------------
# Timed jobs.
# ---------------------------------------------------------------------------


def run_pipeline(config: PipelineConfig, inputs: dict) -> dict:
    runner = _runner()
    return {
        "corpus": runner.corpus(config),
        "trained": runner.trained_model(config),
        "synthesis": runner.synthesis(config),
        "suites": runner.suite_measurements(config).suite_measurements,
        "synthetic": runner.synthetic_measurements(config),
        "events": runner.events,
    }


def run_measure(config: PipelineConfig, inputs: dict) -> dict:
    from repro.driver.harness import DriverConfig, HostDriver

    driver = HostDriver(
        config=DriverConfig(
            executed_global_size=config.executed_global_size,
            local_size=config.local_size,
            payload_seed=config.payload_seed,
        )
    )
    calls = list(inputs["suite_calls"])
    calls.extend(
        (inputs["sources"][index], f"clgen.{index}", scale)
        for index in inputs["order"]
        for scale in config.dataset_scales
    )
    measurements = []
    latencies_ms = []
    clock = time.perf_counter
    for source, name, scale in calls:
        started = clock()
        measurement = driver.measure_source(source, name=name, dataset_scale=scale)
        latencies_ms.append((clock() - started) * 1e3)
        if measurement is not None:
            measurements.append(measurement)
    return {"calls": len(calls), "measurements": measurements, "latencies_ms": latencies_ms}


def run_predict(config: PipelineConfig, inputs: dict) -> dict:
    from repro.predictive.crossval import group_by_benchmark, leave_one_benchmark_out
    from repro.predictive.model import ExtendedModel, GreweModel

    suites = inputs["suites"]
    grouped = group_by_benchmark(suites.get("NPB", []), benchmark_name_of)
    others = [m for name in sorted(suites) if name != "NPB" for m in suites[name]]
    with_clgen = others + inputs["synthetic"]
    results = {}
    for factory in (GreweModel, ExtendedModel):
        for platform in PLATFORMS:
            for training, extra in (("baseline", others), ("clgen", with_clgen)):
                results[(factory.__name__, platform, training)] = leave_one_benchmark_out(
                    grouped, factory, platform, extra_training=extra
                )
    return {"results": results, "grouped": grouped}


JOBS = {"pipeline": run_pipeline, "measure": run_measure, "predict": run_predict}


# ---------------------------------------------------------------------------
# Summaries of a job's output, made after the clock stops.
# ---------------------------------------------------------------------------


def summarize(workload: str, inputs: dict, output: dict) -> JobResult:
    return SUMMARIES[workload](inputs, output)


def _summarize_pipeline(inputs: dict, output: dict) -> JobResult:
    from repro.suites.registry import all_suites

    suites = output["suites"]
    suite_list = [m for name in sorted(suites) for m in suites[name]]
    synthetic = output["synthetic"]
    stats = output["synthesis"].statistics
    corpus_stats = output["corpus"].statistics
    suite_calls = sum(
        len(benchmark.datasets) for suite in all_suites() for benchmark in suite.benchmarks
    )
    operations = suite_calls + len(output["synthesis"].kernels)
    completed = len(suite_list) + len(synthetic)
    return JobResult(
        items=len(synthetic),
        operations=operations,
        completed=completed,
        digest=pipeline_digest(output["synthesis"].kernels, suite_list + synthetic),
        facts={
            "corpus.files": corpus_stats.content_files,
            "preprocess.accept_ratio": corpus_stats.accepted_files
            / max(1, corpus_stats.content_files),
            "synthesis.attempts": stats.attempts,
            "synthesis.duplicates": stats.duplicates,
            "synthesis.accept_ratio": stats.generated / max(1, stats.attempts),
            "synthesis.unique_yield": stats.generated / max(1, stats.requested),
            "model.characters": stats.characters_sampled,
            "driver.excluded": operations - completed,
        },
        output=output,
    )


def _summarize_measure(inputs: dict, output: dict) -> JobResult:
    measurements = output["measurements"]
    return JobResult(
        items=len(measurements),
        operations=output["calls"],
        completed=len(measurements),
        digest=measurement_digest(measurements),
        facts={"driver.excluded": output["calls"] - len(measurements)},
        latencies_ms=output["latencies_ms"],
        output=output,
    )


def _summarize_predict(inputs: dict, output: dict) -> JobResult:
    results = output["results"]
    outcomes = [outcome for result in results.values() for outcome in result.outcomes]
    digest = hashlib.sha256()
    for key in sorted(results):
        for outcome in results[key].outcomes:
            digest.update(repr((key, outcome.measurement.name, outcome.predicted_device)).encode())
    return JobResult(
        items=sum(result.folds for result in results.values()),
        operations=len(outcomes),
        completed=sum(1 for outcome in outcomes if outcome.predicted_device in ("cpu", "gpu")),
        digest=digest.hexdigest(),
        facts={
            "predictive.fig7_amd": figure7_improvement(results, "AMD"),
            "predictive.fig7_nvidia": figure7_improvement(results, "NVIDIA"),
            "features.measurements": sum(len(m) for m in inputs["suites"].values())
            + len(inputs["synthetic"]),
        },
        output=output,
    )


def figure7_improvement(results: dict, platform: str) -> float:
    """Figure 7: Grewe et al. with CLgen over without, geometric means."""
    from repro.predictive.metrics import geometric_mean, speedup_over_static

    static_device = "cpu" if platform == "AMD" else "gpu"
    averages = []
    for training in ("baseline", "clgen"):
        outcomes = results[("GreweModel", platform, training)].outcomes
        averages.append(geometric_mean(speedup_over_static(outcomes, static_device)))
    return averages[1] / averages[0] if averages[0] else 0.0


SUMMARIES = {
    "pipeline": _summarize_pipeline,
    "measure": _summarize_measure,
    "predict": _summarize_predict,
}


# ---------------------------------------------------------------------------
# Output checks.  Each returns one message per wrong output.
# ---------------------------------------------------------------------------


def check(workload: str, config: PipelineConfig, inputs: dict, result: JobResult, seed: int) -> list[str]:
    return CHECKS[workload](config, inputs, result, seed)


def check_pipeline(config, inputs, result: JobResult, seed: int) -> list[str]:
    from repro.clc import compile_source
    from repro.errors import CompileError
    from repro.preprocess.shim import shim_include_resolver, with_shim

    failures = []
    synthesis = result.output["synthesis"]
    stats = synthesis.statistics
    if stats.generated + stats.rejected != stats.attempts:
        failures.append(
            f"synthesis statistics: generated {stats.generated} + rejected "
            f"{stats.rejected} != attempts {stats.attempts}"
        )
    if stats.generated != len(synthesis.kernels):
        failures.append(f"statistics count {stats.generated} kernels, batch has {len(synthesis.kernels)}")
    warm = warm_phases(result.output["events"])
    if warm:
        failures.append(f"store hits from an earlier session in phases {warm}")
    for index, kernel in enumerate(synthesis.kernels):
        try:
            compiled = compile_source(
                with_shim(kernel.source), include_resolver=shim_include_resolver, strict=False
            )
        except CompileError as error:
            failures.append(f"kernel {index} does not recompile: {error}")
            continue
        if not compiled.unit.kernels:
            failures.append(f"kernel {index} recompiles to no kernel")
    names = [m.name for m in result.output["synthetic"]]
    if len(set(names)) != len(names):
        failures.append("duplicate synthetic measurement names")
    suites = result.output["suites"]
    measurements = [m for name in sorted(suites) for m in suites[name]] + result.output["synthetic"]
    sources = [kernel.source for kernel in synthesis.kernels]
    failures.extend(oracle_failures(config, sources, measurements, seed))
    return failures


def check_measure(config, inputs, result: JobResult, seed: int) -> list[str]:
    return oracle_failures(config, inputs["sources"], result.output["measurements"], seed)


def oracle_failures(config, sources: list[str], measurements: list, seed: int) -> list[str]:
    """Every measurement carries a device label per platform, and a seeded
    subset of the kernels ``clgen.<index>`` of *sources* agrees with the
    reference interpreter: same buffers and ``ExecutionStats`` from
    ``engine="interpreter"`` as from ``engine="auto"``, and the same stats
    as the measurements reported."""
    failures = []
    for m in measurements:
        if set(m.oracles) != set(PLATFORMS) or not set(m.oracles.values()) <= {"cpu", "gpu"}:
            failures.append(f"{m.name}: oracle labels {m.oracles}")
    by_name: dict[str, list] = {}
    for m in measurements:
        by_name.setdefault(m.name, []).append(m)
    for index in oracle_indices(len(sources), seed):
        name = f"clgen.{index}"
        failures.extend(_oracle_mismatches(config, sources[index], name, by_name.get(name, [])))
    return failures


def oracle_indices(count: int, seed: int) -> list[int]:
    """The synthetic kernels a job's checks re-run on the interpreter."""
    return random.Random(seed).sample(range(count), min(ORACLE_KERNELS, count))


def _oracle_mismatches(config, source: str, name: str, reported: list) -> list[str]:
    from repro.driver.harness import DriverConfig, kernel_work_dim
    from repro.driver.payload import PayloadConfig, PayloadGenerator
    from repro.errors import CompileError, ExecutionError, KernelTimeoutError
    from repro.execution.cache import cached_compile_source, run_kernel
    from repro.preprocess.shim import shim_include_resolver, with_shim

    try:
        unit = cached_compile_source(
            with_shim(source), include_resolver=shim_include_resolver, strict=False
        ).unit
    except CompileError:
        return [f"{name}: measured but does not compile"] if reported else []
    kernel = unit.kernels[0]
    generator = PayloadGenerator(
        PayloadConfig(
            global_size=config.executed_global_size,
            local_size=config.local_size,
            seed=config.payload_seed,
        )
    )
    outputs = {}
    for engine in ("interpreter", "auto"):
        payload = generator.generate(kernel, work_dim=kernel_work_dim(kernel))
        try:
            execution = run_kernel(
                unit,
                payload.pool,
                payload.scalar_args,
                payload.ndrange,
                kernel_name=kernel.name,
                max_steps_per_item=DriverConfig().max_steps_per_item,
                engine=engine,
            )
        except (KernelTimeoutError, ExecutionError) as error:
            outputs[engine] = type(error).__name__
            continue
        buffers = {key: buffer.to_list() for key, buffer in payload.pool.buffers.items()}
        outputs[engine] = (buffers, dataclasses.asdict(execution.stats))
    reference, candidate = outputs["interpreter"], outputs["auto"]
    if isinstance(reference, str) or isinstance(candidate, str):
        if reference != candidate:
            return [f"{name}: interpreter {reference!r:.40} but auto {candidate!r:.40}"]
        return [f"{name}: measured but the interpreter fails"] if reported else []
    failures = []
    if reference[1] != candidate[1]:
        failures.append(f"{name}: ExecutionStats differ between interpreter and auto")
    if not _same_buffers(reference[0], candidate[0]):
        failures.append(f"{name}: buffers differ between interpreter and auto")
    if not reported:
        failures.append(f"{name}: runs on the interpreter but was excluded")
    for measurement in reported:
        if dataclasses.asdict(measurement.stats) != reference[1]:
            failures.append(
                f"{name} at scale {measurement.dataset_scale}: reported ExecutionStats "
                "differ from the interpreter's"
            )
    return failures


def _same_value(a, b) -> bool:
    from repro.execution import VectorValue

    if isinstance(a, VectorValue) and isinstance(b, VectorValue):
        return a.element_kind == b.element_kind and all(
            _same_value(x, y) for x, y in zip(a.values, b.values)
        )
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    return type(a) is type(b) and a == b


def _same_buffers(reference: dict, candidate: dict) -> bool:
    if reference.keys() != candidate.keys():
        return False
    return all(
        len(reference[key]) == len(candidate[key])
        and all(_same_value(a, b) for a, b in zip(reference[key], candidate[key]))
        for key in reference
    )


def check_predict(config, inputs, result: JobResult, seed: int) -> list[str]:
    """Every held-out measurement gets exactly one prediction per cross-validation."""
    failures = []
    grouped = result.output["grouped"]
    expected = Counter(m.name for group in grouped.values() for m in group)
    for key, cv in result.output["results"].items():
        predicted = Counter(outcome.measurement.name for outcome in cv.outcomes)
        if predicted != expected:
            failures.append(f"{key}: predictions {sum(predicted.values())} for {len(expected)} held-out measurements")
        if cv.folds != len(grouped):
            failures.append(f"{key}: {cv.folds} folds for {len(grouped)} benchmarks")
        invalid = [o for o in cv.outcomes if o.predicted_device not in ("cpu", "gpu")]
        if invalid:
            failures.append(f"{key}: {len(invalid)} predictions name no device")
    return failures


CHECKS = {"pipeline": check_pipeline, "measure": check_measure, "predict": check_predict}
