"""The benchmark driver: execute kernels and gather performance data.

This is the right-hand half of Figure 4: synthesized (or suite) benchmarks
plus generated payloads are executed and profiled, producing the
measurements that the feature extractor and the predictive model consume.
Execution happens on the NDRange interpreter at a modest size; runtimes for
the paper's CPU/GPU platforms are then estimated by the analytic device
models on a profile scaled to the requested dataset size, which is how this
reproduction covers the paper's 128 B – 130 MB payload range without
executing millions of work-items in Python.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

from repro.clc import CompilationResult
from repro.clc.ast_nodes import Call, walk
from repro.driver.checker import CheckOutcome, DynamicChecker, DynamicCheckResult
from repro.driver.payload import Payload, PayloadConfig, PayloadGenerator
from repro.errors import CompileError, ExecutionError, KernelTimeoutError
from repro.execution.cache import cached_compile_source, run_kernel
from repro.execution.device import KernelProfile, Platform, all_platforms
from repro.execution.interpreter import ExecutionStats
from repro.preprocess.shim import shim_include_resolver, with_shim


@dataclass
class KernelMeasurement:
    """One kernel's complete measurement record.

    Pickles slim: the embedded :class:`CompilationResult` is a pure function
    of ``source`` (via the shimmed frontend cache) and dominates the pickled
    size by an order of magnitude, so ``__getstate__`` drops it and the
    ``compilation`` attribute is recompiled lazily on first access after
    unpickling.  Everything downstream — the feature extractor is the sole
    consumer — sees an identical object because the recompile is the exact
    call that produced the original.
    """

    name: str
    source: str
    kernel_name: str
    compilation: CompilationResult
    stats: ExecutionStats
    profile: KernelProfile
    executed_global_size: int
    dataset_scale: float
    transfer_bytes: float
    work_group_size: int
    runtimes: dict[str, dict[str, float]] = field(default_factory=dict)
    oracles: dict[str, str] = field(default_factory=dict)
    check: DynamicCheckResult | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("compilation", None)
        return state

    def __getattr__(self, name: str):
        if name == "compilation":
            compilation = cached_compile_source(
                with_shim(self.source),
                include_resolver=shim_include_resolver,
                strict=False,
            )
            self.compilation = compilation
            return compilation
        raise AttributeError(name)

    def runtime(self, platform: str, device: str) -> float:
        return self.runtimes[platform][device]

    def oracle(self, platform: str) -> str:
        return self.oracles[platform]

    def speedup_of(self, platform: str, device: str) -> float:
        """Speedup of choosing *device* over the other device on *platform*."""
        times = self.runtimes[platform]
        other = "gpu" if device == "cpu" else "cpu"
        return times[other] / max(times[device], 1e-12)


@dataclass
class DriverConfig:
    """Host-driver configuration."""

    executed_global_size: int = 256
    local_size: int = 64
    dataset_scale: float = 1.0
    payload_seed: int = 0
    max_steps_per_item: int = 50_000
    run_dynamic_check: bool = False
    #: Execution engine: "auto" (default) runs vectorizable kernels on the
    #: lockstep SIMT tier and everything else (plus dynamic bailouts) on the
    #: closure engine; "compiled" forces the closure engine; "interpreter"
    #: forces the legacy tree walker.
    engine: str = "auto"
    #: Worker processes for :meth:`HostDriver.measure_many`.  0 (default)
    #: measures sequentially; the ``REPRO_MEASURE_WORKERS`` environment
    #: variable supplies a default when unset.  Kernel measurement is
    #: embarrassingly parallel across *distinct* kernels, so the pool pays
    #: off for large synthetic batches (workers do not share the in-process
    #: execution caches).
    measure_workers: int = 0
    #: Standard deviation of the multiplicative log-normal measurement noise
    #: applied to every runtime estimate.  Real systems are noisy (the paper
    #: averages five repetitions per measurement); a deterministic,
    #: per-kernel noise term keeps the simulated world from being perfectly
    #: learnable from a handful of observations.
    measurement_noise: float = 0.25


@dataclass
class _ExecutionRecord:
    """Everything one execution contributes to any number of measurements.

    Execution is deterministic given (source, kernel, launch config, payload
    seed); dataset scales only rescale the resulting profile.  Caching the
    record means a benchmark measured across five datasets executes once.
    """

    compilation: CompilationResult
    kernel_name: str
    stats: ExecutionStats
    coalesced_fraction: float
    transfer_bytes: float
    work_group_size: int
    transfer_count: int
    #: The unscaled profile, built once per execution: dataset scales only
    #: rescale it, so N datasets share one ``KernelProfile.from_stats``.
    base_profile: KernelProfile = None  # type: ignore[assignment]


class HostDriver:
    """Executes and profiles kernels on the simulated platforms."""

    #: Bound on the per-driver execution-record cache.
    _EXECUTION_CACHE_LIMIT = 4096

    def __init__(
        self,
        platforms: list[Platform] | None = None,
        config: DriverConfig | None = None,
    ):
        self.platforms = platforms or all_platforms()
        self.config = config or DriverConfig()
        #: (source sha1, kernel name) -> _ExecutionRecord | None (None caches
        #: a compile/execution failure so it is not retried per dataset).
        self._execution_cache: dict[tuple[str, str | None], _ExecutionRecord | None] = {}
        #: Payload generation is configured once per driver; the generator
        #: itself is stateless across ``generate`` calls (each draws from a
        #: fresh seeded RNG), so one instance serves the whole batch.
        self._generator = PayloadGenerator(
            PayloadConfig(
                global_size=self.config.executed_global_size,
                local_size=self.config.local_size,
                seed=self.config.payload_seed,
            )
        )
        self._checker = DynamicChecker(
            payload_config=PayloadConfig(
                global_size=min(self.config.executed_global_size, 128),
                local_size=self.config.local_size,
                seed=self.config.payload_seed,
            ),
            max_steps_per_item=self.config.max_steps_per_item,
            engine=self.config.engine,
        )

    # ------------------------------------------------------------------

    def measure_source(
        self,
        source: str,
        name: str | None = None,
        kernel_name: str | None = None,
        dataset_scale: float | None = None,
    ) -> KernelMeasurement | None:
        """Compile, execute and profile one kernel.

        Returns ``None`` when the kernel cannot be compiled or executed —
        callers (the experiment harness) treat that as "benchmark excluded",
        mirroring how a crashing benchmark would be dropped from a study.
        """
        scale = self.config.dataset_scale if dataset_scale is None else dataset_scale
        record = self._execution_record(source, kernel_name)
        if record is None:
            return None

        profile = record.base_profile.scaled(scale)

        runtimes: dict[str, dict[str, float]] = {}
        oracles: dict[str, str] = {}
        for platform in self.platforms:
            times = platform.runtimes(profile)
            times = {
                device: value
                * self._noise_factor(name or record.kernel_name, platform.name, device)
                for device, value in times.items()
            }
            runtimes[platform.name] = times
            oracles[platform.name] = "cpu" if times["cpu"] <= times["gpu"] else "gpu"

        check = None
        if self.config.run_dynamic_check:
            check = self._checker.check(record.compilation.unit, record.kernel_name)

        return KernelMeasurement(
            name=name or record.kernel_name,
            source=source,
            kernel_name=record.kernel_name,
            compilation=record.compilation,
            stats=dataclasses.replace(record.stats),
            profile=profile,
            executed_global_size=self.config.executed_global_size,
            dataset_scale=scale,
            transfer_bytes=record.transfer_bytes * scale,
            work_group_size=record.work_group_size,
            runtimes=runtimes,
            oracles=oracles,
            check=check,
        )

    def _execution_record(
        self, source: str, kernel_name: str | None
    ) -> _ExecutionRecord | None:
        """Compile and execute *source* once; repeats are served from cache.

        Executions are deterministic for a fixed driver configuration, so a
        benchmark measured across N dataset scales (or repeatedly by several
        experiments) pays for one execution.  Failures are cached too —
        ``None`` mirrors the "benchmark excluded" contract.
        """
        key = (hashlib.sha1(source.encode("utf-8", "replace")).hexdigest(), kernel_name)
        if key in self._execution_cache:
            return self._execution_cache[key]

        record = self._execute_for_record(source, kernel_name)
        if len(self._execution_cache) >= self._EXECUTION_CACHE_LIMIT:
            self._execution_cache.clear()
        self._execution_cache[key] = record
        return record

    def _execute_for_record(
        self, source: str, kernel_name: str | None
    ) -> _ExecutionRecord | None:
        try:
            compilation = cached_compile_source(
                with_shim(source), include_resolver=shim_include_resolver, strict=False
            )
        except CompileError:
            return None
        kernels = compilation.unit.kernels
        if not kernels:
            return None
        kernel = compilation.unit.kernel(kernel_name) if kernel_name else kernels[0]

        work_dim = self._kernel_work_dim(kernel)
        payload = self._generator.generate(kernel, work_dim=work_dim)

        try:
            execution = run_kernel(
                compilation.unit,
                payload.pool,
                payload.scalar_args,
                payload.ndrange,
                kernel_name=kernel.name,
                max_steps_per_item=self.config.max_steps_per_item,
                engine=self.config.engine,
            )
        except (KernelTimeoutError, ExecutionError):
            return None

        ir_kernel = self._ir_function(compilation, kernel.name)
        coalesced_fraction = 1.0
        if ir_kernel is not None and ir_kernel.global_memory_accesses > 0:
            coalesced_fraction = (
                ir_kernel.coalesced_memory_accesses / ir_kernel.global_memory_accesses
            )

        base_profile = KernelProfile.from_stats(
            execution.stats,
            coalesced_fraction=coalesced_fraction,
            transfer_bytes=float(payload.transfer_bytes),
            work_group_size=payload.ndrange.work_group_size,
            transfer_count=payload.transfer_count,
        )
        return _ExecutionRecord(
            compilation=compilation,
            kernel_name=kernel.name,
            stats=execution.stats,
            coalesced_fraction=coalesced_fraction,
            transfer_bytes=float(payload.transfer_bytes),
            work_group_size=payload.ndrange.work_group_size,
            transfer_count=payload.transfer_count,
            base_profile=base_profile,
        )

    def measure_benchmark(self, benchmark) -> list[KernelMeasurement]:
        """Measure one suite benchmark across all of its datasets.

        *benchmark* is any object with ``source``, ``qualified_name`` and
        ``datasets`` (each with ``name`` and ``scale``) — i.e. a
        :class:`repro.suites.registry.Benchmark`, duck-typed so this layer
        stays independent of the suites registry.  This is the single
        implementation behind both the experiment harness and the stage
        graph's ``execute`` stage.
        """
        measurements = []
        for dataset in benchmark.datasets:
            measurement = self.measure_source(
                benchmark.source,
                name=f"{benchmark.qualified_name}.{dataset.name}",
                dataset_scale=dataset.scale,
            )
            if measurement is not None:
                measurements.append(measurement)
        return measurements

    def measure_many(
        self,
        sources: list[str],
        names: list[str] | None = None,
        dataset_scales: list[float] | None = None,
        workers: int | None = None,
    ) -> list[KernelMeasurement]:
        """Measure several kernels, silently skipping failures.

        With ``workers > 1`` (explicit argument, ``DriverConfig.measure_workers``
        or the ``REPRO_MEASURE_WORKERS`` environment variable) the batch is
        fanned out over a process pool, one fresh driver per worker; results
        come back in input order, identical to a sequential run because each
        measurement is deterministic in (source, config).  Falls back to
        sequential measurement if the pool cannot be used (e.g. an
        unpicklable measurement).
        """
        workers = self._resolve_workers(workers)
        if workers > 1 and len(sources) > 1:
            import pickle
            import warnings
            from concurrent.futures import BrokenExecutor

            try:
                return self._measure_many_parallel(sources, names, dataset_scales, workers)
            except (pickle.PicklingError, AttributeError, TypeError, OSError,
                    ImportError, BrokenExecutor) as error:
                # Unpicklable configs/measurements or an unusable pool: fall
                # back to in-process measurement, but say so — a silently
                # dead opt-in would rot undetected.
                warnings.warn(
                    f"measure_many worker pool unavailable ({error!r}); measuring sequentially",
                    RuntimeWarning,
                    stacklevel=2,
                )
        # Batched measure loop: the job list is zipped once, and the
        # per-measurement fixed costs (payload generator, unscaled profile)
        # live on the driver, shared across the batch.
        measure = self.measure_source
        measurements = [
            measurement
            for source, name, scale in self._batch_jobs(sources, names, dataset_scales)
            if (measurement := measure(source, name=name, dataset_scale=scale)) is not None
        ]
        return measurements

    @staticmethod
    def _batch_jobs(
        sources: list[str],
        names: list[str] | None,
        dataset_scales: list[float] | None,
    ) -> list[tuple[str, str | None, float | None]]:
        """Zip one (source, name, scale) job tuple per batch entry."""
        return [
            (source, names[index] if names else None,
             dataset_scales[index] if dataset_scales else None)
            for index, source in enumerate(sources)
        ]

    def _resolve_workers(self, workers: int | None) -> int:
        if workers is not None:
            return max(workers, 0)
        if self.config.measure_workers:
            return max(self.config.measure_workers, 0)
        # Malformed values fall back to 0 (sequential) with a warning
        # rather than crashing a measurement batch over an env typo.
        from repro.envutil import env_int

        return env_int("REPRO_MEASURE_WORKERS", default=0, minimum=0)

    def _measure_many_parallel(
        self,
        sources: list[str],
        names: list[str] | None,
        dataset_scales: list[float] | None,
        workers: int,
    ) -> list[KernelMeasurement]:
        from concurrent.futures import ProcessPoolExecutor

        jobs = self._batch_jobs(sources, names, dataset_scales)
        workers = min(workers, len(jobs))
        chunk_size = (len(jobs) + workers - 1) // workers
        chunks = [jobs[at:at + chunk_size] for at in range(0, len(jobs), chunk_size)]
        # Workers rebuild the driver from its (picklable) configuration; the
        # worker pool is scoped to the call so no idle processes linger.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                _measure_chunk_worker,
                [(self.config, self.platforms, chunk) for chunk in chunks],
            )
            measurements: list[KernelMeasurement] = []
            for chunk_result in results:
                measurements.extend(m for m in chunk_result if m is not None)
        return measurements

    def check_useful(self, source: str) -> DynamicCheckResult:
        """Run only the dynamic checker on *source* (used by the synthesizer).

        The source is compiled through the shimmed frontend cache first and
        the parsed unit threaded into the checker, so the four differential
        executions reuse the cached compilation (and its engine artifacts)
        instead of re-parsing the text.
        """
        try:
            compilation = cached_compile_source(
                with_shim(source), include_resolver=shim_include_resolver, strict=False
            )
        except CompileError:
            return self._checker.check_source(source)
        return self._checker.check_source(source, unit=compilation.unit)

    # ------------------------------------------------------------------

    def _noise_factor(self, name: str, platform: str, device: str) -> float:
        """Deterministic log-normal measurement noise for one runtime."""
        if self.config.measurement_noise <= 0:
            return 1.0
        digest = hashlib.sha256(
            f"{name}|{platform}|{device}|{self.config.payload_seed}".encode("utf-8")
        ).digest()
        # Two uniform draws from the digest -> one standard normal (Box–Muller).
        u1 = (int.from_bytes(digest[:8], "big") / 2**64) or 1e-12
        u2 = int.from_bytes(digest[8:16], "big") / 2**64
        normal = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return math.exp(self.config.measurement_noise * normal)

    @staticmethod
    def _kernel_work_dim(kernel) -> int:
        return kernel_work_dim(kernel)

    @staticmethod
    def _ir_function(compilation: CompilationResult, kernel_name: str):
        try:
            return compilation.ir.function(kernel_name)
        except KeyError:
            return None


def kernel_work_dim(kernel) -> int:
    """Detect 2D kernels by their use of dimension-1 work-item queries.

    The static analyzer mirrors this rule (``DivergenceAnalysis.multi_dim``)
    and the soundness harness dispatches with it, so all three layers agree
    on which kernels get a 2-D NDRange.
    """
    if kernel.body is None:
        return 1
    for node in walk(kernel.body):
        if isinstance(node, Call) and node.callee in (
            "get_global_id",
            "get_group_id",
            "get_local_id",
        ):
            if node.arguments:
                argument = node.arguments[0]
                value = getattr(argument, "value", None)
                if value == 1:
                    return 2
    return 1


def _measure_chunk_worker(task) -> list[KernelMeasurement | None]:
    """Process-pool entry point: measure a chunk of sources on a fresh driver."""
    config, platforms, jobs = task
    driver = HostDriver(platforms=platforms, config=config)
    return [
        driver.measure_source(source, name=name, dataset_scale=scale)
        for source, name, scale in jobs
    ]


def is_useful_benchmark(result: DynamicCheckResult) -> bool:
    """Convenience predicate for filtering synthesized kernels (§5.2)."""
    return result.outcome is CheckOutcome.USEFUL
