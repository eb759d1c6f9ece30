"""One set-up or one timed job of a workload, in a process of its own.

    python -m perfbench.job setup --workload W --scale S --seed N --out FILE
    python -m perfbench.job job --workload W --scale S --seed N --inputs FILE \
        [--check] [--trace --spans FILE]

``run.py`` starts this with ``src`` and the repository root on
``PYTHONPATH``.  A fresh process per job means every job starts with the
in-process compile, candidate, execution and preprocessing caches cold, as
a fresh ``repro`` invocation does.  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pickle
import resource
import sys
import time

from perfbench import WORKLOADS, spans, workloads


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _import_layers() -> None:
    """Import every layer a job calls, so no job pays for an import."""
    for module_name, _, _ in spans.TARGETS:
        importlib.import_module(module_name)
    importlib.import_module("repro.suites.registry")
    importlib.import_module("repro.predictive.crossval")


def run_setup(args, config) -> dict:
    _import_layers()
    inputs = workloads.setup(args.workload, config)
    with open(args.out, "wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return {"digest": workloads.inputs_digest(args.workload, inputs)}


def run_job(args, config) -> dict:
    _import_layers()
    with open(args.inputs, "rb") as handle:
        inputs = workloads.prepare(args.workload, pickle.load(handle), args.seed)
    job = workloads.JOBS[args.workload]
    wrapper = spans.Tracer() if args.trace else spans.Checkpoints()
    gc.collect()
    wrapper.install()
    cpu_started = _cpu_seconds()
    started = time.perf_counter_ns()
    try:
        output = job(config, inputs)
    finally:
        ended = time.perf_counter_ns()
        cpu_s = _cpu_seconds() - cpu_started
        wrapper.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = workloads.summarize(args.workload, inputs, output)

    failures = workloads.check(args.workload, config, inputs, result, args.seed) if args.check else []
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    report = {
        "job_s": (ended - started) / 1e9,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "items": result.items,
        "operations": result.operations,
        "completed": result.completed,
        "failures": len(failures),
        "digest": result.digest,
        "latencies_ms": result.latencies_ms,
    }
    if args.trace:
        report["layers"] = spans.layer_metrics(wrapper, result.facts)
        wrapper.write(args.spans)
    else:
        report["segments"] = wrapper.segments(started, ended)
        report["calls_digest"] = wrapper.digest()
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "job"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", help="setup: where to write the job inputs")
    parser.add_argument("--inputs", help="job: the inputs a setup wrote")
    parser.add_argument("--check", action="store_true", help="job: run the output checks")
    parser.add_argument("--trace", action="store_true", help="job: record layer spans")
    parser.add_argument("--spans", help="job: where a traced job writes its spans")
    args = parser.parse_args(argv)

    config = workloads.stage_config(args.scale, args.workload, args.seed)
    report = run_setup(args, config) if args.role == "setup" else run_job(args, config)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
