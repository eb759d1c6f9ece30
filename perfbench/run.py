"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {pipeline,measure,predict} \
        --seed N --seconds S --trace {0,1} [--scale full|tiny]

Run from anywhere inside a checkout; the repository root is the parent of
this directory.  The command:

1. clears every ``REPRO_*`` variable, so the default program runs;
2. runs the workload's set-up 3 times (once with ``--trace 1``), each in a
   fresh process, and checks that every set-up built the same inputs;
3. runs timed jobs, each in a fresh process pinned to one CPU, until *S*
   seconds have passed: one job on each of up to two CPUs at a time (at
   least one job; with ``--trace 1`` one CPU, and untraced and traced jobs
   alternate, at least one of each);
4. checks the first job's outputs, and that all jobs produced the same
   outputs;
5. prints, as its last line, ``{"correct", "attempted", "failed",
   "metrics"}`` with each metric's value and unit.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``:
``setup_s`` is the median set-up, ``job_s`` sums the fastest repetition of
each segment of the job (:func:`fastest_job_s`), the others are medians
over jobs.  ``--trace 1`` reports its ``per_layer`` metrics (medians over
traced jobs), ``trace_overhead``, and the CPU time and measure-call
latencies of the untraced jobs.  Scratch files and the last
traced job's spans go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Untraced jobs run on up to this many CPUs at once, one job per CPU.
LANES = 2
#: Stop starting jobs once a run would pass this many seconds.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 120.0


class ChildFailed(RuntimeError):
    """A set-up or job process exited with an error."""


def child_env() -> dict[str, str]:
    """The environment of every child: default program, single-threaded."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    return env


class Child:
    """One ``perfbench.job`` process, pinned to *cpu* if one is given.

    Its output goes to unlinked files in *scratch*, so a child never blocks
    on a full pipe while the run waits for another.
    """

    def __init__(self, arguments: list[str], env: dict[str, str], scratch: Path, cpu: int | None = None):
        self.output = tempfile.TemporaryFile("w+", dir=scratch)
        self.errors = tempfile.TemporaryFile("w+", dir=scratch)
        self.cpu = cpu
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.job", *arguments],
            cwd=ROOT,
            env=env,
            stdout=self.output,
            stderr=self.errors,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )

    def report(self) -> dict:
        """The finished child's last output line; ChildFailed if it failed."""
        self.errors.seek(0)
        sys.stderr.write(self.errors.read())
        if self.process.returncode != 0:
            raise ChildFailed(f"perfbench.job exited with {self.process.returncode}")
        self.output.seek(0)
        return json.loads(self.output.read().strip().splitlines()[-1])

    def close(self) -> None:
        """Kill the process if it still runs, and wait for it to end."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.output.close()
        self.errors.close()


def run_setup(arguments: list[str], env: dict[str, str], scratch: Path) -> tuple[dict, float]:
    """Run one set-up alone; its report and wall seconds."""
    child = Child(arguments, env, scratch)
    try:
        child.process.wait(timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - child.started
        return child.report(), wall
    finally:
        child.close()


def run_jobs(args, common: list[str], env: dict[str, str], scratch: Path, work: Path, run_started: float) -> list[dict]:
    """Run timed jobs until ``--seconds`` have passed, one per CPU lane.

    Untraced runs keep one job on each of up to :data:`LANES` CPUs; traced
    runs use one CPU and alternate untraced and traced jobs.  The first job
    runs the output checks; ``run_workload`` requires every other job to
    produce the same outputs.
    """
    cpus = sorted(os.sched_getaffinity(0))[: 1 if args.trace else LANES]
    inputs = scratch / "inputs-0.pkl"
    jobs: list[dict] = []
    running: list[Child] = []
    started_jobs = 0
    jobs_started = time.perf_counter()
    longest = 0.0
    try:
        while True:
            now = time.perf_counter()
            enough = now - jobs_started >= args.seconds and (not args.trace or started_jobs >= 2)
            stop = started_jobs > 0 and (enough or now - run_started + longest > RUN_BUDGET_S)
            for cpu in cpus:
                if stop or any(child.cpu == cpu for child in running):
                    continue
                arguments = ["job", *common, "--inputs", str(inputs)]
                if started_jobs == 0:
                    arguments.append("--check")
                traced = bool(args.trace) and started_jobs % 2 == 1
                if traced:
                    arguments += ["--trace", "--spans", str(work / f"spans-{args.workload}.jsonl")]
                child = Child(arguments, env, scratch, cpu)
                child.traced = traced
                running.append(child)
                started_jobs += 1
            if not running:
                return jobs
            time.sleep(0.02)
            for child in list(running):
                if child.process.poll() is None:
                    if time.perf_counter() - child.started > CHILD_TIMEOUT_S:
                        raise subprocess.TimeoutExpired(child.process.args, CHILD_TIMEOUT_S)
                    continue
                longest = max(longest, time.perf_counter() - child.started)
                report = child.report()
                running.remove(child)
                child.close()
                report["traced"] = child.traced
                jobs.append(report)
    finally:
        for child in running:
            child.close()


def run_workload(args, env: dict[str, str], scratch: Path, work: Path) -> dict:
    run_started = time.perf_counter()
    common = ["--workload", args.workload, "--scale", args.scale, "--seed", str(args.seed)]
    setup_seconds, setup_digests = [], set()
    for index in range(1 if args.trace else SETUPS):
        report, wall = run_setup(["setup", *common, "--out", str(scratch / f"inputs-{index}.pkl")], env, scratch)
        setup_seconds.append(wall)
        setup_digests.add(report["digest"])
    jobs = run_jobs(args, common, env, scratch, work, run_started)

    failed = (len(setup_digests) - 1) + (len({job["digest"] for job in jobs}) - 1)
    failed += sum(job["failures"] for job in jobs)
    untraced = [job for job in jobs if not job["traced"]]
    print(
        f"{args.workload} seed {args.seed}: {len(setup_seconds)} set-ups, "
        f"{len(untraced)} untraced and {len(jobs) - len(untraced)} traced jobs; "
        f"set-up s {[round(s, 3) for s in setup_seconds]}, "
        f"job s {[round(job['job_s'], 3) for job in jobs]}",
        file=sys.stderr,
    )
    if args.trace:
        metrics = layer_metrics(jobs)
    else:
        job_s = fastest_job_s(jobs)
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "job_s": job_s,
            "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
            "items_per_s": statistics.median(job["items"] for job in jobs) / job_s,
            "ok_ratio": sum(job["completed"] for job in jobs)
            / max(1, sum(job["operations"] for job in jobs)),
        }
    return {
        "correct": failed == 0,
        "attempted": sum(job["operations"] for job in jobs),
        "failed": failed,
        "metrics": metrics,
    }


def fastest_job_s(jobs: list[dict]) -> float:
    """The job's seconds with the interference of other processes taken out.

    The untraced jobs of a run get the same inputs in fresh processes, so
    they make the same calls in the same order and their checkpoint
    segments line up.  Another process on the host slows a segment only
    while it runs; the fastest repetition of each segment is the least
    disturbed, and their sum is the job.  If the jobs' calls differ, the
    fastest whole job.
    """
    untraced = [job for job in jobs if not job["traced"]]
    if len({job["calls_digest"] for job in untraced}) != 1:
        print("perfbench: jobs made different calls; job_s is the fastest whole job", file=sys.stderr)
        return min(job["job_s"] for job in untraced)
    return sum(map(min, zip(*(job["segments"] for job in untraced)))) / 1e9


def layer_metrics(jobs: list[dict]) -> dict[str, float]:
    traced = [job for job in jobs if job["traced"]]
    untraced = [job for job in jobs if not job["traced"]]
    metrics = {
        name: statistics.median(job["layers"][name] for job in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace_overhead"] = statistics.median(job["job_s"] for job in traced) / statistics.median(
        job["job_s"] for job in untraced
    )
    metrics["cpu_s"] = statistics.median(job["cpu_s"] for job in untraced)
    latencies = [value for job in untraced for value in job["latencies_ms"]]
    metrics["driver.measure_p50_ms"] = statistics.median(latencies) if latencies else 0.0
    metrics["driver.measure_p99_ms"] = (
        statistics.quantiles(latencies, n=100, method="inclusive")[98] if len(latencies) > 1 else 0.0
    )
    return metrics


def with_units(metrics: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """Attach the units of ``BENCHMARK.json``; every declared metric must exist."""
    missing = [entry["name"] for entry in declared if entry["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    # A terminated run still kills and waits for its child (subprocess.run
    # does so for any exception raised while it waits).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        result = run_workload(args, child_env(), scratch, work)
    except (ChildFailed, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["metrics"] = with_units(result["metrics"], declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
