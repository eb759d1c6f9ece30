"""The benchmark's own tests, at tiny scale.

* a smoke run of every workload, traced and untraced, prints every metric of
  ``BENCHMARK.json`` with its unit and passes its output checks;
* the output checks catch deliberately corrupted outputs;
* ``job_s`` sums the fastest repetition of each segment of the jobs;
* a run leaves ``git status --porcelain`` unchanged.

Runs go through subprocesses, so this test process's caches stay untouched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import WORKLOADS
from perfbench.run import fastest_job_s

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 600


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert completed.returncode == 0, completed.stderr
    assert "made different calls" not in completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _porcelain() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
        )
    except FileNotFoundError:
        return None
    return completed.stdout if completed.returncode == 0 else None


@pytest.fixture(scope="module")
def smoke():
    before = _porcelain()
    results = {(workload, trace): _run(workload, trace) for workload in WORKLOADS for trace in (0, 1)}
    return results, before, _porcelain()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(smoke, workload, trace, section):
    result = smoke[0][(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_run_leaves_git_status_unchanged(smoke):
    _, before, after = smoke
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


def test_job_s_sums_the_fastest_repetition_of_each_segment():
    jobs = [
        {"traced": False, "job_s": 6e-9, "calls_digest": "a", "segments": [1, 3, 2]},
        {"traced": False, "job_s": 6e-9, "calls_digest": "a", "segments": [3, 1, 2]},
        {"traced": True, "job_s": 9e-9},
    ]
    assert fastest_job_s(jobs) == pytest.approx(4e-9)
    jobs[1]["calls_digest"] = "b"
    assert fastest_job_s(jobs) == pytest.approx(6e-9)


#: Runs each workload's job in-process at tiny scale, corrupts one output
#: at a time and prints how many failures the output checks report.
CORRUPTION_SCRIPT = r"""
import copy, dataclasses, json
from perfbench import workloads as w

counts = {}

def job(name):
    config = w.stage_config("tiny", name, 1)
    inputs = w.prepare(name, w.setup(name, config), 1)
    return config, inputs, w.summarize(name, inputs, w.JOBS[name](config, inputs))

def failures(name, config, inputs, result):
    return len(w.check(name, config, inputs, result, 1))

config, inputs, result = job("pipeline")
counts["pipeline.clean"] = failures("pipeline", config, inputs, result)
result.output["synthesis"].statistics.attempts += 1
counts["pipeline.statistics"] = failures("pipeline", config, inputs, result)
result.output["synthesis"].statistics.attempts -= 1
result.output["synthesis"].kernels[0].source = "kernel void broken( {"
counts["pipeline.kernel"] = failures("pipeline", config, inputs, result)
result.output["synthetic"][0].oracles = {"AMD": "fpga", "NVIDIA": "gpu"}
counts["pipeline.oracle"] = failures("pipeline", config, inputs, result)

config, inputs, result = job("measure")
counts["measure.clean"] = failures("measure", config, inputs, result)
name = "clgen.%d" % w.oracle_indices(len(inputs["sources"]), 1)[0]
target = next(m for m in result.output["measurements"] if m.name == name)
original = target.stats
target.stats = dataclasses.replace(original, dynamic_operations=original.dynamic_operations + 1)
counts["measure.stats"] = failures("measure", config, inputs, result)
target.stats = original
target.oracles = {"AMD": "fpga", "NVIDIA": "gpu"}
counts["measure.oracle"] = failures("measure", config, inputs, result)

config, inputs, result = job("predict")
counts["predict.clean"] = failures("predict", config, inputs, result)
cv = next(iter(result.output["results"].values()))
cv.outcomes.append(copy.copy(cv.outcomes[0]))
counts["predict.duplicate"] = failures("predict", config, inputs, result)
cv.outcomes.pop()
cv.outcomes.pop()
counts["predict.missing"] = failures("predict", config, inputs, result)
print(json.dumps(counts))
"""


def test_corrupted_outputs_are_caught():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        [sys.executable, "-c", CORRUPTION_SCRIPT],
        cwd=ROOT,
        env={key: value for key, value in env.items() if not key.startswith("REPRO_")},
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert completed.returncode == 0, completed.stderr
    counts = json.loads(completed.stdout.strip().splitlines()[-1])
    for name, count in counts.items():
        if name.endswith(".clean"):
            assert count == 0, name
        else:
            assert count >= 1, name
