"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  The heavy
shared inputs (suite measurements, the trained synthesizer) are built once
per session at a scale controlled by the ``REPRO_BENCH_SCALE`` environment
variable: ``quick`` (default, minutes) or ``full`` (paper-scale synthetic
kernel counts).  They resolve through the pipeline stage graph
(:mod:`repro.store`), so pointing ``REPRO_STORE_DIR`` at a directory makes
repeat sessions reuse every unchanged stage artifact.

When the ``REPRO_BENCH_OUT`` environment variable names a file, the session
also writes a perf snapshot there (relative to the repo root).  Unset, it
writes nothing, so a plain test run never rewrites a committed snapshot.
The snapshot records wall-clock seconds per pipeline phase (preprocess,
train, sample, execute) plus the ``synthesis`` schema version the sample
phase was measured under (``sample_schema``), so
``scripts/bench_compare.py`` can flag — rather than fail — sample
comparisons spanning a sampling-semantics bump.  See the "Performance"
section of ROADMAP.md for how to read it and for the benchmark protocol;
``bench_compare`` also refuses to compare snapshots taken at different
scales.

Sharding rides along through the default runner: ``REPRO_SHARDS`` /
``REPRO_WORKERS`` split the data-parallel stages and dispatch them to a
process pool, and ``REPRO_STEAL`` resolves them through the work-stealing
claim queue.  The guards below cover those runs too — a merge fed
entirely by store-warm shards taints its phase exactly like a direct warm
hit, and any sharded or stealing session (whose phases carry shard/claim
overhead, aggregate worker seconds under a pool, or queue wait time) is
refused as a snapshot source: committed snapshots are always cold,
shard-free, steal-free wall-clock.

The ``perfgate`` marker (``-m perfgate``, see ``test_perf_gate.py``) turns
the comparison against the previous PR's committed snapshot into a CI gate.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentConfig,
    build_clgen,
    measure_suites,
    synthesize_and_measure,
)
from repro.store import default_runner, warm_phases

#: Wall-clock seconds per pipeline phase, accumulated by the session fixtures.
_PHASE_TIMINGS: dict[str, float] = {}

#: Position in the default runner's event log when the session started, so
#: warm-phase detection only looks at this session's stage resolutions.
_RUNNER_MARK = 0

_ROOT = Path(__file__).resolve().parent.parent

#: Pre-PR-1 reference numbers for the quick-scale synthesize-and-measure
#: pipeline, measured at commit 4066a81 (the PR-0 tree) on this machine with
#: ``scripts/profile_pipeline.py``.  Kept here so every snapshot reports its
#: speedup against the same fixed baseline (see ROADMAP.md "Performance").
_PR0_BASELINE_SECONDS = {
    "preprocess": 0.640,
    "train": 0.138,
    "sample": 2.270,
    "execute": 4.313,
}

#: PR-4 reference numbers re-measured at commit 90c7d28 with *this same
#: pytest bench harness* on the same day/machine state as this PR's
#: snapshot (mean of two runs).  The committed ``BENCH_PR4.json`` was
#: recorded under a different machine state — compare against these for a
#: like-for-like phase speedup (ROADMAP "Performance" has the drift
#: caveat).  Caveat for ``sample``: PR 4 measured the sequential-chain
#: sampler (synthesis schema v1); this tree's independently-seeded streams
#: (v2) synthesize different kernels, so the sample comparison is a
#: re-baseline, not a like-for-like speedup (``bench_compare`` flags it).
_PR4_REMEASURED_SECONDS = {
    "preprocess": 0.232,
    "train": 0.153,
    "sample": 0.397,
    "execute": 0.495,
}


#: PR-9 full-scale reference numbers re-measured at commit edd9b4c with
#: this same harness on the same day/machine state as the PR 10 snapshot
#: (mean of two clean runs in a pristine worktree of the PR 9 tree).  The
#: analyzer-guided specialization PR's execute speedup must be read
#: against these — machine state has drifted repeatedly since the PR 5–8
#: snapshots were recorded (see the PR 8 note in ROADMAP "Performance").
_PR9_FULL_REMEASURED_SECONDS = {
    "preprocess": 1.712,
    "train": 0.383,
    "sample": 2.290,
    "execute": 2.687,
}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perfgate: perf regression gate comparing this session's phase timings "
        "against the previous PR's committed BENCH snapshot (opt-in: -m perfgate)",
    )


def _bench_scale() -> str:
    # Hardened: an unknown scale falls back to "quick" with a warning
    # instead of being silently treated as quick while claiming otherwise.
    from repro.envutil import env_choice

    return env_choice("REPRO_BENCH_SCALE", ("quick", "full"), "quick")


@pytest.fixture(scope="session", autouse=True)
def _bench_runner_mark():
    global _RUNNER_MARK
    _RUNNER_MARK = default_runner().mark()


def _warm_phases() -> list[str]:
    """Phases whose timings this session were tainted by store warmth.

    Warm (cross-session) hits record store-lookup times, not real work — a
    snapshot or perf gate built from them would be bogus, so both refuse
    them.  See :func:`repro.store.stages.warm_phases` for the exact rule
    (it distinguishes structural same-session hits from cross-session ones,
    so even a partially warm phase is caught).
    """
    return warm_phases(default_runner().events[_RUNNER_MARK:])


def _sharded() -> bool:
    """True when this session's runner resolves stages through shards or
    the work-stealing queue.

    Such sessions must never become a snapshot or feed the perf gate:
    pool-computed shards report aggregate worker seconds (up to ~Nx the
    wall-clock on an N-wide pool), in-process sharding adds its own
    measurable overhead (~6% at quick scale, ROADMAP PR 4) that would
    silently eat the gate's 10% headroom, and steal-mode hits time queue
    *waits* rather than work.  Workers without shards never create a pool,
    so those timings stay genuine wall-clock.
    """
    runner = default_runner()
    return runner.plan.sharded or runner.plan.steal


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    if _bench_scale() == "full":
        return ExperimentConfig.full()
    config = ExperimentConfig.quick()
    config.synthetic_kernel_count = 50
    return config


@pytest.fixture(scope="session")
def bench_clgen(bench_config):
    return build_clgen(bench_config, timings=_PHASE_TIMINGS)


@pytest.fixture(scope="session")
def bench_data(bench_config, bench_clgen):
    started = time.perf_counter()
    data = measure_suites(bench_config)
    _PHASE_TIMINGS["execute"] = (
        _PHASE_TIMINGS.get("execute", 0.0) + time.perf_counter() - started
    )
    return synthesize_and_measure(
        bench_config, data, clgen=bench_clgen, timings=_PHASE_TIMINGS
    )


@pytest.fixture(scope="session")
def bench_phase_timings(bench_data) -> dict[str, float]:
    """The session's per-phase wall-clock seconds (forces the heavy fixtures)."""
    return _PHASE_TIMINGS


@pytest.fixture(scope="session")
def bench_warm_phases(bench_data) -> list[str]:
    """Phases served entirely from the artifact store this session."""
    return _warm_phases()


def _build_snapshot() -> dict | None:
    if set(_PHASE_TIMINGS) != {"preprocess", "train", "sample", "execute"}:
        # A filtered or failed session timed only some phases; a partial
        # total would make a bogus speedup.
        return None
    warm = _warm_phases()
    if warm:
        # Store-warm phases timed cache lookups, not pipeline work (e.g. a
        # second session against the same REPRO_STORE_DIR); a snapshot of
        # them would report fantasy speedups.
        print(
            f"bench snapshot skipped: phases {', '.join(warm)} were served "
            "from the artifact store (warm); measure with a cold store",
            file=sys.stderr,
        )
        return None
    if _sharded():
        print(
            "bench snapshot skipped: sharded or work-stealing resolution "
            "active (REPRO_SHARDS/REPRO_WORKERS/REPRO_STEAL); those phases "
            "carry shard/claim overhead (pooled ones aggregate worker "
            "seconds, stealing ones time queue waits) — measure shard-free",
            file=sys.stderr,
        )
        return None
    from repro.store import SCHEMA_VERSIONS

    total = sum(_PHASE_TIMINGS.values())
    snapshot = {
        "scale": _bench_scale(),
        "phases_seconds": {
            phase: round(_PHASE_TIMINGS[phase], 3) for phase in sorted(_PHASE_TIMINGS)
        },
        "total_seconds": round(total, 3),
        # The synthesis schema the sample phase measured: bench_compare
        # flags (instead of failing) sample diffs across a schema bump.
        "sample_schema": SCHEMA_VERSIONS.get("synthesis", 1),
        "unix_time": int(time.time()),
    }
    if _bench_scale() == "quick":
        baseline_total = sum(_PR0_BASELINE_SECONDS.values())
        snapshot["pr0_baseline_seconds"] = dict(_PR0_BASELINE_SECONDS)
        snapshot["pr0_baseline_total_seconds"] = round(baseline_total, 3)
        snapshot["speedup_vs_pr0"] = round(baseline_total / max(total, 1e-9), 2)
        snapshot["pr4_remeasured_seconds"] = dict(_PR4_REMEASURED_SECONDS)
        snapshot["total_speedup_vs_pr4_remeasured"] = round(
            sum(_PR4_REMEASURED_SECONDS.values()) / max(total, 1e-9), 2
        )
    else:
        snapshot["pr9_remeasured_seconds"] = dict(_PR9_FULL_REMEASURED_SECONDS)
        snapshot["execute_speedup_vs_pr9_remeasured"] = round(
            _PR9_FULL_REMEASURED_SECONDS["execute"]
            / max(_PHASE_TIMINGS["execute"], 1e-9),
            2,
        )
    return snapshot


def pytest_sessionfinish(session, exitstatus):
    """Write the per-phase perf snapshot to ``REPRO_BENCH_OUT``, if it is set."""
    out = os.environ.get("REPRO_BENCH_OUT")
    if not out:
        return
    snapshot = _build_snapshot()
    if snapshot is None:
        return
    try:
        (_ROOT / out).write_text(json.dumps(snapshot, indent=2) + "\n")
    except OSError:
        pass
