"""Opt-in perf regression gate (``-m perfgate``).

Compares this session's freshly measured per-phase timings against the
previous PR's committed ``BENCH_*.json`` snapshot through
``scripts/bench_compare.py``, failing on any phase regression beyond the
documented 10% threshold.  Run it on its own so the timings are cold::

    PYTHONPATH=src python -m pytest benchmarks -m perfgate

Because absolute numbers drift with machine load (ROADMAP "Performance"
caveat), the gate only runs when explicitly selected; in a plain session it
skips before building any fixture.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.perfgate

_ROOT = Path(__file__).resolve().parent.parent
_COMPARE = _ROOT / "scripts" / "bench_compare.py"
#: The committed snapshot the gate pins against: each PR re-pins to its own
#: re-measured snapshot, because absolute numbers drift with machine state
#: (the PR 8 machine ran ~3x slower than the one that recorded the PR 5–7
#: snapshots — see `pr7_remeasured_seconds` inside BENCH_PR8_full.json for
#: the same-day anchor).  Since PR 5 the synthesis schema is v2; no bump in
#: PR 9 or PR 10 (specialization changes *how* the lockstep tier computes,
#: never *what* any engine computes), so sample gates honestly against this
#: snapshot.
_BASELINE = _ROOT / "BENCH_PR10.json"
#: Documented per-phase regression tolerance (ROADMAP "Performance").
_THRESHOLD = 0.10


def _baseline_snapshot(tmp_path) -> Path | None:
    """The baseline to gate against — the *committed* bytes when possible.

    A bench session with ``REPRO_BENCH_OUT`` naming the baseline file
    overwrites the working-tree copy.  Preferring
    ``git show HEAD:BENCH_PR10.json`` keeps the gate pinned to the committed
    reference regardless of local clobbers; outside a git checkout the
    working-tree file is used as-is.
    """
    committed = subprocess.run(
        ["git", "show", f"HEAD:{_BASELINE.name}"],
        capture_output=True,
        cwd=str(_ROOT),
    )
    if committed.returncode == 0 and committed.stdout.strip():
        path = tmp_path / f"committed-{_BASELINE.name}"
        path.write_bytes(committed.stdout)
        return path
    if _BASELINE.exists():
        return _BASELINE
    return None


def test_no_phase_regression_vs_previous_pr(request, tmp_path):
    if "perfgate" not in (request.config.option.markexpr or ""):
        pytest.skip("perf gate is opt-in: select it with -m perfgate")
    baseline_path = _baseline_snapshot(tmp_path)
    if baseline_path is None:
        pytest.skip(f"baseline snapshot {_BASELINE.name} not committed")

    from repro.envutil import env_choice

    baseline = json.loads(baseline_path.read_text())
    scale = env_choice("REPRO_BENCH_SCALE", ("quick", "full"), "quick")
    if baseline.get("scale") != scale:
        pytest.skip(f"scale mismatch: baseline {baseline.get('scale')!r} vs {scale!r}")

    from repro.store import default_runner

    plan = default_runner().plan
    if plan.sharded or plan.steal:
        pytest.skip(
            "sharded or work-stealing resolution active "
            "(REPRO_SHARDS/REPRO_WORKERS/REPRO_STEAL); those timings carry "
            "shard/claim overhead (pooled ones aggregate worker seconds) — "
            "the gate needs shard-free runs"
        )

    # Force the heavy session fixtures only once the gate is actually on.
    timings = request.getfixturevalue("bench_phase_timings")
    warm = request.getfixturevalue("bench_warm_phases")
    if warm:
        pytest.skip(
            f"phases {', '.join(warm)} were served warm from the artifact "
            "store; the gate needs cold timings (clear the store or unset "
            "REPRO_STORE_DIR)"
        )

    from repro.store import SCHEMA_VERSIONS

    fresh = tmp_path / "BENCH_FRESH.json"
    fresh.write_text(
        json.dumps(
            {
                "scale": scale,
                "phases_seconds": {k: round(v, 3) for k, v in timings.items()},
                "total_seconds": round(sum(timings.values()), 3),
                # Without this the gate would see a phantom schema mismatch
                # vs the committed snapshot and stop gating sample at all.
                "sample_schema": SCHEMA_VERSIONS.get("synthesis", 1),
            }
        )
    )
    completed = subprocess.run(
        [
            sys.executable,
            str(_COMPARE),
            str(baseline_path),
            str(fresh),
            "--threshold",
            str(_THRESHOLD),
        ],
        capture_output=True,
        text=True,
        cwd=str(_ROOT),
    )
    assert completed.returncode == 0, (
        f"perf gate failed against {_BASELINE.name}:\n"
        f"{completed.stdout}\n{completed.stderr}"
    )
