#!/usr/bin/env bash
# CI entry point: the tier-1 sweep, then (opt-in) the chaos soak and the
# perf gate.
#
#   scripts/ci_check.sh            # tier-1 only: the merge gate
#   CHAOS=1 scripts/ci_check.sh    # + the -m chaos soak, including the
#                                  #   supervisor/service rounds
#   LINT=1 scripts/ci_check.sh     # + the static-analyzer soundness leg:
#                                  #   lints every suite kernel and
#                                  #   cross-checks static vs dynamic
#   PERFGATE=1 scripts/ci_check.sh # + the -m perfgate timed run against
#                                  #   the committed BENCH snapshot
#
# Tier-1 is every default-selected test under tests/ — the chaos soak and
# the perf gate stay opt-in because they spawn real worker fleets and
# timed runs, which are too heavy (and too jitter-prone) for the gate.
# The perf gate needs a quiet machine and a cold store.  It compares
# against the committed BENCH snapshot and writes its fresh timings under
# pytest's tmp_path, so a gate run never dirties the working tree.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: pytest =="
python -m pytest -x -q

if [[ "${CHAOS:-0}" != "0" ]]; then
    echo "== chaos soak (-m chaos): fault menu + supervised service rounds =="
    python -m pytest tests/test_chaos.py -m chaos -x -q
fi

if [[ "${LINT:-0}" != "0" ]]; then
    echo "== lint: suite verdicts + static-vs-dynamic soundness cross-check =="
    python -m repro lint
    # The soundness gate: a "safe" verdict for a kernel that dynamically
    # bails is a hard failure (exit 1); precision misses only print.
    python -m repro lint --soundness
fi

if [[ "${PERFGATE:-0}" != "0" ]]; then
    echo "== perf gate (-m perfgate): phase timings vs committed BENCH =="
    python -m pytest benchmarks -m perfgate -x -q
fi

echo "ci_check: OK"
