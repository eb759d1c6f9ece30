"""Engine routing, the soundness harness and the lint front end."""

import pytest

from repro.analysis import ANALYSIS_STATS
from repro.analysis.lint import lint_source, lint_sources, lint_suites
from repro.analysis.soundness import check_suites, cross_check_source
from repro.clc import compile_source
from repro.execution.cache import (
    GLOBAL_COMPILATION_CACHE,
    analysis_verdict_for,
    run_kernel,
)
from repro.execution.memory import MemoryPool
from repro.execution.ndrange import NDRange
from repro.preprocess.shim import shim_include_resolver, with_shim

DOOMED = """
kernel void k(global float* a, global float* out, const int n) {
    int gid = get_global_id(0);
    if (gid % 2 == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
    out[gid] = a[gid] + 1.0f;
}
"""

SAFE = """
kernel void k(global float* a, global float* out, const int n) {
    int gid = get_global_id(0);
    out[gid] = a[gid] * 2.0f;
}
"""


def _compile(source):
    return compile_source(
        with_shim(source), include_resolver=shim_include_resolver, strict=False
    )


def _run(source, engine="auto"):
    compilation = _compile(source)
    pool = MemoryPool()
    a = pool.allocate("a", 16)
    a.copy_from([float(i) for i in range(16)])
    pool.allocate("out", 16)
    run_kernel(
        compilation.unit, pool, {"n": 16}, NDRange((16,), (8,)), engine=engine
    )
    return pool.get("out").to_list()


@pytest.fixture(autouse=True)
def _fresh_caches():
    GLOBAL_COMPILATION_CACHE.clear()
    ANALYSIS_STATS.reset()
    yield
    GLOBAL_COMPILATION_CACHE.clear()
    ANALYSIS_STATS.reset()


class TestRouting:
    def test_doomed_kernel_skips_lockstep(self):
        _run(DOOMED)
        assert ANALYSIS_STATS.routed_skips == 1

    def test_safe_kernel_not_skipped(self):
        _run(SAFE)
        assert ANALYSIS_STATS.routed_skips == 0

    def test_routed_and_unrouted_outputs_bit_identical(self):
        routed = _run(DOOMED)
        GLOBAL_COMPILATION_CACHE.clear()
        unrouted = _run(DOOMED, engine="vectorized")
        compiled = _run(DOOMED, engine="compiled")
        assert ANALYSIS_STATS.routed_skips == 1
        assert routed == unrouted == compiled

    def test_explicit_vectorized_engine_ignores_verdict(self):
        # engine="vectorized" is the A/B lever: it must attempt lockstep
        # even for statically-doomed kernels (and fall back on the bailout).
        _run(DOOMED, engine="vectorized")
        assert ANALYSIS_STATS.routed_skips == 0

    def test_verdict_cached_per_unit(self):
        compilation = _compile(DOOMED)
        first = analysis_verdict_for(compilation.unit)
        second = analysis_verdict_for(compilation.unit)
        assert first is second
        assert ANALYSIS_STATS.kernels_analyzed == 1


class TestSoundnessHarness:
    def test_safe_kernel_runs_clean(self):
        record = cross_check_source(SAFE, name="safe")
        assert record.static == "safe"
        assert record.dynamic == "clean"
        assert record.agrees and not record.violation

    def test_doomed_kernel_bails_dynamically(self):
        record = cross_check_source(DOOMED, name="doomed")
        assert record.static == "bailout"
        assert record.dynamic == "bailout"
        assert "divergent work-group barrier" in record.dynamic_cause
        assert record.agrees

    def test_uncompilable_source_recorded(self):
        record = cross_check_source("kernel void k(", name="broken")
        assert record.dynamic == "uncompilable"
        assert not record.violation

    def test_suite_soundness_gate(self):
        report = check_suites()
        assert report.total >= 70
        assert report.sound, [record.to_dict() for record in report.violations]
        # The safe class must be non-trivial, or the gate proves nothing.
        assert report.classification_counts().get("safe", 0) >= 10

    def test_report_serializes(self):
        import json

        report = check_suites()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["total"] == report.total
        assert payload["sound"] is True


class TestLint:
    def test_lint_source_classifies(self):
        record = lint_source(DOOMED, name="doomed")
        assert record.classification == "bailout"
        assert record.to_dict()["verdict"]["divergent_barriers"] == 1

    def test_lint_uncompilable(self):
        record = lint_source("kernel void k(", name="broken")
        assert record.classification == "uncompilable"
        assert record.error

    def test_lint_sources_summary(self):
        report = lint_sources([("safe", SAFE), ("doomed", DOOMED)])
        counts = report.by_classification()
        assert counts == {"safe": 1, "bailout": 1}
        assert [record.name for record in report.bailout_certain] == ["doomed"]

    def test_lint_suites_has_no_bailout_certain_kernels(self):
        # Suite kernels are real benchmarks: the analyzer must never route
        # one of them away from the lockstep tier.
        report = lint_suites()
        assert report.total >= 70
        assert report.bailout_certain == []

    def test_lint_paths(self, tmp_path):
        from repro.analysis.lint import lint_paths

        good = tmp_path / "good.cl"
        good.write_text(SAFE)
        missing = tmp_path / "missing.cl"
        report = lint_paths([str(good), str(missing)])
        by_name = {record.name: record for record in report.records}
        assert by_name[str(good)].classification == "safe"
        assert by_name[str(missing)].error


class TestLintCli:
    def test_cli_lint_suites(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "lint:" in out

    def test_cli_lint_soundness(self, capsys):
        from repro.cli import main

        assert main(["lint", "--soundness"]) == 0
        out = capsys.readouterr().out
        assert "violations=0" in out

    def test_cli_lint_json(self, capsys, tmp_path):
        import json

        from repro.cli import main

        path = tmp_path / "k.cl"
        path.write_text(DOOMED)
        assert main(["lint", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["by_classification"] == {"bailout": 1}


class TestAnalysisFeatureColumns:
    def test_extended_tuple_unchanged_and_analysis_opt_in(self):
        from repro.features.static_features import extract_static_features

        plain = extract_static_features(DOOMED)
        assert plain.as_analysis_tuple() == plain.as_extended_tuple() + (0, 0, 0)

        analyzed = extract_static_features(DOOMED, with_analysis=True)
        assert analyzed.as_extended_tuple() == plain.as_extended_tuple()
        assert analyzed.divergent_barriers == 1
        assert analyzed.bailout_class == 3

    def test_safe_kernel_columns(self):
        from repro.features.static_features import extract_static_features

        features = extract_static_features(SAFE, with_analysis=True)
        assert features.divergent_barriers == 0
        assert features.race_sites == 0
        assert features.bailout_class == 0


class TestLintFilterStage:
    @staticmethod
    def _config(**overrides):
        from repro.store.stages import PipelineConfig

        return PipelineConfig(
            repository_count=12,
            seed=3,
            synthetic_kernel_count=4,
            executed_global_size=32,
            local_size=16,
            payload_seed=3,
            suites=("NPB",),
            **overrides,
        )

    def test_fingerprint_stable_unless_enabled(self):
        import dataclasses

        from repro.store.stages import synthetic_execution_fingerprint

        base = self._config()
        assert synthetic_execution_fingerprint(base) == synthetic_execution_fingerprint(
            dataclasses.replace(base)
        )
        assert synthetic_execution_fingerprint(base) != synthetic_execution_fingerprint(
            dataclasses.replace(base, lint_filter=True)
        )

    def test_lint_verdicts_persist_and_filter_measurements(self):
        from repro.store.stages import PipelineRunner

        runner = PipelineRunner()
        config = self._config(lint_filter=True)
        verdicts = runner.lint_verdicts(config)
        synthesis = runner.synthesis(config)
        assert len(verdicts) == len(synthesis.kernels)
        assert all("classification" in record for record in verdicts)

        measurements = runner.synthetic_measurements(config)
        doomed = {
            record["name"]
            for record in verdicts
            if record["classification"] == "bailout"
        }
        measured_names = {measurement.name for measurement in measurements}
        assert measured_names.isdisjoint(doomed)
        expected = {
            record["name"] for record in verdicts if record["name"] not in doomed
        }
        # Kernels that fail to execute are dropped by the driver; the filter
        # must only ever remove doomed rows, never add names.
        assert measured_names <= expected
