"""Compile-seed fidelity: a seeded compilation equals a fresh one.

When the synthesizer accepts a candidate it seeds the frontend cache with a
compilation built from the rewriter's renamed AST
(``repro.clc.compile_parsed_body`` → ``seed_compiled_source``), so the
execute phase does not recompile the kernel.  These tests check that the
seeded result is interchangeable with ``compile_source`` on the printed
text, and that the fast path declines whenever it cannot guarantee that.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.execution.cache import cached_compile_source
from repro.preprocess.shim import shim_include_resolver, with_shim


def _payload_for(unit, kernel_name=None, global_size=32, local_size=8, seed=3):
    from repro.driver.harness import kernel_work_dim
    from repro.driver.payload import PayloadConfig, PayloadGenerator

    kernel = unit.kernel(kernel_name) if kernel_name else unit.kernels[0]
    generator = PayloadGenerator(
        PayloadConfig(global_size=global_size, local_size=local_size, seed=seed)
    )
    return generator.generate(kernel, work_dim=kernel_work_dim(kernel))


def _run(engine, payload):
    result = engine.execute(payload.pool, payload.scalar_args, payload.ndrange)
    buffers = {name: buf.to_list() for name, buf in payload.pool.buffers.items()}
    return buffers, dataclasses.asdict(result.stats)


#: Archetype candidates for the seed-fidelity tests below: the shapes the
#: synthesizer's parsed-rewrite path accepts (no directives, no shim macro
#: or typedef names in the body — see ``generator._REWRITE_TEXT_PATH``).
_SEED_ARCHETYPES = [
    """
    __kernel void scale(__global float* a, __global float* b, const int n) {
      int gid = get_global_id(0);
      if (gid < n) { b[gid] = a[gid] * 2.5f + 1.0f; }
    }
    """,
    """
    __kernel void stencil(__global int* src, __global int* dst) {
      int gid = get_global_id(0);
      int acc = 0;
      for (int i = 0; i < 4; ++i) { acc += src[gid] >> i; }
      dst[gid] = acc;
    }
    """,
    """
    __kernel void saxpy(__global float* x, __global float* y, const float alpha) {
      int gid = get_global_id(0);
      y[gid] = alpha * x[gid] + y[gid];
    }
    """,
]


def _rewrite_like_synthesis(text: str):
    """Replay the synthesizer's parsed-rewrite path for one candidate.

    Returns ``(normalized_text, renamed_body_unit)`` exactly as
    ``CLgen._normalize_candidate`` produces them before seeding.
    """
    from repro.preprocess.rejection import RejectionFilter
    from repro.preprocess.rewriter import CodeRewriter

    verdict = RejectionFilter().check(text)
    assert verdict.accepted, verdict.detail
    body_unit = verdict.compilation.body_unit
    assert body_unit is not None
    normalized = CodeRewriter(rename_identifiers=True).rewrite_parsed(
        text, body_unit
    ).text
    return normalized, body_unit


class TestCompileSeedFidelity:
    """The sample-time compile seeding must be interchangeable with a fresh
    compile: ``compile_parsed_body`` on the rewriter's renamed AST and
    ``compile_source`` on the text it printed must agree on everything the
    execute phase can observe (the ``compile_parsed_body`` docstring's
    "covered by the seed-fidelity tests" claim)."""

    @pytest.mark.parametrize("text", _SEED_ARCHETYPES)
    def test_seeded_compile_matches_fresh(self, text):
        import pickle

        from repro.clc import compile_parsed_body, compile_source
        from repro.clc.printer import SourcePrinter
        from repro.execution import CompiledKernel

        normalized, body_unit = _rewrite_like_synthesis(text)
        source = with_shim(normalized)
        seeded = compile_parsed_body(
            source, body_unit, include_resolver=shim_include_resolver,
            require_kernel=True, strict=False,
        )
        assert seeded is not None
        fresh = compile_source(
            source, include_resolver=shim_include_resolver, strict=False
        )

        printer = SourcePrinter()
        assert printer.print_translation_unit(seeded.unit) == (
            printer.print_translation_unit(fresh.unit)
        )
        assert seeded.preprocessed == fresh.preprocessed
        assert seeded.static_instruction_count == fresh.static_instruction_count
        assert pickle.dumps(seeded.ir) == pickle.dumps(fresh.ir)
        assert pickle.dumps(seeded.semantics) == pickle.dumps(fresh.semantics)

        kernel_name = seeded.unit.kernels[0].name
        payload = _payload_for(seeded.unit, kernel_name)
        payload_fresh = payload.clone()
        result_seeded = _run(CompiledKernel(seeded.unit, kernel_name), payload)
        result_fresh = _run(CompiledKernel(fresh.unit, kernel_name), payload_fresh)
        assert result_seeded == result_fresh

    def test_preprocess_nonidentity_refuses_seed(self):
        """A body whose preprocessing is not the identity must be refused —
        a fresh compile would parse different text than the reused AST."""
        from repro.clc import compile_parsed_body

        normalized, body_unit = _rewrite_like_synthesis(_SEED_ARCHETYPES[0])
        directive_body = "#define TWO 2\n" + normalized
        assert compile_parsed_body(
            with_shim(directive_body), body_unit,
            include_resolver=shim_include_resolver, strict=False,
        ) is None

    def test_missing_prelude_refuses_seed(self):
        """Without a registered prelude prefix there is no known parse
        environment for the body, so the fast path must decline."""
        from repro.clc import compile_parsed_body

        normalized, body_unit = _rewrite_like_synthesis(_SEED_ARCHETYPES[0])
        assert compile_parsed_body(
            normalized, body_unit,
            include_resolver=shim_include_resolver, strict=False,
        ) is None

    def test_generator_seed_lands_under_harness_key(self):
        """``CLgen._seed_measure_compilation`` must put the seeded result
        under the exact key the measurement harness compiles with, so the
        execute phase's lookup is an identity hit on the renamed AST."""
        from repro.synthesis.generator import CLgen

        normalized, body_unit = _rewrite_like_synthesis(_SEED_ARCHETYPES[2])
        CLgen._seed_measure_compilation(normalized, body_unit)
        compilation = cached_compile_source(
            with_shim(normalized), include_resolver=shim_include_resolver, strict=False
        )
        assert compilation.body_unit is body_unit
