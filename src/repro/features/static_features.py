"""Static code features (Table 2a of the paper).

The four static features of the Grewe et al. model — compute operations,
global memory accesses, local memory accesses and coalesced memory accesses
— plus the *branch* feature added in §8.2, are all defined over the PTX-like
IR produced by :mod:`repro.clc.codegen`, giving a single consistent
definition for the rejection filter, the feature extractor and the
feature-space comparisons of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clc import CompilationResult, compile_source
from repro.clc.ir import IRFunction
from repro.errors import CompileError
from repro.preprocess.shim import shim_include_resolver, with_shim


@dataclass(frozen=True)
class StaticFeatures:
    """Static per-kernel feature counts."""

    comp: int  #: number of compute operations
    mem: int  #: number of accesses to global memory
    localmem: int  #: number of accesses to local memory
    coalesced: int  #: number of coalesced global memory accesses
    branches: int  #: number of branching operations (the §8.2 extension)
    static_instructions: int = 0
    #: Static-analyzer columns (``with_analysis``): the divergent-barrier
    #: and race-site counts from the dataflow passes, and the classifier's
    #: integer class code (:data:`repro.analysis.BAILOUT_CLASS_CODES`).
    #: Zero unless analysis was explicitly requested, so the default
    #: extraction path (the rejection filter's hot loop) never pays for it.
    divergent_barriers: int = 0
    race_sites: int = 0
    bailout_class: int = 0

    def as_tuple(self) -> tuple[int, int, int, int]:
        """The Table 2a quadruple (without the branch extension)."""
        return (self.comp, self.mem, self.localmem, self.coalesced)

    def as_extended_tuple(self) -> tuple[int, int, int, int, int]:
        """The quadruple plus the branch feature."""
        return (self.comp, self.mem, self.localmem, self.coalesced, self.branches)

    def as_analysis_tuple(self) -> tuple[int, int, int, int, int, int, int, int]:
        """The extended tuple plus the static-analyzer columns."""
        return self.as_extended_tuple() + (
            self.divergent_barriers,
            self.race_sites,
            self.bailout_class,
        )

    def with_analysis(
        self, compilation: CompilationResult, kernel_name: str | None = None
    ) -> "StaticFeatures":
        """A copy with the analyzer columns filled from *compilation*.

        Analysis is opt-in: it costs a dataflow fixpoint per kernel, which
        the rejection filter must not pay for every candidate.
        """
        import dataclasses

        from repro.execution.cache import analysis_verdict_for

        verdict = analysis_verdict_for(compilation.unit, kernel_name)
        return dataclasses.replace(
            self,
            divergent_barriers=verdict.divergent_barriers,
            race_sites=verdict.race_sites,
            bailout_class=verdict.bailout_class,
        )

    @classmethod
    def from_ir_function(cls, function: IRFunction) -> "StaticFeatures":
        counts = function.counts()
        return cls(
            comp=counts.compute,
            mem=counts.global_memory,
            localmem=counts.local_memory,
            coalesced=counts.coalesced,
            branches=counts.branches,
            static_instructions=counts.static_instructions,
        )

    @classmethod
    def from_compilation(
        cls, compilation: CompilationResult, kernel_name: str | None = None
    ) -> "StaticFeatures":
        """Features of one kernel (plus its helper functions' contributions)."""
        kernels = compilation.unit.kernels
        if not kernels:
            raise ValueError("compilation contains no kernels")
        target = kernel_name or kernels[0].name
        ir_function = compilation.ir.function(target)
        features = cls.from_ir_function(ir_function)

        # Helper functions called from the kernel contribute their operations
        # too (a compiler would inline them); add them once each.
        helper_totals = [
            cls.from_ir_function(f)
            for f in compilation.ir.functions
            if not f.is_kernel
        ]
        if not helper_totals:
            return features
        return cls(
            comp=features.comp + sum(h.comp for h in helper_totals),
            mem=features.mem + sum(h.mem for h in helper_totals),
            localmem=features.localmem + sum(h.localmem for h in helper_totals),
            coalesced=features.coalesced + sum(h.coalesced for h in helper_totals),
            branches=features.branches + sum(h.branches for h in helper_totals),
            static_instructions=features.static_instructions
            + sum(h.static_instructions for h in helper_totals),
        )


def extract_static_features(
    source: str, kernel_name: str | None = None, with_analysis: bool = False
) -> StaticFeatures | None:
    """Compile *source* (with the shim) and extract static features.

    Returns ``None`` if the source does not compile — mirroring how kernels
    that fail to build are excluded from feature-space comparisons.  With
    ``with_analysis`` the analyzer columns are filled too (opt-in: a
    dataflow fixpoint per kernel).
    """
    try:
        compilation = compile_source(
            with_shim(source), include_resolver=shim_include_resolver, strict=False
        )
    except CompileError:
        return None
    if not compilation.unit.kernels:
        return None
    features = StaticFeatures.from_compilation(compilation, kernel_name)
    if with_analysis:
        features = features.with_analysis(compilation, kernel_name)
    return features
