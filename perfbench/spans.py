"""The traced run: spans around calls into each layer's public functions.

:class:`Tracer` wraps the functions in :data:`TARGETS` for the length of one
job, keeps every span in memory — name, start, end and the span that
caused it — and restores the originals when the job ends.  Each span is
charged to a layer metric by its *self time*: its duration minus the child
spans it covers.  :data:`REMAP` charges a span by its context: the
rejection filter and rewriter called while sampling count as
``synthesis.accept``, not as preprocessing.

:func:`layer_metrics` turns the spans plus the job's own facts into the
``per_layer`` metrics of ``BENCHMARK.json``.

Untraced jobs wrap the same functions with :class:`Checkpoints`, which only
stamps the time of each call's entry and exit, so that ``run.py`` can time
a job segment by segment.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import Counter

#: (module, attribute path, span name) for every public function wrapped.
TARGETS = (
    ("repro.corpus.github", "GitHubMiner.mine", "corpus.mine"),
    ("repro.preprocess.pipeline", "PreprocessingPipeline.run", "preprocess.run"),
    ("repro.preprocess.rejection", "RejectionFilter.check", "preprocess.reject"),
    ("repro.preprocess.rewriter", "CodeRewriter.rewrite", "preprocess.rewrite"),
    ("repro.preprocess.rewriter", "CodeRewriter.rewrite_parsed", "preprocess.rewrite"),
    ("repro.preprocess.rewriter", "CodeRewriter.rewrite_or_none", "preprocess.rewrite"),
    ("repro.clc", "compile_source", "clc.compile"),
    ("repro.clc", "compile_parsed_body", "clc.compile"),
    ("repro.execution.cache", "cached_compile_source", "clc.source_cache"),
    ("repro.model.trainer", "ModelTrainer.train", "model.train"),
    ("repro.model.ngram", "NgramLanguageModel.fit", "model.fit"),
    ("repro.model.ngram", "NgramBatchSamplerState.sample", "model.step"),
    ("repro.synthesis.generator", "CLgen.generate_kernel_range", "synthesis.generate"),
    ("repro.execution.cache", "analysis_verdict_for", "analysis.verdict"),
    ("repro.execution.cache", "run_kernel", "execution.run"),
    ("repro.execution.cache", "vectorized_kernel_for", "execution.vectorize"),
    ("repro.execution.cache", "compiled_kernel_for", "execution.closure"),
    ("repro.driver.harness", "HostDriver.measure_source", "driver.measure"),
    ("repro.driver.payload", "PayloadGenerator.generate", "driver.payload"),
    ("repro.execution.device", "Platform.runtimes", "device.runtimes"),
    ("repro.features.grewe", "static_features_of", "features.extract"),
    ("repro.features.grewe", "grewe_feature_vector", "features.vector"),
    ("repro.features.grewe", "extended_feature_vector", "features.vector"),
    ("repro.predictive.model", "MappingModel.fit", "predictive.fit"),
    ("repro.predictive.decision_tree", "DecisionTreeClassifier.fit", "predictive.tree_fit"),
    ("repro.predictive.model", "MappingModel.predict", "predictive.predict"),
    ("repro.store.artifact_store", "ArtifactStore.put", "store.put"),
    ("repro.store.artifact_store", "ArtifactStore.get", "store.get"),
)

#: Span name -> (ancestor span, name charged while that ancestor is open).
REMAP = {
    "preprocess.reject": ("synthesis.generate", "synthesis.accept"),
    "preprocess.rewrite": ("synthesis.generate", "synthesis.accept"),
}


class _Wrapper:
    """Wraps every target between install and uninstall; ``_wrap`` says how."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target, in its defining module and wherever it was imported."""
        originals = {}
        for index, (module_name, path, span_name) in enumerate(TARGETS):
            owner = importlib.import_module(module_name)
            *classes, attribute = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            wrapper = self._wrap(original, index, span_name)
            self._patch(owner, attribute, wrapper)
            if not classes:
                originals[id(original)] = (original, wrapper)
        # Module-level functions are also bound by `from x import f` elsewhere.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attribute, entry[1])

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap(self, function, index: int, span_name: str):
        raise NotImplementedError


class Checkpoints(_Wrapper):
    """Stamps the time of every entry to and exit from the wrapped functions.

    The stamps cut a job into segments.  The jobs of one run get the same
    inputs in a fresh process, so they make the same calls in the same
    order and segment *k* is the same work in each: ``run.py`` sums each
    segment's fastest repetition.  Two clock reads and two appends per
    call, so much cheaper than :class:`Tracer`.
    """

    def __init__(self):
        super().__init__()
        self.stamps: list[int] = []
        #: Which target each stamp belongs to: its index on entry, plus
        #: ``len(TARGETS)`` on exit.
        self.labels = bytearray()

    def _wrap(self, function, index: int, span_name: str):
        stamps, labels = self.stamps, self.labels
        enter, leave = index, index + len(TARGETS)
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def stamped(*args, **kwargs):
            labels.append(enter)
            stamps.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                stamps.append(clock())
                labels.append(leave)

        return stamped

    def segments(self, started_ns: int, ended_ns: int) -> list[int]:
        """Nanoseconds between consecutive stamps, from *started_ns* to *ended_ns*."""
        points = [started_ns, *self.stamps, ended_ns]
        return [end - start for start, end in zip(points, points[1:])]

    def digest(self) -> str:
        """A fingerprint of the call sequence; equal jobs have equal ones."""
        return hashlib.sha256(self.labels).hexdigest()


class Tracer(_Wrapper):
    """Records spans for the wrapped functions between install and uninstall."""

    def __init__(self):
        super().__init__()
        #: Finished spans: (id, parent id or -1, name, start ns, end ns).
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: (parent span name, span name) -> count, for cache-miss ratios.
        self.edges: Counter[tuple[str, str]] = Counter()
        self._stack: list[list] = []  # [id, name, child ns]
        self._open: Counter[str] = Counter()
        self._next_id = 0

    def _wrap(self, function, index: int, base_name: str):
        remap = REMAP.get(base_name)
        stack, spans, open_names = self._stack, self.spans, self._open
        self_ns, calls, edges = self.self_ns, self.calls, self.edges
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            name = remap[1] if remap is not None and open_names[remap[0]] else base_name
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0]
            stack.append(frame)
            open_names[name] += 1
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                open_names[name] -= 1
                duration = ended - started
                self_ns[name] += duration - frame[2]
                calls[name] += 1
                if parent is not None:
                    parent[2] += duration
                    edges[(parent[1], name)] += 1
                spans.append((span_id, parent[0] if parent is not None else -1, name, started, ended))

        return traced

    # ------------------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start and end ns."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, float]:
    """The ``per_layer`` metrics of one traced job (0 where a layer was idle)."""
    t, calls = tracer.seconds, tracer.calls
    measure_calls = calls["driver.measure"]
    source_cache_calls = calls["clc.source_cache"]
    step_s = t("model.step")
    metrics = {
        "corpus.files": facts.get("corpus.files", 0),
        "corpus.mine_s": t("corpus.mine"),
        "preprocess.run_s": t("preprocess.run"),
        "preprocess.accept_ratio": facts.get("preprocess.accept_ratio", 0.0),
        "preprocess.reject_calls": calls["preprocess.reject"],
        "preprocess.reject_s": t("preprocess.reject"),
        "preprocess.rewrite_s": t("preprocess.rewrite"),
        "clc.compile_calls": calls["clc.compile"],
        "clc.compile_s": t("clc.compile"),
        "clc.source_cache_hit_ratio": (
            1.0 - tracer.edges[("clc.source_cache", "clc.compile")] / source_cache_calls
            if source_cache_calls
            else 0.0
        ),
        "model.train_s": t("model.train"),
        "model.fit_s": t("model.fit"),
        "model.steps": calls["model.step"],
        "model.step_s": step_s,
        "model.chars_per_s": facts.get("model.characters", 0) / step_s if step_s else 0.0,
        "synthesis.generate_s": t("synthesis.generate"),
        "synthesis.attempts": facts.get("synthesis.attempts", 0),
        "synthesis.accept_ratio": facts.get("synthesis.accept_ratio", 0.0),
        "synthesis.duplicates": facts.get("synthesis.duplicates", 0),
        "synthesis.unique_yield": facts.get("synthesis.unique_yield", 0.0),
        "synthesis.accept_s": t("synthesis.accept"),
        "analysis.verdict_calls": calls["analysis.verdict"],
        "analysis.verdict_s": t("analysis.verdict"),
        "execution.run_calls": calls["execution.run"],
        "execution.run_s": t("execution.run"),
        "execution.vectorize_calls": calls["execution.vectorize"],
        "execution.closure_calls": calls["execution.closure"],
        "driver.measure_calls": measure_calls,
        "driver.measure_s": t("driver.measure"),
        "driver.excluded": facts.get("driver.excluded", 0),
        "driver.exec_cache_hit_ratio": (
            1.0 - calls["execution.run"] / measure_calls if measure_calls else 0.0
        ),
        "driver.payload_s": t("driver.payload"),
        "device.runtimes_calls": calls["device.runtimes"],
        "device.runtimes_s": t("device.runtimes"),
        "features.extract_calls": calls["features.extract"],
        "features.extract_s": t("features.extract"),
        "features.vector_s": t("features.vector"),
        "features.extract_per_measurement": (
            calls["features.extract"] / facts["features.measurements"]
            if facts.get("features.measurements")
            else 0.0
        ),
        "predictive.fit_calls": calls["predictive.fit"],
        "predictive.fit_s": t("predictive.fit"),
        "predictive.tree_fit_s": t("predictive.tree_fit"),
        "predictive.predict_s": t("predictive.predict"),
        "predictive.fig7_amd": facts.get("predictive.fig7_amd", 0.0),
        "predictive.fig7_nvidia": facts.get("predictive.fig7_nvidia", 0.0),
        "store.put_calls": calls["store.put"],
        "store.put_s": t("store.put"),
        "store.get_s": t("store.get"),
    }
    return {name: float(value) for name, value in metrics.items()}
