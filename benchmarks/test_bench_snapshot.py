"""The bench session writes a perf snapshot only where ``REPRO_BENCH_OUT`` says."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SNAPSHOT = {"scale": "quick", "total_seconds": 1.0}


def _bench_conftest(monkeypatch, root: Path):
    """A private copy of ``benchmarks/conftest.py`` rooted at *root*."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test", Path(__file__).with_name("conftest.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_ROOT", root)
    monkeypatch.setattr(module, "_build_snapshot", lambda: dict(_SNAPSHOT))
    return module


def test_unset_bench_out_writes_nothing(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_BENCH_OUT", raising=False)
    conftest = _bench_conftest(monkeypatch, tmp_path)
    writes: list[Path] = []
    monkeypatch.setattr(Path, "write_text", lambda path, *args, **kwargs: writes.append(path))
    conftest.pytest_sessionfinish(None, 0)
    assert writes == []


def test_bench_out_names_the_snapshot(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_OUT", "BENCH_TEST.json")
    _bench_conftest(monkeypatch, tmp_path).pytest_sessionfinish(None, 0)
    assert [path.name for path in tmp_path.iterdir()] == ["BENCH_TEST.json"]
    assert json.loads((tmp_path / "BENCH_TEST.json").read_text()) == _SNAPSHOT
