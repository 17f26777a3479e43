"""The benchmark's traced run finds a qocsim callable for every layer it reports."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_per_layer_metric_reads_a_span_some_callable_produces(monkeypatch):
    # a span that no target resolves to a callable is never recorded, and the
    # traced run then reports every metric computed from it as null
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    produced = {name for owner, attr, name, _ in tracing.targets()
                if callable(getattr(owner, attr, None))}
    for metric, sources in tracing._SOURCES.items():
        assert set(sources) <= produced, (metric, sorted(set(sources) - produced))
