"""The benchmark's trace hooks name functions that exist in the package.

``perfbench/tracing.py`` wraps package functions by ``module:attribute``; a
hook whose target is gone drops its per-layer metrics from a traced run.  The
file is loaded read-only, without writing bytecode next to it.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[name] = module      # dataclasses look their module up while building
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[name]


def test_every_trace_hook_resolves(tracing):
    missing = [h.target for h in tracing.HOOKS if tracing._resolve(h.target) is None]
    assert missing == []


def test_trace_reports_every_declared_per_layer_metric(tracing):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared == set(tracing.LAYER_METRICS) | set(tracing.TRACE_METRICS)
