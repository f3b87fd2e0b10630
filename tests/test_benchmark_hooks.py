"""The benchmark's hooks into the library still hold.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``TARGETS`` with a timing wrapper. If a refactor removes or renames one of
those attributes, every traced benchmark run crashes; the first test catches
it first. ``perfbench/workloads.py`` builds its runtimes and checks each
output against its reference; the second test runs its correctness check on
one batch, so a change to what the benchmark uses of the library (config
keywords, mock scripts, ``run_eval``, a pinned demo document) fails here.
The modules are imported as they are, without writing bytecode next to them.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def import_perfbench(monkeypatch, module: str):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(module)


def test_every_tracer_target_resolves(monkeypatch):
    tracer = import_perfbench(monkeypatch, "tracer")
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("name", ["synth-cag", "synth-single", "demo-pipeline", "demo-latency"])
def test_benchmark_workload_outputs_are_correct(monkeypatch, name):
    workloads = import_perfbench(monkeypatch, "workloads")
    workload = workloads.Workload(name, 4242)
    failed = [item.uid for item in workload.batch(0) if not workloads.run_item(item)[0]]
    assert failed == []
