"""The benchmark's hooks into the library still hold.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``TARGETS`` with a timing wrapper. If a refactor removes or renames one of
those attributes, every traced benchmark run crashes; the first test catches
it first. ``perfbench/workloads.py`` builds its runtimes and checks each
output against its reference; the second test runs its correctness check on
one batch, so a change to what the benchmark uses of the library (config
keywords, mock scripts, ``run_eval``, a pinned demo document) fails here.
``perfbench/run.py`` calls ``stagepred.predict_cag`` and
``render_stage_prompt`` positionally for the paper's stage-prompt ratio, and
its traced run reads step arguments by position; the last two tests run both.
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


def test_stage_prompt_ratio_is_unchanged(monkeypatch):
    run = import_perfbench(monkeypatch, "run")
    workloads = import_perfbench(monkeypatch, "workloads")
    ratio = run.stage_prompt_ratio(workloads.Workload("synth-cag", 4242))
    assert ratio == 0.036816299244192684
    assert ratio <= run.MAX_STAGE_PROMPT_RATIO


def test_traced_demo_pass_counts_what_the_untraced_pass_counts(monkeypatch):
    run = import_perfbench(monkeypatch, "run")
    tracer_module = import_perfbench(monkeypatch, "tracer")
    workloads = import_perfbench(monkeypatch, "workloads")
    wl = workloads.Workload("demo-pipeline", 4242)
    tally = run.Tally()
    n, requests, tokens, docs = run.count_pass(wl, tally)
    tracer = tracer_module.Tracer()
    tracer.install(wl.runtimes.values())
    try:
        traced = run.count_pass(wl, tally, tracer)
    finally:
        tracer.uninstall()
    assert n > 0 and requests > 0
    assert tally.errors == [] and tally.failed == 0
    assert traced == (n, requests, tokens, docs)
    # every request, and every prompt token, belongs to a span of a step
    counts = tracer_module.summarize(tracer.spans, n)
    assert round(counts["llm.provider.calls"] * n) == requests
    purposes = tracer_module.PURPOSES
    assert round(sum(counts.get(f"llm.prompt_tokens.{p}", 0.0) for p in purposes) * n) == tokens
