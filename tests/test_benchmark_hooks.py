"""The benchmark's tracer wraps library functions where the library looks them up.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``TARGETS`` with a timing wrapper. If a refactor removes or renames one of
those attributes, every traced benchmark run crashes; this test catches it
first. The tracer is imported as it is, without writing bytecode next to it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
