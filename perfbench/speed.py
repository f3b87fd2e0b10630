"""Rescale CPU time to a fixed machine speed.

On a shared VM the speed of a vCPU changes by up to 1.7x between phases
that last from seconds to minutes, whatever runs on it. Wall and CPU time of
the same work move together, so no run length or median removes the drift.
This module times a fixed loop owned by the benchmark (regex scan,
character scan, dict counting, sorting, JSON encoding and a small file read:
the kinds of work flowgen's hot paths do) next to the measured work, and rescales the CPU part of each
measured time by ``REFERENCE_S / <the loop's time now>``. The waiting part
(wall time minus CPU time, such as a provider's delay) is kept as measured.

A rescaled time reads in seconds of a machine on which the loop takes
``REFERENCE_S``: about the fast phase of a 2.1 GHz Xeon vCPU. The loop runs
no flowgen code, so a change to flowgen cannot change the scale.
"""

from __future__ import annotations

import gc
import json
import re
from time import perf_counter, process_time

REFERENCE_S = 0.00022

_TEXT = (
    "Extract data from MySQL and sample it using percent mode to send some data to a "
    "switch operator and the other data to a join operator. "
) * 3
_WORD = re.compile(r"[a-z0-9]+")


def _loop() -> int:
    acc = 0
    for _ in range(2):
        counts: dict[str, int] = {}
        for token in _WORD.findall(_TEXT.lower()):
            counts[token] = counts.get(token, 0) + 1
        acc += sum(1 for ch in _TEXT if not ch.isspace() and not ch.isalnum())
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        acc += len(json.dumps({"nodes": [{"name": k, "n": n} for k, n in ranked]}, indent=2))
        with open(__file__, encoding="utf-8") as f:
            acc += len(f.read())
    return acc


def reference_time(repeats: int = 3) -> float:
    """Shortest of ``repeats`` timings of the loop, with the garbage collector off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            _loop()
            best = min(best, perf_counter() - t0)
    finally:
        gc.enable()
    return best


def scale_now(repeats: int = 3) -> float:
    """Factor that turns CPU seconds now into CPU seconds at reference speed."""
    return REFERENCE_S / reference_time(repeats)


def rescaled(wall: float, cpu: float, scale: float) -> float:
    cpu = min(cpu, wall)
    return wall - cpu + cpu * scale


class Clock:
    """Wall and process CPU time of one measured span."""

    __slots__ = ("wall", "cpu")

    def __enter__(self) -> "Clock":
        self.wall = perf_counter()
        self.cpu = process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu = process_time() - self.cpu
        self.wall = perf_counter() - self.wall
