"""The benchmark's workloads, by name.

Kept apart from ``workloads.py`` so that ``run.py`` and ``check.py`` can
name them without importing flowgen.
"""

WORKLOADS = ("synth-cag", "synth-single", "demo-pipeline", "demo-latency")
