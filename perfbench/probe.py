"""Set-up probe: ``import flowgen.cli`` and one ``build_runtime`` in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/probe.py synth-cag

``run.py`` starts this script once per set-up measurement. Only ``sys`` and
``time`` are loaded before the timed import, so the import pays for every
module that a one-shot ``flowgen generate`` loads. The workload's config is
made between the two timed steps; the rest of the benchmark is imported
after them. Prints one JSON line: the import and build times at reference
speed (see ``speed.py``), and their raw wall-time sum.
"""

import sys
import time


def main() -> None:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    import flowgen.cli  # noqa: F401

    wall1, cpu1 = time.perf_counter(), time.process_time()
    from flowgen import pipeline
    from workloads import make_config

    cfg = make_config(sys.argv[1])
    wall2, cpu2 = time.perf_counter(), time.process_time()
    pipeline.build_runtime(cfg)
    wall3, cpu3 = time.perf_counter(), time.process_time()

    import json

    import speed

    speed.reference_time()  # warm the loop's regex and code paths
    scale = speed.scale_now(repeats=10)
    print(json.dumps({
        "import_s": speed.rescaled(wall1 - wall0, cpu1 - cpu0, scale),
        "build_s": speed.rescaled(wall3 - wall2, cpu3 - cpu2, scale),
        "wall_s": (wall1 - wall0) + (wall3 - wall2),
    }))


if __name__ == "__main__":
    main()
