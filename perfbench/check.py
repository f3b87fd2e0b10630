"""Run every workload over several seeds and summarize each metric.

    python3 perfbench/check.py --seeds 4242 --seconds 3 --trace 0,1
    python3 perfbench/check.py --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 20 --out summary.json

Each run is ``run.py`` in its own process. The check fails (exit 1) unless
every run reports ``correct`` with no failed utterance, so a seed nobody
tuned on can be checked in one command. The summary gives, per workload and
metric, the median, the quartiles and their distance as a share of the
median, as ``statistics.quantiles(values, n=4)`` computes them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from names import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=RUN.parent.parent,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    row = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", default="0", help="comma-separated trace modes: 0, 1 or 0,1")
    parser.add_argument("--out", help="also write the summary here as JSON")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    modes = [int(t) for t in args.trace.split(",")]

    summary: dict = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    bad = []
    for workload in WORKLOADS:
        for trace in modes:
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            for seed in seeds:
                result = run(workload, seed, args.seconds, trace)
                if not result["correct"] or result["failed"]:
                    bad.append(f"{workload} seed {seed} trace {trace}: "
                               f"correct={result['correct']} failed={result['failed']}")
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
            rows = {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}
            summary["workloads"].setdefault(workload, {}).update(rows)
            print(f"{workload} (trace {trace}, {len(seeds)} seeds)")
            for name, row in rows.items():
                spread = f"{row['spread']:8.4f}" if "spread" in row else "       -"
                print(f"  {name:42} {row['median']:>14.4f} {row['unit']:8} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    for line in bad:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
