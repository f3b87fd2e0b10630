#!/usr/bin/env python3
"""Compare two revisions on the benchmark in alternating pairs, and write ``BENCH_<n>.json``.

    python3 scripts/ab.py PARENT [CHANGE] --pairs 10 --seconds 20 --out BENCH_17.json
    python3 scripts/ab.py HEAD~1 --pairs 1 --seconds 1 --workloads demo-pipeline --out ab.json

Each revision (``CHANGE`` defaults to ``HEAD``) is exported with ``git
archive`` into a temporary directory, and each run is that export's
``perfbench/run.py --trace 0`` in its own process. Per workload, pair ``k``
runs both sides on seed ``1 + k``: the parent first on odd pairs, the
change first on even ones, so a drift in the machine's speed favours
neither side. After a workload's pairs, each side runs three more times
traced (``--trace 1``, the same ``--seconds``), for the per-layer metrics:
on seeds 1, 2 and 3, in the pairs' alternating side order.

The file holds every run, and per workload and end-to-end metric: each
side's median and quartiles (``statistics.quantiles(values, n=4)``, as
``perfbench/check.py`` computes them), the pairs the change won (ties count
for neither side), and a verdict against the metric's bound in the parent's
``BENCHMARK.json``:

* ``worse``: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
* ``better``: the change won at least nine pairs in ten, and the medians
  differ by more than the parent's quartile distance;
* ``unresolved``: neither, and the parent's quartile distance is wider than
  the bound;
* ``within bound``: otherwise.

Under ``layers``, per workload and per-layer metric, the file keeps each
side's traced values under ``runs``, their medians as ``parent`` and
``change``, and the change's median relative to the parent's (None when the
parent's is 0). A layer of a few microseconds moves by tens of percent
between two traced runs of the same code, so one run per side cannot tell
a change from noise; the median of three is not moved by one outlier.

Beside both commit ids, the file keeps the tree ids of ``src``, ``scripts``
and ``perfbench`` at each, so a later commit with the same trees can be
matched to the runs.

``peak_rss_mb`` grows with the number of utterances a run timed, so each
side's median count of timed utterances is printed and kept beside it, with
``at_equal_utterances``: the change in mean ``peak_rss_mb`` (in MB) once the
pooled within-side slope on the utterance count is taken out.

``latency_p50_ms`` is rescaled by ``perfbench/speed.py``'s reading of the
machine's speed, so each run also keeps the raw ``wall_p50_ms`` that
``run.py`` prints at the end of its timed loop, and each side's median of it
is kept and printed beside ``latency_p50_ms``: a verdict that follows only
the speed reading shows as a gap between the two.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# what a run executes; their tree ids identify a side even after its commit is rewritten
TREES = ("src", "scripts", "perfbench")
TRACED_SEEDS = (1, 2, 3)
# run.py's line at the end of its timed loop
_TIMED_RE = re.compile(
    r"^# (\d+) utterances in \d+ passes: wall p50 ([0-9.]+) ms, machine speed ([0-9.]+) of reference"
)


def rev_parse(rev: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", rev], capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return its full commit id."""
    commit = rev_parse(f"{rev}^{{commit}}")
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # Python before 3.10.12 has no extraction filters
            tar.extractall(dest)
    return commit


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``run.py`` in ``checkout``: its metric values, timed utterances, raw wall p50 and speed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    timed = next((m for m in map(_TIMED_RE.match, lines) if m), None)
    return {
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "utterances": int(timed.group(1)) if timed else None,
        "wall_p50_ms": float(timed.group(2)) if timed else None,
        "machine_speed": float(timed.group(3)) if timed else None,
    }


def _spread(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _relative(delta: float, base: float) -> float:
    return delta / base if base else (0.0 if delta == 0 else float("inf"))


def at_equal_utterances(values: dict[str, list[float]], counts: dict[str, list[int | None]]) -> float | None:
    """The change in a metric's mean, less what the change in mean timed utterances explains.

    That is the side coefficient of an OLS fit of the metric on utterances
    and side: the difference of the side means, minus the pooled
    within-side slope times the difference of the mean utterance counts.
    None when a count is missing or no side's counts vary, so the slope is
    unknown.
    """
    if any(n is None for side in SIDES for n in counts[side]):
        return None
    mean = {side: (statistics.fmean(values[side]), statistics.fmean(counts[side])) for side in SIDES}
    cross = squares = 0.0
    for side in SIDES:
        mv, mu = mean[side]
        for v, u in zip(values[side], counts[side]):
            cross += (u - mu) * (v - mv)
            squares += (u - mu) ** 2
    if squares == 0:
        return None
    (pv, pu), (cv, cu) = mean["parent"], mean["change"]
    return (cv - pv) - cross / squares * (cu - pu)


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict[str, dict]:
    """Per workload and metric, both sides' spreads, the change's wins and the verdict.

    ``runs`` holds one entry per run (``workload``, ``pair``, ``side``,
    ``metrics``, ``utterances``); ``end_to_end`` is ``BENCHMARK.json``'s list
    of metrics, each with its ``name``, ``better`` and ``bound``.
    """
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in by_pair.values() if len(p) == 2]
        table: dict[str, dict] = {}
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
            spread = {side: _spread(values[side]) for side in SIDES}
            parent, change = spread["parent"]["median"], spread["change"]["median"]
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            iqr = spread["parent"]["q3"] - spread["parent"]["q1"]
            if -sign * _relative(change - parent, parent) > metric["bound"]:
                verdict = "worse"
            elif wins >= 0.9 * len(pairs) and sign * (change - parent) > iqr:
                verdict = "better"
            elif _relative(iqr, parent) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            table[name] = {
                **spread, "change_vs_parent": _relative(change - parent, parent),
                "wins": wins, "pairs": len(pairs), "bound": metric["bound"], "verdict": verdict,
            }
            if name == "latency_p50_ms":
                walls = {side: [p[side].get("wall_p50_ms") for p in pairs] for side in SIDES}
                table[name]["wall_p50_ms"] = {
                    side: None if None in w else statistics.median(w) for side, w in walls.items()
                }
            if name == "peak_rss_mb":
                table[name]["utterances"] = {
                    side: statistics.median(p[side]["utterances"] or 0 for p in pairs) for side in SIDES
                }
                counts = {side: [p[side]["utterances"] for p in pairs] for side in SIDES}
                table[name]["at_equal_utterances"] = at_equal_utterances(values, counts)
        summary[workload] = table
    return summary


def summarize_layers(traced: list[dict]) -> dict[str, dict]:
    """Per workload and per-layer metric: each side's traced values, their medians and the change.

    ``traced`` holds the traced runs of each side and workload
    (``workload``, ``side``, ``metrics``). A metric that some run does not
    report is left out.
    """
    values: dict[str, dict[str, list[dict]]] = {}
    for r in traced:
        values.setdefault(r["workload"], {}).setdefault(r["side"], []).append(r["metrics"])
    layers: dict[str, dict] = {}
    for workload, sides in values.items():
        table: dict[str, dict] = {}
        for name in sides["parent"][0]:
            runs = {side: [m.get(name) for m in sides[side]] for side in SIDES}
            if None in runs["parent"] + runs["change"]:
                continue
            p, c = (statistics.median(runs[side]) for side in SIDES)
            table[name] = {
                "parent": p, "change": c, "change_vs_parent": _relative(c - p, p) if p else None,
                "runs": runs,
            }
        layers[workload] = table
    return layers


def print_summary(summary: dict[str, dict]) -> None:
    for workload, table in summary.items():
        print(f"{workload}:")
        for name, row in table.items():
            line = (f"  {name:<22} {row['parent']['median']:>12.4f} -> {row['change']['median']:>12.4f}"
                    f"  {row['change_vs_parent']:+8.2%}  won {row['wins']}/{row['pairs']}  {row['verdict']}")
            wall = row.get("wall_p50_ms")
            if wall and None not in wall.values():
                line += f"  (raw wall p50 {wall['parent']:.4f} -> {wall['change']:.4f} ms)"
            if "utterances" in row:
                u = row["utterances"]
                line += f"  (timed utterances {u['parent']:.0f} -> {u['change']:.0f}"
                if row["at_equal_utterances"] is not None:
                    line += f"; at equal utterances {row['at_equal_utterances']:+.3f} MB"
                line += ")"
            print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument(
        "--workloads", nargs="+", help="space-separated; default: every workload of BENCHMARK.json"
    )
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # a misspelt name would otherwise fail only after both revisions are exported and run
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    known = [w["name"] for w in declared]
    for name in args.workloads or ():
        if name not in known:
            parser.error(f"--workloads: {name!r} is not a workload of BENCHMARK.json ({', '.join(known)})")

    with tempfile.TemporaryDirectory(prefix="flowgen-ab-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(rev, checkouts[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        benchmark = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
        runs: list[dict] = []
        traced: list[dict] = []
        for workload in workloads:
            for pair in range(1, args.pairs + 1):
                seed = 1 + pair
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    run = run_side(checkouts[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "pair": pair, "side": side, "seed": seed, **run})
                    print(f"# {workload} pair {pair} {side}: p50 "
                          f"{run['metrics']['latency_p50_ms']:.4f} ms", file=sys.stderr)
            for seed in TRACED_SEEDS:
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    run = run_side(checkouts[side], workload, seed, args.seconds, trace=1)
                    traced.append({"workload": workload, "side": side, "seed": seed, **run})
                    print(f"# {workload} traced {side} seed {seed}", file=sys.stderr)

    summary = summarize(runs, benchmark["end_to_end"])
    print_summary(summary)
    doc = {
        "commits": commits,
        "trees": {side: {d: rev_parse(f"{commits[side]}:{d}") for d in TREES} for side in SIDES},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "command": benchmark["command"] + ["--trace", "0"],
        "incorrect_runs": sum(not r["correct"] for r in runs + traced),
        "summary": summary,
        "layers": summarize_layers(traced),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 1 if doc["incorrect_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
