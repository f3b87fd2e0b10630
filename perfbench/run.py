"""flowgen benchmark: one closed-loop client against a runtime built once.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth-cag --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracer.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. ``check.py`` runs every workload and prints a table.

The program under test is imported from ``src/`` of the checkout this file
sits in; the run stops with exit code 2 if that source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from names import WORKLOADS
from speed import Clock, rescaled, scale_now

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# fresh interpreters per set-up measurement; one more runs first to write
# the bytecode cache and is discarded
SETUP_PROBES = 7
# in-process runtime builds per traced run, for the set-up layer times
TRACED_BUILDS = 5
# work between two measurements of the machine's speed (see speed.py)
SCALE_EVERY_S = 0.02
# the paper's headline: a scoped stage prompt is at most this share of the
# full-catalog prompt for the same utterances
MAX_STAGE_PROMPT_RATIO = 0.45

END_TO_END_UNITS = {
    "throughput_ups": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "prompt_tokens_per_utt": "tokens",
    "requests_per_utt": "count",
    "ok_share": "share",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _use_source() -> None:
    if not (SRC / "flowgen" / "__init__.py").is_file():
        print(f"flowgen source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _check_imported() -> None:
    import flowgen

    if Path(flowgen.__file__).resolve().parent != (SRC / "flowgen").resolve():
        print(f"imported flowgen from {flowgen.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# --- set-up: fresh interpreters ------------------------------------------------


def measure_setup(workload: str, probes: int) -> tuple[float, float]:
    """Median (set-up seconds, import milliseconds) over fresh interpreters,
    at reference speed."""
    setups, imports, walls = [], [], []
    for i in range(probes + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i == 0:
            continue
        row = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(row["import_s"] + row["build_s"])
        imports.append(row["import_s"] * 1000.0)
        walls.append(row["wall_s"])
    print(f"# setup: median wall {statistics.median(walls):.4f} s, "
          f"at reference speed {statistics.median(setups):.4f} s")
    return statistics.median(setups), statistics.median(imports)


# --- the closed loop ----------------------------------------------------------------


class Tally:
    """Runs and checks items, counting attempts and failures."""

    def __init__(self):
        from workloads import run_item

        self._run_item = run_item
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, item, tracer=None):
        """Run and check one item; returns its emitted document (or None)."""
        if tracer is not None:
            tracer.utt = item.uid
            tracer.gold = frozenset(item.gold_stages)
        self.attempted += 1
        try:
            ok, doc = self._run_item(item)
            error = "output differs from its reference"
        except Exception as exc:  # a raising utterance is a failed one; keep going
            ok, doc = False, None
            error = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{item.uid}: {error}")
        return doc


def count_pass(wl, tally: Tally, tracer=None) -> tuple[int, int, int, list]:
    """The fixed, seeded sample: (utterances, requests, prompt tokens, docs)."""
    wl.set_counting(True)
    n, docs = 0, []
    for k in wl.count_batches():
        for item in wl.batch(k):
            docs.append(tally.run(item, tracer))
            n += 1
    requests, tokens = wl.counted()
    wl.set_counting(False)
    return n, requests, tokens, docs


class Timing:
    """Per-utterance times of a timed loop, at reference speed, by pass."""

    def __init__(self):
        self.passes: list[list[float]] = []
        self.walls: list[float] = []
        self.scales: list[float] = []

    @property
    def count(self) -> int:
        return len(self.walls)

    def throughput(self) -> float:
        """Utterances per second within each pass, as the median over passes."""
        return statistics.median(len(p) / sum(p) for p in self.passes)

    def percentile_ms(self, q: int) -> float:
        """The q-th percentile of every timed utterance of the run."""
        pooled = [t for p in self.passes for t in p]
        return statistics.quantiles(pooled, n=100, method="inclusive")[q - 1] * 1000.0


def timed_loop(wl, tally: Tally, seconds: float, tracer=None) -> Timing:
    """Run whole passes until ``seconds`` of wall time have accumulated.

    The machine's speed is measured after every ``SCALE_EVERY_S`` of work
    and at the end of each pass; the median of a pass's measurements
    rescales all of its utterances, and the spans it traced.
    """
    timing = Timing()
    elapsed = 0.0
    for batch in wl.timed_batches():
        clocks: list[Clock] = []
        scales: list[float] = []
        since = 0.0
        first_span = len(tracer.spans) if tracer is not None else 0
        for item in batch:
            with Clock() as clock:
                tally.run(item, tracer)
            clocks.append(clock)
            since += clock.wall
            if since >= SCALE_EVERY_S or item is batch[-1]:
                scales.append(scale_now())
                since = 0.0
        scale = statistics.median(scales)
        if tracer is not None:
            tracer.set_scale(scale, first_span)
        timing.scales.append(scale)
        timing.walls += [c.wall for c in clocks]
        timing.passes.append([rescaled(c.wall, c.cpu, scale) for c in clocks])
        elapsed += sum(c.wall for c in clocks)
        if elapsed >= seconds:
            print(f"# {timing.count} utterances in {len(timing.passes)} passes: "
                  f"wall p50 {statistics.median(timing.walls) * 1000:.4f} ms, "
                  f"machine speed {statistics.median(timing.scales):.3f} of reference")
            return timing


# --- the two kinds of run ---------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    from workloads import Workload

    setup_s, _ = measure_setup(workload, SETUP_PROBES)
    wl = Workload(workload, seed)
    n, requests, tokens, _ = count_pass(wl, tally)
    timing = timed_loop(wl, tally, seconds)
    return {
        "throughput_ups": timing.throughput(),
        "latency_p50_ms": timing.percentile_ms(50),
        "latency_p90_ms": timing.percentile_ms(90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "prompt_tokens_per_utt": tokens / n,
        "requests_per_utt": requests / n,
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
    }


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def stage_prompt_ratio(wl) -> float:
    """Mean scoped (cag) over mean full-catalog stage-prompt tokens, on the
    fixed synthetic sample."""
    from flowgen import stagepred

    rt = wl.runtimes["synth"]
    cfg = rt.cfg
    scoped = full = 0
    for k in wl.count_batches():
        for item in wl.batch(k):
            scoped += stagepred.predict_cag(
                item.utterance, rt.catalog, rt.classifier, rt.bank, rt.provider,
                cfg.family, rt.split_examples, cfg.example_cap,
            ).stage_prompt_tokens
            full += stagepred.render_stage_prompt(
                rt.catalog, None, rt.bank, item.utterance, cfg.family
            ).token_estimate
    return scoped / full


def traced(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    """Per-layer metrics, the tracing overhead, and the traced-run self-check."""
    from flowgen import pipeline
    from tracer import PURPOSES, Tracer, durations_ms, summarize
    from workloads import Workload, make_config

    problems: list[str] = []
    _, import_ms = measure_setup(workload, 3)
    tracer = Tracer()

    # set-up layers, in process: each layer's total time per build
    build: dict[str, list[float]] = {}
    for _ in range(TRACED_BUILDS):
        tracer.install([])
        pipeline.build_runtime(make_config(workload))
        tracer.uninstall()
        for name, ms in durations_ms(tracer.spans, scale_now()).items():
            build.setdefault(name, []).append(ms)
        tracer.clear()

    def build_ms(name: str) -> float:
        return statistics.median(build[name]) if name in build else 0.0

    # self-check: the same fixed sample, untraced then traced
    wl = Workload(workload, seed)
    n, requests, tokens, docs = count_pass(wl, tally)
    tracer.install(wl.runtimes.values())
    n_t, requests_t, tokens_t, docs_t = count_pass(wl, tally, tracer)
    tracer.uninstall()
    counts = summarize(tracer.spans, n_t)
    tracer.clear()
    if docs != docs_t:
        problems.append("traced and untraced runs emitted different documents")
    traced_requests = round(counts.get("llm.provider.calls", 0.0) * n_t)
    traced_tokens = round(sum(counts.get(f"llm.prompt_tokens.{p}", 0.0) for p in PURPOSES) * n_t)
    if (n, requests, tokens) != (n_t, requests_t, tokens_t) or (requests, tokens) != (
        traced_requests,
        traced_tokens,
    ):
        problems.append(
            f"exact counts differ: untraced {requests} requests / {tokens} tokens, "
            f"traced {requests_t} / {tokens_t}, spans {traced_requests} / {traced_tokens}"
        )

    # timed halves: untraced, then traced
    plain = timed_loop(wl, tally, seconds / 2)
    tracer.install(wl.runtimes.values())
    with_spans = timed_loop(wl, tally, seconds / 2, tracer)
    tracer.uninstall()
    times = summarize(tracer.spans, with_spans.count)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload}-{seed}.jsonl")

    ratio = 0.0
    if wl.synthetic:
        ratio = stage_prompt_ratio(wl)
        if ratio > MAX_STAGE_PROMPT_RATIO:
            problems.append(f"scoped/full stage prompt ratio {ratio:.3f} > {MAX_STAGE_PROMPT_RATIO}")

    def c(key: str) -> float:
        return counts.get(key, 0.0)

    def t(key: str) -> float:
        return times.get(key, 0.0)

    predictions = ("stagepred.predict_single", "stagepred.predict_cag", "stagepred.predict_agentic")
    metrics = {
        "llm.count_tokens.ms": (t("llm.count_tokens.ms"), "ms"),
        "llm.count_tokens.kchars": (c("llm.count_tokens:chars") / 1000.0, "kchars"),
        "llm.render_prompt.ms": (t("llm.render_prompt.ms"), "ms"),
        "llm.load_template.calls": (c("llm.load_template.calls"), "count"),
        "llm.load_template.ms": (t("llm.load_template.ms"), "ms"),
        "llm.provider.calls": (c("llm.provider.calls"), "count"),
        "llm.provider.busy_ms": (t("llm.provider.ms"), "ms"),
        "llm.provider.depth": (c("llm.provider.depth"), "count"),
        **{f"llm.prompt_tokens.{p}": (c(f"llm.prompt_tokens.{p}"), "tokens") for p in PURPOSES},
        "classify.classify.calls": (c("classify.classify.calls"), "count"),
        "classify.classify.ms": (t("classify.classify.ms"), "ms"),
        "classify.keyword_scan.ms": (t("classify.keyword_scan.ms"), "ms"),
        "classify.train.ms": (build_ms("classify.train"), "ms"),
        "stagepred.render_stage_prompt.ms": (t("stagepred.render_stage_prompt.ms"), "ms"),
        "stagepred.decompose.ms": (t("stagepred.decompose.ms"), "ms"),
        "stagepred.build_candidates.ms": (t("stagepred.build_candidates.ms"), "ms"),
        "stagepred.select_examples.ms": (t("stagepred.select_examples.ms"), "ms"),
        "stagepred.candidates": (
            _share(c("stagepred.build_candidates:candidates"), c("stagepred.build_candidates.calls")),
            "count",
        ),
        "stagepred.candidate_recall": (
            _share(c("stagepred.build_candidates:recall"), c("stagepred.build_candidates.calls")),
            "share",
        ),
        "stagepred.dropped_names": (sum(c(f"{p}:dropped_names") for p in predictions), "count"),
        "stagepred.stage_prompt_tokens": (
            sum(c(f"{p}:stage_prompt_tokens") for p in predictions),
            "tokens",
        ),
        "stagepred.stage_prompt_ratio": (ratio, "share"),
        "edgepred.segment_for_nodes.ms": (t("edgepred.segment_for_nodes.ms"), "ms"),
        "edgepred.predict_edges.ms": (t("edgepred.predict_edges.ms"), "ms"),
        "edgepred.repair_with_renames.ms": (t("edgepred.repair_with_renames.ms"), "ms"),
        "edgepred.validate_cardinality.ms": (t("edgepred.validate_cardinality.ms"), "ms"),
        "edgepred.edges_kept_share": (
            _share(c("edgepred.predict_edges:kept"), c("edgepred.predict_edges:proposed")),
            "share",
        ),
        "edgepred.splits": (c("edgepred.repair_with_renames:splits"), "count"),
        "edgepred.prunes": (c("edgepred.repair_with_renames:prunes"), "count"),
        "proppred.predict_properties.ms": (t("proppred.predict_properties.ms"), "ms"),
        "proppred.validate.ms": (t("proppred.validate.ms"), "ms"),
        "proppred.accepted_share": (
            _share(c("proppred.validate:accepted"), c("proppred.validate:validated")),
            "share",
        ),
        "condexpr.parse_condition.calls": (c("condexpr.parse_condition.calls"), "count"),
        "condexpr.parse_condition.ms": (t("condexpr.parse_condition.ms"), "ms"),
        "condexpr.eval_condition.ms": (t("condexpr.eval_condition.ms"), "ms"),
        "condexpr.parse_condition.load_ms": (build_ms("condexpr.parse_condition"), "ms"),
        "pipeline.generate_with_runtime.self_ms": (t("pipeline.generate_with_runtime.ms"), "ms"),
        "pipeline.emit.ms": (t("pipeline.emit.ms"), "ms"),
        "pipeline.build_runtime.ms": (build_ms("pipeline.build_runtime"), "ms"),
        "evaluation.run_eval.self_ms": (t("evaluation.run_eval.ms"), "ms"),
        "catalog.load_catalog.ms": (build_ms("catalog.load_catalog"), "ms"),
        "cli.import.ms": (import_ms, "ms"),
        "trace.overhead_ms": (with_spans.percentile_ms(50) - plain.percentile_ms(50), "ms"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, problems


# --- entry points -------------------------------------------------------------------------


def run_one(args) -> int:
    tally = Tally()
    problems: list[str] = []
    if args.trace:
        metrics, problems = traced(args.workload, args.seed, args.seconds, tally)
    else:
        values = end_to_end(args.workload, args.seed, args.seconds, tally)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for line in tally.errors + problems:
        print(f"# {line}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_source()
    if args.workload is None:
        parser.error("--workload is required")
    _check_imported()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
