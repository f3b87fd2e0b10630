"""The four benchmark workloads: their configs, seeded inputs and reference checks.

Every workload is a closed loop with one client: the next utterance is sent
only after the previous one has returned and been checked, against one
``Runtime`` built before the loop. Inputs are a pure function of the seed.

* ``synth-cag`` / ``synth-single``: the synthetic 142-stage corpus through the
  stage-only eval path (``evaluation.run_eval`` with a prebuilt runtime, one
  record per call). Batch ``k`` of a run is ``generate_utterances(catalog,
  seed=f"{seed}:{k}")`` with its own mock scripts, so no utterance repeats.
  Each record is checked against the generator's ``gold_stages``.
* ``demo-pipeline``: the full pipeline (``generate_with_runtime`` then
  ``emit``) on the 31-stage demo catalog, over the ten (strategy, flow) pairs
  that ``mock_scripts_demo.json`` answers and one pair answered by the
  benchmark's own ``mock_scripts_repair.json``, shuffled by the seed on each
  pass. Each document is compared byte for byte with its pinned reference.
* ``demo-latency``: the same pairs with ``parallel=2`` and a provider that
  sleeps ``DELAY_S`` per call, standing in for a live endpoint.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from flowgen import evaluation, fixture_path, pipeline, synthdata
from flowgen.evaluation import EvalRecord
from flowgen.llm import MockProvider, MockScript, load_mock_scripts
from flowgen.pipeline import PipelineConfig
from names import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
# Scripted answers for the "repair" flow. Its graph over-connects two nodes
# and its properties have availability conditions, so repair and condexpr
# do work; no answer in the shipped demo scripts does either.
REPAIR_SCRIPTS = BENCH_DIR / "mock_scripts_repair.json"

# Ten times the ~0.3 ms of CPU a mock call costs, so round trips dominate.
DELAY_S = 0.010
LATENCY_PARALLEL = 2

# The demo mock scripts answer exactly the first ten pairs; every other
# (strategy, flow) pair of theirs ends in NoScriptMatchError, so it is left
# out. REPAIR_SCRIPTS answers the last one.
DEMO_PAIRS = (
    ("cag", "linear"),
    ("cag", "branching"),
    ("cag", "full_name"),
    ("cag", "tail"),
    ("single", "linear"),
    ("single", "branching"),
    ("single", "full_name"),
    ("single", "tail"),
    ("single", "merge"),
    ("agentic", "linear"),
    ("single", "repair"),
)

SYNTH_BATCH = 20
# Batches 0..COUNT_BATCHES-1 form the fixed sample the exact counts come
# from; the timed loop starts at batch COUNT_BATCHES, so nothing repeats.
COUNT_BATCHES = 5


def make_config(workload: str, strategy: str | None = None) -> PipelineConfig:
    if workload.startswith("synth-"):
        return PipelineConfig(
            strategy=workload.removeprefix("synth-"),
            catalog_path=fixture_path("synthetic_catalog.json"),
            examples_path=fixture_path("synthetic_bank.json"),
            classifier_path=fixture_path("synthetic_training_pairs.json"),
            registry_path=None,
            mock_scripts_path=fixture_path("mock_scripts_synthetic.json"),
        )
    parallel = LATENCY_PARALLEL if workload == "demo-latency" else 1
    return PipelineConfig(
        strategy=strategy or "cag",
        mock_scripts_path=fixture_path("mock_scripts_demo.json"),
        parallel=parallel,
    )


def build_demo_runtime(workload: str, strategy: str) -> pipeline.Runtime:
    """A demo runtime whose mock provider tries REPAIR_SCRIPTS first."""
    rt = pipeline.build_runtime(make_config(workload, strategy))
    rt.provider.scripts[:0] = load_mock_scripts(REPAIR_SCRIPTS).scripts
    if workload == "demo-latency":
        rt.provider = DelayedProvider(rt.provider, DELAY_S)
    return rt


def load_flows() -> dict[str, str]:
    return json.loads((REFERENCE_DIR / "flows.json").read_text(encoding="utf-8"))


def reference_path(strategy: str, flow: str) -> Path:
    return REFERENCE_DIR / f"{strategy}-{flow}.json"


class DelayedProvider:
    """Sleeps a fixed time per call before answering, like a remote endpoint."""

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s

    def complete(self, prompt, params):
        time.sleep(self.delay_s)
        return self.inner.complete(prompt, params)


class BatchProvider:
    """Answers with the mock scripts of the current synthetic batch."""

    def __init__(self):
        self.current: MockProvider | None = None

    def complete(self, prompt, params):
        return self.current.complete(prompt, params)


class CountingProvider:
    """Counts requests and prompt tokens: the provider bill."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = 0
        self.prompt_tokens = 0
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            self.requests += 1
            self.prompt_tokens += prompt.token_estimate
        return self.inner.complete(prompt, params)


@dataclass
class Item:
    """One utterance of the loop and what its output must be."""

    uid: str
    utterance: str
    gold_stages: list[str]  # as generated; for demo items, the reference's stages
    runtime: pipeline.Runtime
    reference: str | None = None  # emitted document, demo workloads only


def _mock_provider(records) -> MockProvider:
    scripts = []
    for raw in synthdata.generate_mock_scripts(records):
        ((kind, pattern),) = raw["match"].items()
        scripts.append(MockScript(kind=kind, pattern=pattern, response=raw["response"]))
    return MockProvider(scripts=scripts)


class Workload:
    """Builds the runtime(s) once, then yields seeded items batch by batch."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r} (choose from {WORKLOADS})")
        self.name = name
        self.seed = seed
        self.synthetic = name.startswith("synth-")
        self.runtimes: dict[str, pipeline.Runtime] = {}
        if self.synthetic:
            rt = pipeline.build_runtime(make_config(name))
            self.batch_provider = rt.provider = BatchProvider()
            self.runtimes["synth"] = rt
        else:
            for strategy in sorted({s for s, _ in DEMO_PAIRS}):
                self.runtimes[strategy] = build_demo_runtime(name, strategy)
            self.flows = load_flows()
            self.references = {
                pair: reference_path(*pair).read_text(encoding="utf-8") for pair in DEMO_PAIRS
            }
            self.reference_stages = {
                pair: sorted({n["stage"] for n in json.loads(doc)["nodes"]})
                for pair, doc in self.references.items()
            }

    def batch(self, k: int) -> list[Item]:
        """Batch ``k`` of the input sequence; a synthetic batch also installs its scripts."""
        if self.synthetic:
            rt = self.runtimes["synth"]
            records = synthdata.generate_utterances(
                rt.catalog, seed=f"{self.seed}:{k}", count=SYNTH_BATCH
            )
            self.batch_provider.current = _mock_provider(records)
            return [
                Item(f"{k}.{i}", r.utterance, list(r.gold_stages), rt)
                for i, r in enumerate(records)
            ]
        pairs = list(DEMO_PAIRS)
        random.Random(f"{self.seed}:{k}").shuffle(pairs)
        return [
            Item(
                f"{k}.{strategy}-{flow}",
                self.flows[flow],
                self.reference_stages[(strategy, flow)],
                self.runtimes[strategy],
                self.references[(strategy, flow)],
            )
            for strategy, flow in pairs
        ]

    def count_batches(self) -> range:
        return range(COUNT_BATCHES if self.synthetic else 1)

    def timed_batches(self):
        k = self.count_batches().stop
        while True:
            yield self.batch(k)
            k += 1

    def set_counting(self, on: bool) -> None:
        """Wrap (or unwrap) every runtime's provider in a CountingProvider."""
        for rt in self.runtimes.values():
            if on and not isinstance(rt.provider, CountingProvider):
                rt.provider = CountingProvider(rt.provider)
            elif not on and isinstance(rt.provider, CountingProvider):
                rt.provider = rt.provider.inner

    def counted(self) -> tuple[int, int]:
        reqs = tokens = 0
        for rt in self.runtimes.values():
            if isinstance(rt.provider, CountingProvider):
                reqs += rt.provider.requests
                tokens += rt.provider.prompt_tokens
        return reqs, tokens


def run_item(item: Item) -> tuple[bool, str | None]:
    """Run one utterance and check it; returns (ok, emitted document or None).

    Modules are looked up at call time so a traced run sees its wrappers.
    """
    if item.reference is None:
        record = EvalRecord(item.utterance, item.gold_stages)
        report = evaluation.run_eval([record], item.runtime.cfg, ("stages",), item.runtime)
        ok = (
            not report.failures
            and report.stages is not None
            and report.stages.n_records == 1
            and report.stages.total == 100.0
        )
        return ok, None
    workflow = pipeline.generate_with_runtime(item.utterance, item.runtime)
    doc = pipeline.emit(workflow)
    ok = doc == item.reference and not workflow.provenance.get("diagnostics")
    return ok, doc
