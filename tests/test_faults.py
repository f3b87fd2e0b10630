"""The failure contract under adversarial model answers.

A provider wraps the demo ``MockProvider``. For each prompt, SHA-256 of
(seed, prompt text) picks one of: the scripted answer, a ``ProviderError``,
or one of a drawn list of near-misses of the scripted answer (or of the
empty answer, for an unscripted prompt). The fault follows the prompt, not
the call order, so a prompt meets the same fault at ``parallel`` 1 and 2.

Over the reference flows and every strategy, each run must return a
``Workflow`` or raise ``PipelineError`` for stage prediction; a returned
workflow's diagnostics name only the steps that degrade; every call that
raised leaves an ``outcome: "error"`` record in its step's trace; and
``parallel`` 1 and 2 give the same bytes. Through ``cli.main``, every run
exits 0 or 2 and prints no traceback: the config is valid, so no model-side
fault may exit 1, the code for bad input.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from flowgen import cli, fixture_path, llm, pipeline
from flowgen.llm import NoScriptMatchError, ProviderError
from flowgen.pipeline import PipelineConfig, PipelineError, build_runtime, emit, generate_with_runtime

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FLOWS = json.loads((PERFBENCH / "reference" / "flows.json").read_text(encoding="utf-8"))
STRATEGIES = ("cag", "single", "agentic")
# the repair flow is scripted by the benchmark's own file, as scripts/output_digest.py runs it
SCRIPTS = {name: fixture_path("mock_scripts_demo.json") for name in FLOWS}
SCRIPTS["repair"] = PERFBENCH / "mock_scripts_repair.json"
DEGRADABLE_STEPS = {"segmentation", "edge_prediction", "properties"}
# the trace each call purpose writes to
TRACE_OF = {
    "decompose": "stage_trace",
    "stage_selection": "stage_trace",
    "agent_step": "stage_trace",
    "segmentation": "segment_trace",
    "edge_prediction": "edge_trace",
    "properties": "property_trace",
}


def _values(answer: str, value: str) -> str:
    return "\n".join(
        line.partition("=")[0] + "= " + value if "=" in line else line for line in answer.splitlines()
    )


def _shuffled(answer: str, rng: random.Random) -> str:
    lines = answer.splitlines()
    rng.shuffle(lines)
    return "\n".join(lines)


# each near-miss of a scripted answer, by name
NEAR_MISSES = {
    "empty": lambda a, rng: "",
    "controls": lambda a, rng: "\x00".join(a) + "\x1b\x07\x7f",
    "no_words": lambda a, rng: '"\x00, \x1b,\x07"',
    "repeated": lambda a, rng: "\n".join([a] * 200),
    "shuffled": _shuffled,
    "duplicated": lambda a, rng: "\n".join(line for line in a.splitlines() for _ in (0, 1)),
    "reversed": lambda a, rng: "\n".join(reversed(a.splitlines())),
    "unknown_stages": lambda a, rng: '"no_such_stage, sort, ghost_2"',
    "unknown_nodes": lambda a, rng: "no_such_node: Use Tail\n" + a.replace(":", "_x:", 1),
    "unknown_edges": lambda a, rng: "no_such_node -> sort\n" + a.replace(" ->", "_9 ->", 1),
    "unknown_properties": lambda a, rng: "No Such Property = 1\n" + a,
    "overflow": lambda a, rng: _values(a, "1e309") + "\nRow Limit = 1e309\nPeriod = -1e309",
    "huge": lambda a, rng: _values(a, "9" * 5000) + "\nNumber of Rows = " + "9" * 5000,
    "stray_call": lambda a, rng: a + "\nCALL classify: sort the rows",
    "stray_final": lambda a, rng: 'FINAL: "no_such_stage"\n' + a,
    "crlf": lambda a, rng: a.replace("\n", "\r\n"),
}

near_miss_lists = st.lists(
    st.one_of(st.sampled_from(sorted(NEAR_MISSES)), st.tuples(st.just("text"), st.text(max_size=60))),
    min_size=1,
    max_size=4,
)


class Faulty:
    """Answers a prompt as SHA-256 of (seed, prompt text) picks: scripted, ``ProviderError`` or a near-miss.

    ``near_misses`` holds names of ``NEAR_MISSES`` and ``("text", t)``
    pairs, which answer ``t``. ``raised`` keeps the hash of each prompt that
    the provider raised on.
    """

    def __init__(self, inner, seed: int, near_misses: list):
        self.inner, self.seed, self.near_misses = inner, seed, near_misses
        self.raised: list[str] = []

    def complete(self, prompt, params):
        digest = hashlib.sha256(f"{self.seed}\n{prompt.text}".encode()).digest()
        choice = int.from_bytes(digest[:4], "big") % (2 + len(self.near_misses))
        if choice == 1:
            self.raised.append(prompt.sha256)
            raise ProviderError("injected fault")
        try:
            answer = self.inner.complete(prompt, params)
        except NoScriptMatchError:
            if choice == 0:
                self.raised.append(prompt.sha256)
                raise
            answer = ""
        if choice == 0:
            return answer
        near_miss = self.near_misses[choice - 2]
        if isinstance(near_miss, tuple):
            return near_miss[1]
        return NEAR_MISSES[near_miss](answer, random.Random(digest))


_RUNTIMES: dict[tuple, tuple] = {}


def runtime(strategy: str, scripts: Path, parallel: int):
    """A demo runtime, built once per key, and its scripted provider."""
    key = (strategy, scripts, parallel)
    if key not in _RUNTIMES:
        rt = build_runtime(PipelineConfig(strategy=strategy, mock_scripts_path=scripts, parallel=parallel))
        _RUNTIMES[key] = (rt, rt.provider)
    return _RUNTIMES[key]


def run(flow: str, strategy: str, parallel: int, seed: int, near_misses: list) -> str:
    """The bytes of one faulty run: the document and provenance, or the error envelope."""
    rt, scripted = runtime(strategy, SCRIPTS[flow], parallel)
    rt.provider = provider = Faulty(scripted, seed, near_misses)
    try:
        workflow = generate_with_runtime(FLOWS[flow], rt)
    except PipelineError as exc:
        assert exc.step == "stage_prediction", exc
        provenance = exc.provenance
        out = json.dumps(exc.envelope(), ensure_ascii=False)
    else:
        provenance = workflow.provenance
        steps = [d["step"] for d in provenance["diagnostics"]]
        assert set(steps) <= DEGRADABLE_STEPS, steps
        out = emit(workflow) + json.dumps(provenance, ensure_ascii=False)
    errors = []
    for key in set(TRACE_OF.values()) & provenance.keys():
        for record in provenance[key]:
            if record.get("outcome") == "error":
                assert TRACE_OF[record["purpose"]] == key, record
                errors.append(record["prompt_sha256"])
    assert Counter(errors) == Counter(provider.raised)
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), near_misses=near_miss_lists)
@example(seed=0, near_misses=["no_words"])
@example(seed=1, near_misses=["empty", "huge"])
def test_a_faulty_provider_degrades_or_fails_stage_prediction_alike_at_any_parallelism(seed, near_misses):
    for flow in FLOWS:
        for strategy in STRATEGIES:
            sequential = run(flow, strategy, 1, seed, near_misses)
            assert run(flow, strategy, 2, seed, near_misses) == sequential, (flow, strategy)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), near_misses=near_miss_lists)
def test_the_cli_exits_0_or_2_under_a_faulty_provider_without_a_traceback(seed, near_misses):
    load = llm.load_mock_scripts
    for flow in FLOWS:
        for strategy in STRATEGIES:
            out, err = io.StringIO(), io.StringIO()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "load_mock_scripts", lambda path: Faulty(load(path), seed, near_misses))
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main([
                        "generate", "--utterance", FLOWS[flow], "--strategy", strategy,
                        "--mock-scripts", str(SCRIPTS[flow]), "--parallel", "2", "--trace",
                    ])
            assert code in (0, 2), (flow, strategy)
            assert "Traceback" not in err.getvalue()
            if code == 0:
                assert json.loads(out.getvalue())["provenance"]["strategy"] == strategy
            if code == 2:
                assert json.loads(err.getvalue())["error"]["step"] == "stage_prediction"
