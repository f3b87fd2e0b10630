"""End-to-end pipeline: configuration, generation, degradation, emission.

Scenario expectations (node lists, edges, properties, token counts) are
pinned against the scripted demo corpus, so any drift in prompt assembly,
parsing, or verification shows up as a concrete diff here.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    BRANCHING_FLOW,
    FULL_NAME_FLOW,
    LINEAR_FLOW,
    MERGE_FLOW,
    FailingOn,
    RecordingProvider,
    Reply,
    make_catalog,
    make_runtime as runtime,
    make_stage,
    scripted,
)
from flowgen import InputError, fixture_path, llm
from flowgen.catalog import STRING, CardinalityBound, PropertyDef
from flowgen.classify import keyword_scan
from flowgen.condexpr import ConditionTypeError
from flowgen import edgepred, proppred, stagepred
from flowgen.edgepred import FlowGraph, NodeInstance, to_dot
from flowgen.llm import (
    CompletionParams,
    HTTPProvider,
    MockProvider,
    RenderedPrompt,
    count_tokens,
    load_mock_scripts,
    render_prompt,
)
from flowgen.pipeline import (
    PipelineConfig,
    PipelineError,
    Workflow,
    build_runtime,
    emit,
    generate_with_runtime,
    load_workflow_doc,
    predict_stages,
)
from flowgen.proppred import ACCEPTED, PropertyAssignment, canonical_value
from flowgen.stagepred import render_stage_prompt


# --- configuration -----------------------------------------------------------------


def test_config_rejects_unknown_strategy(demo_config):
    with pytest.raises(InputError, match="unknown strategy 'greedy'"):
        build_runtime(demo_config(strategy="greedy"))


def test_config_rejects_unknown_family(demo_config):
    with pytest.raises(InputError, match="unknown model family"):
        build_runtime(demo_config(family="plain"))


def test_config_rejects_bad_parallel_width(demo_config):
    with pytest.raises(InputError, match="parallel width"):
        build_runtime(demo_config(parallel=0))


def test_config_reports_missing_files_by_label(demo_config):
    with pytest.raises(InputError) as err:
        build_runtime(demo_config(catalog_path="/nonexistent/catalog.json"))
    assert "catalog: /nonexistent/catalog.json" in str(err.value)


def test_build_runtime_loads_demo_assets(demo_config):
    rt = build_runtime(demo_config())
    assert len(rt.catalog.stages) > 20
    assert len(rt.bank) == 50
    assert rt.registry is not None
    assert isinstance(rt.provider, MockProvider)


def test_single_runtime_compiles_no_keyword_pattern(demo_config, monkeypatch):
    # the keyword index is built at the first keyword scan, which single never runs
    compiled = []
    real_compile = re.compile

    def recording_compile(pattern, flags=0):
        compiled.append(pattern)
        return real_compile(pattern, flags)

    monkeypatch.setattr(re, "compile", recording_compile)
    rt = build_runtime(demo_config(strategy="single"))
    assert "keyword_index" not in vars(rt.catalog)
    assert not [p for p in compiled if isinstance(p, str) and p.startswith(r"\b")]

    keyword_scan(rt.catalog, "sort the rows")
    assert "keyword_index" in vars(rt.catalog)
    assert len([p for p in compiled if isinstance(p, str) and p.startswith(r"\b")]) == sum(
        map(len, rt.catalog.keyword_index.values())
    )


@pytest.mark.parametrize("family", ["granite", "llama"])
def test_single_runtime_listing_renders_the_full_stage_prompt(family):
    rt = build_runtime(
        PipelineConfig(
            strategy="single",
            family=family,
            catalog_path=fixture_path("synthetic_catalog.json"),
            examples_path=fixture_path("synthetic_bank.json"),
            classifier_path=fixture_path("synthetic_training_pairs.json"),
            registry_path=None,
            mock_scripts_path=fixture_path("mock_scripts_synthetic.json"),
        )
    )
    records = json.loads(fixture_path("synthetic_utterances.json").read_text(encoding="utf-8"))
    for utterance in [r["utterance"] for r in records[:3]] + ["", "7", "_x", "é"]:
        prompt = render_prompt(rt.listing, {"utterance": utterance})
        assert prompt == render_stage_prompt(rt.catalog, None, rt.bank, utterance, family)
        assert prompt.token_estimate == count_tokens(prompt.text)


def test_build_runtime_without_mock_scripts_needs_endpoint(demo_config, monkeypatch):
    monkeypatch.delenv("LLM_ENDPOINT", raising=False)
    from flowgen.llm import ProviderError

    with pytest.raises(ProviderError, match="LLM_ENDPOINT"):
        build_runtime(demo_config(mock_scripts_path=None))


def test_build_runtime_remote_classifier(demo_config, tmp_path):
    from flowgen.classify import RemoteClassifier

    # with an endpoint the training pairs are never read, so they need not exist
    cfg = demo_config(
        classifier_endpoint="http://localhost:9/classify", classifier_path=tmp_path / "missing.json"
    )
    rt = build_runtime(cfg)
    assert isinstance(rt.classifier, RemoteClassifier)


# --- scripted walkthrough scenarios --------------------------------------------------


def test_linear_walkthrough(demo_config):
    w = generate_with_runtime(LINEAR_FLOW, build_runtime(demo_config()))
    assert [n.unique_name for n in w.graph.nodes] == [
        "teradata", "sort", "filter", "decode", "column_generator", "postgresql",
    ]
    assert w.graph.edges == [
        ("teradata", "sort"), ("sort", "filter"), ("filter", "decode"),
        ("decode", "column_generator"), ("column_generator", "postgresql"),
    ]
    props = {
        n: [(a.name, str(a.coerced)) for a in assignments]
        for n, assignments in w.properties.items()
    }
    assert props["teradata"] == [
        ("Connection Name", "teradata-00"),
        ("Schema Name", "TM_DS_DB_1"),
        ("Table Name", "EMPLOYEE2"),
    ]
    assert props["sort"] == [("Sort Key", "age")]
    assert props["filter"] == [("Where Clause", "pizza")]
    assert props["decode"] == [("Rounding Mode", "ceiling")]
    assert props["column_generator"] == []
    assert props["postgresql"] == [
        ("Connection Name", "tristan_postconn"),
        ("Schema Name", "public"),
        ("Table Name", "demoautotest"),
    ]
    assert w.provenance["usage"] == {
        "prompt_tokens": 2294, "completion_tokens": 242, "requests": 10,
    }
    assert w.provenance["rejections"] == {}
    assert w.provenance["under_connections"] == []
    assert w.provenance["diagnostics"] == []


def test_linear_walkthrough_usage_sums_uniform_llm_call_records(demo_config):
    w = generate_with_runtime(LINEAR_FLOW, build_runtime(demo_config()))
    records = [
        entry
        for key in ("stage_trace", "segment_trace", "edge_trace", "property_trace")
        for entry in w.provenance[key]
        if entry["event"] == "llm_call"
    ]
    assert [r["purpose"] for r in records] == [
        "decompose", "stage_selection", "segmentation", "edge_prediction", *["properties"] * 6,
    ]
    keys = {"event", "purpose", "prompt_tokens", "completion_tokens", "prompt_sha256"}
    for r in records:
        assert set(r) == (keys | {"node"} if r["purpose"] == "properties" else keys)
    assert w.provenance["usage"] == {
        "prompt_tokens": sum(r["prompt_tokens"] for r in records),
        "completion_tokens": sum(r["completion_tokens"] for r in records),
        "requests": len(records),
    }


def test_branching_walkthrough(demo_config):
    w = generate_with_runtime(BRANCHING_FLOW, build_runtime(demo_config()))
    assert [n.unique_name for n in w.graph.nodes] == [
        "mysql", "sample", "switch", "fileset_1", "sort", "fileset_2", "join", "sqlserver", "head",
    ]
    assert len(w.graph.edges) == 8
    assert ("sample", "join") in w.graph.edges and ("sqlserver", "join") in w.graph.edges
    assert w.provenance["pre_repair_violations"] == []
    assert w.provenance["renames"] == {}


def test_single_node_flow_owns_whole_utterance(demo_config):
    w = generate_with_runtime(FULL_NAME_FLOW, build_runtime(demo_config()))
    assert [n.unique_name for n in w.graph.nodes] == ["split_subrecord"]
    assert w.graph.edges == []
    assert w.provenance["segments"] == {"split_subrecord": FULL_NAME_FLOW}


def test_merge_flow_under_single_strategy(demo_config):
    w = generate_with_runtime(MERGE_FLOW, build_runtime(demo_config(strategy="single")))
    assert [n.unique_name for n in w.graph.nodes] == ["join_merge", "modify"]
    assert w.graph.edges == [("join_merge", "modify")]
    assert w.provenance["strategy"] == "single"


def test_agentic_strategy_on_linear_walkthrough(demo_config):
    w = generate_with_runtime(LINEAR_FLOW, build_runtime(demo_config(strategy="agentic")))
    assert [n.unique_name for n in w.graph.nodes] == [
        "sort", "filter", "decode", "column_generator",
    ]
    assert len(w.graph.edges) == 3
    assert w.provenance["usage"]["requests"] == 12


def test_generation_is_deterministic_across_parallelism(demo_config):
    runs = []
    for parallel in (1, 4, 4):
        w = generate_with_runtime(LINEAR_FLOW, build_runtime(demo_config(parallel=parallel)))
        runs.append(
            (emit(w), to_dot(w.graph), json.dumps(w.provenance, sort_keys=True))
        )
    assert runs[0] == runs[1] == runs[2]


# --- prompt assembly -------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# every demo flow by name; "repair" is answered by the benchmark's own scripts
DEMO_FLOWS = json.loads((PERFBENCH / "reference" / "flows.json").read_text(encoding="utf-8"))
REPAIR_SCRIPTS = PERFBENCH / "mock_scripts_repair.json"


def llm_calls(provenance: dict) -> list[dict]:
    traces = ("stage_trace", "segment_trace", "edge_trace", "property_trace")
    return [e for t in traces for e in provenance.get(t, []) if e["event"] == "llm_call"]


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize(
    "strategy, purposes",
    [
        ("cag", {"decompose", "stage_selection"}),
        ("single", {"stage_selection"}),
        ("agentic", {"agent_step"}),
    ],
)
def test_every_prompt_is_counted_and_hashed_as_from_scratch(
    demo_config, strategy, purposes, parallel
):
    # one runtime for every flow, so later runs reuse the pieces that earlier ones built
    rt = build_runtime(demo_config(strategy=strategy, parallel=parallel))
    scripts = load_mock_scripts(REPAIR_SCRIPTS).scripts + rt.provider.scripts
    rt.provider = recording = RecordingProvider(MockProvider(scripts))
    sent = set()
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # property branches race to build each stage's template
    try:
        for utterance in DEMO_FLOWS.values():
            try:
                w = generate_with_runtime(utterance, rt)
            except PipelineError:  # a pair the scripts do not answer
                continue
            sent |= {c["purpose"] for c in llm_calls(w.provenance)}
    finally:
        sys.setswitchinterval(switch_interval)
    assert sent == purposes | {"segmentation", "edge_prediction", "properties"}
    assert recording.prompts
    for prompt in recording.prompts:
        assert prompt.token_estimate == count_tokens(prompt.text)
        assert prompt.sha256 == hashlib.sha256(prompt.text.encode("utf-8")).hexdigest()[:16]


def test_a_second_run_counts_only_its_own_text(demo_config, monkeypatch):
    rt = build_runtime(demo_config())
    rt.provider = recording = RecordingProvider(rt.provider)
    texts: list[str] = []

    def spy(text):
        texts.append(text)
        return count_tokens(text)

    monkeypatch.setattr(llm, "count_tokens", spy)
    runs = []
    for _ in range(2):
        texts.clear()
        recording.prompts.clear()
        w = generate_with_runtime(LINEAR_FLOW, rt)
        runs.append(list(texts))
    first, second = runs
    nodes = edgepred.build_nodes(w.provenance["stages"], rt.catalog)
    segments = w.provenance["segments"]
    assert len(nodes) > 2 and list(segments) == [n.unique_name for n in nodes]

    def bound(b):
        return f"{b.min}..{'*' if b.max is None else b.max}"

    # the run's own text, counted at each render that is given it: the utterance (decompose,
    # stage, segmentation and edge prompts), the two node blocks, each span and each answer
    segment_block = "\n".join(
        f"{n.unique_name} ({n.stage}): {rt.catalog.stages[n.stage].description}" for n in nodes
    )
    edge_block = "\n".join(
        f"{n.unique_name} ({n.stage}, inputs {bound(n.inputs)}, outputs {bound(n.outputs)}): "
        f"{segments[n.unique_name]}"
        for n in nodes
    )
    answers = [recording.inner.complete(p, CompletionParams()) for p in recording.prompts]
    own = Counter([LINEAR_FLOW] * 4 + [segment_block, edge_block, *segments.values(), *answers])
    assert Counter(second) == own
    # the first run also binds each stage's properties template, its name and property list
    stages = {n.stage: rt.catalog.stages[n.stage] for n in nodes}.values()
    prop_lists = ["\n".join(f"{p.name}: {p.description}" for p in s.properties) for s in stages]
    assert Counter(first) == own + Counter([s.name for s in stages] + prop_lists)
    assert any(prop_lists) and not set(prop_lists) & set(second)
    # no run counts a context line, a few-shot block or template text
    (candidates,) = [e["stages"] for e in w.provenance["stage_trace"] if e["event"] == "candidates"]
    context_lines = {rt.prompts.lines[name][0] for name in candidates}
    blocks = {ex.block[0] for ex in rt.bank}
    templates = [
        *stagepred._STAGE_TEMPLATES.values(), rt.prompts.decompose, edgepred._SEGMENT_TEMPLATE,
        edgepred._EDGES_TEMPLATE, *rt.prompts.properties.values(),
    ]
    template_texts = {text for t in templates for kind, text, _ in t.segments if kind == "text"}
    for static in (context_lines, blocks, template_texts):
        assert static and not static & {*first, *second}


def test_a_cag_runtime_counts_its_stage_prompt_pieces_when_built(demo_config, monkeypatch):
    rt = build_runtime(demo_config(strategy="cag"))
    rt.provider = recording = RecordingProvider(rt.provider)
    texts: list[str] = []

    def spy(text):
        texts.append(text)
        return count_tokens(text)

    monkeypatch.setattr(llm, "count_tokens", spy)
    prediction = predict_stages(LINEAR_FLOW, rt)
    assert prediction.stages and len(recording.prompts) == 2
    # the first run counts only its own text: the utterance at each of its two renders, and
    # each answer; no context line, few-shot block or template text
    answers = [recording.inner.complete(p, CompletionParams()) for p in recording.prompts]
    assert texts == [LINEAR_FLOW, answers[0], LINEAR_FLOW, answers[1]]


def test_steps_take_their_trace_caches_and_text_without_defaults():
    # the pipeline hands every step its trace, its runtime's caches and its text; no
    # default stands in for one of them
    steps = [
        stagepred.predict_single, stagepred.decompose, stagepred.build_candidates,
        stagepred.predict_agentic, edgepred.segment_for_nodes, edgepred.predict_edges,
        edgepred.repair_with_renames, proppred.predict_properties,
    ]
    for step in steps:
        parameters = inspect.signature(step).parameters.values()
        assert [p.name for p in parameters if p.default is not p.empty] == [], step.__name__
    trace = inspect.signature(stagepred.StagePrediction).parameters["trace"]
    assert trace.default is trace.empty


# --- repair interaction ---------------------------------------------------------------


def split_catalog():
    return make_catalog(
        make_stage(
            "reader",
            is_connector=True,
            inputs=(0, 0),
            outputs=(1, 1),
            properties=(PropertyDef("Connection Name", "Connection to read.", STRING),),
        ),
        make_stage("alpha", inputs=(1, 1), outputs=(0, 0)),
        make_stage("beta", inputs=(1, 1), outputs=(0, 0)),
    )


def split_provider() -> MockProvider:
    return scripted(
        ("Context:", '"reader, alpha, beta"'),
        ("Assignments:", "reader: read from reader\nalpha: into alpha\nbeta: and beta"),
        ("Edges:", "reader -> alpha\nreader -> beta"),
        ("Sub-utterance: read from reader\nProperties set:", "Connection Name = conn-1"),
        ("Properties set:", "none"),
    )


def test_split_copies_inherit_properties():
    rt = runtime(split_catalog(), split_provider(), strategy="single")
    w = generate_with_runtime("read from reader into alpha and beta", rt)
    assert [n.unique_name for n in w.graph.nodes] == ["reader_1", "reader_2", "alpha", "beta"]
    assert w.graph.edges == [("reader_1", "alpha"), ("reader_2", "beta")]
    for copy in ("reader_1", "reader_2"):
        assert [(a.name, a.coerced) for a in w.properties[copy]] == [("Connection Name", "conn-1")]
    assert w.provenance["renames"] == {"reader": ["reader_1", "reader_2"]}
    assert w.provenance["pre_repair_violations"] == ["reader: 2 outputs > bound 1"]
    assert len(w.graph.edges) == 2  # splitting preserved the edge count


def test_assembly_error_shows_violations_by_their_text(monkeypatch):
    def unrepaired(g, trace):
        return g, {}

    monkeypatch.setattr("flowgen.pipeline.repair_with_renames", unrepaired)
    rt = runtime(split_catalog(), split_provider(), strategy="single")
    with pytest.raises(PipelineError) as err:
        generate_with_runtime("read from reader into alpha and beta", rt)
    assert err.value.envelope()["error"] == {
        "step": "assembly",
        "message": "assembly: over-connections survived repair: reader: 2 outputs > bound 1",
    }


def test_rejected_assignments_surface_in_provenance(demo_config, tmp_path):
    extra = [
        {
            "match": {"contains": "Sub-utterance: sort on the age column\nProperties set:"},
            "response": "Ghost Prop = 1\nSort Key = age",
        }
    ]
    demo_scripts = json.loads(fixture_path("mock_scripts_demo.json").read_text(encoding="utf-8"))
    path = tmp_path / "scripts.json"
    path.write_text(json.dumps(extra + demo_scripts), encoding="utf-8")
    w = generate_with_runtime(LINEAR_FLOW, build_runtime(demo_config(mock_scripts_path=path)))
    assert [(a.name, a.coerced) for a in w.properties["sort"]] == [("Sort Key", "age")]
    assert w.provenance["rejections"]["sort"] == [
        {
            "name": "Ghost Prop",
            "status": "rejected_unknown_name",
            "detail": "sort has no such property",
        }
    ]


# --- degradation ----------------------------------------------------------------------


def degradable_catalog():
    return make_catalog(
        make_stage("sort", inputs=(0, 1), outputs=(0, 1)),
        make_stage("head", inputs=(0, 1), outputs=(0, 1)),
    )


UTTERANCE = "sort rows then take head"

BASE_SCRIPTS = {
    "stage": ("Context:", '"sort, head"'),
    "segment": ("Assignments:", "sort: sort rows\nhead: take head"),
    "edges": ("Edges:", "sort -> head"),
    "props": ("Properties set:", "none"),
}


def provider_without(*dropped: str) -> MockProvider:
    return scripted(*(pair for key, pair in BASE_SCRIPTS.items() if key not in dropped))


def test_segmentation_failure_degrades_to_whole_utterance():
    rt = runtime(degradable_catalog(), provider_without("segment"), strategy="single")
    w = generate_with_runtime(UTTERANCE, rt)
    assert [n.unique_name for n in w.graph.nodes] == ["sort", "head"]
    assert w.provenance["segments"] == {"sort": UTTERANCE, "head": UTTERANCE}
    assert [d["step"] for d in w.provenance["diagnostics"]] == ["segmentation"]
    assert w.graph.edges == [("sort", "head")]  # downstream steps still ran


def test_edge_failure_degrades_to_empty_edge_set():
    rt = runtime(degradable_catalog(), provider_without("edges"), strategy="single")
    w = generate_with_runtime(UTTERANCE, rt)
    assert w.graph.edges == []
    assert [d["step"] for d in w.provenance["diagnostics"]] == ["edge_prediction"]
    assert w.properties["sort"] == [] and w.properties["head"] == []


def test_property_failure_degrades_per_node():
    rt = runtime(degradable_catalog(), provider_without("props"), strategy="single")
    w = generate_with_runtime(UTTERANCE, rt)
    assert w.graph.edges == [("sort", "head")]
    assert w.properties == {"sort": [], "head": []}
    steps = [(d["step"], d.get("node")) for d in w.provenance["diagnostics"]]
    assert sorted(steps) == [("properties", "head"), ("properties", "sort")]


def test_property_branch_lets_condition_type_errors_escape(demo_config, monkeypatch):
    def raising(exc):
        def validate(*args, **kwargs):
            raise exc

        return validate

    # a loaded catalog's conditions type-check, so a ConditionTypeError is a bug: it escapes
    for exc in (ConditionTypeError("bad operand"), KeyError("bug")):
        monkeypatch.setattr("flowgen.pipeline.validate", raising(exc))
        with pytest.raises(type(exc)):
            generate_with_runtime(LINEAR_FLOW, build_runtime(demo_config()))


def test_degradation_is_identical_under_parallelism():
    outputs = []
    for parallel in (1, 4):
        rt = runtime(
            degradable_catalog(), provider_without("props"), strategy="single", parallel=parallel
        )
        w = generate_with_runtime(UTTERANCE, rt)
        outputs.append((emit(w), json.dumps(w.provenance["diagnostics"], sort_keys=True)))
    assert outputs[0] == outputs[1]


def test_stage_prediction_failure_aborts_with_envelope():
    rt = runtime(degradable_catalog(), scripted(), strategy="single")
    with pytest.raises(PipelineError) as err:
        generate_with_runtime(UTTERANCE, rt)
    envelope = err.value.envelope()
    assert envelope["error"]["step"] == "stage_prediction"
    assert envelope["provenance"]["utterance"] == UTTERANCE


def test_a_failed_segmentation_call_leaves_its_record():
    provider = FailingOn(provider_without(), BASE_SCRIPTS["segment"][0])
    w = generate_with_runtime(UTTERANCE, runtime(degradable_catalog(), provider, strategy="single"))
    assert [d["step"] for d in w.provenance["diagnostics"]] == ["segmentation"]
    (record,) = w.provenance["segment_trace"]
    assert record["event"] == "llm_call" and record["purpose"] == "segmentation"
    assert record["prompt_tokens"] > 0
    assert (record["completion_tokens"], record["outcome"], record["error"]) == (0, "error", "ProviderError")
    calls = llm_calls(w.provenance)
    assert [c for c in calls if "outcome" in c] == [record]  # successful records gain no key
    assert w.provenance["usage"] == {
        "prompt_tokens": sum(c["prompt_tokens"] for c in calls),
        "completion_tokens": sum(c["completion_tokens"] for c in calls),
        "requests": len(calls),
    }


def test_a_failed_stage_prompt_leaves_its_record_in_the_envelope():
    provider = FailingOn(provider_without(), BASE_SCRIPTS["stage"][0])
    with pytest.raises(PipelineError) as err:
        generate_with_runtime(UTTERANCE, runtime(degradable_catalog(), provider, strategy="single"))
    provenance = err.value.envelope()["provenance"]
    (record,) = provenance["stage_trace"]
    assert record["purpose"] == "stage_selection"
    assert (record["outcome"], record["error"]) == ("error", "ProviderError")
    assert provenance["usage"] == {
        "prompt_tokens": record["prompt_tokens"], "completion_tokens": 0, "requests": 1,
    }
    assert record["prompt_tokens"] > 0


def test_empty_stage_answer_yields_empty_workflow():
    rt = runtime(degradable_catalog(), scripted(("Context:", '""')), strategy="single")
    w = generate_with_runtime(UTTERANCE, rt)
    assert w.graph.nodes == [] and w.graph.edges == [] and w.properties == {}


class FaultyAnswers:
    """Answers completion requests from the demo scripts, except at call ``k``.

    Call ``k`` gets the ``bad`` replies instead, one per attempt it makes.
    """

    def __init__(self, k: int, bad: list[Reply]):
        self.scripts = load_mock_scripts(fixture_path("mock_scripts_demo.json"))
        self.k, self.bad = k, list(bad)
        self.calls = 0

    def __call__(self, body: dict) -> Reply:
        if self.calls == self.k and self.bad:
            reply = self.bad.pop(0)
            self.calls += not self.bad
            return reply
        self.calls += 1
        prompt = RenderedPrompt(text=body["prompt"], token_estimate=0, sha256="")
        answer = self.scripts.complete(prompt, CompletionParams())
        return Reply(200, json.dumps({"text": answer}))


# the step that LINEAR_FLOW's k-th call serves at parallel=1; None is stage prediction
LINEAR_CALL_STEPS = [None, None, "segmentation", "edge_prediction", *["properties"] * 6]

BAD_REPLIES = {
    "not-json": [Reply(200, "<html>bad gateway</html>")],
    "array": [Reply(200, "[1, 2]")],
    "no-choice": [Reply(200, '{"choices": []}')],
    "rejected": [Reply(400, "bad request")],
    "server-down": [Reply(500, "boom")] * 3,
    "lone-surrogate": [Reply(200, '{"text": "sort_1 \\ud800"}')],
    "deep-nesting": [Reply(200, "[" * 100000 + "]" * 100000)],
}


@pytest.mark.parametrize("fault", BAD_REPLIES)
@pytest.mark.parametrize("k", range(len(LINEAR_CALL_STEPS)))
def test_a_bad_http_reply_at_any_call_degrades_or_aborts(demo_config, http_endpoint, monkeypatch, k, fault):
    answers = http_endpoint.answer = FaultyAnswers(k, BAD_REPLIES[fault])
    monkeypatch.setattr("flowgen.llm.time.sleep", lambda s: None)
    rt = build_runtime(demo_config())
    rt.provider = HTTPProvider(http_endpoint.url)
    if LINEAR_CALL_STEPS[k] is None:
        with pytest.raises(PipelineError) as err:
            generate_with_runtime(LINEAR_FLOW, rt)
        assert err.value.step == "stage_prediction"
    else:
        w = generate_with_runtime(LINEAR_FLOW, rt)
        assert [d["step"] for d in w.provenance["diagnostics"]] == [LINEAR_CALL_STEPS[k]]
        assert answers.calls == len(LINEAR_CALL_STEPS)


# --- emission ------------------------------------------------------------------------


def test_emit_doc_is_sorted_canonical_json(demo_config):
    w = generate_with_runtime(BRANCHING_FLOW, build_runtime(demo_config()))
    doc = json.loads(emit(w))
    names = [n["unique_name"] for n in doc["nodes"]]
    assert names == sorted(names)
    edges = [(e["from"], e["to"]) for e in doc["edges"]]
    assert edges == sorted(edges)
    assert emit(w).endswith("\n")


def test_emit_doc_carries_canonical_property_values():
    rt = runtime(split_catalog(), split_provider(), strategy="single")
    w = generate_with_runtime("read from reader into alpha and beta", rt)
    doc = json.loads(emit(w))
    reader_1 = next(n for n in doc["nodes"] if n["unique_name"] == "reader_1")
    assert reader_1["properties"] == [{"name": "Connection Name", "value": "conn-1"}]
    assert reader_1["sub_utterance"] == "read from reader"


def test_emit_dot_matches_graph_export(demo_config):
    w = generate_with_runtime(FULL_NAME_FLOW, build_runtime(demo_config()))
    assert to_dot(w.graph) == 'digraph flow {\n  "split_subrecord";\n}\n'


def test_workflow_doc_round_trip(tmp_path, demo_config):
    w = generate_with_runtime(LINEAR_FLOW, build_runtime(demo_config()))
    path = tmp_path / "flow.json"
    path.write_text(emit(w), encoding="utf-8")
    loaded = load_workflow_doc(path)
    assert loaded.graph.node_names() == w.graph.node_names()
    assert sorted(loaded.graph.edges) == sorted(w.graph.edges)
    # re-emission is byte-identical: canonical values survive the round trip
    assert emit(loaded) == emit(w)
    assert to_dot(loaded.graph) == to_dot(w.graph)


def old_doc(w: Workflow) -> dict:
    """The document as a dict, which ``emit`` once passed to ``json.dumps``; the oracle."""
    nodes = sorted(w.graph.nodes, key=lambda n: n.unique_name)
    return {
        "nodes": [
            {
                "unique_name": n.unique_name,
                "stage": n.stage,
                "sub_utterance": n.sub_utterance,
                "properties": [
                    {"name": a.name, "value": canonical_value(a.coerced)}
                    for a in w.properties.get(n.unique_name, [])
                ],
            }
            for n in nodes
        ],
        "edges": [{"from": src, "to": dst} for src, dst in sorted(w.graph.edges)],
    }


# any code point, surrogates included, with the ones JSON escapes or special-cases drawn often
TEXTS = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u2028\u2029\ud800\udfff\U0001f600é'),
        st.characters(blacklist_categories=()),
    ),
    max_size=6,
)
COERCED = st.one_of(st.booleans(), st.integers(), st.decimals(), TEXTS)


@st.composite
def workflows(draw) -> Workflow:
    names = draw(st.lists(TEXTS, max_size=5, unique=True))
    anybound = CardinalityBound(0, None)
    nodes = [NodeInstance(name, draw(TEXTS), anybound, anybound, draw(TEXTS)) for name in names]
    properties = {
        name: [
            PropertyAssignment(prop, "", coerced, ACCEPTED)
            for prop, coerced in draw(st.lists(st.tuples(TEXTS, COERCED), max_size=3))
        ]
        for name in names
        if draw(st.booleans())
    }
    pairs = [(a, b) for a in names for b in names if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Workflow(FlowGraph(nodes, edges), properties, {})


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(workflows())
def test_emit_doc_is_byte_identical_to_json_dumps(tmp_path, w):
    doc = emit(w)
    assert doc == json.dumps(old_doc(w), indent=2, ensure_ascii=False) + "\n"
    try:
        data = doc.encode("utf-8")
    except UnicodeEncodeError:  # a surrogate code point has no UTF-8 form, so no file holds it
        return
    path = tmp_path / "flow.json"
    path.write_bytes(data)
    assert emit(load_workflow_doc(path)) == doc


def test_load_workflow_doc_rejects_other_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"nodes": [{"name": "x"}], "edges": []}))
    with pytest.raises(ValueError, match="not a workflow document"):
        load_workflow_doc(path)
