"""End-to-end pipeline: configuration, generation, degradation, emission.

Scenario expectations (node lists, edges, properties, token counts) are
pinned against the scripted demo corpus, so any drift in prompt assembly,
parsing, or verification shows up as a concrete diff here.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    BRANCHING_FLOW,
    FULL_NAME_FLOW,
    FakeResponse,
    LINEAR_FLOW,
    MERGE_FLOW,
    RecordingProvider,
    make_catalog,
    make_runtime as runtime,
    make_stage,
    scripted,
)
from flowgen import InputError, fixture_path, llm
from flowgen.catalog import STRING, PropertyDef
from flowgen.classify import keyword_scan
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
    build_runtime,
    emit,
    generate_with_runtime,
    load_workflow_doc,
)
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
    assert len([p for p in compiled if isinstance(p, str) and p.startswith(r"\b")]) == len(
        rt.catalog.synonym_index
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
            (emit(w, "doc"), emit(w, "dot"), json.dumps(w.provenance, sort_keys=True))
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


def test_a_second_run_counts_no_static_text_and_no_text_twice(demo_config, monkeypatch):
    rt = build_runtime(demo_config())
    texts: list[str] = []

    def spy(text):
        texts.append(text)
        return count_tokens(text)

    monkeypatch.setattr(llm, "count_tokens", spy)
    runs = []
    for _ in range(2):
        texts.clear()
        w = generate_with_runtime(LINEAR_FLOW, rt)
        runs.append(list(texts))
    first, second = runs
    stages = [rt.catalog.stages[n.stage] for n in w.graph.nodes]
    prop_lists = {"\n".join(f"{p.name}: {p.description}" for p in s.properties) for s in stages}
    prop_lists.discard("")
    node_lines = {f" ({s.name}): {s.description}" for s in stages}
    assert prop_lists and prop_lists <= set(first) and node_lines <= set(first)
    assert not prop_lists & set(second)
    assert not node_lines & set(second)
    # the utterance and each sub-utterance, counted exactly once
    spans = {LINEAR_FLOW, *w.provenance["segments"].values()}
    assert len(spans) > 2
    assert Counter(t for t in second if t in spans) == Counter(spans)


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
    def unrepaired(g, trace=None):
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


def test_property_branch_degrades_on_condition_errors_only(demo_config, monkeypatch):
    from flowgen.condexpr import ConditionTypeError

    def raising(exc):
        def validate(*args, **kwargs):
            raise exc

        return validate

    monkeypatch.setattr("flowgen.pipeline.validate", raising(ConditionTypeError("bad operand")))
    w = generate_with_runtime(LINEAR_FLOW, build_runtime(demo_config()))
    steps = [(d["step"], d.get("node")) for d in w.provenance["diagnostics"]]
    assert steps == [("properties", n.unique_name) for n in w.graph.nodes]
    assert len(steps) == 6 and all(p == [] for p in w.properties.values())

    # a programming error is not a degraded result: it escapes
    monkeypatch.setattr("flowgen.pipeline.validate", raising(KeyError("bug")))
    with pytest.raises(KeyError):
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


def test_empty_stage_answer_yields_empty_workflow():
    rt = runtime(degradable_catalog(), scripted(("Context:", '""')), strategy="single")
    w = generate_with_runtime(UTTERANCE, rt)
    assert w.graph.nodes == [] and w.graph.edges == [] and w.properties == {}


class FaultyEndpoint:
    """A completion endpoint answering from the demo scripts, except at call ``k``.

    Call ``k`` gets the ``bad`` replies instead, one per attempt it makes.
    """

    def __init__(self, k: int, bad: list[FakeResponse]):
        self.scripts = load_mock_scripts(fixture_path("mock_scripts_demo.json"))
        self.k, self.bad = k, list(bad)
        self.calls = 0

    def post(self, url, **kwargs) -> FakeResponse:
        if self.calls == self.k and self.bad:
            reply = self.bad.pop(0)
            self.calls += not self.bad
            return reply
        self.calls += 1
        prompt = RenderedPrompt(text=kwargs["json"]["prompt"], token_estimate=0)
        answer = self.scripts.complete(prompt, CompletionParams())
        return FakeResponse(200, json.dumps({"text": answer}))


# the step that LINEAR_FLOW's k-th call serves at parallel=1; None is stage prediction
LINEAR_CALL_STEPS = [None, None, "segmentation", "edge_prediction", *["properties"] * 6]

BAD_REPLIES = {
    "not-json": [FakeResponse(200, "<html>bad gateway</html>")],
    "array": [FakeResponse(200, "[1, 2]")],
    "no-choice": [FakeResponse(200, '{"choices": []}')],
    "rejected": [FakeResponse(400, "bad request")],
    "server-down": [FakeResponse(500, "boom")] * 3,
}


@pytest.mark.parametrize("fault", BAD_REPLIES)
@pytest.mark.parametrize("k", range(len(LINEAR_CALL_STEPS)))
def test_a_bad_http_reply_at_any_call_degrades_or_aborts(demo_config, monkeypatch, k, fault):
    endpoint = FaultyEndpoint(k, BAD_REPLIES[fault])
    monkeypatch.setattr("requests.post", endpoint.post)
    monkeypatch.setattr("flowgen.llm.time.sleep", lambda s: None)
    rt = build_runtime(demo_config())
    rt.provider = HTTPProvider("http://llm.local")
    if LINEAR_CALL_STEPS[k] is None:
        with pytest.raises(PipelineError) as err:
            generate_with_runtime(LINEAR_FLOW, rt)
        assert err.value.step == "stage_prediction"
    else:
        w = generate_with_runtime(LINEAR_FLOW, rt)
        assert [d["step"] for d in w.provenance["diagnostics"]] == [LINEAR_CALL_STEPS[k]]
        assert endpoint.calls == len(LINEAR_CALL_STEPS)


# --- emission ------------------------------------------------------------------------


def test_emit_doc_is_sorted_canonical_json(demo_config):
    w = generate_with_runtime(BRANCHING_FLOW, build_runtime(demo_config()))
    doc = json.loads(emit(w, "doc"))
    names = [n["unique_name"] for n in doc["nodes"]]
    assert names == sorted(names)
    edges = [(e["from"], e["to"]) for e in doc["edges"]]
    assert edges == sorted(edges)
    assert emit(w, "doc").endswith("\n")


def test_emit_doc_carries_canonical_property_values():
    rt = runtime(split_catalog(), split_provider(), strategy="single")
    w = generate_with_runtime("read from reader into alpha and beta", rt)
    doc = json.loads(emit(w))
    reader_1 = next(n for n in doc["nodes"] if n["unique_name"] == "reader_1")
    assert reader_1["properties"] == [{"name": "Connection Name", "value": "conn-1"}]
    assert reader_1["sub_utterance"] == "read from reader"


def test_emit_dot_matches_graph_export(demo_config):
    w = generate_with_runtime(FULL_NAME_FLOW, build_runtime(demo_config()))
    assert emit(w, "dot") == 'digraph flow {\n  "split_subrecord";\n}\n'


def test_emit_unknown_format():
    rt = runtime(degradable_catalog(), provider_without(), strategy="single")
    w = generate_with_runtime(UTTERANCE, rt)
    with pytest.raises(ValueError, match="unknown format 'yaml'"):
        emit(w, "yaml")


def test_workflow_doc_round_trip(tmp_path, demo_config):
    w = generate_with_runtime(LINEAR_FLOW, build_runtime(demo_config()))
    path = tmp_path / "flow.json"
    path.write_text(emit(w, "doc"), encoding="utf-8")
    loaded = load_workflow_doc(path)
    assert loaded.graph.node_names() == w.graph.node_names()
    assert sorted(loaded.graph.edges) == sorted(w.graph.edges)
    # re-emission is byte-identical: canonical values survive the round trip
    assert emit(loaded, "doc") == emit(w, "doc")
    assert emit(loaded, "dot") == emit(w, "dot")


def test_load_workflow_doc_rejects_other_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"nodes": [{"name": "x"}], "edges": []}))
    with pytest.raises(ValueError, match="not a workflow document"):
        load_workflow_doc(path)
