"""Command-line interface: subcommands, exit codes, error envelopes."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import LINEAR_FLOW, Reply
from flowgen import fixture_path
from flowgen.cli import main
from flowgen.llm import MockProvider
from flowgen.pipeline import (
    STRATEGIES,
    PipelineConfig,
    PipelineError,
    build_runtime,
    emit,
    generate_with_runtime,
)

DEMO_SCRIPTS = str(fixture_path("mock_scripts_demo.json"))
EVAL_GOLD = str(fixture_path("mock_scripts_eval_gold.json"))
EVAL_DATASET = str(fixture_path("eval_dataset_small.json"))
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- generate ----------------------------------------------------------------------


def test_generate_writes_workflow_doc_to_stdout(capsys):
    code, out, err = run(
        capsys, "generate", "--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert len(doc["nodes"]) == 6 and len(doc["edges"]) == 5
    assert {n["unique_name"] for n in doc["nodes"]} >= {"teradata", "postgresql"}


def test_generate_out_and_dot_files(capsys, tmp_path):
    out_path = tmp_path / "flow.json"
    dot_path = tmp_path / "flow.dot"
    code, out, _ = run(
        capsys,
        "generate",
        "--utterance", LINEAR_FLOW,
        "--mock-scripts", DEMO_SCRIPTS,
        "--out", str(out_path),
        "--dot", str(dot_path),
    )
    assert code == 0
    assert out == ""  # routed to the file instead
    assert json.loads(out_path.read_text())["edges"]
    assert dot_path.read_text().startswith("digraph flow {")


def test_generate_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(LINEAR_FLOW))
    code, out, _ = run(capsys, "generate", "--stdin", "--mock-scripts", DEMO_SCRIPTS)
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 6


def test_generate_trace_embeds_provenance(capsys):
    code, out, _ = run(
        capsys,
        "generate", "--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS, "--trace",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["strategy"] == "cag"
    assert doc["provenance"]["usage"]["requests"] == 10


def test_generate_is_deterministic_across_parallelism(capsys):
    outputs = []
    for width in ("1", "4"):
        _, out, _ = run(
            capsys,
            "generate", "--utterance", LINEAR_FLOW,
            "--mock-scripts", DEMO_SCRIPTS, "--parallel", width, "--trace",
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]


DEMO_FLOWS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "flows.json").read_text(
        encoding="utf-8"
    )
)


def traced_doc_by_reparse(workflow) -> str:
    """The ``--trace`` output as written by re-encoding the whole parsed document: the oracle."""
    body = json.loads(emit(workflow))
    body["provenance"] = workflow.provenance
    return json.dumps(body, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_generate_trace_splices_provenance_as_a_reparse_would_write_it(capsys, strategy):
    rt = build_runtime(PipelineConfig(strategy=strategy, mock_scripts_path=DEMO_SCRIPTS))
    answered = 0
    for utterance in DEMO_FLOWS.values():
        try:
            expected = traced_doc_by_reparse(generate_with_runtime(utterance, rt))
        except PipelineError:  # a pair the demo scripts do not answer
            continue
        code, out, _ = run(
            capsys, "generate", "--utterance", utterance, "--mock-scripts", DEMO_SCRIPTS,
            "--strategy", strategy, "--trace",
        )
        assert code == 0 and out == expected
        answered += 1
    assert answered >= 1


def test_generate_empty_utterance_is_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--utterance", "   ", "--mock-scripts", DEMO_SCRIPTS)
    assert code == 1
    assert "error: empty utterance" in err


@pytest.mark.parametrize("source", ["stdin", "strict-stdin", "utterance"])
def test_generate_rejects_an_utterance_that_is_not_utf8_before_any_call(
    capsys, monkeypatch, source
):
    calls = []
    complete = MockProvider.complete

    def spy(self, prompt, params):
        calls.append(prompt)
        return complete(self, prompt, params)

    monkeypatch.setattr(MockProvider, "complete", spy)
    # what Python makes of the byte 0xff read from a non-UTF-8 stdin or argv
    text = "Use Tail \udcff"
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
        argv = ("--stdin",)
    elif source == "strict-stdin":  # a UTF-8 locale without UTF-8 mode fails at the read
        raw = io.BytesIO(b"Use Tail \xff\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
        argv = ("--stdin",)
    else:
        argv = ("--utterance", text)
    code, out, err = run(capsys, "generate", *argv, "--mock-scripts", DEMO_SCRIPTS)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "not UTF-8" in err
    assert calls == []


def test_generate_missing_config_file(capsys):
    code, _, err = run(
        capsys, "generate", "--utterance", "x", "--catalog", "/nonexistent.json",
        "--mock-scripts", DEMO_SCRIPTS,
    )
    assert code == 1
    assert "catalog: /nonexistent.json" in err


def test_generate_pipeline_failure_prints_envelope(capsys, tmp_path):
    scripts = tmp_path / "empty_scripts.json"
    scripts.write_text("[]")
    code, _, err = run(
        capsys, "generate", "--utterance", "sort the rows", "--mock-scripts", str(scripts)
    )
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"]["step"] == "stage_prediction"
    assert envelope["provenance"]["utterance"] == "sort the rows"


def test_generate_classifier_failure_prints_envelope(capsys, monkeypatch):
    from flowgen.classify import RemoteClassifier
    from flowgen.llm import ProviderError

    def down(self, text):
        raise ProviderError("remote classifier failed: connection refused")

    monkeypatch.setattr(RemoteClassifier, "classify", down)
    code, _, err = run(
        capsys,
        "generate", "--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS,
        "--classifier", "http://127.0.0.1:9",
    )
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"]["step"] == "stage_prediction"
    assert "connection refused" in envelope["error"]["message"]
    # the decomposition call made before the classifier failed is on the bill
    assert envelope["provenance"]["usage"]["requests"] == 1
    calls = [e for e in envelope["provenance"]["stage_trace"] if e["event"] == "llm_call"]
    assert [c["purpose"] for c in calls] == ["decompose"]


def test_generate_malformed_classifier_reply_prints_envelope(capsys, http_endpoint):
    http_endpoint.replies.append(Reply(200, '{"ranked": {"a1": 0}, "matched": 0}'))
    code, out, err = run(
        capsys,
        "generate", "--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS,
        "--classifier", http_endpoint.url,
    )
    assert code == 2 and out == "" and [s.path for s in http_endpoint.seen] == ["/classify"]
    envelope = json.loads(err)
    assert envelope["error"]["step"] == "stage_prediction"
    assert "malformed classifier response" in envelope["error"]["message"]


@pytest.mark.parametrize(
    "error", [RuntimeError("worker lost"), ValueError("bad state")], ids=["runtime", "value"]
)
def test_an_unexpected_exception_exits_two_with_an_internal_envelope(capsys, monkeypatch, error):
    # a fault in flowgen itself is neither bad input (exit 1) nor a traceback
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr("flowgen.pipeline.segment_for_nodes", broken)
    code, out, err = run(
        capsys, "generate", "--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS
    )
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    message = f"{type(error).__name__}: {error}"
    assert json.loads(err) == {"error": {"step": "internal", "message": message}}


def test_generate_training_pairs_with_unknown_label(capsys, tmp_path):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([{"utterance": "zebra stripes", "label": "no_such_stage"}]))
    code, _, err = run(
        capsys,
        "generate", "--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS,
        "--classifier", str(pairs),
    )
    assert code == 1
    assert err.startswith("error: unknown label 'no_such_stage'")


def test_generate_without_provider_config(capsys, monkeypatch):
    monkeypatch.delenv("LLM_ENDPOINT", raising=False)
    code, _, err = run(capsys, "generate", "--utterance", "sort the rows")
    assert code == 2
    envelope = json.loads(err)
    assert envelope["error"]["step"] == "provider"
    assert "LLM_ENDPOINT" in envelope["error"]["message"]


_GOLD_SORT = {"utterance": "sort the rows", "gold_stages": ["sort"]}


def _workflow(names: list[str], edges: list[tuple[str, str]]) -> dict:
    return {
        "nodes": [{"unique_name": n, "stage": "sort", "properties": []} for n in names],
        "edges": [{"from": src, "to": dst} for src, dst in edges],
    }


# nested past the interpreter's recursion limit, where json.loads raises RecursionError
DEEP_JSON = b"[" * 100000 + b"]" * 100000
# workflow nodes whose fields emit would write as strings
_NON_STRING_NODE = {"unique_name": None, "stage": ["sort"], "sub_utterance": {"a": 1}}
_NON_STRING_PROPERTY = {"unique_name": "a", "stage": "sort", "properties": [{"name": 3, "value": None}]}


def _catalog_with_condition(availability: str) -> dict:
    prop = {"name": "n", "description": "d", "type": "boolean", "availability": availability}
    stage = {
        "name": "s", "description": "d", "synonyms": [], "is_connector": False,
        "inputs": {"min": 1, "max": 1}, "outputs": {"min": 1, "max": 1}, "properties": [prop],
    }
    return {"stages": [stage]}


@pytest.mark.parametrize(
    "command, flag, content",
    [
        ("generate", "--registry", []),
        ("generate", "--registry", {"kinds": {"bucket": []}, "bindings": {}}),
        ("generate", "--examples", {"utterance": "u", "operators": ["sort"]}),
        ("generate", "--examples", [{"utterance": "u", "operators": "sort"}]),
        ("generate", "--split-examples", {"utterance": "u", "subs": ["u"]}),
        ("generate", "--classifier", {"utterance": "u", "label": "sort"}),
        ("generate", "--mock-scripts", [{"match": {"regex": "x"}, "response": "r"}]),
        ("generate", "--mock-scripts", DEEP_JSON),
        ("eval", "--dataset", [{**_GOLD_SORT, "gold_edges": [{"to": "sort"}]}]),
        ("eval", "--dataset", [{**_GOLD_SORT, "gold_properties": [{"name": "P", "value": "v"}]}]),
        ("eval", "--dataset", [{**_GOLD_SORT, "gold_stages": "sort"}]),
        ("eval", "--dataset", None),  # a directory
        ("eval", "--dataset", [{**_GOLD_SORT, "gold_stages": ["bogus"]}]),
        ("export", "--workflow", []),
        ("export", "--workflow", _workflow(["a"], [("a", "ghost")])),
        ("export", "--workflow", _workflow(["a", "b"], [("a", "b"), ("b", "b")])),
        ("export", "--workflow", _workflow(["a", "b", "a"], [("a", "b")])),
        ("export", "--workflow", DEEP_JSON),
        ("export", "--workflow", {"nodes": [_NON_STRING_NODE], "edges": []}),
        ("export", "--workflow", {"nodes": [_NON_STRING_PROPERTY], "edges": []}),
        ("classify", "--top", -1),  # a count goes in as the flag's value, not a file
        ("generate", "--cap", -1),
        ("generate", "--catalog", b"\xff\xfe{}"),  # bytes go in as they are
        ("generate", "--catalog", b'{"stages": [' + b"1" * 5000 + b"]}"),
        ("catalog-validate", "--catalog", DEEP_JSON),
        ("generate", "--catalog", _catalog_with_condition(" and ".join(["'n'"] * 5000))),
    ],
    ids=[
        "registry-array",
        "registry-unknown-kind",
        "examples-object",
        "examples-string-operators",
        "split-examples-object",
        "classifier-object",
        "mock-scripts-unknown-matcher",
        "mock-scripts-deep-nesting",
        "dataset-edge-without-from",
        "dataset-properties-list",
        "dataset-string-stages",
        "dataset-directory",
        "dataset-unknown-gold-stage",
        "workflow-array",
        "workflow-edge-to-missing-node",
        "workflow-self-loop",
        "workflow-repeated-node",
        "workflow-deep-nesting",
        "workflow-non-string-node-fields",
        "workflow-non-string-property",
        "classify-negative-top",
        "generate-negative-cap",
        "catalog-not-utf8",
        "catalog-huge-integer",
        "catalog-deep-nesting",
        "catalog-condition-too-long",
    ],
)
def test_malformed_input_exits_one(capsys, tmp_path, command, flag, content):
    path = tmp_path / "input.json"
    if isinstance(content, int):
        value = str(content)
    else:
        value = str(path)
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(content))
    argv = {
        "generate": ["generate", "--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS],
        "eval": ["eval", "--strategy", "single", "--mock-scripts", EVAL_GOLD],
        "export": ["export"],
        "classify": ["classify", "--text", "sort the rows"],
        "catalog-validate": ["catalog-validate"],
    }[command]
    code, _, err = run(capsys, *argv, flag, value)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_import_loads_no_http_client():
    # the HTTP transport and TLS are imported only by the live clients, when they send
    unwanted = ["http.client", "requests", "ssl", "urllib.request"]
    probe = f"import sys, flowgen.cli; print(sorted(set({unwanted!r}) & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_serial_runs_load_neither_openssl_nor_thread_pools():
    # the prompt digest uses the builtin SHA-256, only parallel runs start threads,
    # only eval loads the harness, and no module builds dataclasses, whose
    # machinery (and the inspect module it loads) took a third of start-up
    unwanted = {"_hashlib", "concurrent.futures", "dataclasses", "inspect", "flowgen.evaluation"}
    probe = (
        "import sys, flowgen.cli\n"
        f"unwanted = {sorted(unwanted)!r}\n"
        "loaded = [sorted(set(unwanted) & set(sys.modules))]\n"
        "from flowgen import run_in_order\n"
        "from flowgen.llm import parse_template, render_prompt\n"
        "run_in_order([lambda: render_prompt(parse_template('a {{x}}'), {'x': 'b'})] * 2, 1)\n"
        "loaded.append(sorted(set(unwanted) & set(sys.modules)))\n"
        "argv = ['generate', '--utterance', sys.argv[1], '--mock-scripts', sys.argv[2]]\n"
        "code = flowgen.cli.main(argv)\n"
        "loaded.append(sorted(set(unwanted) & set(sys.modules)))\n"
        "print(code, loaded)"
    )
    done = subprocess.run([sys.executable, "-c", probe, LINEAR_FLOW, DEMO_SCRIPTS],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 [[], [], []]"
    importers = [
        path.name
        for path in Path(SRC, "flowgen").rglob("*.py")
        if re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(encoding="utf-8"), re.M)
    ]
    assert importers == []


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "generate")[0] == 1  # needs --utterance or --stdin
    assert run(capsys)[0] == 1  # needs a subcommand
    assert run(capsys, "generate", "--utterance", "x", "--bogus")[0] == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("flowgen ")


# --- eval --------------------------------------------------------------------------


def test_eval_prints_table_and_writes_report(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "eval", "--dataset", EVAL_DATASET, "--strategy", "single",
        "--mock-scripts", EVAL_GOLD, "--report", str(report_path),
    )
    assert code == 0
    assert "stage accuracy [%]" in out
    report = json.loads(report_path.read_text())
    assert report["stage_accuracy"]["total"] == 100.0
    assert report["stage_accuracy"]["records"] == 20


def test_eval_seeded_error_fixture(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--dataset", EVAL_DATASET, "--strategy", "single",
        "--mock-scripts", str(fixture_path("mock_scripts_eval.json")),
    )
    assert code == 0
    assert "95.0" in out and "87.5" in out


def test_eval_unknown_measure(capsys):
    code, _, err = run(
        capsys,
        "eval", "--dataset", EVAL_DATASET, "--strategy", "single",
        "--mock-scripts", EVAL_GOLD, "--measure", "speed",
    )
    assert code == 1
    assert "unknown measure 'speed'" in err


def test_eval_blank_measure_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "eval", "--dataset", EVAL_DATASET, "--strategy", "single",
        "--mock-scripts", EVAL_GOLD, "--measure", " , ",
    )
    assert code == 1
    assert "--measure needs at least one" in err


def test_eval_malformed_dataset(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"utterance": "u"}]))
    code, _, err = run(
        capsys, "eval", "--dataset", str(bad), "--strategy", "single", "--mock-scripts", EVAL_GOLD
    )
    assert code == 1
    assert "needs utterance and gold_stages" in err


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"\xff\xfe[]", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[" + b"1" * 5000 + b"]", "Exceeds the limit (4300 digits) for integer string conversion"),
        (DEEP_JSON, "arrays or objects nest too deeply"),
    ],
    ids=["not-utf8", "huge-integer", "deep-nesting"],
)
def test_eval_undecodable_dataset_names_the_file(capsys, tmp_path, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, _, err = run(
        capsys, "eval", "--dataset", str(bad), "--strategy", "single", "--mock-scripts", EVAL_GOLD
    )
    assert code == 1
    assert err.startswith(f"error: {bad}: malformed JSON: {reason}")


# a JSON escape of half a surrogate pair: it parses, but no UTF-8 output can carry it
WORKFLOW_DOC = (
    '{"nodes": [{"unique_name": "sort_1\\ud800", "stage": "sort", "sub_utterance": "sort it", '
    '"properties": []}], "edges": []}'
)


@pytest.mark.parametrize("command", ["catalog-validate", "generate", "export"])
def test_a_lone_surrogate_escape_in_an_input_file_is_bad_input(capsys, tmp_path, command):
    bad = tmp_path / "input.json"
    if command == "export":
        bad.write_text(WORKFLOW_DOC, encoding="utf-8")
        argv = ["export", "--workflow", str(bad)]
    else:
        catalog = fixture_path("demo_catalog.json").read_text(encoding="utf-8")
        bad.write_text(catalog.replace('"description": "', '"description": "\\ud800', 1), encoding="utf-8")
        argv = [command, "--catalog", str(bad)]
        if command == "generate":
            argv += ["--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: ") and "the lone surrogate '\\ud800'" in err


# --- classify ----------------------------------------------------------------------


def test_classify_matched_span(capsys):
    code, out, _ = run(capsys, "classify", "--text", "Use Tail", "--top", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "matched: true"
    assert lines[1].endswith("tail")
    assert len(lines) <= 4


def test_classify_unmatched_span(capsys):
    code, out, _ = run(capsys, "classify", "--text", "zzz qqq vvv")
    assert code == 0
    assert out.splitlines()[0] == "matched: false"


def test_classify_with_custom_training_pairs(capsys, tmp_path):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([{"utterance": "zebra stripes", "label": "sort"}]))
    code, out, _ = run(
        capsys, "classify", "--text", "zebra stripes", "--classifier", str(pairs), "--top", "1"
    )
    assert code == 0
    assert out.splitlines() == ["matched: true", "1.0000  sort"]


def test_classify_with_classifier_endpoint(capsys, http_endpoint):
    http_endpoint.replies.append(Reply(200, '{"ranked": [["sort", 0.9], ["head", 0.1]], "matched": true}'))
    code, out, err = run(
        capsys, "classify", "--text", "sort rows", "--classifier", http_endpoint.url + "/x", "--top", "1"
    )
    assert code == 0 and err == ""
    assert [(s.path, s.body) for s in http_endpoint.seen] == [("/x/classify", {"text": "sort rows"})]
    assert out.splitlines() == ["matched: true", "0.9000  sort"]


def test_classify_with_classifier_endpoint_reads_no_catalog(capsys, monkeypatch):
    from flowgen.classify import Classification, RemoteClassifier

    asked = []

    def classify(self, text):
        asked.append((self.endpoint, text))
        return Classification(ranked=(("sort", 0.75),), matched=True)

    monkeypatch.setattr(RemoteClassifier, "classify", classify)
    code, out, err = run(
        capsys,
        "classify", "--text", "x", "--classifier", "http://127.0.0.1:9",
        "--catalog", "/nonexistent/catalog.json",
    )
    assert (code, err) == (0, "")
    assert asked == [("http://127.0.0.1:9", "x")]
    assert out.splitlines() == ["matched: true", "0.7500  sort"]


# --- catalog-validate ---------------------------------------------------------------


def test_catalog_validate_ok(capsys):
    code, out, _ = run(capsys, "catalog-validate", "--catalog", str(fixture_path("demo_catalog.json")))
    assert code == 0
    assert out == "ok: 31 stages\n"


def test_catalog_validate_reports_violations(capsys, tmp_path):
    bad = tmp_path / "catalog.json"
    bad.write_text(
        json.dumps(
            {
                "stages": [
                    {
                        "name": "broken",
                        "description": "",
                        "synonyms": [],
                        "is_connector": False,
                        "inputs": {"min": 2, "max": 1},
                        "outputs": {"min": 0, "max": 1},
                        "properties": [],
                    }
                ]
            }
        )
    )
    code, _, err = run(capsys, "catalog-validate", "--catalog", str(bad))
    assert code == 1
    assert "broken: description:" in err
    assert "broken: inputs:" in err


def test_catalog_validate_rejects_a_condition_that_does_not_type_check(capsys, tmp_path):
    doc = json.loads(fixture_path("demo_catalog.json").read_text(encoding="utf-8"))
    stage = next(s for s in doc["stages"] if s["name"] == "column_generator")
    prop = next(p for p in stage["properties"] if p["name"] == "Options/Schema File")
    prop["availability"] = "'Options/Combine Operators' = \"yes\""  # a boolean property
    probe = tmp_path / "catalog.json"
    probe.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "catalog-validate", "--catalog", str(probe))
    assert (code, out) == (1, "")
    assert err == (
        "column_generator: properties[Options/Schema File]: availability does not type-check: "
        "comparing string literal against boolean value of 'Options/Combine Operators'\n"
    )


def test_catalog_validate_rejects_property_names_that_differ_only_in_case(capsys, tmp_path):
    doc = json.loads(fixture_path("demo_catalog.json").read_text(encoding="utf-8"))
    stage = next(s for s in doc["stages"] if s["name"] == "sort")
    stage["properties"].append({"name": "SORT KEY", "description": "d", "type": "integer"})
    probe = tmp_path / "catalog.json"
    probe.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "catalog-validate", "--catalog", str(probe))
    assert (code, out) == (1, "")
    assert err == (
        "sort: properties[SORT KEY]: duplicate property name: 'Sort Key' and 'SORT KEY' "
        "differ only in case\n"
    )


def test_catalog_validate_parse_error(capsys, tmp_path):
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps({"stages": [{"name": "x"}]}))
    code, _, err = run(capsys, "catalog-validate", "--catalog", str(bad))
    assert code == 1
    assert err.startswith("error:")


def test_a_catalog_error_names_the_catalog_file(capsys, tmp_path):
    bad = tmp_path / "catalog.json"
    for doc, message in (
        ([], 'expected an object with a "stages" array'),
        ({"stages": 5}, "stages: expected list"),
        ({"stages": [{"name": 5}]}, "stages[0].name: expected str, got int"),
    ):
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "catalog-validate", "--catalog", str(bad))
        assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")
    # generate reads up to six JSON files; a catalog that fails validation names its own
    doc = json.loads(fixture_path("demo_catalog.json").read_text(encoding="utf-8"))
    doc["stages"][0]["description"] = ""
    bad.write_text(json.dumps(doc), encoding="utf-8")
    name = doc["stages"][0]["name"]
    code, out, err = run(
        capsys, "generate", "--utterance", LINEAR_FLOW, "--catalog", str(bad),
        "--mock-scripts", DEMO_SCRIPTS,
    )
    assert (code, out) == (1, "")
    assert err == (
        f"error: {bad}: catalog failed validation:\n  - {name}.description: description is empty\n"
    )
    # catalog-validate lists the violations themselves, as before
    code, out, err = run(capsys, "catalog-validate", "--catalog", str(bad))
    assert (code, out, err) == (1, "", f"{name}: description: description is empty\n")


# --- export ------------------------------------------------------------------------


@pytest.fixture()
def saved_workflow(capsys, tmp_path):
    path = tmp_path / "flow.json"
    code, _, _ = run(
        capsys,
        "generate", "--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS,
        "--out", str(path),
    )
    assert code == 0
    return path


def test_export_dot(capsys, saved_workflow):
    code, out, _ = run(capsys, "export", "--workflow", str(saved_workflow))
    assert code == 0
    assert out.startswith("digraph flow {")
    assert '"teradata" -> "sort";' in out


def test_export_doc_round_trips_bytes(capsys, saved_workflow):
    code, out, _ = run(capsys, "export", "--workflow", str(saved_workflow), "--format", "doc")
    assert code == 0
    assert out == saved_workflow.read_text(encoding="utf-8")


def test_export_to_file(capsys, saved_workflow, tmp_path):
    out_path = tmp_path / "flow.dot"
    code, out, _ = run(
        capsys, "export", "--workflow", str(saved_workflow), "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("digraph flow {")


def test_export_rejects_non_workflow_json(capsys, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"nodes": [{"name": "x"}], "edges": []}))
    code, _, err = run(capsys, "export", "--workflow", str(other))
    assert code == 1
    assert "not a workflow document" in err


def test_generate_stdin_strips_trailing_newline(capsys, monkeypatch):
    # shell pipes and heredocs terminate the utterance with '\n'
    monkeypatch.setattr("sys.stdin", io.StringIO(LINEAR_FLOW + "\n"))
    code, out, _ = run(capsys, "generate", "--stdin", "--mock-scripts", DEMO_SCRIPTS)
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 6
