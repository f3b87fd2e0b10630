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

from conftest import LINEAR_FLOW, FakeResponse
from flowgen import fixture_path
from flowgen.cli import main

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


def test_generate_empty_utterance_is_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--utterance", "   ", "--mock-scripts", DEMO_SCRIPTS)
    assert code == 1
    assert "error: empty utterance" in err


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


def test_generate_malformed_classifier_reply_prints_envelope(capsys, monkeypatch):
    posted = []

    def post(url, **kwargs):
        posted.append(url)
        return FakeResponse(200, '{"ranked": {"a1": 0}, "matched": 0}')

    monkeypatch.setattr("requests.post", post)
    code, out, err = run(
        capsys,
        "generate", "--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS,
        "--classifier", "http://127.0.0.1:9",
    )
    assert code == 2 and out == "" and posted == ["http://127.0.0.1:9/classify"]
    envelope = json.loads(err)
    assert envelope["error"]["step"] == "stage_prediction"
    assert "malformed classifier response" in envelope["error"]["message"]


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
        ("eval", "--dataset", [{**_GOLD_SORT, "gold_edges": [{"to": "sort"}]}]),
        ("eval", "--dataset", [{**_GOLD_SORT, "gold_properties": [{"name": "P", "value": "v"}]}]),
        ("eval", "--dataset", [{**_GOLD_SORT, "gold_stages": "sort"}]),
        ("eval", "--dataset", None),  # a directory
        ("eval", "--dataset", [{**_GOLD_SORT, "gold_stages": ["bogus"]}]),
        ("export", "--workflow", []),
        ("export", "--workflow", _workflow(["a"], [("a", "ghost")])),
        ("export", "--workflow", _workflow(["a", "b"], [("a", "b"), ("b", "b")])),
        ("export", "--workflow", _workflow(["a", "b", "a"], [("a", "b")])),
        ("classify", "--top", -1),  # a count goes in as the flag's value, not a file
        ("generate", "--cap", -1),
    ],
    ids=[
        "registry-array",
        "registry-unknown-kind",
        "examples-object",
        "examples-string-operators",
        "split-examples-object",
        "classifier-object",
        "mock-scripts-unknown-matcher",
        "dataset-edge-without-from",
        "dataset-properties-list",
        "dataset-string-stages",
        "dataset-directory",
        "dataset-unknown-gold-stage",
        "workflow-array",
        "workflow-edge-to-missing-node",
        "workflow-self-loop",
        "workflow-repeated-node",
        "classify-negative-top",
        "generate-negative-cap",
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
        else:
            path.write_text(json.dumps(content))
    argv = {
        "generate": ["generate", "--utterance", LINEAR_FLOW, "--mock-scripts", DEMO_SCRIPTS],
        "eval": ["eval", "--strategy", "single", "--mock-scripts", EVAL_GOLD],
        "export": ["export"],
        "classify": ["classify", "--text", "sort the rows"],
    }[command]
    code, _, err = run(capsys, *argv, flag, value)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_import_leaves_requests_unloaded():
    # requests is imported only by the live HTTP clients, when they send
    probe = "import sys, flowgen.cli; print('requests' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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


def test_classify_with_classifier_endpoint(capsys, monkeypatch):
    posted = []

    def post(url, **kwargs):
        posted.append((url, kwargs["json"]))
        return FakeResponse(200, '{"ranked": [["sort", 0.9], ["head", 0.1]], "matched": true}')

    monkeypatch.setattr("requests.post", post)
    code, out, err = run(
        capsys, "classify", "--text", "sort rows", "--classifier", "http://127.0.0.1:9/x", "--top", "1"
    )
    assert code == 0 and err == ""
    assert posted == [("http://127.0.0.1:9/x/classify", {"text": "sort rows"})]
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


def test_catalog_validate_parse_error(capsys, tmp_path):
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps({"stages": [{"name": "x"}]}))
    code, _, err = run(capsys, "catalog-validate", "--catalog", str(bad))
    assert code == 1
    assert err.startswith("error:")


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
