"""Evaluation harness: dataset loading, metrics, aggregation, rendering."""

from __future__ import annotations

import json
import math
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import FailingOn, make_catalog, make_runtime, make_stage, scripted
from flowgen import InputError, fixture_path
from flowgen.catalog import INTEGER, STRING, PropertyDef, load_catalog
from flowgen.evaluation import (
    EvalRecord,
    StageAccuracy,
    load_dataset,
    report_json,
    report_table,
    run_eval,
    stage_accuracy,
)
from flowgen.llm import render_prompt
from flowgen.pipeline import PipelineConfig


DEMO_CATALOG = load_catalog(fixture_path("demo_catalog.json"))


@pytest.fixture()
def eval_config(demo_config):
    def build(**overrides) -> PipelineConfig:
        defaults = dict(
            strategy="single",
            mock_scripts_path=fixture_path("mock_scripts_eval_gold.json"),
        )
        defaults.update(overrides)
        return demo_config(**defaults)

    return build


# --- dataset loading ---------------------------------------------------------------


def test_load_demo_dataset():
    records = load_dataset(fixture_path("eval_dataset_small.json"), DEMO_CATALOG)
    assert len(records) == 20
    assert sum(1 for r in records if len(r.gold_stages) == 1) == 12
    assert sum(1 for r in records if len(r.gold_stages) > 1) == 8


def test_load_dataset_tolerates_extra_keys():
    # the synthetic corpus carries decomposition data alongside the gold labels
    records = load_dataset(fixture_path("synthetic_utterances.json"), load_catalog(fixture_path("synthetic_catalog.json")))
    assert len(records) == 20
    assert all(r.gold_stages for r in records)


def test_load_dataset_empty_file(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("  \n")
    assert load_dataset(p, DEMO_CATALOG) == []


@pytest.mark.parametrize(
    "payload, message",
    [
        # each id names its case
        pytest.param({"utterance": "u"}, r"data\.json: expected list$", id="payload0-expected a JSON array"),
        pytest.param(
            [{"utterance": "u"}], r"data\.json: \[0\]\.gold_stages: expected list$",
            id="payload1-needs utterance and gold_stages",
        ),
        pytest.param(
            [{"gold_stages": ["a"]}], r"data\.json: \[0\]\.utterance: expected str, got NoneType$",
            id="payload2-needs utterance and gold_stages",
        ),
        # blank, as generate rejects a blank utterance
        pytest.param(
            [{"utterance": "", "gold_stages": ["sort"]}], r"data\.json: \[0\]\.utterance: empty utterance$",
            id="empty-utterance",
        ),
        pytest.param(
            [{"utterance": "u", "gold_stages": ["sort"]}, {"utterance": "  ", "gold_stages": ["sort"]}],
            r"data\.json: \[1\]\.utterance: empty utterance$",
            id="spaces-utterance",
        ),
        pytest.param(
            [{"utterance": "u", "gold_stages": []}],
            r"data\.json: \[0\]\.gold_stages: expected at least one stage$",
            id="payload3-empty gold_stages",
        ),
        pytest.param(
            [{"utterance": "u", "gold_stages": "sort"}], r"data\.json: \[0\]\.gold_stages: expected list$",
            id="payload4-record 0 gold_stages must be an array",
        ),
        pytest.param(
            [{"utterance": "u", "gold_stages": ["sort"], "gold_edges": [{"to": "sort"}]}],
            r"data\.json: \[0\]\.gold_edges\[0\]\.from: expected str, got NoneType$",
            id="payload5-record 0 gold_edges must be an array of from/to objects",
        ),
        pytest.param(
            [{"utterance": "u", "gold_stages": ["sort"], "gold_properties": [["sort"]]}],
            r"data\.json: \[0\]\.gold_properties: expected object$",
            id="payload6-record 0 gold_properties must be an object",
        ),
        pytest.param(
            [{"utterance": "u", "gold_stages": ["sort"], "gold_properties": {"sort": [{"name": "P"}]}}],
            r"data\.json: \[0\]\.gold_properties\.sort\[0\]\.value: "
            r"expected str or integer or float, got NoneType$",
            id="payload7-record 0 properties of 'sort' need name and value",
        ),
        pytest.param(
            [{"utterance": "u", "gold_stages": ["sort"], "gold_properties": {"sort": {"name": "P", "value": "v"}}}],
            r"data\.json: \[0\]\.gold_properties\.sort: expected list$",
            id="payload8-record 0 properties of 'sort' need name and value",
        ),
        # bytes go in as they are: not UTF-8, and an integer past the 4300-digit limit
        pytest.param(
            b"\xff\xfe[]", r"data\.json: malformed JSON: 'utf-8' codec can't decode byte 0xff",
            id="not-utf8",
        ),
        pytest.param(
            b"[" + b"1" * 5000 + b"]", r"data\.json: malformed JSON: Exceeds the limit \(4300 digits\)",
            id="huge-integer",
        ),
    ],
)
def test_load_dataset_shape_errors(tmp_path, payload, message):
    p = tmp_path / "data.json"
    if isinstance(payload, bytes):
        p.write_bytes(payload)
    else:
        p.write_text(json.dumps(payload))
    with pytest.raises(InputError, match=message):
        load_dataset(p, DEMO_CATALOG)


def test_load_dataset_rejects_gold_stages_outside_the_catalog(tmp_path):
    p = tmp_path / "data.json"
    records = json.loads(fixture_path("eval_dataset_small.json").read_text(encoding="utf-8"))
    records.insert(2, {"utterance": "sort it", "gold_stages": ["warp", "sort", "warp"]})
    p.write_text(json.dumps(records))
    locus = rf"^{re.escape(str(p))}: \[2\]\.gold_stages\[0\]"
    with pytest.raises(InputError, match=rf"{locus}: unknown stage 'warp'$"):
        load_dataset(p, DEMO_CATALOG)


def test_load_dataset_validates_edge_endpoints(tmp_path):
    p = tmp_path / "data.json"
    p.write_text(
        json.dumps(
            [
                {
                    "utterance": "u",
                    "gold_stages": ["head", "head"],
                    "gold_edges": [{"from": "head_1", "to": "head_2"}],
                }
            ]
        )
    )
    (record,) = load_dataset(p, DEMO_CATALOG)
    assert record.gold_edges == [("head_1", "head_2")]
    p.write_text(
        json.dumps(
            [
                {
                    "utterance": "u",
                    "gold_stages": ["head", "head"],
                    # duplicated stages go by suffixed instance names
                    "gold_edges": [{"from": "head", "to": "head_2"}],
                }
            ]
        )
    )
    with pytest.raises(InputError, match="unknown node 'head'"):
        load_dataset(p, DEMO_CATALOG)


def test_load_dataset_validates_property_nodes(tmp_path):
    p = tmp_path / "data.json"
    p.write_text(
        json.dumps(
            [
                {
                    "utterance": "u",
                    "gold_stages": ["sort"],
                    "gold_properties": {"ghost": [{"name": "P", "value": "v"}]},
                }
            ]
        )
    )
    with pytest.raises(InputError, match="unknown node 'ghost'"):
        load_dataset(p, DEMO_CATALOG)


def test_load_dataset_reads_gold_properties(tmp_path):
    p = tmp_path / "data.json"
    item = {
        "utterance": "u",
        "gold_stages": ["sort", "head"],
        "gold_properties": {"sort": [{"name": "Sort Key", "value": "age"}, {"name": "Limit", "value": 5}]},
    }
    p.write_text(json.dumps([item]))
    (loaded,) = load_dataset(p, DEMO_CATALOG)
    assert loaded.gold_properties == {"sort": [("Sort Key", "age"), ("Limit", "5")]}


# --- stage accuracy ----------------------------------------------------------------


def test_stage_accuracy_is_multiset_exact_match():
    acc = stage_accuracy([["a", "b"], ["a"], ["a", "a"]], [["b", "a"], ["a", "a"], ["a", "a"]])
    assert acc.total == pytest.approx(100.0 * 2 / 3)
    assert acc.n_records == 3


def test_stage_accuracy_buckets_by_gold_size():
    preds = [["a"], ["b"], ["a", "b"], ["a", "b"]]
    golds = [["a"], ["a"], ["a", "b"], ["b", "b"]]
    acc = stage_accuracy(preds, golds)
    assert acc.one_op == 50.0 and acc.n_one_op == 2
    assert acc.n_op == 50.0 and acc.n_n_op == 2
    assert acc.total == 50.0 and acc.n_records == 4


def test_stage_accuracy_empty_buckets_are_vacuously_perfect():
    acc = stage_accuracy([["a"]], [["a"]])
    assert acc.n_op == 100.0 and acc.n_n_op == 0
    empty = stage_accuracy([], [])
    assert (empty.total, empty.one_op, empty.n_op) == (100.0, 100.0, 100.0)
    assert empty.n_records == 0


def test_stage_accuracy_length_mismatch():
    with pytest.raises(ValueError):
        stage_accuracy([["a"]], [])


@given(st.data())
def test_stage_accuracy_matches_the_counter_oracle(data):
    # repeated stages from a small alphabet, and None for a failed record
    answers = st.lists(st.sampled_from("abc"), max_size=4)
    golds = data.draw(st.lists(answers, max_size=6))
    preds = [data.draw(st.none() | answers) for _ in golds]
    hits = {"total": [], "one_op": [], "n_op": []}
    for pred, gold in zip(preds, golds):
        correct = pred is not None and Counter(pred) == Counter(gold)
        hits["total"].append(correct)
        hits["one_op" if len(gold) == 1 else "n_op"].append(correct)
    acc = stage_accuracy(preds, golds)
    for key, found in hits.items():
        assert getattr(acc, key) == (100.0 * sum(found) / len(found) if found else 100.0)
    assert (acc.n_records, acc.n_one_op, acc.n_n_op) == tuple(map(len, hits.values()))


# --- run_eval over the scripted demo corpus -------------------------------------------


def test_run_eval_gold_scripts_are_fully_correct(eval_config):
    dataset = load_dataset(fixture_path("eval_dataset_small.json"), DEMO_CATALOG)
    report = run_eval(dataset, eval_config())
    assert report.stages == StageAccuracy(
        total=100.0, one_op=100.0, n_op=100.0, n_records=20, n_one_op=12, n_n_op=8
    )
    assert report.failures == []
    assert set(report.tokens) == {"single"} and report.tokens["single"] > 0


def test_run_eval_seeded_error_lowers_the_right_bucket(eval_config):
    dataset = load_dataset(fixture_path("eval_dataset_small.json"), DEMO_CATALOG)
    report = run_eval(dataset, eval_config(mock_scripts_path=fixture_path("mock_scripts_eval.json")))
    assert report.stages.total == pytest.approx(95.0)
    assert report.stages.one_op == pytest.approx(100.0)
    assert report.stages.n_op == pytest.approx(87.5)


def test_run_eval_rejects_unknown_measure(eval_config):
    with pytest.raises(ValueError, match="unknown measure 'speed'"):
        run_eval([], eval_config(), measures=("speed",))


def test_run_eval_parallel_report_is_identical(eval_config):
    dataset = load_dataset(fixture_path("eval_dataset_small.json"), DEMO_CATALOG)
    sequential = run_eval(dataset, eval_config(parallel=1))
    concurrent = run_eval(dataset, eval_config(parallel=4))
    assert report_json(sequential) == report_json(concurrent)


def test_run_eval_empty_dataset(eval_config):
    report = run_eval([], eval_config())
    assert report.stages.n_records == 0 and report.stages.total == 100.0
    assert report.tokens == {}


def test_run_eval_records_failures_and_continues(eval_config):
    dataset = load_dataset(fixture_path("eval_dataset_small.json"), DEMO_CATALOG)
    dataset.insert(3, EvalRecord(utterance="utterly unscripted text", gold_stages=["head"]))
    report = run_eval(dataset, eval_config())
    assert [f["record"] for f in report.failures] == [3]
    assert "no mock script" in report.failures[0]["message"]
    # the failed record counts as a miss: 20 of 21 right
    assert report.stages.n_records == 21 and report.stages.total == 100.0 * 20 / 21


def test_run_eval_all_records_failing_scores_zero(eval_config):
    # the eval scripts answer only the single strategy, so every cag record fails
    dataset = load_dataset(fixture_path("eval_dataset_small.json"), DEMO_CATALOG)
    cfg = eval_config(strategy="cag", mock_scripts_path=fixture_path("mock_scripts_eval.json"))
    report = run_eval(dataset, cfg, measures=("stages", "edges", "props"))
    assert len(report.failures) == 20
    assert report.stages.n_records == 20
    assert (report.stages.total, report.stages.one_op, report.stages.n_op) == (0.0, 0.0, 0.0)
    # the dataset has no gold edges or properties, so neither is scored
    assert report.edge_similarity is None and report.props is None
    table = report_table(report)
    assert "records: 20, failures: 20" in table
    assert "100.0" not in table and "1.0000" not in table


# --- run_eval with graph and property measures ---------------------------------------


def eval_catalog():
    return make_catalog(
        make_stage(
            "sort",
            inputs=(0, 1),
            outputs=(0, 1),
            properties=(
                PropertyDef("Sort Key", "Column to sort by.", STRING),
                PropertyDef("Limit", "Row cap.", INTEGER),
            ),
        ),
        make_stage("head", inputs=(0, 1), outputs=(0, 1)),
    )


def eval_provider():
    return scripted(
        ("Context:", '"sort, head"'),
        ("Assignments:", "sort: sort rows\nhead: take head"),
        ("Edges:", "sort -> head"),
        ("Sub-utterance: sort rows\nProperties set:", "Sort Key = age\nLimit = 50"),
        ("Properties set:", "none"),
    )


def eval_runtime(**cfg):
    return make_runtime(eval_catalog(), eval_provider(), strategy="single", **cfg)


def record(**extra) -> EvalRecord:
    return EvalRecord(utterance="sort rows then take head", gold_stages=["sort", "head"], **extra)


def test_run_eval_edges_measure():
    rt = eval_runtime()
    dataset = [
        record(gold_edges=[("sort", "head")]),
        record(gold_edges=[("head", "sort")]),  # direction flipped: no overlap
        record(),  # no gold edges: excluded from the edge denominator
    ]
    report = run_eval(dataset, rt.cfg, measures=("stages", "edges"), runtime=rt)
    assert report.edge_similarity == pytest.approx(0.5)
    assert report.edge_exact_rate == pytest.approx(0.5)
    assert report.edge_records == 2
    assert report.stages.total == 100.0


def test_run_eval_report_does_not_depend_on_how_sum_adds_floats(monkeypatch):
    # sum() of floats is compensated from Python 3.12 on; math.fsum stands in for it
    rt = eval_runtime()
    gold = [("sort", "head"), ("head", "sort"), ("sort", "sort"), ("head", "head")]
    # Dice 2/3, 2/4 and 2/5: added left to right they make ...221, compensated ...223
    dataset = [record(gold_edges=gold[:n]) for n in (2, 3, 4)]
    expected = report_json(run_eval(dataset, rt.cfg, measures=("edges",), runtime=rt))
    monkeypatch.setattr("flowgen.evaluation.sum", math.fsum, raising=False)
    report = run_eval(dataset, rt.cfg, measures=("edges",), runtime=rt)
    assert report.edge_similarity == 0.5222222222222221
    assert report_json(report) == expected


def test_run_eval_props_measure_canonicalizes_gold():
    rt = eval_runtime()
    dataset = [
        record(
            gold_properties={"sort": [("sort key", " age "), ("limit", "050")]},
        )
    ]
    report = run_eval(dataset, rt.cfg, measures=("props",), runtime=rt)
    assert (report.props.precision, report.props.recall, report.props.f1) == (1.0, 1.0, 1.0)
    assert report.props.matches == 2


def test_run_eval_props_half_recall():
    rt = eval_runtime()
    dataset = [
        record(gold_properties={"sort": [("Sort Key", "age"), ("Limit", "50")], "head": [("Missing", "x")]})
    ]
    report = run_eval(dataset, rt.cfg, measures=("props",), runtime=rt)
    assert report.props.precision == 1.0
    assert report.props.recall == pytest.approx(2 / 3)


def test_run_eval_failed_record_misses_its_edges_and_properties():
    rt = eval_runtime()
    rt.provider = FailingOn(rt.provider, "fail here")
    gold_edges = [("sort", "head")]
    dataset = [
        record(gold_edges=gold_edges, gold_properties={"sort": [("Sort Key", "age"), ("Limit", "50")]}),
        EvalRecord(
            utterance="sort rows then fail here", gold_stages=["sort", "head"],
            gold_edges=gold_edges, gold_properties={"sort": [("Limit", "7")]},
        ),
    ]
    report = run_eval(dataset, rt.cfg, measures=("stages", "edges", "props"), runtime=rt)
    assert [f["record"] for f in report.failures] == [1]
    assert report.stages.total == 50.0
    assert (report.edge_similarity, report.edge_exact_rate, report.edge_records) == (0.5, 0.5, 2)
    assert (report.props.matches, report.props.predicted, report.props.gold) == (2, 2, 3)
    assert report.props.recall == pytest.approx(2 / 3)


def test_run_eval_never_matches_one_records_prediction_to_anothers_gold():
    # record 0 predicts Sort Key = age and Limit = 50 but has only the first as gold;
    # record 1 fails, with Limit = 50 as its gold: pooled without the record, both matched
    rt = eval_runtime()
    rt.provider = FailingOn(rt.provider, "fail here")
    dataset = [
        record(gold_properties={"sort": [("Sort Key", "age")]}),
        EvalRecord(
            utterance="sort rows then fail here", gold_stages=["sort", "head"],
            gold_properties={"sort": [("Limit", "50")]},
        ),
    ]
    report = run_eval(dataset, rt.cfg, measures=("props",), runtime=rt)
    assert [f["record"] for f in report.failures] == [1]
    assert (report.props.matches, report.props.predicted, report.props.gold) == (1, 2, 2)
    assert (report.props.precision, report.props.recall) == (0.5, 0.5)


def test_run_eval_pipeline_tokens_exceed_stage_only_tokens():
    rt = eval_runtime()
    stage_only = run_eval([record()], rt.cfg, runtime=rt)
    with_pipeline = run_eval(
        [record(gold_edges=[("sort", "head")])], rt.cfg, measures=("stages", "edges"), runtime=rt
    )
    assert with_pipeline.tokens["single"] != stage_only.tokens["single"]
    assert stage_only.tokens["single"] > 0


@pytest.mark.parametrize("failure", ["unparseable", "provider_error"])
def test_run_eval_counts_the_requests_of_failed_records(failure):
    # record 1's stage prompt is sent and paid for, but its answer is unparseable
    # or the provider raises on it
    rt = make_runtime(
        eval_catalog(),
        scripted(("garbled", "!!!"), ("Context:", '"sort, head"')),
        strategy="single",
    )
    if failure == "provider_error":
        rt.provider = FailingOn(rt.provider, "garbled")
    dataset = [record(), EvalRecord(utterance="a garbled and much longer request", gold_stages=["head"])]
    report = run_eval(dataset, rt.cfg, runtime=rt)
    assert [f["record"] for f in report.failures] == [1]
    assert report.failures[0]["message"].startswith("stage_prediction: ")
    sent = [render_prompt(rt.listing, {"utterance": r.utterance}).token_estimate for r in dataset]
    assert sent[0] != sent[1]
    # two requests: the mean is over both prompts, not the answered one alone
    assert report.tokens == {"single": (sent[0] + sent[1]) / 2}


# --- rendering -----------------------------------------------------------------------


def test_report_json_structure(eval_config):
    dataset = load_dataset(fixture_path("eval_dataset_small.json"), DEMO_CATALOG)
    report = run_eval(dataset, eval_config())
    doc = json.loads(report_json(report))
    assert doc["measures"] == ["stages"]
    assert doc["stage_accuracy"] == {
        "total": 100.0,
        "one_op": 100.0,
        "n_op": 100.0,
        "records": 20,
        "one_op_records": 12,
        "n_op_records": 8,
    }
    assert "single" in doc["tokens"]
    assert doc["failures"] == []


def test_report_json_includes_measured_sections():
    rt = eval_runtime()
    dataset = [record(gold_edges=[("sort", "head")], gold_properties={"sort": [("Sort Key", "age")]})]
    report = run_eval(dataset, rt.cfg, measures=("stages", "edges", "props"), runtime=rt)
    doc = json.loads(report_json(report))
    assert doc["edges"]["mean_similarity"] == 1.0
    assert doc["edges"]["exact_rate"] == 1.0
    assert doc["properties"]["recall"] == 1.0
    assert doc["properties"]["predicted"] == 2  # Limit predicted but not in gold


def test_report_table_rendering(eval_config):
    dataset = load_dataset(fixture_path("eval_dataset_small.json"), DEMO_CATALOG)
    report = run_eval(
        dataset, eval_config(mock_scripts_path=fixture_path("mock_scripts_eval.json"))
    )
    table = report_table(report)
    assert "stage accuracy [%]" in table
    assert "95.0" in table and "87.5" in table
    assert "mean prompt tokens" in table and "single:" in table


def test_report_table_shows_edge_and_property_results():
    rt = eval_runtime()
    dataset = [
        record(gold_edges=[("sort", "head")], gold_properties={"sort": [("Sort Key", "age")]}),
        record(gold_edges=[("head", "sort")]),  # flipped: similarity 0; no gold properties
    ]
    report = run_eval(dataset, rt.cfg, measures=("stages", "edges", "props"), runtime=rt)
    # Dice 1 and 0; Limit = 50 is predicted but not gold, so P 1/2, R 1, F1 2/3
    assert report_table(report) == (
        "stage accuracy [%]          total     1-op     n-op\n"
        "                            100.0    100.0    100.0\n"
        "edge similarity            0.5000\n"
        "edge exact rate            0.5000\n"
        "properties                      P        R       F1\n"
        "                           0.5000   1.0000   0.6667\n"
        f"mean prompt tokens       single: {report.tokens['single']:.1f}\n"
        "records: 2, failures: 0\n"
    )


def test_report_table_lists_failures():
    rt = make_runtime(eval_catalog(), scripted(), strategy="single")
    report = run_eval(
        [EvalRecord(utterance="nothing matches", gold_stages=["head"])], rt.cfg, runtime=rt
    )
    table = report_table(report)
    assert "failures: 1" in table
    assert "record 0:" in table
