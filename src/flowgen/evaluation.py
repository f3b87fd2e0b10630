"""Offline evaluation over labeled datasets.

A dataset is a JSON array of records: an ``utterance``, its ``gold_stages``
(ordered, so duplicate stages map to ``_1``/``_2`` node names), and
optionally ``gold_edges`` and per-node ``gold_properties``. The harness runs
the configured strategy per record and aggregates:

* stage accuracy — exact multiset match, bucketed into total / single-stage /
  multi-stage records,
* edge similarity — mean Dice over aligned edges plus an exact-graph rate,
* property precision/recall/F1 — micro-averaged over pooled
  (node, property, value) triples, each keyed by its record, so one
  record's prediction never matches another record's gold,
* tokens — mean prompt-token estimate per completion request, from the
  rendered prompts, not provider-reported usage.

Per-record failures land in a ``failures`` section and the run continues.
A failed record counts as a miss on every measure: a wrong stage answer,
edge similarity 0.0 and not exact, and every gold triple unmatched. So an
eval whose records all fail scores zero, not a perfect score over no
records.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from . import InputError, Record, read_json, run_in_order, thread_pool
from .catalog import Catalog
from .edgepred import FlowGraph, build_nodes, edge_metrics, node_names
from .llm import usage
from .pipeline import (
    PipelineConfig,
    PipelineError,
    Runtime,
    build_runtime,
    generate_with_runtime,
    predict_stages,
)
from .proppred import PropMetrics, PropTriple, canonical_value, coerce, prop_metrics

__all__ = [
    "EvalRecord",
    "StageAccuracy",
    "MetricsReport",
    "load_dataset",
    "stage_accuracy",
    "run_eval",
    "report_json",
    "report_table",
]

MEASURES = ("stages", "edges", "props")


class EvalRecord:
    __slots__ = ("utterance", "gold_stages", "gold_edges", "gold_properties")

    def __init__(
        self, utterance: str, gold_stages: list[str],
        gold_edges: list[tuple[str, str]] | None = None,
        gold_properties: dict[str, list[tuple[str, str]]] | None = None,
    ):
        self.utterance = utterance
        self.gold_stages = gold_stages  # ordered; duplicates become _1/_2 instances
        self.gold_edges = gold_edges
        self.gold_properties = gold_properties


class StageAccuracy(Record):
    __slots__ = ("total", "one_op", "n_op", "n_records", "n_one_op", "n_n_op")

    def __init__(
        self, total: float, one_op: float, n_op: float, n_records: int = 0, n_one_op: int = 0,
        n_n_op: int = 0,
    ):
        self.total = total
        self.one_op = one_op
        self.n_op = n_op
        self.n_records = n_records
        self.n_one_op = n_one_op
        self.n_n_op = n_n_op


class MetricsReport:
    __slots__ = (
        "measures", "records", "stages", "edge_similarity", "edge_exact_rate", "edge_records",
        "props", "tokens", "failures",
    )

    def __init__(self, measures: list[str], records: int):
        self.measures = measures
        self.records = records
        self.stages: StageAccuracy | None = None
        self.edge_similarity: float | None = None
        self.edge_exact_rate: float | None = None
        self.edge_records = 0
        self.props: PropMetrics | None = None
        self.tokens: dict[str, float] = {}
        self.failures: list[dict] = []


_PROPERTY = {"name": str, "value": (str, int, float)}
_DATASET = [{
    "utterance": str, "gold_stages": [str],
    "gold_edges?": (None, [{"from": str, "to": str}]), "gold_properties?": (None, {str: [_PROPERTY]}),
}]


def load_dataset(path: str | Path) -> list[EvalRecord]:
    """Load and validate a dataset; edges must reference gold stage instances.

    A null ``gold_edges`` or ``gold_properties`` reads as absent, a number as a value as its text.
    """
    records: list[EvalRecord] = []
    for i, item in enumerate(read_json(path, _DATASET)):
        if not item["gold_stages"]:
            raise InputError("expected at least one stage", f"{path}: [{i}].gold_stages")
        record = EvalRecord(utterance=item["utterance"], gold_stages=item["gold_stages"])
        names = set(node_names(record.gold_stages))
        if item.get("gold_edges") is not None:
            for j, edge in enumerate(item["gold_edges"]):
                for end in ("from", "to"):
                    if edge[end] not in names:
                        locus = f"{path}: [{i}].gold_edges[{j}].{end}"
                        raise InputError(f"unknown node {edge[end]!r}", locus)
            record.gold_edges = [(e["from"], e["to"]) for e in item["gold_edges"]]
        if item.get("gold_properties") is not None:
            record.gold_properties = {}
            for node, items in item["gold_properties"].items():
                if node not in names:
                    raise InputError(f"unknown node {node!r}", f"{path}: [{i}].gold_properties")
                record.gold_properties[node] = [(p["name"], canonical_value(p["value"])) for p in items]
        records.append(record)
    return records


# --- stage accuracy ----------------------------------------------------------


def stage_accuracy(
    predictions: list[list[str] | None], golds: list[list[str]]
) -> StageAccuracy:
    """Exact multiset match rate, in percent, bucketed by gold size.

    A None prediction, from a failed record, is a miss. A bucket with no
    records is vacuously 100.0.
    """
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds differ in length")
    buckets = {"total": [0, 0], "one_op": [0, 0], "n_op": [0, 0]}
    for pred, gold in zip(predictions, golds):
        correct = pred is not None and sorted(pred) == sorted(gold)
        keys = ["total", "one_op" if len(gold) == 1 else "n_op"]
        for key in keys:
            buckets[key][1] += 1
            if correct:
                buckets[key][0] += 1

    def pct(hit: int, n: int) -> float:
        return 100.0 if n == 0 else 100.0 * hit / n

    return StageAccuracy(
        total=pct(*buckets["total"]),
        one_op=pct(*buckets["one_op"]),
        n_op=pct(*buckets["n_op"]),
        n_records=buckets["total"][1],
        n_one_op=buckets["one_op"][1],
        n_n_op=buckets["n_op"][1],
    )


# --- full harness --------------------------------------------------------------


def _gold_graph(record: EvalRecord, catalog: Catalog) -> FlowGraph:
    nodes = build_nodes(record.gold_stages, catalog)
    return FlowGraph(nodes=nodes, edges=list(record.gold_edges or []))


def _gold_triples(record: EvalRecord, catalog: Catalog) -> list[PropTriple]:
    triples: list[PropTriple] = []
    stage_of = dict(zip(node_names(record.gold_stages), record.gold_stages))
    for node, items in (record.gold_properties or {}).items():
        stage = catalog.stages.get(stage_of[node]) if node in stage_of else None
        for name, value in items:
            canon = value.strip()
            declared = stage.find_property(name) if stage else None
            if declared is not None:
                coerced = coerce(value, declared.value_type)
                if coerced is not None:
                    canon = canonical_value(coerced)
                name = declared.name
            triples.append((node, name, canon))
    return triples


def _eval_record(record: EvalRecord, rt: Runtime, measures: tuple[str, ...]) -> tuple:
    """One record's ``(usage, failure, stages, edge, pred_triples, gold_triples)``.

    ``failure`` is the text of a ``PipelineError``, or None; ``edge`` is
    ``(similarity, exact)`` when the record's edges are measured, and
    ``gold_triples`` is empty unless its properties are. A failed record
    predicts no stages (None), no edge and no triple.
    """
    measure_edges = "edges" in measures and record.gold_edges is not None
    measure_props = "props" in measures and record.gold_properties is not None
    gold_triples = _gold_triples(record, rt.catalog) if measure_props else []
    edge = None
    pred_triples: list[PropTriple] = []
    try:
        if measure_edges or measure_props:
            workflow = generate_with_runtime(record.utterance, rt)
            spent = workflow.provenance["usage"]
            pred = [n.stage for n in workflow.graph.nodes]
            if measure_edges:
                metrics = edge_metrics(workflow.graph, _gold_graph(record, rt.catalog))
                edge = (metrics.similarity, metrics.exact)
            if measure_props:
                for node in sorted(workflow.properties):
                    for a in workflow.properties[node]:
                        pred_triples.append((node, a.name, canonical_value(a.coerced)))
        else:
            prediction = predict_stages(record.utterance, rt)
            spent = usage(prediction.trace)
            pred = list(prediction.stages)
    except PipelineError as exc:
        # a failed record still paid for the calls made before the failure
        edge = (0.0, False) if measure_edges else None
        return exc.provenance.get("usage", usage()), str(exc), None, edge, [], gold_triples
    return spent, None, pred, edge, pred_triples, gold_triples


def run_eval(
    dataset: list[EvalRecord],
    cfg: PipelineConfig,
    measures: tuple[str, ...] = ("stages",),
    runtime: Runtime | None = None,
) -> MetricsReport:
    """Evaluate the configured strategy over a dataset.

    ``stages`` only needs stage predictions; ``edges`` and ``props`` run the
    full pipeline for records that carry the corresponding gold data. Records
    run concurrently up to the configured width, and their edge and property
    branches share the runtime's own pool of that width; aggregation is keyed
    by record index, so the report does not depend on completion order.
    """
    for m in measures:
        if m not in MEASURES:
            raise InputError(f"unknown measure {m!r} (choose from {MEASURES})")
    rt = runtime or build_runtime(cfg)
    stages = rt.catalog.stages
    for index, record in enumerate(dataset):
        # the record's own names: a set minus the keys view would walk the whole catalog
        unknown = sorted({s for s in record.gold_stages if s not in stages})
        if unknown:
            raise InputError(f"record {index} has gold stages outside the catalog: {unknown}")
    report = MetricsReport(measures=list(measures), records=len(dataset))

    calls = [partial(_eval_record, record, rt, measures) for record in dataset]
    # the records' own pool: a record waits on its branches, which run on the runtime's
    wide = rt.cfg.parallel > 1 and len(calls) > 1
    with thread_pool(rt.cfg.parallel) if wide else nullcontext() as pool:
        results = run_in_order(calls, pool)

    prompt_tokens = 0
    requests = 0
    preds: list[list[str] | None] = []
    golds: list[list[str]] = []
    edge_sims: list[float] = []
    edge_exacts: list[bool] = []
    prop_records = 0
    pred_triples: list[tuple[int, PropTriple]] = []
    gold_triples: list[tuple[int, PropTriple]] = []
    for index, (record, result) in enumerate(zip(dataset, results)):
        spent, failure, pred, edge, record_pred_triples, record_gold_triples = result
        prompt_tokens += spent["prompt_tokens"]
        requests += spent["requests"]
        if failure is not None:
            report.failures.append({"record": index, "message": failure})
        if "stages" in measures:
            preds.append(pred)
            golds.append(record.gold_stages)
        if edge is not None:
            edge_sims.append(edge[0])
            edge_exacts.append(edge[1])
        prop_records += record.gold_properties is not None
        pred_triples.extend((index, t) for t in record_pred_triples)
        gold_triples.extend((index, t) for t in record_gold_triples)

    if "stages" in measures:
        report.stages = stage_accuracy(preds, golds)
    if "edges" in measures and edge_sims:
        # left to right: sum() of floats is compensated from Python 3.12 on
        similarity = 0.0
        for sim in edge_sims:
            similarity += sim
        report.edge_similarity = similarity / len(edge_sims)
        report.edge_exact_rate = sum(edge_exacts) / len(edge_exacts)
        report.edge_records = len(edge_sims)
    if "props" in measures and prop_records:
        report.props = prop_metrics(pred_triples, gold_triples)
    if requests:
        report.tokens = {rt.cfg.strategy: prompt_tokens / requests}
    return report


# --- rendering -------------------------------------------------------------------


def report_json(report: MetricsReport) -> str:
    doc: dict = {"measures": report.measures}
    if report.stages is not None:
        doc["stage_accuracy"] = {
            "total": report.stages.total,
            "one_op": report.stages.one_op,
            "n_op": report.stages.n_op,
            "records": report.stages.n_records,
            "one_op_records": report.stages.n_one_op,
            "n_op_records": report.stages.n_n_op,
        }
    if report.edge_similarity is not None:
        doc["edges"] = {
            "mean_similarity": report.edge_similarity,
            "exact_rate": report.edge_exact_rate,
            "records": report.edge_records,
        }
    if report.props is not None:
        doc["properties"] = {
            "precision": report.props.precision,
            "recall": report.props.recall,
            "f1": report.props.f1,
            "matches": report.props.matches,
            "predicted": report.props.predicted,
            "gold": report.props.gold,
        }
    doc["tokens"] = report.tokens
    doc["failures"] = report.failures
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def report_table(report: MetricsReport) -> str:
    lines: list[str] = []
    if report.stages is not None:
        s = report.stages
        lines.append(f"{'stage accuracy [%]':24} {'total':>8} {'1-op':>8} {'n-op':>8}")
        lines.append(f"{'':24} {s.total:>8.1f} {s.one_op:>8.1f} {s.n_op:>8.1f}")
    if report.edge_similarity is not None:
        lines.append(f"{'edge similarity':24} {report.edge_similarity:>8.4f}")
        lines.append(f"{'edge exact rate':24} {report.edge_exact_rate:>8.4f}")
    if report.props is not None:
        p = report.props
        lines.append(f"{'properties':24} {'P':>8} {'R':>8} {'F1':>8}")
        lines.append(f"{'':24} {p.precision:>8.4f} {p.recall:>8.4f} {p.f1:>8.4f}")
    for strategy, mean in sorted(report.tokens.items()):
        lines.append(f"{'mean prompt tokens':24} {strategy}: {mean:.1f}")
    lines.append(f"records: {report.records}, failures: {len(report.failures)}")
    for failure in report.failures:
        lines.append(f"  record {failure['record']}: {failure['message']}")
    return "\n".join(lines) + "\n"
