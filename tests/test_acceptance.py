"""Release acceptance gate.

Eight end-to-end criteria, one test each. Every test prints exactly one
PASS/FAIL verdict line (visible with ``pytest -s`` or in captured output);
the asserts behind a FAIL carry the specifics. Where a criterion has a
runtime budget, the budget is asserted too — these limits are generous on
developer hardware and exist to catch algorithmic blowups, not to bench.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from decimal import Decimal

from conftest import BRANCHING_FLOW, LINEAR_FLOW
from flowgen import fixture_path
from flowgen.catalog import CardinalityBound, load_catalog
from flowgen.classify import load_training_pairs, train
from flowgen.condexpr import (
    And,
    Comparison,
    Defined,
    Literal,
    Not,
    Or,
    PropertyRef,
    eval_condition,
    parse_condition,
)
from flowgen.edgepred import (
    FlowGraph,
    NodeInstance,
    build_nodes,
    edge_metrics,
    repair_with_renames,
    validate_cardinality,
)
from flowgen.evaluation import load_dataset, report_json, run_eval
from flowgen.llm import load_mock_scripts
from flowgen.pipeline import PipelineConfig, build_runtime, emit, generate_with_runtime
from flowgen.proppred import (
    ACCEPTED,
    REJECTED_DEPENDENCY,
    REJECTED_EXTERNAL,
    REJECTED_TYPE,
    REJECTED_UNKNOWN_NAME,
    PropertyAssignment,
    canonical_value,
    coerce,
    load_registry,
    prop_metrics,
    validate,
)
from flowgen.stagepred import predict_cag, predict_single


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def _demo_config(**overrides) -> PipelineConfig:
    defaults = dict(mock_scripts_path=fixture_path("mock_scripts_demo.json"))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


# --- 1: gold workflow reproduction -------------------------------------------------

GOLD_BRANCHING_EDGES = [
    ("mysql", "sample"),
    ("sample", "switch"),
    ("sample", "join"),
    ("switch", "fileset_1"),
    ("switch", "sort"),
    ("sort", "fileset_2"),
    ("sqlserver", "join"),
    ("join", "head"),
]

GOLD_LINEAR_SEQUENCE = ["teradata", "sort", "filter", "decode", "column_generator", "postgresql"]


def test_criterion_1_gold_workflow_reproduction():
    with criterion("1 gold workflow reproduction (branching + linear demo flows)"):
        start = time.perf_counter()
        cfg = _demo_config()

        branching = generate_with_runtime(BRANCHING_FLOW, build_runtime(cfg))
        names = [n.unique_name for n in branching.graph.nodes]
        assert len(names) == 9
        assert sorted(names) == sorted(
            ["mysql", "sample", "switch", "fileset_1", "sort", "fileset_2", "join", "sqlserver", "head"]
        )
        assert len(branching.graph.edges) == 8
        assert set(branching.graph.edges) == set(GOLD_BRANCHING_EDGES)

        linear = generate_with_runtime(LINEAR_FLOW, build_runtime(cfg))
        assert [n.stage for n in linear.graph.nodes] == GOLD_LINEAR_SEQUENCE
        chain = [n.unique_name for n in linear.graph.nodes]
        assert linear.graph.edges == list(zip(chain, chain[1:]))

        # the scripted linear answer deliberately keeps `sort`; the fixture
        # must carry a note documenting the omission in the reference sequence
        scripts = json.loads(fixture_path("mock_scripts_demo.json").read_text())
        notes = [s["note"] for s in scripts if "note" in s]
        assert any("sort" in note for note in notes)

        assert time.perf_counter() - start < 1.0


# --- 2: prompt-size reduction -------------------------------------------------------


def test_criterion_2_token_reduction():
    with criterion("2 scoped prompts <= 0.45x full prompts on synthetic corpus"):
        start = time.perf_counter()
        rt = build_runtime(
            PipelineConfig(
                catalog_path=fixture_path("synthetic_catalog.json"),
                examples_path=fixture_path("synthetic_bank.json"),
                classifier_path=fixture_path("synthetic_training_pairs.json"),
                registry_path=None,
                mock_scripts_path=fixture_path("mock_scripts_synthetic.json"),
            )
        )
        records = load_dataset(fixture_path("synthetic_utterances.json"))
        assert len(records) == 20
        listing = rt.prompts.listing(None, rt.bank)
        for record in records:
            full = predict_single(record.utterance, rt.catalog, listing, rt.provider)
            scoped = predict_cag(
                record.utterance,
                rt.catalog,
                rt.classifier,
                rt.bank,
                rt.provider,
                split_examples=rt.split_examples,
            )
            assert scoped.stage_prompt_tokens <= 0.45 * full.stage_prompt_tokens, (
                record.utterance,
                scoped.stage_prompt_tokens,
                full.stage_prompt_tokens,
            )
        assert time.perf_counter() - start < 5.0


# --- 3: repair soundness -------------------------------------------------------------


def _random_bound(rng: random.Random) -> CardinalityBound:
    lo = rng.randint(0, 2)
    hi = None if rng.random() < 0.3 else lo + rng.randint(0, 3)
    return CardinalityBound(lo, hi)


def _random_graph(rng: random.Random) -> FlowGraph:
    n = rng.randint(1, 20)
    pool = [f"s{k}" for k in range(rng.randint(1, n))]
    stages = [rng.choice(pool) for _ in range(n)]
    total = Counter(stages)
    seen: Counter[str] = Counter()
    nodes = []
    for stage in stages:
        seen[stage] += 1
        name = stage if total[stage] == 1 else f"{stage}_{seen[stage]}"
        nodes.append(NodeInstance(name, stage, _random_bound(rng), _random_bound(rng)))
    names = [node.unique_name for node in nodes]
    pairs = [(a, b) for a in names for b in names if a != b]
    rng.shuffle(pairs)
    return FlowGraph(nodes=nodes, edges=pairs[: rng.randint(0, min(len(pairs), 2 * n))])


def test_criterion_3_repair_soundness():
    with criterion("3 repair: no max-bound violations, idempotent, 1000 random graphs"):
        start = time.perf_counter()
        rng = random.Random(20260814)
        for _ in range(1000):
            g = _random_graph(rng)
            trace: list[dict] = []
            repaired, _renames = repair_with_renames(g, trace)
            pruned = sum(1 for event in trace if event.get("event") == "edge_pruned")

            assert not [v for v in validate_cardinality(repaired) if v.kind == "over"]
            assert len(repaired.edges) == len(g.edges) - pruned
            assert len(repaired.edges) <= len(g.edges)

            again, again_renames = repair_with_renames(repaired)
            assert again_renames == {}
            assert again.edges == repaired.edges
            assert [(n.unique_name, n.stage) for n in again.nodes] == [
                (n.unique_name, n.stage) for n in repaired.nodes
            ]
        assert time.perf_counter() - start < 10.0


# --- 4: metric values ----------------------------------------------------------------


def test_criterion_4_metric_correctness():
    with criterion("4 metrics: stage accuracy 95.0, edge similarity 14/15, P/R/F1 0.5"):
        dataset = load_dataset(fixture_path("eval_dataset_small.json"))
        report = run_eval(
            dataset,
            _demo_config(
                strategy="single", mock_scripts_path=fixture_path("mock_scripts_eval.json")
            ),
        )
        assert report.stages is not None
        assert report.stages.total == 95.0

        catalog = load_catalog(fixture_path("demo_catalog.json"))
        stages = ["mysql", "sample", "switch", "fileset", "sort", "fileset", "join", "sqlserver", "head"]
        gold = FlowGraph(nodes=build_nodes(stages, catalog), edges=list(GOLD_BRANCHING_EDGES))
        pred = FlowGraph(nodes=build_nodes(stages, catalog), edges=GOLD_BRANCHING_EDGES[:-1])
        m = edge_metrics(pred, gold)
        assert abs(m.similarity - 14 / 15) <= 1e-9
        assert not m.exact

        pm = prop_metrics(
            predicted=[("n", "a", "1"), ("n", "b", "1")],
            gold=[("n", "a", "1"), ("n", "c", "1")],
        )
        assert (pm.precision, pm.recall, pm.f1) == (0.5, 0.5, 0.5)


# --- 5: validation gauntlet ----------------------------------------------------------


def _assert_accepted_invariants(results, stage, registry) -> None:
    env: dict[str, object] = {}
    for a in results:
        if a.status == ACCEPTED and a.name not in env:
            env[a.name] = a.coerced
    for a in results:
        if a.status != ACCEPTED:
            continue
        prop = stage.find_property(a.name)
        assert prop is not None and prop.name == a.name
        assert a.coerced is not None
        assert coerce(a.raw_value, prop.value_type) == a.coerced
        if prop.availability:
            assert eval_condition(parse_condition(prop.availability), env)
        kind = registry.bindings.get(stage.name, {}).get(a.name) if registry else None
        if kind is not None:
            assert canonical_value(a.coerced) in registry.kinds[kind]


def test_criterion_5_validation_gauntlet():
    with criterion("5 validation: all four rejection categories fire; accepted invariants hold"):
        catalog = load_catalog(fixture_path("demo_catalog.json"))
        registry = load_registry(fixture_path("demo_registry.json"))
        colgen = catalog.stages["column_generator"]
        mysql = catalog.stages["mysql"]

        out = validate([PropertyAssignment("Ghost Option", "1")], colgen)
        assert out[0].status == REJECTED_UNKNOWN_NAME
        assert "has no such property" in out[0].detail

        out = validate([PropertyAssignment("options/combine operators", "maybe")], colgen)
        assert out[0].status == REJECTED_TYPE
        assert out[0].name == "Options/Combine Operators"
        assert "'maybe' is not a valid boolean" in out[0].detail

        out = validate(
            [
                PropertyAssignment("Options/Column Method", "Schema File"),
                PropertyAssignment("Options/Column To Generate", "age"),
            ],
            colgen,
        )
        assert out[0].status == ACCEPTED
        assert out[1].status == REJECTED_DEPENDENCY
        assert "availability not met" in out[1].detail

        out = validate([PropertyAssignment("Connection Name", "ghost-db")], mysql, registry)
        assert out[0].status == REJECTED_EXTERNAL
        assert "'ghost-db' is not a registered connection" in out[0].detail

        accepted_colgen = validate(
            [
                PropertyAssignment("Options/Column Method", "Explicit"),
                PropertyAssignment("Options/Column To Generate", "age"),
                PropertyAssignment("Options/Combine Operators", "true"),
            ],
            colgen,
            registry,
        )
        assert [a.status for a in accepted_colgen] == [ACCEPTED] * 3
        _assert_accepted_invariants(accepted_colgen, colgen, registry)

        accepted_mysql = validate(
            [PropertyAssignment("Connection Name", "mysql-prod-01")], mysql, registry
        )
        assert [a.status for a in accepted_mysql] == [ACCEPTED]
        _assert_accepted_invariants(accepted_mysql, mysql, registry)


# --- 6: condition evaluator vs truth-table oracle -------------------------------------

_PATHS = ("c_str", "c_int", "c_bool", "c_dec")
_POOLS: dict[str, list[object]] = {
    "c_str": ["a", "b"],
    "c_int": [0, 5],
    "c_bool": [True, False],
    "c_dec": [Decimal("1.5")],
}
_LITERALS = {
    "c_str": [Literal("string", "a"), Literal("string", "z")],
    "c_int": [Literal("integer", 0), Literal("integer", 7)],
    "c_bool": [Literal("boolean", True), Literal("boolean", False)],
    "c_dec": [Literal("decimal", Decimal("1.5")), Literal("decimal", Decimal("0.5"))],
}


def _random_condition(rng: random.Random, ref_budget: list[int]):
    roll = rng.random()
    if roll < 0.25 and ref_budget[0] > 0:  # composite forms first while budget lasts
        return Not(_random_condition(rng, ref_budget))
    if roll < 0.55 and ref_budget[0] > 1:
        make = And if rng.random() < 0.5 else Or
        return make(_random_condition(rng, ref_budget), _random_condition(rng, ref_budget))
    if ref_budget[0] <= 0:
        return Literal("boolean", rng.random() < 0.5)
    ref_budget[0] -= 1
    path = rng.choice(_PATHS)
    leaf = rng.random()
    if leaf < 0.2:
        return Defined(path)
    if leaf < 0.3:
        return PropertyRef("c_bool")
    ops = ("=", "!=") if path == "c_bool" else ("=", "!=", "<", "<=", ">", ">=")
    return Comparison(PropertyRef(path), rng.choice(ops), rng.choice(_LITERALS[path]))


def _render(expr) -> str:
    if isinstance(expr, Literal):
        if expr.kind == "string":
            return f'"{expr.value}"'
        if expr.kind == "boolean":
            return "true" if expr.value else "false"
        return str(expr.value)
    if isinstance(expr, PropertyRef):
        return f"'{expr.path}'"
    if isinstance(expr, Comparison):
        return f"('{expr.ref.path}' {expr.op} {_render(expr.literal)})"
    if isinstance(expr, Defined):
        return f"(defined('{expr.path}'))"
    if isinstance(expr, Not):
        return f"(not {_render(expr.operand)})"
    if isinstance(expr, And):
        return f"({_render(expr.left)} and {_render(expr.right)})"
    return f"({_render(expr.left)} or {_render(expr.right)})"


def _oracle(expr, env) -> bool:
    if isinstance(expr, Literal):
        return bool(expr.value)
    if isinstance(expr, PropertyRef):
        return bool(env[expr.path]) if expr.path in env else False
    if isinstance(expr, Comparison):
        if expr.ref.path not in env:
            return False
        value, lit = env[expr.ref.path], expr.literal.value
        return {
            "=": value == lit,
            "!=": value != lit,
            "<": value < lit,
            "<=": value <= lit,
            ">": value > lit,
            ">=": value >= lit,
        }[expr.op]
    if isinstance(expr, Defined):
        return expr.path in env
    if isinstance(expr, Not):
        return not _oracle(expr.operand, env)
    if isinstance(expr, And):
        return _oracle(expr.left, env) and _oracle(expr.right, env)
    return _oracle(expr.left, env) or _oracle(expr.right, env)


def _environment_table() -> list[dict]:
    envs: list[dict] = [{}]
    for path in _PATHS:
        envs = [
            {**env, **({path: value} if value is not None else {})}
            for env in envs
            for value in [None, *_POOLS[path]]
        ]
    return envs


def test_criterion_6_condition_evaluator_oracle():
    with criterion("6 condition evaluator agrees with truth-table oracle (200 expressions)"):
        start = time.perf_counter()
        rng = random.Random(51209)
        envs = _environment_table()
        for _ in range(200):
            built = _random_condition(rng, ref_budget=[4])
            parsed = parse_condition(_render(built))
            assert parsed == built
            for env in envs:
                assert eval_condition(parsed, env) == _oracle(built, env), (_render(built), env)
        assert time.perf_counter() - start < 5.0


# --- 7: classifier -------------------------------------------------------------------


def test_criterion_7_classifier_recall_and_no_match():
    with criterion("7 classifier: 100% self-recall, no-match probes stay unmatched"):
        catalog = load_catalog(fixture_path("demo_catalog.json"))
        pairs = load_training_pairs(fixture_path("demo_training_pairs.json"))
        model = train(pairs, catalog.stages)

        for utterance, label in pairs:
            got = model.classify(utterance)
            assert got.matched, utterance
            assert got.top == label, (utterance, got.ranked[:3])

        zero_overlap = model.classify("qwxzv plugh xyzzy")
        assert not zero_overlap.matched
        assert all(score == 0.0 for _, score in zero_overlap.ranked)

        row_limit = model.classify("Row limit should be 50")
        assert not row_limit.matched


# --- 8: determinism ------------------------------------------------------------------


def test_criterion_8_determinism_across_runs():
    with criterion("8 two parallel mock runs emit byte-identical documents and reports"):
        gen_cfg = _demo_config(parallel=4)
        eval_cfg = _demo_config(
            strategy="single",
            parallel=4,
            mock_scripts_path=fixture_path("mock_scripts_eval_gold.json"),
        )
        dataset = load_dataset(fixture_path("eval_dataset_small.json"))

        docs, dots, reports = [], [], []
        for _ in range(2):
            workflow = generate_with_runtime(BRANCHING_FLOW, build_runtime(gen_cfg))
            docs.append(emit(workflow, "doc"))
            dots.append(emit(workflow, "dot"))
            reports.append(report_json(run_eval(dataset, eval_cfg)))

        assert docs[0] == docs[1]
        assert dots[0] == dots[1]
        assert reports[0] == reports[1]


# sanity: the scripted provider itself is loadable exactly once per criterion run
def test_shipped_mock_scripts_load():
    for name in ("mock_scripts_demo.json", "mock_scripts_eval.json",
                 "mock_scripts_eval_gold.json", "mock_scripts_synthetic.json"):
        provider = load_mock_scripts(fixture_path(name))
        assert provider.scripts
